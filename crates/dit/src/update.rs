//! LDAP update operations.

use fbdr_ldap::{AttrName, AttrValue, Dn, Entry, Rdn};
use serde::{Deserialize, Serialize};
use std::fmt;

/// One modification within a `Modify` operation.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum Modification {
    /// Add values to an attribute (creating it if absent).
    AddValues(AttrName, Vec<AttrValue>),
    /// Delete specific values (the attribute goes when its last value does).
    DeleteValues(AttrName, Vec<AttrValue>),
    /// Delete an attribute entirely.
    DeleteAttr(AttrName),
    /// Replace all values of an attribute (empty list deletes it).
    Replace(AttrName, Vec<AttrValue>),
}

impl Modification {
    /// The attribute this modification touches.
    pub fn attr(&self) -> &AttrName {
        match self {
            Modification::AddValues(a, _)
            | Modification::DeleteValues(a, _)
            | Modification::DeleteAttr(a)
            | Modification::Replace(a, _) => a,
        }
    }
}

/// Computes the modifications that transform entry `old` into entry `new`
/// (same DN assumed): replaced/added attributes become [`Modification::Replace`],
/// removed attributes become [`Modification::DeleteAttr`]. Applying the
/// result to `old` via [`DitStore::modify`](crate::DitStore::modify)
/// yields `new` exactly.
///
/// ```
/// use fbdr_dit::{diff_entries, Modification};
/// use fbdr_ldap::Entry;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let old = Entry::new("cn=a,o=x".parse()?).with("mail", "old@x").with("fax", "1");
/// let new = Entry::new("cn=a,o=x".parse()?).with("mail", "new@x").with("tel", "2");
/// let mods = diff_entries(&old, &new);
/// assert_eq!(mods.len(), 3); // replace mail, delete fax, replace(add) tel
/// # Ok(())
/// # }
/// ```
pub fn diff_entries(old: &Entry, new: &Entry) -> Vec<Modification> {
    let mut mods = Vec::new();
    // Removed attributes.
    for (a, _) in old.attrs() {
        if !new.has_attr(a) {
            mods.push(Modification::DeleteAttr(a.clone()));
        }
    }
    // Added or changed attributes.
    for (a, vs) in new.attrs() {
        // Spelling by spelling, as `Entry::replace` decides what a change is.
        if !old.value_set(a).is_some_and(|held| held.same_spellings(vs)) {
            mods.push(Modification::Replace(a.clone(), vs.iter().cloned().collect()));
        }
    }
    mods
}

/// An LDAP update operation against a [`DitStore`](crate::DitStore).
///
/// The four kinds mirror §2.2 of the paper: add, modify, delete and
/// modify DN (entry move/rename).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum UpdateOp {
    /// Add a new entry.
    Add(Entry),
    /// Delete a (leaf) entry.
    Delete(Dn),
    /// Modify attributes of an entry.
    Modify {
        /// Target entry.
        dn: Dn,
        /// Modifications applied in order.
        mods: Vec<Modification>,
    },
    /// Rename and/or move a (leaf) entry.
    ModifyDn {
        /// Current DN.
        dn: Dn,
        /// New RDN for the entry.
        new_rdn: Rdn,
        /// New parent; `None` keeps the current parent.
        new_superior: Option<Dn>,
    },
}

impl UpdateOp {
    /// The DN the operation targets (the old DN for renames).
    pub fn target(&self) -> &Dn {
        match self {
            UpdateOp::Add(e) => e.dn(),
            UpdateOp::Delete(dn) => dn,
            UpdateOp::Modify { dn, .. } => dn,
            UpdateOp::ModifyDn { dn, .. } => dn,
        }
    }
}

impl fmt::Display for UpdateOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            UpdateOp::Add(e) => write!(f, "add {}", e.dn()),
            UpdateOp::Delete(dn) => write!(f, "delete {dn}"),
            UpdateOp::Modify { dn, mods } => write!(f, "modify {dn} ({} mods)", mods.len()),
            UpdateOp::ModifyDn { dn, new_rdn, new_superior } => match new_superior {
                Some(sup) => write!(f, "modifydn {dn} -> {new_rdn},{sup}"),
                None => write!(f, "modifydn {dn} -> rdn {new_rdn}"),
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn target_dn_per_kind() {
        let dn: Dn = "cn=a,o=x".parse().unwrap();
        assert_eq!(UpdateOp::Delete(dn.clone()).target(), &dn);
        assert_eq!(UpdateOp::Add(Entry::new(dn.clone())).target(), &dn);
        let m = UpdateOp::Modify { dn: dn.clone(), mods: vec![] };
        assert_eq!(m.target(), &dn);
    }

    #[test]
    fn a_change_of_spelling_is_a_modification() {
        let dn: Dn = "cn=a,o=x".parse().unwrap();
        let old = Entry::new(dn.clone()).with("cn", "John Doe").with("mail", "jd@x");
        let new = Entry::new(dn).with("cn", "JOHN DOE").with("mail", "jd@x");
        assert_eq!(old, new);
        let mods = diff_entries(&old, &new);
        let [Modification::Replace(attr, values)] = &mods[..] else { panic!("{mods:?}") };
        assert_eq!((attr.as_str(), values[0].raw(), values.len()), ("cn", "JOHN DOE", 1));
        assert_eq!(diff_entries(&old, &old.clone()), []);
    }

    #[test]
    fn modification_attr() {
        let m = Modification::Replace("mail".into(), vec!["a@b".into()]);
        assert_eq!(m.attr().as_str(), "mail");
    }
}
