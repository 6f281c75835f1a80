//! Directory entries: DN-named sets of attribute/value pairs.

use crate::{AttrName, AttrValue, Dn};
use serde::{Deserialize, Serialize};
use std::collections::{BTreeMap, BTreeSet};
use std::fmt;
use std::sync::Arc;

/// The values of one attribute.
type Values = BTreeSet<AttrValue>;

/// Attribute name → value set: the part of an entry's body that says which
/// sets it is made of.
type Spine = BTreeMap<AttrName, Arc<Values>>;

/// An entry in the Directory Information Tree.
///
/// An entry is a set of attribute/value pairs plus a distinguished name.
/// Attributes are multi-valued sets; values compare with the normalized
/// semantics of [`AttrValue`].
///
/// ```
/// use fbdr_ldap::Entry;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let mut e = Entry::new("cn=John Doe,o=xyz".parse()?);
/// e.add_str("objectclass", "inetOrgPerson");
/// e.add_str("cn", "John Doe");
/// e.add_str("cn", "John M Doe");
/// assert!(e.has_value(&"CN".into(), &"john doe".into()));
/// assert_eq!(e.values(&"cn".into()).count(), 2);
/// # Ok(())
/// # }
/// ```
///
/// # Sharing
///
/// An `Entry` is a handle on a body shared copy-on-write in two levels:
/// the attribute map sits behind one `Arc` and each attribute's value set
/// behind its own. [`Clone`] bumps two refcounts (the DN's and the map's)
/// and copies no text, so a search result, a sync action and a replica's
/// slot hold the very body the master's store does. A clone is still a
/// value — nothing written through one handle shows through another: the
/// first write to a shared body copies the map's pointers and the one set
/// it changes, every other set stays shared, and a write that changes
/// nothing copies nothing.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Entry {
    dn: Dn,
    attrs: Arc<Spine>,
}

impl Entry {
    /// Creates an empty entry with the given name.
    pub fn new(dn: Dn) -> Self {
        Entry { dn, attrs: Arc::default() }
    }

    /// The entry's distinguished name.
    pub fn dn(&self) -> &Dn {
        &self.dn
    }

    /// Renames the entry (modify DN). The caller is responsible for keeping
    /// any store indexes consistent.
    pub fn set_dn(&mut self, dn: Dn) {
        self.dn = dn;
    }

    /// The attribute map for writing — the copy-on-write step of every
    /// mutator, taken once it knows the call changes something: a map other
    /// handles share is first copied, pointer by pointer. A mutator that
    /// edits a value set in place unshares that set the same way.
    fn spine_mut(&mut self) -> &mut Spine {
        Arc::make_mut(&mut self.attrs)
    }

    /// Adds a value; returns true if it was not already present.
    pub fn add(&mut self, attr: impl Into<AttrName>, value: impl Into<AttrValue>) -> bool {
        let (attr, value) = (attr.into(), value.into());
        if self.has_value(&attr, &value) {
            return false;
        }
        Arc::make_mut(self.spine_mut().entry(attr).or_default()).insert(value)
    }

    /// Convenience for `add` with string literals.
    pub fn add_str(&mut self, attr: &str, value: &str) -> bool {
        self.add(attr, value)
    }

    /// Builder-style `add` for test and example construction.
    pub fn with(mut self, attr: &str, value: &str) -> Self {
        self.add(attr, value);
        self
    }

    /// Removes a single value; returns true if it was present. Removes the
    /// attribute entirely when its last value goes.
    pub fn remove_value(&mut self, attr: &AttrName, value: &AttrValue) -> bool {
        let held = match self.attrs.get(attr) {
            Some(set) if set.contains(value) => set.len(),
            _ => return false,
        };
        if held == 1 {
            self.spine_mut().remove(attr);
        } else if let Some(set) = self.spine_mut().get_mut(attr) {
            Arc::make_mut(set).remove(value);
        }
        true
    }

    /// Removes an attribute and all its values; returns true if present.
    pub fn remove_attr(&mut self, attr: &AttrName) -> bool {
        self.has_attr(attr) && self.spine_mut().remove(attr).is_some()
    }

    /// Replaces all values of an attribute. An empty iterator removes the
    /// attribute.
    pub fn replace<I, V>(&mut self, attr: impl Into<AttrName>, values: I)
    where
        I: IntoIterator<Item = V>,
        V: Into<AttrValue>,
    {
        let attr = attr.into();
        let set: Values = values.into_iter().map(Into::into).collect();
        // Changes nothing only if every spelling stays: equal values may
        // be written differently, and the new set brings its own.
        let unchanged = match self.attrs.get(&attr) {
            Some(old) => old.iter().map(AttrValue::raw).eq(set.iter().map(AttrValue::raw)),
            None => set.is_empty(),
        };
        if unchanged {
            return;
        }
        if set.is_empty() {
            self.spine_mut().remove(&attr);
        } else {
            self.spine_mut().insert(attr, Arc::new(set));
        }
    }

    /// True if the attribute exists with the given value.
    pub fn has_value(&self, attr: &AttrName, value: &AttrValue) -> bool {
        self.attrs.get(attr).is_some_and(|s| s.contains(value))
    }

    /// True if the attribute is present with at least one value.
    pub fn has_attr(&self, attr: &AttrName) -> bool {
        self.attrs.contains_key(attr)
    }

    /// Iterates the values of an attribute (empty if absent).
    pub fn values<'a>(&'a self, attr: &AttrName) -> impl Iterator<Item = &'a AttrValue> + 'a {
        self.attrs.get(attr).into_iter().flat_map(|set| set.iter())
    }

    /// The value set of an attribute as the entry holds it, for a reader
    /// that keeps it: cloning the `Arc` shares the set instead of copying
    /// its values.
    pub fn value_set(&self, attr: &AttrName) -> Option<&Arc<BTreeSet<AttrValue>>> {
        self.attrs.get(attr)
    }

    /// The first value of an attribute, if any.
    pub fn first_value(&self, attr: &AttrName) -> Option<&AttrValue> {
        self.values(attr).next()
    }

    /// Iterates `(name, values)` pairs in attribute-name order.
    pub fn attrs(&self) -> impl Iterator<Item = (&AttrName, &BTreeSet<AttrValue>)> {
        self.attrs.iter().map(|(a, vs)| (a, &**vs))
    }

    /// Names of all present attributes.
    pub fn attr_names(&self) -> impl Iterator<Item = &AttrName> {
        self.attrs.keys()
    }

    /// Values of the `objectclass` attribute.
    pub fn object_classes(&self) -> impl Iterator<Item = &AttrValue> {
        self.values(&AttrName::new("objectclass"))
    }

    /// Projects the entry onto a subset of attributes (used when answering
    /// searches that request specific attributes). The DN is always kept;
    /// the projection shares the value sets it keeps.
    pub fn project<'a, I>(&self, attrs: I) -> Entry
    where
        I: IntoIterator<Item = &'a AttrName>,
    {
        let mut spine = Spine::new();
        for a in attrs {
            if let Some(set) = self.attrs.get(a) {
                spine.insert(a.clone(), set.clone());
            }
        }
        Entry { dn: self.dn.clone(), attrs: Arc::new(spine) }
    }

    /// Estimated wire size in bytes: DN plus every attribute name and value.
    ///
    /// Used by the traffic cost model; this intentionally approximates a
    /// BER-encoded LDAP entry PDU rather than reproducing ASN.1 exactly.
    pub fn estimated_size(&self) -> usize {
        let mut n = self.dn.display_len() + 8;
        for (a, vs) in self.attrs() {
            for v in vs {
                n += a.as_str().len() + v.raw().len() + 4;
            }
        }
        n
    }
}

impl fmt::Display for Entry {
    /// LDIF-like rendering.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "dn: {}", self.dn)?;
        for (a, vs) in self.attrs() {
            for v in vs {
                writeln!(f, "{a}: {v}")?;
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn person() -> Entry {
        Entry::new("cn=John Doe,ou=research,c=us,o=xyz".parse().unwrap())
            .with("objectclass", "inetOrgPerson")
            .with("cn", "John Doe")
            .with("cn", "John M Doe")
            .with("telephoneNumber", "2618-2618")
            .with("mail", "john@us.xyz.com")
            .with("serialNumber", "0456")
            .with("departmentNumber", "80")
    }

    #[test]
    fn multi_valued_attributes() {
        let e = person();
        assert_eq!(e.values(&"cn".into()).count(), 2);
        assert!(e.has_value(&"cn".into(), &"JOHN M DOE".into()));
    }

    #[test]
    fn add_is_set_semantics() {
        let mut e = person();
        assert!(!e.add("cn", "john doe")); // normalized duplicate
        assert_eq!(e.values(&"cn".into()).count(), 2);
    }

    #[test]
    fn remove_value_and_attr() {
        let mut e = person();
        assert!(e.remove_value(&"cn".into(), &"John Doe".into()));
        assert_eq!(e.values(&"cn".into()).count(), 1);
        assert!(e.remove_value(&"cn".into(), &"John M Doe".into()));
        assert!(!e.has_attr(&"cn".into()));
        assert!(!e.remove_value(&"cn".into(), &"gone".into()));
        assert!(e.remove_attr(&"mail".into()));
        assert!(!e.has_attr(&"mail".into()));
    }

    #[test]
    fn replace_semantics() {
        let mut e = person();
        e.replace("departmentNumber", ["81", "82"]);
        let vals: Vec<_> = e.values(&"departmentNumber".into()).map(|v| v.raw().to_owned()).collect();
        assert_eq!(vals, ["81", "82"]);
        e.replace("departmentNumber", Vec::<&str>::new());
        assert!(!e.has_attr(&"departmentNumber".into()));
    }

    #[test]
    fn projection_keeps_requested_attrs() {
        let e = person();
        let p = e.project([&"cn".into(), &"mail".into()]);
        assert!(p.has_attr(&"cn".into()));
        assert!(p.has_attr(&"mail".into()));
        assert!(!p.has_attr(&"serialNumber".into()));
        assert_eq!(p.dn(), e.dn());
    }

    /// Handles cross threads: the replica's readers hold the bodies its
    /// writer and the master's store do.
    const _: fn() = || {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<Entry>();
    };

    #[test]
    fn a_clone_shares_the_body_and_a_write_copies_what_it_changes() {
        let held = person();
        let mut e = held.clone();
        // Writes that change nothing, and a rename, leave the body shared.
        assert!(!e.add("cn", "john doe"));
        assert!(!e.remove_value(&"cn".into(), &"absent".into()));
        assert!(!e.remove_attr(&"fax".into()));
        e.replace("mail", ["john@us.xyz.com"]);
        e.replace("fax", Vec::<&str>::new());
        e.set_dn("cn=Renamed,o=xyz".parse().unwrap());
        assert!(Arc::ptr_eq(&e.attrs, &held.attrs));
        // The first write that changes something copies the map's
        // pointers and the one set it edits.
        assert!(e.add("cn", "Johnny"));
        assert!(!Arc::ptr_eq(&e.attrs, &held.attrs));
        for (a, set) in held.attrs.iter() {
            assert_eq!(Arc::ptr_eq(set, &e.attrs[a]), a.lower() != "cn", "{a}");
        }
        e.set_dn(held.dn().clone());
        assert_eq!(held, person());
        assert_ne!(e, held);
        // Another spelling of a held value is a change.
        e.replace("mail", ["JOHN@us.xyz.com"]);
        assert_eq!(e.first_value(&"mail".into()).unwrap().raw(), "JOHN@us.xyz.com");
        assert_eq!(held.first_value(&"mail".into()).unwrap().raw(), "john@us.xyz.com");
        // A projection shares the sets it keeps.
        let mail = AttrName::new("mail");
        assert!(Arc::ptr_eq(&held.project([&mail]).attrs[&mail], &held.attrs[&mail]));
    }

    #[test]
    fn object_classes_accessor() {
        let e = person();
        let ocs: Vec<_> = e.object_classes().map(|v| v.normalized().to_owned()).collect();
        assert_eq!(ocs, ["inetorgperson"]);
    }

    #[test]
    fn estimated_size_positive_and_monotonic() {
        let mut e = person();
        let before = e.estimated_size();
        e.add("description", "some text");
        assert!(e.estimated_size() > before);
    }
}
