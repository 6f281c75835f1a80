//! Change sequence numbers, changelog records and tombstones.
//!
//! The paper (§5.2) contrasts ReSync's per-session history against two
//! widespread alternatives for tracking directory changes:
//!
//! * **changelogs** — the directory records, per update, *only the changed
//!   attributes* (draft-good-ldap-changelog). A changelog cannot always
//!   decide whether a deleted entry was inside the content of a filter:
//!   if an entry is first modified out of the content and then deleted, the
//!   delete record carries no attributes to test the filter against.
//! * **tombstones** — a hidden entry that keeps the *state but not the
//!   data* of a deleted entry, so every deleted DN must be shipped to every
//!   consumer.
//!
//! Both are implemented here so the resync crate can quantify the
//! difference.

use fbdr_ldap::{AttrName, AttrValue, Dn};
use serde::{Deserialize, Serialize};
use std::fmt;

/// A change sequence number: totally ordered, monotonically increasing per
/// store. CSN 0 means "before any change".
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize,
)]
pub struct Csn(pub u64);

impl Csn {
    /// The zero CSN (before all changes).
    pub const ZERO: Csn = Csn(0);

    /// The next CSN.
    pub fn next(self) -> Csn {
        Csn(self.0 + 1)
    }
}

impl fmt::Display for Csn {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "csn:{}", self.0)
    }
}

/// The kind of update a change record describes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum ChangeKind {
    /// Entry added.
    Add,
    /// Entry deleted.
    Delete,
    /// Attributes modified.
    Modify,
    /// Entry renamed / moved (modify DN).
    ModifyDn,
}

impl fmt::Display for ChangeKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            ChangeKind::Add => "add",
            ChangeKind::Delete => "delete",
            ChangeKind::Modify => "modify",
            ChangeKind::ModifyDn => "modifydn",
        })
    }
}

/// One changelog record, in the style of draft-good-ldap-changelog:
/// the target DN, the kind of change, and *only* the changed attribute
/// values — deliberately not the full entry.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ChangeRecord {
    /// Sequence number of this change.
    pub csn: Csn,
    /// DN the operation targeted (the *old* DN for renames).
    pub dn: Dn,
    /// What kind of operation it was.
    pub kind: ChangeKind,
    /// For `Modify`: the attribute/value pairs that were added or removed
    /// (attribute name, new values after the change). For `Add`: all
    /// attributes of the new entry. Empty for `Delete`.
    pub changes: Vec<(AttrName, Vec<AttrValue>)>,
    /// For `ModifyDn`: the new DN.
    pub new_dn: Option<Dn>,
}

impl ChangeRecord {
    /// Estimated wire size in bytes (cost model for changelog shipping).
    pub fn estimated_size(&self) -> usize {
        let mut n = self.dn.display_len() + 12;
        for (a, vs) in &self.changes {
            for v in vs {
                n += a.as_str().len() + v.raw().len() + 4;
            }
        }
        if let Some(d) = &self.new_dn {
            n += d.display_len();
        }
        n
    }
}

/// A tombstone: the DN and deletion CSN of a deleted entry — no attribute
/// data, which is exactly why tombstone-based sync must ship every deleted
/// DN to every consumer (§5.2).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Tombstone {
    /// The deleted entry's DN.
    pub dn: Dn,
    /// When it was deleted.
    pub csn: Csn,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn csn_ordering_and_next() {
        assert!(Csn::ZERO < Csn(1));
        assert_eq!(Csn(4).next(), Csn(5));
        assert_eq!(Csn::ZERO.next(), Csn(1));
    }

    #[test]
    fn change_record_size_counts_changes() {
        let rec = ChangeRecord {
            csn: Csn(1),
            dn: "cn=a,o=xyz".parse().unwrap(),
            kind: ChangeKind::Modify,
            changes: vec![("mail".into(), vec!["a@b.c".into()])],
            new_dn: None,
        };
        let empty = ChangeRecord { changes: vec![], ..rec.clone() };
        assert!(rec.estimated_size() > empty.estimated_size());
    }
}
