//! Change sequence numbers and changelog records.
//!
//! [`DitStore`](crate::DitStore) numbers each applied update with a
//! [`Csn`] and hands back its [`ChangeRecord`] — the target DN and the kind
//! of change, in the style of draft-good-ldap-changelog. The store keeps
//! neither the records nor tombstones of deleted entries. The changelog
//! and tombstone schemes that §5.2 contrasts with ReSync's per-session
//! history are comparison systems of the paper, and live in `fbdr-bench`
//! (`fbdr_bench::history`), fed from these records.

use fbdr_ldap::Dn;
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
/// the target DN and the kind of change — deliberately not the entry. The
/// record names no values: what a changelog reader needs of them it reads
/// from the store after the update (`fbdr_bench::history` does), and an
/// update pays for no list of its entry's value sets.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ChangeRecord {
    /// Sequence number of this change.
    pub csn: Csn,
    /// DN the operation targeted (the *old* DN for renames).
    pub dn: Dn,
    /// What kind of operation it was.
    pub kind: ChangeKind,
    /// For `ModifyDn`: the new DN.
    pub new_dn: Option<Dn>,
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
}
