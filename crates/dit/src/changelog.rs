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
//! difference. The store keeps neither: [`DitStore`](crate::DitStore)
//! numbers each applied update and hands back its [`ChangeRecord`]; a
//! consumer that wants a log feeds the records to a [`History`] of its own.

use fbdr_ldap::{AttrName, Dn, ValueSet};
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
    /// attributes of the new entry. Empty for `Delete`. The value sets are
    /// the stored entry's own, shared — a record copies no value.
    pub changes: Vec<(AttrName, ValueSet)>,
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

/// The changelog and the tombstone list of one consumer: the records a
/// [`DitStore`](crate::DitStore) returned from `apply`, in the order it
/// returned them. What the §5.2 baselines and the subtree replica's feed
/// read; ReSync never does.
///
/// A history need not reach back to CSN 1 — it may be started late or have
/// its head [trimmed](History::trim) — so positions are found by CSN, never
/// by index.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct History {
    log: Vec<ChangeRecord>,
    tombstones: Vec<Tombstone>,
}

impl History {
    /// An empty history.
    pub fn new() -> Self {
        History::default()
    }

    /// Appends a record; a `Delete` also leaves a tombstone. Records must
    /// arrive in CSN order, as `apply` returns them.
    pub fn record(&mut self, rec: ChangeRecord) {
        debug_assert!(self.log.last().is_none_or(|last| last.csn < rec.csn), "records out of CSN order");
        if rec.kind == ChangeKind::Delete {
            self.tombstones.push(Tombstone { dn: rec.dn.clone(), csn: rec.csn });
        }
        self.log.push(rec);
    }

    /// Records with CSN strictly greater than `since`, oldest first.
    pub fn since(&self, since: Csn) -> &[ChangeRecord] {
        &self.log[self.log.partition_point(|r| r.csn <= since)..]
    }

    /// Tombstones of entries deleted after `since`, oldest first.
    pub fn tombstones_since(&self, since: Csn) -> &[Tombstone] {
        &self.tombstones[self.tombstones.partition_point(|t| t.csn <= since)..]
    }

    /// Drops every record and tombstone with CSN up to and including
    /// `through` — what every consumer of this history has already read.
    pub fn trim(&mut self, through: Csn) {
        self.log.drain(..self.log.partition_point(|r| r.csn <= through));
        self.tombstones.drain(..self.tombstones.partition_point(|t| t.csn <= through));
    }
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

    fn rec(csn: u64, kind: ChangeKind) -> ChangeRecord {
        let dn = format!("cn=e{csn},o=xyz").parse().unwrap();
        ChangeRecord { csn: Csn(csn), dn, kind, changes: vec![], new_dn: None }
    }

    fn csns(records: &[ChangeRecord]) -> Vec<u64> {
        records.iter().map(|r| r.csn.0).collect()
    }

    fn tombstone_csns(h: &History, since: u64) -> Vec<u64> {
        h.tombstones_since(Csn(since)).iter().map(|t| t.csn.0).collect()
    }

    /// Positions are CSNs, not indexes: a history whose first record is
    /// CSN 41 answers `since(43)` with 44 onwards, not with its 44th record.
    #[test]
    fn a_history_that_began_at_csn_40_answers_by_csn() {
        let mut h = History::new();
        for csn in 41..=48 {
            let kind = if csn % 3 == 0 { ChangeKind::Delete } else { ChangeKind::Modify };
            h.record(rec(csn, kind));
        }
        assert_eq!(csns(h.since(Csn(40))), [41, 42, 43, 44, 45, 46, 47, 48]);
        assert_eq!(csns(h.since(Csn(43))), [44, 45, 46, 47, 48]);
        assert_eq!(csns(h.since(Csn(48))), [0u64; 0]);
        assert_eq!(csns(h.since(Csn(1000))), [0u64; 0]);
        // A reader older than the history gets all there is.
        assert_eq!(csns(h.since(Csn::ZERO)).len(), 8);
        assert_eq!(csns(h.since(Csn(7))).len(), 8);
        assert_eq!(tombstone_csns(&h, 0), [42, 45, 48]);
        assert_eq!(tombstone_csns(&h, 42), [45, 48]);
        assert_eq!(tombstone_csns(&h, 44), [45, 48]);
        assert_eq!(tombstone_csns(&h, 48), [0u64; 0]);
        let t = &h.tombstones_since(Csn(44))[0];
        assert_eq!(t.dn, h.since(Csn(44))[0].dn);
    }

    #[test]
    fn a_trimmed_history_keeps_answering_by_csn() {
        let mut h = History::new();
        for csn in 1..=10 {
            let kind = if csn % 2 == 0 { ChangeKind::Delete } else { ChangeKind::Add };
            h.record(rec(csn, kind));
        }
        let untrimmed = h.clone();
        h.trim(Csn(6));
        assert_eq!(csns(h.since(Csn::ZERO)), [7, 8, 9, 10]);
        assert_eq!(tombstone_csns(&h, 0), [8, 10]);
        // From the trim point on, the answers are the untrimmed history's.
        for since in 6..=11 {
            assert_eq!(h.since(Csn(since)), untrimmed.since(Csn(since)), "since {since}");
            assert_eq!(h.tombstones_since(Csn(since)), untrimmed.tombstones_since(Csn(since)), "since {since}");
        }
        // Trimming is idempotent, and feeding goes on after it.
        h.trim(Csn(3));
        assert_eq!(csns(h.since(Csn::ZERO)), [7, 8, 9, 10]);
        h.record(rec(11, ChangeKind::Delete));
        assert_eq!(csns(h.since(Csn(9))), [10, 11]);
        assert_eq!(tombstone_csns(&h, 9), [10, 11]);
        h.trim(Csn(11));
        assert_eq!(h, History::new());
    }

    #[test]
    fn change_record_size_counts_changes() {
        let rec = ChangeRecord {
            csn: Csn(1),
            dn: "cn=a,o=xyz".parse().unwrap(),
            kind: ChangeKind::Modify,
            changes: vec![("mail".into(), ValueSet::from_iter(["a@b.c".into()]))],
            new_dn: None,
        };
        let empty = ChangeRecord { changes: vec![], ..rec.clone() };
        assert!(rec.estimated_size() > empty.estimated_size());
    }
}
