//! The changelog and tombstones of §5.2, kept beside the master.
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
//! The master's store keeps neither: [`DitStore`](fbdr_dit::DitStore)
//! numbers each applied update and hands back its [`ChangeRecord`]. The
//! comparison systems that read a log ([`crate::baseline`] and the
//! [`SubtreeReplica`](crate::subtree::SubtreeReplica)'s feed) are driven
//! from a [`History`] fed those records.

use fbdr_dit::{ChangeKind, ChangeRecord, Csn};
use fbdr_ldap::Dn;

/// A tombstone: the DN and deletion CSN of a deleted entry — no attribute
/// data, which is exactly why tombstone-based sync must ship every deleted
/// DN to every consumer (§5.2).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Tombstone {
    /// The deleted entry's DN.
    pub dn: Dn,
    /// When it was deleted.
    pub csn: Csn,
}

/// The changelog and the tombstone list of one consumer: the records a
/// [`DitStore`](fbdr_dit::DitStore) returned from `apply`, in the order it
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
    use fbdr_dit::{DitStore, Modification, UpdateOp};
    use fbdr_ldap::Entry;

    fn dn(s: &str) -> Dn {
        s.parse().unwrap()
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

        // Fed from a loaded store's `apply`: one tombstone per delete
        // record, with its DN and CSN; a refused delete leaves none.
        let mut s = DitStore::new();
        s.add_suffix(dn("o=xyz"));
        s.add(Entry::new(dn("o=xyz"))).unwrap();
        for cn in ["a", "b", "c"] {
            s.add(Entry::new(dn(&format!("cn={cn},o=xyz"))).with("mail", "m")).unwrap();
        }
        let mut h = History::new();
        let mail = vec![Modification::Replace("mail".into(), vec!["j@x".into()])];
        h.record(s.delete(&dn("cn=a,o=xyz")).unwrap());
        h.record(s.modify(&dn("cn=b,o=xyz"), mail).unwrap());
        assert!(s.delete(&dn("cn=a,o=xyz")).is_err());
        h.record(s.apply(UpdateOp::Delete(dn("cn=c,o=xyz"))).unwrap());
        let deletes: Vec<(&Dn, Csn)> = h
            .since(Csn::ZERO)
            .iter()
            .filter(|r| r.kind == ChangeKind::Delete)
            .map(|r| (&r.dn, r.csn))
            .collect();
        let tombstones: Vec<(&Dn, Csn)> = h.tombstones_since(Csn::ZERO).iter().map(|t| (&t.dn, t.csn)).collect();
        assert_eq!(deletes.len(), 2);
        assert_eq!(deletes, tombstones);
        assert_eq!(h.tombstones_since(deletes[0].1).len(), 1);
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
}
