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
//! The master's store keeps neither: [`DitStore`] numbers each applied
//! update and hands back its [`ChangeRecord`] — a DN and a kind, no
//! values. The comparison systems that read a log ([`crate::baseline`] and
//! the [`SubtreeReplica`](crate::subtree::SubtreeReplica)'s feed) are
//! driven from a [`History`] fed those records, which adds to each what a
//! changelog says beside it: the values of the attributes the update
//! changed, read from the store after it.

use fbdr_dit::{ChangeKind, ChangeRecord, Csn, DitError, DitStore, UpdateOp};
use fbdr_ldap::{AttrName, Dn, ValueSet};

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

/// What a changelog record says an update changed: each attribute it
/// touched and the values the entry holds after it, shared with the
/// store's entry. An attribute the update removed lists no values.
pub type Changes = Vec<(AttrName, ValueSet)>;

/// The changelog and the tombstone list of one consumer: the records a
/// [`DitStore`] returned from `apply`, in the order it returned them, each
/// with its [`Changes`]. What the §5.2 baselines and the subtree replica's
/// feed read; ReSync never does.
///
/// A history need not reach back to CSN 1 — it may be started late or have
/// its head [trimmed](History::trim) — so positions are found by CSN, never
/// by index.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct History {
    log: Vec<ChangeRecord>,
    /// `log[i]`'s changes.
    changes: Vec<Changes>,
    tombstones: Vec<Tombstone>,
}

impl History {
    /// An empty history.
    pub fn new() -> Self {
        History::default()
    }

    /// Appends the record `store` returned for `op`, with its changes read
    /// from `store` as it is now, after `op`; a `Delete` also leaves a
    /// tombstone. Records must arrive in CSN order, as `apply` returns
    /// them, each before the store's next update.
    pub fn record(&mut self, rec: ChangeRecord, op: &UpdateOp, store: &DitStore) {
        debug_assert!(self.log.last().is_none_or(|last| last.csn < rec.csn), "records out of CSN order");
        if rec.kind == ChangeKind::Delete {
            self.tombstones.push(Tombstone { dn: rec.dn.clone(), csn: rec.csn });
        }
        self.changes.push(changes_of(&rec, op, store));
        self.log.push(rec);
    }

    /// Applies `op` to `store` and records it.
    ///
    /// # Errors
    ///
    /// As [`DitStore::apply`]; a refused update records nothing.
    pub fn apply(&mut self, store: &mut DitStore, op: UpdateOp) -> Result<(), DitError> {
        let rec = store.apply(op.clone())?;
        self.record(rec, &op, store);
        Ok(())
    }

    /// Records with CSN strictly greater than `since`, oldest first.
    pub fn since(&self, since: Csn) -> &[ChangeRecord] {
        &self.log[self.from(since)..]
    }

    /// [`History::since`], each record with its changes.
    pub fn changes_since(&self, since: Csn) -> impl Iterator<Item = (&ChangeRecord, &Changes)> {
        let from = self.from(since);
        self.log[from..].iter().zip(&self.changes[from..])
    }

    /// The position of the first record after `since`.
    fn from(&self, since: Csn) -> usize {
        self.log.partition_point(|r| r.csn <= since)
    }

    /// Tombstones of entries deleted after `since`, oldest first.
    pub fn tombstones_since(&self, since: Csn) -> &[Tombstone] {
        &self.tombstones[self.tombstones.partition_point(|t| t.csn <= since)..]
    }

    /// Drops every record and tombstone with CSN up to and including
    /// `through` — what every consumer of this history has already read.
    pub fn trim(&mut self, through: Csn) {
        let kept = self.from(through);
        self.log.drain(..kept);
        self.changes.drain(..kept);
        self.tombstones.drain(..self.tombstones.partition_point(|t| t.csn <= through));
    }
}

/// The changes of `rec`, the record of `op`: the attributes `op` names —
/// all of an added entry's, each touched one once, a rename's new naming
/// attribute — with the values `store` now holds for them. A delete
/// changes no attribute a reader could still see.
fn changes_of(rec: &ChangeRecord, op: &UpdateOp, store: &DitStore) -> Changes {
    let Some(entry) = store.get(rec.new_dn.as_ref().unwrap_or(&rec.dn)) else { return Changes::new() };
    let named: Vec<&AttrName> = match op {
        UpdateOp::Add(e) => e.attr_names().collect(),
        UpdateOp::Modify { mods, .. } => mods.iter().map(|m| m.attr()).collect(),
        UpdateOp::ModifyDn { new_rdn, .. } => vec![new_rdn.attr()],
        UpdateOp::Delete(_) => Vec::new(),
    };
    let mut changes = Changes::new();
    for a in named {
        if !changes.iter().any(|(held, _)| held == a) {
            changes.push((a.clone(), entry.value_set(a).cloned().unwrap_or_default()));
        }
    }
    changes
}

#[cfg(test)]
mod tests {
    use super::*;
    use fbdr_dit::Modification;
    use fbdr_ldap::Entry;

    fn dn(s: &str) -> Dn {
        s.parse().unwrap()
    }

    /// Records a made-up update `csn` of `kind`, of an entry no store
    /// holds.
    fn feed(h: &mut History, csn: u64, kind: ChangeKind) {
        let dn: Dn = format!("cn=e{csn},o=xyz").parse().unwrap();
        let op = UpdateOp::Delete(dn.clone());
        h.record(ChangeRecord { csn: Csn(csn), dn, kind, new_dn: None }, &op, &DitStore::new());
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
            feed(&mut h, csn, kind);
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
        h.apply(&mut s, UpdateOp::Delete(dn("cn=a,o=xyz"))).unwrap();
        h.apply(&mut s, UpdateOp::Modify { dn: dn("cn=b,o=xyz"), mods: mail }).unwrap();
        assert!(h.apply(&mut s, UpdateOp::Delete(dn("cn=a,o=xyz"))).is_err());
        h.apply(&mut s, UpdateOp::Delete(dn("cn=c,o=xyz"))).unwrap();
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
            feed(&mut h, csn, kind);
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
        feed(&mut h, 11, ChangeKind::Delete);
        assert_eq!(csns(h.since(Csn(9))), [10, 11]);
        assert_eq!(tombstone_csns(&h, 9), [10, 11]);
        h.trim(Csn(11));
        assert_eq!(h, History::new());
    }

    /// What the store's record no longer says, the history reads from the
    /// store after each update: every attribute of an add, each touched
    /// attribute of a modify once, a rename's naming attribute, nothing
    /// for a delete — and keeps it beside its record through a trim.
    #[test]
    fn a_record_carries_the_values_its_update_changed() {
        let mut s = DitStore::new();
        s.add_suffix(dn("o=xyz"));
        s.add(Entry::new(dn("o=xyz"))).unwrap();
        let mut h = History::new();
        let person = Entry::new(dn("cn=a,o=xyz")).with("cn", "a").with("mail", "a@x");
        h.apply(&mut s, UpdateOp::Add(person)).unwrap();
        let mods = vec![
            Modification::Replace("mail".into(), vec!["b@x".into()]),
            Modification::AddValues("MAIL".into(), vec!["c@x".into()]),
            Modification::DeleteAttr("cn".into()),
        ];
        h.apply(&mut s, UpdateOp::Modify { dn: dn("cn=a,o=xyz"), mods }).unwrap();
        let new_rdn = fbdr_ldap::Rdn::new("uid", "a2");
        h.apply(&mut s, UpdateOp::ModifyDn { dn: dn("cn=a,o=xyz"), new_rdn, new_superior: None }).unwrap();
        h.apply(&mut s, UpdateOp::Delete(dn("uid=a2,o=xyz"))).unwrap();
        let said: Vec<String> = h
            .changes_since(Csn::ZERO)
            .map(|(rec, changes)| {
                let spelt = |vs: &ValueSet| vs.iter().map(|v| v.raw()).collect::<Vec<_>>().join(",");
                let pairs = changes.iter().map(|(a, vs)| format!(" {a}={}", spelt(vs)));
                format!("{}{}", rec.kind, pairs.collect::<String>())
            })
            .collect();
        assert_eq!(said, ["add cn=a mail=a@x", "modify mail=b@x,c@x cn=", "modifydn uid=a2", "delete"]);
        h.trim(Csn(s.csn().0 - 2));
        let kinds: Vec<(ChangeKind, usize)> =
            h.changes_since(Csn::ZERO).map(|(r, c)| (r.kind, c.len())).collect();
        assert_eq!(kinds, [(ChangeKind::ModifyDn, 1), (ChangeKind::Delete, 0)]);
    }
}
