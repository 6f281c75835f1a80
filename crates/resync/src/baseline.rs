//! Baseline synchronization strategies ReSync is compared against (§5.2).
//!
//! Each strategy implements [`Synchronizer`]: given read access to the
//! master's [`DitStore`] and to a [`History`] — the changelog and
//! tombstones the store itself does not keep; whoever drives the strategies
//! owns one and feeds it the records `apply` returns — bring a
//! [`ReplicaContent`] up to date and report the traffic spent. A history
//! need not reach back to the entries' creation, so the two log-driven
//! convergent strategies load the content in full on their first cycle and
//! read the log from there. The strategies differ in what history they can
//! consult:
//!
//! | strategy | history used | converges? | delete traffic |
//! |---|---|---|---|
//! | [`FullReload`] | none | yes | implicit (full resend) |
//! | [`RetainSync`] | change set only (eq. 3) | yes | touches whole content per cycle |
//! | [`TombstoneSync`] | tombstones + modified-DN set | yes | **every** deleted DN, conservative deletes for modified entries |
//! | [`ChangelogSync`] | changelog records | yes | every deleted DN (delete records carry no attributes) |
//! | [`NaiveChangelogSync`] | changelog records only, filtered deletes | **no** | low, but leaves ghost entries |
//!
//! The ReSync protocol itself ([`crate::SyncMaster`]) maintains per-session
//! history and sends exactly `E01 ∪ E10 ∪ (E11 ∩ sent)`.

use crate::content::ReplicaContent;
use crate::protocol::{SyncAction, SyncTraffic};
use fbdr_dit::{ChangeKind, Csn, DitStore, History};
use fbdr_ldap::{Dn, Entry, SearchRequest};
use std::collections::{HashMap, HashSet};

/// A replica-side synchronization strategy.
pub trait Synchronizer {
    /// Human-readable strategy name (for experiment output).
    fn name(&self) -> &'static str;

    /// Brings `replica` up to date with `master` for `request`, reading
    /// what changed from `history`; returns the traffic this cycle cost.
    fn sync(
        &mut self,
        master: &DitStore,
        history: &History,
        request: &SearchRequest,
        replica: &mut ReplicaContent,
    ) -> SyncTraffic;
}

fn traffic_of(actions: &[SyncAction]) -> SyncTraffic {
    let mut t = SyncTraffic::default();
    for a in actions {
        t.count(a);
    }
    t
}

/// Resend the complete content every cycle.
#[derive(Debug, Default)]
pub struct FullReload;

impl Synchronizer for FullReload {
    fn name(&self) -> &'static str {
        "full-reload"
    }

    fn sync(
        &mut self,
        master: &DitStore,
        _history: &History,
        request: &SearchRequest,
        replica: &mut ReplicaContent,
    ) -> SyncTraffic {
        let actions: Vec<SyncAction> = master
            .search(request)
            .into_iter()
            .map(SyncAction::Add)
            .collect();
        replica.apply_snapshot_cycle(&actions);
        traffic_of(&actions)
    }
}

/// The history-free scheme of equation (3): changed in-content entries are
/// sent in full, unchanged ones as DN-only `retain` actions, and anything
/// unmentioned is implicitly deleted. Converges without any deletion
/// history, but every cycle touches the entire content.
#[derive(Debug, Default)]
pub struct RetainSync {
    last_csn: Csn,
}

impl Synchronizer for RetainSync {
    fn name(&self) -> &'static str {
        "retain"
    }

    fn sync(
        &mut self,
        master: &DitStore,
        history: &History,
        request: &SearchRequest,
        replica: &mut ReplicaContent,
    ) -> SyncTraffic {
        let changed: HashSet<String> = changed_dns(history, self.last_csn);
        let mut actions = Vec::new();
        for e in master.search(request) {
            let k = e.dn().to_string();
            if changed.contains(&k) || !replica.contains(e.dn()) {
                actions.push(SyncAction::Add(e));
            } else {
                actions.push(SyncAction::Retain(e.dn().clone()));
            }
        }
        self.last_csn = master.csn();
        replica.apply_snapshot_cycle(&actions);
        traffic_of(&actions)
    }
}

/// Tombstone-driven incremental sync: modified entries are re-evaluated
/// against the filter (fetching current state), but since tombstones keep
/// no attribute data, **every** deleted DN must be shipped, and every
/// modified entry that no longer matches gets a conservative delete.
#[derive(Debug, Default)]
pub struct TombstoneSync {
    /// Where the last cycle stopped reading; `None` before the first.
    last_csn: Option<Csn>,
}

impl Synchronizer for TombstoneSync {
    fn name(&self) -> &'static str {
        "tombstone"
    }

    fn sync(
        &mut self,
        master: &DitStore,
        history: &History,
        request: &SearchRequest,
        replica: &mut ReplicaContent,
    ) -> SyncTraffic {
        let Some(since) = self.last_csn.replace(master.csn()) else {
            return FullReload.sync(master, history, request, replica);
        };
        let mut actions = Vec::new();
        let mut seen: HashSet<String> = HashSet::new();
        // Tombstones are keyed by deletion CSN; walking the modified-DN
        // set (the changelog targets) in CSN order and emitting each
        // tombstoned delete at its own position keeps replica application
        // chronological (a delete-then-re-add must not end deleted).
        let mut tombstones = history.tombstones_since(since).iter().peekable();
        for rec in history.since(since) {
            if rec.kind == ChangeKind::Delete {
                if let Some(ts) = tombstones.next_if(|t| t.csn <= rec.csn) {
                    actions.push(SyncAction::Delete(ts.dn.clone()));
                }
                // A later re-add of this DN must be processed afresh.
                seen.remove(&rec.dn.to_string());
                continue;
            }
            if rec.new_dn.is_some() {
                // Rename: the old DN may have been in the content, and a
                // later re-add at that DN must be processed afresh.
                actions.push(SyncAction::Delete(rec.dn.clone()));
                seen.remove(&rec.dn.to_string());
            }
            let dn = rec.new_dn.as_ref().unwrap_or(&rec.dn);
            if !seen.insert(dn.to_string()) {
                continue;
            }
            match master.get(dn) {
                Some(e) if request.matches(e) => actions.push(SyncAction::Add(e.clone())),
                Some(_) => actions.push(SyncAction::Delete(dn.clone())),
                None => {} // deleted later; its tombstone is emitted in order
            }
        }
        for ts in tombstones {
            actions.push(SyncAction::Delete(ts.dn.clone()));
        }
        replica.apply_all(&actions);
        traffic_of(&actions)
    }
}

/// Convergent changelog-driven sync. Delete records carry no attributes,
/// so — like tombstones — every deleted DN is shipped; modified entries
/// are re-fetched and conservatively deleted when they no longer match.
#[derive(Debug, Default)]
pub struct ChangelogSync {
    /// Where the last cycle stopped reading; `None` before the first.
    last_csn: Option<Csn>,
}

impl Synchronizer for ChangelogSync {
    fn name(&self) -> &'static str {
        "changelog"
    }

    fn sync(
        &mut self,
        master: &DitStore,
        history: &History,
        request: &SearchRequest,
        replica: &mut ReplicaContent,
    ) -> SyncTraffic {
        let Some(since) = self.last_csn.replace(master.csn()) else {
            return FullReload.sync(master, history, request, replica);
        };
        let mut actions = Vec::new();
        for rec in history.since(since) {
            match rec.kind {
                ChangeKind::Delete => actions.push(SyncAction::Delete(rec.dn.clone())),
                ChangeKind::ModifyDn => {
                    actions.push(SyncAction::Delete(rec.dn.clone()));
                    if let Some(new_dn) = &rec.new_dn {
                        match master.get(new_dn) {
                            Some(e) if request.matches(e) => actions.push(SyncAction::Add(e.clone())),
                            Some(_) => actions.push(SyncAction::Delete(new_dn.clone())),
                            None => {}
                        }
                    }
                }
                ChangeKind::Add | ChangeKind::Modify => match master.get(&rec.dn) {
                    Some(e) if request.matches(e) => actions.push(SyncAction::Add(e.clone())),
                    Some(_) => actions.push(SyncAction::Delete(rec.dn.clone())),
                    None => {}
                },
            }
        }
        replica.apply_all(&actions);
        traffic_of(&actions)
    }
}

/// A changelog consumer that tries to *filter deletions* through the log:
/// it reconstructs entry state from the attribute values the records carry
/// and skips deletes for entries it believes were outside the content.
///
/// This is the paper's §5.2 counterexample: a modify record carries only
/// the changed attributes, so when an entry is modified out of the content
/// and then deleted, the log cannot establish prior membership and the
/// replica keeps a **ghost entry** — the strategy does not converge.
#[derive(Debug, Default)]
pub struct NaiveChangelogSync {
    last_csn: Csn,
    /// Attribute knowledge accumulated from the log (partial!).
    knowledge: HashMap<String, Entry>,
}

impl NaiveChangelogSync {
    /// Creates a consumer that starts reading the changelog after `csn`
    /// (typically the CSN at which the replica was bootstrapped by a full
    /// load).
    pub fn starting_at(csn: Csn) -> Self {
        NaiveChangelogSync { last_csn: csn, knowledge: HashMap::new() }
    }

    /// True when the accumulated knowledge about `e` covers every
    /// attribute the filter mentions.
    fn covers(&self, e: &Entry, request: &SearchRequest) -> bool {
        request
            .filter()
            .attr_names()
            .iter()
            .all(|a| e.has_attr(a))
    }
}

impl Synchronizer for NaiveChangelogSync {
    fn name(&self) -> &'static str {
        "naive-changelog"
    }

    fn sync(
        &mut self,
        master: &DitStore,
        history: &History,
        request: &SearchRequest,
        replica: &mut ReplicaContent,
    ) -> SyncTraffic {
        let mut actions = Vec::new();
        for rec in history.since(self.last_csn) {
            let k = rec.dn.to_string();
            match rec.kind {
                ChangeKind::Add => {
                    let mut e = Entry::new(rec.dn.clone());
                    for (a, vs) in &rec.changes {
                        e.replace(a.clone(), vs.iter().cloned());
                    }
                    if request.matches(&e) {
                        actions.push(SyncAction::Add(e.clone()));
                    }
                    self.knowledge.insert(k, e);
                }
                ChangeKind::Modify => {
                    let e = self
                        .knowledge
                        .entry(k)
                        .or_insert_with(|| Entry::new(rec.dn.clone()));
                    for (a, vs) in &rec.changes {
                        e.replace(a.clone(), vs.iter().cloned());
                    }
                    let e = e.clone();
                    if self.covers(&e, request) {
                        if request.matches(&e) {
                            actions.push(SyncAction::Add(e));
                        } else {
                            actions.push(SyncAction::Delete(rec.dn.clone()));
                        }
                    }
                    // Not covering: cannot decide — skip (divergence risk).
                }
                ChangeKind::Delete => {
                    match self.knowledge.remove(&rec.dn.to_string()) {
                        Some(e) if self.covers(&e, request) && request.matches(&e) => {
                            actions.push(SyncAction::Delete(rec.dn.clone()));
                        }
                        _ => {
                            // Either "known" to be outside (delete skipped)
                            // or no attribute knowledge at all: this is
                            // exactly where ghosts arise when the
                            // knowledge is wrong or incomplete.
                        }
                    }
                }
                ChangeKind::ModifyDn => {
                    actions.push(SyncAction::Delete(rec.dn.clone()));
                    if let Some(new_dn) = &rec.new_dn {
                        if let Some(e) = master.get(new_dn) {
                            if request.matches(e) {
                                actions.push(SyncAction::Add(e.clone()));
                            }
                            self.knowledge.insert(new_dn.to_string(), e.clone());
                        }
                    }
                    self.knowledge.remove(&rec.dn.to_string());
                }
            }
        }
        self.last_csn = master.csn();
        replica.apply_all(&actions);
        traffic_of(&actions)
    }
}

/// DNs touched by any change since `since` (targets and rename
/// destinations).
fn changed_dns(history: &History, since: Csn) -> HashSet<String> {
    let mut out = HashSet::new();
    for rec in history.since(since) {
        out.insert(rec.dn.to_string());
        if let Some(nd) = &rec.new_dn {
            out.insert(nd.to_string());
        }
    }
    out
}

/// Compares a replica's content against the master's current answer for
/// `request`; returns the mismatching DNs (empty = converged).
pub fn divergence(master: &DitStore, request: &SearchRequest, replica: &ReplicaContent) -> Vec<String> {
    let master_dns: HashSet<String> = master
        .search_dns(request)
        .iter()
        .map(Dn::to_string)
        .collect();
    let replica_dns: HashSet<String> = replica.iter().map(|e| e.dn().to_string()).collect();
    let mut diff: Vec<String> = master_dns.symmetric_difference(&replica_dns).cloned().collect();
    diff.sort();
    diff
}

#[cfg(test)]
mod tests {
    use super::*;
    use fbdr_dit::{Modification, UpdateOp};
    use fbdr_ldap::{Filter, Scope};

    fn dn(s: &str) -> Dn {
        s.parse().unwrap()
    }

    fn person(cn: &str, dept: &str) -> Entry {
        Entry::new(dn(&format!("cn={cn},o=xyz")))
            .with("objectclass", "person")
            .with("cn", cn)
            .with("dept", dept)
            .with("mail", &format!("{cn}@xyz.com"))
    }

    fn master() -> DitStore {
        let mut d = DitStore::new();
        d.add_suffix(dn("o=xyz"));
        d.add(Entry::new(dn("o=xyz"))).unwrap();
        for (cn, dept) in [("a", "7"), ("b", "7"), ("c", "9")] {
            d.add(person(cn, dept)).unwrap();
        }
        d
    }

    fn dept7() -> SearchRequest {
        SearchRequest::new(dn("o=xyz"), Scope::Subtree, Filter::parse("(dept=7)").unwrap())
    }

    /// The history starts where the test does: the master's initial load
    /// is not in it.
    fn run_scenario(sync: &mut dyn Synchronizer) -> (DitStore, ReplicaContent, Vec<SyncTraffic>) {
        let mut m = master();
        let mut h = History::new();
        let req = dept7();
        let mut replica = ReplicaContent::new();
        let mut traffics = Vec::new();
        traffics.push(sync.sync(&m, &h, &req, &mut replica));
        // Round of updates: b leaves (modify), c joins, a deleted, d added.
        let dept = |v: &str| vec![Modification::Replace("dept".into(), vec![v.into()])];
        h.record(m.modify(&dn("cn=b,o=xyz"), dept("8")).unwrap());
        h.record(m.modify(&dn("cn=c,o=xyz"), dept("7")).unwrap());
        h.record(m.delete(&dn("cn=a,o=xyz")).unwrap());
        h.record(m.apply(UpdateOp::Add(person("d", "7"))).unwrap());
        traffics.push(sync.sync(&m, &h, &req, &mut replica));
        (m, replica, traffics)
    }

    #[test]
    fn full_reload_converges_expensively() {
        let mut s = FullReload;
        let (m, replica, traffics) = run_scenario(&mut s);
        assert!(divergence(&m, &dept7(), &replica).is_empty());
        // Every cycle resends the whole content in full.
        assert_eq!(traffics[1].full_entries as usize, replica.len());
        assert_eq!(traffics[1].dn_only, 0);
    }

    #[test]
    fn retain_sync_converges() {
        let mut s = RetainSync::default();
        let (m, replica, _) = run_scenario(&mut s);
        assert!(divergence(&m, &dept7(), &replica).is_empty());
    }

    #[test]
    fn retain_sync_touches_whole_content_every_cycle() {
        let m = master();
        let h = History::new();
        let req = dept7();
        let mut s = RetainSync::default();
        let mut replica = ReplicaContent::new();
        let t0 = s.sync(&m, &h, &req, &mut replica);
        assert_eq!(t0.full_entries, 2);
        // Nothing changed, but the whole content still travels as retains.
        let t1 = s.sync(&m, &h, &req, &mut replica);
        assert_eq!(t1.full_entries, 0);
        assert_eq!(t1.dn_only, 2);
        assert!(divergence(&m, &req, &replica).is_empty());
    }

    #[test]
    fn tombstone_sync_converges_but_ships_every_delete() {
        let mut s = TombstoneSync::default();
        let (m, replica, traffics) = run_scenario(&mut s);
        assert!(divergence(&m, &dept7(), &replica).is_empty());
        // a deleted (tombstone) + b modified-out (conservative delete).
        assert!(traffics[1].dn_only >= 2);
    }

    #[test]
    fn changelog_sync_converges() {
        let mut s = ChangelogSync::default();
        let (m, replica, _) = run_scenario(&mut s);
        assert!(divergence(&m, &dept7(), &replica).is_empty());
    }

    #[test]
    fn naive_changelog_ghost_entry() {
        // The §5.2 counterexample: entry exists *before* the sync session
        // starts, is modified out of the content, then deleted. The modify
        // record carries only the changed attribute (dept), not the other
        // filter attribute (objectclass), so the naive log reader can
        // never establish membership and keeps a ghost.
        let mut m = master();
        let mut h = History::new();
        let req = SearchRequest::new(
            dn("o=xyz"),
            Scope::Subtree,
            Filter::parse("(&(objectclass=person)(dept=7))").unwrap(),
        );
        let mut replica = ReplicaContent::new();
        // Bootstrap the naive replica with a full reload (common practice),
        // then switch to naive changelog consumption.
        FullReload.sync(&m, &h, &req, &mut replica);
        let mut naive = NaiveChangelogSync::starting_at(m.csn());
        // A convergent consumer of the same history, bootstrapped with it.
        let mut replica2 = ReplicaContent::new();
        let mut ts = TombstoneSync::default();
        ts.sync(&m, &h, &req, &mut replica2);

        let dept8 = vec![Modification::Replace("dept".into(), vec!["8".into()])];
        h.record(m.modify(&dn("cn=a,o=xyz"), dept8).unwrap());
        h.record(m.delete(&dn("cn=a,o=xyz")).unwrap());
        naive.sync(&m, &h, &req, &mut replica);

        let ghosts = divergence(&m, &req, &replica);
        assert!(
            !ghosts.is_empty(),
            "naive changelog should diverge (ghost entry) but converged"
        );
        // The convergent strategies handle the same history fine.
        ts.sync(&m, &h, &req, &mut replica2);
        assert!(divergence(&m, &req, &replica2).is_empty());
    }

    #[test]
    fn divergence_reports_both_directions() {
        let m = master();
        let req = dept7();
        let mut replica = ReplicaContent::new();
        // Missing entries.
        assert_eq!(divergence(&m, &req, &replica).len(), 2);
        // Ghost entry.
        replica.apply(&SyncAction::Add(person("ghost", "7")));
        assert_eq!(divergence(&m, &req, &replica).len(), 3);
    }
}
