//! The subtree-based replication model (§3.4.1), the conventional model
//! the paper's filter replica is measured against.

use crate::history::History;
use fbdr_dit::{ChangeKind, Csn, DitStore, NamingContext};
use fbdr_ldap::{Dn, Entry, Scope, SearchRequest};
use fbdr_resync::SyncTraffic;

/// A replica holding one or more subtree replication contexts.
///
/// Each context is a [`NamingContext`]: a suffix plus referral objects for
/// subordinate contexts held elsewhere. The replica stores every entry of
/// each context and answers queries whose base falls inside a held context
/// (the paper's `isContained` algorithm); a query additionally counts as a
/// *hit* only when no referral intersects its region (§3.1.3).
///
/// Like [`FilterReplica`](fbdr_replica::FilterReplica), query answering
/// takes `&self`, so concurrent readers need no external lock;
/// [`sync_from`](SubtreeReplica::sync_from) and
/// [`replicate_context`](SubtreeReplica::replicate_context) mutate the
/// entry store and keep `&mut self`.
#[derive(Debug, Default)]
pub struct SubtreeReplica {
    contexts: Vec<NamingContext>,
    store: DitStore,
    last_csn: Csn,
}

impl SubtreeReplica {
    /// Creates an empty replica.
    pub fn new() -> Self {
        SubtreeReplica::default()
    }

    /// The replication contexts held.
    pub fn contexts(&self) -> &[NamingContext] {
        &self.contexts
    }

    /// Number of entries currently stored — the replica size compared
    /// against hit ratio in Figures 4 and 5.
    pub fn entry_count(&self) -> usize {
        self.store.len()
    }

    /// Adds a replication context and loads its entries from the master.
    /// Returns the initial-load traffic.
    pub fn replicate_context(&mut self, master: &DitStore, context: NamingContext) -> SyncTraffic {
        let mut traffic = SyncTraffic::default();
        self.store.add_suffix(context.suffix().clone());
        for e in master.subtree(context.suffix()) {
            if context.holds(e.dn()) && !self.store.contains(e.dn()) {
                traffic.full_entries += 1;
                traffic.bytes += e.estimated_size() as u64 + 8;
                self.store.add(e.clone()).expect("subtree iteration is parent-first");
            }
        }
        self.contexts.push(context);
        self.last_csn = master.csn();
        traffic
    }

    /// True when `dn` falls inside one of the held contexts (used by
    /// oracle-routed hit accounting in the experiment engine).
    pub fn covers_dn(&self, dn: &Dn) -> bool {
        self.holds_dn(dn)
    }

    /// The paper's `isContained(b, C)`: can a query based at `b` be
    /// (at least partially) answered by this replica?
    pub fn is_contained(&self, base: &Dn) -> bool {
        for c in &self.contexts {
            if c.suffix() == base {
                return true;
            }
            if !c.suffix().is_ancestor_or_self_of(base) {
                continue;
            }
            // Inside this context unless the base sits in a referral
            // subtree (held by a subordinate server).
            return !c.referrals().iter().any(|(r, _)| r.is_ancestor_or_self_of(base));
        }
        false
    }

    /// Can the query be *fully* answered (no referral intersects its
    /// region)? Partial answers generate referrals and do not count as
    /// hits (§3.1.3).
    pub fn is_fully_answerable(&self, query: &SearchRequest) -> bool {
        if !self.is_contained(query.base()) {
            return false;
        }
        let ctx = self
            .contexts
            .iter()
            .find(|c| c.suffix().is_ancestor_or_self_of(query.base()))
            .expect("is_contained implies a holding context");
        match query.scope() {
            Scope::Base => true,
            Scope::OneLevel => !ctx
                .referrals()
                .iter()
                .any(|(r, _)| query.base().is_parent_of(r)),
            Scope::Subtree => !ctx
                .referrals()
                .iter()
                .any(|(r, _)| query.base().is_ancestor_or_self_of(r)),
        }
    }

    /// Tries to answer a query locally. Returns the entries on a hit,
    /// `None` (→ referral) on a miss.
    ///
    /// Takes `&self`: any number of threads may query concurrently. Note
    /// that unlike [`FilterReplica`](fbdr_replica::FilterReplica), the
    /// subtree store itself is not snapshot-isolated — readers must not run
    /// concurrently with `sync_from` (wrap it in a `RwLock` for that).
    pub fn try_answer(&self, query: &SearchRequest) -> Option<Vec<Entry>> {
        self.is_fully_answerable(query).then(|| self.store.search(query))
    }

    /// Synchronizes with the master: every change to an entry inside a
    /// held context is shipped (full entry for adds/mods, DN for
    /// deletes/renames). Subtree replication has no filter to consult, so
    /// *all* entries of the subtree travel, whether or not any query needs
    /// them — the §3.2 update-traffic argument. `history` is the feed: the
    /// records the master's `apply` returned since this replica last
    /// synchronized (or loaded its contexts), kept by whoever drives it.
    pub fn sync_from(&mut self, master: &DitStore, history: &History) -> SyncTraffic {
        let mut traffic = SyncTraffic::default();
        for rec in history.since(self.last_csn) {
            let old_held = self.holds_dn(&rec.dn);
            match rec.kind {
                ChangeKind::Delete => {
                    if old_held {
                        traffic.dn_only += 1;
                        traffic.bytes += rec.dn.display_len() as u64 + 8;
                        let _ = self.store.delete(&rec.dn);
                    }
                }
                ChangeKind::ModifyDn => {
                    if old_held {
                        traffic.dn_only += 1;
                        traffic.bytes += rec.dn.display_len() as u64 + 8;
                        let _ = self.store.delete(&rec.dn);
                    }
                    if let Some(new_dn) = &rec.new_dn {
                        if self.holds_dn(new_dn) {
                            if let Some(e) = master.get(new_dn) {
                                traffic.full_entries += 1;
                                traffic.bytes += e.estimated_size() as u64 + 8;
                                self.upsert(e.clone());
                            }
                        }
                    }
                }
                ChangeKind::Add | ChangeKind::Modify => {
                    if old_held {
                        if let Some(e) = master.get(&rec.dn) {
                            traffic.full_entries += 1;
                            traffic.bytes += e.estimated_size() as u64 + 8;
                            self.upsert(e.clone());
                        }
                    }
                }
            }
        }
        self.last_csn = master.csn();
        traffic
    }

    fn holds_dn(&self, dn: &Dn) -> bool {
        self.contexts.iter().any(|c| c.holds(dn))
    }

    fn upsert(&mut self, e: Entry) {
        if self.store.contains(e.dn()) {
            let _ = self.store.delete(e.dn());
        }
        // Ignore orphan adds: a parent outside the context was not
        // replicated (referral-delimited contexts).
        let _ = self.store.add(e);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fbdr_dit::{Modification, UpdateOp};
    use fbdr_ldap::Filter;

    fn dn(s: &str) -> Dn {
        s.parse().unwrap()
    }

    fn master() -> DitStore {
        let mut m = DitStore::new();
        m.add_suffix(dn("o=xyz"));
        m.add(Entry::new(dn("o=xyz"))).unwrap();
        for c in ["us", "in"] {
            m.add(Entry::new(dn(&format!("c={c},o=xyz")))).unwrap();
        }
        for (cn, c, sn) in [
            ("a", "us", "045611"),
            ("b", "us", "045612"),
            ("c", "in", "120001"),
            ("d", "in", "120002"),
        ] {
            m.add(
                Entry::new(dn(&format!("cn={cn},c={c},o=xyz")))
                    .with("objectclass", "person")
                    .with("serialNumber", sn),
            )
            .unwrap();
        }
        m
    }

    fn us_replica(m: &DitStore) -> SubtreeReplica {
        let mut r = SubtreeReplica::new();
        r.replicate_context(m, NamingContext::new(dn("c=us,o=xyz")));
        r
    }

    #[test]
    fn replicate_context_copies_subtree() {
        let m = master();
        let r = us_replica(&m);
        assert_eq!(r.entry_count(), 3); // c=us + 2 persons
    }

    #[test]
    fn is_contained_algorithm() {
        let m = master();
        let r = us_replica(&m);
        assert!(r.is_contained(&dn("c=us,o=xyz")));
        assert!(r.is_contained(&dn("cn=a,c=us,o=xyz")));
        assert!(!r.is_contained(&dn("c=in,o=xyz")));
        assert!(!r.is_contained(&dn("o=xyz"))); // base above the context
        assert!(!r.is_contained(&Dn::root()));
    }

    #[test]
    fn referral_subtree_not_contained() {
        let m = master();
        let mut r = SubtreeReplica::new();
        let ctx = NamingContext::new(dn("c=us,o=xyz"))
            .with_referral(dn("cn=a,c=us,o=xyz"), "ldap://other");
        r.replicate_context(&m, ctx);
        assert!(r.is_contained(&dn("c=us,o=xyz")));
        assert!(!r.is_contained(&dn("cn=a,c=us,o=xyz")));
        // Referral excluded from storage too.
        assert_eq!(r.entry_count(), 2);
        // Subtree query over the context is only partially answerable.
        let q = SearchRequest::new(dn("c=us,o=xyz"), Scope::Subtree, Filter::match_all());
        assert!(!r.is_fully_answerable(&q));
        // One-level query at c=us is also cut by the child referral.
        let q1 = SearchRequest::new(dn("c=us,o=xyz"), Scope::OneLevel, Filter::match_all());
        assert!(!r.is_fully_answerable(&q1));
        // Base query is fine.
        let qb = SearchRequest::new(dn("c=us,o=xyz"), Scope::Base, Filter::match_all());
        assert!(r.is_fully_answerable(&qb));
    }

    #[test]
    fn root_based_queries_always_miss() {
        // §3.1.1: minimally directory enabled applications search from the
        // DIT root; a subtree replica can never answer those.
        let m = master();
        let r = us_replica(&m);
        let q = SearchRequest::from_root(Filter::parse("(serialNumber=045611)").unwrap());
        assert!(r.try_answer(&q).is_none());
    }

    #[test]
    fn subtree_query_hit() {
        let m = master();
        let r = us_replica(&m);
        let q = SearchRequest::new(
            dn("c=us,o=xyz"),
            Scope::Subtree,
            Filter::parse("(serialNumber=0456*)").unwrap(),
        );
        let entries = r.try_answer(&q).expect("hit");
        assert_eq!(entries.len(), 2);
        let miss = SearchRequest::new(
            dn("c=in,o=xyz"),
            Scope::Subtree,
            Filter::parse("(serialNumber=1*)").unwrap(),
        );
        assert!(r.try_answer(&miss).is_none());
    }

    #[test]
    fn sync_ships_all_subtree_changes() {
        let mut m = master();
        let mut r = us_replica(&m);
        let mut h = History::new();
        let mail = |target: &str, v: &str| UpdateOp::Modify {
            dn: dn(target),
            mods: vec![Modification::Replace("mail".into(), vec![v.into()])],
        };
        // Change inside the context: shipped even though no query needs it.
        h.apply(&mut m, mail("cn=a,c=us,o=xyz", "a@x")).unwrap();
        // Change outside the context: not shipped.
        h.apply(&mut m, mail("cn=c,c=in,o=xyz", "c@x")).unwrap();
        let t = r.sync_from(&m, &h);
        assert_eq!(t.full_entries, 1);
        assert_eq!(t.dn_only, 0);
        // Replica content reflects the modify.
        let q = SearchRequest::new(dn("c=us,o=xyz"), Scope::Subtree, Filter::parse("(mail=a@x)").unwrap());
        assert_eq!(r.try_answer(&q).unwrap().len(), 1);
    }

    #[test]
    fn sync_handles_add_delete_rename() {
        let mut m = master();
        let mut r = us_replica(&m);
        let mut h = History::new();
        let e = Entry::new(dn("cn=e,c=us,o=xyz"))
            .with("objectclass", "person")
            .with("serialNumber", "045699");
        let rename = UpdateOp::ModifyDn {
            dn: dn("cn=a,c=us,o=xyz"),
            new_rdn: fbdr_ldap::Rdn::new("cn", "a2"),
            new_superior: None,
        };
        for op in [UpdateOp::Add(e), UpdateOp::Delete(dn("cn=b,c=us,o=xyz")), rename] {
            h.apply(&mut m, op).unwrap();
        }
        let t = r.sync_from(&m, &h);
        assert_eq!(t.full_entries, 2); // add e + rename target a2
        assert_eq!(t.dn_only, 2); // delete b + rename source a
        assert_eq!(r.entry_count(), 3); // c=us, e, a2
        let q = SearchRequest::new(dn("c=us,o=xyz"), Scope::Subtree, Filter::parse("(cn=a2)").unwrap());
        assert_eq!(r.try_answer(&q).unwrap().len(), 1);
    }
}
