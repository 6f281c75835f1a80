//! The replica-side content of one synchronized search request: the
//! reference content ReSync must converge to.

use crate::intern::dn_key;
use crate::protocol::SyncAction;
use fbdr_dit::DitStore;
use fbdr_ldap::{Dn, Entry, SearchRequest};
use std::collections::{BTreeMap, HashSet};

/// The set of entries a replica holds for one replicated search request,
/// updated by applying [`SyncAction`]s. Keyed by DN under LDAP matching
/// rules (`Dn`'s own equality), so `CN=B,O=X` finds `cn=b,o=x`.
#[derive(Debug, Clone, Default)]
pub struct ReplicaContent {
    entries: BTreeMap<Dn, Entry>,
}

impl ReplicaContent {
    /// Creates empty content.
    pub fn new() -> Self {
        ReplicaContent::default()
    }

    /// Number of entries held.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when no entries are held.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Looks up an entry by DN.
    pub fn get(&self, dn: &Dn) -> Option<&Entry> {
        self.entries.get(dn)
    }

    /// True if the DN is in the content.
    pub fn contains(&self, dn: &Dn) -> bool {
        self.entries.contains_key(dn)
    }

    /// Iterates the held entries (unordered).
    pub fn iter(&self) -> impl Iterator<Item = &Entry> {
        self.entries.values()
    }

    /// Normalized DN keys held, sorted (for deterministic comparisons).
    pub fn sorted_dns(&self) -> Vec<String> {
        let mut dns: Vec<String> = self.entries.keys().map(dn_key).collect();
        dns.sort();
        dns
    }

    /// Applies one incremental action (add/modify upsert, delete removes).
    pub fn apply(&mut self, action: &SyncAction) {
        match action {
            SyncAction::Add(e) | SyncAction::Modify(e) => {
                self.entries.insert(e.dn().clone(), e.clone());
            }
            SyncAction::Delete(dn) => {
                self.entries.remove(dn);
            }
        }
    }

    /// Applies a batch of incremental actions.
    pub fn apply_all<'a, I: IntoIterator<Item = &'a SyncAction>>(&mut self, actions: I) {
        for a in actions {
            self.apply(a);
        }
    }
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
    use fbdr_ldap::{Filter, Scope};

    fn entry(dn: &str) -> Entry {
        Entry::new(dn.parse().unwrap()).with("objectclass", "person")
    }

    #[test]
    fn incremental_actions() {
        let mut c = ReplicaContent::new();
        c.apply(&SyncAction::Add(entry("cn=a,o=x")));
        c.apply(&SyncAction::Add(entry("cn=b,o=x")));
        assert_eq!(c.len(), 2);
        c.apply(&SyncAction::Delete("cn=a,o=x".parse().unwrap()));
        assert_eq!(c.len(), 1);
        assert!(c.contains(&"cn=b,o=x".parse().unwrap()));
        // Case-insensitive keying.
        assert!(c.contains(&"CN=B,O=X".parse().unwrap()));
    }

    #[test]
    fn modify_upserts() {
        let mut c = ReplicaContent::new();
        let e = entry("cn=a,o=x").with("mail", "1@x");
        c.apply(&SyncAction::Modify(e));
        assert_eq!(c.len(), 1);
        let e2 = entry("cn=a,o=x").with("mail", "2@x");
        c.apply(&SyncAction::Modify(e2.clone()));
        assert_eq!(c.get(&"cn=a,o=x".parse().unwrap()), Some(&e2));
    }

    #[test]
    fn readd_after_delete_reuses_slot() {
        let mut c = ReplicaContent::new();
        c.apply(&SyncAction::Add(entry("cn=a,o=x")));
        c.apply(&SyncAction::Delete("cn=a,o=x".parse().unwrap()));
        assert!(c.is_empty());
        c.apply(&SyncAction::Add(entry("cn=a,o=x").with("mail", "m@x")));
        assert_eq!(c.len(), 1);
        assert_eq!(c.sorted_dns(), ["cn=a,o=x"]);
    }

    #[test]
    fn sorted_dns_are_deterministic() {
        let mut c = ReplicaContent::new();
        for dn in ["cn=c,o=x", "cn=a,o=x", "cn=b,o=x"] {
            c.apply(&SyncAction::Add(entry(dn)));
        }
        assert_eq!(c.sorted_dns(), ["cn=a,o=x", "cn=b,o=x", "cn=c,o=x"]);
    }

    fn person(cn: &str, dept: &str) -> Entry {
        Entry::new(format!("cn={cn},o=xyz").parse().unwrap())
            .with("objectclass", "person")
            .with("cn", cn)
            .with("dept", dept)
    }

    fn master() -> DitStore {
        let mut d = DitStore::new();
        d.add_suffix("o=xyz".parse().unwrap());
        d.add(Entry::new("o=xyz".parse().unwrap())).unwrap();
        for (cn, dept) in [("a", "7"), ("b", "7"), ("c", "9")] {
            d.add(person(cn, dept)).unwrap();
        }
        d
    }

    fn dept7() -> SearchRequest {
        SearchRequest::new("o=xyz".parse().unwrap(), Scope::Subtree, Filter::parse("(dept=7)").unwrap())
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
