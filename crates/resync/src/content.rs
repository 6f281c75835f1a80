//! The replica-side content of one synchronized search request.

use crate::intern::dn_key;
use crate::protocol::SyncAction;
use fbdr_ldap::{Dn, Entry};
use std::collections::BTreeMap;

/// The set of entries a replica holds for one replicated search request,
/// updated by applying [`SyncAction`]s. Keyed by DN under LDAP matching
/// rules (`Dn`'s own equality), so `CN=B,O=X` finds `cn=b,o=x`.
///
/// `Retain` actions participate in the history-free scheme of equation
/// (3): a sync cycle built from retain/add/modify actions implicitly
/// deletes everything not mentioned — apply such cycles with
/// [`ReplicaContent::apply_snapshot_cycle`].
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

    /// Applies one incremental action (add/modify upsert, delete removes;
    /// retain is a no-op here).
    pub fn apply(&mut self, action: &SyncAction) {
        match action {
            SyncAction::Add(e) | SyncAction::Modify(e) => {
                self.entries.insert(e.dn().clone(), e.clone());
            }
            SyncAction::Delete(dn) => {
                self.entries.remove(dn);
            }
            SyncAction::Retain(_) => {}
        }
    }

    /// Applies a batch of incremental actions.
    pub fn apply_all<'a, I: IntoIterator<Item = &'a SyncAction>>(&mut self, actions: I) {
        for a in actions {
            self.apply(a);
        }
    }

    /// Applies a *snapshot cycle* (equation (3)): every entry the cycle
    /// does not mention via add/modify/retain is dropped.
    pub fn apply_snapshot_cycle<'a, I: IntoIterator<Item = &'a SyncAction>>(&mut self, actions: I) {
        let mut next = BTreeMap::new();
        for a in actions {
            match a {
                SyncAction::Add(e) | SyncAction::Modify(e) => {
                    next.insert(e.dn().clone(), e.clone());
                }
                SyncAction::Retain(dn) => {
                    if let Some((dn, e)) = self.entries.remove_entry(dn) {
                        next.insert(dn, e);
                    }
                }
                SyncAction::Delete(dn) => {
                    next.remove(dn);
                }
            }
        }
        self.entries = next;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
    fn snapshot_cycle_drops_unmentioned() {
        let mut c = ReplicaContent::new();
        c.apply(&SyncAction::Add(entry("cn=a,o=x")));
        c.apply(&SyncAction::Add(entry("cn=b,o=x")));
        c.apply(&SyncAction::Add(entry("cn=c,o=x")));
        // Cycle: retain a, modify b; c unmentioned -> dropped.
        let cycle = vec![
            SyncAction::Retain("cn=a,o=x".parse().unwrap()),
            SyncAction::Modify(entry("cn=b,o=x").with("mail", "m@x")),
        ];
        c.apply_snapshot_cycle(&cycle);
        assert_eq!(c.len(), 2);
        assert!(c.contains(&"cn=a,o=x".parse().unwrap()));
        assert!(!c.contains(&"cn=c,o=x".parse().unwrap()));
    }

    #[test]
    fn retain_of_unknown_dn_is_ignored() {
        let mut c = ReplicaContent::new();
        c.apply_snapshot_cycle(&[SyncAction::Retain("cn=ghost,o=x".parse().unwrap())]);
        assert!(c.is_empty());
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
}
