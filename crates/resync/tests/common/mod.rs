//! Helpers shared by this crate's integration tests.

use fbdr_ldap::{Dn, Entry};
use fbdr_resync::reconcile::entry_item_hash;
use fbdr_resync::{ReconcileItem, ReplicaContent, ShardContent, ShardId, ShardMap};

/// The replica's held content sliced by shard ownership — what the
/// reconcile and reinstall rungs digest and delete. An entry's id is its
/// position in `entries`.
pub struct Held<'a> {
    entries: Vec<&'a Entry>,
    map: &'a ShardMap,
}

impl<'a> Held<'a> {
    pub fn new(content: &'a ReplicaContent, map: &'a ShardMap) -> Self {
        Held { entries: content.iter().collect(), map }
    }

    fn owned(&self, shard: ShardId) -> impl Iterator<Item = (u32, &'a Entry)> + '_ {
        self.entries
            .iter()
            .enumerate()
            .filter(move |(_, e)| self.map.shard_of(e.dn()) == shard)
            .map(|(i, e)| (u32::try_from(i).expect("fits"), *e))
    }
}

impl ShardContent for Held<'_> {
    fn items(&self, shard: ShardId) -> Vec<ReconcileItem> {
        self.owned(shard).map(|(id, e)| ReconcileItem { hash: entry_item_hash(e), id }).collect()
    }
    fn resolve(&self, shard: ShardId, dn: &Dn) -> Option<u32> {
        self.owned(shard).find(|(_, e)| e.dn() == dn).map(|(id, _)| id)
    }
    fn dn_of(&self, shard: ShardId, id: u32) -> Option<Dn> {
        self.owned(shard).find(|(i, _)| *i == id).map(|(_, e)| e.dn().clone())
    }
    fn held_dns(&self, shard: ShardId) -> Vec<Dn> {
        self.owned(shard).map(|(_, e)| e.dn().clone()).collect()
    }
}
