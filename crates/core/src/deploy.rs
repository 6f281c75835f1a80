//! Deployment: partial replicas as nodes in a simulated distributed
//! directory.
//!
//! [`ReplicaNode`] implements [`DirectoryService`]: queries semantically
//! contained in its replicated content are answered locally; everything
//! else gets a *default referral* to the master — exactly how the paper's
//! replica behaves at the protocol level (§3: "the meta information is
//! used to determine if an incoming query is semantically contained in
//! any stored query. Otherwise a referral is generated").
//! [`SubtreeReplicaNode`] does the same for the conventional subtree
//! model, so both replica types register in a [`Network`](fbdr_net::Network)
//! via `add_service` like any other node.
//!
//! Neither node wraps its replica in an exclusive lock on the read path:
//! `FilterReplica` answers from immutable content snapshots, so
//! [`ReplicaNode::handle_search`](DirectoryService::handle_search) runs
//! concurrently on any number of client threads, even while
//! [`ReplicaNode::sync_with`] is mid-cycle on another. The same node
//! serves an unsharded and a sharded master — the former is the
//! one-shard configuration of its coordinator.
//!
//! ```
//! use fbdr_core::deploy::ReplicaNode;
//! use fbdr_dit::{DitStore, NamingContext};
//! use fbdr_ldap::{Entry, Filter, SearchRequest, Scope};
//! use fbdr_net::{Network, Server};
//! use fbdr_replica::FilterReplica;
//! use fbdr_resync::SyncMaster;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! // Master server and its data.
//! let mut dit = DitStore::new();
//! dit.add_suffix("o=xyz".parse()?);
//! dit.add(Entry::new("o=xyz".parse()?).with("objectclass", "organization"))?;
//! dit.add(Entry::new("cn=a,o=xyz".parse()?)
//!     .with("objectclass", "person")
//!     .with("serialNumber", "045612"))?;
//!
//! // The replica loads one filter from the master's content…
//! let mut sync_master = SyncMaster::with_dit(dit.clone());
//! let replica = FilterReplica::new(0);
//! replica.install_filter(&mut sync_master,
//!     SearchRequest::from_root(Filter::parse("(serialNumber=0456*)")?))?;
//!
//! // …and both are deployed into one network.
//! let mut net = Network::new();
//! net.add_server(Server::new("ldap://master", dit,
//!     vec![NamingContext::new("o=xyz".parse()?)], None));
//! net.add_service(Box::new(ReplicaNode::new("ldap://replica", replica, "ldap://master")));
//!
//! // A contained query is answered by the replica in one round trip.
//! let mut client = net.client();
//! let q = SearchRequest::from_root(Filter::parse("(serialNumber=045612)")?);
//! let res = client.search("ldap://replica", &q)?;
//! assert_eq!(res.entries.len(), 1);
//! assert_eq!(res.stats.round_trips, 1);
//!
//! // A miss is referred to the master: two round trips.
//! let q = SearchRequest::from_root(Filter::parse("(serialNumber=999999)")?);
//! let res = client.search("ldap://replica", &q)?;
//! assert_eq!(res.stats.round_trips, 2);
//! # Ok(())
//! # }
//! ```

use fbdr_dit::{DitStore, History};
use fbdr_net::{DirectoryService, ServerOutcome};
use fbdr_replica::{FilterReplica, SubtreeReplica};
use fbdr_resync::{
    ShardCoordinator, ShardMap, SyncError, SyncTraffic, SyncTransport, SystemClock,
};
use parking_lot::{Mutex, RwLock};

/// A filter-based replica addressable as a directory node: local answers
/// for contained queries, a default referral to the master otherwise.
///
/// The replica is held directly — no lock on the read path.
/// [`FilterReplica`]'s own read/write split makes `handle_search` safe
/// from any number of threads while a sync cycle runs. The node owns the
/// [`ShardCoordinator`] that drives its sessions — one driver per master
/// shard, so one slow or partitioned shard degrades only the filters
/// overlapping it; against an unsharded master that is the single-shard
/// coordinator [`ReplicaNode::new`] starts with. Only the coordinator
/// sits behind a [`Mutex`], taken for the duration of an install or sync
/// cycle.
#[derive(Debug)]
pub struct ReplicaNode {
    url: String,
    replica: FilterReplica,
    coordinator: Mutex<ShardCoordinator<SystemClock>>,
    master_url: String,
}

impl ReplicaNode {
    /// Wraps a (loaded) replica as a network node referring misses to
    /// `master_url`, synchronizing against an unsharded master.
    pub fn new(
        url: impl Into<String>,
        replica: FilterReplica,
        master_url: impl Into<String>,
    ) -> Self {
        ReplicaNode {
            url: url.into(),
            replica,
            coordinator: Mutex::new(ShardCoordinator::new(ShardMap::single())),
            master_url: master_url.into(),
        }
    }

    /// Replaces the coordinator — the shard map of a sharded master,
    /// and/or explicit retry and reconcile policies.
    pub fn with_coordinator(mut self, coordinator: ShardCoordinator<SystemClock>) -> Self {
        self.coordinator = Mutex::new(coordinator);
        self
    }

    /// The underlying replica (all of whose operations take `&self`).
    pub fn replica(&self) -> &FilterReplica {
        &self.replica
    }

    /// Hit statistics accumulated while serving.
    pub fn stats(&self) -> fbdr_replica::ReplicaStats {
        self.replica.stats()
    }

    /// Loads a filter through the coordinator, opening one session on
    /// every shard the filter's region overlaps.
    ///
    /// # Errors
    ///
    /// Propagates install failures; partially opened shard sessions are
    /// abandoned by the coordinator before the error surfaces.
    pub fn install_filter(
        &self,
        transport: &mut dyn SyncTransport,
        request: fbdr_ldap::SearchRequest,
    ) -> Result<SyncTraffic, SyncError> {
        self.replica.install_filter_sharded(transport, &mut self.coordinator.lock(), request)
    }

    /// Resynchronizes the deployed replica in place (see
    /// [`FilterReplica::sync_with_sharded`]): the node keeps serving —
    /// possibly stale — content while the cycle runs, and a transport
    /// outage or failing shard marks only the filters it backs stale
    /// instead of failing the node.
    ///
    /// # Errors
    ///
    /// Propagates the first non-transient [`SyncError`], after the merged
    /// epoch has been published.
    pub fn sync_with(&self, transport: &mut dyn SyncTransport) -> Result<SyncTraffic, SyncError> {
        self.replica.sync_with_sharded(transport, &mut self.coordinator.lock())
    }

    /// Aggregate driver statistics across all shards.
    pub fn driver_stats(&self) -> fbdr_resync::DriverStats {
        self.coordinator.lock().stats()
    }
}

impl DirectoryService for ReplicaNode {
    fn url(&self) -> &str {
        &self.url
    }

    fn handle_search(&self, req: &fbdr_ldap::SearchRequest) -> ServerOutcome {
        match self.replica.try_answer(req) {
            Some(entries) => ServerOutcome::Results { entries, continuations: Vec::new() },
            None => ServerOutcome::DefaultReferral(self.master_url.clone()),
        }
    }
}

/// A subtree replica addressable as a directory node, for head-to-head
/// deployments against [`ReplicaNode`] (§3.4.1 vs. the paper's model).
///
/// Unlike `FilterReplica`, the subtree store is not snapshot-isolated, so
/// the node holds an [`RwLock`]: concurrent readers share the read lock;
/// [`sync_from`](SubtreeReplicaNode::sync_from) briefly takes the write
/// lock for the whole cycle.
#[derive(Debug)]
pub struct SubtreeReplicaNode {
    url: String,
    replica: RwLock<SubtreeReplica>,
    master_url: String,
}

impl SubtreeReplicaNode {
    /// Wraps a (loaded) subtree replica as a network node referring
    /// misses to `master_url`.
    pub fn new(
        url: impl Into<String>,
        replica: SubtreeReplica,
        master_url: impl Into<String>,
    ) -> Self {
        SubtreeReplicaNode {
            url: url.into(),
            replica: RwLock::new(replica),
            master_url: master_url.into(),
        }
    }

    /// Hit statistics accumulated while serving.
    pub fn stats(&self) -> fbdr_replica::ReplicaStats {
        self.replica.read().stats()
    }

    /// Ships every pending change of the held contexts from the master,
    /// read off the caller's `history` of it (readers block for the
    /// duration of the cycle). Returns the sync traffic.
    pub fn sync_from(&self, master: &DitStore, history: &History) -> SyncTraffic {
        self.replica.write().sync_from(master, history)
    }
}

impl DirectoryService for SubtreeReplicaNode {
    fn url(&self) -> &str {
        &self.url
    }

    fn handle_search(&self, req: &fbdr_ldap::SearchRequest) -> ServerOutcome {
        match self.replica.read().try_answer(req) {
            Some(entries) => ServerOutcome::Results { entries, continuations: Vec::new() },
            None => ServerOutcome::DefaultReferral(self.master_url.clone()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fbdr_dit::NamingContext;
    use fbdr_ldap::{Entry, Filter, Scope, SearchRequest};
    use fbdr_net::{Network, Server};
    use fbdr_resync::SyncMaster;

    fn world() -> (Network, &'static str) {
        let mut dit = DitStore::new();
        dit.add_suffix("o=xyz".parse().unwrap());
        dit.add(Entry::new("o=xyz".parse().unwrap()).with("objectclass", "organization"))
            .unwrap();
        for i in 0..20 {
            dit.add(
                Entry::new(format!("cn=e{i},o=xyz").parse().unwrap())
                    .with("objectclass", "person")
                    .with("serialNumber", &format!("04{i:04}")),
            )
            .unwrap();
        }
        let mut master = SyncMaster::with_dit(dit.clone());
        let replica = FilterReplica::new(0);
        replica
            .install_filter(
                &mut master,
                SearchRequest::from_root(Filter::parse("(serialNumber=04000*)").unwrap()),
            )
            .unwrap();
        let mut net = Network::new();
        net.add_server(Server::new(
            "ldap://master",
            dit,
            vec![NamingContext::new("o=xyz".parse().unwrap())],
            None,
        ));
        net.add_service(Box::new(ReplicaNode::new("ldap://replica", replica, "ldap://master")));
        (net, "ldap://replica")
    }

    #[test]
    fn hit_is_one_round_trip_miss_is_two() {
        let (net, replica_url) = world();
        let mut client = net.client();
        let hit = SearchRequest::from_root(Filter::parse("(serialNumber=040007)").unwrap());
        let res = client.search(replica_url, &hit).unwrap();
        assert_eq!(res.stats.round_trips, 1);
        assert_eq!(res.entries.len(), 1);

        let miss = SearchRequest::from_root(Filter::parse("(serialNumber=040015)").unwrap());
        let res = client.search(replica_url, &miss).unwrap();
        assert_eq!(res.stats.round_trips, 2);
        assert_eq!(res.entries.len(), 1);
        assert_eq!(res.stats.referrals_received, 1);
    }

    #[test]
    fn deployed_node_resyncs_in_place() {
        let mut dit = DitStore::new();
        dit.add_suffix("o=xyz".parse().unwrap());
        dit.add(Entry::new("o=xyz".parse().unwrap()).with("objectclass", "organization"))
            .unwrap();
        dit.add(
            Entry::new("cn=a,o=xyz".parse().unwrap())
                .with("objectclass", "person")
                .with("serialNumber", "040001"),
        )
        .unwrap();
        let mut master = SyncMaster::with_dit(dit);
        let replica = FilterReplica::new(0);
        replica
            .install_filter(
                &mut master,
                SearchRequest::from_root(Filter::parse("(serialNumber=0400*)").unwrap()),
            )
            .unwrap();
        let node = ReplicaNode::new("ldap://replica", replica, "ldap://master");

        master
            .apply(fbdr_dit::UpdateOp::Add(
                Entry::new("cn=b,o=xyz".parse().unwrap())
                    .with("objectclass", "person")
                    .with("serialNumber", "040002"),
            ))
            .unwrap();
        let t = node.sync_with(&mut master).unwrap();
        assert_eq!(t.full_entries, 1);
        assert_eq!(node.driver_stats().attempts, 1);

        let q = SearchRequest::from_root(Filter::parse("(serialNumber=040002)").unwrap());
        match node.handle_search(&q) {
            ServerOutcome::Results { entries, .. } => assert_eq!(entries.len(), 1),
            other => panic!("expected local answer, got {other:?}"),
        }
    }

    #[test]
    fn replica_node_tracks_stats() {
        let (net, replica_url) = world();
        let mut client = net.client();
        for i in 0..6 {
            let q = SearchRequest::from_root(
                Filter::parse(&format!("(serialNumber=04{:04})", i * 3)).unwrap(),
            );
            client.search(replica_url, &q).unwrap();
        }
        let node = net.server(replica_url).expect("node exists");
        assert_eq!(node.url(), replica_url);
    }

    #[test]
    fn sharded_node_installs_syncs_and_serves() {
        use fbdr_resync::{ShardCoordinator, ShardMap, ShardedMaster};

        let map = ShardMap::by_suffixes(vec![
            "c=g0,o=xyz".parse().unwrap(),
            "c=g1,o=xyz".parse().unwrap(),
        ]);
        let mut master = ShardedMaster::new(map.clone());
        for shard in map.shards() {
            let dit = master.shard_mut(shard).dit_mut();
            dit.add_suffix("o=xyz".parse().unwrap());
            dit.add(Entry::new("o=xyz".parse().unwrap()).with("objectclass", "organization"))
                .unwrap();
        }
        for g in 0..2 {
            master
                .apply(fbdr_dit::UpdateOp::Add(
                    Entry::new(format!("c=g{g},o=xyz").parse().unwrap())
                        .with("objectclass", "country"),
                ))
                .unwrap();
        }
        for i in 0..8 {
            master
                .apply(fbdr_dit::UpdateOp::Add(
                    Entry::new(format!("cn=e{i},c=g{},o=xyz", i % 2).parse().unwrap())
                        .with("objectclass", "person")
                        .with("serialNumber", &format!("04{i:04}")),
                ))
                .unwrap();
        }

        let node = ReplicaNode::new("ldap://replica", FilterReplica::new(0), "ldap://master")
            .with_coordinator(ShardCoordinator::new(map));
        node.install_filter(
            &mut master,
            SearchRequest::from_root(Filter::parse("(serialNumber=04*)").unwrap()),
        )
        .unwrap();

        // Both shards contributed entries to the loaded filter.
        let q = SearchRequest::from_root(Filter::parse("(serialNumber=04*)").unwrap());
        match node.handle_search(&q) {
            ServerOutcome::Results { entries, .. } => assert_eq!(entries.len(), 8),
            other => panic!("expected local answer, got {other:?}"),
        }

        // An update lands on one shard and a sync cycle picks it up.
        master
            .apply(fbdr_dit::UpdateOp::Add(
                Entry::new("cn=new,c=g1,o=xyz".parse().unwrap())
                    .with("objectclass", "person")
                    .with("serialNumber", "049999"),
            ))
            .unwrap();
        let t = node.sync_with(&mut master).unwrap();
        assert_eq!(t.full_entries, 1);
        match node.handle_search(&q) {
            ServerOutcome::Results { entries, .. } => assert_eq!(entries.len(), 9),
            other => panic!("expected local answer, got {other:?}"),
        }
        // Two shard sessions opened at install plus two polled at sync.
        assert_eq!(node.driver_stats().attempts, 4);
    }

    #[test]
    fn subtree_node_answers_and_refers() {
        let mut dit = DitStore::new();
        dit.add_suffix("o=xyz".parse().unwrap());
        dit.add(Entry::new("o=xyz".parse().unwrap()).with("objectclass", "organization"))
            .unwrap();
        dit.add(Entry::new("c=us,o=xyz".parse().unwrap()).with("objectclass", "country"))
            .unwrap();
        dit.add(
            Entry::new("cn=a,c=us,o=xyz".parse().unwrap())
                .with("objectclass", "person")
                .with("serialNumber", "040001"),
        )
        .unwrap();

        let mut sub = SubtreeReplica::new();
        sub.replicate_context(&dit, NamingContext::new("c=us,o=xyz".parse().unwrap()));

        let mut net = Network::new();
        net.add_server(Server::new(
            "ldap://master",
            dit.clone(),
            vec![NamingContext::new("o=xyz".parse().unwrap())],
            None,
        ));
        net.add_service(Box::new(SubtreeReplicaNode::new(
            "ldap://sub",
            sub,
            "ldap://master",
        )));

        let mut client = net.client();
        // A query based inside the held context: answered locally.
        let hit = SearchRequest::new(
            "c=us,o=xyz".parse().unwrap(),
            Scope::Subtree,
            Filter::parse("(serialNumber=04*)").unwrap(),
        );
        let res = client.search("ldap://sub", &hit).unwrap();
        assert_eq!(res.stats.round_trips, 1);
        assert_eq!(res.entries.len(), 1);

        // A root-based query: subtree replicas can never answer those
        // (§3.1.1) — referred to the master.
        let miss = SearchRequest::from_root(Filter::parse("(serialNumber=040001)").unwrap());
        let res = client.search("ldap://sub", &miss).unwrap();
        assert_eq!(res.stats.round_trips, 2);
        assert_eq!(res.entries.len(), 1);

        // The node saw both queries; only one was a hit.
        let node = net.server("ldap://sub").unwrap();
        assert_eq!(node.url(), "ldap://sub");
    }

    #[test]
    fn subtree_node_syncs_in_place() {
        let mut dit = DitStore::new();
        dit.add_suffix("o=xyz".parse().unwrap());
        dit.add(Entry::new("o=xyz".parse().unwrap()).with("objectclass", "organization"))
            .unwrap();
        dit.add(Entry::new("c=us,o=xyz".parse().unwrap()).with("objectclass", "country"))
            .unwrap();
        let mut sub = SubtreeReplica::new();
        sub.replicate_context(&dit, NamingContext::new("c=us,o=xyz".parse().unwrap()));
        let node = SubtreeReplicaNode::new("ldap://sub", sub, "ldap://master");

        let mut history = History::new();
        let added = dit.add(
            Entry::new("cn=n,c=us,o=xyz".parse().unwrap())
                .with("objectclass", "person")
                .with("serialNumber", "049999"),
        );
        history.record(added.unwrap());
        let t = node.sync_from(&dit, &history);
        assert_eq!(t.full_entries, 1);

        let q = SearchRequest::new(
            "c=us,o=xyz".parse().unwrap(),
            Scope::Subtree,
            Filter::parse("(serialNumber=049999)").unwrap(),
        );
        match node.handle_search(&q) {
            ServerOutcome::Results { entries, .. } => assert_eq!(entries.len(), 1),
            other => panic!("expected local answer, got {other:?}"),
        }
        assert_eq!(node.stats().hits, 1);
    }
}
