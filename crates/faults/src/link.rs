//! Fault-injecting wrappers: a [`FaultyLink`] between a replica and its
//! master (sharded or not), and a [`FaultyService`] in front of any
//! [`DirectoryService`].
//!
//! Both consult a [`FaultPlan`] per operation, so a seed fully determines
//! which requests are dropped, duplicated or delayed — every chaos run is
//! replayable bit for bit.

use crate::clock::SimClock;
use crate::plan::FaultPlan;
use crossbeam::channel::Receiver;
use fbdr_ldap::SearchRequest;
use fbdr_net::{DirectoryService, ServerOutcome, ShardId};
use fbdr_resync::reconcile::{
    RangeRequest, RangeResponse, ReconcileRequest, ReconcileResponse,
};
use fbdr_resync::{
    Cookie, NotifyBatch, ReSyncControl, ShardedMaster, SyncError, SyncMaster, SyncResponse,
    SyncTransport,
};
use std::sync::Mutex;

/// A master a [`FaultyLink`] can wrap: the transport legs plus the two
/// master-side state transitions faults need to trigger — dropping live
/// persist channels (a persist disconnect) and a crash restart from the
/// serialized snapshot (losing exactly the state that does not survive
/// persistence).
pub trait FaultTarget: SyncTransport {
    /// Drops all live persist-mode notification channels.
    fn drop_persist_channels(&mut self);

    /// Crash the master and restart it from its serialized snapshot.
    fn crash_restart(&mut self);
}

impl FaultTarget for SyncMaster {
    fn drop_persist_channels(&mut self) {
        SyncMaster::drop_persist_channels(self);
    }

    fn crash_restart(&mut self) {
        let snapshot = serde_json::to_string(self).expect("master state must serialize");
        // The observability handle does not survive persistence; carry it
        // across the restart so metric streams span crashes seamlessly.
        let obs = self.obs().clone();
        *self = serde_json::from_str(&snapshot).expect("master state must deserialize");
        self.set_obs(obs);
    }
}

impl FaultTarget for ShardedMaster {
    fn drop_persist_channels(&mut self) {
        ShardedMaster::drop_persist_channels(self);
    }

    fn crash_restart(&mut self) {
        let snapshot = serde_json::to_string(self).expect("master state must serialize");
        let obs: Vec<_> = (0..self.map().shard_count())
            .map(|i| self.shard(ShardId::new(i as u16)).obs().clone())
            .collect();
        *self = serde_json::from_str(&snapshot).expect("master state must deserialize");
        for (i, o) in obs.into_iter().enumerate() {
            self.shard_mut(ShardId::new(i as u16)).set_obs(o);
        }
    }
}

/// An unreliable network link between a replica and its master.
///
/// Implements [`SyncTransport`], so it slots directly under a
/// `SyncDriver`: the driver retries what the link breaks. Faults model
/// the transport, not the master — a *dropped request* never reaches the
/// master, while a *dropped response* is processed by the master and lost
/// on the way back (the case a retried cookie exists for: the master
/// re-sends its changes from the live DIT). A *crash
/// restart* serializes the master to JSON and restores it, losing exactly
/// the state that does not survive persistence (live persist channels).
///
/// The link is generic over its [`FaultTarget`]: wrap a [`SyncMaster`]
/// for a single-master deployment or a [`ShardedMaster`] for a sharded
/// one. Every leg forwards its shard to the wrapped master, under the
/// same per-exchange fault decisions, so a shard coordinator above the
/// link sees per-shard faults.
#[derive(Debug)]
pub struct FaultyLink<M: FaultTarget = SyncMaster> {
    master: M,
    plan: FaultPlan,
    clock: SimClock,
    injected: u64,
}

impl<M: FaultTarget> FaultyLink<M> {
    /// Wraps `master` behind `plan`, advancing `clock` by the plan's
    /// simulated latency on every exchange.
    pub fn new(master: M, plan: FaultPlan, clock: SimClock) -> Self {
        FaultyLink { master, plan, clock, injected: 0 }
    }

    /// The master behind the link.
    pub fn master(&self) -> &M {
        &self.master
    }

    /// Mutable access to the master (to apply updates during a run).
    pub fn master_mut(&mut self) -> &mut M {
        &mut self.master
    }

    /// The simulated clock the link advances.
    pub fn clock(&self) -> &SimClock {
        &self.clock
    }

    /// Stops injecting faults from the next operation onward.
    pub fn quiesce(&mut self) {
        self.plan.quiesce();
    }

    /// Number of operations on which at least one fault was injected.
    pub fn faults_injected(&self) -> u64 {
        self.injected
    }

    /// One faulted request/response exchange: decide the faults, apply
    /// the master-side ones (crash, persist disconnect), then run `op`
    /// zero, one or two times depending on drop/duplicate decisions.
    fn exchange<R>(
        &mut self,
        mut op: impl FnMut(&mut M) -> Result<R, SyncError>,
    ) -> Result<R, SyncError> {
        let decision = self.plan.decide();
        if !decision.is_clean() {
            self.injected += 1;
        }
        self.clock.advance_ms(decision.latency_ms);
        if decision.crash_restart {
            self.master.crash_restart();
        }
        if decision.disconnect_persist {
            self.master.drop_persist_channels();
        }
        if decision.drop_request {
            return Err(SyncError::Unavailable("request dropped".into()));
        }
        let mut resp = op(&mut self.master)?;
        if decision.duplicate {
            // The network re-delivered the request; the master sees it
            // twice and must answer both consistently (resync replays
            // identically from the buffer; a duplicated reconcile digest
            // starts an orphan session that falls to idle expiry).
            resp = op(&mut self.master)?;
        }
        if decision.drop_response {
            // The master processed the request, but the replica never
            // hears back.
            return Err(SyncError::Unavailable("response dropped".into()));
        }
        Ok(resp)
    }
}

impl<M: FaultTarget> SyncTransport for FaultyLink<M> {
    fn shard_count(&self) -> usize {
        self.master.shard_count()
    }

    fn resync_at(
        &mut self,
        shard: ShardId,
        request: &SearchRequest,
        ctl: ReSyncControl,
    ) -> Result<SyncResponse, SyncError> {
        self.exchange(|m| m.resync_at(shard, request, ctl))
    }

    fn take_receiver_at(&mut self, shard: ShardId, cookie: Cookie) -> Option<Receiver<NotifyBatch>> {
        self.master.take_receiver_at(shard, cookie)
    }

    fn abandon_at(&mut self, shard: ShardId, cookie: Cookie) {
        self.master.abandon_at(shard, cookie);
    }

    fn reconcile_at(
        &mut self,
        shard: ShardId,
        request: &SearchRequest,
        req: ReconcileRequest,
    ) -> Result<ReconcileResponse, SyncError> {
        self.exchange(|m| m.reconcile_at(shard, request, req.clone()))
    }

    fn reconcile_ranges_at(
        &mut self,
        shard: ShardId,
        cookie: Cookie,
        req: &RangeRequest,
    ) -> Result<RangeResponse, SyncError> {
        self.exchange(|m| m.reconcile_ranges_at(shard, cookie, req))
    }
}

/// A fault-injecting front for any [`DirectoryService`] in a network.
///
/// Lost requests, lost responses and crashes all look the same to a
/// search client — the server is [`ServerOutcome::Unavailable`] — so the
/// client's partial-result handling can be exercised deterministically.
#[derive(Debug)]
pub struct FaultyService {
    inner: Box<dyn DirectoryService>,
    plan: Mutex<FaultPlan>,
}

impl FaultyService {
    /// Wraps `inner` behind `plan`.
    pub fn new(inner: Box<dyn DirectoryService>, plan: FaultPlan) -> Self {
        FaultyService { inner, plan: Mutex::new(plan) }
    }
}

impl DirectoryService for FaultyService {
    fn url(&self) -> &str {
        self.inner.url()
    }

    fn handle_search(&self, req: &SearchRequest) -> ServerOutcome {
        let decision = self.plan.lock().expect("fault plan poisoned").decide();
        if decision.drop_request || decision.drop_response || decision.crash_restart {
            return ServerOutcome::Unavailable;
        }
        if decision.duplicate {
            // Searches are read-only: the duplicate answer is discarded.
            let _ = self.inner.handle_search(req);
        }
        self.inner.handle_search(req)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::FaultKind;
    use fbdr_dit::UpdateOp;
    use fbdr_ldap::{Dn, Entry, Filter};
    use fbdr_resync::{RetryConfig, SyncDriver};

    fn dn(s: &str) -> Dn {
        s.parse().unwrap()
    }

    fn master() -> SyncMaster {
        let mut m = SyncMaster::new();
        m.dit_mut().add_suffix(dn("o=xyz"));
        m.dit_mut().add(Entry::new(dn("o=xyz"))).unwrap();
        for sn in ["045611", "045612"] {
            m.dit_mut()
                .add(
                    Entry::new(dn(&format!("cn={sn},o=xyz")))
                        .with("objectclass", "person")
                        .with("serialNumber", sn),
                )
                .unwrap();
        }
        m
    }

    fn req() -> SearchRequest {
        SearchRequest::from_root(Filter::parse("(serialNumber=0456*)").unwrap())
    }

    #[test]
    fn clean_plan_is_transparent() {
        let mut link = FaultyLink::new(master(), FaultPlan::clean(), SimClock::new());
        let resp = link.resync_at(ShardId::ZERO, &req(), ReSyncControl::poll(None)).unwrap();
        assert_eq!(resp.actions.len(), 2);
        assert_eq!(link.faults_injected(), 0);
    }

    #[test]
    fn dropped_request_never_reaches_the_master() {
        let plan = FaultPlan::builder(0).at(0, FaultKind::DropRequest).build();
        let mut link = FaultyLink::new(master(), plan, SimClock::new());
        let err = link.resync_at(ShardId::ZERO, &req(), ReSyncControl::poll(None)).unwrap_err();
        assert!(err.is_transient());
        assert_eq!(link.master().session_count(), 0, "master never saw it");
    }

    #[test]
    fn dropped_response_is_recoverable_by_retry() {
        let plan = FaultPlan::builder(0).at(0, FaultKind::DropResponse).build();
        let mut link = FaultyLink::new(master(), plan, SimClock::new());
        let err = link.resync_at(ShardId::ZERO, &req(), ReSyncControl::poll(None)).unwrap_err();
        assert!(err.is_transient());
        // The master processed the request: the session exists and the
        // retry (same cookie: none) starts a second session — the replica
        // never learned the first cookie. Master-side expiry cleans the
        // orphan up later.
        assert_eq!(link.master().session_count(), 1);
        let resp = link.resync_at(ShardId::ZERO, &req(), ReSyncControl::poll(None)).unwrap();
        assert_eq!(resp.actions.len(), 2);
    }

    #[test]
    fn driver_over_faulty_link_recovers_lost_batches() {
        // Response of the incremental poll at op 1 is lost; the driver's
        // retry must fetch the deletion again.
        let plan = FaultPlan::builder(0).at(1, FaultKind::DropResponse).build();
        let mut link = FaultyLink::new(master(), plan, SimClock::new());
        let clock = link.clock().clone();
        let mut driver = SyncDriver::with_clock(RetryConfig::default(), clock);

        let resp = driver
            .resync(&mut link, ShardId::ZERO, &req(), ReSyncControl::poll(None))
            .unwrap();
        let cookie = resp.cookie.unwrap();
        link.master_mut()
            .apply(UpdateOp::Delete(dn("cn=045612,o=xyz")))
            .unwrap();
        let resp = driver
            .resync(&mut link, ShardId::ZERO, &req(), ReSyncControl::poll(Some(cookie)))
            .unwrap();
        assert_eq!(resp.actions.len(), 1, "the lost deletion is redelivered");
        assert_eq!(driver.stats().recovered, 1);
        assert_eq!(link.master().redeliveries(), 1);
    }

    #[test]
    fn driver_reconcile_over_faulty_link_survives_a_dropped_digest_round() {
        // The digest round's response is lost; the driver retries the
        // whole exchange with a re-salted digest and converges.
        let plan = FaultPlan::builder(0).at(0, FaultKind::DropResponse).build();
        let mut link = FaultyLink::new(master(), plan, SimClock::new());
        let clock = link.clock().clone();
        let mut driver = SyncDriver::with_clock(RetryConfig::default(), clock);

        // An empty replica: everything the master holds is a definite miss.
        let outcome = driver.reconcile(&mut link, ShardId::ZERO, &req(), &Vec::new).unwrap();
        assert_eq!((outcome.cost.shipped_entries, outcome.cost.deletes), (2, 0));
        assert_eq!(driver.stats().reconciliations, 1);
        assert_eq!(driver.stats().recovered, 1);
        assert_eq!(link.faults_injected(), 1);
        // The orphan session from the lost first attempt lingers until
        // idle expiry; the live one answers the cookie.
        assert_eq!(link.master().session_count(), 2);
        let resp = link
            .resync_at(ShardId::ZERO, &req(), ReSyncControl::poll(Some(outcome.cookie)))
            .unwrap();
        assert!(resp.actions.is_empty(), "cookie is already at the current content");
    }

    #[test]
    fn a_duplicated_persist_install_leaves_an_orphan_that_expires() {
        use fbdr_resync::{ShardCoordinator, ShardMap, SyncMode};
        // The install request reaches the master twice: two sessions, and
        // the replica learns only the second.
        let plan = FaultPlan::builder(0).at(0, FaultKind::Duplicate).build();
        let mut link = FaultyLink::new(master(), plan, SimClock::new());
        let mut coord = ShardCoordinator::new(ShardMap::single());
        let (actions, cookie, _, receivers) =
            coord.install(&mut link, &req(), SyncMode::Persist).unwrap();
        assert_eq!((actions.len(), cookie.len(), receivers.len()), (2, 1, 1));
        assert_eq!(link.master().session_count(), 2);

        // Nobody holds the orphan's receiver, so it does not keep its
        // session alive; the installed one streams on.
        link.master_mut().apply(UpdateOp::Delete(dn("cn=045611,o=xyz"))).unwrap();
        assert_eq!(link.master_mut().expire_idle(0), 1);
        assert_eq!(link.master().session_count(), 1);
        link.master_mut().apply(UpdateOp::Delete(dn("cn=045612,o=xyz"))).unwrap();
        assert_eq!(receivers[0].try_iter().count(), 2);
        let c = cookie.get(ShardId::ZERO).unwrap();
        assert!(link.master_mut().take_receiver(c).is_none(), "taken at install");
    }

    #[test]
    fn crash_restart_preserves_sessions_and_pending() {
        let plan = FaultPlan::builder(0).at(1, FaultKind::CrashRestart).build();
        let mut link = FaultyLink::new(master(), plan, SimClock::new());
        let resp = link.resync_at(ShardId::ZERO, &req(), ReSyncControl::poll(None)).unwrap();
        let cookie = resp.cookie.unwrap();
        link.master_mut()
            .apply(UpdateOp::Delete(dn("cn=045611,o=xyz")))
            .unwrap();
        // The poll lands right after the restart and still works.
        let resp =
            link.resync_at(ShardId::ZERO, &req(), ReSyncControl::poll(Some(cookie))).unwrap();
        assert_eq!(resp.actions.len(), 1);
    }

    #[test]
    fn latency_advances_the_simulated_clock() {
        let plan = FaultPlan::builder(0).latency_ms(10, 10).build();
        let mut link = FaultyLink::new(master(), plan, SimClock::new());
        link.resync_at(ShardId::ZERO, &req(), ReSyncControl::poll(None)).unwrap();
        link.resync_at(ShardId::ZERO, &req(), ReSyncControl::poll(None)).unwrap();
        assert_eq!(link.clock().now_ms(), 20);
    }

    #[test]
    fn faulty_service_blocks_and_recovers() {
        use fbdr_dit::{DitStore, NamingContext};
        use fbdr_net::{Network, Server};

        let mut dit = DitStore::new();
        dit.add_suffix(dn("o=xyz"));
        dit.add(Entry::new(dn("o=xyz")).with("objectclass", "organization")).unwrap();
        let server = Server::new(
            "ldap://m",
            dit,
            vec![NamingContext::new(dn("o=xyz"))],
            None,
        );
        // First request is dropped, everything after goes through.
        let plan = FaultPlan::builder(0).at(0, FaultKind::DropRequest).build();
        let mut net = Network::new();
        net.add_service(Box::new(FaultyService::new(Box::new(server), plan)));

        let q = SearchRequest::new(dn("o=xyz"), fbdr_ldap::Scope::Subtree, Filter::match_all());
        let mut client = net.client();
        let err = client.search("ldap://m", &q).unwrap_err();
        assert!(err.is_transient());
        let res = client.search("ldap://m", &q).unwrap();
        assert_eq!(res.entries.len(), 1);
        assert!(res.is_complete());
    }
}
