//! One pass: a fresh master and replica, set-up, the measured stream, and
//! the output checks.
//!
//! The runner composes the same public calls the `fbdr-core` facades make
//! (`Replicator::search` = `try_answer` → on a miss `DitStore::search` →
//! `cache_query`; `apply_update` = `apply`; `sync` = `sync_with*`) because
//! the facades expose neither persist-mode installs nor the seams the probe
//! needs. It is generic over [`Probe`], so traced and untraced passes run
//! the same code.

use crate::alloc;
use crate::fixture::{Delivery, Fixture, Op, CACHE_WINDOW, SLICES, SLICES_PER_CHECKPOINT};
use crate::oracle::SetDigest;
use crate::trace::{NoProbe, Probe};
use crossbeam::channel::Receiver;
use fbdr_containment::EngineStats;
use fbdr_dit::{ChangeRecord, DitError, DitStore, UpdateOp};
use fbdr_ldap::{Dn, Entry, SearchRequest};
use fbdr_obs::Obs;
use fbdr_replica::{DecisionCacheStats, FilterReplica, ReplicaStats};
use fbdr_resync::reconcile::{RangeRequest, RangeResponse, ReconcileRequest, ReconcileResponse};
use fbdr_resync::{
    Cookie, MasterFootprint, NotifyBatch, NotifyFlush, NotifyPolicy, ReSyncControl,
    ShardCoordinator, ShardId, ShardedMaster, SyncDriver, SyncError, SyncMaster, SyncResponse,
    SyncTraffic, SyncTransport, SystemClock,
};
use std::collections::HashMap;
use std::hint::black_box;
use std::time::Instant;

/// One query in this many is checked against the master when the replica
/// is at a quiescent point; the same stride samples queries for the
/// containment/ldap/selection micro-measurements of the traced run.
pub const SAMPLE_STRIDE: usize = 16;

/// The master behind the measured replica: one `SyncMaster`, or several
/// behind a `ShardedMaster`.
// One value per pass, never moved after set-up: boxing the large variant
// would only add an indirection to every `apply`.
#[allow(clippy::large_enum_variant)]
pub enum Master {
    /// One master.
    Plain(SyncMaster),
    /// Country naming contexts dealt to several masters.
    Sharded(ShardedMaster),
}

impl Master {
    fn shards(&self) -> Vec<&SyncMaster> {
        match self {
            Master::Plain(m) => vec![m],
            Master::Sharded(m) => m.map().shards().map(|s| m.shard(s)).collect(),
        }
    }

    fn apply(&mut self, op: UpdateOp) -> Result<ChangeRecord, DitError> {
        match self {
            Master::Plain(m) => m.apply(op),
            Master::Sharded(m) => m.apply(op),
        }
    }

    /// The master-side search a miss is forwarded to.
    pub fn search(&self, request: &SearchRequest) -> Vec<Entry> {
        match self {
            Master::Plain(m) => m.dit().search(request),
            Master::Sharded(m) => m.search(request),
        }
    }

    fn transport(&mut self) -> &mut dyn SyncTransport {
        match self {
            Master::Plain(m) => m,
            Master::Sharded(m) => m,
        }
    }

    fn set_obs(&mut self, obs: Obs) {
        match self {
            Master::Plain(m) => m.set_obs(obs),
            Master::Sharded(m) => m.set_obs(obs),
        }
    }

    fn set_notify_policy(&mut self, policy: NotifyPolicy) {
        match self {
            Master::Plain(m) => m.set_notify_policy(policy),
            Master::Sharded(m) => m.set_notify_policy(policy),
        }
    }

    fn advance_to(&mut self, now_ms: u64) {
        match self {
            Master::Plain(m) => m.advance_to(now_ms),
            Master::Sharded(m) => m.advance_to(now_ms),
        }
    }

    fn flush_notifications(&mut self, force: bool) -> Vec<NotifyFlush> {
        match self {
            Master::Plain(m) => m.flush_notifications(force),
            Master::Sharded(m) => m
                .flush_notifications(force)
                .into_iter()
                .map(|(_, f)| f)
                .collect(),
        }
    }

    /// Shards a root-based miss fans out to.
    fn fanout(&self, request: &SearchRequest) -> usize {
        match self {
            Master::Plain(_) => 1,
            Master::Sharded(m) => m.map().split(request).len(),
        }
    }

    fn footprint(&self) -> MasterFootprint {
        let mut total = MasterFootprint::default();
        for m in self.shards() {
            total.merge(m.memory_footprint());
        }
        total
    }
}

/// A `SyncTransport` that forwards to the master and records a span around
/// each ReSync exchange: the master-side leg of a poll, seen from outside.
struct TimedTransport<'a, P: Probe> {
    inner: &'a mut dyn SyncTransport,
    probe: &'a mut P,
    op: u32,
}

impl<P: Probe> TimedTransport<'_, P> {
    fn exchange_name(ctl: &ReSyncControl) -> &'static str {
        if ctl.cookie.is_none() {
            "resync.install_exchange"
        } else {
            "resync.exchange"
        }
    }
}

impl<P: Probe> SyncTransport for TimedTransport<'_, P> {
    fn resync(
        &mut self,
        request: &SearchRequest,
        ctl: ReSyncControl,
    ) -> Result<SyncResponse, SyncError> {
        let open = self.probe.enter(self.op);
        let out = self.inner.resync(request, ctl);
        self.probe.exit(open, Self::exchange_name(&ctl));
        out
    }

    fn take_receiver(&mut self, cookie: Cookie) -> Option<Receiver<NotifyBatch>> {
        self.inner.take_receiver(cookie)
    }

    fn abandon(&mut self, cookie: Cookie) {
        self.inner.abandon(cookie);
    }

    fn reconcile(
        &mut self,
        request: &SearchRequest,
        req: ReconcileRequest,
    ) -> Result<ReconcileResponse, SyncError> {
        self.inner.reconcile(request, req)
    }

    fn reconcile_ranges(
        &mut self,
        cookie: Cookie,
        req: &RangeRequest,
    ) -> Result<RangeResponse, SyncError> {
        self.inner.reconcile_ranges(cookie, req)
    }

    fn shard_count(&self) -> usize {
        self.inner.shard_count()
    }

    fn resync_at(
        &mut self,
        shard: ShardId,
        request: &SearchRequest,
        ctl: ReSyncControl,
    ) -> Result<SyncResponse, SyncError> {
        let open = self.probe.enter(self.op);
        let out = self.inner.resync_at(shard, request, ctl);
        self.probe.exit(open, Self::exchange_name(&ctl));
        out
    }

    fn take_receiver_at(
        &mut self,
        shard: ShardId,
        cookie: Cookie,
    ) -> Option<Receiver<NotifyBatch>> {
        self.inner.take_receiver_at(shard, cookie)
    }

    fn abandon_at(&mut self, shard: ShardId, cookie: Cookie) {
        self.inner.abandon_at(shard, cookie);
    }

    fn reconcile_at(
        &mut self,
        shard: ShardId,
        request: &SearchRequest,
        req: ReconcileRequest,
    ) -> Result<ReconcileResponse, SyncError> {
        self.inner.reconcile_at(shard, request, req)
    }

    fn reconcile_ranges_at(
        &mut self,
        shard: ShardId,
        cookie: Cookie,
        req: &RangeRequest,
    ) -> Result<RangeResponse, SyncError> {
        self.inner.reconcile_ranges_at(shard, cookie, req)
    }
}

/// Counts that must be identical in every pass of a run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Counts {
    /// Replica statistics over the measured stream.
    pub replica: ReplicaStats,
    /// Misses forwarded to the master.
    pub wan_queries: u64,
    /// Entries the master returned for them.
    pub wan_entries: u64,
    /// Shards those misses fanned out to, summed.
    pub fanout: u64,
    /// ReSync traffic delivered to the measured replica during the stream.
    pub traffic: SyncTraffic,
    /// Initial-content traffic of the measured replica's installs.
    pub install_traffic: SyncTraffic,
    /// Updates applied.
    pub updates: u64,
    /// Sync cycles run (poll workloads and quiescent points).
    pub syncs: u64,
    /// Drains run.
    pub drains: u64,
    /// Replica epochs published during the stream.
    pub epochs: u64,
    /// Master wakeups (all sessions) during the stream.
    pub notify_wakeups: u64,
    /// Raw updates those wakeups carried.
    pub notify_updates: u64,
    /// Containment-engine work during the stream.
    pub engine: EngineStats,
    /// Decision-cache probes answered / missed during the stream.
    pub decision_hits: u64,
    /// See `decision_hits`.
    pub decision_misses: u64,
    /// Visible-latency samples taken.
    pub visible_samples: u64,
    /// Digest over every stored filter's content after the final quiescent
    /// point.
    pub content: SetDigest,
    /// Digest of the per-query hit/miss outcome sequence.
    pub outcome_hash: u64,
    /// Replica entries after set-up.
    pub replica_entries: u64,
    /// Live sessions at the master.
    pub sessions: u64,
    /// Sessions the master's routing index reaches through posting keys.
    pub routing_indexed: u64,
    /// `MasterFootprint::total_bytes` at the end of the stream.
    pub footprint_bytes: u64,
}

/// What one pass measured.
#[derive(Debug, Default)]
pub struct PassResult {
    /// Wall time of each set-up step: master load, each install, the
    /// background sessions, the warm-up block.
    pub setup_steps_ns: Vec<u64>,
    /// Wall time of each stream slice, output checks excluded.
    pub slice_ns: Vec<u64>,
    /// Latency of each query, call to returned entries (miss: including the
    /// master search and `cache_query`).
    pub query_ns: Vec<u64>,
    /// Whether each query was answered by the replica.
    pub query_hit: Vec<bool>,
    /// Latency of each `apply`.
    pub update_ns: Vec<u64>,
    /// `apply` start → replica epoch containing the update published.
    pub visible_ns: Vec<u64>,
    /// Counts that must repeat exactly.
    pub counts: Counts,
    /// Live heap before the master and replica were created.
    pub live_before: u64,
    /// Live heap after set-up.
    pub live_after_setup: u64,
    /// Operations attempted: queries, updates, sync cycles, output checks.
    pub attempted: u64,
    /// Operations that failed or whose output was wrong.
    pub failed: u64,
    /// The first few failures, for the report.
    pub failures: Vec<String>,
    /// Stored-filter content comparisons made.
    pub content_checks: u64,
    /// Replica answers compared with the master's.
    pub answer_checks: u64,
    /// The measured replica's `FilterReplica::filters()` (traced passes).
    pub stored_filters: Vec<SearchRequest>,
    /// Wall time spent in output checks (outside every timed region).
    pub check_ns: u64,
}

impl PassResult {
    fn fail(&mut self, what: String) {
        self.failed += 1;
        if self.failures.len() < 8 {
            self.failures.push(what);
        }
    }
}

fn load_dit(entries: &[Entry], keep: impl Fn(&Dn) -> bool) -> DitStore {
    // Parents come first, so the first entry is the suffix; every store
    // holds it, whatever else it keeps.
    let (suffix, rest) = entries.split_first().expect("the directory is not empty");
    let mut dit = DitStore::new();
    dit.add_suffix(suffix.dn().clone());
    for e in std::iter::once(suffix).chain(rest.iter().filter(|e| keep(e.dn()))) {
        dit.add(e.clone())
            .expect("fixture entries load into a fresh store");
    }
    dit
}

fn load_master(fx: &Fixture) -> Master {
    match &fx.shard_map {
        None => Master::Plain(SyncMaster::with_dit(load_dit(&fx.entries, |_| true))),
        Some(map) => {
            // Every shard holds the suffix entry as glue plus the entries
            // the map assigns to it.
            let masters = map
                .shards()
                .map(|s| SyncMaster::with_dit(load_dit(&fx.entries, |dn| map.shard_of(dn) == s)))
                .collect();
            Master::Sharded(ShardedMaster::from_masters(map.clone(), masters))
        }
    }
}

/// Master + measured replica + the replica-side sync machinery.
struct Deployment {
    master: Master,
    replica: FilterReplica,
    driver: SyncDriver<SystemClock>,
    coordinator: Option<ShardCoordinator<SystemClock>>,
    /// Receivers of the background sessions, by session id.
    background: HashMap<u32, Receiver<NotifyBatch>>,
}

impl Deployment {
    /// One sync cycle of the measured replica (`Replicator::sync` /
    /// `ShardedReplicator::sync`).
    fn sync<P: Probe>(&mut self, probe: &mut P, op: u32) -> Result<SyncTraffic, SyncError> {
        let open = probe.enter(op);
        let mut transport = TimedTransport {
            inner: self.master.transport(),
            probe,
            op,
        };
        let out = match &mut self.coordinator {
            None => self.replica.sync_with(&mut transport, &mut self.driver),
            Some(c) => self.replica.sync_with_sharded(&mut transport, c),
        };
        probe.exit(open, "replica.sync");
        out
    }

    /// Empties the receivers of the background sessions that were flushed.
    fn empty_background(&mut self, flushes: &[NotifyFlush]) {
        for f in flushes {
            if let Some(rx) = self.background.get(&f.session) {
                while let Ok(batch) = rx.try_recv() {
                    black_box(batch);
                }
            }
        }
    }

    /// `Replicator::search`: answer locally, else forward and cache.
    /// Returns the entries, whether the replica answered, and the latency.
    fn search<P: Probe>(
        &mut self,
        probe: &mut P,
        op: u32,
        query: &SearchRequest,
        counts: &mut Counts,
    ) -> (Vec<Entry>, bool, u64) {
        let whole = probe.enter(op);
        let started = Instant::now();
        let open = probe.enter(op);
        let answer = self.replica.try_answer(query);
        let hit = answer.is_some();
        probe.exit(
            open,
            if hit {
                "replica.try_answer.hit"
            } else {
                "replica.try_answer.miss"
            },
        );
        let entries = match answer {
            Some(entries) => entries,
            None => {
                let open = probe.enter(op);
                let entries = self.master.search(query);
                probe.exit(open, "dit.search");
                counts.wan_queries += 1;
                counts.wan_entries += entries.len() as u64;
                let open = probe.enter(op);
                self.replica.cache_query(query.clone(), &entries);
                probe.exit(open, "replica.cache_query");
                entries
            }
        };
        let ns = started.elapsed().as_nanos() as u64;
        probe.exit(
            whole,
            if hit {
                "core.search.hit"
            } else {
                "core.search.miss"
            },
        );
        if !hit {
            counts.fanout += self.master.fanout(query) as u64;
        }
        (entries, hit, ns)
    }
}

fn content_digest(dep: &Deployment, fx: &Fixture, out: &mut PassResult) -> SetDigest {
    let mut all = SetDigest::default();
    for f in &fx.filters {
        out.attempted += 1;
        out.content_checks += 1;
        let held = dep.replica.try_answer_scan(f).map(|e| SetDigest::of(&e));
        let want = SetDigest::of(&dep.master.search(f));
        if held != Some(want) {
            out.fail(format!(
                "stored filter {f}: replica holds {held:?}, master has {want:?}"
            ));
        }
        all.absorb(held.unwrap_or_default());
    }
    all
}

fn sub_engine(after: EngineStats, before: EngineStats) -> EngineStats {
    EngineStats {
        same_template: after.same_template - before.same_template,
        compiled: after.compiled - before.compiled,
        skipped_never: after.skipped_never - before.skipped_never,
        general: after.general - before.general,
    }
}

fn sub_decisions(after: DecisionCacheStats, before: DecisionCacheStats) -> (u64, u64) {
    (after.hits - before.hits, after.misses - before.misses)
}

/// Runs one pass. `obs` is attached to master and replica (`Obs::off()` for
/// every pass but those measuring `obs.on_overhead_ratio`).
pub fn run_pass<P: Probe>(fx: &Fixture, probe: &mut P, obs: Obs) -> PassResult {
    let mut out = PassResult::default();
    // Sample buffers are sized before the heap baseline is read so they
    // count as harness, not as the system's resident memory.
    out.setup_steps_ns.reserve(fx.filters.len() + 3);
    out.slice_ns.reserve(SLICES);
    out.query_ns.reserve(fx.queries.len());
    out.query_hit.reserve(fx.queries.len());
    out.update_ns.reserve(fx.updates.len());
    out.visible_ns.reserve(fx.updates.len());
    let mut op_started: Vec<Option<Instant>> = vec![None; fx.schedule.len()];
    // Traced passes keep a twin of the (unsharded) master that never holds
    // a session after set-up, for what the DIT layer alone costs.
    let mut twin = P::ON.then(|| SyncMaster::with_dit(load_dit(&fx.entries, |_| true)));

    // ---- set-up ------------------------------------------------------
    out.live_before = alloc::mark().live;
    const SETUP_OP: u32 = u32::MAX;

    let started = Instant::now();
    let open = probe.enter(SETUP_OP);
    let mut master = load_master(fx);
    probe.exit(open, "dit.load");
    out.setup_steps_ns.push(started.elapsed().as_nanos() as u64);

    master.set_obs(obs.clone());
    if let Delivery::PersistCoalesced {
        max_batch,
        max_delay_ms,
    } = fx.delivery
    {
        master.set_notify_policy(NotifyPolicy::coalescing(max_batch, max_delay_ms));
    }
    let coordinator = match &master {
        Master::Plain(_) => None,
        Master::Sharded(m) => Some(ShardCoordinator::new(m.map().clone())),
    };
    let mut dep = Deployment {
        master,
        replica: FilterReplica::with_obs(CACHE_WINDOW, obs),
        driver: SyncDriver::default(),
        coordinator,
        background: HashMap::new(),
    };
    let persist = !matches!(fx.delivery, Delivery::Poll { .. });

    for f in &fx.filters {
        if let Some(twin) = &mut twin {
            if dep.coordinator.is_none() {
                // Master-side share of the install, on the twin so the
                // measured master keeps the session set of untraced passes.
                let open = probe.enter(SETUP_OP);
                let resp = twin.resync(f, ReSyncControl::poll(None));
                probe.exit(open, "resync.install_exchange");
                if let Ok(SyncResponse {
                    cookie: Some(c), ..
                }) = resp
                {
                    twin.abandon(c);
                }
            }
        }
        let started = Instant::now();
        let open = probe.enter(SETUP_OP);
        let installed = match (&mut dep.master, &mut dep.coordinator) {
            (Master::Plain(m), _) if persist => dep.replica.install_filter_persistent(m, f.clone()),
            (Master::Plain(m), _) => dep.replica.install_filter(m, f.clone()),
            (Master::Sharded(m), Some(c)) => {
                let mut transport = TimedTransport {
                    inner: m,
                    probe,
                    op: SETUP_OP,
                };
                dep.replica
                    .install_filter_sharded(&mut transport, c, f.clone())
            }
            (Master::Sharded(_), None) => unreachable!("sharded masters get a coordinator"),
        };
        probe.exit(open, "replica.install");
        out.setup_steps_ns.push(started.elapsed().as_nanos() as u64);
        out.attempted += 1;
        match installed {
            Ok(t) => out.counts.install_traffic.absorb(&t),
            Err(e) => out.fail(format!("install {f}: {e}")),
        }
    }

    let started = Instant::now();
    for f in &fx.background {
        let Master::Plain(m) = &mut dep.master else {
            unreachable!("background sessions are held at a plain master")
        };
        out.attempted += 1;
        match m.resync_persist(f, None) {
            Ok((resp, rx)) => {
                black_box(resp.actions.len());
                let session = resp
                    .cookie
                    .expect("persist responses carry a cookie")
                    .session();
                dep.background.insert(session, rx);
            }
            Err(e) => out.fail(format!("background session {f}: {e}")),
        }
    }
    out.setup_steps_ns.push(started.elapsed().as_nanos() as u64);

    let started = Instant::now();
    let mut warm_counts = Counts::default();
    for q in &fx.warmup {
        black_box(dep.search(&mut NoProbe, SETUP_OP, q, &mut warm_counts));
    }
    out.setup_steps_ns.push(started.elapsed().as_nanos() as u64);

    out.live_after_setup = alloc::mark().live;
    out.counts.replica_entries = dep.replica.entry_count() as u64;

    // ---- measured stream ---------------------------------------------
    dep.replica.reset_stats();
    let engine_before = dep.replica.engine_stats();
    let decisions_before = dep.replica.decision_cache_stats();
    let epoch_before = dep.replica.epoch();
    let wakeups_before: u64 = dep.master.shards().iter().map(|m| m.notify_wakeups()).sum();
    let notified_before: u64 = dep.master.shards().iter().map(|m| m.notify_updates()).sum();

    let mut outcome_hash = 0xcbf2_9ce4_8422_2325u64;
    // True while the replica is known to hold every applied update.
    let mut quiescent = true;
    // Updates applied since the last sync cycle (poll delivery).
    let mut unsynced: Vec<Instant> = Vec::new();
    let mut queries_since_sync = 0usize;
    let mut excluded_ns = 0u64;
    let total_ops = fx.schedule.len();
    let mut slice = 0usize;
    let mut slice_started = Instant::now();

    for (k, op) in fx.schedule.iter().enumerate() {
        let op_id = k as u32;
        match *op {
            Op::Query(qi) => {
                let query = &fx.queries[qi as usize];
                let sampled = quiescent && (qi as usize).is_multiple_of(SAMPLE_STRIDE);
                let generalized_before = if sampled {
                    dep.replica.stats().generalized_hits
                } else {
                    0
                };
                let (entries, hit, ns) = dep.search(probe, op_id, query, &mut out.counts);
                out.query_ns.push(ns);
                out.query_hit.push(hit);
                outcome_hash = (outcome_hash ^ u64::from(hit)).wrapping_mul(0x0000_0100_0000_01b3);
                out.attempted += 1;
                // Cached user queries are frozen at cache time by design
                // (§7.4), so only answers from synchronized filters are held
                // to the master's.
                if sampled && dep.replica.stats().generalized_hits > generalized_before {
                    let check_started = Instant::now();
                    out.attempted += 1;
                    out.answer_checks += 1;
                    let got = SetDigest::of(&entries);
                    let want = SetDigest::of(&dep.master.search(query));
                    if got != want {
                        out.fail(format!("query {query}: replica {got:?}, master {want:?}"));
                    }
                    let spent = check_started.elapsed().as_nanos() as u64;
                    excluded_ns += spent;
                    out.check_ns += spent;
                }
                black_box(entries);

                if let Delivery::Poll { every_queries } = fx.delivery {
                    queries_since_sync += 1;
                    if queries_since_sync == every_queries {
                        queries_since_sync = 0;
                        sync_cycle(&mut dep, probe, op_id, &mut unsynced, &mut out);
                        quiescent = true;
                    }
                }
            }
            Op::Update(ui) => {
                let update = fx.updates[ui as usize].clone();
                let twin_update = twin.as_ref().map(|_| update.clone());
                if let Delivery::PersistCoalesced { .. } = fx.delivery {
                    dep.master.advance_to(k as u64);
                }
                let whole = probe.enter(op_id);
                let started = Instant::now();
                op_started[k] = Some(started);
                let open = probe.enter(op_id);
                let applied = dep.master.apply(update);
                probe.exit(open, "resync.apply");
                out.update_ns.push(started.elapsed().as_nanos() as u64);
                out.attempted += 1;
                out.counts.updates += 1;
                if let Err(e) = applied {
                    out.fail(format!("apply {}: {e}", fx.updates[ui as usize]));
                }
                match fx.delivery {
                    Delivery::PersistImmediate => {
                        let open = probe.enter(op_id);
                        let traffic = dep.replica.drain_notifications();
                        probe.exit(open, "replica.drain");
                        out.counts.drains += 1;
                        out.counts.traffic.absorb(&traffic);
                        if traffic.pdus() > 0 {
                            out.visible_ns.push(started.elapsed().as_nanos() as u64);
                        }
                    }
                    Delivery::PersistCoalesced { .. } => {
                        quiescent = false;
                        deliver_coalesced(&mut dep, probe, op_id, false, &op_started, &mut out);
                    }
                    Delivery::Poll { .. } => {
                        quiescent = false;
                        unsynced.push(started);
                    }
                }
                probe.exit(whole, "core.update");

                if let (Some(twin), Some(update)) = (&mut twin, twin_update) {
                    // The same operation on a store with no sessions: what
                    // the DIT layer alone costs. Not part of the stream.
                    let twin_started = Instant::now();
                    let open = probe.enter(op_id);
                    let applied = twin.dit_mut().apply(update);
                    probe.exit(open, "dit.apply_twin");
                    black_box(applied.is_ok());
                    excluded_ns += twin_started.elapsed().as_nanos() as u64;
                }
            }
        }

        // Slice boundary after operation k?
        if (k + 1) * SLICES / total_ops > slice || k + 1 == total_ops {
            let checkpoint =
                (slice + 1).is_multiple_of(SLICES_PER_CHECKPOINT) || k + 1 == total_ops;
            if checkpoint {
                // Bring the replica to a quiescent point (timed: it is
                // delivery work), then check its content (not timed).
                match fx.delivery {
                    Delivery::PersistImmediate => {}
                    Delivery::PersistCoalesced { .. } => {
                        deliver_coalesced(&mut dep, probe, op_id, true, &op_started, &mut out)
                    }
                    Delivery::Poll { .. } => {
                        queries_since_sync = 0;
                        sync_cycle(&mut dep, probe, op_id, &mut unsynced, &mut out);
                    }
                }
                quiescent = true;
            }
            let wall = slice_started.elapsed().as_nanos() as u64;
            out.slice_ns.push(wall.saturating_sub(excluded_ns));
            if checkpoint {
                let check_started = Instant::now();
                let content = content_digest(&dep, fx, &mut out);
                out.counts.content = content;
                out.check_ns += check_started.elapsed().as_nanos() as u64;
            }
            slice += 1;
            excluded_ns = 0;
            slice_started = Instant::now();
        }
    }

    // ---- counts ------------------------------------------------------
    out.counts.replica = dep.replica.stats();
    out.counts.engine = sub_engine(dep.replica.engine_stats(), engine_before);
    (out.counts.decision_hits, out.counts.decision_misses) =
        sub_decisions(dep.replica.decision_cache_stats(), decisions_before);
    out.counts.epochs = dep.replica.epoch() - epoch_before;
    let shards = dep.master.shards();
    out.counts.notify_wakeups =
        shards.iter().map(|m| m.notify_wakeups()).sum::<u64>() - wakeups_before;
    out.counts.notify_updates =
        shards.iter().map(|m| m.notify_updates()).sum::<u64>() - notified_before;
    out.counts.sessions = shards.iter().map(|m| m.session_count() as u64).sum();
    out.counts.routing_indexed = shards
        .iter()
        .map(|m| m.routing_stats().indexed as u64)
        .sum();
    out.counts.footprint_bytes = dep.master.footprint().total_bytes() as u64;
    out.counts.visible_samples = out.visible_ns.len() as u64;
    out.counts.outcome_hash = outcome_hash;
    if P::ON {
        out.stored_filters = dep.replica.filters().map(|(request, _)| request).collect();
    }
    out
}

/// One sync cycle of a poll workload; every update applied since the last
/// one becomes visible when it returns.
fn sync_cycle<P: Probe>(
    dep: &mut Deployment,
    probe: &mut P,
    op: u32,
    unsynced: &mut Vec<Instant>,
    out: &mut PassResult,
) {
    out.attempted += 1;
    out.counts.syncs += 1;
    match dep.sync(probe, op) {
        Ok(t) => out.counts.traffic.absorb(&t),
        Err(e) => out.fail(format!("sync: {e}")),
    }
    for applied_at in unsynced.drain(..) {
        out.visible_ns.push(applied_at.elapsed().as_nanos() as u64);
    }
}

/// Flush (when due, or everything with `force`) → empty the background
/// receivers → drain the measured replica if one of its sessions was sent a
/// batch (a replica is woken by its channel; it does not spin on it). Each
/// batch flushed to a measured session yields one visible-latency sample,
/// taken for its oldest update: the master clock is the stream position, so
/// `first_enqueued_ms` names the operation that applied it.
fn deliver_coalesced<P: Probe>(
    dep: &mut Deployment,
    probe: &mut P,
    op: u32,
    force: bool,
    op_started: &[Option<Instant>],
    out: &mut PassResult,
) {
    let open = probe.enter(op);
    let flushes = dep.master.flush_notifications(force);
    probe.exit(open, "resync.flush");
    dep.empty_background(&flushes);
    let woken: Vec<&NotifyFlush> = flushes
        .iter()
        .filter(|f| !dep.background.contains_key(&f.session))
        .collect();
    if woken.is_empty() {
        return;
    }
    let open = probe.enter(op);
    let traffic = dep.replica.drain_notifications();
    probe.exit(open, "replica.drain");
    out.counts.drains += 1;
    out.counts.traffic.absorb(&traffic);
    for f in woken {
        match op_started
            .get(f.first_enqueued_ms as usize)
            .copied()
            .flatten()
        {
            Some(applied_at) => out.visible_ns.push(applied_at.elapsed().as_nanos() as u64),
            None => out.fail(format!(
                "flush for session {} names operation {}, which is not an update",
                f.session, f.first_enqueued_ms
            )),
        }
    }
}
