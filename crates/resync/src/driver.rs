//! The replica-side sync driver: bounded retries with exponential backoff
//! and deterministic jitter over any [`SyncTransport`].
//!
//! The master's answer to a retried cookie (see `SyncMaster`) makes
//! retrying safe;
//! this module makes it *automatic*. A [`SyncDriver`] wraps one logical
//! resync exchange in a retry loop governed by a [`RetryConfig`]: a
//! transient [`SyncError::Unavailable`] is retried after a backoff sleep,
//! anything else is surfaced immediately. Time comes from a [`Clock`], so
//! tests (and the fault-injection harness) can run on simulated time.

use crate::protocol::{
    Cookie, NotifyBatch, ReSyncControl, SyncAction, SyncError, SyncResponse, SyncTraffic,
};
use crate::reconcile::{
    self, RangeRequest, RangeResponse, ReconcileOutcome, ReconcileRequest, ReconcileResponse,
};
use crate::shard::{CompositeCookie, ShardOutcome, ShardStatus};
use crate::SyncMaster;
use crossbeam::channel::Receiver;
use fbdr_ldap::{Entry, SearchRequest};
use fbdr_net::ShardId;
use fbdr_obs::{event, Obs, Timer};
use serde::{Deserialize, Serialize};

/// A source of (possibly simulated) milliseconds and sleeps.
pub trait Clock {
    /// Current time in milliseconds since an arbitrary epoch.
    fn now_ms(&self) -> u64;
    /// Blocks (or advances simulated time) for `ms` milliseconds.
    fn sleep_ms(&self, ms: u64);
}

/// Wall-clock time via `std::time` — the deployment clock.
#[derive(Debug, Clone, Default)]
pub struct SystemClock {
    epoch: std::sync::Arc<std::sync::OnceLock<std::time::Instant>>,
}

impl Clock for SystemClock {
    fn now_ms(&self) -> u64 {
        let epoch = *self.epoch.get_or_init(std::time::Instant::now);
        epoch.elapsed().as_millis() as u64
    }

    fn sleep_ms(&self, ms: u64) {
        std::thread::sleep(std::time::Duration::from_millis(ms));
    }
}

/// Anything that can carry the ReSync protocol between a replica and its
/// master: the master itself (in-process), a sharded master, or a wrapper
/// injecting failures/latency in between.
///
/// Every leg is addressed to one shard. A transport with one master
/// behind it serves every shard id as that master; a sharded one (see
/// `crate::shard`) fails [`SyncError::UnknownShard`] for an id past its
/// shard count.
pub trait SyncTransport {
    /// Number of shards behind this transport (1 unless sharded).
    fn shard_count(&self) -> usize {
        1
    }

    /// Performs one ReSync exchange with `shard`.
    ///
    /// # Errors
    ///
    /// [`SyncError`] as for `SyncMaster::resync`, plus
    /// [`SyncError::Unavailable`] for transport-level failures and
    /// [`SyncError::UnknownShard`] for a shard the transport does not have.
    fn resync_at(
        &mut self,
        shard: ShardId,
        request: &SearchRequest,
        ctl: ReSyncControl,
    ) -> Result<SyncResponse, SyncError>;

    /// Takes the parked persist-mode notification receiver for a session
    /// on `shard`.
    fn take_receiver_at(&mut self, shard: ShardId, cookie: Cookie) -> Option<Receiver<NotifyBatch>>;

    /// Abandons a session on `shard`.
    fn abandon_at(&mut self, shard: ShardId, cookie: Cookie);

    /// Digest round of a reconciliation exchange with `shard` (see
    /// [`crate::reconcile`]). The default implementation reports the
    /// transport as incapable, which routes the recovery ladder straight
    /// to reinstall — correct for transports predating reconciliation.
    ///
    /// # Errors
    ///
    /// [`SyncError::ReconcileFailed`] by default.
    fn reconcile_at(
        &mut self,
        _shard: ShardId,
        _request: &SearchRequest,
        _req: ReconcileRequest,
    ) -> Result<ReconcileResponse, SyncError> {
        Err(SyncError::ReconcileFailed("transport does not support reconciliation".into()))
    }

    /// Range round of a reconciliation exchange with `shard`.
    ///
    /// # Errors
    ///
    /// [`SyncError::ReconcileFailed`] by default.
    fn reconcile_ranges_at(
        &mut self,
        _shard: ShardId,
        _cookie: Cookie,
        _req: &RangeRequest,
    ) -> Result<RangeResponse, SyncError> {
        Err(SyncError::ReconcileFailed("transport does not support reconciliation".into()))
    }

    // The unaddressed legs below are shard zero's. They exist only
    // because the frozen benchmark harness still overrides them, and go
    // with its edit (ROADMAP item 1a). The library calls only the `_at`
    // legs.

    #[doc(hidden)]
    fn resync(
        &mut self,
        request: &SearchRequest,
        ctl: ReSyncControl,
    ) -> Result<SyncResponse, SyncError> {
        self.resync_at(ShardId::ZERO, request, ctl)
    }

    #[doc(hidden)]
    fn take_receiver(&mut self, cookie: Cookie) -> Option<Receiver<NotifyBatch>> {
        self.take_receiver_at(ShardId::ZERO, cookie)
    }

    #[doc(hidden)]
    fn abandon(&mut self, cookie: Cookie) {
        self.abandon_at(ShardId::ZERO, cookie);
    }

    #[doc(hidden)]
    fn reconcile(
        &mut self,
        request: &SearchRequest,
        req: ReconcileRequest,
    ) -> Result<ReconcileResponse, SyncError> {
        self.reconcile_at(ShardId::ZERO, request, req)
    }

    #[doc(hidden)]
    fn reconcile_ranges(
        &mut self,
        cookie: Cookie,
        req: &RangeRequest,
    ) -> Result<RangeResponse, SyncError> {
        self.reconcile_ranges_at(ShardId::ZERO, cookie, req)
    }
}

/// One master serves every shard id as its only shard.
impl SyncTransport for SyncMaster {
    fn resync_at(
        &mut self,
        _shard: ShardId,
        request: &SearchRequest,
        ctl: ReSyncControl,
    ) -> Result<SyncResponse, SyncError> {
        SyncMaster::resync(self, request, ctl)
    }

    fn take_receiver_at(&mut self, _shard: ShardId, cookie: Cookie) -> Option<Receiver<NotifyBatch>> {
        SyncMaster::take_receiver(self, cookie)
    }

    fn abandon_at(&mut self, _shard: ShardId, cookie: Cookie) {
        SyncMaster::abandon(self, cookie)
    }

    fn reconcile_at(
        &mut self,
        _shard: ShardId,
        request: &SearchRequest,
        req: ReconcileRequest,
    ) -> Result<ReconcileResponse, SyncError> {
        SyncMaster::reconcile(self, request, req)
    }

    fn reconcile_ranges_at(
        &mut self,
        _shard: ShardId,
        cookie: Cookie,
        req: &RangeRequest,
    ) -> Result<RangeResponse, SyncError> {
        SyncMaster::reconcile_ranges(self, cookie, req)
    }
}

/// Retry policy for one resync exchange.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct RetryConfig {
    /// Retries after the first attempt (so `max_retries + 1` attempts
    /// total per exchange).
    pub max_retries: u32,
    /// First backoff sleep; doubles per retry.
    pub base_backoff_ms: u64,
    /// Backoff ceiling.
    pub max_backoff_ms: u64,
    /// Total time budget per exchange, sleeps included. When the next
    /// backoff would exceed it the driver gives up (the caller then
    /// serves stale content until the next cycle).
    pub timeout_budget_ms: u64,
    /// Seed for the deterministic jitter added to each backoff.
    pub jitter_seed: u64,
}

impl Default for RetryConfig {
    fn default() -> Self {
        RetryConfig {
            max_retries: 4,
            base_backoff_ms: 50,
            max_backoff_ms: 2_000,
            timeout_budget_ms: 10_000,
            jitter_seed: 0,
        }
    }
}

/// Counters describing what the driver had to do to keep a replica in
/// sync — the robustness cost, analogous to [`crate::SyncTraffic`] for
/// the bandwidth cost.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct DriverStats {
    /// Resync attempts made (first tries and retries).
    pub attempts: u64,
    /// Retries after a transient failure.
    pub retries: u64,
    /// Exchanges that succeeded only after at least one retry — each one
    /// is a lost response the master answered again or a request that
    /// finally got through.
    pub recovered: u64,
    /// Exchanges abandoned after exhausting the retry/timeout budget.
    pub exhausted: u64,
    /// Sessions recovered through a reconciliation exchange (cost
    /// proportional to divergence, not content size).
    pub reconciliations: u64,
    /// Full content reinstalls after an unrecoverable session error that
    /// reconciliation could not (or was not allowed to) repair.
    pub reinstalls: u64,
}

impl DriverStats {
    /// Merges another driver's counters into this one.
    pub fn absorb(&mut self, other: &DriverStats) {
        self.attempts += other.attempts;
        self.retries += other.retries;
        self.recovered += other.recovered;
        self.exhausted += other.exhausted;
        self.reconciliations += other.reconciliations;
        self.reinstalls += other.reinstalls;
    }
}

/// The outcome of a slice the master answered with `resp`, and the
/// session to resume from.
fn answered(
    shard: ShardId,
    status: ShardStatus,
    resp: SyncResponse,
) -> (ShardOutcome, Option<Cookie>) {
    let traffic = resp.traffic();
    (ShardOutcome { shard, status, traffic, actions: resp.actions }, resp.cookie)
}

/// Retrying wrapper around a [`SyncTransport`].
///
/// ```
/// use fbdr_ldap::{Entry, Filter, SearchRequest};
/// use fbdr_resync::{ReSyncControl, ShardId, SyncDriver, SyncMaster};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let mut master = SyncMaster::new();
/// master.dit_mut().add_suffix("o=xyz".parse()?);
/// master.dit_mut().add(Entry::new("o=xyz".parse()?))?;
/// master.dit_mut().add(Entry::new("cn=a,o=xyz".parse()?).with("dept", "7"))?;
///
/// // The master itself is a (perfectly reliable) transport; a driver
/// // retries whatever transport it is given.
/// let mut driver = SyncDriver::default();
/// let request = SearchRequest::from_root(Filter::parse("(dept=7)")?);
/// let resp = driver.resync(&mut master, ShardId::ZERO, &request, ReSyncControl::poll(None))?;
/// assert_eq!(resp.actions.len(), 1);
/// assert_eq!(driver.stats().attempts, 1);
/// assert_eq!(driver.stats().retries, 0);
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct SyncDriver<C: Clock = SystemClock> {
    clock: C,
    config: RetryConfig,
    jitter_state: u64,
    stats: DriverStats,
    obs: Obs,
    /// `resync.exchange`: times [`SyncDriver::resync`].
    exchange: Timer,
    /// `resync.reconcile_exchange`: times [`SyncDriver::reconcile`].
    reconcile_exchange: Timer,
}

impl SyncDriver<SystemClock> {
    /// A driver on wall-clock time.
    pub fn new(config: RetryConfig) -> Self {
        SyncDriver::with_clock(config, SystemClock::default())
    }
}

impl Default for SyncDriver<SystemClock> {
    fn default() -> Self {
        SyncDriver::new(RetryConfig::default())
    }
}

impl<C: Clock> SyncDriver<C> {
    /// A driver on an explicit clock (e.g. simulated time in tests).
    pub fn with_clock(config: RetryConfig, clock: C) -> Self {
        let jitter_state = config.jitter_seed ^ 0x9E37_79B9_7F4A_7C15;
        SyncDriver {
            clock,
            config,
            jitter_state,
            stats: DriverStats::default(),
            obs: Obs::off(),
            exchange: Timer::default(),
            reconcile_exchange: Timer::default(),
        }
    }

    /// Attaches observability: every exchange is timed into the
    /// `fbdr_resync_exchange_ns` histogram and every reconciliation into
    /// `fbdr_resync_reconcile_exchange_ns` (spans `resync.exchange` and
    /// `resync.reconcile_exchange`), degradation-ladder
    /// transitions (retry → reinstall → serve-stale) are mirrored into
    /// `fbdr_resync_*_total` registry counters, and `driver.*` trace
    /// events are emitted when a subscriber is installed.
    ///
    /// [`SyncDriver::stats`] stays per-driver; the registry counters
    /// aggregate across every driver sharing the same [`Obs`].
    pub fn with_obs(mut self, obs: Obs) -> Self {
        self.exchange = obs.timer("resync", "exchange");
        self.reconcile_exchange = obs.timer("resync", "reconcile_exchange");
        self.obs = obs;
        self
    }

    /// The retry policy in force.
    pub fn config(&self) -> &RetryConfig {
        &self.config
    }

    /// Accumulated robustness counters.
    pub fn stats(&self) -> DriverStats {
        self.stats
    }

    /// Counts a full reinstall (rung 3 of [`SyncDriver::sync_slice`]).
    fn note_reinstall(&mut self) {
        self.stats.reinstalls += 1;
        if self.obs.is_active() {
            self.obs.registry().counter("fbdr_resync_reinstalls_total").inc();
        }
        event!(self.obs, "driver", "reinstall");
    }

    /// Performs one resync exchange with `shard` of the transport
    /// ([`ShardId::ZERO`] on an unsharded one), retrying transient
    /// failures with exponential backoff and deterministic jitter until
    /// the retry count or time budget runs out. The exchange goes through
    /// [`SyncTransport::resync_at`], so a sharded transport cannot
    /// re-route it by base.
    ///
    /// # Errors
    ///
    /// [`SyncError::RetriesExhausted`] wrapping the final transient error
    /// when the budget runs out (classification delegates to the wrapped
    /// error, so `is_transient()` still holds); any non-transient
    /// [`SyncError`] immediately and unwrapped.
    pub fn resync(
        &mut self,
        transport: &mut dyn SyncTransport,
        shard: ShardId,
        request: &SearchRequest,
        ctl: ReSyncControl,
    ) -> Result<SyncResponse, SyncError> {
        let timer = self.exchange.clone();
        let _span = timer.start();
        self.retry_loop(&mut |_attempt| transport.resync_at(shard, request, ctl))
    }

    /// Runs a full reconciliation exchange (see [`crate::reconcile`])
    /// with `shard` of the transport under the driver's retry policy,
    /// with per-attempt digest re-salting so a retried exchange draws
    /// fresh Bloom false positives. On success the reconciliation
    /// counters and the `fbdr_resync_reconcile_exchange_ns` histogram are
    /// recorded.
    ///
    /// # Errors
    ///
    /// As [`SyncDriver::resync`]: [`SyncError::RetriesExhausted`] when the
    /// retry/time budget runs out on transient failures, any other
    /// [`SyncError`] immediately — including
    /// [`SyncError::ReconcileFailed`] when the transport or master cannot
    /// reconcile (the ladder falls back to reinstall).
    pub fn reconcile(
        &mut self,
        transport: &mut dyn SyncTransport,
        shard: ShardId,
        request: &SearchRequest,
        held: &dyn Fn() -> Vec<Entry>,
    ) -> Result<ReconcileOutcome, SyncError> {
        let timer = self.reconcile_exchange.clone();
        let _span = timer.start();
        let out = self.retry_loop(&mut |attempt| {
            reconcile::reconcile(transport, shard, request, held, attempt)
        });
        if let Ok(outcome) = &out {
            self.stats.reconciliations += 1;
            let bytes = outcome.cost.stats.bytes_total();
            if self.obs.is_active() {
                let reg = self.obs.registry();
                reg.counter("fbdr_resync_reconciliations_total").inc();
                reg.counter("fbdr_resync_reconcile_rounds_total")
                    .add(outcome.cost.stats.round_trips);
                reg.counter("fbdr_resync_reconcile_bytes_total").add(bytes);
            }
            event!(
                self.obs,
                "driver",
                "reconcile",
                rounds = outcome.cost.stats.round_trips,
                bytes = bytes,
                upserts = outcome.cost.shipped_entries,
                deletes = outcome.cost.deletes,
                fallback_probes = outcome.cost.fallback_probes,
            );
        }
        out
    }

    /// The recovery ladder — the one place a session is polled and, when
    /// the master has forgotten it, recovered — over one slice of one
    /// filter: the sub-request `sub` against `shard`, resuming from
    /// `cookie`'s part for that shard.
    ///
    /// 1. **Retry**: an incremental poll under the retry policy.
    /// 2. **Reconcile**: a dead session
    ///    ([`SyncError::needs_reinstall`]) is re-established by a digest
    ///    exchange over the held slice.
    /// 3. **Reinstall**: when reconciliation fails non-transiently (the
    ///    transport cannot reconcile, or the master refused the
    ///    exchange), the slice is reloaded: deletes of everything held for
    ///    the shard, then the fresh content.
    /// 4. **Serve stale**: a transient failure on any rung that outlasts
    ///    the retry budget ends the walk with [`ShardStatus::Stale`]; the
    ///    held content keeps being served and the next cycle resumes.
    ///
    /// `held` yields the entries the replica holds for the slice; only the
    /// reconcile and reinstall rungs read it, so a poll that comes back
    /// fresh touches no held entry. `cookie` is updated in place when the
    /// slice comes back fresh and left untouched otherwise (a stale slice
    /// resumes from its old part; a hard error leaves the session as it
    /// was at the master). Never fails: hard errors come back as
    /// [`ShardStatus::Failed`].
    pub fn sync_slice(
        &mut self,
        transport: &mut dyn SyncTransport,
        shard: ShardId,
        sub: &SearchRequest,
        cookie: &mut CompositeCookie,
        held: &dyn Fn() -> Vec<Entry>,
    ) -> ShardOutcome {
        let prior = cookie.get(shard);
        let walked = match self.resync(transport, shard, sub, ReSyncControl::poll(prior)) {
            Ok(resp) => Ok(answered(shard, ShardStatus::Updated, resp)),
            Err(e) if e.is_transient() => Err(ShardStatus::Stale),
            Err(e) if e.needs_reinstall() => {
                self.recover(transport, shard, sub, prior, &e, held)
            }
            Err(e) => Err(ShardStatus::Failed(e)),
        };
        match walked {
            Ok((out, next)) => {
                match next {
                    Some(c) => cookie.insert(shard, c),
                    None => {
                        cookie.remove(shard);
                    }
                }
                out
            }
            Err(status) => ShardOutcome {
                shard,
                actions: Vec::new(),
                status,
                traffic: SyncTraffic::default(),
            },
        }
    }

    /// Rungs 2 and 3 of [`SyncDriver::sync_slice`]: the session behind
    /// `prior` is dead (`lost` says how); re-establish it. Returns the
    /// slice's outcome and the session to resume from, or the status of a
    /// slice that did not come back fresh.
    fn recover(
        &mut self,
        transport: &mut dyn SyncTransport,
        shard: ShardId,
        sub: &SearchRequest,
        prior: Option<Cookie>,
        lost: &SyncError,
        held: &dyn Fn() -> Vec<Entry>,
    ) -> Result<(ShardOutcome, Option<Cookie>), ShardStatus> {
        if let (SyncError::ReplayExpired(_), Some(c)) = (lost, prior) {
            // The session still exists at the master; release it before
            // re-establishing.
            transport.abandon_at(shard, c);
        }
        event!(self.obs, "driver", "session_lost", shard = shard.index());
        match self.reconcile(transport, shard, sub, held) {
            Ok(outcome) => {
                let out = ShardOutcome {
                    shard,
                    status: ShardStatus::Reconciled,
                    traffic: outcome.traffic(),
                    actions: outcome.actions,
                };
                return Ok((out, Some(outcome.cookie)));
            }
            Err(e) if e.is_transient() => return Err(ShardStatus::Stale),
            Err(e) => {
                if self.obs.is_active() {
                    self.obs.registry().counter("fbdr_resync_reconcile_fallbacks_total").inc();
                }
                event!(self.obs, "driver", "reconcile_fallback", reason = e.to_string());
            }
        }
        self.note_reinstall();
        match self.resync(transport, shard, sub, ReSyncControl::poll(None)) {
            Ok(resp) => {
                let (mut out, next) = answered(shard, ShardStatus::Reinstalled, resp);
                let deletes = held().into_iter().map(|e| SyncAction::Delete(e.dn().clone()));
                out.actions.splice(0..0, deletes);
                Ok((out, next))
            }
            Err(e) if e.is_transient() => Err(ShardStatus::Stale),
            Err(e) => Err(ShardStatus::Failed(e)),
        }
    }

    /// The shared retry loop: runs `op` (receiving the 0-based attempt
    /// number), retrying transient failures with exponential backoff and
    /// deterministic jitter until the retry count or time budget runs
    /// out. Non-transient errors surface immediately.
    fn retry_loop<T>(
        &mut self,
        op: &mut dyn FnMut(u32) -> Result<T, SyncError>,
    ) -> Result<T, SyncError> {
        let start = self.clock.now_ms();
        let mut attempt: u32 = 0;
        loop {
            self.stats.attempts += 1;
            match op(attempt) {
                Ok(resp) => {
                    if attempt > 0 {
                        self.stats.recovered += 1;
                        if self.obs.is_active() {
                            self.obs.registry().counter("fbdr_resync_recovered_total").inc();
                        }
                        event!(self.obs, "driver", "recovered", attempts = attempt + 1);
                    }
                    break Ok(resp);
                }
                Err(e) if e.is_transient() => {
                    let sleep = self.backoff_ms(attempt);
                    let elapsed = self.clock.now_ms().saturating_sub(start);
                    if attempt >= self.config.max_retries
                        || elapsed + sleep > self.config.timeout_budget_ms
                    {
                        self.stats.exhausted += 1;
                        if self.obs.is_active() {
                            self.obs.registry().counter("fbdr_resync_exhausted_total").inc();
                        }
                        event!(self.obs, "driver", "exhausted", attempts = attempt + 1);
                        break Err(SyncError::RetriesExhausted {
                            attempts: u64::from(attempt) + 1,
                            last: Box::new(e),
                        });
                    }
                    attempt += 1;
                    self.stats.retries += 1;
                    if self.obs.is_active() {
                        self.obs.registry().counter("fbdr_resync_retries_total").inc();
                    }
                    event!(self.obs, "driver", "retry", attempt = attempt, backoff_ms = sleep);
                    self.clock.sleep_ms(sleep);
                }
                Err(e) => break Err(e),
            }
        }
    }

    /// The backoff before retry number `attempt + 1`: an exponentially
    /// growing base capped at the maximum, plus up to 50% jitter drawn
    /// from the seeded generator (so concurrent replicas desynchronize
    /// their retries, yet every run is reproducible).
    fn backoff_ms(&mut self, attempt: u32) -> u64 {
        let base = self
            .config
            .base_backoff_ms
            .saturating_mul(1u64 << attempt.min(20))
            .min(self.config.max_backoff_ms);
        let jitter_range = base / 2 + 1;
        base + self.next_jitter() % jitter_range
    }

    /// SplitMix64 step over the jitter state.
    fn next_jitter(&mut self) -> u64 {
        self.jitter_state = self.jitter_state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.jitter_state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::Cell;
    use std::rc::Rc;
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::Arc;

    /// Simulated clock: sleeping advances time instantly.
    #[derive(Debug, Clone, Default)]
    struct TestClock {
        now: Arc<AtomicU64>,
    }

    impl Clock for TestClock {
        fn now_ms(&self) -> u64 {
            self.now.load(Ordering::SeqCst)
        }

        fn sleep_ms(&self, ms: u64) {
            self.now.fetch_add(ms, Ordering::SeqCst);
        }
    }

    /// A transport that fails a scripted number of times, then succeeds.
    struct Flaky {
        failures_left: u32,
        calls: Rc<Cell<u32>>,
    }

    impl SyncTransport for Flaky {
        fn resync_at(
            &mut self,
            _shard: ShardId,
            _request: &SearchRequest,
            _ctl: ReSyncControl,
        ) -> Result<SyncResponse, SyncError> {
            self.calls.set(self.calls.get() + 1);
            if self.failures_left > 0 {
                self.failures_left -= 1;
                return Err(SyncError::Unavailable("scripted".into()));
            }
            Ok(SyncResponse { actions: Vec::new(), cookie: Some(Cookie::new(1, 1)) })
        }

        fn take_receiver_at(&mut self, _: ShardId, _: Cookie) -> Option<Receiver<NotifyBatch>> {
            None
        }

        fn abandon_at(&mut self, _shard: ShardId, _cookie: Cookie) {}
    }

    fn req() -> SearchRequest {
        SearchRequest::from_root(fbdr_ldap::Filter::parse("(dept=7)").expect("valid"))
    }

    #[test]
    fn retries_until_success() {
        let calls = Rc::new(Cell::new(0));
        let mut t = Flaky { failures_left: 2, calls: calls.clone() };
        let mut d = SyncDriver::with_clock(RetryConfig::default(), TestClock::default());
        let resp =
            d.resync(&mut t, ShardId::ZERO, &req(), ReSyncControl::poll(None)).expect("recovers");
        assert!(resp.cookie.is_some());
        assert_eq!(calls.get(), 3);
        let s = d.stats();
        assert_eq!(s.attempts, 3);
        assert_eq!(s.retries, 2);
        assert_eq!(s.recovered, 1);
        assert_eq!(s.exhausted, 0);
    }

    #[test]
    fn gives_up_after_max_retries() {
        let calls = Rc::new(Cell::new(0));
        let mut t = Flaky { failures_left: 100, calls: calls.clone() };
        let cfg = RetryConfig { max_retries: 3, ..RetryConfig::default() };
        let mut d = SyncDriver::with_clock(cfg, TestClock::default());
        let err = d.resync(&mut t, ShardId::ZERO, &req(), ReSyncControl::poll(None)).unwrap_err();
        assert!(err.is_transient());
        assert!(
            matches!(err, SyncError::RetriesExhausted { attempts: 4, .. }),
            "exhaustion is reported with the attempt count: {err}"
        );
        assert_eq!(calls.get(), 4); // 1 try + 3 retries
        assert_eq!(d.stats().exhausted, 1);
    }

    #[test]
    fn time_budget_caps_retries() {
        let calls = Rc::new(Cell::new(0));
        let mut t = Flaky { failures_left: 100, calls: calls.clone() };
        let cfg = RetryConfig {
            max_retries: 50,
            base_backoff_ms: 100,
            max_backoff_ms: 100,
            timeout_budget_ms: 250,
            jitter_seed: 7,
        };
        let clock = TestClock::default();
        let mut d = SyncDriver::with_clock(cfg, clock.clone());
        let err = d.resync(&mut t, ShardId::ZERO, &req(), ReSyncControl::poll(None)).unwrap_err();
        assert!(err.is_transient());
        // Backoffs are 100..=150ms; at most two fit into the 250ms budget.
        assert!(calls.get() <= 3, "budget must cap attempts, saw {}", calls.get());
        assert!(clock.now_ms() <= 250);
    }

    #[test]
    fn non_transient_errors_surface_immediately() {
        struct Dead;
        impl SyncTransport for Dead {
            fn resync_at(
                &mut self,
                _shard: ShardId,
                _request: &SearchRequest,
                _ctl: ReSyncControl,
            ) -> Result<SyncResponse, SyncError> {
                Err(SyncError::UnknownCookie(Cookie::new(9, 1)))
            }
            fn take_receiver_at(&mut self, _: ShardId, _: Cookie) -> Option<Receiver<NotifyBatch>> {
                None
            }
            fn abandon_at(&mut self, _shard: ShardId, _cookie: Cookie) {}
        }
        let mut d = SyncDriver::with_clock(RetryConfig::default(), TestClock::default());
        let err =
            d.resync(&mut Dead, ShardId::ZERO, &req(), ReSyncControl::poll(None)).unwrap_err();
        assert!(err.needs_reinstall());
        assert_eq!(d.stats().attempts, 1);
        assert_eq!(d.stats().retries, 0);
    }

    #[test]
    fn reconcile_on_incapable_transport_fails_non_transiently() {
        let calls = Rc::new(Cell::new(0));
        // Flaky relies on the trait's default reconcile legs.
        let mut t = Flaky { failures_left: 0, calls };
        let mut d = SyncDriver::with_clock(RetryConfig::default(), TestClock::default());
        let err = d.reconcile(&mut t, ShardId::ZERO, &req(), &Vec::new).unwrap_err();
        assert!(matches!(err, SyncError::ReconcileFailed(_)));
        assert!(!err.is_transient());
        assert!(!err.needs_reinstall(), "classified as its own failure, not a dead session");
        assert_eq!(d.stats().reconciliations, 0);
    }

    #[test]
    fn reconcile_exchange_converges_with_divergence_proportional_shipping() {
        use crate::reconcile::entry_item_hash;
        use crate::{ReSyncControl, ReplicaContent};
        use fbdr_ldap::{Filter, Scope};

        let person = |cn: &str, mail: &str| {
            Entry::new(format!("cn={cn},o=xyz").parse().unwrap())
                .with("objectclass", "person")
                .with("dept", "7")
                .with("mail", mail)
        };
        let mut m = SyncMaster::new();
        m.dit_mut().add_suffix("o=xyz".parse().unwrap());
        m.dit_mut().add(Entry::new("o=xyz".parse().unwrap())).unwrap();
        for i in 0..50 {
            m.dit_mut().add(person(&format!("e{i}"), &format!("e{i}@x"))).unwrap();
        }
        let request = SearchRequest::new(
            "o=xyz".parse().unwrap(),
            Scope::Subtree,
            Filter::parse("(dept=7)").unwrap(),
        );

        // The replica holds e0..=e44 at the master's versions, a *stale*
        // e45, and a ghost entry the master never had; e46..=e49 are
        // missing entirely.
        let mut held: Vec<Entry> =
            (0..45).map(|i| person(&format!("e{i}"), &format!("e{i}@x"))).collect();
        held.push(person("e45", "stale@x"));
        held.push(person("ghost", "g@x"));

        let mut d = SyncDriver::with_clock(RetryConfig::default(), TestClock::default());
        let outcome =
            d.reconcile(&mut m, ShardId::ZERO, &request, &|| held.clone()).expect("reconciles");

        // Divergence-proportional: ~6 differing items out of 50, so far
        // fewer than the full content crosses the wire.
        let cost = &outcome.cost;
        let shipped = cost.shipped_entries;
        assert!(shipped <= 10, "shipped {shipped} entries for ~6 diverged items");
        assert!(cost.deletes > 0, "the ghost must be deleted");
        assert!(cost.stats.round_trips <= 2);
        assert_eq!(d.stats().reconciliations, 1);
        // Deletes come first, each naming a held DN.
        let deletes = outcome.actions.iter().take_while(|a| matches!(a, SyncAction::Delete(_)));
        assert_eq!(deletes.count() as u64, cost.deletes);
        assert_eq!(outcome.actions.len() as u64, cost.deletes + cost.shipped_entries);

        // Applied in order to the held content, the actions converge the
        // replica byte-for-byte.
        let mut content = ReplicaContent::new();
        content.apply_all(&held.iter().cloned().map(SyncAction::Add).collect::<Vec<_>>());
        content.apply_all(&outcome.actions);
        let mut want: Vec<String> =
            m.dit().search_dns(&request).iter().map(crate::dn_key).collect();
        want.sort();
        assert_eq!(content.sorted_dns(), want);
        for e in content.iter() {
            assert_eq!(
                entry_item_hash(e),
                entry_item_hash(m.dit().get(e.dn()).unwrap()),
                "content mismatch at {}",
                e.dn()
            );
        }

        // The cookie resumes incrementally at the current content.
        m.apply(fbdr_dit::UpdateOp::Add(person("late", "l@x"))).unwrap();
        let poll = d
            .resync(&mut m, ShardId::ZERO, &request, ReSyncControl::poll(Some(outcome.cookie)))
            .expect("cookie is live");
        assert_eq!(poll.actions.len(), 1);
    }

    #[test]
    fn jitter_is_deterministic_per_seed() {
        let mk = |seed| {
            let mut d = SyncDriver::with_clock(
                RetryConfig { jitter_seed: seed, ..RetryConfig::default() },
                TestClock::default(),
            );
            (0..6).map(|a| d.backoff_ms(a)).collect::<Vec<_>>()
        };
        assert_eq!(mk(3), mk(3));
        assert_ne!(mk(3), mk(4));
        // Backoff grows and respects the cap plus 50% jitter.
        let seq = mk(3);
        for (a, b) in seq.iter().enumerate() {
            let base = (50u64 << a).min(2_000);
            assert!(*b >= base && *b <= base + base / 2 + 1, "attempt {a}: {b}");
        }
    }
}
