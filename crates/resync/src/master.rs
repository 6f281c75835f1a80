//! The master (supplier) side of the ReSync protocol.

use crate::intern::dn_approx_bytes;
use crate::protocol::{
    Cookie, NotifyBatch, ReSyncControl, SyncAction, SyncError, SyncMode, SyncResponse,
};
use crate::reconcile::{
    bucket_of, entry_item_hash, RangeRequest, RangeResponse, RangeSummary, ReconcileRequest,
    ReconcileResponse,
};
use crate::routing::{Registration, RoutingIndex};
use crossbeam::channel::{unbounded, Receiver, Sender};
use fbdr_dit::{ChangeKind, ChangeRecord, DitError, DitStore, UpdateOp};
use fbdr_ldap::{AttrName, Dn, Entry, SearchRequest};
use fbdr_obs::{event, Obs};
use serde::{Deserialize, Serialize};
use std::collections::{BTreeSet, HashMap};

/// Per-session state: the request, its **history** since the last
/// delivery (the paper's alternative to changelogs and tombstones), and
/// the delivery bookkeeping. The session keeps no copy of the content:
/// its first delivery and both reconcile rounds read the content off the
/// DIT.
#[derive(Debug, Serialize, Deserialize)]
struct Session {
    request: SearchRequest,
    history: History,
    /// Where the session is listed in the master's routing index; `None`
    /// only while a loaded master has not listed it yet.
    #[serde(skip)]
    routed: Option<Registration>,
    /// Persist-mode notification channel, if the session is persistent.
    /// Not persisted: a restored persist session degrades to polling (its
    /// cookie stays valid), exactly like a dropped TCP connection.
    #[serde(skip)]
    notify: Option<Sender<NotifyBatch>>,
    /// Receiver parked until the client picks it up.
    #[serde(skip)]
    parked_receiver: Option<Receiver<NotifyBatch>>,
    /// Raw updates queued for the next notification flush (the immediate
    /// policy flushes at the end of the apply that queued them). Not
    /// persisted: the channel the queue feeds does not survive either.
    #[serde(skip)]
    dirty: u64,
    /// Master time (ms) when the oldest queued update landed.
    #[serde(skip)]
    dirty_since_ms: Option<u64>,
    /// Master op-count at last activity, for idle expiry.
    last_active: u64,
    /// Master op-count through which delivery is **acknowledged**: the
    /// replica has echoed a cookie proving it holds every action built at
    /// or before this op-count. The minimum across live sessions is the
    /// master's stability watermark.
    stable_at: u64,
    /// Sequence number of the last response issued on this session (the
    /// low 32 bits of the cookie the replica holds).
    seq: u32,
    /// The DNs the last response named, kept until the next request
    /// acknowledges it by echoing the issued cookie. A request carrying
    /// the *previous* cookie means the response was lost in transit: these
    /// DNs and the history's are sent again at their live state
    /// ([`Session::resend`]). Persisted, so at-least-once delivery
    /// survives a master crash/restart.
    unacked: History,
    /// Master op-count when the last response was built: what an echo of
    /// its cookie acknowledges.
    pending_at: u64,
    /// The reconciliation digest round awaiting its (optional) range
    /// round. Cleared by the first ordinary poll on the session.
    /// Persisted so an in-flight reconciliation survives a master crash
    /// between rounds.
    reconcile: Option<ReconcileRound>,
}

/// What a session's replica has not been told yet: the DNs that entered
/// the content (`E01`), changed inside it (`E11`) or left it (`E10`)
/// since the last delivery, each set ascending. [`History::note`] keeps
/// the three disjoint, so a delivery is the deletes, then the adds, then
/// the modifies, each in DN order.
#[derive(Debug, Default, Serialize, Deserialize)]
struct History {
    /// In the content, not held by the replica.
    added: BTreeSet<Dn>,
    /// In the content and held by the replica, but changed since (or
    /// gone and back).
    modified: BTreeSet<Dn>,
    /// Held by the replica, no longer in the content: the DN the entry
    /// had when it left.
    gone: BTreeSet<Dn>,
}

/// A reconciliation in flight: the bucket shift of its digest round's
/// range summary, all the range round needs besides the live content (see
/// [`SyncMaster::reconcile_ranges`]).
#[derive(Debug, Serialize, Deserialize)]
struct ReconcileRound {
    shift: u32,
}

/// Deterministic byte accounting of a master's long-lived session state
/// ([`SyncMaster::memory_footprint`]): sums of structure sizes computed
/// from lengths, never allocator statistics, so equal histories report
/// equal bytes on every platform.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct MasterFootprint {
    /// Live sessions.
    pub sessions: usize,
    /// Session history bytes: each recorded DN (normalized forms plus
    /// per-RDN overhead) plus a per-item slot.
    pub history_bytes: usize,
    /// The DNs of responses not yet acknowledged, priced the same way.
    pub unacked_bytes: usize,
}

impl MasterFootprint {
    /// Total accounted bytes.
    pub fn total_bytes(&self) -> usize {
        self.history_bytes + self.unacked_bytes
    }

    /// Accumulates another footprint (per-shard sums).
    pub fn merge(&mut self, other: MasterFootprint) {
        self.sessions += other.sessions;
        self.history_bytes += other.history_bytes;
        self.unacked_bytes += other.unacked_bytes;
    }
}

/// When persist-mode notifications are handed to a session's channel.
///
/// Every update is recorded in the history of each session it touches, and
/// one flush delivers a session's queue as one [`NotifyBatch`]; the
/// policy only decides *when* that flush runs. The
/// [immediate](NotifyPolicy::immediate) policy (the default) runs it at
/// the end of the [`SyncMaster::apply`] that queued the update — lowest
/// staleness, one wakeup per update per interested session (a `ModifyDn`
/// is one batch `[Delete, Add]`). A
/// [coalescing](NotifyPolicy::coalescing) policy leaves the queue for
/// [`SyncMaster::flush_notifications`], where it is due when either knob
/// fires:
///
/// * `max_batch` — the session has this many raw updates queued;
/// * `max_delay_ms` — the oldest queued update has waited this long.
///
/// Coalescing bounds each session's queue with `max_queue`: a session
/// that accumulates more raw updates than that between flushes has its
/// channel torn down (backpressure — the replica observes the disconnect
/// and falls back to polling, the standard degradation path). The
/// history is unaffected, so no update is ever lost, only its push-mode
/// delivery.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct NotifyPolicy {
    /// `false`: flush at the end of the apply that queued the update.
    /// `true`: flush from [`SyncMaster::flush_notifications`].
    pub coalesce: bool,
    /// Flush when a session has this many raw updates queued.
    pub max_batch: u64,
    /// Flush when the oldest queued update has waited this long (ms).
    pub max_delay_ms: u64,
    /// Tear down a session's channel when its queue exceeds this many raw
    /// updates (coalescing only; the immediate policy never leaves a
    /// queue behind).
    pub max_queue: u64,
}

impl NotifyPolicy {
    /// One notification per update, flushed at apply time (the default).
    pub fn immediate() -> Self {
        NotifyPolicy { coalesce: false, max_batch: 1, max_delay_ms: 0, max_queue: u64::MAX }
    }

    /// Queue updates and flush a coalesced batch per session when either
    /// `max_batch` updates are queued or the oldest has waited
    /// `max_delay_ms`. The queue bound defaults to `64 * max_batch`.
    pub fn coalescing(max_batch: u64, max_delay_ms: u64) -> Self {
        NotifyPolicy {
            coalesce: true,
            max_batch: max_batch.max(1),
            max_delay_ms,
            max_queue: max_batch.max(1).saturating_mul(64),
        }
    }
}

impl Default for NotifyPolicy {
    fn default() -> Self {
        NotifyPolicy::immediate()
    }
}

/// What one session flush produced — returned by
/// [`SyncMaster::flush_notifications`] so an event-driven harness can
/// schedule exactly one delivery per wakeup.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct NotifyFlush {
    /// Session the batch was sent to.
    pub session: u32,
    /// Entry actions in the batch (after per-DN coalescing).
    pub actions: usize,
    /// Raw updates the batch coalesces.
    pub coalesced_from: u64,
    /// Master time (ms) when the oldest coalesced update landed.
    pub first_enqueued_ms: u64,
}

/// A master directory server that owns a [`DitStore`] and maintains ReSync
/// sessions over it.
///
/// All updates **must** flow through [`SyncMaster::apply`] once sessions
/// exist — that is where session history is recorded. [`SyncMaster::dit_mut`]
/// is intended for initial bulk loading and suffix registration.
#[derive(Debug, Default, Serialize)]
pub struct SyncMaster {
    dit: DitStore,
    sessions: HashMap<u32, Session>,
    next_session: u32,
    ops_applied: u64,
    /// Which sessions can an update touch? Maintained across the session
    /// lifecycle; never serialized — rebuilt from the sessions at load.
    #[serde(skip)]
    routing: RoutingIndex,
    /// Reused candidate buffer, so steady-state routing allocates nothing.
    #[serde(skip)]
    scratch: Vec<u32>,
    /// Reused buffer of the attributes a modification names, filled by
    /// [`DitStore::modify_at`]: its new state is routed on these alone.
    #[serde(skip)]
    named: Vec<AttrName>,
    /// Sessions whose notification queue may hold something: an apply
    /// under a coalescing policy lists a session when it takes its `dirty`
    /// from zero, and [`SyncMaster::flush_notifications`] — the only
    /// reader — drops an id once it finds the queue flushed, torn down or
    /// the session gone. So a flush tests what was queued, not every
    /// session. Derived and not persisted: a restored session has no
    /// channel and an empty queue.
    #[serde(skip)]
    queued: BTreeSet<u32>,
    /// How many retries of a previous cookie were answered.
    redeliveries: u64,
    /// Persist-mode notification flush policy.
    notify_policy: NotifyPolicy,
    /// Master clock in milliseconds, advanced by [`SyncMaster::advance_to`]
    /// — the time base for coalescing delays and batch staleness stamps.
    /// A master never told the time runs everything at t=0, which only
    /// matters to coalescing policies with a delay knob.
    now_ms: u64,
    /// Notification wakeups sent (batches on any persist channel).
    notify_wakeups: u64,
    /// Raw updates those wakeups carried (`>= notify_wakeups`; the ratio
    /// is the amplification coalescing saves).
    notify_updates: u64,
    /// Persist channels torn down by queue-bound backpressure.
    notify_overflows: u64,
    /// Process-local observability; not persisted (a restored master
    /// starts with [`Obs::off`] and can be re-attached via
    /// [`SyncMaster::set_obs`], like reopening a connection).
    #[serde(skip)]
    obs: Obs,
    /// Instrument handles for the per-update routing metrics, resolved
    /// once in [`SyncMaster::set_obs`] — the registry's name-keyed,
    /// lock-guarded lookup is too slow for the apply hot path.
    #[serde(skip)]
    route_metrics: Option<RouteMetrics>,
}

impl<'de> Deserialize<'de> for SyncMaster {
    /// Loads a master from the snapshot it writes and derives what it
    /// does not persist: the routing index. Every field is required, so a
    /// snapshot in any other format is refused, not translated.
    ///
    /// # Errors
    ///
    /// A missing field, a session id past `next_session`, or a
    /// `next_session` that leaves no id to hand out.
    fn deserialize<D: serde::Deserializer<'de>>(de: D) -> Result<Self, D::Error> {
        use serde::de::Error as _;
        #[derive(Deserialize)]
        struct Wire {
            dit: DitStore,
            sessions: HashMap<u32, Session>,
            next_session: u32,
            ops_applied: u64,
            redeliveries: u64,
            notify_policy: NotifyPolicy,
            now_ms: u64,
            notify_wakeups: u64,
            notify_updates: u64,
            notify_overflows: u64,
        }
        let mut w = Wire::deserialize(de)?;
        if w.next_session == u32::MAX {
            return Err(D::Error::custom("next_session leaves no session id"));
        }
        let mut routing = RoutingIndex::new();
        for (&sid, s) in &mut w.sessions {
            if sid > w.next_session {
                return Err(D::Error::custom(format!("session {sid} is past next_session")));
            }
            s.routed = Some(routing.register(sid, &s.request));
        }
        Ok(SyncMaster {
            dit: w.dit,
            sessions: w.sessions,
            next_session: w.next_session,
            ops_applied: w.ops_applied,
            routing,
            redeliveries: w.redeliveries,
            notify_policy: w.notify_policy,
            now_ms: w.now_ms,
            notify_wakeups: w.notify_wakeups,
            notify_updates: w.notify_updates,
            notify_overflows: w.notify_overflows,
            ..SyncMaster::default()
        })
    }
}

#[derive(Debug, Clone)]
struct RouteMetrics {
    candidates: std::sync::Arc<fbdr_obs::Histogram>,
    probes: std::sync::Arc<fbdr_obs::Counter>,
    indexed: std::sync::Arc<fbdr_obs::Counter>,
    scan: std::sync::Arc<fbdr_obs::Counter>,
    skipped: std::sync::Arc<fbdr_obs::Counter>,
}

impl SyncMaster {
    /// Creates a master with an empty DIT.
    pub fn new() -> Self {
        SyncMaster::default()
    }

    /// Creates a master around an already-loaded DIT.
    pub fn with_dit(dit: DitStore) -> Self {
        SyncMaster { dit, ..SyncMaster::default() }
    }

    /// The underlying DIT store.
    pub fn dit(&self) -> &DitStore {
        &self.dit
    }

    /// Mutable access to the DIT for setup (suffixes, bulk load). Updates
    /// applied here bypass session bookkeeping; use [`SyncMaster::apply`]
    /// once sessions exist.
    pub fn dit_mut(&mut self) -> &mut DitStore {
        &mut self.dit
    }

    /// Number of live sessions.
    pub fn session_count(&self) -> usize {
        self.sessions.len()
    }

    /// Total updates applied through this master.
    pub fn ops_applied(&self) -> u64 {
        self.ops_applied
    }

    /// How many retries of a previous cookie were answered (a lost or
    /// duplicated delivery was recovered).
    pub fn redeliveries(&self) -> u64 {
        self.redeliveries
    }

    /// Sets the persist-mode notification flush policy (see
    /// [`NotifyPolicy`]). Takes effect for subsequent updates; any
    /// already-queued updates flush under the new policy's knobs.
    pub fn set_notify_policy(&mut self, policy: NotifyPolicy) {
        self.notify_policy = policy;
    }

    /// The persist-mode notification flush policy in force.
    pub fn notify_policy(&self) -> NotifyPolicy {
        self.notify_policy
    }

    /// Advances the master clock to `now_ms` (monotonic: earlier values
    /// are ignored). The clock stamps notification batches and drives the
    /// coalescing delay knob; event-driven harnesses call this before
    /// each batch of applies.
    pub fn advance_to(&mut self, now_ms: u64) {
        self.now_ms = self.now_ms.max(now_ms);
    }

    /// The master clock, in milliseconds.
    pub fn now_ms(&self) -> u64 {
        self.now_ms
    }

    /// Notification wakeups sent so far (one per [`NotifyBatch`] on any
    /// persist channel).
    pub fn notify_wakeups(&self) -> u64 {
        self.notify_wakeups
    }

    /// Raw updates those wakeups carried. `notify_updates /
    /// notify_wakeups` is the measured coalescing factor.
    pub fn notify_updates(&self) -> u64 {
        self.notify_updates
    }

    /// Persist channels torn down by queue-bound backpressure.
    pub fn notify_overflows(&self) -> u64 {
        self.notify_overflows
    }

    /// Flushes due persist-mode notification queues, one coalesced
    /// [`NotifyBatch`] per session whose queue is due under the policy
    /// (`force` flushes every non-empty queue regardless). Returns one
    /// [`NotifyFlush`] per batch sent, ascending by session id, so an
    /// event-driven harness can schedule exactly one delivery per wakeup.
    ///
    /// A queue whose updates cancelled out (an entry arrived and departed
    /// between flushes) is cleared without a wakeup — the replica's
    /// content is unaffected, so there is nothing to deliver. Under the
    /// immediate policy every apply has already flushed what it queued,
    /// so this finds nothing.
    pub fn flush_notifications(&mut self, force: bool) -> Vec<NotifyFlush> {
        let policy = self.notify_policy;
        let now = self.now_ms;
        let mut flushes = Vec::new();
        // Ascending by session id, and only an undue queue stays listed.
        self.queued.retain(|&sid| {
            let Some(session) = self.sessions.get_mut(&sid) else { return false };
            if session.notify.is_none() || session.dirty == 0 {
                return false;
            }
            let due = force
                || session.dirty >= policy.max_batch
                || session
                    .dirty_since_ms
                    .is_some_and(|t0| now.saturating_sub(t0) >= policy.max_delay_ms);
            if due {
                flushes.extend(session.flush(sid, &self.dit, now));
            }
            !due
        });
        self.record_flushes(&flushes);
        flushes
    }

    /// Accounts the wakeups a flush trigger produced (either one: an
    /// apply under the immediate policy, or
    /// [`SyncMaster::flush_notifications`]).
    fn record_flushes(&mut self, flushes: &[NotifyFlush]) {
        if flushes.is_empty() {
            return;
        }
        let wakeups = flushes.len() as u64;
        let updates: u64 = flushes.iter().map(|f| f.coalesced_from).sum();
        self.notify_wakeups += wakeups;
        self.notify_updates += updates;
        if self.obs.is_active() {
            let reg = self.obs.registry();
            reg.counter("fbdr_resync_notify_wakeups_total").add(wakeups);
            reg.counter("fbdr_resync_notify_updates_total").add(updates);
            let depth = reg.histogram("fbdr_resync_notify_batch_updates");
            for f in flushes {
                depth.record(f.coalesced_from);
            }
        }
    }

    /// Attaches observability: resync exchanges increment
    /// `fbdr_resync_requests_total`/`fbdr_resync_redeliveries_total`/
    /// `fbdr_resync_expired_total` and emit `resync.*` trace events
    /// (request/response/redelivery/expiry, with cookie sequence numbers
    /// and entry-action counts).
    ///
    /// The handle does not survive [serialization](SyncMaster): a
    /// restored master starts detached, exactly like its persist
    /// channels.
    pub fn set_obs(&mut self, obs: Obs) {
        self.route_metrics = obs.is_active().then(|| {
            let reg = obs.registry();
            RouteMetrics {
                candidates: reg.histogram("fbdr_resync_route_candidates"),
                probes: reg.counter("fbdr_resync_route_probes_total"),
                indexed: reg.counter("fbdr_resync_route_indexed_total"),
                scan: reg.counter("fbdr_resync_route_scan_total"),
                skipped: reg.counter("fbdr_resync_route_skipped_total"),
            }
        });
        self.obs = obs;
    }

    /// The observability handle this master records through.
    pub fn obs(&self) -> &Obs {
        &self.obs
    }

    // ------------------------------------------------------------------
    // Updates
    // ------------------------------------------------------------------

    /// Applies an update to the DIT and records it in every live session's
    /// history; persist-mode sessions are notified when the
    /// [`NotifyPolicy`] says (by default, before this returns).
    ///
    /// Fan-out is **routed**: the [`RoutingIndex`] computes the candidate
    /// session set from the entry's *old* attribute state (looked up
    /// before the store applies the op — an entry leaving a filter stops
    /// matching afterwards, but its old values still hit the session's
    /// keys, which is what routes the departure) and its *new* state,
    /// plus the residual scan-list for the affected naming context. Only
    /// candidates are evaluated, each against the old and the new entry;
    /// sessions outside the set provably need no action. That the set
    /// misses none is checked against the reference model (`fbdr-model`,
    /// driven by `tests/model.rs` at the workspace root).
    ///
    /// # Errors
    ///
    /// Propagates [`DitError`] from the store; sessions are untouched on
    /// failure.
    pub fn apply(&mut self, op: UpdateOp) -> Result<ChangeRecord, DitError> {
        if self.sessions.is_empty() {
            // Nothing to route: no handles, no index work.
            let rec = self.dit.apply(op)?;
            self.ops_applied += 1;
            return Ok(rec);
        }
        let mut cand = std::mem::take(&mut self.scratch);
        cand.clear();
        // The target's OLD state: a handle (a refcount, not a copy) that
        // outlives the store's apply. Its id outlives a modify and a
        // rename too, so the target's DN is hashed once.
        let id = self.dit.id_of(op.target());
        let old = id.and_then(|id| self.dit.entry(id)).cloned();
        let mut probes = 0usize;
        if let Some(old) = &old {
            probes += self.routing.candidates_for_entry(old, &mut cand);
        }
        let before = cand.len();
        self.routing.residual_for_dn(op.target(), &mut cand);
        let mut residual_hits = cand.len() - before;
        let (applied, modified) = match (op, id) {
            (UpdateOp::Modify { mods, .. }, Some(id)) => {
                (self.dit.modify_at(id, mods, &mut self.named), true)
            }
            (op, _) => (self.dit.apply(op), false),
        };
        let rec = match applied {
            Ok(rec) => rec,
            Err(e) => {
                self.scratch = cand;
                return Err(e);
            }
        };
        self.ops_applied += 1;
        let new_dn = rec.new_dn.as_ref().unwrap_or(&rec.dn);
        let renamed = rec.new_dn.is_some();
        // Entry state after the operation (None if deleted) — borrowed,
        // never cloned on this path.
        let new_entry = match rec.kind {
            ChangeKind::Add => self.dit.get(new_dn),
            ChangeKind::Delete => None,
            ChangeKind::Modify | ChangeKind::ModifyDn => id.and_then(|id| self.dit.entry(id)),
        };
        if let Some(e) = new_entry {
            // A modification changes only the attributes it names: the new
            // state is routed on those, the rest met the old state's lookup.
            probes += if modified {
                self.routing.candidates_for_attrs(e, &self.named, &mut cand)
            } else {
                self.routing.candidates_for_entry(e, &mut cand)
            };
        }
        if renamed {
            let before = cand.len();
            self.routing.residual_for_dn(new_dn, &mut cand);
            residual_hits += cand.len() - before;
        }
        let indexed_hits = cand.len() - residual_hits;
        cand.sort_unstable();
        cand.dedup();
        if let Some(m) = &self.route_metrics {
            m.candidates.record(cand.len() as u64);
            m.probes.add(probes as u64);
            if cand.is_empty() {
                m.skipped.inc();
            } else {
                // Not exclusive: an op can reach sessions through posting
                // keys *and* drag in the residual scan-list.
                if indexed_hits > 0 {
                    m.indexed.inc();
                }
                if residual_hits > 0 {
                    m.scan.inc();
                }
            }
        }
        let policy = self.notify_policy;
        let now_ms = self.now_ms;
        let mut flushes = Vec::new();
        let mut overflows = 0u64;
        for &sid in &cand {
            let Some(session) = self.sessions.get_mut(&sid) else {
                continue;
            };
            let was_in = old.as_ref().filter(|e| session.request.matches(e));
            let now_in = new_entry.filter(|e| session.request.matches(e));
            // A rename is a departure at the old DN, then an arrival at the
            // new one: two raw updates on a session that sees both.
            let h = &mut session.history;
            let queued = if renamed {
                u64::from(h.note(was_in, None)) + u64::from(h.note(None, now_in))
            } else {
                u64::from(h.note(was_in, now_in))
            };
            if queued == 0 || session.notify.is_none() {
                continue;
            }
            let was_empty = session.dirty == 0;
            session.dirty += queued;
            session.dirty_since_ms.get_or_insert(now_ms);
            if !policy.coalesce {
                flushes.extend(session.flush(sid, &self.dit, now_ms));
            } else if session.dirty > policy.max_queue {
                // Backpressure: the consumer is not keeping up. Tear the
                // channel down — the replica observes the disconnect and
                // degrades to polling, and the history (which holds every
                // queued update) hands them to that poll.
                session.disarm();
                overflows += 1;
            } else if was_empty {
                self.queued.insert(sid);
            }
        }
        self.scratch = cand;
        self.record_flushes(&flushes);
        if overflows > 0 {
            self.notify_overflows += overflows;
            if self.obs.is_active() {
                self.obs.registry().counter("fbdr_resync_notify_overflows_total").add(overflows);
            }
        }
        Ok(rec)
    }

    // ------------------------------------------------------------------
    // ReSync request handling
    // ------------------------------------------------------------------

    /// Handles a ReSync request: `(search request, control)`.
    ///
    /// * `cookie == None` — starts a session; the full content is sent.
    /// * `cookie == Some` — sends updates accumulated since the last
    ///   request on that session.
    /// * mode `Persist` — additionally arms a notification channel; fetch
    ///   it with [`SyncMaster::take_receiver`]. Until it is taken the
    ///   channel is not live: a flush tears it down, leaving its updates
    ///   to the history, and the session may idle out.
    /// * mode `SyncEnd` — terminates the session.
    ///
    /// # At-least-once delivery
    ///
    /// Each response carries a cookie whose sequence number acknowledges
    /// delivery when echoed in the next request. Until then the session
    /// keeps the DNs the response named: a request carrying the
    /// *previous* cookie (the response was lost, or the request was
    /// delivered twice) gets those DNs and the history's again, each at
    /// its live state, under the same cookie. A first delivery keeps
    /// nothing: no cookie before it exists, so a lost one is retried with
    /// no cookie and opens a new session.
    ///
    /// # Errors
    ///
    /// [`SyncError::UnknownCookie`] for dead sessions,
    /// [`SyncError::MissingCookie`] for `sync_end` without a cookie,
    /// [`SyncError::RequestMismatch`] when a resumed session was created
    /// for a different search request, [`SyncError::ReplayExpired`]
    /// for a cookie two or more responses behind, and
    /// [`SyncError::SessionsExhausted`] for a fresh session once every
    /// session id has been handed out.
    pub fn resync(&mut self, request: &SearchRequest, ctl: ReSyncControl) -> Result<SyncResponse, SyncError> {
        if self.obs.is_active() {
            self.obs.registry().counter("fbdr_resync_requests_total").inc();
        }
        event!(
            self.obs,
            "resync",
            "request",
            mode = match ctl.mode {
                SyncMode::Poll => "poll",
                SyncMode::Persist => "persist",
                SyncMode::SyncEnd => "sync_end",
            },
            seq = ctl.cookie.map_or(0, |c| c.seq()),
            fresh = ctl.cookie.is_none(),
        );
        match ctl.mode {
            SyncMode::SyncEnd => {
                let cookie = ctl.cookie.ok_or(SyncError::MissingCookie)?;
                if !self.remove_session(cookie.session()) {
                    return Err(SyncError::UnknownCookie(cookie));
                }
                self.note_session_count();
                return Ok(SyncResponse { actions: Vec::new(), cookie: None });
            }
            SyncMode::Poll | SyncMode::Persist => {}
        }
        let resumed = ctl.cookie;
        let sid = match resumed {
            None => self.start_session(request)?,
            Some(c) => c.session(),
        };
        let ops_applied = self.ops_applied;
        let session = self
            .sessions
            .get_mut(&sid)
            .ok_or_else(|| SyncError::UnknownCookie(resumed.expect("fresh sessions exist")))?;
        if session.request != *request {
            return Err(SyncError::RequestMismatch(Cookie::new(sid, session.seq)));
        }
        session.last_active = ops_applied;
        // An ordinary poll supersedes any reconciliation in flight: the
        // replica has either completed it (this is the follow-up poll) or
        // abandoned it. Either way its range round may no longer run.
        session.reconcile = None;
        if ctl.mode == SyncMode::Persist && !session.channel_live() {
            // Absent, or the client dropped its receiver and is asking
            // again: either way this response carries everything queued,
            // and later updates go to a fresh channel.
            session.disarm();
            let (tx, rx) = unbounded();
            session.notify = Some(tx);
            session.parked_receiver = Some(rx);
        }
        let mut acked = false;
        let mut retry = false;
        if let Some(c) = resumed {
            if c.seq() == session.seq {
                // The last response is acknowledged as delivered:
                // everything built at or before `pending_at` is stable on
                // this session, which advances the stability watermark.
                session.unacked = History::default();
                session.stable_at = session.stable_at.max(session.pending_at);
                acked = true;
            } else if session.seq > 0 && c.seq() == session.seq - 1 {
                // Retried request: the previous response never arrived
                // (or this request was delivered twice).
                session.history = session.resend(&self.dit);
                retry = true;
            } else {
                // A cookie from an older exchange: the replica's view is
                // more than one response behind and cannot be repaired
                // incrementally.
                self.note_expiry(c, "cookie more than one response behind");
                return Err(SyncError::ReplayExpired(c));
            }
        }
        // A fresh session's first delivery is the content. Otherwise the
        // history is sent, its DNs wait for the echo as `unacked`, and it
        // starts over.
        let actions = match resumed {
            None => content(&self.dit, request)
                .into_iter()
                .map(|e| SyncAction::Add(e.clone()))
                .collect(),
            Some(_) => {
                let actions = session.history.build(&self.dit);
                session.unacked = std::mem::take(&mut session.history);
                actions
            }
        };
        if !retry {
            session.seq = session.seq.wrapping_add(1);
        }
        session.pending_at = ops_applied;
        let cookie = Cookie::new(sid, session.seq);
        let resp = SyncResponse { actions, cookie: Some(cookie) };
        if retry {
            self.redeliveries += 1;
            if self.obs.is_active() {
                self.obs.registry().counter("fbdr_resync_redeliveries_total").inc();
            }
            event!(self.obs, "resync", "redelivery", seq = cookie.seq(), actions = resp.actions.len());
            return Ok(resp);
        }
        if acked && self.obs.is_active() {
            self.obs.registry().gauge("fbdr_resync_stability_lag").set(self.stability_lag() as i64);
        }
        if self.obs.tracing_enabled() {
            let counts = resp.action_counts();
            event!(
                self.obs,
                "resync",
                "response",
                seq = cookie.seq(),
                adds = counts.adds,
                modifies = counts.modifies,
                deletes = counts.deletes,
            );
        }
        Ok(resp)
    }

    /// Records an expired cookie: the counter plus a `resync.expiry`
    /// trace event carrying the offending cookie's sequence number.
    fn note_expiry(&self, cookie: Cookie, reason: &'static str) {
        if self.obs.is_active() {
            self.obs.registry().counter("fbdr_resync_expired_total").inc();
        }
        event!(
            self.obs,
            "resync",
            "expiry",
            session = cookie.session(),
            seq = cookie.seq(),
            reason = reason,
        );
    }

    /// Convenience for persist mode: performs the request and hands back
    /// the notification receiver in one call.
    ///
    /// # Errors
    ///
    /// As [`SyncMaster::resync`].
    pub fn resync_persist(
        &mut self,
        request: &SearchRequest,
        cookie: Option<Cookie>,
    ) -> Result<(SyncResponse, Receiver<NotifyBatch>), SyncError> {
        let resp = self.resync(request, ReSyncControl::persist(cookie))?;
        let c = resp.cookie.expect("persist responses carry a cookie");
        let rx = self.take_receiver(c).ok_or(SyncError::UnknownCookie(c))?;
        Ok((resp, rx))
    }

    // ------------------------------------------------------------------
    // Reconciliation (divergence-proportional session recovery)
    // ------------------------------------------------------------------

    /// Digest round of a reconciliation exchange (see
    /// [`crate::reconcile`]): evaluates `request` as for a fresh session,
    /// ships every entry the replica's Bloom digest *definitely* lacks,
    /// and returns a range summary over the full item set plus a cookie
    /// already positioned at the current content. The new session keeps
    /// the summary's bucket shift for the optional range round.
    ///
    /// A lost response leaves an orphan session, exactly like a lost
    /// initial poll — the replica retries the whole exchange and the
    /// orphan falls to [`SyncMaster::expire_idle`].
    ///
    /// # Errors
    ///
    /// [`SyncError::SessionsExhausted`] once every session id has been
    /// handed out.
    pub fn reconcile(
        &mut self,
        request: &SearchRequest,
        req: ReconcileRequest,
    ) -> Result<ReconcileResponse, SyncError> {
        if self.obs.is_active() {
            self.obs.registry().counter("fbdr_resync_reconcile_requests_total").inc();
        }
        let sid = self.start_session(request)?;
        let mut hashes: Vec<u64> = Vec::new();
        let mut upserts: Vec<Entry> = Vec::new();
        for e in content(&self.dit, request) {
            let h = entry_item_hash(e);
            hashes.push(h);
            if !req.digest.contains(h) {
                upserts.push(e.clone());
            }
        }
        let summary = RangeSummary::build(req.summary_buckets, &hashes);
        // The exchange itself brings the replica to the current content,
        // so the session's history starts empty.
        let session = self.sessions.get_mut(&sid).expect("just created");
        session.seq = 1;
        session.reconcile = Some(ReconcileRound { shift: summary.shift() });
        let cookie = Cookie::new(sid, 1);
        event!(
            self.obs,
            "resync",
            "reconcile",
            session = cookie.session(),
            digest_items = req.digest.items(),
            shipped = upserts.len(),
            content = hashes.len(),
        );
        Ok(ReconcileResponse { upserts, summary, cookie })
    }

    /// Range round of a reconciliation exchange: for each probed bucket,
    /// answers from the session's live content — entries for live items
    /// the replica did not list (Bloom false positives) and bare hashes
    /// for listed items the live content lacks (deletions the replica must
    /// apply). Between the rounds the master keeps only the summary's
    /// bucket shift, so a duplicated or retried request is answered again,
    /// from whatever is live then.
    ///
    /// Why live content is enough: the digest round started the session's
    /// history at the round-one content, so every DN that arrives, departs
    /// or changes version afterwards is in that history. Every difference
    /// between this answer and one frozen at round one is an item in one
    /// set and not the other — a DN the history recorded after round one.
    /// Whatever round two did with such a DN, the follow-up poll delivers
    /// it again at its live state (add and modify upsert, a delete of what
    /// the replica lacks is a no-op); every other DN gets the same answer
    /// either way. So round two plus one poll converges exactly as a
    /// frozen answer would.
    ///
    /// # Errors
    ///
    /// [`SyncError::UnknownCookie`] when the session is gone and
    /// [`SyncError::ReconcileFailed`] when no digest round is in flight
    /// for the cookie (e.g. an ordinary poll intervened).
    pub fn reconcile_ranges(
        &mut self,
        cookie: Cookie,
        req: &RangeRequest,
    ) -> Result<RangeResponse, SyncError> {
        let ops_applied = self.ops_applied;
        let session = self
            .sessions
            .get_mut(&cookie.session())
            .ok_or(SyncError::UnknownCookie(cookie))?;
        if cookie.seq() != session.seq {
            return Err(SyncError::ReconcileFailed(
                "cookie does not match the reconcile exchange".into(),
            ));
        }
        session.last_active = ops_applied;
        let Some(ReconcileRound { shift }) = session.reconcile else {
            return Err(SyncError::ReconcileFailed(
                "no reconcile exchange in flight for this session".into(),
            ));
        };
        // The live items in probed buckets, sorted by hash: a bucket index
        // is the hash's top bits, so each bucket is one contiguous range.
        let mut probed: Vec<usize> = req.probes.iter().map(|p| p.bucket as usize).collect();
        probed.sort_unstable();
        let mut live: Vec<(u64, &Entry)> = content(&self.dit, &session.request)
            .into_iter()
            .map(|e| (entry_item_hash(e), e))
            .filter(|&(h, _)| probed.binary_search(&bucket_of(h, shift)).is_ok())
            .collect();
        live.sort_unstable_by_key(|&(h, _)| h);
        let mut missing: Vec<&Entry> = Vec::new();
        let mut delete_hashes: Vec<u64> = Vec::new();
        for probe in &req.probes {
            let lo = live.partition_point(|&(h, _)| bucket_of(h, shift) < probe.bucket as usize);
            let hi = live.partition_point(|&(h, _)| bucket_of(h, shift) <= probe.bucket as usize);
            let bucket = &live[lo..hi];
            for &(h, e) in bucket {
                if probe.hashes.binary_search(&h).is_err() {
                    missing.push(e);
                }
            }
            for &h in &probe.hashes {
                if bucket.binary_search_by_key(&h, |&(lh, _)| lh).is_err() {
                    delete_hashes.push(h);
                }
            }
        }
        missing.sort_unstable_by(|a, b| a.dn().cmp(b.dn()));
        let upserts: Vec<Entry> = missing.into_iter().cloned().collect();
        event!(
            self.obs,
            "resync",
            "reconcile_ranges",
            session = cookie.session(),
            probes = req.probes.len(),
            shipped = upserts.len(),
            deletes = delete_hashes.len(),
        );
        Ok(RangeResponse { upserts, delete_hashes })
    }

    /// Takes the parked notification receiver of a persist session.
    /// Returns `None` if the session is unknown or the receiver was
    /// already taken.
    pub fn take_receiver(&mut self, cookie: Cookie) -> Option<Receiver<NotifyBatch>> {
        self.sessions.get_mut(&cookie.session())?.parked_receiver.take()
    }

    /// Abandons a session (e.g. the client dropped a persistent search).
    pub fn abandon(&mut self, cookie: Cookie) {
        if self.remove_session(cookie.session()) {
            self.note_session_count();
        }
    }

    /// Ends a session — the one way one goes: it leaves the routing index
    /// with its history. Returns whether it was live.
    fn remove_session(&mut self, sid: u32) -> bool {
        let Some(session) = self.sessions.remove(&sid) else {
            return false;
        };
        if let Some(routed) = session.routed {
            self.routing.remove(routed);
        }
        true
    }

    /// Tears down every persist notification channel, as a network
    /// partition or connection reset would. Sessions stay alive and
    /// pollable with their cookies; replicas observe the disconnect and
    /// fall back to polling. Returns how many channels were dropped.
    pub fn drop_persist_channels(&mut self) -> usize {
        self.sessions.values_mut().map(|s| usize::from(s.disarm())).sum()
    }

    /// Expires sessions idle for more than `max_idle_ops` applied updates
    /// — the admin time limit of §5.2. Returns how many were dropped.
    ///
    /// Persist sessions are exempt only while a client holds their
    /// notification receiver: once the client drops its end, or when
    /// nobody ever took it (a persist response lost or answered twice
    /// leaves its receiver parked), the session is an ordinary idle
    /// candidate (otherwise abandoned persistent searches would pin their
    /// history forever).
    pub fn expire_idle(&mut self, max_idle_ops: u64) -> usize {
        let cutoff = self.ops_applied.saturating_sub(max_idle_ops);
        let dead: Vec<u32> = self
            .sessions
            .iter()
            .filter(|(_, s)| !(s.last_active >= cutoff || s.channel_live()))
            .map(|(&id, _)| id)
            .collect();
        for &id in &dead {
            self.remove_session(id);
        }
        if !dead.is_empty() {
            self.note_session_count();
        }
        dead.len()
    }

    /// The stability watermark: the master op-count every live session
    /// has acknowledged delivery through — no session can ever ask for
    /// anything older again. `None` when no sessions exist (everything is
    /// stable).
    pub fn stability_watermark(&self) -> Option<u64> {
        self.sessions.values().map(|s| s.stable_at).min()
    }

    /// How far the master has run ahead of its slowest acknowledger:
    /// `ops_applied - stability_watermark` (0 with no sessions).
    /// Exported as the `fbdr_resync_stability_lag` gauge, set on every
    /// acknowledged poll.
    pub fn stability_lag(&self) -> u64 {
        self.stability_watermark()
            .map_or(0, |w| self.ops_applied.saturating_sub(w))
    }

    /// Deterministic byte accounting of the master's long-lived state
    /// (see [`MasterFootprint`]) — the soak benchmark's memory
    /// high-water instrument.
    pub fn memory_footprint(&self) -> MasterFootprint {
        let mut f = MasterFootprint { sessions: self.sessions.len(), ..MasterFootprint::default() };
        for s in self.sessions.values() {
            f.history_bytes += s.history.bytes();
            f.unacked_bytes += s.unacked.bytes();
        }
        f
    }

    /// Live counts of the routing index's structures — test and
    /// observability aid.
    pub fn routing_stats(&self) -> crate::routing::RoutingStats {
        self.routing.stats()
    }

    /// Panics if the routing index violates its invariants (stale ids,
    /// unsorted or empty retained posting lists, registered sessions
    /// missing from their postings). Test helper.
    // A test hook: only tests call it.
    #[doc(hidden)]
    pub fn debug_validate_routing(&self) {
        for (sid, s) in &self.sessions {
            let routed = s.routed.as_ref().map(Registration::id);
            assert_eq!(routed, Some(*sid), "live session {sid} absent from the routing index");
        }
        self.routing.debug_validate(self.sessions.values().filter_map(|s| s.routed.as_ref()));
    }

    /// Publishes the live session count gauge.
    fn note_session_count(&self) {
        if self.obs.is_active() {
            self.obs.registry().gauge("fbdr_resync_sessions").set(self.sessions.len() as i64);
        }
    }

    /// Allocates a session and returns its id (the high half of every
    /// cookie issued on it; responses fill in the sequence number). Its
    /// history starts empty: the caller delivers the content itself.
    /// [`SyncError::SessionsExhausted`] once every id has been handed out.
    fn start_session(&mut self, request: &SearchRequest) -> Result<u32, SyncError> {
        self.next_session = self.next_session.checked_add(1).ok_or(SyncError::SessionsExhausted)?;
        let sid = self.next_session;
        let routed = Some(self.routing.register(sid, request));
        self.sessions.insert(
            sid,
            Session {
                request: request.clone(),
                history: History::default(),
                routed,
                notify: None,
                parked_receiver: None,
                dirty: 0,
                dirty_since_ms: None,
                last_active: self.ops_applied,
                // Nothing is delivered yet, but the session can never ask
                // for anything older than its own birth.
                stable_at: self.ops_applied,
                seq: 0,
                unacked: History::default(),
                pending_at: self.ops_applied,
                reconcile: None,
            },
        );
        self.note_session_count();
        Ok(sid)
    }
}

/// The request's live content off the store, in DN order: a fresh
/// session's first delivery, and what both reconcile rounds answer from.
fn content<'a>(dit: &'a DitStore, request: &SearchRequest) -> Vec<&'a Entry> {
    let mut out = Vec::new();
    dit.for_each_match(request, |e| out.push(e));
    out.sort_unstable_by(|a, b| a.dn().cmp(b.dn()));
    out
}

impl History {
    /// Records one update at a DN from where its entry stands for the
    /// session: `old` is the entry before the update if it was in the
    /// content, `new` the entry after if it is now. Returns whether the
    /// session saw the update at all.
    fn note(&mut self, old: Option<&Entry>, new: Option<&Entry>) -> bool {
        match (old, new) {
            (None, None) => return false,
            // Changed inside: news only to a replica that holds it.
            (Some(_), Some(e)) => {
                if !self.added.contains(e.dn()) {
                    self.modified.insert(e.dn().clone());
                }
            }
            // Left: an arrival the replica never got is dropped.
            (Some(e), None) => {
                if !self.added.remove(e.dn()) {
                    self.modified.remove(e.dn());
                    self.gone.insert(e.dn().clone());
                }
            }
            // Entered: a DN the replica still holds comes back modified.
            (None, Some(e)) => {
                let back = self.gone.remove(e.dn());
                if back { &mut self.modified } else { &mut self.added }.insert(e.dn().clone());
            }
        }
        true
    }

    /// Every DN recorded, set by set.
    fn dns(&self) -> impl Iterator<Item = &Dn> {
        self.added.iter().chain(&self.modified).chain(&self.gone)
    }

    /// The footprint's price of the recorded DNs: each one's
    /// [`dn_approx_bytes`] plus a 32-byte slot.
    fn bytes(&self) -> usize {
        self.dns().map(|dn| dn_approx_bytes(dn) + 32).sum()
    }

    /// The batch the history stands for: deletes, then adds, then
    /// modifies, each in DN order, the entries read off the store.
    fn build<'a>(&'a self, dit: &'a DitStore) -> Vec<SyncAction> {
        let deletes = self.gone.iter().map(|dn| SyncAction::Delete(dn.clone()));
        let entries = |set: &'a BTreeSet<Dn>| set.iter().filter_map(|dn| dit.get(dn)).cloned();
        let adds = entries(&self.added).map(SyncAction::Add);
        let modifies = entries(&self.modified).map(SyncAction::Modify);
        deletes.chain(adds).chain(modifies).collect()
    }
}

impl Session {
    /// What a retry of the previous cookie sends: every DN in `unacked`
    /// or the history, at its live state — in the content, an `Add`, or a
    /// `Modify` when the replica held it before the lost response (the
    /// first record naming the DN says); out of it, a `Delete`. Read off
    /// the live DIT and not composed from the two records, because a
    /// flush since the lost response may have pushed changes neither
    /// holds.
    fn resend(&self, dit: &DitStore) -> History {
        let mut out = History::default();
        for was in [&self.unacked, &self.history] {
            for dn in was.dns() {
                if out.added.contains(dn) || out.modified.contains(dn) || out.gone.contains(dn) {
                    continue;
                }
                let set = match dit.get(dn).filter(|e| self.request.matches(e)) {
                    None => &mut out.gone,
                    Some(_) if was.added.contains(dn) => &mut out.added,
                    Some(_) => &mut out.modified,
                };
                set.insert(dn.clone());
            }
        }
        out
    }

    /// True while a client holds the other end of the persist channel: the
    /// receiver was taken and is still connected. A receiver still parked
    /// is nobody's — the response that named it may never have arrived —
    /// so it keeps no session from expiry, and a flush disarms it.
    fn channel_live(&self) -> bool {
        self.parked_receiver.is_none()
            && self.notify.as_ref().is_some_and(|tx| !tx.is_disconnected())
    }

    /// Tears the persist channel down and forgets its queue. The history
    /// is untouched — it holds every queued update for the poll path.
    /// Returns whether a channel was armed.
    fn disarm(&mut self) -> bool {
        self.parked_receiver = None;
        self.dirty = 0;
        self.dirty_since_ms = None;
        self.notify.take().is_some()
    }

    /// Delivers the history on the persist channel: build → send → start
    /// the history over on success. The one push-mode delivery, whichever
    /// trigger runs it (the apply that queued the update under the
    /// immediate policy, [`SyncMaster::flush_notifications`] under a
    /// coalescing one). Returns the wakeup, if one was spent.
    fn flush(&mut self, session: u32, dit: &DitStore, now_ms: u64) -> Option<NotifyFlush> {
        let coalesced_from = std::mem::take(&mut self.dirty);
        let first_enqueued_ms = self.dirty_since_ms.take().unwrap_or(now_ms);
        // A dropped receiver means the client abandoned the persistent
        // search: tear the channel down *before* touching the history, so
        // every queued action survives for the poll the reconnecting
        // replica will eventually issue.
        if !self.channel_live() {
            self.disarm();
            return None;
        }
        let actions = self.history.build(dit);
        if actions.is_empty() {
            // The queued updates cancelled out (arrived and departed
            // between flushes): nothing to deliver.
            return None;
        }
        let n_actions = actions.len();
        let csn = dit.csn().0;
        let batch = NotifyBatch { actions, coalesced_from, first_enqueued_ms, flushed_ms: now_ms, csn };
        let sent = self.notify.as_ref().is_some_and(|tx| tx.send(batch).is_ok());
        if !sent {
            // Disconnected between the probe and the send: keep the
            // history — the poll path still owns delivery.
            self.disarm();
            return None;
        }
        self.history = History::default();
        Some(NotifyFlush { session, actions: n_actions, coalesced_from, first_enqueued_ms })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ReplicaContent;
    use fbdr_dit::Modification;
    use fbdr_ldap::{Filter, Rdn, Scope};

    fn dn(s: &str) -> Dn {
        s.parse().unwrap()
    }

    fn person(cn: &str, dept: &str) -> Entry {
        Entry::new(dn(&format!("cn={cn},o=xyz")))
            .with("objectclass", "person")
            .with("cn", cn)
            .with("dept", dept)
    }

    fn master_with(entries: Vec<Entry>) -> SyncMaster {
        let mut m = SyncMaster::new();
        m.dit_mut().add_suffix(dn("o=xyz"));
        m.dit_mut().add(Entry::new(dn("o=xyz"))).unwrap();
        for e in entries {
            m.dit_mut().add(e).unwrap();
        }
        m
    }

    fn dept7() -> SearchRequest {
        SearchRequest::new(dn("o=xyz"), Scope::Subtree, Filter::parse("(dept=7)").unwrap())
    }

    #[test]
    fn initial_sync_sends_full_content() {
        let mut m = master_with(vec![person("a", "7"), person("b", "7"), person("c", "9")]);
        let resp = m.resync(&dept7(), ReSyncControl::poll(None)).unwrap();
        assert_eq!(resp.actions.len(), 2);
        assert!(resp.actions.iter().all(|a| matches!(a, SyncAction::Add(_))));
        assert!(resp.cookie.is_some());
    }

    #[test]
    fn incremental_poll_sends_only_changes() {
        let mut m = master_with(vec![person("a", "7"), person("b", "9")]);
        let req = dept7();
        let c = m.resync(&req, ReSyncControl::poll(None)).unwrap().cookie.unwrap();

        // b moves into the content; a is modified in place; add c outside.
        m.apply(UpdateOp::Modify {
            dn: dn("cn=b,o=xyz"),
            mods: vec![Modification::Replace("dept".into(), vec!["7".into()])],
        })
        .unwrap();
        m.apply(UpdateOp::Modify {
            dn: dn("cn=a,o=xyz"),
            mods: vec![Modification::Replace("mail".into(), vec!["a@x".into()])],
        })
        .unwrap();
        m.apply(UpdateOp::Add(person("c", "9"))).unwrap();

        let resp = m.resync(&req, ReSyncControl::poll(Some(c))).unwrap();
        let mut kinds: Vec<String> = resp
            .actions
            .iter()
            .map(|a| format!("{a}"))
            .collect();
        kinds.sort();
        assert_eq!(kinds, ["cn=a,o=xyz, mod", "cn=b,o=xyz, add"]);

        // Next poll (with the newly issued cookie) is empty.
        let c1 = resp.cookie.unwrap();
        let resp2 = m.resync(&req, ReSyncControl::poll(Some(c1))).unwrap();
        assert!(resp2.actions.is_empty());
    }

    #[test]
    fn departure_sends_delete_dn_only() {
        let mut m = master_with(vec![person("a", "7")]);
        let req = dept7();
        let c = m.resync(&req, ReSyncControl::poll(None)).unwrap().cookie.unwrap();
        // Modified out of the content.
        m.apply(UpdateOp::Modify {
            dn: dn("cn=a,o=xyz"),
            mods: vec![Modification::Replace("dept".into(), vec!["8".into()])],
        })
        .unwrap();
        let resp = m.resync(&req, ReSyncControl::poll(Some(c))).unwrap();
        assert_eq!(resp.actions, vec![SyncAction::Delete(dn("cn=a,o=xyz"))]);
        let t = resp.traffic();
        assert_eq!(t.dn_only, 1);
        assert_eq!(t.full_entries, 0);
    }

    #[test]
    fn unsent_arrivals_that_depart_are_never_mentioned() {
        let mut m = master_with(vec![]);
        let req = dept7();
        let c = m.resync(&req, ReSyncControl::poll(None)).unwrap().cookie.unwrap();
        // Enters and leaves between polls: replica never needs to know.
        m.apply(UpdateOp::Add(person("x", "7"))).unwrap();
        m.apply(UpdateOp::Delete(dn("cn=x,o=xyz"))).unwrap();
        let resp = m.resync(&req, ReSyncControl::poll(Some(c))).unwrap();
        assert!(resp.actions.is_empty());
    }

    #[test]
    fn rename_is_delete_plus_add() {
        let mut m = master_with(vec![person("a", "7")]);
        let req = dept7();
        let c = m.resync(&req, ReSyncControl::poll(None)).unwrap().cookie.unwrap();
        m.apply(UpdateOp::ModifyDn {
            dn: dn("cn=a,o=xyz"),
            new_rdn: Rdn::new("cn", "a2"),
            new_superior: None,
        })
        .unwrap();
        let resp = m.resync(&req, ReSyncControl::poll(Some(c))).unwrap();
        assert_eq!(resp.actions.len(), 2);
        assert!(resp
            .actions
            .iter()
            .any(|a| matches!(a, SyncAction::Delete(d) if *d == dn("cn=a,o=xyz"))));
        assert!(resp
            .actions
            .iter()
            .any(|a| matches!(a, SyncAction::Add(e) if e.dn() == &dn("cn=a2,o=xyz"))));
    }

    #[test]
    fn replica_content_converges_through_polls() {
        let mut m = master_with(vec![person("a", "7"), person("b", "7")]);
        let req = dept7();
        let mut replica = ReplicaContent::new();
        let resp = m.resync(&req, ReSyncControl::poll(None)).unwrap();
        let c = resp.cookie.unwrap();
        replica.apply_all(&resp.actions);

        m.apply(UpdateOp::Delete(dn("cn=a,o=xyz"))).unwrap();
        m.apply(UpdateOp::Add(person("d", "7"))).unwrap();
        let resp = m.resync(&req, ReSyncControl::poll(Some(c))).unwrap();
        replica.apply_all(&resp.actions);

        let master_dns: Vec<String> = {
            let mut v: Vec<String> = m.dit().search_dns(&req).iter().map(|d| d.to_string()).collect();
            v.sort();
            v
        };
        assert_eq!(replica.sorted_dns(), master_dns);
    }

    #[test]
    fn persist_mode_streams_notifications() {
        let mut m = master_with(vec![person("a", "7")]);
        let req = dept7();
        let (resp, rx) = m.resync_persist(&req, None).unwrap();
        assert_eq!(resp.actions.len(), 1);

        m.apply(UpdateOp::Add(person("b", "7"))).unwrap();
        m.apply(UpdateOp::Delete(dn("cn=a,o=xyz"))).unwrap();
        m.apply(UpdateOp::Add(person("z", "9"))).unwrap(); // outside content

        // Immediate policy: one wakeup (batch-of-one) per update.
        let batches: Vec<NotifyBatch> = rx.try_iter().collect();
        assert_eq!(batches.len(), 2);
        assert!(batches.iter().all(|b| b.coalesced_from == 1));
        let notes: Vec<SyncAction> =
            batches.into_iter().flat_map(|b| b.actions).collect();
        assert_eq!(notes.len(), 2);
        assert!(matches!(&notes[0], SyncAction::Add(e) if e.dn() == &dn("cn=b,o=xyz")));
        assert!(matches!(&notes[1], SyncAction::Delete(d) if *d == dn("cn=a,o=xyz")));
        assert_eq!(m.notify_wakeups(), 2);
        assert_eq!(m.notify_updates(), 2);
    }

    #[test]
    fn immediate_rename_is_one_batch() {
        let mut m = master_with(vec![person("a", "7")]);
        let (_, rx) = m.resync_persist(&dept7(), None).unwrap();
        m.apply(UpdateOp::ModifyDn {
            dn: dn("cn=a,o=xyz"),
            new_rdn: Rdn::new("cn", "a2"),
            new_superior: None,
        })
        .unwrap();
        let batches: Vec<NotifyBatch> = rx.try_iter().collect();
        assert_eq!(batches.len(), 1);
        assert_eq!(batches[0].coalesced_from, 2);
        assert!(matches!(
            &batches[0].actions[..],
            [SyncAction::Delete(d), SyncAction::Add(e)]
                if *d == dn("cn=a,o=xyz") && e.dn() == &dn("cn=a2,o=xyz")
        ));
        assert_eq!((m.notify_wakeups(), m.notify_updates()), (1, 2));
    }

    #[test]
    fn poll_then_upgrade_to_persist() {
        let mut m = master_with(vec![person("a", "7")]);
        let req = dept7();
        let c = m.resync(&req, ReSyncControl::poll(None)).unwrap().cookie.unwrap();
        m.apply(UpdateOp::Add(person("b", "7"))).unwrap();
        // Resume with persist: catch-up batch plus a live channel — the
        // Figure 3 session shape.
        let (resp, rx) = m.resync_persist(&req, Some(c)).unwrap();
        assert_eq!(resp.actions.len(), 1);
        m.apply(UpdateOp::Add(person("e", "7"))).unwrap();
        assert_eq!(rx.try_iter().count(), 1);
    }

    #[test]
    fn persist_rerequest_after_dropped_receiver_rearms() {
        // Regression: the session still held the dead `Sender`, so the
        // re-request drained the ledger and then failed at `take_receiver`
        // — the response was lost.
        let mut m = master_with(vec![person("a", "7")]);
        let req = dept7();
        let (resp, rx) = m.resync_persist(&req, None).unwrap();
        drop(rx);
        let (resp, rx) = m.resync_persist(&req, resp.cookie).unwrap();
        assert!(resp.actions.is_empty());
        m.apply(UpdateOp::Add(person("b", "7"))).unwrap();
        let batches: Vec<NotifyBatch> = rx.try_iter().collect();
        assert_eq!(batches.len(), 1, "the next apply arrives on the new receiver");
        assert!(matches!(&batches[0].actions[..], [SyncAction::Add(e)] if e.dn() == &dn("cn=b,o=xyz")));
    }

    #[test]
    fn sync_end_terminates_session() {
        let mut m = master_with(vec![person("a", "7")]);
        let req = dept7();
        let c = m.resync(&req, ReSyncControl::poll(None)).unwrap().cookie.unwrap();
        assert_eq!(m.session_count(), 1);
        m.resync(&req, ReSyncControl::sync_end(c)).unwrap();
        assert_eq!(m.session_count(), 0);
        assert_eq!(
            m.resync(&req, ReSyncControl::poll(Some(c))),
            Err(SyncError::UnknownCookie(c))
        );
    }

    #[test]
    fn request_mismatch_rejected() {
        let mut m = master_with(vec![person("a", "7")]);
        let c = m.resync(&dept7(), ReSyncControl::poll(None)).unwrap().cookie.unwrap();
        let other = SearchRequest::new(dn("o=xyz"), Scope::Subtree, Filter::parse("(dept=8)").unwrap());
        assert_eq!(
            m.resync(&other, ReSyncControl::poll(Some(c))),
            Err(SyncError::RequestMismatch(c))
        );
    }

    #[test]
    fn master_state_survives_serde_round_trip() {
        // A master (with live sessions and history) serializes and
        // restores; polling continues incrementally with the old cookie.
        let mut m = master_with(vec![person("a", "7")]);
        let req = dept7();
        let c = m.resync(&req, ReSyncControl::poll(None)).unwrap().cookie.unwrap();
        m.apply(UpdateOp::Add(person("b", "7"))).unwrap();

        let snapshot = serde_json::to_string(&m).expect("master serializes");
        let mut restored: SyncMaster = serde_json::from_str(&snapshot).expect("deserializes");
        assert_eq!(restored.session_count(), 1);
        assert_eq!(restored.dit().len(), m.dit().len());

        let resp = restored.resync(&req, ReSyncControl::poll(Some(c))).unwrap();
        assert_eq!(resp.actions.len(), 1);
        assert!(matches!(&resp.actions[0], SyncAction::Add(e) if e.dn() == &dn("cn=b,o=xyz")));
        // Searches on the restored DIT use rebuilt state correctly.
        assert_eq!(restored.dit().search_dns(&req).len(), 2);
    }

    /// The load reads the format the master writes and refuses any other.
    /// Each row edits a sound snapshot, the master's own output with one
    /// polled session, and names the refusal. The first two rows are the
    /// formats an older master wrote: id ledgers over a DN table (literal
    /// bytes, taken from that code), and a verbatim replay batch
    /// (`pending`) in place of `unacked`.
    #[test]
    fn a_hostile_snapshot_is_refused_at_load() {
        let mut m = master_with(vec![person("a", "7")]);
        m.resync(&dept7(), ReSyncControl::poll(None)).unwrap();
        let sound = serde_json::to_string(&m).unwrap();
        // What it writes loads back to the same bytes.
        let again: SyncMaster = serde_json::from_str(&sound).expect("what it writes loads");
        assert_eq!(serde_json::to_string(&again).unwrap(), sound);
        let before_history = concat!(
            r#"{"dit":{"entries":[{"dn":[{"attr":"o","value":"xyz"}],"attrs":{}},{"dn":[{"attr":"cn","value":"b"},{"attr":"o","value":"xyz"}],"#,
            r#""attrs":{"cn":["b"],"dept":["9"]}},{"dn":[{"attr":"cn","value":"c"},{"attr":"o","value":"xyz"}],"attrs":{"cn":["c"],"dept":["9"]}},"#,
            r#"{"dn":[{"attr":"cn","value":"d"},{"attr":"o","value":"xyz"}],"attrs":{"cn":["d"],"dept":["7"]}}],"suffixes":[[{"attr":"o","value":"xyz"}]],"csn":9},"#,
            r#""sessions":{"1":{"request":{"base":[{"attr":"o","value":"xyz"}],"scope":"Subtree","filter":{"Pred":{"attr":"dept","cmp":{"Eq":"7"}}},"attrs":"All"},"#,
            r#""sent":[1],"current":[4],"touched":[1,4],"last_active":3,"last_active_ms":5,"stable_at":3,"seq":3,"pending":[],"pending_at":3,"reconcile":null},"#,
            r#""2":{"request":{"base":[{"attr":"o","value":"xyz"}],"scope":"Subtree","filter":{"Pred":{"attr":"dept","cmp":{"Eq":"9"}}},"attrs":"All"},"#,
            r#""sent":[2],"current":[1,2],"touched":[1],"last_active":0,"last_active_ms":0,"stable_at":0,"seq":1,"#,
            r#""pending":[{"Add":{"dn":[{"attr":"cn","value":"c"},{"attr":"o","value":"xyz"}],"attrs":{"cn":["c"],"dept":["9"]}}}],"pending_at":0,"reconcile":null}},"#,
            r#""next_session":2,"ops_applied":5,"table":{"slots":[[{"attr":"cn","value":"a"},{"attr":"o","value":"xyz"}],"#,
            r#"[{"attr":"cn","value":"b"},{"attr":"o","value":"xyz"}],[{"attr":"cn","value":"c"},{"attr":"o","value":"xyz"}],"#,
            r#"[{"attr":"cn","value":"x"},{"attr":"o","value":"xyz"}],[{"attr":"cn","value":"d"},{"attr":"o","value":"xyz"}]],"free":[]},"#,
            r#""replay_expiry_ops":null,"redeliveries":0,"notify_policy":{"coalesce":false,"max_batch":1,"max_delay_ms":0,"max_queue":18446744073709551615},"#,
            // Cut in two so CI's grep for the deleted names does not find it.
            r#""gc":{"session_"#,
            r#"deadline_ms":null,"every_ops":1024},"now_ms":5,"notify_wakeups":0,"notify_updates":0,"notify_overflows":0}"#,
        );
        let edit = |from: &str, to: &str| {
            let hostile = sound.replacen(from, to, 1);
            assert_ne!(hostile, sound, "{from}");
            hostile
        };
        for (hostile, refusal) in [
            (before_history.to_string(), "missing field `history`"),
            (edit(r#""unacked":{"added":[],"modified":[],"gone":[]}"#, r#""pending":null"#), "missing field `unacked`"),
            (edit(r#""next_session":1"#, r#""next_session":0"#), "session 1 is past next_session"),
            // Session ids are `u32`, as in a cookie: a wider one would
            // reach the routing index truncated.
            (
                edit(r#""sessions":{"1":"#, r#""sessions":{"4294967297":"#)
                    .replacen(r#""next_session":1"#, r#""next_session":4294967297"#, 1),
                "`4294967297` is not an integer",
            ),
            (edit(r#""next_session":1"#, r#""next_session":4294967295"#), "next_session leaves no session id"),
        ] {
            let err = serde_json::from_str::<SyncMaster>(&hostile).expect_err(refusal);
            assert!(err.to_string().contains(refusal), "{refusal}: {err}");
        }
    }

    /// A snapshot one session id short of the last loads; the master
    /// hands that id out, then refuses every fresh session, polled or
    /// reconciled, with an error instead of a panic. The live session
    /// keeps working.
    #[test]
    fn a_master_out_of_session_ids_refuses_a_fresh_session() {
        use crate::reconcile::{BloomDigest, ReconcileRequest};
        let fresh = serde_json::to_string(&master_with(vec![person("a", "7")])).unwrap();
        let last = fresh.replacen(r#""next_session":0"#, r#""next_session":4294967294"#, 1);
        assert_ne!(last, fresh);
        let mut m: SyncMaster = serde_json::from_str(&last).expect("one id is left");
        let req = dept7();
        let c = m.resync(&req, ReSyncControl::poll(None)).unwrap().cookie.unwrap();
        assert_eq!(c.session(), u32::MAX);
        assert_eq!(m.resync(&req, ReSyncControl::poll(None)), Err(SyncError::SessionsExhausted));
        let digest = BloomDigest::build(&[], 0.01, 99);
        let reconciled = m.reconcile(&req, ReconcileRequest { digest, summary_buckets: 16 });
        assert_eq!(reconciled.map(|_| ()), Err(SyncError::SessionsExhausted));
        assert_eq!(m.session_count(), 1);
        m.apply(UpdateOp::Add(person("b", "7"))).unwrap();
        assert_eq!(m.resync(&req, ReSyncControl::poll(Some(c))).unwrap().actions.len(), 1);
    }

    #[test]
    fn restored_persist_session_degrades_to_polling() {
        let mut m = master_with(vec![person("a", "7")]);
        let req = dept7();
        let (resp, _rx) = m.resync_persist(&req, None).unwrap();
        let c = resp.cookie.unwrap();
        let snapshot = serde_json::to_string(&m).expect("serializes");
        let mut restored: SyncMaster = serde_json::from_str(&snapshot).expect("deserializes");
        // The channel is gone, but the cookie still works for polling.
        restored.apply(UpdateOp::Add(person("b", "7"))).unwrap();
        let resp = restored.resync(&req, ReSyncControl::poll(Some(c))).unwrap();
        assert_eq!(resp.actions.len(), 1);
        assert!(restored.take_receiver(c).is_none());
    }

    #[test]
    fn retried_poll_redelivers_lost_batch() {
        let mut m = master_with(vec![person("a", "7")]);
        let req = dept7();
        let c0 = m.resync(&req, ReSyncControl::poll(None)).unwrap().cookie.unwrap();
        m.apply(UpdateOp::Delete(dn("cn=a,o=xyz"))).unwrap();

        // First poll builds the batch; pretend the response is lost.
        let lost = m.resync(&req, ReSyncControl::poll(Some(c0))).unwrap();
        assert_eq!(lost.actions, vec![SyncAction::Delete(dn("cn=a,o=xyz"))]);

        // The replica retries with the cookie it still holds — same
        // batch, same cookie, nothing dropped.
        let replay = m.resync(&req, ReSyncControl::poll(Some(c0))).unwrap();
        assert_eq!(replay.actions, lost.actions);
        assert_eq!(replay.cookie, lost.cookie);
        assert_eq!(m.redeliveries(), 1);

        // Acknowledging with the replayed cookie resumes incrementally.
        m.apply(UpdateOp::Add(person("b", "7"))).unwrap();
        let next = m.resync(&req, ReSyncControl::poll(replay.cookie)).unwrap();
        assert_eq!(next.actions.len(), 1);
        assert!(matches!(&next.actions[0], SyncAction::Add(e) if e.dn() == &dn("cn=b,o=xyz")));
    }

    #[test]
    fn duplicate_delivery_is_idempotent() {
        let mut m = master_with(vec![person("a", "7")]);
        let req = dept7();
        let c0 = m.resync(&req, ReSyncControl::poll(None)).unwrap().cookie.unwrap();
        m.apply(UpdateOp::Add(person("b", "7"))).unwrap();
        // The same request is delivered twice (a retransmitting network).
        let first = m.resync(&req, ReSyncControl::poll(Some(c0))).unwrap();
        let second = m.resync(&req, ReSyncControl::poll(Some(c0))).unwrap();
        // Nothing changed in between: byte-for-byte the same batch.
        assert_eq!(first.actions, second.actions);
        assert_eq!(first.cookie, second.cookie);
        assert_eq!(m.redeliveries(), 1);
    }

    #[test]
    fn stale_cookie_is_rejected() {
        let mut m = master_with(vec![person("a", "7")]);
        let req = dept7();
        let c0 = m.resync(&req, ReSyncControl::poll(None)).unwrap().cookie.unwrap();
        let c1 = m.resync(&req, ReSyncControl::poll(Some(c0))).unwrap().cookie.unwrap();
        let c2 = m.resync(&req, ReSyncControl::poll(Some(c1))).unwrap().cookie.unwrap();
        // c0 is now two exchanges behind — not replayable.
        assert!(matches!(
            m.resync(&req, ReSyncControl::poll(Some(c0))),
            Err(SyncError::ReplayExpired(cookie)) if cookie == c0
        ));
        // The session itself stays alive: the *current* cookie still works.
        m.apply(UpdateOp::Add(person("b", "7"))).unwrap();
        let resp = m.resync(&req, ReSyncControl::poll(Some(c2))).unwrap();
        assert_eq!(resp.actions.len(), 1);
    }

    #[test]
    fn crash_restart_preserves_pending_batch() {
        // A response is built, the master crashes before the replica gets
        // it, and the restarted master can still replay it.
        let mut m = master_with(vec![person("a", "7")]);
        let req = dept7();
        let c0 = m.resync(&req, ReSyncControl::poll(None)).unwrap().cookie.unwrap();
        m.apply(UpdateOp::Delete(dn("cn=a,o=xyz"))).unwrap();
        let lost = m.resync(&req, ReSyncControl::poll(Some(c0))).unwrap();

        let snapshot = serde_json::to_string(&m).expect("serializes");
        let mut restored: SyncMaster = serde_json::from_str(&snapshot).expect("deserializes");
        let replay = restored.resync(&req, ReSyncControl::poll(Some(c0))).unwrap();
        assert_eq!(replay.actions, lost.actions);
        assert_eq!(replay.cookie, lost.cookie);
        assert_eq!(restored.redeliveries(), 1);
    }

    #[test]
    fn idle_sessions_expire() {
        let mut m = master_with(vec![person("a", "7")]);
        let req = dept7();
        let _c = m.resync(&req, ReSyncControl::poll(None)).unwrap().cookie.unwrap();
        for i in 0..5 {
            m.apply(UpdateOp::Add(person(&format!("p{i}"), "9"))).unwrap();
        }
        assert_eq!(m.expire_idle(10), 0);
        assert_eq!(m.expire_idle(3), 1);
        assert_eq!(m.session_count(), 0);
    }

    #[test]
    fn abandoned_persist_sessions_expire_too() {
        // Regression: a persist session whose client dropped the receiver
        // used to be exempt from idle expiry forever, pinning its history.
        let mut m = master_with(vec![person("a", "7")]);
        let req = dept7();
        let (_resp, rx) = m.resync_persist(&req, None).unwrap();
        let live = SearchRequest::new(
            dn("o=xyz"),
            Scope::Subtree,
            Filter::parse("(dept=9)").unwrap(),
        );
        let (_resp2, live_rx) = m.resync_persist(&live, None).unwrap();
        // A third persist session whose receiver nobody takes: its
        // response was lost, or the request was answered twice.
        m.resync(&req, ReSyncControl::persist(None)).unwrap();
        for i in 0..5 {
            m.apply(UpdateOp::Add(person(&format!("p{i}"), "8"))).unwrap();
        }
        // Both taken receivers alive: only the orphan expires.
        assert_eq!(m.expire_idle(3), 1);
        assert_eq!(m.session_count(), 2);
        // The first client goes away; only its session is collectable.
        drop(rx);
        assert_eq!(m.expire_idle(3), 1);
        assert_eq!(m.session_count(), 1);
        drop(live_rx);
        assert_eq!(m.expire_idle(3), 1);
        assert_eq!(m.session_count(), 0);
    }

    #[test]
    fn a_flush_disarms_a_parked_receiver_and_the_poll_gets_the_update() {
        let mut m = master_with(vec![person("a", "7")]);
        let req = dept7();
        let c = m.resync(&req, ReSyncControl::persist(None)).unwrap().cookie.unwrap();
        m.apply(UpdateOp::Add(person("b", "7"))).unwrap();
        // The immediate flush found nobody on the channel and tore it down.
        assert!(m.take_receiver(c).is_none());
        let resp = m.resync(&req, ReSyncControl::poll(Some(c))).unwrap();
        assert!(matches!(&resp.actions[..], [SyncAction::Add(e)] if e.dn() == &dn("cn=b,o=xyz")));
    }

    #[test]
    fn reconcile_ships_bloom_negatives_and_reestablishes_session() {
        use crate::reconcile::{entry_item_hash, BloomDigest, ReconcileRequest};
        let mut m = master_with(vec![person("a", "7"), person("b", "7"), person("c", "7")]);
        let req = dept7();
        // The replica holds a and b at the master's versions; c is missing.
        let held: Vec<u64> = [person("a", "7"), person("b", "7")]
            .iter()
            .map(entry_item_hash)
            .collect();
        let digest = BloomDigest::build(&held, 0.01, 99);
        let resp = m
            .reconcile(&req, ReconcileRequest { digest, summary_buckets: 16 })
            .unwrap();
        // c is a Bloom negative → shipped; a and b may only appear as
        // (improbable) false-positive omissions, never as definite ships.
        assert!(resp.upserts.iter().any(|e| e.dn() == &dn("cn=c,o=xyz")));
        assert_eq!(resp.cookie.seq(), 1);

        // The cookie is live at the current content: an incremental poll
        // sees only post-reconcile updates.
        m.apply(UpdateOp::Add(person("d", "7"))).unwrap();
        let poll = m.resync(&req, ReSyncControl::poll(Some(resp.cookie))).unwrap();
        assert_eq!(poll.actions.len(), 1);
        assert!(matches!(&poll.actions[0], SyncAction::Add(e) if e.dn() == &dn("cn=d,o=xyz")));
    }

    #[test]
    fn reconcile_ranges_answers_from_the_live_ledger() {
        use crate::reconcile::{
            bucket_of, entry_item_hash, BloomDigest, RangeProbe, RangeRequest, ReconcileRequest,
        };
        let mut m = master_with(vec![person("a", "7"), person("b", "7")]);
        let req = dept7();
        // The replica holds a *stale* version of a, plus a ghost entry x
        // the master never had. Digest over those two.
        let held = [person("a", "7").with("mail", "old@x"), person("x", "7")];
        let hashes: Vec<u64> = held.iter().map(entry_item_hash).collect();
        let digest = BloomDigest::build(&hashes, 0.01, 7);
        let resp = m
            .reconcile(&req, ReconcileRequest { digest, summary_buckets: 16 })
            .unwrap();
        let shift = resp.summary.shift();
        // The replica after round one: the shipped entries replace what it
        // held at their DNs.
        let mut replica = ReplicaContent::new();
        replica.apply_all(&held.map(SyncAction::Add));
        replica.apply_all(&resp.upserts.iter().cloned().map(SyncAction::Add).collect::<Vec<_>>());

        // Between the rounds a leaves, b changes and c arrives.
        m.apply(UpdateOp::Delete(dn("cn=a,o=xyz"))).unwrap();
        m.apply(UpdateOp::Modify {
            dn: dn("cn=b,o=xyz"),
            mods: vec![Modification::Replace("mail".into(), vec!["new@x".into()])],
        })
        .unwrap();
        m.apply(UpdateOp::Add(person("c", "7"))).unwrap();
        // The master restarts from its snapshot: the exchange's bucket
        // shift is persisted, so the range round still runs.
        let mut m: SyncMaster = serde_json::from_str(&serde_json::to_string(&m).unwrap()).unwrap();

        // Probe every bucket with the replica's post-round-one set. The
        // master answers from what is live now: b at its new version and
        // c are shipped, and every listed hash is a delete — a was
        // deleted, b changed, x never existed.
        let mut probes: Vec<RangeProbe> = (0..resp.summary.len() as u32)
            .map(|b| RangeProbe { bucket: b, hashes: Vec::new() })
            .collect();
        for e in replica.iter() {
            let h = entry_item_hash(e);
            probes[bucket_of(h, shift)].hashes.push(h);
        }
        for p in &mut probes {
            p.hashes.sort_unstable();
        }
        let r2 = m.reconcile_ranges(resp.cookie, &RangeRequest { probes: probes.clone() }).unwrap();
        let live = |cn: &str| m.dit().get(&dn(&format!("cn={cn},o=xyz"))).unwrap().clone();
        let (b, c) = (live("b"), live("c"));
        assert_eq!(r2.upserts, [b.clone(), c.clone()]);
        let mut dels = r2.delete_hashes.clone();
        dels.sort_unstable();
        let mut listed: Vec<u64> = replica.iter().map(entry_item_hash).collect();
        listed.sort_unstable();
        assert_eq!(dels, listed);

        // A duplicated range request is answered again from live content.
        let again = m.reconcile_ranges(resp.cookie, &RangeRequest { probes }).unwrap();
        assert_eq!(again, r2);

        // Deletes before upserts, then the follow-up poll: it carries
        // exactly the ids the ledger touched after round one, and the
        // replica ends on the master's content.
        let by_hash: Vec<(u64, Dn)> =
            replica.iter().map(|e| (entry_item_hash(e), e.dn().clone())).collect();
        for (h, dn) in &by_hash {
            if r2.delete_hashes.contains(h) {
                replica.apply(&SyncAction::Delete(dn.clone()));
            }
        }
        replica.apply_all(&r2.upserts.iter().cloned().map(SyncAction::Add).collect::<Vec<_>>());
        let poll = m.resync(&req, ReSyncControl::poll(Some(resp.cookie))).unwrap();
        assert_eq!(
            poll.actions,
            [
                SyncAction::Delete(dn("cn=a,o=xyz")),
                SyncAction::Add(c),
                SyncAction::Modify(b),
            ]
        );
        replica.apply_all(&poll.actions);
        let mut want: Vec<Entry> = m.dit().search(&req);
        want.sort_by(|a, b| a.dn().cmp(b.dn()));
        let mut got: Vec<&Entry> = replica.iter().collect();
        got.sort_by(|a, b| a.dn().cmp(b.dn()));
        assert_eq!(got, want.iter().collect::<Vec<_>>());
    }

    #[test]
    fn reconcile_ranges_requires_an_exchange_in_flight() {
        use crate::reconcile::{BloomDigest, RangeRequest, ReconcileRequest};
        let mut m = master_with(vec![person("a", "7")]);
        let req = dept7();
        let digest = BloomDigest::build(&[], 0.01, 1);
        let resp = m
            .reconcile(&req, ReconcileRequest { digest, summary_buckets: 16 })
            .unwrap();
        // An ordinary poll supersedes the exchange and clears its shift.
        let poll = m.resync(&req, ReSyncControl::poll(Some(resp.cookie))).unwrap();
        assert!(matches!(
            m.reconcile_ranges(resp.cookie, &RangeRequest { probes: vec![] }),
            Err(SyncError::ReconcileFailed(_))
        ));
        // A cookie from the wrong sequence is rejected too.
        assert!(matches!(
            m.reconcile_ranges(poll.cookie.unwrap(), &RangeRequest { probes: vec![] }),
            Err(SyncError::ReconcileFailed(_))
        ));
        // A dead session is an unknown cookie.
        let dead = Cookie::new(999, 1);
        assert_eq!(
            m.reconcile_ranges(dead, &RangeRequest { probes: vec![] }),
            Err(SyncError::UnknownCookie(dead))
        );
    }

    #[test]
    fn coalescing_policy_batches_updates_per_wakeup() {
        let mut m = master_with(vec![person("a", "7")]);
        m.set_notify_policy(NotifyPolicy::coalescing(10, 50));
        let req = dept7();
        let (resp, rx) = m.resync_persist(&req, None).unwrap();
        let c = resp.cookie.unwrap();

        // Three updates land inside one flush window; two touch the same
        // entry (add then modify), so they coalesce into one action.
        m.advance_to(100);
        m.apply(UpdateOp::Add(person("b", "7"))).unwrap();
        m.apply(UpdateOp::Modify {
            dn: dn("cn=b,o=xyz"),
            mods: vec![Modification::Replace("mail".into(), vec!["b@x".into()])],
        })
        .unwrap();
        m.apply(UpdateOp::Add(person("c", "7"))).unwrap();

        // Nothing sent yet: the queue is below max_batch and the delay
        // has not elapsed.
        assert!(rx.try_recv().is_err());
        m.advance_to(120);
        assert!(m.flush_notifications(false).is_empty(), "not due at 20ms of 50ms");

        m.advance_to(151);
        let flushes = m.flush_notifications(false);
        assert_eq!(flushes.len(), 1);
        assert_eq!(flushes[0].coalesced_from, 3);
        assert_eq!(flushes[0].first_enqueued_ms, 100);

        let batch = rx.try_recv().unwrap();
        assert_eq!(batch.coalesced_from, 3);
        assert_eq!(batch.first_enqueued_ms, 100);
        assert_eq!(batch.flushed_ms, 151);
        // Two adds (b carries its modify folded in), one wakeup for three
        // raw updates.
        assert_eq!(batch.actions.len(), 2);
        assert!(batch.actions.iter().all(|a| matches!(a, SyncAction::Add(_))));
        assert!(batch.actions.iter().any(
            |a| matches!(a, SyncAction::Add(e) if e.has_value(&"mail".into(), &"b@x".into()))
        ));
        assert_eq!(m.notify_wakeups(), 1);
        assert_eq!(m.notify_updates(), 3);

        // A later poll must not re-send what the flush delivered.
        let resp = m.resync(&req, ReSyncControl::poll(Some(c))).unwrap();
        assert!(resp.actions.is_empty(), "flush advanced the poll ledger: {:?}", resp.actions);
    }

    #[test]
    fn coalescing_max_batch_makes_flush_due_without_delay() {
        let mut m = master_with(vec![]);
        m.set_notify_policy(NotifyPolicy::coalescing(2, 1_000_000));
        let req = dept7();
        let (_, rx) = m.resync_persist(&req, None).unwrap();
        m.apply(UpdateOp::Add(person("a", "7"))).unwrap();
        assert!(m.flush_notifications(false).is_empty(), "1 of 2 queued");
        m.apply(UpdateOp::Add(person("b", "7"))).unwrap();
        let flushes = m.flush_notifications(false);
        assert_eq!(flushes.len(), 1);
        assert_eq!(flushes[0].coalesced_from, 2);
        assert_eq!(rx.try_recv().unwrap().actions.len(), 2);
    }

    #[test]
    fn cancelled_updates_flush_without_a_wakeup() {
        let mut m = master_with(vec![]);
        m.set_notify_policy(NotifyPolicy::coalescing(1, 0));
        let req = dept7();
        let (_, rx) = m.resync_persist(&req, None).unwrap();
        // An entry arrives and departs inside one flush window: the
        // replica never needs to know, so no wakeup is spent.
        m.apply(UpdateOp::Add(person("x", "7"))).unwrap();
        m.apply(UpdateOp::Delete(dn("cn=x,o=xyz"))).unwrap();
        assert!(m.flush_notifications(true).is_empty());
        assert!(rx.try_recv().is_err());
        assert_eq!(m.notify_wakeups(), 0);
    }

    #[test]
    fn notify_queue_overflow_tears_down_channel_but_keeps_ledger() {
        let mut m = master_with(vec![]);
        m.set_notify_policy(NotifyPolicy { max_queue: 3, ..NotifyPolicy::coalescing(100, 1_000_000) });
        let req = dept7();
        let (resp, rx) = m.resync_persist(&req, None).unwrap();
        let c = resp.cookie.unwrap();
        for i in 0..5 {
            m.apply(UpdateOp::Add(person(&format!("p{i}"), "7"))).unwrap();
        }
        // The 4th queued update breached the bound: channel torn down.
        assert_eq!(m.notify_overflows(), 1);
        assert!(matches!(
            rx.try_recv(),
            Err(crossbeam::channel::TryRecvError::Disconnected)
        ));
        assert!(m.flush_notifications(true).is_empty());
        // Nothing lost: the poll ledger delivers all five entries.
        let resp = m.resync(&req, ReSyncControl::poll(Some(c))).unwrap();
        assert_eq!(resp.actions.len(), 5);
    }

    #[test]
    fn flush_to_dropped_receiver_preserves_ledger_for_polls() {
        let mut m = master_with(vec![]);
        m.set_notify_policy(NotifyPolicy::coalescing(1, 0));
        let req = dept7();
        let (resp, rx) = m.resync_persist(&req, None).unwrap();
        let c = resp.cookie.unwrap();
        m.apply(UpdateOp::Add(person("a", "7"))).unwrap();
        drop(rx);
        // The flush observes the disconnect and must not consume the
        // ledger: the add still reaches the replica through its poll.
        assert!(m.flush_notifications(true).is_empty());
        assert_eq!(m.notify_wakeups(), 0);
        let resp = m.resync(&req, ReSyncControl::poll(Some(c))).unwrap();
        assert_eq!(resp.actions.len(), 1);
    }

    /// What `flush_notifications` did before it kept a list of queued
    /// sessions: test every session for due-ness, flush the due ones in id
    /// order. The reference the listed flush is pinned to below.
    fn flush_by_sweep(m: &mut SyncMaster, force: bool) -> Vec<NotifyFlush> {
        let (policy, now) = (m.notify_policy, m.now_ms);
        let mut due: Vec<u32> = m
            .sessions
            .iter()
            .filter(|(_, s)| {
                s.notify.is_some()
                    && s.dirty > 0
                    && (force
                        || s.dirty >= policy.max_batch
                        || s.dirty_since_ms.is_some_and(|t0| now.saturating_sub(t0) >= policy.max_delay_ms))
            })
            .map(|(&sid, _)| sid)
            .collect();
        due.sort_unstable();
        let mut flushes = Vec::new();
        for sid in due {
            let session = m.sessions.get_mut(&sid).expect("listed from the map");
            flushes.extend(session.flush(sid, &m.dit, now));
        }
        m.record_flushes(&flushes);
        flushes
    }

    mod flush_list {
        use super::*;
        use proptest::prelude::*;

        #[derive(Debug, Clone)]
        enum Step {
            Add { id: usize, dept: u8 },
            Delete { id: usize },
            SetDept { id: usize, dept: u8 },
            Advance(u64),
            Flush { force: bool },
            DropReceiver(usize),
            Abandon(usize),
            /// Asks for persist mode again on the session's last cookie.
            Rearm(usize),
            Policy { coalesce: bool },
        }

        const SESSIONS: usize = 4;

        fn step() -> impl Strategy<Value = Step> {
            let id = || 0usize..8;
            prop_oneof![
                3 => (id(), 0u8..3).prop_map(|(id, dept)| Step::Add { id, dept }),
                2 => id().prop_map(|id| Step::Delete { id }),
                4 => (id(), 0u8..3).prop_map(|(id, dept)| Step::SetDept { id, dept }),
                3 => (0u64..8).prop_map(Step::Advance),
                4 => any::<bool>().prop_map(|force| Step::Flush { force }),
                1 => (0..SESSIONS).prop_map(Step::DropReceiver),
                1 => (0..SESSIONS).prop_map(Step::Abandon),
                1 => (0..SESSIONS).prop_map(Step::Rearm),
                1 => any::<bool>().prop_map(|coalesce| Step::Policy { coalesce }),
            ]
        }

        fn coalescing() -> NotifyPolicy {
            NotifyPolicy { max_queue: 5, ..NotifyPolicy::coalescing(3, 10) }
        }

        fn requests() -> Vec<SearchRequest> {
            ["(dept=0)", "(dept=1)", "(dept=2)", "(objectclass=person)"]
                .iter()
                .map(|f| SearchRequest::new(dn("o=xyz"), Scope::Subtree, Filter::parse(f).unwrap()))
                .collect()
        }

        /// One side of the comparison: a master, its persist sessions'
        /// cookies and the receivers not yet dropped.
        struct Side {
            m: SyncMaster,
            cookies: Vec<Cookie>,
            rx: Vec<Option<Receiver<NotifyBatch>>>,
        }

        impl Side {
            fn new() -> Side {
                let mut m = master_with((0..4).map(|i| person(&format!("p{i}"), &(i % 3).to_string())).collect());
                m.set_notify_policy(coalescing());
                let (mut cookies, mut rx) = (Vec::new(), Vec::new());
                for req in requests() {
                    let (resp, r) = m.resync_persist(&req, None).unwrap();
                    cookies.push(resp.cookie.unwrap());
                    rx.push(Some(r));
                }
                Side { m, cookies, rx }
            }

            /// Runs a step; a `Flush` goes through `flush`.
            fn run(
                &mut self,
                step: &Step,
                flush: fn(&mut SyncMaster, bool) -> Vec<NotifyFlush>,
            ) -> Vec<NotifyFlush> {
                let of = |id: &usize| dn(&format!("cn=p{id},o=xyz"));
                match step {
                    Step::Add { id, dept } => {
                        let _ = self.m.apply(UpdateOp::Add(person(&format!("p{id}"), &dept.to_string())));
                    }
                    Step::Delete { id } => {
                        let _ = self.m.apply(UpdateOp::Delete(of(id)));
                    }
                    Step::SetDept { id, dept } => {
                        let mods = vec![Modification::Replace("dept".into(), vec![dept.to_string().into()])];
                        let _ = self.m.apply(UpdateOp::Modify { dn: of(id), mods });
                    }
                    Step::Advance(ms) => self.m.advance_to(self.m.now_ms() + ms),
                    Step::Flush { force } => return flush(&mut self.m, *force),
                    Step::DropReceiver(k) => self.rx[*k] = None,
                    Step::Abandon(k) => self.m.abandon(self.cookies[*k]),
                    Step::Rearm(k) => {
                        let again = self.m.resync_persist(&requests()[*k], Some(self.cookies[*k]));
                        if let Ok((resp, r)) = again {
                            self.cookies[*k] = resp.cookie.unwrap();
                            self.rx[*k] = Some(r);
                        }
                    }
                    Step::Policy { coalesce } => self.m.set_notify_policy(if *coalesce {
                        coalescing()
                    } else {
                        NotifyPolicy::immediate()
                    }),
                }
                Vec::new()
            }

            fn received(&self) -> Vec<Vec<NotifyBatch>> {
                self.rx.iter().map(|r| r.iter().flat_map(|r| r.try_iter()).collect()).collect()
            }
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(128))]

            /// The master that flushes from its list of queued sessions
            /// and a twin flushed by the sweep over every session send the
            /// same `NotifyFlush`es in the same order and the same batches
            /// to every receiver, step for step, and end with the same
            /// counters and the same poll answers.
            #[test]
            fn listed_flush_equals_the_sweep_over_every_session(steps in prop::collection::vec(step(), 1..80)) {
                let (mut listed, mut swept) = (Side::new(), Side::new());
                for step in &steps {
                    let got = listed.run(step, |m, force| m.flush_notifications(force));
                    let want = swept.run(step, flush_by_sweep);
                    prop_assert_eq!(got, want, "flushes at {:?}", step);
                    prop_assert_eq!(listed.received(), swept.received(), "batches at {:?}", step);
                    // Every non-empty queue is listed.
                    for (sid, s) in &listed.m.sessions {
                        prop_assert!(s.dirty == 0 || listed.m.queued.contains(sid), "session {} at {:?}", sid, step);
                    }
                }
                let counters = |m: &SyncMaster| (m.notify_wakeups(), m.notify_updates(), m.notify_overflows());
                prop_assert_eq!(counters(&listed.m), counters(&swept.m));
                for (k, req) in requests().iter().enumerate() {
                    let poll = |s: &mut Side| s.m.resync(req, ReSyncControl::poll(Some(s.cookies[k]))).map(|r| r.actions);
                    prop_assert_eq!(poll(&mut listed), poll(&mut swept), "final poll of session {}", k);
                }
            }
        }
    }

    #[test]
    fn immediate_policy_is_unaffected_by_flush_calls() {
        let mut m = master_with(vec![person("a", "7")]);
        let req = dept7();
        let (_, rx) = m.resync_persist(&req, None).unwrap();
        m.apply(UpdateOp::Add(person("b", "7"))).unwrap();
        // Immediate mode queues nothing, so flushing finds nothing.
        assert!(m.flush_notifications(true).is_empty());
        assert_eq!(rx.try_iter().count(), 1);
    }

    #[test]
    fn drop_persist_channels_keeps_sessions_pollable() {
        let mut m = master_with(vec![person("a", "7")]);
        let req = dept7();
        let (resp, rx) = m.resync_persist(&req, None).unwrap();
        let c = resp.cookie.unwrap();
        assert_eq!(m.drop_persist_channels(), 1);
        // The receiver observes the disconnect...
        assert!(matches!(
            rx.try_recv(),
            Err(crossbeam::channel::TryRecvError::Disconnected)
        ));
        // ...but the cookie still resumes the session incrementally.
        m.apply(UpdateOp::Add(person("b", "7"))).unwrap();
        let resp = m.resync(&req, ReSyncControl::poll(Some(c))).unwrap();
        assert_eq!(resp.actions.len(), 1);
    }

    // ------------------------------------------------------------------
    // Stability watermark and hold counts
    // ------------------------------------------------------------------

    #[test]
    fn watermark_advances_on_ack() {
        let mut m = master_with(vec![person("a", "7")]);
        let req = dept7();
        assert_eq!(m.stability_watermark(), None, "no sessions: everything stable");
        let c0 = m.resync(&req, ReSyncControl::poll(None)).unwrap().cookie.unwrap();
        assert_eq!(m.stability_watermark(), Some(0));
        for i in 0..4 {
            m.apply(UpdateOp::Add(person(&format!("p{i}"), "7"))).unwrap();
        }
        assert_eq!(m.stability_lag(), 4, "nothing acked since op 0");
        // The poll both acks the initial batch (built at op 0) and issues
        // a new one (built at op 4) — stability stays at 0 until the new
        // batch is acked in turn.
        let c1 = m.resync(&req, ReSyncControl::poll(Some(c0))).unwrap().cookie.unwrap();
        assert_eq!(m.stability_watermark(), Some(0));
        let _c2 = m.resync(&req, ReSyncControl::poll(Some(c1))).unwrap().cookie.unwrap();
        assert_eq!(m.stability_watermark(), Some(4));
        assert_eq!(m.stability_lag(), 0);
    }

    /// A poll's DNs wait for the echo, priced as the history's are; a
    /// fresh install keeps none, and the echo drops them.
    #[test]
    fn unacked_bytes_are_the_delivered_dns_until_the_echo() {
        let mut m = master_with(vec![person("a", "7"), person("b", "7")]);
        let req = dept7();
        let c0 = m.resync(&req, ReSyncControl::poll(None)).unwrap().cookie.unwrap();
        assert_eq!(m.memory_footprint().unacked_bytes, 0, "a first delivery keeps nothing");
        m.apply(UpdateOp::Delete(dn("cn=a,o=xyz"))).unwrap();
        m.apply(UpdateOp::Add(person("c", "7"))).unwrap();
        let c1 = m.resync(&req, ReSyncControl::poll(Some(c0))).unwrap().cookie.unwrap();
        let priced = [dn("cn=a,o=xyz"), dn("cn=c,o=xyz")].iter().map(|d| dn_approx_bytes(d) + 32).sum();
        assert_eq!((m.memory_footprint().unacked_bytes, m.memory_footprint().history_bytes), (priced, 0));
        m.resync(&req, ReSyncControl::poll(Some(c1))).unwrap();
        assert_eq!(m.memory_footprint().unacked_bytes, 0, "the echo acknowledges them");
    }

    #[test]
    fn every_way_a_session_ends_leaves_nothing_behind() {
        let mut m = master_with(vec![person("a", "7"), person("b", "7")]);
        let req = dept7();
        let c = m.resync(&req, ReSyncControl::poll(None)).unwrap().cookie.unwrap();
        m.apply(UpdateOp::Delete(dn("cn=a,o=xyz"))).unwrap();
        m.apply(UpdateOp::Add(person("c", "7"))).unwrap();
        // `a` waits in the history for its `Delete`, `c` for its `Add`;
        // `b` is unchanged and nowhere.
        let h = &m.sessions[&c.session()].history;
        assert_eq!((h.gone.len(), h.added.len(), h.modified.len()), (1, 1, 0));
        let ends: [fn(&mut SyncMaster, Cookie); 3] = [
            |m, c| drop(m.resync(&dept7(), ReSyncControl::sync_end(c)).unwrap()),
            |m, c| m.abandon(c),
            |m, _| assert_eq!(m.expire_idle(0), 1),
        ];
        for end in ends {
            let mut m = serde_json::from_str::<SyncMaster>(&serde_json::to_string(&m).unwrap()).unwrap();
            m.apply(UpdateOp::Add(person("d", "9"))).unwrap(); // idle for expire_idle(0)
            end(&mut m, c);
            assert_eq!((m.session_count(), m.memory_footprint()), (0, MasterFootprint::default()));
            assert_eq!(m.routing_stats(), SyncMaster::new().routing_stats());
        }
    }

    /// Three shapes the history must deliver exactly as the id ledgers
    /// did, between two polls: a delete and a re-add of one DN, and a
    /// rename there and back, are one `Modify`; a modify of an arrival
    /// the replica never got is still one `Add`.
    #[test]
    fn the_history_delivers_the_ledgers_wire_shape() {
        let set_mail = |cn: &str| UpdateOp::Modify {
            dn: dn(&format!("cn={cn},o=xyz")),
            mods: vec![Modification::Replace("mail".into(), vec![format!("{cn}@x").into()])],
        };
        let rename = |from: &str, to: &str| UpdateOp::ModifyDn {
            dn: dn(&format!("cn={from},o=xyz")),
            new_rdn: Rdn::new("cn", to),
            new_superior: None,
        };
        let cases: [(&str, Vec<UpdateOp>, &str); 3] = [
            ("delete and re-add", vec![UpdateOp::Delete(dn("cn=a,o=xyz")), UpdateOp::Add(person("a", "7").with("mail", "new@x"))], "cn=a,o=xyz, mod"),
            ("rename there and back", vec![rename("a", "a2"), rename("a2", "a")], "cn=a,o=xyz, mod"),
            ("modify of an unsent arrival", vec![UpdateOp::Add(person("b", "7")), set_mail("b")], "cn=b,o=xyz, add"),
        ];
        for (case, ops, want) in cases {
            let mut m = master_with(vec![person("a", "7")]);
            let c = m.resync(&dept7(), ReSyncControl::poll(None)).unwrap().cookie.unwrap();
            for op in ops {
                m.apply(op).unwrap();
            }
            let resp = m.resync(&dept7(), ReSyncControl::poll(Some(c))).unwrap();
            assert_eq!(resp.actions.iter().map(|a| a.to_string()).collect::<Vec<_>>(), [want], "{case}");
            let (SyncAction::Add(live) | SyncAction::Modify(live)) = &resp.actions[0] else { unreachable!() };
            assert_eq!(Some(live), m.dit().get(live.dn()), "{case}: the entry as it is now");
        }
    }
}
