//! The filter-based replication model (the paper's contribution), with a
//! read/write-split concurrency design: query answering is `&self` and
//! lock-minimal, mutation publishes immutable per-epoch content snapshots.
//!
//! # Indexed evaluation
//!
//! Replica-local answering is index-backed. Every entry DN is interned to
//! a dense `u32` id once; stored-filter contents are sorted id posting
//! lists; the entry store is an id-addressed vector of shared entries; and
//! each published epoch carries a [`SnapshotIndex`] with
//! equality/prefix/range posting lists over the attributes queries have
//! planned on, each listed over the held entries once, when the first
//! query that plans on it has it kept, and from then on maintained
//! *incrementally* by the writer, never rebuilt from the entry store. A
//! drain pays for the attributes readers ask about, not for every
//! attribute the entries carry. A query is answered by
//! compiling its filter into an index plan, intersecting (galloping) with
//! the winning stored filter's list, and verifying residual predicates
//! only on the candidates — none at all when the plan is exact: then the
//! intersection is the answer, and only the query's region is checked.
//!
//! A hit reads only what it returns. A query asking exactly what its
//! container holds — the same filter, base and scope — is the container's
//! content, with no plan and no check: a cached query's frozen result
//! always (it is the master's answer to that query), a stored filter's
//! entries when the filter is *settled*, holding no body it does not
//! match. Any other query contained in a large frozen result plans through
//! the result's key columns ([`KeyColumns`]) instead of verifying every
//! frozen entry.
//!
//! # Stored-filter index
//!
//! *Which* stored filter answers a query is decided without scanning the
//! filters: the stored-filter set of a snapshot, and the window of cached
//! queries, are each registered in a [`RoutingIndex`] — the structure the
//! master routes updates with — and a query looks its witness up in it
//! (`fbdr_resync::routing`). The candidates that come back, in ascending
//! position, get the exact containment check; a query with `Or` or `Not`
//! has every filter for a candidate. The decision is the linear scan's —
//! the first containing filter, the oldest containing cached query — at a
//! cost that does not grow with the number of stored filters.
//!
//! # Publish cost
//!
//! An epoch shares with its predecessor everything the cycle did not
//! touch, node by node: the entry store is a chunked copy-on-write
//! [`SlotVec`], every map of the index a persistent [`PMap`](crate::persistent),
//! every posting list and prepared query its own `Arc`. Starting a cycle
//! copies two pointer vectors (stored filters, entry chunks); after that
//! the first touch of a node copies it and later touches edit it in
//! place, so publishing costs O(changed keys · node size), not
//! O(replica), and a bulk install stays a bulk load. The retired epoch is
//! dropped after the content lock is released.
//!
//! A persist drain that no reader is reading is an edit: when nobody holds
//! the published epoch, [`FilterReplica::drain_notifications`] applies
//! its batch to that epoch in place, under the content lock. Nothing is
//! shared, so nothing is copied — neither pointer vector, nor a chunk,
//! nor a node — and nothing is retired: the batch pays for the slots and
//! keys it writes. Install, remove, keeping an attribute and the sync
//! cycle build their epoch beside the published one, and so does a drain
//! that finds the epoch held: their edits are long, or interleave with
//! exchanges while readers read.

use crate::index::{KeyColumns, SnapshotIndex};
use crate::intern::DnTable;
use crate::persistent::SlotVec;
use crate::stats::{AtomicReplicaStats, ReplicaStats};
use crossbeam::channel::{Receiver, TryRecvError};
use fbdr_containment::{ContainmentEngine, EngineStats, PreparedQuery};
use fbdr_dit::{index, posting};
use fbdr_ldap::{AttrSelection, Entry, Filter, SearchRequest};
use fbdr_obs::{event, Counter, Gauge, Histogram, Obs, Timer};
use fbdr_resync::{
    Clock, CompositeCookie, NotifyBatch, RoutingIndex, ShardCoordinator, ShardId,
    ShardMap, ShardOutcome, ShardStatus, SyncAction, SyncDriver, SyncError, SyncMaster, SyncMode,
    SyncTransport, SyncTraffic,
};
use parking_lot::{Mutex, RwLock};
use std::collections::{HashSet, VecDeque};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};

/// One synchronized generalized filter inside a content snapshot.
///
/// Immutable once published, except for the hit counter: that is an
/// `Arc<AtomicU64>` shared across snapshot generations, so hits recorded
/// against an old epoch survive the next publish. A snapshot holds its
/// filters by value; cloning one copies three pointers, and a cycle that
/// changes a filter's content copies its posting list and nothing else.
#[derive(Debug, Clone)]
struct StoredFilter {
    prepared: Arc<PreparedQuery<'static>>,
    /// The filter's content as a sorted posting list of interned ids.
    ids: Arc<Vec<u32>>,
    /// True when the last sync cycle could not reach the master: the
    /// content is served anyway (availability over freshness) but hits
    /// are accounted as stale until a cycle succeeds.
    stale: bool,
    /// True when every entry the filter holds matches it, so that a query
    /// asking exactly for the filter's content is answered by handing the
    /// content over ([`FilterReplica::try_answer`]). True at install. The
    /// filter's own `Add`s and `Modify`s keep it: the master sent those
    /// bodies as matches. A different body stored by another filter at an
    /// id this one also holds clears it ([`apply_actions`]), and a cycle
    /// that brings every filter back fresh sets it on all of them again
    /// (`FilterReplica::run_cycle`).
    settled: bool,
    hits: Arc<AtomicU64>,
}

/// The immutable-per-epoch read view: what `try_answer` consults.
///
/// Readers clone the `Arc` (the content lock is held only for that
/// pointer copy) and then work entirely on their private snapshot, so a
/// concurrent writer publishing epoch `n+1` never disturbs a reader still
/// answering from epoch `n`.
///
/// The writer works on a clone of the current snapshot and publishes it
/// as the next epoch — except a drain that finds no reader holding the
/// current one, which edits it in place under the content lock
/// ([`FilterReplica::drain_notifications`]). Nothing is copied whole to
/// make that clone: it copies two vectors of `Arc`s (stored filters,
/// entry chunks) and the index's root pointer, and from there the first
/// touch of a chunk, index node or posting list copies it and every later
/// touch in the cycle edits it in place (see the module documentation).
/// Ids are resolved from DNs only by the writer, so the DN → id table is
/// not part of the read view ([`WriterState::table`]). The stored-filter
/// index is shared by pointer among all epochs of one filter generation.
#[derive(Debug, Clone)]
struct ContentSnapshot {
    /// Monotonic generation number; bumped by every published mutation.
    epoch: u64,
    filters: Vec<StoredFilter>,
    /// Id-addressed entry store: slot `id` holds the entry whose interned
    /// DN is `id`, or is empty when no stored filter references it.
    entries: SlotVec<Entry>,
    /// Number of occupied slots (the replica-size metric).
    live: usize,
    /// Equality/prefix/range posting lists over the occupied slots.
    index: SnapshotIndex,
    /// The stored filters registered by position — a pure function of
    /// `filters`' prepared queries, built by the first reader that needs
    /// it. One cell per filter *set*: install and remove start a new one,
    /// a content-only publish copies the pointer.
    filter_index: Arc<OnceLock<RoutingIndex>>,
}

/// The ids among `all` that `index` makes candidates for containing
/// `query`, ascending, and whether the index pruned them: a query with
/// no witness (`Or`, `Not`) has every registered id for a candidate.
fn containing_candidates(
    index: &RoutingIndex,
    query: &SearchRequest,
    all: std::ops::Range<u32>,
) -> (Vec<u32>, bool) {
    let mut ids = Vec::new();
    if !index.candidates_for_query(query.filter(), &mut ids) {
        return (all.collect(), false);
    }
    index.residual_for_dn(query.base(), &mut ids);
    ids.sort_unstable();
    ids.dedup();
    (ids, true)
}

impl ContentSnapshot {
    fn empty() -> Self {
        ContentSnapshot {
            epoch: 0,
            filters: Vec::new(),
            entries: SlotVec::default(),
            live: 0,
            index: SnapshotIndex::default(),
            filter_index: Arc::default(),
        }
    }

    /// Positions of the stored filters that can contain `query`,
    /// ascending, and whether the filter index pruned them.
    fn filter_candidates(&self, query: &SearchRequest) -> (Vec<u32>, bool) {
        let index = self.filter_index.get_or_init(|| {
            let mut index = RoutingIndex::new();
            for (pos, sf) in self.filters.iter().enumerate() {
                register_prepared(&mut index, pos as u32, &sf.prepared);
            }
            index
        });
        containing_candidates(index, query, 0..self.filters.len() as u32)
    }

    /// The entry stored under an interned id, if the slot is occupied.
    fn entry(&self, id: u32) -> Option<&Entry> {
        self.entries.get(id as usize)
    }

    /// The entries stored under a list of ids.
    fn entries_of<'a>(&'a self, ids: &'a [u32]) -> impl Iterator<Item = &'a Entry> {
        ids.iter().filter_map(|&id| self.entry(id))
    }

    /// The stored-filter *set* changed (install, remove): the filter
    /// index derived from it belongs to the previous epochs.
    fn filter_set_changed(&mut self) {
        self.filter_index = Arc::default();
    }

    /// Upserts an entry into its slot, keeping the index exact: only the
    /// kept attribute values that differ from the slot's previous occupant
    /// are re-indexed. The slot holds the handle it is given — the body the
    /// sync action carried, which an in-process master still shares.
    /// Returns the previous occupant.
    fn store(&mut self, id: u32, e: Entry) -> Option<Entry> {
        let slot = self.entries.slot_mut(id as usize);
        self.index.reindex(id, slot.as_ref(), Some(&e));
        let old = slot.replace(e);
        if old.is_none() {
            self.live += 1;
        }
        old
    }

    /// Clears a slot and unindexes the entry it held.
    fn evict(&mut self, id: u32) {
        if self.entries.get(id as usize).is_none() {
            return;
        }
        let old = self.entries.slot_mut(id as usize).take();
        self.index.reindex(id, old.as_ref(), None);
        self.live -= 1;
    }
}

/// Registers a prepared query under `id` without abstracting it again.
fn register_prepared(index: &mut RoutingIndex, id: u32, q: &PreparedQuery<'_>) {
    index.register_prepared(id, q.template(), q.values(), q.request().base());
}

/// Writer-side per-filter state that readers never touch: the ReSync
/// session cookies and the optional persist-mode notification channel.
///
/// Invariant: `WriterState::sessions` is index-aligned with the current
/// snapshot's `filters` — every mutator that adds/removes a filter updates
/// both under the writer lock before publishing.
#[derive(Debug)]
struct FilterSession {
    /// One part per shard holding a live session; a filter on an
    /// unsharded master has the single part [`ShardId::ZERO`].
    cookie: CompositeCookie,
    /// The notification receivers a persist install took, one per shard
    /// session; a receiver whose channel disconnects is dropped
    /// ([`FilterReplica::drain_notifications`]). `None` for a polled
    /// filter. Boxed, so that a polled filter's session is its cookie and
    /// one pointer: the replica keeps a session per stored filter, and
    /// only a persist filter pays for the list.
    #[allow(clippy::box_collection)]
    notifications: Option<Box<Vec<Receiver<NotifyBatch>>>>,
}

/// "How to sync one filter", as the cycle sees it: poll the filter's
/// slices (updating its cookie in place; the last argument yields the
/// filter's held entries) and report one outcome per slice.
type SyncOne<'a> =
    dyn FnMut(&SearchRequest, &mut CompositeCookie, &dyn Fn() -> Vec<Entry>) -> Vec<ShardOutcome>
        + 'a;

/// All mutable bookkeeping, serialized behind one writer mutex.
#[derive(Debug, Default)]
struct WriterState {
    sessions: Vec<FilterSession>,
    /// DN ↔ id table of the *current* epoch, edited in place: readers
    /// address entries by id and never resolve a DN, so no published epoch
    /// carries a copy. An id's hold count is the number of stored filters
    /// whose posting list has it (cached queries own their entries and
    /// hold nothing); the last release evicts the entry and frees the id.
    table: DnTable,
    /// Set for good once an install brings notification receivers (a
    /// persist install; [`FilterSession::notifications`]). A drain
    /// applies a batch between cycles, flushed whenever the master flushed
    /// it, so it can store an older body over one a polled filter was sent
    /// later, which that filter's session never sends again: no cycle can
    /// then vouch for every filter's held bodies, and filters are settled
    /// at install only ([`StoredFilter::settled`]).
    streamed: bool,
}

/// Frozen results of at least this many entries are cached with key
/// columns ([`KeyColumns`]) over the attributes their filter names. Timed
/// on the benchmark's `range_sharded` workload (2-vCPU VM, release build,
/// results of ≈ 1 000 people): building a column costs 55–62 µs, paid by
/// the miss that caches the result; a contained query spent 45–48 µs
/// verifying every frozen entry, and costs 6–7 µs through the column.
/// 256 lies between that workload's 100- and 1 000-entry results, so both
/// sides are measured. A smaller result is verified entry by entry, and
/// caching it allocates what it did before columns existed.
const COLUMN_AT: usize = 256;

/// A cached recent user query with its frozen result set (cached queries
/// are not synchronized, §7.4, so the result is a snapshot at cache time).
#[derive(Debug)]
struct CachedQuery {
    prepared: PreparedQuery<'static>,
    entries: Vec<Entry>,
    /// Empty below [`COLUMN_AT`] entries.
    columns: KeyColumns,
    hits: AtomicU64,
}

impl CachedQuery {
    /// Answers a query this one contains but does not equal from the
    /// frozen result: through the key columns' plan when they bound it,
    /// else by verifying every frozen entry (its filter alone, when this
    /// query's region lies inside the query's).
    fn answer(&self, query: &SearchRequest) -> Vec<Entry> {
        let region = !region_inside(query, self.prepared.request());
        match self.columns.plan(query.filter()) {
            Some(plan) => {
                let candidates = plan.ids.iter().map(|&pos| &self.entries[pos as usize]);
                collect_checked(query, candidates, Check { region, filter: !plan.exact })
            }
            None => collect_checked(query, self.entries.iter(), Check { region, filter: true }),
        }
    }
}

/// The FIFO window of cached queries, kept behind a short-critical-section
/// mutex: the lock is held only to push/evict and to copy out the `Arc`s
/// of the queries that can contain a given one — containment checks and
/// result evaluation run outside it.
///
/// The queries, oldest first, are registered in an index under their
/// sequence numbers: the query at position `i` has number `first + i`.
/// Numbers only grow, so ascending candidate order is oldest-first order —
/// the order a scan of the window meets them in.
#[derive(Debug, Default)]
struct QueryCache {
    queries: VecDeque<Arc<CachedQuery>>,
    first: u32,
    index: RoutingIndex,
}

impl QueryCache {
    /// Appends a query and evicts the oldest ones beyond `cap`.
    fn push(&mut self, cq: Arc<CachedQuery>, cap: usize) {
        let len = self.queries.len() as u32;
        if self.first.checked_add(len + 1).is_none() {
            // Sequence numbers exhausted: number the window from 0 again.
            self.first = 0;
            self.index = RoutingIndex::new();
            for (i, held) in self.queries.iter().enumerate() {
                register_prepared(&mut self.index, i as u32, &held.prepared);
            }
        }
        register_prepared(&mut self.index, self.first + len, &cq.prepared);
        self.queries.push_back(cq);
        while self.queries.len() > cap {
            self.queries.pop_front();
            self.index.remove(self.first);
            self.first += 1;
        }
    }

    /// The cached queries that can contain `query`, oldest first.
    fn candidates(&self, query: &SearchRequest) -> Vec<Arc<CachedQuery>> {
        let all = self.first..self.first + self.queries.len() as u32;
        let (seqs, _) = containing_candidates(&self.index, query, all);
        let held = |seq: &u32| self.queries[(seq - self.first) as usize].clone();
        seqs.iter().map(held).collect()
    }
}

/// An epoch held as a reader mid-answer holds it
/// ([`FilterReplica::hold_epoch`]).
#[doc(hidden)]
#[derive(Debug)]
pub struct HeldEpoch<'r> {
    replica: &'r FilterReplica,
    snap: Arc<ContentSnapshot>,
}

impl HeldEpoch<'_> {
    /// The held epoch's number.
    pub fn epoch(&self) -> u64 {
        self.snap.epoch
    }

    /// [`FilterReplica::try_answer`], from the held epoch.
    pub fn try_answer(&self, query: &SearchRequest) -> Option<Vec<Entry>> {
        self.replica.answer(Some(&self.snap), query)
    }
}

/// Counters of the containment-decision memo the replica no longer has:
/// always zero.
// Kept, with `FilterReplica::decision_cache_stats`, only because the frozen
// `benchmark/` reads them; ROADMAP item 1 (the benchmark-only PR) deletes
// both.
#[doc(hidden)]
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DecisionCacheStats {
    /// Always 0.
    pub hits: u64,
    /// Always 0.
    pub misses: u64,
    /// Always 0.
    pub entries: usize,
}

/// Pre-resolved metric handles for the answer path; `None` on an
/// unobserved replica, so the fast path pays one branch, no registry
/// lookups.
#[derive(Debug)]
struct AnswerMetrics {
    /// `fbdr_replica_plan_candidates` — candidate-set size the planner
    /// handed to residual verification (plan selectivity).
    plan_candidates: Arc<Histogram>,
    /// `fbdr_replica_plan_indexed_total` — answers served via an index plan.
    plan_indexed: Arc<Counter>,
    /// `fbdr_replica_plan_exact_total` — of those, answers whose plan was
    /// exact, so no candidate was verified against the filter.
    plan_exact: Arc<Counter>,
    /// `fbdr_replica_plan_scan_total` — answers that fell back to scanning
    /// the stored filter's posting list.
    plan_scan: Arc<Counter>,
    /// `fbdr_replica_answer_whole_total` — hits answered with their
    /// container's whole content: no plan, no intersection, no check.
    answer_whole: Arc<Counter>,
    /// `fbdr_replica_filter_index_candidates` — stored filters the filter
    /// index left to check, per lookup.
    filter_index_candidates: Arc<Histogram>,
    /// `fbdr_replica_filter_index_fallback_total` — lookups whose query
    /// shape (`Or`, `Not`) made every stored filter a candidate.
    filter_index_fallback: Arc<Counter>,
    /// `fbdr_replica_index_kept_attrs` — attributes the snapshot index
    /// keeps postings for.
    index_kept: Arc<Gauge>,
}

/// A filter-based replica: entries satisfying one or more stored LDAP
/// queries plus the meta information (search specifications) needed to
/// decide answerability by semantic containment.
///
/// Entries are stored once and shared between overlapping stored queries;
/// [`FilterReplica::entry_count`] is the replica-size metric of Figures
/// 4–7, and [`FilterReplica::stored_query_count`] the x-axis of Figures
/// 8–9.
///
/// # Answering
///
/// A query is answered by the first stored filter, in install order,
/// that contains it, else by the oldest cached query that does. Neither
/// is found by scanning: each snapshot's stored filters and the cache
/// window are registered in a filter-set index
/// ([`fbdr_resync::RoutingIndex`]) that names the few that *can* contain
/// the query, and only those get the exact containment check (see the
/// module documentation). [`FilterReplica::try_answer_scan`] is the
/// linear reference. An answer is a list of handles on the held entries
/// ([`Entry`] is shared copy-on-write): returning an entry costs a
/// refcount, and nothing written later shows through an answer already
/// given.
///
/// # Concurrency
///
/// The replica is split read/write:
///
/// * **Readers** ([`try_answer`](FilterReplica::try_answer)) take
///   `&self`, clone the current content-snapshot `Arc` (the `RwLock` is
///   held only for that pointer copy) and answer from their private
///   epoch. Statistics are relaxed atomics. Any number of threads may
///   query one replica concurrently without external locking.
/// * **Writers** (install/remove/sync/cache management) also take `&self`
///   but serialize on an internal mutex; they build a new snapshot off to
///   the side and publish it with a single pointer swap, so each sync
///   cycle's updates become visible atomically and readers never observe
///   a half-applied batch.
/// * **A persist drain** ([`drain_notifications`](FilterReplica::drain_notifications))
///   is the one writer a reader may wait for. When no reader holds the
///   published epoch, the drain applies its batch to it in place, holding
///   the content lock's write side for that one apply (≈ 3.5 µs at the
///   median on the benchmark's §7 mix); a reader that arrives meanwhile
///   waits, then reads the whole batch. An epoch a reader holds never
///   changes: a drain that finds it held builds the next epoch beside it.
#[derive(Debug)]
pub struct FilterReplica {
    content: RwLock<Arc<ContentSnapshot>>,
    cache: Mutex<QueryCache>,
    cache_window: usize,
    engine: ContainmentEngine,
    stats: AtomicReplicaStats,
    writer: Mutex<WriterState>,
    obs: Obs,
    metrics: Option<AnswerMetrics>,
    /// `replica.try_answer` — end-to-end local answer latency.
    answer_timer: Timer,
    /// `replica.index_build` — incremental index maintenance per applied
    /// action batch.
    index_timer: Timer,
}

impl FilterReplica {
    /// Creates a replica that caches up to `cache_window` recent user
    /// queries (0 disables query caching).
    pub fn new(cache_window: usize) -> Self {
        FilterReplica::with_obs(cache_window, Obs::off())
    }

    /// Creates an observed replica: hit counters become the registry's
    /// `fbdr_replica_*_total` metrics (one counter source — see
    /// [`AtomicReplicaStats::bound`]), every
    /// [`try_answer`](FilterReplica::try_answer) is timed into
    /// `fbdr_replica_try_answer_ns` (span `replica.try_answer`), index
    /// maintenance into `fbdr_replica_index_build_ns` (span
    /// `replica.index_build`), the attributes the snapshot index keeps
    /// (`fbdr_replica_index_kept_attrs`, and an `index_keep` event per
    /// attribute kept), plan selectivity, exact plans
    /// (`fbdr_replica_plan_exact_total`), hits answered with a container's
    /// whole content (`fbdr_replica_answer_whole_total`; a `qc_hit` event
    /// says `whole`) and the filter index's candidates
    /// per lookup
    /// (`fbdr_replica_filter_index_candidates`, and
    /// `fbdr_replica_filter_index_fallback_total` for queries it cannot
    /// prune) are counted, the embedded [`ContainmentEngine`]
    /// records through the same handle, and QC hits/misses (a `qc_miss`
    /// carries the number of `candidates` checked and a `reason`:
    /// `no_candidate`, `candidates_rejected` or `unindexed_shape`) plus
    /// epoch publishes emit trace events when a subscriber is installed. With
    /// [`Obs::off`] this is identical to [`FilterReplica::new`].
    pub fn with_obs(cache_window: usize, obs: Obs) -> Self {
        let (stats, metrics) = if obs.is_active() {
            let reg = obs.registry();
            (
                AtomicReplicaStats::bound(reg),
                Some(AnswerMetrics {
                    plan_candidates: reg.histogram("fbdr_replica_plan_candidates"),
                    plan_indexed: reg.counter("fbdr_replica_plan_indexed_total"),
                    plan_exact: reg.counter("fbdr_replica_plan_exact_total"),
                    plan_scan: reg.counter("fbdr_replica_plan_scan_total"),
                    answer_whole: reg.counter("fbdr_replica_answer_whole_total"),
                    filter_index_candidates: reg
                        .histogram("fbdr_replica_filter_index_candidates"),
                    filter_index_fallback: reg
                        .counter("fbdr_replica_filter_index_fallback_total"),
                    index_kept: reg.gauge("fbdr_replica_index_kept_attrs"),
                }),
            )
        } else {
            (AtomicReplicaStats::new(), None)
        };
        FilterReplica {
            content: RwLock::new(Arc::new(ContentSnapshot::empty())),
            cache: Mutex::default(),
            cache_window,
            engine: ContainmentEngine::with_obs(obs.clone()),
            stats,
            writer: Mutex::new(WriterState::default()),
            answer_timer: obs.timer("replica", "try_answer"),
            index_timer: obs.timer("replica", "index_build"),
            obs,
            metrics,
        }
    }

    /// The observability handle this replica records through.
    pub fn obs(&self) -> &Obs {
        &self.obs
    }

    /// The current content snapshot (lock held only for the `Arc` clone).
    fn snapshot(&self) -> Arc<ContentSnapshot> {
        self.content.read().clone()
    }

    /// Publishes the writer's copy as the next epoch.
    fn publish(&self, mut snap: ContentSnapshot) {
        self.next_epoch(&mut snap);
        self.swap(Arc::new(snap));
    }

    /// Numbers edited content as the next epoch, and says so.
    fn next_epoch(&self, snap: &mut ContentSnapshot) {
        snap.epoch += 1;
        event!(
            self.obs,
            "replica",
            "epoch_publish",
            epoch = snap.epoch,
            filters = snap.filters.len(),
            entries = snap.live,
        );
    }

    /// Makes `snap` the current snapshot. The write lock is held for the
    /// pointer swap only: the retired snapshot is dropped once the lock is
    /// released, so no reader waits while the nodes only it held are
    /// freed.
    fn swap(&self, snap: Arc<ContentSnapshot>) {
        let retired = std::mem::replace(&mut *self.content.write(), snap);
        drop(retired);
    }

    /// Number of distinct entries stored (replica size): filter-referenced
    /// entries plus cached-query entries not already covered by a filter.
    pub fn entry_count(&self) -> usize {
        if self.cache.lock().queries.is_empty() {
            return self.snapshot().live;
        }
        // Which DNs the filters hold is the writer's knowledge; under its
        // lock the id table and the current snapshot agree. The window's
        // lock is taken second, so it is never held waiting for a writer
        // (readers take it on every miss).
        let w = self.writer.lock();
        let window = self.cache.lock();
        let extra: HashSet<&fbdr_ldap::Dn> = window
            .queries
            .iter()
            .flat_map(|cq| cq.entries.iter().map(Entry::dn))
            .filter(|dn| w.table.get(dn).is_none())
            .collect();
        self.snapshot().live + extra.len()
    }

    /// Number of stored queries (generalized + cached) — the §7.4
    /// processing-overhead driver.
    pub fn stored_query_count(&self) -> usize {
        self.snapshot().filters.len() + self.cached_query_count()
    }

    /// Number of synchronized generalized filters.
    pub fn filter_count(&self) -> usize {
        self.snapshot().filters.len()
    }

    /// Number of cached user queries currently held.
    pub fn cached_query_count(&self) -> usize {
        self.cache.lock().queries.len()
    }

    /// Number of generalized filters currently marked stale (their last
    /// sync cycle could not reach the master).
    // A test hook: only tests call it.
    #[doc(hidden)]
    pub fn stale_filter_count(&self) -> usize {
        self.snapshot().filters.iter().filter(|s| s.stale).count()
    }

    /// The current epoch, held as a reader mid-answer holds it: while the
    /// handle lives, a drain builds its epoch beside this one instead of
    /// editing it in place, and the handle answers from this one.
    // A test hook: only tests call it.
    #[doc(hidden)]
    pub fn hold_epoch(&self) -> HeldEpoch<'_> {
        HeldEpoch { replica: self, snap: self.snapshot() }
    }

    /// The current content epoch: a monotonic generation number bumped by
    /// every published mutation (install, remove, sync cycle). All entries
    /// returned by one `try_answer` call come from a single epoch.
    pub fn epoch(&self) -> u64 {
        self.snapshot().epoch
    }

    /// Hit statistics (a point-in-time snapshot of the atomic counters).
    pub fn stats(&self) -> ReplicaStats {
        self.stats.snapshot()
    }

    /// Resets hit statistics (e.g. after the training day).
    pub fn reset_stats(&self) {
        self.stats.reset();
    }

    /// Containment-engine work counters (for §7.4).
    pub fn engine_stats(&self) -> EngineStats {
        self.engine.stats()
    }

    /// Zeros; see [`DecisionCacheStats`].
    #[doc(hidden)]
    pub fn decision_cache_stats(&self) -> DecisionCacheStats {
        DecisionCacheStats::default()
    }

    /// The stored generalized filters with their accumulated hit counts.
    pub fn filters(&self) -> impl Iterator<Item = (SearchRequest, u64)> {
        self.snapshot()
            .filters
            .iter()
            .map(|s| (s.prepared.request().clone(), s.hits.load(Ordering::Relaxed)))
            .collect::<Vec<_>>()
            .into_iter()
    }

    // ------------------------------------------------------------------
    // Filter management (replica content determination, §6)
    // ------------------------------------------------------------------

    /// Installs a generalized filter: starts a ReSync session at the
    /// master and loads the initial content — the one-shard case of
    /// [`FilterReplica::install_filter_sharded`]. Returns the load traffic.
    ///
    /// # Errors
    ///
    /// Propagates [`SyncError`] from the master.
    pub fn install_filter(
        &self,
        master: &mut SyncMaster,
        request: SearchRequest,
    ) -> Result<SyncTraffic, SyncError> {
        let mut one_shard = ShardCoordinator::new(ShardMap::single()).with_obs(self.obs.clone());
        self.install(master, &mut one_shard, request, SyncMode::Poll)
    }

    /// Installs a generalized filter in *persist* mode: the master streams
    /// change notifications over an open channel instead of waiting for
    /// polls; [`FilterReplica::drain_notifications`] applies whatever has
    /// arrived. This is the persistent-search-style strong(er) consistency
    /// option of §5.2, at the cost of one open connection per filter.
    ///
    /// It is [`FilterReplica::install_filter`]'s exchange with the persist
    /// control: the same one-shard coordinator install, which also takes
    /// the session's receiver. The filter's cookie is kept, so a filter
    /// whose channel disconnects is polled from where its stream stopped.
    ///
    /// # Errors
    ///
    /// Propagates [`SyncError`] from the master.
    pub fn install_filter_persistent(
        &self,
        master: &mut SyncMaster,
        request: SearchRequest,
    ) -> Result<SyncTraffic, SyncError> {
        let mut one_shard = ShardCoordinator::new(ShardMap::single()).with_obs(self.obs.clone());
        self.install(master, &mut one_shard, request, SyncMode::Persist)
    }

    /// Installs a generalized filter against a **sharded** master: the
    /// coordinator splits the filter's base/scope across the shards it
    /// overlaps, establishes one ReSync session per shard, and the merged
    /// per-shard cookies are kept as a [`CompositeCookie`] for
    /// [`FilterReplica::sync_with_sharded`] cycles. Returns the load
    /// traffic.
    ///
    /// # Errors
    ///
    /// Propagates the first [`SyncError`] any shard produced
    /// (all-or-nothing: partial sessions are abandoned).
    pub fn install_filter_sharded<C: Clock>(
        &self,
        transport: &mut dyn SyncTransport,
        coordinator: &mut ShardCoordinator<C>,
        request: SearchRequest,
    ) -> Result<SyncTraffic, SyncError> {
        self.install(transport, coordinator, request, SyncMode::Poll)
    }

    /// The one install: the coordinator opens the filter's sessions in
    /// `mode` ([`ShardCoordinator::install`]), then, under the writer
    /// lock, the filter is built, its initial load applied and the next
    /// epoch published. The session keeps whatever receivers the install
    /// took, and a replica that holds one streams from then on
    /// ([`WriterState::streamed`]).
    fn install<C: Clock>(
        &self,
        transport: &mut dyn SyncTransport,
        coordinator: &mut ShardCoordinator<C>,
        request: SearchRequest,
        mode: SyncMode,
    ) -> Result<SyncTraffic, SyncError> {
        let mut w = self.writer.lock();
        let (actions, cookie, traffic, receivers) =
            coordinator.install(transport, &request, mode)?;
        let notifications = (!receivers.is_empty()).then(|| Box::new(receivers));
        w.streamed |= notifications.is_some();
        let mut work = ContentSnapshot::clone(&self.snapshot());
        let at = work.filters.len();
        work.filters.push(StoredFilter {
            prepared: Arc::new(PreparedQuery::new(request)),
            ids: Arc::default(),
            stale: false,
            settled: true,
            hits: Arc::new(AtomicU64::new(0)),
        });
        self.timed_apply(&mut work, &mut w.table, at, &actions);
        work.filter_set_changed();
        w.sessions.push(FilterSession { cookie, notifications });
        self.publish(work);
        Ok(traffic)
    }

    /// Applies every pending persist-mode notification across all
    /// persistent filters: each session's receivers — one per shard its
    /// persist install opened — are drained in turn. Returns the traffic
    /// the notifications represent.
    ///
    /// A receiver whose channel has disconnected (master restart, dropped
    /// connection) degrades its shard to cookie-based polling: the
    /// receiver is discarded, `poll_fallbacks` is incremented, and the
    /// next [`FilterReplica::sync`] picks the filter up incrementally via
    /// its cookie.
    ///
    /// A drain that finds every channel empty only polls the channels: it
    /// builds no working copy and publishes nothing. One that finds
    /// notifications applies them as one epoch: to the published epoch
    /// itself, under the content lock, when no reader holds it — then there
    /// is nothing to copy and nothing to retire — and otherwise to a copy
    /// published beside it, as a sync cycle does.
    pub fn drain_notifications(&self) -> SyncTraffic {
        let mut w = self.writer.lock();
        let mut batches: Vec<(usize, Vec<SyncAction>)> = Vec::new();
        for (i, session) in w.sessions.iter_mut().enumerate() {
            let Some(receivers) = &mut session.notifications else { continue };
            let mut pending: Vec<SyncAction> = Vec::new();
            receivers.retain(|rx| {
                let connected = loop {
                    match rx.try_recv() {
                        Ok(b) => pending.extend(b.actions),
                        Err(TryRecvError::Empty) => break true,
                        Err(TryRecvError::Disconnected) => break false,
                    }
                };
                if !connected {
                    self.stats.record_poll_fallback();
                    event!(self.obs, "replica", "poll_fallback", filter_index = i);
                }
                connected
            });
            if !pending.is_empty() {
                batches.push((i, pending));
            }
        }
        let mut traffic = SyncTraffic::default();
        if batches.is_empty() {
            return traffic;
        }
        for (_, pending) in &batches {
            traffic.absorb(&SyncTraffic::of(pending));
        }
        let mut apply = |work: &mut ContentSnapshot| {
            for (i, pending) in &batches {
                self.timed_apply(work, &mut w.table, *i, pending);
            }
            self.next_epoch(work);
        };
        // A reader takes the epoch under the read lock, so while the write
        // lock is held an epoch nobody holds stays so: the batch edits it
        // and becomes visible whole when the lock is released.
        let mut current = self.content.write();
        if let Some(published) = Arc::get_mut(&mut current) {
            apply(published);
            return traffic;
        }
        drop(current);
        let mut work = ContentSnapshot::clone(&self.snapshot());
        apply(&mut work);
        self.swap(Arc::new(work));
        traffic
    }

    /// Removes a generalized filter (revolution eviction), ending its sync
    /// session on every shard holding one and garbage-collecting entries
    /// no other stored query needs. Returns true if the filter was present.
    pub fn remove_filter(
        &self,
        transport: &mut dyn SyncTransport,
        request: &SearchRequest,
    ) -> bool {
        let mut w = self.writer.lock();
        let snap = self.snapshot();
        let Some(pos) = snap.filters.iter().position(|s| s.prepared.request() == request) else {
            return false;
        };
        let mut work = ContentSnapshot::clone(&snap);
        let removed = work.filters.remove(pos);
        let session = w.sessions.remove(pos);
        for (shard, c) in session.cookie.iter() {
            transport.abandon_at(shard, c);
        }
        for &id in removed.ids.iter() {
            if w.table.release(id) {
                work.evict(id);
            }
        }
        work.filter_set_changed();
        self.publish(work);
        true
    }

    /// Polls the master for every synchronized filter and applies the
    /// updates. Returns the total resync traffic — component (i) of the
    /// filter replica's update traffic (§7.3).
    ///
    /// This is [`FilterReplica::sync_with`] on a default driver: a
    /// [`SyncMaster`] never fails transiently, so the only rung of the
    /// ladder it can reach is session recovery — when the master has
    /// expired a session (its §5.2 admin time limit) the filter is
    /// reconciled.
    ///
    /// The whole cycle publishes as **one** new epoch, so concurrent
    /// readers see either the pre-cycle or the post-cycle content, never
    /// a half-applied batch.
    ///
    /// # Errors
    ///
    /// As [`FilterReplica::sync_with`].
    pub fn sync(&self, master: &mut SyncMaster) -> Result<SyncTraffic, SyncError> {
        self.sync_with(master, &mut SyncDriver::default())
    }

    /// Polls the master through a retrying [`SyncDriver`]: every stored
    /// filter is one slice walked down the recovery ladder
    /// ([`SyncDriver::sync_slice`]) —
    ///
    /// - a transient failure that exhausts the driver's retry/time budget
    ///   marks the filter **stale** and moves on — the content keeps being
    ///   served (availability over freshness; hits are counted in
    ///   [`ReplicaStats::stale_serves`]) and the next cycle retries;
    /// - an unrecoverable session error (expired cookie, or one two
    ///   responses behind) first attempts a **reconciliation** exchange
    ///   (`fbdr_resync::reconcile`): the replica digests its held items
    ///   and receives only what actually diverged, re-establishing a live
    ///   cookie at divergence-proportional cost, and falls back to a full
    ///   reinstall when the exchange fails;
    /// - the reinstall itself runs through the driver, so even the reload
    ///   is retried on transient failures.
    ///
    /// This is the one-shard configuration of the sync cycle: every
    /// exchange is addressed to [`ShardId::ZERO`], which an unsharded
    /// transport serves as its one master. Filters spanning several
    /// shards need [`FilterReplica::sync_with_sharded`].
    ///
    /// Returns the total resync traffic of the cycle. The cycle publishes
    /// one new epoch; readers keep answering from the previous epoch
    /// while it runs.
    ///
    /// # Errors
    ///
    /// The first hard (non-transient, non-session) [`SyncError`] any
    /// filter produced, after the cycle's partial progress is published;
    /// transport outages never fail the cycle.
    pub fn sync_with<C: Clock>(
        &self,
        transport: &mut dyn SyncTransport,
        driver: &mut SyncDriver<C>,
    ) -> Result<SyncTraffic, SyncError> {
        self.sync_single(None, transport, driver).map(Option::unwrap_or_default)
    }

    /// The one-shard configuration of the cycle: each selected filter is a
    /// single slice on [`ShardId::ZERO`], walked by the caller's driver.
    fn sync_single<C: Clock>(
        &self,
        only: Option<&SearchRequest>,
        transport: &mut dyn SyncTransport,
        driver: &mut SyncDriver<C>,
    ) -> Result<Option<SyncTraffic>, SyncError> {
        self.run_cycle(only, &mut |request, cookie, held| {
            vec![driver.sync_slice(transport, ShardId::ZERO, request, cookie, held)]
        })
    }

    /// One sync cycle against a sharded master: every stored filter polls
    /// each shard it overlaps **independently** through the coordinator's
    /// per-shard drivers, so a slow or partitioned shard degrades only
    /// its own slice to stale while the other shards' updates land. A
    /// filter with any stale or failed shard is marked stale as a whole
    /// (its answers may miss that shard's updates) but keeps serving.
    ///
    /// Every stored filter is polled, however it was installed: one
    /// installed through [`FilterReplica::install_filter`] holds its
    /// session on [`ShardId::ZERO`], which is where a single-shard
    /// coordinator polls it. Publishes one epoch.
    ///
    /// # Errors
    ///
    /// The first hard (non-transient, non-session) [`SyncError`] any
    /// shard produced, after the cycle's partial progress is published.
    pub fn sync_with_sharded<C: Clock>(
        &self,
        transport: &mut dyn SyncTransport,
        coordinator: &mut ShardCoordinator<C>,
    ) -> Result<SyncTraffic, SyncError> {
        self.run_cycle(None, &mut |request, cookie, held| {
            coordinator.sync_filter(transport, request, cookie, held)
        })
        .map(Option::unwrap_or_default)
    }

    /// Polls the master for a *single* stored filter, leaving the others
    /// untouched. This is what lets a deployment give different object
    /// types different consistency levels (§3.2): hot, volatile filters
    /// can poll frequently while stable ones poll rarely — something a
    /// subtree replica cannot do, since one subtree mixes object types.
    ///
    /// Returns `Ok(None)` (and publishes nothing) when `request` is not a
    /// stored filter.
    ///
    /// # Errors
    ///
    /// As [`FilterReplica::sync`].
    pub fn sync_filter(
        &self,
        master: &mut SyncMaster,
        request: &SearchRequest,
    ) -> Result<Option<SyncTraffic>, SyncError> {
        self.sync_single(Some(request), master, &mut SyncDriver::default())
    }

    /// The sync cycle — the only place stored filters are polled. Under
    /// the writer lock: snapshot → for each selected filter (`only`, or
    /// all of them), `sync_one` polls its slices, the slices' actions are
    /// merged and applied, and the filter is marked stale when any slice
    /// did not come back fresh → publish one epoch → report the first
    /// hard error, else the traffic. `sync_one` reads the filter's held
    /// entries only when a slice needs them (to reconcile or reinstall).
    ///
    /// A cycle over every filter in which every slice came back fresh
    /// leaves each filter holding the master's answer for it, in the
    /// master's bodies, all read from the state the master is in while the
    /// cycle holds the transport — a retried answer too, since the master
    /// builds it from its live DIT: it settles every filter
    /// ([`StoredFilter::settled`]), unless the replica streams.
    ///
    /// Returns `Ok(None)` without publishing when `only` names no stored
    /// filter.
    fn run_cycle(
        &self,
        only: Option<&SearchRequest>,
        sync_one: &mut SyncOne<'_>,
    ) -> Result<Option<SyncTraffic>, SyncError> {
        let mut w = self.writer.lock();
        let WriterState { sessions, table, streamed } = &mut *w;
        let snap = self.snapshot();
        let selected = match only {
            None => 0..snap.filters.len(),
            Some(req) => match snap.filters.iter().position(|s| s.prepared.request() == req) {
                Some(pos) => pos..pos + 1,
                None => return Ok(None),
            },
        };
        let mut work = ContentSnapshot::clone(&snap);
        let mut total = SyncTraffic::default();
        let mut failed: Option<SyncError> = None;
        let mut settles = only.is_none() && !*streamed;
        for i in selected {
            let sf = &work.filters[i];
            let held = || work.entries_of(&sf.ids).cloned().collect();
            let outcomes = sync_one(sf.prepared.request(), &mut sessions[i].cookie, &held);
            let mut stale = false;
            let mut actions: Vec<SyncAction> = Vec::new();
            for out in outcomes {
                total.absorb(&out.traffic);
                actions.extend(out.actions);
                let reason = match out.status {
                    ShardStatus::Stale => "unreachable",
                    ShardStatus::Failed(e) => {
                        failed.get_or_insert(e);
                        "failed"
                    }
                    _ => continue,
                };
                stale = true;
                event!(
                    self.obs,
                    "replica",
                    "filter_stale",
                    filter_index = i,
                    shard = out.shard.index(),
                    reason = reason,
                );
            }
            settles &= !stale;
            work.filters[i].stale = stale;
            self.timed_apply(&mut work, table, i, &actions);
        }
        if settles {
            for sf in &mut work.filters {
                sf.settled = true;
            }
        }
        self.publish(work);
        match failed {
            Some(e) => Err(e),
            None => Ok(Some(total)),
        }
    }

    /// Caches a recently performed user query and its result, fetched from
    /// the master after a miss. `result` must be the master's answer to
    /// `request`: a repeat of the request — the same filter, base and
    /// scope — is answered with it whole, unchecked. Evicts the oldest
    /// cached query beyond the window. Cached queries are not
    /// synchronized: the result set is frozen at cache time (§7.4) — the
    /// window keeps handles on the result's entries, which no later write
    /// reaches. A cached query that selected an attribute list answers
    /// only queries whose filter reads attributes on that list: its copies
    /// hold nothing else to match. A large result (256 entries or more)
    /// is given key columns over the attributes its filter names, built
    /// here, before the window is locked, so that a query it contains is
    /// planned rather than verified on every frozen entry.
    pub fn cache_query(&self, request: SearchRequest, result: &[Entry]) {
        if self.cache_window == 0 {
            return;
        }
        let entries = result.to_vec();
        let columns = if entries.len() >= COLUMN_AT {
            KeyColumns::build(&request.filter().attr_names(), &entries)
        } else {
            KeyColumns::default()
        };
        let cq = Arc::new(CachedQuery {
            prepared: PreparedQuery::new(request),
            entries,
            columns,
            hits: AtomicU64::new(0),
        });
        self.cache.lock().push(cq, self.cache_window);
    }

    /// Applies an action batch to the working content, timing the
    /// incremental index maintenance when the replica is observed.
    fn timed_apply(
        &self,
        work: &mut ContentSnapshot,
        table: &mut DnTable,
        filter: usize,
        actions: &[SyncAction],
    ) {
        if actions.is_empty() {
            return;
        }
        let _span = self.index_timer.start();
        apply_actions(work, table, filter, actions);
    }

    // ------------------------------------------------------------------
    // Query answering
    // ------------------------------------------------------------------

    /// Tries to answer a query locally: the query must be semantically
    /// contained (`QC`) in some stored query. Returns the locally
    /// evaluated entries on a hit, `None` (→ referral) on a miss.
    ///
    /// Takes `&self` and is safe to call from any number of threads
    /// concurrently with each other and with a writer running a sync
    /// cycle: the answer is computed against one consistent content epoch.
    ///
    /// ```
    /// use fbdr_ldap::{Entry, Filter, SearchRequest};
    /// use fbdr_replica::FilterReplica;
    /// use fbdr_resync::SyncMaster;
    ///
    /// # fn main() -> Result<(), Box<dyn std::error::Error>> {
    /// let mut master = SyncMaster::new();
    /// master.dit_mut().add_suffix("o=xyz".parse()?);
    /// master.dit_mut().add(Entry::new("o=xyz".parse()?))?;
    /// master.dit_mut().add(
    ///     Entry::new("cn=a,o=xyz".parse()?).with("serialNumber", "045612"),
    /// )?;
    ///
    /// let replica = FilterReplica::new(0);
    /// replica.install_filter(
    ///     &mut master,
    ///     SearchRequest::from_root(Filter::parse("(serialNumber=0456*)")?),
    /// )?;
    ///
    /// // Contained in the stored filter → answered locally.
    /// let hit = SearchRequest::from_root(Filter::parse("(serialNumber=045612)")?);
    /// assert_eq!(replica.try_answer(&hit).unwrap().len(), 1);
    /// // Not contained → miss (the caller would chase a referral).
    /// let miss = SearchRequest::from_root(Filter::parse("(serialNumber=9*)")?);
    /// assert!(replica.try_answer(&miss).is_none());
    /// assert_eq!(replica.stats().hits, 1);
    /// # Ok(())
    /// # }
    /// ```
    pub fn try_answer(&self, query: &SearchRequest) -> Option<Vec<Entry>> {
        self.answer(None, query)
    }

    /// [`FilterReplica::try_answer`] from the epoch `held`, or from the
    /// current one.
    fn answer(&self, held: Option<&Arc<ContentSnapshot>>, query: &SearchRequest) -> Option<Vec<Entry>> {
        let _span = self.answer_timer.start();
        self.stats.record_query();
        let prepared = PreparedQuery::borrowed(query);
        let snap = held.map_or_else(|| self.snapshot(), Arc::clone);
        // Generalized filters first (they are authoritative and synced):
        // the filter index names the filters that can contain the query,
        // and the first of them that does, in filter order, wins.
        let (candidates, indexed) = snap.filter_candidates(query);
        if let Some(m) = &self.metrics {
            m.filter_index_candidates.record(candidates.len() as u64);
            if !indexed {
                m.filter_index_fallback.inc();
            }
        }
        let decision = candidates
            .iter()
            .map(|&pos| pos as usize)
            .find(|&pos| self.engine.query_contained(&prepared, &snap.filters[pos].prepared));
        // A query that asks exactly what its container holds is answered
        // with the whole content: a stored filter's when it is settled, a
        // cached query's always (its frozen result is the master's answer
        // to that query).
        if let Some(pos) = decision {
            let sf = &snap.filters[pos];
            sf.hits.fetch_add(1, Ordering::Relaxed);
            self.stats.record_generalized_hit(sf.stale);
            let whole = sf.settled && same_question(query, sf.prepared.request());
            event!(
                self.obs,
                "replica",
                "qc_hit",
                kind = "generalized",
                stale = sf.stale,
                whole = whole,
                epoch = snap.epoch,
            );
            if whole {
                self.count_whole();
                return Some(project_all(query, snap.entries_of(&sf.ids)));
            }
            let inside = region_inside(query, sf.prepared.request());
            return Some(self.evaluate_indexed(&snap, query, &sf.ids, inside));
        }
        // Then the cached queries that can contain it, oldest first.
        let cached = self.cache.lock().candidates(query);
        for cq in &cached {
            if filter_readable_from(query, cq.prepared.request())
                && self.engine.query_contained(&prepared, &cq.prepared)
            {
                cq.hits.fetch_add(1, Ordering::Relaxed);
                self.stats.record_cache_hit();
                let whole = same_question(query, cq.prepared.request());
                event!(
                    self.obs,
                    "replica",
                    "qc_hit",
                    kind = "cached",
                    whole = whole,
                    epoch = snap.epoch,
                );
                if whole {
                    self.count_whole();
                    return Some(project_all(query, cq.entries.iter()));
                }
                return Some(cq.answer(query));
            }
        }
        if self.obs.tracing_enabled() {
            let candidates = candidates.len() + cached.len();
            event!(
                self.obs,
                "replica",
                "qc_miss",
                epoch = snap.epoch,
                filters = snap.filters.len(),
                candidates = candidates,
                reason = match (indexed, candidates) {
                    (false, _) => "unindexed_shape",
                    (true, 0) => "no_candidate",
                    (true, _) => "candidates_rejected",
                },
            );
        }
        None
    }

    /// Counts a hit answered with its container's whole content.
    fn count_whole(&self) {
        if let Some(m) = &self.metrics {
            m.answer_whole.inc();
        }
    }

    /// Evaluates a query restricted to one stored filter's posting list,
    /// through the snapshot index: the filter is compiled to a candidate
    /// plan and intersected (galloping) with the filter's list. An exact
    /// plan ([`fbdr_dit::index::Plan::exact`]) leaves the query's matches
    /// among the filter's entries, and only the query's region is checked
    /// on them; an inexact plan's survivors are verified against the full
    /// query. When `inside` — the entries' container lies inside the
    /// query's region — the region is not checked either. Falls back to
    /// scanning the posting list when the filter is unplannable.
    ///
    /// A predicate on an attribute the index carries but does not keep
    /// does not plan. The first query that meets one has its attributes
    /// kept ([`FilterReplica::keep_planned`]) and plans on the snapshot that
    /// keeps them; when that cannot be done without waiting, the query is
    /// planned without them, and its candidates verified.
    fn evaluate_indexed(
        &self,
        snap: &Arc<ContentSnapshot>,
        query: &SearchRequest,
        ids: &[u32],
        inside: bool,
    ) -> Vec<Entry> {
        let keeping;
        let mut snap = snap;
        let mut planned = snap.index.plan(query.filter());
        if planned.unkept {
            if let Some(kept) = self.keep_planned(snap, query.filter()) {
                keeping = kept;
                snap = &keeping;
                planned = snap.index.plan(query.filter());
            }
        }
        let Some(plan) = planned.plan else {
            if let Some(m) = &self.metrics {
                m.plan_scan.inc();
                m.plan_candidates.record(ids.len() as u64);
            }
            return collect_checked(query, snap.entries_of(ids), Check { region: !inside, filter: true });
        };
        let sel = posting::intersect(&plan.ids, ids);
        if let Some(m) = &self.metrics {
            m.plan_indexed.inc();
            m.plan_candidates.record(sel.len() as u64);
            if plan.exact {
                m.plan_exact.inc();
            }
        }
        collect_checked(query, snap.entries_of(&sel), Check { region: !inside, filter: !plan.exact })
    }

    /// Keeps the attributes `filter` plans on that `snap`'s index carries
    /// but does not keep: lists their values over the held entries, and
    /// publishes the result as the current snapshot — the same content
    /// under the same epoch. Done only when the writer lock is free and
    /// `snap` is still the current snapshot, so that a reader never waits
    /// for a writer and never publishes over a writer's epoch. Returns the
    /// snapshot that keeps them, or `None` when it could not keep them
    /// (or there was nothing to keep). Writers never consult what readers
    /// asked: they maintain what is kept.
    fn keep_planned(&self, snap: &Arc<ContentSnapshot>, filter: &Filter) -> Option<Arc<ContentSnapshot>> {
        let attrs = index::unkept_in(filter, |a| snap.index.carries_unkept(a));
        if attrs.is_empty() {
            return None;
        }
        let _writer = self.writer.try_lock()?;
        if !Arc::ptr_eq(&self.content.read(), snap) {
            return None;
        }
        let mut work = ContentSnapshot::clone(snap);
        for attr in attrs {
            let held = work.entries.iter().map(|(id, e)| (id as u32, e));
            let carriers = work.index.keep(attr, held);
            event!(
                self.obs,
                "replica",
                "index_keep",
                attribute = attr.as_str(),
                entries = carriers,
                epoch = work.epoch,
            );
        }
        if let Some(m) = &self.metrics {
            m.index_kept.set(work.index.kept_count() as i64);
        }
        let work = Arc::new(work);
        self.swap(work.clone());
        Some(work)
    }

    /// Answers a query by brute-force scan — the containment gate against
    /// every stored filter in turn (the paper's §7.4 algorithm), then the
    /// winner's posting list entry by entry — bypassing the filter index
    /// and the index plan: the reference evaluator the indexed path is
    /// benchmarked and property-tested against. Decides as
    /// [`try_answer`](FilterReplica::try_answer) does among the stored
    /// filters but records no replica statistics and no hit counts, and
    /// does not consult the query cache. Being the reference, it verifies
    /// every entry and never takes the exact-plan shortcut.
    pub fn try_answer_scan(&self, query: &SearchRequest) -> Option<Vec<Entry>> {
        let prepared = PreparedQuery::borrowed(query);
        let snap = self.snapshot();
        for sf in &snap.filters {
            if self.engine.query_contained(&prepared, &sf.prepared) {
                let check = Check { region: true, filter: true };
                return Some(collect_checked(query, snap.entries_of(&sf.ids), check));
            }
        }
        None
    }
}

/// What a container's candidate still has to pass to be in a query's
/// answer.
#[derive(Debug, Clone, Copy)]
struct Check {
    /// The query's region — unless the container's lies inside it, so that
    /// every entry the container holds does too.
    region: bool,
    /// The query's filter — unless an exact plan chose the candidate.
    filter: bool,
}

/// Whether `container`'s region lies inside `query`'s: then no candidate
/// drawn from it needs its DN checked. A query asked from its container's
/// base, the usual case, checks none.
fn region_inside(query: &SearchRequest, container: &SearchRequest) -> bool {
    fbdr_containment::region_contained(container.base(), container.scope(), query.base(), query.scope())
}

/// Answers a query from candidate entries — a stored filter's, looked up by
/// id, or a cached query's frozen result — in the order they come, each
/// candidate passing what `check` asks of it. The survivors are
/// collected as references — in a list sized for every candidate, which an
/// exact plan's nearly all are, so that it is allocated once instead of
/// grown — and only then projected, so the answer is allocated once, at
/// its length.
fn collect_checked<'a>(
    query: &SearchRequest,
    candidates: impl Iterator<Item = &'a Entry>,
    check: Check,
) -> Vec<Entry> {
    let keep = |e: &&Entry| {
        (!check.region || query.scope().contains(query.base(), e.dn()))
            && (!check.filter || query.filter().matches(e))
    };
    let (_, all) = candidates.size_hint();
    let mut hits: Vec<&Entry> = Vec::with_capacity(all.unwrap_or(0));
    hits.extend(candidates.filter(keep));
    hits.into_iter().map(|e| query.attrs().project(e)).collect()
}

/// A container's whole content, projected onto the query's attributes, in
/// a list allocated once.
fn project_all<'a>(query: &SearchRequest, content: impl Iterator<Item = &'a Entry>) -> Vec<Entry> {
    let (_, all) = content.size_hint();
    let mut answer = Vec::with_capacity(all.unwrap_or(0));
    answer.extend(content.map(|e| query.attrs().project(e)));
    answer
}

/// Whether a query asks exactly what a container holds: the same filter,
/// base and scope. Its attributes may be fewer; containment checked them.
fn same_question(query: &SearchRequest, container: &SearchRequest) -> bool {
    query.filter() == container.filter()
        && query.scope() == container.scope()
        && query.base() == container.base()
}

/// Whether a cached query's frozen result can evaluate `query`'s filter.
/// The master projected the held copies onto the cached request's
/// attributes, so an explicit list must name every attribute the filter
/// reads — containment alone would match `(mail=ab*)` against copies that
/// kept only `cn` and answer nothing. Stored filters hold whole entries.
fn filter_readable_from(query: &SearchRequest, cached: &SearchRequest) -> bool {
    match cached.attrs() {
        AttrSelection::All => true,
        AttrSelection::List(held) => query.filter().attr_names().iter().all(|a| held.contains(a)),
    }
}

/// Applies one batch of sync actions for the stored filter at position
/// `filter` to the working content: the filter's posting list, the shared
/// id-addressed entry store, the snapshot index and the table's hold
/// counts — one per filter holding an id.
///
/// When the batch stores a different body at an id another filter holds,
/// that filter may now hold a body it does not match, and every other
/// filter is unsettled ([`StoredFilter::settled`]); this one keeps its
/// flag, since the master sent it these bodies as matches.
///
/// The release that drops a filter's last hold on an id evicts the entry
/// (slot + index postings) and frees the id for reuse, so the replica's
/// id space — and every id-addressed vector built on it — stops growing
/// with lifetime churn. Earlier epochs are untouched: they never resolve a
/// DN, and the slot chunk and index nodes a recycled id lands in are
/// copied before they are written.
fn apply_actions(
    work: &mut ContentSnapshot,
    table: &mut DnTable,
    filter: usize,
    actions: &[SyncAction],
) {
    // The filter's list is copied (when an older epoch shares it) only by
    // an action that changes it: most batches modify entries it holds.
    let mut unsettles = false;
    for a in actions {
        match a {
            SyncAction::Add(e) | SyncAction::Modify(e) => {
                let id = table.hold(e.dn());
                let ids = &mut work.filters[filter].ids;
                if posting::contains(ids, id) {
                    // This filter held it already: one hold per filter.
                    table.release(id);
                } else {
                    posting::insert_sorted(Arc::make_mut(ids), id);
                }
                let old = work.store(id, e.clone());
                // Whether the body changed matters only to another filter
                // holding the id, so the bodies are compared only then.
                unsettles |= table.holds(id) > 1 && old.is_some_and(|old| old != *e);
            }
            SyncAction::Delete(dn) => {
                let ids = &mut work.filters[filter].ids;
                if let Some(id) = table.get(dn).filter(|&id| posting::contains(ids, id)) {
                    posting::remove_sorted(Arc::make_mut(ids), id);
                    if table.release(id) {
                        work.evict(id);
                    }
                }
            }
        }
    }
    if unsettles {
        for (at, other) in work.filters.iter_mut().enumerate() {
            if at != filter {
                other.settled = false;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fbdr_dit::{Modification, UpdateOp};
    use fbdr_ldap::{Dn, Scope};
    use fbdr_resync::{Cookie, ReSyncControl};

    pub(super) fn dn(s: &str) -> Dn {
        s.parse().unwrap()
    }

    pub(super) fn person(cn: &str, c: &str, sn: &str, dept: &str) -> Entry {
        Entry::new(dn(&format!("cn={cn},c={c},o=xyz")))
            .with("objectclass", "inetOrgPerson")
            .with("cn", cn)
            .with("serialNumber", sn)
            .with("departmentNumber", dept)
    }

    pub(super) fn master() -> SyncMaster {
        let mut m = SyncMaster::new();
        m.dit_mut().add_suffix(dn("o=xyz"));
        m.dit_mut().add(Entry::new(dn("o=xyz"))).unwrap();
        for c in ["us", "in"] {
            m.dit_mut().add(Entry::new(dn(&format!("c={c},o=xyz")))).unwrap();
        }
        for (cn, c, sn, dept) in [
            ("a", "us", "045611", "2406"),
            ("b", "us", "045612", "2406"),
            ("c", "in", "045621", "2407"),
            ("d", "in", "120001", "9900"),
        ] {
            m.dit_mut().add(person(cn, c, sn, dept)).unwrap();
        }
        m
    }

    fn root_query(f: &str) -> SearchRequest {
        SearchRequest::from_root(Filter::parse(f).unwrap())
    }

    fn sub_query(base: &str, f: &str) -> SearchRequest {
        SearchRequest::new(dn(base), Scope::Subtree, Filter::parse(f).unwrap())
    }

    #[test]
    fn install_filter_loads_content() {
        let mut m = master();
        let r = FilterReplica::new(0);
        let t = r
            .install_filter(&mut m, root_query("(serialNumber=0456*)"))
            .unwrap();
        assert_eq!(t.full_entries, 3);
        assert_eq!(r.entry_count(), 3);
        assert_eq!(r.filter_count(), 1);
        assert_eq!(r.epoch(), 1);
    }

    #[test]
    fn answers_contained_queries_spanning_subtrees() {
        // §3.1.2: semantic locality is not spatial — the 0456* filter
        // answers queries for entries in different country subtrees.
        let mut m = master();
        let r = FilterReplica::new(0);
        r.install_filter(&mut m, root_query("(serialNumber=0456*)")).unwrap();

        let q_us = root_query("(serialNumber=045611)");
        let hit = r.try_answer(&q_us).expect("hit");
        assert_eq!(hit.len(), 1);
        assert_eq!(hit[0].dn(), &dn("cn=a,c=us,o=xyz"));

        let q_in = root_query("(serialNumber=045621)");
        let hit = r.try_answer(&q_in).expect("hit across subtrees");
        assert_eq!(hit[0].dn(), &dn("cn=c,c=in,o=xyz"));

        assert!(r.try_answer(&root_query("(serialNumber=120001)")).is_none());
        assert_eq!(r.stats().queries, 3);
        assert_eq!(r.stats().hits, 2);
        assert_eq!(r.stats().generalized_hits, 2);
    }

    #[test]
    fn null_based_queries_answerable() {
        // §3.1.1: filter replicas can replicate null-based queries.
        let mut m = master();
        let r = FilterReplica::new(0);
        r.install_filter(&mut m, root_query("(departmentNumber=240*)")).unwrap();
        assert!(r.try_answer(&root_query("(departmentNumber=2406)")).is_some());
        // Narrower base still contained.
        assert!(r
            .try_answer(&sub_query("c=us,o=xyz", "(departmentNumber=2406)"))
            .is_some());
    }

    #[test]
    fn narrower_base_filters_results_by_scope() {
        let mut m = master();
        let r = FilterReplica::new(0);
        r.install_filter(&mut m, root_query("(serialNumber=0456*)")).unwrap();
        let q = sub_query("c=in,o=xyz", "(serialNumber=0456*)");
        let hit = r.try_answer(&q).expect("hit");
        assert_eq!(hit.len(), 1);
        assert_eq!(hit[0].dn(), &dn("cn=c,c=in,o=xyz"));
    }

    #[test]
    fn sync_propagates_updates() {
        let mut m = master();
        let r = FilterReplica::new(0);
        r.install_filter(&mut m, root_query("(departmentNumber=2406)")).unwrap();
        assert_eq!(r.entry_count(), 2);

        // d moves into the content, a moves out.
        m.apply(UpdateOp::Modify {
            dn: dn("cn=d,c=in,o=xyz"),
            mods: vec![Modification::Replace("departmentNumber".into(), vec!["2406".into()])],
        })
        .unwrap();
        m.apply(UpdateOp::Modify {
            dn: dn("cn=a,c=us,o=xyz"),
            mods: vec![Modification::Replace("departmentNumber".into(), vec!["2409".into()])],
        })
        .unwrap();
        let epoch_before = r.epoch();
        let t = r.sync(&mut m).unwrap();
        assert_eq!(t.full_entries, 1);
        assert_eq!(t.dn_only, 1);
        assert_eq!(r.entry_count(), 2);
        assert_eq!(r.epoch(), epoch_before + 1, "one cycle = one epoch");
        let hit = r.try_answer(&root_query("(departmentNumber=2406)")).unwrap();
        let dns: Vec<String> = hit.iter().map(|e| e.dn().to_string()).collect();
        assert_eq!(dns, ["cn=d,c=in,o=xyz", "cn=b,c=us,o=xyz"]);
    }

    #[test]
    fn overlapping_filters_share_entries() {
        let mut m = master();
        let r = FilterReplica::new(0);
        r.install_filter(&mut m, root_query("(serialNumber=0456*)")).unwrap();
        r.install_filter(&mut m, root_query("(departmentNumber=2406)")).unwrap();
        // a and b are in both contents; c only in the serial filter.
        assert_eq!(r.entry_count(), 3);
        // Removing one filter keeps shared entries alive.
        let serial = root_query("(serialNumber=0456*)");
        assert!(r.remove_filter(&mut m, &serial));
        assert_eq!(r.filter_count(), 1);
        assert_eq!(r.entry_count(), 2); // c garbage-collected
        assert!(r.try_answer(&root_query("(serialNumber=045611)")).is_none());
        assert!(r.try_answer(&root_query("(departmentNumber=2406)")).is_some());
    }

    #[test]
    fn query_cache_window_and_eviction() {
        let m = master();
        let r = FilterReplica::new(2);
        // Miss path: caller fetches from master and caches.
        let q1 = root_query("(serialNumber=045611)");
        assert!(r.try_answer(&q1).is_none());
        let res1 = m.dit().search(&q1);
        r.cache_query(q1.clone(), &res1);
        assert_eq!(r.cached_query_count(), 1);
        // Repeat of q1 now hits the cache.
        assert!(r.try_answer(&q1).is_some());
        assert_eq!(r.stats().cache_hits, 1);

        // Two more cached queries evict q1 (window = 2).
        for f in ["(serialNumber=045612)", "(serialNumber=120001)"] {
            let q = root_query(f);
            let res = m.dit().search(&q);
            r.cache_query(q, &res);
        }
        assert_eq!(r.cached_query_count(), 2);
        assert!(r.try_answer(&q1).is_none(), "q1 should be evicted");
    }

    #[test]
    fn attribute_projection_on_answers() {
        let mut m = master();
        let r = FilterReplica::new(0);
        r.install_filter(&mut m, root_query("(serialNumber=0456*)")).unwrap();
        let q = SearchRequest::with_attrs(
            Dn::root(),
            Scope::Subtree,
            Filter::parse("(serialNumber=045611)").unwrap(),
            fbdr_ldap::AttrSelection::list(["cn"]),
        );
        let hit = r.try_answer(&q).expect("hit");
        assert!(hit[0].has_attr(&"cn".into()));
        assert!(!hit[0].has_attr(&"serialNumber".into()));
    }

    #[test]
    fn sync_recovers_from_expired_session() {
        let mut m = master();
        let r = FilterReplica::new(0);
        r.install_filter(&mut m, root_query("(serialNumber=0456*)")).unwrap();
        assert_eq!(r.entry_count(), 3);

        // Changes happen, then the master expires all idle sessions.
        m.apply(UpdateOp::Modify {
            dn: dn("cn=a,c=us,o=xyz"),
            mods: vec![Modification::Replace("serialNumber".into(), vec!["999999".into()])],
        })
        .unwrap();
        m.apply(UpdateOp::Add(person("e", "us", "045650", "2406"))).unwrap();
        assert_eq!(m.expire_idle(0), 1);

        // The poll recovers by reconciliation — only the divergence (one
        // entry in, one out) crosses the wire; content converges.
        let t = r.sync(&mut m).unwrap();
        assert_eq!((t.full_entries, t.dn_only), (1, 1));
        assert_eq!(r.entry_count(), 3);
        let hit = r.try_answer(&root_query("(serialNumber=0456*)")).unwrap();
        let mut dns: Vec<String> = hit.iter().map(|e| e.dn().to_string()).collect();
        dns.sort();
        assert_eq!(dns, ["cn=b,c=us,o=xyz", "cn=c,c=in,o=xyz", "cn=e,c=us,o=xyz"]);
        // The stale entry (a, now 999999) is gone.
        assert!(r.try_answer(&root_query("(serialNumber=999999)")).is_none());

        // Subsequent polls use the recovered session incrementally.
        m.apply(UpdateOp::Add(person("f", "in", "045660", "2407"))).unwrap();
        let t = r.sync(&mut m).unwrap();
        assert_eq!(t.full_entries, 1);
    }

    #[test]
    fn persistent_filter_streams_updates() {
        let mut m = master();
        let r = FilterReplica::new(0);
        r.install_filter_persistent(&mut m, root_query("(departmentNumber=2406)")).unwrap();
        assert_eq!(r.entry_count(), 2);

        // An update at the master arrives without any poll.
        m.apply(UpdateOp::Modify {
            dn: dn("cn=d,c=in,o=xyz"),
            mods: vec![Modification::Replace("departmentNumber".into(), vec!["2406".into()])],
        })
        .unwrap();
        let t = r.drain_notifications();
        assert_eq!(t.full_entries, 1);
        assert_eq!(r.entry_count(), 3);
        let hit = r.try_answer(&root_query("(departmentNumber=2406)")).unwrap();
        assert_eq!(hit.len(), 3);

        // Draining again is a no-op.
        assert_eq!(r.drain_notifications().pdus(), 0);
    }

    #[test]
    fn per_filter_sync_supports_consistency_levels() {
        let mut m = master();
        let r = FilterReplica::new(0);
        let hot = root_query("(departmentNumber=2406)");
        let cold = root_query("(serialNumber=12*)");
        r.install_filter(&mut m, hot.clone()).unwrap();
        r.install_filter(&mut m, cold.clone()).unwrap();

        // Updates touch both contents.
        m.apply(UpdateOp::Modify {
            dn: dn("cn=a,c=us,o=xyz"),
            mods: vec![Modification::Replace("mail".into(), vec!["hot@x".into()])],
        })
        .unwrap();
        m.apply(UpdateOp::Modify {
            dn: dn("cn=d,c=in,o=xyz"),
            mods: vec![Modification::Replace("mail".into(), vec!["cold@x".into()])],
        })
        .unwrap();

        // Only the hot filter polls.
        let t = r.sync_filter(&mut m, &hot).unwrap().expect("hot filter stored");
        assert_eq!(t.full_entries, 1);
        let hot_ans = r.try_answer(&root_query("(mail=hot@x)"));
        assert!(hot_ans.is_none(), "mail query is not contained in dept filter");
        // The hot entry was refreshed...
        let e = r.try_answer(&hot).unwrap();
        assert!(e.iter().any(|e| e.has_value(&"mail".into(), &"hot@x".into())));
        // ...while the cold filter's content is still stale.
        let e = r.try_answer(&cold).unwrap();
        assert!(!e.iter().any(|e| e.has_value(&"mail".into(), &"cold@x".into())));

        // Unknown filters return None.
        assert!(r.sync_filter(&mut m, &root_query("(cn=zz)")).unwrap().is_none());
    }

    #[test]
    fn engine_stats_exposed() {
        let mut m = master();
        let r = FilterReplica::new(0);
        r.install_filter(&mut m, root_query("(serialNumber=0456*)")).unwrap();
        r.try_answer(&root_query("(serialNumber=045611)"));
        assert!(r.engine_stats().total() > 0);
    }

    #[test]
    fn concurrent_readers_share_the_replica() {
        // The acceptance shape of the read/write split: plain `&r` shared
        // across threads, no external Mutex, exact atomic accounting.
        let mut m = master();
        let r = FilterReplica::new(0);
        r.install_filter(&mut m, root_query("(serialNumber=0456*)")).unwrap();
        std::thread::scope(|s| {
            for _ in 0..4 {
                let r = &r;
                s.spawn(move || {
                    for _ in 0..100 {
                        let hit = r.try_answer(&root_query("(serialNumber=045611)"));
                        assert_eq!(hit.expect("hit").len(), 1);
                    }
                });
            }
        });
        assert_eq!(r.stats().queries, 400);
        assert_eq!(r.stats().hits, 400);
    }

    // ------------------------------------------------------------------
    // Indexed evaluation
    // ------------------------------------------------------------------

    #[test]
    fn indexed_and_scan_paths_agree() {
        let mut m = master();
        let r = FilterReplica::new(0);
        r.install_filter(&mut m, root_query("(serialNumber=0456*)")).unwrap();
        r.install_filter(&mut m, root_query("(departmentNumber=2406)")).unwrap();
        let queries = [
            root_query("(serialNumber=045611)"),
            root_query("(serialNumber=04561*)"),
            root_query("(&(serialNumber=0456*)(departmentNumber=2406))"),
            root_query("(|(serialNumber=045611)(serialNumber=045621))"),
            root_query("(serialNumber=*45611)"), // unplannable → scan fallback
            sub_query("c=in,o=xyz", "(serialNumber=0456*)"),
            root_query("(serialNumber=999999)"),
            root_query("(departmentNumber=9900)"), // not contained → miss
        ];
        for q in &queries {
            assert_eq!(r.try_answer(q), r.try_answer_scan(q), "query {q}");
        }
    }

    #[test]
    fn epoch_shares_untouched_index() {
        // A sync cycle with no changes publishes a new epoch that shares
        // every index node, entry chunk and stored filter with the
        // previous one.
        let mut m = master();
        let r = FilterReplica::new(0);
        r.install_filter(&mut m, root_query("(departmentNumber=2406)")).unwrap();
        let before = r.snapshot();
        r.sync(&mut m).unwrap();
        let after = r.snapshot();
        assert_eq!(after.epoch, before.epoch + 1);
        assert_eq!(before.index.node_addrs(), after.index.node_addrs(), "index shared");
        assert_eq!(before.entries.chunk_addrs(), after.entries.chunk_addrs(), "entries shared");
        assert!(Arc::ptr_eq(&before.filters[0].ids, &after.filters[0].ids), "filter kept");
    }

    #[test]
    fn filter_index_lives_one_filter_generation() {
        let mut m = master();
        let r = FilterReplica::new(0);
        r.install_filter(&mut m, root_query("(departmentNumber=2406)")).unwrap();
        let installed = r.snapshot();
        assert!(installed.filter_index.get().is_none(), "no reader yet: nothing built");
        assert!(r.try_answer(&root_query("(departmentNumber=2406)")).is_some());
        assert_eq!(installed.filter_index.get().map(RoutingIndex::len), Some(1));

        // Content-only publishes carry the built index along by pointer.
        m.apply(UpdateOp::Add(person("e", "us", "045650", "2406"))).unwrap();
        r.sync(&mut m).unwrap();
        let synced = r.snapshot();
        assert!(Arc::ptr_eq(&installed.filter_index, &synced.filter_index));

        // Install and remove start a new one; held epochs keep theirs.
        r.install_filter(&mut m, root_query("(serialNumber=0456*)")).unwrap();
        let grown = r.snapshot();
        assert!(!Arc::ptr_eq(&synced.filter_index, &grown.filter_index));
        assert!(grown.filter_index.get().is_none());
        assert!(r.remove_filter(&mut m, &root_query("(departmentNumber=2406)")));
        let shrunk = r.snapshot();
        assert!(!Arc::ptr_eq(&grown.filter_index, &shrunk.filter_index));
        // Position 0 is now the serial filter, and is found as such.
        assert!(r.try_answer(&root_query("(serialNumber=045611)")).is_some());
        assert!(r.try_answer(&root_query("(departmentNumber=2406)")).is_none());
        assert_eq!(synced.filter_index.get().map(RoutingIndex::len), Some(1));
        shrunk.filter_index.get().expect("built by the reader").debug_validate();
    }

    /// A master holding `n` people in one department, all inside the
    /// `(departmentNumber=7)` filter.
    fn big_master(n: usize) -> SyncMaster {
        let mut m = SyncMaster::new();
        m.dit_mut().add_suffix(dn("o=xyz"));
        m.dit_mut().add(Entry::new(dn("o=xyz"))).unwrap();
        m.dit_mut().add(Entry::new(dn("c=us,o=xyz"))).unwrap();
        for i in 0..n {
            let e = person(&format!("p{i:05}"), "us", &format!("{:06}", 100_000 + i), "7")
                .with("mail", &format!("p{i}@xyz.com"));
            m.dit_mut().add(e).unwrap();
        }
        m
    }

    fn replace_mail(cn: &str, mail: &str) -> UpdateOp {
        UpdateOp::Modify {
            dn: dn(&format!("cn={cn},c=us,o=xyz")),
            mods: vec![Modification::Replace("mail".into(), vec![mail.into()])],
        }
    }

    /// Has `r` keep the attributes `f` plans on, as the first query that
    /// plans on them does.
    fn keep(r: &FilterReplica, f: &str) {
        let q = root_query(f);
        r.evaluate_indexed(&r.snapshot(), &q, &[], false);
        let snap = r.snapshot();
        assert!(index::unkept_in(q.filter(), |a| snap.index.carries_unkept(a)).is_empty(), "{f} kept");
    }

    #[test]
    fn one_entry_modify_shares_all_but_a_constant_number_of_nodes() {
        let mut m = big_master(2_500);
        let r = FilterReplica::new(0);
        r.install_filter_persistent(&mut m, root_query("(departmentNumber=7)")).unwrap();
        r.install_filter(&mut m, root_query("(serialNumber=1000*)")).unwrap();
        keep(&r, "(&(cn=p1)(serialNumber=1)(mail=m))");
        let before = r.snapshot();
        m.apply(replace_mail("p01234", "new@xyz.com")).unwrap();
        assert_eq!(r.drain_notifications().full_entries, 1);
        let after = r.snapshot();
        assert_eq!(after.epoch, before.epoch + 1);

        // Index: the path to the old and to the new mail value in the two
        // value maps, the attribute map's path. Every mail is one person's,
        // so its id sits in the map node and no list is copied.
        let old: HashSet<usize> = before.index.node_addrs().into_iter().collect();
        let new = after.index.node_addrs();
        let copied = new.iter().filter(|a| !old.contains(a)).count();
        assert!(new.len() > 500, "{} index nodes and heap lists", new.len());
        assert!(copied <= 12, "{copied} of {} index nodes copied", new.len());
        let postings = after.index.postings();
        let one_id: Vec<_> = postings.iter().filter(|ids| ids.as_slice().len() == 1).collect();
        assert!(one_id.len() >= 4 * 2_500, "{} one-id keys", one_id.len());
        assert!(one_id.iter().all(|ids| ids.is_inline()), "a one-id key holds a heap list");
        // Entries: one chunk.
        let chunks = before.entries.chunk_addrs();
        let shared = chunks.iter().zip(after.entries.chunk_addrs()).filter(|(a, b)| *a == b);
        assert!(chunks.len() >= 2_500 / 64);
        assert_eq!(shared.count(), chunks.len() - 1);
        // Filters: the touched one held the entry already, so its posting
        // list is not copied, beside the same prepared query; the other is
        // untouched.
        assert!(Arc::ptr_eq(&before.filters[0].ids, &after.filters[0].ids));
        assert!(Arc::ptr_eq(&before.filters[0].prepared, &after.filters[0].prepared));
        assert!(Arc::ptr_eq(&before.filters[1].ids, &after.filters[1].ids));

        let q = root_query("(mail=new@xyz.com)");
        assert_eq!(r.evaluate_indexed(&after, &q, &after.filters[0].ids, false).len(), 1);
        assert_eq!(r.evaluate_indexed(&before, &q, &before.filters[0].ids, false).len(), 0);
    }

    #[test]
    fn the_first_plan_on_an_attribute_keeps_it_and_drains_maintain_it() {
        let mut m = big_master(500);
        let obs = Obs::new();
        let ring = Arc::new(fbdr_obs::RingBuffer::new(64));
        obs.set_subscriber(ring.clone());
        let r = FilterReplica::with_obs(0, obs.clone());
        r.install_filter_persistent(&mut m, root_query("(departmentNumber=7)")).unwrap();
        // Nothing is kept until a query plans: a drain of a `Modify` to
        // the mail of an entry copies its slot chunk, no index node.
        let installed = r.snapshot();
        assert_eq!(installed.index.kept_count(), 0);
        m.apply(replace_mail("p00123", "new@xyz.com")).unwrap();
        assert_eq!(r.drain_notifications().full_entries, 1);
        let drained = r.snapshot();
        assert_eq!(drained.epoch, installed.epoch + 1);
        assert_eq!(drained.index.node_addrs(), installed.index.node_addrs());

        // The first query that plans on mail keeps it: the same content
        // under the same epoch, now listing every held entry's mail.
        let moved = root_query("(&(departmentNumber=7)(mail=new@xyz.com))");
        let hit = r.try_answer(&moved).expect("contained");
        assert_eq!(hit.len(), 1);
        let kept = r.snapshot();
        assert_eq!(kept.epoch, drained.epoch);
        assert!(Arc::ptr_eq(&kept.filters[0].ids, &drained.filters[0].ids));
        assert_eq!(kept.entries.chunk_addrs(), drained.entries.chunk_addrs());
        assert_eq!(kept.index.kept_count(), 2, "departmentNumber and mail");
        assert_eq!(obs.registry().gauge("fbdr_replica_index_kept_attrs").get(), 2);
        let keeps: Vec<_> = ring.events().into_iter().filter(|e| e.name == "index_keep").collect();
        let attrs: Vec<_> = keeps.iter().map(|e| e.field("attribute").cloned()).collect();
        assert_eq!(
            attrs,
            ["departmentNumber", "mail"].map(|a| Some(fbdr_obs::FieldValue::Str(a.into())))
        );
        assert!(keeps.iter().all(|e| e.u64_field("entries") == Some(500)));
        assert!(keeps.iter().all(|e| e.u64_field("epoch") == Some(kept.epoch)));
        let plan = |snap: &ContentSnapshot, f: &str| {
            snap.index.plan(&Filter::parse(f).unwrap()).plan.map(|p| (p.ids.len(), p.exact))
        };
        assert_eq!(plan(&kept, "(mail=new@xyz.com)"), Some((1, true)));
        assert_eq!(plan(&drained, "(mail=new@xyz.com)"), None, "a held epoch is untouched");

        // Later drains maintain it, and the next query asks nothing more.
        m.apply(replace_mail("p00123", "newer@xyz.com")).unwrap();
        assert_eq!(r.drain_notifications().full_entries, 1);
        let next = r.snapshot();
        assert_eq!(plan(&next, "(mail=newer@xyz.com)"), Some((1, true)));
        assert_eq!(plan(&next, "(mail=new@xyz.com)"), Some((0, true)));
        assert_eq!(r.try_answer(&moved).expect("contained").len(), 0);
        assert!(Arc::ptr_eq(&next, &r.snapshot()), "nothing left to keep");
        assert_eq!(ring.events().iter().filter(|e| e.name == "index_keep").count(), 2);
    }

    #[test]
    fn empty_drain_publishes_nothing() {
        let mut m = master();
        let r = FilterReplica::new(0);
        r.install_filter_persistent(&mut m, root_query("(departmentNumber=2406)")).unwrap();
        // An update outside the filter reaches no channel.
        m.apply(UpdateOp::Add(person("e", "us", "045650", "9900"))).unwrap();
        let before = r.snapshot();
        assert_eq!(r.drain_notifications().pdus(), 0);
        let after = r.snapshot();
        assert!(Arc::ptr_eq(&before, &after), "same published snapshot");
        assert_eq!(after.epoch, before.epoch);
    }

    /// A drain nobody is reading edits the published epoch: the same
    /// allocation, the next epoch number, announced as any publish is. A
    /// held epoch makes the next drain build beside it, and stays as it
    /// was.
    #[test]
    fn a_drain_edits_the_published_epoch_unless_it_is_held() {
        let mut m = big_master(200);
        let obs = Obs::new();
        let ring = Arc::new(fbdr_obs::RingBuffer::new(64));
        obs.set_subscriber(ring.clone());
        let r = FilterReplica::with_obs(0, obs);
        r.install_filter_persistent(&mut m, root_query("(departmentNumber=7)")).unwrap();
        keep(&r, "(&(departmentNumber=7)(mail=m))");
        let moved = root_query("(&(departmentNumber=7)(mail=new@xyz.com))");
        let published = |r: &FilterReplica| Arc::as_ptr(&r.snapshot());
        let publishes = || ring.events().iter().filter(|e| e.name == "epoch_publish").count();

        let (at, epoch, announced) = (published(&r), r.epoch(), publishes());
        m.apply(replace_mail("p00012", "new@xyz.com")).unwrap();
        assert_eq!(r.drain_notifications().full_entries, 1);
        assert_eq!(published(&r), at, "edited in place");
        assert_eq!(r.epoch(), epoch + 1);
        assert_eq!(publishes(), announced + 1);
        assert_eq!(r.try_answer(&moved).expect("contained").len(), 1);
        let old_mail = root_query("(&(departmentNumber=7)(mail=p12@xyz.com))");
        assert_eq!(r.try_answer(&old_mail).expect("contained").len(), 0, "the old key left");

        let held = r.snapshot();
        m.apply(replace_mail("p00012", "newer@xyz.com")).unwrap();
        assert_eq!(r.drain_notifications().full_entries, 1);
        assert_ne!(published(&r), Arc::as_ptr(&held), "published beside the held epoch");
        assert_eq!(r.epoch(), held.epoch + 1);
        assert_eq!(publishes(), announced + 2);
        assert_eq!(r.try_answer(&moved).expect("contained").len(), 0);
        let ids = &held.filters[0].ids;
        assert_eq!(r.evaluate_indexed(&held, &moved, ids, false).len(), 1, "the held epoch is as it was");
    }

    #[test]
    fn held_epoch_is_isolated_from_id_recycling() {
        let mut m = big_master(300);
        let r = FilterReplica::new(0);
        r.install_filter(&mut m, root_query("(departmentNumber=7)")).unwrap();
        let queries = [
            root_query("(departmentNumber=7)"),
            root_query("(serialNumber=10001*)"),
            root_query("(serialNumber>=100290)"),
            root_query("(mail=p17@xyz.com)"),
            root_query("(&(mail=*)(serialNumber<=100020))"),
            root_query("(cn=*7)"), // unplannable: scans the posting list
        ];
        keep(&r, "(&(departmentNumber=7)(serialNumber=1)(mail=m))");
        let held = r.snapshot();
        let answers = |snap: &Arc<ContentSnapshot>| -> String {
            let ids = &snap.filters[0].ids;
            let all: Vec<Vec<Entry>> =
                queries.iter().map(|q| r.evaluate_indexed(snap, q, ids, false)).collect();
            format!("{all:?}")
        };
        let before = answers(&held);

        // Through epochs n+1..n+k: delete entries (their ids are
        // released), add others (released ids are handed out again),
        // modify survivors and newcomers.
        let id_of = |key: &str| r.writer.lock().table.get(&dn(key));
        let recycled = id_of("cn=p00017,c=us,o=xyz").expect("held");
        for round in 0..6 {
            for i in (round * 20)..(round * 20 + 20) {
                m.apply(UpdateOp::Delete(dn(&format!("cn=p{i:05},c=us,o=xyz")))).unwrap();
            }
            r.sync(&mut m).unwrap();
            for i in 0..15 {
                let n = 1_000 + round * 15 + i;
                let e = person(&format!("q{n}"), "us", &format!("{:06}", 100_000 + n), "7");
                m.apply(UpdateOp::Add(e)).unwrap();
            }
            m.apply(replace_mail("p00299", &format!("round{round}@xyz.com"))).unwrap();
            r.sync(&mut m).unwrap();
            m.apply(replace_mail(&format!("q{}", 1_000 + round * 15), "moved@xyz.com")).unwrap();
            r.sync(&mut m).unwrap();
        }
        let now = r.snapshot();
        assert_eq!(now.epoch, held.epoch + 18);
        assert_eq!(id_of("cn=p00017,c=us,o=xyz"), None);
        let reused = now.entry(recycled).expect("the released id was handed out again");
        assert_ne!(reused.dn(), held.entry(recycled).unwrap().dn());
        assert_ne!(answers(&now), before);

        assert_eq!(answers(&held), before, "the held epoch answers exactly as it did");
    }

    // ------------------------------------------------------------------
    // Robustness: degradation ladder
    // ------------------------------------------------------------------

    /// Simulated clock: sleeping advances time instantly.
    #[derive(Debug, Clone, Default)]
    struct TestClock {
        now: std::sync::Arc<std::sync::atomic::AtomicU64>,
    }

    impl Clock for TestClock {
        fn now_ms(&self) -> u64 {
            self.now.load(std::sync::atomic::Ordering::SeqCst)
        }

        fn sleep_ms(&self, ms: u64) {
            self.now.fetch_add(ms, std::sync::atomic::Ordering::SeqCst);
        }
    }

    /// A transport over a real master that fails the next `outage` calls;
    /// `drop_responses` instead lets the master process the request and
    /// loses the answer on the way back (the retried-cookie case).
    struct FlakyMaster {
        master: SyncMaster,
        outage: u32,
        drop_responses: u32,
    }

    impl SyncTransport for FlakyMaster {
        fn resync_at(
            &mut self,
            _shard: ShardId,
            request: &SearchRequest,
            ctl: ReSyncControl,
        ) -> Result<fbdr_resync::SyncResponse, SyncError> {
            if self.outage > 0 {
                self.outage -= 1;
                return Err(SyncError::Unavailable("outage".into()));
            }
            if self.drop_responses > 0 {
                self.drop_responses -= 1;
                let _ = self.master.resync(request, ctl);
                return Err(SyncError::Unavailable("response dropped".into()));
            }
            self.master.resync(request, ctl)
        }

        fn take_receiver_at(&mut self, _: ShardId, cookie: Cookie) -> Option<Receiver<NotifyBatch>> {
            self.master.take_receiver(cookie)
        }

        fn abandon_at(&mut self, _shard: ShardId, cookie: Cookie) {
            self.master.abandon(cookie);
        }

        fn reconcile_at(
            &mut self,
            _shard: ShardId,
            request: &SearchRequest,
            req: fbdr_resync::reconcile::ReconcileRequest,
        ) -> Result<fbdr_resync::reconcile::ReconcileResponse, SyncError> {
            if self.outage > 0 {
                self.outage -= 1;
                return Err(SyncError::Unavailable("outage".into()));
            }
            self.master.reconcile(request, req)
        }

        fn reconcile_ranges_at(
            &mut self,
            _shard: ShardId,
            cookie: Cookie,
            req: &fbdr_resync::reconcile::RangeRequest,
        ) -> Result<fbdr_resync::reconcile::RangeResponse, SyncError> {
            if self.outage > 0 {
                self.outage -= 1;
                return Err(SyncError::Unavailable("outage".into()));
            }
            self.master.reconcile_ranges(cookie, req)
        }
    }

    fn driver() -> SyncDriver<TestClock> {
        SyncDriver::with_clock(
            fbdr_resync::RetryConfig { max_retries: 2, ..Default::default() },
            TestClock::default(),
        )
    }

    #[test]
    fn sync_with_retries_through_transient_outage() {
        let mut m = master();
        let r = FilterReplica::new(0);
        r.install_filter(&mut m, root_query("(departmentNumber=2406)")).unwrap();
        m.apply(UpdateOp::Add(person("e", "us", "045650", "2406"))).unwrap();

        let mut link = FlakyMaster { master: m, outage: 2, drop_responses: 0 };
        let mut d = driver();
        let t = r.sync_with(&mut link, &mut d).unwrap();
        assert_eq!(t.full_entries, 1);
        assert_eq!(r.stale_filter_count(), 0);
        assert_eq!(d.stats().retries, 2);
        assert_eq!(d.stats().recovered, 1);
    }

    #[test]
    fn exhausted_retries_serve_stale_until_recovery() {
        let mut m = master();
        let r = FilterReplica::new(0);
        r.install_filter(&mut m, root_query("(departmentNumber=2406)")).unwrap();
        m.apply(UpdateOp::Add(person("e", "us", "045650", "2406"))).unwrap();

        // Outage longer than the retry budget (1 try + 2 retries).
        let mut link = FlakyMaster { master: m, outage: 10, drop_responses: 0 };
        let mut d = driver();
        let t = r.sync_with(&mut link, &mut d).expect("cycle must not fail");
        assert_eq!(t.pdus(), 0);
        assert_eq!(r.stale_filter_count(), 1);
        assert_eq!(d.stats().exhausted, 1);

        // Stale content is still served — and accounted as stale.
        let q = root_query("(departmentNumber=2406)");
        assert_eq!(r.try_answer(&q).expect("stale hit").len(), 2);
        assert_eq!(r.stats().stale_serves, 1);

        // The outage ends; the next cycle catches up and clears the mark.
        link.outage = 0;
        let t = r.sync_with(&mut link, &mut d).unwrap();
        assert_eq!(t.full_entries, 1);
        assert_eq!(r.stale_filter_count(), 0);
        r.try_answer(&q).expect("fresh hit");
        assert_eq!(r.stats().stale_serves, 1, "fresh hits are not stale serves");
    }

    #[test]
    fn sync_with_reconciles_after_session_expiry() {
        // The session dies at the master, but only one entry diverged:
        // recovery goes through the reconcile rung and ships exactly that
        // entry, never touching the reinstall counter.
        let mut m = master();
        let r = FilterReplica::new(0);
        r.install_filter(&mut m, root_query("(serialNumber=0456*)")).unwrap();
        let held_before = r.entry_count();
        m.apply(UpdateOp::Add(person("e", "us", "045650", "2406"))).unwrap();
        assert_eq!(m.expire_idle(0), 1);

        let mut link = FlakyMaster { master: m, outage: 0, drop_responses: 0 };
        let mut d = driver();
        let t = r.sync_with(&mut link, &mut d).unwrap();
        assert_eq!(t.full_entries, 1, "only the diverged entry crosses the wire");
        assert_eq!(d.stats().reconciliations, 1);
        assert_eq!(d.stats().reinstalls, 0);
        assert_eq!(r.stale_filter_count(), 0);
        assert_eq!(r.entry_count(), held_before + 1);
        // The re-established cookie polls incrementally.
        link.master.apply(UpdateOp::Add(person("f", "in", "045660", "7"))).unwrap();
        let t = r.sync_with(&mut link, &mut d).unwrap();
        assert_eq!(t.full_entries, 1);
        assert_eq!(d.stats().reconciliations, 1, "no second reconcile needed");
    }

    #[test]
    fn sync_with_reconcile_applies_detached_deletions() {
        // Deletions that happened while the session was dead must land
        // through reconciliation — the divergence Bloom digests alone
        // cannot see.
        let mut m = master();
        let r = FilterReplica::new(0);
        r.install_filter(&mut m, root_query("(serialNumber=0456*)")).unwrap();
        let held_before = r.entry_count();
        m.apply(UpdateOp::Delete(dn("cn=a,c=us,o=xyz"))).unwrap();
        assert_eq!(m.expire_idle(0), 1);

        let mut link = FlakyMaster { master: m, outage: 0, drop_responses: 0 };
        let mut d = driver();
        let t = r.sync_with(&mut link, &mut d).unwrap();
        assert_eq!(t.dn_only, 1, "the deletion travels as one hash, applied locally");
        assert_eq!(d.stats().reconciliations, 1);
        assert_eq!(d.stats().reinstalls, 0);
        assert_eq!(r.entry_count(), held_before - 1);
        let q = root_query("(serialNumber=0456*)");
        assert!(
            r.try_answer(&q).unwrap().iter().all(|e| e.dn() != &dn("cn=a,c=us,o=xyz")),
            "zero lost deletions"
        );
    }

    #[test]
    fn sync_with_falls_back_to_reinstall_when_transport_cannot_reconcile() {
        // A transport without the reconcile legs (the trait defaults)
        // routes recovery to the old full-reload rung.
        struct PlainLink {
            master: SyncMaster,
        }
        impl SyncTransport for PlainLink {
            fn resync_at(
                &mut self,
                _shard: ShardId,
                request: &SearchRequest,
                ctl: ReSyncControl,
            ) -> Result<fbdr_resync::SyncResponse, SyncError> {
                self.master.resync(request, ctl)
            }
            fn take_receiver_at(&mut self, _: ShardId, c: Cookie) -> Option<Receiver<NotifyBatch>> {
                self.master.take_receiver(c)
            }
            fn abandon_at(&mut self, _shard: ShardId, cookie: Cookie) {
                self.master.abandon(cookie);
            }
        }

        let mut m = master();
        let r = FilterReplica::new(0);
        r.install_filter(&mut m, root_query("(serialNumber=0456*)")).unwrap();
        m.apply(UpdateOp::Add(person("e", "us", "045650", "2406"))).unwrap();
        assert_eq!(m.expire_idle(0), 1);

        let mut link = PlainLink { master: m };
        let mut d = driver();
        let t = r.sync_with(&mut link, &mut d).unwrap();
        assert_eq!(t.full_entries, 4, "full reload");
        assert_eq!(d.stats().reconciliations, 0);
        assert_eq!(d.stats().reinstalls, 1);
        assert_eq!(r.stale_filter_count(), 0);
    }

    /// [`master`]'s directory split in two shards, `c=us` and `c=in`.
    fn sharded_master() -> fbdr_resync::ShardedMaster {
        let map = ShardMap::by_suffixes(vec![dn("c=us,o=xyz"), dn("c=in,o=xyz")]);
        let mut sharded = fbdr_resync::ShardedMaster::new(map.clone());
        for (shard, c) in map.shards().zip(["us", "in"]) {
            let dit = sharded.shard_mut(shard).dit_mut();
            dit.add_suffix(dn("o=xyz"));
            dit.add(Entry::new(dn("o=xyz"))).unwrap();
            dit.add(Entry::new(dn(&format!("c={c},o=xyz")))).unwrap();
        }
        for (cn, c, sn, dept) in [
            ("a", "us", "045611", "2406"),
            ("b", "us", "045612", "2406"),
            ("c", "in", "045621", "2407"),
        ] {
            sharded.apply(UpdateOp::Add(person(cn, c, sn, dept))).unwrap();
        }
        sharded
    }

    #[test]
    fn sharded_cycle_polls_filters_installed_unsharded() {
        // One cookie representation: a filter installed through the plain
        // path is the one-part case and is polled by whichever cycle runs.
        let mut m = master();
        let r = FilterReplica::new(0);
        r.install_filter(&mut m, root_query("(departmentNumber=2406)")).unwrap();
        m.apply(UpdateOp::Add(person("e", "us", "045650", "2406"))).unwrap();

        let mut coordinator = ShardCoordinator::new(ShardMap::single());
        let t = r.sync_with_sharded(&mut m, &mut coordinator).unwrap();
        assert_eq!(t.full_entries, 1, "the filter was polled, not skipped");
        assert_eq!(r.try_answer(&root_query("(departmentNumber=2406)")).unwrap().len(), 3);
    }

    #[test]
    fn remove_filter_abandons_every_shard_session() {
        let mut m = sharded_master();
        let mut coordinator = ShardCoordinator::new(m.map().clone());
        let r = FilterReplica::new(0);
        let q = root_query("(serialNumber=0456*)");
        r.install_filter_sharded(&mut m, &mut coordinator, q.clone()).unwrap();
        assert_eq!(r.entry_count(), 3);
        assert_eq!(m.session_count(), 2, "one session per overlapped shard");

        assert!(r.remove_filter(&mut m, &q));
        assert_eq!(m.session_count(), 0, "no session outlives its filter");
        assert_eq!(r.entry_count(), 0);
    }

    #[test]
    fn disconnected_persist_channel_degrades_to_polling() {
        let mut m = master();
        let r = FilterReplica::new(0);
        r.install_filter_persistent(&mut m, root_query("(departmentNumber=2406)")).unwrap();
        assert_eq!(r.entry_count(), 2);

        // A notification is queued, then the master drops every persist
        // channel (restart / connection loss).
        m.apply(UpdateOp::Add(person("e", "us", "045650", "2406"))).unwrap();
        assert_eq!(m.drop_persist_channels(), 1);

        // The queued update still lands; the filter falls back to polling.
        let t = r.drain_notifications();
        assert_eq!(t.full_entries, 1);
        assert_eq!(r.entry_count(), 3);
        assert_eq!(r.stats().poll_fallbacks, 1);
        // Draining again is a clean no-op (no double-counted fallback).
        assert_eq!(r.drain_notifications().pdus(), 0);
        assert_eq!(r.stats().poll_fallbacks, 1);

        // The session is still pollable via its cookie, and the poll
        // ledger knows what the stream already delivered: the fallback
        // poll sends only "f", not a redelivery of "e".
        m.apply(UpdateOp::Add(person("f", "in", "045660", "2406"))).unwrap();
        let t = r.sync(&mut m).unwrap();
        assert_eq!(t.full_entries, 1);
        assert_eq!(r.entry_count(), 4);
    }

    #[test]
    fn cache_window_renumbers_when_sequence_numbers_run_out() {
        let m = master();
        let r = FilterReplica::new(2);
        let queries: Vec<SearchRequest> = ["045611", "045612", "045621", "120001"]
            .iter()
            .map(|sn| root_query(&format!("(serialNumber={sn})")))
            .collect();
        let cache = |q: &SearchRequest| r.cache_query(q.clone(), &m.dit().search(q));
        cache(&queries[0]);
        cache(&queries[1]);
        // As if 2^32 - 3 queries had already passed through the window.
        {
            let mut window = r.cache.lock();
            let held: Vec<_> = window.queries.iter().cloned().collect();
            *window = QueryCache { first: u32::MAX - 3, ..QueryCache::default() };
            for cq in held {
                window.push(cq, 2);
            }
            assert_eq!(window.first, u32::MAX - 3);
        }
        cache(&queries[2]); // takes the last number, evicts queries[0]
        assert_eq!(r.cache.lock().first, u32::MAX - 2);
        cache(&queries[3]); // out of numbers: the window restarts at 0
        {
            let window = r.cache.lock();
            assert_eq!((window.first, window.queries.len()), (1, 2));
            window.index.debug_validate();
            assert_eq!(window.index.len(), 2);
        }
        assert!(r.try_answer(&queries[0]).is_none());
        assert!(r.try_answer(&queries[1]).is_none());
        assert!(r.try_answer(&queries[2]).is_some());
        assert!(r.try_answer(&queries[3]).is_some());
    }

    #[test]
    fn miss_events_say_why_and_metrics_count_candidates() {
        let mut m = master();
        let obs = Obs::new();
        let ring = Arc::new(fbdr_obs::RingBuffer::new(64));
        obs.set_subscriber(ring.clone());
        let r = FilterReplica::with_obs(2, obs.clone());
        r.install_filter(&mut m, root_query("(serialNumber=0456*)")).unwrap();
        r.install_filter(&mut m, root_query("(departmentNumber=2406)")).unwrap();
        let miss = |f: &str| {
            assert!(r.try_answer(&root_query(f)).is_none(), "{f}");
            let events = ring.events();
            let e = events.iter().rev().find(|e| e.name == "qc_miss").expect("qc_miss").clone();
            let reason = match e.field("reason") {
                Some(fbdr_obs::FieldValue::Str(s)) => s.clone(),
                other => panic!("reason field: {other:?}"),
            };
            (reason, e.u64_field("candidates").expect("candidates"))
        };
        assert_eq!(miss("(mail=a@b)"), ("no_candidate".to_owned(), 0));
        assert_eq!(miss("(serialNumber=0457*)"), ("no_candidate".to_owned(), 0));
        assert_eq!(miss("(serialNumber=045*)"), ("no_candidate".to_owned(), 0));
        // Wider base than the one candidate filter accepts → rejected.
        r.install_filter(&mut m, sub_query("c=us,o=xyz", "(cn=*)")).unwrap();
        assert_eq!(miss("(cn=a)"), ("candidates_rejected".to_owned(), 1));
        // The same miss again is looked up again, and says the same.
        assert_eq!(miss("(cn=a)"), ("candidates_rejected".to_owned(), 1));
        assert_eq!(
            miss("(|(serialNumber=12*)(cn=zz))"),
            ("unindexed_shape".to_owned(), 3)
        );
        let reg = obs.registry();
        // Every query is one lookup; one of the six was a fallback.
        assert_eq!(reg.histogram("fbdr_replica_filter_index_candidates").count(), 6);
        assert_eq!(reg.counter("fbdr_replica_filter_index_fallback_total").get(), 1);
    }

    /// `fbdr_replica_plan_exact_total` counts the hits answered without
    /// verifying a candidate: equality, prefix, range and a conjunction of
    /// them. A conjunct that does not plan (presence), a pattern with more
    /// than an `initial`, or a `Not` leaves the plan a bound, verified as
    /// before. Either way the answer is the scan reference's.
    #[test]
    fn the_exact_plan_counter_counts_the_hits_that_skip_verification() {
        let mut m = master();
        let obs = Obs::new();
        let r = FilterReplica::with_obs(0, obs.clone());
        for f in ["(serialNumber=0456*)", "(departmentNumber=2406)", "(serialNumber>=045600)"] {
            r.install_filter(&mut m, root_query(f)).unwrap();
        }
        let names = |answer: Vec<Entry>| -> Vec<String> {
            let mut names: Vec<String> = answer.iter().map(|e| e.dn().to_string()).collect();
            names.sort();
            names
        };
        let hit = |f: &str| -> Vec<String> {
            let q = root_query(f);
            let answer = names(r.try_answer(&q).unwrap_or_else(|| panic!("{f} is a hit")));
            assert_eq!(Some(&answer), r.try_answer_scan(&q).map(names).as_ref(), "{f}");
            answer
        };
        let (a, b) = ("cn=a,c=us,o=xyz", "cn=b,c=us,o=xyz");
        let (c, d) = ("cn=c,c=in,o=xyz", "cn=d,c=in,o=xyz");
        let reg = obs.registry();
        let exact = || reg.counter("fbdr_replica_plan_exact_total").get();
        assert_eq!(hit("(serialNumber=045612)"), [b]);
        assert_eq!(hit("(serialNumber=04561*)"), [a, b]);
        assert_eq!(hit("(serialNumber>=045612)"), [b, c, d]);
        assert_eq!(hit("(&(departmentNumber=2406)(serialNumber=045612))"), [b]);
        assert_eq!(exact(), 4);
        assert_eq!(hit("(&(departmentNumber=2406)(objectclass=*))"), [a, b]);
        assert_eq!(hit("(&(departmentNumber=2406)(cn=*b*))"), [b]);
        assert_eq!(hit("(&(departmentNumber=2406)(!(cn=a)))"), [b]);
        assert_eq!(exact(), 4);
        assert_eq!(reg.counter("fbdr_replica_plan_indexed_total").get(), 7);
    }

    /// A query asking exactly what its container holds is answered with
    /// the whole content — counted by `fbdr_replica_answer_whole_total`,
    /// and said by `qc_hit`'s `whole` — from a cached query always, and
    /// from a stored filter while it is settled: another filter storing a
    /// new body of an entry both hold unsettles it, and a cycle that
    /// brings every filter back fresh settles it again — unless a filter
    /// streams: a batch waiting in its channel is not the cycle's to see.
    #[test]
    fn a_query_equal_to_its_container_is_answered_whole() {
        let mut m = master();
        let obs = Obs::new();
        let ring = Arc::new(fbdr_obs::RingBuffer::new(64));
        obs.set_subscriber(ring.clone());
        let r = FilterReplica::with_obs(2, obs.clone());
        let dept = root_query("(departmentNumber=2406)");
        let serial = root_query("(serialNumber=0456*)");
        r.install_filter(&mut m, dept.clone()).unwrap();
        r.install_filter(&mut m, serial.clone()).unwrap();
        let ask = |q: &SearchRequest| -> (usize, bool) {
            let answer = r.try_answer(q).unwrap_or_else(|| panic!("{q} is a hit"));
            let events = ring.events();
            let hit = events.iter().rev().find(|e| e.name == "qc_hit").expect("qc_hit");
            let whole = match hit.field("whole") {
                Some(fbdr_obs::FieldValue::Bool(whole)) => *whole,
                other => panic!("whole field: {other:?}"),
            };
            (answer.len(), whole)
        };
        let counted = || obs.registry().counter("fbdr_replica_answer_whole_total").get();

        assert_eq!(ask(&dept), (2, true));
        assert_eq!(ask(&root_query("(serialNumber=045611)")), (1, false));
        assert_eq!(counted(), 1);

        // b leaves the department but keeps its serial; only the serial
        // filter polls, and stores b's new body under the department's
        // filter too.
        m.apply(UpdateOp::Modify {
            dn: dn("cn=b,c=us,o=xyz"),
            mods: vec![Modification::Replace("departmentNumber".into(), vec!["2409".into()])],
        })
        .unwrap();
        r.sync_filter(&mut m, &serial).unwrap();
        assert_eq!(ask(&dept), (1, false), "checked: the department holds a body it does not match");
        assert_eq!(r.try_answer(&dept), r.try_answer_scan(&dept));
        r.sync(&mut m).unwrap();
        assert_eq!(ask(&dept), (1, true));
        assert_eq!(counted(), 2);

        // A streaming filter's pending batch is not the cycle's to see: a
        // fresh cycle leaves it unsettled, holding a body it no longer
        // matches until the drain.
        let person = root_query("(objectclass=inetOrgPerson)");
        r.install_filter_persistent(&mut m, person.clone()).unwrap();
        m.apply(UpdateOp::Modify {
            dn: dn("cn=a,c=us,o=xyz"),
            mods: vec![Modification::Replace("objectclass".into(), vec!["person".into()])],
        })
        .unwrap();
        r.sync(&mut m).unwrap();
        assert_eq!(ask(&person), (3, false), "a is held until the drain, and checked");
        assert_eq!(r.try_answer(&person), r.try_answer_scan(&person));
        assert_eq!(counted(), 2);

        // A cached query's repeat is its frozen result, whatever changed.
        let c = root_query("(cn=c)");
        assert!(r.try_answer(&c).is_none());
        r.cache_query(c.clone(), &m.dit().search(&c));
        m.apply(UpdateOp::Delete(dn("cn=c,c=in,o=xyz"))).unwrap();
        assert_eq!(ask(&c), (1, true));
        assert_eq!(counted(), 3);
    }
}

#[cfg(test)]
mod proptests {
    //! Equivalence property: for arbitrary content and arbitrary filters,
    //! the planned/indexed evaluator and the naive scan oracle return the
    //! same entries in the same order — including across epochs where
    //! entries leave the content.

    use super::tests::{dn, master, person};
    use super::*;
    use fbdr_dit::{Modification, UpdateOp};
    use fbdr_ldap::{Dn, Scope};
    use proptest::prelude::*;

    /// Spec of one generated entry; the vector index names it. The tag
    /// byte encodes an optional attribute: values ≥ 4 mean "absent".
    type EntrySpec = (u8, u8, bool, u8);

    /// Values of `n`: spellings of one integer, its neighbours, and
    /// non-integers that sort around them as text.
    const SPELLINGS: &[&str] = &["0500", "500", "+500", "499", "501", "5oo", "abc"];

    /// Groups the entries are dealt to: entry `i` is `cn=e{i},ou=g{i % 3},o=x`.
    const GROUPS: usize = 3;

    fn build_entry(i: usize, spec: &EntrySpec) -> Entry {
        let (dept, sn, has_mail, tag) = spec;
        let spelling = |k: u8| SPELLINGS[k as usize % SPELLINGS.len()];
        let mut e = Entry::new(format!("cn=e{i},ou=g{},o=x", i % GROUPS).parse().unwrap())
            .with("objectclass", "person")
            .with("dept", &format!("{}", dept % 5))
            .with("sn", &format!("{}", 100_000 + (*sn as u32 % 40)))
            .with("n", spelling(*sn));
        if *tag >= 6 {
            // Multi-valued: sometimes a second spelling of the same integer.
            e = e.with("n", spelling(*dept));
        }
        if *has_mail {
            e = e.with("mail", &format!("u{i}@x.com"));
        }
        if *tag < 4 {
            e = e.with("tag", &format!("t{}", tag % 3));
        }
        e
    }

    /// A replica whose single stored filter holds all generated entries,
    /// built through the real writer path (id table + incremental index)
    /// and published, keeping no attribute yet.
    fn build_state(specs: &[EntrySpec]) -> (FilterReplica, Vec<u32>, DnTable) {
        let r = FilterReplica::new(0);
        let actions: Vec<SyncAction> = specs
            .iter()
            .enumerate()
            .map(|(i, s)| SyncAction::Add(build_entry(i, s)))
            .collect();
        let mut work = ContentSnapshot::empty();
        let mut table = DnTable::default();
        work.filters.push(StoredFilter {
            prepared: Arc::new(PreparedQuery::new(SearchRequest::from_root(Filter::match_all()))),
            ids: Arc::default(),
            stale: false,
            settled: true,
            hits: Arc::new(AtomicU64::new(0)),
        });
        apply_actions(&mut work, &mut table, 0, &actions);
        let ids = work.filters[0].ids.to_vec();
        r.swap(Arc::new(work));
        (r, ids, table)
    }

    /// Evaluates `q` as a hit on the stored filter would, twice: on a copy
    /// of the current snapshot — not current, so nothing is kept and the
    /// attributes it lacks are verified — and on the current one, which
    /// keeps them the first time. Both must be what the oracle says.
    fn indexed_twice(
        r: &FilterReplica,
        q: &SearchRequest,
        ids: &[u32],
    ) -> Result<Vec<Entry>, TestCaseError> {
        let stale = Arc::new(ContentSnapshot::clone(&r.snapshot()));
        let before = r.evaluate_indexed(&stale, q, ids, false);
        prop_assert_eq!(&before, &oracle(&stale, q, ids), "not kept, {}", q);
        let after = r.evaluate_indexed(&r.snapshot(), q, ids, false);
        let snap = r.snapshot();
        let unkept = index::unkept_in(q.filter(), |a| snap.index.carries_unkept(a));
        prop_assert!(unkept.is_empty(), "kept, {}", q);
        Ok(after)
    }

    /// One leaf predicate, drawn to collide with generated values often
    /// enough to exercise non-empty plans.
    fn leaf() -> impl Strategy<Value = Filter> {
        let attr = prop_oneof![
            Just("dept".to_owned()),
            Just("sn".to_owned()),
            Just("mail".to_owned()),
            Just("tag".to_owned()),
            Just("n".to_owned()),
            Just("ghost".to_owned()),
        ];
        (attr, 0u8..8, 0u8..8).prop_map(|(a, v, kind)| {
            let val = match a.as_str() {
                "n" => SPELLINGS[v as usize % SPELLINGS.len()].to_owned(),
                "dept" => format!("{}", v % 5),
                "sn" => format!("{}", 100_000 + (v as u32 % 40)),
                "mail" => format!("u{v}@x.com"),
                "tag" => format!("t{}", v % 3),
                _ => format!("{v}"),
            };
            let text = match kind {
                0 => format!("({a}={val})"),
                1 => format!("({a}>={val})"),
                2 => format!("({a}<={val})"),
                3 => format!("({a}=*)"),
                4 => {
                    // Prefix: plannable substring.
                    let cut = val.len().min(3);
                    format!("({a}={}*)", &val[..cut])
                }
                5 => {
                    // Middle substring: unplannable → scan fallback.
                    let cut = val.len().min(2);
                    format!("({a}=*{}*)", &val[val.len() - cut..])
                }
                6 => {
                    // `initial*final`: the prefix plans, inexactly — the
                    // final part is verified.
                    let (head, tail) = val.split_at(val.len().min(2));
                    let last = tail.chars().last().map_or(String::new(), String::from);
                    format!("({a}={head}*{last})")
                }
                _ => format!("(!({a}={val}))"),
            };
            Filter::parse(&text).expect("generated filter parses")
        })
    }

    /// Compose 1–3 leaves with a random connective.
    fn filter() -> impl Strategy<Value = Filter> {
        (prop::collection::vec(leaf(), 1..4), 0u8..3).prop_map(|(leaves, comb)| match comb {
            0 => Filter::and(leaves),
            1 => Filter::or(leaves),
            _ => leaves.into_iter().next().expect("non-empty"),
        })
    }

    /// A query region over the two-level layout: the root, the suffix, a
    /// group, one entry, or a base outside the suffix, under each scope.
    fn region() -> impl Strategy<Value = (Dn, Scope)> {
        const BASES: &[&str] = &["", "o=x", "ou=g1,o=x", "cn=e4,ou=g1,o=x", "ou=g1,o=y"];
        let scope = prop_oneof![Just(Scope::Base), Just(Scope::OneLevel), Just(Scope::Subtree)];
        (0..BASES.len(), scope).prop_map(|(b, scope)| (dn(BASES[b]), scope))
    }

    /// Scan oracle: same verification/order/projection tail, no plan.
    fn oracle(snap: &ContentSnapshot, query: &SearchRequest, ids: &[u32]) -> Vec<Entry> {
        collect_checked(query, snap.entries_of(ids), Check { region: true, filter: true })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(192))]
        #[test]
        fn indexed_evaluation_matches_scan_oracle(
            // Often a handful of entries: the only carrier of a value is
            // where an edit can take more of the index than it should.
            specs in prop_oneof![
                prop::collection::vec((0u8..8, 0u8..8, any::<bool>(), 0u8..8), 0..4),
                prop::collection::vec((0u8..8, 0u8..8, any::<bool>(), 0u8..8), 0..40),
            ],
            filters in prop::collection::vec(filter(), 1..6),
            // The root-based subtree query always; beside it, drawn ones.
            regions in prop::collection::vec(region(), 1..4),
            doomed in prop::collection::vec(any::<bool>(), 0..40),
            // Indexes `SPELLINGS`; past its end the entry stays as it is.
            respelled in prop::collection::vec(0usize..=SPELLINGS.len(), 0..40),
            // Past its end a query is asked in epoch 1.
            early in prop::collection::vec(any::<bool>(), 0..24),
        ) {
            let (r, ids, mut table) = build_state(&specs);
            // Beside the drawn filters, integer bounds in every epoch.
            let filters: Vec<Filter> = ["(n>=1)", "(n<=500)", "(&(n>=500)(n<=0500))"]
                .iter()
                .map(|f| Filter::parse(f).expect("valid filter"))
                .chain(filters)
                .collect();
            let queries: Vec<SearchRequest> = filters
                .iter()
                .flat_map(|f| {
                    std::iter::once((Dn::root(), Scope::Subtree))
                        .chain(regions.iter().cloned())
                        .map(move |(base, scope)| SearchRequest::new(base, scope, f.clone()))
                })
                .collect();
            // Some queries are first asked in epoch 1; the others find
            // their attributes unkept until epoch 2.
            for (i, q) in queries.iter().enumerate() {
                if early.get(i).copied().unwrap_or(true) {
                    let indexed = indexed_twice(&r, q, &ids)?;
                    prop_assert_eq!(&indexed, &oracle(&r.snapshot(), q, &ids), "epoch 1, {}", q);
                }
            }

            // Entries leave and change between epochs: through the writer
            // path, delete a subset and replace the values of `n` in
            // another — an integer may only change its spelling — then
            // re-check equivalence on the new epoch.
            let changes: Vec<SyncAction> = specs
                .iter()
                .enumerate()
                .filter_map(|(i, s)| {
                    let e = build_entry(i, s);
                    if doomed.get(i).copied().unwrap_or(false) {
                        return Some(SyncAction::Delete(e.dn().clone()));
                    }
                    let spelling = SPELLINGS.get(*respelled.get(i)?)?;
                    let mut e = e;
                    e.replace("n", [*spelling]);
                    Some(SyncAction::Modify(e))
                })
                .collect();
            let mut work = ContentSnapshot::clone(&r.snapshot());
            apply_actions(&mut work, &mut table, 0, &changes);
            let ids2 = work.filters[0].ids.to_vec();
            r.publish(work);
            for q in &queries {
                let indexed = indexed_twice(&r, q, &ids2)?;
                prop_assert_eq!(&indexed, &oracle(&r.snapshot(), q, &ids2), "epoch 2, {}", q);
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// A frozen result of `COLUMN_AT` entries or more is cached with
        /// key columns over every attribute the generated queries read —
        /// multi-valued ones and every spelling of one integer among them
        /// — and a query is answered from them (point, prefix, `initial*
        /// final`, text and integer bounds, presence, `And`, `Or`, `Not`,
        /// in every scope) as verifying each frozen entry answers it:
        /// through the window's own answer, and through `try_answer`
        /// whenever the cached query contains it.
        #[test]
        fn key_columns_answer_what_verification_answers(
            specs in prop::collection::vec((0u8..8, 0u8..8, any::<bool>(), 0u8..8), COLUMN_AT..COLUMN_AT + 40),
            filters in prop::collection::vec(filter(), 1..6),
            regions in prop::collection::vec(region(), 1..4),
        ) {
            let frozen: Vec<Entry> = specs.iter().enumerate().map(|(i, s)| build_entry(i, s)).collect();
            let every = Filter::parse("(|(dept=*)(sn=*)(n=*)(mail=*)(tag=*))").expect("valid filter");
            let r = FilterReplica::new(1);
            r.cache_query(SearchRequest::from_root(every.clone()), &frozen);
            let cq = r.cache.lock().queries[0].clone();
            prop_assert!(cq.columns.plan(&Filter::parse("(dept=1)").expect("valid filter")).is_some());
            let queries: Vec<SearchRequest> = filters
                .iter()
                .chain([&every])
                .flat_map(|f| {
                    std::iter::once((Dn::root(), Scope::Subtree))
                        .chain(regions.iter().cloned())
                        .map(move |(base, scope)| SearchRequest::new(base, scope, f.clone()))
                })
                .collect();
            for q in &queries {
                let check = Check { region: true, filter: true };
                let verified = collect_checked(q, frozen.iter(), check);
                prop_assert_eq!(&cq.answer(q), &verified, "{}", q);
                if let Some(hit) = r.try_answer(q) {
                    prop_assert_eq!(&hit, &verified, "hit {}", q);
                }
            }
        }
    }

    // ------------------------------------------------------------------
    // The filter index decides what a linear scan decides
    // ------------------------------------------------------------------

    /// Stored filters `(base, filter)`: keyed by prefix, equality, presence,
    /// `Or` and `And`; residual (range, `Not`); nested and overlapping, so
    /// *which* containing filter comes first matters.
    const STORED_POOL: &[(&str, &str)] = &[
        ("", "(serialNumber=0456*)"),
        ("", "(serialNumber=04*)"),
        ("o=xyz", "(departmentNumber=2406)"),
        ("", "(departmentNumber=240*)"),
        ("c=us,o=xyz", "(objectclass=*)"),
        ("", "(serialNumber>=045612)"),
        ("o=xyz", "(!(departmentNumber=9900))"),
        ("", "(|(departmentNumber=2406)(departmentNumber=2407))"),
        ("", "(&(objectclass=inetOrgPerson)(departmentNumber=2406))"),
        ("", "(cn=*)"),
    ];

    /// Queries `(base, filter)`: every predicate kind, conjunctions, and
    /// the `Or`/`Not` shapes that fall back to the full candidate list.
    const QUERY_POOL: &[(&str, &str)] = &[
        ("", "(serialNumber=045611)"),
        ("", "(serialNumber=045612)"),
        ("c=in,o=xyz", "(serialNumber=045621)"),
        ("", "(serialNumber=120001)"),
        ("", "(serialNumber=0456*)"),
        ("", "(serialNumber=04561*)"),
        ("", "(departmentNumber=2406)"),
        ("c=us,o=xyz", "(departmentNumber=2406)"),
        ("", "(departmentNumber=24*6)"),
        ("", "(&(objectclass=inetOrgPerson)(departmentNumber=2406))"),
        ("", "(|(serialNumber=045611)(serialNumber=045612))"),
        ("", "(&(departmentNumber=2406)(!(cn=a)))"),
        ("", "(serialNumber>=045620)"),
        ("", "(cn=a)"),
        ("c=us,o=xyz", "(cn=*)"),
    ];

    #[derive(Debug, Clone)]
    enum Step {
        /// Install the pool filter if absent, remove it if present
        /// (positions of the later filters shift).
        Toggle(usize),
        Ask(usize),
        /// Fetch the query's result from the master and cache it.
        Cache(usize),
        /// Change content at the master and sync: a content-only publish.
        Touch(u8),
    }

    fn step() -> impl Strategy<Value = Step> {
        prop_oneof![
            (0..STORED_POOL.len()).prop_map(Step::Toggle),
            (0..QUERY_POOL.len()).prop_map(Step::Ask),
            (0..QUERY_POOL.len()).prop_map(Step::Ask),
            (0..QUERY_POOL.len()).prop_map(Step::Cache),
            (0u8..4).prop_map(Step::Touch),
        ]
    }

    fn pool_request((base, filter): (&str, &str)) -> SearchRequest {
        SearchRequest::new(dn(base), Scope::Subtree, Filter::parse(filter).unwrap())
    }

    fn filter_hits(r: &FilterReplica) -> Vec<u64> {
        r.filters().map(|(_, hits)| hits).collect()
    }

    fn window_hits(r: &FilterReplica) -> Vec<u64> {
        let window = r.cache.lock();
        window.queries.iter().map(|cq| cq.hits.load(Ordering::Relaxed)).collect()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(96))]

        /// Through installs, removes, content-only publishes and a live,
        /// evicting cache window, `try_answer` picks the stored filter (or
        /// else the cached query) that a linear scan in filter order (or
        /// oldest-first) picks, and returns what the scan evaluator
        /// returns.
        #[test]
        fn filter_index_decides_what_the_scan_decides(
            steps in prop::collection::vec(step(), 1..48),
        ) {
            const WINDOW: usize = 3;
            let mut m = master();
            let r = FilterReplica::new(WINDOW);
            let reference = ContainmentEngine::new();
            // The model: pool indices in filter order, and the window.
            let mut stored: Vec<usize> = Vec::new();
            let mut window: VecDeque<(PreparedQuery, Vec<Entry>, u64)> = VecDeque::new();
            for step in steps {
                match step {
                    Step::Toggle(i) => {
                        let request = pool_request(STORED_POOL[i]);
                        match stored.iter().position(|&held| held == i) {
                            Some(pos) => {
                                prop_assert!(r.remove_filter(&mut m, &request));
                                stored.remove(pos);
                            }
                            None => {
                                r.install_filter(&mut m, request).expect("install");
                                stored.push(i);
                            }
                        }
                    }
                    Step::Cache(i) => {
                        let query = pool_request(QUERY_POOL[i]);
                        let result = m.dit().search(&query);
                        r.cache_query(query.clone(), &result);
                        window.push_back((PreparedQuery::new(query), result, 0));
                        if window.len() > WINDOW {
                            window.pop_front();
                        }
                    }
                    Step::Touch(n) => {
                        m.apply(UpdateOp::Modify {
                            dn: dn("cn=d,c=in,o=xyz"),
                            mods: vec![Modification::Replace(
                                "departmentNumber".into(),
                                vec![format!("240{}", 5 + n % 3).into()],
                            )],
                        })
                        .expect("modify");
                        let index_before = r.snapshot().filter_index.clone();
                        r.sync(&mut m).expect("sync");
                        prop_assert!(Arc::ptr_eq(&index_before, &r.snapshot().filter_index));
                    }
                    Step::Ask(i) => {
                        let query = pool_request(QUERY_POOL[i]);
                        let prepared = PreparedQuery::borrowed(&query);
                        let by_filter = stored.iter().position(|&held| {
                            let s = PreparedQuery::new(pool_request(STORED_POOL[held]));
                            reference.query_contained(&prepared, &s)
                        });
                        let mut expect_filter_hits = filter_hits(&r);
                        let scanned = r.try_answer_scan(&query);
                        let got = r.try_answer(&query);
                        prop_assert_eq!(scanned.is_some(), by_filter.is_some());
                        match by_filter {
                            Some(pos) => {
                                expect_filter_hits[pos] += 1;
                                prop_assert_eq!(&got, &scanned, "{}", query);
                            }
                            None => {
                                let by_cache = window
                                    .iter_mut()
                                    .find(|(cq, _, _)| reference.query_contained(&prepared, cq));
                                let expected = by_cache.map(|(_, frozen, hits)| {
                                    *hits += 1;
                                    let check = Check { region: true, filter: true };
                                    collect_checked(&query, frozen.iter(), check)
                                });
                                prop_assert_eq!(&got, &expected, "{}", query);
                            }
                        }
                        prop_assert_eq!(filter_hits(&r), expect_filter_hits, "{}", query);
                        let expect_window: Vec<u64> = window.iter().map(|w| w.2).collect();
                        prop_assert_eq!(window_hits(&r), expect_window, "{}", query);
                    }
                }
            }
        }
    }

    // ------------------------------------------------------------------
    // Hold counts equal the filters' references
    // ------------------------------------------------------------------

    #[derive(Debug, Clone)]
    enum Churn {
        /// Install the pool filter if absent, remove it if present.
        Toggle(usize),
        /// Add person `k` at the master, or move it to `dept`.
        Put { k: u8, dept: u8 },
        Delete(u8),
        Sync,
        /// Poll the pool filter alone, if stored: the others fall behind,
        /// and it stores bodies they hold.
        SyncOne(usize),
        /// A cycle over every filter in which the pool filter's slice comes
        /// back stale: its request never reaches the master, or the
        /// master answers it (`answered`) and the answer is lost, to be
        /// redelivered by the filter's next poll.
        SyncWithout { i: usize, answered: bool },
    }

    /// Overlapping stored filters over the `q` persons: most ids are held
    /// by two or three filters at once.
    const HOLDERS: &[&str] =
        &["(departmentNumber=2406)", "(departmentNumber=240*)", "(serialNumber=0456*)", "(cn=q*)"];

    fn holder(i: usize) -> SearchRequest {
        SearchRequest::from_root(Filter::parse(HOLDERS[i]).unwrap())
    }

    fn churn() -> impl Strategy<Value = Churn> {
        prop_oneof![
            2 => (0..HOLDERS.len()).prop_map(Churn::Toggle),
            4 => (0u8..10, 4u8..9).prop_map(|(k, dept)| Churn::Put { k, dept }),
            2 => (0u8..10).prop_map(Churn::Delete),
            2 => Just(Churn::Sync),
            2 => (0..HOLDERS.len()).prop_map(Churn::SyncOne),
            2 => (0..HOLDERS.len(), any::<bool>())
                .prop_map(|(i, answered)| Churn::SyncWithout { i, answered }),
        ]
    }

    /// The master, cut off from one filter's requests only: before it
    /// reads them, or (`answers`) after it has answered them.
    struct Cut<'a> {
        master: &'a mut SyncMaster,
        filter: Filter,
        answers: bool,
    }

    impl SyncTransport for Cut<'_> {
        fn resync_at(
            &mut self,
            _shard: ShardId,
            request: &SearchRequest,
            ctl: fbdr_resync::ReSyncControl,
        ) -> Result<fbdr_resync::SyncResponse, SyncError> {
            if request.filter() == &self.filter {
                if self.answers {
                    self.master.resync(request, ctl)?;
                }
                return Err(SyncError::Unavailable("cut".into()));
            }
            self.master.resync(request, ctl)
        }

        fn take_receiver_at(
            &mut self,
            _shard: ShardId,
            cookie: fbdr_resync::Cookie,
        ) -> Option<Receiver<NotifyBatch>> {
            self.master.take_receiver(cookie)
        }

        fn abandon_at(&mut self, _shard: ShardId, cookie: fbdr_resync::Cookie) {
            self.master.abandon(cookie);
        }
    }

    /// A settled filter holds only bodies it matches, so every stored
    /// filter answers its own request as the scan reference does.
    fn settled_filters_hold_their_matches(r: &FilterReplica) -> Result<(), TestCaseError> {
        let snap = r.snapshot();
        for sf in snap.filters.iter().filter(|sf| sf.settled) {
            let request = sf.prepared.request();
            for e in snap.entries_of(&sf.ids) {
                prop_assert!(request.matches(e), "{} is settled and holds {}", request, e.dn());
            }
        }
        for sf in &snap.filters {
            let request = sf.prepared.request();
            prop_assert_eq!(r.try_answer(request), r.try_answer_scan(request), "{}", request);
        }
        Ok(())
    }

    /// Every id's count is the number of stored filters whose posting list
    /// has it, and its DN and entry slot are occupied exactly while the
    /// count is above zero.
    fn holds_equal_filter_references(r: &FilterReplica) -> Result<(), TestCaseError> {
        let w = r.writer.lock();
        let snap = r.snapshot();
        let mut refs = vec![0u32; w.table.capacity()];
        for &id in snap.filters.iter().flat_map(|sf| sf.ids.iter()) {
            prop_assert!((id as usize) < refs.len(), "filter id {} past the table", id);
            refs[id as usize] += 1;
        }
        for (id, &n) in refs.iter().enumerate() {
            let id = id as u32;
            prop_assert_eq!(w.table.holds(id), n, "holds of id {}", id);
            prop_assert_eq!(w.table.dn_of(id).is_some(), n > 0, "id {} interned exactly while held", id);
            prop_assert_eq!(snap.entry(id).is_some(), n > 0, "id {} stored exactly while held", id);
        }
        Ok(())
    }

    /// Runs `steps` against a fresh master and replica. After every sync,
    /// install and remove, the table's hold counts equal the stored
    /// filters' references; and after every step, single-filter, stale
    /// and redelivering cycles included, every settled filter holds only
    /// bodies it matches.
    fn churn_holds(steps: &[Churn]) -> Result<(), TestCaseError> {
        let mut m = master();
        let r = FilterReplica::new(0);
        let mut driver =
            SyncDriver::new(fbdr_resync::RetryConfig { max_retries: 0, ..Default::default() });
        let mut stored = vec![false; HOLDERS.len()];
        for step in steps {
            match *step {
                Churn::Toggle(i) => {
                    let request = holder(i);
                    if stored[i] {
                        prop_assert!(r.remove_filter(&mut m, &request));
                    } else {
                        r.install_filter(&mut m, request).expect("install");
                    }
                    stored[i] = !stored[i];
                }
                Churn::Put { k, dept } => {
                    let sn = if dept % 2 == 0 { format!("0456{k:02}") } else { format!("1200{k:02}") };
                    let dept = format!("240{dept}");
                    let e = person(&format!("q{k}"), "us", &sn, &dept);
                    let dn = e.dn().clone();
                    if m.apply(UpdateOp::Add(e)).is_err() {
                        let mods = vec![
                            Modification::Replace("serialNumber".into(), vec![sn.into()]),
                            Modification::Replace("departmentNumber".into(), vec![dept.into()]),
                        ];
                        m.apply(UpdateOp::Modify { dn, mods }).expect("modify");
                    }
                }
                Churn::Delete(k) => drop(m.apply(UpdateOp::Delete(dn(&format!("cn=q{k},c=us,o=xyz"))))),
                Churn::Sync => drop(r.sync(&mut m).expect("sync")),
                Churn::SyncOne(i) => {
                    let synced = r.sync_filter(&mut m, &holder(i)).expect("sync");
                    prop_assert_eq!(synced.is_some(), stored[i]);
                }
                Churn::SyncWithout { i, answered } => {
                    let filter = holder(i).filter().clone();
                    let mut link = Cut { master: &mut m, filter, answers: answered };
                    r.sync_with(&mut link, &mut driver).expect("a stale slice fails no cycle");
                }
            }
            if !matches!(step, Churn::Put { .. } | Churn::Delete(_)) {
                holds_equal_filter_references(&r)?;
            }
            settled_filters_hold_their_matches(&r)?;
        }
        Ok(())
    }

    /// A cycle that applies a retried answer may settle, because the
    /// master builds the retry from its live DIT. A verbatim copy of the
    /// lost answer would leave its filter at the state that answer was
    /// built from, settled, in both of these shapes, with the department
    /// filter (0) under the prefix (1):
    /// the department's empty answer is lost and q0 then leaves it, or
    /// the prefix's answer moving q0 to 2407 is lost and q0 then joins
    /// the department — the next full cycle stores the prefix's older
    /// body over the department's newer one.
    #[test]
    fn a_redelivered_answer_settles_no_filter() {
        use Churn::{Put, Sync, SyncWithout, Toggle};
        let lost = |i| SyncWithout { i, answered: true };
        let cases: [&[Churn]; 2] = [
            &[Toggle(0), Toggle(1), Put { k: 0, dept: 6 }, Sync, lost(0), Put { k: 0, dept: 5 }, Sync],
            &[
                Toggle(0),
                Toggle(1),
                Put { k: 0, dept: 5 },
                Sync,
                Put { k: 0, dept: 7 },
                lost(1),
                Put { k: 0, dept: 6 },
                Sync,
            ],
        ];
        for steps in cases {
            churn_holds(steps).unwrap_or_else(|e| panic!("{steps:?}: {e}"));
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        /// Hold counts and settled filters hold through arbitrary churn
        /// ([`churn_holds`]).
        #[test]
        fn hold_counts_equal_the_filters_references(steps in prop::collection::vec(churn(), 1..80)) {
            churn_holds(&steps)?;
        }
    }
}
