//! Sharded masters: the directory partitioned across several
//! [`SyncMaster`]s by naming context, behind one facade.
//!
//! A [`ShardedMaster`] owns one `SyncMaster` per shard of a
//! [`ShardMap`]; updates route to the shard owning the target DN, so
//! each shard maintains its own `RoutingIndex` and session histories
//! over just its slice of the DIT. Because the shard
//! map partitions by subtree suffix and each shard's store holds only
//! its own slice, a search region that spans shards is answered by
//! evaluating per-shard sub-requests and concatenating — the union is
//! exactly the unsharded answer.
//!
//! On the replica side a [`ShardCoordinator`] drives one ReSync session
//! per shard a filter overlaps: it splits the filter's base/scope with
//! [`ShardMap::split`], merges the per-shard cookies into a
//! [`CompositeCookie`], and runs the recovery ladder
//! ([`SyncDriver::sync_slice`]) *independently per shard* — a slow or
//! partitioned shard degrades to stale content for its slice while the
//! other shards keep serving fresh updates. An unsharded deployment is
//! the one-shard case: [`ShardMap::single`], one part per cookie.

use crate::driver::{Clock, DriverStats, RetryConfig, SyncDriver, SyncTransport, SystemClock};
use crate::master::{MasterFootprint, NotifyFlush, NotifyPolicy};
use crate::protocol::{
    Cookie, NotifyBatch, ReSyncControl, SyncAction, SyncError, SyncMode, SyncResponse,
    SyncTraffic,
};
use crate::reconcile::{RangeRequest, RangeResponse, ReconcileRequest, ReconcileResponse};
use crate::SyncMaster;
use crossbeam::channel::Receiver;
use fbdr_dit::{ChangeRecord, DitError, UpdateOp};
use fbdr_ldap::{Entry, SearchRequest};
use fbdr_net::{ShardId, ShardMap};
use fbdr_obs::Obs;
use serde::{Deserialize, Serialize};

// ----------------------------------------------------------------------
// Composite cookie
// ----------------------------------------------------------------------

/// The resumption state of one filter across a sharded master: one
/// [`Cookie`] per shard holding a live session.
///
/// Parts are kept sorted by shard id, and (de)serialization goes through
/// the sorted form, so the wire encoding is byte-stable no matter in
/// which order shards completed their exchanges — two composite cookies
/// with the same sessions always serialize identically.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct CompositeCookie {
    parts: Vec<(ShardId, Cookie)>,
}

impl Serialize for CompositeCookie {
    fn serialize<S: serde::Serializer>(&self, ser: S) -> Result<S::Ok, S::Error> {
        // `parts` is sorted by shard id by construction, so this is the
        // canonical byte-stable form.
        ser.collect_seq(self.parts.iter())
    }
}

impl<'de> Deserialize<'de> for CompositeCookie {
    fn deserialize<D: serde::Deserializer<'de>>(de: D) -> Result<Self, D::Error> {
        // Normalize on the way in, so even a hand-reordered encoding
        // round-trips to the canonical form.
        Ok(CompositeCookie::from(Vec::<(ShardId, Cookie)>::deserialize(de)?))
    }
}

impl CompositeCookie {
    /// An empty composite (no live sessions).
    pub fn new() -> Self {
        CompositeCookie::default()
    }

    /// The cookie for `shard`, if a session is live there.
    pub fn get(&self, shard: ShardId) -> Option<Cookie> {
        self.parts
            .binary_search_by_key(&shard, |(s, _)| *s)
            .ok()
            .map(|i| self.parts[i].1)
    }

    /// Sets (or replaces) the cookie for `shard`.
    pub fn insert(&mut self, shard: ShardId, cookie: Cookie) {
        match self.parts.binary_search_by_key(&shard, |(s, _)| *s) {
            Ok(i) => self.parts[i].1 = cookie,
            Err(i) => self.parts.insert(i, (shard, cookie)),
        }
    }

    /// Drops the cookie for `shard` (the session ended or died).
    pub fn remove(&mut self, shard: ShardId) -> Option<Cookie> {
        self.parts
            .binary_search_by_key(&shard, |(s, _)| *s)
            .ok()
            .map(|i| self.parts.remove(i).1)
    }

    /// Shard/cookie pairs, ascending by shard id.
    pub fn iter(&self) -> impl Iterator<Item = (ShardId, Cookie)> + '_ {
        self.parts.iter().copied()
    }

    /// Number of live per-shard sessions.
    pub fn len(&self) -> usize {
        self.parts.len()
    }

    /// True when no shard holds a session.
    pub fn is_empty(&self) -> bool {
        self.parts.is_empty()
    }
}

impl From<Vec<(ShardId, Cookie)>> for CompositeCookie {
    fn from(mut parts: Vec<(ShardId, Cookie)>) -> Self {
        parts.sort_by_key(|(s, _)| *s);
        parts.dedup_by_key(|(s, _)| *s);
        CompositeCookie { parts }
    }
}

impl From<CompositeCookie> for Vec<(ShardId, Cookie)> {
    fn from(c: CompositeCookie) -> Self {
        c.parts
    }
}

// ----------------------------------------------------------------------
// Sharded master
// ----------------------------------------------------------------------

/// Several [`SyncMaster`]s jointly serving one namespace, partitioned by
/// a [`ShardMap`].
///
/// Updates route to the shard owning the target DN
/// ([`UpdateOp::target`]); searches and session establishment split by
/// base/scope. As a [`SyncTransport`] every leg names its shard, since
/// per-shard session ids collide across shards; a leg addressed past the
/// shard count fails [`SyncError::UnknownShard`] (or finds no receiver,
/// or abandons nothing).
#[derive(Debug, Serialize)]
pub struct ShardedMaster {
    map: ShardMap,
    shards: Vec<SyncMaster>,
}

impl<'de> Deserialize<'de> for ShardedMaster {
    /// Loads the map and one master per shard of it.
    ///
    /// # Errors
    ///
    /// A map that fails its own load check, or a shard list whose length
    /// is not the map's shard count: an update or search routed to a
    /// missing shard would index past the list. Also a shard holding, at
    /// or below its glue depth ([`ShardMap::glue_depth`]), an entry the map
    /// assigns to another shard: a search would return it from both.
    fn deserialize<D: serde::Deserializer<'de>>(de: D) -> Result<Self, D::Error> {
        use serde::de::Error as _;
        #[derive(Deserialize)]
        struct Wire {
            map: ShardMap,
            shards: Vec<SyncMaster>,
        }
        let Wire { map, shards } = Wire::deserialize(de)?;
        if shards.len() != map.shard_count() {
            return Err(D::Error::custom(format!(
                "{} shard masters for a map of {} shards",
                shards.len(),
                map.shard_count()
            )));
        }
        for (shard, master) in map.shards().zip(&shards) {
            let glue_depth = map.glue_depth(shard);
            let mut held = master.dit().iter().filter(|e| e.dn().depth() >= glue_depth);
            if let Some(e) = held.find(|e| map.shard_of(e.dn()) != shard) {
                return Err(D::Error::custom(format!(
                    "{shard} holds {}, which the map assigns to {}",
                    e.dn(),
                    map.shard_of(e.dn())
                )));
            }
        }
        Ok(ShardedMaster { map, shards })
    }
}

impl ShardedMaster {
    /// Creates a sharded master with one empty [`SyncMaster`] per shard
    /// of `map`. Populate each shard's slice via
    /// [`ShardedMaster::shard_mut`].
    pub fn new(map: ShardMap) -> Self {
        let shards = (0..map.shard_count()).map(|_| SyncMaster::new()).collect();
        ShardedMaster { map, shards }
    }

    /// Wraps pre-built masters, one per shard of `map` (shard `i` ↔
    /// `masters[i]`).
    ///
    /// Each master must hold only its shard's slice: the entries the map
    /// assigns to the shard, plus glue above its glue depth
    /// ([`ShardMap::glue_depth`]). A search takes every held entry at or
    /// below that depth to be the shard's own without asking the map.
    ///
    /// # Panics
    ///
    /// Panics when the count does not match the map.
    pub fn from_masters(map: ShardMap, masters: Vec<SyncMaster>) -> Self {
        assert_eq!(masters.len(), map.shard_count(), "one master per shard");
        ShardedMaster { map, shards: masters }
    }

    /// The shard map in force.
    pub fn map(&self) -> &ShardMap {
        &self.map
    }

    /// Read access to one shard's master.
    pub fn shard(&self, shard: ShardId) -> &SyncMaster {
        &self.shards[shard.index()]
    }

    /// Mutable access to one shard's master (e.g. to load its DIT slice).
    ///
    /// What the master holds must stay the shard's slice: the entries the
    /// map assigns to the shard, plus glue above its glue depth
    /// ([`ShardMap::glue_depth`]), as [`ShardedMaster::from_masters`]
    /// requires.
    pub fn shard_mut(&mut self, shard: ShardId) -> &mut SyncMaster {
        &mut self.shards[shard.index()]
    }

    /// The master a transport leg addressed to `shard` reaches: a replica
    /// whose map has more shards than this master names one it lacks.
    fn serving(&mut self, shard: ShardId) -> Result<&mut SyncMaster, SyncError> {
        self.shards.get_mut(shard.index()).ok_or(SyncError::UnknownShard(shard))
    }

    /// Whether an entry held in `shard`'s store is the shard's own rather
    /// than glue. Only an entry above the shard's glue depth can be glue,
    /// so only such an entry costs an owner lookup; the depth is read once.
    fn owned_by(&self, shard: ShardId) -> impl Fn(&Entry) -> bool + '_ {
        let glue_depth = self.map.glue_depth(shard);
        move |e| e.dn().depth() >= glue_depth || self.map.shard_of(e.dn()) == shard
    }

    /// Applies one update at the shard owning its target DN.
    ///
    /// # Errors
    ///
    /// Propagates [`DitError`] from the owning shard's store.
    pub fn apply(&mut self, op: UpdateOp) -> Result<ChangeRecord, DitError> {
        let shard = self.map.shard_of(op.target());
        self.shards[shard.index()].apply(op)
    }

    /// Streams every entry `request` matches to `f`, once, from the shard
    /// that owns it, in no particular order.
    ///
    /// Each shard's matches are restricted to the entries the map assigns
    /// to it: shards hold disjoint *owned* slices, but glue entries (the
    /// suffix skeleton above a shard's subtrees) are materialized on
    /// every shard, and an over-covering clamped sub-request would
    /// otherwise return those copies once per shard. Glue lies above the
    /// shard's glue depth, so a match at or below it is owned without a
    /// lookup.
    fn for_each_owned_match<'a>(&'a self, request: &SearchRequest, mut f: impl FnMut(&'a Entry)) {
        for (shard, sub) in self.map.split(request) {
            let dit = self.shards[shard.index()].dit();
            let owns = self.owned_by(shard);
            dit.for_each_match_in(sub.base(), sub.scope(), sub.filter(), |e| {
                if owns(e) {
                    f(e);
                }
            });
        }
    }

    /// Answers a search in one pass, shard by shard and in no particular
    /// order: the owned matches of every shard are collected as references
    /// and only then projected — the entries one store's
    /// [`DitStore::search`](fbdr_dit::DitStore::search) over the same
    /// directory returns.
    pub fn search(&self, request: &SearchRequest) -> Vec<Entry> {
        let mut hits: Vec<&Entry> = Vec::new();
        self.for_each_owned_match(request, |e| hits.push(e));
        hits.into_iter().map(|e| request.attrs().project(e)).collect()
    }

    /// Number of entries a search request matches — the "size" estimate of
    /// filter selection (§6.2), over the request's region. Like
    /// [`ShardedMaster::search`], every entry counts once, at the shard that
    /// owns it. Streams the matches; no entry is cloned.
    pub fn count_matching(&self, request: &SearchRequest) -> usize {
        let mut n = 0;
        self.for_each_owned_match(request, |_| n += 1);
        n
    }

    /// Number of entries in the directory: every entry once, at the shard
    /// that owns it (glue copies excluded).
    pub fn entry_count(&self) -> usize {
        let owned = |shard: ShardId| {
            let owns = self.owned_by(shard);
            self.shards[shard.index()].dit().iter().filter(|e| owns(e)).count()
        };
        self.map.shards().map(owned).sum()
    }

    /// Total updates applied across all shards.
    pub fn ops_applied(&self) -> u64 {
        self.shards.iter().map(SyncMaster::ops_applied).sum()
    }

    /// Total live sessions across all shards.
    pub fn session_count(&self) -> usize {
        self.shards.iter().map(SyncMaster::session_count).sum()
    }

    /// Drops every shard's live persist channels (e.g. a network
    /// disconnect hitting the whole deployment). Returns the number of
    /// channels dropped across all shards; sessions stay pollable.
    pub fn drop_persist_channels(&mut self) -> usize {
        self.shards.iter_mut().map(SyncMaster::drop_persist_channels).sum()
    }

    /// Sets the persist-mode notification policy on every shard.
    pub fn set_notify_policy(&mut self, policy: NotifyPolicy) {
        for shard in &mut self.shards {
            shard.set_notify_policy(policy);
        }
    }

    /// Attaches one observability handle to every shard: counters and
    /// histograms from all shards aggregate into the same registry.
    pub fn set_obs(&mut self, obs: Obs) {
        for shard in &mut self.shards {
            shard.set_obs(obs.clone());
        }
    }

    /// The observability handle [`ShardedMaster::set_obs`] attached (the
    /// first shard's).
    pub fn obs(&self) -> &Obs {
        self.shards[0].obs()
    }

    /// Advances every shard's notification clock to `now_ms` (monotonic).
    pub fn advance_to(&mut self, now_ms: u64) {
        for shard in &mut self.shards {
            shard.advance_to(now_ms);
        }
    }

    /// Flushes due coalesced notifications on every shard (see
    /// [`SyncMaster::flush_notifications`]). Returns one record per
    /// wakeup, tagged with the shard it fired on, in shard order.
    pub fn flush_notifications(&mut self, force: bool) -> Vec<(ShardId, NotifyFlush)> {
        let mut out = Vec::new();
        for (i, shard) in self.shards.iter_mut().enumerate() {
            let id = ShardId::new(i as u16);
            out.extend(shard.flush_notifications(force).into_iter().map(|f| (id, f)));
        }
        out
    }

    /// Summed deterministic byte accounting across all shards (see
    /// [`SyncMaster::memory_footprint`]).
    pub fn memory_footprint(&self) -> MasterFootprint {
        let mut f = MasterFootprint::default();
        for shard in &self.shards {
            f.merge(shard.memory_footprint());
        }
        f
    }
}

/// An unsharded deployment is the one-shard case: [`ShardMap::single`],
/// the whole directory on [`ShardId::ZERO`].
impl From<SyncMaster> for ShardedMaster {
    fn from(master: SyncMaster) -> Self {
        ShardedMaster { map: ShardMap::single(), shards: vec![master] }
    }
}

impl SyncTransport for ShardedMaster {
    fn shard_count(&self) -> usize {
        self.shards.len()
    }

    fn resync_at(
        &mut self,
        shard: ShardId,
        request: &SearchRequest,
        ctl: ReSyncControl,
    ) -> Result<SyncResponse, SyncError> {
        self.serving(shard)?.resync(request, ctl)
    }

    fn take_receiver_at(&mut self, shard: ShardId, cookie: Cookie) -> Option<Receiver<NotifyBatch>> {
        self.serving(shard).ok()?.take_receiver(cookie)
    }

    fn abandon_at(&mut self, shard: ShardId, cookie: Cookie) {
        if let Ok(master) = self.serving(shard) {
            master.abandon(cookie);
        }
    }

    fn reconcile_at(
        &mut self,
        shard: ShardId,
        request: &SearchRequest,
        req: ReconcileRequest,
    ) -> Result<ReconcileResponse, SyncError> {
        self.serving(shard)?.reconcile(request, req)
    }

    fn reconcile_ranges_at(
        &mut self,
        shard: ShardId,
        cookie: Cookie,
        req: &RangeRequest,
    ) -> Result<RangeResponse, SyncError> {
        self.serving(shard)?.reconcile_ranges(cookie, req)
    }
}

// ----------------------------------------------------------------------
// Replica-side coordinator
// ----------------------------------------------------------------------

/// How one shard's exchange ended.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ShardStatus {
    /// Incremental update delivered on the existing session.
    Updated,
    /// Session was re-established by a reconciliation exchange.
    Reconciled,
    /// Session was re-established by a full content reinstall.
    Reinstalled,
    /// Transient failure; the shard's slice is served stale until the
    /// next cycle (its cookie, if any, is kept for resumption).
    Stale,
    /// Hard failure (a malformed request — a caller bug); the shard's
    /// slice is stale and its cookie kept, since such an error leaves the
    /// session untouched at the master.
    Failed(SyncError),
}

/// The outcome of one shard's sync exchange: the actions to apply to
/// this shard's slice (already including reinstall-preceding deletes),
/// plus status and traffic.
#[derive(Debug, Clone)]
pub struct ShardOutcome {
    /// Which shard.
    pub shard: ShardId,
    /// Actions for the replica to apply, in order.
    pub actions: Vec<SyncAction>,
    /// Status of the exchange.
    pub status: ShardStatus,
    /// Traffic cost of the exchange(s) for this shard.
    pub traffic: SyncTraffic,
}

/// What [`ShardCoordinator::install`] brings back: the initial content
/// actions, the composite cookie, the load traffic, and the notification
/// receivers of the sessions it opened in persist mode (none in poll mode).
pub type Installed = (Vec<SyncAction>, CompositeCookie, SyncTraffic, Vec<Receiver<NotifyBatch>>);

/// Drives one filter's per-shard ReSync sessions against a sharded
/// transport, each shard independently: retries, the
/// reconcile-vs-reinstall ladder, and serve-stale degradation are all
/// per shard, so one slow or partitioned shard cannot stall the rest.
///
/// Holds one [`SyncDriver`] per shard — per-shard retry state, jitter
/// streams and robustness counters.
#[derive(Debug)]
pub struct ShardCoordinator<C: Clock = SystemClock> {
    map: ShardMap,
    drivers: Vec<SyncDriver<C>>,
}

impl ShardCoordinator<SystemClock> {
    /// A coordinator on wall-clock time with the default retry policy.
    pub fn new(map: ShardMap) -> Self {
        ShardCoordinator::with_config(map, RetryConfig::default())
    }

    /// A coordinator with an explicit retry policy (applied to every
    /// shard's driver; per-shard jitter seeds are decorrelated).
    pub fn with_config(map: ShardMap, retry: RetryConfig) -> Self {
        let drivers = (0..map.shard_count())
            .map(|i| {
                let seed = retry.jitter_seed ^ (i as u64).wrapping_mul(0xA076_1D64_78BD_642F);
                SyncDriver::new(RetryConfig { jitter_seed: seed, ..retry })
            })
            .collect();
        ShardCoordinator { map, drivers }
    }
}

impl<C: Clock> ShardCoordinator<C> {
    /// Observes every shard's driver through `obs`
    /// ([`SyncDriver::with_obs`]): their exchanges and `driver.*` events
    /// aggregate into its registry, and each driver's
    /// [`SyncDriver::stats`] stays its own.
    pub fn with_obs(mut self, obs: Obs) -> Self {
        self.drivers = self.drivers.into_iter().map(|d| d.with_obs(obs.clone())).collect();
        self
    }

    /// One shard's driver.
    pub fn driver(&self, shard: ShardId) -> &SyncDriver<C> {
        &self.drivers[shard.index()]
    }

    /// Robustness counters aggregated across every shard's driver.
    pub fn stats(&self) -> DriverStats {
        let mut out = DriverStats::default();
        for d in &self.drivers {
            out.absorb(&d.stats());
        }
        out
    }

    /// Establishes one session per shard the filter overlaps, in `mode`,
    /// and returns what it loaded ([`Installed`]). Poll and persist are
    /// one request whose control says how later updates travel (§5): in
    /// [`SyncMode::Persist`] each opened session's receiver is taken
    /// through [`SyncTransport::take_receiver_at`], one per shard, in
    /// split order; in [`SyncMode::Poll`] there are none. All-or-nothing:
    /// on any failure the sessions already established are abandoned and
    /// the error propagates.
    ///
    /// # Errors
    ///
    /// The first [`SyncError`] any shard's exchange produced (after that
    /// shard's retry budget), or [`SyncError::UnknownCookie`] for a
    /// persist session whose receiver could not be taken.
    pub fn install(
        &mut self,
        transport: &mut dyn SyncTransport,
        request: &SearchRequest,
        mode: SyncMode,
    ) -> Result<Installed, SyncError> {
        let mut installed = Installed::default();
        let (actions, cookie, traffic, receivers) = &mut installed;
        for (shard, sub) in self.map.split(request) {
            let opened = self.drivers[shard.index()]
                .resync(transport, shard, &sub.to_request(), ReSyncControl { mode, cookie: None })
                .and_then(|resp| {
                    let Some(c) = resp.cookie else { return Ok(resp) };
                    cookie.insert(shard, c);
                    if mode == SyncMode::Persist {
                        let rx = transport.take_receiver_at(shard, c);
                        receivers.push(rx.ok_or(SyncError::UnknownCookie(c))?);
                    }
                    Ok(resp)
                });
            match opened {
                Ok(resp) => {
                    traffic.absorb(&resp.traffic());
                    actions.extend(resp.actions);
                }
                Err(e) => {
                    for (s, c) in cookie.iter() {
                        transport.abandon_at(s, c);
                    }
                    return Err(e);
                }
            }
        }
        Ok(installed)
    }

    /// Runs one sync cycle for the filter: [`SyncDriver::sync_slice`] —
    /// the recovery ladder — mapped over the filter's [`ShardMap::split`],
    /// each shard on its own driver. `held` yields the entries the replica
    /// holds for the whole filter; a shard that needs them (to reconcile
    /// or reinstall) reads them and keeps the ones the map assigns to it.
    /// `cookie` is updated in place with each shard's new session state;
    /// the outcomes carry the actions to apply.
    ///
    /// Never fails as a whole: per-shard hard failures come back as
    /// [`ShardStatus::Failed`] while the other shards' outcomes stand.
    pub fn sync_filter(
        &mut self,
        transport: &mut dyn SyncTransport,
        request: &SearchRequest,
        cookie: &mut CompositeCookie,
        held: &dyn Fn() -> Vec<Entry>,
    ) -> Vec<ShardOutcome> {
        let ShardCoordinator { map, drivers } = self;
        map.split(request)
            .into_iter()
            .map(|(shard, sub)| {
                let owned = || {
                    let mut slice = held();
                    slice.retain(|e| map.shard_of(e.dn()) == shard);
                    slice
                };
                let sub = sub.to_request();
                drivers[shard.index()].sync_slice(transport, shard, &sub, cookie, &owned)
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fbdr_ldap::{Dn, Filter, Scope};

    fn dn(s: &str) -> Dn {
        s.parse().unwrap()
    }

    fn person(cn: &str, country: &str, dept: &str) -> Entry {
        Entry::new(dn(&format!("cn={cn},c={country},o=xyz")))
            .with("objectclass", "person")
            .with("dept", dept)
    }

    /// Two shards: c=a on shard 0, c=b on shard 1.
    fn sharded() -> ShardedMaster {
        let map = ShardMap::by_suffixes(vec![dn("c=a,o=xyz"), dn("c=b,o=xyz")]);
        let mut m = ShardedMaster::new(map);
        for (i, cc) in ["a", "b"].iter().enumerate() {
            let s = m.shard_mut(ShardId::new(i as u16));
            s.dit_mut().add_suffix(dn("o=xyz"));
            s.dit_mut().add(Entry::new(dn("o=xyz"))).unwrap();
            s.dit_mut()
                .add(Entry::new(dn(&format!("c={cc},o=xyz"))).with("objectclass", "country"))
                .unwrap();
        }
        m
    }

    fn subtree(base: &str, filter: &str) -> SearchRequest {
        SearchRequest::new(dn(base), Scope::Subtree, Filter::parse(filter).unwrap())
    }

    #[test]
    fn updates_route_to_owning_shard() {
        let mut m = sharded();
        m.apply(UpdateOp::Add(person("e1", "a", "7"))).unwrap();
        m.apply(UpdateOp::Add(person("e2", "b", "7"))).unwrap();
        assert_eq!(m.shard(ShardId::new(0)).ops_applied(), 1);
        assert_eq!(m.shard(ShardId::new(1)).ops_applied(), 1);
        assert_eq!(m.ops_applied(), 2);
    }

    #[test]
    fn search_unions_shard_slices() {
        let mut m = sharded();
        m.apply(UpdateOp::Add(person("e1", "a", "7"))).unwrap();
        m.apply(UpdateOp::Add(person("e2", "b", "7"))).unwrap();
        m.apply(UpdateOp::Add(person("e3", "b", "9"))).unwrap();
        let hits = m.search(&subtree("o=xyz", "(dept=7)"));
        let dns: Vec<String> = hits.iter().map(|e| e.dn().to_string()).collect();
        assert_eq!(dns, vec!["cn=e1,c=a,o=xyz", "cn=e2,c=b,o=xyz"]);
    }

    #[test]
    fn counts_skip_glue_copies_as_search_does() {
        // Shard 1 has two suffixes under o=xyz, so its clamped sub-request
        // is based at o=xyz and covers its own copy of that glue entry.
        let map = ShardMap::new(ShardId::ZERO)
            .with_subtree(dn("c=a,o=xyz"), ShardId::new(1))
            .with_subtree(dn("c=b,o=xyz"), ShardId::new(1));
        let mut m = ShardedMaster::new(map);
        for i in 0..2 {
            let s = m.shard_mut(ShardId::new(i));
            s.dit_mut().add_suffix(dn("o=xyz"));
            s.dit_mut().add(Entry::new(dn("o=xyz")).with("dept", "7")).unwrap();
        }
        for cc in ["a", "b"] {
            m.apply(UpdateOp::Add(Entry::new(dn(&format!("c={cc},o=xyz"))))).unwrap();
            m.apply(UpdateOp::Add(person("e", cc, "7"))).unwrap();
        }
        let all = subtree("", "(dept=7)");
        assert_eq!(m.search(&all).len(), 3);
        assert_eq!(m.count_matching(&all), 3);
        assert_eq!(m.count_matching(&subtree("c=b,o=xyz", "(dept=7)")), 1);
        assert_eq!(m.entry_count(), 5);
    }

    /// One empty shard master, as it serializes.
    const EMPTY_SHARD: &str = concat!(
        r#"{"dit":{"entries":[],"suffixes":[],"csn":0},"sessions":{},"next_session":0,"#,
        r#""ops_applied":0,"#,
        r#""redeliveries":0,"notify_policy":{"coalesce":false,"max_batch":1,"max_delay_ms":0,"#,
        r#""max_queue":18446744073709551615},"#,
        r#""now_ms":0,"notify_wakeups":0,"notify_updates":0,"notify_overflows":0}"#,
    );

    /// A snapshot of a two-shard master (`c=b,o=xyz` on shard 1) holding
    /// the given shard masters.
    fn two_shard_snapshot(shards: &[&str]) -> String {
        let map = r#"{"entries":[[[{"attr":"c","value":"b"},{"attr":"o","value":"xyz"}],1]],"default":0,"shard_count":2}"#;
        format!(r#"{{"map":{map},"shards":[{}]}}"#, shards.join(","))
    }

    #[test]
    fn a_snapshot_whose_shard_list_is_not_the_maps_is_refused() {
        let sound = two_shard_snapshot(&[EMPTY_SHARD, EMPTY_SHARD]);
        let mut m: ShardedMaster = serde_json::from_str(&sound).expect("two shards for two load");
        assert_eq!(serde_json::to_string(&m).expect("serializes"), sound);
        // Routed to shard 1, which exists: refused by its store, not a panic.
        let add = UpdateOp::Add(person("e", "b", "7"));
        assert!(matches!(m.apply(add), Err(DitError::NoParent(_))));
        assert!(m.search(&subtree("", "(dept=7)")).is_empty());

        let short = two_shard_snapshot(&[EMPTY_SHARD]);
        let err = serde_json::from_str::<ShardedMaster>(&short).expect_err("one shard for two");
        assert!(err.to_string().contains("1 shard masters for a map of 2 shards"), "{err}");
        // A map naming a shard past its own count fails its own check.
        let past = sound.replacen("}],1]]", "}],7]]", 1);
        assert_ne!(past, sound);
        let err = serde_json::from_str::<ShardedMaster>(&past).expect_err("shard 7 of 2");
        assert!(err.to_string().contains("on shard7 is not below shard_count 2"), "{err}");
    }

    #[test]
    fn a_snapshot_whose_shard_holds_anothers_entry_is_refused() {
        // Each shard holds o=xyz: glue on shard 1, above its glue depth 2.
        let mut sound = sharded();
        sound.apply(UpdateOp::Add(person("e", "b", "7"))).unwrap();
        let json = serde_json::to_string(&sound).expect("serializes");
        let loaded: ShardedMaster = serde_json::from_str(&json).expect("every shard holds its slice");
        assert_eq!(loaded.entry_count(), 4);

        // Shard 0 also holds c=b, at its glue depth: a search would return
        // it from both shards.
        let holding = |dns: &[&str]| {
            let mut m = SyncMaster::new();
            m.dit_mut().add_suffix(dn("o=xyz"));
            for d in dns {
                m.dit_mut().add(Entry::new(dn(d))).unwrap();
            }
            m
        };
        let shards = vec![
            holding(&["o=xyz", "c=a,o=xyz", "c=b,o=xyz"]),
            holding(&["o=xyz", "c=b,o=xyz"]),
        ];
        let m = ShardedMaster::from_masters(sound.map().clone(), shards);
        let json = serde_json::to_string(&m).expect("serializes");
        let err = serde_json::from_str::<ShardedMaster>(&json).expect_err("a misplaced entry");
        assert!(err.to_string().contains("shard0 holds c=b,o=xyz, which the map assigns to shard1"), "{err}");
    }

    #[test]
    fn composite_cookie_serde_is_order_stable() {
        let mut fwd = CompositeCookie::new();
        fwd.insert(ShardId::new(0), Cookie::new(1, 2));
        fwd.insert(ShardId::new(3), Cookie::new(4, 5));
        let mut rev = CompositeCookie::new();
        rev.insert(ShardId::new(3), Cookie::new(4, 5));
        rev.insert(ShardId::new(0), Cookie::new(1, 2));
        let a = serde_json::to_string(&fwd).unwrap();
        let b = serde_json::to_string(&rev).unwrap();
        assert_eq!(a, b, "insertion order must not leak into the encoding");
        let back: CompositeCookie = serde_json::from_str(&a).unwrap();
        assert_eq!(back, fwd);
        // Even an unsorted encoding normalizes on decode.
        let unsorted = serde_json::to_string(&vec![
            (ShardId::new(3), Cookie::new(4, 5)),
            (ShardId::new(0), Cookie::new(1, 2)),
        ])
        .unwrap();
        assert_ne!(unsorted, a);
        let c: CompositeCookie = serde_json::from_str(&unsorted).unwrap();
        assert_eq!(serde_json::to_string(&c).unwrap(), a);
    }

    #[test]
    fn coordinator_installs_and_polls_across_shards() {
        let mut m = sharded();
        let mut coord = ShardCoordinator::new(m.map().clone());
        let req = subtree("o=xyz", "(dept=7)");

        m.apply(UpdateOp::Add(person("e1", "a", "7"))).unwrap();
        m.apply(UpdateOp::Add(person("e2", "b", "7"))).unwrap();
        let (actions, mut cookie, _, _) = coord.install(&mut m, &req, SyncMode::Poll).unwrap();
        assert_eq!(actions.len(), 2);
        assert_eq!(cookie.len(), 2, "one session per overlapped shard");
        assert_eq!(m.session_count(), 2);

        // An update on shard 1 reaches only shard 1's session.
        m.apply(UpdateOp::Add(person("e3", "b", "7"))).unwrap();
        let outs = m.map().split(&req).len();
        let outcomes = coord.sync_filter(&mut m, &req, &mut cookie, &Vec::new);
        assert_eq!(outcomes.len(), outs);
        let total: usize = outcomes.iter().map(|o| o.actions.len()).sum();
        assert_eq!(total, 1);
        assert!(outcomes.iter().all(|o| o.status == ShardStatus::Updated));
    }

    #[test]
    fn a_persist_install_takes_one_receiver_per_shard() {
        let mut m = sharded();
        let mut coord = ShardCoordinator::new(m.map().clone());
        let req = subtree("o=xyz", "(dept=7)");
        let shards: Vec<ShardId> = m.map().split(&req).iter().map(|(s, _)| *s).collect();
        assert_eq!(shards, [ShardId::new(0), ShardId::new(1)]);
        let (_, cookie, _, receivers) = coord.install(&mut m, &req, SyncMode::Persist).unwrap();
        assert_eq!((cookie.len(), receivers.len()), (2, 2));

        // Each shard's update arrives on that shard's receiver (receivers
        // come in split order), and on no other.
        for (k, cc) in ["a", "b"].into_iter().enumerate() {
            m.apply(UpdateOp::Add(person("e", cc, "7"))).unwrap();
            let got: Vec<Vec<NotifyBatch>> =
                receivers.iter().map(|r| r.try_iter().collect()).collect();
            assert!(got[1 - k].is_empty(), "the other shard's receiver stays quiet");
            let want = dn(&format!("cn=e,c={cc},o=xyz"));
            let [batch] = &got[k][..] else { panic!("one batch on shard {k}: {got:?}") };
            assert!(matches!(&batch.actions[..], [SyncAction::Add(e)] if e.dn() == &want));
        }
    }

    /// Forwards the legs of a sharded master, but takes no receiver.
    struct NoReceivers<'a>(&'a mut ShardedMaster);

    impl SyncTransport for NoReceivers<'_> {
        fn shard_count(&self) -> usize {
            self.0.shard_count()
        }

        fn resync_at(
            &mut self,
            shard: ShardId,
            request: &SearchRequest,
            ctl: ReSyncControl,
        ) -> Result<SyncResponse, SyncError> {
            self.0.resync_at(shard, request, ctl)
        }

        fn take_receiver_at(&mut self, _: ShardId, _: Cookie) -> Option<Receiver<NotifyBatch>> {
            None
        }

        fn abandon_at(&mut self, shard: ShardId, cookie: Cookie) {
            self.0.abandon_at(shard, cookie);
        }
    }

    #[test]
    fn a_failed_persist_install_abandons_what_it_opened() {
        let req = subtree("o=xyz", "(dept=7)");
        // A receiver that cannot be taken fails the install, and the
        // session it belongs to goes with it.
        let mut m = sharded();
        let mut coord = ShardCoordinator::new(m.map().clone());
        let err = coord.install(&mut NoReceivers(&mut m), &req, SyncMode::Persist).unwrap_err();
        assert!(matches!(err, SyncError::UnknownCookie(_)), "{err:?}");
        assert_eq!(m.session_count(), 0);

        // Shard 1 missing: shard 0's persist session, receiver taken, is
        // abandoned.
        let mut one = SyncMaster::new();
        one.dit_mut().add_suffix(dn("o=xyz"));
        one.dit_mut().add(Entry::new(dn("o=xyz"))).unwrap();
        let mut m = ShardedMaster::from(one);
        let mut coord = ShardCoordinator::new(sharded().map().clone());
        let err = coord.install(&mut m, &req, SyncMode::Persist).unwrap_err();
        assert_eq!(err, SyncError::UnknownShard(ShardId::new(1)));
        assert_eq!(m.session_count(), 0);
    }

    #[test]
    fn a_shard_the_master_lacks_is_an_error_not_a_panic() {
        // The replica's map has two shards; the master behind it has one,
        // holding both countries.
        let mut one = SyncMaster::new();
        one.dit_mut().add_suffix(dn("o=xyz"));
        for d in ["o=xyz", "c=a,o=xyz", "c=b,o=xyz"] {
            one.dit_mut().add(Entry::new(dn(d))).unwrap();
        }
        let mut m = ShardedMaster::from(one);
        m.apply(UpdateOp::Add(person("e1", "a", "7"))).unwrap();
        m.apply(UpdateOp::Add(person("e2", "b", "7"))).unwrap();
        let map = sharded().map().clone();
        let req = subtree("o=xyz", "(dept=7)");
        assert_eq!(map.split(&req)[0].0, ShardId::ZERO, "shard 0 installs first");
        let missing = ShardId::new(1);
        let unknown = SyncError::UnknownShard(missing);

        // All or nothing: shard 0's session goes with shard 1's failure.
        let mut coord = ShardCoordinator::new(map);
        assert_eq!(coord.install(&mut m, &req, SyncMode::Poll).unwrap_err(), unknown);
        assert_eq!(m.session_count(), 0);

        let mut cookie = CompositeCookie::new();
        let outcomes = coord.sync_filter(&mut m, &req, &mut cookie, &Vec::new);
        let status = |s| &outcomes.iter().find(|o| o.shard == s).unwrap().status;
        assert_eq!(status(ShardId::ZERO), &ShardStatus::Updated);
        assert_eq!(status(missing), &ShardStatus::Failed(unknown.clone()));
        assert!(!unknown.is_transient() && !unknown.needs_reinstall());

        // The other legs check the shard too.
        let c = cookie.get(ShardId::ZERO).expect("shard 0 polled in");
        assert!(m.take_receiver_at(missing, c).is_none());
        m.abandon_at(missing, c);
        assert_eq!(m.session_count(), 1, "shard 0's session is not a bare cookie's");
        let digest = crate::reconcile::BloomDigest::build(&[], 0.01, 1);
        let rec = ReconcileRequest { digest, summary_buckets: 4 };
        assert_eq!(m.reconcile_at(missing, &req, rec).unwrap_err(), unknown);
        let ranges = RangeRequest { probes: Vec::new() };
        assert_eq!(m.reconcile_ranges_at(missing, c, &ranges).unwrap_err(), unknown);
    }

    #[test]
    fn dead_session_on_one_shard_recovers_only_that_shard() {
        let mut m = sharded();
        let mut coord = ShardCoordinator::new(m.map().clone());
        let req = subtree("o=xyz", "(dept=7)");
        m.apply(UpdateOp::Add(person("e1", "a", "7"))).unwrap();
        m.apply(UpdateOp::Add(person("e2", "b", "7"))).unwrap();
        let (_, mut cookie, _, _) = coord.install(&mut m, &req, SyncMode::Poll).unwrap();

        // Kill shard 1's session behind the coordinator's back.
        let c1 = cookie.get(ShardId::new(1)).unwrap();
        m.shard_mut(ShardId::new(1)).abandon(c1);

        m.apply(UpdateOp::Add(person("e3", "b", "7"))).unwrap();
        let outcomes = coord.sync_filter(&mut m, &req, &mut cookie, &Vec::new);
        let by_shard =
            |s: u16| outcomes.iter().find(|o| o.shard == ShardId::new(s)).unwrap();
        assert_eq!(by_shard(0).status, ShardStatus::Updated);
        // A forgotten session reconciles. Nothing is held, so the
        // exchange ships shard 1's full slice — and only shard 1's.
        assert_eq!(by_shard(1).status, ShardStatus::Reconciled);
        assert_eq!(by_shard(1).actions.len(), 2);
        assert_eq!(coord.stats().reconciliations, 1);
        assert_eq!(coord.stats().reinstalls, 0);
        // Both shards hold live sessions again; the next poll is clean.
        assert_eq!(cookie.len(), 2);
        let outcomes = coord.sync_filter(&mut m, &req, &mut cookie, &Vec::new);
        assert!(outcomes.iter().all(|o| o.status == ShardStatus::Updated));
    }
}
