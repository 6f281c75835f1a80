//! Sharded masters: the directory partitioned across several
//! [`SyncMaster`]s by naming context, behind one facade.
//!
//! A [`ShardedMaster`] owns one `SyncMaster` per shard of a
//! [`ShardMap`]; updates route to the shard owning the target DN, so
//! each shard maintains its own `RoutingIndex`, session ledgers and
//! replay buffers over just its slice of the DIT. Because the shard
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
    Cookie, NotifyBatch, ReSyncControl, SyncAction, SyncError, SyncResponse, SyncTraffic,
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
/// base/scope. As a [`SyncTransport`] the facade is fully
/// shard-addressable through the `_at` legs; the plain legs serve
/// requests that stay within one shard (they route by the request
/// base's owner), while the cookie-only plain legs (`take_receiver`,
/// `abandon`, `reconcile_ranges`) are inert — a bare cookie does not
/// identify a shard, and per-shard session ids collide across shards,
/// so only the `_at` forms can act safely.
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
    /// missing shard would index past the list.
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
    pub fn shard_mut(&mut self, shard: ShardId) -> &mut SyncMaster {
        &mut self.shards[shard.index()]
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
    /// otherwise return those copies once per shard.
    fn for_each_owned_match<'a>(&'a self, request: &SearchRequest, mut f: impl FnMut(&'a Entry)) {
        for (shard, sub) in self.map.split(request) {
            self.shards[shard.index()].dit().for_each_match(&sub, |e| {
                if self.map.shard_of(e.dn()) == shard {
                    f(e);
                }
            });
        }
    }

    /// Answers a search in one pass: the owned matches of every shard are
    /// collected as references, sorted once into hierarchical DN order and
    /// only then projected — what one store's
    /// [`DitStore::search`](fbdr_dit::DitStore::search) over the same
    /// entries returns.
    pub fn search(&self, request: &SearchRequest) -> Vec<Entry> {
        let mut hits: Vec<&Entry> = Vec::new();
        self.for_each_owned_match(request, |e| hits.push(e));
        hits.sort_unstable_by(|a, b| a.dn().cmp_hierarchical(b.dn()));
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
            let held = self.shards[shard.index()].dit().iter();
            held.filter(|e| self.map.shard_of(e.dn()) == shard).count()
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

    /// Bounds every shard's replay buffer (see
    /// [`SyncMaster::set_replay_expiry_ops`]).
    pub fn set_replay_expiry_ops(&mut self, ops: u64) {
        for shard in &mut self.shards {
            shard.set_replay_expiry_ops(ops);
        }
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
    fn resync(
        &mut self,
        request: &SearchRequest,
        ctl: ReSyncControl,
    ) -> Result<SyncResponse, SyncError> {
        let shard = self.map.shard_of(request.base());
        self.shards[shard.index()].resync(request, ctl)
    }

    fn take_receiver(&mut self, _cookie: Cookie) -> Option<Receiver<NotifyBatch>> {
        // A bare cookie does not identify a shard; see the type docs.
        None
    }

    fn abandon(&mut self, _cookie: Cookie) {
        // Inert: session ids collide across shards, so acting on a bare
        // cookie could kill an unrelated shard's session.
    }

    fn reconcile(
        &mut self,
        request: &SearchRequest,
        req: ReconcileRequest,
    ) -> Result<ReconcileResponse, SyncError> {
        let shard = self.map.shard_of(request.base());
        self.shards[shard.index()].reconcile(request, req)
    }

    fn reconcile_ranges(
        &mut self,
        _cookie: Cookie,
        _req: &RangeRequest,
    ) -> Result<RangeResponse, SyncError> {
        Err(SyncError::ReconcileFailed(
            "a bare cookie does not identify a shard; use reconcile_ranges_at".into(),
        ))
    }

    fn shard_count(&self) -> usize {
        self.shards.len()
    }

    fn resync_at(
        &mut self,
        shard: ShardId,
        request: &SearchRequest,
        ctl: ReSyncControl,
    ) -> Result<SyncResponse, SyncError> {
        self.shards[shard.index()].resync(request, ctl)
    }

    fn take_receiver_at(&mut self, shard: ShardId, cookie: Cookie) -> Option<Receiver<NotifyBatch>> {
        self.shards[shard.index()].take_receiver(cookie)
    }

    fn abandon_at(&mut self, shard: ShardId, cookie: Cookie) {
        self.shards[shard.index()].abandon(cookie);
    }

    fn reconcile_at(
        &mut self,
        shard: ShardId,
        request: &SearchRequest,
        req: ReconcileRequest,
    ) -> Result<ReconcileResponse, SyncError> {
        self.shards[shard.index()].reconcile(request, req)
    }

    fn reconcile_ranges_at(
        &mut self,
        shard: ShardId,
        cookie: Cookie,
        req: &RangeRequest,
    ) -> Result<RangeResponse, SyncError> {
        self.shards[shard.index()].reconcile_ranges(cookie, req)
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

    /// Establishes one session per shard the filter overlaps and returns
    /// the initial content actions, the composite cookie, and the load
    /// traffic. All-or-nothing: on any failure the sessions already
    /// established are abandoned and the error propagates.
    ///
    /// # Errors
    ///
    /// The first [`SyncError`] any shard's exchange produced (after that
    /// shard's retry budget).
    pub fn install(
        &mut self,
        transport: &mut dyn SyncTransport,
        request: &SearchRequest,
    ) -> Result<(Vec<SyncAction>, CompositeCookie, SyncTraffic), SyncError> {
        let mut actions = Vec::new();
        let mut cookie = CompositeCookie::new();
        let mut traffic = SyncTraffic::default();
        for (shard, sub) in self.map.split(request) {
            let r = self.drivers[shard.index()].resync(
                transport,
                shard,
                &sub,
                ReSyncControl::poll(None),
            );
            match r {
                Ok(resp) => {
                    traffic.absorb(&resp.traffic());
                    actions.extend(resp.actions);
                    if let Some(c) = resp.cookie {
                        cookie.insert(shard, c);
                    }
                }
                Err(e) => {
                    for (s, c) in cookie.iter() {
                        transport.abandon_at(s, c);
                    }
                    return Err(e);
                }
            }
        }
        Ok((actions, cookie, traffic))
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
        r#""ops_applied":0,"table":{"slots":[]},"replay_expiry_ops":null,"#,
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
        let (actions, mut cookie, _) = coord.install(&mut m, &req).unwrap();
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
    fn dead_session_on_one_shard_recovers_only_that_shard() {
        let mut m = sharded();
        let mut coord = ShardCoordinator::new(m.map().clone());
        let req = subtree("o=xyz", "(dept=7)");
        m.apply(UpdateOp::Add(person("e1", "a", "7"))).unwrap();
        m.apply(UpdateOp::Add(person("e2", "b", "7"))).unwrap();
        let (_, mut cookie, _) = coord.install(&mut m, &req).unwrap();

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
