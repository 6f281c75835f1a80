//! The filter-set index: one structure, two lookups.
//!
//! A set of registered filters — the master's live sessions, a replica's
//! stored filters, its window of cached queries — is indexed once and
//! asked two dual questions:
//!
//! * **entry → filters** ([`RoutingIndex::candidates_for_entry`]): which
//!   registered filters can *match* this entry? `SyncMaster::apply` asks
//!   it for the old and the new state of every updated entry instead of
//!   evaluating every session's filter — O(sessions) per op otherwise.
//! * **query → filters** ([`RoutingIndex::candidates_for_query`]): which
//!   registered filters can *contain* this query? `FilterReplica` asks it
//!   instead of running a containment check against every stored filter —
//!   the §7.4 overhead "directly proportional to the number of stored
//!   filters".
//!
//! The paper's templates (§4) exist to prune exactly this kind of
//! per-filter work. A registered filter's LDAP template is a handle on a
//! body every filter of the template shares, in every index of the
//! process; the template's [`routing plans`](fbdr_ldap::Template::routing_plans)
//! are derived once on that body, and each filter's concrete assertion
//! values key into postings of ids:
//!
//! * **equality** `(attr, value)` → filters asserting exactly that value,
//! * **prefix** `(attr, initial)` → filters with an initial-substring
//!   assertion on `attr`, keyed by the prefix text and probed once per
//!   distinct registered prefix length,
//! * **presence** `attr` → filters asserting `(attr=*)`.
//!
//! Filters with no sound routing keys (`Not`, substring without an
//! initial segment, pure range filters, …) land on a **residual
//! scan-list**, bucketed by the root-most RDN of their search base so an
//! update under `o=xyz` never scans sessions rooted at `o=abc`
//! ([`RoutingIndex::residual_for_dn`], the same call for an entry's DN and
//! for a query's base).
//!
//! # The two soundness contracts
//!
//! *Registration* (inherited from `routing_plans`): if a registered filter
//! matches an entry, at least one of its registered keys matches that
//! entry's attribute state. The master therefore looks up candidates from
//! the entry's **old and new** values — an entry leaving a filter stops
//! matching the new state, but its old state still hits the session's
//! keys, which is exactly what routes the departure. A modification
//! changes only the attributes it names, and a key on any other attribute
//! meets both states alike, so the new state is looked up on the named
//! attributes alone ([`RoutingIndex::candidates_for_attrs`]).
//!
//! *Witness*: a positive conjunctive query `Q` has a witness — the entry
//! state holding, per predicate, the one value
//! [`Comparison::witness`](fbdr_ldap::Comparison::witness) names — which
//! matches `Q`. If a registered filter `S` contains `Q` then `S` matches
//! the witness, so by the first contract one of `S`'s keys matches the
//! witness's attribute state: looking the witness up like an entry yields
//! every containing filter. A presence predicate's witness value is one
//! equal to no registered key and extending no registered prefix (the
//! string domain is infinite), so it reaches presence postings only. A
//! query with `Or` or `Not` has no single witness and is reported
//! unindexable: every registered filter is its candidate.
//!
//! Both contracts are checked end to end against the reference model
//! (`fbdr-model`, driven by `tests/model.rs` at the workspace root),
//! which routes nothing and decides by scanning: a candidate the index
//! misses is a session left behind or a query answered by another filter.
//!
//! # Keys
//!
//! Every posting — equality, prefix, presence and residual bucket — sits
//! in one map keyed by a 64-bit hash of (kind, attribute, normalized
//! text), its ids in a [`Posting`]. The hash is keyed per index (std's
//! `RandomState`), so no text can be crafted to collide, and a collision
//! only adds a candidate: every caller verifies its candidates, the master
//! by `Filter::matches` and the replica by containment. Beside the map, a
//! short list sorted by attribute says what each *keyed* attribute is
//! keyed by (equality and presence counts, prefix lengths); an attribute
//! leaves it with its last key. Whoever registers a filter holds its
//! [`Registration`] — the master in its session, the window in its slot —
//! and hands it back to remove the filter, so the index keeps no map from
//! ids to places.
//!
//! # Costs
//!
//! * **Lookup**: an entry's attributes and the keyed ones, both sorted
//!   by name, are walked together once, and only a keyed attribute costs
//!   anything: one hash and one probe for its presence key, and per value
//!   one for its equality keys and one per distinct prefix length. The
//!   new state of a modified entry costs the same over the attributes the
//!   modification names. A query costs the same per predicate of its
//!   witness. Nothing is allocated but the caller's output vector (a
//!   query's substring pattern of several components builds its
//!   concatenated witness text). Both entry lookups return their probe
//!   count.
//! * **Registration**: one hash and one probe per key, and a binary search
//!   of the keyed attributes. A conjunction offering several alternatives
//!   also hashes and probes each alternative's keys once, to pick the
//!   least-loaded. A filter of one key (an equality, a prefix, a
//!   conjunction keyed by one child) or a residual filter allocates
//!   nothing on a warm index; a filter of several keys allocates its list
//!   of keys once, by the count in `tests/publish_cost.rs`.
//! * **Removal**: one probe per key, and no allocation.

use fbdr_dit::posting::Posting;
use fbdr_ldap::{AttrName, AttrValue, Dn, Entry, Filter, SearchRequest, SlotKey, Template, ValueSet};
use std::borrow::Borrow;
use std::cmp::Ordering;
use std::collections::hash_map::{self, HashMap};
use std::hash::{BuildHasher, BuildHasherDefault, DefaultHasher, Hasher, RandomState};

/// What a key asserts of its attribute.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Kind {
    /// Equal to a normalized value.
    Eq,
    /// Starting with a normalized prefix of this many bytes.
    Prefix(u32),
    /// Present.
    Present,
}

/// The byte that starts each kind's text in a key's hash.
const EQ: u8 = 0;
const PREFIX: u8 = 1;
const PRESENT: u8 = 2;
/// A residual bucket: the root RDN of a residual filter's base.
const RESIDUAL: u8 = 3;

impl Kind {
    fn tag(self) -> u8 {
        match self {
            Kind::Eq => EQ,
            Kind::Prefix(_) => PREFIX,
            Kind::Present => PRESENT,
        }
    }
}

/// A concrete posting key a filter is registered under.
#[derive(Debug)]
struct Key {
    hash: u64,
    attr: AttrName,
    kind: Kind,
}

/// Where one filter is registered.
#[derive(Debug)]
enum Place {
    /// Indexed under one posting key.
    One(Key),
    /// Indexed under several.
    Many(Box<[Key]>),
    /// On the residual scan-list: in the bucket hashed from its base's
    /// root RDN, or (`None`) rooted at the empty DN and scanned for every
    /// update.
    Residual(Option<u64>),
}

/// One filter's registration in a [`RoutingIndex`]: what
/// [`RoutingIndex::register`] hands back and [`RoutingIndex::remove`]
/// takes to unlist the filter, one probe per key. An id is registered at
/// most once at a time; dropping a registration leaves its filter listed
/// for the index's lifetime.
#[derive(Debug)]
pub struct Registration {
    id: u32,
    place: Place,
}

impl Registration {
    /// The id the filter is listed under.
    pub(crate) fn id(&self) -> u32 {
        self.id
    }

    /// The posting keys, none for a residual filter.
    fn keys(&self) -> &[Key] {
        match &self.place {
            Place::One(key) => std::slice::from_ref(key),
            Place::Many(keys) => keys,
            Place::Residual(_) => &[],
        }
    }
}

/// Counts of live index structures, for tests and observability.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct RoutingStats {
    /// Filters currently registered.
    pub sessions: usize,
    /// Filters reachable through posting keys.
    pub indexed: usize,
    /// Filters on the residual scan-list.
    pub residual: usize,
    /// Distinct posting keys, residual buckets included (filters based at
    /// the empty DN are on one list outside them).
    pub keys: usize,
}

/// What one attribute is keyed by.
#[derive(Debug, Clone, PartialEq, Eq)]
struct Keyed {
    attr: AttrName,
    /// Equality keys registered on the attribute.
    eq: u32,
    /// Presence keys registered on it.
    present: u32,
    /// `(byte length, keys of that length)` of its prefix keys, by
    /// length: a value is probed once per distinct length, not per key.
    prefix_lens: Vec<(u32, u32)>,
}

impl Keyed {
    fn new(attr: AttrName) -> Self {
        Keyed { attr, eq: 0, present: 0, prefix_lens: Vec::new() }
    }

    fn is_empty(&self) -> bool {
        self.eq == 0 && self.present == 0 && self.prefix_lens.is_empty()
    }

    /// Counts one key of `kind` in (`add`) or out.
    fn count(&mut self, kind: Kind, add: bool) {
        let bump = |n: &mut u32| *n = if add { *n + 1 } else { *n - 1 };
        match kind {
            Kind::Eq => bump(&mut self.eq),
            Kind::Present => bump(&mut self.present),
            Kind::Prefix(len) => match self.prefix_lens.binary_search_by_key(&len, |&(l, _)| l) {
                Ok(at) => {
                    bump(&mut self.prefix_lens[at].1);
                    if self.prefix_lens[at].1 == 0 {
                        self.prefix_lens.remove(at);
                    }
                }
                Err(at) => self.prefix_lens.insert(at, (len, 1)),
            },
        }
    }
}

/// The posting map's keys are hashes already: its hasher passes them on.
#[derive(Debug, Default)]
struct Prehashed(u64);

impl Hasher for Prehashed {
    fn write(&mut self, _: &[u8]) {
        unreachable!("posting keys are u64 hashes")
    }

    fn write_u64(&mut self, hash: u64) {
        self.0 = hash;
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

/// A key's hash: `on` has taken its attribute's name, and the kind's tag
/// byte and the text end it.
fn hash(on: &DefaultHasher, tag: u8, text: &[u8]) -> u64 {
    let mut h = on.clone();
    h.write_u8(tag);
    h.write(text);
    h.finish()
}

/// An index over a set of registered filters, answering which of them can
/// match an entry and which can contain a query (see the module docs).
///
/// Maintained across the filters' lifecycle (`register` on install,
/// `remove` on abandon/expiry/eviction); never serialized — the master
/// rebuilds it from the surviving sessions after deserialization.
#[derive(Debug, Default)]
pub struct RoutingIndex {
    /// Keys the posting hashes.
    hasher: RandomState,
    /// Key hash → the filters registered under it.
    postings: HashMap<u64, Posting, BuildHasherDefault<Prehashed>>,
    /// The keyed attributes, sorted.
    keyed: Vec<Keyed>,
    /// Residual filters based at the empty DN (scanned for every DN).
    residual_root: Posting,
    /// Residual filters listed in a base bucket.
    residual_buckets: usize,
    /// Filters registered, and how many of them are residual.
    filters: usize,
    residual: usize,
}

impl RoutingIndex {
    /// An empty index.
    pub fn new() -> Self {
        RoutingIndex::default()
    }

    /// Number of filters currently registered.
    pub fn len(&self) -> usize {
        self.filters
    }

    /// True when no filter is registered.
    pub fn is_empty(&self) -> bool {
        self.filters == 0
    }

    /// The hash state after an attribute's name: where each of its keys'
    /// hashes starts.
    fn on(&self, attr: &AttrName) -> DefaultHasher {
        let mut h = self.hasher.build_hasher();
        h.write(attr.lower().as_bytes());
        // No UTF-8 byte: the name ends here.
        h.write_u8(0xff);
        h
    }

    /// The ids under a key hash, none when it is absent.
    fn ids(&self, hash: u64) -> &[u32] {
        self.postings.get(&hash).map_or(&[], Posting::as_slice)
    }

    /// What `attr` is keyed by, if anything.
    fn keyed(&self, attr: &AttrName) -> Option<&Keyed> {
        self.keyed.binary_search_by(|k| k.attr.cmp(attr)).ok().map(|at| &self.keyed[at])
    }

    /// Appends the filters asserting `k`'s attribute present; returns the
    /// probes made.
    fn probe_present(&self, k: &Keyed, on: &DefaultHasher, out: &mut Vec<u32>) -> usize {
        if k.present == 0 {
            return 0;
        }
        out.extend_from_slice(self.ids(hash(on, PRESENT, b"")));
        1
    }

    /// Appends the filters whose equality or prefix key on `k`'s
    /// attribute one normalized value meets; returns the probes made.
    fn probe_text(&self, k: &Keyed, on: &DefaultHasher, norm: &str, out: &mut Vec<u32>) -> usize {
        let mut probes = 0;
        if k.eq > 0 {
            out.extend_from_slice(self.ids(hash(on, EQ, norm.as_bytes())));
            probes += 1;
        }
        for &(len, _) in &k.prefix_lens {
            let len = len as usize;
            if len > norm.len() {
                break;
            }
            // Cut inside a character, the head is no key's text.
            if norm.is_char_boundary(len) {
                out.extend_from_slice(self.ids(hash(on, PREFIX, &norm.as_bytes()[..len])));
                probes += 1;
            }
        }
        probes
    }

    /// Appends the filters keyed on `k`'s attribute that these values of
    /// it meet; returns the probes made.
    fn probe_values(&self, k: &Keyed, values: &ValueSet, out: &mut Vec<u32>) -> usize {
        let on = self.on(&k.attr);
        let mut probes = self.probe_present(k, &on, out);
        if k.eq > 0 || !k.prefix_lens.is_empty() {
            for v in values {
                probes += self.probe_text(k, &on, v.normalized(), out);
            }
        }
        probes
    }

    /// Instantiates one plan key for these slot values.
    fn key(&self, key: &SlotKey, values: &[impl Borrow<AttrValue>]) -> Key {
        let text = |slot: &usize| values[*slot].borrow().normalized();
        let (attr, kind, text) = match key {
            SlotKey::Eq { attr, slot } => (attr, Kind::Eq, text(slot)),
            SlotKey::Prefix { attr, slot } => {
                let t = text(slot);
                (attr, Kind::Prefix(t.len() as u32), t)
            }
            SlotKey::Present { attr } => (attr, Kind::Present, ""),
        };
        Key { hash: hash(&self.on(attr), kind.tag(), text.as_bytes()), attr: attr.clone(), kind }
    }

    /// Registers a filter under the routing keys of its request filter
    /// ([`RoutingIndex::register_prepared`] on the template extracted
    /// here).
    pub fn register(&mut self, id: u32, request: &SearchRequest) -> Registration {
        let (template, values) = Template::of(request.filter());
        self.register_prepared(id, &template, &values, request.base())
    }

    /// Registers a filter given as its already-extracted template and
    /// slot values (what a `PreparedQuery` holds, owned or borrowed) plus
    /// its search base: under the routing keys of one of the template's
    /// plans, or on the residual scan-list when the template is not
    /// indexable. `id` must not be registered already: whoever registered
    /// it removes it first, with the registration returned here.
    ///
    /// When the template offers several sound key sets (a conjunction of
    /// indexable children), the alternative whose postings currently hold
    /// the fewest filters wins — near-constant assertions like
    /// `objectclass=person` stay unpicked once they start crowding, so a
    /// fleet of `(&(objectclass=person)(dept=N))` sessions keys on the
    /// selective `dept` slot instead of degenerating to a broadcast list.
    pub fn register_prepared(
        &mut self,
        id: u32,
        template: &Template,
        values: &[impl Borrow<AttrValue>],
        base: &Dn,
    ) -> Registration {
        self.filters += 1;
        let place = match template.routing_plans() {
            Some(alts) => {
                let best = match alts {
                    [only] => only,
                    _ => alts
                        .iter()
                        .min_by_key(|alt| {
                            let load = |k: &SlotKey| self.ids(self.key(k, values).hash).len();
                            (alt.iter().map(load).sum::<usize>(), alt.len())
                        })
                        .expect("routing_plans returns non-empty alternatives"),
                };
                match best.as_slice() {
                    [key] => Place::One(self.key(key, values)),
                    keys => Place::Many(keys.iter().map(|k| self.key(k, values)).collect()),
                }
            }
            None => {
                self.residual += 1;
                let bucket = base.rdns().last().map(|r| {
                    hash(&self.on(r.attr()), RESIDUAL, r.value().normalized().as_bytes())
                });
                match bucket {
                    Some(bucket) => {
                        self.residual_buckets += 1;
                        self.postings.entry(bucket).or_default().insert(id);
                    }
                    None => {
                        self.residual_root.insert(id);
                    }
                }
                Place::Residual(bucket)
            }
        };
        let reg = Registration { id, place };
        for key in reg.keys() {
            self.list(key, id);
        }
        reg
    }

    /// Removes a filter from every posting it appears in, given the
    /// registration [`RoutingIndex::register`] returned for it. Emptied
    /// postings are dropped, so the key space tracks the live population.
    pub fn remove(&mut self, reg: Registration) {
        self.filters -= 1;
        match reg.place {
            Place::Residual(bucket) => {
                self.residual -= 1;
                match bucket {
                    Some(bucket) => {
                        self.residual_buckets -= 1;
                        self.unpost(bucket, reg.id);
                    }
                    None => {
                        self.residual_root.remove(reg.id);
                    }
                }
            }
            Place::One(_) | Place::Many(_) => {
                for key in reg.keys() {
                    self.unlist(key, reg.id);
                }
            }
        }
    }

    /// Lists `id` under `key` and counts the key on its attribute.
    fn list(&mut self, key: &Key, id: u32) {
        self.postings.entry(key.hash).or_default().insert(id);
        let at = match self.keyed.binary_search_by(|k| k.attr.cmp(&key.attr)) {
            Ok(at) => at,
            Err(at) => {
                self.keyed.insert(at, Keyed::new(key.attr.clone()));
                at
            }
        };
        self.keyed[at].count(key.kind, true);
    }

    /// Unlists `id` from under `key`, and the attribute with its last key.
    fn unlist(&mut self, key: &Key, id: u32) {
        self.unpost(key.hash, id);
        if let Ok(at) = self.keyed.binary_search_by(|k| k.attr.cmp(&key.attr)) {
            self.keyed[at].count(key.kind, false);
            if self.keyed[at].is_empty() {
                self.keyed.remove(at);
            }
        }
    }

    /// Unlists `id` from a posting, dropping the posting with its last id.
    /// Absent when a colliding key of the same filter unlisted it already.
    fn unpost(&mut self, hash: u64, id: u32) {
        if let hash_map::Entry::Occupied(mut at) = self.postings.entry(hash) {
            at.get_mut().remove(id);
            if at.get().is_empty() {
                at.remove();
            }
        }
    }

    /// Appends to `out` every indexed filter one of whose keys matches
    /// the entry's attribute state, and returns the probes it took.
    /// Duplicates may be appended (a filter can match on several keys) —
    /// sort + dedup once after collecting old and new state. Both the
    /// entry's attributes and the keyed ones are sorted by name, so one
    /// merge walks them together; allocates nothing.
    pub fn candidates_for_entry(&self, entry: &Entry, out: &mut Vec<u32>) -> usize {
        let mut probes = 0;
        let (mut keyed, mut attrs) = (self.keyed.iter(), entry.attrs());
        let (mut k, mut a) = (keyed.next(), attrs.next());
        while let (Some(key), Some((attr, values))) = (k, a) {
            match key.attr.cmp(attr) {
                Ordering::Less => k = keyed.next(),
                Ordering::Greater => a = attrs.next(),
                Ordering::Equal => {
                    probes += self.probe_values(key, values, out);
                    (k, a) = (keyed.next(), attrs.next());
                }
            }
        }
        probes
    }

    /// [`candidates_for_entry`](RoutingIndex::candidates_for_entry) over
    /// the attributes `attrs` names alone: the lookup of a modified
    /// entry's new state, whose other attributes the lookup of its old
    /// state met already (see the module docs). Returns the probes it
    /// took.
    pub fn candidates_for_attrs(
        &self,
        entry: &Entry,
        attrs: &[AttrName],
        out: &mut Vec<u32>,
    ) -> usize {
        let mut probes = 0;
        for attr in attrs {
            if let Some(k) = self.keyed(attr) {
                if let Some((_, values)) = entry.attr(attr) {
                    probes += self.probe_values(k, values, out);
                }
            }
        }
        probes
    }

    /// Appends to `out` every indexed filter that can contain a query
    /// with this filter — those with a key matching the query's witness
    /// (see the module docs) — and returns true; for a query that is not
    /// positive conjunctive (it has an `Or` or a `Not`) appends nothing
    /// and returns false: every registered filter is then a candidate.
    /// Residual filters are candidates either way; add them with
    /// [`RoutingIndex::residual_for_dn`] on the query's base. Duplicates
    /// may be appended, as by
    /// [`candidates_for_entry`](RoutingIndex::candidates_for_entry).
    pub fn candidates_for_query(&self, filter: &Filter, out: &mut Vec<u32>) -> bool {
        let start = out.len();
        let conjunctive = filter.for_each_conjunct(&mut |p| {
            let Some(k) = self.keyed(p.attr()) else {
                return;
            };
            let on = self.on(&k.attr);
            self.probe_present(k, &on, out);
            match p.comparison().witness() {
                Some(value) => {
                    self.probe_text(k, &on, &value, out);
                }
                // Presence: a value that extends no prefix but the empty one.
                None => {
                    if k.prefix_lens.first().is_some_and(|&(len, _)| len == 0) {
                        out.extend_from_slice(self.ids(hash(&on, PREFIX, b"")));
                    }
                }
            }
        });
        if !conjunctive {
            out.truncate(start);
        }
        conjunctive
    }

    /// Appends to `out` every residual (scan-list) filter whose base
    /// bucket covers `dn` — an updated entry's DN, or a query's base (a
    /// filter that contains the query is based at or above it): the
    /// bucket of `dn`'s root-most RDN plus the filters based at the empty
    /// DN.
    pub fn residual_for_dn(&self, dn: &Dn, out: &mut Vec<u32>) {
        if self.residual_buckets > 0 {
            if let Some(r) = dn.rdns().last() {
                let bucket = hash(&self.on(r.attr()), RESIDUAL, r.value().normalized().as_bytes());
                out.extend_from_slice(self.ids(bucket));
            }
        }
        out.extend_from_slice(self.residual_root.as_slice());
    }

    /// Live structure counts.
    pub fn stats(&self) -> RoutingStats {
        RoutingStats {
            sessions: self.filters,
            indexed: self.filters - self.residual,
            residual: self.residual,
            keys: self.postings.len(),
        }
    }

    /// Panics unless the index lists exactly `registrations`: each id
    /// once, under each of its keys and nowhere else, no posting empty,
    /// and the keyed attributes' counts those of the keys. Test-and-debug
    /// helper for the stale-id invariant.
    pub fn debug_validate<'a>(&self, registrations: impl IntoIterator<Item = &'a Registration>) {
        let mut ids = std::collections::BTreeSet::new();
        let mut want: HashMap<u64, Posting> = HashMap::new();
        let mut root = Posting::default();
        let mut keyed: Vec<Keyed> = Vec::new();
        let (mut residual, mut buckets) = (0, 0);
        for reg in registrations {
            assert!(ids.insert(reg.id), "id {} registered twice", reg.id);
            match &reg.place {
                Place::Residual(Some(bucket)) => {
                    residual += 1;
                    buckets += 1;
                    want.entry(*bucket).or_default().insert(reg.id);
                }
                Place::Residual(None) => {
                    residual += 1;
                    root.insert(reg.id);
                }
                Place::One(_) | Place::Many(_) => {
                    for key in reg.keys() {
                        want.entry(key.hash).or_default().insert(reg.id);
                        let at = match keyed.binary_search_by(|k| k.attr.cmp(&key.attr)) {
                            Ok(at) => at,
                            Err(at) => {
                                keyed.insert(at, Keyed::new(key.attr.clone()));
                                at
                            }
                        };
                        keyed[at].count(key.kind, true);
                    }
                }
            }
        }
        assert_eq!(
            (ids.len(), residual, buckets),
            (self.filters, self.residual, self.residual_buckets),
            "filter counts drifted"
        );
        assert_eq!(root.as_slice(), self.residual_root.as_slice(), "the root residual list");
        for (hash, posting) in &self.postings {
            assert!(!posting.is_empty(), "key {hash:#x}: empty posting retained");
            let expected = want.get(hash).map_or(&[][..], Posting::as_slice);
            assert_eq!(posting.as_slice(), expected, "key {hash:#x}: stale or missing ids");
        }
        assert_eq!(want.len(), self.postings.len(), "a registered key has no posting");
        assert_eq!(keyed, self.keyed, "keyed attribute counts drifted");
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fbdr_ldap::{Entry, Filter, Scope};

    fn req(base: &str, filter: &str) -> SearchRequest {
        SearchRequest::new(base.parse().unwrap(), Scope::Subtree, Filter::parse(filter).unwrap())
    }

    fn candidates(ix: &RoutingIndex, e: &Entry) -> Vec<u32> {
        let mut out = Vec::new();
        ix.candidates_for_entry(e, &mut out);
        ix.residual_for_dn(e.dn(), &mut out);
        out.sort_unstable();
        out.dedup();
        out
    }

    /// Registers `(base, filter)` pairs under their positions.
    fn register_all(ix: &mut RoutingIndex, filters: &[(&str, &str)]) -> Vec<Registration> {
        filters.iter().enumerate().map(|(id, (b, f))| ix.register(id as u32, &req(b, f))).collect()
    }

    #[test]
    fn routes_by_equality_prefix_presence_and_residual() {
        let mut ix = RoutingIndex::new();
        let regs = register_all(
            &mut ix,
            &[
                ("o=xyz", "(dept=7)"),
                ("o=xyz", "(sn=smi*)"),
                ("o=xyz", "(mail=*)"),
                ("o=xyz", "(!(dept=7))"), // residual
                ("o=abc", "(!(dept=7))"), // residual, other root
            ],
        );
        ix.debug_validate(&regs);
        assert_eq!(ix.stats().sessions, 5);
        assert_eq!(ix.stats().residual, 2);

        let e = Entry::new("cn=a,o=xyz".parse().unwrap())
            .with("dept", "7")
            .with("sn", "Smith");
        // dept=7 matches 0; sn=Smith hits prefix smi*; residual bucket o=xyz → 3.
        assert_eq!(candidates(&ix, &e), vec![0, 1, 3]);

        let e2 = Entry::new("cn=b,o=xyz".parse().unwrap()).with("mail", "b@x");
        assert_eq!(candidates(&ix, &e2), vec![2, 3]);

        let e3 = Entry::new("cn=c,o=abc".parse().unwrap()).with("dept", "9");
        assert_eq!(candidates(&ix, &e3), vec![4]);
    }

    #[test]
    fn remove_leaves_no_stale_ids() {
        let mut ix = RoutingIndex::new();
        let mut regs = register_all(
            &mut ix,
            &[
                ("o=xyz", "(&(objectclass=person)(dept=7))"),
                ("o=xyz", "(|(dept=7)(dept=8))"),
                ("o=xyz", "(serialnumber>=100)"), // residual
            ],
        );
        ix.debug_validate(&regs);

        ix.remove(regs.remove(1));
        ix.debug_validate(&regs);
        let e = Entry::new("cn=a,o=xyz".parse().unwrap()).with("dept", "8");
        assert_eq!(candidates(&ix, &e), vec![2]); // 1 gone, 0 keyed off dept=7 only

        for reg in regs {
            ix.remove(reg);
        }
        ix.debug_validate(&[]);
        assert!(ix.is_empty());
        assert_eq!(ix.stats(), RoutingStats::default());
        assert!(ix.keyed.is_empty());
    }

    #[test]
    fn reregister_replaces_old_keys() {
        let mut ix = RoutingIndex::new();
        let first = ix.register(7, &req("o=xyz", "(dept=7)"));
        ix.remove(first);
        let again = ix.register(7, &req("o=xyz", "(dept=9)"));
        ix.debug_validate([&again]);
        let e7 = Entry::new("cn=a,o=xyz".parse().unwrap()).with("dept", "7");
        let e9 = Entry::new("cn=a,o=xyz".parse().unwrap()).with("dept", "9");
        assert!(candidates(&ix, &e7).is_empty());
        assert_eq!(candidates(&ix, &e9), vec![7]);
        assert_eq!(ix.stats().keys, 1);
    }

    fn query_candidates(ix: &RoutingIndex, base: &str, filter: &str) -> Option<Vec<u32>> {
        let mut out = vec![u32::MAX]; // earlier content must survive
        let indexed = ix.candidates_for_query(&Filter::parse(filter).unwrap(), &mut out);
        assert_eq!(out[0], u32::MAX);
        if !indexed {
            assert_eq!(out.len(), 1, "an unindexable query appends nothing");
            return None;
        }
        out.remove(0);
        ix.residual_for_dn(&base.parse().unwrap(), &mut out);
        out.sort_unstable();
        out.dedup();
        Some(out)
    }

    #[test]
    fn query_lookup_finds_the_filters_that_can_contain_it() {
        let mut ix = RoutingIndex::new();
        let regs = register_all(
            &mut ix,
            &[
                ("o=xyz", "(sn=smi*)"),
                ("o=xyz", "(sn=smith)"),
                ("o=xyz", "(sn=*)"),
                ("o=xyz", "(sn=s*)"),
                ("o=xyz", "(age>=30)"), // residual under o=xyz
                ("o=abc", "(age>=30)"), // residual elsewhere
                ("o=xyz", "(&(objectclass=person)(dept=7))"),
            ],
        );
        ix.debug_validate(&regs);

        // Equality: its value, the prefixes it extends, presence, residual.
        assert_eq!(query_candidates(&ix, "o=xyz", "(sn=Smith)"), Some(vec![0, 1, 2, 3, 4]));
        // A range or a substring looks its one witness value up the same way.
        assert_eq!(query_candidates(&ix, "o=xyz", "(sn>=smithers)"), Some(vec![0, 2, 3, 4]));
        assert_eq!(query_candidates(&ix, "c=us,o=xyz", "(sn=sm*it*h)"), Some(vec![0, 1, 2, 3, 4]));
        assert_eq!(query_candidates(&ix, "o=xyz", "(sn=*son)"), Some(vec![2, 3, 4]));
        // Presence reaches presence postings only.
        assert_eq!(query_candidates(&ix, "o=xyz", "(sn=*)"), Some(vec![2, 4]));
        // Conjunctions (nested too) union their predicates' candidates.
        // (6 is keyed on objectclass: a query silent on it cannot be inside.)
        assert_eq!(
            query_candidates(&ix, "o=xyz", "(&(dept=7)(&(sn=jones)(mail=*)))"),
            Some(vec![2, 4])
        );
        assert_eq!(
            query_candidates(&ix, "o=xyz", "(&(dept=7)(&(objectClass=Person)(mail=*)))"),
            Some(vec![4, 6])
        );
        // An attribute nobody mentions, under a base with no residual filter.
        assert_eq!(query_candidates(&ix, "o=other", "(mail=a@b)"), Some(vec![]));
        assert_eq!(query_candidates(&ix, "", "(mail=a@b)"), Some(vec![]));
        // No single witness: unindexable.
        assert_eq!(query_candidates(&ix, "o=xyz", "(|(sn=a)(sn=b))"), None);
        assert_eq!(query_candidates(&ix, "o=xyz", "(&(sn=a)(!(sn=b)))"), None);
    }

    #[test]
    fn prefixes_are_probed_per_distinct_length_on_char_boundaries() {
        let mut ix = RoutingIndex::new();
        let filters = ["(cn=é*)", "(cn=éa*)", "(cn=éb*)", "(cn=x*)"].map(|f| ("o=xyz", f));
        let mut regs = register_all(&mut ix, &filters);
        ix.debug_validate(&regs);
        assert_eq!(ix.stats().keys, 4);
        assert_eq!(ix.keyed[0].prefix_lens, vec![(1, 1), (2, 1), (3, 2)]);
        // "é" is two bytes: the length-1 probe of "éa…" falls inside it and
        // is not made, so the value costs two probes, not three.
        let e = Entry::new("cn=a,o=xyz".parse().unwrap()).with("cn", "Éa1");
        assert_eq!(ix.candidates_for_entry(&e, &mut Vec::new()), 2);
        assert_eq!(candidates(&ix, &e), vec![0, 1]);
        assert_eq!(query_candidates(&ix, "o=xyz", "(cn=éb)"), Some(vec![0, 2]));
        ix.remove(regs.remove(2));
        ix.remove(regs.remove(1));
        ix.debug_validate(&regs);
        assert_eq!(candidates(&ix, &e), vec![0]);
        assert_eq!(query_candidates(&ix, "o=xyz", "(cn=x)"), Some(vec![3]));
    }

    #[test]
    fn a_prepared_registration_lands_on_the_same_keys() {
        let mut ix = RoutingIndex::new();
        let r = req("o=xyz", "(dept=9)");
        let four = ix.register(4, &r);
        let (t, v) = Template::of_borrowed(r.filter());
        let five = ix.register_prepared(5, &t, &v, r.base());
        ix.debug_validate([&four, &five]);
        assert_eq!(ix.stats().keys, 1);
        assert_eq!(query_candidates(&ix, "o=xyz", "(dept=9)"), Some(vec![4, 5]));
    }

    /// A residual bucket and the keys of its attribute share the posting
    /// map under different kinds: a bucket under `o=xyz` and an equality
    /// key on `o` come and go independently.
    #[test]
    fn a_residual_bucket_and_keys_share_an_attribute() {
        let mut ix = RoutingIndex::new();
        let keyed = ix.register(0, &req("o=xyz", "(o=xyz)"));
        let residual = ix.register(1, &req("o=xyz", "(!(cn=a))")); // residual under o=xyz
        ix.debug_validate([&keyed, &residual]);
        let e = Entry::new("o=xyz".parse().unwrap()).with("o", "xyz");
        assert_eq!(candidates(&ix, &e), vec![0, 1]);
        ix.remove(keyed);
        ix.debug_validate([&residual]);
        assert_eq!(candidates(&ix, &e), vec![1]);
        let keyed = ix.register(0, &req("o=xyz", "(o=xyz)"));
        ix.remove(residual);
        ix.debug_validate([&keyed]);
        assert_eq!(candidates(&ix, &e), vec![0]);
        assert_eq!(query_candidates(&ix, "o=xyz", "(o=xyz)"), Some(vec![0]));
        ix.remove(keyed);
        assert!(ix.postings.is_empty() && ix.keyed.is_empty());
    }

    #[test]
    fn root_dse_residual_session_scans_every_update() {
        let mut ix = RoutingIndex::new();
        let reg = ix.register(0, &req("", "(!(mail=*))"));
        ix.debug_validate([&reg]);
        let e = Entry::new("cn=a,o=xyz".parse().unwrap()).with("dept", "1");
        assert_eq!(candidates(&ix, &e), vec![0]);
        ix.remove(reg);
        ix.debug_validate(&[]);
        assert!(ix.is_empty());
    }

    /// An entry costs a probe per value of a keyed attribute and nothing
    /// for the rest, whichever of the two lists is longer; a modified
    /// entry's lookup over the named attributes costs the named keyed
    /// attributes' values alone.
    #[test]
    fn a_lookup_probes_only_keyed_attributes() {
        let person = Entry::new("cn=a,o=xyz".parse().unwrap())
            .with("objectclass", "person")
            .with("cn", "a")
            .with("mail", "a@x")
            .with("sn", "Smith")
            .with("dept", "7")
            .with("dept", "8");
        let mut ix = RoutingIndex::new();
        let mut regs = vec![ix.register(0, &req("o=xyz", "(dept=7)"))];
        let mut out = Vec::new();
        // One keyed attribute, shorter than the entry: its two values.
        assert_eq!(ix.candidates_for_entry(&person, &mut out), 2);
        assert_eq!(out, vec![0]);
        // More keyed attributes than the entry has, on both sides of its
        // names.
        for (i, a) in ["a", "b", "c", "d", "e", "f", "z"].iter().enumerate() {
            regs.push(ix.register(1 + i as u32, &req("o=xyz", &format!("({a}=1)"))));
        }
        regs.push(ix.register(8, &req("o=xyz", "(mail=*)")));
        ix.debug_validate(&regs);
        assert!(ix.keyed.len() > person.attrs().len());
        out.clear();
        // dept's two values and mail's presence.
        assert_eq!(ix.candidates_for_entry(&person, &mut out), 3);
        assert_eq!(out, vec![0, 8]);
        // The new state of a modify: the named attributes only.
        let named = |names: &[&str]| names.iter().map(|n| AttrName::from(*n)).collect::<Vec<_>>();
        out.clear();
        assert_eq!(ix.candidates_for_attrs(&person, &named(&["sn", "cn"]), &mut out), 0);
        assert!(out.is_empty());
        assert_eq!(ix.candidates_for_attrs(&person, &named(&["dept"]), &mut out), 2);
        assert_eq!(ix.candidates_for_attrs(&person, &named(&["a"]), &mut out), 0, "absent");
        assert_eq!(out, vec![0]);
    }
}
