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
//! values key into posting maps of ids:
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
//! keys, which is exactly what routes the departure.
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
//! # Keys
//!
//! The index speaks the stores' vocabulary (DESIGN §9): an attribute is
//! keyed by its [`AttrName`] handle, a value or prefix by its normalized
//! text as a [`TextKey`], and the filters under a key are a [`Posting`],
//! edited by `Posting::insert` and `Posting::remove` and dropped with its
//! last id. Every posting structure, the residual buckets included, hangs
//! off one per-attribute map, so a lookup costs one hash probe per entry
//! attribute (or query predicate) plus one per value and per distinct
//! prefix length, borrows the probed text as bytes, and allocates nothing
//! but the caller's output vector (a query's substring pattern of several
//! components builds its concatenated witness text). Registering a filter
//! of a known template on a warm index allocates once, for the list of
//! keys it is remembered under, and removing it allocates nothing: one
//! allocation for an equality, a prefix or a two-alternative conjunction
//! and none for a residual filter, by the count in `tests/publish_cost.rs`
//! (a value longer than a `TextKey` holds inline adds its text).

use fbdr_dit::index::TextKey;
use fbdr_dit::posting::Posting;
use fbdr_ldap::{AttrName, AttrValue, Dn, Filter, SearchRequest, SlotKey, Template};
use std::borrow::Borrow;
use std::collections::{BTreeMap, HashMap};

/// A concrete posting key a filter is registered under.
#[derive(Debug, Clone)]
enum RouteKey {
    /// Attribute asserted equal to a normalized value.
    Eq(AttrName, TextKey),
    /// Attribute asserted to start with a normalized prefix.
    Prefix(AttrName, TextKey),
    /// Attribute asserted present.
    Present(AttrName),
}

impl RouteKey {
    /// Instantiates one key of a plan alternative against the filter's
    /// slot values.
    fn of(key: &SlotKey, values: &[impl Borrow<AttrValue>]) -> Self {
        let text = |slot: &usize| TextKey::new(values[*slot].borrow().normalized());
        match key {
            SlotKey::Eq { attr, slot } => RouteKey::Eq(attr.clone(), text(slot)),
            SlotKey::Prefix { attr, slot } => RouteKey::Prefix(attr.clone(), text(slot)),
            SlotKey::Present { attr } => RouteKey::Present(attr.clone()),
        }
    }

    fn attr(&self) -> &AttrName {
        match self {
            RouteKey::Eq(a, _) | RouteKey::Prefix(a, _) | RouteKey::Present(a) => a,
        }
    }
}

/// Where one filter is registered, remembered for exact removal.
#[derive(Debug, Clone)]
enum Place {
    /// Indexed under these posting keys.
    Keys(Vec<RouteKey>),
    /// On the residual scan-list under this base bucket, the root RDN's
    /// attribute and normalized value (`None` = rooted at the empty DN,
    /// scanned for every update).
    Residual(Option<(AttrName, TextKey)>),
}

/// Counts of live index structures, for tests and observability.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct RoutingStats {
    /// Sessions currently registered.
    pub sessions: usize,
    /// Sessions reachable through posting keys.
    pub indexed: usize,
    /// Sessions on the residual scan-list.
    pub residual: usize,
    /// Distinct equality `(attr, value)` posting keys.
    pub eq_keys: usize,
    /// Distinct prefix `(attr, initial)` posting keys.
    pub prefix_keys: usize,
    /// Distinct presence posting keys.
    pub present_keys: usize,
}

/// Every posting list attached to one attribute. Grouping the key kinds
/// under a single map keeps the hot path at one probe per entry
/// attribute.
#[derive(Debug, Clone, Default)]
struct AttrPostings {
    /// Normalized value → filters asserting equality with it.
    eq: HashMap<TextKey, Posting>,
    /// Normalized initial text → filters asserting values start with it.
    prefix: HashMap<TextKey, Posting>,
    /// Byte length → number of `prefix` keys of that length: a value is
    /// probed once per distinct length instead of once per key.
    prefix_lens: BTreeMap<usize, usize>,
    /// Filters asserting presence of the attribute.
    present: Posting,
    /// Normalized value → residual filters based under a root RDN of
    /// this attribute and value.
    residual: HashMap<TextKey, Posting>,
}

impl AttrPostings {
    fn is_empty(&self) -> bool {
        self.eq.is_empty()
            && self.prefix.is_empty()
            && self.present.is_empty()
            && self.residual.is_empty()
    }

    /// Appends the filters whose equality or prefix key matches one
    /// normalized value of the attribute.
    fn probe(&self, norm: &str, out: &mut Vec<u32>) {
        out.extend_from_slice(ids(&self.eq, norm.as_bytes()));
        for &len in self.prefix_lens.keys() {
            if len > norm.len() {
                break;
            }
            // Cut inside a character, the head is no UTF-8 and no key.
            out.extend_from_slice(ids(&self.prefix, &norm.as_bytes()[..len]));
        }
    }

    /// Lists (`add`) or unlists `id` under one key of this attribute.
    fn edit(&mut self, key: &RouteKey, id: u32, add: bool) {
        match key {
            RouteKey::Eq(_, v) => {
                edit(&mut self.eq, v, id, add);
            }
            RouteKey::Prefix(_, p) => {
                if edit(&mut self.prefix, p, id, add) {
                    let n = self.prefix_lens.entry(p.as_bytes().len()).or_insert(0);
                    *n = if add { *n + 1 } else { *n - 1 };
                    if *n == 0 {
                        self.prefix_lens.remove(&p.as_bytes().len());
                    }
                }
            }
            RouteKey::Present(_) => {
                if add {
                    self.present.insert(id);
                } else {
                    self.present.remove(id);
                }
            }
        }
    }
}

/// The ids under `key`, none when it is absent.
fn ids<'a>(map: &'a HashMap<TextKey, Posting>, key: &[u8]) -> &'a [u32] {
    map.get(key).map_or(&[], Posting::as_slice)
}

/// Lists (`add`) or unlists `id` under `key`: the key is listed with its
/// first id and dropped with its last. Returns true when the key came or
/// went.
fn edit(map: &mut HashMap<TextKey, Posting>, key: &TextKey, id: u32, add: bool) -> bool {
    match map.get_mut(key.as_bytes()) {
        Some(ids) if add => {
            ids.insert(id);
            false
        }
        Some(ids) => ids.remove(id) && ids.is_empty() && map.remove(key.as_bytes()).is_some(),
        None if add => {
            let mut ids = Posting::default();
            ids.insert(id);
            map.insert(key.clone(), ids);
            true
        }
        None => false,
    }
}

/// An index over a set of registered filters, answering which of them can
/// match an entry and which can contain a query (see the module docs).
///
/// Maintained across the filters' lifecycle (`register` on install,
/// `remove` on abandon/expiry/eviction); never serialized — the master
/// rebuilds it from the surviving sessions after deserialization.
#[derive(Debug, Clone, Default)]
pub struct RoutingIndex {
    /// Attribute → its posting lists, residual buckets included.
    by_attr: HashMap<AttrName, AttrPostings>,
    /// Residual sessions based at the empty DN (scanned for every DN).
    residual_root: Posting,
    registered: HashMap<u32, Place>,
}

impl RoutingIndex {
    /// An empty index.
    pub fn new() -> Self {
        RoutingIndex::default()
    }

    /// Number of sessions currently registered.
    pub fn len(&self) -> usize {
        self.registered.len()
    }

    /// True when no session is registered.
    pub fn is_empty(&self) -> bool {
        self.registered.is_empty()
    }

    /// True when `id` is registered.
    pub fn contains(&self, id: u32) -> bool {
        self.registered.contains_key(&id)
    }

    /// How many sessions already sit on the posting list one plan key
    /// names for these slot values — its share of the expected extra
    /// fan-out of picking the key's alternative. Lower is better.
    fn load(&self, key: &SlotKey, values: &[impl Borrow<AttrValue>]) -> usize {
        let text = |slot: &usize| values[*slot].borrow().normalized().as_bytes();
        let ids = match key {
            SlotKey::Eq { attr, slot } => self.by_attr.get(attr).map(|b| ids(&b.eq, text(slot))),
            SlotKey::Prefix { attr, slot } => {
                self.by_attr.get(attr).map(|b| ids(&b.prefix, text(slot)))
            }
            SlotKey::Present { attr } => self.by_attr.get(attr).map(|b| b.present.as_slice()),
        };
        ids.map_or(0, <[u32]>::len)
    }

    /// Registers a session under the routing keys of its request filter
    /// ([`RoutingIndex::register_prepared`] on the template extracted
    /// here).
    pub fn register(&mut self, id: u32, request: &SearchRequest) {
        let (template, values) = Template::of(request.filter());
        self.register_prepared(id, &template, &values, request.base());
    }

    /// Registers a filter given as its already-extracted template and
    /// slot values (what a `PreparedQuery` holds, owned or borrowed) plus
    /// its search base: under the routing keys of one of the template's
    /// plans, or on the residual scan-list when the template is not
    /// indexable.
    /// When the template offers several sound key sets (a conjunction of
    /// indexable children), the alternative whose posting lists currently
    /// hold the fewest sessions wins — near-constant assertions like
    /// `objectclass=person` stay unpicked once they start crowding, so a
    /// fleet of `(&(objectclass=person)(dept=N))` sessions keys on the
    /// selective `dept` slot instead of degenerating to a broadcast list.
    /// Re-registering an id first removes its old registration.
    pub fn register_prepared(
        &mut self,
        id: u32,
        template: &Template,
        values: &[impl Borrow<AttrValue>],
        base: &Dn,
    ) {
        self.remove(id);
        let place = match template.routing_plans() {
            Some(alts) => {
                let best = alts
                    .iter()
                    .min_by_key(|alt| {
                        (alt.iter().map(|k| self.load(k, values)).sum::<usize>(), alt.len())
                    })
                    .expect("routing_plans returns non-empty alternatives");
                let keys: Vec<RouteKey> = best.iter().map(|k| RouteKey::of(k, values)).collect();
                for key in &keys {
                    self.by_attr.entry(key.attr().clone()).or_default().edit(key, id, true);
                }
                Place::Keys(keys)
            }
            None => {
                let bucket = base
                    .rdns()
                    .last()
                    .map(|r| (r.attr().clone(), TextKey::new(r.value().normalized())));
                match &bucket {
                    Some((a, v)) => {
                        edit(&mut self.by_attr.entry(a.clone()).or_default().residual, v, id, true);
                    }
                    None => {
                        self.residual_root.insert(id);
                    }
                }
                Place::Residual(bucket)
            }
        };
        self.registered.insert(id, place);
    }

    /// Removes a session from every posting list it appears in. A no-op
    /// for unknown ids. Emptied posting lists are dropped, so the key
    /// space tracks the live session population.
    pub fn remove(&mut self, id: u32) {
        let Some(place) = self.registered.remove(&id) else {
            return;
        };
        match &place {
            Place::Keys(keys) => {
                for key in keys {
                    self.unlist(key.attr(), |b| b.edit(key, id, false));
                }
            }
            Place::Residual(Some((a, v))) => self.unlist(a, |b| {
                edit(&mut b.residual, v, id, false);
            }),
            Place::Residual(None) => {
                self.residual_root.remove(id);
            }
        }
    }

    /// Applies `edit` to the postings of `attr`, dropping them when it
    /// leaves them empty.
    fn unlist(&mut self, attr: &AttrName, edit: impl FnOnce(&mut AttrPostings)) {
        if let Some(b) = self.by_attr.get_mut(attr) {
            edit(b);
            if b.is_empty() {
                self.by_attr.remove(attr);
            }
        }
    }

    /// Appends to `out` every indexed session one of whose keys matches
    /// the entry's attribute state. Duplicates may be appended (a session
    /// can match on several keys) — sort + dedup once after collecting
    /// old and new state. One hash probe per entry attribute, zero
    /// allocations.
    pub fn candidates_for_entry(&self, entry: &fbdr_ldap::Entry, out: &mut Vec<u32>) {
        if self.by_attr.is_empty() {
            return;
        }
        for (attr, values) in entry.attrs() {
            let Some(b) = self.by_attr.get(attr) else {
                continue;
            };
            out.extend_from_slice(b.present.as_slice());
            if b.eq.is_empty() && b.prefix.is_empty() {
                continue;
            }
            for v in values {
                b.probe(v.normalized(), out);
            }
        }
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
            let Some(b) = self.by_attr.get(p.attr()) else {
                return;
            };
            out.extend_from_slice(b.present.as_slice());
            match p.comparison().witness() {
                Some(value) => b.probe(&value, out),
                // Presence: a value that extends no prefix but the empty one.
                None => out.extend_from_slice(ids(&b.prefix, b"")),
            }
        });
        if !conjunctive {
            out.truncate(start);
        }
        conjunctive
    }

    /// Appends to `out` every residual (scan-list) session whose base
    /// bucket covers `dn` — an updated entry's DN, or a query's base (a
    /// filter that contains the query is based at or above it): the
    /// bucket of `dn`'s root-most RDN plus the sessions based at the
    /// empty DN.
    pub fn residual_for_dn(&self, dn: &Dn, out: &mut Vec<u32>) {
        if let Some(r) = dn.rdns().last() {
            if let Some(b) = self.by_attr.get(r.attr()) {
                out.extend_from_slice(ids(&b.residual, r.value().normalized().as_bytes()));
            }
        }
        out.extend_from_slice(self.residual_root.as_slice());
    }

    /// Appends every registered session id to `out` (the naive
    /// reference path routes to everyone).
    pub fn all_sessions(&self, out: &mut Vec<u32>) {
        out.extend(self.registered.keys().copied());
    }

    /// Live structure counts.
    pub fn stats(&self) -> RoutingStats {
        let residual =
            self.registered.values().filter(|place| matches!(place, Place::Residual(_))).count();
        RoutingStats {
            sessions: self.registered.len(),
            indexed: self.registered.len() - residual,
            residual,
            eq_keys: self.by_attr.values().map(|b| b.eq.len()).sum(),
            prefix_keys: self.by_attr.values().map(|b| b.prefix.len()).sum(),
            present_keys: self.by_attr.values().filter(|b| !b.present.is_empty()).count(),
        }
    }

    /// Panics if any posting list holds an id that is not registered or
    /// none, a registered id is missing from a posting list it should be
    /// on, or the prefix-length counts disagree with the prefix keys.
    /// Test-and-debug helper for the stale-id invariant.
    pub fn debug_validate(&self) {
        let check = |ids: &Posting, what: &str| {
            for id in ids.as_slice() {
                assert!(self.registered.contains_key(id), "{what}: stale session id {id}");
            }
        };
        for (a, b) in &self.by_attr {
            assert!(!b.is_empty(), "attr {a}: empty posting group retained");
            for (kind, map) in [("eq", &b.eq), ("prefix", &b.prefix), ("residual", &b.residual)] {
                for (k, ids) in map {
                    let what = format!("{kind} {a}={k:?}");
                    assert!(!ids.is_empty(), "{what}: empty posting retained");
                    check(ids, &what);
                }
            }
            check(&b.present, &format!("present {a}"));
            let mut lens: BTreeMap<usize, usize> = BTreeMap::new();
            for p in b.prefix.keys() {
                *lens.entry(p.as_bytes().len()).or_insert(0) += 1;
            }
            assert_eq!(lens, b.prefix_lens, "attr {a}: prefix length counts drifted");
        }
        check(&self.residual_root, "residual root");
        for (id, place) in &self.registered {
            let on =
                |ids: Option<&Posting>| ids.is_some_and(|l| l.as_slice().binary_search(id).is_ok());
            let group = |a: &AttrName| self.by_attr.get(a);
            match place {
                Place::Keys(keys) => {
                    for key in keys {
                        let b = group(key.attr());
                        let present = match key {
                            RouteKey::Eq(_, v) => on(b.and_then(|b| b.eq.get(v))),
                            RouteKey::Prefix(_, p) => on(b.and_then(|b| b.prefix.get(p))),
                            RouteKey::Present(_) => on(b.map(|b| &b.present)),
                        };
                        assert!(present, "session {id}: missing from posting for {key:?}");
                    }
                }
                Place::Residual(Some((a, v))) => {
                    assert!(
                        on(group(a).and_then(|b| b.residual.get(v))),
                        "session {id}: missing from residual bucket {a}={v:?}"
                    );
                }
                Place::Residual(None) => {
                    assert!(
                        on(Some(&self.residual_root)),
                        "session {id}: missing from the root residual list"
                    );
                }
            }
        }
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

    #[test]
    fn routes_by_equality_prefix_presence_and_residual() {
        let mut ix = RoutingIndex::new();
        ix.register(0, &req("o=xyz", "(dept=7)"));
        ix.register(1, &req("o=xyz", "(sn=smi*)"));
        ix.register(2, &req("o=xyz", "(mail=*)"));
        ix.register(3, &req("o=xyz", "(!(dept=7))")); // residual
        ix.register(4, &req("o=abc", "(!(dept=7))")); // residual, other root
        ix.debug_validate();
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
        ix.register(0, &req("o=xyz", "(&(objectclass=person)(dept=7))"));
        ix.register(1, &req("o=xyz", "(|(dept=7)(dept=8))"));
        ix.register(2, &req("o=xyz", "(serialnumber>=100)")); // residual
        ix.debug_validate();

        ix.remove(1);
        ix.debug_validate();
        let e = Entry::new("cn=a,o=xyz".parse().unwrap()).with("dept", "8");
        assert_eq!(candidates(&ix, &e), vec![2]); // 1 gone, 0 keyed off dept=7 only

        ix.remove(0);
        ix.remove(2);
        ix.remove(2); // idempotent
        ix.debug_validate();
        assert!(ix.is_empty());
        assert_eq!(ix.stats().eq_keys, 0);
        assert_eq!(ix.stats().prefix_keys + ix.stats().present_keys, 0);
    }

    #[test]
    fn reregister_replaces_old_keys() {
        let mut ix = RoutingIndex::new();
        ix.register(7, &req("o=xyz", "(dept=7)"));
        ix.register(7, &req("o=xyz", "(dept=9)"));
        ix.debug_validate();
        let e7 = Entry::new("cn=a,o=xyz".parse().unwrap()).with("dept", "7");
        let e9 = Entry::new("cn=a,o=xyz".parse().unwrap()).with("dept", "9");
        assert!(candidates(&ix, &e7).is_empty());
        assert_eq!(candidates(&ix, &e9), vec![7]);
        assert_eq!(ix.stats().eq_keys, 1);
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
        ix.register(0, &req("o=xyz", "(sn=smi*)"));
        ix.register(1, &req("o=xyz", "(sn=smith)"));
        ix.register(2, &req("o=xyz", "(sn=*)"));
        ix.register(3, &req("o=xyz", "(sn=s*)"));
        ix.register(4, &req("o=xyz", "(age>=30)")); // residual under o=xyz
        ix.register(5, &req("o=abc", "(age>=30)")); // residual elsewhere
        ix.register(6, &req("o=xyz", "(&(objectclass=person)(dept=7))"));
        ix.debug_validate();

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
        for (id, f) in ["(cn=é*)", "(cn=éa*)", "(cn=éb*)", "(cn=x*)"].iter().enumerate() {
            ix.register(id as u32, &req("o=xyz", f));
        }
        ix.debug_validate();
        assert_eq!(ix.stats().prefix_keys, 4);
        // "é" is two bytes: the length-1 probe of "éa…" falls inside it.
        let e = Entry::new("cn=a,o=xyz".parse().unwrap()).with("cn", "Éa1");
        assert_eq!(candidates(&ix, &e), vec![0, 1]);
        assert_eq!(query_candidates(&ix, "o=xyz", "(cn=éb)"), Some(vec![0, 2]));
        ix.remove(1);
        ix.remove(2);
        ix.debug_validate();
        assert_eq!(candidates(&ix, &e), vec![0]);
        assert_eq!(query_candidates(&ix, "o=xyz", "(cn=x)"), Some(vec![3]));
    }

    #[test]
    fn a_prepared_registration_lands_on_the_same_keys() {
        let mut ix = RoutingIndex::new();
        let r = req("o=xyz", "(dept=9)");
        ix.register(4, &r);
        let (t, v) = Template::of_borrowed(r.filter());
        ix.register_prepared(5, &t, &v, r.base());
        ix.debug_validate();
        assert_eq!(ix.stats().eq_keys, 1);
        assert_eq!(query_candidates(&ix, "o=xyz", "(dept=9)"), Some(vec![4, 5]));
    }

    /// Residual buckets hang off the same per-attribute map as the keys:
    /// a bucket under `o=xyz` and an equality key on `o` come and go
    /// independently.
    #[test]
    fn a_residual_bucket_and_keys_share_an_attribute() {
        let mut ix = RoutingIndex::new();
        ix.register(0, &req("o=xyz", "(o=xyz)"));
        ix.register(1, &req("o=xyz", "(!(cn=a))")); // residual under o=xyz
        ix.debug_validate();
        let e = Entry::new("o=xyz".parse().unwrap()).with("o", "xyz");
        assert_eq!(candidates(&ix, &e), vec![0, 1]);
        ix.remove(0);
        ix.debug_validate();
        assert_eq!(candidates(&ix, &e), vec![1]);
        ix.register(0, &req("o=xyz", "(o=xyz)"));
        ix.remove(1);
        ix.debug_validate();
        assert_eq!(candidates(&ix, &e), vec![0]);
        assert_eq!(query_candidates(&ix, "o=xyz", "(o=xyz)"), Some(vec![0]));
        ix.remove(0);
        assert!(ix.by_attr.is_empty());
    }

    #[test]
    fn root_dse_residual_session_scans_every_update() {
        let mut ix = RoutingIndex::new();
        ix.register(0, &req("", "(!(mail=*))"));
        ix.debug_validate();
        let e = Entry::new("cn=a,o=xyz".parse().unwrap()).with("dept", "1");
        assert_eq!(candidates(&ix, &e), vec![0]);
        ix.remove(0);
        ix.debug_validate();
        assert!(ix.is_empty());
    }
}
