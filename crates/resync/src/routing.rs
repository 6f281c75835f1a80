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
//! All posting structures hang off a single per-attribute map, so a
//! lookup costs one hash probe per entry attribute (or query predicate)
//! plus one per value and per distinct prefix length, and allocates
//! nothing but the caller's output vector (a query's substring pattern of
//! several components builds its concatenated witness text).

use fbdr_dit::posting::{insert_sorted, remove_sorted};
use fbdr_ldap::{AttrValue, Dn, Filter, SearchRequest, SlotKey, Template};
use std::borrow::Borrow;
use std::collections::{BTreeMap, HashMap};

/// A concrete posting key a filter is registered under.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
enum RouteKey {
    /// Attribute (lowercased) asserted equal to a normalized value.
    Eq(String, String),
    /// Attribute (lowercased) asserted to start with a normalized prefix.
    Prefix(String, String),
    /// Attribute (lowercased) asserted present.
    Present(String),
}

/// Where one filter is registered, remembered for exact removal.
#[derive(Debug, Clone)]
enum Place {
    /// Indexed under these posting keys.
    Keys(Vec<RouteKey>),
    /// On the residual scan-list under this base bucket (`None` = rooted
    /// at the empty DN, scanned for every update).
    Residual(Option<(String, String)>),
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

/// The root-most RDN of a DN as a lowercased attribute and normalized
/// value, or `None` for the empty DN. Buckets residual sessions by
/// naming context.
fn root_bucket(dn: &Dn) -> Option<(String, String)> {
    dn.rdns()
        .last()
        .map(|r| (r.attr().lower().to_owned(), r.value().normalized().to_owned()))
}

/// Every posting list attached to one attribute. Grouping the three key
/// kinds under a single map keeps the hot path at one probe per entry
/// attribute.
#[derive(Debug, Clone, Default)]
struct AttrPostings {
    /// Normalized value → filters asserting equality with it.
    eq: HashMap<String, Vec<u32>>,
    /// Normalized initial text → filters asserting values start with it.
    prefix: HashMap<String, Vec<u32>>,
    /// Byte length → number of `prefix` keys of that length: a value is
    /// probed once per distinct length instead of once per key.
    prefix_lens: BTreeMap<usize, usize>,
    /// Filters asserting presence of the attribute.
    present: Vec<u32>,
}

impl AttrPostings {
    fn is_empty(&self) -> bool {
        self.eq.is_empty() && self.prefix.is_empty() && self.present.is_empty()
    }

    /// Appends the filters whose equality or prefix key matches one
    /// normalized value of the attribute.
    fn probe(&self, norm: &str, out: &mut Vec<u32>) {
        if let Some(ids) = self.eq.get(norm) {
            out.extend_from_slice(ids);
        }
        for &len in self.prefix_lens.keys() {
            if len > norm.len() {
                break;
            }
            // `None` off a char boundary: no (valid UTF-8) key ends there.
            if let Some(ids) = norm.get(..len).and_then(|head| self.prefix.get(head)) {
                out.extend_from_slice(ids);
            }
        }
    }

    fn prefix_insert(&mut self, p: &str, id: u32) {
        if !self.prefix.contains_key(p) {
            *self.prefix_lens.entry(p.len()).or_insert(0) += 1;
        }
        insert_sorted(slot(&mut self.prefix, p), id);
    }

    fn prefix_remove(&mut self, p: &str, id: u32) {
        let Some(ids) = self.prefix.get_mut(p) else {
            return;
        };
        remove_sorted(ids, id);
        if ids.is_empty() {
            self.prefix.remove(p);
            if let Some(n) = self.prefix_lens.get_mut(&p.len()) {
                *n -= 1;
                if *n == 0 {
                    self.prefix_lens.remove(&p.len());
                }
            }
        }
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
    /// Lowercased attribute → its posting lists.
    by_attr: HashMap<String, AttrPostings>,
    /// Root RDN `(attr, value)` → residual sessions based under it.
    residual: HashMap<String, HashMap<String, Vec<u32>>>,
    /// Residual sessions based at the empty DN (scanned for every DN).
    residual_root: Vec<u32>,
    registered: HashMap<u32, Place>,
}

/// The value under `key`, inserted empty when absent; the key is copied
/// only then (registrations mostly land on attributes already present).
fn slot<'a, V: Default>(map: &'a mut HashMap<String, V>, key: &str) -> &'a mut V {
    if !map.contains_key(key) {
        map.insert(key.to_owned(), V::default());
    }
    map.get_mut(key).expect("present or just inserted")
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

    /// Instantiates one plan alternative against the query's slot values.
    fn concrete_keys(plan: &[SlotKey], values: &[impl Borrow<AttrValue>]) -> Vec<RouteKey> {
        let text = |slot: &usize| values[*slot].borrow().normalized().to_owned();
        plan.iter()
            .map(|k| match k {
                SlotKey::Eq { attr, slot } => RouteKey::Eq(attr.lower().to_owned(), text(slot)),
                SlotKey::Prefix { attr, slot } => {
                    RouteKey::Prefix(attr.lower().to_owned(), text(slot))
                }
                SlotKey::Present { attr } => RouteKey::Present(attr.lower().to_owned()),
            })
            .collect()
    }

    /// How many sessions already sit on this key set's posting lists —
    /// the expected extra fan-out of picking it. Lower is better.
    fn key_load(&self, keys: &[RouteKey]) -> usize {
        keys.iter()
            .map(|k| match k {
                RouteKey::Eq(a, v) => self
                    .by_attr
                    .get(a)
                    .and_then(|b| b.eq.get(v))
                    .map_or(0, Vec::len),
                RouteKey::Prefix(a, p) => self
                    .by_attr
                    .get(a)
                    .and_then(|b| b.prefix.get(p))
                    .map_or(0, Vec::len),
                RouteKey::Present(a) => {
                    self.by_attr.get(a).map_or(0, |b| b.present.len())
                }
            })
            .sum()
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
                let keys = alts
                    .iter()
                    .map(|alt| Self::concrete_keys(alt, values))
                    .min_by_key(|keys| (self.key_load(keys), keys.len()))
                    .expect("routing_plans returns non-empty alternatives");
                for key in &keys {
                    match key {
                        RouteKey::Eq(a, v) => {
                            insert_sorted(slot(&mut slot(&mut self.by_attr, a).eq, v), id);
                        }
                        RouteKey::Prefix(a, p) => slot(&mut self.by_attr, a).prefix_insert(p, id),
                        RouteKey::Present(a) => {
                            insert_sorted(&mut slot(&mut self.by_attr, a).present, id);
                        }
                    }
                }
                Place::Keys(keys)
            }
            None => {
                let bucket = root_bucket(base);
                match &bucket {
                    Some((a, v)) => insert_sorted(slot(slot(&mut self.residual, a), v), id),
                    None => insert_sorted(&mut self.residual_root, id),
                };
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
        match place {
            Place::Keys(keys) => {
                for key in keys {
                    let attr = match &key {
                        RouteKey::Eq(a, _)
                        | RouteKey::Prefix(a, _)
                        | RouteKey::Present(a) => a,
                    };
                    let Some(b) = self.by_attr.get_mut(attr) else {
                        continue;
                    };
                    match &key {
                        RouteKey::Eq(_, v) => {
                            if let Some(ids) = b.eq.get_mut(v) {
                                remove_sorted(ids, id);
                                if ids.is_empty() {
                                    b.eq.remove(v);
                                }
                            }
                        }
                        RouteKey::Prefix(_, p) => b.prefix_remove(p, id),
                        RouteKey::Present(_) => {
                            remove_sorted(&mut b.present, id);
                        }
                    }
                    if b.is_empty() {
                        self.by_attr.remove(attr);
                    }
                }
            }
            Place::Residual(Some((a, v))) => {
                if let Some(per_attr) = self.residual.get_mut(&a) {
                    if let Some(ids) = per_attr.get_mut(&v) {
                        remove_sorted(ids, id);
                        if ids.is_empty() {
                            per_attr.remove(&v);
                        }
                    }
                    if per_attr.is_empty() {
                        self.residual.remove(&a);
                    }
                }
            }
            Place::Residual(None) => {
                remove_sorted(&mut self.residual_root, id);
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
            let Some(b) = self.by_attr.get(attr.lower()) else {
                continue;
            };
            out.extend_from_slice(&b.present);
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
            let Some(b) = self.by_attr.get(p.attr().lower()) else {
                return;
            };
            out.extend_from_slice(&b.present);
            match p.comparison().witness() {
                Some(value) => b.probe(&value, out),
                // Presence: a value that extends no prefix but the empty one.
                None => out.extend_from_slice(b.prefix.get("").map_or(&[], Vec::as_slice)),
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
            if let Some(ids) = self
                .residual
                .get(r.attr().lower())
                .and_then(|per| per.get(r.value().normalized()))
            {
                out.extend_from_slice(ids);
            }
        }
        out.extend_from_slice(&self.residual_root);
    }

    /// Appends every registered session id to `out` (the naive
    /// reference path routes to everyone).
    pub fn all_sessions(&self, out: &mut Vec<u32>) {
        out.extend(self.registered.keys().copied());
    }

    /// Live structure counts.
    pub fn stats(&self) -> RoutingStats {
        let residual = self
            .registered
            .values()
            .filter(|place| matches!(place, Place::Residual(_)))
            .count();
        RoutingStats {
            sessions: self.registered.len(),
            indexed: self.registered.len() - residual,
            residual,
            eq_keys: self.by_attr.values().map(|b| b.eq.len()).sum(),
            prefix_keys: self.by_attr.values().map(|b| b.prefix.len()).sum(),
            present_keys: self.by_attr.values().filter(|b| !b.present.is_empty()).count(),
        }
    }

    /// Panics if any posting list holds an id that is not registered, a
    /// registered id is missing from a posting list it should be on, or the
    /// prefix-length counts disagree with the prefix keys.
    /// Test-and-debug helper for the stale-id invariant.
    pub fn debug_validate(&self) {
        let check = |ids: &Vec<u32>, what: &str| {
            assert!(ids.windows(2).all(|w| w[0] < w[1]), "{what}: unsorted postings");
            for id in ids {
                assert!(
                    self.registered.contains_key(id),
                    "{what}: stale session id {id} in posting list"
                );
            }
        };
        for (a, b) in &self.by_attr {
            assert!(!b.is_empty(), "attr {a}: empty posting group retained");
            for (v, ids) in &b.eq {
                check(ids, &format!("eq {a}={v}"));
                assert!(!ids.is_empty(), "eq {a}={v}: empty posting retained");
            }
            let mut lens: BTreeMap<usize, usize> = BTreeMap::new();
            for (p, ids) in &b.prefix {
                check(ids, &format!("prefix {a}={p}*"));
                assert!(!ids.is_empty(), "prefix {a}={p}*: empty posting retained");
                *lens.entry(p.len()).or_insert(0) += 1;
            }
            assert_eq!(lens, b.prefix_lens, "attr {a}: prefix length counts drifted");
            check(&b.present, &format!("present {a}"));
        }
        for (a, per_attr) in &self.residual {
            assert!(!per_attr.is_empty(), "residual {a}: empty attr map retained");
            for (v, ids) in per_attr {
                check(ids, &format!("residual bucket {a}={v}"));
                assert!(!ids.is_empty(), "residual {a}={v}: empty bucket retained");
            }
        }
        check(&self.residual_root, "residual root");
        for (id, place) in &self.registered {
            let on = |ids: Option<&Vec<u32>>| ids.is_some_and(|l| l.binary_search(id).is_ok());
            match place {
                Place::Keys(keys) => {
                    for key in keys {
                        let present = match key {
                            RouteKey::Eq(a, v) => {
                                on(self.by_attr.get(a).and_then(|b| b.eq.get(v)))
                            }
                            RouteKey::Prefix(a, p) => {
                                on(self.by_attr.get(a).and_then(|b| b.prefix.get(p)))
                            }
                            RouteKey::Present(a) => {
                                on(self.by_attr.get(a).map(|b| &b.present))
                            }
                        };
                        assert!(present, "session {id}: missing from posting for {key:?}");
                    }
                }
                Place::Residual(Some((a, v))) => {
                    assert!(
                        on(self.residual.get(a).and_then(|per| per.get(v))),
                        "session {id}: missing from residual bucket {a}={v}"
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
