//! Shard map: partitioning the namespace across masters by naming
//! context.
//!
//! The DIT's root-first `TreeKey` ordering makes every subtree a
//! contiguous range, so a partition by naming context is just a list of
//! subtree suffixes, each owned by one shard. A [`ShardMap`] maps a DN to
//! its owning [`ShardId`] (deepest containing suffix wins, a default
//! shard catches everything else) and splits a search region across the
//! shards it overlaps — the routing core behind the sharded master in
//! `fbdr-resync`.

use fbdr_ldap::{AttrSelection, Dn, Filter, Rdn, Scope, SearchRequest};
use serde::de::Error as _;
use serde::{Deserialize, Deserializer, Serialize};
use std::borrow::Cow;
use std::collections::HashMap;
use std::fmt;

/// Identifies one master shard within a sharded deployment.
///
/// A plain index newtype: shard ids are dense (`0..shard_count`), so they
/// double as indices into per-shard state vectors.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize, Default,
)]
pub struct ShardId(u16);

impl ShardId {
    /// The first shard — the whole deployment, when unsharded.
    pub const ZERO: ShardId = ShardId(0);

    /// Creates a shard id.
    pub fn new(id: u16) -> Self {
        ShardId(id)
    }

    /// The shard id as an index into per-shard vectors.
    pub fn index(self) -> usize {
        usize::from(self.0)
    }
}

impl fmt::Display for ShardId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "shard{}", self.0)
    }
}

/// Maps DNs to owning shards via subtree suffixes.
///
/// Each entry assigns the subtree rooted at a suffix DN to a shard; the
/// deepest containing suffix wins, so shards can nest (a sub-suffix can
/// be carved out of an enclosing shard's territory). DNs outside every
/// suffix belong to the default shard. A suffix assigned twice belongs to
/// its last assignment.
///
/// Only the assignments, the default and the shard count are data; the
/// owner index [`ShardMap::shard_of`] reads is derived from them, and a
/// loaded map is checked to name no shard at or past its count.
#[derive(Debug, Clone, PartialEq, Eq, Serialize)]
pub struct ShardMap {
    /// `(suffix, shard)` assignments, in insertion order.
    entries: Vec<(Dn, ShardId)>,
    default: ShardId,
    shard_count: u16,
    #[serde(skip)]
    owners: Owners,
}

/// The owner of every assigned suffix, keyed by the suffix's RDNs
/// (leaf-first, as [`Dn::rdns`] lists them), and the distinct suffix
/// depths, deepest first: a DN's owner is the first hit among its own
/// suffixes of those depths — one probe per depth, not a test per suffix.
/// Beside it, each shard's [`Territory`], which a split and a fan-out
/// read once per shard instead of scanning every assignment.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
struct Owners {
    by_suffix: HashMap<Box<[Rdn]>, ShardId>,
    depths: Vec<usize>,
    /// Indexed by shard; `None`, or a shard past the end, has no suffix.
    territories: Vec<Option<Territory>>,
}

/// What a split and a fan-out read of the suffixes assigned to one shard
/// (every assignment to it, as [`ShardMap::entries`] lists them).
#[derive(Debug, Clone, PartialEq, Eq)]
struct Territory {
    /// The deepest DN at or above every suffix.
    common: Dn,
    /// Depth of the shallowest suffix.
    shallowest: usize,
    /// Depth of the deepest suffix: the shard's glue depth.
    deepest: usize,
}

impl Territory {
    fn of(suffix: &Dn) -> Territory {
        Territory { common: suffix.clone(), shallowest: suffix.depth(), deepest: suffix.depth() }
    }

    fn add(&mut self, suffix: &Dn) {
        self.common = common_ancestor([&self.common, suffix].into_iter()).expect("two DNs");
        self.shallowest = self.shallowest.min(suffix.depth());
        self.deepest = self.deepest.max(suffix.depth());
    }

    /// Whether every suffix lies strictly below `base`, so that a subtree
    /// there holds them all.
    fn lies_below(&self, base: &Dn) -> bool {
        base.depth() < self.shallowest && base.is_ancestor_or_self_of(&self.common)
    }
}

impl Owners {
    /// A later assignment of a suffix replaces an earlier one.
    fn assign(&mut self, suffix: &Dn, shard: ShardId) {
        self.by_suffix.insert(suffix.rdns().into(), shard);
        let depth = suffix.depth();
        if let Err(at) = self.depths.binary_search_by(|d| depth.cmp(d)) {
            self.depths.insert(at, depth);
        }
        if self.territories.len() <= shard.index() {
            self.territories.resize(shard.index() + 1, None);
        }
        match &mut self.territories[shard.index()] {
            Some(t) => t.add(suffix),
            none => *none = Some(Territory::of(suffix)),
        }
    }

    fn owner(&self, dn: &Dn) -> Option<ShardId> {
        let rdns = dn.rdns();
        self.depths
            .iter()
            .skip_while(|&&depth| depth > rdns.len())
            .find_map(|&depth| self.by_suffix.get(&rdns[rdns.len() - depth..]).copied())
    }

    fn territory(&self, shard: ShardId) -> Option<&Territory> {
        self.territories.get(shard.index())?.as_ref()
    }
}

impl<'de> Deserialize<'de> for ShardMap {
    /// Loads the assignments and derives the owner index from them.
    ///
    /// # Errors
    ///
    /// A default or assigned shard at or past `shard_count`: a sharded
    /// master would index past its shards on the first update or search.
    fn deserialize<D: Deserializer<'de>>(de: D) -> Result<Self, D::Error> {
        #[derive(Deserialize)]
        struct Wire {
            entries: Vec<(Dn, ShardId)>,
            default: ShardId,
            shard_count: u16,
        }
        let Wire { entries, default, shard_count } = Wire::deserialize(de)?;
        let beyond = |shard: ShardId| shard.0 >= shard_count;
        if beyond(default) {
            return Err(D::Error::custom(format!(
                "default {default} is not below shard_count {shard_count}"
            )));
        }
        if let Some((suffix, shard)) = entries.iter().find(|(_, shard)| beyond(*shard)) {
            return Err(D::Error::custom(format!(
                "suffix {suffix} on {shard} is not below shard_count {shard_count}"
            )));
        }
        let mut map = ShardMap { entries: Vec::new(), default, shard_count, owners: Owners::default() };
        for (suffix, shard) in entries {
            map.assign(suffix, shard);
        }
        Ok(map)
    }
}

impl ShardMap {
    /// The trivial map: one shard owning the whole namespace.
    pub fn single() -> Self {
        ShardMap::new(ShardId::ZERO)
    }

    /// An empty map with the given default shard.
    pub fn new(default: ShardId) -> Self {
        ShardMap { entries: Vec::new(), default, shard_count: default.0 + 1, owners: Owners::default() }
    }

    /// Assigns the subtree rooted at `suffix` to `shard`.
    pub fn assign(&mut self, suffix: Dn, shard: ShardId) {
        self.shard_count = self.shard_count.max(shard.0 + 1);
        self.owners.assign(&suffix, shard);
        self.entries.push((suffix, shard));
    }

    /// Builder-style [`ShardMap::assign`].
    pub fn with_subtree(mut self, suffix: Dn, shard: ShardId) -> Self {
        self.assign(suffix, shard);
        self
    }

    /// Suffix `i` goes to shard `i`; everything else to shard 0.
    ///
    /// # Panics
    ///
    /// Panics when `suffixes` is empty or longer than `u16::MAX` shards.
    pub fn by_suffixes(suffixes: Vec<Dn>) -> Self {
        assert!(!suffixes.is_empty(), "a shard map needs at least one suffix");
        let mut map = ShardMap::new(ShardId::ZERO);
        for (i, s) in suffixes.into_iter().enumerate() {
            let id = u16::try_from(i).expect("at most u16::MAX shards");
            map.assign(s, ShardId(id));
        }
        map
    }

    /// Number of shards the map addresses (dense: `0..shard_count`).
    pub fn shard_count(&self) -> usize {
        usize::from(self.shard_count)
    }

    /// The `(suffix, shard)` assignments.
    pub fn entries(&self) -> &[(Dn, ShardId)] {
        &self.entries
    }

    /// All shard ids, ascending.
    pub fn shards(&self) -> impl Iterator<Item = ShardId> {
        (0..self.shard_count).map(ShardId)
    }

    /// The shard owning `dn`: the deepest assigned suffix containing it,
    /// or the default shard. One hash probe per distinct suffix depth,
    /// deepest first; allocates nothing.
    pub fn shard_of(&self, dn: &Dn) -> ShardId {
        self.owners.owner(dn).unwrap_or(self.default)
    }

    /// The depth of `shard`'s deepest assigned suffix (0 for a shard with
    /// none). Glue — the ancestors of a shard's own suffixes, which its
    /// store holds so that the suffixes have parents — lies above it, so a
    /// store that holds only its shard's slice owns every entry at or below
    /// this depth, and only a shallower one needs [`ShardMap::shard_of`].
    pub fn glue_depth(&self, shard: ShardId) -> usize {
        self.owners.territory(shard).map_or(0, |t| t.deepest)
    }

    /// Shards whose territory can intersect the region `(base, scope)`:
    /// the owner of the base plus, for scopes reaching below it, the
    /// owners of every assigned suffix inside the region.
    pub fn overlapping(&self, base: &Dn, scope: Scope) -> Vec<ShardId> {
        let owner = self.shard_of(base);
        self.shards().filter(|&s| s == owner || self.clamp(s, base, scope).is_some()).collect()
    }

    /// `shard`'s part of the region `(base, scope)` when another shard owns
    /// the base: the deepest DN covering its suffixes inside the region,
    /// with the scope that reaches them, or `None` when none lies inside.
    /// A subtree based strictly above every suffix of the shard holds them
    /// all and reads their common ancestor, kept since they were assigned;
    /// any other region scans the assignments.
    fn clamp(&self, shard: ShardId, base: &Dn, scope: Scope) -> Option<(Dn, Scope)> {
        let territory = self.owners.territory(shard)?;
        if scope == Scope::Subtree && territory.lies_below(base) {
            return Some((territory.common.clone(), scope));
        }
        let in_region = || {
            self.entries
                .iter()
                .filter(move |(s, id)| *id == shard && scope.contains(base, s) && base != s)
                .map(|(s, _)| s)
        };
        let clamped = common_ancestor(in_region())?;
        let sub_scope = match scope {
            // The region's only reachable point of a child suffix is the
            // suffix entry itself.
            Scope::OneLevel if in_region().count() == 1 => Scope::Base,
            s => s,
        };
        Some((clamped, sub_scope))
    }

    /// Splits a search request across the shards it overlaps: one
    /// sub-request per shard, ascending by shard id. The sub-requests
    /// borrow the request's filter and attributes; only a clamped base is
    /// their own.
    ///
    /// The owner of the base keeps the request verbatim. A shard reached
    /// only through suffixes *below* the base gets its base clamped down
    /// to the deepest DN covering all of that shard's in-region suffixes
    /// — a shard only ever stores its own slice, so a clamped base that
    /// still over-covers (several suffixes under one ancestor) is
    /// harmless: the shard's evaluation cannot see entries it does not
    /// hold. A subtree based above all of a shard's suffixes — a search
    /// from the root — reads the shard's common ancestor, computed when
    /// the suffixes were assigned: the split then costs one owner probe and
    /// a DN comparison per shard.
    pub fn split<'a>(&self, request: &'a SearchRequest) -> Vec<(ShardId, SubRequest<'a>)> {
        let (base, scope) = (request.base(), request.scope());
        let base_owner = self.shard_of(base);
        self.shards()
            .filter_map(|shard| {
                let clamped =
                    if shard == base_owner { None } else { Some(self.clamp(shard, base, scope)?) };
                Some((shard, SubRequest { request, clamped }))
            })
            .collect()
    }
}

/// One shard's part of a [`ShardMap::split`]: the request's filter and
/// attributes, borrowed, over the request's own region or over one clamped
/// down to the shard's suffixes below its base.
#[derive(Debug, Clone)]
pub struct SubRequest<'a> {
    request: &'a SearchRequest,
    /// The clamped base and scope; `None` keeps the request's.
    clamped: Option<(Dn, Scope)>,
}

impl<'a> SubRequest<'a> {
    /// The search base at this shard.
    pub fn base(&self) -> &Dn {
        self.clamped.as_ref().map_or(self.request.base(), |(base, _)| base)
    }

    /// The search scope at this shard.
    pub fn scope(&self) -> Scope {
        self.clamped.as_ref().map_or(self.request.scope(), |&(_, scope)| scope)
    }

    /// The request's filter.
    pub fn filter(&self) -> &'a Filter {
        self.request.filter()
    }

    /// The request's attributes.
    pub fn attrs(&self) -> &'a AttrSelection {
        self.request.attrs()
    }

    /// The sub-request as a request of its own: the original when this
    /// shard keeps it verbatim, else a copy with the clamped region.
    pub fn to_request(&self) -> Cow<'a, SearchRequest> {
        match &self.clamped {
            None => Cow::Borrowed(self.request),
            Some((base, scope)) => Cow::Owned(SearchRequest::with_attrs(
                base.clone(),
                *scope,
                self.filter().clone(),
                self.attrs().clone(),
            )),
        }
    }
}

/// The deepest DN that is an ancestor-or-self of every input (root-first
/// longest common prefix of the RDN sequences): the first input itself,
/// shared, when it is above all the others — always, for one suffix — and
/// a new DN otherwise. `None` for an empty set.
fn common_ancestor<'a>(mut dns: impl Iterator<Item = &'a Dn>) -> Option<Dn> {
    let first = dns.next()?;
    let rdns = first.rdns();
    let depth = dns.fold(rdns.len(), |depth, dn| {
        let root_first = rdns.iter().rev().zip(dn.rdns().iter().rev());
        depth.min(root_first.take_while(|(a, b)| a == b).count())
    });
    Some(if depth == rdns.len() {
        first.clone()
    } else {
        Dn::from_rdns(rdns[rdns.len() - depth..].to_vec())
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use fbdr_ldap::Filter;

    fn dn(s: &str) -> Dn {
        s.parse().unwrap()
    }

    /// Countries g0/g1 on shards 0/1, everything else (o=xyz skeleton,
    /// divisions, locations) on shard 0 by default.
    fn map() -> ShardMap {
        ShardMap::by_suffixes(vec![dn("c=g0,o=xyz"), dn("c=g1,o=xyz")])
    }

    #[test]
    fn deepest_suffix_wins() {
        let m = ShardMap::new(ShardId::ZERO)
            .with_subtree(dn("c=us,o=xyz"), ShardId::new(1))
            .with_subtree(dn("ou=research,c=us,o=xyz"), ShardId::new(2));
        assert_eq!(m.shard_of(&dn("cn=a,c=us,o=xyz")), ShardId::new(1));
        assert_eq!(m.shard_of(&dn("cn=a,ou=research,c=us,o=xyz")), ShardId::new(2));
        assert_eq!(m.shard_of(&dn("o=xyz")), ShardId::ZERO);
        assert_eq!(m.shard_count(), 3);
    }

    #[test]
    fn overlap_by_scope() {
        let m = map();
        // Root subtree reaches every shard.
        assert_eq!(
            m.overlapping(&Dn::root(), Scope::Subtree),
            vec![ShardId::new(0), ShardId::new(1)]
        );
        // A base inside one country stays on its shard.
        assert_eq!(m.overlapping(&dn("cn=a,c=g1,o=xyz"), Scope::Subtree), vec![ShardId::new(1)]);
        // One level below o=xyz touches the country *entries* themselves.
        assert_eq!(
            m.overlapping(&dn("o=xyz"), Scope::OneLevel),
            vec![ShardId::new(0), ShardId::new(1)]
        );
        // Base scope never leaves the owner.
        assert_eq!(m.overlapping(&dn("c=g1,o=xyz"), Scope::Base), vec![ShardId::new(1)]);
    }

    #[test]
    fn split_clamps_foreign_bases() {
        let m = map();
        let req = SearchRequest::new(dn("o=xyz"), Scope::Subtree, Filter::match_all());
        let parts = m.split(&req);
        assert_eq!(parts.len(), 2);
        // Shard 0 owns the base: request verbatim, borrowed.
        assert_eq!(parts[0].0, ShardId::new(0));
        assert!(matches!(parts[0].1.to_request(), Cow::Borrowed(r) if std::ptr::eq(r, &req)));
        // Shard 1 is reached through its suffix: base clamped down, filter
        // and attributes still the request's own.
        assert_eq!(parts[1].0, ShardId::new(1));
        assert_eq!(parts[1].1.base(), &dn("c=g1,o=xyz"));
        assert_eq!(parts[1].1.scope(), Scope::Subtree);
        assert!(std::ptr::eq(parts[1].1.filter(), req.filter()));
        let clamped = SearchRequest::new(dn("c=g1,o=xyz"), Scope::Subtree, Filter::match_all());
        assert_eq!(parts[1].1.to_request().into_owned(), clamped);
    }

    #[test]
    fn split_one_level_foreign_suffix_becomes_base_scope() {
        let m = map();
        let req = SearchRequest::new(dn("o=xyz"), Scope::OneLevel, Filter::match_all());
        let parts = m.split(&req);
        assert_eq!(parts[1].0, ShardId::new(1));
        assert_eq!(parts[1].1.base(), &dn("c=g1,o=xyz"));
        assert_eq!(parts[1].1.scope(), Scope::Base);
    }

    #[test]
    fn split_merges_multiple_suffixes_by_common_ancestor() {
        let m = ShardMap::new(ShardId::ZERO)
            .with_subtree(dn("c=a,o=xyz"), ShardId::new(1))
            .with_subtree(dn("c=b,o=xyz"), ShardId::new(1));
        let req = SearchRequest::new(Dn::root(), Scope::Subtree, Filter::match_all());
        let parts = m.split(&req);
        assert_eq!(parts.len(), 2);
        // Both of shard 1's suffixes sit under o=xyz; the clamped base is
        // their common ancestor (over-covering is fine — shard 1 only
        // holds its own slice).
        assert_eq!(parts[1].1.base(), &dn("o=xyz"));
    }

    #[test]
    fn a_suffix_assigned_twice_belongs_to_its_last_shard() {
        let m = ShardMap::new(ShardId::ZERO)
            .with_subtree(dn("c=us,o=xyz"), ShardId::new(1))
            .with_subtree(dn("C=US,O=XYZ"), ShardId::new(2));
        assert_eq!(m.shard_of(&dn("cn=a,c=us,o=xyz")), ShardId::new(2));
        assert_eq!(m.shard_count(), 3);
        // The root as a suffix owns whatever no deeper suffix does.
        let m = m.with_subtree(Dn::root(), ShardId::new(1));
        assert_eq!(m.shard_of(&dn("o=abc")), ShardId::new(1));
        assert_eq!(m.shard_of(&Dn::root()), ShardId::new(1));
        assert_eq!(m.shard_of(&dn("c=us,o=xyz")), ShardId::new(2));
    }

    /// The shape every load check below edits: one country on shard 1 of
    /// two.
    const C_A: &str = r#"[{"attr":"c","value":"a"},{"attr":"o","value":"xyz"}]"#;

    fn load(json: &str) -> Result<ShardMap, String> {
        serde_json::from_str(json).map_err(|e| e.to_string())
    }

    #[test]
    fn a_map_assigning_a_shard_past_its_count_is_refused() {
        let sound = load(&format!(r#"{{"entries":[[{C_A},1]],"default":0,"shard_count":2}}"#))
            .expect("a sound map loads");
        assert_eq!(sound.shard_of(&dn("cn=x,c=a,o=xyz")), ShardId::new(1));
        let err = load(&format!(r#"{{"entries":[[{C_A},7]],"default":0,"shard_count":1}}"#))
            .expect_err("shard 7 of 1");
        assert!(err.contains("suffix c=a,o=xyz on shard7 is not below shard_count 1"), "{err}");
    }

    #[test]
    fn a_map_defaulting_to_a_shard_past_its_count_is_refused() {
        let err = load(&format!(r#"{{"entries":[[{C_A},0]],"default":2,"shard_count":2}}"#))
            .expect_err("default 2 of 2");
        assert!(err.contains("default shard2 is not below shard_count 2"), "{err}");
        let err = load(r#"{"entries":[],"default":0,"shard_count":0}"#).expect_err("no shards");
        assert!(err.contains("default shard0 is not below shard_count 0"), "{err}");
    }

    #[test]
    fn single_map_routes_everything_to_shard_zero() {
        let m = ShardMap::single();
        assert_eq!(m.shard_count(), 1);
        assert_eq!(m.shard_of(&dn("cn=anything,o=anywhere")), ShardId::ZERO);
        let req = SearchRequest::from_root(Filter::match_all());
        let parts = m.split(&req);
        assert_eq!(parts.len(), 1);
        assert_eq!(parts[0].0, ShardId::ZERO);
        assert_eq!(parts[0].1.to_request().into_owned(), req);
    }
}
