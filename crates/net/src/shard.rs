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

use fbdr_dit::NamingContext;
use fbdr_ldap::{Dn, Scope, SearchRequest};
use serde::{Deserialize, Serialize};
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
/// suffix belong to the default shard.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ShardMap {
    /// `(suffix, shard)` assignments. Order is irrelevant for lookup
    /// (deepest match wins); kept in insertion order.
    entries: Vec<(Dn, ShardId)>,
    default: ShardId,
    shard_count: u16,
}

impl ShardMap {
    /// The trivial map: one shard owning the whole namespace.
    pub fn single() -> Self {
        ShardMap { entries: Vec::new(), default: ShardId::ZERO, shard_count: 1 }
    }

    /// An empty map with the given default shard.
    pub fn new(default: ShardId) -> Self {
        ShardMap { entries: Vec::new(), default, shard_count: default.0 + 1 }
    }

    /// Assigns the subtree rooted at `suffix` to `shard`.
    pub fn assign(&mut self, suffix: Dn, shard: ShardId) {
        self.shard_count = self.shard_count.max(shard.0 + 1);
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

    /// Context `i`'s suffix goes to shard `i` (referrals are delimiting
    /// metadata, not shard boundaries — a referral target that should be
    /// its own shard gets its own context).
    pub fn by_contexts(contexts: &[NamingContext]) -> Self {
        ShardMap::by_suffixes(contexts.iter().map(|c| c.suffix().clone()).collect())
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
    /// or the default shard.
    pub fn shard_of(&self, dn: &Dn) -> ShardId {
        self.entries
            .iter()
            .filter(|(s, _)| s.is_ancestor_or_self_of(dn))
            .max_by_key(|(s, _)| s.depth())
            .map_or(self.default, |(_, id)| *id)
    }

    /// Shards whose territory can intersect the region `(base, scope)`:
    /// the owner of the base plus, for scopes reaching below it, the
    /// owners of every assigned suffix inside the region.
    pub fn overlapping(&self, base: &Dn, scope: Scope) -> Vec<ShardId> {
        let mut out = vec![self.shard_of(base)];
        match scope {
            Scope::Base => {}
            Scope::OneLevel => {
                out.extend(
                    self.entries
                        .iter()
                        .filter(|(s, _)| base.is_parent_of(s))
                        .map(|(_, id)| *id),
                );
            }
            Scope::Subtree => {
                out.extend(
                    self.entries
                        .iter()
                        .filter(|(s, _)| base.is_ancestor_of(s))
                        .map(|(_, id)| *id),
                );
            }
        }
        out.sort_unstable();
        out.dedup();
        out
    }

    /// Splits a search request across the shards it overlaps: one
    /// sub-request per shard, ascending by shard id.
    ///
    /// The owner of the base keeps the request verbatim. A shard reached
    /// only through suffixes *below* the base gets its base clamped down
    /// to the deepest DN covering all of that shard's in-region suffixes
    /// — a shard only ever stores its own slice, so a clamped base that
    /// still over-covers (several suffixes under one ancestor) is
    /// harmless: the shard's evaluation cannot see entries it does not
    /// hold.
    pub fn split(&self, request: &SearchRequest) -> Vec<(ShardId, SearchRequest)> {
        let base = request.base();
        let scope = request.scope();
        let base_owner = self.shard_of(base);
        self.overlapping(base, scope)
            .into_iter()
            .map(|shard| {
                if shard == base_owner {
                    return (shard, request.clone());
                }
                let in_region: Vec<&Dn> = self
                    .entries
                    .iter()
                    .filter(|(s, id)| *id == shard && scope.contains(base, s) && base != s)
                    .map(|(s, _)| s)
                    .collect();
                let clamped = common_ancestor(&in_region).unwrap_or_else(|| base.clone());
                let sub_scope = match scope {
                    // The region's only reachable point of a child suffix
                    // is the suffix entry itself.
                    Scope::OneLevel if in_region.len() == 1 => Scope::Base,
                    s => s,
                };
                (
                    shard,
                    SearchRequest::with_attrs(
                        clamped,
                        sub_scope,
                        request.filter().clone(),
                        request.attrs().clone(),
                    ),
                )
            })
            .collect()
    }
}

/// The deepest DN that is an ancestor-or-self of every input (root-first
/// longest common prefix of the RDN sequences). `None` for an empty set.
fn common_ancestor(dns: &[&Dn]) -> Option<Dn> {
    let first = dns.first()?;
    let mut prefix: Vec<_> = first.rdns().iter().rev().cloned().collect();
    for dn in &dns[1..] {
        let mut len = 0;
        for (a, b) in prefix.iter().zip(dn.rdns().iter().rev()) {
            if a != b {
                break;
            }
            len += 1;
        }
        prefix.truncate(len);
    }
    prefix.reverse();
    Some(Dn::from_rdns(prefix))
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
        // Shard 0 owns the base: request verbatim.
        assert_eq!(parts[0].0, ShardId::new(0));
        assert_eq!(&parts[0].1, &req);
        // Shard 1 is reached through its suffix: base clamped down.
        assert_eq!(parts[1].0, ShardId::new(1));
        assert_eq!(parts[1].1.base(), &dn("c=g1,o=xyz"));
        assert_eq!(parts[1].1.scope(), Scope::Subtree);
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
    fn by_contexts_uses_suffixes() {
        let m = ShardMap::by_contexts(&[
            NamingContext::new(dn("c=us,o=xyz")),
            NamingContext::new(dn("c=in,o=xyz")),
        ]);
        assert_eq!(m.shard_of(&dn("cn=x,c=in,o=xyz")), ShardId::new(1));
        assert_eq!(m.shard_count(), 2);
    }

    #[test]
    fn single_map_routes_everything_to_shard_zero() {
        let m = ShardMap::single();
        assert_eq!(m.shard_count(), 1);
        assert_eq!(m.shard_of(&dn("cn=anything,o=anywhere")), ShardId::ZERO);
        let req = SearchRequest::from_root(Filter::match_all());
        assert_eq!(m.split(&req), vec![(ShardId::ZERO, req)]);
    }
}
