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
use fbdr_ldap::{Dn, Rdn, Scope, SearchRequest};
use serde::de::Error as _;
use serde::{Deserialize, Deserializer, Serialize};
use std::collections::HashMap;
use std::fmt;
use std::hash::{BuildHasherDefault, Hasher};

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
#[derive(Debug, Clone, Default, PartialEq, Eq)]
struct Owners {
    by_suffix: HashMap<Box<[Rdn]>, ShardId, BuildHasherDefault<MixHasher>>,
    depths: Vec<usize>,
}

impl Owners {
    /// A later assignment of a suffix replaces an earlier one.
    fn assign(&mut self, suffix: &Dn, shard: ShardId) {
        self.by_suffix.insert(suffix.rdns().into(), shard);
        let depth = suffix.depth();
        if let Err(at) = self.depths.binary_search_by(|d| depth.cmp(d)) {
            self.depths.insert(at, depth);
        }
    }

    fn owner(&self, dn: &Dn) -> Option<ShardId> {
        let rdns = dn.rdns();
        self.depths
            .iter()
            .skip_while(|&&depth| depth > rdns.len())
            .find_map(|&depth| self.by_suffix.get(&rdns[rdns.len() - depth..]).copied())
    }
}

/// The multiply-rotate step of FxHash, once per eight bytes of text: a
/// DN's owner costs one multiply per short RDN component and no
/// allocation. The keys are an operator's few dozen suffixes, not client
/// input, so a DN built to collide costs at most the scan of them the
/// index replaced.
#[derive(Debug, Default, Clone, Copy)]
struct MixHasher(u64);

impl MixHasher {
    fn mix(&mut self, word: u64) {
        self.0 = (self.0.rotate_left(5) ^ word).wrapping_mul(0x51_7c_c1_b7_27_22_0a_95);
    }
}

impl Hasher for MixHasher {
    fn write(&mut self, bytes: &[u8]) {
        let mut words = bytes.chunks_exact(8);
        for word in &mut words {
            self.mix(u64::from_le_bytes(word.try_into().expect("eight bytes")));
        }
        let rest = words.remainder();
        if !rest.is_empty() {
            self.mix(rest.iter().fold(0, |word, &b| word << 8 | u64::from(b)));
        }
    }

    /// A string's terminator and a slice's length are added, not mixed:
    /// the text around them is mixed anyway.
    fn write_u8(&mut self, n: u8) {
        self.0 = self.0.wrapping_add(u64::from(n));
    }

    fn write_usize(&mut self, n: usize) {
        self.0 = self.0.wrapping_add(n as u64);
    }

    /// The multiply leaves its best bits at the top; the table indexes by
    /// the bottom ones.
    fn finish(&self) -> u64 {
        self.0.rotate_left(26)
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
    /// or the default shard. One hash probe per distinct suffix depth,
    /// deepest first; allocates nothing.
    pub fn shard_of(&self, dn: &Dn) -> ShardId {
        self.owners.owner(dn).unwrap_or(self.default)
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
