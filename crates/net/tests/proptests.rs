//! Property tests for the distributed directory: referral chasing must be
//! *complete* (collect exactly the entries a global view would return) and
//! must terminate on arbitrary partitions of a random tree; and a shard
//! map's owner lookup must name the shard the deepest-match scan over its
//! suffixes names, before and after a JSON round trip.

use fbdr_dit::{DitStore, NamingContext};
use fbdr_ldap::{Dn, Entry, Filter, Rdn, Scope, SearchRequest};
use fbdr_net::{Network, Server, ShardId, ShardMap};
use proptest::prelude::*;

/// A random two-level DIT under o=xyz: containers `ou=o<i>` with leaves
/// `cn=e<j>`. `cut(i)` decides whether container subtree `i` is delegated
/// to its own server.
#[derive(Debug, Clone)]
struct World {
    containers: Vec<usize>, // leaves per container
    cuts: Vec<bool>,        // delegated?
}

fn world() -> impl Strategy<Value = World> {
    (
        prop::collection::vec(0usize..5, 1..6),
        prop::collection::vec(any::<bool>(), 6),
    )
        .prop_map(|(containers, cuts)| World { containers, cuts })
}

fn dn(s: &str) -> Dn {
    s.parse().expect("valid dn")
}

fn leaf_entry(ci: usize, j: usize) -> Entry {
    Entry::new(dn(&format!("cn=e{ci}x{j},ou=o{ci},o=xyz")))
        .with("objectclass", "person")
        .with("tag", &format!("{}", (ci + j) % 3))
}

/// Builds the partitioned network plus a flat global store for oracle
/// comparison.
fn build(w: &World) -> (Network, DitStore) {
    let mut global = DitStore::new();
    global.add_suffix(dn("o=xyz"));
    global.add(Entry::new(dn("o=xyz"))).expect("add root");

    let mut root_dit = DitStore::new();
    root_dit.add_suffix(dn("o=xyz"));
    root_dit.add(Entry::new(dn("o=xyz"))).expect("add root");
    let mut root_ctx = NamingContext::new(dn("o=xyz"));
    let mut subordinate_servers: Vec<Server> = Vec::new();

    for (ci, &leaves) in w.containers.iter().enumerate() {
        let container = Entry::new(dn(&format!("ou=o{ci},o=xyz"))).with("objectclass", "organizationalUnit");
        global.add(container.clone()).expect("add container");
        let delegated = w.cuts.get(ci).copied().unwrap_or(false);
        if delegated {
            let url = format!("ldap://sub{ci}");
            root_ctx = root_ctx.with_referral(dn(&format!("ou=o{ci},o=xyz")), url.clone());
            let mut sub_dit = DitStore::new();
            sub_dit.add_suffix(dn(&format!("ou=o{ci},o=xyz")));
            sub_dit.add(container).expect("add container");
            for j in 0..leaves {
                let e = leaf_entry(ci, j);
                global.add(e.clone()).expect("add leaf");
                sub_dit.add(e).expect("add leaf");
            }
            subordinate_servers.push(Server::new(
                url,
                sub_dit,
                vec![NamingContext::new(dn(&format!("ou=o{ci},o=xyz")))],
                Some("ldap://root".into()),
            ));
        } else {
            root_dit.add(container).expect("add container");
            for j in 0..leaves {
                let e = leaf_entry(ci, j);
                global.add(e.clone()).expect("add leaf");
                root_dit.add(e).expect("add leaf");
            }
        }
    }
    let mut net = Network::new();
    net.add_server(Server::new("ldap://root", root_dit, vec![root_ctx], None));
    for s in subordinate_servers {
        net.add_server(s);
    }
    (net, global)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// The referral-chasing client collects exactly the global answer,
    /// from any starting server.
    #[test]
    fn chased_search_is_complete(w in world(), tag in 0usize..3, start_at_sub in any::<bool>()) {
        let (net, global) = build(&w);
        let req = SearchRequest::new(
            dn("o=xyz"),
            Scope::Subtree,
            Filter::parse(&format!("(tag={tag})")).expect("valid filter"),
        );
        let mut want: Vec<String> = global
            .search_dns(&req)
            .iter()
            .map(|d| d.to_string())
            .collect();
        want.sort();

        let start = if start_at_sub {
            net.urls().find(|u| u.starts_with("ldap://sub")).unwrap_or("ldap://root").to_owned()
        } else {
            "ldap://root".to_owned()
        };
        let mut client = net.client();
        let result = client.search(&start, &req).expect("resolvable topology");
        let mut got: Vec<String> = result.entries.iter().map(|e| e.dn().to_string()).collect();
        got.sort();
        prop_assert_eq!(got, want, "incomplete result from {}", start);
        // Round trips: one per server touched, plus at most one default
        // referral hop for name resolution.
        let delegated = w.cuts.iter().take(w.containers.len()).filter(|&&c| c).count() as u64;
        prop_assert!(result.stats.round_trips <= delegated + 2);
    }

    /// Base and one-level scopes are also complete across partitions.
    #[test]
    fn scoped_searches_complete(w in world()) {
        let (net, global) = build(&w);
        for req in [
            SearchRequest::new(dn("o=xyz"), Scope::OneLevel, Filter::match_all()),
            SearchRequest::new(dn("o=xyz"), Scope::Base, Filter::match_all()),
        ] {
            let mut want: Vec<String> =
                global.search_dns(&req).iter().map(|d| d.to_string()).collect();
            want.sort();
            let mut client = net.client();
            let result = client.search("ldap://root", &req).expect("resolvable");
            let mut got: Vec<String> =
                result.entries.iter().map(|e| e.dn().to_string()).collect();
            got.sort();
            prop_assert_eq!(got, want, "scope {:?}", req.scope());
        }
    }

    /// Entry lookups inside a delegated subtree resolve from anywhere.
    #[test]
    fn base_lookup_in_delegated_subtree(w in world()) {
        let Some(ci) = w.cuts.iter().take(w.containers.len()).position(|&c| c) else {
            return Ok(()); // nothing delegated in this world
        };
        if w.containers[ci] == 0 {
            return Ok(());
        }
        let (net, global) = build(&w);
        let target = dn(&format!("cn=e{ci}x0,ou=o{ci},o=xyz"));
        prop_assume!(global.contains(&target));
        let req = SearchRequest::new(target.clone(), Scope::Base, Filter::match_all());
        let mut client = net.client();
        let result = client.search("ldap://root", &req).expect("resolvable");
        prop_assert_eq!(result.entries.len(), 1);
        prop_assert_eq!(result.entries[0].dn(), &target);
    }
}

// ---------------------------------------------------------------------
// Shard ownership: the owner index against the scan it replaced
// ---------------------------------------------------------------------

/// The linear deepest-match scan `ShardMap::shard_of` replaced, kept as
/// its oracle: every suffix is tested, the deepest one containing `dn`
/// wins (`max_by_key` keeps the last of equal depths, so a suffix
/// assigned twice belongs to its last shard), and the default shard
/// catches the rest.
fn scan_owner(entries: &[(Dn, ShardId)], default: ShardId, dn: &Dn) -> ShardId {
    entries
        .iter()
        .filter(|(s, _)| s.is_ancestor_or_self_of(dn))
        .max_by_key(|(s, _)| s.depth())
        .map_or(default, |(_, id)| *id)
}

/// One naming component from a deliberately small alphabet, in either
/// case: suffixes drawn from it nest, repeat and re-spell each other.
fn rdn() -> impl Strategy<Value = Rdn> {
    (0usize..2, 0usize..2, any::<bool>()).prop_map(|(a, v, upper)| {
        let (attr, value) = (["ou", "c"][a], ["a", "b"][v]);
        if upper {
            Rdn::new(attr.to_uppercase(), value.to_uppercase())
        } else {
            Rdn::new(attr, value)
        }
    })
}

/// A DN of `depth` components drawn from [`rdn`]'s alphabet.
fn dn_of_depth(depth: std::ops::RangeInclusive<usize>) -> impl Strategy<Value = Dn> {
    prop::collection::vec(rdn(), depth).prop_map(Dn::from_rdns)
}

/// `dn` with every component's case flipped: another spelling of the
/// same name.
fn respelled(dn: &Dn) -> Dn {
    let flip = |s: &str| {
        if s.starts_with(|c: char| c.is_ascii_lowercase()) {
            s.to_uppercase()
        } else {
            s.to_lowercase()
        }
    };
    Dn::from_rdns(
        dn.rdns().iter().map(|r| Rdn::new(flip(r.attr().as_str()), flip(r.value().raw()))).collect(),
    )
}

/// A shard map as an operator writes it: the default shard, then the
/// `(suffix, shard)` assignments in order.
#[derive(Debug, Clone)]
struct Assignments {
    default: u16,
    suffixes: Vec<(Dn, u16)>,
}

impl Assignments {
    fn build(&self) -> ShardMap {
        let mut map = ShardMap::new(ShardId::new(self.default));
        for (suffix, shard) in &self.suffixes {
            map.assign(suffix.clone(), ShardId::new(*shard));
        }
        map
    }
}

/// Random suffixes of depth 1–3 over four shards (nested ones and equal
/// ones come from the small alphabet), plus on request: a carve-back of a
/// child of the first suffix to the default shard, the first suffix again
/// in another spelling on another shard, and the root as a suffix.
fn assignments() -> impl Strategy<Value = Assignments> {
    (
        0u16..4,
        prop::collection::vec((dn_of_depth(1..=3), 0u16..4), 0..8),
        any::<bool>(),
        any::<bool>(),
        (0u8..4, 0u16..4),
    )
        .prop_map(|(default, mut suffixes, carve, twice, (root, root_shard))| {
            if let Some((first, shard)) = suffixes.first().cloned() {
                if carve {
                    suffixes.push((first.child(Rdn::new("ou", "a")), default));
                }
                if twice {
                    suffixes.push((respelled(&first), (shard + 1) % 4));
                }
            }
            if root == 0 {
                suffixes.push((Dn::root(), root_shard));
            }
            Assignments { default, suffixes }
        })
}

/// Every DN named by `leaves` and every ancestor of one: a tree.
fn tree_of(leaves: &[Dn]) -> Vec<Dn> {
    let mut tree: Vec<Dn> = Vec::new();
    for leaf in leaves {
        let mut at = Some(leaf.clone());
        while let Some(dn) = at {
            at = dn.parent();
            if !tree.contains(&dn) {
                tree.push(dn);
            }
        }
    }
    tree
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Every DN of a random tree gets the owner the deepest-match scan
    /// gives, and so does every DN once the map has been through JSON.
    #[test]
    fn shard_of_is_the_deepest_match_scan(
        a in assignments(),
        leaves in prop::collection::vec(dn_of_depth(0..=5), 1..24),
    ) {
        let map = a.build();
        let json = serde_json::to_string(&map).expect("a map serializes");
        let loaded: ShardMap = serde_json::from_str(&json).expect("a map loads");
        prop_assert_eq!(&loaded, &map);
        prop_assert_eq!(serde_json::to_string(&loaded).expect("a map serializes"), json);
        let default = ShardId::new(a.default);
        for dn in tree_of(&leaves) {
            let want = scan_owner(map.entries(), default, &dn);
            prop_assert_eq!(map.shard_of(&dn), want, "{}", dn);
            prop_assert_eq!(loaded.shard_of(&dn), want, "{} after a JSON round trip", dn);
        }
    }
}

/// The split `ShardMap::split` made before each shard's suffixes were
/// kept apart, kept as its oracle: every assignment is scanned for the
/// shards the region reaches, and again per reached shard for its suffixes
/// inside the region, whose root-first common prefix is the clamped base.
/// The base's owner keeps the request's region (`None`).
fn scan_split(map: &ShardMap, base: &Dn, scope: Scope) -> Vec<(ShardId, Option<(Dn, Scope)>)> {
    let owner = map.shard_of(base);
    let mut reached: Vec<ShardId> = map
        .entries()
        .iter()
        .filter(|(s, _)| scope.contains(base, s) && base != s)
        .map(|(_, id)| *id)
        .chain([owner])
        .collect();
    reached.sort_unstable();
    reached.dedup();
    reached
        .into_iter()
        .map(|shard| {
            if shard == owner {
                return (shard, None);
            }
            let in_region: Vec<&Dn> = map
                .entries()
                .iter()
                .filter(|(s, id)| *id == shard && scope.contains(base, s) && base != s)
                .map(|(s, _)| s)
                .collect();
            let first = in_region[0].rdns();
            let depth = in_region
                .iter()
                .map(|s| first.iter().rev().zip(s.rdns().iter().rev()).take_while(|(a, b)| a == b).count())
                .min()
                .expect("a reached shard has a suffix in the region");
            let clamped = Dn::from_rdns(first[first.len() - depth..].to_vec());
            let sub_scope = if scope == Scope::OneLevel && in_region.len() == 1 { Scope::Base } else { scope };
            (shard, Some((clamped, sub_scope)))
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// A split names the shards, bases and scopes the scan over every
    /// assignment names, for regions at every DN of a random tree and at
    /// the root, in every scope; and `overlapping` names the same shards.
    #[test]
    fn split_is_the_assignment_scan(
        a in assignments(),
        leaves in prop::collection::vec(dn_of_depth(0..=4), 1..12),
    ) {
        let map = a.build();
        for base in tree_of(&leaves) {
            for scope in [Scope::Base, Scope::OneLevel, Scope::Subtree] {
                let req = SearchRequest::new(base.clone(), scope, Filter::match_all());
                let got: Vec<(ShardId, Dn, Scope)> =
                    map.split(&req).iter().map(|(s, sub)| (*s, sub.base().clone(), sub.scope())).collect();
                let want: Vec<(ShardId, Dn, Scope)> = scan_split(&map, &base, scope)
                    .into_iter()
                    .map(|(s, clamped)| {
                        let (b, sc) = clamped.unwrap_or_else(|| (base.clone(), scope));
                        (s, b, sc)
                    })
                    .collect();
                prop_assert_eq!(&got, &want, "{} {}", base, scope);
                let shards: Vec<ShardId> = want.iter().map(|(s, _, _)| *s).collect();
                prop_assert_eq!(map.overlapping(&base, scope), shards, "{} {}", base, scope);
            }
        }
    }
}

/// The wire form of a map is its assignments, default and count, in the
/// bytes they always had: the owner index derived from them stays out.
#[test]
fn a_shard_map_serializes_its_assignments_and_nothing_else() {
    let map = ShardMap::new(ShardId::ZERO)
        .with_subtree(dn("c=us,o=xyz"), ShardId::new(1))
        .with_subtree(dn("ou=research,c=us,o=xyz"), ShardId::new(2))
        .with_subtree(dn("c=in,o=xyz"), ShardId::new(1));
    let json = concat!(
        r#"{"entries":[[[{"attr":"c","value":"us"},{"attr":"o","value":"xyz"}],1],"#,
        r#"[[{"attr":"ou","value":"research"},{"attr":"c","value":"us"},{"attr":"o","value":"xyz"}],2],"#,
        r#"[[{"attr":"c","value":"in"},{"attr":"o","value":"xyz"}],1]],"#,
        r#""default":0,"shard_count":3}"#,
    );
    assert_eq!(serde_json::to_string(&map).expect("a map serializes"), json);
    let loaded: ShardMap = serde_json::from_str(json).expect("a map loads");
    assert_eq!(loaded, map);
    assert_eq!(loaded.shard_of(&dn("cn=x,ou=research,c=us,o=xyz")), ShardId::new(2));
}
