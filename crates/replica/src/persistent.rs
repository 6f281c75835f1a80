//! Persistent (structurally shared) collections for epoch snapshots.
//!
//! A published epoch is immutable and the writer always holds it while
//! building the next one, so a plain `Arc<BTreeMap>` / `Arc<Vec>` behind
//! `Arc::make_mut` deep-copies the whole collection on the first write of
//! every cycle. The two collections here put the `Arc` on small nodes
//! instead:
//!
//! * [`PMap`] — an ordered map (B+tree: values in leaves, separator keys
//!   in branches). A write copies the root-to-leaf path it walks, each
//!   node through its own `Arc::make_mut`: the first touch of a node in a
//!   cycle copies it (the previous epoch still owns the original), every
//!   later touch of the same node finds it unshared and mutates in place.
//! * [`SlotVec`] — an index-addressed vector of optional slots cut into
//!   fixed-size chunks with the same copy-on-first-touch rule.
//!
//! Cloning either is O(1) / O(len ÷ chunk) pointer copies; a clone is a
//! frozen version that later writes to the original never disturb. Cost
//! of one write after a clone: O(height · [`NODE`]) item copies for the
//! map, one chunk for the vector — independent of the collection's size.
//! Keys and values are cloned with the node that holds them, so both
//! should be cheap to clone (`Arc`s).

use std::borrow::Borrow;
use std::ops::Bound;
use std::sync::Arc;

/// Maximum number of items in a map node.
const NODE: usize = 32;

/// Number of slots in a vector chunk.
const CHUNK: usize = 64;

/// A branch item: a subtree beside its separator key.
type Child<K, V> = (K, Arc<Node<K, V>>);

#[derive(Debug, Clone)]
enum Node<K, V> {
    /// Key-sorted items.
    Leaf(Vec<(K, V)>),
    /// Children in key order, never empty. For `i >= 1` the key beside
    /// child `i` separates it from child `i - 1`: every key under child
    /// `i - 1` is smaller, every key under child `i` is at least as
    /// large. The key beside child 0 is never compared.
    Branch(Vec<Child<K, V>>),
}

impl<K, V> Node<K, V> {
    fn len(&self) -> usize {
        match self {
            Node::Leaf(items) => items.len(),
            Node::Branch(items) => items.len(),
        }
    }
}

/// Index of the child whose key range holds `key`.
fn child_index<K, T, Q>(items: &[(K, T)], key: &Q) -> usize
where
    K: Borrow<Q>,
    Q: Ord + ?Sized,
{
    items[1..].partition_point(|(sep, _)| sep.borrow() <= key)
}

/// Splits an overfull node's items in half; returns the upper half with
/// the key that separates it from the lower.
fn split_if_full<K: Clone, T>(items: &mut Vec<(K, T)>) -> Option<(K, Vec<(K, T)>)> {
    if items.len() <= NODE {
        return None;
    }
    let right = items.split_off(items.len() / 2);
    Some((right[0].0.clone(), right))
}

/// Restores the shape of a branch after child `i` may have shrunk: an
/// empty child is unlinked, a sparse one is merged with a neighbour when
/// both fit in one node.
fn rebalance<K: Clone, V: Clone>(items: &mut Vec<Child<K, V>>, i: usize) {
    let n = items[i].1.len();
    if n == 0 {
        items.remove(i);
        return;
    }
    if n >= NODE / 4 {
        return;
    }
    let (a, b) = if i + 1 < items.len() {
        (i, i + 1)
    } else if i > 0 {
        (i - 1, i)
    } else {
        return;
    };
    if items[a].1.len() + items[b].1.len() > NODE {
        return;
    }
    let (sep, right) = items.remove(b);
    let right = Arc::try_unwrap(right).unwrap_or_else(|shared| (*shared).clone());
    match (Arc::make_mut(&mut items[a].1), right) {
        (Node::Leaf(l), Node::Leaf(r)) => l.extend(r),
        (Node::Branch(l), Node::Branch(mut r)) => {
            // The right node's first key was never compared and may be
            // out of date; its parent's separator is the valid one.
            r[0].0 = sep;
            l.extend(r);
        }
        _ => unreachable!("siblings sit at the same depth"),
    }
}

/// [`PMap::update`] below `node`; returns the sibling split off when the
/// node overflowed, with its separator.
fn update_node<K, V, Q, M, F>(
    node: &mut Arc<Node<K, V>>,
    key: &Q,
    make_key: M,
    f: F,
) -> Option<Child<K, V>>
where
    K: Clone + Borrow<Q>,
    V: Clone + Default,
    Q: Ord + ?Sized,
    M: FnOnce() -> K,
    F: FnOnce(&mut V) -> bool,
{
    match Arc::make_mut(node) {
        Node::Leaf(items) => {
            let i = match items.binary_search_by(|(k, _)| k.borrow().cmp(key)) {
                Ok(i) => i,
                Err(i) => {
                    items.insert(i, (make_key(), V::default()));
                    i
                }
            };
            if !f(&mut items[i].1) {
                items.remove(i);
            }
            split_if_full(items).map(|(sep, right)| (sep, Arc::new(Node::Leaf(right))))
        }
        Node::Branch(items) => {
            let i = child_index(items, key);
            match update_node(&mut items[i].1, key, make_key, f) {
                Some(split) => items.insert(i + 1, split),
                None => rebalance(items, i),
            }
            split_if_full(items).map(|(sep, right)| (sep, Arc::new(Node::Branch(right))))
        }
    }
}

/// A persistent ordered map; see the module documentation.
#[derive(Debug, Clone)]
pub(crate) struct PMap<K, V> {
    root: Arc<Node<K, V>>,
}

impl<K, V> Default for PMap<K, V> {
    fn default() -> Self {
        PMap { root: Arc::new(Node::Leaf(Vec::new())) }
    }
}

impl<K, V> PMap<K, V> {
    /// True when the map holds no key: [`PMap::update`] collapses a
    /// root left with one child, so an empty map is an empty root.
    pub(crate) fn is_empty(&self) -> bool {
        self.root.len() == 0
    }

    /// The value stored under `key`.
    pub(crate) fn get<Q>(&self, key: &Q) -> Option<&V>
    where
        K: Borrow<Q>,
        Q: Ord + ?Sized,
    {
        let mut node = &*self.root;
        loop {
            match node {
                Node::Branch(items) => node = &items[child_index(items, key)].1,
                Node::Leaf(items) => {
                    let i = items.binary_search_by(|(k, _)| k.borrow().cmp(key)).ok()?;
                    return Some(&items[i].1);
                }
            }
        }
    }

    /// The items whose keys lie between `lo` and `hi`, in key order.
    pub(crate) fn range<'a, 'q, Q>(
        &'a self,
        lo: Bound<&Q>,
        hi: Bound<&'q Q>,
    ) -> Range<'a, 'q, K, V, Q>
    where
        K: Borrow<Q>,
        Q: Ord + ?Sized,
    {
        let mut stack = Vec::new();
        let mut node = &*self.root;
        let leaf = loop {
            match node {
                Node::Branch(items) => {
                    let i = match lo {
                        Bound::Included(k) | Bound::Excluded(k) => child_index(items, k),
                        Bound::Unbounded => 0,
                    };
                    stack.push(items[i + 1..].iter());
                    node = &items[i].1;
                }
                Node::Leaf(items) => {
                    let start = match lo {
                        Bound::Included(k) => items.partition_point(|(x, _)| x.borrow() < k),
                        Bound::Excluded(k) => items.partition_point(|(x, _)| x.borrow() <= k),
                        Bound::Unbounded => 0,
                    };
                    break items[start..].iter();
                }
            }
        };
        Range { stack, leaf, hi }
    }

    /// The one write operation. `f` sees the value stored under `key` —
    /// a default one, inserted under `make_key()`, when the key is absent
    /// — and returns whether to keep the key.
    pub(crate) fn update<Q>(
        &mut self,
        key: &Q,
        make_key: impl FnOnce() -> K,
        f: impl FnOnce(&mut V) -> bool,
    ) where
        K: Clone + Borrow<Q>,
        V: Clone + Default,
        Q: Ord + ?Sized,
    {
        if let Some((sep, right)) = update_node(&mut self.root, key, make_key, f) {
            let left = self.root.clone();
            self.root = Arc::new(Node::Branch(vec![(sep.clone(), left), (sep, right)]));
        }
        loop {
            let only_child = match &*self.root {
                Node::Branch(items) if items.len() == 1 => items[0].1.clone(),
                _ => break,
            };
            self.root = only_child;
        }
    }
}

/// Iterator of [`PMap::range`].
pub(crate) struct Range<'a, 'q, K, V, Q: ?Sized> {
    /// The unvisited right siblings on each level of the path to `leaf`.
    stack: Vec<std::slice::Iter<'a, Child<K, V>>>,
    leaf: std::slice::Iter<'a, (K, V)>,
    hi: Bound<&'q Q>,
}

impl<'a, K, V, Q> Iterator for Range<'a, '_, K, V, Q>
where
    K: Borrow<Q>,
    Q: Ord + ?Sized,
{
    type Item = (&'a K, &'a V);

    fn next(&mut self) -> Option<Self::Item> {
        loop {
            if let Some((k, v)) = self.leaf.next() {
                let inside = match self.hi {
                    Bound::Included(h) => k.borrow() <= h,
                    Bound::Excluded(h) => k.borrow() < h,
                    Bound::Unbounded => true,
                };
                if !inside {
                    self.stack.clear();
                    self.leaf = [].iter();
                    return None;
                }
                return Some((k, v));
            }
            // Next leaf: the nearest unvisited sibling, then leftmost down.
            let mut node = loop {
                match self.stack.last_mut()?.next() {
                    Some((_, child)) => break &**child,
                    None => self.stack.pop(),
                };
            };
            while let Node::Branch(items) = node {
                let mut rest = items.iter();
                node = &rest.next().expect("branches are never empty").1;
                self.stack.push(rest);
            }
            if let Node::Leaf(items) = node {
                self.leaf = items.iter();
            }
        }
    }
}

/// A persistent vector of optional slots addressed by index; see the
/// module documentation. Reads past the end find an empty slot, writes
/// past the end grow the vector.
#[derive(Debug, Clone)]
pub(crate) struct SlotVec<T> {
    chunks: Vec<Arc<[Option<T>; CHUNK]>>,
}

impl<T> Default for SlotVec<T> {
    fn default() -> Self {
        SlotVec { chunks: Vec::new() }
    }
}

impl<T> SlotVec<T> {
    /// The occupant of slot `i`.
    pub(crate) fn get(&self, i: usize) -> Option<&T> {
        self.chunks.get(i / CHUNK)?[i % CHUNK].as_ref()
    }

    /// Slot `i` for writing.
    pub(crate) fn slot_mut(&mut self, i: usize) -> &mut Option<T>
    where
        T: Clone,
    {
        while self.chunks.len() <= i / CHUNK {
            self.chunks.push(Arc::new(std::array::from_fn(|_| None)));
        }
        &mut Arc::make_mut(&mut self.chunks[i / CHUNK])[i % CHUNK]
    }
}

#[cfg(test)]
impl<K: Ord, V> PMap<K, V> {
    /// Every item, in key order.
    pub(crate) fn iter(&self) -> Range<'_, '_, K, V, K> {
        self.range(Bound::Unbounded, Bound::Unbounded)
    }
}

#[cfg(test)]
impl<K, V> PMap<K, V> {
    /// Addresses of every node, for structural-sharing assertions.
    pub(crate) fn node_addrs(&self) -> Vec<usize> {
        fn walk<K, V>(node: &Arc<Node<K, V>>, out: &mut Vec<usize>) {
            out.push(Arc::as_ptr(node) as usize);
            if let Node::Branch(items) = &**node {
                for (_, child) in items {
                    walk(child, out);
                }
            }
        }
        let mut out = Vec::new();
        walk(&self.root, &mut out);
        out
    }
}

#[cfg(test)]
impl<T> SlotVec<T> {
    /// Addresses of every chunk, for structural-sharing assertions.
    pub(crate) fn chunk_addrs(&self) -> Vec<usize> {
        self.chunks.iter().map(|c| Arc::as_ptr(c) as usize).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fbdr_dit::index::TextKey;
    use proptest::prelude::*;
    use std::collections::BTreeMap;

    /// Keyed as the snapshot index keys its text maps.
    type Map = PMap<TextKey, u32>;
    type Model = BTreeMap<String, u32>;

    /// Every third key is too long to sit in the map node, so inline and
    /// heap keys neighbour each other in every leaf and prefix.
    fn key(k: u16) -> String {
        let k = k % 4096;
        if k.is_multiple_of(3) {
            format!("{k:04}-the-text-of-this-key-goes-behind-an-arc")
        } else {
            format!("{k:04}")
        }
    }

    fn set(map: &mut Map, k: &str, v: u32) {
        map.update(k.as_bytes(), || TextKey::new(k), |slot| {
            *slot = v;
            true
        });
    }

    fn unset(map: &mut Map, k: &str) {
        map.update(k.as_bytes(), || TextKey::new(k), |_| false);
    }

    fn items<'a>(it: impl Iterator<Item = (&'a TextKey, &'a u32)>) -> Vec<(String, u32)> {
        it.map(|(k, v)| (String::from_utf8(k.as_bytes().to_vec()).expect("made from a str"), *v)).collect()
    }

    fn model_items<'a>(it: impl Iterator<Item = (&'a String, &'a u32)>) -> Vec<(String, u32)> {
        it.map(|(k, v)| (k.clone(), *v)).collect()
    }

    /// Every read operation agrees with the model.
    fn check(map: &Map, model: &Model, probes: &[(u16, u16)]) {
        assert_eq!(items(map.iter()), model_items(model.iter()));
        for &(a, b) in probes {
            let (a, b) = (key(a), key(b));
            assert_eq!(map.get(a.as_bytes()), model.get(&a));
            let (lo, hi) = if a <= b { (&a, &b) } else { (&b, &a) };
            for (l, h) in [
                (Bound::Included(lo), Bound::Included(hi)),
                (Bound::Excluded(lo), Bound::Excluded(hi)),
                (Bound::Included(lo), Bound::Unbounded),
                (Bound::Unbounded, Bound::Excluded(hi)),
            ] {
                if lo == hi && matches!((l, h), (Bound::Excluded(_), Bound::Excluded(_))) {
                    continue; // BTreeMap::range panics on an empty exclusive range
                }
                fn bound(b: Bound<&String>) -> Bound<&[u8]> {
                    b.map(|s| s.as_bytes())
                }
                assert_eq!(
                    items(map.range::<[u8]>(bound(l), bound(h))),
                    model_items(model.range::<String, _>((l, h))),
                    "range {l:?}..{h:?}"
                );
            }
            // Prefix scan, the way the index plans `(attr=ab*)`.
            let prefix = &a[..2];
            let scanned = map
                .range::<[u8]>(Bound::Included(prefix.as_bytes()), Bound::Unbounded)
                .take_while(|(k, _)| k.as_bytes().starts_with(prefix.as_bytes()));
            let expected = model.iter().filter(|(k, _)| k.starts_with(prefix));
            assert_eq!(items(scanned), model_items(expected), "prefix {prefix}");
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]
        #[test]
        fn pmap_matches_btreemap_and_old_versions_stay_frozen(
            // Runs of adjacent keys set or unset together: whole leaves and
            // branches empty, merge and refill, not just single items.
            runs in prop::collection::vec((0u8..10, any::<u16>(), 1u16..300), 20..120),
            probes in prop::collection::vec((any::<u16>(), any::<u16>()), 8),
        ) {
            let mut map = Map::default();
            let mut model = Model::new();
            let mut versions: Vec<(Map, Model)> = Vec::new();
            for (n, &(kind, start, len)) in runs.iter().enumerate() {
                for k in (start..start.saturating_add(len)).map(key) {
                    if kind < 6 {
                        set(&mut map, &k, n as u32);
                        model.insert(k, n as u32);
                    } else {
                        unset(&mut map, &k);
                        model.remove(&k);
                    }
                }
                if n % 10 == 0 {
                    check(&map, &model, &probes[..1]);
                    versions.push((map.clone(), model.clone()));
                }
            }
            check(&map, &model, &probes);
            // Draining the map ends in root collapse.
            versions.push((map.clone(), model.clone()));
            for k in model.keys().cloned().collect::<Vec<_>>() {
                unset(&mut map, &k);
            }
            check(&map, &Model::new(), &probes);
            assert_eq!(map.node_addrs().len(), 1, "an empty map is one empty leaf");
            // Retained versions are untouched by everything that followed.
            for (old, old_model) in &versions {
                check(old, old_model, &probes);
            }
        }

        #[test]
        fn slotvec_matches_vec_and_old_versions_stay_frozen(
            ops in prop::collection::vec((any::<bool>(), 0usize..1000), 1..600),
        ) {
            let mut slots: SlotVec<u32> = SlotVec::default();
            let mut model: Vec<Option<u32>> = Vec::new();
            let mut versions = Vec::new();
            let same = |slots: &SlotVec<u32>, model: &Vec<Option<u32>>| {
                (0..1100).all(|i| slots.get(i) == model.get(i).and_then(|s| s.as_ref()))
            };
            for (n, &(fill, i)) in ops.iter().enumerate() {
                if model.len() <= i {
                    model.resize(i + 1, None);
                }
                model[i] = fill.then_some(n as u32);
                *slots.slot_mut(i) = fill.then_some(n as u32);
                if n % 100 == 0 {
                    versions.push((slots.clone(), model.clone()));
                }
            }
            prop_assert!(same(&slots, &model));
            for (old, old_model) in &versions {
                prop_assert!(same(old, old_model));
            }
        }
    }

    #[test]
    fn merged_branch_routes_keys_below_its_stale_first_key() {
        // Evens then odds leave every leaf full, so a drained leaf finds
        // no neighbour to merge into and is unlinked empty: the branch
        // over keys 1536.. then starts with the key of its second leaf.
        let mut map = Map::default();
        let mut model = Model::new();
        let mut edit = |map: &mut Map, keys: &mut dyn Iterator<Item = u16>, on: bool| {
            for k in keys.map(key) {
                if on {
                    set(map, &k, 1);
                    model.insert(k, 1);
                } else {
                    unset(map, &k);
                    model.remove(&k);
                }
            }
            check(map, &model, &[(1536, 1567)]);
        };
        edit(&mut map, &mut (0..4096).step_by(2), true);
        edit(&mut map, &mut (1..4096).step_by(2), true);
        edit(&mut map, &mut (1536..1568), false);
        // The keys come back below that first key ...
        edit(&mut map, &mut (1536..1568), true);
        // ... and the branch is merged into its thinned-out left sibling.
        edit(&mut map, &mut (1024..1360), false);
        for k in (1536..1568).map(key) {
            assert_eq!(map.get(k.as_bytes()), Some(&1), "key {k}");
        }
    }

    #[test]
    fn a_write_after_a_clone_copies_one_path() {
        let mut map = Map::default();
        for k in 0..4096u16 {
            set(&mut map, &key(k), 0);
        }
        let before = map.clone();
        set(&mut map, &key(1234), 1);
        let old: std::collections::HashSet<usize> = before.node_addrs().into_iter().collect();
        let new = map.node_addrs();
        let copied = new.iter().filter(|a| !old.contains(a)).count();
        assert!(new.len() > 128, "{} nodes", new.len());
        assert!(copied <= 3, "{copied} of {} nodes copied", new.len());
        assert_eq!(before.get(key(1234).as_bytes()), Some(&0));
        assert_eq!(map.get(key(1234).as_bytes()), Some(&1));

        let mut slots: SlotVec<u32> = SlotVec::default();
        for i in 0..4096 {
            *slots.slot_mut(i) = Some(0);
        }
        let before = slots.clone();
        *slots.slot_mut(77) = None;
        let shared = before
            .chunk_addrs()
            .iter()
            .zip(slots.chunk_addrs())
            .filter(|(a, b)| **a == *b)
            .count();
        assert_eq!(shared, 4096 / CHUNK - 1);
        assert_eq!(before.get(77), Some(&0));
    }
}
