//! Sorted `u32` posting lists: the one id-set representation in the stack.
//!
//! A posting list is a strictly increasing sequence of dense entry (or
//! session) ids: the attribute index of the master store and of every
//! replica epoch, the routing index, and the replica's filter contents
//! are all edited and combined with the functions here. A list is 4
//! bytes per member and membership is a binary search. Intersection
//! *gallops* (exponential probe + binary search) through the longer list,
//! so intersecting a point-query candidate list with a country-sized list
//! costs `O(small · log large)` rather than `O(large)`.
//!
//! Under an index key the list is a [`Posting`], the one type every index
//! holds: both stores' attribute indexes, and the routing index's
//! equality, prefix, presence and residual buckets of filter ids
//! (`fbdr_resync::RoutingIndex`). A key that one entry holds — nearly
//! every `serialNumber`, `mail` or `cn` — or one filter asserts keeps its
//! id inline, in the map node, and only a key of two or more ids has a
//! list on the heap, shared behind an `Arc` between the replica's epochs.
//! A walk over a prefix or a range reads the ids off the nodes it descends
//! ([`union_walk`]) and follows a pointer only for a key that several
//! entries share.

use std::borrow::Cow;
use std::fmt;
use std::sync::Arc;

/// The ids listed under one index key, in either store: one id inline, two
/// or more as a sorted `Vec<u32>` behind an `Arc`, so that cloning a
/// posting — with the map node that holds it — copies a pointer at most.
///
/// The form is canonical: a posting of one id is always inline
/// ([`Posting::insert`] spills to a list at the second id,
/// [`Posting::remove`] folds back at the last but one), so two postings of
/// the same ids are equal field by field, and an edited index equals one
/// rebuilt from its entries. A store drops a key with its last id; an
/// empty posting (the [`Default`]) exists only for the length of one edit.
///
/// ```
/// use fbdr_dit::posting::Posting;
///
/// let mut p = Posting::default();
/// assert!(p.insert(7));
/// assert!(p.is_inline());
/// assert!(p.insert(3) && !p.insert(3));
/// assert_eq!((p.as_slice(), p.is_inline()), (&[3, 7][..], false));
/// let frozen = p.clone();
/// assert!(p.remove(3));
/// assert_eq!((p.as_slice(), p.is_inline()), (&[7][..], true));
/// assert_eq!(frozen.as_slice(), &[3, 7]);
/// ```
#[derive(Clone, Default, PartialEq, Eq)]
pub struct Posting(Ids);

#[derive(Clone, Default, PartialEq, Eq)]
enum Ids {
    /// Only while an edit is under way: a key goes with its last id.
    #[default]
    Empty,
    One(u32),
    /// Two or more, ascending.
    Many(Arc<Vec<u32>>),
}

impl Posting {
    /// Lists `id`; returns true when it was absent. A shared list is
    /// copied only when the id is new to it.
    pub fn insert(&mut self, id: u32) -> bool {
        match &mut self.0 {
            Ids::Empty => self.0 = Ids::One(id),
            Ids::One(x) if *x == id => return false,
            Ids::One(x) => {
                let pair = if *x < id { vec![*x, id] } else { vec![id, *x] };
                self.0 = Ids::Many(Arc::new(pair));
            }
            Ids::Many(list) => match list.binary_search(&id) {
                Ok(_) => return false,
                Err(pos) => Arc::make_mut(list).insert(pos, id),
            },
        }
        true
    }

    /// Unlists `id`; returns true when it was present. A list of two folds
    /// back to the inline id that stays, without copying the list.
    pub fn remove(&mut self, id: u32) -> bool {
        match &mut self.0 {
            Ids::One(x) if *x == id => self.0 = Ids::Empty,
            Ids::Empty | Ids::One(_) => return false,
            Ids::Many(list) => {
                let Ok(pos) = list.binary_search(&id) else { return false };
                if list.len() == 2 {
                    self.0 = Ids::One(list[1 - pos]);
                } else {
                    Arc::make_mut(list).remove(pos);
                }
            }
        }
        true
    }

    /// The ids, ascending.
    pub fn as_slice(&self) -> &[u32] {
        match &self.0 {
            Ids::Empty => &[],
            Ids::One(id) => std::slice::from_ref(id),
            Ids::Many(list) => list,
        }
    }

    /// True when the posting lists no id.
    pub fn is_empty(&self) -> bool {
        matches!(self.0, Ids::Empty)
    }

    /// True when the posting keeps its id in place, with no list behind
    /// it — by the canonical form, exactly when it holds one id.
    pub fn is_inline(&self) -> bool {
        matches!(self.0, Ids::One(_))
    }
}

impl fmt::Debug for Posting {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list().entries(self.as_slice()).finish()
    }
}

/// Inserts `id` into a sorted list; returns true when it was absent.
pub fn insert_sorted(list: &mut Vec<u32>, id: u32) -> bool {
    match list.binary_search(&id) {
        Ok(_) => false,
        Err(pos) => {
            list.insert(pos, id);
            true
        }
    }
}

/// Removes `id` from a sorted list; returns true when it was present.
pub fn remove_sorted(list: &mut Vec<u32>, id: u32) -> bool {
    match list.binary_search(&id) {
        Ok(pos) => {
            list.remove(pos);
            true
        }
        Err(_) => false,
    }
}

/// Membership test by binary search.
pub fn contains(list: &[u32], id: u32) -> bool {
    list.binary_search(&id).is_ok()
}

/// First index in `slice` whose value is `>= target`, found by galloping:
/// probe positions 1, 2, 4, 8, … then binary-search the final octave.
/// Cheaper than a full binary search when the answer is near the front —
/// which it is when the caller advances a cursor through sorted merges.
fn gallop(slice: &[u32], target: u32) -> usize {
    let mut hi = 1usize;
    while hi < slice.len() && slice[hi] < target {
        hi <<= 1;
    }
    let lo = hi >> 1;
    let end = hi.min(slice.len());
    lo + slice[lo..end].partition_point(|&v| v < target)
}

/// Intersects two sorted id lists.
///
/// Uses a linear merge when the lists are of comparable length and
/// galloping (iterate the short list, exponential-search the long one)
/// when they differ by more than ~4×: the common point-query shape is a
/// one-element equality list against a country-sized filter list.
///
/// ```
/// use fbdr_dit::posting;
///
/// let big: Vec<u32> = (0..1000).collect();
/// assert_eq!(posting::intersect(&[3, 500, 2000], &big), vec![3, 500]);
/// assert_eq!(posting::intersect(&[], &big), Vec::<u32>::new());
/// ```
pub fn intersect(a: &[u32], b: &[u32]) -> Vec<u32> {
    let (small, large) = if a.len() <= b.len() { (a, b) } else { (b, a) };
    if small.is_empty() {
        return Vec::new();
    }
    if large.len() <= small.len().saturating_mul(4) {
        return merge_intersect(small, large);
    }
    let mut out = Vec::with_capacity(small.len());
    let mut rest = large;
    for &x in small {
        let pos = gallop(rest, x);
        rest = &rest[pos..];
        if let Some(&head) = rest.first() {
            if head == x {
                out.push(x);
                rest = &rest[1..];
            }
        } else {
            break;
        }
    }
    out
}

/// Two-pointer intersection for similarly sized lists.
fn merge_intersect(a: &[u32], b: &[u32]) -> Vec<u32> {
    let mut out = Vec::with_capacity(a.len().min(b.len()));
    let (mut i, mut j) = (0, 0);
    while i < a.len() && j < b.len() {
        match a[i].cmp(&b[j]) {
            std::cmp::Ordering::Less => i += 1,
            std::cmp::Ordering::Greater => j += 1,
            std::cmp::Ordering::Equal => {
                out.push(a[i]);
                i += 1;
                j += 1;
            }
        }
    }
    out
}

/// Unions any number of sorted id lists into one sorted deduplicated
/// list, borrowing the only non-empty one when there is one. Built for the
/// lists a walk over index keys yields — one per key of a prefix or a
/// range, most of them a single inline id — it collects them straight
/// into one list: lists that arrive in ascending order, as the master's
/// do for entries loaded in tree order, are concatenated, and any others
/// are sorted and deduplicated once, at the end.
///
/// ```
/// use fbdr_dit::posting;
/// use std::borrow::Cow;
///
/// let keys: [&[u32]; 3] = [&[4], &[], &[1, 9]];
/// assert_eq!(&*posting::union_walk(keys), &[1, 4, 9]);
/// assert!(matches!(posting::union_walk([&[][..], &[2, 5][..]]), Cow::Borrowed(&[2, 5])));
/// ```
pub fn union_walk<'a>(lists: impl IntoIterator<Item = &'a [u32]>) -> Cow<'a, [u32]> {
    let mut lists = lists.into_iter().filter(|l| !l.is_empty());
    let Some(first) = lists.next() else { return Cow::Owned(Vec::new()) };
    let Some(second) = lists.next() else { return Cow::Borrowed(first) };
    let mut out = Vec::with_capacity(2 * (first.len() + second.len()));
    let mut ascending = true;
    for list in [first, second].into_iter().chain(lists) {
        ascending &= out.last().is_none_or(|&last| last < list[0]);
        out.extend_from_slice(list);
    }
    if !ascending {
        out.sort_unstable();
        out.dedup();
    }
    Cow::Owned(out)
}

/// Unions a sequence of copy-on-write lists, borrowing when a single
/// non-empty input makes the union trivial.
pub fn union_cows<'a>(parts: impl IntoIterator<Item = Cow<'a, [u32]>>) -> Cow<'a, [u32]> {
    let mut parts: Vec<_> = parts.into_iter().filter(|p| !p.is_empty()).collect();
    match parts.len() {
        0 => Cow::Owned(Vec::new()),
        1 => parts.pop().expect("len checked"),
        _ => Cow::Owned(union_walk(parts.iter().map(|p| p.as_ref())).into_owned()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::BTreeSet;

    fn naive_intersect(a: &[u32], b: &[u32]) -> Vec<u32> {
        a.iter().filter(|x| b.contains(x)).copied().collect()
    }

    #[test]
    fn gallop_finds_lower_bound() {
        let v: Vec<u32> = (0..100).map(|i| i * 3).collect();
        assert_eq!(gallop(&v, 0), 0);
        assert_eq!(gallop(&v, 1), 1);
        assert_eq!(gallop(&v, 3), 1);
        assert_eq!(gallop(&v, 296), 99);
        assert_eq!(gallop(&v, 297), 99);
        assert_eq!(gallop(&v, 298), 100);
        assert_eq!(gallop(&[], 5), 0);
    }

    #[test]
    fn intersect_matches_naive_on_shapes() {
        let cases: Vec<(Vec<u32>, Vec<u32>)> = vec![
            (vec![], vec![1, 2, 3]),
            (vec![1, 2, 3], vec![]),
            (vec![1, 5, 9], vec![1, 5, 9]),
            (vec![2, 4, 6, 8], vec![1, 3, 5, 7]),
            ((0..1000).collect(), vec![0, 17, 999, 1001]),
            (vec![500], (0..10_000).collect()),
            ((0..10_000).step_by(7).collect(), (0..10_000).step_by(13).collect()),
        ];
        for (a, b) in cases {
            assert_eq!(intersect(&a, &b), naive_intersect(&a, &b), "a={a:?}");
            assert_eq!(intersect(&b, &a), naive_intersect(&a, &b), "commuted");
        }
    }

    #[test]
    fn union_dedups_and_sorts() {
        let u = union_walk([&[3, 9][..], &[1, 3, 5][..], &[][..], &[9][..]]);
        assert_eq!(u, vec![1, 3, 5, 9]);
    }

    #[test]
    fn union_cows_borrows_single_list() {
        let a: Vec<u32> = vec![1, 2];
        let parts = vec![Cow::Borrowed(&a[..]), Cow::Owned(Vec::new())];
        let u = union_cows(parts);
        assert!(matches!(u, Cow::Borrowed(_)));
        assert_eq!(&*u, &[1, 2]);
    }

    /// What a key's value weighs in either index's map node.
    #[test]
    fn a_posting_is_16_bytes() {
        assert_eq!(std::mem::size_of::<Posting>(), 16);
    }

    /// A posting built from scratch, id by id.
    fn built(ids: &[u32]) -> Posting {
        let mut p = Posting::default();
        for &id in ids {
            p.insert(id);
        }
        p
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Inserts and removes over a dozen ids, so that a posting goes
        /// from none to one, two and many ids and back again: after every
        /// step it holds the model's set, says so by its return values,
        /// and is in the one form those ids have — inline at one id. A
        /// clone taken on the way never sees a later edit.
        #[test]
        fn a_posting_is_its_set_in_one_form(ops in prop::collection::vec((any::<bool>(), 0u32..12), 0..200)) {
            let mut posting = Posting::default();
            let mut model = BTreeSet::new();
            let mut clones: Vec<(Posting, Vec<u32>)> = Vec::new();
            for (n, &(add, id)) in ops.iter().enumerate() {
                let (changed, expected) = if add {
                    (posting.insert(id), model.insert(id))
                } else {
                    (posting.remove(id), model.remove(&id))
                };
                prop_assert_eq!(changed, expected, "{} {}", if add { "insert" } else { "remove" }, id);
                let ids: Vec<u32> = model.iter().copied().collect();
                prop_assert_eq!(posting.as_slice(), &ids[..]);
                prop_assert_eq!(posting.is_empty(), ids.is_empty());
                prop_assert_eq!(posting.is_inline(), ids.len() == 1, "{:?}", ids);
                prop_assert_eq!(&posting, &built(&ids));
                if n % 5 == 0 {
                    clones.push((posting.clone(), ids));
                }
            }
            for (clone, ids) in &clones {
                prop_assert_eq!(clone.as_slice(), &ids[..]);
            }
        }

        /// A walk's union is the union of its lists, in either arrival
        /// order.
        #[test]
        fn a_walk_unions_its_lists(lists in prop::collection::vec(prop::collection::vec(0u32..64, 0..4), 0..12)) {
            let lists: Vec<Vec<u32>> = lists
                .into_iter()
                .map(|l| l.into_iter().collect::<BTreeSet<u32>>().into_iter().collect())
                .collect();
            let want: Vec<u32> = lists.iter().flatten().copied().collect::<BTreeSet<u32>>().into_iter().collect();
            prop_assert_eq!(&*union_walk(lists.iter().map(Vec::as_slice)), &want[..]);
            prop_assert_eq!(&*union_walk(lists.iter().rev().map(Vec::as_slice)), &want[..]);
        }
    }

    #[test]
    fn sorted_insert_remove_contains() {
        let mut v = Vec::new();
        for id in [5u32, 1, 9, 5, 3] {
            insert_sorted(&mut v, id);
        }
        assert_eq!(v, vec![1, 3, 5, 9]);
        assert!(contains(&v, 3));
        assert!(!contains(&v, 4));
        assert!(remove_sorted(&mut v, 3));
        assert!(!remove_sorted(&mut v, 3));
        assert_eq!(v, vec![1, 5, 9]);
    }
}
