//! Sorted `u32` posting lists: the one id-set representation in the stack.
//!
//! A posting list is a strictly increasing `Vec<u32>` of dense entry (or
//! session) ids: the master store's attribute index, its session ledgers
//! and routing buckets, and the replica's filter contents and snapshot
//! index are all edited and combined with the functions here. A list is 4
//! bytes per member and membership is a binary search. Intersection
//! *gallops* (exponential probe + binary search) through the longer list,
//! so intersecting a point-query candidate list with a country-sized list
//! costs `O(small · log large)` rather than `O(large)`.

use std::borrow::Cow;

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
/// list. Used by `Or` plans and range scans (one list per indexed value).
pub fn union_many<'a, I: IntoIterator<Item = &'a [u32]>>(lists: I) -> Vec<u32> {
    let mut out: Vec<u32> = Vec::new();
    for l in lists {
        out.extend_from_slice(l);
    }
    out.sort_unstable();
    out.dedup();
    out
}

/// Unions a sequence of copy-on-write lists, borrowing when a single
/// non-empty input makes the union trivial.
pub fn union_cows<'a>(parts: impl IntoIterator<Item = Cow<'a, [u32]>>) -> Cow<'a, [u32]> {
    let mut parts: Vec<_> = parts.into_iter().filter(|p| !p.is_empty()).collect();
    match parts.len() {
        0 => Cow::Owned(Vec::new()),
        1 => parts.pop().expect("len checked"),
        _ => Cow::Owned(union_many(parts.iter().map(|p| p.as_ref()))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
        let u = union_many([&[3, 9][..], &[1, 3, 5][..], &[][..], &[9][..]]);
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
