//! Per-epoch attribute indexes over a content snapshot.
//!
//! A [`SnapshotIndex`] maps attribute values to sorted posting lists of
//! interned entry ids, mirroring the master-side DIT index design
//! (equality via normalized text, ranges via [`AttrValue`] order, prefix
//! via text-range scans) but keyed by dense ids instead of DNs.
//!
//! Lifecycle: every map in the index is a persistent [`PMap`] and every
//! posting list sits behind its own `Arc`, so cloning the index for the
//! next epoch is one pointer copy and the two epochs share every node the
//! writer does not touch. A cycle pays for what it changes: per changed
//! `(attribute, value)` pair one root-to-leaf path in each of the two
//! value maps (a few nodes of at most 32 items) plus the posting lists it
//! edits; [`SnapshotIndex::reindex`] diffs the old and new version of an
//! entry so a `Modify` touches only the values that differ. A node or
//! list is copied on its first touch in a cycle and edited in place on
//! every later one, so a bulk install stays a bulk load. The index is
//! never rebuilt from the entry store.

use crate::persistent::PMap;
use crate::posting;
use fbdr_ldap::{AttrValue, Comparison, Entry, Filter, Predicate};
use std::borrow::Cow;
use std::ops::Bound;
use std::sync::Arc;

/// A posting list shared between the epochs that do not edit it.
type Ids = Arc<Vec<u32>>;

/// Posting lists for one attribute.
#[derive(Debug, Clone, Default)]
struct AttrPostings {
    /// Normalized value text → ids, in lexicographic order (equality and
    /// prefix lookups).
    text: PMap<Arc<str>, Ids>,
    /// Values in [`AttrValue`] order (numeric-aware) → ids (range
    /// lookups with the same semantics as predicate evaluation).
    ord: PMap<Arc<AttrValue>, Ids>,
    /// Ids of entries carrying the attribute at all.
    present: Ids,
}

/// An edit of one posting list; returns whether the list still holds an
/// id afterwards (an emptied list is dropped with its key, unedited).
type Edit = fn(&mut Ids, u32) -> bool;

fn add_id(list: &mut Ids, id: u32) -> bool {
    posting::insert_sorted(Arc::make_mut(list), id);
    true
}

fn remove_id(list: &mut Ids, id: u32) -> bool {
    if **list == [id] {
        return false;
    }
    posting::remove_sorted(Arc::make_mut(list), id);
    !list.is_empty()
}

impl AttrPostings {
    fn edit_value(&mut self, v: &AttrValue, id: u32, edit: Edit) {
        self.text.update(v.normalized(), || Arc::from(v.normalized()), |list| edit(list, id));
        self.ord.update(v, || Arc::new(v.clone()), |list| edit(list, id));
    }
}

/// Immutable-per-epoch equality/prefix/range index over snapshot entries.
#[derive(Debug, Clone, Default)]
pub(crate) struct SnapshotIndex {
    /// Lowercased attribute name → the attribute's posting lists.
    by_attr: PMap<Arc<str>, AttrPostings>,
}

impl SnapshotIndex {
    /// Moves `id` from the attribute values of `old` to those of `new`
    /// (`None`: the slot was, or becomes, empty), touching only what
    /// differs. `old` must be the entry version last indexed under `id`.
    pub(crate) fn reindex(&mut self, id: u32, old: Option<&Entry>, new: Option<&Entry>) {
        if let Some(old) = old {
            self.edit_difference(id, old, new, remove_id);
        }
        if let Some(new) = new {
            self.edit_difference(id, new, old, add_id);
        }
    }

    /// Applies `edit` to the posting list of every attribute and value
    /// `e` carries and `other` does not.
    fn edit_difference(&mut self, id: u32, e: &Entry, other: Option<&Entry>, edit: Edit) {
        for (attr, values) in e.attrs() {
            let attr_differs = !other.is_some_and(|o| o.has_attr(attr));
            let differs = |v: &&AttrValue| !other.is_some_and(|o| o.has_value(attr, v));
            if !attr_differs && !values.iter().any(|v| differs(&v)) {
                continue;
            }
            self.by_attr.update(attr.lower(), || Arc::from(attr.lower()), |idx| {
                // The last entry carrying the attribute takes the whole
                // attribute with it.
                if attr_differs && !edit(&mut idx.present, id) {
                    return false;
                }
                for v in values.iter().filter(differs) {
                    idx.edit_value(v, id, edit);
                }
                true
            });
        }
    }

    /// Compiles a filter into a candidate posting list: a sorted id set
    /// guaranteed to be a **superset** of the entries matching `filter`
    /// (callers verify residual predicates on the candidates). Returns
    /// `None` when the index cannot bound the result (negations,
    /// substring patterns without an `initial` component) and the caller
    /// must scan.
    ///
    /// Conjunctions intersect every plannable child (galloping);
    /// disjunctions require every child to plan and union them.
    pub(crate) fn plan<'a>(&'a self, filter: &Filter) -> Option<Cow<'a, [u32]>> {
        if let Some(p) = filter.as_predicate() {
            return self.plan_pred(p);
        }
        if filter.negated().is_some() {
            return None;
        }
        let children = filter.children();
        match filter {
            Filter::And(_) => {
                let mut plans: Vec<Cow<'a, [u32]>> =
                    children.iter().filter_map(|c| self.plan(c)).collect();
                if plans.is_empty() {
                    return None;
                }
                plans.sort_by_key(|p| p.len());
                let mut it = plans.into_iter();
                let mut acc = it.next().expect("non-empty");
                for p in it {
                    if acc.is_empty() {
                        break;
                    }
                    acc = Cow::Owned(posting::intersect(&acc, &p));
                }
                Some(acc)
            }
            Filter::Or(_) => {
                let mut parts: Vec<Cow<'a, [u32]>> = Vec::with_capacity(children.len());
                for c in children {
                    parts.push(self.plan(c)?);
                }
                Some(posting::union_cows(parts))
            }
            _ => None,
        }
    }

    fn plan_pred<'a>(&'a self, p: &Predicate) -> Option<Cow<'a, [u32]>> {
        let idx = self.by_attr.get(p.attr().lower());
        match p.comparison() {
            Comparison::Eq(v) => Some(
                idx.and_then(|i| i.text.get(v.normalized()))
                    .map_or(Cow::Owned(Vec::new()), |l| Cow::Borrowed(l.as_slice())),
            ),
            Comparison::Ge(v) => Some(self.one_bound(idx, v, true)),
            Comparison::Le(v) => Some(self.one_bound(idx, v, false)),
            Comparison::Present => {
                Some(idx.map_or(Cow::Owned(Vec::new()), |i| Cow::Borrowed(i.present.as_slice())))
            }
            Comparison::Substring(pat) => {
                let init = pat.initial()?;
                let Some(i) = idx else { return Some(Cow::Owned(Vec::new())) };
                let lists = i
                    .text
                    .range::<str>(Bound::Included(init), Bound::Unbounded)
                    .take_while(|(k, _)| k.starts_with(init))
                    .map(|(_, l)| Cow::Borrowed(l.as_slice()))
                    .collect();
                Some(posting::union_cows(lists))
            }
        }
    }

    /// Candidates for a single `>=` (`is_lower`) or `<=` bound. Mirrors
    /// the DIT index's typed dispatch: integer bounds scan the `ord` map
    /// widened by one (alternate spellings of the bound value, "0500" for
    /// 500, sort before its canonical spelling), string bounds scan the
    /// `text` map whose order is exactly the predicate's.
    fn one_bound<'a>(
        &'a self,
        idx: Option<&'a AttrPostings>,
        bound: &AttrValue,
        is_lower: bool,
    ) -> Cow<'a, [u32]> {
        let Some(i) = idx else { return Cow::Owned(Vec::new()) };
        match bound.as_int() {
            Some(n) => {
                let (lo, hi) = if is_lower {
                    let b = if n > i64::MIN {
                        Bound::Excluded(AttrValue::new((n - 1).to_string()))
                    } else {
                        Bound::Unbounded
                    };
                    (b, Bound::Unbounded)
                } else {
                    let b = if n < i64::MAX {
                        Bound::Excluded(AttrValue::new((n + 1).to_string()))
                    } else {
                        Bound::Unbounded
                    };
                    (Bound::Unbounded, b)
                };
                let lists = i
                    .ord
                    .range(lo.as_ref(), hi.as_ref())
                    .map(|(_, l)| Cow::Borrowed(l.as_slice()));
                posting::union_cows(lists.collect())
            }
            None => {
                let key = bound.normalized();
                let (lo, hi) = if is_lower {
                    (Bound::Included(key), Bound::Unbounded)
                } else {
                    (Bound::Unbounded, Bound::Included(key))
                };
                let lists = i
                    .text
                    .range::<str>(lo, hi)
                    .map(|(_, l)| Cow::Borrowed(l.as_slice()));
                posting::union_cows(lists.collect())
            }
        }
    }
}

#[cfg(test)]
impl SnapshotIndex {
    /// Addresses of every map node and posting list, for
    /// structural-sharing assertions.
    pub(crate) fn node_addrs(&self) -> Vec<usize> {
        fn lists<K: Ord>(map: &PMap<K, Ids>, out: &mut Vec<usize>) {
            out.extend(map.node_addrs());
            out.extend(map.iter().map(|(_, l)| Arc::as_ptr(l) as usize));
        }
        let mut out = self.by_attr.node_addrs();
        for (_, idx) in self.by_attr.iter() {
            lists(&idx.text, &mut out);
            lists(&idx.ord, &mut out);
            out.push(Arc::as_ptr(&idx.present) as usize);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn entry(id: u32) -> Entry {
        Entry::new(format!("cn=e{id},o=x").parse().unwrap())
            .with("objectclass", "person")
            .with("serialNumber", &format!("{:06}", 100_000 + id))
            .with("dept", &format!("{}", id % 3))
    }

    fn sample(n: u32) -> SnapshotIndex {
        let mut ix = SnapshotIndex::default();
        for id in 0..n {
            ix.reindex(id, None, Some(&entry(id)));
        }
        ix
    }

    fn plan_of(ix: &SnapshotIndex, f: &str) -> Option<Vec<u32>> {
        ix.plan(&Filter::parse(f).unwrap()).map(|c| c.into_owned())
    }

    #[test]
    fn equality_and_present_plans() {
        let ix = sample(10);
        assert_eq!(plan_of(&ix, "(serialNumber=100003)"), Some(vec![3]));
        assert_eq!(plan_of(&ix, "(serialNumber=999999)"), Some(vec![]));
        assert_eq!(plan_of(&ix, "(missing=1)"), Some(vec![]));
        assert_eq!(plan_of(&ix, "(objectclass=*)"), Some((0..10).collect()));
    }

    #[test]
    fn prefix_and_range_plans() {
        let ix = sample(20);
        // 100000..100019 — prefix 10001 covers ids 10..19.
        assert_eq!(plan_of(&ix, "(serialNumber=10001*)"), Some((10..20).collect()));
        assert_eq!(plan_of(&ix, "(serialNumber>=100015)"), Some((15..20).collect()));
        assert_eq!(plan_of(&ix, "(serialNumber<=100002)"), Some((0..3).collect()));
        // No initial component: cannot plan.
        assert_eq!(plan_of(&ix, "(serialNumber=*5)"), None);
    }

    #[test]
    fn boolean_plans() {
        let ix = sample(12);
        // And intersects; the dept list has ~4 ids, serial range 6.
        assert_eq!(plan_of(&ix, "(&(dept=0)(serialNumber>=100006))"), Some(vec![6, 9]));
        // A non-plannable conjunct is simply dropped from the plan.
        assert_eq!(
            plan_of(&ix, "(&(dept=1)(serialNumber=*x*))"),
            Some(vec![1, 4, 7, 10])
        );
        // Or unions, but only if every branch plans.
        assert_eq!(
            plan_of(&ix, "(|(serialNumber=100001)(dept=2))"),
            Some(vec![1, 2, 5, 8, 11])
        );
        assert_eq!(plan_of(&ix, "(|(dept=0)(x=*y))"), None);
        assert_eq!(plan_of(&ix, "(!(dept=0))"), None);
        assert_eq!(plan_of(&ix, "(&(!(dept=0))(x=*y))"), None);
    }

    #[test]
    fn reindex_moves_only_the_values_that_differ() {
        let mut ix = sample(6);
        let untouched = ix.by_attr.get("serialnumber").unwrap().text.node_addrs();
        let mut new = entry(2);
        new.replace("dept", ["7"]);
        new.add("mail", "two@x");
        ix.reindex(2, Some(&entry(2)), Some(&new));
        assert_eq!(plan_of(&ix, "(dept=2)"), Some(vec![5]));
        assert_eq!(plan_of(&ix, "(dept=7)"), Some(vec![2]));
        assert_eq!(plan_of(&ix, "(dept>=3)"), Some(vec![2]));
        assert_eq!(plan_of(&ix, "(mail=*)"), Some(vec![2]));
        assert_eq!(plan_of(&ix, "(serialNumber=100002)"), Some(vec![2]));
        assert_eq!(plan_of(&ix, "(objectclass=*)"), Some((0..6).collect()));
        assert_eq!(ix.by_attr.get("serialnumber").unwrap().text.node_addrs(), untouched);
        // Back again: the added attribute leaves with its only carrier.
        ix.reindex(2, Some(&new), Some(&entry(2)));
        assert_eq!(plan_of(&ix, "(mail=*)"), Some(vec![]));
        assert!(ix.by_attr.get("mail").is_none());
        assert_eq!(plan_of(&ix, "(dept=2)"), Some(vec![2, 5]));
    }

    #[test]
    fn remove_keeps_index_exact() {
        let mut ix = sample(6);
        ix.reindex(2, Some(&entry(2)), None);
        assert_eq!(plan_of(&ix, "(serialNumber=100002)"), Some(vec![]));
        assert_eq!(plan_of(&ix, "(dept=2)"), Some(vec![5]));
        assert_eq!(plan_of(&ix, "(objectclass=*)"), Some(vec![0, 1, 3, 4, 5]));
        // Removing everything empties the maps entirely.
        for id in [0u32, 1, 3, 4, 5] {
            ix.reindex(id, Some(&entry(id)), None);
        }
        assert!(ix.by_attr.iter().next().is_none());
    }
}
