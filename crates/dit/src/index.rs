//! The index rulebook, and the master store's attribute index.
//!
//! Both stores — the master's [`DitStore`](crate::DitStore) and the
//! replica's per-epoch snapshot — answer a filter from sorted
//! [`posting`] lists of dense entry ids. The rules live here, once; a
//! store brings only its storage and a `lists_for_predicate`:
//!
//! * **what is indexed** ([`keys_only_in`]) — every value under its
//!   normalized text, a value with an integer view additionally under
//!   that `i64`, nothing else: no per-attribute presence list, no
//!   non-integer in the numeric map;
//! * **how a predicate is scanned** ([`predicate_scan`], [`bound_scan`],
//!   [`scan_lists`]) — equality is one text key, an `initial` substring a
//!   text prefix, a range bound is typed by its assertion exactly as
//!   predicate evaluation is ([`AttrValue::range_cmp`]); presence and
//!   substrings without `initial` have no scan;
//! * **how a filter plans** ([`plan`]) — `And` intersects every plannable
//!   child, `Or` unions when every child plans, `Not` never plans.
//!
//! The storage differs because the stores do: the replica publishes
//! immutable epochs and keeps its lists behind `Arc`s in a persistent map,
//! the master edits plain `std` maps of `Vec<u32>` (`Indexes`, below) in
//! place.

use crate::posting;
use fbdr_ldap::{AttrName, AttrValue, Comparison, Filter, Predicate};
use std::borrow::{Borrow, Cow};
use std::collections::{BTreeMap, HashMap};
use std::ops::Bound;

/// One key an entry's id is listed under, within one attribute.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Key<'a> {
    /// A value's normalized text.
    Text(&'a str),
    /// A value's integer view; alternate spellings ("0500", "500", "+500")
    /// share the key.
    Num(i64),
}

/// The keys an entry holding `values` of an attribute is listed under and
/// one holding `other` is not — the whole "what is indexed" rule, as the
/// difference an edit has to apply. `other` is called once or twice per
/// value; an attribute's values are few.
///
/// A numeric key belongs to every spelling of the integer at once, so it
/// leaves only with the last of them: going from `{"0500", "500"}` to
/// `{"500"}` drops the text key `0500` and keeps `Num(500)`.
pub fn keys_only_in<'a, 'b, I>(
    values: impl IntoIterator<Item = &'a AttrValue>,
    other: impl Fn() -> I + Copy,
) -> impl Iterator<Item = Key<'a>>
where
    I: Iterator<Item = &'b AttrValue>,
{
    values.into_iter().filter(move |v| !other().any(|w| w == *v)).flat_map(move |v| {
        let num = v.as_int().filter(|&n| !other().any(|w| w.as_int() == Some(n)));
        std::iter::once(Key::Text(v.normalized())).chain(num.map(Key::Num))
    })
}

/// Which posting lists hold a predicate's candidates: their union is a
/// superset of the matching entries, exact for everything but a substring
/// pattern with more than an `initial` component.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scan<'a> {
    /// The list under one text key.
    Point(&'a str),
    /// The lists under every text key starting with the prefix.
    Prefix(&'a str),
    /// The lists under the text keys between the bounds.
    Text(Bound<&'a str>, Bound<&'a str>),
    /// The lists under the numeric keys between the bounds.
    Num(Bound<i64>, Bound<i64>),
}

/// The scan of a single `>=` (`is_lower`) or `<=` bound, typed as the
/// predicate is: an integer assertion matches integer values only,
/// numerically — an exact range of the numeric map, whatever the values'
/// spellings; a string assertion compares normalized text, which is the
/// text map's own order.
pub fn bound_scan(bound: &AttrValue, is_lower: bool) -> Scan<'_> {
    match (bound.as_int(), is_lower) {
        (Some(n), true) => Scan::Num(Bound::Included(n), Bound::Unbounded),
        (Some(n), false) => Scan::Num(Bound::Unbounded, Bound::Included(n)),
        (None, true) => Scan::Text(Bound::Included(bound.normalized()), Bound::Unbounded),
        (None, false) => Scan::Text(Bound::Unbounded, Bound::Included(bound.normalized())),
    }
}

/// The scan that bounds a predicate, `None` when the index cannot:
/// presence (its list would be population-sized for every attribute, and
/// edited on every add and delete) and substring patterns without an
/// `initial` component. The caller scans, or the other conjuncts bound
/// the result.
pub fn predicate_scan(p: &Predicate) -> Option<Scan<'_>> {
    match p.comparison() {
        Comparison::Eq(v) => Some(Scan::Point(v.normalized())),
        Comparison::Ge(v) => Some(bound_scan(v, true)),
        Comparison::Le(v) => Some(bound_scan(v, false)),
        Comparison::Present => None,
        Comparison::Substring(pat) => pat.initial().map(Scan::Prefix),
    }
}

/// Reads the lists a scan names off the two ordered maps a store keeps per
/// attribute, and unions them: `point` looks one text key up, `text` and
/// `num` walk a key range in order.
pub fn scan_lists<'a, 's, T, N>(
    scan: &'s Scan<'s>,
    point: impl FnOnce(&'s str) -> Option<&'a [u32]>,
    text: impl FnOnce(Bound<&'s str>, Bound<&'s str>) -> T,
    num: impl FnOnce(Bound<&'s i64>, Bound<&'s i64>) -> N,
) -> Cow<'a, [u32]>
where
    T: Iterator<Item = (&'a str, &'a [u32])>,
    N: Iterator<Item = &'a [u32]>,
{
    use crate::posting::union_cows as union;
    match *scan {
        Scan::Point(k) => point(k).map_or(Cow::Owned(Vec::new()), Cow::Borrowed),
        Scan::Prefix(p) => union(
            text(Bound::Included(p), Bound::Unbounded)
                .take_while(|(k, _)| k.starts_with(p))
                .map(|(_, list)| Cow::Borrowed(list)),
        ),
        Scan::Text(lo, hi) => union(text(lo, hi).map(|(_, list)| Cow::Borrowed(list))),
        Scan::Num(ref lo, ref hi) => union(num(lo.as_ref(), hi.as_ref()).map(Cow::Borrowed)),
    }
}

/// Compiles a filter into a candidate posting list: a sorted id set
/// guaranteed to be a **superset** of the entries matching `filter`
/// (callers verify the filter on the candidates). `lists_for_predicate`
/// is the store: [`scan_lists`] of what [`predicate_scan`] names over the
/// predicate's attribute, `None` when it names nothing. Returns `None`
/// when the index cannot bound the result and the caller must scan.
///
/// Conjunctions intersect every plannable child, smallest first
/// (galloping); disjunctions require every child to plan and union them.
pub fn plan<'a>(
    filter: &Filter,
    lists_for_predicate: &impl Fn(&Predicate) -> Option<Cow<'a, [u32]>>,
) -> Option<Cow<'a, [u32]>> {
    match filter {
        Filter::Pred(p) => lists_for_predicate(p),
        Filter::Not(_) => None,
        Filter::And(fs) => {
            let mut plans: Vec<Cow<'a, [u32]>> =
                fs.iter().filter_map(|f| plan(f, lists_for_predicate)).collect();
            plans.sort_by_key(|p| p.len());
            plans.into_iter().reduce(|acc, p| Cow::Owned(posting::intersect(&acc, &p)))
        }
        Filter::Or(fs) => {
            let parts: Option<Vec<_>> = fs.iter().map(|f| plan(f, lists_for_predicate)).collect();
            parts.map(posting::union_cows)
        }
    }
}

/// Posting lists for one attribute, edited in place.
#[derive(Debug, Default, Clone, PartialEq)]
struct AttrIndex {
    text: BTreeMap<Box<str>, Vec<u32>>,
    num: BTreeMap<i64, Vec<u32>>,
}

fn add<K, Q>(map: &mut BTreeMap<K, Vec<u32>>, key: &Q, make_key: impl FnOnce() -> K, id: u32)
where
    K: Ord + Borrow<Q>,
    Q: Ord + ?Sized,
{
    match map.get_mut(key) {
        Some(list) => {
            posting::insert_sorted(list, id);
        }
        None => {
            map.insert(make_key(), vec![id]);
        }
    }
}

fn remove<K, Q>(map: &mut BTreeMap<K, Vec<u32>>, key: &Q, id: u32)
where
    K: Ord + Borrow<Q>,
    Q: Ord + ?Sized,
{
    if let Some(list) = map.get_mut(key) {
        posting::remove_sorted(list, id);
        if list.is_empty() {
            map.remove(key);
        }
    }
}

/// The master store's index over all attributes, keyed by the lowercased
/// attribute name. Never serialized: the store rebuilds it from its
/// entries.
#[derive(Debug, Default, Clone, PartialEq)]
pub(crate) struct Indexes {
    by_attr: HashMap<Box<str>, AttrIndex>,
}

impl Indexes {
    /// Lists `id` under `keys` of `attr`.
    pub(crate) fn insert<'a>(&mut self, attr: &AttrName, keys: impl Iterator<Item = Key<'a>>, id: u32) {
        let mut keys = keys.peekable();
        if keys.peek().is_none() {
            return;
        }
        let idx = match self.by_attr.get_mut(attr.lower()) {
            Some(idx) => idx,
            None => self.by_attr.entry(attr.lower().into()).or_default(),
        };
        for key in keys {
            match key {
                Key::Text(k) => add(&mut idx.text, k, || k.into(), id),
                Key::Num(n) => add(&mut idx.num, &n, || n, id),
            }
        }
    }

    /// Unlists `id` from `keys` of `attr`; the attribute leaves with its
    /// last key. Both maps are asked: an integer changing its spelling
    /// takes the only text key out while its numeric key stays listed.
    pub(crate) fn remove<'a>(&mut self, attr: &AttrName, keys: impl Iterator<Item = Key<'a>>, id: u32) {
        let Some(idx) = self.by_attr.get_mut(attr.lower()) else { return };
        for key in keys {
            match key {
                Key::Text(k) => remove(&mut idx.text, k, id),
                Key::Num(n) => remove(&mut idx.num, &n, id),
            }
        }
        if idx.text.is_empty() && idx.num.is_empty() {
            self.by_attr.remove(attr.lower());
        }
    }

    /// The store's half of [`plan`].
    pub(crate) fn lists_for_predicate(&self, p: &Predicate) -> Option<Cow<'_, [u32]>> {
        let scan = predicate_scan(p)?;
        let Some(idx) = self.by_attr.get(p.attr().lower()) else {
            return Some(Cow::Owned(Vec::new()));
        };
        Some(scan_lists(
            &scan,
            |k| idx.text.get(k).map(Vec::as_slice),
            |lo, hi| idx.text.range::<str, _>((lo, hi)).map(|(k, list)| (&**k, list.as_slice())),
            |lo, hi| idx.num.range((lo, hi)).map(|(_, list)| list.as_slice()),
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Lists `id` under every key of `attr: value`, as adding an entry
    /// with that one value would.
    fn insert(ix: &mut Indexes, attr: &str, value: &str, id: u32) {
        let (attr, value) = (AttrName::new(attr), AttrValue::new(value));
        ix.insert(&attr, keys_only_in([&value], std::iter::empty), id);
    }

    fn remove(ix: &mut Indexes, attr: &str, value: &str, id: u32) {
        let (attr, value) = (AttrName::new(attr), AttrValue::new(value));
        ix.remove(&attr, keys_only_in([&value], std::iter::empty), id);
    }

    fn sample() -> Indexes {
        let mut ix = Indexes::default();
        insert(&mut ix, "serialNumber", "045612", 0);
        insert(&mut ix, "serialNumber", "045699", 1);
        insert(&mut ix, "serialNumber", "120000", 2);
        ix
    }

    fn plan_of(ix: &Indexes, f: &str) -> Option<Vec<u32>> {
        plan(&Filter::parse(f).unwrap(), &|p| ix.lists_for_predicate(p)).map(Cow::into_owned)
    }

    #[test]
    fn eq_lookup() {
        let ix = sample();
        assert_eq!(plan_of(&ix, "(serialnumber=045612)"), Some(vec![0]));
        assert_eq!(plan_of(&ix, "(serialnumber=999)"), Some(vec![]));
        assert_eq!(plan_of(&ix, "(mail=x)"), Some(vec![]));
    }

    #[test]
    fn prefix_lookup() {
        let ix = sample();
        assert_eq!(plan_of(&ix, "(serialnumber=0456*)"), Some(vec![0, 1]));
        assert_eq!(plan_of(&ix, "(serialnumber=04561*)"), Some(vec![0]));
        assert_eq!(plan_of(&ix, "(serialnumber=9*)"), Some(vec![]));
        // No initial component: cannot plan.
        assert_eq!(plan_of(&ix, "(serialnumber=*5)"), None);
    }

    #[test]
    fn range_lookup_is_numeric_for_ints() {
        let ix = sample();
        // 45612 and 45699 and 120000 numerically.
        assert_eq!(plan_of(&ix, "(serialnumber>=45650)"), Some(vec![1, 2]));
        assert_eq!(plan_of(&ix, "(serialnumber<=45650)"), Some(vec![0]));
        // A string-typed bound compares text: "045…" < "10x" < "120000".
        assert_eq!(plan_of(&ix, "(serialnumber>=10x)"), Some(vec![2]));
        assert_eq!(plan_of(&ix, "(serialnumber<=10x)"), Some(vec![0, 1]));
    }

    #[test]
    fn integer_bounds_are_exact_over_spellings_and_skip_non_integers() {
        let mut ix = Indexes::default();
        for (id, v) in ["0500", "500", "+500", "499", "501", "5oo", "abc"].iter().enumerate() {
            insert(&mut ix, "n", v, id as u32);
        }
        insert(&mut ix, "n", &i64::MIN.to_string(), 7);
        insert(&mut ix, "n", &i64::MAX.to_string(), 8);
        assert_eq!(plan_of(&ix, "(n>=500)"), Some(vec![0, 1, 2, 4, 8]));
        assert_eq!(plan_of(&ix, "(n<=500)"), Some(vec![0, 1, 2, 3, 7]));
        assert_eq!(plan_of(&ix, "(&(n>=500)(n<=0500))"), Some(vec![0, 1, 2]));
        assert_eq!(plan_of(&ix, &format!("(n>={})", i64::MIN)), Some(vec![0, 1, 2, 3, 4, 7, 8]));
        assert_eq!(plan_of(&ix, &format!("(n>={})", i64::MAX)), Some(vec![8]));
        assert_eq!(plan_of(&ix, &format!("(n<={})", i64::MIN)), Some(vec![7]));
        // Equality stays textual: one spelling, one entry.
        assert_eq!(plan_of(&ix, "(n=500)"), Some(vec![1]));
    }

    #[test]
    fn a_numeric_key_leaves_with_its_last_spelling() {
        let (old, new) = ([AttrValue::new("0500"), AttrValue::new("500")], [AttrValue::new("500")]);
        let gone: Vec<Key<'_>> = keys_only_in(&old, || new.iter()).collect();
        assert_eq!(gone, [Key::Text("0500")]);
        let gained: Vec<Key<'_>> = keys_only_in(&new, || old.iter()).collect();
        assert_eq!(gained, []);
        let all: Vec<Key<'_>> = keys_only_in(&old, std::iter::empty).collect();
        assert_eq!(all, [Key::Text("0500"), Key::Num(500), Key::Text("500"), Key::Num(500)]);
    }

    #[test]
    fn removal_drops_emptied_lists() {
        let mut ix = sample();
        remove(&mut ix, "serialNumber", "045612", 0);
        assert_eq!(plan_of(&ix, "(serialnumber=045612)"), Some(vec![]));
        assert_eq!(plan_of(&ix, "(serialnumber<=45650)"), Some(vec![]));
        let idx = &ix.by_attr["serialnumber"];
        assert_eq!((idx.text.len(), idx.num.len()), (2, 2));
    }

    #[test]
    fn multiple_ids_per_value() {
        let mut ix = Indexes::default();
        insert(&mut ix, "dept", "2406", 3);
        insert(&mut ix, "dept", "2406", 1);
        assert_eq!(plan_of(&ix, "(dept=2406)"), Some(vec![1, 3]));
        remove(&mut ix, "dept", "2406", 3);
        assert_eq!(plan_of(&ix, "(dept=2406)"), Some(vec![1]));
    }

    #[test]
    fn boolean_plans() {
        let mut ix = Indexes::default();
        for id in 0..12u32 {
            insert(&mut ix, "serialNumber", &format!("{}", 100_000 + id), id);
            insert(&mut ix, "dept", &format!("{}", id % 3), id);
        }
        // And intersects every plannable conjunct.
        assert_eq!(plan_of(&ix, "(&(dept=0)(serialNumber>=100006))"), Some(vec![6, 9]));
        // A non-plannable conjunct is simply dropped from the plan.
        assert_eq!(plan_of(&ix, "(&(dept=1)(serialNumber=*x*))"), Some(vec![1, 4, 7, 10]));
        assert_eq!(plan_of(&ix, "(&(dept=1)(dept=*))"), Some(vec![1, 4, 7, 10]));
        // Or unions, but only if every branch plans.
        assert_eq!(plan_of(&ix, "(|(serialNumber=100001)(dept=2))"), Some(vec![1, 2, 5, 8, 11]));
        assert_eq!(plan_of(&ix, "(|(dept=0)(x=*y))"), None);
        assert_eq!(plan_of(&ix, "(|(dept=0)(dept=*))"), None);
        assert_eq!(plan_of(&ix, "(!(dept=0))"), None);
        assert_eq!(plan_of(&ix, "(&(!(dept=0))(x=*y))"), None);
        // Presence has no list.
        assert_eq!(plan_of(&ix, "(dept=*)"), None);
    }
}
