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
//!   child, `Or` unions when every child plans, `Not` never plans;
//! * **when a plan is the answer** ([`Plan::exact`]) — a predicate whose
//!   scan names its whole match set (`scan_is_exact`), an `And` of
//!   exact children that all planned, an `Or` of exact children. A store
//!   visits an exact plan's ids without evaluating the filter on them.
//!
//! The storage differs because the stores do: the replica publishes
//! immutable epochs and keeps its lists behind `Arc`s in a persistent map,
//! the master edits plain `std` maps of `Vec<u32>` (`Indexes`, below) in
//! place. Both key their text maps by [`TextKey`], which keeps short text
//! in the map node itself: a walk down either tree compares the bytes it
//! finds in the nodes it descends and follows no pointer per key.

use crate::posting;
use fbdr_ldap::{AttrName, AttrValue, Comparison, Filter, Predicate, ValueSet};
use std::borrow::{Borrow, Cow};
use std::cmp::Ordering;
use std::collections::{BTreeMap, HashMap};
use std::fmt;
use std::hash::{Hash, Hasher};
use std::ops::Bound;
use std::sync::Arc;

/// Bytes of text a [`TextKey`] holds inline: what is left of 24 bytes
/// after the variant tag and the length. Serial numbers, department
/// numbers, surnames and attribute names fit; a mail address mostly does
/// not and goes behind the `Arc`. The size is the one the benchmark's
/// `resident_bytes_per_entry` bound (6 %) allows (DESIGN §9): 32 bytes
/// (text of up to 30) measured +6.2 … +10.5 %, 24 bytes −2.2 … +1.5 %.
const INLINE: usize = 22;

/// The key of a text map in either store's index: a normalized value's
/// text, or a lowercased attribute name.
///
/// 24 bytes. Text of at most 22 bytes sits in the key — in the map node —
/// and longer text behind an `Arc<str>`, so a key is cheap to clone with
/// its node either way. Keys order, compare and hash as their bytes, which
/// is `str`'s own order, and borrow as `[u8]`: a map is searched with
/// `text.as_bytes()` and no key is built to look one up.
///
/// ```
/// use fbdr_dit::index::TextKey;
/// use std::collections::BTreeMap;
///
/// let mut map: BTreeMap<TextKey, u32> = BTreeMap::new();
/// map.insert(TextKey::new("045612"), 1);
/// map.insert(TextKey::new("a.rather.long.address@us.xyz.com"), 2);
/// assert_eq!(map.get("045612".as_bytes()), Some(&1));
/// assert_eq!(map.keys().next().map(TextKey::as_bytes), Some("045612".as_bytes()));
/// ```
#[derive(Clone)]
pub struct TextKey(Repr);

#[derive(Clone)]
enum Repr {
    Inline { len: u8, bytes: [u8; INLINE] },
    Heap(Arc<str>),
}

impl TextKey {
    /// The key of `text`.
    pub fn new(text: &str) -> Self {
        let mut bytes = [0; INLINE];
        match bytes.get_mut(..text.len()) {
            Some(head) => {
                head.copy_from_slice(text.as_bytes());
                TextKey(Repr::Inline { len: text.len() as u8, bytes })
            }
            None => TextKey(Repr::Heap(text.into())),
        }
    }

    /// The text's bytes (valid UTF-8: a key is only made from a `str`).
    pub fn as_bytes(&self) -> &[u8] {
        match &self.0 {
            Repr::Inline { len, bytes } => &bytes[..usize::from(*len)],
            Repr::Heap(text) => text.as_bytes(),
        }
    }
}

impl Borrow<[u8]> for TextKey {
    fn borrow(&self) -> &[u8] {
        self.as_bytes()
    }
}

impl PartialEq for TextKey {
    fn eq(&self, other: &Self) -> bool {
        self.as_bytes() == other.as_bytes()
    }
}

impl Eq for TextKey {}

impl PartialOrd for TextKey {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for TextKey {
    fn cmp(&self, other: &Self) -> Ordering {
        self.as_bytes().cmp(other.as_bytes())
    }
}

impl Hash for TextKey {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.as_bytes().hash(state);
    }
}

impl fmt::Debug for TextKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(&String::from_utf8_lossy(self.as_bytes()), f)
    }
}

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
/// difference an edit has to apply. `other` is asked once or twice per
/// value, by binary search: a member added to a group of ten thousand
/// costs the group's length, not its square.
///
/// A numeric key belongs to every spelling of the integer at once, so it
/// leaves only with the last of them: going from `{"0500", "500"}` to
/// `{"500"}` drops the text key `0500` and keeps `Num(500)`.
pub fn keys_only_in<'a>(
    values: impl IntoIterator<Item = &'a AttrValue>,
    other: Option<&'a ValueSet>,
) -> impl Iterator<Item = Key<'a>> {
    values.into_iter().filter(move |v| !other.is_some_and(|o| o.contains(v))).flat_map(move |v| {
        let num = v.as_int().filter(|&n| !other.is_some_and(|o| o.contains_int(n)));
        std::iter::once(Key::Text(v.normalized())).chain(num.map(Key::Num))
    })
}

/// Which posting lists hold a predicate's candidates: their union is a
/// superset of the matching entries, exact for everything but a substring
/// pattern with more than an `initial` component (`scan_is_exact`).
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

/// Whether the lists [`predicate_scan`] names hold *exactly* the entries
/// matching `p`. They do when the scan reads the very key predicate
/// evaluation compares: equality the value's normalized text, a `>=` or
/// `<=` bound the integer view under an integer assertion and the
/// normalized text otherwise ([`AttrValue::range_cmp`]), a prefix-only
/// substring every normalized text starting with its `initial`. A pattern
/// with an `any` or `final` part is only bounded by its prefix — `p1*2`
/// scans `p13` too — and presence has no scan.
fn scan_is_exact(p: &Predicate) -> bool {
    match p.comparison() {
        Comparison::Eq(_) | Comparison::Ge(_) | Comparison::Le(_) => true,
        Comparison::Present => false,
        Comparison::Substring(pat) => pat.is_prefix_only(),
    }
}

/// Reads the lists a scan names off the two ordered maps a store keeps per
/// attribute, and unions them: `point` looks one text key up, `text` and
/// `num` walk a key range in order. Text keys go in and come out as bytes
/// ([`TextKey`]).
pub fn scan_lists<'a, 's, T, N>(
    scan: &'s Scan<'s>,
    point: impl FnOnce(&'s [u8]) -> Option<&'a [u32]>,
    text: impl FnOnce(Bound<&'s [u8]>, Bound<&'s [u8]>) -> T,
    num: impl FnOnce(Bound<&'s i64>, Bound<&'s i64>) -> N,
) -> Cow<'a, [u32]>
where
    T: Iterator<Item = (&'a TextKey, &'a [u32])>,
    N: Iterator<Item = &'a [u32]>,
{
    use crate::posting::union_cows as union;
    match *scan {
        Scan::Point(k) => point(k.as_bytes()).map_or(Cow::Owned(Vec::new()), Cow::Borrowed),
        Scan::Prefix(p) => union(
            text(Bound::Included(p.as_bytes()), Bound::Unbounded)
                .take_while(|(k, _)| k.as_bytes().starts_with(p.as_bytes()))
                .map(|(_, list)| Cow::Borrowed(list)),
        ),
        Scan::Text(lo, hi) => union(
            text(lo.map(str::as_bytes), hi.map(str::as_bytes)).map(|(_, list)| Cow::Borrowed(list)),
        ),
        Scan::Num(ref lo, ref hi) => union(num(lo.as_ref(), hi.as_ref()).map(Cow::Borrowed)),
    }
}

/// What [`plan`] compiles a filter into.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Plan<'a> {
    /// A sorted id set holding every entry the filter matches.
    pub ids: Cow<'a, [u32]>,
    /// True when `ids` hold nothing else: they *are* the filter's answer,
    /// and a caller has no filter left to verify on them (only its own
    /// base and scope). Derived from the filter's shape alone: a predicate
    /// by `scan_is_exact`, an `And` when every child planned and is exact,
    /// an `Or` when every child is exact. `Not` never plans.
    pub exact: bool,
}

/// Compiles a filter into a candidate posting list: a sorted id set
/// guaranteed to be a **superset** of the entries matching `filter`, and
/// whether it is exactly that set ([`Plan::exact`]). Callers verify the
/// filter on the candidates of an inexact plan. `lists_for_predicate` is
/// the store: [`scan_lists`] of what [`predicate_scan`] names over the
/// predicate's attribute, `None` when it names nothing. Returns `None`
/// when the index cannot bound the result and the caller must scan.
///
/// Conjunctions intersect every plannable child, smallest first
/// (galloping); a child that does not plan is left out of the
/// intersection, which then bounds the answer without deciding it.
/// Disjunctions require every child to plan and union them.
pub fn plan<'a>(
    filter: &Filter,
    lists_for_predicate: &impl Fn(&Predicate) -> Option<Cow<'a, [u32]>>,
) -> Option<Plan<'a>> {
    match filter {
        Filter::Pred(p) => lists_for_predicate(p).map(|ids| Plan { ids, exact: scan_is_exact(p) }),
        Filter::Not(_) => None,
        Filter::And(fs) => {
            let mut exact = true;
            let mut lists: Vec<Cow<'a, [u32]>> = Vec::with_capacity(fs.len());
            for f in fs {
                match plan(f, lists_for_predicate) {
                    Some(p) => {
                        exact &= p.exact;
                        lists.push(p.ids);
                    }
                    None => exact = false,
                }
            }
            lists.sort_by_key(|l| l.len());
            let ids = lists.into_iter().reduce(|acc, l| Cow::Owned(posting::intersect(&acc, &l)))?;
            Some(Plan { ids, exact })
        }
        Filter::Or(fs) => {
            let parts: Option<Vec<Plan<'a>>> =
                fs.iter().map(|f| plan(f, lists_for_predicate)).collect();
            let parts = parts?;
            let exact = parts.iter().all(|p| p.exact);
            Some(Plan { ids: posting::union_cows(parts.into_iter().map(|p| p.ids)), exact })
        }
    }
}

/// Posting lists for one attribute, edited in place.
#[derive(Debug, Default, Clone, PartialEq)]
struct AttrIndex {
    text: BTreeMap<TextKey, Vec<u32>>,
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
                Key::Text(k) => add(&mut idx.text, k.as_bytes(), || TextKey::new(k), id),
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
                Key::Text(k) => remove(&mut idx.text, k.as_bytes(), id),
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
            |lo, hi| idx.text.range::<[u8], _>((lo, hi)).map(|(k, list)| (k, list.as_slice())),
            |lo, hi| idx.num.range((lo, hi)).map(|(_, list)| list.as_slice()),
        ))
    }
}

#[cfg(test)]
mod exactness;

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn a_text_key_is_24_bytes_and_holds_22_inline() {
        assert_eq!(std::mem::size_of::<TextKey>(), 24);
        let inline = |s: &str| matches!(TextKey::new(s).0, Repr::Inline { .. });
        assert!(inline(""));
        assert!(inline(&"a".repeat(22)));
        assert!(!inline(&"a".repeat(23)));
        // "é" is two bytes: it ends on byte 22, or straddles it.
        assert!(inline(&format!("{}é", "a".repeat(20))));
        assert!(!inline(&format!("{}é", "a".repeat(21))));
        for s in ["", "045612", &"a".repeat(22), &"a".repeat(23), &format!("{}é", "a".repeat(21))] {
            assert_eq!(TextKey::new(s).as_bytes(), s.as_bytes());
            assert_eq!(format!("{:?}", TextKey::new(s)), format!("{s:?}"));
        }
        // Padding is not text: a key is its length's worth of bytes.
        assert!(TextKey::new("ab") < TextKey::new("ab\0"));
        assert_ne!(TextKey::new("ab"), TextKey::new("ab\0"));
        assert!(TextKey::new(&"a".repeat(22)) < TextKey::new(&"a".repeat(23)));
        assert!(TextKey::new(&"a".repeat(23)) < TextKey::new("b"));
    }

    /// Text around the inline width: up to 32 characters of one to three
    /// bytes each, NUL among them.
    fn text() -> impl Strategy<Value = String> {
        let letter = prop_oneof![Just('a'), Just('b'), Just('z'), Just('\0'), Just('é'), Just('語')];
        prop::collection::vec(letter, 0..32).prop_map(String::from_iter)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        #[test]
        fn text_keys_order_compare_and_hash_as_their_text(a in text(), b in text()) {
            use std::hash::BuildHasher;
            let (ka, kb) = (TextKey::new(&a), TextKey::new(&b));
            prop_assert_eq!(ka.cmp(&kb), a.cmp(&b), "{:?} against {:?}", a, b);
            prop_assert_eq!(ka == kb, a == b);
            prop_assert_eq!(ka.as_bytes(), a.as_bytes());
            let state = std::collections::hash_map::RandomState::new();
            prop_assert_eq!(state.hash_one(&ka), state.hash_one(a.as_bytes()));
        }

        /// A map keyed by text keys, inline and heap side by side, is
        /// read — point, prefix, range — as the same map keyed by strings.
        #[test]
        fn a_text_key_map_scans_as_a_string_map(
            keys in prop::collection::vec(text(), 0..48),
            probes in prop::collection::vec(text(), 1..6),
        ) {
            let mut map: BTreeMap<TextKey, Vec<u32>> = BTreeMap::new();
            let mut model: BTreeMap<&str, Vec<u32>> = BTreeMap::new();
            for (id, k) in keys.iter().enumerate() {
                super::add(&mut map, k.as_bytes(), || TextKey::new(k), id as u32);
                model.entry(k.as_str()).or_default().push(id as u32);
            }
            prop_assert!(map.keys().map(TextKey::as_bytes).eq(model.keys().map(|k| k.as_bytes())));
            let scan = |scan: Scan<'_>| {
                scan_lists(
                    &scan,
                    |k| map.get(k).map(Vec::as_slice),
                    |lo, hi| map.range::<[u8], _>((lo, hi)).map(|(k, list)| (k, list.as_slice())),
                    |_, _| std::iter::empty(),
                )
                .into_owned()
            };
            let expect = |keep: &dyn Fn(&str) -> bool| {
                let mut ids: Vec<u32> =
                    model.iter().filter(|(k, _)| keep(k)).flat_map(|(_, l)| l.clone()).collect();
                ids.sort_unstable();
                ids
            };
            for p in probes.iter().chain(&keys) {
                let p = p.as_str();
                prop_assert_eq!(scan(Scan::Point(p)), expect(&|k| k == p), "point {:?}", p);
                prop_assert_eq!(scan(Scan::Prefix(p)), expect(&|k| k.starts_with(p)), "prefix {:?}", p);
                prop_assert_eq!(
                    scan(Scan::Text(Bound::Included(p), Bound::Unbounded)),
                    expect(&|k| k >= p),
                    ">= {:?}", p
                );
                prop_assert_eq!(
                    scan(Scan::Text(Bound::Unbounded, Bound::Included(p))),
                    expect(&|k| k <= p),
                    "<= {:?}", p
                );
            }
            for k in &keys {
                let ids = map.get(k.as_bytes()).cloned().unwrap_or_default();
                for id in ids {
                    super::remove(&mut map, k.as_bytes(), id);
                }
            }
            prop_assert!(map.is_empty());
        }
    }

    /// Lists `id` under every key of `attr: value`, as adding an entry
    /// with that one value would.
    fn insert(ix: &mut Indexes, attr: &str, value: &str, id: u32) {
        let (attr, value) = (AttrName::new(attr), AttrValue::new(value));
        ix.insert(&attr, keys_only_in([&value], None), id);
    }

    fn remove(ix: &mut Indexes, attr: &str, value: &str, id: u32) {
        let (attr, value) = (AttrName::new(attr), AttrValue::new(value));
        ix.remove(&attr, keys_only_in([&value], None), id);
    }

    fn sample() -> Indexes {
        let mut ix = Indexes::default();
        insert(&mut ix, "serialNumber", "045612", 0);
        insert(&mut ix, "serialNumber", "045699", 1);
        insert(&mut ix, "serialNumber", "120000", 2);
        ix
    }

    fn plan_of(ix: &Indexes, f: &str) -> Option<Vec<u32>> {
        plan(&Filter::parse(f).unwrap(), &|p| ix.lists_for_predicate(p)).map(|p| p.ids.into_owned())
    }

    fn exact_of(ix: &Indexes, f: &str) -> Option<bool> {
        plan(&Filter::parse(f).unwrap(), &|p| ix.lists_for_predicate(p)).map(|p| p.exact)
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
        let old = ValueSet::from_iter(["0500".into(), "500".into()]);
        let new = ValueSet::from_iter(["500".into()]);
        let gone: Vec<Key<'_>> = keys_only_in(&old, Some(&new)).collect();
        assert_eq!(gone, [Key::Text("0500")]);
        let gained: Vec<Key<'_>> = keys_only_in(&new, Some(&old)).collect();
        assert_eq!(gained, []);
        let all: Vec<Key<'_>> = keys_only_in(&old, None).collect();
        assert_eq!(all, [Key::Text("0500"), Key::Num(500), Key::Text("500"), Key::Num(500)]);
    }

    /// A modify of a large attribute yields the keys of what it changed
    /// and nothing else: text and number of a member that joins, the text
    /// alone of a spelling whose number another member keeps.
    #[test]
    fn a_modify_of_five_thousand_values_yields_the_keys_it_changed() {
        let member = |i: usize| AttrValue::new(if i.is_multiple_of(2) { format!("{i}") } else { format!("uid={i:04}") });
        let old: ValueSet = (0..5_000).map(member).chain(["04998".into()]).collect();
        let new: ValueSet = (0..5_000).map(member).chain(["5000".into(), "uid=5001".into()]).collect();
        assert_eq!((old.len(), new.len()), (5_001, 5_002));
        let gained: Vec<Key<'_>> = keys_only_in(&new, Some(&old)).collect();
        assert_eq!(gained, [Key::Text("5000"), Key::Num(5000), Key::Text("uid=5001")]);
        let gone: Vec<Key<'_>> = keys_only_in(&old, Some(&new)).collect();
        assert_eq!(gone, [Key::Text("04998")]);
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

    #[test]
    fn exactness_follows_the_filter_shape() {
        let mut ix = Indexes::default();
        for id in 0..12u32 {
            insert(&mut ix, "serialNumber", &format!("{}", 100_000 + id), id);
            insert(&mut ix, "dept", &format!("{}", id % 3), id);
        }
        for f in [
            "(dept=1)",
            "(serialNumber>=100006)",
            "(serialNumber<=10000x)",
            "(serialNumber=10000*)",
            "(ghost=1)",
            "(&(dept=0)(serialNumber>=100006))",
            "(|(serialNumber=100001)(dept=2))",
            "(&(dept=1)(|(serialNumber=1000*)(dept=2)))",
        ] {
            assert_eq!(exact_of(&ix, f), Some(true), "{f}");
        }
        for f in [
            // More than an `initial`: the prefix bounds, the rest decides.
            "(serialNumber=1*1)",
            "(serialNumber=10*0*)",
            // A conjunct that does not plan leaves the plan a bound.
            "(&(dept=1)(serialNumber=*x*))",
            "(&(dept=1)(dept=*))",
            "(&(dept=1)(!(dept=2)))",
            "(|(dept=1)(serialNumber=1*1))",
        ] {
            assert_eq!(exact_of(&ix, f), Some(false), "{f}");
        }
        // Unplannable shapes have no plan to be exact.
        for f in ["(dept=*)", "(!(dept=1))", "(serialNumber=*1)", "(|(dept=1)(dept=*))"] {
            assert_eq!(exact_of(&ix, f), None, "{f}");
        }
    }
}
