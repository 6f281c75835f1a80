//! Attribute values with LDAP-style normalized matching.
//!
//! LDAP attribute comparison for the directory-string syntaxes the paper
//! uses is case-insensitive with insignificant whitespace
//! (`caseIgnoreMatch`). [`AttrValue`] keeps the original spelling for
//! display and a normalized form for equality, hashing and ordering — in
//! one shared string, and the normalized form only when it is not the
//! spelling itself.
//!
//! Values that parse as signed 64-bit integers additionally expose a numeric
//! view ([`AttrValue::as_int`]); ordering between two such values is numeric
//! (`integerOrderingMatch`), which the containment crate relies on for exact
//! range satisfiability over discrete domains.

use serde::de::Deserializer;
use serde::ser::Serializer;
use serde::{Deserialize, Serialize};
use std::cmp::Ordering;
use std::fmt;
use std::hash::{Hash, Hasher};
use std::sync::Arc;

/// An LDAP attribute assertion/stored value.
///
/// Equality, ordering and hashing use the normalized form: lowercase, outer
/// whitespace trimmed, inner whitespace runs collapsed to one space. Two
/// values that both parse as integers order numerically.
///
/// ```
/// use fbdr_ldap::AttrValue;
///
/// assert_eq!(AttrValue::new("John  Doe"), AttrValue::new(" john doe "));
/// assert!(AttrValue::new("9") < AttrValue::new("10")); // numeric order
/// assert!(AttrValue::new("a9") > AttrValue::new("a10")); // lexicographic
/// ```
///
/// A value is one refcounted string, so a clone copies no text: a serial
/// number, a mail address or anything else already written in normal form
/// is its spelling alone; `John Doe` is `john doe` followed by `John Doe`.
/// Beside it sit where the normalized form ends and, for an integer, its
/// number: 32 bytes in all.
#[derive(Clone)]
pub struct AttrValue {
    /// The normalized form, then — when it is another string — the
    /// spelling.
    text: Arc<str>,
    kind: Kind,
}

/// How many bytes of an [`AttrValue`]'s text are its normalized form
/// (all of them when the spelling is in normal form — a spelling that
/// differs is never empty, so the two cases cannot be confused), and
/// whether that form is a signed 64-bit integer.
#[derive(Clone, Copy)]
enum Kind {
    /// Not an integer — or one whose normal form is longer than `Int`'s
    /// `u32` can say, whose number is parsed again when asked for.
    Text(usize),
    /// An integer and the length of its normal form.
    Int(i64, u32),
}

/// The longest normal form [`Kind::Int`] holds.
const LONGEST_INT: usize = u32::MAX as usize;

impl Kind {
    /// The kind of a value whose normalized form is `norm`.
    fn of(norm: &str) -> Kind {
        match (norm.parse::<i64>(), u32::try_from(norm.len())) {
            (Ok(n), Ok(len)) => Kind::Int(n, len),
            _ => Kind::Text(norm.len()),
        }
    }

    #[inline]
    fn norm_len(self) -> usize {
        match self {
            Kind::Text(len) => len,
            Kind::Int(_, len) => len as usize,
        }
    }

    /// The integer view of the value whose normalized form `norm` gives,
    /// asked for only past `LONGEST_INT`.
    #[inline]
    fn int<'a>(self, norm: impl FnOnce() -> &'a str) -> Option<i64> {
        match self {
            Kind::Int(n, _) => Some(n),
            Kind::Text(len) if len > LONGEST_INT => norm().parse().ok(),
            Kind::Text(_) => None,
        }
    }
}

impl fmt::Debug for AttrValue {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("AttrValue")
            .field("raw", &self.raw())
            .field("norm", &self.normalized())
            .field("int", &self.as_int())
            .finish()
    }
}

impl Serialize for AttrValue {
    /// Serializes as the plain spelling; the normalized form and integer
    /// view are derived, not data.
    fn serialize<S: Serializer>(&self, ser: S) -> Result<S::Ok, S::Error> {
        ser.serialize_str(self.raw())
    }
}

impl<'de> Deserialize<'de> for AttrValue {
    fn deserialize<D: Deserializer<'de>>(de: D) -> Result<Self, D::Error> {
        Ok(AttrValue::new(String::deserialize(de)?))
    }
}

impl AttrValue {
    /// Creates a value from its string spelling.
    pub fn new(raw: impl Into<String>) -> Self {
        AttrValue::from(raw.into().as_str())
    }

    /// The original spelling of the value.
    #[inline]
    pub fn raw(&self) -> &str {
        let norm_len = self.kind.norm_len();
        if norm_len == self.text.len() {
            &self.text
        } else {
            &self.text[norm_len..]
        }
    }

    /// The normalized (matching) form of the value.
    #[inline]
    pub fn normalized(&self) -> &str {
        &self.text[..self.kind.norm_len()]
    }

    /// Numeric view if the normalized value is a signed 64-bit integer.
    #[inline]
    pub fn as_int(&self) -> Option<i64> {
        self.kind.int(|| self.normalized())
    }

    /// Typed ordering of `self` against a range assertion value: an
    /// integer assertion compares numerically and rejects non-integer
    /// values (`None`); a string assertion compares normalized text
    /// lexicographically.
    pub fn range_cmp(&self, assertion: &AttrValue) -> Option<Ordering> {
        match assertion.as_int() {
            Some(xi) => self.as_int().map(|vi| vi.cmp(&xi)),
            None => Some(self.normalized().cmp(assertion.normalized())),
        }
    }

    /// True if the normalized form of `self` starts with the normalized
    /// form of `prefix`. Used for substring (`initial`) assertions.
    pub fn starts_with(&self, prefix: &AttrValue) -> bool {
        self.normalized().starts_with(prefix.normalized())
    }

    /// True if both are the same string in memory — one a clone of the
    /// other — rather than merely equal.
    pub(crate) fn ptr_eq(&self, other: &AttrValue) -> bool {
        Arc::ptr_eq(&self.text, &other.text)
    }
}

/// True if `s` is its own normal form: [`push_normalized`] would append
/// `s` itself.
fn is_normal(s: &str) -> bool {
    let mut last_space = true;
    for c in s.chars() {
        if c == ' ' {
            if last_space {
                return false;
            }
            last_space = true;
        } else {
            let mut lower = c.to_lowercase();
            if c.is_whitespace() || lower.next() != Some(c) || lower.next().is_some() {
                return false;
            }
            last_space = false;
        }
    }
    s.is_empty() || !last_space
}

/// Appends the normal form of `s` per caseIgnoreMatch: trim, collapse
/// spaces, lowercase.
fn push_normalized(out: &mut String, s: &str) {
    let start = out.len();
    let mut last_space = true; // trims leading whitespace
    for c in s.chars() {
        if c.is_whitespace() {
            if !last_space {
                out.push(' ');
                last_space = true;
            }
        } else {
            out.extend(c.to_lowercase());
            last_space = false;
        }
    }
    // Runs are collapsed, so at most one space trails.
    if last_space && out.len() > start {
        out.pop();
    }
}

impl PartialEq for AttrValue {
    fn eq(&self, other: &Self) -> bool {
        self.normalized() == other.normalized()
    }
}

impl Eq for AttrValue {}

impl Hash for AttrValue {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.normalized().hash(state);
    }
}

impl PartialOrd for AttrValue {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for AttrValue {
    /// A lawful total order: every integer-valued text sorts before every
    /// non-integer text; integers compare numerically (ties broken on the
    /// normalized text, keeping `Ord` consistent with `Eq` for spellings
    /// like "0456" vs "456"); non-integers compare lexicographically.
    ///
    /// Interleaving the two classes by comparing mixed pairs textually —
    /// the "obvious" rule — is *not transitive* ("1a" < "2" < "03" <
    /// "1a") and would corrupt ordered containers. Range *predicates* do
    /// not use this order; they are typed by their assertion value (see
    /// [`Comparison::matches_value`](crate::Comparison::matches_value)).
    fn cmp(&self, other: &Self) -> Ordering {
        match (self.as_int(), other.as_int()) {
            (Some(a), Some(b)) => a.cmp(&b).then_with(|| self.normalized().cmp(other.normalized())),
            (Some(_), None) => Ordering::Less,
            (None, Some(_)) => Ordering::Greater,
            (None, None) => self.normalized().cmp(other.normalized()),
        }
    }
}

impl fmt::Display for AttrValue {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.raw())
    }
}

impl From<&str> for AttrValue {
    /// One allocation for a spelling in normal form; the normalized form
    /// is built, and kept before the spelling, only when it differs.
    fn from(raw: &str) -> Self {
        let (text, norm_len): (Arc<str>, usize) = if is_normal(raw) {
            (raw.into(), raw.len())
        } else {
            let mut text = String::with_capacity(2 * raw.len());
            push_normalized(&mut text, raw);
            let norm_len = text.len();
            text.push_str(raw);
            (text.into(), norm_len)
        };
        let kind = Kind::of(&text[..norm_len]);
        AttrValue { text, kind }
    }
}

impl From<String> for AttrValue {
    fn from(s: String) -> Self {
        AttrValue::from(s.as_str())
    }
}

impl From<i64> for AttrValue {
    fn from(n: i64) -> Self {
        AttrValue::new(n.to_string())
    }
}

/// The values of one attribute: a set under [`AttrValue`]'s matching
/// rules, iterated in its order.
///
/// One value — what most attributes of most entries hold — sits in the
/// set itself; two or more are one sorted list behind a refcount of its
/// own. Either way a clone copies no value, so an entry, a projection of
/// it and a changelog record share what they all say, and a holder that
/// writes copies the one list it edits.
///
/// ```
/// use fbdr_ldap::{AttrValue, ValueSet};
///
/// let set: ValueSet = ["b", "10", "9", "B"].into_iter().map(AttrValue::from).collect();
/// let spelt: Vec<&str> = set.iter().map(AttrValue::raw).collect();
/// assert_eq!(spelt, ["9", "10", "B"]); // integers first, the later of two spellings
/// assert!(set.contains(&"b".into()) && set.len() == 3);
/// ```
#[derive(Clone, Default)]
pub struct ValueSet(Held);

#[derive(Clone, Default)]
enum Held {
    #[default]
    None,
    One(AttrValue),
    /// Two or more, ascending and distinct.
    Many(Arc<Vec<AttrValue>>),
}

impl ValueSet {
    /// The values, ascending.
    pub fn as_slice(&self) -> &[AttrValue] {
        match &self.0 {
            Held::None => &[],
            Held::One(v) => std::slice::from_ref(v),
            Held::Many(vs) => vs,
        }
    }

    /// Iterates the values in ascending order.
    pub fn iter(&self) -> std::slice::Iter<'_, AttrValue> {
        self.as_slice().iter()
    }

    /// Number of values.
    pub fn len(&self) -> usize {
        self.as_slice().len()
    }

    /// True if the set holds no value.
    pub fn is_empty(&self) -> bool {
        matches!(self.0, Held::None)
    }

    /// True if the set holds `value` in some spelling.
    pub fn contains(&self, value: &AttrValue) -> bool {
        match &self.0 {
            Held::None => false,
            Held::One(held) => held == value,
            Held::Many(vs) => vs.binary_search(value).is_ok(),
        }
    }

    /// True if some value's integer view is `n`, however it is spelt.
    pub fn contains_int(&self, n: i64) -> bool {
        // Integers sort first, by number.
        let vs = self.as_slice();
        let at = vs.partition_point(|v| v.as_int().is_some_and(|m| m < n));
        vs.get(at).is_some_and(|v| v.as_int() == Some(n))
    }

    /// Adds a value; returns true if it was not already present (in any
    /// spelling: the one held stays).
    pub fn insert(&mut self, value: AttrValue) -> bool {
        match &mut self.0 {
            Held::None => self.0 = Held::One(value),
            Held::One(held) => match value.cmp(held) {
                Ordering::Equal => return false,
                Ordering::Less => self.0 = Held::Many(Arc::new(vec![value, held.clone()])),
                Ordering::Greater => self.0 = Held::Many(Arc::new(vec![held.clone(), value])),
            },
            Held::Many(vs) => match vs.binary_search(&value) {
                Ok(_) => return false,
                // In place, at the list's own amortized growth, unless
                // another holder shares it.
                Err(at) => Arc::make_mut(vs).insert(at, value),
            },
        }
        true
    }

    /// Removes a value; returns true if it was present.
    pub fn remove(&mut self, value: &AttrValue) -> bool {
        match &mut self.0 {
            Held::None => return false,
            Held::One(held) if held != value => return false,
            Held::One(_) => self.0 = Held::None,
            Held::Many(vs) => {
                let Ok(at) = vs.binary_search(value) else { return false };
                if vs.len() == 2 {
                    self.0 = Held::One(vs[1 - at].clone());
                } else {
                    Arc::make_mut(vs).remove(at);
                }
            }
        }
        true
    }

    /// True if both sets hold the same values spelt the same way — what
    /// makes a replacement by `other` no change at all, where `==` only
    /// says that nothing would match differently.
    pub fn same_spellings(&self, other: &ValueSet) -> bool {
        self.iter().map(AttrValue::raw).eq(other.iter().map(AttrValue::raw))
    }

    /// True if both sets are the same values in memory — one a clone of
    /// the other, nothing copied — rather than merely equal.
    pub fn ptr_eq(&self, other: &ValueSet) -> bool {
        match (&self.0, &other.0) {
            (Held::None, Held::None) => true,
            (Held::One(a), Held::One(b)) => a.ptr_eq(b),
            (Held::Many(a), Held::Many(b)) => Arc::ptr_eq(a, b),
            _ => false,
        }
    }
}

impl PartialEq for ValueSet {
    fn eq(&self, other: &Self) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl Eq for ValueSet {}

impl fmt::Debug for ValueSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_set().entries(self.iter()).finish()
    }
}

impl<'a> IntoIterator for &'a ValueSet {
    type Item = &'a AttrValue;
    type IntoIter = std::slice::Iter<'a, AttrValue>;

    fn into_iter(self) -> Self::IntoIter {
        self.iter()
    }
}

impl FromIterator<AttrValue> for ValueSet {
    /// Of two spellings of one value the later stays.
    fn from_iter<I: IntoIterator<Item = AttrValue>>(values: I) -> Self {
        // No list for no value or one: what most replaces bring.
        let mut values = values.into_iter();
        let Some(first) = values.next() else { return ValueSet::default() };
        let Some(second) = values.next() else { return first.into() };
        let mut vs: Vec<AttrValue> = [first, second].into_iter().chain(values).collect();
        vs.sort();
        vs.dedup_by(|later, kept| {
            let same = later == kept;
            if same {
                std::mem::swap(later, kept);
            }
            same
        });
        match vs.len() {
            1 => vs.pop().expect("one value").into(),
            _ => ValueSet(Held::Many(Arc::new(vs))),
        }
    }
}

impl From<AttrValue> for ValueSet {
    fn from(value: AttrValue) -> Self {
        ValueSet(Held::One(value))
    }
}

impl Serialize for ValueSet {
    /// Serializes as the sequence of its values, in order.
    fn serialize<S: Serializer>(&self, ser: S) -> Result<S::Ok, S::Error> {
        ser.collect_seq(self.iter())
    }
}

impl<'de> Deserialize<'de> for ValueSet {
    fn deserialize<D: Deserializer<'de>>(de: D) -> Result<Self, D::Error> {
        Ok(Vec::<AttrValue>::deserialize(de)?.into_iter().collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn normalization_case_and_space() {
        assert_eq!(AttrValue::new("John  M   Doe"), AttrValue::new("john m doe"));
        assert_eq!(AttrValue::new("  x  "), AttrValue::new("X"));
        assert_ne!(AttrValue::new("johnm doe"), AttrValue::new("john m doe"));
    }

    #[test]
    fn numeric_ordering_when_both_ints() {
        assert!(AttrValue::new("2") < AttrValue::new("10"));
        assert!(AttrValue::new("-5") < AttrValue::new("3"));
        assert_eq!(AttrValue::new("007").as_int(), Some(7));
    }

    #[test]
    fn lexicographic_when_either_not_int() {
        assert!(AttrValue::new("10x") < AttrValue::new("2x"));
        assert!(AttrValue::new("abc") < AttrValue::new("abd"));
    }

    #[test]
    fn ord_consistent_with_eq_for_numeric_ties() {
        let a = AttrValue::new("0456");
        let b = AttrValue::new("456");
        assert_ne!(a, b);
        assert_ne!(a.cmp(&b), Ordering::Equal);
        assert_eq!(a.as_int(), b.as_int());
    }

    /// What the 40-byte layout, which stored `normalized().parse().ok()`
    /// as an `Option<i64>`, said about each value: integers first, by
    /// number and then by text; everything else by text.
    fn reference_cmp(a: &AttrValue, b: &AttrValue) -> Ordering {
        let int = |v: &AttrValue| v.normalized().parse::<i64>().ok();
        match (int(a), int(b)) {
            (Some(x), Some(y)) => x.cmp(&y).then_with(|| a.normalized().cmp(b.normalized())),
            (Some(_), None) => Ordering::Less,
            (None, Some(_)) => Ordering::Greater,
            (None, None) => a.normalized().cmp(b.normalized()),
        }
    }

    #[test]
    fn the_integer_view_and_the_order_are_unchanged() {
        let (min, max) = (i64::MIN.to_string(), i64::MAX.to_string());
        let cases: [(&str, &str, Option<i64>); 10] = [
            ("+0007", "+0007", Some(7)),
            ("7", "7", Some(7)),
            (" 0456 ", "0456", Some(456)),
            ("456", "456", Some(456)),
            ("-0", "-0", Some(0)),
            (&min, &min, Some(i64::MIN)),
            (&max, &max, Some(i64::MAX)),
            ("9223372036854775808", "9223372036854775808", None),
            ("", "", None),
            ("Abc", "abc", None),
        ];
        let values: Vec<AttrValue> = cases.iter().map(|(raw, ..)| AttrValue::new(*raw)).collect();
        for (v, (raw, norm, int)) in values.iter().zip(cases) {
            assert_eq!((v.raw(), v.normalized(), v.as_int()), (raw, norm, int), "{raw:?}");
            for w in &values {
                assert_eq!(v.cmp(w), reference_cmp(v, w), "{v:?} against {w:?}");
            }
        }
        assert!(values[0] < values[1] && values[2] < values[3]);
        assert!(values[5] < values[4] && values[4] < values[6] && values[6] < values[7]);
    }

    /// A normal form too long for `Kind::Int`'s length is kept as text
    /// and still reads, so orders, as its integer.
    #[cfg(target_pointer_width = "64")]
    #[test]
    fn an_integer_past_the_int_kind_is_still_an_integer() {
        assert!(matches!(Kind::of("0007"), Kind::Int(7, 4)));
        assert!(matches!(Kind::of("7a"), Kind::Text(2)));
        assert_eq!(Kind::Text(LONGEST_INT + 1).int(|| "0007"), Some(7));
        assert_eq!(Kind::Text(LONGEST_INT + 1).int(|| "7a"), None);
        assert_eq!(Kind::Text(LONGEST_INT).int(|| "0007"), None);
    }

    #[test]
    fn display_preserves_raw() {
        assert_eq!(AttrValue::new("John Doe").to_string(), "John Doe");
    }

    #[test]
    fn prefix_match_is_normalized() {
        assert!(AttrValue::new("Smithers").starts_with(&AttrValue::new("smith")));
        assert!(!AttrValue::new("Smith").starts_with(&AttrValue::new("smithers")));
    }
}
