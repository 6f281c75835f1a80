//! Attribute values with LDAP-style normalized matching.
//!
//! LDAP attribute comparison for the directory-string syntaxes the paper
//! uses is case-insensitive with insignificant whitespace
//! (`caseIgnoreMatch`). [`AttrValue`] keeps the original spelling for
//! display and a normalized form for equality, hashing and ordering — in
//! one run of bytes, and the normalized form only when it is not the
//! spelling itself. Short text sits in the value; longer text is one
//! shared string.
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
/// A value's text is its normalized form followed by its spelling when
/// that is another string: a serial number, a mail address or anything
/// else already written in normal form is its spelling alone; `John Doe`
/// is `john doe` followed by `John Doe`. Text of up to 29 bytes — 21
/// beside an integer's number — sits in the value's 32 bytes, so a
/// person's serial, phone, department and name cost no allocation; longer
/// text is one refcounted string, so a clone copies no text either way.
#[derive(Clone)]
pub struct AttrValue(Repr);

/// The four layouts of a value, each 32 bytes with the tag.
#[derive(Clone)]
enum Repr {
    /// Text that fits, not an integer.
    Short(Inline<SHORT>),
    /// Text that fits beside its number: an integer.
    ShortInt(Inline<SHORT_INT>, i64),
    /// Longer text and how many of its bytes are the normal form — not an
    /// integer, or one whose normal form is longer than `LongInt`'s `u32`
    /// can say, whose number is parsed again when asked for.
    Long(Arc<str>, usize),
    /// Longer text, an integer: its number and the length of its normal
    /// form.
    LongInt(Arc<str>, i64, u32),
}

/// Bytes of text a [`Repr::Short`] holds: what 32 bytes leave beside the
/// tag and two lengths.
const SHORT: usize = 32 - 3;

/// Bytes of text a [`Repr::ShortInt`] holds: what is left beside its
/// `i64` too.
const SHORT_INT: usize = SHORT - 8;

/// The longest normal form [`Repr::LongInt`] holds.
const LONGEST_INT: usize = u32::MAX as usize;

/// The text of a value held in the value: `len` bytes, the first `norm`
/// of them the normal form. The bytes past `len` are zero, so two inline
/// texts are equal exactly when their fields are.
#[derive(Clone, Copy, PartialEq, Eq)]
struct Inline<const N: usize> {
    norm: u8,
    len: u8,
    bytes: [u8; N],
}

impl<const N: usize> Inline<N> {
    /// `norm` and then `spelling`, if they fit.
    fn new(norm: &str, spelling: Option<&str>) -> Option<Self> {
        let tail = spelling.unwrap_or_default();
        let len = norm.len() + tail.len();
        if len > N {
            return None;
        }
        let mut bytes = [0; N];
        bytes[..norm.len()].copy_from_slice(norm.as_bytes());
        bytes[norm.len()..len].copy_from_slice(tail.as_bytes());
        Some(Inline { norm: norm.len() as u8, len: len as u8, bytes })
    }

    #[inline]
    fn norm(&self) -> &[u8] {
        &self.bytes[..usize::from(self.norm)]
    }

    #[inline]
    fn raw(&self) -> &str {
        let (norm, len) = (usize::from(self.norm), usize::from(self.len));
        utf8(&self.bytes[if norm == len { 0 } else { norm }..len])
    }
}

impl Repr {
    /// A long value: `text`, whose first `norm_len` bytes are the normal
    /// form, and its integer view `int`.
    fn long(text: Arc<str>, norm_len: usize, int: Option<i64>) -> Repr {
        match (int, u32::try_from(norm_len)) {
            (Some(n), Ok(len)) => Repr::LongInt(text, n, len),
            _ => Repr::Long(text, norm_len),
        }
    }
}

/// Inline bytes as the `str` they were copied from.
#[inline]
fn utf8(bytes: &[u8]) -> &str {
    std::str::from_utf8(bytes).expect("an inline value holds the bytes of a str")
}

/// The spelling in a long value's `text` whose first `norm_len` bytes are
/// the normal form: the rest, or all of it.
#[inline]
fn spelling(text: &str, norm_len: usize) -> &str {
    if norm_len == text.len() {
        text
    } else {
        &text[norm_len..]
    }
}

/// The integer view of a long non-integer value whose normal form is
/// `len` bytes, `norm`: one is kept as text only past `LONGEST_INT`.
#[inline]
fn int_past_longest<'a>(len: usize, norm: impl FnOnce() -> &'a str) -> Option<i64> {
    if len > LONGEST_INT {
        norm().parse().ok()
    } else {
        None
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
        Ok(AttrValue::from(String::deserialize(de)?.as_str()))
    }
}

impl AttrValue {
    /// Creates a value from its string spelling.
    pub fn new(raw: impl AsRef<str>) -> Self {
        AttrValue::from(raw.as_ref())
    }

    /// The value whose normal form is `norm`, spelt `spelling` when that
    /// is another string.
    fn of(norm: &str, spelling: Option<&str>) -> Self {
        let int = norm.parse().ok();
        let inline = match int {
            Some(n) => Inline::new(norm, spelling).map(|inline| Repr::ShortInt(inline, n)),
            None => Inline::new(norm, spelling).map(Repr::Short),
        };
        AttrValue(inline.unwrap_or_else(|| {
            let text = match spelling {
                None => norm.into(),
                Some(raw) => [norm, raw].concat().into(),
            };
            Repr::long(text, norm.len(), int)
        }))
    }

    /// The normalized form's bytes: what equality, order, hash and prefix
    /// compare, with no UTF-8 check.
    #[inline]
    fn norm(&self) -> &[u8] {
        match &self.0 {
            Repr::Short(inline) => inline.norm(),
            Repr::ShortInt(inline, _) => inline.norm(),
            Repr::Long(text, len) => &text.as_bytes()[..*len],
            Repr::LongInt(text, _, len) => &text.as_bytes()[..*len as usize],
        }
    }

    /// The original spelling of the value.
    #[inline]
    pub fn raw(&self) -> &str {
        match &self.0 {
            Repr::Short(inline) => inline.raw(),
            Repr::ShortInt(inline, _) => inline.raw(),
            Repr::Long(text, len) => spelling(text, *len),
            Repr::LongInt(text, _, len) => spelling(text, *len as usize),
        }
    }

    /// The normalized (matching) form of the value.
    #[inline]
    pub fn normalized(&self) -> &str {
        match &self.0 {
            Repr::Short(inline) => utf8(inline.norm()),
            Repr::ShortInt(inline, _) => utf8(inline.norm()),
            Repr::Long(text, len) => &text[..*len],
            Repr::LongInt(text, _, len) => &text[..*len as usize],
        }
    }

    /// Numeric view if the normalized value is a signed 64-bit integer.
    #[inline]
    pub fn as_int(&self) -> Option<i64> {
        match &self.0 {
            Repr::ShortInt(_, n) | Repr::LongInt(_, n, _) => Some(*n),
            Repr::Short(_) => None,
            Repr::Long(text, len) => int_past_longest(*len, || &text[..*len]),
        }
    }

    /// Typed ordering of `self` against a range assertion value: an
    /// integer assertion compares numerically and rejects non-integer
    /// values (`None`); a string assertion compares normalized text
    /// lexicographically.
    #[inline]
    pub fn range_cmp(&self, assertion: &AttrValue) -> Option<Ordering> {
        match assertion.as_int() {
            Some(xi) => self.as_int().map(|vi| vi.cmp(&xi)),
            None => Some(self.norm().cmp(assertion.norm())),
        }
    }

    /// True if the normalized form of `self` starts with the normalized
    /// form of `prefix`. Used for substring (`initial`) assertions.
    #[inline]
    pub fn starts_with(&self, prefix: &AttrValue) -> bool {
        self.norm().starts_with(prefix.norm())
    }

    /// True if both are the same text in memory — a long value and a
    /// clone of it — or short values of the same bytes, which a clone
    /// copies: values no reader can tell apart.
    pub(crate) fn ptr_eq(&self, other: &AttrValue) -> bool {
        match (&self.0, &other.0) {
            (Repr::Short(a), Repr::Short(b)) => a == b,
            (Repr::ShortInt(a, _), Repr::ShortInt(b, _)) => a == b,
            (Repr::Long(a, _), Repr::Long(b, _)) | (Repr::LongInt(a, ..), Repr::LongInt(b, ..)) => {
                Arc::ptr_eq(a, b)
            }
            _ => false,
        }
    }
}

/// True if `s` is its own normal form: [`normal_chars`] would yield `s`
/// itself.
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

/// The normal form of `s` per caseIgnoreMatch: outer whitespace trimmed,
/// inner runs collapsed to one space, lowercased.
fn normal_chars(s: &str) -> impl Iterator<Item = char> + '_ {
    s.split_whitespace().enumerate().flat_map(|(i, word)| {
        let space = (i > 0).then_some(' ');
        space.into_iter().chain(word.chars().flat_map(char::to_lowercase))
    })
}

impl PartialEq for AttrValue {
    #[inline]
    fn eq(&self, other: &Self) -> bool {
        self.norm() == other.norm()
    }
}

impl Eq for AttrValue {}

impl Hash for AttrValue {
    /// Hashes as the normalized `str` does: its bytes, then `0xff`.
    #[inline]
    fn hash<H: Hasher>(&self, state: &mut H) {
        state.write(self.norm());
        state.write_u8(0xff);
    }
}

impl PartialOrd for AttrValue {
    #[inline]
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
    #[inline]
    fn cmp(&self, other: &Self) -> Ordering {
        match (self.as_int(), other.as_int()) {
            (Some(a), Some(b)) => a.cmp(&b).then_with(|| self.norm().cmp(other.norm())),
            (Some(_), None) => Ordering::Less,
            (None, Some(_)) => Ordering::Greater,
            (None, None) => self.norm().cmp(other.norm()),
        }
    }
}

impl fmt::Display for AttrValue {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.raw())
    }
}

impl From<&str> for AttrValue {
    /// No allocation for text that fits in the value; for longer text,
    /// one when the spelling is in normal form and two otherwise. The
    /// normalized form is built, and kept before the spelling, only when
    /// it differs.
    fn from(raw: &str) -> Self {
        if is_normal(raw) {
            return AttrValue::of(raw, None);
        }
        let (mut bytes, mut len) = ([0; SHORT], 0);
        for c in normal_chars(raw) {
            match bytes.get_mut(len..len + c.len_utf8()) {
                Some(at) => len += c.encode_utf8(at).len(),
                None => {
                    let mut text = String::with_capacity(2 * raw.len());
                    text.extend(normal_chars(raw));
                    let (norm_len, int) = (text.len(), text.parse().ok());
                    text.push_str(raw);
                    return AttrValue(Repr::long(text.into(), norm_len, int));
                }
            }
        }
        AttrValue::of(utf8(&bytes[..len]), Some(raw))
    }
}

impl From<String> for AttrValue {
    fn from(s: String) -> Self {
        AttrValue::from(s.as_str())
    }
}

impl From<i64> for AttrValue {
    fn from(n: i64) -> Self {
        AttrValue::from(n.to_string().as_str())
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

    /// A normal form too long for `LongInt`'s length is kept as text
    /// and still reads, so orders, as its integer.
    #[cfg(target_pointer_width = "64")]
    #[test]
    fn an_integer_past_the_int_kind_is_still_an_integer() {
        assert!(matches!(Repr::long("0007".into(), 4, Some(7)), Repr::LongInt(_, 7, 4)));
        assert!(matches!(Repr::long("7a".into(), 2, None), Repr::Long(_, 2)));
        assert!(matches!(Repr::long("".into(), LONGEST_INT + 1, Some(7)), Repr::Long(_, _)));
        assert_eq!(int_past_longest(LONGEST_INT + 1, || "0007"), Some(7));
        assert_eq!(int_past_longest(LONGEST_INT + 1, || "7a"), None);
        assert_eq!(int_past_longest(LONGEST_INT, || "0007"), None);
    }

    /// Which of the four layouts a value takes follows from its text's
    /// length alone, and either side of each limit reads the same.
    #[test]
    fn text_that_fits_is_held_in_the_value() {
        let layout = |raw: &str| match AttrValue::new(raw).0 {
            Repr::Short(_) => "short",
            Repr::ShortInt(..) => "short int",
            Repr::Long(..) => "long",
            Repr::LongInt(..) => "long int",
        };
        let cases = [
            ("x".repeat(SHORT), "short"),
            ("x".repeat(SHORT + 1), "long"),
            // `Xyz…` is its normal form and then itself.
            (format!("X{}", "y".repeat(SHORT / 2 - 1)), "short"),
            (format!("X{}", "y".repeat(SHORT / 2)), "long"),
            (format!("{}7", "0".repeat(SHORT_INT - 1)), "short int"),
            (format!("{}7", "0".repeat(SHORT_INT)), "long int"),
            (" 7 ".to_owned(), "short int"),
            (i64::MIN.to_string(), "short int"),
            // Whitespace the normal form drops: a long spelling.
            (format!("  {}  ", "x".repeat(SHORT - 6)), "long"),
            (format!("a{}b", " ".repeat(40)), "long"),
        ];
        for (raw, expected) in &cases {
            assert_eq!(layout(raw), *expected, "{raw:?}");
            let v = AttrValue::new(raw);
            let norm: String = normal_chars(raw).collect();
            assert_eq!((v.raw(), v.normalized(), v.as_int()), (raw.as_str(), norm.as_str(), norm.parse().ok()));
        }
        assert_eq!(size_of::<AttrValue>(), 32);
    }

    /// Short values of the same bytes are the same value to every reader;
    /// two spellings whose texts coincide are not.
    #[test]
    fn short_values_are_the_same_when_their_bytes_are() {
        let (a, b) = (AttrValue::new("Doe"), AttrValue::new("Doe"));
        assert!(a.ptr_eq(&b) && a.ptr_eq(&a.clone()));
        assert!(!a.ptr_eq(&AttrValue::new("doe")));
        // `" b"` is `b` then ` b`; `"b b"` is its own normal form.
        let (spaced, spelt) = (AttrValue::new(" b"), AttrValue::new("b b"));
        assert!(!spaced.ptr_eq(&spelt) && spaced != spelt);
        let long = AttrValue::new("x".repeat(SHORT + 1));
        assert!(long.ptr_eq(&long.clone()) && !long.ptr_eq(&AttrValue::new(long.raw())));
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
