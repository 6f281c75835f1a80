//! Attribute values with LDAP-style normalized matching.
//!
//! LDAP attribute comparison for the directory-string syntaxes the paper
//! uses is case-insensitive with insignificant whitespace
//! (`caseIgnoreMatch`). [`AttrValue`] stores the original spelling for
//! display and a normalized form for equality, hashing and ordering.
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
#[derive(Debug, Clone)]
pub struct AttrValue {
    raw: String,
    norm: String,
    int: Option<i64>,
}

impl Serialize for AttrValue {
    /// Serializes as the plain spelling; the normalized form and integer
    /// view are derived, not data.
    fn serialize<S: Serializer>(&self, ser: S) -> Result<S::Ok, S::Error> {
        ser.serialize_str(&self.raw)
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
        let raw = raw.into();
        let norm = normalize(&raw);
        let int = norm.parse::<i64>().ok();
        AttrValue { raw, norm, int }
    }

    /// The original spelling of the value.
    pub fn raw(&self) -> &str {
        &self.raw
    }

    /// The normalized (matching) form of the value.
    pub fn normalized(&self) -> &str {
        &self.norm
    }

    /// Numeric view if the normalized value is a signed 64-bit integer.
    pub fn as_int(&self) -> Option<i64> {
        self.int
    }

    /// Typed ordering of `self` against a range assertion value: an
    /// integer assertion compares numerically and rejects non-integer
    /// values (`None`); a string assertion compares normalized text
    /// lexicographically.
    pub fn range_cmp(&self, assertion: &AttrValue) -> Option<Ordering> {
        match assertion.int {
            Some(xi) => self.int.map(|vi| vi.cmp(&xi)),
            None => Some(self.norm.cmp(&assertion.norm)),
        }
    }

    /// True if the normalized form of `self` starts with the normalized
    /// form of `prefix`. Used for substring (`initial`) assertions.
    pub fn starts_with(&self, prefix: &AttrValue) -> bool {
        self.norm.starts_with(&prefix.norm)
    }
}

/// Normalizes per caseIgnoreMatch: trim, collapse spaces, lowercase.
fn normalize(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    let mut last_space = true; // trims leading whitespace
    for c in s.chars() {
        if c.is_whitespace() {
            if !last_space {
                out.push(' ');
                last_space = true;
            }
        } else {
            for lc in c.to_lowercase() {
                out.push(lc);
            }
            last_space = false;
        }
    }
    while out.ends_with(' ') {
        out.pop();
    }
    out
}

impl PartialEq for AttrValue {
    fn eq(&self, other: &Self) -> bool {
        self.norm == other.norm
    }
}

impl Eq for AttrValue {}

impl Hash for AttrValue {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.norm.hash(state);
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
        match (self.int, other.int) {
            (Some(a), Some(b)) => a.cmp(&b).then_with(|| self.norm.cmp(&other.norm)),
            (Some(_), None) => Ordering::Less,
            (None, Some(_)) => Ordering::Greater,
            (None, None) => self.norm.cmp(&other.norm),
        }
    }
}

impl fmt::Display for AttrValue {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.raw)
    }
}

impl From<&str> for AttrValue {
    fn from(s: &str) -> Self {
        AttrValue::new(s)
    }
}

impl From<String> for AttrValue {
    fn from(s: String) -> Self {
        AttrValue::new(s)
    }
}

impl From<i64> for AttrValue {
    fn from(n: i64) -> Self {
        AttrValue::new(n.to_string())
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
