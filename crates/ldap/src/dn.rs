//! Distinguished names and the hierarchical naming model.
//!
//! A [`Dn`] is a (possibly empty) sequence of [`Rdn`]s ordered leaf-first,
//! exactly as written in LDAP string form: in
//! `cn=John Doe,ou=research,c=us,o=xyz` the leftmost RDN names the entry and
//! the rightmost names the topmost container. The empty DN (`""`) names the
//! root of the DIT.
//!
//! The paper's containment algorithms are built on two relations provided
//! here: `isSuffix(a, b)` — *a is an ancestor of b* — is
//! [`Dn::is_ancestor_of`], and `isparent(a, b)` is [`Dn::is_parent_of`].

use crate::{AttrName, AttrValue, NameParseError};
use serde::{Deserialize, Deserializer, Serialize, Serializer};
use std::borrow::Cow;
use std::fmt::{self, Write};
use std::str::FromStr;
use std::sync::Arc;

/// A relative distinguished name: one `attr=value` naming component.
///
/// Comparison is case-insensitive on both sides (via [`AttrName`] and
/// [`AttrValue`] semantics).
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct Rdn {
    attr: AttrName,
    value: AttrValue,
}

impl Rdn {
    /// Creates an RDN from an attribute name and value.
    pub fn new(attr: impl Into<AttrName>, value: impl Into<AttrValue>) -> Self {
        Rdn { attr: attr.into(), value: value.into() }
    }

    /// The naming attribute type.
    pub fn attr(&self) -> &AttrName {
        &self.attr
    }

    /// The naming attribute value.
    pub fn value(&self) -> &AttrValue {
        &self.value
    }
}

impl fmt::Display for Rdn {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write_escaped(f, self.attr.as_str())?;
        f.write_char('=')?;
        write_escaped(f, self.value.raw())
    }
}

/// Writes `s` with each [`needs_escape`] character behind a backslash.
fn write_escaped(f: &mut fmt::Formatter<'_>, s: &str) -> fmt::Result {
    for c in s.chars() {
        if needs_escape(c) {
            f.write_char('\\')?;
        }
        f.write_char(c)?;
    }
    Ok(())
}

/// A distinguished name; empty means the DIT root.
///
/// ```
/// use fbdr_ldap::Dn;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let base: Dn = "o=xyz".parse()?;
/// let entry: Dn = "cn=John Doe,ou=research,c=us,o=xyz".parse()?;
/// assert!(base.is_ancestor_of(&entry));
/// assert_eq!(entry.depth(), 4);
/// assert_eq!(entry.parent().unwrap().to_string(), "ou=research,c=us,o=xyz");
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Dn {
    /// RDNs leaf-first (index 0 is the entry's own RDN). Shared so that
    /// cloning a DN — pervasive in store indexes, changelogs and session
    /// bookkeeping — is a refcount bump, not a deep string copy.
    rdns: Arc<[Rdn]>,
}

impl Default for Dn {
    fn default() -> Self {
        Dn::root()
    }
}

impl Serialize for Dn {
    fn serialize<S: Serializer>(&self, serializer: S) -> Result<S::Ok, S::Error> {
        serializer.collect_seq(self.rdns.iter())
    }
}

impl<'de> Deserialize<'de> for Dn {
    fn deserialize<D: Deserializer<'de>>(deserializer: D) -> Result<Self, D::Error> {
        Ok(Dn::from_rdns(Vec::<Rdn>::deserialize(deserializer)?))
    }
}

impl Dn {
    /// The root DN (empty sequence of RDNs).
    pub fn root() -> Self {
        Dn { rdns: Vec::new().into() }
    }

    /// Builds a DN from RDNs ordered leaf-first.
    pub fn from_rdns(rdns: Vec<Rdn>) -> Self {
        Dn { rdns: rdns.into() }
    }

    /// Number of RDN components (0 for the root).
    pub fn depth(&self) -> usize {
        self.rdns.len()
    }

    /// The entry's own (leftmost) RDN, if not the root.
    pub fn rdn(&self) -> Option<&Rdn> {
        self.rdns.first()
    }

    /// RDNs leaf-first.
    pub fn rdns(&self) -> &[Rdn] {
        &self.rdns
    }

    /// The parent DN; `None` for the root.
    pub fn parent(&self) -> Option<Dn> {
        if self.rdns.is_empty() {
            None
        } else {
            Some(Dn { rdns: self.rdns[1..].into() })
        }
    }

    /// The DN of a child of `self` named by `rdn`.
    pub fn child(&self, rdn: Rdn) -> Dn {
        let mut rdns = Vec::with_capacity(self.rdns.len() + 1);
        rdns.push(rdn);
        rdns.extend_from_slice(&self.rdns);
        Dn { rdns: rdns.into() }
    }

    /// Hierarchical ordering: root-first comparison of normalized RDN
    /// components, so a parent sorts immediately before its subtree and
    /// every subtree is one contiguous run. (The derived [`Ord`] compares
    /// leaf-first, matching the string form.)
    pub fn cmp_hierarchical(&self, other: &Dn) -> std::cmp::Ordering {
        self.rdns.iter().rev().cmp(other.rdns.iter().rev())
    }

    /// `isSuffix(self, other)` of the paper including equality: true when
    /// `self` is `other` or an ancestor of it. The root is an ancestor of
    /// every DN.
    pub fn is_ancestor_or_self_of(&self, other: &Dn) -> bool {
        let n = self.rdns.len();
        let m = other.rdns.len();
        n <= m && self.rdns[..] == other.rdns[m - n..]
    }

    /// Strict ancestor: `self` is a proper ancestor of `other`.
    pub fn is_ancestor_of(&self, other: &Dn) -> bool {
        self.rdns.len() < other.rdns.len() && self.is_ancestor_or_self_of(other)
    }

    /// `isparent(self, other)` of the paper: `self` is the immediate parent
    /// of `other`.
    pub fn is_parent_of(&self, other: &Dn) -> bool {
        other.rdns.len() == self.rdns.len() + 1 && self.is_ancestor_or_self_of(other)
    }
}

impl fmt::Display for Dn {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (i, rdn) in self.rdns.iter().enumerate() {
            if i > 0 {
                f.write_str(",")?;
            }
            write!(f, "{rdn}")?;
        }
        Ok(())
    }
}

impl Dn {
    /// `self.to_string().len()` without building the string: the byte
    /// length of the LDAP string form, escapes included. What the traffic
    /// cost model prices a DN by, once per delivered action.
    pub fn display_len(&self) -> usize {
        let part = |s: &str| s.len() + s.chars().filter(|&c| needs_escape(c)).count();
        let rdn = |r: &Rdn| part(r.attr.as_str()) + 1 + part(r.value.raw());
        self.rdns.iter().map(rdn).sum::<usize>() + self.rdns.len().saturating_sub(1)
    }
}

impl FromStr for Dn {
    type Err = NameParseError;

    /// Parses the LDAP string form. Commas, equals signs and backslashes
    /// in types and values may be escaped (`\,`, `\=`, `\\`), as printed.
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let s = s.trim();
        if s.is_empty() {
            return Ok(Dn::root());
        }
        let mut rdns = Vec::new();
        for comp in split_unescaped(s, ',') {
            let comp = comp.trim();
            if comp.is_empty() {
                return Err(NameParseError::new("empty RDN component"));
            }
            let mut parts = split_unescaped(comp, '=');
            let attr = parts
                .next()
                .ok_or_else(|| NameParseError::new(format!("missing '=' in {comp:?}")))?;
            let value = parts
                .next()
                .ok_or_else(|| NameParseError::new(format!("missing '=' in {comp:?}")))?;
            if parts.next().is_some() {
                return Err(NameParseError::new(format!("unescaped '=' in value of {comp:?}")));
            }
            let attr = unescape(attr.trim());
            let attr = attr.trim();
            if attr.is_empty() {
                return Err(NameParseError::new(format!("empty attribute in {comp:?}")));
            }
            rdns.push(Rdn::new(attr, &*unescape(value.trim())));
        }
        Ok(Dn { rdns: rdns.into() })
    }
}

/// Splits `s` on `sep`, honouring backslash escapes: the parts of `s`
/// between its unescaped separators, escapes left as written.
fn split_unescaped(s: &str, sep: char) -> impl Iterator<Item = &str> {
    let mut rest = Some(s);
    std::iter::from_fn(move || {
        let s = rest?;
        let mut escaped = false;
        for (at, c) in s.char_indices() {
            if !escaped && c == sep {
                rest = Some(&s[at + c.len_utf8()..]);
                return Some(&s[..at]);
            }
            escaped = !escaped && c == '\\';
        }
        rest = None;
        Some(s)
    })
}

fn unescape(s: &str) -> Cow<'_, str> {
    if !s.contains('\\') {
        return Cow::Borrowed(s);
    }
    let mut out = String::with_capacity(s.len());
    let mut escaped = false;
    for c in s.chars() {
        if escaped {
            out.push(c);
            escaped = false;
        } else if c == '\\' {
            escaped = true;
        } else {
            out.push(c);
        }
    }
    Cow::Owned(out)
}

/// The characters a value's string form writes behind a backslash.
fn needs_escape(c: char) -> bool {
    matches!(c, ',' | '=' | '\\')
}

// Test hooks: only this crate's unit tests call them.
#[cfg(test)]
impl Dn {
    /// True for the DIT root.
    pub(crate) fn is_root(&self) -> bool {
        self.rdns.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dn(s: &str) -> Dn {
        s.parse().unwrap()
    }

    #[test]
    fn parse_and_display_round_trip() {
        let d = dn("cn=John Doe,ou=research,c=us,o=xyz");
        assert_eq!(d.to_string(), "cn=John Doe,ou=research,c=us,o=xyz");
        assert_eq!(d.depth(), 4);
        assert_eq!(d.rdn().unwrap().attr().as_str(), "cn");
    }

    #[test]
    fn root_dn() {
        let r = dn("");
        assert!(r.is_root());
        assert_eq!(r.to_string(), "");
        assert!(r.is_ancestor_or_self_of(&dn("o=xyz")));
        assert!(r.is_ancestor_of(&dn("o=xyz")));
        assert!(!r.is_ancestor_of(&r));
    }

    #[test]
    fn ancestor_relations() {
        let base = dn("o=xyz");
        let mid = dn("c=us,o=xyz");
        let leaf = dn("cn=x,ou=research,c=us,o=xyz");
        assert!(base.is_ancestor_of(&mid));
        assert!(base.is_ancestor_of(&leaf));
        assert!(mid.is_ancestor_of(&leaf));
        assert!(!mid.is_ancestor_of(&base));
        assert!(!dn("c=in,o=xyz").is_ancestor_of(&leaf));
        assert!(base.is_ancestor_or_self_of(&base));
    }

    #[test]
    fn parent_relations() {
        let p = dn("ou=research,c=us,o=xyz");
        let c = dn("cn=x,ou=research,c=us,o=xyz");
        assert!(p.is_parent_of(&c));
        assert!(!p.is_parent_of(&p));
        assert!(!dn("o=xyz").is_parent_of(&c));
        assert_eq!(c.parent().unwrap(), p);
        assert_eq!(dn("").parent(), None);
    }

    #[test]
    fn child_construction() {
        let p = dn("c=us,o=xyz");
        let c = p.child(Rdn::new("cn", "Fred Jones"));
        assert_eq!(c.to_string(), "cn=Fred Jones,c=us,o=xyz");
        assert!(p.is_parent_of(&c));
    }

    #[test]
    fn case_insensitive_comparison() {
        assert_eq!(dn("CN=John Doe,O=XYZ"), dn("cn=john doe,o=xyz"));
        assert!(dn("O=XYZ").is_ancestor_of(&dn("cn=a,o=xyz")));
    }

    #[test]
    fn escaped_comma_in_value() {
        let d = dn(r"cn=Doe\, John,o=xyz");
        assert_eq!(d.depth(), 2);
        assert_eq!(d.rdn().unwrap().value().raw(), "Doe, John");
        // Round trips through Display.
        let d2: Dn = d.to_string().parse().unwrap();
        assert_eq!(d, d2);
    }

    #[test]
    fn attribute_type_escapes_round_trip() {
        // `\ ` escapes the space, which trimming then drops: the type is
        // `a`, not `a\` (printed `a\=v`, which named no type at all).
        let d = dn(r"a\ =v,o=xyz");
        assert_eq!(d.rdn().unwrap().attr().as_str(), "a");
        assert_eq!(d.to_string(), "a=v,o=xyz");
        // A type that does hold a backslash prints it escaped and parses
        // back to itself.
        let odd = Dn::from_rdns(vec![Rdn::new(r"a\", "v"), Rdn::new("o", "xyz")]);
        assert_eq!(odd.to_string(), r"a\\=v,o=xyz");
        assert_eq!(odd.to_string().parse::<Dn>().unwrap(), odd);
        assert_eq!(odd.display_len(), odd.to_string().len());
        assert!(r"\ =v".parse::<Dn>().is_err(), "a type of nothing but an escape is empty");
    }

    #[test]
    fn rejects_garbage() {
        assert!("cn".parse::<Dn>().is_err());
        assert!("cn=a,,o=b".parse::<Dn>().is_err());
        assert!("=v,o=b".parse::<Dn>().is_err());
    }
}
