//! Server-side sorting of search results (RFC 2891) — the example LDAP
//! control the paper cites in §2.2.
//!
//! A [`SortKey`] names an attribute and a direction; a sort control is an
//! ordered list of keys. Sorting uses the same typed ordering as range
//! predicates: values that parse as integers order numerically, others
//! lexicographically on normalized text; entries missing the attribute
//! sort last (per RFC 2891 treating missing attributes as largest).
//!
//! ```
//! use fbdr_ldap::{sort_entries, Entry, SortKey};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let mut entries = vec![
//!     Entry::new("cn=b,o=x".parse()?).with("age", "9"),
//!     Entry::new("cn=a,o=x".parse()?).with("age", "30"),
//! ];
//! sort_entries(&mut entries, &[SortKey::ascending("age")]);
//! assert_eq!(entries[0].dn().to_string(), "cn=b,o=x"); // 9 < 30 numerically
//! # Ok(())
//! # }
//! ```

use crate::{AttrName, AttrValue, Entry};
use serde::{Deserialize, Serialize};
use std::cmp::Ordering;

/// One key of an RFC 2891 sort control.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct SortKey {
    attr: AttrName,
    reverse: bool,
}

impl SortKey {
    /// Ascending sort on `attr`.
    pub fn ascending(attr: impl Into<AttrName>) -> Self {
        SortKey { attr: attr.into(), reverse: false }
    }

    /// Descending sort on `attr` (the control's `reverseOrder` flag).
    // A test hook: only tests call it.
    #[doc(hidden)]
    pub fn descending(attr: impl Into<AttrName>) -> Self {
        SortKey { attr: attr.into(), reverse: true }
    }

    /// The attribute sorted by.
    pub fn attr(&self) -> &AttrName {
        &self.attr
    }

    /// Compares two entries under this key.
    fn compare(&self, a: &Entry, b: &Entry) -> Ordering {
        let ka = sort_value(a, &self.attr);
        let kb = sort_value(b, &self.attr);
        let ord = match (ka, kb) {
            (Some(x), Some(y)) => typed_cmp(x, y),
            // Missing attributes sort as largest (RFC 2891 §2.2).
            (Some(_), None) => Ordering::Less,
            (None, Some(_)) => Ordering::Greater,
            (None, None) => Ordering::Equal,
        };
        if self.reverse {
            ord.reverse()
        } else {
            ord
        }
    }
}

/// The value an entry sorts by for an attribute: its smallest value (the
/// RFC leaves multi-valued choice to the server; smallest is the common
/// behaviour).
fn sort_value<'e>(e: &'e Entry, attr: &AttrName) -> Option<&'e AttrValue> {
    e.values(attr).min_by(|a, b| typed_cmp(a, b))
}

/// The lawful [`AttrValue`] total order: integers (numeric) before
/// non-integers (lexicographic). A mixed textual interleave would be
/// intransitive and make `sort_by` panic on inconsistent comparators.
fn typed_cmp(a: &AttrValue, b: &AttrValue) -> Ordering {
    a.cmp(b)
}

/// Sorts entries by a list of keys (most significant first), with the DN
/// as the final tie-breaker so the order is total and deterministic.
pub fn sort_entries(entries: &mut [Entry], keys: &[SortKey]) {
    entries.sort_by(|a, b| {
        for k in keys {
            match k.compare(a, b) {
                Ordering::Equal => continue,
                other => return other,
            }
        }
        a.dn().cmp(b.dn())
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    fn e(cn: &str) -> Entry {
        Entry::new(format!("cn={cn},o=x").parse().unwrap())
    }

    #[test]
    fn numeric_ascending() {
        let mut v = vec![
            e("a").with("serialNumber", "100"),
            e("b").with("serialNumber", "9"),
            e("c").with("serialNumber", "050"),
        ];
        sort_entries(&mut v, &[SortKey::ascending("serialNumber")]);
        let order: Vec<&str> = v.iter().map(|x| x.dn().rdn().unwrap().value().raw()).collect();
        assert_eq!(order, ["b", "c", "a"]); // 9 < 50 < 100
    }

    #[test]
    fn descending_reverses() {
        let mut v = vec![e("a").with("sn", "alpha"), e("b").with("sn", "beta")];
        sort_entries(&mut v, &[SortKey::descending("sn")]);
        assert_eq!(v[0].dn().to_string(), "cn=b,o=x");
    }

    #[test]
    fn missing_attribute_sorts_last() {
        let mut v = vec![e("missing"), e("present").with("mail", "a@b")];
        sort_entries(&mut v, &[SortKey::ascending("mail")]);
        assert_eq!(v[0].dn().to_string(), "cn=present,o=x");
        // Even in descending order, RFC 2891 keeps absents largest —
        // reversal applies to the whole comparison, putting them first.
        sort_entries(&mut v, &[SortKey::descending("mail")]);
        assert_eq!(v[0].dn().to_string(), "cn=missing,o=x");
    }

    #[test]
    fn multi_key_sort() {
        let mut v = vec![
            e("a").with("dept", "7").with("sn", "zeta"),
            e("b").with("dept", "7").with("sn", "alpha"),
            e("c").with("dept", "3").with("sn", "midway"),
        ];
        sort_entries(&mut v, &[SortKey::ascending("dept"), SortKey::ascending("sn")]);
        let order: Vec<&str> = v.iter().map(|x| x.dn().rdn().unwrap().value().raw()).collect();
        assert_eq!(order, ["c", "b", "a"]);
    }

    #[test]
    fn multivalued_sorts_by_smallest() {
        let mut v = vec![
            e("a").with("cn", "zz").with("cn", "bb"),
            e("b").with("cn", "cc"),
        ];
        sort_entries(&mut v, &[SortKey::ascending("cn")]);
        assert_eq!(v[0].dn().to_string(), "cn=a,o=x"); // bb < cc
    }

    #[test]
    fn deterministic_tie_break_on_dn() {
        let mut v = vec![e("z").with("dept", "1"), e("a").with("dept", "1")];
        sort_entries(&mut v, &[SortKey::ascending("dept")]);
        assert_eq!(v[0].dn().to_string(), "cn=a,o=x");
    }

    #[test]
    fn empty_key_list_sorts_by_dn() {
        let mut v = vec![e("b"), e("a")];
        sort_entries(&mut v, &[]);
        assert_eq!(v[0].dn().to_string(), "cn=a,o=x");
    }
}
