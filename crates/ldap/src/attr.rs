//! Case-insensitive attribute names.

use serde::de::Deserializer;
use serde::ser::Serializer;
use serde::{Deserialize, Serialize};
use std::cmp::Ordering;
use std::fmt;
use std::hash::{Hash, Hasher};
use std::sync::Arc;

/// An LDAP attribute type name (e.g. `cn`, `serialNumber`).
///
/// Attribute names are case-insensitive in LDAP; `AttrName` keeps the
/// original spelling for display but compares, orders and hashes by the
/// ASCII-lowercased form. Both spellings are refcounted — one string when
/// the name is already lowercase — so a clone copies no text.
///
/// ```
/// use fbdr_ldap::AttrName;
///
/// assert_eq!(AttrName::new("serialNumber"), AttrName::new("SERIALNUMBER"));
/// ```
#[derive(Debug, Clone)]
pub struct AttrName {
    raw: Arc<str>,
    lower: Arc<str>,
}

impl Serialize for AttrName {
    /// Serializes as the plain spelling (usable as a map key in JSON).
    fn serialize<S: Serializer>(&self, ser: S) -> Result<S::Ok, S::Error> {
        ser.serialize_str(&self.raw)
    }
}

impl<'de> Deserialize<'de> for AttrName {
    fn deserialize<D: Deserializer<'de>>(de: D) -> Result<Self, D::Error> {
        Ok(AttrName::new(String::deserialize(de)?))
    }
}

impl AttrName {
    /// Creates an attribute name from its spelling.
    pub fn new(raw: impl Into<String>) -> Self {
        AttrName::from(raw.into().as_str())
    }

    /// The original spelling.
    pub fn as_str(&self) -> &str {
        &self.raw
    }

    /// The lowercased matching form.
    pub fn lower(&self) -> &str {
        &self.lower
    }
}

impl PartialEq for AttrName {
    fn eq(&self, other: &Self) -> bool {
        self.lower == other.lower
    }
}

impl Eq for AttrName {}

impl Hash for AttrName {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.lower.hash(state);
    }
}

impl PartialOrd for AttrName {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for AttrName {
    fn cmp(&self, other: &Self) -> Ordering {
        self.lower.cmp(&other.lower)
    }
}

impl fmt::Display for AttrName {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.raw)
    }
}

impl From<&str> for AttrName {
    fn from(s: &str) -> Self {
        let raw: Arc<str> = s.into();
        let mut lower = raw.clone();
        if s.bytes().any(|b| b.is_ascii_uppercase()) {
            lower = s.into();
            Arc::get_mut(&mut lower).expect("not shared yet").make_ascii_lowercase();
        }
        AttrName { raw, lower }
    }
}

impl From<String> for AttrName {
    fn from(s: String) -> Self {
        AttrName::new(s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn case_insensitive_equality_and_hash() {
        let a = AttrName::new("objectClass");
        let b = AttrName::new("OBJECTCLASS");
        assert_eq!(a, b);
        let mut set = HashSet::new();
        set.insert(a);
        assert!(set.contains(&b));
    }

    #[test]
    fn ordering_ignores_case() {
        assert!(AttrName::new("CN") < AttrName::new("mail"));
    }

    #[test]
    fn a_lowercase_name_is_one_string_and_a_clone_copies_none() {
        let cn = AttrName::new("cn");
        assert!(Arc::ptr_eq(&cn.raw, &cn.lower));
        let serial = AttrName::new("serialNumber");
        assert_eq!((serial.as_str(), serial.lower()), ("serialNumber", "serialnumber"));
        let copy = serial.clone();
        assert!(Arc::ptr_eq(&copy.raw, &serial.raw) && Arc::ptr_eq(&copy.lower, &serial.lower));
    }

    #[test]
    fn display_preserves_spelling() {
        assert_eq!(AttrName::new("serialNumber").to_string(), "serialNumber");
    }
}
