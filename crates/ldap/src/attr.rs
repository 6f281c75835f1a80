//! Case-insensitive attribute names, built once per process.

use serde::de::Deserializer;
use serde::ser::Serializer;
use serde::{Deserialize, Serialize};
use std::cmp::Ordering;
use std::collections::HashMap;
use std::fmt;
use std::hash::{Hash, Hasher};
use std::sync::{Arc, OnceLock, PoisonError, RwLock};

/// The most names the process-wide table holds: the cap of the template
/// table ([`TEMPLATE_TABLE_CAP`](crate::TEMPLATE_TABLE_CAP)), for the same
/// reason — two orders of magnitude above what a deployment spells, and a
/// bound of about 100 kB on what a hostile stream of names can leave
/// behind.
pub const ATTR_NAME_TABLE_CAP: usize = 1024;

/// An LDAP attribute type name (e.g. `cn`, `serialNumber`).
///
/// Attribute names are case-insensitive in LDAP; `AttrName` keeps the
/// original spelling for display but compares, orders and hashes by the
/// ASCII-lowercased form.
///
/// ```
/// use fbdr_ldap::AttrName;
///
/// assert_eq!(AttrName::new("serialNumber"), AttrName::new("SERIALNUMBER"));
/// ```
///
/// # One table
///
/// A directory spells a handful of attribute names — under twenty in the
/// paper's — on every one of its entries, so a name is built once per
/// process: an `AttrName` is a handle on one refcounted string kept in a
/// process-wide table and found there by its spelling. Building a known
/// name allocates nothing, a clone copies no text, every entry, filter
/// and RDN that says `serialNumber` holds the same string, and two
/// handles of one spelling compare by pointer.
///
/// The table never holds more than [`ATTR_NAME_TABLE_CAP`] spellings
/// ([`AttrName::interned`] reads its size). A spelling that arrives after
/// that gets a string of its own, freed with its last handle; it
/// compares, orders, hashes and prints as any other name does. A flood of
/// distinct names — an LDIF import or a stream of filters from outside —
/// therefore costs an allocation per name, never memory that stays.
#[derive(Clone)]
pub struct AttrName {
    /// The lowercased form followed by the spelling: ASCII lowercasing
    /// keeps every byte count, so the two halves are equally long.
    text: Arc<str>,
}

impl fmt::Debug for AttrName {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_tuple("AttrName").field(&self.as_str()).finish()
    }
}

impl Serialize for AttrName {
    /// Serializes as the plain spelling (usable as a map key in JSON).
    fn serialize<S: Serializer>(&self, ser: S) -> Result<S::Ok, S::Error> {
        ser.serialize_str(self.as_str())
    }
}

impl<'de> Deserialize<'de> for AttrName {
    fn deserialize<D: Deserializer<'de>>(de: D) -> Result<Self, D::Error> {
        Ok(AttrName::new(String::deserialize(de)?))
    }
}

/// The process-wide table, keyed by spelling, case included. Nothing is
/// ever removed; the default hasher is keyed per process, so names cannot
/// be crafted to collide.
fn table() -> &'static RwLock<HashMap<Box<str>, AttrName>> {
    static TABLE: OnceLock<RwLock<HashMap<Box<str>, AttrName>>> = OnceLock::new();
    TABLE.get_or_init(RwLock::default)
}

impl AttrName {
    /// Creates an attribute name from its spelling.
    pub fn new(raw: impl Into<String>) -> Self {
        AttrName::from(raw.into().as_str())
    }

    /// The original spelling.
    pub fn as_str(&self) -> &str {
        &self.text[self.text.len() / 2..]
    }

    /// The lowercased matching form.
    pub fn lower(&self) -> &str {
        &self.text[..self.text.len() / 2]
    }

    /// Names the process-wide table holds; never above
    /// [`ATTR_NAME_TABLE_CAP`].
    pub fn interned() -> usize {
        table().read().unwrap_or_else(PoisonError::into_inner).len()
    }

    /// True when both are handles on one string: the same spelling, from
    /// the table. Equal names of other spellings are not the same handle.
    pub(crate) fn same_handle(&self, other: &AttrName) -> bool {
        Arc::ptr_eq(&self.text, &other.text)
    }
}

impl PartialEq for AttrName {
    fn eq(&self, other: &Self) -> bool {
        Arc::ptr_eq(&self.text, &other.text) || self.lower() == other.lower()
    }
}

impl Eq for AttrName {}

impl Hash for AttrName {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.lower().hash(state);
    }
}

impl PartialOrd for AttrName {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for AttrName {
    fn cmp(&self, other: &Self) -> Ordering {
        if Arc::ptr_eq(&self.text, &other.text) {
            return Ordering::Equal;
        }
        self.lower().cmp(other.lower())
    }
}

impl fmt::Display for AttrName {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

impl From<&str> for AttrName {
    /// The table's handle when the spelling is known or the table has
    /// room, an unshared one otherwise.
    fn from(raw: &str) -> Self {
        // A panic cannot leave the set half-written, so a poisoned lock
        // still guards a valid table.
        let full = {
            let names = table().read().unwrap_or_else(PoisonError::into_inner);
            if let Some(known) = names.get(raw) {
                return known.clone();
            }
            names.len() >= ATTR_NAME_TABLE_CAP
        };
        let mut text = String::with_capacity(2 * raw.len());
        text.push_str(raw);
        text.make_ascii_lowercase();
        text.push_str(raw);
        let name = AttrName { text: text.into() };
        if !full {
            let mut names = table().write().unwrap_or_else(PoisonError::into_inner);
            if let Some(raced) = names.get(raw) {
                return raced.clone();
            }
            if names.len() < ATTR_NAME_TABLE_CAP {
                names.insert(raw.into(), name.clone());
            }
        }
        name
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
    fn a_spelling_is_built_once_and_every_handle_shares_it() {
        let serial = AttrName::new("serialNumber");
        assert_eq!((serial.as_str(), serial.lower()), ("serialNumber", "serialnumber"));
        assert!(Arc::ptr_eq(&serial.clone().text, &serial.text));
        assert!(Arc::ptr_eq(&AttrName::from("serialNumber").text, &serial.text));
        // Another spelling is another string and the same name.
        let shouted = AttrName::new("SERIALNUMBER");
        assert!(!Arc::ptr_eq(&shouted.text, &serial.text));
        assert_eq!((shouted.as_str(), &shouted), ("SERIALNUMBER", &serial));
        // Non-ASCII letters are left alone, as LDAP's matching rule does.
        let accented = AttrName::new("Émail");
        assert_eq!((accented.as_str(), accented.lower()), ("Émail", "Émail"));
        assert!(AttrName::interned() >= 3);
    }

    #[test]
    fn display_preserves_spelling() {
        assert_eq!(AttrName::new("serialNumber").to_string(), "serialNumber");
    }
}
