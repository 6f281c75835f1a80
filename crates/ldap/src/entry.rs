//! Directory entries: DN-named sets of attribute/value pairs.

use crate::{AttrName, AttrValue, Dn, ValueSet};
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::fmt;
use std::sync::Arc;

/// One attribute of an entry: its name and its values, never none.
type Attr = (AttrName, ValueSet);

/// An entry's attributes, ascending by name: one shared slice. Serialized
/// as the map it is, name → values.
#[derive(Debug, Clone, PartialEq, Eq)]
struct Spine(Arc<[Attr]>);

impl Serialize for Spine {
    fn serialize<S: serde::Serializer>(&self, ser: S) -> Result<S::Ok, S::Error> {
        ser.collect_map(self.0.iter().map(|(a, vs)| (a, vs)))
    }
}

impl<'de> Deserialize<'de> for Spine {
    fn deserialize<D: serde::Deserializer<'de>>(de: D) -> Result<Self, D::Error> {
        let attrs = BTreeMap::<AttrName, ValueSet>::deserialize(de)?;
        Ok(Spine(attrs.into_iter().filter(|(_, vs)| !vs.is_empty()).collect()))
    }
}

/// An entry in the Directory Information Tree.
///
/// An entry is a set of attribute/value pairs plus a distinguished name.
/// Attributes are multi-valued sets; values compare with the normalized
/// semantics of [`AttrValue`].
///
/// ```
/// use fbdr_ldap::Entry;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let mut e = Entry::new("cn=John Doe,o=xyz".parse()?);
/// e.add_str("objectclass", "inetOrgPerson");
/// e.add_str("cn", "John Doe");
/// e.add_str("cn", "John M Doe");
/// assert!(e.has_value(&"CN".into(), &"john doe".into()));
/// assert_eq!(e.values(&"cn".into()).count(), 2);
/// # Ok(())
/// # }
/// ```
///
/// # Sharing
///
/// An `Entry` is a handle on a body shared copy-on-write in two levels:
/// the attributes are one sorted slice of `(name, values)` behind one
/// `Arc`, a single value sits in the slice and a [`ValueSet`] of several
/// behind an `Arc` of its own. [`Clone`] bumps two refcounts (the DN's
/// and the slice's) and copies no text, so a search result, a sync action
/// and a replica's slot hold the very body the master's store does. A
/// clone is still a value — nothing written through one handle shows
/// through another: the first write to a shared body copies the slice's
/// pointers and the one set it changes, every other set stays shared, and
/// a write that changes nothing copies nothing.
///
/// The body is its values' bytes and little else: names come out of one
/// process-wide table ([`AttrName`]), a value is one string
/// ([`AttrValue`]), and an eight-attribute person is about a kilobyte in
/// some twenty allocations (DESIGN §5, *Entry representation*).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Entry {
    dn: Dn,
    attrs: Spine,
}

impl Entry {
    /// Creates an empty entry with the given name.
    pub fn new(dn: Dn) -> Self {
        Entry { dn, attrs: Spine(Arc::default()) }
    }

    /// The entry's distinguished name.
    pub fn dn(&self) -> &Dn {
        &self.dn
    }

    /// Renames the entry (modify DN). The caller is responsible for keeping
    /// any store indexes consistent.
    pub fn set_dn(&mut self, dn: Dn) {
        self.dn = dn;
    }

    /// Where `attr` is in the slice, or where it would go.
    fn position(&self, attr: &AttrName) -> Result<usize, usize> {
        self.attrs.0.binary_search_by(|(held, _)| held.cmp(attr))
    }

    /// The values of the attribute at `at`, for writing — the
    /// copy-on-write step of a mutator that edits an attribute it holds,
    /// taken once it knows the call changes something: a slice other
    /// handles share is first copied, pointer by pointer.
    fn values_mut(&mut self, at: usize) -> &mut ValueSet {
        &mut Arc::make_mut(&mut self.attrs.0)[at].1
    }

    /// Gaining an attribute is a new slice, shared or not.
    fn insert_at(&mut self, at: usize, attr: Attr) {
        let (before, after) = self.attrs.0.split_at(at);
        self.attrs.0 = before.iter().cloned().chain([attr]).chain(after.iter().cloned()).collect();
    }

    /// And so is losing one.
    fn remove_at(&mut self, at: usize) {
        let (before, after) = (&self.attrs.0[..at], &self.attrs.0[at + 1..]);
        self.attrs.0 = before.iter().chain(after).cloned().collect();
    }

    /// Adds a value; returns true if it was not already present.
    pub fn add(&mut self, attr: impl Into<AttrName>, value: impl Into<AttrValue>) -> bool {
        let (attr, value) = (attr.into(), value.into());
        match self.position(&attr) {
            Ok(at) => !self.attrs.0[at].1.contains(&value) && self.values_mut(at).insert(value),
            Err(at) => {
                self.insert_at(at, (attr, value.into()));
                true
            }
        }
    }

    /// Convenience for `add` with string literals.
    pub fn add_str(&mut self, attr: &str, value: &str) -> bool {
        self.add(attr, value)
    }

    /// Builder-style `add` for test and example construction.
    pub fn with(mut self, attr: &str, value: &str) -> Self {
        self.add(attr, value);
        self
    }

    /// Removes a single value; returns true if it was present. Removes the
    /// attribute entirely when its last value goes.
    pub fn remove_value(&mut self, attr: &AttrName, value: &AttrValue) -> bool {
        let Ok(at) = self.position(attr) else { return false };
        let held = &self.attrs.0[at].1;
        if !held.contains(value) {
            return false;
        }
        if held.len() == 1 {
            self.remove_at(at);
        } else {
            self.values_mut(at).remove(value);
        }
        true
    }

    /// Removes an attribute and all its values; returns true if present.
    pub fn remove_attr(&mut self, attr: &AttrName) -> bool {
        let held = self.position(attr);
        if let Ok(at) = held {
            self.remove_at(at);
        }
        held.is_ok()
    }

    /// Replaces all values of an attribute. An empty iterator removes the
    /// attribute.
    pub fn replace<I, V>(&mut self, attr: impl Into<AttrName>, values: I)
    where
        I: IntoIterator<Item = V>,
        V: Into<AttrValue>,
    {
        let attr = attr.into();
        let set: ValueSet = values.into_iter().map(Into::into).collect();
        match self.position(&attr) {
            // Changes nothing only if every spelling stays: equal values
            // may be written differently, and the new set brings its own.
            Ok(at) if self.attrs.0[at].1.same_spellings(&set) => {}
            Ok(at) if set.is_empty() => self.remove_at(at),
            Ok(at) => *self.values_mut(at) = set,
            Err(_) if set.is_empty() => {}
            Err(at) => self.insert_at(at, (attr, set)),
        }
    }

    /// True if the attribute exists with the given value.
    pub fn has_value(&self, attr: &AttrName, value: &AttrValue) -> bool {
        self.value_set(attr).is_some_and(|s| s.contains(value))
    }

    /// True if the attribute is present with at least one value.
    pub fn has_attr(&self, attr: &AttrName) -> bool {
        self.position(attr).is_ok()
    }

    /// Iterates the values of an attribute (empty if absent).
    pub fn values<'a>(&'a self, attr: &AttrName) -> impl Iterator<Item = &'a AttrValue> + 'a {
        self.value_set(attr).into_iter().flatten()
    }

    /// The value set of an attribute as the entry holds it, for a reader
    /// that keeps it: a clone shares the values instead of copying them.
    pub fn value_set(&self, attr: &AttrName) -> Option<&ValueSet> {
        self.position(attr).ok().map(|at| &self.attrs.0[at].1)
    }

    /// The first value of an attribute, if any.
    pub fn first_value(&self, attr: &AttrName) -> Option<&AttrValue> {
        self.values(attr).next()
    }

    /// Iterates `(name, values)` pairs in attribute-name order.
    pub fn attrs(&self) -> impl Iterator<Item = (&AttrName, &ValueSet)> {
        self.attrs.0.iter().map(|(a, vs)| (a, vs))
    }

    /// Names of all present attributes.
    pub fn attr_names(&self) -> impl Iterator<Item = &AttrName> {
        self.attrs.0.iter().map(|(a, _)| a)
    }

    /// Values of the `objectclass` attribute.
    pub fn object_classes(&self) -> impl Iterator<Item = &AttrValue> {
        self.values(&AttrName::new("objectclass"))
    }

    /// Projects the entry onto a subset of attributes (used when answering
    /// searches that request specific attributes). The DN is always kept;
    /// the projection shares the value sets it keeps.
    pub fn project<'a, I>(&self, attrs: I) -> Entry
    where
        I: IntoIterator<Item = &'a AttrName>,
    {
        let mut kept: Vec<usize> = attrs.into_iter().filter_map(|a| self.position(a).ok()).collect();
        kept.sort_unstable();
        kept.dedup();
        let attrs = kept.into_iter().map(|at| self.attrs.0[at].clone()).collect();
        Entry { dn: self.dn.clone(), attrs: Spine(attrs) }
    }

    /// Estimated wire size in bytes: DN plus every attribute name and value.
    ///
    /// Used by the traffic cost model; this intentionally approximates a
    /// BER-encoded LDAP entry PDU rather than reproducing ASN.1 exactly.
    pub fn estimated_size(&self) -> usize {
        let mut n = self.dn.display_len() + 8;
        for (a, vs) in self.attrs() {
            for v in vs {
                n += a.as_str().len() + v.raw().len() + 4;
            }
        }
        n
    }
}

impl fmt::Display for Entry {
    /// LDIF-like rendering.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "dn: {}", self.dn)?;
        for (a, vs) in self.attrs() {
            for v in vs {
                writeln!(f, "{a}: {v}")?;
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn person() -> Entry {
        Entry::new("cn=John Doe,ou=research,c=us,o=xyz".parse().unwrap())
            .with("objectclass", "inetOrgPerson")
            .with("cn", "John Doe")
            .with("cn", "John M Doe")
            .with("telephoneNumber", "2618-2618")
            .with("mail", "john@us.xyz.com")
            .with("serialNumber", "0456")
            .with("departmentNumber", "80")
    }

    #[test]
    fn multi_valued_attributes() {
        let e = person();
        assert_eq!(e.values(&"cn".into()).count(), 2);
        assert!(e.has_value(&"cn".into(), &"JOHN M DOE".into()));
    }

    #[test]
    fn add_is_set_semantics() {
        let mut e = person();
        assert!(!e.add("cn", "john doe")); // normalized duplicate
        assert_eq!(e.values(&"cn".into()).count(), 2);
    }

    #[test]
    fn remove_value_and_attr() {
        let mut e = person();
        assert!(e.remove_value(&"cn".into(), &"John Doe".into()));
        assert_eq!(e.values(&"cn".into()).count(), 1);
        assert!(e.remove_value(&"cn".into(), &"John M Doe".into()));
        assert!(!e.has_attr(&"cn".into()));
        assert!(!e.remove_value(&"cn".into(), &"gone".into()));
        assert!(e.remove_attr(&"mail".into()));
        assert!(!e.has_attr(&"mail".into()));
    }

    #[test]
    fn replace_semantics() {
        let mut e = person();
        e.replace("departmentNumber", ["81", "82"]);
        let vals: Vec<_> = e.values(&"departmentNumber".into()).map(|v| v.raw().to_owned()).collect();
        assert_eq!(vals, ["81", "82"]);
        e.replace("departmentNumber", Vec::<&str>::new());
        assert!(!e.has_attr(&"departmentNumber".into()));
    }

    #[test]
    fn projection_keeps_requested_attrs() {
        let e = person();
        let p = e.project([&"cn".into(), &"mail".into()]);
        assert!(p.has_attr(&"cn".into()));
        assert!(p.has_attr(&"mail".into()));
        assert!(!p.has_attr(&"serialNumber".into()));
        assert_eq!(p.dn(), e.dn());
    }

    /// The sizes DESIGN §5 counts an entry's bytes with.
    #[cfg(target_pointer_width = "64")]
    const _: () = {
        assert!(std::mem::size_of::<Entry>() == 32);
        assert!(std::mem::size_of::<Attr>() == 56);
        assert!(std::mem::size_of::<AttrValue>() == 40 && std::mem::size_of::<AttrName>() == 16);
    };

    /// Handles cross threads: the replica's readers hold the bodies its
    /// writer and the master's store do.
    const _: fn() = || {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<Entry>();
    };

    #[test]
    fn a_clone_shares_the_body_and_a_write_copies_what_it_changes() {
        let held = person();
        let mut e = held.clone();
        // Writes that change nothing, and a rename, leave the body shared.
        assert!(!e.add("cn", "john doe"));
        assert!(!e.remove_value(&"cn".into(), &"absent".into()));
        assert!(!e.remove_attr(&"fax".into()));
        e.replace("mail", ["john@us.xyz.com"]);
        e.replace("fax", Vec::<&str>::new());
        e.set_dn("cn=Renamed,o=xyz".parse().unwrap());
        assert!(Arc::ptr_eq(&e.attrs.0, &held.attrs.0));
        // The first write that changes something copies the slice's
        // pointers and the one set it edits.
        assert!(e.add("cn", "Johnny"));
        assert!(!Arc::ptr_eq(&e.attrs.0, &held.attrs.0));
        for (a, set) in held.attrs() {
            assert_eq!(set.ptr_eq(e.value_set(a).unwrap()), a.lower() != "cn", "{a}");
        }
        e.set_dn(held.dn().clone());
        assert_eq!(held, person());
        assert_ne!(e, held);
        // Another spelling of a held value is a change.
        e.replace("mail", ["JOHN@us.xyz.com"]);
        assert_eq!(e.first_value(&"mail".into()).unwrap().raw(), "JOHN@us.xyz.com");
        assert_eq!(held.first_value(&"mail".into()).unwrap().raw(), "john@us.xyz.com");
        // A projection shares the sets it keeps.
        let mail = AttrName::new("mail");
        assert!(held.project([&mail]).value_set(&mail).unwrap().ptr_eq(held.value_set(&mail).unwrap()));
    }

    #[test]
    fn object_classes_accessor() {
        let e = person();
        let ocs: Vec<_> = e.object_classes().map(|v| v.normalized().to_owned()).collect();
        assert_eq!(ocs, ["inetorgperson"]);
    }

    #[test]
    fn estimated_size_positive_and_monotonic() {
        let mut e = person();
        let before = e.estimated_size();
        e.add("description", "some text");
        assert!(e.estimated_size() > before);
    }
}
