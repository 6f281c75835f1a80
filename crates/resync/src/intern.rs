//! Canonical DN keys and the deterministic byte price of a DN.

use fbdr_ldap::{Dn, Entry};

/// The canonical string key of a DN: lowercased attribute types and
/// normalized values, comma-joined leaf-first. Two DNs that compare equal
/// under LDAP matching rules produce the same key.
pub fn dn_key(dn: &Dn) -> String {
    let mut out = String::new();
    for (i, r) in dn.rdns().iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(r.attr().lower());
        out.push('=');
        out.push_str(r.value().normalized());
    }
    out
}

/// The canonical key of an entry's DN (see [`dn_key`]).
pub fn entry_key(e: &Entry) -> String {
    dn_key(e.dn())
}

/// Deterministic byte accounting for one DN: the sum of its normalized
/// attribute/value lengths plus a fixed per-RDN overhead. Used by the
/// memory-footprint reports instead of allocator statistics so equal
/// runs report equal bytes on every platform.
pub fn dn_approx_bytes(dn: &Dn) -> usize {
    dn.rdns()
        .iter()
        .map(|r| r.attr().lower().len() + r.value().normalized().len() + 16)
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn keys_are_normalized() {
        let d: Dn = "CN=John  Doe, O=XYZ".parse().unwrap();
        assert_eq!(dn_key(&d), "cn=john doe,o=xyz");
        let e = Entry::new("cn=A,o=X".parse().unwrap());
        assert_eq!(entry_key(&e), "cn=a,o=x");
    }
}
