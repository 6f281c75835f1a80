//! Output checks. The master's own `DitStore::search` is the oracle: a
//! converged replica holds, for each stored filter, exactly what the master
//! returns for it, and answers a contained query exactly as the master would.
//!
//! Entry sets are compared by an order-independent digest computed here (not
//! with the program's reconciliation hashes), so a bug in those cannot hide
//! itself.

use fbdr_ldap::Entry;

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

fn fnv(mut h: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        h = (h ^ u64::from(b)).wrapping_mul(FNV_PRIME);
    }
    h
}

fn entry_digest(e: &Entry) -> u64 {
    let mut h = fnv(
        FNV_OFFSET,
        e.dn().to_string().to_ascii_lowercase().as_bytes(),
    );
    for (name, values) in e.attrs() {
        h = fnv(h, &[0xff]);
        h = fnv(h, name.lower().as_bytes());
        for v in values {
            h = fnv(h, &[0xfe]);
            h = fnv(h, v.normalized().as_bytes());
        }
    }
    h
}

/// Order-independent digest of an entry set: the count and the wrapping sum
/// of per-entry digests (a sum, not an xor, so a duplicated entry shows).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SetDigest {
    /// Entries in the set.
    pub count: u64,
    /// Wrapping sum of entry digests.
    pub sum: u64,
}

impl SetDigest {
    /// Digest of `entries`.
    pub fn of(entries: &[Entry]) -> SetDigest {
        let mut d = SetDigest::default();
        for e in entries {
            d.count += 1;
            d.sum = d.sum.wrapping_add(entry_digest(e));
        }
        d
    }

    /// Folds another digest in (for a digest over several sets).
    pub fn absorb(&mut self, other: SetDigest) {
        self.count += other.count;
        self.sum = self.sum.wrapping_add(other.sum.rotate_left(1));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn e(dn: &str, mail: &str) -> Entry {
        Entry::new(dn.parse().unwrap())
            .with("objectclass", "person")
            .with("mail", mail)
    }

    #[test]
    fn digest_ignores_order_and_sees_content_and_duplicates() {
        let a = e("cn=a,o=x", "a@x");
        let b = e("cn=b,o=x", "b@x");
        assert_eq!(
            SetDigest::of(&[a.clone(), b.clone()]),
            SetDigest::of(&[b.clone(), a.clone()])
        );
        assert_ne!(
            SetDigest::of(std::slice::from_ref(&a)),
            SetDigest::of(&[e("cn=a,o=x", "other@x")])
        );
        assert_ne!(
            SetDigest::of(&[a.clone(), a.clone(), b.clone()]),
            SetDigest::of(&[a, b])
        );
        assert_eq!(SetDigest::of(&[]), SetDigest::default());
    }
}
