//! Sorted-`Vec<u32>` posting lists over an interned id space: the
//! membership trio every id set in the stack is edited with — the master's
//! session bookkeeping, the routing index's buckets, and the replica's
//! filter contents and snapshot index. Lists are tiny relative to a
//! `HashSet<Dn>` (4 bytes per member, no per-DN string hashing) and
//! membership is a binary search.

/// Inserts `id` into a sorted list; returns true when it was absent.
pub fn insert_sorted(list: &mut Vec<u32>, id: u32) -> bool {
    match list.binary_search(&id) {
        Ok(_) => false,
        Err(pos) => {
            list.insert(pos, id);
            true
        }
    }
}

/// Removes `id` from a sorted list; returns true when it was present.
pub fn remove_sorted(list: &mut Vec<u32>, id: u32) -> bool {
    match list.binary_search(&id) {
        Ok(pos) => {
            list.remove(pos);
            true
        }
        Err(_) => false,
    }
}

/// Membership test by binary search.
pub fn contains(list: &[u32], id: u32) -> bool {
    list.binary_search(&id).is_ok()
}
