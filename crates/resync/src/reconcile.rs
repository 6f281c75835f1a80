//! Reconciliation-based session recovery: divergence-proportional resync.
//!
//! When a ReSync session proves unrecoverable (`needs_reinstall()` — an
//! expired cookie or one two responses behind), the PR-1 recovery ladder
//! bottomed out in a **full reinstall**: re-evaluate the filter at the
//! master and re-ship every matching entry, a cost proportional to
//! *content size*. This module replaces that rung with a set
//! reconciliation exchange whose cost is proportional to *divergence* —
//! what actually changed while the replica was detached:
//!
//! 1. **Digest round.** The replica hashes each held item — the pair
//!    `(normalized DN key, entry content version)` — into a 64-bit item
//!    hash and sends a seeded Bloom filter over the set
//!    ([`BloomDigest`], tunable false-positive rate). The master
//!    evaluates the filter content as for a fresh session; every item the
//!    digest *definitely does not contain* is shipped in full (the
//!    replica is provably missing it). The response also carries a
//!    [`RangeSummary`] — per-bucket count + XOR fingerprint over the
//!    master's item hashes — and a fresh cookie already positioned at the
//!    current content, so no common entry is re-shipped.
//! 2. **Range round (fallback).** Bloom filters are one-sided: false
//!    positives hide entries the replica is missing, and nothing in round
//!    one reveals entries the replica must *delete* (the classic Bloom
//!    reconciliation blind spot). The replica compares the summary
//!    against its own post-round-one item set; for each mismatched bucket
//!    it sends the exact hashes it holds there ([`RangeRequest`]). The
//!    master answers from the session's live content: entries for live
//!    items the replica did not list, and bare delete hashes for listed
//!    items the content lacks ([`crate::SyncMaster::reconcile_ranges`]
//!    says why nothing needs freezing between the rounds).
//!
//! Deletes travel as item hashes (the master cannot name replica-only
//! DNs); the replica resolves each to the held entry it hashed, and the
//! exchange comes back as actions naming entries by DN, as ReSync's do.
//! Applying **deletes before adds** makes the modify-false-positive case
//! converge: a stale local version is deleted and immediately replaced by
//! the round-two upsert of the same DN.
//!
//! Every hop is accounted through [`fbdr_net::cost::ExchangeTracker`],
//! splitting payload (entries) from metadata (digest, summary, probes),
//! so the `recovery_cost` benchmark can report exactly where the bytes
//! went.

use crate::driver::SyncTransport;
use crate::intern::entry_key;
use crate::protocol::{Cookie, SyncAction, SyncError, SyncTraffic};
use fbdr_ldap::{Dn, Entry, SearchRequest};
use fbdr_net::cost::{ExchangeTracker, HopDirection, OpStats};
use serde::{Deserialize, Serialize};
use std::collections::{HashMap, HashSet};

// ----------------------------------------------------------------------
// Item hashing
// ----------------------------------------------------------------------

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

fn fnv1a(mut h: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(FNV_PRIME);
    }
    h
}

/// SplitMix64 finalizer: a cheap, well-mixed 64→64 bit permutation.
fn mix64(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Deterministic content hash of an entry: attribute names (lowercased)
/// and values (normalized) in the entry's own order — names ascending,
/// each attribute's values ascending. Two entries equal under LDAP
/// matching rules hash equally on both sides of the wire, so `(DN key,
/// version)` identifies an item independent of which server computed it.
pub fn entry_version(e: &Entry) -> u64 {
    let mut h = FNV_OFFSET;
    for (name, values) in e.attrs() {
        h = fnv1a(h, name.lower().as_bytes());
        h = fnv1a(h, &[0xff]);
        for v in values {
            h = fnv1a(h, v.normalized().as_bytes());
            h = fnv1a(h, &[0xfe]);
        }
    }
    h
}

/// The 64-bit reconciliation item hash of `(DN key, content version)`.
/// `key` must be the normalized DN key ([`crate::dn_key`]).
pub fn item_hash(key: &str, version: u64) -> u64 {
    mix64(fnv1a(FNV_OFFSET, key.as_bytes()) ^ mix64(version))
}

/// The item hash of an entry (key + version in one step).
pub fn entry_item_hash(e: &Entry) -> u64 {
    item_hash(&entry_key(e), entry_version(e))
}

// ----------------------------------------------------------------------
// Bloom digest
// ----------------------------------------------------------------------

/// Target false-positive rate of the digest a replica sends.
pub const DIGEST_FPR: f64 = 0.01;

/// Base seed of the digest; [`reconcile`] salts it with the attempt
/// number, so a retried exchange draws fresh false positives.
const DIGEST_SEED: u64 = 0x5FD1_E7A4_92C3_0B86;

/// The most buckets a range summary has: what a replica asks for at most,
/// and what a master builds whatever it is asked.
const MAX_BUCKETS: u32 = 4096;

/// The most probes per item a digest makes.
const MAX_PROBES: u32 = 16;

/// Range-summary buckets for `items` held entries: ≈ items/8, clamped to
/// `[16, MAX_BUCKETS]`, rounded to a power of two.
fn summary_buckets(items: usize) -> u32 {
    ((items / 8) as u32).clamp(16, MAX_BUCKETS).next_power_of_two()
}

/// A seeded Bloom filter over the replica's item hashes.
///
/// Sized from the item count and a target false-positive rate; probe
/// positions derive from the double-hashing scheme over a per-exchange
/// seed, so a retry with a fresh seed does not repeat the same false
/// positives.
#[derive(Debug, Clone, PartialEq, Eq, Serialize)]
pub struct BloomDigest {
    bits: Vec<u64>,
    /// Filter size in bits.
    m: u64,
    /// Probes per item.
    k: u32,
    /// Per-exchange probe seed.
    seed: u64,
    /// Items inserted.
    items: u64,
}

impl BloomDigest {
    /// Builds a digest over `hashes` sized for false-positive rate `fpr`
    /// (clamped to a sane range), salted with `seed`.
    pub fn build(hashes: &[u64], fpr: f64, seed: u64) -> BloomDigest {
        let n = hashes.len() as f64;
        let p = fpr.clamp(1e-6, 0.5);
        let ln2 = std::f64::consts::LN_2;
        let m_bits = if hashes.is_empty() {
            64
        } else {
            ((-n * p.ln()) / (ln2 * ln2)).ceil().max(64.0) as u64
        };
        let m = m_bits.div_ceil(64) * 64;
        let k = if hashes.is_empty() {
            1
        } else {
            (((m as f64 / n) * ln2).round() as u32).clamp(1, MAX_PROBES)
        };
        let mut d = BloomDigest {
            bits: vec![0u64; (m / 64) as usize],
            m,
            k,
            seed,
            items: hashes.len() as u64,
        };
        for &h in hashes {
            let (h1, h2) = d.probe_pair(h);
            for i in 0..u64::from(d.k) {
                let bit = h1.wrapping_add(i.wrapping_mul(h2)) % d.m;
                d.bits[(bit / 64) as usize] |= 1u64 << (bit % 64);
            }
        }
        d
    }

    fn probe_pair(&self, item: u64) -> (u64, u64) {
        let h1 = mix64(item ^ self.seed);
        let h2 = mix64(h1 ^ 0x9E37_79B9_7F4A_7C15) | 1;
        (h1, h2)
    }

    /// Possibly-contains check: `false` means the item is *definitely*
    /// not in the digested set.
    pub fn contains(&self, item: u64) -> bool {
        let (h1, h2) = self.probe_pair(item);
        (0..u64::from(self.k)).all(|i| {
            let bit = h1.wrapping_add(i.wrapping_mul(h2)) % self.m;
            self.bits[(bit / 64) as usize] & (1u64 << (bit % 64)) != 0
        })
    }

    /// Number of items inserted at build time.
    pub fn items(&self) -> u64 {
        self.items
    }

    /// Estimated wire size: the bit array plus sizing/seed metadata.
    pub fn wire_bytes(&self) -> u64 {
        self.bits.len() as u64 * 8 + 28
    }
}

impl<'de> Deserialize<'de> for BloomDigest {
    /// Loads a digest whose size, bits and probe count agree, as
    /// [`BloomDigest::build`] makes them.
    ///
    /// # Errors
    ///
    /// No bits, a size other than the bit list's, or a probe count outside
    /// `1..=16`: a membership probe would take its bit modulo zero, index
    /// past the list, or probe as often as the sender asked.
    fn deserialize<D: serde::Deserializer<'de>>(de: D) -> Result<Self, D::Error> {
        use serde::de::Error as _;
        #[derive(Deserialize)]
        struct Wire {
            bits: Vec<u64>,
            m: u64,
            k: u32,
            seed: u64,
            items: u64,
        }
        let Wire { bits, m, k, seed, items } = Wire::deserialize(de)?;
        if bits.is_empty() || bits.len() as u64 * 64 != m || !(1..=MAX_PROBES).contains(&k) {
            return Err(D::Error::custom(format!(
                "a digest of {} words cannot have {m} bits and {k} probes",
                bits.len()
            )));
        }
        Ok(BloomDigest { bits, m, k, seed, items })
    }
}

// ----------------------------------------------------------------------
// Range summary
// ----------------------------------------------------------------------

/// Per-bucket fingerprint of one hash-space range.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct BucketSummary {
    /// Items whose hash falls in the bucket.
    pub count: u32,
    /// XOR of those item hashes.
    pub xor: u64,
}

/// The master's item set summarized by hash-space range: the top bits of
/// each item hash select a bucket; each bucket carries a count and an XOR
/// fingerprint. A replica whose bucket matches both holds (with
/// overwhelming probability) exactly the master's items there; mismatched
/// buckets are resolved exactly in the range round.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct RangeSummary {
    /// Right-shift mapping an item hash to its bucket index.
    shift: u32,
    buckets: Vec<BucketSummary>,
}

/// Maps a hash to its bucket under `shift` (shift ≥ 64 ⇒ single bucket).
pub(crate) fn bucket_of(hash: u64, shift: u32) -> usize {
    if shift >= 64 {
        0
    } else {
        (hash >> shift) as usize
    }
}

impl RangeSummary {
    /// Builds a summary with `buckets` buckets (rounded up to a power of
    /// two, at least 2 and at most 4096) over `hashes`.
    pub fn build(buckets: u32, hashes: &[u64]) -> RangeSummary {
        let n = buckets.clamp(2, MAX_BUCKETS).next_power_of_two();
        let shift = 64 - n.trailing_zeros();
        let mut out =
            RangeSummary { shift, buckets: vec![BucketSummary::default(); n as usize] };
        for &h in hashes {
            let b = &mut out.buckets[bucket_of(h, shift)];
            b.count += 1;
            b.xor ^= h;
        }
        out
    }

    /// The right-shift mapping item hashes to bucket indexes.
    pub fn shift(&self) -> u32 {
        self.shift
    }

    /// Number of buckets.
    pub fn len(&self) -> usize {
        self.buckets.len()
    }

    /// True when the summary has no buckets (never produced by `build`).
    pub fn is_empty(&self) -> bool {
        self.buckets.is_empty()
    }

    /// Bucket indexes where `self` (the remote summary) disagrees with a
    /// summary of the local `hashes` — ranges holding residual
    /// uncertainty after the Bloom round.
    pub fn mismatched_buckets(&self, hashes: &[u64]) -> Vec<u32> {
        let local = RangeSummary::build(self.buckets.len() as u32, hashes);
        self.buckets
            .iter()
            .zip(&local.buckets)
            .enumerate()
            .filter(|(_, (remote, mine))| remote != mine)
            .map(|(i, _)| i as u32)
            .collect()
    }

    /// Estimated wire size: 12 bytes per bucket plus framing.
    pub fn wire_bytes(&self) -> u64 {
        self.buckets.len() as u64 * 12 + 8
    }
}

// ----------------------------------------------------------------------
// Wire types
// ----------------------------------------------------------------------

/// Round one, replica → master: the digest leg of the ReSync protocol.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ReconcileRequest {
    /// Bloom digest over the replica's item hashes.
    pub digest: BloomDigest,
    /// Bucket count the replica wants the range summary built with.
    pub summary_buckets: u32,
}

impl ReconcileRequest {
    /// Estimated wire size.
    pub fn wire_bytes(&self) -> u64 {
        self.digest.wire_bytes() + 4
    }
}

/// Round one, master → replica: definite misses shipped in full, the
/// range summary for residual-uncertainty detection, and a fresh cookie
/// already positioned at the master's current content.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ReconcileResponse {
    /// Entries the replica is definitely missing (Bloom negatives), in
    /// DN order.
    pub upserts: Vec<Entry>,
    /// Range summary over the master's full item set.
    pub summary: RangeSummary,
    /// Resumption cookie for the re-established session.
    pub cookie: Cookie,
}

impl ReconcileResponse {
    /// Estimated payload (entry) wire bytes.
    pub fn state_bytes(&self) -> u64 {
        self.upserts.iter().map(|e| e.estimated_size() as u64 + 8).sum()
    }

    /// Estimated metadata (summary + cookie) wire bytes.
    pub fn metadata_bytes(&self) -> u64 {
        self.summary.wire_bytes() + 8
    }
}

/// One probed range of the fallback round: the replica's exact item
/// hashes within a mismatched bucket.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct RangeProbe {
    /// Bucket index under the summary's shift.
    pub bucket: u32,
    /// The replica's item hashes in the bucket, sorted.
    pub hashes: Vec<u64>,
}

/// Round two, replica → master: exact hashes for every mismatched range.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct RangeRequest {
    /// Probes, one per mismatched bucket, in bucket order.
    pub probes: Vec<RangeProbe>,
}

impl RangeRequest {
    /// Estimated wire size (hashes + per-probe framing + cookie).
    pub fn wire_bytes(&self) -> u64 {
        self.probes.iter().map(|p| 12 + p.hashes.len() as u64 * 8).sum::<u64>() + 8
    }
}

/// Round two, master → replica: entries the replica was missing inside
/// the probed ranges (Bloom false positives) and the item hashes it must
/// delete.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RangeResponse {
    /// False-positive recoveries: full entries, in DN order.
    pub upserts: Vec<Entry>,
    /// Item hashes present at the replica but absent from the master's
    /// round-one set — the replica resolves and deletes them locally.
    pub delete_hashes: Vec<u64>,
}

impl RangeResponse {
    /// Estimated payload (entry) wire bytes.
    pub fn state_bytes(&self) -> u64 {
        self.upserts.iter().map(|e| e.estimated_size() as u64 + 8).sum()
    }

    /// Estimated metadata (delete hashes + framing) wire bytes.
    pub fn metadata_bytes(&self) -> u64 {
        self.delete_hashes.len() as u64 * 8 + 8
    }
}

// ----------------------------------------------------------------------
// Outcome
// ----------------------------------------------------------------------

/// Where the bytes of one reconciliation exchange went.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct ReconcileCost {
    /// Aggregate round trips / bytes, tracker-derived.
    pub stats: OpStats,
    /// Digest bytes sent in round one.
    pub digest_bytes: u64,
    /// Probes sent in the fallback round (0 when the Bloom round settled
    /// everything).
    pub fallback_probes: u64,
    /// Entries shipped (both rounds).
    pub shipped_entries: u64,
    /// Deletes conveyed (as item hashes).
    pub deletes: u64,
}

/// The result of a completed reconciliation: what to apply and what it
/// cost.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ReconcileOutcome {
    /// Actions to apply in order: every [`SyncAction::Delete`] first, then
    /// an [`SyncAction::Add`] per shipped entry at the master's version —
    /// so a stale held version of a modified entry is deleted and then
    /// re-added.
    pub actions: Vec<SyncAction>,
    /// The re-established session cookie, valid for incremental polls.
    pub cookie: Cookie,
    /// Byte/round-trip accounting for the exchange.
    pub cost: ReconcileCost,
}

impl ReconcileOutcome {
    /// The exchange expressed as [`SyncTraffic`], comparable with a
    /// reinstall's `resp.traffic()`: shipped entries as full-entry PDUs,
    /// deletes as DN-only PDUs, bytes as actual wire bytes both ways.
    pub fn traffic(&self) -> SyncTraffic {
        SyncTraffic {
            full_entries: self.cost.shipped_entries,
            dn_only: self.cost.deletes,
            bytes: self.cost.stats.bytes_total(),
        }
    }
}

// ----------------------------------------------------------------------
// Replica-side exchange
// ----------------------------------------------------------------------

/// Runs one full reconciliation exchange for `request` against `shard`
/// of `transport` (the only shard, [`fbdr_net::ShardId::ZERO`], on an
/// unsharded transport, which serves every shard id as its one master).
///
/// `held` yields the replica's current held entries for the slice; it is
/// read once. `attempt` (0 on a first try) salts the digest seed. The
/// function is read-only with respect to replica content: it returns
/// what to apply, it does not apply it. A delete hash from the range
/// round resolves to the held DN it was computed from.
///
/// # Errors
///
/// Propagates [`SyncError`] from the transport (transient errors are
/// *not* retried here — wrap the call in `SyncDriver::reconcile`), and
/// [`SyncError::ReconcileFailed`] when the master cannot complete the
/// exchange.
pub fn reconcile(
    transport: &mut dyn SyncTransport,
    shard: fbdr_net::ShardId,
    request: &SearchRequest,
    held: &dyn Fn() -> Vec<Entry>,
    attempt: u32,
) -> Result<ReconcileOutcome, SyncError> {
    let held = held();
    let hashes: Vec<u64> = held.iter().map(entry_item_hash).collect();
    let seed = DIGEST_SEED ^ u64::from(attempt).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    let req = ReconcileRequest {
        digest: BloomDigest::build(&hashes, DIGEST_FPR, seed),
        summary_buckets: summary_buckets(held.len()),
    };
    let digest_bytes = req.wire_bytes();

    let mut tracker = ExchangeTracker::new();
    tracker.begin_round();
    tracker.register(HopDirection::LocalToRemote, 0, digest_bytes);
    let resp = transport.reconcile_at(shard, request, req)?;
    tracker.register(HopDirection::RemoteToLocal, resp.state_bytes(), resp.metadata_bytes());

    // The replica's item set *after* applying round-one upserts: held
    // items whose DN was not superseded, plus the shipped entries at the
    // master's version.
    let superseded: HashSet<&Dn> = resp.upserts.iter().map(Entry::dn).collect();
    let mut post: Vec<u64> = resp.upserts.iter().map(entry_item_hash).collect();
    let mut post_dns: HashMap<u64, &Dn> = HashMap::with_capacity(held.len());
    for (e, &h) in held.iter().zip(&hashes) {
        if !superseded.contains(e.dn()) {
            post.push(h);
            post_dns.insert(h, e.dn());
        }
    }

    let mut actions: Vec<SyncAction> = Vec::new();
    let mut upserts = resp.upserts;
    let mut fallback_probes = 0u64;
    let mismatched = resp.summary.mismatched_buckets(&post);
    if !mismatched.is_empty() {
        // Residual uncertainty: false positives and/or deletions. Probe
        // the disagreeing ranges exactly.
        let shift = resp.summary.shift();
        let mut probes: Vec<RangeProbe> = mismatched
            .iter()
            .map(|&b| RangeProbe { bucket: b, hashes: Vec::new() })
            .collect();
        let index_of: HashMap<u32, usize> =
            mismatched.iter().enumerate().map(|(i, &b)| (b, i)).collect();
        for &h in &post {
            if let Some(&i) = index_of.get(&(bucket_of(h, shift) as u32)) {
                probes[i].hashes.push(h);
            }
        }
        for p in &mut probes {
            p.hashes.sort_unstable();
        }
        let rreq = RangeRequest { probes };
        fallback_probes = rreq.probes.len() as u64;
        tracker.begin_round();
        tracker.register(HopDirection::LocalToRemote, 0, rreq.wire_bytes());
        let r2 = transport.reconcile_ranges_at(shard, resp.cookie, &rreq)?;
        tracker.register(HopDirection::RemoteToLocal, r2.state_bytes(), r2.metadata_bytes());
        // Unknown hashes (cannot happen with a well-behaved master) are
        // ignored — deleting nothing is safe.
        let deletes = r2.delete_hashes.iter().filter_map(|h| post_dns.get(h));
        actions.extend(deletes.map(|&dn| SyncAction::Delete(dn.clone())));
        // A round-two upsert of a DN we still hold (modify false
        // positive) supersedes the held version; the delete of its stale
        // hash has already been collected above, and delete-before-add
        // apply order makes the pair converge.
        upserts.extend(r2.upserts);
    }

    let deletes = actions.len() as u64;
    let shipped_entries = upserts.len() as u64;
    actions.extend(upserts.into_iter().map(SyncAction::Add));
    let mut stats = tracker.to_stats();
    stats.entries_returned = shipped_entries;
    Ok(ReconcileOutcome {
        actions,
        cookie: resp.cookie,
        cost: ReconcileCost {
            stats,
            digest_bytes,
            fallback_probes,
            shipped_entries,
            deletes,
        },
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn entry(dn: &str, mail: &str) -> Entry {
        Entry::new(dn.parse().unwrap()).with("objectclass", "person").with("mail", mail)
    }

    #[test]
    fn entry_version_is_content_sensitive_and_spelling_insensitive() {
        let a = entry("cn=a,o=x", "a@x");
        let b = entry("cn=a,o=x", "b@x");
        assert_ne!(entry_version(&a), entry_version(&b), "value change changes version");
        // Matching-rule-equal spellings agree.
        let c = Entry::new("cn=a,o=x".parse().unwrap())
            .with("objectClass", "Person")
            .with("MAIL", " A@X ");
        assert_eq!(entry_version(&a), entry_version(&c));
        assert_eq!(entry_item_hash(&a), entry_item_hash(&c));
        assert_ne!(entry_item_hash(&a), entry_item_hash(&b));
    }

    #[test]
    fn bloom_has_no_false_negatives_and_bounded_false_positives() {
        let members: Vec<u64> = (0..2_000u64).map(|i| mix64(i.wrapping_mul(0x9E37))).collect();
        let d = BloomDigest::build(&members, 0.01, 42);
        for &h in &members {
            assert!(d.contains(h), "no false negatives");
        }
        let fp = (0..20_000u64)
            .map(|i| mix64(i.wrapping_mul(0xABCD_EF12_3456)))
            .filter(|h| !members.contains(h) && d.contains(*h))
            .count();
        // 1% target; allow generous slack for the small sample.
        assert!(fp < 800, "false positive count {fp} way over target");
        assert!(d.wire_bytes() < 3_500, "≈1.2 bytes/item at 1% fpr, got {}", d.wire_bytes());
    }

    #[test]
    fn bloom_seed_changes_false_positive_pattern() {
        let members: Vec<u64> = (0..500u64).map(|i| mix64(i ^ 0x55)).collect();
        let d1 = BloomDigest::build(&members, 0.05, 1);
        let d2 = BloomDigest::build(&members, 0.05, 2);
        let probe: Vec<u64> = (0..50_000u64).map(|i| mix64(i ^ 0xF00D)).collect();
        let fp1: Vec<u64> =
            probe.iter().copied().filter(|h| !members.contains(h) && d1.contains(*h)).collect();
        let fp2: Vec<u64> =
            probe.iter().copied().filter(|h| !members.contains(h) && d2.contains(*h)).collect();
        assert_ne!(fp1, fp2, "different seeds must draw different false positives");
    }

    #[test]
    fn empty_digest_contains_nothing() {
        let d = BloomDigest::build(&[], 0.01, 7);
        assert!(!d.contains(123));
        assert_eq!(d.items(), 0);
    }

    #[test]
    fn range_summary_flags_exactly_the_differing_buckets() {
        let base: Vec<u64> = (0..1_000u64).map(|i| mix64(i)).collect();
        let s = RangeSummary::build(64, &base);
        assert!(s.mismatched_buckets(&base).is_empty(), "identical sets agree everywhere");

        // Remove one item and add another: at most two buckets disagree.
        let mut other = base.clone();
        other.remove(17);
        other.push(mix64(0xDEAD_BEEF));
        let bad = s.mismatched_buckets(&other);
        assert!(!bad.is_empty() && bad.len() <= 2, "local diff stays local: {bad:?}");
    }

    #[test]
    fn bucket_count_rounds_to_power_of_two() {
        let s = RangeSummary::build(33, &[]);
        assert_eq!(s.len(), 64);
        assert_eq!(s.shift(), 58);
        let one = RangeSummary::build(0, &[1, 2, 3]);
        assert_eq!(one.len(), 2);
    }

    #[test]
    fn summary_buckets_scale_with_content() {
        assert_eq!(summary_buckets(0), 16);
        assert_eq!(summary_buckets(2_000), 256);
        assert_eq!(summary_buckets(1_000_000), 4096);
    }

    #[test]
    fn wire_sizes_are_plausible() {
        let hashes: Vec<u64> = (0..1_000u64).map(mix64).collect();
        let req = ReconcileRequest {
            digest: BloomDigest::build(&hashes, 0.01, 0),
            summary_buckets: 128,
        };
        // ≈1.2 bytes/item at 1% fpr.
        assert!(req.wire_bytes() > 1_000 && req.wire_bytes() < 2_000);
        let s = RangeSummary::build(128, &hashes);
        assert_eq!(s.wire_bytes(), 128 * 12 + 8);
        let rr = RangeRequest {
            probes: vec![RangeProbe { bucket: 0, hashes: vec![1, 2, 3] }],
        };
        assert_eq!(rr.wire_bytes(), 12 + 24 + 8);
    }
}
