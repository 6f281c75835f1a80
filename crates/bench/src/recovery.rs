//! `repro recovery-cost`: what a lost session costs to repair, across a
//! ladder of divergence sizes (an extension beyond the paper; DESIGN §13).
//!
//! Three recovery strategies are measured against byte-identical masters
//! and update streams at each divergence rung `N` (updates applied while
//! the replica was detached):
//!
//! - **cookie replay** — the session survived; an incremental poll ships
//!   just the batched changes. The lower bound, available only while the
//!   master still holds the session and its replay buffer.
//! - **reconcile** — the session is gone; the replica sends a Bloom
//!   digest over its (entry, version) set and receives only the entries
//!   the master cannot prove it has, plus the deletes found by the range
//!   fallback round. Cost is divergence-proportional.
//! - **reinstall** — the pre-reconciliation ladder: a fresh `poll(None)`
//!   reloads the entire filter content regardless of how little changed.
//!
//! Each rung verifies the reconcile outcome converges the held content
//! to the master's evaluation byte-for-byte before reporting a single
//! number — the experiment refuses to price a recovery that is wrong.
//! Bytes, round trips and entry counts are exact for a configuration, so
//! the table regenerates number for number; the headline
//! (`reinstall_bytes / reconcile_bytes` at the 10-update rung: a short
//! outage on a large filter) is asserted by this module's test.

use crate::Scale;
use fbdr_dit::{Modification, UpdateOp};
use fbdr_ldap::{Entry, Filter, Scope, SearchRequest};
use fbdr_resync::reconcile::entry_item_hash;
use fbdr_resync::{
    ReSyncControl, ReplicaContent, RetryConfig, ShardId, SyncAction, SyncDriver, SyncMaster,
    SyncTraffic,
};

/// Experiment configuration.
#[derive(Debug, Clone)]
pub struct RecoveryConfig {
    /// Person entries in the directory (all inside the replicated filter).
    pub entries: usize,
    /// Divergence ladder: updates applied while the session is detached.
    pub rungs: Vec<usize>,
}

impl RecoveryConfig {
    /// The ladder for a `repro --scale`. The top rung of `paper` and
    /// `large` is five times the filter's entries — past the crossover
    /// where a reinstall becomes the cheaper recovery.
    pub fn for_scale(scale: Scale) -> Self {
        let (entries, rungs) = match scale {
            Scale::Small => (400, vec![1, 10, 100]),
            Scale::Paper => (2_000, vec![1, 10, 100, 1_000, 10_000]),
            Scale::Large => (20_000, vec![1, 10, 100, 1_000, 10_000, 100_000]),
        };
        RecoveryConfig { entries, rungs }
    }
}

/// One divergence rung's measurement.
#[derive(Debug, Clone)]
pub struct RecoveryRung {
    /// Updates applied while detached.
    pub divergence: usize,
    /// Distinct entries the updates actually touched.
    pub diverged_entries: usize,
    /// Incremental poll with a live cookie: bytes / PDUs shipped.
    pub replay_bytes: u64,
    /// PDUs in the replay batch.
    pub replay_pdus: u64,
    /// Reconcile exchange: total bytes both directions.
    pub reconcile_bytes: u64,
    /// Round trips the exchange took (1 = Bloom round settled it).
    pub reconcile_round_trips: u64,
    /// Bytes of the Bloom digest sent in round one.
    pub reconcile_digest_bytes: u64,
    /// Full entries shipped by the master.
    pub reconcile_shipped_entries: u64,
    /// Deletes conveyed (as item hashes).
    pub reconcile_deletes: u64,
    /// Exact hashes probed in the fallback round.
    pub reconcile_fallback_probes: u64,
    /// Full reinstall: bytes of a fresh `poll(None)` of the same filter.
    pub reinstall_bytes: u64,
    /// Entries the reinstall shipped (the whole filter content).
    pub reinstall_entries: u64,
    /// `reinstall_bytes / reconcile_bytes` — the headline ratio.
    pub reinstall_over_reconcile: f64,
}

fn entry_of(i: usize) -> Entry {
    Entry::new(format!("cn=e{i},o=xyz").parse().expect("dn"))
        .with("objectclass", "person")
        .with("cn", &format!("e{i}"))
        .with("serialNumber", &format!("{:08}", 10_000_000 + i))
        .with("description", "a replicated person entry with a realistic payload size")
}

fn build_master(entries: usize) -> SyncMaster {
    let mut m = SyncMaster::new();
    m.dit_mut().add_suffix("o=xyz".parse().expect("dn"));
    m.dit_mut().add(Entry::new("o=xyz".parse().expect("dn"))).expect("suffix entry");
    for i in 0..entries {
        m.dit_mut().add(entry_of(i)).expect("person entry");
    }
    m
}

fn filter_request() -> SearchRequest {
    SearchRequest::new(
        "o=xyz".parse().expect("dn"),
        Scope::Subtree,
        Filter::parse("(objectclass=person)").expect("bench filter parses"),
    )
}

/// The `k`-th divergence update: mostly in-place modifies, every seventh
/// a delete — lost deletions are the case reconciliation must not miss.
/// Regenerated per leg so every master sees the identical stream; ops
/// against already-deleted entries are skipped on every leg alike.
fn update_at(k: usize, entries: usize) -> UpdateOp {
    let i = k % entries;
    if k % 7 == 3 {
        UpdateOp::Delete(format!("cn=e{i},o=xyz").parse().expect("dn"))
    } else {
        UpdateOp::Modify {
            dn: format!("cn=e{i},o=xyz").parse().expect("dn"),
            mods: vec![Modification::Replace(
                "serialNumber".into(),
                vec![format!("{:08}", 20_000_000 + k).into()],
            )],
        }
    }
}

fn apply_divergence(m: &mut SyncMaster, n: usize, entries: usize) -> usize {
    let mut touched = std::collections::BTreeSet::new();
    for k in 0..n {
        if m.apply(update_at(k, entries)).is_ok() {
            touched.insert(k % entries);
        }
    }
    touched.len()
}

fn traffic_of(actions: &[SyncAction]) -> SyncTraffic {
    let mut t = SyncTraffic::default();
    for a in actions {
        t.count(a);
    }
    t
}

/// Measures one rung: replay, reconcile, reinstall, each on its own
/// identically-built master.
fn measure_rung(cfg: &RecoveryConfig, n: usize) -> RecoveryRung {
    let request = filter_request();

    // Leg 1 — cookie replay: install a session, diverge, poll it.
    let mut m = build_master(cfg.entries);
    let resp = m.resync(&request, ReSyncControl::poll(None)).expect("install");
    let cookie = resp.cookie.expect("cookie");
    apply_divergence(&mut m, n, cfg.entries);
    let resp = m.resync(&request, ReSyncControl::poll(Some(cookie))).expect("replay poll");
    let replay = traffic_of(&resp.actions);

    // Leg 2 — reconcile: the session is dead; only the held content
    // (the pre-divergence filter evaluation) survives replica-side.
    let mut m = build_master(cfg.entries);
    let mut held: Vec<Entry> = m.dit().search(&request);
    held.sort_by(|a, b| a.dn().cmp(b.dn()));
    let diverged_entries = apply_divergence(&mut m, n, cfg.entries);

    let mut driver = SyncDriver::new(RetryConfig::default());
    let outcome = driver
        .reconcile(&mut m, ShardId::ZERO, &request, &|| held.clone())
        .expect("reconcile exchange");

    // Refuse to price a wrong recovery: applying the outcome to the held
    // content must reproduce the master's current evaluation exactly.
    let mut recovered = ReplicaContent::new();
    recovered.apply_all(&held.into_iter().map(SyncAction::Add).collect::<Vec<_>>());
    recovered.apply_all(&outcome.actions);
    let mut want = m.dit().search(&request);
    want.sort_by(|a, b| a.dn().cmp(b.dn()));
    let got: Vec<&Entry> = recovered.iter().collect();
    assert_eq!(got.len(), want.len(), "reconcile diverged at N={n}: entry count");
    for (g, w) in got.iter().zip(want.iter()) {
        assert_eq!(
            entry_item_hash(g),
            entry_item_hash(w),
            "reconcile diverged at N={n}: {} differs",
            w.dn()
        );
    }
    let cost = outcome.cost;

    // Leg 3 — reinstall: diverge, then reload the filter from scratch.
    let mut m = build_master(cfg.entries);
    apply_divergence(&mut m, n, cfg.entries);
    let resp = m.resync(&request, ReSyncControl::poll(None)).expect("reinstall");
    let reinstall = traffic_of(&resp.actions);

    let reconcile_bytes = cost.stats.bytes_total();
    RecoveryRung {
        divergence: n,
        diverged_entries,
        replay_bytes: replay.bytes,
        replay_pdus: replay.full_entries + replay.dn_only,
        reconcile_bytes,
        reconcile_round_trips: cost.stats.round_trips,
        reconcile_digest_bytes: cost.digest_bytes,
        reconcile_shipped_entries: cost.shipped_entries,
        reconcile_deletes: cost.deletes,
        reconcile_fallback_probes: cost.fallback_probes,
        reinstall_bytes: reinstall.bytes,
        reinstall_entries: reinstall.full_entries,
        reinstall_over_reconcile: reinstall.bytes as f64 / reconcile_bytes.max(1) as f64,
    }
}

/// Runs the divergence ladder, one row per rung.
pub fn run(cfg: &RecoveryConfig) -> Vec<RecoveryRung> {
    cfg.rungs.iter().map(|&n| measure_rung(cfg, n)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The headline, at `--scale small`: ten updates missed on a 400-entry
    /// filter cost a reconcile at least five times fewer bytes than a
    /// reinstall, in at most two round trips. (That every rung's
    /// reconcile converges, deletions included, `measure_rung` asserts
    /// before it prices anything.)
    #[test]
    fn reconcile_undercuts_reinstall_at_small_divergence() {
        let cfg = RecoveryConfig::for_scale(Scale::Small);
        let rungs = run(&cfg);
        assert_eq!(rungs.iter().map(|r| r.divergence).collect::<Vec<_>>(), cfg.rungs);
        for r in &rungs {
            assert!(r.replay_bytes > 0 && r.reconcile_bytes > 0 && r.reinstall_bytes > 0);
            assert!((1..=2).contains(&r.reconcile_round_trips), "{r:?}");
            assert!(r.reinstall_entries as usize <= cfg.entries);
        }
        let ten = &rungs[1];
        assert_eq!(ten.divergence, 10);
        assert!(
            ten.reinstall_over_reconcile >= 5.0,
            "reconcile stopped being divergence-proportional: {ten:?}"
        );
        // Divergence-proportional: ten times the updates, more bytes.
        assert!(rungs[2].reconcile_bytes > ten.reconcile_bytes);
    }

    /// Deletes while detached are part of every rung's stream; the
    /// equivalence assertion inside `measure_rung` would fail if the
    /// reconcile leg lost one. This pins that the stream really contains
    /// them at the headline rung.
    #[test]
    fn divergence_stream_contains_deletes() {
        let deletes =
            (0..10).filter(|&k| matches!(update_at(k, 120), UpdateOp::Delete(_))).count();
        assert!(deletes > 0, "the 10-update rung must exercise deletions");
    }
}
