//! GC transparency: a master that aggressively collects garbage must be
//! observationally identical to one that never collects, for every live
//! session, at every poll boundary.
//!
//! Causal-stability GC reclaims replay buffers, posting-list slack and
//! interned ids strictly *below* the stability
//! watermark — state no live session can ever ask about again. If that
//! invariant holds, the wire protocol cannot tell the two masters apart:
//! same actions, same cookies, same replay on duplicate cookies, same
//! `ReplayExpired` on stale ones. This suite drives twin masters through
//! arbitrary interleavings of updates and polls (including a session
//! that goes silent through the churn and resumes right at the
//! watermark) and asserts byte-for-byte equal responses throughout.
//!
//! The same harness carries the collector's reason to exist: over one
//! fixed churn run with a dead session, the collecting twin's
//! deterministic footprint stays flat while the other's only grows.

use fbdr_ldap::{Entry, Filter, SearchRequest};
use fbdr_resync::{Cookie, GcConfig, ReSyncControl, SyncMaster};
use proptest::prelude::*;

const ENTRIES: usize = 16;

fn dn(i: usize) -> fbdr_ldap::Dn {
    format!("cn=g{i},o=xyz").parse().unwrap()
}

fn entry(i: usize, serial: &str) -> Entry {
    Entry::new(dn(i)).with("objectclass", "person").with("serialNumber", serial)
}

/// Serial inside the replicated filter region (`04*`) or outside it.
fn serial(in_filter: bool, i: usize) -> String {
    if in_filter {
        format!("04{i:04}")
    } else {
        format!("99{i:04}")
    }
}

fn filter_request() -> SearchRequest {
    SearchRequest::from_root(Filter::parse("(serialNumber=04*)").unwrap())
}

fn build_master() -> SyncMaster {
    let mut m = SyncMaster::new();
    m.dit_mut().add_suffix("o=xyz".parse().unwrap());
    m.dit_mut()
        .add(Entry::new("o=xyz".parse().unwrap()).with("objectclass", "organization"))
        .unwrap();
    for i in 0..ENTRIES {
        m.dit_mut().add(entry(i, &serial(i % 2 == 0, i))).unwrap();
    }
    m
}

/// Twin masters driven in lockstep: every mutation and every poll hits
/// both; every response pair must match.
struct Twins {
    /// Collects: in the proptest after every single op.
    gc: SyncMaster,
    /// Never collects anything.
    raw: SyncMaster,
    /// Per-session resumption cookies, one slot per scripted session.
    cookies: Vec<Option<Cookie>>,
}

impl Twins {
    fn new(sessions: usize) -> Self {
        Twins::with_gc(
            sessions,
            GcConfig { session_deadline_ms: None, every_ops: Some(1) },
        )
    }

    fn with_gc(sessions: usize, config: GcConfig) -> Self {
        let mut gc = build_master();
        gc.set_gc_config(config);
        // `GcConfig::disabled()` is the default for a master nobody
        // configures, but spell it out: this arm must never reclaim.
        let mut raw = build_master();
        raw.set_gc_config(GcConfig::disabled());
        Twins { gc, raw, cookies: vec![None; sessions] }
    }

    fn apply(&mut self, op: fbdr_dit::UpdateOp) {
        // Deleting absent entries / re-adding present ones no-ops the
        // same way on both arms.
        let a = self.gc.apply(op.clone());
        let b = self.raw.apply(op);
        assert_eq!(a.is_ok(), b.is_ok());
    }

    /// Polls session `s` on both masters and asserts identical
    /// responses; on success, both cookies advance in lockstep.
    fn poll(&mut self, s: usize, redeliver: bool) -> Result<(), TestCaseError> {
        let req = filter_request();
        let ctl = ReSyncControl::poll(self.cookies[s]);
        let a = self.gc.resync(&req, ctl);
        let b = self.raw.resync(&req, ctl);
        prop_assert_eq!(&a, &b, "poll diverged for session {}", s);
        if redeliver {
            // A duplicate of the *same* cookie must replay the same
            // batch on both arms — the GC'd master may not have
            // compacted the replay buffer out from under the retry.
            let a2 = self.gc.resync(&req, ctl);
            let b2 = self.raw.resync(&req, ctl);
            prop_assert_eq!(&a2, &b2, "redelivery diverged for session {}", s);
        }
        if let Ok(resp) = a {
            self.cookies[s] = resp.cookie.or(self.cookies[s]);
        }
        Ok(())
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]
    #[test]
    fn gc_master_is_indistinguishable_from_ungcd_master(
        steps in prop::collection::vec((any::<u8>(), any::<u8>(), any::<bool>()), 0..120),
    ) {
        let mut twins = Twins::new(3);

        // All three sessions install up front. Session 2 then goes
        // silent for the whole script: its stable-at pins the
        // watermark, and it resumes only at the end — exactly at the
        // watermark, the oldest state any live session may demand.
        for s in 0..3 {
            twins.poll(s, false)?;
        }

        for (kind, idx, flag) in steps {
            let i = idx as usize % ENTRIES;
            match kind % 8 {
                // Delete-heavy churn: departures are what feed the
                // per-session `departed` lists GC compacts.
                0 | 1 => twins.apply(fbdr_dit::UpdateOp::Delete(dn(i))),
                2 | 3 => twins.apply(fbdr_dit::UpdateOp::Add(entry(i, &serial(flag, i)))),
                4 => twins.apply(fbdr_dit::UpdateOp::Modify {
                    dn: dn(i),
                    mods: vec![fbdr_dit::Modification::Replace(
                        "serialNumber".into(),
                        vec![serial(flag, i).into()],
                    )],
                }),
                5 => twins.poll(0, flag)?,
                6 => twins.poll(1, flag)?,
                // Fresh DNs stress id recycling: slots freed by the
                // deletes above get reused under new generations.
                _ => {
                    twins.apply(fbdr_dit::UpdateOp::Add(entry(
                        ENTRIES + i,
                        &serial(flag, ENTRIES + i),
                    )));
                    if flag {
                        twins.apply(fbdr_dit::UpdateOp::Delete(dn(ENTRIES + i)));
                    }
                }
            }
        }

        // The silent session resumes right at the watermark...
        twins.poll(2, true)?;
        // ...and every session drains to quiescence identically.
        for s in 0..3 {
            twins.poll(s, true)?;
            twins.poll(s, false)?;
        }

        // GC actually did something to earn the name: the raw arm's
        // table still carries every id it ever interned, the collected
        // arm's carries at most that (usually much less).
        let (g, r) = (twins.gc.memory_footprint(), twins.raw.memory_footprint());
        prop_assert!(g.table_capacity <= r.table_capacity);
        prop_assert!(g.table_live <= r.table_live);
    }
}

/// Bounded memory, on the twin harness: a fixed churn run — base entries toggling across the filter boundary, a
/// rolling window of fresh in-filter DNs added and deleted `WINDOW` steps
/// later, two sessions polling on a cadence and one that installs and
/// never returns. The collecting twin evicts the dead session at its
/// deadline and its footprint high-water stays within 1.10x of the
/// post-warm-up segment; the other twin, pinned by the dead session,
/// grows monotonically. Byte accounting is the master's own
/// (`MasterFootprint`), so the numbers are exact for the run. Every poll
/// along the way is still compared across the twins.
#[test]
fn collected_footprint_stays_flat_while_the_uncollected_twin_grows() {
    const STEPS: usize = 2_400;
    const WINDOW: usize = 32;
    const SEGMENTS: usize = 6;
    let mut twins = Twins::with_gc(
        3,
        GcConfig { session_deadline_ms: Some(200), every_ops: Some(32), ..GcConfig::default() },
    );
    let obs = fbdr_obs::Obs::new();
    twins.gc.set_obs(obs.clone());
    for s in 0..3 {
        twins.poll(s, false).unwrap(); // session 2 is never heard from again
    }
    let mut high_water = [[0usize; SEGMENTS]; 2];
    for step in 0..STEPS {
        let i = step * 7 % ENTRIES;
        twins.apply(fbdr_dit::UpdateOp::Modify {
            dn: dn(i),
            mods: vec![fbdr_dit::Modification::Replace(
                "serialNumber".into(),
                vec![serial(step / ENTRIES % 2 == 0, i).into()],
            )],
        });
        let fresh = ENTRIES + step;
        twins.apply(fbdr_dit::UpdateOp::Add(entry(fresh, &serial(true, fresh))));
        if step >= WINDOW {
            twins.apply(fbdr_dit::UpdateOp::Delete(dn(fresh - WINDOW)));
        }
        // One simulated millisecond per step; only the collecting twin
        // has a deadline wired to the clock.
        twins.gc.advance_to(step as u64 + 1);
        twins.raw.advance_to(step as u64 + 1);
        if step % 8 == 0 {
            twins.poll(step / 8 % 2, step % 56 == 0).unwrap();
        }
        let segment = step * SEGMENTS / STEPS;
        for (arm, master) in [&twins.gc, &twins.raw].into_iter().enumerate() {
            let bytes = master.memory_footprint().total_bytes();
            high_water[arm][segment] = high_water[arm][segment].max(bytes);
        }
    }
    let [gc, raw] = high_water;
    println!("footprint high-water per segment: collected {gc:?}, uncollected {raw:?}");
    // Segment 0 is warm-up: the window is still filling.
    let (baseline, peak) = (gc[1], *gc[2..].iter().max().unwrap());
    assert!(peak * 100 <= baseline * 110, "collected footprint crept: {gc:?}");
    assert!(raw.windows(2).all(|w| w[1] >= w[0]), "uncollected footprint shrank: {raw:?}");
    assert!(raw[SEGMENTS - 1] * 2 > raw[0] * 3, "the run generates no garbage worth collecting");
    assert_eq!(twins.gc.session_count(), 2, "the deadline evicts the dead session");
    assert_eq!(twins.raw.session_count(), 3);
    // The collector reports itself through the master's registry.
    let reg = obs.registry();
    assert!(reg.counter("fbdr_resync_gc_runs_total").get() > 0);
    assert_eq!(reg.counter("fbdr_resync_gc_sessions_evicted_total").get(), 1);
    assert!(reg.render_prometheus().contains("fbdr_resync_stability_lag"));
}
