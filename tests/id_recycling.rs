//! Churn through a master's sessions: DNs come and go, and no session can
//! tell what the master keeps for it.
//!
//! A session is its history: the DNs that entered, changed inside or left
//! its content since the last delivery. A delivery empties it, an arrival
//! that leaves again before one is dropped, and a session's end takes it
//! away. The churn proptest drives arbitrary interleavings of updates and
//! polls — fresh DNs where others were deleted, duplicated cookies, and a
//! session that goes silent through the churn and resumes at the end — and
//! feeds every response into a model replica keyed by DN: at every poll
//! the model is the master's answer, every `Delete` names a DN the model
//! holds, and no deletion is lost.
//!
//! The footprint test carries the bound: over one fixed churn run with a
//! dead session — and no eviction, no collection pass, no clock — the
//! master's deterministic footprint stays flat and its histories stay the
//! size of the content, not of the churn.

use fbdr_ldap::{Entry, Filter, SearchRequest};
use fbdr_resync::{Cookie, ReSyncControl, ReplicaContent, SyncAction, SyncMaster};
use proptest::prelude::*;

const ENTRIES: usize = 16;

fn dn(i: usize) -> fbdr_ldap::Dn {
    format!("cn=g{i},o=xyz").parse().unwrap()
}

fn entry(i: usize, serial: &str) -> Entry {
    Entry::new(dn(i))
        .with("objectclass", "person")
        .with("serialNumber", serial)
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

/// A master and its sessions, each with the cookie it resumes from and a
/// model replica fed every response it gets.
struct Fleet {
    master: SyncMaster,
    cookies: Vec<Option<Cookie>>,
    models: Vec<ReplicaContent>,
}

impl Fleet {
    fn new(sessions: usize) -> Self {
        Fleet {
            master: build_master(),
            cookies: vec![None; sessions],
            models: vec![ReplicaContent::new(); sessions],
        }
    }

    fn apply(&mut self, op: fbdr_dit::UpdateOp) {
        // Deleting absent entries and re-adding present ones are refused,
        // like racing clients; the histories must not notice either way.
        let _ = self.master.apply(op);
    }

    /// Polls session `s` and applies the response to its model; with
    /// `redeliver`, the same cookie is sent again and must replay the
    /// same batch under the same cookie.
    fn poll(&mut self, s: usize, redeliver: bool) -> Result<(), TestCaseError> {
        let req = filter_request();
        let ctl = ReSyncControl::poll(self.cookies[s]);
        let resp = self.master.resync(&req, ctl).expect("the session is live");
        if redeliver {
            let again = self
                .master
                .resync(&req, ctl)
                .expect("the batch is replayable");
            prop_assert_eq!(&again.actions, &resp.actions, "replay of session {}", s);
            prop_assert_eq!(again.cookie, resp.cookie);
        }
        let model = &mut self.models[s];
        for a in &resp.actions {
            if let SyncAction::Delete(gone) = a {
                prop_assert!(
                    model.contains(gone),
                    "session {} told to delete {}, which it never held",
                    s,
                    gone
                );
            }
            model.apply(a);
        }
        self.cookies[s] = resp.cookie;
        // The model is the master's answer: nothing missing, nothing stale
        // and no deletion lost.
        let mut want = self.master.dit().search(&req);
        want.sort_by(|a, b| a.dn().cmp(b.dn()));
        let got: Vec<Entry> = model.iter().cloned().collect();
        prop_assert_eq!(got, want, "session {} diverged", s);
        Ok(())
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]
    #[test]
    fn recycled_ids_are_invisible_to_every_session(
        steps in prop::collection::vec((any::<u8>(), any::<u8>(), any::<bool>()), 0..120),
    ) {
        let mut fleet = Fleet::new(3);

        // All three sessions install up front. Session 2 then goes
        // silent for the whole script: its `sent` is frozen at install
        // while the slots of everything else churn under it.
        for s in 0..3 {
            fleet.poll(s, false)?;
        }

        for (kind, idx, flag) in steps {
            let i = idx as usize % ENTRIES;
            match kind % 8 {
                // Delete-heavy churn: delivered deletes are what release
                // ids.
                0 | 1 => fleet.apply(fbdr_dit::UpdateOp::Delete(dn(i))),
                2 | 3 => fleet.apply(fbdr_dit::UpdateOp::Add(entry(i, &serial(flag, i)))),
                4 => fleet.apply(fbdr_dit::UpdateOp::Modify {
                    dn: dn(i),
                    mods: vec![fbdr_dit::Modification::Replace(
                        "serialNumber".into(),
                        vec![serial(flag, i).into()],
                    )],
                }),
                5 => fleet.poll(0, flag)?,
                6 => fleet.poll(1, flag)?,
                // Fresh DNs land in the slots the deletes above freed.
                _ => {
                    fleet.apply(fbdr_dit::UpdateOp::Add(entry(
                        ENTRIES + i,
                        &serial(flag, ENTRIES + i),
                    )));
                    if flag {
                        fleet.apply(fbdr_dit::UpdateOp::Delete(dn(ENTRIES + i)));
                    }
                }
            }
        }

        // The silent session resumes, and every session drains to
        // quiescence.
        fleet.poll(2, true)?;
        for s in 0..3 {
            fleet.poll(s, true)?;
            fleet.poll(s, false)?;
        }
        // Every session has been told everything: no history is left.
        let f = fleet.master.memory_footprint();
        prop_assert_eq!(f.history_bytes, 0, "{:?}", f);
    }
}

/// Bounded memory with nothing reclaimed by a pass: a fixed churn run —
/// base entries toggling across the filter boundary, a rolling window of
/// fresh in-filter DNs added and deleted `WINDOW` steps later, two sessions
/// polling on a cadence and one that installs and never returns. The dead
/// session is never evicted, yet the footprint high-water stays within
/// 1.10x of the post-warm-up segment, and after 2 400 fresh DNs each
/// session's history is at most the base entries plus the window. Byte
/// accounting is the master's own (`MasterFootprint`), so
/// the numbers are exact for the run. Every poll along the way is still
/// checked against the session's model.
#[test]
fn a_dead_session_does_not_grow_the_master() {
    const STEPS: usize = 2_400;
    const WINDOW: usize = 32;
    const SEGMENTS: usize = 6;
    let mut fleet = Fleet::new(3);
    let obs = fbdr_obs::Obs::new();
    fleet.master.set_obs(obs.clone());
    for s in 0..3 {
        fleet.poll(s, false).unwrap(); // session 2 is never heard from again
    }
    let mut high_water = [0usize; SEGMENTS];
    for step in 0..STEPS {
        let i = step * 7 % ENTRIES;
        fleet.apply(fbdr_dit::UpdateOp::Modify {
            dn: dn(i),
            mods: vec![fbdr_dit::Modification::Replace(
                "serialNumber".into(),
                vec![serial(step / ENTRIES % 2 == 0, i).into()],
            )],
        });
        let fresh = ENTRIES + step;
        fleet.apply(fbdr_dit::UpdateOp::Add(entry(fresh, &serial(true, fresh))));
        if step >= WINDOW {
            fleet.apply(fbdr_dit::UpdateOp::Delete(dn(fresh - WINDOW)));
        }
        if step % 8 == 0 {
            fleet.poll(step / 8 % 2, step % 56 == 0).unwrap();
        }
        let segment = step * SEGMENTS / STEPS;
        high_water[segment] =
            high_water[segment].max(fleet.master.memory_footprint().total_bytes());
    }
    let f = fleet.master.memory_footprint();
    println!("footprint high-water per segment: {high_water:?}; at the end {f:?}");
    // Segment 0 is warm-up: the window is still filling.
    let (baseline, peak) = (high_water[1], *high_water[2..].iter().max().unwrap());
    assert!(
        peak * 100 <= baseline * 110,
        "footprint crept: {high_water:?}"
    );
    assert_eq!(f.sessions, 3, "nothing evicts the dead session");
    // The histories hold at most the base entries and the window each
    // (the dead session's: what it was sent and has not been told about,
    // and the arrivals since) — not the 2 400 DNs that came and went. An
    // item is its DN and a slot (`MasterFootprint::history_bytes`).
    assert_eq!(fleet.master.dit().len(), 1 + ENTRIES + WINDOW);
    let item = fbdr_resync::dn_approx_bytes(&dn(ENTRIES + STEPS)) + 32;
    assert!(
        f.history_bytes <= 3 * (ENTRIES + WINDOW) * item,
        "history of {} B after {STEPS} fresh DNs: {f:?}",
        f.history_bytes
    );
    assert!(obs
        .registry()
        .render_prometheus()
        .contains("fbdr_resync_stability_lag"));
}
