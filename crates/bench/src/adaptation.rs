//! `repro adaptation`: adaptation under the adversarial scenario matrix
//! (an extension beyond the paper; DESIGN §17) — periodic
//! revolutions (§6.2) vs the per-query evolution baseline (\[12\]) vs the
//! budgeted online revolution, with a train-on-the-end-state oracle as
//! the quality ceiling.
//!
//! Every arm replays the *same* seeded [`Scenario`] event schedule
//! (queries interleaved with master updates) against its own master, so
//! hit ratios, install churn and traffic are directly comparable. The
//! oracle arm trains a frozen selection on the final phase's queries and
//! replays only that phase — the quality a selector could reach if it
//! had known the end state in advance.
//!
//! Hit ratios, installs and move counts are exact for a seed, so the
//! table regenerates number for number. Three gates:
//!
//! 1. **adaptation** — per scenario, the online arm's final-phase hit
//!    ratio reaches ≥ 90% of the oracle's (with a 2-point absolute slack
//!    so noise-level ratios on the cache-buster scenario don't produce
//!    spurious verdicts);
//! 2. **churn** — summed over scenarios, online installs ≤ ⅓ of the
//!    evolution baseline's;
//! 3. **bounded moves** — no online step ever exceeds the move budget,
//!    and the consideration set stays a strict subset of the candidate
//!    table (no full-set recompute on the hot path), as recorded by the
//!    `fbdr_selection_revolve_moves` / `fbdr_selection_step_considered`
//!    histograms.
//!
//! Gates 1–2 are asserted by this module's test at the `small`
//! parameters; gate 3 by `fbdr-selection`'s
//! `budgeted_steps_respect_budgets_and_stay_consistent`.

use crate::evolution::EvolutionSelector;
use crate::experiment::{replay_filter, ReplayConfig};
use crate::Scale;
use fbdr_core::experiment::select_static_filters;
use fbdr_core::{Replicator, ServedBy};
use fbdr_replica::FilterReplica;
use fbdr_resync::{ShardCoordinator, ShardedMaster, SyncMaster};
use fbdr_selection::generalize::{Generalizer, ValuePrefix, WidenToPresence};
use fbdr_selection::{FilterSelector, SelectorConfig, StepConfig};
use fbdr_workload::{
    EnterpriseDirectory, Scenario, ScenarioConfig, ScenarioKind, TracedQuery, WorkloadEvent,
};

/// Parameters of one adaptation run. The directory is the scale's
/// ([`crate::Params::directory`]).
#[derive(Debug, Clone)]
pub struct AdaptConfig {
    /// Scenarios to run.
    pub scenarios: Vec<ScenarioKind>,
    /// Queries per scenario phase.
    pub queries_per_phase: usize,
    /// Replica entry budget, every arm.
    pub entry_budget: usize,
    /// Queries between replica sync polls.
    pub sync_every: usize,
    /// Periodic arm: queries between batch revolutions.
    pub revolution_interval: u64,
    /// Online arm: queries between budgeted steps.
    pub step_every: u64,
    /// Online arm: max promote/evict moves per step.
    pub move_budget: usize,
    /// Scenario seed.
    pub seed: u64,
}

impl AdaptConfig {
    /// The parameters for a `repro --scale`: `small` runs the two spike
    /// scenarios against the small directory's budget, `paper` and `large`
    /// the whole matrix.
    pub fn for_scale(scale: Scale) -> Self {
        let paper = AdaptConfig {
            scenarios: ScenarioKind::ALL.to_vec(),
            queries_per_phase: 6000,
            entry_budget: 1200,
            sync_every: 500,
            revolution_interval: 600,
            step_every: 60,
            move_budget: 4,
            seed: 0xADA7,
        };
        match scale {
            Scale::Small => AdaptConfig {
                scenarios: vec![ScenarioKind::FlashCrowd, ScenarioKind::ChurnFlip],
                queries_per_phase: 1200,
                entry_budget: 300,
                sync_every: 200,
                revolution_interval: 200,
                step_every: 20,
                ..paper
            },
            Scale::Paper | Scale::Large => paper,
        }
    }
}

/// One arm's outcome on one scenario.
#[derive(Debug, Clone, Copy, Default)]
pub struct ArmOutcome {
    /// Final-phase queries.
    pub final_queries: u64,
    /// Final-phase replica answers.
    pub final_hits: u64,
    /// Filter installs (each costs a content load).
    pub installs: u64,
    /// Content-load traffic, full entries.
    pub install_entries: u64,
}

impl ArmOutcome {
    /// `final_hits / final_queries` — end-state quality.
    pub fn final_hit_ratio(&self) -> f64 {
        self.final_hits as f64 / self.final_queries.max(1) as f64
    }

    /// Counts one answered query; those from `final_start` on are the
    /// final phase.
    fn record(&mut self, idx: u64, final_start: u64, hit: bool) {
        if idx >= final_start {
            self.final_queries += 1;
            self.final_hits += u64::from(hit);
        }
    }
}

/// All arms on one scenario, plus the online-specific hot-path evidence.
#[derive(Debug, Clone)]
pub struct ScenarioOutcome {
    /// Scenario name.
    pub scenario: String,
    /// Periodic batch revolutions (§6.2).
    pub periodic: ArmOutcome,
    /// Per-query evolution baseline (\[12\]).
    pub evolution: ArmOutcome,
    /// Budgeted online revolution.
    pub online: ArmOutcome,
    /// Oracle: frozen train-on-final-phase selection replaying the final
    /// phase.
    pub oracle_final_hit_ratio: f64,
    /// Largest single-step move count (must stay ≤ the move budget).
    pub online_max_moves: usize,
    /// Largest consideration set of any step.
    pub online_max_considered: usize,
    /// Candidate-table size at end of run — `online_max_considered`
    /// strictly below this is the no-full-recompute evidence.
    pub online_candidates: usize,
}

impl ScenarioOutcome {
    /// `online / oracle` end-state hit ratio (1.0 when the oracle found
    /// nothing to replicate).
    pub fn online_vs_oracle(&self) -> f64 {
        if self.oracle_final_hit_ratio > 0.0 {
            self.online.final_hit_ratio() / self.oracle_final_hit_ratio
        } else {
            1.0
        }
    }
}

fn gens() -> Vec<Box<dyn Generalizer + Send>> {
    vec![
        Box::new(ValuePrefix::new("serialNumber", vec![4])),
        Box::new(WidenToPresence::new("dept")),
    ]
}

/// Replays the schedule against a [`Replicator`] (periodic or online arm).
fn drive_replicator(
    mut r: Replicator,
    scenario: &Scenario,
    cfg: &AdaptConfig,
) -> (ArmOutcome, Replicator) {
    let final_start = scenario.final_phase_first_query() as u64;
    let mut out = ArmOutcome::default();
    let mut queries = 0u64;
    for ev in &scenario.events {
        match ev {
            WorkloadEvent::Query(tq) => {
                let (_, served) = r.search(&tq.request);
                out.record(queries, final_start, served == ServedBy::Replica);
                queries += 1;
                if cfg.sync_every > 0 && queries % cfg.sync_every as u64 == 0 {
                    let _ = r.sync();
                }
            }
            WorkloadEvent::Update(op) => {
                let _ = r.apply_update(op.clone());
            }
        }
    }
    let _ = r.sync();
    out.installs = r.selector().expect("arm's selector attached").report().installs;
    out.install_entries = r.report().revolution_traffic.full_entries;
    (out, r)
}

/// Replays the schedule against the evolution/revolution baseline.
fn drive_evolution(
    master: &mut ShardedMaster,
    scenario: &Scenario,
    cfg: &AdaptConfig,
) -> ArmOutcome {
    let final_start = scenario.final_phase_first_query() as u64;
    let replica = FilterReplica::new(0);
    let mut coordinator = ShardCoordinator::new(master.map().clone());
    let mut selector = EvolutionSelector::new(gens(), cfg.entry_budget, 0.95, 0.5);
    let mut out = ArmOutcome::default();
    let mut queries = 0u64;
    for ev in &scenario.events {
        match ev {
            WorkloadEvent::Query(tq) => {
                let hit = replica.try_answer(&tq.request).is_some();
                out.record(queries, final_start, hit);
                queries += 1;
                // The baseline's defining property: selection runs on
                // every query, not on a budgeted cadence.
                let _ = selector.observe(&tq.request, master, &mut coordinator, &replica);
                if cfg.sync_every > 0 && queries % cfg.sync_every as u64 == 0 {
                    let _ = replica.sync_with_sharded(master, &mut coordinator);
                }
            }
            WorkloadEvent::Update(op) => {
                let _ = master.apply(op.clone());
            }
        }
    }
    let _ = replica.sync_with_sharded(master, &mut coordinator);
    let rep = selector.report();
    out.installs = rep.installs;
    out.install_entries = rep.traffic.full_entries;
    out
}

/// Oracle: train a frozen selection on the final phase's queries, then
/// replay exactly that phase against a fresh master.
fn drive_oracle(dir: &EnterpriseDirectory, scenario: &Scenario, cfg: &AdaptConfig) -> f64 {
    let final_queries: Vec<TracedQuery> = scenario
        .events
        .iter()
        .skip(scenario.phases.last().map(|p| p.first_event).unwrap_or(0))
        .filter_map(|e| match e {
            WorkloadEvent::Query(tq) => Some(tq.clone()),
            WorkloadEvent::Update(_) => None,
        })
        .collect();
    let filters = select_static_filters(dir.dit(), &final_queries, gens(), cfg.entry_budget);
    let mut r = Replicator::new(SyncMaster::with_dit(dir.dit().clone()), 0);
    for f in filters {
        let _ = r.install_filter(f);
    }
    let out = replay_filter(
        &mut r,
        &final_queries,
        &[],
        ReplayConfig { sync_every: 0, update_every: 0 },
    );
    out.overall.hit_ratio()
}

/// Runs every configured scenario through the four arms.
pub fn run(cfg: &AdaptConfig, dir: &EnterpriseDirectory) -> Vec<ScenarioOutcome> {
    let scfg = ScenarioConfig {
        seed: cfg.seed,
        queries_per_phase: cfg.queries_per_phase,
        ..ScenarioConfig::default()
    };
    let fresh = || Replicator::new(SyncMaster::with_dit(dir.dit().clone()), 0);
    let mut scenarios = Vec::new();
    for &kind in &cfg.scenarios {
        let scenario = Scenario::build(kind, dir, &scfg);

        // Periodic batch revolutions.
        let periodic_sel = FilterSelector::new(
            SelectorConfig {
                revolution_interval: cfg.revolution_interval,
                entry_budget: cfg.entry_budget,
                max_candidates: 4096,
            },
            gens(),
        );
        let (periodic, _) = drive_replicator(fresh().with_selector(periodic_sel), &scenario, cfg);

        // Evolution baseline.
        let mut evo_master = ShardedMaster::from(SyncMaster::with_dit(dir.dit().clone()));
        let evolution = drive_evolution(&mut evo_master, &scenario, cfg);

        // Budgeted online revolution.
        let online_sel = FilterSelector::new(
            StepConfig {
                entry_budget: cfg.entry_budget,
                step_every: cfg.step_every,
                move_budget: cfg.move_budget,
                ..StepConfig::default()
            },
            gens(),
        );
        let (online, online_repl) =
            drive_replicator(fresh().with_selector(online_sel), &scenario, cfg);
        let online_sel = online_repl.selector().expect("online arm attached");
        let online_report = online_sel.report();

        scenarios.push(ScenarioOutcome {
            scenario: kind.name().to_owned(),
            periodic,
            evolution,
            online,
            oracle_final_hit_ratio: drive_oracle(dir, &scenario, cfg),
            online_max_moves: online_report.max_moves,
            online_max_considered: online_report.max_considered,
            online_candidates: online_sel.candidate_count(),
        });
    }
    scenarios
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Params;

    /// Gates 1–2 at `--scale small`: the online selector ends each
    /// scenario within 0.9× of the end-state oracle (2 points of absolute
    /// slack), and installs at most a third of what per-query evolutions
    /// do. Exact for the seed.
    #[test]
    fn online_tracks_the_oracle_at_a_fraction_of_evolution_churn() {
        let cfg = AdaptConfig::for_scale(Scale::Small);
        let rows = run(&cfg, &Params::new(Scale::Small).directory());
        assert_eq!(rows.len(), 2);
        for s in &rows {
            assert!(
                s.online.final_hit_ratio() + 0.02 >= 0.9 * s.oracle_final_hit_ratio,
                "{}: online end-state hit ratio {:.3} < 0.9 x oracle {:.3}",
                s.scenario,
                s.online.final_hit_ratio(),
                s.oracle_final_hit_ratio
            );
            assert!(s.online_max_moves <= cfg.move_budget, "{s:?}");
            assert!(s.online_max_considered < s.online_candidates, "full-table recompute: {s:?}");
        }
        let online: u64 = rows.iter().map(|s| s.online.installs).sum();
        let evolution: u64 = rows.iter().map(|s| s.evolution.installs).sum();
        assert!(online > 0 && online * 3 <= evolution, "online {online} vs evolution {evolution}");
    }
}
