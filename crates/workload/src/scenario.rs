//! The adversarial scenario matrix: phased workloads that stress an
//! *adaptive* filter selection in ways the steady-state trace of §7.1
//! cannot.
//!
//! Each scenario is a deterministic, seeded schedule of query/update
//! events built from per-phase [`TraceConfig`] variants over a single
//! directory, with one stateful [`UpdateGenerator`] threading the update
//! stream across phases (so operations stay valid in order). Phase
//! boundaries are recorded so experiments can report *end-state* quality
//! (the final phase) separately from transient adaptation cost.
//!
//! The five scenarios:
//!
//! * **flash crowd** — one (non-geography) country spikes to ~50× its
//!   steady-state popularity, then subsides; the selection must promote
//!   that country's serial block quickly, and drop it afterwards.
//! * **diurnal shift** — the hot country rotates phase by phase, the
//!   follow-the-sun pattern of a worldwide directory.
//! * **churn flip** — a read-mostly workload flips update-heavy (with
//!   department moves that thrash dept filters); net-benefit admission
//!   should stop chasing filters whose upkeep exceeds their value.
//! * **multi tenant** — two disjoint hot sets alternate; hysteresis
//!   should keep both resident instead of swapping wholesale each phase.
//! * **cache buster** — scattered popularity, no temporal locality: an
//!   adversary for which *no* compact filter helps; the selection should
//!   do (almost) nothing rather than churn.

use crate::directory::EnterpriseDirectory;
use crate::trace::{TraceConfig, TraceGenerator, TracedQuery};
use crate::updates::{UpdateConfig, UpdateGenerator};
use fbdr_dit::UpdateOp;
use serde::{Deserialize, Serialize};
use std::fmt;

/// The five adversarial workload scenarios.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum ScenarioKind {
    /// One region spikes to ~50× its usual query share, then subsides.
    FlashCrowd,
    /// The hot region rotates across countries phase by phase.
    DiurnalShift,
    /// A read-mostly workload flips to update-heavy and back.
    ChurnFlip,
    /// Two tenants with disjoint hot sets alternate phases.
    MultiTenant,
    /// Scattered targets, no locality — nothing generalizes.
    CacheBuster,
}

impl ScenarioKind {
    /// Every scenario, in canonical order.
    pub const ALL: [ScenarioKind; 5] = [
        ScenarioKind::FlashCrowd,
        ScenarioKind::DiurnalShift,
        ScenarioKind::ChurnFlip,
        ScenarioKind::MultiTenant,
        ScenarioKind::CacheBuster,
    ];

    /// Stable snake_case name (used in reports and CLI flags).
    pub fn name(&self) -> &'static str {
        match self {
            ScenarioKind::FlashCrowd => "flash_crowd",
            ScenarioKind::DiurnalShift => "diurnal_shift",
            ScenarioKind::ChurnFlip => "churn_flip",
            ScenarioKind::MultiTenant => "multi_tenant",
            ScenarioKind::CacheBuster => "cache_buster",
        }
    }

    /// Parses a [`name`](Self::name) back into a kind.
    pub fn parse(s: &str) -> Option<ScenarioKind> {
        ScenarioKind::ALL.into_iter().find(|k| k.name() == s)
    }
}

impl fmt::Display for ScenarioKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Scenario construction parameters.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct ScenarioConfig {
    /// Base RNG seed; each phase derives its own stream from it.
    pub seed: u64,
    /// Queries generated per phase.
    pub queries_per_phase: usize,
    /// Master update operations interleaved per query in *normal* phases
    /// (the churn-flip scenario multiplies this in its heavy phase).
    pub updates_per_query: f64,
}

impl Default for ScenarioConfig {
    fn default() -> Self {
        ScenarioConfig { seed: 0x5CE0, queries_per_phase: 6000, updates_per_query: 0.04 }
    }
}

/// One event of a scenario schedule, in issue order.
#[derive(Debug, Clone)]
pub enum WorkloadEvent {
    /// A client query against the replica.
    Query(TracedQuery),
    /// A write applied at the master (propagated per the stored filters).
    Update(UpdateOp),
}

/// Boundary of one scenario phase inside the event schedule.
#[derive(Debug, Clone, Copy, Serialize)]
pub struct PhaseBound {
    /// Human-readable phase label (e.g. `"spike"`).
    pub label: &'static str,
    /// Index into [`Scenario::events`] where the phase begins.
    pub first_event: usize,
    /// Number of queries issued before the phase begins.
    pub first_query: usize,
}

/// A built scenario: the event schedule plus its phase boundaries.
#[derive(Debug)]
pub struct Scenario {
    /// Which scenario this is.
    pub kind: ScenarioKind,
    /// Queries and updates, in issue order.
    pub events: Vec<WorkloadEvent>,
    /// Phase boundaries, in order; the last one starts the *end state*
    /// whose quality adaptive selection is judged on.
    pub phases: Vec<PhaseBound>,
    /// Total queries in `events`.
    pub queries: usize,
}

/// Per-phase recipe: a trace shape plus an update density.
struct PhaseSpec {
    label: &'static str,
    trace: TraceConfig,
    updates_per_query: f64,
    update: UpdateConfig,
}

impl PhaseSpec {
    fn new(label: &'static str, trace: TraceConfig, cfg: &ScenarioConfig) -> Self {
        PhaseSpec {
            label,
            trace,
            updates_per_query: cfg.updates_per_query,
            update: UpdateConfig::default(),
        }
    }
}

impl Scenario {
    /// Builds the deterministic event schedule for `kind` against `dir`.
    pub fn build(kind: ScenarioKind, dir: &EnterpriseDirectory, cfg: &ScenarioConfig) -> Scenario {
        let specs = phase_specs(kind, dir, cfg);
        let mut updates = UpdateGenerator::new(dir);
        let mut events = Vec::new();
        let mut phases = Vec::new();
        let mut queries = 0usize;
        let mut credit = 0.0f64; // fractional update debt carried across phases
        for (pi, spec) in specs.into_iter().enumerate() {
            phases.push(PhaseBound { label: spec.label, first_event: events.len(), first_query: queries });
            // Same structural seed every phase (stable department shuffle /
            // scattered order); only the draw stream varies per phase.
            let mut tc = spec.trace;
            tc.seed = cfg.seed;
            tc.queries = cfg.queries_per_phase;
            let gen = TraceGenerator::new(dir, &tc);
            tc.seed = cfg.seed ^ (pi as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15);
            let phase_queries = gen.generate(dir, &tc);
            // Pass 1: how many updates this phase owes.
            let mut c = credit;
            let mut owed = 0usize;
            for _ in &phase_queries {
                c += spec.updates_per_query;
                while c >= 1.0 {
                    owed += 1;
                    c -= 1.0;
                }
            }
            let mut ops = updates
                .generate(&UpdateConfig {
                    seed: tc.seed ^ 0x0BDA7E,
                    ops: owed,
                    ..spec.update
                })
                .into_iter();
            // Pass 2: interleave queries with the owed updates.
            for q in phase_queries {
                events.push(WorkloadEvent::Query(q));
                queries += 1;
                credit += spec.updates_per_query;
                while credit >= 1.0 {
                    let op = ops.next().expect("owed updates cover credit");
                    events.push(WorkloadEvent::Update(op));
                    credit -= 1.0;
                }
            }
        }
        Scenario { kind, events, phases, queries }
    }

    /// Query count before the final phase — experiments measure end-state
    /// quality over queries at or after this index.
    pub fn final_phase_first_query(&self) -> usize {
        self.phases.last().map(|p| p.first_query).unwrap_or(0)
    }
}

/// Picks `n` distinct *non-geography* hot countries (the countries list is
/// geography-first, so indices from the back are outside the replica's
/// home geography — a spike there is invisible to a geography-static
/// selection and forces genuine adaptation).
fn hot_countries(dir: &EnterpriseDirectory, n: usize) -> Vec<usize> {
    let total = dir.countries().len();
    (0..n.min(total)).map(|i| total - 1 - i).collect()
}

fn phase_specs(
    kind: ScenarioKind,
    dir: &EnterpriseDirectory,
    cfg: &ScenarioConfig,
) -> Vec<PhaseSpec> {
    let base = TraceConfig::default();
    match kind {
        ScenarioKind::FlashCrowd => {
            let hot = hot_countries(dir, 1)[0];
            let spike = TraceConfig { hot_country: Some(hot), hot_country_bias: 0.98, ..base.clone() };
            vec![
                PhaseSpec::new("baseline", base.clone(), cfg),
                PhaseSpec::new("spike", spike, cfg),
                PhaseSpec::new("recovery", base, cfg),
            ]
        }
        ScenarioKind::DiurnalShift => {
            let hots = hot_countries(dir, 4);
            hots.into_iter()
                .enumerate()
                .map(|(i, hc)| {
                    let t = TraceConfig {
                        hot_country: Some(hc),
                        hot_country_bias: 0.9,
                        ..base.clone()
                    };
                    let labels = ["dawn", "noon", "dusk", "night"];
                    PhaseSpec::new(labels[i.min(3)], t, cfg)
                })
                .collect()
        }
        ScenarioKind::ChurnFlip => {
            let mut heavy = PhaseSpec::new("update_heavy", base.clone(), cfg);
            heavy.updates_per_query = (cfg.updates_per_query * 50.0).max(1.0);
            // Department moves dominate the heavy phase, thrashing the
            // dept filters that the read phases made profitable.
            heavy.update.p_dept_change = 0.5;
            vec![
                PhaseSpec::new("read_mostly", base.clone(), cfg),
                heavy,
                PhaseSpec::new("read_again", base, cfg),
            ]
        }
        ScenarioKind::MultiTenant => {
            let hots = hot_countries(dir, 2);
            let tenant = |hc| TraceConfig {
                hot_country: Some(hc),
                hot_country_bias: 0.95,
                ..base.clone()
            };
            vec![
                PhaseSpec::new("tenant_a", tenant(hots[0]), cfg),
                PhaseSpec::new("tenant_b", tenant(hots[1 % hots.len()]), cfg),
                PhaseSpec::new("tenant_a2", tenant(hots[0]), cfg),
                PhaseSpec::new("tenant_b2", tenant(hots[1 % hots.len()]), cfg),
            ]
        }
        ScenarioKind::CacheBuster => {
            let buster = TraceConfig {
                scattered_popularity: 1.0,
                temporal_locality: 0.0,
                person_zipf: 0.2,
                ..base
            };
            vec![
                PhaseSpec::new("buster", buster.clone(), cfg),
                PhaseSpec::new("buster2", buster, cfg),
            ]
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::directory::DirectoryConfig;
    use crate::trace::QueryKind;
    use std::collections::HashSet;

    fn small() -> (EnterpriseDirectory, ScenarioConfig) {
        let dir = EnterpriseDirectory::generate(DirectoryConfig::small());
        let cfg = ScenarioConfig { queries_per_phase: 1500, ..ScenarioConfig::default() };
        (dir, cfg)
    }

    fn serial_of(q: &TracedQuery) -> Option<String> {
        let f = q.request.filter().to_string();
        f.strip_prefix("(serialNumber=").map(|s| s.trim_end_matches(')').to_owned())
    }

    fn country_serials(dir: &EnterpriseDirectory, country_idx: usize) -> HashSet<String> {
        let code = &dir.countries()[country_idx].0;
        dir.employees()
            .iter()
            .filter(|e| &e.country == code)
            .map(|e| e.serial.clone())
            .collect()
    }

    /// Fraction of a phase's serial queries that target `serials`.
    fn phase_fraction(
        s: &Scenario,
        phase: usize,
        serials: &HashSet<String>,
    ) -> f64 {
        let start = s.phases[phase].first_event;
        let end = s.phases.get(phase + 1).map(|p| p.first_event).unwrap_or(s.events.len());
        let mut hits = 0usize;
        let mut total = 0usize;
        for e in &s.events[start..end] {
            if let WorkloadEvent::Query(q) = e {
                if q.kind == QueryKind::SerialNumber {
                    if let Some(sn) = serial_of(q) {
                        total += 1;
                        if serials.contains(&sn) {
                            hits += 1;
                        }
                    }
                }
            }
        }
        hits as f64 / total.max(1) as f64
    }

    #[test]
    fn every_scenario_builds_and_is_deterministic() {
        let (dir, cfg) = small();
        for kind in ScenarioKind::ALL {
            let a = Scenario::build(kind, &dir, &cfg);
            let b = Scenario::build(kind, &dir, &cfg);
            assert_eq!(a.queries, b.queries, "{kind}");
            assert_eq!(a.events.len(), b.events.len(), "{kind}");
            assert!(a.phases.len() >= 2, "{kind} needs phases for end-state reporting");
            assert_eq!(a.queries, cfg.queries_per_phase * a.phases.len(), "{kind}");
            for (x, y) in a.events.iter().zip(&b.events) {
                match (x, y) {
                    (WorkloadEvent::Query(p), WorkloadEvent::Query(q)) => {
                        assert_eq!(p.request, q.request)
                    }
                    (WorkloadEvent::Update(p), WorkloadEvent::Update(q)) => {
                        assert_eq!(format!("{p}"), format!("{q}"))
                    }
                    _ => panic!("{kind}: schedules diverge in event kind"),
                }
            }
        }
    }

    #[test]
    fn scenario_updates_apply_in_order() {
        let (dir, cfg) = small();
        for kind in ScenarioKind::ALL {
            let s = Scenario::build(kind, &dir, &cfg);
            let mut dit = dir.dit().clone();
            for e in &s.events {
                if let WorkloadEvent::Update(op) = e {
                    dit.apply(op.clone()).unwrap_or_else(|e| panic!("{kind}: invalid op: {e:?}"));
                }
            }
        }
    }

    #[test]
    fn flash_crowd_spikes_then_recovers() {
        let (dir, cfg) = small();
        let s = Scenario::build(ScenarioKind::FlashCrowd, &dir, &cfg);
        let hot = country_serials(&dir, dir.countries().len() - 1);
        let before = phase_fraction(&s, 0, &hot);
        let during = phase_fraction(&s, 1, &hot);
        let after = phase_fraction(&s, 2, &hot);
        assert!(during > 0.9, "spike phase fraction {during}");
        assert!(before < 0.2 && after < 0.2, "baseline fractions {before}/{after}");
    }

    #[test]
    fn diurnal_shift_rotates_hot_country() {
        let (dir, cfg) = small();
        let s = Scenario::build(ScenarioKind::DiurnalShift, &dir, &cfg);
        let n = dir.countries().len();
        for (phase, idx) in (0..4).zip([n - 1, n - 2, n - 3, n - 4]) {
            let frac = phase_fraction(&s, phase, &country_serials(&dir, idx));
            assert!(frac > 0.8, "phase {phase} fraction {frac} for country {idx}");
        }
    }

    #[test]
    fn churn_flip_multiplies_update_density() {
        let (dir, cfg) = small();
        let s = Scenario::build(ScenarioKind::ChurnFlip, &dir, &cfg);
        let count = |phase: usize| {
            let start = s.phases[phase].first_event;
            let end = s.phases.get(phase + 1).map(|p| p.first_event).unwrap_or(s.events.len());
            s.events[start..end].iter().filter(|e| matches!(e, WorkloadEvent::Update(_))).count()
        };
        let (light, heavy, light2) = (count(0), count(1), count(2));
        assert!(heavy >= 10 * light.max(1), "heavy {heavy} vs light {light}");
        assert!(heavy >= 10 * light2.max(1), "heavy {heavy} vs light2 {light2}");
    }

    #[test]
    fn multi_tenant_hot_sets_are_disjoint() {
        let (dir, cfg) = small();
        let s = Scenario::build(ScenarioKind::MultiTenant, &dir, &cfg);
        let n = dir.countries().len();
        let a = country_serials(&dir, n - 1);
        let b = country_serials(&dir, n - 2);
        assert!(a.is_disjoint(&b));
        assert!(phase_fraction(&s, 0, &a) > 0.85);
        assert!(phase_fraction(&s, 1, &b) > 0.85);
        assert!(phase_fraction(&s, 0, &b) < 0.1);
        assert!(phase_fraction(&s, 1, &a) < 0.1);
    }

    #[test]
    fn cache_buster_spreads_serial_targets() {
        let (dir, cfg) = small();
        let s = Scenario::build(ScenarioKind::CacheBuster, &dir, &cfg);
        // Top 5 serial prefixes should cover only a small share — no
        // compact prefix filter can capture this workload.
        let mut prefix_counts: std::collections::HashMap<String, usize> = Default::default();
        let mut total = 0usize;
        for e in &s.events {
            if let WorkloadEvent::Query(q) = e {
                if q.kind == QueryKind::SerialNumber {
                    if let Some(sn) = serial_of(q) {
                        *prefix_counts.entry(sn[..4.min(sn.len())].to_owned()).or_default() += 1;
                        total += 1;
                    }
                }
            }
        }
        let mut counts: Vec<usize> = prefix_counts.values().copied().collect();
        counts.sort_unstable_by(|a, b| b.cmp(a));
        let top5: usize = counts.iter().take(5).sum();
        let frac = top5 as f64 / total.max(1) as f64;
        // Near-uniform: top-5 coverage barely above the uniform baseline
        // of 5/P over the P occupied prefix blocks (the small directory
        // only has ~12, so an absolute threshold would be meaningless).
        let uniform = 5.0 / prefix_counts.len().max(5) as f64;
        assert!(prefix_counts.len() >= 8, "only {} prefix blocks hit", prefix_counts.len());
        assert!(
            frac < uniform * 1.25,
            "cache buster concentrates: top-5 cover {frac}, uniform baseline {uniform}"
        );
    }
}
