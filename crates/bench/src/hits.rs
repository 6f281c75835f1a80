//! Hit-ratio experiments: Figures 4, 5, 8 and 9.

use crate::setup::Params;
use fbdr_core::experiment::{
    build_context_replica, replay_filter, replay_subtree, select_static_filters, ReplayConfig,
    Routing,
};
use fbdr_core::Replicator;
use fbdr_dit::NamingContext;
use fbdr_replica::SubtreeReplica;
use fbdr_resync::SyncMaster;
use fbdr_selection::generalize::{Generalizer, Identity, ValuePrefix, WidenToPresence};
use fbdr_selection::{FilterSelector, SelectorConfig};
use fbdr_workload::{EnterpriseDirectory, QueryKind, TracedQuery};

fn serial_generalizers() -> Vec<Box<dyn Generalizer + Send>> {
    // Three region granularities: blocks of 10, 100 and 1000 serials.
    vec![Box::new(ValuePrefix::new("serialNumber", vec![5, 4, 3]))]
}

/// Fine-grained candidates only (blocks of 10), for the
/// hit-ratio-vs-#filters sweeps where the x-axis is the filter count.
fn serial_fine_generalizers() -> Vec<Box<dyn Generalizer + Send>> {
    vec![Box::new(ValuePrefix::new("serialNumber", vec![5]))]
}

fn dept_generalizers() -> Vec<Box<dyn Generalizer + Send>> {
    vec![Box::new(WidenToPresence::new("dept")), Box::new(Identity::new())]
}

fn only_kind(trace: &[TracedQuery], kind: QueryKind) -> Vec<TracedQuery> {
    trace.iter().filter(|q| q.kind == kind).cloned().collect()
}

fn no_updates() -> ReplayConfig {
    ReplayConfig { sync_every: 0, update_every: 0 }
}

// ---------------------------------------------------------------------
// Figure 4: hit ratio vs replica size, serial-number query
// ---------------------------------------------------------------------

/// One point of Figure 4.
#[derive(Debug, Clone)]
pub struct Fig4Row {
    /// Entry budget as a fraction of all person entries.
    pub budget_frac: f64,
    /// Actual filter-replica size (fraction of person entries).
    pub filter_size_frac: f64,
    /// Serial-query hit ratio of the filter replica.
    pub filter_hit: f64,
    /// Actual subtree-replica size (fraction of person entries).
    pub subtree_size_frac: f64,
    /// Serial-query hit ratio of the (oracle-routed) subtree replica.
    pub subtree_hit: f64,
}

/// Figure 4: train on day 1, freeze the selection, evaluate day 2.
pub fn fig4(params: &Params) -> Vec<Fig4Row> {
    let dir = params.directory();
    let (day1, day2) = params.two_days(&dir);
    let persons = dir.employee_count() as f64;
    let mut rows = Vec::new();
    for &frac in &params.size_fractions {
        let budget = (frac * persons) as usize;

        let filters = select_static_filters(dir.dit(), &day1, serial_generalizers(), budget);
        let mut repl = Replicator::new(SyncMaster::with_dit(dir.dit().clone()), 0);
        for f in filters {
            repl.install_filter(f).expect("fresh master accepts filters");
        }
        let f_out = replay_filter(&mut repl, &day2, &[], no_updates());

        let countries = fbdr_core::experiment::select_subtree_contexts(&dir, &day1, budget);
        let mut master = dir.dit().clone();
        let mut sub = build_context_replica(&master, &countries);
        let s_out =
            replay_subtree(&mut master, &mut sub, &day2, &[], no_updates(), Routing::Oracle);

        rows.push(Fig4Row {
            budget_frac: frac,
            filter_size_frac: repl.replica().entry_count() as f64 / persons,
            filter_hit: f_out.kind_hit_ratio(QueryKind::SerialNumber),
            subtree_size_frac: sub.entry_count() as f64 / persons,
            subtree_hit: s_out.kind_hit_ratio(QueryKind::SerialNumber),
        });
    }
    rows
}

// ---------------------------------------------------------------------
// Figure 5: hit ratio vs replica size, department query, dynamic
// selection with two revolution intervals
// ---------------------------------------------------------------------

/// One point of Figure 5.
#[derive(Debug, Clone)]
pub struct Fig5Row {
    /// Department-entry budget.
    pub budget: usize,
    /// Dept-query hit ratio with the short revolution interval.
    pub hit_r_small: f64,
    /// Dept-query hit ratio with the long revolution interval.
    pub hit_r_large: f64,
    /// Dept-query hit ratio of a per-division subtree replica of
    /// comparable size.
    pub subtree_hit: f64,
    /// Subtree replica size (entries).
    pub subtree_size: usize,
}

/// Figure 5: department queries under dynamic filter selection; the
/// shorter interval tracks popularity drift better.
pub fn fig5(params: &Params) -> Vec<Fig5Row> {
    let dir = params.directory();
    let (day1, day2) = params.two_days(&dir);
    let dept_total = dir.departments().len();
    let mut rows = Vec::new();
    for frac in [0.1, 0.2, 0.4, 0.6] {
        let budget = ((dept_total as f64) * frac) as usize;
        let mut hit = [0.0f64; 2];
        for (i, r) in [params.r_small, params.r_large].into_iter().enumerate() {
            let selector = FilterSelector::new(
                SelectorConfig {
                    revolution_interval: r,
                    entry_budget: budget.max(1),
                    max_candidates: 4096,
                },
                dept_generalizers(),
            );
            let mut repl =
                Replicator::new(SyncMaster::with_dit(dir.dit().clone()), 0).with_selector(selector);
            // Day 1 warms the selector and replica; day 2 is measured.
            let _ = replay_filter(&mut repl, &day1, &[], no_updates());
            let out = replay_filter(&mut repl, &day2, &[], no_updates());
            hit[i] = out.kind_hit_ratio(QueryKind::DeptDiv);
        }

        let (mut master, sub_size, mut sub) = division_replica(&dir, &day1, budget);
        let s_out =
            replay_subtree(&mut master, &mut sub, &day2, &[], no_updates(), Routing::Oracle);
        rows.push(Fig5Row {
            budget,
            hit_r_small: hit[0],
            hit_r_large: hit[1],
            subtree_hit: s_out.kind_hit_ratio(QueryKind::DeptDiv),
            subtree_size: sub_size,
        });
    }
    rows
}

/// Greedy per-division subtree selection for the department workload: a
/// subtree replica stores all or none of a division's departments.
fn division_replica(
    dir: &EnterpriseDirectory,
    trace: &[TracedQuery],
    budget: usize,
) -> (fbdr_dit::DitStore, usize, SubtreeReplica) {
    use std::collections::HashMap;
    let mut benefit: HashMap<&str, u64> = HashMap::new();
    for tq in trace.iter().filter(|q| q.kind == QueryKind::DeptDiv) {
        let f = tq.request.filter().to_string();
        // (&(dept=D)(div=V)) — extract V.
        if let Some(div) = f.split("(div=").nth(1) {
            let div = div.trim_end_matches("))");
            if let Some((d, _)) = dir.departments().iter().find(|(_, v)| v == div) {
                let _ = d;
                *benefit.entry(
                    dir.departments()
                        .iter()
                        .find(|(_, v)| v == div)
                        .map(|(_, v)| v.as_str())
                        .expect("division exists"),
                )
                .or_default() += 1;
            }
        }
    }
    let mut divisions: Vec<(String, usize, u64)> = Vec::new();
    for (_, div) in dir.departments() {
        if !divisions.iter().any(|(d, _, _)| d == div) {
            let size = dir.departments().iter().filter(|(_, v)| v == div).count();
            divisions.push((div.clone(), size, benefit.get(div.as_str()).copied().unwrap_or(0)));
        }
    }
    divisions.sort_by(|a, b| {
        let ra = a.2 as f64 / a.1 as f64;
        let rb = b.2 as f64 / b.1 as f64;
        rb.partial_cmp(&ra).unwrap_or(std::cmp::Ordering::Equal)
    });
    let master = dir.dit().clone();
    let mut sub = SubtreeReplica::new();
    let mut used = 0usize;
    for (div, size, benefit) in divisions {
        if benefit == 0 || used + size > budget {
            continue;
        }
        used += size;
        let suffix = format!("ou={div},ou=divisions,o=xyz").parse().expect("valid dn");
        sub.replicate_context(&master, NamingContext::new(suffix));
    }
    let size = sub.entry_count();
    (master, size, sub)
}

// ---------------------------------------------------------------------
// Figures 8 and 9: hit ratio vs number of stored filters
// ---------------------------------------------------------------------

/// One point of Figure 8/9.
#[derive(Debug, Clone)]
pub struct FigFiltersRow {
    /// Stored queries (filters and/or cached user queries).
    pub stored: usize,
    /// Hit ratio with only cached user queries.
    pub cache_only: f64,
    /// Hit ratio with only generalized filters.
    pub generalized_only: f64,
    /// Hit ratio with both (half filters, half cache window).
    pub both: f64,
}

/// Figure 8: serial-number query, the three §7.4 configurations.
pub fn fig8(params: &Params) -> Vec<FigFiltersRow> {
    let dir = params.directory();
    let (day1, day2) = params.two_days(&dir);
    fig_filters(
        &dir,
        &only_kind(&day1, QueryKind::SerialNumber),
        &only_kind(&day2, QueryKind::SerialNumber),
        serial_fine_generalizers(),
        &params.filter_counts,
    )
}

/// Figure 9: department query, the same three configurations.
pub fn fig9(params: &Params) -> Vec<FigFiltersRow> {
    let dir = params.directory();
    let (day1, day2) = params.two_days(&dir);
    fig_filters(
        &dir,
        &only_kind(&day1, QueryKind::DeptDiv),
        &only_kind(&day2, QueryKind::DeptDiv),
        dept_generalizers(),
        &params.filter_counts,
    )
}

fn fig_filters(
    dir: &EnterpriseDirectory,
    day1: &[TracedQuery],
    day2: &[TracedQuery],
    generalizers: Vec<Box<dyn Generalizer + Send>>,
    counts: &[usize],
) -> Vec<FigFiltersRow> {
    // Rank candidates from the *recent* part of day 1 — benefit in the
    // paper is hits since the last update, a recency window, which is
    // what keeps the selection relevant under popularity drift.
    let recent = &day1[day1.len() - day1.len() / 3..];
    let mut selector = FilterSelector::new(
        SelectorConfig {
            revolution_interval: u64::MAX,
            entry_budget: usize::MAX,
            max_candidates: 1 << 20,
        },
        generalizers,
    );
    for tq in recent {
        selector.observe(&tq.request);
    }
    let ranked = selector.ranked_candidates(dir.dit());

    let mut rows = Vec::new();
    for &k in counts {
        let cache_only = {
            let mut repl = Replicator::new(SyncMaster::with_dit(dir.dit().clone()), k);
            let out = replay_filter(&mut repl, day2, &[], no_updates());
            out.overall.hit_ratio()
        };
        let generalized_only = {
            let mut repl = Replicator::new(SyncMaster::with_dit(dir.dit().clone()), 0);
            for f in ranked.iter().take(k) {
                repl.install_filter(f.clone()).expect("fresh master accepts filters");
            }
            let out = replay_filter(&mut repl, day2, &[], no_updates());
            out.overall.hit_ratio()
        };
        let both = {
            let half = k / 2;
            let mut repl = Replicator::new(SyncMaster::with_dit(dir.dit().clone()), k - half);
            for f in ranked.iter().take(half) {
                repl.install_filter(f.clone()).expect("fresh master accepts filters");
            }
            let out = replay_filter(&mut repl, day2, &[], no_updates());
            out.overall.hit_ratio()
        };
        rows.push(FigFiltersRow { stored: k, cache_only, generalized_only, both });
    }
    rows
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::setup::Scale;

    #[test]
    fn fig4_small_shapes() {
        let params = Params::new(Scale::Small);
        let rows = fig4(&params);
        assert_eq!(rows.len(), params.size_fractions.len());
        // Hit ratio grows with budget for the filter model.
        assert!(rows.last().expect("rows").filter_hit >= rows[0].filter_hit);
        for r in &rows {
            // The paper's claim is the small/medium-size regime: the
            // filter model clearly wins up to ~20% replica size. (At very
            // large sizes the oracle-routed subtree upper bound becomes
            // competitive — both curves approach the popularity mass.)
            if r.budget_frac <= 0.2 {
                assert!(
                    r.filter_hit >= r.subtree_hit,
                    "filter {} vs subtree {} at {}",
                    r.filter_hit,
                    r.subtree_hit,
                    r.budget_frac
                );
            }
            assert!(r.filter_size_frac <= r.budget_frac + 0.01);
        }
    }

    #[test]
    fn fig8_small_shapes() {
        let params = Params::new(Scale::Small);
        let rows = fig8(&params);
        // The cache-only curve saturates; combined beats cache-only at the
        // largest count.
        let last = rows.last().expect("rows");
        assert!(last.generalized_only > 0.0);
        assert!(last.both >= last.cache_only - 0.05);
    }
}
