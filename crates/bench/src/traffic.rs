//! Update-traffic experiments: Figures 6 and 7.

use crate::experiment::{
    build_context_replica, replay_filter, replay_subtree, select_subtree_contexts, ReplayConfig,
};
use crate::setup::Params;
use crate::subtree::SubtreeReplica;
use fbdr_core::experiment::select_static_filters;
use fbdr_core::Replicator;
use fbdr_resync::SyncMaster;
use fbdr_selection::generalize::{Generalizer, Identity, ValuePrefix, WidenToPresence};
use fbdr_selection::{FilterSelector, SelectorConfig};
use fbdr_workload::QueryKind;

/// One point of Figure 6: update traffic vs hit ratio for the
/// serial-number query.
#[derive(Debug, Clone)]
pub struct Fig6Row {
    /// Entry budget (fraction of person entries).
    pub budget_frac: f64,
    /// Filter model: achieved serial hit ratio.
    pub filter_hit: f64,
    /// Filter model: update traffic in full entries shipped.
    pub filter_entries: u64,
    /// Filter model: DN-only PDUs shipped.
    pub filter_dns: u64,
    /// Subtree model: achieved serial hit ratio.
    pub subtree_hit: f64,
    /// Subtree model: update traffic in full entries shipped.
    pub subtree_entries: u64,
    /// Subtree model: DN-only PDUs shipped.
    pub subtree_dns: u64,
}

/// Figure 6: for replicas sized to increasing hit ratios, measure the
/// synchronization traffic over a day with interleaved updates. ReSync
/// ships only changes to stored *filter content*; the subtree replica
/// ships every change inside its subtrees.
pub fn fig6(params: &Params) -> Vec<Fig6Row> {
    let dir = params.directory();
    let (day1, day2) = params.two_days(&dir);
    let updates = params.updates(&dir);
    let persons = dir.employee_count() as f64;
    let cfg = ReplayConfig { sync_every: params.sync_every, update_every: params.update_every() };
    let gens: Vec<Box<dyn Generalizer + Send>> =
        vec![Box::new(ValuePrefix::new("serialNumber", vec![5, 4, 3]))];

    let mut rows = Vec::new();
    for &frac in &params.size_fractions {
        let budget = (frac * persons) as usize;

        let filters = select_static_filters(dir.dit(), &day1, gens_clone(&gens), budget);
        let mut repl = Replicator::new(SyncMaster::with_dit(dir.dit().clone()), 0);
        for f in filters {
            repl.install_filter(f).expect("fresh master accepts filters");
        }
        let f_out = replay_filter(&mut repl, &day2, &updates, cfg);

        let countries = select_subtree_contexts(&dir, &day1, budget);
        let mut master = dir.dit().clone();
        let mut sub = build_context_replica(&master, &countries);
        let s_out = replay_subtree(&mut master, &mut sub, &day2, &updates, cfg);

        rows.push(Fig6Row {
            budget_frac: frac,
            filter_hit: f_out.kind_hit_ratio(QueryKind::SerialNumber),
            filter_entries: f_out.resync_traffic.full_entries,
            filter_dns: f_out.resync_traffic.dn_only,
            subtree_hit: s_out.kind_hit_ratio(QueryKind::SerialNumber),
            subtree_entries: s_out.resync_traffic.full_entries,
            subtree_dns: s_out.resync_traffic.dn_only,
        });
    }
    rows
}

fn gens_clone(_template: &[Box<dyn Generalizer + Send>]) -> Vec<Box<dyn Generalizer + Send>> {
    // Generalizer isn't Clone as a trait object; rebuild the serial rules.
    vec![Box::new(ValuePrefix::new("serialNumber", vec![5, 4, 3]))]
}

/// One point of Figure 7: update traffic vs hit ratio for the department
/// query under dynamic selection.
#[derive(Debug, Clone)]
pub struct Fig7Row {
    /// Department-entry budget.
    pub budget: usize,
    /// Hit ratio with the short revolution interval.
    pub hit_r_small: f64,
    /// Update traffic (entries, resync + revolutions) with the short
    /// interval.
    pub traffic_r_small: u64,
    /// Hit ratio with the long revolution interval.
    pub hit_r_large: f64,
    /// Update traffic with the long interval.
    pub traffic_r_large: u64,
    /// Subtree model traffic (department entries are rarely updated, so
    /// this is near zero — the §7.3(b) observation).
    pub subtree_traffic: u64,
}

/// Figure 7: the filter model's department-query update traffic is
/// dominated by revolution content loads; a longer interval R lowers
/// traffic (and hit ratio — Figure 5).
pub fn fig7(params: &Params) -> Vec<Fig7Row> {
    let dir = params.directory();
    let (day1, day2) = params.two_days(&dir);
    let updates = params.updates(&dir);
    let cfg = ReplayConfig { sync_every: params.sync_every, update_every: params.update_every() };
    let dept_total = dir.departments().len();

    let mut rows = Vec::new();
    for frac in [0.2, 0.4, 0.6] {
        let budget = ((dept_total as f64) * frac) as usize;
        let mut hit = [0.0f64; 2];
        let mut traffic = [0u64; 2];
        for (i, r) in [params.r_small, params.r_large].into_iter().enumerate() {
            let selector = FilterSelector::new(
                SelectorConfig {
                    revolution_interval: r,
                    entry_budget: budget.max(1),
                    max_candidates: 4096,
                },
                vec![Box::new(WidenToPresence::new("dept")), Box::new(Identity::new())],
            );
            let mut repl =
                Replicator::new(SyncMaster::with_dit(dir.dit().clone()), 0).with_selector(selector);
            let _ = replay_filter(&mut repl, &day1, &[], ReplayConfig { sync_every: 0, update_every: 0 });
            let out = replay_filter(&mut repl, &day2, &updates, cfg);
            hit[i] = out.kind_hit_ratio(QueryKind::DeptDiv);
            traffic[i] =
                out.resync_traffic.full_entries + out.revolution_traffic.full_entries;
        }

        // Subtree: replicate the whole division tree; updates never touch
        // department entries, so sync traffic is (near) zero.
        let mut master = dir.dit().clone();
        let mut sub = SubtreeReplica::new();
        sub.replicate_context(
            &master,
            fbdr_dit::NamingContext::new("ou=divisions,o=xyz".parse().expect("valid dn")),
        );
        let s_out = replay_subtree(&mut master, &mut sub, &day2, &updates, cfg);

        rows.push(Fig7Row {
            budget,
            hit_r_small: hit[0],
            traffic_r_small: traffic[0],
            hit_r_large: hit[1],
            traffic_r_large: traffic[1],
            subtree_traffic: s_out.resync_traffic.full_entries,
        });
    }
    rows
}

/// One row of the latency analysis (the paper's §1/§7 motivation:
/// partial replication improves performance for remote users).
#[derive(Debug, Clone)]
pub struct LatencyRow {
    /// Deployment configuration.
    pub config: String,
    /// Replica entries held.
    pub replica_entries: usize,
    /// Overall hit ratio achieved on the evaluation day.
    pub hit_ratio: f64,
    /// Mean query latency in milliseconds: hits cost one LAN round trip,
    /// misses a LAN round trip (the referral) plus a WAN round trip to
    /// the master.
    pub mean_latency_ms: f64,
}

/// Mean remote-user query latency for: no replica, a subtree replica of
/// the geography, and filter replicas (with and without query caching) of
/// comparable size.
pub fn latency(params: &Params) -> Vec<LatencyRow> {
    use fbdr_net::CostModel;
    let lan = CostModel::lan();
    let wan = CostModel::default();
    let mean = |hit: f64| hit * lan.rtt_ms + (1.0 - hit) * (lan.rtt_ms + wan.rtt_ms);

    let dir = params.directory();
    let (day1, day2) = params.two_days(&dir);
    let budget = dir.employee_count() / 10;
    let mut rows = Vec::new();

    rows.push(LatencyRow {
        config: "no replica (all queries to the master)".into(),
        replica_entries: 0,
        hit_ratio: 0.0,
        mean_latency_ms: wan.rtt_ms,
    });

    // Subtree replica of the best countries within budget.
    {
        let countries = select_subtree_contexts(&dir, &day1, budget);
        let mut master = dir.dit().clone();
        let mut sub = build_context_replica(&master, &countries);
        let out = replay_subtree(
            &mut master,
            &mut sub,
            &day2,
            &[],
            ReplayConfig { sync_every: 0, update_every: 0 },
        );
        rows.push(LatencyRow {
            config: format!("subtree replica ({} countries)", countries.len()),
            replica_entries: sub.entry_count(),
            hit_ratio: out.overall.hit_ratio(),
            mean_latency_ms: mean(out.overall.hit_ratio()),
        });
    }

    // Filter replicas, without and with the query cache.
    for (label, cache) in [("filter replica (no cache)", 0usize), ("filter replica + 100-query cache", 100)] {
        let filters = select_static_filters(
            dir.dit(),
            &day1,
            vec![Box::new(ValuePrefix::new("serialNumber", vec![5, 4, 3]))],
            budget,
        );
        let mut repl = Replicator::new(SyncMaster::with_dit(dir.dit().clone()), cache);
        repl.install_filter(
            fbdr_ldap::SearchRequest::from_root(
                fbdr_ldap::Filter::parse("(location=*)").expect("static"),
            ),
        )
        .expect("fresh master");
        for f in filters {
            repl.install_filter(f).expect("fresh master");
        }
        let out = replay_filter(
            &mut repl,
            &day2,
            &[],
            ReplayConfig { sync_every: 0, update_every: 0 },
        );
        rows.push(LatencyRow {
            config: label.into(),
            replica_entries: repl.replica().entry_count(),
            hit_ratio: out.overall.hit_ratio(),
            mean_latency_ms: mean(out.overall.hit_ratio()),
        });
    }
    rows
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::setup::Scale;

    #[test]
    fn fig6_filter_traffic_below_subtree_at_same_hit_ratio() {
        let params = Params::new(Scale::Small);
        let rows = fig6(&params);
        // The paper's comparison is traffic *for a given hit ratio*: find,
        // for each subtree point, the cheapest filter point reaching at
        // least that hit ratio — it must ship no more entries.
        for s in rows.iter().filter(|r| r.subtree_hit > 0.05) {
            let Some(f) = rows
                .iter()
                .filter(|r| r.filter_hit >= s.subtree_hit - 0.05)
                .min_by_key(|r| r.filter_entries)
            else {
                continue; // subtree exceeded the filter curve's reach
            };
            assert!(
                f.filter_entries <= s.subtree_entries,
                "filter ships {} entries for hit {} but subtree ships {} for hit {}",
                f.filter_entries,
                f.filter_hit,
                s.subtree_entries,
                s.subtree_hit
            );
        }
    }

    #[test]
    fn latency_improves_with_filter_replication() {
        let rows = latency(&Params::new(Scale::Small));
        assert_eq!(rows.len(), 4);
        let none = rows[0].mean_latency_ms;
        let filter = rows[2].mean_latency_ms;
        let cached = rows[3].mean_latency_ms;
        assert!(filter < none, "filter replica should cut latency");
        assert!(cached < filter, "query caching should cut it further");
        // Latency is a direct function of hit ratio here.
        assert!(rows[3].hit_ratio > rows[2].hit_ratio);
    }

    #[test]
    fn fig7_longer_interval_cheaper() {
        let params = Params::new(Scale::Small);
        let rows = fig7(&params);
        for r in &rows {
            assert!(
                r.traffic_r_large <= r.traffic_r_small,
                "R={} traffic {} should be <= R={} traffic {}",
                params.r_large,
                r.traffic_r_large,
                params.r_small,
                r.traffic_r_small
            );
            // Subtree traffic negligible.
            assert!(r.subtree_traffic <= 2);
        }
    }
}
