//! The trace-replay experiment engine behind the paper's figures.
//!
//! Two drivers replay a workload (queries interleaved with updates)
//! against each replication model:
//!
//! * [`replay_filter`] — drives a [`Replicator`] (filter-based model);
//! * [`replay_subtree`] — drives a [`SubtreeReplica`]. The trace's queries
//!   are root-based, and a subtree replica answers none of those
//!   (§3.1.1). The driver instead credits the subtree model whenever the
//!   query's full result lies inside held contexts — an upper bound that
//!   models perfectly-scoped applications, keeping the comparison
//!   conservative in the filter model's favour.
//!
//! The per-country greedy choice a subtree deployment would make is
//! [`select_subtree_contexts`]; the train-then-freeze filter selection of
//! Figure 4 is [`select_static_filters`], which stays in `fbdr-core`
//! because the benchmark harness uses it too.
//!
//! [`select_static_filters`]: fbdr_core::experiment::select_static_filters

use crate::history::History;
use crate::subtree::SubtreeReplica;
use fbdr_containment::EngineStats;
use fbdr_core::{Replicator, ServedBy};
use fbdr_dit::{DitStore, NamingContext, UpdateOp};
use fbdr_replica::ReplicaStats;
use fbdr_resync::SyncTraffic;
use fbdr_workload::{EnterpriseDirectory, QueryKind, TracedQuery};
use std::collections::HashMap;

/// Replay parameters.
#[derive(Debug, Clone, Copy)]
pub struct ReplayConfig {
    /// Queries between replica synchronization polls (0 = never sync).
    pub sync_every: usize,
    /// Queries between master updates drawn from the update stream
    /// (0 = apply no updates).
    pub update_every: usize,
}

impl Default for ReplayConfig {
    fn default() -> Self {
        ReplayConfig { sync_every: 500, update_every: 25 }
    }
}

/// Per-kind and aggregate metrics from one replay.
#[derive(Debug, Clone, Default)]
pub struct ReplayOutcome {
    /// Aggregate hit statistics.
    pub overall: ReplicaStats,
    /// `(queries, hits)` per query kind.
    pub per_kind: HashMap<String, (u64, u64)>,
    /// Replica size (entries) at the end of the replay.
    pub replica_entries: usize,
    /// Stored queries (filters + cached) at the end.
    pub stored_queries: usize,
    /// ReSync poll traffic (component (i)).
    pub resync_traffic: SyncTraffic,
    /// Filter-install traffic (component (ii), revolutions).
    pub revolution_traffic: SyncTraffic,
    /// Revolutions performed.
    pub revolutions: u64,
    /// Containment-engine work (filter model only).
    pub engine: EngineStats,
    /// Updates applied at the master during the replay.
    pub updates_applied: u64,
}

impl ReplayOutcome {
    /// Hit ratio for one query kind.
    pub fn kind_hit_ratio(&self, kind: QueryKind) -> f64 {
        match self.per_kind.get(kind.template()) {
            Some((q, h)) if *q > 0 => *h as f64 / *q as f64,
            _ => 0.0,
        }
    }
}

fn record(per_kind: &mut HashMap<String, (u64, u64)>, kind: QueryKind, hit: bool) {
    let e = per_kind.entry(kind.template().to_owned()).or_insert((0, 0));
    e.0 += 1;
    if hit {
        e.1 += 1;
    }
}

/// Replays a trace (with interleaved updates) against a filter-based
/// [`Replicator`].
pub fn replay_filter(
    replicator: &mut Replicator,
    trace: &[TracedQuery],
    updates: &[UpdateOp],
    cfg: ReplayConfig,
) -> ReplayOutcome {
    let mut out = ReplayOutcome::default();
    let mut next_update = 0usize;
    let report_before = replicator.report();
    let stats_before = replicator.stats();
    for (i, tq) in trace.iter().enumerate() {
        let (_, served) = replicator.search(&tq.request);
        record(&mut out.per_kind, tq.kind, served == ServedBy::Replica);
        if cfg.update_every > 0 && (i + 1) % cfg.update_every == 0 && next_update < updates.len() {
            let _ = replicator.apply_update(updates[next_update].clone());
            next_update += 1;
            out.updates_applied += 1;
        }
        if cfg.sync_every > 0 && (i + 1) % cfg.sync_every == 0 {
            let _ = replicator.sync();
        }
    }
    let _ = replicator.sync();
    let report_after = replicator.report();
    let stats_after = replicator.stats();
    out.overall = ReplicaStats {
        queries: stats_after.queries - stats_before.queries,
        hits: stats_after.hits - stats_before.hits,
        generalized_hits: stats_after.generalized_hits - stats_before.generalized_hits,
        cache_hits: stats_after.cache_hits - stats_before.cache_hits,
        stale_serves: stats_after.stale_serves - stats_before.stale_serves,
        poll_fallbacks: stats_after.poll_fallbacks - stats_before.poll_fallbacks,
    };
    out.resync_traffic = SyncTraffic {
        full_entries: report_after.resync_traffic.full_entries - report_before.resync_traffic.full_entries,
        dn_only: report_after.resync_traffic.dn_only - report_before.resync_traffic.dn_only,
        bytes: report_after.resync_traffic.bytes - report_before.resync_traffic.bytes,
    };
    out.revolution_traffic = SyncTraffic {
        full_entries: report_after.revolution_traffic.full_entries
            - report_before.revolution_traffic.full_entries,
        dn_only: report_after.revolution_traffic.dn_only - report_before.revolution_traffic.dn_only,
        bytes: report_after.revolution_traffic.bytes - report_before.revolution_traffic.bytes,
    };
    out.revolutions = report_after.revolutions - report_before.revolutions;
    out.replica_entries = replicator.replica().entry_count();
    out.stored_queries = replicator.replica().stored_query_count();
    out.engine = replicator.replica().engine_stats();
    out
}

/// Replays a trace against a subtree replica, oracle-scoped: a query is
/// a hit when its complete master-side result is non-empty and lies
/// inside held contexts.
pub fn replay_subtree(
    master: &mut DitStore,
    replica: &mut SubtreeReplica,
    trace: &[TracedQuery],
    updates: &[UpdateOp],
    cfg: ReplayConfig,
) -> ReplayOutcome {
    let mut out = ReplayOutcome::default();
    // The replica's feed: what the master applied since the last cycle.
    let mut history = History::new();
    let mut next_update = 0usize;
    for (i, tq) in trace.iter().enumerate() {
        let dns = master.search_dns(&tq.request);
        let hit = !dns.is_empty() && dns.iter().all(|dn| replica.covers_dn(dn));
        out.overall.queries += 1;
        if hit {
            out.overall.hits += 1;
        }
        record(&mut out.per_kind, tq.kind, hit);
        if cfg.update_every > 0 && (i + 1) % cfg.update_every == 0 && next_update < updates.len() {
            if let Ok(rec) = master.apply(updates[next_update].clone()) {
                history.record(rec);
            }
            next_update += 1;
            out.updates_applied += 1;
        }
        if cfg.sync_every > 0 && (i + 1) % cfg.sync_every == 0 {
            out.resync_traffic.absorb(&replica.sync_from(master, &history));
            history.trim(master.csn());
        }
    }
    out.resync_traffic.absorb(&replica.sync_from(master, &history));
    out.replica_entries = replica.entry_count();
    out
}

/// Greedy benefit/size choice of whole countries for the subtree model:
/// benefit = trace queries targeting employees of the country, size = its
/// population. Returns the chosen countries as typed [`NamingContext`]s
/// (suffix `c={cc},o=xyz`), best-first, within the entry budget.
pub fn select_subtree_contexts(
    dir: &EnterpriseDirectory,
    trace: &[TracedQuery],
    entry_budget: usize,
) -> Vec<NamingContext> {
    // Map serial/mail → country.
    let mut by_serial: HashMap<&str, &str> = HashMap::new();
    let mut by_mail: HashMap<&str, &str> = HashMap::new();
    for e in dir.employees() {
        by_serial.insert(e.serial.as_str(), e.country.as_str());
        by_mail.insert(e.mail.as_str(), e.country.as_str());
    }
    let mut benefit: HashMap<&str, u64> = HashMap::new();
    for tq in trace {
        let f = tq.request.filter().to_string();
        let country = match tq.kind {
            QueryKind::SerialNumber => {
                let sn = f.trim_start_matches("(serialNumber=").trim_end_matches(')');
                by_serial.get(sn).copied()
            }
            QueryKind::Mail => {
                let mail = f.trim_start_matches("(mail=").trim_end_matches(')');
                by_mail.get(mail).copied()
            }
            _ => None,
        };
        if let Some(c) = country {
            *benefit.entry(c).or_default() += 1;
        }
    }
    let mut scored: Vec<(&str, f64, usize)> = dir
        .countries()
        .iter()
        .filter(|(_, size)| *size > 0)
        .map(|(cc, size)| {
            let b = benefit.get(cc.as_str()).copied().unwrap_or(0);
            (cc.as_str(), b as f64 / *size as f64, *size)
        })
        .collect();
    scored.sort_by(|a, b| b.1.partial_cmp(&a.1).unwrap_or(std::cmp::Ordering::Equal));
    let mut used = 0usize;
    let mut out = Vec::new();
    for (cc, ratio, size) in scored {
        if ratio <= 0.0 {
            break;
        }
        if used + size <= entry_budget {
            used += size;
            let suffix = format!("c={cc},o=xyz").parse().expect("valid dn");
            out.push(NamingContext::new(suffix));
        }
    }
    out
}

/// Builds a subtree replica holding the given naming contexts.
pub fn build_context_replica(master: &DitStore, contexts: &[NamingContext]) -> SubtreeReplica {
    let mut replica = SubtreeReplica::new();
    for ctx in contexts {
        replica.replicate_context(master, ctx.clone());
    }
    replica
}

#[cfg(test)]
mod tests {
    use super::*;
    use fbdr_core::experiment::select_static_filters;
    use fbdr_selection::generalize::ValuePrefix;
    use fbdr_workload::{DirectoryConfig, TraceConfig, TraceGenerator, UpdateConfig, UpdateGenerator};

    fn setup() -> (EnterpriseDirectory, Vec<TracedQuery>, Vec<UpdateOp>) {
        let dir = EnterpriseDirectory::generate(DirectoryConfig::small());
        let tc = TraceConfig { queries: 2000, ..TraceConfig::default() };
        let trace = TraceGenerator::new(&dir, &tc).generate(&dir, &tc);
        let ops = UpdateGenerator::new(&dir).generate(&UpdateConfig {
            ops: 100,
            ..UpdateConfig::default()
        });
        (dir, trace, ops)
    }

    #[test]
    fn static_filter_replay_beats_subtree_at_same_size() {
        let (dir, trace, ops) = setup();
        let budget = dir.employee_count() / 5;

        // Filter model: train on the trace, freeze, replay.
        let filters = select_static_filters(
            dir.dit(),
            &trace,
            vec![Box::new(ValuePrefix::new("serialNumber", vec![4]))],
            budget,
        );
        assert!(!filters.is_empty());
        let master = fbdr_resync::SyncMaster::with_dit({
            let d = EnterpriseDirectory::generate(DirectoryConfig::small());
            d.into_parts().0
        });
        let mut repl = Replicator::new(master, 0);
        for f in filters {
            repl.install_filter(f).unwrap();
        }
        let filter_size = repl.replica().entry_count();
        assert!(filter_size <= budget);
        let f_out = replay_filter(&mut repl, &trace, &ops, ReplayConfig::default());

        // Subtree model at (at least) the same size.
        let countries = select_subtree_contexts(&dir, &trace, budget);
        let (mut mdit, _) = EnterpriseDirectory::generate(DirectoryConfig::small()).into_parts();
        let mut sub = build_context_replica(&mdit, &countries);
        let s_out = replay_subtree(&mut mdit, &mut sub, &trace, &ops, ReplayConfig::default());

        let f_serial = f_out.kind_hit_ratio(QueryKind::SerialNumber);
        let s_serial = s_out.kind_hit_ratio(QueryKind::SerialNumber);
        assert!(
            f_serial > s_serial,
            "filter model {f_serial} should beat subtree {s_serial} on serial queries"
        );
    }

    #[test]
    fn replay_accounts_per_kind() {
        let (dir, trace, ops) = setup();
        let master = fbdr_resync::SyncMaster::with_dit({
            let d = EnterpriseDirectory::generate(DirectoryConfig::small());
            d.into_parts().0
        });
        let mut repl = Replicator::new(master, 20);
        let out = replay_filter(&mut repl, &trace, &ops, ReplayConfig::default());
        let total_q: u64 = out.per_kind.values().map(|(q, _)| q).sum();
        assert_eq!(total_q, trace.len() as u64);
        assert_eq!(out.overall.queries, trace.len() as u64);
        assert!(out.updates_applied > 0);
        let _ = dir;
    }

    #[test]
    fn oracle_routing_gives_subtree_nonzero_hits() {
        let (dir, trace, ops) = setup();
        let (mut mdit, _) = EnterpriseDirectory::generate(DirectoryConfig::small()).into_parts();
        let countries = select_subtree_contexts(&dir, &trace, dir.employee_count() / 2);
        let mut sub = build_context_replica(&mdit, &countries);
        let out = replay_subtree(
            &mut mdit,
            &mut sub,
            &trace,
            &ops,
            ReplayConfig::default(),
        );
        assert!(out.overall.hits > 0);
        assert!(out.overall.hit_ratio() < 1.0);
    }
}
