//! Measurements of single layer functions on a 1-in-16 sample of the
//! workload's queries, made after the traced passes. The containment scan,
//! filter parsing and query preparation all run *inside*
//! `FilterReplica::try_answer`, where the harness cannot put a span, so the
//! same public functions are replayed here on the same inputs.

use crate::estimate::{mean, percentile, quiet, sorted};
use crate::fixture::Fixture;
use crate::pipeline::SAMPLE_STRIDE;
use fbdr_containment::{ContainmentEngine, PreparedQuery};
use fbdr_ldap::{Filter, SearchRequest};
use fbdr_selection::{FilterSelector, SelectorConfig};
use std::hint::black_box;
use std::time::Instant;

/// Times the whole sample is replayed; each sample keeps its minimum.
const ROUNDS: usize = 3;

/// Employee entries each sampled query is matched against.
const MATCH_ENTRIES: usize = 8;

/// Per-layer numbers from the replay.
#[derive(Debug, Clone, Copy, Default)]
pub struct Micro {
    /// One `ContainmentEngine::query_contained` call, median.
    pub check_ns_p50: f64,
    /// One `ContainmentEngine::query_contained` call, 99th percentile.
    pub check_ns_p99: f64,
    /// Scanning the stored filters for the first that contains the query
    /// (what a decision-cache miss costs), mean per query.
    pub scan_ns_per_query: f64,
    /// The same scan, median over the sampled queries some stored filter
    /// contains (what a generalized hit pays before it evaluates).
    pub scan_hit_ns_p50: f64,
    /// `Filter::parse` of the query's filter string, median.
    pub parse_ns_p50: f64,
    /// `PreparedQuery::new` (clone + template extraction), median.
    pub prepare_ns_p50: f64,
    /// `SearchRequest::matches` against one entry, median.
    pub entry_match_ns_p50: f64,
    /// `FilterSelector::observe`, median.
    pub observe_ns_p50: f64,
}

fn timed<T>(f: impl FnOnce() -> T) -> u64 {
    let started = Instant::now();
    black_box(f());
    started.elapsed().as_nanos() as u64
}

fn p50(rounds: &[Vec<u64>]) -> f64 {
    percentile(
        &sorted(&quiet(rounds).expect("rounds replay the same sample")),
        0.5,
    ) as f64
}

/// Replays the sample against `stored` (the measured replica's
/// `FilterReplica::filters()`).
pub fn measure(fx: &Fixture, stored: &[SearchRequest]) -> Micro {
    let sample: Vec<&SearchRequest> = fx.queries.iter().step_by(SAMPLE_STRIDE).collect();
    let texts: Vec<String> = sample.iter().map(|q| q.filter().to_string()).collect();
    let engine = ContainmentEngine::new();
    let stored: Vec<PreparedQuery> = stored.iter().cloned().map(PreparedQuery::new).collect();
    let prepared: Vec<PreparedQuery> = sample
        .iter()
        .map(|&q| PreparedQuery::new(q.clone()))
        .collect();
    // Person entries, spread over the directory.
    let people: Vec<_> = fx
        .entries
        .iter()
        .filter(|e| e.dn().rdns().len() == 3)
        .collect();
    let stride = (people.len() / MATCH_ENTRIES).max(1);
    let people: Vec<_> = people
        .into_iter()
        .step_by(stride)
        .take(MATCH_ENTRIES)
        .collect();

    let mut checks = Vec::new();
    let mut scans = Vec::new();
    let mut parses = Vec::new();
    let mut prepares = Vec::new();
    let mut matches = Vec::new();
    let mut observes = Vec::new();
    for _ in 0..ROUNDS {
        let mut check = Vec::with_capacity(prepared.len() * stored.len());
        for q in &prepared {
            for s in &stored {
                check.push(timed(|| engine.query_contained(q, s)));
            }
        }
        checks.push(check);
        scans.push(
            prepared
                .iter()
                .map(|q| timed(|| stored.iter().position(|s| engine.query_contained(q, s))))
                .collect(),
        );
        parses.push(texts.iter().map(|t| timed(|| Filter::parse(t))).collect());
        prepares.push(
            sample
                .iter()
                .map(|&q| timed(|| PreparedQuery::new(q.clone())))
                .collect(),
        );
        let mut matched = Vec::with_capacity(sample.len() * people.len());
        for &q in &sample {
            for &e in &people {
                matched.push(timed(|| q.matches(e)));
            }
        }
        matches.push(matched);
        // A fresh selector each round, so every round observes the same
        // sequence from the same empty candidate table.
        let mut selector = FilterSelector::new(
            SelectorConfig {
                revolution_interval: u64::MAX,
                entry_budget: fx.entries.len(),
                max_candidates: 65_536,
            },
            (fx.generalizers)(),
        );
        observes.push(
            sample
                .iter()
                .map(|&q| timed(|| selector.observe(q)))
                .collect(),
        );
    }

    let check = sorted(&quiet(&checks).expect("rounds replay the same sample"));
    let scan = quiet(&scans).expect("rounds replay the same sample");
    let scan_hits: Vec<u64> = prepared
        .iter()
        .zip(&scan)
        .filter(|(q, _)| stored.iter().any(|s| engine.query_contained(q, s)))
        .map(|(_, &ns)| ns)
        .collect();
    Micro {
        check_ns_p50: percentile(&check, 0.5) as f64,
        check_ns_p99: percentile(&check, 0.99) as f64,
        scan_ns_per_query: mean(&scan),
        scan_hit_ns_p50: percentile(&sorted(&scan_hits), 0.5) as f64,
        parse_ns_p50: p50(&parses),
        prepare_ns_p50: p50(&prepares),
        entry_match_ns_p50: p50(&matches),
        observe_ns_p50: p50(&observes),
    }
}
