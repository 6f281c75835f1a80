//! Static filter selection: the train-then-freeze configuration of
//! Figure 4.
//!
//! [`select_static_filters`] is the one piece of the paper's experiment
//! engine the system crates keep, because the benchmark harness builds its
//! fixtures with it. The trace-replay drivers and the subtree model's
//! selection live in `fbdr-bench` (`fbdr_bench::experiment`), beside the
//! comparison systems they drive.

use fbdr_dit::DitStore;
use fbdr_ldap::SearchRequest;
use fbdr_selection::generalize::Generalizer;
use fbdr_selection::{FilterSelector, SelectorConfig};
use fbdr_workload::TracedQuery;

/// Trains a selector on a trace and returns the frozen benefit/size
/// selection (the Figure 4 static configuration).
pub fn select_static_filters(
    master: &DitStore,
    trace: &[TracedQuery],
    generalizers: Vec<Box<dyn Generalizer + Send>>,
    entry_budget: usize,
) -> Vec<SearchRequest> {
    let mut selector = FilterSelector::new(
        SelectorConfig {
            revolution_interval: u64::MAX,
            entry_budget,
            max_candidates: 65_536,
        },
        generalizers,
    );
    for tq in trace {
        selector.observe(&tq.request);
    }
    selector.select(master)
}
