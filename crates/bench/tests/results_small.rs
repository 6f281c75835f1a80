//! The paper's numbers cannot drift unseen. Every `repro` experiment but
//! `overheads` (whose nanosecond columns are wall-clock) is exact for its
//! seed, so at `--scale small` together they print `results_small.txt`
//! byte for byte. This test builds that output in-process, through the
//! library the `repro` binary prints from, and compares.
//!
//! After a change that is meant to move a number, regenerate the file
//! with [`REGENERATE`] — and `results_paper.txt` with `repro all --scale
//! paper` — and re-read EXPERIMENTS.md against them.

use fbdr_bench::repro::{self, EXPERIMENTS};
use fbdr_bench::{Params, Scale};

/// The command that writes `results_small.txt`, from the repository root.
const REGENERATE: &str = "cargo run --release -q -p fbdr-bench --bin repro -- table1 fig2 fig3 \
    fig4 fig5 fig6 fig7 fig8 fig9 other-queries sync-ablation selection-ablation latency \
    composition recovery-cost adaptation --scale small > results_small.txt";

#[test]
fn the_small_scale_tables_are_results_small_txt() {
    let exact: Vec<&str> = EXPERIMENTS.iter().copied().filter(|&e| e != "overheads").collect();
    let mut regenerate = REGENERATE.split_whitespace();
    assert!(
        exact.iter().all(|e| regenerate.any(|arg| arg == *e)),
        "the regenerating command lists the exact experiments, in order"
    );
    let scale = Scale::Small;
    let params = Params::new(scale);
    let mut got = repro::heading(scale, &params);
    for which in exact {
        got.push_str(&repro::run(which, scale, &params).expect("a known experiment").render());
    }
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../results_small.txt");
    let want = std::fs::read_to_string(path).expect("results_small.txt at the repository root");
    if got == want {
        return;
    }
    let (got_lines, want_lines): (Vec<&str>, Vec<&str>) = (got.lines().collect(), want.lines().collect());
    let first = (0..got_lines.len().max(want_lines.len()))
        .find(|&i| got_lines.get(i) != want_lines.get(i))
        .unwrap_or(0);
    let show = |lines: &[&str]| -> String {
        let shown = lines.iter().enumerate().skip(first).take(5);
        shown.map(|(i, l)| format!("  {:>4} | {l}\n", i + 1)).collect()
    };
    panic!(
        "the small-scale tables differ from results_small.txt from line {}:\n\
         results_small.txt:\n{}this build:\n{}\
         If the change is meant to move these numbers, regenerate the file:\n  {REGENERATE}",
        first + 1,
        show(&want_lines),
        show(&got_lines),
    );
}
