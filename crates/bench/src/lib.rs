//! Experiment harness for the fbdr reproduction.
//!
//! Every table and figure of the paper's evaluation (§7) is regenerated by
//! a function in this crate; [`repro`] renders them as text tables, which
//! the `repro` binary prints. Absolute numbers differ from the paper (the substrate is a
//! simulator, the directory synthetic and scaled), but the *shapes* —
//! which model wins, by roughly what factor, where knees fall — are the
//! reproduction targets recorded in `EXPERIMENTS.md`.
//!
//! | id | function |
//! |---|---|
//! | Table 1 | [`tables::table1`] |
//! | Figure 2 | [`protocol::fig2`] |
//! | Figure 3 | [`protocol::fig3`] |
//! | Figure 4 | [`hits::fig4`] |
//! | Figure 5 | [`hits::fig5`] |
//! | Figure 6 | [`traffic::fig6`] |
//! | Figure 7 | [`traffic::fig7`] |
//! | Figure 8 | [`hits::fig8`] |
//! | Figure 9 | [`hits::fig9`] |
//! | §7.2(c) | [`tables::other_queries`] |
//! | §5.2 | [`tables::sync_ablation`] |
//! | §7.4 | [`tables::overheads`] |
//!
//! Two extensions beyond the paper whose results are exact tables ride
//! the same path: [`recovery::run`] (`repro recovery-cost`) and
//! [`adaptation::run`] (`repro adaptation`). Wall-clock claims are not
//! measured here — they belong to the repo's one ruler, `benchmark/`.
//! The crate also holds the `ldapsim` sandbox ([`shell`]).
//!
//! # The paper's comparison systems
//!
//! The systems the paper measures ReSync and the filter replica against
//! live here, beside the experiments that run them, and not in the system
//! crates:
//!
//! | section | system | module |
//! |---|---|---|
//! | §5.2 | full reload, retain (eq. 3), tombstone, changelog and naive-changelog sync | [`baseline`] |
//! | §5.2 | the changelog and tombstones those schemes read | [`history`] |
//! | §6.2 | per-query evolutions and revolutions of \[12\] | [`evolution`] |
//! | §3.4.1 | the subtree replica | [`subtree`] |
//! | §7 | the trace-replay drivers of both replica models | [`experiment`] |
//!
//! They depend on the system crates' public API only; no system crate
//! depends on this one.

pub mod adaptation;
pub mod baseline;
pub mod evolution;
pub mod experiment;
pub mod history;
pub mod hits;
pub mod protocol;
pub mod recovery;
pub mod repro;
pub mod setup;
pub mod shell;
pub mod subtree;
pub mod tables;
pub mod traffic;

pub use setup::{Params, Scale};

/// Renders rows of `(label, columns…)` as an aligned text table.
pub fn render_table(title: &str, headers: &[&str], rows: &[Vec<String>]) -> String {
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            if i < widths.len() {
                widths[i] = widths[i].max(cell.len());
            }
        }
    }
    let mut out = String::new();
    out.push_str(&format!("\n== {title} ==\n"));
    let header_line: Vec<String> = headers
        .iter()
        .enumerate()
        .map(|(i, h)| format!("{h:>w$}", w = widths[i]))
        .collect();
    out.push_str(&header_line.join("  "));
    out.push('\n');
    out.push_str(&"-".repeat(header_line.join("  ").len()));
    out.push('\n');
    for row in rows {
        let line: Vec<String> = row
            .iter()
            .enumerate()
            .map(|(i, c)| format!("{c:>w$}", w = widths.get(i).copied().unwrap_or(0)))
            .collect();
        out.push_str(&line.join("  "));
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn render_aligns_columns() {
        let s = render_table(
            "t",
            &["a", "bbbb"],
            &[vec!["1".into(), "2".into()], vec!["100".into(), "2222222".into()]],
        );
        assert!(s.contains("== t =="));
        let lines: Vec<&str> = s.lines().filter(|l| !l.is_empty()).collect();
        // Header + rule + 2 rows.
        assert_eq!(lines.len(), 5);
    }
}
