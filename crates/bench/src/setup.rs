//! Shared experiment setup: scales, directory/trace construction.

use fbdr_workload::{
    DirectoryConfig, EnterpriseDirectory, TraceConfig, TracedQuery, TraceGenerator, UpdateConfig,
    UpdateGenerator,
};

/// Experiment scale.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// Tiny: CI/integration-test sized (seconds).
    Small,
    /// The default reproduction scale (tens of seconds per figure in a
    /// release build): 20k employees, 50k queries per "day".
    Paper,
    /// Large: 100k employees, 100k queries per day (minutes per figure);
    /// approaches the paper's half-million-entry directory in spirit.
    Large,
}

impl Scale {
    /// Parses `small` / `paper` / `large`.
    pub fn parse(s: &str) -> Option<Scale> {
        match s {
            "small" => Some(Scale::Small),
            "paper" => Some(Scale::Paper),
            "large" => Some(Scale::Large),
            _ => None,
        }
    }
}

/// Derived experiment parameters for a scale.
#[derive(Debug, Clone)]
pub struct Params {
    /// Directory generation config.
    pub dir: DirectoryConfig,
    /// Queries per simulated day.
    pub day_queries: usize,
    /// The paper's two revolution intervals (Figures 5, 7), scaled.
    pub r_small: u64,
    /// Larger (slower) revolution interval.
    pub r_large: u64,
    /// Replica-size sweep as fractions of the person-entry count.
    pub size_fractions: Vec<f64>,
    /// Stored-filter-count sweep (Figures 8–9).
    pub filter_counts: Vec<usize>,
    /// Updates interleaved into a day's replay.
    pub updates_per_day: usize,
    /// Queries between replica sync polls.
    pub sync_every: usize,
}

impl Params {
    /// Parameters for a scale.
    pub fn new(scale: Scale) -> Params {
        match scale {
            Scale::Small => Params {
                dir: DirectoryConfig::small(),
                day_queries: 4_000,
                r_small: 600,
                r_large: 1_000,
                size_fractions: vec![0.05, 0.1, 0.2, 0.4],
                filter_counts: vec![10, 25, 50, 100],
                updates_per_day: 400,
                sync_every: 200,
            },
            Scale::Paper => Params {
                dir: DirectoryConfig::default(),
                day_queries: 50_000,
                r_small: 6_000,
                r_large: 10_000,
                size_fractions: vec![0.02, 0.05, 0.1, 0.2, 0.3, 0.4],
                filter_counts: vec![12, 25, 50, 100, 200, 400],
                updates_per_day: 3_000,
                sync_every: 500,
            },
            Scale::Large => Params {
                dir: DirectoryConfig {
                    employees: 100_000,
                    countries: 40,
                    geography_countries: 4,
                    divisions: 20,
                    depts_per_division: 50,
                    locations: 250,
                    ..DirectoryConfig::default()
                },
                day_queries: 100_000,
                r_small: 6_000,
                r_large: 10_000,
                size_fractions: vec![0.02, 0.05, 0.1, 0.2, 0.3, 0.4],
                filter_counts: vec![25, 50, 100, 200, 400, 800],
                updates_per_day: 6_000,
                sync_every: 500,
            },
        }
    }

    /// Generates the directory.
    pub fn directory(&self) -> EnterpriseDirectory {
        EnterpriseDirectory::generate(self.dir.clone())
    }

    /// Trace config for a given day (day 0 trains, day 1 evaluates).
    pub fn trace_config(&self, day: u64) -> TraceConfig {
        TraceConfig {
            seed: 0x7ACE + day * 7919,
            queries: self.day_queries,
            ..TraceConfig::default()
        }
    }

    /// Generates the two-day workload as one continuous trace split at
    /// the day boundary, so popularity drift and temporal locality carry
    /// over from the training day into the evaluation day (as they would
    /// in the paper's real two-day capture).
    pub fn two_days(&self, dir: &EnterpriseDirectory) -> (Vec<TracedQuery>, Vec<TracedQuery>) {
        let cfg = TraceConfig { queries: self.day_queries * 2, ..self.trace_config(0) };
        let gen = TraceGenerator::new(dir, &cfg);
        let mut both = gen.generate(dir, &cfg);
        let day2 = both.split_off(self.day_queries);
        (both, day2)
    }

    /// Generates the update stream for one day.
    pub fn updates(&self, dir: &EnterpriseDirectory) -> Vec<fbdr_dit::UpdateOp> {
        UpdateGenerator::new(dir).generate(&UpdateConfig {
            ops: self.updates_per_day,
            ..UpdateConfig::default()
        })
    }

    /// How often (in queries) to draw one update so the whole stream is
    /// consumed over a day.
    pub fn update_every(&self) -> usize {
        (self.day_queries / self.updates_per_day.max(1)).max(1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scale_parsing() {
        assert_eq!(Scale::parse("small"), Some(Scale::Small));
        assert_eq!(Scale::parse("paper"), Some(Scale::Paper));
        assert_eq!(Scale::parse("large"), Some(Scale::Large));
        for unknown in ["xl", "default", "huge"] {
            assert_eq!(Scale::parse(unknown), None);
        }
    }

    #[test]
    fn small_params_generate_quickly() {
        let p = Params::new(Scale::Small);
        let dir = p.directory();
        let (d1, d2) = p.two_days(&dir);
        assert_eq!(d1.len(), p.day_queries);
        assert_eq!(d2.len(), p.day_queries);
        // Different days differ.
        assert!(d1.iter().zip(&d2).any(|(a, b)| a.request != b.request));
        assert_eq!(p.updates(&dir).len(), p.updates_per_day);
        assert!(p.update_every() >= 1);
    }
}
