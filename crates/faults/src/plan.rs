//! Deterministic fault plans: given a seed and per-op probabilities (or a
//! scripted schedule), decide which faults hit each sync operation. The
//! same seed always yields the same fault sequence, so every chaos run is
//! replayable.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::BTreeMap;

/// One kind of injected fault.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// The request never reaches the master (caller sees a timeout).
    DropRequest,
    /// The master processes the request but the response is lost.
    DropResponse,
    /// The request is delivered twice (at-least-once networks re-send).
    Duplicate,
    /// The persist notification channel is torn down mid-session.
    DisconnectPersist,
    /// The master crashes and restarts from its serialized snapshot,
    /// losing whatever state does not survive the serde round trip.
    CrashRestart,
}

/// Everything the link should do to the operation about to run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FaultDecision {
    /// Swallow the request before it reaches the master.
    pub drop_request: bool,
    /// Let the master process the request, then lose the response.
    pub drop_response: bool,
    /// Deliver the request twice (at-least-once networks re-send).
    pub duplicate: bool,
    /// Tear down the persist notification channels.
    pub disconnect_persist: bool,
    /// Crash the master and restart it from its serialized snapshot.
    pub crash_restart: bool,
    /// Simulated network latency for this operation, in milliseconds.
    pub latency_ms: u64,
}

impl FaultDecision {
    /// True if no fault hits this operation (latency aside).
    pub fn is_clean(&self) -> bool {
        !(self.drop_request
            || self.drop_response
            || self.duplicate
            || self.disconnect_persist
            || self.crash_restart)
    }

    fn apply(&mut self, kind: FaultKind) {
        match kind {
            FaultKind::DropRequest => self.drop_request = true,
            FaultKind::DropResponse => self.drop_response = true,
            FaultKind::Duplicate => self.duplicate = true,
            FaultKind::DisconnectPersist => self.disconnect_persist = true,
            FaultKind::CrashRestart => self.crash_restart = true,
        }
    }
}

/// Builder for [`FaultPlan`] probabilities and scripts.
#[derive(Debug, Clone)]
pub struct FaultPlanBuilder {
    seed: u64,
    p_drop_request: f64,
    p_drop_response: f64,
    p_duplicate: f64,
    p_disconnect_persist: f64,
    p_crash_restart: f64,
    latency_ms: (u64, u64),
    script: BTreeMap<u64, Vec<FaultKind>>,
    quiesce_after: Option<u64>,
}

impl FaultPlanBuilder {
    /// Per-operation probability of [`FaultKind::DropRequest`].
    pub fn drop_request(mut self, p: f64) -> Self {
        self.p_drop_request = p;
        self
    }

    /// Per-operation probability of [`FaultKind::DropResponse`].
    pub fn drop_response(mut self, p: f64) -> Self {
        self.p_drop_response = p;
        self
    }

    /// Per-operation probability of [`FaultKind::Duplicate`].
    pub fn duplicate(mut self, p: f64) -> Self {
        self.p_duplicate = p;
        self
    }

    /// Per-operation probability of [`FaultKind::DisconnectPersist`].
    pub fn disconnect_persist(mut self, p: f64) -> Self {
        self.p_disconnect_persist = p;
        self
    }

    /// Per-operation probability of [`FaultKind::CrashRestart`].
    pub fn crash_restart(mut self, p: f64) -> Self {
        self.p_crash_restart = p;
        self
    }

    /// Uniform simulated latency range per operation.
    pub fn latency_ms(mut self, lo: u64, hi: u64) -> Self {
        assert!(lo <= hi, "latency range inverted");
        self.latency_ms = (lo, hi);
        self
    }

    /// Forces `kind` to hit operation number `op` (0-based), regardless of
    /// probabilities. Multiple kinds may be scheduled on one op.
    pub fn at(mut self, op: u64, kind: FaultKind) -> Self {
        self.script.entry(op).or_default().push(kind);
        self
    }

    /// Disables all faults from operation `op` onward — the "faults cease"
    /// phase every convergence test ends with.
    pub fn quiesce_after(mut self, op: u64) -> Self {
        self.quiesce_after = Some(op);
        self
    }

    /// Seals the configuration into a replayable [`FaultPlan`].
    pub fn build(self) -> FaultPlan {
        FaultPlan { rng: StdRng::seed_from_u64(self.seed), op: 0, config: self }
    }
}

/// A deterministic stream of [`FaultDecision`]s.
#[derive(Debug)]
pub struct FaultPlan {
    rng: StdRng,
    op: u64,
    config: FaultPlanBuilder,
}

impl FaultPlan {
    /// Starts a plan with no faults; configure via the builder.
    pub fn builder(seed: u64) -> FaultPlanBuilder {
        FaultPlanBuilder {
            seed,
            p_drop_request: 0.0,
            p_drop_response: 0.0,
            p_duplicate: 0.0,
            p_disconnect_persist: 0.0,
            p_crash_restart: 0.0,
            latency_ms: (0, 0),
            script: BTreeMap::new(),
            quiesce_after: None,
        }
    }

    /// A plan that never injects anything.
    // A test hook: only tests call it.
    #[doc(hidden)]
    pub fn clean() -> FaultPlan {
        FaultPlan::builder(0).build()
    }

    /// Stops injecting faults from the next operation onward.
    pub fn quiesce(&mut self) {
        self.config.quiesce_after = Some(self.op);
    }

    /// Decides the faults for the next operation. Always consumes the same
    /// amount of randomness per call, so scripted faults do not shift the
    /// probabilistic ones.
    pub fn decide(&mut self) -> FaultDecision {
        let op = self.op;
        self.op += 1;
        let c = &self.config;
        let rolls = [
            self.rng.gen::<f64>(),
            self.rng.gen::<f64>(),
            self.rng.gen::<f64>(),
            self.rng.gen::<f64>(),
            self.rng.gen::<f64>(),
        ];
        let latency_ms = if c.latency_ms.1 > 0 {
            self.rng.gen_range(c.latency_ms.0..=c.latency_ms.1)
        } else {
            0
        };
        let mut decision = FaultDecision { latency_ms, ..FaultDecision::default() };
        if c.quiesce_after.is_some_and(|cutoff| op >= cutoff) {
            return decision;
        }
        if rolls[0] < c.p_drop_request {
            decision.drop_request = true;
        }
        if rolls[1] < c.p_drop_response {
            decision.drop_response = true;
        }
        if rolls[2] < c.p_duplicate {
            decision.duplicate = true;
        }
        if rolls[3] < c.p_disconnect_persist {
            decision.disconnect_persist = true;
        }
        if rolls[4] < c.p_crash_restart {
            decision.crash_restart = true;
        }
        if let Some(kinds) = c.script.get(&op) {
            for kind in kinds {
                decision.apply(*kind);
            }
        }
        decision
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_decisions() {
        let mut a = FaultPlan::builder(9).drop_request(0.4).duplicate(0.3).build();
        let mut b = FaultPlan::builder(9).drop_request(0.4).duplicate(0.3).build();
        let da: Vec<_> = (0..50).map(|_| a.decide()).collect();
        let db: Vec<_> = (0..50).map(|_| b.decide()).collect();
        assert_eq!(da, db);
        assert!(da.iter().any(|d| d.drop_request));
        assert!(da.iter().any(|d| d.is_clean()));
    }

    #[test]
    fn script_forces_faults_and_quiesce_stops_them() {
        let mut plan = FaultPlan::builder(1)
            .at(2, FaultKind::CrashRestart)
            .at(2, FaultKind::DropResponse)
            .quiesce_after(3)
            .build();
        assert!(plan.decide().is_clean());
        assert!(plan.decide().is_clean());
        let hit = plan.decide();
        assert!(hit.crash_restart && hit.drop_response);
        // From op 3 on, nothing.
        for _ in 0..10 {
            assert!(plan.decide().is_clean());
        }
    }

    #[test]
    fn quiesce_mid_stream() {
        let mut plan = FaultPlan::builder(5).drop_response(1.0).build();
        assert!(plan.decide().drop_response);
        plan.quiesce();
        assert!(plan.decide().is_clean());
    }

    #[test]
    fn latency_range_respected() {
        let mut plan = FaultPlan::builder(3).latency_ms(5, 10).build();
        for _ in 0..100 {
            let d = plan.decide();
            assert!((5..=10).contains(&d.latency_ms));
        }
    }
}
