//! Network cost model and per-operation statistics.

use serde::{Deserialize, Serialize};

/// Cost parameters for the simulated network.
///
/// Defaults model a WAN client against a remote master (the scenario that
/// motivates partial replication): 50 ms round-trip time.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct CostModel {
    /// Client↔server round-trip time in milliseconds.
    pub rtt_ms: f64,
    /// Fixed per-PDU overhead in bytes (envelope, message id, controls).
    pub pdu_overhead: usize,
}

impl Default for CostModel {
    fn default() -> Self {
        CostModel { rtt_ms: 50.0, pdu_overhead: 16 }
    }
}

impl CostModel {
    /// A LAN-ish model (1 ms RTT) for replica-local traffic.
    pub fn lan() -> Self {
        CostModel { rtt_ms: 1.0, pdu_overhead: 16 }
    }

    /// Estimated elapsed time for an operation that took `round_trips`
    /// sequential round trips.
    pub fn elapsed_ms(&self, round_trips: u64) -> f64 {
        self.rtt_ms * round_trips as f64
    }
}

/// Accumulated statistics for one or more distributed operations.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct OpStats {
    /// Sequential request/response exchanges with any server.
    pub round_trips: u64,
    /// Entry PDUs received.
    pub entries_returned: u64,
    /// Referral / continuation-reference PDUs received.
    pub referrals_received: u64,
    /// Request bytes sent (including per-PDU overhead).
    pub bytes_sent: u64,
    /// Response bytes received (entries + referrals + overhead).
    pub bytes_received: u64,
}

impl OpStats {
    /// Total bytes on the wire, both directions.
    pub fn bytes_total(&self) -> u64 {
        self.bytes_sent + self.bytes_received
    }
}

/// Direction of one hop of a multi-round exchange, seen from the client
/// (replica) side.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum HopDirection {
    /// Client → server (a request, a digest, a probe).
    LocalToRemote,
    /// Server → client (a response, shipped entries, a summary).
    RemoteToLocal,
}

/// One recorded hop: which round of the exchange it belongs to, its
/// direction, and how many bytes were *state* (entries, the payload being
/// synchronized) versus *metadata* (digests, summaries, cookies — the
/// protocol's own overhead).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct Hop {
    /// 1-based round-trip number the hop belongs to.
    pub round: u64,
    /// Who sent it.
    pub direction: HopDirection,
    /// Payload bytes (entries shipped).
    pub state_bytes: u64,
    /// Protocol-overhead bytes (digests, range summaries, cookies).
    pub metadata_bytes: u64,
}

impl Hop {
    /// Total bytes of this hop.
    pub fn bytes(&self) -> u64 {
        self.state_bytes + self.metadata_bytes
    }
}

/// Per-hop accounting for a multi-round reconciliation-style exchange.
///
/// Protocols register each hop as it happens (`begin_round` once per
/// round trip, then one `register` per direction); the tracker folds the
/// log into an [`OpStats`] and keeps the hop list for per-round analysis
/// — which round shipped the entries, how much of the wire cost was
/// digest overhead.
///
/// ```
/// use fbdr_net::cost::{ExchangeTracker, HopDirection};
///
/// let mut t = ExchangeTracker::new();
/// t.begin_round();
/// t.register(HopDirection::LocalToRemote, 0, 300); // digest up
/// t.register(HopDirection::RemoteToLocal, 4_000, 120); // entries down
/// let stats = t.to_stats();
/// assert_eq!(stats.round_trips, 1);
/// assert_eq!(stats.bytes_sent, 300);
/// assert_eq!(stats.bytes_received, 4_120);
/// assert_eq!(t.metadata_bytes(), 420);
/// ```
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct ExchangeTracker {
    hops: Vec<Hop>,
    round: u64,
}

impl ExchangeTracker {
    /// An empty tracker.
    pub fn new() -> Self {
        ExchangeTracker::default()
    }

    /// Starts the next round trip; subsequent hops are attributed to it.
    /// Returns the new 1-based round number.
    pub fn begin_round(&mut self) -> u64 {
        self.round += 1;
        self.round
    }

    /// Records one hop of the current round.
    pub fn register(&mut self, direction: HopDirection, state_bytes: u64, metadata_bytes: u64) {
        self.hops.push(Hop {
            round: self.round.max(1),
            direction,
            state_bytes,
            metadata_bytes,
        });
    }

    /// Round trips recorded so far.
    pub fn rounds(&self) -> u64 {
        self.round
    }

    /// The recorded hop log, in wire order.
    pub fn hops(&self) -> &[Hop] {
        &self.hops
    }

    /// Protocol-overhead bytes across all hops (digest/summary cost).
    pub fn metadata_bytes(&self) -> u64 {
        self.hops.iter().map(|h| h.metadata_bytes).sum()
    }

    /// Payload bytes across all hops (entries shipped).
    pub fn state_bytes(&self) -> u64 {
        self.hops.iter().map(|h| h.state_bytes).sum()
    }

    /// Folds the hop log into aggregate operation statistics.
    pub fn to_stats(&self) -> OpStats {
        let mut s = OpStats { round_trips: self.round, ..OpStats::default() };
        for h in &self.hops {
            match h.direction {
                HopDirection::LocalToRemote => s.bytes_sent += h.bytes(),
                HopDirection::RemoteToLocal => s.bytes_received += h.bytes(),
            }
        }
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn elapsed_scales_with_round_trips() {
        let m = CostModel::default();
        assert_eq!(m.elapsed_ms(4), 200.0);
        assert!(CostModel::lan().elapsed_ms(4) < m.elapsed_ms(1));
    }

    #[test]
    fn tracker_attributes_hops_to_rounds() {
        let mut t = ExchangeTracker::new();
        t.begin_round();
        t.register(HopDirection::LocalToRemote, 0, 100);
        t.register(HopDirection::RemoteToLocal, 500, 40);
        t.begin_round();
        t.register(HopDirection::LocalToRemote, 0, 64);
        t.register(HopDirection::RemoteToLocal, 200, 16);
        assert_eq!(t.rounds(), 2);
        assert_eq!(t.hops().len(), 4);
        assert_eq!(t.hops()[0].round, 1);
        assert_eq!(t.hops()[3].round, 2);
        assert_eq!(t.metadata_bytes(), 220);
        assert_eq!(t.state_bytes(), 700);
        let s = t.to_stats();
        assert_eq!(s.round_trips, 2);
        assert_eq!(s.bytes_sent, 164);
        assert_eq!(s.bytes_received, 756);
        assert_eq!(s.bytes_total(), 920);
    }

    #[test]
    fn tracker_register_without_round_lands_in_round_one() {
        let mut t = ExchangeTracker::new();
        t.register(HopDirection::LocalToRemote, 10, 0);
        assert_eq!(t.hops()[0].round, 1);
        // `rounds()` still reports what was explicitly begun.
        assert_eq!(t.rounds(), 0);
    }
}
