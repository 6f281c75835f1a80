#![warn(missing_docs)]
//! The **ReSync** filter synchronization protocol (§5 of the paper).
//!
//! A filter-based replica stores the content of one or more search
//! requests. Keeping that content in sync with the master requires the
//! master to tell the replica, per request `S` and interval `(t, t']`:
//!
//! * `E01` — entries that *moved into* the content (sent in full),
//! * `E10` — entries that *moved out* (only the DN is needed),
//! * `E11` — entries that changed but stayed inside (sent in full).
//!
//! Computing `E10` reliably requires history. ReSync keeps **per-session
//! history**: at update time the master records, for each active session,
//! the DNs that left the session's content ([`SyncMaster`]). A response
//! carries three commands ([`SyncAction`]): add, modify and delete.
//! [`ReplicaContent`] applies them, and [`divergence`] compares a content
//! with the master's answer — the reference a replica must converge to.
//!
//! The alternatives §5.2 measures ReSync against — full reload, the
//! history-free retain scheme of equation (3), tombstones, a convergent
//! changelog reader and the naive one that fails to converge — are the
//! paper's comparison systems. They live in `fbdr-bench`
//! (`fbdr_bench::baseline`), the crate that runs them.
//!
//! # Example: an update session (poll mode)
//!
//! ```
//! use fbdr_dit::UpdateOp;
//! use fbdr_ldap::{Entry, Filter, Scope, SearchRequest};
//! use fbdr_resync::{ReSyncControl, SyncMaster, SyncMode};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let mut master = SyncMaster::new();
//! master.dit_mut().add_suffix("o=xyz".parse()?);
//! master.apply(UpdateOp::Add(Entry::new("o=xyz".parse()?)))?;
//! master.apply(UpdateOp::Add(
//!     Entry::new("cn=a,o=xyz".parse()?).with("dept", "7"),
//! ))?;
//!
//! let s = SearchRequest::new("o=xyz".parse()?, Scope::Subtree, Filter::parse("(dept=7)")?);
//! // Initial request: null cookie, full content.
//! let resp = master.resync(&s, ReSyncControl::poll(None))?;
//! assert_eq!(resp.actions.len(), 1);
//! let cookie = resp.cookie.expect("poll returns a resumption cookie");
//!
//! // A later poll sends only what changed.
//! master.apply(UpdateOp::Add(Entry::new("cn=b,o=xyz".parse()?).with("dept", "7")))?;
//! let resp = master.resync(&s, ReSyncControl::poll(Some(cookie)))?;
//! assert_eq!(resp.actions.len(), 1);
//! # Ok(())
//! # }
//! ```

mod content;
pub mod driver;
mod intern;
mod master;
mod protocol;
pub mod reconcile;
mod routing;
pub mod shard;

pub use content::{divergence, ReplicaContent};
pub use intern::{dn_key, entry_key};
pub use driver::{Clock, DriverStats, RetryConfig, SyncDriver, SyncTransport, SystemClock};
pub use fbdr_net::{ShardId, ShardMap};
pub use intern::dn_approx_bytes;
pub use master::{MasterFootprint, NotifyFlush, NotifyPolicy, SyncMaster};
pub use reconcile::ReconcileOutcome;
pub use routing::{Registration, RoutingIndex, RoutingStats};
pub use shard::{
    CompositeCookie, Installed, ShardCoordinator, ShardOutcome, ShardStatus, ShardedMaster,
};
pub use protocol::{
    ActionCounts, Cookie, NotifyBatch, ReSyncControl, SyncAction, SyncError, SyncMode,
    SyncResponse, SyncTraffic,
};
