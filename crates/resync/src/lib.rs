#![warn(missing_docs)]
//! The **ReSync** filter synchronization protocol (§5 of the paper) and
//! the baseline synchronizers it is compared against.
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
//! the DNs that left the session's content ([`SyncMaster`]). The
//! alternatives are implemented in [`baseline`] for comparison:
//!
//! * [`baseline::FullReload`] — resend everything;
//! * [`baseline::TombstoneSync`] — ship every deleted DN (tombstones hold
//!   state, not data);
//! * [`baseline::ChangelogSync`] — convergent but must conservatively
//!   delete every modified-and-now-unmatched DN, and still ship every
//!   deleted DN (changelogs record only changed attributes);
//! * [`baseline::NaiveChangelogSync`] — filters deletions through the
//!   changelog and consequently **fails to converge** when an entry is
//!   modified out of the content and then deleted (the paper's §5.2
//!   counterexample);
//! * [`baseline::RetainSync`] — the history-free scheme of equation (3):
//!   unchanged in-content entries are conveyed with `retain` actions
//!   (DN-only), at the cost of touching the whole content every cycle.
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

pub mod baseline;
mod content;
pub mod driver;
mod intern;
mod master;
mod protocol;
pub mod reconcile;
mod routing;
pub mod shard;

pub use content::ReplicaContent;
pub use intern::{dn_key, entry_key};
pub use driver::{Clock, DriverStats, RetryConfig, SyncDriver, SyncTransport, SystemClock};
pub use fbdr_net::{ShardId, ShardMap};
pub use intern::dn_approx_bytes;
pub use master::{MasterFootprint, NotifyFlush, NotifyPolicy, SyncMaster};
pub use reconcile::ReconcileOutcome;
pub use routing::{RoutingIndex, RoutingStats};
pub use shard::{
    CompositeCookie, Installed, ShardCoordinator, ShardOutcome, ShardStatus, ShardedMaster,
};
pub use protocol::{
    ActionCounts, Cookie, NotifyBatch, ReSyncControl, SyncAction, SyncError, SyncMode,
    SyncResponse, SyncTraffic,
};
