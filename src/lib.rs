#![warn(missing_docs)]
//! **fbdr** — Filter Based Directory Replication.
//!
//! A from-scratch Rust reproduction of *"Filter Based Directory
//! Replication: Algorithms and Performance"* (Apurva Kumar, ICDCS 2005):
//! instead of replicating whole subtrees of an LDAP Directory Information
//! Tree, a replica stores the entries matching one or more LDAP search
//! filters, decides answerability by **semantic query containment**,
//! keeps content consistent with the **ReSync** protocol, and adapts the
//! stored filter set to the access pattern by **benefit/size selection**.
//!
//! This facade re-exports the workspace crates:
//!
//! | module | crate | contents |
//! |---|---|---|
//! | [`ldap`] | `fbdr-ldap` | DNs, entries, RFC 2254 filters, templates, search requests |
//! | [`dit`] | `fbdr-dit` | in-memory DIT store, indexes, updates, changelog, tombstones |
//! | [`containment`] | `fbdr-containment` | QC algorithm, Propositions 1–3, containment engine |
//! | [`net`] | `fbdr-net` | simulated distributed directory with referral chasing |
//! | [`resync`] | `fbdr-resync` | ReSync protocol + baseline synchronizers |
//! | [`replica`] | `fbdr-replica` | subtree and filter replicas |
//! | [`selection`] | `fbdr-selection` | filter generalization + selection |
//! | [`workload`] | `fbdr-workload` | enterprise directory + Table 1 traces |
//! | [`core`] | `fbdr-core` | the `Replicator` façade + experiment engine |
//! | [`obs`] | `fbdr-obs` | metrics registry, latency histograms, structured tracing |
//!
//! # Quickstart
//!
//! ```
//! use fbdr::prelude::*;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! // A master directory with one person entry.
//! let mut master = SyncMaster::new();
//! master.dit_mut().add_suffix("o=xyz".parse()?);
//! master.dit_mut().add(Entry::new("o=xyz".parse()?))?;
//! master.dit_mut().add(
//!     Entry::new("cn=John Doe,o=xyz".parse()?)
//!         .with("objectclass", "inetOrgPerson")
//!         .with("serialNumber", "045612"),
//! )?;
//!
//! // A remote filter-based replica holding the 0456* serial region.
//! let mut replicator = Replicator::new(master, 50);
//! replicator.install_filter(SearchRequest::from_root(Filter::parse("(serialNumber=0456*)")?))?;
//!
//! // Contained queries are answered locally.
//! let q = SearchRequest::from_root(Filter::parse("(serialNumber=045612)")?);
//! let (entries, served) = replicator.search(&q);
//! assert_eq!(entries.len(), 1);
//! assert_eq!(served, ServedBy::Replica);
//! # Ok(())
//! # }
//! ```

pub use fbdr_containment as containment;
pub use fbdr_core as core;
pub use fbdr_dit as dit;
pub use fbdr_ldap as ldap;
pub use fbdr_net as net;
pub use fbdr_obs as obs;
pub use fbdr_replica as replica;
pub use fbdr_resync as resync;
pub use fbdr_selection as selection;
pub use fbdr_workload as workload;

/// Convenient re-exports of the most used types.
pub mod prelude {
    pub use fbdr_containment::{
        filter_contained, query_contained, Containment, ContainmentEngine, PreparedQuery,
    };
    pub use fbdr_core::{Replicator, ServedBy};
    pub use fbdr_dit::{DitStore, Modification, NamingContext, UpdateOp};
    pub use fbdr_ldap::{
        AttrName, AttrSelection, AttrValue, Dn, Entry, Filter, Rdn, Scope, SearchRequest, Template,
        ValueSet,
    };
    pub use fbdr_net::{Network, Server};
    pub use fbdr_obs::{MetricsRegistry, Obs, RingBuffer};
    pub use fbdr_replica::{FilterReplica, SubtreeReplica};
    pub use fbdr_resync::{
        ReSyncControl, ReplicaContent, SyncAction, SyncMaster, SyncMode, SyncTraffic,
    };
    pub use fbdr_selection::{FilterSelector, SelectorConfig, StepConfig};
    pub use fbdr_workload::{
        DirectoryConfig, EnterpriseDirectory, QueryKind, TraceConfig, TraceGenerator, UpdateConfig,
        UpdateGenerator,
    };
}
