#![warn(missing_docs)]
//! The paper's partial replica of a directory.
//!
//! [`FilterReplica`] is the paper's model: the replica stores the content
//! of one or more *LDAP queries* — statically configured generalized
//! filters kept in sync via ReSync, plus a short window of recently
//! performed user queries cached for temporal locality (§7.4). An
//! incoming query is answerable iff it is semantically contained (`QC`) in
//! some stored query. [`try_answer`](FilterReplica::try_answer) returns
//! the locally computed result on a hit and `None` (→ referral to the
//! master) on a miss, with hit-ratio accounting ([`ReplicaStats`]).
//!
//! The conventional subtree model it is measured against (§3.4.1) is one
//! of the paper's comparison systems and lives in `fbdr-bench`
//! (`fbdr_bench::subtree`), the crate that runs them.
//!
//! # Indexed evaluation
//!
//! [`FilterReplica`] answers queries through a per-epoch attribute index:
//! entry DNs are interned to dense `u32` ids, stored-filter contents are
//! sorted posting lists ([`fbdr_dit::posting`]), and each epoch carries
//! incrementally maintained equality/prefix/range posting lists in the
//! master store's own index type ([`fbdr_dit::index::Indexes`]). A hit compiles the
//! query filter into a candidate plan, intersects it (galloping) with the
//! winning filter's list, and verifies residual predicates only on the
//! candidates. Which filter wins is decided per query — a filter-set index
//! names the few stored filters that can contain it, each gets the exact
//! containment check — and not remembered.
//!
//! # Concurrency
//!
//! Query answering is `&self`, and [`FilterReplica`]'s content lives in
//! per-epoch snapshots behind an `Arc` swap, so readers run concurrently
//! with sync cycles and never see a half-applied update batch. An epoch a
//! reader holds never changes; a persist drain that finds the published
//! epoch held by nobody applies its batch to it in place, under the
//! content lock, so a reader may wait for that one apply. Statistics are
//! relaxed atomics
//! ([`AtomicReplicaStats`]) snapshotted into plain [`ReplicaStats`].

mod filter_replica;
mod index;
mod intern;

mod stats;

pub use filter_replica::{DecisionCacheStats, FilterReplica, HeldEpoch};
pub use stats::{AtomicReplicaStats, ReplicaStats};

pub use fbdr_resync::SyncTraffic;
