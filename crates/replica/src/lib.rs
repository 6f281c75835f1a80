#![warn(missing_docs)]
//! Partial replicas of a directory: the paper's two replication models.
//!
//! * [`SubtreeReplica`] — the conventional model (§3.4.1): the replica
//!   holds one or more naming contexts (subtrees, possibly delimited by
//!   referral objects) and answers a query iff the base lies inside a held
//!   context (`isContained`) and, for full answers, no subordinate
//!   referral intersects the query region.
//! * [`FilterReplica`] — the paper's model: the replica stores the content
//!   of one or more *LDAP queries* — statically configured generalized
//!   filters kept in sync via ReSync, plus a short window of recently
//!   performed user queries cached for temporal locality (§7.4). An
//!   incoming query is answerable iff it is semantically contained
//!   (`QC`) in some stored query.
//!
//! Both replicas expose [`try_answer`](FilterReplica::try_answer) returning
//! the locally computed result on a hit and `None` (→ referral to the
//! master) on a miss, plus hit-ratio accounting ([`ReplicaStats`]).
//!
//! # Indexed evaluation
//!
//! [`FilterReplica`] answers queries through a per-epoch snapshot index:
//! entry DNs are interned to dense `u32` ids, stored-filter contents are
//! sorted posting lists ([`fbdr_dit::posting`]), and each epoch carries
//! incrementally maintained equality/prefix/range posting lists under the
//! master store's own index rules ([`fbdr_dit::index`]). A hit compiles the
//! query filter into a candidate plan, intersects it (galloping) with the
//! winning filter's list, and verifies residual predicates only on the
//! candidates. Which filter wins is decided per query — a filter-set index
//! names the few stored filters that can contain it, each gets the exact
//! containment check — and not remembered.
//!
//! # Concurrency
//!
//! Query answering is `&self` on both models. [`FilterReplica`] goes
//! further: its content lives in immutable per-epoch snapshots behind an
//! `Arc` swap, so readers run concurrently with sync cycles and never see
//! a half-applied update batch. Statistics are relaxed atomics
//! ([`AtomicReplicaStats`]) snapshotted into plain [`ReplicaStats`].

mod filter_replica;
mod index;
mod intern;
mod persistent;
mod stats;
mod subtree;

pub use filter_replica::{DecisionCacheStats, FilterReplica};
pub use stats::{AtomicReplicaStats, ReplicaStats};
pub use subtree::SubtreeReplica;

pub use fbdr_resync::SyncTraffic;
