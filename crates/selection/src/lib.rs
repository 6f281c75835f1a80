#![warn(missing_docs)]
//! Replica content determination (§6 of the paper): generalizing user
//! queries into candidate filters and selecting which to replicate.
//!
//! * [`generalize`] — rules that map a user query to *generalized*
//!   candidate filters describing regions of semantic/spatial locality:
//!   value prefixes (`(serialNumber=0456*)`), predicate widening
//!   (`(&(div=X)(dept=*))` for "all departments of division X"), and
//!   constant regions (the whole location tree).
//! * [`FilterSelector`] — the paper's §6.2 scheme: candidates accrue *hit*
//!   statistics; every `R` queries (the *revolution interval*) the
//!   candidates with the best benefit/size ratios are installed into the
//!   replica, within an entry budget. Benefit = hits since the last
//!   revolution; size = number of entries the candidate matches at the
//!   master, inside its own base and scope. That periodic revolution
//!   ([`SelectorConfig`]) is one configuration of the selector's budgeted
//!   step; the *online* one ([`StepConfig`]'s default) relaxes it so the
//!   stored set tracks the workload continuously, a few moves at a time.
//!
//! The evolution/revolution baseline of Kapitskaia, Ng and Srivastava
//! \[12\], which updates the stored set on *every* query, is one of the
//! paper's comparison systems and lives in `fbdr-bench`
//! (`fbdr_bench::evolution`), the crate that runs them.
//!
//! The selector acts on the sharded deployment — a
//! [`ShardedMaster`](fbdr_resync::ShardedMaster), of which an unsharded
//! master is the one-shard case, and the
//! [`ShardCoordinator`](fbdr_resync::ShardCoordinator) that syncs the
//! replica against it: candidates are sized with
//! `ShardedMaster::count_matching` (every entry once, at the shard that
//! owns it) and installed with one session per overlapped shard.

pub mod generalize;

mod selector;

pub use selector::{FilterSelector, SelectionReport, SelectorConfig, StepConfig, StepReport};
