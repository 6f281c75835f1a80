#![warn(missing_docs)]
//! In-memory Directory Information Tree (DIT) store for the fbdr workspace.
//!
//! This crate is the *directory server substrate* the replication algorithms
//! run against. It provides:
//!
//! * [`DitStore`] — a hierarchical entry store with attribute indexes,
//!   LDAP-style update operations ([`UpdateOp`]) and indexed search
//!   evaluation for [`SearchRequest`]s.
//! * [`index`] and [`posting`] — the index rulebook (what is indexed, how
//!   a predicate is scanned, how a filter plans) and the sorted id lists
//!   it works on, shared by this store and the replica's snapshot index.
//! * [`ChangeRecord`] / change sequence numbers ([`Csn`]) — an RFC-changelog
//!   style record of one update operation (changed attributes only), which
//!   every `apply` returns and the store does not keep.
//! * [`History`] — a consumer's own changelog and [`Tombstone`] list, fed
//!   from those records: what the changelog- and tombstone-based
//!   synchronization baselines and the subtree replica's feed read.
//! * [`NamingContext`] — the `(suffix, referrals…)` tuple of the LDAP
//!   distributed directory model (§2.3 of the paper).
//!
//! # Example
//!
//! ```
//! use fbdr_dit::DitStore;
//! use fbdr_ldap::{Entry, Filter, Scope, SearchRequest};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let mut dit = DitStore::new();
//! dit.add_suffix("o=xyz".parse()?);
//! dit.add(Entry::new("o=xyz".parse()?).with("objectclass", "organization"))?;
//! dit.add(
//!     Entry::new("cn=John Doe,o=xyz".parse()?)
//!         .with("objectclass", "inetOrgPerson")
//!         .with("serialNumber", "045612"),
//! )?;
//!
//! let q = SearchRequest::new("o=xyz".parse()?, Scope::Subtree, Filter::parse("(serialNumber=0456*)")?);
//! assert_eq!(dit.search(&q).len(), 1);
//! # Ok(())
//! # }
//! ```

mod changelog;
mod context;
mod error;
pub mod index;
pub mod posting;
mod store;
mod update;

pub use changelog::{ChangeKind, ChangeRecord, Csn, History, Tombstone};
pub use context::NamingContext;
pub use error::{DitError, ImportError};
pub use store::DitStore;
pub use update::{diff_entries, Modification, UpdateOp};

pub use fbdr_ldap::{Dn, Entry, Filter, Scope, SearchRequest};
