#![warn(missing_docs)]
//! LDAP query and filter containment (§4 of the paper).
//!
//! A query `Q` is *semantically contained* in `Qs` when every entry `Q` can
//! return is also returned by `Qs`: the base/scope region of `Q` lies inside
//! that of `Qs`, the requested attributes are a subset, and the filter of
//! `Q` is more restrictive. A filter-based replica uses containment to
//! decide whether a stored (replicated) query can answer an incoming one.
//!
//! Three algorithms are provided, from most general to fastest:
//!
//! * [`filter_contained`] — the general decision procedure of
//!   Proposition 1: `F1 ⊆ F2` iff `F1 ∧ ¬F2` is unsatisfiable. The check is
//!   **three-valued** ([`Containment`]): `Unknown` is returned where the
//!   satisfiability reasoning over string domains is approximate, and
//!   callers must treat it as "not contained". The procedure is *sound
//!   under multi-valued attributes*: unsatisfiability of a conjunct only
//!   relies on each existential (positive) literal clashing with the
//!   universal (negated) literals on the same attribute.
//! * [`CrossTemplateMatrix`] — Proposition 2: for a pair of conjunctive
//!   equality/range templates, the containment condition is compiled once
//!   into CNF over value *slots* and then evaluated per query pair in
//!   O(#clauses).
//! * [`same_template_contained`] — Proposition 3: two positive filters of
//!   the same template are compared slot by slot in O(n).
//!
//! [`ContainmentEngine`] dispatches between the three (and keeps the
//! statistics reported in the paper's §7.4), and [`query_contained`]
//! implements the full `QC(Q, Qs)` algorithm including base/scope/attribute
//! checks.
//!
//! The engine checks [`PreparedQuery`]s: a request beside its template and
//! assertion values. Preparing is a lookup — templates are interned
//! process-wide ([`fbdr_ldap::Template`]) — and the request is kept
//! ([`PreparedQuery::new`], for a stored filter) or only borrowed for the
//! length of an answer ([`PreparedQuery::borrowed`], which copies
//! nothing). "Same template" is a pointer compare, and the
//! [`CrossTemplateMatrix`] is keyed by the two templates' table indexes.
//!
//! # Example
//!
//! ```
//! use fbdr_containment::{filter_contained, Containment};
//! use fbdr_ldap::Filter;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let narrow = Filter::parse("(&(objectclass=inetOrgPerson)(departmentNumber=2406))")?;
//! let wide = Filter::parse("(&(objectclass=inetOrgPerson)(departmentNumber=240*))")?;
//! assert_eq!(filter_contained(&narrow, &wide), Containment::Yes);
//! assert_eq!(filter_contained(&wide, &narrow), Containment::No);
//! # Ok(())
//! # }
//! ```

mod cross_template;
mod engine;
mod general;
mod nnf;
mod qc;
mod same_template;
mod sat;

pub use cross_template::{CompiledCondition, CrossTemplateMatrix};
pub use engine::{ContainmentEngine, EngineStats, PreparedQuery};
pub use general::filter_contained;
pub use qc::{query_contained, region_contained};
pub use same_template::same_template_contained;

use serde::{Deserialize, Serialize};

/// Result of a containment check.
///
/// `Unknown` arises where satisfiability over unconstrained string domains
/// is approximated; callers answering queries from a cache must treat it as
/// [`Containment::No`] to stay sound.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Containment {
    /// Definitely contained: every entry matching the first filter matches
    /// the second.
    Yes,
    /// Definitely not contained: a witness entry exists.
    No,
    /// The decision procedure could not decide; treat as `No` for cache
    /// answering.
    Unknown,
}

impl Containment {
    /// Collapses to a boolean, treating `Unknown` as not contained.
    pub fn is_contained(self) -> bool {
        self == Containment::Yes
    }
}
