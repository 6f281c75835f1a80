#![warn(missing_docs)]
//! LDAP data-model substrate for the *filter based directory replication*
//! (fbdr) workspace.
//!
//! This crate implements the parts of the LDAP v3 information, naming and
//! functional models (RFC 2251/2252/2254) that the replication algorithms of
//! the paper depend on:
//!
//! * [`Dn`] / [`Rdn`] — the hierarchical naming model, with the ancestor
//!   (`isSuffix`) and parent relations used by the containment algorithms.
//! * [`AttrName`] / [`AttrValue`] — attribute names (case-insensitive) and
//!   values with LDAP `caseIgnoreMatch`-style normalization plus a typed
//!   integer view used for exact range reasoning.
//! * [`Entry`] / [`ValueSet`] — a set of attribute/value pairs named by a
//!   DN: a copy-on-write handle on one sorted slice of attributes, each
//!   one inline value or one sorted list, names shared process-wide
//!   ([`ATTR_NAME_TABLE_CAP`]).
//! * [`Filter`] — the RFC 2254 search-filter AST with a parser
//!   ([`Filter::parse`]) and canonical printer, and direct evaluation
//!   against entries ([`Filter::matches`]).
//! * [`Template`] — LDAP templates (query prototypes, §3.4.2 of the paper):
//!   a filter with every assertion value replaced by `_`. A template is
//!   built once per process and handed out as a shared handle from one
//!   capped table ([`TEMPLATE_TABLE_CAP`]); extracting a known shape is a
//!   lookup, and two templates are compared by identity.
//! * [`SearchRequest`] / [`Scope`] — the query quadruple *(base, scope,
//!   filter, attributes)*.
//!
//! # Example
//!
//! ```
//! use fbdr_ldap::{Dn, Entry, Filter, Scope, SearchRequest};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let dn: Dn = "cn=John Doe,ou=research,c=us,o=xyz".parse()?;
//! let mut entry = Entry::new(dn);
//! entry.add_str("objectclass", "inetOrgPerson");
//! entry.add_str("cn", "John Doe");
//! entry.add_str("serialNumber", "045612");
//!
//! let filter = Filter::parse("(&(objectclass=inetOrgPerson)(serialNumber=0456*))")?;
//! assert!(filter.matches(&entry));
//!
//! let query = SearchRequest::new("o=xyz".parse()?, Scope::Subtree, filter);
//! assert!(query.matches(&entry));
//! # Ok(())
//! # }
//! ```

pub mod ldif;

mod attr;
mod sort;
mod dn;
mod entry;
mod error;
mod filter;
mod search;
mod template;
mod value;

pub use attr::{AttrName, ATTR_NAME_TABLE_CAP};
pub use dn::{Dn, Rdn};
pub use entry::Entry;
pub use error::{FilterParseError, NameParseError};
pub use filter::{Comparison, Filter, Predicate, SubstringPattern};
pub use search::{AttrSelection, Scope, SearchRequest};
pub use sort::{sort_entries, SortKey};
pub use template::{SlotKey, Template, TemplateId, TemplateTableStats, TEMPLATE_TABLE_CAP};
pub use value::{AttrValue, ValueSet};
