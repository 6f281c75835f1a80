//! Search requests: the query quadruple *(base, scope, filter, attributes)*.

use crate::{AttrName, Dn, Entry, Filter};
use serde::{Deserialize, Serialize};
use std::collections::BTreeSet;
use std::fmt;

/// How deep below the base a search extends.
///
/// The numeric order (`Base` < `OneLevel` < `Subtree`) follows the paper's
/// convention `BASE=0, SINGLE LEVEL=1, SUBTREE=2` and is used directly by
/// the containment algorithm.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub enum Scope {
    /// Only the base entry itself.
    Base = 0,
    /// Immediate children of the base (not the base itself).
    OneLevel = 1,
    /// The base entry and its whole subtree.
    Subtree = 2,
}

impl Scope {
    /// True if an entry named `dn` falls in the region defined by `base`
    /// and this scope.
    pub fn contains(self, base: &Dn, dn: &Dn) -> bool {
        match self {
            Scope::Base => base == dn,
            Scope::OneLevel => base.is_parent_of(dn),
            Scope::Subtree => base.is_ancestor_or_self_of(dn),
        }
    }
}

impl fmt::Display for Scope {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Scope::Base => "base",
            Scope::OneLevel => "one",
            Scope::Subtree => "sub",
        })
    }
}

/// Which attributes a search requests.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize, Default)]
pub enum AttrSelection {
    /// `*` — all user attributes.
    #[default]
    All,
    /// An explicit list.
    List(BTreeSet<AttrName>),
}

impl AttrSelection {
    /// Creates an explicit list selection.
    pub fn list<I, A>(attrs: I) -> Self
    where
        I: IntoIterator<Item = A>,
        A: Into<AttrName>,
    {
        AttrSelection::List(attrs.into_iter().map(Into::into).collect())
    }

    /// True when `self` requests a subset of what `other` requests
    /// (condition (ii) of semantic query containment).
    pub fn is_subset_of(&self, other: &AttrSelection) -> bool {
        match (self, other) {
            (_, AttrSelection::All) => true,
            (AttrSelection::All, AttrSelection::List(_)) => false,
            (AttrSelection::List(a), AttrSelection::List(b)) => a.is_subset(b),
        }
    }

    /// Projects an entry onto this selection.
    pub fn project(&self, entry: &Entry) -> Entry {
        match self {
            AttrSelection::All => entry.clone(),
            AttrSelection::List(attrs) => entry.project(attrs.iter()),
        }
    }
}

/// An LDAP search operation (a *query*): base, scope, filter and requested
/// attributes.
///
/// ```
/// use fbdr_ldap::{Filter, Scope, SearchRequest};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let q = SearchRequest::new(
///     "o=xyz".parse()?,
///     Scope::Subtree,
///     Filter::parse("(serialNumber=0456*)")?,
/// );
/// assert_eq!(q.to_string(), "base=\"o=xyz\" scope=sub filter=(serialNumber=0456*) attrs=*");
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct SearchRequest {
    base: Dn,
    scope: Scope,
    filter: Filter,
    attrs: AttrSelection,
}

impl SearchRequest {
    /// Creates a search over all user attributes.
    pub fn new(base: Dn, scope: Scope, filter: Filter) -> Self {
        SearchRequest { base, scope, filter, attrs: AttrSelection::All }
    }

    /// Creates a search requesting specific attributes.
    pub fn with_attrs(base: Dn, scope: Scope, filter: Filter, attrs: AttrSelection) -> Self {
        SearchRequest { base, scope, filter, attrs }
    }

    /// A whole-DIT subtree search from the root — the shape produced by
    /// *minimally directory enabled* applications (§3.1.1).
    pub fn from_root(filter: Filter) -> Self {
        SearchRequest::new(Dn::root(), Scope::Subtree, filter)
    }

    /// The search base.
    pub fn base(&self) -> &Dn {
        &self.base
    }

    /// The search scope.
    pub fn scope(&self) -> Scope {
        self.scope
    }

    /// The search filter.
    pub fn filter(&self) -> &Filter {
        &self.filter
    }

    /// The requested attributes.
    pub fn attrs(&self) -> &AttrSelection {
        &self.attrs
    }

    /// True if `entry` is in the base/scope region and satisfies the filter.
    pub fn matches(&self, entry: &Entry) -> bool {
        self.scope.contains(&self.base, entry.dn()) && self.filter.matches(entry)
    }

    /// Estimated wire size of the request in bytes (for the cost model).
    pub fn estimated_size(&self) -> usize {
        self.base.display_len() + self.filter.to_string().len() + 16
    }
}

impl fmt::Display for SearchRequest {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "base=\"{}\" scope={} filter={} attrs=", self.base, self.scope, self.filter)?;
        match &self.attrs {
            AttrSelection::All => f.write_str("*"),
            AttrSelection::List(l) => {
                let names: Vec<&str> = l.iter().map(AttrName::as_str).collect();
                f.write_str(&names.join(","))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dn(s: &str) -> Dn {
        s.parse().unwrap()
    }

    fn person() -> Entry {
        Entry::new(dn("cn=John,ou=research,c=us,o=xyz"))
            .with("objectclass", "person")
            .with("cn", "John")
    }

    #[test]
    fn scope_base() {
        let b = dn("cn=John,ou=research,c=us,o=xyz");
        assert!(Scope::Base.contains(&b, &b));
        assert!(!Scope::Base.contains(&dn("o=xyz"), &b));
    }

    #[test]
    fn scope_one_level() {
        let base = dn("ou=research,c=us,o=xyz");
        assert!(Scope::OneLevel.contains(&base, &dn("cn=John,ou=research,c=us,o=xyz")));
        assert!(!Scope::OneLevel.contains(&base, &base));
        assert!(!Scope::OneLevel.contains(&base, &dn("cn=a,cn=John,ou=research,c=us,o=xyz")));
    }

    #[test]
    fn scope_subtree_includes_base() {
        let base = dn("c=us,o=xyz");
        assert!(Scope::Subtree.contains(&base, &base));
        assert!(Scope::Subtree.contains(&base, &dn("cn=x,ou=y,c=us,o=xyz")));
        assert!(!Scope::Subtree.contains(&base, &dn("c=in,o=xyz")));
    }

    #[test]
    fn scope_ordering_matches_paper() {
        assert!(Scope::Base < Scope::OneLevel);
        assert!(Scope::OneLevel < Scope::Subtree);
    }

    #[test]
    fn attr_selection_subset() {
        let all = AttrSelection::All;
        let cn_mail = AttrSelection::list(["cn", "mail"]);
        let cn = AttrSelection::list(["cn"]);
        assert!(cn.is_subset_of(&cn_mail));
        assert!(cn.is_subset_of(&all));
        assert!(cn_mail.is_subset_of(&all));
        assert!(!cn_mail.is_subset_of(&cn));
        assert!(!all.is_subset_of(&cn));
        assert!(all.is_subset_of(&all));
    }

    #[test]
    fn request_matching() {
        let q = SearchRequest::new(dn("o=xyz"), Scope::Subtree, Filter::parse("(cn=John)").unwrap());
        assert!(q.matches(&person()));
        let q2 = SearchRequest::new(dn("c=in,o=xyz"), Scope::Subtree, Filter::parse("(cn=John)").unwrap());
        assert!(!q2.matches(&person()));
    }

    #[test]
    fn root_based_query_matches_everything_in_dit() {
        let q = SearchRequest::from_root(Filter::parse("(objectclass=*)").unwrap());
        assert!(q.matches(&person()));
        assert!(q.base().is_root());
    }

    #[test]
    fn projection_through_selection() {
        let e = person().with("mail", "j@x.com");
        let sel = AttrSelection::list(["mail"]);
        let p = sel.project(&e);
        assert!(p.has_attr(&"mail".into()));
        assert!(!p.has_attr(&"cn".into()));
    }
}
