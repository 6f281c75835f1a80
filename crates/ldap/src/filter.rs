//! RFC 2254 search filters: AST, parser, printer and evaluation.
//!
//! The grammar implemented is the subset the paper works with:
//!
//! ```text
//! filter     = "(" ( and / or / not / item ) ")"
//! and        = "&" filterlist
//! or         = "|" filterlist
//! not        = "!" filter
//! item       = attr "=" "*"                    ; presence
//!            / attr "=" value                  ; equality
//!            / attr ">=" value                 ; greater-or-equal
//!            / attr "<=" value                 ; less-or-equal
//!            / attr "=" [initial] *("*" any) "*" [final]   ; substrings
//! ```
//!
//! Values may escape `( ) * \` with `\XX` hex pairs or `\c` single-character
//! escapes. Printing produces a canonical form that re-parses to an equal
//! filter.

use crate::{AttrName, AttrValue, Entry, FilterParseError};
use serde::{Deserialize, Serialize};
use std::borrow::Cow;
use std::fmt;
use std::str::FromStr;

/// A substring assertion pattern, e.g. `smi*th*` in `(sn=smi*th*)`.
///
/// `initial` matches at the start, each element of `any` in order in the
/// middle, and `final_part` at the end. Matching is performed on normalized
/// value text.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct SubstringPattern {
    initial: Option<String>,
    any: Vec<String>,
    final_part: Option<String>,
}

impl SubstringPattern {
    /// Creates a pattern. At least one component must be non-empty and the
    /// pattern must not degenerate into a plain equality (that would be an
    /// equality assertion, not a substring one).
    pub fn new(initial: Option<String>, any: Vec<String>, final_part: Option<String>) -> Self {
        SubstringPattern {
            initial: initial.map(|s| normalize_component(&s)),
            any: any.iter().map(|s| normalize_component(s)).collect(),
            final_part: final_part.map(|s| normalize_component(&s)),
        }
    }

    /// A prefix pattern `prefix*`, the common generalized-filter shape
    /// (e.g. `(serialNumber=0456*)`).
    pub fn prefix(p: impl Into<String>) -> Self {
        SubstringPattern::new(Some(p.into()), Vec::new(), None)
    }

    /// The `initial` component, if any.
    pub fn initial(&self) -> Option<&str> {
        self.initial.as_deref()
    }

    /// The `any` (middle) components.
    pub fn any(&self) -> &[String] {
        &self.any
    }

    /// The `final` component, if any.
    pub fn final_part(&self) -> Option<&str> {
        self.final_part.as_deref()
    }

    /// True when the pattern is exactly `prefix*`.
    pub fn is_prefix_only(&self) -> bool {
        self.initial.is_some() && self.any.is_empty() && self.final_part.is_none()
    }

    /// All text components in order (initial, any…, final).
    pub fn components(&self) -> impl Iterator<Item = &str> {
        self.initial
            .as_deref()
            .into_iter()
            .chain(self.any.iter().map(|s| s.as_str()))
            .chain(self.final_part.as_deref())
    }

    /// Evaluates the pattern against a normalized string.
    pub fn matches_str(&self, norm: &str) -> bool {
        let mut rest = norm;
        if let Some(init) = &self.initial {
            match rest.strip_prefix(init.as_str()) {
                Some(r) => rest = r,
                None => return false,
            }
        }
        // Reserve the final component from the tail.
        let tail_len = self.final_part.as_ref().map_or(0, |f| f.len());
        // A tail that starts inside a character cannot equal `final`.
        if rest.len() < tail_len || !rest.is_char_boundary(rest.len() - tail_len) {
            return false;
        }
        let (mut middle, tail) = rest.split_at(rest.len() - tail_len);
        if let Some(fin) = &self.final_part {
            if tail != fin {
                return false;
            }
        }
        for a in &self.any {
            match middle.find(a.as_str()) {
                Some(pos) => middle = &middle[pos + a.len()..],
                None => return false,
            }
        }
        true
    }

    /// Evaluates the pattern against an attribute value.
    pub fn matches(&self, value: &AttrValue) -> bool {
        self.matches_str(value.normalized())
    }
}

fn normalize_component(s: &str) -> String {
    AttrValue::new(s).normalized().to_owned()
}

impl fmt::Display for SubstringPattern {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if let Some(init) = &self.initial {
            f.write_str(&escape_value(init))?;
        }
        f.write_str("*")?;
        for a in &self.any {
            f.write_str(&escape_value(a))?;
            f.write_str("*")?;
        }
        if let Some(fin) = &self.final_part {
            f.write_str(&escape_value(fin))?;
        }
        Ok(())
    }
}

/// The comparison part of a predicate.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub enum Comparison {
    /// `(attr=value)` — equality.
    Eq(AttrValue),
    /// `(attr>=value)` — greater-or-equal.
    Ge(AttrValue),
    /// `(attr<=value)` — less-or-equal.
    Le(AttrValue),
    /// `(attr=*)` — presence.
    Present,
    /// `(attr=init*any*fin)` — substrings.
    Substring(SubstringPattern),
}

impl Comparison {
    /// Evaluates the comparison against a single value.
    ///
    /// Range comparisons are *typed by the assertion value*: when the
    /// assertion parses as an integer, only integer values match (compared
    /// numerically, like LDAP's `integerOrderingMatch`); otherwise values
    /// compare lexicographically on their normalized text
    /// (`caseIgnoreOrderingMatch`). Equality uses normalized text equality.
    pub fn matches_value(&self, v: &AttrValue) -> bool {
        match self {
            Comparison::Eq(x) => v == x,
            Comparison::Ge(x) => v.range_cmp(x).is_some_and(|o| o != std::cmp::Ordering::Less),
            Comparison::Le(x) => v.range_cmp(x).is_some_and(|o| o != std::cmp::Ordering::Greater),
            Comparison::Present => true,
            Comparison::Substring(p) => p.matches(v),
        }
    }

    /// The assertion value of an equality or range comparison, `None` for
    /// presence and substring assertions (whose "value" is a pattern, not
    /// a point).
    ///
    /// This is the plan-support accessor index planners use to dispatch on
    /// the bound's type (integer vs. text) without matching every variant.
    ///
    /// ```
    /// use fbdr_ldap::Filter;
    ///
    /// # fn main() -> Result<(), Box<dyn std::error::Error>> {
    /// let f = Filter::parse("(serialNumber>=500)")?;
    /// let p = f.as_predicate().expect("single predicate");
    /// assert_eq!(p.comparison().assertion().and_then(|v| v.as_int()), Some(500));
    /// # Ok(())
    /// # }
    /// ```
    pub fn assertion(&self) -> Option<&AttrValue> {
        match self {
            Comparison::Eq(v) | Comparison::Ge(v) | Comparison::Le(v) => Some(v),
            Comparison::Present | Comparison::Substring(_) => None,
        }
    }

    /// The normalized text of one value that satisfies the comparison —
    /// the assertion value itself for `=`, `>=` and `<=`, the components
    /// in order for a substring pattern — or `None` for presence, which
    /// every value satisfies. An entry holding, for each predicate of a
    /// conjunction, this value under the predicate's attribute matches the
    /// conjunction (attributes are multi-valued): its *witness*, which an
    /// interest index looks up to find the filters that can contain it.
    /// Borrowed except for a pattern of several components.
    ///
    /// ```
    /// use fbdr_ldap::Filter;
    ///
    /// # fn main() -> Result<(), Box<dyn std::error::Error>> {
    /// let f = Filter::parse("(sn=Smi*th)")?;
    /// let p = f.as_predicate().expect("single predicate");
    /// assert_eq!(p.comparison().witness().as_deref(), Some("smith"));
    /// # Ok(())
    /// # }
    /// ```
    pub fn witness(&self) -> Option<Cow<'_, str>> {
        match self {
            Comparison::Eq(v) | Comparison::Ge(v) | Comparison::Le(v) => {
                Some(Cow::Borrowed(v.normalized()))
            }
            Comparison::Present => None,
            Comparison::Substring(p) => {
                let mut parts = p.components();
                Some(match (parts.next(), parts.next()) {
                    (only, None) => Cow::Borrowed(only.unwrap_or("")),
                    _ => Cow::Owned(p.components().collect()),
                })
            }
        }
    }

    /// Short kind label used by templates (`=`, `>=`, `<=`, `=*`, substring
    /// star-shape). Two comparisons of the same kind differ only in
    /// assertion values. The four fixed labels are static; only a star
    /// shape is built.
    pub fn kind(&self) -> Cow<'static, str> {
        Cow::Borrowed(match self {
            Comparison::Eq(_) => "=",
            Comparison::Ge(_) => ">=",
            Comparison::Le(_) => "<=",
            Comparison::Present => "=*",
            Comparison::Substring(p) => {
                // Encode the star shape, e.g. `_*` or `_*_` or `*_*`.
                let mut s = String::new();
                if p.initial().is_some() {
                    s.push('_');
                }
                s.push('*');
                for _ in p.any() {
                    s.push('_');
                    s.push('*');
                }
                if p.final_part().is_some() {
                    s.push('_');
                }
                return Cow::Owned(s);
            }
        })
    }
}

/// A simple predicate `(name operator value)`.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct Predicate {
    attr: AttrName,
    cmp: Comparison,
}

impl Predicate {
    /// Creates a predicate from an attribute and comparison.
    pub fn new(attr: impl Into<AttrName>, cmp: Comparison) -> Self {
        Predicate { attr: attr.into(), cmp }
    }

    /// Equality predicate `(attr=value)`.
    pub fn eq(attr: impl Into<AttrName>, value: impl Into<AttrValue>) -> Self {
        Predicate::new(attr, Comparison::Eq(value.into()))
    }

    /// Range predicate `(attr>=value)`.
    pub fn ge(attr: impl Into<AttrName>, value: impl Into<AttrValue>) -> Self {
        Predicate::new(attr, Comparison::Ge(value.into()))
    }

    /// Range predicate `(attr<=value)`.
    pub fn le(attr: impl Into<AttrName>, value: impl Into<AttrValue>) -> Self {
        Predicate::new(attr, Comparison::Le(value.into()))
    }

    /// Presence predicate `(attr=*)`.
    pub fn present(attr: impl Into<AttrName>) -> Self {
        Predicate::new(attr, Comparison::Present)
    }

    /// Substring predicate.
    pub fn substring(attr: impl Into<AttrName>, pattern: SubstringPattern) -> Self {
        Predicate::new(attr, Comparison::Substring(pattern))
    }

    /// The attribute the predicate constrains.
    pub fn attr(&self) -> &AttrName {
        &self.attr
    }

    /// The comparison.
    pub fn comparison(&self) -> &Comparison {
        &self.cmp
    }

    /// Evaluates against a single value (see [`Comparison::matches_value`]
    /// for the typed range semantics).
    pub fn matches_value(&self, v: &AttrValue) -> bool {
        self.cmp.matches_value(v)
    }

    /// Evaluates against an entry: true if any value of the attribute
    /// satisfies the comparison.
    pub fn matches(&self, entry: &Entry) -> bool {
        entry.values(&self.attr).any(|v| self.matches_value(v))
    }
}

impl fmt::Display for Predicate {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match &self.cmp {
            Comparison::Eq(v) => write!(f, "({}={})", self.attr, escape_value(v.raw())),
            Comparison::Ge(v) => write!(f, "({}>={})", self.attr, escape_value(v.raw())),
            Comparison::Le(v) => write!(f, "({}<={})", self.attr, escape_value(v.raw())),
            Comparison::Present => write!(f, "({}=*)", self.attr),
            Comparison::Substring(p) => write!(f, "({}={})", self.attr, p),
        }
    }
}

/// An RFC 2254 search filter.
///
/// ```
/// use fbdr_ldap::Filter;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let f = Filter::parse("(&(objectclass=inetOrgPerson)(departmentNumber=240*))")?;
/// assert!(f.is_positive());
/// assert_eq!(f.to_string(), "(&(objectclass=inetOrgPerson)(departmentNumber=240*))");
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub enum Filter {
    /// Conjunction `(&f1f2…)`.
    And(Vec<Filter>),
    /// Disjunction `(|f1f2…)`.
    Or(Vec<Filter>),
    /// Negation `(!f)`.
    Not(Box<Filter>),
    /// A simple predicate.
    Pred(Predicate),
}

impl Filter {
    /// Parses the RFC 2254 string form.
    ///
    /// # Errors
    ///
    /// Returns [`FilterParseError`] with the offending byte position when
    /// the input is not a well-formed filter.
    pub fn parse(s: &str) -> Result<Filter, FilterParseError> {
        let bytes = s.as_bytes();
        let mut p = Parser { bytes, pos: 0 };
        p.skip_ws();
        let f = p.filter()?;
        p.skip_ws();
        if p.pos != bytes.len() {
            return Err(FilterParseError::new(p.pos, "trailing input after filter"));
        }
        Ok(f)
    }

    /// The filter `(objectclass=*)` which matches every entry.
    pub fn match_all() -> Filter {
        Filter::Pred(Predicate::present("objectclass"))
    }

    /// Convenience constructor for a single predicate filter.
    pub fn pred(p: Predicate) -> Filter {
        Filter::Pred(p)
    }

    /// Conjunction of filters. A single element collapses to itself.
    pub fn and(fs: Vec<Filter>) -> Filter {
        if fs.len() == 1 {
            fs.into_iter().next().expect("len checked")
        } else {
            Filter::And(fs)
        }
    }

    /// Disjunction of filters. A single element collapses to itself.
    pub fn or(fs: Vec<Filter>) -> Filter {
        if fs.len() == 1 {
            fs.into_iter().next().expect("len checked")
        } else {
            Filter::Or(fs)
        }
    }

    /// Negation.
    #[allow(clippy::should_implement_trait)]
    pub fn not(f: Filter) -> Filter {
        Filter::Not(Box::new(f))
    }

    /// Evaluates the filter against an entry.
    ///
    /// Absent attributes make predicates false (two-valued semantics; the
    /// paper does not use LDAP's `Undefined`).
    pub fn matches(&self, entry: &Entry) -> bool {
        match self {
            Filter::And(fs) => fs.iter().all(|f| f.matches(entry)),
            Filter::Or(fs) => fs.iter().any(|f| f.matches(entry)),
            Filter::Not(f) => !f.matches(entry),
            Filter::Pred(p) => p.matches(entry),
        }
    }

    /// True when the filter contains no NOT operator (a *positive filter*,
    /// the class Propositions 2 and 3 of the paper apply to).
    pub fn is_positive(&self) -> bool {
        match self {
            Filter::And(fs) | Filter::Or(fs) => fs.iter().all(Filter::is_positive),
            Filter::Not(_) => false,
            Filter::Pred(_) => true,
        }
    }

    /// Visits every predicate in the filter, left to right.
    pub fn for_each_predicate<'a>(&'a self, f: &mut impl FnMut(&'a Predicate)) {
        match self {
            Filter::And(fs) | Filter::Or(fs) => {
                for sub in fs {
                    sub.for_each_predicate(f);
                }
            }
            Filter::Not(sub) => sub.for_each_predicate(f),
            Filter::Pred(p) => f(p),
        }
    }

    /// Visits the predicates of a **positive conjunctive** filter — a
    /// predicate or nested `And`s of predicates — left to right, and
    /// returns true; returns false (after visiting some prefix) as soon as
    /// an `Or` or a `Not` is met.
    pub fn for_each_conjunct<'a>(&'a self, f: &mut impl FnMut(&'a Predicate)) -> bool {
        match self {
            Filter::And(fs) => fs.iter().all(|sub| sub.for_each_conjunct(f)),
            Filter::Or(_) | Filter::Not(_) => false,
            Filter::Pred(p) => {
                f(p);
                true
            }
        }
    }

    /// Collects all predicates, left to right.
    pub fn predicates(&self) -> Vec<&Predicate> {
        let mut out = Vec::new();
        self.for_each_predicate(&mut |p| out.push(p));
        out
    }

    /// Structurally simplifies the filter without changing its semantics:
    ///
    /// * nested `And`/`Or` of the same kind are flattened
    ///   (`(&(a=1)(&(b=2)(c=3)))` → `(&(a=1)(b=2)(c=3))`),
    /// * duplicate children of an `And`/`Or` are removed,
    /// * single-child `And`/`Or` collapse to the child,
    /// * double negation cancels.
    ///
    /// Useful for canonicalizing application-generated filters before
    /// template extraction, so trivially different spellings share a
    /// template.
    ///
    /// ```
    /// use fbdr_ldap::Filter;
    ///
    /// # fn main() -> Result<(), Box<dyn std::error::Error>> {
    /// let f = Filter::parse("(&(a=1)(&(b=2)(a=1)))")?;
    /// assert_eq!(f.simplify().to_string(), "(&(a=1)(b=2))");
    /// let g = Filter::parse("(!(!(a=1)))")?;
    /// assert_eq!(g.simplify().to_string(), "(a=1)");
    /// # Ok(())
    /// # }
    /// ```
    pub fn simplify(&self) -> Filter {
        match self {
            Filter::And(fs) => rebuild(fs, true),
            Filter::Or(fs) => rebuild(fs, false),
            Filter::Not(inner) => match inner.simplify() {
                Filter::Not(f) => *f,
                other => Filter::Not(Box::new(other)),
            },
            Filter::Pred(p) => Filter::Pred(p.clone()),
        }
    }

    /// The sub-filters of a conjunction or disjunction; the empty slice
    /// for predicates and negations. Together with
    /// [`as_predicate`](Filter::as_predicate) and
    /// [`negated`](Filter::negated) this lets index planners walk the AST
    /// by shape.
    ///
    /// ```
    /// use fbdr_ldap::Filter;
    ///
    /// # fn main() -> Result<(), Box<dyn std::error::Error>> {
    /// let f = Filter::parse("(&(a=1)(b=2))")?;
    /// assert_eq!(f.children().len(), 2);
    /// assert!(Filter::parse("(a=1)")?.children().is_empty());
    /// # Ok(())
    /// # }
    /// ```
    pub fn children(&self) -> &[Filter] {
        match self {
            Filter::And(fs) | Filter::Or(fs) => fs,
            Filter::Not(_) | Filter::Pred(_) => &[],
        }
    }

    /// The predicate of a simple-predicate filter, `None` for composite
    /// nodes.
    pub fn as_predicate(&self) -> Option<&Predicate> {
        match self {
            Filter::Pred(p) => Some(p),
            _ => None,
        }
    }

    /// The inner filter of a negation, `None` for every other node.
    pub fn negated(&self) -> Option<&Filter> {
        match self {
            Filter::Not(f) => Some(f),
            _ => None,
        }
    }

    /// Names of all attributes mentioned by the filter.
    pub fn attr_names(&self) -> Vec<&AttrName> {
        let mut out = Vec::new();
        self.for_each_predicate(&mut |p| {
            if !out.contains(&p.attr()) {
                out.push(p.attr());
            }
        });
        out
    }
}

impl FromStr for Filter {
    type Err = FilterParseError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        Filter::parse(s)
    }
}

impl fmt::Display for Filter {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Filter::And(fs) => {
                f.write_str("(&")?;
                for sub in fs {
                    write!(f, "{sub}")?;
                }
                f.write_str(")")
            }
            Filter::Or(fs) => {
                f.write_str("(|")?;
                for sub in fs {
                    write!(f, "{sub}")?;
                }
                f.write_str(")")
            }
            Filter::Not(sub) => write!(f, "(!{sub})"),
            Filter::Pred(p) => write!(f, "{p}"),
        }
    }
}

/// Simplifies the children of an `And` (`conjunctive = true`) or `Or`:
/// flatten same-kind nesting, drop duplicates, collapse singletons.
fn rebuild(children: &[Filter], conjunctive: bool) -> Filter {
    let mut out: Vec<Filter> = Vec::with_capacity(children.len());
    for c in children {
        let s = c.simplify();
        let nested = match (&s, conjunctive) {
            (Filter::And(inner), true) | (Filter::Or(inner), false) => Some(inner.clone()),
            _ => None,
        };
        match nested {
            Some(inner) => {
                for f in inner {
                    if !out.contains(&f) {
                        out.push(f);
                    }
                }
            }
            None => {
                if !out.contains(&s) {
                    out.push(s);
                }
            }
        }
    }
    if out.len() == 1 {
        out.into_iter().next().expect("len checked")
    } else if conjunctive {
        Filter::And(out)
    } else {
        Filter::Or(out)
    }
}

/// Escapes `( ) * \` in a value for RFC 2254 printing.
fn escape_value(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '(' => out.push_str("\\28"),
            ')' => out.push_str("\\29"),
            '*' => out.push_str("\\2a"),
            '\\' => out.push_str("\\5c"),
            _ => out.push(c),
        }
    }
    out
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn err<T>(&self, msg: impl Into<String>) -> Result<T, FilterParseError> {
        Err(FilterParseError::new(self.pos, msg))
    }

    fn skip_ws(&mut self) {
        while self.pos < self.bytes.len() && self.bytes[self.pos].is_ascii_whitespace() {
            self.pos += 1;
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn expect(&mut self, b: u8) -> Result<(), FilterParseError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            self.err(format!("expected {:?}", b as char))
        }
    }

    fn filter(&mut self) -> Result<Filter, FilterParseError> {
        self.expect(b'(')?;
        let f = match self.peek() {
            Some(b'&') => {
                self.pos += 1;
                Filter::And(self.filter_list()?)
            }
            Some(b'|') => {
                self.pos += 1;
                Filter::Or(self.filter_list()?)
            }
            Some(b'!') => {
                self.pos += 1;
                Filter::Not(Box::new(self.filter()?))
            }
            Some(_) => Filter::Pred(self.item()?),
            None => return self.err("unexpected end of input"),
        };
        self.expect(b')')?;
        Ok(f)
    }

    fn filter_list(&mut self) -> Result<Vec<Filter>, FilterParseError> {
        let mut fs = Vec::new();
        while self.peek() == Some(b'(') {
            fs.push(self.filter()?);
        }
        if fs.is_empty() {
            return self.err("empty filter list");
        }
        Ok(fs)
    }

    fn item(&mut self) -> Result<Predicate, FilterParseError> {
        let attr = self.attr_name()?;
        match self.peek() {
            Some(b'=') => {
                self.pos += 1;
                self.equality_tail(attr)
            }
            Some(b'>') => {
                self.pos += 1;
                self.expect(b'=')?;
                let v = self.value_text()?;
                if v.parts.len() != 1 || v.trailing_star {
                    return self.err("'*' not allowed in range assertion");
                }
                Ok(Predicate::ge(attr, v.parts.into_iter().next().expect("len checked")))
            }
            Some(b'<') => {
                self.pos += 1;
                self.expect(b'=')?;
                let v = self.value_text()?;
                if v.parts.len() != 1 || v.trailing_star {
                    return self.err("'*' not allowed in range assertion");
                }
                Ok(Predicate::le(attr, v.parts.into_iter().next().expect("len checked")))
            }
            _ => self.err("expected '=', '>=' or '<='"),
        }
    }

    /// After `attr=`: presence, equality or substring.
    fn equality_tail(&mut self, attr: AttrName) -> Result<Predicate, FilterParseError> {
        let v = self.value_text()?;
        let star_count = v.parts.len() - 1 + usize::from(v.trailing_star && v.parts.last().is_some_and(|p| p.is_empty()));
        let _ = star_count;
        // v.parts are the text runs between stars; empty strings mark
        // adjacent stars / leading / trailing positions.
        let parts = v.parts;
        if parts.len() == 1 && !v.stars {
            let only = parts.into_iter().next().expect("len checked");
            if only.is_empty() {
                return self.err("empty assertion value");
            }
            return Ok(Predicate::eq(attr, only));
        }
        // Substring / presence: parts = [initial, any..., final] where empty
        // initial/final mean "absent".
        let mut it = parts.into_iter();
        let first = it.next().expect("at least one part");
        let mut rest: Vec<String> = it.collect();
        let last = rest.pop().expect("substring has >= 2 parts");
        if rest.iter().any(|s| s.is_empty()) {
            return self.err("empty 'any' component in substring (adjacent '*')");
        }
        // A component that normalizes to nothing (`(a= *)`, `(a=x* *y)`)
        // constrains nothing and would print as nothing: drop it, so the
        // printed form re-parses to this filter.
        let norm = |s: &String| Some(normalize_component(s)).filter(|n| !n.is_empty());
        let pattern = SubstringPattern {
            initial: norm(&first),
            any: rest.iter().filter_map(norm).collect(),
            final_part: norm(&last),
        };
        if pattern.components().next().is_none() {
            return Ok(Predicate::present(attr));
        }
        Ok(Predicate::substring(attr, pattern))
    }

    fn attr_name(&mut self) -> Result<AttrName, FilterParseError> {
        let start = self.pos;
        while let Some(b) = self.peek() {
            if b.is_ascii_alphanumeric() || b == b'-' || b == b'.' || b == b';' {
                self.pos += 1;
            } else {
                break;
            }
        }
        if self.pos == start {
            return self.err("expected attribute name");
        }
        let s = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| FilterParseError::new(start, "attribute name is not UTF-8"))?;
        Ok(AttrName::new(s))
    }

    /// Reads value text up to `)`, splitting on unescaped `*`.
    fn value_text(&mut self) -> Result<ValueText, FilterParseError> {
        let mut parts = vec![String::new()];
        let mut stars = false;
        loop {
            match self.peek() {
                None => return self.err("unexpected end of input in value"),
                Some(b')') => break,
                Some(b'*') => {
                    self.pos += 1;
                    stars = true;
                    parts.push(String::new());
                }
                Some(b'\\') => {
                    self.pos += 1;
                    let c = self.escape()?;
                    parts.last_mut().expect("non-empty").push(c);
                }
                Some(b'(') => return self.err("unescaped '(' in value"),
                Some(_) => {
                    // Consume one UTF-8 character.
                    let s = std::str::from_utf8(&self.bytes[self.pos..])
                        .map_err(|_| FilterParseError::new(self.pos, "value is not UTF-8"))?;
                    let c = s.chars().next().expect("non-empty by peek");
                    parts.last_mut().expect("non-empty").push(c);
                    self.pos += c.len_utf8();
                }
            }
        }
        let trailing_star = stars && parts.last().is_some_and(|p| p.is_empty());
        Ok(ValueText { parts, stars, trailing_star })
    }

    /// After a backslash: `\XX` hex pair or single escaped character.
    fn escape(&mut self) -> Result<char, FilterParseError> {
        let Some(b1) = self.peek() else {
            return self.err("dangling escape");
        };
        let b2 = self.bytes.get(self.pos + 1).copied();
        if let (Some(h1), Some(Some(h2))) = (hex_val(b1), b2.map(hex_val)) {
            self.pos += 2;
            Ok((h1 * 16 + h2) as char)
        } else {
            self.pos += 1;
            Ok(b1 as char)
        }
    }
}

fn hex_val(b: u8) -> Option<u8> {
    match b {
        b'0'..=b'9' => Some(b - b'0'),
        b'a'..=b'f' => Some(b - b'a' + 10),
        b'A'..=b'F' => Some(b - b'A' + 10),
        _ => None,
    }
}

struct ValueText {
    parts: Vec<String>,
    stars: bool,
    trailing_star: bool,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Entry;

    fn entry() -> Entry {
        Entry::new("cn=John Doe,c=us,o=xyz".parse().unwrap())
            .with("objectclass", "inetOrgPerson")
            .with("cn", "John Doe")
            .with("sn", "Doe")
            .with("givenName", "John")
            .with("age", "30")
            .with("serialNumber", "045612")
            .with("mail", "john@us.xyz.com")
    }

    fn f(s: &str) -> Filter {
        Filter::parse(s).unwrap()
    }

    #[test]
    fn parse_equality() {
        let filt = f("(sn=Doe)");
        assert!(filt.matches(&entry()));
        assert!(!f("(sn=Smith)").matches(&entry()));
        assert_eq!(filt.to_string(), "(sn=Doe)");
    }

    #[test]
    fn parse_and_or_not() {
        assert!(f("(&(sn=Doe)(givenName=John))").matches(&entry()));
        assert!(!f("(&(sn=Doe)(givenName=Jane))").matches(&entry()));
        assert!(f("(|(sn=Smith)(givenName=John))").matches(&entry()));
        assert!(f("(!(sn=Smith))").matches(&entry()));
        assert!(!f("(!(sn=Doe))").matches(&entry()));
    }

    #[test]
    fn parse_ranges_numeric() {
        assert!(f("(age>=30)").matches(&entry()));
        assert!(f("(age<=30)").matches(&entry()));
        assert!(!f("(age>=31)").matches(&entry()));
        // Numeric comparison, not lexicographic ("30" < "9" as strings).
        assert!(f("(age>=9)").matches(&entry()));
        assert!(f("(age<=100)").matches(&entry()));
    }

    #[test]
    fn range_typing_by_assertion_value() {
        let e = Entry::new("cn=x,o=y".parse().unwrap())
            .with("age", "30")
            .with("code", "b7")
            .with("name", "miller");
        // Integer assertion: non-integer values never match.
        assert!(!f("(code>=5)").matches(&e));
        assert!(!f("(name<=99)").matches(&e));
        // String assertion: lexicographic, even against numeric-looking values.
        assert!(f("(name>=abc)").matches(&e));
        assert!(!f("(name>=zz)").matches(&e));
        assert!(f("(code>=a1)").matches(&e));
        // "30" vs string assertion "abc": lexicographic, digits sort first.
        assert!(f("(age<=abc)").matches(&e));
        assert!(!f("(age>=abc)").matches(&e));
    }

    #[test]
    fn parse_presence() {
        assert!(f("(objectclass=*)").matches(&entry()));
        assert!(f("(mail=*)").matches(&entry()));
        assert!(!f("(fax=*)").matches(&entry()));
    }

    #[test]
    fn parse_substring_forms() {
        assert!(f("(sn=D*)").matches(&entry()));
        assert!(f("(sn=*oe)").matches(&entry()));
        assert!(f("(sn=D*e)").matches(&entry()));
        assert!(f("(cn=*ohn*oe*)").matches(&entry()));
        assert!(f("(serialNumber=0456*)").matches(&entry()));
        assert!(!f("(serialNumber=0457*)").matches(&entry()));
        assert!(f("(mail=*@us.xyz.com)").matches(&entry()));
    }

    #[test]
    fn blank_substring_components_print_as_they_parse() {
        // A component that normalizes to nothing is dropped at parse time:
        // printed, it would leave two adjacent stars (`(a=~**0😀)` did not
        // re-parse) or turn into presence.
        for (text, printed) in [
            ("(ab=~* *0😀)", "(ab=~*0😀)"),
            ("(a= *x)", "(a=*x)"),
            ("(a=x* )", "(a=x*)"),
            ("(a= *)", "(a=*)"),
            ("(a=* * *)", "(a=*)"),
        ] {
            let parsed = f(text);
            assert_eq!(parsed.to_string(), printed, "{text}");
            assert_eq!(f(printed), parsed, "{text}");
        }
    }

    #[test]
    fn substring_case_insensitive() {
        assert!(f("(sn=d*E)").matches(&entry()));
    }

    #[test]
    fn substring_overlapping_any_components() {
        let p = SubstringPattern::new(None, vec!["aba".into()], None);
        assert!(p.matches_str("xabay"));
        let p2 = SubstringPattern::new(None, vec!["ab".into(), "ab".into()], None);
        assert!(p2.matches_str("abab"));
        assert!(!p2.matches_str("aab"));
    }

    #[test]
    fn substring_final_inside_a_character_is_no_match() {
        // "é" is two bytes: a one-byte tail would start inside it.
        assert!(!SubstringPattern::new(None, vec![], Some("x".into())).matches_str("é"));
        assert!(SubstringPattern::new(None, vec![], Some("é".into())).matches_str("xé"));
    }

    #[test]
    fn substring_final_reserved_from_tail() {
        // (a=x*x) must not match "x": the one char cannot serve both ends.
        let p = SubstringPattern::new(Some("x".into()), vec![], Some("x".into()));
        assert!(!p.matches_str("x"));
        assert!(p.matches_str("xx"));
        assert!(p.matches_str("xyx"));
    }

    #[test]
    fn display_round_trip() {
        for s in [
            "(sn=Doe)",
            "(&(sn=Doe)(givenName=John))",
            "(|(a=1)(b=2)(c=3))",
            "(!(sn=Doe))",
            "(sn=smi*)",
            "(sn=*ith)",
            "(sn=s*i*h)",
            "(objectclass=*)",
            "(age>=30)",
            "(age<=40)",
            "(&(objectclass=inetOrgPerson)(departmentNumber=240*))",
        ] {
            let parsed = f(s);
            assert_eq!(parsed.to_string(), s, "canonical form differs for {s}");
            assert_eq!(Filter::parse(&parsed.to_string()).unwrap(), parsed);
        }
    }

    #[test]
    fn escapes_in_values() {
        let filt = f(r"(cn=a\2ab)"); // a*b literal
        match &filt {
            Filter::Pred(p) => match p.comparison() {
                Comparison::Eq(v) => assert_eq!(v.raw(), "a*b"),
                other => panic!("expected equality, got {other:?}"),
            },
            other => panic!("expected predicate, got {other:?}"),
        }
        // Round trips.
        assert_eq!(Filter::parse(&filt.to_string()).unwrap(), filt);
    }

    #[test]
    fn parse_errors_carry_position() {
        for bad in ["", "(", "(sn=)", "(&)", "(sn=Doe", "sn=Doe", "(sn~=x)", "(age>=3*0)", "((sn=a))x"] {
            let e = Filter::parse(bad);
            assert!(e.is_err(), "expected error for {bad:?}");
        }
    }

    #[test]
    fn is_positive_classification() {
        assert!(f("(&(sn=Doe)(age>=3))").is_positive());
        assert!(!f("(&(sn=Doe)(!(age>=3)))").is_positive());
    }

    #[test]
    fn predicate_collection_order() {
        let filt = f("(&(sn=Doe)(|(a=1)(b=2)))");
        let attrs: Vec<_> = filt.predicates().iter().map(|p| p.attr().as_str().to_owned()).collect();
        assert_eq!(attrs, ["sn", "a", "b"]);
    }

    #[test]
    fn match_all_matches_everything_with_objectclass() {
        assert!(Filter::match_all().matches(&entry()));
    }

    #[test]
    fn simplify_flattens_and_dedups() {
        assert_eq!(f("(&(a=1)(&(b=2)(c=3)))").simplify().to_string(), "(&(a=1)(b=2)(c=3))");
        assert_eq!(f("(|(a=1)(|(a=1)(b=2)))").simplify().to_string(), "(|(a=1)(b=2))");
        assert_eq!(f("(&(a=1)(a=1))").simplify().to_string(), "(a=1)");
        assert_eq!(f("(!(!(sn=x)))").simplify().to_string(), "(sn=x)");
        // Mixed kinds do not flatten across the boundary.
        assert_eq!(
            f("(&(a=1)(|(b=2)(c=3)))").simplify().to_string(),
            "(&(a=1)(|(b=2)(c=3)))"
        );
        // Simplification is idempotent.
        let g = f("(&(a=1)(&(a=1)(!(!(b=2)))))").simplify();
        assert_eq!(g.simplify(), g);
    }

    #[test]
    fn simplify_preserves_matching() {
        let e = entry();
        for s in [
            "(&(sn=Doe)(&(givenName=John)(sn=Doe)))",
            "(|(sn=Smith)(|(sn=Doe)))",
            "(!(!(age>=30)))",
            "(&(sn=Doe))",
        ] {
            let orig = f(s);
            let simp = orig.simplify();
            assert_eq!(orig.matches(&e), simp.matches(&e), "{s}");
        }
    }

    #[test]
    fn comparison_kind_labels() {
        assert_eq!(f("(a=1)").predicates()[0].comparison().kind(), "=");
        assert_eq!(f("(a>=1)").predicates()[0].comparison().kind(), ">=");
        assert_eq!(f("(a=1*)").predicates()[0].comparison().kind(), "_*");
        assert_eq!(f("(a=*1)").predicates()[0].comparison().kind(), "*_");
        assert_eq!(f("(a=1*2)").predicates()[0].comparison().kind(), "_*_");
        assert_eq!(f("(a=*)").predicates()[0].comparison().kind(), "=*");
    }
}
