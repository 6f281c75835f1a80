//! The containment engine: template-aware dispatch between the three
//! containment algorithms, with the statistics behind §7.4.

use crate::cross_template::{CompiledCondition, CrossTemplateMatrix};
use crate::qc::region_contained;
use crate::same_template::same_template_contained;
use crate::{filter_contained, Containment};
use fbdr_ldap::{AttrName, AttrValue, SearchRequest, Template};
use fbdr_obs::{event, Counter, Gauge, Histogram, MetricsRegistry, Obs};
use parking_lot::RwLock;
use serde::{Deserialize, Serialize};
use std::borrow::Cow;
use std::sync::Arc;
use std::time::Instant;

/// Counters for the work performed by a [`ContainmentEngine`] — the query
/// processing overhead the paper studies in §7.4.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct EngineStats {
    /// Checks answered by the O(n) same-template fast path (Prop 3).
    pub same_template: u64,
    /// Checks answered by a compiled cross-template condition (Prop 2).
    pub compiled: u64,
    /// Checks skipped outright because the pair compiled to *never*.
    pub skipped_never: u64,
    /// Checks that fell back to the general procedure (Prop 1).
    pub general: u64,
}

impl EngineStats {
    /// Total containment checks dispatched.
    pub fn total(&self) -> u64 {
        self.same_template + self.compiled + self.skipped_never + self.general
    }
}

/// Interior-mutable work counters, so counting does not force `&mut self`
/// onto the read path. All updates use relaxed ordering: the counters are
/// monotonic tallies with no ordering relationship to any other data.
///
/// When the engine is built with [`ContainmentEngine::with_obs`] these
/// counters are the registry's `fbdr_containment_*_total` metrics — one
/// source, so [`ContainmentEngine::stats`] and the metrics export cannot
/// disagree.
#[derive(Debug)]
struct EngineCounters {
    same_template: Arc<Counter>,
    compiled: Arc<Counter>,
    skipped_never: Arc<Counter>,
    general: Arc<Counter>,
    /// General-path checks that came back [`Containment::Unknown`] and
    /// were answered as "not contained" — exported only, not part of
    /// [`EngineStats`].
    unknown: Arc<Counter>,
}

impl Default for EngineCounters {
    fn default() -> Self {
        EngineCounters {
            same_template: Arc::new(Counter::new()),
            compiled: Arc::new(Counter::new()),
            skipped_never: Arc::new(Counter::new()),
            general: Arc::new(Counter::new()),
            unknown: Arc::new(Counter::new()),
        }
    }
}

impl EngineCounters {
    fn bound(registry: &MetricsRegistry) -> Self {
        EngineCounters {
            same_template: registry.counter("fbdr_containment_same_template_total"),
            compiled: registry.counter("fbdr_containment_compiled_total"),
            skipped_never: registry.counter("fbdr_containment_skipped_never_total"),
            general: registry.counter("fbdr_containment_general_total"),
            unknown: registry.counter("fbdr_containment_unknown_total"),
        }
    }

    fn snapshot(&self) -> EngineStats {
        EngineStats {
            same_template: self.same_template.get(),
            compiled: self.compiled.get(),
            skipped_never: self.skipped_never.get(),
            general: self.general.get(),
        }
    }

    fn reset(&self) {
        self.same_template.reset();
        self.compiled.reset();
        self.skipped_never.reset();
        self.general.reset();
        self.unknown.reset();
    }
}

/// A query prepared for repeated containment checks: the request, its
/// template — a shared handle looked up in the process-wide table
/// ([`Template::of_borrowed`]) — and its assertion values.
///
/// The request is owned or borrowed. [`PreparedQuery::new`] takes a
/// request to keep (a stored filter, a cached query) and copies its
/// values beside it; [`PreparedQuery::borrowed`] prepares a caller's
/// request for the length of one answer and copies nothing: its values
/// are references into the request's filter (substring components, which
/// the filter holds as text, are the only ones made).
#[derive(Debug, Clone)]
pub struct PreparedQuery<'a> {
    request: Cow<'a, SearchRequest>,
    template: Template,
    values: Vec<Cow<'a, AttrValue>>,
}

impl PreparedQuery<'static> {
    /// Prepares a request and keeps it.
    pub fn new(request: SearchRequest) -> Self {
        let (template, values) = Template::of_borrowed(request.filter());
        let values = values.into_iter().map(|v| Cow::Owned(v.into_owned())).collect();
        PreparedQuery { request: Cow::Owned(request), template, values }
    }
}

impl<'a> PreparedQuery<'a> {
    /// Prepares a request the caller keeps.
    pub fn borrowed(request: &'a SearchRequest) -> Self {
        let (template, values) = Template::of_borrowed(request.filter());
        PreparedQuery { request: Cow::Borrowed(request), template, values }
    }

    /// The underlying search request.
    pub fn request(&self) -> &SearchRequest {
        &self.request
    }

    /// The query's template.
    pub fn template(&self) -> &Template {
        &self.template
    }

    /// The assertion values in slot order.
    pub fn values(&self) -> &[Cow<'a, AttrValue>] {
        &self.values
    }
}

/// Template-aware containment dispatcher.
///
/// Routes each check to the cheapest applicable algorithm:
///
/// 1. identical template → Proposition 3 slot comparison,
/// 2. compiled template pair → Proposition 2 CNF evaluation (or an
///    immediate *never*),
/// 3. otherwise → the general Proposition 1 procedure.
///
/// Every check takes `&self`, so one engine can serve concurrent readers:
/// the compiled-condition cache sits behind a [`RwLock`] that is held only
/// to look up or record an `Arc`'d condition — compilation itself and CNF
/// evaluation run outside the lock. Compilation is deterministic, so a
/// race between two threads compiling the same pair wastes a little work
/// but cannot produce divergent cache contents.
///
/// ```
/// use fbdr_containment::{ContainmentEngine, PreparedQuery};
/// use fbdr_ldap::{Filter, Scope, SearchRequest};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let engine = ContainmentEngine::new();
/// let stored = PreparedQuery::new(SearchRequest::new(
///     "o=xyz".parse()?, Scope::Subtree, Filter::parse("(serialNumber=0456*)")?,
/// ));
/// let query = PreparedQuery::new(SearchRequest::new(
///     "o=xyz".parse()?, Scope::Subtree, Filter::parse("(serialNumber=045612)")?,
/// ));
/// assert!(engine.query_contained(&query, &stored));
/// assert_eq!(engine.stats().compiled, 1);
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct ContainmentEngine {
    matrix: RwLock<CrossTemplateMatrix>,
    counters: EngineCounters,
    obs: Obs,
    /// Pre-resolved `fbdr_containment_check_ns` histogram; `None` on an
    /// unobserved engine, so the uninstrumented check costs one branch.
    check_hist: Option<Arc<Histogram>>,
    /// `fbdr_ldap_templates_interned`,
    /// `fbdr_ldap_templates_uninterned_total` and
    /// `fbdr_ldap_attr_names_interned`: the process-wide template and
    /// attribute-name tables, mirrored into this engine's registry (`None`
    /// unobserved).
    template_table: Option<(Arc<Gauge>, Arc<Counter>, Arc<Gauge>)>,
}

impl Default for ContainmentEngine {
    fn default() -> Self {
        ContainmentEngine {
            matrix: RwLock::new(CrossTemplateMatrix::new()),
            counters: EngineCounters::default(),
            obs: Obs::off(),
            check_hist: None,
            template_table: None,
        }
    }
}

impl ContainmentEngine {
    /// Creates an engine with an empty compiled-condition cache.
    pub fn new() -> Self {
        ContainmentEngine::default()
    }

    /// Creates an observed engine: work counters live in the registry as
    /// `fbdr_containment_*_total`, every dispatched check is timed into
    /// the `fbdr_containment_check_ns` histogram, and each decision emits
    /// a `containment.decision` trace event when a subscriber is
    /// installed. The registry also gets the size of the process-wide
    /// template table (`fbdr_ldap_templates_interned`), the number of
    /// extractions it turned away (`fbdr_ldap_templates_uninterned_total`)
    /// and the size of the attribute-name table beside it
    /// (`fbdr_ldap_attr_names_interned`), refreshed whenever a check meets
    /// a template pair with no cached condition — a new template, which is
    /// what a new attribute name makes, or one past the table's cap. With
    /// [`Obs::off`] this is identical to [`ContainmentEngine::new`].
    pub fn with_obs(obs: Obs) -> Self {
        if !obs.is_active() {
            return ContainmentEngine::default();
        }
        let reg = obs.registry();
        let engine = ContainmentEngine {
            matrix: RwLock::new(CrossTemplateMatrix::new()),
            counters: EngineCounters::bound(reg),
            check_hist: Some(reg.histogram("fbdr_containment_check_ns")),
            template_table: Some((
                reg.gauge("fbdr_ldap_templates_interned"),
                reg.counter("fbdr_ldap_templates_uninterned_total"),
                reg.gauge("fbdr_ldap_attr_names_interned"),
            )),
            obs,
        };
        engine.publish_template_table();
        engine
    }

    fn publish_template_table(&self) {
        if let Some((interned, uninterned, names)) = &self.template_table {
            let stats = Template::table_stats();
            interned.set(stats.interned as i64);
            uninterned.raise_to(stats.uninterned);
            names.set(AttrName::interned() as i64);
        }
    }

    /// The observability handle this engine records through.
    pub fn obs(&self) -> &Obs {
        &self.obs
    }

    /// Work counters accumulated so far. Relaxed-ordering tallies: exact
    /// once all concurrent checks have finished, monotonic while they run.
    pub fn stats(&self) -> EngineStats {
        self.counters.snapshot()
    }

    /// Resets the work counters (the compiled cache is kept).
    pub fn reset_stats(&self) {
        self.counters.reset();
    }

    /// Number of compiled template pairs cached.
    pub fn compiled_pairs(&self) -> usize {
        self.matrix.read().len()
    }

    /// Template-aware filter containment: is `q`'s filter contained in
    /// `s`'s filter?
    pub fn filter_contained(&self, q: &PreparedQuery<'_>, s: &PreparedQuery<'_>) -> bool {
        let start = self.check_hist.as_ref().map(|_| Instant::now());
        let (path, contained) = if q.template == s.template {
            self.counters.same_template.inc();
            (
                "same_template",
                same_template_contained(q.request.filter(), s.request.filter()),
            )
        } else if let Some(cond) = self.condition_for(&q.template, &s.template) {
            if cond.is_never() {
                self.counters.skipped_never.inc();
                ("skipped_never", false)
            } else {
                self.counters.compiled.inc();
                ("compiled", cond.eval(&q.values, &s.values))
            }
        } else {
            self.counters.general.inc();
            let verdict = filter_contained(q.request.filter(), s.request.filter());
            if verdict == Containment::Unknown {
                self.counters.unknown.inc();
            }
            ("general", verdict == Containment::Yes)
        };
        if let (Some(h), Some(t)) = (&self.check_hist, start) {
            h.record_since(t);
        }
        event!(
            self.obs,
            "containment",
            "decision",
            contained = contained,
            path = path,
            cross_template = q.template != s.template,
            stored_template = s.template.id().to_string(),
        );
        contained
    }

    /// Full `QC(Q, Qs)` with template-aware filter dispatch: region,
    /// attribute-subset and filter containment.
    pub fn query_contained(&self, q: &PreparedQuery<'_>, s: &PreparedQuery<'_>) -> bool {
        region_contained(
            q.request.base(),
            q.request.scope(),
            s.request.base(),
            s.request.scope(),
        ) && q.request.attrs().is_subset_of(s.request.attrs())
            && self.filter_contained(q, s)
    }

    /// The compiled condition for the pair, from the cache when present;
    /// otherwise compiled *outside* the lock and recorded afterwards (the
    /// matrix keeps only pairs of interned templates).
    fn condition_for(&self, t1: &Template, t2: &Template) -> Option<Arc<CompiledCondition>> {
        if let Some(cached) = self.matrix.read().lookup(t1, t2) {
            return cached;
        }
        self.publish_template_table();
        let compiled = CrossTemplateMatrix::compile_pair(t1, t2);
        self.matrix.write().insert(t1, t2, compiled.clone());
        compiled
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fbdr_ldap::{Filter, Scope};

    fn prep(base: &str, filter: &str) -> PreparedQuery<'static> {
        PreparedQuery::new(SearchRequest::new(
            base.parse().unwrap(),
            Scope::Subtree,
            Filter::parse(filter).unwrap(),
        ))
    }

    #[test]
    fn same_template_dispatch() {
        let e = ContainmentEngine::new();
        let q = prep("o=xyz", "(serialNumber=0456*)");
        let s = prep("o=xyz", "(serialNumber=045*)");
        assert!(e.filter_contained(&q, &s));
        assert!(!e.filter_contained(&s, &q));
        assert_eq!(e.stats().same_template, 2);
        assert_eq!(e.stats().compiled, 0);
        assert_eq!(e.stats().general, 0);
    }

    #[test]
    fn compiled_dispatch() {
        let e = ContainmentEngine::new();
        let q = prep("o=xyz", "(serialNumber=045612)");
        let s = prep("o=xyz", "(serialNumber=0456*)");
        assert!(e.filter_contained(&q, &s));
        assert_eq!(e.stats().compiled, 1);
        // Cached on second use.
        assert!(e.filter_contained(&q, &s));
        assert_eq!(e.stats().compiled, 2);
        assert_eq!(e.compiled_pairs(), 1);
    }

    #[test]
    fn never_pairs_are_skipped() {
        let e = ContainmentEngine::new();
        // (sn=_) can never be answered by (&(sn=_)(ou=_)) — the paper's
        // own example of template elimination.
        let q = prep("o=xyz", "(sn=doe)");
        let s = prep("o=xyz", "(&(sn=doe)(ou=research))");
        assert!(!e.filter_contained(&q, &s));
        assert_eq!(e.stats().skipped_never, 1);
    }

    #[test]
    fn general_fallback() {
        let e = ContainmentEngine::new();
        let q = prep("o=xyz", "(|(sn=a)(sn=b))");
        let s = prep("o=xyz", "(|(sn=a)(sn=b)(sn=c))");
        assert!(e.filter_contained(&q, &s));
        assert_eq!(e.stats().general, 1);
    }

    #[test]
    fn an_undecided_general_check_is_counted() {
        let obs = Obs::new();
        let e = ContainmentEngine::with_obs(obs.clone());
        let unknown = || obs.registry().counter("fbdr_containment_unknown_total").get();
        // Decided by the general procedure: no count.
        let q = prep("o=xyz", "(|(sn=a)(sn=b))");
        assert!(e.filter_contained(&q, &prep("o=xyz", "(|(sn=a)(sn=b)(sn=c))")));
        assert_eq!((e.stats().general, unknown()), (1, 0));
        // A value strictly between "a" and "a0": sat.rs finds no witness
        // and no proof, so the check is undecided — a miss, counted.
        let q = prep("o=xyz", "(&(sn=*)(!(sn<=a)))");
        assert!(!e.filter_contained(&q, &prep("o=xyz", "(sn>=a0)")));
        assert_eq!((e.stats().general, unknown()), (2, 1));
        e.reset_stats();
        assert_eq!(unknown(), 0);
    }

    #[test]
    fn query_contained_checks_region() {
        let e = ContainmentEngine::new();
        let s = prep("c=us,o=xyz", "(serialNumber=0456*)");
        assert!(e.query_contained(&prep("c=us,o=xyz", "(serialNumber=045612)"), &s));
        assert!(!e.query_contained(&prep("o=xyz", "(serialNumber=045612)"), &s));
    }

    #[test]
    fn stats_total_and_reset() {
        let e = ContainmentEngine::new();
        let q = prep("o=xyz", "(a=1)");
        let s = prep("o=xyz", "(a=1)");
        e.filter_contained(&q, &s);
        assert_eq!(e.stats().total(), 1);
        e.reset_stats();
        assert_eq!(e.stats().total(), 0);
        assert_eq!(e.compiled_pairs(), 0); // nothing was compiled
    }

    #[test]
    fn shared_engine_checks_concurrently() {
        let e = ContainmentEngine::new();
        let s = prep("o=xyz", "(serialNumber=0456*)");
        std::thread::scope(|scope| {
            for t in 0..4 {
                let e = &e;
                let s = &s;
                scope.spawn(move || {
                    for i in 0..50 {
                        let q = prep("o=xyz", &format!("(serialNumber=0456{:02})", (t * 50 + i) % 100));
                        assert!(e.filter_contained(&q, s));
                    }
                });
            }
        });
        assert_eq!(e.stats().compiled, 200);
        assert_eq!(e.compiled_pairs(), 1);
    }
}
