#![warn(missing_docs)]
//! **fbdr-obs** — observability for the replication stack, with zero
//! required dependencies (vendored shims only).
//!
//! The paper's evaluation (§7) is built on per-stage measurements:
//! containment decision cost (§7.4), ReSync message and entry counts
//! (§7.3), hit rates after each selection revolution (§7.2). This crate
//! supplies the instruments the rest of the workspace records them with:
//!
//! * [`MetricsRegistry`] — named atomic [`Counter`]s/[`Gauge`]s and
//!   log2-bucketed [`Histogram`]s (recorded in nanoseconds, reported as
//!   p50/p90/p99/max), rendered as Prometheus-style text or a
//!   serializable [`MetricsSnapshot`].
//! * A structured tracing facade — [`event!`] emits flat typed
//!   [`Event`]s to a pluggable [`Subscriber`]; the [`RingBuffer`]
//!   recorder lets tests assert on exactly what was emitted.
//! * One stopwatch: [`Obs::timer`] resolves a scope's histogram once,
//!   when a component is built, and each [`Timer::start`] opens a
//!   [`Span`] that records into it on drop and, when tracing, emits the
//!   scope's closing event. A span allocates nothing.
//! * The [`Obs`] handle that ties both together and keeps the
//!   *uninstrumented* path branch-cheap: a component holding
//!   [`Obs::off`] pays one predictable branch per hook, no allocation,
//!   no clock read, no atomics.
//!
//! # Attaching observability
//!
//! Components default to [`Obs::off`]. To observe them, build an active
//! handle and pass it in at construction:
//!
//! ```
//! use fbdr_obs::{Obs, RingBuffer, event};
//! use std::sync::Arc;
//!
//! let obs = Obs::new();
//! let trace = Arc::new(RingBuffer::new(128));
//! obs.set_subscriber(trace.clone());
//!
//! // Instrumented code does this (macro = branch + build + emit):
//! event!(obs, "resync", "redelivery", seq = 7u64, actions = 3usize);
//! obs.registry().counter("fbdr_resync_redeliveries_total").inc();
//!
//! // A timed layer resolves its timer once and opens a span per call.
//! let exchange = obs.timer("resync", "exchange");
//! {
//!     let mut span = exchange.start();
//!     span.record("seq", 7u64);
//!     // ... measured work ...
//! }
//!
//! assert_eq!(trace.count("resync", "redelivery"), 1);
//! assert_eq!(trace.events()[0].u64_field("seq"), Some(7));
//! assert_eq!(trace.count("resync", "exchange"), 1);
//! let snap = obs.registry().snapshot();
//! assert_eq!(snap.counters["fbdr_resync_redeliveries_total"], 1);
//! assert_eq!(snap.histograms["fbdr_resync_exchange_ns"].count, 1);
//! ```

pub mod metrics;
pub mod trace;

pub use metrics::{Counter, Gauge, Histogram, HistogramSnapshot, MetricsRegistry, MetricsSnapshot};
pub use trace::{Event, FieldValue, RingBuffer, Subscriber};

use parking_lot::RwLock;
use std::fmt;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::Instant;

struct ObsInner {
    /// Fixed at construction: `false` only for the shared [`Obs::off`]
    /// instance. Checked (as a plain bool) before any instrumentation
    /// work, so hooks on unobserved components cost one branch.
    active: bool,
    /// Mirror of "a subscriber is installed", readable without the lock.
    tracing: AtomicBool,
    registry: MetricsRegistry,
    subscriber: RwLock<Option<Arc<dyn Subscriber>>>,
}

/// A cheaply clonable observability handle: one [`MetricsRegistry`] plus
/// at most one tracing [`Subscriber`].
///
/// Clones share the same registry and subscriber, so every component of
/// one deployment (replica, driver, master, selector) is normally given
/// clones of a single `Obs` and their metrics aggregate in one place.
///
/// The default handle is [`Obs::off`]: permanently inert, shared
/// process-wide, and free to clone. Instrumented components check
/// [`Obs::is_active`] (a plain field read) before touching the registry
/// or the subscriber, and time their scopes with the [`Timer`]s
/// [`Obs::timer`] resolves, which are inert on the inert handle — the
/// "disabled-subscriber fast path" whose cost `benchmark/` reads as
/// `obs.on_overhead_ratio`.
#[derive(Clone)]
pub struct Obs {
    inner: Arc<ObsInner>,
}

impl Default for Obs {
    fn default() -> Self {
        Obs::off()
    }
}

impl fmt::Debug for Obs {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Obs")
            .field("active", &self.inner.active)
            .field("tracing", &self.tracing_enabled())
            .finish()
    }
}

impl Obs {
    /// An active handle with a fresh empty registry and no subscriber.
    pub fn new() -> Self {
        Obs {
            inner: Arc::new(ObsInner {
                active: true,
                tracing: AtomicBool::new(false),
                registry: MetricsRegistry::new(),
                subscriber: RwLock::new(None),
            }),
        }
    }

    /// The shared inert handle: nothing is recorded, nothing is emitted,
    /// [`set_subscriber`](Obs::set_subscriber) is a no-op. This is the
    /// default every component starts with.
    pub fn off() -> Self {
        static OFF: OnceLock<Obs> = OnceLock::new();
        OFF.get_or_init(|| Obs {
            inner: Arc::new(ObsInner {
                active: false,
                tracing: AtomicBool::new(false),
                registry: MetricsRegistry::new(),
                subscriber: RwLock::new(None),
            }),
        })
        .clone()
    }

    /// True unless this is the inert [`Obs::off`] handle. Instrumentation
    /// guards on this before doing any work.
    #[inline]
    pub fn is_active(&self) -> bool {
        self.inner.active
    }

    /// True when a subscriber is installed (and the handle is active):
    /// events built by [`event!`] and spans' closing events will actually
    /// be delivered.
    #[inline]
    pub fn tracing_enabled(&self) -> bool {
        self.inner.active && self.inner.tracing.load(Ordering::Relaxed)
    }

    /// The metrics registry behind this handle. On the inert handle this
    /// is a permanently empty registry that instrumentation never writes
    /// to (guarded by [`Obs::is_active`]).
    pub fn registry(&self) -> &MetricsRegistry {
        &self.inner.registry
    }

    /// Installs (or replaces) the tracing subscriber. No-op on the inert
    /// handle.
    pub fn set_subscriber(&self, subscriber: Arc<dyn Subscriber>) {
        if !self.inner.active {
            return;
        }
        *self.inner.subscriber.write() = Some(subscriber);
        self.inner.tracing.store(true, Ordering::Relaxed);
    }

    /// Delivers `event` to the subscriber, if one is installed. Callers
    /// normally go through [`event!`], which skips building the event
    /// entirely when tracing is off.
    pub fn emit(&self, event: Event) {
        if !self.tracing_enabled() {
            return;
        }
        let sub = self.inner.subscriber.read().clone();
        if let Some(sub) = sub {
            sub.on_event(&event);
        }
    }

    /// Resolves the timer of the scope `<target>.<name>`: the registry
    /// histogram `fbdr_<target>_<name>_ns` is looked up once, here, so a
    /// component builds its timers when it is built and each
    /// [`Timer::start`] only reads the clock. On the inert handle the
    /// timer is inert too.
    pub fn timer(&self, target: &'static str, name: &'static str) -> Timer {
        if !self.inner.active {
            return Timer::default();
        }
        Timer {
            inner: Some(TimerInner {
                histogram: self.registry().histogram(&format!("fbdr_{target}_{name}_ns")),
                obs: self.clone(),
                target,
                name,
            }),
        }
    }
}

#[derive(Clone)]
struct TimerInner {
    obs: Obs,
    histogram: Arc<Histogram>,
    target: &'static str,
    name: &'static str,
}

/// The one way to time a scope: a pre-resolved histogram plus the
/// handle its closing events go to, built by [`Obs::timer`].
///
/// [`Timer::start`] opens a [`Span`] that borrows the timer, so opening
/// and closing one allocates nothing and touches no refcount. The
/// default timer is inert: `start` is one branch and reads no clock.
#[derive(Clone, Default)]
pub struct Timer {
    inner: Option<TimerInner>,
}

impl fmt::Debug for Timer {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match &self.inner {
            Some(t) => write!(f, "Timer({}.{})", t.target, t.name),
            None => f.write_str("Timer(off)"),
        }
    }
}

impl Timer {
    /// Opens a span that measures until it is dropped.
    #[inline]
    pub fn start(&self) -> Span<'_> {
        Span {
            timer: self.inner.as_ref().map(|t| (t, Instant::now())),
            fields: Vec::new(),
        }
    }
}

/// A timed scope opened by [`Timer::start`].
///
/// Dropping it records the elapsed nanoseconds into the timer's
/// histogram and, when a subscriber is installed, emits the closing
/// event `<target>.<name>` with the fields added by [`Span::record`]
/// plus `duration_ns`. With no subscriber a span costs two clock reads
/// and one histogram record.
#[must_use = "a span measures until it is dropped; binding it to _ drops it immediately"]
pub struct Span<'a> {
    timer: Option<(&'a TimerInner, Instant)>,
    fields: Vec<(&'static str, FieldValue)>,
}

impl Span<'_> {
    /// Attaches a field to the closing event. Does nothing unless tracing
    /// is on, so a value that is costly to build should be guarded by
    /// [`Obs::tracing_enabled`].
    pub fn record(&mut self, key: &'static str, value: impl Into<FieldValue>) {
        if let Some((t, _)) = self.timer {
            if t.obs.tracing_enabled() {
                self.fields.push((key, value.into()));
            }
        }
    }

    /// True when this span is actually measuring (its timer is active).
    pub fn is_active(&self) -> bool {
        self.timer.is_some()
    }
}

impl Drop for Span<'_> {
    fn drop(&mut self) {
        let Some((t, start)) = self.timer else {
            return;
        };
        let elapsed = start.elapsed().as_nanos() as u64;
        t.histogram.record(elapsed);
        if t.obs.tracing_enabled() {
            let mut fields = std::mem::take(&mut self.fields);
            fields.push(("duration_ns", FieldValue::U64(elapsed)));
            t.obs.emit(Event { target: t.target, name: t.name, fields });
        }
    }
}

/// Emits a structured [`Event`] through an [`Obs`] handle.
///
/// Field expressions are evaluated **only when tracing is enabled**, so
/// an `event!` on a hot path costs a single branch while no subscriber is
/// installed.
///
/// ```
/// use fbdr_obs::{event, Obs, RingBuffer};
/// use std::sync::Arc;
///
/// let obs = Obs::new();
/// let rb = Arc::new(RingBuffer::new(8));
/// obs.set_subscriber(rb.clone());
/// event!(obs, "containment", "decision", contained = true, path = "same_template");
/// assert_eq!(rb.count("containment", "decision"), 1);
/// ```
#[macro_export]
macro_rules! event {
    ($obs:expr, $target:expr, $name:expr $(, $key:ident = $value:expr)* $(,)?) => {
        if $obs.tracing_enabled() {
            $obs.emit($crate::Event {
                target: $target,
                name: $name,
                fields: vec![
                    $((stringify!($key), $crate::FieldValue::from($value))),*
                ],
            });
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn off_handle_is_inert_and_shared() {
        let a = Obs::off();
        let b = Obs::default();
        assert!(!a.is_active());
        assert!(!b.tracing_enabled());
        a.set_subscriber(Arc::new(RingBuffer::new(4)));
        assert!(!a.tracing_enabled());
        let timer = a.timer("x", "y");
        let span = timer.start();
        assert!(!span.is_active());
        drop(span);
        assert!(a.registry().snapshot().is_empty());
        // The inert handle is one shared instance.
        assert!(Arc::ptr_eq(&a.inner, &b.inner));
    }

    #[test]
    fn event_macro_skips_field_eval_when_disabled() {
        let obs = Obs::new();
        let mut evaluated = false;
        event!(obs, "t", "n", x = {
            evaluated = true;
            1u64
        });
        assert!(!evaluated, "fields must not be built without a subscriber");
        obs.set_subscriber(Arc::new(RingBuffer::new(4)));
        event!(obs, "t", "n", x = {
            evaluated = true;
            1u64
        });
        assert!(evaluated);
    }

    #[test]
    fn span_records_histogram_and_event() {
        let obs = Obs::new();
        let rb = Arc::new(RingBuffer::new(4));
        obs.set_subscriber(rb.clone());
        let timer = obs.timer("resync", "exchange");
        {
            let mut span = timer.start();
            span.record("seq", 3u64);
        }
        let snap = obs.registry().snapshot();
        assert_eq!(snap.histograms["fbdr_resync_exchange_ns"].count, 1);
        let events = rb.named("resync", "exchange");
        assert_eq!(events.len(), 1);
        assert_eq!(events[0].u64_field("seq"), Some(3));
        assert!(events[0].u64_field("duration_ns").is_some());
    }

    #[test]
    fn a_span_records_fields_only_while_tracing() {
        let obs = Obs::new();
        let timer = obs.timer("t", "n");
        {
            let mut span = timer.start();
            span.record("x", 1u64);
            assert!(span.is_active());
            assert!(span.fields.is_empty(), "no subscriber, no fields");
        }
        assert_eq!(obs.registry().histogram("fbdr_t_n_ns").count(), 1);
    }

    #[test]
    fn clones_share_registry_and_subscriber() {
        let obs = Obs::new();
        let clone = obs.clone();
        clone.registry().counter("shared_total").inc();
        assert_eq!(obs.registry().snapshot().counters["shared_total"], 1);
        let rb = Arc::new(RingBuffer::new(4));
        obs.set_subscriber(rb.clone());
        event!(clone, "t", "n");
        assert_eq!(rb.len(), 1);
    }
}
