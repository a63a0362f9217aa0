//! Event sink and recorder.
//!
//! Instrumented code holds a [`Sink`]. When the sink is [`Sink::Off`]
//! (the default, a unit variant) every probe is one branch and nothing
//! else — no event construction, no allocation. When on, probes fold
//! into a [`Recorder`]: per-name span accumulators with fixed-bucket
//! histograms (always), plus the raw event list when span collection is
//! enabled for trace export.

use crate::hist::Histogram;
use std::collections::BTreeMap;

/// Interned name handle. Instrumented code interns names once at
/// attach time and passes the id on the hot path.
pub type NameId = u16;

/// One recorded span (or instant event, when `dur == 0`).
///
/// `start`/`dur` are in the *recorder's* time unit — machine cycles
/// for engine/sim recorders, simulated milliseconds for netstack
/// interface recorders. A recorder never mixes units; the exporter is
/// told the unit scale per recorder ([`crate::TracePart::units_per_us`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpanEvent {
    /// Interned name (also the exported thread id, so each name gets
    /// its own row in `chrome://tracing`).
    pub name: NameId,
    /// Start timestamp, simulated units.
    pub start: u64,
    /// Duration in simulated units; `0` marks an instant event.
    pub dur: u64,
    /// Messages covered by this span (batch size; `1` for per-message
    /// disciplines, `0` for instant events).
    pub batch: u32,
    /// Event-specific annotation (e.g. NIC queue depth after batch
    /// formation); `0` when unused.
    pub aux: u64,
    /// I-cache misses charged within the span.
    pub imisses: u64,
    /// D-cache misses charged within the span.
    pub dmisses: u64,
}

impl SpanEvent {
    /// An instant event (no duration, no batch).
    pub fn instant(name: NameId, ts: u64) -> Self {
        SpanEvent {
            name,
            start: ts,
            dur: 0,
            batch: 0,
            aux: 0,
            imisses: 0,
            dmisses: 0,
        }
    }
}

/// Running totals and histograms for all spans sharing one name.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SpanAccum {
    /// Spans folded in.
    pub spans: u64,
    /// Sum of span batch sizes (messages covered).
    pub messages: u64,
    /// Sum of span durations (simulated units).
    pub cycles: u64,
    /// Sum of I-cache misses charged.
    pub imisses: u64,
    /// Sum of D-cache misses charged.
    pub dmisses: u64,
    /// Distribution of span durations.
    pub dur_hist: Histogram,
    /// Distribution of per-span I-miss counts.
    pub imiss_hist: Histogram,
    /// Distribution of per-span D-miss counts.
    pub dmiss_hist: Histogram,
}

impl SpanAccum {
    #[inline]
    fn fold(&mut self, ev: &SpanEvent) {
        self.spans += 1;
        self.messages += u64::from(ev.batch);
        self.cycles = self.cycles.saturating_add(ev.dur);
        self.imisses += ev.imisses;
        self.dmisses += ev.dmisses;
        self.dur_hist.record(ev.dur);
        self.imiss_hist.record(ev.imisses);
        self.dmiss_hist.record(ev.dmisses);
    }

    fn merge(&mut self, other: &SpanAccum) {
        self.spans += other.spans;
        self.messages += other.messages;
        self.cycles = self.cycles.saturating_add(other.cycles);
        self.imisses += other.imisses;
        self.dmisses += other.dmisses;
        self.dur_hist.merge(&other.dur_hist);
        self.imiss_hist.merge(&other.imiss_hist);
        self.dmiss_hist.merge(&other.dmiss_hist);
    }

    /// True when no span has been folded in.
    pub fn is_empty(&self) -> bool {
        self.spans == 0
    }
}

/// Collects spans and named value distributions for one run.
///
/// Names are interned up front ([`Recorder::intern`], which may
/// allocate); the hot-path entry points ([`Recorder::span`],
/// [`Recorder::record_value`]) only index preallocated tables — unless
/// span collection is enabled, in which case events append to a `Vec`
/// (trace mode is explicitly not alloc-free).
#[derive(Debug, Clone, Default)]
pub struct Recorder {
    collect_spans: bool,
    names: Vec<String>,
    ids: BTreeMap<String, NameId>,
    spans: Vec<SpanAccum>,
    values: Vec<Histogram>,
    events: Vec<SpanEvent>,
}

impl Recorder {
    /// New recorder; `collect_spans` keeps the raw event list for
    /// trace export (metrics-only callers pass `false`).
    pub fn new(collect_spans: bool) -> Self {
        Recorder {
            collect_spans,
            ..Recorder::default()
        }
    }

    /// Interns a name, reusing the id if it is already known. Ids are
    /// dense and assigned in first-intern order, which instrumented
    /// code drives deterministically. Once the (absurd) 65 535-name
    /// table is full, further names collapse onto the last id rather
    /// than growing unboundedly.
    pub fn intern(&mut self, name: &str) -> NameId {
        if let Some(&id) = self.ids.get(name) {
            return id;
        }
        if self.names.len() >= usize::from(NameId::MAX) {
            return NameId::MAX - 1;
        }
        let id = self.names.len() as NameId;
        self.names.push(name.to_string());
        self.ids.insert(name.to_string(), id);
        self.spans.push(SpanAccum::default());
        self.values.push(Histogram::new());
        id
    }

    /// Name for an id (`"?"` for an unknown id).
    pub fn name(&self, id: NameId) -> &str {
        self.names
            .get(usize::from(id))
            .map(String::as_str)
            .unwrap_or("?")
    }

    /// Records a span: folds it into the per-name accumulator and, in
    /// span-collection mode, appends it to the event list.
    #[inline]
    pub fn span(&mut self, ev: SpanEvent) {
        if let Some(acc) = self.spans.get_mut(usize::from(ev.name)) {
            acc.fold(&ev);
        }
        if self.collect_spans {
            // analyze::allow(alloc-path, reason = "span events are opt-in (collect_spans); metrics-only runs fold into fixed accumulators")
            self.events.push(ev);
        }
    }

    /// Records an instant event (duration 0).
    #[inline]
    pub fn instant(&mut self, name: NameId, ts: u64) {
        self.span(SpanEvent::instant(name, ts));
    }

    /// Records one sample into the named value histogram (e.g. a
    /// per-message latency in microseconds).
    #[inline]
    pub fn record_value(&mut self, name: NameId, v: u64) {
        if let Some(h) = self.values.get_mut(usize::from(name)) {
            h.record(v);
        }
    }

    /// Raw events, in record order (empty unless span collection is on).
    pub fn events(&self) -> &[SpanEvent] {
        &self.events
    }

    /// `(name, accum)` pairs in id (first-intern) order.
    pub fn iter_spans(&self) -> impl Iterator<Item = (&str, &SpanAccum)> {
        self.names
            .iter()
            .map(String::as_str)
            .zip(self.spans.iter())
    }

    /// `(name, histogram)` pairs in id (first-intern) order.
    pub fn iter_values(&self) -> impl Iterator<Item = (&str, &Histogram)> {
        self.names
            .iter()
            .map(String::as_str)
            .zip(self.values.iter())
    }

    /// Folds another recorder's accumulators and value histograms into
    /// this one, matching by *name* (ids may differ between
    /// recorders). Callers merge per-seed recorders in seed order;
    /// because everything here is integer arithmetic the result is
    /// exact and thread-count independent. Raw events are *not*
    /// merged: event timelines from different runs do not share a
    /// clock origin.
    pub fn merge(&mut self, other: &Recorder) {
        for (oid, name) in other.names.iter().enumerate() {
            let id = self.intern(name);
            if let (Some(dst), Some(src)) =
                (self.spans.get_mut(usize::from(id)), other.spans.get(oid))
            {
                dst.merge(src);
            }
            if let (Some(dst), Some(src)) =
                (self.values.get_mut(usize::from(id)), other.values.get(oid))
            {
                dst.merge(src);
            }
        }
    }
}

/// The sink instrumented code holds. [`Sink::Off`] — the default — is
/// the no-op unit state: probes check `is_on()` (one branch) and do
/// nothing else, so the hot path stays zero-alloc and zero-cost.
#[derive(Debug, Default)]
pub enum Sink {
    /// Observability disabled; every probe is a no-op.
    #[default]
    Off,
    /// Observability enabled, recording into the boxed recorder.
    On(Box<Recorder>),
}

impl Sink {
    /// An enabled sink; `collect_spans` as in [`Recorder::new`].
    pub fn record(collect_spans: bool) -> Self {
        // analyze::allow(alloc-path, reason = "one-time sink construction; the hot-path edge is a name collision with Recorder::record_value")
        Sink::On(Box::new(Recorder::new(collect_spans)))
    }

    /// Whether the sink records anything.
    #[inline]
    pub fn is_on(&self) -> bool {
        matches!(self, Sink::On(_))
    }

    /// Mutable recorder access; `None` when off. Hot paths write
    /// `if let Some(rec) = sink.on_mut() { ... }` so the disabled case
    /// is a single branch.
    #[inline]
    pub fn on_mut(&mut self) -> Option<&mut Recorder> {
        match self {
            Sink::Off => None,
            Sink::On(rec) => Some(rec),
        }
    }

    /// Shared recorder access; `None` when off.
    pub fn recorder(&self) -> Option<&Recorder> {
        match self {
            Sink::Off => None,
            Sink::On(rec) => Some(rec),
        }
    }

    /// Consumes the sink, yielding the recorder when on.
    pub fn into_recorder(self) -> Option<Box<Recorder>> {
        match self {
            Sink::Off => None,
            Sink::On(rec) => Some(rec),
        }
    }

    /// Replaces the sink with [`Sink::Off`] and returns the previous
    /// state.
    pub fn take(&mut self) -> Sink {
        std::mem::take(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(name: NameId, start: u64, dur: u64, batch: u32, im: u64, dm: u64) -> SpanEvent {
        SpanEvent {
            name,
            start,
            dur,
            batch,
            aux: 0,
            imisses: im,
            dmisses: dm,
        }
    }

    #[test]
    fn intern_dedups_and_assigns_dense_ids() {
        let mut r = Recorder::new(false);
        let a = r.intern("rx:ip");
        let b = r.intern("rx:udp");
        assert_eq!(r.intern("rx:ip"), a);
        assert_eq!((a, b), (0, 1));
        assert_eq!(r.name(a), "rx:ip");
        assert_eq!(r.name(999), "?");
    }

    #[test]
    fn spans_fold_into_accumulators() {
        let mut r = Recorder::new(false);
        let id = r.intern("rx:ip");
        r.span(ev(id, 100, 50, 14, 3, 7));
        r.span(ev(id, 200, 30, 14, 1, 2));
        let (_, acc) = r.iter_spans().find(|&(n, _)| n == "rx:ip").unwrap();
        assert_eq!(acc.spans, 2);
        assert_eq!(acc.messages, 28);
        assert_eq!(acc.cycles, 80);
        assert_eq!(acc.imisses, 4);
        assert_eq!(acc.dmisses, 9);
        assert_eq!(acc.dur_hist.count(), 2);
        // Metrics-only mode keeps no raw events.
        assert!(r.events().is_empty());
    }

    #[test]
    fn span_collection_keeps_raw_events_in_order() {
        let mut r = Recorder::new(true);
        let id = r.intern("batch");
        r.span(ev(id, 10, 5, 2, 0, 0));
        r.instant(id, 99);
        assert_eq!(r.events().len(), 2);
        assert_eq!(r.events()[0].start, 10);
        assert_eq!(r.events()[1].dur, 0);
    }

    #[test]
    fn merge_matches_by_name_across_different_id_orders() {
        let mut a = Recorder::new(false);
        let a_ip = a.intern("rx:ip");
        let a_udp = a.intern("rx:udp");
        a.span(ev(a_ip, 0, 10, 1, 1, 1));
        a.span(ev(a_udp, 0, 20, 1, 2, 2));
        a.record_value(a_ip, 7);

        // Same names interned in the opposite order.
        let mut b = Recorder::new(false);
        let b_udp = b.intern("rx:udp");
        let b_ip = b.intern("rx:ip");
        b.span(ev(b_udp, 0, 200, 1, 20, 20));
        b.span(ev(b_ip, 0, 100, 1, 10, 10));
        b.record_value(b_ip, 9);

        a.merge(&b);
        let mut spans = a.iter_spans();
        let (_, ip) = spans.next().unwrap();
        let (_, udp) = spans.next().unwrap();
        assert_eq!((ip.cycles, ip.imisses), (110, 11), "a's ids are kept: rx:ip first");
        assert_eq!((udp.cycles, udp.imisses), (220, 22));
        let (_, vh) = a.iter_values().next().unwrap();
        assert_eq!((vh.count(), vh.sum()), (2, 16));
    }

    #[test]
    fn off_sink_is_the_default_and_reports_nothing() {
        let mut s = Sink::default();
        assert!(!s.is_on());
        assert!(s.on_mut().is_none());
        assert!(s.recorder().is_none());
        assert!(s.take().into_recorder().is_none());

        let mut on = Sink::record(false);
        assert!(on.is_on());
        assert!(on.on_mut().is_some());
        let prev = on.take();
        assert!(!on.is_on(), "take() leaves the sink Off");
        assert!(prev.into_recorder().is_some());
    }
}
