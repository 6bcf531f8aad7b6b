//! Deterministic structured telemetry for the Volt Boot stack.
//!
//! Attack campaigns need per-step timings, counters, and an event log
//! that are **byte-identical across runs with the same seed** — a hard
//! requirement for the campaign report, and one wall-clock timestamps
//! can never meet. This crate therefore records against a *virtual*
//! clock: simulated components advance it by their modelled durations
//! (a 500 ms power-off interval advances it 500 ms, a `RAMINDEX` beat
//! advances it a few hundred nanoseconds), so span durations are exact
//! functions of what the simulation did, not of host scheduling.
//!
//! The API is a cheap cloneable handle, [`Recorder`]; a disabled
//! recorder ([`Recorder::disabled`]) makes every operation a no-op so
//! instrumented hot paths cost nothing when nobody is listening.
//!
//! Beyond flat counters, the recorder keeps:
//!
//! * a **trace tree** — every [`Span`] gets a stable id, a parent link
//!   (the innermost span open at the time), and typed key/value
//!   attributes ([`AttrValue`]), retained up to a configurable cap
//!   with a dropped-span counter ([`export`] renders the tree as a
//!   Chrome trace or a flamegraph);
//! * **log-bucketed histograms** ([`hist::Histogram`]) with exact
//!   from-bucket quantiles, for latency/retry/decay distributions;
//! * **gauges** — last-written named values;
//! * **waveform channels** — `(virtual time, value)` samples, the
//!   oscilloscope view of the PDN model's rail voltages and currents.
//!
//! ```rust
//! use voltboot_telemetry::Recorder;
//!
//! let rec = Recorder::new();
//! {
//!     let span = rec.span("power-cycle");
//!     span.attr("rail", "VDD_CORE");
//!     rec.advance(500_000_000); // the modelled 500 ms off interval
//!     rec.incr("rails_held", 1);
//!     rec.record("off_ns", 500_000_000);
//! }
//! assert_eq!(rec.counter("rails_held"), 1);
//! assert_eq!(rec.timings()["power-cycle"].total_ns, 500_000_000);
//! assert_eq!(rec.spans()[0].name, "power-cycle");
//! ```
//!
//! # The fork/absorb merge invariant
//!
//! [`Recorder::fork`] hands a parallel worker a fresh store with the
//! clock at zero; [`Recorder::absorb`] splices it back *as if the
//! fork's work had happened now, sequentially*: timestamps shift by the
//! parent clock, span ids shift by the parent's next id (parent links
//! move with them), events are re-sequenced, and counters, timings, and
//! histogram buckets add (all commutative). Absorbing forks in the
//! order their work would have run sequentially reproduces the
//! sequential recorder's export byte-for-byte — including the trace
//! tree, histograms, and waveforms.
//!
//! JSON export is hand-rolled ([`json`]): the workspace intentionally
//! carries no serde_json, and deterministic key ordering matters more
//! than generality here.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod export;
pub mod hist;
pub mod json;
pub mod metrics;
pub mod parse;

use hist::Histogram;
use std::collections::BTreeMap;
use std::sync::{Arc, Mutex, PoisonError};

/// Default maximum number of retained trace-tree spans.
pub const DEFAULT_SPAN_CAP: usize = 65_536;
/// Default maximum number of retained samples per waveform channel.
pub const DEFAULT_WAVE_CAP: usize = 65_536;

/// Accumulated timing of one named span: how many times it ran, the
/// total virtual nanoseconds spent inside it, and the shortest/longest
/// single run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct StepTiming {
    /// Number of completed spans with this name.
    pub count: u64,
    /// Total virtual nanoseconds across those spans.
    pub total_ns: u64,
    /// Shortest single span (0 when `count == 0`).
    pub min_ns: u64,
    /// Longest single span (0 when `count == 0`).
    pub max_ns: u64,
}

impl StepTiming {
    /// Folds one completed span of `elapsed` nanoseconds in.
    fn record(&mut self, elapsed: u64) {
        if self.count == 0 {
            self.min_ns = elapsed;
            self.max_ns = elapsed;
        } else {
            self.min_ns = self.min_ns.min(elapsed);
            self.max_ns = self.max_ns.max(elapsed);
        }
        self.count += 1;
        self.total_ns += elapsed;
    }

    /// Adds another accumulator's spans in (commutative).
    fn merge(&mut self, other: &StepTiming) {
        if other.count == 0 {
            return;
        }
        if self.count == 0 {
            *self = *other;
            return;
        }
        self.min_ns = self.min_ns.min(other.min_ns);
        self.max_ns = self.max_ns.max(other.max_ns);
        self.count += other.count;
        self.total_ns += other.total_ns;
    }
}

/// One timestamped event in the log.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EventRecord {
    /// Virtual timestamp in nanoseconds.
    pub at_ns: u64,
    /// Position in the totally-ordered log. Events that share a virtual
    /// timestamp (common: the clock only moves when a model advances
    /// it) stay in a stable, deterministic order under fork/absorb —
    /// the merge re-sequences, so `seq` is always the log index.
    pub seq: u64,
    /// Event name, e.g. `"fault.brownout"`.
    pub name: String,
    /// Human-readable detail.
    pub detail: String,
}

/// A typed span attribute value.
#[derive(Debug, Clone, PartialEq)]
pub enum AttrValue {
    /// Boolean flag.
    Bool(bool),
    /// Unsigned integer.
    U64(u64),
    /// Signed integer.
    I64(i64),
    /// Floating-point number.
    F64(f64),
    /// String.
    Str(String),
}

impl AttrValue {
    /// The attribute as a [`json::Value`].
    pub fn to_value(&self) -> json::Value {
        match self {
            AttrValue::Bool(b) => json::Value::Bool(*b),
            AttrValue::U64(n) => json::Value::UInt(*n),
            AttrValue::I64(n) => json::Value::Int(*n),
            AttrValue::F64(x) => json::Value::Float(*x),
            AttrValue::Str(s) => json::Value::Str(s.clone()),
        }
    }

    /// Rebuilds an attribute from the JSON shape `to_value` emits.
    pub fn from_value(v: &json::Value) -> Option<AttrValue> {
        match v {
            json::Value::Bool(b) => Some(AttrValue::Bool(*b)),
            json::Value::UInt(n) => Some(AttrValue::U64(*n)),
            json::Value::Int(n) => Some(AttrValue::I64(*n)),
            json::Value::Float(x) => Some(AttrValue::F64(*x)),
            json::Value::Str(s) => Some(AttrValue::Str(s.clone())),
            _ => None,
        }
    }
}

impl From<bool> for AttrValue {
    fn from(v: bool) -> Self {
        AttrValue::Bool(v)
    }
}
impl From<u64> for AttrValue {
    fn from(v: u64) -> Self {
        AttrValue::U64(v)
    }
}
impl From<u32> for AttrValue {
    fn from(v: u32) -> Self {
        AttrValue::U64(u64::from(v))
    }
}
impl From<usize> for AttrValue {
    fn from(v: usize) -> Self {
        AttrValue::U64(v as u64)
    }
}
impl From<i64> for AttrValue {
    fn from(v: i64) -> Self {
        AttrValue::I64(v)
    }
}
impl From<f64> for AttrValue {
    fn from(v: f64) -> Self {
        AttrValue::F64(v)
    }
}
impl From<&str> for AttrValue {
    fn from(v: &str) -> Self {
        AttrValue::Str(v.to_string())
    }
}
impl From<String> for AttrValue {
    fn from(v: String) -> Self {
        AttrValue::Str(v)
    }
}

/// One node of the trace tree: a span's identity, position, extent on
/// the virtual clock, and attributes.
#[derive(Debug, Clone, PartialEq)]
pub struct SpanRecord {
    /// Stable id, assigned in open order. Ids survive fork/absorb: the
    /// merge shifts a fork's ids past the parent's, so the merged tree
    /// is byte-identical to sequential recording.
    pub id: u64,
    /// Id of the innermost span that was open when this one opened
    /// (`None` for a root). A parent's id is always smaller than its
    /// children's.
    pub parent: Option<u64>,
    /// Span name.
    pub name: String,
    /// Virtual open time.
    pub start_ns: u64,
    /// Virtual close time (`== start_ns` until the span closes).
    pub end_ns: u64,
    /// Typed attributes in insertion order.
    pub attrs: Vec<(String, AttrValue)>,
}

/// One waveform sample: a value on the virtual clock.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WaveSample {
    /// Virtual timestamp in nanoseconds.
    pub at_ns: u64,
    /// Sampled value (volts, amps — channel-defined).
    pub value: f64,
}

#[derive(Debug, Clone)]
struct Inner {
    clock_ns: u64,
    counters: BTreeMap<String, u64>,
    gauges: BTreeMap<String, f64>,
    timings: BTreeMap<String, StepTiming>,
    hists: BTreeMap<String, Histogram>,
    events: Vec<EventRecord>,
    next_event_seq: u64,
    spans: Vec<SpanRecord>,
    next_span_id: u64,
    open_spans: Vec<u64>,
    span_cap: usize,
    spans_dropped: u64,
    waves: BTreeMap<String, Vec<WaveSample>>,
    wave_cap: usize,
    waves_dropped: u64,
}

impl Inner {
    fn with_caps(span_cap: usize, wave_cap: usize) -> Self {
        Inner {
            clock_ns: 0,
            counters: BTreeMap::new(),
            gauges: BTreeMap::new(),
            timings: BTreeMap::new(),
            hists: BTreeMap::new(),
            events: Vec::new(),
            next_event_seq: 0,
            spans: Vec::new(),
            next_span_id: 0,
            open_spans: Vec::new(),
            span_cap,
            spans_dropped: 0,
            waves: BTreeMap::new(),
            wave_cap,
            waves_dropped: 0,
        }
    }

    fn span_mut(&mut self, id: u64) -> Option<&mut SpanRecord> {
        // Spans are appended in id order (fork merges shift ids past the
        // parent's), so lookup is a binary search.
        let idx = self.spans.binary_search_by_key(&id, |n| n.id).ok()?;
        Some(&mut self.spans[idx])
    }
}

impl Default for Inner {
    fn default() -> Self {
        Inner::with_caps(DEFAULT_SPAN_CAP, DEFAULT_WAVE_CAP)
    }
}

/// A cheap cloneable telemetry sink with a virtual clock.
///
/// Clones share the same underlying store, so a recorder can be handed
/// across crate layers (attack → SoC → PDN → SRAM engine) and every
/// layer contributes to one report. Counter increments and histogram
/// records are commutative, which keeps totals deterministic even when
/// arrays resolve on worker threads.
#[derive(Debug, Clone, Default)]
pub struct Recorder {
    inner: Option<Arc<Mutex<Inner>>>,
}

impl Recorder {
    /// Creates an enabled recorder with the virtual clock at zero and
    /// default retention caps.
    pub fn new() -> Self {
        Recorder { inner: Some(Arc::new(Mutex::new(Inner::default()))) }
    }

    /// [`Recorder::new`] with explicit retention caps: at most
    /// `span_cap` trace-tree spans and `wave_cap` samples per waveform
    /// channel are kept; overflow is counted, not stored (earliest
    /// records win, so the caps cannot break the fork/absorb merge
    /// invariant). Forks inherit the caps.
    pub fn with_caps(span_cap: usize, wave_cap: usize) -> Self {
        Recorder { inner: Some(Arc::new(Mutex::new(Inner::with_caps(span_cap, wave_cap)))) }
    }

    /// A recorder that drops everything. All operations are no-ops.
    pub fn disabled() -> Self {
        Recorder { inner: None }
    }

    /// Whether this recorder stores anything.
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    fn with<R: Default>(&self, f: impl FnOnce(&mut Inner) -> R) -> R {
        match &self.inner {
            // Recover a poisoned store instead of propagating the panic:
            // every mutation is append-only or a single in-place write,
            // so a writer that panicked mid-closure leaves the store
            // consistent (at worst missing its last entry). A campaign
            // worker's panic must degrade that one repetition, not turn
            // every later telemetry call — including the scheduler's
            // drop-guard cleanup path — into a process abort.
            Some(inner) => f(&mut inner.lock().unwrap_or_else(PoisonError::into_inner)),
            None => R::default(),
        }
    }

    /// Advances the virtual clock by `ns` nanoseconds.
    pub fn advance(&self, ns: u64) {
        self.with(|i| i.clock_ns = i.clock_ns.saturating_add(ns));
    }

    /// Current virtual time in nanoseconds.
    pub fn now_ns(&self) -> u64 {
        self.with(|i| i.clock_ns)
    }

    /// Adds `by` to the named counter.
    pub fn incr(&self, name: &str, by: u64) {
        self.with(|i| {
            *i.counters.entry(name.to_string()).or_insert(0) += by;
        });
    }

    /// Reads one counter (0 if never incremented).
    pub fn counter(&self, name: &str) -> u64 {
        self.with(|i| i.counters.get(name).copied().unwrap_or(0))
    }

    /// Sets a gauge to `value` (last write wins; a fork's writes win
    /// over the parent's at absorb, matching sequential order).
    pub fn gauge(&self, name: &str, value: f64) {
        self.with(|i| {
            i.gauges.insert(name.to_string(), value);
        });
    }

    /// Reads one gauge, if ever set.
    pub fn gauge_value(&self, name: &str) -> Option<f64> {
        self.with(|i| i.gauges.get(name).copied())
    }

    /// Records `value` into the named log-bucketed histogram.
    /// Histogram merges are commutative, so worker threads may record
    /// concurrently without breaking determinism (unlike events/spans).
    pub fn record(&self, name: &str, value: u64) {
        self.with(|i| i.hists.entry(name.to_string()).or_default().record(value));
    }

    /// Snapshot of one histogram, if any samples were recorded.
    pub fn histogram(&self, name: &str) -> Option<Histogram> {
        self.with(|i| i.hists.get(name).cloned())
    }

    /// Appends a timestamped event to the log.
    pub fn event(&self, name: &str, detail: &str) {
        self.with(|i| {
            let at_ns = i.clock_ns;
            let seq = i.next_event_seq;
            i.next_event_seq += 1;
            i.events.push(EventRecord {
                at_ns,
                seq,
                name: name.to_string(),
                detail: detail.to_string(),
            });
        });
    }

    /// Appends a sample to the named waveform channel at the current
    /// virtual time.
    pub fn sample(&self, channel: &str, value: f64) {
        self.with(|i| {
            let at_ns = i.clock_ns;
            Self::push_sample(i, channel, WaveSample { at_ns, value });
        });
    }

    /// Appends a sample to the named waveform channel at an explicit
    /// virtual timestamp — how the PDN transient model records the
    /// intra-step droop/recovery shape before advancing the clock past
    /// the whole surge window.
    pub fn sample_at(&self, channel: &str, at_ns: u64, value: f64) {
        self.with(|i| Self::push_sample(i, channel, WaveSample { at_ns, value }));
    }

    fn push_sample(i: &mut Inner, channel: &str, sample: WaveSample) {
        let cap = i.wave_cap;
        let slot = i.waves.entry(channel.to_string()).or_default();
        if slot.len() < cap {
            slot.push(sample);
        } else {
            i.waves_dropped += 1;
        }
    }

    /// Opens a named span. The span records its virtual duration into
    /// the timing table when dropped (or explicitly [`Span::end`]ed)
    /// and becomes a node of the trace tree, parented under the
    /// innermost span currently open on this recorder.
    pub fn span(&self, name: &str) -> Span {
        let (id, start_ns) = self.with(|i| {
            let id = i.next_span_id;
            i.next_span_id += 1;
            let parent = i.open_spans.last().copied();
            let node = SpanRecord {
                id,
                parent,
                name: name.to_string(),
                start_ns: i.clock_ns,
                end_ns: i.clock_ns,
                attrs: Vec::new(),
            };
            if i.spans.len() < i.span_cap {
                i.spans.push(node);
            } else {
                i.spans_dropped += 1;
            }
            i.open_spans.push(id);
            (id, i.clock_ns)
        });
        Span { rec: self.clone(), name: name.to_string(), id, start_ns, open: true }
    }

    /// A fresh, independent sub-recorder: its own store, virtual clock at
    /// zero, enabled exactly when `self` is, with the same retention
    /// caps. A parallel campaign hands one fork to each repetition so
    /// workers never contend on (or interleave into) the parent store;
    /// [`Recorder::absorb`] merges the forks back in deterministic order.
    pub fn fork(&self) -> Recorder {
        match &self.inner {
            Some(inner) => {
                let (span_cap, wave_cap) = {
                    let i = inner.lock().unwrap_or_else(PoisonError::into_inner);
                    (i.span_cap, i.wave_cap)
                };
                Recorder::with_caps(span_cap, wave_cap)
            }
            None => Recorder::disabled(),
        }
    }

    /// Merges a forked sub-recorder into this one as if everything the
    /// fork recorded had happened *now*, sequentially: the fork's
    /// events are appended with their timestamps shifted by this
    /// recorder's current clock and re-sequenced (so same-timestamp
    /// events keep a stable total order); its trace tree is spliced in
    /// with span ids shifted past this recorder's next id, parent links
    /// moving with them, and fork roots re-parented under the innermost
    /// span open here; counters, span timings, and histogram buckets
    /// are added (all commutative); gauges take the fork's (later)
    /// value; waveform samples shift like events; and the clock
    /// advances by the fork's total elapsed time. Retention caps
    /// re-apply during the splice, so capped merges still match a
    /// capped sequential run.
    ///
    /// Absorbing forks in the order their work would have run
    /// sequentially reproduces the sequential recorder's export
    /// byte-for-byte — the invariant the parallel campaign scheduler's
    /// byte-identical reports rest on.
    pub fn absorb(&self, sub: &Recorder) {
        let Some(sub_inner) = &sub.inner else { return };
        // A fork whose worker panicked mid-write still absorbs: the
        // store is append-only, so the poisoned snapshot is consistent.
        let snap = sub_inner.lock().unwrap_or_else(PoisonError::into_inner).clone();
        self.with(|i| {
            let base = i.clock_ns;
            let id_shift = i.next_span_id;
            let reparent = i.open_spans.last().copied();
            for e in snap.events {
                let seq = i.next_event_seq;
                i.next_event_seq += 1;
                i.events.push(EventRecord {
                    at_ns: base.saturating_add(e.at_ns),
                    seq,
                    name: e.name,
                    detail: e.detail,
                });
            }
            for (k, v) in snap.counters {
                *i.counters.entry(k).or_insert(0) += v;
            }
            for (k, g) in snap.gauges {
                i.gauges.insert(k, g);
            }
            for (k, t) in snap.timings {
                i.timings.entry(k).or_default().merge(&t);
            }
            for (k, h) in snap.hists {
                i.hists.entry(k).or_default().merge(&h);
            }
            for node in snap.spans {
                let spliced = SpanRecord {
                    id: node.id + id_shift,
                    parent: node.parent.map(|p| p + id_shift).or(reparent),
                    name: node.name,
                    start_ns: base.saturating_add(node.start_ns),
                    end_ns: base.saturating_add(node.end_ns),
                    attrs: node.attrs,
                };
                if i.spans.len() < i.span_cap {
                    i.spans.push(spliced);
                } else {
                    i.spans_dropped += 1;
                }
            }
            i.next_span_id += snap.next_span_id;
            i.spans_dropped += snap.spans_dropped;
            let cap = i.wave_cap;
            let mut overflow = 0u64;
            for (chan, samples) in snap.waves {
                let slot = i.waves.entry(chan).or_default();
                for s in samples {
                    if slot.len() < cap {
                        slot.push(WaveSample {
                            at_ns: base.saturating_add(s.at_ns),
                            value: s.value,
                        });
                    } else {
                        overflow += 1;
                    }
                }
            }
            i.waves_dropped += overflow + snap.waves_dropped;
            i.clock_ns = base.saturating_add(snap.clock_ns);
        });
    }

    /// Snapshot of all counters.
    pub fn counters(&self) -> BTreeMap<String, u64> {
        self.with(|i| i.counters.clone())
    }

    /// Snapshot of all gauges.
    pub fn gauges(&self) -> BTreeMap<String, f64> {
        self.with(|i| i.gauges.clone())
    }

    /// Snapshot of all span timings.
    pub fn timings(&self) -> BTreeMap<String, StepTiming> {
        self.with(|i| i.timings.clone())
    }

    /// Snapshot of all histograms.
    pub fn histograms(&self) -> BTreeMap<String, Histogram> {
        self.with(|i| i.hists.clone())
    }

    /// Snapshot of the event log.
    pub fn events(&self) -> Vec<EventRecord> {
        self.with(|i| i.events.clone())
    }

    /// Snapshot of the trace tree, in span-id order.
    pub fn spans(&self) -> Vec<SpanRecord> {
        self.with(|i| i.spans.clone())
    }

    /// Spans discarded by the retention cap.
    pub fn spans_dropped(&self) -> u64 {
        self.with(|i| i.spans_dropped)
    }

    /// Snapshot of all waveform channels.
    pub fn waveforms(&self) -> BTreeMap<String, Vec<WaveSample>> {
        self.with(|i| i.waves.clone())
    }

    /// Waveform samples discarded by the per-channel retention cap.
    pub fn waves_dropped(&self) -> u64 {
        self.with(|i| i.waves_dropped)
    }

    /// The whole store as a deterministic [`json::Value`] object with
    /// `clock_ns`, `counters`, `gauges`, `timings`, `hists`, `events`,
    /// `spans`, and `waves` keys.
    pub fn to_value(&self) -> json::Value {
        let counters =
            self.counters().into_iter().map(|(k, v)| (k, json::Value::from(v))).collect::<Vec<_>>();
        let gauges =
            self.gauges().into_iter().map(|(k, v)| (k, json::Value::from(v))).collect::<Vec<_>>();
        let timings = self
            .timings()
            .into_iter()
            .map(|(k, t)| {
                let obj = json::Value::object(vec![
                    ("count", json::Value::from(t.count)),
                    ("total_ns", json::Value::from(t.total_ns)),
                    ("min_ns", json::Value::from(t.min_ns)),
                    ("max_ns", json::Value::from(t.max_ns)),
                ]);
                (k, obj)
            })
            .collect::<Vec<_>>();
        let hists =
            self.histograms().into_iter().map(|(k, h)| (k, h.to_value())).collect::<Vec<_>>();
        let events = self
            .events()
            .into_iter()
            .map(|e| {
                json::Value::object(vec![
                    ("at_ns", json::Value::from(e.at_ns)),
                    ("seq", json::Value::from(e.seq)),
                    ("name", json::Value::from(e.name)),
                    ("detail", json::Value::from(e.detail)),
                ])
            })
            .collect::<Vec<_>>();
        let nodes = self
            .spans()
            .into_iter()
            .map(|n| {
                let attrs = n.attrs.into_iter().map(|(k, v)| (k, v.to_value())).collect::<Vec<_>>();
                json::Value::object(vec![
                    ("id", json::Value::from(n.id)),
                    ("parent", n.parent.map(json::Value::from).unwrap_or(json::Value::Null)),
                    ("name", json::Value::from(n.name)),
                    ("start_ns", json::Value::from(n.start_ns)),
                    ("end_ns", json::Value::from(n.end_ns)),
                    ("attrs", json::Value::Object(attrs)),
                ])
            })
            .collect::<Vec<_>>();
        let (span_cap, wave_cap, next_span_id) =
            self.with(|i| (i.span_cap, i.wave_cap, i.next_span_id));
        let spans = json::Value::object(vec![
            ("cap", json::Value::from(span_cap)),
            ("dropped", json::Value::from(self.spans_dropped())),
            ("next_id", json::Value::from(next_span_id)),
            ("nodes", json::Value::Array(nodes)),
        ]);
        let channels = self
            .waveforms()
            .into_iter()
            .map(|(k, samples)| {
                let rows = samples
                    .into_iter()
                    .map(|s| {
                        json::Value::Array(vec![
                            json::Value::from(s.at_ns),
                            json::Value::from(s.value),
                        ])
                    })
                    .collect::<Vec<_>>();
                (k, json::Value::Array(rows))
            })
            .collect::<Vec<_>>();
        let waves = json::Value::object(vec![
            ("cap", json::Value::from(wave_cap)),
            ("dropped", json::Value::from(self.waves_dropped())),
            ("channels", json::Value::Object(channels)),
        ]);
        json::Value::object(vec![
            ("clock_ns", json::Value::from(self.now_ns())),
            ("counters", json::Value::Object(counters)),
            ("gauges", json::Value::Object(gauges)),
            ("timings", json::Value::Object(timings)),
            ("hists", json::Value::Object(hists)),
            ("events", json::Value::Array(events)),
            ("spans", spans),
            ("waves", waves),
        ])
    }

    /// [`Recorder::to_value`] rendered as a JSON string.
    pub fn to_json(&self) -> String {
        self.to_value().render()
    }

    /// Rebuilds a recorder from a [`Recorder::to_value`] export — the
    /// checkpoint/resume path. The restored recorder is enabled and
    /// carries the full exported state, so
    /// `Recorder::from_value(&rec.to_value())` is observationally
    /// identical to `rec` (`to_value` round-trips byte-exactly).
    ///
    /// Parsing is backward compatible with pre-trace-tree exports:
    /// missing `gauges`/`hists`/`spans`/`waves` sections default to
    /// empty, a timing without `min_ns`/`max_ns` gets the conservative
    /// bounds `[0, total_ns]`, and events without `seq` are numbered by
    /// log position.
    ///
    /// # Errors
    ///
    /// [`parse::ParseError`] naming the missing or mistyped field.
    pub fn from_value(v: &json::Value) -> Result<Recorder, parse::ParseError> {
        let schema = |detail: &str| parse::ParseError { at: 0, detail: detail.to_string() };
        let clock_ns = v
            .get("clock_ns")
            .and_then(json::Value::as_u64)
            .ok_or_else(|| schema("recorder: clock_ns must be a u64"))?;
        let mut counters = BTreeMap::new();
        for (k, c) in v
            .get("counters")
            .and_then(json::Value::as_object)
            .ok_or_else(|| schema("recorder: counters must be an object"))?
        {
            let n =
                c.as_u64().ok_or_else(|| schema(&format!("recorder: counter {k} not a u64")))?;
            counters.insert(k.clone(), n);
        }
        let mut gauges = BTreeMap::new();
        if let Some(gv) = v.get("gauges") {
            for (k, g) in
                gv.as_object().ok_or_else(|| schema("recorder: gauges must be an object"))?
            {
                let x = g
                    .as_f64()
                    .ok_or_else(|| schema(&format!("recorder: gauge {k} not a number")))?;
                gauges.insert(k.clone(), x);
            }
        }
        let mut timings = BTreeMap::new();
        for (k, t) in v
            .get("timings")
            .and_then(json::Value::as_object)
            .ok_or_else(|| schema("recorder: timings must be an object"))?
        {
            let count = t
                .get("count")
                .and_then(json::Value::as_u64)
                .ok_or_else(|| schema(&format!("recorder: timing {k} missing count")))?;
            let total_ns = t
                .get("total_ns")
                .and_then(json::Value::as_u64)
                .ok_or_else(|| schema(&format!("recorder: timing {k} missing total_ns")))?;
            // Pre-min/max exports: the tightest bounds any mix of spans
            // summing to total_ns admits.
            let min_ns = t.get("min_ns").and_then(json::Value::as_u64).unwrap_or(0);
            let max_ns = t.get("max_ns").and_then(json::Value::as_u64).unwrap_or(total_ns);
            timings.insert(k.clone(), StepTiming { count, total_ns, min_ns, max_ns });
        }
        let mut hists = BTreeMap::new();
        if let Some(hv) = v.get("hists") {
            for (k, h) in
                hv.as_object().ok_or_else(|| schema("recorder: hists must be an object"))?
            {
                hists.insert(k.clone(), Histogram::from_value(h)?);
            }
        }
        let mut events = Vec::new();
        for (idx, e) in v
            .get("events")
            .and_then(json::Value::as_array)
            .ok_or_else(|| schema("recorder: events must be an array"))?
            .iter()
            .enumerate()
        {
            events.push(EventRecord {
                at_ns: e
                    .get("at_ns")
                    .and_then(json::Value::as_u64)
                    .ok_or_else(|| schema("recorder: event missing at_ns"))?,
                seq: e.get("seq").and_then(json::Value::as_u64).unwrap_or(idx as u64),
                name: e
                    .get("name")
                    .and_then(json::Value::as_str)
                    .ok_or_else(|| schema("recorder: event missing name"))?
                    .to_string(),
                detail: e
                    .get("detail")
                    .and_then(json::Value::as_str)
                    .ok_or_else(|| schema("recorder: event missing detail"))?
                    .to_string(),
            });
        }
        let next_event_seq = events.len() as u64;
        let mut spans = Vec::new();
        let mut span_cap = DEFAULT_SPAN_CAP;
        let mut spans_dropped = 0;
        let mut next_span_id = 0;
        if let Some(sv) = v.get("spans") {
            sv.as_object().ok_or_else(|| schema("recorder: spans must be an object"))?;
            span_cap = usize::try_from(
                sv.get("cap")
                    .and_then(json::Value::as_u64)
                    .ok_or_else(|| schema("recorder: spans.cap must be a u64"))?,
            )
            .map_err(|_| schema("recorder: spans.cap out of range"))?;
            spans_dropped = sv
                .get("dropped")
                .and_then(json::Value::as_u64)
                .ok_or_else(|| schema("recorder: spans.dropped must be a u64"))?;
            next_span_id = sv
                .get("next_id")
                .and_then(json::Value::as_u64)
                .ok_or_else(|| schema("recorder: spans.next_id must be a u64"))?;
            for n in sv
                .get("nodes")
                .and_then(json::Value::as_array)
                .ok_or_else(|| schema("recorder: spans.nodes must be an array"))?
            {
                let field = |name: &str| {
                    n.get(name)
                        .and_then(json::Value::as_u64)
                        .ok_or_else(|| schema(&format!("recorder: span missing {name}")))
                };
                let parent = match n.get("parent") {
                    Some(json::Value::Null) | None => None,
                    Some(p) => {
                        Some(p.as_u64().ok_or_else(|| schema("recorder: span parent not a u64"))?)
                    }
                };
                let mut attrs = Vec::new();
                if let Some(av) = n.get("attrs") {
                    for (k, raw) in av
                        .as_object()
                        .ok_or_else(|| schema("recorder: span attrs must be an object"))?
                    {
                        let val = AttrValue::from_value(raw).ok_or_else(|| {
                            schema(&format!("recorder: span attr {k} has unsupported type"))
                        })?;
                        attrs.push((k.clone(), val));
                    }
                }
                spans.push(SpanRecord {
                    id: field("id")?,
                    parent,
                    name: n
                        .get("name")
                        .and_then(json::Value::as_str)
                        .ok_or_else(|| schema("recorder: span missing name"))?
                        .to_string(),
                    start_ns: field("start_ns")?,
                    end_ns: field("end_ns")?,
                    attrs,
                });
            }
        }
        let mut waves = BTreeMap::new();
        let mut wave_cap = DEFAULT_WAVE_CAP;
        let mut waves_dropped = 0;
        if let Some(wv) = v.get("waves") {
            wave_cap = usize::try_from(
                wv.get("cap")
                    .and_then(json::Value::as_u64)
                    .ok_or_else(|| schema("recorder: waves.cap must be a u64"))?,
            )
            .map_err(|_| schema("recorder: waves.cap out of range"))?;
            waves_dropped = wv
                .get("dropped")
                .and_then(json::Value::as_u64)
                .ok_or_else(|| schema("recorder: waves.dropped must be a u64"))?;
            for (chan, rows) in wv
                .get("channels")
                .and_then(json::Value::as_object)
                .ok_or_else(|| schema("recorder: waves.channels must be an object"))?
            {
                let mut samples = Vec::new();
                for row in rows
                    .as_array()
                    .ok_or_else(|| schema("recorder: waveform channel must be an array"))?
                {
                    let pair = row
                        .as_array()
                        .ok_or_else(|| schema("recorder: waveform sample must be [at_ns, v]"))?;
                    let (at, val) = match pair {
                        [at, val] => (
                            at.as_u64()
                                .ok_or_else(|| schema("recorder: sample at_ns must be a u64"))?,
                            val.as_f64()
                                .ok_or_else(|| schema("recorder: sample value must be a number"))?,
                        ),
                        _ => return Err(schema("recorder: waveform sample must be [at_ns, v]")),
                    };
                    samples.push(WaveSample { at_ns: at, value: val });
                }
                waves.insert(chan.clone(), samples);
            }
        }
        Ok(Recorder {
            inner: Some(Arc::new(Mutex::new(Inner {
                clock_ns,
                counters,
                gauges,
                timings,
                hists,
                events,
                next_event_seq,
                spans,
                next_span_id,
                open_spans: Vec::new(),
                span_cap,
                spans_dropped,
                waves,
                wave_cap,
                waves_dropped,
            }))),
        })
    }
}

/// An open span handle; see [`Recorder::span`].
#[derive(Debug)]
pub struct Span {
    rec: Recorder,
    name: String,
    id: u64,
    start_ns: u64,
    open: bool,
}

impl Span {
    /// This span's trace-tree id (0 on a disabled recorder).
    pub fn id(&self) -> u64 {
        self.id
    }

    /// Attaches a typed key/value attribute to this span's tree node.
    /// No-op after the span closed or past the retention cap.
    pub fn attr(&self, key: &str, value: impl Into<AttrValue>) {
        if !self.open {
            return;
        }
        let id = self.id;
        let value = value.into();
        self.rec.with(|i| {
            if let Some(node) = i.span_mut(id) {
                node.attrs.push((key.to_string(), value));
            }
        });
    }

    /// Closes the span now (equivalent to dropping it).
    pub fn end(mut self) {
        self.close();
    }

    fn close(&mut self) {
        if !self.open {
            return;
        }
        self.open = false;
        let id = self.id;
        let start_ns = self.start_ns;
        self.rec.with(|i| {
            let end = i.clock_ns;
            let elapsed = end.saturating_sub(start_ns);
            i.timings.entry(self.name.clone()).or_default().record(elapsed);
            if let Some(pos) = i.open_spans.iter().rposition(|&x| x == id) {
                i.open_spans.remove(pos);
            }
            if let Some(node) = i.span_mut(id) {
                node.end_ns = end;
            }
        });
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        self.close();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_recorder_is_inert() {
        let rec = Recorder::disabled();
        rec.incr("x", 3);
        rec.advance(100);
        rec.event("e", "detail");
        rec.record("h", 7);
        rec.gauge("g", 1.5);
        rec.sample("w", 0.8);
        let s = rec.span("s");
        s.attr("k", 1u64);
        drop(s);
        assert!(!rec.is_enabled());
        assert_eq!(rec.counter("x"), 0);
        assert_eq!(rec.now_ns(), 0);
        assert!(rec.events().is_empty());
        assert!(rec.timings().is_empty());
        assert!(rec.histograms().is_empty());
        assert!(rec.gauges().is_empty());
        assert!(rec.spans().is_empty());
        assert!(rec.waveforms().is_empty());
    }

    #[test]
    fn poisoned_store_recovers_and_still_merges() {
        // Regression: a rep worker that panics while holding the store
        // mutex used to poison it for everyone — every later recorder
        // call hit `.expect("telemetry store poisoned")` and aborted
        // the process, including the scheduler's drop-guard path. The
        // store is append-only, so panic-poisoning leaves it consistent
        // and the lock must simply be recovered.
        let rec = Recorder::new();
        rec.incr("campaign.reps", 1);
        let sub = rec.fork();
        sub.incr("worker.before_panic", 1);
        sub.advance(40);

        let worker = std::thread::spawn({
            let sub = sub.clone();
            move || {
                sub.with(|_| {
                    // The branch keeps the closure's return type `()` so
                    // `with`'s R parameter infers; the panic fires while
                    // the store mutex is held, which is the poison case.
                    if true {
                        panic!("rep worker died mid-write");
                    }
                })
            }
        });
        assert!(worker.join().is_err(), "the worker must really have panicked");

        // The fork's store is poisoned now; every path must recover.
        sub.incr("worker.after_panic", 1);
        assert_eq!(sub.counter("worker.after_panic"), 1);
        let refork = sub.fork();
        assert!(refork.is_enabled());

        // And the merged report still renders, with everything the
        // worker recorded before it died intact.
        rec.absorb(&sub);
        assert_eq!(rec.counter("worker.before_panic"), 1);
        assert_eq!(rec.counter("worker.after_panic"), 1);
        assert_eq!(rec.now_ns(), 40);
        let report = rec.to_json();
        assert!(report.contains("worker.before_panic"));
        assert_eq!(
            Recorder::from_value(&parse::parse(&report).unwrap()).unwrap().to_json(),
            report,
            "the post-recovery export still round-trips"
        );
    }

    #[test]
    fn spans_measure_virtual_time() {
        let rec = Recorder::new();
        {
            let _outer = rec.span("outer");
            rec.advance(50);
            {
                let _inner = rec.span("inner");
                rec.advance(25);
            }
        }
        let t = rec.timings();
        assert_eq!(t["outer"], StepTiming { count: 1, total_ns: 75, min_ns: 75, max_ns: 75 });
        assert_eq!(t["inner"], StepTiming { count: 1, total_ns: 25, min_ns: 25, max_ns: 25 });
    }

    #[test]
    fn repeated_spans_accumulate_with_min_max() {
        let rec = Recorder::new();
        for d in [10u64, 30, 20] {
            let s = rec.span("step");
            rec.advance(d);
            s.end();
        }
        assert_eq!(
            rec.timings()["step"],
            StepTiming { count: 3, total_ns: 60, min_ns: 10, max_ns: 30 }
        );
    }

    #[test]
    fn trace_tree_links_parents_and_attrs() {
        let rec = Recorder::new();
        let outer = rec.span("outer");
        outer.attr("rail", "VDD_CORE");
        rec.advance(5);
        {
            let inner = rec.span("inner");
            inner.attr("bits", 8usize);
            inner.attr("held", true);
            rec.advance(7);
        }
        outer.end();
        let sibling = rec.span("sibling");
        sibling.end();

        let spans = rec.spans();
        assert_eq!(spans.len(), 3);
        assert_eq!(spans[0].name, "outer");
        assert_eq!(spans[0].parent, None);
        assert_eq!(spans[0].attrs, vec![("rail".to_string(), AttrValue::from("VDD_CORE"))]);
        assert_eq!(spans[1].name, "inner");
        assert_eq!(spans[1].parent, Some(spans[0].id));
        assert_eq!(spans[1].start_ns, 5);
        assert_eq!(spans[1].end_ns, 12);
        assert_eq!(spans[2].name, "sibling");
        assert_eq!(spans[2].parent, None, "sibling opens after outer closed");
        assert_eq!(rec.spans_dropped(), 0);
    }

    #[test]
    fn span_cap_drops_and_counts() {
        let rec = Recorder::with_caps(2, 4);
        for n in ["a", "b", "c", "d"] {
            rec.span(n).end();
        }
        let spans = rec.spans();
        assert_eq!(spans.len(), 2, "only the first two spans are retained");
        assert_eq!(spans[0].name, "a");
        assert_eq!(spans[1].name, "b");
        assert_eq!(rec.spans_dropped(), 2);
        // Timings still see every span: the cap only bounds the tree.
        assert_eq!(rec.timings()["c"].count, 1);
    }

    #[test]
    fn wave_cap_drops_and_counts() {
        let rec = Recorder::with_caps(8, 2);
        for i in 0..5 {
            rec.sample("ch", f64::from(i));
        }
        assert_eq!(rec.waveforms()["ch"].len(), 2);
        assert_eq!(rec.waves_dropped(), 3);
    }

    #[test]
    fn clones_share_the_store() {
        let rec = Recorder::new();
        let other = rec.clone();
        other.incr("shared", 2);
        rec.incr("shared", 1);
        assert_eq!(rec.counter("shared"), 3);
    }

    #[test]
    fn events_are_timestamped_and_sequenced() {
        let rec = Recorder::new();
        rec.advance(42);
        rec.event("fault", "rail brown-out");
        rec.event("fault", "again, same instant");
        let events = rec.events();
        assert_eq!(events.len(), 2);
        assert_eq!(events[0].at_ns, 42);
        assert_eq!(events[0].seq, 0);
        assert_eq!(events[1].at_ns, 42);
        assert_eq!(events[1].seq, 1, "colliding timestamps stay totally ordered");
    }

    #[test]
    fn gauges_last_write_wins() {
        let rec = Recorder::new();
        rec.gauge("v", 0.8);
        rec.gauge("v", 0.75);
        assert_eq!(rec.gauge_value("v"), Some(0.75));
        assert_eq!(rec.gauge_value("missing"), None);
    }

    #[test]
    fn histograms_record_and_merge() {
        let rec = Recorder::new();
        for v in [5u64, 500, 50_000] {
            rec.record("lat", v);
        }
        let h = rec.histogram("lat").unwrap();
        assert_eq!(h.count(), 3);
        assert_eq!(h.min(), 5);
        assert_eq!(h.max(), 50_000);
        assert!(rec.histogram("missing").is_none());
    }

    #[test]
    fn waveforms_sample_on_the_virtual_clock() {
        let rec = Recorder::new();
        rec.advance(10);
        rec.sample("pdn.VDD_CORE.v", 0.8);
        rec.sample_at("pdn.VDD_CORE.v", 25, 0.42);
        let w = &rec.waveforms()["pdn.VDD_CORE.v"];
        assert_eq!(w[0], WaveSample { at_ns: 10, value: 0.8 });
        assert_eq!(w[1], WaveSample { at_ns: 25, value: 0.42 });
    }

    #[test]
    fn recorder_roundtrips_through_value() {
        let rec = Recorder::new();
        rec.incr("reps", 3);
        rec.advance(40);
        rec.event("fault", "brown-out at rail VDD_CORE");
        rec.gauge("last_v", 0.78);
        rec.record("lat", 17);
        rec.sample("w.v", 0.8);
        {
            let s = rec.span("step");
            s.attr("rep", 7u64);
            rec.advance(10);
            s.end();
        }
        let restored = Recorder::from_value(&rec.to_value()).unwrap();
        assert_eq!(restored.to_json(), rec.to_json(), "restore must be byte-exact");
        // The restored recorder keeps recording seamlessly.
        restored.incr("reps", 1);
        assert_eq!(restored.counter("reps"), 4);
        assert_eq!(restored.now_ns(), 50);
        assert_eq!(restored.spans().len(), 1);
        assert_eq!(restored.histogram("lat").unwrap().count(), 1);
    }

    #[test]
    fn from_value_accepts_legacy_exports() {
        // The pre-trace-tree export shape: no gauges/hists/spans/waves,
        // timings without min/max, events without seq.
        let legacy = json::Value::object(vec![
            ("clock_ns", json::Value::from(50u64)),
            ("counters", json::Value::object(vec![("reps", json::Value::from(3u64))])),
            (
                "timings",
                json::Value::object(vec![(
                    "step",
                    json::Value::object(vec![
                        ("count", json::Value::from(2u64)),
                        ("total_ns", json::Value::from(30u64)),
                    ]),
                )]),
            ),
            (
                "events",
                json::Value::Array(vec![json::Value::object(vec![
                    ("at_ns", json::Value::from(40u64)),
                    ("name", json::Value::from("fault")),
                    ("detail", json::Value::from("legacy")),
                ])]),
            ),
        ]);
        let rec = Recorder::from_value(&legacy).unwrap();
        assert_eq!(rec.counter("reps"), 3);
        let t = rec.timings()["step"];
        assert_eq!((t.min_ns, t.max_ns), (0, 30), "conservative bounds for legacy timings");
        assert_eq!(rec.events()[0].seq, 0, "legacy events numbered by position");
        assert!(rec.spans().is_empty());
        assert!(rec.histograms().is_empty());
    }

    #[test]
    fn recorder_restore_rejects_malformed_exports() {
        assert!(Recorder::from_value(&json::Value::Null).is_err());
        let missing_clock = json::Value::object(vec![("counters", json::Value::Object(vec![]))]);
        assert!(Recorder::from_value(&missing_clock).is_err());
        let bad_counter = json::Value::object(vec![
            ("clock_ns", json::Value::from(0u64)),
            ("counters", json::Value::object(vec![("x", json::Value::from("nope"))])),
            ("timings", json::Value::Object(vec![])),
            ("events", json::Value::Array(vec![])),
        ]);
        let err = Recorder::from_value(&bad_counter).unwrap_err();
        assert!(err.detail.contains("counter x"), "{err}");
        // A non-u64 event timestamp (e.g. a float) is a schema error,
        // not a silent truncation.
        let bad_timestamp = json::Value::object(vec![
            ("clock_ns", json::Value::from(0u64)),
            ("counters", json::Value::Object(vec![])),
            ("timings", json::Value::Object(vec![])),
            (
                "events",
                json::Value::Array(vec![json::Value::object(vec![
                    ("at_ns", json::Value::from(1.5f64)),
                    ("name", json::Value::from("e")),
                    ("detail", json::Value::from("d")),
                ])]),
            ),
        ]);
        let err = Recorder::from_value(&bad_timestamp).unwrap_err();
        assert!(err.detail.contains("at_ns"), "{err}");
    }

    /// Records one "repetition" worth of activity onto `rec`, varying
    /// with `i` so reps are distinguishable in the merged export.
    /// Exercises every store: counters, gauges, timings, histograms,
    /// events, nested spans with attributes, and waveform samples.
    fn record_rep(rec: &Recorder, i: u64) {
        let s = rec.span("rep");
        s.attr("rep", i);
        rec.incr("reps", 1);
        rec.incr(if i.is_multiple_of(2) { "even" } else { "odd" }, i + 1);
        rec.gauge("last_rep", i as f64);
        rec.record("rep_cost", 10 + i);
        rec.advance(10 + i);
        {
            let inner = rec.span("rep.step");
            inner.attr("kind", "extract");
            rec.sample("rail.v", 0.8 - (i as f64) * 0.01);
            rec.advance(3);
        }
        rec.event("tick", &format!("rep {i}"));
        rec.event("tick", &format!("rep {i} again, same timestamp"));
        rec.advance(5);
        s.end();
    }

    #[test]
    fn absorbing_forks_in_order_matches_sequential_recording() {
        let sequential = Recorder::new();
        sequential.advance(3); // a non-zero base clock, like a resumed run
        for i in 0..5 {
            record_rep(&sequential, i);
        }

        let merged = Recorder::new();
        merged.advance(3);
        // Forks recorded "out of order" (as parallel workers would), then
        // absorbed in rep order.
        let forks: Vec<Recorder> = (0..5).map(|_| merged.fork()).collect();
        for i in (0..5).rev() {
            record_rep(&forks[i as usize], i);
        }
        for fork in &forks {
            assert!(fork.now_ns() >= 15, "fork clocks start at zero and advance");
        }
        for fork in &forks {
            merged.absorb(fork);
        }

        assert_eq!(merged.to_json(), sequential.to_json(), "merge must be byte-identical");
        assert_eq!(merged.counter("reps"), 5);
        assert_eq!(merged.timings()["rep"].count, 5);
        assert_eq!(merged.spans().len(), 10, "5 reps x 2 spans each");
        assert_eq!(merged.histogram("rep_cost").unwrap().count(), 5);
        assert_eq!(merged.gauge_value("last_rep"), Some(4.0), "last absorbed fork wins");
        assert_eq!(merged.waveforms()["rail.v"].len(), 5);
    }

    #[test]
    fn absorb_splices_the_trace_tree() {
        let rec = Recorder::new();
        rec.span("warmup").end();
        let sub = rec.fork();
        {
            let outer = sub.span("outer");
            sub.advance(10);
            sub.span("inner").end();
            outer.end();
        }
        rec.absorb(&sub);
        let spans = rec.spans();
        assert_eq!(spans.len(), 3);
        // Fork ids shifted past the parent's: warmup=0, outer=1, inner=2.
        assert_eq!(
            spans.iter().map(|s| s.id).collect::<Vec<_>>(),
            vec![0, 1, 2],
            "fork span ids splice after the parent's"
        );
        assert_eq!(spans[1].name, "outer");
        assert_eq!(spans[1].parent, None, "fork roots stay roots when nothing is open");
        assert_eq!(spans[2].parent, Some(1), "fork-internal parent links shift with the ids");
    }

    #[test]
    fn absorb_reparents_fork_roots_under_the_open_span() {
        let rec = Recorder::new();
        let campaign = rec.span("campaign");
        let sub = rec.fork();
        sub.span("rep").end();
        rec.absorb(&sub);
        campaign.end();
        let spans = rec.spans();
        assert_eq!(spans[1].name, "rep");
        assert_eq!(
            spans[1].parent,
            Some(spans[0].id),
            "a fork absorbed inside an open span nests under it"
        );
    }

    #[test]
    fn absorb_orders_colliding_timestamps_by_sequence() {
        // Two forks that never advance their clocks: every event lands
        // at the same shifted timestamp. The merged log must still have
        // a stable total order — the regression this guards is absorb
        // merging by timestamp-shift only.
        let build = || {
            let rec = Recorder::new();
            rec.advance(100);
            rec.event("base", "before forks");
            let a = rec.fork();
            a.event("a", "first fork, t=0");
            a.event("a", "first fork again, t=0");
            let b = rec.fork();
            b.event("b", "second fork, t=0");
            rec.absorb(&a);
            rec.absorb(&b);
            rec
        };
        let rec = build();
        let events = rec.events();
        assert_eq!(events.iter().map(|e| e.at_ns).collect::<Vec<_>>(), vec![100, 100, 100, 100]);
        assert_eq!(events.iter().map(|e| e.seq).collect::<Vec<_>>(), vec![0, 1, 2, 3]);
        assert_eq!(
            events.iter().map(|e| e.name.as_str()).collect::<Vec<_>>(),
            vec!["base", "a", "a", "b"],
            "absorb order is the total order for colliding timestamps"
        );
        assert_eq!(rec.to_json(), build().to_json(), "and it is reproducible");
    }

    #[test]
    fn min_max_survive_fork_and_absorb() {
        let sequential = Recorder::new();
        for d in [10u64, 30, 20] {
            let s = sequential.span("step");
            sequential.advance(d);
            s.end();
        }
        let merged = Recorder::new();
        for d in [10u64, 30, 20] {
            let f = merged.fork();
            let s = f.span("step");
            f.advance(d);
            s.end();
            merged.absorb(&f);
        }
        assert_eq!(merged.timings()["step"], sequential.timings()["step"]);
        assert_eq!(
            merged.timings()["step"],
            StepTiming { count: 3, total_ns: 60, min_ns: 10, max_ns: 30 }
        );
    }

    #[test]
    fn capped_merge_matches_capped_sequential() {
        let run = |parallel: bool| {
            let rec = Recorder::with_caps(3, 2);
            if parallel {
                let forks: Vec<Recorder> = (0..3).map(|_| rec.fork()).collect();
                for (i, f) in forks.iter().enumerate() {
                    record_rep(f, i as u64);
                }
                for f in &forks {
                    rec.absorb(f);
                }
            } else {
                for i in 0..3 {
                    record_rep(&rec, i);
                }
            }
            rec
        };
        let seq = run(false);
        let par = run(true);
        assert_eq!(par.to_json(), seq.to_json());
        assert_eq!(seq.spans().len(), 3);
        assert_eq!(seq.spans_dropped(), 3);
        assert_eq!(seq.waveforms()["rail.v"].len(), 2);
        assert_eq!(seq.waves_dropped(), 1);
    }

    #[test]
    fn fork_of_disabled_recorder_is_disabled_and_absorb_is_inert() {
        let disabled = Recorder::disabled();
        assert!(!disabled.fork().is_enabled());

        // Absorbing into a disabled recorder is a no-op.
        let sub = Recorder::new();
        sub.incr("x", 1);
        disabled.absorb(&sub);
        assert_eq!(disabled.counter("x"), 0);

        // Absorbing a disabled fork changes nothing.
        let rec = Recorder::new();
        rec.incr("x", 2);
        rec.advance(7);
        let before = rec.to_json();
        rec.absorb(&Recorder::disabled());
        assert_eq!(rec.to_json(), before);
    }

    #[test]
    fn absorb_shifts_event_timestamps_by_the_base_clock() {
        let rec = Recorder::new();
        rec.advance(100);
        let sub = rec.fork();
        sub.advance(42);
        sub.event("e", "sub event");
        sub.sample("w", 1.0);
        rec.absorb(&sub);
        assert_eq!(rec.events()[0].at_ns, 142);
        assert_eq!(rec.waveforms()["w"][0].at_ns, 142);
        assert_eq!(rec.now_ns(), 142);
    }

    #[test]
    fn json_export_is_deterministic() {
        let build = || {
            let rec = Recorder::new();
            rec.incr("b", 2);
            rec.incr("a", 1);
            rec.advance(7);
            rec.event("e", "x");
            rec.to_json()
        };
        let a = build();
        assert_eq!(a, build());
        assert!(a.contains("\"counters\""));
        // BTreeMap ordering: "a" before "b".
        assert!(a.find("\"a\"").unwrap() < a.find("\"b\"").unwrap());
    }
}
