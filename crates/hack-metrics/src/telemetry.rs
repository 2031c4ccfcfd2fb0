//! Telemetry: lifecycle spans, time-series probes, counters/histograms,
//! and trace exporters.
//!
//! This module is the *data* layer of the simulator's observability stack. It
//! knows nothing about the engine or the cluster components: producers (the
//! `hack-cluster` components, or any component that owns a registry) push
//! [`Span`]s, [`InstantEvent`]s and time-series samples into one
//! [`Telemetry`] registry, and consumers export the registry as
//!
//! * Chrome trace-event JSON ([`Telemetry::chrome_trace_json`]) — loadable in
//!   Perfetto (<https://ui.perfetto.dev>) or `chrome://tracing`, with one
//!   track per registered component and one counter track per time series;
//! * a compact CSV time-series dump ([`Telemetry::timeseries_csv`]).
//!
//! Everything is deterministic: names are registered in a fixed order, spans
//! and samples are recorded in event order, and no wall-clock or randomness is
//! involved — two runs with the same seed produce byte-identical exports. See
//! `OBSERVABILITY.md` at the repository root for the span taxonomy and the
//! trace-event schema.

/// Identifier of a registered track (one Perfetto row, e.g. one replica).
pub type TrackId = u32;

/// Identifier of a registered time series (one Perfetto counter track).
pub type SeriesId = u32;

/// The `req` value of [`Span`]s and [`InstantEvent`]s that are not tied to a
/// single request (e.g. replica failures).
pub const NO_REQUEST: u64 = u64::MAX;

/// One closed lifecycle span on a track: a named interval of simulated time.
///
/// `name` and `cat` are `&'static str` so recording a span on the simulation
/// hot path never allocates.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Span {
    /// Stage name, e.g. `"prefill_exec"`.
    pub name: &'static str,
    /// Component-kind category, e.g. `"prefill"` (the Chrome `cat` field).
    pub cat: &'static str,
    /// Track the span renders on.
    pub track: TrackId,
    /// Request the span belongs to, or [`NO_REQUEST`].
    pub req: u64,
    /// Start time (simulated seconds).
    pub start: f64,
    /// End time (simulated seconds, `>= start`).
    pub end: f64,
}

impl Span {
    /// Span duration in simulated seconds.
    pub fn duration(&self) -> f64 {
        self.end - self.start
    }
}

/// One instantaneous event on a track (arrival, rejection, failure, ...).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct InstantEvent {
    /// Event name, e.g. `"rejected"`.
    pub name: &'static str,
    /// Component-kind category (the Chrome `cat` field).
    pub cat: &'static str,
    /// Track the event renders on.
    pub track: TrackId,
    /// Request the event belongs to, or [`NO_REQUEST`].
    pub req: u64,
    /// Event time (simulated seconds).
    pub time: f64,
}

/// One named time series of `(time, value)` samples.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct TimeSeries {
    /// Series name, e.g. `"prefill-0/queue_depth"`.
    pub name: String,
    /// Samples in recording (= time) order.
    pub points: Vec<(f64, f64)>,
}

/// A running summary of non-negative values: count, mean, min and max —
/// cheap enough to record into on the hot path.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Histogram {
    count: u64,
    sum: f64,
    min: f64,
    max: f64,
}

impl Default for Histogram {
    fn default() -> Self {
        Self {
            count: 0,
            sum: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }
}

impl Histogram {
    /// Records one non-negative value (negative values clamp to zero).
    #[inline]
    pub fn record(&mut self, value: f64) {
        let v = value.max(0.0);
        self.count += 1;
        self.sum += v;
        self.min = self.min.min(v);
        self.max = self.max.max(v);
    }

    /// Number of recorded values.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Mean of the recorded values (0.0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        self.sum / self.count as f64
    }

    /// Smallest recorded value (0.0 when empty).
    pub fn min(&self) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        self.min
    }

    /// Largest recorded value (0.0 when empty).
    pub fn max(&self) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        self.max
    }
}

/// The telemetry registry of one run: tracks, spans, instants, time series and
/// the scalar counter/histogram registries.
///
/// All registration and recording methods are deterministic and
/// allocation-light; `record`-class methods on pre-registered ids do at most
/// one `Vec` push.
#[derive(Debug, Clone, Default)]
pub struct Telemetry {
    tracks: Vec<String>,
    spans: Vec<Span>,
    instants: Vec<InstantEvent>,
    series: Vec<TimeSeries>,
    counters: Vec<(&'static str, u64)>,
    histograms: Vec<(&'static str, Histogram)>,
}

impl Telemetry {
    /// An empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    // --- Registration (setup time, before the run). ---

    /// Registers a named track (one Perfetto row) and returns its id. Track
    /// ids are assigned in registration order, starting at 0.
    pub fn register_track(&mut self, name: impl Into<String>) -> TrackId {
        let id = self.tracks.len() as TrackId;
        self.tracks.push(name.into());
        id
    }

    /// Registers a named time series (one Perfetto counter track) and returns
    /// its id.
    pub fn register_series(&mut self, name: impl Into<String>) -> SeriesId {
        let id = self.series.len() as SeriesId;
        self.series.push(TimeSeries {
            name: name.into(),
            points: Vec::new(),
        });
        id
    }

    /// Pre-sizes the span and instant stores. Recording works without this —
    /// the vectors grow amortized — but a run that knows its request count can
    /// avoid every reallocation on the hot path by reserving upfront.
    pub fn reserve_recording(&mut self, spans: usize, instants: usize) {
        self.spans.reserve(spans);
        self.instants.reserve(instants);
    }

    // --- Recording (simulation time). ---

    /// Records a closed span.
    #[inline]
    pub fn span(
        &mut self,
        name: &'static str,
        cat: &'static str,
        track: TrackId,
        req: u64,
        start: f64,
        end: f64,
    ) {
        debug_assert!(end >= start, "span `{name}` ends before it starts");
        self.spans.push(Span {
            name,
            cat,
            track,
            req,
            start,
            end,
        });
    }

    /// Records an instantaneous event.
    #[inline]
    pub fn instant(
        &mut self,
        name: &'static str,
        cat: &'static str,
        track: TrackId,
        req: u64,
        time: f64,
    ) {
        self.instants.push(InstantEvent {
            name,
            cat,
            track,
            req,
            time,
        });
    }

    /// Appends one sample to a registered series.
    #[inline]
    pub fn sample(&mut self, series: SeriesId, time: f64, value: f64) {
        self.series[series as usize].points.push((time, value));
    }

    /// Adds `delta` to the named counter (registered on first use).
    #[inline]
    pub fn add_counter(&mut self, name: &'static str, delta: u64) {
        match self.counters.iter_mut().find(|(n, _)| *n == name) {
            Some((_, v)) => *v += delta,
            None => self.counters.push((name, delta)),
        }
    }

    /// Records one value into the named histogram (registered on first use).
    #[inline]
    pub fn record_histogram(&mut self, name: &'static str, value: f64) {
        match self.histograms.iter_mut().find(|(n, _)| *n == name) {
            Some((_, h)) => h.record(value),
            None => {
                let mut h = Histogram::default();
                h.record(value);
                self.histograms.push((name, h));
            }
        }
    }

    // --- Inspection. ---

    /// Registered track names, in id order.
    pub fn tracks(&self) -> &[String] {
        &self.tracks
    }

    /// All recorded spans, in recording order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// All recorded instantaneous events, in recording order.
    pub fn instants(&self) -> &[InstantEvent] {
        &self.instants
    }

    /// All registered time series, in id order.
    pub fn series(&self) -> &[TimeSeries] {
        &self.series
    }

    /// The named counter's value (0 when never touched).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters
            .iter()
            .find(|(n, _)| *n == name)
            .map_or(0, |(_, v)| *v)
    }

    /// The named histogram, if ever recorded into.
    pub fn histogram(&self, name: &str) -> Option<&Histogram> {
        self.histograms
            .iter()
            .find(|(n, _)| *n == name)
            .map(|(_, h)| h)
    }

    /// Number of spans whose category is `cat`.
    pub fn span_count_in(&self, cat: &str) -> usize {
        self.spans.iter().filter(|s| s.cat == cat).count()
    }

    /// Whether nothing has been recorded (registrations do not count).
    pub fn is_empty(&self) -> bool {
        self.spans.is_empty()
            && self.instants.is_empty()
            && self.counters.is_empty()
            && self.series.iter().all(|s| s.points.is_empty())
    }

    // --- Exporters. ---

    /// Exports the registry as Chrome trace-event JSON, loadable in Perfetto
    /// or `chrome://tracing`.
    ///
    /// Schema: `{"traceEvents": [...], "displayTimeUnit": "ms"}` with
    ///
    /// * one `"M"` (metadata) event naming the process and each track
    ///   (`pid` 1, `tid` = track id + 1);
    /// * one `"X"` (complete) event per span — `ts`/`dur` in microseconds of
    ///   simulated time, `args.req` carrying the request id;
    /// * one `"i"` (instant) event per instantaneous event;
    /// * one `"C"` (counter) event per time-series sample, named after the
    ///   series (Perfetto renders each name as its own counter track).
    ///
    /// The export is written by streaming into one `String` (no intermediate
    /// `serde::Value` tree), so full-scale traces with millions of events stay
    /// cheap to produce.
    pub fn chrome_trace_json(&self) -> String {
        // ~120 bytes per event is a good preallocation estimate.
        let events = self.spans.len()
            + self.instants.len()
            + self.series.iter().map(|s| s.points.len()).sum::<usize>();
        let mut out = String::with_capacity(128 * (events + self.tracks.len()) + 256);
        out.push_str("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[");
        let mut first = true;
        let mut sep = |out: &mut String| {
            if !first {
                out.push(',');
            }
            first = false;
        };

        sep(&mut out);
        out.push_str(
            "{\"ph\":\"M\",\"name\":\"process_name\",\"pid\":1,\"tid\":0,\
             \"args\":{\"name\":\"hack-sim\"}}",
        );
        for (i, name) in self.tracks.iter().enumerate() {
            sep(&mut out);
            out.push_str(&format!(
                "{{\"ph\":\"M\",\"name\":\"thread_name\",\"pid\":1,\"tid\":{},\
                 \"args\":{{\"name\":{}}}}}",
                i + 1,
                json_string(name)
            ));
        }
        for s in &self.spans {
            sep(&mut out);
            out.push_str(&format!(
                "{{\"ph\":\"X\",\"name\":{},\"cat\":{},\"pid\":1,\"tid\":{},\
                 \"ts\":{},\"dur\":{}{}}}",
                json_string(s.name),
                json_string(s.cat),
                s.track + 1,
                json_f64(s.start * 1e6),
                json_f64(s.duration() * 1e6),
                req_args(s.req)
            ));
        }
        for e in &self.instants {
            sep(&mut out);
            out.push_str(&format!(
                "{{\"ph\":\"i\",\"s\":\"t\",\"name\":{},\"cat\":{},\"pid\":1,\
                 \"tid\":{},\"ts\":{}{}}}",
                json_string(e.name),
                json_string(e.cat),
                e.track + 1,
                json_f64(e.time * 1e6),
                req_args(e.req)
            ));
        }
        for series in &self.series {
            let name = json_string(&series.name);
            for &(t, v) in &series.points {
                sep(&mut out);
                out.push_str(&format!(
                    "{{\"ph\":\"C\",\"name\":{name},\"pid\":1,\"ts\":{},\
                     \"args\":{{\"value\":{}}}}}",
                    json_f64(t * 1e6),
                    json_f64(v)
                ));
            }
        }
        out.push_str("]}");
        out
    }

    /// Exports every registered time series as compact CSV:
    /// `series,time_s,value` rows in series-registration then time order.
    pub fn timeseries_csv(&self) -> String {
        let points: usize = self.series.iter().map(|s| s.points.len()).sum();
        let mut out = String::with_capacity(32 * points + 32);
        out.push_str("series,time_s,value\n");
        for series in &self.series {
            for &(t, v) in &series.points {
                out.push_str(&series.name);
                out.push(',');
                out.push_str(&format!("{t}"));
                out.push(',');
                out.push_str(&format!("{v}"));
                out.push('\n');
            }
        }
        out
    }

    /// A one-line human summary (event volumes), for example/CLI output.
    pub fn summary_line(&self) -> String {
        format!(
            "{} spans, {} instants, {} series ({} samples), {} counters, {} histograms",
            self.spans.len(),
            self.instants.len(),
            self.series.len(),
            self.series.iter().map(|s| s.points.len()).sum::<usize>(),
            self.counters.len(),
            self.histograms.len()
        )
    }
}

/// `args` fragment carrying the request id, empty for [`NO_REQUEST`].
fn req_args(req: u64) -> String {
    if req == NO_REQUEST {
        String::new()
    } else {
        format!(",\"args\":{{\"req\":{req}}}")
    }
}

/// JSON string literal with the escapes the trace format can contain.
fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// JSON number literal for a finite `f64` (non-finite values export as 0,
/// which cannot occur for simulated times but keeps the output parseable).
fn json_f64(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use serde::Value;

    fn populated() -> Telemetry {
        let mut t = Telemetry::new();
        let frontend = t.register_track("frontend");
        let prefill = t.register_track("prefill-0");
        let q = t.register_series("prefill-0/queue_depth");
        t.span("prefill_exec", "prefill", prefill, 3, 1.0, 2.5);
        t.span("queue_wait", "frontend", prefill, 3, 0.5, 1.0);
        t.instant("rejected", "frontend", frontend, 9, 0.75);
        t.instant("replica_failed", "decode", frontend, NO_REQUEST, 4.0);
        t.sample(q, 0.0, 0.0);
        t.sample(q, 1.0, 3.0);
        t.add_counter("completed", 1);
        t.add_counter("completed", 2);
        t.record_histogram("jct_seconds", 1.5);
        t.record_histogram("jct_seconds", 6.0);
        t
    }

    #[test]
    fn registries_accumulate() {
        let t = populated();
        assert_eq!(
            t.tracks(),
            &["frontend".to_string(), "prefill-0".to_string()]
        );
        assert_eq!(t.spans().len(), 2);
        assert_eq!(t.span_count_in("prefill"), 1);
        assert_eq!(t.instants().len(), 2);
        assert_eq!(t.counter("completed"), 3);
        assert_eq!(t.counter("never"), 0);
        let h = t.histogram("jct_seconds").unwrap();
        assert_eq!(h.count(), 2);
        assert!((h.mean() - 3.75).abs() < 1e-12);
        assert!(!t.is_empty());
        assert!(Telemetry::new().is_empty());
    }

    #[test]
    fn histogram_summarises_count_mean_min_and_max() {
        let mut h = Histogram::default();
        assert_eq!((h.count(), h.mean(), h.min(), h.max()), (0, 0.0, 0.0, 0.0));
        for i in 1..=1000 {
            h.record(i as f64);
        }
        h.record(-3.0); // clamps to zero
        assert_eq!(h.count(), 1001);
        assert_eq!(h.mean(), 500_500.0 / 1001.0);
        assert_eq!(h.max(), 1000.0);
        assert_eq!(h.min(), 0.0);
    }

    #[test]
    fn chrome_trace_parses_and_carries_every_event() {
        let t = populated();
        let json = t.chrome_trace_json();
        let value = serde_json::from_str(&json).expect("trace JSON parses");
        let events = value.get_key("traceEvents").unwrap();
        let Value::Array(events) = events else {
            panic!("traceEvents is an array")
        };
        let phase = |e: &Value| e.get_key("ph").unwrap().as_str().unwrap().to_string();
        let count = |ph: &str| events.iter().filter(|e| phase(e) == ph).count();
        // 1 process + 2 thread metadata, 2 spans, 2 instants, 2 counter samples.
        assert_eq!(count("M"), 3);
        assert_eq!(count("X"), 2);
        assert_eq!(count("i"), 2);
        assert_eq!(count("C"), 2);
        // Span timestamps are microseconds.
        let span = events
            .iter()
            .find(|e| {
                phase(e) == "X" && e.get_key("name").unwrap().as_str() == Some("prefill_exec")
            })
            .unwrap();
        assert_eq!(span.get_key("ts").unwrap().as_f64(), Some(1.0e6));
        assert_eq!(span.get_key("dur").unwrap().as_f64(), Some(1.5e6));
        assert_eq!(
            span.get_key("args")
                .unwrap()
                .get_key("req")
                .unwrap()
                .as_f64(),
            Some(3.0)
        );
        // The failure instant is not request-scoped: no args at all.
        let failed = events
            .iter()
            .find(|e| e.get_key("name").unwrap().as_str() == Some("replica_failed"))
            .unwrap();
        assert!(failed.get_key("args").is_none());
    }

    #[test]
    fn csv_series_dump_lists_every_sample_in_order() {
        let t = populated();
        let csv = t.timeseries_csv();
        let mut lines = csv.lines();
        assert_eq!(lines.next(), Some("series,time_s,value"));
        assert_eq!(lines.next(), Some("prefill-0/queue_depth,0,0"));
        assert_eq!(lines.next(), Some("prefill-0/queue_depth,1,3"));
        assert_eq!(lines.next(), None);
    }

    #[test]
    fn string_escaping_survives_round_trip() {
        let mut t = Telemetry::new();
        t.register_track("weird \"name\"\\with\nescapes");
        let json = t.chrome_trace_json();
        assert!(serde_json::from_str(&json).is_ok(), "escaped JSON parses");
    }
}
