//! Reads back a `fedsz.trace.v1` file and derives per-layer numbers:
//! span totals, self times (a span minus the part of its interval its
//! child spans cover) and the `eqn1.decision` records; plus a parser
//! for the Prometheus counter snapshot.

use fedsz_telemetry::json::{self, Json};
use std::collections::BTreeMap;
use std::path::Path;

/// One complete (`"ph":"X"`) span.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Span name, e.g. `engine.round`.
    pub name: String,
    /// Trace lane (one per OS thread).
    pub tid: u64,
    /// Start, microseconds on the trace clock.
    pub start: u64,
    /// Duration in microseconds.
    pub dur: u64,
    /// Position in the file. A span closes (and is written) after
    /// every span nested inside it, so on one lane a child always has
    /// a smaller `line` than its parent, even when the two intervals
    /// are equal at microsecond resolution.
    pub line: usize,
}

impl Span {
    fn end(&self) -> u64 {
        self.start + self.dur
    }

    /// Whether `other` is nested inside `self` on the same lane.
    fn contains(&self, other: &Span) -> bool {
        self.tid == other.tid
            && other.line < self.line
            && other.start >= self.start
            && other.end() <= self.end()
    }
}

/// A parsed trace: spans, and the measured codec seconds of every
/// Eqn-1 decision grouped by leg.
#[derive(Debug, Default)]
pub struct Trace {
    /// Every span, in file order.
    pub spans: Vec<Span>,
    /// `measured_codec_secs` of each `eqn1.decision`, keyed by leg.
    pub codec_secs_by_leg: BTreeMap<String, Vec<f64>>,
}

impl Trace {
    /// Loads and parses a trace file.
    pub fn load(path: &Path) -> Result<Self, String> {
        let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
        Self::parse(&text)
    }

    /// Parses trace JSONL text (the schema line first).
    pub fn parse(text: &str) -> Result<Self, String> {
        let mut trace = Trace::default();
        for (line, raw) in text.lines().enumerate() {
            if raw.trim().is_empty() {
                continue;
            }
            let event = json::parse(raw).map_err(|e| format!("trace line {line}: {e}"))?;
            let field = |k: &str| event.get(k);
            let name = field("name").and_then(Json::as_str).unwrap_or_default().to_string();
            match field("ph").and_then(Json::as_str) {
                Some("X") => {
                    let num = |k: &str| field(k).and_then(Json::as_f64).unwrap_or(0.0) as u64;
                    trace.spans.push(Span {
                        name,
                        tid: num("tid"),
                        start: num("ts"),
                        dur: num("dur"),
                        line,
                    });
                }
                Some("i") if name == "eqn1.decision" => {
                    let args = field("args");
                    let arg = |k: &str| args.and_then(|a| a.get(k));
                    let leg = arg("leg").and_then(Json::as_str).unwrap_or("?").to_string();
                    let secs = arg("measured_codec_secs").and_then(Json::as_f64).unwrap_or(0.0);
                    trace.codec_secs_by_leg.entry(leg).or_default().push(secs);
                }
                _ => {}
            }
        }
        Ok(trace)
    }

    /// Spans named `name`, in file order.
    pub fn named<'a>(&'a self, name: &'a str) -> impl Iterator<Item = &'a Span> + 'a {
        self.spans.iter().filter(move |s| s.name == name)
    }

    /// Spans nested inside `parent` on its lane.
    pub fn children_of<'a>(&'a self, parent: &'a Span) -> impl Iterator<Item = &'a Span> + 'a {
        self.spans.iter().filter(move |s| parent.contains(s))
    }

    /// `parent`'s self time in microseconds: its duration minus the
    /// union of the intervals its nested spans cover.
    pub fn self_micros(&self, parent: &Span) -> u64 {
        let covered: Vec<(u64, u64)> =
            self.children_of(parent).map(|s| (s.start, s.end())).collect();
        parent.dur - union_len(covered)
    }

    /// Per span name: sample count, total duration and total self
    /// time, in seconds.
    pub fn summary(&self) -> BTreeMap<String, SpanStats> {
        let mut out: BTreeMap<String, SpanStats> = BTreeMap::new();
        for span in &self.spans {
            let stats = out.entry(span.name.clone()).or_default();
            stats.count += 1;
            stats.total_s += span.dur as f64 / 1e6;
            stats.self_s += self.self_micros(span) as f64 / 1e6;
        }
        out
    }
}

/// Aggregate of every span sharing one name.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct SpanStats {
    /// How many spans carry the name.
    pub count: usize,
    /// Sum of their durations, seconds.
    pub total_s: f64,
    /// Sum of their self times, seconds.
    pub self_s: f64,
}

/// Length of the union of half-open intervals `[a, b)`.
fn union_len(mut intervals: Vec<(u64, u64)>) -> u64 {
    intervals.sort_unstable();
    let mut total = 0;
    let mut current: Option<(u64, u64)> = None;
    for (a, b) in intervals {
        match current {
            Some((ca, cb)) if a <= cb => current = Some((ca, cb.max(b))),
            Some((ca, cb)) => {
                total += cb - ca;
                current = Some((a, b));
            }
            None => current = Some((a, b)),
        }
    }
    total + current.map_or(0, |(a, b)| b - a)
}

/// Parses a Prometheus text snapshot into `series → value` (labels
/// kept in the key, e.g. `fedsz_net_frame_bytes_total{dir="in"}`).
pub fn parse_counters(text: &str) -> BTreeMap<String, f64> {
    text.lines()
        .filter(|l| !l.starts_with('#'))
        .filter_map(|l| {
            let (key, value) = l.rsplit_once(' ')?;
            Some((key.to_string(), value.parse().ok()?))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn x(name: &str, tid: u64, ts: u64, dur: u64) -> String {
        format!(
            r#"{{"name":"{name}","cat":"c","ph":"X","ts":{ts},"dur":{dur},"pid":1,"tid":{tid},"args":{{}}}}"#
        )
    }

    #[test]
    fn self_time_subtracts_the_union_of_nested_spans() {
        // Children close before their parent, so they come first.
        let text = [
            r#"{"name":"trace.schema","cat":"meta","ph":"M","ts":0,"pid":1,"tid":0,"args":{}}"#
                .to_string(),
            x("pool.run", 1, 12, 4), // nested in merge.level
            x("merge.level", 1, 10, 10),
            x("engine.decode", 1, 30, 20),
            x("other.lane", 2, 0, 100), // different thread: not a child
            x("engine.round", 1, 0, 100),
        ]
        .join("\n");
        let trace = Trace::parse(&text).unwrap();
        let round = trace.named("engine.round").next().unwrap();
        // Direct children cover [10,20) and [30,50): 30 µs; pool.run is
        // inside merge.level and must not be subtracted twice.
        assert_eq!(trace.self_micros(round), 70);
        let merge = trace.named("merge.level").next().unwrap();
        assert_eq!(trace.self_micros(merge), 6);
        let summary = trace.summary();
        assert_eq!(summary["engine.round"].count, 1);
        assert!((summary["engine.round"].self_s - 70e-6).abs() < 1e-12);
        assert!((summary["other.lane"].self_s - 100e-6).abs() < 1e-12);
    }

    #[test]
    fn equal_intervals_nest_by_close_order() {
        // A child with exactly its parent's interval (microsecond
        // rounding) covers all of it; the parent is not its own child.
        let text = [x("inner", 1, 5, 10), x("outer", 1, 5, 10)].join("\n");
        let trace = Trace::parse(&text).unwrap();
        let outer = trace.named("outer").next().unwrap();
        let inner = trace.named("inner").next().unwrap();
        assert_eq!(trace.self_micros(outer), 0);
        assert_eq!(trace.self_micros(inner), 10);
    }

    #[test]
    fn overlapping_children_count_once() {
        assert_eq!(union_len(vec![(0, 10), (5, 15), (20, 25)]), 20);
        assert_eq!(union_len(vec![]), 0);
        assert_eq!(union_len(vec![(3, 3)]), 0);
    }

    #[test]
    fn decisions_and_counters_parse() {
        let text = r#"{"name":"eqn1.decision","cat":"eqn1","ph":"i","ts":3,"pid":1,"tid":0,"args":{"leg":"psum","measured_codec_secs":0.25}}"#;
        let trace = Trace::parse(text).unwrap();
        assert_eq!(trace.codec_secs_by_leg["psum"], vec![0.25]);
        let counters =
            parse_counters("# TYPE a counter\na 3\nb{dir=\"in\"} 1.5\n# TYPE g gauge\ng 2\n");
        assert_eq!(counters["a"], 3.0);
        assert_eq!(counters["b{dir=\"in\"}"], 1.5);
        assert_eq!(counters["g"], 2.0);
    }
}
