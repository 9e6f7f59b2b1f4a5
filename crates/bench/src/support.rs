//! Shared measurement and JSON-emission helpers for the scaling
//! benches (`matching_scaling`, `pipeline_scaling`, `e2e_scaling`).
//!
//! Each bin used to carry its own copy of the wall-clock sampling loop
//! and a hand-rolled `writeln!` JSON encoder; tweaks to one (like the
//! 200 ms sampling floor that fixed run-to-run jitter at 100k
//! subscriptions) never reached the others. This module is the single
//! copy: [`measure`] for events-per-second sampling and [`Json`] for
//! the `BENCH_*.json` files the CI publishes as artifacts. It also holds
//! the matching workload and its linear reference ([`linear_scan`]),
//! shared by `matching_scaling` and `benches/matching.rs`.

use std::fmt::Write as _;
use std::time::Instant;

use psguard_model::{Constraint, Event, Filter, IntRange, Op};
use psguard_siena::Peer;

/// One measured cell: rate per second plus how many iterations the
/// sampling window actually absorbed (landing the count in the JSON
/// lets a reader judge each number's stability).
#[derive(Debug, Clone, Copy)]
pub struct Measured {
    /// Iterations (or passes) per second.
    pub per_sec: f64,
    /// Iterations sampled inside the timed window.
    pub iters: usize,
}

/// Samples `run` — called with the iteration number — until both
/// `min_iters` iterations and `min_ms` of wall time have elapsed,
/// after `warmup` untimed calls. Sub-50 ms windows under-sample large
/// configurations (a handful of calls per window makes BENCH numbers
/// jitter run-to-run); the scaling bins use 200 ms or more.
pub fn measure(
    warmup: usize,
    min_iters: usize,
    min_ms: u128,
    mut run: impl FnMut(usize),
) -> Measured {
    for i in 0..warmup {
        run(i);
    }
    let mut iters = 0usize;
    let start = Instant::now();
    while iters < min_iters || start.elapsed().as_millis() < min_ms {
        run(iters);
        iters += 1;
    }
    Measured {
        per_sec: iters as f64 / start.elapsed().as_secs_f64(),
        iters,
    }
}

/// A JSON value for the `BENCH_*.json` files: enough of the format to
/// replace the bins' hand-rolled string building, rendered with the
/// layout the existing files use (top-level object multi-line, one row
/// object per line inside arrays, numbers with fixed decimals).
#[derive(Debug, Clone)]
pub enum Json {
    /// `true` / `false`.
    Bool(bool),
    /// An integer.
    Int(u64),
    /// A float rendered with the given number of decimals.
    Float(f64, usize),
    /// A string (escaped minimally; bench names and units only).
    Str(String),
    /// An array; elements render one per line.
    Arr(Vec<Json>),
    /// An object with insertion-ordered keys.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// An empty object.
    pub fn obj() -> Json {
        Json::Obj(Vec::new())
    }

    /// Adds `key: value`, returning `self` for chaining. No-op (in
    /// release the same) on non-objects — the builder is only ever
    /// called on [`Json::obj`] results.
    pub fn field(mut self, key: &str, value: Json) -> Json {
        if let Json::Obj(fields) = &mut self {
            fields.push((key.to_string(), value));
        }
        self
    }

    /// A string value.
    pub fn str(s: &str) -> Json {
        Json::Str(s.to_string())
    }

    /// A float with one decimal (rates).
    pub fn f1(x: f64) -> Json {
        Json::Float(x, 1)
    }

    /// A float with two decimals (speedups).
    pub fn f2(x: f64) -> Json {
        Json::Float(x, 2)
    }

    /// Renders the document: top-level object with one field per line,
    /// nested rows compact.
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, 0);
        out.push('\n');
        out
    }

    fn write(&self, out: &mut String, depth: usize) {
        match self {
            Json::Bool(b) => {
                let _ = write!(out, "{b}");
            }
            Json::Int(n) => {
                let _ = write!(out, "{n}");
            }
            Json::Float(x, d) => {
                let _ = write!(out, "{x:.d$}", d = *d);
            }
            Json::Str(s) => {
                out.push('"');
                for c in s.chars() {
                    match c {
                        '"' => out.push_str("\\\""),
                        '\\' => out.push_str("\\\\"),
                        _ => out.push(c),
                    }
                }
                out.push('"');
            }
            Json::Arr(items) => {
                if items.is_empty() {
                    out.push_str("[]");
                    return;
                }
                out.push_str("[\n");
                for (i, item) in items.iter().enumerate() {
                    indent(out, depth + 1);
                    item.write(out, usize::MAX); // rows render compact
                    out.push_str(if i + 1 < items.len() { ",\n" } else { "\n" });
                }
                indent(out, depth);
                out.push(']');
            }
            Json::Obj(fields) => {
                if depth == usize::MAX {
                    // Compact: one line.
                    out.push('{');
                    for (i, (k, v)) in fields.iter().enumerate() {
                        let _ = write!(out, "\"{k}\": ");
                        v.write(out, usize::MAX);
                        if i + 1 < fields.len() {
                            out.push_str(", ");
                        }
                    }
                    out.push('}');
                } else {
                    out.push_str("{\n");
                    for (i, (k, v)) in fields.iter().enumerate() {
                        indent(out, depth + 1);
                        let _ = write!(out, "\"{k}\": ");
                        v.write(out, depth + 1);
                        out.push_str(if i + 1 < fields.len() { ",\n" } else { "\n" });
                    }
                    indent(out, depth);
                    out.push('}');
                }
            }
        }
    }
}

fn indent(out: &mut String, depth: usize) {
    if depth != usize::MAX {
        for _ in 0..depth {
            out.push_str("  ");
        }
    }
}

/// Writes `doc` to `path` and logs the write; panicking on I/O failure
/// is correct in a bench binary (the artifact is the whole point).
/// Paths are relative to the cwd, and some committed files are records
/// of retired code (`BENCH_pipeline.json` and `BENCH_e2e.json`: the
/// sharded pipeline; `BENCH_connections.json`: the threaded
/// transport), so run the bins from a scratch directory.
pub fn write_bench_json(path: &str, doc: &Json) {
    std::fs::write(path, doc.render()).unwrap_or_else(|e| panic!("write {path}: {e}"));
    println!("wrote {path}");
}

/// Asserts a measured ratio floor with a uniform message — the CI gate
/// used by the scaling bins' full (non-smoke) modes.
pub fn assert_floor(label: &str, ratio: f64, floor: f64) {
    assert!(
        ratio >= floor,
        "{label}: expected >= {floor:.2}x, got {ratio:.2}x"
    );
}

/// Topics of the matching workload (`matching_scaling`,
/// `benches/matching.rs`).
pub const MATCHING_TOPICS: usize = 64;

/// A filter on `topic` with `x` in `[lo, lo + 30]`.
pub fn range_filter(topic: impl Into<String>, lo: i64) -> Filter {
    let range = IntRange::new(lo, lo + 30).expect("valid range");
    Filter::for_topic(topic).with(Constraint::new("x", Op::InRange(range)))
}

/// Subscription `i` of the matching workload: one of 64 topics, one of
/// 50 ranges.
pub fn matching_filter(i: usize) -> Filter {
    range_filter(format!("topic{:02}", i % MATCHING_TOPICS), (i % 50) as i64)
}

/// One event per topic of the matching workload.
pub fn matching_events() -> Vec<Event> {
    (0..MATCHING_TOPICS)
        .map(|t| {
            let x = (t % 60) as i64;
            Event::builder(format!("topic{t:02}")).attr("x", x).build()
        })
        .collect()
}

/// The linear matching reference: the distinct peers of the
/// registrations that match `event`, in first-seen registration order,
/// found by testing every registration.
pub fn linear_scan(regs: &[(Peer, Filter)], event: &Event) -> Vec<Peer> {
    let mut out: Vec<Peer> = Vec::new();
    for (peer, filter) in regs {
        if filter.matches(event) && !out.contains(peer) {
            out.push(*peer);
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn measure_honors_iteration_and_time_floors() {
        let mut calls = 0usize;
        let m = measure(2, 10, 0, |_| calls += 1);
        assert_eq!(m.iters, 10);
        assert_eq!(calls, 12, "2 warmup + 10 timed");
        assert!(m.per_sec > 0.0);

        let m = measure(0, 1, 20, |_| {
            std::thread::sleep(std::time::Duration::from_millis(2))
        });
        // Sleep granularity overshoots 2 ms, so just check the window
        // forced more than the single required iteration.
        assert!(m.iters >= 3, "20 ms window at ~2 ms/iter: {}", m.iters);
    }

    #[test]
    fn json_renders_rows_compact_and_top_level_pretty() {
        let doc = Json::obj()
            .field("bench", Json::str("demo"))
            .field("smoke", Json::Bool(false))
            .field(
                "sizes",
                Json::Arr(vec![
                    Json::obj()
                        .field("subscriptions", Json::Int(100))
                        .field("eps", Json::f1(1234.56))
                        .field("speedup", Json::f2(2.5)),
                    Json::obj().field("subscriptions", Json::Int(1000)),
                ]),
            );
        let s = doc.render();
        assert_eq!(
            s,
            "{\n  \"bench\": \"demo\",\n  \"smoke\": false,\n  \"sizes\": [\n    \
             {\"subscriptions\": 100, \"eps\": 1234.6, \"speedup\": 2.50},\n    \
             {\"subscriptions\": 1000}\n  ]\n}\n"
        );
    }

    #[test]
    fn json_escapes_strings() {
        assert_eq!(Json::str("a\"b\\c").render(), "\"a\\\"b\\\\c\"\n");
    }
}
