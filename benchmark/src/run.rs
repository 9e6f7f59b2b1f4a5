//! One run of one workload: set-up, the timed phases or the traced
//! replay, correctness accounting, and the result in the driver's form.

use std::path::{Path, PathBuf};
use std::time::Duration;

use crate::json::Json;
use crate::live::{self, Deployment, Load, PhaseOut, Tally};
use crate::micro;
use crate::oracle::Coverage;
use crate::procfs;
use crate::staged::{self, Stage, StagedCounts, LAYERS};
use crate::stats::{highest_percentile, median, quantile_sorted, sorted};
use crate::workload::{Generator, Spec};

/// End-to-end metrics (`--trace 0`), with units.
pub const END_TO_END: [(&str, &str); 4] = [
    ("setup_s", "s"),
    ("events_per_s", "ev/s"),
    ("latency_p50_us", "us"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics (`--trace 1`), with units.
pub const PER_LAYER: [(&str, &str); 44] = [
    ("crypto.prf_probe_ns", "ns"),
    ("crypto.sha1_ns_per_block", "ns"),
    ("crypto.aes_cbc_ns_per_byte", "ns/B"),
    ("crypto.hmac_sha1_ns_per_byte", "ns/B"),
    ("keys.grant_ns_per_op", "ns"),
    ("keys.grant_kh_per_op", "count"),
    ("keys.cache_hit_ratio", "ratio"),
    ("keys.rekey_flush_ns_per_leave", "ns"),
    ("keys.rekey_msgs_per_leave", "count"),
    ("psguard.publish_ns_per_event", "ns"),
    ("psguard.publish_kh_per_event", "count"),
    ("psguard.publish_allocs_per_event", "count"),
    ("psguard.decrypt_ns_per_delivery", "ns"),
    ("psguard.decrypt_allocs_per_delivery", "count"),
    ("routing.probes_per_event", "count"),
    ("routing.tag_match_ns", "ns"),
    ("siena.index.match_ns_per_event", "ns"),
    ("siena.index.work_per_event", "count"),
    ("siena.index.matched_entries_per_event", "count"),
    ("siena.index.insert_ns_per_op", "ns"),
    ("siena.index.remove_ns_per_op", "ns"),
    ("siena.index.bytes_per_subscription", "B"),
    ("siena.broker.publish_self_ns_per_event", "ns"),
    ("siena.broker.subscribe_ns_per_op", "ns"),
    ("siena.broker.unsubscribe_ns_per_op", "ns"),
    ("siena.frame.encode_ns_per_event", "ns"),
    ("siena.frame.bytes_per_event", "B"),
    ("siena.frame.pool_reuse_ratio", "ratio"),
    ("siena.frame.write_ns_per_delivery", "ns"),
    ("siena.frame.writes_per_delivery", "count"),
    ("siena.frame.read_ns_per_delivery", "ns"),
    ("siena.wire.decode_ns_per_delivery", "ns"),
    ("siena.log.append_ns_per_event", "ns"),
    ("siena.log.bytes_per_event", "B"),
    ("siena.log.replay_ns_per_event", "ns"),
    ("siena.log.open_s_per_gb", "s/GB"),
    ("siena.reactor.cpu_us_per_event", "us"),
    ("siena.reactor.residual_us_per_event", "us"),
    ("bound.sha1_blocks_per_s", "1/s"),
    ("bound.aes_blocks_per_s", "1/s"),
    ("bound.loopback_mb_per_s", "MB/s"),
    ("bound.syscalls_per_s", "1/s"),
    ("trace.overhead_share", "ratio"),
    ("reconcile.staged_share", "ratio"),
];

/// The traced replay alternates this many untraced and traced chunks.
const STAGED_CHUNKS: u64 = 8;

/// Arguments of one run, as the driver passes them.
#[derive(Debug, Clone)]
pub struct RunArgs {
    /// The workload.
    pub spec: Spec,
    /// Seed of the input generator.
    pub seed: u64,
    /// How long the run measures.
    pub seconds: f64,
    /// `true`: the traced run and per-layer metrics; `false`: the timed
    /// phases and end-to-end metrics.
    pub trace: bool,
    /// Shrinks every phase to about a second (for a future CI step).
    pub smoke: bool,
    /// Where to write the full report (metrics, diagnostics, provenance).
    pub out: Option<PathBuf>,
    /// Where to write the spans of the traced run.
    pub trace_out: Option<PathBuf>,
}

impl RunArgs {
    /// `--seconds`, or 2.6 (a second per phase) under `--smoke`.
    fn measured_seconds(&self) -> f64 {
        if self.smoke {
            2.6
        } else {
            self.seconds
        }
    }
}

/// The result of one run.
#[derive(Debug, Clone)]
pub struct RunResult {
    /// No check failed, the generator kept its schedule, nothing dropped.
    pub correct: bool,
    /// Checks made (`ops_attempted`).
    pub attempted: u64,
    /// Checks failed (`ops_failed`).
    pub failed: u64,
    /// The metrics of the run's mode, in declaration order.
    pub metrics: Vec<(&'static str, f64, &'static str)>,
    /// Everything else worth printing: ungated figures and counters.
    pub diagnostics: Json,
}

impl RunResult {
    /// The driver's result object: exactly `correct`, `attempted`,
    /// `failed` and `metrics`.
    pub fn driver_line(&self) -> String {
        Json::obj()
            .field("correct", self.correct)
            .field("attempted", self.attempted)
            .field("failed", self.failed)
            .field("metrics", self.metrics_json())
            .render()
    }

    /// `{name: {value, unit}}` for every metric of the run.
    fn metrics_json(&self) -> Json {
        let mut metrics = Json::obj();
        for (name, value, unit) in &self.metrics {
            metrics.set(
                name,
                Json::obj().field("value", *value).field("unit", *unit),
            );
        }
        metrics
    }
}

/// The phases a run of `seconds` splits into: an unmeasured lead-in,
/// then equal shares for the closed and the open loop.
fn phase_lengths(seconds: f64) -> (Duration, Duration, Duration) {
    let warm = (seconds / 13.0).min(2.0);
    let each = (seconds - warm) / 2.0;
    // Whole slices, so the median is over equal windows.
    let slice = live::SLICE.as_secs_f64();
    let saturate = ((each / slice).floor() * slice).max(slice);
    (
        Duration::from_secs_f64(warm),
        Duration::from_secs_f64(saturate),
        Duration::from_secs_f64(each),
    )
}

fn percentile(values: &[f64], p: f64) -> f64 {
    quantile_sorted(&sorted(values), p)
}

fn tally_json(t: &Tally) -> Json {
    Json::obj()
        .field("ops_attempted", t.attempted)
        .field("ops_failed", t.failed())
        .field(
            "failed_share",
            t.failed() as f64 / t.attempted.max(1) as f64,
        )
        .field("verified_deliveries", t.delivery.verified)
        .field("missing", t.delivery.missing)
        .field("spurious", t.delivery.spurious)
        .field("duplicate", t.delivery.duplicate)
        .field("bad_decrypt", t.bad_decrypt)
        .field("revoked_decrypted", t.revoked_decrypted)
        .field("late", t.late)
        .field("bad_resume", t.bad_resume)
        .field("transport_drops", t.transport_drops)
}

/// Git commit of the checkout, read from `.git` without running git
/// (the driver's checkout is not a repository: `unknown` there).
fn git_sha() -> String {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("..");
    let head = std::fs::read_to_string(root.join(".git/HEAD")).unwrap_or_default();
    let head = head.trim();
    let sha = match head.strip_prefix("ref: ") {
        Some(reference) => std::fs::read_to_string(root.join(".git").join(reference))
            .ok()
            .or_else(|| {
                let packed = std::fs::read_to_string(root.join(".git/packed-refs")).ok()?;
                packed
                    .lines()
                    .find_map(|l| l.strip_suffix(reference).map(str::to_owned))
            })
            .unwrap_or_default(),
        None => head.to_owned(),
    };
    let sha = sha.trim();
    if sha.is_empty() {
        "unknown".to_owned()
    } else {
        sha.to_owned()
    }
}

/// What every result carries about where and how it was measured.
pub fn provenance(smoke: bool) -> Json {
    Json::obj()
        .field("git_sha", git_sha())
        .field(
            "nproc",
            std::thread::available_parallelism().map_or(0, std::num::NonZero::get),
        )
        .field("smoke", smoke)
        .field("rustc", env!("PATHBENCH_RUSTC_VERSION"))
        .field("link", "loopback, not a real link")
}

/// The scratch directory of this process: next to the executable, so
/// inside the build directory and never the repository root.
pub fn scratch_dir() -> PathBuf {
    let base = std::env::current_exe()
        .ok()
        .and_then(|exe| exe.parent().map(Path::to_path_buf))
        .unwrap_or_else(std::env::temp_dir);
    let dir = base.join(format!("pathbench-scratch-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create scratch directory");
    dir
}

struct ClosedFigures {
    events_per_s: f64,
    cpu_us_per_event: f64,
    reactor_cpu_us_per_event: f64,
    deliveries_per_s: f64,
    latency_p50_us: f64,
}

fn closed_figures(out: &PhaseOut) -> ClosedFigures {
    let events = out.events.max(1) as f64;
    ClosedFigures {
        events_per_s: median(&out.slices),
        cpu_us_per_event: out.cpu_us / events,
        reactor_cpu_us_per_event: (out.cpu_us - out.generator_cpu_us).max(0.0) / events,
        deliveries_per_s: out.deliveries as f64 / out.seconds.max(1e-9),
        latency_p50_us: median(&out.latency_us),
    }
}

fn closed_loop(warm: Duration, measure: Duration) -> Load {
    Load::Closed {
        batch: live::BATCH,
        window: live::WINDOW,
        warm,
        measure,
    }
}

/// `--trace 0`: set-up (repeated, median), the closed loop, the open loop.
fn timed_run(args: &RunArgs, gen: &Generator, scratch: &Path) -> RunResult {
    let (warm, saturate, paced) = phase_lengths(args.measured_seconds());

    // Set-up is repeated and its median reported: at least three times,
    // and a fast one until about two seconds of set-ups are sampled (a
    // 1 ms or 50 ms set-up is mostly poller parking and thread start-up,
    // different every time).
    let mut dep = Deployment::setup(gen, scratch);
    let mut setup_s = vec![dep.setup.seconds];
    let setups = if args.smoke {
        1
    } else {
        ((2.0 / dep.setup.seconds) as usize).clamp(3, 101)
    };
    for _ in 1..setups {
        dep.shutdown();
        dep = Deployment::setup(gen, scratch);
        setup_s.push(dep.setup.seconds);
    }
    let setup = dep.setup;
    let threads = procfs::threads();
    let cov = Coverage::build(gen);

    let sat = live::run_phase(&mut dep, gen, &cov, closed_loop(warm, saturate));
    let sat_drops = dep.broker_stats().dropped_frames;
    let load = Load::Paced {
        rate: args.spec.paced_rate,
        duration: paced,
    };
    let pace = live::run_phase(&mut dep, gen, &cov, load);
    let published = dep.published();
    let tally = dep.final_tally();
    let broker = dep.broker_stats();
    let counters = dep.counters();
    let broker_threads = dep.broker_threads();
    dep.shutdown();

    let figures = closed_figures(&sat);
    let behind = pace.lag_us.iter().copied().fold(0.0, f64::max) / (paced.as_secs_f64() * 1e6);
    let generator_valid = behind <= 0.1;
    let n = pace.latency_us.len();
    // Only percentiles with at least ten samples beyond them are stated.
    let top = highest_percentile(n);
    let tail = |p: f64| {
        if top >= p {
            Json::Num(percentile(&pace.latency_us, p))
        } else {
            Json::Null
        }
    };
    let metrics = vec![
        ("setup_s", median(&setup_s), "s"),
        ("events_per_s", figures.events_per_s, "ev/s"),
        ("latency_p50_us", median(&pace.latency_us), "us"),
        ("peak_rss_mb", procfs::peak_rss_kb() as f64 / 1024.0, "MB"),
    ];
    let diagnostics = Json::obj()
        .field(
            "phase_seconds",
            Json::obj()
                .field("warm", warm.as_secs_f64())
                .field("saturate", saturate.as_secs_f64())
                .field("paced", paced.as_secs_f64()),
        )
        .field("setup_s_each", setup_s.as_slice())
        .field("setup.grants", setup.grants)
        .field("setup.grant_s", setup.grant_seconds)
        .field("setup.grant_kh", setup.grant_ops.total())
        .field("events_published", published)
        .field("saturate.events", sat.events)
        .field("saturate.slices_ev_per_s", sat.slices.as_slice())
        .field("e2e.cpu_us_per_event", figures.cpu_us_per_event)
        .field("saturate.dropped_frames", sat_drops)
        .field(
            "saturate.thread_cpu_share",
            sat.thread_cpu_us
                .iter()
                .map(|us| Json::Num(us / (sat.seconds * 1e6)))
                .collect::<Vec<_>>(),
        )
        .field("e2e.deliveries_per_s", figures.deliveries_per_s)
        .field("e2e.sat_latency_p50_us", figures.latency_p50_us)
        .field("paced.rate_ev_per_s", args.spec.paced_rate)
        .field("paced.samples", n)
        .field("e2e.latency_p99_us", tail(0.99))
        .field("e2e.latency_p999_us", tail(0.999))
        .field("e2e.latency_highest_percentile", top)
        .field("generator.lag_p50_us", median(&pace.lag_us))
        .field("generator.lag_p99_us", percentile(&pace.lag_us, 0.99))
        .field("generator.behind_share", behind)
        .field("generator.valid", generator_valid)
        .field(
            "siena.reactor.cpu_us_per_event",
            figures.reactor_cpu_us_per_event,
        )
        .field("siena.reactor.dropped_frames", broker.dropped_frames)
        .field(
            "siena.reactor.dropped_deliveries",
            tally
                .transport_drops
                .saturating_sub(broker.dropped_frames + broker.log_append_failures),
        )
        .field(
            "siena.reactor.log_append_failures",
            broker.log_append_failures,
        )
        .field("siena.reactor.replayed_frames", broker.replayed_frames)
        .field(
            "siena.reactor.duplicates_suppressed",
            counters.duplicates_suppressed,
        )
        .field("siena.reactor.threads", broker_threads)
        .field("process.threads", threads)
        .field(
            "siena.reactor.rss_bytes_per_conn",
            setup.rss_bytes_per_conn.map_or(Json::Null, Json::Num),
        )
        .field("churn.rollovers", counters.rollovers)
        .field(
            "churn.rollover_ms_each",
            counters.rollover_ns as f64 / 1e6 / counters.rollovers.max(1) as f64,
        )
        .field("churn.grant_kh", counters.churn_grant_ops.total())
        .field(
            "churn.rekey_msgs_per_leave",
            counters.rekey_messages as f64 / counters.rekey_leaves.max(1) as f64,
        )
        .field("durable.replay_cycles", counters.replay_cycles)
        .field("accounting", tally_json(&tally));

    RunResult {
        correct: tally.failed() == 0 && generator_valid && sat_drops == 0,
        attempted: tally.attempted.max(1),
        failed: tally.failed() + u64::from(!generator_valid),
        metrics,
        diagnostics,
    }
}

/// The budget table: ns per event and share per staged layer, with the
/// bound that applies to it.
fn budget_table(c: &StagedCounts, bounds: &micro::Bounds, notes: &[(&str, String)]) -> String {
    let events = c.events.max(1) as f64;
    let total = c.total_self_ns().max(1) as f64;
    let mut table = format!(
        "{:<24} {:>8} {:>12} {:>7}  {}\n",
        "layer", "calls/ev", "self ns/ev", "share", "bound"
    );
    for name in LAYERS {
        let cost = c.layer(name);
        let note = notes
            .iter()
            .find(|(n, _)| *n == name)
            .map_or("", |(_, s)| s.as_str());
        table.push_str(&format!(
            "{:<24} {:>8.2} {:>12.0} {:>6.1}%  {}\n",
            name,
            cost.calls as f64 / events,
            cost.self_ns as f64 / events,
            cost.self_ns as f64 / total * 100.0,
            note
        ));
    }
    table.push_str(&format!(
        "{:<24} {:>8} {:>12.0} {:>6.1}%  sha1 {:.2e} blocks/s, aes {:.2e} blocks/s, loopback {:.0} MB/s, {:.2e} syscalls/s\n",
        "sum of staged layers", "", total / events, 100.0,
        bounds.sha1_blocks_per_s, bounds.aes_blocks_per_s, bounds.loopback_mb_per_s, bounds.syscalls_per_s
    ));
    table
}

/// `--trace 1`: a short closed loop for the reactor's remainders, the
/// unloaded round trip, then the staged replay and the layer micros.
fn traced_run(args: &RunArgs, gen: &Generator, scratch: &Path) -> RunResult {
    let spec = &args.spec;
    let seconds = args.measured_seconds();
    let (warm, saturate, _) = phase_lengths(seconds);
    let micro_budget = Duration::from_millis(if args.smoke { 10 } else { 40 });
    let staged_events = if args.smoke { 256 } else { staged::EVENTS };

    // Live: CPU per event under load, and the window-1 round trip.
    let mut dep = Deployment::setup(gen, scratch);
    let cov = Coverage::build(gen);
    let sat = live::run_phase(&mut dep, gen, &cov, closed_loop(warm, saturate));
    let unloaded = Load::Closed {
        batch: 1,
        window: 1,
        warm: Duration::from_millis(100),
        measure: Duration::from_secs_f64((seconds / 10.0).clamp(0.5, 2.0)),
    };
    let rtt = live::run_phase(&mut dep, gen, &cov, unloaded);
    let tally = dep.final_tally();
    dep.shutdown();
    let figures = closed_figures(&sat);
    let rtt_p50_us = median(&rtt.latency_us);

    // Staged: alternate untraced and traced chunks of fresh events, so
    // both modes see the same cache warmth and the same machine noise.
    let mut stage = Stage::new(gen, scratch);
    let chunk = staged_events / STAGED_CHUNKS;
    stage.replay(0..chunk, &mut staged::Trace::new(false));
    let (mut off, mut on) = (staged::Trace::new(false), staged::Trace::new(true));
    for k in 0..STAGED_CHUNKS {
        let first = (1 + 2 * k) * chunk;
        stage.replay(first..first + chunk, &mut off);
        stage.replay(first + chunk..first + 2 * chunk, &mut on);
    }
    let (off_s, _, _) = off.finish();
    let (on_s, spans, c) = on.finish();
    if let Some(path) = &args.trace_out {
        staged::write_spans(path, &spans).expect("write spans");
    }
    drop(spans);
    let (insert_ns, remove_ns, subscribe_ns, unsubscribe_ns) = stage.churn_costs();
    let cache_hit_ratio = stage.cache_hit_ratio();
    let pool_reuse_ratio = stage.pool_reuse_ratio();
    let index_bytes = stage.index_bytes_per_subscription;
    let entries = stage.entries;
    stage.cleanup();

    let bounds = micro::bounds(micro_budget);
    let crypto = micro::crypto(spec.payload, micro_budget);
    let tag_match_ns = micro::tag_match_ns(gen, micro_budget);
    let grants = micro::grants(gen, if args.smoke { 256 } else { 2_048 });
    let rekey = micro::rekey(640);
    let log = micro::log(gen, staged_events, scratch);

    let events = c.events.max(1) as f64;
    let frames = c.frames.max(1) as f64;
    let deliveries = c.deliveries.max(1) as f64;
    let per_event = |name: &str| c.layer(name).self_ns as f64 / events;
    let per_frame = |name: &str| c.layer(name).self_ns as f64 / frames;
    let decrypt = c.layer("psguard.decrypt");
    let publish = c.layer("psguard.publish");
    let staged_ns_per_event = c.total_self_ns() as f64 / events;
    // The unloaded round trip crosses two socket hops, whatever the
    // fan-out: feed → broker and broker → probe.
    let hop_ns = per_frame("siena.frame.write")
        + per_frame("siena.frame.read")
        + per_frame("siena.wire.decode");
    let critical_ns = per_event("psguard.publish")
        + per_event("siena.frame.encode")
        + per_event("siena.log.append")
        + per_event("siena.broker.publish")
        + per_event("siena.index.match")
        + per_event("psguard.decrypt")
        + 2.0 * hop_ns;

    let metrics = vec![
        ("crypto.prf_probe_ns", crypto.prf_probe_ns, "ns"),
        (
            "crypto.sha1_ns_per_block",
            1e9 / bounds.sha1_blocks_per_s,
            "ns",
        ),
        (
            "crypto.aes_cbc_ns_per_byte",
            crypto.aes_cbc_ns_per_byte,
            "ns/B",
        ),
        (
            "crypto.hmac_sha1_ns_per_byte",
            crypto.hmac_sha1_ns_per_byte,
            "ns/B",
        ),
        ("keys.grant_ns_per_op", grants.ns_per_op, "ns"),
        ("keys.grant_kh_per_op", grants.kh_per_op, "count"),
        ("keys.cache_hit_ratio", cache_hit_ratio, "ratio"),
        (
            "keys.rekey_flush_ns_per_leave",
            rekey.flush_ns_per_leave,
            "ns",
        ),
        ("keys.rekey_msgs_per_leave", rekey.msgs_per_leave, "count"),
        (
            "psguard.publish_ns_per_event",
            per_event("psguard.publish"),
            "ns",
        ),
        (
            "psguard.publish_kh_per_event",
            c.publish_ops.total() as f64 / events,
            "count",
        ),
        (
            "psguard.publish_allocs_per_event",
            publish.allocs as f64 / events,
            "count",
        ),
        (
            "psguard.decrypt_ns_per_delivery",
            decrypt.self_ns as f64 / decrypt.calls.max(1) as f64,
            "ns",
        ),
        (
            "psguard.decrypt_allocs_per_delivery",
            decrypt.allocs as f64 / decrypt.calls.max(1) as f64,
            "count",
        ),
        (
            "routing.probes_per_event",
            c.match_stats.key_probes as f64 / events,
            "count",
        ),
        ("routing.tag_match_ns", tag_match_ns, "ns"),
        (
            "siena.index.match_ns_per_event",
            per_event("siena.index.match"),
            "ns",
        ),
        (
            "siena.index.work_per_event",
            c.match_stats.work() as f64 / events,
            "count",
        ),
        (
            "siena.index.matched_entries_per_event",
            c.matched_entries as f64 / events,
            "count",
        ),
        ("siena.index.insert_ns_per_op", insert_ns, "ns"),
        ("siena.index.remove_ns_per_op", remove_ns, "ns"),
        ("siena.index.bytes_per_subscription", index_bytes, "B"),
        (
            "siena.broker.publish_self_ns_per_event",
            per_event("siena.broker.publish"),
            "ns",
        ),
        ("siena.broker.subscribe_ns_per_op", subscribe_ns, "ns"),
        ("siena.broker.unsubscribe_ns_per_op", unsubscribe_ns, "ns"),
        (
            "siena.frame.encode_ns_per_event",
            per_event("siena.frame.encode"),
            "ns",
        ),
        (
            "siena.frame.bytes_per_event",
            c.delivered_frame_bytes as f64 / events,
            "B",
        ),
        ("siena.frame.pool_reuse_ratio", pool_reuse_ratio, "ratio"),
        (
            "siena.frame.write_ns_per_delivery",
            per_frame("siena.frame.write"),
            "ns",
        ),
        (
            "siena.frame.writes_per_delivery",
            c.writes as f64 / frames,
            "count",
        ),
        (
            "siena.frame.read_ns_per_delivery",
            per_frame("siena.frame.read"),
            "ns",
        ),
        (
            "siena.wire.decode_ns_per_delivery",
            per_frame("siena.wire.decode"),
            "ns",
        ),
        (
            "siena.log.append_ns_per_event",
            log.append_ns_per_event,
            "ns",
        ),
        ("siena.log.bytes_per_event", log.bytes_per_event, "B"),
        (
            "siena.log.replay_ns_per_event",
            log.replay_ns_per_event,
            "ns",
        ),
        ("siena.log.open_s_per_gb", log.open_s_per_gb, "s/GB"),
        (
            "siena.reactor.cpu_us_per_event",
            figures.reactor_cpu_us_per_event,
            "us",
        ),
        (
            "siena.reactor.residual_us_per_event",
            rtt_p50_us - critical_ns / 1e3,
            "us",
        ),
        ("bound.sha1_blocks_per_s", bounds.sha1_blocks_per_s, "1/s"),
        ("bound.aes_blocks_per_s", bounds.aes_blocks_per_s, "1/s"),
        ("bound.loopback_mb_per_s", bounds.loopback_mb_per_s, "MB/s"),
        ("bound.syscalls_per_s", bounds.syscalls_per_s, "1/s"),
        ("trace.overhead_share", (on_s - off_s) / off_s, "ratio"),
        (
            "reconcile.staged_share",
            staged_ns_per_event / (figures.cpu_us_per_event * 1e3),
            "ratio",
        ),
    ];

    // Each layer against the bound that applies to it.
    let sealed_bytes = (spec.payload / 16 + 1) * 16;
    let probes = c.match_stats.key_probes as f64 / events;
    let notes = [
        ("psguard.publish", format!(
            "AES-CBC {:.0} ns + HMAC {:.0} ns of it at {sealed_bytes} B; floor {:.0} ns at the AES and SHA-1 bounds",
            crypto.aes_cbc_ns_per_byte * sealed_bytes as f64,
            crypto.hmac_sha1_ns_per_byte * sealed_bytes as f64,
            (sealed_bytes / 16) as f64 / bounds.aes_blocks_per_s * 1e9
                + (sealed_bytes / 64 + 3) as f64 / bounds.sha1_blocks_per_s * 1e9)),
        ("psguard.decrypt", format!(
            "same bytes through AES-CBC and HMAC; {:.1} allocs",
            decrypt.allocs as f64 / decrypt.calls.max(1) as f64)),
        ("siena.index.match", format!(
            "{probes:.0} token probes = {tag_match_ns:.0} ns ({:.0}% of the match), counting {:.0} predicates and {:.0} matched entries is the rest; floor {:.0} ns at 4 SHA-1 blocks per probe",
            tag_match_ns / per_event("siena.index.match").max(1.0) * 100.0,
            c.match_stats.predicate_evals as f64 / events,
            c.matched_entries as f64 / events,
            probes * 4.0 / bounds.sha1_blocks_per_s * 1e9)),
        ("siena.broker.publish", format!(
            "self: {:.1} per-recipient clones and the action list",
            deliveries / events)),
        ("siena.frame.write", format!(
            "{:.2} frames/event, {:.2} writes/frame; floor {:.0} ns/event at the syscall bound",
            frames / events, c.writes as f64 / frames,
            c.writes as f64 / events / bounds.syscalls_per_s * 1e9)),
        ("siena.frame.read", format!(
            "{:.0} B/event over the socket; floor {:.0} ns/event at the loopback bound",
            c.socket_bytes as f64 / events,
            c.socket_bytes as f64 / events / (bounds.loopback_mb_per_s * 1e6) * 1e9)),
        ("siena.log.append", format!(
            "{:.0} B/event to the page cache, no fsync", c.log_bytes as f64 / events)),
    ];
    let table = budget_table(&c, &bounds, &notes);
    eprintln!(
        "\nbudget table, {} (seed {}, {} events staged)\n{table}",
        spec.name, args.seed, c.events
    );
    eprintln!(
        "reconcile: staged {:.1} us/event vs {:.1} us/event of process CPU under load -> staged_share {:.2}; the rest is siena.reactor.* ({:.1} us/event of CPU outside the two generator threads)",
        staged_ns_per_event / 1e3, figures.cpu_us_per_event,
        staged_ns_per_event / (figures.cpu_us_per_event * 1e3), figures.reactor_cpu_us_per_event);
    eprintln!(
        "unloaded round trip p50 {:.0} us vs {:.0} us of staged layers on its path -> residual {:.0} us (queues, channel hops, poller parking)",
        rtt_p50_us, critical_ns / 1e3, rtt_p50_us - critical_ns / 1e3);
    eprintln!(
        "tracing overhead: spans on {on_s:.3} s vs off {off_s:.3} s -> {:.3}",
        (on_s - off_s) / off_s
    );

    let mut layers = Json::obj();
    for name in LAYERS {
        let cost = c.layer(name);
        layers.set(
            name,
            Json::obj()
                .field("calls", cost.calls)
                .field("self_ns_per_event", cost.self_ns as f64 / events)
                .field(
                    "share",
                    cost.self_ns as f64 / c.total_self_ns().max(1) as f64,
                )
                .field("allocs_per_event", cost.allocs as f64 / events),
        );
    }
    let diagnostics = Json::obj()
        .field("trace.hash", gen.trace_hash(staged_events))
        .field("staged.events", c.events)
        .field("staged.deliveries_per_event", deliveries / events)
        .field("staged.us_per_event", staged_ns_per_event / 1e3)
        .field("staged.index_entries", entries)
        .field("staged.layers", layers)
        .field(
            "expected_deliveries",
            cov.expected_counts(gen, staged_events)
                .iter()
                .map(|&n| Json::from(n))
                .collect::<Vec<_>>(),
        )
        .field("live.cpu_us_per_event", figures.cpu_us_per_event)
        .field("live.events_per_s", figures.events_per_s)
        .field("live.rtt_p50_us", rtt_p50_us)
        .field("live.rtt_samples", rtt.latency_us.len())
        .field("siena.log.fsync_ns", log.fsync_ns)
        .field("budget_table", table)
        .field("accounting", tally_json(&tally));

    RunResult {
        correct: tally.failed() == 0,
        attempted: tally.attempted.max(1),
        failed: tally.failed(),
        metrics,
        diagnostics,
    }
}

/// Runs one workload once, writes `--out` if asked, and returns the
/// result.
pub fn run(args: &RunArgs) -> RunResult {
    let pinned = crate::pin::pin_to_one_cpu();
    let scratch = scratch_dir();
    let gen = Generator::new(&args.spec, args.seed);
    let mut result = if args.trace {
        traced_run(args, &gen, &scratch)
    } else {
        timed_run(args, &gen, &scratch)
    };
    let _ = std::fs::remove_dir_all(&scratch);
    result
        .diagnostics
        .set("pinned_cpu", pinned.map_or(Json::Null, Json::from));
    if let Some(path) = &args.out {
        std::fs::write(path, report(args, &result).pretty()).expect("write --out");
    }
    result
}

/// The full report of one run: metrics by name and unit, diagnostics,
/// provenance.
pub fn report(args: &RunArgs, result: &RunResult) -> Json {
    Json::obj()
        .field("workload", args.spec.name)
        .field("why", args.spec.why)
        .field("seed", args.seed)
        .field("seconds", args.seconds)
        .field("trace", args.trace)
        .field("provenance", provenance(args.smoke))
        .field("correct", result.correct)
        .field("ops_attempted", result.attempted)
        .field("ops_failed", result.failed)
        .field("metrics", result.metrics_json())
        .field("diagnostics", result.diagnostics.clone())
}
