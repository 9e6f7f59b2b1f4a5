//! `run`: every workload, each in a fresh process, gathered into one
//! report. A fresh process per run keeps `peak_rss_mb` (a process-lifetime
//! high-water mark) and lazy set-up honest between workloads.

use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};

use crate::json::Json;
use crate::run::{provenance, scratch_dir, END_TO_END};
use crate::stats::{iqr_share, median, quartiles};
use crate::workload::{self, Spec};

/// Arguments of the `run` subcommand.
#[derive(Debug, Clone)]
pub struct SuiteArgs {
    /// Seed of the first run; repeat `i` uses `seed + i`.
    pub seed: u64,
    /// Measured seconds per run.
    pub seconds: f64,
    /// Timed runs per workload.
    pub repeat: u64,
    /// Shrink every phase to about a second.
    pub smoke: bool,
    /// Only this workload.
    pub only: Option<String>,
    /// Where to write the report (it is always printed to stdout).
    pub out: Option<PathBuf>,
    /// Directory for the spans of each workload's traced run.
    pub trace_out: Option<PathBuf>,
}

/// Runs one child in driver mode and returns its full report.
fn child(
    spec: &Spec,
    seed: u64,
    trace: bool,
    args: &SuiteArgs,
    tmp: &Path,
) -> Result<Json, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let out = tmp.join(format!("{}-{seed}-{}.json", spec.name, u8::from(trace)));
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", spec.name])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &args.seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .arg("--out")
        .arg(&out)
        .stdout(Stdio::null());
    if args.smoke {
        cmd.arg("--smoke");
    }
    if let (true, Some(dir)) = (trace, &args.trace_out) {
        std::fs::create_dir_all(dir).map_err(|e| e.to_string())?;
        cmd.arg("--trace-out")
            .arg(dir.join(format!("{}.spans.jsonl", spec.name)));
    }
    let status = cmd.status().map_err(|e| e.to_string())?;
    let text = std::fs::read_to_string(&out)
        .map_err(|e| format!("{} seed {seed}: no report ({status}): {e}", spec.name))?;
    let _ = std::fs::remove_file(&out);
    Json::parse(&text)
}

fn metric_value(report: &Json, name: &str) -> Option<f64> {
    report.get("metrics")?.get(name)?.get("value")?.as_f64()
}

/// Runs the suite; returns the report and whether every run was correct.
pub fn run(args: &SuiteArgs) -> (Json, bool) {
    let tmp = scratch_dir();
    let mut all_correct = true;
    let mut workloads = Vec::new();
    for spec in workload::all() {
        if args.only.as_deref().is_some_and(|only| only != spec.name) {
            continue;
        }
        eprintln!("== {} ==", spec.name);
        let mut runs = Vec::new();
        for i in 0..args.repeat.max(1) {
            match child(&spec, args.seed + i, false, args, &tmp) {
                Ok(report) => runs.push(report),
                Err(e) => {
                    eprintln!("{e}");
                    all_correct = false;
                }
            }
        }
        let traced = child(&spec, args.seed, true, args, &tmp).unwrap_or_else(|e| {
            eprintln!("{e}");
            all_correct = false;
            Json::Null
        });

        let mut end_to_end = Json::obj();
        for (name, unit) in END_TO_END {
            let values: Vec<f64> = runs.iter().filter_map(|r| metric_value(r, name)).collect();
            let (q1, q3) = quartiles(&values).map_or((Json::Null, Json::Null), |(a, b)| {
                (Json::Num(a), Json::Num(b))
            });
            end_to_end.set(
                name,
                Json::obj()
                    .field("unit", unit)
                    .field("median", median(&values))
                    .field("q1", q1)
                    .field("q3", q3)
                    .field(
                        "iqr_share",
                        iqr_share(&values).map_or(Json::Null, Json::Num),
                    )
                    .field("values", values.as_slice()),
            );
        }
        let sum = |key: &str| -> f64 {
            runs.iter()
                .chain(std::iter::once(&traced))
                .filter_map(|r| r.get(key)?.as_f64())
                .sum()
        };
        let (attempted, failed) = (sum("ops_attempted"), sum("ops_failed"));
        all_correct &= runs
            .iter()
            .chain(std::iter::once(&traced))
            .all(|r| r.get("correct") == Some(&Json::Bool(true)));
        workloads.push(
            Json::obj()
                .field("name", spec.name)
                .field("why", spec.why)
                .field("ops_attempted", attempted)
                .field("ops_failed", failed)
                .field("failed_share", failed / attempted.max(1.0))
                .field("end_to_end", end_to_end)
                .field(
                    "per_layer",
                    traced.get("metrics").cloned().unwrap_or(Json::Null),
                )
                .field(
                    "budget_table",
                    traced
                        .get("diagnostics")
                        .and_then(|d| d.get("budget_table"))
                        .cloned()
                        .unwrap_or(Json::Null),
                )
                .field("timed_runs", runs)
                .field("traced_run", traced),
        );
    }
    let _ = std::fs::remove_dir_all(&tmp);
    let report = Json::obj()
        .field("benchmark", "psguard-pathbench")
        .field("provenance", provenance(args.smoke))
        .field("seed", args.seed)
        .field("seconds", args.seconds)
        .field("repeat", args.repeat)
        .field("correct", all_correct)
        .field("workloads", workloads);
    (report, all_correct)
}
