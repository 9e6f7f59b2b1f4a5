//! `pathbench`: the benchmark's one command.
//!
//! * `pathbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!   runs one workload once and prints the result object as the last
//!   line of stdout (the form the driver calls).
//! * `pathbench run --seed <n> [--seconds s] [--repeat r] [--smoke]
//!   [--workload name] [--out file] [--trace-out dir]` runs every
//!   workload, timed and traced, each in a fresh process, and prints one
//!   report.
//! * `pathbench compare a.json b.json` judges two such reports by the
//!   bounds in `BENCHMARK.json`.

use std::path::PathBuf;
use std::process::ExitCode;

use psguard_pathbench::compare::compare;
use psguard_pathbench::json::Json;
use psguard_pathbench::run::{run, RunArgs};
use psguard_pathbench::suite::{self, SuiteArgs};
use psguard_pathbench::workload;

const USAGE: &str = "usage:
  pathbench --workload <name> --seed <n> --seconds <s> --trace <0|1> [--smoke] [--out file] [--trace-out file]
  pathbench run --seed <n> [--seconds s] [--repeat r] [--smoke] [--workload name] [--out file] [--trace-out dir]
  pathbench compare <a.json> <b.json>";

/// `--flag value` pairs and bare `--smoke`, in any order.
struct Flags(Vec<String>);

impl Flags {
    fn value(&self, flag: &str) -> Option<&str> {
        let at = self.0.iter().position(|a| a == flag)?;
        self.0.get(at + 1).map(String::as_str)
    }

    fn parsed<T: std::str::FromStr>(&self, flag: &str) -> Result<Option<T>, String> {
        self.value(flag)
            .map(|v| v.parse().map_err(|_| format!("bad value for {flag}: {v}")))
            .transpose()
    }

    fn has(&self, flag: &str) -> bool {
        self.0.iter().any(|a| a == flag)
    }
}

fn one_run(flags: &Flags) -> Result<ExitCode, String> {
    let name = flags.value("--workload").ok_or("missing --workload")?;
    let spec = workload::by_name(name).ok_or_else(|| {
        let names: Vec<_> = workload::all().iter().map(|s| s.name).collect();
        format!("unknown workload {name}; one of {}", names.join(", "))
    })?;
    let trace = match flags.value("--trace").unwrap_or("0") {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace takes 0 or 1, not {other}")),
    };
    let args = RunArgs {
        spec,
        seed: flags.parsed("--seed")?.ok_or("missing --seed")?,
        seconds: flags.parsed("--seconds")?.unwrap_or(10.0),
        trace,
        smoke: flags.has("--smoke"),
        out: flags.value("--out").map(PathBuf::from),
        trace_out: flags.value("--trace-out").map(PathBuf::from),
    };
    if !(args.seconds >= 1.0 && args.seconds <= 120.0) {
        return Err(format!(
            "--seconds must be within 1..=120, not {}",
            args.seconds
        ));
    }
    let result = run(&args);
    eprintln!("{}", result.diagnostics.pretty());
    println!("{}", result.driver_line());
    // A run with a failed check still prints its result, then exits
    // non-zero so no caller mistakes it for a measurement.
    Ok(if result.correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

fn suite_run(flags: &Flags) -> Result<ExitCode, String> {
    let args = SuiteArgs {
        seed: flags.parsed("--seed")?.ok_or("missing --seed")?,
        seconds: flags.parsed("--seconds")?.unwrap_or(26.0),
        repeat: flags.parsed("--repeat")?.unwrap_or(1),
        smoke: flags.has("--smoke"),
        only: flags.value("--workload").map(str::to_owned),
        out: flags.value("--out").map(PathBuf::from),
        trace_out: flags.value("--trace-out").map(PathBuf::from),
    };
    let (report, correct) = suite::run(&args);
    let text = report.pretty();
    if let Some(path) = &args.out {
        std::fs::write(path, &text).map_err(|e| format!("{}: {e}", path.display()))?;
    }
    print!("{text}");
    Ok(if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

fn compare_files(paths: &[String]) -> Result<ExitCode, String> {
    let [a, b] = paths else {
        return Err("compare takes two files".into());
    };
    let load = |path: &String| -> Result<Json, String> {
        let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
        Json::parse(&text).map_err(|e| format!("{path}: {e}"))
    };
    let (table, any_worse) = compare(&load(a)?, &load(b)?)?;
    print!("{table}");
    Ok(if any_worse {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    })
}

fn main() -> ExitCode {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    let outcome = match args.first().map(String::as_str) {
        Some("run") => suite_run(&Flags(args.split_off(1))),
        Some("compare") => compare_files(&args[1..]),
        Some(_) => one_run(&Flags(args)),
        None => Err("no arguments".into()),
    };
    outcome.unwrap_or_else(|e| {
        eprintln!("pathbench: {e}\n{USAGE}");
        ExitCode::from(2)
    })
}
