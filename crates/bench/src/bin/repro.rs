//! Reproduces the paper's evaluation and checks its claims:
//!
//! ```console
//! cargo run --release -p psguard-bench --bin repro -- all
//! cargo run --release -p psguard-bench --bin repro -- table1 fig8_overlay
//! ```
//!
//! Prints each experiment's table followed by its claims, one line each,
//! and exits non-zero if any claim does not come out as expected (see
//! `psguard_bench::repro`).

use std::process::ExitCode;

use psguard_bench::repro::{run, EXPERIMENTS};

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let known: Vec<&str> = EXPERIMENTS.iter().map(|(name, _)| *name).collect();
    let names = match args.iter().any(|a| a == "all") {
        true => known.clone(),
        false => args.iter().map(String::as_str).collect(),
    };
    if names.is_empty() || names.iter().any(|n| !known.contains(n)) {
        eprintln!("usage: repro <name>... | all\nnames: {}", known.join(" "));
        return ExitCode::from(2);
    }
    let mut failed = Vec::new();
    for (i, name) in names.into_iter().enumerate() {
        let report = run(name).expect("known experiment");
        print!("{}{}", if i > 0 { "\n" } else { "" }, report.render());
        failed.extend(report.failures().map(|c| format!("{name}: {}", c.what)));
    }
    if failed.is_empty() {
        return ExitCode::SUCCESS;
    }
    eprintln!(
        "repro: {} claim(s) did not come out as expected:",
        failed.len()
    );
    for f in &failed {
        eprintln!("  {f}");
    }
    ExitCode::FAILURE
}
