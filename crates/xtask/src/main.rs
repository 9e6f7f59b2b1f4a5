//! CLI for the workspace static-analysis pass.
//!
//! Usage: `cargo run -p psguard-xtask -- check [--format json|text]`, or
//! `cargo run -p psguard-xtask -- dead-pub` for the dead-pub family alone.

use std::path::PathBuf;
use std::process::ExitCode;

fn workspace_root() -> PathBuf {
    // xtask lives at <root>/crates/xtask; CARGO_MANIFEST_DIR is absolute.
    let manifest = PathBuf::from(env!("CARGO_MANIFEST_DIR"));
    manifest
        .ancestors()
        .nth(2)
        .map(PathBuf::from)
        .unwrap_or(manifest)
}

#[derive(PartialEq)]
enum Format {
    Text,
    Json,
}

fn main() -> ExitCode {
    let mut args = std::env::args().skip(1);
    match args.next().as_deref() {
        Some("check") => {
            let mut format = Format::Text;
            while let Some(arg) = args.next() {
                match arg.as_str() {
                    "--format" => match args.next().as_deref() {
                        Some("json") => format = Format::Json,
                        Some("text") => format = Format::Text,
                        other => {
                            eprintln!(
                                "--format expects `json` or `text`, got `{}`",
                                other.unwrap_or("<nothing>")
                            );
                            return ExitCode::FAILURE;
                        }
                    },
                    other => {
                        eprintln!("unknown flag `{other}`; try `check [--format json|text]`");
                        return ExitCode::FAILURE;
                    }
                }
            }
            check(format)
        }
        Some("dead-pub") => dead_pub(),
        Some(other) => {
            eprintln!("unknown subcommand `{other}`; try `check` or `dead-pub`");
            ExitCode::FAILURE
        }
        None => {
            eprintln!("usage: cargo run -p psguard-xtask -- check [--format json|text] | dead-pub");
            ExitCode::FAILURE
        }
    }
}

fn check(format: Format) -> ExitCode {
    let root = workspace_root();
    match psguard_xtask::run_check(&root) {
        Ok(report) => {
            match format {
                Format::Text => print!("{}", psguard_xtask::render(&report)),
                Format::Json => print!("{}", psguard_xtask::render_json(&report)),
            }
            if report.is_clean() {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        Err(e) => {
            eprintln!("psguard-xtask: {e}");
            ExitCode::FAILURE
        }
    }
}

/// Prints only the dead-pub findings: public fns no shipped code uses.
fn dead_pub() -> ExitCode {
    match psguard_xtask::run_check(&workspace_root()) {
        Ok(report) => {
            let dead: Vec<_> = report
                .violations
                .iter()
                .filter(|v| v.rule == psguard_xtask::rules::Rule::DeadPub)
                .collect();
            for v in &dead {
                println!("{v}");
            }
            let kept: u32 = report.dead_pub_justified.values().sum();
            println!(
                "psguard-xtask dead-pub: {} unused pub fn(s), {kept} kept with DEAD-PUB-OK",
                dead.len()
            );
            if dead.is_empty() && report.dead_pub_budget_issues.is_empty() {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        Err(e) => {
            eprintln!("psguard-xtask: {e}");
            ExitCode::FAILURE
        }
    }
}
