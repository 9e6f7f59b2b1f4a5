//! The reproduction contract in the test suite. Every experiment whose
//! claims read only counts and seeded simulations must bear its claims
//! out, and EXPERIMENTS.md must record exactly what `repro` prints for
//! the ones with no host-timed column. Figures 9–11 read host-timed
//! crypto costs; CI runs them with `repro all`.

use std::sync::OnceLock;

use psguard_bench::repro::{run, Report};

/// Tables 1–6, Figures 3–8 and the overlay companion of Figure 8.
const COUNTED: [&str; 13] = [
    "table1",
    "table2",
    "table3",
    "table4",
    "table5",
    "table6",
    "fig3",
    "fig4",
    "fig5",
    "fig6",
    "fig7",
    "fig8",
    "fig8_overlay",
];

/// The experiments whose whole output is the same on every host and in
/// every build profile.
const DETERMINISTIC: [&str; 10] = [
    "table3",
    "table4",
    "table5",
    "table6",
    "fig3",
    "fig4",
    "fig6",
    "fig7",
    "fig8",
    "fig8_overlay",
];

/// Each counted experiment, run once and shared by both tests.
fn reports() -> &'static [(&'static str, Report)] {
    static REPORTS: OnceLock<[(&str, Report); 13]> = OnceLock::new();
    REPORTS.get_or_init(|| COUNTED.map(|name| (name, run(name).expect("known"))))
}

#[test]
fn counted_experiments_bear_out_their_claims() {
    let mut failed = Vec::new();
    for (name, report) in reports() {
        failed.extend(report.failures().map(|c| format!("{name}: {}", c.what)));
    }
    assert!(
        failed.is_empty(),
        "claims that did not come out as expected:\n{}",
        failed.join("\n")
    );
}

#[test]
fn experiments_md_records_what_repro_prints() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../EXPERIMENTS.md");
    let doc = std::fs::read_to_string(path).expect("EXPERIMENTS.md is readable");
    for (name, report) in reports() {
        if DETERMINISTIC.contains(name) {
            let block = format!("```text\n{}```\n", report.render());
            assert!(
                doc.contains(&block),
                "EXPERIMENTS.md has no block equal to `repro {name}`:\n{block}"
            );
        }
    }
}
