//! `compare a.json b.json`: per end-to-end metric × workload, is `b`
//! within the benchmark's bound of `a`, worse, or unresolved because the
//! run-to-run spread is wider than the bound.

use crate::json::Json;

/// `BENCHMARK.json` as committed beside this package: the bounds and
/// directions `compare` judges by are the ones the driver uses.
pub const BENCHMARK_JSON: &str = include_str!("../../BENCHMARK.json");

struct Bound {
    name: String,
    higher_is_better: bool,
    bound: f64,
}

fn bounds() -> Result<Vec<Bound>, String> {
    let doc = Json::parse(BENCHMARK_JSON)?;
    let list = doc
        .get("end_to_end")
        .and_then(Json::as_arr)
        .ok_or("BENCHMARK.json has no end_to_end list")?;
    list.iter()
        .map(|m| {
            Ok(Bound {
                name: m
                    .get("name")
                    .and_then(Json::as_str)
                    .ok_or("metric without name")?
                    .to_owned(),
                higher_is_better: m.get("better").and_then(Json::as_str) == Some("higher"),
                bound: m
                    .get("bound")
                    .and_then(Json::as_f64)
                    .ok_or("metric without bound")?,
            })
        })
        .collect()
}

fn workload<'a>(doc: &'a Json, name: &str) -> Option<&'a Json> {
    doc.get("workloads")?
        .as_arr()?
        .iter()
        .find(|w| w.get("name").and_then(Json::as_str) == Some(name))
}

fn figure(w: &Json, metric: &str, key: &str) -> Option<f64> {
    w.get("end_to_end")?.get(metric)?.get(key)?.as_f64()
}

/// Compares two `run` reports; returns the table and whether any pairing
/// is worse.
///
/// # Errors
///
/// When either document is not a `run` report.
pub fn compare(a: &Json, b: &Json) -> Result<(String, bool), String> {
    let bounds = bounds()?;
    let names: Vec<&str> = a
        .get("workloads")
        .and_then(Json::as_arr)
        .ok_or("first file is not a run report")?
        .iter()
        .filter_map(|w| w.get("name")?.as_str())
        .collect();
    let mut table = format!(
        "{:<14} {:<18} {:>14} {:>14} {:>8} {:>7} {:>8}  {}\n",
        "workload", "metric", "a median", "b median", "change", "bound", "spread", "verdict"
    );
    let mut any_worse = false;
    for name in names {
        let (Some(wa), Some(wb)) = (workload(a, name), workload(b, name)) else {
            table.push_str(&format!("{name:<14} missing from the second file\n"));
            any_worse = true;
            continue;
        };
        for m in &bounds {
            let (Some(ma), Some(mb)) =
                (figure(wa, &m.name, "median"), figure(wb, &m.name, "median"))
            else {
                continue;
            };
            // Positive = worse, as a share of a's median.
            let change = if m.higher_is_better { ma - mb } else { mb - ma }
                / ma.abs().max(f64::MIN_POSITIVE);
            let spread = [wa, wb]
                .iter()
                .filter_map(|w| figure(w, &m.name, "iqr_share"))
                .fold(None, |acc: Option<f64>, s| {
                    Some(acc.map_or(s, |a| a.max(s)))
                });
            let verdict = if spread.is_some_and(|s| s > m.bound) {
                "unresolved"
            } else if change > m.bound {
                any_worse = true;
                "worse"
            } else {
                "within"
            };
            table.push_str(&format!(
                "{:<14} {:<18} {:>14.4} {:>14.4} {:>+7.1}% {:>6.0}% {:>8}  {}\n",
                name,
                m.name,
                ma,
                mb,
                change * 100.0,
                m.bound * 100.0,
                spread.map_or("n/a".to_owned(), |s| format!("{:.1}%", s * 100.0)),
                verdict
            ));
        }
        let share = |w: &Json| w.get("failed_share").and_then(Json::as_f64).unwrap_or(0.0);
        let verdict = if share(wb) > share(wa) {
            any_worse = true;
            "worse"
        } else {
            "within"
        };
        table.push_str(&format!(
            "{:<14} {:<18} {:>14.6} {:>14.6} {:>8} {:>7} {:>8}  {}\n",
            name,
            "failed_share",
            share(wa),
            share(wb),
            "",
            "any",
            "",
            verdict
        ));
    }
    Ok((table, any_worse))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn report(events_per_s: f64, iqr: f64, failed_share: f64) -> Json {
        let metric = Json::obj()
            .field("median", events_per_s)
            .field("iqr_share", iqr);
        Json::obj().field(
            "workloads",
            vec![Json::obj()
                .field("name", "live_small")
                .field("failed_share", failed_share)
                .field("end_to_end", Json::obj().field("events_per_s", metric))],
        )
    }

    fn verdict_of(a: &Json, b: &Json) -> (String, bool) {
        let (table, worse) = compare(a, b).unwrap();
        let line = table.lines().find(|l| l.contains("events_per_s")).unwrap();
        (line.split_whitespace().last().unwrap().to_owned(), worse)
    }

    #[test]
    fn within_worse_and_unresolved() {
        let base = report(1000.0, 0.01, 0.0);
        assert_eq!(
            verdict_of(&base, &report(990.0, 0.01, 0.0)),
            ("within".into(), false)
        );
        assert_eq!(
            verdict_of(&base, &report(2000.0, 0.01, 0.0)),
            ("within".into(), false)
        );
        assert_eq!(
            verdict_of(&base, &report(500.0, 0.01, 0.0)),
            ("worse".into(), true)
        );
        assert_eq!(verdict_of(&base, &report(500.0, 0.9, 0.0)).0, "unresolved");
        // Any increase of failed_share is worse, whatever the metrics say.
        assert!(compare(&base, &report(1000.0, 0.01, 0.001)).unwrap().1);
    }

    #[test]
    fn benchmark_json_names_every_metric_the_code_prints() {
        let doc = Json::parse(BENCHMARK_JSON).unwrap();
        let names = |key: &str| -> Vec<(String, String)> {
            doc.get(key)
                .and_then(Json::as_arr)
                .unwrap()
                .iter()
                .map(|m| {
                    (
                        m.get("name").and_then(Json::as_str).unwrap().to_owned(),
                        m.get("unit").and_then(Json::as_str).unwrap().to_owned(),
                    )
                })
                .collect()
        };
        let own = |list: &[(&str, &str)]| -> Vec<(String, String)> {
            list.iter()
                .map(|(n, u)| ((*n).to_owned(), (*u).to_owned()))
                .collect()
        };
        assert_eq!(names("end_to_end"), own(&crate::run::END_TO_END));
        assert_eq!(names("per_layer"), own(&crate::run::PER_LAYER));
        let workloads: Vec<String> = doc
            .get("workloads")
            .and_then(Json::as_arr)
            .unwrap()
            .iter()
            .map(|w| w.get("name").and_then(Json::as_str).unwrap().to_owned())
            .collect();
        let own: Vec<String> = crate::workload::all()
            .iter()
            .map(|s| s.name.to_owned())
            .collect();
        assert_eq!(workloads, own);
    }
}
