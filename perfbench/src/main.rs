//! Benchmark of the UPaRC serving stack: two open-loop rack workloads,
//! the end-to-end metrics a user of the system sees, and a separate
//! traced run that times each layer from outside.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <fleet-locality|fleet-random> \
//!     --seed <n> --seconds <n> --trace <0|1>
//! ```
//!
//! The last line of standard output is one JSON object with the keys
//! `correct`, `attempted`, `failed` and `metrics`: the end-to-end
//! metrics with `--trace 0`, the per-layer metrics with `--trace 1`.
//! `perfbench/README.md` describes the workloads and metrics.

mod fleet;
mod host;
mod paper;
mod probe;
mod report;
mod serve;

use report::{Report, END_TO_END, PER_LAYER};

/// Parsed command line.
#[derive(Debug, Clone, PartialEq, Eq)]
struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

const USAGE: &str = "usage: perfbench --workload <fleet-locality|fleet-random> \
                     --seed <n> --seconds <n> --trace <0|1>";

fn parse(args: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("{flag} takes a whole number, not {value:?}"))
        };
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(number()?),
            "--seconds" => seconds = Some(number()?.max(1)),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value:?}")),
                });
            }
            _ => return Err(format!("unknown argument {flag:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

/// Runs one workload at `full` or smallest scale. `None` for an unknown
/// workload name.
fn run_workload(args: &Args, full: bool) -> Option<Report> {
    let routing = match args.workload.as_str() {
        "fleet-locality" => fleet::Routing::Locality,
        "fleet-random" => fleet::Routing::Random,
        _ => return None,
    };
    let scale = if full {
        fleet::Scale::full(routing)
    } else {
        fleet::Scale::smallest(routing)
    };
    let mut report = fleet::run(routing, &scale, args.seed, args.seconds as f64, args.trace);
    match paper::table3_error_pct() {
        Ok(pct) => {
            if pct > paper::MAX_ERROR_PCT {
                report.violation(format!(
                    "Table III error {pct:.2}% is outside the ±{}% band",
                    paper::MAX_ERROR_PCT
                ));
            }
            if !args.trace {
                report.set("paper_error_pct", pct);
            }
        }
        Err(e) => report.violation(format!("Table III check: {e}")),
    }
    Some(report)
}

/// Prints the human-readable summary and, last, the JSON result line.
fn print(report: &mut Report, trace: bool) {
    let names = if trace { PER_LAYER } else { END_TO_END };
    let json = report.json(names);
    for note in &report.notes {
        println!("# {note}");
    }
    for &(name, unit) in names {
        println!(
            "{name:<26} {:>16.6} {unit}",
            report.get(name).unwrap_or(0.0)
        );
    }
    for v in &report.violations {
        println!("VIOLATION: {v}");
    }
    println!("{json}");
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    let Some(mut report) = run_workload(&args, true) else {
        eprintln!("unknown workload {:?}\n{USAGE}", args.workload);
        std::process::exit(2);
    };
    print(&mut report, args.trace);
}

#[cfg(test)]
mod tests {
    use super::*;
    use uparc_sim::obs::json::JsonValue;

    fn args(workload: &str, trace: bool) -> Args {
        Args {
            workload: workload.to_owned(),
            seed: 7,
            seconds: 1,
            trace,
        }
    }

    /// `(name, unit)` pairs of one metric list in `BENCHMARK.json`.
    fn declared(list: &str) -> Vec<(String, String)> {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let json = uparc_sim::obs::json::parse(&text).expect("BENCHMARK.json parses");
        json.get(list)
            .and_then(|v| v.as_array())
            .expect("metric list")
            .iter()
            .map(|m| {
                let field = |k: &str| m.get(k).and_then(|v| v.as_str()).expect(k).to_owned();
                (field("name"), field("unit"))
            })
            .collect()
    }

    /// The metric names and units of a result line, in order.
    fn printed(line: &str) -> Vec<(String, String)> {
        let json = uparc_sim::obs::json::parse(line).expect("result line parses");
        let Some(JsonValue::Object(metrics)) = json.get("metrics") else {
            panic!("metrics is not an object: {line}");
        };
        metrics
            .iter()
            .map(|(name, m)| {
                assert!(m.get("value").and_then(|v| v.as_f64()).is_some(), "{name}");
                let unit = m.get("unit").and_then(|v| v.as_str()).expect("unit");
                (name.clone(), unit.to_owned())
            })
            .collect()
    }

    fn owned(list: &[(&str, &str)]) -> Vec<(String, String)> {
        list.iter()
            .map(|&(n, u)| (n.to_owned(), u.to_owned()))
            .collect()
    }

    #[test]
    fn catalogue_matches_benchmark_json() {
        assert_eq!(owned(END_TO_END), declared("end_to_end"));
        assert_eq!(owned(PER_LAYER), declared("per_layer"));
    }

    #[test]
    fn every_workload_prints_every_metric_at_its_smallest_size() {
        for workload in ["fleet-locality", "fleet-random"] {
            for trace in [false, true] {
                let mut report = run_workload(&args(workload, trace), false).expect("known");
                assert!(
                    report.correct(),
                    "{workload} trace={trace}: {:?}",
                    report.violations
                );
                let line = report.json(if trace { PER_LAYER } else { END_TO_END });
                let want = declared(if trace { "per_layer" } else { "end_to_end" });
                let mut got = printed(&line);
                got.sort();
                let mut want_sorted = want.clone();
                want_sorted.sort();
                assert_eq!(got, want_sorted, "{workload} trace={trace}");
                if !trace {
                    for name in ["setup_s", "req_per_s", "sim_p99_us", "paper_error_pct"] {
                        assert!(report.get(name).unwrap_or(0.0) > 0.0, "{workload}: {name}");
                    }
                    assert_eq!(report.get("success_rate"), Some(1.0), "{workload}");
                }
            }
        }
    }

    #[test]
    fn an_infeasible_rack_cap_is_reported_as_a_failure() {
        let routing = fleet::Routing::Locality;
        // Below every chip's idle draw: `FleetError::InfeasibleRackCap`.
        let scale = fleet::Scale {
            rack_cap_mw: 1.0,
            ..fleet::Scale::smallest(routing)
        };
        let mut report = fleet::run(routing, &scale, 7, 1.0, false);
        assert!(!report.correct());
        assert!(report.attempted > 0);
        assert_eq!(report.failed, report.attempted);
        assert_eq!(report.success_rate(), 0.0);
        assert!(
            report.violations.iter().any(|v| v.contains("rack cap")),
            "{:?}",
            report.violations
        );
        assert!(report.json(END_TO_END).starts_with("{\"correct\": false"));
    }

    #[test]
    fn command_line_is_checked() {
        let ok: Vec<String> = "--workload fleet-random --seed 3 --seconds 10 --trace 1"
            .split(' ')
            .map(str::to_owned)
            .collect();
        assert_eq!(
            parse(&ok),
            Ok(Args {
                workload: "fleet-random".to_owned(),
                seed: 3,
                seconds: 10,
                trace: true
            })
        );
        for bad in [
            "--workload x --seed 3 --seconds 10",
            "--workload x --seed -1 --seconds 10 --trace 0",
            "--workload x --seed 3 --seconds 10 --trace 2",
            "--workload x --seed 3 --seconds 10 --trace 0 --extra 1",
        ] {
            let argv: Vec<String> = bad.split(' ').map(str::to_owned).collect();
            assert!(parse(&argv).is_err(), "{bad}");
        }
        assert!(run_workload(&args("nope", false), false).is_none());
    }
}
