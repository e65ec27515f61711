//! The benchmark's metric catalogue and its one-line JSON result.
//!
//! The names, units and order below are the ones `BENCHMARK.json` lists;
//! a unit test holds the two in step.

use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};

/// End-to-end metrics: `(name, unit)`. Printed with `--trace 0`.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("req_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
    ("sim_p50_us", "us"),
    ("sim_p99_us", "us"),
    ("sim_p999_us", "us"),
    ("sim_energy_uj_per_req", "uJ"),
    ("success_rate", "ratio"),
    ("paper_error_pct", "%"),
];

/// Per-layer metrics: `(name, unit)`. Printed with `--trace 1`.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("workload.gen_s", "s"),
    ("router.route_s", "s"),
    ("router.warm", "count"),
    ("router.cold", "count"),
    ("router.spills", "count"),
    ("budget.schedule_s", "s"),
    ("budget.epochs", "count"),
    ("fleet.residual_s", "s"),
    ("fleet.serial_share", "ratio"),
    ("chip.sim_wall_s", "s"),
    ("chip.busy_s", "s"),
    ("chip.max_s", "s"),
    ("chip.imbalance", "ratio"),
    ("chip.hits", "count"),
    ("chip.misses", "count"),
    ("chip.evictions", "count"),
    ("chip.decompressed_mb", "MB"),
    ("compress.decode_mb_per_s", "MB/s"),
    ("catalog.build_s", "s"),
    ("plan.build_s", "s"),
    ("serve.run_s", "s"),
    ("serve.dispatch_s", "s"),
    ("serve.sched_s", "s"),
    ("serve.dispatches", "count"),
    ("serve.rejected", "count"),
    ("thermal.throttles", "count"),
    ("power.vf_ramps", "count"),
    ("core.preload_us", "us"),
    ("core.reconfigure_us", "us"),
    ("core.readback_us", "us"),
    ("recovery.reconfigure_us", "us"),
    ("policy.plan_vf_ns", "ns"),
    ("sim.queue_wait_us_p50", "us"),
    ("sim.queue_wait_us_p99", "us"),
    ("sim.service_us_p50", "us"),
    ("sim.mean_mhz", "MHz"),
    ("sim.peak_power_mw", "mW"),
    ("sim.peak_temp_c", "C"),
    ("trace.overhead_pct", "%"),
    ("host.nproc", "count"),
    ("host.workers", "count"),
    ("host.cpu_s", "s"),
    ("host.steal_s", "s"),
];

/// The outcome of one benchmark run: request accounting, correctness
/// violations and measured metrics.
#[derive(Debug, Default)]
pub struct Report {
    /// Requests the measured program runs were asked to serve.
    pub attempted: u64,
    /// Requests that were shed, rejected or failed, plus every request
    /// of a program run whose correctness check failed.
    pub failed: u64,
    /// One line per failed correctness check.
    pub violations: Vec<String>,
    metrics: BTreeMap<&'static str, f64>,
    /// Human-readable notes printed before the JSON line.
    pub notes: Vec<String>,
}

impl Report {
    /// Sets metric `name`, which must be in [`END_TO_END`] or
    /// [`PER_LAYER`].
    ///
    /// # Panics
    ///
    /// Panics on a name outside both catalogues (a benchmark bug).
    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(
            unit_of(name).is_some(),
            "metric {name} is not in the catalogue"
        );
        self.metrics.insert(name, value);
    }

    /// Records a failed correctness check.
    pub fn violation(&mut self, what: String) {
        self.violations.push(what);
    }

    /// Counts one program run of `requests` requests, `failed` of which
    /// did not complete. A run with a correctness violation counts all
    /// its requests as failed.
    pub fn account(&mut self, requests: u64, failed: u64, violated: bool) {
        self.attempted += requests;
        self.failed += if violated {
            requests
        } else {
            failed.min(requests)
        };
    }

    /// Completed requests over attempted ones.
    pub fn success_rate(&self) -> f64 {
        if self.attempted == 0 {
            return 0.0;
        }
        (self.attempted - self.failed) as f64 / self.attempted as f64
    }

    /// Whether every correctness check held.
    pub fn correct(&self) -> bool {
        self.violations.is_empty() && self.attempted > 0
    }

    /// Notes the per-repetition request rates behind `req_per_s`.
    pub fn note_rates(&mut self, rates: &[f64]) {
        let rates: Vec<String> = rates.iter().map(|r| format!("{r:.0}")).collect();
        self.notes
            .push(format!("repetition rates (1/s): {}", rates.join(" ")));
    }

    /// The value of metric `name`, if set.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.metrics.get(name).copied()
    }

    /// The result line: `{"correct", "attempted", "failed", "metrics"}`
    /// over the catalogue `names`, in catalogue order. A metric left
    /// unset (its layer failed its checks) reports 0; a non-finite value
    /// is a violation and reports 0.
    pub fn json(&mut self, names: &[(&'static str, &'static str)]) -> String {
        let mut fields = Vec::with_capacity(names.len());
        for &(name, unit) in names {
            let mut value = self.get(name).unwrap_or(0.0);
            if !value.is_finite() {
                self.violation(format!("metric {name} is not finite ({value})"));
                value = 0.0;
            }
            fields.push(format!(
                "\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}"
            ));
        }
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted.max(1),
            if self.attempted == 0 { 1 } else { self.failed },
            fields.join(", ")
        )
    }
}

/// The unit of a catalogued metric.
fn unit_of(name: &str) -> Option<&'static str> {
    END_TO_END
        .iter()
        .chain(PER_LAYER)
        .find(|(n, _)| *n == name)
        .map(|&(_, u)| u)
}

/// Median of `xs` (mean of the middle pair for an even count); 0 when
/// empty.
pub fn median(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Runs `f`, turning a panic inside the program into an error message,
/// so a failing program run is reported rather than ending the benchmark.
pub fn guarded<T>(f: impl FnOnce() -> T) -> Result<T, String> {
    catch_unwind(AssertUnwindSafe(f)).map_err(|panic| {
        panic
            .downcast_ref::<String>()
            .cloned()
            .or_else(|| panic.downcast_ref::<&str>().map(|s| (*s).to_owned()))
            .unwrap_or_else(|| "panic".to_owned())
    })
}
