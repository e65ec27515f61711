//! The single-chip serve scenario, measured in every traced run as a
//! layer probe.
//!
//! One chip with three reconfigurable regions serves a 24-module
//! catalog (small modules stage raw, large ones through X-MatchPRO)
//! under `Policy::PowerGreedy` and a 700 mW cap, with the Virtex-6
//! voltage table and the thermal governor on. Arrivals are uniform with
//! deadlines at a mean gap of 400 µs, below saturation (about 150 µs
//! here). Every dispatch runs a cycle-accurate `UParc` plus the recovery
//! check, which the fleet never runs. Each stream is one `Service::run`
//! of 1000 requests.
//!
//! This was the `serve-capped` workload until its host time proved too
//! unsteady to bound: ten-run medians of the same code, half an hour
//! apart, differed by up to 49%, against 8–16% for the fleet workloads.
//! Its layers stay measured here, without a bound.

use std::sync::Arc;

use uparc_bitstream::builder::PartialBitstream;
use uparc_bitstream::synth::SynthProfile;
use uparc_fpga::Device;
use uparc_serve::metrics::ServiceMetrics;
use uparc_serve::request::{BitstreamId, ReconfigRequest};
use uparc_serve::thermal::ThermalConfig;
use uparc_serve::workload::{ArrivalPattern, WorkloadSpec};
use uparc_serve::{Catalog, Policy, Service, ServiceConfig, ServiceSummary};
use uparc_sim::obs::{Metrics, Obs};
use uparc_sim::power::VfTable;
use uparc_sim::stats::LogHistogram;
use uparc_sim::time::SimTime;

use crate::host::timed;
use crate::probe::HostClock;
use crate::report::{guarded, median, Report};

/// Chip-level cap on the summed reconfiguration draw, mW.
const CAP_MW: f64 = 700.0;

/// Modules as `(first frame, frames)`: eight per region. Modules above
/// ~400 frames exceed the 64 KB staging BRAM raw and stage compressed.
const MODULES: [(u32, u32); 24] = [
    (100, 450),
    (120, 200),
    (150, 520),
    (160, 90),
    (200, 380),
    (250, 420),
    (300, 150),
    (340, 300),
    (1000, 300),
    (1010, 430),
    (1020, 120),
    (1050, 400),
    (1100, 250),
    (1150, 60),
    (1200, 180),
    (1250, 200),
    (2000, 240),
    (2010, 80),
    (2020, 200),
    (2030, 150),
    (2050, 190),
    (2100, 120),
    (2150, 100),
    (2200, 50),
];

/// Stream count, stream length and arrival shape.
#[derive(Debug, Clone, Copy)]
pub struct Scale {
    streams: usize,
    requests: usize,
    mean_gap: SimTime,
}

impl Scale {
    /// The probe run with the benchmark: two streams of 1000 requests,
    /// twenty samples beyond the 99th percentile.
    pub fn full() -> Self {
        Scale {
            streams: 2,
            requests: 1_000,
            mean_gap: SimTime::from_us(400),
        }
    }

    /// The smallest scale, for the benchmark's self-tests.
    pub fn smallest() -> Self {
        Scale {
            streams: 1,
            requests: 100,
            ..Scale::full()
        }
    }

    fn spec(&self) -> WorkloadSpec {
        WorkloadSpec {
            requests: self.requests,
            mean_gap: self.mean_gap,
            pattern: ArrivalPattern::Uniform,
            deadline_slack_us: Some((500, 3_000)),
            energy_budget_uj: None,
        }
    }

    /// The request traces, one per stream, drawn from `seed`.
    fn generate(&self, seed: u64, catalog: &Catalog) -> Vec<Vec<ReconfigRequest>> {
        (0..self.streams as u64)
            .map(|k| {
                self.spec()
                    .generate(seed.wrapping_mul(STREAM_MIX) ^ k, catalog)
            })
            .collect()
    }
}

/// Odd multiplier spreading benchmark seeds apart before the stream
/// index is mixed in.
const STREAM_MIX: u64 = 0x9e37_79b9_7f4a_7c15;

/// The three-region, 24-module catalog; one in three modules has the
/// sparse profile, the rest the dense one.
fn build_catalog() -> Catalog {
    let mut catalog = Catalog::new(Device::xc5vsx50t()).with_bram_bytes(64 * 1024);
    for (name, frames) in [("rp0", 100..700), ("rp1", 1000..1450), ("rp2", 2000..2250)] {
        catalog
            .add_region(name, frames)
            .expect("region fits the device");
    }
    let batch: Vec<(BitstreamId, PartialBitstream)> = MODULES
        .iter()
        .enumerate()
        .map(|(i, &(far, frames))| {
            let profile = if i % 3 == 0 {
                SynthProfile::sparse()
            } else {
                SynthProfile::dense()
            };
            let payload = profile.generate(catalog.device(), far, frames, i as u64 + 1);
            let bs = PartialBitstream::build(catalog.device(), far, &payload);
            (BitstreamId(i as u32 + 1), bs)
        })
        .collect();
    catalog
        .register_batch(batch)
        .expect("every module fits its region and the BRAM");
    catalog
}

fn config(obs: Obs) -> ServiceConfig {
    ServiceConfig {
        policy: Policy::PowerGreedy,
        power_cap_mw: CAP_MW,
        queue_capacity: 64,
        vf: Some(VfTable::voltune_virtex6()),
        thermal: Some(ThermalConfig::default()),
        obs,
        ..ServiceConfig::default()
    }
}

/// Everything a run's correctness checks and metrics read.
struct Run {
    summary: ServiceSummary,
    metrics: ServiceMetrics,
    digest: String,
}

fn execute(service: &Service, requests: &[ReconfigRequest]) -> Result<Run, String> {
    guarded(|| service.run(requests)).map(|metrics| {
        let summary = metrics.summary();
        let mut digest = format!("{summary:?}");
        for c in &metrics.completions {
            digest.push_str(&format!(
                "|{}:{}:{}:{:?}",
                c.id.0,
                c.dispatched.as_fs(),
                c.finished.as_fs(),
                c.frequency
            ));
        }
        Run {
            summary,
            metrics,
            digest,
        }
    })
}

/// Counts one program run into `report` after its checks: the
/// accounting identity, zero cap violations, zero over-temperature
/// dispatches, and a result identical to the first run of its stream
/// (observation must not change the simulated outcome).
fn account<'a>(
    report: &mut Report,
    run: &'a Result<Run, String>,
    n: usize,
    first: &mut Option<String>,
) -> Option<&'a Run> {
    let r = match run {
        Ok(r) => r,
        Err(e) => {
            report.account(n as u64, n as u64, true);
            report.violation(format!("service run failed: {e}"));
            return None;
        }
    };
    let s = &r.summary;
    let unserved = r.metrics.unserved;
    let mut bad = Vec::new();
    if s.completed + s.rejected + s.failed + unserved != n {
        bad.push(format!(
            "accounting: {} completed + {} rejected + {} failed + {unserved} unserved != {n}",
            s.completed, s.rejected, s.failed
        ));
    }
    if s.cap_violations > 0 {
        bad.push(format!("{} power-cap violations", s.cap_violations));
    }
    if s.overtemp_dispatches > 0 {
        bad.push(format!(
            "{} over-temperature dispatches",
            s.overtemp_dispatches
        ));
    }
    if *first.get_or_insert_with(|| r.digest.clone()) != r.digest {
        bad.push("simulated outcome differs between runs of one stream".to_owned());
    }
    let failed = (s.rejected + s.failed + unserved) as u64;
    report.account(n as u64, failed, !bad.is_empty());
    let ok = bad.is_empty();
    for b in bad {
        report.violation(b);
    }
    ok.then_some(r)
}

/// Simulated results pooled over the streams.
#[derive(Default)]
struct Pooled {
    queue_wait_us: LogHistogram,
    service_us: LogHistogram,
    completed: u64,
    mhz_sum: f64,
    peak_power_mw: f64,
    peak_temp_c: f64,
    rejected: u64,
    throttles: u64,
}

impl Pooled {
    fn add(&mut self, r: &Run) {
        for c in &r.metrics.completions {
            self.queue_wait_us
                .observe(c.dispatched.saturating_sub(c.arrival).as_us_f64());
            self.service_us
                .observe(c.finished.saturating_sub(c.dispatched).as_us_f64());
            self.mhz_sum += c.frequency.as_mhz();
        }
        self.completed += r.metrics.completions.len() as u64;
        self.peak_power_mw = self.peak_power_mw.max(r.summary.peak_power_mw);
        self.peak_temp_c = self.peak_temp_c.max(r.summary.peak_temp_c);
        self.rejected += r.summary.rejected as u64;
        self.throttles += r.summary.thermal_throttles;
    }
}

/// Runs every stream of the serve scenario twice, unobserved and then
/// observed by a [`HostClock`], checks both, and reports the serve
/// layers: host time of the observed `Service::run`, of its `Dispatch`
/// spans and of the rest (admission, planning, the engine,
/// calibration), medians per stream; dispatch, rejection, throttle and
/// rail-ramp counts summed over the streams; and the simulated queue
/// wait, service time, clock, power and heat pooled over them.
pub fn probe(report: &mut Report, scale: &Scale, seed: u64) {
    let service = Service::new(build_catalog(), config(Obs::null()));
    let streams = scale.generate(seed, service.catalog());
    let mut pooled = Pooled::default();
    let (mut run_s, mut dispatch_s) = (Vec::new(), Vec::new());
    let (mut dispatches, mut vf_ramps) = (0, 0);
    for requests in &streams {
        let untraced = execute(&service, requests);
        let clock = Arc::new(HostClock::default());
        let metrics = Arc::new(Metrics::new());
        let observed = Service::new(
            service.catalog().clone(),
            config(Obs::new(clock.clone(), metrics.clone())),
        );
        let (traced, traced_s) = timed(|| execute(&observed, requests));
        let mut first = None;
        let n = requests.len();
        if account(report, &untraced, n, &mut first).is_none() {
            continue;
        }
        let Some(r) = account(report, &traced, n, &mut first) else {
            continue;
        };
        pooled.add(r);
        run_s.push(traced_s);
        dispatch_s.push(clock.dispatch_s());
        dispatches += clock.dispatches();
        vf_ramps += metrics
            .snapshot()
            .counters
            .get("power.vf_ramps")
            .copied()
            .unwrap_or(0);
    }
    let sched_s: Vec<f64> = run_s.iter().zip(&dispatch_s).map(|(r, d)| r - d).collect();
    report.set("serve.run_s", median(&run_s));
    report.set("serve.dispatch_s", median(&dispatch_s));
    report.set("serve.sched_s", median(&sched_s));
    report.set("serve.dispatches", dispatches as f64);
    report.set("serve.rejected", pooled.rejected as f64);
    report.set("thermal.throttles", pooled.throttles as f64);
    report.set("power.vf_ramps", vf_ramps as f64);
    let p = |h: &LogHistogram, q: f64| h.percentile(q).unwrap_or(0.0);
    report.set("sim.queue_wait_us_p50", p(&pooled.queue_wait_us, 50.0));
    report.set("sim.queue_wait_us_p99", p(&pooled.queue_wait_us, 99.0));
    report.set("sim.service_us_p50", p(&pooled.service_us, 50.0));
    report.set(
        "sim.mean_mhz",
        pooled.mhz_sum / pooled.completed.max(1) as f64,
    );
    report.set("sim.peak_power_mw", pooled.peak_power_mw);
    report.set("sim.peak_temp_c", pooled.peak_temp_c);
}
