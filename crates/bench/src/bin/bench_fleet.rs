//! Machine-readable rack-scale fleet benchmark: writes `BENCH_fleet.json`
//! with throughput scaling, locality-vs-random routing uplift, latency
//! percentiles at million-request scale, hierarchical power-cap
//! behaviour, and a chaos grid (chip loss, brownout, power emergency)
//! of the `uparc-fleet` sharded serving layer.
//!
//! Four runs over the same million-request stream: random routing at 1
//! and 8 workers (the scaling pair), locality routing at 1 and 8 workers
//! (the uplift pair). Simulated results are deterministic in the seed
//! *and* the worker count — each policy's two runs must render
//! byte-identical digests, which is the double-render gate. The chaos
//! grid then re-runs a locality fleet under four campaigns
//! (`none`/`chip_loss`/`brownout`/`emergency`), each at 1 and 8 workers.
//!
//! Run with `cargo run --release --bin bench_fleet`; pass `--smoke` for
//! a seconds-scale CI variant (smaller fleet, same assertions minus the
//! wall-clock-dependent ones), and `--trace <path>` to additionally
//! re-run the chip-loss cell with a recording observer and write its
//! Chrome-trace JSON (chip deaths and failovers show as instants).
//!
//! Acceptance gates:
//! * full mode streams ≥ 1,000,000 requests per run;
//! * every quiet run completes every request with **zero** rack-cap
//!   violations (verified by the fleet's independent interval sweep);
//! * each policy renders byte-identically at 1 and 8 workers — and so
//!   does every chaos cell;
//! * every chaos cell keeps the accounting identity exact:
//!   `completed + shed == requests`, nothing lost or double-served;
//! * the chip-loss campaign still completes ≥ 99% of the stream, with
//!   at least one chip dead and at least one successful failover;
//! * the emergency campaign records **zero** violations of the cut cap
//!   inside its window (and none of the steady cap outside it);
//! * re-running a campaign reproduces its digest byte for byte;
//! * normalised throughput scaling efficiency of random routing
//!   `(t1/t8) / min(8, cores)` ≥ 0.7 (full mode, hosts with ≥ 2 cores;
//!   on one core the 1 → 8 worker pair has nothing to parallelise, so
//!   the report writes `"scaling_efficiency": null` and a
//!   `"scaling_skipped"` reason instead of a pass). Raw speedups of both
//!   policies are always emitted; locality's is not gated, because its
//!   sequential route and verify phases bound it;
//! * locality routing beats random routing on fleet cache hit rate, and
//!   its measured words/s uplift is emitted alongside (gated > 1 in
//!   full mode: hits skip real decompressions, so the host-side work
//!   saved is wall-clock visible).

use std::time::Instant;

use uparc_bench::report::{JsonReport, Obj, Value};
use uparc_fleet::{
    synthetic_catalog, ChaosSpec, EmergencyWindow, Fleet, FleetConfig, FleetOutcome,
    FleetWorkloadSpec, HealthConfig, RoutePolicy,
};
use uparc_sim::obs::Obs;
use uparc_sim::sweep;
use uparc_sim::time::{Frequency, SimTime};

/// Workload seed; every run reuses it so streams are identical.
const SEED: u64 = 20120312;

/// Fleet shape per mode.
struct Scale {
    chips: usize,
    images: usize,
    frames_per_image: u32,
    requests: u64,
    /// Chaos cells stream fewer requests: faulted dispatches re-run a
    /// scratch controller each, so the grid trades stream length for
    /// campaign coverage.
    chaos_requests: u64,
    mean_gap: SimTime,
    rack_cap_mw: f64,
    epoch: SimTime,
    /// Per-chip decompressed-image cache (≈ 8 images).
    chip_cache_bytes: usize,
}

fn scale(smoke: bool) -> Scale {
    if smoke {
        Scale {
            chips: 64,
            images: 256,
            frames_per_image: 12,
            requests: 50_000,
            chaos_requests: 20_000,
            mean_gap: SimTime::from_ns(400),
            rack_cap_mw: 28_000.0,
            epoch: SimTime::from_us(200),
            chip_cache_bytes: 16 * 1024,
        }
    } else {
        Scale {
            chips: 1024,
            images: 4096,
            frames_per_image: 40,
            requests: 1_000_000,
            chaos_requests: 200_000,
            mean_gap: SimTime::from_ns(56),
            rack_cap_mw: 450_000.0,
            epoch: SimTime::from_ms(1),
            chip_cache_bytes: 56 * 1024,
        }
    }
}

/// The four chaos campaigns of the grid, drawn inside `horizon` (the
/// arrival span of the chaos stream).
fn chaos_cells(s: &Scale, horizon: SimTime) -> Vec<(&'static str, ChaosSpec)> {
    let h = horizon.as_fs();
    vec![
        ("none", ChaosSpec::quiet()),
        (
            "chip_loss",
            ChaosSpec {
                seed: SEED ^ 0xC4A05,
                horizon,
                loss_permille: 15,
                wedge_permille: 30,
                wedge_window: SimTime::from_fs(h / 20),
                seu_permille: 30,
                seu_window: SimTime::from_fs(h / 12),
                seu_faults_per_request: 1,
                ambient_fault_ppm: 20,
                ..ChaosSpec::quiet()
            },
        ),
        (
            "brownout",
            ChaosSpec {
                seed: SEED ^ 0xB06,
                horizon,
                brownout_permille: 250,
                brownout_window: SimTime::from_fs(h / 6),
                brownout_factor: 0.5,
                ..ChaosSpec::quiet()
            },
        ),
        (
            "emergency",
            ChaosSpec {
                seed: SEED ^ 0xE4E6,
                horizon,
                emergencies: vec![EmergencyWindow {
                    from: SimTime::from_fs(h / 4),
                    to: SimTime::from_fs(3 * h / 4),
                    cap_mw: s.rack_cap_mw * 0.9,
                }],
                ..ChaosSpec::quiet()
            },
        ),
    ]
}

/// One benchmarked run: outcome plus its wall-clock.
struct Run {
    label: &'static str,
    workers: usize,
    outcome: FleetOutcome,
    wall_s: f64,
}

impl Run {
    fn wall_words_per_sec(&self) -> f64 {
        self.outcome.words as f64 / self.wall_s
    }
}

fn execute(fleet: &Fleet, spec: &FleetWorkloadSpec, label: &'static str, workers: usize) -> Run {
    sweep::pin_workers(workers);
    let t0 = Instant::now();
    let outcome = fleet.run(spec).expect("feasible fleet run");
    let wall_s = t0.elapsed().as_secs_f64();
    sweep::unpin_workers();
    println!(
        "{label:<11} workers {workers}: {:>9} done in {wall_s:>7.2}s wall, hit rate {:.4}, \
         p99 {:>9.2} us, peak {:>9.1} mW ({} violations)",
        outcome.completed,
        outcome.hit_rate,
        outcome.p99_us,
        outcome.peak_power_mw,
        outcome.cap_violations,
    );
    Run {
        label,
        workers,
        outcome,
        wall_s,
    }
}

fn execute_chaos(
    fleet: &Fleet,
    spec: &FleetWorkloadSpec,
    chaos: &ChaosSpec,
    label: &'static str,
    workers: usize,
) -> Run {
    sweep::pin_workers(workers);
    let t0 = Instant::now();
    let outcome = fleet
        .run_chaos(spec, chaos, &Obs::null())
        .expect("feasible chaos run");
    let wall_s = t0.elapsed().as_secs_f64();
    sweep::unpin_workers();
    println!(
        "chaos {label:<10} workers {workers}: {:>8}/{} done in {wall_s:>6.2}s, \
         lost {} chips, {} failovers, {} shed, {} healed, violations {}+{}",
        outcome.completed,
        outcome.requests,
        outcome.chips_lost,
        outcome.failovers,
        outcome.shed.total(),
        outcome.healed,
        outcome.cap_violations,
        outcome.cap_violations_emergency,
    );
    Run {
        label,
        workers,
        outcome,
        wall_s,
    }
}

fn run_row(r: &Run) -> Value {
    let o = &r.outcome;
    Obj::new()
        .field("policy", r.label)
        .field("workers", r.workers)
        .field("wall_s", Value::fixed(r.wall_s, 3))
        .field("completed", o.completed)
        .field("hit_rate", Value::fixed(o.hit_rate, 6))
        .field("hits", o.hits)
        .field("misses", o.misses)
        .field("evictions", o.evictions)
        .field("warm", o.route.warm)
        .field("cold", o.route.cold)
        .field("spills", o.route.spills)
        .field("words", o.words)
        .field("sim_words_per_sec", Value::fixed(o.sim_words_per_sec, 1))
        .field(
            "wall_words_per_sec",
            Value::fixed(r.wall_words_per_sec(), 1),
        )
        .field("makespan_ms", Value::fixed(o.makespan.as_us_f64() / 1e3, 3))
        .field("p50_us", Value::fixed(o.p50_us, 3))
        .field("p95_us", Value::fixed(o.p95_us, 3))
        .field("p99_us", Value::fixed(o.p99_us, 3))
        .field("p999_us", Value::fixed(o.p999_us, 3))
        .field("mean_frequency_mhz", Value::fixed(o.mean_frequency_mhz, 2))
        .field("energy_uj", Value::fixed(o.energy_uj, 1))
        .field("peak_power_mw", Value::fixed(o.peak_power_mw, 3))
        .field("cap_violations", o.cap_violations)
        .field("min_chip_completed", o.min_chip_completed)
        .field("max_chip_completed", o.max_chip_completed)
        .field("checksum", format!("{:016x}", o.checksum).as_str())
        .into()
}

fn chaos_row(r: &Run) -> Value {
    let o = &r.outcome;
    Obj::new()
        .field("campaign", r.label)
        .field("workers", r.workers)
        .field("wall_s", Value::fixed(r.wall_s, 3))
        .field("requests", o.requests)
        .field("completed", o.completed)
        .field("completed_failover", o.completed_failover)
        .field("chips_lost", o.chips_lost)
        .field("quarantines", o.quarantines)
        .field("failovers", o.failovers)
        .field("shed_total", o.shed.total())
        .field("shed_queue_full", o.shed.queue_full)
        .field("shed_no_live_chip", o.shed.no_live_chip)
        .field("shed_retries_exhausted", o.shed.retries_exhausted)
        .field("shed_dispatch_failed", o.shed.dispatch_failed)
        .field("faulted", o.faulted)
        .field("healed", o.healed)
        .field("faults_applied", o.faults_applied)
        .field(
            "recovery_extra_time_us",
            Value::fixed(o.recovery_extra_time.as_us_f64(), 3),
        )
        .field(
            "recovery_extra_energy_uj",
            Value::fixed(o.recovery_extra_energy_uj, 3),
        )
        .field("degraded_completed", o.degraded_completed)
        .field("p99_steady_us", Value::fixed(o.p99_steady_us, 3))
        .field("p99_degraded_us", Value::fixed(o.p99_degraded_us, 3))
        .field("mean_frequency_mhz", Value::fixed(o.mean_frequency_mhz, 2))
        .field("peak_power_mw", Value::fixed(o.peak_power_mw, 3))
        .field("cap_violations", o.cap_violations)
        .field("cap_violations_emergency", o.cap_violations_emergency)
        .field("checksum", format!("{:016x}", o.checksum).as_str())
        .into()
}

/// Re-runs the chip-loss campaign with a recording observer and writes
/// its Chrome-trace JSON to `path`; the export is parsed back with the
/// in-repo JSON parser and must contain `ChipDown` instants before the
/// file is accepted.
fn write_trace(fleet: &Fleet, spec: &FleetWorkloadSpec, chaos: &ChaosSpec, path: &str) {
    use std::sync::Arc;
    use uparc_sim::obs::TraceRecorder;

    let recorder = Arc::new(TraceRecorder::new());
    let obs = Obs::recording(Arc::clone(&recorder));
    sweep::pin_workers(1);
    let out = fleet
        .run_chaos(spec, chaos, &obs)
        .expect("traced chaos run is feasible");
    sweep::unpin_workers();
    assert!(out.chips_lost > 0, "traced campaign killed no chip");

    let trace = recorder.chrome_trace(Some(obs.metrics()));
    let parsed = uparc_sim::obs::json::parse(&trace)
        .unwrap_or_else(|e| panic!("trace export is not valid JSON: {e}"));
    let events = parsed
        .get("traceEvents")
        .and_then(|v| v.as_array())
        .expect("trace has a traceEvents array");
    assert!(!events.is_empty(), "traced campaign produced no events");
    assert!(
        trace.contains("ChipDown"),
        "trace is missing ChipDown instants"
    );

    std::fs::write(path, &trace).unwrap_or_else(|e| panic!("write {path}: {e}"));
    println!(
        "trace written: {path} ({} events, {} bytes)",
        events.len(),
        trace.len()
    );
}

fn main() {
    let args = uparc_bench::args::BenchArgs::parse();
    let (smoke, trace_path) = (args.smoke, args.trace);
    let s = scale(smoke);

    println!(
        "building catalog: {} images x {} frames, {} chips",
        s.images, s.frames_per_image, s.chips
    );
    let catalog = synthetic_catalog(s.images, s.frames_per_image, SEED);
    let config = |route: RoutePolicy| FleetConfig {
        chips: s.chips,
        rack_cap_mw: s.rack_cap_mw,
        epoch: s.epoch,
        chip_cache_bytes: s.chip_cache_bytes,
        route,
        min_frequency: Frequency::from_mhz(50.0),
        health: HealthConfig::default(),
        shed_backlog: None,
        failover_retries: 3,
    };
    let t0 = Instant::now();
    let random = Fleet::new(catalog.clone(), config(RoutePolicy::Random { seed: SEED }))
        .expect("random fleet builds");
    // A holder may run ~8 dispatches ahead of the least-loaded chip
    // before locality yields: the window tracks the calibrated service
    // time, so it survives rescaling the fleet.
    let locality_policy = RoutePolicy::Locality {
        spill_window: SimTime::from_fs(random.tables().mean_service_estimate().as_fs() * 8),
    };
    let locality =
        Fleet::new(catalog.clone(), config(locality_policy)).expect("locality fleet builds");
    println!(
        "calibrated {} grid points in {:.2}s",
        random.tables().grid().len(),
        t0.elapsed().as_secs_f64()
    );
    let spec = FleetWorkloadSpec {
        requests: s.requests,
        mean_gap: s.mean_gap,
        seed: SEED,
    };

    let rand1 = execute(&random, &spec, "random", 1);
    let rand8 = execute(&random, &spec, "random", 8);
    let loc1 = execute(&locality, &spec, "locality", 1);
    let loc8 = execute(&locality, &spec, "locality", 8);

    // ---- acceptance gates --------------------------------------------
    for r in [&rand1, &rand8, &loc1, &loc8] {
        assert_eq!(
            r.outcome.completed, s.requests,
            "{} w{}: requests unaccounted for",
            r.label, r.workers
        );
        assert_eq!(
            r.outcome.cap_violations, 0,
            "{} w{}: rack cap violated",
            r.label, r.workers
        );
        assert!(
            r.outcome.peak_power_mw <= s.rack_cap_mw + 1e-9,
            "{} w{}: verified peak {:.1} mW above the {:.0} mW rack cap",
            r.label,
            r.workers,
            r.outcome.peak_power_mw,
            s.rack_cap_mw
        );
    }
    if !smoke {
        assert!(
            s.requests >= 1_000_000,
            "full mode must stream 1M+ requests"
        );
    }

    // Double-render identity: the same stream at 1 and 8 workers must
    // produce bit-identical merged outcomes per policy.
    assert_eq!(
        rand1.outcome.render(),
        rand8.outcome.render(),
        "random routing outcome depends on worker count"
    );
    assert_eq!(
        loc1.outcome.render(),
        loc8.outcome.render(),
        "locality routing outcome depends on worker count"
    );
    // Both policies serve the same image multiset, so the XOR-fold work
    // checksum matches across policies too.
    assert_eq!(
        rand1.outcome.checksum, loc1.outcome.checksum,
        "policies served different image bytes"
    );

    // Throughput scaling 1 → 8 workers, normalised by what the host can
    // actually parallelise (raw figures are in the report either way).
    // One core cannot run two workers at once: the ratio would only
    // measure overhead, so the gate is skipped with a reason rather than
    // passed.
    let cores = std::thread::available_parallelism().map_or(1, usize::from);
    let speedup = rand1.wall_s / rand8.wall_s;
    let locality_speedup = loc1.wall_s / loc8.wall_s;
    let scaling_skipped =
        (cores < 2).then(|| format!("{cores} core: 1 -> 8 workers cannot run in parallel"));
    let scaling_efficiency = match &scaling_skipped {
        None => {
            let efficiency = speedup / cores.min(8) as f64;
            println!(
                "scaling: {speedup:.2}x speedup on {cores} cores -> efficiency {efficiency:.2}"
            );
            if !smoke {
                assert!(
                    efficiency >= 0.7,
                    "scaling efficiency {efficiency:.2} below 0.7 ({speedup:.2}x on {cores} cores)"
                );
            }
            Value::fixed(efficiency, 3)
        }
        Some(reason) => {
            println!("scaling: {speedup:.2}x speedup, gate skipped ({reason})");
            Value::Null
        }
    };
    println!("scaling: locality {locality_speedup:.2}x speedup (not gated)");

    // Locality uplift vs random at the same worker count.
    let hit_uplift = loc8.outcome.hit_rate - rand8.outcome.hit_rate;
    let words_uplift = loc8.wall_words_per_sec() / rand8.wall_words_per_sec();
    println!(
        "locality uplift: hit rate {:.4} vs {:.4} (+{hit_uplift:.4}), \
         measured words/s x{words_uplift:.2}",
        loc8.outcome.hit_rate, rand8.outcome.hit_rate
    );
    assert!(
        loc8.outcome.hit_rate > rand8.outcome.hit_rate,
        "locality routing did not beat random on fleet hit rate"
    );
    if !smoke {
        assert!(
            words_uplift > 1.0,
            "locality words/s uplift {words_uplift:.2} not above 1 (hits should skip decompression)"
        );
    }

    // ---- chaos grid ---------------------------------------------------
    // A locality fleet with degradation armed: backlog-based shedding
    // and a bounded failover budget.
    let mut chaos_config = config(locality_policy);
    chaos_config.shed_backlog = Some(SimTime::from_ms(2));
    let chaos_fleet = Fleet::new(catalog, chaos_config).expect("chaos fleet builds");
    let chaos_spec = FleetWorkloadSpec {
        requests: s.chaos_requests,
        mean_gap: s.mean_gap,
        seed: SEED,
    };
    let horizon = SimTime::from_fs(s.chaos_requests * s.mean_gap.as_fs());
    let cells = chaos_cells(&s, horizon);
    let mut chaos_runs: Vec<(Run, Run)> = Vec::new();
    for (label, chaos) in &cells {
        let one = execute_chaos(&chaos_fleet, &chaos_spec, chaos, label, 1);
        let eight = execute_chaos(&chaos_fleet, &chaos_spec, chaos, label, 8);
        chaos_runs.push((one, eight));
    }

    // ---- chaos gates --------------------------------------------------
    for (one, eight) in &chaos_runs {
        // Accounting identity, both worker counts.
        for r in [one, eight] {
            assert_eq!(
                r.outcome.completed + r.outcome.shed.total(),
                chaos_spec.requests,
                "chaos {} w{}: requests unaccounted for",
                r.label,
                r.workers
            );
            assert_eq!(
                r.outcome.cap_violations, 0,
                "chaos {} w{}: steady rack cap violated",
                r.label, r.workers
            );
            assert_eq!(
                r.outcome.cap_violations_emergency, 0,
                "chaos {} w{}: emergency cap violated",
                r.label, r.workers
            );
        }
        // Worker-count identity per campaign.
        assert_eq!(
            one.outcome.render(),
            eight.outcome.render(),
            "chaos {} outcome depends on worker count",
            one.label
        );
    }
    let by_label = |l: &str| {
        &chaos_runs
            .iter()
            .find(|(one, _)| one.label == l)
            .expect("cell exists")
            .0
            .outcome
    };
    let quiet_cell = by_label("none");
    assert_eq!(
        quiet_cell.completed, chaos_spec.requests,
        "quiet chaos cell shed requests"
    );
    let loss_cell = by_label("chip_loss");
    assert!(
        loss_cell.chips_lost >= 1,
        "chip-loss campaign killed no one"
    );
    assert!(loss_cell.failovers > 0, "chip loss produced no failovers");
    assert!(
        loss_cell.completed as f64 >= 0.99 * chaos_spec.requests as f64,
        "chip-loss completion {}/{} below 99%",
        loss_cell.completed,
        chaos_spec.requests
    );
    let emergency_cell = by_label("emergency");
    assert!(
        emergency_cell.peak_power_mw <= s.rack_cap_mw * 0.9 + 1e-9,
        "emergency peak {:.1} mW above the cut cap",
        emergency_cell.peak_power_mw
    );
    // Rerun reproducibility: the same campaign again, byte for byte.
    let rerun = execute_chaos(&chaos_fleet, &chaos_spec, &cells[1].1, "chip_loss_rerun", 8);
    assert_eq!(
        rerun.outcome.render(),
        loss_cell.render(),
        "chip-loss campaign is not reproducible"
    );

    if let Some(path) = &trace_path {
        write_trace(&chaos_fleet, &chaos_spec, &cells[1].1, path);
    }

    let report = JsonReport::new("uparc-bench-fleet", 3)
        .field("smoke", smoke)
        .field(
            "fleet",
            Obj::new()
                .field("seed", SEED)
                .field("chips", s.chips)
                .field("images", s.images)
                .field("frames_per_image", u64::from(s.frames_per_image))
                .field("requests", s.requests)
                .field("chaos_requests", s.chaos_requests)
                .field("mean_gap_ns", Value::fixed(s.mean_gap.as_us_f64() * 1e3, 1))
                .field("rack_cap_mw", Value::fixed(s.rack_cap_mw, 0))
                .field("epoch_us", Value::fixed(s.epoch.as_us_f64(), 1))
                .field("chip_cache_bytes", s.chip_cache_bytes)
                .field("grid_points", random.tables().grid().len())
                .field("host_cores", cores),
        )
        .field(
            "runs",
            vec![
                run_row(&rand1),
                run_row(&rand8),
                run_row(&loc1),
                run_row(&loc8),
            ],
        )
        .field(
            "chaos",
            chaos_runs
                .iter()
                .flat_map(|(one, eight)| [chaos_row(one), chaos_row(eight)])
                .collect::<Vec<Value>>(),
        )
        .field(
            "gates",
            Obj::new()
                .field("render_identical_random", true)
                .field("render_identical_locality", true)
                .field("cap_violations_total", 0u64)
                .field("speedup_1_to_8", Value::fixed(speedup, 3))
                .field("scaling_efficiency", scaling_efficiency)
                .field(
                    "scaling_skipped",
                    scaling_skipped.map_or(Value::Null, Value::Str),
                )
                .field("locality_speedup_1_to_8", Value::fixed(locality_speedup, 3))
                .field("hit_rate_locality", Value::fixed(loc8.outcome.hit_rate, 6))
                .field("hit_rate_random", Value::fixed(rand8.outcome.hit_rate, 6))
                .field("wall_words_per_sec_uplift", Value::fixed(words_uplift, 3))
                .field("chaos_accounting_exact", true)
                .field("chaos_render_identical", true)
                .field(
                    "chip_loss_completion_rate",
                    Value::fixed(loss_cell.completed as f64 / chaos_spec.requests as f64, 6),
                )
                .field("chip_loss_reproducible", true)
                .field("emergency_cap_violations", 0u64),
        );

    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_fleet.json");
    std::fs::write(path, report.render()).expect("write BENCH_fleet.json");
    println!("report written: {path}");
}
