//! The two rack-scale workloads, `fleet-locality` and `fleet-random`.
//!
//! Both serve one open-loop stream (arrivals from the benchmark seed,
//! request *i* a pure function of `(seed, i)`) on 1024 simulated chips
//! under a 450 W rack cap, as `bench_fleet` does in full mode. They use
//! the chip layer in opposite ways: locality routing sends ~99% of
//! requests to a chip that already holds the decompressed image, so the
//! sequential route, budget, verify and merge phases carry much of the
//! wall time; random routing misses ~99.8% of the time, so nearly every
//! request runs a real X-MatchPRO decode and a cache eviction, and the
//! router has almost nothing to do.
//!
//! The traced run recomposes `Fleet::run` from the layers' public
//! functions (workload generation, `Router::try_route`,
//! `RackBudget::schedule_chaos`, `simulate_chip` over `parallel_map`)
//! with a host clock around each, and checks that the recomposition
//! reproduces `Fleet::run`'s counts and checksum exactly.

use std::sync::Arc;
use std::time::Instant;

use uparc_core::recovery::RecoveryPolicy;
use uparc_fleet::chip::{simulate_chip, ChipEnv, ChipInput, QueuedRequest};
use uparc_fleet::{
    synthetic_catalog, CapTimeline, ChaosPlan, ChaosSpec, Fleet, FleetConfig, FleetError,
    FleetOutcome, FleetRequest, FleetWorkloadSpec, HealthConfig, HealthTimeline, RackBudget,
    RouteOutcome, RoutePolicy, Router,
};
use uparc_serve::request::BitstreamId;
use uparc_sim::obs::{Metrics, Obs};
use uparc_sim::power::calib;
use uparc_sim::sweep::{self, parallel_map};
use uparc_sim::time::{Frequency, SimTime};

use crate::host::{self, repeat_for, timed, HostWindow};
use crate::probe::{self, HostClock};
use crate::report::{self, median, Report};
use crate::serve;

/// Seed of the synthetic bitstream catalog: the catalog is part of the
/// system under test, so it stays the same for every workload seed.
const CATALOG_SEED: u64 = 20120312;

/// Salt separating the random router's assignment stream from the
/// arrival stream drawn from the same benchmark seed.
const ROUTE_SALT: u64 = 0x6a09_e667_f3bc_c908;

/// Tolerance on the verified peak against the rack cap, mW.
const CAP_EPSILON_MW: f64 = 1e-9;

/// Set-ups per run; the reported `setup_s` is their median.
const SETUPS: usize = 9;

/// Repetitions of the decode sample behind `compress.decode_mb_per_s`.
const DECODE_ROUNDS: usize = 8;

/// How requests are assigned to chips.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Routing {
    /// Least-loaded holder of the image, spilling past a backlog window.
    Locality,
    /// Seeded uniform assignment.
    Random,
}

/// Fleet shape and stream length of one workload.
#[derive(Debug, Clone, Copy)]
pub struct Scale {
    pub chips: usize,
    pub images: usize,
    pub frames_per_image: u32,
    pub requests: u64,
    pub mean_gap: SimTime,
    pub rack_cap_mw: f64,
    pub epoch: SimTime,
    pub chip_cache_bytes: usize,
    /// Locality spill window: eight mid-grid service times of this
    /// catalog's images, fixed here so the router's input does not move
    /// when a change to the cost model moves the calibration.
    pub spill_window: SimTime,
    /// The single-chip serve probe of the traced run.
    pub serve: serve::Scale,
}

impl Scale {
    /// The benchmark scale: `bench_fleet`'s full-mode fleet, 1M requests
    /// under locality routing and 200k under random routing (each random
    /// request costs ~5× the host time of a locality one).
    pub fn full(routing: Routing) -> Self {
        Scale {
            chips: 1024,
            images: 4096,
            frames_per_image: 40,
            requests: match routing {
                Routing::Locality => 1_000_000,
                Routing::Random => 200_000,
            },
            mean_gap: SimTime::from_ns(56),
            rack_cap_mw: 450_000.0,
            epoch: SimTime::from_ms(1),
            chip_cache_bytes: 56 * 1024,
            spill_window: SimTime::from_fs(8 * FULL_SERVICE_ESTIMATE_FS),
            serve: serve::Scale::full(),
        }
    }

    /// The smallest scale, for the benchmark's self-tests.
    pub fn smallest(routing: Routing) -> Self {
        Scale {
            chips: 16,
            images: 64,
            frames_per_image: 12,
            requests: match routing {
                Routing::Locality => 4_000,
                Routing::Random => 2_000,
            },
            mean_gap: SimTime::from_ns(400),
            rack_cap_mw: 16.0 * 400.0,
            epoch: SimTime::from_us(200),
            chip_cache_bytes: 16 * 1024,
            spill_window: SimTime::from_fs(8 * SMALL_SERVICE_ESTIMATE_FS),
            serve: serve::Scale::smallest(),
        }
    }

    fn config(&self, routing: Routing, seed: u64) -> FleetConfig {
        FleetConfig {
            chips: self.chips,
            rack_cap_mw: self.rack_cap_mw,
            epoch: self.epoch,
            chip_cache_bytes: self.chip_cache_bytes,
            route: match routing {
                Routing::Locality => RoutePolicy::Locality {
                    spill_window: self.spill_window,
                },
                Routing::Random => RoutePolicy::Random {
                    seed: seed ^ ROUTE_SALT,
                },
            },
            min_frequency: Frequency::from_mhz(50.0),
            health: HealthConfig::default(),
            shed_backlog: None,
            failover_retries: 3,
        }
    }

    fn spec(&self, seed: u64) -> FleetWorkloadSpec {
        FleetWorkloadSpec {
            requests: self.requests,
            mean_gap: self.mean_gap,
            seed,
        }
    }
}

/// `PlanTables::mean_service_estimate` of the full-scale catalog, fs.
const FULL_SERVICE_ESTIMATE_FS: u64 = 26_771_874_950;
/// `PlanTables::mean_service_estimate` of the smallest catalog, fs.
const SMALL_SERVICE_ESTIMATE_FS: u64 = 16_009_374_984;

/// Fleet worker threads. One: on a shared host of two vCPUs, a second
/// worker made each repetition's rate spread half as much again
/// (coefficient of variation 0.107 against 0.079 on `fleet-random`,
/// 0.066 against 0.044 on `fleet-locality`, interleaved in one process).
const WORKERS: usize = 1;

/// One built fleet and the host time of each set-up step.
struct Setup {
    fleet: Fleet,
    catalog_s: f64,
    plan_s: f64,
}

fn setup(scale: &Scale, routing: Routing, seed: u64) -> Result<Setup, FleetError> {
    let (catalog, catalog_s) =
        timed(|| synthetic_catalog(scale.images, scale.frames_per_image, CATALOG_SEED));
    let (fleet, plan_s) = timed(|| Fleet::new(catalog, scale.config(routing, seed)));
    Ok(Setup {
        fleet: fleet?,
        catalog_s,
        plan_s,
    })
}

/// Runs one fleet call, turning an error or a panic into a message.
fn guarded<T>(f: impl FnOnce() -> Result<T, FleetError>) -> Result<T, String> {
    report::guarded(f).and_then(|r| r.map_err(|e| e.to_string()))
}

/// Counts one program run into `report` after its checks: the
/// accounting identity, zero verified rack-cap violations, and an outcome
/// identical to the run's first (simulated results are deterministic).
/// Returns the outcome if it ran and passed.
fn account(
    report: &mut Report,
    run: Result<FleetOutcome, String>,
    spec: &FleetWorkloadSpec,
    cap_mw: f64,
    first: &mut Option<String>,
) -> Option<FleetOutcome> {
    let o = match run {
        Ok(o) => o,
        Err(e) => {
            report.account(spec.requests, spec.requests, true);
            report.violation(format!("fleet run failed: {e}"));
            return None;
        }
    };
    let mut bad = Vec::new();
    if o.completed + o.shed.total() != spec.requests {
        bad.push(format!(
            "accounting: {} completed + {} shed != {} requests",
            o.completed,
            o.shed.total(),
            spec.requests
        ));
    }
    let violations = o.cap_violations + o.cap_violations_emergency;
    if violations > 0 || o.peak_power_mw > cap_mw + CAP_EPSILON_MW {
        bad.push(format!(
            "rack cap: {violations} verified violations, peak {} mW over a {cap_mw} mW cap",
            o.peak_power_mw
        ));
    }
    let digest = o.render();
    if *first.get_or_insert_with(|| digest.clone()) != digest {
        bad.push("simulated outcome differs between runs of one seed".to_owned());
    }
    report.account(spec.requests, o.shed.total(), !bad.is_empty());
    let ok = bad.is_empty();
    for b in bad {
        report.violation(b);
    }
    ok.then_some(o)
}

/// Runs one fleet workload for `seconds` and reports its end-to-end
/// (`trace == false`) or per-layer (`trace == true`) metrics.
pub fn run(routing: Routing, scale: &Scale, seed: u64, seconds: f64, trace: bool) -> Report {
    let mut report = Report::default();
    let workers = WORKERS;
    sweep::pin_workers(workers);
    report
        .notes
        .push(format!("fleet workers {workers} of {} CPUs", host::nproc()));

    let (mut catalog_s, mut plan_s) = (Vec::new(), Vec::new());
    let mut fleet = None;
    for _ in 0..SETUPS {
        // Only one fleet is resident at a time, so peak memory is that of
        // one set-up.
        drop(fleet.take());
        match setup(scale, routing, seed) {
            Ok(s) => {
                catalog_s.push(s.catalog_s);
                plan_s.push(s.plan_s);
                fleet = Some(s.fleet);
            }
            Err(e) => {
                report.account(scale.requests, scale.requests, true);
                report.violation(format!("fleet set-up failed: {e}"));
                sweep::unpin_workers();
                return report;
            }
        }
    }
    let fleet = fleet.expect("at least one set-up");
    let setup_s: Vec<f64> = catalog_s.iter().zip(&plan_s).map(|(c, p)| c + p).collect();
    let spec = scale.spec(seed);

    if trace {
        traced(&mut report, &fleet, &spec, scale, seconds);
        report.set("catalog.build_s", median(&catalog_s));
        report.set("plan.build_s", median(&plan_s));
        report.set("host.workers", workers as f64);
    } else {
        untraced(&mut report, &fleet, &spec, scale, seconds);
        report.set("setup_s", median(&setup_s));
    }
    sweep::unpin_workers();
    report
}

fn untraced(
    report: &mut Report,
    fleet: &Fleet,
    spec: &FleetWorkloadSpec,
    scale: &Scale,
    seconds: f64,
) {
    let mut first = None;
    let mut rss_mb = None;
    let reps = repeat_for(seconds, || {
        let out = timed(|| guarded(|| fleet.run(spec)));
        // Peak memory of the set-up and one whole run: later repetitions
        // add allocator noise, not workload.
        rss_mb.get_or_insert_with(host::peak_rss_mb);
        out
    });
    // The first repetition warms the allocator and the caches; it is
    // checked but left out of the rate unless it is the only one.
    let warm_up = usize::from(reps.len() > 1);
    let mut rates = Vec::new();
    let mut sample: Option<FleetOutcome> = None;
    for (i, (run, wall_s)) in reps.into_iter().enumerate() {
        if let Some(o) = account(report, run, spec, scale.rack_cap_mw, &mut first) {
            if i >= warm_up {
                rates.push(o.completed as f64 / wall_s);
            }
            sample.get_or_insert(o);
        }
    }
    report.note_rates(&rates);
    report.set("req_per_s", median(&rates));
    report.set("peak_rss_mb", rss_mb.unwrap_or(0.0));
    if let Some(o) = sample {
        let n = o.latency_us.count();
        report.notes.push(format!(
            "latency percentiles over {n} requests ({} beyond p99.9)",
            n / 1000
        ));
        report.set("sim_p50_us", o.p50_us);
        report.set("sim_p99_us", o.p99_us);
        report.set("sim_p999_us", o.p999_us);
        report.set(
            "sim_energy_uj_per_req",
            o.energy_uj / o.completed.max(1) as f64,
        );
        report.notes.push(format!(
            "hit rate {:.4}, verified peak {:.1} of {:.1} mW, {} repetitions",
            o.hit_rate,
            o.peak_power_mw,
            o.rack_cap_mw,
            rates.len()
        ));
    }
    report.set("success_rate", report.success_rate());
}

/// Host time of each recomposed phase of one run, seconds.
#[derive(Debug, Clone, Copy, Default)]
struct Phases {
    gen_s: f64,
    route_s: f64,
    budget_s: f64,
    sim_wall_s: f64,
    busy_s: f64,
    max_s: f64,
}

/// Counts of the recomposed run, compared against `Fleet::run`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
struct Counts {
    completed: u64,
    hits: u64,
    misses: u64,
    evictions: u64,
    checksum: u64,
}

/// What the recomposition reports besides its timings.
#[derive(Debug, Clone, Copy, Default)]
struct Recomposed {
    counts: Counts,
    warm: u64,
    cold: u64,
    spills: u64,
    epochs: usize,
    decompressed_bytes: u64,
}

/// `Fleet::run` rebuilt from the layers' public functions on the quiet
/// (no chaos) path, with a host clock around each phase and each chip.
fn recompose(fleet: &Fleet, spec: &FleetWorkloadSpec) -> Result<(Recomposed, Phases), FleetError> {
    let cfg = fleet.config();
    let tables = fleet.tables();
    let catalog = fleet.catalog();
    let chips = cfg.chips;
    let epoch_fs = cfg.epoch.as_fs().max(1);
    let mut phases = Phases::default();

    let ids: Vec<BitstreamId> = catalog.ids();
    let (requests, gen_s) = timed(|| {
        (0..spec.requests)
            .map(|i| spec.request(i, &ids))
            .collect::<Vec<FleetRequest>>()
    });
    phases.gen_s = gen_s;

    let plan = ChaosPlan::generate(&ChaosSpec::quiet(), chips);
    let t = Instant::now();
    let health: Vec<HealthTimeline> = (0..chips)
        .map(|c| HealthTimeline::build(plan.chip(c), &cfg.health))
        .collect();
    let loss_at: Vec<Option<SimTime>> = (0..chips).map(|c| plan.chip(c).loss_at).collect();
    let mut router = Router::with_chaos(
        chips,
        cfg.route,
        cfg.chip_cache_bytes,
        tables.mean_service_estimate(),
        health,
        cfg.shed_backlog,
        Obs::null(),
    );
    let mut queues: Vec<Vec<QueuedRequest>> = vec![Vec::new(); chips];
    let mut demand: Vec<Vec<u64>> = Vec::new();
    for req in &requests {
        let image_bytes = tables.facts(req.bitstream).image_bytes;
        if let RouteOutcome::Assigned(chip) = router.try_route(req, req.arrival, image_bytes) {
            let e = (req.arrival.as_fs() / epoch_fs) as usize;
            while demand.len() <= e {
                demand.push(vec![0; chips]);
            }
            demand[e][chip] += 1;
            queues[chip].push(QueuedRequest::from(*req));
        }
    }
    phases.route_s = t.elapsed().as_secs_f64();
    let stats = router.stats();

    let t = Instant::now();
    let budget = RackBudget {
        cap_mw: cfg.rack_cap_mw,
        epoch: cfg.epoch,
    };
    let timeline = CapTimeline::with_emergencies(cfg.rack_cap_mw, plan.emergencies());
    let schedule = budget.schedule_chaos(
        &demand,
        chips,
        calib::V6_IDLE_MW,
        tables.floor_mw(),
        &timeline,
        &loss_at,
    )?;
    phases.budget_s = t.elapsed().as_secs_f64();

    let recovery = RecoveryPolicy::default();
    let env = ChipEnv {
        catalog,
        tables,
        schedule: &schedule,
        cache_budget: cfg.chip_cache_bytes,
        plan: &plan,
        recovery: &recovery,
    };
    let inputs: Vec<ChipInput> = queues
        .into_iter()
        .enumerate()
        .map(|(chip, requests)| ChipInput { chip, requests })
        .collect();
    let (outcomes, sim_wall_s) =
        timed(|| parallel_map(&inputs, |input| timed(|| simulate_chip(input, &env))));
    phases.sim_wall_s = sim_wall_s;

    let mut out = Recomposed {
        warm: stats.warm,
        cold: stats.cold,
        spills: stats.spills,
        epochs: schedule.epochs(),
        ..Recomposed::default()
    };
    for (o, chip_s) in &outcomes {
        phases.busy_s += chip_s;
        phases.max_s = phases.max_s.max(*chip_s);
        out.counts.completed += o.completed;
        out.counts.hits += o.hits;
        out.counts.misses += o.misses;
        out.counts.evictions += o.evictions;
        out.counts.checksum ^= o.checksum;
        out.decompressed_bytes += o.decompressed_bytes;
    }
    Ok((out, phases))
}

/// One traced repetition: `Fleet::run` untraced, `Fleet::run_chaos` on
/// the quiet path with an enabled observer, and the recomposition.
struct TraceRep {
    untraced_s: f64,
    traced_s: f64,
    phases: Phases,
}

fn traced(
    report: &mut Report,
    fleet: &Fleet,
    spec: &FleetWorkloadSpec,
    scale: &Scale,
    seconds: f64,
) {
    let window = HostWindow::open();
    let mut first = None;
    let mut layers: Option<Recomposed> = None;
    let reps = repeat_for(seconds, || {
        let (run, untraced_s) = timed(|| guarded(|| fleet.run(spec)));
        let obs = Obs::new(Arc::new(HostClock::default()), Arc::new(Metrics::new()));
        let (traced_run, traced_s) =
            timed(|| guarded(|| fleet.run_chaos(spec, &ChaosSpec::quiet(), &obs)));
        let recomposed = guarded(|| recompose(fleet, spec));
        (run, untraced_s, traced_run, traced_s, recomposed)
    });
    let (cpu_s, steal_s) = window.close();
    let mut kept = Vec::new();
    for (run, untraced_s, traced_run, traced_s, recomposed) in reps {
        let Some(o) = account(report, run, spec, scale.rack_cap_mw, &mut first) else {
            continue;
        };
        // The observed run must reproduce the unobserved one exactly.
        if account(report, traced_run, spec, scale.rack_cap_mw, &mut first).is_none() {
            continue;
        }
        match recomposed {
            Ok((r, phases)) => {
                let expect = Counts {
                    completed: o.completed,
                    hits: o.hits,
                    misses: o.misses,
                    evictions: o.evictions,
                    checksum: o.checksum,
                };
                if r.counts != expect
                    || (r.warm, r.cold, r.spills) != (o.route.warm, o.route.cold, o.route.spills)
                {
                    report.violation(format!(
                        "recomposition {:?} differs from Fleet::run {expect:?}",
                        r.counts
                    ));
                    continue;
                }
                layers.get_or_insert(r);
                kept.push(TraceRep {
                    untraced_s,
                    traced_s,
                    phases,
                });
            }
            Err(e) => report.violation(format!("recomposition failed: {e}")),
        }
    }
    let m = |f: &dyn Fn(&TraceRep) -> f64| median(&kept.iter().map(f).collect::<Vec<f64>>());
    let untraced_s = m(&|r| r.untraced_s);
    let residual = |r: &TraceRep| {
        let p = &r.phases;
        r.untraced_s - (p.gen_s + p.route_s + p.budget_s + p.sim_wall_s)
    };
    report.set("workload.gen_s", m(&|r| r.phases.gen_s));
    report.set("router.route_s", m(&|r| r.phases.route_s));
    report.set("budget.schedule_s", m(&|r| r.phases.budget_s));
    report.set("fleet.residual_s", m(&residual));
    report.set(
        "fleet.serial_share",
        m(&|r| (r.untraced_s - r.phases.sim_wall_s) / r.untraced_s),
    );
    report.set("chip.sim_wall_s", m(&|r| r.phases.sim_wall_s));
    report.set("chip.busy_s", m(&|r| r.phases.busy_s));
    report.set("chip.max_s", m(&|r| r.phases.max_s));
    report.set(
        "chip.imbalance",
        m(&|r| r.phases.max_s / (r.phases.busy_s / scale.chips as f64)),
    );
    report.set(
        "trace.overhead_pct",
        (m(&|r| r.traced_s) / untraced_s - 1.0) * 100.0,
    );
    if let Some(r) = layers {
        report.set("router.warm", r.warm as f64);
        report.set("router.cold", r.cold as f64);
        report.set("router.spills", r.spills as f64);
        report.set("budget.epochs", r.epochs as f64);
        report.set("chip.hits", r.counts.hits as f64);
        report.set("chip.misses", r.counts.misses as f64);
        report.set("chip.evictions", r.counts.evictions as f64);
        report.set("chip.decompressed_mb", r.decompressed_bytes as f64 / 1e6);
    }
    report.set("host.cpu_s", cpu_s);
    report.set("host.steal_s", steal_s);
    report.set("host.nproc", host::nproc() as f64);

    let catalog = fleet.catalog();
    let sample: Vec<BitstreamId> = catalog.ids().into_iter().take(64).collect();
    report.set(
        "compress.decode_mb_per_s",
        probe::decode_mb_per_s(DECODE_ROUNDS, || {
            sample
                .iter()
                .map(|&id| {
                    fleet
                        .tables()
                        .decompress_image(catalog, id)
                        .map_or(0, |i| i.len())
                })
                .sum()
        }),
    );
    probe::core_layers(report, catalog, scale.rack_cap_mw / scale.chips as f64);
    serve::probe(report, &scale.serve, spec.seed);
}
