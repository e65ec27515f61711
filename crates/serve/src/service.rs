//! The reconfiguration service: admission, per-region dispatch, and the
//! power-budgeted event loop.
//!
//! One [`Service::run`] executes one request trace to completion on the
//! `uparc-sim` event engine. Each region gets its own [`UParc`]
//! controller lane and run queue; arrivals pass the admission checks or
//! are rejected with a typed [`AdmissionError`], and every time a lane
//! frees up the configured [`Policy`] picks the next request. Operating
//! points come from [`PowerAwarePolicy::plan_constrained`], so
//! [`Policy::PowerGreedy`] can hold the summed draw of concurrent
//! reconfigurations under a chip-level cap, and every dispatch goes
//! through the self-healing [`RecoveryPolicy`].

use std::any::Any;
use std::collections::{BTreeMap, VecDeque};

use uparc_core::manager::ManagerConfig;
use uparc_core::policy::{PlanQuery, PowerAwarePolicy, VfPlan, VfQuery};
use uparc_core::recovery::RecoveryPolicy;
use uparc_core::uparc::COMPRESSED_MODE_MAX;
use uparc_core::{UParc, UparcError};
use uparc_sim::engine::{Context, Engine, Process};
use uparc_sim::obs::{EventKind, Obs};
use uparc_sim::power::{calib, VfTable};
use uparc_sim::time::{Frequency, SimTime};

use crate::catalog::Catalog;
use crate::metrics::{Completion, Failure, PowerSample, Rejection, ServiceMetrics};
use crate::request::{AdmissionError, BitstreamId, ReconfigRequest, RegionId};
use crate::scheduler::{candidate_order, Policy, Queued};
use crate::thermal::{LaneTemp, ThermalConfig};

/// Safety margin on estimated service times: the analytic transfer model
/// ignores pipeline fill and stall cycles, so admission pads it before
/// promising a deadline is reachable.
const ESTIMATE_MARGIN: f64 = 1.05;

/// Tolerance when checking sampled draw against the cap (floating-point
/// sums of per-lane draws).
const CAP_EPSILON_MW: f64 = 1e-9;

/// Tunables of one service instance.
#[derive(Debug, Clone)]
pub struct ServiceConfig {
    /// Dispatch policy.
    pub policy: Policy,
    /// Chip-level cap on the summed reconfiguration-path draw, in
    /// milliwatts. Only [`Policy::PowerGreedy`] schedules against it,
    /// but violations are counted under every policy. Default: no cap.
    pub power_cap_mw: f64,
    /// Per-region run-queue capacity; arrivals beyond it are rejected
    /// with [`AdmissionError::QueueFull`].
    pub queue_capacity: usize,
    /// Recovery policy wrapped around every dispatch.
    pub recovery: RecoveryPolicy,
    /// Host-side decompressed-bitstream cache per lane, in bytes.
    pub decompressed_cache_bytes: usize,
    /// (V, f) operating-point table for DVFS dispatch. `None` (the
    /// default) keeps the pre-DVFS frequency-only behaviour — every
    /// dispatch runs the nominal rail and the planner's answers are
    /// bit-identical to the original planner.
    pub vf: Option<VfTable>,
    /// Per-region thermal model and throttling governor. `None` (the
    /// default) disables thermal accounting entirely. Requires `vf` to
    /// demote operating points; with `vf: None` the governor still caps
    /// the dispatch draw but can only trade frequency.
    pub thermal: Option<ThermalConfig>,
    /// Observability handle for the run: each lane reports through a
    /// region-tagged copy, the scheduler itself through the handle as
    /// given. The disabled [`Obs::null`] (the default) makes every
    /// instrumentation site a single-branch no-op.
    pub obs: Obs,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        ServiceConfig {
            policy: Policy::Fifo,
            power_cap_mw: f64::INFINITY,
            queue_capacity: 32,
            recovery: RecoveryPolicy::default(),
            decompressed_cache_bytes: 32 * 1024 * 1024,
            vf: None,
            thermal: None,
            obs: Obs::null(),
        }
    }
}

/// Per-bitstream scheduling facts, calibrated by one dry-run dispatch
/// on a scratch controller (deterministic, so the calibration is exact
/// for a fault-free dispatch).
#[derive(Debug, Clone, Copy)]
struct Est {
    /// Best-case dispatch-to-finish time with the lane idle (measured at
    /// the fastest admissible clock, the DCM relock from a cold lane
    /// included), margin included.
    service_fastest: SimTime,
    /// Same dispatch re-measured with CLK_2 already locked at the target
    /// — the relock-free service time. `service_fastest - service_pure`
    /// is the unhidden relock residual a dispatch pays exactly when the
    /// planned frequency differs from the lane's current one.
    service_pure: SimTime,
    /// The fastest admissible clock the estimates were measured at.
    fastest: Frequency,
    /// CLK_2 ceiling imposed by the datapath (compressed mode).
    ceiling: Option<Frequency>,
    /// Extra steady draw of the decompressor during the transfer, mW.
    extra_draw_mw: f64,
}

/// The reconfiguration service for one catalog.
#[derive(Debug, Clone)]
pub struct Service {
    catalog: Catalog,
    config: ServiceConfig,
    planner: PowerAwarePolicy,
    manager: ManagerConfig,
}

impl Service {
    /// Creates a service over `catalog` with the paper's controller
    /// setup (100 MHz reference, actively-waiting manager).
    #[must_use]
    pub fn new(catalog: Catalog, config: ServiceConfig) -> Self {
        let mut planner = PowerAwarePolicy::paper_setup(catalog.device().family());
        if let Some(vf) = &config.vf {
            planner = planner.with_vf_table(vf.clone());
        }
        Service {
            catalog,
            config,
            planner,
            manager: ManagerConfig::default(),
        }
    }

    /// The catalog this service dispatches from.
    #[must_use]
    pub fn catalog(&self) -> &Catalog {
        &self.catalog
    }

    /// The service configuration.
    #[must_use]
    pub fn config(&self) -> &ServiceConfig {
        &self.config
    }

    /// The operating-point planner.
    #[must_use]
    pub fn planner(&self) -> &PowerAwarePolicy {
        &self.planner
    }

    /// Builds one controller lane with the catalog's staging setup.
    fn build_lane(&self) -> UParc {
        UParc::builder(self.catalog.device().clone())
            .bram_bytes(self.catalog.bram_bytes())
            .decompressor(self.catalog.algorithm())
            .decompressed_cache_bytes(self.config.decompressed_cache_bytes)
            .build()
            .expect("catalog algorithm has a hardware decompressor")
    }

    /// Measures a full fault-free dispatch of `id` at CLK_2 `f` on a
    /// scratch controller: retune + preload + transfer + the recovery
    /// layer's verification, exactly as a lane would run it. The dispatch
    /// runs twice on the same scratch: the first pays the DCM relock from
    /// the cold lane (partially hidden behind the preload), the second
    /// re-runs with the factors already locked and measures the pure
    /// service time. Returns `(with_relock, pure)`.
    fn measure_dispatch(&self, id: BitstreamId, f: Frequency) -> (SimTime, SimTime) {
        let entry = self.catalog.entry(id).expect("measure of unknown id");
        let mut scratch = self.build_lane();
        scratch
            .set_reconfiguration_frequency(f)
            .expect("grid frequency is synthesizable");
        self.config
            .recovery
            .reconfigure(&mut scratch, entry.bitstream(), entry.mode())
            .expect("fault-free dispatch on a scratch lane");
        let first = scratch.now();
        scratch
            .set_reconfiguration_frequency(f)
            .expect("retune to the locked frequency is free");
        self.config
            .recovery
            .reconfigure(&mut scratch, entry.bitstream(), entry.mode())
            .expect("fault-free dispatch on a scratch lane");
        (first, scratch.now().saturating_sub(first))
    }

    /// Runs one request trace to completion and returns its metrics.
    ///
    /// The run is fully deterministic in `(catalog, config, requests)`:
    /// same inputs, identical metrics.
    ///
    /// # Panics
    ///
    /// Panics if a controller lane cannot be built (no hardware
    /// decompressor for the catalog's algorithm).
    #[must_use]
    pub fn run(&self, requests: &[ReconfigRequest]) -> ServiceMetrics {
        // Run lanes report through region-tagged handles; the scratch
        // lanes used by `measure_dispatch` calibration stay unobserved so
        // traces show only the actual run.
        let lanes: Vec<UParc> = (0..self.catalog.region_count())
            .map(|region| {
                let mut lane = self.build_lane();
                lane.set_observer(self.config.obs.with_lane(region as u32));
                lane
            })
            .collect();
        let grid = self.planner.frequency_grid();
        let ests: BTreeMap<BitstreamId, Est> = self
            .catalog
            .ids()
            .into_iter()
            .map(|id| {
                let entry = self.catalog.entry(id).expect("id from catalog");
                let ceiling = entry
                    .compressed()
                    .then(|| Frequency::from_mhz(COMPRESSED_MODE_MAX));
                let fastest = grid
                    .iter()
                    .copied()
                    .rfind(|&f| ceiling.is_none_or(|c| f <= c))
                    .expect("frequency grid is never empty");
                let (with_relock, pure) = self.measure_dispatch(id, fastest);
                let extra_draw_mw = if entry.compressed() {
                    calib::DECOMPRESSOR_MW_PER_MHZ * self.manager.clock.as_mhz()
                } else {
                    0.0
                };
                let est = Est {
                    service_fastest: SimTime::from_secs_f64(
                        with_relock.as_secs_f64() * ESTIMATE_MARGIN,
                    ),
                    service_pure: SimTime::from_secs_f64(pure.as_secs_f64() * ESTIMATE_MARGIN),
                    fastest,
                    ceiling,
                    extra_draw_mw,
                };
                (id, est)
            })
            .collect();
        let region_count = self.catalog.region_count();
        let node = LaneTemp::new(&self.config.thermal.unwrap_or_default());
        let mut engine: Engine<Ev> = Engine::new();
        let proc = ServeProcess {
            requests: requests.to_vec(),
            catalog: self.catalog.clone(),
            planner: self.planner.clone(),
            ests,
            lanes,
            queues: vec![VecDeque::new(); region_count],
            busy: vec![None; region_count],
            policy: self.config.policy,
            cap_mw: self.config.power_cap_mw,
            queue_capacity: self.config.queue_capacity,
            recovery: self.config.recovery.clone(),
            vf: self.config.vf.clone(),
            thermal: self.config.thermal,
            temps: vec![node; region_count],
            throttle_state: vec![false; region_count],
            current_f: vec![None; region_count],
            rails: vec![self.planner.vf_table().nominal_index(); region_count],
            cool_wake: vec![None; region_count],
            last_activity: SimTime::ZERO,
            metrics: ServiceMetrics::default(),
            obs: self.config.obs.clone(),
        };
        let id = engine.spawn(Box::new(proc));
        for (i, r) in requests.iter().enumerate() {
            engine.schedule(r.arrival, id, Ev::Arrive(i));
        }
        engine.run();
        let boxed: Box<dyn Any> = engine.despawn(id);
        let proc = boxed
            .downcast::<ServeProcess>()
            .expect("despawned the process we spawned");
        let mut metrics = proc.metrics;
        metrics.makespan = proc.last_activity;
        metrics.unserved = proc.queues.iter().map(VecDeque::len).sum();
        metrics
    }
}

/// Events of the service process.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Ev {
    /// Request `i` of the trace arrives.
    Arrive(usize),
    /// Lane `lane` finished its dispatch.
    Done { lane: usize },
    /// Lane `lane` has cooled below the throttle-release threshold, so
    /// the thermal governor may now admit work it refused while hot.
    Cooled { lane: usize },
}

/// The single event-engine process driving all lanes.
struct ServeProcess {
    requests: Vec<ReconfigRequest>,
    catalog: Catalog,
    planner: PowerAwarePolicy,
    ests: BTreeMap<BitstreamId, Est>,
    lanes: Vec<UParc>,
    queues: Vec<VecDeque<Queued>>,
    /// Per-lane draw above static idle while busy, in milliwatts.
    busy: Vec<Option<f64>>,
    policy: Policy,
    cap_mw: f64,
    queue_capacity: usize,
    recovery: RecoveryPolicy,
    /// DVFS operating-point table; `None` pins dispatch to the nominal
    /// rail and the pre-DVFS analytic planner.
    vf: Option<VfTable>,
    /// Thermal model and governor; `None` disables thermal accounting.
    thermal: Option<ThermalConfig>,
    /// Per-lane RC thermal node (only advanced when `thermal` is set).
    temps: Vec<LaneTemp>,
    /// Per-lane governor hysteresis state.
    throttle_state: Vec<bool>,
    /// The CLK_2 each lane is currently locked at (`None` until its
    /// first successful dispatch) — a dispatch at the same frequency
    /// skips the DCM relock, and admission's dry-run estimate mirrors
    /// that.
    current_f: Vec<Option<Frequency>>,
    /// The rail each lane's core supply currently sits on.
    rails: Vec<usize>,
    /// A pending [`Ev::Cooled`] per lane, so a lane refused again before
    /// it cools does not stack duplicate wake-ups.
    cool_wake: Vec<Option<SimTime>>,
    /// When the last arrival or completion was handled: the makespan. A
    /// wake-up that finds nothing to do does not extend the run.
    last_activity: SimTime,
    metrics: ServiceMetrics,
    /// Scheduler-level observability (admission verdicts, cap samples);
    /// lanes carry their own region-tagged copies.
    obs: Obs,
}

impl Process<Ev> for ServeProcess {
    fn handle(&mut self, ctx: &mut Context<'_, Ev>, event: Ev) {
        match event {
            Ev::Arrive(i) => {
                let now = ctx.now();
                self.last_activity = now;
                match self.admit(i, now) {
                    Ok(queued) => {
                        self.obs.instant(
                            now,
                            EventKind::Admission {
                                outcome: "admitted",
                                request: self.requests[i].id.0,
                            },
                        );
                        self.obs.count("serve.admitted", 1);
                        self.queues[self.requests[i].region.0].push_back(queued);
                    }
                    Err(reason) => {
                        self.obs.instant(
                            now,
                            EventKind::Admission {
                                outcome: reason.label(),
                                request: self.requests[i].id.0,
                            },
                        );
                        self.obs.count("serve.rejected", 1);
                        self.metrics.rejections.push(Rejection {
                            id: self.requests[i].id,
                            at: now,
                            reason,
                        });
                    }
                }
            }
            Ev::Done { lane } => {
                self.last_activity = ctx.now();
                self.busy[lane] = None;
                self.sample_power(ctx.now());
            }
            Ev::Cooled { lane } => self.cool_wake[lane] = None,
        }
        self.dispatch_idle_lanes(ctx);
    }
}

impl ServeProcess {
    /// Runs the admission checks for request `i` arriving at `now`.
    fn admit(&self, i: usize, now: SimTime) -> Result<Queued, AdmissionError> {
        let req = &self.requests[i];
        let entry = self
            .catalog
            .entry(req.bitstream)
            .ok_or(AdmissionError::UnknownBitstream { id: req.bitstream })?;
        if req.region.0 >= self.queues.len() {
            return Err(AdmissionError::UnknownRegion { region: req.region });
        }
        if entry.region() != req.region {
            return Err(AdmissionError::RegionMismatch {
                requested: req.region,
                actual: entry.region(),
            });
        }
        if self.queues[req.region.0].len() >= self.queue_capacity {
            return Err(AdmissionError::QueueFull {
                region: req.region,
                capacity: self.queue_capacity,
            });
        }
        let est = self.ests[&req.bitstream];
        // Hopeless deadlines are rejected for every policy identically,
        // so policy comparisons run on the same admitted set. The dry-run
        // estimate mirrors the dispatch path: a lane already locked at
        // the entry's fastest clock skips the DCM relock, any other lane
        // pays it, and a DVFS dispatch may additionally pay the rail ramp
        // back to nominal.
        if let Some(deadline) = req.deadline {
            let base = if self.current_f[req.region.0] == Some(est.fastest) {
                est.service_pure
            } else {
                est.service_fastest
            };
            let settle = self.vf.as_ref().map_or(SimTime::ZERO, |vf| {
                vf.settle(self.rails[req.region.0], vf.nominal_index())
            });
            let earliest_finish = now + base + settle;
            if deadline < earliest_finish {
                return Err(AdmissionError::DeadlineInfeasible {
                    deadline,
                    earliest_finish,
                });
            }
        }
        if let Some(budget) = req.energy_budget_uj {
            let q = PlanQuery {
                bytes: entry.raw_bytes(),
                max_frequency: est.ceiling,
                energy_budget_uj: Some(budget),
                ..PlanQuery::default()
            };
            if let Err(UparcError::EnergyBudgetInfeasible { floor_uj, .. }) = self.dry_plan(q) {
                return Err(AdmissionError::EnergyInfeasible {
                    budget_uj: budget,
                    floor_uj,
                });
            }
        }
        // PowerGreedy never dispatches above the cap, so a request that
        // cannot fit even with every other lane idle would starve in the
        // queue forever — reject it up front instead.
        if self.policy == Policy::PowerGreedy && self.cap_mw.is_finite() {
            let q = PlanQuery {
                bytes: entry.raw_bytes(),
                max_frequency: est.ceiling,
                power_cap_mw: Some(self.cap_mw - est.extra_draw_mw),
                ..PlanQuery::default()
            };
            if let Err(UparcError::BudgetInfeasible { floor_mw, .. }) = self.dry_plan(q) {
                return Err(AdmissionError::PowerInfeasible {
                    cap_mw: self.cap_mw,
                    floor_mw: floor_mw + est.extra_draw_mw,
                });
            }
        }
        Ok(Queued {
            req: i,
            id: req.id,
            deadline: req.deadline.unwrap_or(SimTime::MAX),
            priority: req.priority,
        })
    }

    /// Admission-time dry run against the planner: the full (V, f) table
    /// when DVFS is configured, the pinned frequency-only search
    /// otherwise.
    fn dry_plan(&self, q: PlanQuery) -> Result<VfPlan, UparcError> {
        if self.vf.is_some() {
            self.planner.plan_vf(&VfQuery::new(q))
        } else {
            self.planner.plan_vf(&VfQuery::frequency_only(q))
        }
    }

    /// Offers every idle lane its queue, in region order.
    fn dispatch_idle_lanes(&mut self, ctx: &mut Context<'_, Ev>) {
        for lane in 0..self.lanes.len() {
            if self.busy[lane].is_some() || self.queues[lane].is_empty() {
                continue;
            }
            let now = ctx.now();
            let order = candidate_order(self.policy, &self.queues[lane], now);
            let mut dispatched = false;
            for pos in order {
                if let Some((plan, throttled, temp_c)) = self.plan_for(lane, pos, now) {
                    self.dispatch(ctx, lane, pos, plan, throttled, temp_c);
                    dispatched = true;
                    break;
                }
            }
            if !dispatched {
                self.wake_when_cool(ctx, lane, now);
            }
        }
    }

    /// Schedules an [`Ev::Cooled`] for an idle `lane` whose queue the
    /// planner just refused. Only an arrival or a completion re-plans a
    /// lane; if neither follows, work refused while the lane was hot
    /// would strand even after it cools. Cooling below the release
    /// threshold lifts the throttle, so that instant gets a wake-up of
    /// its own. A lane already below it gains nothing from waiting.
    fn wake_when_cool(&mut self, ctx: &mut Context<'_, Ev>, lane: usize, now: SimTime) {
        let Some(tcfg) = self.thermal else {
            return;
        };
        let Some(at) = self.temps[lane].cools_below(&tcfg, tcfg.release_at_c(), now) else {
            return;
        };
        if at > now && self.cool_wake[lane] != Some(at) {
            self.cool_wake[lane] = Some(at);
            ctx.send_in(at - now, ctx.self_id(), Ev::Cooled { lane });
        }
    }

    /// Upper bound on the wall-clock of a dispatch at `plan`: the
    /// measured fastest-clock service time scaled by the clock ratio
    /// (the transfer scales inversely with CLK_2 and the fixed
    /// preload/verify parts do not grow), plus the rail settle.
    fn duration_bound(&self, est: &Est, plan: &VfPlan) -> SimTime {
        let ratio = est.fastest.as_mhz() / plan.frequency.as_mhz();
        SimTime::from_secs_f64(est.service_fastest.as_secs_f64() * ratio) + plan.settle
    }

    /// Tries to find an operating point for queue position `pos` of
    /// `lane` under the current power headroom and (when configured) the
    /// thermal governor. Returns the plan, whether the governor
    /// throttled it, and the lane temperature at planning time.
    fn plan_for(&mut self, lane: usize, pos: usize, now: SimTime) -> Option<(VfPlan, bool, f64)> {
        let queued = self.queues[lane][pos];
        let req = &self.requests[queued.req];
        let entry = self.catalog.entry(req.bitstream).expect("admitted request");
        let est = self.ests[&req.bitstream];
        let mut q = PlanQuery {
            bytes: entry.raw_bytes(),
            max_frequency: est.ceiling,
            energy_budget_uj: req.energy_budget_uj,
            ..PlanQuery::default()
        };
        // Greedy in the literal sense: each dispatch takes the fastest
        // operating point the residual power budget allows. Stretching
        // jobs toward their deadlines would save energy per request but
        // starves the queue under load.
        if self.policy == Policy::PowerGreedy && self.cap_mw.is_finite() {
            let others: f64 = self.busy.iter().flatten().sum();
            q.power_cap_mw = Some(self.cap_mw - others - est.extra_draw_mw);
        }
        // Without a VfTable the governor still runs, but can only demote
        // the clock; with one it demotes whole (V, f) points.
        let mut vq = if self.vf.is_some() {
            let mut vq = VfQuery::new(q);
            vq.current_rail = Some(self.rails[lane]);
            vq
        } else {
            VfQuery::frequency_only(q)
        };
        let Some(tcfg) = self.thermal else {
            return Some((self.planner.plan_vf(&vq).ok()?, false, 0.0));
        };
        let temp = self.temps[lane].temp_at(&tcfg, now);
        let mut throttled = self.throttle_state[lane];
        if throttled && temp < tcfg.release_at_c() {
            throttled = false;
        } else if !throttled && temp >= tcfg.throttle_at_c() {
            throttled = true;
        }
        if !throttled {
            if let Ok(plan) = self.planner.plan_vf(&vq) {
                let draw_w =
                    (plan.predicted_power_mw - calib::V6_IDLE_MW + est.extra_draw_mw) / 1e3;
                let dt = self.duration_bound(&est, &plan);
                if tcfg.step_c(temp, draw_w, dt) <= tcfg.limit_c {
                    self.throttle_state[lane] = false;
                    return Some((plan, false, temp));
                }
            }
            // The unthrottled plan would overshoot the junction limit
            // before it finishes — throttle this dispatch even though
            // the lane is below the entry threshold.
            throttled = true;
        }
        self.throttle_state[lane] = throttled;
        // Steady-state-safe demotion: cap the dispatch at the draw whose
        // equilibrium temperature is exactly the junction limit. The RC
        // response is monotone toward its drive, so whatever the
        // dispatch duration the node can never cross the limit.
        let thermal_cap = calib::V6_IDLE_MW + tcfg.sustainable_mw() - est.extra_draw_mw;
        vq.base.power_cap_mw = Some(
            vq.base
                .power_cap_mw
                .map_or(thermal_cap, |c| c.min(thermal_cap)),
        );
        let plan = self.planner.plan_vf(&vq).ok()?;
        Some((plan, true, temp))
    }

    /// Dispatches queue position `pos` of `lane` at the planned
    /// operating point.
    fn dispatch(
        &mut self,
        ctx: &mut Context<'_, Ev>,
        lane: usize,
        pos: usize,
        plan: VfPlan,
        throttled: bool,
        temp_c: f64,
    ) {
        let now = ctx.now();
        let queued = self.queues[lane]
            .remove(pos)
            .expect("position from candidate_order");
        let req = self.requests[queued.req];
        let entry = self
            .catalog
            .entry(req.bitstream)
            .expect("admitted request")
            .clone();
        let est = self.ests[&req.bitstream];
        if let Some(tcfg) = self.thermal {
            self.obs.instant(
                now,
                EventKind::Thermal {
                    temp_c,
                    limit_c: tcfg.limit_c,
                    throttled,
                },
            );
            if throttled {
                self.metrics.thermal_throttles += 1;
                self.obs.count("thermal.throttles", 1);
            }
        }
        let uparc = &mut self.lanes[lane];
        uparc.advance_idle(now.saturating_sub(uparc.now()));
        if self.vf.is_some() {
            // Ramp the lane's core rail to the planned voltage; the
            // controller charges the regulator settle into the dispatch.
            let _settle = uparc.set_core_voltage(plan.volts);
            self.rails[lane] = plan.rail;
        }
        // The dispatch span (queue-exit to lane-finish) carries the lane
        // tag and opens before the lane's own spans, so the whole
        // reconfiguration nests under it in the trace.
        let span = uparc
            .obs()
            .begin(now, EventKind::Dispatch { request: req.id.0 });
        let outcome = match uparc.set_reconfiguration_frequency(plan.frequency) {
            Ok(_) => self
                .recovery
                .reconfigure(uparc, entry.bitstream(), entry.mode()),
            Err(e) => Err(e),
        };
        let finished = uparc.now();
        let wait = finished.saturating_sub(now);
        uparc.obs().end(finished, span);
        match outcome {
            Ok(rr) => {
                let missed = req.deadline.is_some_and(|d| finished > d);
                self.obs.count("serve.completions", 1);
                self.obs.observe(
                    "serve.latency_us",
                    finished.saturating_sub(req.arrival).as_us_f64(),
                );
                self.obs
                    .observe("serve.energy_uj", rr.report.energy_uj + rr.extra_energy_uj);
                if missed {
                    self.obs.count("serve.deadline_misses", 1);
                }
                self.metrics.completions.push(Completion {
                    id: req.id,
                    region: RegionId(lane),
                    arrival: req.arrival,
                    dispatched: now,
                    finished,
                    deadline: req.deadline,
                    missed,
                    frequency: rr.report.frequency,
                    volts: plan.volts,
                    throttled,
                    compressed: rr.report.compressed,
                    energy_uj: rr.report.energy_uj + rr.extra_energy_uj,
                    attempts: rr.attempts,
                    healed: rr.healed(),
                });
                self.current_f[lane] = Some(rr.report.frequency);
            }
            Err(e) => {
                self.obs.count("serve.failures", 1);
                self.metrics.failures.push(Failure {
                    id: req.id,
                    at: finished,
                    error: e.to_string(),
                });
                self.current_f[lane] = None;
            }
        }
        let draw_mw = plan.predicted_power_mw - calib::V6_IDLE_MW + est.extra_draw_mw;
        self.busy[lane] = Some(draw_mw);
        if let Some(tcfg) = self.thermal {
            let end_c = self.temps[lane].apply(&tcfg, now, finished, draw_mw / 1e3);
            self.metrics.peak_temp_c = self.metrics.peak_temp_c.max(end_c);
            self.obs.gauge("thermal.temp_c", end_c);
            if end_c > tcfg.limit_c + 1e-9 {
                self.metrics.overtemp_dispatches += 1;
                self.obs.count("thermal.overtemp", 1);
            }
        }
        self.sample_power(now);
        ctx.send_in(wait, ctx.self_id(), Ev::Done { lane });
    }

    /// Records the summed draw at a scheduling instant and counts cap
    /// violations. Static idle is chip-level, so it is counted once.
    fn sample_power(&mut self, at: SimTime) {
        let total_mw = calib::V6_IDLE_MW + self.busy.iter().flatten().sum::<f64>();
        self.obs.instant(
            at,
            EventKind::CapSample {
                total_mw,
                cap_mw: self.cap_mw,
            },
        );
        self.obs.gauge("serve.power_mw", total_mw);
        self.metrics.power.push(PowerSample { at, total_mw });
        if total_mw > self.cap_mw + CAP_EPSILON_MW {
            self.metrics.cap_violations += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::request::{Priority, ReconfigRequest, RequestId};
    use crate::workload::{ArrivalPattern, WorkloadSpec};
    use uparc_bitstream::builder::PartialBitstream;
    use uparc_bitstream::synth::SynthProfile;
    use uparc_fpga::Device;

    fn two_region_catalog() -> Catalog {
        let device = Device::xc5vsx50t();
        let mut cat = Catalog::new(device);
        cat.add_region("rp0", 100..160).unwrap();
        cat.add_region("rp1", 200..260).unwrap();
        for (id, far, frames) in [(1u32, 100, 40), (2, 110, 25), (3, 200, 50)] {
            let payload = SynthProfile::dense().generate(cat.device(), far, frames, u64::from(id));
            let bs = PartialBitstream::build(cat.device(), far, &payload);
            cat.register(BitstreamId(id), bs).unwrap();
        }
        cat
    }

    /// Bench-scale modules (~150 KB raw, staged raw via a big BRAM):
    /// large enough that a faster CLK_2 saves more than the 25 µs rail
    /// ramp costs, so the (V, f) planner actually undervolts.
    fn large_two_region_catalog() -> Catalog {
        let device = Device::xc5vsx50t();
        let mut cat = Catalog::new(device).with_bram_bytes(256 * 1024);
        cat.add_region("rp0", 100..1100).unwrap();
        cat.add_region("rp1", 1200..2200).unwrap();
        for (id, far, frames) in [(1u32, 100, 900), (2, 1200, 700)] {
            let payload = SynthProfile::dense().generate(cat.device(), far, frames, u64::from(id));
            let bs = PartialBitstream::build(cat.device(), far, &payload);
            cat.register(BitstreamId(id), bs).unwrap();
        }
        cat
    }

    fn spec(requests: usize) -> WorkloadSpec {
        WorkloadSpec {
            requests,
            mean_gap: SimTime::from_us(150),
            pattern: ArrivalPattern::Uniform,
            deadline_slack_us: Some((200, 2_000)),
            energy_budget_uj: None,
        }
    }

    #[test]
    fn fifo_serves_a_trace_to_completion() {
        let catalog = two_region_catalog();
        let service = Service::new(catalog, ServiceConfig::default());
        let reqs = spec(20).generate(5, service.catalog());
        let m = service.run(&reqs);
        assert_eq!(
            m.completions.len() + m.rejections.len() + m.failures.len(),
            20
        );
        assert_eq!(m.unserved, 0, "open queue must drain");
        assert!(m.makespan >= reqs.last().unwrap().arrival);
        for c in &m.completions {
            assert!(c.dispatched >= c.arrival);
            assert!(c.finished > c.dispatched);
        }
    }

    #[test]
    fn runs_are_deterministic() {
        let catalog = two_region_catalog();
        for policy in Policy::ALL {
            let service = Service::new(
                catalog.clone(),
                ServiceConfig {
                    policy,
                    power_cap_mw: 600.0,
                    ..ServiceConfig::default()
                },
            );
            let reqs = spec(30).generate(11, service.catalog());
            let a = service.run(&reqs).summary();
            let b = service.run(&reqs).summary();
            assert_eq!(a, b, "policy {} must be deterministic", policy.label());
        }
    }

    #[test]
    fn power_greedy_respects_the_cap() {
        let catalog = two_region_catalog();
        // Tight enough that two concurrent full-speed transfers don't
        // fit, loose enough that one always does.
        let cap = 520.0;
        let service = Service::new(
            catalog,
            ServiceConfig {
                policy: Policy::PowerGreedy,
                power_cap_mw: cap,
                ..ServiceConfig::default()
            },
        );
        // Bursty arrivals force concurrent demand on both regions.
        let spec = WorkloadSpec {
            requests: 40,
            mean_gap: SimTime::from_us(60),
            pattern: ArrivalPattern::Bursty { burst: 8 },
            ..WorkloadSpec::default()
        };
        let reqs = spec.generate(3, service.catalog());
        let m = service.run(&reqs);
        assert_eq!(m.cap_violations, 0);
        for s in &m.power {
            assert!(
                s.total_mw <= cap + CAP_EPSILON_MW,
                "draw {} above cap at {:?}",
                s.total_mw,
                s.at
            );
        }
        assert!(!m.completions.is_empty());
    }

    #[test]
    fn dvfs_undervolts_under_a_tight_cap_and_stays_deterministic() {
        let catalog = large_two_region_catalog();
        let cfg = |vf| ServiceConfig {
            policy: Policy::PowerGreedy,
            power_cap_mw: 330.0,
            vf,
            ..ServiceConfig::default()
        };
        let spec = WorkloadSpec {
            requests: 30,
            mean_gap: SimTime::from_us(120),
            pattern: ArrivalPattern::Bursty { burst: 6 },
            ..WorkloadSpec::default()
        };
        let dvfs = Service::new(catalog.clone(), cfg(Some(VfTable::voltune_virtex6())));
        let reqs = spec.generate(13, dvfs.catalog());
        let m = dvfs.run(&reqs);
        assert_eq!(m.cap_violations, 0);
        assert!(
            m.completions.iter().any(|c| c.volts < 1.0),
            "a 330 mW cap must force undervolted dispatches"
        );
        assert_eq!(
            m.summary(),
            dvfs.run(&reqs).summary(),
            "DVFS run must be deterministic"
        );
        // Undervolting buys clock the frequency-only planner cannot
        // afford under the same cap.
        let freq_only = Service::new(catalog, cfg(None)).run(&reqs);
        assert_eq!(freq_only.cap_violations, 0);
        let max_mhz = |m: &ServiceMetrics| {
            m.completions
                .iter()
                .map(|c| c.frequency.as_mhz())
                .fold(0.0, f64::max)
        };
        assert!(max_mhz(&m) > max_mhz(&freq_only));
    }

    #[test]
    fn sustained_load_throttles_without_overtemperature() {
        let catalog = large_two_region_catalog();
        let tcfg = ThermalConfig::default();
        let service = Service::new(
            catalog,
            ServiceConfig {
                policy: Policy::PowerGreedy,
                queue_capacity: 256,
                vf: Some(VfTable::voltune_virtex6()),
                thermal: Some(tcfg),
                ..ServiceConfig::default()
            },
        );
        // A metronome faster than the service rate holds both lanes at
        // 100% duty — full speed would settle far above the junction
        // limit, so the governor has to throttle.
        let spec = WorkloadSpec {
            requests: 200,
            mean_gap: SimTime::from_us(10),
            pattern: ArrivalPattern::Sustained,
            ..WorkloadSpec::default()
        };
        let reqs = spec.generate(17, service.catalog());
        let m = service.run(&reqs);
        assert!(
            m.thermal_throttles > 0,
            "sustained full-duty load must throttle"
        );
        assert_eq!(m.overtemp_dispatches, 0);
        assert!(m.peak_temp_c > tcfg.ambient_c);
        assert!(m.peak_temp_c <= tcfg.limit_c + 1e-9);
        assert!(
            m.completions.iter().any(|c| c.throttled && c.volts < 1.0),
            "throttling must demote the operating point, not just the clock"
        );
    }

    #[test]
    fn a_lane_refused_by_the_thermal_governor_wakes_when_it_cools() {
        // A region so thermally resistive that its sustainable draw
        // (1 mW) funds no operating point: every throttled plan fails,
        // and only an unthrottled dispatch from a cool enough node runs.
        let tcfg = ThermalConfig {
            r_c_per_w: 40_000.0,
            c_j_per_c: 1.25e-5,
            ..ThermalConfig::default()
        };
        let service = Service::new(
            two_region_catalog(),
            ServiceConfig {
                queue_capacity: 64,
                thermal: Some(tcfg),
                ..ServiceConfig::default()
            },
        );
        // One burst, then silence: once the lane heats into throttling,
        // no later arrival or completion re-plans it.
        let reqs: Vec<ReconfigRequest> = (0..24u64)
            .map(|i| ReconfigRequest {
                id: RequestId(i),
                bitstream: BitstreamId(1 + (i % 2) as u32),
                region: RegionId(0),
                arrival: SimTime::from_ns(i * 100),
                deadline: None,
                priority: Priority::Normal,
                energy_budget_uj: None,
            })
            .collect();
        let m = service.run(&reqs);
        assert_eq!(m.unserved, 0, "queued requests stranded after cool-down");
        assert_eq!(m.completions.len(), reqs.len());
        assert_eq!(m.overtemp_dispatches, 0);
        assert!(m.peak_temp_c <= tcfg.limit_c + 1e-9);
    }

    #[test]
    fn unknown_ids_reject_with_typed_errors() {
        let catalog = two_region_catalog();
        let service = Service::new(catalog, ServiceConfig::default());
        let mk = |arrival_us: u64, id: u32, region: usize| ReconfigRequest {
            id: RequestId(arrival_us),
            bitstream: BitstreamId(id),
            region: RegionId(region),
            arrival: SimTime::from_us(arrival_us),
            deadline: None,
            priority: Priority::Normal,
            energy_budget_uj: None,
        };
        let reqs = vec![
            mk(0, 99, 0), // unknown bitstream
            mk(1, 1, 1),  // wrong region
            mk(2, 2, 0),  // fine
        ];
        let m = service.run(&reqs);
        assert_eq!(m.completions.len(), 1);
        assert_eq!(m.rejections.len(), 2);
        assert_eq!(m.rejections[0].reason.label(), "unknown-bitstream");
        assert_eq!(m.rejections[1].reason.label(), "region-mismatch");
    }
}
