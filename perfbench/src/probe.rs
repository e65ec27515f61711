//! Host-time probes of single layers, called from the benchmark's own
//! code: a dispatch clock plugged in as an `obs::Recorder`, direct calls
//! into the controller core and recovery ladder on a scratch lane, the
//! operating-point planner and the staging codec.

use std::hint::black_box;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

use uparc_core::policy::{PlanQuery, PowerAwarePolicy, VfQuery};
use uparc_core::recovery::RecoveryPolicy;
use uparc_core::uparc::COMPRESSED_MODE_MAX;
use uparc_core::UParc;
use uparc_serve::request::BitstreamId;
use uparc_serve::{Catalog, ServiceConfig};
use uparc_sim::obs::{EventKind, Recorder, SpanId};
use uparc_sim::power::VfTable;
use uparc_sim::time::{Frequency, SimTime};

use crate::host::timed;
use crate::report::{median, Report};

/// Rounds over the module sample behind each core and policy figure.
const ROUNDS: usize = 5;

/// Catalog modules the core probes cycle through.
const SAMPLE: usize = 24;

/// Planner queries per policy round (one query costs ~0.5 ms of host
/// time at the time of writing).
const PLAN_QUERIES: usize = 200;

/// An observer that stamps the host clock on `Dispatch` span begin and
/// end. That span brackets the whole of one serve dispatch (retune,
/// preload, transfer, recovery check); the controller's own spans are
/// emitted after their work with simulated stamps, so they are counted
/// but not timed.
#[derive(Debug, Default)]
pub struct HostClock {
    next_span: AtomicU64,
    open: Mutex<Vec<(SpanId, Instant)>>,
    dispatch_ns: AtomicU64,
    dispatches: AtomicU64,
}

impl HostClock {
    /// Host seconds spent inside `Dispatch` spans.
    pub fn dispatch_s(&self) -> f64 {
        self.dispatch_ns.load(Ordering::Relaxed) as f64 / 1e9
    }

    /// Closed `Dispatch` spans.
    pub fn dispatches(&self) -> u64 {
        self.dispatches.load(Ordering::Relaxed)
    }
}

impl Recorder for HostClock {
    fn is_enabled(&self) -> bool {
        true
    }

    fn begin(&self, _at: SimTime, _lane: Option<u32>, kind: EventKind) -> SpanId {
        let span = SpanId(self.next_span.fetch_add(1, Ordering::Relaxed) + 1);
        if matches!(kind, EventKind::Dispatch { .. }) {
            self.open
                .lock()
                .expect("dispatch clock poisoned")
                .push((span, Instant::now()));
        }
        span
    }

    fn end(&self, _at: SimTime, span: SpanId) {
        let mut open = self.open.lock().expect("dispatch clock poisoned");
        if let Some(i) = open.iter().position(|&(s, _)| s == span) {
            let (_, began) = open.swap_remove(i);
            let ns = u64::try_from(began.elapsed().as_nanos()).unwrap_or(u64::MAX);
            self.dispatch_ns.fetch_add(ns, Ordering::Relaxed);
            self.dispatches.fetch_add(1, Ordering::Relaxed);
        }
    }

    fn instant(&self, _at: SimTime, _lane: Option<u32>, _kind: EventKind) {}
}

/// Median over `rounds` of decoded megabytes per second, where one call
/// of `decode` decodes a fixed image sample and returns its bytes.
pub fn decode_mb_per_s(rounds: usize, mut decode: impl FnMut() -> usize) -> f64 {
    let rates: Vec<f64> = (0..rounds)
        .map(|_| {
            let t = Instant::now();
            let bytes = black_box(decode());
            bytes as f64 / 1e6 / t.elapsed().as_secs_f64()
        })
        .collect();
    median(&rates)
}

/// The fastest grid clock a catalog entry's datapath admits, as the
/// service's admission estimates use it.
fn fastest(planner: &PowerAwarePolicy, compressed: bool) -> Frequency {
    let ceiling = compressed.then(|| Frequency::from_mhz(COMPRESSED_MODE_MAX));
    planner
        .frequency_grid()
        .into_iter()
        .rfind(|&f| ceiling.is_none_or(|c| f <= c))
        .expect("frequency grid is never empty")
}

/// Host time per call of `UParc::preload`, `UParc::reconfigure`,
/// `UParc::readback` and `RecoveryPolicy::reconfigure` on a scratch lane
/// built the way the service builds its lanes, over the first
/// [`SAMPLE`] catalog modules; and host time per
/// `PowerAwarePolicy::plan_vf` query under a `cap_mw` power cap.
pub fn core_layers(report: &mut Report, catalog: &Catalog, cap_mw: f64) {
    let planner = PowerAwarePolicy::paper_setup(catalog.device().family())
        .with_vf_table(VfTable::voltune_virtex6());
    let ids: Vec<BitstreamId> = catalog.ids().into_iter().take(SAMPLE).collect();
    let built = UParc::builder(catalog.device().clone())
        .bram_bytes(catalog.bram_bytes())
        .decompressor(catalog.algorithm())
        .decompressed_cache_bytes(ServiceConfig::default().decompressed_cache_bytes)
        .build();
    let mut lane = match built {
        Ok(lane) => lane,
        Err(e) => {
            report.violation(format!("scratch lane: {e}"));
            return;
        }
    };
    let recovery = RecoveryPolicy::default();
    let step = |lane: &mut UParc, id: BitstreamId| -> Result<[f64; 4], String> {
        let entry = catalog.entry(id).expect("id from the catalog");
        let (bs, mode) = (entry.bitstream(), entry.mode());
        lane.set_reconfiguration_frequency(fastest(&planner, entry.compressed()))
            .map_err(|e| e.to_string())?;
        let (preload, preload_s) = timed(|| lane.preload(bs, mode));
        black_box(preload.map_err(|e| e.to_string())?);
        let (transfer, reconfigure_s) = timed(|| lane.reconfigure());
        black_box(transfer.map_err(|e| e.to_string())?);
        let (frames, readback_s) = timed(|| lane.readback(bs.far(), bs.frame_count()));
        black_box(frames.map_err(|e| e.to_string())?);
        let (healed, recovery_s) = timed(|| recovery.reconfigure(lane, bs, mode));
        black_box(healed.map_err(|e| e.to_string())?);
        Ok([preload_s, reconfigure_s, readback_s, recovery_s])
    };
    // Mean host µs per call of each function, one row per round.
    let mut rounds: Vec<[f64; 4]> = Vec::with_capacity(ROUNDS);
    for _ in 0..ROUNDS {
        let mut total = [0.0f64; 4];
        for &id in &ids {
            match step(&mut lane, id) {
                Ok(t) => total.iter_mut().zip(t).for_each(|(sum, s)| *sum += s),
                Err(e) => {
                    report.violation(format!("core probe on bitstream {}: {e}", id.0));
                    return;
                }
            }
        }
        rounds.push(total.map(|sum| sum / ids.len() as f64 * 1e6));
    }
    let per_call = |k: usize| median(&rounds.iter().map(|r| r[k]).collect::<Vec<f64>>());
    report.set("core.preload_us", per_call(0));
    report.set("core.reconfigure_us", per_call(1));
    report.set("core.readback_us", per_call(2));
    report.set("recovery.reconfigure_us", per_call(3));

    let queries: Vec<VfQuery> = ids
        .iter()
        .enumerate()
        .map(|(i, &id)| {
            let entry = catalog.entry(id).expect("id from the catalog");
            let mut q = VfQuery::new(PlanQuery {
                bytes: entry.raw_bytes(),
                max_frequency: entry
                    .compressed()
                    .then(|| Frequency::from_mhz(COMPRESSED_MODE_MAX)),
                power_cap_mw: Some(cap_mw),
                ..PlanQuery::default()
            });
            q.current_rail = Some(i % planner.vf_table().rails().len());
            q
        })
        .collect();
    let ns: Vec<f64> = (0..ROUNDS)
        .map(|_| {
            let t = Instant::now();
            for k in 0..PLAN_QUERIES {
                let _ = black_box(planner.plan_vf(black_box(&queries[k % queries.len()])));
            }
            t.elapsed().as_secs_f64() * 1e9 / PLAN_QUERIES as f64
        })
        .collect();
    report.set("policy.plan_vf_ns", median(&ns));
}
