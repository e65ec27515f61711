//! Per-request records and run-level summaries.

use uparc_sim::stats::LogHistogram;
use uparc_sim::time::{Frequency, SimTime};

use crate::request::{AdmissionError, RegionId, RequestId};

/// One successfully served request.
#[derive(Debug, Clone)]
pub struct Completion {
    /// Request id.
    pub id: RequestId,
    /// Region it reconfigured.
    pub region: RegionId,
    /// When the request arrived.
    pub arrival: SimTime,
    /// When it left the queue and started dispatch.
    pub dispatched: SimTime,
    /// When the reconfiguration finished.
    pub finished: SimTime,
    /// Its absolute deadline, if any.
    pub deadline: Option<SimTime>,
    /// Whether it finished after its deadline.
    pub missed: bool,
    /// Reconfiguration clock (CLK_2) the scheduler chose.
    pub frequency: Frequency,
    /// Core-rail voltage the scheduler chose (the nominal 1.0 V when
    /// DVFS is off).
    pub volts: f64,
    /// Whether the thermal governor demoted the operating point for
    /// this dispatch.
    pub throttled: bool,
    /// Whether the compressed datapath served it.
    pub compressed: bool,
    /// Total energy spent, recovery overhead included, in microjoules.
    pub energy_uj: f64,
    /// Reconfiguration attempts the recovery layer needed.
    pub attempts: u32,
    /// Whether recovery had to intervene.
    pub healed: bool,
}

impl Completion {
    /// Arrival-to-finish latency.
    #[must_use]
    pub fn latency(&self) -> SimTime {
        self.finished.saturating_sub(self.arrival)
    }
}

/// One rejected request.
#[derive(Debug, Clone)]
pub struct Rejection {
    /// Request id.
    pub id: RequestId,
    /// When admission rejected it.
    pub at: SimTime,
    /// Why.
    pub reason: AdmissionError,
}

/// One request that was admitted but whose dispatch ultimately failed
/// even after recovery.
#[derive(Debug, Clone)]
pub struct Failure {
    /// Request id.
    pub id: RequestId,
    /// When the dispatch gave up.
    pub at: SimTime,
    /// The controller error, stringified.
    pub error: String,
}

/// Total reconfiguration-path power at one scheduling instant.
#[derive(Debug, Clone, Copy)]
pub struct PowerSample {
    /// Sample time.
    pub at: SimTime,
    /// Summed draw of all active lanes plus static idle, in milliwatts.
    pub total_mw: f64,
}

/// Everything one service run produced.
#[derive(Debug, Clone, Default)]
pub struct ServiceMetrics {
    /// Served requests, in completion order.
    pub completions: Vec<Completion>,
    /// Rejected requests, in rejection order.
    pub rejections: Vec<Rejection>,
    /// Admitted requests whose dispatch failed terminally.
    pub failures: Vec<Failure>,
    /// Power envelope, one sample per scheduling instant.
    pub power: Vec<PowerSample>,
    /// Scheduling instants where total draw exceeded the cap.
    pub cap_violations: u64,
    /// Requests still queued when the run drained.
    pub unserved: usize,
    /// When the run's last arrival or completion happened.
    pub makespan: SimTime,
    /// Dispatches the thermal governor demoted to a cooler operating
    /// point (zero when the thermal layer is off).
    pub thermal_throttles: u64,
    /// Dispatches whose end-of-dispatch region temperature exceeded the
    /// configured limit — the governor is designed to keep this at
    /// exactly zero.
    pub overtemp_dispatches: u64,
    /// Hottest end-of-dispatch region temperature seen, °C (ambient if
    /// nothing dispatched or the thermal layer is off).
    pub peak_temp_c: f64,
}

impl ServiceMetrics {
    /// Streaming log₂ histogram of arrival-to-finish latencies in
    /// microseconds. This is the same mergeable implementation fleet
    /// shards use, so a single-chip summary and a fleet-wide one report
    /// quantiles through one code path.
    #[must_use]
    pub fn latency_histogram(&self) -> LogHistogram {
        let mut hist = LogHistogram::new();
        for c in &self.completions {
            hist.observe(c.latency().as_us_f64());
        }
        hist
    }

    /// Condenses the run into headline numbers.
    ///
    /// Latency quantiles come from the mergeable [`LogHistogram`] rather
    /// than an exact sort, so they are within one bucket (≤12.5%
    /// relative) of the sorted-vector answer; a test pins that bound
    /// against `stats::percentile`.
    #[must_use]
    pub fn summary(&self) -> ServiceSummary {
        let completed = self.completions.len();
        let hist = self.latency_histogram();
        // Phase split: completions recovery had to intervene on are the
        // degraded phase. One reusable histogram, `clear()`ed between
        // phases, reports each tail on its own — a handful of healed
        // requests with millisecond recovery detours would otherwise be
        // invisible inside the steady-state p99.
        let mut phase = LogHistogram::new();
        for c in self.completions.iter().filter(|c| !c.healed) {
            phase.observe(c.latency().as_us_f64());
        }
        let p99_steady = phase.percentile(99.0).unwrap_or(0.0);
        phase.clear();
        let mut degraded = 0usize;
        for c in self.completions.iter().filter(|c| c.healed) {
            phase.observe(c.latency().as_us_f64());
            degraded += 1;
        }
        let p99_degraded = phase.percentile(99.0).unwrap_or(0.0);
        let misses = self.completions.iter().filter(|c| c.missed).count();
        let with_deadline = self
            .completions
            .iter()
            .filter(|c| c.deadline.is_some())
            .count();
        let energy: f64 = self.completions.iter().map(|c| c.energy_uj).sum();
        let span = self.makespan.as_secs_f64();
        ServiceSummary {
            completed,
            rejected: self.rejections.len(),
            failed: self.failures.len(),
            throughput_rps: if span > 0.0 {
                completed as f64 / span
            } else {
                0.0
            },
            p50_latency_us: hist.percentile(50.0).unwrap_or(0.0),
            p95_latency_us: hist.percentile(95.0).unwrap_or(0.0),
            p99_latency_us: hist.percentile(99.0).unwrap_or(0.0),
            degraded_completed: degraded,
            p99_steady_latency_us: p99_steady,
            p99_degraded_latency_us: p99_degraded,
            deadline_misses: misses,
            deadline_miss_rate: if with_deadline > 0 {
                misses as f64 / with_deadline as f64
            } else {
                0.0
            },
            mean_energy_uj: if completed > 0 {
                energy / completed as f64
            } else {
                0.0
            },
            peak_power_mw: self.power.iter().map(|s| s.total_mw).fold(0.0, f64::max),
            cap_violations: self.cap_violations,
            thermal_throttles: self.thermal_throttles,
            overtemp_dispatches: self.overtemp_dispatches,
            peak_temp_c: self.peak_temp_c,
        }
    }
}

/// Headline numbers of one service run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ServiceSummary {
    /// Requests served to completion.
    pub completed: usize,
    /// Requests rejected at admission.
    pub rejected: usize,
    /// Admitted requests that failed terminally.
    pub failed: usize,
    /// Completions per second of makespan.
    pub throughput_rps: f64,
    /// Median arrival-to-finish latency in microseconds.
    pub p50_latency_us: f64,
    /// 95th-percentile latency in microseconds.
    pub p95_latency_us: f64,
    /// 99th-percentile latency in microseconds.
    pub p99_latency_us: f64,
    /// Completions recovery had to intervene on (the degraded phase).
    pub degraded_completed: usize,
    /// 99th-percentile latency over fault-free completions only, µs.
    pub p99_steady_latency_us: f64,
    /// 99th-percentile latency over healed completions only, µs —
    /// reported separately so recovery detours are not averaged away.
    pub p99_degraded_latency_us: f64,
    /// Completions that finished after their deadline.
    pub deadline_misses: usize,
    /// Misses over completions that carried a deadline.
    pub deadline_miss_rate: f64,
    /// Mean energy per completed request in microjoules.
    pub mean_energy_uj: f64,
    /// Highest sampled total draw in milliwatts.
    pub peak_power_mw: f64,
    /// Scheduling instants above the power cap.
    pub cap_violations: u64,
    /// Dispatches demoted by the thermal governor.
    pub thermal_throttles: u64,
    /// Dispatches that ended above the thermal limit (zero by design).
    pub overtemp_dispatches: u64,
    /// Hottest end-of-dispatch region temperature, °C.
    pub peak_temp_c: f64,
}

#[cfg(test)]
mod tests {
    use super::*;
    use uparc_sim::time::Frequency;

    fn completion(id: u64, arrival_us: u64, finish_us: u64, missed: bool) -> Completion {
        Completion {
            id: RequestId(id),
            region: RegionId(0),
            arrival: SimTime::from_us(arrival_us),
            dispatched: SimTime::from_us(arrival_us),
            finished: SimTime::from_us(finish_us),
            deadline: Some(SimTime::from_us(finish_us + 1)),
            missed,
            frequency: Frequency::from_mhz(100.0),
            volts: 1.0,
            throttled: false,
            compressed: false,
            energy_uj: 100.0,
            attempts: 1,
            healed: false,
        }
    }

    #[test]
    fn summary_aggregates_latency_and_misses() {
        let m = ServiceMetrics {
            completions: vec![
                completion(0, 0, 100, false),
                completion(1, 0, 200, true),
                completion(2, 0, 300, false),
            ],
            power: vec![
                PowerSample {
                    at: SimTime::ZERO,
                    total_mw: 120.0,
                },
                PowerSample {
                    at: SimTime::from_us(5),
                    total_mw: 450.0,
                },
            ],
            makespan: SimTime::from_us(300),
            ..ServiceMetrics::default()
        };
        let s = m.summary();
        assert_eq!(s.completed, 3);
        assert_eq!(s.deadline_misses, 1);
        assert!((s.deadline_miss_rate - 1.0 / 3.0).abs() < 1e-12);
        // Histogram quantiles are bucket-accurate, not exact.
        assert!((s.p50_latency_us - 200.0).abs() <= 200.0 * 0.125);
        assert!((s.peak_power_mw - 450.0).abs() < 1e-12);
        assert!((s.mean_energy_uj - 100.0).abs() < 1e-12);
        assert!(s.throughput_rps > 0.0);
    }

    #[test]
    fn degraded_phase_percentiles_are_reported_separately() {
        // Two fast fault-free completions and one slow healed one: the
        // healed detour must show up in the degraded p99, not dilute
        // (or be diluted by) the steady-state figure.
        let mut slow = completion(2, 0, 5_000, false);
        slow.healed = true;
        slow.attempts = 3;
        let m = ServiceMetrics {
            completions: vec![
                completion(0, 0, 100, false),
                completion(1, 0, 120, false),
                slow,
            ],
            makespan: SimTime::from_us(5_000),
            ..ServiceMetrics::default()
        };
        let s = m.summary();
        assert_eq!(s.degraded_completed, 1);
        assert!(
            s.p99_steady_latency_us <= 120.0 * 1.125,
            "steady p99 {} polluted by the healed detour",
            s.p99_steady_latency_us
        );
        assert!(
            (s.p99_degraded_latency_us - 5_000.0).abs() <= 5_000.0 * 0.125,
            "degraded p99 {} lost the detour",
            s.p99_degraded_latency_us
        );
        // No degraded phase → the degraded figure is inert zero.
        let quiet = ServiceMetrics {
            completions: vec![completion(0, 0, 100, false)],
            makespan: SimTime::from_us(100),
            ..ServiceMetrics::default()
        };
        assert_eq!(quiet.summary().degraded_completed, 0);
        assert_eq!(quiet.summary().p99_degraded_latency_us, 0.0);
    }

    #[test]
    fn histogram_percentiles_within_one_bucket_of_exact() {
        // The old exact-sort path stays behind this test: the summary's
        // histogram quantiles must track `stats::percentile` over the
        // same latencies to within one bucket (12.5% relative).
        let mut state = 0x1234_5678_9abc_def0u64;
        let completions: Vec<Completion> = (0..5000)
            .map(|i| {
                state = state
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                // Latencies spanning ~3 decades, heavy-tailed.
                let lat = 50 + (state >> 52) * (state >> 58).max(1);
                completion(i, 0, lat, false)
            })
            .collect();
        let exact_us: Vec<f64> = completions
            .iter()
            .map(|c| c.latency().as_us_f64())
            .collect();
        let m = ServiceMetrics {
            completions,
            makespan: SimTime::from_ms(10),
            ..ServiceMetrics::default()
        };
        let s = m.summary();
        for (est, p) in [
            (s.p50_latency_us, 50.0),
            (s.p95_latency_us, 95.0),
            (s.p99_latency_us, 99.0),
        ] {
            let exact = uparc_sim::stats::percentile(&exact_us, p).unwrap();
            let ratio = est / exact;
            assert!(
                (1.0 / 1.125..=1.125).contains(&ratio),
                "p{p}: histogram {est} vs exact {exact}"
            );
        }
    }

    #[test]
    fn empty_run_summarises_to_zeroes() {
        let s = ServiceMetrics::default().summary();
        assert_eq!(s.completed, 0);
        assert_eq!(s.deadline_miss_rate, 0.0);
        assert_eq!(s.throughput_rps, 0.0);
        assert_eq!(s.p99_latency_us, 0.0);
    }
}
