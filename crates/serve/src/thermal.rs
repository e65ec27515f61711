//! Per-region thermal accumulation and the throttling governor's math.
//!
//! Each lane is one lumped RC node: dispatched power drives the region
//! temperature toward `ambient + P·R` with time constant `τ = R·C`, and
//! idle time decays it back toward ambient. The governor in
//! [`crate::service`] uses two facts this module makes checkable:
//!
//! * a dispatch whose **steady-state** temperature `ambient + P·R` is at
//!   or below the limit can never push the node above the limit,
//!   whatever its duration (the RC response is monotone toward its
//!   drive);
//! * for an unthrottled (hot) dispatch, the **projected end temperature**
//!   over a bounded duration certifies the transient headroom a cold
//!   region has.
//!
//! Both are exercised by `POWER.md`'s doc-tested worked example and the
//! `bench_power` thermal scenario (zero over-temperature dispatches).

use uparc_sim::time::SimTime;

/// Tunables of the per-region thermal model and throttling governor.
///
/// The defaults are calibrated against the repo's power model so that
/// sustained full-speed reconfiguration (≈0.49 W above idle at
/// 362.5 MHz) *must* throttle — its steady-state temperature
/// `45 + 0.49·150 ≈ 118 °C` is far past the 85 °C junction limit —
/// while the sustainable above-idle draw `(85 − 45)/150 ≈ 267 mW`
/// still admits a useful operating point on every rail.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ThermalConfig {
    /// Ambient (heatsink) temperature the region decays toward, °C.
    pub ambient_c: f64,
    /// Junction temperature limit: no dispatch may push the region
    /// above it, °C.
    pub limit_c: f64,
    /// Throttle hysteresis, °C: the governor throttles when the region
    /// reaches `limit - hysteresis` and releases only after it cools
    /// below `limit - 2·hysteresis`.
    pub hysteresis_c: f64,
    /// Thermal resistance junction-to-ambient, °C per watt.
    pub r_c_per_w: f64,
    /// Thermal capacitance of the region, joules per °C.
    pub c_j_per_c: f64,
}

impl Default for ThermalConfig {
    fn default() -> Self {
        ThermalConfig {
            ambient_c: 45.0,
            limit_c: 85.0,
            hysteresis_c: 5.0,
            r_c_per_w: 150.0,
            c_j_per_c: 25e-6,
        }
    }
}

impl ThermalConfig {
    /// The RC time constant `τ = R·C`, seconds (3.75 ms at the
    /// defaults — a handful of dispatches to heat up, a few idle
    /// milliseconds to cool).
    #[must_use]
    pub fn tau_s(&self) -> f64 {
        self.r_c_per_w * self.c_j_per_c
    }

    /// The steady-state temperature a constant `power_w` drives the
    /// region toward: `ambient + P·R`, °C.
    #[must_use]
    pub fn steady_c(&self, power_w: f64) -> f64 {
        self.ambient_c + power_w * self.r_c_per_w
    }

    /// The largest above-idle draw (in mW) whose steady-state
    /// temperature stays at or below the limit — the throttled power
    /// cap: `(limit − ambient) / R`.
    #[must_use]
    pub fn sustainable_mw(&self) -> f64 {
        (self.limit_c - self.ambient_c) / self.r_c_per_w * 1e3
    }

    /// Temperature after holding `power_w` for `dt` starting from
    /// `from_c`: the RC step response
    /// `T∞ + (T₀ − T∞)·exp(−dt/τ)` with `T∞ = ambient + P·R`.
    #[must_use]
    pub fn step_c(&self, from_c: f64, power_w: f64, dt: SimTime) -> f64 {
        let steady = self.steady_c(power_w);
        steady + (from_c - steady) * (-dt.as_secs_f64() / self.tau_s()).exp()
    }

    /// The throttle-entry threshold, °C.
    #[must_use]
    pub fn throttle_at_c(&self) -> f64 {
        self.limit_c - self.hysteresis_c
    }

    /// The throttle-release threshold, °C.
    #[must_use]
    pub fn release_at_c(&self) -> f64 {
        self.limit_c - 2.0 * self.hysteresis_c
    }
}

/// One lane's RC node: a temperature and the time it was last settled.
#[derive(Debug, Clone, Copy)]
pub struct LaneTemp {
    temp_c: f64,
    at: SimTime,
}

impl LaneTemp {
    /// A node at ambient.
    #[must_use]
    pub fn new(cfg: &ThermalConfig) -> Self {
        LaneTemp {
            temp_c: cfg.ambient_c,
            at: SimTime::ZERO,
        }
    }

    /// Temperature at `now`, with everything since the last update
    /// treated as idle decay toward ambient. `now` earlier than the
    /// last update reads the stored state unchanged.
    #[must_use]
    pub fn temp_at(&self, cfg: &ThermalConfig, now: SimTime) -> f64 {
        let dt = now.saturating_sub(self.at);
        cfg.step_c(self.temp_c, 0.0, dt)
    }

    /// The first instant at or after `from` at which idle decay has
    /// brought the node strictly below `target_c`, or `None` if it never
    /// gets there (a target at or below ambient).
    #[must_use]
    pub(crate) fn cools_below(
        &self,
        cfg: &ThermalConfig,
        target_c: f64,
        from: SimTime,
    ) -> Option<SimTime> {
        if self.temp_at(cfg, from) < target_c {
            return Some(from);
        }
        if target_c <= cfg.ambient_c {
            return None;
        }
        // T(t) = ambient + (T₀ − ambient)·exp(−(t − at)/τ), solved for
        // T(t) = target and nudged past rounding onto the cool side.
        let excess = (self.temp_c - cfg.ambient_c) / (target_c - cfg.ambient_c);
        let mut at = self.at + SimTime::from_secs_f64(cfg.tau_s() * excess.ln());
        while self.temp_at(cfg, at) >= target_c {
            at += SimTime::from_ns(1);
        }
        Some(at.max(from))
    }

    /// Applies one dispatch: decay to `start`, then drive at `power_w`
    /// until `end`. Returns the temperature at `end`.
    pub fn apply(
        &mut self,
        cfg: &ThermalConfig,
        start: SimTime,
        end: SimTime,
        power_w: f64,
    ) -> f64 {
        let at_start = self.temp_at(cfg, start);
        self.temp_c = cfg.step_c(at_start, power_w, end.saturating_sub(start));
        self.at = end;
        self.temp_c
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_force_full_speed_to_throttle_but_keep_headroom() {
        let cfg = ThermalConfig::default();
        // Full-speed raw transfer: ≈487 mW above idle (92 mW manager
        // spin + 1.09·362.5 path) can never run sustained...
        assert!(cfg.steady_c(0.487) > cfg.limit_c);
        // ...but the sustainable cap still clears the manager spin plus
        // a useful path draw.
        assert!(cfg.sustainable_mw() > 200.0);
        assert!((cfg.sustainable_mw() - 40.0 / 150.0 * 1e3).abs() < 1e-9);
    }

    #[test]
    fn step_response_is_monotone_toward_its_drive() {
        let cfg = ThermalConfig::default();
        // Heating from ambient never overshoots the steady state;
        // longer holds get closer.
        let short = cfg.step_c(cfg.ambient_c, 0.4, SimTime::from_us(200));
        let long = cfg.step_c(cfg.ambient_c, 0.4, SimTime::from_ms(20));
        let steady = cfg.steady_c(0.4);
        assert!(cfg.ambient_c < short && short < long && long < steady);
        // A sub-limit drive keeps a sub-limit node sub-limit.
        let held = cfg.step_c(
            cfg.limit_c - 0.5,
            (cfg.sustainable_mw() - 1.0) / 1e3,
            SimTime::MAX,
        );
        assert!(held <= cfg.limit_c);
    }

    #[test]
    fn cools_below_finds_the_first_cool_instant() {
        let cfg = ThermalConfig::default();
        let mut node = LaneTemp::new(&cfg);
        let end = SimTime::from_ms(10);
        let hot = node.apply(&cfg, SimTime::ZERO, end, 0.49);
        let target = cfg.release_at_c();
        assert!(hot > target, "the dispatch must heat past the target");
        let at = node
            .cools_below(&cfg, target, end)
            .expect("cools above ambient");
        assert!(node.temp_at(&cfg, at) < target);
        assert!(node.temp_at(&cfg, at - SimTime::from_ns(2)) >= target);
        // Already cool: the query instant itself; never: at ambient.
        let later = at + SimTime::from_us(5);
        assert_eq!(node.cools_below(&cfg, target, later), Some(later));
        assert_eq!(node.cools_below(&cfg, cfg.ambient_c, end), None);
    }

    #[test]
    fn lane_node_heats_on_dispatch_and_decays_when_idle() {
        let cfg = ThermalConfig::default();
        let mut lane = LaneTemp::new(&cfg);
        assert_eq!(lane.temp_at(&cfg, SimTime::from_ms(5)), cfg.ambient_c);
        let after = lane.apply(&cfg, SimTime::ZERO, SimTime::from_us(500), 0.487);
        assert!(after > cfg.ambient_c);
        // Several back-to-back dispatches accumulate.
        let mut t = SimTime::from_us(500);
        let mut prev = after;
        for _ in 0..10 {
            let next = lane.apply(&cfg, t, t + SimTime::from_us(500), 0.487);
            assert!(next > prev);
            prev = next;
            t += SimTime::from_us(500);
        }
        // A long idle gap decays back toward (but never below) ambient.
        let cooled = lane.temp_at(&cfg, t + SimTime::from_ms(50));
        assert!(cooled < prev && cooled >= cfg.ambient_c);
        assert!(cooled - cfg.ambient_c < 0.01);
    }
}
