//! Cross-chip request routing, failure-aware.
//!
//! The router is the fleet's locality engine: it keeps a byte-budgeted
//! model of each chip's decompressed-bitstream LRU (the same budget and
//! eviction order as the real `uparc_core::cache::DecompCache` the chip
//! simulation runs) and sends each request to a chip that already holds
//! the image. When every holder is overloaded the request *spills* to
//! the least-loaded chip instead — locality never wins at the price of a
//! hot chip's queue growing without bound.
//!
//! Under a chaos campaign the router additionally consumes per-chip
//! [`HealthTimeline`]s: chips that go [`ChipState::Down`] are removed
//! from every holder list (their cache died with them — a re-election
//! happens naturally when the next request for the image routes to a
//! survivor and inserts it there), quarantined and repairing chips stop
//! receiving work until they heal, and requests that cannot be placed —
//! no live chip, or every candidate's backlog past the shed threshold —
//! are *shed* with a typed [`ShedReason`] instead of silently dropped.
//!
//! Routing is strictly sequential and deterministic: chip load is
//! modeled as a finish horizon in femtoseconds, candidates are compared
//! by `(horizon, chip id)`, so equal-load ties always resolve to the
//! lowest chip id (pinned by `tests/fleet.rs`). Health transitions are
//! applied monotonically as routing time advances, so the same request
//! sequence always sees the same health view.

use std::collections::BTreeMap;

use uparc_serve::request::BitstreamId;
use uparc_sim::obs::{EventKind, Obs};
use uparc_sim::time::SimTime;

use crate::health::{ChipState, HealthTimeline};
use crate::mintree::MinTree;
use crate::workload::{splitmix64, FleetRequest, GOLDEN};

/// How the fleet assigns requests to chips.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RoutePolicy {
    /// Prefer a chip whose modeled LRU holds the image; spill to the
    /// least-loaded chip when the best holder's backlog exceeds the
    /// fleet-wide minimum by more than `spill_window`.
    Locality {
        /// Maximum extra backlog a holder may carry over the least
        /// loaded chip before the request spills.
        spill_window: SimTime,
    },
    /// Seeded uniform-random assignment — the baseline the locality
    /// uplift is measured against. Under chaos the draw linear-probes to
    /// the next routable chip.
    Random {
        /// Assignment seed (independent of the workload seed).
        seed: u64,
    },
}

/// Why the router refused a request.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ShedReason {
    /// Every candidate chip's backlog exceeded the request's priority-
    /// scaled shed threshold.
    QueueFull,
    /// No routable chip exists (all down, quarantined, or repairing).
    NoLiveChip,
    /// The request was orphaned by chip deaths more times than the
    /// failover retry budget allows.
    RetriesExhausted,
    /// The dispatch itself failed terminally even after the recovery
    /// ladder ran.
    DispatchFailed,
}

impl ShedReason {
    /// Stable label for rendering and reports.
    #[must_use]
    pub fn label(&self) -> &'static str {
        match self {
            ShedReason::QueueFull => "queue_full",
            ShedReason::NoLiveChip => "no_live_chip",
            ShedReason::RetriesExhausted => "retries_exhausted",
            ShedReason::DispatchFailed => "dispatch_failed",
        }
    }
}

/// The router's verdict on one request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RouteOutcome {
    /// Assigned to the given chip.
    Assigned(usize),
    /// Refused, with the reason.
    Shed(ShedReason),
}

/// Per-request routing tallies.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RouteStats {
    /// Requests routed to a chip already holding the image.
    pub warm: u64,
    /// Requests whose image no chip held (first touch or fully evicted).
    pub cold: u64,
    /// Requests that had a holder but spilled to a less loaded chip.
    pub spills: u64,
    /// Requests the router refused.
    pub shed: u64,
}

/// Modeled per-chip LRU of decompressed images. Mirrors the byte-budget
/// semantics of `DecompCache`: inserting past the budget evicts
/// least-recently-used entries first; an entry larger than the whole
/// budget is not admitted.
#[derive(Debug, Clone)]
struct ModelLru {
    budget: usize,
    used: usize,
    tick: u64,
    /// `(id, bytes, last-touch tick)`; small (a handful of images per
    /// chip), so linear scans beat pointer-chasing.
    entries: Vec<(BitstreamId, usize, u64)>,
}

impl ModelLru {
    fn new(budget: usize) -> Self {
        ModelLru {
            budget,
            used: 0,
            tick: 0,
            entries: Vec::new(),
        }
    }

    fn touch(&mut self, id: BitstreamId) -> bool {
        self.tick += 1;
        for e in &mut self.entries {
            if e.0 == id {
                e.2 = self.tick;
                return true;
            }
        }
        false
    }

    /// Inserts `id`, returning the ids evicted to make room.
    fn insert(&mut self, id: BitstreamId, bytes: usize) -> Vec<BitstreamId> {
        self.tick += 1;
        let mut evicted = Vec::new();
        if bytes > self.budget || self.budget == 0 {
            return evicted;
        }
        while self.used + bytes > self.budget {
            let lru = self
                .entries
                .iter()
                .enumerate()
                .min_by_key(|(_, e)| e.2)
                .map(|(i, _)| i)
                .expect("over budget implies a resident entry");
            let (gone, gone_bytes, _) = self.entries.swap_remove(lru);
            self.used -= gone_bytes;
            evicted.push(gone);
        }
        self.used += bytes;
        self.entries.push((id, bytes, self.tick));
        evicted
    }

    fn forget_all(&mut self) {
        self.entries.clear();
        self.used = 0;
    }
}

/// The sequential, deterministic cross-chip router.
///
/// (No `Debug` impl: the embedded [`Obs`] handle is deliberately opaque.)
pub struct Router {
    policy: RoutePolicy,
    /// Modeled finish horizon per chip, fs.
    horizons: Vec<u64>,
    /// Modeled cache content per chip (locality policy only).
    models: Vec<ModelLru>,
    /// Which chips currently hold each image (ascending chip ids).
    holders: BTreeMap<BitstreamId, Vec<usize>>,
    /// Tournament tree over `(horizon, chip)`; a leaf is occupied exactly
    /// while its chip is routable.
    least: MinTree,
    /// Mean service estimate used to advance horizons, fs.
    est_service_fs: u64,
    stats: RouteStats,
    /// Flattened health transitions `(at_fs, chip, state)`, ascending;
    /// applied monotonically as routing time advances.
    transitions: Vec<(u64, usize, ChipState)>,
    /// Next unapplied transition index.
    applied: usize,
    /// Whether each chip may receive new work right now.
    routable: Vec<bool>,
    /// Whether each chip is permanently down.
    down: Vec<bool>,
    /// Backlog shed threshold, fs (`None` = never shed on backlog).
    shed_backlog_fs: Option<u64>,
    obs: Obs,
}

impl Router {
    /// A router over `chips` chips whose modeled LRUs hold
    /// `cache_budget` bytes each; `est_service` is the load-model cost
    /// of one request.
    ///
    /// # Panics
    ///
    /// Panics if `chips` is zero.
    #[must_use]
    pub fn new(
        chips: usize,
        policy: RoutePolicy,
        cache_budget: usize,
        est_service: SimTime,
    ) -> Self {
        Self::with_chaos(
            chips,
            policy,
            cache_budget,
            est_service,
            vec![HealthTimeline::healthy(); chips],
            None,
            Obs::null(),
        )
    }

    /// The chaos-aware constructor: per-chip health trajectories, an
    /// optional backlog shed threshold, and an [`Obs`] handle that
    /// receives `ChipDown`/`Quarantine` instants as routing time crosses
    /// the transitions.
    ///
    /// # Panics
    ///
    /// Panics if `chips` is zero or `health.len() != chips`.
    #[must_use]
    pub fn with_chaos(
        chips: usize,
        policy: RoutePolicy,
        cache_budget: usize,
        est_service: SimTime,
        health: Vec<HealthTimeline>,
        shed_backlog: Option<SimTime>,
        obs: Obs,
    ) -> Self {
        assert!(chips > 0, "router needs at least one chip");
        assert_eq!(health.len(), chips, "one health timeline per chip");
        let mut transitions: Vec<(u64, usize, ChipState)> = Vec::new();
        for (c, h) in health.iter().enumerate() {
            for &(at, state) in h.transitions() {
                if at == 0 && state == ChipState::Healthy {
                    continue; // the implicit starting state
                }
                transitions.push((at, c, state));
            }
        }
        transitions.sort_unstable_by_key(|&(at, c, _)| (at, c));
        let routable: Vec<bool> = health.iter().map(|h| h.state_at(0).routable()).collect();
        let down: Vec<bool> = health
            .iter()
            .map(|h| h.state_at(0) == ChipState::Down)
            .collect();
        let mut least = MinTree::new(chips);
        for c in (0..chips).filter(|&c| routable[c]) {
            least.set(c, 0);
        }
        let router = Router {
            policy,
            horizons: vec![0; chips],
            models: (0..chips).map(|_| ModelLru::new(cache_budget)).collect(),
            holders: BTreeMap::new(),
            least,
            est_service_fs: est_service.as_fs().max(1),
            stats: RouteStats::default(),
            transitions,
            applied: 0,
            routable,
            down,
            shed_backlog_fs: shed_backlog.map(|t| t.as_fs()),
            obs,
        };
        // A chip dead at t=0 was never a holder, but emit its death.
        for c in 0..chips {
            if router.down[c] {
                router
                    .obs
                    .instant(SimTime::ZERO, EventKind::ChipDown { chip: c as u32 });
            }
        }
        router
    }

    /// Routing tallies so far.
    #[must_use]
    pub fn stats(&self) -> RouteStats {
        self.stats
    }

    /// Counts a shed the fleet decided outside the router (e.g. a
    /// failover retry budget running out) so [`RouteStats::shed`] stays
    /// the full tally.
    pub fn stats_shed(&mut self) {
        self.stats.shed += 1;
    }

    /// Whether chip `c` may receive new work at the current routing time.
    #[must_use]
    pub fn routable(&self, c: usize) -> bool {
        self.routable[c]
    }

    /// Applies every health transition at or before `now_fs`. Monotone:
    /// a caller moving backwards in time sees the latest view (the
    /// conservative direction — a chip the router already knows is dead
    /// never receives work dated before its death).
    pub fn advance(&mut self, now_fs: u64) {
        while let Some(&(at, c, state)) = self.transitions.get(self.applied) {
            if at > now_fs {
                break;
            }
            self.applied += 1;
            match state {
                ChipState::Down => {
                    self.down[c] = true;
                    self.routable[c] = false;
                    self.least.clear(c);
                    // The chip's staged images died with it: strike it
                    // from every holder list and drop its cache model so
                    // the next request for each image elects a new holder
                    // among the survivors.
                    self.holders.retain(|_, held| {
                        held.retain(|&h| h != c);
                        !held.is_empty()
                    });
                    self.models[c].forget_all();
                    self.obs
                        .instant(SimTime::from_fs(at), EventKind::ChipDown { chip: c as u32 });
                }
                ChipState::Quarantined => {
                    self.routable[c] = false;
                    self.least.clear(c);
                    self.obs.instant(
                        SimTime::from_fs(at),
                        EventKind::Quarantine { chip: c as u32 },
                    );
                }
                ChipState::Repairing => {
                    self.routable[c] = false;
                    self.least.clear(c);
                }
                ChipState::Healthy | ChipState::Suspect => {
                    // `Down` is absorbing: no transition follows it.
                    debug_assert!(!self.down[c], "chip {c} revived after death");
                    self.routable[c] = true;
                    self.least.set(c, self.horizons[c]);
                }
            }
        }
    }

    /// The least-loaded routable chip by `(horizon, chip id)`, `None`
    /// when no chip is routable.
    fn least_loaded(&self) -> Option<(u64, usize)> {
        self.least.min()
    }

    /// Picks the target chip for `req` (an image of `image_bytes`
    /// decompressed bytes) and advances the load model. The quiet-path
    /// entry point: every chip is permanently healthy, so placement
    /// cannot fail.
    ///
    /// # Panics
    ///
    /// Panics if the router sheds — impossible without chaos timelines
    /// or a shed threshold.
    pub fn route(&mut self, req: &FleetRequest, image_bytes: usize) -> usize {
        match self.try_route(req, req.arrival, image_bytes) {
            RouteOutcome::Assigned(c) => c,
            RouteOutcome::Shed(r) => unreachable!("quiet routing shed a request: {r:?}"),
        }
    }

    /// Picks a target for `req`, which becomes dispatchable at `ready`
    /// (its original arrival for first placement; death time plus backoff
    /// for a failover). Health transitions up to `ready` are applied
    /// first. Returns [`RouteOutcome::Shed`] when no routable chip
    /// exists or every candidate is past the priority-scaled backlog
    /// threshold.
    pub fn try_route(
        &mut self,
        req: &FleetRequest,
        ready: SimTime,
        image_bytes: usize,
    ) -> RouteOutcome {
        let ready_fs = ready.as_fs().max(req.arrival.as_fs());
        self.advance(ready_fs);
        // (target, warm/cold/spill bucket); stats only count on assignment.
        let picked = match self.policy {
            RoutePolicy::Random { seed } => {
                let n = self.horizons.len() as u64;
                let draw =
                    (splitmix64(seed.wrapping_add(req.index.wrapping_mul(GOLDEN))) % n) as usize;
                // Linear probe past dead/quarantined chips: the draw
                // stays a pure function of the request index, survivors
                // absorb their dead neighbours' share.
                (0..self.horizons.len())
                    .map(|k| (draw + k) % self.horizons.len())
                    .find(|&c| self.routable[c])
                    .map(|c| (c, None))
            }
            RoutePolicy::Locality { spill_window } => match self.least_loaded() {
                None => None,
                Some((min_h, least)) => {
                    let holder = self.holders.get(&req.bitstream).and_then(|chips| {
                        chips
                            .iter()
                            .copied()
                            .filter(|&c| self.routable[c])
                            .min_by_key(|&c| (self.horizons[c], c))
                    });
                    Some(match holder {
                        Some(h)
                            if self.horizons[h] <= min_h.saturating_add(spill_window.as_fs()) =>
                        {
                            (h, Some(true))
                        }
                        Some(_) => (least, Some(false)),
                        None => (least, None),
                    })
                }
            },
        };
        let Some((target, bucket)) = picked else {
            self.stats.shed += 1;
            return RouteOutcome::Shed(ShedReason::NoLiveChip);
        };
        if let Some(shed_fs) = self.shed_backlog_fs {
            // Graceful degradation: priority 0 (highest) tolerates 4× the
            // shed threshold, priority 3 (lowest) only 1× — under
            // overload the lowest classes are rejected first and the
            // highest survive longest.
            let allowance = shed_fs.saturating_mul(u64::from(4 - req.priority.min(3)));
            if self.horizons[target].saturating_sub(ready_fs) > allowance {
                self.stats.shed += 1;
                return RouteOutcome::Shed(ShedReason::QueueFull);
            }
        }
        match bucket {
            Some(true) => self.stats.warm += 1,
            Some(false) => self.stats.spills += 1,
            None => {
                if matches!(self.policy, RoutePolicy::Locality { .. }) {
                    self.stats.cold += 1;
                }
            }
        }
        // Advance the modeled horizon and cache content.
        let start = self.horizons[target].max(ready_fs);
        self.horizons[target] = start + self.est_service_fs;
        self.least.set(target, self.horizons[target]);
        if matches!(self.policy, RoutePolicy::Locality { .. })
            && !self.models[target].touch(req.bitstream)
        {
            for gone in self.models[target].insert(req.bitstream, image_bytes) {
                let held = self.holders.get_mut(&gone).expect("evictee was held");
                held.retain(|&c| c != target);
                if held.is_empty() {
                    self.holders.remove(&gone);
                }
            }
            if self.models[target].touch(req.bitstream) {
                let held = self.holders.entry(req.bitstream).or_default();
                match held.binary_search(&target) {
                    Ok(_) => {}
                    Err(pos) => held.insert(pos, target),
                }
            }
        }
        RouteOutcome::Assigned(target)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chaos::ChipChaos;
    use crate::health::HealthConfig;

    fn req(index: u64, arrival_ns: u64, bs: u32) -> FleetRequest {
        FleetRequest {
            index,
            arrival: SimTime::from_ns(arrival_ns),
            bitstream: BitstreamId(bs),
            priority: 0,
        }
    }

    #[test]
    fn equal_load_ties_break_to_lowest_chip_id() {
        let mut r = Router::new(
            4,
            RoutePolicy::Locality {
                spill_window: SimTime::from_us(10),
            },
            1 << 20,
            SimTime::from_us(1),
        );
        // All chips idle at horizon 0: the first cold request must land
        // on chip 0, the next (different image, chip 0 now loaded) on 1.
        assert_eq!(r.route(&req(0, 0, 1), 1024), 0);
        assert_eq!(r.route(&req(1, 0, 2), 1024), 1);
        assert_eq!(r.route(&req(2, 0, 3), 1024), 2);
        assert_eq!(r.route(&req(3, 0, 4), 1024), 3);
    }

    #[test]
    fn warm_requests_follow_the_image() {
        let mut r = Router::new(
            3,
            RoutePolicy::Locality {
                spill_window: SimTime::from_ms(1),
            },
            1 << 20,
            SimTime::from_us(1),
        );
        assert_eq!(r.route(&req(0, 0, 7), 1024), 0);
        // Image 7 now lives on chip 0; later requests for it stay there
        // even though chips 1 and 2 are idle (spill window is generous).
        assert_eq!(r.route(&req(1, 10, 7), 1024), 0);
        assert_eq!(r.route(&req(2, 20, 7), 1024), 0);
        assert_eq!(r.stats().warm, 2);
        assert_eq!(r.stats().cold, 1);
    }

    #[test]
    fn overloaded_holder_spills_to_least_loaded() {
        let mut r = Router::new(
            2,
            RoutePolicy::Locality {
                spill_window: SimTime::from_ns(500),
            },
            1 << 20,
            SimTime::from_us(1),
        );
        // Pile image 1 onto chip 0 until its backlog exceeds the spill
        // window over idle chip 1.
        assert_eq!(r.route(&req(0, 0, 1), 1024), 0);
        assert_eq!(r.route(&req(1, 0, 1), 1024), 1, "backlogged holder spills");
        assert_eq!(r.stats().spills, 1);
    }

    #[test]
    fn eviction_forgets_holders() {
        let mut r = Router::new(
            1,
            RoutePolicy::Locality {
                spill_window: SimTime::from_ms(1),
            },
            2048,
            SimTime::from_us(1),
        );
        // Budget fits two 1 KB images; the third insert evicts image 1.
        r.route(&req(0, 0, 1), 1024);
        r.route(&req(1, 0, 2), 1024);
        r.route(&req(2, 0, 3), 1024);
        assert!(!r.holders.contains_key(&BitstreamId(1)));
        assert!(r.holders.contains_key(&BitstreamId(2)));
        assert!(r.holders.contains_key(&BitstreamId(3)));
        // A re-request of the evicted image is cold again.
        let cold_before = r.stats().cold;
        r.route(&req(3, 0, 1), 1024);
        assert_eq!(r.stats().cold, cold_before + 1);
    }

    #[test]
    fn random_routing_is_seed_deterministic() {
        let route_all = |seed: u64| -> Vec<usize> {
            let mut r = Router::new(
                8,
                RoutePolicy::Random { seed },
                1 << 20,
                SimTime::from_us(1),
            );
            (0..256)
                .map(|i| r.route(&req(i, i * 10, (i % 5) as u32), 1024))
                .collect()
        };
        assert_eq!(route_all(9), route_all(9));
        assert_ne!(route_all(9), route_all(10));
    }

    #[test]
    fn dead_chip_loses_its_holders_and_work_reroutes() {
        let cfg = HealthConfig::default();
        let chaos = ChipChaos {
            loss_at: Some(SimTime::from_us(50)),
            ..ChipChaos::default()
        };
        let health = vec![
            HealthTimeline::build(&chaos, &cfg),
            HealthTimeline::healthy(),
        ];
        let mut r = Router::with_chaos(
            2,
            RoutePolicy::Locality {
                spill_window: SimTime::from_ms(10),
            },
            1 << 20,
            SimTime::from_us(1),
            health,
            None,
            Obs::null(),
        );
        // Image 9 homes on chip 0...
        assert_eq!(r.route(&req(0, 0, 9), 1024), 0);
        assert_eq!(r.route(&req(1, 10_000, 9), 1024), 0);
        // ...chip 0 dies at 50 µs; the next request re-elects chip 1 as
        // the holder (cold — the cache died with the chip) and sticks.
        assert_eq!(r.route(&req(2, 60_000, 9), 1024), 1);
        assert!(!r.routable(0));
        assert_eq!(r.route(&req(3, 70_000, 9), 1024), 1);
        assert_eq!(r.stats().warm, 2);
    }

    #[test]
    fn quarantine_diverts_then_repair_restores_locality() {
        let cfg = HealthConfig {
            suspect_decay: SimTime::from_us(200),
            quarantine_hold: SimTime::from_us(100),
            repair_time: SimTime::from_us(100),
        };
        // Two wedges in quick succession: Suspect at 100 µs, Quarantined
        // at 200 µs, Repairing at 350, Healthy again at 450.
        let chaos = ChipChaos {
            wedges: vec![
                (SimTime::from_us(100), SimTime::from_us(150)),
                (SimTime::from_us(200), SimTime::from_us(250)),
            ],
            ..ChipChaos::default()
        };
        let health = vec![
            HealthTimeline::build(&chaos, &cfg),
            HealthTimeline::healthy(),
        ];
        let mut r = Router::with_chaos(
            2,
            RoutePolicy::Locality {
                spill_window: SimTime::from_ms(10),
            },
            1 << 20,
            SimTime::from_us(1),
            health,
            None,
            Obs::null(),
        );
        // Image 4 homes on chip 0 pre-wedge.
        assert_eq!(r.route(&req(0, 0, 4), 1024), 0);
        // During quarantine the holder is unroutable: work diverts.
        assert_eq!(r.route(&req(1, 210_000, 4), 1024), 1);
        assert!(!r.routable(0));
        // After repair, chip 0 still holds image 4 (quarantine does not
        // wipe the cache) and is preferred again — warm.
        let warm_before = r.stats().warm;
        assert_eq!(r.route(&req(2, 500_000, 4), 1024), 0);
        assert!(r.routable(0));
        assert_eq!(r.stats().warm, warm_before + 1);
    }

    #[test]
    fn all_chips_dead_sheds_with_no_live_chip() {
        let chaos = ChipChaos {
            loss_at: Some(SimTime::ZERO),
            ..ChipChaos::default()
        };
        let cfg = HealthConfig::default();
        let health = vec![HealthTimeline::build(&chaos, &cfg); 2];
        for policy in [
            RoutePolicy::Locality {
                spill_window: SimTime::from_ms(1),
            },
            RoutePolicy::Random { seed: 3 },
        ] {
            let mut r = Router::with_chaos(
                2,
                policy,
                1 << 20,
                SimTime::from_us(1),
                health.clone(),
                None,
                Obs::null(),
            );
            assert_eq!(
                r.try_route(&req(0, 0, 1), SimTime::ZERO, 1024),
                RouteOutcome::Shed(ShedReason::NoLiveChip)
            );
            assert_eq!(r.stats().shed, 1);
        }
    }

    #[test]
    fn least_loaded_matches_a_brute_force_scan_under_health_churn() {
        let us = SimTime::from_us;
        let cfg = HealthConfig {
            suspect_decay: us(200),
            quarantine_hold: us(100),
            repair_time: us(100),
        };
        for seed in 0..12u64 {
            let chips = 1 + (splitmix64(seed) % 17) as usize;
            // Paired wedges quarantine a chip and later heal it; a few
            // chips die outright — routability flips both ways.
            let health: Vec<HealthTimeline> = (0..chips)
                .map(|c| {
                    let r = splitmix64(seed.wrapping_mul(GOLDEN) ^ c as u64);
                    let mut wedges = Vec::new();
                    let mut at = r % 300;
                    for _ in 0..r % 5 {
                        wedges.push((us(at), us(at + 20)));
                        at += 60 + (r >> 20) % 400;
                    }
                    let chaos = ChipChaos {
                        loss_at: (r >> 60 == 0).then(|| us(500 + (r >> 30) % 2_000)),
                        wedges,
                        ..ChipChaos::default()
                    };
                    HealthTimeline::build(&chaos, &cfg)
                })
                .collect();
            for policy in [
                RoutePolicy::Locality {
                    spill_window: SimTime::from_us(3),
                },
                RoutePolicy::Random { seed },
            ] {
                let mut r = Router::with_chaos(
                    chips,
                    policy,
                    4096,
                    SimTime::from_us(2),
                    health.clone(),
                    None,
                    Obs::null(),
                );
                for i in 0..400u64 {
                    let draw = splitmix64(seed ^ i.wrapping_mul(GOLDEN));
                    // Coarse arrivals: many equal horizons, so the chip-id
                    // tie-break is exercised.
                    let q = req(i, i * 8_000, (draw % 7) as u32);
                    let _ = r.try_route(&q, q.arrival, 1024);
                    let brute = (0..chips)
                        .filter(|&c| r.routable(c))
                        .map(|c| (r.horizons[c], c))
                        .min();
                    assert_eq!(r.least_loaded(), brute, "seed {seed} request {i}");
                }
            }
        }
    }

    #[test]
    fn backlog_sheds_low_priority_first() {
        let mut r = Router::with_chaos(
            1,
            RoutePolicy::Locality {
                spill_window: SimTime::from_ms(10),
            },
            1 << 20,
            SimTime::from_us(1),
            vec![HealthTimeline::healthy()],
            Some(SimTime::from_us(2)),
            Obs::null(),
        );
        // Build ~5 µs of backlog on the only chip.
        for i in 0..5 {
            assert!(matches!(
                r.try_route(&req(i, 0, 1), SimTime::ZERO, 1024),
                RouteOutcome::Assigned(0)
            ));
        }
        // Priority 3 tolerates 1×2 µs = 2 µs < 5 µs backlog: shed.
        let mut low = req(5, 0, 1);
        low.priority = 3;
        assert_eq!(
            r.try_route(&low, SimTime::ZERO, 1024),
            RouteOutcome::Shed(ShedReason::QueueFull)
        );
        // Priority 0 tolerates 4×2 µs = 8 µs: still admitted.
        let high = req(6, 0, 1);
        assert!(matches!(
            r.try_route(&high, SimTime::ZERO, 1024),
            RouteOutcome::Assigned(0)
        ));
    }
}
