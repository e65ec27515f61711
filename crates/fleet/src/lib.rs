//! # uparc-fleet — rack-scale sharded UPaRC serving
//!
//! `uparc-serve` drives one chip; this crate drives a *rack*: N
//! independent simulated UPaRC devices served from one bitstream
//! catalog, millions of requests per run, under a rack-level power cap —
//! while staying bit-deterministic at any `UPARC_SWEEP_THREADS`.
//!
//! * [`workload`] — a counter-based request generator: request *i* is a
//!   pure function of `(seed, i)`, so any sharding of the index space
//!   reproduces the exact same per-request stream;
//! * [`router`] — the cross-chip request router: locality-aware (send a
//!   request to a chip whose decompressed-bitstream LRU already holds
//!   the image, with a load-aware spill fallback) or seeded-random
//!   baseline, with deterministic lowest-chip-id tie-breaks;
//! * [`budget`] — the hierarchical power budget: the rack cap is
//!   decomposed per rebalance epoch into per-chip caps proportional to
//!   routed demand, with a guaranteed per-chip dynamic floor so no chip
//!   ever starves;
//! * [`plan`] — calibrated operating-point tables: per distinct
//!   bitstream shape, the full Start→Finish latency is *measured* once
//!   per grid frequency on a real cycle-accurate [`uparc_core::UParc`]
//!   dispatch, then reused table-driven for millions of requests;
//! * [`chip`] — the per-chip simulation loop: FIFO service, table
//!   lookup under the epoch cap, a real [`uparc_core::cache::DecompCache`]
//!   per chip (misses run the actual codec), mergeable latency
//!   histograms;
//! * [`fleet`] — the orchestrator: sequential deterministic routing,
//!   cap scheduling, chip simulation fanned out over
//!   [`uparc_sim::sweep::parallel_map`], and an independent sweep over
//!   all transfer intervals that *verifies* the rack cap was never
//!   exceeded.
//!
//! # Architecture
//!
//! ```text
//!  (seed, i) ──> workload ──> router ──┬─> chip 0 queue ─┐
//!   pure fn      request i    locality │   chip 1 queue  │ parallel_map
//!                             or random├─> ...           ├─ (any worker
//!                                      │   chip N queue ─┘   count, same
//!                 per-epoch demand ────┘        │             bytes)
//!                        │                      v
//!                 rack cap ──> per-chip     table-driven dispatch
//!                 (budget)     epoch caps   + per-chip DecompCache
//!                                  │            │
//!                                  v            v
//!                           independent rack-cap verification sweep,
//!                           merged LogHistogram quantiles (p50…p999)
//! ```
//!
//! Determinism: routing and cap scheduling are sequential; chip
//! simulations are mutually independent and merged in chip order via the
//! order-preserving `parallel_map`, so a run is byte-identical at any
//! worker count (the `bench_fleet` harness asserts this by rendering the
//! outcome twice at 1 and 8 workers).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod budget;
pub mod chaos;
pub mod chip;
pub mod fleet;
pub mod health;
mod mintree;
pub mod plan;
pub mod router;
pub mod workload;

pub use budget::{CapSchedule, CapTimeline, EmergencyWindow, RackBudget};
pub use chaos::{ChaosPlan, ChaosSpec, ChipChaos};
pub use fleet::{synthetic_catalog, Fleet, FleetConfig, FleetOutcome};
pub use health::{ChipState, HealthConfig, HealthTimeline};
pub use plan::PlanTables;
pub use router::{RouteOutcome, RoutePolicy, Router, ShedReason};
pub use workload::{FleetRequest, FleetWorkloadSpec};

/// Errors the fleet layer can fail with.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum FleetError {
    /// The catalog holds no bitstreams to serve.
    EmptyCatalog,
    /// A fleet must have at least one chip.
    NoChips,
    /// The rack cap cannot fund every chip's idle draw plus the dynamic
    /// floor that keeps the slowest admissible operating point available.
    InfeasibleRackCap {
        /// Minimum rack cap the configuration needs, mW.
        required_mw: f64,
        /// The configured rack cap, mW.
        cap_mw: f64,
    },
    /// No synthesizable frequency survives the fleet's operating range
    /// (`min_frequency` up to the datapath ceiling).
    NoAdmissibleFrequency,
}

impl std::fmt::Display for FleetError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FleetError::EmptyCatalog => write!(f, "catalog holds no bitstreams"),
            FleetError::NoChips => write!(f, "fleet needs at least one chip"),
            FleetError::InfeasibleRackCap {
                required_mw,
                cap_mw,
            } => write!(
                f,
                "rack cap {cap_mw:.1} mW cannot fund idle + dynamic floor \
                 for every chip (needs at least {required_mw:.1} mW)"
            ),
            FleetError::NoAdmissibleFrequency => {
                write!(f, "no synthesizable frequency in the fleet operating range")
            }
        }
    }
}

impl std::error::Error for FleetError {}
