//! Calibrated operating-point tables.
//!
//! `PowerAwarePolicy::plan_constrained` rebuilds the DCM frequency grid
//! and re-derives time/power/energy predictions on every call — fine for
//! hundreds of requests, ruinous for millions. This module hoists all of
//! that out of the dispatch path: the grid is built once, per-frequency
//! power is tabulated once, and per bitstream *shape* (raw size ×
//! staging mode) the full Start→Finish latency is **measured** once per
//! grid frequency with a real cycle-accurate [`UParc`] dispatch (retune +
//! preload + transfer), not predicted. Selecting an operating point for
//! a request is then a binary search over the power table — and a test
//! pins the selection against `plan_constrained` for the same query.
//!
//! Per-entry facts sit in a dense vector: the chip loop resolves a
//! request's facts and group tables with one id lookup and reads every
//! table it needs through that resolved view.

use std::collections::BTreeMap;
use std::sync::Arc;

use uparc_core::cache::CacheKey;
use uparc_core::manager::ManagerConfig;
use uparc_core::policy::PowerAwarePolicy;
use uparc_core::uparc::{codec_id, UParc, COMPRESSED_MODE_MAX};
use uparc_serve::catalog::Catalog;
use uparc_serve::request::BitstreamId;
use uparc_sim::power::{calib, VfTable};
use uparc_sim::time::{Frequency, SimTime};

use crate::chip::fold_image;
use crate::FleetError;

/// Per-entry dispatch facts (precomputed so the hot loop never hashes or
/// re-derives them).
#[derive(Debug, Clone)]
pub struct EntryFacts {
    /// Index into the group tables.
    group: usize,
    /// Cache key of the staged compressed payload (None = raw staging,
    /// which bypasses the decompressed-image cache entirely).
    pub key: Option<CacheKey>,
    /// Decompressed image size in bytes (what the cache stores).
    pub image_bytes: usize,
    /// Transfer size in 32-bit words (mode word included), for
    /// throughput accounting.
    pub words: u64,
    /// [`fold_image`] of the decompressed image, taken once at setup
    /// (compressed staging only; 0 for raw staging, which folds
    /// nothing). Chips XOR it into their checksum on every staging and
    /// check every real decode against it.
    pub image_fold: u64,
}

/// One entry's facts resolved against its group's tables — everything a
/// dispatch reads, found with a single id lookup.
#[derive(Debug, Clone, Copy)]
pub(crate) struct EntryPlan<'a> {
    pub(crate) facts: &'a EntryFacts,
    group: &'a GroupTable,
    power_mw: &'a [f64],
}

impl EntryPlan<'_> {
    /// See [`PlanTables::select`].
    pub(crate) fn select(&self, cap_mw: f64) -> Option<usize> {
        let g = self.group;
        let fit = self.power_mw[..g.admissible].partition_point(|&p| p + g.extra_draw_mw <= cap_mw);
        fit.checked_sub(1)
    }

    /// See [`PlanTables::service`].
    pub(crate) fn service(&self, idx: usize) -> SimTime {
        self.group.service[idx]
    }

    /// See [`PlanTables::slowest_service`].
    pub(crate) fn slowest_service(&self) -> SimTime {
        self.group.service[0]
    }

    /// See [`PlanTables::energy_uj`].
    pub(crate) fn energy_uj(&self, idx: usize) -> f64 {
        self.group.energy_uj[idx]
    }

    /// See [`PlanTables::draw_above_idle_mw`].
    pub(crate) fn draw_above_idle_mw(&self, idx: usize) -> f64 {
        self.power_mw[idx] - calib::V6_IDLE_MW + self.group.extra_draw_mw
    }
}

/// Calibrated tables for one bitstream shape.
#[derive(Debug, Clone)]
struct GroupTable {
    /// `grid[..admissible]` respects the datapath frequency ceiling.
    admissible: usize,
    /// Measured Start→Finish latency per admissible grid index.
    service: Vec<SimTime>,
    /// Above-idle energy per dispatch per admissible grid index, µJ
    /// (decompressor draw included for compressed staging).
    energy_uj: Vec<f64>,
    /// Extra steady draw during the transfer (decompressor), mW.
    extra_draw_mw: f64,
}

/// The fleet's precomputed planning tables.
///
/// Each index is one *(V, f)* operating point. For the frequency-only
/// [`PlanTables::build`] every point sits on the nominal rail; for
/// [`PlanTables::build_vf`] the points are the Pareto frontier of the
/// rail × grid product — strictly ascending in both power and
/// frequency, so the binary-search cap admission of
/// [`PlanTables::select`] keeps working unchanged and automatically
/// picks undervolted points when they buy clock under a tight cap.
#[derive(Debug, Clone)]
pub struct PlanTables {
    /// Synthesizable CLK_2 targets in the fleet operating range,
    /// ascending.
    grid: Vec<Frequency>,
    /// Core voltage per grid index (all nominal for [`PlanTables::build`]).
    volts: Vec<f64>,
    /// Total core power (idle included, decompressor excluded) per grid
    /// index — strictly ascending, so cap admission is a binary search.
    power_mw: Vec<f64>,
    groups: Vec<GroupTable>,
    /// Calibrated ids, ascending; `entries[i]` belongs to `ids[i]`.
    ids: Vec<u32>,
    entries: Vec<EntryFacts>,
}

impl PlanTables {
    /// Builds and calibrates tables for every entry of `catalog`.
    ///
    /// The grid is restricted to `min_frequency` and up: the slowest
    /// grid point defines the per-chip power floor the rack budget must
    /// fund, so a rack-scale deployment declares the slowest clock it is
    /// willing to run rather than reserving budget for pathological
    /// 6 MHz operating points.
    ///
    /// # Errors
    ///
    /// [`FleetError::EmptyCatalog`] for an empty catalog and
    /// [`FleetError::NoAdmissibleFrequency`] if the operating range is
    /// empty or excludes some entry's datapath ceiling.
    pub fn build(
        catalog: &Catalog,
        planner: &PowerAwarePolicy,
        min_frequency: Frequency,
    ) -> Result<Self, FleetError> {
        // The single-rail table pins the analytic power model, so these
        // tables are bit-identical to the pre-DVFS construction.
        Self::build_vf(catalog, planner, min_frequency, &VfTable::nominal_only())
    }

    /// Builds tables over the Pareto frontier of `vf`'s rails crossed
    /// with the DCM grid.
    ///
    /// Per grid frequency the cheapest rail that admits it (lowest
    /// voltage with `fmax` at or above it) is kept; the surviving points
    /// are sorted by power and pruned to a strictly ascending
    /// power-and-frequency frontier. Spending more power therefore
    /// always buys a faster point, which is exactly the invariant
    /// [`PlanTables::select`]'s binary search needs. Rail ramps are not
    /// charged into these coarse rack-planning tables; the per-chip
    /// dispatch paths account for them.
    ///
    /// # Errors
    ///
    /// Same contract as [`PlanTables::build`].
    pub fn build_vf(
        catalog: &Catalog,
        planner: &PowerAwarePolicy,
        min_frequency: Frequency,
        vf: &VfTable,
    ) -> Result<Self, FleetError> {
        if catalog.is_empty() {
            return Err(FleetError::EmptyCatalog);
        }
        let planner = planner.clone().with_vf_table(vf.clone());
        let mut points: Vec<(f64, Frequency, f64)> = planner
            .frequency_grid()
            .into_iter()
            .filter(|&f| f >= min_frequency)
            .filter_map(|f| {
                let rail = vf.rails().iter().find(|r| r.fmax.is_none_or(|m| f <= m))?;
                Some((rail.volts, f, planner.predicted_power_vf_mw(rail.volts, f)))
            })
            .collect();
        points.sort_by(|a, b| a.2.total_cmp(&b.2).then(a.1.cmp(&b.1)));
        let mut grid = Vec::new();
        let mut volts = Vec::new();
        let mut power_mw = Vec::new();
        for (v, f, p) in points {
            if grid.last().is_some_and(|&g| f <= g) || power_mw.last().is_some_and(|&q| p <= q) {
                continue;
            }
            grid.push(f);
            volts.push(v);
            power_mw.push(p);
        }
        if grid.is_empty() {
            return Err(FleetError::NoAdmissibleFrequency);
        }
        let manager_mhz = ManagerConfig::default().clock.as_mhz();
        let codec = codec_id(catalog.algorithm());

        let mut tables = PlanTables {
            grid,
            volts,
            power_mw,
            groups: Vec::new(),
            ids: Vec::new(),
            entries: Vec::new(),
        };
        let mut group_of: BTreeMap<(usize, bool), usize> = BTreeMap::new();
        for id in catalog.ids() {
            let entry = catalog.entry(id).expect("listed id resolves");
            let shape = (entry.raw_bytes(), entry.compressed());
            let group = match group_of.get(&shape) {
                Some(&g) => g,
                None => {
                    let ceiling = entry
                        .compressed()
                        .then(|| Frequency::from_mhz(COMPRESSED_MODE_MAX));
                    let admissible = match ceiling {
                        Some(c) => tables.grid.partition_point(|&f| f <= c),
                        None => tables.grid.len(),
                    };
                    if admissible == 0 {
                        return Err(FleetError::NoAdmissibleFrequency);
                    }
                    let extra_draw_mw = if entry.compressed() {
                        calib::DECOMPRESSOR_MW_PER_MHZ * manager_mhz
                    } else {
                        0.0
                    };
                    let mut service = Vec::with_capacity(admissible);
                    let mut energy_uj = Vec::with_capacity(admissible);
                    for i in 0..admissible {
                        let f = tables.grid[i];
                        // A fresh scratch controller per point: no DCM
                        // relock residue, no warm decompressed cache.
                        // Voltage does not change the cycle count, so
                        // the latency measurement is rail-independent.
                        let mut scratch = UParc::builder(catalog.device().clone())
                            .bram_bytes(catalog.bram_bytes())
                            .decompressor(catalog.algorithm())
                            .decompressed_cache_bytes(0)
                            .build()
                            .expect("catalog algorithm has a hardware decompressor");
                        scratch
                            .set_reconfiguration_frequency(f)
                            .expect("grid frequency is synthesizable");
                        scratch
                            .reconfigure_bitstream(entry.bitstream(), entry.mode())
                            .expect("fault-free calibration dispatch");
                        let measured = scratch.now();
                        service.push(measured);
                        energy_uj.push(
                            planner.predicted_energy_vf_uj(
                                entry.raw_bytes(),
                                tables.volts[i],
                                f,
                                SimTime::ZERO,
                            ) + extra_draw_mw * measured.as_secs_f64() * 1e3,
                        );
                    }
                    let g = tables.groups.len();
                    tables.groups.push(GroupTable {
                        admissible,
                        service,
                        energy_uj,
                        extra_draw_mw,
                    });
                    group_of.insert(shape, g);
                    g
                }
            };
            let (key, image_bytes, image_fold) = match entry.packed_bytes() {
                Some(packed) => {
                    let image = catalog
                        .algorithm()
                        .codec()
                        .decompress(packed)
                        .expect("staged payload round-trips");
                    (
                        Some(CacheKey::of(codec, packed)),
                        image.len(),
                        fold_image(&image),
                    )
                }
                None => (None, entry.raw_bytes(), 0),
            };
            // `Catalog::ids` lists ids ascending, so pushing keeps `ids`
            // sorted for `index_of`'s binary search.
            debug_assert!(tables.ids.last().is_none_or(|&last| last < id.0));
            tables.ids.push(id.0);
            tables.entries.push(EntryFacts {
                group,
                key,
                image_bytes,
                words: (entry.raw_bytes() as u64).div_ceil(4) + 1,
                image_fold,
            });
        }
        Ok(tables)
    }

    /// The restricted frequency grid, ascending.
    #[must_use]
    pub fn grid(&self) -> &[Frequency] {
        &self.grid
    }

    /// Slot of `id` in `entries`. Catalogs usually number their entries
    /// densely, so the offset from the first id is tried before the
    /// binary search; neither costs memory in proportion to the ids.
    fn index_of(&self, id: BitstreamId) -> usize {
        let guess = id.0.wrapping_sub(self.ids[0]) as usize;
        if self.ids.get(guess) == Some(&id.0) {
            return guess;
        }
        self.ids.binary_search(&id.0).expect("id was calibrated")
    }

    /// `id`'s facts resolved against its group's tables.
    pub(crate) fn plan(&self, id: BitstreamId) -> EntryPlan<'_> {
        let facts = &self.entries[self.index_of(id)];
        EntryPlan {
            facts,
            group: &self.groups[facts.group],
            power_mw: &self.power_mw,
        }
    }

    /// Precomputed dispatch facts for `id`.
    ///
    /// # Panics
    ///
    /// Panics for an id the tables were not built over.
    #[must_use]
    pub fn facts(&self, id: BitstreamId) -> &EntryFacts {
        &self.entries[self.index_of(id)]
    }

    /// Fastest admissible grid index for `id` under a total-power cap of
    /// `cap_mw` (idle and decompressor draw included), or `None` if even
    /// the slowest point exceeds the cap.
    #[must_use]
    pub fn select(&self, id: BitstreamId, cap_mw: f64) -> Option<usize> {
        self.plan(id).select(cap_mw)
    }

    /// Measured Start→Finish latency of `id` at grid index `idx`.
    #[must_use]
    pub fn service(&self, id: BitstreamId, idx: usize) -> SimTime {
        self.plan(id).service(idx)
    }

    /// The slowest admissible point's latency for `id` — the
    /// conservative window dispatch planning spans epoch caps with.
    #[must_use]
    pub fn slowest_service(&self, id: BitstreamId) -> SimTime {
        self.plan(id).slowest_service()
    }

    /// Above-idle energy of one dispatch of `id` at grid index `idx`, µJ.
    #[must_use]
    pub fn energy_uj(&self, id: BitstreamId, idx: usize) -> f64 {
        self.plan(id).energy_uj(idx)
    }

    /// Above-idle draw of `id`'s transfer at grid index `idx`, mW
    /// (reconfiguration path plus decompressor).
    #[must_use]
    pub fn draw_above_idle_mw(&self, id: BitstreamId, idx: usize) -> f64 {
        self.plan(id).draw_above_idle_mw(idx)
    }

    /// The CLK_2 frequency at grid index `idx`.
    #[must_use]
    pub fn frequency(&self, idx: usize) -> Frequency {
        self.grid[idx]
    }

    /// The core voltage at grid index `idx` (nominal for tables built
    /// with [`PlanTables::build`]).
    #[must_use]
    pub fn volts_at(&self, idx: usize) -> f64 {
        self.volts[idx]
    }

    /// The per-chip above-idle power floor: the draw of the slowest grid
    /// point plus the largest decompressor surcharge any entry needs.
    /// A chip whose cap funds idle + this floor can always dispatch.
    #[must_use]
    pub fn floor_mw(&self) -> f64 {
        let extra = self
            .groups
            .iter()
            .map(|g| g.extra_draw_mw)
            .fold(0.0, f64::max);
        self.power_mw[0] - calib::V6_IDLE_MW + extra
    }

    /// A mid-grid service-time estimate for router load modeling.
    #[must_use]
    pub fn mean_service_estimate(&self) -> SimTime {
        let g = &self.groups[0];
        g.service[g.admissible / 2]
    }

    /// An owned copy of the decompressed image of `id` (compressed
    /// staging only). Used by tests; the chip loop decompresses inline.
    #[must_use]
    pub fn decompress_image(&self, catalog: &Catalog, id: BitstreamId) -> Option<Arc<Vec<u8>>> {
        let entry = catalog.entry(id)?;
        let packed = entry.packed_bytes()?;
        Some(Arc::new(
            catalog
                .algorithm()
                .codec()
                .decompress(packed)
                .expect("staged payload round-trips"),
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fleet::synthetic_catalog;

    #[test]
    fn build_keeps_the_pre_dvfs_nominal_tables() {
        let catalog = synthetic_catalog(2, 40, 9);
        let planner = PowerAwarePolicy::paper_setup(catalog.device().family());
        let min = Frequency::from_mhz(50.0);
        let tables = PlanTables::build(&catalog, &planner, min).unwrap();
        let expected: Vec<Frequency> = planner
            .frequency_grid()
            .into_iter()
            .filter(|&f| f >= min)
            .collect();
        assert_eq!(tables.grid(), expected.as_slice());
        for (i, &f) in expected.iter().enumerate() {
            assert_eq!(tables.volts_at(i), calib::V_NOM_V);
            // Bit-identical to the analytic model the pre-DVFS tables
            // were built from.
            assert_eq!(
                tables.power_mw[i].to_bits(),
                planner.predicted_power_mw(f).to_bits()
            );
        }
    }

    #[test]
    fn sparse_ids_resolve_and_record_their_image_fold() {
        use uparc_bitstream::builder::PartialBitstream;
        use uparc_bitstream::synth::SynthProfile;
        use uparc_fpga::Device;

        // Ids with gaps and a large outlier: the dense-offset guess
        // misses, and the binary search must still find every id.
        let device = Device::xc5vsx50t();
        let frames = 12;
        let bram = frames as usize * device.family().frame_bytes() / 2;
        let mut catalog = Catalog::new(device).with_bram_bytes(bram);
        catalog.add_region("pool", 100..100 + frames).unwrap();
        let ids = [3u32, 4, 9, 70_000];
        for (i, &id) in ids.iter().enumerate() {
            let payload = SynthProfile::sparse().generate(catalog.device(), 100, frames, i as u64);
            let bs = PartialBitstream::build(catalog.device(), 100, &payload);
            catalog.register(BitstreamId(id), bs).unwrap();
        }
        let planner = PowerAwarePolicy::paper_setup(catalog.device().family());
        let tables = PlanTables::build(&catalog, &planner, Frequency::from_mhz(50.0)).unwrap();
        for &id in &ids {
            let id = BitstreamId(id);
            let image = tables.decompress_image(&catalog, id).expect("compressed");
            let facts = tables.facts(id);
            assert_eq!(facts.image_bytes, image.len());
            assert_eq!(facts.image_fold, fold_image(&image));
            assert!(std::ptr::eq(tables.plan(id).facts, facts));
        }
    }

    #[test]
    fn vf_frontier_trades_voltage_for_clock_under_a_tight_cap() {
        let catalog = synthetic_catalog(2, 40, 9);
        let planner = PowerAwarePolicy::paper_setup(catalog.device().family());
        let min = Frequency::from_mhz(50.0);
        let nominal = PlanTables::build(&catalog, &planner, min).unwrap();
        let dvfs =
            PlanTables::build_vf(&catalog, &planner, min, &VfTable::voltune_virtex6()).unwrap();
        // The frontier is strictly ascending in both axes — the
        // invariant `select`'s binary search rests on.
        for w in dvfs.grid.windows(2) {
            assert!(w[0] < w[1]);
        }
        for w in dvfs.power_mw.windows(2) {
            assert!(w[0] < w[1]);
        }
        assert!(
            dvfs.volts.iter().any(|&v| v < calib::V_NOM_V),
            "the frontier must keep undervolted points"
        );
        // Under a cap that forces the nominal tables well below the
        // datapath ceiling, the undervolted frontier buys a faster
        // operating point without exceeding the cap.
        let id = BitstreamId(1);
        let cap = 430.0;
        let slow = nominal.select(id, cap).expect("cap admits a point");
        let fast = dvfs.select(id, cap).expect("cap admits a point");
        assert!(dvfs.frequency(fast) > nominal.frequency(slow));
        assert!(dvfs.volts_at(fast) < calib::V_NOM_V);
        assert!(dvfs.power_mw[fast] + dvfs.plan(id).group.extra_draw_mw <= cap);
        // Faster point, same image: the dispatch also finishes sooner.
        assert!(dvfs.service(id, fast) < nominal.service(id, slow));
    }
}
