//! Accuracy against the paper: the simulated UPaRC_i and UPaRC_ii
//! bandwidths against Table III, through the same controller path and
//! workloads as the `table3` harness. The model is validated only
//! against Table III and the Fig. 7 power anchors; nothing here is held
//! out from calibration.

use uparc_bitstream::builder::PartialBitstream;
use uparc_bitstream::synth::SynthProfile;
use uparc_controllers::adapter::UparcController;
use uparc_controllers::ReconfigController;
use uparc_fpga::Device;

/// The band every harness in the repository treats as a regression.
pub const MAX_ERROR_PCT: f64 = 10.0;

/// Largest relative error, %, of UPaRC_i (1433 MB/s) and UPaRC_ii
/// (1008 MB/s) against Table III.
///
/// # Errors
///
/// A controller that cannot be built or fails to reconfigure.
pub fn table3_error_pct() -> Result<f64, String> {
    let device = Device::xc5vsx50t;
    let rows: [(Result<UparcController, _>, usize, f64); 2] = [
        (UparcController::uparc_i(device()), 247 * 1024, 1433.0),
        (UparcController::uparc_ii(device()), 216 * 1024, 1008.0),
    ];
    let mut worst = 0.0f64;
    for (ctrl, bytes, paper_mb_s) in rows {
        let mut ctrl = ctrl.map_err(|e| format!("building the controller: {e}"))?;
        let device = ctrl.icap().device().clone();
        let frames = (bytes / device.family().frame_bytes()) as u32;
        let payload = SynthProfile::dense().generate(&device, 0, frames, 42);
        let bs = PartialBitstream::build(&device, 0, &payload);
        let report = ctrl
            .reconfigure(&bs)
            .map_err(|e| format!("{} reconfiguration: {e}", ctrl.spec().name))?;
        worst = worst.max((report.bandwidth_mb_s() - paper_mb_s).abs() / paper_mb_s * 100.0);
    }
    Ok(worst)
}
