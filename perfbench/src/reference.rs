//! Output checks: the image each served request should have produced,
//! built in-process through the server's own public constructors.

use beamforming::plan::PlanCache;
use beamforming::tof::tof_correct;
use bench::agent::{build_backend, image_checksum};
use serve::StreamSpec;
use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;
use tiny_vbf::config::TinyVbfConfig;
use tiny_vbf::model::TinyVbf;
use tiny_vbf::training::cube_row;
use ultrasound::{ChannelData, PlaneWave};

/// Largest absolute difference allowed between the served float rung's
/// (I, Q) samples and the independent `TinyVbf::infer_row` datapath. The two
/// run the same operations in a different order, so they agree to float
/// rounding; the outputs are `tanh`-bounded to [-1, 1].
pub const FLOAT_TOLERANCE: f32 = 1e-4;

/// Reference checksums for every `(stream, slot)` in `used`, computed as the
/// server computes them: the stream specs and seeded frame pools of
/// `bench::agent::build_streams`, the same backend factory, one beamform
/// per frame.
pub fn checksums(
    specs: &[StreamSpec],
    pools: &[Vec<ChannelData>],
    used: &BTreeSet<(usize, usize)>,
) -> Result<BTreeMap<(usize, usize), String>, String> {
    let shared_tof = Arc::new(PlanCache::new(4));
    let backends = specs
        .iter()
        .map(|spec| build_backend(&spec.backend, spec, &None, &shared_tof))
        .collect::<Result<Vec<_>, _>>()
        .map_err(|e| e.to_string())?;
    let mut sums = BTreeMap::new();
    for &(stream, slot) in used {
        let spec = &specs[stream];
        let image = backends[stream]
            .beamform(
                &pools[stream][slot],
                &spec.array,
                &spec.grid,
                spec.sound_speed,
            )
            .map_err(|e| format!("reference beamform: {e}"))?;
        sums.insert((stream, slot), image_checksum(&image));
    }
    Ok(sums)
}

/// Largest absolute difference between the float rung's served image of
/// `frame` and the same frame run through the direct ToF and the
/// training-layer `TinyVbf::infer_row` datapath.
pub fn float_deviation(spec: &StreamSpec, frame: &ChannelData) -> Result<f32, String> {
    let served = build_backend(&spec.backend, spec, &None, &Arc::new(PlanCache::new(1)))
        .map_err(|e| e.to_string())?
        .beamform(frame, &spec.array, &spec.grid, spec.sound_speed)
        .map_err(|e| format!("float beamform: {e}"))?
        .to_interleaved();
    // The serving factory's model configuration for this geometry.
    let model_config =
        TinyVbfConfig::small().for_frame(spec.array.num_elements(), spec.grid.num_cols());
    let mut model = TinyVbf::new(&model_config).map_err(|e| e.to_string())?;
    let mut cube = tof_correct(
        frame,
        &spec.array,
        &spec.grid,
        PlaneWave::zero_angle(),
        spec.sound_speed,
    )
    .map_err(|e| format!("direct ToF: {e}"))?;
    cube.normalize();
    let mut deviation = 0.0f32;
    for row in 0..cube.rows() {
        let out = model
            .infer_row(&cube_row(&cube, row))
            .map_err(|e| e.to_string())?;
        for col in 0..cube.cols() {
            let at = 2 * (row * cube.cols() + col);
            deviation = deviation
                .max((served[at] - out.at(col, 0)).abs())
                .max((served[at + 1] - out.at(col, 1)).abs());
        }
    }
    Ok(deviation)
}
