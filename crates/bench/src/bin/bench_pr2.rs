//! PR-2 serving-throughput benchmark: end-to-end frames/sec of the `serve`
//! micro-batching front-end at several offered loads and batch-size
//! configurations, against the serial per-frame baseline.
//!
//! Writes `BENCH_pr2.json` into the current directory. Run with
//! `cargo run --release -p bench --bin bench_pr2`; set `BENCH_PR2_FAST=1` (or the `BENCH_FAST=1` umbrella) for
//! a quicker smoke configuration. Every served image is asserted bitwise
//! identical to serial inference before any timing is reported.

use beamforming::grid::ImagingGrid;
use beamforming::iq::IqImage;
use beamforming::pipeline::Beamformer;
use quantize::QuantScheme;
use serve::service::beamform_server;
use serve::BatchConfig;
use std::fmt::Write as _;
use std::time::{Duration, Instant};
use tiny_vbf::config::TinyVbfConfig;
use tiny_vbf::model::TinyVbf;
use tiny_vbf::quantized::QuantizedTinyVbfBeamformer;
use ultrasound::{ChannelData, LinearArray, Medium, Phantom, PlaneWave, PlaneWaveSimulator};

struct LoadPoint {
    /// Offered load as inter-submit sleep; `None` = submit as fast as possible.
    interval: Option<Duration>,
    label: &'static str,
}

struct RunResult {
    achieved_fps: f64,
    mean_batch: f64,
    batches: u64,
    max_batch_observed: usize,
}

/// Pushes every frame through a fresh server at the given offered load and
/// returns throughput + batching statistics. Panics if any served image
/// differs from the serial reference.
fn run_config(
    beamformer: &QuantizedTinyVbfBeamformer,
    array: &LinearArray,
    grid: &ImagingGrid,
    sound_speed: f32,
    frames: &[ChannelData],
    reference: &[IqImage],
    max_batch: usize,
    load: &LoadPoint,
) -> RunResult {
    let config = BatchConfig {
        max_batch,
        linger: Duration::from_micros(500),
        queue_capacity: frames.len().max(1),
        workers: 1,
        ..BatchConfig::default()
    };
    let server = beamform_server(config, beamformer.clone(), array.clone(), grid.clone(), sound_speed);
    let start = Instant::now();
    let mut handles = Vec::with_capacity(frames.len());
    for frame in frames {
        if let Some(interval) = load.interval {
            std::thread::sleep(interval);
        }
        handles.push(server.submit(frame.clone()).expect("submit"));
    }
    let served: Vec<IqImage> = handles.into_iter().map(|h| h.wait().expect("wait")).collect();
    let elapsed = start.elapsed().as_secs_f64();
    let stats = server.shutdown();
    for (i, (a, b)) in reference.iter().zip(served.iter()).enumerate() {
        assert_eq!(a, b, "frame {i} served != serial (max_batch {max_batch}, load {})", load.label);
    }
    RunResult {
        achieved_fps: frames.len() as f64 / elapsed,
        mean_batch: stats.mean_batch(),
        batches: stats.batches,
        max_batch_observed: stats.max_batch_observed,
    }
}

fn main() {
    let fast = bench::report::fast_mode(2);
    let num_frames = if fast { 32 } else { 96 };
    let threads = runtime::default_threads();

    // Small-probe stream: one drifting point target per frame.
    let array = LinearArray::small_test_array();
    let grid = ImagingGrid::for_array(&array, 0.012, 0.012, if fast { 16 } else { 24 }, 16);
    let config = TinyVbfConfig::small().for_frame(array.num_elements(), grid.num_cols());
    let beamformer = QuantizedTinyVbfBeamformer::new(&TinyVbf::new(&config).expect("model"), QuantScheme::float());
    let sound_speed = Medium::soft_tissue().sound_speed();
    let simulator = PlaneWaveSimulator::new(array.clone(), Medium::soft_tissue(), 0.026);

    println!("simulating {num_frames} frames…");
    let frames: Vec<ChannelData> = (0..num_frames)
        .map(|i| {
            let x = -0.003 + 0.006 * (i as f32 / (num_frames - 1) as f32);
            let phantom = Phantom::builder(0.012, 0.026).seed(300 + i as u64).add_point_target(x, 0.018, 1.0).build();
            simulator.simulate(&phantom, PlaneWave::zero_angle()).expect("simulate")
        })
        .collect();

    // Serial per-frame baseline (also the bitwise reference for every config).
    let serial_start = Instant::now();
    let reference: Vec<IqImage> = frames
        .iter()
        .map(|frame| beamformer.beamform(frame, &array, &grid, sound_speed).expect("beamform"))
        .collect();
    let serial_fps = num_frames as f64 / serial_start.elapsed().as_secs_f64();
    println!("serial baseline: {serial_fps:.1} frames/sec");

    // Offered loads: saturating, and throttled near/below the serial rate.
    let loads = [
        LoadPoint { interval: None, label: "saturating" },
        LoadPoint { interval: Some(Duration::from_secs_f64(1.0 / serial_fps)), label: "at_serial_rate" },
        LoadPoint { interval: Some(Duration::from_secs_f64(2.0 / serial_fps)), label: "half_serial_rate" },
    ];
    let batch_sizes = [1usize, 4, 16];

    let mut entries = String::new();
    for max_batch in batch_sizes {
        for load in &loads {
            let result = run_config(&beamformer, &array, &grid, sound_speed, &frames, &reference, max_batch, load);
            println!(
                "max_batch {max_batch:>2} | load {:<16} | {:7.1} frames/sec | {} batches, mean {:.1}, largest {}",
                load.label, result.achieved_fps, result.batches, result.mean_batch, result.max_batch_observed
            );
            if !entries.is_empty() {
                entries.push_str(",\n");
            }
            write!(
                entries,
                r#"    {{
      "max_batch": {max_batch},
      "offered_load": "{}",
      "achieved_fps": {:.2},
      "batches": {},
      "mean_batch": {:.2},
      "max_batch_observed": {}
    }}"#,
                load.label, result.achieved_fps, result.batches, result.mean_batch, result.max_batch_observed
            )
            .expect("format entry");
        }
    }

    let json = format!(
        r#"{{
  "pr": 2,
  "threads": {threads},
  "frames": {num_frames},
  "grid": "{}x{}",
  "serial_fps": {serial_fps:.2},
  "configs": [
{entries}
  ]
}}
"#,
        grid.num_rows(),
        grid.num_cols(),
    );
    std::fs::write("BENCH_pr2.json", json).expect("write BENCH_pr2.json");
    println!("wrote BENCH_pr2.json");
}
