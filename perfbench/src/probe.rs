//! The traced run's per-layer split.
//!
//! Spans are recorded here, in the benchmark, around calls into each
//! crate's public functions; nothing inside the program is instrumented.
//! Each traced frame is one span tree:
//!
//! ```text
//! frame
//! ├── serve      Router::submit → wait        (serve + beamforming + core)
//! ├── beamform   the backend's Beamformer::beamform on the same frame
//! └── pipeline   the same image, one public call per layer
//!     ├── tof    BeamformPlan::tof_correct     (Tiny-VBF)
//!     ├── rows   cube_row × rows               (Tiny-VBF)
//!     ├── infer  QuantizedTinyVbf::infer_row × rows  (Tiny-VBF)
//!     └── das    planned DAS                   (DAS)
//! ```
//!
//! A span's self time is its duration minus its children's (children of a
//! span run one after another). The wire's share comes from the served
//! load: client mean minus the server's own submit → response mean.

use crate::client::{LoadLog, ServerReport};
use crate::metrics::Metrics;
use crate::stats;
use crate::workload::Workload;
use accel::scheduler::Scheduler;
use beamforming::grid::ImagingGrid;
use beamforming::iq::IqImage;
use beamforming::pipeline::{Beamformer, DelayAndSum};
use beamforming::plan::{BeamformPlan, FrameFormat, PlanCache};
use bench::agent::{build_backend, build_router, build_streams, image_checksum, warm_streams};
use bench::harness::{synthetic_frame, ScenarioConfig};
use neural::activation::softmax_rows;
use neural::tensor::Tensor;
use quantize::QuantScheme;
use runtime::simd;
use std::hint::black_box;
use std::sync::Arc;
use std::time::{Duration, Instant};
use tiny_vbf::config::TinyVbfConfig;
use tiny_vbf::gops::{tiny_vbf_gops, PAPER_TINY_VBF_CPU_SECONDS, PAPER_TINY_VBF_GOPS};
use tiny_vbf::model::TinyVbf;
use tiny_vbf::quantized::QuantizedTinyVbf;
use tiny_vbf::training::cube_row;
use ultrasound::{ChannelData, LinearArray, PlaneWave};
use usdsp::Complex32;

/// The paper frame: 128 channels, 368 × 128 pixels, 1024 samples.
const PAPER: (usize, usize, usize, usize) = (128, 368, 128, 1024);

/// The served model's configuration at the paper frame (the serving
/// factory adapts `TinyVbfConfig::small()` to each stream's geometry).
fn paper_model_config() -> TinyVbfConfig {
    TinyVbfConfig::small().for_frame(PAPER.0, PAPER.2)
}

/// Every rung `core.*` reports, as (metric suffix, backend label).
const RUNGS: [(&str, &str); 6] = [
    ("fp", "tiny-vbf-fp"),
    ("fx24", "tiny-vbf-fx24"),
    ("fx20", "tiny-vbf-fx20"),
    ("fx16", "tiny-vbf-fx16"),
    ("w8a20", "tiny-vbf-w8a20"),
    ("w8a16", "tiny-vbf-w8a16"),
];

/// Repetitions of each whole-frame core probe; the median is reported.
const CORE_REPS: usize = 3;

/// A traced run's unattributed time may be at most this share of the
/// end-to-end mean for its spans to count as reconciled.
const MAX_UNATTRIBUTED_SHARE: f64 = 0.25;

/// One recorded span.
struct Span {
    name: String,
    parent: Option<usize>,
    start: Instant,
    end: Instant,
}

/// In-memory span recorder.
#[derive(Default)]
struct Tracer {
    spans: Vec<Span>,
}

impl Tracer {
    /// Runs `f` inside a span named `name` under `parent`; `f` gets the
    /// tracer and the new span's id for nesting.
    fn span<R>(
        &mut self,
        name: &str,
        parent: Option<usize>,
        f: impl FnOnce(&mut Tracer, usize) -> R,
    ) -> R {
        let id = self.spans.len();
        let now = Instant::now();
        self.spans.push(Span {
            name: name.to_string(),
            parent,
            start: now,
            end: now,
        });
        let out = f(self, id);
        self.spans[id].end = Instant::now();
        out
    }

    fn duration(&self, id: usize) -> Duration {
        self.spans[id].end - self.spans[id].start
    }

    fn self_time(&self, id: usize) -> Duration {
        let children: Duration = (0..self.spans.len())
            .filter(|&c| self.spans[c].parent == Some(id))
            .map(|c| self.duration(c))
            .sum();
        self.duration(id).saturating_sub(children)
    }

    fn ids<'a>(&'a self, name: &'a str) -> impl Iterator<Item = usize> + 'a {
        (0..self.spans.len()).filter(move |&id| self.spans[id].name == name)
    }

    /// Mean self time of the spans named `name`, in ms.
    fn mean_self_ms(&self, name: &str) -> f64 {
        stats::mean(
            &self
                .ids(name)
                .map(|id| self.self_time(id).as_secs_f64() * 1e3)
                .collect::<Vec<_>>(),
        )
    }

    /// Median duration of the spans named `name`, in ms.
    fn median_ms(&self, name: &str) -> f64 {
        stats::median(
            &self
                .ids(name)
                .map(|id| self.duration(id).as_secs_f64() * 1e3)
                .collect::<Vec<_>>(),
        )
    }

    /// Spans per root span, and the root spans' total duration.
    fn roots(&self) -> (usize, Duration) {
        let roots: Vec<usize> = (0..self.spans.len())
            .filter(|&id| self.spans[id].parent.is_none())
            .collect();
        (roots.len(), roots.iter().map(|&id| self.duration(id)).sum())
    }
}

/// Runs the in-process probes and fills every per-layer metric. Returns
/// whether the traced checks passed: no plan rebuilt after warm-up, the
/// pipeline decomposition reproduces the served image, and the layer self
/// times reconcile with the end-to-end mean.
pub fn trace(
    workload: &Workload,
    config: &ScenarioConfig,
    log: &LoadLog,
    server: &ServerReport,
    frames_per_s: f64,
    metrics: &mut Metrics,
) -> Result<bool, String> {
    let threads = runtime::default_threads();
    let mut tracer = Tracer::default();
    let (specs, pools) = build_streams(config);
    let spec0 = &specs[0];
    let format = FrameFormat::of(&pools[0][0]);

    // beamforming: a cold build of the plan this workload serves from.
    let plans = Arc::new(PlanCache::new(1));
    let serving_plan = tracer.span("plan_build", None, |_, _| {
        plans.get_or_build(
            &spec0.array,
            &spec0.grid,
            spec0.sound_speed,
            &format,
            || {
                if workload.is_vbf() {
                    BeamformPlan::for_tof(
                        &spec0.array,
                        &spec0.grid,
                        PlaneWave::zero_angle(),
                        spec0.sound_speed,
                        format,
                    )
                } else {
                    BeamformPlan::for_das(
                        &DelayAndSum::default(),
                        &spec0.array,
                        &spec0.grid,
                        spec0.sound_speed,
                        format,
                    )
                }
            },
        )
    });
    let serving_plan = serving_plan.map_err(|e| format!("plan build: {e}"))?;
    metrics.set("beamforming.plan_build_ms", tracer.median_ms("plan_build"));
    metrics.set(
        "beamforming.plan_mb",
        serving_plan.memory_bytes() as f64 / (1024.0 * 1024.0),
    );
    metrics.set(
        "beamforming.plan_entries",
        serving_plan.num_entries() as f64,
    );
    let tof_plan = if workload.is_vbf() {
        Arc::clone(&serving_plan)
    } else {
        Arc::new(
            BeamformPlan::for_tof(
                &spec0.array,
                &spec0.grid,
                PlaneWave::zero_angle(),
                spec0.sound_speed,
                format,
            )
            .map_err(|e| format!("ToF plan: {e}"))?,
        )
    };
    let das_plan = if workload.is_vbf() {
        Arc::new(
            BeamformPlan::for_das(
                &DelayAndSum::default(),
                &spec0.array,
                &spec0.grid,
                spec0.sound_speed,
                format,
            )
            .map_err(|e| format!("DAS plan: {e}"))?,
        )
    } else {
        Arc::clone(&serving_plan)
    };

    // serve: the same router the server builds, warmed the same way.
    let router = build_router(config)?;
    warm_streams(&router, &specs, &pools, 0..specs.len())?;
    let misses_warm = router.stats().plan_cache_total().misses;
    let direct: Vec<Arc<dyn Beamformer + Send + Sync>> = specs
        .iter()
        .map(|spec| build_backend(&spec.backend, spec, &None, &plans).map_err(|e| e.to_string()))
        .collect::<Result<_, _>>()?;
    for (backend, spec) in direct.iter().zip(&specs) {
        backend.prepare(&spec.array, &spec.grid, spec.sound_speed, &format);
    }
    let model_config =
        TinyVbfConfig::small().for_frame(spec0.array.num_elements(), spec0.grid.num_cols());
    let model = TinyVbf::new(&model_config).map_err(|e| e.to_string())?;
    let engines: Vec<Option<QuantizedTinyVbf>> = specs
        .iter()
        .map(|spec| {
            QuantScheme::from_backend_label(&spec.backend)
                .map(|s| QuantizedTinyVbf::from_model(&model, s))
        })
        .collect();

    let slots = workload.slots(config.seed);
    let mut decomposition_matches = true;
    for j in 0..workload.traced_frames {
        let stream = j % specs.len();
        let slot = slots[stream][(j / specs.len()) % slots[stream].len()];
        let (spec, frame) = (&specs[stream], &pools[stream][slot]);
        let (served, pipeline) = tracer.span(
            "frame",
            None,
            |t, f| -> Result<(IqImage, IqImage), String> {
                let served = t.span("serve", Some(f), |_, _| {
                    router
                        .submit(spec, frame.clone())
                        .map_err(|_| "router refused a frame".to_string())?
                        .wait()
                        .map_err(|e| format!("router: {e}"))
                })?;
                let direct_image = t.span("beamform", Some(f), |_, _| {
                    direct[stream].beamform(frame, &spec.array, &spec.grid, spec.sound_speed)
                });
                black_box(direct_image.map_err(|e| format!("direct beamform: {e}"))?);
                let pipeline = t.span("pipeline", Some(f), |t, p| match &engines[stream] {
                    Some(engine) => {
                        vbf_pipeline(t, p, &tof_plan, engine, frame, &spec.grid, threads)
                    }
                    None => t
                        .span("das", Some(p), |_, _| {
                            das_plan.beamform_iq_with_threads(frame, threads)
                        })
                        .map_err(|e| format!("planned DAS: {e}")),
                })?;
                Ok((served, pipeline))
            },
        )?;
        decomposition_matches &= image_checksum(&served) == image_checksum(&pipeline);
    }
    let misses_after_warm = router.stats().plan_cache_total().misses - misses_warm;
    drop(router);

    // The layer the workload does not exercise per frame, timed on its own.
    let other = if workload.is_vbf() { "das" } else { "tof" };
    for _ in 0..CORE_REPS {
        let frame = &pools[0][0];
        tracer
            .span(other, None, |_, _| {
                if workload.is_vbf() {
                    black_box(
                        das_plan
                            .beamform_iq_with_threads(frame, threads)
                            .map(|_| ()),
                    )
                } else {
                    black_box(tof_plan.tof_correct(frame).map(|_| ()))
                }
            })
            .map_err(|e| format!("{other} probe: {e}"))?;
    }
    drop((direct, das_plan, tof_plan, serving_plan, plans));

    // wire and serve, and how the spans account for the end-to-end mean.
    let all_latencies: Vec<f64> = (0..log.sent.len())
        .filter_map(|id| log.latency_ms(id))
        .collect();
    let wire_self = stats::mean(&all_latencies) - server.mean_ms();
    let serve_self =
        stats::mean(&spans_ms(&tracer, "serve")) - stats::mean(&spans_ms(&tracer, "beamform"));
    let measured: Vec<f64> = log.measured().filter_map(|id| log.latency_ms(id)).collect();
    let e2e_mean = stats::mean(&measured);
    let layer_names: &[&str] = if workload.is_vbf() {
        &["tof", "rows", "infer"]
    } else {
        &["das"]
    };
    let layers: Vec<(&str, f64)> = layer_names
        .iter()
        .map(|&n| (n, stats::mean(&spans_ms(&tracer, n))))
        .collect();
    let pipeline_self = tracer.mean_self_ms("pipeline");
    let attributed = wire_self + serve_self + layers.iter().map(|(_, ms)| ms).sum::<f64>();
    let unattributed = e2e_mean - attributed;
    let unattributed_share = unattributed / e2e_mean;
    let reconciled = unattributed_share.abs() <= MAX_UNATTRIBUTED_SHARE;
    metrics.set("wire.self_ms", wire_self);
    metrics.set("serve.self_ms", serve_self);
    metrics.set("serve.mean_batch", server.mean_batch());
    metrics.set(
        "beamforming.plan_cache_misses_after_warm",
        misses_after_warm as f64,
    );
    metrics.set("beamforming.tof_ms", stats::mean(&spans_ms(&tracer, "tof")));
    metrics.set("beamforming.das_ms", stats::mean(&spans_ms(&tracer, "das")));
    metrics.set("trace.unattributed_ms", unattributed);
    metrics.set("trace.unattributed_share", unattributed_share);
    metrics.set("trace.frames_per_s", frames_per_s);
    metrics.set("trace.requests", log.sent.len() as f64);

    eprintln!(
        "reconciliation of the end-to-end mean ({} measured requests, {} traced frames):",
        measured.len(),
        workload.traced_frames
    );
    eprintln!("  end-to-end mean         {e2e_mean:10.3} ms");
    eprintln!(
        "  (server mean {:.3} ms; in-process router {:.3} ms, direct beamform {:.3} ms, pipeline {:.3} ms)",
        server.mean_ms(),
        stats::mean(&spans_ms(&tracer, "serve")),
        stats::mean(&spans_ms(&tracer, "beamform")),
        stats::mean(&spans_ms(&tracer, "pipeline"))
    );
    eprintln!(
        "  wire self               {wire_self:10.3} ms   client mean − server submit→response mean"
    );
    eprintln!(
        "  serve self              {serve_self:10.3} ms   Router submit→wait − direct beamform"
    );
    for (name, ms) in &layers {
        eprintln!("  {name:<23} {ms:10.3} ms");
    }
    eprintln!("  unattributed            {unattributed:10.3} ms   ({:+.1}%; includes pipeline self {pipeline_self:.3} ms: normalize + IQ assembly) {}",
        unattributed_share * 100.0, if reconciled { "reconciled" } else { "NOT RECONCILED" });
    eprintln!(
        "  plan misses after warm-up {misses_after_warm}; pipeline reproduces served image: {decomposition_matches}; mean batch {:.3}",
        server.mean_batch()
    );

    core_probes(&mut tracer, metrics, threads)?;
    neural_probes(metrics, &paper_model_config())?;
    runtime_probes(metrics);

    // What the recorder itself costs, against the time it traced.
    let (roots, traced) = tracer.roots();
    let per_span = span_cost();
    let overhead = per_span * tracer.spans.len() as f64 / traced.as_secs_f64();
    metrics.set("trace.overhead_share", overhead);
    eprintln!(
        "trace: {} spans under {roots} roots; recorder cost {:.0} ns/span = {:.2e} of traced time; traced run {frames_per_s:.3} frames/s",
        tracer.spans.len(),
        per_span * 1e9,
        overhead
    );
    Ok(misses_after_warm == 0 && decomposition_matches && reconciled)
}

/// Durations in ms of every span named `name`.
fn spans_ms(tracer: &Tracer, name: &str) -> Vec<f64> {
    tracer
        .ids(name)
        .map(|id| tracer.duration(id).as_secs_f64() * 1e3)
        .collect()
}

/// The Tiny-VBF serving path, one public call per layer: planned ToF,
/// normalisation, row extraction, row inference over the default thread
/// budget, IQ assembly.
fn vbf_pipeline(
    t: &mut Tracer,
    parent: usize,
    plan: &BeamformPlan,
    engine: &QuantizedTinyVbf,
    frame: &ChannelData,
    grid: &ImagingGrid,
    threads: usize,
) -> Result<IqImage, String> {
    let mut cube = t
        .span("tof", Some(parent), |_, _| plan.tof_correct(frame))
        .map_err(|e| format!("ToF: {e}"))?;
    cube.normalize();
    let rows = t.span("rows", Some(parent), |_, _| {
        runtime::par_collect(cube.rows(), threads, |r| cube_row(&cube, r))
    });
    let outputs = t.span("infer", Some(parent), |_, _| {
        runtime::par_collect(rows.len(), threads, |r| engine.infer_row(&rows[r]))
    });
    let data = outputs
        .iter()
        .flat_map(|out| {
            (0..out.rows()).map(move |col| Complex32::new(out.at(col, 0), out.at(col, 1)))
        })
        .collect();
    IqImage::from_data(data, grid.clone()).map_err(|e| format!("IQ assembly: {e}"))
}

/// `core.*`: row extraction and every rung's inference over the paper
/// frame, on the default thread budget.
fn core_probes(tracer: &mut Tracer, metrics: &mut Metrics, threads: usize) -> Result<(), String> {
    let (channels, rows, cols, samples) = PAPER;
    let array = LinearArray::small_test_array().with_num_elements(channels);
    let grid = ImagingGrid::for_array(&array, 5.0e-3, 15.0e-3, rows, cols);
    let frame = synthetic_frame(&array, samples, 0x5EED);
    let plan = BeamformPlan::for_tof(
        &array,
        &grid,
        PlaneWave::zero_angle(),
        1540.0,
        FrameFormat::of(&frame),
    )
    .map_err(|e| format!("paper ToF plan: {e}"))?;
    let mut cube = plan
        .tof_correct(&frame)
        .map_err(|e| format!("paper ToF: {e}"))?;
    let gathers = plan.num_entries();
    drop(plan);
    cube.normalize();
    let mut row_tensors = Vec::new();
    for _ in 0..CORE_REPS {
        row_tensors = tracer.span("core.rows", None, |_, _| {
            runtime::par_collect(cube.rows(), threads, |r| cube_row(&cube, r))
        });
    }
    metrics.set("core.rows_ms", tracer.median_ms("core.rows"));

    let config = paper_model_config();
    let model = TinyVbf::new(&config).map_err(|e| e.to_string())?;
    let gops = tiny_vbf_gops(&config, rows, cols).gops_per_frame;
    metrics.set("core.gops_per_frame", gops);
    eprintln!(
        "core at the paper frame ({rows}×{cols}, {channels} channels, {threads} threads): {gops:.4} GOPs/frame and {gathers} ToF gathers/frame (paper: {PAPER_TINY_VBF_GOPS} GOPs/frame, {PAPER_TINY_VBF_CPU_SECONDS} s/frame on a CPU)"
    );
    for (suffix, label) in RUNGS {
        let scheme =
            QuantScheme::from_backend_label(label).ok_or_else(|| format!("no scheme `{label}`"))?;
        let engine = QuantizedTinyVbf::from_model(&model, scheme);
        let name = format!("core.infer.{suffix}");
        for _ in 0..CORE_REPS {
            tracer.span(&name, None, |_, _| {
                black_box(runtime::par_collect(row_tensors.len(), threads, |r| {
                    engine.infer_row(&row_tensors[r])
                }))
            });
        }
        let ms = tracer.median_ms(&name);
        metrics.set(&format!("core.infer_ms.{suffix}"), ms);
        metrics.set(&format!("core.gops_per_s.{suffix}"), gops / (ms / 1e3));
        eprintln!(
            "  {label:<15} infer {ms:9.2} ms/frame  {:7.3} GOP/s  {:5.2}× the paper's {:.0} ms",
            gops / (ms / 1e3),
            ms / (PAPER_TINY_VBF_CPU_SECONDS * 1e3),
            PAPER_TINY_VBF_CPU_SECONDS * 1e3
        );
    }
    eprintln!(
        "  cube_row × {rows}     {:9.2} ms/frame",
        tracer.median_ms("core.rows")
    );
    Ok(())
}

/// Deterministic tensor contents for the probes.
fn filled(rows: usize, cols: usize, seed: u64) -> Tensor {
    let mut t = Tensor::zeros(&[rows, cols]);
    let mut state = seed;
    for v in t.as_mut_slice() {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        *v = ((state >> 40) as f32 / (1u64 << 24) as f32) - 0.5;
    }
    t
}

/// Median wall time of one call of `f`, in µs, over `reps` timed batches
/// of `iters` calls.
fn per_call_us(reps: usize, iters: usize, mut f: impl FnMut()) -> f64 {
    let samples: Vec<f64> = (0..reps)
        .map(|_| {
            let start = Instant::now();
            for _ in 0..iters {
                f();
            }
            start.elapsed().as_secs_f64() * 1e6 / iters as f64
        })
        .collect();
    stats::median(&samples)
}

/// `neural.*`: each float-row op at its shape, single-threaded, times its
/// calls per frame; printed beside the accelerator's modelled cycle shares
/// under the ROADMAP stage names.
fn neural_probes(metrics: &mut Metrics, config: &TinyVbfConfig) -> Result<(), String> {
    let (tokens, channels, d) = (config.tokens, config.channels, config.model_dim);
    let (heads, blocks) = (config.num_heads, config.num_blocks);
    let head_dim = d / heads;
    let rows = PAPER.1;
    let matmul_us = |n: usize, k: usize, m: usize| {
        let (a, b) = (filled(n, k, 1), filled(k, m, 2));
        per_call_us(5, 40, || {
            black_box(a.matmul(&b));
        })
    };
    let scores = filled(tokens, tokens, 3);
    let softmax_us = per_call_us(5, 20, || {
        black_box(softmax_rows(&scores));
    });
    // (stage, µs per depth row)
    let stages: [(&str, f64); 7] = [
        ("encoder", matmul_us(tokens, channels, d)),
        ("qkv", (3 * blocks) as f64 * matmul_us(tokens, d, d)),
        (
            "scores",
            (heads * blocks) as f64 * matmul_us(tokens, head_dim, tokens),
        ),
        ("softmax", (heads * blocks) as f64 * softmax_us),
        (
            "attn_v",
            (heads * blocks) as f64 * matmul_us(tokens, tokens, head_dim)
                + blocks as f64 * matmul_us(tokens, d, d),
        ),
        (
            "mlp",
            blocks as f64
                * (matmul_us(tokens, d, config.mlp_dim) + matmul_us(tokens, config.mlp_dim, d)),
        ),
        (
            "decoder",
            matmul_us(tokens, d, config.decoder_dim) + matmul_us(tokens, config.decoder_dim, 2),
        ),
    ];
    let cycles = accel_shares(config)?;
    let cpu_total: f64 = stages.iter().map(|(_, us)| us).sum();
    eprintln!(
        "float row ops per frame ({rows} rows, one thread) beside the modelled FPGA cycle share:"
    );
    eprintln!(
        "  {:<8} {:>10} {:>9} {:>11}",
        "stage", "cpu ms", "cpu share", "fpga share"
    );
    for ((stage, us), (_, share)) in stages.iter().zip(&cycles) {
        let ms = us * rows as f64 / 1e3;
        metrics.set(&format!("neural.{stage}_ms"), ms);
        metrics.set(&format!("accel.cycle_share.{stage}"), *share);
        eprintln!("  {stage:<8} {ms:10.2} {:9.3} {share:11.3}", us / cpu_total);
    }
    Ok(())
}

/// `accel.cycle_share.*`: the share of a row's modelled cycles per stage.
/// The scheduler's "layer norm 1" feeds the Q/K/V projections and is
/// counted there; its "layer norm 2 + MLP" is the `mlp` stage.
fn accel_shares(config: &TinyVbfConfig) -> Result<Vec<(&'static str, f64)>, String> {
    const STAGES: [(&str, &[&str]); 7] = [
        ("encoder", &["encoder projection"]),
        ("qkv", &["layer norm 1", "Q/K/V projections"]),
        ("scores", &["attention scores"]),
        ("softmax", &["softmax"]),
        ("attn_v", &["attention output"]),
        ("mlp", &["layer norm 2 + MLP"]),
        ("decoder", &["decoder"]),
    ];
    let schedule = Scheduler::paper().row_schedule(config, &QuantScheme::float());
    let total: u64 = schedule.iter().map(|op| op.total()).sum();
    let stage_of = |name: &str| {
        STAGES
            .iter()
            .position(|(_, ops)| ops.iter().any(|op| name.ends_with(op)))
    };
    let mut cycles = [0u64; 7];
    for op in &schedule {
        let stage =
            stage_of(&op.name).ok_or_else(|| format!("scheduler op `{}` has no stage", op.name))?;
        cycles[stage] += op.total();
    }
    Ok(STAGES
        .iter()
        .zip(cycles)
        .map(|((stage, _), c)| (*stage, c as f64 / total as f64))
        .collect())
}

/// `runtime.*`: the SIMD kernels at paper shapes on the active tier.
fn runtime_probes(metrics: &mut Metrics) {
    let (channels, samples) = (PAPER.0, PAPER.3);
    let flat = filled(channels, samples, 4).as_slice().to_vec();
    let tap0: Vec<u32> = (0..channels)
        .map(|ch| (ch * samples + (ch * 7) % (samples - 2)) as u32)
        .collect();
    let tap1: Vec<u32> = tap0.iter().map(|t| t + 1).collect();
    let w0 = vec![0.25f32; channels];
    let w1 = vec![0.75f32; channels];
    let mut out = vec![0.0f32; channels];
    let gather = per_call_us(5, 20_000, || {
        simd::gather_two_tap(&flat, &tap0, &tap1, &w0, &w1, &mut out);
        black_box(&out);
    });
    let codes = |n: usize, seed: u64| -> Vec<i32> {
        filled(1, n, seed)
            .as_slice()
            .iter()
            .map(|v| (v * 40_000.0) as i32)
            .collect()
    };
    let (a_codes, b_codes) = (codes(channels, 5), codes(channels * channels, 6));
    let pair =
        |lo: i32, hi: i32| simd::pack_i16_pair(lo.clamp(-32767, 32767), hi.clamp(-32767, 32767));
    let a_pairs: Vec<i32> = (0..channels / 2)
        .map(|p| pair(a_codes[2 * p], a_codes[2 * p + 1]))
        .collect();
    let b_pairs: Vec<i32> = (0..channels / 2 * channels)
        .map(|i| {
            let (p, j) = (i / channels, i % channels);
            pair(
                b_codes[2 * p * channels + j],
                b_codes[(2 * p + 1) * channels + j],
            )
        })
        .collect();
    let madd = per_call_us(5, 20_000, || {
        let mut acc = vec![0i32; channels];
        simd::madd_block(&mut acc, &a_pairs, &b_pairs);
        black_box(&acc);
    });
    let mac = per_call_us(5, 5_000, || {
        let mut acc = vec![0i64; channels];
        simd::i64_mac_row(&mut acc, &a_codes, &b_codes);
        black_box(&acc);
    });
    metrics.set("runtime.madd_block_us", madd);
    metrics.set("runtime.i64_mac_row_us", mac);
    metrics.set("runtime.gather_two_tap_us", gather);
    eprintln!(
        "runtime kernels ({} tier): madd_block 64×{channels} {madd:.3} µs, i64_mac_row {channels}×{channels} {mac:.3} µs, gather_two_tap {channels} ch {gather:.3} µs",
        simd::mode().label()
    );
}

/// Cost of recording one (empty) span, in seconds.
fn span_cost() -> f64 {
    const N: usize = 20_000;
    let mut tracer = Tracer::default();
    let start = Instant::now();
    for _ in 0..N {
        tracer.span("cost", None, |_, _| ());
    }
    start.elapsed().as_secs_f64() / N as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children() {
        let mut tracer = Tracer::default();
        tracer.span("root", None, |t, root| {
            t.span("child", Some(root), |_, _| {
                std::thread::sleep(Duration::from_millis(5))
            });
            std::thread::sleep(Duration::from_millis(2));
        });
        let root = tracer.duration(0);
        let child = tracer.duration(1);
        assert!(child >= Duration::from_millis(5));
        assert_eq!(tracer.self_time(0), root - child);
        assert_eq!(tracer.self_time(1), child);
        assert_eq!(tracer.roots().0, 1);
    }

    #[test]
    fn every_scheduler_op_maps_to_a_stage_and_shares_sum_to_one() {
        let shares = accel_shares(&TinyVbfConfig::paper()).expect("all ops mapped");
        assert_eq!(shares.len(), 7);
        let total: f64 = shares.iter().map(|(_, s)| s).sum();
        assert!((total - 1.0).abs() < 1e-9, "{total}");
    }
}
