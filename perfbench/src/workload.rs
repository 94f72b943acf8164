//! The benchmark's workloads: what the server is configured to serve and
//! how the client offers load.
//!
//! * `vbf_fp_paper` — the float Tiny-VBF rung at the paper geometry
//!   (128 channels, 368×128 grid, 1024 samples), closed loop with one frame
//!   in flight, like a scanner waiting for each image. Float inference
//!   dominates; ToF gather is the rest.
//! * `vbf_int_ladder` — the five fixed-point rungs as five round-robin
//!   streams at the same geometry and loop. The integer SIMD kernels do the
//!   work and the float path is bypassed; five engines share one ToF plan.
//! * `das_stream` — planned DAS on small frames, offered open loop on a
//!   fixed 500 frames/s clock, below the closed-loop capacity (one request
//!   in flight) of a 2-vCPU VM. Compute is ~0.14 ms, so wire, queue,
//!   linger, dispatch and reply hold most of the time: serving changes
//!   show here, model changes do not.

use bench::harness::{LoadModel, ScenarioConfig, StreamLoad};

/// How the client offers requests.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Load {
    /// One request in flight; the next is sent when the reply arrives.
    Closed,
    /// Requests due on a fixed clock, sent regardless of replies.
    Open {
        /// Offered frames per second.
        rate_hz: f64,
    },
}

/// One benchmark workload.
#[derive(Debug, Clone, Copy)]
pub struct Workload {
    /// Name on the command line and in `BENCHMARK.json`.
    pub name: &'static str,
    /// Backend label of each stream, offered round robin.
    pub backends: &'static [&'static str],
    /// Receive channels.
    pub channels: usize,
    /// Image grid rows (depth).
    pub rows: usize,
    /// Image grid columns (lateral pixels, the model's tokens).
    pub cols: usize,
    /// RF samples per channel.
    pub samples: usize,
    /// The load model.
    pub load: Load,
    /// Distinct frame-pool slots each stream draws from. Every served image
    /// is checked against an in-process reference, so this bounds the
    /// reference work on the paper-frame workloads.
    pub slots_per_stream: usize,
    /// Un-measured warm-up before the window opens, in milliseconds.
    pub warmup_ms: u64,
    /// Frames pushed through the in-process router and pipeline in a
    /// traced run.
    pub traced_frames: usize,
}

/// The fixed-point rungs of the ladder workload, best quality first.
pub const INT_RUNGS: [&str; 5] = [
    "tiny-vbf-fx24",
    "tiny-vbf-fx20",
    "tiny-vbf-fx16",
    "tiny-vbf-w8a20",
    "tiny-vbf-w8a16",
];

/// Every workload, in `BENCHMARK.json` order.
pub const WORKLOADS: [Workload; 3] = [
    Workload {
        name: "vbf_fp_paper",
        backends: &["tiny-vbf-fp"],
        channels: 128,
        rows: 368,
        cols: 128,
        samples: 1024,
        load: Load::Closed,
        slots_per_stream: 6,
        warmup_ms: 1_000,
        traced_frames: 8,
    },
    Workload {
        name: "vbf_int_ladder",
        backends: &INT_RUNGS,
        channels: 128,
        rows: 368,
        cols: 128,
        samples: 1024,
        load: Load::Closed,
        slots_per_stream: 2,
        warmup_ms: 1_500,
        traced_frames: 5,
    },
    Workload {
        name: "das_stream",
        backends: &["das-planned"],
        channels: 32,
        rows: 16,
        cols: 8,
        samples: 256,
        load: Load::Open { rate_hz: 500.0 },
        slots_per_stream: bench::agent::FRAME_POOL,
        warmup_ms: 500,
        traced_frames: 400,
    },
];

impl Workload {
    /// Looks a workload up by name.
    pub fn by_name(name: &str) -> Option<Workload> {
        WORKLOADS.iter().copied().find(|w| w.name == name)
    }

    /// Whether the workload runs a Tiny-VBF model (the paper frame).
    pub fn is_vbf(&self) -> bool {
        self.backends.iter().all(|b| b.starts_with("tiny-vbf-"))
    }

    /// The scenario the server is started with. Frame pools derive from the
    /// scenario seed, so the run seed fixes every frame served. Batching,
    /// linger and threads stay at the serving defaults.
    pub fn scenario(&self, seed: u64) -> ScenarioConfig {
        let mut config = ScenarioConfig::named(self.name);
        config.channels = self.channels;
        config.grid_rows = self.rows;
        config.grid_cols = self.cols;
        config.num_samples = self.samples;
        config.streams = self.backends.iter().map(|b| StreamLoad::new(*b)).collect();
        config.load = match self.load {
            Load::Closed => LoadModel::ClosedLoop { inflight: 1 },
            Load::Open { rate_hz } => LoadModel::OpenLoopPoisson { rate_hz },
        };
        config.seed = seed;
        config
    }

    /// The pool slots each stream draws from: the first
    /// [`Workload::slots_per_stream`] entries of a seeded shuffle.
    pub fn slots(&self, seed: u64) -> Vec<Vec<usize>> {
        let pool = bench::agent::FRAME_POOL;
        (0..self.backends.len())
            .map(|stream| {
                let mut rng =
                    SplitMix(seed ^ (stream as u64 + 1).wrapping_mul(0xA076_1D64_78BD_642F));
                let mut order: Vec<usize> = (0..pool).collect();
                for i in (1..pool).rev() {
                    order.swap(i, (rng.next() % (i as u64 + 1)) as usize);
                }
                order.truncate(self.slots_per_stream.min(pool));
                order
            })
            .collect()
    }
}

/// SplitMix64: a small seeded generator for request choices.
pub struct SplitMix(pub u64);

impl SplitMix {
    /// The next 64 random bits.
    pub fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scenarios_validate() {
        for workload in WORKLOADS {
            let config = workload.scenario(7);
            config
                .validate()
                .unwrap_or_else(|e| panic!("{}: {e}", workload.name));
            assert_eq!(config.streams.len(), workload.backends.len());
        }
    }

    #[test]
    fn slot_choice_is_seeded_distinct_and_in_range() {
        let workload = Workload::by_name("vbf_int_ladder").expect("ladder workload");
        let slots = workload.slots(11);
        assert_eq!(slots, workload.slots(11));
        assert_ne!(slots, workload.slots(12));
        assert_eq!(slots.len(), 5);
        for stream in &slots {
            assert_eq!(stream.len(), workload.slots_per_stream);
            assert!(stream.iter().all(|&s| s < bench::agent::FRAME_POOL));
            assert!(stream.windows(2).all(|w| w[0] != w[1]));
        }
    }
}
