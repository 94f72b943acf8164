//! Sampled channel data and acquisition settings.
//!
//! [`ChannelData`] is the raw RF tensor the whole pipeline consumes: `num_samples` time
//! samples by `num_channels` receive elements for one plane-wave transmission.

use crate::transducer::LinearArray;
use crate::{UltrasoundError, UltrasoundResult};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Acquisition timing/sampling settings for one plane-wave shot.
#[derive(Debug, Clone, PartialEq)]
pub struct AcquisitionConfig {
    /// Sampling frequency in Hz.
    pub sampling_frequency: f32,
    /// Number of time samples recorded per channel.
    pub num_samples: usize,
    /// Time of the first recorded sample relative to the transmit event, in seconds.
    pub start_time: f32,
}

impl AcquisitionConfig {
    /// Builds a configuration that covers depths up to `max_depth` metres (two-way) for
    /// the given probe and speed of sound.
    pub fn for_depth(array: &LinearArray, sound_speed: f32, max_depth: f32) -> Self {
        let fs = array.sampling_frequency();
        // Two-way travel to max depth plus slack for the farthest element and pulse tail.
        let t_max = 2.0 * max_depth / sound_speed + (array.aperture() / sound_speed) + 4.0e-6;
        Self {
            sampling_frequency: fs,
            num_samples: (t_max * fs).ceil() as usize,
            start_time: 0.0,
        }
    }

    /// Time of sample `k` relative to transmit, in seconds.
    pub fn sample_time(&self, k: usize) -> f32 {
        self.start_time + k as f32 / self.sampling_frequency
    }

    /// Fractional sample index corresponding to time `t`, which may be out of range.
    pub fn time_to_sample(&self, t: f32) -> f32 {
        (t - self.start_time) * self.sampling_frequency
    }

    /// Total acquisition duration in seconds.
    pub fn duration(&self) -> f32 {
        self.num_samples as f32 / self.sampling_frequency
    }

    /// Validates the configuration.
    ///
    /// # Errors
    ///
    /// Returns [`UltrasoundError::InvalidConfig`] when the sampling frequency or sample
    /// count is non-positive.
    pub fn validate(&self) -> UltrasoundResult<()> {
        if self.sampling_frequency <= 0.0 {
            return Err(UltrasoundError::InvalidConfig { field: "sampling_frequency", reason: "must be positive".into() });
        }
        if self.num_samples == 0 {
            return Err(UltrasoundError::InvalidConfig { field: "num_samples", reason: "must be nonzero".into() });
        }
        Ok(())
    }
}

/// Raw RF channel data for a single transmission: a dense `num_samples × num_channels`
/// matrix stored row-major (sample-major).
///
/// ```
/// use ultrasound::ChannelData;
/// let mut data = ChannelData::zeros(4, 2, 31.25e6);
/// *data.sample_mut(1, 0) = 3.0;
/// assert_eq!(data.sample(1, 0), 3.0);
/// assert_eq!(data.channel(0)[1], 3.0);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct ChannelData {
    samples: Vec<f32>,
    num_samples: usize,
    num_channels: usize,
    sampling_frequency: f32,
    start_time: f32,
}

impl ChannelData {
    /// Creates an all-zero container.
    ///
    /// # Panics
    ///
    /// Panics when either dimension is zero.
    pub fn zeros(num_samples: usize, num_channels: usize, sampling_frequency: f32) -> Self {
        assert!(num_samples > 0 && num_channels > 0, "ChannelData dimensions must be nonzero");
        Self {
            samples: vec![0.0; num_samples * num_channels],
            num_samples,
            num_channels,
            sampling_frequency,
            start_time: 0.0,
        }
    }

    /// Builds channel data from a flat sample-major vector.
    ///
    /// # Errors
    ///
    /// Returns [`UltrasoundError::ShapeMismatch`] when the vector length does not equal
    /// `num_samples * num_channels`.
    pub fn from_vec(
        samples: Vec<f32>,
        num_samples: usize,
        num_channels: usize,
        sampling_frequency: f32,
    ) -> UltrasoundResult<Self> {
        if samples.len() != num_samples * num_channels {
            return Err(UltrasoundError::ShapeMismatch { expected: num_samples * num_channels, actual: samples.len() });
        }
        Ok(Self { samples, num_samples, num_channels, sampling_frequency, start_time: 0.0 })
    }

    /// Number of time samples per channel.
    pub fn num_samples(&self) -> usize {
        self.num_samples
    }

    /// Number of receive channels.
    pub fn num_channels(&self) -> usize {
        self.num_channels
    }

    /// Sampling frequency in Hz.
    pub fn sampling_frequency(&self) -> f32 {
        self.sampling_frequency
    }

    /// Time of the first sample relative to transmit.
    pub fn start_time(&self) -> f32 {
        self.start_time
    }

    /// Sets the start time (seconds relative to transmit).
    pub fn set_start_time(&mut self, t: f32) {
        self.start_time = t;
    }

    /// Value of sample `k` on channel `ch`.
    ///
    /// # Panics
    ///
    /// Panics when either index is out of range.
    #[inline]
    pub fn sample(&self, k: usize, ch: usize) -> f32 {
        assert!(k < self.num_samples && ch < self.num_channels, "sample index out of range");
        self.samples[k * self.num_channels + ch]
    }

    /// Mutable access to sample `k` on channel `ch`.
    ///
    /// # Panics
    ///
    /// Panics when either index is out of range.
    #[inline]
    pub fn sample_mut(&mut self, k: usize, ch: usize) -> &mut f32 {
        assert!(k < self.num_samples && ch < self.num_channels, "sample index out of range");
        &mut self.samples[k * self.num_channels + ch]
    }

    /// Copies one channel's trace into a contiguous vector.
    pub fn channel(&self, ch: usize) -> Vec<f32> {
        assert!(ch < self.num_channels, "channel index out of range");
        (0..self.num_samples).map(|k| self.samples[k * self.num_channels + ch]).collect()
    }

    /// Copies all channels into a vector of traces (channel-major).
    pub fn to_channel_traces(&self) -> Vec<Vec<f32>> {
        (0..self.num_channels).map(|ch| self.channel(ch)).collect()
    }

    /// Builds channel data from channel-major traces.
    ///
    /// # Errors
    ///
    /// Returns [`UltrasoundError::ShapeMismatch`] when traces have unequal lengths and
    /// [`UltrasoundError::InvalidConfig`] when the input is empty.
    pub fn from_channel_traces(traces: &[Vec<f32>], sampling_frequency: f32) -> UltrasoundResult<Self> {
        if traces.is_empty() || traces[0].is_empty() {
            return Err(UltrasoundError::InvalidConfig { field: "traces", reason: "must contain at least one non-empty channel".into() });
        }
        let num_samples = traces[0].len();
        for t in traces {
            if t.len() != num_samples {
                return Err(UltrasoundError::ShapeMismatch { expected: num_samples, actual: t.len() });
            }
        }
        let num_channels = traces.len();
        let mut data = Self::zeros(num_samples, num_channels, sampling_frequency);
        for (ch, trace) in traces.iter().enumerate() {
            for (k, &v) in trace.iter().enumerate() {
                *data.sample_mut(k, ch) = v;
            }
        }
        Ok(data)
    }

    /// Flat sample-major view of the data.
    pub fn as_slice(&self) -> &[f32] {
        &self.samples
    }

    /// Mutable flat view.
    pub fn as_mut_slice(&mut self) -> &mut [f32] {
        &mut self.samples
    }

    /// Root-mean-square amplitude over all samples and channels.
    pub fn rms(&self) -> f32 {
        if self.samples.is_empty() {
            return 0.0;
        }
        (self.samples.iter().map(|v| v * v).sum::<f32>() / self.samples.len() as f32).sqrt()
    }

    /// Peak absolute amplitude.
    pub fn peak(&self) -> f32 {
        self.samples.iter().fold(0.0f32, |m, v| m.max(v.abs()))
    }

    /// Normalizes the data in place so the peak absolute amplitude is 1 (no-op when all
    /// samples are zero). Returns the scale factor applied.
    pub fn normalize_peak(&mut self) -> f32 {
        let peak = self.peak();
        if peak <= 0.0 {
            return 1.0;
        }
        let scale = 1.0 / peak;
        for v in self.samples.iter_mut() {
            *v *= scale;
        }
        scale
    }

    /// Adds zero-mean white Gaussian noise at the requested SNR (dB, relative to the
    /// current RMS). Deterministic for a given seed.
    pub fn add_white_noise(&mut self, snr_db: f32, seed: u64) {
        let signal_rms = self.rms();
        if signal_rms <= 0.0 {
            return;
        }
        let noise_rms = signal_rms / 10.0f32.powf(snr_db / 20.0);
        let mut rng = StdRng::seed_from_u64(seed);
        for v in self.samples.iter_mut() {
            // Box-Muller transform for a standard normal sample.
            let u1: f32 = rng.gen_range(1e-9..1.0f32);
            let u2: f32 = rng.gen_range(0.0..1.0f32);
            let g = (-2.0 * u1.ln()).sqrt() * (2.0 * std::f32::consts::PI * u2).cos();
            *v += noise_rms * g;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn config_for_depth_covers_two_way_travel() {
        let array = LinearArray::l11_5v();
        let cfg = AcquisitionConfig::for_depth(&array, 1540.0, 0.045);
        cfg.validate().unwrap();
        let needed = 2.0 * 0.045 / 1540.0;
        assert!(cfg.duration() > needed);
        assert!(cfg.num_samples > 1500);
    }

    #[test]
    fn config_time_mapping_round_trips() {
        let cfg = AcquisitionConfig { sampling_frequency: 31.25e6, num_samples: 100, start_time: 1e-6 };
        let t = cfg.sample_time(50);
        assert!((cfg.time_to_sample(t) - 50.0).abs() < 1e-3);
    }

    #[test]
    fn config_validation_rejects_bad_values() {
        assert!(AcquisitionConfig { sampling_frequency: 0.0, num_samples: 10, start_time: 0.0 }.validate().is_err());
        assert!(AcquisitionConfig { sampling_frequency: 1.0e6, num_samples: 0, start_time: 0.0 }.validate().is_err());
    }

    #[test]
    fn indexing_and_channel_extraction() {
        let mut d = ChannelData::zeros(3, 2, 1.0e6);
        *d.sample_mut(0, 0) = 1.0;
        *d.sample_mut(1, 1) = 2.0;
        *d.sample_mut(2, 0) = 3.0;
        assert_eq!(d.channel(0), vec![1.0, 0.0, 3.0]);
        assert_eq!(d.channel(1), vec![0.0, 2.0, 0.0]);
        assert_eq!(d.num_samples(), 3);
        assert_eq!(d.num_channels(), 2);
    }

    #[test]
    fn from_vec_checks_shape() {
        assert!(ChannelData::from_vec(vec![0.0; 6], 3, 2, 1.0).is_ok());
        assert!(matches!(
            ChannelData::from_vec(vec![0.0; 5], 3, 2, 1.0),
            Err(UltrasoundError::ShapeMismatch { expected: 6, actual: 5 })
        ));
    }

    #[test]
    fn channel_trace_round_trip() {
        let traces = vec![vec![1.0, 2.0, 3.0], vec![4.0, 5.0, 6.0]];
        let d = ChannelData::from_channel_traces(&traces, 1.0).unwrap();
        assert_eq!(d.to_channel_traces(), traces);
        assert!(ChannelData::from_channel_traces(&[], 1.0).is_err());
        assert!(ChannelData::from_channel_traces(&[vec![1.0], vec![1.0, 2.0]], 1.0).is_err());
    }

    #[test]
    fn rms_peak_and_normalization() {
        let mut d = ChannelData::from_vec(vec![0.0, -4.0, 3.0, 0.0], 2, 2, 1.0).unwrap();
        assert_eq!(d.peak(), 4.0);
        assert!((d.rms() - (25.0f32 / 4.0).sqrt()).abs() < 1e-6);
        let scale = d.normalize_peak();
        assert!((scale - 0.25).abs() < 1e-6);
        assert_eq!(d.peak(), 1.0);
    }

    #[test]
    fn normalize_all_zero_is_noop() {
        let mut d = ChannelData::zeros(2, 2, 1.0);
        assert_eq!(d.normalize_peak(), 1.0);
        assert_eq!(d.peak(), 0.0);
    }

    #[test]
    fn white_noise_hits_requested_snr() {
        let n = 20_000;
        let samples: Vec<f32> = (0..n).map(|i| (i as f32 * 0.3).sin()).collect();
        let mut d = ChannelData::from_vec(samples.clone(), n / 4, 4, 1.0).unwrap();
        let clean_rms = d.rms();
        d.add_white_noise(20.0, 7);
        // noise rms should be ~ clean_rms / 10
        let noise: Vec<f32> = d.as_slice().iter().zip(samples.iter()).map(|(a, b)| a - b).collect();
        let noise_rms = (noise.iter().map(|v| v * v).sum::<f32>() / n as f32).sqrt();
        assert!((noise_rms / clean_rms - 0.1).abs() < 0.02, "ratio {}", noise_rms / clean_rms);
    }

    #[test]
    fn white_noise_is_deterministic_per_seed() {
        let base = ChannelData::from_vec(vec![1.0; 64], 16, 4, 1.0).unwrap();
        let mut a = base.clone();
        let mut b = base.clone();
        let mut c = base;
        a.add_white_noise(10.0, 1);
        b.add_white_noise(10.0, 1);
        c.add_white_noise(10.0, 2);
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_sample_panics() {
        let d = ChannelData::zeros(2, 2, 1.0);
        let _ = d.sample(2, 0);
    }
}
