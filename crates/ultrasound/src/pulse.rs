//! Transmit pulse / two-way waveform model.
//!
//! Each scatterer echo is modelled as a Gaussian-modulated sinusoid — the standard
//! two-way waveform approximation used by Field II-style simulators. The pulse envelope
//! width is derived from the probe's fractional bandwidth.

use crate::transducer::LinearArray;
use std::f32::consts::PI;

/// A Gaussian-modulated sinusoidal pulse `exp(-t²/2σ²)·cos(2π f0 t + φ)`.
///
/// ```
/// use ultrasound::{LinearArray, Pulse};
/// let pulse = Pulse::from_array(&LinearArray::l11_5v());
/// // The pulse peaks at t = 0 and decays away from it.
/// assert!(pulse.evaluate(0.0).abs() > pulse.evaluate(pulse.half_duration()).abs());
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Pulse {
    center_frequency: f32,
    sigma: f32,
    phase: f32,
}

impl Pulse {
    /// Creates a pulse with an explicit centre frequency (Hz) and Gaussian width σ (s).
    ///
    /// # Panics
    ///
    /// Panics when the frequency or σ is non-positive.
    pub fn new(center_frequency: f32, sigma: f32, phase: f32) -> Self {
        assert!(center_frequency > 0.0, "Pulse: centre frequency must be positive");
        assert!(sigma > 0.0, "Pulse: sigma must be positive");
        Self { center_frequency, sigma, phase }
    }

    /// Derives the two-way pulse for a probe from its centre frequency and fractional
    /// bandwidth. The -6 dB fractional bandwidth `B` of a Gaussian envelope maps to
    /// `σ = sqrt(2 ln 2) / (π B f0)`.
    pub fn from_array(array: &LinearArray) -> Self {
        let f0 = array.center_frequency();
        let bw = array.fractional_bandwidth().max(0.05);
        let sigma = (2.0f32 * std::f32::consts::LN_2).sqrt() / (PI * bw * f0);
        Self { center_frequency: f0, sigma, phase: 0.0 }
    }

    /// Centre frequency in Hz.
    pub fn center_frequency(&self) -> f32 {
        self.center_frequency
    }

    /// Gaussian envelope standard deviation in seconds.
    pub fn sigma(&self) -> f32 {
        self.sigma
    }

    /// Evaluates the pulse at time `t` (seconds, centred on the pulse peak).
    pub fn evaluate(&self, t: f32) -> f32 {
        let envelope = (-(t * t) / (2.0 * self.sigma * self.sigma)).exp();
        envelope * (2.0 * PI * self.center_frequency * t + self.phase).cos()
    }

    /// Evaluates only the Gaussian envelope at time `t`.
    pub fn envelope(&self, t: f32) -> f32 {
        (-(t * t) / (2.0 * self.sigma * self.sigma)).exp()
    }

    /// Half-duration of the significant pulse support (±4σ covers > 99.99 % of the
    /// energy).
    pub fn half_duration(&self) -> f32 {
        4.0 * self.sigma
    }

    /// Number of samples covered by the significant support at sampling frequency `fs`.
    pub fn support_samples(&self, fs: f32) -> usize {
        (2.0 * self.half_duration() * fs).ceil() as usize + 1
    }

    /// Samples the pulse on a uniform grid of `n` samples centred on the peak.
    pub fn sample(&self, fs: f32, n: usize) -> Vec<f32> {
        let centre = (n as f32 - 1.0) / 2.0;
        (0..n).map(|i| self.evaluate((i as f32 - centre) / fs)).collect()
    }

    /// -6 dB fractional bandwidth implied by the envelope width.
    pub fn fractional_bandwidth(&self) -> f32 {
        (2.0f32 * std::f32::consts::LN_2).sqrt() / (PI * self.sigma * self.center_frequency)
    }
}

impl Default for Pulse {
    fn default() -> Self {
        Self::from_array(&LinearArray::l11_5v())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pulse_peaks_at_zero_and_decays() {
        let pulse = Pulse::default();
        let peak = pulse.evaluate(0.0).abs();
        assert!((peak - 1.0).abs() < 1e-6);
        assert!(pulse.evaluate(pulse.half_duration()).abs() < 1e-3);
        assert!(pulse.envelope(10.0 * pulse.sigma()) < 1e-6);
    }

    #[test]
    fn bandwidth_round_trips_through_sigma() {
        let array = LinearArray::l11_5v();
        let pulse = Pulse::from_array(&array);
        assert!((pulse.fractional_bandwidth() - array.fractional_bandwidth()).abs() < 1e-3);
    }

    #[test]
    fn sample_grid_is_symmetric() {
        let pulse = Pulse::default();
        let fs = 31.25e6;
        let n = 41;
        let samples = pulse.sample(fs, n);
        assert_eq!(samples.len(), n);
        // Envelope symmetry: |p(-t)| == |p(t)| for cos phase.
        for k in 0..n / 2 {
            assert!((samples[k].abs() - samples[n - 1 - k].abs()).abs() < 1e-4);
        }
    }

    #[test]
    fn support_samples_cover_pulse() {
        let pulse = Pulse::default();
        let fs = 31.25e6;
        let n = pulse.support_samples(fs);
        assert!(n > 8, "support {n}");
        let samples = pulse.sample(fs, n);
        assert!(samples[0].abs() < 1e-3);
        assert!(samples[n - 1].abs() < 1e-3);
    }

    #[test]
    fn oscillates_at_center_frequency() {
        let pulse = Pulse::new(5.0e6, 1.0e-6, 0.0);
        // Zero crossings of the carrier occur every half period = 100 ns.
        let quarter = 0.25 / 5.0e6;
        assert!(pulse.evaluate(quarter).abs() < 1e-3);
        assert!(pulse.evaluate(2.0 * quarter) < 0.0);
    }

    #[test]
    #[should_panic(expected = "sigma must be positive")]
    fn zero_sigma_panics() {
        let _ = Pulse::new(5.0e6, 0.0, 0.0);
    }

    #[test]
    #[should_panic(expected = "centre frequency must be positive")]
    fn zero_frequency_panics() {
        let _ = Pulse::new(0.0, 1e-6, 0.0);
    }
}
