//! Linear-array transducer geometry.
//!
//! The paper acquires data with a Verasonics L11-5v probe: a 128-element linear array
//! with a centre frequency of 7.6 MHz sampled at 31.25 MHz. [`LinearArray::l11_5v`]
//! captures that geometry; other configurations can be built with
//! [`LinearArray::builder`].

use crate::{UltrasoundError, UltrasoundResult};

/// A 1-D linear transducer array lying along the x-axis at `z = 0`.
///
/// Element positions are centred on the origin so the imaging field of view is symmetric
/// about `x = 0`, matching the PICMUS conventions.
///
/// ```
/// use ultrasound::LinearArray;
/// let probe = LinearArray::l11_5v();
/// assert_eq!(probe.num_elements(), 128);
/// assert!((probe.aperture() - 127.0 * 0.3e-3).abs() < 1e-9);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct LinearArray {
    num_elements: usize,
    pitch: f32,
    element_width: f32,
    center_frequency: f32,
    fractional_bandwidth: f32,
    sampling_frequency: f32,
}

impl LinearArray {
    /// The L11-5v-like probe used throughout the paper: 128 elements, 0.3 mm pitch,
    /// 7.6 MHz centre frequency, 31.25 MHz sampling.
    pub fn l11_5v() -> Self {
        Self {
            num_elements: 128,
            pitch: 0.3e-3,
            element_width: 0.27e-3,
            center_frequency: 7.6e6,
            fractional_bandwidth: 0.77,
            sampling_frequency: 31.25e6,
        }
    }

    /// A reduced 32-element probe convenient for fast unit tests; same pitch and
    /// frequencies as [`LinearArray::l11_5v`].
    pub fn small_test_array() -> Self {
        Self { num_elements: 32, ..Self::l11_5v() }
    }

    /// Starts building a custom array.
    pub fn builder() -> LinearArrayBuilder {
        LinearArrayBuilder::default()
    }

    /// Number of transducer elements (receive channels).
    pub fn num_elements(&self) -> usize {
        self.num_elements
    }

    /// Element-to-element pitch in metres.
    pub fn pitch(&self) -> f32 {
        self.pitch
    }

    /// Width of a single element in metres.
    pub fn element_width(&self) -> f32 {
        self.element_width
    }

    /// Transmit centre frequency in Hz.
    pub fn center_frequency(&self) -> f32 {
        self.center_frequency
    }

    /// Fractional (−6 dB) bandwidth of the two-way response.
    pub fn fractional_bandwidth(&self) -> f32 {
        self.fractional_bandwidth
    }

    /// Acquisition sampling frequency in Hz.
    pub fn sampling_frequency(&self) -> f32 {
        self.sampling_frequency
    }

    /// Total aperture (first-to-last element centre distance) in metres.
    pub fn aperture(&self) -> f32 {
        (self.num_elements.saturating_sub(1)) as f32 * self.pitch
    }

    /// Lateral position of element `index` in metres.
    ///
    /// # Panics
    ///
    /// Panics when `index >= num_elements()`.
    pub fn element_x(&self, index: usize) -> f32 {
        assert!(index < self.num_elements, "element index {index} out of range");
        let centre = (self.num_elements as f32 - 1.0) / 2.0;
        (index as f32 - centre) * self.pitch
    }

    /// All element positions.
    pub fn element_positions(&self) -> Vec<f32> {
        (0..self.num_elements).map(|i| self.element_x(i)).collect()
    }

    /// Far-field element directivity for a plane wave arriving at `angle` radians from
    /// the element normal: `sinc(w/λ · sinθ) · cosθ`, clamped to be non-negative.
    pub fn directivity(&self, angle: f32, sound_speed: f32) -> f32 {
        let wavelength = sound_speed / self.center_frequency;
        let x = self.element_width / wavelength * angle.sin();
        let s = if x.abs() < 1e-6 { 1.0 } else { (std::f32::consts::PI * x).sin() / (std::f32::consts::PI * x) };
        (s * angle.cos()).max(0.0)
    }

    /// Returns a copy with a different element count (used to build reduced-size
    /// evaluation configurations).
    pub fn with_num_elements(&self, num_elements: usize) -> Self {
        Self { num_elements, ..self.clone() }
    }
}

impl Default for LinearArray {
    fn default() -> Self {
        Self::l11_5v()
    }
}

/// Builder for [`LinearArray`].
#[derive(Debug, Clone)]
pub struct LinearArrayBuilder {
    num_elements: usize,
    pitch: f32,
    element_width: f32,
    center_frequency: f32,
    fractional_bandwidth: f32,
    sampling_frequency: f32,
}

impl Default for LinearArrayBuilder {
    fn default() -> Self {
        let l11 = LinearArray::l11_5v();
        Self {
            num_elements: l11.num_elements,
            pitch: l11.pitch,
            element_width: l11.element_width,
            center_frequency: l11.center_frequency,
            fractional_bandwidth: l11.fractional_bandwidth,
            sampling_frequency: l11.sampling_frequency,
        }
    }
}

impl LinearArrayBuilder {
    /// Sets the number of elements.
    pub fn num_elements(mut self, n: usize) -> Self {
        self.num_elements = n;
        self
    }

    /// Sets the element pitch in metres.
    pub fn pitch(mut self, pitch: f32) -> Self {
        self.pitch = pitch;
        self
    }

    /// Sets the element width in metres.
    pub fn element_width(mut self, width: f32) -> Self {
        self.element_width = width;
        self
    }

    /// Sets the centre frequency in Hz.
    pub fn center_frequency(mut self, f0: f32) -> Self {
        self.center_frequency = f0;
        self
    }

    /// Sets the fractional bandwidth.
    pub fn fractional_bandwidth(mut self, bw: f32) -> Self {
        self.fractional_bandwidth = bw;
        self
    }

    /// Sets the sampling frequency in Hz.
    pub fn sampling_frequency(mut self, fs: f32) -> Self {
        self.sampling_frequency = fs;
        self
    }

    /// Validates the configuration and builds the array.
    ///
    /// # Errors
    ///
    /// Returns [`UltrasoundError::InvalidConfig`] when any dimension or frequency is
    /// non-positive, when the element width exceeds the pitch, or when the sampling
    /// frequency violates Nyquist for the centre frequency.
    pub fn build(self) -> UltrasoundResult<LinearArray> {
        if self.num_elements < 2 {
            return Err(UltrasoundError::InvalidConfig { field: "num_elements", reason: "need at least 2 elements".into() });
        }
        if self.pitch <= 0.0 {
            return Err(UltrasoundError::InvalidConfig { field: "pitch", reason: "must be positive".into() });
        }
        if self.element_width <= 0.0 || self.element_width > self.pitch {
            return Err(UltrasoundError::InvalidConfig { field: "element_width", reason: "must be positive and no larger than the pitch".into() });
        }
        if self.center_frequency <= 0.0 {
            return Err(UltrasoundError::InvalidConfig { field: "center_frequency", reason: "must be positive".into() });
        }
        if !(0.0..=2.0).contains(&self.fractional_bandwidth) || self.fractional_bandwidth == 0.0 {
            return Err(UltrasoundError::InvalidConfig { field: "fractional_bandwidth", reason: "must lie in (0, 2]".into() });
        }
        if self.sampling_frequency < 2.0 * self.center_frequency {
            return Err(UltrasoundError::InvalidConfig {
                field: "sampling_frequency",
                reason: format!("must be at least Nyquist (2 x {} Hz)", self.center_frequency),
            });
        }
        Ok(LinearArray {
            num_elements: self.num_elements,
            pitch: self.pitch,
            element_width: self.element_width,
            center_frequency: self.center_frequency,
            fractional_bandwidth: self.fractional_bandwidth,
            sampling_frequency: self.sampling_frequency,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn l11_5v_matches_paper_parameters() {
        let probe = LinearArray::l11_5v();
        assert_eq!(probe.num_elements(), 128);
        assert!((probe.center_frequency() - 7.6e6).abs() < 1.0);
        assert!((probe.sampling_frequency() - 31.25e6).abs() < 1.0);
        assert!((probe.pitch() - 0.3e-3).abs() < 1e-9);
    }

    #[test]
    fn element_positions_are_symmetric() {
        let probe = LinearArray::l11_5v();
        let xs = probe.element_positions();
        assert_eq!(xs.len(), 128);
        assert!((xs[0] + xs[127]).abs() < 1e-9);
        assert!((xs[64] - xs[63] - probe.pitch()).abs() < 1e-9);
        // Mean position is zero (centred aperture).
        let mean: f32 = xs.iter().sum::<f32>() / xs.len() as f32;
        assert!(mean.abs() < 1e-7);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn element_x_out_of_range_panics() {
        LinearArray::small_test_array().element_x(32);
    }

    #[test]
    fn directivity_peaks_at_normal_incidence() {
        let probe = LinearArray::l11_5v();
        let c = 1540.0;
        let normal = probe.directivity(0.0, c);
        assert!((normal - 1.0).abs() < 1e-6);
        assert!(probe.directivity(0.5, c) < normal);
        assert!(probe.directivity(1.3, c) < probe.directivity(0.5, c));
        assert!(probe.directivity(1.55, c) >= 0.0);
    }

    #[test]
    fn builder_accepts_valid_config() {
        let probe = LinearArray::builder()
            .num_elements(64)
            .pitch(0.2e-3)
            .element_width(0.18e-3)
            .center_frequency(5.0e6)
            .sampling_frequency(20.0e6)
            .fractional_bandwidth(0.6)
            .build()
            .unwrap();
        assert_eq!(probe.num_elements(), 64);
        assert!((probe.aperture() - 63.0 * 0.2e-3).abs() < 1e-9);
    }

    #[test]
    fn builder_rejects_invalid_configs() {
        assert!(LinearArray::builder().num_elements(1).build().is_err());
        assert!(LinearArray::builder().pitch(-1.0).build().is_err());
        assert!(LinearArray::builder().element_width(1.0).build().is_err());
        assert!(LinearArray::builder().center_frequency(-5.0).build().is_err());
        assert!(LinearArray::builder().fractional_bandwidth(0.0).build().is_err());
        assert!(LinearArray::builder().sampling_frequency(1.0e6).build().is_err());
    }

    #[test]
    fn with_num_elements_preserves_other_fields() {
        let probe = LinearArray::l11_5v().with_num_elements(32);
        assert_eq!(probe.num_elements(), 32);
        assert_eq!(probe.center_frequency(), LinearArray::l11_5v().center_frequency());
    }

    #[test]
    fn serde_round_trip() {
        let probe = LinearArray::l11_5v();
        // The Debug format stands in for structural stability.
        let text = format!("{probe:?}");
        assert!(text.contains("128"));
    }
}
