//! The paper's named quantization schemes (Table III).
//!
//! | Scheme   | Weights | Softmax | Mul/Add ops | Intermediate outputs |
//! |----------|---------|---------|-------------|----------------------|
//! | Float    | f32     | f32     | f32         | f32                  |
//! | 24 bits  | 24      | 24      | 24          | 24                   |
//! | 20 bits  | 20      | 20      | 20          | 20                   |
//! | 16 bits  | 16      | 16      | 16          | 16                   |
//! | Hybrid-1 | 8       | 24      | 20          | 20                   |
//! | Hybrid-2 | 8       | 24      | 16          | 16                   |

use crate::fixed::FixedFormat;

/// Which kind of tensor a quantization decision applies to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TensorRole {
    /// Trained weights and biases.
    Weight,
    /// Softmax inputs/outputs inside the attention blocks.
    Softmax,
    /// Multiply/accumulate results (matmul outputs before they are written back).
    MacResult,
    /// Intermediate activations stored between layers.
    Intermediate,
}

/// A complete quantization scheme: one (optional) fixed-point format per tensor role.
/// `None` means the role stays in 32-bit floating point.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct QuantScheme {
    /// Scheme name as used in the paper's tables.
    pub name: &'static str,
    /// Format for weights/biases.
    pub weights: Option<FixedFormat>,
    /// Format for softmax computation.
    pub softmax: Option<FixedFormat>,
    /// Format for multiply/accumulate results.
    pub mac: Option<FixedFormat>,
    /// Format for intermediate (inter-layer) activations.
    pub intermediate: Option<FixedFormat>,
}

impl QuantScheme {
    /// Full floating-point inference (the paper's "Float" column).
    pub fn float() -> Self {
        Self { name: "Float", weights: None, softmax: None, mac: None, intermediate: None }
    }

    /// Uniform 24-bit fixed point.
    pub fn w24() -> Self {
        Self::uniform("24 bits", 24)
    }

    /// Uniform 20-bit fixed point.
    pub fn w20() -> Self {
        Self::uniform("20 bits", 20)
    }

    /// Uniform 16-bit fixed point (the paper reports visible degradation here).
    pub fn w16() -> Self {
        Self::uniform("16 bits", 16)
    }

    /// Hybrid-1: 8-bit weights, 24-bit softmax, 20-bit MAC/intermediate (Table III).
    pub fn hybrid1() -> Self {
        Self {
            name: "Hybrid-1",
            weights: Some(FixedFormat::new(8, 6)),
            softmax: Some(FixedFormat::new(24, 20)),
            mac: Some(FixedFormat::new(20, 14)),
            intermediate: Some(FixedFormat::new(20, 14)),
        }
    }

    /// Hybrid-2: 8-bit weights, 24-bit softmax, 16-bit MAC/intermediate (Table III).
    pub fn hybrid2() -> Self {
        Self {
            name: "Hybrid-2",
            weights: Some(FixedFormat::new(8, 6)),
            softmax: Some(FixedFormat::new(24, 20)),
            mac: Some(FixedFormat::new(16, 10)),
            intermediate: Some(FixedFormat::new(16, 10)),
        }
    }

    fn uniform(name: &'static str, bits: u32) -> Self {
        // Keep a handful of integer bits for accumulator headroom; weights are small so
        // they get more fractional bits.
        let activation = FixedFormat::new(bits, bits - 6);
        let weight = FixedFormat::new(bits.min(18), bits.min(18) - 2);
        Self {
            name,
            weights: Some(weight),
            softmax: Some(activation),
            mac: Some(activation),
            intermediate: Some(activation),
        }
    }

    /// Every scheme evaluated in the paper, in table order.
    pub fn all() -> Vec<QuantScheme> {
        vec![Self::float(), Self::w24(), Self::w20(), Self::w16(), Self::hybrid1(), Self::hybrid2()]
    }

    /// The serving-router backend label for this scheme.
    ///
    /// Each paper scheme maps 1:1 to a label a `serve::router` engine factory
    /// can register quantized Tiny-VBF backends under: `fp` is floating
    /// point, `fxN` the uniform N-bit schemes and `w8aN` the hybrids (8-bit
    /// weights, N-bit datapath). A custom scheme (any scheme not equal —
    /// formats included — to a named Table III constructor) reports
    /// `"tiny-vbf-custom"` and is not round-trippable through
    /// [`QuantScheme::from_backend_label`].
    ///
    /// ```
    /// use quantize::QuantScheme;
    ///
    /// assert_eq!(QuantScheme::float().backend_label(), "tiny-vbf-fp");
    /// assert_eq!(QuantScheme::w16().backend_label(), "tiny-vbf-fx16");
    /// assert_eq!(QuantScheme::hybrid2().backend_label(), "tiny-vbf-w8a16");
    /// ```
    pub fn backend_label(&self) -> &'static str {
        // Match the whole scheme, not just the name: a hand-built scheme
        // reusing a paper name must not silently serve under (and be rebuilt
        // from) the paper scheme's label.
        Self::labeled()
            .into_iter()
            .find(|(scheme, _)| scheme == self)
            .map_or("tiny-vbf-custom", |(_, label)| label)
    }

    /// Resolves a serving backend label back to its scheme — the inverse of
    /// [`QuantScheme::backend_label`] over the named Table III schemes.
    ///
    /// Returns `None` for labels no paper scheme claims, which an engine
    /// factory should surface as an unknown-backend error.
    ///
    /// ```
    /// use quantize::QuantScheme;
    ///
    /// let scheme = QuantScheme::from_backend_label("tiny-vbf-w8a20").unwrap();
    /// assert_eq!(scheme, QuantScheme::hybrid1());
    /// assert!(QuantScheme::from_backend_label("tiny-vbf-int4").is_none());
    /// ```
    pub fn from_backend_label(label: &str) -> Option<QuantScheme> {
        Self::labeled().into_iter().find(|(_, l)| *l == label).map(|(scheme, _)| scheme)
    }

    fn labeled() -> [(QuantScheme, &'static str); 6] {
        [
            (Self::float(), "tiny-vbf-fp"),
            (Self::w24(), "tiny-vbf-fx24"),
            (Self::w20(), "tiny-vbf-fx20"),
            (Self::w16(), "tiny-vbf-fx16"),
            (Self::hybrid1(), "tiny-vbf-w8a20"),
            (Self::hybrid2(), "tiny-vbf-w8a16"),
        ]
    }

    /// The format assigned to a tensor role (`None` = floating point).
    pub fn format_for(&self, role: TensorRole) -> Option<FixedFormat> {
        match role {
            TensorRole::Weight => self.weights,
            TensorRole::Softmax => self.softmax,
            TensorRole::MacResult => self.mac,
            TensorRole::Intermediate => self.intermediate,
        }
    }

    /// Quantizes a scalar according to the role's format (identity for float roles).
    pub fn quantize_value(&self, value: f32, role: TensorRole) -> f32 {
        match self.format_for(role) {
            Some(format) => format.quantize(value),
            None => value,
        }
    }

    /// Whether the scheme is pure floating point.
    pub fn is_float(&self) -> bool {
        self.weights.is_none() && self.softmax.is_none() && self.mac.is_none() && self.intermediate.is_none()
    }

    /// Weight word length in bits (32 for floating point) — used by the FPGA resource
    /// model.
    pub fn weight_bits(&self) -> u32 {
        self.weights.map_or(32, |f| f.word_bits())
    }

    /// MAC/datapath word length in bits (32 for floating point).
    pub fn datapath_bits(&self) -> u32 {
        self.mac.map_or(32, |f| f.word_bits())
    }

    /// Softmax unit word length in bits (32 for floating point).
    pub fn softmax_bits(&self) -> u32 {
        self.softmax.map_or(32, |f| f.word_bits())
    }
}

impl Default for QuantScheme {
    fn default() -> Self {
        Self::float()
    }
}

impl std::fmt::Display for QuantScheme {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.name)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_iii_bit_widths() {
        let h1 = QuantScheme::hybrid1();
        assert_eq!(h1.weight_bits(), 8);
        assert_eq!(h1.softmax_bits(), 24);
        assert_eq!(h1.datapath_bits(), 20);
        assert_eq!(h1.format_for(TensorRole::Intermediate).unwrap().word_bits(), 20);

        let h2 = QuantScheme::hybrid2();
        assert_eq!(h2.weight_bits(), 8);
        assert_eq!(h2.softmax_bits(), 24);
        assert_eq!(h2.datapath_bits(), 16);
        assert_eq!(h2.format_for(TensorRole::Intermediate).unwrap().word_bits(), 16);
    }

    #[test]
    fn float_scheme_is_identity() {
        let f = QuantScheme::float();
        assert!(f.is_float());
        assert_eq!(f.quantize_value(0.12345678, TensorRole::Weight), 0.12345678);
        assert_eq!(f.weight_bits(), 32);
        assert_eq!(f.datapath_bits(), 32);
        assert_eq!(f.softmax_bits(), 32);
    }

    #[test]
    fn all_contains_six_schemes_in_table_order() {
        let all = QuantScheme::all();
        assert_eq!(all.len(), 6);
        let names: Vec<&str> = all.iter().map(|s| s.name).collect();
        assert_eq!(names, vec!["Float", "24 bits", "20 bits", "16 bits", "Hybrid-1", "Hybrid-2"]);
        assert_eq!(all[0], QuantScheme::default());
    }

    #[test]
    fn uniform_schemes_get_finer_with_more_bits() {
        let e16 = QuantScheme::w16().format_for(TensorRole::Intermediate).unwrap().resolution();
        let e20 = QuantScheme::w20().format_for(TensorRole::Intermediate).unwrap().resolution();
        let e24 = QuantScheme::w24().format_for(TensorRole::Intermediate).unwrap().resolution();
        assert!(e24 < e20 && e20 < e16);
    }

    #[test]
    fn quantize_value_respects_role() {
        let h2 = QuantScheme::hybrid2();
        let x = 0.333333;
        let weight_q = h2.quantize_value(x, TensorRole::Weight);
        let softmax_q = h2.quantize_value(x, TensorRole::Softmax);
        // Softmax keeps far more fractional bits than the 8-bit weights.
        assert!((softmax_q - x).abs() < (weight_q - x).abs());
    }

    #[test]
    fn backend_labels_round_trip_for_every_paper_scheme() {
        for scheme in QuantScheme::all() {
            let label = scheme.backend_label();
            assert!(label.starts_with("tiny-vbf-"), "{label}");
            assert_ne!(label, "tiny-vbf-custom", "{}: named schemes need distinct labels", scheme.name);
            assert_eq!(QuantScheme::from_backend_label(label), Some(scheme));
        }
        // Labels are distinct (1:1 mapping).
        let labels: Vec<&str> = QuantScheme::all().iter().map(|s| s.backend_label()).collect();
        let mut deduped = labels.clone();
        deduped.sort_unstable();
        deduped.dedup();
        assert_eq!(deduped.len(), labels.len());
        // Unknown labels and hand-built schemes fall out of the mapping.
        assert_eq!(QuantScheme::from_backend_label("das"), None);
        let custom = QuantScheme { name: "bespoke", ..QuantScheme::hybrid1() };
        assert_eq!(custom.backend_label(), "tiny-vbf-custom");
        assert_eq!(QuantScheme::from_backend_label("tiny-vbf-custom"), None);
        // A paper name over non-paper formats must not claim the paper label.
        let impostor = QuantScheme { name: "Float", ..QuantScheme::w16() };
        assert_eq!(impostor.backend_label(), "tiny-vbf-custom");
    }

    #[test]
    fn display_uses_paper_names() {
        assert_eq!(QuantScheme::hybrid1().to_string(), "Hybrid-1");
        assert_eq!(QuantScheme::w20().to_string(), "20 bits");
    }
}
