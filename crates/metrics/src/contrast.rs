//! Contrast metrics: CR, CNR and GCNR (Tables I and V of the paper).
//!
//! All three are computed from the linear envelope of the beamformed image, comparing
//! the pixel population inside an anechoic cyst against a surrounding speckle annulus:
//!
//! * `CR   = |20·log10(µ_in / µ_out)|` (dB),
//! * `CNR  = |µ_in − µ_out| / sqrt(σ_in² + σ_out²)`,
//! * `GCNR = 1 − overlap(hist_in, hist_out)`.

use crate::region::CircularRoi;
use crate::{MetricsError, MetricsResult};
use beamforming::ImagingGrid;
use usdsp::stats::{mean, std_dev, Histogram};

/// Contrast metrics of one cyst.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ContrastMetrics {
    /// Contrast ratio in dB (larger = darker cyst relative to speckle).
    pub cr_db: f32,
    /// Contrast-to-noise ratio (dimensionless).
    pub cnr: f32,
    /// Generalized CNR in `[0, 1]`.
    pub gcnr: f32,
}

impl ContrastMetrics {
    /// Element-wise mean of a set of per-cyst metrics; returns `None` for an empty set.
    pub fn mean_of(metrics: &[ContrastMetrics]) -> Option<ContrastMetrics> {
        if metrics.is_empty() {
            return None;
        }
        let n = metrics.len() as f32;
        Some(ContrastMetrics {
            cr_db: metrics.iter().map(|m| m.cr_db).sum::<f32>() / n,
            cnr: metrics.iter().map(|m| m.cnr).sum::<f32>() / n,
            gcnr: metrics.iter().map(|m| m.gcnr).sum::<f32>() / n,
        })
    }
}

/// Fraction of the cyst radius used for the inside region (keeps a safety margin from
/// the boundary, as in the PICMUS evaluation scripts).
pub const INSIDE_MARGIN: f32 = 0.8;
/// Inner radius of the background annulus, as a multiple of the cyst radius.
pub const BACKGROUND_INNER: f32 = 1.25;
/// Outer radius of the background annulus, as a multiple of the cyst radius.
pub const BACKGROUND_OUTER: f32 = 1.9;
/// Number of histogram bins used by the GCNR overlap estimate.
pub const GCNR_BINS: usize = 100;

/// Computes CR / CNR / GCNR for one anechoic cyst.
///
/// `envelope` is the row-major *linear* envelope of the beamformed image on `grid`;
/// `cyst` describes the true cyst position and radius.
///
/// # Errors
///
/// Returns [`MetricsError::EmptyRegion`] when either the inside or the background region
/// contains no pixels (grid too coarse or cyst outside the field of view).
pub fn contrast_metrics(envelope: &[f32], grid: &ImagingGrid, cyst: CircularRoi) -> MetricsResult<ContrastMetrics> {
    let inside_roi = CircularRoi::new(cyst.cx, cyst.cz, cyst.radius * INSIDE_MARGIN);
    let background_roi = cyst.annulus(cyst.radius * BACKGROUND_INNER, cyst.radius * BACKGROUND_OUTER);
    let inside = inside_roi.collect_pixels(envelope, grid);
    let background = background_roi.collect_pixels(envelope, grid);
    if inside.is_empty() {
        return Err(MetricsError::EmptyRegion { which: "inside" });
    }
    if background.is_empty() {
        return Err(MetricsError::EmptyRegion { which: "background" });
    }

    let mu_in = mean(&inside).max(1e-12);
    let mu_out = mean(&background).max(1e-12);
    let cr_db = (20.0 * (mu_in / mu_out).log10()).abs();

    let sigma_in = std_dev(&inside);
    let sigma_out = std_dev(&background);
    let denom = (sigma_in * sigma_in + sigma_out * sigma_out).sqrt().max(1e-12);
    let cnr = (mu_in - mu_out).abs() / denom;

    let hi = inside
        .iter()
        .chain(background.iter())
        .fold(0.0f32, |m, &v| m.max(v))
        .max(1e-12);
    let hist_in = Histogram::from_values(&inside, GCNR_BINS, 0.0, hi);
    let hist_out = Histogram::from_values(&background, GCNR_BINS, 0.0, hi);
    let gcnr = (1.0 - hist_in.overlap(&hist_out)).clamp(0.0, 1.0);

    Ok(ContrastMetrics { cr_db, cnr, gcnr })
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use ultrasound::LinearArray;

    fn grid() -> ImagingGrid {
        ImagingGrid::for_array(&LinearArray::l11_5v(), 0.005, 0.035, 180, 96)
    }

    /// Builds a synthetic envelope image: Rayleigh-like speckle outside the cyst, a
    /// fraction `inside_level` of that inside.
    fn synthetic_envelope(grid: &ImagingGrid, cyst: CircularRoi, inside_level: f32, seed: u64) -> Vec<f32> {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut out = vec![0.0f32; grid.num_pixels()];
        for row in 0..grid.num_rows() {
            for col in 0..grid.num_cols() {
                let u: f32 = rng.gen_range(1e-6..1.0);
                let speckle = (-2.0 * u.ln()).sqrt(); // Rayleigh(1)
                let value = if cyst.contains(grid.x(col), grid.z(row)) { inside_level * speckle } else { speckle };
                out[row * grid.num_cols() + col] = value;
            }
        }
        out
    }

    #[test]
    fn perfect_anechoic_cyst_has_high_contrast() {
        let g = grid();
        let cyst = CircularRoi::new(0.0, 0.02, 0.004);
        let envelope = synthetic_envelope(&g, cyst, 0.01, 1);
        let m = contrast_metrics(&envelope, &g, cyst).unwrap();
        assert!(m.cr_db > 30.0, "cr {}", m.cr_db);
        assert!(m.gcnr > 0.9, "gcnr {}", m.gcnr);
        assert!(m.cnr > 1.0, "cnr {}", m.cnr);
    }

    #[test]
    fn no_contrast_when_inside_matches_background() {
        let g = grid();
        let cyst = CircularRoi::new(0.0, 0.02, 0.004);
        let envelope = synthetic_envelope(&g, cyst, 1.0, 2);
        let m = contrast_metrics(&envelope, &g, cyst).unwrap();
        assert!(m.cr_db < 1.5, "cr {}", m.cr_db);
        // With finite sample counts the histogram overlap estimate leaves a small
        // residual GCNR even for identical distributions.
        assert!(m.gcnr < 0.35, "gcnr {}", m.gcnr);
        assert!(m.cnr < 0.3, "cnr {}", m.cnr);
    }

    #[test]
    fn metrics_order_follows_suppression_level() {
        // A better beamformer suppresses the cyst interior more; CR and GCNR should
        // increase monotonically as the interior level decreases.
        let g = grid();
        let cyst = CircularRoi::new(0.0, 0.025, 0.004);
        let weak = contrast_metrics(&synthetic_envelope(&g, cyst, 0.5, 3), &g, cyst).unwrap();
        let strong = contrast_metrics(&synthetic_envelope(&g, cyst, 0.1, 3), &g, cyst).unwrap();
        assert!(strong.cr_db > weak.cr_db);
        assert!(strong.gcnr > weak.gcnr);
    }

    #[test]
    fn realistic_levels_give_paper_magnitude_cr() {
        // DAS on single-angle data leaves the cyst at roughly -12 to -18 dB relative to
        // the speckle; the CR metric should land in the paper's 10-20 dB range.
        let g = grid();
        let cyst = CircularRoi::new(0.0, 0.02, 0.004);
        let envelope = synthetic_envelope(&g, cyst, 0.2, 5);
        let m = contrast_metrics(&envelope, &g, cyst).unwrap();
        assert!(m.cr_db > 8.0 && m.cr_db < 22.0, "cr {}", m.cr_db);
        assert!(m.gcnr > 0.5 && m.gcnr <= 1.0, "gcnr {}", m.gcnr);
    }

    #[test]
    fn cyst_outside_grid_is_an_error() {
        let g = grid();
        let cyst = CircularRoi::new(0.5, 0.5, 0.004);
        assert!(matches!(
            contrast_metrics(&vec![1.0; g.num_pixels()], &g, cyst),
            Err(MetricsError::EmptyRegion { .. })
        ));
    }

    #[test]
    fn mean_of_metrics() {
        let a = ContrastMetrics { cr_db: 10.0, cnr: 1.0, gcnr: 0.8 };
        let b = ContrastMetrics { cr_db: 20.0, cnr: 3.0, gcnr: 0.6 };
        let m = ContrastMetrics::mean_of(&[a, b]).unwrap();
        assert_eq!(m.cr_db, 15.0);
        assert_eq!(m.cnr, 2.0);
        assert!((m.gcnr - 0.7).abs() < 1e-6);
        assert!(ContrastMetrics::mean_of(&[]).is_none());
    }
}
