//! Axial / lateral resolution: full width at half maximum of the point-spread function
//! (Tables II and IV of the paper).

use crate::{MetricsError, MetricsResult};
use beamforming::ImagingGrid;

/// Axial and lateral −6 dB (half-amplitude) widths of a point target, in millimetres.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ResolutionMetrics {
    /// Axial FWHM in millimetres.
    pub axial_mm: f32,
    /// Lateral FWHM in millimetres.
    pub lateral_mm: f32,
}

impl ResolutionMetrics {
    /// Element-wise mean of several point-target measurements; `None` when empty.
    pub fn mean_of(metrics: &[ResolutionMetrics]) -> Option<ResolutionMetrics> {
        if metrics.is_empty() {
            return None;
        }
        let n = metrics.len() as f32;
        Some(ResolutionMetrics {
            axial_mm: metrics.iter().map(|m| m.axial_mm).sum::<f32>() / n,
            lateral_mm: metrics.iter().map(|m| m.lateral_mm).sum::<f32>() / n,
        })
    }
}

/// Half-size (in metres) of the search window around the nominal target position inside
/// which the actual envelope peak is located before measuring widths.
pub const SEARCH_WINDOW: f32 = 2.0e-3;

/// Measures the axial and lateral FWHM of the point target nearest `(target_x, target_z)`.
///
/// `envelope` is the row-major linear envelope on `grid`. The function first finds the
/// peak inside a ±[`SEARCH_WINDOW`] box around the nominal position, then measures the
/// half-maximum width of the axial and lateral profiles through that peak with linear
/// interpolation between pixels.
///
/// # Errors
///
/// Returns [`MetricsError::EmptyRegion`] when the search window contains no pixels and
/// [`MetricsError::Undefined`] when a profile never falls below half maximum inside the
/// grid (target too close to the edge).
pub fn resolution_metrics(
    envelope: &[f32],
    grid: &ImagingGrid,
    target_x: f32,
    target_z: f32,
) -> MetricsResult<ResolutionMetrics> {
    let cols = grid.num_cols();
    let rows = grid.num_rows();

    // Locate the actual peak inside the search window.
    let mut peak_row = usize::MAX;
    let mut peak_col = usize::MAX;
    let mut peak_value = f32::NEG_INFINITY;
    for row in 0..rows {
        let z = grid.z(row);
        if (z - target_z).abs() > SEARCH_WINDOW {
            continue;
        }
        for col in 0..cols {
            let x = grid.x(col);
            if (x - target_x).abs() > SEARCH_WINDOW {
                continue;
            }
            let v = envelope[row * cols + col];
            if v > peak_value {
                peak_value = v;
                peak_row = row;
                peak_col = col;
            }
        }
    }
    if peak_row == usize::MAX || peak_value <= 0.0 {
        return Err(MetricsError::EmptyRegion { which: "search window" });
    }

    let axial_profile: Vec<f32> = (0..rows).map(|r| envelope[r * cols + peak_col]).collect();
    let lateral_profile: Vec<f32> = (0..cols).map(|c| envelope[peak_row * cols + c]).collect();

    let axial_width_px = fwhm(&axial_profile, peak_row).ok_or_else(|| MetricsError::Undefined {
        reason: "axial profile never drops below half maximum".into(),
    })?;
    let lateral_width_px = fwhm(&lateral_profile, peak_col).ok_or_else(|| MetricsError::Undefined {
        reason: "lateral profile never drops below half maximum".into(),
    })?;

    Ok(ResolutionMetrics {
        axial_mm: axial_width_px * grid.axial_step() * 1e3,
        lateral_mm: lateral_width_px * grid.lateral_step() * 1e3,
    })
}

/// Full width at half maximum (in samples, possibly fractional) of a profile around the
/// peak at `peak_idx`. Returns `None` when the profile never crosses the half-maximum
/// level on either side.
pub fn fwhm(profile: &[f32], peak_idx: usize) -> Option<f32> {
    if profile.is_empty() || peak_idx >= profile.len() {
        return None;
    }
    let peak = profile[peak_idx];
    if peak <= 0.0 {
        return None;
    }
    let half = peak / 2.0;

    // Walk left.
    let mut left = None;
    for i in (0..peak_idx).rev() {
        if profile[i] <= half {
            let t = (profile[i + 1] - half) / (profile[i + 1] - profile[i]).max(1e-12);
            left = Some(i as f32 + (1.0 - t));
            break;
        }
    }
    // Walk right.
    let mut right = None;
    for i in peak_idx + 1..profile.len() {
        if profile[i] <= half {
            let t = (profile[i - 1] - half) / (profile[i - 1] - profile[i]).max(1e-12);
            right = Some((i - 1) as f32 + t);
            break;
        }
    }
    match (left, right) {
        (Some(l), Some(r)) => Some(r - l),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ultrasound::LinearArray;

    fn grid() -> ImagingGrid {
        ImagingGrid::for_array(&LinearArray::l11_5v(), 0.01, 0.02, 200, 100)
    }

    /// Gaussian blob envelope with the given axial / lateral standard deviations.
    fn gaussian_envelope(grid: &ImagingGrid, cx: f32, cz: f32, sigma_x: f32, sigma_z: f32) -> Vec<f32> {
        let mut out = vec![0.0f32; grid.num_pixels()];
        for row in 0..grid.num_rows() {
            for col in 0..grid.num_cols() {
                let dx = grid.x(col) - cx;
                let dz = grid.z(row) - cz;
                out[row * grid.num_cols() + col] =
                    (-(dx * dx) / (2.0 * sigma_x * sigma_x) - (dz * dz) / (2.0 * sigma_z * sigma_z)).exp();
            }
        }
        out
    }

    #[test]
    fn fwhm_of_triangle() {
        // Triangle peaking at index 5 with value 1.0 dropping by 0.2/sample: half max at
        // +-2.5 samples -> width 5.
        let profile: Vec<f32> = (0..11).map(|i| 1.0 - 0.2 * (i as f32 - 5.0).abs()).collect();
        let w = fwhm(&profile, 5).unwrap();
        assert!((w - 5.0).abs() < 1e-4, "w {w}");
    }

    #[test]
    fn fwhm_edge_cases() {
        assert!(fwhm(&[], 0).is_none());
        assert!(fwhm(&[1.0, 1.0, 1.0], 1).is_none()); // never drops below half
        assert!(fwhm(&[0.0, 0.0], 0).is_none()); // zero peak
        assert!(fwhm(&[1.0], 3).is_none()); // bad index
    }

    #[test]
    fn gaussian_width_matches_theory() {
        // FWHM of a Gaussian is 2.355 sigma.
        let g = grid();
        let sigma_x = 0.6e-3;
        let sigma_z = 0.25e-3;
        let envelope = gaussian_envelope(&g, 0.0, 0.02, sigma_x, sigma_z);
        let m = resolution_metrics(&envelope, &g, 0.0, 0.02).unwrap();
        assert!((m.lateral_mm - 2.355 * sigma_x * 1e3).abs() < 0.15, "lateral {}", m.lateral_mm);
        assert!((m.axial_mm - 2.355 * sigma_z * 1e3).abs() < 0.08, "axial {}", m.axial_mm);
    }

    #[test]
    fn narrower_blob_reports_better_resolution() {
        let g = grid();
        let wide = gaussian_envelope(&g, 0.0, 0.02, 0.8e-3, 0.4e-3);
        let narrow = gaussian_envelope(&g, 0.0, 0.02, 0.4e-3, 0.2e-3);
        let mw = resolution_metrics(&wide, &g, 0.0, 0.02).unwrap();
        let mn = resolution_metrics(&narrow, &g, 0.0, 0.02).unwrap();
        assert!(mn.lateral_mm < mw.lateral_mm);
        assert!(mn.axial_mm < mw.axial_mm);
    }

    #[test]
    fn peak_is_found_despite_position_offset() {
        // Nominal position off by 1 mm from the true blob centre: the search window
        // should still find the real peak.
        let g = grid();
        let envelope = gaussian_envelope(&g, 0.001, 0.021, 0.5e-3, 0.3e-3);
        let m = resolution_metrics(&envelope, &g, 0.0, 0.02).unwrap();
        assert!((m.lateral_mm - 2.355 * 0.5).abs() < 0.2);
    }

    #[test]
    fn empty_window_is_an_error() {
        let g = grid();
        let envelope = vec![0.0f32; g.num_pixels()];
        assert!(resolution_metrics(&envelope, &g, 0.0, 0.5).is_err());
        assert!(resolution_metrics(&envelope, &g, 0.0, 0.02).is_err());
    }

    #[test]
    fn mean_of_metrics() {
        let a = ResolutionMetrics { axial_mm: 0.3, lateral_mm: 0.5 };
        let b = ResolutionMetrics { axial_mm: 0.5, lateral_mm: 0.7 };
        let m = ResolutionMetrics::mean_of(&[a, b]).unwrap();
        assert!((m.axial_mm - 0.4).abs() < 1e-6);
        assert!((m.lateral_mm - 0.6).abs() < 1e-6);
        assert!(ResolutionMetrics::mean_of(&[]).is_none());
    }
}
