//! Imaging pixel grid.
//!
//! The paper reconstructs 368 (axial) × 128 (lateral) pixel frames. [`ImagingGrid`]
//! stores the physical coordinates of every pixel; pixel `(row, col)` sits at depth
//! `z[row]` and lateral position `x[col]`.

use crate::{BeamformError, BeamformResult};
use ultrasound::LinearArray;

/// Axial depth rows and lateral columns of the reconstruction grid.
///
/// ```
/// use beamforming::ImagingGrid;
/// use ultrasound::LinearArray;
/// let grid = ImagingGrid::paper_default(&LinearArray::l11_5v());
/// assert_eq!(grid.num_rows(), 368);
/// assert_eq!(grid.num_cols(), 128);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct ImagingGrid {
    z_positions: Vec<f32>,
    x_positions: Vec<f32>,
}

impl ImagingGrid {
    /// Builds a grid from explicit pixel coordinates.
    ///
    /// # Errors
    ///
    /// Returns [`BeamformError::InvalidParameter`] when either axis is empty or not
    /// strictly increasing.
    pub fn new(z_positions: Vec<f32>, x_positions: Vec<f32>) -> BeamformResult<Self> {
        if z_positions.is_empty() || x_positions.is_empty() {
            return Err(BeamformError::InvalidParameter { name: "grid", reason: "axes must be non-empty".into() });
        }
        let strictly_increasing = |v: &[f32]| v.windows(2).all(|w| w[1] > w[0]);
        if !strictly_increasing(&z_positions) || !strictly_increasing(&x_positions) {
            return Err(BeamformError::InvalidParameter { name: "grid", reason: "axes must be strictly increasing".into() });
        }
        Ok(Self { z_positions, x_positions })
    }

    /// Builds a uniform grid covering depths `[z_min, z_min + depth_extent]` and the
    /// probe's lateral aperture, with `rows × cols` pixels.
    pub fn for_array(array: &LinearArray, z_min: f32, depth_extent: f32, rows: usize, cols: usize) -> Self {
        let z_max = z_min + depth_extent;
        let half_width = array.aperture() / 2.0;
        let z_positions = linspace(z_min, z_max, rows);
        let x_positions = linspace(-half_width, half_width, cols);
        Self { z_positions, x_positions }
    }

    /// The paper's 368 × 128 grid spanning 5–45 mm depth over the full aperture.
    pub fn paper_default(array: &LinearArray) -> Self {
        Self::for_array(array, 5.0e-3, 40.0e-3, 368, 128)
    }

    /// A reduced grid for fast tests: 64 × 32 pixels over 5–30 mm.
    pub fn small(array: &LinearArray) -> Self {
        Self::for_array(array, 5.0e-3, 25.0e-3, 64, 32)
    }

    /// Number of depth rows.
    pub fn num_rows(&self) -> usize {
        self.z_positions.len()
    }

    /// Number of lateral columns.
    pub fn num_cols(&self) -> usize {
        self.x_positions.len()
    }

    /// Total number of pixels.
    pub fn num_pixels(&self) -> usize {
        self.num_rows() * self.num_cols()
    }

    /// Depth (metres) of row `row`.
    ///
    /// # Panics
    ///
    /// Panics when `row` is out of range.
    pub fn z(&self, row: usize) -> f32 {
        self.z_positions[row]
    }

    /// Lateral position (metres) of column `col`.
    ///
    /// # Panics
    ///
    /// Panics when `col` is out of range.
    pub fn x(&self, col: usize) -> f32 {
        self.x_positions[col]
    }

    /// All depth positions.
    pub fn z_positions(&self) -> &[f32] {
        &self.z_positions
    }

    /// All lateral positions.
    pub fn x_positions(&self) -> &[f32] {
        &self.x_positions
    }

    /// Axial pixel pitch in metres (0 when the grid has a single row).
    pub fn axial_step(&self) -> f32 {
        if self.z_positions.len() < 2 {
            0.0
        } else {
            (self.z_positions[self.z_positions.len() - 1] - self.z_positions[0]) / (self.z_positions.len() - 1) as f32
        }
    }

    /// Lateral pixel pitch in metres (0 when the grid has a single column).
    pub fn lateral_step(&self) -> f32 {
        if self.x_positions.len() < 2 {
            0.0
        } else {
            (self.x_positions[self.x_positions.len() - 1] - self.x_positions[0]) / (self.x_positions.len() - 1) as f32
        }
    }

    /// Row index whose depth is closest to `z` metres.
    pub fn nearest_row(&self, z: f32) -> usize {
        nearest_index(&self.z_positions, z)
    }

    /// Column index whose lateral position is closest to `x` metres.
    pub fn nearest_col(&self, x: f32) -> usize {
        nearest_index(&self.x_positions, x)
    }
}

fn nearest_index(values: &[f32], target: f32) -> usize {
    let mut best = 0usize;
    let mut best_dist = f32::INFINITY;
    for (i, &v) in values.iter().enumerate() {
        let d = (v - target).abs();
        if d < best_dist {
            best_dist = d;
            best = i;
        }
    }
    best
}

/// Uniformly spaced points from `start` to `end` inclusive.
pub fn linspace(start: f32, end: f32, n: usize) -> Vec<f32> {
    if n == 0 {
        return Vec::new();
    }
    if n == 1 {
        return vec![start];
    }
    let step = (end - start) / (n - 1) as f32;
    (0..n).map(|i| start + step * i as f32).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_default_matches_frame_size() {
        let grid = ImagingGrid::paper_default(&LinearArray::l11_5v());
        assert_eq!(grid.num_rows(), 368);
        assert_eq!(grid.num_cols(), 128);
        assert_eq!(grid.num_pixels(), 368 * 128);
        assert!((grid.z(0) - 5.0e-3).abs() < 1e-9);
        assert!((grid.z(367) - 45.0e-3).abs() < 1e-6);
    }

    #[test]
    fn for_array_spans_aperture() {
        let array = LinearArray::l11_5v();
        let grid = ImagingGrid::for_array(&array, 0.01, 0.02, 10, 5);
        assert!((grid.x(0) + array.aperture() / 2.0).abs() < 1e-7);
        assert!((grid.x(4) - array.aperture() / 2.0).abs() < 1e-7);
    }

    #[test]
    fn new_validates_axes() {
        assert!(ImagingGrid::new(vec![], vec![0.0]).is_err());
        assert!(ImagingGrid::new(vec![0.0, 0.0], vec![0.0]).is_err());
        assert!(ImagingGrid::new(vec![0.0, 1.0], vec![0.0, -1.0]).is_err());
        assert!(ImagingGrid::new(vec![0.0, 1.0], vec![0.0, 1.0]).is_ok());
    }

    #[test]
    fn steps_are_uniform() {
        let grid = ImagingGrid::for_array(&LinearArray::l11_5v(), 0.005, 0.040, 368, 128);
        assert!((grid.axial_step() - 0.040 / 367.0).abs() < 1e-9);
        assert!(grid.lateral_step() > 0.0);
        let single = ImagingGrid::new(vec![0.01], vec![0.0, 0.001]).unwrap();
        assert_eq!(single.axial_step(), 0.0);
    }

    #[test]
    fn nearest_indices() {
        let grid = ImagingGrid::new(vec![0.01, 0.02, 0.03], vec![-0.01, 0.0, 0.01]).unwrap();
        assert_eq!(grid.nearest_row(0.021), 1);
        assert_eq!(grid.nearest_row(0.029), 2);
        assert_eq!(grid.nearest_col(-0.02), 0);
        assert_eq!(grid.nearest_col(0.004), 1);
    }

    #[test]
    fn linspace_endpoints() {
        assert_eq!(linspace(0.0, 1.0, 0), Vec::<f32>::new());
        assert_eq!(linspace(2.0, 5.0, 1), vec![2.0]);
        let v = linspace(0.0, 1.0, 5);
        assert_eq!(v.len(), 5);
        assert_eq!(v[0], 0.0);
        assert_eq!(v[4], 1.0);
        assert!((v[2] - 0.5).abs() < 1e-7);
    }
}
