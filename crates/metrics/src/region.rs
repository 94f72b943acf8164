//! Regions of interest on the imaging grid.

use beamforming::ImagingGrid;

/// A circular region of interest in physical coordinates.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CircularRoi {
    /// Lateral centre (metres).
    pub cx: f32,
    /// Depth centre (metres).
    pub cz: f32,
    /// Radius (metres).
    pub radius: f32,
}

impl CircularRoi {
    /// Creates a circular ROI.
    pub fn new(cx: f32, cz: f32, radius: f32) -> Self {
        Self { cx, cz, radius }
    }

    /// Whether the point `(x, z)` lies inside the circle.
    pub fn contains(&self, x: f32, z: f32) -> bool {
        let dx = x - self.cx;
        let dz = z - self.cz;
        dx * dx + dz * dz <= self.radius * self.radius
    }

    /// A concentric annulus with inner radius `inner` and outer radius `outer`, used as
    /// the speckle background reference around a cyst.
    pub fn annulus(&self, inner: f32, outer: f32) -> AnnularRoi {
        AnnularRoi { cx: self.cx, cz: self.cz, inner, outer }
    }

    /// Collects the values of all pixels whose centres fall inside the ROI.
    pub fn collect_pixels(&self, values: &[f32], grid: &ImagingGrid) -> Vec<f32> {
        collect(values, grid, |x, z| self.contains(x, z))
    }
}

/// An annular (ring-shaped) region of interest.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AnnularRoi {
    /// Lateral centre (metres).
    pub cx: f32,
    /// Depth centre (metres).
    pub cz: f32,
    /// Inner radius (metres).
    pub inner: f32,
    /// Outer radius (metres).
    pub outer: f32,
}

impl AnnularRoi {
    /// Whether the point lies within the ring.
    pub fn contains(&self, x: f32, z: f32) -> bool {
        let dx = x - self.cx;
        let dz = z - self.cz;
        let d2 = dx * dx + dz * dz;
        d2 > self.inner * self.inner && d2 <= self.outer * self.outer
    }

    /// Collects the values of all pixels whose centres fall inside the ring.
    pub fn collect_pixels(&self, values: &[f32], grid: &ImagingGrid) -> Vec<f32> {
        collect(values, grid, |x, z| self.contains(x, z))
    }
}

fn collect<F: Fn(f32, f32) -> bool>(values: &[f32], grid: &ImagingGrid, predicate: F) -> Vec<f32> {
    let cols = grid.num_cols();
    let mut out = Vec::new();
    for (idx, &v) in values.iter().enumerate() {
        let row = idx / cols;
        let col = idx % cols;
        if row >= grid.num_rows() {
            break;
        }
        if predicate(grid.x(col), grid.z(row)) {
            out.push(v);
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use ultrasound::LinearArray;

    fn grid() -> ImagingGrid {
        ImagingGrid::for_array(&LinearArray::l11_5v(), 0.01, 0.03, 60, 40)
    }

    #[test]
    fn circle_membership() {
        let roi = CircularRoi::new(0.0, 0.02, 0.002);
        assert!(roi.contains(0.0, 0.02));
        assert!(roi.contains(0.001, 0.021));
        assert!(!roi.contains(0.0, 0.025));
    }

    #[test]
    fn annulus_excludes_centre_and_outside() {
        let ring = CircularRoi::new(0.0, 0.02, 0.002).annulus(0.003, 0.006);
        assert!(!ring.contains(0.0, 0.02));
        assert!(ring.contains(0.004, 0.02));
        assert!(!ring.contains(0.01, 0.02));
    }

    #[test]
    fn collect_pixels_counts_match_areas() {
        let g = grid();
        let values = vec![1.0f32; g.num_pixels()];
        let small = CircularRoi::new(0.0, 0.025, 0.002).collect_pixels(&values, &g);
        let large = CircularRoi::new(0.0, 0.025, 0.004).collect_pixels(&values, &g);
        assert!(!small.is_empty());
        // Quadrupling the area should roughly quadruple the pixel count.
        let ratio = large.len() as f32 / small.len() as f32;
        assert!(ratio > 2.5 && ratio < 6.0, "ratio {ratio}");
    }

    #[test]
    fn collect_respects_values() {
        let g = grid();
        let mut values = vec![0.0f32; g.num_pixels()];
        // Mark the pixel nearest the ROI centre.
        let row = g.nearest_row(0.02);
        let col = g.nearest_col(0.0);
        values[row * g.num_cols() + col] = 7.0;
        let inside = CircularRoi::new(0.0, 0.02, 0.0015).collect_pixels(&values, &g);
        assert!(inside.contains(&7.0));
    }

    #[test]
    fn disjoint_roi_collects_nothing() {
        let g = grid();
        let values = vec![1.0f32; g.num_pixels()];
        let roi = CircularRoi::new(0.5, 0.5, 0.001);
        assert!(roi.collect_pixels(&values, &g).is_empty());
        let ring = roi.annulus(0.002, 0.003);
        assert!(ring.collect_pixels(&values, &g).is_empty());
    }
}
