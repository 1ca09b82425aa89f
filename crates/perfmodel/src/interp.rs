//! Bilinear interpolation on a rectilinear sample grid (paper Figure 2).
//!
//! Measurements live on a grid: x-coordinates (problem sizes) × y-coordinates
//! (process counts or network diameters), with one measured value per cell
//! corner. Queries inside the grid bilinearly interpolate; queries outside
//! linearly extrapolate from the nearest edge cell — exactly the behaviour
//! needed to predict a 32 768-core run from 2 048- and 4 096-core
//! measurements. Axes may optionally be log₂-scaled, which fits the
//! geometric spacing of HPC sweeps (16M, 32M, 64M atoms...).

/// A rectilinear grid of measurements with bilinear interpolation.
#[derive(Debug, Clone, PartialEq)]
pub struct BilinearGrid {
    xs: Vec<f64>,
    ys: Vec<f64>,
    /// Row-major values: `z[iy * xs.len() + ix]`. Stored in log₂ space
    /// when `log_z` is set.
    z: Vec<f64>,
    log_x: bool,
    log_y: bool,
    log_z: bool,
}

fn tx(v: f64, log: bool) -> f64 {
    if log {
        v.max(f64::MIN_POSITIVE).log2()
    } else {
        v
    }
}

impl BilinearGrid {
    /// Builds a grid. `xs` and `ys` must be strictly increasing with at
    /// least 2 entries each; `z` is row-major with `ys.len()` rows of
    /// `xs.len()` values.
    ///
    /// # Panics
    /// Panics unless both axes are strictly increasing, or when sizes mismatch.
    pub fn new(xs: Vec<f64>, ys: Vec<f64>, z: Vec<f64>) -> Self {
        Self::with_scales(xs, ys, z, false, false, false)
    }

    /// Like [`BilinearGrid::new`] but with log₂-scaled axes (`log_x`,
    /// `log_y`) and/or log₂-scaled values (`log_z`). Log axes require
    /// strictly positive coordinates; log values require strictly positive
    /// measurements. Log values make multiplicative laws (`t ∝ N/P`)
    /// exactly linear, which is what lets coarse geometric sweeps
    /// extrapolate to paper scale accurately.
    pub fn with_scales(
        xs: Vec<f64>,
        ys: Vec<f64>,
        z: Vec<f64>,
        log_x: bool,
        log_y: bool,
        log_z: bool,
    ) -> Self {
        assert!(xs.len() >= 2 && ys.len() >= 2, "need at least a 2x2 grid");
        assert_eq!(z.len(), xs.len() * ys.len(), "value count mismatch");
        assert!(
            xs.windows(2).all(|w| w[0] < w[1]),
            "x-axis must be strictly increasing"
        );
        assert!(
            ys.windows(2).all(|w| w[0] < w[1]),
            "y-axis must be strictly increasing"
        );
        if log_x {
            assert!(xs[0] > 0.0, "log x-axis requires positive coordinates");
        }
        if log_y {
            assert!(ys[0] > 0.0, "log y-axis requires positive coordinates");
        }
        let z = if log_z {
            assert!(
                z.iter().all(|&v| v > 0.0),
                "log values require strictly positive measurements"
            );
            z.into_iter().map(f64::log2).collect()
        } else {
            z
        };
        BilinearGrid {
            xs,
            ys,
            z,
            log_x,
            log_y,
            log_z,
        }
    }

    /// Number of grid points.
    pub fn len(&self) -> usize {
        self.z.len()
    }

    /// True when the grid holds no values (cannot happen post-construction).
    pub fn is_empty(&self) -> bool {
        self.z.is_empty()
    }

    fn val(&self, ix: usize, iy: usize) -> f64 {
        self.z[iy * self.xs.len() + ix]
    }

    /// Index of the cell (left corner) bracketing `v`, clamped to the edge
    /// cells so out-of-range queries extrapolate from the nearest cell.
    fn cell(coords: &[f64], v: f64) -> usize {
        if v <= coords[0] {
            return 0;
        }
        let last_cell = coords.len() - 2;
        for i in 0..=last_cell {
            if v < coords[i + 1] {
                return i;
            }
        }
        last_cell
    }

    /// Interpolated (or extrapolated) value at `(x, y)`.
    pub fn query(&self, x: f64, y: f64) -> f64 {
        let ix = Self::cell(&self.xs, x);
        let iy = Self::cell(&self.ys, y);
        let x0 = tx(self.xs[ix], self.log_x);
        let x1 = tx(self.xs[ix + 1], self.log_x);
        let y0 = tx(self.ys[iy], self.log_y);
        let y1 = tx(self.ys[iy + 1], self.log_y);
        let xq = tx(x, self.log_x);
        let yq = tx(y, self.log_y);
        let u = (xq - x0) / (x1 - x0);
        let v = (yq - y0) / (y1 - y0);
        let z00 = self.val(ix, iy);
        let z10 = self.val(ix + 1, iy);
        let z01 = self.val(ix, iy + 1);
        let z11 = self.val(ix + 1, iy + 1);
        let z =
            z00 * (1.0 - u) * (1.0 - v) + z10 * u * (1.0 - v) + z01 * (1.0 - u) * v + z11 * u * v;
        if self.log_z {
            z.exp2()
        } else {
            z
        }
    }

    /// The measured value at grid point `(ix, iy)` — for error statistics.
    pub fn sample(&self, ix: usize, iy: usize) -> (f64, f64, f64) {
        let z = self.val(ix, iy);
        let z = if self.log_z { z.exp2() } else { z };
        (self.xs[ix], self.ys[iy], z)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn grid_from(f: impl Fn(f64, f64) -> f64, xs: &[f64], ys: &[f64]) -> BilinearGrid {
        let f = &f;
        let z = ys
            .iter()
            .flat_map(|&y| xs.iter().map(move |&x| f(x, y)))
            .collect();
        BilinearGrid::new(xs.to_vec(), ys.to_vec(), z)
    }

    #[test]
    fn exact_on_bilinear_functions() {
        // f(x,y) = 2x + 3y + 0.5xy is reproduced exactly inside each cell
        let f = |x: f64, y: f64| 2.0 * x + 3.0 * y + 0.5 * x * y;
        let g = grid_from(f, &[0.0, 1.0, 2.0, 4.0], &[0.0, 2.0, 4.0]);
        for &(x, y) in &[(0.5, 1.0), (1.5, 3.0), (3.0, 2.5), (0.0, 0.0), (4.0, 4.0)] {
            assert!((g.query(x, y) - f(x, y)).abs() < 1e-12, "at ({x},{y})");
        }
    }

    #[test]
    fn extrapolates_linearly_beyond_edges() {
        let f = |x: f64, y: f64| 10.0 + 2.0 * x + y;
        let g = grid_from(f, &[1.0, 2.0], &[1.0, 2.0]);
        // outside the grid in every direction
        assert!((g.query(5.0, 1.0) - f(5.0, 1.0)).abs() < 1e-12);
        assert!((g.query(1.0, 7.0) - f(1.0, 7.0)).abs() < 1e-12);
        assert!((g.query(0.0, 0.0) - f(0.0, 0.0)).abs() < 1e-12);
    }

    #[test]
    fn recovers_grid_points() {
        let g = grid_from(|x, y| x * 7.0 + y, &[1.0, 3.0, 9.0], &[2.0, 4.0]);
        for ix in 0..3 {
            for iy in 0..2 {
                let (x, y, z) = g.sample(ix, iy);
                assert!((g.query(x, y) - z).abs() < 1e-12);
            }
        }
    }

    #[test]
    fn log_log_log_space_is_exact_on_power_laws() {
        // t(N, P) = c * N / P is exactly linear in (log N, log P, log t).
        let f = |n: f64, p: f64| 1e-6 * n / p;
        let xs = [1e6, 4e6, 16e6, 64e6];
        let ys = [256.0, 1024.0, 4096.0];
        let z: Vec<f64> = ys
            .iter()
            .flat_map(|&y| xs.iter().map(move |&x| f(x, y)))
            .collect();
        let lin = BilinearGrid::new(xs.to_vec(), ys.to_vec(), z.clone());
        let log = BilinearGrid::with_scales(xs.to_vec(), ys.to_vec(), z, true, true, true);
        let (xq, yq) = (8e6, 512.0); // geometric midpoints
        let truth = f(xq, yq);
        let err_lin = (lin.query(xq, yq) - truth).abs() / truth;
        let err_log = (log.query(xq, yq) - truth).abs() / truth;
        assert!(err_log < 1e-9, "power law must be exact, err {err_log}");
        assert!(err_lin > err_log);
        // extrapolation far beyond the grid stays exact for pure power laws
        let far = log.query(1e9, 32768.0);
        assert!((far - f(1e9, 32768.0)).abs() / f(1e9, 32768.0) < 1e-9);
    }

    #[test]
    #[should_panic(expected = "strictly positive measurements")]
    fn log_values_reject_nonpositive() {
        BilinearGrid::with_scales(
            vec![1.0, 2.0],
            vec![1.0, 2.0],
            vec![1.0, 0.0, 1.0, 1.0],
            false,
            false,
            true,
        );
    }

    #[test]
    #[should_panic(expected = "strictly increasing")]
    fn rejects_unsorted_axes() {
        BilinearGrid::new(vec![1.0, 1.0], vec![0.0, 1.0], vec![0.0; 4]);
    }

    #[test]
    #[should_panic(expected = "value count mismatch")]
    fn rejects_wrong_value_count() {
        BilinearGrid::new(vec![0.0, 1.0], vec![0.0, 1.0], vec![0.0; 3]);
    }

    #[test]
    fn shape_and_len() {
        let g = grid_from(|x, y| x + y, &[0.0, 1.0, 2.0], &[0.0, 1.0]);
        assert_eq!(g.len(), 6);
        assert!(!g.is_empty());
    }
}
