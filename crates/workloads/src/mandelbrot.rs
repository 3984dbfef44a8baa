//! Mandelbrot-set tiles: an irregular farm workload.
//!
//! The image is split into `tiles_x × tiles_y` tiles; each tile is one farm
//! task.  Per-tile cost varies enormously (interior points hit the iteration
//! cap, exterior points escape quickly), which is exactly the irregularity
//! that demand-driven and adaptive scheduling exploit.

use grasp_core::TaskSpec;
use serde::{Deserialize, Serialize};

/// A Mandelbrot rendering job.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct MandelbrotJob {
    /// Image width in pixels.
    pub width: usize,
    /// Image height in pixels.
    pub height: usize,
    /// Number of tiles along x.
    pub tiles_x: usize,
    /// Number of tiles along y.
    pub tiles_y: usize,
    /// Iteration cap.
    pub max_iter: u32,
    /// Real-axis range.
    pub re_range: (f64, f64),
    /// Imaginary-axis range.
    pub im_range: (f64, f64),
}

impl Default for MandelbrotJob {
    fn default() -> Self {
        MandelbrotJob {
            width: 1024,
            height: 768,
            tiles_x: 16,
            tiles_y: 12,
            max_iter: 1000,
            re_range: (-2.2, 1.0),
            im_range: (-1.2, 1.2),
        }
    }
}

/// One rectangular tile of the image.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct Tile {
    /// Tile identifier (row-major).
    pub(crate) id: usize,
    /// First pixel column.
    pub(crate) x0: usize,
    /// First pixel row.
    pub(crate) y0: usize,
    /// Tile width in pixels.
    pub(crate) w: usize,
    /// Tile height in pixels.
    pub(crate) h: usize,
}

impl MandelbrotJob {
    /// A small job suitable for unit tests.
    pub fn small() -> Self {
        MandelbrotJob {
            width: 128,
            height: 96,
            tiles_x: 4,
            tiles_y: 3,
            max_iter: 200,
            ..MandelbrotJob::default()
        }
    }

    /// The tiles of this job, row-major.
    pub fn tiles(&self) -> Vec<Tile> {
        let tw = self.width.div_ceil(self.tiles_x.max(1));
        let th = self.height.div_ceil(self.tiles_y.max(1));
        let mut tiles = Vec::new();
        let mut id = 0;
        for ty in 0..self.tiles_y.max(1) {
            for tx in 0..self.tiles_x.max(1) {
                let x0 = tx * tw;
                let y0 = ty * th;
                if x0 >= self.width || y0 >= self.height {
                    continue;
                }
                tiles.push(Tile {
                    id,
                    x0,
                    y0,
                    w: tw.min(self.width - x0),
                    h: th.min(self.height - y0),
                });
                id += 1;
            }
        }
        tiles
    }

    /// Escape iteration count for one point of the complex plane.
    pub(crate) fn escape_count(&self, re: f64, im: f64) -> u32 {
        let mut zr = 0.0f64;
        let mut zi = 0.0f64;
        let mut i = 0u32;
        while i < self.max_iter && zr * zr + zi * zi <= 4.0 {
            let next_zr = zr * zr - zi * zi + re;
            zi = 2.0 * zr * zi + im;
            zr = next_zr;
            i += 1;
        }
        i
    }

    /// Map a pixel to its point in the complex plane.
    pub(crate) fn pixel_to_point(&self, x: usize, y: usize) -> (f64, f64) {
        let re = self.re_range.0
            + (self.re_range.1 - self.re_range.0) * (x as f64 / self.width.max(1) as f64);
        let im = self.im_range.0
            + (self.im_range.1 - self.im_range.0) * (y as f64 / self.height.max(1) as f64);
        (re, im)
    }

    /// Render one tile, returning the per-pixel escape counts (row-major
    /// within the tile).  This is the real compute kernel.
    pub fn render_tile(&self, tile: &Tile) -> Vec<u32> {
        let mut out = Vec::with_capacity(tile.w * tile.h);
        for y in tile.y0..tile.y0 + tile.h {
            for x in tile.x0..tile.x0 + tile.w {
                let (re, im) = self.pixel_to_point(x, y);
                out.push(self.escape_count(re, im));
            }
        }
        out
    }

    /// Total iterations spent rendering one tile — the ground-truth work.
    pub(crate) fn tile_work(&self, tile: &Tile) -> f64 {
        self.render_tile(tile).iter().map(|&c| c as f64).sum()
    }

    /// The job as abstract farm tasks for the simulated grid.
    ///
    /// Work units equal the true iteration count of each tile divided by
    /// `iters_per_work_unit`, so the simulated irregularity matches the real
    /// kernel's; input is the tiny tile descriptor, output the rendered tile.
    pub fn as_tasks(&self, iters_per_work_unit: f64) -> Vec<TaskSpec> {
        let scale = iters_per_work_unit.max(1.0);
        self.tiles()
            .iter()
            .map(|t| TaskSpec::new(t.id, self.tile_work(t) / scale, 64, (t.w * t.h * 4) as u64))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tiles_cover_the_image_exactly_once() {
        let job = MandelbrotJob::small();
        let tiles = job.tiles();
        assert_eq!(tiles.len(), 12);
        let area: usize = tiles.iter().map(|t| t.w * t.h).sum();
        assert_eq!(area, job.width * job.height);
        // Ids are sequential.
        assert!(tiles.iter().enumerate().all(|(i, t)| t.id == i));
    }

    #[test]
    fn interior_points_hit_the_iteration_cap() {
        let job = MandelbrotJob::small();
        assert_eq!(job.escape_count(0.0, 0.0), job.max_iter);
        // A point far outside escapes immediately.
        assert!(job.escape_count(2.0, 2.0) < 5);
    }

    #[test]
    fn tile_costs_are_irregular() {
        let job = MandelbrotJob::small();
        let tiles = job.tiles();
        let works: Vec<f64> = tiles.iter().map(|t| job.tile_work(t)).collect();
        let min = works.iter().cloned().fold(f64::MAX, f64::min);
        let max = works.iter().cloned().fold(f64::MIN, f64::max);
        assert!(
            max > min * 3.0,
            "Mandelbrot tiles should differ in cost by >3x (min {min}, max {max})"
        );
    }

    #[test]
    fn task_descriptors_mirror_kernel_work() {
        let job = MandelbrotJob::small();
        let tasks = job.as_tasks(1000.0);
        assert_eq!(tasks.len(), job.tiles().len());
        let tiles = job.tiles();
        for (task, tile) in tasks.iter().zip(&tiles) {
            assert!((task.work - job.tile_work(tile) / 1000.0).abs() < 1e-9);
            assert_eq!(task.output_bytes, (tile.w * tile.h * 4) as u64);
        }
    }

    #[test]
    fn render_tile_output_size_matches() {
        let job = MandelbrotJob::small();
        let tile = job.tiles()[0];
        assert_eq!(job.render_tile(&tile).len(), tile.w * tile.h);
    }

    #[test]
    fn pixel_mapping_spans_the_ranges() {
        let job = MandelbrotJob::small();
        let (re0, im0) = job.pixel_to_point(0, 0);
        assert!((re0 - job.re_range.0).abs() < 1e-12);
        assert!((im0 - job.im_range.0).abs() < 1e-12);
    }
}
