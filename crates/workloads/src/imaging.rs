//! A four-stage image-processing pipeline for the pipeline skeleton.
//!
//! Stream items are synthetic greyscale frames; the stages are a 3×3 Gaussian
//! blur, an unsharp-mask sharpen, a Sobel edge detector and a binary
//! threshold — a representative mix of cheap and expensive stencil stages
//! whose costs differ enough that stage→node mapping matters.

use grasp_core::error::GraspError;
use grasp_core::wire::{ByteReader, ByteWriter, Fnv64, PAYLOAD_IMAGING};
use grasp_core::{FarmedStage, Skeleton, StageSpec, TaskSpec};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A synthetic greyscale frame.
#[derive(Debug, Clone, PartialEq)]
pub struct SyntheticImage {
    /// Width in pixels.
    pub(crate) width: usize,
    /// Height in pixels.
    pub(crate) height: usize,
    /// Row-major pixel intensities in `[0, 255]`.
    pub pixels: Vec<f32>,
}

impl SyntheticImage {
    /// A deterministic pseudo-random frame with a bright diagonal band (so
    /// edge detection has structure to find).
    pub(crate) fn generate(width: usize, height: usize, seed: u64) -> Self {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut pixels = Vec::with_capacity(width * height);
        for y in 0..height {
            for x in 0..width {
                let band = if (x as i64 - y as i64).unsigned_abs() < (width / 8).max(1) as u64 {
                    120.0
                } else {
                    0.0
                };
                pixels.push((band + rng.gen_range(0.0..64.0)) as f32);
            }
        }
        SyntheticImage {
            width,
            height,
            pixels,
        }
    }

    fn at(&self, x: isize, y: isize) -> f32 {
        let x = x.clamp(0, self.width as isize - 1) as usize;
        let y = y.clamp(0, self.height as isize - 1) as usize;
        self.pixels[y * self.width + x]
    }

    fn convolve3x3(&self, kernel: &[f32; 9], divisor: f32) -> SyntheticImage {
        let (w, h) = (self.width, self.height);
        let mut out = vec![0.0f32; self.pixels.len()];
        // The clamped 9-tap gather — needed only where a tap would fall off
        // the frame.  The fast path below accumulates in the identical tap
        // order, so interior pixels are bit-identical either way.
        let clamped = |x: isize, y: isize| {
            let mut acc = 0.0f32;
            for ky in -1..=1isize {
                for kx in -1..=1isize {
                    let k = kernel[((ky + 1) * 3 + (kx + 1)) as usize];
                    acc += k * self.at(x + kx, y + ky);
                }
            }
            acc / divisor
        };
        if w >= 3 && h >= 3 {
            // Interior: every tap is in bounds, so the stencil reads three
            // row slices directly — no clamping, no per-tap index
            // arithmetic — and the x loop autovectorizes.
            for y in 1..h - 1 {
                let above = &self.pixels[(y - 1) * w..y * w];
                let row = &self.pixels[y * w..(y + 1) * w];
                let below = &self.pixels[(y + 1) * w..(y + 2) * w];
                let orow = &mut out[y * w..(y + 1) * w];
                for x in 1..w - 1 {
                    let mut acc = 0.0f32;
                    acc += kernel[0] * above[x - 1];
                    acc += kernel[1] * above[x];
                    acc += kernel[2] * above[x + 1];
                    acc += kernel[3] * row[x - 1];
                    acc += kernel[4] * row[x];
                    acc += kernel[5] * row[x + 1];
                    acc += kernel[6] * below[x - 1];
                    acc += kernel[7] * below[x];
                    acc += kernel[8] * below[x + 1];
                    orow[x] = acc / divisor;
                }
            }
            // Borders: top and bottom rows, then the side columns.
            for x in 0..w {
                out[x] = clamped(x as isize, 0);
                out[(h - 1) * w + x] = clamped(x as isize, (h - 1) as isize);
            }
            for y in 1..h - 1 {
                out[y * w] = clamped(0, y as isize);
                out[y * w + w - 1] = clamped((w - 1) as isize, y as isize);
            }
        } else {
            // Degenerate frames (thinner than the stencil): clamp everywhere.
            for y in 0..h {
                for x in 0..w {
                    out[y * w + x] = clamped(x as isize, y as isize);
                }
            }
        }
        SyntheticImage {
            width: w,
            height: h,
            pixels: out,
        }
    }

    /// 3×3 Gaussian blur.
    pub fn blur(&self) -> SyntheticImage {
        self.convolve3x3(&[1.0, 2.0, 1.0, 2.0, 4.0, 2.0, 1.0, 2.0, 1.0], 16.0)
    }

    /// Unsharp-mask sharpen.
    pub fn sharpen(&self) -> SyntheticImage {
        self.convolve3x3(&[0.0, -1.0, 0.0, -1.0, 5.0, -1.0, 0.0, -1.0, 0.0], 1.0)
    }

    /// Sobel gradient magnitude.
    pub fn edges(&self) -> SyntheticImage {
        let gx = self.convolve3x3(&[-1.0, 0.0, 1.0, -2.0, 0.0, 2.0, -1.0, 0.0, 1.0], 1.0);
        let gy = self.convolve3x3(&[-1.0, -2.0, -1.0, 0.0, 0.0, 0.0, 1.0, 2.0, 1.0], 1.0);
        let pixels = gx
            .pixels
            .iter()
            .zip(&gy.pixels)
            .map(|(a, b)| (a * a + b * b).sqrt())
            .collect();
        SyntheticImage {
            width: self.width,
            height: self.height,
            pixels,
        }
    }

    /// Binary threshold at `level`.
    pub fn threshold(&self, level: f32) -> SyntheticImage {
        SyntheticImage {
            width: self.width,
            height: self.height,
            pixels: self
                .pixels
                .iter()
                .map(|&p| if p >= level { 255.0 } else { 0.0 })
                .collect(),
        }
    }
}

/// The four-stage image pipeline.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ImagePipeline {
    /// Frame width.
    pub width: usize,
    /// Frame height.
    pub height: usize,
    /// Number of frames streamed through the pipeline.
    pub frames: usize,
    /// Seed for frame generation.
    pub seed: u64,
}

impl Default for ImagePipeline {
    fn default() -> Self {
        ImagePipeline {
            width: 640,
            height: 480,
            frames: 200,
            seed: 11,
        }
    }
}

impl ImagePipeline {
    /// A small pipeline suitable for unit tests.
    pub fn small() -> Self {
        ImagePipeline {
            width: 64,
            height: 48,
            frames: 10,
            seed: 11,
        }
    }

    /// Generate frame `i` deterministically.
    pub fn frame(&self, i: usize) -> SyntheticImage {
        SyntheticImage::generate(self.width, self.height, self.seed.wrapping_add(i as u64))
    }

    /// Run the whole four-stage chain on one frame (the real kernel).
    pub fn process_frame(&self, frame: &SyntheticImage) -> SyntheticImage {
        frame.blur().sharpen().edges().threshold(96.0)
    }

    /// Relative per-pixel costs of the four stages (in 3×3-convolution
    /// equivalents): blur 1, sharpen 1, Sobel 2 (+magnitude ≈ 2.2), threshold
    /// 0.1.
    pub(crate) fn stage_cost_weights() -> [f64; 4] {
        [1.0, 1.0, 2.2, 0.1]
    }

    /// The pipeline as abstract stage descriptors.  Work units are pixels ×
    /// stage weight / `pixels_per_work_unit`; every stage forwards a full
    /// frame; stage state (filter buffers) is one frame.
    pub fn as_stages(&self, pixels_per_work_unit: f64) -> Vec<StageSpec> {
        let scale = pixels_per_work_unit.max(1.0);
        let pixels = (self.width * self.height) as f64;
        let frame_bytes = (self.width * self.height * 4) as u64;
        Self::stage_cost_weights()
            .iter()
            .enumerate()
            .map(|(id, &w)| StageSpec::new(id, pixels * w / scale, frame_bytes, frame_bytes))
            .collect()
    }

    /// Index of the heaviest stage (the Sobel edge detector).
    pub(crate) const HEAVY_STAGE: usize = 2;

    /// The pipeline as a composable skeleton whose heavy Sobel stage is a
    /// **nested farm** of `sobel_replicas` workers (a pipeline-of-farms):
    /// the edge detector dominates the chain (~2.2 convolutions per pixel
    /// against 1 for blur/sharpen), so farming it out removes the bottleneck
    /// while the chain keeps its stage structure and ordering guarantee.
    pub fn as_nested_skeleton(&self, pixels_per_work_unit: f64, sobel_replicas: usize) -> Skeleton {
        let stages = self
            .as_stages(pixels_per_work_unit)
            .into_iter()
            .map(|s| {
                if s.id == Self::HEAVY_STAGE {
                    FarmedStage::farmed(s, sobel_replicas)
                } else {
                    FarmedStage::plain(s)
                }
            })
            .collect();
        Skeleton::pipeline_of(stages, self.frames)
    }

    /// The stream as per-frame **farm** tasks (each task runs the whole
    /// four-stage chain on one frame) — the shape a process-isolated backend
    /// distributes, mirroring how `Skeleton::lower_to_farm` lowers a
    /// pipeline: work per task is the full per-item stage chain.
    pub fn as_frame_tasks(&self, pixels_per_work_unit: f64) -> Vec<TaskSpec> {
        let scale = pixels_per_work_unit.max(1.0);
        let pixels = (self.width * self.height) as f64;
        let work: f64 = Self::stage_cost_weights()
            .iter()
            .map(|w| pixels * w / scale)
            .sum();
        let frame_bytes = (self.width * self.height * 4) as u64;
        (0..self.frames)
            .map(|id| TaskSpec::new(id, work, frame_bytes, frame_bytes))
            .collect()
    }

    /// Wire payloads for every frame task, keyed by the unit ids of
    /// [`ImagePipeline::as_frame_tasks`]: hand these to a process-isolated
    /// backend so workers run the real convolution chain.
    pub fn wire_payloads(&self) -> Vec<(usize, u32, Vec<u8>)> {
        (0..self.frames)
            .map(|id| {
                (
                    id,
                    PAYLOAD_IMAGING,
                    ImagingFrameTask {
                        pipeline: *self,
                        frame: id,
                    }
                    .encode(),
                )
            })
            .collect()
    }

    /// The stream split into `lanes` independent sub-streams, each flowing
    /// through its own pipeline instance (a **farm-of-pipelines**): frames
    /// are mutually independent, so the outer farm may route whole lanes to
    /// wherever capacity is, while each lane keeps the stage chain.
    pub fn as_farm_of_pipelines(&self, pixels_per_work_unit: f64, lanes: usize) -> Skeleton {
        let lanes = lanes.clamp(1, self.frames.max(1));
        let stages = self.as_stages(pixels_per_work_unit);
        let per_lane = self.frames / lanes;
        let remainder = self.frames % lanes;
        let children = (0..lanes)
            .map(|i| {
                let items = per_lane + usize::from(i < remainder);
                Skeleton::pipeline(stages.clone(), items)
            })
            .collect();
        Skeleton::farm_of(children)
    }
}

/// One serializable, self-contained imaging computation: run the whole
/// four-stage chain on frame `frame` of `pipeline`.  Like
/// [`crate::matmul::MatMulBandTask`], the frame itself is derived from the
/// job seed rather than shipped.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ImagingFrameTask {
    /// The enclosing pipeline job (frame geometry, stream length, seed).
    pub pipeline: ImagePipeline,
    /// Index of the frame this task processes.
    pub frame: usize,
}

impl ImagingFrameTask {
    /// Serialize for the worker wire protocol.
    pub fn encode(&self) -> Vec<u8> {
        let mut w = ByteWriter::new();
        w.put_u64(self.pipeline.width as u64);
        w.put_u64(self.pipeline.height as u64);
        w.put_u64(self.pipeline.frames as u64);
        w.put_u64(self.pipeline.seed);
        w.put_u64(self.frame as u64);
        w.into_vec()
    }

    /// Deserialize a task produced by [`ImagingFrameTask::encode`];
    /// malformed bytes yield a typed [`GraspError`] instead of panicking.
    pub fn decode(bytes: &[u8]) -> Result<Self, GraspError> {
        let mut r = ByteReader::new(bytes);
        let task = ImagingFrameTask {
            pipeline: ImagePipeline {
                width: r.take_u64()? as usize,
                height: r.take_u64()? as usize,
                frames: r.take_u64()? as usize,
                seed: r.take_u64()?,
            },
            frame: r.take_u64()? as usize,
        };
        r.finish()?;
        let p = &task.pipeline;
        if p.width == 0 || p.height == 0 || p.width > 1 << 14 || p.height > 1 << 14 {
            return Err(GraspError::WireProtocol {
                detail: format!(
                    "imaging frame geometry out of range: {}x{}",
                    p.width, p.height
                ),
            });
        }
        Ok(task)
    }

    /// Execute the chain on the derived frame.
    pub(crate) fn execute(&self) -> SyntheticImage {
        self.pipeline
            .process_frame(&self.pipeline.frame(self.frame))
    }

    /// Deterministic digest of the processed frame (exact `f32` bit
    /// patterns) — identical wherever the kernel runs.
    pub fn digest(&self) -> u64 {
        let mut h = Fnv64::new();
        for v in self.execute().pixels {
            h.update(&v.to_bits().to_le_bytes());
        }
        h.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generated_frames_are_deterministic() {
        let p = ImagePipeline::small();
        assert_eq!(p.frame(0), p.frame(0));
        assert_ne!(p.frame(0), p.frame(1));
        assert_eq!(p.frame(0).pixels.len(), 64 * 48);
    }

    #[test]
    fn blur_smooths_the_image() {
        let img = SyntheticImage::generate(32, 32, 1);
        let blurred = img.blur();
        // Blur preserves the mean approximately but reduces local variance.
        let mean = |im: &SyntheticImage| im.pixels.iter().sum::<f32>() / im.pixels.len() as f32;
        let var = |im: &SyntheticImage| {
            let m = mean(im);
            im.pixels.iter().map(|p| (p - m) * (p - m)).sum::<f32>() / im.pixels.len() as f32
        };
        assert!((mean(&img) - mean(&blurred)).abs() < 5.0);
        assert!(var(&blurred) < var(&img));
    }

    #[test]
    fn edges_light_up_on_the_diagonal_band() {
        let img = SyntheticImage::generate(64, 64, 2);
        let edges = img.blur().edges();
        // Edge response near the band boundary should exceed the response in
        // the flat background far from it.
        let near_band = edges.at(8, 16).max(edges.at(16, 8));
        let background = edges.at(60, 5);
        assert!(near_band > background);
    }

    #[test]
    fn interior_fast_path_matches_the_clamped_gather_bit_for_bit() {
        // An asymmetric kernel and a non-square frame so any tap-order or
        // row-addressing mistake in the fast path shows up.
        let kernel = [-1.0, 0.5, 1.0, -2.0, 0.25, 2.0, -1.0, -0.5, 1.0];
        let img = SyntheticImage::generate(17, 9, 7);
        let got = img.convolve3x3(&kernel, 2.0);
        for y in 0..9isize {
            for x in 0..17isize {
                let mut acc = 0.0f32;
                for ky in -1..=1isize {
                    for kx in -1..=1isize {
                        acc += kernel[((ky + 1) * 3 + (kx + 1)) as usize] * img.at(x + kx, y + ky);
                    }
                }
                assert_eq!(got.at(x, y).to_bits(), (acc / 2.0).to_bits());
            }
        }
        // Frames thinner than the stencil take the clamped-everywhere path.
        let thin = SyntheticImage::generate(2, 5, 7);
        assert_eq!(thin.blur().pixels.len(), 10);
    }

    #[test]
    fn digest_folds_identically_to_hashing_the_concatenated_bytes() {
        let task = ImagingFrameTask {
            pipeline: ImagePipeline::small(),
            frame: 1,
        };
        let out = task.execute();
        let mut bytes = Vec::with_capacity(out.pixels.len() * 4);
        for v in &out.pixels {
            bytes.extend_from_slice(&v.to_bits().to_le_bytes());
        }
        assert_eq!(task.digest(), grasp_core::wire::fnv1a_64(&bytes));
    }

    #[test]
    fn threshold_is_binary() {
        let img = SyntheticImage::generate(16, 16, 3);
        let t = img.threshold(50.0);
        assert!(t.pixels.iter().all(|&p| p == 0.0 || p == 255.0));
    }

    #[test]
    fn process_frame_produces_binary_output_of_same_size() {
        let p = ImagePipeline::small();
        let out = p.process_frame(&p.frame(0));
        assert_eq!(out.pixels.len(), 64 * 48);
        assert!(out.pixels.iter().all(|&v| v == 0.0 || v == 255.0));
    }

    #[test]
    fn stage_descriptors_reflect_cost_weights() {
        let p = ImagePipeline::small();
        let stages = p.as_stages(1000.0);
        assert_eq!(stages.len(), 4);
        assert!(stages[2].work_per_item > stages[0].work_per_item);
        assert!(stages[3].work_per_item < stages[0].work_per_item);
        assert_eq!(stages[0].forward_bytes, (64 * 48 * 4) as u64);
    }

    #[test]
    fn nested_skeleton_farms_the_sobel_stage() {
        let p = ImagePipeline::small();
        let s = p.as_nested_skeleton(1000.0, 4);
        assert_eq!(s.work_units(), p.frames);
        match &s {
            Skeleton::PipelineOf { stages, items } => {
                assert_eq!(*items, p.frames);
                assert_eq!(stages.len(), 4);
                assert_eq!(stages[ImagePipeline::HEAVY_STAGE].replicas, 4);
                assert!(stages
                    .iter()
                    .filter(|st| st.spec.id != ImagePipeline::HEAVY_STAGE)
                    .all(|st| st.replicas == 1));
            }
            other => panic!("expected a pipeline-of-farms, got {other:?}"),
        }
    }

    #[test]
    fn frame_tasks_cover_the_stream_with_the_whole_chain_per_frame() {
        let p = ImagePipeline::small();
        let tasks = p.as_frame_tasks(1000.0);
        assert_eq!(tasks.len(), p.frames);
        let chain_work: f64 = p.as_stages(1000.0).iter().map(|s| s.work_per_item).sum();
        assert!((tasks[0].work - chain_work).abs() < 1e-9);
        assert_eq!(tasks[3].id, 3);
    }

    #[test]
    fn imaging_tasks_round_trip_and_digest_deterministically() {
        let p = ImagePipeline::small();
        let payloads = p.wire_payloads();
        assert_eq!(payloads.len(), p.frames);
        let (id, kind, bytes) = &payloads[2];
        assert_eq!(*kind, PAYLOAD_IMAGING);
        let task = ImagingFrameTask::decode(bytes).unwrap();
        assert_eq!(task.frame, *id);
        // The decoded task computes exactly the local reference chain.
        let local = p.process_frame(&p.frame(2));
        assert_eq!(task.execute().pixels, local.pixels);
        assert_eq!(task.digest(), task.digest());
        let other = ImagingFrameTask::decode(&payloads[3].2).unwrap();
        assert_ne!(task.digest(), other.digest());
        // Malformed payloads are typed errors, not panics.
        assert!(ImagingFrameTask::decode(&bytes[..7]).is_err());
        let huge = ImagingFrameTask {
            pipeline: ImagePipeline {
                width: 1 << 20,
                ..p
            },
            frame: 0,
        };
        assert!(ImagingFrameTask::decode(&huge.encode()).is_err());
    }

    #[test]
    fn farm_of_pipelines_partitions_every_frame() {
        let p = ImagePipeline::small(); // 10 frames
        let s = p.as_farm_of_pipelines(1000.0, 3);
        assert_eq!(s.work_units(), p.frames, "no frame lost to the split");
        match &s {
            Skeleton::FarmOf { children } => {
                assert_eq!(children.len(), 3);
                // 10 = 4 + 3 + 3.
                assert_eq!(children[0].work_units(), 4);
                assert_eq!(children[1].work_units(), 3);
            }
            other => panic!("expected a farm-of-pipelines, got {other:?}"),
        }
        // More lanes than frames is clamped.
        assert_eq!(p.as_farm_of_pipelines(1000.0, 99).work_units(), p.frames);
    }
}
