//! The two networks the workloads run, built the way a deployment
//! builds them: float master → calibration → MF-DFP quantization →
//! v2 image → `ImageView::open` → `QuantizedNet::from_image`.
//!
//! Weights and calibration data come from a fixed seed, so every run
//! measures the same program; only the workload inputs follow
//! `--seed`.

use std::sync::Arc;
use std::time::Instant;

use mfdfp_core::{calibrate, to_image, AlignedBytes, ImageView, QuantizedNet};
use mfdfp_nn::{zoo, Network, Phase};
use mfdfp_tensor::{Tensor, TensorRng};

const MODEL_SEED: u64 = 21;
const CLASSES: usize = 10;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NetKind {
    /// The paper's `cifar10_full` topology, 3×32×32 inputs.
    Cifar10Full,
    /// The serve tier's toy net, `quick_custom(3,16,[4,4,8],16,10)`,
    /// 3×16×16 inputs.
    Toy,
}

impl NetKind {
    pub fn input_shape(self) -> [usize; 3] {
        match self {
            NetKind::Cifar10Full => [3, 32, 32],
            NetKind::Toy => [3, 16, 16],
        }
    }

    pub fn input_len(self) -> usize {
        self.input_shape().iter().product()
    }

    /// Standard deviation of the seeded Gaussian inputs.
    fn input_std(self) -> f32 {
        match self {
            NetKind::Cifar10Full => 1.0,
            NetKind::Toy => 0.7,
        }
    }
}

/// A built model: the float master (the accuracy control) and the
/// deployed MF-DFP net loaded from its own v2 image.
pub struct Model {
    pub kind: NetKind,
    pub float: Network,
    pub qnet: Arc<QuantizedNet>,
    pub image: Arc<AlignedBytes>,
    /// Time of the `ImageView::open` + `QuantizedNet::from_image` that
    /// loaded `qnet`.
    pub image_open_us: f64,
}

impl Model {
    pub fn build(kind: NetKind) -> Result<Model, String> {
        let mut rng = TensorRng::seed_from(MODEL_SEED);
        let (built, calib_n) = match kind {
            NetKind::Cifar10Full => (zoo::cifar10_full(CLASSES, &mut rng), 16),
            NetKind::Toy => (zoo::quick_custom(3, 16, [4, 4, 8], 16, CLASSES, &mut rng), 4),
        };
        let mut float = built.map_err(|e| format!("building {kind:?}: {e}"))?;
        let [c, h, w] = kind.input_shape();
        let calib = rng.gaussian([calib_n, c, h, w], 0.0, kind.input_std());
        let labels = (0..calib_n).map(|i| i % CLASSES).collect();
        let plan = calibrate(&mut float, &[(calib, labels)], 8)
            .map_err(|e| format!("calibration: {e}"))?;
        let direct =
            QuantizedNet::from_network(&float, &plan).map_err(|e| format!("quantization: {e}"))?;
        let image = Arc::new(to_image(&direct));
        let (qnet, image_open_us) = reload(&image)?;
        // The image round trip must not change a single code.
        let probe =
            Tensor::from_vec(images(MODEL_SEED, 1, kind), [c, h, w]).map_err(|e| e.to_string())?;
        let forward =
            |net: &QuantizedNet| net.forward_codes(&probe).map_err(|e| format!("forward: {e}"));
        if forward(&direct)? != forward(&qnet)? {
            return Err(
                "a net loaded from its v2 image computes other codes than the original".into()
            );
        }
        Ok(Model { kind, float, qnet: Arc::new(qnet), image, image_open_us })
    }

    /// `float_agree_pct`: the share of a fixed evaluation set whose
    /// MF-DFP class equals the float master's, both run at B=8.
    ///
    /// The set does not follow `--seed`: like a test set it stays the
    /// same from run to run, so the figure moves only when the
    /// arithmetic does.
    pub fn float_agreement(&mut self) -> Result<f64, String> {
        const BATCH: usize = 8;
        let [c, h, w] = self.kind.input_shape();
        let per = self.kind.input_len();
        let data = images(AGREE_SEED, AGREE_IMAGES, self.kind);
        let mut ws = self.qnet.plan_for_batch(BATCH).workspace();
        let mut logits = vec![0f32; BATCH * CLASSES];
        let mut same = 0usize;
        for chunk in data.chunks(BATCH * per) {
            let x =
                Tensor::from_vec(chunk.to_vec(), [BATCH, c, h, w]).map_err(|e| e.to_string())?;
            let float =
                self.float.forward(&x, Phase::Eval).map_err(|e| format!("float forward: {e}"))?;
            self.qnet
                .logits_batch_into(chunk, BATCH, &mut ws, &mut logits)
                .map_err(|e| format!("logits_batch_into: {e}"))?;
            same += float
                .as_slice()
                .chunks(CLASSES)
                .zip(logits.chunks(CLASSES))
                .filter(|(f, q)| argmax(f) == argmax(q))
                .count();
        }
        Ok(100.0 * same as f64 / AGREE_IMAGES as f64)
    }
}

/// The fixed evaluation set of [`Model::float_agreement`].
const AGREE_SEED: u64 = 0xa9ee;
const AGREE_IMAGES: usize = 256;

/// Paired timings of the MF-DFP datapath and the float master on the
/// same batches.
#[derive(Debug, Default)]
pub struct Paired {
    /// `logits_batch_into` per call, µs.
    pub mfdfp_us: Vec<f64>,
    /// `Network::forward` (f32) per call, µs.
    pub float_us: Vec<f64>,
    /// The caller's own turnaround after each MF-DFP call (checking
    /// the answer), µs.
    pub turnaround_us: Vec<f64>,
}

impl Paired {
    /// Puts `speedup_vs_f32`, `nn.float_forward_us` (per image at
    /// `batch`) and the two sides' lower percentiles into `out`.
    ///
    /// The speed-up is the float master's first-quartile call time over
    /// the MF-DFP datapath's. The lower quartile is the speed each
    /// datapath reaches when the host leaves it alone; the upper half of
    /// either side moves with the load other tenants put on the machine,
    /// and moves the two sides by different amounts. The record keeps
    /// the per-pair ratios' median and quartiles beside it.
    pub fn put(&self, out: &mut crate::report::Outcome, batch: usize) {
        let q1 = |v: &[f64]| crate::stats::quartiles(v).0;
        let ratios: Vec<f64> =
            self.float_us.iter().zip(&self.mfdfp_us).map(|(f, q)| f / q).collect();
        out.put_summary("speedup_vs_f32", q1(&self.float_us) / q1(&self.mfdfp_us), &ratios);
        out.put("nn.float_forward_us", crate::stats::median(&self.float_us) / batch as f64);
        for (side, v) in [("float", &self.float_us), ("mfdfp", &self.mfdfp_us)] {
            let s = crate::stats::sorted(v);
            out.put(&format!("paired.{side}_p10_us"), crate::stats::percentile_sorted(&s, 0.1));
            out.put(&format!("paired.{side}_q1_us"), q1(v));
        }
    }
}

impl Model {
    /// Runs batches of `batch` images from `data` (flat) through
    /// `logits_batch_into` and through the float master, back to back,
    /// alternating which goes first, for `span` (and at least once).
    /// `verify(first_image, logits)` checks every MF-DFP answer.
    pub fn paired(
        &mut self,
        data: &[f32],
        batch: usize,
        span: std::time::Duration,
        mut verify: impl FnMut(usize, &[f32]) -> Result<(), String>,
    ) -> Result<Paired, String> {
        let [c, h, w] = self.kind.input_shape();
        let per = self.kind.input_len();
        let batches = data.len() / per / batch;
        let inputs: Vec<Tensor> = (0..batches)
            .map(|b| {
                Tensor::from_vec(
                    data[b * batch * per..(b + 1) * batch * per].to_vec(),
                    [batch, c, h, w],
                )
            })
            .collect::<Result<_, _>>()
            .map_err(|e| e.to_string())?;
        let mut ws = self.qnet.plan_for_batch(batch).workspace();
        let mut logits = vec![0f32; batch * CLASSES];
        let mut p = Paired::default();
        let start = Instant::now();
        let mut i = 0;
        while p.mfdfp_us.is_empty() || start.elapsed() < span {
            let x = &inputs[i % batches];
            let float_first = i % 2 == 1;
            if float_first {
                p.float_us.push(self.time_float(x)?);
            }
            let t = Instant::now();
            self.qnet
                .logits_batch_into(x.as_slice(), batch, &mut ws, &mut logits)
                .map_err(|e| format!("logits_batch_into: {e}"))?;
            p.mfdfp_us.push(t.elapsed().as_secs_f64() * 1e6);
            if !float_first {
                p.float_us.push(self.time_float(x)?);
            }
            let t = Instant::now();
            verify((i % batches) * batch, &logits)?;
            p.turnaround_us.push(t.elapsed().as_secs_f64() * 1e6);
            i += 1;
        }
        Ok(p)
    }

    fn time_float(&mut self, x: &Tensor) -> Result<f64, String> {
        let t = Instant::now();
        let out = self.float.forward(x, Phase::Eval).map_err(|e| format!("float forward: {e}"))?;
        let us = t.elapsed().as_secs_f64() * 1e6;
        std::hint::black_box(out);
        Ok(us)
    }
}

/// Loads a net from a v2 image: `ImageView::open` (validation and CRC)
/// then `QuantizedNet::from_image` (zero-copy windows). Returns the net
/// and the time both took, in µs.
pub fn reload(image: &Arc<AlignedBytes>) -> Result<(QuantizedNet, f64), String> {
    let t = Instant::now();
    let view = ImageView::open(Arc::clone(image)).map_err(|e| format!("image open: {e}"))?;
    let net = QuantizedNet::from_image(&view).map_err(|e| format!("from_image: {e}"))?;
    Ok((net, t.elapsed().as_secs_f64() * 1e6))
}

/// `n` seeded Gaussian input images for `kind`, flat.
pub fn images(seed: u64, n: usize, kind: NetKind) -> Vec<f32> {
    let [c, h, w] = kind.input_shape();
    let mut rng = TensorRng::seed_from(seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) ^ 0x5eed);
    rng.gaussian([n, c, h, w], 0.0, kind.input_std()).as_slice().to_vec()
}

/// Index of the first largest value.
fn argmax(row: &[f32]) -> usize {
    let mut best = 0;
    for (i, &x) in row.iter().enumerate() {
        if x > row[best] {
            best = i;
        }
    }
    best
}
