//! The traced per-layer walker: runs a batch through a `QuantizedNet`
//! one layer at a time through each layer's public entry, timing every
//! call, so the rows it reports are the layers of the program the
//! untraced run measures.
//!
//! The walker repeats the batch-fused forward's own steps: quantize the
//! batch into the element-interleaved layout, then per layer
//! `ShiftConv::run_batch_into` / `*_pool_codes_batch_into` /
//! `relu_codes` / `ShiftLinear::run_batch_into`, then dequantize. For a
//! convolution it also runs the layer's two kernel steps on their own —
//! `im2col_batched_i8` and `qgemm_fused_into_i8` on the layer's public
//! geometry and weights — and requires their output to equal the
//! layer's. The caller checks the final codes against
//! `forward_codes_batch`, so the traced path is the same program.

use std::time::Instant;

use mfdfp_accel::qlayers::{
    avg_pool_codes_batch_into, max_pool_codes_batch_into, pool_out_dims, relu_codes, ShiftConv,
    PRODUCT_FRAC_SHIFT,
};
use mfdfp_core::{QLayer, QuantizedNet};
use mfdfp_tensor::{im2col_batched_i8, qgemm_fused_into_i8, AlignedVec, PoolKind, Workspace};

/// Accumulated time of each traced step, in ns, over `images` images.
#[derive(Debug, Default, Clone)]
pub struct LayerTimes {
    pub images: u64,
    pub quantize_in: u64,
    pub dequantize_out: u64,
    /// `accel.<kind><index>` rows in network order (`conv` 1, `pool` 1,
    /// …); the inner products share one row, index 0 (`ip`).
    pub accel: Vec<((&'static str, usize), u64)>,
    pub relu: u64,
    /// `(im2col, qgemm)` per convolution, in network order.
    pub conv_steps: Vec<(u64, u64)>,
    /// Whole traced forward (quantize + layers + dequantize), without
    /// the conv step breakdown the walker runs on the side.
    pub total: u64,
}

impl LayerTimes {
    /// Mean µs per image of an accumulated ns total.
    pub fn per_image_us(&self, ns: u64) -> f64 {
        ns as f64 / 1e3 / self.images.max(1) as f64
    }

    /// The `accel.*` rows as `(name, ns)`.
    pub fn accel_rows(&self) -> impl Iterator<Item = (String, u64)> + '_ {
        self.accel.iter().map(|&((kind, i), ns)| {
            (if i == 0 { kind.to_string() } else { format!("{kind}{i}") }, ns)
        })
    }

    fn add(&mut self, key: (&'static str, usize), ns: u64) {
        match self.accel.iter_mut().find(|(k, _)| *k == key) {
            Some((_, t)) => *t += ns,
            None => self.accel.push((key, ns)),
        }
    }
}

/// Shift-MACs one image costs, from the layer geometry (convolutions
/// and inner products).
pub fn shift_macs_per_image(net: &QuantizedNet) -> (u64, u64) {
    let (mut conv, mut linear) = (0u64, 0u64);
    for layer in net.layers() {
        match layer {
            QLayer::Conv(c) => {
                let g = &c.geom;
                conv += (g.out_c * g.col_height() * g.out_h() * g.out_w()) as u64;
            }
            QLayer::Linear(l) => linear += (l.in_features * l.out_features) as u64,
            _ => {}
        }
    }
    (conv, linear)
}

/// Reusable buffers of the walker.
pub struct Walker {
    ws: Workspace,
    cur: AlignedVec<i8>,
    nxt: AlignedVec<i8>,
    cols: AlignedVec<i8>,
    split: AlignedVec<i8>,
}

impl Walker {
    pub fn new(net: &QuantizedNet, max_batch: usize) -> Walker {
        Walker {
            ws: net.plan_for_batch(max_batch).workspace(),
            cur: AlignedVec::with_capacity(0),
            nxt: AlignedVec::with_capacity(0),
            cols: AlignedVec::with_capacity(0),
            split: AlignedVec::with_capacity(0),
        }
    }

    /// Runs `n` images (`data`, flat) through `net` layer by layer,
    /// adding each step's time to `times` and writing the `n × classes`
    /// logits row-major into `logits`. Returns the final codes in the
    /// interleaved layout (element `e` of image `b` at `e·n + b`).
    pub fn forward(
        &mut self,
        net: &QuantizedNet,
        data: &[f32],
        n: usize,
        logits: &mut [f32],
        times: &mut LayerTimes,
    ) -> Result<&[i8], String> {
        let start = Instant::now();
        let per_image = data.len() / n;
        let fmt = net.input_format();
        let t = Instant::now();
        self.cur.resize(per_image * n, 0);
        for (b, image) in data.chunks_exact(per_image).enumerate() {
            for (e, &x) in image.iter().enumerate() {
                self.cur[e * n + b] = fmt.quantize(x) as i8;
            }
        }
        times.quantize_in += elapsed_ns(t);
        let (mut convs, mut pools, mut split_ns) = (0, 0, 0);
        for layer in net.layers() {
            match layer {
                QLayer::Conv(c) => {
                    convs += 1;
                    self.nxt.resize(c.out_len() * n, 0);
                    let t = Instant::now();
                    c.run_batch_into(&self.cur, n, &mut self.ws, &mut self.nxt)
                        .map_err(|e| e.to_string())?;
                    times.add(("conv", convs), elapsed_ns(t));
                    let steps = self.conv_steps(c, n)?;
                    split_ns += steps.0 + steps.1;
                    if convs > times.conv_steps.len() {
                        times.conv_steps.push((0, 0));
                    }
                    let slot = &mut times.conv_steps[convs - 1];
                    slot.0 += steps.0;
                    slot.1 += steps.1;
                    if self.split.as_slice() != self.nxt.as_slice() {
                        return Err(format!(
                            "conv{convs}: im2col + qgemm differ from run_batch_into"
                        ));
                    }
                    std::mem::swap(&mut self.cur, &mut self.nxt);
                }
                QLayer::Linear(l) => {
                    self.nxt.resize(l.out_features * n, 0);
                    let t = Instant::now();
                    l.run_batch_into(&self.cur, n, &mut self.nxt).map_err(|e| e.to_string())?;
                    times.add(("ip", 0), elapsed_ns(t));
                    std::mem::swap(&mut self.cur, &mut self.nxt);
                }
                QLayer::Pool { kind, channels, in_h, in_w, window, stride } => {
                    pools += 1;
                    let (oh, ow) =
                        pool_out_dims(*in_h, *in_w, *window, *stride).map_err(|e| e.to_string())?;
                    self.nxt.resize(channels * oh * ow * n, 0);
                    let t = Instant::now();
                    match kind {
                        PoolKind::Max => max_pool_codes_batch_into(
                            &self.cur,
                            *channels,
                            *in_h,
                            *in_w,
                            *window,
                            *stride,
                            n,
                            &mut self.nxt,
                        ),
                        PoolKind::Avg => avg_pool_codes_batch_into(
                            &self.cur,
                            *channels,
                            *in_h,
                            *in_w,
                            *window,
                            *stride,
                            n,
                            &mut self.nxt,
                        ),
                    }
                    .map_err(|e| e.to_string())?;
                    times.add(("pool", pools), elapsed_ns(t));
                    std::mem::swap(&mut self.cur, &mut self.nxt);
                }
                QLayer::Relu => {
                    let t = Instant::now();
                    relu_codes(&mut self.cur);
                    times.relu += elapsed_ns(t);
                }
            }
        }
        let classes = net.classes();
        if self.cur.len() != classes * n || logits.len() != classes * n {
            return Err("traced forward ended with the wrong logit count".into());
        }
        let t = Instant::now();
        let out_fmt = net.output_format();
        for (b, row) in logits.chunks_exact_mut(classes).enumerate() {
            for (c, o) in row.iter_mut().enumerate() {
                *o = out_fmt.dequantize(self.cur[c * n + b] as i32);
            }
        }
        times.dequantize_out += elapsed_ns(t);
        times.total += elapsed_ns(start).saturating_sub(split_ns);
        times.images += n as u64;
        Ok(self.cur.as_slice())
    }

    /// The conv's two kernel steps on their own, per channel group,
    /// into `self.split`. Returns `(im2col ns, qgemm ns)`.
    fn conv_steps(&mut self, c: &ShiftConv, n: usize) -> Result<(u64, u64), String> {
        let g = &c.geom;
        let npix = g.out_h() * g.out_w();
        let group_out = g.out_c / g.groups;
        let acc_frac = c.in_frac as i32 + PRODUCT_FRAC_SHIFT;
        self.cols.resize(g.col_height() * npix * n, 0);
        self.split.resize(c.out_len() * n, 0);
        let (mut gather, mut gemm) = (0, 0);
        for grp in 0..g.groups {
            let t = Instant::now();
            im2col_batched_i8(&self.cur, g, grp, n, &mut self.cols).map_err(|e| e.to_string())?;
            gather += elapsed_ns(t);
            let row0 = grp * group_out;
            let t = Instant::now();
            qgemm_fused_into_i8(
                &c.weights,
                row0,
                group_out,
                &self.cols,
                npix,
                n,
                &c.bias[row0..row0 + group_out],
                acc_frac,
                c.out_frac as i32,
                &mut self.split[row0 * npix * n..(row0 + group_out) * npix * n],
            )
            .map_err(|e| e.to_string())?;
            gemm += elapsed_ns(t);
        }
        Ok((gather, gemm))
    }
}

fn elapsed_ns(t: Instant) -> u64 {
    t.elapsed().as_nanos() as u64
}

/// The traced datapath of one workload: the walker's rows beside the
/// untraced fused call they decompose, both timed on the same batches.
pub struct Profile {
    pub batch: usize,
    pub times: LayerTimes,
    /// `logits_batch_into` time of each call, µs.
    pub fused_us: Vec<f64>,
    /// The walker's traced forward of each call, µs.
    pub traced_us: Vec<f64>,
    pub conv_macs: u64,
    pub linear_macs: u64,
}

/// Runs batches of `batch` images of shape `input` from `pool` (flat)
/// for `span`: each batch once through `logits_batch_into` and once
/// through the traced walker, whose logits must equal the fused call's
/// and whose codes must equal `forward_codes_batch`, bit for bit.
pub fn profile(
    net: &QuantizedNet,
    pool: &[f32],
    input: [usize; 3],
    batch: usize,
    span: std::time::Duration,
) -> Result<Profile, String> {
    let batch_len = batch * input.iter().product::<usize>();
    let batches = pool.len() / batch_len;
    let mut ws = net.plan_for_batch(batch).workspace();
    let mut walker = Walker::new(net, batch);
    let classes = net.classes();
    let (mut fused, mut traced) = (vec![0f32; batch * classes], vec![0f32; batch * classes]);
    let (conv_macs, linear_macs) = shift_macs_per_image(net);
    let mut p = Profile {
        batch,
        times: LayerTimes::default(),
        fused_us: vec![],
        traced_us: vec![],
        conv_macs,
        linear_macs,
    };
    let start = Instant::now();
    while p.fused_us.is_empty() || start.elapsed() < span {
        let k = p.fused_us.len() % batches;
        let data = &pool[k * batch_len..(k + 1) * batch_len];
        let t = Instant::now();
        net.logits_batch_into(data, batch, &mut ws, &mut fused)
            .map_err(|e| format!("logits_batch_into: {e}"))?;
        p.fused_us.push(t.elapsed().as_secs_f64() * 1e6);
        let before = p.times.total;
        let codes = walker.forward(net, data, batch, &mut traced, &mut p.times)?;
        p.traced_us.push((p.times.total - before) as f64 / 1e3);
        if fused.iter().zip(&traced).any(|(a, b)| a.to_bits() != b.to_bits()) {
            return Err(
                "the traced per-layer forward's logits differ from logits_batch_into".into()
            );
        }
        let [c, h, w] = input;
        let tensor = mfdfp_tensor::Tensor::from_vec(data.to_vec(), [batch, c, h, w])
            .map_err(|e| e.to_string())?;
        let reference =
            net.forward_codes_batch(&tensor).map_err(|e| format!("forward_codes_batch: {e}"))?;
        for (b, image) in reference.iter().enumerate() {
            if image.iter().enumerate().any(|(e, &c)| codes[e * batch + b] != c) {
                return Err(
                    "the traced per-layer forward's codes differ from forward_codes_batch".into()
                );
            }
        }
    }
    Ok(p)
}

impl Profile {
    fn us(&self, ns: u64) -> f64 {
        self.times.per_image_us(ns)
    }

    /// `trace.overhead_pct`: how much longer the traced forward took
    /// than the untraced fused call on the same batch, median over
    /// batches.
    pub fn overhead_pct(&self) -> f64 {
        let ratios: Vec<f64> =
            self.traced_us.iter().zip(&self.fused_us).map(|(t, f)| 100.0 * (t / f - 1.0)).collect();
        crate::stats::median(&ratios)
    }

    /// Mean `logits_batch_into` µs per image.
    pub fn fused_per_image_us(&self) -> f64 {
        crate::stats::mean(&self.fused_us) / self.batch as f64
    }

    /// The per-image layer rows of the traced forward; the remainder
    /// against the fused call is `core.forward_other_us`.
    pub fn breakdown(&self) -> crate::report::Breakdown {
        let mut rows = vec![("core.quantize_in_us".to_string(), self.us(self.times.quantize_in))];
        rows.extend(self.times.accel_rows().map(|(n, ns)| (format!("accel.{n}_us"), self.us(ns))));
        rows.push(("accel.relu_us".into(), self.us(self.times.relu)));
        rows.push(("core.dequantize_out_us".into(), self.us(self.times.dequantize_out)));
        crate::report::Breakdown {
            of: format!("logits_batch_into per image at B={}", self.batch),
            total: self.fused_per_image_us(),
            rows,
        }
    }

    /// Puts every datapath per-layer metric into `out`.
    pub fn put_rows(&self, out: &mut crate::report::Outcome) {
        let breakdown = self.breakdown();
        for (name, v) in &breakdown.rows {
            out.put(name, *v);
        }
        out.put("core.forward_other_us", breakdown.remainder());
        let mut qgemm_ns = 0;
        for (i, &(gather, gemm)) in self.times.conv_steps.iter().enumerate() {
            out.put(&format!("tensor.im2col.conv{}_us", i + 1), self.us(gather));
            out.put(&format!("tensor.qgemm.conv{}_us", i + 1), self.us(gemm));
            qgemm_ns += gemm;
        }
        out.put("tensor.shift_macs", (self.conv_macs + self.linear_macs) as f64);
        // Conv shift-MACs per ns of conv qgemm time = GMAC/s.
        out.put(
            "tensor.qgemm_gmacs_per_s",
            (self.conv_macs * self.times.images) as f64 / qgemm_ns.max(1) as f64,
        );
    }
}
