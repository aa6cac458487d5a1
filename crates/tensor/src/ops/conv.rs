//! 2-D convolution via im2col/col2im plus the GEMM kernel.

use serde::{Deserialize, Serialize};

use crate::error::{Result, TensorError};
use crate::ops::matmul::{gemm, gemm_serial, Transpose};
use crate::{Shape, Tensor};

/// Static geometry of a 2-D convolution: input extents, kernel, stride, pad.
///
/// The same geometry type drives the float framework (`mfdfp-nn`), the
/// integer inference engine (`mfdfp-core`) and the accelerator scheduler
/// (`mfdfp-accel`), so all three agree on output sizes and operation counts.
///
/// # Examples
///
/// ```
/// use mfdfp_tensor::ConvGeometry;
///
/// // CIFAR-10 "quick" conv1: 3×32×32 input, 32 kernels of 5×5, pad 2.
/// let g = ConvGeometry::new(3, 32, 32, 32, 5, 1, 2)?;
/// assert_eq!((g.out_h(), g.out_w()), (32, 32));
/// assert_eq!(g.macs(), 32 * 32 * 32 * 5 * 5 * 3);
/// # Ok::<(), mfdfp_tensor::TensorError>(())
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct ConvGeometry {
    /// Input channels.
    pub in_c: usize,
    /// Input height.
    pub in_h: usize,
    /// Input width.
    pub in_w: usize,
    /// Output channels (number of kernels).
    pub out_c: usize,
    /// Square kernel side length.
    pub kernel: usize,
    /// Stride in both spatial dimensions.
    pub stride: usize,
    /// Zero padding on every border.
    pub pad: usize,
    /// Channel groups (AlexNet's dual-GPU convolutions use 2; 1 is an
    /// ordinary dense convolution). Group `g` connects input channels
    /// `[g·in_c/G, (g+1)·in_c/G)` to output channels
    /// `[g·out_c/G, (g+1)·out_c/G)`.
    pub groups: usize,
}

impl ConvGeometry {
    /// Creates and validates a convolution geometry.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::BadGeometry`] if any extent is zero, the
    /// stride is zero, or the padded input is smaller than the kernel.
    pub fn new(
        in_c: usize,
        in_h: usize,
        in_w: usize,
        out_c: usize,
        kernel: usize,
        stride: usize,
        pad: usize,
    ) -> Result<Self> {
        if in_c == 0 || in_h == 0 || in_w == 0 || out_c == 0 || kernel == 0 {
            return Err(TensorError::BadGeometry("zero-sized convolution extent".into()));
        }
        if stride == 0 {
            return Err(TensorError::BadGeometry("stride must be positive".into()));
        }
        if in_h + 2 * pad < kernel || in_w + 2 * pad < kernel {
            return Err(TensorError::BadGeometry(format!(
                "kernel {kernel} larger than padded input {}x{}",
                in_h + 2 * pad,
                in_w + 2 * pad
            )));
        }
        Ok(ConvGeometry { in_c, in_h, in_w, out_c, kernel, stride, pad, groups: 1 })
    }

    /// Returns this geometry with `groups` channel groups.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::BadGeometry`] if `groups` is zero or does
    /// not divide both `in_c` and `out_c`.
    pub fn with_groups(mut self, groups: usize) -> Result<Self> {
        if groups == 0 {
            return Err(TensorError::BadGeometry("groups must be positive".into()));
        }
        if !self.in_c.is_multiple_of(groups) || !self.out_c.is_multiple_of(groups) {
            return Err(TensorError::BadGeometry(format!(
                "groups {groups} must divide in_c {} and out_c {}",
                self.in_c, self.out_c
            )));
        }
        self.groups = groups;
        Ok(self)
    }

    /// The geometry of one channel group (a dense convolution over
    /// `in_c/G` input and `out_c/G` output channels).
    pub fn group_geometry(&self) -> ConvGeometry {
        ConvGeometry {
            in_c: self.in_c / self.groups,
            out_c: self.out_c / self.groups,
            groups: 1,
            ..*self
        }
    }

    /// The stored weight tensor shape: `OutC × (InC/G) × k × k`.
    pub fn weight_dims(&self) -> [usize; 4] {
        [self.out_c, self.in_c / self.groups, self.kernel, self.kernel]
    }

    /// Output height.
    pub fn out_h(&self) -> usize {
        (self.in_h + 2 * self.pad - self.kernel) / self.stride + 1
    }

    /// Output width.
    pub fn out_w(&self) -> usize {
        (self.in_w + 2 * self.pad - self.kernel) / self.stride + 1
    }

    /// Number of weight parameters (excluding bias).
    pub fn weight_count(&self) -> usize {
        self.out_c * (self.in_c / self.groups) * self.kernel * self.kernel
    }

    /// Multiply-accumulate operations for one input image.
    pub fn macs(&self) -> usize {
        self.out_h() * self.out_w() * self.out_c * self.col_height()
    }

    /// Length of one im2col column (= synapses per output neuron).
    pub fn col_height(&self) -> usize {
        (self.in_c / self.groups) * self.kernel * self.kernel
    }

    /// Number of im2col columns (= output spatial positions).
    pub fn col_width(&self) -> usize {
        self.out_h() * self.out_w()
    }
}

/// Unrolls one `C×H×W` image into a `(C·k·k) × (OH·OW)` patch matrix.
///
/// Out-of-bounds (padding) positions contribute zeros.
///
/// # Errors
///
/// Returns [`TensorError::ShapeMismatch`] if `input` does not match the
/// geometry's `C×H×W` extents.
pub fn im2col(input: &Tensor, g: &ConvGeometry) -> Result<Tensor> {
    let expect = Shape::new(vec![g.in_c, g.in_h, g.in_w]);
    if input.shape() != &expect {
        return Err(TensorError::ShapeMismatch {
            left: input.shape().clone(),
            right: expect,
            op: "im2col",
        });
    }
    let (oh, ow) = (g.out_h(), g.out_w());
    let k = g.kernel;
    let mut cols = vec![0.0f32; g.col_height() * g.col_width()];
    let x = input.as_slice();
    let col_w = oh * ow;
    for c in 0..g.in_c {
        for ky in 0..k {
            for kx in 0..k {
                let row = (c * k + ky) * k + kx;
                let base = row * col_w;
                for oy in 0..oh {
                    let iy = (oy * g.stride + ky) as isize - g.pad as isize;
                    if iy < 0 || iy >= g.in_h as isize {
                        continue;
                    }
                    let iy = iy as usize;
                    for ox in 0..ow {
                        let ix = (ox * g.stride + kx) as isize - g.pad as isize;
                        if ix < 0 || ix >= g.in_w as isize {
                            continue;
                        }
                        cols[base + oy * ow + ox] = x[(c * g.in_h + iy) * g.in_w + ix as usize];
                    }
                }
            }
        }
    }
    Tensor::from_vec(cols, Shape::d2(g.col_height(), g.col_width()))
}

/// Batched `i8` im2col for the fused quantized conv path: gathers the
/// receptive fields of **all `batch` images at once** into one
/// `col_height × (OH·OW·batch)` column matrix, so a whole batch becomes a
/// single packed-GEMM call per layer (per group) instead of `batch` of
/// them.
///
/// Layout contract (the *element-interleaved* fused layout): activations
/// arrive with the batch innermost — element `e` of image `b` at
/// `input[e · batch + b]`, `e` in the usual `C×H×W` order — and the
/// column matrix is written the same way: synapse `s` of output pixel `p`
/// for image `b` lands at `xt[(s · npix + p) · batch + b]`. Because the
/// GEMM output `out_c × (npix · batch)` then has column index
/// `p · batch + b`, it **is** the next layer's element-interleaved input:
/// no transpose or re-staging anywhere between layers, and a linear
/// layer's interleaved activation buffer is directly its `k × batch`
/// column matrix. With `batch = 1` this degenerates to the per-image
/// im2col layout exactly.
///
/// The interleave also pays in the gather itself: the padding test is
/// decided once per (synapse, output row), and the row's in-image pixels
/// then move as one contiguous run when the stride is 1 (`batch`
/// contiguous bytes per pixel otherwise), so bounds logic is amortized
/// across the row and the batch alike.
///
/// `grp` selects one channel group of a grouped convolution (`0` for the
/// dense case); `xt` must hold exactly one group's column matrix.
///
/// # Errors
///
/// Returns [`TensorError::BadGeometry`] for a zero batch or an
/// out-of-range group, [`TensorError::DataLength`] if `input` is not
/// `batch` interleaved images or `xt` is not the group's
/// `col_height × npix × batch` column buffer.
pub fn im2col_batched_i8(
    input: &[i8],
    g: &ConvGeometry,
    grp: usize,
    batch: usize,
    xt: &mut [i8],
) -> Result<()> {
    if batch == 0 {
        return Err(TensorError::BadGeometry("batched im2col needs a positive batch".into()));
    }
    if grp >= g.groups {
        return Err(TensorError::BadGeometry(format!(
            "im2col group {grp} out of {} groups",
            g.groups
        )));
    }
    let expect_in = g.in_c * g.in_h * g.in_w * batch;
    if input.len() != expect_in {
        return Err(TensorError::DataLength { expected: expect_in, actual: input.len() });
    }
    let (oh, ow) = (g.out_h(), g.out_w());
    let npix = oh * ow;
    let group_in = g.in_c / g.groups;
    let syn = group_in * g.kernel * g.kernel;
    let expect_out = syn * npix * batch;
    if xt.len() != expect_out {
        return Err(TensorError::DataLength { expected: expect_out, actual: xt.len() });
    }
    let c_lo = grp * group_in;
    let (k, stride, pad) = (g.kernel, g.stride, g.pad);
    let row_len = ow * batch;
    let mut si = 0usize;
    for c in c_lo..c_lo + group_in {
        for ky in 0..k {
            for kx in 0..k {
                // Output columns whose source lies inside the image:
                // `ix = ox·stride + kx − pad ∈ [0, in_w)` for `ox_lo ≤ ox < ox_hi`.
                let ox_lo = pad.saturating_sub(kx).div_ceil(stride).min(ow);
                let ox_hi = (g.in_w + pad).saturating_sub(kx).div_ceil(stride).clamp(ox_lo, ow);
                let rows = &mut xt[si * npix * batch..(si + 1) * npix * batch];
                for (oy, dst) in rows.chunks_exact_mut(row_len).enumerate() {
                    let iy = (oy * stride + ky) as isize - pad as isize;
                    if iy < 0 || iy >= g.in_h as isize {
                        dst.fill(0);
                        continue;
                    }
                    let src = &input[(c * g.in_h + iy as usize) * g.in_w * batch..];
                    dst[..ox_lo * batch].fill(0);
                    dst[ox_hi * batch..].fill(0);
                    if ox_hi == ox_lo {
                        continue;
                    }
                    let ix_lo = ox_lo * stride + kx - pad;
                    if stride == 1 {
                        // A stride-1 row's in-image pixels are one
                        // contiguous source run, `batch` bytes per pixel.
                        let len = (ox_hi - ox_lo) * batch;
                        dst[ox_lo * batch..ox_hi * batch]
                            .copy_from_slice(&src[ix_lo * batch..ix_lo * batch + len]);
                    } else {
                        for (i, d) in
                            dst[ox_lo * batch..ox_hi * batch].chunks_exact_mut(batch).enumerate()
                        {
                            let ix = ix_lo + i * stride;
                            for (d, &v) in d.iter_mut().zip(&src[ix * batch..(ix + 1) * batch]) {
                                *d = v;
                            }
                        }
                    }
                }
                si += 1;
            }
        }
    }
    Ok(())
}

/// Folds a patch matrix back into a `C×H×W` image, accumulating overlaps.
///
/// This is the adjoint of [`im2col`] and is used for the gradient with
/// respect to the convolution input.
///
/// # Errors
///
/// Returns [`TensorError::ShapeMismatch`] if `cols` does not have shape
/// `(C·k·k) × (OH·OW)`.
pub fn col2im(cols: &Tensor, g: &ConvGeometry) -> Result<Tensor> {
    let expect = Shape::d2(g.col_height(), g.col_width());
    if cols.shape() != &expect {
        return Err(TensorError::ShapeMismatch {
            left: cols.shape().clone(),
            right: expect,
            op: "col2im",
        });
    }
    let (oh, ow) = (g.out_h(), g.out_w());
    let k = g.kernel;
    let mut img = vec![0.0f32; g.in_c * g.in_h * g.in_w];
    let cd = cols.as_slice();
    let col_w = oh * ow;
    for c in 0..g.in_c {
        for ky in 0..k {
            for kx in 0..k {
                let row = (c * k + ky) * k + kx;
                let base = row * col_w;
                for oy in 0..oh {
                    let iy = (oy * g.stride + ky) as isize - g.pad as isize;
                    if iy < 0 || iy >= g.in_h as isize {
                        continue;
                    }
                    let iy = iy as usize;
                    for ox in 0..ow {
                        let ix = (ox * g.stride + kx) as isize - g.pad as isize;
                        if ix < 0 || ix >= g.in_w as isize {
                            continue;
                        }
                        img[(c * g.in_h + iy) * g.in_w + ix as usize] += cd[base + oy * ow + ox];
                    }
                }
            }
        }
    }
    Tensor::from_vec(img, Shape::new(vec![g.in_c, g.in_h, g.in_w]))
}

/// Computes one sample's output (`OutC×OH×OW`, flattened) into `out_sample`.
///
/// `gemm_fn` selects the GEMM kernel so the batch-parallel path can use the
/// serial kernel per worker (avoiding nested fan-out) while the serial path
/// lets the row-parallel GEMM accelerate single large images. Every kernel
/// choice accumulates in the same order, so the output bits never depend on
/// the schedule.
fn conv2d_forward_sample<G>(
    img: &Tensor,
    wmat: &Tensor,
    bias: &Tensor,
    g: &ConvGeometry,
    gg: &ConvGeometry,
    gemm_fn: &G,
    out_sample: &mut [f32],
) -> Result<()>
where
    G: Fn(&Tensor, Transpose, &Tensor, Transpose) -> Result<Tensor>,
{
    let spatial = g.out_h() * g.out_w();
    for grp in 0..g.groups {
        let gi = slice_channels(img, grp * gg.in_c, (grp + 1) * gg.in_c)?;
        let cols = im2col(&gi, gg)?;
        let wrows = slice_rows(wmat, grp * gg.out_c, (grp + 1) * gg.out_c)?;
        let gy = gemm_fn(&wrows, Transpose::No, &cols, Transpose::No)?;
        out_sample[grp * gg.out_c * spatial..(grp + 1) * gg.out_c * spatial]
            .copy_from_slice(gy.as_slice());
    }
    let bd = bias.as_slice();
    for oc in 0..g.out_c {
        let b = bd[oc];
        for v in &mut out_sample[oc * spatial..(oc + 1) * spatial] {
            *v += b;
        }
    }
    Ok(())
}

/// Batched convolution forward pass.
///
/// * `input` — `N×C×H×W`
/// * `weights` — `OutC×C×k×k`
/// * `bias` — `OutC`
///
/// Returns `N×OutC×OH×OW`.
///
/// With the `parallel` cargo feature enabled, large batches are split
/// across OS threads (one contiguous sample range per worker) and large
/// single images fall through to the row-parallel [`gemm`]; either way the
/// output is bit-identical to [`conv2d_forward_serial`].
///
/// # Errors
///
/// Returns a shape error if any operand disagrees with the geometry.
pub fn conv2d_forward(
    input: &Tensor,
    weights: &Tensor,
    bias: &Tensor,
    g: &ConvGeometry,
) -> Result<Tensor> {
    #[cfg(feature = "parallel")]
    {
        let n = input.shape().dim(0);
        if n >= 2 && n * g.macs() >= crate::par::MIN_MACS && crate::par::threads() >= 2 {
            return conv2d_forward_parallel(input, weights, bias, g);
        }
    }
    // Small batch: serial sample loop, but let the (possibly row-parallel)
    // dispatching `gemm` accelerate large single images.
    conv2d_forward_with(input, weights, bias, g, &gemm)
}

/// Shared serial batch loop; `gemm_fn` picks the GEMM kernel.
fn conv2d_forward_with<G>(
    input: &Tensor,
    weights: &Tensor,
    bias: &Tensor,
    g: &ConvGeometry,
    gemm_fn: &G,
) -> Result<Tensor>
where
    G: Fn(&Tensor, Transpose, &Tensor, Transpose) -> Result<Tensor>,
{
    let n = input.shape().dim(0);
    check_conv_operands(input, weights, bias, g)?;
    let gg = g.group_geometry();
    let wmat = weights.reshape([g.out_c, g.col_height()])?;
    let mut out = Tensor::zeros([n, g.out_c, g.out_h(), g.out_w()]);
    let sample_stride = g.out_c * g.out_h() * g.out_w();
    for (s, out_sample) in out.as_mut_slice().chunks_mut(sample_stride).enumerate() {
        let img = input.index_axis0(s);
        conv2d_forward_sample(&img, &wmat, bias, g, &gg, gemm_fn, out_sample)?;
    }
    Ok(out)
}

/// Single-threaded convolution forward — the deterministic reference path
/// (serial batch loop over the serial GEMM kernel).
///
/// # Errors
///
/// Returns a shape error if any operand disagrees with the geometry.
pub fn conv2d_forward_serial(
    input: &Tensor,
    weights: &Tensor,
    bias: &Tensor,
    g: &ConvGeometry,
) -> Result<Tensor> {
    conv2d_forward_with(input, weights, bias, g, &gemm_serial)
}

/// Batch-parallel convolution forward: samples are split across the
/// persistent `mfdfp-rt` pool, each task running the serial GEMM kernel on
/// its own disjoint output range. Bit-identical to [`conv2d_forward_serial`].
///
/// Prefer [`conv2d_forward`], which picks this path only when the batch is
/// large enough to repay the pool dispatch.
///
/// # Errors
///
/// Returns a shape error if any operand disagrees with the geometry.
#[cfg(feature = "parallel")]
pub fn conv2d_forward_parallel(
    input: &Tensor,
    weights: &Tensor,
    bias: &Tensor,
    g: &ConvGeometry,
) -> Result<Tensor> {
    let n = input.shape().dim(0);
    check_conv_operands(input, weights, bias, g)?;
    let gg = g.group_geometry();
    let wmat = weights.reshape([g.out_c, g.col_height()])?;
    let mut out = Tensor::zeros([n, g.out_c, g.out_h(), g.out_w()]);
    let sample_stride = g.out_c * g.out_h() * g.out_w();
    // Treat samples as "rows" of width `sample_stride`; operands were
    // validated above, so per-sample errors are unreachable.
    crate::par::for_each_row_chunk(out.as_mut_slice(), n, sample_stride, |s0, count, chunk| {
        for (off, out_sample) in chunk.chunks_mut(sample_stride).enumerate() {
            debug_assert!(off < count);
            let img = input.index_axis0(s0 + off);
            conv2d_forward_sample(&img, &wmat, bias, g, &gg, &gemm_serial, out_sample)
                .expect("conv operands validated before fan-out");
        }
    });
    Ok(out)
}

/// Extracts channels `[c0, c1)` from a `C×H×W` image.
fn slice_channels(img: &Tensor, c0: usize, c1: usize) -> Result<Tensor> {
    let dims = img.shape().dims();
    let (h, w) = (dims[1], dims[2]);
    let plane = h * w;
    let data = img.as_slice()[c0 * plane..c1 * plane].to_vec();
    Tensor::from_vec(data, Shape::new(vec![c1 - c0, h, w]))
}

/// Extracts rows `[r0, r1)` of a rank-2 tensor.
fn slice_rows(m: &Tensor, r0: usize, r1: usize) -> Result<Tensor> {
    let cols = m.shape().dim(1);
    let data = m.as_slice()[r0 * cols..r1 * cols].to_vec();
    Tensor::from_vec(data, Shape::d2(r1 - r0, cols))
}

/// Gradients of a batched convolution.
///
/// Given upstream gradient `grad_out` (`N×OutC×OH×OW`), returns
/// `(grad_input, grad_weights, grad_bias)` with the shapes of the
/// corresponding forward operands. Weight and bias gradients are summed over
/// the batch.
///
/// # Errors
///
/// Returns a shape error if any operand disagrees with the geometry.
pub fn conv2d_backward(
    input: &Tensor,
    weights: &Tensor,
    grad_out: &Tensor,
    g: &ConvGeometry,
) -> Result<(Tensor, Tensor, Tensor)> {
    let n = input.shape().dim(0);
    let (oh, ow) = (g.out_h(), g.out_w());
    let expect_go = Shape::nchw(n, g.out_c, oh, ow);
    if grad_out.shape() != &expect_go {
        return Err(TensorError::ShapeMismatch {
            left: grad_out.shape().clone(),
            right: expect_go,
            op: "conv2d_backward (grad_out)",
        });
    }
    let gg = g.group_geometry();
    let wmat = weights.reshape([g.out_c, g.col_height()])?;
    let mut grad_input = Tensor::zeros(input.shape().clone());
    let mut grad_w = Tensor::zeros([g.out_c, g.col_height()]);
    let mut grad_b = Tensor::zeros([g.out_c]);
    let spatial = oh * ow;
    for s in 0..n {
        let img = input.index_axis0(s);
        let go = grad_out.index_axis0(s).reshape([g.out_c, spatial])?;
        let mut dimg = Tensor::zeros([g.in_c, g.in_h, g.in_w]);
        for grp in 0..g.groups {
            let gi = slice_channels(&img, grp * gg.in_c, (grp + 1) * gg.in_c)?;
            let cols = im2col(&gi, &gg)?;
            let ggo = slice_rows(&go, grp * gg.out_c, (grp + 1) * gg.out_c)?;
            // dW += dOut × colsᵀ (this group's rows)
            let dw = gemm(&ggo, Transpose::No, &cols, Transpose::Yes)?;
            let row_len = g.col_height();
            for (r, dst) in (grp * gg.out_c..(grp + 1) * gg.out_c).enumerate() {
                for c in 0..row_len {
                    grad_w.as_mut_slice()[dst * row_len + c] += dw.as_slice()[r * row_len + c];
                }
            }
            // dX = col2im(Wᵀ × dOut) (this group's channels)
            let wrows = slice_rows(&wmat, grp * gg.out_c, (grp + 1) * gg.out_c)?;
            let dcols = gemm(&wrows, Transpose::Yes, &ggo, Transpose::No)?;
            let gdimg = col2im(&dcols, &gg)?;
            let plane = g.in_h * g.in_w;
            dimg.as_mut_slice()[grp * gg.in_c * plane..(grp + 1) * gg.in_c * plane]
                .copy_from_slice(gdimg.as_slice());
        }
        // dBias += row sums of dOut
        {
            let gb = grad_b.as_mut_slice();
            let god = go.as_slice();
            for oc in 0..g.out_c {
                gb[oc] += god[oc * spatial..(oc + 1) * spatial].iter().sum::<f32>();
            }
        }
        grad_input.set_axis0(s, &dimg);
    }
    let grad_w = grad_w.reshape(g.weight_dims().to_vec())?;
    Ok((grad_input, grad_w, grad_b))
}

fn check_conv_operands(
    input: &Tensor,
    weights: &Tensor,
    bias: &Tensor,
    g: &ConvGeometry,
) -> Result<()> {
    let n = input.shape().dim(0);
    let expect_in = Shape::nchw(n, g.in_c, g.in_h, g.in_w);
    if input.shape() != &expect_in {
        return Err(TensorError::ShapeMismatch {
            left: input.shape().clone(),
            right: expect_in,
            op: "conv2d (input)",
        });
    }
    let wd = g.weight_dims();
    let expect_w = Shape::nchw(wd[0], wd[1], wd[2], wd[3]);
    if weights.shape() != &expect_w {
        return Err(TensorError::ShapeMismatch {
            left: weights.shape().clone(),
            right: expect_w,
            op: "conv2d (weights)",
        });
    }
    let expect_b = Shape::d1(g.out_c);
    if bias.shape() != &expect_b {
        return Err(TensorError::ShapeMismatch {
            left: bias.shape().clone(),
            right: expect_b,
            op: "conv2d (bias)",
        });
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn naive_conv(input: &Tensor, weights: &Tensor, bias: &Tensor, g: &ConvGeometry) -> Tensor {
        let n = input.shape().dim(0);
        let (oh, ow) = (g.out_h(), g.out_w());
        let mut out = Tensor::zeros([n, g.out_c, oh, ow]);
        for s in 0..n {
            for oc in 0..g.out_c {
                for oy in 0..oh {
                    for ox in 0..ow {
                        let mut acc = bias.as_slice()[oc];
                        for c in 0..g.in_c {
                            for ky in 0..g.kernel {
                                for kx in 0..g.kernel {
                                    let iy = (oy * g.stride + ky) as isize - g.pad as isize;
                                    let ix = (ox * g.stride + kx) as isize - g.pad as isize;
                                    if iy < 0
                                        || ix < 0
                                        || iy >= g.in_h as isize
                                        || ix >= g.in_w as isize
                                    {
                                        continue;
                                    }
                                    acc += input.at(&[s, c, iy as usize, ix as usize])
                                        * weights.at(&[oc, c, ky, kx]);
                                }
                            }
                        }
                        *out.at_mut(&[s, oc, oy, ox]) = acc;
                    }
                }
            }
        }
        out
    }

    fn det_tensor(shape: &[usize], scale: f32) -> Tensor {
        // Deterministic pseudo-random-ish values without an RNG dependency.
        Tensor::from_fn(shape.to_vec(), |i| {
            let v = ((i * 2654435761) % 1000) as f32 / 1000.0 - 0.5;
            v * scale
        })
    }

    #[test]
    fn geometry_output_sizes() {
        let g = ConvGeometry::new(3, 32, 32, 32, 5, 1, 2).unwrap();
        assert_eq!((g.out_h(), g.out_w()), (32, 32));
        let g = ConvGeometry::new(3, 227, 227, 96, 11, 4, 0).unwrap();
        assert_eq!((g.out_h(), g.out_w()), (55, 55)); // AlexNet conv1
        let g = ConvGeometry::new(1, 4, 4, 1, 3, 1, 0).unwrap();
        assert_eq!((g.out_h(), g.out_w()), (2, 2));
    }

    #[test]
    fn geometry_validation() {
        assert!(ConvGeometry::new(0, 8, 8, 4, 3, 1, 0).is_err());
        assert!(ConvGeometry::new(3, 8, 8, 4, 3, 0, 0).is_err());
        assert!(ConvGeometry::new(3, 2, 2, 4, 5, 1, 0).is_err());
        assert!(ConvGeometry::new(3, 2, 2, 4, 5, 1, 2).is_ok()); // pad rescues it
    }

    #[test]
    fn geometry_macs_and_params() {
        let g = ConvGeometry::new(3, 32, 32, 32, 5, 1, 2).unwrap();
        assert_eq!(g.weight_count(), 32 * 3 * 25);
        assert_eq!(g.macs(), 32 * 32 * 32 * 75);
    }

    #[test]
    fn im2col_identity_kernel() {
        // 1×1 kernel, no pad: im2col is just a reshape.
        let g = ConvGeometry::new(2, 3, 3, 1, 1, 1, 0).unwrap();
        let img = det_tensor(&[2, 3, 3], 1.0);
        let cols = im2col(&img, &g).unwrap();
        assert_eq!(cols.shape().dims(), &[2, 9]);
        assert_eq!(cols.as_slice(), img.as_slice());
    }

    #[test]
    fn im2col_known_values() {
        // 1 channel 3×3 image, 2×2 kernel, stride 1, no pad.
        let img = Tensor::from_vec((1..=9).map(|v| v as f32).collect(), Shape::new(vec![1, 3, 3]))
            .unwrap();
        let g = ConvGeometry::new(1, 3, 3, 1, 2, 1, 0).unwrap();
        let cols = im2col(&img, &g).unwrap();
        // Columns are output positions (4), rows kernel taps (4).
        assert_eq!(cols.shape().dims(), &[4, 4]);
        // First row: top-left tap over the 4 windows.
        assert_eq!(&cols.as_slice()[0..4], &[1.0, 2.0, 4.0, 5.0]);
        // Last row: bottom-right tap.
        assert_eq!(&cols.as_slice()[12..16], &[5.0, 6.0, 8.0, 9.0]);
    }

    #[test]
    fn forward_matches_naive_padded_strided() {
        for (stride, pad) in [(1, 0), (1, 2), (2, 1), (2, 2)] {
            let g = ConvGeometry::new(3, 8, 8, 4, 3, stride, pad).unwrap();
            let x = det_tensor(&[2, 3, 8, 8], 1.0);
            let w = det_tensor(&[4, 3, 3, 3], 0.5);
            let b = det_tensor(&[4], 0.1);
            let fast = conv2d_forward(&x, &w, &b, &g).unwrap();
            let slow = naive_conv(&x, &w, &b, &g);
            assert_eq!(fast.shape(), slow.shape());
            for (a, c) in fast.as_slice().iter().zip(slow.as_slice()) {
                assert!((a - c).abs() < 1e-4, "stride={stride} pad={pad}: {a} vs {c}");
            }
        }
    }

    #[test]
    fn forward_rejects_bad_shapes() {
        let g = ConvGeometry::new(3, 8, 8, 4, 3, 1, 0).unwrap();
        let x = Tensor::zeros([2, 3, 8, 8]);
        let w = Tensor::zeros([4, 3, 3, 3]);
        let b = Tensor::zeros([4]);
        assert!(conv2d_forward(&x, &w, &b, &g).is_ok());
        let bad_w = Tensor::zeros([4, 3, 5, 5]);
        assert!(conv2d_forward(&x, &bad_w, &b, &g).is_err());
        let bad_b = Tensor::zeros([5]);
        assert!(conv2d_forward(&x, &w, &bad_b, &g).is_err());
        let bad_x = Tensor::zeros([2, 1, 8, 8]);
        assert!(conv2d_forward(&bad_x, &w, &b, &g).is_err());
    }

    #[test]
    fn col2im_is_adjoint_of_im2col() {
        // ⟨im2col(x), y⟩ == ⟨x, col2im(y)⟩ — the defining adjoint property,
        // which is exactly what backprop relies on.
        let g = ConvGeometry::new(2, 6, 6, 3, 3, 2, 1).unwrap();
        let x = det_tensor(&[2, 6, 6], 1.0);
        let y = det_tensor(&[g.col_height(), g.col_width()], 1.0);
        let lhs = im2col(&x, &g).unwrap().dot(&y).unwrap();
        let rhs = x.dot(&col2im(&y, &g).unwrap()).unwrap();
        assert!((lhs - rhs).abs() < 1e-3, "{lhs} vs {rhs}");
    }

    #[test]
    fn backward_weight_grad_matches_finite_difference() {
        let g = ConvGeometry::new(2, 5, 5, 3, 3, 1, 1).unwrap();
        let x = det_tensor(&[1, 2, 5, 5], 1.0);
        let mut w = det_tensor(&[3, 2, 3, 3], 0.5);
        let b = det_tensor(&[3], 0.1);

        // Loss = sum(conv(x)) ⇒ upstream gradient of ones.
        let out_shape = [1, 3, g.out_h(), g.out_w()];
        let ones = Tensor::ones(out_shape.to_vec());
        let (_, gw, gb) = conv2d_backward(&x, &w, &ones, &g).unwrap();

        let eps = 1e-2;
        for idx in [0usize, 7, 23, 53] {
            let orig = w.as_slice()[idx];
            w.as_mut_slice()[idx] = orig + eps;
            let up = conv2d_forward(&x, &w, &b, &g).unwrap().sum();
            w.as_mut_slice()[idx] = orig - eps;
            let down = conv2d_forward(&x, &w, &b, &g).unwrap().sum();
            w.as_mut_slice()[idx] = orig;
            let numeric = (up - down) / (2.0 * eps);
            let analytic = gw.as_slice()[idx];
            assert!(
                (numeric - analytic).abs() < 1e-2,
                "weight {idx}: numeric {numeric} vs analytic {analytic}"
            );
        }
        // Bias gradient of a sum-loss is the number of output positions.
        let spatial = (g.out_h() * g.out_w()) as f32;
        for &gbv in gb.as_slice() {
            assert!((gbv - spatial).abs() < 1e-3);
        }
    }

    #[test]
    fn backward_input_grad_matches_finite_difference() {
        let g = ConvGeometry::new(1, 4, 4, 2, 3, 1, 0).unwrap();
        let mut x = det_tensor(&[1, 1, 4, 4], 1.0);
        let w = det_tensor(&[2, 1, 3, 3], 0.5);
        let b = Tensor::zeros([2]);
        let ones = Tensor::ones(vec![1, 2, g.out_h(), g.out_w()]);
        let (gx, _, _) = conv2d_backward(&x, &w, &ones, &g).unwrap();
        let eps = 1e-2;
        for idx in [0usize, 5, 10, 15] {
            let orig = x.as_slice()[idx];
            x.as_mut_slice()[idx] = orig + eps;
            let up = conv2d_forward(&x, &w, &b, &g).unwrap().sum();
            x.as_mut_slice()[idx] = orig - eps;
            let down = conv2d_forward(&x, &w, &b, &g).unwrap().sum();
            x.as_mut_slice()[idx] = orig;
            let numeric = (up - down) / (2.0 * eps);
            let analytic = gx.as_slice()[idx];
            assert!(
                (numeric - analytic).abs() < 1e-2,
                "input {idx}: numeric {numeric} vs analytic {analytic}"
            );
        }
    }

    #[test]
    fn grouped_geometry_validation() {
        let g = ConvGeometry::new(4, 8, 8, 6, 3, 1, 1).unwrap();
        assert!(g.with_groups(0).is_err());
        assert!(g.with_groups(3).is_err()); // 4 % 3 != 0
        let g2 = g.with_groups(2).unwrap();
        assert_eq!(g2.groups, 2);
        assert_eq!(g2.weight_dims(), [6, 2, 3, 3]);
        assert_eq!(g2.weight_count(), 6 * 2 * 9);
        assert_eq!(g2.col_height(), 2 * 9);
        // Grouping halves the MACs.
        assert_eq!(g2.macs() * 2, g.macs());
    }

    #[test]
    fn grouped_forward_matches_two_independent_convs() {
        // A 2-group conv must equal two dense convs over the channel halves.
        let g = ConvGeometry::new(4, 6, 6, 4, 3, 1, 1).unwrap().with_groups(2).unwrap();
        let half = g.group_geometry();
        let x = det_tensor(&[1, 4, 6, 6], 1.0);
        let w = det_tensor(&[4, 2, 3, 3], 0.5);
        let b = det_tensor(&[4], 0.1);
        let full = conv2d_forward(&x, &w, &b, &g).unwrap();

        // Manual per-group computation.
        for grp in 0..2 {
            let xi = Tensor::from_vec(
                x.as_slice()[grp * 2 * 36..(grp + 1) * 2 * 36].to_vec(),
                Shape::nchw(1, 2, 6, 6),
            )
            .unwrap();
            let wi = Tensor::from_vec(
                w.as_slice()[grp * 2 * 18..(grp + 1) * 2 * 18].to_vec(),
                Shape::nchw(2, 2, 3, 3),
            )
            .unwrap();
            let bi = Tensor::from_slice(&b.as_slice()[grp * 2..(grp + 1) * 2]);
            let yi = conv2d_forward(&xi, &wi, &bi, &half).unwrap();
            let plane = 36;
            for oc in 0..2 {
                for p in 0..plane {
                    let full_v = full.as_slice()[(grp * 2 + oc) * plane + p];
                    let part_v = yi.as_slice()[oc * plane + p];
                    assert!((full_v - part_v).abs() < 1e-5, "group {grp} oc {oc} p {p}");
                }
            }
        }
    }

    #[test]
    fn grouped_backward_matches_finite_difference() {
        let g = ConvGeometry::new(4, 5, 5, 4, 3, 1, 1).unwrap().with_groups(2).unwrap();
        let x = det_tensor(&[1, 4, 5, 5], 1.0);
        let mut w = det_tensor(&[4, 2, 3, 3], 0.5);
        let b = det_tensor(&[4], 0.1);
        let ones = Tensor::ones(vec![1, 4, g.out_h(), g.out_w()]);
        let (gx, gw, _) = conv2d_backward(&x, &w, &ones, &g).unwrap();
        assert_eq!(gx.shape(), x.shape());
        assert_eq!(gw.shape().dims(), &[4, 2, 3, 3]);
        let eps = 1e-2;
        for idx in [0usize, 17, 40, 71] {
            let orig = w.as_slice()[idx];
            w.as_mut_slice()[idx] = orig + eps;
            let up = conv2d_forward(&x, &w, &b, &g).unwrap().sum();
            w.as_mut_slice()[idx] = orig - eps;
            let down = conv2d_forward(&x, &w, &b, &g).unwrap().sum();
            w.as_mut_slice()[idx] = orig;
            let numeric = (up - down) / (2.0 * eps);
            assert!(
                (numeric - gw.as_slice()[idx]).abs() < 1e-2,
                "weight {idx}: numeric {numeric} vs analytic {}",
                gw.as_slice()[idx]
            );
        }
    }

    #[test]
    fn grouped_blocks_cross_group_gradient_flow() {
        // Input channels of group 0 must get zero gradient from output
        // channels of group 1.
        let g = ConvGeometry::new(2, 4, 4, 2, 3, 1, 1).unwrap().with_groups(2).unwrap();
        let x = det_tensor(&[1, 2, 4, 4], 1.0);
        let w = det_tensor(&[2, 1, 3, 3], 0.5);
        // Upstream gradient only on output channel 1 (group 1).
        let mut go = Tensor::zeros([1, 2, 4, 4]);
        for p in 0..16 {
            go.as_mut_slice()[16 + p] = 1.0;
        }
        let (gx, _, _) = conv2d_backward(&x, &w, &go, &g).unwrap();
        // Gradient w.r.t. input channel 0 (group 0) must be all zero.
        assert!(gx.as_slice()[..16].iter().all(|&v| v == 0.0));
        assert!(gx.as_slice()[16..].iter().any(|&v| v != 0.0));
    }
}
