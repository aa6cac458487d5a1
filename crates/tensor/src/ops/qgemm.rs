//! Shift-only GEMM over packed 4-bit power-of-two weight codes — the
//! paper's signature operation, specialised for its encoding.
//!
//! The decode-based datapath model (`mac_reduce` in `mfdfp-accel`) unpacks
//! every nibble to a `Pow2Weight` and dispatches a per-element
//! [`mul_shift`](mfdfp_dfp::Pow2Weight::mul_shift); correct, but the
//! hottest loop in the system pays decode and branch cost on every
//! synapse. This kernel instead streams the packed bytes of a
//! [`PackedPow2Matrix`] and resolves each nibble code `c` through two
//! 16-entry tables — **no branch and no multiply anywhere in the loop**:
//!
//! * `SHIFT[c]` — the left-shift amount `e + 7 ∈ [0, 7]` (bits 2..0 of
//!   the code store `−e`),
//! * `SIGN_MASK[c]` — an all-ones/all-zero mask (bit 3 of the code stores
//!   the sign); the product is `((x << SHIFT[c]) ^ m) − m`, the classic
//!   branch-free negate-by-mask, splitting each contribution onto the
//!   positive or negative side of the accumulation.
//!
//! The loop nest is arranged so the table lookups happen **once per
//! weight nibble, not once per MAC**: activations arrive in the standard
//! im2col layout (`k × ncols`, one synapse's values across all output
//! columns contiguous), the nibble's shift amount and sign mask hoist out
//! of the column loop, and what remains per MAC is `shift, xor, sub, add`
//! with a loop-invariant shift count — a shape LLVM auto-vectorizes.
//! Partial sums accumulate in 32-bit lanes (products fit 16 bits, so
//! 2^14-synapse chunks cannot overflow) and flush to the 64-bit
//! accumulator per chunk; the row result plus bias is routed to the 8-bit
//! output exactly like the hardware's "Accumulator & Routing" block.
//! Because the products are the same integers the decode path computes
//! and integer addition is associative, the result is **bit-identical**
//! to the decode-based reference for every input (property-tested in
//! `crates/accel/tests/qgemm_equivalence.rs`).
//!
//! Activations enter as raw 8-bit codes in the im2col layout and are
//! widened in register; the kernel's accumulator lanes live in per-thread
//! scratch (`with_acc_lanes` in the [`crate::workspace`] module), so a
//! warmed thread — e.g. a persistent `mfdfp-rt` pool worker — runs the
//! kernel with zero heap allocations. [`qgemm_fused_into_i8`] is the one
//! entry: a single image is the fused batch of one.
//!
//! Audits, derived for the `i8` operand width:
//!
//! * **Operands — structural.** Every code satisfies `|x| ≤ 128` and every
//!   shift amount `sh ≤ 7`, so each product obeys `|p| ≤ 2^14`: it fits
//!   the 16-bit product register (and the `i16` lanes the MAC body
//!   stages it in) by construction, and no operand scan runs.
//! * **Partial sums.** Chunks of `ACC32_CHUNK` = `2^14` products sum to
//!   at most `2^28` in magnitude, inside the `i32` partial lanes, before
//!   each chunk flushes to the 64-bit accumulator.
//! * **Accumulator.** Each routed output (bias included) is checked
//!   against the 32-bit accumulator register;
//!   [`TensorError::QuantizedOverflow`] mirrors the decode path's
//!   per-level overflow audits at kernel granularity.
//!
//! The bit-identical contract is over **successful** results: the decode
//! path audits the 32-bit accumulator after every 16-product chunk, this
//! kernel audits the final per-output sum, so a layer whose same-sign
//! partials transiently exceed 2^31 before cancelling back (needs > 2^17
//! synapses of worst-case magnitude — far beyond any layer here, whose
//! bound the `Accumulator` docs derive as ≤ 2^26) can error on one path
//! and route on the other.

use mfdfp_dfp::{fits_in_bits, realign, saturate, PackedPow2Matrix, ACCUMULATOR_BITS};

use crate::error::{Result, TensorError};
use crate::workspace::with_acc_lanes;

/// Row width below which the multiversioned SIMD body is not worth its
/// call overhead: narrow rows — above all `ncols = 1`, every single-image
/// `ShiftLinear` — take the always-inlined scalar body instead, so the
/// feature check and the non-inlinable `#[target_feature]` call are
/// hoisted out of the per-synapse path exactly where they cannot pay.
const SIMD_MIN_ROW: usize = 16;

/// One synapse's contribution across a whole activation row:
/// `acc[j] += ((x[j] << sh) ^ m) − m` — the negate-by-mask MAC body. The
/// shifted product of an 8-bit code fits 16 bits (`|x| ≤ 128`, `sh ≤ 7`
/// ⇒ `|x << sh| ≤ 2^14`), so the shift and the negate-by-mask run at
/// `i16` width and only the final accumulate widens to 32 bits — exact at
/// every step, with twice the SIMD lanes of an `i32` body.
#[inline]
fn accumulate_row(acc: &mut [i32], xrow: &[i8], sh: u32, m: i32) {
    #[cfg(target_arch = "x86_64")]
    if xrow.len() >= SIMD_MIN_ROW && std::arch::is_x86_feature_detected!("avx2") {
        // SAFETY: the AVX2 requirement is runtime-checked just above
        // (the detection result is cached by std, so this is a load and
        // branch, not a CPUID, on the hot path).
        unsafe { accumulate_row_avx2(acc, xrow, sh, m) };
        return;
    }
    let m16 = m as i16;
    for (a, &x) in acc.iter_mut().zip(xrow) {
        let p = (((x as i16) << sh) ^ m16) - m16;
        *a += p as i32;
    }
}

/// The MAC body compiled with AVX2 codegen: identical Rust to the
/// portable body in [`accumulate_row`], so results are bit-identical —
/// integer shift/xor/sub/add do not change meaning with vector width;
/// only the throughput does (the `i16`-staged shift/negate runs 16 lanes
/// per instruction).
///
/// # Safety
///
/// Callers must have verified AVX2 support at runtime
/// (`is_x86_feature_detected!("avx2")`).
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn accumulate_row_avx2(acc: &mut [i32], xrow: &[i8], sh: u32, m: i32) {
    let m16 = m as i16;
    for (a, &x) in acc.iter_mut().zip(xrow) {
        let p = (((x as i16) << sh) ^ m16) - m16;
        *a += p as i32;
    }
}

/// Left-shift amount per 4-bit code: `e + 7` where `e = −(code & 7)`.
const SHIFT: [u32; 16] = build_shift_table();
/// Negate-by-mask operand per 4-bit code: `-1` (all ones) for
/// negative-sign codes (bit 3 set), `0` otherwise; the signed product is
/// `(shifted ^ mask) − mask`.
const SIGN_MASK: [i32; 16] = build_sign_table();

/// Synapse-chunk length for the 32-bit partial accumulators: `i8`
/// products are bounded by `2^14`, so `2^14` of them reach at most `2^28`
/// in magnitude — safely inside `i32` — before flushing to the 64-bit
/// accumulator.
const ACC32_CHUNK: usize = 1 << 14;

const fn build_shift_table() -> [u32; 16] {
    let mut t = [0u32; 16];
    let mut c = 0;
    while c < 16 {
        t[c] = 7 - (c as u32 & 7);
        c += 1;
    }
    t
}

const fn build_sign_table() -> [i32; 16] {
    let mut t = [0i32; 16];
    let mut c = 0;
    while c < 16 {
        t[c] = if c & 8 != 0 { -1 } else { 0 };
        c += 1;
    }
    t
}

/// Shape validation of the entry point.
fn qgemm_check(
    w: &PackedPow2Matrix,
    row0: usize,
    rows: usize,
    xt: &[i8],
    ncols: usize,
    bias: &[i64],
    out_len: usize,
) -> Result<()> {
    let k = w.cols();
    if row0 + rows > w.rows() {
        return Err(TensorError::BadGeometry(format!(
            "qgemm row band {row0}..{} exceeds {} weight rows",
            row0 + rows,
            w.rows()
        )));
    }
    if xt.len() != ncols * k {
        return Err(TensorError::DataLength { expected: ncols * k, actual: xt.len() });
    }
    if bias.len() != rows {
        return Err(TensorError::DataLength { expected: rows, actual: bias.len() });
    }
    if out_len != rows * ncols {
        return Err(TensorError::DataLength { expected: rows * ncols, actual: out_len });
    }
    Ok(())
}

/// The serial band kernel: computes output rows `[band0, band0 + rows)` of
/// the packed product into `out` (`rows × ncols`, row-major activation
/// codes). `bias` is indexed relative to the band. The `i8` codes are
/// widened in register, one sign-extending load per MAC.
///
/// Loop nest: per weight nibble, the shift amount and sign mask are
/// resolved **once** and applied across the whole activation row (the
/// im2col layout makes that row contiguous); the per-MAC body is
/// `widen, shift, xor, sub, add` with a loop-invariant shift count —
/// branch-free, multiplier-free, and auto-vectorizable. Each synapse
/// contributes on its sign's side of the accumulation via negate-by-mask;
/// the pad nibble of an odd-length row is never read because `c` stops at
/// `cols`.
///
/// The accumulator lanes come from the calling thread's persistent
/// scratch ([`with_acc_lanes`]) — the parallel dispatcher runs one band
/// per pool thread, so after each thread's first call the kernel
/// allocates nothing.
#[allow(clippy::too_many_arguments)] // private kernel: slices + full index frame
fn qgemm_band(
    w: &PackedPow2Matrix,
    band0: usize,
    rows: usize,
    xt: &[i8],
    ncols: usize,
    bias: &[i64],
    acc_frac: i32,
    out_frac: i32,
    out: &mut [i8],
) -> Result<()> {
    let k = w.cols();
    // Op-count telemetry, amortized: one fetch_add per band call (the
    // parallel dispatcher calls once per row chunk), never per MAC.
    mfdfp_obs::ops::record_shift_macs((rows * k * ncols) as u64);
    with_acc_lanes(ncols, |acc64, acc32| {
        for r in 0..rows {
            let wrow = w.row_bytes(band0 + r);
            acc64.fill(bias[r]);
            for c0 in (0..k).step_by(ACC32_CHUNK) {
                let c1 = (c0 + ACC32_CHUNK).min(k);
                acc32.fill(0);
                for c in c0..c1 {
                    let code = ((wrow[c >> 1] >> ((c & 1) * 4)) & 0xF) as usize;
                    let xrow = &xt[c * ncols..(c + 1) * ncols];
                    accumulate_row(acc32, xrow, SHIFT[code], SIGN_MASK[code]);
                }
                for (a64, &a32) in acc64.iter_mut().zip(acc32.iter()) {
                    *a64 += a32 as i64;
                }
            }
            let orow = &mut out[r * ncols..(r + 1) * ncols];
            for (o, &acc) in orow.iter_mut().zip(acc64.iter()) {
                if !fits_in_bits(acc, ACCUMULATOR_BITS) {
                    mfdfp_obs::ops::record_overflow_audit();
                    return Err(TensorError::QuantizedOverflow {
                        value: acc,
                        bits: ACCUMULATOR_BITS,
                    });
                }
                *o = saturate(realign(acc, acc_frac, out_frac), 8) as i8;
            }
        }
        Ok(())
    })
}

/// The packed shift-only GEMM: computes output rows `[row0, row0 + rows)`
/// of `out = route(W · Xᵀ + bias)` over the **fused** column matrix of a
/// whole batch, into a caller-provided buffer.
///
/// * `w` — packed `R × k` power-of-two weight matrix; the band selects
///   rows `row0..row0 + rows` (e.g. one group of a grouped convolution).
/// * `xt` — the activation codes in the batched im2col layout produced by
///   [`im2col_batched_i8`](crate::ops::conv::im2col_batched_i8):
///   `k × (ncols_per_image · batch)` row-major, the batch interleaved
///   innermost (column `j = p · batch + b` is output pixel `p` of image
///   `b`), so one synapse's activations across all columns are contiguous
///   and the per-nibble tables hoist out of the column loop. With
///   `batch = 1` this is the plain per-image im2col matrix.
/// * `bias` — `rows` accumulator-format biases (fractional length
///   `acc_frac`), relative to the band.
/// * `acc_frac`/`out_frac` — the radix control signals `m + 7` and `n` of
///   the routing stage; `out` receives the band's
///   `rows × (ncols_per_image · batch)` saturated 8-bit codes in the same
///   interleaved order, ready to be the next layer's input.
///
/// **Bit-identity contract.** The band kernel computes every output
/// element by walking synapses `c = 0..k` in a fixed order that chunks
/// over `k` only — the column count never changes the per-element
/// accumulation order. A fused call therefore yields, column for column,
/// exactly the integers `batch` single-image calls produce (property-
/// tested in `crates/tensor/tests/properties.rs`), and the shift-MAC
/// telemetry `rows · k · (ncols_per_image · batch)` equals the sum of the
/// per-image counts.
///
/// What fusion buys is dispatch shape, not arithmetic: the MAC rows are
/// `batch`× longer (deeper SIMD per nibble decode) and, with the
/// `parallel` cargo feature, the row-banded threshold of the shared `par`
/// module sees the whole layer-batch product, so the pool splits
/// per-layer work by output row — bit-identical to the serial kernel.
///
/// # Errors
///
/// [`TensorError::BadGeometry`] for a zero batch or a row band outside
/// `w`, [`TensorError::DataLength`] on buffer-length mismatches, and
/// [`TensorError::QuantizedOverflow`] if an accumulator leaves its 32-bit
/// register (operands cannot overflow by construction).
///
/// # Examples
///
/// ```
/// use mfdfp_dfp::{PackedPow2Matrix, Pow2Weight};
/// use mfdfp_tensor::qgemm_fused_into_i8;
///
/// // 1×2 weight row [0.5, −1] against one activation column [64, 10].
/// let w = PackedPow2Matrix::from_f32(1, 2, &[0.5, -1.0])?;
/// let x = [64i8, 10];
/// // Products carry 7 extra fractional bits (mul_shift semantics):
/// let acc: i64 = Pow2Weight::from_f32(0.5).mul_shift(x[0] as i32) as i64
///     + Pow2Weight::from_f32(-1.0).mul_shift(x[1] as i32) as i64;
/// // Route from fractional length 7+7 back to 7: divide by 2^7.
/// let mut out = [0i8; 1];
/// qgemm_fused_into_i8(&w, 0, 1, &x, 1, 1, &[0], 7 + 7, 7, &mut out)?;
/// assert_eq!(out, [(acc >> 7) as i8]); // (64·0.5 − 10) = 22
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[allow(clippy::too_many_arguments)] // kernel entry: slices + full index frame
pub fn qgemm_fused_into_i8(
    w: &PackedPow2Matrix,
    row0: usize,
    rows: usize,
    xt: &[i8],
    ncols_per_image: usize,
    batch: usize,
    bias: &[i64],
    acc_frac: i32,
    out_frac: i32,
    out: &mut [i8],
) -> Result<()> {
    if batch == 0 {
        return Err(TensorError::BadGeometry("fused qgemm needs a positive batch".into()));
    }
    let ncols = ncols_per_image * batch;
    qgemm_check(w, row0, rows, xt, ncols, bias, out.len())?;
    let _span = mfdfp_obs::span!("qgemm.fused", (rows * w.cols() * ncols) as u64);
    dispatch_band(w, row0, rows, xt, ncols, bias, acc_frac, out_frac, out)
}

/// Serial/parallel dispatch: bands whose work crosses the `par` module
/// threshold fan output rows across the persistent pool; shape checks
/// have already run.
///
/// The dispatch decision is traced (`obs` feature): one span per call,
/// labelled `qgemm.parallel` or `qgemm.serial` by the path chosen, with
/// the band's MAC count as the argument — the flight-recorder view of
/// *which* kernel variant served each layer.
#[allow(clippy::too_many_arguments)] // private kernel: slices + full index frame
fn dispatch_band(
    w: &PackedPow2Matrix,
    row0: usize,
    rows: usize,
    xt: &[i8],
    ncols: usize,
    bias: &[i64],
    acc_frac: i32,
    out_frac: i32,
    out: &mut [i8],
) -> Result<()> {
    let macs = rows * w.cols() * ncols;
    #[cfg(feature = "parallel")]
    if rows >= 2
        && rows * w.cols().max(1) * ncols.max(1) >= crate::par::MIN_MACS
        && crate::par::threads() >= 2
    {
        let _span = mfdfp_obs::span!("qgemm.parallel", macs as u64);
        return qgemm_band_parallel(w, row0, rows, xt, ncols, bias, acc_frac, out_frac, out);
    }
    let _span = mfdfp_obs::span!("qgemm.serial", macs as u64);
    qgemm_band(w, row0, rows, xt, ncols, bias, acc_frac, out_frac, out)
}

/// Row-parallel band execution over `par::for_each_row_chunk`. The first
/// audit failure (in chunk-claim order) wins via a write-once slot —
/// `OnceLock::set` cannot poison, so a panicking sibling chunk unwinds
/// through the scope without turning the audit error into a second panic.
/// Chunks are disjoint, so no further synchronisation is needed.
#[cfg(feature = "parallel")]
#[allow(clippy::too_many_arguments)] // private kernel: slices + full index frame
fn qgemm_band_parallel(
    w: &PackedPow2Matrix,
    row0: usize,
    rows: usize,
    xt: &[i8],
    ncols: usize,
    bias: &[i64],
    acc_frac: i32,
    out_frac: i32,
    out: &mut [i8],
) -> Result<()> {
    let error = std::sync::OnceLock::new();
    crate::par::for_each_row_chunk(out, rows, ncols, |r0, nrows, chunk| {
        if let Err(e) = qgemm_band(
            w,
            row0 + r0,
            nrows,
            xt,
            ncols,
            &bias[r0..r0 + nrows],
            acc_frac,
            out_frac,
            chunk,
        ) {
            let _ = error.set(e);
        }
    });
    match error.into_inner() {
        Some(e) => Err(e),
        None => Ok(()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mfdfp_dfp::Pow2Weight;

    /// Decode-based oracle mirroring `mac_reduce`: per-element
    /// `mul_shift`, i64 accumulate, bias, realign + saturate.
    fn reference(
        w: &PackedPow2Matrix,
        xt: &[i8],
        ncols: usize,
        bias: &[i64],
        acc_frac: i32,
        out_frac: i32,
    ) -> Vec<i8> {
        let k = w.cols();
        let mut out = Vec::with_capacity(w.rows() * ncols);
        for (r, &b) in bias.iter().enumerate() {
            for j in 0..ncols {
                let mut acc = b;
                for c in 0..k {
                    acc += w.get(r, c).mul_shift(xt[c * ncols + j] as i32) as i64;
                }
                out.push(saturate(realign(acc, acc_frac, out_frac), 8) as i8);
            }
        }
        out
    }

    /// The whole-matrix product through the entry, as one image
    /// (`batch = 1`).
    fn product(
        w: &PackedPow2Matrix,
        xt: &[i8],
        ncols: usize,
        bias: &[i64],
        acc_frac: i32,
        out_frac: i32,
    ) -> Result<Vec<i8>> {
        let mut out = vec![0i8; w.rows() * ncols];
        qgemm_fused_into_i8(w, 0, w.rows(), xt, ncols, 1, bias, acc_frac, out_frac, &mut out)?;
        Ok(out)
    }

    fn codes_matrix(rows: usize, cols: usize, seed: u64) -> PackedPow2Matrix {
        let mut state = seed | 1;
        let ws: Vec<Pow2Weight> = (0..rows * cols)
            .map(|_| {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                Pow2Weight::decode4((state % 16) as u8).unwrap()
            })
            .collect();
        PackedPow2Matrix::from_weights(rows, cols, &ws).unwrap()
    }

    fn inputs(n: usize, seed: u64) -> Vec<i8> {
        let mut state = seed.wrapping_mul(0x9E3779B97F4A7C15) | 1;
        (0..n)
            .map(|_| {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                (state % 256) as u8 as i8
            })
            .collect()
    }

    #[test]
    fn matches_decode_reference_across_geometries() {
        for (rows, cols, ncols) in
            [(1, 1, 1), (3, 7, 5), (4, 16, 2), (5, 9, 9), (2, 33, 3), (8, 8, 1)]
        {
            let w = codes_matrix(rows, cols, (rows * 31 + cols * 7 + ncols) as u64);
            let xt = inputs(ncols * cols, 99);
            let bias: Vec<i64> = (0..rows).map(|r| (r as i64 - 2) * 100).collect();
            let got = product(&w, &xt, ncols, &bias, 13, 4).unwrap();
            let want = reference(&w, &xt, ncols, &bias, 13, 4);
            assert_eq!(got, want, "rows={rows} cols={cols} ncols={ncols}");
        }
    }

    #[test]
    fn zero_row_and_zero_col_matrices() {
        let w = codes_matrix(0, 5, 3);
        assert_eq!(product(&w, &inputs(10, 1), 2, &[], 10, 3).unwrap(), vec![]);
        let w = codes_matrix(4, 0, 3);
        // k = 0: every output is just its routed bias (frac 14 → frac 7).
        let out = product(&w, &[], 3, &[0, 1 << 7, -(1 << 7), 1 << 20], 14, 7).unwrap();
        assert_eq!(out.len(), 12);
        assert_eq!(&out[..3], &[0, 0, 0]);
        assert_eq!(&out[3..6], &[1, 1, 1]);
        assert_eq!(&out[6..9], &[-1, -1, -1]);
        assert_eq!(&out[9..], &[127, 127, 127], "oversized bias must saturate");
        // ncols = 0 is also legal and produces an empty output.
        let w = codes_matrix(2, 3, 5);
        assert_eq!(product(&w, &[], 0, &[0, 0], 10, 3).unwrap(), vec![]);
    }

    #[test]
    fn single_element_matrix() {
        for code in 0..16u8 {
            let wgt = Pow2Weight::decode4(code).unwrap();
            let w = PackedPow2Matrix::from_weights(1, 1, &[wgt]).unwrap();
            for x in [-128i8, -1, 0, 1, 127] {
                let out = product(&w, &[x], 1, &[0], 7, 7).unwrap();
                let want = saturate(realign(wgt.mul_shift(x as i32) as i64, 7, 7), 8) as i8;
                assert_eq!(out, vec![want], "code={code} x={x}");
            }
        }
    }

    #[test]
    fn odd_column_pad_nibble_is_inert() {
        // cols = 3: the pad nibble decodes to +1, the worst possible
        // contamination if it ever entered the sum.
        let w = codes_matrix(4, 3, 17);
        let xt = inputs(3 * 6, 23);
        let bias = vec![0i64; 4];
        let got = product(&w, &xt, 6, &bias, 10, 3).unwrap();
        assert_eq!(got, reference(&w, &xt, 6, &bias, 10, 3));
    }

    #[test]
    fn all_minimum_exponent_weights() {
        // exp = −7 ⇒ shift amount 0: products equal ±x exactly.
        let ws: Vec<Pow2Weight> = (0..8)
            .map(|i| {
                let code = if i % 2 == 0 { 7u8 } else { 0x8 | 7 }; // ±2^−7
                Pow2Weight::decode4(code).unwrap()
            })
            .collect();
        let w = PackedPow2Matrix::from_weights(2, 4, &ws).unwrap();
        let xt = inputs(4, 7);
        let got = product(&w, &xt, 1, &[0, 0], 7, 7).unwrap();
        assert_eq!(got, reference(&w, &xt, 1, &[0, 0], 7, 7));
    }

    #[test]
    fn saturating_accumulator_routes_to_rails() {
        // All +1 weights on all-max inputs with a large upscale: the
        // routed value flies past the 8-bit rails on both sides.
        let w = PackedPow2Matrix::from_f32(2, 16, &[1.0; 32]).unwrap();
        let hi = vec![127i8; 16];
        let lo = vec![-128i8; 16];
        assert_eq!(product(&w, &hi, 1, &[0, 0], 7, 7).unwrap(), vec![127, 127]);
        assert_eq!(product(&w, &lo, 1, &[0, 0], 7, 7).unwrap(), vec![-128, -128]);
    }

    #[test]
    fn audits_operand_width_and_shapes() {
        let w = codes_matrix(2, 4, 9);
        let xt = inputs(4, 5);
        // The 32-bit accumulator audit: a bias one past the register's
        // top is rejected, the register's top itself routes.
        let top = (1i64 << 31) - 1;
        assert!(product(&w, &[0; 4], 1, &[top, 0], 10, 3).is_ok());
        assert!(matches!(
            product(&w, &[0; 4], 1, &[top + 1, 0], 10, 3),
            Err(TensorError::QuantizedOverflow { bits: ACCUMULATOR_BITS, .. })
        ));
        // Shape mismatches.
        let bias = vec![0i64; 2];
        assert!(product(&w, &xt[..3], 1, &bias, 10, 3).is_err());
        assert!(product(&w, &xt, 1, &[0], 10, 3).is_err());
        let mut out = vec![0i8; 5];
        assert!(qgemm_fused_into_i8(&w, 0, 2, &xt, 1, 1, &bias, 10, 3, &mut out).is_err());
        assert!(qgemm_fused_into_i8(&w, 1, 2, &xt, 1, 1, &bias, 10, 3, &mut out[..2]).is_err());
    }

    #[test]
    fn row_band_matches_full_product() {
        let w = codes_matrix(6, 10, 41);
        let xt = inputs(10 * 4, 3);
        let bias: Vec<i64> = (0..6).map(|r| r as i64 * 64).collect();
        let full = product(&w, &xt, 4, &bias, 12, 5).unwrap();
        for (row0, rows) in [(0usize, 2usize), (2, 3), (5, 1), (0, 6)] {
            let mut band = vec![0i8; rows * 4];
            let b = &bias[row0..row0 + rows];
            qgemm_fused_into_i8(&w, row0, rows, &xt, 4, 1, b, 12, 5, &mut band).unwrap();
            assert_eq!(band, full[row0 * 4..(row0 + rows) * 4], "band {row0}+{rows}");
        }
    }

    #[test]
    fn i8_band_matches_full_product() {
        // Row bands compose under a fused batch too: 2 pixels × 3 images.
        let w = codes_matrix(6, 10, 43);
        let xt = inputs(10 * 2 * 3, 8);
        let bias: Vec<i64> = (0..6).map(|r| r as i64 * 32).collect();
        let mut full = vec![0i8; 6 * 6];
        qgemm_fused_into_i8(&w, 0, 6, &xt, 2, 3, &bias, 12, 5, &mut full).unwrap();
        assert_eq!(full, reference(&w, &xt, 6, &bias, 12, 5));
        for (row0, rows) in [(0usize, 3usize), (3, 3), (4, 2)] {
            let mut band = vec![0i8; rows * 6];
            let b = &bias[row0..row0 + rows];
            qgemm_fused_into_i8(&w, row0, rows, &xt, 2, 3, b, 12, 5, &mut band).unwrap();
            assert_eq!(band, full[row0 * 6..(row0 + rows) * 6], "band {row0}+{rows}");
        }
    }

    #[test]
    fn i8_entry_validates_shapes() {
        let w = codes_matrix(2, 4, 9);
        let bias = vec![0i64; 2];
        let xt = inputs(4 * 3, 5);
        let mut out = vec![0i8; 2 * 3];
        assert!(qgemm_fused_into_i8(&w, 0, 2, &xt, 1, 3, &bias, 10, 3, &mut out).is_ok());
        // Zero batch, and buffers sized for a different batch.
        assert!(matches!(
            qgemm_fused_into_i8(&w, 0, 2, &[], 1, 0, &bias, 10, 3, &mut []),
            Err(TensorError::BadGeometry(_))
        ));
        assert!(qgemm_fused_into_i8(&w, 0, 2, &xt, 1, 2, &bias, 10, 3, &mut out).is_err());
        assert!(qgemm_fused_into_i8(&w, 0, 2, &xt, 1, 3, &bias, 10, 3, &mut out[..4]).is_err());
        assert!(qgemm_fused_into_i8(&w, 0, 2, &xt[..8], 1, 3, &bias, 10, 3, &mut out).is_err());
    }

    #[test]
    fn i8_extremes_are_structurally_in_bounds() {
        // -128 and 127 are the rails of the code space; both must route
        // without any operand audit (there is none on this path).
        let w = codes_matrix(3, 8, 5);
        let xt = [-128i8, 127, -128, 127, -128, 127, -128, 127];
        let bias = vec![0i64; 3];
        assert_eq!(product(&w, &xt, 1, &bias, 10, 3).unwrap(), reference(&w, &xt, 1, &bias, 10, 3));
    }

    #[cfg(feature = "parallel")]
    #[test]
    fn i8_parallel_dispatch_bit_identical() {
        // Large enough to cross MIN_MACS under MFDFP_THREADS >= 2.
        let (rows, cols, ncols) = (64, 64, 64);
        let w = codes_matrix(rows, cols, 3);
        let xt = inputs(cols * ncols, 4);
        let bias: Vec<i64> = (0..rows).map(|r| r as i64).collect();
        let mut via_dispatch = vec![0i8; rows * ncols];
        qgemm_fused_into_i8(&w, 0, rows, &xt, ncols, 1, &bias, 13, 4, &mut via_dispatch).unwrap();
        let mut serial = vec![0i8; rows * ncols];
        qgemm_band(&w, 0, rows, &xt, ncols, &bias, 13, 4, &mut serial).unwrap();
        assert_eq!(via_dispatch, serial);
    }

    /// The forced row-parallel schedule, regardless of the work
    /// threshold, emits the serial kernel's bytes and the decode oracle's
    /// codes for every shape.
    #[cfg(feature = "parallel")]
    mod forced_parallel {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(48))]

            #[test]
            fn parallel_bit_identical_to_serial(
                rows in 1usize..20,
                cols in 1usize..16,
                ncols in 1usize..6,
                seed in 0u64..100_000,
            ) {
                let w = codes_matrix(rows, cols, seed);
                let xt = inputs(cols * ncols, seed ^ 0x5bd1_e995);
                let bias: Vec<i64> = (0..rows).map(|r| (r as i64 - 11) * 32).collect();
                let mut serial = vec![0i8; rows * ncols];
                qgemm_band(&w, 0, rows, &xt, ncols, &bias, 13, 5, &mut serial).unwrap();
                let mut parallel = vec![0i8; rows * ncols];
                qgemm_band_parallel(&w, 0, rows, &xt, ncols, &bias, 13, 5, &mut parallel)
                    .unwrap();
                prop_assert_eq!(&serial, &parallel);
                prop_assert_eq!(serial, reference(&w, &xt, ncols, &bias, 13, 5));
            }
        }
    }
}
