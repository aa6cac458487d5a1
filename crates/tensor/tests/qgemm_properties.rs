//! Property tests of the packed shift-only GEMM entry: agreement with the
//! decode-based `mul_shift` oracle for arbitrary shapes (including the
//! odd-column pad nibble at every row boundary) and every `i8` operand,
//! and scheduling determinism (band ≡ full product, fused batch bands ≡
//! fused full product). The forced row-parallel schedule is pinned by an
//! in-module test of the private parallel kernel.
//!
//! The random-shape suites stay small (`k ≤ 33`, a handful of columns);
//! the `boundary` tests cover the kernel's internal edges: `k` around
//! multiples of the 256-synapse bucket epoch, column counts around
//! multiples of the 256-column tile (fused batches included), and the
//! worst-case bucket sums that reach the `i16` lane's exact limit.

use mfdfp_dfp::{realign, saturate, PackedPow2Matrix, Pow2Weight};
use mfdfp_tensor::qgemm_fused_into_i8;
use proptest::prelude::*;

/// Decode-based oracle: per-element `Pow2Weight::mul_shift`, exact i64
/// accumulation, bias, then the routing realign + saturate.
fn decode_oracle(
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

/// The whole-matrix product through the entry over `batch` interleaved
/// images of `ncols_per_image` columns each.
fn product(
    w: &PackedPow2Matrix,
    xt: &[i8],
    ncols_per_image: usize,
    batch: usize,
    bias: &[i64],
    acc_frac: i32,
    out_frac: i32,
) -> Vec<i8> {
    let mut out = vec![0i8; w.rows() * ncols_per_image * batch];
    qgemm_fused_into_i8(
        w,
        0,
        w.rows(),
        xt,
        ncols_per_image,
        batch,
        bias,
        acc_frac,
        out_frac,
        &mut out,
    )
    .unwrap();
    out
}

/// xorshift stream for weight codes, activations and biases.
fn xorshift(seed: u64) -> impl FnMut() -> u64 {
    let mut state = seed | 1;
    move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state
    }
}

fn random_matrix(rows: usize, cols: usize, next: &mut impl FnMut() -> u64) -> PackedPow2Matrix {
    let codes: Vec<Pow2Weight> =
        (0..rows * cols).map(|_| Pow2Weight::decode4((next() % 16) as u8).unwrap()).collect();
    PackedPow2Matrix::from_weights(rows, cols, &codes).unwrap()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The entry == decode oracle for random shapes, codes and inputs.
    /// `cols` spans odd and even values so the row-boundary pad nibble is
    /// exercised constantly; `acc_frac`/`out_frac` spans down- and
    /// up-routing (the latter saturates frequently); activations span
    /// every `i8` bit pattern — the structural-audit claim that every
    /// 8-bit code is a legal operand.
    #[test]
    fn qgemm_matches_decode_oracle(
        rows in 1usize..8,
        cols in 1usize..34,
        ncols in 1usize..6,
        seed in 0u64..100_000,
        acc_frac in 7i32..15,
        out_frac in 0i32..8,
    ) {
        let mut next = xorshift(seed.wrapping_mul(0xD1B54A32D192ED03));
        let w = random_matrix(rows, cols, &mut next);
        let xt: Vec<i8> = (0..ncols * cols).map(|_| (next() % 256) as u8 as i8).collect();
        let bias: Vec<i64> = (0..rows).map(|_| (next() % 8192) as i64 - 4096).collect();
        let got = product(&w, &xt, ncols, 1, &bias, acc_frac, out_frac);
        prop_assert_eq!(got, decode_oracle(&w, &xt, ncols, &bias, acc_frac, out_frac));
    }

    /// Any row band of the product equals the corresponding slice of the
    /// full product — the invariant grouped convolutions rely on.
    #[test]
    fn row_bands_compose_to_full_product(
        rows in 2usize..8,
        cols in 1usize..20,
        ncols in 1usize..5,
        seed in 0u64..100_000,
        split in 1usize..7,
    ) {
        let split = split.min(rows - 1);
        let mut next = xorshift(seed);
        let w = random_matrix(rows, cols, &mut next);
        let xt: Vec<i8> = (0..ncols * cols).map(|_| ((next() % 200) as i32 - 100) as i8).collect();
        let bias: Vec<i64> = (0..rows).map(|r| r as i64 * 17 - 40).collect();
        let full = product(&w, &xt, ncols, 1, &bias, 12, 4);
        let mut pieced = vec![0i8; rows * ncols];
        let (lo, hi) = pieced.split_at_mut(split * ncols);
        qgemm_fused_into_i8(&w, 0, split, &xt, ncols, 1, &bias[..split], 12, 4, lo).unwrap();
        qgemm_fused_into_i8(&w, split, rows - split, &xt, ncols, 1, &bias[split..], 12, 4, hi)
            .unwrap();
        prop_assert_eq!(pieced, full);
    }

    /// Scheduling determinism over the shapes the dispatcher sees: the
    /// entry (serial below the pool threshold, row-parallel above it
    /// under the `parallel` feature) emits the decode oracle's codes for
    /// every shape, whatever the batch the columns are split into.
    #[test]
    fn qgemm_schedules_are_bit_identical(
        rows in 1usize..20,
        cols in 1usize..16,
        ncols in 1usize..6,
        batch in 1usize..4,
        seed in 0u64..100_000,
    ) {
        let mut next = xorshift(seed.wrapping_mul(0x9E3779B97F4A7C15));
        let w = random_matrix(rows, cols, &mut next);
        let xt: Vec<i8> =
            (0..ncols * batch * cols).map(|_| (next() % 256) as u8 as i8).collect();
        let bias: Vec<i64> = (0..rows).map(|_| (next() % 1024) as i64 - 512).collect();
        let dispatch = product(&w, &xt, ncols, batch, &bias, 13, 5);
        prop_assert_eq!(dispatch, decode_oracle(&w, &xt, ncols * batch, &bias, 13, 5));
    }

    /// Row bands compose under a fused batch too — the invariant the
    /// grouped-convolution hot path relies on with several images in
    /// flight.
    #[test]
    fn i8_row_bands_compose_to_full_product(
        rows in 2usize..8,
        cols in 1usize..20,
        ncols in 1usize..5,
        batch in 1usize..5,
        seed in 0u64..100_000,
        split in 1usize..7,
    ) {
        let split = split.min(rows - 1);
        let mut next = xorshift(seed);
        let w = random_matrix(rows, cols, &mut next);
        let width = ncols * batch;
        let xt: Vec<i8> = (0..width * cols).map(|_| ((next() % 200) as i32 - 100) as i8).collect();
        let bias: Vec<i64> = (0..rows).map(|r| r as i64 * 17 - 40).collect();
        let full = product(&w, &xt, ncols, batch, &bias, 12, 4);
        let mut pieced = vec![0i8; rows * width];
        let (lo, hi) = pieced.split_at_mut(split * width);
        qgemm_fused_into_i8(&w, 0, split, &xt, ncols, batch, &bias[..split], 12, 4, lo).unwrap();
        qgemm_fused_into_i8(&w, split, rows - split, &xt, ncols, batch, &bias[split..], 12, 4, hi)
            .unwrap();
        prop_assert_eq!(pieced, full);
    }
}

/// The kernel's internal edges, through the public entry.
mod boundary {
    use super::*;

    /// The kernel's bucket epoch and column tile width.
    const EPOCH: usize = 256;
    const TILE: usize = 256;

    /// `k` on both sides of one, two and three bucket epochs.
    const KS: [usize; 7] =
        [EPOCH - 1, EPOCH, EPOCH + 1, 2 * EPOCH - 1, 2 * EPOCH, 2 * EPOCH + 1, 800];

    /// Fused column counts on both sides of one and two tiles, each with
    /// the largest batch (≤ 8) that divides it: `(ncols_per_image, batch)`.
    const COLUMNS: [(usize, usize); 5] =
        [(1, 1), ((TILE - 1) / 3, 3), (TILE / 8, 8), (TILE + 1, 1), ((2 * TILE + 3) / 5, 5)];

    #[test]
    fn epoch_and_tile_edges_match_decode_oracle() {
        for k in KS {
            for (ncols, batch) in COLUMNS {
                let width = ncols * batch;
                let mut next = xorshift((k * 1009 + width) as u64);
                let w = random_matrix(3, k, &mut next);
                let xt: Vec<i8> = (0..k * width).map(|_| (next() % 256) as u8 as i8).collect();
                let bias: Vec<i64> = (0..3).map(|_| (next() % 8192) as i64 - 4096).collect();
                assert_eq!(
                    product(&w, &xt, ncols, batch, &bias, 13, 4),
                    decode_oracle(&w, &xt, width, &bias, 13, 4),
                    "k={k} ncols={ncols} batch={batch}"
                );
            }
        }
    }

    /// Every synapse on one weight code and every activation on one rail:
    /// with `x = -128` one bucket per epoch sums to exactly -32768, the
    /// `i16` lane's minimum; with `x = 127`, to 32512. All 16 codes cover
    /// both signs and every shift. A bias that cancels the exact
    /// accumulator leaves the routed offset 5, so any lost bit shows; the
    /// same inputs also route un-cancelled against the oracle.
    #[test]
    fn worst_case_buckets_match_decode_oracle() {
        for k in [EPOCH, EPOCH + 1, 2 * EPOCH, 800] {
            for (ncols, batch) in [(1, 1), (TILE + 1, 1), ((2 * TILE + 3) / 5, 5)] {
                let width = ncols * batch;
                for code in 0..16u8 {
                    let wgt = Pow2Weight::decode4(code).unwrap();
                    let w = PackedPow2Matrix::from_weights(2, k, &vec![wgt; 2 * k]).unwrap();
                    for x in [-128i8, 127] {
                        let xt = vec![x; k * width];
                        let exact = k as i64 * wgt.mul_shift(x as i32) as i64;
                        let cancel = [5 - exact, 5 - exact];
                        let case = format!("k={k} width={width} code={code} x={x}");
                        assert_eq!(
                            product(&w, &xt, ncols, batch, &cancel, 7, 7),
                            vec![5; 2 * width],
                            "{case}"
                        );
                        assert_eq!(
                            product(&w, &xt, ncols, batch, &[0, -7], 20, 4),
                            decode_oracle(&w, &xt, width, &[0, -7], 20, 4),
                            "{case}"
                        );
                    }
                }
            }
        }
    }
}
