//! Property-based tests of the tensor algebra: the linear-operator laws
//! backprop silently assumes.

use mfdfp_tensor::{
    col2im, conv2d_backward, conv2d_forward, gemm, im2col, pool_backward, pool_forward, softmax,
    ConvGeometry, PoolGeometry, PoolKind, Shape, Tensor, Transpose,
};
use proptest::prelude::*;

fn tensor_strategy(len: usize) -> impl Strategy<Value = Vec<f32>> {
    proptest::collection::vec(-2.0f32..2.0, len)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// GEMM is linear in its left operand: (A + B)C = AC + BC.
    #[test]
    fn gemm_left_linearity(
        a in tensor_strategy(6),
        b in tensor_strategy(6),
        c in tensor_strategy(8),
    ) {
        let ta = Tensor::from_vec(a, Shape::d2(3, 2)).unwrap();
        let tb = Tensor::from_vec(b, Shape::d2(3, 2)).unwrap();
        let tc = Tensor::from_vec(c, Shape::d2(2, 4)).unwrap();
        let lhs = gemm(&(&ta + &tb), Transpose::No, &tc, Transpose::No).unwrap();
        let rhs = &gemm(&ta, Transpose::No, &tc, Transpose::No).unwrap()
            + &gemm(&tb, Transpose::No, &tc, Transpose::No).unwrap();
        for (x, y) in lhs.as_slice().iter().zip(rhs.as_slice()) {
            prop_assert!((x - y).abs() < 1e-4);
        }
    }

    /// (AB)ᵀ = BᵀAᵀ, expressed through the transpose flags.
    #[test]
    fn gemm_transpose_identity(a in tensor_strategy(6), b in tensor_strategy(12)) {
        let ta = Tensor::from_vec(a, Shape::d2(2, 3)).unwrap();
        let tb = Tensor::from_vec(b, Shape::d2(3, 4)).unwrap();
        let ab = gemm(&ta, Transpose::No, &tb, Transpose::No).unwrap(); // 2×4
        // Bᵀ Aᵀ computed as gemm(b, T, a, T) = 4×2.
        let btat = gemm(&tb, Transpose::Yes, &ta, Transpose::Yes).unwrap();
        for i in 0..2 {
            for j in 0..4 {
                prop_assert!((ab.at(&[i, j]) - btat.at(&[j, i])).abs() < 1e-4);
            }
        }
    }

    /// im2col/col2im are adjoint: ⟨im2col(x), y⟩ = ⟨x, col2im(y)⟩.
    #[test]
    fn conv_operators_are_adjoint(
        x in tensor_strategy(2 * 6 * 6),
        seed in 0u64..1000,
    ) {
        let g = ConvGeometry::new(2, 6, 6, 3, 3, 1, 1).unwrap();
        let tx = Tensor::from_vec(x, Shape::new(vec![2, 6, 6])).unwrap();
        let ylen = g.col_height() * g.col_width();
        let y: Vec<f32> = (0..ylen).map(|i| (((i as u64 + seed) * 2654435761) % 997) as f32 / 499.0 - 1.0).collect();
        let ty = Tensor::from_vec(y, Shape::d2(g.col_height(), g.col_width())).unwrap();
        let lhs = im2col(&tx, &g).unwrap().dot(&ty).unwrap();
        let rhs = tx.dot(&col2im(&ty, &g).unwrap()).unwrap();
        prop_assert!((lhs - rhs).abs() < 1e-2, "{lhs} vs {rhs}");
    }

    /// Convolution is linear in the input:
    /// conv(x1 + x2) = conv(x1) + conv(x2) − bias (bias counted once).
    #[test]
    fn conv_input_linearity(
        x1 in tensor_strategy(2 * 5 * 5),
        x2 in tensor_strategy(2 * 5 * 5),
        w in tensor_strategy(3 * 2 * 9),
    ) {
        let g = ConvGeometry::new(2, 5, 5, 3, 3, 1, 1).unwrap();
        let tw = Tensor::from_vec(w, Shape::nchw(3, 2, 3, 3)).unwrap();
        let b = Tensor::zeros([3]);
        let t1 = Tensor::from_vec(x1, Shape::nchw(1, 2, 5, 5)).unwrap();
        let t2 = Tensor::from_vec(x2, Shape::nchw(1, 2, 5, 5)).unwrap();
        let lhs = conv2d_forward(&(&t1 + &t2), &tw, &b, &g).unwrap();
        let rhs = &conv2d_forward(&t1, &tw, &b, &g).unwrap()
            + &conv2d_forward(&t2, &tw, &b, &g).unwrap();
        for (a, c) in lhs.as_slice().iter().zip(rhs.as_slice()) {
            prop_assert!((a - c).abs() < 1e-3);
        }
    }

    /// The conv backward operator is the adjoint of forward:
    /// ⟨conv(x), g⟩ = ⟨x, backward_input(g)⟩ for zero bias.
    #[test]
    fn conv_backward_is_adjoint(
        x in tensor_strategy(2 * 5 * 5),
        w in tensor_strategy(2 * 2 * 9),
        go in tensor_strategy(2 * 5 * 5),
    ) {
        let g = ConvGeometry::new(2, 5, 5, 2, 3, 1, 1).unwrap();
        let tx = Tensor::from_vec(x, Shape::nchw(1, 2, 5, 5)).unwrap();
        let tw = Tensor::from_vec(w, Shape::nchw(2, 2, 3, 3)).unwrap();
        let b = Tensor::zeros([2]);
        let tgo = Tensor::from_vec(go, Shape::nchw(1, 2, 5, 5)).unwrap();
        let y = conv2d_forward(&tx, &tw, &b, &g).unwrap();
        let (gx, _, _) = conv2d_backward(&tx, &tw, &tgo, &g).unwrap();
        let lhs = y.dot(&tgo).unwrap();
        let rhs = tx.dot(&gx).unwrap();
        prop_assert!((lhs - rhs).abs() < 1e-2 * (1.0 + lhs.abs()), "{lhs} vs {rhs}");
    }

    /// Max pooling is monotone: pointwise larger inputs give pointwise
    /// larger outputs.
    #[test]
    fn max_pool_monotone(x in tensor_strategy(6 * 6), bump in 0.0f32..1.0) {
        let g = PoolGeometry::new(1, 6, 6, 2, 2).unwrap();
        let tx = Tensor::from_vec(x.clone(), Shape::nchw(1, 1, 6, 6)).unwrap();
        let bigger = tx.map(|v| v + bump);
        let (y1, _) = pool_forward(&tx, PoolKind::Max, &g).unwrap();
        let (y2, _) = pool_forward(&bigger, PoolKind::Max, &g).unwrap();
        for (a, b) in y1.as_slice().iter().zip(y2.as_slice()) {
            prop_assert!(b >= a);
        }
    }

    /// Average pooling preserves the mean exactly when windows tile the
    /// input perfectly.
    #[test]
    fn avg_pool_preserves_mean(x in tensor_strategy(2 * 4 * 4)) {
        let g = PoolGeometry::new(2, 4, 4, 2, 2).unwrap();
        let tx = Tensor::from_vec(x, Shape::nchw(1, 2, 4, 4)).unwrap();
        let (y, _) = pool_forward(&tx, PoolKind::Avg, &g).unwrap();
        prop_assert!((y.mean() - tx.mean()).abs() < 1e-5);
    }

    /// Pool backward conserves gradient mass for avg pooling.
    #[test]
    fn avg_pool_backward_conserves_mass(go in tensor_strategy(2 * 2)) {
        let g = PoolGeometry::new(1, 4, 4, 2, 2).unwrap();
        let tgo = Tensor::from_vec(go, Shape::nchw(1, 1, 2, 2)).unwrap();
        let gi = pool_backward(&tgo, PoolKind::Avg, &[], &g).unwrap();
        prop_assert!((gi.sum() - tgo.sum()).abs() < 1e-5);
    }

    /// Softmax outputs a probability distribution for any finite logits.
    #[test]
    fn softmax_is_distribution(z in tensor_strategy(12)) {
        let tz = Tensor::from_vec(z, Shape::d2(3, 4)).unwrap();
        let p = softmax(&tz).unwrap();
        for r in 0..3 {
            let row = &p.as_slice()[r * 4..(r + 1) * 4];
            let sum: f32 = row.iter().sum();
            prop_assert!((sum - 1.0).abs() < 1e-5);
            prop_assert!(row.iter().all(|&v| (0.0..=1.0).contains(&v)));
        }
    }

    /// Reshape round-trips and never changes the flat data.
    #[test]
    fn reshape_preserves_flat_data(x in tensor_strategy(24)) {
        let t = Tensor::from_vec(x.clone(), Shape::new(vec![2, 3, 4])).unwrap();
        let r = t.reshape([4, 6]).unwrap().reshape([24]).unwrap();
        prop_assert_eq!(r.as_slice(), &x[..]);
    }

    /// axpy(α, x) then axpy(−α, x) is the identity (up to float error).
    #[test]
    fn axpy_inverse(x in tensor_strategy(16), y in tensor_strategy(16), alpha in -4.0f32..4.0) {
        let tx = Tensor::from_slice(&x);
        let mut ty = Tensor::from_slice(&y);
        ty.axpy(alpha, &tx).unwrap();
        ty.axpy(-alpha, &tx).unwrap();
        for (a, b) in ty.as_slice().iter().zip(&y) {
            prop_assert!((a - b).abs() < 1e-3);
        }
    }
}

/// The batch-fused conv path must never change a single output bit: the
/// fused column matrix is a pure re-layout (batch interleaved innermost)
/// and the kernel's per-output accumulation order does not depend on the
/// column count. Both are checked against independent per-image oracles
/// (a plain im2col loop, a decode-based `mul_shift` GEMM). These run in
/// both feature sets — under `parallel` the fused product frequently
/// crosses the row-band dispatch threshold, so the same cases also pin
/// serial == parallel on the fused path.
mod fused_batch_equivalence {
    use mfdfp_dfp::{realign, saturate, PackedPow2Matrix, Pow2Weight};
    use mfdfp_tensor::{im2col_batched_i8, qgemm_fused_into_i8, ConvGeometry};
    use proptest::prelude::*;

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

    fn codes(n: usize, seed: u64) -> Vec<i8> {
        let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
        (0..n)
            .map(|_| {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                (state % 256) as u8 as i8
            })
            .collect()
    }

    /// Element-interleaves per-image buffers into the fused layout
    /// (`fused[e·B + b] = images[b][e]`).
    fn interleave(images: &[Vec<i8>]) -> Vec<i8> {
        let batch = images.len();
        let per = images[0].len();
        let mut fused = vec![0i8; per * batch];
        for (b, img) in images.iter().enumerate() {
            for (e, &v) in img.iter().enumerate() {
                fused[e * batch + b] = v;
            }
        }
        fused
    }

    /// Decode-based GEMM oracle for one image's `k × ncols` column matrix:
    /// per-element `Pow2Weight::mul_shift`, exact i64 accumulation, bias,
    /// then the routing realign + saturate — sharing no code with the
    /// packed kernel.
    fn decode_oracle(
        w: &PackedPow2Matrix,
        xt: &[i8],
        ncols: usize,
        bias: &[i64],
        acc_frac: i32,
        out_frac: i32,
    ) -> Vec<i8> {
        let mut out = Vec::with_capacity(w.rows() * ncols);
        for (r, &b) in bias.iter().enumerate() {
            for j in 0..ncols {
                let mut acc = b;
                for c in 0..w.cols() {
                    acc += w.get(r, c).mul_shift(xt[c * ncols + j] as i32) as i64;
                }
                out.push(saturate(realign(acc, acc_frac, out_frac), 8) as i8);
            }
        }
        out
    }

    /// Independent per-image im2col oracle: the plain quadruple loop with
    /// explicit padding checks, sharing no code with the batched gather.
    fn gather_reference(input: &[i8], g: &ConvGeometry, grp: usize) -> Vec<i8> {
        let (oh, ow) = (g.out_h(), g.out_w());
        let group_in = g.in_c / g.groups;
        let c_lo = grp * group_in;
        let mut out = Vec::new();
        for c in c_lo..c_lo + group_in {
            for ky in 0..g.kernel {
                for kx in 0..g.kernel {
                    for oy in 0..oh {
                        for ox in 0..ow {
                            let iy = (oy * g.stride + ky) as isize - g.pad as isize;
                            let ix = (ox * g.stride + kx) as isize - g.pad as isize;
                            let oob =
                                iy < 0 || ix < 0 || iy >= g.in_h as isize || ix >= g.in_w as isize;
                            out.push(if oob {
                                0
                            } else {
                                input[(c * g.in_h + iy as usize) * g.in_w + ix as usize]
                            });
                        }
                    }
                }
            }
        }
        out
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// The batched gather is exactly the per-image gathers,
        /// interleaved: `xt[e·B + b]` equals image `b`'s column element
        /// `e`, across random geometries (incl. grouped convs, padding,
        /// strides) and batch sizes 1..=9.
        #[test]
        fn batched_im2col_interleaves_per_image_gathers(
            in_c in 1usize..4,
            hw in 3usize..9,
            kernel in 1usize..4,
            stride in 1usize..3,
            pad in 0usize..3,
            grouped in proptest::bool::ANY,
            batch in 1usize..10,
            seed in 0u64..1_000_000,
        ) {
            let (in_c, groups) = if grouped { (in_c * 2, 2) } else { (in_c, 1) };
            let g = ConvGeometry::new(in_c, hw, hw, groups, kernel, stride, pad)
                .unwrap()
                .with_groups(groups)
                .unwrap();
            let per = in_c * hw * hw;
            let images: Vec<Vec<i8>> =
                (0..batch).map(|b| codes(per, seed ^ (b as u64 * 0x9E37 + 1))).collect();
            let fused_in = interleave(&images);
            let npix = g.out_h() * g.out_w();
            let syn = (in_c / groups) * g.kernel * g.kernel;
            for grp in 0..groups {
                let mut xt = vec![0i8; syn * npix * batch];
                im2col_batched_i8(&fused_in, &g, grp, batch, &mut xt).unwrap();
                for (b, img) in images.iter().enumerate() {
                    let want = gather_reference(img, &g, grp);
                    for (e, &w) in want.iter().enumerate() {
                        prop_assert_eq!(
                            xt[e * batch + b], w,
                            "grp={} b={} e={}", grp, b, e
                        );
                    }
                }
            }
        }

        /// One fused kernel call over `B` interleaved column matrices is
        /// bit-identical to `B` single-image (`batch = 1`) calls of the
        /// same entry and to the decode oracle on each image, across
        /// random weight shapes, radix positions, and batch sizes 1..=9.
        /// Under the `parallel` feature larger cases cross the row-band
        /// dispatch threshold, covering the fused-parallel schedule too.
        #[test]
        fn fused_qgemm_bit_identical_to_per_image(
            rows in 1usize..9,
            cols in 1usize..25,
            ncols_pi in 1usize..6,
            batch in 1usize..10,
            in_frac in 0i32..8,
            out_frac in 0i32..8,
            seed in 0u64..1_000_000,
        ) {
            let w = codes_matrix(rows, cols, seed | 1);
            let acc_frac = in_frac + 7;
            let bias: Vec<i64> = (0..rows).map(|r| (r as i64 - 3) * 37).collect();
            let images: Vec<Vec<i8>> = (0..batch)
                .map(|b| codes(cols * ncols_pi, seed ^ ((b as u64 + 1) * 0x5bd1_e995)))
                .collect();
            let fused_xt = interleave(&images);
            let mut fused_out = vec![0i8; rows * ncols_pi * batch];
            qgemm_fused_into_i8(
                &w, 0, rows, &fused_xt, ncols_pi, batch, &bias, acc_frac, out_frac,
                &mut fused_out,
            )
            .unwrap();
            for (b, img) in images.iter().enumerate() {
                let mut per = vec![0i8; rows * ncols_pi];
                qgemm_fused_into_i8(
                    &w, 0, rows, img, ncols_pi, 1, &bias, acc_frac, out_frac, &mut per,
                )
                .unwrap();
                prop_assert_eq!(
                    &per,
                    &decode_oracle(&w, img, ncols_pi, &bias, acc_frac, out_frac),
                    "b={} single-image call vs decode oracle", b
                );
                for (e, &want) in per.iter().enumerate() {
                    prop_assert_eq!(
                        fused_out[e * batch + b], want,
                        "b={} e={} rows={} cols={} ncols_pi={}", b, e, rows, cols, ncols_pi
                    );
                }
            }
        }
    }
}

/// The `parallel` feature must never change a single output bit: threads
/// only reschedule work, the kernels fix the accumulation order.
#[cfg(feature = "parallel")]
mod parallel_equivalence {
    use mfdfp_tensor::{
        conv2d_forward, conv2d_forward_parallel, conv2d_forward_serial, gemm, gemm_parallel,
        gemm_serial, ConvGeometry, Tensor, Transpose,
    };
    use proptest::prelude::*;

    /// Deterministic pseudo-random tensor from a seed (keeps the strategy
    /// space to shapes; values derive from the seed).
    fn seeded(dims: Vec<usize>, seed: u64) -> Tensor {
        Tensor::from_fn(dims, move |i| {
            let h = (i as u64 + 1)
                .wrapping_mul(0x9E37_79B9_7F4A_7C15)
                .wrapping_add(seed.wrapping_mul(0x2545_F491_4F6C_DD1D));
            ((h >> 40) as f32 / (1u64 << 24) as f32) * 4.0 - 2.0
        })
    }

    fn assert_bits_equal(a: &Tensor, b: &Tensor, what: &str) {
        assert_eq!(a.shape(), b.shape(), "{what}: shapes diverged");
        for (i, (x, y)) in a.as_slice().iter().zip(b.as_slice()).enumerate() {
            assert!(
                x.to_bits() == y.to_bits(),
                "{what}: bit divergence at flat index {i}: {x} vs {y}"
            );
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// gemm_parallel == gemm_serial, bit for bit, on random shapes and
        /// every transpose combination (shapes straddle the dispatcher's
        /// work threshold from below).
        #[test]
        fn gemm_parallel_bit_identical(
            m in 1usize..48,
            k in 1usize..48,
            n in 1usize..48,
            seed in 0u64..1_000_000,
            ta in proptest::bool::ANY,
            tb in proptest::bool::ANY,
        ) {
            let (ta, tb) = (
                if ta { Transpose::Yes } else { Transpose::No },
                if tb { Transpose::Yes } else { Transpose::No },
            );
            let a_dims = if ta == Transpose::Yes { vec![k, m] } else { vec![m, k] };
            let b_dims = if tb == Transpose::Yes { vec![n, k] } else { vec![k, n] };
            let a = seeded(a_dims, seed);
            let b = seeded(b_dims, seed ^ 0xABCD);
            let serial = gemm_serial(&a, ta, &b, tb).unwrap();
            let parallel = gemm_parallel(&a, ta, &b, tb).unwrap();
            let dispatched = gemm(&a, ta, &b, tb).unwrap();
            assert_bits_equal(&serial, &parallel, "gemm_parallel");
            assert_bits_equal(&serial, &dispatched, "gemm dispatch");
        }

        /// conv2d_forward_parallel == conv2d_forward_serial, bit for bit,
        /// on random geometries (including grouped convolutions).
        #[test]
        fn conv_forward_parallel_bit_identical(
            batch in 1usize..6,
            in_c in 1usize..5,
            hw in 4usize..11,
            out_c in 1usize..7,
            kernel in 1usize..4,
            stride in 1usize..3,
            pad in 0usize..3,
            grouped in proptest::bool::ANY,
            seed in 0u64..1_000_000,
        ) {
            // Double the channel counts when testing groups so 2 divides both.
            let (in_c, out_c, groups) =
                if grouped { (in_c * 2, out_c * 2, 2) } else { (in_c, out_c, 1) };
            let g = ConvGeometry::new(in_c, hw, hw, out_c, kernel, stride, pad)
                .unwrap()
                .with_groups(groups)
                .unwrap();
            let x = seeded(vec![batch, in_c, hw, hw], seed);
            let wd = g.weight_dims();
            let w = seeded(wd.to_vec(), seed ^ 0x1234);
            let b = seeded(vec![out_c], seed ^ 0x5678);
            let serial = conv2d_forward_serial(&x, &w, &b, &g).unwrap();
            let parallel = conv2d_forward_parallel(&x, &w, &b, &g).unwrap();
            let dispatched = conv2d_forward(&x, &w, &b, &g).unwrap();
            assert_bits_equal(&serial, &parallel, "conv2d_forward_parallel");
            assert_bits_equal(&serial, &dispatched, "conv2d_forward dispatch");
        }
    }
}
