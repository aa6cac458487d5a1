//! The paper's signature operation, three ways: the packed shift-only
//! `qgemm` kernel (PR 3 hot path) against the decode-based alternatives it
//! replaced — per-element `mul_shift` over pre-decoded `Pow2Weight`s (the
//! PR-1-era storage) and unpack-then-multiply (what a packed store would
//! cost without a packed kernel). Plus the end-to-end effect on a whole
//! quantized network forward pass.
//!
//! Results are recorded in `BENCH_qgemm.json`; regenerate with
//! `CRITERION_SHIM_OUT=path cargo bench -p mfdfp-bench --bench qgemm
//! [--features parallel]`.

use criterion::{black_box, criterion_group, criterion_main, Criterion, Throughput};
use mfdfp_core::{calibrate, QuantizedNet};
use mfdfp_dfp::{realign, saturate, PackedPow2Matrix, Pow2Weight};
use mfdfp_nn::zoo;
use mfdfp_tensor::{qgemm_fused_into_i8, TensorRng};

fn xorshift(seed: u64) -> impl FnMut() -> u64 {
    let mut state = seed.wrapping_mul(0x9E3779B97F4A7C15) | 1;
    move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state
    }
}

/// The decode-path inner loop: per-element `mul_shift` on materialised
/// `Pow2Weight`s, i64 accumulate, route — the generic-shape arithmetic the
/// packed kernel specialises away. Takes activations in its own preferred
/// layout (`ncols × k`: each output's receptive field contiguous, exactly
/// how the old per-output gather presented them).
fn decode_gemm(
    ws: &[Pow2Weight],
    k: usize,
    x_cols: &[i32],
    ncols: usize,
    bias: &[i64],
    acc_frac: i32,
    out_frac: i32,
) -> Vec<i8> {
    let rows = ws.len() / k;
    let mut out = Vec::with_capacity(rows * ncols);
    for r in 0..rows {
        let wrow = &ws[r * k..(r + 1) * k];
        for j in 0..ncols {
            let xcol = &x_cols[j * k..(j + 1) * k];
            let mut acc = bias[r];
            for (w, &x) in wrow.iter().zip(xcol) {
                acc += w.mul_shift(x) as i64;
            }
            out.push(saturate(realign(acc, acc_frac, out_frac), 8) as i8);
        }
    }
    out
}

/// 256×256 weights × 256 activation columns — the same 256³ MAC volume as
/// the float `gemm_256` acceptance case.
fn bench_qgemm_256(c: &mut Criterion) {
    let n = 256usize;
    let mut next = xorshift(42);
    let codes: Vec<Pow2Weight> =
        (0..n * n).map(|_| Pow2Weight::decode4((next() % 16) as u8).unwrap()).collect();
    let w = PackedPow2Matrix::from_weights(n, n, &codes).expect("packed weights");
    // The packed kernel streams the im2col layout (k × ncols); the decode
    // loop gets the same values transposed (ncols × k), its own best case.
    let xt: Vec<i8> = (0..n * n).map(|_| (next() % 256) as u8 as i8).collect();
    let mut x_cols = vec![0i32; n * n];
    for c in 0..n {
        for j in 0..n {
            x_cols[j * n + c] = xt[c * n + j] as i32;
        }
    }
    let bias = vec![0i64; n];
    let (acc_frac, out_frac) = (7 + 7, 4);

    let mut group = c.benchmark_group("qgemm_256");
    group.throughput(Throughput::Elements((n * n * n) as u64));

    // The hot path: nibbles in, codes out, no decode anywhere — `i8`
    // activation codes streamed and widened in register, no operand audit
    // scan (the bound is structural), output into a warm caller buffer,
    // accumulator lanes in thread scratch. Zero allocations inside the
    // timed body.
    let mut out8 = vec![0i8; n * n];
    group.bench_function("packed_shift_only_i8_warm", |b| {
        b.iter(|| {
            qgemm_fused_into_i8(
                black_box(&w),
                0,
                n,
                black_box(&xt),
                n,
                1,
                &bias,
                acc_frac,
                out_frac,
                &mut out8,
            )
            .expect("qgemm");
            black_box(&mut out8);
        })
    });

    // PR-1-era storage: weights already decoded (4× the memory traffic),
    // generic per-element mul_shift loop.
    let predecoded = w.to_weights();
    group.bench_function("predecoded_mul_shift", |b| {
        b.iter(|| {
            black_box(decode_gemm(black_box(&predecoded), n, &x_cols, n, &bias, acc_frac, out_frac))
        })
    });

    // Packed storage without a packed kernel: pay the nibble unpack on
    // every call, then the same generic loop — the decode-overhead
    // microbench the packed kernel must beat.
    group.bench_function("unpack_then_mul_shift", |b| {
        b.iter(|| {
            let ws = black_box(&w).to_weights();
            black_box(decode_gemm(&ws, n, &x_cols, n, &bias, acc_frac, out_frac))
        })
    });

    group.finish();
}

/// Whole-network effect: integer forward pass of the quantized net on the
/// packed path vs the decode-based adder-tree reference datapath.
fn bench_qnet_forward(c: &mut Criterion) {
    let mut rng = TensorRng::seed_from(12);
    let mut net = zoo::quick_custom(3, 16, [8, 8, 16], 32, 10, &mut rng).expect("topology");
    let batch = rng.gaussian([4, 3, 16, 16], 0.0, 0.6);
    let calib = vec![(batch.clone(), vec![0usize; 4])];
    let plan = calibrate(&mut net, &calib, 8).expect("calibration");
    let qnet = QuantizedNet::from_network(&net, &plan).expect("quantize");
    let img = batch.index_axis0(0);

    let mut group = c.benchmark_group("qnet_forward");
    group.bench_function("packed_shift_only", |b| {
        b.iter(|| black_box(qnet.forward_codes(black_box(&img)).expect("forward")))
    });
    // The PR-5 steady-state serving path: a planned workspace reused
    // across calls — zero heap allocations per forward once warm.
    let mut ws = qnet.plan().workspace();
    qnet.forward_codes_with(&img, &mut ws).expect("warm-up");
    group.bench_function("packed_warm_workspace", |b| {
        b.iter(|| {
            let codes = qnet.forward_codes_with(black_box(&img), &mut ws).expect("forward");
            black_box(codes.len())
        })
    });
    group.bench_function("decode_adder_tree_reference", |b| {
        b.iter(|| black_box(qnet.forward_codes_reference(black_box(&img)).expect("forward")))
    });
    group.finish();
}

/// PR-8 serving regime: the batch-fused forward (one im2col + one qgemm
/// per layer per *batch*, element-interleaved columns) over a warm
/// workspace, at the batch sizes the serving batcher actually forms.
fn bench_batched_forward(c: &mut Criterion) {
    let mut rng = TensorRng::seed_from(13);
    let mut net = zoo::quick_custom(3, 16, [8, 8, 16], 32, 10, &mut rng).expect("topology");
    let calib = rng.gaussian([4, 3, 16, 16], 0.0, 0.6);
    let plan = calibrate(&mut net, &[(calib, vec![0usize; 4])], 8).expect("calibration");
    let qnet = QuantizedNet::from_network(&net, &plan).expect("quantize");
    let data = rng.gaussian([8, 3, 16, 16], 0.0, 0.6);
    let per_image = 3 * 16 * 16;

    let mut group = c.benchmark_group("qnet_forward_batched");
    for &bsz in &[1usize, 4, 8] {
        let slice = &data.as_slice()[..bsz * per_image];
        let mut ws = qnet.plan_for_batch(bsz).workspace();
        let mut out = vec![0.0f32; bsz * qnet.classes()];
        group.throughput(Throughput::Elements(bsz as u64));
        qnet.logits_batch_into(slice, bsz, &mut ws, &mut out).expect("warm-up");
        group.bench_function(&format!("fused_b{bsz}"), |b| {
            b.iter(|| {
                qnet.logits_batch_into(black_box(slice), bsz, &mut ws, &mut out).expect("fused");
                black_box(&mut out);
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench_qgemm_256, bench_qnet_forward, bench_batched_forward);
criterion_main!(benches);
