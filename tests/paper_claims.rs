//! The paper's headline claims, as executable assertions. Each test names
//! the claim and the artifact it comes from.

use mfdfp::accel::{
    design_metrics, schedule_network, AcceleratorConfig, ComponentLibrary, DmaModel, RunReport,
};
use mfdfp::core::memory_report;
use mfdfp::dfp::{DfpFormat, Pow2Weight};
use mfdfp::nn::zoo;
use mfdfp::tensor::TensorRng;

/// Table 1: "our accelerator can achieve significant benefits in both
/// design area and power consumption" — 87.97% area / 89.79% power for the
/// single design, 76.00% / 80.15% for the ensemble.
#[test]
fn table1_savings_within_one_percent_of_paper() {
    let lib = ComponentLibrary::calibrated_65nm();
    let fp = design_metrics(&AcceleratorConfig::paper_fp32(), &lib).unwrap();
    let mf = design_metrics(&AcceleratorConfig::paper_mf_dfp(), &lib).unwrap();
    let ens = design_metrics(&AcceleratorConfig::paper_ensemble(), &lib).unwrap();
    assert!((mf.area_saving_vs(&fp) - 87.97).abs() < 1.0);
    assert!((mf.power_saving_vs(&fp) - 89.79).abs() < 1.0);
    assert!((ens.area_saving_vs(&fp) - 76.00).abs() < 1.0);
    assert!((ens.power_saving_vs(&fp) - 80.15).abs() < 1.0);
}

/// Table 2 (time columns): FP32 and MF-DFP run in near-identical time at
/// the fixed 250 MHz clock (246.52 vs 246.27 µs — a 0.1% gap).
#[test]
fn table2_times_nearly_identical_across_precisions() {
    let mut rng = TensorRng::seed_from(0);
    for net in
        [zoo::cifar10_full(10, &mut rng).unwrap(), zoo::alexnet(1000, false, &mut rng).unwrap()]
    {
        let fp =
            schedule_network(&net, &AcceleratorConfig::paper_fp32(), DmaModel::Overlapped).unwrap();
        let mf = schedule_network(&net, &AcceleratorConfig::paper_mf_dfp(), DmaModel::Overlapped)
            .unwrap();
        let gap = (fp.time_us - mf.time_us).abs() / fp.time_us;
        assert!(gap < 0.005, "time gap {gap} too large for {}", net.name());
        assert!(fp.time_us >= mf.time_us, "FP32 pipeline is deeper, must not be faster");
    }
}

/// Table 2 (energy columns): ~89.8% energy saving single, ~80.15%
/// ensemble, for BOTH benchmarks — because energy = power × (equal) time.
#[test]
fn table2_energy_savings_shape() {
    let lib = ComponentLibrary::calibrated_65nm();
    let mut rng = TensorRng::seed_from(0);
    for net in
        [zoo::cifar10_full(10, &mut rng).unwrap(), zoo::alexnet(1000, false, &mut rng).unwrap()]
    {
        let fp_cfg = AcceleratorConfig::paper_fp32();
        let mf_cfg = AcceleratorConfig::paper_mf_dfp();
        let ens_cfg = AcceleratorConfig::paper_ensemble();
        let fp = RunReport::from_schedule(
            &schedule_network(&net, &fp_cfg, DmaModel::Overlapped).unwrap(),
            &design_metrics(&fp_cfg, &lib).unwrap(),
        );
        let mf = RunReport::from_schedule(
            &schedule_network(&net, &mf_cfg, DmaModel::Overlapped).unwrap(),
            &design_metrics(&mf_cfg, &lib).unwrap(),
        );
        let ens = RunReport::from_schedule(
            &schedule_network(&net, &mf_cfg, DmaModel::Overlapped).unwrap(),
            &design_metrics(&ens_cfg, &lib).unwrap(),
        );
        assert!((mf.energy_saving_vs(&fp) - 89.8).abs() < 1.5, "{}", net.name());
        assert!((ens.energy_saving_vs(&fp) - 80.15).abs() < 1.5, "{}", net.name());
    }
}

/// Table 2 (ImageNet row sanity): the AlexNet inference latency lands in
/// the same order of magnitude as the paper's 15,666 µs.
#[test]
fn table2_alexnet_latency_order_of_magnitude() {
    let mut rng = TensorRng::seed_from(0);
    let net = zoo::alexnet(1000, false, &mut rng).unwrap();
    let s =
        schedule_network(&net, &AcceleratorConfig::paper_mf_dfp(), DmaModel::Overlapped).unwrap();
    assert!((5_000.0..50_000.0).contains(&s.time_us), "{} µs", s.time_us);
}

/// Table 3: "requires 8× less memory compared to a floating-point
/// implementation" — exact figures 0.3417/0.0428 MiB and 237.95/29.75 MiB.
#[test]
fn table3_exact_memory_figures() {
    let mut rng = TensorRng::seed_from(0);
    let cifar = memory_report(&zoo::cifar10_full(10, &mut rng).unwrap());
    assert!((cifar.fp32_mib() - 0.3417).abs() < 0.001);
    assert!((cifar.mfdfp_mib() - 0.0428).abs() < 0.001);
    let alex = memory_report(&zoo::alexnet(1000, false, &mut rng).unwrap());
    assert!((alex.fp32_mib() - 237.95).abs() < 0.1);
    assert!((alex.mfdfp_mib() - 29.75).abs() < 0.05);
}

/// Section 5: "the weights can be encoded into 4-bit representation" —
/// every representable weight round-trips the 4-bit codec, and the
/// exponent range is exactly {0, …, −7}.
#[test]
fn four_bit_weight_encoding_claim() {
    for code in 0..16u8 {
        let w = Pow2Weight::decode4(code).unwrap();
        assert!((-7..=0).contains(&w.exp()));
        assert_eq!(w.encode4(), code);
    }
    // Quantizing any |w| < 1 lands inside the codec's range.
    for i in 1..=1000 {
        let w = Pow2Weight::from_f32(i as f32 / 1000.0);
        assert!((-7..=0).contains(&w.exp()));
    }
}

/// Section 4: 8-bit dynamic fixed point — formats at different `f` cover
/// disjoint ranges, which is why a single static format cannot serve a
/// whole network ("even with 16-bit fixed-point, significant accuracy
/// drop is observed" for static formats).
#[test]
fn dynamic_format_range_claim() {
    let fine = DfpFormat::q8(7); // ±0.99, step 1/128
    let coarse = DfpFormat::q8(0); // ±127, step 1
    assert!(fine.max_value() < 1.0);
    assert!(coarse.max_value() > 100.0);
    // A value representable finely saturates nowhere in the coarse format
    // but loses precision; and vice versa.
    assert_eq!(coarse.quantize(0.4), 0); // wiped out
    assert!(fine.round_trip(0.4) != 0.0);
    assert_eq!(fine.quantize(100.0), fine.max_code()); // saturated
}

/// Section 5 / Figure 2(a): the datapath performs a *fixed* amount of
/// shift-add work per image — the premise of the paper's energy model
/// (energy = per-op energy × op count). The batch-fused forward (one
/// im2col + one qgemm per layer per batch) must therefore count exactly
/// the sum of its per-image runs: fusion reshapes the schedule, never
/// the work. Single images run the same fused path at batch 1, so on
/// instrumented builds both counts are also checked against the work the
/// layer geometry implies. With `obs` off all counters are compile-time
/// zeros and the equalities hold trivially.
#[test]
fn fused_batch_op_count_equals_sum_of_per_image_counts() {
    use mfdfp::core::{calibrate, QuantizedNet};
    use mfdfp::obs::ops;

    let mut rng = TensorRng::seed_from(17);
    let mut net = zoo::quick_custom(3, 16, [4, 4, 8], 16, 10, &mut rng).unwrap();
    let calib = rng.gaussian([4, 3, 16, 16], 0.0, 0.7);
    let plan = calibrate(&mut net, &[(calib, vec![0, 1, 2, 3])], 8).unwrap();
    let q = QuantizedNet::from_network(&net, &plan).unwrap();
    let batch = rng.gaussian([5, 3, 16, 16], 0.0, 0.7);

    let before = ops::counters();
    let fused = q.logits_batch(&batch).unwrap();
    let fused_ops = ops::counters().since(&before);

    let mut per_image_macs = 0u64;
    let mut per_image_bytes = 0u64;
    for b in 0..5 {
        let img = batch.index_axis0(b);
        let before = ops::counters();
        let direct = q.logits(&img).unwrap();
        let delta = ops::counters().since(&before);
        per_image_macs += delta.shift_macs;
        per_image_bytes += delta.im2col_bytes;
        // The fused logits are also bit-identical to the per-image path.
        for (f, d) in fused.index_axis0(b).as_slice().iter().zip(direct.as_slice()) {
            assert_eq!(f.to_bits(), d.to_bits(), "image {b}");
        }
    }
    assert_eq!(fused_ops.shift_macs, per_image_macs, "fusion must not change the MAC count");
    assert_eq!(
        fused_ops.im2col_bytes, per_image_bytes,
        "fusion must stage exactly the per-image gather bytes"
    );
    #[cfg(feature = "obs")]
    {
        use mfdfp::core::QLayer;
        // Independent side: one image's shift-MACs are every conv's
        // geometric MACs plus every linear layer's in·out, and its staged
        // bytes are one im2col column matrix per conv group.
        let (mut macs, mut bytes) = (0u64, 0u64);
        for layer in q.layers() {
            match layer {
                QLayer::Conv(c) => {
                    macs += c.geom.macs() as u64;
                    bytes += (c.geom.groups * c.im2col_len()) as u64;
                }
                QLayer::Linear(l) => macs += (l.in_features * l.out_features) as u64,
                _ => {}
            }
        }
        assert!(macs > 0 && bytes > 0, "the net must have conv and linear work");
        assert_eq!(fused_ops.shift_macs, 5 * macs, "MACs must match the layer geometry");
        assert_eq!(fused_ops.im2col_bytes, 5 * bytes, "bytes must match the im2col geometry");
    }
}

/// Section 5 / Figure 2(a): intermediate wires grow 16→20 bits so that no
/// intermediate value is ever lost.
#[test]
fn no_intermediate_loss_claim() {
    use mfdfp::dfp::AdderTree;
    let tree = AdderTree::new(16).unwrap();
    // The extreme case: all products at the register limits.
    let max = vec![(1i32 << 15) - 1; 16];
    assert_eq!(tree.sum(&max).unwrap(), 16 * ((1i64 << 15) - 1));
    let min = vec![-(1i32 << 15); 16];
    assert_eq!(tree.sum(&min).unwrap(), -16 * (1i64 << 15));
}
