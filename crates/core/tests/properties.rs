//! Property-based tests of the quantization pipeline: invariants that must
//! hold for arbitrary network weights and calibration data.

use mfdfp_core::{
    build_working_net, calibrate, from_bytes, sync_quantized_params, to_bytes, QuantizedNet,
};
use mfdfp_dfp::Pow2Weight;
use mfdfp_nn::layers::{Linear, Relu};
use mfdfp_nn::{Layer, Network, Phase};
use mfdfp_tensor::{Shape, Tensor, TensorRng};
use proptest::prelude::*;

/// A tiny MLP whose weights come from the proptest strategy.
fn mlp_with_weights(w1: &[f32], w2: &[f32]) -> Network {
    let mut rng = TensorRng::seed_from(0);
    let mut net = Network::new("prop");
    let mut l1 = Linear::new("fc1", 4, 8, &mut rng);
    *l1.weights_mut() = Tensor::from_vec(w1.to_vec(), Shape::d2(8, 4)).unwrap();
    let mut l2 = Linear::new("fc2", 8, 3, &mut rng);
    *l2.weights_mut() = Tensor::from_vec(w2.to_vec(), Shape::d2(3, 8)).unwrap();
    net.push(Layer::Linear(l1));
    net.push(Layer::Relu(Relu::new()));
    net.push(Layer::Linear(l2));
    net
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Calibrated formats always cover the activations they were
    /// calibrated on, whatever the weights.
    #[test]
    fn calibration_covers_its_own_data(
        w1 in proptest::collection::vec(-0.9f32..0.9, 32),
        w2 in proptest::collection::vec(-0.9f32..0.9, 24),
        xs in proptest::collection::vec(-1.0f32..1.0, 8),
    ) {
        let mut net = mlp_with_weights(&w1, &w2);
        let x = Tensor::from_vec(xs, Shape::d2(2, 4)).unwrap();
        let plan = calibrate(&mut net, &[(x.clone(), vec![0, 1])], 8).unwrap();
        let trace = net.forward_trace(&x, Phase::Eval).unwrap();
        prop_assert!(plan.input_format.max_value() >= trace[0].abs_max() * 0.999);
        for (i, t) in trace.iter().skip(1).enumerate() {
            if net.layers()[i].is_weighted() {
                prop_assert!(
                    plan.boundary_formats[i].max_value() >= t.abs_max() * 0.999,
                    "layer {i}"
                );
            }
        }
    }

    /// After sync, every working-net weight is an exact power of two (or
    /// the quantization of the master weight).
    #[test]
    fn sync_produces_exact_powers_of_two(
        w1 in proptest::collection::vec(-0.9f32..0.9, 32),
        w2 in proptest::collection::vec(-0.9f32..0.9, 24),
    ) {
        let mut net = mlp_with_weights(&w1, &w2);
        let x = Tensor::from_vec(vec![0.5; 8], Shape::d2(2, 4)).unwrap();
        let plan = calibrate(&mut net, &[(x, vec![0, 1])], 8).unwrap();
        let mut working = build_working_net(&net, &plan);
        sync_quantized_params(&net, &mut working, &plan);
        let masters: Vec<f32> = {
            let mut v = Vec::new();
            net.visit_params(&mut |p, _| {
                if p.shape().rank() > 1 {
                    v.extend_from_slice(p.as_slice());
                }
            });
            v
        };
        let mut quants = Vec::new();
        working.visit_params(&mut |p, _| {
            if p.shape().rank() > 1 {
                quants.extend_from_slice(p.as_slice());
            }
        });
        prop_assert_eq!(masters.len(), quants.len());
        for (m, q) in masters.iter().zip(&quants) {
            prop_assert_eq!(*q, Pow2Weight::from_f32(*m).to_f32());
        }
    }

    /// Integer inference saturates instead of wrapping: all output codes
    /// are valid i8 (trivially true by type) and the dequantized logits
    /// are within the output format's range.
    #[test]
    fn integer_logits_within_format_range(
        w1 in proptest::collection::vec(-0.9f32..0.9, 32),
        w2 in proptest::collection::vec(-0.9f32..0.9, 24),
        xs in proptest::collection::vec(-1.0f32..1.0, 4),
    ) {
        let mut net = mlp_with_weights(&w1, &w2);
        let calib = Tensor::from_vec(vec![0.5; 8], Shape::d2(2, 4)).unwrap();
        let plan = calibrate(&mut net, &[(calib, vec![0, 1])], 8).unwrap();
        let q = QuantizedNet::from_network(&net, &plan).unwrap();
        let img = Tensor::from_slice(&xs);
        let logits = q.logits(&img).unwrap();
        let fmt = q.output_format();
        for &v in logits.as_slice() {
            prop_assert!(v >= fmt.min_value() - 1e-6 && v <= fmt.max_value() + 1e-6);
        }
    }

    /// Deployment images round-trip bit-exactly for arbitrary weights.
    #[test]
    fn deployment_round_trip(
        w1 in proptest::collection::vec(-0.9f32..0.9, 32),
        w2 in proptest::collection::vec(-0.9f32..0.9, 24),
        xs in proptest::collection::vec(-1.0f32..1.0, 4),
    ) {
        let mut net = mlp_with_weights(&w1, &w2);
        let calib = Tensor::from_vec(vec![0.5; 8], Shape::d2(2, 4)).unwrap();
        let plan = calibrate(&mut net, &[(calib, vec![0, 1])], 8).unwrap();
        let q = QuantizedNet::from_network(&net, &plan).unwrap();
        let img = Tensor::from_slice(&xs);
        let bytes = to_bytes(&q);
        let back = from_bytes(&bytes).unwrap();
        prop_assert_eq!(q.forward_codes(&img).unwrap(), back.forward_codes(&img).unwrap());
    }

    /// The batched quantized forward is bit-equivalent to the per-image
    /// path, for arbitrary weights, inputs and batch sizes — the invariant
    /// the serving runtime's micro-batcher relies on to return responses
    /// byte-identical to unbatched `logits` calls.
    #[test]
    fn batched_forward_matches_per_image(
        w1 in proptest::collection::vec(-0.9f32..0.9, 32),
        w2 in proptest::collection::vec(-0.9f32..0.9, 24),
        xs in proptest::collection::vec(-1.0f32..1.0, 4..=28),
    ) {
        let mut net = mlp_with_weights(&w1, &w2);
        let calib = Tensor::from_vec(vec![0.5; 8], Shape::d2(2, 4)).unwrap();
        let plan = calibrate(&mut net, &[(calib, vec![0, 1])], 8).unwrap();
        let q = QuantizedNet::from_network(&net, &plan).unwrap();
        let n = xs.len() / 4;
        let batch = Tensor::from_vec(xs[..n * 4].to_vec(), Shape::d2(n, 4)).unwrap();
        let batched = q.forward_codes_batch(&batch).unwrap();
        prop_assert_eq!(batched.len(), n);
        let batched_logits = q.logits_batch(&batch).unwrap();
        for (s, batched_codes) in batched.iter().enumerate() {
            let img = batch.index_axis0(s);
            let single = q.forward_codes(&img).unwrap();
            prop_assert_eq!(batched_codes, &single, "codes diverge at image {}", s);
            // Dequantized logits must match bit-for-bit as well.
            let row = batched_logits.index_axis0(s);
            let direct = q.logits(&img).unwrap();
            prop_assert_eq!(row.as_slice(), direct.as_slice());
        }
    }

    /// A single workspace reused across arbitrary images gives exactly
    /// the per-call-allocation results, and its grow-only buffers never
    /// corrupt a later (smaller or larger) pass — the tentpole's
    /// workspace-reuse contract, including agreement with the
    /// decode-based reference datapath.
    #[test]
    fn reused_workspace_forward_matches_fresh_and_reference(
        w1 in proptest::collection::vec(-0.9f32..0.9, 32),
        w2 in proptest::collection::vec(-0.9f32..0.9, 24),
        xs in proptest::collection::vec(-1.0f32..1.0, 12),
    ) {
        let mut net = mlp_with_weights(&w1, &w2);
        let calib = Tensor::from_vec(vec![0.5; 8], Shape::d2(2, 4)).unwrap();
        let plan = calibrate(&mut net, &[(calib, vec![0, 1])], 8).unwrap();
        let q = QuantizedNet::from_network(&net, &plan).unwrap();
        let mut ws = q.plan().workspace();
        for s in 0..3 {
            let img = Tensor::from_vec(xs[s * 4..(s + 1) * 4].to_vec(), Shape::d1(4)).unwrap();
            let fresh = q.forward_codes(&img).unwrap();
            let reference = q.forward_codes_reference(&img).unwrap();
            let via_ws = q.forward_codes_with(&img, &mut ws).unwrap();
            prop_assert_eq!(via_ws, &fresh[..], "workspace pass diverged at image {}", s);
            prop_assert_eq!(fresh, reference, "packed vs reference diverged at image {}", s);
        }
    }

    /// Ragged-batch coverage for the batch-fused forward on the MLP:
    /// every batch size 1..=9 must match the per-image decode-reference
    /// oracle code-for-code (the serving batcher produces exactly these
    /// ragged tails when traffic ebbs).
    #[test]
    fn fused_mlp_batch_matches_per_image_oracle(
        w1 in proptest::collection::vec(-0.9f32..0.9, 32),
        w2 in proptest::collection::vec(-0.9f32..0.9, 24),
        n in 1usize..10,
        seed in 0u64..1000,
    ) {
        let mut net = mlp_with_weights(&w1, &w2);
        let calib = Tensor::from_vec(vec![0.5; 8], Shape::d2(2, 4)).unwrap();
        let plan = calibrate(&mut net, &[(calib, vec![0, 1])], 8).unwrap();
        let q = QuantizedNet::from_network(&net, &plan).unwrap();
        let mut rng = TensorRng::seed_from(seed + 1);
        let batch = rng.gaussian([n, 4], 0.0, 0.5);
        let oracle: Vec<Vec<i8>> = (0..n)
            .map(|s| q.forward_codes_reference(&batch.index_axis0(s)).unwrap())
            .collect();
        prop_assert_eq!(q.forward_codes_batch(&batch).unwrap(), oracle.clone());
        // The flat logits entry agrees bit-for-bit with the dequantized
        // oracle codes, and a plan sized for max_batch 9 serves every
        // smaller batch warm.
        let wplan = q.plan_for_batch(9);
        let mut ws = wplan.workspace();
        let mut fused = vec![0.0f32; n * q.classes()];
        q.logits_batch_into(batch.as_slice(), n, &mut ws, &mut fused).unwrap();
        let fmt = q.output_format();
        let want = oracle.iter().flatten().map(|&c| fmt.dequantize(c as i32));
        for (a, b) in fused.iter().zip(want) {
            prop_assert!(a.to_bits() == b.to_bits());
        }
        prop_assert!(ws.is_warm_for(&wplan));
    }

    /// Quantization never introduces NaN/∞ into the working network.
    #[test]
    fn quantization_keeps_values_finite(
        w1 in proptest::collection::vec(-10.0f32..10.0, 32),
        w2 in proptest::collection::vec(-10.0f32..10.0, 24),
    ) {
        let mut net = mlp_with_weights(&w1, &w2);
        let x = Tensor::from_vec(vec![0.25; 8], Shape::d2(2, 4)).unwrap();
        let plan = calibrate(&mut net, &[(x.clone(), vec![0, 1])], 8).unwrap();
        let mut working = build_working_net(&net, &plan);
        sync_quantized_params(&net, &mut working, &plan);
        let y = working.forward(&x, Phase::Eval).unwrap();
        prop_assert!(y.as_slice().iter().all(|v| v.is_finite()));
    }
}
