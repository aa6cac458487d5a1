//! `cifar10-offline`: the paper's `cifar10_full` topology, calibrated,
//! quantized and loaded from its v2 image, called through
//! `QuantizedNet::logits_batch_into` on seeded batches of [`BATCH`]
//! images from one thread. The conv layers are nearly all of the
//! forward pass here, so this is where a kernel change shows; the serve
//! tier does no work.

use std::time::Duration;

use mfdfp_tensor::Tensor;

use crate::cli::RunArgs;
use crate::json::Obj;
use crate::layers;
use crate::models::{self, Model, NetKind};
use crate::report::{peak_rss_mb, Outcome};
use crate::setup;
use crate::stats::{self, percentile_sorted, sorted};

const BATCH: usize = 8;
/// Distinct seeded batches the calls cycle through.
const POOL_BATCHES: usize = 32;
/// Images per run checked against the decode-reference datapath.
const REFERENCE_SAMPLE: usize = 4;
/// Latency limit of one `logits_batch_into` call at B=8 for
/// `on_time_pct`: about twice the median call on a 2-vCPU VM, above the
/// p99 of every run seen there, host slow spells included.
const CALL_LIMIT_US: f64 = 40_000.0;

pub fn run(args: &RunArgs) -> Result<Outcome, String> {
    let mut setup = setup::time_fresh(args.workload, setup::REPS / 2)?;
    let mut model = Model::build(NetKind::Cifar10Full)?;
    let net = std::sync::Arc::clone(&model.qnet);
    let classes = net.classes();
    let per = NetKind::Cifar10Full.input_len();
    let pool = models::images(args.seed, POOL_BATCHES * BATCH, NetKind::Cifar10Full);
    let batch_of = |b: usize| &pool[b * BATCH * per..(b + 1) * BATCH * per];

    // What every measured call must return: the fused call's first
    // answer for each batch, itself checked on a seeded sample against
    // the decode-reference datapath.
    let mut ws = net.plan_for_batch(BATCH).workspace();
    let mut expected = vec![vec![0f32; BATCH * classes]; POOL_BATCHES];
    for (b, exp) in expected.iter_mut().enumerate() {
        net.logits_batch_into(batch_of(b), BATCH, &mut ws, exp)
            .map_err(|e| format!("logits_batch_into: {e}"))?;
    }
    let fmt = net.output_format();
    for k in 0..REFERENCE_SAMPLE {
        let i =
            (args.seed as usize).wrapping_mul(7919).wrapping_add(k * 61) % (POOL_BATCHES * BATCH);
        let [c, h, w] = NetKind::Cifar10Full.input_shape();
        let img = Tensor::from_vec(pool[i * per..(i + 1) * per].to_vec(), [c, h, w])
            .map_err(|e| e.to_string())?;
        let codes = net
            .forward_codes_reference(&img)
            .map_err(|e| format!("forward_codes_reference: {e}"))?;
        let got = &expected[i / BATCH][(i % BATCH) * classes..(i % BATCH + 1) * classes];
        if codes.iter().zip(got).any(|(&c, g)| fmt.dequantize(c as i32).to_bits() != g.to_bits())
            || codes.len() != classes
        {
            return Err(format!(
                "image {i}: logits_batch_into differs from forward_codes_reference"
            ));
        }
    }

    let agree = model.float_agreement()?;

    // The measured pass: each seeded batch through the MF-DFP datapath
    // and the float master back to back.
    let span = Duration::from_secs_f64(args.seconds as f64 / if args.trace { 2.0 } else { 1.0 });
    let paired = model.paired(&pool, BATCH, span, |image, logits| {
        let b = image / BATCH;
        if logits.iter().zip(&expected[b]).any(|(a, e)| a.to_bits() != e.to_bits()) {
            return Err(format!("batch {b}: logits_batch_into changed its answer between calls"));
        }
        Ok(())
    })?;
    let attempted = paired.mfdfp_us.len() as u64;
    setup.extend(setup::time_fresh(args.workload, setup::REPS - setup::REPS / 2)?);

    let mut out = Outcome::default();
    if args.trace {
        let profile =
            layers::profile(&net, &pool, NetKind::Cifar10Full.input_shape(), BATCH, span)?;
        profile.put_rows(&mut out);
        out.put("trace.overhead_pct", profile.overhead_pct());
        out.layers.push(profile.breakdown());
    }
    paired.put(&mut out, BATCH);
    // Every call's answer is checked and a wrong one ends the run, so
    // the calls that miss are the slow ones.
    let on_time = paired.mfdfp_us.iter().filter(|&&us| us <= CALL_LIMIT_US).count();
    out.put("on_time_pct", 100.0 * on_time as f64 / attempted as f64);
    let latency = sorted(&paired.mfdfp_us);
    let p50 = percentile_sorted(&latency, 0.5);
    out.put_summary("loadgen.latency_p50_us", p50, &paired.mfdfp_us);
    out.put("loadgen.latency_p99_us", percentile_sorted(&latency, 0.99));
    out.put("loadgen.images_per_s", BATCH as f64 * 1e6 / p50);
    out.put("loadgen.lag_p99_us", percentile_sorted(&sorted(&paired.turnaround_us), 0.99));
    out.put("float_agree_pct", agree);
    out.put_summary("setup_s", stats::median(&setup), &setup);
    out.put("core.image_open_us", model.image_open_us);
    out.put("peak_rss_mb", peak_rss_mb()?);
    out.attempted = attempted;
    out.failed = 0;
    out.config = Obj::new()
        .str("net", "cifar10_full(10)")
        .str("loop", "closed, one thread")
        .num("batch", BATCH as f64)
        .num("pool_images", (POOL_BATCHES * BATCH) as f64)
        .num("reference_sample", REFERENCE_SAMPLE as f64)
        .num("call_limit_us", CALL_LIMIT_US)
        .num("setup_reps", setup::REPS as f64)
        .num("calls", attempted as f64)
        .finish();
    Ok(out)
}
