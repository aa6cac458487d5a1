//! Serving telemetry: counters, latency percentiles, batch-size histogram,
//! per-stage breakdowns, per-model series, op-count/energy metering and
//! shared-pool counters.
//!
//! All hot-path recording is lock-free (`AtomicU64` with relaxed
//! ordering — counts need no synchronises-with edges), so metrics cost a
//! few nanoseconds per request. Latencies land in power-of-two microsecond
//! buckets; percentiles are reported as the matching bucket's upper bound,
//! which is exact enough for operational monitoring (the load-generator
//! bench records exact per-request latencies separately).
//!
//! Beyond the global request counters, a snapshot carries:
//!
//! * **stages** — queue-wait / inference / response-send histograms, so a
//!   p99 can be attributed to waiting vs computing vs answering;
//! * **models** — a per-model registry keyed like [`ModelRegistry`]
//!   (name → submitted/completed/failed/latency buckets/batch histogram),
//!   created lazily at first admission; the map is read-locked once per
//!   submit and never touched again on the hot path (workers hold `Arc`s);
//! * **ops** / **energy_estimate** — the process-wide datapath op
//!   counters ([`mfdfp_obs::ops`]: shift-MACs, im2col bytes,
//!   decode-fallback rows, tripped overflow audits) priced by
//!   [`mfdfp_accel::OpCostModel`]. Monotonic since process start, like
//!   the pool counters; all-zero without the `obs` feature. The JSON
//!   schema is identical across feature sets.
//!
//! Each snapshot also samples the process-wide `mfdfp-rt` pool the tensor
//! kernels and batch dispatch share ([`mfdfp_rt::global_stats`] — reading
//! never instantiates the pool, so a metrics poll has no side effects):
//! `pool_threads` is the pool width (0 until any hot path engages it),
//! and `pool_tasks_run`/`pool_steals`/`pool_idle_parks` are monotonic
//! since process start, like the request counters are since server start.
//!
//! [`ModelRegistry`]: crate::ModelRegistry

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, RwLock};
use std::time::{Duration, Instant};

use mfdfp_accel::{OpCostModel, OpEnergyEstimate};
use mfdfp_obs::OpCounters;

/// Number of log2 latency buckets: bucket `i` covers `[2^i, 2^{i+1})` µs
/// (bucket 0 also absorbs sub-microsecond latencies), so the top bucket
/// starts at `2^39` µs ≈ 6.4 days — effectively unbounded.
const LATENCY_BUCKETS: usize = 40;

/// A lock-free log2-µs duration histogram with sum and count — the
/// recording half of every latency/stage series in this module.
struct Histogram {
    count: AtomicU64,
    sum_us: AtomicU64,
    buckets: [AtomicU64; LATENCY_BUCKETS],
}

impl Histogram {
    fn new() -> Self {
        Histogram {
            count: AtomicU64::new(0),
            sum_us: AtomicU64::new(0),
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
        }
    }

    fn record(&self, d: Duration) {
        let us = d.as_micros().min(u128::from(u64::MAX)) as u64;
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum_us.fetch_add(us, Ordering::Relaxed);
        let idx = (us.max(1).ilog2() as usize).min(LATENCY_BUCKETS - 1);
        self.buckets[idx].fetch_add(1, Ordering::Relaxed);
    }

    fn load_buckets(&self) -> Vec<u64> {
        self.buckets.iter().map(|b| b.load(Ordering::Relaxed)).collect()
    }

    fn snapshot(&self) -> StageSnapshot {
        let buckets = self.load_buckets();
        let count = self.count.load(Ordering::Relaxed);
        let sum_us = self.sum_us.load(Ordering::Relaxed);
        StageSnapshot {
            count,
            mean_us: if count == 0 { 0.0 } else { sum_us as f64 / count as f64 },
            p50_us: percentile_upper_bound(&buckets, 0.50),
            p95_us: percentile_upper_bound(&buckets, 0.95),
            p99_us: percentile_upper_bound(&buckets, 0.99),
        }
    }
}

/// Live metrics shared between the server, its workers and observers.
pub struct ServerMetrics {
    started: Instant,
    max_batch: usize,
    submitted: AtomicU64,
    rejected: AtomicU64,
    quota_rejected: AtomicU64,
    shed: AtomicU64,
    completed: AtomicU64,
    failed: AtomicU64,
    latency: Histogram,
    /// Index `i` counts dispatched batches of size `i + 1`.
    batch_buckets: Vec<AtomicU64>,
    queue_wait: Histogram,
    infer: Histogram,
    respond: Histogram,
    models: RwLock<HashMap<String, Arc<ModelMetrics>>>,
    breaker_rejected: AtomicU64,
    breaker_opens: AtomicU64,
    respawns: AtomicU64,
    degraded: AtomicU64,
    /// Gauge, not a counter: the adaptive-degradation controller's
    /// current level (ensemble members trimmed). Workers read it per
    /// dispatch; only the supervisor writes it.
    degrade_level: AtomicU64,
    shutdown_rejected: AtomicU64,
    http_idle_closed: AtomicU64,
}

impl ServerMetrics {
    /// Creates zeroed metrics for a server whose largest batch is
    /// `max_batch`.
    pub fn new(max_batch: usize) -> Self {
        ServerMetrics {
            started: Instant::now(),
            max_batch: max_batch.max(1),
            submitted: AtomicU64::new(0),
            rejected: AtomicU64::new(0),
            quota_rejected: AtomicU64::new(0),
            shed: AtomicU64::new(0),
            completed: AtomicU64::new(0),
            failed: AtomicU64::new(0),
            latency: Histogram::new(),
            batch_buckets: (0..max_batch.max(1)).map(|_| AtomicU64::new(0)).collect(),
            queue_wait: Histogram::new(),
            infer: Histogram::new(),
            respond: Histogram::new(),
            models: RwLock::new(HashMap::new()),
            breaker_rejected: AtomicU64::new(0),
            breaker_opens: AtomicU64::new(0),
            respawns: AtomicU64::new(0),
            degraded: AtomicU64::new(0),
            degrade_level: AtomicU64::new(0),
            shutdown_rejected: AtomicU64::new(0),
            http_idle_closed: AtomicU64::new(0),
        }
    }

    /// The per-model series for `name`, created on first use. One
    /// read-lock per call (plus a write-lock the first time a name is
    /// seen) — the server resolves this once at admission and carries
    /// the `Arc` with the request, so workers never touch the map.
    pub fn model(&self, name: &str) -> Arc<ModelMetrics> {
        if let Some(m) = self.models.read().expect("metrics poisoned").get(name) {
            return Arc::clone(m);
        }
        Arc::clone(
            self.models
                .write()
                .expect("metrics poisoned")
                .entry(name.to_string())
                .or_insert_with(|| Arc::new(ModelMetrics::new(self.max_batch))),
        )
    }

    /// Records an accepted submission.
    pub fn record_submitted(&self) {
        self.submitted.fetch_add(1, Ordering::Relaxed);
    }

    /// Records an admission-control rejection (queue full).
    pub fn record_rejected(&self) {
        self.rejected.fetch_add(1, Ordering::Relaxed);
    }

    /// Records an admission-control rejection caused by a per-model
    /// quota.
    pub fn record_quota_rejected(&self) {
        self.quota_rejected.fetch_add(1, Ordering::Relaxed);
    }

    /// Records a request shed by the batcher because its deadline
    /// expired before inference.
    pub fn record_shed(&self) {
        self.shed.fetch_add(1, Ordering::Relaxed);
    }

    /// Records one dispatched batch of `size` requests.
    pub fn record_batch(&self, size: usize) {
        let idx = size.clamp(1, self.batch_buckets.len()) - 1;
        self.batch_buckets[idx].fetch_add(1, Ordering::Relaxed);
    }

    /// Records a successfully answered request and its end-to-end latency
    /// (queue wait + inference).
    pub fn record_completed(&self, latency: Duration) {
        self.completed.fetch_add(1, Ordering::Relaxed);
        self.latency.record(latency);
    }

    /// Records a request that failed inside the datapath.
    pub fn record_failed(&self) {
        self.failed.fetch_add(1, Ordering::Relaxed);
    }

    /// Records one request's admission→dispatch wait (stage breakdown).
    pub fn record_queue_wait(&self, wait: Duration) {
        self.queue_wait.record(wait);
    }

    /// Records one batch's inference time (stage breakdown).
    pub fn record_infer(&self, time: Duration) {
        self.infer.record(time);
    }

    /// Records one batch's response materialisation/send time (stage
    /// breakdown).
    pub fn record_respond(&self, time: Duration) {
        self.respond.record(time);
    }

    /// Records an admission fast-failed by an open circuit breaker.
    pub fn record_breaker_rejected(&self) {
        self.breaker_rejected.fetch_add(1, Ordering::Relaxed);
    }

    /// Records a circuit (re-)opening — called exactly once per trip.
    pub fn record_breaker_open(&self) {
        self.breaker_opens.fetch_add(1, Ordering::Relaxed);
    }

    /// Records a worker thread respawned by the watchdog (dead or hung).
    pub fn record_respawn(&self) {
        self.respawns.fetch_add(1, Ordering::Relaxed);
    }

    /// Records a request answered in degraded mode (truncated ensemble).
    pub fn record_degraded(&self) {
        self.degraded.fetch_add(1, Ordering::Relaxed);
    }

    /// Records a queued request rejected at the bounded-drain deadline.
    pub fn record_shutdown_rejected(&self) {
        self.shutdown_rejected.fetch_add(1, Ordering::Relaxed);
    }

    /// Records an HTTP connection closed by the keep-alive idle timeout.
    pub fn record_http_idle_closed(&self) {
        self.http_idle_closed.fetch_add(1, Ordering::Relaxed);
    }

    /// Sets the adaptive-degradation level gauge (supervisor only).
    pub fn set_degrade_level(&self, level: u64) {
        self.degrade_level.store(level, Ordering::Relaxed);
    }

    /// Current adaptive-degradation level: how many ensemble members the
    /// dispatch path trims (0 = full ensembles). Workers read this once
    /// per dispatched group.
    pub fn degrade_level(&self) -> u64 {
        self.degrade_level.load(Ordering::Relaxed)
    }

    /// Raw queue-wait bucket counts (log2-µs, cumulative since start).
    /// The supervisor differences two samples to get the distribution of
    /// waits observed in one control tick.
    pub(crate) fn queue_wait_bucket_counts(&self) -> Vec<u64> {
        self.queue_wait.load_buckets()
    }

    /// Watchdog respawns so far (the health surface reads this without
    /// paying for a full snapshot).
    pub(crate) fn respawn_count(&self) -> u64 {
        self.respawns.load(Ordering::Relaxed)
    }

    /// Takes a consistent-enough point-in-time view (counters are read
    /// individually; relaxed skew of a few requests is acceptable for
    /// monitoring). `queue_depth` is sampled by the caller, which owns the
    /// queue. Single-queue convenience for
    /// [`ServerMetrics::snapshot_sharded`].
    pub fn snapshot(&self, queue_depth: usize) -> MetricsSnapshot {
        self.snapshot_sharded(&[queue_depth])
    }

    /// [`ServerMetrics::snapshot`] over a sharded server: `shard_depths`
    /// holds each shard's queue depth (sampled by the caller, which owns
    /// the shards). The aggregate `queue_depth` is their sum, and —
    /// exactly like the single-queue path — `uptime` and
    /// `throughput_rps` come from **one** `elapsed()` sample, so the
    /// reported rate is always reproducible from the reported uptime no
    /// matter how many shards were merged.
    pub fn snapshot_sharded(&self, shard_depths: &[usize]) -> MetricsSnapshot {
        let queue_depth = shard_depths.iter().sum();
        let buckets = self.latency.load_buckets();
        let completed = self.completed.load(Ordering::Relaxed);
        let sum_us = self.latency.sum_us.load(Ordering::Relaxed);
        let mut batch_histogram: Vec<u64> =
            self.batch_buckets.iter().map(|b| b.load(Ordering::Relaxed)).collect();
        while batch_histogram.last() == Some(&0) && batch_histogram.len() > 1 {
            batch_histogram.pop();
        }
        // One clock sample for both `uptime` and the throughput
        // denominator — two `elapsed()` calls can disagree within a
        // snapshot and make the reported rate irreproducible from the
        // reported uptime.
        let uptime = self.started.elapsed();
        let elapsed = uptime.as_secs_f64().max(1e-9);
        let mut models: Vec<ModelSnapshot> = self
            .models
            .read()
            .expect("metrics poisoned")
            .iter()
            .map(|(name, m)| m.snapshot(name.clone()))
            .collect();
        models.sort_by(|a, b| a.name.cmp(&b.name));
        let ops = mfdfp_obs::ops::counters();
        let energy = OpCostModel::calibrated_65nm().estimate(&ops);
        let pool = mfdfp_rt::global_stats();
        MetricsSnapshot {
            uptime,
            submitted: self.submitted.load(Ordering::Relaxed),
            rejected: self.rejected.load(Ordering::Relaxed),
            quota_rejected: self.quota_rejected.load(Ordering::Relaxed),
            shed: self.shed.load(Ordering::Relaxed),
            completed,
            failed: self.failed.load(Ordering::Relaxed),
            queue_depth,
            shard_depths: shard_depths.to_vec(),
            throughput_rps: completed as f64 / elapsed,
            mean_latency_us: if completed == 0 { 0.0 } else { sum_us as f64 / completed as f64 },
            p50_latency_us: percentile_upper_bound(&buckets, 0.50),
            p95_latency_us: percentile_upper_bound(&buckets, 0.95),
            p99_latency_us: percentile_upper_bound(&buckets, 0.99),
            batch_histogram,
            stages: StagesSnapshot {
                queue_wait: self.queue_wait.snapshot(),
                infer: self.infer.snapshot(),
                respond: self.respond.snapshot(),
            },
            models,
            breaker_rejected: self.breaker_rejected.load(Ordering::Relaxed),
            breaker_opens: self.breaker_opens.load(Ordering::Relaxed),
            respawns: self.respawns.load(Ordering::Relaxed),
            degraded: self.degraded.load(Ordering::Relaxed),
            degrade_level: self.degrade_level.load(Ordering::Relaxed),
            shutdown_rejected: self.shutdown_rejected.load(Ordering::Relaxed),
            http_idle_closed: self.http_idle_closed.load(Ordering::Relaxed),
            ops,
            energy,
            pool_threads: pool.threads,
            pool_tasks_run: pool.tasks_run,
            pool_steals: pool.steals,
            pool_idle_parks: pool.idle_parks,
        }
    }
}

/// Per-model request/latency series, handed to workers as an `Arc` at
/// admission (keyed by model name in [`ServerMetrics::model`], mirroring
/// the [`ModelRegistry`](crate::ModelRegistry) keying).
pub struct ModelMetrics {
    submitted: AtomicU64,
    quota_rejected: AtomicU64,
    shed: AtomicU64,
    completed: AtomicU64,
    failed: AtomicU64,
    /// Requests admitted but not yet answered/failed/shed — the
    /// admission token the per-model quota gates on.
    in_flight: AtomicU64,
    /// Registry version observed at the latest admission/swap.
    version: AtomicU64,
    /// Hot swaps recorded against this model (via `Server::swap_model`).
    swaps: AtomicU64,
    latency: Histogram,
    batch_buckets: Vec<AtomicU64>,
}

impl ModelMetrics {
    fn new(max_batch: usize) -> Self {
        ModelMetrics {
            submitted: AtomicU64::new(0),
            quota_rejected: AtomicU64::new(0),
            shed: AtomicU64::new(0),
            completed: AtomicU64::new(0),
            failed: AtomicU64::new(0),
            in_flight: AtomicU64::new(0),
            version: AtomicU64::new(0),
            swaps: AtomicU64::new(0),
            latency: Histogram::new(),
            batch_buckets: (0..max_batch.max(1)).map(|_| AtomicU64::new(0)).collect(),
        }
    }

    /// Records an accepted submission for this model.
    pub fn record_submitted(&self) {
        self.submitted.fetch_add(1, Ordering::Relaxed);
    }

    /// Records one dispatched batch of `size` requests for this model.
    pub fn record_batch(&self, size: usize) {
        let idx = size.clamp(1, self.batch_buckets.len()) - 1;
        self.batch_buckets[idx].fetch_add(1, Ordering::Relaxed);
    }

    /// Records a completed request and its end-to-end latency.
    pub fn record_completed(&self, latency: Duration) {
        self.completed.fetch_add(1, Ordering::Relaxed);
        self.latency.record(latency);
    }

    /// Records a datapath failure attributed to this model.
    pub fn record_failed(&self) {
        self.failed.fetch_add(1, Ordering::Relaxed);
    }

    /// Records an admission rejected by this model's quota.
    pub fn record_quota_rejected(&self) {
        self.quota_rejected.fetch_add(1, Ordering::Relaxed);
    }

    /// Records a request shed because its deadline expired before
    /// inference.
    pub fn record_shed(&self) {
        self.shed.fetch_add(1, Ordering::Relaxed);
    }

    /// Attempts to take one in-flight admission slot. With `quota:
    /// Some(q)` the acquisition fails (and nothing is counted) once `q`
    /// requests are in flight; with `None` it always succeeds. Every
    /// successful acquisition must be paired with a
    /// [`ModelMetrics::release_slot`] when the request reaches a terminal
    /// state (answered, failed, shed, or rejected by the queue after
    /// acquisition).
    pub fn try_acquire_slot(&self, quota: Option<u64>) -> bool {
        self.in_flight
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |n| match quota {
                Some(q) if n >= q => None,
                _ => Some(n + 1),
            })
            .is_ok()
    }

    /// Releases one in-flight admission slot (saturating — a stray
    /// release can never underflow).
    pub fn release_slot(&self) {
        let _ =
            self.in_flight.fetch_update(Ordering::Relaxed, Ordering::Relaxed, |n| n.checked_sub(1));
    }

    /// Requests currently in flight (admitted, not yet terminal).
    pub fn in_flight(&self) -> u64 {
        self.in_flight.load(Ordering::Relaxed)
    }

    /// Notes the registry version a request resolved at admission (keeps
    /// the reported version fresh even if swaps bypass the server).
    pub fn note_version(&self, version: u64) {
        self.version.store(version, Ordering::Relaxed);
    }

    /// Records a hot swap to `new_version` against this model.
    pub fn record_swap(&self, new_version: u64) {
        self.version.store(new_version, Ordering::Relaxed);
        self.swaps.fetch_add(1, Ordering::Relaxed);
    }

    fn snapshot(&self, name: String) -> ModelSnapshot {
        let buckets = self.latency.load_buckets();
        let completed = self.completed.load(Ordering::Relaxed);
        let sum_us = self.latency.sum_us.load(Ordering::Relaxed);
        let mut batch_histogram: Vec<u64> =
            self.batch_buckets.iter().map(|b| b.load(Ordering::Relaxed)).collect();
        while batch_histogram.last() == Some(&0) && batch_histogram.len() > 1 {
            batch_histogram.pop();
        }
        ModelSnapshot {
            name,
            submitted: self.submitted.load(Ordering::Relaxed),
            quota_rejected: self.quota_rejected.load(Ordering::Relaxed),
            shed: self.shed.load(Ordering::Relaxed),
            completed,
            failed: self.failed.load(Ordering::Relaxed),
            in_flight: self.in_flight.load(Ordering::Relaxed),
            version: self.version.load(Ordering::Relaxed),
            swaps: self.swaps.load(Ordering::Relaxed),
            mean_latency_us: if completed == 0 { 0.0 } else { sum_us as f64 / completed as f64 },
            p50_latency_us: percentile_upper_bound(&buckets, 0.50),
            p95_latency_us: percentile_upper_bound(&buckets, 0.95),
            p99_latency_us: percentile_upper_bound(&buckets, 0.99),
            batch_histogram,
        }
    }
}

/// Upper bound (µs) of the bucket holding the `q`-quantile observation;
/// 0 when nothing was recorded. `pub(crate)` so the supervisor can run
/// the same estimator over per-tick bucket deltas.
pub(crate) fn percentile_upper_bound(buckets: &[u64], q: f64) -> f64 {
    let total: u64 = buckets.iter().sum();
    if total == 0 {
        return 0.0;
    }
    let rank = (q * total as f64).ceil().max(1.0) as u64;
    let mut seen = 0u64;
    for (i, &count) in buckets.iter().enumerate() {
        seen += count;
        if seen >= rank {
            return 2f64.powi(i as i32 + 1);
        }
    }
    2f64.powi(buckets.len() as i32)
}

/// Percentile view of one histogram series (a pipeline stage, or a
/// model's latency): count, mean and bucket-upper-bound percentiles.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StageSnapshot {
    /// Observations recorded.
    pub count: u64,
    /// Mean duration in microseconds.
    pub mean_us: f64,
    /// Median (bucket upper bound), microseconds.
    pub p50_us: f64,
    /// 95th percentile (bucket upper bound), microseconds.
    pub p95_us: f64,
    /// 99th percentile (bucket upper bound), microseconds.
    pub p99_us: f64,
}

/// The pipeline-stage breakdown of a snapshot: where a request's
/// end-to-end latency goes. `queue_wait` is per request
/// (admission → dispatch); `infer` and `respond` are per dispatched
/// batch (so their counts track batches, not requests).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StagesSnapshot {
    /// Admission→dispatch wait, per request.
    pub queue_wait: StageSnapshot,
    /// Batched-inference time, per dispatched batch.
    pub infer: StageSnapshot,
    /// Response materialisation/send time, per dispatched batch.
    pub respond: StageSnapshot,
}

/// One model's slice of a snapshot (sorted by name in
/// [`MetricsSnapshot::models`]).
#[derive(Debug, Clone, PartialEq)]
pub struct ModelSnapshot {
    /// Registry name the model serves under.
    pub name: String,
    /// Requests accepted into the queue for this model.
    pub submitted: u64,
    /// Admissions rejected by this model's in-flight quota.
    pub quota_rejected: u64,
    /// Requests shed by the batcher (deadline expired before inference).
    pub shed: u64,
    /// Requests answered successfully.
    pub completed: u64,
    /// Requests that failed in the datapath.
    pub failed: u64,
    /// Requests currently in flight (admitted, not yet terminal).
    pub in_flight: u64,
    /// Registry version at the latest admission or recorded swap (0
    /// before any request resolved this model).
    pub version: u64,
    /// Hot swaps recorded against this model.
    pub swaps: u64,
    /// Mean end-to-end latency in microseconds.
    pub mean_latency_us: f64,
    /// Median latency (bucket upper bound), microseconds.
    pub p50_latency_us: f64,
    /// 95th-percentile latency (bucket upper bound), microseconds.
    pub p95_latency_us: f64,
    /// 99th-percentile latency (bucket upper bound), microseconds.
    pub p99_latency_us: f64,
    /// `batch_histogram[i]` = dispatched batches of size `i+1` for this
    /// model (trailing zero sizes trimmed).
    pub batch_histogram: Vec<u64>,
}

/// A point-in-time metrics view, exportable as JSON.
#[derive(Debug, Clone, PartialEq)]
pub struct MetricsSnapshot {
    /// Time since the metrics (server) were created. The reported
    /// `throughput_rps` uses this exact sample as its denominator.
    pub uptime: Duration,
    /// Requests accepted into the queue.
    pub submitted: u64,
    /// Requests rejected by admission control (queue full).
    pub rejected: u64,
    /// Requests rejected by a per-model in-flight quota.
    pub quota_rejected: u64,
    /// Requests shed by the batcher: their deadline expired before
    /// inference started, so the datapath never ran for them. Every
    /// admitted request ends in exactly one of `completed`, `failed`,
    /// `shed` or `shutdown_rejected` — after a drain,
    /// `completed + failed + shed + shutdown_rejected == submitted`.
    pub shed: u64,
    /// Requests answered successfully.
    pub completed: u64,
    /// Requests that failed in the datapath.
    pub failed: u64,
    /// Items queued at snapshot time, summed across shards.
    pub queue_depth: usize,
    /// Per-shard queue depths (one entry per shard, in shard order); the
    /// aggregate `queue_depth` is their sum and shares the same single
    /// clock sample as `uptime`/`throughput_rps`.
    pub shard_depths: Vec<usize>,
    /// Completed requests per second since start-up.
    pub throughput_rps: f64,
    /// Mean end-to-end latency in microseconds.
    pub mean_latency_us: f64,
    /// Median latency (bucket upper bound), microseconds.
    pub p50_latency_us: f64,
    /// 95th-percentile latency (bucket upper bound), microseconds.
    pub p95_latency_us: f64,
    /// 99th-percentile latency (bucket upper bound), microseconds.
    pub p99_latency_us: f64,
    /// `batch_histogram[i]` = number of dispatched batches of size `i+1`
    /// (trailing zero sizes trimmed).
    pub batch_histogram: Vec<u64>,
    /// Queue-wait / inference / response-send breakdown.
    pub stages: StagesSnapshot,
    /// Per-model series, sorted by model name. A model appears once its
    /// first request passes admission validation.
    pub models: Vec<ModelSnapshot>,
    /// Admissions fast-failed by an open circuit breaker.
    pub breaker_rejected: u64,
    /// Times any model's circuit (re-)opened.
    pub breaker_opens: u64,
    /// Worker threads respawned by the watchdog (dead or hung).
    pub respawns: u64,
    /// Requests answered in degraded mode (truncated ensemble prefix).
    pub degraded: u64,
    /// Adaptive-degradation level at snapshot time (gauge; 0 = full
    /// ensembles).
    pub degrade_level: u64,
    /// Queued requests rejected at the bounded-drain deadline
    /// ([`ServeError::ShuttingDown`](crate::ServeError::ShuttingDown)).
    pub shutdown_rejected: u64,
    /// HTTP keep-alive connections closed by the idle timeout.
    pub http_idle_closed: u64,
    /// Process-wide datapath op counters (monotonic since process
    /// start; all-zero without the `obs` feature).
    pub ops: OpCounters,
    /// [`ops`](Self::ops) priced by the calibrated 65 nm
    /// [`OpCostModel`] — the live shift-add-vs-multiply energy story.
    pub energy: OpEnergyEstimate,
    /// Width of the shared `mfdfp-rt` pool (workers + helping caller);
    /// `0` until any hot path engages the pool — on a default
    /// (non-`parallel`) build it stays 0 forever.
    pub pool_threads: usize,
    /// Pool tasks run since process start (row chunks, batch-forward
    /// chunks, dispatched serve groups; counted at execution start, so
    /// an in-flight task is already included).
    pub pool_tasks_run: u64,
    /// Pool tasks executed by a thread other than their submitter.
    pub pool_steals: u64,
    /// Times a pool worker parked on an empty queue.
    pub pool_idle_parks: u64,
}

/// Minimal JSON string escaping — the one escaper of the serving tier:
/// model names here (labels under the caller's control, but the exporter
/// stays correct for any name), the health surface, and the HTTP
/// front-end's error bodies and model listings.
pub(crate) fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

fn stage_json(s: &StageSnapshot) -> String {
    format!(
        "{{\"count\":{},\"mean\":{:.1},\"p50\":{:.1},\"p95\":{:.1},\"p99\":{:.1}}}",
        s.count, s.mean_us, s.p50_us, s.p95_us, s.p99_us
    )
}

impl MetricsSnapshot {
    /// Largest batch size that was actually dispatched (0 before any
    /// dispatch).
    pub fn max_batch_observed(&self) -> usize {
        self.batch_histogram.iter().rposition(|&c| c > 0).map_or(0, |i| i + 1)
    }

    /// Serialises the snapshot as a self-contained JSON object (the
    /// vendored `serde` shim does not serialise, so this is hand-rolled —
    /// stable key order, no trailing separators). Schema, stable across
    /// feature sets (see README "Metrics & capacity tuning" and
    /// "Flight-recorder tracing" for field semantics):
    ///
    /// * the global counters (now including `quota_rejected` and `shed`),
    ///   `shard_depths` (per-shard queue depths) and
    ///   `latency_us`/`batch_histogram`, as before;
    /// * `stages` — `queue_wait`/`infer`/`respond`, each
    ///   `{count, mean, p50, p95, p99}` (µs);
    /// * `models` — name-keyed object, one entry per served model with
    ///   its own counters, `latency_us` and `batch_histogram`;
    /// * `resilience` — the self-healing counters: watchdog `respawns`,
    ///   breaker fast-fails and opens, degraded answers and the current
    ///   `degrade_level` gauge, drain-deadline `shutdown_rejected`, and
    ///   `http_idle_closed` keep-alive reaps;
    /// * `ops` — process-wide datapath op counters (zeros without the
    ///   `obs` feature);
    /// * `energy_estimate` — `ops` priced in µJ by the calibrated
    ///   per-op cost model, with the FP32 baseline and saving;
    /// * `pool` — shared runtime-pool counters, always present (zeros
    ///   when the pool was never engaged).
    pub fn to_json(&self) -> String {
        let hist: Vec<String> = self.batch_histogram.iter().map(u64::to_string).collect();
        let models: Vec<String> = self
            .models
            .iter()
            .map(|m| {
                let mh: Vec<String> = m.batch_histogram.iter().map(u64::to_string).collect();
                format!(
                    concat!(
                        "\"{}\":{{\"submitted\":{},\"quota_rejected\":{},\"shed\":{},",
                        "\"completed\":{},\"failed\":{},\"in_flight\":{},",
                        "\"version\":{},\"swaps\":{},",
                        "\"latency_us\":{{\"mean\":{:.1},\"p50\":{:.1},\"p95\":{:.1},",
                        "\"p99\":{:.1}}},\"batch_histogram\":[{}]}}"
                    ),
                    json_escape(&m.name),
                    m.submitted,
                    m.quota_rejected,
                    m.shed,
                    m.completed,
                    m.failed,
                    m.in_flight,
                    m.version,
                    m.swaps,
                    m.mean_latency_us,
                    m.p50_latency_us,
                    m.p95_latency_us,
                    m.p99_latency_us,
                    mh.join(","),
                )
            })
            .collect();
        let depths: Vec<String> = self.shard_depths.iter().map(usize::to_string).collect();
        format!(
            concat!(
                "{{\"uptime_s\":{:.3},\"submitted\":{},\"rejected\":{},",
                "\"quota_rejected\":{},\"shed\":{},",
                "\"completed\":{},\"failed\":{},\"queue_depth\":{},",
                "\"shard_depths\":[{}],",
                "\"throughput_rps\":{:.2},\"latency_us\":{{\"mean\":{:.1},",
                "\"p50\":{:.1},\"p95\":{:.1},\"p99\":{:.1}}},",
                "\"batch_histogram\":[{}],",
                "\"stages\":{{\"queue_wait\":{},\"infer\":{},\"respond\":{}}},",
                "\"models\":{{{}}},",
                "\"resilience\":{{\"respawns\":{},\"breaker_rejected\":{},",
                "\"breaker_opens\":{},\"degraded\":{},\"degrade_level\":{},",
                "\"shutdown_rejected\":{},\"http_idle_closed\":{}}},",
                "\"ops\":{{\"shift_macs\":{},\"im2col_bytes\":{},",
                "\"decode_rows\":{},\"overflow_audits\":{}}},",
                "\"energy_estimate\":{{\"mac_uj\":{:.3},\"sram_uj\":{:.3},",
                "\"total_uj\":{:.3},\"fp32_baseline_uj\":{:.3},",
                "\"saving_pct\":{:.2}}},",
                "\"pool\":{{\"threads\":{},\"tasks_run\":{},",
                "\"steals\":{},\"idle_parks\":{}}}}}"
            ),
            self.uptime.as_secs_f64(),
            self.submitted,
            self.rejected,
            self.quota_rejected,
            self.shed,
            self.completed,
            self.failed,
            self.queue_depth,
            depths.join(","),
            self.throughput_rps,
            self.mean_latency_us,
            self.p50_latency_us,
            self.p95_latency_us,
            self.p99_latency_us,
            hist.join(","),
            stage_json(&self.stages.queue_wait),
            stage_json(&self.stages.infer),
            stage_json(&self.stages.respond),
            models.join(","),
            self.respawns,
            self.breaker_rejected,
            self.breaker_opens,
            self.degraded,
            self.degrade_level,
            self.shutdown_rejected,
            self.http_idle_closed,
            self.ops.shift_macs,
            self.ops.im2col_bytes,
            self.ops.decode_rows,
            self.ops.overflow_audits,
            self.energy.mac_uj,
            self.energy.sram_uj,
            self.energy.total_uj,
            self.energy.fp32_baseline_uj,
            self.energy.saving_pct,
            self.pool_threads,
            self.pool_tasks_run,
            self.pool_steals,
            self.pool_idle_parks,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate() {
        let m = ServerMetrics::new(8);
        m.record_submitted();
        m.record_submitted();
        m.record_rejected();
        m.record_completed(Duration::from_micros(100));
        m.record_failed();
        let s = m.snapshot(3);
        assert_eq!((s.submitted, s.rejected, s.completed, s.failed), (2, 1, 1, 1));
        assert_eq!(s.queue_depth, 3);
        assert!(s.throughput_rps > 0.0);
    }

    #[test]
    fn batch_histogram_counts_sizes() {
        let m = ServerMetrics::new(4);
        m.record_batch(1);
        m.record_batch(3);
        m.record_batch(3);
        m.record_batch(9); // clamped into the top bucket
        let s = m.snapshot(0);
        assert_eq!(s.batch_histogram, vec![1, 0, 2, 1]);
        assert_eq!(s.max_batch_observed(), 4);
    }

    #[test]
    fn percentiles_track_bucket_bounds() {
        let m = ServerMetrics::new(1);
        // 99 fast requests (~16 µs bucket) and one slow outlier (~1 ms).
        for _ in 0..99 {
            m.record_completed(Duration::from_micros(16));
        }
        m.record_completed(Duration::from_micros(1000));
        let s = m.snapshot(0);
        assert_eq!(s.p50_latency_us, 32.0);
        assert_eq!(s.p95_latency_us, 32.0);
        // The p99 rank (ceil(0.99·100) = 99) still lands in the fast
        // bucket; only p100 would hit the outlier.
        assert_eq!(s.p99_latency_us, 32.0);
        assert!(s.mean_latency_us > 16.0);
    }

    #[test]
    fn empty_snapshot_is_zeroed() {
        let s = ServerMetrics::new(2).snapshot(0);
        assert_eq!(s.p50_latency_us, 0.0);
        assert_eq!(s.mean_latency_us, 0.0);
        assert_eq!(s.max_batch_observed(), 0);
        assert_eq!(s.batch_histogram, vec![0]);
        assert!(s.models.is_empty());
        assert_eq!(s.stages.queue_wait.count, 0);
        assert_eq!(s.stages.infer.count, 0);
        assert_eq!(s.stages.respond.count, 0);
    }

    #[test]
    fn uptime_and_throughput_share_one_clock_sample() {
        let m = ServerMetrics::new(1);
        for _ in 0..1000 {
            m.record_completed(Duration::from_micros(10));
        }
        let s = m.snapshot(0);
        // The reported rate must be exactly reproducible from the
        // reported uptime — the two fields come from one clock sample.
        let expected = s.completed as f64 / s.uptime.as_secs_f64().max(1e-9);
        assert_eq!(s.throughput_rps, expected);
    }

    #[test]
    fn sharded_snapshot_merges_depths_and_keeps_one_clock_sample() {
        let m = ServerMetrics::new(1);
        for _ in 0..500 {
            m.record_completed(Duration::from_micros(10));
        }
        // The regression this pins: merging per-shard depths must not
        // introduce a second `elapsed()` sample — uptime and throughput
        // still agree exactly, for any number of shards.
        for depths in [vec![0usize], vec![3, 0, 7], vec![1, 2, 3, 4, 5, 6, 7, 8]] {
            let s = m.snapshot_sharded(&depths);
            assert_eq!(s.shard_depths, depths);
            assert_eq!(s.queue_depth, depths.iter().sum::<usize>());
            let expected = s.completed as f64 / s.uptime.as_secs_f64().max(1e-9);
            assert_eq!(
                s.throughput_rps, expected,
                "shard-merged snapshot must sample elapsed() exactly once"
            );
        }
        // The single-queue entry is the 1-shard special case.
        let s = m.snapshot(5);
        assert_eq!(s.shard_depths, vec![5]);
        assert_eq!(s.queue_depth, 5);
    }

    #[test]
    fn shed_and_quota_counters_accumulate() {
        let m = ServerMetrics::new(2);
        m.record_shed();
        m.record_shed();
        m.record_quota_rejected();
        let mm = m.model("tiny");
        mm.record_shed();
        mm.record_quota_rejected();
        let s = m.snapshot(0);
        assert_eq!((s.shed, s.quota_rejected), (2, 1));
        assert_eq!((s.models[0].shed, s.models[0].quota_rejected), (1, 1));
        let json = s.to_json();
        assert!(json.contains("\"shed\":2"), "{json}");
        assert!(json.contains("\"quota_rejected\":1"), "{json}");
        assert!(json.contains("\"shard_depths\":[0]"), "{json}");
    }

    #[test]
    fn quota_slots_gate_and_release() {
        let mm = ModelMetrics::new(1);
        assert!(mm.try_acquire_slot(Some(2)));
        assert!(mm.try_acquire_slot(Some(2)));
        assert!(!mm.try_acquire_slot(Some(2)), "third slot must be refused at quota 2");
        assert_eq!(mm.in_flight(), 2);
        mm.release_slot();
        assert!(mm.try_acquire_slot(Some(2)));
        // Unlimited admission still counts in-flight.
        assert!(mm.try_acquire_slot(None));
        assert_eq!(mm.in_flight(), 3);
        for _ in 0..10 {
            mm.release_slot(); // saturating: never underflows
        }
        assert_eq!(mm.in_flight(), 0);
    }

    #[test]
    fn versions_and_swaps_are_reported() {
        let m = ServerMetrics::new(1);
        let mm = m.model("hot");
        mm.note_version(1);
        mm.record_swap(2);
        mm.record_swap(3);
        let s = m.snapshot(0);
        assert_eq!((s.models[0].version, s.models[0].swaps), (3, 2));
        let json = s.to_json();
        assert!(json.contains("\"version\":3"), "{json}");
        assert!(json.contains("\"swaps\":2"), "{json}");
    }

    #[test]
    fn stage_histograms_record_independently() {
        let m = ServerMetrics::new(4);
        m.record_queue_wait(Duration::from_micros(100));
        m.record_queue_wait(Duration::from_micros(100));
        m.record_infer(Duration::from_micros(700));
        m.record_respond(Duration::from_micros(3));
        let s = m.snapshot(0);
        assert_eq!(s.stages.queue_wait.count, 2);
        assert_eq!(s.stages.infer.count, 1);
        assert_eq!(s.stages.respond.count, 1);
        assert!((s.stages.queue_wait.mean_us - 100.0).abs() < 1e-9);
        assert_eq!(s.stages.infer.p50_us, 1024.0); // bucket [512, 1024)
        assert!(s.stages.respond.p99_us <= 4.0);
    }

    #[test]
    fn per_model_series_accumulate_and_sort() {
        let m = ServerMetrics::new(4);
        let b = m.model("beta");
        let a = m.model("alpha");
        assert!(Arc::ptr_eq(&a, &m.model("alpha")), "same name, same series");
        a.record_submitted();
        a.record_batch(2);
        a.record_completed(Duration::from_micros(64));
        b.record_submitted();
        b.record_failed();
        let s = m.snapshot(0);
        assert_eq!(s.models.len(), 2);
        assert_eq!(s.models[0].name, "alpha");
        assert_eq!(s.models[1].name, "beta");
        assert_eq!((s.models[0].submitted, s.models[0].completed), (1, 1));
        assert_eq!(s.models[0].batch_histogram, vec![0, 1]);
        assert!(s.models[0].mean_latency_us > 0.0);
        assert_eq!((s.models[1].submitted, s.models[1].failed), (1, 1));
        // Per-model series are independent of the global counters.
        assert_eq!(s.completed, 0);
    }

    #[test]
    fn json_snapshot_is_well_formed() {
        let m = ServerMetrics::new(2);
        m.record_submitted();
        m.record_batch(2);
        m.record_completed(Duration::from_micros(50));
        m.record_queue_wait(Duration::from_micros(20));
        m.model("tiny").record_completed(Duration::from_micros(50));
        let json = m.snapshot(1).to_json();
        assert!(json.starts_with('{') && json.ends_with('}'));
        for key in [
            "\"submitted\":1",
            "\"queue_depth\":1",
            "\"batch_histogram\":[0,1]",
            "\"p95\":",
            "\"stages\":{\"queue_wait\":{\"count\":1",
            "\"infer\":{\"count\":0",
            "\"respond\":{\"count\":0",
            "\"models\":{\"tiny\":{\"submitted\":0",
            "\"resilience\":{\"respawns\":0",
            "\"breaker_opens\":0",
            "\"degrade_level\":0",
            "\"http_idle_closed\":0",
            "\"ops\":{\"shift_macs\":",
            "\"overflow_audits\":",
            "\"energy_estimate\":{\"mac_uj\":",
            "\"saving_pct\":",
            "\"pool\":{\"threads\":",
            "\"tasks_run\":",
            "\"idle_parks\":",
        ] {
            assert!(json.contains(key), "missing {key} in {json}");
        }
        // Balanced braces/brackets (cheap well-formedness check without a
        // JSON parser in the dependency-free workspace).
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        assert_eq!(json.matches('[').count(), json.matches(']').count());
    }

    #[test]
    fn resilience_counters_and_gauge_accumulate() {
        let m = ServerMetrics::new(1);
        m.record_respawn();
        m.record_breaker_rejected();
        m.record_breaker_rejected();
        m.record_breaker_open();
        m.record_degraded();
        m.record_shutdown_rejected();
        m.record_http_idle_closed();
        m.set_degrade_level(2);
        assert_eq!(m.degrade_level(), 2);
        let s = m.snapshot(0);
        assert_eq!(s.respawns, 1);
        assert_eq!(s.breaker_rejected, 2);
        assert_eq!(s.breaker_opens, 1);
        assert_eq!(s.degraded, 1);
        assert_eq!(s.degrade_level, 2);
        assert_eq!(s.shutdown_rejected, 1);
        assert_eq!(s.http_idle_closed, 1);
        let json = s.to_json();
        assert!(json.contains("\"breaker_rejected\":2"), "{json}");
        assert!(json.contains("\"degrade_level\":2"), "{json}");
        // The gauge is a gauge: it moves both ways.
        m.set_degrade_level(0);
        assert_eq!(m.degrade_level(), 0);
    }

    #[test]
    fn queue_wait_buckets_expose_cumulative_counts_for_deltas() {
        let m = ServerMetrics::new(1);
        let before = m.queue_wait_bucket_counts();
        assert_eq!(before.iter().sum::<u64>(), 0);
        m.record_queue_wait(Duration::from_micros(100));
        m.record_queue_wait(Duration::from_micros(100_000));
        let after = m.queue_wait_bucket_counts();
        let delta: Vec<u64> = after.iter().zip(&before).map(|(a, b)| a - b).collect();
        assert_eq!(delta.iter().sum::<u64>(), 2);
        // The same estimator the snapshot uses works on the delta.
        assert!(percentile_upper_bound(&delta, 0.95) >= 100_000.0);
    }

    #[test]
    fn json_escapes_model_names() {
        let m = ServerMetrics::new(1);
        m.model("we\"ird\\name\n\u{1}");
        let json = m.snapshot(0).to_json();
        // Quote and backslash take their short escapes, every other
        // control character (newline included) its `\u00XX` form.
        assert!(json.contains(r#""we\"ird\\name\u000a\u0001":{"#), "{json}");
    }

    #[test]
    fn ops_and_energy_respect_the_feature_gate() {
        let s = ServerMetrics::new(1).snapshot(0);
        #[cfg(not(feature = "obs"))]
        {
            assert_eq!(s.ops, mfdfp_obs::OpCounters::default());
            assert_eq!(s.energy.total_uj, 0.0);
            assert_eq!(s.energy.saving_pct, 0.0);
        }
        // With `obs` on, the counters are process-global and other tests
        // in this binary run real inference; only coherence is portable.
        assert!(s.energy.fp32_baseline_uj >= s.energy.total_uj);
        assert!((s.energy.total_uj - (s.energy.mac_uj + s.energy.sram_uj)).abs() < 1e-9);
    }

    #[test]
    fn pool_fields_are_coherent() {
        // The snapshot samples the process-wide pool: either nothing has
        // engaged it yet (all zeros incl. width) or it reports its real
        // width and monotonic counters.
        let s = ServerMetrics::new(1).snapshot(0);
        if s.pool_threads == 0 {
            assert_eq!((s.pool_tasks_run, s.pool_steals, s.pool_idle_parks), (0, 0, 0));
        } else {
            assert!(s.pool_steals <= s.pool_tasks_run);
        }
        let later = ServerMetrics::new(1).snapshot(0);
        assert!(later.pool_tasks_run >= s.pool_tasks_run, "pool counters are monotonic");
    }
}
