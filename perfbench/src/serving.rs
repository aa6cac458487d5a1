//! The two serve-tier workloads on the toy net with the default
//! `ServeConfig`:
//!
//! * `serve-open` — in-process open loop: seeded Poisson arrivals at
//!   [`OPEN_RATE`], one thread submitting, one collecting, while the
//!   generator hot-swaps the same weights in from their v2 image every
//!   [`SWAP_EVERY`];
//! * `http-closed` — [`CONNECTIONS`] keep-alive HTTP/1.1 connections in
//!   closed loop, with the same swap cadence on the first connection.
//!
//! Every response is checked bit for bit against direct
//! `QuantizedNet::logits`, and the server's accounting must balance
//! when the run ends.

use std::collections::BTreeSet;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use mfdfp_core::AlignedBytes;
use mfdfp_serve::http::{encode_request, format_f32_array, parse_f32_array};
use mfdfp_serve::{
    HttpConfig, HttpServer, MetricsSnapshot, ModelRegistry, Response, ServeConfig, ServedModel,
    Server, Ticket,
};
use mfdfp_tensor::Tensor;

use crate::cli::{RunArgs, Workload};
use crate::layers;
use crate::loadgen::{self, Target};
use crate::models::{self, Model, NetKind};
use crate::report::{Breakdown, Outcome};
use crate::setup;
use crate::stats::{self, percentile_sorted, sorted};

const MODEL: &str = "toy";
/// Distinct seeded images the requests cycle through.
const POOL: usize = 512;
/// Offered rate of `serve-open`. The default `ServeConfig` dispatches
/// batches of about [`OPEN_BATCH`] at this rate, with no refusals.
const OPEN_RATE: f64 = 1500.0;
/// The batch `speedup_vs_f32` is measured at on each serve workload:
/// the batch the workload nominally dispatches. It is fixed, so a
/// change to the batching policy does not move the datapath figure.
const OPEN_BATCH: usize = 4;
/// Two closed-loop connections never have more than two requests in
/// flight.
const CLOSED_BATCH: usize = CONNECTIONS;
/// Client latency limits for `on_time_pct`, about 1.5 times the median
/// client latency on a 2-vCPU VM (the 2 ms linger plus compute, plus the
/// HTTP round trip on `http-closed`). There about 94% (`serve-open`) and
/// 99% (`http-closed`) of requests met them; scaling every measured
/// latency by 1.3 left about 62% and 25% within them.
const OPEN_LIMIT_US: f64 = 3_000.0;
const CLOSED_LIMIT_US: f64 = 4_000.0;
const CONNECTIONS: usize = 2;
const SWAP_EVERY: Duration = Duration::from_millis(250);
/// Requests in the first part of each pass are sent and checked but
/// not measured, so lazy set-up and cold caches stay out of the figures.
const WARMUP: Duration = Duration::from_millis(500);
/// Throughput is the median completion rate over this many windows.
const WINDOWS: usize = 10;
/// How long the traced run profiles the datapath at the dispatched
/// batch size.
const PROFILE: Duration = Duration::from_millis(1000);
/// Share of `--seconds` spent timing the datapath against the float
/// master, after the load pass.
const PAIRED_SHARE: f64 = 0.3;

/// The running serve tier.
pub struct Tier {
    model: Model,
    server: Arc<Server>,
    http: Option<HttpServer>,
}

impl Tier {
    /// Model build, calibration, quantization, v2 image round trip,
    /// server (and HTTP) start-up.
    pub fn start(http: bool) -> Result<Tier, String> {
        let model = Model::build(NetKind::Toy)?;
        let registry = Arc::new(ModelRegistry::new());
        registry.register(MODEL, ServedModel::Single(Arc::clone(&model.qnet)));
        let server = Arc::new(
            Server::start(registry, ServeConfig::default())
                .map_err(|e| format!("server start: {e}"))?,
        );
        let http = if http {
            Some(
                HttpServer::bind(Arc::clone(&server), "127.0.0.1:0", HttpConfig::default())
                    .map_err(|e| format!("http bind: {e}"))?,
            )
        } else {
            None
        };
        Ok(Tier { model, server, http })
    }

    /// Stops the tier and returns its final metrics, after every
    /// worker has joined.
    pub fn stop(self) -> Result<MetricsSnapshot, String> {
        drop(self.http);
        let mut server = self.server;
        // HTTP connection handlers drop their handle on the server as
        // they see their connection close.
        let deadline = Instant::now() + Duration::from_secs(10);
        loop {
            match Arc::try_unwrap(server) {
                Ok(s) => return Ok(s.shutdown_within(Duration::from_secs(5))),
                Err(s) if Instant::now() < deadline => {
                    server = s;
                    std::thread::sleep(Duration::from_millis(2));
                }
                Err(_) => return Err("the server is still referenced after the run".into()),
            }
        }
    }
}

/// The seeded inputs and the logits direct inference gives for them.
struct Pool {
    images: Vec<Tensor>,
    flat: Vec<f32>,
    expected: Vec<Vec<f32>>,
}

impl Pool {
    fn new(seed: u64, model: &Model) -> Result<Pool, String> {
        let flat = models::images(seed, POOL, NetKind::Toy);
        let [c, h, w] = NetKind::Toy.input_shape();
        let images: Vec<Tensor> = flat
            .chunks(NetKind::Toy.input_len())
            .map(|x| Tensor::from_vec(x.to_vec(), [c, h, w]).map_err(|e| e.to_string()))
            .collect::<Result<_, _>>()?;
        let expected = images
            .iter()
            .map(|img| {
                model
                    .qnet
                    .logits(img)
                    .map(|t| t.as_slice().to_vec())
                    .map_err(|e| format!("direct logits: {e}"))
            })
            .collect::<Result<_, _>>()?;
        Ok(Pool { images, flat, expected })
    }

    fn check(&self, index: usize, logits: &[f32]) -> Result<(), String> {
        let want = &self.expected[index % POOL];
        if logits.len() == want.len()
            && logits.iter().zip(want).all(|(a, b)| a.to_bits() == b.to_bits())
        {
            Ok(())
        } else {
            Err(format!(
                "served logits for image {} differ from direct QuantizedNet::logits",
                index % POOL
            ))
        }
    }
}

/// Reloads the served weights from their v2 image at a fixed cadence.
struct Swapper {
    image: Arc<AlignedBytes>,
    next: Instant,
    swap_us: Vec<f64>,
    open_us: Vec<f64>,
}

impl Swapper {
    fn new(image: Arc<AlignedBytes>) -> Swapper {
        Swapper {
            image,
            next: Instant::now() + SWAP_EVERY,
            swap_us: Vec::new(),
            open_us: Vec::new(),
        }
    }

    fn maybe_swap(&mut self, server: &Server) -> Result<(), String> {
        if Instant::now() < self.next {
            return Ok(());
        }
        let t = Instant::now();
        let (net, open_us) = models::reload(&self.image)?;
        server.swap_model(MODEL, net).map_err(|e| format!("swap_model: {e}"))?;
        self.swap_us.push(loadgen::us(t.elapsed()));
        self.open_us.push(open_us);
        self.next += SWAP_EVERY;
        Ok(())
    }
}

struct OpenTarget<'a> {
    server: &'a Server,
    pool: &'a Pool,
    offset: usize,
    swapper: &'a Mutex<Swapper>,
    versions: Mutex<BTreeSet<u64>>,
}

impl Target for OpenTarget<'_> {
    type Ticket = Ticket;
    type Reply = Response;

    fn between(&self) -> Result<(), String> {
        self.swapper.lock().expect("swapper lock poisoned").maybe_swap(self.server)
    }

    fn submit(&self, index: usize) -> Result<Ticket, String> {
        let image = self.pool.images[(self.offset + index) % POOL].clone();
        self.server.submit(MODEL, image).map_err(|e| e.to_string())
    }

    fn wait(&self, ticket: Ticket) -> Result<Response, String> {
        ticket.wait().map_err(|e| e.to_string())
    }

    fn verify(&self, index: usize, reply: &Response) -> Result<(), String> {
        self.versions.lock().expect("version set lock poisoned").insert(reply.version);
        self.pool.check(self.offset + index, reply.logits.as_slice())
    }
}

/// What one pass of either serve workload measured.
#[derive(Default)]
struct Pass {
    latency_us: Vec<f64>,
    lag_us: Vec<f64>,
    submit_us: Vec<f64>,
    /// Client latency minus the server's own `latency_us` (HTTP only).
    overhead_us: Vec<f64>,
    /// Completion times in seconds since the pass started.
    done_s: Vec<f64>,
    attempted: u64,
    ok: u64,
    refused: u64,
    failed: u64,
    versions: BTreeSet<u64>,
}

impl Pass {
    fn rate(&self, span: Duration) -> f64 {
        let w = span.as_secs_f64() / WINDOWS as f64;
        let start = WARMUP.as_secs_f64();
        let mut counts = vec![0.0; WINDOWS];
        for &t in &self.done_s {
            let k = ((t - start) / w).floor();
            if k >= 0.0 && (k as usize) < WINDOWS {
                counts[k as usize] += 1.0;
            }
        }
        stats::median(&counts) / w
    }
}

fn open_pass(
    tier: &Tier,
    pool: &Pool,
    swapper: &Mutex<Swapper>,
    seed: u64,
    span: Duration,
) -> Result<Pass, String> {
    let schedule = loadgen::poisson_schedule(seed, OPEN_RATE, WARMUP + span);
    let target = OpenTarget {
        server: &tier.server,
        pool,
        offset: (seed as usize) % POOL,
        swapper,
        versions: Mutex::new(BTreeSet::new()),
    };
    let r = loadgen::run_open_loop(&target, &schedule, WARMUP)?;
    if let Some(wrong) = r.wrong {
        return Err(wrong);
    }
    Ok(Pass {
        latency_us: r.samples.iter().map(|s| s.latency_us).collect(),
        lag_us: r.samples.iter().map(|s| s.lag_us).collect(),
        submit_us: r.samples.iter().map(|s| s.submit_us).collect(),
        overhead_us: Vec::new(),
        done_s: r.samples.iter().map(|s| s.done_s).collect(),
        attempted: r.attempted,
        ok: r.completed,
        refused: r.refused,
        failed: r.failed,
        versions: target.versions.into_inner().expect("version set lock poisoned"),
    })
}

fn http_pass(
    tier: &Tier,
    pool: &Pool,
    requests: &[Vec<u8>],
    swapper: &Mutex<Swapper>,
    seed: u64,
    span: Duration,
) -> Result<Pass, String> {
    let addr = tier.http.as_ref().expect("http-closed starts the HTTP front end").local_addr();
    let start = Instant::now();
    let passes: Vec<Result<Pass, String>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..CONNECTIONS)
            .map(|c| {
                let swapper = (c == 0).then_some(swapper);
                scope.spawn(move || {
                    http_client(addr, tier, pool, requests, swapper, seed as usize + c, start, span)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().unwrap_or_else(|_| Err("client thread panicked".into())))
            .collect()
    });
    let mut all = Pass::default();
    for p in passes {
        let p = p?;
        all.latency_us.extend(p.latency_us);
        all.lag_us.extend(p.lag_us);
        all.overhead_us.extend(p.overhead_us);
        all.done_s.extend(p.done_s);
        all.attempted += p.attempted;
        all.ok += p.ok;
        all.refused += p.refused;
        all.failed += p.failed;
        all.versions.extend(p.versions);
    }
    Ok(all)
}

/// One keep-alive connection in closed loop: send, read the reply,
/// check it, send the next. `lag` is the client's own turnaround
/// between a reply and the next request (including any hot swap it
/// made in between).
#[allow(clippy::too_many_arguments)]
fn http_client(
    addr: SocketAddr,
    tier: &Tier,
    pool: &Pool,
    requests: &[Vec<u8>],
    swapper: Option<&Mutex<Swapper>>,
    first: usize,
    start: Instant,
    span: Duration,
) -> Result<Pass, String> {
    let mut stream = TcpStream::connect(addr).map_err(|e| format!("connect: {e}"))?;
    stream.set_nodelay(true).map_err(|e| e.to_string())?;
    let mut pass = Pass::default();
    let mut buf = Vec::new();
    let mut prev_done = Instant::now();
    let (measure_from, end) = (start + WARMUP, start + WARMUP + span);
    let mut index = first;
    loop {
        if let Some(s) = swapper {
            s.lock().expect("swapper lock poisoned").maybe_swap(&tier.server)?;
        }
        let sent = Instant::now();
        if sent >= end {
            return Ok(pass);
        }
        pass.attempted += 1;
        stream.write_all(&requests[index % POOL]).map_err(|e| format!("write: {e}"))?;
        let (status, body) = read_response(&mut stream, &mut buf)?;
        let done = Instant::now();
        if matches!(status, 429 | 503) {
            pass.refused += 1;
        } else if status != 200 {
            pass.failed += 1;
        } else {
            pass.ok += 1;
            let (version, server_us, logits) = parse_infer_body(&body)?;
            pass.versions.insert(version);
            pool.check(index, &logits)?;
            if sent >= measure_from {
                let latency = loadgen::us(done - sent);
                pass.latency_us.push(latency);
                pass.lag_us.push(loadgen::us(sent - prev_done));
                pass.overhead_us.push(latency - server_us);
                pass.done_s.push((done - start).as_secs_f64());
            }
        }
        prev_done = done;
        index += CONNECTIONS;
    }
}

/// Reads one HTTP/1.1 response; returns `(status, body)`.
fn read_response(stream: &mut TcpStream, buf: &mut Vec<u8>) -> Result<(u16, String), String> {
    let mut chunk = [0u8; 4096];
    loop {
        if let Some(head_end) = buf.windows(4).position(|w| w == b"\r\n\r\n").map(|p| p + 4) {
            let head = String::from_utf8_lossy(&buf[..head_end]).into_owned();
            let status = head
                .split(' ')
                .nth(1)
                .and_then(|s| s.parse().ok())
                .ok_or_else(|| format!("bad status line in {head:?}"))?;
            let length: usize = head
                .lines()
                .find_map(|l| {
                    l.to_ascii_lowercase()
                        .strip_prefix("content-length:")
                        .map(|v| v.trim().to_string())
                })
                .and_then(|v| v.parse().ok())
                .ok_or("response without content-length")?;
            while buf.len() < head_end + length {
                let n = stream.read(&mut chunk).map_err(|e| format!("read: {e}"))?;
                if n == 0 {
                    return Err("server closed the connection mid-body".into());
                }
                buf.extend_from_slice(&chunk[..n]);
            }
            let body = String::from_utf8_lossy(&buf[head_end..head_end + length]).into_owned();
            buf.drain(..head_end + length);
            return Ok((status, body));
        }
        let n = stream.read(&mut chunk).map_err(|e| format!("read: {e}"))?;
        if n == 0 {
            return Err("server closed the connection mid-head".into());
        }
        buf.extend_from_slice(&chunk[..n]);
    }
}

/// `(version, latency_us, logits)` of an infer reply.
fn parse_infer_body(body: &str) -> Result<(u64, f64, Vec<f32>), String> {
    let number = |key: &str| -> Result<f64, String> {
        let at = body.find(key).ok_or_else(|| format!("reply has no {key}"))? + key.len();
        let end = body[at..].find([',', '}']).map_or(body.len(), |e| at + e);
        body[at..end].trim().parse().map_err(|_| format!("bad {key} in reply"))
    };
    let at = body.find("\"logits\":").ok_or("reply has no logits")? + "\"logits\":".len();
    let end = body[at..].find(']').ok_or("unterminated logits")? + at + 1;
    let logits = parse_f32_array(&body.as_bytes()[at..end]).map_err(|e| format!("logits: {e}"))?;
    Ok((number("\"version\":")? as u64, number("\"latency_us\":")?, logits))
}

/// Stage means between two snapshots: `(queue_wait, infer, respond,
/// batch_mean)`; queue wait is per request, infer and respond per batch.
fn stage_means(before: &MetricsSnapshot, after: &MetricsSnapshot) -> (f64, f64, f64, f64) {
    let mean = |a: &mfdfp_serve::StageSnapshot, b: &mfdfp_serve::StageSnapshot| {
        let n = b.count.saturating_sub(a.count);
        if n == 0 {
            0.0
        } else {
            (b.mean_us * b.count as f64 - a.mean_us * a.count as f64) / n as f64
        }
    };
    let (s0, s1) = (&before.stages, &after.stages);
    let (mut batches, mut items) = (0u64, 0u64);
    for (i, &n) in after.batch_histogram.iter().enumerate() {
        let d = n - before.batch_histogram.get(i).copied().unwrap_or(0);
        batches += d;
        items += d * (i as u64 + 1);
    }
    (
        mean(&s0.queue_wait, &s1.queue_wait),
        mean(&s0.infer, &s1.infer),
        mean(&s0.respond, &s1.respond),
        items as f64 / batches.max(1) as f64,
    )
}

pub fn run(args: &RunArgs) -> Result<Outcome, String> {
    let http = args.workload == Workload::HttpClosed;
    let mut setup_s = setup::time_fresh(args.workload, setup::REPS / 2)?;
    let mut tier = Tier::start(http)?;
    let mut opens = vec![tier.model.image_open_us];
    let pool = Pool::new(args.seed, &tier.model)?;
    let requests: Vec<Vec<u8>> = if http {
        let path = format!("/v1/infer/{MODEL}");
        pool.images
            .iter()
            .map(|img| {
                encode_request("POST", &path, &[], format_f32_array(img.as_slice()).as_bytes())
            })
            .collect()
    } else {
        Vec::new()
    };
    let swapper = Mutex::new(Swapper::new(Arc::clone(&tier.model.image)));
    let span = Duration::from_secs(args.seconds);

    let m0 = tier.server.metrics();
    let pass = match args.workload {
        Workload::HttpClosed => http_pass(&tier, &pool, &requests, &swapper, args.seed, span)?,
        _ => open_pass(&tier, &pool, &swapper, args.seed, span)?,
    };
    let m1 = tier.server.metrics();

    // Every hot-swap version must have served (bit-identical) replies.
    let swaps = swapper.lock().expect("swapper lock poisoned").swap_us.len();
    if swaps == 0 || pass.versions.len() < 2 {
        return Err(format!(
            "{swaps} hot swaps, replies from {} model versions: the swap path was not exercised",
            pass.versions.len()
        ));
    }
    let latency = sorted(&pass.latency_us);
    if latency.is_empty() {
        return Err("no request completed in the measured window".into());
    }
    let limit = if http { CLOSED_LIMIT_US } else { OPEN_LIMIT_US };
    let on_time = pass.latency_us.iter().filter(|&&us| us <= limit).count() as u64;
    // Refused and failed requests count as missing the limit.
    let measured = pass.latency_us.len() as u64 + pass.refused + pass.failed;
    let mut out = Outcome::default();
    out.put("on_time_pct", 100.0 * on_time as f64 / measured as f64);
    out.put_summary("loadgen.latency_p50_us", percentile_sorted(&latency, 0.5), &pass.latency_us);
    out.put("loadgen.latency_p99_us", percentile_sorted(&latency, 0.99));
    out.put("loadgen.images_per_s", pass.rate(span));
    out.put("loadgen.lag_p99_us", percentile_sorted(&sorted(&pass.lag_us), 0.99));
    let dispatched = stage_means(&m0, &m1).3;
    if args.trace {
        trace_rows(&mut out, &tier, &pool, &pass, &m0, &m1, &swapper)?;
    }
    opens.extend_from_slice(&swapper.lock().expect("swapper lock poisoned").open_us);

    // The datapath at the batch this workload dispatches, against the
    // float master, off the serving path.
    let batch = if http { CLOSED_BATCH } else { OPEN_BATCH };
    let paired_span = Duration::from_secs_f64((args.seconds as f64 * PAIRED_SHARE).max(1.0));
    let paired = tier.model.paired(&pool.flat, batch, paired_span, |first, logits| {
        logits
            .chunks(logits.len() / batch)
            .enumerate()
            .try_for_each(|(k, row)| pool.check(first + k, row))
    })?;
    paired.put(&mut out, batch);
    out.put("float_agree_pct", tier.model.float_agreement()?);

    let snap = Tier::stop(tier)?;
    check_accounting(&snap, pass.ok, pass.refused)?;
    setup_s.extend(setup::time_fresh(args.workload, setup::REPS - setup::REPS / 2)?);
    out.put_summary("setup_s", stats::median(&setup_s), &setup_s);
    out.put("core.image_open_us", stats::median(&opens));
    out.attempted = pass.attempted;
    out.failed = pass.refused + pass.failed;
    out.put("peak_rss_mb", crate::report::peak_rss_mb()?);
    out.config = crate::json::Obj::new()
        .str("net", "quick_custom(3,16,[4,4,8],16,10)")
        .str("loop", if http { "closed" } else { "open" })
        .num("offered_rate_per_s", if http { 0.0 } else { OPEN_RATE })
        .num("latency_limit_us", limit)
        .num("paired_batch", batch as f64)
        .num("dispatched_batch_mean", dispatched)
        .num("connections", if http { CONNECTIONS as f64 } else { 0.0 })
        .num("client_threads", 2.0)
        .num("swap_every_ms", SWAP_EVERY.as_millis() as f64)
        .num("hot_swaps", swaps as f64)
        .num("warmup_ms", WARMUP.as_millis() as f64)
        .num("setup_reps", setup::REPS as f64)
        .str("serve_config", &format!("{:?}", ServeConfig::default()))
        .finish();
    Ok(out)
}

/// The server's books must balance, and agree with what the clients
/// saw.
fn check_accounting(
    s: &MetricsSnapshot,
    client_ok: u64,
    client_refused: u64,
) -> Result<(), String> {
    if s.completed + s.failed + s.shed + s.shutdown_rejected != s.submitted {
        return Err(format!(
            "serve accounting does not balance: completed {} + failed {} + shed {} + shutdown_rejected {} != submitted {}",
            s.completed, s.failed, s.shed, s.shutdown_rejected, s.submitted
        ));
    }
    if s.rejected + s.quota_rejected + s.breaker_rejected != client_refused {
        return Err(format!(
            "clients saw {client_refused} refusals, the server counted {} rejected + {} quota + {} breaker",
            s.rejected, s.quota_rejected, s.breaker_rejected
        ));
    }
    if s.completed != client_ok {
        return Err(format!(
            "clients got {client_ok} replies, the server completed {}",
            s.completed
        ));
    }
    Ok(())
}

/// The serve stage rows (from the measured pass's own metrics
/// snapshots; the stages are always counted, so there is no separate
/// traced pass) and the datapath rows, driven off the serving path at
/// the batch the server dispatched.
fn trace_rows(
    out: &mut Outcome,
    tier: &Tier,
    pool: &Pool,
    pass: &Pass,
    before: &MetricsSnapshot,
    after: &MetricsSnapshot,
    swapper: &Mutex<Swapper>,
) -> Result<(), String> {
    let (queue_wait, infer, respond, batch_mean) = stage_means(before, after);
    let mean = |v: &[f64]| if v.is_empty() { 0.0 } else { stats::mean(v) };
    let latency = mean(&pass.latency_us);
    let submit = mean(&pass.submit_us);
    let lag = mean(&pass.lag_us);
    let mut stages = Breakdown { of: "client latency mean".into(), total: latency, rows: vec![] };
    // Open loop: latency runs from the due time, so the generator's lag
    // and the submit call are part of it. Closed loop (HTTP): latency
    // runs from the send, and `Server::submit` happens in the server.
    if !pass.submit_us.is_empty() {
        stages.rows.push(("loadgen.lag_us".into(), lag));
        stages.rows.push(("serve.submit_us".into(), submit));
        out.put("serve.submit_us", submit);
    }
    stages.rows.push(("serve.queue_wait_us".into(), queue_wait));
    stages.rows.push(("serve.infer_us".into(), infer));
    stages.rows.push(("serve.respond_us".into(), respond));
    let client_other = stages.remainder();
    out.put("serve.queue_wait_us", queue_wait);
    out.put("serve.infer_us", infer);
    out.put("serve.respond_us", respond);
    out.put("serve.batch_mean", batch_mean);
    out.put("serve.client_other_us", client_other);
    if !pass.overhead_us.is_empty() {
        out.put("http.overhead_us", mean(&pass.overhead_us));
    }
    {
        let s = swapper.lock().expect("swapper lock poisoned");
        out.put("serve.swap_us", mean(&s.swap_us));
    }
    out.stages.push(stages);

    // The datapath at the batch size the server actually dispatched,
    // off the serving path.
    let batch = (batch_mean.round() as usize).clamp(1, ServeConfig::default().max_batch);
    let profile =
        layers::profile(&tier.model.qnet, &pool.flat, NetKind::Toy.input_shape(), batch, PROFILE)?;
    profile.put_rows(out);
    let mut infer_layers = Breakdown {
        of: format!("serve.infer_us (rows x batch {batch})"),
        total: infer,
        rows: vec![],
    };
    infer_layers.rows =
        profile.breakdown().rows.into_iter().map(|(n, v)| (n, v * batch as f64)).collect();
    out.layers.push(profile.breakdown());
    out.layers.push(infer_layers);
    Ok(())
}
