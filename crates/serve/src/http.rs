//! `std`-only HTTP/1.1 front-end for the serving tier.
//!
//! No async runtime and no HTTP dependency: a thread-per-connection
//! acceptor feeds a hand-rolled request parser with strict size limits,
//! and every request funnels into the same sharded
//! [`Server`] admission path the in-process API uses. The parser is a
//! pure function over a byte buffer ([`parse_request`]), which is what
//! makes it property-testable: arbitrary bytes must never panic it, and
//! any malformed, oversized or truncated input must map to a typed
//! [`HttpParseError`] with a concrete 4xx/5xx status.
//!
//! Routes:
//!
//! * `POST /v1/infer/<model>` — body is a strict JSON array of finite
//!   f32 values (the flattened image). Optional headers:
//!   `x-mfdfp-deadline-us` (shed budget in microseconds, see
//!   [`SubmitOptions::deadline`]) and `x-mfdfp-priority: high` (the
//!   latency lane, see [`Priority`]). Answers
//!   `{"model","version","class","batch_size","latency_us","logits"}`;
//!   logits are formatted with Rust's shortest round-trip repr, so the
//!   decoded values are **bit-identical** to the served logits.
//! * `GET /v1/metrics` — the full [`MetricsSnapshot`] JSON document.
//! * `GET /v1/models` — registered names with their current versions.
//! * `GET /v1/health` — the self-healing surface
//!   ([`HealthSnapshot`](crate::HealthSnapshot) JSON): per-shard worker
//!   heartbeat ages and queue depths, per-model breaker states, the
//!   degradation level and the respawn count.
//! * `GET /v1/ready` — the readiness bit alone; `200` while every shard
//!   has a fresh-heartbeat worker, `503` otherwise.
//!
//! Serving errors map to statuses: unknown model → 404, bad input →
//! 400, queue/quota backpressure → 429, deadline shed → 504, shutdown /
//! drain rejection → 503, open circuit → 503 with a `Retry-After`
//! header, worker panic or datapath fault → 500. A degraded (truncated
//! ensemble) answer carries `x-mfdfp-degraded: 1` and `"degraded":true`.
//!
//! Keep-alive connections are reaped: a connection that completes no
//! request for [`HttpConfig::idle_timeout`] is answered `408` and
//! closed (counted in the `http_idle_closed` metric). The per-read
//! slice is `min(read_timeout, time-to-idle-deadline)`, so a slow-loris
//! client dripping bytes is held to the same deadline as a silent one.
//!
//! [`MetricsSnapshot`]: crate::MetricsSnapshot

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use crate::config::HttpConfig;
use crate::error::{Result, ServeError};
use crate::metrics::json_escape;
use crate::server::{Priority, Server, SubmitOptions};

/// A fully parsed HTTP/1.1 request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HttpRequest {
    /// Request method, as sent (e.g. `GET`, `POST`).
    pub method: String,
    /// Request target (path), as sent.
    pub path: String,
    /// Headers in arrival order; names lower-cased, values trimmed.
    pub headers: Vec<(String, String)>,
    /// Raw request body (`Content-Length` bytes).
    pub body: Vec<u8>,
    /// Whether the connection should stay open after the response
    /// (HTTP/1.1 default yes, HTTP/1.0 default no, `Connection` header
    /// overrides either way).
    pub keep_alive: bool,
}

impl HttpRequest {
    /// First value of header `name` (ASCII case-insensitive).
    pub fn header(&self, name: &str) -> Option<&str> {
        let name = name.to_ascii_lowercase();
        self.headers.iter().find(|(n, _)| *n == name).map(|(_, v)| v.as_str())
    }
}

/// Why a request failed to parse. Every variant maps to a concrete
/// response status ([`HttpParseError::status`]); none of them can
/// panic the connection thread.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum HttpParseError {
    /// The request head (request line + headers) exceeded
    /// [`HttpConfig::max_head_bytes`] → `431`.
    HeadTooLarge {
        /// The configured head limit that was exceeded.
        limit: usize,
    },
    /// The declared `Content-Length` exceeded
    /// [`HttpConfig::max_body_bytes`] → `413`. Rejected from the
    /// declaration alone — the body is never read.
    BodyTooLarge {
        /// The declared body length.
        length: usize,
        /// The configured body limit it exceeded.
        limit: usize,
    },
    /// The request line is malformed (not `METHOD SP TARGET SP VERSION`,
    /// or not ASCII) → `400`.
    BadRequestLine,
    /// A header line is malformed (no colon, empty or non-token name,
    /// or not valid UTF-8) → `400`.
    BadHeader,
    /// The HTTP version is not `HTTP/1.1` or `HTTP/1.0` → `505`.
    BadVersion,
    /// A method that carries a body (`POST`/`PUT`) arrived without a
    /// `Content-Length` header → `411`.
    LengthRequired,
    /// A `Transfer-Encoding` header was present; chunked bodies are not
    /// supported → `501`.
    UnsupportedTransferEncoding,
}

impl HttpParseError {
    /// The response status this parse failure maps to.
    pub fn status(&self) -> u16 {
        match self {
            HttpParseError::HeadTooLarge { .. } => 431,
            HttpParseError::BodyTooLarge { .. } => 413,
            HttpParseError::BadRequestLine | HttpParseError::BadHeader => 400,
            HttpParseError::BadVersion => 505,
            HttpParseError::LengthRequired => 411,
            HttpParseError::UnsupportedTransferEncoding => 501,
        }
    }
}

impl std::fmt::Display for HttpParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            HttpParseError::HeadTooLarge { limit } => {
                write!(f, "request head exceeds {limit} bytes")
            }
            HttpParseError::BodyTooLarge { length, limit } => {
                write!(f, "declared body of {length} bytes exceeds {limit}-byte limit")
            }
            HttpParseError::BadRequestLine => write!(f, "malformed request line"),
            HttpParseError::BadHeader => write!(f, "malformed header line"),
            HttpParseError::BadVersion => write!(f, "unsupported http version"),
            HttpParseError::LengthRequired => write!(f, "content-length required"),
            HttpParseError::UnsupportedTransferEncoding => {
                write!(f, "transfer-encoding is not supported")
            }
        }
    }
}

impl std::error::Error for HttpParseError {}

/// Incremental parse of one HTTP/1.1 request from the front of `buf`.
///
/// Pure function — no I/O, no allocation proportional to anything but
/// the (limit-bounded) input. Returns:
///
/// * `Ok(Some((request, consumed)))` — a complete request occupies
///   `buf[..consumed]`;
/// * `Ok(None)` — the bytes so far are a valid *prefix*; read more and
///   call again (the caller's buffering stays bounded because the head
///   limit is enforced on the unterminated prefix and the body limit on
///   the declared length);
/// * `Err(e)` — the input can never become a valid request; answer
///   [`HttpParseError::status`] and close.
///
/// # Errors
///
/// See [`HttpParseError`]. Arbitrary input never panics (property-tested
/// in `tests/properties.rs`).
pub fn parse_request(
    buf: &[u8],
    config: &HttpConfig,
) -> std::result::Result<Option<(HttpRequest, usize)>, HttpParseError> {
    let head_end = match find_head_end(buf) {
        Some(end) => {
            if end > config.max_head_bytes {
                return Err(HttpParseError::HeadTooLarge { limit: config.max_head_bytes });
            }
            end
        }
        None => {
            // No terminator yet: a prefix longer than the head limit can
            // never terminate legally, so reject it now instead of
            // buffering a hostile endless head.
            if buf.len() > config.max_head_bytes {
                return Err(HttpParseError::HeadTooLarge { limit: config.max_head_bytes });
            }
            return Ok(None);
        }
    };
    let head =
        std::str::from_utf8(&buf[..head_end - 4]).map_err(|_| HttpParseError::BadRequestLine)?;
    let mut lines = head.split("\r\n");
    let request_line = lines.next().ok_or(HttpParseError::BadRequestLine)?;
    let mut parts = request_line.split(' ');
    let method = parts.next().unwrap_or("");
    let path = parts.next().ok_or(HttpParseError::BadRequestLine)?;
    let version = parts.next().ok_or(HttpParseError::BadRequestLine)?;
    if parts.next().is_some() || method.is_empty() || !is_token(method) || !path.starts_with('/') {
        return Err(HttpParseError::BadRequestLine);
    }
    let keep_alive_default = match version {
        "HTTP/1.1" => true,
        "HTTP/1.0" => false,
        _ => return Err(HttpParseError::BadVersion),
    };
    let mut headers = Vec::new();
    for line in lines {
        // An embedded CR or LF cannot survive the split, and the blank
        // terminator line was excluded with the `- 4`; every remaining
        // line must be `name ":" value`.
        let (name, value) = line.split_once(':').ok_or(HttpParseError::BadHeader)?;
        if name.is_empty() || !is_token(name) {
            return Err(HttpParseError::BadHeader);
        }
        headers.push((name.to_ascii_lowercase(), value.trim().to_string()));
    }
    let request = HttpRequest {
        method: method.to_string(),
        path: path.to_string(),
        headers,
        body: Vec::new(),
        keep_alive: keep_alive_default,
    };
    if request.header("transfer-encoding").is_some() {
        return Err(HttpParseError::UnsupportedTransferEncoding);
    }
    let content_length = match request.header("content-length") {
        Some(v) => v.parse::<usize>().map_err(|_| HttpParseError::BadHeader)?,
        None if matches!(method, "POST" | "PUT") => return Err(HttpParseError::LengthRequired),
        None => 0,
    };
    if content_length > config.max_body_bytes {
        return Err(HttpParseError::BodyTooLarge {
            length: content_length,
            limit: config.max_body_bytes,
        });
    }
    let total = head_end + content_length;
    if buf.len() < total {
        return Ok(None);
    }
    let keep_alive = match request.header("connection").map(str::to_ascii_lowercase) {
        Some(v) if v == "close" => false,
        Some(v) if v == "keep-alive" => true,
        _ => request.keep_alive,
    };
    let body = buf[head_end..total].to_vec();
    Ok(Some((HttpRequest { body, keep_alive, ..request }, total)))
}

/// Index one past the `\r\n\r\n` head terminator, if present.
fn find_head_end(buf: &[u8]) -> Option<usize> {
    buf.windows(4).position(|w| w == b"\r\n\r\n").map(|pos| pos + 4)
}

/// RFC 7230 `token` characters (method and header names).
fn is_token(s: &str) -> bool {
    s.bytes().all(|b| b.is_ascii_alphanumeric() || b"!#$%&'*+-.^_`|~".contains(&b))
}

/// Serialises a request the way [`parse_request`] expects it — the
/// round-trip partner the property tests (and the bench client) use.
/// A `Content-Length` header is added automatically when `body` is
/// non-empty or the method carries a body.
pub fn encode_request(method: &str, path: &str, headers: &[(&str, &str)], body: &[u8]) -> Vec<u8> {
    let mut out = format!("{method} {path} HTTP/1.1\r\n").into_bytes();
    for (name, value) in headers {
        out.extend_from_slice(format!("{name}: {value}\r\n").as_bytes());
    }
    if !body.is_empty() || matches!(method, "POST" | "PUT") {
        out.extend_from_slice(format!("content-length: {}\r\n", body.len()).as_bytes());
    }
    out.extend_from_slice(b"\r\n");
    out.extend_from_slice(body);
    out
}

/// Strict parse of a JSON array of finite f32 values (the body format of
/// `POST /v1/infer/<model>`): `[`, comma-separated numbers, `]`,
/// surrounded by optional ASCII whitespace and nothing else. `NaN`,
/// infinities, JSON extensions and trailing garbage are rejected — a
/// poison body must become a typed `400`, never a NaN that silently
/// corrupts a whole coalesced batch.
///
/// # Errors
///
/// A human-readable description of the first offence.
pub fn parse_f32_array(body: &[u8]) -> std::result::Result<Vec<f32>, String> {
    let text = std::str::from_utf8(body).map_err(|_| "body is not valid UTF-8".to_string())?;
    let text = text.trim();
    let inner = text
        .strip_prefix('[')
        .and_then(|t| t.strip_suffix(']'))
        .ok_or_else(|| "body must be a JSON array of numbers".to_string())?
        .trim();
    if inner.is_empty() {
        return Ok(Vec::new());
    }
    let mut values = Vec::new();
    for (i, token) in inner.split(',').enumerate() {
        let token = token.trim();
        let value: f32 =
            token.parse().map_err(|_| format!("element {i} ({token:?}) is not a number"))?;
        if !value.is_finite() {
            return Err(format!("element {i} is not finite"));
        }
        values.push(value);
    }
    Ok(values)
}

/// Formats f32 values as a JSON array using Rust's shortest
/// round-trip (`{:?}`) repr: parsing a formatted value back yields
/// **bit-identical** f32s, which is what lets the HTTP tests assert
/// served logits equal direct datapath logits exactly.
pub fn format_f32_array(values: &[f32]) -> String {
    let mut out = String::with_capacity(2 + values.len() * 8);
    out.push('[');
    for (i, v) in values.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!("{v:?}"));
    }
    out.push(']');
    out
}

/// The status a serving error maps to at the HTTP boundary.
fn status_for(err: &ServeError) -> (u16, &'static str) {
    match err {
        ServeError::UnknownModel(_) => (404, "Not Found"),
        ServeError::BadInput { .. } => (400, "Bad Request"),
        ServeError::QueueFull { .. } | ServeError::QuotaExceeded { .. } => {
            (429, "Too Many Requests")
        }
        ServeError::DeadlineExceeded { .. } => (504, "Gateway Timeout"),
        ServeError::Closed | ServeError::CircuitOpen { .. } | ServeError::ShuttingDown => {
            (503, "Service Unavailable")
        }
        ServeError::WorkerPanic
        | ServeError::Inference(_)
        | ServeError::BadConfig(_)
        | ServeError::Io(_) => (500, "Internal Server Error"),
    }
}

fn reason(status: u16) -> &'static str {
    match status {
        200 => "OK",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        408 => "Request Timeout",
        411 => "Length Required",
        413 => "Payload Too Large",
        429 => "Too Many Requests",
        431 => "Request Header Fields Too Large",
        501 => "Not Implemented",
        503 => "Service Unavailable",
        504 => "Gateway Timeout",
        505 => "HTTP Version Not Supported",
        _ => "Internal Server Error",
    }
}

/// One response, ready to write.
struct Reply {
    status: u16,
    body: String,
    keep_alive: bool,
    /// Extra response headers (`Retry-After`, `x-mfdfp-degraded`);
    /// names must already be valid header tokens.
    headers: Vec<(&'static str, String)>,
}

impl Reply {
    fn json(status: u16, body: String, keep_alive: bool) -> Reply {
        Reply { status, body, keep_alive, headers: Vec::new() }
    }

    fn error(status: u16, message: &str, keep_alive: bool) -> Reply {
        Reply {
            status,
            body: format!("{{\"error\":\"{}\"}}", json_escape(message)),
            keep_alive,
            headers: Vec::new(),
        }
    }

    fn write_to(&self, stream: &mut TcpStream) -> std::io::Result<()> {
        let mut head = format!(
            "HTTP/1.1 {} {}\r\ncontent-type: application/json\r\ncontent-length: {}\r\nconnection: {}\r\n",
            self.status,
            reason(self.status),
            self.body.len(),
            if self.keep_alive { "keep-alive" } else { "close" },
        );
        for (name, value) in &self.headers {
            head.push_str(&format!("{name}: {value}\r\n"));
        }
        head.push_str("\r\n");
        stream.write_all(head.as_bytes())?;
        stream.write_all(self.body.as_bytes())?;
        stream.flush()
    }
}

/// The network front-end: a listener + acceptor thread wrapping an
/// in-process [`Server`].
///
/// Each accepted connection gets its own handler thread (bounded by
/// [`HttpConfig::max_connections`] — the acceptor answers `503` beyond
/// that, load shedding at the edge); handlers parse with
/// [`parse_request`], route into [`Server::submit_with`], and keep the
/// connection alive per HTTP/1.1 semantics. Dropping (or
/// [`HttpServer::shutdown`]) stops the acceptor; the wrapped `Server`'s
/// own lifecycle is independent.
pub struct HttpServer {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    acceptor: Option<JoinHandle<()>>,
}

impl HttpServer {
    /// Binds `addr` (e.g. `"127.0.0.1:0"` for an ephemeral port) and
    /// spawns the acceptor.
    ///
    /// # Errors
    ///
    /// [`ServeError::BadConfig`] for invalid limits, [`ServeError::Io`]
    /// if the bind fails.
    pub fn bind(server: Arc<Server>, addr: &str, config: HttpConfig) -> Result<HttpServer> {
        config.validate()?;
        let listener = TcpListener::bind(addr).map_err(|e| ServeError::Io(e.to_string()))?;
        let addr = listener.local_addr().map_err(|e| ServeError::Io(e.to_string()))?;
        let stop = Arc::new(AtomicBool::new(false));
        let acceptor = {
            let stop = Arc::clone(&stop);
            let config = config.clone();
            std::thread::Builder::new()
                .name("mfdfp-http-accept".into())
                .spawn(move || accept_loop(&listener, &server, &config, &stop))
                .map_err(|e| ServeError::Io(e.to_string()))?
        };
        Ok(HttpServer { addr, stop, acceptor: Some(acceptor) })
    }

    /// The bound address (resolves `:0` to the actual port).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Stops accepting connections and joins the acceptor. Connections
    /// already being handled finish their current request (their handler
    /// threads exit on close or read-timeout).
    pub fn shutdown(mut self) {
        self.shutdown_in_place();
    }

    fn shutdown_in_place(&mut self) {
        if self.acceptor.is_none() {
            return;
        }
        self.stop.store(true, Ordering::SeqCst);
        // Unblock the acceptor's blocking accept() with one throwaway
        // connection to ourselves.
        let _ = TcpStream::connect(self.addr);
        if let Some(handle) = self.acceptor.take() {
            let _ = handle.join();
        }
    }
}

impl Drop for HttpServer {
    fn drop(&mut self) {
        self.shutdown_in_place();
    }
}

/// Releases one connection slot on drop, so a panicking handler can
/// never leak capacity.
struct ConnectionSlot(Arc<AtomicUsize>);

impl Drop for ConnectionSlot {
    fn drop(&mut self) {
        self.0.fetch_sub(1, Ordering::SeqCst);
    }
}

fn accept_loop(
    listener: &TcpListener,
    server: &Arc<Server>,
    config: &HttpConfig,
    stop: &AtomicBool,
) {
    let active = Arc::new(AtomicUsize::new(0));
    loop {
        let accepted_from = mfdfp_obs::now_ns();
        let accepted = listener.accept();
        if stop.load(Ordering::SeqCst) {
            return;
        }
        let Ok((mut stream, _peer)) = accepted else {
            continue;
        };
        mfdfp_obs::record_complete(
            "serve.accept",
            active.load(Ordering::SeqCst) as u64,
            accepted_from,
            mfdfp_obs::now_ns(),
        );
        // Edge load shedding: beyond the connection cap, answer 503
        // immediately instead of queueing a handler thread.
        let claimed = active
            .fetch_update(Ordering::SeqCst, Ordering::SeqCst, |n| {
                (n < config.max_connections).then_some(n + 1)
            })
            .is_ok();
        if !claimed {
            let _ = Reply::error(503, "connection limit reached", false).write_to(&mut stream);
            continue;
        }
        let slot = ConnectionSlot(Arc::clone(&active));
        let server = Arc::clone(server);
        let config = config.clone();
        let spawned = std::thread::Builder::new()
            .name("mfdfp-http-conn".into())
            .spawn(move || handle_connection(stream, &server, &config, slot));
        if spawned.is_err() {
            // Slot already released by the moved guard's drop inside the
            // failed spawn; nothing else to clean up.
            continue;
        }
    }
}

/// Serves one connection: buffered incremental parse, dispatch, response,
/// keep-alive loop. Exits on close, parse error, the idle deadline or an
/// I/O fault; the [`ConnectionSlot`] releases capacity on every exit
/// path.
///
/// The idle deadline is connection start (or the last *complete*
/// response) + [`HttpConfig::idle_timeout`]; each read blocks for at
/// most `min(read_timeout, time to the deadline)`, so both a silent
/// keep-alive connection and a slow-loris drip-feed are answered `408`
/// and closed at the same deadline (counted in `http_idle_closed`).
fn handle_connection(
    mut stream: TcpStream,
    server: &Arc<Server>,
    config: &HttpConfig,
    _slot: ConnectionSlot,
) {
    let _ = stream.set_nodelay(true);
    let mut buf: Vec<u8> = Vec::with_capacity(1024);
    let mut chunk = [0u8; 4096];
    let mut idle_deadline = Instant::now() + config.idle_timeout;
    loop {
        let parse_from = mfdfp_obs::now_ns();
        let parsed = parse_request(&buf, config);
        mfdfp_obs::record_complete(
            "serve.http_parse",
            buf.len() as u64,
            parse_from,
            mfdfp_obs::now_ns(),
        );
        match parsed {
            Ok(Some((request, consumed))) => {
                buf.drain(..consumed);
                let reply = route(server, &request);
                let keep_alive = reply.keep_alive;
                if reply.write_to(&mut stream).is_err() || !keep_alive {
                    return;
                }
                idle_deadline = Instant::now() + config.idle_timeout;
            }
            Ok(None) => {
                let now = Instant::now();
                if now >= idle_deadline {
                    server.metrics_inner().record_http_idle_closed();
                    let _ =
                        Reply::error(408, "connection idle timeout", false).write_to(&mut stream);
                    return;
                }
                let slice = config.read_timeout.min(idle_deadline - now);
                let _ = stream.set_read_timeout(Some(slice.max(Duration::from_millis(1))));
                match stream.read(&mut chunk) {
                    Ok(0) => return,
                    Ok(n) => buf.extend_from_slice(&chunk[..n]),
                    Err(e)
                        if matches!(
                            e.kind(),
                            std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                        ) =>
                    {
                        // Read slice expired inside the idle window: loop
                        // so the deadline check above decides.
                    }
                    Err(_) => return,
                }
            }
            Err(e) => {
                let _ = Reply::error(e.status(), &e.to_string(), false).write_to(&mut stream);
                return;
            }
        }
    }
}

/// Maps one parsed request to a reply via the in-process server.
fn route(server: &Arc<Server>, request: &HttpRequest) -> Reply {
    let keep_alive = request.keep_alive;
    match (request.method.as_str(), request.path.as_str()) {
        ("GET", "/v1/metrics") => Reply::json(200, server.metrics().to_json(), keep_alive),
        ("GET", "/v1/models") => Reply::json(200, models_json(server), keep_alive),
        ("GET", "/v1/health") => Reply::json(200, server.health().to_json(), keep_alive),
        ("GET", "/v1/ready") => {
            let ready = server.ready();
            Reply::json(if ready { 200 } else { 503 }, format!("{{\"ready\":{ready}}}"), keep_alive)
        }
        (method, path) if path.starts_with("/v1/infer/") => {
            let model = &path["/v1/infer/".len()..];
            if model.is_empty() {
                return Reply::error(404, "no model in path", keep_alive);
            }
            if method != "POST" {
                return Reply::error(405, "inference requires POST", keep_alive);
            }
            infer(server, model, request)
        }
        (_, "/v1/metrics" | "/v1/models" | "/v1/health" | "/v1/ready") => {
            Reply::error(405, "use GET on this endpoint", keep_alive)
        }
        _ => Reply::error(404, "unknown route", keep_alive),
    }
}

fn models_json(server: &Arc<Server>) -> String {
    let registry = server.registry();
    let mut out = String::from("{\"models\":[");
    for (i, name) in registry.names().iter().enumerate() {
        // A model may be removed between names() and version(); skip it.
        let Ok(version) = registry.version(name) else { continue };
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!("{{\"name\":\"{}\",\"version\":{version}}}", json_escape(name)));
    }
    out.push_str("]}");
    out
}

/// `POST /v1/infer/<model>`: body + headers → [`Server::submit_with`] →
/// blocking ticket wait → JSON reply.
fn infer(server: &Arc<Server>, model: &str, request: &HttpRequest) -> Reply {
    let keep_alive = request.keep_alive;
    let image = match parse_f32_array(&request.body) {
        Ok(values) => mfdfp_tensor::Tensor::from_slice(&values),
        Err(msg) => return Reply::error(400, &msg, keep_alive),
    };
    let mut opts = SubmitOptions::default();
    if let Some(value) = request.header("x-mfdfp-deadline-us") {
        match value.parse::<u64>() {
            Ok(us) => opts.deadline = Some(std::time::Duration::from_micros(us)),
            Err(_) => {
                return Reply::error(400, "x-mfdfp-deadline-us must be an integer", keep_alive)
            }
        }
    }
    match request.header("x-mfdfp-priority") {
        None => {}
        Some(v) if v.eq_ignore_ascii_case("high") => opts.priority = Priority::High,
        Some(v) if v.eq_ignore_ascii_case("normal") => {}
        Some(_) => return Reply::error(400, "x-mfdfp-priority must be high or normal", keep_alive),
    }
    let outcome = server.submit_with(model, image, opts).and_then(crate::Ticket::wait);
    match outcome {
        Ok(response) => {
            let mut reply = Reply::json(
                200,
                format!(
                    "{{\"model\":\"{}\",\"version\":{},\"class\":{},\"batch_size\":{},\"latency_us\":{},\"degraded\":{},\"logits\":{}}}",
                    json_escape(&response.model),
                    response.version,
                    response.class,
                    response.batch_size,
                    response.latency.as_micros(),
                    response.degraded,
                    format_f32_array(response.logits.as_slice()),
                ),
                keep_alive,
            );
            if response.degraded {
                reply.headers.push(("x-mfdfp-degraded", "1".to_string()));
            }
            reply
        }
        Err(e) => {
            let (status, _) = status_for(&e);
            let mut reply = Reply::error(status, &e.to_string(), keep_alive);
            if let ServeError::CircuitOpen { retry_after, .. } = &e {
                // Whole seconds, rounded up — `Retry-After: 0` would
                // invite an immediate retry against an open circuit.
                let secs = retry_after.as_secs_f64().ceil().max(1.0) as u64;
                reply.headers.push(("retry-after", secs.to_string()));
            }
            reply
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg() -> HttpConfig {
        HttpConfig::default()
    }

    #[test]
    fn parses_a_simple_get() {
        let bytes = b"GET /v1/metrics HTTP/1.1\r\nhost: x\r\n\r\n";
        let (req, consumed) = parse_request(bytes, &cfg()).unwrap().unwrap();
        assert_eq!(consumed, bytes.len());
        assert_eq!(req.method, "GET");
        assert_eq!(req.path, "/v1/metrics");
        assert_eq!(req.header("Host"), Some("x"));
        assert!(req.keep_alive);
        assert!(req.body.is_empty());
    }

    #[test]
    fn round_trips_encode_parse() {
        let body = b"[1.0,2.5]";
        let bytes = encode_request("POST", "/v1/infer/tiny", &[("x-mfdfp-priority", "high")], body);
        let (req, consumed) = parse_request(&bytes, &cfg()).unwrap().unwrap();
        assert_eq!(consumed, bytes.len());
        assert_eq!(req.method, "POST");
        assert_eq!(req.path, "/v1/infer/tiny");
        assert_eq!(req.header("x-mfdfp-priority"), Some("high"));
        assert_eq!(req.body, body);
    }

    #[test]
    fn partial_inputs_ask_for_more() {
        let bytes = encode_request("POST", "/v1/infer/t", &[], b"[1.0]");
        for cut in 0..bytes.len() {
            assert_eq!(parse_request(&bytes[..cut], &cfg()).unwrap(), None, "cut at {cut}");
        }
        assert!(parse_request(&bytes, &cfg()).unwrap().is_some());
    }

    #[test]
    fn oversized_head_and_body_are_typed() {
        let small = HttpConfig { max_head_bytes: 32, max_body_bytes: 8, ..HttpConfig::default() };
        let long_head = format!("GET /{} HTTP/1.1\r\n\r\n", "x".repeat(64));
        assert!(matches!(
            parse_request(long_head.as_bytes(), &small),
            Err(HttpParseError::HeadTooLarge { limit: 32 })
        ));
        // An unterminated prefix beyond the limit is rejected immediately.
        assert!(matches!(
            parse_request(&[b'A'; 64], &small),
            Err(HttpParseError::HeadTooLarge { .. })
        ));
        // Oversized declared body: rejected from the declaration alone.
        let tight_body = HttpConfig { max_body_bytes: 8, ..HttpConfig::default() };
        let big_body = b"POST /v1/infer/t HTTP/1.1\r\ncontent-length: 999\r\n\r\n";
        assert!(matches!(
            parse_request(big_body, &tight_body),
            Err(HttpParseError::BodyTooLarge { length: 999, limit: 8 })
        ));
    }

    #[test]
    fn malformed_inputs_are_typed_not_panics() {
        let c = cfg();
        assert!(matches!(
            parse_request(b"NOT A REQUEST\r\n\r\n", &c),
            Err(HttpParseError::BadRequestLine)
        ));
        assert!(matches!(
            parse_request(b"GET / HTTP/2.0\r\n\r\n", &c),
            Err(HttpParseError::BadVersion)
        ));
        assert!(matches!(
            parse_request(b"GET / HTTP/1.1\r\nbroken header\r\n\r\n", &c),
            Err(HttpParseError::BadHeader)
        ));
        assert!(matches!(
            parse_request(b"POST /x HTTP/1.1\r\n\r\n", &c),
            Err(HttpParseError::LengthRequired)
        ));
        assert!(matches!(
            parse_request(b"POST /x HTTP/1.1\r\ntransfer-encoding: chunked\r\n\r\n", &c),
            Err(HttpParseError::UnsupportedTransferEncoding)
        ));
    }

    #[test]
    fn connection_header_controls_keep_alive() {
        let c = cfg();
        let (req, _) =
            parse_request(b"GET / HTTP/1.1\r\nconnection: close\r\n\r\n", &c).unwrap().unwrap();
        assert!(!req.keep_alive);
        let (req, _) = parse_request(b"GET / HTTP/1.0\r\n\r\n", &c).unwrap().unwrap();
        assert!(!req.keep_alive);
        let (req, _) = parse_request(b"GET / HTTP/1.0\r\nconnection: keep-alive\r\n\r\n", &c)
            .unwrap()
            .unwrap();
        assert!(req.keep_alive);
    }

    #[test]
    fn f32_array_is_strict_and_bit_exact() {
        assert_eq!(parse_f32_array(b"[]").unwrap(), Vec::<f32>::new());
        assert_eq!(parse_f32_array(b" [ 1.0 , -2.5 ] ").unwrap(), vec![1.0, -2.5]);
        for poison in
            [&b"1.0"[..], b"[1.0,]", b"[NaN]", b"[inf]", b"[1.0] trailing", b"{\"a\":1}", b"[1;2]"]
        {
            assert!(parse_f32_array(poison).is_err(), "{poison:?} must be rejected");
        }
        // Round trip through the response formatter is bit-exact.
        let values = [1.0f32, -0.000123, 3.4e38, f32::MIN_POSITIVE, 0.1 + 0.2];
        let parsed = parse_f32_array(format_f32_array(&values).as_bytes()).unwrap();
        for (a, b) in values.iter().zip(&parsed) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    #[test]
    fn statuses_cover_every_serve_error() {
        assert_eq!(status_for(&ServeError::UnknownModel("m".into())).0, 404);
        assert_eq!(
            status_for(&ServeError::BadInput { model: "m".into(), expected: 1, actual: 2 }).0,
            400
        );
        assert_eq!(status_for(&ServeError::QueueFull { capacity: 1 }).0, 429);
        assert_eq!(status_for(&ServeError::QuotaExceeded { model: "m".into(), quota: 1 }).0, 429);
        assert_eq!(status_for(&ServeError::DeadlineExceeded { model: "m".into() }).0, 504);
        assert_eq!(status_for(&ServeError::Closed).0, 503);
        assert_eq!(
            status_for(&ServeError::CircuitOpen {
                model: "m".into(),
                retry_after: std::time::Duration::from_millis(100),
            })
            .0,
            503
        );
        assert_eq!(status_for(&ServeError::ShuttingDown).0, 503);
        assert_eq!(status_for(&ServeError::WorkerPanic).0, 500);
    }
}
