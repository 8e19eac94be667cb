//! One benchmark client connection, plain or traced.
//!
//! Plain calls go through `sitm_serve::Client::call`. Traced calls take
//! the same path by hand — `proto::encode_request` → `wire::write_frame`
//! → `wire::read_frame` → `proto::decode_response` on a bench-owned
//! socket — with a span around each step, so the four client layers add
//! up to the round trip the caller saw. No span is recorded inside the
//! server; its side is read from the `Metrics` op.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::io::Write as _;
use std::net::{SocketAddr, TcpStream};
use std::path::Path;
use std::time::{Duration, Instant};

use sitm_obs::{HistogramSnapshot, MetricsSnapshot};
use sitm_serve::{
    decode_response, encode_request, read_frame, write_frame, Client, Request, Response, ServeError,
};

/// Captured request/response payloads kept per op for codec replay.
const CAPTURE_PER_OP: usize = 64;
/// Requests whose spans are kept (the first ones of the traced half),
/// which bounds the run's memory and its span file.
const TRACED_REQUESTS: usize = 20_000;
/// Spans per traced request: the round trip and its four steps.
const SPANS_PER_REQUEST: usize = 5;

/// The wire-op name the server uses for `request` (the suffix of its
/// `serve.handle_ns.{op}` histogram).
pub fn op_name(request: &Request) -> &'static str {
    match request {
        Request::IngestBatch(_) => "ingest",
        Request::Query(_) => "query",
        Request::QueryFederated(_) => "query_federated",
        Request::Explain(_) => "explain",
        Request::Stats => "stats",
        Request::Checkpoint => "checkpoint",
        Request::Shutdown => "shutdown",
        Request::Metrics => "metrics",
        Request::Subscribe(_) => "subscribe",
        Request::Unsubscribe => "unsubscribe",
        Request::Health => "health",
        Request::Trace { .. } => "trace",
    }
}

/// A client connection in one of the two modes.
pub enum Conn {
    Plain(Client),
    Traced(Traced),
}

impl Conn {
    pub fn connect(addr: SocketAddr, traced: bool) -> Result<Conn, ServeError> {
        Ok(if traced {
            let stream = TcpStream::connect(addr)?;
            stream.set_nodelay(true)?;
            Conn::Traced(Traced {
                stream,
                origin: Instant::now(),
                spans: Vec::new(),
                captures: BTreeMap::new(),
            })
        } else {
            Conn::Plain(Client::connect(addr)?)
        })
    }

    /// One round trip and its duration. A `Response::Error` is returned
    /// as `Err`, like every other failure.
    pub fn call(&mut self, request: &Request) -> (Result<Response, ServeError>, Duration) {
        let start = Instant::now();
        let result = match self {
            Conn::Plain(client) => client.call(request),
            Conn::Traced(traced) => traced.call(request),
        };
        let elapsed = start.elapsed();
        let result = match result {
            Ok(Response::Error(message)) => Err(ServeError::Remote(message)),
            other => other,
        };
        (result, elapsed)
    }

    /// The server's metrics snapshot (an untimed control call).
    pub fn metrics(&mut self) -> Result<MetricsSnapshot, String> {
        match self.call(&Request::Metrics).0 {
            Ok(Response::Metrics(snapshot)) => Ok(snapshot),
            Ok(other) => Err(format!("metrics: unexpected {other:?}")),
            Err(e) => Err(format!("metrics: {e}")),
        }
    }

    /// Moves `other`'s spans and captures into this traced connection,
    /// so several short-lived traced connections report as one.
    pub fn absorb_trace(&mut self, other: Conn) {
        let (Conn::Traced(mine), Conn::Traced(theirs)) = (self, other) else {
            return;
        };
        let base = mine.spans.len() as u32;
        let room = (TRACED_REQUESTS * SPANS_PER_REQUEST).saturating_sub(mine.spans.len());
        mine.spans
            .extend(theirs.spans.into_iter().take(room).map(|mut s| {
                s.request += u64::from(base) / SPANS_PER_REQUEST as u64;
                s.id += base;
                s.parent = s.parent.map(|p| p + base);
                s
            }));
        for (op, captured) in theirs.captures {
            let mine = mine.captures.entry(op).or_default();
            let room = CAPTURE_PER_OP.saturating_sub(mine.len());
            mine.extend(captured.into_iter().take(room));
        }
    }

    pub fn traced(&self) -> Option<&Traced> {
        match self {
            Conn::Plain(_) => None,
            Conn::Traced(traced) => Some(traced),
        }
    }
}

/// One recorded span. Spans of one request share `request`; the root
/// (`parent == None`) is the whole round trip.
pub struct SpanRecord {
    pub request: u64,
    pub id: u32,
    pub parent: Option<u32>,
    pub name: &'static str,
    pub op: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// Captured `(request payload, response payload)` samples per op.
pub type Captures = BTreeMap<&'static str, Vec<(Vec<u8>, Vec<u8>)>>;

/// The traced connection: its socket, its spans, and captured payloads.
pub struct Traced {
    stream: TcpStream,
    origin: Instant,
    pub spans: Vec<SpanRecord>,
    pub captures: Captures,
}

impl Traced {
    fn call(&mut self, request: &Request) -> Result<Response, ServeError> {
        let op = op_name(request);
        let t0 = Instant::now();
        let mut payload = Vec::new();
        encode_request(&mut payload, request);
        let t1 = Instant::now();
        write_frame(&mut self.stream, &payload)?;
        let t2 = Instant::now();
        let frame = read_frame(&mut self.stream)?;
        let t3 = Instant::now();
        let response = decode_response(&mut frame.as_slice())?;
        let t4 = Instant::now();

        let captured = self.captures.entry(op).or_default();
        if captured.len() < CAPTURE_PER_OP {
            captured.push((payload, frame));
        }
        if self.spans.len() >= TRACED_REQUESTS * SPANS_PER_REQUEST {
            return Ok(response);
        }
        let request_id = (self.spans.len() / SPANS_PER_REQUEST) as u64;
        let ns = |t: Instant| t.duration_since(self.origin).as_nanos() as u64;
        let root = self.spans.len() as u32;
        let steps = [
            ("client.rtt", None, t0, t4),
            ("client.encode", Some(root), t0, t1),
            ("client.write", Some(root), t1, t2),
            ("client.wait", Some(root), t2, t3),
            ("client.decode", Some(root), t3, t4),
        ];
        for (name, parent, start, end) in steps {
            let record = SpanRecord {
                request: request_id,
                id: self.spans.len() as u32,
                parent,
                name,
                op,
                start_ns: ns(start),
                end_ns: ns(end),
            };
            self.spans.push(record);
        }
        Ok(response)
    }

    /// Mean self time, in microseconds, of spans named `name` on `op`
    /// requests: duration minus the time its child spans cover.
    pub fn mean_self_us(&self, op: &str, name: &str) -> f64 {
        let self_ns = self_times(&self.spans);
        let picked: Vec<f64> = self
            .spans
            .iter()
            .zip(&self_ns)
            .filter(|(s, _)| s.op == op && s.name == name)
            .map(|(_, &t)| t as f64)
            .collect();
        if picked.is_empty() {
            0.0
        } else {
            picked.iter().sum::<f64>() / picked.len() as f64 / 1e3
        }
    }

    /// Mean duration, in microseconds, of root spans on `op` requests.
    pub fn mean_rtt_us(&self, op: &str) -> f64 {
        let picked: Vec<f64> = self
            .spans
            .iter()
            .filter(|s| s.op == op && s.parent.is_none())
            .map(|s| (s.end_ns - s.start_ns) as f64)
            .collect();
        if picked.is_empty() {
            0.0
        } else {
            picked.iter().sum::<f64>() / picked.len() as f64 / 1e3
        }
    }

    /// Writes every span as one JSON object per line.
    pub fn write_spans(&self, path: &Path) -> std::io::Result<()> {
        let self_ns = self_times(&self.spans);
        let mut out = String::new();
        for (s, self_ns) in self.spans.iter().zip(self_ns) {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"request\": {}, \"id\": {}, \"parent\": {parent}, \"name\": \"{}\", \"op\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \"self_ns\": {self_ns}}}",
                s.request, s.id, s.name, s.op, s.start_ns, s.end_ns
            )
            .expect("writing to a String");
        }
        let mut file = std::fs::File::create(path)?;
        file.write_all(out.as_bytes())?;
        file.flush()
    }
}

/// Self time per span: its duration minus the union of its children's
/// intervals (clipped to the span).
fn self_times(spans: &[SpanRecord]) -> Vec<u64> {
    let mut children: BTreeMap<u32, Vec<(u64, u64)>> = BTreeMap::new();
    for s in spans {
        if let Some(parent) = s.parent {
            children
                .entry(parent)
                .or_default()
                .push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .map(|s| {
            let mut covered = 0;
            if let Some(kids) = children.get_mut(&s.id) {
                kids.sort_unstable();
                let mut cursor = s.start_ns;
                for &(start, end) in kids.iter() {
                    let (start, end) = (start.max(cursor), end.min(s.end_ns));
                    if end > start {
                        covered += end - start;
                        cursor = end;
                    }
                }
            }
            (s.end_ns - s.start_ns).saturating_sub(covered)
        })
        .collect()
}

/// Counter and histogram totals from one `Metrics` snapshot, so two
/// snapshots (or the sum over several servers) can be differenced.
#[derive(Default, Clone)]
pub struct Totals {
    counters: BTreeMap<String, u64>,
    /// name → (count, sum)
    histograms: BTreeMap<String, (u64, u64)>,
}

impl Totals {
    pub fn of(snapshot: &MetricsSnapshot) -> Totals {
        let histogram = |h: &HistogramSnapshot| (h.count, h.sum);
        Totals {
            counters: snapshot.counters.iter().cloned().collect(),
            histograms: snapshot
                .histograms
                .iter()
                .map(|(name, h)| (name.clone(), histogram(h)))
                .collect(),
        }
    }

    /// `self − earlier`, name by name.
    pub fn since(&self, earlier: &Totals) -> Totals {
        let mut out = self.clone();
        for (name, v) in &mut out.counters {
            *v = v.saturating_sub(earlier.counters.get(name).copied().unwrap_or(0));
        }
        for (name, (count, sum)) in &mut out.histograms {
            let (c0, s0) = earlier.histograms.get(name).copied().unwrap_or((0, 0));
            *count = count.saturating_sub(c0);
            *sum = sum.saturating_sub(s0);
        }
        out
    }

    /// Adds another server's totals.
    pub fn add(&mut self, other: &Totals) {
        for (name, v) in &other.counters {
            *self.counters.entry(name.clone()).or_default() += v;
        }
        for (name, (count, sum)) in &other.histograms {
            let entry = self.histograms.entry(name.clone()).or_default();
            entry.0 += count;
            entry.1 += sum;
        }
    }

    /// Requests served, not counting `Metrics` control calls.
    pub fn requests(&self) -> f64 {
        self.counters
            .iter()
            .filter(|(name, _)| {
                name.starts_with("serve.requests.") && *name != "serve.requests.metrics"
            })
            .map(|(_, &v)| v as f64)
            .sum()
    }

    /// Takes the bench's own `Metrics` calls out of the byte counters:
    /// each request's frame, and `response_bytes` of responses.
    pub fn discount_control(&mut self, response_bytes: u64) {
        let calls = self
            .counters
            .get("serve.requests.metrics")
            .copied()
            .unwrap_or(0);
        if let Some(v) = self.counters.get_mut("serve.bytes_in") {
            *v = v.saturating_sub(calls * (1 + crate::layers::FRAME_OVERHEAD as u64));
        }
        if let Some(v) = self.counters.get_mut("serve.bytes_out") {
            *v = v.saturating_sub(response_bytes);
        }
    }

    pub fn counter(&self, name: &str) -> f64 {
        self.counters.get(name).copied().unwrap_or(0) as f64
    }

    pub fn count(&self, name: &str) -> f64 {
        self.histograms.get(name).map_or(0.0, |h| h.0 as f64)
    }

    pub fn sum(&self, name: &str) -> f64 {
        self.histograms.get(name).map_or(0.0, |h| h.1 as f64)
    }

    /// Mean of a histogram's recorded values (0 when none).
    pub fn mean(&self, name: &str) -> f64 {
        crate::measure::ratio(self.sum(name), self.count(name))
    }
}
