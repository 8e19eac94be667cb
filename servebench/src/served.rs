//! What every workload shares: starting and stopping a server at its
//! defaults, the checked client calls, and the per-layer report.

use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use sitm_core::SemanticTrajectory;
use sitm_obs::MetricsSnapshot;
use sitm_query::wire::WireQuery;
use sitm_serve::{
    encode_response, Request, Response, ServeError, Server, ServerConfig, ServerStats,
};
use sitm_stream::StreamEvent;

use crate::conn::{Conn, Totals};
use crate::corpus::Corpus;
use crate::layers::{self, FRAME_OVERHEAD};
use crate::measure::{ratio, Metrics, Samples, Tally};

/// Events per `IngestBatch`.
pub const BATCH_EVENTS: usize = 256;

/// The command-line arguments of one run.
pub struct Args {
    pub seed: u64,
    pub seconds: f64,
    pub traced: bool,
    /// Scratch directory of this run (warehouses); removed at exit.
    pub work: PathBuf,
    /// Where the traced run writes its spans.
    pub out: PathBuf,
}

/// What a run reports.
#[derive(Default)]
pub struct Report {
    pub e2e: Metrics,
    pub layers: Metrics,
    pub tally: Tally,
    pub notes: Vec<String>,
}

/// A server at its defaults on `dir`.
pub fn start_server(corpus: &Corpus, dir: &Path) -> Result<Server, String> {
    Server::start(ServerConfig::new(corpus.engine_config(), dir))
        .map_err(|e| format!("server start on {}: {e}", dir.display()))
}

/// Graceful shutdown over `conn`, then join.
pub fn stop_server(server: Server, conn: &mut Conn) -> Result<(), String> {
    match conn.call(&Request::Shutdown).0 {
        Ok(Response::ShuttingDown) => {}
        Ok(other) => return Err(format!("shutdown: unexpected {other:?}")),
        Err(e) => return Err(format!("shutdown: {e}")),
    }
    server.join().map_err(|e| format!("server join: {e}"))
}

/// Bytes of every file under `dir`.
pub fn disk_bytes(dir: &Path) -> u64 {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return 0;
    };
    entries
        .flatten()
        .map(|entry| match entry.metadata() {
            Ok(meta) if meta.is_dir() => disk_bytes(&entry.path()),
            Ok(meta) => meta.len(),
            Err(_) => 0,
        })
        .sum()
}

/// Sends `events` in `BATCH_EVENTS`-event batches, recording each ack
/// latency. Returns the events acknowledged.
pub fn ingest(
    conn: &mut Conn,
    events: &[StreamEvent],
    tally: &mut Tally,
    acks: &mut Samples,
) -> u64 {
    let mut acked = 0;
    for chunk in events.chunks(BATCH_EVENTS) {
        let (result, elapsed) = conn.call(&Request::IngestBatch(chunk.to_vec()));
        tally.check(match result {
            Ok(Response::Ingested { events }) if events == chunk.len() as u64 => {
                acks.push(elapsed);
                acked += events;
                Ok(())
            }
            other => Err(describe("ingest", other)),
        });
    }
    acked
}

/// One served `Checkpoint`.
pub fn checkpoint(conn: &mut Conn, tally: &mut Tally, latency: &mut Samples) {
    let (result, elapsed) = conn.call(&Request::Checkpoint);
    tally.check(match result {
        Ok(Response::Checkpointed { .. }) => {
            latency.push(elapsed);
            Ok(())
        }
        other => Err(describe("checkpoint", other)),
    });
}

/// One `Health` poll.
pub fn health(conn: &mut Conn, tally: &mut Tally, latency: &mut Samples) {
    let (result, elapsed) = conn.call(&Request::Health);
    tally.check(match result {
        Ok(Response::Health(_)) => {
            latency.push(elapsed);
            Ok(())
        }
        other => Err(describe("health", other)),
    });
}

/// One `Stats` poll whose counters must pass `check`.
pub fn stats(
    conn: &mut Conn,
    tally: &mut Tally,
    latency: &mut Samples,
    check: impl FnOnce(&ServerStats) -> Result<(), String>,
) {
    let (result, elapsed) = conn.call(&Request::Stats);
    tally.check(match result {
        Ok(Response::Stats { stats, .. }) => {
            latency.push(elapsed);
            check(&stats)
        }
        other => Err(describe("stats", other)),
    });
}

/// One query (`federated` selects the op) whose rows must equal
/// `expected`, row for row. Returns the rows received.
pub fn query(
    conn: &mut Conn,
    federated: bool,
    query: WireQuery,
    expected: &[SemanticTrajectory],
    tally: &mut Tally,
    latency: &mut Samples,
) -> usize {
    let request = if federated {
        Request::QueryFederated(query)
    } else {
        Request::Query(query)
    };
    let (result, elapsed) = conn.call(&request);
    let mut rows = 0;
    tally.check(match result {
        Ok(Response::Trajectories(got)) => {
            latency.push(elapsed);
            rows = got.len();
            if got == expected {
                Ok(())
            } else {
                Err(format!(
                    "{:?}: {} rows differ from the oracle's {}",
                    request_predicate(&request),
                    got.len(),
                    expected.len()
                ))
            }
        }
        other => Err(describe("query", other)),
    });
    rows
}

/// Server stats over `conn`, untimed.
pub fn server_stats(conn: &mut Conn) -> Result<ServerStats, String> {
    match conn.call(&Request::Stats).0 {
        Ok(Response::Stats { stats, .. }) => Ok(stats),
        other => Err(describe("stats", other)),
    }
}

fn request_predicate(request: &Request) -> String {
    let mut s = format!("{request:?}");
    s.truncate(120);
    s
}

fn describe(op: &str, result: Result<Response, ServeError>) -> String {
    match result {
        Ok(response) => {
            let mut s = format!("{op}: unexpected {response:?}");
            s.truncate(160);
            s
        }
        Err(e) => format!("{op}: {e}"),
    }
}

/// The end of the untraced part and the end of the run. An untraced run
/// is untraced throughout; a traced run measures its first half untraced
/// (the overhead baseline) and its second half traced.
pub fn half_deadline(start: Instant, seconds: f64, traced: bool) -> (Instant, Instant) {
    let end = start + Duration::from_secs_f64(seconds);
    let half = if traced {
        start + Duration::from_secs_f64(seconds / 2.0)
    } else {
        end
    };
    (half, end)
}

/// A `Metrics` snapshot as totals, plus what the snapshot call itself
/// adds to the next snapshot's byte counters.
pub struct Mark {
    pub totals: Totals,
    response_bytes: u64,
}

pub fn mark(conn: &mut Conn) -> Result<Mark, String> {
    let snapshot: MetricsSnapshot = conn.metrics()?;
    let mut buf = Vec::new();
    encode_response(&mut buf, &Response::Metrics(snapshot.clone()));
    Ok(Mark {
        totals: Totals::of(&snapshot),
        response_bytes: (buf.len() + FRAME_OVERHEAD) as u64,
    })
}

/// Server-side counters of the traced half: `after − before`, with the
/// two `Metrics` calls that bracket it taken back out of the request and
/// byte counts.
pub fn traced_delta(before: &Mark, after: &Mark) -> Totals {
    let mut delta = after.totals.since(&before.totals);
    delta.discount_control(before.response_bytes);
    delta
}

/// Inputs to the per-layer report besides the server counters.
pub struct LayerInputs<'a> {
    /// The traced connection's spans and captures.
    pub conn: &'a Conn,
    /// The op whose round trip the client layers decompose.
    pub primary: &'static str,
    /// Server counters over the traced half.
    pub delta: &'a Totals,
    /// Rows the traced half's queries returned.
    pub rows: u64,
    /// On-disk bytes added over the traced half.
    pub disk_growth: u64,
    /// p50 of the primary op untraced and traced (µs).
    pub untraced_p50_us: f64,
    pub traced_p50_us: f64,
    /// A warehouse directory to reopen cold (the server is down).
    pub warehouse: &'a Path,
    pub corpus: &'a Corpus,
    /// Point and page queries to replay in-process.
    pub points: Vec<WireQuery>,
    pub pages: Vec<WireQuery>,
    pub scratch: &'a Path,
}

/// Every per-layer metric, in the order BENCHMARK.json lists them.
pub fn layer_report(input: LayerInputs<'_>) -> Metrics {
    let traced = input
        .conn
        .traced()
        .expect("layer report needs the traced connection");
    let d = input.delta;
    let primary = input.primary;
    let mut m = Metrics::default();

    let encode = traced.mean_self_us(primary, "client.encode");
    let write = traced.mean_self_us(primary, "client.write");
    let wait = traced.mean_self_us(primary, "client.wait");
    let decode = traced.mean_self_us(primary, "client.decode");
    m.put("client.encode_us", encode, "us");
    m.put("client.write_us", write, "us");
    m.put("client.wait_us", wait, "us");
    m.put("client.decode_us", decode, "us");
    m.put("client.rtt_us", traced.mean_rtt_us(primary), "us");

    let captures = traced.captures.get(primary).map_or(&[][..], Vec::as_slice);
    let median_len = |pick: fn(&(Vec<u8>, Vec<u8>)) -> usize| {
        let mut lens: Vec<usize> = captures.iter().map(pick).collect();
        lens.sort_unstable();
        lens.get(lens.len() / 2).copied().unwrap_or(0) + FRAME_OVERHEAD
    };
    let floor =
        layers::loopback_floor_us(median_len(|c| c.0.len()), median_len(|c| c.1.len()), 3000);
    let requests = d.requests();
    m.put("wire.floor_us", floor, "us");
    m.put(
        "wire.request_bytes",
        ratio(d.counter("serve.bytes_in"), requests),
        "B",
    );
    m.put(
        "wire.response_bytes",
        ratio(d.counter("serve.bytes_out"), requests),
        "B",
    );

    let (decode_request_us, encode_response_us) = layers::codec_replay_us(captures);
    let batch: Vec<StreamEvent> = input
        .corpus
        .day_events(0)
        .into_iter()
        .take(BATCH_EVENTS)
        .collect();
    m.put("proto.decode_request_us", decode_request_us, "us");
    m.put("proto.encode_response_us", encode_response_us, "us");
    m.put(
        "proto.decode_event_ns",
        layers::decode_event_ns(&batch),
        "ns",
    );

    let handle_us = |op: &str| d.mean(&format!("serve.handle_ns.{op}")) / 1e3;
    for op in [
        "query_federated",
        "query",
        "health",
        "stats",
        "ingest",
        "checkpoint",
    ] {
        m.put(&format!("server.handle_us.{op}"), handle_us(op), "us");
    }
    m.put(
        "server.snapshot_build_us",
        d.mean("serve.snapshot_build_ns") / 1e3,
        "us",
    );
    m.put(
        "server.evaluate_us",
        d.mean("serve.evaluate_ns") / 1e3,
        "us",
    );
    let hits = d.counter("serve.snapshot_cache_hits");
    m.put(
        "server.snapshot_hit_ratio",
        ratio(hits, hits + d.counter("serve.snapshot_cache_misses")),
        "ratio",
    );
    m.put(
        "rtt.unattributed_us",
        wait - floor - handle_us(primary) - decode_request_us - encode_response_us,
        "us",
    );

    let feed: Vec<StreamEvent> = (0..4)
        .flat_map(|day| input.corpus.day_events(day))
        .collect();
    let (parallel_ns, sharded_ns) =
        layers::engine_ns_per_event(|| input.corpus.engine_config(), &feed);
    let routed = d.counter("engine.visits_routed");
    let stolen = d.counter("engine.visits_stolen");
    m.put("engine.ingest_ns_per_event", parallel_ns, "ns");
    m.put("engine.sharded_ingest_ns_per_event", sharded_ns, "ns");
    m.put(
        "engine.steal_ratio",
        ratio(stolen, routed + stolen),
        "ratio",
    );
    m.put(
        "engine.events_fenced",
        d.counter("engine.events_fenced"),
        "count",
    );

    let spills = d.counter("flush.spills");
    m.put(
        "flush.spill_ms",
        ratio(d.sum("flush.duration_ns"), spills) / 1e6,
        "ms",
    );
    m.put(
        "flush.trajectories_per_spill",
        ratio(d.counter("flush.trajectories"), spills),
        "count",
    );

    m.put(
        "store.write_amp",
        ratio(
            d.counter("store.segment_bytes_written"),
            input.disk_growth as f64,
        ),
        "ratio",
    );
    m.put(
        "store.segments_compacted",
        d.counter("store.segments_compacted"),
        "count",
    );
    m.put(
        "store.manifest_records",
        d.counter("store.manifest_records"),
        "count",
    );
    m.put(
        "store.segment_build_ms",
        layers::segment_build_ms(input.scratch, &input.corpus.day(0)),
        "ms",
    );
    let (cold_open_ms, db) = layers::cold_open(input.warehouse);
    m.put("store.cold_open_ms", cold_open_ms, "ms");

    let object = d.counter("query.object_pruned");
    let zone = d.counter("query.zone_pruned");
    let scanned = d.counter("query.segments_scanned");
    let probes = d.count("query.candidates");
    let queries = d.counter("serve.requests.query") + d.counter("serve.requests.query_federated");
    let cache_hits = d.counter("query.row_cache_hits");
    m.put(
        "query.prune_ratio",
        ratio(object + zone, object + zone + scanned),
        "ratio",
    );
    m.put(
        "query.segments_scanned_per_query",
        ratio(scanned, probes),
        "count",
    );
    m.put(
        "query.candidates_per_query",
        ratio(d.sum("query.candidates"), probes),
        "count",
    );
    m.put(
        "query.decoded_per_row",
        ratio(d.counter("query.trajectories_decoded"), input.rows as f64),
        "ratio",
    );
    m.put(
        "query.bytes_read_per_query",
        ratio(d.counter("query.segment_bytes_read"), queries),
        "B",
    );
    m.put(
        "query.rowcache_hit_ratio",
        ratio(cache_hits, cache_hits + d.counter("query.row_cache_misses")),
        "ratio",
    );
    m.put(
        "query.rowcache_evicted_bytes_per_query",
        ratio(d.counter("query.row_cache_evicted_bytes"), queries),
        "B",
    );
    m.put(
        "query.inprocess_point_us",
        layers::inprocess_query_us(&db, &input.points),
        "us",
    );
    m.put(
        "query.inprocess_page_us",
        layers::inprocess_query_us(&db, &input.pages),
        "us",
    );
    m.put(
        "obs.bench_trace_overhead_pct",
        (ratio(input.traced_p50_us, input.untraced_p50_us) - 1.0) * 100.0,
        "%",
    );
    m
}
