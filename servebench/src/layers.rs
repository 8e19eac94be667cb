//! In-process, outside-in probes of single layers, run after a traced
//! workload: each times calls into one layer's public functions.

use std::io::{Read, Write};
use std::net::{TcpListener, TcpStream};
use std::path::Path;
use std::time::{Duration, Instant};

use sitm_obs::MetricsRegistry;
use sitm_query::wire::WireQuery;
use sitm_query::SegmentedDb;
use sitm_serve::{decode_request, decode_response, encode_request, encode_response, Request};
use sitm_store::warehouse::WarehouseConfig;
use sitm_stream::{EngineConfig, ParallelEngine, ShardedEngine, StreamEvent};

use crate::measure::{median, Samples};

/// Frame header bytes (marker, length, CRC) the wire adds per payload.
pub const FRAME_OVERHEAD: usize = 9;

/// Median round trip, in microseconds, of a raw std TCP echo on
/// loopback (`TCP_NODELAY`, one write per frame) that sends
/// `request_bytes` and answers with `response_bytes`: the floor any
/// served request of those sizes pays for transit alone.
pub fn loopback_floor_us(request_bytes: usize, response_bytes: usize, rounds: usize) -> f64 {
    let listener = TcpListener::bind(("127.0.0.1", 0)).expect("bind loopback echo");
    let addr = listener.local_addr().expect("echo address");
    std::thread::scope(|scope| {
        let echo = scope.spawn(move || {
            let (mut peer, _) = listener.accept().expect("accept echo peer");
            peer.set_nodelay(true).expect("nodelay");
            let mut request = vec![0u8; request_bytes];
            let response = vec![0x5Au8; response_bytes];
            while peer.read_exact(&mut request).is_ok() {
                if peer.write_all(&response).is_err() {
                    break;
                }
            }
        });
        let mut stream = TcpStream::connect(addr).expect("connect echo");
        stream.set_nodelay(true).expect("nodelay");
        let request = vec![0xA5u8; request_bytes];
        let mut response = vec![0u8; response_bytes];
        let mut rtts = Samples::default();
        for round in 0..rounds + rounds / 10 {
            let start = Instant::now();
            stream.write_all(&request).expect("echo write");
            stream.read_exact(&mut response).expect("echo read");
            if round >= rounds / 10 {
                rtts.push(start.elapsed());
            }
        }
        drop(stream);
        echo.join().expect("echo thread");
        rtts.p50_us()
    })
}

/// Mean nanoseconds per call of `body`, over enough calls to fill
/// about `budget`.
fn mean_ns(budget: Duration, mut body: impl FnMut()) -> f64 {
    let start = Instant::now();
    let mut calls = 0u64;
    while calls < 3 || start.elapsed() < budget {
        body();
        calls += 1;
    }
    start.elapsed().as_nanos() as f64 / calls as f64
}

/// Mean µs to decode one captured request payload, and mean µs to
/// encode the response decoded from its captured frame: the server's
/// codec work per request, replayed in-process.
pub fn codec_replay_us(captures: &[(Vec<u8>, Vec<u8>)]) -> (f64, f64) {
    if captures.is_empty() {
        return (0.0, 0.0);
    }
    let decode_ns = mean_ns(Duration::from_millis(100), || {
        for (request, _) in captures {
            let decoded = decode_request(&mut request.as_slice()).expect("captured request");
            std::hint::black_box(decoded);
        }
    });
    let responses: Vec<_> = captures
        .iter()
        .map(|(_, frame)| decode_response(&mut frame.as_slice()).expect("captured response"))
        .collect();
    let mut buf = Vec::new();
    let encode_ns = mean_ns(Duration::from_millis(100), || {
        for response in &responses {
            buf.clear();
            encode_response(&mut buf, response);
            std::hint::black_box(&buf);
        }
    });
    let n = captures.len() as f64;
    (decode_ns / n / 1e3, encode_ns / n / 1e3)
}

/// Mean ns to decode one event of an ingest batch.
pub fn decode_event_ns(events: &[StreamEvent]) -> f64 {
    let mut payload = Vec::new();
    encode_request(&mut payload, &Request::IngestBatch(events.to_vec()));
    let ns = mean_ns(Duration::from_millis(100), || {
        let decoded = decode_request(&mut payload.as_slice()).expect("own batch");
        std::hint::black_box(decoded);
    });
    ns / events.len().max(1) as f64
}

/// Median ns per event of `ingest_all` + `finish` on a fresh engine:
/// the server's runtime (`ParallelEngine`) and the sequential
/// `ShardedEngine`, both configured as the server configures its own.
pub fn engine_ns_per_event(config: impl Fn() -> EngineConfig, feed: &[StreamEvent]) -> (f64, f64) {
    let per_event = |elapsed: Duration| elapsed.as_nanos() as f64 / feed.len().max(1) as f64;
    let mut parallel = Vec::new();
    let mut sharded = Vec::new();
    for _ in 0..3 {
        let registry = MetricsRegistry::new();
        let mut engine = ParallelEngine::new(config().with_warehouse().with_metrics(registry))
            .expect("parallel engine");
        let start = Instant::now();
        engine.ingest_all(feed.iter().cloned());
        engine.finish();
        parallel.push(per_event(start.elapsed()));

        let registry = MetricsRegistry::new();
        let mut engine = ShardedEngine::new(config().with_warehouse().with_metrics(registry))
            .expect("sharded engine");
        let start = Instant::now();
        engine.ingest_all(feed.iter().cloned());
        engine.finish();
        sharded.push(per_event(start.elapsed()));
    }
    (median(&parallel), median(&sharded))
}

/// Median ms to build one segment from `day` (sort, encode, fsync,
/// manifest commit) in a fresh warehouse under `scratch`.
pub fn segment_build_ms(scratch: &Path, day: &[sitm_core::SemanticTrajectory]) -> f64 {
    let mut times = Vec::new();
    for i in 0..5 {
        let dir = scratch.join(format!("segment-build-{i}"));
        let (db, _) = SegmentedDb::open(&dir, WarehouseConfig::default()).expect("open scratch");
        let mut db = db.with_metrics(&MetricsRegistry::new());
        let start = Instant::now();
        db.flush(day.to_vec()).expect("flush one day");
        times.push(start.elapsed().as_secs_f64() * 1e3);
        drop(db);
        let _ = std::fs::remove_dir_all(&dir);
    }
    median(&times)
}

/// Median ms of a cold `SegmentedDb::open` of `dir`, and the last opened
/// warehouse for query replay.
pub fn cold_open(dir: &Path) -> (f64, SegmentedDb) {
    let mut times = Vec::new();
    let mut last = None;
    for _ in 0..3 {
        let start = Instant::now();
        let (db, _) = SegmentedDb::open(dir, WarehouseConfig::default()).expect("reopen warehouse");
        times.push(start.elapsed().as_secs_f64() * 1e3);
        last = Some(db.with_metrics(&MetricsRegistry::new()));
    }
    (median(&times), last.expect("opened three times"))
}

/// Mean µs per query of `Query::execute_segmented` over `db`.
pub fn inprocess_query_us(db: &SegmentedDb, queries: &[WireQuery]) -> f64 {
    if queries.is_empty() {
        return 0.0;
    }
    let queries: Vec<_> = queries.iter().map(WireQuery::to_query).collect();
    let ns = mean_ns(Duration::from_millis(200), || {
        for q in &queries {
            std::hint::black_box(q.execute_segmented(db));
        }
    });
    ns / queries.len() as f64 / 1e3
}
