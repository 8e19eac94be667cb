//! End-to-end server behaviour: the served pipeline must be
//! *observationally identical* to the in-process one. The differential
//! test here is the serving acceptance gate: a client ingesting and
//! querying over TCP gets byte-for-byte the trajectories that
//! `Query::execute_federated` produces over an identically fed
//! in-process engine + warehouse.

use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};

use sitm_core::{
    Annotation, AnnotationSet, Duration, IntervalPredicate, PresenceInterval, TimeInterval,
    Timestamp, TransitionTaken,
};
use sitm_graph::{LayerIdx, NodeId};
use sitm_query::wire::WireQuery;
use sitm_query::{Predicate, SegmentedDb, SortKey, TrajectorySource};
use sitm_serve::{Client, Server, ServerConfig};
use sitm_space::CellRef;
use sitm_store::warehouse::WarehouseConfig;
use sitm_stream::{EngineConfig, Flusher, ShardedEngine, StreamEvent, VisitKey};

static NEXT: AtomicU64 = AtomicU64::new(0);

struct TempDir(PathBuf);

impl TempDir {
    fn new(tag: &str) -> TempDir {
        let n = NEXT.fetch_add(1, Ordering::Relaxed);
        let dir = std::env::temp_dir().join(format!("sitm-serve-{tag}-{}-{n}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        TempDir(dir)
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn cell(n: usize) -> CellRef {
    CellRef::new(LayerIdx::from_index(0), NodeId::from_index(n))
}

fn label(s: &str) -> AnnotationSet {
    AnnotationSet::from_iter([Annotation::goal(s)])
}

fn engine_config() -> EngineConfig {
    EngineConfig::new(vec![
        (IntervalPredicate::in_cells([cell(1)]), label("one")),
        (IntervalPredicate::any(), label("whole")),
    ])
    .with_shards(2)
    .with_batch_capacity(4)
}

/// `visits` closed visits (spillable history) starting at key `base`,
/// plus `open` visits left open (live tier).
fn feed(base: u64, visits: u64, open: u64) -> Vec<StreamEvent> {
    let mut events = Vec::new();
    for v in base..base + visits + open {
        let t0 = v as i64 * 10;
        events.push(StreamEvent::VisitOpened {
            visit: VisitKey(v),
            moving_object: format!("mo-{v}"),
            annotations: label("visit"),
            at: Timestamp(t0),
        });
        for (i, c) in [1usize, (v % 3) as usize, 2].iter().enumerate() {
            events.push(StreamEvent::Presence {
                visit: VisitKey(v),
                interval: PresenceInterval::new(
                    TransitionTaken::Unknown,
                    cell(*c),
                    Timestamp(t0 + i as i64 * 100),
                    Timestamp(t0 + i as i64 * 100 + 50),
                ),
            });
        }
        if v < base + visits {
            events.push(StreamEvent::VisitClosed {
                visit: VisitKey(v),
                at: Timestamp(t0 + 300),
            });
        }
    }
    events
}

fn queries() -> Vec<WireQuery> {
    vec![
        WireQuery {
            predicate: Predicate::True,
            order: Some((SortKey::MovingObject, true)),
            offset: 0,
            limit: None,
        },
        WireQuery {
            predicate: Predicate::VisitedCell(cell(1)),
            order: Some((SortKey::Start, true)),
            offset: 0,
            limit: None,
        },
        WireQuery {
            predicate: Predicate::MovingObject("mo-3".into()),
            order: None,
            offset: 0,
            limit: None,
        },
        // Sorted + paged: exercises offset/limit over the wire.
        WireQuery {
            predicate: Predicate::SpanOverlaps(TimeInterval::new(Timestamp(0), Timestamp(500))),
            order: Some((SortKey::End, false)),
            offset: 2,
            limit: Some(3),
        },
        WireQuery {
            predicate: Predicate::MinTotalDwell(Duration::seconds(100))
                .and(Predicate::VisitedCell(cell(2))),
            order: Some((SortKey::TotalDwell, false)),
            offset: 0,
            limit: Some(10),
        },
    ]
}

/// The serving acceptance gate: ingest over TCP in batches with a
/// mid-stream checkpoint, leave some visits open (live tier), then pin
/// every served query — warehouse-only and federated — equal to the
/// in-process pipeline fed identically.
#[test]
fn served_results_equal_in_process_federation() {
    let tmp_server = TempDir::new("diff-server");
    let tmp_local = TempDir::new("diff-local");

    let server =
        Server::start(ServerConfig::new(engine_config(), &tmp_server.0)).expect("start server");
    let mut client = Client::connect(server.addr()).expect("connect");

    // In-process reference: same events, same flush points.
    let mut reference = ShardedEngine::new(engine_config().with_warehouse()).expect("engine");
    let mut ref_flusher = Flusher::new(
        SegmentedDb::open(&tmp_local.0, WarehouseConfig::default())
            .expect("open")
            .0,
    );

    let first = feed(0, 6, 0);
    let second = feed(6, 4, 3); // 4 more closed + 3 left open
    for batch in [first, second] {
        let sent = client
            .ingest_batch(batch.clone())
            .expect("ingest over the wire");
        assert_eq!(sent, batch.len() as u64);
        reference.ingest_all(batch);
        // Spill both warehouses at the same point in the stream.
        let (spilled, _, _) = client.checkpoint().expect("checkpoint");
        let locally = ref_flusher.poll(&mut reference).expect("local spill");
        assert_eq!(spilled, locally as u64, "same spill at the same cut");
    }

    let stats = client.server_stats().expect("stats");
    assert_eq!(stats.visits_opened, 13);
    assert_eq!(stats.visits_closed, 10);
    assert_eq!(stats.open_visits, 3);
    assert_eq!(stats.warehouse_trajectories, 10);
    assert_eq!(stats.anomalies, 0);

    let snapshot = reference.live_snapshot();
    let local_db = ref_flusher.db();
    for q in queries() {
        let served = client.query_federated(&q).expect("federated query");
        let local = q
            .to_query()
            .execute_federated(&[&*snapshot as &dyn TrajectorySource, local_db]);
        assert_eq!(served, local, "federated diverged for {:?}", q.predicate);

        // Warehouse-only queries are served by the segment pushdown,
        // whose ordering contract is `Query::execute`'s (global
        // position tiebreak) — pin against the same pushdown locally.
        let served_wh = client.query(&q).expect("warehouse query");
        let local_wh = q.to_query().execute_segmented(local_db);
        assert_eq!(
            served_wh, local_wh,
            "warehouse diverged for {:?}",
            q.predicate
        );
    }

    // Explain surfaces the federation plans and the warehouse pruning
    // counters for a selective point predicate.
    let report = client
        .explain(&Predicate::MovingObject("mo-2".into()))
        .expect("explain");
    assert_eq!(report.plans.len(), 2, "live + warehouse sources");
    assert_eq!(report.segments as usize, local_db.segments().len());
    let local_plan = local_db.explain(&Predicate::MovingObject("mo-2".into()));
    assert_eq!(report.zone_pruned as usize, local_plan.pruned);
    assert_eq!(report.bloom_pruned as usize, local_plan.bloom_pruned);
    assert_eq!(report.object_pruned as usize, local_plan.object_pruned);
    // Cold-tier I/O counters ride the report. This server wrote every
    // segment itself, so the write-through cache served the whole query
    // suite: nothing was read back or decoded from disk, and no segment
    // was lazily (headers-only) opened.
    assert_eq!(report.segment_bytes_read, 0);
    assert_eq!(report.trajectories_decoded, 0);
    assert_eq!(report.lazy_opens, 0);

    client.shutdown().expect("graceful shutdown");
    server.join().expect("join");
}

/// The monitor ops cost O(counters): after an `IngestBatch` (which
/// invalidates the live-snapshot cache) a `Stats` and a `Health` poll
/// must not cut a snapshot. The per-cell / per-period breakdowns moved
/// to the `Rollup` op, whose payload must equal the in-process merge of
/// the warehouse's segment rollups with a fold over the live tier.
#[test]
fn monitor_polls_cut_nothing_and_rollup_equals_an_in_process_merge() {
    use std::collections::BTreeMap;

    use sitm_serve::StatsRollup;
    use sitm_store::warehouse::{SegmentRollup, DEFAULT_ROLLUP_PERIOD_SECONDS};

    let tmp_server = TempDir::new("rollup-server");
    let tmp_local = TempDir::new("rollup-local");
    let server =
        Server::start(ServerConfig::new(engine_config(), &tmp_server.0)).expect("start server");
    let mut client = Client::connect(server.addr()).expect("connect");
    let mut reference = ShardedEngine::new(engine_config().with_warehouse()).expect("engine");
    let mut ref_flusher = Flusher::new(
        SegmentedDb::open(&tmp_local.0, WarehouseConfig::default())
            .expect("open")
            .0,
    );
    for batch in [feed(0, 6, 0), feed(6, 4, 0)] {
        client.ingest_batch(batch.clone()).expect("ingest");
        reference.ingest_all(batch);
        client.checkpoint().expect("checkpoint");
        ref_flusher.poll(&mut reference).expect("local spill");
    }
    // Three visits stay open: the live tier the rollup must fold in.
    let live_batch = feed(10, 0, 3);
    client.ingest_batch(live_batch.clone()).expect("ingest");
    reference.ingest_all(live_batch);

    let misses = |client: &mut Client| {
        client
            .metrics()
            .expect("metrics")
            .counter("serve.snapshot_cache_misses")
            .unwrap_or(0)
    };
    let before = misses(&mut client);
    let stats = client.server_stats().expect("stats");
    assert_eq!(stats.open_visits, 3);
    assert_eq!(stats.warehouse_trajectories, 10);
    client.health().expect("health");
    assert_eq!(
        misses(&mut client),
        before,
        "Stats and Health must not cut a live snapshot"
    );

    let served = client.rollup().expect("rollup");
    assert_eq!(
        misses(&mut client),
        before + 1,
        "Rollup cuts the snapshot the ingest invalidated"
    );

    let local_db = ref_flusher.db();
    let mut cells = local_db.rollup_cells();
    let mut periods: BTreeMap<i64, u64> = local_db.rollup_occupancy();
    let warehouse_only: Vec<_> = cells.clone().into_iter().collect();
    let mut live = Vec::new();
    reference
        .live_snapshot()
        .for_each_trajectory(&mut |t| live.push(t.clone()));
    assert_eq!(live.len(), 3);
    let live = SegmentRollup::build(&live, DEFAULT_ROLLUP_PERIOD_SECONDS);
    for (cell, agg) in &live.cells {
        cells.entry(*cell).or_default().merge(agg);
    }
    for (bucket, n) in &live.periods {
        *periods.entry(*bucket).or_default() += n;
    }
    let expected = StatsRollup {
        period_seconds: DEFAULT_ROLLUP_PERIOD_SECONDS,
        cells: cells.into_iter().collect(),
        periods: periods.into_iter().collect(),
    };
    assert_eq!(served, expected, "served rollup != in-process merge");
    assert_ne!(
        served.cells, warehouse_only,
        "the live tier contributes to the merge"
    );

    client.shutdown().expect("graceful shutdown");
    server.join().expect("join");
}

/// A graceful shutdown flushes the finished backlog into the warehouse
/// before acknowledging, so nothing closed is ever lost — a reopened
/// warehouse serves the full history.
#[test]
fn shutdown_flushes_the_warehouse_durably() {
    let tmp = TempDir::new("shutdown");
    let server = Server::start(ServerConfig::new(engine_config(), &tmp.0)).expect("start server");
    let addr = server.addr();
    let mut client = Client::connect(addr).expect("connect");
    client.ingest_batch(feed(0, 5, 0)).expect("ingest");
    // No explicit checkpoint: shutdown itself must spill the 5 closed
    // visits.
    client.shutdown().expect("shutdown");
    server.join().expect("join");

    // A new client cannot connect (listener is down).
    assert!(Client::connect(addr).is_err(), "listener must be stopped");

    let (db, report) = SegmentedDb::open(&tmp.0, WarehouseConfig::default()).expect("reopen");
    assert!(report.is_clean());
    assert_eq!(db.len(), 5, "shutdown spilled every closed visit");
}

/// Multiple sequential requests on one session, plus an oversized /
/// malformed payload answered with a per-session error while the server
/// keeps serving other clients.
#[test]
fn sessions_survive_bad_payloads_and_servers_survive_bad_sessions() {
    let tmp = TempDir::new("errors");
    let server = Server::start(ServerConfig::new(engine_config(), &tmp.0)).expect("start server");

    let mut good = Client::connect(server.addr()).expect("connect");
    good.ingest_batch(feed(0, 2, 0)).expect("ingest");

    // A well-framed but semantically garbage payload: the session gets
    // an error response and stays usable... but our Client surfaces it.
    {
        use std::io::Write as _;
        let mut raw = std::net::TcpStream::connect(server.addr()).expect("connect raw");
        let garbage = vec![0xEEu8; 16];
        sitm_serve::write_frame(&mut raw, &garbage).expect("send garbage");
        raw.flush().unwrap();
        let frame = sitm_serve::read_frame(&mut raw).expect("error response arrives");
        match sitm_serve::decode_response(&mut frame.as_slice()).expect("decodes") {
            sitm_serve::Response::Error(message) => {
                assert!(message.contains("bad request"), "{message}")
            }
            other => panic!("expected Error, got {other:?}"),
        }
    }

    // The server is still fine: the good session keeps working.
    let stats = good.server_stats().expect("stats after bad session");
    assert_eq!(stats.visits_opened, 2);
    assert!(stats.sessions_accepted >= 2);

    good.shutdown().expect("shutdown");
    server.join().expect("join");
}

/// The client's reconnect contract after a severed session: the call
/// that hits the dead socket surfaces an error (or retries its write
/// on a fresh connection — both are legal depending on when the RST
/// lands), and the connection is re-established so a subsequent call
/// succeeds. Driven against a hand-rolled peer so the severing is
/// deterministic.
#[test]
fn client_reconnects_after_connection_loss() {
    use sitm_serve::{decode_request, encode_response, read_frame, write_frame};

    let listener = std::net::TcpListener::bind("127.0.0.1:0").expect("bind");
    let addr = listener.local_addr().expect("addr");
    let peer = std::thread::spawn(move || {
        // Session 1: accept, then hang up without answering.
        let (first, _) = listener.accept().expect("accept 1");
        drop(first);
        // Session 2: serve exactly one Stats request.
        let (mut second, _) = listener.accept().expect("accept 2");
        let frame = read_frame(&mut second).expect("request arrives");
        let request = decode_request(&mut frame.as_slice()).expect("decodes");
        assert_eq!(request, sitm_serve::Request::Stats);
        let mut buf = Vec::new();
        encode_response(
            &mut buf,
            &sitm_serve::Response::Stats {
                stats: Default::default(),
            },
        );
        write_frame(&mut second, &buf).expect("respond");
    });

    let mut client = Client::connect(addr).expect("connect");
    // The first call may fail (write buffered before the RST arrives →
    // response read fails, not retried by design); the client must
    // recover on a fresh connection within a retry or two.
    let mut served = None;
    for _ in 0..5 {
        match client.server_stats() {
            Ok(stats) => {
                served = Some(stats);
                break;
            }
            Err(_) => continue,
        }
    }
    assert_eq!(served, Some(Default::default()), "reconnect served stats");
    // The client's own transport counters must tell the same story:
    // exactly one reconnect (session 1 severed → session 2 served), no
    // oversized refusals, no decode errors, and one request per
    // server_stats attempt.
    let client_stats = client.stats();
    assert_eq!(client_stats.reconnects, 1, "exactly one reconnect");
    assert_eq!(client_stats.oversized_refused, 0);
    assert_eq!(client_stats.decode_errors, 0);
    assert!(
        client_stats.requests >= 1 && client_stats.requests <= 5,
        "one request per attempt, got {}",
        client_stats.requests
    );
    peer.join().expect("peer thread");
}
