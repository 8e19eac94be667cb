//! Multi-client load generator for the network tier: N concurrent
//! client threads drive one `sitm-serve` server end to end (TCP,
//! framing, codec, engine, warehouse) and report aggregate **ingest
//! events/s** and **queries/s**.
//!
//! Usage:
//! `cargo run --release -p sitm-bench --bin bench_serve [clients] [events_per_client] [queries_per_client]`
//! (defaults: 4 clients, 20 000 events each, 200 queries each).
//!
//! The acceptance shape this binary demonstrates: N ≥ 4 concurrent
//! clients ingesting into and querying one server, with a final
//! consistency check (served totals == what the clients sent). Ingest
//! serializes on the server's engine lock, so extra clients add query
//! concurrency, not ingest throughput.

use std::time::Instant;

use sitm_core::{
    Annotation, AnnotationSet, Duration, IntervalPredicate, PresenceInterval, Timestamp,
    TransitionTaken,
};
use sitm_graph::{LayerIdx, NodeId};
use sitm_query::wire::WireQuery;
use sitm_query::{Predicate, SortKey};
use sitm_serve::{Client, Server, ServerConfig};
use sitm_space::CellRef;
use sitm_stream::{EngineConfig, StreamEvent, VisitKey};

fn cell(n: usize) -> CellRef {
    CellRef::new(LayerIdx::from_index(0), NodeId::from_index(n))
}

fn label(s: &str) -> AnnotationSet {
    AnnotationSet::from_iter([Annotation::goal(s)])
}

/// One client's feed: visits in the client's own key range, every
/// visit closed (so the history is spillable), ~5 events per visit.
fn client_feed(client: u64, events_target: usize) -> Vec<StreamEvent> {
    let visits = (events_target / 5).max(1) as u64;
    let base = client * 10_000_000;
    let mut events = Vec::with_capacity(events_target + 2);
    for v in base..base + visits {
        let t0 = ((v - base) % 1009) as i64 * 10;
        events.push(StreamEvent::VisitOpened {
            visit: VisitKey(v),
            moving_object: format!("mo-{v}"),
            annotations: label("visit"),
            at: Timestamp(t0),
        });
        for (i, c) in [1usize, (v % 7) as usize, 2].iter().enumerate() {
            events.push(StreamEvent::Presence {
                visit: VisitKey(v),
                interval: PresenceInterval::new(
                    TransitionTaken::Unknown,
                    cell(*c),
                    Timestamp(t0 + i as i64 * 50),
                    Timestamp(t0 + i as i64 * 50 + 40),
                ),
            });
        }
        events.push(StreamEvent::VisitClosed {
            visit: VisitKey(v),
            at: Timestamp(t0 + 300),
        });
    }
    events
}

fn main() {
    let mut args = std::env::args().skip(1);
    let clients: u64 = args.next().and_then(|a| a.parse().ok()).unwrap_or(4);
    let events_per_client: usize = args.next().and_then(|a| a.parse().ok()).unwrap_or(20_000);
    let queries_per_client: usize = args.next().and_then(|a| a.parse().ok()).unwrap_or(200);
    assert!(clients >= 1, "need at least one client");

    let warehouse_dir =
        std::env::temp_dir().join(format!("sitm-bench-serve-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&warehouse_dir);

    let engine = EngineConfig::new(vec![
        (IntervalPredicate::in_cells([cell(1)]), label("one")),
        (
            IntervalPredicate::min_duration(Duration::seconds(35)),
            label("long"),
        ),
    ])
    .with_shards(2);
    let server = Server::start(
        ServerConfig::new(engine, &warehouse_dir)
            .with_sessions(clients as usize + 1)
            // Spill in chunky segments so zone maps stay selective.
            .with_flush_batch(256),
    )
    .expect("start server");
    let addr = server.addr();
    println!(
        "# bench_serve: {clients} clients × {events_per_client} events + {queries_per_client} queries against {addr}"
    );
    println!(
        "# host: {} core(s) visible",
        std::thread::available_parallelism().map_or(1, |n| n.get())
    );

    // ---- Phase 1: concurrent ingest ------------------------------------
    let ingest_start = Instant::now();
    let handles: Vec<_> = (0..clients)
        .map(|c| {
            std::thread::spawn(move || {
                let mut client = Client::connect(addr).expect("connect");
                let feed = client_feed(c, events_per_client);
                let total = feed.len() as u64;
                let mut sent = 0u64;
                for chunk in feed.chunks(512) {
                    sent += client.ingest_batch(chunk.to_vec()).expect("ingest");
                }
                assert_eq!(sent, total);
                total
            })
        })
        .collect();
    let total_events: u64 = handles.into_iter().map(|h| h.join().expect("writer")).sum();
    let ingest_secs = ingest_start.elapsed().as_secs_f64();

    // Spill everything closed so the query phase hits a real warehouse.
    let mut control = Client::connect(addr).expect("connect control");
    let (spilled, warehouse_total, _) = control.checkpoint().expect("checkpoint");
    let stats = control.server_stats().expect("stats");
    assert_eq!(
        stats.events, total_events,
        "server applied every event the clients sent"
    );
    assert_eq!(stats.anomalies, 0);
    assert_eq!(spilled, warehouse_total, "first spill owns the warehouse");

    println!(
        "serve/ingest: {total_events} events over {clients} clients in {ingest_secs:.3}s \
         = {:.0} events/s end-to-end",
        total_events as f64 / ingest_secs
    );

    // ---- Phase 2: concurrent queries -----------------------------------
    // A selective point query (one visitor's history) — the shape the
    // zone-map + Bloom pruning tier exists for.
    let query_start = Instant::now();
    let handles: Vec<_> = (0..clients)
        .map(|c| {
            std::thread::spawn(move || {
                let mut client = Client::connect(addr).expect("connect");
                let target = format!("mo-{}", c * 10_000_000 + 1);
                let q = WireQuery {
                    predicate: Predicate::MovingObject(target),
                    order: Some((SortKey::Start, true)),
                    offset: 0,
                    limit: Some(10),
                };
                for _ in 0..queries_per_client {
                    let rows = client.query_federated(&q).expect("query");
                    assert_eq!(rows.len(), 1, "each visitor has exactly one visit");
                }
                queries_per_client as u64
            })
        })
        .collect();
    let total_queries: u64 = handles.into_iter().map(|h| h.join().expect("reader")).sum();
    let query_secs = query_start.elapsed().as_secs_f64();
    println!(
        "serve/query_federated: {total_queries} point queries over {clients} clients in \
         {query_secs:.3}s = {:.0} queries/s end-to-end",
        total_queries as f64 / query_secs
    );

    // The pruning tier really engages on this workload.
    let report = control
        .explain(&Predicate::MovingObject("mo-1".into()))
        .expect("explain");
    println!(
        "explain mo-1: {} segments, {} zone-pruned ({} by Bloom alone)",
        report.segments, report.zone_pruned, report.bloom_pruned
    );

    control.shutdown().expect("shutdown");
    server.join().expect("join");
    let _ = std::fs::remove_dir_all(&warehouse_dir);
}
