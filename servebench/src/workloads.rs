//! The three workloads. Each sets up several times (reporting the
//! median set-up time), measures its traffic for the run's seconds, and
//! checks every answer against an oracle computed from the corpus.
//! A traced run measures its first half untraced and its second half
//! traced, then runs the in-process layer probes.

use std::collections::{BTreeSet, HashMap};
use std::path::Path;
use std::time::{Duration, Instant};

use sitm_core::SemanticTrajectory;
use sitm_obs::MetricsRegistry;
use sitm_query::wire::WireQuery;
use sitm_query::{SegmentedDb, TrajectoryDb};
use sitm_serve::{Request, Response, Server};
use sitm_store::warehouse::{WarehouseConfig, DEFAULT_ROW_CACHE_BYTES};
use sitm_stream::StreamEvent;

use crate::conn::{Conn, Totals};
use crate::corpus::{day_page, oracle, point_query, Corpus, Rng, Zipf};
use crate::measure::{median, Metrics, Samples, Tally};
use crate::served::{
    checkpoint, disk_bytes, half_deadline, health, ingest, layer_report, mark, query, server_stats,
    start_server, stats, stop_server, traced_delta, Args, LayerInputs, Report, BATCH_EVENTS,
};

/// Untimed warm-up before measuring, so caches fill and lazy set-up
/// finishes first.
fn warmup(args: &Args) -> Duration {
    Duration::from_secs_f64((args.seconds / 10.0).min(1.0))
}

/// Ingest-side figures every workload reports.
#[derive(Default)]
struct Ingest {
    acks: Samples,
    checkpoints: Samples,
    events: u64,
    /// Events per second of each round (set-up or cycle) that ingested.
    rates: Vec<f64>,
}

impl Ingest {
    /// Ends a round that acknowledged `events` in `busy`.
    fn round(&mut self, events: u64, busy: Duration) {
        self.events += events;
        self.rates.push(events as f64 / busy.as_secs_f64());
    }
}

/// The end-to-end metrics, in the order BENCHMARK.json lists them.
fn e2e(
    setup_s: &[f64],
    reads: &Samples,
    health: &Samples,
    stats: &Samples,
    ingest: &Ingest,
    bytes_per_event: f64,
) -> Metrics {
    let mut m = Metrics::default();
    m.put("setup_s", median(setup_s), "s");
    m.put("read_p50_us", reads.p50_us(), "us");
    m.put("read_p90_us", reads.p90_us(), "us");
    // Reads per second of time spent waiting on reads: one closed-loop
    // connection's read throughput, without the bench's own checking.
    m.put(
        "read_ops_per_s",
        reads.len() as f64 / reads.total().as_secs_f64(),
        "1/s",
    );
    m.put("health_p50_us", health.p50_us(), "us");
    m.put("stats_p50_us", stats.p50_us(), "us");
    m.put("ingest_events_per_s", median(&ingest.rates), "1/s");
    m.put("ingest_batch_p90_ms", ingest.acks.p90_us() / 1e3, "ms");
    m.put("checkpoint_p50_ms", ingest.checkpoints.p50_us() / 1e3, "ms");
    m.put("bytes_per_event", bytes_per_event, "B/event");
    m
}

fn counts_note(workload: &str, pairs: &[(&str, usize)]) -> String {
    let counts: Vec<String> = pairs.iter().map(|(k, n)| format!("{k}={n}")).collect();
    format!("{workload} samples: {}", counts.join(" "))
}

/// The p99 tails, printed beside the gated p90s.
fn tails_note(workload: &str, reads: &Samples, ingest: &Ingest) -> String {
    format!(
        "{workload} tails: read_p99_us={:.1} ingest_batch_p99_ms={:.3}",
        reads.p99_us(),
        ingest.acks.p99_us() / 1e3
    )
}

// --- point_reads -----------------------------------------------------------

/// Warehouse days loaded through one `Checkpoint` each; one more day is
/// then ingested with its visits left open, so it stays in the live tier.
const POINT_WAREHOUSE_DAYS: usize = 8;
const POINT_SETUPS: usize = 9;
const ZIPF_S: f64 = 1.1;

struct PointSetup {
    corpus: Corpus,
    server: Server,
    conn: Conn,
    dir: std::path::PathBuf,
    /// Visitors in Zipf rank order (a seeded shuffle).
    visitors: Vec<String>,
    expected: HashMap<String, Vec<SemanticTrajectory>>,
    acked: u64,
    warehouse_rows: u64,
}

impl PointSetup {
    fn build(
        args: &Args,
        dir: &Path,
        tally: &mut Tally,
        preload: &mut Ingest,
    ) -> Result<(PointSetup, f64), String> {
        let corpus = Corpus::generate(args.seed);
        let days: Vec<Vec<SemanticTrajectory>> =
            (0..=POINT_WAREHOUSE_DAYS).map(|d| corpus.day(d)).collect();
        let mut visitors: Vec<String> = days
            .iter()
            .flatten()
            .map(|t| t.moving_object.clone())
            .collect::<BTreeSet<_>>()
            .into_iter()
            .collect();
        let mut rng = Rng::new(args.seed, 1);
        for i in (1..visitors.len()).rev() {
            visitors.swap(i, rng.below(i + 1));
        }
        let db = TrajectoryDb::build(days.into_iter().flatten().collect());
        let expected = visitors
            .iter()
            .map(|v| (v.clone(), oracle(&db, &point_query(v))))
            .collect();

        let feeds: Vec<Vec<StreamEvent>> = (0..POINT_WAREHOUSE_DAYS)
            .map(|d| corpus.day_events(d))
            .collect();
        let live: Vec<StreamEvent> = corpus
            .day_events(POINT_WAREHOUSE_DAYS)
            .into_iter()
            .filter(|e| !matches!(e, StreamEvent::VisitClosed { .. }))
            .collect();
        let server = start_server(&corpus, dir)?;
        let mut conn = Conn::connect(server.addr(), false).map_err(|e| format!("connect: {e}"))?;
        let started = Instant::now();
        let mut acked = 0;
        for feed in &feeds {
            acked += ingest(&mut conn, feed, tally, &mut preload.acks);
            checkpoint(&mut conn, tally, &mut preload.checkpoints);
        }
        let bytes_per_event = disk_bytes(dir) as f64 / acked as f64;
        acked += ingest(&mut conn, &live, tally, &mut preload.acks);
        preload.round(acked, started.elapsed());

        let warehouse_rows = (0..POINT_WAREHOUSE_DAYS)
            .map(|d| corpus.day_len(d) as u64)
            .sum();
        let open = corpus.day_len(POINT_WAREHOUSE_DAYS) as u64;
        let s = server_stats(&mut conn)?;
        tally.check(if s.events == acked && s.warehouse_trajectories == warehouse_rows && s.open_visits == open {
            Ok(())
        } else {
            Err(format!("point_reads preload: stats {s:?}, expected {acked} events, {warehouse_rows} rows, {open} open"))
        });
        Ok((
            PointSetup {
                corpus,
                server,
                conn,
                dir: dir.to_path_buf(),
                visitors,
                expected,
                acked,
                warehouse_rows,
            },
            bytes_per_event,
        ))
    }
}

#[derive(Default)]
struct PointRec {
    point: Samples,
    absent: Samples,
    health: Samples,
    stats: Samples,
    rows: u64,
    /// The first point queries sent, for in-process replay.
    sent: Vec<WireQuery>,
}

/// The closed-loop mix: ~90% federated point queries (Zipf visitor),
/// ~5% warehouse queries for an absent visitor, the rest monitor polls
/// split between `Health` and `Stats`.
fn point_mix(
    s: &mut PointSetup,
    rng: &mut Rng,
    zipf: &Zipf,
    until: Instant,
    rec: &mut PointRec,
    tally: &mut Tally,
) {
    while Instant::now() < until {
        let u = rng.unit();
        if u < 0.90 {
            let visitor = &s.visitors[zipf.sample(rng)];
            let q = point_query(visitor);
            if rec.sent.len() < 200 {
                rec.sent.push(q.clone());
            }
            rec.rows += query(
                &mut s.conn,
                true,
                q,
                &s.expected[visitor],
                tally,
                &mut rec.point,
            ) as u64;
        } else if u < 0.95 {
            let absent = format!("absent-{}", rng.below(1_000_000));
            query(
                &mut s.conn,
                false,
                point_query(&absent),
                &[],
                tally,
                &mut rec.absent,
            );
        } else if u < 0.975 {
            health(&mut s.conn, tally, &mut rec.health);
        } else {
            let (acked, rows) = (s.acked, s.warehouse_rows);
            stats(&mut s.conn, tally, &mut rec.stats, |st| {
                if st.events == acked && st.warehouse_trajectories == rows {
                    Ok(())
                } else {
                    Err(format!("point_reads stats drifted: {st:?}"))
                }
            });
        }
    }
}

pub fn point_reads(args: &Args) -> Result<Report, String> {
    let mut report = Report::default();
    let tally = &mut report.tally;
    let mut preload = Ingest::default();
    let mut setup_s = Vec::new();
    let mut bytes_per_event = Vec::new();
    let mut kept: Option<PointSetup> = None;
    for i in 0..POINT_SETUPS {
        let started = Instant::now();
        let (setup, bpe) = PointSetup::build(
            args,
            &args.work.join(format!("setup-{i}")),
            tally,
            &mut preload,
        )?;
        setup_s.push(started.elapsed().as_secs_f64());
        bytes_per_event.push(bpe);
        if let Some(mut old) = kept.replace(setup) {
            stop_server(old.server, &mut old.conn)?;
        }
    }
    let mut s = kept.expect("at least one set-up");
    let zipf = Zipf::new(s.visitors.len(), ZIPF_S);
    let mut rng = Rng::new(args.seed, 2);

    point_mix(
        &mut s,
        &mut rng,
        &zipf,
        Instant::now() + warmup(args),
        &mut PointRec::default(),
        tally,
    );
    let (half, end) = half_deadline(Instant::now(), args.seconds, args.traced);
    let mut plain = PointRec::default();
    point_mix(&mut s, &mut rng, &zipf, half, &mut plain, tally);
    report.notes.push(counts_note(
        "point_reads",
        &[
            ("point", plain.point.len()),
            ("absent", plain.absent.len()),
            ("health", plain.health.len()),
            ("stats", plain.stats.len()),
            ("preload_batches", preload.acks.len()),
            ("preload_checkpoints", preload.checkpoints.len()),
            ("setups", setup_s.len()),
        ],
    ));
    if !args.traced {
        report
            .notes
            .push(tails_note("point_reads", &plain.point, &preload));
        report.e2e = e2e(
            &setup_s,
            &plain.point,
            &plain.health,
            &plain.stats,
            &preload,
            median(&bytes_per_event),
        );
        stop_server(s.server, &mut s.conn)?;
        return Ok(report);
    }

    s.conn = Conn::connect(s.server.addr(), true).map_err(|e| format!("connect: {e}"))?;
    let before = mark(&mut s.conn)?;
    let disk_before = disk_bytes(&s.dir);
    let mut traced = PointRec::default();
    point_mix(&mut s, &mut rng, &zipf, end, &mut traced, tally);
    let after = mark(&mut s.conn)?;
    let delta = traced_delta(&before, &after);
    let disk_growth = disk_bytes(&s.dir).saturating_sub(disk_before);
    stop_server(s.server, &mut s.conn)?;
    let loaded: Vec<usize> = (0..POINT_WAREHOUSE_DAYS).collect();
    let pages = random_pages(&s.corpus, &loaded, &mut rng);
    finish_traced(
        args,
        &mut report,
        &s.conn,
        "query_federated",
        &delta,
        traced.rows,
        disk_growth,
        (plain.point.p50_us(), traced.point.p50_us()),
        &s.dir,
        &s.corpus,
        traced.sent,
        pages,
    )?;
    Ok(report)
}

/// Page queries over the given loaded days, for in-process replay.
fn random_pages(corpus: &Corpus, days: &[usize], rng: &mut Rng) -> Vec<WireQuery> {
    (0..50)
        .map(|_| {
            let day = days[rng.below(days.len())];
            day_page(corpus, day, rng.below(corpus.day_len(day)), SCAN_PAGE_ROWS)
        })
        .collect()
}

/// Point queries for uniformly drawn visitors of the given loaded days.
fn random_points(corpus: &Corpus, days: &[usize], rng: &mut Rng) -> Vec<WireQuery> {
    (0..200)
        .map(|_| {
            let day = days[rng.below(days.len())];
            let row = rng.below(corpus.day_len(day));
            point_query(&corpus.day_rows(day, row..row + 1)[0].moving_object)
        })
        .collect()
}

/// Writes the traced connection's spans and fills the per-layer report
/// (the server is already down, so its warehouse can be reopened cold).
#[allow(clippy::too_many_arguments)]
fn finish_traced(
    args: &Args,
    report: &mut Report,
    conn: &Conn,
    primary: &'static str,
    delta: &Totals,
    rows: u64,
    disk_growth: u64,
    p50s: (f64, f64),
    warehouse: &Path,
    corpus: &Corpus,
    points: Vec<WireQuery>,
    pages: Vec<WireQuery>,
) -> Result<(), String> {
    let traced = conn
        .traced()
        .expect("a traced run keeps its traced connection");
    traced
        .write_spans(&args.out)
        .map_err(|e| format!("writing spans to {}: {e}", args.out.display()))?;
    report.notes.push(format!(
        "spans: {} written to {}",
        traced.spans.len(),
        args.out.display()
    ));
    report.layers = layer_report(LayerInputs {
        conn,
        primary,
        delta,
        rows,
        disk_growth,
        untraced_p50_us: p50s.0,
        traced_p50_us: p50s.1,
        warehouse,
        corpus,
        points,
        pages,
        scratch: &args.work,
    });
    let m = &report.layers;
    let steps = [
        "client.encode_us",
        "client.write_us",
        "client.wait_us",
        "client.decode_us",
    ];
    report.notes.push(format!(
        "{primary} round trip: encode + write + wait + decode = {:.2} us of a traced RTT of {:.2} us",
        steps.iter().map(|s| m.get(s)).sum::<f64>(),
        m.get("client.rtt_us")
    ));
    report.notes.push(format!(
        "{primary} wait {:.2} us = loopback floor {:.2} + server handle {:.2} + codec replay {:.2} + unattributed {:.2}",
        m.get("client.wait_us"),
        m.get("wire.floor_us"),
        m.get(&format!("server.handle_us.{primary}")),
        m.get("proto.decode_request_us") + m.get("proto.encode_response_us"),
        m.get("rtt.unattributed_us")
    ));
    Ok(())
}

// --- ingest_flush ----------------------------------------------------------

/// Days per cycle. Each cycle starts a fresh warehouse, streams this
/// many days with a `Checkpoint` after each (16 = 4² segments, so
/// size-tiered compaction at fanout 4 merges at two levels), then
/// restarts the server and reads every day back. Cycles always run to
/// the end, so every cycle does the same work.
const CYCLE_DAYS: usize = 16;
/// Rows per read-back page. Each day reads back in several pages, so the
/// one cold query after a restart stays a small share of the reads.
const READBACK_PAGE_ROWS: usize = 125;
const INGEST_SETUPS: usize = 25;

#[derive(Default)]
struct Cycles {
    ingest: Ingest,
    reads: Samples,
    health: Samples,
    stats: Samples,
    bytes_per_event: Vec<f64>,
    cycles: usize,
    /// Server counters of traced cycles, summed (each server starts at 0).
    totals: Totals,
    disk_growth: u64,
    rows: u64,
    /// Days the latest cycle loaded.
    last_days: Vec<usize>,
}

/// One cycle on a fresh directory; returns the traced connection when
/// `traced`.
fn ingest_cycle(
    corpus: &Corpus,
    dir: &Path,
    first_day: usize,
    traced: bool,
    rec: &mut Cycles,
    tally: &mut Tally,
) -> Result<Conn, String> {
    let server = start_server(corpus, dir)?;
    let mut conn = Conn::connect(server.addr(), traced).map_err(|e| format!("connect: {e}"))?;
    let mut acked = 0;
    let mut busy = Duration::ZERO;
    let mut days = Vec::new();
    for day in first_day..first_day + CYCLE_DAYS {
        let events = corpus.day_events(day);
        let started = Instant::now();
        acked += ingest(&mut conn, &events, tally, &mut rec.ingest.acks);
        checkpoint(&mut conn, tally, &mut rec.ingest.checkpoints);
        busy += started.elapsed();
        health(&mut conn, tally, &mut rec.health);
        stats(&mut conn, tally, &mut rec.stats, |s| {
            if s.events == acked {
                Ok(())
            } else {
                Err(format!(
                    "ingest_flush: stats.events {} != acknowledged {acked}",
                    s.events
                ))
            }
        });
        days.push(day);
    }
    rec.ingest.round(acked, busy);
    let disk = disk_bytes(dir);
    rec.bytes_per_event.push(disk as f64 / acked.max(1) as f64);
    if traced {
        rec.totals.add(&served_totals(&mut conn)?);
        rec.disk_growth += disk;
    }
    stop_server(server, &mut conn)?;

    // Restart on the same directory: every acknowledged (closed) visit
    // must be durable and readable.
    let server = start_server(corpus, dir)?;
    let mut reader = Conn::connect(server.addr(), false).map_err(|e| format!("connect: {e}"))?;
    let rows: u64 = days.iter().map(|&d| corpus.day_len(d) as u64).sum();
    let s = server_stats(&mut reader)?;
    tally.check(if s.warehouse_trajectories == rows {
        Ok(())
    } else {
        Err(format!(
            "ingest_flush restart: {} rows durable, {rows} acknowledged",
            s.warehouse_trajectories
        ))
    });
    for &day in &days {
        for offset in (0..corpus.day_len(day)).step_by(READBACK_PAGE_ROWS) {
            let got = query(
                &mut reader,
                false,
                day_page(corpus, day, offset, READBACK_PAGE_ROWS),
                &corpus.day_rows(day, offset..offset + READBACK_PAGE_ROWS),
                tally,
                &mut rec.reads,
            );
            if traced {
                rec.rows += got as u64;
            }
        }
    }
    if traced {
        rec.totals.add(&served_totals(&mut reader)?);
    }
    stop_server(server, &mut reader)?;
    rec.cycles += 1;
    rec.last_days = days;
    Ok(conn)
}

/// A server's counters since it started, less this final `Metrics` call.
fn served_totals(conn: &mut Conn) -> Result<Totals, String> {
    let mut totals = Totals::of(&conn.metrics()?);
    totals.discount_control(0);
    Ok(totals)
}

pub fn ingest_flush(args: &Args) -> Result<Report, String> {
    let mut report = Report::default();
    let tally = &mut report.tally;
    let mut setup_s = Vec::new();
    let mut corpus = None;
    for i in 0..INGEST_SETUPS {
        let started = Instant::now();
        let c = Corpus::generate(args.seed);
        let server = start_server(&c, &args.work.join(format!("setup-{i}")))?;
        let mut conn = Conn::connect(server.addr(), false).map_err(|e| format!("connect: {e}"))?;
        setup_s.push(started.elapsed().as_secs_f64());
        stop_server(server, &mut conn)?;
        corpus = Some(c);
    }
    let corpus = corpus.expect("at least one set-up");

    let cycle_dir = |c: usize| args.work.join(format!("cycle-{c}"));
    let mut warm = Cycles::default();
    let warm_until = Instant::now() + warmup(args);
    while Instant::now() < warm_until {
        ingest_cycle(&corpus, &cycle_dir(0), 0, false, &mut warm, tally)?;
        let _ = std::fs::remove_dir_all(cycle_dir(0));
    }

    let (half, end) = half_deadline(Instant::now(), args.seconds, args.traced);
    let mut plain = Cycles::default();
    let mut traced = Cycles::default();
    let mut traced_conn: Option<Conn> = None;
    let mut last_dir = None;
    let mut cycle = 1;
    while Instant::now() < end {
        let in_traced_half = args.traced && Instant::now() >= half;
        let rec = if in_traced_half {
            &mut traced
        } else {
            &mut plain
        };
        let dir = cycle_dir(cycle);
        let conn = ingest_cycle(
            &corpus,
            &dir,
            cycle * CYCLE_DAYS,
            in_traced_half,
            rec,
            tally,
        )?;
        if let Some(previous) = last_dir.replace(dir) {
            let _ = std::fs::remove_dir_all(previous);
        }
        if in_traced_half {
            match &mut traced_conn {
                Some(ledger) => ledger.absorb_trace(conn),
                None => traced_conn = Some(conn),
            }
        }
        cycle += 1;
    }
    report.notes.push(counts_note(
        "ingest_flush",
        &[
            ("cycles", plain.cycles),
            ("batches", plain.ingest.acks.len()),
            ("checkpoints", plain.ingest.checkpoints.len()),
            ("readback_pages", plain.reads.len()),
            ("health", plain.health.len()),
            ("stats", plain.stats.len()),
            ("setups", setup_s.len()),
        ],
    ));
    if !args.traced {
        report
            .notes
            .push(tails_note("ingest_flush", &plain.reads, &plain.ingest));
        report.e2e = e2e(
            &setup_s,
            &plain.reads,
            &plain.health,
            &plain.stats,
            &plain.ingest,
            median(&plain.bytes_per_event),
        );
        return Ok(report);
    }
    let conn = traced_conn.ok_or("the traced half ran no cycle")?;
    let warehouse = last_dir.expect("a traced cycle ran");
    let mut rng = Rng::new(args.seed, 3);
    let points = random_points(&corpus, &traced.last_days, &mut rng);
    let pages = random_pages(&corpus, &traced.last_days, &mut rng);
    report.notes.push(counts_note(
        "ingest_flush traced",
        &[("cycles", traced.cycles)],
    ));
    finish_traced(
        args,
        &mut report,
        &conn,
        "ingest",
        &traced.totals,
        traced.rows,
        traced.disk_growth,
        (plain.ingest.acks.p50_us(), traced.ingest.acks.p50_us()),
        &warehouse,
        &corpus,
        points,
        pages,
    )?;
    Ok(report)
}

// --- scan_under_ingest -----------------------------------------------------

/// Pre-loaded days: ~180k trajectories, over 2× the 16 MiB row cache on
/// disk (asserted at set-up), loaded in-process in 40-day segments.
const SCAN_DAYS: usize = 400;
const SCAN_LOAD_CHUNK_DAYS: usize = 40;
const SCAN_SETUPS: usize = 3;
const SCAN_PAGE_ROWS: usize = 50;
/// The open-loop writer: one batch every period, a `Checkpoint` after
/// every so many batches.
const WRITER_PERIOD: Duration = Duration::from_millis(40);
const WRITER_CHECKPOINT_EVERY: usize = 50;
/// The writer's connection also carries the monitor: a `Health` and a
/// `Stats` poll after every this many batches (every 200 ms). Polling on
/// the writer's own connection keeps the polls from queueing its batches
/// behind them, and lets `Stats` be checked against the exact count of
/// events acknowledged so far.
const MONITOR_EVERY: usize = 5;

struct ScanSetup {
    server: Server,
    conn: Conn,
    preload_events: u64,
    preload_rows: u64,
}

fn scan_setup(corpus: &Corpus, dir: &Path) -> Result<ScanSetup, String> {
    let (mut db, _) = SegmentedDb::open(dir, WarehouseConfig::default())
        .map_err(|e| format!("open {}: {e}", dir.display()))?;
    db = db.with_metrics(&MetricsRegistry::new());
    for first in (0..SCAN_DAYS).step_by(SCAN_LOAD_CHUNK_DAYS) {
        let chunk = (first..first + SCAN_LOAD_CHUNK_DAYS)
            .flat_map(|d| corpus.day(d))
            .collect();
        db.flush(chunk)
            .map_err(|e| format!("pre-load flush: {e}"))?;
    }
    drop(db);
    let on_disk = disk_bytes(dir);
    if on_disk < 2 * DEFAULT_ROW_CACHE_BYTES as u64 {
        return Err(format!(
            "scan_under_ingest: {on_disk} B on disk is not over 2x the {DEFAULT_ROW_CACHE_BYTES} B row cache"
        ));
    }
    let server = start_server(corpus, dir)?;
    let conn = Conn::connect(server.addr(), false).map_err(|e| format!("connect: {e}"))?;
    Ok(ScanSetup {
        server,
        conn,
        preload_events: (0..SCAN_DAYS).map(|d| corpus.day_event_count(d)).sum(),
        preload_rows: (0..SCAN_DAYS).map(|d| corpus.day_len(d) as u64).sum(),
    })
}

#[derive(Default)]
struct Writer {
    ingest: Ingest,
    health: Samples,
    stats: Samples,
    /// How far behind schedule the writer sent, at worst.
    max_lag: Duration,
}

/// The open-loop writer: appends days after the pre-loaded ones, one
/// batch per period, each batch timed from when it was due.
fn scan_writer(
    corpus: &Corpus,
    addr: std::net::SocketAddr,
    preload_rows: u64,
    until: Instant,
) -> Result<(Writer, Tally), String> {
    let mut tally = Tally::default();
    let mut w = Writer::default();
    let mut conn = Conn::connect(addr, false).map_err(|e| format!("writer connect: {e}"))?;
    let started = Instant::now();
    let mut sent = 0u32;
    let mut acked = 0;
    let mut day = SCAN_DAYS;
    'days: loop {
        for chunk in corpus.day_events(day).chunks(BATCH_EVENTS) {
            let due = started + WRITER_PERIOD * sent;
            if due >= until {
                break 'days;
            }
            let now = Instant::now();
            if due > now {
                std::thread::sleep(due - now);
            }
            w.max_lag = w.max_lag.max(Instant::now().saturating_duration_since(due));
            match conn.call(&Request::IngestBatch(chunk.to_vec())).0 {
                Ok(Response::Ingested { events }) if events == chunk.len() as u64 => {
                    w.ingest.acks.push(due.elapsed());
                    acked += events;
                    tally.check(Ok(()));
                }
                other => tally.check(Err(format!("writer ingest: {other:?}"))),
            }
            sent += 1;
            if (sent as usize).is_multiple_of(WRITER_CHECKPOINT_EVERY) {
                checkpoint(&mut conn, &mut tally, &mut w.ingest.checkpoints);
            } else if (sent as usize).is_multiple_of(MONITOR_EVERY) {
                health(&mut conn, &mut tally, &mut w.health);
                stats(&mut conn, &mut tally, &mut w.stats, |s| {
                    if s.events == acked && s.warehouse_trajectories >= preload_rows {
                        Ok(())
                    } else {
                        Err(format!(
                            "scan_under_ingest: stats {s:?} after {acked} events acknowledged"
                        ))
                    }
                });
            }
        }
        day += 1;
    }
    w.ingest.round(acked, started.elapsed());
    checkpoint(&mut conn, &mut tally, &mut Samples::default());
    Ok((w, tally))
}

#[derive(Default)]
struct ScanRec {
    pages: Samples,
    rows: u64,
    /// The first pages sent, for in-process replay.
    sent: Vec<WireQuery>,
}

/// The closed-loop reader: pages of one uniformly drawn pre-loaded day
/// from a random offset.
fn scan_reader(
    corpus: &Corpus,
    conn: &mut Conn,
    rng: &mut Rng,
    until: Instant,
    rec: &mut ScanRec,
    tally: &mut Tally,
) {
    while Instant::now() < until {
        let day = rng.below(SCAN_DAYS);
        let offset = rng.below(corpus.day_len(day));
        let q = day_page(corpus, day, offset, SCAN_PAGE_ROWS);
        if rec.sent.len() < 200 {
            rec.sent.push(q.clone());
        }
        let expected = corpus.day_rows(day, offset..offset + SCAN_PAGE_ROWS);
        rec.rows += query(conn, false, q, &expected, tally, &mut rec.pages) as u64;
    }
}

pub fn scan_under_ingest(args: &Args) -> Result<Report, String> {
    let mut report = Report::default();
    let mut setup_s = Vec::new();
    let mut kept: Option<(Corpus, ScanSetup, std::path::PathBuf)> = None;
    for i in 0..SCAN_SETUPS {
        let dir = args.work.join(format!("setup-{i}"));
        let started = Instant::now();
        let corpus = Corpus::generate(args.seed);
        let setup = scan_setup(&corpus, &dir)?;
        setup_s.push(started.elapsed().as_secs_f64());
        if let Some((_, mut old, old_dir)) = kept.replace((corpus, setup, dir)) {
            stop_server(old.server, &mut old.conn)?;
            let _ = std::fs::remove_dir_all(old_dir);
        }
    }
    let (corpus, mut s, dir) = kept.expect("at least one set-up");
    let preload_rows = s.preload_rows;
    tally_stats(&mut s.conn, &mut report.tally, |st| {
        st.warehouse_trajectories == preload_rows
    })?;

    let mut rng = Rng::new(args.seed, 4);
    let addr = s.server.addr();
    let warm_until = Instant::now() + warmup(args);
    scan_reader(
        &corpus,
        &mut s.conn,
        &mut rng,
        warm_until,
        &mut ScanRec::default(),
        &mut report.tally,
    );

    let (half, end) = half_deadline(Instant::now(), args.seconds, args.traced);
    let mut plain = ScanRec::default();
    let mut traced = ScanRec::default();
    let mut marks = None;
    let mut disk_before = 0;
    let writer = std::thread::scope(|scope| -> Result<Writer, String> {
        let writer = scope.spawn(|| scan_writer(&corpus, addr, preload_rows, end));
        let tally = &mut report.tally;
        scan_reader(&corpus, &mut s.conn, &mut rng, half, &mut plain, tally);
        if args.traced {
            s.conn = Conn::connect(addr, true).map_err(|e| format!("connect: {e}"))?;
            let before = mark(&mut s.conn)?;
            disk_before = disk_bytes(&dir);
            scan_reader(&corpus, &mut s.conn, &mut rng, end, &mut traced, tally);
            marks = Some((before, mark(&mut s.conn)?));
        }
        let (writer, writer_tally) = writer
            .join()
            .map_err(|_| "the writer thread panicked".to_string())??;
        tally.absorb(writer_tally);
        Ok(writer)
    })?;
    let acked = writer.ingest.events;
    tally_stats(&mut s.conn, &mut report.tally, |st| st.events == acked)?;
    let bytes_per_event = disk_bytes(&dir) as f64 / (s.preload_events + acked) as f64;
    report.notes.push(counts_note(
        "scan_under_ingest",
        &[
            ("pages", plain.pages.len()),
            ("health", writer.health.len()),
            ("stats", writer.stats.len()),
            ("writer_batches", writer.ingest.acks.len()),
            ("writer_checkpoints", writer.ingest.checkpoints.len()),
            ("setups", setup_s.len()),
        ],
    ));
    report.notes.push(format!(
        "scan_under_ingest writer: at most {:.3} ms behind schedule",
        writer.max_lag.as_secs_f64() * 1e3
    ));
    if !args.traced {
        report.notes.push(tails_note(
            "scan_under_ingest",
            &plain.pages,
            &writer.ingest,
        ));
        report.e2e = e2e(
            &setup_s,
            &plain.pages,
            &writer.health,
            &writer.stats,
            &writer.ingest,
            bytes_per_event,
        );
        stop_server(s.server, &mut s.conn)?;
        return Ok(report);
    }
    let (before, after) = marks.expect("the traced half ran");
    let delta = traced_delta(&before, &after);
    let disk_growth = disk_bytes(&dir).saturating_sub(disk_before);
    stop_server(s.server, &mut s.conn)?;
    let loaded: Vec<usize> = (0..SCAN_DAYS).collect();
    let points = random_points(&corpus, &loaded, &mut rng);
    finish_traced(
        args,
        &mut report,
        &s.conn,
        "query",
        &delta,
        traced.rows,
        disk_growth,
        (plain.pages.p50_us(), traced.pages.p50_us()),
        &dir,
        &corpus,
        points,
        traced.sent,
    )?;
    Ok(report)
}

/// One untimed `Stats` check.
fn tally_stats(
    conn: &mut Conn,
    tally: &mut Tally,
    ok: impl FnOnce(&sitm_serve::ServerStats) -> bool,
) -> Result<(), String> {
    let s = server_stats(conn)?;
    tally.check(if ok(&s) {
        Ok(())
    } else {
        Err(format!("stats check failed: {s:?}"))
    });
    Ok(())
}
