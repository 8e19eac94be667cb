//! Live-query federation: the streamed view must equal the batch view.
//!
//! At every drain point of a seeded Louvre replay, evaluating a
//! `sitm_query::Predicate` over [`LiveSnapshot`] must equal evaluating
//! the same predicate over the batch-built trajectory *prefixes* (the
//! intervals ingested so far for every still-open visit) — for any
//! shard count, including the empty-shard case (more shards than
//! visits) and a single-hot-shard skew (one visit receiving almost all
//! events).

use std::collections::BTreeMap;

use proptest::prelude::*;

use sitm_core::{
    Annotation, AnnotationSet, Duration, PresenceInterval, SemanticTrajectory, TimeInterval,
    Timestamp, Trace, TransitionTaken,
};
use sitm_louvre::{
    build_louvre, generate_dataset, zone_key, Dataset, GeneratorConfig, LouvreModel,
    PaperCalibration,
};
use sitm_query::{federated_count, Predicate, TrajectorySource};
use sitm_space::CellRef;
use sitm_store::{CheckpointFrame, LogStore};
use sitm_stream::{
    dataset_events, resume_from_log, EmittedEpisode, EngineConfig, LiveSnapshot, ShardedEngine,
    StreamEvent, VisitKey,
};

fn label(s: &str) -> AnnotationSet {
    AnnotationSet::from_iter([Annotation::goal(s)])
}

fn zone_cell(model: &LouvreModel, id: u32) -> CellRef {
    model
        .space
        .resolve(&zone_key(id))
        .expect("paper zone resolves")
}

fn config(model: &LouvreModel, shards: usize) -> EngineConfig {
    EngineConfig::new(vec![(
        sitm_core::IntervalPredicate::in_cells([zone_cell(model, 60886)]),
        label("in hall"),
    )])
    .with_shards(shards)
    .with_batch_capacity(4)
    .with_live_queries()
}

fn small_dataset(seed: u64, visits: usize, mean_dets: usize) -> Dataset {
    let cal = PaperCalibration {
        visits,
        visitors: visits,
        returning_visitors: 0,
        revisits: 0,
        detections: visits * mean_dets,
        transitions: visits * (mean_dets - 1),
        ..PaperCalibration::default()
    };
    generate_dataset(&GeneratorConfig {
        seed,
        calibration: cal,
        ..GeneratorConfig::default()
    })
}

/// The batch-built reference: replay `events[..cut]` with plain
/// bookkeeping and return, per still-open visit, the trajectory prefix
/// built from the intervals seen so far.
fn batch_prefixes(events: &[StreamEvent]) -> BTreeMap<u64, SemanticTrajectory> {
    struct OpenVisit {
        moving_object: String,
        annotations: AnnotationSet,
        intervals: Vec<PresenceInterval>,
    }
    let mut open: BTreeMap<u64, OpenVisit> = BTreeMap::new();
    for event in events {
        match event {
            StreamEvent::VisitOpened {
                visit,
                moving_object,
                annotations,
                ..
            } => {
                open.insert(
                    visit.0,
                    OpenVisit {
                        moving_object: moving_object.clone(),
                        annotations: annotations.clone(),
                        intervals: Vec::new(),
                    },
                );
            }
            StreamEvent::Presence { visit, interval } => {
                if let Some(v) = open.get_mut(&visit.0) {
                    v.intervals.push(interval.clone());
                }
            }
            StreamEvent::VisitClosed { visit, .. } => {
                open.remove(&visit.0);
            }
            StreamEvent::Fix { .. } => unreachable!("Louvre replay is detection-level"),
        }
    }
    open.into_iter()
        .filter(|(_, v)| !v.intervals.is_empty())
        .map(|(key, v)| {
            let trace = Trace::new(v.intervals).expect("feed is well-formed");
            let t = SemanticTrajectory::new(v.moving_object, trace, v.annotations)
                .expect("non-empty annotations");
            (key, t)
        })
        .collect()
}

/// The predicates the live view is checked under: where, when, and a
/// dwell aggregate.
fn query_predicates(model: &LouvreModel, events: &[StreamEvent]) -> Vec<Predicate> {
    let mid = events[events.len() / 2].time();
    vec![
        Predicate::True,
        Predicate::VisitedCell(zone_cell(model, 60886)),
        Predicate::SpanOverlaps(TimeInterval::new(mid, mid + Duration::minutes(30))),
        Predicate::MinTotalDwell(Duration::minutes(10)),
        Predicate::VisitedCell(zone_cell(model, 60887))
            .and(Predicate::MinTotalDwell(Duration::minutes(1))),
    ]
}

/// Checks one engine's snapshot against the batch prefix reference at
/// one cut point. `pending` is the engine's `pending_episodes()` taken
/// at the snapshot's cut and `drained` what the engine handed out right
/// after; they must be equal (snapshot-consistent drain).
fn check_cut(
    model: &LouvreModel,
    events: &[StreamEvent],
    cut: usize,
    snapshot: &LiveSnapshot,
    pending: &[EmittedEpisode],
    drained: &[EmittedEpisode],
) {
    let reference = batch_prefixes(&events[..cut]);
    assert_eq!(
        snapshot.visits.len(),
        reference.len(),
        "cut {cut}: open-visit census diverged"
    );
    for live in &snapshot.visits {
        let expected = reference
            .get(&live.visit.0)
            .unwrap_or_else(|| panic!("cut {cut}: {} not open in batch view", live.visit));
        assert_eq!(
            &live.trajectory, expected,
            "cut {cut}: {} prefix diverged",
            live.visit
        );
    }
    for predicate in query_predicates(model, events) {
        let batch_count = reference.values().filter(|t| predicate.matches(t)).count();
        assert_eq!(
            snapshot.count_matching(&predicate),
            batch_count,
            "cut {cut}: predicate {predicate} diverged"
        );
        // Drain-point index consistency: the incrementally maintained
        // live index, captured mid-stream between drains, must answer
        // exactly like the index-free scan — ids and counts.
        assert_eq!(
            snapshot.count_matching_scan(&predicate),
            batch_count,
            "cut {cut}: scan path diverged for {predicate}"
        );
        let indexed: Vec<u64> = snapshot
            .matching(&predicate)
            .iter()
            .map(|v| v.visit.0)
            .collect();
        let scanned: Vec<u64> = snapshot
            .matching_scan(&predicate)
            .iter()
            .map(|v| v.visit.0)
            .collect();
        assert_eq!(
            indexed, scanned,
            "cut {cut}: indexed matches diverged for {predicate}"
        );
        // The federation entry point sees the same union (and routes
        // through the same candidates).
        assert_eq!(
            federated_count(&predicate, &[snapshot as &dyn TrajectorySource]),
            batch_count,
            "cut {cut}: federated count diverged"
        );
    }
    assert_eq!(
        drained, pending,
        "cut {cut}: drain was not snapshot-consistent"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    #[test]
    fn live_view_equals_batch_prefix_at_every_drain_point(
        seed in 0u64..1_000_000,
        visits in 6usize..16,
        k in 3usize..6,
        shards in 1usize..9,
    ) {
        let model = build_louvre();
        let dataset = small_dataset(seed, visits, k);
        let events = dataset_events(&model, &dataset);
        prop_assert!(!events.is_empty());

        let mut engine = ShardedEngine::new(config(&model, shards)).expect("engine");

        // Five drain points through the day, plus the end.
        let cuts: Vec<usize> = (1..=5).map(|i| events.len() * i / 5).collect();
        let mut previous = 0;
        for &cut in &cuts {
            engine.ingest_all(events[previous..cut].iter().cloned());
            previous = cut;

            let snapshot = engine.live_snapshot();
            let pending = engine.pending_episodes();
            let drained = engine.drain();
            check_cut(&model, &events, cut, &snapshot, &pending, &drained);
        }
    }
}

#[test]
fn empty_shards_are_invisible_to_live_queries() {
    // One visit on eight shards: seven shards have no state, and the
    // snapshot must reflect exactly the one open prefix.
    let model = build_louvre();
    let dataset = small_dataset(77, 1, 4);
    let events = dataset_events(&model, &dataset);
    assert!(events.len() > 2);
    let mut engine = ShardedEngine::new(config(&model, 8)).unwrap();
    // Everything but the close.
    let body: Vec<StreamEvent> = events[..events.len() - 1].to_vec();
    let cut = body.len();
    engine.ingest_all(body);
    let snapshot = engine.live_snapshot();
    assert_eq!(snapshot.visits.len(), 1);
    assert_eq!(snapshot.count_matching(&Predicate::True), 1);
    let pending = engine.pending_episodes();
    let drained = engine.drain();
    check_cut(&model, &events, cut, &snapshot, &pending, &drained);
    // After the close the live view empties.
    engine.ingest_all(events[events.len() - 1..].iter().cloned());
    let empty = engine.live_snapshot();
    assert!(empty.visits.is_empty());
    assert_eq!(empty.count_matching(&Predicate::True), 0);
}

#[test]
fn single_hot_shard_skew_stays_consistent() {
    // One visit receives ~95% of all events (a tour group's shared
    // device): its shard saturates while the rest idle, and the live
    // view must still match the batch prefix exactly.
    let hall = CellRef::new(
        sitm_graph::LayerIdx::from_index(0),
        sitm_graph::NodeId::from_index(3),
    );
    let other = CellRef::new(
        sitm_graph::LayerIdx::from_index(0),
        sitm_graph::NodeId::from_index(4),
    );
    let mut events = Vec::new();
    events.push(StreamEvent::VisitOpened {
        visit: VisitKey(0),
        moving_object: "hot".into(),
        annotations: label("visit"),
        at: Timestamp(0),
    });
    for i in 0..400i64 {
        events.push(StreamEvent::Presence {
            visit: VisitKey(0),
            interval: PresenceInterval::new(
                TransitionTaken::Unknown,
                if i % 2 == 0 { hall } else { other },
                Timestamp(i * 10),
                Timestamp(i * 10 + 10),
            ),
        });
    }
    for v in 1..6u64 {
        events.push(StreamEvent::VisitOpened {
            visit: VisitKey(v),
            moving_object: format!("cold-{v}"),
            annotations: label("visit"),
            at: Timestamp(v as i64),
        });
        events.push(StreamEvent::Presence {
            visit: VisitKey(v),
            interval: PresenceInterval::new(
                TransitionTaken::Unknown,
                other,
                Timestamp(v as i64 + 1),
                Timestamp(v as i64 + 100),
            ),
        });
    }
    sitm_stream::event::sort_feed(&mut events);

    let preds = vec![(sitm_core::IntervalPredicate::in_cells([hall]), label("hot"))];
    let config = EngineConfig::new(preds)
        .with_shards(4)
        .with_batch_capacity(8)
        .with_live_queries();
    let mut engine = ShardedEngine::new(config).unwrap();
    let cut = events.len();
    engine.ingest_all(events.iter().cloned());
    let snapshot = engine.live_snapshot();
    let pending = engine.pending_episodes();
    let drained = engine.drain();
    assert_eq!(snapshot.visits.len(), 6, "all six visits still open");

    let reference = batch_prefixes(&events[..cut]);
    for live in &snapshot.visits {
        assert_eq!(&live.trajectory, &reference[&live.visit.0]);
    }
    assert_eq!(
        snapshot.count_matching(&Predicate::VisitedCell(hall)),
        1,
        "only the hot visit touched the hall"
    );
    assert_eq!(
        snapshot.count_matching(&Predicate::MinTotalDwell(Duration::seconds(450))),
        1,
        "only the hot visit (4000s dwell) clears 450s; cold visits dwell 99s"
    );
    assert_eq!(drained, pending);
}

/// The undrained pool stays out of the live cut. A cut taken after N
/// undrained episodes equals the cut of an identically fed engine that
/// drained first, so it carries none of them. A later drain (a
/// subscriber's barrier) still hands out all N, once, in drain order,
/// and the `engine.pending_episodes` gauge shows the pool in between.
#[test]
fn cuts_skip_the_undrained_pool_and_a_later_drain_still_delivers_it() {
    let model = build_louvre();
    let dataset = small_dataset(2024, 20, 6);
    // Every third visit never closes, so the cut has open prefixes
    // beside the episodes the closed visits emitted.
    let events: Vec<StreamEvent> = dataset_events(&model, &dataset)
        .into_iter()
        .filter(|e| !matches!(e, StreamEvent::VisitClosed { visit, .. } if visit.0 % 3 == 0))
        .collect();
    let feed = &events[..];

    let registry = sitm_obs::MetricsRegistry::new();
    let gauge = registry.gauge("engine.pending_episodes");
    let mut drained_first =
        ShardedEngine::new(config(&model, 3).with_metrics(registry.clone())).unwrap();
    drained_first.ingest_all(feed.iter().cloned());
    let expected = drained_first.drain();
    assert!(!expected.is_empty(), "closed visits emitted episodes");
    assert_eq!(gauge.get(), 0, "a drain empties the gauged pool");
    let reference = drained_first.live_snapshot();
    assert!(!reference.visits.is_empty(), "some visits are still open");
    drop(drained_first);

    let mut engine = ShardedEngine::new(config(&model, 3).with_metrics(registry.clone())).unwrap();
    engine.ingest_all(feed.iter().cloned());
    let cut = engine.live_snapshot();
    assert_eq!(*cut, *reference, "the cut carried the pool");
    assert_eq!(gauge.get(), expected.len() as i64, "the pool is gauged");
    assert_eq!(engine.pending_episodes(), expected);
    assert_eq!(engine.drain(), expected, "the drain lost the pool");
    assert!(engine.drain().is_empty(), "delivered exactly once");
    assert_eq!(gauge.get(), 0);

    // A requeue puts the pool back on the gauge, and dropping an engine
    // withdraws its undrained share.
    engine.requeue_pending(expected.clone());
    assert_eq!(
        gauge.get(),
        expected.len() as i64,
        "requeued episodes are gauged"
    );
    drop(engine);
    assert_eq!(gauge.get(), 0, "a dropped engine withdraws its pool");
}

#[test]
fn explain_reports_the_live_index_path_and_federated_queries_page_the_union() {
    use sitm_query::{AccessPath, Query, SortKey, TrajectoryDb, TrajectorySource};

    let model = build_louvre();
    let dataset = small_dataset(42, 10, 4);
    let events = dataset_events(&model, &dataset);
    let mut engine = ShardedEngine::new(config(&model, 4)).unwrap();
    // Ingest everything but the tail closes so several visits stay open.
    let open_cut = events
        .iter()
        .position(|e| matches!(e, StreamEvent::VisitClosed { .. }))
        .expect("some visit closes");
    engine.ingest_all(events[..open_cut].iter().cloned());
    let snapshot = engine.live_snapshot();
    assert!(!snapshot.visits.is_empty());

    // The engine-produced snapshot's index covers every visit, so an
    // indexable predicate explains as IndexCandidates over the live
    // side — and the candidate count bounds the population.
    let hall = zone_cell(&model, 60886);
    let query = Query::new().visited(hall);
    let plan = query.explain_source(&*snapshot as &dyn TrajectorySource);
    match plan.access {
        AccessPath::IndexCandidates { candidates } => {
            assert!(candidates <= snapshot.visits.len());
            assert_eq!(
                candidates,
                snapshot
                    .matching(&sitm_query::Predicate::VisitedCell(hall))
                    .len(),
                "cell postings are exact for VisitedCell"
            );
        }
        AccessPath::FullScan => panic!("live snapshot must expose an index path"),
    }
    // An unindexable predicate explains as a scan of the live side.
    let scan_plan = Query::new()
        .filter(sitm_query::Predicate::MinTotalDwell(
            sitm_core::Duration::minutes(1),
        ))
        .explain_source(&*snapshot as &dyn TrajectorySource);
    assert_eq!(scan_plan.access, AccessPath::FullScan);

    // Sorted + limited federated execution over live state ∪ warehouse:
    // results equal the naive union filtered, sorted, and paged by hand.
    let warehouse: Vec<sitm_core::SemanticTrajectory> = snapshot
        .visits
        .iter()
        .map(|v| v.trajectory.clone())
        .collect();
    let db = TrajectoryDb::build(warehouse);
    let sources: Vec<&dyn TrajectorySource> = vec![&*snapshot, &db];
    let q = Query::new()
        .visited(hall)
        .order_by(SortKey::Start, true)
        .offset(1)
        .limit(3);
    let fed = q.execute_federated(&sources);
    let mut naive: Vec<sitm_core::SemanticTrajectory> = Vec::new();
    for source in &sources {
        source.for_each_trajectory(&mut |t| {
            if q.predicate().matches(t) {
                naive.push(t.clone());
            }
        });
    }
    naive.sort_by_key(|t| t.start());
    let naive: Vec<sitm_core::SemanticTrajectory> = naive.into_iter().skip(1).take(3).collect();
    assert_eq!(
        fed, naive,
        "federated sort/offset/limit must match the naive union"
    );
}

#[test]
fn restoring_into_a_non_retaining_config_drops_prefixes_not_serves_them_stale() {
    // A retaining engine checkpoints mid-visit; the operator restarts
    // with retention off. The restored engine must count those visits
    // as unqueryable — a frozen prefix masquerading as the visit's
    // current trajectory would silently answer live queries wrongly.
    let model = build_louvre();
    let dataset = small_dataset(123, 4, 5);
    let events = dataset_events(&model, &dataset);
    // Cut just before the first close: that visit is open, mid-prefix.
    let cut = events
        .iter()
        .position(|e| matches!(e, StreamEvent::VisitClosed { .. }))
        .expect("some visit closes");
    let path = std::env::temp_dir().join(format!("sitm-live-retention-{}.log", std::process::id()));
    let _ = std::fs::remove_file(&path);
    {
        let mut engine = ShardedEngine::new(config(&model, 2)).unwrap();
        engine.ingest_all(events[..cut].iter().cloned());
        assert!(
            !engine.live_snapshot().visits.is_empty(),
            "mid-day: some visit is open with a prefix"
        );
        let (mut log, _, _) = LogStore::<CheckpointFrame>::open(&path).unwrap();
        engine.checkpoint(&mut log).unwrap();
    }
    // Same predicates, retention off.
    let plain = EngineConfig::new(vec![(
        sitm_core::IntervalPredicate::in_cells([zone_cell(&model, 60886)]),
        label("in hall"),
    )])
    .with_shards(2)
    .with_batch_capacity(4);
    let (mut restored, _log, report) = resume_from_log(plain, &path).unwrap();
    assert!(report.is_clean());
    let snapshot = restored.live_snapshot();
    assert!(
        snapshot.visits.is_empty(),
        "no frozen prefixes may survive into a non-retaining config"
    );
    assert!(
        snapshot.unqueryable > 0,
        "the open visits are still counted"
    );
    // The episode pipeline itself is unharmed by the reconciliation.
    let mut reference = ShardedEngine::new(config(&model, 2)).unwrap();
    reference.ingest_all(events.iter().cloned());
    restored.ingest_all(events[cut..].iter().cloned());
    assert_eq!(restored.finish(), reference.finish());
    let _ = std::fs::remove_file(&path);
}
