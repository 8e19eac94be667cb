//! The epoch-cached snapshot contract:
//!
//! * `live_snapshot` between ingest barriers returns the **same**
//!   `Arc` (pointer-equal — zero rebuild, zero copy);
//! * any mutation of snapshot-visible state (ingest, finish) advances
//!   the epoch and invalidates the cache;
//! * calls that don't change snapshot-visible state (`take_finished`,
//!   `stats`, `drain`, `requeue_pending`) keep the cache warm — a
//!   checkpoint or a subscriber's drain must not cost the next query
//!   its cached snapshot, because the undrained episode pool is not
//!   part of a snapshot;
//! * `requeue_pending` puts undelivered episodes back so the next
//!   drain re-emits them in deterministic order.

use std::sync::Arc;

use sitm_core::{
    Annotation, AnnotationSet, IntervalPredicate, PresenceInterval, Timestamp, TransitionTaken,
};
use sitm_graph::{LayerIdx, NodeId};
use sitm_space::CellRef;
use sitm_stream::{EmittedEpisode, EngineConfig, ShardedEngine, StreamEvent, VisitKey};

fn cell(n: usize) -> CellRef {
    CellRef::new(LayerIdx::from_index(0), NodeId::from_index(n))
}

fn label(s: &str) -> AnnotationSet {
    AnnotationSet::from_iter([Annotation::goal(s)])
}

fn config() -> EngineConfig {
    EngineConfig::new(vec![
        (IntervalPredicate::in_cells([cell(1)]), label("one")),
        (IntervalPredicate::any(), label("whole")),
    ])
    .with_shards(2)
    .with_batch_capacity(4)
    .with_warehouse()
}

/// `count` closed visits starting at key `base`, plus one open visit.
fn events(base: u64, count: u64) -> Vec<StreamEvent> {
    let mut out = Vec::new();
    for v in base..base + count + 1 {
        let t0 = v as i64 * 10;
        out.push(StreamEvent::VisitOpened {
            visit: VisitKey(v),
            moving_object: format!("mo-{v}"),
            annotations: label("visit"),
            at: Timestamp(t0),
        });
        out.push(StreamEvent::Presence {
            visit: VisitKey(v),
            interval: PresenceInterval::new(
                TransitionTaken::Unknown,
                cell(1),
                Timestamp(t0),
                Timestamp(t0 + 50),
            ),
        });
        if v < base + count {
            out.push(StreamEvent::VisitClosed {
                visit: VisitKey(v),
                at: Timestamp(t0 + 60),
            });
        }
    }
    out
}

fn check_cache_contract(engine: &mut ShardedEngine) {
    engine.ingest_all(events(0, 4));
    let e0 = engine.epoch();

    // First cut after a mutation: a miss that fills the cache.
    let (first, hit) = engine.live_snapshot_cached();
    assert!(!hit, "first snapshot after ingest must be a cache miss");
    // Re-reads between barriers: pointer-equal hits, stable epoch.
    for _ in 0..3 {
        let (again, hit) = engine.live_snapshot_cached();
        assert!(hit, "no mutation since the cut — must hit");
        assert!(
            Arc::ptr_eq(&first, &again),
            "cache hits must share the snapshot allocation"
        );
    }
    assert_eq!(engine.epoch(), e0, "reads must not advance the epoch");

    // Checkpoint-shaped read: the finished backlog is not part of a
    // snapshot, so taking it keeps the cache warm.
    assert!(
        !engine.take_finished().is_empty(),
        "closed visits were retained"
    );
    let (after_take, hit) = engine.live_snapshot_cached();
    assert!(hit, "take_finished must not invalidate the snapshot cache");
    assert!(Arc::ptr_eq(&first, &after_take));

    // Ingest invalidates: new epoch, new allocation, new content.
    engine.ingest_all(events(100, 2));
    let e1 = engine.epoch();
    assert!(e1 > e0, "ingest must advance the epoch");
    let (second, hit) = engine.live_snapshot_cached();
    assert!(!hit, "post-ingest snapshot must be rebuilt");
    assert!(!Arc::ptr_eq(&first, &second));
    assert!(
        second.visits.len() > first.visits.len(),
        "the rebuilt snapshot sees the newly opened visits"
    );

    // A drain takes the pending pool, which no snapshot carries: the
    // cache stays warm and the epoch stays put, empty drain or not.
    let pending = engine.pending_episodes();
    let drained = engine.drain();
    assert!(!drained.is_empty(), "closed visits emitted episodes");
    assert_eq!(pending, drained, "pending_episodes previews the drain");
    let (post_drain, hit) = engine.live_snapshot_cached();
    assert!(hit, "a drain must not invalidate the snapshot cache");
    assert!(Arc::ptr_eq(&second, &post_drain));
    assert_eq!(engine.epoch(), e1, "a drain must not advance the epoch");
    assert!(engine.drain().is_empty());
    assert!(engine.pending_episodes().is_empty());
    let (after_empty, hit) = engine.live_snapshot_cached();
    assert!(hit, "an empty drain must not invalidate");
    assert!(Arc::ptr_eq(&post_drain, &after_empty));

    // Requeue: the undo of a drain — the cache stays warm too, and the
    // next drain re-emits exactly what went back, in deterministic
    // order.
    engine.requeue_pending(drained.clone());
    let (after_requeue, hit) = engine.live_snapshot_cached();
    assert!(hit, "requeued episodes are not snapshot-visible");
    assert!(Arc::ptr_eq(&post_drain, &after_requeue));
    assert_eq!(engine.epoch(), e1, "a requeue must not advance the epoch");
    let redrained = engine.drain();
    let mut expect = drained;
    expect.sort_by_key(EmittedEpisode::sort_key);
    assert_eq!(redrained, expect, "requeue → drain must round-trip");
}

#[test]
fn sequential_engine_epoch_cache_contract() {
    let mut engine = ShardedEngine::new(config()).expect("engine");
    check_cache_contract(&mut engine);
}

/// The cached cut is *correct*, not just cheap: after any number of
/// hits, it equals what a fresh rebuild of an identically fed engine
/// produces.
#[test]
fn cache_hits_match_a_forced_rebuild() {
    let mut cached = ShardedEngine::new(config()).expect("engine");
    let mut fed = Vec::new();
    for base in [0u64, 50, 200] {
        let batch = events(base, 3);
        fed.extend(batch.iter().cloned());
        cached.ingest_all(batch);
        let (first, _) = cached.live_snapshot_cached();
        let (hit, was_hit) = cached.live_snapshot_cached();
        assert!(was_hit);
        assert!(Arc::ptr_eq(&first, &hit));

        let mut rebuilt = ShardedEngine::new(config()).expect("engine");
        rebuilt.ingest_all(fed.iter().cloned());
        let (reference, was_hit) = rebuilt.live_snapshot_cached();
        assert!(!was_hit, "a fresh engine's first cut is a rebuild");
        assert!(!reference.visits.is_empty());
        assert_eq!(*hit, *reference, "cached cut diverged from a rebuild");
    }
}
