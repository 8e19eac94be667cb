//! One shard: a hash partition of visits with bounded event batching.
//!
//! Shards are independent — a visit's whole lifetime lands on one shard,
//! so no cross-shard coordination is needed and shard count cannot change
//! results (the equivalence property tests pin this down for 1/2/8
//! shards). Events are buffered in a bounded inbox and applied in arrival
//! order when the inbox fills or the engine drains, amortizing per-event
//! overhead without reordering anything.

use std::collections::BTreeMap;

use sitm_core::{AnnotationSet, Duration, Episode, IntervalPredicate, Timestamp};

use crate::event::{StreamEvent, VisitKey};
use crate::live_index::LiveIndex;
use crate::live_query::{LiveVisit, ShardLive};
use crate::visit::{Anomalies, VisitSnapshot, VisitState};

/// The engine settings a shard needs to apply events, bundled so engine
/// and worker call sites stay stable as knobs are added. Borrowed from
/// the [`EngineConfig`](crate::EngineConfig) in force (predicates are
/// shared, not cloned — with `IntervalPredicate: Send + Sync` one table
/// serves every worker thread).
#[derive(Clone, Copy)]
pub struct ShardCtx<'a> {
    /// The episode detectors: `(P_ep, A'_traj)` pairs.
    pub predicates: &'a [(IntervalPredicate, AnnotationSet)],
    /// Drop zero-duration detections on arrival.
    pub drop_instantaneous: bool,
    /// Inbox size before buffered events are applied in a batch.
    pub batch_capacity: usize,
    /// How long after a visit closes its late events are still fenced
    /// (event-time deterministic; see
    /// [`EngineConfig::allowed_lateness`](crate::EngineConfig)).
    pub allowed_lateness: Duration,
    /// Cap on remembered close fences (smallest close instant evicted
    /// first).
    pub fence_capacity: usize,
    /// Keep accepted intervals in memory (and in checkpoints) so live
    /// queries can see each open visit's trajectory prefix.
    pub retain_intervals: bool,
    /// Keep each closed visit's completed trajectory until the
    /// warehouse drain (`take_finished`) collects it. Only meaningful
    /// with `retain_intervals` (the trajectory is assembled from the
    /// retained prefix at close); the engine config couples them.
    pub retain_finished: bool,
}

/// An episode the engine has finalized, tagged with its provenance.
#[derive(Debug, Clone, PartialEq)]
pub struct EmittedEpisode {
    /// The visit the episode belongs to.
    pub visit: VisitKey,
    /// The visit's moving object (`IDmo`).
    pub moving_object: String,
    /// Index into the engine's predicate table.
    pub predicate: usize,
    /// The episode, identical to what the batch extractor produces.
    pub episode: Episode,
}

impl EmittedEpisode {
    /// Global deterministic ordering: by episode time, then visit, then
    /// predicate, then range. Independent of shard count and drain timing.
    pub fn sort_key(&self) -> (Timestamp, Timestamp, u64, usize, usize) {
        (
            self.episode.time.start,
            self.episode.time.end,
            self.visit.0,
            self.predicate,
            self.episode.range.start,
        )
    }
}

/// Per-shard counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ShardStats {
    /// Events applied.
    pub events: u64,
    /// Presence intervals accepted into segmenters.
    pub presences: u64,
    /// Raw fixes applied.
    pub fixes: u64,
    /// Visits opened (explicitly or implicitly).
    pub visits_opened: u64,
    /// Visits closed.
    pub visits_closed: u64,
    /// Episodes finalized.
    pub episodes: u64,
    /// Inbox flushes performed.
    pub batches_flushed: u64,
    /// Rejected/adapted events.
    pub anomalies: Anomalies,
}

/// Serializable shard state (inbox must be empty — the engine flushes
/// before snapshotting).
#[derive(Debug, Clone, PartialEq)]
pub struct ShardSnapshot {
    /// High-water mark of applied event times.
    pub watermark: Option<Timestamp>,
    /// Open visits, ordered by key.
    pub visits: Vec<(u64, VisitSnapshot)>,
    /// Visits that have closed, with their close instants (late-event
    /// fencing; pruned once the watermark passes close + lateness).
    pub closed: Vec<(u64, Timestamp)>,
    /// Episodes finalized but not yet drained by the consumer.
    pub pending: Vec<EmittedEpisode>,
    /// Completed trajectories not yet taken by the warehouse drain
    /// (retained only under [`ShardCtx::retain_finished`]).
    pub finished: Vec<(u64, sitm_core::SemanticTrajectory)>,
    /// Counters.
    pub stats: ShardStats,
}

/// A hash partition of the visit space.
#[derive(Debug)]
pub struct Shard {
    inbox: Vec<StreamEvent>,
    visits: BTreeMap<u64, VisitState>,
    /// Closed visits and when they closed. An entry fences events
    /// timestamped within `close + allowed_lateness` of the close
    /// (event-time deterministic — no dependence on batch boundaries or
    /// worker scheduling); a later-stamped straggler retires the entry
    /// and re-opens the visit implicitly. Bounded at
    /// [`ShardCtx::fence_capacity`] by evicting the smallest close
    /// instant, so the map cannot grow with the total number of visits
    /// ever seen.
    closed: BTreeMap<u64, Timestamp>,
    /// `closed` ordered by close instant, for O(log n) capacity
    /// eviction.
    closed_order: std::collections::BTreeSet<(Timestamp, u64)>,
    pending: Vec<EmittedEpisode>,
    /// Completed trajectories awaiting the warehouse drain (see
    /// [`ShardCtx::retain_finished`]).
    finished: Vec<(u64, sitm_core::SemanticTrajectory)>,
    watermark: Option<Timestamp>,
    stats: ShardStats,
    scratch: Vec<(usize, Episode)>,
    /// Online postings over this shard's open visits (maintained only
    /// under [`ShardCtx::retain_intervals`]; empty otherwise). Not
    /// checkpointed — rebuilt from the retained intervals on restore.
    live_index: LiveIndex,
}

impl Shard {
    /// An empty shard.
    pub fn new() -> Self {
        Shard {
            inbox: Vec::new(),
            visits: BTreeMap::new(),
            closed: BTreeMap::new(),
            closed_order: std::collections::BTreeSet::new(),
            pending: Vec::new(),
            finished: Vec::new(),
            watermark: None,
            stats: ShardStats::default(),
            scratch: Vec::new(),
            live_index: LiveIndex::new(),
        }
    }

    /// Buffers one event; applies the whole inbox when it reaches
    /// [`ShardCtx::batch_capacity`].
    pub fn enqueue(&mut self, event: StreamEvent, ctx: &ShardCtx<'_>) {
        self.inbox.push(event);
        if self.inbox.len() >= ctx.batch_capacity.max(1) {
            self.flush(ctx);
        }
    }

    /// Applies every buffered event in arrival order.
    pub fn flush(&mut self, ctx: &ShardCtx<'_>) {
        if self.inbox.is_empty() {
            return;
        }
        self.stats.batches_flushed += 1;
        let events = std::mem::take(&mut self.inbox);
        for event in events {
            self.apply(event, ctx);
        }
    }

    fn apply(&mut self, event: StreamEvent, ctx: &ShardCtx<'_>) {
        self.stats.events += 1;
        self.watermark = Some(match self.watermark {
            Some(w) => w.max(event.time()),
            None => event.time(),
        });
        let key = event.visit().0;
        if let Some(&closed_at) = self.closed.get(&key) {
            if event.time() <= closed_at + ctx.allowed_lateness {
                self.stats.anomalies.after_close += 1;
                return;
            }
            // The straggler is past the lateness horizon of the close:
            // retire the fence and treat the visit as new (it re-opens
            // implicitly below, or explicitly if this is an open).
            self.closed.remove(&key);
            self.closed_order.remove(&(closed_at, key));
        }
        match event {
            StreamEvent::VisitOpened {
                visit,
                moving_object,
                annotations,
                ..
            } => {
                if self.visits.contains_key(&visit.0) {
                    self.stats.anomalies.duplicate_opens += 1;
                    return;
                }
                self.stats.visits_opened += 1;
                self.visits.insert(
                    visit.0,
                    VisitState::new(moving_object, annotations, ctx, &mut self.stats.anomalies),
                );
            }
            StreamEvent::Fix { visit, cell, at } => {
                self.stats.fixes += 1;
                self.ensure_visit(visit, ctx);
                let state = self.visits.get_mut(&visit.0).expect("ensured above");
                let before = state.retained_intervals().len();
                state.apply_fix(cell, at, ctx, &mut self.scratch, &mut self.stats.anomalies);
                self.index_accepted(visit, before);
                self.collect(visit);
            }
            StreamEvent::Presence { visit, interval } => {
                self.stats.presences += 1;
                self.ensure_visit(visit, ctx);
                let state = self.visits.get_mut(&visit.0).expect("ensured above");
                let before = state.retained_intervals().len();
                state.apply_presence(interval, ctx, &mut self.scratch, &mut self.stats.anomalies);
                self.index_accepted(visit, before);
                self.collect(visit);
            }
            StreamEvent::VisitClosed { visit, at } => {
                let Some(mut state) = self.visits.remove(&visit.0) else {
                    self.stats.anomalies.after_close += 1;
                    return;
                };
                state.close(ctx, &mut self.scratch, &mut self.stats.anomalies);
                if ctx.retain_finished {
                    // The completed trajectory heads for the warehouse
                    // tier. A visit that accepted nothing has no trace
                    // (Def. 3.1) and produces no record.
                    if let Some(trajectory) = state.live_trajectory() {
                        self.finished.push((visit.0, trajectory));
                    }
                }
                self.stats.visits_closed += 1;
                self.closed.insert(visit.0, at);
                self.closed_order.insert((at, visit.0));
                // Capacity eviction: drop the oldest fence (possibly
                // this one); see `EngineConfig::fence_capacity`.
                while self.closed.len() > ctx.fence_capacity.max(1) {
                    let &(evict_at, evict_key) =
                        self.closed_order.iter().next().expect("non-empty");
                    self.closed_order.remove(&(evict_at, evict_key));
                    self.closed.remove(&evict_key);
                }
                self.live_index.remove(visit.0);
                let moving_object = state.moving_object.clone();
                for (predicate, episode) in self.scratch.drain(..) {
                    self.stats.episodes += 1;
                    self.pending.push(EmittedEpisode {
                        visit,
                        moving_object: moving_object.clone(),
                        predicate,
                        episode,
                    });
                }
            }
        }
    }

    fn ensure_visit(&mut self, visit: VisitKey, ctx: &ShardCtx<'_>) {
        if !self.visits.contains_key(&visit.0) {
            // An observation for a visit never opened: open it implicitly
            // with a synthetic identity rather than dropping data.
            self.stats.anomalies.implicit_opens += 1;
            self.stats.visits_opened += 1;
            self.visits.insert(
                visit.0,
                VisitState::new(
                    format!("implicit-{}", visit.0),
                    AnnotationSet::from_iter([sitm_core::Annotation::goal("streamed")]),
                    ctx,
                    &mut self.stats.anomalies,
                ),
            );
        }
    }

    /// Feeds the intervals a visit accepted during the last apply into
    /// the live index (retention on makes acceptance observable as
    /// growth of the retained slice; retention off retains nothing and
    /// the index intentionally stays empty).
    fn index_accepted(&mut self, visit: VisitKey, before: usize) {
        let Shard {
            visits, live_index, ..
        } = self;
        let Some(state) = visits.get(&visit.0) else {
            return;
        };
        for interval in &state.retained_intervals()[before..] {
            live_index.observe(visit.0, &state.moving_object, interval);
        }
    }

    fn collect(&mut self, visit: VisitKey) {
        if self.scratch.is_empty() {
            return;
        }
        let moving_object = self
            .visits
            .get(&visit.0)
            .map(|s| s.moving_object.clone())
            .unwrap_or_default();
        for (predicate, episode) in self.scratch.drain(..) {
            self.stats.episodes += 1;
            self.pending.push(EmittedEpisode {
                visit,
                moving_object: moving_object.clone(),
                predicate,
                episode,
            });
        }
    }

    /// The finalized-but-undrained episodes, in emission order.
    pub fn pending(&self) -> &[EmittedEpisode] {
        &self.pending
    }

    /// Takes every finalized-but-undrained episode.
    pub fn take_pending(&mut self) -> Vec<EmittedEpisode> {
        std::mem::take(&mut self.pending)
    }

    /// Returns a drained episode to the pending pool — the undo of
    /// [`Shard::take_pending`] for consumers that took a delta but could
    /// not deliver it (a push subscriber disconnecting mid-hand-off).
    /// The next drain re-emits it; global ordering is restored by the
    /// drain's deterministic sort.
    pub fn requeue_pending(&mut self, episode: EmittedEpisode) {
        self.pending.push(episode);
    }

    /// Takes every completed-but-unflushed trajectory (the warehouse
    /// drain; empty unless [`ShardCtx::retain_finished`]).
    pub fn take_finished(&mut self) -> Vec<(u64, sitm_core::SemanticTrajectory)> {
        std::mem::take(&mut self.finished)
    }

    /// Completed trajectories currently awaiting the warehouse drain.
    pub fn finished_backlog(&self) -> usize {
        self.finished.len()
    }

    /// Closes every open visit (end-of-stream).
    pub fn close_all(&mut self, ctx: &ShardCtx<'_>) {
        let keys: Vec<u64> = self.visits.keys().copied().collect();
        for key in keys {
            let at = self.watermark.unwrap_or(Timestamp(0));
            self.apply(
                StreamEvent::VisitClosed {
                    visit: VisitKey(key),
                    at,
                },
                ctx,
            );
        }
    }

    /// The shard's contribution to a live-query snapshot: every open
    /// visit's trajectory prefix (when intervals are retained) and the
    /// live index. The undrained episodes stay in the shard (see
    /// [`Shard::pending`]). Visits without a queryable prefix yet are
    /// counted, not silently dropped.
    pub fn live_state(&self) -> ShardLive {
        let mut visits = Vec::new();
        let mut unqueryable = 0usize;
        for (key, state) in &self.visits {
            match state.live_trajectory() {
                Some(trajectory) => visits.push(LiveVisit {
                    visit: VisitKey(*key),
                    trajectory,
                }),
                None => unqueryable += 1,
            }
        }
        ShardLive {
            visits,
            watermark: self.watermark,
            unqueryable,
            index: self.live_index.clone(),
        }
    }

    /// The shard's incremental live index (empty unless intervals are
    /// retained).
    pub fn live_index(&self) -> &LiveIndex {
        &self.live_index
    }

    /// High-water mark of applied event times.
    pub fn watermark(&self) -> Option<Timestamp> {
        self.watermark
    }

    /// Open visits currently resident.
    pub fn open_visits(&self) -> usize {
        self.visits.len()
    }

    /// Events buffered but not yet applied.
    pub fn inbox_len(&self) -> usize {
        self.inbox.len()
    }

    /// Counter snapshot.
    pub fn stats(&self) -> &ShardStats {
        &self.stats
    }

    /// Serializable state. The inbox must have been flushed.
    pub fn snapshot(&self) -> ShardSnapshot {
        debug_assert!(self.inbox.is_empty(), "flush before snapshot");
        ShardSnapshot {
            watermark: self.watermark,
            visits: self
                .visits
                .iter()
                .map(|(k, v)| (*k, v.snapshot()))
                .collect(),
            closed: self.closed.iter().map(|(k, t)| (*k, *t)).collect(),
            pending: self.pending.clone(),
            finished: self.finished.clone(),
            stats: self.stats,
        }
    }

    /// Rebuilds a shard from a snapshot taken against the same predicate
    /// table.
    pub fn restore(
        snapshot: ShardSnapshot,
        predicates: &[(IntervalPredicate, AnnotationSet)],
    ) -> Self {
        let visits: BTreeMap<u64, VisitState> = snapshot
            .visits
            .into_iter()
            .map(|(k, v)| (k, VisitState::restore(v, predicates)))
            .collect();
        // The index is not serialized; rebuild it from the retained
        // intervals (empty after retention reconciliation, matching the
        // unqueryable accounting).
        let mut live_index = LiveIndex::new();
        for (key, state) in &visits {
            for interval in state.retained_intervals() {
                live_index.observe(*key, &state.moving_object, interval);
            }
        }
        let closed: BTreeMap<u64, Timestamp> = snapshot.closed.into_iter().collect();
        Shard {
            inbox: Vec::new(),
            visits,
            closed_order: closed.iter().map(|(k, t)| (*t, *k)).collect(),
            closed,
            pending: snapshot.pending,
            finished: snapshot.finished,
            watermark: snapshot.watermark,
            stats: snapshot.stats,
            scratch: Vec::new(),
            live_index,
        }
    }
}

impl Default for Shard {
    fn default() -> Self {
        Shard::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sitm_core::{Annotation, PresenceInterval, TransitionTaken};
    use sitm_graph::{LayerIdx, NodeId};
    use sitm_space::CellRef;

    fn cell(n: usize) -> CellRef {
        CellRef::new(LayerIdx::from_index(0), NodeId::from_index(n))
    }

    fn label(s: &str) -> AnnotationSet {
        AnnotationSet::from_iter([Annotation::goal(s)])
    }

    fn preds() -> Vec<(IntervalPredicate, AnnotationSet)> {
        vec![(IntervalPredicate::in_cells([cell(1)]), label("one"))]
    }

    fn ctx<'a>(
        predicates: &'a [(IntervalPredicate, AnnotationSet)],
        batch_capacity: usize,
        allowed_lateness: Duration,
    ) -> ShardCtx<'a> {
        ShardCtx {
            predicates,
            drop_instantaneous: false,
            batch_capacity,
            allowed_lateness,
            fence_capacity: 65_536,
            retain_intervals: false,
            retain_finished: false,
        }
    }

    fn presence(v: u64, c: usize, start: i64, end: i64) -> StreamEvent {
        StreamEvent::Presence {
            visit: VisitKey(v),
            interval: PresenceInterval::new(
                TransitionTaken::Unknown,
                cell(c),
                Timestamp(start),
                Timestamp(end),
            ),
        }
    }

    #[test]
    fn inbox_batches_and_flushes_at_capacity() {
        let preds = preds();
        let ctx = ctx(&preds, 3, Duration::hours(1));
        let mut shard = Shard::new();
        let open = StreamEvent::VisitOpened {
            visit: VisitKey(1),
            moving_object: "m".into(),
            annotations: label("visit"),
            at: Timestamp(0),
        };
        shard.enqueue(open, &ctx);
        shard.enqueue(presence(1, 1, 0, 10), &ctx);
        assert_eq!(shard.inbox_len(), 2, "below capacity: buffered");
        assert_eq!(shard.open_visits(), 0);
        shard.enqueue(presence(1, 0, 10, 20), &ctx);
        assert_eq!(shard.inbox_len(), 0, "capacity reached: flushed");
        assert_eq!(shard.open_visits(), 1);
        assert_eq!(shard.stats().batches_flushed, 1);
        let pending = shard.take_pending();
        assert_eq!(pending.len(), 1, "cell-1 run closed by cell-0 stay");
        assert_eq!(pending[0].moving_object, "m");
        assert_eq!(pending[0].episode.range, 0..1);
    }

    #[test]
    fn close_all_flushes_open_runs_and_fences_late_events() {
        let preds = preds();
        let ctx = ctx(&preds, 1, Duration::hours(1));
        let mut shard = Shard::new();
        shard.enqueue(
            StreamEvent::VisitOpened {
                visit: VisitKey(4),
                moving_object: "m".into(),
                annotations: label("visit"),
                at: Timestamp(0),
            },
            &ctx,
        );
        shard.enqueue(presence(4, 1, 0, 10), &ctx);
        shard.close_all(&ctx);
        assert_eq!(shard.open_visits(), 0);
        let pending = shard.take_pending();
        assert_eq!(pending.len(), 1, "open run closed at end-of-stream");
        // A late event for the closed visit is fenced.
        shard.enqueue(presence(4, 1, 20, 30), &ctx);
        assert_eq!(shard.stats().anomalies.after_close, 1);
        assert!(shard.take_pending().is_empty());
    }

    #[test]
    fn fence_entries_retire_past_allowed_lateness() {
        let preds = preds();
        let lateness = Duration::hours(1);
        let ctx = ctx(&preds, 1, lateness);
        let mut shard = Shard::new();
        shard.enqueue(
            StreamEvent::VisitOpened {
                visit: VisitKey(5),
                moving_object: "m".into(),
                annotations: label("visit"),
                at: Timestamp(0),
            },
            &ctx,
        );
        shard.enqueue(
            StreamEvent::VisitClosed {
                visit: VisitKey(5),
                at: Timestamp(10),
            },
            &ctx,
        );
        // Within the lateness horizon: still fenced.
        shard.enqueue(presence(5, 1, 100, 110), &ctx);
        assert_eq!(shard.stats().anomalies.after_close, 1);
        // A straggler stamped beyond `close + lateness` retires the
        // fence and re-opens the visit implicitly — the event-time
        // deterministic rule.
        let far = 10 + lateness.as_seconds() + 1;
        shard.enqueue(presence(6, 1, far, far + 5), &ctx);
        shard.enqueue(presence(5, 1, far + 1, far + 2), &ctx);
        assert_eq!(shard.stats().anomalies.after_close, 1, "no longer fenced");
        assert_eq!(
            shard.stats().anomalies.implicit_opens,
            2,
            "visit 6 and the revived visit 5 both opened implicitly"
        );
    }

    #[test]
    fn implicit_open_adopts_orphan_observations() {
        let preds = preds();
        let ctx = ctx(&preds, 1, Duration::hours(1));
        let mut shard = Shard::new();
        shard.enqueue(presence(9, 1, 5, 10), &ctx);
        assert_eq!(shard.stats().anomalies.implicit_opens, 1);
        assert_eq!(shard.open_visits(), 1);
        shard.close_all(&ctx);
        let pending = shard.take_pending();
        assert_eq!(pending.len(), 1);
        assert_eq!(pending[0].moving_object, "implicit-9");
    }

    #[test]
    fn snapshot_restore_preserves_everything() {
        let preds = preds();
        let ctx = ctx(&preds, 1, Duration::hours(1));
        let mut shard = Shard::new();
        shard.enqueue(
            StreamEvent::VisitOpened {
                visit: VisitKey(2),
                moving_object: "m".into(),
                annotations: label("visit"),
                at: Timestamp(0),
            },
            &ctx,
        );
        shard.enqueue(presence(2, 1, 0, 10), &ctx);
        let snap = shard.snapshot();
        let restored = Shard::restore(snap.clone(), &preds);
        assert_eq!(restored.snapshot(), snap);
        assert_eq!(restored.watermark(), Some(Timestamp(0)));
    }

    #[test]
    fn live_state_exposes_prefixes_and_leaves_pending_in_the_shard() {
        let preds = preds();
        let retaining = ShardCtx {
            retain_intervals: true,
            ..ctx(&preds, 1, Duration::hours(1))
        };
        let mut shard = Shard::new();
        shard.enqueue(
            StreamEvent::VisitOpened {
                visit: VisitKey(3),
                moving_object: "m".into(),
                annotations: label("visit"),
                at: Timestamp(0),
            },
            &retaining,
        );
        shard.enqueue(presence(3, 1, 0, 10), &retaining);
        shard.enqueue(presence(3, 0, 10, 20), &retaining);
        let live = shard.live_state();
        assert_eq!(live.visits.len(), 1);
        assert_eq!(live.visits[0].visit, VisitKey(3));
        assert_eq!(live.visits[0].trajectory.trace().len(), 2);
        assert_eq!(shard.pending().len(), 1, "cell-1 run closed by cell-0 stay");
        assert_eq!(live.unqueryable, 0);
        assert_eq!(live.watermark, Some(Timestamp(10)));
        // Without retention the visit is counted as unqueryable instead.
        let plain = ctx(&preds, 1, Duration::hours(1));
        let mut bare = Shard::new();
        bare.enqueue(presence(7, 1, 0, 10), &plain);
        let live = bare.live_state();
        assert!(live.visits.is_empty());
        assert_eq!(live.unqueryable, 1);
    }
}
