//! The sharded ingestion engine.
//!
//! [`ShardedEngine`] hash-partitions visits across N independent shards.
//! Because a visit's lifetime is confined to one shard and shards apply
//! their events in arrival order, the shard count is invisible in the
//! output: episodes are identical for 1, 2, or 8 shards (property-tested
//! in `tests/equivalence.rs`), and [`ShardedEngine::drain`] returns them
//! in one deterministic global order.

use std::sync::Arc;

use sitm_core::{AnnotationSet, Duration, IntervalPredicate, Timestamp};
use sitm_obs::{Counter, MetricsRegistry};
use sitm_store::{CheckpointFrame, LogStore, StoreError};

use crate::checkpoint::{encode_shard, CheckpointError};
use crate::event::{StreamEvent, VisitKey};
use crate::live_query::LiveSnapshot;
use crate::shard::{Shard, ShardCtx, ShardStats};

pub use crate::shard::EmittedEpisode;
pub use crate::visit::Anomalies;

/// Engine construction and restore failures.
#[derive(Debug)]
pub enum EngineError {
    /// At least one shard is required.
    ZeroShards,
    /// Restoring from frames recorded with a different shard count.
    ShardCountMismatch {
        /// Shards in the configuration.
        configured: usize,
        /// Shards recorded in the checkpoint.
        recorded: usize,
    },
    /// Restoring from frames recorded with a different predicate table.
    PredicateCountMismatch {
        /// Predicates in the configuration.
        configured: usize,
        /// Predicates recorded in the checkpoint.
        recorded: usize,
    },
    /// A checkpoint payload failed to decode.
    Checkpoint(CheckpointError),
    /// The backing log failed.
    Store(StoreError),
}

impl std::fmt::Display for EngineError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            EngineError::ZeroShards => write!(f, "engine needs at least one shard"),
            EngineError::ShardCountMismatch {
                configured,
                recorded,
            } => write!(
                f,
                "checkpoint has {recorded} shard(s), configuration has {configured}"
            ),
            EngineError::PredicateCountMismatch {
                configured,
                recorded,
            } => write!(
                f,
                "checkpoint has {recorded} predicate(s), configuration has {configured}"
            ),
            EngineError::Checkpoint(e) => write!(f, "checkpoint: {e}"),
            EngineError::Store(e) => write!(f, "store: {e}"),
        }
    }
}

impl std::error::Error for EngineError {}

impl From<CheckpointError> for EngineError {
    fn from(e: CheckpointError) -> Self {
        EngineError::Checkpoint(e)
    }
}

impl From<StoreError> for EngineError {
    fn from(e: StoreError) -> Self {
        EngineError::Store(e)
    }
}

/// Engine configuration. Predicates are code, so the config is built at
/// startup and re-supplied identically on restore (only *state* is
/// checkpointed).
pub struct EngineConfig {
    /// The episode detectors: `(P_ep, A'_traj)` pairs applied to every
    /// visit (Def. 3.4).
    pub predicates: Vec<(IntervalPredicate, AnnotationSet)>,
    /// Hash partitions.
    pub shards: usize,
    /// Per-shard inbox size before events are applied in a batch.
    pub batch_capacity: usize,
    /// Drop zero-duration detections on arrival (§4.1's ~10% errors).
    pub drop_instantaneous: bool,
    /// How long after a visit closes its late events are still fenced.
    /// The fence is *event-time deterministic*: an event timestamped at
    /// or before `close + allowed_lateness` is rejected (`after_close`),
    /// one beyond it retires the fence and re-opens the visit
    /// implicitly — a pure function of the visit's own history, so the
    /// decision cannot depend on shard batching or worker scheduling
    /// (what keeps the work-stealing runtime bit-identical to the
    /// sequential one under arbitrary interleavings).
    pub allowed_lateness: Duration,
    /// Per-shard cap on remembered close fences — a memory-protection
    /// valve, not a semantic knob. Past it, fences with the smallest
    /// close instants are evicted; stragglers for an evicted visit
    /// re-open implicitly, the same outcome an expired fence produces.
    /// Below the cap, fencing is exactly identical across runtimes
    /// (the differential tests' regime). Above it, the *surviving set*
    /// still agrees at every barrier (both engines keep the
    /// cap-largest close instants), but eviction *timing* differs —
    /// the sequential engine evicts at each close, the work-stealing
    /// engine at its sweep points — so a straggler racing an eviction
    /// may be judged fenced by one runtime and re-opened by the other.
    /// Size the cap above the realistic straggler horizon.
    pub fence_capacity: usize,
    /// Retain each open visit's accepted intervals (in memory and in
    /// checkpoints) so live queries can see its trajectory prefix. Off by
    /// default: retention costs memory proportional to open-visit trace
    /// length.
    pub retain_intervals: bool,
    /// Retain each *closed* visit's completed trajectory (in memory and
    /// in checkpoints) until a warehouse flush takes it
    /// (`take_finished`). Implies interval retention — the trajectory is
    /// assembled from the retained intervals at close. Off by default;
    /// the memory a retained backlog costs is exactly what
    /// [`crate::Flusher`] exists to bound.
    pub retain_finished: bool,
    /// Backpressure depth of the parallel engine (`ParallelEngine`), in
    /// batches per worker: producers block once
    /// `channel_depth × batch_capacity × workers` events are queued in
    /// the work-stealing scheduler. Ignored by the sequential engine.
    pub channel_depth: usize,
    /// Where the engine's `engine.*` instruments live (events
    /// ingested/fenced, route-vs-steal counts, queue-depth gauges).
    /// Defaults to the process-global registry; a server injects its
    /// own so one pipeline's counters stay isolated.
    pub metrics: MetricsRegistry,
}

impl EngineConfig {
    /// A config with the given predicates and defaults for the rest
    /// (8 shards, 128-event batches, no filtering).
    pub fn new(predicates: Vec<(IntervalPredicate, AnnotationSet)>) -> Self {
        EngineConfig {
            predicates,
            shards: 8,
            batch_capacity: 128,
            drop_instantaneous: false,
            allowed_lateness: Duration::hours(24),
            fence_capacity: 65_536,
            retain_intervals: false,
            retain_finished: false,
            channel_depth: 64,
            metrics: MetricsRegistry::global().clone(),
        }
    }

    /// The per-shard apply context this configuration induces.
    pub(crate) fn ctx(&self) -> ShardCtx<'_> {
        ShardCtx {
            predicates: &self.predicates,
            drop_instantaneous: self.drop_instantaneous,
            batch_capacity: self.batch_capacity,
            allowed_lateness: self.allowed_lateness,
            fence_capacity: self.fence_capacity,
            retain_intervals: self.retain_intervals || self.retain_finished,
            retain_finished: self.retain_finished,
        }
    }

    /// Overrides the shard count.
    #[must_use]
    pub fn with_shards(mut self, shards: usize) -> Self {
        self.shards = shards;
        self
    }

    /// Overrides the inbox capacity.
    #[must_use]
    pub fn with_batch_capacity(mut self, capacity: usize) -> Self {
        self.batch_capacity = capacity;
        self
    }

    /// Enables the zero-duration filter.
    #[must_use]
    pub fn dropping_instantaneous(mut self) -> Self {
        self.drop_instantaneous = true;
        self
    }

    /// Overrides how long closed visits fence their late events.
    #[must_use]
    pub fn with_allowed_lateness(mut self, lateness: Duration) -> Self {
        self.allowed_lateness = lateness;
        self
    }

    /// Overrides the per-shard cap on remembered close fences.
    #[must_use]
    pub fn with_fence_capacity(mut self, capacity: usize) -> Self {
        self.fence_capacity = capacity;
        self
    }

    /// Enables live queries: open visits retain their accepted intervals
    /// so `live_snapshot` can expose each one's trajectory prefix.
    #[must_use]
    pub fn with_live_queries(mut self) -> Self {
        self.retain_intervals = true;
        self
    }

    /// Enables the warehouse drain: closed visits retain their completed
    /// trajectory until `take_finished` (normally driven by a
    /// [`crate::Flusher`]) spills them into the segment tier. Implies
    /// live-query interval retention.
    #[must_use]
    pub fn with_warehouse(mut self) -> Self {
        self.retain_intervals = true;
        self.retain_finished = true;
        self
    }

    /// Overrides the parallel engine's backpressure depth (batches per
    /// worker).
    #[must_use]
    pub fn with_channel_depth(mut self, depth: usize) -> Self {
        self.channel_depth = depth;
        self
    }

    /// Points the engine's `engine.*` instruments at `registry` instead
    /// of the process-global default.
    #[must_use]
    pub fn with_metrics(mut self, registry: MetricsRegistry) -> Self {
        self.metrics = registry;
        self
    }
}

/// Sequential-engine instrument handles, resolved once at construction
/// so the per-event path pays a single relaxed atomic add.
struct EngineMetrics {
    events_ingested: Arc<Counter>,
    events_fenced: Arc<Counter>,
    /// Fence rejections already published to the counter — deltas are
    /// published at each flush, so a restore (whose shard stats carry
    /// history) never double-counts.
    published_fenced: u64,
}

impl EngineMetrics {
    fn bind(registry: &MetricsRegistry, published_fenced: u64) -> EngineMetrics {
        EngineMetrics {
            events_ingested: registry.counter("engine.events_ingested"),
            events_fenced: registry.counter("engine.events_fenced"),
            published_fenced,
        }
    }
}

/// Aggregated engine counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct EngineStats {
    /// Events applied across shards.
    pub events: u64,
    /// Presence intervals accepted.
    pub presences: u64,
    /// Raw fixes applied.
    pub fixes: u64,
    /// Visits opened.
    pub visits_opened: u64,
    /// Visits closed.
    pub visits_closed: u64,
    /// Episodes finalized.
    pub episodes: u64,
    /// Inbox flushes.
    pub batches_flushed: u64,
    /// Visits currently resident.
    pub open_visits: u64,
    /// Rejected/adapted events.
    pub anomalies: Anomalies,
}

impl EngineStats {
    /// Folds one shard's counters (plus its open-visit census) in — the
    /// single aggregation point for both engines, so a counter added to
    /// [`ShardStats`] cannot silently diverge between them.
    pub fn absorb_shard(&mut self, shard: &ShardStats, open_visits: u64) {
        self.events += shard.events;
        self.presences += shard.presences;
        self.fixes += shard.fixes;
        self.visits_opened += shard.visits_opened;
        self.visits_closed += shard.visits_closed;
        self.episodes += shard.episodes;
        self.batches_flushed += shard.batches_flushed;
        self.anomalies.absorb(&shard.anomalies);
        self.open_visits += open_visits;
    }
}

/// Hash-sharded online trajectory-ingestion engine.
pub struct ShardedEngine {
    config: EngineConfig,
    shards: Vec<Shard>,
    sequence: u64,
    metrics: EngineMetrics,
    /// Advances whenever the queryable live state may have changed
    /// (see [`ShardedEngine::epoch`]).
    epoch: u64,
    /// Mutations since the epoch was last stamped.
    dirty: bool,
    /// The live snapshot memoized for `epoch` — shared, so concurrent
    /// readers clone an `Arc` instead of re-cutting the live state.
    snapshot_cache: Option<(u64, Arc<LiveSnapshot>)>,
}

/// Reconciles a restored snapshot with the configuration's retention
/// setting: with retention off, a prefix checkpointed by a retaining
/// config would otherwise survive restore *frozen* — never extended by
/// `feed`, yet served by `live_trajectory` as the visit's current
/// state. Dropping it makes the visit honestly unqueryable instead.
pub(crate) fn reconcile_retention(
    snapshot: &mut crate::shard::ShardSnapshot,
    config: &EngineConfig,
) {
    if !config.retain_intervals && !config.retain_finished {
        for (_, visit) in &mut snapshot.visits {
            visit.intervals.clear();
        }
    }
    // A finished backlog checkpointed by a warehouse-draining config
    // restoring into a non-draining one: nothing will ever take it, so
    // drop it rather than hold it forever.
    if !config.retain_finished {
        snapshot.finished.clear();
    }
}

/// FNV-1a over the visit key: stable across runs and platforms, so a
/// given visit always lands on the same shard. The hash is the shared
/// [`sitm_store::fnv1a`] — the same function the warehouse Bloom
/// filters probe with — so the routing constants cannot drift from the
/// rest of the stack.
pub(crate) fn shard_of(visit: VisitKey, shards: usize) -> usize {
    (sitm_store::fnv1a(&visit.0.to_le_bytes()) % shards as u64) as usize
}

impl ShardedEngine {
    /// Builds an engine from a configuration.
    pub fn new(config: EngineConfig) -> Result<Self, EngineError> {
        if config.shards == 0 {
            return Err(EngineError::ZeroShards);
        }
        let shards = (0..config.shards).map(|_| Shard::new()).collect();
        let metrics = EngineMetrics::bind(&config.metrics, 0);
        Ok(ShardedEngine {
            config,
            shards,
            sequence: 0,
            metrics,
            epoch: 0,
            dirty: false,
            snapshot_cache: None,
        })
    }

    /// The configuration in force.
    pub fn config(&self) -> &EngineConfig {
        &self.config
    }

    /// Raises the checkpoint sequence counter to at least `sequence`.
    ///
    /// Recovery calls this with the highest sequence present in the log —
    /// including torn checkpoints that were *not* restored — so the next
    /// checkpoint never reuses a sequence number whose stale frames would
    /// make it look incomplete (or duplicated) to a later recovery.
    pub fn advance_sequence_to(&mut self, sequence: u64) {
        self.sequence = self.sequence.max(sequence);
    }

    /// Routes one event to its shard.
    pub fn ingest(&mut self, event: StreamEvent) {
        self.dirty = true;
        let shard = shard_of(event.visit(), self.config.shards);
        self.shards[shard].enqueue(event, &self.config.ctx());
        self.metrics.events_ingested.inc();
    }

    /// Ingests a whole feed.
    pub fn ingest_all<I: IntoIterator<Item = StreamEvent>>(&mut self, events: I) {
        for event in events {
            self.ingest(event);
        }
    }

    /// Applies every buffered event now.
    pub fn flush(&mut self) {
        let ctx = self.config.ctx();
        for shard in &mut self.shards {
            shard.flush(&ctx);
        }
        // Publish the fence-rejection delta since the last flush.
        let fenced: u64 = self
            .shards
            .iter()
            .map(|s| s.stats().anomalies.after_close)
            .sum();
        let delta = fenced.saturating_sub(self.metrics.published_fenced);
        if delta > 0 {
            self.metrics.events_fenced.add(delta);
            self.metrics.published_fenced = fenced;
        }
    }

    /// Flushes, then returns every episode finalized since the last drain,
    /// in deterministic global order.
    pub fn drain(&mut self) -> Vec<EmittedEpisode> {
        self.flush();
        let mut out: Vec<EmittedEpisode> = Vec::new();
        for shard in &mut self.shards {
            out.extend(shard.take_pending());
        }
        out.sort_by_key(|a| a.sort_key());
        out
    }

    /// Flushes, then clones the episodes a [`ShardedEngine::drain`]
    /// would return now, in the same order, without taking them. The
    /// pool is not part of a [`LiveSnapshot`]; this is how a caller
    /// reads it at a snapshot's cut.
    pub fn pending_episodes(&mut self) -> Vec<EmittedEpisode> {
        self.flush();
        let mut out: Vec<EmittedEpisode> = self
            .shards
            .iter()
            .flat_map(|shard| shard.pending().iter().cloned())
            .collect();
        out.sort_by_key(|a| a.sort_key());
        out
    }

    /// Returns drained episodes to the pending pool (the undo of
    /// [`ShardedEngine::drain`] for deltas that could not be delivered);
    /// the next drain re-emits them in the usual deterministic order.
    pub fn requeue_pending(&mut self, episodes: Vec<EmittedEpisode>) {
        let shards = self.config.shards;
        for episode in episodes {
            let shard = shard_of(episode.visit, shards);
            self.shards[shard].requeue_pending(episode);
        }
    }

    /// End-of-stream: closes every open visit, then drains.
    pub fn finish(&mut self) -> Vec<EmittedEpisode> {
        self.dirty = true;
        self.flush();
        let ctx = self.config.ctx();
        for shard in &mut self.shards {
            shard.close_all(&ctx);
        }
        self.drain()
    }

    /// Flushes, then takes every visit trajectory completed since the
    /// last take, in deterministic global order (span start, span end,
    /// encoded bytes — [`sitm_store::sort_run`]'s canonical order, so
    /// both runtimes and any shard count hand a warehouse flusher the
    /// identical batch). Empty unless
    /// [`EngineConfig::with_warehouse`] is on. The exactly-once
    /// contract mirrors `drain`'s: trajectories taken before a
    /// checkpoint are never re-emitted after restore, untaken ones
    /// reappear.
    pub fn take_finished(&mut self) -> Vec<sitm_core::SemanticTrajectory> {
        self.flush();
        let mut out: Vec<sitm_core::SemanticTrajectory> = Vec::new();
        for shard in &mut self.shards {
            out.extend(shard.take_finished().into_iter().map(|(_, t)| t));
        }
        sitm_store::sort_run(&mut out);
        out
    }

    /// The engine's state epoch: advances whenever the queryable live
    /// state may have changed since the last stamp (an ingest, a
    /// finish, a restore). Draining and requeueing episodes leave it
    /// alone: the pending pool is not snapshot-visible. Stamping is a barrier-free
    /// bookkeeping step — the counter is what keys the snapshot cache
    /// and what push subscribers see on notifications.
    pub fn epoch(&mut self) -> u64 {
        if self.dirty {
            self.epoch += 1;
            self.dirty = false;
            self.snapshot_cache = None;
        }
        self.epoch
    }

    /// A snapshot-consistent cut of the live state: every open visit's
    /// trajectory prefix (requires
    /// [`EngineConfig::with_live_queries`]) and the live index. The
    /// undrained episodes are not copied (see
    /// [`ShardedEngine::pending_episodes`]). See [`crate::live_query`]
    /// for the consistency model and the query surface.
    ///
    /// The cut is **epoch-cached**: while nothing mutates the engine,
    /// repeated calls share one [`Arc`]'d snapshot instead of re-cutting
    /// (and re-cloning) the live state per call. Any ingest invalidates
    /// the cache.
    pub fn live_snapshot(&mut self) -> Arc<LiveSnapshot> {
        self.live_snapshot_cached().0
    }

    /// [`ShardedEngine::live_snapshot`], also reporting whether the cut
    /// was served from the epoch cache (`true` = cache hit).
    pub fn live_snapshot_cached(&mut self) -> (Arc<LiveSnapshot>, bool) {
        let epoch = self.epoch();
        if let Some((cached_epoch, snapshot)) = &self.snapshot_cache {
            if *cached_epoch == epoch {
                return (Arc::clone(snapshot), true);
            }
        }
        let _rebuild = sitm_obs::trace::child_detail("snapshot_rebuild");
        self.flush();
        let snapshot = Arc::new(LiveSnapshot::from_shards(
            self.shards.iter().map(Shard::live_state).collect(),
        ));
        self.snapshot_cache = Some((epoch, Arc::clone(&snapshot)));
        (snapshot, false)
    }

    /// The engine watermark: the *minimum* of the per-shard high-water
    /// marks, i.e. the instant up to which every shard has seen its
    /// events. A shard that has never received an event has trivially
    /// seen all of them and does not hold the watermark back; `None`
    /// only until the first event is applied anywhere.
    pub fn watermark(&self) -> Option<Timestamp> {
        self.shards
            .iter()
            .filter_map(|shard| shard.watermark())
            .min()
    }

    /// Aggregated counters.
    pub fn stats(&self) -> EngineStats {
        let mut stats = EngineStats::default();
        for shard in &self.shards {
            stats.absorb_shard(shard.stats(), shard.open_visits() as u64);
        }
        stats
    }

    /// Persists a consistent snapshot of every shard into `log` (one
    /// [`CheckpointFrame`] per shard sharing a fresh sequence number),
    /// then fsyncs. Returns the sequence.
    ///
    /// Pending (finalized but undrained) episodes are included, so the
    /// recovery contract is exactly-once relative to `drain`: episodes
    /// drained before the checkpoint are never re-emitted, episodes not
    /// yet drained reappear after restore.
    pub fn checkpoint(&mut self, log: &mut LogStore<CheckpointFrame>) -> Result<u64, EngineError> {
        let frames = self.checkpoint_frames();
        let sequence = frames[0].sequence;
        crate::checkpoint::append_and_sync(log, &frames)?;
        Ok(sequence)
    }

    /// Flushes and captures one complete checkpoint as frames (one per
    /// shard, sharing a fresh sequence), without touching a log. The
    /// building block behind [`ShardedEngine::checkpoint`] and
    /// [`crate::Checkpointer::commit`]'s compacting commit path.
    pub fn checkpoint_frames(&mut self) -> Vec<CheckpointFrame> {
        self.flush();
        self.sequence += 1;
        let sequence = self.sequence;
        self.shards
            .iter()
            .enumerate()
            .map(|(i, shard)| CheckpointFrame {
                sequence,
                shard: i as u32,
                shard_count: self.config.shards as u32,
                payload: encode_shard(&shard.snapshot(), self.config.predicates.len()),
            })
            .collect()
    }

    /// Checkpoints through a [`crate::Checkpointer`], which appends or
    /// compacts per its [`sitm_store::CompactionPolicy`] so the log stays
    /// bounded. Returns the sequence.
    pub fn checkpoint_into(
        &mut self,
        checkpointer: &mut crate::Checkpointer,
    ) -> Result<u64, EngineError> {
        let frames = self.checkpoint_frames();
        let sequence = frames[0].sequence;
        checkpointer.commit(frames)?;
        Ok(sequence)
    }

    /// Rebuilds an engine from the frames of one complete checkpoint
    /// (ordered by shard, as `latest_complete_checkpoint` returns them).
    /// The configuration must match the one the checkpoint was taken
    /// under.
    pub fn restore(config: EngineConfig, frames: &[&CheckpointFrame]) -> Result<Self, EngineError> {
        if config.shards == 0 {
            return Err(EngineError::ZeroShards);
        }
        let (shards, sequence) = crate::checkpoint::decode_checkpoint(&config, frames)?;
        // Restored shard stats carry pre-checkpoint history; start the
        // published watermark there so restore never re-counts it.
        let published_fenced = shards
            .iter()
            .map(|s: &Shard| s.stats().anomalies.after_close)
            .sum();
        let metrics = EngineMetrics::bind(&config.metrics, published_fenced);
        Ok(ShardedEngine {
            config,
            shards,
            sequence,
            metrics,
            epoch: 0,
            dirty: false,
            snapshot_cache: None,
        })
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

    fn config(shards: usize) -> EngineConfig {
        EngineConfig::new(vec![
            (IntervalPredicate::in_cells([cell(1)]), label("one")),
            (IntervalPredicate::any(), label("whole")),
        ])
        .with_shards(shards)
        .with_batch_capacity(4)
    }

    fn feed() -> Vec<StreamEvent> {
        let mut events = Vec::new();
        for v in 0..6u64 {
            let base = v as i64 * 10;
            events.push(StreamEvent::VisitOpened {
                visit: VisitKey(v),
                moving_object: format!("mo-{v}"),
                annotations: label("visit"),
                at: Timestamp(base),
            });
            for (i, c) in [1usize, 0, 1].iter().enumerate() {
                events.push(StreamEvent::Presence {
                    visit: VisitKey(v),
                    interval: PresenceInterval::new(
                        TransitionTaken::Unknown,
                        cell(*c),
                        Timestamp(base + i as i64 * 100),
                        Timestamp(base + i as i64 * 100 + 50),
                    ),
                });
            }
            events.push(StreamEvent::VisitClosed {
                visit: VisitKey(v),
                at: Timestamp(base + 250),
            });
        }
        crate::event::sort_feed(&mut events);
        events
    }

    #[test]
    fn shard_count_does_not_change_output() {
        let mut reference: Option<Vec<EmittedEpisode>> = None;
        for shards in [1usize, 2, 8] {
            let mut engine = ShardedEngine::new(config(shards)).unwrap();
            engine.ingest_all(feed());
            let episodes = engine.finish();
            match &reference {
                None => reference = Some(episodes),
                Some(expected) => assert_eq!(&episodes, expected, "{shards} shards"),
            }
        }
        let reference = reference.unwrap();
        // 6 visits × (2 'one' runs + 1 'whole' run) each.
        assert_eq!(reference.len(), 18);
    }

    #[test]
    fn drain_is_incremental_and_non_duplicating() {
        let mut engine = ShardedEngine::new(config(2)).unwrap();
        let events = feed();
        let mid = events.len() / 2;
        engine.ingest_all(events[..mid].to_vec());
        let first = engine.drain();
        engine.ingest_all(events[mid..].to_vec());
        let mut rest = engine.finish();
        let mut all = first;
        all.append(&mut rest);
        all.sort_by_key(|a| a.sort_key());

        let mut oneshot = ShardedEngine::new(config(2)).unwrap();
        oneshot.ingest_all(events);
        assert_eq!(all, oneshot.finish());
    }

    #[test]
    fn stats_and_watermark_track_the_stream() {
        let mut engine = ShardedEngine::new(config(1)).unwrap();
        engine.ingest_all(feed());
        engine.flush();
        let stats = engine.stats();
        assert_eq!(stats.visits_opened, 6);
        assert_eq!(stats.visits_closed, 6);
        assert_eq!(stats.presences, 18);
        assert_eq!(stats.anomalies.total(), 0);
        assert_eq!(engine.watermark(), Some(Timestamp(300)));
        assert_eq!(engine.stats().open_visits, 0);
    }

    #[test]
    fn watermark_ignores_shards_with_no_events() {
        // 6 visits over 8 shards: some shards never see an event, but the
        // watermark must still advance.
        let mut engine = ShardedEngine::new(config(8)).unwrap();
        assert_eq!(engine.watermark(), None, "nothing ingested yet");
        engine.ingest_all(feed());
        engine.flush();
        // The slowest *populated* shard has at least reached its own last
        // visit close (v=0 closes at t=250); empty shards don't pin the
        // watermark to None.
        assert!(engine.watermark() >= Some(Timestamp(250)));
    }

    #[test]
    fn zero_shards_is_rejected() {
        assert!(matches!(
            ShardedEngine::new(config(0)),
            Err(EngineError::ZeroShards)
        ));
    }
}
