//! The work-stealing parallel runtime.
//!
//! [`ParallelEngine`] runs N worker threads over a shared scheduler of
//! **visits**, not static hash partitions. Events queue per visit;
//! ready visits sit in bounded per-worker deques; a worker that runs
//! dry *steals a whole cold visit* from the back of the busiest other
//! deque. This replaces the previous thread-per-shard channel router,
//! whose static `hash(visit) → worker` placement collapsed to
//! single-worker throughput whenever one shard went hot (the
//! single-hot-shard skew case the differential tests pin down).
//!
//! ## Why stealing cannot reorder anything
//!
//! Correctness rests on **visit-affinity pinning**: a visit's events
//! live in that visit's own FIFO queue, the visit appears in at most
//! one deque at a time, and it is *held* by at most one worker while
//! its queued events are applied. Stealing moves whole **cold** visits
//! — visits that are queued but not held, so none of their events are
//! mid-application anywhere. A visit's history is therefore applied in
//! arrival order by a single worker at a time, which is exactly the
//! per-visit ordering guarantee the sequential engine provides; thread
//! interleavings remain invisible in the output (property-tested in
//! `tests/parallel_equivalence.rs` for 1/2/4/8 workers, shuffled feeds,
//! skewed feeds, and crash/restore mid-stream).
//!
//! ## Design
//!
//! * **Routing** — the caller's thread buffers events and pushes them
//!   to the scheduler one batch ([`EngineConfig::batch_capacity`]) per
//!   lock acquisition; a newly ready visit lands on its *home* worker's
//!   deque (initially `hash(visit)`, migrating with each steal).
//! * **Backpressure** — total queued events are bounded at
//!   `channel_depth × batch_capacity × workers`; a producer outrunning
//!   the workers blocks instead of ballooning memory.
//! * **Sharded deposits** — what a slice *produces* (counters, drained
//!   episodes, finished trajectories, watermark advances) lands in the
//!   depositing worker's own `Deposit` behind its own lock, and
//!   live-index maintenance rides a dedicated index lock; the scheduler
//!   mutex guards only *routing* state (visit cells, deques, fences).
//!   Workers therefore contend on the scheduler lock only to acquire
//!   and release visits, never to record results — the deposit path
//!   that used to serialize every worker through the one big mutex
//!   (ROADMAP perf follow-on from the work-stealing rewrite). Barriers
//!   merge the per-worker deposits after quiescing; merge order is
//!   worker index, and every consumer sorts by a deterministic global
//!   key, so the sharding is invisible in the output.
//! * **Barriers** — `flush`/`drain`/`take_finished`/`finish`/
//!   `checkpoint`/`live_snapshot`/`stats` quiesce: they push the router
//!   buffer, then wait until every queued event is applied and
//!   deposited. A barrier therefore reflects exactly the events
//!   ingested before the call — the same consistent cut the sequential
//!   engine gets from its in-line flush (see [`crate::live_query`]).
//! * **Sequential-equivalent accounting** — watermarks are still kept
//!   per *hash shard* (the `config.shards` partitions the sequential
//!   engine would use), so `watermark()` and checkpoint frames are
//!   byte-compatible with [`ShardedEngine`]: checkpoints written by
//!   either engine restore into the other.
//! * **Live index** — with retention on, workers feed the shared
//!   [`crate::LiveIndex`] (its own lock, taken while the visit is still
//!   held so per-visit op order is preserved) as part of each deposit,
//!   so `live_snapshot()` carries postings from the same cut as the
//!   visible prefixes.
//!
//! Lock order: a worker never holds two of {scheduler, index, deposit}
//! at once; the engine thread may take index or a deposit *while*
//! holding the scheduler (barriers and `finish`), which cannot cycle
//! because workers only ever block on the scheduler empty-handed.
//!
//! A worker that panics marks the scheduler; subsequent engine calls
//! panic with a clear message rather than silently dropping data.
//!
//! [`ShardedEngine`]: crate::ShardedEngine

use std::collections::{BTreeSet, HashMap, VecDeque};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::thread::JoinHandle;

use sitm_core::{Episode, SemanticTrajectory, Timestamp};
use sitm_store::{CheckpointFrame, LogStore};

use crate::checkpoint::{encode_shard, Checkpointer};
use crate::engine::{shard_of, EngineConfig, EngineError, EngineStats};
use crate::event::{StreamEvent, VisitKey};
use crate::live_index::LiveIndex;
use crate::live_query::{LiveSnapshot, LiveVisit, ShardLive};
use crate::shard::{EmittedEpisode, ShardSnapshot, ShardStats};
use crate::visit::VisitState;

/// One visit's slot in the scheduler.
struct VisitCell {
    /// Events pushed but not yet applied, in arrival order.
    queue: VecDeque<StreamEvent>,
    /// Open-visit state (`None` before open / after close).
    state: Option<VisitState>,
    /// Close instant, while the late-event fence is alive.
    closed_at: Option<Timestamp>,
    /// The worker whose deque this visit rides — `hash(visit)` at
    /// birth, then wherever it was last stolen to (affinity pinning).
    home: usize,
    /// Present in `home`'s deque.
    queued: bool,
    /// Currently being applied by a worker.
    held: bool,
}

impl VisitCell {
    fn new(home: usize) -> VisitCell {
        VisitCell {
            queue: VecDeque::new(),
            state: None,
            closed_at: None,
            home,
            queued: false,
            held: false,
        }
    }
}

/// The shared scheduler: visit cells, per-worker ready deques, and the
/// fence bookkeeping — *routing* state only. What slices produce goes
/// to the per-worker [`Deposit`]s instead.
struct Scheduler {
    visits: HashMap<u64, VisitCell>,
    /// Ready visits per worker; stealing pops the back of a victim.
    deques: Vec<VecDeque<u64>>,
    /// Events sitting in visit queues (backpressure + quiesce).
    queued_events: usize,
    /// Visits currently held by workers (quiesce).
    held_visits: usize,
    shutdown: bool,
    /// A worker died mid-slice; engine state is no longer trustworthy.
    panicked: bool,
    /// Live close fences per hash shard, ordered by close instant —
    /// the incremental twin of the sequential shard's `closed_order`,
    /// so capacity eviction is O(log n) per close, never a sweep.
    fences: Vec<BTreeSet<(Timestamp, u64)>>,
}

impl Scheduler {
    fn new(workers: usize, shards: usize) -> Scheduler {
        Scheduler {
            visits: HashMap::new(),
            deques: (0..workers).map(|_| VecDeque::new()).collect(),
            queued_events: 0,
            held_visits: 0,
            shutdown: false,
            panicked: false,
            fences: vec![BTreeSet::new(); shards],
        }
    }

    /// All pushed events applied and deposited?
    fn quiesced(&self) -> bool {
        self.queued_events == 0 && self.held_visits == 0
    }

    /// Next visit for `worker`: its own deque front, else a whole cold
    /// visit stolen from the back of the longest other deque. Returns
    /// the deque the visit came from so the caller can attribute
    /// route-vs-steal and refresh that queue's depth gauge.
    fn next_for(&mut self, worker: usize) -> Option<(u64, usize)> {
        if let Some(key) = self.deques[worker].pop_front() {
            return Some((key, worker));
        }
        let victim = (0..self.deques.len())
            .filter(|&i| i != worker && !self.deques[i].is_empty())
            .max_by_key(|&i| self.deques[i].len())?;
        self.deques[victim].pop_back().map(|key| (key, victim))
    }

    /// Settles one visit cell's bookkeeping after a slice (or a
    /// synthesized close): records fence transitions in the per-shard
    /// ordered set, drops dead cells on the spot, and enforces the
    /// fence capacity by evicting the smallest close instants — O(log
    /// n) per close like the sequential shard's `closed_order` bound,
    /// never a stop-the-world sweep. Fencing itself is event-time
    /// deterministic, so reclamation below the cap is behaviorally
    /// invisible; above it, eviction timing is the documented
    /// divergence window of [`EngineConfig::fence_capacity`].
    fn settle_cell(
        &mut self,
        key: u64,
        shard: usize,
        was_fence: Option<Timestamp>,
        capacity: usize,
    ) {
        let Some(cell) = self.visits.get(&key) else {
            return;
        };
        let now_fence = cell.closed_at;
        let active = cell.held || cell.queued || !cell.queue.is_empty() || cell.state.is_some();
        if was_fence != now_fence {
            if let Some(at) = was_fence {
                self.fences[shard].remove(&(at, key));
            }
            if let Some(at) = now_fence {
                self.fences[shard].insert((at, key));
            }
        }
        if !active && now_fence.is_none() {
            // Dead cell: a close for a never-opened visit, or a fence
            // retired with nothing queued behind it.
            self.visits.remove(&key);
            return;
        }
        // Capacity eviction, oldest close first. A held cell's fence is
        // skipped (its value is mid-application); the overshoot is
        // bounded by the worker count.
        while self.fences[shard].len() > capacity {
            let victim = self.fences[shard]
                .iter()
                .copied()
                .find(|&(_, k)| self.visits.get(&k).is_none_or(|c| !c.held));
            let Some((at, k)) = victim else {
                break;
            };
            self.fences[shard].remove(&(at, k));
            if let Some(cell) = self.visits.get_mut(&k) {
                // Evicted: stragglers will re-open implicitly, the same
                // outcome an expired fence produces.
                cell.closed_at = None;
                if cell.state.is_none() && !cell.queued && cell.queue.is_empty() {
                    self.visits.remove(&k);
                }
            }
        }
    }
}

/// One worker's private accumulator: everything its slices produce.
/// Merged (in worker order, then deterministically sorted by every
/// consumer) at barriers.
#[derive(Default)]
struct Deposit {
    /// Per-slice counter deltas, summed.
    stats: ShardStats,
    /// Episodes finalized but not yet drained.
    pending: Vec<EmittedEpisode>,
    /// Completed trajectories not yet taken by the warehouse drain.
    finished: Vec<(u64, SemanticTrajectory)>,
    /// Running high-water mark per *hash shard* (monotonic; merged by
    /// per-slot max across deposits).
    shard_watermarks: Vec<Option<Timestamp>>,
}

impl Deposit {
    fn new(shards: usize) -> Deposit {
        Deposit {
            shard_watermarks: vec![None; shards],
            ..Deposit::default()
        }
    }
}

/// Work-stealing-engine instrument handles (`engine.*` metric names),
/// resolved once at spawn so workers pay relaxed atomics only.
struct ParallelMetrics {
    events_ingested: Arc<sitm_obs::Counter>,
    events_fenced: Arc<sitm_obs::Counter>,
    visits_routed: Arc<sitm_obs::Counter>,
    visits_stolen: Arc<sitm_obs::Counter>,
    /// Ready-deque depth per worker.
    queue_depth: Vec<Arc<sitm_obs::Gauge>>,
    /// Episodes finalized but not yet drained. Without a subscriber
    /// nothing drains the pool, so this climbs with every episode
    /// emitted — the gauge makes that growth visible.
    pending_episodes: Arc<sitm_obs::Gauge>,
}

impl ParallelMetrics {
    fn bind(registry: &sitm_obs::MetricsRegistry, workers: usize) -> ParallelMetrics {
        ParallelMetrics {
            events_ingested: registry.counter("engine.events_ingested"),
            events_fenced: registry.counter("engine.events_fenced"),
            visits_routed: registry.counter("engine.visits_routed"),
            visits_stolen: registry.counter("engine.visits_stolen"),
            queue_depth: (0..workers)
                .map(|i| registry.gauge(&format!("engine.queue_depth.w{i}")))
                .collect(),
            pending_episodes: registry.gauge("engine.pending_episodes"),
        }
    }
}

/// The scheduler plus the sharded deposit tier and its condition
/// variables.
struct Shared {
    state: Mutex<Scheduler>,
    /// Instrument handles shared by workers and the engine thread.
    metrics: ParallelMetrics,
    /// One deposit per worker — slice output lands here, off the
    /// scheduler lock.
    deposits: Vec<Mutex<Deposit>>,
    /// Online postings over open visits (retention on only). A
    /// dedicated lock: updated while the producing worker still holds
    /// the visit, so per-visit op order is preserved without riding the
    /// scheduler mutex.
    index: Mutex<LiveIndex>,
    /// Workers park here when no visit is ready.
    work: Condvar,
    /// The engine thread parks here (quiesce, backpressure).
    quiet: Condvar,
}

/// Locks a mutex, recovering from poison so `Drop` can always shut the
/// workers down (a panicked worker is surfaced via the `panicked` flag
/// instead).
fn lock<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex
        .lock()
        .unwrap_or_else(|poisoned| poisoned.into_inner())
}

/// A visit's state while a worker (or a barrier) applies events to it
/// outside the scheduler lock.
struct Resident {
    state: Option<VisitState>,
    closed_at: Option<Timestamp>,
}

/// Index maintenance recorded during a slice, applied to the shared
/// [`LiveIndex`] before the visit is released (same cut as the state it
/// indexes).
enum IndexOp {
    Observe {
        object: String,
        interval: sitm_core::PresenceInterval,
    },
    Remove,
}

/// Everything one application slice produced.
#[derive(Default)]
struct SliceOutput {
    stats: ShardStats,
    watermark: Option<Timestamp>,
    pending: Vec<EmittedEpisode>,
    finished: Vec<(u64, SemanticTrajectory)>,
    index_ops: Vec<IndexOp>,
}

impl SliceOutput {
    fn new() -> SliceOutput {
        SliceOutput::default()
    }
}

/// Applies one event to one visit — the per-visit core of
/// `Shard::apply`, kept behaviorally identical (the differential
/// property tests compare the two engines event for event): same
/// anomaly accounting, same implicit-open identity, same fence
/// semantics, same episode provenance, same finished-trajectory
/// retention.
fn apply_visit_event(
    key: u64,
    event: StreamEvent,
    resident: &mut Resident,
    ctx: &crate::shard::ShardCtx<'_>,
    scratch: &mut Vec<(usize, Episode)>,
    out: &mut SliceOutput,
) {
    out.stats.events += 1;
    let t = event.time();
    out.watermark = Some(out.watermark.map_or(t, |w| w.max(t)));
    if let Some(closed_at) = resident.closed_at {
        if t <= closed_at + ctx.allowed_lateness {
            out.stats.anomalies.after_close += 1;
            return;
        }
        // Past the lateness horizon of the close: retire the fence
        // (mirror of `Shard::apply`; the event falls through to the
        // normal open / implicit-open handling).
        resident.closed_at = None;
    }
    match event {
        StreamEvent::VisitOpened {
            moving_object,
            annotations,
            ..
        } => {
            if resident.state.is_some() {
                out.stats.anomalies.duplicate_opens += 1;
                return;
            }
            out.stats.visits_opened += 1;
            resident.state = Some(VisitState::new(
                moving_object,
                annotations,
                ctx,
                &mut out.stats.anomalies,
            ));
        }
        StreamEvent::Fix { cell, at, .. } => {
            out.stats.fixes += 1;
            ensure_open(key, resident, ctx, out);
            let state = resident.state.as_mut().expect("ensured above");
            let before = state.retained_intervals().len();
            state.apply_fix(cell, at, ctx, scratch, &mut out.stats.anomalies);
            record_accepted(state, before, ctx, out);
            collect_episodes(key, state, scratch, out);
        }
        StreamEvent::Presence { interval, .. } => {
            out.stats.presences += 1;
            ensure_open(key, resident, ctx, out);
            let state = resident.state.as_mut().expect("ensured above");
            let before = state.retained_intervals().len();
            state.apply_presence(interval, ctx, scratch, &mut out.stats.anomalies);
            record_accepted(state, before, ctx, out);
            collect_episodes(key, state, scratch, out);
        }
        StreamEvent::VisitClosed { at, .. } => {
            let Some(mut state) = resident.state.take() else {
                out.stats.anomalies.after_close += 1;
                return;
            };
            state.close(ctx, scratch, &mut out.stats.anomalies);
            if ctx.retain_finished {
                // Mirror of `Shard::apply`: the completed trajectory
                // heads for the warehouse tier.
                if let Some(trajectory) = state.live_trajectory() {
                    out.finished.push((key, trajectory));
                }
            }
            out.stats.visits_closed += 1;
            resident.closed_at = Some(at);
            if ctx.retain_intervals {
                out.index_ops.push(IndexOp::Remove);
            }
            collect_episodes(key, &state, scratch, out);
        }
    }
}

/// Mirror of `Shard::ensure_visit`: an observation for a visit never
/// opened adopts it with the same synthetic identity.
fn ensure_open(
    key: u64,
    resident: &mut Resident,
    ctx: &crate::shard::ShardCtx<'_>,
    out: &mut SliceOutput,
) {
    if resident.state.is_none() {
        out.stats.anomalies.implicit_opens += 1;
        out.stats.visits_opened += 1;
        resident.state = Some(VisitState::new(
            format!("implicit-{key}"),
            sitm_core::AnnotationSet::from_iter([sitm_core::Annotation::goal("streamed")]),
            ctx,
            &mut out.stats.anomalies,
        ));
    }
}

/// Queues live-index observations for the intervals this apply accepted
/// (visible as growth of the retained slice).
fn record_accepted(
    state: &VisitState,
    before: usize,
    ctx: &crate::shard::ShardCtx<'_>,
    out: &mut SliceOutput,
) {
    if !ctx.retain_intervals {
        return;
    }
    for interval in &state.retained_intervals()[before..] {
        out.index_ops.push(IndexOp::Observe {
            object: state.moving_object.clone(),
            interval: interval.clone(),
        });
    }
}

/// Mirror of `Shard::collect`.
fn collect_episodes(
    key: u64,
    state: &VisitState,
    scratch: &mut Vec<(usize, Episode)>,
    out: &mut SliceOutput,
) {
    if scratch.is_empty() {
        return;
    }
    let moving_object = state.moving_object.clone();
    for (predicate, episode) in scratch.drain(..) {
        out.stats.episodes += 1;
        out.pending.push(EmittedEpisode {
            visit: VisitKey(key),
            moving_object: moving_object.clone(),
            predicate,
            episode,
        });
    }
}

/// Applies a slice's index ops to the shared index. Must run while the
/// producing thread still holds the visit, so per-visit op order is
/// preserved across worker migrations.
fn apply_index_ops(index: &Mutex<LiveIndex>, key: u64, ops: Vec<IndexOp>) {
    if ops.is_empty() {
        return;
    }
    let mut index = lock(index);
    for op in ops {
        match op {
            IndexOp::Observe { object, interval } => index.observe(key, &object, &interval),
            IndexOp::Remove => index.remove(key),
        }
    }
}

/// Folds a slice's remaining output into a deposit, counting its
/// episodes into the pending-pool gauge.
fn absorb_into_deposit(
    deposit: &mut Deposit,
    key: u64,
    out: SliceOutput,
    shards: usize,
    pending_gauge: &sitm_obs::Gauge,
) {
    deposit.stats.absorb(&out.stats);
    if !out.pending.is_empty() {
        pending_gauge.add(out.pending.len() as i64);
    }
    deposit.pending.extend(out.pending);
    deposit.finished.extend(out.finished);
    if let Some(t) = out.watermark {
        let slot = &mut deposit.shard_watermarks[shard_of(VisitKey(key), shards)];
        *slot = Some(slot.map_or(t, |w| w.max(t)));
    }
}

/// The worker body: take a ready visit (own deque first, then steal a
/// cold one), apply its queued events outside every lock, publish the
/// results (index under the index lock, the rest into this worker's own
/// deposit), then re-enter the scheduler only for cell bookkeeping.
fn worker_loop(worker: usize, shared: &Shared, config: &EngineConfig) {
    let ctx = config.ctx();
    let mut scratch: Vec<(usize, Episode)> = Vec::new();
    let mut guard = lock(&shared.state);
    loop {
        if let Some((key, source)) = guard.next_for(worker) {
            shared.metrics.queue_depth[source].set(guard.deques[source].len() as i64);
            if source != worker {
                shared.metrics.visits_stolen.inc();
            }
            let events = {
                let cell = guard.visits.get_mut(&key).expect("queued visit has a cell");
                cell.queued = false;
                cell.held = true;
                cell.home = worker;
                std::mem::take(&mut cell.queue)
            };
            let mut resident = {
                let cell = guard.visits.get_mut(&key).expect("cell");
                Resident {
                    state: cell.state.take(),
                    closed_at: cell.closed_at,
                }
            };
            guard.queued_events -= events.len();
            guard.held_visits += 1;
            drop(guard);

            let mut out = SliceOutput::new();
            out.stats.batches_flushed = 1;
            for event in events {
                apply_visit_event(key, event, &mut resident, &ctx, &mut scratch, &mut out);
            }
            // Per-slice fence-rejection delta (slice outputs are fresh,
            // so this can never double-count restored history).
            if out.stats.anomalies.after_close > 0 {
                shared
                    .metrics
                    .events_fenced
                    .add(out.stats.anomalies.after_close);
            }

            // Publish while the visit is still held (it cannot be
            // re-acquired until `held` clears below): index first, then
            // this worker's deposit — neither touches the scheduler.
            apply_index_ops(&shared.index, key, std::mem::take(&mut out.index_ops));
            absorb_into_deposit(
                &mut lock(&shared.deposits[worker]),
                key,
                out,
                config.shards,
                &shared.metrics.pending_episodes,
            );

            guard = lock(&shared.state);
            let (requeue, was_fence) = {
                let cell = guard.visits.get_mut(&key).expect("held cell persists");
                let was_fence = cell.closed_at;
                cell.state = resident.state;
                cell.closed_at = resident.closed_at;
                cell.held = false;
                // Events that arrived while we held the visit: it is
                // cold again — back onto our own deque.
                let requeue = !cell.queue.is_empty() && {
                    cell.queued = true;
                    true
                };
                (requeue, was_fence)
            };
            if requeue {
                guard.deques[worker].push_back(key);
            }
            guard.held_visits -= 1;
            let shard = shard_of(VisitKey(key), config.shards);
            guard.settle_cell(key, shard, was_fence, config.fence_capacity.max(1));
            shared.quiet.notify_all();
        } else if guard.shutdown {
            break;
        } else {
            guard = shared
                .work
                .wait(guard)
                .unwrap_or_else(|poisoned| poisoned.into_inner());
        }
    }
}

/// Work-stealing online trajectory-ingestion engine: the same surface
/// and the same output as [`crate::ShardedEngine`], with visits applied
/// concurrently, rebalanced across workers under skew, and results
/// deposited through per-worker accumulators instead of one shared
/// mutex.
pub struct ParallelEngine {
    config: Arc<EngineConfig>,
    shared: Arc<Shared>,
    buffer: Vec<StreamEvent>,
    handles: Vec<JoinHandle<()>>,
    sequence: u64,
    /// Advances whenever the queryable live state may have changed
    /// (see [`ParallelEngine::epoch`]).
    epoch: u64,
    /// Mutations since the epoch was last stamped.
    dirty: bool,
    /// The live snapshot memoized for `epoch` — a cache hit skips the
    /// dispatch + quiesce barrier *and* the open-visit clone entirely.
    snapshot_cache: Option<(u64, Arc<LiveSnapshot>)>,
}

impl ParallelEngine {
    /// Builds an engine, spawning one worker thread per configured
    /// shard (`config.shards` doubles as the worker count, as it did
    /// for the channel router).
    pub fn new(config: EngineConfig) -> Result<Self, EngineError> {
        if config.shards == 0 {
            return Err(EngineError::ZeroShards);
        }
        Ok(Self::create(config))
    }

    /// Rebuilds an engine from the frames of one complete checkpoint
    /// (ordered by shard). The configuration must match the one the
    /// checkpoint was taken under — including interval retention, which
    /// is the operator's contract just like the predicate table.
    /// Checkpoints are runtime-portable: frames written by either
    /// engine restore into either (restored visits are seeded onto
    /// their hash shard's worker and rebalance from there).
    pub fn restore(config: EngineConfig, frames: &[&CheckpointFrame]) -> Result<Self, EngineError> {
        if config.shards == 0 {
            return Err(EngineError::ZeroShards);
        }
        let (shards, sequence) = crate::checkpoint::decode_checkpoint(&config, frames)?;
        let engine = Self::create(config);
        {
            let mut guard = lock(&engine.shared.state);
            let mut seed = lock(&engine.shared.deposits[0]);
            let mut index = lock(&engine.shared.index);
            for (i, shard) in shards.into_iter().enumerate() {
                let parts = shard.into_parts();
                seed.shard_watermarks[i] = parts.watermark;
                seed.stats.absorb(&parts.stats);
                engine
                    .shared
                    .metrics
                    .pending_episodes
                    .add(parts.pending.len() as i64);
                seed.pending.extend(parts.pending);
                seed.finished.extend(parts.finished);
                for (key, state) in parts.visits {
                    for interval in state.retained_intervals() {
                        index.observe(key, &state.moving_object, interval);
                    }
                    let mut cell = VisitCell::new(i);
                    cell.state = Some(state);
                    guard.visits.insert(key, cell);
                }
                for (key, at) in parts.closed {
                    let mut cell = VisitCell::new(i);
                    cell.closed_at = Some(at);
                    guard.visits.insert(key, cell);
                    guard.fences[i].insert((at, key));
                }
            }
        }
        let mut engine = engine;
        engine.sequence = sequence;
        Ok(engine)
    }

    fn create(config: EngineConfig) -> Self {
        let workers = config.shards;
        let config = Arc::new(config);
        let shared = Arc::new(Shared {
            state: Mutex::new(Scheduler::new(workers, config.shards)),
            metrics: ParallelMetrics::bind(&config.metrics, workers),
            deposits: (0..workers)
                .map(|_| Mutex::new(Deposit::new(config.shards)))
                .collect(),
            index: Mutex::new(LiveIndex::new()),
            work: Condvar::new(),
            quiet: Condvar::new(),
        });
        let handles = (0..workers)
            .map(|worker| {
                let shared = Arc::clone(&shared);
                let config = Arc::clone(&config);
                std::thread::Builder::new()
                    .name(format!("sitm-worker-{worker}"))
                    .spawn(move || {
                        let run = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                            worker_loop(worker, &shared, &config);
                        }));
                        if run.is_err() {
                            let mut guard = lock(&shared.state);
                            guard.panicked = true;
                            drop(guard);
                            shared.work.notify_all();
                            shared.quiet.notify_all();
                        }
                    })
                    .expect("spawn shard worker thread")
            })
            .collect();
        ParallelEngine {
            config,
            shared,
            buffer: Vec::new(),
            handles,
            sequence: 0,
            epoch: 0,
            dirty: false,
            snapshot_cache: None,
        }
    }

    /// The configuration in force.
    pub fn config(&self) -> &EngineConfig {
        &self.config
    }

    /// Worker threads running (one per shard).
    pub fn workers(&self) -> usize {
        self.handles.len()
    }

    /// Raises the checkpoint sequence counter to at least `sequence`
    /// (see [`crate::ShardedEngine::advance_sequence_to`]).
    pub fn advance_sequence_to(&mut self, sequence: u64) {
        self.sequence = self.sequence.max(sequence);
    }

    fn panic_if_worker_died(s: &Scheduler) {
        if s.panicked {
            panic!("shard worker died (panicked); engine state is lost");
        }
    }

    /// Routes one event toward the scheduler. Events are buffered on
    /// the caller's thread and handed over one batch per lock
    /// acquisition, so per-event cost here is one push.
    pub fn ingest(&mut self, event: StreamEvent) {
        self.dirty = true;
        self.buffer.push(event);
        if self.buffer.len() >= self.config.batch_capacity.max(1) {
            self.dispatch();
        }
    }

    /// Ingests a whole feed.
    pub fn ingest_all<I: IntoIterator<Item = StreamEvent>>(&mut self, events: I) {
        for event in events {
            self.ingest(event);
        }
    }

    /// Pushes the router buffer into the scheduler, blocking while the
    /// queued-event bound (`channel_depth × batch_capacity × workers`)
    /// is exceeded (backpressure).
    fn dispatch(&mut self) {
        if self.buffer.is_empty() {
            return;
        }
        let events = std::mem::take(&mut self.buffer);
        let workers = self.handles.len();
        let bound = self
            .config
            .channel_depth
            .max(1)
            .saturating_mul(self.config.batch_capacity.max(1))
            .saturating_mul(workers.max(1));
        let shards = self.config.shards;
        let mut guard = lock(&self.shared.state);
        while guard.queued_events >= bound {
            Self::panic_if_worker_died(&guard);
            guard = self
                .shared
                .quiet
                .wait(guard)
                .unwrap_or_else(|poisoned| poisoned.into_inner());
        }
        Self::panic_if_worker_died(&guard);
        let batch = events.len() as u64;
        let mut routed = 0u64;
        for event in events {
            let key = event.visit().0;
            let cell = guard
                .visits
                .entry(key)
                .or_insert_with(|| VisitCell::new(shard_of(VisitKey(key), shards) % workers));
            cell.queue.push_back(event);
            let ready = !cell.queued && !cell.held;
            let home = cell.home;
            if ready {
                cell.queued = true;
                guard.deques[home].push_back(key);
                routed += 1;
            }
            guard.queued_events += 1;
        }
        let metrics = &self.shared.metrics;
        metrics.events_ingested.add(batch);
        metrics.visits_routed.add(routed);
        for (gauge, deque) in metrics.queue_depth.iter().zip(&guard.deques) {
            gauge.set(deque.len() as i64);
        }
        drop(guard);
        self.shared.work.notify_all();
    }

    /// Waits until every pushed event is applied and deposited.
    fn quiesce(&self) -> MutexGuard<'_, Scheduler> {
        let mut guard = lock(&self.shared.state);
        loop {
            Self::panic_if_worker_died(&guard);
            if guard.quiesced() {
                return guard;
            }
            guard = self
                .shared
                .quiet
                .wait(guard)
                .unwrap_or_else(|poisoned| poisoned.into_inner());
        }
    }

    /// Applies every buffered event now (a full barrier).
    pub fn flush(&mut self) {
        self.dispatch();
        drop(self.quiesce());
    }

    /// Flushes, then returns every episode finalized since the last
    /// drain, in the same deterministic global order as
    /// [`crate::ShardedEngine::drain`].
    pub fn drain(&mut self) -> Vec<EmittedEpisode> {
        self.dispatch();
        let guard = self.quiesce();
        let mut out = self.take_pending();
        drop(guard);
        out.sort_by_key(|a| a.sort_key());
        out
    }

    /// Empties every deposit's pending pool (unsorted). The caller
    /// holds the quiesced scheduler.
    fn take_pending(&self) -> Vec<EmittedEpisode> {
        let mut out = Vec::new();
        for deposit in &self.shared.deposits {
            out.append(&mut lock(deposit).pending);
        }
        self.shared
            .metrics
            .pending_episodes
            .add(-(out.len() as i64));
        out
    }

    /// Flushes, then clones the episodes a [`ParallelEngine::drain`]
    /// would return now, in the same order, without taking them. The
    /// pool is not part of a [`LiveSnapshot`]; this is how a caller
    /// reads it at a snapshot's cut.
    pub fn pending_episodes(&mut self) -> Vec<EmittedEpisode> {
        self.dispatch();
        let guard = self.quiesce();
        let mut out: Vec<EmittedEpisode> = Vec::new();
        for deposit in &self.shared.deposits {
            out.extend(lock(deposit).pending.iter().cloned());
        }
        drop(guard);
        out.sort_by_key(|a| a.sort_key());
        out
    }

    /// Returns drained episodes to the pending pool (the undo of
    /// [`ParallelEngine::drain`] for deltas that could not be
    /// delivered); the next drain re-emits them in the usual
    /// deterministic order.
    pub fn requeue_pending(&mut self, episodes: Vec<EmittedEpisode>) {
        self.shared
            .metrics
            .pending_episodes
            .add(episodes.len() as i64);
        lock(&self.shared.deposits[0]).pending.extend(episodes);
    }

    /// Flushes, then takes every visit trajectory completed since the
    /// last take, in the same deterministic global order as
    /// [`crate::ShardedEngine::take_finished`]. Empty unless
    /// [`EngineConfig::with_warehouse`] is on.
    pub fn take_finished(&mut self) -> Vec<SemanticTrajectory> {
        self.dispatch();
        let guard = self.quiesce();
        let mut out: Vec<SemanticTrajectory> = Vec::new();
        for deposit in &self.shared.deposits {
            out.extend(
                std::mem::take(&mut lock(deposit).finished)
                    .into_iter()
                    .map(|(_, t)| t),
            );
        }
        drop(guard);
        sitm_store::sort_run(&mut out);
        out
    }

    /// End-of-stream: closes every open visit (at its hash shard's
    /// watermark, exactly like the sequential `close_all`), then
    /// drains.
    pub fn finish(&mut self) -> Vec<EmittedEpisode> {
        self.dirty = true;
        self.dispatch();
        let mut guard = self.quiesce();
        let ctx = self.config.ctx();
        let shards = self.config.shards;
        let mut keys: Vec<u64> = guard
            .visits
            .iter()
            .filter(|(_, cell)| cell.state.is_some())
            .map(|(key, _)| *key)
            .collect();
        keys.sort_unstable();
        let mut scratch = Vec::new();
        // One deposit sweep up front: the synthesized closes stamp each
        // shard's merged high-water mark, which they cannot raise, so
        // the merge stays valid for the whole loop.
        let watermarks = self.merged_watermarks();
        for key in keys {
            let shard = shard_of(VisitKey(key), shards);
            let at = watermarks[shard].unwrap_or(Timestamp(0));
            let mut resident = {
                let cell = guard.visits.get_mut(&key).expect("open visit");
                Resident {
                    state: cell.state.take(),
                    closed_at: cell.closed_at,
                }
            };
            let mut out = SliceOutput::new();
            apply_visit_event(
                key,
                StreamEvent::VisitClosed {
                    visit: VisitKey(key),
                    at,
                },
                &mut resident,
                &ctx,
                &mut scratch,
                &mut out,
            );
            let was_fence = {
                let cell = guard.visits.get_mut(&key).expect("open visit");
                let was_fence = cell.closed_at;
                cell.state = resident.state;
                cell.closed_at = resident.closed_at;
                was_fence
            };
            if out.stats.anomalies.after_close > 0 {
                self.shared
                    .metrics
                    .events_fenced
                    .add(out.stats.anomalies.after_close);
            }
            // Engine-thread deposit: index first (workers are
            // quiescent, but the order mirrors the worker path), then
            // deposit 0 — safe while holding the scheduler because
            // workers never block on the scheduler holding either lock.
            apply_index_ops(&self.shared.index, key, std::mem::take(&mut out.index_ops));
            absorb_into_deposit(
                &mut lock(&self.shared.deposits[0]),
                key,
                out,
                shards,
                &self.shared.metrics.pending_episodes,
            );
            guard.settle_cell(key, shard, was_fence, self.config.fence_capacity.max(1));
        }
        let mut out = self.take_pending();
        drop(guard);
        out.sort_by_key(|a| a.sort_key());
        out
    }

    /// Per-shard watermark vector merged across deposits (slot-wise
    /// max — each deposit's slots are monotonic).
    fn merged_watermarks(&self) -> Vec<Option<Timestamp>> {
        let mut merged = vec![None; self.config.shards];
        for deposit in &self.shared.deposits {
            let deposit = lock(deposit);
            for (slot, w) in merged.iter_mut().zip(&deposit.shard_watermarks) {
                if let Some(t) = w {
                    *slot = Some(slot.map_or(*t, |m: Timestamp| m.max(*t)));
                }
            }
        }
        merged
    }

    /// The engine's state epoch: advances whenever the queryable live
    /// state may have changed since the last stamp (an ingest, a
    /// finish, a restore). Draining and requeueing episodes leave it
    /// alone: the pending pool is not snapshot-visible. Stamping is
    /// barrier-free — the counter is what keys the snapshot cache and
    /// what push subscribers see on notifications.
    pub fn epoch(&mut self) -> u64 {
        if self.dirty {
            self.epoch += 1;
            self.dirty = false;
            self.snapshot_cache = None;
        }
        self.epoch
    }

    /// A snapshot-consistent cut of the live state across every worker
    /// (see [`crate::live_query`] for the consistency model). The
    /// snapshot carries the scheduler's live index from the same cut,
    /// but not the undrained episodes (see
    /// [`ParallelEngine::pending_episodes`]).
    ///
    /// The cut is **epoch-cached**: while nothing mutates the engine,
    /// repeated calls share one [`Arc`]'d snapshot — no dispatch, no
    /// quiesce barrier, no open-visit clone. Any ingest invalidates the
    /// cache, so the first call after a mutation pays the full cut.
    pub fn live_snapshot(&mut self) -> Arc<LiveSnapshot> {
        self.live_snapshot_cached().0
    }

    /// [`ParallelEngine::live_snapshot`], also reporting whether the
    /// cut was served from the epoch cache (`true` = cache hit).
    pub fn live_snapshot_cached(&mut self) -> (Arc<LiveSnapshot>, bool) {
        let epoch = self.epoch();
        if let Some((cached_epoch, snapshot)) = &self.snapshot_cache {
            if *cached_epoch == epoch {
                return (Arc::clone(snapshot), true);
            }
        }
        let _rebuild = sitm_obs::trace::child_detail("snapshot_rebuild");
        let snapshot = Arc::new(self.cut_live_snapshot());
        self.snapshot_cache = Some((epoch, Arc::clone(&snapshot)));
        (snapshot, false)
    }

    /// Cuts a fresh snapshot (the cache-miss path): dispatch, quiesce,
    /// clone every open visit's retained prefix plus the live index.
    fn cut_live_snapshot(&mut self) -> LiveSnapshot {
        self.dispatch();
        let guard = self.quiesce();
        let shards = self.config.shards;
        let watermarks = self.merged_watermarks();
        let mut per_shard: Vec<ShardLive> = (0..shards)
            .map(|i| ShardLive {
                visits: Vec::new(),
                watermark: watermarks[i],
                unqueryable: 0,
                index: LiveIndex::new(),
            })
            .collect();
        for (key, cell) in &guard.visits {
            let Some(state) = &cell.state else { continue };
            let shard = shard_of(VisitKey(*key), shards);
            match state.live_trajectory() {
                Some(trajectory) => per_shard[shard].visits.push(LiveVisit {
                    visit: VisitKey(*key),
                    trajectory,
                }),
                None => per_shard[shard].unqueryable += 1,
            }
        }
        per_shard[0].index = lock(&self.shared.index).clone();
        drop(guard);
        LiveSnapshot::from_shards(per_shard)
    }

    /// The engine watermark (minimum across populated hash shards).
    /// Quiesces first, so every event already handed to the scheduler
    /// is counted — the behaviour of the old channel router, whose
    /// report command queued behind outstanding batches. Events still
    /// sitting in the caller-side router buffer are not counted,
    /// matching [`crate::ShardedEngine::watermark`]'s only-applied
    /// semantics (it does not flush shard inboxes either).
    pub fn watermark(&self) -> Option<Timestamp> {
        let guard = self.quiesce();
        let min = self.merged_watermarks().into_iter().flatten().min();
        drop(guard);
        min
    }

    /// Aggregated counters. This is a barrier: the router buffer is
    /// pushed and every outstanding event applied first, so the counts
    /// are exact as of the call — unlike the old channel router, which
    /// reported around events still sitting in its batches.
    pub fn stats(&mut self) -> EngineStats {
        self.dispatch();
        let guard = self.quiesce();
        let open_visits = guard
            .visits
            .values()
            .filter(|cell| cell.state.is_some())
            .count() as u64;
        let mut total = ShardStats::default();
        for deposit in &self.shared.deposits {
            total.absorb(&lock(deposit).stats);
        }
        drop(guard);
        let mut stats = EngineStats::default();
        stats.absorb_shard(&total, open_visits);
        stats
    }

    /// Flushes and captures one complete checkpoint as frames (one per
    /// hash shard, sharing a fresh sequence) — byte-compatible with the
    /// sequential engine's frames, so checkpoints stay runtime-portable.
    pub fn checkpoint_frames(&mut self) -> Vec<CheckpointFrame> {
        self.dispatch();
        self.sequence += 1;
        let sequence = self.sequence;
        let shards = self.config.shards;
        let guard = self.quiesce();
        let watermarks = self.merged_watermarks();
        let mut snapshots: Vec<ShardSnapshot> = (0..shards)
            .map(|i| ShardSnapshot {
                watermark: watermarks[i],
                visits: Vec::new(),
                closed: Vec::new(),
                pending: Vec::new(),
                finished: Vec::new(),
                stats: ShardStats::default(),
            })
            .collect();
        // Counters are engine-global here; recorded on shard 0 so the
        // aggregate (the only cross-engine observable) round-trips.
        for deposit in &self.shared.deposits {
            snapshots[0].stats.absorb(&lock(deposit).stats);
        }
        let mut keys: Vec<u64> = guard.visits.keys().copied().collect();
        keys.sort_unstable();
        for key in keys {
            let cell = &guard.visits[&key];
            let shard = shard_of(VisitKey(key), shards);
            if let Some(state) = &cell.state {
                snapshots[shard].visits.push((key, state.snapshot()));
            } else if let Some(at) = cell.closed_at {
                snapshots[shard].closed.push((key, at));
            }
        }
        for deposit in &self.shared.deposits {
            let deposit = lock(deposit);
            for episode in &deposit.pending {
                snapshots[shard_of(episode.visit, shards)]
                    .pending
                    .push(episode.clone());
            }
            for (key, trajectory) in &deposit.finished {
                snapshots[shard_of(VisitKey(*key), shards)]
                    .finished
                    .push((*key, trajectory.clone()));
            }
        }
        drop(guard);
        for snapshot in &mut snapshots {
            snapshot.pending.sort_by_key(|e| e.sort_key());
            snapshot
                .finished
                .sort_by_key(|(key, t)| (t.start(), t.end(), *key));
        }
        snapshots
            .into_iter()
            .enumerate()
            .map(|(i, snapshot)| CheckpointFrame {
                sequence,
                shard: i as u32,
                shard_count: shards as u32,
                payload: encode_shard(&snapshot, self.config.predicates.len()),
            })
            .collect()
    }

    /// Persists a consistent snapshot into `log`, then fsyncs. Same
    /// recovery contract as [`crate::ShardedEngine::checkpoint`]:
    /// exactly-once relative to `drain`.
    pub fn checkpoint(&mut self, log: &mut LogStore<CheckpointFrame>) -> Result<u64, EngineError> {
        let frames = self.checkpoint_frames();
        let sequence = frames[0].sequence;
        crate::checkpoint::append_and_sync(log, &frames)?;
        Ok(sequence)
    }

    /// Checkpoints through a compacting [`Checkpointer`], keeping the
    /// log bounded. Returns the sequence.
    pub fn checkpoint_into(&mut self, checkpointer: &mut Checkpointer) -> Result<u64, EngineError> {
        let frames = self.checkpoint_frames();
        let sequence = frames[0].sequence;
        checkpointer.commit(frames)?;
        Ok(sequence)
    }
}

impl Drop for ParallelEngine {
    /// Signals shutdown and joins the workers, which drain every
    /// already-pushed event first. Events still sitting in the router
    /// buffer are dropped — like the sequential engine, dropping
    /// without `drain`/`finish`/`checkpoint` abandons unflushed work. A
    /// worker that panicked is joined and ignored (its panic already
    /// surfaced on the engine thread if any call touched it).
    fn drop(&mut self) {
        {
            let mut guard = lock(&self.shared.state);
            guard.shutdown = true;
        }
        self.shared.work.notify_all();
        self.shared.quiet.notify_all();
        for handle in self.handles.drain(..) {
            let _ = handle.join();
        }
        // Withdraw this engine's undrained pool from the shared gauge.
        let abandoned: usize = self
            .shared
            .deposits
            .iter()
            .map(|d| lock(d).pending.len())
            .sum();
        self.shared
            .metrics
            .pending_episodes
            .add(-(abandoned as i64));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::{sort_feed, VisitKey};
    use crate::ShardedEngine;
    use sitm_core::{
        Annotation, AnnotationSet, IntervalPredicate, PresenceInterval, TransitionTaken,
    };
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
        .with_channel_depth(2)
    }

    fn feed() -> Vec<StreamEvent> {
        let mut events = Vec::new();
        for v in 0..12u64 {
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
        sort_feed(&mut events);
        events
    }

    #[test]
    fn matches_sequential_engine_for_every_worker_count() {
        let mut reference = ShardedEngine::new(config(2)).unwrap();
        reference.ingest_all(feed());
        let expected = reference.finish();
        for workers in [1usize, 2, 4, 8] {
            let mut engine = ParallelEngine::new(config(workers)).unwrap();
            assert_eq!(engine.workers(), workers);
            engine.ingest_all(feed());
            assert_eq!(engine.finish(), expected, "{workers} workers");
            let stats = engine.stats();
            assert_eq!(stats.visits_opened, 12);
            assert_eq!(stats.open_visits, 0);
        }
    }

    #[test]
    fn incremental_drains_are_consistent_cuts() {
        let events = feed();
        let mid = events.len() / 2;
        let mut engine = ParallelEngine::new(config(4)).unwrap();
        engine.ingest_all(events[..mid].to_vec());
        let mut delivered = engine.drain();
        engine.ingest_all(events[mid..].to_vec());
        delivered.extend(engine.finish());
        delivered.sort_by_key(|a| a.sort_key());

        let mut oneshot = ParallelEngine::new(config(4)).unwrap();
        oneshot.ingest_all(events);
        assert_eq!(delivered, oneshot.finish());
    }

    #[test]
    fn watermark_and_stats_are_aggregated() {
        let mut engine = ParallelEngine::new(config(3)).unwrap();
        assert_eq!(engine.watermark(), None);
        engine.ingest_all(feed());
        engine.flush();
        assert!(engine.watermark() >= Some(Timestamp(250)));
        let stats = engine.stats();
        assert_eq!(stats.visits_opened, 12);
        assert_eq!(stats.presences, 36);
        assert_eq!(stats.anomalies.total(), 0);
    }

    /// Regression for the ROADMAP item this PR closes: `stats()` must
    /// flush the router buffer first, so counts reflect every ingested
    /// event — the old channel router reported around buffered batches.
    #[test]
    fn stats_barrier_flushes_the_router_buffer() {
        // Batch capacity far above the feed size: every event sits in
        // the caller-side buffer until something barriers.
        let mut engine = ParallelEngine::new(config(2).with_batch_capacity(10_000)).unwrap();
        let events = feed();
        let total = events.len() as u64;
        engine.ingest_all(events);
        let stats = engine.stats();
        assert_eq!(stats.events, total, "stats() must observe buffered events");
        assert_eq!(stats.visits_opened, 12);
        assert_eq!(stats.visits_closed, 12);
    }

    /// Regression for the sharded-deposit rework: deposits accumulate
    /// per worker and merge only at barriers, so counters and drained
    /// episodes must still agree with the sequential engine when work
    /// is spread across many workers (each with its own accumulator).
    #[test]
    fn sharded_deposits_merge_to_sequential_totals() {
        let mut reference = ShardedEngine::new(config(2)).unwrap();
        reference.ingest_all(feed());
        reference.flush();
        let expected_stats = reference.stats();
        let expected_episodes = reference.finish();

        let mut engine = ParallelEngine::new(config(8)).unwrap();
        engine.ingest_all(feed());
        engine.flush();
        let stats = engine.stats();
        assert_eq!(stats.events, expected_stats.events);
        assert_eq!(stats.episodes, expected_stats.episodes);
        assert_eq!(stats.presences, expected_stats.presences);
        // Multiple workers really deposited (batches_flushed counts
        // slices, which exist regardless of which worker ran them).
        assert!(stats.batches_flushed > 0);
        assert_eq!(engine.finish(), expected_episodes);
    }

    #[test]
    fn take_finished_matches_sequential_and_is_exactly_once() {
        let mut reference = ShardedEngine::new(config(2).with_warehouse()).unwrap();
        reference.ingest_all(feed());
        reference.flush();
        let expected = reference.take_finished();
        assert_eq!(expected.len(), 12, "every closed visit produced a record");
        assert!(
            reference.take_finished().is_empty(),
            "drain is exactly-once"
        );

        for workers in [1usize, 4] {
            let mut engine = ParallelEngine::new(config(workers).with_warehouse()).unwrap();
            engine.ingest_all(feed());
            assert_eq!(engine.take_finished(), expected, "{workers} workers");
            assert!(engine.take_finished().is_empty());
        }
        // Without the warehouse drain nothing is retained.
        let mut plain = ParallelEngine::new(config(2)).unwrap();
        plain.ingest_all(feed());
        assert!(plain.take_finished().is_empty());
    }

    #[test]
    fn zero_shards_is_rejected() {
        assert!(matches!(
            ParallelEngine::new(config(0)),
            Err(EngineError::ZeroShards)
        ));
    }

    #[test]
    fn checkpoint_restore_round_trips_across_threads() {
        let events = feed();
        let mid = events.len() / 2;
        let path = std::env::temp_dir().join(format!(
            "sitm-parallel-ckpt-{}-{:?}.log",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_file(&path);

        let mut reference = ParallelEngine::new(config(4)).unwrap();
        reference.ingest_all(events.iter().cloned());
        let expected = reference.finish();

        let mut delivered;
        {
            let mut engine = ParallelEngine::new(config(4)).unwrap();
            engine.ingest_all(events[..mid].iter().cloned());
            delivered = engine.drain();
            let (mut log, _, _) = LogStore::<CheckpointFrame>::open(&path).unwrap();
            engine.checkpoint(&mut log).unwrap();
        }
        let (mut restored, _log, report) =
            crate::checkpoint::resume_parallel_from_log(config(4), &path).unwrap();
        assert!(report.is_clean());
        restored.ingest_all(events[mid..].iter().cloned());
        delivered.extend(restored.finish());
        delivered.sort_by_key(|a| a.sort_key());
        assert_eq!(delivered, expected);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn finished_backlog_survives_checkpoint_restore() {
        let events = feed();
        let path = std::env::temp_dir().join(format!(
            "sitm-parallel-finished-{}-{:?}.log",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_file(&path);

        let mut reference = ParallelEngine::new(config(4).with_warehouse()).unwrap();
        reference.ingest_all(events.iter().cloned());
        reference.flush();
        let expected = reference.take_finished();

        {
            let mut engine = ParallelEngine::new(config(4).with_warehouse()).unwrap();
            engine.ingest_all(events.iter().cloned());
            // Checkpoint *without* taking the finished backlog: it must
            // reappear after restore (exactly-once relative to take).
            let (mut log, _, _) = LogStore::<CheckpointFrame>::open(&path).unwrap();
            engine.checkpoint(&mut log).unwrap();
        }
        let (mut restored, _log, report) =
            crate::checkpoint::resume_parallel_from_log(config(4).with_warehouse(), &path).unwrap();
        assert!(report.is_clean());
        assert_eq!(restored.take_finished(), expected);
        assert!(restored.take_finished().is_empty());
        let _ = std::fs::remove_file(&path);
    }
}
