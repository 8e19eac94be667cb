#![warn(missing_docs)]

//! # sitm-stream
//!
//! Sharded **online** construction of the Semantic Indoor Trajectory
//! Model: the batch pipeline (raw fixes → presence intervals → episodic
//! segmentation) rebuilt as an incremental engine that serves live
//! traffic, while provably producing the *exact same episodes* as
//! `sitm_core::maximal_episodes` over the completed trajectory.
//!
//! * [`event`] — the ingestion vocabulary: per-visit [`StreamEvent`]s
//!   (open / raw fix / presence / close), interleaved across visitors;
//! * [`visit`] — the per-visit state machine: open fix-derived presence
//!   interval, trace-order validation, one [`sitm_core::RunBuilder`] per
//!   configured predicate;
//! * [`segmenter`] — [`IncrementalSegmenter`]: predicate-driven episode
//!   detection over one visit, emitting each [`sitm_core::Episode`] the
//!   moment its maximal run closes;
//! * [`shard`] — a hash partition of visits with a bounded event inbox,
//!   per-shard watermark, and deterministic drain order;
//! * [`engine`] — [`ShardedEngine`]: N shards behind one ingest/drain
//!   façade, with aggregate statistics and anomaly accounting;
//! * [`parallel`] — [`ParallelEngine`]: N worker threads over a
//!   work-stealing scheduler of visits (per-worker deques,
//!   visit-affinity pinning, steal-on-idle of whole cold visits), with
//!   the identical surface and (provably) identical output;
//! * [`live_index`] — [`LiveIndex`]: incrementally maintained postings
//!   over the open-visit population (cell → visits, moving object →
//!   visits, span-start order), updated per accepted event;
//! * [`live_query`] — [`LiveSnapshot`]: snapshot-consistent cuts of the
//!   live state (open-visit trajectory prefixes + their postings; the
//!   undrained episodes stay in the engine, see `pending_episodes`),
//!   queryable with `sitm_query::Predicate` through the live index —
//!   candidate narrowing with a full re-check, exactly like the
//!   warehouse — and federated across engines and warehouses via
//!   `sitm_query::TrajectorySource`;
//! * [`checkpoint`] — crash recovery: shard state serialized through
//!   `sitm-store`'s CRC-framed [`sitm_store::LogStore`] as
//!   [`sitm_store::CheckpointFrame`]s, restored without duplicating or
//!   dropping episodes; [`Checkpointer`] keeps the log bounded by
//!   compacting per a [`sitm_store::CompactionPolicy`];
//! * [`flusher`] — [`Flusher`]: the live → warehouse spill pipeline —
//!   drains finished visits (`take_finished`, retained under
//!   [`EngineConfig::with_warehouse`]) out of either engine into
//!   `sitm_query::SegmentedDb`'s immutable segment tier, bounding
//!   engine memory while history accumulates on disk;
//! * [`replay`] — a streaming source over the calibrated Louvre dataset:
//!   replays `sitm_louvre::generate_dataset` output as one
//!   timestamp-ordered event feed;
//! * [`occupancy`] — live per-cell occupancy derived from the feed (the
//!   "how many visitors are in the Denon wing *right now*" query).
//!
//! ## Sequential or parallel?
//!
//! [`ShardedEngine`] and [`ParallelEngine`] expose the same surface
//! (`ingest`/`flush`/`drain`/`finish`/`watermark`/`checkpoint`/
//! `restore`/`live_snapshot`) and produce the same episodes — the
//! differential property tests in `tests/parallel_equivalence.rs` pin
//! parallel == sequential == batch for 1/2/4/8 workers, under shuffled
//! event interleavings, under single-hot-shard skew, and across
//! crash/checkpoint/restore (checkpoints are runtime-portable in both
//! directions). Choose by deployment shape:
//!
//! * **Sequential** — zero threads, zero scheduler overhead,
//!   deterministic single-stack profiling; right for tests, embedded
//!   replays, and small feeds where per-event cost dominates.
//! * **Parallel** — N worker threads over a **work-stealing router**:
//!   events queue per visit, ready visits ride bounded per-worker
//!   deques, and an idle worker steals whole *cold* visits (queued,
//!   not mid-application) from the back of the busiest deque. Uniform
//!   loads scale with cores like the old thread-per-shard router did;
//!   *skewed* loads no longer collapse — a single hot visit serializes
//!   only itself while every cold visit drains through the idle
//!   workers, instead of the hot visit's whole hash shard pinning one
//!   worker and starving its neighbours. Backpressure bounds queued
//!   events at `channel_depth × batch_capacity × workers`. Right for
//!   live multi-core ingest, especially under Zipf-shaped visit
//!   popularity (`bench_stream`'s `skewed_ingest` group measures it).
//!
//! Correctness does not depend on the choice: a visit's events are
//! applied in arrival order by at most one worker at a time
//! (visit-affinity pinning), and every per-visit decision — including
//! the late-event fence, which is event-time deterministic — is a pure
//! function of the visit's own history, so thread interleavings cannot
//! reorder or re-judge any visit's history.
//!
//! ## Snapshot consistency
//!
//! Every barrier operation (`drain`, `live_snapshot`, `checkpoint`) cuts
//! the stream at the call: events ingested before it are fully visible,
//! later ones entirely absent — on the parallel engine the cut rides the
//! per-shard command channels, after the outstanding event batches. See
//! [`live_query`] for the model and [`checkpoint`] for the exactly-once
//! recovery contract relative to `drain`.
//!
//! ## Batch equivalence
//!
//! The engines and the batch extractor share `sitm_core::RunBuilder`, and
//! the property tests in `tests/equivalence.rs` replay whole generated
//! Louvre days through 1, 2, and 8 shards, asserting the streamed episode
//! sets equal the batch ones visit-for-visit — including across a
//! checkpoint/restore crash in the middle of the stream.

pub mod checkpoint;
pub mod engine;
pub mod event;
pub mod flusher;
pub mod live_index;
pub mod live_query;
pub mod occupancy;
pub mod parallel;
pub mod replay;
pub mod segmenter;
pub mod shard;
pub mod visit;

pub use checkpoint::{
    resume_compacting, resume_from_log, resume_parallel_compacting, resume_parallel_from_log,
    CheckpointError, Checkpointer,
};
pub use engine::{
    Anomalies, EmittedEpisode, EngineConfig, EngineError, EngineStats, ShardedEngine,
};
pub use event::{StreamEvent, VisitKey};
pub use flusher::{FinishedSource, Flusher};
pub use live_index::LiveIndex;
pub use live_query::{LiveSnapshot, LiveVisit, ShardLive};
pub use occupancy::OccupancyTracker;
pub use parallel::ParallelEngine;
pub use replay::{dataset_events, visit_trajectories};
pub use segmenter::IncrementalSegmenter;
