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
//!   façade, with aggregate statistics and anomaly accounting — the one
//!   engine runtime;
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
//!   [`EngineConfig::with_warehouse`]) out of the engine into
//!   `sitm_query::SegmentedDb`'s immutable segment tier, bounding
//!   engine memory while history accumulates on disk;
//! * [`replay`] — a streaming source over the calibrated Louvre dataset:
//!   replays `sitm_louvre::generate_dataset` output as one
//!   timestamp-ordered event feed;
//! * [`occupancy`] — live per-cell occupancy derived from the feed (the
//!   "how many visitors are in the Denon wing *right now*" query).
//!
//! ## One runtime
//!
//! [`ShardedEngine`] runs on the caller's thread: `ingest` routes an
//! event to its visit's hash shard, and a shard applies its inbox once
//! it holds `batch_capacity` events or a barrier asks. A visit lives in
//! exactly one shard and a shard applies its events in arrival order,
//! so every per-visit decision — including the late-event fence, which
//! is event-time deterministic — is a pure function of the visit's own
//! history, and the shard count is invisible in the output.
//!
//! ## Snapshot consistency
//!
//! Every barrier operation (`flush`, `drain`, `stats`,
//! `live_snapshot`, `checkpoint`) applies the buffered inboxes first,
//! so it cuts the stream at the call: events ingested before it are
//! fully visible, later ones entirely absent. See [`live_query`] for
//! the model and [`checkpoint`] for the exactly-once recovery contract
//! relative to `drain`.
//!
//! ## Batch equivalence
//!
//! The engine and the batch extractor share `sitm_core::RunBuilder`, and
//! the property tests in `tests/equivalence.rs` replay whole generated
//! Louvre days through 1, 2, and 8 shards, asserting the streamed episode
//! sets equal the batch ones visit-for-visit — including across a
//! checkpoint/restore crash in the middle of the stream, under shuffled
//! interleavings, and under single-hot-visit skew.

pub mod checkpoint;
pub mod engine;
pub mod event;
pub mod flusher;
pub mod live_index;
pub mod live_query;
pub mod occupancy;
pub mod replay;
pub mod segmenter;
pub mod shard;
pub mod visit;

pub use checkpoint::{resume_compacting, resume_from_log, CheckpointError, Checkpointer};
pub use engine::{
    Anomalies, EmittedEpisode, EngineConfig, EngineError, EngineStats, ShardedEngine,
};
pub use event::{StreamEvent, VisitKey};
pub use flusher::Flusher;
pub use live_index::LiveIndex;
pub use live_query::{LiveSnapshot, LiveVisit, ShardLive};
pub use occupancy::OccupancyTracker;
pub use replay::{dataset_events, visit_trajectories};
pub use segmenter::IncrementalSegmenter;

/// The former name of the work-stealing runtime, which [`ShardedEngine`]
/// replaced. Kept only because the served-pipeline benchmark
/// (`servebench/`) imports it; the next change to that benchmark drops
/// both the import and this alias.
#[doc(hidden)]
pub type ParallelEngine = ShardedEngine;
