//! The warehouse rewritten around immutable on-disk segments.
//!
//! [`SegmentedDb`] is the durable twin of [`TrajectoryDb`]: the same
//! query surface (candidate supersets re-checked by the caller, the
//! [`TrajectorySource`] federation face), but backed by
//! `sitm_store`'s segment tier ([`SegmentStore`]) instead of one
//! in-memory vector — so the collection survives restarts, grows by
//! *appending immutable segments*, and stays bounded by size-tiered
//! compaction instead of rebuilding the world per run.
//!
//! ## Two-level index consultation
//!
//! A predicate is narrowed in two stages, both sound:
//!
//! 1. **zone-map pruning** — each segment's [`ZoneMap`] (span min/max,
//!    cell set, object set, annotation sets) is tested with
//!    [`zone_may_match`]; a segment the predicate provably cannot match
//!    contributes nothing and its trajectories are never touched.
//!    Point-equality leaves (cell / moving-object membership) consult
//!    the zone map's **Bloom filters first**: a bloom *no* rejects the
//!    segment from one probe sequence without touching the exact
//!    ordered sets (no false negatives, so the prune stays sound), and
//!    [`SegmentedPlan::bloom_pruned`] reports how many segments the
//!    blooms alone eliminated;
//! 2. **per-segment postings** — surviving segments answer through
//!    their own [`TrajectoryDb`] indexes (cell/annotation/object
//!    postings, span and stay interval trees), translated into global
//!    positions by each segment's base offset.
//!
//! Like every index in this stack, the result is a *sound candidate
//! superset*: the executor re-checks the full predicate on every
//! candidate, so the segmented path is result-identical to a full scan
//! (and to an in-memory [`TrajectoryDb`] over the same trajectories —
//! the differential tests in `tests/tiered_warehouse.rs` pin this at
//! every flush and compaction point).
//!
//! ## Iteration order
//!
//! Trajectories iterate in **warehouse order**: segments in manifest
//! order, each segment its canonical sorted run
//! ([`sitm_store::sort_run`]). The order is deterministic for a given
//! sequence of flushes and compactions, which is what lets the
//! differential tests demand *exact* equality (ids included) against a
//! [`TrajectoryDb`] built from the same iteration.
//!
//! ## Lazy residency (segment format v3)
//!
//! Segments open **cold**: `SegmentStore::open` reads only header
//! frames (zone map, offset directory, sort columns, rollup), so
//! everything above is available without decoding a single trajectory —
//! and the sort columns let content-key ordering (`TotalDwell`,
//! `MovingObject`, `TraceLength`) decide which frames a page needs
//! before any row is materialized. A segment's postings
//! ([`TrajectoryDb`]) hydrate on first contact — when pruning leaves
//! the segment in a query's surviving set — from one decode pass whose
//! storage is `Arc`-shared between the store's segment cache and the
//! postings ([`TrajectoryDb::build_shared`]); there is exactly one
//! resident copy of a segment's run, ever. A fully-pruned query
//! therefore reads ~zero segment bytes (`query.segment_bytes_read`).
//! Single-row seeks land in the store's bounded **row-decode cache**
//! (see `sitm_store::warehouse`), so repeated paged scans over hot
//! segments re-decode nothing (`query.row_cache_hits`). Hydration
//! **panics** if the segment body turns out corrupt
//! (`Segment::trajectories` errors): header corruption is refused at
//! open, and the query surface is infallible by signature, so body
//! corruption discovered mid-query is deliberately fail-stop.
//!
//! ## Global object index
//!
//! Before any per-segment probe, point lookups (`MovingObject` leaves,
//! and `And`/`Or` combinations over them) consult the store's
//! cross-segment **object index** — object → segment-id postings
//! maintained incrementally on flush and compaction. Segments outside
//! the posting set are skipped without even touching their zone map
//! ([`SegmentedPlan::object_pruned`]).
//!
//! ## Rollups
//!
//! Per-cell and per-period aggregates ([`SegmentedDb::rollup_cells`],
//! [`SegmentedDb::rollup_occupancy`]) merge the segments' header-frame
//! rollups — the served `Rollup` op answers per-cell and per-period
//! breakdowns from these (merged with a live-tier fold) without
//! hydrating anything. The served `Stats` op does not touch them: it is
//! a counters-only monitor poll.

use std::collections::{BTreeMap, BTreeSet};
use std::path::Path;
use std::sync::{Arc, OnceLock};

use sitm_core::SemanticTrajectory;
use sitm_obs::{Counter, Histogram, MetricsRegistry};
use sitm_space::CellRef;
use sitm_store::warehouse::{
    CellRollup, Segment, SegmentStore, WarehouseConfig, WarehouseError, ZoneMap,
};
use sitm_store::RecoveryReport;

use crate::federation::TrajectorySource;
use crate::index::{CandidateSet, TrajId, TrajectoryDb};
use crate::predicate::Predicate;

/// Can any trajectory summarized by `zone` possibly match `p`?
///
/// Sound pruning: `false` is returned only when **no** trajectory in
/// the segment can match — the caller may then skip the whole segment.
/// `true` is always safe (the per-segment postings and the residual
/// re-check still run). Negation is never pruned (a zone map aggregates
/// *presence*, not absence), and conjunction prunes when any conjunct
/// does.
pub fn zone_may_match(zone: &ZoneMap, p: &Predicate) -> bool {
    if zone.len == 0 {
        return false;
    }
    let span_allows = |window: &sitm_core::TimeInterval| match zone.span {
        None => false,
        Some(span) => span.overlaps(*window),
    };
    // The longest any *single stay* can be: every stay lies inside its
    // trajectory's span (`Trace::span` is [min start, max end]), which
    // lies inside the zone span. Total dwell has no such bound —
    // overlapping stays are legal (sensor handoff jitter, see
    // `TraceError::OutOfOrder`) and can sum past the span.
    let max_span = zone
        .span
        .map(|s| s.duration())
        .unwrap_or_else(|| sitm_core::Duration::seconds(0));
    match p {
        Predicate::True => true,
        Predicate::VisitedCell(cell) => zone.may_contain_cell(cell),
        Predicate::SequenceContains(cells) => cells.iter().all(|c| zone.may_contain_cell(c)),
        Predicate::SpanOverlaps(window) => span_allows(window),
        Predicate::StayOverlaps(cell, window) => zone.may_contain_cell(cell) && span_allows(window),
        Predicate::HasTrajAnnotation(a) => zone.traj_annotations.contains(a),
        Predicate::HasStayAnnotation(a) => zone.stay_annotations.contains(a),
        Predicate::MinTotalDwell(_) => true,
        Predicate::MinStayIn(cell, d) => zone.may_contain_cell(cell) && *d <= max_span,
        Predicate::MovingObject(id) => zone.may_contain_object(id),
        Predicate::Not(_) => true,
        Predicate::And(parts) => parts.iter().all(|q| zone_may_match(zone, q)),
        Predicate::Or(parts) => parts.iter().any(|q| zone_may_match(zone, q)),
    }
}

/// Would the zone's *Bloom filters alone* prove `p` unmatchable? A
/// strict subset of the segments [`zone_may_match`] prunes (a bloom
/// *no* has no false negatives), reported separately in
/// [`SegmentedPlan::bloom_pruned`] so the fast-rejection tier's
/// contribution is visible in plans. Point-equality leaves (cell /
/// moving-object membership) are the only ones blooms can answer.
pub fn zone_bloom_rejects(zone: &ZoneMap, p: &Predicate) -> bool {
    match p {
        Predicate::VisitedCell(cell)
        | Predicate::StayOverlaps(cell, _)
        | Predicate::MinStayIn(cell, _) => zone.bloom_rejects_cell(cell),
        // Every listed cell must be present for a contiguous run.
        Predicate::SequenceContains(cells) => cells.iter().any(|c| zone.bloom_rejects_cell(c)),
        Predicate::MovingObject(id) => zone.bloom_rejects_object(id),
        Predicate::And(parts) => parts.iter().any(|q| zone_bloom_rejects(zone, q)),
        Predicate::Or(parts) => {
            !parts.is_empty() && parts.iter().all(|q| zone_bloom_rejects(zone, q))
        }
        _ => false,
    }
}

/// One live segment's query-side structures. Parts align **by index**
/// with [`SegmentStore::segments`] (both follow manifest order), so the
/// pruning metadata (zone map, directory, rollup) is read straight off
/// the store's segment — no clones.
struct SegmentPart {
    /// The segment id (segments are immutable, so the id keys reuse
    /// across rebuilds).
    id: u64,
    /// Trajectory count (from the offset directory — no decode).
    len: usize,
    /// Global position of the segment's first trajectory.
    base: TrajId,
    /// Per-segment postings over the segment's sorted run, hydrated on
    /// first contact from the segment's `Arc`-shared decode.
    db: OnceLock<TrajectoryDb>,
}

/// How a segmented query would be served (the warehouse analogue of
/// [`crate::QueryPlan`], with the segment dimension made visible).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SegmentedPlan {
    /// Live segments consulted.
    pub segments: usize,
    /// Segments skipped entirely by zone-map pruning.
    pub pruned: usize,
    /// Of the pruned segments, how many the Bloom filters alone
    /// rejected (point predicates answered before the exact sets were
    /// touched) — always `≤ pruned`.
    pub bloom_pruned: usize,
    /// Segments skipped by the global object index before their zone
    /// maps were even consulted (disjoint from `pruned`).
    pub object_pruned: usize,
    /// Candidate positions surviving both stages (`None` when the
    /// surviving segments cannot narrow and the query degrades to a
    /// scan of the unpruned segments).
    pub candidates: Option<usize>,
    /// Total trajectories in the warehouse.
    pub total: usize,
}

/// Per-query pruning instruments (`query.*` metric names), resolved
/// once so [`SegmentedDb::candidates`] — a `&self` hot path — pays
/// relaxed atomic adds only.
struct QueryMetrics {
    segments_scanned: Arc<Counter>,
    zone_pruned: Arc<Counter>,
    bloom_pruned: Arc<Counter>,
    object_pruned: Arc<Counter>,
    candidates: Arc<Histogram>,
}

impl QueryMetrics {
    fn bind(registry: &MetricsRegistry) -> QueryMetrics {
        QueryMetrics {
            segments_scanned: registry.counter("query.segments_scanned"),
            zone_pruned: registry.counter("query.zone_pruned"),
            bloom_pruned: registry.counter("query.bloom_pruned"),
            object_pruned: registry.counter("query.object_pruned"),
            candidates: registry.histogram("query.candidates"),
        }
    }
}

/// Can the per-segment postings narrow `p` at all? `false` means every
/// segment would answer [`CandidateSet::All`], so consulting them (and
/// hydrating cold segments to do it) is pure waste. Mirrors
/// [`TrajectoryDb::candidates`]'s `All` cases, conservatively.
fn index_can_narrow(p: &Predicate) -> bool {
    match p {
        Predicate::True | Predicate::MinTotalDwell(_) | Predicate::Not(_) => false,
        Predicate::And(parts) => parts.iter().any(index_can_narrow),
        Predicate::Or(parts) => parts.is_empty() || parts.iter().all(index_can_narrow),
        _ => true,
    }
}

/// A durable, segment-backed trajectory warehouse with the
/// [`TrajectoryDb`] query surface and the [`TrajectorySource`]
/// federation face.
pub struct SegmentedDb {
    store: SegmentStore,
    parts: Vec<SegmentPart>,
    total: usize,
    metrics: QueryMetrics,
}

impl SegmentedDb {
    /// Opens (or creates) the warehouse at `dir`, recovering the newest
    /// complete manifest and building per-segment postings.
    pub fn open(
        dir: impl AsRef<Path>,
        config: WarehouseConfig,
    ) -> Result<(SegmentedDb, RecoveryReport), WarehouseError> {
        let (store, report) = SegmentStore::open(dir, config)?;
        let mut db = SegmentedDb {
            store,
            parts: Vec::new(),
            total: 0,
            metrics: QueryMetrics::bind(MetricsRegistry::global()),
        };
        db.rebuild_parts();
        Ok((db, report))
    }

    /// Points this warehouse's `query.*` instruments (and the
    /// underlying store's `store.*` instruments) at `registry` instead
    /// of the process-global default.
    #[must_use]
    pub fn with_metrics(mut self, registry: &MetricsRegistry) -> SegmentedDb {
        self.metrics = QueryMetrics::bind(registry);
        self.store.set_metrics(registry);
        self
    }

    /// Rebuilds the query-side structures from the store's live
    /// segments (after open, flush, or compaction). Segments are
    /// immutable, so a part whose id survived the mutation is *reused*
    /// (only its base offset moves) — a flush indexes just the new
    /// segment and whatever a compaction merged, not the whole
    /// warehouse.
    fn rebuild_parts(&mut self) {
        let mut reusable: std::collections::HashMap<u64, SegmentPart> =
            std::mem::take(&mut self.parts)
                .into_iter()
                .map(|p| (p.id, p))
                .collect();
        self.total = 0;
        for segment in self.store.segments() {
            let base = self.total as TrajId;
            self.total += segment.len();
            let part = match reusable.remove(&segment.id) {
                Some(mut part) => {
                    part.base = base;
                    part
                }
                None => SegmentPart {
                    id: segment.id,
                    len: segment.len(),
                    base,
                    db: OnceLock::new(),
                },
            };
            self.parts.push(part);
        }
    }

    /// The postings of part `idx`, hydrating them on first contact from
    /// the store segment's cached (`Arc`-shared) decode.
    ///
    /// # Panics
    ///
    /// If the segment body is corrupt (see the module docs: headers
    /// were validated at open; body corruption mid-query is fail-stop).
    fn part_db(&self, idx: usize) -> &TrajectoryDb {
        let part = &self.parts[idx];
        part.db.get_or_init(|| {
            let segment = &self.store.segments()[idx];
            let run = segment.trajectories().unwrap_or_else(|e| {
                panic!("segment {} body corrupt at hydration: {e}", segment.id)
            });
            TrajectoryDb::build_shared(Arc::clone(run))
        })
    }

    /// Consults the global object index: the segment ids that may hold
    /// a match for `p`, or `None` when `p` has no object structure the
    /// index can answer. Sound: a segment outside the returned set
    /// provably contains no match (the index is exact, not
    /// probabilistic — every flush/compaction rewrites its postings).
    fn object_segment_filter(&self, p: &Predicate) -> Option<BTreeSet<u64>> {
        match p {
            Predicate::MovingObject(id) => {
                Some(self.store.object_segments(id).cloned().unwrap_or_default())
            }
            Predicate::And(parts) => {
                // Intersect whatever arms the index can answer; arms it
                // cannot answer constrain nothing.
                let mut acc: Option<BTreeSet<u64>> = None;
                for q in parts {
                    if let Some(s) = self.object_segment_filter(q) {
                        acc = Some(match acc {
                            None => s,
                            Some(prev) => prev.intersection(&s).copied().collect(),
                        });
                    }
                }
                acc
            }
            Predicate::Or(parts) => {
                // A union is only sound if *every* arm is answerable.
                let mut acc = BTreeSet::new();
                for q in parts {
                    acc.extend(self.object_segment_filter(q)?);
                }
                Some(acc)
            }
            _ => None,
        }
    }

    /// Flushes one batch of finished trajectories as a new immutable
    /// segment (sorted into the canonical run order), then runs
    /// size-tiered compaction to its fixed point. An empty batch is a
    /// no-op. Durable on return.
    pub fn flush(&mut self, trajectories: Vec<SemanticTrajectory>) -> Result<(), WarehouseError> {
        if trajectories.is_empty() {
            return Ok(());
        }
        self.store.append_segment(trajectories)?;
        self.store.compact_size_tiered()?;
        self.rebuild_parts();
        Ok(())
    }

    /// Forces size-tiered compaction now (normally [`SegmentedDb::flush`]
    /// already runs it). Returns the number of merges performed.
    pub fn compact(&mut self) -> Result<usize, WarehouseError> {
        let merges = self.store.compact_size_tiered()?;
        if merges > 0 {
            self.rebuild_parts();
        }
        Ok(merges)
    }

    /// The live segments (id, zone map, sorted run), in iteration order.
    pub fn segments(&self) -> &[Segment] {
        self.store.segments()
    }

    /// The underlying store.
    pub fn store(&self) -> &SegmentStore {
        &self.store
    }

    /// Total trajectories across every segment.
    pub fn len(&self) -> usize {
        self.total
    }

    /// True when the warehouse holds nothing.
    pub fn is_empty(&self) -> bool {
        self.total == 0
    }

    /// Trajectory by global position (warehouse iteration order).
    /// Hydrates the owning segment.
    pub fn get(&self, id: TrajId) -> Option<&SemanticTrajectory> {
        let part_idx = match self.parts.binary_search_by(|p| p.base.cmp(&id)) {
            Ok(i) => i,
            Err(0) => return None,
            Err(i) => i - 1,
        };
        self.part_db(part_idx).get(id - self.parts[part_idx].base)
    }

    /// Every trajectory, in warehouse order (segments in manifest
    /// order, each its sorted run). A full scan — hydrates everything.
    pub fn iter(&self) -> impl Iterator<Item = &SemanticTrajectory> {
        (0..self.parts.len()).flat_map(|i| self.part_db(i).iter())
    }

    /// Warehouse-wide per-cell aggregates merged from the segments'
    /// header-frame rollups: distinct-trajectory count, stay count, and
    /// total dwell seconds per cell. **Decodes nothing** — this is the
    /// Stats fast path.
    pub fn rollup_cells(&self) -> BTreeMap<CellRef, CellRollup> {
        let mut out: BTreeMap<CellRef, CellRollup> = BTreeMap::new();
        for segment in self.store.segments() {
            for (cell, cr) in &segment.rollup().cells {
                out.entry(*cell).or_default().merge(cr);
            }
        }
        out
    }

    /// Warehouse-wide occupancy merged from the segments' header-frame
    /// rollups: period start (seconds, aligned to the rollup period) →
    /// number of trajectories whose span touches the period. Decodes
    /// nothing.
    pub fn rollup_occupancy(&self) -> BTreeMap<i64, u64> {
        let mut out: BTreeMap<i64, u64> = BTreeMap::new();
        for segment in self.store.segments() {
            for (period, n) in &segment.rollup().periods {
                *out.entry(*period).or_default() += n;
            }
        }
        out
    }

    /// Derives a global candidate superset for `p`: zone-map pruning
    /// per segment, then the surviving segments' postings shifted by
    /// their base offsets. Soundness invariant (property-tested in
    /// `tests/segmented_proptests.rs`): every trajectory matching `p`
    /// is in the returned set.
    pub fn candidates(&self, p: &Predicate) -> CandidateSet {
        let _prune = sitm_obs::trace::child_detail("prune");
        let mut ids: Vec<TrajId> = Vec::new();
        let mut narrowed = false;
        let mut scanned = 0u64;
        let mut zone_pruned = 0u64;
        let mut bloom_pruned = 0u64;
        let mut object_pruned = 0u64;
        let object_filter = self.object_segment_filter(p);
        let can_narrow = index_can_narrow(p);
        let segments = self.store.segments();
        for (idx, part) in self.parts.iter().enumerate() {
            // Stage 0: the global object index — exact, cross-segment,
            // cheaper than any zone probe.
            if let Some(filter) = &object_filter {
                if !filter.contains(&part.id) {
                    narrowed = true;
                    object_pruned += 1;
                    continue;
                }
            }
            let zone = &segments[idx].zone_map;
            if !zone_may_match(zone, p) {
                narrowed = true;
                zone_pruned += 1;
                // Only already-pruned segments are re-probed, so the
                // bloom attribution costs nothing on survivors.
                if zone_bloom_rejects(zone, p) {
                    bloom_pruned += 1;
                }
                continue;
            }
            scanned += 1;
            if !can_narrow {
                // Every segment would answer All; say so without
                // hydrating cold postings.
                ids.extend(part.base..part.base + part.len as TrajId);
                continue;
            }
            match self.part_db(idx).candidates(p) {
                CandidateSet::All => {
                    ids.extend(part.base..part.base + part.len as TrajId);
                }
                CandidateSet::Ids(local) => {
                    narrowed = true;
                    ids.extend(local.into_iter().map(|i| i + part.base));
                }
            }
        }
        self.metrics.segments_scanned.add(scanned);
        self.metrics.zone_pruned.add(zone_pruned);
        self.metrics.bloom_pruned.add(bloom_pruned);
        self.metrics.object_pruned.add(object_pruned);
        self.metrics.candidates.record(ids.len() as u64);
        if narrowed {
            CandidateSet::Ids(ids)
        } else {
            CandidateSet::All
        }
    }

    /// Plans `p` against the warehouse without executing it, reporting
    /// how many segments zone maps pruned and how many candidates
    /// survive.
    pub fn explain(&self, p: &Predicate) -> SegmentedPlan {
        let object_filter = self.object_segment_filter(p);
        let survives_object = |part: &SegmentPart| match &object_filter {
            Some(filter) => filter.contains(&part.id),
            None => true,
        };
        let object_pruned = self.parts.iter().filter(|p| !survives_object(p)).count();
        let segments = self.store.segments();
        let pruned = self
            .parts
            .iter()
            .enumerate()
            .filter(|(i, part)| survives_object(part) && !zone_may_match(&segments[*i].zone_map, p))
            .count();
        let bloom_pruned = self
            .parts
            .iter()
            .enumerate()
            .filter(|(i, part)| {
                survives_object(part) && zone_bloom_rejects(&segments[*i].zone_map, p)
            })
            .count();
        let candidates = match self.candidates(p) {
            CandidateSet::All => None,
            CandidateSet::Ids(ids) => Some(ids.len()),
        };
        SegmentedPlan {
            segments: self.parts.len(),
            pruned,
            bloom_pruned,
            object_pruned,
            candidates,
            total: self.total,
        }
    }

    /// Matches via the two-stage index path (candidates re-checked).
    /// Identical results, in warehouse order, to
    /// [`SegmentedDb::matching_scan`].
    pub fn matching(&self, p: &Predicate) -> Vec<&SemanticTrajectory> {
        match self.candidates(p) {
            CandidateSet::All => self.matching_scan(p),
            CandidateSet::Ids(ids) => ids
                .into_iter()
                .filter_map(|id| self.get(id))
                .filter(|t| p.matches(t))
                .collect(),
        }
    }

    /// Match count via the index path (equals
    /// [`SegmentedDb::count_matching_scan`]).
    pub fn count_matching(&self, p: &Predicate) -> usize {
        match self.candidates(p) {
            CandidateSet::All => self.count_matching_scan(p),
            CandidateSet::Ids(ids) => ids
                .into_iter()
                .filter_map(|id| self.get(id))
                .filter(|t| p.matches(t))
                .count(),
        }
    }

    /// The index-free reference: evaluates `p` against every
    /// trajectory in every segment. Kept public as the differential
    /// baseline the pruned path is tested (and benchmarked) against.
    pub fn matching_scan(&self, p: &Predicate) -> Vec<&SemanticTrajectory> {
        self.iter().filter(|t| p.matches(t)).collect()
    }

    /// Scan-path twin of [`SegmentedDb::count_matching`].
    pub fn count_matching_scan(&self, p: &Predicate) -> usize {
        self.iter().filter(|t| p.matches(t)).count()
    }
}

impl std::fmt::Debug for SegmentedDb {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SegmentedDb")
            .field("segments", &self.parts.len())
            .field("trajectories", &self.total)
            .finish()
    }
}

impl TrajectorySource for SegmentedDb {
    fn for_each_trajectory(&self, f: &mut dyn FnMut(&SemanticTrajectory)) {
        for t in self.iter() {
            f(t);
        }
    }

    fn len_hint(&self) -> usize {
        self.total
    }

    fn candidates(&self, predicate: &Predicate) -> CandidateSet {
        SegmentedDb::candidates(self, predicate)
    }

    fn for_each_candidate(&self, predicate: &Predicate, f: &mut dyn FnMut(&SemanticTrajectory)) {
        match SegmentedDb::candidates(self, predicate) {
            CandidateSet::All => self.for_each_trajectory(f),
            CandidateSet::Ids(ids) => {
                for id in ids {
                    if let Some(t) = self.get(id) {
                        f(t);
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sitm_core::{
        Annotation, AnnotationSet, Duration, PresenceInterval, TimeInterval, Timestamp, Trace,
        TransitionTaken,
    };
    use sitm_graph::{LayerIdx, NodeId};
    use sitm_space::CellRef;
    use std::path::PathBuf;
    use std::sync::atomic::{AtomicU64, Ordering};

    static NEXT: AtomicU64 = AtomicU64::new(0);

    struct TempDir(PathBuf);

    impl TempDir {
        fn new(tag: &str) -> TempDir {
            let n = NEXT.fetch_add(1, Ordering::Relaxed);
            let dir = std::env::temp_dir()
                .join(format!("sitm-segmented-{tag}-{}-{n}", std::process::id()));
            let _ = std::fs::remove_dir_all(&dir);
            TempDir(dir)
        }
    }

    impl Drop for TempDir {
        fn drop(&mut self) {
            let _ = std::fs::remove_dir_all(&self.0);
        }
    }

    fn cell(n: usize) -> CellRef {
        CellRef::new(LayerIdx::from_index(0), NodeId::from_index(n))
    }

    fn traj(mo: &str, stays: &[(usize, i64, i64)], goal: &str) -> SemanticTrajectory {
        let intervals = stays
            .iter()
            .map(|&(c, s, e)| {
                PresenceInterval::new(
                    TransitionTaken::Unknown,
                    cell(c),
                    Timestamp(s),
                    Timestamp(e),
                )
            })
            .collect();
        SemanticTrajectory::new(
            mo,
            Trace::new(intervals).unwrap(),
            AnnotationSet::from_iter([Annotation::goal(goal)]),
        )
        .unwrap()
    }

    fn open(tmp: &TempDir) -> SegmentedDb {
        SegmentedDb::open(&tmp.0, WarehouseConfig::default())
            .expect("open")
            .0
    }

    #[test]
    fn zone_pruning_is_sound_for_every_leaf() {
        let trajs = vec![
            traj("a", &[(1, 0, 100)], "visit"),
            traj("b", &[(2, 50, 300)], "buy"),
        ];
        let zone = ZoneMap::build(&trajs);
        let window = TimeInterval::new(Timestamp(0), Timestamp(400));
        let cases = [
            (Predicate::True, true),
            (Predicate::VisitedCell(cell(1)), true),
            (Predicate::VisitedCell(cell(9)), false),
            (Predicate::SequenceContains(vec![cell(1), cell(9)]), false),
            (Predicate::SpanOverlaps(window), true),
            (
                Predicate::SpanOverlaps(TimeInterval::new(Timestamp(500), Timestamp(600))),
                false,
            ),
            (Predicate::StayOverlaps(cell(9), window), false),
            (
                Predicate::HasTrajAnnotation(Annotation::goal("visit")),
                true,
            ),
            (
                Predicate::HasTrajAnnotation(Annotation::goal("nope")),
                false,
            ),
            (
                Predicate::HasStayAnnotation(Annotation::goal("visit")),
                false,
            ),
            // Never pruned: overlapping stays can push total dwell past
            // the zone's span, so no span-derived bound is sound.
            (Predicate::MinTotalDwell(Duration::seconds(301)), true),
            (Predicate::MinStayIn(cell(9), Duration::seconds(1)), false),
            (Predicate::MovingObject("a".into()), true),
            (Predicate::MovingObject("z".into()), false),
            (Predicate::VisitedCell(cell(9)).not(), true),
            (
                Predicate::VisitedCell(cell(1)).and(Predicate::MovingObject("z".into())),
                false,
            ),
            (
                Predicate::VisitedCell(cell(9)).or(Predicate::MovingObject("a".into())),
                true,
            ),
            (Predicate::Or(vec![]), false),
        ];
        for (p, expected) in cases {
            assert_eq!(zone_may_match(&zone, &p), expected, "for {p}");
            if !expected {
                // Pruning must be sound: nothing in the segment matches.
                assert!(
                    trajs.iter().all(|t| !p.matches(t)),
                    "pruned a matching trajectory for {p}"
                );
            }
        }
        // Empty segments prune everything.
        assert!(!zone_may_match(&ZoneMap::default(), &Predicate::True));
    }

    #[test]
    fn bloom_rejection_is_sound_and_visible_in_plans() {
        let tmp = TempDir::new("bloom");
        let mut db = open(&tmp);
        // Two object/cell-disjoint segments.
        db.flush(vec![traj("a", &[(1, 0, 100)], "visit")]).unwrap();
        db.flush(vec![traj("b", &[(2, 1000, 1100)], "visit")])
            .unwrap();
        assert_eq!(db.segments().len(), 2);
        // A point predicate matching nothing anywhere: blooms (no
        // false negatives) must reject every segment, and the indexed
        // path must agree with the scan.
        for p in [
            Predicate::MovingObject("nobody".into()),
            Predicate::VisitedCell(cell(9)),
            Predicate::MovingObject("a".into()).and(Predicate::VisitedCell(cell(2))),
        ] {
            let plan = db.explain(&p);
            assert!(plan.bloom_pruned <= plan.pruned, "for {p}");
            assert_eq!(db.matching(&p).len(), db.matching_scan(&p).len(), "{p}");
        }
        // A wholly absent object is pruned by the *global object index*
        // before any zone map or bloom filter is consulted.
        let absent = Predicate::MovingObject("nobody".into());
        let plan = db.explain(&absent);
        assert_eq!(plan.object_pruned, 2, "object index rejects both segments");
        assert_eq!(plan.pruned, 0, "zone maps never consulted");
        assert_eq!(plan.candidates, Some(0));
        // An absent *cell* has no object structure: the zone/bloom tier
        // still does that work.
        let absent_cell = Predicate::VisitedCell(cell(9));
        let plan = db.explain(&absent_cell);
        assert_eq!(plan.object_pruned, 0);
        assert_eq!(plan.pruned, 2);
        assert_eq!(
            plan.bloom_pruned, 2,
            "blooms alone reject a wholly absent cell"
        );
        // A present value is never bloom-rejected in its home segment.
        for s in db.segments() {
            for t in s.trajectories().unwrap().iter() {
                assert!(!zone_bloom_rejects(
                    &s.zone_map,
                    &Predicate::MovingObject(t.moving_object.clone())
                ));
                for stay in t.trace().intervals() {
                    assert!(!zone_bloom_rejects(
                        &s.zone_map,
                        &Predicate::VisitedCell(stay.cell)
                    ));
                }
            }
        }
        // Structural cases blooms cannot answer.
        assert!(!zone_bloom_rejects(
            &db.segments()[0].zone_map,
            &Predicate::Or(vec![])
        ));
        assert!(!zone_bloom_rejects(
            &db.segments()[0].zone_map,
            &Predicate::VisitedCell(cell(9)).not()
        ));
    }

    #[test]
    fn flush_builds_segments_and_ids_follow_warehouse_order() {
        let tmp = TempDir::new("order");
        let mut db = open(&tmp);
        db.flush(vec![
            traj("b", &[(1, 100, 200)], "visit"),
            traj("a", &[(0, 0, 50)], "visit"),
        ])
        .unwrap();
        db.flush(vec![traj("c", &[(2, 300, 400)], "buy")]).unwrap();
        assert_eq!(db.len(), 3);
        // Within the first segment the run is sorted by span start.
        let order: Vec<&str> = db.iter().map(|t| t.moving_object.as_str()).collect();
        assert_eq!(order, vec!["a", "b", "c"]);
        assert_eq!(db.get(0).unwrap().moving_object, "a");
        assert_eq!(db.get(2).unwrap().moving_object, "c");
        assert!(db.get(3).is_none());
    }

    #[test]
    fn candidates_prune_and_agree_with_scan() {
        let tmp = TempDir::new("prune");
        let mut db = open(&tmp);
        // Disable size-tiering side effects by flushing distinct sizes?
        // Two segments of 2 stay under the default fanout of 4.
        db.flush(vec![
            traj("a", &[(1, 0, 100)], "visit"),
            traj("b", &[(2, 0, 100)], "visit"),
        ])
        .unwrap();
        db.flush(vec![
            traj("c", &[(3, 1000, 1100)], "buy"),
            traj("d", &[(4, 1000, 1100)], "buy"),
        ])
        .unwrap();
        assert_eq!(db.segments().len(), 2);
        let p = Predicate::VisitedCell(cell(1));
        let plan = db.explain(&p);
        assert_eq!(plan.segments, 2);
        assert_eq!(plan.pruned, 1, "the buy segment has no cell 1");
        assert!(
            plan.bloom_pruned <= plan.pruned,
            "bloom rejections are a subset of zone-map prunes"
        );
        assert_eq!(plan.candidates, Some(1));
        for p in [
            Predicate::VisitedCell(cell(1)),
            Predicate::MovingObject("d".into()),
            Predicate::SpanOverlaps(TimeInterval::new(Timestamp(0), Timestamp(50))),
            Predicate::HasTrajAnnotation(Annotation::goal("buy")),
            Predicate::True,
            Predicate::VisitedCell(cell(1)).not(),
        ] {
            let indexed: Vec<&str> = db
                .matching(&p)
                .iter()
                .map(|t| t.moving_object.as_str())
                .collect();
            let scanned: Vec<&str> = db
                .matching_scan(&p)
                .iter()
                .map(|t| t.moving_object.as_str())
                .collect();
            assert_eq!(indexed, scanned, "diverged for {p}");
            assert_eq!(db.count_matching(&p), db.count_matching_scan(&p));
        }
    }

    #[test]
    fn cold_queries_hydrate_only_surviving_segments() {
        let tmp = TempDir::new("cold");
        {
            let mut db = open(&tmp);
            db.flush(vec![traj("a", &[(1, 0, 100)], "visit")]).unwrap();
            db.flush(vec![traj("b", &[(2, 1000, 1100)], "visit")])
                .unwrap();
            assert_eq!(db.segments().len(), 2);
        }
        let db = open(&tmp);
        assert!(
            db.segments().iter().all(|s| !s.is_loaded()),
            "open is cold: headers only"
        );
        assert_eq!(db.len(), 2, "count comes from directories");
        // Rollup aggregates answer from headers alone.
        let cells = db.rollup_cells();
        assert_eq!(cells[&cell(1)].dwell_seconds, 100);
        assert_eq!(cells[&cell(2)].trajectories, 1);
        assert_eq!(db.rollup_occupancy()[&0], 2, "both spans touch period 0");
        // Fully-pruned queries touch nothing.
        assert!(db
            .matching(&Predicate::MovingObject("nobody".into()))
            .is_empty());
        assert!(db.matching(&Predicate::VisitedCell(cell(9))).is_empty());
        assert!(
            db.segments().iter().all(|s| !s.is_loaded()),
            "pruned queries decode nothing"
        );
        // A one-segment point query hydrates only its segment.
        assert_eq!(db.matching(&Predicate::MovingObject("a".into())).len(), 1);
        let loaded: Vec<bool> = db.segments().iter().map(|s| s.is_loaded()).collect();
        assert_eq!(loaded, vec![true, false]);
    }

    #[test]
    fn reopen_preserves_everything_and_compaction_keeps_results() {
        let tmp = TempDir::new("reopen");
        let config = WarehouseConfig {
            fanout: 2,
            ..WarehouseConfig::default()
        };
        let all: Vec<SemanticTrajectory> = (0..6)
            .map(|i| {
                traj(
                    &format!("mo-{i}"),
                    &[(i % 3, i as i64 * 10, i as i64 * 10 + 5)],
                    "visit",
                )
            })
            .collect();
        {
            let (mut db, _) = SegmentedDb::open(&tmp.0, config).unwrap();
            for chunk in all.chunks(2) {
                db.flush(chunk.to_vec()).unwrap();
            }
            // fanout 2: everything coalesces into few segments.
            assert!(db.segments().len() <= 2);
            assert_eq!(db.len(), 6);
        }
        let (db, report) = SegmentedDb::open(&tmp.0, config).unwrap();
        assert!(report.is_clean());
        assert_eq!(db.len(), 6);
        // Content is preserved as a multiset.
        let mut got: Vec<String> = db.iter().map(|t| t.moving_object.clone()).collect();
        got.sort();
        let mut want: Vec<String> = all.iter().map(|t| t.moving_object.clone()).collect();
        want.sort();
        assert_eq!(got, want);
    }

    #[test]
    fn federation_face_matches_trajectory_db() {
        let tmp = TempDir::new("federate");
        let mut db = open(&tmp);
        db.flush(vec![
            traj("a", &[(1, 0, 100)], "visit"),
            traj("b", &[(2, 50, 150)], "visit"),
        ])
        .unwrap();
        let reference = TrajectoryDb::build(db.iter().cloned().collect());
        let p = Predicate::VisitedCell(cell(1));
        let from_seg: Vec<String> = crate::federation::federated_matching(&p, &[&db])
            .into_iter()
            .map(|t| t.moving_object)
            .collect();
        let from_db: Vec<String> = crate::federation::federated_matching(&p, &[&reference])
            .into_iter()
            .map(|t| t.moving_object)
            .collect();
        assert_eq!(from_seg, from_db);
        assert_eq!(TrajectorySource::len_hint(&db), 2);
        // An empty warehouse federates as nothing.
        let empty_tmp = TempDir::new("federate-empty");
        let empty = open(&empty_tmp);
        assert_eq!(
            crate::federation::federated_count(&Predicate::True, &[&empty]),
            0
        );
        assert!(empty.is_empty());
    }
}
