//! Live queries over in-flight shard state.
//!
//! The batch query stack (`sitm-query`) sees trajectories only after
//! their visits close and drain. This module makes the *live* state
//! visible too: every open visit's trajectory prefix — the
//! moving-object meta-model's "spatio-temporal predicates over live
//! trajectories" served straight from the engine.
//!
//! ## Snapshot consistency
//!
//! A [`LiveSnapshot`] is a *consistent cut*: the engine produces it by
//! flushing every shard inbox, then capturing every shard's state at
//! one point in the command order, so an event is either entirely
//! visible (its effects on the prefix and the live index both present)
//! or entirely absent: every event ingested before the call is applied
//! before the capture, everything after is excluded.
//!
//! The undrained episode pool is **not** part of a snapshot: no query
//! reads it, and without a subscriber draining it the pool grows with
//! every episode emitted, so copying it into every cut (and freeing it
//! with every invalidated cut) made each cut cost O(history). Callers
//! that want the pool take it from the engine at the same cut —
//! `pending_episodes()` is a flushed, drain-ordered clone, equal to
//! what a `drain` right after it returns.
//!
//! Prefix visibility requires interval retention
//! ([`crate::EngineConfig::with_live_queries`]); without it, open visits
//! are counted in [`LiveSnapshot::unqueryable`] rather than silently
//! missing.
//!
//! ## The live index and its consistency model
//!
//! Each shard maintains a [`LiveIndex`] *incrementally* — cell postings,
//! moving-object postings, and a span-start order are updated as events
//! are accepted, never rebuilt per query (see [`crate::live_index`]).
//! A snapshot carries the union of the shard indexes **from the same
//! cut** as its visits: because the index is advanced inside the same
//! event application that extends the prefixes, an index captured after
//! a flush can neither lead nor trail the visible trajectories.
//! There is no "mid-update" window a caller can observe; the
//! drain-point consistency tests pin indexed results == scan results at
//! every cut, including cuts taken between incremental drains.
//!
//! [`LiveSnapshot::candidates`] narrows a `sitm_query::Predicate` to a
//! [`CandidateSet`] exactly like `TrajectoryDb::candidates` does on the
//! warehouse side: lookups return *sound supersets* and
//! [`LiveSnapshot::matching`] / [`LiveSnapshot::count_matching`]
//! re-check the full predicate on each candidate, so indexed results are
//! always identical to the scan path ([`LiveSnapshot::matching_scan`]).
//! If a snapshot's index does not cover every visit (hand-assembled
//! snapshots, pre-index producers), candidate narrowing degrades to
//! [`CandidateSet::All`] — a full scan — rather than losing matches.
//!
//! `sitm_query::Query::explain_source` reports the access path this
//! produces: `IndexCandidates { .. }` whenever the snapshot's index
//! covers all visits **and** the predicate has an indexable leaf
//! (`VisitedCell`, `MinStayIn`, `StayOverlaps`, `SequenceContains`,
//! `SpanOverlaps`, `MovingObject`, or any `And`/`Or` over those);
//! `FullScan` otherwise.
//!
//! Federation: [`LiveSnapshot`] implements
//! [`sitm_query::TrajectorySource`] — including its index-consulting
//! `candidates`/`for_each_candidate` face — so one `sitm_query::Predicate`
//! can be evaluated over the union of several engines' live state and
//! any number of warehouse [`sitm_query::TrajectoryDb`]s via
//! `sitm_query::federated_*`, with every indexed source narrowed through
//! its own postings.

use sitm_core::{SemanticTrajectory, Timestamp};
use sitm_query::{CandidateSet, Predicate, TrajId, TrajectorySource};

use crate::event::VisitKey;
use crate::live_index::LiveIndex;

/// One open visit's queryable prefix.
#[derive(Debug, Clone, PartialEq)]
pub struct LiveVisit {
    /// The visit.
    pub visit: VisitKey,
    /// The trajectory observed so far (intervals accepted up to the
    /// snapshot cut).
    pub trajectory: SemanticTrajectory,
}

/// One shard's contribution to a live snapshot.
#[derive(Debug, Clone, PartialEq)]
pub struct ShardLive {
    /// Open visits with a queryable prefix, ordered by visit key.
    pub visits: Vec<LiveVisit>,
    /// The shard's high-water mark.
    pub watermark: Option<Timestamp>,
    /// Open visits without a queryable prefix (retention off, no interval
    /// accepted yet, or an empty annotation set).
    pub unqueryable: usize,
    /// The shard's incremental postings at the same cut.
    pub index: LiveIndex,
}

/// A consistent cut of an engine's live state: the union of every
/// shard's open-visit prefixes and live postings.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct LiveSnapshot {
    /// Open visits with queryable prefixes, ordered by visit key.
    pub visits: Vec<LiveVisit>,
    /// The engine watermark at the cut (minimum across populated shards).
    pub watermark: Option<Timestamp>,
    /// Open visits that could not be queried (see [`ShardLive::unqueryable`]).
    pub unqueryable: usize,
    /// Union of the shard indexes at the cut.
    index: LiveIndex,
    /// True when every visit in `visits` is covered by `index`, which is
    /// what makes candidate narrowing sound. Hand-assembled snapshots
    /// without postings fall back to scanning.
    index_complete: bool,
    /// The persistent id map (ROADMAP follow-on): visit key → position
    /// in the sorted `visits` vector, built **once** at snapshot
    /// assembly. Candidate translation used to binary-search `visits`
    /// for every posting entry of every query; now each lookup is one
    /// O(1) probe of a map that persists for the snapshot's lifetime.
    positions: std::collections::HashMap<u64, TrajId>,
}

impl LiveSnapshot {
    /// Assembles the engine-level snapshot from per-shard cuts.
    pub fn from_shards(shards: Vec<ShardLive>) -> LiveSnapshot {
        let mut visits = Vec::new();
        let mut unqueryable = 0;
        let mut watermark: Option<Timestamp> = None;
        let mut index = LiveIndex::new();
        for shard in shards {
            visits.extend(shard.visits);
            unqueryable += shard.unqueryable;
            index.absorb(shard.index);
            watermark = match (watermark, shard.watermark) {
                (Some(a), Some(b)) => Some(a.min(b)),
                (a, b) => a.or(b),
            };
        }
        visits.sort_by_key(|v| v.visit);
        // Candidate narrowing is sound only when postings cover every
        // visit AND keys are unique: a key duplicated across merged
        // snapshots (overlapping engines, replicated feeds) would
        // binary-search to a single position and lose its twin, so such
        // merges keep the scan path.
        let duplicated = visits.windows(2).any(|w| w[0].visit == w[1].visit);
        let index_complete = !duplicated && visits.iter().all(|v| index.contains(v.visit.0));
        let positions = visits
            .iter()
            .enumerate()
            .map(|(i, v)| (v.visit.0, i as TrajId))
            .collect();
        LiveSnapshot {
            visits,
            watermark,
            unqueryable,
            index,
            index_complete,
            positions,
        }
    }

    /// Merges snapshots from several engines (multi-site federation).
    /// Each input keeps its own cut; the merge is the plain union.
    pub fn merge(parts: impl IntoIterator<Item = LiveSnapshot>) -> LiveSnapshot {
        let shards = parts
            .into_iter()
            .map(|p| ShardLive {
                visits: p.visits,
                watermark: p.watermark,
                unqueryable: p.unqueryable,
                index: p.index,
            })
            .collect();
        LiveSnapshot::from_shards(shards)
    }

    /// Position of a visit key in the sorted `visits` vector — one
    /// probe of the persistent id map built at snapshot assembly (the
    /// per-query binary search this replaces was the last repeated
    /// translation cost on the live query path).
    fn position(&self, key: u64) -> Option<TrajId> {
        self.positions.get(&key).copied()
    }

    /// Translates a posting (visit keys) into snapshot positions.
    /// Unknown keys (indexed but unqueryable visits) are dropped; keys
    /// arrive in ascending order only from the key-ordered postings, so
    /// sort + dedup keeps the contract cheap and unconditional.
    fn posting(&self, keys: impl Iterator<Item = u64>) -> CandidateSet {
        let mut ids: Vec<TrajId> = keys.filter_map(|k| self.position(k)).collect();
        ids.sort_unstable();
        ids.dedup();
        CandidateSet::Ids(ids)
    }

    /// Derives a candidate superset for `p` from the live postings —
    /// the streaming twin of `TrajectoryDb::candidates`. Soundness
    /// invariant (differentially tested): every open visit matching `p`
    /// is in the returned set; the set may contain non-matches and the
    /// caller re-filters. Returns [`CandidateSet::All`] whenever the
    /// index cannot narrow (unindexable leaves, or an index that does
    /// not cover every visit).
    pub fn candidates(&self, p: &Predicate) -> CandidateSet {
        if !self.index_complete {
            return CandidateSet::All;
        }
        self.candidates_inner(p)
    }

    fn candidates_inner(&self, p: &Predicate) -> CandidateSet {
        match p {
            Predicate::True
            | Predicate::MinTotalDwell(_)
            | Predicate::Not(_)
            | Predicate::HasTrajAnnotation(_)
            | Predicate::HasStayAnnotation(_) => CandidateSet::All,
            Predicate::VisitedCell(cell) | Predicate::MinStayIn(cell, _) => {
                self.posting(self.index.visits_in_cell(*cell))
            }
            Predicate::SequenceContains(cells) => cells
                .iter()
                .map(|c| self.posting(self.index.visits_in_cell(*c)))
                .fold(CandidateSet::All, CandidateSet::intersect),
            Predicate::SpanOverlaps(window) => {
                self.posting(self.index.visits_started_by(window.end))
            }
            Predicate::StayOverlaps(cell, window) => self
                .posting(self.index.visits_in_cell(*cell))
                .intersect(self.posting(self.index.visits_started_by(window.end))),
            Predicate::MovingObject(id) => self.posting(self.index.visits_of_object(id)),
            Predicate::And(parts) => parts
                .iter()
                .map(|q| self.candidates_inner(q))
                .fold(CandidateSet::All, CandidateSet::intersect),
            Predicate::Or(parts) => {
                if parts.is_empty() {
                    return CandidateSet::Ids(Vec::new());
                }
                let mut acc = CandidateSet::Ids(Vec::new());
                for q in parts {
                    acc = acc.union(self.candidates_inner(q));
                    if acc == CandidateSet::All {
                        break;
                    }
                }
                acc
            }
        }
    }

    /// Open visits whose prefix satisfies the predicate, served through
    /// the live index (candidates narrowed, then re-checked). Identical
    /// results, in the same visit-key order, as
    /// [`LiveSnapshot::matching_scan`].
    pub fn matching(&self, predicate: &Predicate) -> Vec<&LiveVisit> {
        match self.candidates(predicate) {
            CandidateSet::All => self.matching_scan(predicate),
            CandidateSet::Ids(ids) => ids
                .into_iter()
                .map(|id| &self.visits[id as usize])
                .filter(|v| predicate.matches(&v.trajectory))
                .collect(),
        }
    }

    /// Number of open visits whose prefix satisfies the predicate
    /// (index-narrowed; equals [`LiveSnapshot::count_matching_scan`]).
    pub fn count_matching(&self, predicate: &Predicate) -> usize {
        match self.candidates(predicate) {
            CandidateSet::All => self.count_matching_scan(predicate),
            CandidateSet::Ids(ids) => ids
                .into_iter()
                .filter(|&id| predicate.matches(&self.visits[id as usize].trajectory))
                .count(),
        }
    }

    /// The index-free reference: evaluates the predicate against every
    /// open prefix. Kept public as the differential baseline the
    /// indexed path is tested (and benchmarked) against.
    pub fn matching_scan(&self, predicate: &Predicate) -> Vec<&LiveVisit> {
        self.visits
            .iter()
            .filter(|v| predicate.matches(&v.trajectory))
            .collect()
    }

    /// Scan-path twin of [`LiveSnapshot::count_matching`].
    pub fn count_matching_scan(&self, predicate: &Predicate) -> usize {
        self.visits
            .iter()
            .filter(|v| predicate.matches(&v.trajectory))
            .count()
    }
}

impl TrajectorySource for LiveSnapshot {
    fn for_each_trajectory(&self, f: &mut dyn FnMut(&SemanticTrajectory)) {
        for v in &self.visits {
            f(&v.trajectory);
        }
    }

    fn len_hint(&self) -> usize {
        self.visits.len()
    }

    fn candidates(&self, predicate: &Predicate) -> CandidateSet {
        LiveSnapshot::candidates(self, predicate)
    }

    fn for_each_candidate(&self, predicate: &Predicate, f: &mut dyn FnMut(&SemanticTrajectory)) {
        match LiveSnapshot::candidates(self, predicate) {
            CandidateSet::All => self.for_each_trajectory(f),
            CandidateSet::Ids(ids) => {
                for id in ids {
                    f(&self.visits[id as usize].trajectory);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sitm_core::{
        Annotation, AnnotationSet, PresenceInterval, TimeInterval, Trace, TransitionTaken,
    };
    use sitm_graph::{LayerIdx, NodeId};
    use sitm_space::CellRef;

    fn cell(n: usize) -> CellRef {
        CellRef::new(LayerIdx::from_index(0), NodeId::from_index(n))
    }

    fn live(v: u64, c: usize, start: i64) -> LiveVisit {
        let stay = PresenceInterval::new(
            TransitionTaken::Unknown,
            cell(c),
            Timestamp(start),
            Timestamp(start + 10),
        );
        LiveVisit {
            visit: VisitKey(v),
            trajectory: SemanticTrajectory::new(
                format!("mo-{v}"),
                Trace::new(vec![stay]).unwrap(),
                AnnotationSet::from_iter([Annotation::goal("visit")]),
            )
            .unwrap(),
        }
    }

    /// A ShardLive whose index covers its visits (the shape engines
    /// produce).
    fn shard_live(visits: Vec<LiveVisit>) -> ShardLive {
        let mut index = LiveIndex::new();
        for v in &visits {
            for interval in v.trajectory.trace().intervals() {
                index.observe(v.visit.0, &v.trajectory.moving_object, interval);
            }
        }
        ShardLive {
            visits,
            watermark: None,
            unqueryable: 0,
            index,
        }
    }

    #[test]
    fn from_shards_merges_sorts_and_takes_min_watermark() {
        let snapshot = LiveSnapshot::from_shards(vec![
            ShardLive {
                watermark: Some(Timestamp(40)),
                unqueryable: 1,
                ..shard_live(vec![live(5, 1, 0)])
            },
            ShardLive {
                watermark: Some(Timestamp(25)),
                ..shard_live(vec![live(2, 2, 0)])
            },
            shard_live(vec![]),
        ]);
        assert_eq!(snapshot.visits.len(), 2);
        assert_eq!(snapshot.visits[0].visit, VisitKey(2), "sorted by key");
        assert_eq!(snapshot.watermark, Some(Timestamp(25)), "min across Some");
        assert_eq!(snapshot.unqueryable, 1);
        assert!(snapshot.index_complete, "shards carried their postings");
    }

    #[test]
    fn predicate_and_interval_faces() {
        let snapshot =
            LiveSnapshot::from_shards(vec![shard_live(vec![live(1, 1, 0), live(2, 2, 50)])]);
        let p = Predicate::VisitedCell(cell(1));
        assert_eq!(snapshot.count_matching(&p), 1);
        assert_eq!(snapshot.matching(&p)[0].visit, VisitKey(1));
        // The interval face: open prefixes whose span overlaps a window.
        let window = Predicate::SpanOverlaps(TimeInterval::new(Timestamp(5), Timestamp(20)));
        let hits = snapshot.matching(&window);
        assert_eq!(hits.len(), 1);
        assert_eq!(hits[0].visit, VisitKey(1));
        assert_eq!(snapshot.count_matching(&window), 1);
    }

    #[test]
    fn indexed_candidates_narrow_and_match_the_scan_path() {
        let snapshot = LiveSnapshot::from_shards(vec![shard_live(vec![
            live(1, 1, 0),
            live(2, 2, 100),
            live(3, 1, 200),
        ])]);
        let predicates = [
            Predicate::VisitedCell(cell(1)),
            Predicate::MovingObject("mo-2".into()),
            Predicate::SpanOverlaps(TimeInterval::new(Timestamp(0), Timestamp(50))),
            Predicate::StayOverlaps(cell(1), TimeInterval::new(Timestamp(150), Timestamp(400))),
            Predicate::VisitedCell(cell(1)).and(Predicate::MovingObject("mo-3".into())),
            Predicate::VisitedCell(cell(2)).or(Predicate::MovingObject("mo-1".into())),
            Predicate::SequenceContains(vec![cell(1)]),
            Predicate::True,
        ];
        for p in predicates {
            let indexed: Vec<u64> = snapshot.matching(&p).iter().map(|v| v.visit.0).collect();
            let scanned: Vec<u64> = snapshot
                .matching_scan(&p)
                .iter()
                .map(|v| v.visit.0)
                .collect();
            assert_eq!(indexed, scanned, "indexed != scan for {p}");
            assert_eq!(
                snapshot.count_matching(&p),
                snapshot.count_matching_scan(&p),
                "count diverged for {p}"
            );
        }
        // The narrowing is real: a cell posting beats All.
        match snapshot.candidates(&Predicate::VisitedCell(cell(2))) {
            CandidateSet::Ids(ids) => assert_eq!(ids, vec![1], "position of visit 2"),
            CandidateSet::All => panic!("cell predicate must narrow"),
        }
        // Span narrowing: only visit 1 starts by t=50.
        match snapshot.candidates(&Predicate::SpanOverlaps(TimeInterval::new(
            Timestamp(0),
            Timestamp(50),
        ))) {
            CandidateSet::Ids(ids) => assert_eq!(ids, vec![0]),
            CandidateSet::All => panic!("span predicate must narrow"),
        }
    }

    #[test]
    fn incomplete_index_falls_back_to_scanning() {
        // A hand-assembled shard cut without postings: narrowing would
        // lose matches, so candidates must degrade to All.
        let snapshot = LiveSnapshot::from_shards(vec![ShardLive {
            visits: vec![live(1, 1, 0)],
            watermark: None,
            unqueryable: 0,
            index: LiveIndex::new(),
        }]);
        assert!(!snapshot.index_complete);
        assert_eq!(
            snapshot.candidates(&Predicate::VisitedCell(cell(1))),
            CandidateSet::All
        );
        assert_eq!(snapshot.count_matching(&Predicate::VisitedCell(cell(1))), 1);
    }

    #[test]
    fn overlapping_merges_fall_back_to_scanning_and_lose_nothing() {
        // The same visit key in two merged snapshots (replicated feeds,
        // overlapping engines): a duplicated key cannot be narrowed
        // soundly, so the merge must disable the index path — and the
        // indexed entry points must still count both copies.
        let a = LiveSnapshot::from_shards(vec![shard_live(vec![live(1, 1, 0)])]);
        let b = LiveSnapshot::from_shards(vec![shard_live(vec![live(1, 1, 0), live(2, 2, 0)])]);
        let merged = LiveSnapshot::merge([a, b]);
        assert_eq!(merged.visits.len(), 3);
        assert!(
            !merged.index_complete,
            "duplicated keys force the scan path"
        );
        let p = Predicate::VisitedCell(cell(1));
        assert_eq!(merged.candidates(&p), CandidateSet::All);
        assert_eq!(merged.count_matching(&p), 2, "both copies visible");
        assert_eq!(merged.count_matching(&p), merged.count_matching_scan(&p));
    }

    #[test]
    fn merge_unions_engine_snapshots_and_source_walks_all() {
        let a = LiveSnapshot::from_shards(vec![ShardLive {
            watermark: Some(Timestamp(10)),
            ..shard_live(vec![live(1, 1, 0)])
        }]);
        let b = LiveSnapshot::from_shards(vec![ShardLive {
            unqueryable: 2,
            ..shard_live(vec![live(2, 1, 0)])
        }]);
        let merged = LiveSnapshot::merge([a, b]);
        assert_eq!(merged.visits.len(), 2);
        assert_eq!(merged.unqueryable, 2);
        assert_eq!(merged.watermark, Some(Timestamp(10)));
        assert!(merged.index_complete, "merge carries the postings along");
        assert_eq!(
            sitm_query::federated_count(&Predicate::VisitedCell(cell(1)), &[&merged]),
            2
        );
        assert_eq!(merged.len_hint(), 2);
    }
}
