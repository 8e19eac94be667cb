//! The seeded corpus: a pool of calibrated Louvre days, replicated as
//! day-shifted (+24 h per day), id-suffixed (`-d{day}`) copies, plus
//! the small deterministic RNG and Zipf sampler the workloads draw from.
//!
//! Everything here is a pure function of the seed; the server only
//! ever sees the events and queries built from it.

use sitm_core::{
    Annotation, AnnotationSet, Duration, IntervalPredicate, SemanticTrajectory, TimeInterval,
    Timestamp, Trace,
};
use sitm_louvre::{
    build_louvre, generate_dataset, zone_key, GeneratorConfig, LouvreModel, PaperCalibration,
};
use sitm_query::wire::WireQuery;
use sitm_query::{Predicate, SortKey, TrajectoryDb};
use sitm_stream::event::sort_feed;
use sitm_stream::{visit_trajectories, EngineConfig, StreamEvent, VisitKey};

/// Distinct base days generated per seed; day `d` replays base day
/// `d % POOL_DAYS`, shifted and suffixed.
pub const POOL_DAYS: usize = 8;
const DAY_SECONDS: i64 = 86_400;
/// Visit keys are `day * KEY_STRIDE + index`, unique across days.
const KEY_STRIDE: u64 = 1_000_000;

/// SplitMix64: a tiny seeded generator (the workloads need no more).
pub struct Rng(u64);

impl Rng {
    /// A generator seeded from `seed` and a stream tag, so two streams
    /// of one seed never share draws.
    pub fn new(seed: u64, stream: u64) -> Rng {
        Rng(seed ^ stream.wrapping_mul(0xA076_1D64_78BD_642F))
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `[0, n)`; `n` must be positive.
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }
}

/// Zipf(s) over ranks `0..n` by inverse-CDF lookup.
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    /// The distribution over `n` ranks with exponent `s`.
    pub fn new(n: usize, s: f64) -> Zipf {
        let mut acc = 0.0;
        let mut cdf: Vec<f64> = (0..n)
            .map(|k| {
                acc += 1.0 / ((k + 1) as f64).powf(s);
                acc
            })
            .collect();
        for c in &mut cdf {
            *c /= acc;
        }
        Zipf { cdf }
    }

    /// One rank.
    pub fn sample(&self, rng: &mut Rng) -> usize {
        let u = rng.unit();
        self.cdf.partition_point(|&c| c < u).min(self.cdf.len() - 1)
    }
}

/// The building model plus the pool of base days, each sorted by start
/// with pairwise-distinct starts (so `order Start` has no ties and every
/// page boundary is exact).
pub struct Corpus {
    model: LouvreModel,
    base: Vec<Vec<SemanticTrajectory>>,
}

impl Corpus {
    /// Builds the model and the `POOL_DAYS` base days of `seed`.
    pub fn generate(seed: u64) -> Corpus {
        let model = build_louvre();
        let day0 = Timestamp::from_ymd_hms(2017, 1, 19, 0, 0, 0);
        let base = (0..POOL_DAYS)
            .map(|i| {
                let calibration = PaperCalibration {
                    visits: 500,
                    visitors: 400,
                    returning_visitors: 100,
                    revisits: 100,
                    detections: 2_500,
                    transitions: 2_000,
                    collection_start: day0,
                    collection_end: day0,
                    ..PaperCalibration::default()
                };
                let dataset = generate_dataset(&GeneratorConfig {
                    seed: Rng::new(seed, i as u64).next_u64(),
                    calibration,
                    ..GeneratorConfig::default()
                });
                let mut day: Vec<SemanticTrajectory> = visit_trajectories(&model, &dataset)
                    .into_iter()
                    .map(|(_, t)| t)
                    .collect();
                day.sort_by_key(SemanticTrajectory::start);
                day.dedup_by_key(|t| t.start());
                // Day windows must not overlap: every visit starts in
                // museum hours and ends before the next day opens, so a
                // span query over one day's window sees that day only.
                let opens = day0 + Duration::hours(9);
                let closes = day0 + Duration::hours(17);
                let next_opens = day0 + Duration::hours(24 + 9);
                assert!(
                    day.iter()
                        .all(|t| t.start() >= opens && t.start() < closes && t.end() < next_opens),
                    "base day {i} leaves its day window"
                );
                day
            })
            .collect();
        Corpus { model, base }
    }

    /// Day `d`'s trajectories, sorted by start.
    pub fn day(&self, d: usize) -> Vec<SemanticTrajectory> {
        self.base[d % POOL_DAYS]
            .iter()
            .map(|t| shifted(t, d))
            .collect()
    }

    /// Trajectories in day `d` (without materializing them).
    pub fn day_len(&self, d: usize) -> usize {
        self.base[d % POOL_DAYS].len()
    }

    /// Rows `range` of day `d` in start order (the expected page).
    pub fn day_rows(&self, d: usize, range: std::ops::Range<usize>) -> Vec<SemanticTrajectory> {
        let base = &self.base[d % POOL_DAYS];
        let range = range.start.min(base.len())..range.end.min(base.len());
        base[range].iter().map(|t| shifted(t, d)).collect()
    }

    /// Events in day `d`'s feed (without materializing them).
    pub fn day_event_count(&self, d: usize) -> u64 {
        self.base[d % POOL_DAYS]
            .iter()
            .map(|t| 2 + t.trace().len() as u64)
            .sum()
    }

    /// Day `d` as the time-ordered event feed a live deployment sees.
    pub fn day_events(&self, d: usize) -> Vec<StreamEvent> {
        let mut events = Vec::new();
        for (i, t) in self.day(d).into_iter().enumerate() {
            let visit = VisitKey(d as u64 * KEY_STRIDE + i as u64);
            events.push(StreamEvent::VisitOpened {
                visit,
                moving_object: t.moving_object.clone(),
                annotations: t.annotations().clone(),
                at: t.start(),
            });
            for interval in t.trace().intervals() {
                events.push(StreamEvent::Presence {
                    visit,
                    interval: interval.clone(),
                });
            }
            events.push(StreamEvent::VisitClosed { visit, at: t.end() });
        }
        sort_feed(&mut events);
        events
    }

    /// A window that day `d`'s visits all overlap and no other day's do.
    pub fn day_window(&self, d: usize) -> TimeInterval {
        let opens = Timestamp::from_ymd_hms(2017, 1, 19, 9, 0, 0) + day_shift(d);
        TimeInterval::new(opens, opens + Duration::hours(8))
    }

    /// The engine configuration every server and in-process engine of
    /// the benchmark uses: exit chain, long stay, whole visit.
    pub fn engine_config(&self) -> EngineConfig {
        let model = &self.model;
        let exit_chain = [60887u32, 60888, 60890]
            .map(|id| model.space.resolve(&zone_key(id)).expect("zone resolves"));
        EngineConfig::new(vec![
            (
                IntervalPredicate::in_cells(exit_chain),
                label("exit museum"),
            ),
            (
                IntervalPredicate::min_duration(Duration::minutes(5)),
                label("long stay"),
            ),
            (IntervalPredicate::any(), label("whole visit")),
        ])
    }
}

/// The naive oracle: `query` evaluated by `Query::execute` over an
/// in-memory database.
pub fn oracle(db: &TrajectoryDb, query: &WireQuery) -> Vec<SemanticTrajectory> {
    query
        .to_query()
        .execute(db)
        .into_iter()
        .map(|m| m.trajectory.clone())
        .collect()
}

/// The point query: one visitor's visits, earliest first, at most 10.
pub fn point_query(visitor: &str) -> WireQuery {
    WireQuery {
        predicate: Predicate::MovingObject(visitor.to_string()),
        order: Some((SortKey::Start, true)),
        offset: 0,
        limit: Some(10),
    }
}

/// The page query: `limit` rows of one day's visits from `offset`, in
/// start order.
pub fn day_page(corpus: &Corpus, day: usize, offset: usize, limit: usize) -> WireQuery {
    WireQuery {
        predicate: Predicate::SpanOverlaps(corpus.day_window(day)),
        order: Some((SortKey::Start, true)),
        offset: offset as u64,
        limit: Some(limit as u64),
    }
}

fn label(s: &str) -> AnnotationSet {
    AnnotationSet::from_iter([Annotation::goal(s)])
}

fn day_shift(d: usize) -> Duration {
    Duration::seconds(d as i64 * DAY_SECONDS)
}

fn shifted(t: &SemanticTrajectory, d: usize) -> SemanticTrajectory {
    let shift = day_shift(d);
    let intervals = t
        .trace()
        .intervals()
        .iter()
        .map(|p| {
            let mut p = p.clone();
            p.time = TimeInterval::new(p.time.start + shift, p.time.end + shift);
            p
        })
        .collect();
    SemanticTrajectory::new(
        format!("{}-d{d}", t.moving_object),
        Trace::new(intervals).expect("a shifted trace stays valid"),
        t.annotations().clone(),
    )
    .expect("a shifted trajectory stays valid")
}
