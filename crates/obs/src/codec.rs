//! A versioned binary codec for [`MetricsSnapshot`] — the payload the
//! serve tier's `Metrics` wire op carries.
//!
//! Layout (all integers LEB128 varints, signed values ZigZag-mapped,
//! strings length-prefixed UTF-8):
//!
//! ```text
//! version: u8 (= 1)
//! counters:   count, then (name, value u64) …
//! gauges:     count, then (name, value i64 zigzag) …
//! histograms: count, then (name, count, sum, max,
//!                          buckets: count, then (index u8, count) …) …
//! slow log:   count, then (op, duration_ns, detail) …
//! ```
//!
//! Decoding is fully validated, the same discipline as the store tier's
//! durable formats: every read is bounds-checked, element counts are
//! capped by the bytes actually remaining (a hostile count cannot force
//! an allocation), strings must be UTF-8, bucket indices must be
//! in-range and strictly increasing, and trailing bytes are rejected.
//! A snapshot truncated at *any* byte offset must decode to an error —
//! never a panic, never a silently different snapshot.

use crate::{HistogramSnapshot, MetricsSnapshot, SlowQuery, HISTOGRAM_BUCKETS};

/// The only format version this build reads or writes.
pub const SNAPSHOT_VERSION: u8 = 1;

/// Why a snapshot failed to decode.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SnapshotCodecError {
    /// The buffer ended mid-value.
    Truncated,
    /// A varint ran past 10 bytes / 64 bits.
    VarintOverflow,
    /// The leading version byte is not [`SNAPSHOT_VERSION`].
    UnsupportedVersion(u8),
    /// A string was not valid UTF-8.
    InvalidUtf8,
    /// A histogram bucket index was out of range or out of order.
    InvalidBucket(u8),
    /// Bytes remained after a complete snapshot.
    TrailingBytes(usize),
    /// A span tree nested past [`crate::trace::MAX_SPAN_DEPTH`] levels.
    TooDeep(usize),
    /// A name index pointed past the frame's interned name table.
    BadNameIndex(u64),
}

impl std::fmt::Display for SnapshotCodecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SnapshotCodecError::Truncated => write!(f, "snapshot truncated"),
            SnapshotCodecError::VarintOverflow => write!(f, "varint overflows u64"),
            SnapshotCodecError::UnsupportedVersion(v) => {
                write!(
                    f,
                    "unsupported snapshot version {v} (expected {SNAPSHOT_VERSION})"
                )
            }
            SnapshotCodecError::InvalidUtf8 => write!(f, "metric name is not valid UTF-8"),
            SnapshotCodecError::InvalidBucket(i) => {
                write!(f, "histogram bucket index {i} out of range or out of order")
            }
            SnapshotCodecError::TrailingBytes(n) => {
                write!(f, "{n} trailing bytes after snapshot")
            }
            SnapshotCodecError::TooDeep(d) => {
                write!(f, "span tree nested {d} levels deep (over the bound)")
            }
            SnapshotCodecError::BadNameIndex(i) => {
                write!(f, "name index {i} past the interned table")
            }
        }
    }
}

impl std::error::Error for SnapshotCodecError {}

// ---------------------------------------------------------------------------
// Primitives (shared with the trace / time-series / health codecs, which
// follow exactly this format's discipline)

pub(crate) fn put_u64(buf: &mut Vec<u8>, mut v: u64) {
    loop {
        let byte = (v & 0x7F) as u8;
        v >>= 7;
        if v == 0 {
            buf.push(byte);
            return;
        }
        buf.push(byte | 0x80);
    }
}

pub(crate) fn put_i64(buf: &mut Vec<u8>, v: i64) {
    put_u64(buf, ((v << 1) ^ (v >> 63)) as u64);
}

pub(crate) fn put_str(buf: &mut Vec<u8>, s: &str) {
    put_u64(buf, s.len() as u64);
    buf.extend_from_slice(s.as_bytes());
}

pub(crate) struct Reader<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    pub(crate) fn new(bytes: &'a [u8]) -> Reader<'a> {
        Reader { bytes, pos: 0 }
    }

    pub(crate) fn remaining(&self) -> usize {
        self.bytes.len() - self.pos
    }

    pub(crate) fn u8(&mut self) -> Result<u8, SnapshotCodecError> {
        let b = *self
            .bytes
            .get(self.pos)
            .ok_or(SnapshotCodecError::Truncated)?;
        self.pos += 1;
        Ok(b)
    }

    pub(crate) fn u64(&mut self) -> Result<u64, SnapshotCodecError> {
        let mut value = 0u64;
        for shift in (0..64).step_by(7) {
            let byte = self.u8()?;
            let low = u64::from(byte & 0x7F);
            if shift == 63 && low > 1 {
                return Err(SnapshotCodecError::VarintOverflow);
            }
            value |= low << shift;
            if byte & 0x80 == 0 {
                return Ok(value);
            }
        }
        Err(SnapshotCodecError::VarintOverflow)
    }

    pub(crate) fn i64(&mut self) -> Result<i64, SnapshotCodecError> {
        let z = self.u64()?;
        Ok(((z >> 1) as i64) ^ -((z & 1) as i64))
    }

    pub(crate) fn str(&mut self) -> Result<String, SnapshotCodecError> {
        let len = usize::try_from(self.u64()?).map_err(|_| SnapshotCodecError::Truncated)?;
        if len > self.remaining() {
            return Err(SnapshotCodecError::Truncated);
        }
        let raw = &self.bytes[self.pos..self.pos + len];
        self.pos += len;
        String::from_utf8(raw.to_vec()).map_err(|_| SnapshotCodecError::InvalidUtf8)
    }

    /// An element count, validated against `min_bytes`-per-element so a
    /// corrupt length can never drive `Vec::with_capacity` past the
    /// buffer it must be parsed from.
    pub(crate) fn count(&mut self, min_bytes: usize) -> Result<usize, SnapshotCodecError> {
        let n = usize::try_from(self.u64()?).map_err(|_| SnapshotCodecError::Truncated)?;
        if n > self.remaining() / min_bytes.max(1) {
            return Err(SnapshotCodecError::Truncated);
        }
        Ok(n)
    }
}

// ---------------------------------------------------------------------------
// Snapshot

/// Appends the encoded snapshot to `buf`.
pub fn encode_snapshot(buf: &mut Vec<u8>, snap: &MetricsSnapshot) {
    buf.push(SNAPSHOT_VERSION);
    put_u64(buf, snap.counters.len() as u64);
    for (name, value) in &snap.counters {
        put_str(buf, name);
        put_u64(buf, *value);
    }
    put_u64(buf, snap.gauges.len() as u64);
    for (name, value) in &snap.gauges {
        put_str(buf, name);
        put_i64(buf, *value);
    }
    put_u64(buf, snap.histograms.len() as u64);
    for (name, h) in &snap.histograms {
        put_str(buf, name);
        put_u64(buf, h.count);
        put_u64(buf, h.sum);
        put_u64(buf, h.max);
        put_u64(buf, h.buckets.len() as u64);
        for &(index, count) in &h.buckets {
            buf.push(index);
            put_u64(buf, count);
        }
    }
    put_u64(buf, snap.slow_queries.len() as u64);
    for q in &snap.slow_queries {
        put_str(buf, &q.op);
        put_u64(buf, q.duration_ns);
        put_str(buf, &q.detail);
    }
}

/// The snapshot as a standalone byte buffer.
pub fn snapshot_to_bytes(snap: &MetricsSnapshot) -> Vec<u8> {
    let mut buf = Vec::new();
    encode_snapshot(&mut buf, snap);
    buf
}

/// Decodes a snapshot that must occupy `bytes` exactly.
pub fn decode_snapshot(bytes: &[u8]) -> Result<MetricsSnapshot, SnapshotCodecError> {
    let mut r = Reader::new(bytes);
    let version = r.u8()?;
    if version != SNAPSHOT_VERSION {
        return Err(SnapshotCodecError::UnsupportedVersion(version));
    }

    // Minimum bytes per element: name len + value (counters/gauges: 2),
    // histograms add count/sum/max/bucket-count (6), slow queries two
    // strings + duration (3).
    let n = r.count(2)?;
    let mut counters = Vec::with_capacity(n);
    for _ in 0..n {
        let name = r.str()?;
        let value = r.u64()?;
        counters.push((name, value));
    }

    let n = r.count(2)?;
    let mut gauges = Vec::with_capacity(n);
    for _ in 0..n {
        let name = r.str()?;
        let value = r.i64()?;
        gauges.push((name, value));
    }

    let n = r.count(6)?;
    let mut histograms = Vec::with_capacity(n);
    for _ in 0..n {
        let name = r.str()?;
        let count = r.u64()?;
        let sum = r.u64()?;
        let max = r.u64()?;
        let buckets_len = r.count(2)?;
        let mut buckets = Vec::with_capacity(buckets_len);
        let mut prev: Option<u8> = None;
        for _ in 0..buckets_len {
            let index = r.u8()?;
            if usize::from(index) >= HISTOGRAM_BUCKETS || prev.is_some_and(|p| index <= p) {
                return Err(SnapshotCodecError::InvalidBucket(index));
            }
            prev = Some(index);
            let bucket_count = r.u64()?;
            buckets.push((index, bucket_count));
        }
        histograms.push((
            name,
            HistogramSnapshot {
                count,
                sum,
                max,
                buckets,
            },
        ));
    }

    let n = r.count(3)?;
    let mut slow_queries = Vec::with_capacity(n);
    for _ in 0..n {
        let op = r.str()?;
        let duration_ns = r.u64()?;
        let detail = r.str()?;
        slow_queries.push(SlowQuery {
            op,
            duration_ns,
            detail,
        });
    }

    if r.remaining() != 0 {
        return Err(SnapshotCodecError::TrailingBytes(r.remaining()));
    }
    Ok(MetricsSnapshot {
        counters,
        gauges,
        histograms,
        slow_queries,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::MetricsRegistry;

    /// A snapshot exercising every section: counters, negative gauges,
    /// multi-bucket histograms, non-ASCII names, and slow-log entries.
    fn sample() -> MetricsSnapshot {
        let registry = MetricsRegistry::new();
        registry.counter("serve.requests.query").add(1_234);
        registry.counter("engine.events_ingested").add(999_999);
        registry.gauge("serve.sessions_active").set(-3);
        registry.gauge("engine.pending_episodes").set(17);
        let h = registry.histogram("serve.handle_ns.query");
        for v in [0, 1, 7, 130, 4_096, 271_000, u64::MAX] {
            h.record(v);
        }
        registry.histogram("query.candidates·µ").record(42);
        registry.set_slow_threshold_ns(1);
        registry.record_slow_with("query_federated", 271_000, || "limit=5 gallery-1 ∪".into());
        registry.record_slow_with("ingest", 9_000_000, String::new);
        registry.snapshot()
    }

    #[test]
    fn roundtrip_preserves_every_section() {
        for snap in [MetricsSnapshot::default(), sample()] {
            let bytes = snapshot_to_bytes(&snap);
            assert_eq!(bytes[0], SNAPSHOT_VERSION);
            assert_eq!(decode_snapshot(&bytes).unwrap(), snap);
        }
    }

    #[test]
    fn rejects_wrong_version_and_trailing_bytes() {
        let mut bytes = snapshot_to_bytes(&sample());
        bytes[0] = 2;
        assert_eq!(
            decode_snapshot(&bytes),
            Err(SnapshotCodecError::UnsupportedVersion(2))
        );
        bytes[0] = SNAPSHOT_VERSION;
        bytes.push(0);
        assert_eq!(
            decode_snapshot(&bytes),
            Err(SnapshotCodecError::TrailingBytes(1))
        );
    }

    /// The warehouse.rs torture idiom: a snapshot cut short at *every*
    /// byte offset must error — never panic, never decode.
    #[test]
    fn truncation_at_every_offset_is_an_error() {
        let bytes = snapshot_to_bytes(&sample());
        for cut in 0..bytes.len() {
            assert!(
                decode_snapshot(&bytes[..cut]).is_err(),
                "decoded a snapshot truncated to {cut}/{} bytes",
                bytes.len()
            );
        }
    }

    /// Flipping any single bit must never panic (and in particular must
    /// never drive an allocation or an out-of-range bucket through):
    /// either the decode errors or it produces some well-formed
    /// snapshot.
    #[test]
    fn bit_flip_at_every_offset_never_panics() {
        let bytes = snapshot_to_bytes(&sample());
        for offset in 0..bytes.len() {
            for bit in 0..8 {
                let mut corrupt = bytes.clone();
                corrupt[offset] ^= 1 << bit;
                let _ = decode_snapshot(&corrupt);
            }
        }
    }

    #[test]
    fn hostile_counts_cannot_force_allocations() {
        // Version byte, then a counter count claiming 2^60 entries with
        // nothing behind it.
        let mut bytes = vec![SNAPSHOT_VERSION];
        put_u64(&mut bytes, 1 << 60);
        assert_eq!(decode_snapshot(&bytes), Err(SnapshotCodecError::Truncated));
    }

    #[test]
    fn rejects_out_of_range_and_unordered_buckets() {
        let histogram = |buckets: Vec<(u8, u64)>| MetricsSnapshot {
            histograms: vec![(
                "h".into(),
                HistogramSnapshot {
                    count: 2,
                    sum: 2,
                    max: 1,
                    buckets,
                },
            )],
            ..MetricsSnapshot::default()
        };
        let oob = snapshot_to_bytes(&histogram(vec![(64, 1)]));
        assert_eq!(
            decode_snapshot(&oob),
            Err(SnapshotCodecError::InvalidBucket(64))
        );
        let unordered = snapshot_to_bytes(&histogram(vec![(5, 1), (3, 1)]));
        assert_eq!(
            decode_snapshot(&unordered),
            Err(SnapshotCodecError::InvalidBucket(3))
        );
    }

    #[test]
    fn varint_overflow_is_an_error() {
        let mut bytes = vec![SNAPSHOT_VERSION];
        bytes.extend_from_slice(&[0xFF; 10]); // 70 set continuation bits
        assert!(matches!(
            decode_snapshot(&bytes),
            Err(SnapshotCodecError::VarintOverflow | SnapshotCodecError::Truncated)
        ));
    }
}
