//! The served liveness surface: one cheap, self-contained
//! [`HealthReport`] a monitor can poll every second.
//!
//! Health answers the questions an operator (or a federation peer
//! deciding where to route) asks *before* reaching for metrics or
//! traces: is the process up, how far behind are the tiers (flush
//! backlog, checkpoint age), how loaded is the
//! serve edge (sessions, subscribers), and how fast is ingest moving
//! right now (derived from the [`crate::timeseries`] sampler's last
//! two frames, not a since-boot average).
//!
//! The report is assembled from values the server already maintains —
//! gauges, the flusher's carry length, the trace recorder's counter —
//! so building one costs a handful of relaxed loads plus one brief
//! epoch read; it is deliberately cheap enough to poll at the sampler
//! period. The codec follows the [`crate::codec`] discipline:
//! versioned, bounds-checked, trailing bytes rejected, torture-tested
//! at every byte offset.

use crate::codec::{put_u64, Reader, SnapshotCodecError};

/// The only health-codec version this build reads or writes. Version 2
/// dropped the per-worker ingest queue depths: an acknowledged batch is
/// an applied batch, so the engine has no queue to report.
pub const HEALTH_VERSION: u8 = 2;

/// A point-in-time liveness summary of one serving process.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct HealthReport {
    /// Milliseconds since the server started.
    pub uptime_ms: u64,
    /// The live engine's snapshot epoch (advances on ingest).
    pub epoch: u64,
    /// Sessions accepted over the server's lifetime.
    pub sessions_accepted: u64,
    /// Sessions currently connected.
    pub sessions_active: u64,
    /// Sessions currently holding a subscription.
    pub subscribers_active: u64,
    /// Trajectories fenced but not yet flushed to the warehouse — the
    /// spill tier's lag.
    pub flush_backlog_trajectories: u64,
    /// Milliseconds since the last successful checkpoint; `None` if
    /// none has completed yet.
    pub last_checkpoint_age_ms: Option<u64>,
    /// Segments currently live in the warehouse manifest.
    pub warehouse_segments: u64,
    /// Trajectories those segments hold.
    pub warehouse_trajectories: u64,
    /// Trace trees recorded since start (0 with tracing disabled).
    pub traces_recorded: u64,
    /// Ingest rate over the sampler's freshest window, in
    /// **milli-events per second** (`1500` = 1.5 events/s) — kept
    /// integral so the report stays `Eq` and the codec stays exact.
    /// 0 until the sampler has a frame pair (or when disabled).
    pub events_per_sec_milli: u64,
}

impl HealthReport {
    /// A compact `sitm-top`-style rendering: one screen, one glance.
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "up {:>8} s   epoch {}   ingest {:.3} ev/s\n",
            self.uptime_ms / 1000,
            self.epoch,
            self.events_per_sec_milli as f64 / 1000.0,
        ));
        out.push_str(&format!(
            "sessions {} active / {} accepted   subscribers {}\n",
            self.sessions_active, self.sessions_accepted, self.subscribers_active,
        ));
        out.push_str(&format!(
            "lag: flush backlog {} trajectories\n",
            self.flush_backlog_trajectories,
        ));
        out.push_str(&format!(
            "warehouse {} segments / {} trajectories   checkpoint {}\n",
            self.warehouse_segments,
            self.warehouse_trajectories,
            match self.last_checkpoint_age_ms {
                Some(ms) => format!("{}s ago", ms / 1000),
                None => "never".to_string(),
            },
        ));
        out.push_str(&format!("traces recorded {}\n", self.traces_recorded));
        out
    }
}

/// Appends the versioned encoding of `report`:
///
/// ```text
/// version: u8 (= 2)
/// uptime_ms, epoch, sessions_accepted, sessions_active,
/// subscribers_active, flush_backlog_trajectories: varints
/// last_checkpoint_age_ms: 0 | (1, varint)
/// warehouse_segments, warehouse_trajectories, traces_recorded,
/// events_per_sec_milli: varints
/// ```
pub fn encode_health(buf: &mut Vec<u8>, report: &HealthReport) {
    buf.push(HEALTH_VERSION);
    put_u64(buf, report.uptime_ms);
    put_u64(buf, report.epoch);
    put_u64(buf, report.sessions_accepted);
    put_u64(buf, report.sessions_active);
    put_u64(buf, report.subscribers_active);
    put_u64(buf, report.flush_backlog_trajectories);
    match report.last_checkpoint_age_ms {
        None => buf.push(0),
        Some(ms) => {
            buf.push(1);
            put_u64(buf, ms);
        }
    }
    put_u64(buf, report.warehouse_segments);
    put_u64(buf, report.warehouse_trajectories);
    put_u64(buf, report.traces_recorded);
    put_u64(buf, report.events_per_sec_milli);
}

/// The report as a standalone byte buffer.
pub fn health_to_bytes(report: &HealthReport) -> Vec<u8> {
    let mut buf = Vec::new();
    encode_health(&mut buf, report);
    buf
}

/// Decodes a report that must occupy `bytes` exactly.
pub fn decode_health(bytes: &[u8]) -> Result<HealthReport, SnapshotCodecError> {
    let mut r = Reader::new(bytes);
    let version = r.u8()?;
    if version != HEALTH_VERSION {
        return Err(SnapshotCodecError::UnsupportedVersion(version));
    }
    let uptime_ms = r.u64()?;
    let epoch = r.u64()?;
    let sessions_accepted = r.u64()?;
    let sessions_active = r.u64()?;
    let subscribers_active = r.u64()?;
    let flush_backlog_trajectories = r.u64()?;
    let last_checkpoint_age_ms = match r.u8()? {
        0 => None,
        1 => Some(r.u64()?),
        tag => return Err(SnapshotCodecError::UnsupportedVersion(tag)),
    };
    let warehouse_segments = r.u64()?;
    let warehouse_trajectories = r.u64()?;
    let traces_recorded = r.u64()?;
    let events_per_sec_milli = r.u64()?;
    if r.remaining() != 0 {
        return Err(SnapshotCodecError::TrailingBytes(r.remaining()));
    }
    Ok(HealthReport {
        uptime_ms,
        epoch,
        sessions_accepted,
        sessions_active,
        subscribers_active,
        flush_backlog_trajectories,
        last_checkpoint_age_ms,
        warehouse_segments,
        warehouse_trajectories,
        traces_recorded,
        events_per_sec_milli,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> HealthReport {
        HealthReport {
            uptime_ms: 93_000,
            epoch: 412,
            sessions_accepted: 18,
            sessions_active: 3,
            subscribers_active: 1,
            flush_backlog_trajectories: 57,
            last_checkpoint_age_ms: Some(4_200),
            warehouse_segments: 9,
            warehouse_trajectories: 15_000,
            traces_recorded: 230,
            events_per_sec_milli: 1_234_567,
        }
    }

    #[test]
    fn codec_roundtrip_preserves_reports() {
        for report in [HealthReport::default(), sample()] {
            let bytes = health_to_bytes(&report);
            assert_eq!(bytes[0], HEALTH_VERSION);
            assert_eq!(decode_health(&bytes).unwrap(), report);
        }
        let never = HealthReport {
            last_checkpoint_age_ms: None,
            ..sample()
        };
        assert_eq!(decode_health(&health_to_bytes(&never)).unwrap(), never);
    }

    #[test]
    fn codec_rejects_wrong_version_bad_tag_and_trailing() {
        let mut bytes = health_to_bytes(&sample());
        bytes[0] = 3;
        assert_eq!(
            decode_health(&bytes),
            Err(SnapshotCodecError::UnsupportedVersion(3))
        );
        bytes[0] = HEALTH_VERSION;
        bytes.push(0);
        assert_eq!(
            decode_health(&bytes),
            Err(SnapshotCodecError::TrailingBytes(1))
        );
    }

    #[test]
    fn truncation_at_every_offset_is_an_error() {
        let bytes = health_to_bytes(&sample());
        for cut in 0..bytes.len() {
            assert!(
                decode_health(&bytes[..cut]).is_err(),
                "decoded health truncated to {cut}/{} bytes",
                bytes.len()
            );
        }
    }

    #[test]
    fn bit_flip_at_every_offset_never_panics() {
        let bytes = health_to_bytes(&sample());
        for offset in 0..bytes.len() {
            for bit in 0..8 {
                let mut corrupt = bytes.clone();
                corrupt[offset] ^= 1 << bit;
                let _ = decode_health(&corrupt);
            }
        }
    }

    #[test]
    fn rendering_covers_the_operator_story() {
        let text = sample().render();
        for needle in [
            "epoch 412",
            "1234.567 ev/s",
            "3 active / 18 accepted",
            "subscribers 1",
            "backlog 57",
            "9 segments / 15000 trajectories",
            "4s ago",
            "traces recorded 230",
        ] {
            assert!(text.contains(needle), "render misses {needle:?}:\n{text}");
        }
        assert!(
            HealthReport::default().render().contains("never"),
            "no checkpoint yet renders as never"
        );
    }
}
