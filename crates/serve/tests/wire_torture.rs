//! Wire-protocol torture: a request and a response frame truncated and
//! corrupted at **every byte offset**, asserting the peer errors
//! cleanly — no panic, no deadlock, and (server side) no casualty
//! beyond the one session. The every-offset idiom is the same one
//! `crates/store/tests/warehouse.rs` drives through the manifest and
//! segment files; here the "file" is the socket.

use std::io::Write as _;
use std::net::TcpStream;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration as StdDuration;

use sitm_core::{Annotation, AnnotationSet, IntervalPredicate, Timestamp};
use sitm_graph::{LayerIdx, NodeId};
use sitm_query::wire::WireQuery;
use sitm_query::Predicate;
use sitm_serve::{
    decode_response, encode_op, encode_request, encode_response, read_frame, write_frame, Client,
    Op, Request, Response, Server, ServerConfig,
};
use sitm_space::CellRef;
use sitm_stream::{EngineConfig, StreamEvent, VisitKey};

static NEXT: AtomicU64 = AtomicU64::new(0);

struct TempDir(PathBuf);

impl TempDir {
    fn new(tag: &str) -> TempDir {
        let n = NEXT.fetch_add(1, Ordering::Relaxed);
        let dir =
            std::env::temp_dir().join(format!("sitm-torture-{tag}-{}-{n}", std::process::id()));
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

fn engine_config() -> EngineConfig {
    EngineConfig::new(vec![(
        IntervalPredicate::in_cells([cell(1)]),
        AnnotationSet::from_iter([Annotation::goal("one")]),
    )])
    .with_shards(1)
}

/// A small but representative request frame (an ingest batch).
fn request_frame() -> Vec<u8> {
    let request = Request::IngestBatch(vec![
        StreamEvent::VisitOpened {
            visit: VisitKey(1),
            moving_object: "mo-1".into(),
            annotations: AnnotationSet::from_iter([Annotation::goal("visit")]),
            at: Timestamp(0),
        },
        StreamEvent::VisitClosed {
            visit: VisitKey(1),
            at: Timestamp(10),
        },
    ]);
    let mut payload = Vec::new();
    encode_request(&mut payload, &request);
    let mut frame = Vec::new();
    write_frame(&mut frame, &payload).expect("frame");
    frame
}

/// A representative response frame (a stats reply).
fn response_frame() -> Vec<u8> {
    let mut payload = Vec::new();
    encode_response(
        &mut payload,
        &Response::Stats {
            stats: Default::default(),
        },
    );
    let mut frame = Vec::new();
    write_frame(&mut frame, &payload).expect("frame");
    frame
}

/// Sends `bytes` raw, shuts down the write half, and drains whatever
/// the server answers until it closes the connection. Returns the
/// decoded responses (a truncated request should produce at most one
/// `Error`, possibly none when the tear looks like a clean close).
fn send_raw(addr: std::net::SocketAddr, bytes: &[u8]) -> Vec<Response> {
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream
        .set_read_timeout(Some(StdDuration::from_secs(10)))
        .expect("timeout");
    // The send and the half-close may race the server tearing the
    // session down (it answers and closes as soon as it sees a bad
    // frame) — a reset here is part of the scenario, not a test bug.
    let _ = stream.write_all(bytes);
    let _ = stream.shutdown(std::net::Shutdown::Write);
    let mut responses = Vec::new();
    while let Ok(frame) = read_frame(&mut stream) {
        responses.push(decode_response(&mut frame.as_slice()).expect("well-framed response"));
    }
    responses
}

/// Truncate a request frame at every byte offset against a **live**
/// server: every tear is a per-session error (an `Error` response or a
/// silent close), the listener survives all of them, and a healthy
/// client still gets full service afterwards.
#[test]
fn torn_request_at_every_offset_never_kills_the_server() {
    let tmp = TempDir::new("torn-request");
    let server = Server::start(ServerConfig::new(engine_config(), &tmp.0).with_sessions(2))
        .expect("start server");
    let frame = request_frame();

    for cut in 0..frame.len() {
        let responses = send_raw(server.addr(), &frame[..cut]);
        for response in &responses {
            assert!(
                matches!(response, Response::Error(_)),
                "cut {cut}: torn frame must only ever produce an error, got {response:?}"
            );
        }
    }
    // Corrupt (bit-flip) every byte of the frame too: the CRC (or the
    // payload validation behind it) must reject each one cleanly.
    for i in 0..frame.len() {
        let mut corrupt = frame.clone();
        corrupt[i] ^= 0x01;
        let responses = send_raw(server.addr(), &corrupt);
        for response in &responses {
            assert!(
                matches!(response, Response::Error(_)),
                "flip {i}: corrupt frame must only ever produce an error, got {response:?}"
            );
        }
    }

    // The server took frame.len() tears + frame.len() corruptions and
    // must still serve a healthy session end-to-end.
    let mut client = Client::connect(server.addr()).expect("connect after torture");
    let stats = client.server_stats().expect("stats after torture");
    assert_eq!(
        stats.visits_opened, 0,
        "no torn ingest may have half-applied"
    );
    // Failure containment is *countable*: exactly one frame error per
    // torn connection. Cut 0 is a clean close (no frame on the wire, no
    // error); cuts 1..len are one tear each; every single-bit flip of a
    // full frame is one CRC/marker/length rejection (CRC-32 catches all
    // single-bit errors, and the session ends on its first bad frame,
    // so a tear can never double-count).
    let snapshot = client.metrics().expect("metrics after torture");
    assert_eq!(
        snapshot.counter("serve.frame_errors"),
        Some((2 * frame.len() - 1) as u64),
        "exactly one serve.frame_errors count per torn/corrupt connection"
    );
    assert_eq!(
        snapshot.counter("serve.bad_requests").unwrap_or(0),
        0,
        "framing (not request decoding) must absorb every tear"
    );
    client
        .ingest_batch(vec![
            StreamEvent::VisitOpened {
                visit: VisitKey(9),
                moving_object: "mo-9".into(),
                annotations: AnnotationSet::from_iter([Annotation::goal("visit")]),
                at: Timestamp(0),
            },
            StreamEvent::Presence {
                visit: VisitKey(9),
                interval: sitm_core::PresenceInterval::new(
                    sitm_core::TransitionTaken::Unknown,
                    cell(1),
                    Timestamp(0),
                    Timestamp(4),
                ),
            },
            StreamEvent::VisitClosed {
                visit: VisitKey(9),
                at: Timestamp(5),
            },
        ])
        .expect("ingest after torture");
    let (spilled, total, _) = client.checkpoint().expect("checkpoint after torture");
    assert_eq!((spilled, total), (1, 1));
    client.shutdown().expect("shutdown");
    server.join().expect("join");
}

/// The client-side mirror: a response frame truncated or corrupted at
/// every byte offset decodes to a clean error — never a panic, never a
/// partial value.
#[test]
fn torn_response_at_every_offset_errors_cleanly() {
    let frame = response_frame();
    for cut in 0..frame.len() {
        let mut cursor = &frame[..cut];
        assert!(read_frame(&mut cursor).is_err(), "cut {cut}");
    }
    for i in 0..frame.len() {
        let mut corrupt = frame.clone();
        corrupt[i] ^= 0x01;
        let mut cursor: &[u8] = &corrupt;
        match read_frame(&mut cursor) {
            Err(_) => {}
            Ok(payload) => panic!("flip {i} slipped through framing: {payload:?}"),
        }
    }
    // And a framed-but-corrupt payload fails in the codec, not the
    // framing: flip payload bytes and re-frame with a fresh CRC.
    let mut payload = Vec::new();
    encode_response(
        &mut payload,
        &Response::Stats {
            stats: Default::default(),
        },
    );
    for i in 0..payload.len() {
        let mut corrupt = payload.clone();
        corrupt[i] ^= 0xFF;
        let mut reframed = Vec::new();
        write_frame(&mut reframed, &corrupt).expect("frame");
        let mut cursor: &[u8] = &reframed;
        let recovered = read_frame(&mut cursor).expect("framing is intact");
        // Decoding either errors or yields *some* stats value — it must
        // never panic. (A flipped varint can still be a valid varint.)
        let _ = decode_response(&mut recovered.as_slice());
    }
}

/// The push ops under the same torture: a Subscribe request frame
/// torn/corrupted at every offset never kills the server and never
/// half-registers a subscription, and a Notification response frame
/// torn/corrupted at every offset errors cleanly client-side.
#[test]
fn torn_subscribe_and_notification_frames_error_cleanly() {
    use sitm_core::PresenceInterval;
    use sitm_serve::Subscriber;
    use sitm_stream::EmittedEpisode;

    let tmp = TempDir::new("torn-subscribe");
    let server = Server::start(ServerConfig::new(engine_config(), &tmp.0).with_sessions(2))
        .expect("start server");

    let mut payload = Vec::new();
    encode_request(
        &mut payload,
        &Request::Subscribe(WireQuery::filtered(Predicate::MovingObject("mo-1".into()))),
    );
    let mut frame = Vec::new();
    write_frame(&mut frame, &payload).expect("frame");
    for cut in 0..frame.len() {
        let responses = send_raw(server.addr(), &frame[..cut]);
        for response in &responses {
            assert!(
                matches!(response, Response::Error(_)),
                "cut {cut}: torn subscribe must only produce an error, got {response:?}"
            );
        }
    }
    for i in 0..frame.len() {
        let mut corrupt = frame.clone();
        corrupt[i] ^= 0x01;
        let responses = send_raw(server.addr(), &corrupt);
        for response in &responses {
            assert!(
                matches!(response, Response::Error(_)),
                "flip {i}: corrupt subscribe must only produce an error, got {response:?}"
            );
        }
    }

    // No tear half-registered anything, and the push path still works.
    let mut client = Client::connect(server.addr()).expect("connect");
    let snapshot = client.metrics().expect("metrics");
    assert_eq!(snapshot.gauge("serve.subscriptions_active").unwrap_or(0), 0);
    let sub = Subscriber::subscribe(server.addr(), &WireQuery::filtered(Predicate::True))
        .expect("subscribe after torture");
    client
        .ingest_batch(vec![
            StreamEvent::VisitOpened {
                visit: VisitKey(1),
                moving_object: "mo-1".into(),
                annotations: AnnotationSet::from_iter([Annotation::goal("visit")]),
                at: Timestamp(0),
            },
            StreamEvent::Presence {
                visit: VisitKey(1),
                interval: PresenceInterval::new(
                    sitm_core::TransitionTaken::Unknown,
                    cell(1),
                    Timestamp(0),
                    Timestamp(4),
                ),
            },
            StreamEvent::VisitClosed {
                visit: VisitKey(1),
                at: Timestamp(5),
            },
        ])
        .expect("ingest after torture");
    let drained: Vec<EmittedEpisode> = sub
        .unsubscribe()
        .expect("unsubscribe")
        .into_iter()
        .flat_map(|(_, eps)| eps)
        .collect();
    assert!(!drained.is_empty(), "the push path survived the torture");

    // Client side: a Notification frame torn at every offset fails in
    // the framing; corrupt payload bytes fail in the codec — never a
    // panic, never a partial value.
    let mut payload = Vec::new();
    encode_response(
        &mut payload,
        &Response::Notification {
            epoch: 3,
            episodes: drained,
        },
    );
    let mut frame = Vec::new();
    write_frame(&mut frame, &payload).expect("frame");
    for cut in 0..frame.len() {
        let mut cursor = &frame[..cut];
        assert!(read_frame(&mut cursor).is_err(), "cut {cut}");
    }
    for i in 0..payload.len() {
        let mut corrupt = payload.clone();
        corrupt[i] ^= 0xFF;
        let mut reframed = Vec::new();
        write_frame(&mut reframed, &corrupt).expect("frame");
        let mut cursor: &[u8] = &reframed;
        let recovered = read_frame(&mut cursor).expect("framing is intact");
        let _ = decode_response(&mut recovered.as_slice());
    }

    client.shutdown().expect("shutdown");
    server.join().expect("join");
}

/// The `Rollup` op under the same torture: its request frame torn and
/// bit-flipped at every offset against a live server is a per-session
/// error every time, and its response frame (a populated rollup) torn
/// at every offset fails in the framing, with corrupt payload bytes
/// failing in the codec — never a panic, never a partial value.
#[test]
fn torn_rollup_frames_error_cleanly() {
    use sitm_serve::StatsRollup;
    use sitm_store::warehouse::CellRollup;

    let tmp = TempDir::new("torn-rollup");
    let server = Server::start(ServerConfig::new(engine_config(), &tmp.0).with_sessions(2))
        .expect("start server");

    let mut payload = Vec::new();
    encode_op(&mut payload, &Op::Rollup);
    let mut frame = Vec::new();
    write_frame(&mut frame, &payload).expect("frame");
    for cut in 0..frame.len() {
        let responses = send_raw(server.addr(), &frame[..cut]);
        for response in &responses {
            assert!(
                matches!(response, Response::Error(_)),
                "cut {cut}: torn rollup must only produce an error, got {response:?}"
            );
        }
    }
    for i in 0..frame.len() {
        let mut corrupt = frame.clone();
        corrupt[i] ^= 0x01;
        let responses = send_raw(server.addr(), &corrupt);
        for response in &responses {
            assert!(
                matches!(response, Response::Error(_)),
                "flip {i}: corrupt rollup must only produce an error, got {response:?}"
            );
        }
    }
    // The intact frame is answered with a rollup.
    let responses = send_raw(server.addr(), &frame);
    assert!(
        matches!(responses.as_slice(), [Response::Rollup(_)]),
        "the intact frame is served: {responses:?}"
    );

    let mut payload = Vec::new();
    encode_response(
        &mut payload,
        &Response::Rollup(StatsRollup {
            period_seconds: 3600,
            cells: vec![
                (
                    cell(1),
                    CellRollup {
                        trajectories: 2,
                        stays: 3,
                        dwell_seconds: 120,
                    },
                ),
                (
                    cell(4),
                    CellRollup {
                        trajectories: 1,
                        stays: 1,
                        dwell_seconds: 60,
                    },
                ),
            ],
            periods: vec![(-3600, 1), (0, 2)],
        }),
    );
    let mut frame = Vec::new();
    write_frame(&mut frame, &payload).expect("frame");
    for cut in 0..frame.len() {
        let mut cursor = &frame[..cut];
        assert!(read_frame(&mut cursor).is_err(), "cut {cut}");
    }
    for i in 0..frame.len() {
        let mut corrupt = frame.clone();
        corrupt[i] ^= 0x01;
        let mut cursor: &[u8] = &corrupt;
        if let Ok(payload) = read_frame(&mut cursor) {
            panic!("flip {i} slipped through framing: {payload:?}");
        }
    }
    for i in 0..payload.len() {
        let mut corrupt = payload.clone();
        corrupt[i] ^= 0xFF;
        let mut reframed = Vec::new();
        write_frame(&mut reframed, &corrupt).expect("frame");
        let mut cursor: &[u8] = &reframed;
        let recovered = read_frame(&mut cursor).expect("framing is intact");
        let _ = decode_response(&mut recovered.as_slice());
    }
    // Every truncation of the payload itself is a codec error.
    for cut in 0..payload.len() {
        assert!(
            decode_response(&mut &payload[..cut]).is_err(),
            "payload cut {cut}"
        );
    }

    server.shutdown();
    server.join().expect("join");
}

/// The traced envelope under the same torture: a traced request frame
/// (marker `0x5B`, 16-byte context prefix in the checksummed body)
/// torn and bit-flipped at every offset against a live server is a
/// per-session error every time — including the one-bit flips that
/// turn the traced marker into the plain one, which the marker-covering
/// checksum must catch.
#[test]
fn torn_traced_frame_at_every_offset_never_kills_the_server() {
    use sitm_obs::trace::TraceContext;
    use sitm_serve::write_traced_frame;

    let tmp = TempDir::new("torn-traced");
    let server = Server::start(ServerConfig::new(engine_config(), &tmp.0).with_sessions(2))
        .expect("start server");

    let ctx = TraceContext {
        trace_id: 0xABAD_1DEA_0C0F_FEE5,
        parent_span_id: 3,
    };
    let mut payload = Vec::new();
    encode_request(
        &mut payload,
        &Request::Query(WireQuery::filtered(Predicate::True)),
    );
    let mut frame = Vec::new();
    write_traced_frame(&mut frame, ctx, &payload).expect("traced frame");

    for cut in 0..frame.len() {
        let responses = send_raw(server.addr(), &frame[..cut]);
        for response in &responses {
            assert!(
                matches!(response, Response::Error(_)),
                "cut {cut}: torn traced frame must only produce an error, got {response:?}"
            );
        }
    }
    for i in 0..frame.len() {
        let mut corrupt = frame.clone();
        corrupt[i] ^= 0x01;
        let responses = send_raw(server.addr(), &corrupt);
        for response in &responses {
            assert!(
                matches!(response, Response::Error(_)),
                "flip {i}: corrupt traced frame must only produce an error, got {response:?}"
            );
        }
    }

    // The intact frame still works, and the server adopted the carried
    // context (the recorder indexed the tree under our trace id).
    let mut stream = TcpStream::connect(server.addr()).expect("connect");
    write_traced_frame(&mut stream, ctx, &payload).expect("send");
    let frame = read_frame(&mut stream).expect("response");
    assert!(matches!(
        decode_response(&mut frame.as_slice()).expect("decodes"),
        Response::Trajectories(_)
    ));
    drop(stream);
    // The response is written from inside the root span, so the client
    // can observe it a beat before the session loop finishes the span
    // and cuts the tree into the ring — poll instead of racing it.
    let deadline = std::time::Instant::now() + StdDuration::from_secs(10);
    loop {
        let trees = server.recorder().recent(usize::MAX);
        if trees.iter().any(|t| t.trace_id == ctx.trace_id) {
            break;
        }
        assert!(
            std::time::Instant::now() < deadline,
            "no torture frame reached the recorder, the intact one did"
        );
        std::thread::sleep(StdDuration::from_millis(10));
    }
    server.shutdown();
    server.join().expect("join");
}

/// End-of-exchange sanity for the full loop: a live server answers a
/// well-formed raw frame with a well-formed response frame.
#[test]
fn raw_roundtrip_against_a_live_server() {
    let tmp = TempDir::new("raw");
    let server = Server::start(ServerConfig::new(engine_config(), &tmp.0)).expect("start");
    let mut payload = Vec::new();
    encode_request(
        &mut payload,
        &Request::Query(WireQuery::filtered(Predicate::VisitedCell(cell(1)))),
    );
    let mut stream = TcpStream::connect(server.addr()).expect("connect");
    write_frame(&mut stream, &payload).expect("send");
    let frame = read_frame(&mut stream).expect("response");
    match decode_response(&mut frame.as_slice()).expect("decodes") {
        Response::Trajectories(rows) => assert!(rows.is_empty()),
        other => panic!("expected trajectories, got {other:?}"),
    }
    drop(stream);
    server.shutdown();
    server.join().expect("join");
}
