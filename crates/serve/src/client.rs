//! The blocking client.
//!
//! [`Client`] speaks the framed request/response protocol over one TCP
//! connection, lazily (re)established. It is **reconnect-safe on the
//! send side**: a request that fails while connecting or while writing
//! the frame is retried once on a fresh connection — at that point the
//! server cannot have observed it, so the retry is exact-once. A
//! failure while *reading the response* is **not** retried: the server
//! may already have applied the request (an ingest batch, a checkpoint),
//! and a blind replay would double it. Callers that want at-least-once
//! ingest semantics retry explicitly and deduplicate by visit key.
//!
//! One client drives one session; concurrency comes from running one
//! client per thread (`bench_serve` drives N of them against one
//! server).

use std::net::{SocketAddr, TcpStream};
use std::time::Duration as StdDuration;

use sitm_core::SemanticTrajectory;
use sitm_obs::health::HealthReport;
use sitm_obs::trace::{TraceContext, TraceTree};
use sitm_obs::MetricsSnapshot;
use sitm_query::wire::WireQuery;
use sitm_query::Predicate;
use sitm_stream::{EmittedEpisode, StreamEvent};

use crate::proto::{
    decode_response, encode_op, encode_request, ExplainReport, Op, Request, Response, ServerStats,
    StatsRollup,
};
use crate::wire::{read_frame, read_frame_or_idle, write_frame, write_traced_frame};
use crate::ServeError;

/// Client-side transport counters (see [`Client::stats`]). These count
/// what the *client* observed — complementary to the server-side
/// `serve.*` metrics fetched via [`Client::metrics`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ClientStats {
    /// Requests attempted (each [`Client::call`], counted once even
    /// when the send is retried on a fresh connection).
    pub requests: u64,
    /// Fresh connections established after the initial one — send-side
    /// retries plus reads that tore the connection down.
    pub reconnects: u64,
    /// Requests refused locally for exceeding the frame bound (never
    /// reached the wire).
    pub oversized_refused: u64,
    /// Response frames received but not decodable.
    pub decode_errors: u64,
}

/// A blocking, reconnect-safe connection to a [`crate::Server`].
pub struct Client {
    addr: SocketAddr,
    stream: Option<TcpStream>,
    stats: ClientStats,
}

impl Client {
    /// Connects eagerly (fails fast when the server is down).
    pub fn connect(addr: SocketAddr) -> Result<Client, ServeError> {
        let mut client = Client {
            addr,
            stream: None,
            stats: ClientStats::default(),
        };
        client.ensure_connected()?;
        // The eager connect is the baseline, not a reconnect.
        client.stats.reconnects = 0;
        Ok(client)
    }

    /// The server address this client targets.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// This client's transport counters so far.
    pub fn stats(&self) -> ClientStats {
        self.stats
    }

    fn ensure_connected(&mut self) -> Result<&mut TcpStream, ServeError> {
        if self.stream.is_none() {
            let stream = TcpStream::connect(self.addr)?;
            stream.set_nodelay(true)?;
            self.stream = Some(stream);
            self.stats.reconnects += 1;
        }
        Ok(self.stream.as_mut().expect("just connected"))
    }

    /// One request/response round trip (see the module docs for the
    /// retry contract).
    pub fn call(&mut self, request: &Request) -> Result<Response, ServeError> {
        let mut payload = Vec::new();
        encode_request(&mut payload, request);
        self.call_payload(&payload, None)
    }

    /// Like [`Client::call`], but the request rides a traced envelope
    /// carrying `ctx` — the server adopts that trace id and parent span
    /// instead of generating fresh ones, so the resulting server-side
    /// trace tree joins the caller's trace (the federation fan-out
    /// contract; see `sitm_obs::trace::current_context`).
    pub fn call_traced(
        &mut self,
        request: &Request,
        ctx: TraceContext,
    ) -> Result<Response, ServeError> {
        let mut payload = Vec::new();
        encode_request(&mut payload, request);
        self.call_payload(&payload, Some(ctx))
    }

    /// One round trip for an encoded request payload.
    fn call_payload(
        &mut self,
        payload: &[u8],
        ctx: Option<TraceContext>,
    ) -> Result<Response, ServeError> {
        self.stats.requests += 1;
        if payload.len() > sitm_store::segment::MAX_PAYLOAD as usize {
            self.stats.oversized_refused += 1;
            return Err(ServeError::Protocol(format!(
                "request of {} bytes exceeds the frame bound; split the batch",
                payload.len()
            )));
        }
        // Send side: a connect *or* write failure is retried once on a
        // fresh connection — in either case the server cannot have
        // observed the request yet.
        let mut attempt = 0;
        loop {
            attempt += 1;
            let sent = match self.ensure_connected() {
                Ok(stream) => match ctx {
                    Some(ctx) => write_traced_frame(stream, ctx, payload).map_err(ServeError::Io),
                    None => write_frame(stream, payload).map_err(ServeError::Io),
                },
                Err(err) => Err(err),
            };
            match sent {
                Ok(()) => break,
                Err(err) => {
                    self.stream = None;
                    if attempt >= 2 {
                        return Err(err);
                    }
                }
            }
        }
        // Receive side: never retried (the request may have applied).
        let stream = self.stream.as_mut().expect("connected above");
        let frame = match read_frame(stream) {
            Ok(frame) => frame,
            Err(err) => {
                self.stream = None;
                return Err(ServeError::Wire(err));
            }
        };
        let response = match decode_response(&mut frame.as_slice()) {
            Ok(response) => response,
            Err(err) => {
                self.stats.decode_errors += 1;
                return Err(err.into());
            }
        };
        Ok(response)
    }

    fn expect_error(response: Response) -> ServeError {
        match response {
            Response::Error(message) => ServeError::Remote(message),
            other => ServeError::Protocol(format!("unexpected response {other:?}")),
        }
    }

    /// Sends a batch of events into the server's engine. Returns the
    /// number of events routed.
    pub fn ingest_batch(&mut self, events: Vec<StreamEvent>) -> Result<u64, ServeError> {
        match self.call(&Request::IngestBatch(events))? {
            Response::Ingested { events } => Ok(events),
            other => Err(Self::expect_error(other)),
        }
    }

    /// Executes a query over the warehouse tier only.
    pub fn query(&mut self, query: &WireQuery) -> Result<Vec<SemanticTrajectory>, ServeError> {
        match self.call(&Request::Query(query.clone()))? {
            Response::Trajectories(rows) => Ok(rows),
            other => Err(Self::expect_error(other)),
        }
    }

    /// Executes a query over live ∪ warehouse (sorted/limited paging
    /// per the spec).
    pub fn query_federated(
        &mut self,
        query: &WireQuery,
    ) -> Result<Vec<SemanticTrajectory>, ServeError> {
        match self.call(&Request::QueryFederated(query.clone()))? {
            Response::Trajectories(rows) => Ok(rows),
            other => Err(Self::expect_error(other)),
        }
    }

    /// Plans a predicate server-side without executing it.
    pub fn explain(&mut self, predicate: &Predicate) -> Result<ExplainReport, ServeError> {
        match self.call(&Request::Explain(predicate.clone()))? {
            Response::Explained(report) => Ok(report),
            other => Err(Self::expect_error(other)),
        }
    }

    /// Fetches engine + warehouse counters (server-side totals; for
    /// this client's own transport counters see [`Client::stats`]).
    pub fn server_stats(&mut self) -> Result<ServerStats, ServeError> {
        match self.call(&Request::Stats)? {
            Response::Stats { stats, .. } => Ok(stats),
            other => Err(Self::expect_error(other)),
        }
    }

    /// Fetches the decode-free warehouse breakdowns: per-cell
    /// trajectory/stay/dwell totals and per-period occupancy, merged
    /// across every segment's rollup frame and the live tier. Unlike
    /// [`Client::server_stats`] this cuts the live snapshot server-side.
    pub fn rollup(&mut self) -> Result<StatsRollup, ServeError> {
        let mut payload = Vec::new();
        encode_op(&mut payload, &Op::Rollup);
        match self.call_payload(&payload, None)? {
            Response::Rollup(rollup) => Ok(rollup),
            other => Err(Self::expect_error(other)),
        }
    }

    /// Fetches the server's full metrics snapshot — every `engine.*`,
    /// `flush.*`, `store.*`, `query.*`, and `serve.*` instrument plus
    /// the slow-query log.
    pub fn metrics(&mut self) -> Result<MetricsSnapshot, ServeError> {
        match self.call(&Request::Metrics)? {
            Response::Metrics(snapshot) => Ok(snapshot),
            other => Err(Self::expect_error(other)),
        }
    }

    /// Spills the engine's finished backlog into the warehouse.
    /// Returns `(spilled, warehouse_trajectories, manifest_sequence)`.
    pub fn checkpoint(&mut self) -> Result<(u64, u64, u64), ServeError> {
        match self.call(&Request::Checkpoint)? {
            Response::Checkpointed {
                spilled,
                warehouse_trajectories,
                manifest_sequence,
            } => Ok((spilled, warehouse_trajectories, manifest_sequence)),
            other => Err(Self::expect_error(other)),
        }
    }

    /// Polls the server's liveness summary: uptime, epoch, tier lag,
    /// session load, ingest rate. Cheap on both sides.
    pub fn health(&mut self) -> Result<HealthReport, ServeError> {
        match self.call(&Request::Health)? {
            Response::Health(report) => Ok(report),
            other => Err(Self::expect_error(other)),
        }
    }

    /// Fetches the server's most recent `limit` trace trees, oldest
    /// first (empty when tracing is disabled server-side).
    pub fn traces(&mut self, limit: u64) -> Result<Vec<TraceTree>, ServeError> {
        match self.call(&Request::Trace { limit })? {
            Response::Traces(trees) => Ok(trees),
            other => Err(Self::expect_error(other)),
        }
    }

    /// Requests a graceful server shutdown (warehouse flushed before
    /// the acknowledgement). The connection is closed afterwards.
    pub fn shutdown(&mut self) -> Result<(), ServeError> {
        match self.call(&Request::Shutdown)? {
            Response::ShuttingDown => {
                self.stream = None;
                Ok(())
            }
            other => Err(Self::expect_error(other)),
        }
    }
}

/// One pushed notification: the epoch whose ingest barrier drained the
/// episodes, and the episodes the subscription's predicate did not
/// provably reject.
pub type Notification = (u64, Vec<EmittedEpisode>);

/// A continuous-query subscription on its own dedicated connection.
///
/// Unlike [`Client`], a `Subscriber` receives **unsolicited**
/// [`Response::Notification`] frames, so it never shares a connection
/// with request/response traffic: create it alongside a `Client`, not
/// from one. Dropping a `Subscriber` without [`Subscriber::unsubscribe`]
/// closes the connection; the server then re-injects any undelivered
/// episodes into its pending pool, so nothing is lost — the next
/// subscriber (or this one, reconnecting) sees them in its first
/// barriers. The one loss path is falling behind the server's bounded
/// per-subscriber queue, which surfaces here as [`ServeError::Remote`]
/// from [`Subscriber::poll`] ("subscription lagged…").
pub struct Subscriber {
    stream: TcpStream,
    epoch: u64,
}

impl Subscriber {
    /// Connects and registers `query` as this connection's continuous
    /// query. On success, every notification this subscription ever
    /// receives carries an epoch strictly greater than
    /// [`Subscriber::epoch`].
    pub fn subscribe(addr: SocketAddr, query: &WireQuery) -> Result<Subscriber, ServeError> {
        let mut stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        let mut payload = Vec::new();
        encode_request(&mut payload, &Request::Subscribe(query.clone()));
        write_frame(&mut stream, &payload)?;
        let frame = read_frame(&mut stream).map_err(ServeError::Wire)?;
        match decode_response(&mut frame.as_slice())? {
            Response::Subscribed { epoch } => Ok(Subscriber { stream, epoch }),
            Response::Error(message) => Err(ServeError::Remote(message)),
            other => Err(ServeError::Protocol(format!(
                "unexpected response to subscribe: {other:?}"
            ))),
        }
    }

    /// The engine epoch at registration.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Waits up to `timeout` for one pushed notification. `Ok(None)`
    /// means no notification arrived in time (the subscription is still
    /// live); a lagged-and-dropped subscription surfaces as
    /// [`ServeError::Remote`].
    pub fn poll(&mut self, timeout: StdDuration) -> Result<Option<Notification>, ServeError> {
        self.stream.set_read_timeout(Some(timeout))?;
        match read_frame_or_idle(&mut self.stream) {
            Ok(None) => Ok(None),
            Ok(Some(frame)) => match decode_response(&mut frame.as_slice())? {
                Response::Notification { epoch, episodes } => Ok(Some((epoch, episodes))),
                Response::Error(message) => Err(ServeError::Remote(message)),
                other => Err(ServeError::Protocol(format!(
                    "unexpected frame on subscription: {other:?}"
                ))),
            },
            Err(err) => Err(ServeError::Wire(err)),
        }
    }

    /// Deregisters the continuous query, draining notifications still
    /// queued server-side (returned in order) until the acknowledgement.
    pub fn unsubscribe(mut self) -> Result<Vec<Notification>, ServeError> {
        let mut payload = Vec::new();
        encode_request(&mut payload, &Request::Unsubscribe);
        write_frame(&mut self.stream, &payload)?;
        self.stream.set_read_timeout(None)?;
        let mut drained = Vec::new();
        loop {
            let frame = read_frame(&mut self.stream).map_err(ServeError::Wire)?;
            match decode_response(&mut frame.as_slice())? {
                Response::Notification { epoch, episodes } => drained.push((epoch, episodes)),
                Response::Unsubscribed => return Ok(drained),
                Response::Error(message) => return Err(ServeError::Remote(message)),
                other => {
                    return Err(ServeError::Protocol(format!(
                        "unexpected frame draining unsubscribe: {other:?}"
                    )))
                }
            }
        }
    }
}
