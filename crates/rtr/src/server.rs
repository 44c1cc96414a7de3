//! The concurrent RTR fan-out service: one cache, thousands of router
//! sessions.
//!
//! [`crate::transport`]'s original TCP server spent one thread plus a
//! whole-cache mutex acquisition per PDU per connection — fine for a
//! handful of routers, hopeless for the fleet a relying-party cache
//! serves in deployment. This module splits the problem sans-io:
//!
//! * [`FanoutServer`] is the IO-free core. It owns one
//!   [`CacheServer`] and a table of per-session state machines
//!   (negotiation → reset/serial flows → steady-state notify), and it
//!   serializes each response **once per churn epoch** into shared byte
//!   images that every session's outbox references by `Arc` — the fan-out
//!   cost per session is an `Arc` clone and a queue push, not a fresh
//!   walk over the VRP set.
//! * [`TcpCacheServer`] is the non-blocking framed adapter: a single
//!   event-loop thread multiplexes every connection over the core, and a
//!   session registry with a real handshake ([`ServerHandle::wait_for_sessions`])
//!   replaces "poll until the write fails" discovery of session state.
//!
//! # The snapshot-sharing contract
//!
//! Every response image is built from the cache state at one serial and
//! cached keyed by `(response kind, negotiated version)` until the next
//! cache update invalidates the store. Every image is the output of
//! the cache's one responder — the `respond` that
//! [`CacheServer::handle_wire`] also encodes with — and
//! [`FanoutServer::receive`] takes the cache's own frame step, so a
//! session served from a shared image receives **bit-identical** bytes
//! to one served by `handle_wire`: sharing changes *when* an answer is
//! serialized, never *what* it is (`tests/server_props.rs` pins both,
//! the second by digest). Serial (delta)
//! responses are keyed by the router's *lag* behind the cache rather
//! than its raw serial, so the image store stays bounded by the history
//! window ([`crate::cache::HISTORY_WINDOW`] + 1 lags × 2 versions) no
//! matter what serials hostile routers claim.
//!
//! # Backpressure and Cache Reset semantics
//!
//! Each session owns a bounded outbox ([`ServerConfig::outbox_limit`]).
//! A consumer that stops reading cannot buffer the cache into the
//! ground: when an enqueue would overflow the limit, every fully
//! unwritten chunk in the queue is dropped (partially written chunks are
//! kept so framing never tears mid-PDU), and — if any dropped chunk was
//! the response to an actual query — a single Cache Reset is queued in
//! its place. The router's next exchange then rebuilds from the full
//! snapshot, exactly the RFC 8210 recovery path it must already
//! implement for history aging: a Serial Query whose serial has fallen
//! outside [`crate::cache::HISTORY_WINDOW`] (on either side, RFC
//! 1982-style) gets the same Cache Reset answer. Dropped notifies are
//! not replaced with anything — Serial Notify is advisory, and the next
//! poll recovers. An enqueue onto an *empty* outbox always succeeds
//! regardless of size, so a draining session always makes progress.
//!
//! Dead sessions are reaped by the event loop the moment the socket
//! reports EOF or a hard error, and the registry count drops with them —
//! no failed-write probing, no spin loops in tests.

use std::collections::{HashMap, VecDeque};
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::time::{Duration, Instant};

use rpki_roa::Vrp;

use crate::cache::{CacheServer, HISTORY_WINDOW};
use crate::clock::Clock;
use crate::transport::TransportError;
use crate::wire::{Negotiation, PduError, PduRef};

/// Identifies one open session on a [`FanoutServer`].
pub type SessionId = u64;

/// Tuning knobs for the fan-out core.
#[derive(Debug, Clone, Copy)]
pub struct ServerConfig {
    /// Upper bound, in bytes, on each session's queued-but-unsent
    /// output. See the module docs for the overflow semantics. An
    /// enqueue onto an empty outbox always succeeds, so the limit can be
    /// set below the full-response size without deadlocking a slow but
    /// draining consumer.
    pub outbox_limit: usize,
    /// How long the TCP event loop sleeps after a pass that made no
    /// progress — the latency/CPU trade-off knob for the single-thread
    /// multiplexer.
    pub poll_interval: Duration,
    /// Sessions with no inbound bytes for this long are evicted
    /// ([`FanoutServer::evict_idle`], measured on the server's
    /// [`Clock`]). `None` (the default) never evicts — RFC 8210 routers
    /// legitimately sit silent between Serial Notifies, so eviction is
    /// an operator policy, not a protocol requirement.
    pub idle_timeout: Option<Duration>,
    /// Minimum spacing between Serial Notifies to any one session;
    /// notifies landing inside the window are skipped (Serial Notify is
    /// advisory — the router's next poll catches it up). `Duration::ZERO`
    /// (the default) never paces. RFC 8210 §8 expects caches to rate-limit
    /// notifies so churny epochs do not turn into a notify flood.
    pub notify_min_interval: Duration,
}

impl Default for ServerConfig {
    fn default() -> ServerConfig {
        ServerConfig {
            outbox_limit: 1 << 20,
            poll_interval: Duration::from_micros(200),
            idle_timeout: None,
            notify_min_interval: Duration::ZERO,
        }
    }
}

/// Counters exposed for tests and benches: how much serialization work
/// the shared images saved, and how often backpressure intervened.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FanoutStats {
    /// Response images serialized from cache state.
    pub images_built: usize,
    /// Responses served by sharing an already-built image.
    pub images_reused: usize,
    /// Serial Notify PDUs queued across all sessions.
    pub notifies: usize,
    /// Outbox overflow events (chunks were dropped).
    pub overflow_drops: usize,
    /// Cache Resets queued because an overflow dropped a pending
    /// response.
    pub overflow_resets: usize,
    /// Bytes dropped by overflow handling.
    pub dropped_bytes: usize,
    /// Sessions torn down over wire or negotiation errors.
    pub teardowns: usize,
    /// Sessions evicted for exceeding [`ServerConfig::idle_timeout`].
    pub evictions: usize,
    /// Serial Notifies skipped by [`ServerConfig::notify_min_interval`]
    /// pacing.
    pub notifies_paced: usize,
}

/// A queued outbound byte image: either one of the epoch's shared
/// serializations or bytes owned by this session alone.
#[derive(Debug)]
enum Chunk {
    Shared(Arc<Vec<u8>>),
    Owned(Vec<u8>),
}

impl Chunk {
    fn as_bytes(&self) -> &[u8] {
        match self {
            Chunk::Shared(b) => b,
            Chunk::Owned(b) => b,
        }
    }

    fn len(&self) -> usize {
        self.as_bytes().len()
    }
}

/// What a queued chunk means to the overflow logic: notifies vanish
/// silently, responses are replaced by a Cache Reset, teardown reports
/// are never dropped.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum ChunkKind {
    Notify,
    Response,
    Teardown,
}

#[derive(Debug)]
struct Outbound {
    chunk: Chunk,
    /// Bytes of `chunk` already handed to the consumer.
    offset: usize,
    kind: ChunkKind,
}

/// Per-session protocol state.
#[derive(Debug)]
struct Session {
    negotiation: Negotiation,
    /// Bytes received but not yet framed.
    inbox: Vec<u8>,
    outbox: VecDeque<Outbound>,
    /// Total unsent bytes across `outbox`.
    queued: usize,
    /// Set when the session hit a wire/negotiation error; the closing
    /// Error Report is the last chunk this outbox will ever hold.
    teardown: Option<PduError>,
    /// When the session last produced inbound bytes (or was opened), on
    /// the server's clock — the idle-eviction reference point.
    last_activity: Duration,
    /// When the session was last sent a Serial Notify — the pacing
    /// reference point.
    last_notify: Option<Duration>,
    /// Set by [`FanoutServer::evict_idle`]; an evicted session reports
    /// [`FanoutServer::is_finished`] so the driver closes it.
    evicted: bool,
}

/// The per-epoch shared serialization store. All images are built
/// lazily, on the first session that needs each one, and the whole
/// store is discarded whenever the cache mutates.
#[derive(Debug, Default)]
struct ImageStore {
    /// Full Cache Response (reset flow), per version.
    full: [Option<Arc<Vec<u8>>>; 2],
    /// Serial Notify for the current serial, per version.
    notify: [Option<Arc<Vec<u8>>>; 2],
    /// Cache Reset answer for any out-of-window serial, per version.
    reset: [Option<Arc<Vec<u8>>>; 2],
    /// Delta responses by lag behind the cache, per version — lag
    /// keying bounds the store by the history window regardless of the
    /// serials routers actually claim.
    delta: [[Option<Arc<Vec<u8>>>; 2]; HISTORY_WINDOW + 1],
}

impl ImageStore {
    /// Serves `slot`'s image, encoding it with `build` on first use.
    fn share(
        slot: &mut Option<Arc<Vec<u8>>>,
        stats: &mut FanoutStats,
        build: impl FnOnce(&mut Vec<u8>),
    ) -> Arc<Vec<u8>> {
        if slot.is_some() {
            stats.images_reused += 1;
        } else {
            stats.images_built += 1;
        }
        Arc::clone(slot.get_or_insert_with(|| {
            let mut img = Vec::new();
            build(&mut img);
            Arc::new(img)
        }))
    }

    fn full(&mut self, cache: &CacheServer, stats: &mut FanoutStats, version: u8) -> Arc<Vec<u8>> {
        Self::share(&mut self.full[version as usize], stats, |img| {
            cache.respond(PduRef::ResetQuery, version, img)
        })
    }

    fn notify(
        &mut self,
        cache: &CacheServer,
        stats: &mut FanoutStats,
        version: u8,
    ) -> Arc<Vec<u8>> {
        let notify = PduRef::SerialNotify {
            session_id: cache.session_id(),
            serial: cache.serial(),
        };
        Self::share(&mut self.notify[version as usize], stats, |img| {
            notify.encode_into(version, img)
        })
    }

    fn delta(
        &mut self,
        cache: &CacheServer,
        stats: &mut FanoutStats,
        session_id: u16,
        serial: u32,
        version: u8,
    ) -> Arc<Vec<u8>> {
        let query = PduRef::SerialQuery { session_id, serial };
        let slot = match cache.serial_lag(session_id, serial) {
            Some(lag) => &mut self.delta[lag][version as usize],
            // Every out-of-window serial — too old, from the future,
            // across the u32 wrap — and every wrong-session query gets
            // the identical Cache Reset bytes; share one image.
            None => &mut self.reset[version as usize],
        };
        Self::share(slot, stats, |img| cache.respond(query, version, img))
    }
}

/// Queues `chunk` on `session`, applying the overflow policy from the
/// module docs. `reset_version` is the version a replacement Cache
/// Reset would be encoded at.
fn enqueue(
    session: &mut Session,
    stats: &mut FanoutStats,
    limit: usize,
    kind: ChunkKind,
    chunk: Chunk,
    reset_version: u8,
) {
    let len = chunk.len();
    if kind != ChunkKind::Teardown
        && session.queued > 0
        && session.queued.saturating_add(len) > limit
    {
        stats.overflow_drops += 1;
        stats.dropped_bytes += len;
        let mut dropped_response = kind == ChunkKind::Response;
        let mut queued = 0usize;
        session.outbox.retain(|o| {
            // A partially written chunk must finish (framing would tear
            // mid-PDU otherwise); a queued teardown report must go out.
            let keep = o.offset > 0 || o.kind == ChunkKind::Teardown;
            if keep {
                queued += o.chunk.len() - o.offset;
            } else {
                stats.dropped_bytes += o.chunk.len();
                dropped_response |= o.kind == ChunkKind::Response;
            }
            keep
        });
        session.queued = queued;
        if dropped_response {
            // The router is waiting on an answer we just threw away: the
            // answer becomes "start over from the snapshot".
            stats.overflow_resets += 1;
            let mut reset = Vec::new();
            PduRef::CacheReset.encode_into(reset_version, &mut reset);
            session.queued += reset.len();
            session.outbox.push_back(Outbound {
                chunk: Chunk::Owned(reset),
                offset: 0,
                kind: ChunkKind::Response,
            });
        }
        return;
    }
    session.queued += len;
    session.outbox.push_back(Outbound {
        chunk,
        offset: 0,
        kind,
    });
}

/// The sans-io fan-out core: one [`CacheServer`], many session state
/// machines, shared per-epoch response images. See the module docs for
/// the sharing and backpressure contracts.
#[derive(Debug)]
pub struct FanoutServer {
    cache: CacheServer,
    images: ImageStore,
    sessions: HashMap<SessionId, Session>,
    next_id: SessionId,
    config: ServerConfig,
    stats: FanoutStats,
    /// Drives idle-eviction and notify-pacing deadlines; manual under
    /// test, system in deployment.
    clock: Clock,
}

impl FanoutServer {
    /// Wraps a cache with the default [`ServerConfig`].
    pub fn new(cache: CacheServer) -> FanoutServer {
        FanoutServer::with_config(cache, ServerConfig::default())
    }

    /// Wraps a cache with explicit tuning, on the system clock.
    pub fn with_config(cache: CacheServer, config: ServerConfig) -> FanoutServer {
        FanoutServer::with_clock(cache, config, Clock::system())
    }

    /// Wraps a cache with explicit tuning on an explicit [`Clock`] —
    /// tests drive idle/pacing deadlines with [`Clock::manual`].
    pub fn with_clock(cache: CacheServer, config: ServerConfig, clock: Clock) -> FanoutServer {
        FanoutServer {
            cache,
            images: ImageStore::default(),
            sessions: HashMap::new(),
            next_id: 1,
            config,
            stats: FanoutStats::default(),
            clock,
        }
    }

    /// The wrapped cache.
    pub fn cache(&self) -> &CacheServer {
        &self.cache
    }

    /// The configured tuning knobs.
    pub fn config(&self) -> ServerConfig {
        self.config
    }

    /// The clock the timer policies run on.
    pub fn clock(&self) -> &Clock {
        &self.clock
    }

    /// Mutable access to the wrapped cache, e.g. for a silent update
    /// (no notify fan-out — the "cache restarted / churned while the
    /// routers were away" test axis). Any mutation invalidates the
    /// shared image store — up front, so an `f` that panics half way
    /// leaves no image of the old state behind.
    pub fn with_cache<R>(&mut self, f: impl FnOnce(&mut CacheServer) -> R) -> R {
        self.images = ImageStore::default();
        f(&mut self.cache)
    }

    /// Counters for tests and benches.
    pub fn stats(&self) -> FanoutStats {
        self.stats
    }

    /// Number of open sessions (torn-down but not yet closed sessions
    /// included).
    pub fn session_count(&self) -> usize {
        self.sessions.len()
    }

    /// Opens a session with a fresh per-connection negotiation, returning
    /// its id.
    pub fn open_session(&mut self) -> SessionId {
        let id = self.next_id;
        self.next_id += 1;
        self.sessions.insert(
            id,
            Session {
                negotiation: self.cache.negotiation(),
                inbox: Vec::new(),
                outbox: VecDeque::new(),
                queued: 0,
                teardown: None,
                last_activity: self.clock.now(),
                last_notify: None,
                evicted: false,
            },
        );
        id
    }

    /// Closes a session, dropping any queued output.
    ///
    /// # Panics
    ///
    /// Panics if `id` is not an open session.
    pub fn close_session(&mut self, id: SessionId) {
        self.sessions.remove(&id).expect("close of unknown session");
    }

    /// The protocol version the session's negotiation has pinned, if
    /// any.
    ///
    /// # Panics
    ///
    /// Panics if `id` is not an open session.
    pub fn negotiated_version(&self, id: SessionId) -> Option<u8> {
        self.sessions
            .get(&id)
            .expect("unknown session")
            .negotiation
            .version()
    }

    /// The wire/negotiation error that tore the session down, if any.
    /// The closing Error Report is already queued in the session's
    /// outbox; once [`FanoutServer::pending_output`] drains to zero the
    /// session should be closed.
    ///
    /// # Panics
    ///
    /// Panics if `id` is not an open session.
    pub fn session_error(&self, id: SessionId) -> Option<&PduError> {
        self.sessions
            .get(&id)
            .expect("unknown session")
            .teardown
            .as_ref()
    }

    /// `true` once the driver should close the connection: the session
    /// was evicted for idleness, or it is torn down *and* its closing
    /// report has been fully consumed.
    ///
    /// # Panics
    ///
    /// Panics if `id` is not an open session.
    pub fn is_finished(&self, id: SessionId) -> bool {
        let session = self.sessions.get(&id).expect("unknown session");
        session.evicted || (session.teardown.is_some() && session.queued == 0)
    }

    /// Evicts every live session whose last inbound activity is at
    /// least [`ServerConfig::idle_timeout`] ago, returning their ids
    /// (sorted). Evicted sessions report [`FanoutServer::is_finished`]
    /// and ignore further input; the driver closes them. A `None`
    /// timeout evicts nothing.
    pub fn evict_idle(&mut self) -> Vec<SessionId> {
        let Some(timeout) = self.config.idle_timeout else {
            return Vec::new();
        };
        let now = self.clock.now();
        let mut evicted = Vec::new();
        for (id, session) in &mut self.sessions {
            if session.evicted || session.teardown.is_some() {
                continue;
            }
            if now.saturating_sub(session.last_activity) >= timeout {
                session.evicted = true;
                self.stats.evictions += 1;
                evicted.push(*id);
            }
        }
        evicted.sort_unstable();
        evicted
    }

    /// Feeds received bytes to a session's state machine, queueing any
    /// responses on its outbox. Partial frames are buffered; complete
    /// frames are processed in order; a malformed frame or negotiation
    /// violation queues the closing Error Report and marks the session
    /// torn down (see [`FanoutServer::session_error`]). Input after
    /// teardown is ignored.
    ///
    /// # Panics
    ///
    /// Panics if `id` is not an open session.
    pub fn receive(&mut self, id: SessionId, bytes: &[u8]) {
        let session = self
            .sessions
            .get_mut(&id)
            .expect("receive on unknown session");
        if session.teardown.is_some() || session.evicted {
            return;
        }
        session.last_activity = self.clock.now();
        session.inbox.extend_from_slice(bytes);
        let max_version = self.cache.version();
        let mut consumed = 0usize;
        loop {
            let input = &session.inbox[consumed..];
            if input.is_empty() {
                break;
            }
            let mut report = Vec::new();
            match self
                .cache
                .next_request(input, &mut session.negotiation, &mut report)
            {
                Ok(None) => break,
                Ok(Some(frame)) => {
                    let version = frame.version;
                    let chunk = match frame.pdu {
                        PduRef::ResetQuery => {
                            Chunk::Shared(self.images.full(&self.cache, &mut self.stats, version))
                        }
                        PduRef::SerialQuery { session_id, serial } => {
                            Chunk::Shared(self.images.delta(
                                &self.cache,
                                &mut self.stats,
                                session_id,
                                serial,
                                version,
                            ))
                        }
                        // Valid-but-unexpected requests get the
                        // per-session Invalid-Request report and the
                        // session continues — not a shared image, not a
                        // teardown.
                        other => {
                            let mut out = Vec::new();
                            self.cache.respond(other, version, &mut out);
                            Chunk::Owned(out)
                        }
                    };
                    consumed += frame.len;
                    enqueue(
                        session,
                        &mut self.stats,
                        self.config.outbox_limit,
                        ChunkKind::Response,
                        chunk,
                        version,
                    );
                }
                Err((poisoned, error)) => {
                    consumed += poisoned;
                    Self::tear_down(session, &mut self.stats, report, error, max_version);
                    break;
                }
            }
        }
        session.inbox.drain(..consumed);
    }

    fn tear_down(
        session: &mut Session,
        stats: &mut FanoutStats,
        report: Vec<u8>,
        error: PduError,
        max_version: u8,
    ) {
        let version = session.negotiation.version().unwrap_or(max_version);
        enqueue(
            session,
            stats,
            usize::MAX,
            ChunkKind::Teardown,
            Chunk::Owned(report),
            version,
        );
        session.teardown = Some(error);
        stats.teardowns += 1;
    }

    /// Replaces the cache's VRP set and fans the Serial Notify out to
    /// every live session (RFC 8210 §5.2), encoded once per negotiated
    /// version. Returns the number of sessions notified.
    pub fn update_and_notify(&mut self, vrps: &[Vrp]) -> usize {
        let _ = self.cache.update(vrps);
        self.fan_out_notify()
    }

    /// Applies a churn-style delta and fans the Serial Notify out, like
    /// [`FanoutServer::update_and_notify`].
    pub fn update_delta_and_notify(&mut self, announced: &[Vrp], withdrawn: &[Vrp]) -> usize {
        let _ = self.cache.update_delta(announced, withdrawn);
        self.fan_out_notify()
    }

    fn fan_out_notify(&mut self) -> usize {
        // New serial: yesterday's images must never be served again.
        self.images = ImageStore::default();
        let max_version = self.cache.version();
        let now = self.clock.now();
        let mut notified = 0usize;
        for session in self.sessions.values_mut() {
            if session.teardown.is_some() || session.evicted {
                continue;
            }
            // Pacing: a notify inside the minimum interval is skipped,
            // not queued — Serial Notify is advisory, and the session's
            // next poll (or the next unpaced notify) catches it up.
            if let Some(last) = session.last_notify {
                if now.saturating_sub(last) < self.config.notify_min_interval {
                    self.stats.notifies_paced += 1;
                    continue;
                }
            }
            session.last_notify = Some(now);
            let version = session.negotiation.version().unwrap_or(max_version);
            let img = self.images.notify(&self.cache, &mut self.stats, version);
            enqueue(
                session,
                &mut self.stats,
                self.config.outbox_limit,
                ChunkKind::Notify,
                Chunk::Shared(img),
                version,
            );
            self.stats.notifies += 1;
            notified += 1;
        }
        notified
    }

    /// Total unsent output bytes queued for a session.
    ///
    /// # Panics
    ///
    /// Panics if `id` is not an open session.
    pub fn pending_output(&self, id: SessionId) -> usize {
        self.sessions.get(&id).expect("unknown session").queued
    }

    /// The unsent remainder of the session's front output chunk (empty
    /// when the outbox is drained). Write some prefix of it, then call
    /// [`FanoutServer::consume_output`] with the number of bytes
    /// actually written.
    ///
    /// # Panics
    ///
    /// Panics if `id` is not an open session.
    pub fn peek_output(&self, id: SessionId) -> &[u8] {
        self.sessions
            .get(&id)
            .expect("unknown session")
            .outbox
            .front()
            .map(|o| &o.chunk.as_bytes()[o.offset..])
            .unwrap_or(&[])
    }

    /// Marks `n` output bytes as written, advancing (and eventually
    /// retiring) front chunks.
    ///
    /// # Panics
    ///
    /// Panics if `id` is not an open session or `n` exceeds the pending
    /// output.
    pub fn consume_output(&mut self, id: SessionId, n: usize) {
        let session = self.sessions.get_mut(&id).expect("unknown session");
        let mut left = n;
        while left > 0 {
            let front = session
                .outbox
                .front_mut()
                .expect("consumed past pending output");
            let remaining = front.chunk.len() - front.offset;
            if left < remaining {
                front.offset += left;
                session.queued -= left;
                return;
            }
            left -= remaining;
            session.queued -= remaining;
            session.outbox.pop_front();
        }
    }

    /// Appends all pending output to `out`, emptying the session's
    /// outbox. Returns the number of bytes moved.
    ///
    /// # Panics
    ///
    /// Panics if `id` is not an open session.
    pub fn drain_output(&mut self, id: SessionId, out: &mut Vec<u8>) -> usize {
        let session = self.sessions.get_mut(&id).expect("unknown session");
        let mut moved = 0usize;
        while let Some(front) = session.outbox.pop_front() {
            let rest = &front.chunk.as_bytes()[front.offset..];
            out.extend_from_slice(rest);
            moved += rest.len();
        }
        session.queued = 0;
        moved
    }
}

/// The session registry: an exact live-session count plus a wake
/// generation, both under one condition variable — so tests and
/// orchestration code can *wait* for registration or reaping instead of
/// polling side effects, and the event loop can *sleep* on the same
/// condvar instead of a fixed poll tick ([`ServerHandle`] operations
/// bump the generation and are serviced immediately).
#[derive(Debug, Default)]
struct Registry {
    state: Mutex<RegistryState>,
    changed: Condvar,
}

#[derive(Debug, Default)]
struct RegistryState {
    open: usize,
    /// Bumped by every handle-side operation the event loop should
    /// react to (cache update, shutdown). Monotonic, never reset.
    wakes: u64,
}

impl Registry {
    fn opened(&self) {
        self.state.lock().expect("registry poisoned").open += 1;
        self.changed.notify_all();
    }

    fn closed(&self) {
        self.state.lock().expect("registry poisoned").open -= 1;
        self.changed.notify_all();
    }

    fn count(&self) -> usize {
        self.state.lock().expect("registry poisoned").open
    }

    /// Signals the event loop that handle-side state changed (queued
    /// notifies, shutdown request): bumps the wake generation and wakes
    /// every [`Registry::wait_for_wake`] sleeper.
    fn wake(&self) {
        self.state.lock().expect("registry poisoned").wakes += 1;
        self.changed.notify_all();
    }

    /// The current wake generation. The event loop samples it *before*
    /// a pass; a wake landing mid-pass makes the next
    /// [`Registry::wait_for_wake`] return immediately (no lost wakeup).
    fn wake_generation(&self) -> u64 {
        self.state.lock().expect("registry poisoned").wakes
    }

    /// Blocks until the wake generation moves past `seen` or `cap`
    /// elapses — the event loop's idle wait, with `cap` (the old poll
    /// interval) as the blocking bound so socket readiness is still
    /// polled.
    fn wait_for_wake(&self, seen: u64, cap: Duration) {
        let deadline = Instant::now() + cap;
        let mut state = self.state.lock().expect("registry poisoned");
        while state.wakes == seen {
            let Some(left) = deadline.checked_duration_since(Instant::now()) else {
                return;
            };
            let (guard, result) = self
                .changed
                .wait_timeout(state, left)
                .expect("registry poisoned");
            state = guard;
            if result.timed_out() {
                return;
            }
        }
    }

    /// Blocks until `pred(open_count)` holds or `timeout` elapses;
    /// returns whether it held.
    fn wait_until(&self, timeout: Duration, pred: impl Fn(usize) -> bool) -> bool {
        let deadline = Instant::now() + timeout;
        let mut state = self.state.lock().expect("registry poisoned");
        while !pred(state.open) {
            let Some(left) = deadline.checked_duration_since(Instant::now()) else {
                return false;
            };
            let (guard, result) = self
                .changed
                .wait_timeout(state, left)
                .expect("registry poisoned");
            state = guard;
            if result.timed_out() && !pred(state.open) {
                return false;
            }
        }
        true
    }
}

#[derive(Debug)]
struct Shared {
    core: Mutex<FanoutServer>,
    registry: Registry,
    shutdown: AtomicBool,
}

impl Shared {
    /// Locks the core, recovering it from a poisoned mutex: a
    /// [`ServerHandle::with_core`] closure that panicked must not wedge
    /// the event loop and every other handle. A `FanoutServer` method
    /// that panics (an unknown session id, say) does so between whole
    /// updates of the session table and outboxes, never inside one, so
    /// the state behind a poisoned lock is still servable.
    fn core(&self) -> MutexGuard<'_, FanoutServer> {
        self.core.lock().unwrap_or_else(PoisonError::into_inner)
    }
}

/// The non-blocking TCP adapter over [`FanoutServer`]: one event-loop
/// thread multiplexes every router connection. Obtain a
/// [`ServerHandle`] before moving the server into its serving thread.
///
/// Every accepted connection has `TCP_NODELAY` set: a Serial Notify, a
/// small delta or the last segment of a response is written at once,
/// not held back by Nagle's algorithm until the router's delayed ACK of
/// the previous segment arrives.
///
/// ```no_run
/// use rpki_rtr::cache::CacheServer;
/// use rpki_rtr::server::TcpCacheServer;
///
/// let server = TcpCacheServer::bind(
///     "127.0.0.1:0".parse().unwrap(),
///     CacheServer::new(1, &[]),
/// )
/// .unwrap();
/// let handle = server.handle();
/// let serving = std::thread::spawn(move || server.serve());
/// // ... connect routers against handle.addr(), push updates with
/// // handle.update_and_notify(..), then:
/// handle.shutdown();
/// serving.join().unwrap().unwrap();
/// ```
#[derive(Debug)]
pub struct TcpCacheServer {
    listener: TcpListener,
    shared: Arc<Shared>,
}

/// A cloneable control handle to a running [`TcpCacheServer`]: cache
/// updates with notify fan-out, registry waits, and shutdown.
#[derive(Debug, Clone)]
pub struct ServerHandle {
    shared: Arc<Shared>,
    addr: SocketAddr,
}

/// One connection owned by the event loop.
#[derive(Debug)]
struct Conn {
    stream: TcpStream,
    id: SessionId,
    dead: bool,
}

/// Readies an accepted connection for the event loop: non-blocking, and
/// `TCP_NODELAY` (see [`TcpCacheServer`]). The option is best effort:
/// some systems refuse it on a connection the peer has already reset,
/// which the read pass then reaps like any other hangup.
fn ready(stream: &TcpStream) -> std::io::Result<()> {
    stream.set_nonblocking(true)?;
    let _ = stream.set_nodelay(true);
    Ok(())
}

impl TcpCacheServer {
    /// Binds a listener and wraps the cache with default tuning.
    pub fn bind(addr: SocketAddr, cache: CacheServer) -> Result<TcpCacheServer, TransportError> {
        TcpCacheServer::bind_with_config(addr, cache, ServerConfig::default())
    }

    /// Binds with explicit [`ServerConfig`] tuning.
    pub fn bind_with_config(
        addr: SocketAddr,
        cache: CacheServer,
        config: ServerConfig,
    ) -> Result<TcpCacheServer, TransportError> {
        TcpCacheServer::bind_with_clock(addr, cache, config, Clock::system())
    }

    /// Binds with explicit tuning on an explicit [`Clock`] — tests
    /// drive idle eviction with a [`Clock::manual`] instead of waiting
    /// out real deadlines.
    pub fn bind_with_clock(
        addr: SocketAddr,
        cache: CacheServer,
        config: ServerConfig,
        clock: Clock,
    ) -> Result<TcpCacheServer, TransportError> {
        let listener = TcpListener::bind(addr)?;
        listener.set_nonblocking(true)?;
        Ok(TcpCacheServer {
            listener,
            shared: Arc::new(Shared {
                core: Mutex::new(FanoutServer::with_clock(cache, config, clock)),
                registry: Registry::default(),
                shutdown: AtomicBool::new(false),
            }),
        })
    }

    /// The bound address (useful with port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.listener.local_addr().expect("bound listener")
    }

    /// A control handle usable from other threads while
    /// [`TcpCacheServer::serve`] runs.
    pub fn handle(&self) -> ServerHandle {
        ServerHandle {
            shared: Arc::clone(&self.shared),
            addr: self.local_addr(),
        }
    }

    /// Runs the event loop until [`ServerHandle::shutdown`]: accept new
    /// connections into the session table, pump received bytes through
    /// the core, flush outboxes, and reap sessions whose socket hit EOF
    /// or whose teardown report has been fully flushed.
    pub fn serve(&self) -> Result<(), TransportError> {
        let mut conns: Vec<Conn> = Vec::new();
        let mut buf = [0u8; 4096];
        let poll_interval = self.shared.core().config().poll_interval;
        loop {
            // Sample the wake generation *before* the shutdown check and
            // the socket pass: a handle-side wake (update, shutdown)
            // landing anywhere in this iteration makes the idle wait at
            // the bottom return immediately instead of being lost.
            let wake_seen = self.shared.registry.wake_generation();
            if self.shared.shutdown.load(Ordering::Relaxed) {
                // Outboxes may still hold queued responses and teardown
                // reports; push them before the sockets close.
                self.drain_on_shutdown(&mut conns, poll_interval);
                for conn in conns.drain(..) {
                    self.shared.core().close_session(conn.id);
                    self.shared.registry.closed();
                }
                return Ok(());
            }
            let mut progressed = false;
            if !self.shared.core().evict_idle().is_empty() {
                // Evicted sessions report is_finished below and are
                // reaped this same pass.
                progressed = true;
            }
            // Accept every waiting connection.
            loop {
                match self.listener.accept() {
                    Ok((stream, _)) => {
                        ready(&stream)?;
                        let id = self.shared.core().open_session();
                        conns.push(Conn {
                            stream,
                            id,
                            dead: false,
                        });
                        self.shared.registry.opened();
                        progressed = true;
                    }
                    Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                    Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                    Err(e) => return Err(e.into()),
                }
            }
            for conn in &mut conns {
                // Read until the socket runs dry. EOF and hard errors
                // (RST, broken pipe) mark the session for reaping — a
                // vanished peer is a normal hangup, not a server error.
                loop {
                    match conn.stream.read(&mut buf) {
                        Ok(0) => {
                            conn.dead = true;
                            break;
                        }
                        Ok(n) => {
                            self.shared.core().receive(conn.id, &buf[..n]);
                            progressed = true;
                        }
                        Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                        Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                        Err(_) => {
                            conn.dead = true;
                            break;
                        }
                    }
                }
                // Flush as much queued output as the socket accepts.
                while !conn.dead {
                    let mut core = self.shared.core();
                    let chunk = core.peek_output(conn.id);
                    if chunk.is_empty() {
                        break;
                    }
                    match conn.stream.write(chunk) {
                        Ok(0) => {
                            conn.dead = true;
                        }
                        Ok(n) => {
                            core.consume_output(conn.id, n);
                            progressed = true;
                        }
                        Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                        Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                        Err(_) => {
                            conn.dead = true;
                        }
                    }
                }
                // A torn-down session whose closing report has been
                // flushed closes from our side.
                if !conn.dead && self.shared.core().is_finished(conn.id) {
                    conn.dead = true;
                }
            }
            conns.retain(|conn| {
                if conn.dead {
                    self.shared.core().close_session(conn.id);
                    self.shared.registry.closed();
                    progressed = true;
                }
                !conn.dead
            });
            if !progressed {
                // Idle: block on the registry condvar instead of a fixed
                // sleep, so `update_and_notify`/`shutdown` are serviced
                // immediately. `poll_interval` remains the cap because
                // socket readiness is still discovered by polling.
                self.shared.registry.wait_for_wake(wake_seen, poll_interval);
            }
        }
    }

    /// The bounded final flush run by [`TcpCacheServer::serve`] on
    /// shutdown: one last read pass so bytes already in flight still
    /// get their response or teardown report queued, then write passes
    /// until every outbox is empty (or a slow peer exhausts the pass
    /// budget — shutdown must terminate even against a stalled reader).
    fn drain_on_shutdown(&self, conns: &mut [Conn], poll_interval: Duration) {
        const FLUSH_PASSES: usize = 64;
        let mut buf = [0u8; 4096];
        for conn in conns.iter_mut() {
            loop {
                match conn.stream.read(&mut buf) {
                    Ok(0) => {
                        conn.dead = true;
                        break;
                    }
                    Ok(n) => self.shared.core().receive(conn.id, &buf[..n]),
                    Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                    Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                    Err(_) => {
                        conn.dead = true;
                        break;
                    }
                }
            }
        }
        for _ in 0..FLUSH_PASSES {
            let mut blocked = false;
            for conn in conns.iter_mut() {
                while !conn.dead {
                    let mut core = self.shared.core();
                    let chunk = core.peek_output(conn.id);
                    if chunk.is_empty() {
                        break;
                    }
                    match conn.stream.write(chunk) {
                        Ok(0) => conn.dead = true,
                        Ok(n) => core.consume_output(conn.id, n),
                        Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                            blocked = true;
                            break;
                        }
                        Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                        Err(_) => conn.dead = true,
                    }
                }
            }
            if !blocked {
                return;
            }
            // Pace the retry against a slow peer, but stay wakeable so a
            // concurrent handle operation doesn't stall the drain.
            let seen = self.shared.registry.wake_generation();
            self.shared.registry.wait_for_wake(seen, poll_interval);
        }
    }
}

impl ServerHandle {
    /// The server's bound address.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Replaces the VRP set and queues a Serial Notify for every live
    /// session, waking the event loop so the notifies are flushed
    /// immediately rather than on the next poll tick. Returns the number
    /// of sessions notified.
    pub fn update_and_notify(&self, vrps: &[Vrp]) -> usize {
        let notified = self.shared.core().update_and_notify(vrps);
        self.shared.registry.wake();
        notified
    }

    /// Applies a churn-style delta and queues notifies, like
    /// [`ServerHandle::update_and_notify`].
    pub fn update_delta_and_notify(&self, announced: &[Vrp], withdrawn: &[Vrp]) -> usize {
        let notified = self
            .shared
            .core()
            .update_delta_and_notify(announced, withdrawn);
        self.shared.registry.wake();
        notified
    }

    /// Runs `f` against the fan-out core under its lock, then wakes the
    /// event loop (`f` may have queued output or advanced timers).
    pub fn with_core<R>(&self, f: impl FnOnce(&mut FanoutServer) -> R) -> R {
        let result = f(&mut self.shared.core());
        self.shared.registry.wake();
        result
    }

    /// Runs `f` against the cache under the core lock, without any
    /// notify fan-out (see [`FanoutServer::with_cache`]).
    pub fn with_cache<R>(&self, f: impl FnOnce(&mut CacheServer) -> R) -> R {
        let result = self.shared.core().with_cache(f);
        self.shared.registry.wake();
        result
    }

    /// Number of currently registered sessions.
    pub fn session_count(&self) -> usize {
        self.shared.registry.count()
    }

    /// Blocks until at least `n` sessions are registered, or `timeout`
    /// elapses. Returns whether the condition was met — the explicit
    /// registration handshake that replaces update-until-a-write-sticks
    /// polling.
    pub fn wait_for_sessions(&self, n: usize, timeout: Duration) -> bool {
        self.shared.registry.wait_until(timeout, |open| open >= n)
    }

    /// Blocks until every session has been reaped, or `timeout` elapses.
    /// Returns whether the registry emptied.
    pub fn wait_for_no_sessions(&self, timeout: Duration) -> bool {
        self.shared.registry.wait_until(timeout, |open| open == 0)
    }

    /// Asks the event loop to stop; it closes every connection and
    /// returns. The wake makes an idle loop notice immediately instead
    /// of finishing its blocking wait first.
    pub fn shutdown(&self) {
        self.shared.shutdown.store(true, Ordering::Relaxed);
        self.shared.registry.wake();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::client::RouterClient;
    use crate::pdu::{Pdu, PROTOCOL_V1};
    use crate::transport::{TcpTransport, Transport};
    use crate::wire;
    use std::thread;

    fn vrps(list: &[&str]) -> Vec<Vrp> {
        list.iter().map(|s| s.parse().unwrap()).collect()
    }

    fn encode(pdu: &Pdu, version: u8) -> Vec<u8> {
        let mut out = Vec::new();
        pdu.as_wire().encode_into(version, &mut out);
        out
    }

    /// What `CacheServer::handle_wire` would put on the wire for
    /// `request` — the per-session baseline the shared images must match
    /// byte for byte.
    fn oracle_bytes(cache: &CacheServer, request: &Pdu, version: u8) -> Vec<u8> {
        let oracle = cache.clone();
        let mut negotiation = oracle.negotiation();
        let mut out = Vec::new();
        let _ = oracle.handle_wire(&encode(request, version), &mut negotiation, &mut out);
        out
    }

    #[test]
    fn shared_images_serve_bit_identical_bytes() {
        let mut server = FanoutServer::new(CacheServer::new(7, &vrps(&["10.0.0.0/8 => AS1"])));
        let expect = oracle_bytes(server.cache(), &Pdu::ResetQuery, PROTOCOL_V1);
        let query = encode(&Pdu::ResetQuery, PROTOCOL_V1);
        let ids: Vec<SessionId> = (0..3).map(|_| server.open_session()).collect();
        for &id in &ids {
            server.receive(id, &query);
            let mut got = Vec::new();
            server.drain_output(id, &mut got);
            assert_eq!(got, expect, "shared image must match the wire oracle");
        }
        // One serialization, two Arc shares.
        assert_eq!(server.stats().images_built, 1);
        assert_eq!(server.stats().images_reused, 2);
    }

    #[test]
    fn out_of_window_serials_share_one_reset_image() {
        let mut server = FanoutServer::new(CacheServer::new(7, &vrps(&["10.0.0.0/8 => AS1"])));
        let id = server.open_session();
        // Pin the session by a first exchange so stats start clean.
        server.receive(id, &encode(&Pdu::ResetQuery, PROTOCOL_V1));
        let mut sink = Vec::new();
        server.drain_output(id, &mut sink);
        let built_before = server.stats().images_built;
        // Hostile serials all over the u32 line: far future, far past,
        // straddling the wrap. Every one is out of the history window.
        for serial in [5u32, 500, u32::MAX, u32::MAX - 17, 1 << 31] {
            let query = Pdu::SerialQuery {
                session_id: 7,
                serial,
            };
            server.receive(id, &encode(&query, PROTOCOL_V1));
            let mut got = Vec::new();
            server.drain_output(id, &mut got);
            assert_eq!(
                got,
                encode(&Pdu::CacheReset, PROTOCOL_V1),
                "serial {serial}"
            );
        }
        // One reset image serialized, four shares: the store is bounded
        // no matter what serials the fleet claims.
        assert_eq!(server.stats().images_built, built_before + 1);
        assert!(server.stats().images_reused >= 4);
    }

    #[test]
    fn overflow_drops_stale_output_and_queues_a_reset() {
        let config = ServerConfig {
            outbox_limit: 48,
            ..ServerConfig::default()
        };
        let cache = CacheServer::new(9, &vrps(&["10.0.0.0/8 => AS1", "11.0.0.0/8 => AS2"]));
        let mut server = FanoutServer::with_config(cache, config);
        let id = server.open_session();
        // The full response lands on an empty outbox: always accepted,
        // even above the limit — a draining consumer makes progress.
        server.receive(id, &encode(&Pdu::ResetQuery, PROTOCOL_V1));
        assert!(server.pending_output(id) > config.outbox_limit);
        assert_eq!(server.stats().overflow_drops, 0);
        // The consumer never drains; the next epoch's notify overflows
        // the queue. The stale response is dropped and replaced by a
        // Cache Reset — bounded memory, RFC-shaped recovery.
        server.update_delta_and_notify(&vrps(&["12.0.0.0/8 => AS3"]), &[]);
        let stats = server.stats();
        assert_eq!(stats.overflow_drops, 1);
        assert_eq!(stats.overflow_resets, 1);
        assert!(stats.dropped_bytes > 0);
        let mut got = Vec::new();
        server.drain_output(id, &mut got);
        assert_eq!(got, encode(&Pdu::CacheReset, PROTOCOL_V1));
        assert!(server.pending_output(id) <= config.outbox_limit);
    }

    #[test]
    fn dropped_notifies_are_not_replaced() {
        let config = ServerConfig {
            outbox_limit: 16,
            ..ServerConfig::default()
        };
        let cache = CacheServer::new(9, &vrps(&["10.0.0.0/8 => AS1"]));
        let mut server = FanoutServer::with_config(cache, config);
        let id = server.open_session();
        // Two undrained notifies: the second overflows and both vanish
        // silently — Serial Notify is advisory, no Cache Reset owed.
        server.update_delta_and_notify(&vrps(&["12.0.0.0/8 => AS3"]), &[]);
        server.update_delta_and_notify(&vrps(&["13.0.0.0/8 => AS4"]), &[]);
        assert_eq!(server.stats().overflow_drops, 1);
        assert_eq!(server.stats().overflow_resets, 0);
        let mut got = Vec::new();
        server.drain_output(id, &mut got);
        assert!(got.is_empty(), "dropped notifies leave nothing behind");
    }

    #[test]
    fn partially_written_chunks_survive_overflow() {
        let config = ServerConfig {
            outbox_limit: 32,
            ..ServerConfig::default()
        };
        let cache = CacheServer::new(3, &vrps(&["10.0.0.0/8 => AS1"]));
        let mut server = FanoutServer::with_config(cache, config);
        let id = server.open_session();
        server.receive(id, &encode(&Pdu::ResetQuery, PROTOCOL_V1));
        let full = oracle_bytes(server.cache(), &Pdu::ResetQuery, PROTOCOL_V1);
        // Half the response has hit the socket; an overflow must not
        // tear the frame mid-PDU.
        server.consume_output(id, 10);
        server.update_delta_and_notify(&vrps(&["12.0.0.0/8 => AS3"]), &[]);
        let mut got = Vec::new();
        server.drain_output(id, &mut got);
        assert_eq!(got, full[10..].to_vec(), "the cut chunk must finish intact");
    }

    #[test]
    fn garbage_tears_down_with_a_report() {
        let mut server = FanoutServer::new(CacheServer::new(7, &vrps(&["10.0.0.0/8 => AS1"])));
        let id = server.open_session();
        // Version 9 does not exist; the negotiation rejects it.
        server.receive(id, &[9, 2, 0, 0, 0, 0, 0, 8]);
        assert!(server.session_error(id).is_some());
        assert_eq!(server.stats().teardowns, 1);
        assert!(!server.is_finished(id), "the report is still queued");
        let mut report = Vec::new();
        server.drain_output(id, &mut report);
        let frame = wire::decode_frame(&report).unwrap().expect("a full report");
        assert!(matches!(frame.pdu.to_owned(), Pdu::ErrorReport { .. }));
        assert!(server.is_finished(id), "report flushed: ready to close");
        // Input after teardown is ignored, not processed.
        server.receive(id, &encode(&Pdu::ResetQuery, PROTOCOL_V1));
        assert_eq!(server.pending_output(id), 0);
    }

    #[test]
    fn notify_skips_torn_down_sessions() {
        let mut server = FanoutServer::new(CacheServer::new(7, &vrps(&["10.0.0.0/8 => AS1"])));
        let healthy = server.open_session();
        let broken = server.open_session();
        server.receive(broken, &[9, 2, 0, 0, 0, 0, 0, 8]);
        assert_eq!(
            server.update_and_notify(&vrps(&["11.0.0.0/8 => AS2"])),
            1,
            "only the healthy session is notified"
        );
        assert!(server.pending_output(healthy) > 0);
    }

    // ---- TCP adapter ----

    /// Bounded poll for a core-state side effect the registry cannot
    /// observe (e.g. "the teardown report is queued").
    fn wait_until(mut pred: impl FnMut() -> bool) {
        let deadline = Instant::now() + Duration::from_secs(5);
        while !pred() {
            assert!(Instant::now() < deadline, "condition never reached");
            thread::sleep(Duration::from_millis(1));
        }
    }

    #[test]
    fn accepted_connections_are_nonblocking_without_nagle() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let _router = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let (mut stream, _) = listener.accept().unwrap();
        assert!(!stream.nodelay().unwrap());
        ready(&stream).unwrap();
        assert!(stream.nodelay().unwrap());
        let err = stream.read(&mut [0u8; 8]).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::WouldBlock);
    }

    fn spawn_server(
        vrps: &[Vrp],
    ) -> (ServerHandle, thread::JoinHandle<Result<(), TransportError>>) {
        let server =
            TcpCacheServer::bind("127.0.0.1:0".parse().unwrap(), CacheServer::new(77, vrps))
                .unwrap();
        let handle = server.handle();
        let serving = thread::spawn(move || server.serve());
        (handle, serving)
    }

    fn spawn_server_with_config(
        vrps: &[Vrp],
        config: ServerConfig,
    ) -> (ServerHandle, thread::JoinHandle<Result<(), TransportError>>) {
        let server = TcpCacheServer::bind_with_config(
            "127.0.0.1:0".parse().unwrap(),
            CacheServer::new(77, vrps),
            config,
        )
        .unwrap();
        let handle = server.handle();
        let serving = thread::spawn(move || server.serve());
        (handle, serving)
    }

    /// A poll interval long enough that any test passing in well under
    /// it proves the condvar wakeup fired, not the poll tick.
    const GLACIAL_POLL: Duration = Duration::from_secs(10);

    #[test]
    fn notify_is_delivered_without_waiting_for_the_poll_tick() {
        let config = ServerConfig {
            poll_interval: GLACIAL_POLL,
            ..ServerConfig::default()
        };
        let (handle, serving) = spawn_server_with_config(&vrps(&["10.0.0.0/8 => AS1"]), config);
        let mut transport = TcpTransport::connect(handle.addr()).unwrap();
        let mut router = RouterClient::new();
        router.synchronize(&mut transport).unwrap();
        assert!(handle.wait_for_sessions(1, Duration::from_secs(5)));
        let t0 = Instant::now();
        assert_eq!(handle.update_and_notify(&vrps(&["11.0.0.0/8 => AS2"])), 1);
        let notify = transport.recv().unwrap();
        let elapsed = t0.elapsed();
        assert!(matches!(notify, Pdu::SerialNotify { session_id: 77, .. }));
        assert!(
            elapsed < GLACIAL_POLL / 2,
            "notify took {elapsed:?}: the idle loop slept through the wake"
        );
        handle.shutdown();
        serving.join().unwrap().unwrap();
    }

    #[test]
    fn shutdown_interrupts_an_idle_poll_wait() {
        let config = ServerConfig {
            poll_interval: GLACIAL_POLL,
            ..ServerConfig::default()
        };
        let (handle, serving) = spawn_server_with_config(&vrps(&["10.0.0.0/8 => AS1"]), config);
        // Let the loop run at least one empty pass and park in its
        // blocking wait before asking it to stop.
        thread::sleep(Duration::from_millis(20));
        let t0 = Instant::now();
        handle.shutdown();
        serving.join().unwrap().unwrap();
        let elapsed = t0.elapsed();
        assert!(
            elapsed < GLACIAL_POLL / 2,
            "shutdown took {elapsed:?}: the idle loop slept through the wake"
        );
    }

    #[test]
    fn tcp_sync_and_incremental_update() {
        let initial = vrps(&["10.0.0.0/8 => AS1"]);
        let (handle, serving) = spawn_server(&initial);
        let mut transport = TcpTransport::connect(handle.addr()).unwrap();
        let mut router = RouterClient::new();
        router.synchronize(&mut transport).unwrap();
        assert_eq!(router.vrps().len(), 1);
        // Registration handshake, then exactly one notify push.
        assert!(handle.wait_for_sessions(1, Duration::from_secs(5)));
        let announced = vrps(&["11.0.0.0/8 => AS2"]);
        assert_eq!(handle.update_delta_and_notify(&announced, &[]), 1);
        let notify = transport.recv().unwrap();
        assert!(matches!(notify, Pdu::SerialNotify { session_id: 77, .. }));
        router.handle(&notify).unwrap();
        router.synchronize(&mut transport).unwrap();
        assert_eq!(router.vrps().len(), 2);
        assert_eq!(router.serial(), 1);
        handle.shutdown();
        serving.join().unwrap().unwrap();
    }

    #[test]
    fn a_panicking_with_core_closure_does_not_wedge_the_server() {
        let (handle, serving) = spawn_server(&vrps(&["10.0.0.0/8 => AS1"]));
        let mut first = TcpTransport::connect(handle.addr()).unwrap();
        RouterClient::new().synchronize(&mut first).unwrap();
        let poisoner = handle.clone();
        let panicked = thread::spawn(move || poisoner.with_core(|_| panic!("closure bug")));
        assert!(panicked.join().is_err());
        // The core mutex is poisoned now; the event loop and every
        // handle must keep locking it. A closure that dies after
        // changing the cache must not leave the old image to be served.
        let next = vrps(&["10.0.0.0/8 => AS1", "11.0.0.0/8 => AS2"]);
        let poisoner = handle.clone();
        let panicked = thread::spawn(move || {
            poisoner.with_cache(|cache| {
                cache.update(&next);
                panic!("closure bug");
            })
        });
        assert!(panicked.join().is_err());
        let mut transport = TcpTransport::connect(handle.addr()).unwrap();
        let mut router = RouterClient::new();
        router.synchronize(&mut transport).unwrap();
        assert_eq!((router.vrps().len(), router.serial()), (2, 1));
        assert_eq!(handle.update_and_notify(&[]), 2, "both routers notified");
        router.synchronize(&mut transport).unwrap();
        assert_eq!((router.vrps().len(), router.serial()), (0, 2));
        handle.shutdown();
        serving.join().unwrap().unwrap();
    }

    #[test]
    fn tcp_multiple_routers_share_one_image() {
        let set = vrps(&["10.0.0.0/8 => AS1", "2001:db8::/32-48 => AS2"]);
        let (handle, serving) = spawn_server(&set);
        let mut routers = Vec::new();
        for _ in 0..3 {
            let mut transport = TcpTransport::connect(handle.addr()).unwrap();
            let mut router = RouterClient::new();
            router.synchronize(&mut transport).unwrap();
            routers.push((router, transport));
        }
        for (router, _) in &routers {
            assert_eq!(router.vrps().len(), 2);
        }
        // Three identical reset flows, one serialization.
        let stats = handle.with_core(|core| core.stats());
        assert_eq!(stats.images_built, 1);
        assert_eq!(stats.images_reused, 2);
        handle.shutdown();
        serving.join().unwrap().unwrap();
    }

    #[test]
    fn dead_sessions_reaped_by_registry() {
        let (handle, serving) = spawn_server(&vrps(&["10.0.0.0/8 => AS1"]));
        let transport = TcpTransport::connect(handle.addr()).unwrap();
        assert!(handle.wait_for_sessions(1, Duration::from_secs(5)));
        drop(transport);
        // The registry observes the hangup — no probing writes needed.
        assert!(handle.wait_for_no_sessions(Duration::from_secs(5)));
        assert_eq!(
            handle.update_and_notify(&vrps(&["11.0.0.0/8 => AS2"])),
            0,
            "nobody left to notify"
        );
        handle.shutdown();
        serving.join().unwrap().unwrap();
    }

    #[test]
    fn idle_sessions_evicted_on_the_manual_clock() {
        let clock = Clock::manual();
        let config = ServerConfig {
            idle_timeout: Some(Duration::from_secs(30)),
            ..ServerConfig::default()
        };
        let cache = CacheServer::new(7, &vrps(&["10.0.0.0/8 => AS1"]));
        let mut server = FanoutServer::with_clock(cache, config, clock.clone());
        let idle = server.open_session();
        let active = server.open_session();
        clock.advance(Duration::from_secs(29));
        assert!(server.evict_idle().is_empty(), "inside the deadline");
        // The active session speaks; the idle one stays silent.
        server.receive(active, &encode(&Pdu::ResetQuery, PROTOCOL_V1));
        clock.advance(Duration::from_secs(1));
        assert_eq!(server.evict_idle(), vec![idle]);
        assert_eq!(server.stats().evictions, 1);
        assert!(server.is_finished(idle), "evicted: the driver closes it");
        assert!(!server.is_finished(active));
        // Eviction is sticky and not double-counted.
        assert!(server.evict_idle().is_empty());
        assert_eq!(server.stats().evictions, 1);
        // Input and notifies to an evicted session are ignored.
        server.receive(idle, &encode(&Pdu::ResetQuery, PROTOCOL_V1));
        assert_eq!(server.pending_output(idle), 0);
        server.update_delta_and_notify(&vrps(&["11.0.0.0/8 => AS2"]), &[]);
        assert_eq!(server.pending_output(idle), 0);
    }

    #[test]
    fn no_idle_timeout_means_no_eviction() {
        let clock = Clock::manual();
        let cache = CacheServer::new(7, &vrps(&["10.0.0.0/8 => AS1"]));
        let mut server = FanoutServer::with_clock(cache, ServerConfig::default(), clock.clone());
        let id = server.open_session();
        clock.advance(Duration::from_secs(1 << 20));
        assert!(server.evict_idle().is_empty());
        assert!(!server.is_finished(id));
    }

    #[test]
    fn notify_pacing_skips_inside_the_window() {
        let clock = Clock::manual();
        let config = ServerConfig {
            notify_min_interval: Duration::from_secs(10),
            ..ServerConfig::default()
        };
        let cache = CacheServer::new(7, &vrps(&["10.0.0.0/8 => AS1"]));
        let mut server = FanoutServer::with_clock(cache, config, clock.clone());
        let id = server.open_session();
        assert_eq!(
            server.update_delta_and_notify(&vrps(&["11.0.0.0/8 => AS2"]), &[]),
            1,
            "the first notify always goes out"
        );
        // A churny epoch lands 1 second later: paced, nothing queued.
        clock.advance(Duration::from_secs(1));
        let before = server.pending_output(id);
        assert_eq!(
            server.update_delta_and_notify(&vrps(&["12.0.0.0/8 => AS3"]), &[]),
            0
        );
        assert_eq!(server.pending_output(id), before);
        assert_eq!(server.stats().notifies_paced, 1);
        // Past the window the notify flows again, carrying the newest
        // serial — the paced epoch is not lost, just coalesced.
        clock.advance(Duration::from_secs(9));
        assert_eq!(
            server.update_delta_and_notify(&vrps(&["13.0.0.0/8 => AS4"]), &[]),
            1
        );
        let mut out = Vec::new();
        server.drain_output(id, &mut out);
        let mut notified_serials = Vec::new();
        let mut rest = &out[..];
        while let Some(frame) = wire::decode_frame(rest).unwrap() {
            if let Pdu::SerialNotify { serial, .. } = frame.pdu.to_owned() {
                notified_serials.push(serial);
            }
            rest = &rest[frame.len..];
        }
        assert_eq!(notified_serials, vec![1, 3], "paced epoch 2 coalesced");
    }

    #[test]
    fn garbage_from_router_gets_error_report_then_close() {
        let (handle, serving) = spawn_server(&vrps(&["10.0.0.0/8 => AS1"]));
        let mut stream = TcpStream::connect(handle.addr()).unwrap();
        stream.write_all(&[9, 2, 0, 0, 0, 0, 0, 8]).unwrap();
        // The server answers with a closing Error Report and hangs up.
        let mut report = Vec::new();
        stream.read_to_end(&mut report).unwrap();
        let frame = wire::decode_frame(&report).unwrap().expect("a full report");
        assert!(matches!(frame.pdu.to_owned(), Pdu::ErrorReport { .. }));
        // The reaped session leaves the registry.
        assert!(handle.wait_for_no_sessions(Duration::from_secs(5)));
        handle.shutdown();
        serving.join().unwrap().unwrap();
    }

    #[test]
    fn tcp_idle_sessions_reaped_on_the_manual_clock() {
        let clock = Clock::manual();
        let config = ServerConfig {
            idle_timeout: Some(Duration::from_secs(60)),
            ..ServerConfig::default()
        };
        let server = TcpCacheServer::bind_with_clock(
            "127.0.0.1:0".parse().unwrap(),
            CacheServer::new(77, &vrps(&["10.0.0.0/8 => AS1"])),
            config,
            clock.clone(),
        )
        .unwrap();
        let handle = server.handle();
        let serving = thread::spawn(move || server.serve());
        let mut transport = TcpTransport::connect(handle.addr()).unwrap();
        let mut router = RouterClient::new();
        router.synchronize(&mut transport).unwrap();
        assert!(handle.wait_for_sessions(1, Duration::from_secs(5)));
        // Sixty idle virtual seconds: the event loop evicts and reaps.
        clock.advance(Duration::from_secs(60));
        assert!(
            handle.wait_for_no_sessions(Duration::from_secs(5)),
            "idle session must be evicted"
        );
        assert_eq!(handle.with_core(|core| core.stats().evictions), 1);
        // Our side of the connection observes the hangup.
        assert!(transport.recv().is_err());
        handle.shutdown();
        serving.join().unwrap().unwrap();
    }

    #[test]
    fn shutdown_drains_queued_teardown_reports() {
        let (handle, serving) = spawn_server(&vrps(&["10.0.0.0/8 => AS1"]));
        let mut stream = TcpStream::connect(handle.addr()).unwrap();
        assert!(handle.wait_for_sessions(1, Duration::from_secs(5)));
        // The teardown report is queued (and possibly still unflushed)
        // when shutdown lands: the drain pass must deliver the closing
        // Error Report rather than slam the socket shut.
        stream.write_all(&[9, 2, 0, 0, 0, 0, 0, 8]).unwrap();
        wait_until(|| handle.with_core(|core| core.stats().teardowns >= 1));
        handle.shutdown();
        serving.join().unwrap().unwrap();
        let mut report = Vec::new();
        stream.read_to_end(&mut report).unwrap();
        let frame = wire::decode_frame(&report)
            .unwrap()
            .expect("shutdown must flush the queued report");
        assert!(matches!(frame.pdu.to_owned(), Pdu::ErrorReport { .. }));
    }

    #[test]
    fn shutdown_drains_pending_responses() {
        // A router whose query answer is still queued when shutdown
        // lands must receive the full response: drain-then-close, not
        // close-then-drop.
        let (handle, serving) = spawn_server(&vrps(&["10.0.0.0/8 => AS1", "11.0.0.0/8 => AS2"]));
        let mut transport = TcpTransport::connect(handle.addr()).unwrap();
        assert!(handle.wait_for_sessions(1, Duration::from_secs(5)));
        transport.send(&Pdu::ResetQuery).unwrap();
        wait_until(|| handle.with_core(|core| core.stats().images_built >= 1));
        handle.shutdown();
        serving.join().unwrap().unwrap();
        let mut router = RouterClient::new();
        loop {
            match transport.recv() {
                Ok(pdu) => {
                    if router.handle(&pdu).unwrap() {
                        break;
                    }
                }
                Err(e) => panic!("response must be drained before close: {e}"),
            }
        }
        assert_eq!(router.vrps().len(), 2);
    }
}
