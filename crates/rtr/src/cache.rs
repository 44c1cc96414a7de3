//! The cache-server side of rpki-rtr: Figure 1's "trusted local cache".
//!
//! The cache holds the current VRP set (the output of `scan_roas` or
//! `compress_roas`), versions it with serial numbers, and answers router
//! queries: a Reset Query gets the full set; a Serial Query gets the
//! announce/withdraw delta since the router's serial, or a Cache Reset if
//! that serial has aged out of the history window.
//!
//! The state machine is sans-io and has one responder: a private
//! traversal emits the answer to any request as borrowed
//! [`PduRef`]s, `respond` encodes them as they come, and
//! [`CacheServer::handle`] is the same traversal collected into owned
//! PDUs. [`CacheServer::handle_wire`] puts the frame step in front —
//! zero-copy decode via [`crate::wire`], version negotiation, and the
//! recoverable/fatal teardown split — and [`crate::server`], which
//! serves real connections, takes that same step. What a cache must
//! answer is specified independently by the set-history model in
//! `tests/model.rs`.

use std::collections::BTreeSet;
use std::collections::VecDeque;
use std::sync::{Arc, OnceLock};

use rpki_prefix::Afi;
use rpki_roa::Vrp;
use rpki_rov::FrozenVrpIndex;

use crate::pdu::{ErrorCode, Flags, Pdu, Timing, PROTOCOL_V1};
use crate::wire::{self, Frame, Negotiation, PduError, PduRef, HEADER_LEN, MAX_PDU_LEN};

/// One recorded delta between consecutive serials.
#[derive(Debug, Clone, Default)]
struct Delta {
    announced: Vec<Vrp>,
    withdrawn: Vec<Vrp>,
}

/// The extent of a complete, plausibly-framed PDU at the front of
/// `input`: its declared length, if that length is in protocol range and
/// the bytes are all present. Used to decide how much of a rejected
/// buffer can still be identified as "the offending PDU".
fn frame_extent(input: &[u8]) -> Option<usize> {
    let length = u32::from_be_bytes(input.get(4..HEADER_LEN)?.try_into().ok()?) as usize;
    ((HEADER_LEN..=MAX_PDU_LEN).contains(&length) && input.len() >= length).then_some(length)
}

/// How many deltas the cache keeps before answering old serials with
/// Cache Reset (RFC 8210 leaves this to the implementation). Public so
/// the model-based session tests can mirror the aging behaviour exactly.
pub const HISTORY_WINDOW: usize = 16;

/// The result of feeding received bytes to [`CacheServer::handle_wire`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WireOutcome {
    /// The buffer does not yet hold a complete frame; read more bytes
    /// and call again with the same (grown) buffer.
    NeedBytes,
    /// One request was decoded and answered; `out` holds the encoded
    /// response sequence. Drop `consumed` bytes from the front of the
    /// buffer and continue the session.
    Responded {
        /// Bytes consumed from the front of the input.
        consumed: usize,
    },
    /// The frame was malformed or violated version negotiation; `out`
    /// holds the final Error Report. Send it, then close the connection
    /// — recoverable errors ([`crate::ErrorClass::Recoverable`]) invite
    /// the router to reconnect at a lower version, fatal ones do not.
    Teardown {
        /// Bytes consumed from the front of the input (the whole buffer
        /// when the frame boundary itself is unrecoverable).
        consumed: usize,
        /// The classified decode/negotiation error.
        error: PduError,
    },
}

/// The rpki-rtr cache server state machine.
#[derive(Debug, Clone)]
pub struct CacheServer {
    session_id: u16,
    serial: u32,
    vrps: BTreeSet<Vrp>,
    /// The frozen compilation of `vrps` at the current serial, built by
    /// the first read after an update: the flat snapshot a Reset Query is
    /// served from, and the one shared (cheaply, by `Arc`) with anything
    /// validating against this cache's state.
    snapshot: OnceLock<Arc<FrozenVrpIndex>>,
    /// `history[i]` is the delta from `serial - history.len() + i` to the
    /// next serial.
    history: VecDeque<Delta>,
    timing: Timing,
    /// The highest protocol version this cache speaks; sessions
    /// negotiate down from here (RFC 8210 §7).
    version: u8,
}

impl CacheServer {
    /// Creates a cache at serial 0 holding `vrps`, speaking up to
    /// protocol version 1.
    pub fn new(session_id: u16, vrps: &[Vrp]) -> CacheServer {
        CacheServer::with_version(session_id, vrps, PROTOCOL_V1)
    }

    /// Creates a cache like [`CacheServer::new`] but starting at
    /// `serial` instead of 0.
    ///
    /// RFC 8210 §5.1 recommends a cache pick an unpredictable initial
    /// serial on restart precisely so routers cannot assume serials
    /// start low — which puts the `u32` wrap-around inside the normal
    /// operating envelope. Tests use this to pin the serial-arithmetic
    /// behaviour of [`CacheServer::handle`] at the `u32::MAX` boundary.
    ///
    /// A test hook: `tests/server_props.rs` starts caches near serial
    /// wrap-around with it.
    pub fn with_initial_serial(session_id: u16, vrps: &[Vrp], serial: u32) -> CacheServer {
        let mut cache = CacheServer::new(session_id, vrps);
        cache.serial = serial;
        cache
    }

    /// Creates a cache capped at `version` — a v0-only cache
    /// ([`crate::PROTOCOL_V0`]) answers v1 routers with the recoverable
    /// Unsupported-Version error, the RFC 6810 downgrade handshake.
    ///
    /// # Panics
    ///
    /// Panics on unknown versions.
    pub fn with_version(session_id: u16, vrps: &[Vrp], version: u8) -> CacheServer {
        // Negotiation validates the version byte once, here, so every
        // later per-connection `negotiation()` call is infallible.
        let _ = Negotiation::with_max(version);
        CacheServer {
            session_id,
            serial: 0,
            vrps: vrps.iter().copied().collect(),
            snapshot: OnceLock::new(),
            history: VecDeque::new(),
            timing: Timing::default(),
            version,
        }
    }

    /// The session identifier routers must echo.
    pub fn session_id(&self) -> u16 {
        self.session_id
    }

    /// The highest protocol version this cache speaks.
    pub fn version(&self) -> u8 {
        self.version
    }

    /// A fresh per-connection negotiation state machine capped at this
    /// cache's version — feed it to [`CacheServer::handle_wire`].
    pub fn negotiation(&self) -> Negotiation {
        Negotiation::with_max(self.version)
    }

    /// The current serial.
    pub fn serial(&self) -> u32 {
        self.serial
    }

    /// The Refresh/Retry/Expire parameters advertised in v1 End of Data
    /// PDUs (RFC 8210 §6).
    pub fn timing(&self) -> Timing {
        self.timing
    }

    /// Replaces the advertised timing parameters. Routers pick the new
    /// intervals up with their next End of Data; tests shrink them so
    /// freshness transitions happen in virtual seconds instead of
    /// hours. Callers running behind a [`crate::server::FanoutServer`]
    /// must mutate through [`crate::server::FanoutServer::with_cache`]
    /// so the shared response images (which embed End of Data bytes)
    /// are invalidated.
    ///
    /// A test hook: `testkit::session` and `testkit::faults` set the
    /// timers their scenarios need through it.
    pub fn set_timing(&mut self, timing: Timing) {
        self.timing = timing;
    }

    /// The current VRP set.
    pub fn vrps(&self) -> impl Iterator<Item = &Vrp> {
        self.vrps.iter()
    }

    /// The frozen snapshot of the VRP set at the current serial, built by
    /// the first read — validate routes against the cache's exact served
    /// state without copying it (the `Arc` clone is free; the snapshot is
    /// immutable and survives later [`CacheServer::update`] calls).
    pub fn snapshot(&self) -> Arc<FrozenVrpIndex> {
        Arc::clone(self.frozen())
    }

    /// The snapshot, frozen on first use at this serial.
    fn frozen(&self) -> &Arc<FrozenVrpIndex> {
        self.snapshot
            .get_or_init(|| Arc::new(self.vrps.iter().copied().collect()))
    }

    /// Number of VRPs currently served — the router-load metric of §6.
    pub fn len(&self) -> usize {
        self.vrps.len()
    }

    /// `true` if the cache holds no VRPs.
    pub fn is_empty(&self) -> bool {
        self.vrps.is_empty()
    }

    /// Replaces the VRP set (a new validation run on the local cache),
    /// bumping the serial and recording the delta. Returns the
    /// Serial Notify PDU to push to connected routers.
    ///
    /// Drops the frozen snapshot and does not rebuild it: only a Reset
    /// Query's answer and [`CacheServer::snapshot`] read it, so a serial
    /// that routers follow by deltas alone is never frozen, and one that
    /// is read is frozen once, by its first reader.
    pub fn update(&mut self, new_vrps: &[Vrp]) -> Pdu {
        let new_set: BTreeSet<Vrp> = new_vrps.iter().copied().collect();
        let delta = Delta {
            announced: new_set.difference(&self.vrps).copied().collect(),
            withdrawn: self.vrps.difference(&new_set).copied().collect(),
        };
        self.vrps = new_set;
        self.commit(delta)
    }

    /// Applies a churn-style delta (announcements and withdrawals) instead
    /// of a whole replacement set, bumping the serial and recording only
    /// the **effective** changes. Returns the Serial Notify PDU.
    ///
    /// The lists are normalized defensively — this is the sharp edge a
    /// naive `history.push_back(Delta { announced, withdrawn })` would
    /// cut itself on:
    ///
    /// * announcing a VRP already served, or withdrawing one that is not,
    ///   is dropped: recording such no-ops would make a later delta
    ///   response emit records RFC 8210-conformant routers reject
    ///   (duplicate announcement or withdrawal-of-unknown, error 7/6),
    ///   desynchronizing the session even though the serial chain looks
    ///   healthy;
    /// * a VRP in **both** lists resolves as announce-then-withdraw (the
    ///   withdrawal wins) — the same order `SnapshotChainEngine::apply_epoch`
    ///   and `ChurnTimeline::vrps_at` use, so feeding one dirty delta to the
    ///   session and an engine side by side cannot diverge.
    ///   The intra-epoch flap that nets to nothing (announce of an absent
    ///   VRP, then its withdrawal) cancels out of the recorded delta
    ///   entirely; at most one record per VRP ever enters the history.
    ///
    /// Clean deltas (e.g. a `ChurnGenerator` epoch) pass through
    /// unchanged, and the recorded delta always equals the set difference
    /// between consecutive serials, exactly as [`CacheServer::update`]
    /// records it.
    pub fn update_delta(&mut self, announced: &[Vrp], withdrawn: &[Vrp]) -> Pdu {
        let withdrawn: BTreeSet<Vrp> = withdrawn.iter().copied().collect();
        let mut delta = Delta::default();
        for &vrp in announced {
            // The withdrawal wins, so a VRP in both lists is never
            // announced: if it was served it ends up withdrawn below, if
            // it was not the flap leaves no record. Deciding that here,
            // by lookup, keeps the call O((a + w) log n) under the
            // `TcpCacheServer` core lock.
            if !withdrawn.contains(&vrp) && self.vrps.insert(vrp) {
                delta.announced.push(vrp);
            }
        }
        for vrp in withdrawn {
            if self.vrps.remove(&vrp) {
                delta.withdrawn.push(vrp);
            }
        }
        self.commit(delta)
    }

    /// The shared tail of every update: drop the snapshot, advance the
    /// serial, record the delta in the aged history window, and build the
    /// Serial Notify.
    fn commit(&mut self, delta: Delta) -> Pdu {
        self.snapshot = OnceLock::new();
        self.serial = self.serial.wrapping_add(1);
        self.history.push_back(delta);
        while self.history.len() > HISTORY_WINDOW {
            self.history.pop_front();
        }
        Pdu::SerialNotify {
            session_id: self.session_id,
            serial: self.serial,
        }
    }

    /// Handles one request PDU, producing the response sequence — the
    /// PDUs [`CacheServer::handle_wire`] encodes, owned.
    pub fn handle(&self, request: &Pdu) -> Vec<Pdu> {
        let mut out = Vec::new();
        self.answer(request.as_wire(), |pdu| out.push(pdu.to_owned()));
        out
    }

    /// Appends the encoded answer to `request` at `version` — what
    /// [`CacheServer::handle_wire`] sends for an accepted frame and what
    /// [`crate::server`] caches as a shared image.
    pub(crate) fn respond(&self, request: PduRef<'_>, version: u8, out: &mut Vec<u8>) {
        if request == PduRef::ResetQuery {
            // The one large answer: reserve the whole image once.
            let [n4, n6] = [Afi::V4, Afi::V6].map(|afi| self.frozen().len_for(afi));
            out.reserve(HEADER_LEN + 20 * n4 + 32 * n6 + self.end_of_data().wire_len(version));
        }
        self.answer(request, |pdu| pdu.encode_into(version, out));
    }

    /// The answer to any well-formed `request`, one PDU at a time in
    /// wire order — the only place the cache decides what to say.
    fn answer(&self, request: PduRef<'_>, mut emit: impl FnMut(PduRef<'_>)) {
        let session_id = self.session_id;
        match request {
            // The snapshot's flat array: per family by prefix length,
            // then address, origin, maxLength — an order routers must
            // not rely on.
            PduRef::ResetQuery => {
                emit(PduRef::CacheResponse { session_id });
                for &vrp in self.frozen().iter() {
                    let flags = Flags::Announce;
                    emit(PduRef::Prefix { flags, vrp });
                }
                emit(self.end_of_data());
            }
            PduRef::SerialQuery {
                session_id: theirs,
                serial,
            } => {
                let Some(behind) = self.serial_lag(theirs, serial) else {
                    emit(PduRef::CacheReset);
                    return;
                };
                emit(PduRef::CacheResponse { session_id });
                // Coalesce the deltas: a VRP announced then withdrawn (or
                // vice versa) across the window must not be sent twice.
                // A router already current (`behind == 0`) gets the empty
                // response confirming its serial.
                let mut announced: BTreeSet<Vrp> = BTreeSet::new();
                let mut withdrawn: BTreeSet<Vrp> = BTreeSet::new();
                for delta in self.history.iter().skip(self.history.len() - behind) {
                    for &v in &delta.announced {
                        if !withdrawn.remove(&v) {
                            announced.insert(v);
                        }
                    }
                    for &v in &delta.withdrawn {
                        if !announced.remove(&v) {
                            withdrawn.insert(v);
                        }
                    }
                }
                for (flags, set) in [(Flags::Announce, announced), (Flags::Withdraw, withdrawn)] {
                    for vrp in set {
                        emit(PduRef::Prefix { flags, vrp });
                    }
                }
                emit(self.end_of_data());
            }
            // Valid but not a query: the Invalid-Request report, and the
            // session continues. It embeds the request as encoded at v1 —
            // except an Error Report, which RFC 8210 §5.10 forbids
            // encapsulating.
            other => {
                let mut pdu = Vec::new();
                if other.type_code() != 10 {
                    other.encode_into(PROTOCOL_V1, &mut pdu);
                }
                emit(PduRef::ErrorReport {
                    code: ErrorCode::InvalidRequest,
                    pdu: &pdu,
                    text: &format!("unexpected PDU type {}", other.type_code()),
                });
            }
        }
    }

    /// The byte-level request path: decodes one frame zero-copy from the
    /// front of `input`, checks it against the connection's `negotiation`
    /// state, and appends the encoded response sequence to `out` at the
    /// session's negotiated version.
    ///
    /// This is the entry point transports use — the decode borrows
    /// straight from the receive buffer and the answer is encoded as it
    /// is produced, so no owned PDU exists on either side.
    ///
    /// On a malformed frame or a negotiation violation the appended
    /// response is the closing Error Report (RFC 8210 §5.10: carrying
    /// the offending frame when it is complete, identifiable, and not
    /// itself an Error Report), and the outcome says whether the error
    /// class invites a downgraded retry. Valid-but-unexpected request
    /// PDUs (e.g. a Cache Response sent *to* the cache) are not wire
    /// errors: they get the Invalid-Request report and the session
    /// continues.
    pub fn handle_wire(
        &self,
        input: &[u8],
        negotiation: &mut Negotiation,
        out: &mut Vec<u8>,
    ) -> WireOutcome {
        match self.next_request(input, negotiation, out) {
            Ok(None) => WireOutcome::NeedBytes,
            Ok(Some(frame)) => {
                self.respond(frame.pdu, frame.version, out);
                WireOutcome::Responded {
                    consumed: frame.len,
                }
            }
            Err((consumed, error)) => WireOutcome::Teardown { consumed, error },
        }
    }

    /// The frame step every byte-level server takes: decodes the frame
    /// at the front of `input` and checks its version against
    /// `negotiation`. `Ok(Some(frame))` is a request to answer at
    /// `frame.version` (now the session's); `Ok(None)` wants more bytes.
    /// `Err` ends the session: the closing Error Report is appended to
    /// `report`, and the pair says how many bytes of `input` the error
    /// consumed and what it was.
    pub(crate) fn next_request<'a>(
        &self,
        input: &'a [u8],
        negotiation: &mut Negotiation,
        report: &mut Vec<u8>,
    ) -> Result<Option<Frame<'a>>, (usize, PduError)> {
        let (consumed, error) = match wire::decode_frame(input) {
            Ok(None) => return Ok(None),
            Ok(Some(frame)) => match negotiation.accept(frame.version) {
                Ok(_) => return Ok(Some(frame)),
                Err(error) => (frame.len, error),
            },
            // The frame boundary may itself be a lie; trust the declared
            // length only when it is in range and the bytes are all
            // present, otherwise the whole buffer is poisoned (the
            // session closes either way).
            Err(error) => (frame_extent(input).unwrap_or(input.len()), error),
        };
        self.report_teardown(&error, &input[..consumed], negotiation, report);
        Err((consumed, error))
    }

    /// Builds and appends the closing Error Report for a wire error.
    fn report_teardown(
        &self,
        error: &PduError,
        offending: &[u8],
        negotiation: &Negotiation,
        out: &mut Vec<u8>,
    ) {
        // RFC 8210 §5.10: embed the offending PDU when one can be
        // identified — but never an Error Report, and never so much that
        // the report itself would overflow the length field.
        let embed = if offending.len() >= HEADER_LEN
            && offending.get(1) != Some(&10)
            && HEADER_LEN + 4 + offending.len() + 4 <= MAX_PDU_LEN
        {
            offending
        } else {
            &[]
        };
        let text = error.to_string();
        let report = PduRef::ErrorReport {
            code: error.error_code(),
            pdu: embed,
            text: &text,
        };
        // A pinned session reports at its version; an unpinned one at
        // the cache's maximum (the offender's version may not even be a
        // version).
        let version = negotiation.version().unwrap_or(self.version);
        report.encode_into(version, out);
    }

    /// RFC 1982-style serial comparison against the history window: how
    /// many deltas behind the cache a router claiming `router_serial` in
    /// session `session_id` is, if — and only if — the session is this
    /// cache's (RFC 8210 §5.4) and the serial is inside the window.
    ///
    /// Serial arithmetic is mod 2³², so "behind by `k`" and "ahead by
    /// `2³² − k`" are the same number; the only deterministic rule is
    /// the window itself. A serial whose lag `self.serial − router_serial
    /// (mod 2³²)` exceeds the retained history — which covers serials
    /// that aged out, serials from the cache's future (a cache restarted
    /// at a lower serial), and the far side of the `u32::MAX` wrap alike
    /// — gets `None`, and the answer is Cache Reset instead of a
    /// fabricated delta. A lag of 0 (router already current) is inside
    /// the window by definition, history or not. The fan-out server keys
    /// its shared delta images by this lag.
    pub(crate) fn serial_lag(&self, session_id: u16, router_serial: u32) -> Option<usize> {
        let lag = self.serial.wrapping_sub(router_serial) as usize;
        (session_id == self.session_id && lag <= self.history.len()).then_some(lag)
    }

    fn end_of_data(&self) -> PduRef<'static> {
        PduRef::EndOfData {
            session_id: self.session_id,
            serial: self.serial,
            timing: self.timing,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn vrp(s: &str) -> Vrp {
        s.parse().unwrap()
    }

    fn cache() -> CacheServer {
        CacheServer::new(
            7,
            &[vrp("10.0.0.0/8 => AS1"), vrp("2001:db8::/32-48 => AS2")],
        )
    }

    #[test]
    fn reset_query_returns_full_set() {
        let c = cache();
        let response = c.handle(&Pdu::ResetQuery);
        assert_eq!(response.len(), 4); // CacheResponse + 2 prefixes + EOD
        assert_eq!(response[0], Pdu::CacheResponse { session_id: 7 });
        assert!(matches!(
            response[1],
            Pdu::Prefix {
                flags: Flags::Announce,
                ..
            }
        ));
        assert!(matches!(response[3], Pdu::EndOfData { serial: 0, .. }));
    }

    #[test]
    fn update_bumps_serial_and_diffs() {
        let mut c = cache();
        let notify = c.update(&[vrp("10.0.0.0/8 => AS1"), vrp("11.0.0.0/8 => AS3")]);
        assert_eq!(
            notify,
            Pdu::SerialNotify {
                session_id: 7,
                serial: 1
            }
        );
        // Router at serial 0 gets exactly the delta.
        let response = c.handle(&Pdu::SerialQuery {
            session_id: 7,
            serial: 0,
        });
        let announces: Vec<&Vrp> = response
            .iter()
            .filter_map(|p| match p {
                Pdu::Prefix {
                    flags: Flags::Announce,
                    vrp,
                } => Some(vrp),
                _ => None,
            })
            .collect();
        let withdraws: Vec<&Vrp> = response
            .iter()
            .filter_map(|p| match p {
                Pdu::Prefix {
                    flags: Flags::Withdraw,
                    vrp,
                } => Some(vrp),
                _ => None,
            })
            .collect();
        assert_eq!(announces, vec![&vrp("11.0.0.0/8 => AS3")]);
        assert_eq!(withdraws, vec![&vrp("2001:db8::/32-48 => AS2")]);
    }

    #[test]
    fn serial_query_current_serial_is_empty_delta() {
        let c = cache();
        let response = c.handle(&Pdu::SerialQuery {
            session_id: 7,
            serial: 0,
        });
        assert_eq!(response.len(), 2);
        assert!(matches!(response[1], Pdu::EndOfData { serial: 0, .. }));
    }

    #[test]
    fn wrong_session_forces_reset() {
        let c = cache();
        let response = c.handle(&Pdu::SerialQuery {
            session_id: 99,
            serial: 0,
        });
        assert_eq!(response, vec![Pdu::CacheReset]);
    }

    #[test]
    fn ancient_serial_forces_reset() {
        let mut c = cache();
        for i in 0..(HISTORY_WINDOW + 5) {
            c.update(&[vrp(&format!("10.{}.0.0/16 => AS1", i))]);
        }
        let response = c.handle(&Pdu::SerialQuery {
            session_id: 7,
            serial: 1,
        });
        assert_eq!(response, vec![Pdu::CacheReset]);
        // A recent serial still gets a delta.
        let response = c.handle(&Pdu::SerialQuery {
            session_id: 7,
            serial: c.serial() - 1,
        });
        assert!(matches!(response[0], Pdu::CacheResponse { .. }));
    }

    #[test]
    fn serial_from_the_future_forces_reset() {
        // A router claiming a serial the cache never issued (e.g. the
        // cache restarted at a lower serial): RFC 1982 arithmetic makes
        // "ahead by 3" look like "behind by 2³²−3", far outside the
        // window — deterministic Cache Reset, not a garbage delta.
        let mut c = cache();
        c.update(&[vrp("11.0.0.0/8 => AS3")]);
        assert_eq!(c.serial(), 1);
        let response = c.handle(&Pdu::SerialQuery {
            session_id: 7,
            serial: 4,
        });
        assert_eq!(response, vec![Pdu::CacheReset]);
    }

    #[test]
    fn serial_delta_survives_u32_wraparound() {
        // Cache starts just below u32::MAX (RFC 8210 §5.1: restart
        // serials are arbitrary) and updates across the wrap. A router
        // holding a pre-wrap serial inside the window must get the
        // correct coalesced delta; the wrap is invisible.
        let mut c = CacheServer::with_initial_serial(7, &[vrp("10.0.0.0/8 => AS1")], u32::MAX - 2);
        for i in 0..5u32 {
            c.update_delta(&[vrp(&format!("11.{i}.0.0/16 => AS3"))], &[]);
        }
        assert_eq!(c.serial(), 2, "serial wrapped past u32::MAX");
        // Router at u32::MAX: 3 deltas behind, across the wrap.
        let response = c.handle(&Pdu::SerialQuery {
            session_id: 7,
            serial: u32::MAX,
        });
        let announces: Vec<Vrp> = response
            .iter()
            .filter_map(|p| match p {
                Pdu::Prefix {
                    flags: Flags::Announce,
                    vrp,
                } => Some(*vrp),
                _ => None,
            })
            .collect();
        assert_eq!(
            announces,
            vec![
                vrp("11.2.0.0/16 => AS3"),
                vrp("11.3.0.0/16 => AS3"),
                vrp("11.4.0.0/16 => AS3"),
            ]
        );
        assert!(matches!(
            response.last(),
            Some(Pdu::EndOfData { serial: 2, .. })
        ));
    }

    #[test]
    fn serial_ahead_at_u32_boundary_forces_reset() {
        // The mirror image: the router's serial is *ahead* of a cache
        // sitting at u32::MAX. wrapping_sub yields a tiny-looking lag
        // only for serials the cache actually retains; one past the
        // current serial is a huge lag and must reset.
        let mut c = CacheServer::with_initial_serial(7, &[vrp("10.0.0.0/8 => AS1")], u32::MAX - 1);
        c.update(&[vrp("11.0.0.0/8 => AS3")]);
        assert_eq!(c.serial(), u32::MAX);
        // One ahead (serial 0, i.e. current + 1 across the wrap): reset.
        let response = c.handle(&Pdu::SerialQuery {
            session_id: 7,
            serial: 0,
        });
        assert_eq!(response, vec![Pdu::CacheReset]);
        // Exactly current: empty confirming delta.
        let response = c.handle(&Pdu::SerialQuery {
            session_id: 7,
            serial: u32::MAX,
        });
        assert_eq!(response.len(), 2);
        // One behind: the recorded delta.
        let response = c.handle(&Pdu::SerialQuery {
            session_id: 7,
            serial: u32::MAX - 1,
        });
        assert!(response.iter().any(|p| matches!(p, Pdu::Prefix { .. })));
    }

    #[test]
    fn deltas_coalesce_across_serials() {
        let mut c = CacheServer::new(1, &[]);
        // Announce then withdraw across two updates: net zero.
        c.update(&[vrp("10.0.0.0/8 => AS1")]);
        c.update(&[]);
        let response = c.handle(&Pdu::SerialQuery {
            session_id: 1,
            serial: 0,
        });
        let prefix_count = response
            .iter()
            .filter(|p| matches!(p, Pdu::Prefix { .. }))
            .count();
        assert_eq!(prefix_count, 0, "transient VRP must not appear");
    }

    #[test]
    fn withdraw_then_reannounce_coalesces() {
        let mut c = CacheServer::new(1, &[vrp("10.0.0.0/8 => AS1")]);
        c.update(&[]);
        c.update(&[vrp("10.0.0.0/8 => AS1")]);
        let response = c.handle(&Pdu::SerialQuery {
            session_id: 1,
            serial: 0,
        });
        let prefix_count = response
            .iter()
            .filter(|p| matches!(p, Pdu::Prefix { .. }))
            .count();
        assert_eq!(prefix_count, 0);
    }

    #[test]
    fn unexpected_pdu_gets_error_report() {
        let c = cache();
        let response = c.handle(&Pdu::CacheReset);
        assert_eq!(response.len(), 1);
        assert!(matches!(
            response[0],
            Pdu::ErrorReport {
                code: ErrorCode::InvalidRequest,
                ..
            }
        ));
    }

    #[test]
    fn update_delta_applies_and_diffs_like_update() {
        let mut by_set = cache();
        let mut by_delta = cache();
        by_set.update(&[vrp("10.0.0.0/8 => AS1"), vrp("11.0.0.0/8 => AS3")]);
        by_delta.update_delta(
            &[vrp("11.0.0.0/8 => AS3")],
            &[vrp("2001:db8::/32-48 => AS2")],
        );
        assert_eq!(by_set.serial(), by_delta.serial());
        let a: Vec<&Vrp> = by_set.vrps().collect();
        let b: Vec<&Vrp> = by_delta.vrps().collect();
        assert_eq!(a, b);
        // Both record the identical delta for a router at serial 0.
        let q = Pdu::SerialQuery {
            session_id: 7,
            serial: 0,
        };
        assert_eq!(by_set.handle(&q), by_delta.handle(&q));
    }

    #[test]
    fn same_epoch_announce_and_withdraw_resolves_like_the_engines() {
        // The sharp edge: one epoch both announces and withdraws the same
        // VRP. The delta resolves announce-then-withdraw (withdrawal
        // wins, matching the rov chain engine), and the history must never
        // hold an announce+withdraw pair for one VRP — that pair in a
        // delta response is a protocol violation on the router side.
        let present = vrp("10.0.0.0/8 => AS1");
        let absent = vrp("99.0.0.0/8 => AS9");
        let mut c = cache();
        c.update_delta(&[present, absent], &[present, absent]);
        assert_eq!(c.serial(), 1, "serial chain advances normally");
        // The present VRP is withdrawn; the absent one flapped up and
        // down inside the epoch and cancelled out of the record.
        let after: Vec<Vrp> = c.vrps().copied().collect();
        assert_eq!(after, vec![vrp("2001:db8::/32-48 => AS2")]);
        let response = c.handle(&Pdu::SerialQuery {
            session_id: 7,
            serial: 0,
        });
        let records: Vec<(Flags, Vrp)> = response
            .iter()
            .filter_map(|p| match p {
                Pdu::Prefix { flags, vrp } => Some((*flags, *vrp)),
                _ => None,
            })
            .collect();
        assert_eq!(records, vec![(Flags::Withdraw, present)]);
        assert!(matches!(
            response.last(),
            Some(Pdu::EndOfData { serial: 1, .. })
        ));
    }

    #[test]
    fn dirty_delta_matches_engine_semantics() {
        // Feeding the same dirty delta to the cache and to the
        // snapshot-chain engine side by side must land on the same set —
        // the invariant every session-plus-engine consumer relies on.
        use rpki_rov::{ChainConfig, SnapshotChainEngine};
        let initial = [vrp("10.0.0.0/8 => AS1"), vrp("11.0.0.0/8 => AS3")];
        let announced = [vrp("10.0.0.0/8 => AS1"), vrp("12.0.0.0/8 => AS4")];
        let withdrawn = [vrp("10.0.0.0/8 => AS1"), vrp("99.0.0.0/8 => AS9")];
        let mut c = CacheServer::new(1, &initial);
        c.update_delta(&announced, &withdrawn);
        let mut engine = SnapshotChainEngine::new([], initial, ChainConfig::default());
        engine.apply_epoch(&announced, &withdrawn);
        let cache_set: Vec<Vrp> = c.vrps().copied().collect();
        assert_eq!(cache_set, engine.current_vrps());
    }

    #[test]
    fn update_delta_skips_noop_records() {
        let mut c = cache();
        // Announcing a served VRP and withdrawing an absent one are both
        // no-ops and must not be recorded.
        c.update_delta(&[vrp("10.0.0.0/8 => AS1")], &[vrp("99.0.0.0/8 => AS9")]);
        assert_eq!(c.len(), 2);
        let response = c.handle(&Pdu::SerialQuery {
            session_id: 7,
            serial: 0,
        });
        assert_eq!(response.len(), 2, "empty delta: CacheResponse + EOD only");
    }

    #[test]
    fn update_delta_keeps_router_in_sync() {
        use crate::client::RouterClient;
        // Replay a dirty delta through a real client: the session must
        // survive (this is the regression the normalization guards).
        let mut c = CacheServer::new(9, &[vrp("10.0.0.0/8 => AS1")]);
        let mut router = RouterClient::new();
        for pdu in c.handle(&Pdu::ResetQuery) {
            router.handle(&pdu).unwrap();
        }
        let flap = vrp("10.0.0.0/8 => AS1");
        let fresh = vrp("12.0.0.0/8 => AS4");
        c.update_delta(&[flap, fresh], &[flap]);
        for pdu in c.handle(&router.query()) {
            router
                .handle(&pdu)
                .expect("delta must not desync the router");
        }
        assert_eq!(router.serial(), c.serial());
        let got: Vec<Vrp> = router.vrps().iter().collect();
        let expect: Vec<Vrp> = c.vrps().copied().collect();
        assert_eq!(got, expect);
    }

    #[test]
    fn accessors() {
        let c = cache();
        assert_eq!(c.session_id(), 7);
        assert_eq!(c.serial(), 0);
        assert_eq!(c.len(), 2);
        assert!(!c.is_empty());
        assert!(CacheServer::new(1, &[]).is_empty());
    }

    #[test]
    fn snapshot_tracks_updates_and_old_handles_survive() {
        use rpki_rov::ValidationState;
        let mut c = cache();
        let before = c.snapshot();
        assert_eq!(before.len(), 2);
        assert_eq!(
            before.validate(&"10.0.0.0/8 => AS1".parse().unwrap()),
            ValidationState::Valid
        );
        c.update(&[vrp("11.0.0.0/8 => AS3")]);
        // The cache serves the new frozen state...
        let after = c.snapshot();
        assert_eq!(after.len(), 1);
        assert_eq!(
            after.validate(&"11.0.0.0/8 => AS3".parse().unwrap()),
            ValidationState::Valid
        );
        assert_eq!(
            after.validate(&"10.0.0.0/8 => AS1".parse().unwrap()),
            ValidationState::NotFound
        );
        // ...while readers holding the old snapshot still see serial 0's
        // world, immutably.
        assert_eq!(before.len(), 2);
    }

    #[test]
    fn error_report_request_is_not_embedded_in_the_reply() {
        // RFC 8210 §5.10: the Invalid-Request report for an unexpected
        // Error Report must not encapsulate it — the reply has to stay
        // encodable on the wire.
        let c = cache();
        let request = Pdu::ErrorReport {
            code: ErrorCode::InternalError,
            pdu: Vec::new(),
            text: "router-side complaint".into(),
        };
        let response = c.handle(&request);
        match response.as_slice() {
            [Pdu::ErrorReport { code, pdu, .. }] => {
                assert_eq!(*code, ErrorCode::InvalidRequest);
                assert!(pdu.is_empty(), "must not embed an Error Report");
            }
            other => panic!("expected a lone Error Report, got {other:?}"),
        }
        // And it must actually encode (the nested form would trip the
        // encoder's nesting guard).
        let mut negotiation = c.negotiation();
        let mut out = Vec::new();
        let mut wire_request = Vec::new();
        request
            .as_wire()
            .encode_into(PROTOCOL_V1, &mut wire_request);
        let outcome = c.handle_wire(&wire_request, &mut negotiation, &mut out);
        assert!(matches!(outcome, WireOutcome::Responded { .. }));
        let reply = wire::decode_frame(&out).unwrap().unwrap();
        assert_eq!(reply.len, out.len());
        assert!(matches!(reply.pdu, PduRef::ErrorReport { .. }));
    }

    #[test]
    fn reset_response_serves_snapshot_set() {
        let c = cache();
        let response = c.handle(&Pdu::ResetQuery);
        let served: Vec<Vrp> = response
            .iter()
            .filter_map(|p| match p {
                Pdu::Prefix { vrp, .. } => Some(*vrp),
                _ => None,
            })
            .collect();
        let mut expect: Vec<Vrp> = c.vrps().copied().collect();
        let mut got = served.clone();
        expect.sort_unstable();
        got.sort_unstable();
        assert_eq!(got, expect);
    }

    fn frozen_debug(index: &FrozenVrpIndex) -> String {
        format!("{index:?}")
    }

    /// A delta-only epoch leaves the snapshot unbuilt; the first reader
    /// builds the same index an eager freeze of `vrps()` would have.
    #[test]
    fn snapshot_is_frozen_by_its_first_reader() {
        let mut c = cache();
        assert!(c.snapshot.get().is_none(), "new does not freeze");
        for i in 0..5u32 {
            c.update_delta(
                &[vrp(&format!("11.{i}.0.0/16 => AS3"))],
                &[vrp("10.0.0.0/8 => AS1")],
            );
            assert!(c.snapshot.get().is_none(), "update {i} does not freeze");
        }
        let fresh = FrozenVrpIndex::from_vrps(c.vrps().copied());
        let early = c.clone();
        assert_eq!(frozen_debug(&c.snapshot()), frozen_debug(&fresh));
        assert!(Arc::ptr_eq(&c.snapshot(), &c.snapshot()), "frozen once");

        // A clone taken before the first read freezes on its own.
        assert!(early.snapshot.get().is_none());
        assert_eq!(frozen_debug(&early.snapshot()), frozen_debug(&fresh));
        assert!(!Arc::ptr_eq(&early.snapshot(), &c.snapshot()));
    }

    /// The fan-out core's shared Reset image, built after silent updates
    /// dropped the snapshot, is the bytes `handle_wire` answers with.
    #[test]
    fn reset_image_after_silent_updates_matches_handle_wire() {
        use crate::server::FanoutServer;
        let mut query = Vec::new();
        Pdu::ResetQuery
            .as_wire()
            .encode_into(PROTOCOL_V1, &mut query);
        let mut server = FanoutServer::new(cache());
        let mut reference = cache();
        let first = server.open_session();
        server.receive(first, &query);
        server.drain_output(first, &mut Vec::new());
        for i in 0..3u32 {
            let announced = [vrp(&format!("12.{i}.0.0/16-24 => AS4"))];
            let withdrawn = [vrp("2001:db8::/32-48 => AS2")];
            server.with_cache(|c| c.update_delta(&announced, &withdrawn));
            reference.update_delta(&announced, &withdrawn);
        }
        assert!(server.cache().snapshot.get().is_none());
        let id = server.open_session();
        server.receive(id, &query);
        let mut image = Vec::new();
        server.drain_output(id, &mut image);

        let mut answer = Vec::new();
        let outcome = reference.handle_wire(&query, &mut reference.negotiation(), &mut answer);
        assert!(matches!(outcome, WireOutcome::Responded { .. }));
        assert_eq!(image, answer);
    }
}
