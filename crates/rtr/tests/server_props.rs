//! Fan-out server properties: the model-checked [`CacheServer`] is the
//! bit-identity oracle for everything [`FanoutServer`] serves.
//!
//! * **Differential oracle** — for randomized interleavings of epochs
//!   and queries, the bytes a fan-out session drains are exactly the
//!   bytes [`CacheServer::handle_wire`] would have produced for the
//!   same requests. The shared-image layer may change *when* responses
//!   are serialized, never *what*.
//! * **Fleet convergence** — sessions that skip epochs, fall out of the
//!   history window, or hit outbox backpressure all converge to the
//!   oracle's final VRP set through the RFC-shaped recovery paths
//!   (delta, Cache Reset, full resync).
//! * **Serial arithmetic at the u32 boundary** — the whole
//!   notify/query/delta cycle crosses `u32::MAX` without a spurious
//!   reset, and a stale session straddling the wrap still recovers.

use proptest::prelude::*;
use rpki_roa::Vrp;
use rpki_rtr::cache::{CacheServer, WireOutcome, HISTORY_WINDOW};
use rpki_rtr::pdu::{ErrorCode, Flags, Pdu, Timing, PROTOCOL_V0, PROTOCOL_V1};
use rpki_rtr::server::{FanoutServer, ServerConfig, SessionId};
use rpki_rtr::wire::decode_frame;
use rpki_rtr::RouterClient;

const SESSION: u16 = 600;

fn vrp(i: u32) -> Vrp {
    format!(
        "10.{}.{}.0/24 => AS{}",
        (i >> 8) & 0xFF,
        i & 0xFF,
        64496 + (i % 16)
    )
    .parse()
    .unwrap()
}

fn encode(pdu: &Pdu, version: u8) -> Vec<u8> {
    let mut out = Vec::new();
    pdu.as_wire().encode_into(version, &mut out);
    out
}

/// Feeds every complete in-flight frame to the router, returning the
/// result of the last `handle` call (`true` once an End of Data
/// completed a response).
fn absorb(pipe: &mut Vec<u8>, router: &mut RouterClient) -> bool {
    let mut synced = false;
    loop {
        let Some(frame) = decode_frame(pipe).expect("server output must decode") else {
            return synced;
        };
        let pdu = frame.pdu.to_owned();
        let len = frame.len;
        pipe.drain(..len);
        synced = router.handle(&pdu).expect("server output must be valid");
    }
}

/// Runs one full router synchronization against a fan-out session with
/// the RFC discipline of one outstanding query: everything already in
/// flight (notifies, a backpressure Cache Reset) is consumed *before*
/// the next query goes out. Panics if the router does not converge
/// within the retry budget.
fn synchronize(server: &mut FanoutServer, id: SessionId, router: &mut RouterClient) {
    let mut pipe = Vec::new();
    for _round in 0..8 {
        server.drain_output(id, &mut pipe);
        absorb(&mut pipe, router);
        server.receive(id, &encode(&router.query(), router.version()));
        server.drain_output(id, &mut pipe);
        if absorb(&mut pipe, router) {
            return;
        }
        // A Cache Reset (or a notify burst) ended the round without an
        // End of Data: loop, letting the router fall back to the query
        // its new state calls for.
    }
    panic!("router did not converge within the retry budget");
}

/// One step of the randomized differential schedule.
#[derive(Debug, Clone)]
enum Op {
    /// Full reset flow.
    Reset,
    /// Serial query `lag` serials behind the cache's current serial
    /// (large lags land outside the window; the subtraction wraps, so
    /// this also generates serials "from the future").
    Serial(u32),
    /// A churn epoch: announce `announce` fresh VRPs, withdraw up to
    /// `withdraw` existing ones.
    Epoch { announce: u8, withdraw: u8 },
}

fn arb_op() -> impl Strategy<Value = Op> {
    prop_oneof![
        2 => Just(Op::Reset),
        4 => (0u32..=2 * HISTORY_WINDOW as u32).prop_map(Op::Serial),
        2 => prop_oneof![
            Just(Op::Serial(u32::MAX)),
            Just(Op::Serial(1 << 31)),
            Just(Op::Serial(u32::MAX - HISTORY_WINDOW as u32)),
        ],
        4 => (1u8..4, 0u8..3).prop_map(|(announce, withdraw)| Op::Epoch { announce, withdraw }),
    ]
}

proptest! {
    /// Every response a fan-out session drains is byte-identical to
    /// what `CacheServer::handle_wire` answers for the same request —
    /// shared images included, out-of-window serials included.
    #[test]
    fn shared_images_match_the_wire_oracle(
        ops in proptest::collection::vec(arb_op(), 1..32),
        version in prop_oneof![Just(PROTOCOL_V0), Just(PROTOCOL_V1)],
    ) {
        let initial: Vec<Vrp> = (0..8).map(vrp).collect();
        let mut server = FanoutServer::new(CacheServer::new(SESSION, &initial));
        let id = server.open_session();
        let mut oracle_negotiation = server.cache().negotiation();
        let mut fresh = 100u32;

        // Pin both negotiations with one reset flow so epoch notifies
        // have a defined version on both sides.
        let opening = encode(&Pdu::ResetQuery, version);
        server.receive(id, &opening);
        let mut got = Vec::new();
        server.drain_output(id, &mut got);
        let mut expect = Vec::new();
        let _ = server.cache().clone().handle_wire(&opening, &mut oracle_negotiation, &mut expect);
        prop_assert_eq!(&got, &expect, "opening reset flow");

        for op in ops {
            match op {
                Op::Epoch { announce, withdraw } => {
                    let announced: Vec<Vrp> = (0..announce as u32)
                        .map(|k| {
                            fresh += 1;
                            vrp(fresh + k)
                        })
                        .collect();
                    let withdrawn: Vec<Vrp> = server
                        .cache()
                        .vrps()
                        .take(withdraw as usize)
                        .cloned()
                        .collect();
                    server.update_delta_and_notify(&announced, &withdrawn);
                    // The only fan-out side effect is the notify.
                    let mut note = Vec::new();
                    server.drain_output(id, &mut note);
                    let notify = Pdu::SerialNotify {
                        session_id: SESSION,
                        serial: server.cache().serial(),
                    };
                    prop_assert_eq!(note, encode(&notify, version));
                }
                Op::Reset | Op::Serial(_) => {
                    let request = match op {
                        Op::Reset => Pdu::ResetQuery,
                        Op::Serial(lag) => Pdu::SerialQuery {
                            session_id: SESSION,
                            serial: server.cache().serial().wrapping_sub(lag),
                        },
                        Op::Epoch { .. } => unreachable!(),
                    };
                    let input = encode(&request, version);
                    server.receive(id, &input);
                    let mut got = Vec::new();
                    server.drain_output(id, &mut got);
                    let mut expect = Vec::new();
                    let mut negotiation = oracle_negotiation;
                    let _ = server
                        .cache()
                        .clone()
                        .handle_wire(&input, &mut negotiation, &mut expect);
                    oracle_negotiation = negotiation;
                    prop_assert_eq!(&got, &expect, "request {:?}", &request);
                }
            }
        }
        // Sharing happened: without it, built >= served responses.
        let stats = server.stats();
        prop_assert!(stats.images_built + stats.images_reused > 0);
    }
}

/// A deterministic xorshift so the fleet schedule is reproducible.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        self.0
    }
}

#[test]
fn fleet_converges_under_ragged_drain_schedules() {
    let initial: Vec<Vrp> = (0..16).map(vrp).collect();
    let mut server = FanoutServer::new(CacheServer::new(SESSION, &initial));
    let mut oracle = CacheServer::new(SESSION, &initial);
    let mut fleet: Vec<(SessionId, RouterClient)> = (0..24)
        .map(|_| (server.open_session(), RouterClient::new()))
        .collect();
    for (id, router) in &mut fleet {
        synchronize(&mut server, *id, router);
    }
    let mut rng = Rng(0x9E3779B97F4A7C15);
    let mut fresh = 1000u32;
    // 40 epochs with ragged participation: each session catches up only
    // ~1 epoch in 3, so lags spread from 0 to past HISTORY_WINDOW and
    // both the delta and the Cache Reset recovery paths run.
    for _epoch in 0..40 {
        fresh += 1;
        let announced = [vrp(fresh)];
        let withdrawn: Vec<Vrp> = server.cache().vrps().take(1).cloned().collect();
        server.update_delta_and_notify(&announced, &withdrawn);
        let _ = oracle.update_delta(&announced, &withdrawn);
        for (id, router) in &mut fleet {
            if rng.next().is_multiple_of(3) {
                synchronize(&mut server, *id, router);
            }
        }
    }
    for (id, router) in &mut fleet {
        synchronize(&mut server, *id, router);
    }
    let expect: Vec<Vrp> = oracle.vrps().cloned().collect();
    assert_eq!(
        server.cache().vrps().cloned().collect::<Vec<_>>(),
        expect,
        "fan-out cache must replay identically to the standalone oracle"
    );
    for (i, (_, router)) in fleet.iter().enumerate() {
        let got: Vec<Vrp> = router.vrps().iter().collect();
        assert_eq!(got, expect, "router {i} final VRP set");
        assert_eq!(router.serial(), oracle.serial(), "router {i} serial");
    }
}

#[test]
fn backpressured_sessions_recover_through_cache_reset() {
    let initial: Vec<Vrp> = (0..8).map(vrp).collect();
    let config = ServerConfig {
        outbox_limit: 64,
        ..ServerConfig::default()
    };
    let mut server = FanoutServer::with_config(CacheServer::new(SESSION, &initial), config);
    let mut oracle = CacheServer::new(SESSION, &initial);
    let id = server.open_session();
    let mut router = RouterClient::new();
    synchronize(&mut server, id, &mut router);
    // The session queues a delta request but never drains, while epochs
    // keep arriving: the outbox must stay bounded, and the queued
    // response gives way to a Cache Reset.
    for e in 0..6u32 {
        let announced = [vrp(5000 + e)];
        server.update_delta_and_notify(&announced, &[]);
        let _ = oracle.update_delta(&announced, &[]);
        server.receive(id, &encode(&router.query(), router.version()));
        assert!(
            server.pending_output(id) <= config.outbox_limit + 64,
            "outbox must stay near its bound, held {}",
            server.pending_output(id)
        );
    }
    let stats = server.stats();
    assert!(stats.overflow_drops > 0, "the schedule must overflow");
    assert!(stats.overflow_resets > 0, "a dropped response owes a reset");
    assert!(stats.dropped_bytes > 0);
    // Once the consumer drains again, the reset flow rebuilds the exact
    // oracle set.
    synchronize(&mut server, id, &mut router);
    let got: Vec<Vrp> = router.vrps().iter().collect();
    let expect: Vec<Vrp> = oracle.vrps().cloned().collect();
    assert_eq!(got, expect);
    assert_eq!(router.serial(), oracle.serial());
}

#[test]
fn notify_query_delta_cycle_survives_the_u32_wrap() {
    let initial: Vec<Vrp> = (0..4).map(vrp).collect();
    let mut server = FanoutServer::new(CacheServer::with_initial_serial(
        SESSION,
        &initial,
        u32::MAX - 2,
    ));
    let mut oracle = CacheServer::with_initial_serial(SESSION, &initial, u32::MAX - 2);
    let live = server.open_session();
    let mut live_router = RouterClient::new();
    synchronize(&mut server, live, &mut live_router);
    let stale = server.open_session();
    let mut stale_router = RouterClient::new();
    synchronize(&mut server, stale, &mut stale_router);
    assert_eq!(live_router.serial(), u32::MAX - 2);
    // Six epochs walk the serial across u32::MAX to 3. The live router
    // follows each delta; the stale one sleeps through all of them.
    for e in 0..6u32 {
        let announced = [vrp(7000 + e)];
        server.update_delta_and_notify(&announced, &[]);
        let _ = oracle.update_delta(&announced, &[]);
        let stats_before = server.stats();
        synchronize(&mut server, live, &mut live_router);
        assert_eq!(
            server.stats().teardowns,
            stats_before.teardowns,
            "wrap must not tear anything down"
        );
    }
    assert_eq!(server.cache().serial(), 3, "the serial crossed the wrap");
    assert_eq!(live_router.serial(), 3);
    let expect: Vec<Vrp> = oracle.vrps().cloned().collect();
    assert_eq!(
        live_router.vrps().iter().collect::<Vec<_>>(),
        expect,
        "delta path across the wrap"
    );
    // The stale router's serial (u32::MAX - 2) is 5 behind — still in
    // window, so it recovers via deltas; a second sleeper pinned before
    // the window opened would get the Cache Reset flow instead, which
    // `fleet_converges_under_ragged_drain_schedules` covers.
    synchronize(&mut server, stale, &mut stale_router);
    assert_eq!(
        stale_router.vrps().iter().collect::<Vec<_>>(),
        expect,
        "catch-up path across the wrap"
    );
    assert_eq!(stale_router.serial(), 3);
}

/// 64-bit FNV-1a.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// A cache 20 epochs old whose serial crossed `u32::MAX` (it ends at
/// 10): the history is full, VRPs announced in one epoch are withdrawn
/// three later (so deltas coalesce), and both families are served.
fn scripted_cache() -> CacheServer {
    let mut initial: Vec<Vrp> = (0..8).map(vrp).collect();
    initial.push("2001:db8::/32-48 => AS64500".parse().unwrap());
    let mut cache = CacheServer::with_initial_serial(SESSION, &initial, u32::MAX - 9);
    for e in 0..20u32 {
        let mut announced = vec![vrp(1000 + e)];
        if e % 5 == 0 {
            announced.push(format!("2001:db8:{e:x}::/48 => AS64501").parse().unwrap());
        }
        let mut withdrawn = Vec::new();
        if e >= 3 {
            withdrawn.push(vrp(1000 + e - 3));
        }
        if e < 8 {
            withdrawn.push(vrp(e));
        }
        let _ = cache.update_delta(&announced, &withdrawn);
    }
    assert_eq!(cache.serial(), 10);
    cache
}

/// Every kind of request a cache answers without closing the session.
fn scripted_requests() -> Vec<Pdu> {
    let serial = |lag: u32| Pdu::SerialQuery {
        session_id: SESSION,
        serial: 10u32.wrapping_sub(lag),
    };
    let window = HISTORY_WINDOW as u32;
    vec![
        Pdu::ResetQuery,
        serial(0),
        serial(1),
        serial(5),
        serial(12), // a pre-wrap serial inside the window
        serial(window),
        serial(window + 1),
        serial(u32::MAX - 2), // three ahead of the cache
        serial(1 << 31),
        Pdu::SerialQuery {
            session_id: SESSION + 1,
            serial: 10,
        },
        // Valid PDUs a router has no business sending.
        Pdu::SerialNotify {
            session_id: SESSION,
            serial: 10,
        },
        Pdu::CacheResponse {
            session_id: SESSION,
        },
        Pdu::Prefix {
            flags: Flags::Announce,
            vrp: vrp(7),
        },
        Pdu::Prefix {
            flags: Flags::Withdraw,
            vrp: "2001:db8::/32-48 => AS64500".parse().unwrap(),
        },
        Pdu::EndOfData {
            session_id: SESSION,
            serial: 10,
            timing: Timing {
                refresh: 11,
                retry: 7,
                expire: 13,
            },
        },
        Pdu::CacheReset,
        Pdu::ErrorReport {
            code: ErrorCode::InternalError,
            pdu: Vec::new(),
            text: "router-side complaint".into(),
        },
        Pdu::ErrorReport {
            code: ErrorCode::NoDataAvailable,
            pdu: encode(&Pdu::ResetQuery, PROTOCOL_V1),
            text: String::new(),
        },
        // Second askers are served from the shared images.
        serial(5),
        Pdu::ResetQuery,
    ]
}

/// Buffers that end a session: (what they test, bytes sent after a
/// Reset Query at `version` pinned the session).
fn scripted_poison(version: u8) -> Vec<(&'static str, Vec<u8>)> {
    let reset_at = |v: u8| encode(&Pdu::ResetQuery, v);
    let mut complete_bad_length = vec![version, 2, 0, 0, 0, 0, 0, 12, 1, 2, 3, 4];
    complete_bad_length.extend_from_slice(&reset_at(version));
    let mut nested = vec![version, 10, 0, 0, 0, 0, 0, 26, 0, 0, 0, 10];
    nested.extend_from_slice(&[version, 10, 0, 0, 0, 0, 0, 16, 0, 0]);
    nested.extend_from_slice(&[0, 0, 0, 0]);
    vec![
        ("version above the maximum", vec![9, 2, 0, 0, 0, 0, 0, 8]),
        ("version switch mid-session", reset_at(1 - version)),
        ("unknown type, complete frame, trailing query", {
            let mut b = vec![version, 9, 0, 0, 0, 0, 0, 8];
            b.extend_from_slice(&reset_at(version));
            b
        }),
        (
            "bad length, complete frame, trailing query",
            complete_bad_length,
        ),
        ("length out of range poisons the buffer", {
            let mut b = vec![version, 2, 0, 0, 0xFF, 0, 0, 0];
            b.extend_from_slice(&reset_at(version));
            b
        }),
        (
            "non-zero reserved field",
            vec![version, 2, 0, 1, 0, 0, 0, 8],
        ),
        ("malformed error report is not embedded", nested),
    ]
}

/// The response bytes [`CacheServer::handle_wire`] and
/// [`FanoutServer::receive`] produce for the script above, hashed at the
/// commit before the two shared one responder and one frame step. A
/// changed byte anywhere — a response, an embedded PDU, a report text, a
/// consumed count — changes it.
const RESPONSE_DIGEST: [u64; 2] = [0x06ae_3649_347c_5b73, 0xa132_1629_d8da_8d6a];

#[test]
fn scripted_responses_hash_to_the_pinned_digest() {
    for version in [PROTOCOL_V0, PROTOCOL_V1] {
        let mut server = FanoutServer::new(scripted_cache());
        let cache = server.cache().clone();
        let one_by_one = server.open_session();
        let pipelined = server.open_session();
        let mut negotiation = cache.negotiation();
        let mut all = Vec::new();
        let mut sent = Vec::new();
        for request in scripted_requests() {
            let input = encode(&request, version);
            let mut expect = Vec::new();
            let outcome = cache.handle_wire(&input, &mut negotiation, &mut expect);
            let consumed = input.len();
            assert_eq!(outcome, WireOutcome::Responded { consumed }, "{request:?}");
            server.receive(one_by_one, &input);
            let mut got = Vec::new();
            server.drain_output(one_by_one, &mut got);
            assert_eq!(got, expect, "v{version} {request:?}");
            assert!(server.session_error(one_by_one).is_none(), "{request:?}");
            all.extend_from_slice(&expect);
            sent.extend_from_slice(&input);
        }
        // The same requests in one buffer get the same bytes.
        server.receive(pipelined, &sent);
        let mut got = Vec::new();
        server.drain_output(pipelined, &mut got);
        assert_eq!(got, all, "v{version} pipelined");

        for (what, poison) in scripted_poison(version) {
            let opening = encode(&Pdu::ResetQuery, version);
            let mut negotiation = cache.negotiation();
            let mut expect = Vec::new();
            let _ = cache.handle_wire(&opening, &mut negotiation, &mut expect);
            let outcome = cache.handle_wire(&poison, &mut negotiation, &mut expect);
            let WireOutcome::Teardown { consumed, error } = outcome else {
                panic!("v{version} {what}: expected a teardown, got {outcome:?}");
            };
            let id = server.open_session();
            server.receive(id, &opening);
            server.receive(id, &poison);
            let mut got = Vec::new();
            server.drain_output(id, &mut got);
            assert_eq!(got, expect, "v{version} {what}");
            assert_eq!(server.session_error(id), Some(&error), "v{version} {what}");
            all.extend_from_slice(&expect);
            all.extend_from_slice(&(consumed as u32).to_be_bytes());
        }
        assert_eq!(
            fnv1a(&all),
            RESPONSE_DIGEST[version as usize],
            "v{version} digest {:#018x} over {} bytes",
            fnv1a(&all),
            all.len()
        );
    }
}
