//! Model-based session test: a reference state machine (full VRP sets
//! remembered per serial, no clever diffing) predicts every `CacheServer`
//! response — serials, session ids, delta contents, Cache Reset aging —
//! across randomized interleavings of cache updates and router queries,
//! including routers reconnecting with stale serials.
//!
//! Because the model stores whole sets and answers a serial query with
//! the *set difference* between endpoints, it independently cross-checks
//! the cache's incremental history coalescing: announce-then-withdraw
//! across the window must cancel, and a dirty update (the same VRP in
//! both lists) must resolve exactly like the rov engines do —
//! announcements first, withdrawals winning — with at most one history
//! record per VRP.
//!
//! Every request and response additionally makes a round trip through
//! the strict wire codec at a generated protocol version (v0 or v1), so
//! the model checks the byte layer's canonicality along the way.

use std::collections::{BTreeSet, VecDeque};

use bytes::BytesMut;
use proptest::prelude::*;
use rpki_roa::{Asn, Vrp};
use rpki_rtr::cache::{CacheServer, HISTORY_WINDOW};
use rpki_rtr::pdu::{Flags, Pdu, PROTOCOL_V0, PROTOCOL_V1};
use rpki_rtr::RouterClient;

const SESSION: u16 = 600;

/// Pushes one PDU through the wire codec at `version` — encode, strict
/// decode, canonicality check — and hands back what the peer would see.
/// Running the whole model over this (at both protocol versions) makes
/// the reference machine exercise the real byte layer, not a
/// function-call shortcut; at v0 an End of Data loses its timing to the
/// RFC 8210 defaults, which `classify` deliberately ignores.
fn via_wire(pdu: &Pdu, version: u8) -> Pdu {
    let mut buf = BytesMut::new();
    pdu.encode_versioned(version, &mut buf);
    let (back, used, v) = Pdu::decode_versioned(&buf)
        .expect("cache output must decode strictly")
        .expect("cache output is a complete frame");
    assert_eq!((used, v), (buf.len(), version), "framing must round-trip");
    let mut re = BytesMut::new();
    back.encode_versioned(version, &mut re);
    assert_eq!(re, buf, "cache output must re-encode canonically");
    back
}

fn handle_via_wire(cache: &CacheServer, request: &Pdu, version: u8) -> Vec<Pdu> {
    let request = via_wire(request, version);
    cache
        .handle(&request)
        .iter()
        .map(|p| via_wire(p, version))
        .collect()
}

fn arb_wire_version() -> impl Strategy<Value = u8> {
    prop_oneof![Just(PROTOCOL_V0), Just(PROTOCOL_V1)]
}

/// The reference machine: full sets per serial, window-aged like the
/// implementation.
struct ModelCache {
    serial: u32,
    /// `sets.back()` is the current set; the front is the oldest serial
    /// still answerable with a delta.
    sets: VecDeque<BTreeSet<Vrp>>,
}

impl ModelCache {
    fn new(initial: &BTreeSet<Vrp>) -> ModelCache {
        let mut sets = VecDeque::new();
        sets.push_back(initial.clone());
        ModelCache { serial: 0, sets }
    }

    fn current(&self) -> &BTreeSet<Vrp> {
        self.sets.back().expect("always one set")
    }

    fn update(&mut self, announced: &[Vrp], withdrawn: &[Vrp]) {
        let mut next = self.current().clone();
        // Announce-then-withdraw: a VRP in both lists resolves to the
        // withdrawal (the update_delta contract, matching the rov
        // engines' apply order).
        for v in announced {
            next.insert(*v);
        }
        for v in withdrawn {
            next.remove(v);
        }
        self.sets.push_back(next);
        self.serial = self.serial.wrapping_add(1);
        while self.sets.len() > HISTORY_WINDOW + 1 {
            self.sets.pop_front();
        }
    }

    /// The set the cache held at `serial`, if still inside the window.
    fn set_at(&self, serial: u32) -> Option<&BTreeSet<Vrp>> {
        let behind = self.serial.wrapping_sub(serial) as usize;
        if behind >= self.sets.len() {
            return None;
        }
        Some(&self.sets[self.sets.len() - 1 - behind])
    }
}

/// Splits a response into its prefix payload, checking the framing and
/// returning `(announced, withdrawn)` — or `None` for a Cache Reset.
fn classify(response: &[Pdu], want_serial: u32) -> Option<(BTreeSet<Vrp>, BTreeSet<Vrp>)> {
    if response == [Pdu::CacheReset] {
        return None;
    }
    assert!(
        matches!(response.first(), Some(Pdu::CacheResponse { session_id }) if *session_id == SESSION),
        "response must open with CacheResponse for the session: {response:?}"
    );
    assert!(
        matches!(
            response.last(),
            Some(Pdu::EndOfData { session_id, serial, .. })
                if *session_id == SESSION && *serial == want_serial
        ),
        "response must close with EndOfData at serial {want_serial}: {response:?}"
    );
    let mut announced = BTreeSet::new();
    let mut withdrawn = BTreeSet::new();
    for pdu in &response[1..response.len() - 1] {
        match pdu {
            Pdu::Prefix {
                flags: Flags::Announce,
                vrp,
            } => assert!(announced.insert(*vrp), "duplicate announce {vrp}"),
            Pdu::Prefix {
                flags: Flags::Withdraw,
                vrp,
            } => assert!(withdrawn.insert(*vrp), "duplicate withdraw {vrp}"),
            other => panic!("unexpected PDU in payload: {other:?}"),
        }
    }
    assert!(
        announced.is_disjoint(&withdrawn),
        "a VRP must never be announced and withdrawn in one response"
    );
    Some((announced, withdrawn))
}

/// A small universe of distinct VRPs; deltas pick indices into it.
fn universe() -> Vec<Vrp> {
    let mut out = Vec::new();
    for i in 0u32..16 {
        out.push(Vrp::new(
            format!("10.{i}.0.0/16").parse().unwrap(),
            16 + (i % 4) as u8,
            Asn(100 + i),
        ));
    }
    for i in 0u32..8 {
        out.push(Vrp::new(
            format!("2001:db8:{i:x}::/48").parse().unwrap(),
            48,
            Asn(200 + i),
        ));
    }
    out
}

/// One scripted operation against the cache.
#[derive(Debug, Clone)]
enum Op {
    /// Apply a delta built from universe indices (may be dirty: overlaps
    /// with the current set or between the two lists are allowed).
    Update {
        announce: Vec<u8>,
        withdraw: Vec<u8>,
    },
    /// A Serial Query lagging the current serial by `lag`.
    Query { lag: u8 },
    /// A full Reset Query.
    Reset,
    /// A Serial Query with the wrong session id.
    WrongSession,
}

fn arb_op() -> impl Strategy<Value = Op> {
    prop_oneof![
        4 => (
            prop::collection::vec(0u8..24, 0..6),
            prop::collection::vec(0u8..24, 0..6),
        )
            .prop_map(|(announce, withdraw)| Op::Update { announce, withdraw }),
        3 => (0u8..24).prop_map(|lag| Op::Query { lag }),
        1 => Just(Op::Reset),
        1 => Just(Op::WrongSession),
    ]
}

proptest! {
    #![proptest_config(proptest::test_runner::Config::with_cases(48))]

    #[test]
    fn cache_matches_reference_model(
        initial_idx in prop::collection::vec(0u8..24, 0..12),
        ops in prop::collection::vec(arb_op(), 1..40),
        version in arb_wire_version(),
    ) {
        let universe = universe();
        let initial: BTreeSet<Vrp> =
            initial_idx.iter().map(|&i| universe[i as usize]).collect();
        let initial_vec: Vec<Vrp> = initial.iter().copied().collect();
        let mut cache = CacheServer::new(SESSION, &initial_vec);
        let mut model = ModelCache::new(&initial);

        for op in &ops {
            match op {
                Op::Update { announce, withdraw } => {
                    let a: Vec<Vrp> =
                        announce.iter().map(|&i| universe[i as usize]).collect();
                    let w: Vec<Vrp> =
                        withdraw.iter().map(|&i| universe[i as usize]).collect();
                    let notify = via_wire(&cache.update_delta(&a, &w), version);
                    model.update(&a, &w);
                    prop_assert_eq!(cache.serial(), model.serial);
                    prop_assert_eq!(notify, Pdu::SerialNotify {
                        session_id: SESSION,
                        serial: model.serial,
                    });
                    let served: BTreeSet<Vrp> = cache.vrps().copied().collect();
                    prop_assert_eq!(&served, model.current());
                }
                Op::Query { lag } => {
                    let serial = model.serial.wrapping_sub(*lag as u32);
                    let response = handle_via_wire(&cache, &Pdu::SerialQuery {
                        session_id: SESSION,
                        serial,
                    }, version);
                    match (classify(&response, model.serial), model.set_at(serial)) {
                        (Some((announced, withdrawn)), Some(old)) => {
                            let expect_a: BTreeSet<Vrp> =
                                model.current().difference(old).copied().collect();
                            let expect_w: BTreeSet<Vrp> =
                                old.difference(model.current()).copied().collect();
                            prop_assert_eq!(announced, expect_a, "lag {}", lag);
                            prop_assert_eq!(withdrawn, expect_w, "lag {}", lag);
                        }
                        (None, None) => {} // both aged out: Cache Reset
                        (got, expect) => {
                            prop_assert!(
                                false,
                                "lag {}: cache answered with {}, model with {}",
                                lag,
                                if got.is_some() { "a delta" } else { "Cache Reset" },
                                if expect.is_some() { "a delta" } else { "Cache Reset" },
                            );
                        }
                    }
                }
                Op::Reset => {
                    let response = handle_via_wire(&cache, &Pdu::ResetQuery, version);
                    let (announced, withdrawn) =
                        classify(&response, model.serial).expect("reset never Cache Reset");
                    prop_assert_eq!(&announced, model.current());
                    prop_assert!(withdrawn.is_empty());
                }
                Op::WrongSession => {
                    let response = handle_via_wire(&cache, &Pdu::SerialQuery {
                        session_id: SESSION ^ 1,
                        serial: model.serial,
                    }, version);
                    prop_assert_eq!(response, vec![Pdu::CacheReset]);
                }
            }
        }
    }

    #[test]
    fn stale_router_reconnect_recovers_full_state(
        warmup in prop::collection::vec(
            (prop::collection::vec(0u8..24, 0..4), prop::collection::vec(0u8..24, 0..4)),
            1..8,
        ),
        aging in (HISTORY_WINDOW + 1)..(2 * HISTORY_WINDOW),
        version in arb_wire_version(),
    ) {
        let universe = universe();
        let mut cache = CacheServer::new(SESSION, &[]);
        let mut model = ModelCache::new(&BTreeSet::new());

        // A router synchronizes fully, then goes quiet.
        let mut router = RouterClient::with_version(version);
        for pdu in handle_via_wire(&cache, &Pdu::ResetQuery, version) {
            router.handle(&pdu).unwrap();
        }
        for (a_idx, w_idx) in &warmup {
            let a: Vec<Vrp> = a_idx.iter().map(|&i| universe[i as usize]).collect();
            let w: Vec<Vrp> = w_idx.iter().map(|&i| universe[i as usize]).collect();
            cache.update_delta(&a, &w);
            model.update(&a, &w);
            for pdu in handle_via_wire(&cache, &router.query(), version) {
                router.handle(&pdu).unwrap();
            }
        }
        let stale_serial = router.serial();

        // The cache churns past the history window while the router naps.
        for i in 0..aging {
            let v = universe[i % universe.len()];
            // Alternate announce/withdraw so every update is non-empty.
            if model.current().contains(&v) {
                cache.update_delta(&[], &[v]);
                model.update(&[], &[v]);
            } else {
                cache.update_delta(&[v], &[]);
                model.update(&[v], &[]);
            }
        }

        // Reconnecting with the stale serial must get a Cache Reset ...
        let response = handle_via_wire(&cache, &Pdu::SerialQuery {
            session_id: SESSION,
            serial: stale_serial,
        }, version);
        prop_assert_eq!(&response, &vec![Pdu::CacheReset]);
        for pdu in &response {
            router.handle(pdu).unwrap();
        }
        // ... and the RFC 8210 §8 fallback (Reset Query) rebuilds the
        // exact current set at the current serial.
        prop_assert_eq!(router.query(), Pdu::ResetQuery);
        for pdu in handle_via_wire(&cache, &Pdu::ResetQuery, version) {
            router.handle(&pdu).unwrap();
        }
        prop_assert_eq!(router.serial(), model.serial);
        let got: BTreeSet<Vrp> = router.vrps().iter().collect();
        prop_assert_eq!(&got, model.current());
    }
}
