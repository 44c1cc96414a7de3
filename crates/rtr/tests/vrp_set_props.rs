//! `VrpSet` against its model, `BTreeSet<Vrp>` — the table it replaced
//! inside `RouterClient` — first operation by operation, then through
//! `RouterClient::handle` against a reference client that still keeps
//! `BTreeSet<Vrp>`s: on arbitrary PDU streams, and on whole Reset
//! responses in the arrival orders that decide whether the router's
//! staging appends, compares a trailing group, or spills to lookups.
//!
//! The VRP strategy draws every field from a small pool of edge values
//! (`/0`, `/32`, `/128`, maxLength at either end of its range and
//! outside it, ASN 0 and `u32::MAX`), so sequences revisit the same
//! keys and most pairs of keys differ in exactly one field — the cases
//! where a packing or ordering slip would show.

use std::collections::BTreeSet;

use proptest::prelude::*;
use rpki_prefix::{Prefix, Prefix4, Prefix6};
use rpki_roa::{Asn, Vrp};
use rpki_rtr::client::{ClientError, ClientState};
use rpki_rtr::pdu::{ErrorCode, Flags, Pdu, Timing};
use rpki_rtr::{CacheServer, RouterClient, VrpSet};

/// Picks one of `pool` with the low bits of a generated index.
fn pick<T: Copy>(pool: &[T], index: u8) -> T {
    pool[index as usize % pool.len()]
}

fn arb_vrp() -> impl Strategy<Value = Vrp> {
    const BITS4: [u32; 4] = [0, 0x0a00_0000, 0x0a00_0001, u32::MAX];
    const LEN4: [u8; 5] = [0, 8, 24, 31, 32];
    const BITS6: [u128; 5] = [0, 1, 1 << 32, 0x2001_0db8 << 96, u128::MAX];
    const LEN6: [u8; 6] = [0, 32, 64, 96, 127, 128];
    const ASN: [u32; 4] = [0, 1, 65_000, u32::MAX];
    // The pub fields let callers build a `Vrp` whose maxLength is out
    // of range; the table must hand back exactly what it was given.
    let max_len = |len: u8, family_max: u8, choice: u8| pick(&[len, family_max, 0, 255], choice);
    (any::<bool>(), any::<u32>()).prop_map(move |(v4, choices)| {
        let [bits, len, ml, asn] = choices.to_le_bytes();
        let (prefix, max_len) = if v4 {
            let len = pick(&LEN4, len);
            let prefix = Prefix4::new_truncated(pick(&BITS4, bits), len);
            (Prefix::V4(prefix), max_len(len, 32, ml))
        } else {
            let len = pick(&LEN6, len);
            let prefix = Prefix6::new_truncated(pick(&BITS6, bits), len);
            (Prefix::V6(prefix), max_len(len, 128, ml))
        };
        Vrp {
            prefix,
            max_len,
            asn: Asn(pick(&ASN, asn)),
        }
    })
}

#[derive(Debug, Clone)]
enum Op {
    Insert(Vrp),
    Remove(Vrp),
    Contains(Vrp),
    Clear,
}

fn arb_op() -> impl Strategy<Value = Op> {
    prop_oneof![
        6 => arb_vrp().prop_map(Op::Insert),
        4 => arb_vrp().prop_map(Op::Remove),
        3 => arb_vrp().prop_map(Op::Contains),
        1 => Just(Op::Clear),
    ]
}

proptest! {
    #[test]
    fn every_operation_agrees_with_btree_set(ops in prop::collection::vec(arb_op(), 0..200)) {
        let mut set = VrpSet::new();
        let mut model: BTreeSet<Vrp> = BTreeSet::new();
        for op in ops {
            match op {
                Op::Insert(v) => prop_assert_eq!(set.insert(v), model.insert(v), "insert {}", v),
                Op::Remove(v) => prop_assert_eq!(set.remove(&v), model.remove(&v), "remove {}", v),
                Op::Contains(v) => prop_assert_eq!(set.contains(&v), model.contains(&v)),
                Op::Clear => {
                    set.clear();
                    model.clear();
                }
            }
            prop_assert_eq!(set.len(), model.len());
            prop_assert_eq!(set.is_empty(), model.is_empty());
            prop_assert!(set.iter().eq(model.iter()), "{:?} != {:?}", set, model);
            prop_assert!(set == model);
            prop_assert!(model == set);
        }
        // `==` also says no: one element more or fewer on either side.
        let extra = Vrp::exact("192.0.2.0/24".parse().unwrap(), Asn(64_496));
        let mut larger = model.clone();
        larger.insert(extra);
        prop_assert!(set != larger);
        prop_assert!(larger != set);
        set.insert(extra);
        prop_assert!(set != model);
        prop_assert!(model != set);
    }
}

/// `RouterClient` as it was with two `BTreeSet<Vrp>`s: the same state
/// machine over the parent's table, errors reduced to what a peer can
/// observe.
#[derive(Default)]
struct ReferenceClient {
    receiving: Option<bool>,
    session_id: Option<u16>,
    synchronized: bool,
    vrps: BTreeSet<Vrp>,
    staging: BTreeSet<Vrp>,
}

#[derive(Debug, PartialEq)]
enum Rejected {
    Unexpected(u8),
    WithdrawalOfUnknown(Vrp),
    DuplicateAnnouncement(Vrp),
    CacheError(ErrorCode),
}

impl ReferenceClient {
    fn reset(&mut self) {
        (self.receiving, self.synchronized, self.session_id) = (None, false, None);
        self.staging.clear();
    }

    fn handle(&mut self, pdu: &Pdu) -> Result<bool, Rejected> {
        match (self.receiving, pdu) {
            (_, Pdu::SerialNotify { .. }) => Ok(false),
            (None, Pdu::CacheResponse { session_id }) if !self.synchronized => {
                self.session_id = Some(*session_id);
                self.staging.clear();
                self.receiving = Some(true);
                Ok(false)
            }
            (None, Pdu::CacheResponse { session_id }) => {
                if Some(*session_id) != self.session_id {
                    self.reset();
                    return Err(Rejected::Unexpected(pdu.as_wire().type_code()));
                }
                self.receiving = Some(false);
                Ok(false)
            }
            (Some(reset), Pdu::Prefix { flags, vrp }) => {
                let set = if reset {
                    &mut self.staging
                } else {
                    &mut self.vrps
                };
                match flags {
                    Flags::Announce if !set.insert(*vrp) => {
                        Err(Rejected::DuplicateAnnouncement(*vrp))
                    }
                    Flags::Withdraw if !set.remove(vrp) => Err(Rejected::WithdrawalOfUnknown(*vrp)),
                    _ => Ok(false),
                }
            }
            (Some(reset), Pdu::EndOfData { session_id, .. }) => {
                if Some(*session_id) != self.session_id {
                    self.reset();
                    return Err(Rejected::Unexpected(pdu.as_wire().type_code()));
                }
                if reset {
                    self.vrps = std::mem::take(&mut self.staging);
                }
                (self.receiving, self.synchronized) = (None, true);
                Ok(true)
            }
            (_, Pdu::CacheReset) => {
                self.reset();
                Ok(false)
            }
            (_, Pdu::ErrorReport { code, .. }) => Err(Rejected::CacheError(*code)),
            _ => Err(Rejected::Unexpected(pdu.as_wire().type_code())),
        }
    }

    fn state(&self) -> ClientState {
        match self.receiving {
            Some(reset) => ClientState::Receiving { reset },
            None if self.synchronized => ClientState::Synchronized,
            None => ClientState::Unsynchronized,
        }
    }
}

fn observable(result: Result<bool, ClientError>) -> Result<bool, Rejected> {
    result.map_err(|e| match e {
        ClientError::Unexpected { type_code, .. } => Rejected::Unexpected(type_code),
        ClientError::WithdrawalOfUnknown(v) => Rejected::WithdrawalOfUnknown(v),
        ClientError::DuplicateAnnouncement(v) => Rejected::DuplicateAnnouncement(v),
        ClientError::CacheError(code, _) => Rejected::CacheError(code),
        other => panic!("handle() cannot fail with {other}"),
    })
}

fn arb_cache_pdu() -> impl Strategy<Value = Pdu> {
    let session = || prop_oneof![4 => Just(7u16), 1 => Just(8u16)];
    prop_oneof![
        3 => session().prop_map(|session_id| Pdu::CacheResponse { session_id }),
        12 => (any::<bool>(), arb_vrp()).prop_map(|(announce, vrp)| Pdu::Prefix {
            flags: if announce { Flags::Announce } else { Flags::Withdraw },
            vrp,
        }),
        3 => (session(), any::<u32>()).prop_map(|(session_id, serial)| Pdu::EndOfData {
            session_id,
            serial,
            timing: Timing::default(),
        }),
        1 => Just(Pdu::CacheReset),
        1 => Just(Pdu::SerialNotify { session_id: 7, serial: 1 }),
        1 => Just(Pdu::ResetQuery),
        1 => Just(Pdu::ErrorReport {
            code: ErrorCode::NoDataAvailable,
            pdu: Default::default(),
            text: String::new(),
        }),
    ]
}

proptest! {
    /// The same PDU stream into the client and into the reference: the
    /// same verdict on every PDU — in particular Duplicate Announcement
    /// and Withdrawal of Unknown on the very PDU that causes them — and
    /// the same state and set after each.
    #[test]
    fn router_client_agrees_with_the_btree_set_client(
        stream in prop::collection::vec(arb_cache_pdu(), 0..120),
    ) {
        feed(&mut RouterClient::new(), &mut ReferenceClient::default(), &stream);
    }
}

/// Feeds `stream` to both clients: the same verdict on every PDU, the
/// same state and the same visible set after each. Returns how many
/// PDUs were rejected.
fn feed(client: &mut RouterClient, reference: &mut ReferenceClient, stream: &[Pdu]) -> usize {
    let mut rejected = 0;
    for (i, pdu) in stream.iter().enumerate() {
        let got = observable(client.handle(pdu));
        assert_eq!(got, reference.handle(pdu), "PDU {i}: {pdu:?}");
        assert_eq!(client.state(), reference.state(), "after PDU {i}");
        assert_eq!(client.vrps(), &reference.vrps, "after PDU {i}");
        rejected += usize::from(got.is_err());
    }
    rejected
}

fn prefix(flags: Flags, vrp: Vrp) -> Pdu {
    Pdu::Prefix { flags, vrp }
}

fn end_of_data(serial: u32) -> Pdu {
    Pdu::EndOfData {
        session_id: 7,
        serial,
        timing: Timing::default(),
    }
}

/// `body` as one Reset response of session 7.
fn reset_response(body: impl IntoIterator<Item = Pdu>, serial: u32) -> Vec<Pdu> {
    let mut stream = vec![Pdu::CacheResponse { session_id: 7 }];
    stream.extend(body);
    stream.push(end_of_data(serial));
    stream
}

/// Both clients holding `10.0.0.0/8 => AS1` from a first Reset response
/// and told to reset: what a later response stages must stay invisible
/// behind this set until its End of Data.
fn resynchronizing() -> (RouterClient, ReferenceClient) {
    let (mut client, mut reference) = (RouterClient::new(), ReferenceClient::default());
    let held = prefix(Flags::Announce, "10.0.0.0/8 => AS1".parse().unwrap());
    let mut stream = reset_response([held], 1);
    stream.push(Pdu::CacheReset);
    feed(&mut client, &mut reference, &stream);
    (client, reference)
}

/// The order a real cache serves `vrps` in: per family by prefix
/// length, then address, then origin, then maxLength.
fn cache_order(vrps: &BTreeSet<Vrp>) -> Vec<Vrp> {
    let all: Vec<Vrp> = vrps.iter().copied().collect();
    CacheServer::new(7, &all)
        .handle(&Pdu::ResetQuery)
        .into_iter()
        .filter_map(|pdu| match pdu {
            Pdu::Prefix { vrp, .. } => Some(vrp),
            _ => None,
        })
        .collect()
}

fn shuffle<T>(items: &mut [T], mut seed: u64) {
    for i in (1..items.len()).rev() {
        seed = seed
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
        items.swap(i, (seed >> 33) as usize % (i + 1));
    }
}

proptest! {
    /// Whole Reset responses over the edge pool, in four arrival orders
    /// — `Vrp` order, the cache's length-major order, reversed, shuffled
    /// — with up to five records injected at random positions: repeats
    /// of a record of the response (a Duplicate Announcement on whichever
    /// copy arrives second) and withdrawals (of a record already staged,
    /// or a Withdrawal of Unknown). About a sixth of the cases inject
    /// nothing.
    #[test]
    fn reset_responses_agree_in_every_arrival_order(
        vrps in prop::collection::btree_set(arb_vrp(), 0..60),
        order in 0u8..4,
        seed in any::<u64>(),
        inject in prop::collection::vec(
            (any::<prop::sample::Index>(), any::<prop::sample::Index>(), any::<bool>()),
            0..6,
        ),
    ) {
        let mut body: Vec<Vrp> = match order {
            0 | 2 => vrps.iter().copied().collect(),
            _ => cache_order(&vrps),
        };
        prop_assert_eq!(body.len(), vrps.len());
        match order {
            2 => body.reverse(),
            3 => shuffle(&mut body, seed),
            _ => {}
        }
        let mut body: Vec<Pdu> = body.into_iter().map(|v| prefix(Flags::Announce, v)).collect();
        if !vrps.is_empty() {
            for (at, which, withdraw) in inject {
                let vrp = *vrps.iter().nth(which.index(vrps.len())).unwrap();
                let flags = if withdraw { Flags::Withdraw } else { Flags::Announce };
                body.insert(at.index(body.len() + 1), prefix(flags, vrp));
            }
        }
        let (mut client, mut reference) = resynchronizing();
        feed(&mut client, &mut reference, &reset_response(body, 2));
        prop_assert_eq!(client.state(), ClientState::Synchronized);
    }
}

fn announce(text: &str) -> Pdu {
    prefix(Flags::Announce, text.parse().unwrap())
}

fn withdraw(text: &str) -> Pdu {
    prefix(Flags::Withdraw, text.parse().unwrap())
}

/// The arrivals the staging rule turns on, one fixed stream each. The
/// reference says which records are rejected; the count beside each
/// stream pins how many, so a fixture cannot drift off its case.
#[test]
fn reset_staging_fixed_cases() {
    const ONES: &str = "ffff:ffff:ffff:ffff:ffff:ffff:ffff:ffff/128 => AS4294967295";
    let cases: [(&str, Vec<Pdu>, usize); 7] = [
        (
            "a prefix's records split by another length's; duplicates before and after a spill",
            vec![
                announce("10.0.0.0/8 => AS1"),
                announce("10.0.0.0/16 => AS1"),
                announce("10.0.0.0/8 => AS2"),
                announce("10.0.0.0/8 => AS1"),
                announce("10.0.0.0/16 => AS1"),
                announce("9.0.0.0/8 => AS1"),
                announce("10.0.0.0/8 => AS2"),
                announce("9.0.0.0/8 => AS1"),
                announce("10.0.0.0/8 => AS3"),
            ],
            4,
        ),
        (
            "duplicates inside a trailing multi-origin group",
            vec![
                announce("10.0.0.0/8 => AS1"),
                announce("10.0.0.0/8 => AS2"),
                announce("10.0.0.0/8 => AS3"),
                announce("10.0.0.0/8 => AS2"),
                announce("10.0.0.0/8 => AS1"),
                announce("11.0.0.0/8 => AS1"),
                announce("11.0.0.0/8 => AS1"),
                announce("10.0.0.0/8 => AS3"),
            ],
            4,
        ),
        (
            "one prefix, (asn, maxLength) arriving against key order",
            vec![
                announce("10.0.0.0/8-24 => AS1"),
                announce("10.0.0.0/8-20 => AS2"),
                announce("10.0.0.0/8-24 => AS1"),
                announce("10.0.0.0/8-20 => AS2"),
                announce("10.0.0.0/8-20 => AS1"),
            ],
            2,
        ),
        (
            "the lowest and highest address of each family",
            vec![
                announce("0.0.0.0/0 => AS0"),
                announce("0.0.0.0/0 => AS0"),
                announce("255.255.255.255/32 => AS4294967295"),
                announce("255.255.255.255/32 => AS4294967295"),
                announce("::/0 => AS0"),
                announce(ONES),
                announce("::/0 => AS0"),
                announce(ONES),
                announce("::/0-128 => AS0"),
                announce("0.0.0.0/0-32 => AS0"),
            ],
            4,
        ),
        (
            "withdrawals inside a Reset response",
            vec![
                announce("10.0.0.0/8 => AS1"),
                withdraw("11.0.0.0/8 => AS1"),
                announce("11.0.0.0/8 => AS1"),
                withdraw("10.0.0.0/8 => AS1"),
                withdraw("10.0.0.0/8 => AS1"),
                announce("10.0.0.0/8 => AS1"),
                announce("11.0.0.0/8 => AS1"),
            ],
            3,
        ),
        (
            "one prefix under more origins than are compared in place",
            (0..40)
                .chain([5, 39, 40, 40])
                .map(|asn| announce(&format!("10.0.0.0/8 => AS{asn}")))
                .collect(),
            3,
        ),
        ("an empty response", vec![], 0),
    ];
    for (name, body, rejected) in cases {
        let (mut client, mut reference) = resynchronizing();
        let got = feed(&mut client, &mut reference, &reset_response(body, 2));
        assert_eq!(got, rejected, "{name}");
        assert_eq!(client.state(), ClientState::Synchronized, "{name}");
    }
}

/// A Reset response abandoned half way — by a Cache Reset, a dead
/// transport, the fall-back policy — leaves nothing staged: the records
/// it announced are not duplicates in the clean response that follows,
/// and the ones only it carried are not in the table.
#[test]
fn an_abandoned_reset_response_leaves_nothing_staged() {
    type Abandon = fn(&mut RouterClient, &mut ReferenceClient);
    let abandons: [(&str, Abandon); 3] = [
        ("Cache Reset", |c, r| {
            feed(c, r, &[Pdu::CacheReset]);
        }),
        ("abort_response", |c, r| {
            c.abort_response();
            r.reset();
        }),
        ("force_reset", |c, r| {
            c.force_reset();
            r.reset();
        }),
    ];
    for spilled in [false, true] {
        for (name, abandon) in &abandons {
            let (mut client, mut reference) = resynchronizing();
            let mut half = vec![
                Pdu::CacheResponse { session_id: 7 },
                announce("10.0.0.0/8 => AS1"),
                announce("12.0.0.0/8 => AS3"),
                announce("2001:db8::/32 => AS3"),
            ];
            if spilled {
                half.push(announce("11.0.0.0/8 => AS2"));
            }
            feed(&mut client, &mut reference, &half);
            abandon(&mut client, &mut reference);
            assert_eq!(client.state(), ClientState::Unsynchronized, "{name}");
            assert_eq!(client.vrps().len(), 1, "{name}: the old set is still held");
            let clean = [
                announce("10.0.0.0/8 => AS1"),
                announce("2001:db8::/32 => AS3"),
            ];
            feed(&mut client, &mut reference, &reset_response(clean, 3));
            assert_eq!(client.state(), ClientState::Synchronized, "{name}");
            assert_eq!(client.vrps().len(), 2, "{name}, spilled: {spilled}");
        }
    }
}
