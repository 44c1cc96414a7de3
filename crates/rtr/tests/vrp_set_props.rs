//! `VrpSet` against its model, `BTreeSet<Vrp>` — the table it replaced
//! inside `RouterClient` — first operation by operation, then through
//! `RouterClient::handle` against a reference client that still keeps
//! `BTreeSet<Vrp>`s.
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
use rpki_rtr::{RouterClient, VrpSet};

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
                    return Err(Rejected::Unexpected(pdu.type_code()));
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
                    return Err(Rejected::Unexpected(pdu.type_code()));
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
            _ => Err(Rejected::Unexpected(pdu.type_code())),
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
        let mut client = RouterClient::new();
        let mut reference = ReferenceClient::default();
        for (i, pdu) in stream.iter().enumerate() {
            let got = observable(client.handle(pdu));
            prop_assert_eq!(got, reference.handle(pdu), "PDU {}: {:?}", i, pdu);
            prop_assert_eq!(client.state(), reference.state(), "after PDU {}", i);
            prop_assert_eq!(client.vrps(), &reference.vrps, "after PDU {}", i);
        }
    }
}
