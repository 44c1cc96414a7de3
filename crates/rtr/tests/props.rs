//! Property tests for the rpki-rtr wire codec and the cache/client pair.

use bytes::{Bytes, BytesMut};
use proptest::prelude::*;
use rpki_prefix::{Prefix, Prefix4, Prefix6};
use rpki_roa::{Asn, Vrp};
use rpki_rtr::cache::CacheServer;
use rpki_rtr::client::RouterClient;
use rpki_rtr::pdu::{ErrorCode, Flags, Pdu, Timing};

fn arb_vrp() -> impl Strategy<Value = Vrp> {
    prop_oneof![
        (any::<u32>(), 0u8..=32, 0u8..=8, any::<u32>()).prop_map(|(b, l, e, a)| {
            let p = Prefix::V4(Prefix4::new_truncated(b, l));
            Vrp::new(p, l.saturating_add(e), Asn(a))
        }),
        (any::<u128>(), 0u8..=128, 0u8..=8, any::<u32>()).prop_map(|(b, l, e, a)| {
            let p = Prefix::V6(Prefix6::new_truncated(b, l));
            Vrp::new(p, l.saturating_add(e), Asn(a))
        }),
    ]
}

fn arb_pdu() -> impl Strategy<Value = Pdu> {
    prop_oneof![
        (any::<u16>(), any::<u32>()).prop_map(|(s, n)| Pdu::SerialNotify {
            session_id: s,
            serial: n
        }),
        (any::<u16>(), any::<u32>()).prop_map(|(s, n)| Pdu::SerialQuery {
            session_id: s,
            serial: n
        }),
        Just(Pdu::ResetQuery),
        any::<u16>().prop_map(|s| Pdu::CacheResponse { session_id: s }),
        (any::<bool>(), arb_vrp()).prop_map(|(a, vrp)| Pdu::Prefix {
            flags: if a { Flags::Announce } else { Flags::Withdraw },
            vrp,
        }),
        (
            any::<u16>(),
            any::<u32>(),
            any::<u32>(),
            any::<u32>(),
            any::<u32>()
        )
            .prop_map(|(s, n, r, t, e)| Pdu::EndOfData {
                session_id: s,
                serial: n,
                timing: Timing {
                    refresh: r,
                    retry: t,
                    expire: e
                },
            }),
        Just(Pdu::CacheReset),
        (prop::collection::vec(any::<u8>(), 0..64), ".*{0,32}").prop_map(|(mut inner, text)| {
            // An Error Report must not encapsulate an Error Report
            // (RFC 8210 §5.10) — steer the arbitrary inner bytes away
            // from type code 10 so the generated PDU is encodable.
            if inner.len() >= 2 && inner[1] == 10 {
                inner[1] = 0;
            }
            Pdu::ErrorReport {
                code: ErrorCode::CorruptData,
                pdu: Bytes::from(inner),
                text,
            }
        }),
    ]
}

proptest! {
    #[test]
    fn pdu_round_trip(pdu in arb_pdu()) {
        let bytes = pdu.to_bytes();
        let (back, used) = Pdu::decode(&bytes).unwrap().unwrap();
        prop_assert_eq!(back, pdu);
        prop_assert_eq!(used, bytes.len());
    }

    #[test]
    fn concatenated_stream_decodes(pdus in prop::collection::vec(arb_pdu(), 0..10)) {
        let mut buf = BytesMut::new();
        for p in &pdus {
            p.encode(&mut buf);
        }
        let mut decoded = Vec::new();
        let mut view: &[u8] = &buf;
        while let Some((p, used)) = Pdu::decode(view).unwrap() {
            decoded.push(p);
            view = &view[used..];
        }
        prop_assert!(view.is_empty());
        prop_assert_eq!(decoded, pdus);
    }

    #[test]
    fn decoder_never_panics(data in prop::collection::vec(any::<u8>(), 0..256)) {
        let _ = Pdu::decode(&data);
    }

    #[test]
    fn truncated_pdu_is_incomplete_not_error(pdu in arb_pdu(), cut_frac in 0.0f64..1.0) {
        let bytes = pdu.to_bytes();
        let cut = ((bytes.len() as f64) * cut_frac) as usize;
        if cut < bytes.len() {
            // A prefix of a valid PDU must never decode to a *different*
            // PDU; it is either incomplete (None) or (if the header got
            // cut inside the length field) an error — never a wrong value.
            match Pdu::decode(&bytes[..cut]) {
                Ok(None) | Err(_) => {}
                Ok(Some((decoded, _))) => prop_assert_eq!(decoded, pdu),
            }
        }
    }

    /// A router fully synchronized over the protocol holds exactly the
    /// cache's set, whatever that set is.
    #[test]
    fn sync_transfers_exact_set(vrps in prop::collection::btree_set(arb_vrp(), 0..50)) {
        let list: Vec<Vrp> = vrps.iter().copied().collect();
        let cache = CacheServer::new(9, &list);
        let mut router = RouterClient::new();
        for pdu in cache.handle(&Pdu::ResetQuery) {
            router.handle(&pdu).unwrap();
        }
        prop_assert_eq!(router.vrps(), &vrps);
    }

    /// Updating the cache and replaying the delta leaves the router with
    /// the new set.
    #[test]
    fn delta_sync_converges(
        initial in prop::collection::btree_set(arb_vrp(), 0..30),
        updated in prop::collection::btree_set(arb_vrp(), 0..30),
    ) {
        let initial_list: Vec<Vrp> = initial.iter().copied().collect();
        let updated_list: Vec<Vrp> = updated.iter().copied().collect();
        let mut cache = CacheServer::new(4, &initial_list);
        let mut router = RouterClient::new();
        for pdu in cache.handle(&Pdu::ResetQuery) {
            router.handle(&pdu).unwrap();
        }
        cache.update(&updated_list);
        for pdu in cache.handle(&router.query()) {
            router.handle(&pdu).unwrap();
        }
        prop_assert_eq!(router.vrps(), &updated);
        prop_assert_eq!(router.serial(), cache.serial());
    }

    /// `update_delta` with large lists that overlap each other, the
    /// served set and themselves (duplicates) records exactly what
    /// `update` records for the resulting set on a twin cache: the set
    /// difference between the two serials, one record per VRP.
    #[test]
    fn update_delta_on_overlapping_lists_records_what_update_does(
        served in prop::collection::vec(0u32..1500, 0..1200),
        announced in prop::collection::vec(0u32..1500, 0..1200),
        withdrawn in prop::collection::vec(0u32..1500, 0..1200),
    ) {
        let vrp = |i: &u32| {
            let prefix = Prefix::V4(Prefix4::new_truncated(0x0a00_0000 | i << 8, 24));
            Vrp::new(prefix, 24 + (i % 3) as u8, Asn(i % 11))
        };
        let served: Vec<Vrp> = served.iter().map(vrp).collect();
        let announced: Vec<Vrp> = announced.iter().map(vrp).collect();
        let withdrawn: Vec<Vrp> = withdrawn.iter().map(vrp).collect();

        let mut by_delta = CacheServer::new(4, &served);
        let mut by_set = by_delta.clone();
        by_delta.update_delta(&announced, &withdrawn);
        // Announcements first, withdrawals winning.
        let mut new_set: std::collections::BTreeSet<Vrp> =
            served.iter().chain(&announced).copied().collect();
        for v in &withdrawn {
            new_set.remove(v);
        }
        by_set.update(&new_set.iter().copied().collect::<Vec<_>>());

        prop_assert!(by_delta.vrps().eq(new_set.iter()));
        prop_assert_eq!(by_delta.serial(), by_set.serial());
        let catch_up = Pdu::SerialQuery { session_id: 4, serial: 0 };
        prop_assert_eq!(by_delta.handle(&catch_up), by_set.handle(&catch_up));
    }
}
