//! `TcpTransport`'s receive buffer against real sockets: a response cut
//! at every alignment must synchronize a router to exactly what the
//! in-memory driver reaches on the same cache, and a peer that lies or
//! stalls must get an error, not a bigger buffer.
//!
//! The in-memory side is the `testkit` lab's session driver under a
//! fault-free `ChaosSession`, whose options reach a v0 cache and a
//! non-default `Timing`. The buffer's size bound itself is private
//! state; it is asserted beside the type
//! (`transport::tests::maximal_frames_trickled_stay_inside_the_fixed_buffer`).

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::mpsc;
use std::thread;

use rpki_prefix::{Prefix, Prefix4, Prefix6};
use rpki_roa::{Asn, Vrp};
use rpki_rtr::client::{ClientError, ClientState};
use rpki_rtr::pdu::{ErrorCode, Flags, Pdu, PduError, Timing, PROTOCOL_V0, PROTOCOL_V1};
use rpki_rtr::transport::{TcpTransport, Transport, TransportError};
use rpki_rtr::wire::MAX_PDU_LEN;
use rpki_rtr::{CacheServer, RouterClient, WireOutcome};
use testkit::faults::{ChaosOptions, ChaosSession, FaultConfig};

const SESSION: u16 = 8210;
const TIMING: Timing = Timing {
    refresh: 11,
    retry: 7,
    expire: 99,
};

/// `n` draws of a mixed-family table: prefix lengths 12–24 and 32–64,
/// seven origins, scattered addresses, so the cache's length-major
/// order interleaves them and some prefixes carry several records.
fn table(n: u32) -> Vec<Vrp> {
    (0..n)
        .map(|i| {
            let asn = Asn(64_512 + i % 7);
            let scattered = (i / 3).wrapping_mul(0x9E37_79B1);
            if i % 5 == 4 {
                let len = 32 + (i % 33) as u8;
                let bits = (0x2001_0db8_u128 << 96) | (u128::from(scattered) << 56);
                Vrp::new(Prefix::V6(Prefix6::new_truncated(bits, len)), len + 8, asn)
            } else {
                let len = 12 + (i % 13) as u8;
                let prefix = Prefix4::new_truncated(scattered, len);
                Vrp::new(Prefix::V4(prefix), len + (i % 3) as u8, asn)
            }
        })
        .collect()
}

/// The in-memory driver's router after a Reset sync and one delta on a
/// cache at `version`, with that cache.
fn in_memory(vrps: &[Vrp], version: u8) -> (CacheServer, RouterClient) {
    let options = ChaosOptions {
        cache_version: version,
        router_version: version,
        timing: TIMING,
        ..ChaosOptions::default()
    };
    let mut session = ChaosSession::with_options(SESSION, vrps, 1, FaultConfig::none(), options);
    let settled = session.settle();
    assert!(settled.converged && settled.attempts == 1, "{settled:?}");
    let announced = table(vrps.len() as u32 + 40);
    session.apply_epoch(&announced[vrps.len()..], &vrps[..vrps.len() / 10]);
    let settled = session.settle();
    assert!(settled.converged && settled.attempts == 1, "{settled:?}");
    (session.cache().clone(), session.router().clone())
}

/// Serves `cache` to one connection, every response written `chunk`
/// bytes at a time, until the router hangs up.
fn serve_dribbling(cache: CacheServer, chunk: usize) -> (SocketAddr, thread::JoinHandle<()>) {
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let serving = thread::spawn(move || {
        let (mut stream, _) = listener.accept().unwrap();
        stream.set_nodelay(true).unwrap();
        let mut negotiation = cache.negotiation();
        let (mut inbox, mut read) = (Vec::new(), [0u8; 64]);
        loop {
            let mut response = Vec::new();
            match cache.handle_wire(&inbox, &mut negotiation, &mut response) {
                WireOutcome::Responded { consumed } => {
                    inbox.drain(..consumed);
                    for piece in response.chunks(chunk) {
                        stream.write_all(piece).unwrap();
                    }
                }
                WireOutcome::NeedBytes => match stream.read(&mut read).unwrap() {
                    0 => return,
                    n => inbox.extend_from_slice(&read[..n]),
                },
                teardown => panic!("the router sent {teardown:?}"),
            }
        }
    });
    (addr, serving)
}

/// One in-memory reference per `(vrps, version)`, then a TCP session per
/// chunk size against the same cache. Returns the cache's size.
fn synchronizes_like_the_in_memory_driver(vrps: &[Vrp], version: u8, chunks: &[usize]) -> usize {
    let (cache, reference) = in_memory(vrps, version);
    for &chunk in chunks {
        synchronizes_like(&cache, &reference, version, chunk);
    }
    cache.len()
}

/// A Reset sync, an empty Serial sync and a second Reset sync on one
/// connection — so the second response starts wherever the first left
/// the buffer — each ending on the in-memory router's state.
fn synchronizes_like(cache: &CacheServer, reference: &RouterClient, version: u8, chunk: usize) {
    let (addr, serving) = serve_dribbling(cache.clone(), chunk);
    let stream = TcpStream::connect(addr).unwrap();
    let mut transport = TcpTransport::with_version(stream, version);
    let mut router = RouterClient::with_version(version);
    for round in ["reset", "serial", "reset again"] {
        if round == "reset again" {
            router.force_reset();
        }
        router.synchronize(&mut transport).unwrap();
        let what = format!("v{version}, {chunk}-byte chunks, {round}");
        assert_eq!(router.state(), ClientState::Synchronized, "{what}");
        assert_eq!(router.vrps(), reference.vrps(), "{what}");
        assert!(router.vrps().iter().eq(cache.vrps().copied()), "{what}");
        assert_eq!(router.serial(), reference.serial(), "{what}");
        assert_eq!(router.timing(), reference.timing(), "{what}");
    }
    let expected = if version == PROTOCOL_V0 {
        Timing::default()
    } else {
        TIMING
    };
    assert_eq!(router.timing(), expected);
    assert_eq!(router.serial(), 1);
    drop(transport);
    serving.join().unwrap();
}

#[test]
fn a_large_response_cut_at_any_chunk_size_synchronizes_identically() {
    let vrps = table(12_000);
    assert!(vrps.iter().any(|v| v.prefix.is_v4()) && vrps.iter().any(|v| !v.prefix.is_v4()));
    for version in [PROTOCOL_V1, PROTOCOL_V0] {
        let chunks = [13, 4_096, 65_536, 70_000];
        let served = synchronizes_like_the_in_memory_driver(&vrps, version, &chunks);
        assert!(served >= 10_000, "{served} VRPs");
    }
}

#[test]
fn a_small_response_byte_by_byte_and_in_sevens_synchronizes_identically() {
    let vrps = table(200);
    for version in [PROTOCOL_V1, PROTOCOL_V0] {
        synchronizes_like_the_in_memory_driver(&vrps, version, &[1, 7]);
    }
}

/// A peer scripted as a list of writes; it then holds the connection
/// open until the test is done with it.
fn scripted_peer(writes: Vec<Vec<u8>>) -> (TcpTransport, mpsc::Sender<()>, thread::JoinHandle<()>) {
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let (done, wait) = mpsc::channel::<()>();
    let peer = thread::spawn(move || {
        let (mut stream, _) = listener.accept().unwrap();
        stream.set_nodelay(true).unwrap();
        for bytes in writes {
            stream.write_all(&bytes).unwrap();
        }
        let _ = wait.recv();
    });
    let transport = TcpTransport::new(TcpStream::connect(addr).unwrap());
    (transport, done, peer)
}

fn frames(pdus: &[(u8, Pdu)]) -> Vec<u8> {
    let mut out = Vec::new();
    for (version, pdu) in pdus {
        pdu.as_wire().encode_into(*version, &mut out);
    }
    out
}

#[test]
fn a_maximal_frame_promised_then_trickled_arrives_whole() {
    // The longest promise a header may make, kept 977 bytes at a time;
    // then a second one in a single write behind a small frame.
    let report = Pdu::ErrorReport {
        code: ErrorCode::InternalError,
        pdu: Default::default(),
        text: "x".repeat(MAX_PDU_LEN - 16),
    };
    let frame = frames(&[(PROTOCOL_V1, report.clone())]);
    assert_eq!(frame.len(), MAX_PDU_LEN);
    let mut writes = vec![frame[..8].to_vec()];
    writes.extend(frame[8..].chunks(977).map(<[u8]>::to_vec));
    let notify = Pdu::SerialNotify {
        session_id: SESSION,
        serial: 3,
    };
    writes.push([frames(&[(PROTOCOL_V1, notify.clone())]), frame].concat());
    let (mut transport, done, peer) = scripted_peer(writes);

    let mut router = RouterClient::new();
    match router.synchronize(&mut transport) {
        Err(ClientError::CacheError(ErrorCode::InternalError, text)) => {
            assert_eq!(text.len(), MAX_PDU_LEN - 16)
        }
        other => panic!("expected the cache's report, got {other:?}"),
    }
    assert_eq!(transport.recv().unwrap(), notify);
    assert_eq!(transport.recv().unwrap(), report);
    done.send(()).unwrap();
    peer.join().unwrap();
}

#[test]
fn one_byte_past_the_maximal_length_fails_on_the_header() {
    // The peer never sends a ninth byte and never closes: a transport
    // that waited for the promised frame would hang here.
    let mut header = frames(&[(PROTOCOL_V1, Pdu::CacheReset)]);
    header[4..8].copy_from_slice(&(MAX_PDU_LEN as u32 + 1).to_be_bytes());
    let (mut transport, done, peer) = scripted_peer(vec![header]);
    let err = RouterClient::new().synchronize(&mut transport).unwrap_err();
    assert!(
        matches!(
            &err,
            ClientError::Transport(TransportError::Protocol(PduError::BadLength { length, .. }))
                if *length == MAX_PDU_LEN + 1
        ),
        "{err:?}"
    );
    done.send(()).unwrap();
    peer.join().unwrap();
}

#[test]
fn a_frame_at_another_version_stops_the_response_where_it_stands() {
    let announce = |text: &str| Pdu::Prefix {
        flags: Flags::Announce,
        vrp: text.parse().unwrap(),
    };
    let end = Pdu::EndOfData {
        session_id: SESSION,
        serial: 5,
        timing: TIMING,
    };
    // All in one write: the frames behind the offending one are already
    // in the buffer when it is refused.
    let response = frames(&[
        (
            PROTOCOL_V1,
            Pdu::CacheResponse {
                session_id: SESSION,
            },
        ),
        (PROTOCOL_V1, announce("10.0.0.0/8 => AS1")),
        (PROTOCOL_V0, announce("11.0.0.0/8 => AS2")),
        (PROTOCOL_V1, announce("12.0.0.0/8 => AS3")),
        (PROTOCOL_V1, end.clone()),
    ]);
    let (mut transport, done, peer) = scripted_peer(vec![response]);
    let mismatch = TransportError::Protocol(PduError::VersionMismatch {
        negotiated: PROTOCOL_V1,
        got: PROTOCOL_V0,
    });

    let mut router = RouterClient::new();
    match router.synchronize(&mut transport) {
        Err(ClientError::Transport(e)) => assert_eq!(e, mismatch),
        other => panic!("expected the negotiation error, got {other:?}"),
    }
    assert_eq!(router.state(), ClientState::Receiving { reset: true });
    assert!(router.vrps().is_empty());
    // The refused frame is not stepped over, so nothing behind it can
    // ever reach the router on this connection...
    assert_eq!(transport.recv().unwrap_err(), mismatch);
    // ...and what the router staged is the one record ahead of it.
    assert!(router.handle(&end).unwrap());
    assert!(router
        .vrps()
        .iter()
        .eq(["10.0.0.0/8 => AS1".parse::<Vrp>().unwrap()]));
    done.send(()).unwrap();
    peer.join().unwrap();
}
