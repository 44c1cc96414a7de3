//! Blocking transports carrying rpki-rtr PDUs.
//!
//! The protocol machines in [`cache`](crate::cache) and
//! [`client`](crate::client) are sans-io; a [`Transport`] is the thin
//! blocking pipe [`RouterClient::synchronize`](crate::RouterClient::synchronize)
//! talks through, and [`TcpTransport`] is the real socket behind it on
//! the router (client) side.
//!
//! The cache side has no blocking transport: it is served by the
//! non-blocking event loop in [`crate::server`]. In-memory sessions go
//! through [`crate::session::LiveSession`]'s byte pipes instead.
//!
//! # The receive buffer
//!
//! [`TcpTransport`] reads into one fixed allocation and decodes frames
//! where they land: `buf[pos..end]` is unread, `pos <= end <= buf.len()`,
//! and a frame only advances `pos`. When the unread bytes are not a whole
//! frame they move to the front — less than one frame, so `end <
//! MAX_PDU_LEN` — and one `read` fills in behind them, into at least
//! `READ_CHUNK` bytes of room.

use std::fmt;
use std::io::{ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpStream};

use crate::pdu::{Pdu, PduError, PROTOCOL_V0, PROTOCOL_V1};
use crate::wire::{self, Negotiation, PduRef, HEADER_LEN, MAX_PDU_LEN};

/// Transport failures.
#[derive(Debug)]
pub enum TransportError {
    /// The peer closed the connection.
    Closed,
    /// Socket-level failure.
    Io(std::io::Error),
    /// The peer sent bytes that do not decode.
    Protocol(PduError),
}

impl fmt::Display for TransportError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TransportError::Closed => write!(f, "connection closed"),
            TransportError::Io(e) => write!(f, "I/O error: {e}"),
            TransportError::Protocol(e) => write!(f, "protocol error: {e}"),
        }
    }
}

impl std::error::Error for TransportError {}

impl From<std::io::Error> for TransportError {
    fn from(e: std::io::Error) -> Self {
        TransportError::Io(e)
    }
}

impl From<PduError> for TransportError {
    fn from(e: PduError) -> Self {
        TransportError::Protocol(e)
    }
}

impl PartialEq for TransportError {
    fn eq(&self, other: &Self) -> bool {
        match (self, other) {
            (TransportError::Closed, TransportError::Closed) => true,
            (TransportError::Protocol(a), TransportError::Protocol(b)) => a == b,
            _ => false,
        }
    }
}

/// A blocking, message-oriented PDU pipe.
pub trait Transport {
    /// Sends one PDU.
    fn send(&mut self, pdu: &Pdu) -> Result<(), TransportError>;
    /// Receives the next PDU, blocking until one arrives, and lends it to
    /// `f` where it was decoded: nothing is copied unless `f` copies it.
    fn recv_with<R>(&mut self, f: impl FnOnce(PduRef<'_>) -> R) -> Result<R, TransportError>;
    /// Receives the next PDU as an owned value.
    fn recv(&mut self) -> Result<Pdu, TransportError> {
        self.recv_with(|pdu| pdu.to_owned())
    }
}

/// Free bytes the receive buffer offers a `read` at the very least.
const READ_CHUNK: usize = 64 * 1024;

/// The receive half of a [`TcpTransport`], apart from the socket so its
/// reads can be scripted. See the [module docs](self).
#[derive(Debug)]
struct Receiver {
    buf: Vec<u8>,
    pos: usize,
    end: usize,
    negotiation: Negotiation,
}

impl Receiver {
    fn new(version: u8) -> Receiver {
        Receiver {
            buf: vec![0; MAX_PDU_LEN + READ_CHUNK],
            pos: 0,
            end: 0,
            // Accept responses up to our own version; a frame above it
            // is the recoverable BadVersion, below it the fatal mismatch
            // once pinned.
            negotiation: Negotiation::with_max(version),
        }
    }

    fn recv_with<R>(
        &mut self,
        stream: &mut impl Read,
        f: impl FnOnce(PduRef<'_>) -> R,
    ) -> Result<R, TransportError> {
        loop {
            let unread = &self.buf[self.pos..self.end];
            // Fail fast on a hostile length claim: the moment the 8-byte
            // header is in, a declared frame length outside the legal
            // PDU range is a CorruptData-class protocol error — never
            // wait on a 4 GiB promise to see the "complete" frame.
            if let [_, type_code, _, _, a, b, c, d, ..] = *unread {
                let length = u32::from_be_bytes([a, b, c, d]) as usize;
                if !(HEADER_LEN..=MAX_PDU_LEN).contains(&length) {
                    return Err(PduError::BadLength { type_code, length }.into());
                }
            }
            if let Some(frame) = wire::decode_frame(unread)? {
                self.negotiation.accept(frame.version)?;
                self.pos += frame.len;
                return Ok(f(frame.pdu));
            }
            self.buf.copy_within(self.pos..self.end, 0);
            self.end -= self.pos;
            self.pos = 0;
            let n = loop {
                match stream.read(&mut self.buf[self.end..]) {
                    Err(e) if e.kind() == ErrorKind::Interrupted => {}
                    read => break read?,
                }
            };
            match (n, self.end) {
                (0, 0) => return Err(TransportError::Closed),
                (0, length) => {
                    let type_code = 0xFF; // not a frame: the stream ended inside one
                    return Err(PduError::BadLength { type_code, length }.into());
                }
                _ => self.end += n,
            }
        }
    }
}

/// A PDU transport over a TCP stream, buffering partial frames.
///
/// Sends at the transport's protocol version and checks every received
/// frame against a per-connection [`Negotiation`]: the first inbound
/// frame pins the session, later frames at another version fail with
/// the fatal Unexpected-Version error.
#[derive(Debug)]
pub struct TcpTransport {
    stream: TcpStream,
    rx: Receiver,
    /// The encoded query; one allocation for the connection's life.
    query: Vec<u8>,
    version: u8,
}

impl TcpTransport {
    /// Wraps a connected stream, speaking protocol version 1.
    pub fn new(stream: TcpStream) -> TcpTransport {
        TcpTransport::with_version(stream, PROTOCOL_V1)
    }

    /// Wraps a connected stream speaking exactly `version` on the wire —
    /// the reconnect path after a downgrade
    /// ([`crate::RouterClient::downgrade_to`]).
    ///
    /// # Panics
    ///
    /// Panics on unknown versions.
    pub fn with_version(stream: TcpStream, version: u8) -> TcpTransport {
        assert!(
            version == PROTOCOL_V0 || version == PROTOCOL_V1,
            "unknown protocol version {version}"
        );
        TcpTransport {
            stream,
            rx: Receiver::new(version),
            query: Vec::new(),
            version,
        }
    }

    /// Connects to a cache server at protocol version 1.
    pub fn connect(addr: SocketAddr) -> Result<TcpTransport, TransportError> {
        Ok(TcpTransport::new(TcpStream::connect(addr)?))
    }

    /// Connects at a specific protocol version.
    pub fn connect_with_version(
        addr: SocketAddr,
        version: u8,
    ) -> Result<TcpTransport, TransportError> {
        Ok(TcpTransport::with_version(
            TcpStream::connect(addr)?,
            version,
        ))
    }

    /// The protocol version this transport encodes with.
    pub fn version(&self) -> u8 {
        self.version
    }
}

impl Transport for TcpTransport {
    fn send(&mut self, pdu: &Pdu) -> Result<(), TransportError> {
        self.query.clear();
        pdu.as_wire().encode_into(self.version, &mut self.query);
        self.stream.write_all(&self.query)?;
        Ok(())
    }

    fn recv_with<R>(&mut self, f: impl FnOnce(PduRef<'_>) -> R) -> Result<R, TransportError> {
        self.rx.recv_with(&mut self.stream, f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::TcpListener;
    use std::thread;

    #[test]
    fn tcp_version_pinning_and_clean_close() {
        // The negotiation runs on the receive path: a v0 transport must
        // reject a v1 frame, a v1 transport receives it and then sees
        // the writer's clean close as `Closed`.
        for (version, accepts) in [(PROTOCOL_V0, false), (PROTOCOL_V1, true)] {
            let listener = TcpListener::bind("127.0.0.1:0").unwrap();
            let addr = listener.local_addr().unwrap();
            let writer = thread::spawn(move || {
                let mut s = TcpStream::connect(addr).unwrap();
                let mut frame = Vec::new();
                Pdu::ResetQuery
                    .as_wire()
                    .encode_into(PROTOCOL_V1, &mut frame);
                s.write_all(&frame).unwrap();
            });
            let (stream, _) = listener.accept().unwrap();
            let mut t = TcpTransport::with_version(stream, version);
            if accepts {
                assert_eq!(t.recv().unwrap(), Pdu::ResetQuery);
                assert_eq!(t.recv().unwrap_err(), TransportError::Closed);
            } else {
                assert!(matches!(t.recv(), Err(TransportError::Protocol(_))));
            }
            writer.join().unwrap();
        }
    }

    #[test]
    fn tcp_partial_frames_reassembled() {
        // Write a PDU byte by byte; the receiver must reassemble.
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let writer = thread::spawn(move || {
            let mut s = TcpStream::connect(addr).unwrap();
            let bytes = Pdu::SerialNotify {
                session_id: 2,
                serial: 9,
            }
            .to_bytes();
            for b in bytes.iter() {
                s.write_all(&[*b]).unwrap();
                s.flush().unwrap();
            }
        });
        let (stream, _) = listener.accept().unwrap();
        let mut t = TcpTransport::new(stream);
        assert_eq!(
            t.recv().unwrap(),
            Pdu::SerialNotify {
                session_id: 2,
                serial: 9
            }
        );
        writer.join().unwrap();
    }

    #[test]
    fn tcp_hostile_length_claim_fails_fast() {
        // An adversarial peer declares a ~4 GiB frame. The transport
        // must reject it the moment the header arrives — with a
        // CorruptData-class protocol error and without buffering toward
        // the declared length.
        use crate::pdu::ErrorCode;
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let writer = thread::spawn(move || {
            let mut s = TcpStream::connect(addr).unwrap();
            // version 1, type 4 (Prefix), zero field, length u32::MAX.
            s.write_all(&[1, 4, 0, 0, 0xFF, 0xFF, 0xFF, 0xFF]).unwrap();
            s
        });
        let (stream, _) = listener.accept().unwrap();
        let mut t = TcpTransport::new(stream);
        match t.recv() {
            Err(TransportError::Protocol(e)) => {
                assert!(
                    matches!(
                        e,
                        PduError::BadLength {
                            length: 0xFFFF_FFFF,
                            ..
                        }
                    ),
                    "expected the hostile length in the error, got {e:?}"
                );
                assert_eq!(e.error_code(), ErrorCode::CorruptData);
            }
            other => panic!("expected fail-fast protocol error, got {other:?}"),
        }
        // The 8 header bytes are all the transport ever held.
        assert!(
            t.rx.end - t.rx.pos <= 8,
            "the transport must not read toward the declared length (held {})",
            t.rx.end - t.rx.pos
        );
        drop(writer.join().unwrap());
    }

    /// A socket whose reads are scripted; end of stream after the last.
    struct Script(std::collections::VecDeque<std::io::Result<Vec<u8>>>);

    impl Read for Script {
        fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
            assert!(buf.len() >= READ_CHUNK, "room for one chunk, always");
            let Some(step) = self.0.pop_front() else {
                return Ok(0);
            };
            let bytes = step?;
            buf[..bytes.len()].copy_from_slice(&bytes);
            Ok(bytes.len())
        }
    }

    fn recv(rx: &mut Receiver, stream: &mut Script) -> Result<Pdu, TransportError> {
        rx.recv_with(stream, |pdu| pdu.to_owned())
    }

    #[test]
    fn interrupted_read_mid_frame_is_retried() {
        let first = Pdu::SerialNotify {
            session_id: 2,
            serial: 9,
        };
        let mut bytes = first.to_bytes().to_vec();
        bytes.extend_from_slice(&Pdu::CacheReset.to_bytes());
        let eintr = || Err(std::io::Error::from(ErrorKind::Interrupted));
        let mut stream = Script(
            [
                eintr(),
                Ok(bytes[..5].to_vec()),
                eintr(),
                eintr(),
                Ok(bytes[5..14].to_vec()),
                Ok(bytes[14..].to_vec()),
            ]
            .into(),
        );
        let mut rx = Receiver::new(PROTOCOL_V1);
        assert_eq!(recv(&mut rx, &mut stream).unwrap(), first);
        assert_eq!(recv(&mut rx, &mut stream).unwrap(), Pdu::CacheReset);
        assert_eq!(
            recv(&mut rx, &mut stream).unwrap_err(),
            TransportError::Closed
        );
        // Any other error is the caller's to see, unread bytes kept.
        let mut stream = Script(
            [
                Ok(bytes[..5].to_vec()),
                Err(std::io::Error::from(ErrorKind::ConnectionReset)),
            ]
            .into(),
        );
        assert!(matches!(
            recv(&mut rx, &mut stream),
            Err(TransportError::Io(e)) if e.kind() == ErrorKind::ConnectionReset
        ));
        assert_eq!((rx.pos, rx.end), (0, 5));
    }

    /// The largest frame the protocol allows, promised by a valid header
    /// and then trickled, twice back to back: the transport waits inside
    /// its one allocation — `MAX_PDU_LEN` + one read chunk, never grown
    /// (`Script::read` checks the room on every read) — and delivers both.
    #[test]
    fn maximal_frames_trickled_stay_inside_the_fixed_buffer() {
        let report = Pdu::ErrorReport {
            code: crate::pdu::ErrorCode::InternalError,
            pdu: bytes::Bytes::new(),
            text: "x".repeat(MAX_PDU_LEN - HEADER_LEN - 8),
        };
        let frame = report.to_bytes();
        assert_eq!(frame.len(), MAX_PDU_LEN);
        let wire = [&frame[..], &frame[..]].concat();
        for chunk in [1, 7, 977, 40_000, READ_CHUNK + 1] {
            let mut stream = Script(wire.chunks(chunk).map(|c| Ok(c.to_vec())).collect());
            let mut rx = Receiver::new(PROTOCOL_V1);
            let capacity = rx.buf.capacity();
            for _ in 0..2 {
                assert_eq!(recv(&mut rx, &mut stream).unwrap(), report);
                assert!(rx.pos <= rx.end && rx.end <= rx.buf.len());
            }
            assert_eq!(rx.pos, rx.end, "chunk {chunk}: nothing left over");
            assert_eq!(rx.buf.len(), MAX_PDU_LEN + READ_CHUNK);
            assert_eq!(rx.buf.capacity(), capacity);
        }
    }

    #[test]
    fn tcp_mid_pdu_close_is_protocol_error() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let writer = thread::spawn(move || {
            let mut s = TcpStream::connect(addr).unwrap();
            let bytes = Pdu::CacheReset.to_bytes();
            s.write_all(&bytes[..4]).unwrap(); // half a header
        });
        let (stream, _) = listener.accept().unwrap();
        let mut t = TcpTransport::new(stream);
        assert!(matches!(t.recv(), Err(TransportError::Protocol(_))));
        writer.join().unwrap();
    }
}
