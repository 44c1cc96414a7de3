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

use std::fmt;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};

use bytes::BytesMut;

use crate::pdu::{Pdu, PduError, PROTOCOL_V0, PROTOCOL_V1};
use crate::wire::{self, Negotiation, HEADER_LEN, MAX_PDU_LEN};

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
    /// Receives the next PDU, blocking until one arrives.
    fn recv(&mut self) -> Result<Pdu, TransportError>;
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
    buf: BytesMut,
    version: u8,
    negotiation: Negotiation,
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
            buf: BytesMut::with_capacity(4096),
            version,
            // Accept responses up to our own version; a frame above it is
            // the recoverable BadVersion, below it the fatal mismatch
            // once pinned.
            negotiation: Negotiation::with_max(version),
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
        let mut bytes = BytesMut::new();
        pdu.encode_versioned(self.version, &mut bytes);
        self.stream.write_all(&bytes)?;
        Ok(())
    }

    fn recv(&mut self) -> Result<Pdu, TransportError> {
        loop {
            // Fail fast on a hostile length claim: the moment the 8-byte
            // header is in, a declared frame length outside the legal
            // PDU range is a CorruptData-class protocol error — the
            // buffer must never grow toward a 4 GiB promise waiting for
            // the decoder to see the "complete" frame.
            if self.buf.len() >= HEADER_LEN {
                let declared =
                    u32::from_be_bytes(self.buf[4..8].try_into().expect("4 bytes")) as usize;
                if !(HEADER_LEN..=MAX_PDU_LEN).contains(&declared) {
                    return Err(TransportError::Protocol(PduError::BadLength {
                        type_code: self.buf[1],
                        length: declared,
                    }));
                }
            }
            // Zero-copy decode straight from the receive buffer; the
            // owned Pdu is only materialized for accepted frames.
            if let Some(frame) = wire::decode_frame(&self.buf)? {
                self.negotiation.accept(frame.version)?;
                let pdu = frame.pdu.to_owned();
                let used = frame.len;
                let _ = self.buf.split_to(used);
                return Ok(pdu);
            }
            let mut chunk = [0u8; 4096];
            let n = self.stream.read(&mut chunk)?;
            if n == 0 {
                return if self.buf.is_empty() {
                    Err(TransportError::Closed)
                } else {
                    Err(TransportError::Protocol(PduError::BadLength {
                        type_code: 0xFF,
                        length: self.buf.len(),
                    }))
                };
            }
            self.buf.extend_from_slice(&chunk[..n]);
        }
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
            t.buf.len() <= 8,
            "buffer must not grow toward the declared length (held {})",
            t.buf.len()
        );
        drop(writer.join().unwrap());
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
