//! The driver's cache→router byte pipe.
//!
//! The reader advances an offset over the buffer; it never shifts the
//! remaining bytes down per frame, which would make reading a response
//! quadratic in its size (a 10k-VRP response is ~10k frames).

use rpki_rtr::pdu::{Pdu, PROTOCOL_V1};
use rpki_rtr::wire::{decode_frame, PduError};

/// Bytes a server queued for one router, and how far the router has
/// read.
#[derive(Debug, Default)]
pub struct Pipe {
    buf: Vec<u8>,
    pos: usize,
}

impl Pipe {
    /// The buffer new bytes are appended to.
    pub fn buffer(&mut self) -> &mut Vec<u8> {
        &mut self.buf
    }

    /// Unread bytes.
    #[cfg(test)]
    pub fn unread(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Decodes the next complete frame and steps over it. `Ok(None)`
    /// when the unread bytes do not hold a whole frame yet.
    pub fn next_pdu(&mut self) -> Result<Option<Pdu>, PduError> {
        match decode_frame(&self.buf[self.pos..])? {
            Some(frame) => {
                self.pos += frame.len;
                Ok(Some(frame.pdu.to_owned()))
            }
            None => Ok(None),
        }
    }

    /// Decodes every complete unread frame into `out` (appending);
    /// returns how many were decoded.
    pub fn decode_all(&mut self, out: &mut Vec<Pdu>) -> Result<usize, PduError> {
        let before = out.len();
        while let Some(pdu) = self.next_pdu()? {
            out.push(pdu);
        }
        Ok(out.len() - before)
    }

    /// Frees the consumed prefix once everything was read — O(1), and
    /// the allocation is kept for the next response. A partial frame at
    /// the tail is moved to the front (at most one frame's bytes).
    pub fn reclaim(&mut self) {
        if self.pos == self.buf.len() {
            self.buf.clear();
        } else {
            self.buf.drain(..self.pos);
        }
        self.pos = 0;
    }
}

/// Encodes a router's query at protocol version 1 into `out`
/// (replacing its contents).
pub fn encode_query(query: &Pdu, out: &mut Vec<u8>) {
    out.clear();
    query.as_wire().encode_into(PROTOCOL_V1, out);
}

#[cfg(test)]
mod tests {
    use super::*;
    use rpki_roa::Vrp;
    use rpki_rtr::pdu::{Flags, Timing};

    fn stream() -> (Vec<Pdu>, Vec<u8>) {
        let mut pdus = vec![Pdu::CacheResponse { session_id: 9 }];
        for i in 0..300u32 {
            let vrp: Vrp = format!("10.{}.{}.0/24-24 => AS{}", i / 256, i % 256, 64_000 + i)
                .parse()
                .unwrap();
            pdus.push(Pdu::Prefix {
                flags: if i % 7 == 0 {
                    Flags::Withdraw
                } else {
                    Flags::Announce
                },
                vrp,
            });
        }
        let v6: Vrp = "2001:db8::/32-48 => AS65000".parse().unwrap();
        pdus.push(Pdu::Prefix {
            flags: Flags::Announce,
            vrp: v6,
        });
        pdus.push(Pdu::EndOfData {
            session_id: 9,
            serial: 41,
            timing: Timing::default(),
        });
        let mut bytes = Vec::new();
        for pdu in &pdus {
            pdu.as_wire().encode_into(PROTOCOL_V1, &mut bytes);
        }
        (pdus, bytes)
    }

    /// The offset reader must see exactly the frames `decode_frame`
    /// sees when the buffer is re-sliced by hand.
    #[test]
    fn offset_reader_agrees_with_decode_frame() {
        let (pdus, bytes) = stream();
        let mut expected = Vec::new();
        let mut at = 0;
        while let Some(frame) = decode_frame(&bytes[at..]).unwrap() {
            expected.push(frame.pdu.to_owned());
            at += frame.len;
        }
        assert_eq!(at, bytes.len());
        assert_eq!(expected, pdus);

        let mut pipe = Pipe::default();
        pipe.buffer().extend_from_slice(&bytes);
        let mut got = Vec::new();
        assert_eq!(pipe.decode_all(&mut got).unwrap(), pdus.len());
        assert_eq!(got, pdus);
        assert_eq!(pipe.unread(), 0);
        pipe.reclaim();
        assert!(pipe.buffer().is_empty());
    }

    /// Bytes arriving in arbitrary slices (mid-header, mid-body) decode
    /// to the same frames, and a partial tail survives `reclaim`.
    #[test]
    fn partial_frames_wait_for_their_remaining_bytes() {
        let (pdus, bytes) = stream();
        let mut pipe = Pipe::default();
        let mut got = Vec::new();
        for chunk in bytes.chunks(13) {
            pipe.buffer().extend_from_slice(chunk);
            pipe.decode_all(&mut got).unwrap();
            pipe.reclaim();
            assert!(pipe.unread() < 40, "only a partial frame may remain");
        }
        assert_eq!(got, pdus);
        assert_eq!(pipe.unread(), 0);
    }

    #[test]
    fn garbage_is_an_error_not_a_hang() {
        let mut pipe = Pipe::default();
        pipe.buffer().extend_from_slice(&[9u8; 16]);
        assert!(pipe.next_pdu().is_err());
    }

    #[test]
    fn query_encoding_replaces_the_buffer() {
        let mut out = vec![1, 2, 3];
        encode_query(&Pdu::ResetQuery, &mut out);
        assert_eq!(out.len(), 8);
        let frame = decode_frame(&out).unwrap().unwrap();
        assert_eq!(frame.pdu.to_owned(), Pdu::ResetQuery);
    }
}
