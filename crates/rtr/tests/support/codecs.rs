//! `wire::decode_frame`, the RPKI-to-Router framer, as a
//! mutation-harness codec, with the length fields of a frame. Shared by
//! this crate's `tests/fuzz_props.rs` and the workspace's tier-1
//! `tests/decoders.rs`.

use rpki_rtr::pdu::Pdu;
use rpki_rtr::wire::{self, PduError, HEADER_LEN};
use testkit::{Canon, Codec, Field};

/// Why `decode_frame` did not yield a frame.
#[derive(Debug, PartialEq)]
pub enum Rejected {
    /// The buffer holds no complete frame yet.
    Incomplete,
    /// A classified rejection.
    Error(PduError),
}

/// `wire::decode_frame`: one frame off the front of a stream buffer,
/// decoded as `(version, PDU)`. The framer leaves what follows the
/// frame to the next call, so an accepted frame re-encodes to a prefix
/// of the buffer.
pub struct Frame;

impl Codec for Frame {
    type Value = (u8, Pdu);
    type Error = Rejected;
    const CANON: Canon = Canon::Prefix;

    fn decode(&self, bytes: &[u8]) -> Result<(u8, Pdu), Rejected> {
        match wire::decode_frame(bytes) {
            Ok(Some(frame)) => Ok((frame.version, frame.pdu.to_owned())),
            Ok(None) => Err(Rejected::Incomplete),
            Err(e) => Err(Rejected::Error(e)),
        }
    }

    fn encode(&self, (version, pdu): &(u8, Pdu)) -> Vec<u8> {
        let mut out = Vec::new();
        pdu.as_wire().encode_into(*version, &mut out);
        out
    }
}

/// The header's length field.
pub const HEADER_LENGTH: Field = Field { at: 4, width: 4 };

/// Every length field of a valid frame: the header's, and an Error
/// Report's embedded-PDU and text lengths.
pub fn frame_lengths(frame: &[u8]) -> Vec<Field> {
    let mut out = vec![HEADER_LENGTH];
    if frame[1] == 10 {
        let inner = u32::from_be_bytes(frame[HEADER_LEN..][..4].try_into().unwrap()) as usize;
        out.push(Field {
            at: HEADER_LEN,
            width: 4,
        });
        out.push(Field {
            at: HEADER_LEN + 4 + inner,
            width: 4,
        });
    }
    out
}
