//! The byte cursor every decoder in the workspace reads with: DER TLVs
//! ([`der`](crate::der)), the signed-object header
//! ([`envelope`](crate::envelope)) and the RPKI-to-Router frames of the
//! `rpki-rtr` crate.
//!
//! # Cursor invariants
//!
//! [`ReadCursor`] and [`WriteCursor`] are plain positions over borrowed
//! buffers, in the style of IronRDP's `ireadcursor`/`writecursor`:
//!
//! * every `read_*`/`write_*` advances by exactly the accessor's size;
//! * accessors do **not** bounds-check individually — a caller checks a
//!   whole fixed part once against [`ReadCursor::remaining`] (the wire
//!   layer's `ensure_size!`, the DER reader's one check per TLV part),
//!   then reads it with no further checks (checked slice indexing still
//!   makes an unguarded overrun a panic, never unsoundness, and the
//!   decoder mutation harness proves no decoder reaches one);
//! * decoding never reads past the bytes it was handed, and encoding
//!   never writes past the destination slice handed to the cursor.

/// A read position over a borrowed buffer. See the module docs for the
/// cursor invariants.
#[derive(Debug, Clone, Copy)]
pub struct ReadCursor<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> ReadCursor<'a> {
    /// A cursor at the start of `buf`.
    #[inline]
    pub fn new(buf: &'a [u8]) -> ReadCursor<'a> {
        ReadCursor { buf, pos: 0 }
    }

    /// Bytes left to read.
    #[inline]
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// `true` once the cursor has consumed the whole buffer.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.remaining() == 0
    }

    /// The current read offset from the start of the buffer.
    #[inline]
    pub fn pos(&self) -> usize {
        self.pos
    }

    /// Reads one byte.
    #[inline]
    pub fn read_u8(&mut self) -> u8 {
        let v = self.buf[self.pos];
        self.pos += 1;
        v
    }

    /// Reads a big-endian `u16`.
    #[inline]
    pub fn read_u16(&mut self) -> u16 {
        u16::from_be_bytes(self.read_array())
    }

    /// Reads a big-endian `u32`.
    #[inline]
    pub fn read_u32(&mut self) -> u32 {
        u32::from_be_bytes(self.read_array())
    }

    /// Reads a big-endian `u64`.
    #[inline]
    pub fn read_u64(&mut self) -> u64 {
        u64::from_be_bytes(self.read_array())
    }

    /// Borrows the next `n` bytes without copying.
    #[inline]
    pub fn read_slice(&mut self, n: usize) -> &'a [u8] {
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        s
    }

    /// Reads the next `N` bytes as an array.
    #[inline]
    pub fn read_array<const N: usize>(&mut self) -> [u8; N] {
        let mut a = [0u8; N];
        a.copy_from_slice(self.read_slice(N));
        a
    }
}

/// A write position over a borrowed mutable buffer. See the module docs
/// for the cursor invariants.
#[derive(Debug)]
pub struct WriteCursor<'a> {
    buf: &'a mut [u8],
    pos: usize,
}

impl<'a> WriteCursor<'a> {
    /// A cursor at the start of `buf`.
    #[inline]
    pub fn new(buf: &'a mut [u8]) -> WriteCursor<'a> {
        WriteCursor { buf, pos: 0 }
    }

    /// The current write offset from the start of the buffer.
    #[inline]
    pub fn pos(&self) -> usize {
        self.pos
    }

    /// Writes one byte.
    #[inline]
    pub fn write_u8(&mut self, v: u8) {
        self.buf[self.pos] = v;
        self.pos += 1;
    }

    /// Writes a big-endian `u16`.
    #[inline]
    pub fn write_u16(&mut self, v: u16) {
        self.write_slice(&v.to_be_bytes());
    }

    /// Writes a big-endian `u32`.
    #[inline]
    pub fn write_u32(&mut self, v: u32) {
        self.write_slice(&v.to_be_bytes());
    }

    /// Writes a big-endian `u128`.
    #[inline]
    pub fn write_u128(&mut self, v: u128) {
        self.write_slice(&v.to_be_bytes());
    }

    /// Writes a slice.
    #[inline]
    pub fn write_slice(&mut self, s: &[u8]) {
        self.buf[self.pos..self.pos + s.len()].copy_from_slice(s);
        self.pos += s.len();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cursors_read_and_write_symmetrically() {
        let mut buf = [0u8; 27];
        let mut w = WriteCursor::new(&mut buf);
        w.write_u8(7);
        w.write_u16(0xBEEF);
        w.write_u32(0xDEAD_BEEF);
        w.write_u128(0x0102_0304_0506_0708_090A_0B0C_0D0E_0F10);
        w.write_slice(&[1, 2, 3, 4]);
        assert_eq!(w.pos(), 27);

        let mut r = ReadCursor::new(&buf);
        assert_eq!(r.read_u8(), 7);
        assert_eq!(r.read_u16(), 0xBEEF);
        assert_eq!(r.read_u32(), 0xDEAD_BEEF);
        assert_eq!(
            u128::from_be_bytes(r.read_array()),
            0x0102_0304_0506_0708_090A_0B0C_0D0E_0F10
        );
        assert_eq!(r.read_slice(4), &[1, 2, 3, 4]);
        assert!(r.is_empty());
        assert_eq!(r.pos(), 27);
    }
}
