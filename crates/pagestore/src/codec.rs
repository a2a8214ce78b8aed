//! Bounds-checked little-endian cursors for encoding and decoding page
//! layouts.
//!
//! Every on-page structure in this workspace (B+-tree nodes, block-list
//! headers, cache blocks, …) is serialized through these two cursors so that
//! layout bugs surface as [`StoreError::Corrupt`] rather than silent
//! misreads.

use crate::error::{Result, StoreError};

/// Sequential writer over a mutable byte slice.
///
/// All `put_*` methods advance an internal offset and panic-free fail with
/// [`StoreError::Corrupt`] on overflow, which keeps page-capacity arithmetic
/// honest in the callers.
pub struct PageWriter<'a> {
    buf: &'a mut [u8],
    pos: usize,
}

impl<'a> PageWriter<'a> {
    /// Creates a writer positioned at the start of `buf`.
    pub fn new(buf: &'a mut [u8]) -> Self {
        PageWriter { buf, pos: 0 }
    }

    /// Current write offset in bytes.
    pub fn position(&self) -> usize {
        self.pos
    }

    /// Bytes still available.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    fn chunk(&mut self, len: usize) -> Result<&mut [u8]> {
        if self.remaining() < len {
            return Err(StoreError::Corrupt(format!(
                "write of {len} bytes at offset {} overflows page of {} bytes",
                self.pos,
                self.buf.len()
            )));
        }
        let start = self.pos;
        self.pos += len;
        Ok(&mut self.buf[start..start + len])
    }

    /// Writes a single byte.
    pub fn put_u8(&mut self, v: u8) -> Result<()> {
        self.chunk(1)?[0] = v;
        Ok(())
    }

    /// Writes a little-endian `u16`.
    pub fn put_u16(&mut self, v: u16) -> Result<()> {
        self.chunk(2)?.copy_from_slice(&v.to_le_bytes());
        Ok(())
    }

    /// Writes a little-endian `u32`.
    pub fn put_u32(&mut self, v: u32) -> Result<()> {
        self.chunk(4)?.copy_from_slice(&v.to_le_bytes());
        Ok(())
    }

    /// Writes a little-endian `u64`.
    pub fn put_u64(&mut self, v: u64) -> Result<()> {
        self.chunk(8)?.copy_from_slice(&v.to_le_bytes());
        Ok(())
    }

    /// Writes a little-endian `i64`.
    pub fn put_i64(&mut self, v: i64) -> Result<()> {
        self.chunk(8)?.copy_from_slice(&v.to_le_bytes());
        Ok(())
    }

    /// Writes the low `width` (1–8) bytes of `v`, little-endian: the field
    /// encoding of [`crate::types::Frame`]. Byte stores, not a copy of
    /// variable length: a block is hundreds of these.
    #[inline]
    pub fn put_uint(&mut self, v: u64, width: usize) -> Result<()> {
        for (i, byte) in self.chunk(width)?.iter_mut().enumerate() {
            *byte = (v >> (8 * i)) as u8;
        }
        Ok(())
    }

    /// Writes raw bytes verbatim.
    pub fn put_bytes(&mut self, v: &[u8]) -> Result<()> {
        self.chunk(v.len())?.copy_from_slice(v);
        Ok(())
    }

    /// Skips `len` bytes, leaving them untouched (useful for reserving a
    /// header slot to be patched later via a fresh writer).
    pub fn skip(&mut self, len: usize) -> Result<()> {
        self.chunk(len)?;
        Ok(())
    }
}

/// Sequential reader over an immutable byte slice; mirror of [`PageWriter`].
pub struct PageReader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> PageReader<'a> {
    /// Creates a reader positioned at the start of `buf`.
    pub fn new(buf: &'a [u8]) -> Self {
        PageReader { buf, pos: 0 }
    }

    /// Current read offset in bytes.
    pub fn position(&self) -> usize {
        self.pos
    }

    /// Bytes still available.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    fn chunk(&mut self, len: usize) -> Result<&'a [u8]> {
        if self.remaining() < len {
            return Err(StoreError::Corrupt(format!(
                "read of {len} bytes at offset {} overruns page of {} bytes",
                self.pos,
                self.buf.len()
            )));
        }
        let start = self.pos;
        self.pos += len;
        Ok(&self.buf[start..start + len])
    }

    /// Reads a single byte (inlined into callers: the tag of every cache
    /// entry a query decodes).
    #[inline]
    pub fn get_u8(&mut self) -> Result<u8> {
        // The overrun path stays behind a call: inlining `chunk` and its
        // error into a decode loop made the loop 2.5x slower.
        if let Some(&byte) = self.buf.get(self.pos) {
            self.pos += 1;
            return Ok(byte);
        }
        Ok(self.chunk(1)?[0])
    }

    /// Reads a little-endian `u16`.
    pub fn get_u16(&mut self) -> Result<u16> {
        Ok(u16::from_le_bytes(self.chunk(2)?.try_into().unwrap()))
    }

    /// Reads a little-endian `u32`.
    pub fn get_u32(&mut self) -> Result<u32> {
        Ok(u32::from_le_bytes(self.chunk(4)?.try_into().unwrap()))
    }

    /// Reads a little-endian `u64`.
    pub fn get_u64(&mut self) -> Result<u64> {
        Ok(u64::from_le_bytes(self.chunk(8)?.try_into().unwrap()))
    }

    /// Reads a little-endian `i64`.
    pub fn get_i64(&mut self) -> Result<i64> {
        Ok(i64::from_le_bytes(self.chunk(8)?.try_into().unwrap()))
    }

    /// Reads a little-endian unsigned integer of `width` (1–8) bytes, zero-
    /// extended: the field decoding of [`crate::types::Frame`]. Where a
    /// whole word is left in the buffer it is one load and a mask; only a
    /// field in the buffer's last seven bytes is copied out.
    #[inline]
    pub fn get_uint(&mut self, width: usize) -> Result<u64> {
        debug_assert!((1..=8).contains(&width));
        if let Some(word) = self.buf.get(self.pos..self.pos + 8) {
            self.pos += width;
            let word = u64::from_le_bytes(word.try_into().expect("an 8-byte slice"));
            return Ok(word & (u64::MAX >> (64 - 8 * width)));
        }
        let mut bytes = [0u8; 8];
        bytes[..width].copy_from_slice(self.chunk(width)?);
        Ok(u64::from_le_bytes(bytes))
    }

    /// Reads a little-endian two's-complement integer of `width` (1–8)
    /// bytes, sign-extended: the signed fields of [`crate::types::Frame`].
    #[inline]
    pub fn get_int(&mut self, width: usize) -> Result<i64> {
        let unused = 64 - 8 * width as u32;
        Ok(((self.get_uint(width)? << unused) as i64) >> unused)
    }

    /// Reads `len` raw bytes.
    pub fn get_bytes(&mut self, len: usize) -> Result<&'a [u8]> {
        self.chunk(len)
    }

    /// Skips `len` bytes.
    pub fn skip(&mut self, len: usize) -> Result<()> {
        self.chunk(len)?;
        Ok(())
    }
}

/// FNV-1a 64-bit hash, used for page checksums.
///
/// Not cryptographic — it detects torn writes and stray corruption, which is
/// all the storage layer needs.
pub fn fnv1a64(data: &[u8]) -> u64 {
    const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x0000_0100_0000_01b3;
    let mut h = OFFSET;
    for &b in data {
        h ^= u64::from(b);
        h = h.wrapping_mul(PRIME);
    }
    h
}

/// The one frame-validity rule: true when a raw frame (payload + trailing
/// 8-byte [`fnv1a64`] checksum) is the backends' never-written state (all
/// zero, checksum included) or its stored checksum matches its payload.
/// The store's read path applies it to every frame it fetches (a failure
/// is `ChecksumMismatch`). A frame too short to carry a checksum is
/// invalid.
pub fn frame_is_valid(frame: &[u8]) -> bool {
    let Some(payload_len) = frame.len().checked_sub(8) else {
        return false;
    };
    let (payload, trailer) = frame.split_at(payload_len);
    let stored = u64::from_le_bytes(trailer.try_into().unwrap());
    (stored == 0 && payload.iter().all(|&b| b == 0)) || stored == fnv1a64(payload)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_all_widths() {
        let mut buf = [0u8; 64];
        let mut w = PageWriter::new(&mut buf);
        w.put_u8(0xab).unwrap();
        w.put_u16(0xbeef).unwrap();
        w.put_u32(0xdead_beef).unwrap();
        w.put_u64(0x0123_4567_89ab_cdef).unwrap();
        w.put_i64(-42).unwrap();
        w.put_bytes(b"xyz").unwrap();
        assert_eq!(w.position(), 1 + 2 + 4 + 8 + 8 + 3);
        w.put_uint(0x0102_0304_0506_0708, 3).unwrap();
        w.put_uint(-5i64 as u64, 2).unwrap();

        let mut r = PageReader::new(&buf);
        assert_eq!(r.get_u8().unwrap(), 0xab);
        assert_eq!(r.get_u16().unwrap(), 0xbeef);
        assert_eq!(r.get_u32().unwrap(), 0xdead_beef);
        assert_eq!(r.get_u64().unwrap(), 0x0123_4567_89ab_cdef);
        assert_eq!(r.get_i64().unwrap(), -42);
        assert_eq!(r.get_bytes(3).unwrap(), b"xyz");
        assert_eq!(r.get_uint(3).unwrap(), 0x06_0708);
        assert_eq!(r.get_int(2).unwrap(), -5);
    }

    #[test]
    fn uint_fields_of_every_width_round_trip_up_to_the_last_byte() {
        // 36 bytes exactly: the last fields lie in the buffer's last seven
        // bytes, where no whole word is left to load.
        let mut buf = [0xEEu8; 36];
        let mut w = PageWriter::new(&mut buf);
        let value = |width: usize| 0xF1E2_D3C4_B5A6_9788u64 >> (64 - 8 * width);
        (1..=8).for_each(|width| w.put_uint(value(width), width).unwrap());
        assert!(w.put_uint(1, 1).is_err());
        let mut r = PageReader::new(&buf);
        (1..=8).for_each(|width| assert_eq!(r.get_uint(width).unwrap(), value(width)));
        assert_eq!((r.remaining(), r.get_uint(1).is_err()), (0, true));
    }

    #[test]
    fn writer_overflow_is_an_error() {
        let mut buf = [0u8; 4];
        let mut w = PageWriter::new(&mut buf);
        w.put_u32(1).unwrap();
        assert!(w.put_u8(2).is_err());
    }

    #[test]
    fn reader_overrun_is_an_error() {
        let buf = [0u8; 2];
        let mut r = PageReader::new(&buf);
        assert!(r.get_u32().is_err());
        // failed read must not advance
        assert_eq!(r.position(), 0);
        assert_eq!(r.get_u16().unwrap(), 0);
    }

    #[test]
    fn skip_advances_both_cursors() {
        let mut buf = [0u8; 8];
        let mut w = PageWriter::new(&mut buf);
        w.skip(4).unwrap();
        w.put_u32(7).unwrap();
        let mut r = PageReader::new(&buf);
        r.skip(4).unwrap();
        assert_eq!(r.get_u32().unwrap(), 7);
    }

    #[test]
    fn fnv_is_stable_and_input_sensitive() {
        assert_eq!(fnv1a64(b""), 0xcbf2_9ce4_8422_2325);
        assert_ne!(fnv1a64(b"a"), fnv1a64(b"b"));
        assert_ne!(fnv1a64(b"ab"), fnv1a64(b"ba"));
    }

    #[test]
    fn frame_validity_rule() {
        // All-zero frame: valid (never-written contract).
        assert!(frame_is_valid(&[0u8; 32]));
        // Checksummed frame: valid, and any payload or checksum flip breaks it.
        let mut frame = vec![7u8; 32];
        let sum = fnv1a64(&frame[..24]);
        frame[24..].copy_from_slice(&sum.to_le_bytes());
        assert!(frame_is_valid(&frame));
        frame[3] ^= 0x01;
        assert!(!frame_is_valid(&frame));
        frame[3] ^= 0x01;
        frame[30] ^= 0x01;
        assert!(!frame_is_valid(&frame));
        // Zero payload with a real checksum is valid too: a written zero
        // page, not the never-written one.
        let mut zeroed = vec![0u8; 32];
        let sum = fnv1a64(&zeroed[..24]);
        zeroed[24..].copy_from_slice(&sum.to_le_bytes());
        assert!(frame_is_valid(&zeroed));
        // Too short to carry a checksum: invalid.
        assert!(!frame_is_valid(&[0u8; 7]));
        assert!(!frame_is_valid(&[]));
    }

    #[test]
    fn classify_frame_distinguishes_unwritten_from_written_and_corrupt() {
        // Unwritten means zero everywhere, checksum included: that frame
        // alone passes without a matching checksum.
        assert!(frame_is_valid(&[0u8; 32]));
        // A zero checksum does not excuse a non-zero payload ...
        let mut frame = vec![0u8; 32];
        frame[5] = 1;
        assert_ne!(fnv1a64(&frame[..24]), 0);
        assert!(!frame_is_valid(&frame));
        // ... and a zero payload under a wrong non-zero checksum is corrupt,
        // where the same payload under its real checksum is written.
        let mut zeroed = vec![0u8; 32];
        let sum = fnv1a64(&zeroed[..24]);
        zeroed[24..].copy_from_slice(&(sum ^ 1).to_le_bytes());
        assert!(!frame_is_valid(&zeroed));
        zeroed[24..].copy_from_slice(&sum.to_le_bytes());
        assert!(frame_is_valid(&zeroed));
        // Written data: valid until a payload bit flips.
        let mut written = vec![7u8; 32];
        let sum = fnv1a64(&written[..24]);
        written[24..].copy_from_slice(&sum.to_le_bytes());
        assert!(frame_is_valid(&written));
        written[3] ^= 0x01;
        assert!(!frame_is_valid(&written));
    }
}
