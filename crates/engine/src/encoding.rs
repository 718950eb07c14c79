//! Column encodings used by the flush pipeline (paper §VI-D2: flushing
//! includes "sorting, encoding, and I/O").
//!
//! * [`ts2diff`] — IoTDB's TS_2DIFF: delta-of-delta with per-block
//!   min-delta extraction and bit packing, for timestamps and integer
//!   values;
//! * [`gorilla`] — Facebook Gorilla XOR compression for floats;
//! * [`varint`] — zigzag + LEB128 varints, the substrate for headers and
//!   TS_2DIFF block metadata;
//! * [`bitio`] — bit-granular reader/writer shared by the above.

/// Zigzag + LEB128 variable-length integers.
pub mod varint {
    /// Maps signed to unsigned so small magnitudes stay small.
    pub fn zigzag(v: i64) -> u64 {
        ((v << 1) ^ (v >> 63)) as u64
    }

    /// Inverse of [`zigzag`].
    pub fn unzigzag(v: u64) -> i64 {
        ((v >> 1) as i64) ^ -((v & 1) as i64)
    }

    /// Appends a LEB128 varint.
    pub fn write_u64(out: &mut Vec<u8>, mut v: u64) {
        loop {
            let byte = (v & 0x7F) as u8;
            v >>= 7;
            if v == 0 {
                out.push(byte);
                return;
            }
            out.push(byte | 0x80);
        }
    }

    /// Reads a LEB128 varint, advancing `pos`. Returns `None` on
    /// truncated or overlong input.
    pub fn read_u64(buf: &[u8], pos: &mut usize) -> Option<u64> {
        let mut v = 0u64;
        let mut shift = 0u32;
        loop {
            let byte = *buf.get(*pos)?;
            *pos += 1;
            if shift == 63 && byte > 1 {
                return None; // overflow
            }
            v |= u64::from(byte & 0x7F) << shift;
            if byte & 0x80 == 0 {
                return Some(v);
            }
            shift += 7;
            if shift > 63 {
                return None;
            }
        }
    }

    /// Appends a zigzagged signed varint.
    pub fn write_i64(out: &mut Vec<u8>, v: i64) {
        write_u64(out, zigzag(v));
    }

    /// Reads a zigzagged signed varint.
    pub fn read_i64(buf: &[u8], pos: &mut usize) -> Option<i64> {
        read_u64(buf, pos).map(unzigzag)
    }
}

/// Bit-granular I/O.
pub mod bitio {
    /// MSB-first bit writer.
    #[derive(Debug, Default)]
    pub struct BitWriter {
        bytes: Vec<u8>,
        /// Bits already used in the last byte (0..8).
        used: u8,
    }

    impl BitWriter {
        /// New empty writer.
        pub fn new() -> Self {
            Self::default()
        }

        /// Writes the low `bits` bits of `v`, MSB first.
        pub fn write_bits(&mut self, v: u64, bits: u8) {
            debug_assert!(bits <= 64);
            let mut remaining = bits;
            while remaining > 0 {
                let free = 8 - self.used;
                let take = free.min(remaining);
                let shift = remaining - take;
                let chunk = ((v >> shift) & ((1u64 << take) - 1)) as u8;
                if self.used == 0 {
                    self.bytes.push(chunk << (free - take));
                } else if let Some(last) = self.bytes.last_mut() {
                    *last |= chunk << (free - take);
                }
                self.used = (self.used + take) % 8;
                remaining -= take;
            }
        }

        /// Writes a single bit.
        pub fn write_bit(&mut self, bit: bool) {
            self.write_bits(bit as u64, 1);
        }

        /// Pads to a byte boundary and returns the buffer.
        pub fn finish(self) -> Vec<u8> {
            self.bytes
        }

        /// Bits written so far.
        pub fn bit_len(&self) -> usize {
            if self.used == 0 {
                self.bytes.len() * 8
            } else {
                (self.bytes.len() - 1) * 8 + self.used as usize
            }
        }
    }

    /// MSB-first bit reader.
    #[derive(Debug)]
    pub struct BitReader<'a> {
        bytes: &'a [u8],
        pos_bits: usize,
    }

    impl<'a> BitReader<'a> {
        /// Wraps a byte buffer.
        pub fn new(bytes: &'a [u8]) -> Self {
            Self { bytes, pos_bits: 0 }
        }

        /// Reads `bits` (at most 64) bits MSB-first; `None` when
        /// exhausted.
        ///
        /// The field is cut out of one gathered big-endian word — the
        /// eight bytes from the current byte on — with a shift and a
        /// mask; a field that starts late in its byte and runs past
        /// those eight takes its last few bits from the ninth.
        #[inline]
        pub fn read_bits(&mut self, bits: u8) -> Option<u64> {
            debug_assert!(bits <= 64);
            let bits = usize::from(bits);
            let end = self.pos_bits.checked_add(bits)?;
            if bits > 64 || end > self.bytes.len() * 8 {
                return None;
            }
            if bits == 0 {
                return Some(0);
            }
            let tail = self.bytes.get(self.pos_bits / 8..)?;
            let off = self.pos_bits % 8;
            let word = match tail.first_chunk::<8>() {
                Some(head) => u64::from_be_bytes(*head),
                None => {
                    let mut head = [0u8; 8];
                    head.get_mut(..tail.len())?.copy_from_slice(tail);
                    u64::from_be_bytes(head)
                }
            };
            let mut v = (word << off) >> (64 - bits);
            let spill = (off + bits).saturating_sub(64);
            if spill > 0 {
                v |= u64::from(*tail.get(8)? >> (8 - spill));
            }
            self.pos_bits = end;
            Some(v)
        }

        /// Reads one bit.
        #[inline]
        pub fn read_bit(&mut self) -> Option<bool> {
            self.read_bits(1).map(|b| b == 1)
        }

        /// The per-bit loop [`read_bits`](Self::read_bits) replaced,
        /// kept as the reference its differential test compares against.
        #[cfg(test)]
        pub(crate) fn read_bits_reference(&mut self, bits: u8) -> Option<u64> {
            if self.pos_bits + bits as usize > self.bytes.len() * 8 {
                return None;
            }
            let mut v = 0u64;
            for _ in 0..bits {
                let byte = self.bytes[self.pos_bits / 8];
                let bit = (byte >> (7 - (self.pos_bits % 8))) & 1;
                v = (v << 1) | u64::from(bit);
                self.pos_bits += 1;
            }
            Some(v)
        }
    }
}

/// TS_2DIFF delta-of-delta encoding with per-block bit packing, as IoTDB
/// applies to timestamps and integer columns.
pub mod ts2diff {
    use super::varint;

    /// Values per packed block (IoTDB's default is 128).
    const BLOCK: usize = 128;

    /// Encodes a (typically sorted) `i64` column.
    ///
    /// Layout: varint count, varint first value, then per block of
    /// second-order deltas: varint min-delta, bit width byte, packed
    /// offsets.
    pub fn encode(values: &[i64]) -> Vec<u8> {
        let mut out = Vec::with_capacity(values.len());
        varint::write_u64(&mut out, values.len() as u64);
        let Some((&head, rest)) = values.split_first() else {
            return out;
        };
        varint::write_i64(&mut out, head);
        if rest.is_empty() {
            return out;
        }
        // First-order deltas; their own deltas get packed.
        let deltas: Vec<i64> = values
            .iter()
            .zip(rest)
            .map(|(a, b)| b.wrapping_sub(*a))
            .collect();
        for block in deltas.chunks(BLOCK) {
            let Some(&min) = block.iter().min() else {
                continue;
            };
            varint::write_i64(&mut out, min);
            let offsets: Vec<u64> = block
                .iter()
                .map(|&d| (d.wrapping_sub(min)) as u64)
                .collect();
            let max = offsets.iter().copied().max().unwrap_or(0);
            let width = if max == 0 {
                0
            } else {
                64 - max.leading_zeros() as u8
            };
            out.push(width);
            varint::write_u64(&mut out, block.len() as u64);
            let mut bw = super::bitio::BitWriter::new();
            if width > 0 {
                for &o in &offsets {
                    bw.write_bits(o, width);
                }
            }
            let packed = bw.finish();
            varint::write_u64(&mut out, packed.len() as u64);
            out.extend_from_slice(&packed);
        }
        out
    }

    /// Decodes a TS_2DIFF column that must hold exactly `count` values.
    /// `None` on malformed input.
    ///
    /// The stream's own count is checked against `count` before any
    /// value is produced, and a block longer than the encoder writes is
    /// refused, so a forged count or a width-0 block with a forged length
    /// cannot make a few bytes emit more values than the caller expects.
    pub fn decode(buf: &[u8], count: usize) -> Option<Vec<i64>> {
        let mut pos = 0usize;
        if varint::read_u64(buf, &mut pos)? != count as u64 {
            return None;
        }
        if count == 0 {
            return Some(Vec::new());
        }
        let first = varint::read_i64(buf, &mut pos)?;
        // A corrupt count could demand an absurd allocation; cap the
        // reservation, the Vec grows naturally if the data really is
        // that long.
        let mut values = Vec::with_capacity(count.min(1 << 20));
        values.push(first);
        while values.len() < count {
            let min = varint::read_i64(buf, &mut pos)?;
            let width = *buf.get(pos)?;
            if width > 64 {
                return None;
            }
            pos += 1;
            let block_len = varint::read_u64(buf, &mut pos)? as usize;
            let packed_len = varint::read_u64(buf, &mut pos)? as usize;
            let packed = buf.get(pos..pos.checked_add(packed_len)?)?;
            pos += packed_len;
            if block_len == 0 || block_len > BLOCK {
                // A zero-length block cannot make progress toward
                // `count` (reject rather than loop forever), and the
                // encoder never writes a longer one.
                return None;
            }
            let mut br = super::bitio::BitReader::new(packed);
            for _ in 0..block_len {
                let offset = if width == 0 { 0 } else { br.read_bits(width)? };
                let delta = min.wrapping_add(offset as i64);
                let prev = *values.last()?;
                values.push(prev.wrapping_add(delta));
                if values.len() == count {
                    break;
                }
            }
        }
        Some(values)
    }
}

/// Gorilla XOR compression for floating-point columns.
pub mod gorilla {
    use super::bitio::{BitReader, BitWriter};
    use super::varint;

    /// Encodes an `f64` column with the classic Gorilla scheme: XOR with
    /// the previous value; identical → 1 bit, same leading/trailing-zero
    /// window → control bits + meaningful bits, else full window
    /// descriptor.
    pub fn encode_f64(values: &[f64]) -> Vec<u8> {
        let mut out = Vec::new();
        varint::write_u64(&mut out, values.len() as u64);
        let Some((&head, rest)) = values.split_first() else {
            return out;
        };
        let mut bw = BitWriter::new();
        let mut prev = head.to_bits();
        bw.write_bits(prev, 64);
        let mut prev_leading = 65u8; // invalid -> force new window
        let mut prev_trailing = 0u8;
        for &v in rest {
            let bits = v.to_bits();
            let xor = bits ^ prev;
            if xor == 0 {
                bw.write_bit(false);
            } else {
                bw.write_bit(true);
                let leading = (xor.leading_zeros() as u8).min(31);
                let trailing = xor.trailing_zeros() as u8;
                if prev_leading <= 64
                    && leading >= prev_leading
                    && trailing >= prev_trailing
                    && prev_leading + prev_trailing < 64
                {
                    // Reuse the previous window.
                    bw.write_bit(false);
                    let meaningful = 64 - prev_leading - prev_trailing;
                    bw.write_bits(xor >> prev_trailing, meaningful);
                } else {
                    bw.write_bit(true);
                    let meaningful = 64 - leading - trailing;
                    debug_assert!(meaningful >= 1);
                    bw.write_bits(leading as u64, 5);
                    // Store meaningful-1 in 6 bits (1..=64).
                    bw.write_bits((meaningful - 1) as u64, 6);
                    bw.write_bits(xor >> trailing, meaningful);
                    prev_leading = leading;
                    prev_trailing = trailing;
                }
            }
            prev = bits;
        }
        let payload = bw.finish();
        varint::write_u64(&mut out, payload.len() as u64);
        out.extend_from_slice(&payload);
        out
    }

    /// Decodes [`encode_f64`] output that must hold exactly `count`
    /// values (checked before any value is produced).
    pub fn decode_f64(buf: &[u8], count: usize) -> Option<Vec<f64>> {
        let mut pos = 0usize;
        if varint::read_u64(buf, &mut pos)? != count as u64 {
            return None;
        }
        if count == 0 {
            return Some(Vec::new());
        }
        let payload_len = varint::read_u64(buf, &mut pos)? as usize;
        let payload = buf.get(pos..pos.checked_add(payload_len)?)?;
        let mut br = BitReader::new(payload);
        let mut values = Vec::with_capacity(count.min(1 << 20));
        let mut prev = br.read_bits(64)?;
        values.push(f64::from_bits(prev));
        let mut leading = 0u8;
        let mut trailing = 0u8;
        while values.len() < count {
            if !br.read_bit()? {
                values.push(f64::from_bits(prev));
                continue;
            }
            if br.read_bit()? {
                leading = br.read_bits(5)? as u8;
                let meaningful = br.read_bits(6)? as u8 + 1;
                // Corrupt streams can claim windows wider than a word.
                trailing = 64u8.checked_sub(leading)?.checked_sub(meaningful)?;
                let m = br.read_bits(meaningful)?;
                prev ^= m << trailing;
            } else {
                let meaningful = 64 - leading - trailing;
                if meaningful == 0 || meaningful > 64 {
                    return None;
                }
                let m = br.read_bits(meaningful)?;
                prev ^= m << trailing;
            }
            values.push(f64::from_bits(prev));
        }
        Some(values)
    }

    /// `f32` columns ride the `f64` path widened losslessly.
    pub fn encode_f32(values: &[f32]) -> Vec<u8> {
        let widened: Vec<f64> = values.iter().map(|&v| v as f64).collect();
        encode_f64(&widened)
    }

    /// Decodes [`encode_f32`] output of exactly `count` values.
    pub fn decode_f32(buf: &[u8], count: usize) -> Option<Vec<f32>> {
        decode_f64(buf, count).map(|v| v.into_iter().map(|x| x as f32).collect())
    }
}

/// Run-length encoding for integer columns — IoTDB's `RLE` choice, which
/// beats TS_2DIFF on plateaued signals (status codes, setpoints).
pub mod rle {
    use super::varint;

    /// Encodes as varint count, then `(zigzag value, varint run length)`
    /// pairs.
    pub fn encode(values: &[i64]) -> Vec<u8> {
        let mut out = Vec::new();
        varint::write_u64(&mut out, values.len() as u64);
        let mut iter = values.iter().copied();
        let Some(mut current) = iter.next() else {
            return out;
        };
        let mut run = 1u64;
        for v in iter {
            if v == current {
                run += 1;
            } else {
                varint::write_i64(&mut out, current);
                varint::write_u64(&mut out, run);
                current = v;
                run = 1;
            }
        }
        varint::write_i64(&mut out, current);
        varint::write_u64(&mut out, run);
        out
    }

    /// Inverse of [`encode`] for a column of exactly `count` values.
    /// `None` on malformed input: a stream count other than `count`
    /// (checked before any value is produced), or run lengths that
    /// disagree with it.
    pub fn decode(buf: &[u8], count: usize) -> Option<Vec<i64>> {
        let mut pos = 0usize;
        if varint::read_u64(buf, &mut pos)? != count as u64 {
            return None;
        }
        let mut out = Vec::with_capacity(count.min(1 << 20));
        while out.len() < count {
            let value = varint::read_i64(buf, &mut pos)?;
            let run = varint::read_u64(buf, &mut pos)? as usize;
            if run == 0 || run > count - out.len() {
                return None;
            }
            out.extend(std::iter::repeat_n(value, run));
        }
        Some(out)
    }
}

/// Picks the smaller of TS_2DIFF and RLE for an integer column and tags
/// the payload with one prefix byte (`0` = TS_2DIFF, `1` = RLE) — the
/// per-column encoding choice IoTDB exposes in its schema.
pub mod intcolumn {
    use super::{rle, ts2diff};

    /// Tag for TS_2DIFF payloads.
    pub const TAG_TS2DIFF: u8 = 0;
    /// Tag for RLE payloads.
    pub const TAG_RLE: u8 = 1;

    /// Encodes with whichever scheme is smaller.
    pub fn encode(values: &[i64]) -> Vec<u8> {
        let dd = ts2diff::encode(values);
        let rl = rle::encode(values);
        let (tag, payload) = if rl.len() < dd.len() {
            (TAG_RLE, rl)
        } else {
            (TAG_TS2DIFF, dd)
        };
        let mut out = Vec::with_capacity(payload.len() + 1);
        out.push(tag);
        out.extend_from_slice(&payload);
        out
    }

    /// Decodes a tagged integer column of exactly `count` values.
    pub fn decode(buf: &[u8], count: usize) -> Option<Vec<i64>> {
        match *buf.first()? {
            TAG_TS2DIFF => ts2diff::decode(&buf[1..], count),
            TAG_RLE => rle::decode(&buf[1..], count),
            _ => None,
        }
    }
}

/// Text columns: length-prefixed UTF-8, the layout IoTDB uses for
/// `TEXT` pages (dictionary encoding is an orthogonal follow-up).
pub mod textpack {
    use super::varint;

    /// Encodes a string column: varint count, then per string varint
    /// byte-length + bytes.
    pub fn encode<S: AsRef<str>>(values: &[S]) -> Vec<u8> {
        let mut out = Vec::new();
        varint::write_u64(&mut out, values.len() as u64);
        for v in values {
            let bytes = v.as_ref().as_bytes();
            varint::write_u64(&mut out, bytes.len() as u64);
            out.extend_from_slice(bytes);
        }
        out
    }

    /// Inverse of [`encode`] for exactly `count` strings. `None` on
    /// malformed input (another count, bad lengths or invalid UTF-8).
    pub fn decode(buf: &[u8], count: usize) -> Option<Vec<String>> {
        let mut pos = 0usize;
        if varint::read_u64(buf, &mut pos)? != count as u64 {
            return None;
        }
        let mut out = Vec::with_capacity(count.min(1 << 16));
        for _ in 0..count {
            let len = varint::read_u64(buf, &mut pos)? as usize;
            let bytes = buf.get(pos..pos.checked_add(len)?)?;
            pos += len;
            out.push(std::str::from_utf8(bytes).ok()?.to_string());
        }
        Some(out)
    }
}

/// Boolean columns: simple bit packing.
pub mod boolpack {
    use super::bitio::{BitReader, BitWriter};
    use super::varint;

    /// Packs booleans 8 per byte.
    pub fn encode(values: &[bool]) -> Vec<u8> {
        let mut out = Vec::new();
        varint::write_u64(&mut out, values.len() as u64);
        let mut bw = BitWriter::new();
        for &b in values {
            bw.write_bit(b);
        }
        out.extend_from_slice(&bw.finish());
        out
    }

    /// Inverse of [`encode`] for exactly `count` booleans.
    pub fn decode(buf: &[u8], count: usize) -> Option<Vec<bool>> {
        let mut pos = 0usize;
        if varint::read_u64(buf, &mut pos)? != count as u64 {
            return None;
        }
        let mut br = BitReader::new(buf.get(pos..)?);
        (0..count).map(|_| br.read_bit()).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zigzag_roundtrip_extremes() {
        for v in [0i64, 1, -1, 42, -42, i64::MAX, i64::MIN, i64::MAX - 1] {
            assert_eq!(varint::unzigzag(varint::zigzag(v)), v, "{v}");
        }
        assert_eq!(varint::zigzag(0), 0);
        assert_eq!(varint::zigzag(-1), 1);
        assert_eq!(varint::zigzag(1), 2);
    }

    #[test]
    fn varint_roundtrip() {
        let mut buf = Vec::new();
        let values = [0u64, 1, 127, 128, 300, u64::MAX, 1 << 50];
        for &v in &values {
            varint::write_u64(&mut buf, v);
        }
        let mut pos = 0;
        for &v in &values {
            assert_eq!(varint::read_u64(&buf, &mut pos), Some(v));
        }
        assert_eq!(pos, buf.len());
        assert_eq!(varint::read_u64(&buf, &mut pos), None, "exhausted");
    }

    #[test]
    fn bitio_roundtrip_mixed_widths() {
        let mut bw = bitio::BitWriter::new();
        bw.write_bits(0b101, 3);
        bw.write_bit(true);
        bw.write_bits(0xDEADBEEF, 32);
        bw.write_bits(0, 0);
        bw.write_bits(u64::MAX, 64);
        let bytes = bw.finish();
        let mut br = bitio::BitReader::new(&bytes);
        assert_eq!(br.read_bits(3), Some(0b101));
        assert_eq!(br.read_bit(), Some(true));
        assert_eq!(br.read_bits(32), Some(0xDEADBEEF));
        assert_eq!(br.read_bits(64), Some(u64::MAX));
    }

    /// The word-at-a-time `read_bits` against the per-bit loop it
    /// replaced: every width at every starting bit offset over random
    /// streams of every short length, read after read until — and
    /// including — the read that runs off the end, and one more bit
    /// after it to show a refused read consumed nothing.
    #[test]
    fn read_bits_matches_the_per_bit_reference() {
        let mut x = 0x9E37_79B9_7F4A_7C15u64;
        let mut next = move || {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x
        };
        for len in 0..=19usize {
            let bytes: Vec<u8> = (0..len).map(|_| next() as u8).collect();
            for width in 0..=64u8 {
                for offset in 0..8u8 {
                    let mut fast = bitio::BitReader::new(&bytes);
                    let mut slow = bitio::BitReader::new(&bytes);
                    assert_eq!(fast.read_bits(offset), slow.read_bits_reference(offset));
                    // A zero-width read never ends a stream; a few
                    // suffice.
                    for _ in 0..=len * 8 {
                        let (got, want) = (fast.read_bits(width), slow.read_bits_reference(width));
                        assert_eq!(got, want, "len {len} width {width} offset {offset}");
                        if want.is_none() {
                            break;
                        }
                    }
                    assert_eq!(
                        fast.read_bit(),
                        slow.read_bits_reference(1).map(|b| b == 1),
                        "after the refused read: len {len} width {width} offset {offset}"
                    );
                }
            }
        }
    }

    #[test]
    fn ts2diff_roundtrip_regular_timestamps() {
        let values: Vec<i64> = (0..1000).map(|i| 1_600_000_000_000 + i * 1000).collect();
        let encoded = ts2diff::encode(&values);
        // Regular intervals compress drastically: constant delta-of-delta.
        assert!(
            encoded.len() < values.len() * 8 / 10,
            "len {}",
            encoded.len()
        );
        assert_eq!(ts2diff::decode(&encoded, values.len()), Some(values));
    }

    #[test]
    fn ts2diff_roundtrip_irregular_and_negative() {
        let values: Vec<i64> = vec![5, -3, 1_000_000, -7, 0, i64::MAX / 2, 13];
        let encoded = ts2diff::encode(&values);
        assert_eq!(ts2diff::decode(&encoded, values.len()), Some(values));
    }

    #[test]
    fn ts2diff_empty_and_singleton() {
        assert_eq!(ts2diff::decode(&ts2diff::encode(&[]), 0), Some(vec![]));
        assert_eq!(ts2diff::decode(&ts2diff::encode(&[42]), 1), Some(vec![42]));
    }

    #[test]
    fn ts2diff_multiblock() {
        let values: Vec<i64> = (0..1000).map(|i| (i * i) % 977).collect();
        assert_eq!(
            ts2diff::decode(&ts2diff::encode(&values), values.len()),
            Some(values)
        );
    }

    #[test]
    fn ts2diff_rejects_truncation() {
        let values: Vec<i64> = (0..100).collect();
        let encoded = ts2diff::encode(&values);
        assert_eq!(ts2diff::decode(&encoded[..encoded.len() - 1], 100), None);
        assert_eq!(ts2diff::decode(&encoded, 99), None, "another count");
    }

    #[test]
    fn gorilla_roundtrip_smooth_signal() {
        let values: Vec<f64> = (0..500).map(|i| 20.0 + (i as f64 * 0.01).sin()).collect();
        let encoded = gorilla::encode_f64(&values);
        assert_eq!(gorilla::decode_f64(&encoded, values.len()), Some(values));
    }

    #[test]
    fn gorilla_roundtrip_constant_compresses_hard() {
        let values = vec![3.25f64; 10_000];
        let encoded = gorilla::encode_f64(&values);
        assert!(encoded.len() < 10_000 / 4, "len {}", encoded.len());
        assert_eq!(gorilla::decode_f64(&encoded, values.len()), Some(values));
    }

    #[test]
    fn gorilla_roundtrip_specials() {
        let values = vec![
            0.0,
            -0.0,
            f64::MIN_POSITIVE,
            f64::MAX,
            f64::MIN,
            f64::INFINITY,
            f64::NEG_INFINITY,
            1.0,
            -1.0,
        ];
        let decoded = gorilla::decode_f64(&gorilla::encode_f64(&values), values.len()).unwrap();
        for (a, b) in values.iter().zip(&decoded) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    #[test]
    fn gorilla_f32_roundtrip() {
        let values: Vec<f32> = (0..200).map(|i| i as f32 * 0.5 - 17.0).collect();
        assert_eq!(
            gorilla::decode_f32(&gorilla::encode_f32(&values), values.len()),
            Some(values)
        );
    }

    #[test]
    fn gorilla_empty_and_one() {
        assert_eq!(
            gorilla::decode_f64(&gorilla::encode_f64(&[]), 0),
            Some(vec![])
        );
        assert_eq!(
            gorilla::decode_f64(&gorilla::encode_f64(&[2.5]), 1),
            Some(vec![2.5])
        );
    }

    #[test]
    fn rle_roundtrip_and_compression() {
        let plateaus: Vec<i64> = (0..1000).map(|i| (i / 100) * 7).collect();
        let encoded = rle::encode(&plateaus);
        assert!(
            encoded.len() < 64,
            "10 runs should encode tiny, got {}",
            encoded.len()
        );
        assert_eq!(rle::decode(&encoded, plateaus.len()), Some(plateaus));
        assert_eq!(rle::decode(&rle::encode(&[]), 0), Some(vec![]));
        let mixed = vec![5i64, 5, -3, i64::MAX, i64::MAX, 0];
        assert_eq!(rle::decode(&rle::encode(&mixed), mixed.len()), Some(mixed));
    }

    #[test]
    fn rle_rejects_inconsistent_runs() {
        let mut buf = Vec::new();
        varint::write_u64(&mut buf, 3); // claim 3 values
        varint::write_i64(&mut buf, 9);
        varint::write_u64(&mut buf, 10); // run overshoots
        assert_eq!(rle::decode(&buf, 3), None);
    }

    #[test]
    fn intcolumn_picks_the_smaller_encoding() {
        // Plateaus -> RLE wins.
        let plateaus: Vec<i64> = (0..1000).map(|i| (i / 250) * 3).collect();
        let enc = intcolumn::encode(&plateaus);
        assert_eq!(enc[0], intcolumn::TAG_RLE);
        assert_eq!(intcolumn::decode(&enc, plateaus.len()), Some(plateaus));
        // A ramp -> TS_2DIFF wins.
        let ramp: Vec<i64> = (0..1000).collect();
        let enc = intcolumn::encode(&ramp);
        assert_eq!(enc[0], intcolumn::TAG_TS2DIFF);
        assert_eq!(intcolumn::decode(&enc, ramp.len()), Some(ramp));
    }

    #[test]
    fn intcolumn_decode_is_total() {
        assert_eq!(intcolumn::decode(&[], 0), None);
        assert_eq!(intcolumn::decode(&[7, 1, 2, 3], 1), None);
        let _ = intcolumn::decode(&[0, 0xFF], 1);
        let _ = intcolumn::decode(&[1, 0xFF], 1);
    }

    #[test]
    fn textpack_roundtrip() {
        let values = vec!["", "a", "hello world", "héllo ✓", "x".repeat(1000).as_str()]
            .into_iter()
            .map(String::from)
            .collect::<Vec<_>>();
        assert_eq!(
            textpack::decode(&textpack::encode(&values), values.len()),
            Some(values)
        );
        assert_eq!(
            textpack::decode(&textpack::encode::<String>(&[]), 0),
            Some(vec![])
        );
    }

    #[test]
    fn textpack_decode_is_total_on_garbage() {
        assert_eq!(textpack::decode(&[0xFF, 0xFF, 0xFF], 3), None);
        let _ = textpack::decode(b"not a column", 110);
        // invalid UTF-8 payload
        let mut buf = Vec::new();
        varint::write_u64(&mut buf, 1);
        varint::write_u64(&mut buf, 2);
        buf.extend_from_slice(&[0xC3, 0x28]);
        assert_eq!(textpack::decode(&buf, 1), None);
    }

    #[test]
    fn boolpack_roundtrip() {
        let values: Vec<bool> = (0..77).map(|i| i % 3 == 0).collect();
        assert_eq!(
            boolpack::decode(&boolpack::encode(&values), values.len()),
            Some(values)
        );
        assert_eq!(boolpack::decode(&boolpack::encode(&[]), 0), Some(vec![]));
    }
}
