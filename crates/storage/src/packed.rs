//! Block codecs for the compressed (v3) snapshot columns.
//!
//! Three encodings, all designed so that a *mapped* snapshot can be
//! scanned directly — decode happens per fixed-width block into a
//! stack buffer inside the scan kernels, never per element:
//!
//! * **FOR planes** ([`encode_plane`] / [`PlaneRef`]): a `u32` sequence
//!   split into fixed [`BLOCK`]-value blocks; each block stores its
//!   minimum (frame of reference) plus the per-value deltas at the
//!   narrowest byte width `w ∈ {0, 1, 2, 3, 4}` that fits the block's
//!   range (`w = 0` is a constant block). Block index is `i >> 10` —
//!   O(1) random access with no block directory search.
//! * **label planes** ([`encode_label_planes`] / [`LabelPlanesRef`]):
//!   a `DLabel` column as three concatenated FOR planes — `start`,
//!   `end − start` (the *extent*, which is small for most nodes where
//!   the raw `end` is not), and `level`.
//! * **bit-packed plane** ([`encode_bitpacked`] / [`BitpackRef`]): the
//!   tag column at `ceil(log2(max + 1))` bits per value, read through
//!   unaligned little-endian `u64` windows (the payload carries 8
//!   slack bytes so the window read at the last value stays in
//!   bounds).
//!
//! All readers are **byte-wise and endian-portable**: block metadata is
//! decoded with explicit little-endian byte reads (once per block, not
//! per value), so the same code serves the mapped hot path and the
//! portable [`crate::snapshot::decode`] path, and nothing in a plane
//! needs alignment beyond the 8-byte padding the writer emits.
//!
//! # Validation model
//!
//! [`PlaneRef::parse`] / [`BitpackRef::parse`] check plane *structure*
//! at open time: value counts match the snapshot header, widths are
//! sane, and every block's payload extent is in bounds — after which
//! no later read can leave the section, so the scan kernels contain no
//! per-element bounds branches. Payload *content* is not semantically
//! validated on the mapped path (exactly like the raw v2 permutation
//! columns); the snapshot footer checksum covers it on the verifying
//! paths, and decoders use wrapping arithmetic so corrupt content can
//! mis-answer but never panic.

use crate::relation::Col;
use std::ops::Range;

/// Values per FOR block. Fixed (the last block of a plane is ragged),
/// so position `i` lives in block `i >> 10` at in-block offset
/// `i & (BLOCK - 1)` — no directory lookup on random access.
pub const BLOCK: usize = 1024;

/// Structural-validation error for packed planes: a static description
/// of what was malformed (mapped to `SnapshotError::Corrupt`).
pub type PlaneError = &'static str;

#[inline]
fn round8(n: usize) -> usize {
    n.div_ceil(8) * 8
}

#[inline]
fn read_u32_le(bytes: &[u8], at: usize) -> u32 {
    u32::from_le_bytes([bytes[at], bytes[at + 1], bytes[at + 2], bytes[at + 3]])
}

/// Narrowest delta width (bytes) covering `range`.
#[inline]
fn width_for(range: u32) -> u8 {
    match range {
        0 => 0,
        1..=0xff => 1,
        0x100..=0xffff => 2,
        0x1_0000..=0xff_ffff => 3,
        _ => 4,
    }
}

/// Append one FOR plane for `values` to `out`, returning the encoded
/// length (a multiple of 8, so planes concatenate 8-aligned).
///
/// Wire layout, relative to the plane start:
///
/// ```text
/// [n: u32][payload_len: u32]
/// [mins:   u32 × nb]                 nb = ceil(n / BLOCK)
/// [offs:   u32 × nb]                 byte offset of block b's deltas
/// [widths: u8  × nb]  (padded to 8)  w(b) ∈ {0, 1, 2, 3, 4}
/// [payload: payload_len bytes]  (padded to 8)
/// ```
pub fn encode_plane(values: &[u32], out: &mut Vec<u8>) -> usize {
    let n = values.len();
    let nb = n.div_ceil(BLOCK);
    let mut mins = Vec::with_capacity(nb);
    let mut offs = Vec::with_capacity(nb);
    let mut widths = Vec::with_capacity(nb);
    let mut payload: Vec<u8> = Vec::new();
    for b in 0..nb {
        let blk = &values[b * BLOCK..n.min((b + 1) * BLOCK)];
        let min = blk.iter().copied().min().unwrap_or(0);
        let max = blk.iter().copied().max().unwrap_or(0);
        let w = width_for(max - min);
        mins.push(min);
        offs.push(payload.len() as u32);
        widths.push(w);
        for &v in blk {
            let d = v - min;
            payload.extend_from_slice(&d.to_le_bytes()[..w as usize]);
        }
    }
    let base = out.len();
    out.extend_from_slice(&(n as u32).to_le_bytes());
    out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    for m in &mins {
        out.extend_from_slice(&m.to_le_bytes());
    }
    for o in &offs {
        out.extend_from_slice(&o.to_le_bytes());
    }
    out.extend_from_slice(&widths);
    out.resize(base + 8 + 8 * nb + round8(nb), 0);
    out.extend_from_slice(&payload);
    out.resize(base + 8 + 8 * nb + round8(nb) + round8(payload.len()), 0);
    out.len() - base
}

/// A parsed, structurally-validated view of one FOR plane.
#[derive(Clone, Copy, Debug)]
pub struct PlaneRef<'a> {
    n: usize,
    /// `u32 × nb`, little-endian bytes.
    mins: &'a [u8],
    /// `u32 × nb`, little-endian bytes.
    offs: &'a [u8],
    /// `u8 × nb`.
    widths: &'a [u8],
    payload: &'a [u8],
}

impl<'a> PlaneRef<'a> {
    /// Parse a plane at the start of `bytes`, validating its structure
    /// against the caller's expected value count. Returns the view and
    /// the number of bytes consumed (so planes can be concatenated).
    pub fn parse(bytes: &'a [u8], expect_n: usize) -> Result<(Self, usize), PlaneError> {
        if bytes.len() < 8 {
            return Err("plane header truncated");
        }
        let n = read_u32_le(bytes, 0) as usize;
        let payload_len = read_u32_le(bytes, 4) as usize;
        if n != expect_n {
            return Err("plane value count disagrees with snapshot header");
        }
        let nb = n.div_ceil(BLOCK);
        let total = 8 + 8 * nb + round8(nb) + round8(payload_len);
        if bytes.len() < total {
            return Err("plane body truncated");
        }
        let mins = &bytes[8..8 + 4 * nb];
        let offs = &bytes[8 + 4 * nb..8 + 8 * nb];
        let widths = &bytes[8 + 8 * nb..8 + 8 * nb + nb];
        let payload = &bytes[8 + 8 * nb + round8(nb)..8 + 8 * nb + round8(nb) + payload_len];
        let plane = PlaneRef { n, mins, offs, widths, payload };
        for (b, &width) in widths.iter().enumerate() {
            let w = width as usize;
            if w > 4 {
                return Err("plane block width out of range");
            }
            let blk_len = plane.block_len(b);
            let off = read_u32_le(offs, 4 * b) as usize;
            if off + blk_len * w > payload_len {
                return Err("plane block payload out of bounds");
            }
        }
        Ok((plane, total))
    }

    /// Number of values in the plane.
    #[inline]
    pub fn len(&self) -> usize {
        self.n
    }

    /// True when the plane holds no values.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    #[inline]
    fn block_len(&self, b: usize) -> usize {
        (self.n - b * BLOCK).min(BLOCK)
    }

    /// Block `b`'s frame of reference, payload offset and delta width.
    #[inline]
    pub(crate) fn block_meta(&self, b: usize) -> (u32, usize, usize) {
        (
            read_u32_le(self.mins, 4 * b),
            read_u32_le(self.offs, 4 * b) as usize,
            self.widths[b] as usize,
        )
    }

    /// Random access: decode the value at position `i`.
    #[inline]
    pub fn get(&self, i: usize) -> u32 {
        debug_assert!(i < self.n);
        let (min, off, w) = self.block_meta(i >> 10);
        let j = i & (BLOCK - 1);
        let at = off + j * w;
        let d = match w {
            0 => 0,
            1 => self.payload[at] as u32,
            2 => u16::from_le_bytes([self.payload[at], self.payload[at + 1]]) as u32,
            3 => u32::from_le_bytes([
                self.payload[at],
                self.payload[at + 1],
                self.payload[at + 2],
                0,
            ]),
            _ => read_u32_le(self.payload, at),
        };
        min.wrapping_add(d)
    }

    /// Decode `out.len()` consecutive values starting at absolute
    /// position `pos`; the span must not cross a block boundary (the
    /// scan kernels chunk to block boundaries, so the inner loops here
    /// are fixed-width and branch-free — autovectorization fodder).
    #[inline]
    pub fn decode_in_block(&self, pos: usize, out: &mut [u32]) {
        let len = out.len();
        if len == 0 {
            return;
        }
        debug_assert!(pos + len <= self.n);
        debug_assert!((pos & !(BLOCK - 1)) == ((pos + len - 1) & !(BLOCK - 1)));
        let (min, off, w) = self.block_meta(pos >> 10);
        let j = pos & (BLOCK - 1);
        let at = off + j * w;
        match w {
            0 => out.fill(min),
            1 => {
                let src = &self.payload[at..at + len];
                for k in 0..len {
                    out[k] = min.wrapping_add(src[k] as u32);
                }
            }
            2 => {
                let src = &self.payload[at..at + 2 * len];
                for k in 0..len {
                    let d = u16::from_le_bytes([src[2 * k], src[2 * k + 1]]) as u32;
                    out[k] = min.wrapping_add(d);
                }
            }
            3 => {
                let src = &self.payload[at..at + 3 * len];
                for k in 0..len {
                    let d = u32::from_le_bytes([src[3 * k], src[3 * k + 1], src[3 * k + 2], 0]);
                    out[k] = min.wrapping_add(d);
                }
            }
            _ => {
                let src = &self.payload[at..at + 4 * len];
                for k in 0..len {
                    let d = u32::from_le_bytes([
                        src[4 * k],
                        src[4 * k + 1],
                        src[4 * k + 2],
                        src[4 * k + 3],
                    ]);
                    out[k] = min.wrapping_add(d);
                }
            }
        }
    }

    /// Decode an arbitrary `range`, appending to `out` (chunked across
    /// block boundaries internally).
    pub fn decode_range_into(&self, range: Range<usize>, out: &mut Vec<u32>) {
        let base = out.len();
        out.resize(base + range.len(), 0);
        let mut pos = range.start;
        let mut written = base;
        while pos < range.end {
            let take = (BLOCK - (pos & (BLOCK - 1))).min(range.end - pos);
            self.decode_in_block(pos, &mut out[written..written + take]);
            pos += take;
            written += take;
        }
    }

    /// Decode the whole plane into an owned vector (the portable
    /// snapshot-decode path).
    pub fn decode_all(&self) -> Vec<u32> {
        let mut out = Vec::with_capacity(self.n);
        self.decode_range_into(0..self.n, &mut out);
        out
    }

    /// Sum the values in `range` — the range-scan bench kernel over the
    /// `start` plane; reads ~`w` bytes per element instead of 12.
    pub fn sum_range(&self, range: Range<usize>) -> u64 {
        let mut sum = 0u64;
        let mut pos = range.start;
        let mut buf = [0u32; BLOCK];
        while pos < range.end {
            let take = (BLOCK - (pos & (BLOCK - 1))).min(range.end - pos);
            let chunk = &mut buf[..take];
            self.decode_in_block(pos, chunk);
            sum += chunk.iter().map(|&v| v as u64).sum::<u64>();
            pos += take;
        }
        sum
    }
}

/// Owning form of a [`PlaneRef`] for a long-lived store column: the
/// subslices captured as `Col` parts (owned bytes, or raw parts into
/// the mapping the store keeps alive — same contract as every other
/// mapped column).
#[derive(Debug)]
pub struct PlaneCol {
    n: usize,
    mins: Col<u8>,
    offs: Col<u8>,
    widths: Col<u8>,
    payload: Col<u8>,
}

impl PlaneCol {
    /// Capture a parsed mapped plane as column parts.
    pub(crate) fn from_ref(r: PlaneRef<'_>) -> Self {
        PlaneCol {
            n: r.n,
            mins: Col::from_mapped_slice(r.mins),
            offs: Col::from_mapped_slice(r.offs),
            widths: Col::from_mapped_slice(r.widths),
            payload: Col::from_mapped_slice(r.payload),
        }
    }

    /// Borrow back the zero-copy view the codecs operate on.
    #[inline]
    pub fn as_ref(&self) -> PlaneRef<'_> {
        PlaneRef {
            n: self.n,
            mins: &self.mins,
            offs: &self.offs,
            widths: &self.widths,
            payload: &self.payload,
        }
    }

    /// Number of values.
    #[inline]
    pub fn len(&self) -> usize {
        self.n
    }

    /// True when empty.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }
}

/// Append a `DLabel` column as three concatenated FOR planes
/// (`start`, `end − start`, `level`), returning the encoded length.
pub fn encode_label_planes(
    starts: &[u32],
    extents: &[u32],
    levels: &[u32],
    out: &mut Vec<u8>,
) -> usize {
    assert_eq!(starts.len(), extents.len());
    assert_eq!(starts.len(), levels.len());
    let a = encode_plane(starts, out);
    let b = encode_plane(extents, out);
    let c = encode_plane(levels, out);
    a + b + c
}

/// Parsed view of a packed `DLabel` column: three FOR planes over the
/// same positions.
#[derive(Clone, Copy, Debug)]
pub struct LabelPlanesRef<'a> {
    /// `start` per position.
    pub starts: PlaneRef<'a>,
    /// `end − start` per position.
    pub extents: PlaneRef<'a>,
    /// `level` per position (values fit `u16`).
    pub levels: PlaneRef<'a>,
}

impl<'a> LabelPlanesRef<'a> {
    /// Parse three concatenated planes, each validated against
    /// `expect_n`. Returns the view and total bytes consumed.
    pub fn parse(bytes: &'a [u8], expect_n: usize) -> Result<(Self, usize), PlaneError> {
        let (starts, a) = PlaneRef::parse(bytes, expect_n)?;
        let (extents, b) = PlaneRef::parse(&bytes[a..], expect_n)?;
        let (levels, c) = PlaneRef::parse(&bytes[a + b..], expect_n)?;
        Ok((LabelPlanesRef { starts, extents, levels }, a + b + c))
    }

    /// Number of labels.
    #[inline]
    pub fn len(&self) -> usize {
        self.starts.len()
    }

    /// True when the column holds no labels.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.starts.is_empty()
    }
}

/// Owning form of [`LabelPlanesRef`].
#[derive(Debug)]
pub struct LabelPlanesCol {
    /// `start` plane.
    pub starts: PlaneCol,
    /// `end − start` plane.
    pub extents: PlaneCol,
    /// `level` plane.
    pub levels: PlaneCol,
}

impl LabelPlanesCol {
    /// Capture a parsed mapped label column as column parts.
    pub(crate) fn from_ref(r: LabelPlanesRef<'_>) -> Self {
        LabelPlanesCol {
            starts: PlaneCol::from_ref(r.starts),
            extents: PlaneCol::from_ref(r.extents),
            levels: PlaneCol::from_ref(r.levels),
        }
    }

    /// Borrow back the zero-copy view.
    #[inline]
    pub fn as_ref(&self) -> LabelPlanesRef<'_> {
        LabelPlanesRef {
            starts: self.starts.as_ref(),
            extents: self.extents.as_ref(),
            levels: self.levels.as_ref(),
        }
    }

    /// Number of labels.
    #[inline]
    pub fn len(&self) -> usize {
        self.starts.len()
    }

    /// True when the column holds no labels.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.starts.is_empty()
    }
}

/// Append a bit-packed plane for `values` to `out`, returning the
/// encoded length (a multiple of 8). Layout: `[n: u32][bits: u32]`
/// then `ceil(n·bits / 8)` payload bytes, rounded up to a multiple of
/// 8, **plus 8 slack bytes** so the reader's unaligned `u64` window at
/// the final value never leaves the buffer.
pub fn encode_bitpacked(values: &[u32], out: &mut Vec<u8>) -> usize {
    let n = values.len();
    let max = values.iter().copied().max().unwrap_or(0);
    let bits = 32 - max.leading_zeros().min(31); // ∈ 1..=32
    let payload_len = round8((n * bits as usize).div_ceil(8)) + 8;
    let base = out.len();
    out.extend_from_slice(&(n as u32).to_le_bytes());
    out.extend_from_slice(&bits.to_le_bytes());
    out.resize(base + 8 + payload_len, 0);
    let payload = &mut out[base + 8..];
    for (i, &v) in values.iter().enumerate() {
        let bitoff = i * bits as usize;
        let at = bitoff >> 3;
        let mut window = u64::from_le_bytes(payload[at..at + 8].try_into().unwrap());
        window |= (v as u64) << (bitoff & 7);
        payload[at..at + 8].copy_from_slice(&window.to_le_bytes());
    }
    8 + payload_len
}

/// A parsed, structurally-validated view of one bit-packed plane.
#[derive(Clone, Copy, Debug)]
pub struct BitpackRef<'a> {
    n: usize,
    bits: u32,
    payload: &'a [u8],
}

impl<'a> BitpackRef<'a> {
    /// Parse a bit-packed plane at the start of `bytes`, validating
    /// against the expected value count. Returns the view and bytes
    /// consumed.
    pub fn parse(bytes: &'a [u8], expect_n: usize) -> Result<(Self, usize), PlaneError> {
        if bytes.len() < 8 {
            return Err("bitpack header truncated");
        }
        let n = read_u32_le(bytes, 0) as usize;
        let bits = read_u32_le(bytes, 4);
        if n != expect_n {
            return Err("bitpack value count disagrees with snapshot header");
        }
        if bits == 0 || bits > 32 {
            return Err("bitpack width out of range");
        }
        let payload_len = round8((n * bits as usize).div_ceil(8)) + 8;
        if bytes.len() < 8 + payload_len {
            return Err("bitpack body truncated");
        }
        Ok((BitpackRef { n, bits, payload: &bytes[8..8 + payload_len] }, 8 + payload_len))
    }

    /// Number of values.
    #[inline]
    pub fn len(&self) -> usize {
        self.n
    }

    /// True when empty.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// Random access: the value at position `i`.
    #[inline]
    pub fn get(&self, i: usize) -> u32 {
        debug_assert!(i < self.n);
        let bitoff = i * self.bits as usize;
        let at = bitoff >> 3;
        let window = u64::from_le_bytes(self.payload[at..at + 8].try_into().unwrap());
        let mask = (1u64 << self.bits) - 1;
        ((window >> (bitoff & 7)) & mask) as u32
    }

    /// Decode `range`, appending to `out`.
    pub fn decode_range_into(&self, range: Range<usize>, out: &mut Vec<u32>) {
        debug_assert!(range.end <= self.n);
        out.reserve(range.len());
        for i in range {
            out.push(self.get(i));
        }
    }

    /// Decode the whole plane into an owned vector.
    pub fn decode_all(&self) -> Vec<u32> {
        let mut out = Vec::with_capacity(self.n);
        self.decode_range_into(0..self.n, &mut out);
        out
    }
}

/// Owning form of a [`BitpackRef`] for a long-lived store column.
#[derive(Debug)]
pub struct BitpackCol {
    n: usize,
    bits: u32,
    payload: Col<u8>,
}

impl BitpackCol {
    /// Capture a parsed mapped bit-packed plane as column parts.
    pub(crate) fn from_ref(r: BitpackRef<'_>) -> Self {
        BitpackCol { n: r.n, bits: r.bits, payload: Col::from_mapped_slice(r.payload) }
    }

    /// Borrow back the zero-copy view.
    #[inline]
    pub fn as_ref(&self) -> BitpackRef<'_> {
        BitpackRef { n: self.n, bits: self.bits, payload: &self.payload }
    }

    /// Number of values.
    #[inline]
    pub fn len(&self) -> usize {
        self.n
    }

    /// True when the plane holds no values.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip_plane(values: &[u32]) {
        let mut bytes = Vec::new();
        let len = encode_plane(values, &mut bytes);
        assert_eq!(len, bytes.len());
        assert_eq!(len % 8, 0, "planes stay 8-aligned");
        let (plane, consumed) = PlaneRef::parse(&bytes, values.len()).unwrap();
        assert_eq!(consumed, len);
        assert_eq!(plane.decode_all(), values);
        for (i, &v) in values.iter().enumerate() {
            assert_eq!(plane.get(i), v, "get({i})");
        }
        let expect: u64 = values.iter().map(|&v| v as u64).sum();
        assert_eq!(plane.sum_range(0..values.len()), expect);
    }

    #[test]
    fn plane_round_trips_across_shapes() {
        roundtrip_plane(&[]);
        roundtrip_plane(&[7]);
        roundtrip_plane(&[5; 4000]); // constant ⇒ w = 0 everywhere
        roundtrip_plane(&(0..1024u32).collect::<Vec<_>>()); // exact block
        roundtrip_plane(&(0..1025u32).collect::<Vec<_>>()); // boundary + 1
        roundtrip_plane(&(0..5000u32).map(|i| i * 3 + 100).collect::<Vec<_>>());
        roundtrip_plane(&[0, u32::MAX, 1, u32::MAX - 1]); // w = 4
        roundtrip_plane(&(0..3000u32).map(|i| i.wrapping_mul(2654435761) >> 7).collect::<Vec<_>>());
    }

    #[test]
    fn plane_widths_narrow_per_block() {
        // First block constant, second block spans a byte, third spans
        // a u16, fourth needs 3 bytes: sizes reflect per-block widths.
        let mut values = vec![9u32; BLOCK];
        values.extend((0..BLOCK as u32).map(|i| 1000 + (i & 0xff)));
        values.extend((0..BLOCK as u32).map(|i| 50_000 + i * 40));
        values.extend((0..BLOCK as u32).map(|i| i * 10_000));
        let mut bytes = Vec::new();
        encode_plane(&values, &mut bytes);
        let (plane, _) = PlaneRef::parse(&bytes, values.len()).unwrap();
        assert_eq!(plane.widths, &[0, 1, 2, 3]);
        assert_eq!(plane.decode_all(), values);
    }

    #[test]
    fn plane_partial_range_decode_matches() {
        let values: Vec<u32> = (0..4100u32).map(|i| i.wrapping_mul(2654435761) >> 6).collect();
        let mut bytes = Vec::new();
        encode_plane(&values, &mut bytes);
        let (plane, _) = PlaneRef::parse(&bytes, values.len()).unwrap();
        for range in [0..0, 0..1, 1023..1025, 100..3100, 4095..4100, 2048..2048] {
            let mut out = Vec::new();
            plane.decode_range_into(range.clone(), &mut out);
            assert_eq!(out, &values[range.clone()], "{range:?}");
            let expect: u64 = values[range.clone()].iter().map(|&v| v as u64).sum();
            assert_eq!(plane.sum_range(range.clone()), expect, "{range:?}");
        }
    }

    #[test]
    fn plane_structural_corruption_is_typed() {
        let values: Vec<u32> = (0..2000u32).collect();
        let mut bytes = Vec::new();
        encode_plane(&values, &mut bytes);
        // Too short for the header.
        assert!(PlaneRef::parse(&bytes[..4], 2000).is_err());
        // Count disagreement.
        assert!(PlaneRef::parse(&bytes, 1999).is_err());
        // Truncated body.
        assert!(PlaneRef::parse(&bytes[..bytes.len() - 9], 2000).is_err());
        // Width out of range.
        let mut bad = bytes.clone();
        bad[8 + 8 * 2] = 9; // widths[0] (nb = 2)
        assert_eq!(
            PlaneRef::parse(&bad, 2000).unwrap_err(),
            "plane block width out of range"
        );
        // Block offset pointing past the payload.
        let mut bad = bytes.clone();
        bad[8 + 4 * 2..8 + 4 * 2 + 4].copy_from_slice(&u32::MAX.to_le_bytes()); // offs[0]
        assert_eq!(
            PlaneRef::parse(&bad, 2000).unwrap_err(),
            "plane block payload out of bounds"
        );
    }

    #[test]
    fn label_planes_round_trip() {
        let n = 2500u32;
        let starts: Vec<u32> = (0..n).map(|i| i * 2).collect();
        let extents: Vec<u32> = (0..n).map(|i| (i % 7) * 3).collect();
        let levels: Vec<u32> = (0..n).map(|i| i % 12).collect();
        let mut bytes = Vec::new();
        let len = encode_label_planes(&starts, &extents, &levels, &mut bytes);
        assert_eq!(len, bytes.len());
        let (planes, consumed) = LabelPlanesRef::parse(&bytes, n as usize).unwrap();
        assert_eq!(consumed, len);
        assert_eq!(planes.len(), n as usize);
        assert_eq!(planes.starts.decode_all(), starts);
        assert_eq!(planes.extents.decode_all(), extents);
        assert_eq!(planes.levels.decode_all(), levels);
    }

    fn roundtrip_bitpack(values: &[u32]) {
        let mut bytes = Vec::new();
        let len = encode_bitpacked(values, &mut bytes);
        assert_eq!(len, bytes.len());
        assert_eq!(len % 8, 0);
        let (plane, consumed) = BitpackRef::parse(&bytes, values.len()).unwrap();
        assert_eq!(consumed, len);
        assert_eq!(plane.decode_all(), values);
        for (i, &v) in values.iter().enumerate() {
            assert_eq!(plane.get(i), v, "get({i})");
        }
    }

    #[test]
    fn bitpack_round_trips_across_widths() {
        roundtrip_bitpack(&[]);
        roundtrip_bitpack(&[0, 0, 0]); // bits = 1 floor
        roundtrip_bitpack(&[0, 1, 1, 0, 1]);
        roundtrip_bitpack(&(0..100u32).map(|i| i % 37).collect::<Vec<_>>()); // 6 bits
        roundtrip_bitpack(&(0..997u32).collect::<Vec<_>>()); // 10 bits
        roundtrip_bitpack(&[u32::MAX, 0, 123456789]); // 32 bits
    }

    #[test]
    fn bitpack_structural_corruption_is_typed() {
        let values: Vec<u32> = (0..300u32).collect();
        let mut bytes = Vec::new();
        encode_bitpacked(&values, &mut bytes);
        assert!(BitpackRef::parse(&bytes[..7], 300).is_err());
        assert!(BitpackRef::parse(&bytes, 299).is_err());
        assert!(BitpackRef::parse(&bytes[..bytes.len() - 1], 300).is_err());
        let mut bad = bytes.clone();
        bad[4..8].copy_from_slice(&33u32.to_le_bytes());
        assert_eq!(BitpackRef::parse(&bad, 300).unwrap_err(), "bitpack width out of range");
        let mut bad = bytes.clone();
        bad[4..8].copy_from_slice(&0u32.to_le_bytes());
        assert!(BitpackRef::parse(&bad, 300).is_err());
    }

    #[test]
    fn owning_columns_serve_the_same_views() {
        let values: Vec<u32> = (0..2048u32).map(|i| i * 5 + 17).collect();
        let mut bytes = Vec::new();
        encode_plane(&values, &mut bytes);
        let (plane, _) = PlaneRef::parse(&bytes, values.len()).unwrap();
        let col = PlaneCol::from_ref(plane);
        assert_eq!(col.len(), values.len());
        assert_eq!(col.as_ref().decode_all(), values);

        let tags: Vec<u32> = (0..512u32).map(|i| i % 23).collect();
        let mut tb = Vec::new();
        encode_bitpacked(&tags, &mut tb);
        let (bp, _) = BitpackRef::parse(&tb, tags.len()).unwrap();
        let bcol = BitpackCol::from_ref(bp);
        assert_eq!(bcol.len(), tags.len());
        assert_eq!(bcol.as_ref().decode_all(), tags);
    }
}
