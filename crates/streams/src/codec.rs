//! Binary columnar frame codec for cross-process links.
//!
//! ROADMAP item 1: the cross-PE transport promoted to a real wire
//! protocol. A frame is the unit the batched transport already ships
//! between PEs (a `Vec<Tuple>`); this module gives it a compact,
//! length-prefixed, versioned byte layout so it can cross a TCP socket
//! without per-value parsing:
//!
//! ```text
//! ┌─────────┬─────────┬──────────────┬──────────────────┬──────────┐
//! │ magic   │ version │ body_len u32 │ body (see below) │ crc32    │
//! │ "SPCF"  │ 1 byte  │ LE           │                  │ LE, body │
//! └─────────┴─────────┴──────────────┴──────────────────┴──────────┘
//! body:
//!   n_entries u32 · n_data u32 · n_ctrl u32 · n_punct u32
//!   tags        n_entries × u8          (0 = data, 1 = control, 2 = EOS)
//!   total_vals  u64
//!   seqs        n_data × u64 LE         (row ids)
//!   stamps      n_data × u64 LE
//!   lens        n_data × u32 LE
//!   values      total_vals × f64 LE     (one contiguous block)
//!   mask_flags  ⌈n_data/8⌉ bytes        (bit i = data tuple i is gappy)
//!   presence    ⌈total_vals/8⌉ bytes    (bit per value; 1 = observed)
//!   controls    n_ctrl × { kind u32 · sender u32 · tagged u8 · len u32 · bytes }
//! ```
//!
//! The layout is *columnar*: all values of a batch land in one contiguous
//! little-endian f64 block, so encode is a handful of bulk copies and
//! decode is a bounds check plus a bulk copy — no per-value formatting or
//! parsing anywhere (the CSV path, `TcpSink` into a TCP `LineSource`,
//! re-parses every float; this is the hot path that replaces it). Both
//! directions reuse caller-owned buffers and allocate nothing in steady
//! state (guarded by `tests/codec_alloc.rs`, the same allocator-counter
//! pattern as the serving path).
//!
//! Torn and corrupted input can never partially apply: a decode first
//! proves the full frame is present, then verifies the CRC-32 over the
//! body, and only then copies columns out. Truncation surfaces as
//! [`CodecError::Incomplete`] (read more bytes), corruption as
//! [`CodecError::Corrupt`]; neither ever panics.
//!
//! Control payloads are `Arc<dyn Any>` in memory, so the codec cannot
//! serialize them structurally; applications register per-kind byte codecs
//! via [`register_control_codec`] (the engine registers its sync/snapshot
//! payloads at distributed start-up). A payload-free signal round-trips
//! without any registration; an unregistered payload-carrying kind fails
//! the encode loudly rather than silently dropping state.

use crate::tuple::{ControlTuple, DataTuple, Punctuation, Tuple};
use parking_lot::Mutex;
use std::any::Any;
use std::collections::HashMap;
use std::sync::{Arc, OnceLock};

/// First bytes of every frame.
pub const MAGIC: [u8; 4] = *b"SPCF";
/// Wire version this build speaks. Decoders reject other versions loudly
/// (compat rule: the version byte bumps on any layout change; there is no
/// in-band negotiation — both ends of a link run the same binary).
pub const VERSION: u8 = 1;
/// Bytes before the body: magic, version, body length.
pub const HEADER_LEN: usize = 9;
/// Bytes after the body: CRC-32 (IEEE) over the body.
pub const TRAILER_LEN: usize = 4;
/// Sanity cap on a frame body. A length prefix larger than this is treated
/// as corruption, so a flipped bit in the length field can never make the
/// receiver buffer gigabytes.
pub const MAX_BODY_LEN: usize = 1 << 28;

const TAG_DATA: u8 = 0;
const TAG_CTRL: u8 = 1;
const TAG_EOS: u8 = 2;

/// Why a frame failed to encode or decode.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CodecError {
    /// Not enough bytes yet — not an error on a streaming read, just "read
    /// more and retry".
    Incomplete,
    /// The bytes can never become a valid frame (bad magic/version, bad
    /// CRC, inconsistent counts, trailing garbage). The static message
    /// names the first check that failed.
    Corrupt(&'static str),
    /// A control tuple of this kind carries a payload but no codec was
    /// registered for it (see [`register_control_codec`]).
    UnregisteredControl(u32),
}

impl std::fmt::Display for CodecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CodecError::Incomplete => write!(f, "incomplete frame"),
            CodecError::Corrupt(why) => write!(f, "corrupt frame: {why}"),
            CodecError::UnregisteredControl(k) => {
                write!(f, "no control codec registered for kind {k}")
            }
        }
    }
}

impl std::error::Error for CodecError {}

impl From<CodecError> for std::io::Error {
    fn from(e: CodecError) -> Self {
        std::io::Error::new(std::io::ErrorKind::InvalidData, e.to_string())
    }
}

// ---------------------------------------------------------------------------
// Control payload registry
// ---------------------------------------------------------------------------

/// Serializes a control payload of a known kind into `out` (appending).
/// Returns `false` when the payload is not the type this codec expects.
pub type ControlEncodeFn = fn(&(dyn Any + Send + Sync), &mut Vec<u8>) -> bool;
/// Deserializes a control payload previously produced by the matching
/// encode fn. Returns `None` on malformed bytes.
pub type ControlDecodeFn = fn(&[u8]) -> Option<Arc<dyn Any + Send + Sync>>;

fn registry() -> &'static Mutex<HashMap<u32, (ControlEncodeFn, ControlDecodeFn)>> {
    static REGISTRY: OnceLock<Mutex<HashMap<u32, (ControlEncodeFn, ControlDecodeFn)>>> =
        OnceLock::new();
    REGISTRY.get_or_init(|| Mutex::new(HashMap::new()))
}

/// Registers the byte codec for control tuples of `kind`. Idempotent:
/// re-registering a kind replaces the previous codec (processes that build
/// several engines register the same codecs once per engine).
pub fn register_control_codec(kind: u32, enc: ControlEncodeFn, dec: ControlDecodeFn) {
    registry().lock().insert(kind, (enc, dec));
}

// ---------------------------------------------------------------------------
// CRC-32 (IEEE), slice-by-8. Guarantees detection of any 1- or 2-bit
// corruption in the body, which the robustness proptests rely on. The
// bytewise table walk tops out around 0.35 GB/s and dominated the whole
// encode path (the payload itself moves by memcpy); slicing consumes
// eight bytes per step through eight shifted tables, which is what keeps
// `fig_net`'s codec-vs-CSV ratio above its 5x gate.
// ---------------------------------------------------------------------------

const CRC_TABLES: [[u32; 256]; 8] = {
    let mut tables = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 {
                0xEDB8_8320 ^ (c >> 1)
            } else {
                c >> 1
            };
            k += 1;
        }
        tables[0][i] = c;
        i += 1;
    }
    let mut t = 1;
    while t < 8 {
        let mut i = 0;
        while i < 256 {
            let prev = tables[t - 1][i];
            tables[t][i] = tables[0][(prev & 0xFF) as usize] ^ (prev >> 8);
            i += 1;
        }
        t += 1;
    }
    tables
};

/// CRC-32 (IEEE 802.3) of `bytes`.
pub fn crc32(bytes: &[u8]) -> u32 {
    let mut c = !0u32;
    let mut chunks = bytes.chunks_exact(8);
    for chunk in &mut chunks {
        let lo = u32::from_le_bytes([chunk[0], chunk[1], chunk[2], chunk[3]]) ^ c;
        let hi = u32::from_le_bytes([chunk[4], chunk[5], chunk[6], chunk[7]]);
        c = CRC_TABLES[7][(lo & 0xFF) as usize]
            ^ CRC_TABLES[6][(lo >> 8 & 0xFF) as usize]
            ^ CRC_TABLES[5][(lo >> 16 & 0xFF) as usize]
            ^ CRC_TABLES[4][(lo >> 24) as usize]
            ^ CRC_TABLES[3][(hi & 0xFF) as usize]
            ^ CRC_TABLES[2][(hi >> 8 & 0xFF) as usize]
            ^ CRC_TABLES[1][(hi >> 16 & 0xFF) as usize]
            ^ CRC_TABLES[0][(hi >> 24) as usize];
    }
    for &b in chunks.remainder() {
        c = CRC_TABLES[0][((c ^ b as u32) & 0xFF) as usize] ^ (c >> 8);
    }
    !c
}

// ---------------------------------------------------------------------------
// Bulk little-endian copies. On little-endian targets these are plain
// memcpys through a byte view — no per-value conversion; the big-endian
// fallback converts value by value so the wire format stays LE everywhere.
// ---------------------------------------------------------------------------

macro_rules! bulk_le {
    (read $read_name:ident, $ty:ty, $size:expr) => {
        /// Appends `n` values decoded from the front of `src` to `dst`.
        fn $read_name(src: &[u8], dst: &mut Vec<$ty>, n: usize) {
            debug_assert!(src.len() >= n * $size);
            let start = dst.len();
            dst.resize(start + n, Default::default());
            #[cfg(target_endian = "little")]
            {
                // SAFETY: the destination is initialized $ty storage and a
                // byte-wise overwrite of it with n*$size bytes is in
                // bounds; unaligned source bytes are fine for a byte copy.
                let out = unsafe {
                    std::slice::from_raw_parts_mut(
                        dst.as_mut_ptr().add(start) as *mut u8,
                        n * $size,
                    )
                };
                out.copy_from_slice(&src[..n * $size]);
            }
            #[cfg(not(target_endian = "little"))]
            {
                for i in 0..n {
                    let mut b = [0u8; $size];
                    b.copy_from_slice(&src[i * $size..(i + 1) * $size]);
                    dst[start + i] = <$ty>::from_le_bytes(b);
                }
            }
        }
    };
    (both $write_name:ident, $read_name:ident, $ty:ty, $size:expr) => {
        fn $write_name(out: &mut Vec<u8>, vals: &[$ty]) {
            #[cfg(target_endian = "little")]
            {
                // SAFETY: any $ty value is valid to view as bytes; the
                // slice covers exactly the values' own storage.
                let bytes = unsafe {
                    std::slice::from_raw_parts(vals.as_ptr() as *const u8, vals.len() * $size)
                };
                out.extend_from_slice(bytes);
            }
            #[cfg(not(target_endian = "little"))]
            {
                for v in vals {
                    out.extend_from_slice(&v.to_le_bytes());
                }
            }
        }
        bulk_le!(read $read_name, $ty, $size);
    };
}

bulk_le!(both write_f64s, read_f64s, f64, 8);
bulk_le!(read read_u64s, u64, 8);
bulk_le!(read read_u32s, u32, 4);

fn push_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn push_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

// ---------------------------------------------------------------------------
// Encode
// ---------------------------------------------------------------------------

/// Encodes a batch of tuples as one wire frame into `out` (cleared first).
///
/// Steady-state this allocates nothing once `out` has grown to the working
/// frame size; data values land in the body via bulk copies. Control
/// payloads go through the per-kind registry; a payload-free signal needs
/// no registration.
pub fn encode_frame(tuples: &[Tuple], out: &mut Vec<u8>) -> Result<(), CodecError> {
    out.clear();
    out.extend_from_slice(&MAGIC);
    out.push(VERSION);
    push_u32(out, 0); // body_len, patched below
    let body_start = out.len();

    let mut n_data = 0u32;
    let mut n_ctrl = 0u32;
    let mut n_punct = 0u32;
    let mut total_vals = 0u64;
    for t in tuples {
        match t {
            Tuple::Data(d) => {
                n_data += 1;
                total_vals += d.values.len() as u64;
            }
            Tuple::Control(_) => n_ctrl += 1,
            Tuple::Punct(Punctuation::EndOfStream) => n_punct += 1,
        }
    }
    push_u32(out, tuples.len() as u32);
    push_u32(out, n_data);
    push_u32(out, n_ctrl);
    push_u32(out, n_punct);
    for t in tuples {
        out.push(match t {
            Tuple::Data(_) => TAG_DATA,
            Tuple::Control(_) => TAG_CTRL,
            Tuple::Punct(_) => TAG_EOS,
        });
    }
    push_u64(out, total_vals);
    for t in tuples {
        if let Tuple::Data(d) = t {
            push_u64(out, d.seq);
        }
    }
    for t in tuples {
        if let Tuple::Data(d) = t {
            push_u64(out, d.timestamp_ns);
        }
    }
    for t in tuples {
        if let Tuple::Data(d) = t {
            push_u32(out, d.values.len() as u32);
        }
    }
    for t in tuples {
        if let Tuple::Data(d) = t {
            write_f64s(out, &d.values);
        }
    }
    // Mask-presence flags: one bit per data tuple.
    {
        let mut acc = 0u8;
        let mut nbits = 0u8;
        for t in tuples {
            if let Tuple::Data(d) = t {
                if d.mask.is_some() {
                    acc |= 1 << nbits;
                }
                nbits += 1;
                if nbits == 8 {
                    out.push(acc);
                    acc = 0;
                    nbits = 0;
                }
            }
        }
        if nbits > 0 {
            out.push(acc);
        }
    }
    // Presence bitmap: one bit per value, 1 = observed. Complete
    // observations contribute all-ones runs.
    {
        let mut acc = 0u8;
        let mut nbits = 0u8;
        for t in tuples {
            if let Tuple::Data(d) = t {
                for i in 0..d.values.len() {
                    let present = d.mask.as_ref().is_none_or(|m| m[i]);
                    if present {
                        acc |= 1 << nbits;
                    }
                    nbits += 1;
                    if nbits == 8 {
                        out.push(acc);
                        acc = 0;
                        nbits = 0;
                    }
                }
            }
        }
        if nbits > 0 {
            out.push(acc);
        }
    }
    // Control section. Payload bytes are produced straight into the frame
    // buffer; the length field is patched afterwards.
    for t in tuples {
        let Tuple::Control(c) = t else { continue };
        push_u32(out, c.kind);
        push_u32(out, c.sender);
        if c.payload_as::<()>().is_some() {
            out.push(0);
            push_u32(out, 0);
            continue;
        }
        let Some(&(enc, _)) = registry().lock().get(&c.kind) else {
            return Err(CodecError::UnregisteredControl(c.kind));
        };
        out.push(1);
        let len_at = out.len();
        push_u32(out, 0);
        if !enc(&*c.payload, out) {
            return Err(CodecError::UnregisteredControl(c.kind));
        }
        let len = (out.len() - len_at - 4) as u32;
        out[len_at..len_at + 4].copy_from_slice(&len.to_le_bytes());
    }

    let body_len = out.len() - body_start;
    if body_len > MAX_BODY_LEN {
        return Err(CodecError::Corrupt("frame body exceeds MAX_BODY_LEN"));
    }
    out[body_start - 4..body_start].copy_from_slice(&(body_len as u32).to_le_bytes());
    let crc = crc32(&out[body_start..]);
    out.extend_from_slice(&crc.to_le_bytes());
    Ok(())
}

// ---------------------------------------------------------------------------
// Decode
// ---------------------------------------------------------------------------

/// One decoded control entry: kind, sender, whether a payload is attached,
/// and the payload's byte range inside [`ColumnarFrame::ctrl_bytes`].
#[derive(Debug, Clone, Copy)]
pub struct CtrlEntry {
    /// Application discriminator.
    pub kind: u32,
    /// Originating operator id.
    pub sender: u32,
    /// True when the entry carries registry-encoded payload bytes.
    pub tagged: bool,
    /// Payload start offset in `ctrl_bytes`.
    pub start: usize,
    /// Payload length in bytes.
    pub len: usize,
}

/// A decoded frame in columnar form: reusable flat buffers the wire bytes
/// are bulk-copied into. Decoding into this struct never allocates once
/// the buffers reach working size; materializing [`Tuple`]s out of it is a
/// separate (allocating) step, exactly as expensive as producing the same
/// tuples locally.
#[derive(Debug, Default)]
pub struct ColumnarFrame {
    /// Entry tags in stream order (0 data, 1 control, 2 EOS).
    pub tags: Vec<u8>,
    /// Row ids (sequence numbers) of the data tuples, in order.
    pub seqs: Vec<u64>,
    /// Logical timestamps of the data tuples.
    pub stamps: Vec<u64>,
    /// Per-data-tuple value counts.
    pub lens: Vec<u32>,
    /// All values of the batch, one contiguous block.
    pub values: Vec<f64>,
    /// Bit i set = data tuple i is gappy (carries a mask).
    pub mask_flags: Vec<u8>,
    /// Bit per value (concatenation order); 1 = observed.
    pub presence: Vec<u8>,
    /// Control entries in stream order.
    pub ctrls: Vec<CtrlEntry>,
    /// Backing bytes for control payloads.
    pub ctrl_bytes: Vec<u8>,
}

impl ColumnarFrame {
    /// Total entries (tuples) in the decoded frame.
    pub fn n_entries(&self) -> usize {
        self.tags.len()
    }

    fn clear(&mut self) {
        self.tags.clear();
        self.seqs.clear();
        self.stamps.clear();
        self.lens.clear();
        self.values.clear();
        self.mask_flags.clear();
        self.presence.clear();
        self.ctrls.clear();
        self.ctrl_bytes.clear();
    }

    /// Rebuilds the tuples in stream order, appending to `out`. Control
    /// payloads go through the registry; an entry whose kind has no
    /// registered decoder fails the whole call (nothing partial is kept —
    /// the caller's `out` is truncated back to its entry length).
    pub fn materialize(&self, out: &mut Vec<Tuple>) -> Result<(), CodecError> {
        let restore_len = out.len();
        let mut di = 0usize; // data cursor
        let mut ci = 0usize; // control cursor
        let mut voff = 0usize; // value offset
        for &tag in &self.tags {
            match tag {
                TAG_DATA => {
                    let len = self.lens[di] as usize;
                    let values: Vec<f64> = self.values[voff..voff + len].to_vec();
                    let masked = self.mask_flags[di / 8] & (1 << (di % 8)) != 0;
                    let mask = if masked {
                        let mut m = Vec::with_capacity(len);
                        for i in 0..len {
                            let bit = voff + i;
                            m.push(self.presence[bit / 8] & (1 << (bit % 8)) != 0);
                        }
                        Some(Arc::new(m))
                    } else {
                        None
                    };
                    out.push(Tuple::Data(DataTuple {
                        seq: self.seqs[di],
                        timestamp_ns: self.stamps[di],
                        values: Arc::new(values),
                        mask,
                    }));
                    voff += len;
                    di += 1;
                }
                TAG_CTRL => {
                    let e = self.ctrls[ci];
                    ci += 1;
                    let payload: Arc<dyn Any + Send + Sync> = if !e.tagged {
                        Arc::new(())
                    } else {
                        let Some(&(_, dec)) = registry().lock().get(&e.kind) else {
                            out.truncate(restore_len);
                            return Err(CodecError::UnregisteredControl(e.kind));
                        };
                        match dec(&self.ctrl_bytes[e.start..e.start + e.len]) {
                            Some(p) => p,
                            None => {
                                out.truncate(restore_len);
                                return Err(CodecError::Corrupt("control payload rejected"));
                            }
                        }
                    };
                    out.push(Tuple::Control(ControlTuple::new(e.kind, e.sender, payload)));
                }
                _ => out.push(Tuple::Punct(Punctuation::EndOfStream)),
            }
        }
        Ok(())
    }
}

/// Inspects a frame header and returns the total frame length (header +
/// body + CRC trailer). [`CodecError::Incomplete`] when fewer than
/// [`HEADER_LEN`] bytes are available.
pub fn frame_len(buf: &[u8]) -> Result<usize, CodecError> {
    if buf.len() < HEADER_LEN {
        return Err(CodecError::Incomplete);
    }
    if buf[..4] != MAGIC {
        return Err(CodecError::Corrupt("bad magic"));
    }
    if buf[4] != VERSION {
        return Err(CodecError::Corrupt("unsupported frame version"));
    }
    let body_len = u32::from_le_bytes([buf[5], buf[6], buf[7], buf[8]]) as usize;
    if body_len > MAX_BODY_LEN {
        return Err(CodecError::Corrupt("frame body exceeds MAX_BODY_LEN"));
    }
    Ok(HEADER_LEN + body_len + TRAILER_LEN)
}

/// Cursor over a body slice with bounds-checked take operations.
struct Cursor<'a> {
    buf: &'a [u8],
    at: usize,
}

impl<'a> Cursor<'a> {
    fn take(&mut self, n: usize) -> Result<&'a [u8], CodecError> {
        let end = self
            .at
            .checked_add(n)
            .ok_or(CodecError::Corrupt("length overflow"))?;
        if end > self.buf.len() {
            return Err(CodecError::Corrupt("section extends past body"));
        }
        let s = &self.buf[self.at..end];
        self.at = end;
        Ok(s)
    }

    fn u32(&mut self) -> Result<u32, CodecError> {
        let b = self.take(4)?;
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    fn u64(&mut self) -> Result<u64, CodecError> {
        let b = self.take(8)?;
        Ok(u64::from_le_bytes(b.try_into().expect("8 bytes")))
    }
}

/// Decodes one full frame from the front of `buf` into `cols`, returning
/// the number of bytes consumed.
///
/// The CRC is verified over the whole body *before* any column is copied,
/// so a failed decode never partially applies: on any `Err`, `cols` holds
/// either its previous content (`Incomplete`, bad CRC) or cleared buffers,
/// and no tuple is ever materialized from it. Decode itself is a sequence
/// of bounds checks and bulk copies — no per-value parsing.
pub fn decode_frame(buf: &[u8], cols: &mut ColumnarFrame) -> Result<usize, CodecError> {
    let total = frame_len(buf)?;
    if buf.len() < total {
        return Err(CodecError::Incomplete);
    }
    let body = &buf[HEADER_LEN..total - TRAILER_LEN];
    let want = u32::from_le_bytes(buf[total - TRAILER_LEN..total].try_into().expect("4 bytes"));
    if crc32(body) != want {
        return Err(CodecError::Corrupt("checksum mismatch"));
    }
    decode_body(body, cols)?;
    Ok(total)
}

fn decode_body(body: &[u8], cols: &mut ColumnarFrame) -> Result<(), CodecError> {
    cols.clear();
    let mut cur = Cursor { buf: body, at: 0 };
    let n_entries = cur.u32()? as usize;
    let n_data = cur.u32()? as usize;
    let n_ctrl = cur.u32()? as usize;
    let n_punct = cur.u32()? as usize;
    if n_data
        .checked_add(n_ctrl)
        .and_then(|s| s.checked_add(n_punct))
        != Some(n_entries)
    {
        return Err(CodecError::Corrupt("entry counts disagree"));
    }
    let tags = cur.take(n_entries)?;
    let (mut td, mut tc, mut tp) = (0usize, 0usize, 0usize);
    for &t in tags {
        match t {
            TAG_DATA => td += 1,
            TAG_CTRL => tc += 1,
            TAG_EOS => tp += 1,
            _ => return Err(CodecError::Corrupt("unknown entry tag")),
        }
    }
    if (td, tc, tp) != (n_data, n_ctrl, n_punct) {
        return Err(CodecError::Corrupt("tags disagree with counts"));
    }
    cols.tags.extend_from_slice(tags);

    let total_vals = cur.u64()? as usize;
    read_u64s(cur.take(n_data * 8)?, &mut cols.seqs, n_data);
    read_u64s(cur.take(n_data * 8)?, &mut cols.stamps, n_data);
    read_u32s(cur.take(n_data * 4)?, &mut cols.lens, n_data);
    let lens_sum: u64 = cols.lens.iter().map(|&l| l as u64).sum();
    if lens_sum != total_vals as u64 {
        return Err(CodecError::Corrupt("value lengths disagree with total"));
    }
    let val_bytes = total_vals
        .checked_mul(8)
        .ok_or(CodecError::Corrupt("length overflow"))?;
    read_f64s(cur.take(val_bytes)?, &mut cols.values, total_vals);
    cols.mask_flags
        .extend_from_slice(cur.take(n_data.div_ceil(8))?);
    cols.presence
        .extend_from_slice(cur.take(total_vals.div_ceil(8))?);

    for _ in 0..n_ctrl {
        let kind = cur.u32()?;
        let sender = cur.u32()?;
        let tagged = match cur.take(1)?[0] {
            0 => false,
            1 => true,
            _ => return Err(CodecError::Corrupt("bad control payload flag")),
        };
        let len = cur.u32()? as usize;
        if !tagged && len != 0 {
            return Err(CodecError::Corrupt("unit control payload with bytes"));
        }
        let bytes = cur.take(len)?;
        let start = cols.ctrl_bytes.len();
        cols.ctrl_bytes.extend_from_slice(bytes);
        cols.ctrls.push(CtrlEntry {
            kind,
            sender,
            tagged,
            start,
            len,
        });
    }
    if cur.at != body.len() {
        return Err(CodecError::Corrupt("trailing bytes after last section"));
    }
    Ok(())
}

/// Convenience: decode one frame and materialize its tuples in one call,
/// appending to `out`. Returns bytes consumed.
pub fn decode_tuples(
    buf: &[u8],
    cols: &mut ColumnarFrame,
    out: &mut Vec<Tuple>,
) -> Result<usize, CodecError> {
    let n = decode_frame(buf, cols)?;
    cols.materialize(out)?;
    Ok(n)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn data(seq: u64, vals: Vec<f64>) -> Tuple {
        Tuple::Data(DataTuple::new(seq, vals))
    }

    fn round_trip(tuples: &[Tuple]) -> Vec<Tuple> {
        let mut buf = Vec::new();
        encode_frame(tuples, &mut buf).expect("encode");
        let mut cols = ColumnarFrame::default();
        let mut out = Vec::new();
        let n = decode_tuples(&buf, &mut cols, &mut out).expect("decode");
        assert_eq!(n, buf.len(), "whole frame consumed");
        out
    }

    #[test]
    fn empty_frame_round_trips() {
        assert!(round_trip(&[]).is_empty());
    }

    #[test]
    fn data_batch_round_trips_bit_identical() {
        let tuples: Vec<Tuple> = (0..17)
            .map(|i| {
                let mut d = DataTuple::new(i, (0..5).map(|j| (i * 5 + j) as f64 * 0.1).collect());
                d.timestamp_ns = 1_000 + i;
                Tuple::Data(d)
            })
            .collect();
        let back = round_trip(&tuples);
        assert_eq!(back.len(), 17);
        for (a, b) in tuples.iter().zip(&back) {
            let (Tuple::Data(a), Tuple::Data(b)) = (a, b) else {
                panic!("tag changed");
            };
            assert_eq!(a.seq, b.seq);
            assert_eq!(a.timestamp_ns, b.timestamp_ns);
            assert_eq!(a.values.len(), b.values.len());
            for (x, y) in a.values.iter().zip(b.values.iter()) {
                assert_eq!(x.to_bits(), y.to_bits());
            }
            assert!(b.mask.is_none());
        }
    }

    #[test]
    fn masks_and_nonfinite_values_survive() {
        let tuples = vec![
            Tuple::Data(DataTuple::masked(
                7,
                vec![1.0, f64::NAN, -0.0],
                vec![true, false, true],
            )),
            data(8, vec![f64::INFINITY, f64::MIN_POSITIVE]),
        ];
        let back = round_trip(&tuples);
        let Tuple::Data(d0) = &back[0] else { panic!() };
        assert_eq!(
            d0.mask.as_ref().unwrap().as_slice(),
            &[true, false, true],
            "gap pattern survives"
        );
        assert_eq!(d0.values[1].to_bits(), f64::NAN.to_bits());
        assert_eq!(d0.values[2].to_bits(), (-0.0f64).to_bits());
        let Tuple::Data(d1) = &back[1] else { panic!() };
        assert!(d1.mask.is_none());
        assert_eq!(d1.values[0], f64::INFINITY);
    }

    #[test]
    fn mixed_ordering_is_preserved() {
        let tuples = vec![
            data(0, vec![1.0]),
            Tuple::Control(ControlTuple::signal(9, 2)),
            data(1, vec![2.0]),
            Tuple::Punct(Punctuation::EndOfStream),
        ];
        let back = round_trip(&tuples);
        assert!(matches!(back[0], Tuple::Data(_)));
        let Tuple::Control(c) = &back[1] else {
            panic!()
        };
        assert_eq!((c.kind, c.sender), (9, 2));
        assert!(c.payload_as::<()>().is_some());
        assert!(matches!(back[2], Tuple::Data(_)));
        assert!(back[3].is_eos());
    }

    #[test]
    fn registered_control_payload_round_trips() {
        const KIND: u32 = 0x00C0_DEC0;
        fn enc(p: &(dyn Any + Send + Sync), out: &mut Vec<u8>) -> bool {
            match p.downcast_ref::<u64>() {
                Some(v) => {
                    out.extend_from_slice(&v.to_le_bytes());
                    true
                }
                None => false,
            }
        }
        fn dec(b: &[u8]) -> Option<Arc<dyn Any + Send + Sync>> {
            let v = u64::from_le_bytes(b.try_into().ok()?);
            Some(Arc::new(v))
        }
        register_control_codec(KIND, enc, dec);
        let tuples = vec![Tuple::Control(ControlTuple::new(
            KIND,
            4,
            Arc::new(0xDEAD_BEEFu64),
        ))];
        let back = round_trip(&tuples);
        let Tuple::Control(c) = &back[0] else {
            panic!()
        };
        assert_eq!(*c.payload_as::<u64>().unwrap(), 0xDEAD_BEEF);
    }

    #[test]
    fn unregistered_payload_kind_fails_encode_loudly() {
        let tuples = vec![Tuple::Control(ControlTuple::new(
            0xFFFF_FFFE,
            0,
            Arc::new(String::from("opaque")),
        ))];
        let mut buf = Vec::new();
        assert_eq!(
            encode_frame(&tuples, &mut buf),
            Err(CodecError::UnregisteredControl(0xFFFF_FFFE))
        );
    }

    #[test]
    fn truncation_yields_incomplete_and_corruption_yields_corrupt() {
        let tuples = vec![data(0, vec![1.0, 2.0, 3.0]), data(1, vec![4.0, 5.0, 6.0])];
        let mut buf = Vec::new();
        encode_frame(&tuples, &mut buf).unwrap();
        let mut cols = ColumnarFrame::default();
        for cut in 0..buf.len() {
            let err = decode_frame(&buf[..cut], &mut cols).expect_err("truncated");
            assert!(
                matches!(err, CodecError::Incomplete | CodecError::Corrupt(_)),
                "cut={cut}: {err}"
            );
        }
        // Flip one bit anywhere in body or trailer: CRC must catch it.
        for at in HEADER_LEN..buf.len() {
            let mut bad = buf.clone();
            bad[at] ^= 0x01;
            let err = decode_frame(&bad, &mut cols).expect_err("corrupt");
            assert!(matches!(err, CodecError::Corrupt(_)), "at={at}: {err}");
        }
    }

    #[test]
    fn oversized_length_prefix_is_corrupt_not_oom() {
        let mut buf = Vec::new();
        encode_frame(&[data(0, vec![1.0])], &mut buf).unwrap();
        buf[5..9].copy_from_slice(&(u32::MAX).to_le_bytes());
        let mut cols = ColumnarFrame::default();
        assert!(matches!(
            decode_frame(&buf, &mut cols),
            Err(CodecError::Corrupt(_))
        ));
    }

    #[test]
    fn back_to_back_frames_decode_with_consumed_offsets() {
        let mut stream = Vec::new();
        let mut one = Vec::new();
        encode_frame(&[data(0, vec![1.0])], &mut one).unwrap();
        stream.extend_from_slice(&one);
        encode_frame(&[data(1, vec![2.0]), data(2, vec![3.0])], &mut one).unwrap();
        stream.extend_from_slice(&one);
        let mut cols = ColumnarFrame::default();
        let mut out = Vec::new();
        let n1 = decode_tuples(&stream, &mut cols, &mut out).unwrap();
        let n2 = decode_tuples(&stream[n1..], &mut cols, &mut out).unwrap();
        assert_eq!(n1 + n2, stream.len());
        assert_eq!(out.len(), 3);
        let Tuple::Data(d) = &out[2] else { panic!() };
        assert_eq!(d.seq, 2);
    }

    #[test]
    fn crc32_matches_known_vector() {
        // IEEE CRC-32 of "123456789".
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
    }

    #[test]
    fn decode_reuses_buffers_across_frames() {
        let mut buf = Vec::new();
        let mut cols = ColumnarFrame::default();
        encode_frame(&[data(0, vec![1.0; 64])], &mut buf).unwrap();
        decode_frame(&buf, &mut cols).unwrap();
        let cap = cols.values.capacity();
        encode_frame(&[data(1, vec![2.0; 32])], &mut buf).unwrap();
        decode_frame(&buf, &mut cols).unwrap();
        assert_eq!(cols.values.len(), 32);
        assert!(cols.values.capacity() >= cap.min(32));
        assert_eq!(cols.seqs[0], 1);
    }
}
