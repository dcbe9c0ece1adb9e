//! The CN wire codec: a small, versioned, little-endian binary format.
//!
//! Every frame starts with a `u32` length prefix (TCP only; UDP datagrams
//! are self-delimiting) followed by the payload:
//!
//! | offset | bytes | meaning                          |
//! |--------|-------|----------------------------------|
//! | 0      | 1     | wire format version (`WIRE_VERSION`) |
//! | 1      | 8     | `from` endpoint address          |
//! | 9      | 8     | `to` endpoint address            |
//! | 17     | ...   | message body (tag byte + fields) |
//!
//! The codec is deliberately hand-rolled: the build environment has no
//! crates.io access, and the message vocabulary is small and stable. A
//! message is its tag byte followed by its fields, each encoded by its
//! type's [`WireEncode`] impl; the impls for the building blocks (scalars,
//! `String`, `Option`, `Vec`, pairs, string-keyed maps) live here.
//! Decoding NEVER panics on malformed input — every failure is a typed
//! [`WireError`].

use std::cell::RefCell;
use std::collections::HashMap;
use std::fmt;
use std::sync::Arc;

use cn_cluster::{Addr, Envelope};

/// Wire format version carried in every frame.
pub const WIRE_VERSION: u8 = 2;

/// Upper bound on a frame payload; larger length prefixes are rejected
/// before any allocation.
pub const MAX_FRAME_BYTES: u32 = 64 * 1024 * 1024;

/// Why a frame could not be decoded.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WireErrorKind {
    /// Input ended before the field being read.
    Truncated,
    /// An enum tag byte had no assigned meaning.
    BadTag,
    /// A length field was implausible (negative, or past `MAX_FRAME_BYTES`).
    BadLength,
    /// A string field held invalid UTF-8.
    BadUtf8,
    /// The version byte did not match [`WIRE_VERSION`].
    VersionMismatch,
    /// The length prefix exceeded [`MAX_FRAME_BYTES`].
    FrameTooLarge,
    /// Bytes remained after a complete message was decoded.
    TrailingBytes,
}

impl WireErrorKind {
    pub fn as_str(self) -> &'static str {
        match self {
            WireErrorKind::Truncated => "truncated",
            WireErrorKind::BadTag => "bad tag",
            WireErrorKind::BadLength => "bad length",
            WireErrorKind::BadUtf8 => "bad utf-8",
            WireErrorKind::VersionMismatch => "version mismatch",
            WireErrorKind::FrameTooLarge => "frame too large",
            WireErrorKind::TrailingBytes => "trailing bytes",
        }
    }
}

/// A typed decode failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WireError {
    pub kind: WireErrorKind,
    pub detail: String,
}

impl WireError {
    pub fn new(kind: WireErrorKind, detail: impl Into<String>) -> Self {
        WireError { kind, detail: detail.into() }
    }
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "wire decode error ({}): {}", self.kind.as_str(), self.detail)
    }
}

impl std::error::Error for WireError {}

/// Append-only encoder.
#[derive(Default)]
pub struct Writer {
    buf: Vec<u8>,
}

impl Writer {
    pub fn new() -> Writer {
        Writer { buf: Vec::new() }
    }

    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    pub fn len(&self) -> usize {
        self.buf.len()
    }

    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    pub fn put_u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    pub fn put_bool(&mut self, v: bool) {
        self.buf.push(v as u8);
    }

    pub fn put_u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    pub fn put_u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    pub fn put_i64(&mut self, v: i64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    pub fn put_f64(&mut self, v: f64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    pub fn put_usize(&mut self, v: usize) {
        self.put_u32(v as u32);
    }

    pub fn put_bytes(&mut self, v: &[u8]) {
        self.put_u32(v.len() as u32);
        self.buf.extend_from_slice(v);
    }

    pub fn put_str(&mut self, v: &str) {
        self.put_bytes(v.as_bytes());
    }

    /// Drop the contents but keep the allocation (the scratch-reuse hook).
    pub fn clear(&mut self) {
        self.buf.clear();
    }

    pub fn as_slice(&self) -> &[u8] {
        &self.buf
    }

    /// Overwrite 4 bytes at `at` with `v` — for length prefixes reserved
    /// before their payload was encoded.
    pub fn patch_u32(&mut self, at: usize, v: u32) {
        self.buf[at..at + 4].copy_from_slice(&v.to_le_bytes());
    }
}

thread_local! {
    /// Per-thread encode scratch. Taken (not borrowed) for the duration of
    /// [`with_scratch`] so a re-entrant call gets a fresh buffer instead of
    /// a panic; the larger buffer wins when it is put back.
    static SCRATCH: RefCell<Vec<u8>> = const { RefCell::new(Vec::new()) };
}

/// Run `f` with this thread's reusable encode scratch buffer. The buffer
/// arrives empty but keeps its previous capacity, so steady-state encoding
/// on a send path performs no heap allocation.
pub fn with_scratch<R>(f: impl FnOnce(&mut Writer) -> R) -> R {
    SCRATCH.with(|cell| {
        let mut w = Writer { buf: cell.take() };
        w.clear();
        let out = f(&mut w);
        let buf = w.buf;
        if buf.capacity() > cell.borrow().capacity() {
            cell.replace(buf);
        }
        out
    })
}

/// The `N` bytes of `buf` from `at` on, or a typed `Truncated` error: the
/// fixed-width reads of a message go through here, so none can panic.
fn fixed<const N: usize>(buf: &[u8], at: usize) -> Result<[u8; N], WireError> {
    buf.get(at..).and_then(<[u8]>::first_chunk::<N>).copied().ok_or_else(|| {
        WireError::new(
            WireErrorKind::Truncated,
            format!("need {N} byte(s), have {}", buf.len().saturating_sub(at)),
        )
    })
}

/// Cursor-based decoder over a borrowed byte slice.
pub struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    pub fn new(buf: &'a [u8]) -> Reader<'a> {
        Reader { buf, pos: 0 }
    }

    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], WireError> {
        if self.remaining() < n {
            return Err(WireError::new(
                WireErrorKind::Truncated,
                format!("need {n} byte(s), have {}", self.remaining()),
            ));
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    fn take_fixed<const N: usize>(&mut self) -> Result<[u8; N], WireError> {
        let bytes = fixed(self.buf, self.pos)?;
        self.pos += N;
        Ok(bytes)
    }

    pub fn get_u8(&mut self) -> Result<u8, WireError> {
        Ok(self.take(1)?[0])
    }

    pub fn get_bool(&mut self) -> Result<bool, WireError> {
        match self.get_u8()? {
            0 => Ok(false),
            1 => Ok(true),
            other => Err(WireError::new(WireErrorKind::BadTag, format!("bool byte {other}"))),
        }
    }

    pub fn get_u32(&mut self) -> Result<u32, WireError> {
        self.take_fixed().map(u32::from_le_bytes)
    }

    /// The counterpart of [`Writer::put_usize`]: a plain number, not a
    /// collection length (that is [`Reader::get_len`]).
    pub fn get_usize(&mut self) -> Result<usize, WireError> {
        Ok(self.get_u32()? as usize)
    }

    pub fn get_u64(&mut self) -> Result<u64, WireError> {
        self.take_fixed().map(u64::from_le_bytes)
    }

    pub fn get_i64(&mut self) -> Result<i64, WireError> {
        self.take_fixed().map(i64::from_le_bytes)
    }

    pub fn get_f64(&mut self) -> Result<f64, WireError> {
        self.take_fixed().map(f64::from_le_bytes)
    }

    /// A collection length; bounded so a corrupt frame cannot trigger a
    /// huge allocation.
    pub fn get_len(&mut self) -> Result<usize, WireError> {
        let n = self.get_u32()?;
        if n > MAX_FRAME_BYTES {
            return Err(WireError::new(WireErrorKind::BadLength, format!("length {n}")));
        }
        // A collection of n elements needs at least n bytes of input.
        if n as usize > self.remaining() {
            return Err(WireError::new(
                WireErrorKind::BadLength,
                format!("length {n} exceeds remaining {} byte(s)", self.remaining()),
            ));
        }
        Ok(n as usize)
    }

    pub fn get_bytes(&mut self) -> Result<Vec<u8>, WireError> {
        let n = self.get_len()?;
        Ok(self.take(n)?.to_vec())
    }

    pub fn get_str(&mut self) -> Result<String, WireError> {
        let bytes = self.get_bytes()?;
        String::from_utf8(bytes).map_err(|e| WireError::new(WireErrorKind::BadUtf8, e.to_string()))
    }

    /// Decoding is complete; reject leftover bytes.
    pub fn finish(&self) -> Result<(), WireError> {
        if self.remaining() != 0 {
            return Err(WireError::new(
                WireErrorKind::TrailingBytes,
                format!("{} byte(s) after message end", self.remaining()),
            ));
        }
        Ok(())
    }
}

/// A type with a CN wire representation. Implemented for the protocol
/// message enum in `cn-core`; the fabric is generic over it.
pub trait WireEncode: Sized {
    fn encode(&self, w: &mut Writer);
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError>;
}

impl WireEncode for Addr {
    fn encode(&self, w: &mut Writer) {
        w.put_u64(self.0);
    }

    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        Ok(Addr(r.get_u64()?))
    }
}

/// Scalars go through the `Writer`/`Reader` method pair named here.
macro_rules! wire_scalar {
    ($($ty:ty: $put:ident / $get:ident),* $(,)?) => {$(
        impl WireEncode for $ty {
            fn encode(&self, w: &mut Writer) {
                w.$put(*self);
            }

            fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
                r.$get()
            }
        }
    )*};
}
wire_scalar! {
    bool: put_bool / get_bool,
    u32: put_u32 / get_u32,
    u64: put_u64 / get_u64,
    i64: put_i64 / get_i64,
    f64: put_f64 / get_f64,
    usize: put_usize / get_usize,
}

impl WireEncode for String {
    fn encode(&self, w: &mut Writer) {
        w.put_str(self);
    }

    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        r.get_str()
    }
}

impl<T: WireEncode> WireEncode for Option<T> {
    fn encode(&self, w: &mut Writer) {
        w.put_bool(self.is_some());
        if let Some(v) = self {
            v.encode(w);
        }
    }

    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        Ok(if r.get_bool()? { Some(T::decode(r)?) } else { None })
    }
}

impl<A: WireEncode, B: WireEncode> WireEncode for (A, B) {
    fn encode(&self, w: &mut Writer) {
        self.0.encode(w);
        self.1.encode(w);
    }

    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        Ok((A::decode(r)?, B::decode(r)?))
    }
}

/// A count, then the elements. (`u8` has no impl on purpose: byte strings
/// are `put_bytes`, one `memcpy`.)
impl<T: WireEncode> WireEncode for Vec<T> {
    fn encode(&self, w: &mut Writer) {
        w.put_usize(self.len());
        for v in self {
            v.encode(w);
        }
    }

    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        let n = r.get_len()?;
        let mut out = Vec::with_capacity(n);
        for _ in 0..n {
            out.push(T::decode(r)?);
        }
        Ok(out)
    }
}

/// Encoded sorted by key, so equal maps produce equal bytes regardless of
/// `HashMap` iteration order.
impl<V: WireEncode> WireEncode for HashMap<String, V> {
    fn encode(&self, w: &mut Writer) {
        let mut entries: Vec<(&String, &V)> = self.iter().collect();
        entries.sort_by(|a, b| a.0.cmp(b.0));
        w.put_usize(entries.len());
        for (key, value) in entries {
            w.put_str(key);
            value.encode(w);
        }
    }

    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        let n = r.get_len()?;
        let mut out = HashMap::with_capacity(n);
        for _ in 0..n {
            let key = r.get_str()?;
            out.insert(key, V::decode(r)?);
        }
        Ok(out)
    }
}

/// Encode a frame payload (no length prefix) into `w`: version, from, to,
/// body. Appends; callers owning a scratch buffer can pack many payloads.
pub fn encode_payload_into<M: WireEncode>(from: Addr, to: Addr, msg: &M, w: &mut Writer) {
    w.put_u8(WIRE_VERSION);
    w.put_u64(from.0);
    w.put_u64(to.0);
    msg.encode(w);
}

/// Encode a frame payload (no length prefix): version, from, to, body.
pub fn encode_payload<M: WireEncode>(env: &Envelope<M>) -> Vec<u8> {
    with_scratch(|w| {
        encode_payload_into(env.from, env.to, &env.msg, w);
        w.as_slice().to_vec()
    })
}

/// Decode a frame payload produced by [`encode_payload`]. Consumes the
/// whole buffer; trailing bytes are an error.
pub fn decode_payload<M: WireEncode>(buf: &[u8]) -> Result<Envelope<M>, WireError> {
    let mut r = Reader::new(buf);
    let version = r.get_u8()?;
    if version != WIRE_VERSION {
        return Err(WireError::new(
            WireErrorKind::VersionMismatch,
            format!("got version {version}, expected {WIRE_VERSION}"),
        ));
    }
    let from = Addr(r.get_u64()?);
    let to = Addr(r.get_u64()?);
    let msg = M::decode(&mut r)?;
    r.finish()?;
    Ok(Envelope { from, to, msg })
}

/// Encode a length-prefixed TCP frame into `w`. The length prefix is
/// reserved first and patched once the payload length is known, so the
/// frame is built in one pass with no intermediate buffer.
pub fn encode_frame_into<M: WireEncode>(from: Addr, to: Addr, msg: &M, w: &mut Writer) {
    let start = w.len();
    w.put_u32(0);
    encode_payload_into(from, to, msg, w);
    w.patch_u32(start, (w.len() - start - 4) as u32);
}

/// Encode a length-prefixed TCP frame.
pub fn encode_frame<M: WireEncode>(env: &Envelope<M>) -> Vec<u8> {
    with_scratch(|w| {
        encode_frame_into(env.from, env.to, &env.msg, w);
        w.as_slice().to_vec()
    })
}

/// Byte offset of the `to` address inside a length-prefixed frame:
/// 4 (length) + 1 (version) + 8 (`from`).
pub const FRAME_TO_OFFSET: usize = 13;

/// An encoded, length-prefixed frame behind a refcounted immutable buffer.
///
/// Cloning a `Frame` bumps a refcount; fan-out paths serialize a message
/// once and hand every recipient (and the per-peer write queues) a shared
/// view instead of re-encoding or cloning the decoded message.
#[derive(Clone)]
pub struct Frame {
    bytes: Arc<[u8]>,
}

impl Frame {
    /// Serialize one message as a frame (one allocation: the shared buffer).
    pub fn encode<M: WireEncode>(from: Addr, to: Addr, msg: &M) -> Frame {
        with_scratch(|w| {
            encode_frame_into(from, to, msg, w);
            Frame { bytes: Arc::from(w.as_slice()) }
        })
    }

    /// The full frame: length prefix + payload.
    pub fn bytes(&self) -> &[u8] {
        &self.bytes
    }

    /// The payload (what [`decode_payload`] consumes).
    pub fn payload(&self) -> &[u8] {
        &self.bytes[4..]
    }

    pub fn len(&self) -> usize {
        self.bytes.len()
    }

    pub fn is_empty(&self) -> bool {
        self.bytes.is_empty()
    }

    /// The same frame re-addressed to `to`: the bytes are copied once and
    /// the destination field patched — the message body is never re-encoded.
    pub fn for_to(&self, to: Addr) -> Frame {
        let mut v = self.bytes.to_vec();
        v[FRAME_TO_OFFSET..FRAME_TO_OFFSET + 8].copy_from_slice(&to.0.to_le_bytes());
        Frame { bytes: v.into() }
    }
}

/// Incremental splitter for a stream of length-prefixed frames.
///
/// Feed it whatever the socket produced — one frame, twenty coalesced
/// frames, or an arbitrary prefix cut mid-header — and pull complete
/// payloads out as they materialize. An oversized length prefix is a typed
/// error before any allocation; because framing is length-delimited, a bad
/// *payload* never desynchronizes the stream.
#[derive(Default)]
pub struct FrameDecoder {
    buf: Vec<u8>,
    start: usize,
}

/// Consumed prefix above which the buffer is compacted instead of growing.
const DECODER_COMPACT_BYTES: usize = 64 * 1024;

impl FrameDecoder {
    pub fn new() -> FrameDecoder {
        FrameDecoder::default()
    }

    /// Append bytes read off the wire.
    pub fn feed(&mut self, bytes: &[u8]) {
        if self.start == self.buf.len() {
            self.buf.clear();
            self.start = 0;
        } else if self.start > DECODER_COMPACT_BYTES {
            self.buf.drain(..self.start);
            self.start = 0;
        }
        self.buf.extend_from_slice(bytes);
    }

    /// The next complete frame payload, `Ok(None)` when more bytes are
    /// needed, or a typed error for an oversized length prefix.
    pub fn next_payload(&mut self) -> Result<Option<Vec<u8>>, WireError> {
        let pending = &self.buf[self.start..];
        // A short prefix is no error, only a wait for more bytes.
        let Some(prefix) = pending.first_chunk::<4>() else { return Ok(None) };
        let len = u32::from_le_bytes(*prefix);
        if len > MAX_FRAME_BYTES {
            return Err(WireError::new(
                WireErrorKind::FrameTooLarge,
                format!("frame length {len} exceeds {MAX_FRAME_BYTES}"),
            ));
        }
        let total = 4 + len as usize;
        if pending.len() < total {
            return Ok(None);
        }
        let payload = pending[4..total].to_vec();
        self.start += total;
        Ok(Some(payload))
    }

    /// Bytes buffered but not yet returned as a payload.
    pub fn pending_bytes(&self) -> usize {
        self.buf.len() - self.start
    }

    /// True when a frame has started arriving but is incomplete — the state
    /// in which a read deadline should be armed.
    pub fn has_partial(&self) -> bool {
        self.pending_bytes() > 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn primitives_round_trip() {
        let mut w = Writer::new();
        w.put_u8(7);
        w.put_bool(true);
        w.put_u32(70_000);
        w.put_u64(1 << 50);
        w.put_i64(-42);
        w.put_f64(1.5);
        w.put_str("héllo");
        w.put_bytes(&[1, 2, 3]);
        let bytes = w.into_bytes();
        let mut r = Reader::new(&bytes);
        assert_eq!(r.get_u8().unwrap(), 7);
        assert!(r.get_bool().unwrap());
        assert_eq!(r.get_u32().unwrap(), 70_000);
        assert_eq!(r.get_u64().unwrap(), 1 << 50);
        assert_eq!(r.get_i64().unwrap(), -42);
        assert_eq!(r.get_f64().unwrap(), 1.5);
        assert_eq!(r.get_str().unwrap(), "héllo");
        assert_eq!(r.get_bytes().unwrap(), vec![1, 2, 3]);
        r.finish().unwrap();
    }

    #[test]
    fn containers_round_trip() {
        type Sample = (Vec<(String, Option<u64>)>, HashMap<String, Vec<f64>>);
        let sample: Sample = (
            vec![("a".into(), Some(7)), (String::new(), None)],
            HashMap::from([("k".to_string(), vec![1.5, -2.0]), ("j".to_string(), vec![])]),
        );
        let mut w = Writer::new();
        sample.encode(&mut w);
        (true, 9usize).encode(&mut w);
        let bytes = w.into_bytes();
        let mut r = Reader::new(&bytes);
        assert_eq!(Sample::decode(&mut r).unwrap(), sample);
        assert_eq!(<(bool, usize)>::decode(&mut r).unwrap(), (true, 9));
        r.finish().unwrap();
    }

    #[test]
    fn map_bytes_are_order_independent() {
        let mut w1 = Writer::new();
        let mut w2 = Writer::new();
        let d1: HashMap<String, Addr> = (0..16).map(|i| (format!("t{i}"), Addr(i))).collect();
        let d2: HashMap<String, Addr> = (0..16).rev().map(|i| (format!("t{i}"), Addr(i))).collect();
        d1.encode(&mut w1);
        d2.encode(&mut w2);
        assert_eq!(w1.into_bytes(), w2.into_bytes());
    }

    #[test]
    fn hostile_element_count_is_rejected_before_allocation() {
        let mut w = Writer::new();
        w.put_u32(MAX_FRAME_BYTES);
        let bytes = w.into_bytes();
        for kind in [
            Vec::<u64>::decode(&mut Reader::new(&bytes)).unwrap_err().kind,
            HashMap::<String, Addr>::decode(&mut Reader::new(&bytes)).unwrap_err().kind,
        ] {
            assert_eq!(kind, WireErrorKind::BadLength);
        }
    }

    #[test]
    fn truncated_input_is_typed_error() {
        let mut r = Reader::new(&[1, 2]);
        assert_eq!(r.get_u64().unwrap_err().kind, WireErrorKind::Truncated);
    }

    #[test]
    fn oversized_length_is_rejected_without_allocation() {
        let mut w = Writer::new();
        w.put_u32(u32::MAX);
        let bytes = w.into_bytes();
        let mut r = Reader::new(&bytes);
        assert_eq!(r.get_bytes().unwrap_err().kind, WireErrorKind::BadLength);
    }

    #[test]
    fn bad_utf8_is_typed_error() {
        let mut w = Writer::new();
        w.put_bytes(&[0xff, 0xfe]);
        let bytes = w.into_bytes();
        let mut r = Reader::new(&bytes);
        assert_eq!(r.get_str().unwrap_err().kind, WireErrorKind::BadUtf8);
    }

    #[test]
    fn payload_version_is_checked() {
        let env = Envelope { from: Addr(1), to: Addr(2), msg: Addr(3) };
        let mut payload = encode_payload(&env);
        payload[0] = 99;
        assert_eq!(
            decode_payload::<Addr>(&payload).unwrap_err().kind,
            WireErrorKind::VersionMismatch
        );
    }

    #[test]
    fn payload_trailing_bytes_rejected() {
        let env = Envelope { from: Addr(1), to: Addr(2), msg: Addr(3) };
        let mut payload = encode_payload(&env);
        payload.push(0);
        assert_eq!(
            decode_payload::<Addr>(&payload).unwrap_err().kind,
            WireErrorKind::TrailingBytes
        );
    }

    #[test]
    fn frame_carries_length_prefix() {
        let env = Envelope { from: Addr(5), to: Addr(6), msg: Addr(7) };
        let frame = encode_frame(&env);
        let len = u32::from_le_bytes(frame[0..4].try_into().unwrap()) as usize;
        assert_eq!(len, frame.len() - 4);
        let decoded: Envelope<Addr> = decode_payload(&frame[4..]).unwrap();
        assert_eq!(decoded, env);
    }

    #[test]
    fn shared_frame_matches_encode_frame_and_readdresses() {
        let env = Envelope { from: Addr(5), to: Addr(6), msg: Addr(7) };
        let frame = Frame::encode(env.from, env.to, &env.msg);
        assert_eq!(frame.bytes(), encode_frame(&env).as_slice());
        // Re-addressing patches only the `to` field; the clone shares bytes.
        let f2 = frame.for_to(Addr(99));
        let decoded: Envelope<Addr> = decode_payload(f2.payload()).unwrap();
        assert_eq!(decoded, Envelope { from: Addr(5), to: Addr(99), msg: Addr(7) });
        let decoded: Envelope<Addr> = decode_payload(frame.clone().payload()).unwrap();
        assert_eq!(decoded, env);
    }

    #[test]
    fn scratch_reuses_capacity_and_tolerates_reentrancy() {
        let a = with_scratch(|w| {
            w.put_str("first use grows the buffer well past the nested one");
            // A nested call must get its own (fresh) buffer, not panic.
            let inner = with_scratch(|w2| {
                w2.put_u8(1);
                w2.as_slice().to_vec()
            });
            assert_eq!(inner, vec![1]);
            w.as_slice().to_vec()
        });
        let b = with_scratch(|w| {
            assert!(w.is_empty(), "scratch must arrive empty");
            w.put_str("second");
            w.as_slice().to_vec()
        });
        assert!(a.len() > b.len());
    }

    #[test]
    fn frame_decoder_splits_coalesced_frames() {
        let frames: Vec<Vec<u8>> = (0..5u64)
            .map(|i| encode_frame(&Envelope { from: Addr(1), to: Addr(2), msg: Addr(i) }))
            .collect();
        let coalesced: Vec<u8> = frames.iter().flatten().copied().collect();
        // Feed in awkward 3-byte slices: headers and bodies split anywhere.
        let mut dec = FrameDecoder::new();
        let mut out = Vec::new();
        for chunk in coalesced.chunks(3) {
            dec.feed(chunk);
            while let Some(p) = dec.next_payload().unwrap() {
                out.push(decode_payload::<Addr>(&p).unwrap().msg);
            }
        }
        assert_eq!(out, vec![Addr(0), Addr(1), Addr(2), Addr(3), Addr(4)]);
        assert!(!dec.has_partial());
    }

    #[test]
    fn frame_decoder_rejects_oversized_length_before_allocating() {
        let mut dec = FrameDecoder::new();
        dec.feed(&(MAX_FRAME_BYTES + 1).to_le_bytes());
        assert_eq!(dec.next_payload().unwrap_err().kind, WireErrorKind::FrameTooLarge);
    }
}
