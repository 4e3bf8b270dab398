//! Wire messages and the length-prefixed binary codec.
//!
//! Every message travels as one *frame*: a little-endian `u32` byte length
//! on the wire (added by the transport), then the body encoded here — a
//! one-byte tag followed by the kind's fields in declaration order, each
//! fixed-width little-endian; a vector field is a `u64` element count
//! followed by its elements. Decoding is strict: truncated bodies,
//! trailing bytes, unknown tags and unknown AM ids are all rejected,
//! never silently tolerated, and an element count is checked against the
//! bytes actually present before anything is allocated for it.
//!
//! Every kind is declared exactly once, in the `messages!` table
//! below: the enum variant, its tag, the encoder and the decoder all
//! derive from that one row, so adding a kind is a one-place edit.
//!
//! The one-sided protocol has one payload path: data always rides in
//! the first frame that can carry it. A `Put` or `Acc` carries its data
//! in the request and is answered by an `Ack`; a `Get` names one or more
//! ranges and its one `GetReply` carries every part. Everything that is
//! not block access or a barrier — the shared counter, steals, job
//! control — is a [`Msg::Call`] answered by a [`Msg::Return`].

use crate::am::Am;
use crate::fault::SplitMix64;

/// Errors produced by [`Msg::decode`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CodecError {
    /// The body ended before the message was complete.
    Truncated,
    /// Bytes remained after a complete message.
    TrailingBytes(usize),
    /// The leading tag byte names no known message.
    UnknownTag(u8),
    /// A `Call` names an active message the AM table does not declare.
    UnknownAm(u8),
}

impl std::fmt::Display for CodecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CodecError::Truncated => write!(f, "truncated frame"),
            CodecError::TrailingBytes(n) => write!(f, "{n} trailing byte(s) after message"),
            CodecError::UnknownTag(t) => write!(f, "unknown message tag {t}"),
            CodecError::UnknownAm(a) => write!(f, "unknown active message id {a}"),
        }
    }
}

impl std::error::Error for CodecError {}

/// One read range: one part of a [`Msg::Get`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GetSpec {
    pub array: u32,
    pub offset: u64,
    pub len: u64,
}

struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }
    fn take(&mut self, n: usize) -> Result<&'a [u8], CodecError> {
        if self.remaining() < n {
            return Err(CodecError::Truncated);
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }
    /// An element count, validated against the bytes left (each element
    /// needs at least `min_bytes`) so a corrupt count cannot make the
    /// decoder allocate.
    fn count(&mut self, min_bytes: usize) -> Result<usize, CodecError> {
        let n = usize::try_from(u64::take(self)?).map_err(|_| CodecError::Truncated)?;
        if self.remaining() < n.saturating_mul(min_bytes) {
            return Err(CodecError::Truncated);
        }
        Ok(n)
    }
    /// Borrow an `f64` payload in place instead of materializing it.
    fn data_view(&mut self) -> Result<WireSlice<'a>, CodecError> {
        let n = self.count(8)?;
        Ok(WireSlice::Bytes(self.take(n * 8)?))
    }
    /// Strictness: a frame is exactly one message.
    fn finish(&self) -> Result<(), CodecError> {
        match self.remaining() {
            0 => Ok(()),
            n => Err(CodecError::TrailingBytes(n)),
        }
    }
}

/// Wire form of one field type. Every field of every message kind is
/// encoded, decoded and (for the codec tests) sampled through this.
trait Wire: Sized {
    /// Fewest bytes one encoded value occupies.
    const MIN_BYTES: usize;
    fn put(&self, out: &mut Vec<u8>);
    fn take(r: &mut Reader<'_>) -> Result<Self, CodecError>;
    fn sample(rng: &mut SplitMix64) -> Self;
}

macro_rules! wire_scalars {
    ($($t:ty),*) => {$(
        impl Wire for $t {
            const MIN_BYTES: usize = std::mem::size_of::<$t>();
            fn put(&self, out: &mut Vec<u8>) {
                out.extend_from_slice(&self.to_le_bytes());
            }
            fn take(r: &mut Reader<'_>) -> Result<Self, CodecError> {
                let bytes = r.take(Self::MIN_BYTES)?;
                Ok(<$t>::from_le_bytes(bytes.try_into().expect("take returned MIN_BYTES")))
            }
            fn sample(rng: &mut SplitMix64) -> Self {
                // A numeric cast, so sampled floats are finite and
                // compare equal to themselves after a round trip.
                rng.next_u64() as $t
            }
        }
    )*};
}
wire_scalars!(u8, u32, u64, i64, f64);

impl<T: Wire> Wire for Vec<T> {
    const MIN_BYTES: usize = 8;
    fn put(&self, out: &mut Vec<u8>) {
        out.reserve(8 + self.len() * T::MIN_BYTES);
        (self.len() as u64).put(out);
        for x in self {
            x.put(out);
        }
    }
    fn take(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        let n = r.count(T::MIN_BYTES)?;
        let mut v = Vec::with_capacity(n);
        for _ in 0..n {
            v.push(T::take(r)?);
        }
        Ok(v)
    }
    fn sample(rng: &mut SplitMix64) -> Self {
        (0..rng.next_u64() % 6).map(|_| T::sample(rng)).collect()
    }
}

impl Wire for GetSpec {
    const MIN_BYTES: usize = 20;
    fn put(&self, out: &mut Vec<u8>) {
        self.array.put(out);
        self.offset.put(out);
        self.len.put(out);
    }
    fn take(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        Ok(Self {
            array: u32::take(r)?,
            offset: u64::take(r)?,
            len: u64::take(r)?,
        })
    }
    fn sample(rng: &mut SplitMix64) -> Self {
        Self {
            array: u32::sample(rng),
            offset: u64::sample(rng),
            len: u64::sample(rng),
        }
    }
}

impl Wire for Am {
    const MIN_BYTES: usize = 1;
    fn put(&self, out: &mut Vec<u8>) {
        out.push(*self as u8);
    }
    fn take(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        let id = u8::take(r)?;
        Am::from_id(id).ok_or(CodecError::UnknownAm(id))
    }
    fn sample(rng: &mut SplitMix64) -> Self {
        Am::ALL[(rng.next_u64() % Am::ALL.len() as u64) as usize]
    }
}

/// The message table: `Kind = tag { field: type, ... }`, one row per
/// kind. Generates [`Msg`], [`Msg::KINDS`], [`Msg::encode`],
/// [`Msg::decode`] and [`Msg::sample`].
macro_rules! messages {
    ($( $(#[$doc:meta])* $kind:ident = $tag:tt { $($field:ident : $ty:ty),* $(,)? } )*) => {
        /// One active message. `token` matches a reply to its pending
        /// request on the issuing rank; it is opaque to the servicing
        /// rank. Mutating requests (`Put`, `Acc`, sequenced `Call`s)
        /// additionally carry `seq`, a per-(sender, receiver) contiguous
        /// sequence number: the server applies each `(sender, seq)` at
        /// most once and answers retransmitted duplicates from its
        /// record, which is what makes timeout-driven retry safe for
        /// non-idempotent operations.
        #[derive(Debug, Clone, PartialEq)]
        pub enum Msg {
            $( $(#[$doc])* $kind { $($field: $ty),* } ),*
        }

        impl Msg {
            /// Name and wire tag of every kind, in table order.
            pub const KINDS: &'static [(&'static str, u8)] = &[$((stringify!($kind), $tag)),*];

            /// Encode the message body (the transport adds the length
            /// prefix).
            pub fn encode(&self) -> Vec<u8> {
                let mut out = Vec::with_capacity(32);
                match self {
                    $( Msg::$kind { $($field),* } => {
                        out.push($tag);
                        $( $field.put(&mut out); )*
                    } )*
                }
                out
            }

            /// Decode one message body. Strict: the body must contain
            /// exactly one complete message.
            pub fn decode(body: &[u8]) -> Result<Msg, CodecError> {
                let mut r = Reader { buf: body, pos: 0 };
                let msg = match u8::take(&mut r)? {
                    $( $tag => Msg::$kind { $($field: <$ty>::take(&mut r)?),* }, )*
                    t => return Err(CodecError::UnknownTag(t)),
                };
                r.finish()?;
                Ok(msg)
            }

            /// A pseudo-random message of kind `KINDS[kind]`, for codec
            /// tests that must cover every row of the table.
            #[doc(hidden)]
            pub fn sample(kind: usize, rng: &mut SplitMix64) -> Msg {
                match Self::KINDS[kind].1 {
                    $( $tag => Msg::$kind { $($field: <$ty>::sample(rng)),* }, )*
                    t => unreachable!("KINDS lists tag {t} the table does not declare"),
                }
            }
        }
    };
}

// The tag the hand-written `reply_view` fast path matches on.
const T_GET_REPLY: u8 = 2;

messages! {
    /// One-sided read of one or more ranges (each must lie within the
    /// target's shard). `token` identifies the whole frame — it retries,
    /// dedups and completes as a single unit; parts are matched to their
    /// requests by position. A lone read is a one-part `Get`.
    Get = 1 { token: u64, parts: Vec<GetSpec> }
    /// Reply to a `Get`: one payload per requested part, in request
    /// order, all in this one frame (the requester's batch byte cap
    /// bounds it).
    GetReply = T_GET_REPLY { token: u64, parts: Vec<Vec<f64>> }
    /// One-sided overwrite, its data carried in the request.
    Put = 3 { token: u64, seq: u64, array: u32, offset: u64, data: Vec<f64> }
    /// One-sided accumulate `shard[offset..] += alpha * data`, its data
    /// carried in the request like `Put`.
    Acc = 4 { token: u64, seq: u64, array: u32, offset: u64, alpha: f64, data: Vec<f64> }
    /// Put or accumulate applied to the target shard.
    Ack = 5 { token: u64 }
    /// Generic request: run active message `am` on the target with
    /// argument `words`. `seq` orders and dedups sequenced AMs (see the
    /// AM table in [`crate::am`]); idempotent AMs send 0 and the target
    /// ignores it.
    Call = 6 { token: u64, seq: u64, am: Am, words: Vec<u64> }
    /// The reply to a `Call`. A retransmitted sequenced call re-receives
    /// the recorded words of its first execution, never a second run.
    Return = 7 { token: u64, words: Vec<u64> }
    /// Rank `from` entered collective `epoch` of the rank group `gang` (a
    /// bitmask of participating ranks; sent to the group's leader — its
    /// lowest member rank), contributing `words` (empty for a plain
    /// barrier). `gang == full mesh` is the classic global barrier
    /// counted on rank 0.
    BarrierEnter = 8 { epoch: u64, from: u32, gang: u64, words: Vec<u64> }
    /// All members of `gang` entered collective `epoch` (broadcast by the
    /// group leader to the members); `words` holds every member's
    /// contribution, in ascending member-rank order.
    BarrierRelease = 9 { epoch: u64, gang: u64, words: Vec<Vec<u64>> }
    /// Rank `from` confirms receipt of the release of `epoch` in group
    /// `gang` (sent to the group leader). Releases are fire-and-forget
    /// on their first posting; the counter rank keeps re-releasing to
    /// unconfirmed members from its retry sweep and holds its own
    /// teardown until every member has acked, so a lost release cannot
    /// strand a waiter against a dead counter (see `Endpoint::shutdown`).
    BarrierAck = 10 { epoch: u64, from: u32, gang: u64 }
    /// Liveness probe toward a peer with no recent traffic: the failure
    /// detector piggybacks on every received frame, so pings are only
    /// sent on idle links once a peer turns suspect. Idempotent and
    /// unsequenced — a duplicate ping just draws another pong.
    Ping = 11 { token: u64 }
    /// Answer to a `Ping`; any received frame clears suspicion, this one
    /// just exists so an otherwise-silent peer has something to say.
    Pong = 12 { token: u64 }
}

/// A borrowed view of one payload inside a received frame: either raw
/// little-endian `f64` bytes still sitting in the frame buffer, or an
/// already-decoded slice. Completion callbacks copy straight from this
/// view into their destination buffer (a pooled tile, an assembly
/// buffer), so the reply path allocates no intermediate `Vec` per frame.
///
/// The wire layout puts payloads at unaligned offsets (tag byte + fixed
/// headers), so the byte form cannot be reinterpreted as `&[f64]`;
/// `copy_into` decodes element-wise, which the optimizer turns into a
/// plain copy on little-endian targets.
#[derive(Clone, Copy)]
pub enum WireSlice<'a> {
    /// Raw little-endian payload bytes (length a multiple of 8).
    Bytes(&'a [u8]),
    /// Already-materialized values.
    F64(&'a [f64]),
}

impl WireSlice<'_> {
    /// Number of `f64` elements in the payload.
    pub fn len(&self) -> usize {
        match self {
            WireSlice::Bytes(b) => b.len() / 8,
            WireSlice::F64(v) => v.len(),
        }
    }

    /// True when the payload is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Copy the payload into `dst` (which must have exactly `len()`
    /// elements).
    pub fn copy_into(&self, dst: &mut [f64]) {
        match self {
            WireSlice::Bytes(b) => {
                assert_eq!(b.len(), dst.len() * 8, "payload length mismatch");
                for (d, c) in dst.iter_mut().zip(b.chunks_exact(8)) {
                    *d = f64::from_le_bytes(c.try_into().unwrap());
                }
            }
            WireSlice::F64(v) => dst.copy_from_slice(v),
        }
    }

    /// Materialize the payload as an owned vector.
    pub fn to_vec(&self) -> Vec<f64> {
        let mut out = vec![0.0; self.len()];
        self.copy_into(&mut out);
        out
    }
}

/// A validated, zero-copy decode of a `GetReply`. Produced by
/// [`Msg::reply_view`] on the hot receive path so reply payloads flow
/// from the frame buffer to their destination in one copy.
pub struct ReplyView<'a> {
    pub token: u64,
    /// Per-part payloads, in request order.
    pub parts: Vec<WireSlice<'a>>,
}

impl Msg {
    /// Zero-copy fast path for get replies: if `body` is a `GetReply`
    /// frame, return a validated borrowed view of its parts; `Ok(None)`
    /// for every other tag (which callers route through
    /// [`Msg::decode`]). Validation is as strict as `decode`: truncated
    /// bodies and trailing bytes are rejected, never misread.
    pub fn reply_view(body: &[u8]) -> Result<Option<ReplyView<'_>>, CodecError> {
        let mut r = Reader { buf: body, pos: 0 };
        if u8::take(&mut r)? != T_GET_REPLY {
            return Ok(None);
        }
        let token = u64::take(&mut r)?;
        let n = r.count(8)?;
        let mut parts = Vec::with_capacity(n);
        for _ in 0..n {
            parts.push(r.data_view()?);
        }
        r.finish()?;
        Ok(Some(ReplyView { token, parts }))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_kind_roundtrips_and_only_get_replies_take_the_fast_path() {
        let mut rng = SplitMix64::new(0xC0DEC);
        for (kind, &(name, tag)) in Msg::KINDS.iter().enumerate() {
            for _ in 0..16 {
                let m = Msg::sample(kind, &mut rng);
                let body = m.encode();
                assert_eq!(body[0], tag, "{name} leads with its table tag");
                assert_eq!(Msg::decode(&body).unwrap(), m);
                let fast = tag == T_GET_REPLY;
                assert_eq!(Msg::reply_view(&body).unwrap().is_some(), fast, "{name}");
            }
        }
    }

    #[test]
    fn tags_are_unique() {
        let mut tags: Vec<u8> = Msg::KINDS.iter().map(|k| k.1).collect();
        tags.sort_unstable();
        tags.dedup();
        assert_eq!(tags.len(), Msg::KINDS.len());
    }

    #[test]
    fn empty_body_is_truncated() {
        assert_eq!(Msg::decode(&[]), Err(CodecError::Truncated));
    }

    #[test]
    fn unknown_tag_and_unknown_am_rejected() {
        assert_eq!(Msg::decode(&[200]), Err(CodecError::UnknownTag(200)));
        let mut body = Msg::Call {
            token: 1,
            seq: 2,
            am: Am::Status,
            words: vec![3],
        }
        .encode();
        body[1 + 8 + 8] = 200;
        assert_eq!(Msg::decode(&body), Err(CodecError::UnknownAm(200)));
    }

    #[test]
    fn reply_view_matches_decode() {
        let reply = Msg::GetReply {
            token: 10,
            parts: vec![vec![4.0], vec![], vec![5.0, 6.0]],
        };
        let body = reply.encode();
        let view = Msg::reply_view(&body).unwrap().expect("a GetReply");
        assert_eq!(view.token, 10);
        let got: Vec<Vec<f64>> = view.parts.iter().map(|p| p.to_vec()).collect();
        assert_eq!(got, vec![vec![4.0], vec![], vec![5.0, 6.0]]);
        let mut out = [0.0; 2];
        view.parts[2].copy_into(&mut out);
        assert_eq!(out, [5.0, 6.0]);
        // Strictness matches decode: trailing bytes and truncation rejected.
        let mut body = body.clone();
        body.push(0);
        assert!(Msg::reply_view(&body).is_err());
        let mut trunc = reply.encode();
        trunc.truncate(trunc.len() - 1);
        assert!(Msg::reply_view(&trunc).is_err());
    }

    #[test]
    fn corrupt_count_does_not_allocate() {
        // An element count far beyond the body must fail cleanly, for
        // f64 payloads, word vectors and nested parts alike.
        for m in [
            Msg::Put {
                token: 1,
                seq: 0,
                array: 0,
                offset: 0,
                data: vec![],
            },
            Msg::Return {
                token: 1,
                words: vec![],
            },
            Msg::Get {
                token: 1,
                parts: vec![],
            },
            Msg::GetReply {
                token: 1,
                parts: vec![],
            },
        ] {
            let mut body = m.encode();
            let n = body.len();
            body[n - 8..].copy_from_slice(&u64::MAX.to_le_bytes());
            assert_eq!(Msg::decode(&body), Err(CodecError::Truncated), "{m:?}");
        }
    }
}
