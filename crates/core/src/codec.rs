//! Exact binary (de)serialization of point values for the result store.
//!
//! A sweep's value type implements [`Codec`] — usually by being built from
//! the types implemented here (`f64`, `usize`, `Vec<T>`, tuples,
//! [`Either`]) — and the campaign engine persists it through that one
//! trait (see [`crate::campaign::Sweep`]). The format is deliberately
//! dumb: fixed-width little-endian fields appended in declaration order,
//! floats as raw IEEE bits ([`f64::to_bits`]) so a restored value is
//! **bit-identical** to the computed one — the property the resume
//! byte-identity guarantee rests on. No self-description: the store key
//! carries the experiment name and a format version, and [`Dec::finish`]
//! rejects length mismatches, so a layout change simply invalidates old
//! entries (they are recomputed).

use crate::report::{Check, RunOutcome};

/// A value with an exact binary form: [`Codec::decode`] of the bytes
/// [`Codec::encode`] appends gives back a bit-identical value.
pub trait Codec: Sized {
    /// Append the value's fields to `e`.
    fn encode(&self, e: &mut Enc);
    /// Read one value back; `None` on underrun or a malformed field.
    fn decode(d: &mut Dec<'_>) -> Option<Self>;
}

/// The bytes of one value.
pub fn to_bytes<T: Codec>(value: &T) -> Vec<u8> {
    let mut e = Enc::new();
    value.encode(&mut e);
    e.into_bytes()
}

/// The value `bytes` hold, if they hold exactly one `T`.
pub fn from_bytes<T: Codec>(bytes: &[u8]) -> Option<T> {
    let mut d = Dec::new(bytes);
    let v = T::decode(&mut d)?;
    d.finish(v)
}

impl Codec for f64 {
    fn encode(&self, e: &mut Enc) {
        e.f64(*self);
    }
    fn decode(d: &mut Dec<'_>) -> Option<f64> {
        d.f64()
    }
}

impl Codec for usize {
    fn encode(&self, e: &mut Enc) {
        e.usize(*self);
    }
    fn decode(d: &mut Dec<'_>) -> Option<usize> {
        d.usize()
    }
}

/// A length prefix, then the elements: for `Vec<f64>` the bytes of
/// [`Enc::f64s`].
impl<T: Codec> Codec for Vec<T> {
    fn encode(&self, e: &mut Enc) {
        e.usize(self.len());
        for v in self {
            v.encode(e);
        }
    }
    fn decode(d: &mut Dec<'_>) -> Option<Vec<T>> {
        let n = d.usize()?;
        // Every element takes at least one byte: a corrupt length prefix
        // fails here instead of reserving memory for it.
        if n > d.buf.len() - d.pos {
            return None;
        }
        (0..n).map(|_| T::decode(d)).collect()
    }
}

macro_rules! tuple_codec {
    ($($t:ident),+) => {
        impl<$($t: Codec),+> Codec for ($($t,)+) {
            #[allow(non_snake_case)]
            fn encode(&self, e: &mut Enc) {
                let ($($t,)+) = self;
                $($t.encode(e);)+
            }
            fn decode(d: &mut Dec<'_>) -> Option<Self> {
                Some(($($t::decode(d)?,)+))
            }
        }
    };
}

tuple_codec!(A, B);
tuple_codec!(A, B, C);
tuple_codec!(A, B, C, D);
tuple_codec!(A, B, C, D, E);

/// One of two value shapes, for sweeps whose points measure different
/// things (a tag byte, then the shape's fields).
#[derive(Debug, PartialEq)]
pub enum Either<L, R> {
    /// The first shape (tag 0).
    Left(L),
    /// The second shape (tag 1).
    Right(R),
}

impl<L, R> Either<L, R> {
    /// The first shape; panics on the second (the sweep put the point
    /// kinds in known places, so a mismatch is a driver bug).
    pub fn unwrap_left(&self) -> &L {
        match self {
            Either::Left(l) => l,
            Either::Right(_) => panic!("expected the first value shape"),
        }
    }

    /// The second shape; panics on the first.
    pub fn unwrap_right(&self) -> &R {
        match self {
            Either::Right(r) => r,
            Either::Left(_) => panic!("expected the second value shape"),
        }
    }
}

impl<L: Codec, R: Codec> Codec for Either<L, R> {
    fn encode(&self, e: &mut Enc) {
        match self {
            Either::Left(l) => {
                e.u8(0);
                l.encode(e);
            }
            Either::Right(r) => {
                e.u8(1);
                r.encode(e);
            }
        }
    }
    fn decode(d: &mut Dec<'_>) -> Option<Self> {
        match d.u8()? {
            0 => Some(Either::Left(L::decode(d)?)),
            1 => Some(Either::Right(R::decode(d)?)),
            _ => None,
        }
    }
}

impl Codec for Check {
    fn encode(&self, e: &mut Enc) {
        e.str(&self.name).bool(self.pass).str(&self.detail);
    }
    fn decode(d: &mut Dec<'_>) -> Option<Check> {
        Some(Check {
            name: d.str()?,
            pass: d.bool()?,
            detail: d.str()?,
        })
    }
}

impl Codec for RunOutcome {
    fn encode(&self, e: &mut Enc) {
        e.u32(self.rep)
            .u64(self.seed)
            .str(self.status)
            .opt_str(&self.error)
            .u64(self.retries)
            .u64(self.retrans_bytes)
            .f64(self.retry_wait_s);
    }
    fn decode(d: &mut Dec<'_>) -> Option<RunOutcome> {
        Some(RunOutcome {
            rep: d.u32()?,
            seed: d.u64()?,
            // Back to the `&'static str` the runner hands out (see
            // `RunStatus::label`); an unknown label is a stale entry.
            status: {
                let s = d.str()?;
                ["ok", "recovered", "failed", "timeout"]
                    .into_iter()
                    .find(|l| *l == s)?
            },
            error: d.opt_str()?,
            retries: d.u64()?,
            retrans_bytes: d.u64()?,
            retry_wait_s: d.f64()?,
        })
    }
}

/// Append-only binary writer.
#[derive(Default)]
pub struct Enc {
    buf: Vec<u8>,
}

impl Enc {
    /// Empty writer.
    pub fn new() -> Enc {
        Enc::default()
    }

    /// Append a `u8`.
    pub fn u8(&mut self, v: u8) -> &mut Enc {
        self.buf.push(v);
        self
    }

    /// Append a `bool` (one byte, 0/1).
    pub fn bool(&mut self, v: bool) -> &mut Enc {
        self.u8(v as u8)
    }

    /// Append a `u32`.
    pub fn u32(&mut self, v: u32) -> &mut Enc {
        self.buf.extend_from_slice(&v.to_le_bytes());
        self
    }

    /// Append a `u64`.
    pub fn u64(&mut self, v: u64) -> &mut Enc {
        self.buf.extend_from_slice(&v.to_le_bytes());
        self
    }

    /// Append a `usize` (as `u64`).
    pub fn usize(&mut self, v: usize) -> &mut Enc {
        self.u64(v as u64)
    }

    /// Append an `f64` as its exact IEEE-754 bit pattern.
    pub fn f64(&mut self, v: f64) -> &mut Enc {
        self.u64(v.to_bits())
    }

    /// Append a length-prefixed UTF-8 string.
    pub fn str(&mut self, v: &str) -> &mut Enc {
        self.u64(v.len() as u64);
        self.buf.extend_from_slice(v.as_bytes());
        self
    }

    /// Append a length-prefixed `Option<String>`.
    pub fn opt_str(&mut self, v: &Option<String>) -> &mut Enc {
        match v {
            Some(s) => self.bool(true).str(s),
            None => self.bool(false),
        }
    }

    /// Append a length-prefixed `f64` slice (exact bits).
    pub fn f64s(&mut self, vs: &[f64]) -> &mut Enc {
        self.u64(vs.len() as u64);
        for &v in vs {
            self.f64(v);
        }
        self
    }

    /// Finish, returning the encoded bytes.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }
}

/// Fallible sequential reader over bytes produced by [`Enc`]. Every getter
/// returns `None` on underrun instead of panicking: a short or stale entry
/// decodes to `None` and the point is recomputed.
pub struct Dec<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Dec<'a> {
    /// Reader over `buf` starting at offset 0.
    pub fn new(buf: &'a [u8]) -> Dec<'a> {
        Dec { buf, pos: 0 }
    }

    fn take(&mut self, n: usize) -> Option<&'a [u8]> {
        let s = self.buf.get(self.pos..self.pos + n)?;
        self.pos += n;
        Some(s)
    }

    /// Read a `u8`.
    pub fn u8(&mut self) -> Option<u8> {
        Some(self.take(1)?[0])
    }

    /// Read a `bool`; bytes other than 0/1 are malformed.
    pub fn bool(&mut self) -> Option<bool> {
        match self.u8()? {
            0 => Some(false),
            1 => Some(true),
            _ => None,
        }
    }

    /// Read a `u32`.
    pub fn u32(&mut self) -> Option<u32> {
        Some(u32::from_le_bytes(self.take(4)?.try_into().ok()?))
    }

    /// Read a `u64`.
    pub fn u64(&mut self) -> Option<u64> {
        Some(u64::from_le_bytes(self.take(8)?.try_into().ok()?))
    }

    /// Read a `usize` (stored as `u64`; rejects values over `usize::MAX`).
    pub fn usize(&mut self) -> Option<usize> {
        usize::try_from(self.u64()?).ok()
    }

    /// Read an `f64` from its exact bit pattern.
    pub fn f64(&mut self) -> Option<f64> {
        Some(f64::from_bits(self.u64()?))
    }

    /// Read a length-prefixed UTF-8 string.
    pub fn str(&mut self) -> Option<String> {
        let n = self.usize()?;
        String::from_utf8(self.take(n)?.to_vec()).ok()
    }

    /// Read a length-prefixed `Option<String>`.
    pub fn opt_str(&mut self) -> Option<Option<String>> {
        if self.bool()? {
            Some(Some(self.str()?))
        } else {
            Some(None)
        }
    }

    /// Read a length-prefixed `f64` vector (exact bits).
    pub fn f64s(&mut self) -> Option<Vec<f64>> {
        let n = self.usize()?;
        // Guard the allocation against a corrupt length prefix.
        if n > self.buf.len().saturating_sub(self.pos) / 8 {
            return None;
        }
        let mut out = Vec::with_capacity(n);
        for _ in 0..n {
            out.push(self.f64()?);
        }
        Some(out)
    }

    /// Consume and return every remaining byte (for nested payloads whose
    /// inner layout is decoded by someone else).
    pub fn rest(&mut self) -> &'a [u8] {
        let s = &self.buf[self.pos..];
        self.pos = self.buf.len();
        s
    }

    /// Succeeds only if every byte was consumed — trailing bytes mean the
    /// entry was written by a different layout and must not be trusted.
    pub fn finish<T>(self, value: T) -> Option<T> {
        if self.pos == self.buf.len() {
            Some(value)
        } else {
            None
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_all_field_kinds() {
        let mut e = Enc::new();
        e.u8(7)
            .bool(true)
            .u32(0xDEAD_BEEF)
            .u64(u64::MAX)
            .usize(42)
            .f64(-0.0)
            .f64(f64::NAN)
            .str("héllo")
            .opt_str(&Some("err".into()))
            .opt_str(&None)
            .f64s(&[1.5, f64::INFINITY, 1e-300]);
        let bytes = e.into_bytes();
        let mut d = Dec::new(&bytes);
        assert_eq!(d.u8(), Some(7));
        assert_eq!(d.bool(), Some(true));
        assert_eq!(d.u32(), Some(0xDEAD_BEEF));
        assert_eq!(d.u64(), Some(u64::MAX));
        assert_eq!(d.usize(), Some(42));
        assert_eq!(d.f64().map(f64::to_bits), Some((-0.0f64).to_bits()));
        assert_eq!(d.f64().map(f64::to_bits), Some(f64::NAN.to_bits()));
        assert_eq!(d.str(), Some("héllo".to_string()));
        assert_eq!(d.opt_str(), Some(Some("err".to_string())));
        assert_eq!(d.opt_str(), Some(None));
        let vs = d.f64s().unwrap();
        assert_eq!(vs.len(), 3);
        assert_eq!(vs[0], 1.5);
        assert!(vs[1].is_infinite());
        assert_eq!(d.finish(()), Some(()));

        // The generic impls: `Vec<T>`, tuples, `Either`, `Vec<Check>`.
        type Nested = (Vec<Vec<f64>>, usize, (f64, f64, f64, f64, f64));
        let nested: Nested = (
            vec![vec![-0.0, 1e-300], vec![]],
            7,
            (1.0, 2.0, 3.0, 4.0, f64::MAX),
        );
        let back: Nested = from_bytes(&to_bytes(&nested)).expect("roundtrip");
        assert_eq!(back.0[0][0].to_bits(), (-0.0f64).to_bits());
        assert_eq!(
            (&back.0[1], back.1, back.2),
            (&nested.0[1], nested.1, nested.2)
        );
        let either: Vec<Either<f64, (usize, f64)>> =
            vec![Either::Left(0.5), Either::Right((3, 9.0))];
        assert_eq!(
            from_bytes::<Vec<Either<f64, (usize, f64)>>>(&to_bytes(&either)),
            Some(either)
        );
        let checks = vec![
            Check::new("héllo", true, ""),
            Check::new("", false, "detail"),
        ];
        let back: Vec<Check> = from_bytes(&to_bytes(&checks)).expect("roundtrip");
        assert_eq!(back.len(), 2);
        for (a, b) in back.iter().zip(&checks) {
            assert_eq!((&a.name, a.pass, &a.detail), (&b.name, b.pass, &b.detail));
        }
        // `Vec<f64>` keeps the bytes of `Enc::f64s`.
        let mut e = Enc::new();
        e.f64s(&[1.5, -2.0]);
        assert_eq!(to_bytes(&vec![1.5f64, -2.0]), e.into_bytes());
    }

    #[test]
    fn underrun_and_trailing_bytes_are_rejected() {
        let mut e = Enc::new();
        e.f64s(&[1.0, 2.0]);
        let bytes = e.into_bytes();
        // Underrun: truncated buffer fails cleanly.
        let mut d = Dec::new(&bytes[..bytes.len() - 1]);
        assert_eq!(d.f64s(), None);
        // Trailing bytes: finish refuses.
        let mut d = Dec::new(&bytes);
        let _ = d.f64s().unwrap();
        let mut with_tail = bytes.clone();
        with_tail.push(0);
        let mut d2 = Dec::new(&with_tail);
        let v = d2.f64s().unwrap();
        assert_eq!(d2.finish(v), None);
    }

    #[test]
    fn corrupt_length_prefix_does_not_overallocate() {
        let mut e = Enc::new();
        e.u64(u64::MAX); // absurd element count
        let bytes = e.into_bytes();
        assert_eq!(Dec::new(&bytes).f64s(), None);
        assert!(from_bytes::<Vec<(f64, usize)>>(&bytes).is_none());
        assert!(from_bytes::<Vec<Check>>(&bytes).is_none());
        // A count just past the bytes that follow, and a bad tag byte.
        let mut e = Enc::new();
        e.usize(3).f64(1.0).f64(2.0);
        assert!(from_bytes::<Vec<f64>>(&e.into_bytes()).is_none());
        assert!(from_bytes::<Either<f64, f64>>(&[2, 0, 0, 0, 0, 0, 0, 0, 0]).is_none());
    }

    #[test]
    fn bad_bool_byte_is_malformed() {
        assert_eq!(Dec::new(&[2]).bool(), None);
    }
}
