//! Gradient wire formats: what an allreduce puts on the fabric.
//!
//! The paper's scaling wall is communication, and the single
//! highest-leverage wire optimization in the Horovod lineage is sending
//! gradients in half precision: bf16 halves the charged wire bytes on the
//! bandwidth-bound size bins while **accumulation stays in f32**, so the
//! math every rank observes remains reproducible. [`WireFormat`] selects
//! the encoding per collective; the encode/decode here is deterministic
//! round-to-nearest-even integer bit manipulation — no ISA, thread-count,
//! or locale dependence — so compressed collectives keep the bitwise
//! determinism contract of `docs/CORRECTNESS.md` (see `docs/WIRE.md` for
//! the full contract, including where each algorithm re-quantizes so all
//! ranks land on identical bits).

use std::fmt;
use std::str::FromStr;

use crate::message::Payload;

use super::ReduceOp;

/// Encoding of gradient payloads on the wire. Accumulation is always f32;
/// the format only changes what crosses the fabric (and therefore the
/// charged transfer time).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum WireFormat {
    /// Full-precision f32 — the lossless default (4 bytes/elem).
    #[default]
    F32,
    /// bfloat16: f32 with the mantissa truncated to 7 bits, RNE-rounded
    /// (2 bytes/elem). Same dynamic range as f32 — the standard gradient
    /// compression choice.
    Bf16,
    /// IEEE half precision, RNE-rounded with overflow to ±inf and gradual
    /// underflow (2 bytes/elem).
    Fp16,
    /// Magnitude top-k sparsification: each rank sends its `k_permille`‰
    /// largest-|g| coordinates as (index, f32 value) pairs; unsent
    /// coordinates stay in an error-feedback residual owned by the fusion
    /// layer. Sum-only.
    TopK {
        /// Kept coordinates per 1000 elements (1..=1000).
        k_permille: u16,
    },
}

/// Default top-k density: 50‰ = 5% of coordinates per round.
pub const DEFAULT_TOPK_PERMILLE: u16 = 50;

impl WireFormat {
    /// Every format, for sweeps and CLI help (top-k at its default
    /// density).
    pub const ALL: [WireFormat; 4] = [
        WireFormat::F32,
        WireFormat::Bf16,
        WireFormat::Fp16,
        WireFormat::TopK {
            k_permille: DEFAULT_TOPK_PERMILLE,
        },
    ];

    /// Short static label (top-k without its density — use `Display` for
    /// the full form).
    pub fn label(self) -> &'static str {
        match self {
            WireFormat::F32 => "f32",
            WireFormat::Bf16 => "bf16",
            WireFormat::Fp16 => "fp16",
            WireFormat::TopK { .. } => "topk",
        }
    }

    /// Dtype string recorded in collective verify signatures: any
    /// wire-format skew between ranks must show up as a
    /// `CollectiveMismatch`, never a hang or a silent decode error.
    pub fn dtype_name(self) -> &'static str {
        self.label()
    }

    /// [`WireFormat::dtype_name`] of a costs-only payload: the same skew
    /// must be a mismatch when the collective carries lengths only.
    pub(crate) fn synth_dtype_name(self) -> &'static str {
        match self {
            WireFormat::F32 => "synth",
            WireFormat::Bf16 => "synth-bf16",
            WireFormat::Fp16 => "synth-fp16",
            WireFormat::TopK { .. } => "synth-topk",
        }
    }

    /// Charged wire bytes for an `elems`-element f32 buffer in this
    /// format. This is what the transport bills, replacing the hardwired
    /// `len * 4`.
    pub fn wire_bytes(self, elems: usize) -> u64 {
        match self {
            WireFormat::F32 => 4 * elems as u64,
            WireFormat::Bf16 | WireFormat::Fp16 => 2 * elems as u64,
            // (u32 index, f32 value) pairs.
            WireFormat::TopK { k_permille } => 8 * topk_count(elems, k_permille) as u64,
        }
    }

    /// Whether the format is the lossless f32 identity.
    pub fn is_f32(self) -> bool {
        self == WireFormat::F32
    }

    /// Quantize a slice in place: `decode(encode(x))` elementwise. This is
    /// the projection each algorithm applies at its re-quantization point
    /// so every rank holds bit-identical results — the schedules get it by
    /// decoding the message they encoded (`wire::copy_out`) — and it is
    /// idempotent: re-encoding an already-quantized value is lossless.
    /// No-op for f32 and top-k (top-k never quantizes values).
    pub fn quantize(self, buf: &mut [f32]) {
        match self {
            WireFormat::F32 | WireFormat::TopK { .. } => {}
            WireFormat::Bf16 => {
                for v in buf {
                    *v = bf16_to_f32(bf16_bits(*v));
                }
            }
            WireFormat::Fp16 => {
                for v in buf {
                    *v = fp16_to_f32(fp16_bits(*v));
                }
            }
        }
    }

    /// Encode a dense f32 slice into a wire payload — the one allocation a
    /// dense schedule makes per message it originates; every later hop
    /// forwards what it received ([`combine_forward`], [`copy_out`]).
    /// Counted as `mpi.wire_encodes`. Top-k is not a dense format — its
    /// sparse schedule builds `Payload::Sparse` directly.
    pub(crate) fn encode(self, src: &[f32]) -> Payload {
        dlsr_trace::counter_add(dlsr_trace::report::keys::WIRE_ENCODES, 1.0);
        match self {
            WireFormat::F32 => Payload::F32(src.to_vec()),
            WireFormat::Bf16 => Payload::Half {
                bits: src.iter().map(|&v| bf16_bits(v)).collect(),
                fp16: false,
            },
            WireFormat::Fp16 => Payload::Half {
                bits: src.iter().map(|&v| fp16_bits(v)).collect(),
                fp16: true,
            },
            WireFormat::TopK { .. } => {
                unreachable!("top-k rides its own sparse schedule, not dense encode")
            }
        }
    }
}

/// Fold a received dense payload into `acc` and turn it into the next
/// hop's message, in one pass over its own storage: per element
/// `v = acc op dec(x)` (`dec(x) op acc` when `incoming_first`), then
/// `acc = v` and `x = enc(v)`. The returned payload holds exactly the bits
/// `encode(acc)` would, with no second pass and no allocation. Accepts the
/// lossless f32 payload too, so every dense format shares one receive path.
pub(crate) fn combine_forward(
    mut payload: Payload,
    acc: &mut [f32],
    op: ReduceOp,
    incoming_first: bool,
) -> Payload {
    match &mut payload {
        Payload::F32(xs) => fold(xs, acc, op, incoming_first, |x| x, |v| v),
        Payload::Half { bits, fp16: false } => {
            fold(bits, acc, op, incoming_first, bf16_to_f32, bf16_bits)
        }
        Payload::Half { bits, fp16: true } => {
            fold(bits, acc, op, incoming_first, fp16_to_f32, fp16_bits)
        }
        other => not_dense(other),
    }
    payload
}

/// Decode a received dense payload straight into `dst`, which it must
/// cover exactly. The payload is left as it arrived, to be forwarded.
pub(crate) fn copy_out(payload: &Payload, dst: &mut [f32]) {
    match payload {
        Payload::F32(xs) => dst.copy_from_slice(xs),
        Payload::Half { bits, fp16 } => {
            assert_eq!(bits.len(), dst.len(), "dense payload length");
            let pairs = dst.iter_mut().zip(bits);
            if *fp16 {
                pairs.for_each(|(d, &h)| *d = fp16_to_f32(h));
            } else {
                pairs.for_each(|(d, &h)| *d = bf16_to_f32(h));
            }
        }
        other => not_dense(other),
    }
}

/// [`combine_forward`]'s loop, one monomorphic copy per (op, operand
/// order) so each vectorizes. The scalar is [`ReduceOp::apply`], the one
/// [`ReduceOp::combine`] evaluates, so the bits match it exactly.
#[inline(always)]
fn fold<T: Copy>(
    xs: &mut [T],
    acc: &mut [f32],
    op: ReduceOp,
    incoming_first: bool,
    dec: impl Fn(T) -> f32,
    enc: impl Fn(f32) -> T,
) {
    assert_eq!(xs.len(), acc.len(), "dense payload length");
    #[inline(always)]
    fn each<T: Copy>(
        xs: &mut [T],
        acc: &mut [f32],
        dec: impl Fn(T) -> f32,
        enc: impl Fn(f32) -> T,
        f: impl Fn(f32, f32) -> f32,
    ) {
        for (x, a) in xs.iter_mut().zip(acc) {
            let v = f(*a, dec(*x));
            *a = v;
            *x = enc(v);
        }
    }
    use ReduceOp::{Max, Min, Sum};
    match (op, incoming_first) {
        (Sum, false) => each(xs, acc, dec, enc, |a, b| Sum.apply(a, b)),
        (Sum, true) => each(xs, acc, dec, enc, |a, b| Sum.apply(b, a)),
        (Max, false) => each(xs, acc, dec, enc, |a, b| Max.apply(a, b)),
        (Max, true) => each(xs, acc, dec, enc, |a, b| Max.apply(b, a)),
        (Min, false) => each(xs, acc, dec, enc, |a, b| Min.apply(a, b)),
        (Min, true) => each(xs, acc, dec, enc, |a, b| Min.apply(b, a)),
    }
}

#[cold]
fn not_dense(other: &Payload) -> ! {
    panic!(
        "collective expected a dense gradient payload, got {} — \
         wire-format skew between ranks? (build with the `verify` \
         feature to catch this at collective entry)",
        other.kind_name()
    )
}

/// f32 → bf16 bits, round-to-nearest-even. NaN stays NaN (quieted);
/// rounding may carry into the exponent, overflowing to ±inf exactly as
/// IEEE RNE prescribes.
pub fn bf16_bits(x: f32) -> u16 {
    let b = x.to_bits();
    if x.is_nan() {
        // Preserve sign, force a quiet NaN that survives truncation.
        return ((b >> 16) as u16) | 0x0040;
    }
    // Add 0x7FFF + (lsb of the kept part): ties round to even.
    let round = ((b >> 16) & 1) + 0x7FFF;
    ((b + round) >> 16) as u16
}

/// bf16 bits → f32 (exact: bf16 is a prefix of f32).
pub fn bf16_to_f32(h: u16) -> f32 {
    f32::from_bits((h as u32) << 16)
}

/// f32 → IEEE fp16 bits, round-to-nearest-even, overflow to ±inf,
/// gradual underflow through subnormals.
pub fn fp16_bits(x: f32) -> u16 {
    let b = x.to_bits();
    let sign = ((b >> 16) & 0x8000) as u16;
    let exp = ((b >> 23) & 0xFF) as i32;
    let man = b & 0x7F_FFFF;
    if exp == 0xFF {
        // inf / NaN: keep NaN-ness (set a high mantissa bit so the
        // truncated mantissa cannot collapse to inf).
        return if man != 0 {
            sign | 0x7E00 | ((man >> 13) as u16 & 0x01FF)
        } else {
            sign | 0x7C00
        };
    }
    let e = exp - 127 + 15; // rebias
    if e >= 31 {
        return sign | 0x7C00; // overflow → inf
    }
    if e <= 0 {
        // Subnormal half (or zero). Value = 1.man × 2^(e-1) in units of
        // the half subnormal step; shift out (14 - e) + 10 extra bits
        // with RNE.
        if e < -10 {
            return sign; // underflows to ±0 even after rounding
        }
        let m = man | 0x80_0000; // make the implicit bit explicit
        let shift = (14 - e) as u32; // 11..=24
        let kept = m >> shift;
        let rem = m & ((1u32 << shift) - 1);
        let halfway = 1u32 << (shift - 1);
        let kept = kept + u32::from(rem > halfway || (rem == halfway && kept & 1 == 1));
        // A carry out of the subnormal mantissa lands on the smallest
        // normal — the encodings are contiguous, so plain add is correct.
        return sign | kept as u16;
    }
    let kept = ((e as u32) << 10) | (man >> 13);
    let rem = man & 0x1FFF;
    let kept = kept + u32::from(rem > 0x1000 || (rem == 0x1000 && kept & 1 == 1));
    // Mantissa carry bumps the exponent (possibly to inf) — contiguous
    // encodings again make the plain add exact RNE.
    sign | kept as u16
}

/// IEEE fp16 bits → f32 (exact: every half value is representable).
pub fn fp16_to_f32(h: u16) -> f32 {
    let sign = ((h & 0x8000) as u32) << 16;
    let exp = ((h >> 10) & 0x1F) as u32;
    let man = (h & 0x3FF) as u32;
    let bits = if exp == 0x1F {
        // inf / NaN
        sign | 0x7F80_0000 | (man << 13)
    } else if exp != 0 {
        sign | ((exp + 112) << 23) | (man << 13)
    } else if man == 0 {
        sign // ±0
    } else {
        // Subnormal: value = man × 2^-24; normalize into f32.
        let t = 31 - man.leading_zeros(); // MSB position, 0..=9
        sign | ((t + 103) << 23) | ((man << (23 - t)) & 0x7F_FFFF)
    };
    f32::from_bits(bits)
}

/// Number of coordinates a top-k round keeps for an `elems`-element
/// buffer: ⌊elems·k/1000⌋ clamped to `1..=elems` (zero-element buffers
/// keep zero).
pub fn topk_count(elems: usize, k_permille: u16) -> usize {
    if elems == 0 {
        return 0;
    }
    ((elems as u64 * k_permille as u64) / 1000).clamp(1, elems as u64) as usize
}

/// Deterministic top-k coordinate selection: the `k` largest-|v| indices,
/// ties broken toward the lower index, returned in ascending index order.
/// Pure function of the values — every rank recomputing its own selection
/// (e.g. the fusion layer updating residuals) gets the same answer.
pub fn topk_indices(buf: &[f32], k: usize) -> Vec<u32> {
    let mut idx: Vec<u32> = (0..buf.len() as u32).collect();
    idx.sort_by(|&a, &b| {
        let (va, vb) = (buf[a as usize].abs(), buf[b as usize].abs());
        vb.total_cmp(&va).then(a.cmp(&b))
    });
    idx.truncate(k);
    idx.sort_unstable();
    idx
}

impl fmt::Display for WireFormat {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WireFormat::TopK { k_permille } => write!(f, "topk:{k_permille}"),
            other => f.write_str(other.label()),
        }
    }
}

impl FromStr for WireFormat {
    type Err = String;

    /// Case-insensitive; `topk` takes an optional `:<permille>` density
    /// (`topk:125` keeps 12.5% of coordinates).
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let unknown = || {
            format!(
                "unknown wire format `{s}` (expected one of: f32, bf16, fp16, \
                 topk, topk:<permille>)"
            )
        };
        let l = s.to_ascii_lowercase();
        match l.as_str() {
            "f32" => return Ok(WireFormat::F32),
            "bf16" => return Ok(WireFormat::Bf16),
            "fp16" | "f16" => return Ok(WireFormat::Fp16),
            "topk" => {
                return Ok(WireFormat::TopK {
                    k_permille: DEFAULT_TOPK_PERMILLE,
                })
            }
            _ => {}
        }
        if let Some(density) = l.strip_prefix("topk:") {
            let k: u16 = density.parse().map_err(|_| unknown())?;
            if !(1..=1000).contains(&k) {
                return Err(format!(
                    "top-k density `{density}`‰ out of range (expected 1..=1000)"
                ));
            }
            return Ok(WireFormat::TopK { k_permille: k });
        }
        Err(unknown())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bf16_round_trip_is_idempotent() {
        for &x in &[
            0.0f32,
            -0.0,
            1.0,
            -1.0,
            0.1,
            -3.75,
            1e-30,
            -1e30,
            f32::MAX,
            f32::MIN_POSITIVE,
            std::f32::consts::PI,
        ] {
            let once = bf16_to_f32(bf16_bits(x));
            let twice = bf16_to_f32(bf16_bits(once));
            assert_eq!(once.to_bits(), twice.to_bits(), "x = {x}");
        }
    }

    #[test]
    fn fp16_round_trip_is_idempotent() {
        for &x in &[
            0.0f32,
            -0.0,
            1.0,
            -1.0,
            0.1,
            -3.75,
            6.1e-5,  // near the subnormal boundary
            5.96e-8, // smallest subnormal half neighbourhood
            65504.0, // fp16 max
            std::f32::consts::PI,
        ] {
            let once = fp16_to_f32(fp16_bits(x));
            let twice = fp16_to_f32(fp16_bits(once));
            assert_eq!(once.to_bits(), twice.to_bits(), "x = {x}");
        }
    }

    #[test]
    fn rne_ties_round_to_even() {
        // 1 + 2^-8 sits exactly between the two bf16 neighbours 1.0 and
        // 1 + 2^-7; RNE keeps the even mantissa (1.0).
        let tie = 1.0f32 + 2.0_f32.powi(-8);
        assert_eq!(bf16_to_f32(bf16_bits(tie)), 1.0);
        // 1 + 3·2^-8 ties between 1 + 2^-7 and 1 + 2^-6: even is 1 + 2^-6.
        let tie_up = 1.0f32 + 3.0 * 2.0_f32.powi(-8);
        assert_eq!(bf16_to_f32(bf16_bits(tie_up)), 1.0 + 2.0_f32.powi(-6));
        // fp16: 1 + 2^-11 ties between 1.0 and 1 + 2^-10 — stays 1.0.
        let tie16 = 1.0f32 + 2.0_f32.powi(-11);
        assert_eq!(fp16_to_f32(fp16_bits(tie16)), 1.0);
    }

    #[test]
    fn fp16_overflow_saturates_to_inf_and_bf16_rounds_to_inf() {
        assert!(fp16_to_f32(fp16_bits(1e6)).is_infinite());
        assert!(fp16_to_f32(fp16_bits(-1e6)).is_infinite());
        assert!(fp16_to_f32(fp16_bits(-1e6)) < 0.0);
        // Largest f32 rounds up past the largest bf16 into inf under RNE.
        assert!(bf16_to_f32(bf16_bits(f32::MAX)).is_infinite());
        assert!(bf16_to_f32(bf16_bits(3.38e38)).is_finite());
    }

    #[test]
    fn fp16_gradual_underflow() {
        // 2^-24 is the smallest subnormal half.
        let tiny = 2.0_f32.powi(-24);
        assert_eq!(fp16_to_f32(fp16_bits(tiny)), tiny);
        // Below half of it, RNE underflows to zero.
        assert_eq!(fp16_to_f32(fp16_bits(2.0_f32.powi(-26))), 0.0);
        // Gradients keep their sign through underflow.
        assert!(fp16_to_f32(fp16_bits(-2.0_f32.powi(-26))).is_sign_negative());
    }

    #[test]
    fn nan_survives_both_encodings() {
        assert!(bf16_to_f32(bf16_bits(f32::NAN)).is_nan());
        assert!(fp16_to_f32(fp16_bits(f32::NAN)).is_nan());
    }

    #[test]
    fn quantize_matches_elementwise_round_trip_and_is_idempotent() {
        let src: Vec<f32> = (0..257).map(|i| (i as f32 * 0.37 - 40.0).exp2()).collect();
        for wire in [WireFormat::Bf16, WireFormat::Fp16] {
            let mut a = src.clone();
            wire.quantize(&mut a);
            let mut b = a.clone();
            wire.quantize(&mut b);
            assert_eq!(
                a.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                b.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                "{wire} quantize must be idempotent"
            );
        }
        let mut c = src.clone();
        WireFormat::F32.quantize(&mut c);
        assert_eq!(c, src);
    }

    #[test]
    fn encode_decode_round_trips_quantized_values_losslessly() {
        let src: Vec<f32> = (0..64).map(|i| (i as f32) * 0.31 - 9.5).collect();
        for wire in [WireFormat::F32, WireFormat::Bf16, WireFormat::Fp16] {
            let mut q = src.clone();
            wire.quantize(&mut q);
            let mut back = vec![0.0; q.len()];
            copy_out(&wire.encode(&q), &mut back);
            assert_eq!(bits_of(&q), bits_of(&back));
        }
    }

    fn bits_of(v: &[f32]) -> Vec<u32> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    /// The wire bits of a dense payload, whatever its format.
    fn payload_bits(p: &Payload) -> Vec<u32> {
        match p {
            Payload::F32(v) => bits_of(v),
            Payload::Half { bits, .. } => bits.iter().map(|&h| h as u32).collect(),
            other => panic!("not dense: {}", other.kind_name()),
        }
    }

    /// Why a hop may forward what it received instead of re-encoding its
    /// decoded copy: `enc(dec(enc(x))) == enc(x)` for every f32 `x` —
    /// every exponent and upper mantissa, with the low bits at the bf16
    /// and fp16 rounding ties and their neighbours, NaNs of both signs and
    /// any payload included.
    #[test]
    fn forwarding_an_encoded_value_is_exact() {
        for hi in 0..=0xFFFFu32 {
            for lo in [
                0u32, 1, 0x0FFF, 0x1000, 0x1001, 0x3000, 0x7FFF, 0x8000, 0x8001, 0xFFFF,
            ] {
                let x = f32::from_bits(hi << 16 | lo);
                let b = bf16_bits(x);
                assert_eq!(
                    bf16_bits(bf16_to_f32(b)),
                    b,
                    "bf16 x = {:#010x}",
                    x.to_bits()
                );
                let h = fp16_bits(x);
                assert_eq!(
                    fp16_bits(fp16_to_f32(h)),
                    h,
                    "fp16 x = {:#010x}",
                    x.to_bits()
                );
            }
        }
    }

    /// `combine_forward` is `combine` (in either operand order) followed
    /// by `encode`, bit for bit, and `copy_out` is the decode that leaves
    /// the payload as it arrived.
    #[test]
    fn combine_forward_equals_combine_then_encode() {
        let specials = [
            0.0f32,
            -0.0,
            1.0 + 2.0_f32.powi(-8),
            -(1.0 + 2.0_f32.powi(-11)),
            f32::INFINITY,
            f32::NEG_INFINITY,
            f32::from_bits(0x7fc0_0001),
            f32::from_bits(0xffa0_0002),
            f32::from_bits(0x0000_0003),
            2.0_f32.powi(-20),
            -3.75,
            65520.0,
        ];
        let n = specials.len();
        let acc0: Vec<f32> = (0..n * n).map(|i| specials[i / n]).collect();
        let src: Vec<f32> = (0..n * n).map(|i| specials[i % n]).collect();
        for wire in [WireFormat::F32, WireFormat::Bf16, WireFormat::Fp16] {
            let sent = wire.encode(&src);
            let mut incoming = vec![0.0; src.len()];
            copy_out(&sent, &mut incoming);
            for op in [ReduceOp::Sum, ReduceOp::Max, ReduceOp::Min] {
                for incoming_first in [false, true] {
                    let mut want = acc0.clone();
                    if incoming_first {
                        let mut first = incoming.clone();
                        op.combine(&mut first, &acc0);
                        want = first;
                    } else {
                        op.combine(&mut want, &incoming);
                    }
                    let mut acc = acc0.clone();
                    let fwd = combine_forward(sent.clone(), &mut acc, op, incoming_first);
                    let case = format!("{wire} {op:?} incoming_first={incoming_first}");
                    assert_eq!(bits_of(&acc), bits_of(&want), "{case}: accumulator");
                    assert_eq!(
                        payload_bits(&fwd),
                        payload_bits(&wire.encode(&want)),
                        "{case}: forwarded payload"
                    );
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "wire-format skew between ranks?")]
    fn a_non_dense_payload_is_a_format_skew() {
        copy_out(&Payload::Bytes(vec![0; 4]), &mut [0.0]);
    }

    #[test]
    fn wire_bytes_shrink_as_advertised() {
        let elems = 2 << 20; // 8 MiB dense
        assert_eq!(WireFormat::F32.wire_bytes(elems), 4 * elems as u64);
        assert_eq!(WireFormat::Bf16.wire_bytes(elems), 2 * elems as u64);
        assert_eq!(WireFormat::Fp16.wire_bytes(elems), 2 * elems as u64);
        let topk = WireFormat::TopK { k_permille: 100 };
        // 10% of coordinates at 8 bytes each = 20% of the dense bytes.
        assert_eq!(topk.wire_bytes(elems), 8 * (elems as u64 / 10));
        // Tiny buffers still send at least one coordinate.
        assert_eq!(topk.wire_bytes(3), 8);
        assert_eq!(topk.wire_bytes(0), 0);
    }

    #[test]
    fn topk_selection_is_deterministic_and_magnitude_ordered() {
        let buf = [0.5f32, -3.0, 0.0, 3.0, -0.25, 1.0];
        // |−3.0| and |3.0| tie: the lower index (1) wins first, but both
        // beat everything else; k=3 adds index 5 (1.0).
        assert_eq!(topk_indices(&buf, 3), vec![1, 3, 5]);
        assert_eq!(topk_indices(&buf, 1), vec![1]);
        assert_eq!(topk_indices(&buf, 0), Vec::<u32>::new());
        assert_eq!(topk_indices(&buf, 99).len(), buf.len());
    }

    #[test]
    fn topk_count_bounds() {
        assert_eq!(topk_count(1000, 50), 50);
        assert_eq!(topk_count(10, 50), 1, "floor clamps up to one coordinate");
        assert_eq!(topk_count(4, 1000), 4);
        assert_eq!(topk_count(0, 50), 0);
    }

    #[test]
    fn display_and_from_str_round_trip() {
        for wire in WireFormat::ALL {
            let s = wire.to_string();
            assert_eq!(s.parse::<WireFormat>().unwrap(), wire, "{s}");
        }
        assert_eq!("BF16".parse::<WireFormat>().unwrap(), WireFormat::Bf16);
        assert_eq!(
            "topk:125".parse::<WireFormat>().unwrap(),
            WireFormat::TopK { k_permille: 125 }
        );
        let err = "f64".parse::<WireFormat>().unwrap_err();
        assert!(err.contains("unknown wire format `f64`"), "{err}");
        assert!("topk:0".parse::<WireFormat>().is_err());
        assert!("topk:1001".parse::<WireFormat>().is_err());
    }
}
