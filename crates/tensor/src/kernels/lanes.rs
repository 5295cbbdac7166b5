//! Lane-parallel `tanh`, `exp` and `sigmoid`: the float operations the
//! platform libm runs for an input, run for sixteen inputs at once.
//!
//! `f32::tanh` and `f32::exp` call glibc's `tanhf` and `expf`. Those are
//! short sequences of IEEE operations — adds, multiplies, divides, int/float
//! conversions, a table read and, in `expf`, fused multiply-adds — selected
//! by branches on the input's bits. The functions below write each sequence
//! out once per element with every branch computed and the taken one kept
//! by a select, so the element loop has no control flow and the compiler
//! runs it in vector lanes. A lane performs the same operations, in the same
//! order and at the same precision, as libm does for that input, so the
//! result has the same bits ([`unary_eval`] stays the reference, and
//! `exhaustive_sweep_lane_copies_equal_libm` compares every one of the 2³²
//! inputs).
//!
//! * `tanh` is fdlibm's `tanhf` over fdlibm's `expm1f` (glibc 2.36 ships
//!   both, compiled without FMA). Of `expm1f`'s paths, `tanhf` reaches only
//!   `k ∈ {0, −1, −2, −3}` (argument `−2|x|`, `|x| < 1`) and `k ∈ [3, 63]`
//!   (argument `2|x|`, `1 ≤ |x| < 22`).
//! * `exp` is glibc's `e_expf.c` as its ifunc runs it on a CPU with AVX2
//!   and FMA: the build compiled with fused multiply-adds, five of them,
//!   each a `mul_add` here. They are libm's own arithmetic, not a
//!   contraction of the model's, and the lane `exp` only runs where glibc
//!   runs that build.
//! * `sigmoid` is `1 / (1 + exp(−x))`, as [`unary_eval`] writes it.
//!
//! A lane goes through [`unary_eval`] instead when its input is not covered:
//! non-finite, `|x| < 2⁻²⁴` for `tanh` (fdlibm's tiny-argument paths), or
//! `|x| ≥ 88` for `exp` and `sigmoid` (the overflow and underflow paths).

use super::ops::{detect, unary_eval, Isa, Unary};

/// Elements per pass: one 512-bit vector of `f32`, two 256-bit ones.
const CHUNK: usize = 16;

// fdlibm `expm1f`.
const LN2_HI: f32 = f32::from_bits(0x3f31_7180);
const LN2_LO: f32 = f32::from_bits(0x3717_f7d1);
const INV_LN2: f32 = f32::from_bits(0x3fb8_aa3b);
const Q1: f32 = f32::from_bits(0xbd08_8889);
const Q2: f32 = f32::from_bits(0x3ad0_0d01);
const Q3: f32 = f32::from_bits(0xb8a6_70cd);
const Q4: f32 = f32::from_bits(0x3686_7e54);
const Q5: f32 = f32::from_bits(0xb457_edbb);

// glibc `e_expf.c`, N = 32.
const INV_LN2_N: f64 = f64::from_bits(0x4047_1547_652b_82fe); // 0x1.71547652b82fep+5
const SHIFT: f64 = f64::from_bits(0x4338_0000_0000_0000); // 0x1.8p52
const C0: f64 = f64::from_bits(0x3ebc_6af8_4b91_2394); // 0x1.c6af84b912394p-20
const C1: f64 = f64::from_bits(0x3f2e_bfce_50fa_c4f3); // 0x1.ebfce50fac4f3p-13
const C2: f64 = f64::from_bits(0x3f96_2e42_ff0c_52d6); // 0x1.62e42ff0c52d6p-6
/// `asuint64(2^(i/32)) − (i << 47)`, glibc's `__exp2f_data.tab`.
#[rustfmt::skip]
const EXP_TAB: [u64; 32] = [
    0x3ff0000000000000, 0x3fefd9b0d3158574, 0x3fefb5586cf9890f, 0x3fef9301d0125b51,
    0x3fef72b83c7d517b, 0x3fef54873168b9aa, 0x3fef387a6e756238, 0x3fef1e9df51fdee1,
    0x3fef06fe0a31b715, 0x3feef1a7373aa9cb, 0x3feedea64c123422, 0x3feece086061892d,
    0x3feebfdad5362a27, 0x3feeb42b569d4f82, 0x3feeab07dd485429, 0x3feea47eb03a5585,
    0x3feea09e667f3bcd, 0x3fee9f75e8ec5f74, 0x3feea11473eb0187, 0x3feea589994cce13,
    0x3feeace5422aa0db, 0x3feeb737b0cdc5e5, 0x3feec49182a3f090, 0x3feed503b23e255d,
    0x3feee89f995ad3ad, 0x3feeff76f2fb5e47, 0x3fef199bdd85529c, 0x3fef3720dcef9069,
    0x3fef5818dcfba487, 0x3fef7c97337b9b5f, 0x3fefa4afa2a490da, 0x3fefd0765b6e4540,
];

/// `tanh` inputs a lane computes: finite and `|x| ≥ 2⁻²⁴`.
#[inline(always)]
fn tanh_covered(x: f32) -> bool {
    let ix = x.to_bits() & 0x7fff_ffff;
    (0x3380_0000..0x7f80_0000).contains(&ix)
}

/// `exp` inputs a lane computes: `top12(|x|) < top12(88)`, i.e. `|x| < 88`.
#[inline(always)]
fn exp_covered(x: f32) -> bool {
    (x.to_bits() >> 20) & 0x7ff < 0x42b
}

/// fdlibm `expm1f` on the arguments [`tanh_lane`] passes it.
#[inline(always)]
fn expm1_for_tanh(x: f32) -> f32 {
    let hx = x.to_bits() & 0x7fff_ffff;
    let half = if x < 0.0 { -0.5 } else { 0.5 };
    // Truncated toward zero, as libm's `cvttss2si`. A covered lane's is
    // below 64 in magnitude; the rest (NaN included) are zeroed first, so
    // every lane converts in range without a per-lane saturation check.
    let kf = INV_LN2 * x + half;
    let kf = if kf.abs() < 128.0 { kf } else { 0.0 };
    // SAFETY: `kf` is finite and |kf| < 128, so its truncation fits an i32.
    let k_round: i32 = unsafe { kf.to_int_unchecked() };
    let k = if hx <= 0x3eb1_7218 {
        0 // |x| ≤ ln2 / 2: no reduction
    } else if hx < 0x3f85_1592 {
        if x < 0.0 {
            -1
        } else {
            1
        }
    } else {
        k_round
    };
    // At k = 0 this leaves x as it is, and at k = ±1 it is libm's
    // `x ∓ ln2_hi`, `±ln2_lo`: `k · ln2_{hi,lo}` is exact there.
    let t = k as f32;
    let hi = x - t * LN2_HI;
    let lo = t * LN2_LO;
    let x = hi - lo;
    let c = (hi - x) - lo;

    let hfx = 0.5 * x;
    let hxs = x * hfx;
    let r1 = 1.0 + hxs * (Q1 + hxs * (Q2 + hxs * (Q3 + hxs * (Q4 + hxs * Q5))));
    let t = 3.0 - r1 * hfx;
    let e = hxs * ((r1 - t) / (6.0 - x * t));
    let y_k0 = x - (x * e - hxs);

    let e = (x * (e - c) - c) - hxs;
    let y_km1 = 0.5 * (x - e) - 0.5;
    let scale = |y: f32| f32::from_bits(y.to_bits().wrapping_add((k as u32) << 23));
    let y_far = scale(1.0 - (e - x)) - 1.0;
    let t_lo = f32::from_bits(0x3f80_0000 - 0x0100_0000u32.wrapping_shr(k as u32));
    let y_lo = scale(t_lo - (e - x));
    let t_mid = f32::from_bits(0x7fu32.wrapping_sub(k as u32).wrapping_shl(23));
    let y_mid = scale(x - (e + t_mid) + 1.0);
    if k == 0 {
        y_k0
    } else if k == -1 {
        y_km1
    } else if k <= -2 || k > 56 {
        y_far
    } else if k < 23 {
        y_lo
    } else {
        y_mid
    }
}

/// fdlibm `tanhf` for a covered `x`: `1 − 2 / (expm1(2|x|) + 2)` at
/// `|x| ≥ 1`, `−t / (t + 2)` with `t = expm1(−2|x|)` below. The branch is
/// taken on the argument and the numerator, so each lane runs one `expm1`
/// and one divide, as libm does.
#[inline(always)]
fn tanh_lane(x: f32) -> f32 {
    let ix = x.to_bits() & 0x7fff_ffff;
    let ax = f32::from_bits(ix);
    let big = ix >= 0x3f80_0000;
    let t = expm1_for_tanh(if big { 2.0 * ax } else { -2.0 * ax });
    let q = (if big { 2.0 } else { -t }) / (t + 2.0);
    let z = if big { 1.0 - q } else { q };
    // |x| ≥ 22: libm's `1 - 1e-30`, which rounds to 1.
    let z = if ix >= 0x41b0_0000 { 1.0 } else { z };
    if x.is_sign_negative() {
        -z
    } else {
        z
    }
}

/// glibc `expf` (FMA build) for a covered `x`.
#[inline(always)]
fn exp_lane(x: f32) -> f32 {
    let xd = x as f64;
    let kd = INV_LN2_N.mul_add(xd, SHIFT);
    let ki = kd.to_bits();
    let kd = kd - SHIFT;
    let r = INV_LN2_N.mul_add(xd, -kd);
    let s = f64::from_bits(EXP_TAB[(ki & 31) as usize].wrapping_add(ki << 47));
    let z = C0.mul_add(r, C1);
    let r2 = r * r;
    let y = C2.mul_add(r, 1.0);
    let y = z.mul_add(r2, y);
    (y * s) as f32
}

/// One lane op: its reference variant, the inputs a lane computes, and the
/// lane itself. Called as `L::lane(v)` — a direct call the compiler always
/// inlines into the copy's loop, where a function passed by value would
/// stay an out-of-line call compiled for no vector unit at all.
trait LaneOp {
    const OP: Unary;
    fn covered(x: f32) -> bool;
    fn lane(x: f32) -> f32;
}

struct Tanh;
struct Exp;
struct Sigmoid;

impl LaneOp for Tanh {
    const OP: Unary = Unary::Tanh;
    #[inline(always)]
    fn covered(x: f32) -> bool {
        tanh_covered(x)
    }
    #[inline(always)]
    fn lane(x: f32) -> f32 {
        tanh_lane(x)
    }
}

impl LaneOp for Exp {
    const OP: Unary = Unary::Exp;
    #[inline(always)]
    fn covered(x: f32) -> bool {
        exp_covered(x)
    }
    #[inline(always)]
    fn lane(x: f32) -> f32 {
        exp_lane(x)
    }
}

impl LaneOp for Sigmoid {
    const OP: Unary = Unary::Sigmoid;
    #[inline(always)]
    fn covered(x: f32) -> bool {
        exp_covered(x)
    }
    #[inline(always)]
    fn lane(x: f32) -> f32 {
        1.0 / (1.0 + exp_lane(-x))
    }
}

/// Maps one chunk in place: every lane through `L::lane`, then the few that
/// `L::covered` rejects again through [`unary_eval`].
#[inline(always)]
fn map_chunk<L: LaneOp>(chunk: &mut [f32; CHUNK]) {
    let xin = *chunk;
    let mut all_covered = true;
    for (o, &v) in chunk.iter_mut().zip(&xin) {
        *o = L::lane(v);
        all_covered &= L::covered(v);
    }
    if !all_covered {
        for (o, &v) in chunk.iter_mut().zip(&xin) {
            if !L::covered(v) {
                *o = unary_eval(L::OP, v);
            }
        }
    }
}

/// Maps `x` in place, [`CHUNK`] elements a pass; a short last pass is
/// padded with ones, which every lane op covers.
#[inline(always)]
fn map_chunks<L: LaneOp>(x: &mut [f32]) {
    let (chunks, rest) = x.as_chunks_mut::<CHUNK>();
    for chunk in chunks {
        map_chunk::<L>(chunk);
    }
    if !rest.is_empty() {
        let mut padded = [1.0f32; CHUNK];
        padded[..rest.len()].copy_from_slice(rest);
        map_chunk::<L>(&mut padded);
        rest.copy_from_slice(&padded[..rest.len()]);
    }
}

/// The ops that have a lane kernel.
#[derive(Clone, Copy, Debug)]
enum LaneFn {
    Tanh,
    Exp,
    Sigmoid,
}

/// The one source of every lane copy.
#[inline(always)]
fn lanes_inplace(op: LaneFn, x: &mut [f32]) {
    match op {
        LaneFn::Tanh => map_chunks::<Tanh>(x),
        LaneFn::Exp => map_chunks::<Exp>(x),
        LaneFn::Sigmoid => map_chunks::<Sigmoid>(x),
    }
}

/// [`lanes_inplace`] compiled for AVX-512 (sixteen lanes). Calling it from
/// code not itself compiled for AVX-512 is `unsafe`: the CPU must have
/// `avx512f`, `avx2` and `fma`.
#[target_feature(enable = "avx512f,avx2,fma")]
fn lanes_avx512(op: LaneFn, x: &mut [f32]) {
    lanes_inplace(op, x)
}

/// [`lanes_inplace`] compiled for AVX2 with FMA (eight lanes). Calling it
/// from code not itself compiled for those is `unsafe`: the CPU must have
/// `avx2` and `fma`.
#[target_feature(enable = "avx2,fma")]
fn lanes_avx2(op: LaneFn, x: &mut [f32]) {
    lanes_inplace(op, x)
}

/// A lane kernel this CPU can run: one op on one compiled copy.
#[derive(Clone, Copy, Debug)]
pub(super) struct Lanes {
    op: LaneFn,
    avx512: bool,
}

impl Lanes {
    /// The lane kernel of `op` on the copy `isa` names — `None` when `op`
    /// has none, `isa` is the baseline, or `isa` is wider than what
    /// [`detect`] reports for this CPU.
    pub(super) fn new(isa: Isa, op: Unary) -> Option<Self> {
        let op = match op {
            Unary::Tanh => LaneFn::Tanh,
            Unary::Exp => LaneFn::Exp,
            Unary::Sigmoid => LaneFn::Sigmoid,
            _ => return None,
        };
        match isa {
            _ if isa > detect() => None,
            Isa::Baseline => None,
            Isa::Avx2 => Some(Self { op, avx512: false }),
            Isa::Avx512 => Some(Self { op, avx512: true }),
        }
    }

    /// Maps `x` in place.
    pub(super) fn run(self, x: &mut [f32]) {
        // SAFETY: `new` builds a `Lanes` only for a copy no wider than
        // `detect()`, which names a copy only when `is_x86_feature_detected!`
        // reports every feature it is compiled for; an AVX-512 CPU has all
        // of the AVX2 copy's too.
        unsafe {
            if self.avx512 {
                lanes_avx512(self.op, x)
            } else {
                lanes_avx2(self.op, x)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const OPS: [Unary; 3] = [Unary::Tanh, Unary::Exp, Unary::Sigmoid];

    /// Every lane copy this CPU can run: `ops::unary` runs only the one
    /// `detect()` picks, so the sweeps call each copy directly.
    fn lane_copies() -> Vec<Isa> {
        match detect() {
            Isa::Baseline => vec![],
            Isa::Avx2 => vec![Isa::Avx2],
            Isa::Avx512 => vec![Isa::Avx2, Isa::Avx512],
        }
    }

    /// Indices and bits of the elements where the lane copy differs from
    /// [`unary_eval`] (libm), at most `limit` of them.
    fn mismatches(isa: Isa, op: Unary, xs: &[f32], limit: usize) -> Vec<String> {
        let mut got = xs.to_vec();
        Lanes::new(isa, op).unwrap().run(&mut got);
        xs.iter()
            .zip(&got)
            .filter(|&(&x, &y)| y.to_bits() != unary_eval(op, x).to_bits())
            .take(limit)
            .map(|(&x, &y)| {
                let want = unary_eval(op, x);
                format!(
                    "{op:?} on {isa:?}: x = {:#010x} ({x:e}) gives {y:e}, libm {want:e}",
                    x.to_bits()
                )
            })
            .collect()
    }

    /// The branch thresholds of `tanhf`, `expm1f` (at the `x` whose `±2x`
    /// meets them) and `expf`, and the covered-range cut-offs, each ±2 ulp;
    /// zeros, subnormals, the largest finite value, non-finites and two
    /// inputs that pin `exp`'s fused multiply-add; all of both signs.
    fn edge_inputs() -> Vec<f32> {
        let tanhf = [0x41b0_0000u32, 0x3f80_0000, 0x2400_0000, 0x3380_0000];
        let expm1f = [
            0x4195_b844u32,
            0x42b1_7218,
            0x3eb1_7218,
            0x3f85_1592,
            0x3300_0000,
        ];
        let expf = [0x42b0_0000u32, 0x42b1_7217, 0x42cf_f1b4, 0x42ce_8ec0];
        let centres = tanhf
            .into_iter()
            .chain(expm1f)
            .chain(expm1f.map(|b| b - 0x0080_0000))
            .chain(expf);
        let mut bits: Vec<u32> = centres.flat_map(|b| b - 2..=b + 2).collect();
        bits.extend([0, 1, 2, 0x0040_0000, 0x007f_ffff, 0x0080_0000, 0x7f7f_ffff]);
        bits.extend([0x7f80_0000, 0x7f80_0001, 0x7fc0_0000, 0x7fff_ffff]);
        // The two inputs where `exp` needs the fused `r` of glibc's FMA
        // build: with `r = InvLn2N · x − kd` rounded twice, only these differ.
        bits.extend([0x4202_422f, 0x427c_65d9]);
        let signed = bits.iter().flat_map(|&b| [b, b | 0x8000_0000]);
        signed.map(f32::from_bits).collect()
    }

    #[test]
    fn sampled_sweep_lane_copies_equal_libm() {
        let mut xs: Vec<f32> = (0..=u32::MAX).step_by(65_537).map(f32::from_bits).collect();
        xs.extend(edge_inputs());
        for isa in lane_copies() {
            for op in OPS {
                let bad = mismatches(isa, op, &xs, 8);
                assert!(bad.is_empty(), "{}", bad.join("\n"));
                // Slices of every length around a chunk, starting anywhere:
                // covered and uncovered lanes mixed within one pass, and
                // a short last pass.
                for len in [1, 2, 15, 16, 17, 31, 33] {
                    for start in (0..xs.len() - len).step_by(997) {
                        let bad = mismatches(isa, op, &xs[start..start + len], 1);
                        assert!(bad.is_empty(), "len {len} at {start}: {}", bad[0]);
                    }
                }
            }
        }
        println!("lane copies compared: {:?}", lane_copies());
    }

    /// All 2³² inputs of each lane op, on each lane copy, against libm: the
    /// proof behind "not one bit moved". ≈ 3 min in a release build on two
    /// cores; run it with
    /// `cargo test -p logcl-tensor --release -- --ignored exhaustive`.
    #[test]
    #[ignore = "all 2^32 inputs; run in release with `-- --ignored exhaustive`"]
    fn exhaustive_sweep_lane_copies_equal_libm() {
        use std::sync::atomic::{AtomicU32, Ordering};
        const BLOCK: u32 = 1 << 16;
        let copies = lane_copies();
        let next = AtomicU32::new(0);
        let workers = std::thread::available_parallelism()
            .map_or(1, |n| n.get())
            .min(8);
        let bad: Vec<String> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..workers)
                .map(|_| {
                    scope.spawn(|| {
                        let mut bad = Vec::new();
                        let mut xs = vec![0.0f32; BLOCK as usize];
                        let mut got = xs.clone();
                        loop {
                            let block = next.fetch_add(1, Ordering::Relaxed);
                            if block > u32::MAX / BLOCK || bad.len() >= 8 {
                                return bad;
                            }
                            for (i, x) in xs.iter_mut().enumerate() {
                                *x = f32::from_bits(block * BLOCK + i as u32);
                            }
                            for op in OPS {
                                let want: Vec<u32> =
                                    xs.iter().map(|&x| unary_eval(op, x).to_bits()).collect();
                                for &isa in &copies {
                                    got.copy_from_slice(&xs);
                                    Lanes::new(isa, op).unwrap().run(&mut got);
                                    if !got.iter().map(|y| y.to_bits()).eq(want.iter().copied()) {
                                        bad.extend(mismatches(isa, op, &xs, 8));
                                    }
                                }
                            }
                        }
                    })
                })
                .collect();
            handles
                .into_iter()
                .flat_map(|h| h.join().unwrap())
                .collect()
        });
        assert!(bad.is_empty(), "{}", bad.join("\n"));
        println!("all 2^32 inputs of {OPS:?} equal libm on {copies:?}");
    }
}
