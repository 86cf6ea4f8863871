//! The value ops, each defined once: every body that decides what a
//! REAL, INTEGER or LOGICAL op computes at the ends of its range. The
//! simulator's executors (the tree-walker, the vector lanes, the VM, its
//! kernels and lane batches) and the `PARAMETER` folder
//! ([`Unit::const_value`](crate::Unit::const_value)) call these, so the
//! next fix to one is made here. INTEGER arithmetic wraps modulo 2^64;
//! a zero divisor is `None`, which an executor turns into its fault.

use crate::{BinOp, UnOp, Value};
use std::cmp::Ordering;

/// `a + b`, wrapping.
#[inline]
pub fn add_i(a: i64, b: i64) -> i64 {
    a.wrapping_add(b)
}

/// `a - b`, wrapping.
#[inline]
pub fn sub_i(a: i64, b: i64) -> i64 {
    a.wrapping_sub(b)
}

/// `a * b`, wrapping.
#[inline]
pub fn mul_i(a: i64, b: i64) -> i64 {
    a.wrapping_mul(b)
}

/// `a / b`, truncating toward zero; `i64::MIN / -1` wraps to itself.
#[inline]
pub fn div_i(a: i64, b: i64) -> Option<i64> {
    (b != 0).then(|| a.wrapping_div(b))
}

/// `mod(a, b)`, with the sign of `a`; `mod(i64::MIN, -1)` is 0.
#[inline]
pub fn mod_i(a: i64, b: i64) -> Option<i64> {
    (b != 0).then(|| a.wrapping_rem(b))
}

/// `-a`, wrapping: `-i64::MIN` is itself.
#[inline]
pub fn neg_i(a: i64) -> i64 {
    a.wrapping_neg()
}

/// `abs(a)`, wrapping: `abs(i64::MIN)` is itself.
#[inline]
pub fn abs_i(a: i64) -> i64 {
    a.wrapping_abs()
}

/// INTEGER `sign(a, b)`, in integers so that every bit of `a` is kept
/// (`i64::MIN` wraps as [`neg_i`] does); -0.0 counts as positive.
#[inline]
pub fn sign_i(a: i64, b: f64) -> i64 {
    if b >= 0.0 {
        abs_i(a)
    } else {
        neg_i(abs_i(a))
    }
}

/// `a ** b` of two integers. For `b ≥ 0` the exact power modulo 2^64,
/// whatever the exponent. For `b < 0`, `1 / a ** -b` truncated: ±1 for
/// a base of ±1, 0 for any other, and `None` for `0 ** -k`.
#[inline]
pub fn pow_ii(a: i64, b: i64) -> Option<i64> {
    if b < 0 {
        return match a {
            0 => None,
            1 => Some(1),
            -1 => Some(if b % 2 == 0 { 1 } else { -1 }),
            _ => Some(0),
        };
    }
    // Square and multiply, over every bit of the exponent.
    let (mut base, mut e, mut acc) = (a, b as u64, 1i64);
    while e > 0 {
        if e & 1 == 1 {
            acc = mul_i(acc, base);
        }
        base = mul_i(base, base);
        e >>= 1;
    }
    Some(acc)
}

/// `x ** n`, a real base and an integer exponent: `powi` while the
/// exponent fits its `i32`. Past that the power is 0, 1 or infinite in
/// magnitude, `|x| ** n` as reals, and negative for a negative base and
/// an odd exponent (a real exponent that large is even).
#[inline]
pub fn pow_ri(x: f64, n: i64) -> f64 {
    match i32::try_from(n) {
        Ok(n) => x.powi(n),
        Err(_) => {
            let m = powf(x.abs(), n as f64);
            if x.is_sign_negative() && n % 2 != 0 {
                -m
            } else {
                m
            }
        }
    }
}

/// `x ** y` of two reals.
#[inline]
pub fn powf(x: f64, y: f64) -> f64 {
    x.powf(y)
}

/// A REAL as an INTEGER: truncated, saturating, a NaN 0.
#[inline]
pub fn trunc(x: f64) -> i64 {
    x.trunc() as i64
}

/// An INTEGER as a REAL, rounded to nearest past 2^53.
#[inline]
pub fn real_of_int(a: i64) -> f64 {
    a as f64
}

/// A LOGICAL as a REAL: 1 or 0.
#[inline]
pub fn real_of_bool(b: bool) -> f64 {
    f64::from(u8::from(b))
}

/// A LOGICAL as an INTEGER: 1 or 0.
#[inline]
pub fn int_of_bool(b: bool) -> i64 {
    b as i64
}

/// A REAL as a LOGICAL: non-zero (a NaN included) is `.true.`.
#[inline]
pub fn bool_of_real(x: f64) -> bool {
    x != 0.0
}

/// An INTEGER as a LOGICAL: non-zero is `.true.`.
#[inline]
pub fn bool_of_int(a: i64) -> bool {
    a != 0
}

/// Bit set of the `Ordering`s a comparison accepts (bit 0 `Less`, bit 1
/// `Equal`, bit 2 `Greater`); `None` for any other operator.
pub fn cmp_mask(op: BinOp) -> Option<u8> {
    Some(match op {
        BinOp::Eq => 0b010,
        BinOp::Ne => 0b101,
        BinOp::Lt => 0b001,
        BinOp::Le => 0b011,
        BinOp::Gt => 0b100,
        BinOp::Ge => 0b110,
        _ => return None,
    })
}

/// Two reals against a [`cmp_mask`]. An unordered pair (a NaN on either
/// side) reads `Equal`, so `.le.` and `.ge.` hold on it.
#[inline]
pub fn cmp_r(mask: u8, a: f64, b: f64) -> bool {
    accepts(mask, a.partial_cmp(&b).unwrap_or(Ordering::Equal))
}

/// Two integers against a [`cmp_mask`], exactly.
#[inline]
pub fn cmp_i(mask: u8, a: i64, b: i64) -> bool {
    accepts(mask, a.cmp(&b))
}

#[inline]
fn accepts(mask: u8, ord: Ordering) -> bool {
    (mask >> (ord as i8 + 1)) & 1 != 0
}

/// A binary operator over boxed values. Two integers stay integral for
/// `+ - * / **` and compare as integers; any other pair promotes to
/// REAL, but for a real base's integer exponent ([`pow_ri`]). `Err` is
/// the message of a division by zero.
pub fn bin(op: BinOp, l: Value, r: Value) -> Result<Value, &'static str> {
    use BinOp::*;
    if let Some(mask) = cmp_mask(op) {
        return Ok(Value::B(match (l, r) {
            (Value::I(a), Value::I(b)) => cmp_i(mask, a, b),
            (a, b) => cmp_r(mask, a.as_f64(), b.as_f64()),
        }));
    }
    let (a, b) = (l.as_f64(), r.as_f64());
    Ok(match (op, l, r) {
        (And, ..) => Value::B(l.as_bool() && r.as_bool()),
        (Or, ..) => Value::B(l.as_bool() || r.as_bool()),
        (Eqv, ..) => Value::B(l.as_bool() == r.as_bool()),
        (Neqv, ..) => Value::B(l.as_bool() != r.as_bool()),
        (Add, Value::I(x), Value::I(y)) => Value::I(add_i(x, y)),
        (Sub, Value::I(x), Value::I(y)) => Value::I(sub_i(x, y)),
        (Mul, Value::I(x), Value::I(y)) => Value::I(mul_i(x, y)),
        (Div, Value::I(x), Value::I(y)) => Value::I(div_i(x, y).ok_or("integer division by zero")?),
        (Pow, Value::I(x), Value::I(y)) => Value::I(pow_ii(x, y).ok_or("0 ** negative")?),
        (Pow, _, Value::I(n)) => Value::R(pow_ri(a, n)),
        (Add, ..) => Value::R(a + b),
        (Sub, ..) => Value::R(a - b),
        (Mul, ..) => Value::R(a * b),
        (Div, ..) => Value::R(a / b),
        _ => Value::R(powf(a, b)),
    })
}

/// A unary operator over a boxed value: `-(.true.)` is the integer -1.
pub fn un(op: UnOp, v: Value) -> Value {
    match (op, v) {
        (UnOp::Neg, Value::R(a)) => Value::R(-a),
        (UnOp::Neg, v) => Value::I(neg_i(v.as_i64())),
        (UnOp::Not, v) => Value::B(!v.as_bool()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn integer_powers_are_exact_modulo_two_to_the_64() {
        let pow = |a, b| pow_ii(a, b).unwrap();
        // Every exponent counts, not only the first 63.
        assert_eq!(pow(-1, 64), 1);
        assert_eq!(pow(-1, 65), -1);
        assert_eq!(pow(-1, i64::MAX), -1);
        assert_eq!(pow(1, i64::MAX), 1);
        assert_eq!(pow(2, 64), 0);
        assert_eq!(pow(3, 64), 3i64.wrapping_pow(64));
        assert_eq!(pow(3, 1 << 40), pow_by_loop(3, 1 << 40));
        assert_eq!(pow(0, 0), 1);
        assert_eq!(pow(7, 5), 16807);
        assert_eq!(pow(-2, 63), i64::MIN);
        // Negative exponents truncate toward zero; 0 ** -k divides by 0.
        assert_eq!(pow(-1, -3), -1);
        assert_eq!(pow(-1, -4), 1);
        assert_eq!(pow(1, i64::MIN), 1);
        assert_eq!(pow(2, -1), 0);
        assert_eq!(pow(i64::MIN, -1), 0);
        assert_eq!(pow_ii(0, -2), None);
        assert_eq!(bin(BinOp::Pow, Value::I(0), Value::I(-2)), Err("0 ** negative"));
    }

    /// `a ** b` modulo 2^64 by halving `b`, the long way.
    fn pow_by_loop(a: i64, mut b: u64) -> i64 {
        let mut square = a;
        let mut acc = 1i64;
        while b > 0 {
            if b % 2 == 1 {
                acc = acc.wrapping_mul(square);
            }
            square = square.wrapping_mul(square);
            b /= 2;
        }
        acc
    }

    #[test]
    fn real_powers_keep_an_exponent_past_i32() {
        assert_eq!(pow_ri(2.0, 4_294_967_296), f64::INFINITY);
        assert_eq!(pow_ri(2.0, -4_294_967_296), 0.0);
        assert_eq!(pow_ri(0.5, 4_294_967_296), 0.0);
        assert_eq!(pow_ri(-1.0, 4_294_967_297), -1.0);
        assert_eq!(pow_ri(-1.0, (1 << 53) + 1), -1.0);
        assert_eq!(pow_ri(-2.0, (1 << 53) + 1), f64::NEG_INFINITY);
        assert_eq!(pow_ri(-2.0, 1 << 53), f64::INFINITY);
        assert_eq!(pow_ri(1.0, i64::MIN), 1.0);
        assert_eq!(pow_ri(-0.0, -4_294_967_297).to_bits(), f64::NEG_INFINITY.to_bits());
        // Within `i32` the bits are `powi`'s at run time (which the
        // compiler folding it as a constant need not give).
        for (x, n) in [(1.1f64, 7), (-3.5, 3), (0.9, -12), (2.0, i32::MAX as i64)] {
            let x = std::hint::black_box(x);
            assert_eq!(pow_ri(x, n).to_bits(), x.powi(n as i32).to_bits(), "{x} ** {n}");
        }
        // A logical or an integer base reads as a real.
        assert_eq!(bin(BinOp::Pow, Value::B(true), Value::I(1 << 40)), Ok(Value::R(1.0)));
    }

    #[test]
    fn division_truncates_wraps_and_faults_on_zero() {
        assert_eq!((div_i(7, 2), div_i(-7, 2), div_i(1, 0)), (Some(3), Some(-3), None));
        assert_eq!((mod_i(7, 3), mod_i(-7, 3), mod_i(1, 0)), (Some(1), Some(-1), None));
        assert_eq!((div_i(i64::MIN, -1), mod_i(i64::MIN, -1)), (Some(i64::MIN), Some(0)));
        assert_eq!((neg_i(i64::MIN), abs_i(i64::MIN)), (i64::MIN, i64::MIN));
        assert_eq!((sign_i(i64::MIN, -1.0), sign_i(5, -0.0)), (i64::MIN, 5));
    }

    #[test]
    fn conversions_truncate_saturate_and_read_non_zero_as_true() {
        assert_eq!([trunc(2.9), trunc(-2.9), trunc(f64::NAN)], [2, -2, 0]);
        assert_eq!([trunc(f64::INFINITY), trunc(-1e300)], [i64::MAX, i64::MIN]);
        assert!(bool_of_real(f64::NAN) && !bool_of_real(-0.0) && bool_of_int(-1));
        assert_eq!((real_of_bool(true), int_of_bool(true)), (1.0, 1));
    }

    #[test]
    fn comparisons_read_an_unordered_pair_as_equal() {
        let nan = Value::R(f64::NAN);
        let cmp = |op, l, r| bin(op, l, r).unwrap();
        assert_eq!(cmp(BinOp::Le, nan, Value::R(1.0)), Value::B(true));
        assert_eq!(cmp(BinOp::Ne, nan, nan), Value::B(false));
        assert_eq!(cmp(BinOp::Lt, Value::I(i64::MAX - 1), Value::I(i64::MAX)), Value::B(true));
        assert_eq!(cmp(BinOp::Eqv, Value::B(true), Value::B(false)), Value::B(false));
    }
}
