//! Scalar value operations with Fortran semantics, and the **class
//! rule** that goes with them: the class (`R`/`I`/`B`) of every result
//! is a function of the operand classes alone, never of the values.
//! The bytecode compiler types scalar code with it and the vector lanes
//! (`crate::lanes`) tag a whole operand buffer with it once.

use crate::error::{OpError, SimErrorKind};
use cedar_ir::{pow_ii, pow_ri, BinOp, Intrinsic, Ty, UnOp, Value};
use std::cmp::Ordering;

/// Static type of a value, and the payload type of a storage slot.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Class {
    /// REAL / DOUBLE PRECISION (`f64`).
    R,
    /// INTEGER (`i64`).
    I,
    /// LOGICAL (`bool`).
    B,
}

impl Class {
    pub(crate) fn of(ty: Ty) -> Class {
        match ty {
            Ty::Real | Ty::Double => Class::R,
            Ty::Int => Class::I,
            Ty::Logical => Class::B,
        }
    }

    pub(crate) fn of_value(v: Value) -> Class {
        match v {
            Value::R(_) => Class::R,
            Value::I(_) => Class::I,
            Value::B(_) => Class::B,
        }
    }
}

/// Bit set of the `Ordering`s a comparison accepts (bit 0 `Less`, bit 1
/// `Equal`, bit 2 `Greater`); `None` for any other operator.
pub(crate) fn cmp_mask(op: BinOp) -> Option<u8> {
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

/// Does a [`cmp_mask`] accept this ordering?
#[inline]
pub(crate) fn mask_accepts(mask: u8, ord: Ordering) -> bool {
    (mask >> (ord as i8 + 1)) & 1 != 0
}

/// How [`bin`] orders two non-integer operands: an unordered pair (a
/// NaN on either side) reads `Equal`, so `.le.` and `.ge.` hold on it.
#[inline]
pub(crate) fn cmp_f64(a: f64, b: f64) -> Ordering {
    a.partial_cmp(&b).unwrap_or(Ordering::Equal)
}

/// The class of `bin(op, l, r)`: comparisons and the logical operators
/// yield `B`, two integers stay integral, anything else promotes to `R`.
pub(crate) fn bin_class(op: BinOp, l: Class, r: Class) -> Class {
    use BinOp::*;
    match op {
        Add | Sub | Mul | Div | Pow if l == Class::I && r == Class::I => Class::I,
        Add | Sub | Mul | Div | Pow => Class::R,
        _ => Class::B,
    }
}

/// The class of `un(op, v)`: `-(.true.)` is the integer -1.
pub(crate) fn un_class(op: UnOp, c: Class) -> Class {
    match (op, c) {
        (UnOp::Neg, Class::R) => Class::R,
        (UnOp::Neg, _) => Class::I,
        (UnOp::Not, _) => Class::B,
    }
}

/// The class of an elemental intrinsic's result over arguments of the
/// given classes — the dynamic rule of [`intrinsic`], decided
/// statically. `None` for intrinsics that are not elemental and for
/// argument lists [`intrinsic`] rejects.
pub(crate) fn intrinsic_class(f: Intrinsic, args: &[Class]) -> Option<Class> {
    use Intrinsic::*;
    let int = |k: usize| args.get(k) == Some(&Class::I);
    let int_if = |yes: bool| if yes { Class::I } else { Class::R };
    if args.is_empty() {
        return None;
    }
    Some(match f {
        Abs => int_if(int(0)),
        Sqrt | Exp | Log | Log10 | Sin | Cos | Tan | Atan | Sinh | Cosh | Tanh | Real | Dble => {
            Class::R
        }
        Atan2 if args.len() >= 2 => Class::R,
        Sign if args.len() >= 2 => int_if(int(0)),
        Mod if args.len() >= 2 => int_if(int(0) && int(1)),
        Min | Max => int_if(args.iter().all(|&c| c == Class::I)),
        Int | Nint => Class::I,
        _ => return None,
    })
}

fn div_zero(msg: &str) -> OpError {
    OpError::new(SimErrorKind::DivByZero, msg)
}

fn type_err(msg: String) -> OpError {
    OpError::new(SimErrorKind::TypeError, msg)
}

/// Apply a binary operator. Integer pairs stay integral for `+ - * /`
/// (Fortran integer division truncates); any real operand promotes.
pub fn bin(op: BinOp, l: Value, r: Value) -> Result<Value, OpError> {
    use BinOp::*;
    Ok(match op {
        Add | Sub | Mul | Div => match (l, r) {
            (Value::I(a), Value::I(b)) => Value::I(match op {
                Add => a.wrapping_add(b),
                Sub => a.wrapping_sub(b),
                Mul => a.wrapping_mul(b),
                Div => {
                    if b == 0 {
                        return Err(div_zero("integer division by zero"));
                    }
                    a.wrapping_div(b)
                }
                _ => unreachable!(),
            }),
            (a, b) => {
                let (a, b) = (a.as_f64(), b.as_f64());
                Value::R(match op {
                    Add => a + b,
                    Sub => a - b,
                    Mul => a * b,
                    Div => a / b,
                    _ => unreachable!(),
                })
            }
        },
        Pow => match (l, r) {
            (Value::I(a), Value::I(b)) => {
                Value::I(pow_ii(a, b).ok_or_else(|| div_zero("0 ** negative"))?)
            }
            (a, Value::I(b)) => Value::R(pow_ri(a.as_f64(), b)),
            (a, b) => Value::R(a.as_f64().powf(b.as_f64())),
        },
        Eq | Ne | Lt | Le | Gt | Ge => {
            let mask = cmp_mask(op).expect("the arm lists the comparisons");
            Value::B(mask_accepts(mask, cmp(l, r)))
        }
        And => Value::B(l.as_bool() && r.as_bool()),
        Or => Value::B(l.as_bool() || r.as_bool()),
        Eqv => Value::B(l.as_bool() == r.as_bool()),
        Neqv => Value::B(l.as_bool() != r.as_bool()),
    })
}

fn cmp(l: Value, r: Value) -> Ordering {
    match (l, r) {
        (Value::I(a), Value::I(b)) => a.cmp(&b),
        (a, b) => cmp_f64(a.as_f64(), b.as_f64()),
    }
}

/// Apply a unary operation with Fortran semantics.
pub fn un(op: UnOp, v: Value) -> Value {
    match op {
        UnOp::Neg => match v {
            Value::I(a) => Value::I(a.wrapping_neg()),
            Value::R(a) => Value::R(-a),
            Value::B(b) => Value::I(-(b as i64)),
        },
        UnOp::Not => Value::B(!v.as_bool()),
    }
}

/// Evaluate an elemental (non-reduction) intrinsic on scalar arguments.
pub fn intrinsic(f: Intrinsic, args: &[Value]) -> Result<Value, OpError> {
    use Intrinsic::*;
    let a0 = || -> Result<Value, OpError> {
        args.first()
            .copied()
            .ok_or_else(|| type_err(format!("{}: missing argument", f.name())))
    };
    let r0 = || a0().map(|v| v.as_f64());
    Ok(match f {
        Abs => match a0()? {
            Value::I(v) => Value::I(v.wrapping_abs()),
            v => Value::R(v.as_f64().abs()),
        },
        // Domain violations follow IEEE semantics (NaN) rather than
        // trapping: masked WHERE assignments evaluate the full RHS
        // vector and discard masked-off lanes, exactly like the Cedar
        // vector hardware.
        Sqrt => Value::R(r0()?.sqrt()),
        Exp => Value::R(r0()?.exp()),
        Log => Value::R(r0()?.ln()),
        Log10 => Value::R(r0()?.log10()),
        Sin => Value::R(r0()?.sin()),
        Cos => Value::R(r0()?.cos()),
        Tan => Value::R(r0()?.tan()),
        Atan => Value::R(r0()?.atan()),
        Atan2 => {
            let y = r0()?;
            let x = args
                .get(1)
                .map(|v| v.as_f64())
                .ok_or_else(|| type_err("atan2 needs 2 args".into()))?;
            Value::R(y.atan2(x))
        }
        Sinh => Value::R(r0()?.sinh()),
        Cosh => Value::R(r0()?.cosh()),
        Tanh => Value::R(r0()?.tanh()),
        Sign => {
            let b = args
                .get(1)
                .map(|v| v.as_f64())
                .ok_or_else(|| type_err("sign needs 2 args".into()))?;
            match a0()? {
                // In integers, so every bit of `a` is kept; `i64::MIN`
                // wraps as negation does.
                Value::I(a) => {
                    let m = a.wrapping_abs();
                    Value::I(if b >= 0.0 { m } else { m.wrapping_neg() })
                }
                a => {
                    let m = a.as_f64().abs();
                    Value::R(if b >= 0.0 { m } else { -m })
                }
            }
        }
        Mod => match (
            a0()?,
            args.get(1).copied().ok_or_else(|| type_err("mod needs 2 args".into()))?,
        ) {
            (Value::I(a), Value::I(b)) => {
                if b == 0 {
                    return Err(div_zero("mod by zero"));
                }
                Value::I(a.wrapping_rem(b))
            }
            (a, b) => Value::R(a.as_f64() % b.as_f64()),
        },
        Min | Max => {
            if args.is_empty() {
                return Err(type_err(format!("{} needs arguments", f.name())));
            }
            let all_int = args.iter().all(|v| matches!(v, Value::I(_)));
            if all_int {
                let it = args.iter().map(|v| v.as_i64());
                Value::I(if f == Min { it.min() } else { it.max() }.unwrap())
            } else {
                let mut best = args[0].as_f64();
                for v in &args[1..] {
                    let x = v.as_f64();
                    best = if f == Min { best.min(x) } else { best.max(x) };
                }
                Value::R(best)
            }
        }
        Int => Value::I(a0()?.as_i64()),
        Nint => Value::I(r0()?.round() as i64),
        Real | Dble => Value::R(r0()?),
        other => {
            return Err(OpError::new(
                SimErrorKind::Unsupported,
                format!("{} is not elemental", other.name()),
            ))
        }
    })
}

/// Coerce a value to the storage type of a target.
pub fn coerce(v: Value, ty: Ty) -> Value {
    match ty {
        Ty::Int => Value::I(v.as_i64()),
        Ty::Real | Ty::Double => Value::R(v.as_f64()),
        Ty::Logical => Value::B(v.as_bool()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn integer_powers_are_exact_modulo_two_to_the_64() {
        let pow = |a, b| bin(BinOp::Pow, Value::I(a), Value::I(b)).unwrap();
        // Every exponent counts, not only the first 63.
        assert_eq!(pow(-1, 64), Value::I(1));
        assert_eq!(pow(-1, 65), Value::I(-1));
        assert_eq!(pow(-1, i64::MAX), Value::I(-1));
        assert_eq!(pow(1, i64::MAX), Value::I(1));
        assert_eq!(pow(2, 64), Value::I(0));
        assert_eq!(pow(3, 64), Value::I(3i64.wrapping_pow(64)));
        assert_eq!(pow(3, 1 << 40), Value::I(pow_by_loop(3, 1 << 40)));
        assert_eq!(pow(0, 0), Value::I(1));
        assert_eq!(pow(7, 5), Value::I(16807));
        assert_eq!(pow(-2, 63), Value::I(i64::MIN));
        // Negative exponents truncate toward zero; 0 ** -k divides by 0.
        assert_eq!(pow(-1, -3), Value::I(-1));
        assert_eq!(pow(-1, -4), Value::I(1));
        assert_eq!(pow(1, i64::MIN), Value::I(1));
        assert_eq!(pow(2, -1), Value::I(0));
        assert_eq!(pow(i64::MIN, -1), Value::I(0));
        let e = bin(BinOp::Pow, Value::I(0), Value::I(-2)).unwrap_err();
        assert_eq!(e.kind, SimErrorKind::DivByZero);
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
        let pow = |x: f64, n| bin(BinOp::Pow, Value::R(x), Value::I(n)).unwrap().as_f64();
        assert_eq!(pow(2.0, 4_294_967_296), f64::INFINITY);
        assert_eq!(pow(2.0, -4_294_967_296), 0.0);
        assert_eq!(pow(0.5, 4_294_967_296), 0.0);
        assert_eq!(pow(-1.0, 4_294_967_297), -1.0);
        assert_eq!(pow(-1.0, (1 << 53) + 1), -1.0);
        assert_eq!(pow(-2.0, (1 << 53) + 1), f64::NEG_INFINITY);
        assert_eq!(pow(-2.0, 1 << 53), f64::INFINITY);
        assert_eq!(pow(1.0, i64::MIN), 1.0);
        assert_eq!(pow(-0.0, -4_294_967_297).to_bits(), f64::NEG_INFINITY.to_bits());
        // Within `i32` the bits are `powi`'s at run time (which folding
        // it as a constant need not give).
        for (x, n) in [(1.1f64, 7), (-3.5, 3), (0.9, -12), (2.0, i32::MAX as i64)] {
            let powi = std::hint::black_box(x).powi(n as i32);
            assert_eq!(pow(x, n).to_bits(), powi.to_bits(), "{x} ** {n}");
        }
        // A logical or an integer base reads as a real.
        let b = bin(BinOp::Pow, Value::B(true), Value::I(1 << 40)).unwrap();
        assert_eq!(b, Value::R(1.0));
    }

    /// A `PARAMETER` folds `REAL ** INTEGER` as both engines compute it
    /// at run time, bit for bit (`powf` differs in the last bits on all
    /// four).
    #[test]
    fn real_powers_fold_as_they_run() {
        let cases = [("0.9", -12), ("1.7", 13), ("0.3", 9), ("1.01", 100)];
        let mut src = String::from("program p\ndouble precision f(4), r(4), x\n");
        for (k, (x, n)) in cases.iter().enumerate() {
            src += &format!("parameter (p{k} = {x} ** ({n}))\n");
        }
        for (k, (x, n)) in cases.iter().enumerate() {
            src += &format!("f({}) = p{k}\nx = {x}\nn = {n}\nr({}) = x ** n\n", k + 1, k + 1);
        }
        src += "end\n";
        let p = cedar_ir::compile_free(&src).unwrap();
        for engine in [crate::Engine::Vm, crate::Engine::Interp] {
            let sim = crate::run(&p, crate::MachineConfig::cedar_config1().with_engine(engine)).unwrap();
            let bits = |v: &str| sim.read_var(v).unwrap().iter().map(|v| v.as_f64().to_bits()).collect();
            let (folded, ran): (Vec<u64>, Vec<u64>) = (bits("f"), bits("r"));
            assert_eq!(folded, ran, "{engine:?}");
        }
    }

    #[test]
    fn integer_division_truncates() {
        assert_eq!(bin(BinOp::Div, Value::I(7), Value::I(2)).unwrap(), Value::I(3));
        assert_eq!(bin(BinOp::Div, Value::I(-7), Value::I(2)).unwrap(), Value::I(-3));
        assert!(bin(BinOp::Div, Value::I(1), Value::I(0)).is_err());
        // The one quotient past `i64` wraps, as every integer op does.
        assert_eq!(bin(BinOp::Div, Value::I(i64::MIN), Value::I(-1)).unwrap(), Value::I(i64::MIN));
        let m = intrinsic(Intrinsic::Mod, &[Value::I(i64::MIN), Value::I(-1)]).unwrap();
        assert_eq!(m, Value::I(0));
    }

    #[test]
    fn mixed_arithmetic_promotes() {
        assert_eq!(
            bin(BinOp::Add, Value::I(1), Value::R(0.5)).unwrap(),
            Value::R(1.5)
        );
    }

    #[test]
    fn integer_power() {
        assert_eq!(bin(BinOp::Pow, Value::I(2), Value::I(10)).unwrap(), Value::I(1024));
        assert_eq!(bin(BinOp::Pow, Value::I(5), Value::I(0)).unwrap(), Value::I(1));
        assert_eq!(bin(BinOp::Pow, Value::I(2), Value::I(-1)).unwrap(), Value::I(0));
    }

    #[test]
    fn comparisons_and_logic() {
        assert_eq!(bin(BinOp::Lt, Value::I(1), Value::I(2)).unwrap(), Value::B(true));
        assert_eq!(bin(BinOp::Ge, Value::R(2.0), Value::R(2.0)).unwrap(), Value::B(true));
        assert_eq!(
            bin(BinOp::And, Value::B(true), Value::B(false)).unwrap(),
            Value::B(false)
        );
    }

    #[test]
    fn sign_and_mod_follow_f77() {
        assert_eq!(
            intrinsic(Intrinsic::Sign, &[Value::R(3.0), Value::R(-1.0)]).unwrap(),
            Value::R(-3.0)
        );
        assert_eq!(
            intrinsic(Intrinsic::Mod, &[Value::I(7), Value::I(3)]).unwrap(),
            Value::I(1)
        );
        assert_eq!(
            intrinsic(Intrinsic::Mod, &[Value::I(-7), Value::I(3)]).unwrap(),
            Value::I(-1)
        );
    }

    #[test]
    fn minmax_type_rules() {
        assert_eq!(
            intrinsic(Intrinsic::Max, &[Value::I(1), Value::I(5), Value::I(3)]).unwrap(),
            Value::I(5)
        );
        assert_eq!(
            intrinsic(Intrinsic::Min, &[Value::R(1.5), Value::I(2)]).unwrap(),
            Value::R(1.5)
        );
    }

    #[test]
    fn domain_violations_follow_ieee() {
        assert!(intrinsic(Intrinsic::Sqrt, &[Value::R(-1.0)])
            .unwrap()
            .as_f64()
            .is_nan());
        assert_eq!(
            intrinsic(Intrinsic::Log, &[Value::R(0.0)]).unwrap(),
            Value::R(f64::NEG_INFINITY)
        );
    }

    #[test]
    fn errors_carry_kinds() {
        assert_eq!(
            bin(BinOp::Div, Value::I(1), Value::I(0)).unwrap_err().kind,
            SimErrorKind::DivByZero
        );
        assert_eq!(
            intrinsic(Intrinsic::Mod, &[Value::I(1)]).unwrap_err().kind,
            SimErrorKind::TypeError
        );
        assert_eq!(
            intrinsic(Intrinsic::Sum, &[Value::R(1.0)]).unwrap_err().kind,
            SimErrorKind::Unsupported
        );
    }

    /// The class rule against the operations themselves: every
    /// operator and elemental intrinsic over every pairing of operand
    /// classes, on values that exercise each branch.
    #[test]
    fn result_class_depends_on_operand_classes_alone() {
        use BinOp::*;
        let samples = [
            vec![Value::R(2.5), Value::R(-0.0), Value::R(f64::NAN)],
            vec![Value::I(7), Value::I(-3), Value::I(1)],
            vec![Value::B(true), Value::B(false)],
        ];
        let all = || samples.iter().flatten().copied();
        for op in [
            Add, Sub, Mul, Div, Pow, Eq, Ne, Lt, Le, Gt, Ge, And, Or, Eqv, Neqv,
        ] {
            for (l, r) in all().flat_map(|l| all().map(move |r| (l, r))) {
                if let Ok(v) = bin(op, l, r) {
                    let want = bin_class(op, Class::of_value(l), Class::of_value(r));
                    assert_eq!(Class::of_value(v), want, "{op:?} {l:?} {r:?}");
                }
            }
        }
        for v in all() {
            for op in [UnOp::Neg, UnOp::Not] {
                assert_eq!(Class::of_value(un(op, v)), un_class(op, Class::of_value(v)));
            }
        }
        use Intrinsic::*;
        let elemental = [
            Abs, Sqrt, Exp, Log, Log10, Sin, Cos, Tan, Atan, Atan2, Sinh, Cosh, Tanh, Sign, Mod,
            Min, Max, Int, Nint, Real, Dble,
        ];
        for f in elemental.into_iter().chain([Sum, Iota]) {
            for n in 0..=3usize {
                // Every class assignment of n arguments.
                for code in 0..3usize.pow(n as u32) {
                    let args: Vec<Value> = (0..n)
                        .map(|k| samples[code / 3usize.pow(k as u32) % 3][0])
                        .collect();
                    let classes: Vec<Class> = args.iter().map(|&v| Class::of_value(v)).collect();
                    match (intrinsic(f, &args), intrinsic_class(f, &classes)) {
                        (Ok(v), Some(c)) => assert_eq!(Class::of_value(v), c, "{f:?} {args:?}"),
                        (Err(_), None) => {}
                        (got, want) => panic!("{f:?} {args:?}: {got:?} vs rule {want:?}"),
                    }
                }
            }
        }
    }

    #[test]
    fn coercion() {
        assert_eq!(coerce(Value::R(2.9), Ty::Int), Value::I(2));
        assert_eq!(coerce(Value::I(3), Ty::Real), Value::R(3.0));
        assert_eq!(coerce(Value::I(0), Ty::Logical), Value::B(false));
    }
}
