//! Scalar value operations with Fortran semantics over boxed values,
//! and the **class rule** that goes with them: the class (`R`/`I`/`B`)
//! of every result is a function of the operand classes alone, never of
//! the values. The bytecode compiler types scalar code with it and the
//! vector lanes (`crate::lanes`) tag a whole operand buffer with it once.
//!
//! What each op computes is defined once, in `cedar_ir::ops`; here it
//! gets the simulator's errors.

use crate::error::{OpError, SimErrorKind};
use cedar_ir::{ops, BinOp, Intrinsic, Ty, UnOp, Value};

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
        Atan2 if args.len() >= 2 => Class::R,
        Sign if args.len() >= 2 => int_if(int(0)),
        Mod if args.len() >= 2 => int_if(int(0) && int(1)),
        Min | Max => int_if(args.iter().all(|&c| c == Class::I)),
        Int | Nint => Class::I,
        f if ops::is_real_intrinsic(f) => Class::R,
        _ => return None,
    })
}

fn div_zero(msg: &str) -> OpError {
    OpError::new(SimErrorKind::DivByZero, msg)
}

fn type_err(msg: String) -> OpError {
    OpError::new(SimErrorKind::TypeError, msg)
}

/// Apply a binary operator ([`ops::bin`]).
pub fn bin(op: BinOp, l: Value, r: Value) -> Result<Value, OpError> {
    ops::bin(op, l, r).map_err(div_zero)
}

/// Evaluate an elemental (non-reduction) intrinsic on scalar arguments;
/// what each computes is [`ops`]'.
pub fn intrinsic(f: Intrinsic, args: &[Value]) -> Result<Value, OpError> {
    use Intrinsic::*;
    let a0 = || -> Result<Value, OpError> {
        args.first().copied().ok_or_else(|| type_err(format!("{}: missing argument", f.name())))
    };
    let r0 = || a0().map(|v| v.as_f64());
    let a1 = || args.get(1).copied().ok_or_else(|| type_err(format!("{} needs 2 args", f.name())));
    macro_rules! real {
        ($g:expr) => {
            Value::R($g(r0()?))
        };
    }
    Ok(match f {
        Abs if matches!(a0()?, Value::I(_)) => Value::I(ops::abs_i(a0()?.as_i64())),
        Atan2 => Value::R(ops::atan2(r0()?, a1()?.as_f64())),
        Sign => {
            let b = a1()?.as_f64();
            match a0()? {
                Value::I(a) => Value::I(ops::sign_i(a, b)),
                a => Value::R(ops::sign_r(a.as_f64(), b)),
            }
        }
        Mod => match (a0()?, a1()?) {
            (Value::I(a), Value::I(b)) => {
                Value::I(ops::mod_i(a, b).ok_or_else(|| div_zero("mod by zero"))?)
            }
            (a, b) => Value::R(ops::mod_r(a.as_f64(), b.as_f64())),
        },
        Min | Max => {
            let first = a0().map_err(|_| type_err(format!("{} needs arguments", f.name())))?;
            let max = f == Max;
            let rest = args[1..].iter();
            match args.iter().all(|v| matches!(v, Value::I(_))) {
                true => {
                    Value::I(rest.fold(first.as_i64(), |m, v| ops::min_max_i(max, m, v.as_i64())))
                }
                false => {
                    Value::R(rest.fold(first.as_f64(), |m, v| ops::min_max_r(max, m, v.as_f64())))
                }
            }
        }
        Int => Value::I(a0()?.as_i64()),
        Nint => Value::I(ops::nint(r0()?)),
        f => ops::real_intrinsic!(f, real, other => {
            return Err(OpError::new(
                SimErrorKind::Unsupported,
                format!("{} is not elemental", other.name()),
            ))
        }),
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
            let sim =
                crate::run(&p, crate::MachineConfig::cedar_config1().with_engine(engine)).unwrap();
            let bits =
                |v: &str| sim.read_var(v).unwrap().iter().map(|v| v.as_f64().to_bits()).collect();
            let (folded, ran): (Vec<u64>, Vec<u64>) = (bits("f"), bits("r"));
            assert_eq!(folded, ran, "{engine:?}");
        }
    }

    /// A `PARAMETER` folds the logical operators, the relations between
    /// constants and `INTEGER ** negative` as both engines compute them
    /// at run time. Each case is `a op b`, its operands' variables named
    /// by type: `l` LOGICAL, `i` INTEGER, `x` REAL.
    #[test]
    fn logical_and_negative_power_parameters_fold_as_they_run() {
        let cases = [
            ("l", ".true.", ".and.", "l", ".false."),
            ("l", ".true.", ".or.", "l", ".false."),
            ("l", ".true.", ".eqv.", "l", ".false."),
            ("l", ".false.", ".neqv.", "l", ".false."),
            ("i", "2", ".lt.", "i", "3"),
            ("i", "3", ".le.", "x", "2.5"),
            ("x", "1.5", ".ge.", "x", "2.0"),
            ("i", "-1", ".ne.", "i", "1"),
            ("i", "2", "**", "i", "(-1)"),
            ("i", "(-1)", "**", "i", "(-3)"),
            ("i", "(-1)", "**", "i", "(-4)"),
            ("i", "1", "**", "i", "(-5)"),
            ("i", "(-2)", "**", "i", "63"),
        ];
        let mut src = String::from(
            "program p\nlogical f(13), r(13), la, lb\ninteger k(13), m(13), ia, ib\nreal xa, xb\n",
        );
        for (k, (_, a, op, _, b)) in cases.iter().enumerate() {
            let ty = if *op == "**" { "integer" } else { "logical" };
            src += &format!("{ty} p{k}\nparameter (p{k} = {a} {op} {b})\n");
        }
        for (k, (ta, a, op, tb, b)) in cases.iter().enumerate() {
            let (folded, ran) = if *op == "**" { ("k", "m") } else { ("f", "r") };
            src += &format!(
                "{folded}({n}) = p{k}\n{ta}a = {a}\n{tb}b = {b}\n{ran}({n}) = {ta}a {op} {tb}b\n",
                n = k + 1
            );
        }
        src += "end\n";
        let p = cedar_ir::compile_free(&src).unwrap();
        for engine in [crate::Engine::Vm, crate::Engine::Interp] {
            let sim =
                crate::run(&p, crate::MachineConfig::cedar_config1().with_engine(engine)).unwrap();
            let read = |v: &str| sim.read_var(v).unwrap();
            assert_eq!(read("f")[..8], read("r")[..8], "{engine:?}");
            assert_eq!(read("k")[8..], read("m")[8..], "{engine:?}");
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
        assert_eq!(bin(BinOp::Add, Value::I(1), Value::R(0.5)).unwrap(), Value::R(1.5));
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
        assert_eq!(bin(BinOp::And, Value::B(true), Value::B(false)).unwrap(), Value::B(false));
    }

    #[test]
    fn sign_and_mod_follow_f77() {
        assert_eq!(
            intrinsic(Intrinsic::Sign, &[Value::R(3.0), Value::R(-1.0)]).unwrap(),
            Value::R(-3.0)
        );
        assert_eq!(intrinsic(Intrinsic::Mod, &[Value::I(7), Value::I(3)]).unwrap(), Value::I(1));
        assert_eq!(intrinsic(Intrinsic::Mod, &[Value::I(-7), Value::I(3)]).unwrap(), Value::I(-1));
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
        assert!(intrinsic(Intrinsic::Sqrt, &[Value::R(-1.0)]).unwrap().as_f64().is_nan());
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
        for op in [Add, Sub, Mul, Div, Pow, Eq, Ne, Lt, Le, Gt, Ge, And, Or, Eqv, Neqv] {
            for (l, r) in all().flat_map(|l| all().map(move |r| (l, r))) {
                if let Ok(v) = bin(op, l, r) {
                    let want = bin_class(op, Class::of_value(l), Class::of_value(r));
                    assert_eq!(Class::of_value(v), want, "{op:?} {l:?} {r:?}");
                }
            }
        }
        for v in all() {
            for op in [UnOp::Neg, UnOp::Not] {
                assert_eq!(Class::of_value(ops::un(op, v)), un_class(op, Class::of_value(v)));
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
                    let args: Vec<Value> =
                        (0..n).map(|k| samples[code / 3usize.pow(k as u32) % 3][0]).collect();
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
