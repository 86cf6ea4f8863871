//! Typed lanes: the operand buffers of vector statements.
//!
//! A vector operand is one buffer of `f64`, `i64` or `bool` lanes,
//! tagged with its class **once** — not a `Value` per lane. That is
//! exact, not an approximation: the class of every result is a function
//! of the operand classes alone (`value_ops::{bin_class, un_class,
//! intrinsic_class}`), a section loads one slot's payload type, `iota`
//! is `I` and a broadcast is one value, so every operand a vector
//! statement ever builds is class-uniform.
//!
//! Operators dispatch once per buffer on the operand classes and then
//! run a plain loop of the function `cedar_ir::ops` defines for the
//! pair, lane for lane: REAL and INTEGER arithmetic, comparisons, logic,
//! conversions and the one-argument REAL intrinsics have loops of their
//! own; the ops that can fault (INTEGER `/` and `**`, `mod`) and the
//! rarer intrinsics (`sign`, `min`/`max`, …) go lane by lane through
//! `value_ops`, so a failing lane's error is produced there, at that
//! lane.
//!
//! Buffers are recycled through a [`LanePool`], so a vector statement
//! in steady state allocates nothing.

use crate::error::OpError;
use crate::value_ops::{self, Class};
use cedar_ir::ops::{self, cmp_mask};
use cedar_ir::{BinOp, Intrinsic, UnOp, Value};

/// One vector operand: a lane per element, all of one class.
#[derive(Debug)]
pub(crate) enum Lanes {
    R(Vec<f64>),
    I(Vec<i64>),
    B(Vec<bool>),
}

impl Lanes {
    pub(crate) fn len(&self) -> usize {
        match self {
            Lanes::R(v) => v.len(),
            Lanes::I(v) => v.len(),
            Lanes::B(v) => v.len(),
        }
    }

    pub(crate) fn class(&self) -> Class {
        match self {
            Lanes::R(_) => Class::R,
            Lanes::I(_) => Class::I,
            Lanes::B(_) => Class::B,
        }
    }

    /// Lane `k` as the boxed value the scalar paths work on.
    pub(crate) fn get(&self, k: usize) -> Value {
        match self {
            Lanes::R(v) => Value::R(v[k]),
            Lanes::I(v) => Value::I(v[k]),
            Lanes::B(v) => Value::B(v[k]),
        }
    }

    /// Append a value of the buffer's own class (the class rule is what
    /// guarantees it is).
    fn push(&mut self, v: Value) {
        match (self, v) {
            (Lanes::R(b), Value::R(x)) => b.push(x),
            (Lanes::I(b), Value::I(x)) => b.push(x),
            (Lanes::B(b), Value::B(x)) => b.push(x),
            (b, v) => unreachable!("class rule broken: {v:?} into {:?} lanes", b.class()),
        }
    }
}

/// How many buffers of one kind the pool keeps.
const POOL_DEPTH: usize = 32;

fn take<T>(pool: &mut Vec<Vec<T>>, cap: usize) -> Vec<T> {
    match pool.pop() {
        Some(mut v) => {
            v.clear();
            v.reserve(cap);
            v
        }
        None => Vec::with_capacity(cap),
    }
}

fn give<T>(pool: &mut Vec<Vec<T>>, mut v: Vec<T>) {
    if pool.len() < POOL_DEPTH {
        v.clear();
        pool.push(v);
    }
}

/// Recycled lane and index buffers: vector statements take a buffer
/// here instead of allocating one per operand per statement, and
/// return it when the lanes are consumed.
#[derive(Default)]
pub(crate) struct LanePool {
    r: Vec<Vec<f64>>,
    i: Vec<Vec<i64>>,
    b: Vec<Vec<bool>>,
    lin: Vec<Vec<usize>>,
    cols: Vec<Vec<Lanes>>,
}

impl LanePool {
    pub(crate) fn r(&mut self, cap: usize) -> Vec<f64> {
        take(&mut self.r, cap)
    }

    pub(crate) fn i(&mut self, cap: usize) -> Vec<i64> {
        take(&mut self.i, cap)
    }

    pub(crate) fn b(&mut self, cap: usize) -> Vec<bool> {
        take(&mut self.b, cap)
    }

    /// An empty linear-index list.
    pub(crate) fn lin(&mut self, cap: usize) -> Vec<usize> {
        take(&mut self.lin, cap)
    }

    /// An empty list of argument columns.
    pub(crate) fn cols(&mut self, cap: usize) -> Vec<Lanes> {
        take(&mut self.cols, cap)
    }

    /// Return an argument list, its columns to their own pools.
    pub(crate) fn put_cols(&mut self, mut cols: Vec<Lanes>) {
        for c in cols.drain(..) {
            self.put(c);
        }
        give(&mut self.cols, cols);
    }

    pub(crate) fn put(&mut self, v: Lanes) {
        match v {
            Lanes::R(v) => give(&mut self.r, v),
            Lanes::I(v) => give(&mut self.i, v),
            Lanes::B(v) => give(&mut self.b, v),
        }
    }

    pub(crate) fn put_i(&mut self, v: Vec<i64>) {
        give(&mut self.i, v);
    }

    pub(crate) fn put_lin(&mut self, v: Vec<usize>) {
        give(&mut self.lin, v);
    }

    /// An empty buffer of class `c`.
    fn empty(&mut self, c: Class, cap: usize) -> Lanes {
        match c {
            Class::R => Lanes::R(self.r(cap)),
            Class::I => Lanes::I(self.i(cap)),
            Class::B => Lanes::B(self.b(cap)),
        }
    }

    /// `n` lanes of one scalar value.
    pub(crate) fn splat(&mut self, v: Value, n: usize) -> Lanes {
        fn fill<T: Clone>(mut b: Vec<T>, n: usize, x: T) -> Vec<T> {
            b.resize(n, x);
            b
        }
        match v {
            Value::R(x) => Lanes::R(fill(self.r(n), n, x)),
            Value::I(x) => Lanes::I(fill(self.i(n), n, x)),
            Value::B(x) => Lanes::B(fill(self.b(n), n, x)),
        }
    }

    /// `lo, lo + 1, …` over `n` lanes.
    pub(crate) fn iota(&mut self, lo: i64, n: usize) -> Lanes {
        let mut b = self.i(n);
        b.extend((0..n as i64).map(|k| ops::add_i(lo, k)));
        Lanes::I(b)
    }

    /// Every lane through `Value::as_f64`.
    pub(crate) fn reals(&mut self, v: Lanes) -> Vec<f64> {
        let mut out = match &v {
            Lanes::R(_) => Vec::new(),
            _ => self.r(v.len()),
        };
        match v {
            Lanes::R(s) => return s,
            Lanes::I(ref s) => out.extend(s.iter().map(|&x| ops::real_of_int(x))),
            Lanes::B(ref s) => out.extend(s.iter().map(|&x| ops::real_of_bool(x))),
        }
        self.put(v);
        out
    }

    /// Every lane through `Value::as_i64` (REAL lanes truncate).
    pub(crate) fn ints(&mut self, v: Lanes) -> Vec<i64> {
        let mut out = match &v {
            Lanes::I(_) => Vec::new(),
            _ => self.i(v.len()),
        };
        match v {
            Lanes::I(s) => return s,
            Lanes::R(ref s) => out.extend(s.iter().map(|&x| ops::trunc(x))),
            Lanes::B(ref s) => out.extend(s.iter().map(|&x| ops::int_of_bool(x))),
        }
        self.put(v);
        out
    }

    /// Every lane through `Value::as_bool` (non-zero numerics are true).
    pub(crate) fn bools(&mut self, v: Lanes) -> Vec<bool> {
        let mut out = match &v {
            Lanes::B(_) => Vec::new(),
            _ => self.b(v.len()),
        };
        match v {
            Lanes::B(s) => return s,
            Lanes::R(ref s) => out.extend(s.iter().map(|&x| ops::bool_of_real(x))),
            Lanes::I(ref s) => out.extend(s.iter().map(|&x| ops::bool_of_int(x))),
        }
        self.put(v);
        out
    }

    /// `ops::un` over every lane.
    pub(crate) fn un(&mut self, op: UnOp, v: Lanes) -> Lanes {
        match (op, v) {
            (UnOp::Neg, Lanes::R(mut a)) => {
                a.iter_mut().for_each(|x| *x = -*x);
                Lanes::R(a)
            }
            (UnOp::Neg, v) => {
                let mut a = self.ints(v);
                a.iter_mut().for_each(|x| *x = ops::neg_i(*x));
                Lanes::I(a)
            }
            (UnOp::Not, v) => {
                let mut a = self.bools(v);
                a.iter_mut().for_each(|x| *x = !*x);
                Lanes::B(a)
            }
        }
    }

    /// `value_ops::bin` over every lane pair; the error of the first
    /// failing lane.
    pub(crate) fn bin(&mut self, op: BinOp, mut l: Lanes, r: Lanes) -> Result<Lanes, OpError> {
        use BinOp::*;
        // REAL arithmetic, in place: by far the most common pairing.
        if let (Add | Sub | Mul | Div, Lanes::R(a), Lanes::R(b)) = (op, &mut l, &r) {
            arith_r(op, a, b);
            self.put(r);
            return Ok(l);
        }
        if let Some(mask) = cmp_mask(op) {
            let mut out = self.b(l.len());
            if let (Lanes::I(a), Lanes::I(b)) = (&l, &r) {
                out.extend(a.iter().zip(b).map(|(&x, &y)| ops::cmp_i(mask, x, y)));
                self.put(l);
                self.put(r);
            } else {
                let (a, b) = (self.reals(l), self.reals(r));
                out.extend(a.iter().zip(&b).map(|(&x, &y)| ops::cmp_r(mask, x, y)));
                self.put(Lanes::R(a));
                self.put(Lanes::R(b));
            }
            return Ok(Lanes::B(out));
        }
        Ok(match (op, l, r) {
            (And | Or | Eqv | Neqv, l, r) => {
                let (mut a, b) = (self.bools(l), self.bools(r));
                let f: fn(bool, bool) -> bool = match op {
                    And => |x, y| x && y,
                    Or => |x, y| x || y,
                    Eqv => |x, y| x == y,
                    _ => |x, y| x != y,
                };
                a.iter_mut().zip(&b).for_each(|(x, &y)| *x = f(*x, y));
                self.put(Lanes::B(b));
                Lanes::B(a)
            }
            (Add | Sub | Mul | Div | Pow, Lanes::I(mut a), Lanes::I(b)) => {
                let mut pairs = a.iter_mut().zip(&b);
                match op {
                    Add => pairs.for_each(|(x, &y)| *x = ops::add_i(*x, y)),
                    Sub => pairs.for_each(|(x, &y)| *x = ops::sub_i(*x, y)),
                    Mul => pairs.for_each(|(x, &y)| *x = ops::mul_i(*x, y)),
                    // `/` and `**` fault on a zero divisor: the scalar
                    // operation's business.
                    _ => pairs.try_for_each(|(x, &y)| {
                        *x = value_ops::bin(op, Value::I(*x), Value::I(y))?.as_i64();
                        Ok(())
                    })?,
                }
                self.put_i(b);
                Lanes::I(a)
            }
            // Any non-integer base with an integer exponent: `ops::pow_ri`.
            (Pow, l, Lanes::I(b)) => {
                let mut a = self.reals(l);
                a.iter_mut().zip(&b).for_each(|(x, &y)| *x = ops::pow_ri(*x, y));
                self.put_i(b);
                Lanes::R(a)
            }
            (_, l, r) => {
                let (mut a, b) = (self.reals(l), self.reals(r));
                arith_r(op, &mut a, &b);
                self.put(Lanes::R(b));
                Lanes::R(a)
            }
        })
    }

    /// `value_ops::intrinsic` over every lane (`lanes` of them) of the
    /// argument columns, any of which may be consumed; the error of the
    /// first failing lane.
    pub(crate) fn intrinsic(
        &mut self,
        f: Intrinsic,
        cols: &mut Vec<Lanes>,
        lanes: usize,
    ) -> Result<Lanes, OpError> {
        use Intrinsic::*;
        // The one-argument REAL functions read their first argument
        // through `as_f64` and ignore any other.
        let real = matches!(
            f,
            Sqrt | Exp | Log | Log10 | Sin | Cos | Tan | Atan | Sinh | Cosh | Tanh | Real | Dble
        ) || (f == Abs && !matches!(cols.first(), Some(Lanes::I(_))));
        let out = match (real, f) {
            (true, _) if !cols.is_empty() => {
                let mut a = self.reals(cols.swap_remove(0));
                fn map(a: &mut [f64], g: impl Fn(f64) -> f64) {
                    a.iter_mut().for_each(|x| *x = g(*x));
                }
                match f {
                    Sqrt => map(&mut a, f64::sqrt),
                    Exp => map(&mut a, f64::exp),
                    Log => map(&mut a, f64::ln),
                    Log10 => map(&mut a, f64::log10),
                    Sin => map(&mut a, f64::sin),
                    Cos => map(&mut a, f64::cos),
                    Tan => map(&mut a, f64::tan),
                    Atan => map(&mut a, f64::atan),
                    Sinh => map(&mut a, f64::sinh),
                    Cosh => map(&mut a, f64::cosh),
                    Tanh => map(&mut a, f64::tanh),
                    Abs => map(&mut a, f64::abs),
                    _ => {} // `real`, `dble`: the conversion is the function
                }
                Lanes::R(a)
            }
            (false, Abs) => {
                let Lanes::I(mut a) = cols.swap_remove(0) else {
                    unreachable!("abs of a non-integer column is a REAL function")
                };
                a.iter_mut().for_each(|x| *x = ops::abs_i(*x));
                Lanes::I(a)
            }
            _ => {
                // Lane by lane through the scalar operation; the class
                // rule makes the first lane's class every lane's.
                let mut out = None;
                let mut argv = Vec::with_capacity(cols.len());
                for lane in 0..lanes {
                    argv.clear();
                    argv.extend(cols.iter().map(|c| c.get(lane)));
                    let v = value_ops::intrinsic(f, &argv)?;
                    out.get_or_insert_with(|| self.empty(Class::of_value(v), lanes)).push(v);
                }
                // Without lanes the class is never read.
                out.unwrap_or_else(|| self.empty(Class::R, 0))
            }
        };
        Ok(out)
    }
}

/// `a[k] = a[k] op b[k]` for the arithmetic operators on REAL lanes
/// (`**` is [`ops::powf`]).
fn arith_r(op: BinOp, a: &mut [f64], b: &[f64]) {
    let lanes = a.iter_mut().zip(b);
    match op {
        BinOp::Add => lanes.for_each(|(x, &y)| *x += y),
        BinOp::Sub => lanes.for_each(|(x, &y)| *x -= y),
        BinOp::Mul => lanes.for_each(|(x, &y)| *x *= y),
        BinOp::Div => lanes.for_each(|(x, &y)| *x /= y),
        _ => lanes.for_each(|(x, &y)| *x = ops::powf(*x, y)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn boxed(v: &Lanes) -> Vec<Value> {
        (0..v.len()).map(|k| v.get(k)).collect()
    }

    fn lanes(vals: &[Value]) -> Lanes {
        match vals[0] {
            Value::R(_) => Lanes::R(vals.iter().map(|v| v.as_f64()).collect()),
            Value::I(_) => Lanes::I(vals.iter().map(|v| v.as_i64()).collect()),
            Value::B(_) => Lanes::B(vals.iter().map(|v| v.as_bool()).collect()),
        }
    }

    /// Values compared by class and bit pattern (a NaN equals itself).
    fn bits(v: &[Value]) -> Vec<(Class, u64)> {
        v.iter()
            .map(|&v| {
                let b = match v {
                    Value::R(x) => x.to_bits(),
                    Value::I(x) => x as u64,
                    Value::B(x) => x as u64,
                };
                (Class::of_value(v), b)
            })
            .collect()
    }

    const LANES: usize = 7;

    fn columns() -> [Vec<Value>; 3] {
        [
            [2.5, -0.0, f64::NAN, -7.25, 0.0, 1e300, 3.0].map(Value::R).to_vec(),
            [7, -3, 0, 1, -1, 64, -2].map(Value::I).to_vec(),
            [true, false, true, true, false, false, true].map(Value::B).to_vec(),
        ]
    }

    /// Every operator over every pairing of operand classes computes,
    /// lane for lane, what `value_ops::bin` computes — and fails where
    /// it fails, with its error.
    #[test]
    fn bin_matches_value_ops_lane_for_lane() {
        use BinOp::*;
        let mut pool = LanePool::default();
        for op in [Add, Sub, Mul, Div, Pow, Eq, Ne, Lt, Le, Gt, Ge, And, Or, Eqv, Neqv] {
            for l in columns() {
                // Each column against itself and against the others,
                // both ways round, so that a zero divisor and `0 ** -1`
                // turn up in a lane other than the first.
                for r in columns().into_iter().flat_map(|c| {
                    let rev = c.iter().rev().copied().collect();
                    [c, rev]
                }) {
                    let want: Result<Vec<Value>, OpError> =
                        l.iter().zip(&r).map(|(&a, &b)| value_ops::bin(op, a, b)).collect();
                    let got = pool.bin(op, lanes(&l), lanes(&r));
                    match (want, got) {
                        (Ok(w), Ok(g)) => {
                            assert_eq!(bits(&w), bits(&boxed(&g)), "{op:?} {l:?} {r:?}")
                        }
                        (Err(w), Err(g)) => assert_eq!((w.kind, w.msg), (g.kind, g.msg)),
                        (w, g) => panic!("{op:?} {l:?} {r:?}: {w:?} vs {g:?}"),
                    }
                }
            }
        }
    }

    #[test]
    fn un_and_conversions_match_value_ops() {
        let mut pool = LanePool::default();
        for col in columns() {
            for op in [UnOp::Neg, UnOp::Not] {
                let want: Vec<Value> = col.iter().map(|&v| ops::un(op, v)).collect();
                assert_eq!(bits(&want), bits(&boxed(&pool.un(op, lanes(&col)))));
            }
            let r: Vec<f64> = col.iter().map(|v| v.as_f64()).collect();
            let i: Vec<i64> = col.iter().map(|v| v.as_i64()).collect();
            let b: Vec<bool> = col.iter().map(|v| v.as_bool()).collect();
            assert_eq!(
                r.iter().map(|x| x.to_bits()).collect::<Vec<_>>(),
                pool.reals(lanes(&col)).iter().map(|x| x.to_bits()).collect::<Vec<_>>()
            );
            assert_eq!(i, pool.ints(lanes(&col)));
            assert_eq!(b, pool.bools(lanes(&col)));
        }
    }

    #[test]
    fn intrinsics_match_value_ops_lane_for_lane() {
        use Intrinsic::*;
        let mut pool = LanePool::default();
        let fs = [
            Abs, Sqrt, Exp, Log, Log10, Sin, Cos, Tan, Atan, Atan2, Sinh, Cosh, Tanh, Sign, Mod,
            Min, Max, Int, Nint, Real, Dble, Sum,
        ];
        let cols = columns();
        for f in fs {
            for n in 0..=2usize {
                for code in 0..3usize.pow(n as u32) {
                    let args: Vec<&Vec<Value>> =
                        (0..n).map(|k| &cols[code / 3usize.pow(k as u32) % 3]).collect();
                    let want: Result<Vec<Value>, OpError> = (0..LANES)
                        .map(|lane| {
                            let argv: Vec<Value> = args.iter().map(|c| c[lane]).collect();
                            value_ops::intrinsic(f, &argv)
                        })
                        .collect();
                    let mut columns: Vec<Lanes> = args.iter().map(|c| lanes(c)).collect();
                    match (want, pool.intrinsic(f, &mut columns, LANES)) {
                        (Ok(w), Ok(g)) => assert_eq!(bits(&w), bits(&boxed(&g)), "{f:?} {code}"),
                        (Err(w), Err(g)) => assert_eq!((w.kind, w.msg), (g.kind, g.msg)),
                        (w, g) => panic!("{f:?} {n} {code}: {w:?} vs {g:?}"),
                    }
                }
            }
        }
    }

    #[test]
    fn buffers_are_recycled() {
        let mut pool = LanePool::default();
        let v = pool.splat(Value::R(1.0), 64);
        let Lanes::R(buf) = &v else { panic!("REAL broadcast") };
        let at = buf.as_ptr();
        pool.put(v);
        let next = pool.r(8);
        assert_eq!(next.as_ptr(), at, "the next taker gets the returned buffer");
    }
}
