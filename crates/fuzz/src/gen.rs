//! Seeded generator of well-formed Fortran 77 programs.
//!
//! Every program is assembled from a handful of **shape templates**,
//! each biased toward one family of loop nests an analysis or
//! transformation pass claims to handle (DOALL detection, stripmining
//! and vectorization, scalar/array privatization, reduction
//! recognition, DOACROSS cascades, coalescing, fusion, GIV
//! substitution, IF bodies).
//! A shape is a small struct of table indices and extents, so:
//!
//! * generation is a pure function of the seed (see [`crate::rng`]),
//! * rendering is a pure function of the shape list (replay needs the
//!   seed only), and
//! * the shrinker ([`crate::shrink`]) minimizes by deleting shapes and
//!   substituting each shape's smaller variants — never by hacking at
//!   source text, so every shrink step is again a well-formed program.
//!
//! Numeric discipline: all array inputs are initialized into
//! `[0.5, 2.5]`, every intrinsic argument is kept in a safe range
//! (`sqrt` sees only positives, `exp` only small values), and
//! recurrences contract (`|decay| < 1`), so no generated program can
//! overflow, produce NaN, or lose so much precision that the
//! differential oracle's tolerance becomes meaningless.
//!
//! Each shape also declares which of its variables a correct
//! restructure must preserve **bit-for-bit** and which only to a
//! relative tolerance ([`WatchVar::exact`]): reductions and
//! privatized-array accumulations reassociate floating-point addition,
//! everything else must not change at all. Scratch scalars that a
//! privatization pass legally leaves stale after the loop are not
//! watched.

use crate::rng::Rng;

/// Safe unary functions (argument stays in `[0, ~40]` by construction).
const FNS: [&str; 5] = ["sqrt", "sin", "cos", "exp-small", "affine"];

/// Safe multipliers.
const COEF: [&str; 6] = ["0.25", "0.5", "0.75", "1.25", "1.5", "2.0"];

/// Recurrence decay factors (all `< 1`, so recurrences contract).
const DECAY: [&str; 3] = ["0.25", "0.5", "0.75"];

/// Branch thresholds inside conditional bodies (inputs span `[0.5, 2.5]`,
/// so every threshold splits the iteration space non-trivially).
const THR: [&str; 3] = ["1.0", "1.5", "2.0"];

/// Render `FNS[f]` applied to `arg`.
fn unary(f: usize, arg: &str) -> String {
    match FNS[f % FNS.len()] {
        "sqrt" => format!("sqrt({arg})"),
        "sin" => format!("sin({arg})"),
        "cos" => format!("cos({arg})"),
        "exp-small" => format!("exp({arg} * 0.01)"),
        _ => format!("({arg} * 0.5 + 1.0)"),
    }
}

/// One generated loop-nest family. Fields are indices into the constant
/// tables above plus extents; see [`Shape::emit`] for the exact Fortran
/// each template renders to.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Shape {
    /// Elementwise map(s) over a 1-D array: plain DOALL, stripmined and
    /// vectorized at sufficient trip counts.
    Elementwise {
        /// Trip count.
        n: u32,
        /// Emit a second output statement (second array).
        two_outputs: bool,
        /// Unary function indices for the two statements.
        f1: usize,
        /// Second statement's function.
        f2: usize,
        /// Coefficient indices.
        c1: usize,
        /// Second statement's coefficient.
        c2: usize,
    },
    /// A scalar temporary defined and used inside each iteration:
    /// requires scalar privatization to parallelize.
    ScalarTemp {
        /// Trip count.
        n: u32,
        /// Coefficient for the temporary's definition.
        c1: usize,
        /// Coefficient for its use.
        c2: usize,
    },
    /// Single-statement accumulation into a scalar: reduction
    /// recognition (library substitution or partial accumulators).
    Reduction {
        /// Trip count.
        n: u32,
        /// Multiplicative (`s = s * (1 + eps·a(i))`) instead of additive.
        product: bool,
        /// Additive form accumulates `a(i) * b(i)` (dot product).
        dot: bool,
        /// Append a second chain term (`+ a(i) * 0.25`).
        extra: bool,
    },
    /// Distance-1 recurrence behind enough independent work that the
    /// profitability model accepts a DOACROSS cascade.
    Recurrence {
        /// Trip count.
        n: u32,
        /// Decay-factor index (contraction keeps values bounded).
        decay: usize,
    },
    /// Short-outer perfect nest with a serial inner recurrence: the
    /// outer trip count under-fills the machine, so the coalescing pass
    /// flattens the nest.
    CoalesceNest {
        /// Outer trip count (deliberately tiny).
        outer: u32,
        /// Inner trip count.
        inner: u32,
        /// Iterations of the per-point serial recurrence.
        reps: u32,
    },
    /// Two adjacent conformable loops with identical subscripts: loop
    /// fusion combines them before parallelization.
    FusionPair {
        /// Trip count of both loops.
        n: u32,
        /// Producer coefficient.
        c1: usize,
        /// Consumer coefficient.
        c2: usize,
    },
    /// Square 2-D nest: SDOALL/CDOALL class assignment.
    Nest2D {
        /// Extent per dimension.
        m: u32,
        /// Unary function applied to the index expression.
        f: usize,
    },
    /// The MDG work-array pattern: a per-iteration scratch array then an
    /// accumulation over it — needs array privatization.
    ArrayPrivate {
        /// Outer trip count.
        n: u32,
        /// Scratch-array extent.
        m: u32,
    },
    /// IF/ELSE body inside a parallel loop.
    Conditional {
        /// Trip count.
        n: u32,
        /// Threshold index.
        thr: usize,
        /// Function in the else branch.
        f1: usize,
    },
    /// Geometric induction scalar (`w = w * 1.001`): generalized
    /// induction-variable substitution.
    Giv {
        /// Trip count.
        n: u32,
    },
}

/// A variable the oracle snapshots after every run.
#[derive(Debug, Clone, PartialEq)]
pub struct WatchVar {
    /// Main-unit variable name.
    pub name: String,
    /// Must match the serial reference bit-for-bit; `false` allows the
    /// campaign tolerance (reductions reassociate).
    pub exact: bool,
}

/// A rendered program plus its oracle watch list.
#[derive(Debug, Clone)]
pub struct Rendered {
    /// Free-form Fortran 77 source.
    pub source: String,
    /// Variables the oracle compares, with exactness.
    pub watch: Vec<WatchVar>,
}

/// Source-emission accumulator for one program.
struct Emitter {
    decls: Vec<String>,
    body: Vec<String>,
    watch: Vec<WatchVar>,
}

impl Emitter {
    fn line(&mut self, s: String) {
        self.body.push(s);
    }

    fn watch_exact(&mut self, name: &str) {
        self.watch.push(WatchVar { name: name.to_string(), exact: true });
    }

    fn watch_approx(&mut self, name: &str) {
        self.watch.push(WatchVar { name: name.to_string(), exact: false });
    }

    /// Initialization step so `0.5 + step·i` spans `[0.5, 2.5]` for any
    /// extent (pure function of `n` — rendering takes no RNG).
    fn init_1d(&mut self, name: &str, n: u32) {
        let step = 2.0 / n as f64;
        self.line(format!("do i = 1, {n}"));
        self.line(format!("{name}(i) = 0.5 + {step:.6} * real(i)"));
        self.line("end do".to_string());
    }
}

impl Shape {
    /// Draw one random shape.
    fn random(rng: &mut Rng) -> Shape {
        match rng.below(10) {
            0 => Shape::Elementwise {
                n: *rng.pick(&[96, 128, 192, 256]),
                two_outputs: rng.chance(50),
                f1: rng.below(5) as usize,
                f2: rng.below(5) as usize,
                c1: rng.below(6) as usize,
                c2: rng.below(6) as usize,
            },
            1 => Shape::ScalarTemp {
                n: *rng.pick(&[96, 128, 192]),
                c1: rng.below(6) as usize,
                c2: rng.below(6) as usize,
            },
            2 => Shape::Reduction {
                n: *rng.pick(&[192, 512, 1024]),
                product: rng.chance(30),
                dot: rng.chance(50),
                extra: rng.chance(40),
            },
            3 => Shape::Recurrence { n: *rng.pick(&[96, 128]), decay: rng.below(3) as usize },
            4 => Shape::CoalesceNest {
                outer: rng.range(2, 4) as u32,
                inner: *rng.pick(&[48, 64]),
                reps: rng.range(4, 8) as u32,
            },
            5 => Shape::FusionPair {
                n: *rng.pick(&[96, 128, 192]),
                c1: rng.below(6) as usize,
                c2: rng.below(6) as usize,
            },
            6 => Shape::Nest2D { m: *rng.pick(&[32, 48, 64]), f: rng.below(5) as usize },
            7 => Shape::ArrayPrivate { n: *rng.pick(&[64, 96]), m: *rng.pick(&[8, 12, 16]) },
            8 => Shape::Conditional {
                n: *rng.pick(&[96, 128, 192]),
                thr: rng.below(3) as usize,
                f1: rng.below(5) as usize,
            },
            _ => Shape::Giv { n: *rng.pick(&[128, 256, 512]) },
        }
    }

    /// Emit this shape's declarations, body, and watch entries. `k` is
    /// the 1-based shape index used to suffix every variable name, so
    /// shapes never share state and legality stays local to each shape.
    fn emit(&self, k: usize, out: &mut Emitter) {
        match *self {
            Shape::Elementwise { n, two_outputs, f1, f2, c1, c2 } => {
                out.decls.push(format!("real a{k}({n}), b{k}({n})"));
                out.init_1d(&format!("b{k}"), n);
                out.line(format!("do i = 1, {n}"));
                out.line(format!(
                    "a{k}(i) = {} + b{k}(i) * {}",
                    unary(f1, &format!("b{k}(i)")),
                    COEF[c1 % COEF.len()]
                ));
                if two_outputs {
                    out.decls.push(format!("real c{k}({n})"));
                    out.line(format!(
                        "c{k}(i) = {} * {} + 1.0",
                        unary(f2, &format!("b{k}(i)")),
                        COEF[c2 % COEF.len()]
                    ));
                    out.watch_exact(&format!("c{k}"));
                }
                out.line("end do".to_string());
                out.watch_exact(&format!("a{k}"));
                out.watch_exact(&format!("b{k}"));
            }
            Shape::ScalarTemp { n, c1, c2 } => {
                out.decls.push(format!("real a{k}({n}), b{k}({n})"));
                out.init_1d(&format!("b{k}"), n);
                out.line(format!("do i = 1, {n}"));
                out.line(format!("t{k} = b{k}(i) * {}", COEF[c1 % COEF.len()]));
                out.line(format!("a{k}(i) = sqrt(t{k}) + t{k} * {}", COEF[c2 % COEF.len()]));
                out.line("end do".to_string());
                // t{k} is dead after the loop: privatization may leave
                // it stale, so it is deliberately not watched.
                out.watch_exact(&format!("a{k}"));
                out.watch_exact(&format!("b{k}"));
            }
            Shape::Reduction { n, product, dot, extra } => {
                out.decls.push(format!("real a{k}({n})"));
                out.init_1d(&format!("a{k}"), n);
                if dot && !product {
                    out.decls.push(format!("real b{k}({n})"));
                    out.init_1d(&format!("b{k}"), n);
                }
                out.line(format!("s{k} = {}", if product { "1.0" } else { "0.0" }));
                out.line(format!("do i = 1, {n}"));
                if product {
                    out.line(format!("s{k} = s{k} * (1.0 + 0.0001 * a{k}(i))"));
                } else {
                    let lead = if dot { format!("a{k}(i) * b{k}(i)") } else { format!("a{k}(i)") };
                    let tail = if extra { format!(" + a{k}(i) * 0.25") } else { String::new() };
                    out.line(format!("s{k} = s{k} + {lead}{tail}"));
                }
                out.line("end do".to_string());
                out.watch_approx(&format!("s{k}"));
                out.watch_exact(&format!("a{k}"));
            }
            Shape::Recurrence { n, decay } => {
                out.decls.push(format!("real a{k}({n}), b{k}({n}), c{k}({n})"));
                out.init_1d(&format!("b{k}"), n);
                out.init_1d(&format!("c{k}"), n);
                out.line(format!("a{k}(1) = 1.0"));
                out.line(format!("do i = 2, {n}"));
                out.line(format!(
                    "t{k} = sqrt(b{k}(i)) + sqrt(c{k}(i)) + sin(b{k}(i)) * cos(c{k}(i)) \
                     + exp(c{k}(i) * 0.01)"
                ));
                out.line(format!("a{k}(i) = a{k}(i - 1) * {} + t{k}", DECAY[decay % DECAY.len()]));
                out.line("end do".to_string());
                // The cascade preserves iteration order of the carried
                // value, so even DOACROSS output must be bit-identical.
                out.watch_exact(&format!("a{k}"));
                out.watch_exact(&format!("b{k}"));
            }
            Shape::CoalesceNest { outer, inner, reps } => {
                out.decls.push(format!("real a{k}({inner}, {outer})"));
                out.line(format!("do i = 1, {outer}"));
                out.line(format!("do j = 1, {inner}"));
                out.line(format!("t{k} = real(i) * 10.0 + real(j)"));
                out.line(format!("do k = 1, {reps}"));
                out.line(format!("t{k} = 0.5 * t{k} + 1.0"));
                out.line("end do".to_string());
                out.line(format!("a{k}(j, i) = t{k}"));
                out.line("end do".to_string());
                out.line("end do".to_string());
                out.watch_exact(&format!("a{k}"));
            }
            Shape::FusionPair { n, c1, c2 } => {
                out.decls.push(format!("real a{k}({n}), b{k}({n}), c{k}({n})"));
                out.init_1d(&format!("b{k}"), n);
                out.line(format!("do i = 1, {n}"));
                out.line(format!("a{k}(i) = b{k}(i) * {} + 0.5", COEF[c1 % COEF.len()]));
                out.line("end do".to_string());
                out.line(format!("do i = 1, {n}"));
                out.line(format!("c{k}(i) = a{k}(i) * {} + b{k}(i)", COEF[c2 % COEF.len()]));
                out.line("end do".to_string());
                out.watch_exact(&format!("a{k}"));
                out.watch_exact(&format!("c{k}"));
            }
            Shape::Nest2D { m, f } => {
                out.decls.push(format!("real a{k}({m}, {m})"));
                out.line(format!("do j = 1, {m}"));
                out.line(format!("do i = 1, {m}"));
                out.line(format!(
                    "a{k}(i, j) = real(i) * 0.1 + real(j) * 0.2 + {}",
                    unary(f, "real(i + j) * 0.05")
                ));
                out.line("end do".to_string());
                out.line("end do".to_string());
                out.watch_exact(&format!("a{k}"));
            }
            Shape::ArrayPrivate { n, m } => {
                out.decls.push(format!("real a{k}({n}), b{k}({n}, {m}), w{k}({m})"));
                out.line(format!("do i = 1, {n}"));
                out.line(format!("do j = 1, {m}"));
                out.line(format!("b{k}(i, j) = real(i) * 0.1 + real(j)"));
                out.line("end do".to_string());
                out.line(format!("a{k}(i) = 0.0"));
                out.line("end do".to_string());
                out.line(format!("do i = 1, {n}"));
                out.line(format!("do j = 1, {m}"));
                out.line(format!("w{k}(j) = b{k}(i, j) * 2.0"));
                out.line("end do".to_string());
                out.line(format!("do j = 1, {m}"));
                out.line(format!("a{k}(i) = a{k}(i) + w{k}(j)"));
                out.line("end do".to_string());
                out.line("end do".to_string());
                // w{k} is the privatized scratch array (not watched);
                // the inner accumulation may be reassociated.
                out.watch_approx(&format!("a{k}"));
                out.watch_exact(&format!("b{k}"));
            }
            Shape::Conditional { n, thr, f1 } => {
                out.decls.push(format!("real a{k}({n}), b{k}({n})"));
                out.init_1d(&format!("b{k}"), n);
                out.line(format!("do i = 1, {n}"));
                out.line(format!("if (b{k}(i) .gt. {}) then", THR[thr % THR.len()]));
                out.line(format!("a{k}(i) = b{k}(i) * 2.0"));
                out.line("else".to_string());
                out.line(format!("a{k}(i) = {} + 1.0", unary(f1, &format!("b{k}(i)"))));
                out.line("end if".to_string());
                out.line("end do".to_string());
                out.watch_exact(&format!("a{k}"));
                out.watch_exact(&format!("b{k}"));
            }
            Shape::Giv { n } => {
                out.decls.push(format!("real a{k}({n})"));
                out.line(format!("w{k} = 1.0"));
                out.line(format!("do i = 1, {n}"));
                out.line(format!("w{k} = w{k} * 1.001"));
                out.line(format!("a{k}(i) = w{k} * 2.0"));
                out.line("end do".to_string());
                // GIV substitution computes w via a power, which is not
                // bit-identical to the iterated product.
                out.watch_approx(&format!("a{k}"));
                out.watch_approx(&format!("w{k}"));
            }
        }
    }

    /// Smaller variants of this shape for the shrinker (statement
    /// deletion and extent reduction), most aggressive first.
    pub fn reductions(&self) -> Vec<Shape> {
        let mut out = Vec::new();
        let halve = |n: u32| if n > 16 { Some(n / 2) } else { None };
        match *self {
            Shape::Elementwise { n, two_outputs, f1, f2, c1, c2 } => {
                if two_outputs {
                    out.push(Shape::Elementwise { n, two_outputs: false, f1, f2, c1, c2 });
                }
                if let Some(n) = halve(n) {
                    out.push(Shape::Elementwise { n, two_outputs, f1, f2, c1, c2 });
                }
            }
            Shape::ScalarTemp { n, c1, c2 } => {
                if let Some(n) = halve(n) {
                    out.push(Shape::ScalarTemp { n, c1, c2 });
                }
            }
            Shape::Reduction { n, product, dot, extra } => {
                if extra {
                    out.push(Shape::Reduction { n, product, dot, extra: false });
                }
                if dot {
                    out.push(Shape::Reduction { n, product, dot: false, extra });
                }
                if let Some(n) = halve(n) {
                    out.push(Shape::Reduction { n, product, dot, extra });
                }
            }
            Shape::Recurrence { n, decay } => {
                if let Some(n) = halve(n) {
                    out.push(Shape::Recurrence { n, decay });
                }
            }
            Shape::CoalesceNest { outer, inner, reps } => {
                if reps > 1 {
                    out.push(Shape::CoalesceNest { outer, inner, reps: reps / 2 });
                }
                if inner > 8 {
                    out.push(Shape::CoalesceNest { outer, inner: inner / 2, reps });
                }
            }
            Shape::FusionPair { n, c1, c2 } => {
                if let Some(n) = halve(n) {
                    out.push(Shape::FusionPair { n, c1, c2 });
                }
            }
            Shape::Nest2D { m, f } => {
                if m > 4 {
                    out.push(Shape::Nest2D { m: m / 2, f });
                }
            }
            Shape::ArrayPrivate { n, m } => {
                if m > 2 {
                    out.push(Shape::ArrayPrivate { n, m: m / 2 });
                }
                if let Some(n) = halve(n) {
                    out.push(Shape::ArrayPrivate { n, m });
                }
            }
            Shape::Conditional { n, thr, f1 } => {
                if let Some(n) = halve(n) {
                    out.push(Shape::Conditional { n, thr, f1 });
                }
            }
            Shape::Giv { n } => {
                if let Some(n) = halve(n) {
                    out.push(Shape::Giv { n });
                }
            }
        }
        out
    }

    /// Short tag for reports.
    pub fn tag(&self) -> &'static str {
        match self {
            Shape::Elementwise { .. } => "elementwise",
            Shape::ScalarTemp { .. } => "scalar-temp",
            Shape::Reduction { .. } => "reduction",
            Shape::Recurrence { .. } => "recurrence",
            Shape::CoalesceNest { .. } => "coalesce-nest",
            Shape::FusionPair { .. } => "fusion-pair",
            Shape::Nest2D { .. } => "nest-2d",
            Shape::ArrayPrivate { .. } => "array-private",
            Shape::Conditional { .. } => "conditional",
            Shape::Giv { .. } => "giv",
        }
    }
}

/// A generated program: the seed it came from plus its shape list (the
/// shrinker produces variants whose `shapes` no longer match the seed).
#[derive(Debug, Clone, PartialEq)]
pub struct GenProgram {
    /// Generator seed (for replay and labeling).
    pub seed: u64,
    /// Loop-nest shapes, program order.
    pub shapes: Vec<Shape>,
}

impl GenProgram {
    /// Generate the program for `seed`: two to four shapes drawn from
    /// the template table.
    pub fn generate(seed: u64) -> GenProgram {
        let mut rng = Rng::new(seed);
        let count = rng.range(2, 4) as usize;
        let shapes = (0..count).map(|_| Shape::random(&mut rng)).collect();
        GenProgram { seed, shapes }
    }

    /// Render to free-form Fortran plus the oracle watch list.
    pub fn render(&self) -> Rendered {
        let mut e = Emitter { decls: Vec::new(), body: Vec::new(), watch: Vec::new() };
        for (k, shape) in self.shapes.iter().enumerate() {
            shape.emit(k + 1, &mut e);
        }
        // Sized exactly: a corpus keeps thousands of these.
        let lines = || e.decls.iter().chain(&e.body);
        let len =
            "program fz\n".len() + lines().map(|l| l.len() + 1).sum::<usize>() + "end\n".len();
        let mut src = String::with_capacity(len);
        src.push_str("program fz\n");
        for l in lines() {
            src.push_str(l);
            src.push('\n');
        }
        src.push_str("end\n");
        Rendered { source: src, watch: e.watch }
    }

    /// Shrink candidates, one mutation each: every single-shape
    /// deletion (front to back), then every single-shape reduction.
    pub fn shrink_candidates(&self) -> Vec<GenProgram> {
        let mut out = Vec::new();
        if self.shapes.len() > 1 {
            for k in 0..self.shapes.len() {
                let mut shapes = self.shapes.clone();
                shapes.remove(k);
                out.push(GenProgram { seed: self.seed, shapes });
            }
        }
        for k in 0..self.shapes.len() {
            for red in self.shapes[k].reductions() {
                let mut shapes = self.shapes.clone();
                shapes[k] = red;
                out.push(GenProgram { seed: self.seed, shapes });
            }
        }
        out
    }

    /// `shape-tag` list for reports.
    pub fn tags(&self) -> Vec<&'static str> {
        self.shapes.iter().map(Shape::tag).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generation_is_deterministic() {
        for seed in 0..32 {
            let a = GenProgram::generate(seed);
            let b = GenProgram::generate(seed);
            assert_eq!(a, b);
            assert_eq!(a.render().source, b.render().source);
            assert!((2..=4).contains(&a.shapes.len()));
        }
    }

    #[test]
    fn every_template_compiles_and_runs() {
        // One program per template, exercised through parse → lower →
        // serial simulation.
        let shapes = [
            Shape::Elementwise { n: 96, two_outputs: true, f1: 0, f2: 1, c1: 0, c2: 1 },
            Shape::ScalarTemp { n: 96, c1: 0, c2: 1 },
            Shape::Reduction { n: 192, product: false, dot: true, extra: true },
            Shape::Reduction { n: 192, product: true, dot: false, extra: false },
            Shape::Recurrence { n: 96, decay: 1 },
            Shape::CoalesceNest { outer: 3, inner: 48, reps: 6 },
            Shape::FusionPair { n: 96, c1: 2, c2: 3 },
            Shape::Nest2D { m: 32, f: 2 },
            Shape::ArrayPrivate { n: 64, m: 8 },
            Shape::Conditional { n: 96, thr: 1, f1: 3 },
            Shape::Giv { n: 128 },
        ];
        for s in shapes {
            let gp = GenProgram { seed: 0, shapes: vec![s.clone()] };
            let r = gp.render();
            let p = cedar_ir::compile_free(&r.source)
                .unwrap_or_else(|e| panic!("{}: {e}\n{}", s.tag(), r.source));
            let sim = cedar_sim::run(&p, cedar_sim::MachineConfig::cedar_config1_scaled())
                .unwrap_or_else(|e| panic!("{}: {e}\n{}", s.tag(), r.source));
            for w in &r.watch {
                let v = sim
                    .read_f64(&w.name)
                    .unwrap_or_else(|| panic!("{}: `{}` unreadable", s.tag(), w.name));
                assert!(
                    v.iter().all(|x| x.is_finite()),
                    "{}: `{}` produced non-finite values",
                    s.tag(),
                    w.name
                );
            }
        }
    }

    #[test]
    fn shrink_candidates_are_strictly_simpler() {
        let gp = GenProgram::generate(7);
        for cand in gp.shrink_candidates() {
            assert!(
                cand.shapes.len() < gp.shapes.len()
                    || cand.shapes.iter().zip(&gp.shapes).any(|(a, b)| a != b),
                "candidate identical to parent"
            );
            // Every candidate still renders to a compilable program.
            let r = cand.render();
            cedar_ir::compile_free(&r.source)
                .unwrap_or_else(|e| panic!("shrunk program broken: {e}\n{}", r.source));
        }
    }
}
