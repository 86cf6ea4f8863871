//! Fixed-form source emission: one streaming writer, three dialects.
//!
//! Renders a [`Program`] back to fixed-form Fortran text — the
//! restructurer's user-visible output format, and the basis of the
//! round-trip property tests (emit → parse → lower → compare).
//!
//! Every statement is written piece by piece into one reusable buffer
//! and wrapped at column 72 straight into the output; no expression,
//! argument list or card has a string of its own. What differs between
//! the emission backends of `cedar-restructure` is a [`Dialect`]: a
//! handful of spelling decisions taken while printing, not a rewrite of
//! the tree beforehand.

use crate::expr::{BinOp, Expr, Index, UnOp};
use crate::program::{Program, Unit, UnitKind};
use crate::stmt::{LValue, Loop, Stmt, SyncOp};
use crate::symbol::{Placement, SymKind, Symbol, SymbolId};
use crate::types::{Ty, Value};
use crate::{ParMode, RedOp};
use std::fmt::Write;

/// One `reduction(op:target)` clause of an OpenMP directive, attached to
/// the `directive`-th directive loop of its unit in print order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OmpReduction {
    /// Which directive loop of the unit, counting from 0 as printed.
    pub directive: usize,
    /// The clause's operator.
    pub op: RedOp,
    /// The reduced variable.
    pub target: SymbolId,
}

/// How the writer spells what the dialects spell differently.
///
/// | decision | `Cedar` | `OpenMp` | `Serial` |
/// |---|---|---|---|
/// | loop head / tail | class keyword, `end <class>` | `do`, `end do` | `do`, `end do` |
/// | directive card before a DOALL | — | `!$omp parallel do` + clauses | — |
/// | loop locals | declared inside the loop | `private(...)` clause | — |
/// | pre/postamble | `loop` / `endloop` markers | none may be left | none may be left |
/// | lock, unlock | `call lock(k)` | `call omp_set_lock(k)` | dropped |
/// | await, advance | printed | dropped | dropped |
/// | task start | `call ctskstart(f, ..)` | as Cedar | `call f(..)` |
/// | task wait | `call tskwait` | as Cedar | dropped |
/// | `$v`/`$c`/`$x` reduction suffix | printed | — | — |
/// | `global` / `cluster` lines | printed | — | — |
///
/// Outside `Cedar` a loop-local symbol is only printed once something
/// has turned it into an ordinary local, and a loop must have lost its
/// pre/postamble: that part is structural and stays with the backends.
#[derive(Debug, Clone, Copy)]
pub enum Dialect<'a> {
    /// Cedar Fortran, the paper's dialect.
    Cedar,
    /// Fortran with `!$omp parallel do` directives. DOACROSS classes
    /// print as plain loops.
    OpenMp {
        /// Clauses of the unit's directive loops, in print order.
        reductions: &'a [OmpReduction],
    },
    /// Plain sequential Fortran 77.
    Serial,
}

/// Render the whole program as Cedar Fortran source.
pub fn print_program(p: &Program) -> String {
    program_text(p, print_unit)
}

/// The one assembler of program text, for every dialect: `print`
/// writes each unit and a blank line follows it. The text is returned
/// with its capacity equal to its length, so an emission that is kept
/// holds no more memory than it has bytes.
pub fn program_text(p: &Program, mut print: impl FnMut(&Unit, &mut String)) -> String {
    let mut out = String::new();
    for u in &p.units {
        print(u, &mut out);
        out.push('\n');
    }
    out.shrink_to_fit();
    out
}

/// Render one unit as Cedar Fortran.
pub fn print_unit(u: &Unit, out: &mut String) {
    print_unit_as(u, Dialect::Cedar, out);
}

/// Render one unit in the given dialect.
pub fn print_unit_as(u: &Unit, dialect: Dialect<'_>, out: &mut String) {
    let mut w = Writer::new(u, dialect, out);
    w.unit_header();
    w.decls();
    w.body(&u.body);
    w.line("end");
    debug_assert!(
        !matches!(w.dialect, Dialect::OpenMp { reductions: [_, ..] }),
        "reduction clause left over"
    );
}

/// Column past which fixed-form statement text must continue on a new
/// card. Our lexer tolerates overlong lines, but emitted source should
/// stay legal F77 for external tools.
pub const FIXED_FORM_WIDTH: usize = 72;

/// Columns 1–5 of an ordinary statement card.
const BLANK: &str = "     ";

/// The one wrapping loop: `sentinel` fills columns 1–5 of every card
/// (blank for a statement, `!$omp` for a directive), column 6 is blank
/// on the first card and `&` on continuations, which sit one indent
/// level deeper. The split points are spaces: the lexer reassembles
/// continuations by joining with exactly one space, so space-splitting
/// reproduces the statement text byte-for-byte on re-parse. A single
/// token longer than the card budget is emitted overlong rather than
/// broken mid-token.
fn wrap(out: &mut String, sentinel: &str, indent: usize, text: &str) {
    let mut rest = text;
    let (mut mark, mut depth) = (' ', indent);
    loop {
        out.push_str(sentinel);
        out.push(mark);
        for _ in 0..depth {
            out.push_str("  ");
        }
        let budget = FIXED_FORM_WIDTH.saturating_sub(6 + 2 * depth);
        // Longest space-split that keeps this card within the budget;
        // if no space fits, break at the next space anyway (overlong
        // card) rather than splitting inside a token.
        let cut = if rest.len() <= budget {
            None
        } else {
            match rest[..budget + 1].rfind(' ') {
                Some(i) if i > 0 => Some(i),
                _ => rest[1..].find(' ').map(|i| i + 1),
            }
        };
        let Some(i) = cut else {
            out.push_str(rest);
            out.push('\n');
            return;
        };
        out.push_str(&rest[..i]);
        out.push('\n');
        rest = &rest[i + 1..];
        (mark, depth) = ('&', indent + 1);
    }
}

struct Writer<'a> {
    unit: &'a Unit,
    dialect: Dialect<'a>,
    out: &'a mut String,
    /// The statement being written; [`Writer::flush`] wraps it into `out`.
    stmt: String,
    indent: usize,
    /// Directive loops printed so far (see [`OmpReduction::directive`]).
    directives: usize,
}

impl<'a> Writer<'a> {
    fn new(unit: &'a Unit, dialect: Dialect<'a>, out: &'a mut String) -> Self {
        Writer { unit, dialect, out, stmt: String::with_capacity(128), indent: 0, directives: 0 }
    }

    /// End the statement in `stmt`: wrap it into the output as cards.
    fn flush(&mut self) {
        wrap(self.out, BLANK, self.indent, &self.stmt);
        self.stmt.clear();
    }

    fn line(&mut self, text: &str) {
        wrap(self.out, BLANK, self.indent, text);
    }

    fn put(&mut self, text: &str) {
        self.stmt.push_str(text);
    }

    fn name(&mut self, id: SymbolId) {
        self.stmt.push_str(&self.unit.symbol(id).name);
    }

    /// `each` item of `items`, separated by `, `.
    fn list<T>(&mut self, items: impl IntoIterator<Item = T>, mut each: impl FnMut(&mut Self, T)) {
        for (i, item) in items.into_iter().enumerate() {
            if i > 0 {
                self.put(", ");
            }
            each(self, item);
        }
    }

    /// `(a, b, c)`.
    fn args<T>(&mut self, items: &[T], each: impl FnMut(&mut Self, &T)) {
        self.put("(");
        self.list(items, each);
        self.put(")");
    }

    /// `(a, b, c)`, or nothing for an empty list.
    fn opt_args<T>(&mut self, items: &[T], each: impl FnMut(&mut Self, &T)) {
        if !items.is_empty() {
            self.args(items, each);
        }
    }

    fn unit_header(&mut self) {
        let u = self.unit;
        match u.kind {
            UnitKind::Program => self.put("program "),
            UnitKind::Subroutine => self.put("subroutine "),
            UnitKind::Function => {
                let ret = u.result.map(|r| u.symbol(r).ty).unwrap_or(Ty::Real);
                let _ = write!(self.stmt, "{ret} function ");
            }
        }
        self.put(&u.name);
        if u.kind != UnitKind::Program {
            self.opt_args(&u.args, |w, a| w.name(*a));
        }
        self.flush();
    }

    fn decls(&mut self) {
        let u = self.unit;
        // Type declarations for every non-loop-local symbol (loop locals
        // print inside their loops).
        let declared = || u.symbols.iter().filter(|s| !matches!(s.kind, SymKind::LoopLocal));
        for s in declared() {
            self.decl(s);
            self.flush();
        }
        if matches!(self.dialect, Dialect::Cedar) {
            for (kw, placement) in
                [("global ", Placement::Global), ("cluster ", Placement::Cluster)]
            {
                let mut placed = declared().filter(|s| s.placement == placement).peekable();
                if placed.peek().is_some() {
                    self.put(kw);
                    self.list(placed, |w, s| w.put(&s.name));
                    self.flush();
                }
            }
        }
        // COMMON membership, grouped by block in member order.
        let mut blocks: Vec<(&str, Vec<(usize, &Symbol)>)> = Vec::new();
        for s in &u.symbols {
            if let SymKind::Common { block, member } = &s.kind {
                match blocks.iter_mut().find(|(b, _)| b == block) {
                    Some((_, v)) => v.push((*member, s)),
                    None => blocks.push((block, vec![(*member, s)])),
                }
            }
        }
        for (block, mut members) in blocks {
            members.sort_by_key(|(m, _)| *m);
            let _ = write!(self.stmt, "common /{block}/ ");
            self.list(members, |w, (_, s)| w.put(&s.name));
            self.flush();
        }
        // DATA initializers.
        for s in &u.symbols {
            if !s.init.is_empty() && !s.is_param() {
                let _ = write!(self.stmt, "data {} /", s.name);
                self.list(&s.init, |w, v| write_value(&mut w.stmt, v));
                self.put("/");
                self.flush();
            }
        }
    }

    /// One type declaration (`real a(n, m)`), unterminated.
    fn decl(&mut self, s: &Symbol) {
        let _ = write!(self.stmt, "{} {}", s.ty, s.name);
        self.opt_args(&s.dims, |w, d| {
            if d.lower.as_const_int() != Some(1) {
                w.expr(&d.lower, 0);
                w.put(":");
            }
            match &d.upper {
                Some(e) => w.expr(e, 0),
                None => w.put("*"),
            }
        });
    }

    fn body(&mut self, stmts: &[Stmt]) {
        self.indent += 1;
        for s in stmts {
            self.stmt(s);
        }
        self.indent -= 1;
    }

    /// Does the dialect drop this statement?
    fn dropped(&self, s: &Stmt) -> bool {
        match (self.dialect, s) {
            (Dialect::Cedar, _) => false,
            (Dialect::Serial, Stmt::Sync(_) | Stmt::TaskWait { .. }) => true,
            (_, Stmt::Sync(SyncOp::Await { .. } | SyncOp::Advance { .. })) => true,
            _ => false,
        }
    }

    fn stmt(&mut self, s: &Stmt) {
        if self.dropped(s) {
            return;
        }
        match s {
            Stmt::Assign { lhs, rhs, .. } => {
                self.lvalue(lhs);
                self.put(" = ");
                self.expr(rhs, 0);
            }
            Stmt::WhereAssign { mask, lhs, rhs, .. } => {
                self.put("where (");
                self.expr(mask, 0);
                self.put(") ");
                self.lvalue(lhs);
                self.put(" = ");
                self.expr(rhs, 0);
            }
            Stmt::If { cond, then_body, elifs, else_body, .. } => {
                self.cond("if (", cond, ") then");
                self.body(then_body);
                for (ec, eb) in elifs {
                    self.cond("else if (", ec, ") then");
                    self.body(eb);
                }
                if else_body.iter().any(|s| !self.dropped(s)) {
                    self.line("else");
                    self.body(else_body);
                }
                self.put("end if");
            }
            Stmt::Loop(l) => return self.print_loop(l),
            Stmt::DoWhile { cond, body, .. } => {
                self.cond("do while (", cond, ")");
                self.body(body);
                self.put("end do");
            }
            Stmt::Call { callee, args, .. } => self.call(callee, args),
            Stmt::TaskStart { callee, args, lib, .. } => {
                if matches!(self.dialect, Dialect::Serial) {
                    self.call(callee, args);
                } else {
                    self.put(if *lib { "call mtskstart(" } else { "call ctskstart(" });
                    self.put(callee);
                    for a in args {
                        self.put(", ");
                        self.expr(a, 0);
                    }
                    self.put(")");
                }
            }
            Stmt::TaskWait { .. } => self.put("call tskwait"),
            Stmt::Sync(op) => {
                let omp = matches!(self.dialect, Dialect::OpenMp { .. });
                let _ = match op {
                    SyncOp::Await { point, dist } => {
                        let _ = write!(self.stmt, "call await({point}, ");
                        self.expr(dist, 0);
                        write!(self.stmt, ")")
                    }
                    SyncOp::Advance { point } => write!(self.stmt, "call advance({point})"),
                    SyncOp::Lock { id } if omp => write!(self.stmt, "call omp_set_lock({id})"),
                    SyncOp::Unlock { id } if omp => write!(self.stmt, "call omp_unset_lock({id})"),
                    SyncOp::Lock { id } => write!(self.stmt, "call lock({id})"),
                    SyncOp::Unlock { id } => write!(self.stmt, "call unlock({id})"),
                };
            }
            Stmt::Return => self.put("return"),
            Stmt::Stop => self.put("stop"),
            Stmt::Io { .. } => self.put("print *"),
        }
        self.flush();
    }

    /// A complete `<open><cond><close>` line.
    fn cond(&mut self, open: &str, cond: &Expr, close: &str) {
        self.put(open);
        self.expr(cond, 0);
        self.put(close);
        self.flush();
    }

    fn call(&mut self, callee: &str, args: &[Expr]) {
        self.put("call ");
        self.put(callee);
        self.opt_args(args, |w, a| w.expr(a, 0));
    }

    fn print_loop(&mut self, l: &Loop) {
        let cedar = matches!(self.dialect, Dialect::Cedar);
        if let Dialect::OpenMp { reductions } = self.dialect {
            if l.class.is_parallel() && !l.class.is_ordered() {
                self.put("parallel do");
                if !l.locals.is_empty() {
                    self.put(" private");
                    self.args(&l.locals, |w, id| w.name(*id));
                }
                let mine = reductions.iter().take_while(|r| r.directive == self.directives).count();
                for r in &reductions[..mine] {
                    let _ = write!(self.stmt, " reduction({}:", r.op.clause());
                    self.name(r.target);
                    self.put(")");
                }
                self.dialect = Dialect::OpenMp { reductions: &reductions[mine..] };
                self.directives += 1;
                // Directives are comment-position cards: no statement indent.
                wrap(self.out, "!$omp", 0, &self.stmt);
                self.stmt.clear();
            }
        }
        let kw = if cedar { l.class.keyword() } else { "do" };
        self.put(kw);
        self.put(" ");
        self.name(l.var);
        self.put(" = ");
        self.expr(&l.start, 0);
        self.put(", ");
        self.expr(&l.end, 0);
        if let Some(st) = &l.step {
            self.put(", ");
            self.expr(st, 0);
        }
        self.flush();
        let has_markers = !l.preamble.is_empty() || !l.postamble.is_empty();
        debug_assert!(cedar || !has_markers, "only Cedar Fortran can spell a pre/postamble");
        if cedar {
            self.indent += 1;
            for loc in &l.locals {
                self.decl(self.unit.symbol(*loc));
                self.flush();
            }
            self.indent -= 1;
        }
        if has_markers {
            self.body(&l.preamble);
            self.line("loop");
        }
        self.body(&l.body);
        if has_markers {
            self.line("endloop");
            self.body(&l.postamble);
        }
        self.put("end ");
        self.put(kw);
        self.flush();
    }

    fn lvalue(&mut self, l: &LValue) {
        match l {
            LValue::Scalar(s) => self.name(*s),
            LValue::Elem { arr, idx } => self.elem(*arr, idx),
            LValue::Section { arr, idx } => self.section(*arr, idx),
        }
    }

    fn elem(&mut self, arr: SymbolId, idx: &[Expr]) {
        self.name(arr);
        self.args(idx, |w, e| w.expr(e, 0));
    }

    fn section(&mut self, arr: SymbolId, idx: &[Index]) {
        self.name(arr);
        self.args(idx, |w, i| match i {
            Index::At(e) => w.expr(e, 0),
            Index::Range { lo, hi, step } => {
                if let Some(e) = lo {
                    w.expr(e, 0);
                }
                w.put(":");
                if let Some(e) = hi {
                    w.expr(e, 0);
                }
                if let Some(e) = step {
                    w.put(":");
                    w.expr(e, 0);
                }
            }
        });
    }

    /// An expression with minimal parenthesization: parenthesized when
    /// it binds looser than `min`.
    fn expr(&mut self, e: &Expr, min: u8) {
        let paren = match e {
            Expr::ConstI(v) => *v < 0,
            Expr::ConstR { value, .. } => *value < 0.0,
            Expr::Un(UnOp::Neg, _) => min > 6,
            Expr::Un(UnOp::Not, _) => min > 4,
            Expr::Bin(op, ..) => prec(*op) < min,
            _ => false,
        };
        if paren {
            self.put("(");
        }
        match e {
            Expr::ConstI(v) => {
                let _ = write!(self.stmt, "{v}");
            }
            Expr::ConstR { value, double } => write_real(&mut self.stmt, *value, *double),
            Expr::ConstB(true) => self.put(".true."),
            Expr::ConstB(false) => self.put(".false."),
            Expr::Scalar(s) => self.name(*s),
            Expr::Elem { arr, idx } => self.elem(*arr, idx),
            Expr::Section { arr, idx } => self.section(*arr, idx),
            Expr::Un(UnOp::Neg, inner) => {
                self.put("-");
                self.expr(inner, 8);
            }
            Expr::Un(UnOp::Not, inner) => {
                self.put(".not. ");
                self.expr(inner, 4);
            }
            Expr::Bin(op, l, r) => {
                let p = prec(*op);
                // Left-assoc: right side needs p+1 (except POW: right-assoc).
                let (lp, rp) = if *op == BinOp::Pow { (p + 1, p) } else { (p, p + 1) };
                self.expr(l, lp);
                self.put(op_text(*op));
                self.expr(r, rp);
            }
            Expr::Intr { f, args, par } => {
                self.put(f.name());
                // Runtime-library reductions exist in per-level scheduling
                // variants (§3.3); the variant is part of the name so the
                // emitted source round-trips: `$v` vector, `$c` one cluster,
                // `$x` whole machine.
                if f.is_reduction() && matches!(self.dialect, Dialect::Cedar) {
                    self.put(match par {
                        ParMode::Serial => "",
                        ParMode::Vector => "$v",
                        ParMode::ClusterParallel => "$c",
                        ParMode::CedarParallel => "$x",
                    });
                }
                self.args(args, |w, x| w.expr(x, 0));
            }
            Expr::Call { unit, args } => {
                self.put(unit);
                self.args(args, |w, x| w.expr(x, 0));
            }
        }
        if paren {
            self.put(")");
        }
    }
}

fn write_value(buf: &mut String, v: &Value) {
    match v {
        Value::I(i) => {
            let _ = write!(buf, "{i}");
        }
        Value::R(r) => write_real(buf, *r, false),
        Value::B(true) => buf.push_str(".true."),
        Value::B(false) => buf.push_str(".false."),
    }
}

fn write_real(buf: &mut String, v: f64, double: bool) {
    let start = buf.len();
    let _ = write!(buf, "{v:?}"); // Debug for f64 always keeps a decimal point
    if double {
        match buf[start..].find(['e', 'E']) {
            Some(e) => buf.replace_range(start + e..=start + e, "d"),
            None => buf.push_str("d0"),
        }
    }
}

/// Operator precedence for printing (higher binds tighter).
fn prec(op: BinOp) -> u8 {
    match op {
        BinOp::Eqv | BinOp::Neqv => 1,
        BinOp::Or => 2,
        BinOp::And => 3,
        BinOp::Eq | BinOp::Ne | BinOp::Lt | BinOp::Le | BinOp::Gt | BinOp::Ge => 5,
        BinOp::Add | BinOp::Sub => 6,
        BinOp::Mul | BinOp::Div => 7,
        BinOp::Pow => 9,
    }
}

fn op_text(op: BinOp) -> &'static str {
    match op {
        BinOp::Add => " + ",
        BinOp::Sub => " - ",
        BinOp::Mul => " * ",
        BinOp::Div => " / ",
        BinOp::Pow => " ** ",
        BinOp::Eq => " .eq. ",
        BinOp::Ne => " .ne. ",
        BinOp::Lt => " .lt. ",
        BinOp::Le => " .le. ",
        BinOp::Gt => " .gt. ",
        BinOp::Ge => " .ge. ",
        BinOp::And => " .and. ",
        BinOp::Or => " .or. ",
        BinOp::Eqv => " .eqv. ",
        BinOp::Neqv => " .neqv. ",
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compile_free;

    fn round_trip(src: &str) -> (Program, Program) {
        let p1 = compile_free(src).unwrap();
        let text = print_program(&p1);
        let p2 = crate::compile_source(&text)
            .unwrap_or_else(|e| panic!("re-parse failed: {e}\n---\n{text}"));
        (p1, p2)
    }

    /// Structural equality modulo spans: compare printed forms.
    fn assert_same_print(p1: &Program, p2: &Program) {
        assert_eq!(print_program(p1), print_program(p2));
    }

    #[test]
    fn round_trip_sequential_unit() {
        let (p1, p2) = round_trip(
            "subroutine daxpy(n, a, x, y)\ninteger n\nreal a, x(n), y(n)\n\
             do 10 i = 1, n\ny(i) = y(i) + a * x(i)\n10 continue\nreturn\nend\n",
        );
        assert_same_print(&p1, &p2);
    }

    #[test]
    fn round_trip_parallel_loop() {
        let (p1, p2) = round_trip(
            "subroutine s(a, b, n)\nreal a(n), b(n)\nglobal a, b, n\n\
             xdoall i = 1, n, 32\ninteger i3\nreal t(32)\n\
             i3 = min(32, n - i + 1)\nt(1:i3) = b(i:i+i3-1)\na(i:i+i3-1) = sqrt(t(1:i3))\n\
             end xdoall\nend\n",
        );
        assert_same_print(&p1, &p2);
    }

    #[test]
    fn round_trip_doacross_sync() {
        let (p1, p2) = round_trip(
            "subroutine s(a, b, n)\nreal a(n), b(n)\ncdoacross i = 2, n\n\
             call await(1, 1)\nb(i) = a(i) + b(i - 1)\ncall advance(1)\nend cdoacross\nend\n",
        );
        assert_same_print(&p1, &p2);
    }

    #[test]
    fn round_trip_if_where_common() {
        let (p1, p2) = round_trip(
            "subroutine s(x, n)\nreal x(n)\ncommon /blk/ w(100), k\n\
             if (k .gt. 0) then\nwhere (x(1:n) .gt. 0.0) x(1:n) = sqrt(x(1:n))\n\
             else\nk = 1\nend if\nw(1) = x(1)\nend\n",
        );
        assert_same_print(&p1, &p2);
    }

    #[test]
    fn precedence_printing_is_minimal_and_correct() {
        let p = compile_free("subroutine s(a, b, c, x)\nx = (a + b) * c - a / (b - c) ** 2\nend\n")
            .unwrap();
        let text = print_program(&p);
        assert!(text.contains("x = (a + b) * c - a / (b - c) ** 2"), "got: {text}");
    }

    #[test]
    fn long_statements_wrap_at_column_72_and_round_trip() {
        // Generate a RHS long enough to overflow several cards; the fuzz
        // templates keep expressions short, so this path needs its own
        // regression coverage.
        let terms: Vec<String> = (1..=24).map(|k| format!("a(i + {k}) * b(i + {k})")).collect();
        let src = format!(
            "subroutine s(a, b, x, n)\nreal a(n), b(n), x\ninteger i\ndo 10 i = 1, n\nx = x + {}\n10 continue\nend\n",
            terms.join(" + ")
        );
        let p1 = compile_free(&src).unwrap();
        let text = print_program(&p1);
        for line in text.lines() {
            assert!(
                line.len() <= FIXED_FORM_WIDTH,
                "line exceeds column {FIXED_FORM_WIDTH}: `{line}`"
            );
        }
        let cont = text.lines().filter(|l| l.starts_with("     &")).count();
        assert!(cont >= 2, "expected several continuation cards, got {cont}:\n{text}");
        let p2 = crate::compile_source(&text)
            .unwrap_or_else(|e| panic!("re-parse failed: {e}\n---\n{text}"));
        assert_same_print(&p1, &p2);
    }

    #[test]
    fn overlong_single_token_is_not_split() {
        let mut out = String::new();
        let token = "x".repeat(90);
        wrap(&mut out, BLANK, 1, &token);
        assert_eq!(out, format!("        {token}\n"));
        // A long token after a short head lands alone on its own card.
        out.clear();
        wrap(&mut out, BLANK, 0, &format!("y = {token}"));
        assert_eq!(out, format!("      y =\n     &  {token}\n"));
    }

    /// A statement's cards, one per line, without the final newline.
    fn cards(indent: usize, text: &str) -> String {
        let mut out = String::new();
        wrap(&mut out, BLANK, indent, text);
        assert!(out.ends_with('\n'));
        out.trim_end_matches('\n').to_string()
    }

    #[test]
    fn continuation_cards_sit_one_level_deeper_than_an_indented_statement() {
        let terms: Vec<String> = (1..=9).map(|k| format!("a(i + {k}) * b(i + {k})")).collect();
        assert_eq!(
            cards(2, &format!("x = x + {}", terms.join(" + "))),
            "          x = x + a(i + 1) * b(i + 1) + a(i + 2) * b(i + 2) + a(i + 3) *\n     \
             &      b(i + 3) + a(i + 4) * b(i + 4) + a(i + 5) * b(i + 5) + a(i +\n     \
             &      6) * b(i + 6) + a(i + 7) * b(i + 7) + a(i + 8) * b(i + 8) +\n     \
             &      a(i + 9) * b(i + 9)"
        );
    }

    #[test]
    fn a_lead_past_column_72_puts_one_token_on_each_card() {
        let (first, cont) = (" ".repeat(6 + 80), format!("     &{}", " ".repeat(82)));
        assert_eq!(cards(40, "x = y + z"), format!("{first}x\n{cont}=\n{cont}y\n{cont}+\n{cont}z"));
        // Four columns left on the first card, two on the others.
        let (first, cont) = (" ".repeat(6 + 62), format!("     &{}", " ".repeat(64)));
        assert_eq!(cards(31, "x = y + zed"), format!("{first}x =\n{cont}y\n{cont}+\n{cont}zed"));
    }

    #[test]
    fn a_long_private_list_continues_on_omp_sentinel_cards() {
        let locals: Vec<String> = (1..=16).map(|k| format!("work{k}")).collect();
        let src = format!(
            "subroutine s(a, n, total)\nreal a(n), total\nxdoall i = 1, n\nreal {}\n\
             a(i) = 1.0\nend xdoall\nend\n",
            locals.join(", ")
        );
        let p = compile_free(&src).unwrap();
        let u = &p.units[0];
        let total = u.find_symbol("total").unwrap();
        let reductions = [OmpReduction { directive: 0, op: RedOp::Sum, target: total }];
        let mut out = String::new();
        print_unit_as(u, Dialect::OpenMp { reductions: &reductions }, &mut out);
        assert!(
            out.contains(
                "\n!$omp parallel do private(work1, work2, work3, work4, work5, work6,\n\
                 !$omp&  work7, work8, work9, work10, work11, work12, work13, work14,\n\
                 !$omp&  work15, work16) reduction(+:total)\n        do i = 1, n\n"
            ),
            "got:\n{out}"
        );
        assert!(out.contains("          a(i) = 1.0\n        end do\n      end\n"), "got:\n{out}");
        assert!(!out.contains("xdoall") && !out.contains("real work1"), "got:\n{out}");
    }

    /// An expression with minimal parenthesization.
    fn expr_text(u: &Unit, e: &Expr) -> String {
        let mut out = String::new();
        let mut w = Writer::new(u, Dialect::Cedar, &mut out);
        w.expr(e, 0);
        w.stmt
    }

    /// A DATA / PARAMETER value.
    fn value_text(v: &Value) -> String {
        let mut s = String::new();
        write_value(&mut s, v);
        s
    }

    #[test]
    fn signs_and_exponents_print_as_f77_constants() {
        let p = compile_free(
            "subroutine s(a, b, c, n)\ndouble precision a, b, c\ninteger n\n\
             a = -(b + c) * (-2) - (-b) ** (-n) + 1.5d0 * 1d-7 - (-2.5d3)\n\
             b = 1e-7 + 1.0e21 * (-0.5)\nc = .not. (a .lt. -b)\nend\n",
        )
        .unwrap();
        assert_eq!(
            print_program(&p),
            "      subroutine s(a, b, c, n)\n      double precision a\n      \
             double precision b\n      double precision c\n      integer n\n        \
             a = -((b + c) * (-2)) - (-b) ** (-n) + 1.5d0 * 1d-7 -\n     \
             &    (-2500.0d0)\n        b = 1e-7 + 1e21 * (-0.5)\n        \
             c = .not. a .lt. -b\n      end\n\n"
        );
        let u = &p.units[0];
        let real = |value, double| expr_text(u, &Expr::ConstR { value, double });
        assert_eq!(expr_text(u, &Expr::ConstI(-3)), "(-3)");
        assert_eq!(real(-1.5, true), "(-1.5d0)");
        assert_eq!(real(1e-7, true), "1d-7");
        assert_eq!(real(1e21, true), "1d21");
        assert_eq!(real(1e21, false), "1e21");
        assert_eq!(real(2.0, true), "2.0d0");
        // DATA values carry their sign bare.
        assert_eq!(value_text(&Value::I(-3)), "-3");
        assert_eq!(value_text(&Value::R(-1.5)), "-1.5");
        assert_eq!(value_text(&Value::R(1e-7)), "1e-7");
        assert_eq!(value_text(&Value::B(false)), ".false.");
    }

    #[test]
    fn negative_constants_parenthesized() {
        let p = compile_free("subroutine s(x)\nx = x * (-1.5)\nend\n").unwrap();
        let text = print_program(&p);
        // must not print `x * -1.5` (illegal adjacent operators in F77)
        assert!(text.contains("x * (-1.5)"), "got: {text}");
    }
}
