//! Statement classification and recursive-descent parsing.
//!
//! Parsing happens in three stages:
//! 1. card assembly + tokenization (in [`crate::lexer`]), producing
//!    [`RawStmt`]s;
//! 2. a pre-pass that rewrites label-terminated `DO label ...` loops
//!    (including loops sharing one terminator label) into `END DO` form;
//! 3. recursive descent over the statement stream, with a Pratt-style
//!    expression parser inside each statement.

use crate::ast::*;
use crate::error::{Error, Result};
use crate::span::Span;
use crate::token::Tok;
use std::borrow::Cow;

/// One tokenized logical statement. The parser consumes it: identifier
/// text moves from the tokens into the syntax tree.
#[derive(Debug)]
pub struct RawStmt {
    /// Statement label, if any.
    pub label: Option<u32>,
    /// The statement's tokens.
    pub tokens: Vec<Tok>,
    /// Source line of the initial card.
    pub line: u32,
}

impl RawStmt {
    fn span(&self) -> Span {
        Span::new(self.line)
    }
    /// Canonical statement keyword, joining two-word forms
    /// (`GO TO` → `goto`, `END IF` → `endif`, `ELSE IF` → `elseif`,
    /// `END DO` → `enddo`, `END CDOALL` → `endcdoall`,
    /// `DOUBLE PRECISION` → `doubleprecision`,
    /// `PROCESS COMMON` → `processcommon`, `DO WHILE` → `dowhile`,
    /// `IMPLICIT NONE` → `implicitnone`). Borrowed for every form the
    /// grammar knows; only an `END` before an unknown word ending in
    /// `doall`/`doacross` (which no statement matches, but a diagnostic
    /// quotes) is joined on the heap.
    fn keyword(&self) -> Option<Cow<'_, str>> {
        let first = self.tokens.first()?.ident()?;
        let second = self.tokens.get(1).and_then(|t| t.ident());
        Some(Cow::Borrowed(match (first, second) {
            ("go", Some("to")) => "goto",
            ("end", Some("if")) => "endif",
            ("end", Some("do")) => "enddo",
            ("end", Some("where")) => "endwhere",
            ("end", Some(k2)) if k2.ends_with("doall") || k2.ends_with("doacross") => {
                match PARALLEL_DO_KEYWORDS.iter().find(|(k, ..)| *k == k2) {
                    Some(&(_, end_kw, _)) => end_kw,
                    None => return Some(Cow::Owned(format!("end{k2}"))),
                }
            }
            ("else", Some("if")) => "elseif",
            ("double", Some("precision")) => "doubleprecision",
            ("process", Some("common")) => "processcommon",
            ("implicit", Some("none")) => "implicitnone",
            ("do", Some("while")) => "dowhile",
            _ => first,
        }))
    }

    /// True if the statement is an assignment (`name = ...` or
    /// `name(...) = ...`): an `=` at paren depth 0 with no depth-0 comma
    /// before it.
    fn looks_like_assignment(&self) -> bool {
        if !matches!(self.tokens.first(), Some(Tok::Ident(_))) {
            return false;
        }
        let mut depth = 0i32;
        for t in &self.tokens {
            match t {
                Tok::LParen => depth += 1,
                Tok::RParen => depth -= 1,
                Tok::Comma if depth == 0 => return false,
                Tok::Equals if depth == 0 => return true,
                _ => {}
            }
        }
        false
    }
}

const DECL_KEYWORDS: &[&str] = &[
    "integer",
    "real",
    "doubleprecision",
    "logical",
    "character",
    "dimension",
    "parameter",
    "common",
    "processcommon",
    "global",
    "cluster",
    "data",
    "external",
    "intrinsic",
    "save",
    "implicit",
    "implicitnone",
    "equivalence",
];

/// Most blocks (`DO`, block `IF`, `DO WHILE`, concurrent loops) one
/// statement may sit inside. Every stage after the parser walks the
/// block structure recursively, and a server worker has a 2 MiB stack:
/// a construct past this is a diagnostic, and the parser skips it whole.
pub const MAX_BLOCK_DEPTH: usize = 48;

/// Most levels the expression grammar recurses through for one
/// operand: parentheses, argument lists, `.NOT.` and `**` chains.
pub const MAX_EXPR_DEPTH: usize = 64;

/// Greatest height of one expression's operator tree. A chain such as
/// `1.0 + 1.0 + ...` is parsed by a loop, but lowering, analysis,
/// emission and both engines recurse once per level of the tree.
pub const MAX_EXPR_HEIGHT: usize = 256;

/// Concurrent loop keyword, the joined keyword of its `END`, and class.
const PARALLEL_DO_KEYWORDS: &[(&str, &str, LoopClass)] = &[
    ("cdoall", "endcdoall", LoopClass::CDoall),
    ("sdoall", "endsdoall", LoopClass::SDoall),
    ("xdoall", "endxdoall", LoopClass::XDoall),
    ("doall", "enddoall", LoopClass::XDoall), // generic DOALL defaults to machine-wide
    ("cdoacross", "endcdoacross", LoopClass::CDoacross),
    ("sdoacross", "endsdoacross", LoopClass::SDoacross),
    ("xdoacross", "endxdoacross", LoopClass::XDoacross),
    ("doacross", "enddoacross", LoopClass::CDoacross),
];

/// Parse the full statement stream with **statement-boundary recovery**:
/// instead of stopping at the first error, record a diagnostic, skip the
/// offending statement (the token stream is one `RawStmt` per logical
/// line, so any failure leaves the cursor at a statement boundary), and
/// keep parsing. A program-unit header that fails resynchronizes past
/// the unit's `END`.
///
/// Returns every unit that could be built plus all diagnostics in the
/// order they were detected.
pub fn parse_units_recovering(raw: Vec<RawStmt>) -> (SourceFile, Vec<Error>) {
    let (raw, errors) = rewrite_labeled_dos(raw);
    let mut p = Units { stmts: raw.into_iter(), errors, reported_eof: false, depth: 0 };
    let mut units = Vec::new();
    while !p.at_end() {
        let left = p.stmts.len();
        match p.parse_unit() {
            Ok(u) => units.push(u),
            Err(e) => {
                p.errors.push(e);
                // Resync: skip to just past the next top-level END so the
                // following unit gets a clean start.
                if p.stmts.len() == left {
                    p.next();
                }
                while let Some(st) = p.next() {
                    if st.keyword().as_deref() == Some("end") {
                        break;
                    }
                }
            }
        }
    }
    (SourceFile { units }, p.errors)
}

/// Stage 2: turn `DO <label> v = ...` + terminator-labeled statement into
/// `DO v = ...` ... stmt ... `END DO`(s). Loops sharing one terminator
/// close together, the terminating statement executing inside the
/// innermost loop (F77 semantics). Every structural problem becomes a
/// diagnostic and the rewrite keeps going — an out-of-range label is
/// dropped, a `DO`-terminates-`DO` keeps both loops open, and loops
/// still open at end of file are closed with synthesized `END DO`s so
/// the statement parser sees balanced blocks.
fn rewrite_labeled_dos(raw: Vec<RawStmt>) -> (Vec<RawStmt>, Vec<Error>) {
    let mut out = Vec::with_capacity(raw.len());
    let mut errors = Vec::new();
    let mut stack: Vec<u32> = Vec::new();
    let mut last_line = 0u32;
    for mut st in raw {
        last_line = st.line;
        // `DO 100 I = ...` / `DO 100 WHILE (...)`?
        let is_do = st.tokens.first().is_some_and(|t| t.is_kw("do"));
        if is_do {
            if let Some(Tok::Int(lbl)) = st.tokens.get(1) {
                match u32::try_from(*lbl) {
                    Ok(lbl) => {
                        stack.push(lbl);
                        st.tokens.remove(1);
                    }
                    Err(_) => {
                        errors.push(Error::structure(st.span(), "DO label out of range"));
                        st.tokens.remove(1);
                    }
                }
            }
        }
        let this_label = st.label;
        let span = st.span();
        let terminates = this_label.is_some_and(|l| stack.last() == Some(&l));
        if terminates {
            let l = this_label.unwrap();
            if st.tokens.first().is_some_and(|t| t.is_kw("do")) {
                errors.push(Error::structure(
                    span,
                    "a DO statement may not terminate another DO loop",
                ));
                out.push(st);
                continue;
            }
            out.push(st);
            while stack.last() == Some(&l) {
                stack.pop();
                out.push(RawStmt {
                    label: None,
                    tokens: vec![Tok::Ident("end".into()), Tok::Ident("do".into())],
                    line: span.line,
                });
            }
        } else {
            out.push(st);
        }
    }
    for l in stack.iter().rev() {
        errors.push(Error::structure(
            Span::NONE,
            format!("DO loop terminated by label {l} never closed"),
        ));
        out.push(RawStmt {
            label: None,
            tokens: vec![Tok::Ident("end".into()), Tok::Ident("do".into())],
            line: last_line,
        });
    }
    (out, errors)
}

struct Units {
    /// The statements not yet consumed.
    stmts: std::vec::IntoIter<RawStmt>,
    /// Diagnostics recorded so far; a failed statement is recorded here
    /// and parsing carries on instead of propagating the failure.
    errors: Vec<Error>,
    /// An unexpected end of file is reported once, not once per open block.
    reported_eof: bool,
    /// Constructs open around the statement being parsed.
    depth: usize,
}

impl Units {
    fn at_end(&self) -> bool {
        self.stmts.as_slice().is_empty()
    }
    fn peek(&self) -> Option<&RawStmt> {
        self.stmts.as_slice().first()
    }
    fn next(&mut self) -> Option<RawStmt> {
        self.stmts.next()
    }

    fn parse_unit(&mut self) -> Result<ProgramUnit> {
        let head = self.peek().expect("parse_unit at end");
        let span = head.span();
        // What the header declares and how many tokens spell its keyword;
        // a unit with no header is an unnamed main program.
        let header = match head.keyword().as_deref() {
            Some("program") => Some((UnitKind::Program, 1)),
            Some("subroutine") => Some((UnitKind::Subroutine, 1)),
            Some("function") => Some((UnitKind::Function(None), 1)),
            Some(k) => type_keyword(k).filter(|_| is_typed_function(head)).map(|ty| {
                (UnitKind::Function(Some(ty)), if k == "doubleprecision" { 2 } else { 1 })
            }),
            None => None,
        };
        let (kind, name, args) = match header {
            Some((kind, skip)) => {
                let head = self.next().expect("peeked");
                let mut t = TokParser::new(head.tokens, skip, span);
                let what = match kind {
                    UnitKind::Program => "program name",
                    UnitKind::Subroutine => "subroutine name",
                    UnitKind::Function(_) => "function name",
                };
                if let UnitKind::Function(Some(_)) = kind {
                    // Optional `*len` after the type.
                    if t.eat(&Tok::Star) {
                        t.expect_int("type length")?;
                    }
                    t.expect_kw("function")?;
                }
                let name = t.expect_ident(what)?;
                let args = if kind == UnitKind::Program { Vec::new() } else { t.opt_dummy_args()? };
                t.expect_end()?;
                (kind, name, args)
            }
            None => (UnitKind::Program, "main".to_string(), Vec::new()),
        };

        let mut decls = Vec::new();
        while let Some(st) = self.peek() {
            match st.keyword().as_deref() {
                Some("format") => {
                    self.next();
                }
                Some(k) if DECL_KEYWORDS.contains(&k) => {
                    let st = self.next().unwrap();
                    match parse_decl(st) {
                        Ok(d) => decls.push(d),
                        Err(e) => self.errors.push(e),
                    }
                }
                _ => break,
            }
        }

        let body = self.parse_block(&["end"]);
        // parse_block stops only at the END, consumed here, or at the end
        // of the file, which it has already reported.
        self.next();
        Ok(ProgramUnit { kind, name, args, decls, body, span })
    }

    /// Parse statements until one whose keyword is in `terminators`
    /// (left unconsumed).
    fn parse_block(&mut self, terminators: &[&str]) -> Vec<Stmt> {
        let mut out = Vec::new();
        loop {
            let Some(st) = self.peek() else {
                // Report the truncation once, then hand back whatever the
                // block held so the enclosing construct can finish.
                if !self.reported_eof {
                    self.reported_eof = true;
                    self.errors.push(Error::structure(
                        Span::NONE,
                        format!("unexpected end of file; expected one of {terminators:?}"),
                    ));
                }
                return out;
            };
            if let Some(kw) = st.keyword() {
                if terminators.contains(&&*kw) {
                    return out;
                }
                if kw == "format" {
                    self.next();
                    continue;
                }
            }
            // `parse_stmt` consumes whole `RawStmt`s, so after a failure
            // the cursor is already at the next statement boundary:
            // record the diagnostic and carry on from there.
            match self.parse_stmt() {
                Ok(s) => out.push(s),
                Err(e) => self.errors.push(e),
            }
        }
    }

    fn parse_stmt(&mut self) -> Result<Stmt> {
        let st = self.next().expect("parse_stmt at end");
        let span = st.span();
        let label = st.label;
        // Keyword dispatch comes first: `DO I = 1, N` would otherwise
        // satisfy the assignment heuristic. Variables named after
        // statement keywords are not supported (documented restriction).
        let kw = st.keyword().unwrap_or_default();
        let kind = match &*kw {
            "if" => self.nest(st, Self::parse_if)?,
            "do" => self.nest(st, |p, st| p.parse_do(st, LoopClass::Seq, "enddo"))?,
            "dowhile" => self.nest(st, Self::parse_do_while)?,
            "$omp" => self.parse_omp(st)?,
            "continue" | "return" | "stop" | "call" | "goto" | "where" | "print" | "write"
            | "read" | "assign" => parse_simple_stmt(st)?,
            _ => {
                if let Some(&(_, end_kw, class)) =
                    PARALLEL_DO_KEYWORDS.iter().find(|(k, ..)| *k == kw)
                {
                    self.nest(st, |p, st| p.parse_do(st, class, end_kw))?
                } else if st.looks_like_assignment() {
                    parse_simple_stmt(st)?
                } else {
                    return Err(Error::parse(
                        span,
                        format!("unrecognized statement starting with `{kw}`"),
                    ));
                }
            }
        };
        Ok(Stmt { span, label, kind })
    }

    /// Parse construct `st` one block deeper, or, past
    /// [`MAX_BLOCK_DEPTH`], skip it through its closing statement and
    /// report it.
    fn nest(
        &mut self,
        st: RawStmt,
        parse: impl FnOnce(&mut Self, RawStmt) -> Result<StmtKind>,
    ) -> Result<StmtKind> {
        if self.depth == MAX_BLOCK_DEPTH && opens_block(&st) {
            let span = st.span();
            self.skip_construct();
            return Err(Error::structure(
                span,
                format!("blocks nested more than {MAX_BLOCK_DEPTH} deep"),
            ));
        }
        self.depth += 1;
        let kind = parse(self, st);
        self.depth -= 1;
        kind
    }

    /// Skip the statements of a construct whose opening statement was
    /// just consumed, through its closing one; a unit's `END` stops the
    /// skip unconsumed.
    fn skip_construct(&mut self) {
        let mut open = 1usize;
        while let Some(st) = self.peek() {
            match st.keyword().as_deref() {
                Some("end") => return,
                Some(kw) if closes_block(kw) => open -= 1,
                _ if opens_block(st) => open += 1,
                _ => {}
            }
            self.next();
            if open == 0 {
                return;
            }
        }
    }

    /// `IF (cond) THEN` block form, or `IF (cond) stmt` logical form.
    fn parse_if(&mut self, st: RawStmt) -> Result<StmtKind> {
        let span = st.span();
        let mut t = TokParser::new(st.tokens, 1, span);
        t.expect(&Tok::LParen)?;
        let cond = t.expr()?;
        t.expect(&Tok::RParen)?;
        if t.eat_kw("then") {
            t.expect_end()?;
            let then_body = self.parse_block(&["elseif", "else", "endif"]);
            let mut elifs = Vec::new();
            let mut else_body = Vec::new();
            loop {
                let nxt = self
                    .next()
                    .ok_or_else(|| Error::structure(span, "block IF not terminated by END IF"))?;
                match nxt.keyword().as_deref() {
                    Some("elseif") => {
                        let mut t2 = TokParser::new(nxt.tokens, 2, Span::new(nxt.line));
                        t2.expect(&Tok::LParen)?;
                        let c = t2.expr()?;
                        t2.expect(&Tok::RParen)?;
                        t2.expect_kw("then")?;
                        t2.expect_end()?;
                        let b = self.parse_block(&["elseif", "else", "endif"]);
                        elifs.push((c, b));
                    }
                    Some("else") => {
                        else_body = self.parse_block(&["endif"]);
                        // A truncated file can end inside the ELSE
                        // block: parse_block already reported the
                        // EOF, so just close the IF with what we salvaged.
                        if let Some(endif) = self.next() {
                            debug_assert_eq!(endif.keyword().as_deref(), Some("endif"));
                        }
                        break;
                    }
                    Some("endif") => break,
                    _ => unreachable!("parse_block terminator invariant"),
                }
            }
            Ok(StmtKind::If { cond, then_body, elifs, else_body })
        } else {
            // Logical IF: the rest of the tokens form one simple statement.
            let rest = RawStmt { label: None, tokens: t.toks.collect(), line: span.line };
            if rest.tokens.is_empty() {
                return Err(Error::parse(span, "logical IF with no statement"));
            }
            if matches!(
                rest.keyword().as_deref(),
                Some("if" | "do" | "dowhile" | "else" | "endif" | "end")
            ) {
                return Err(Error::parse(span, "logical IF may only control a simple statement"));
            }
            let inner = parse_simple_stmt(rest)?;
            Ok(StmtKind::If {
                cond,
                then_body: vec![Stmt::new(span, inner)],
                elifs: Vec::new(),
                else_body: Vec::new(),
            })
        }
    }

    /// `DO v = e1, e2 [, e3]` in any scheduling class. Concurrent loops
    /// additionally allow loop-local declarations, a preamble before a
    /// `LOOP` marker, and (SDO/XDO) a postamble after `ENDLOOP`
    /// (paper Figure 3).
    fn parse_do(
        &mut self,
        st: RawStmt,
        class: LoopClass,
        end_kw: &'static str,
    ) -> Result<StmtKind> {
        let mut t = TokParser::new(st.tokens, 1, Span::new(st.line));
        let var = t.expect_ident("loop control variable")?;
        t.expect(&Tok::Equals)?;
        let start = t.expr()?;
        t.expect(&Tok::Comma)?;
        let end = t.expr()?;
        let step = if t.eat(&Tok::Comma) { Some(t.expr()?) } else { None };
        t.expect_end()?;

        let end_kws: &[&str] = &[end_kw, "enddo"];

        let mut decls = Vec::new();
        let mut preamble = Vec::new();
        if class.is_parallel() {
            while let Some(nxt) = self.peek() {
                match nxt.keyword().as_deref() {
                    Some(k) if DECL_KEYWORDS.contains(&k) => {
                        let d = self.next().unwrap();
                        decls.push(parse_decl(d)?);
                    }
                    _ => break,
                }
            }
            // Statements before an explicit LOOP marker form the preamble.
            if self.block_contains_marker("loop", end_kws) {
                preamble = self.parse_block(&["loop"]);
                self.next(); // consume LOOP
            }
        }

        let (body, postamble);
        if class.is_parallel() && self.block_contains_marker("endloop", end_kws) {
            body = self.parse_block(&["endloop"]);
            self.next(); // consume ENDLOOP
            postamble = self.parse_block(end_kws);
        } else {
            body = self.parse_block(end_kws);
            postamble = Vec::new();
        }
        self.next(); // consume END DO / END CDOALL / ...
        Ok(StmtKind::Do { class, var, start, end, step, decls, preamble, body, postamble })
    }

    /// `!$omp parallel do [private(...)] [reduction(op:x)]` (assembled by
    /// the lexer into a `$omp ...` statement), annotating the sequential
    /// `DO` on the next statement. Only the clause subset our OpenMP
    /// emission backend produces is accepted.
    fn parse_omp(&mut self, st: RawStmt) -> Result<StmtKind> {
        let span = st.span();
        let mut t = TokParser::new(st.tokens, 1, span);
        t.expect_kw("parallel")?;
        t.expect_kw("do")?;
        let mut privates = Vec::new();
        let mut reductions = Vec::new();
        while !t.at_end() {
            let clause = t.expect_ident("OpenMP clause name")?;
            match clause.as_str() {
                "private" => {
                    t.expect(&Tok::LParen)?;
                    loop {
                        privates.push(t.expect_ident("private variable")?);
                        if !t.eat(&Tok::Comma) {
                            break;
                        }
                    }
                    t.expect(&Tok::RParen)?;
                }
                "reduction" => {
                    t.expect(&Tok::LParen)?;
                    let op = if t.eat(&Tok::Plus) {
                        RedOp::Sum
                    } else if t.eat(&Tok::Star) {
                        RedOp::Product
                    } else if t.eat_kw("min") {
                        RedOp::Min
                    } else if t.eat_kw("max") {
                        RedOp::Max
                    } else {
                        return Err(Error::parse(
                            span,
                            format!("unsupported reduction operator {}", t.describe_next()),
                        ));
                    };
                    t.expect(&Tok::Colon)?;
                    reductions.push((op, t.expect_ident("reduction variable")?));
                    t.expect(&Tok::RParen)?;
                }
                other => {
                    return Err(Error::parse(span, format!("unsupported OpenMP clause `{other}`")));
                }
            }
        }
        match self.peek().and_then(|n| n.keyword()) {
            Some(k) if k == "do" => {}
            _ => {
                return Err(Error::parse(
                    span,
                    "`!$omp parallel do` must be followed by a DO loop",
                ));
            }
        }
        let inner = self.parse_stmt()?;
        Ok(StmtKind::OmpParallelDo { privates, reductions, body: Box::new(inner) })
    }

    /// Does a `loop`/`endloop` marker occur in the current nesting level
    /// before the loop's END keyword? (Scan ahead tracking nesting.)
    fn block_contains_marker(&self, marker: &str, end_kws: &[&str]) -> bool {
        let mut depth = 0usize;
        for st in self.stmts.as_slice() {
            let Some(kw) = st.keyword() else { continue };
            let kw = &*kw;
            if depth == 0 {
                if kw == marker {
                    return true;
                }
                if end_kws.contains(&kw) {
                    return false;
                }
            }
            if kw == "do" || kw == "dowhile" || PARALLEL_DO_KEYWORDS.iter().any(|(k, ..)| *k == kw)
            {
                depth += 1;
            } else if kw.starts_with("end") && kw != "end" && kw != "endif" && kw != "endwhere" {
                depth = depth.saturating_sub(1);
            }
        }
        false
    }

    fn parse_do_while(&mut self, st: RawStmt) -> Result<StmtKind> {
        let mut t = TokParser::new(st.tokens, 2, Span::new(st.line));
        t.expect(&Tok::LParen)?;
        let cond = t.expr()?;
        t.expect(&Tok::RParen)?;
        t.expect_end()?;
        let body = self.parse_block(&["enddo"]);
        self.next();
        Ok(StmtKind::DoWhile { cond, body })
    }
}

/// Does `st` open a block: a `DO` of any class, `DO WHILE`, or a block `IF`?
fn opens_block(st: &RawStmt) -> bool {
    match st.keyword().as_deref() {
        Some("do" | "dowhile") => true,
        Some("if") => st.tokens.last().is_some_and(|t| t.is_kw("then")),
        Some(kw) => PARALLEL_DO_KEYWORDS.iter().any(|(k, ..)| *k == kw),
        None => false,
    }
}

/// Does keyword `kw` close a block (`END DO`, `END IF`, `END CDOALL`, ...)?
fn closes_block(kw: &str) -> bool {
    kw == "enddo" || kw == "endif" || PARALLEL_DO_KEYWORDS.iter().any(|(_, end, _)| *end == kw)
}

fn is_typed_function(st: &RawStmt) -> bool {
    // `REAL FUNCTION F(...)`: look for `function` within the first few
    // tokens, followed by an identifier and `(` or end.
    st.tokens
        .iter()
        .take(5)
        .enumerate()
        .any(|(i, t)| t.is_kw("function") && matches!(st.tokens.get(i + 1), Some(Tok::Ident(_))))
}

fn type_keyword(k: &str) -> Option<TypeSpec> {
    match k {
        "integer" => Some(TypeSpec::Integer),
        "real" => Some(TypeSpec::Real),
        "doubleprecision" => Some(TypeSpec::Double),
        "logical" => Some(TypeSpec::Logical),
        "character" => Some(TypeSpec::Character),
        _ => None,
    }
}

/// Parse a simple (non-block) executable statement.
fn parse_simple_stmt(st: RawStmt) -> Result<StmtKind> {
    let span = st.span();
    let is_simple_kw = matches!(
        st.keyword().as_deref(),
        Some(
            "continue"
                | "return"
                | "stop"
                | "call"
                | "goto"
                | "where"
                | "print"
                | "write"
                | "read"
                | "assign"
        )
    );
    if !is_simple_kw && st.looks_like_assignment() {
        let mut t = TokParser::new(st.tokens, 0, span);
        let lhs = t.designator()?;
        t.expect(&Tok::Equals)?;
        let rhs = t.expr()?;
        t.expect_end()?;
        return Ok(StmtKind::Assign { lhs, rhs });
    }
    let kw = st.keyword().unwrap_or_default();
    match &*kw {
        "continue" => Ok(StmtKind::Continue),
        "return" => Ok(StmtKind::Return),
        "stop" => Ok(StmtKind::Stop),
        "call" => {
            let mut t = TokParser::new(st.tokens, 1, span);
            let name = t.expect_ident("subroutine name")?;
            let mut args = Vec::new();
            if t.eat(&Tok::LParen) && !t.eat(&Tok::RParen) {
                loop {
                    args.push(t.expr()?);
                    if t.eat(&Tok::Comma) {
                        continue;
                    }
                    t.expect(&Tok::RParen)?;
                    break;
                }
            }
            t.expect_end()?;
            Ok(StmtKind::Call { name, args })
        }
        "goto" => {
            let skip = if st.tokens[0].is_kw("go") { 2 } else { 1 };
            let mut t = TokParser::new(st.tokens, skip, span);
            let target = t.expect_int("statement label")?;
            t.expect_end()?;
            let target =
                u32::try_from(target).map_err(|_| Error::parse(span, "label out of range"))?;
            Ok(StmtKind::Goto(target))
        }
        "where" => {
            let mut t = TokParser::new(st.tokens, 1, span);
            t.expect(&Tok::LParen)?;
            let mask = t.expr()?;
            t.expect(&Tok::RParen)?;
            let lhs = t.designator()?;
            t.expect(&Tok::Equals)?;
            let rhs = t.expr()?;
            t.expect_end()?;
            Ok(StmtKind::Where { mask, lhs, rhs })
        }
        io @ ("print" | "write" | "read") => {
            let io = match io {
                "print" => IoKind::Print,
                "write" => IoKind::Write,
                _ => IoKind::Read,
            };
            let mut t = TokParser::new(st.tokens, 1, span);
            // Control list: `(unit, fmt)` for WRITE/READ, `*,`/`fmt,` for
            // PRINT. We skip the control part entirely.
            if t.eat(&Tok::LParen) {
                let mut depth = 1;
                while depth > 0 {
                    match t.next() {
                        Some(Tok::LParen) => depth += 1,
                        Some(Tok::RParen) => depth -= 1,
                        Some(_) => {}
                        None => return Err(Error::parse(span, "unterminated I/O control list")),
                    }
                }
            } else {
                // PRINT *, ... or PRINT 100, ...
                match t.next() {
                    Some(Tok::Star) | Some(Tok::Int(_)) => {}
                    _ => return Err(Error::parse(span, "expected format in PRINT")),
                }
                if !t.at_end() {
                    t.expect(&Tok::Comma)?;
                }
            }
            let mut args = Vec::new();
            if !t.at_end() {
                loop {
                    args.push(t.expr()?);
                    if t.eat(&Tok::Comma) {
                        continue;
                    }
                    break;
                }
            }
            t.expect_end()?;
            Ok(StmtKind::Io { kind: io, args })
        }
        "assign" => Err(Error::unsupported(span, "ASSIGN statement")),
        "" => Err(Error::parse(span, "empty statement")),
        other => Err(Error::parse(span, format!("unrecognized statement `{other}`"))),
    }
}

/// Parse one specification statement.
fn parse_decl(st: RawStmt) -> Result<Decl> {
    let span = st.span();
    let kw = st.keyword().unwrap();
    let kind = match &*kw {
        ty @ ("integer" | "real" | "doubleprecision" | "logical" | "character") => {
            let skip = if ty == "doubleprecision" { 2 } else { 1 };
            let mut ty = type_keyword(ty).unwrap();
            let mut t = TokParser::new(st.tokens, skip, span);
            if t.eat(&Tok::Star) {
                let len = t.expect_int("type length")?;
                ty = match (ty, len) {
                    (TypeSpec::Real, 8) => TypeSpec::Double,
                    (TypeSpec::Real, _) => TypeSpec::Real,
                    (TypeSpec::Integer, _) => TypeSpec::Integer,
                    (TypeSpec::Logical, _) => TypeSpec::Logical,
                    (other, _) => other,
                };
            }
            let entities = t.entity_list()?;
            t.expect_end()?;
            DeclKind::Type { ty, entities }
        }
        "dimension" => {
            let mut t = TokParser::new(st.tokens, 1, span);
            let entities = t.entity_list()?;
            t.expect_end()?;
            DeclKind::Dimension { entities }
        }
        "parameter" => {
            let mut t = TokParser::new(st.tokens, 1, span);
            t.expect(&Tok::LParen)?;
            let mut assigns = Vec::new();
            loop {
                let name = t.expect_ident("parameter name")?;
                t.expect(&Tok::Equals)?;
                assigns.push((name, t.expr()?));
                if t.eat(&Tok::Comma) {
                    continue;
                }
                break;
            }
            t.expect(&Tok::RParen)?;
            t.expect_end()?;
            DeclKind::Parameter { assigns }
        }
        common @ ("common" | "processcommon") => {
            let process = common == "processcommon";
            let skip = if process { 2 } else { 1 };
            let mut t = TokParser::new(st.tokens, skip, span);
            let block = if t.eat(&Tok::Slash) {
                let name = t.expect_ident("common block name")?;
                t.expect(&Tok::Slash)?;
                Some(name)
            } else {
                // Blank common, written `//` (one Concat token) or with
                // the slashes omitted entirely.
                t.eat(&Tok::Concat);
                None
            };
            let entities = t.entity_list()?;
            t.expect_end()?;
            DeclKind::Common { block, entities, process }
        }
        vis @ ("global" | "cluster") => {
            let vis = if vis == "global" { Visibility::Global } else { Visibility::Cluster };
            let mut t = TokParser::new(st.tokens, 1, span);
            let names = t.name_list()?;
            t.expect_end()?;
            DeclKind::Visibility { vis, names }
        }
        "data" => {
            let mut t = TokParser::new(st.tokens, 1, span);
            let mut names = Vec::new();
            let mut values = Vec::new();
            loop {
                loop {
                    names.push(t.designator()?);
                    if t.eat(&Tok::Comma) {
                        continue;
                    }
                    break;
                }
                t.expect(&Tok::Slash)?;
                loop {
                    values.push(t.data_value()?);
                    if t.eat(&Tok::Comma) {
                        continue;
                    }
                    break;
                }
                t.expect(&Tok::Slash)?;
                if t.eat(&Tok::Comma) || (!t.at_end() && matches!(t.peek(), Some(Tok::Ident(_)))) {
                    continue;
                }
                break;
            }
            t.expect_end()?;
            DeclKind::Data { names, values }
        }
        list @ ("external" | "intrinsic" | "save") => {
            let kind = match list {
                "external" => DeclKind::External,
                "intrinsic" => DeclKind::Intrinsic,
                _ => DeclKind::Save,
            };
            let mut t = TokParser::new(st.tokens, 1, span);
            let names = t.name_list()?;
            t.expect_end()?;
            kind(names)
        }
        "implicitnone" => DeclKind::ImplicitNone,
        "implicit" => {
            return Err(Error::unsupported(
                span,
                "IMPLICIT letter ranges (use IMPLICIT NONE or default rules)",
            ))
        }
        "equivalence" => {
            let mut t = TokParser::new(st.tokens, 1, span);
            let mut groups = Vec::new();
            loop {
                t.expect(&Tok::LParen)?;
                let mut g = Vec::new();
                loop {
                    g.push(t.designator()?);
                    if t.eat(&Tok::Comma) {
                        continue;
                    }
                    break;
                }
                t.expect(&Tok::RParen)?;
                groups.push(g);
                if t.eat(&Tok::Comma) {
                    continue;
                }
                break;
            }
            t.expect_end()?;
            DeclKind::Equivalence(groups)
        }
        other => return Err(Error::parse(span, format!("unrecognized declaration `{other}`"))),
    };
    Ok(Decl { span, kind })
}

/// Token-level parser for the inside of one statement. It owns the
/// statement's tokens and hands each out once.
struct TokParser {
    toks: std::vec::IntoIter<Tok>,
    span: Span,
    /// Levels of the expression grammar's recursion now open.
    depth: usize,
    /// Operator-tree height of the expression parsed last.
    height: usize,
}

impl TokParser {
    /// A parser positioned after the first `skip` tokens (the keyword).
    fn new(toks: Vec<Tok>, skip: usize, span: Span) -> Self {
        let mut toks = toks.into_iter();
        if skip > 0 {
            toks.nth(skip - 1);
        }
        TokParser { toks, span, depth: 0, height: 0 }
    }
    fn peek(&self) -> Option<&Tok> {
        self.toks.as_slice().first()
    }
    fn peek2(&self) -> Option<&Tok> {
        self.toks.as_slice().get(1)
    }
    fn next(&mut self) -> Option<Tok> {
        self.toks.next()
    }
    fn at_end(&self) -> bool {
        self.toks.as_slice().is_empty()
    }
    fn eat(&mut self, t: &Tok) -> bool {
        let hit = self.peek() == Some(t);
        if hit {
            self.toks.next();
        }
        hit
    }
    fn eat_kw(&mut self, kw: &str) -> bool {
        let hit = self.peek().is_some_and(|t| t.is_kw(kw));
        if hit {
            self.toks.next();
        }
        hit
    }
    fn expect(&mut self, t: &Tok) -> Result<()> {
        if self.eat(t) {
            Ok(())
        } else {
            Err(Error::parse(self.span, format!("expected `{t}`, found {}", self.describe_next())))
        }
    }
    fn expect_kw(&mut self, kw: &str) -> Result<()> {
        if self.eat_kw(kw) {
            Ok(())
        } else {
            Err(Error::parse(self.span, format!("expected `{kw}`, found {}", self.describe_next())))
        }
    }
    fn expect_ident(&mut self, what: &str) -> Result<String> {
        match self.next() {
            Some(Tok::Ident(s)) => Ok(s),
            _ => Err(Error::parse(self.span, format!("expected {what}"))),
        }
    }
    fn expect_int(&mut self, what: &str) -> Result<i64> {
        match self.next() {
            Some(Tok::Int(v)) => Ok(v),
            _ => Err(Error::parse(self.span, format!("expected {what}"))),
        }
    }
    fn expect_end(&mut self) -> Result<()> {
        if self.at_end() {
            Ok(())
        } else {
            Err(Error::parse(self.span, format!("trailing tokens: {}", self.describe_next())))
        }
    }
    fn describe_next(&self) -> String {
        match self.peek() {
            Some(t) => format!("`{t}`"),
            None => "end of statement".to_string(),
        }
    }

    /// `( a, b, c )` dummy-argument list; absent parens mean no args.
    fn opt_dummy_args(&mut self) -> Result<Vec<String>> {
        let mut args = Vec::new();
        if self.eat(&Tok::LParen) && !self.eat(&Tok::RParen) {
            loop {
                args.push(self.expect_ident("dummy argument")?);
                if self.eat(&Tok::Comma) {
                    continue;
                }
                self.expect(&Tok::RParen)?;
                break;
            }
        }
        Ok(args)
    }

    fn name_list(&mut self) -> Result<Vec<String>> {
        let mut names = Vec::new();
        loop {
            names.push(self.expect_ident("name")?);
            if self.eat(&Tok::Comma) {
                continue;
            }
            break;
        }
        Ok(names)
    }

    /// `name` or `name(dims)` entities, comma-separated.
    fn entity_list(&mut self) -> Result<Vec<Entity>> {
        let mut out = Vec::new();
        loop {
            let name = self.expect_ident("variable name")?;
            let mut dims = Vec::new();
            if self.eat(&Tok::LParen) {
                loop {
                    dims.push(self.dim_bound()?);
                    if self.eat(&Tok::Comma) {
                        continue;
                    }
                    self.expect(&Tok::RParen)?;
                    break;
                }
            }
            out.push(Entity { name, dims });
            if self.eat(&Tok::Comma) {
                continue;
            }
            break;
        }
        Ok(out)
    }

    /// `upper`, `lower:upper`, or `*`.
    fn dim_bound(&mut self) -> Result<DimBound> {
        if self.eat(&Tok::Star) {
            return Ok(DimBound { lower: None, upper: None });
        }
        let first = self.expr()?;
        if self.eat(&Tok::Colon) {
            if self.eat(&Tok::Star) {
                Ok(DimBound { lower: Some(first), upper: None })
            } else {
                let upper = self.expr()?;
                Ok(DimBound { lower: Some(first), upper: Some(upper) })
            }
        } else {
            Ok(DimBound { lower: None, upper: Some(first) })
        }
    }

    /// `[count *] constant` in a DATA value list.
    fn data_value(&mut self) -> Result<(u32, Expr)> {
        if let (Some(Tok::Int(n)), Some(Tok::Star)) = (self.peek(), self.peek2()) {
            let n = *n;
            self.next();
            self.next();
            let v = self.constant()?;
            let n = u32::try_from(n)
                .map_err(|_| Error::parse(self.span, "DATA repeat count out of range"))?;
            return Ok((n, v));
        }
        Ok((1, self.constant()?))
    }

    fn constant(&mut self) -> Result<Expr> {
        let neg = self.eat(&Tok::Minus);
        if !neg {
            self.eat(&Tok::Plus);
        }
        let e = match self.next() {
            Some(Tok::Int(v)) => Expr::Int(v),
            Some(Tok::Real { value, is_double }) => Expr::Real { value, is_double },
            Some(Tok::Logical(b)) => Expr::Logical(b),
            Some(Tok::Str(s)) => Expr::Str(s),
            _ => return Err(Error::parse(self.span, "expected constant")),
        };
        Ok(if neg { Expr::Un(UnOp::Neg, Box::new(e)) } else { e })
    }

    /// Run `f` one level deeper in the expression grammar, refused past
    /// [`MAX_EXPR_DEPTH`].
    fn nested<T>(&mut self, f: impl FnOnce(&mut Self) -> Result<T>) -> Result<T> {
        if self.depth == MAX_EXPR_DEPTH {
            return Err(Error::parse(
                self.span,
                format!("expression nested more than {MAX_EXPR_DEPTH} deep"),
            ));
        }
        self.depth += 1;
        let r = f(self);
        self.depth -= 1;
        r
    }

    /// Note a node over operands of height at most `below`, refused past
    /// [`MAX_EXPR_HEIGHT`].
    fn grow(&mut self, below: usize) -> Result<()> {
        if below >= MAX_EXPR_HEIGHT {
            return Err(Error::parse(
                self.span,
                format!("expression tree higher than {MAX_EXPR_HEIGHT} operators"),
            ));
        }
        self.height = below + 1;
        Ok(())
    }

    /// `l op r`, where `lh` is the height of `l` and `r` was parsed last.
    fn bin(&mut self, op: BinOp, l: Expr, lh: usize, r: Expr) -> Result<Expr> {
        self.grow(lh.max(self.height))?;
        Ok(Expr::bin(op, l, r))
    }

    /// `op e`, where `e` was parsed last.
    fn un(&mut self, op: UnOp, e: Expr) -> Result<Expr> {
        self.grow(self.height)?;
        Ok(Expr::Un(op, Box::new(e)))
    }

    /// A designator: `name` or `name(args)` — the only valid assignment
    /// targets and DATA/EQUIVALENCE items.
    fn designator(&mut self) -> Result<Expr> {
        let name = self.expect_ident("variable")?;
        if self.peek() == Some(&Tok::LParen) {
            self.next();
            let args = self.arg_list()?;
            Ok(Expr::NameArgs { name, args })
        } else {
            Ok(Expr::Name(name))
        }
    }

    // ----- expression grammar (F77 precedence) -----
    // expr        := equiv
    // equiv       := disj { (.EQV.|.NEQV.) disj }
    // disj        := conj { .OR. conj }
    // conj        := negation { .AND. negation }
    // negation    := [.NOT.] relation
    // relation    := concat [ relop concat ]
    // concat      := additive { // additive }
    // additive    := [+|-] term { (+|-) term }
    // term        := factor { (*|/) factor }
    // factor      := primary [ ** factor ]      (right associative)

    pub fn expr(&mut self) -> Result<Expr> {
        let mut l = self.disj()?;
        loop {
            let op = match self.peek() {
                Some(Tok::Eqv) => BinOp::Eqv,
                Some(Tok::Neqv) => BinOp::Neqv,
                _ => break,
            };
            self.next();
            let lh = self.height;
            let r = self.disj()?;
            l = self.bin(op, l, lh, r)?;
        }
        Ok(l)
    }

    fn disj(&mut self) -> Result<Expr> {
        let mut l = self.conj()?;
        while self.eat(&Tok::Or) {
            let lh = self.height;
            let r = self.conj()?;
            l = self.bin(BinOp::Or, l, lh, r)?;
        }
        Ok(l)
    }

    fn conj(&mut self) -> Result<Expr> {
        let mut l = self.negation()?;
        while self.eat(&Tok::And) {
            let lh = self.height;
            let r = self.negation()?;
            l = self.bin(BinOp::And, l, lh, r)?;
        }
        Ok(l)
    }

    fn negation(&mut self) -> Result<Expr> {
        if self.eat(&Tok::Not) {
            let e = self.nested(Self::negation)?;
            return self.un(UnOp::Not, e);
        }
        self.relation()
    }

    fn relation(&mut self) -> Result<Expr> {
        let l = self.concat()?;
        let op = match self.peek() {
            Some(Tok::Eq) => BinOp::Eq,
            Some(Tok::Ne) => BinOp::Ne,
            Some(Tok::Lt) => BinOp::Lt,
            Some(Tok::Le) => BinOp::Le,
            Some(Tok::Gt) => BinOp::Gt,
            Some(Tok::Ge) => BinOp::Ge,
            _ => return Ok(l),
        };
        self.next();
        let lh = self.height;
        let r = self.concat()?;
        self.bin(op, l, lh, r)
    }

    fn concat(&mut self) -> Result<Expr> {
        let mut l = self.additive()?;
        while self.eat(&Tok::Concat) {
            let lh = self.height;
            let r = self.additive()?;
            l = self.bin(BinOp::Concat, l, lh, r)?;
        }
        Ok(l)
    }

    fn additive(&mut self) -> Result<Expr> {
        let mut l = if self.eat(&Tok::Minus) {
            let t = self.term()?;
            self.un(UnOp::Neg, t)?
        } else if self.eat(&Tok::Plus) {
            let t = self.term()?;
            self.un(UnOp::Plus, t)?
        } else {
            self.term()?
        };
        loop {
            let op = match self.peek() {
                Some(Tok::Plus) => BinOp::Add,
                Some(Tok::Minus) => BinOp::Sub,
                _ => break,
            };
            self.next();
            let lh = self.height;
            let r = self.term()?;
            l = self.bin(op, l, lh, r)?;
        }
        Ok(l)
    }

    fn term(&mut self) -> Result<Expr> {
        let mut l = self.factor()?;
        loop {
            let op = match self.peek() {
                Some(Tok::Star) => BinOp::Mul,
                Some(Tok::Slash) => BinOp::Div,
                _ => break,
            };
            self.next();
            let lh = self.height;
            let r = self.factor()?;
            l = self.bin(op, l, lh, r)?;
        }
        Ok(l)
    }

    fn factor(&mut self) -> Result<Expr> {
        let base = self.primary()?;
        if self.eat(&Tok::Pow) {
            let bh = self.height;
            // `**` is right-associative; `-` binds the exponent:
            // `a ** -b` is legal in most F77 compilers' extension set.
            let exp = if self.eat(&Tok::Minus) {
                let e = self.nested(Self::factor)?;
                self.un(UnOp::Neg, e)?
            } else {
                self.nested(Self::factor)?
            };
            return self.bin(BinOp::Pow, base, bh, exp);
        }
        Ok(base)
    }

    fn primary(&mut self) -> Result<Expr> {
        self.height = 0;
        match self.next() {
            Some(Tok::Int(v)) => Ok(Expr::Int(v)),
            Some(Tok::Real { value, is_double }) => Ok(Expr::Real { value, is_double }),
            Some(Tok::Logical(b)) => Ok(Expr::Logical(b)),
            Some(Tok::Str(s)) => Ok(Expr::Str(s)),
            Some(Tok::LParen) => self.nested(|p| {
                let e = p.expr()?;
                p.expect(&Tok::RParen)?;
                Ok(e)
            }),
            Some(Tok::Ident(name)) => {
                if self.peek() == Some(&Tok::LParen) {
                    self.next();
                    let args = self.arg_list()?;
                    self.grow(self.height)?;
                    Ok(Expr::NameArgs { name, args })
                } else {
                    Ok(Expr::Name(name))
                }
            }
            other => Err(Error::parse(
                self.span,
                format!(
                    "expected expression, found {}",
                    other.map_or("end of statement".into(), |t| format!("`{t}`"))
                ),
            )),
        }
    }

    /// Argument list after a consumed `(`; consumes the closing `)`.
    /// Items may be expressions or array sections. Leaves `height` at
    /// that of the highest expression among them.
    fn arg_list(&mut self) -> Result<Vec<ArgExpr>> {
        self.nested(|p| {
            let mut args = Vec::new();
            let mut height = 0;
            if !p.eat(&Tok::RParen) {
                loop {
                    args.push(p.arg_item(&mut height)?);
                    if p.eat(&Tok::Comma) {
                        continue;
                    }
                    p.expect(&Tok::RParen)?;
                    break;
                }
            }
            p.height = height;
            Ok(args)
        })
    }

    /// One argument; raises `height` to that of each expression in it.
    fn arg_item(&mut self, height: &mut usize) -> Result<ArgExpr> {
        let mut part = |p: &mut Self| {
            let e = p.expr()?;
            *height = (*height).max(p.height);
            Ok(e)
        };
        // `:`-led section.
        let lower = if self.eat(&Tok::Colon) {
            None
        } else {
            let first = part(self)?;
            if !self.eat(&Tok::Colon) {
                return Ok(ArgExpr::Expr(first));
            }
            Some(first)
        };
        // After `lower? :` — an optional upper and an optional `: stride`.
        let upper = match self.peek() {
            Some(Tok::Comma) | Some(Tok::RParen) | Some(Tok::Colon) | None => None,
            _ => Some(part(self)?),
        };
        let stride = if self.eat(&Tok::Colon) { Some(part(self)?) } else { None };
        Ok(ArgExpr::Section { lower, upper, stride })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{parse_free, parse_source};

    fn stmt1(src: &str) -> Stmt {
        let f = parse_free(&format!("subroutine t\n{src}\nend\n")).unwrap();
        f.units[0].body[0].clone()
    }

    #[test]
    fn omp_parallel_do_with_clauses() {
        let src = "      subroutine s(a, n, t)\n      real a(n), t\n\
                   !$omp parallel do private(x)\n!$omp&  reduction(+:t)\n\
                   \x20     do i = 1, n\n      t = t + a(i)\n\
                   \x20     end do\n      end\n";
        let f = parse_source(src).unwrap();
        let StmtKind::OmpParallelDo { privates, reductions, body } = &f.units[0].body[0].kind
        else {
            panic!("{:?}", f.units[0].body[0].kind)
        };
        assert_eq!(privates, &["x"]);
        assert_eq!(reductions, &[(RedOp::Sum, "t".to_string())]);
        assert!(matches!(body.kind, StmtKind::Do { class: LoopClass::Seq, .. }));
    }

    #[test]
    fn omp_directive_parses_in_free_form_too() {
        let f = parse_free(
            "subroutine s(a, n)\nreal a(n)\n!$omp parallel do\ndo i = 1, n\n\
             a(i) = 0.0\nend do\nend\n",
        )
        .unwrap();
        assert!(matches!(f.units[0].body[0].kind, StmtKind::OmpParallelDo { .. }));
    }

    #[test]
    fn omp_reduction_operators() {
        for (spelling, op) in [("*", RedOp::Product), ("min", RedOp::Min), ("max", RedOp::Max)] {
            let f = parse_free(&format!(
                "subroutine s(a, n, t)\nreal a(n), t\n\
                 !$omp parallel do reduction({spelling}:t)\ndo i = 1, n\n\
                 t = t + a(i)\nend do\nend\n"
            ))
            .unwrap();
            let StmtKind::OmpParallelDo { reductions, .. } = &f.units[0].body[0].kind else {
                panic!()
            };
            assert_eq!(reductions, &[(op, "t".to_string())]);
        }
    }

    #[test]
    fn omp_without_do_is_an_error() {
        let e = parse_free("subroutine s(x)\n!$omp parallel do\nx = 1.0\nend\n");
        assert!(e.is_err());
    }

    #[test]
    fn omp_unknown_clause_is_an_error() {
        let e = parse_free(
            "subroutine s(a, n)\nreal a(n)\n!$omp parallel do schedule(static)\n\
             do i = 1, n\na(i) = 0.0\nend do\nend\n",
        );
        assert!(e.is_err());
    }

    #[test]
    fn assignment_precedence() {
        let s = stmt1("x = a + b * c ** 2");
        let StmtKind::Assign { rhs, .. } = &s.kind else { panic!() };
        // a + (b * (c ** 2))
        let Expr::Bin(BinOp::Add, _, r) = rhs else { panic!("{rhs:?}") };
        let Expr::Bin(BinOp::Mul, _, rr) = &**r else { panic!() };
        assert!(matches!(&**rr, Expr::Bin(BinOp::Pow, _, _)));
    }

    #[test]
    fn unary_minus_binds_whole_term() {
        let s = stmt1("x = -a * b");
        let StmtKind::Assign { rhs, .. } = &s.kind else { panic!() };
        assert!(matches!(rhs, Expr::Un(UnOp::Neg, _)));
    }

    #[test]
    fn power_right_associative() {
        let s = stmt1("x = a ** b ** c");
        let StmtKind::Assign { rhs, .. } = &s.kind else { panic!() };
        let Expr::Bin(BinOp::Pow, _, r) = rhs else { panic!() };
        assert!(matches!(&**r, Expr::Bin(BinOp::Pow, _, _)));
    }

    #[test]
    fn labeled_do_continue() {
        let src = "\
subroutine s(a, n)
real a(n)
do 10 i = 1, n
a(i) = 0.0
10 continue
end
";
        let f = parse_free(src).unwrap();
        let StmtKind::Do { body, class, var, .. } = &f.units[0].body[0].kind else { panic!() };
        assert_eq!(*class, LoopClass::Seq);
        assert_eq!(var, "i");
        // body = assignment + the terminating CONTINUE
        assert_eq!(body.len(), 2);
        assert!(matches!(body[1].kind, StmtKind::Continue));
    }

    #[test]
    fn shared_do_termination_label() {
        let src = "\
subroutine s(a, n, m)
real a(n, m)
do 100 j = 1, m
do 100 i = 1, n
100 a(i, j) = 0.0
end
";
        let f = parse_free(src).unwrap();
        let StmtKind::Do { body: outer, .. } = &f.units[0].body[0].kind else { panic!() };
        assert_eq!(outer.len(), 1);
        let StmtKind::Do { body: inner, .. } = &outer[0].kind else { panic!() };
        assert_eq!(inner.len(), 1);
        assert!(matches!(inner[0].kind, StmtKind::Assign { .. }));
    }

    #[test]
    fn block_if_elseif_else() {
        let src = "\
subroutine s(x, y)
if (x .gt. 0.0) then
y = 1.0
else if (x .lt. 0.0) then
y = -1.0
else
y = 0.0
end if
end
";
        let f = parse_free(src).unwrap();
        let StmtKind::If { then_body, elifs, else_body, .. } = &f.units[0].body[0].kind else {
            panic!()
        };
        assert_eq!(then_body.len(), 1);
        assert_eq!(elifs.len(), 1);
        assert_eq!(else_body.len(), 1);
    }

    #[test]
    fn logical_if() {
        let s = stmt1("if (x .gt. big) big = x");
        let StmtKind::If { then_body, elifs, else_body, .. } = &s.kind else { panic!() };
        assert_eq!(then_body.len(), 1);
        assert!(elifs.is_empty() && else_body.is_empty());
    }

    #[test]
    fn cedar_parallel_loop_with_locals_and_preamble() {
        let src = "\
subroutine s(a, b, n)
global a, b, n
xdoall i = 1, n, 32
integer upper
real t(32)
loop
upper = min(i + 31, n)
t(1:upper-i+1) = b(i:upper)
a(i:upper) = t(1:upper-i+1)
endloop
end xdoall
end
";
        let f = parse_free(src).unwrap();
        let unit = &f.units[0];
        assert!(matches!(unit.decls[0].kind, DeclKind::Visibility { vis: Visibility::Global, .. }));
        let StmtKind::Do { class, decls, preamble, body, postamble, step, .. } = &unit.body[0].kind
        else {
            panic!()
        };
        assert_eq!(*class, LoopClass::XDoall);
        assert_eq!(decls.len(), 2);
        assert!(preamble.is_empty());
        assert_eq!(body.len(), 3);
        assert!(postamble.is_empty());
        assert!(step.is_some());
    }

    #[test]
    fn doacross_with_cascade_sync() {
        let src = "\
subroutine s(a, b, c, d, e, f, g, h, n)
cdoacross i = 1, n
c(i) = d(i) + e(i)
g(i) = f(i) * h(i)
call await(1, 1)
b(i) = a(i) + b(i - 1)
call advance(1)
end cdoacross
end
";
        let f = parse_free(src).unwrap();
        let StmtKind::Do { class, body, .. } = &f.units[0].body[0].kind else { panic!() };
        assert_eq!(*class, LoopClass::CDoacross);
        assert_eq!(body.len(), 5);
        assert!(matches!(&body[2].kind, StmtKind::Call { name, .. } if name == "await"));
    }

    #[test]
    fn common_blocks_and_parameter() {
        let src = "\
subroutine s
parameter (n = 100)
common /blk/ a(n), b
process common /gbl/ c(n)
a(1) = b + c(1)
end
";
        let f = parse_free(src).unwrap();
        let d = &f.units[0].decls;
        assert!(matches!(&d[0].kind, DeclKind::Parameter { assigns } if assigns.len() == 1));
        assert!(
            matches!(&d[1].kind, DeclKind::Common { block: Some(b), process: false, .. } if b == "blk")
        );
        assert!(matches!(&d[2].kind, DeclKind::Common { process: true, .. }));
    }

    #[test]
    fn data_statement_with_repeat() {
        let src = "subroutine s\nreal x(4), y\ndata x /3*0.0, 1.0/, y /2.5/\nx(1) = y\nend\n";
        let f = parse_free(src).unwrap();
        let DeclKind::Data { names, values } = &f.units[0].decls[1].kind else { panic!() };
        assert_eq!(names.len(), 2);
        assert_eq!(values[0].0, 3);
        assert_eq!(values.len(), 3);
    }

    #[test]
    fn where_statement() {
        let s = stmt1("where (a(1:n) .gt. 0.0) b(1:n) = sqrt(a(1:n))");
        assert!(matches!(s.kind, StmtKind::Where { .. }));
    }

    #[test]
    fn do_while() {
        let src = "subroutine s(x)\ndo while (x .gt. 1.0)\nx = x / 2.0\nend do\nend\n";
        let f = parse_free(src).unwrap();
        assert!(matches!(f.units[0].body[0].kind, StmtKind::DoWhile { .. }));
    }

    #[test]
    fn typed_function_header() {
        let src = "\
real function dot(a, b, n)
real a(n), b(n)
dot = 0.0
do 10 i = 1, n
10 dot = dot + a(i) * b(i)
end
";
        let f = parse_free(src).unwrap();
        assert_eq!(f.units[0].kind, UnitKind::Function(Some(TypeSpec::Real)));
        assert_eq!(f.units[0].args, vec!["a", "b", "n"]);
    }

    #[test]
    fn io_statements_parse_loosely() {
        let src = "program p\nwrite (6, 100) x, y\nprint *, z\nend\n";
        let f = parse_free(src).unwrap();
        assert!(matches!(f.units[0].body[0].kind, StmtKind::Io { kind: IoKind::Write, .. }));
        assert!(matches!(f.units[0].body[1].kind, StmtKind::Io { kind: IoKind::Print, .. }));
    }

    #[test]
    fn multiple_units() {
        let src = "program p\ncall s\nend\nsubroutine s\nreturn\nend\n";
        let f = parse_free(src).unwrap();
        assert_eq!(f.units.len(), 2);
        assert!(f.unit("s").is_some());
    }

    #[test]
    fn array_sections() {
        let s = stmt1("a(i:j:2) = b(:, k)");
        let StmtKind::Assign { lhs, rhs } = &s.kind else { panic!() };
        let Expr::NameArgs { args, .. } = lhs else { panic!() };
        assert!(matches!(
            &args[0],
            ArgExpr::Section { lower: Some(_), upper: Some(_), stride: Some(_) }
        ));
        let Expr::NameArgs { args, .. } = rhs else { panic!() };
        assert!(matches!(&args[0], ArgExpr::Section { lower: None, upper: None, stride: None }));
        assert!(matches!(&args[1], ArgExpr::Expr(_)));
    }

    #[test]
    fn unclosed_do_is_error() {
        let src = "subroutine s\ndo i = 1, 10\nx = 1\nend\n";
        assert!(parse_free(src).is_err());
    }

    #[test]
    fn fixed_form_full_unit() {
        let src = "
      SUBROUTINE DAXPY(N, A, X, Y)
      INTEGER N
      REAL A, X(N), Y(N)
      DO 10 I = 1, N
         Y(I) = Y(I) + A * X(I)
   10 CONTINUE
      RETURN
      END
";
        let f = parse_source(src).unwrap();
        assert_eq!(f.units[0].name, "daxpy");
        assert_eq!(f.units[0].args.len(), 4);
    }

    #[test]
    fn goto_parses() {
        let s = stmt1("go to 100");
        assert!(matches!(s.kind, StmtKind::Goto(100)));
    }

    #[test]
    fn arithmetic_if_is_unsupported() {
        // `IF (x) 10, 20, 30` — logical-IF path will fail to parse the
        // label list as a statement.
        let src = "subroutine s(x)\nif (x) 10, 20, 30\nend\n";
        assert!(parse_free(src).is_err());
    }

    #[test]
    fn a_block_past_the_limit_is_skipped_whole_and_parsing_resumes() {
        // Three levels past the limit, a sibling loop, then more code.
        let n = MAX_BLOCK_DEPTH + 3;
        let mut src = "program p\n".to_string();
        for k in 0..n {
            src += &format!("do i{k} = 1, 1\nif (x .lt. 1.0) then\n");
            src += if k + 1 == n { "x = 1.0\n" } else { "" };
        }
        src += &"end if\nend do\n".repeat(n);
        src += "y = 2.0\nend\n";
        let out = crate::parse_free_recovering(&src);
        let [e] = &out.errors[..] else { panic!("{:?}", out.errors) };
        let first_too_deep = 2 + MAX_BLOCK_DEPTH;
        let message = format!("blocks nested more than {MAX_BLOCK_DEPTH} deep");
        assert_eq!(e.to_string(), format!("line {first_too_deep}: structure error: {message}"));
        // The nest keeps its first MAX_BLOCK_DEPTH levels, and the
        // statement after it parses.
        let body = &out.file.units[0].body;
        assert_eq!(body.len(), 2);
        assert!(matches!(body[1].kind, StmtKind::Assign { .. }), "{:?}", body[1]);
        let mut depth = 0;
        let mut level = &body[..1];
        while let [stmt] = level {
            depth += 1;
            level = match &stmt.kind {
                StmtKind::Do { body, .. } => body,
                StmtKind::If { then_body, .. } => then_body,
                _ => break,
            };
        }
        assert_eq!(depth, MAX_BLOCK_DEPTH);
    }

    #[test]
    fn expression_limits_count_nesting_and_tree_height() {
        let parse = |rhs: String| crate::parse_free(&format!("x = {rhs}\nend\n"));
        let n = MAX_EXPR_DEPTH;
        // Parentheses, argument lists, `.NOT.` and `**` chains all nest.
        assert!(parse(format!("{}1{}", "(".repeat(n), ")".repeat(n))).is_ok());
        assert!(parse(format!("{}1{}", "(".repeat(n + 1), ")".repeat(n + 1))).is_err());
        assert!(parse(format!("{}1{}", "f(".repeat(n), ")".repeat(n))).is_ok());
        assert!(parse(format!("{}1{}", "f(".repeat(n + 1), ")".repeat(n + 1))).is_err());
        assert!(parse(format!("{}.true.", ".not. ".repeat(n))).is_ok());
        assert!(parse(format!("{}.true.", ".not. ".repeat(n + 1))).is_err());
        assert!(parse(format!("2{}", " ** 2".repeat(n))).is_ok());
        assert!(parse(format!("2{}", " ** 2".repeat(n + 1))).is_err());
        // A left-deep chain nests nothing but grows one level per operator.
        let h = MAX_EXPR_HEIGHT;
        assert!(parse(format!("1{}", " + 1".repeat(h))).is_ok());
        let e = parse(format!("1{}", " + 1".repeat(h + 1))).unwrap_err();
        assert!(e.to_string().contains("expression tree higher than"), "{e}");
        // Both operands of a node count: the taller one sets its height.
        let tall = format!("1{}", " * 1".repeat(h - 1));
        assert!(parse(format!("2 + ({tall})")).is_ok());
        assert!(parse(format!("({tall}) + 2 - 3")).is_err());
    }
}
