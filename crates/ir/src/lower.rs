//! Lowering from the `cedar-f77` AST into the typed IR.
//!
//! Lowering resolves every name against per-unit symbol tables (with the
//! F77 implicit-typing rule for undeclared names), disambiguates
//! `name(...)` into array element / array section / intrinsic / user
//! function, evaluates `PARAMETER` constants, registers `COMMON` blocks
//! at program level, and recognizes the Cedar synchronization calls
//! (`await`/`advance`/`lock`/`unlock`) as [`SyncOp`]s.

use crate::expr::{BinOp, Expr, Index, Intrinsic, ParMode, UnOp};
use crate::furniture;
use crate::program::{CommonBlock, Program, Unit, UnitKind};
use crate::stmt::{LValue, Loop, Stmt, SyncOp};
use crate::symbol::{Dim, Placement, SymKind, Symbol, SymbolId};
use crate::types::{Ty, Value};
use cedar_f77::ast::{self, ArgExpr, DeclKind, RedOp, StmtKind, TypeSpec, Visibility};
use cedar_f77::Span;
use std::collections::{BTreeMap, HashMap, HashSet};
use std::fmt;

/// A lowering diagnostic.
#[derive(Debug, Clone)]
pub struct LowerError {
    /// Source line of the offending construct.
    pub span: Span,
    /// Human-readable description.
    pub msg: String,
}

impl fmt::Display for LowerError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}: lowering error: {}", self.span, self.msg)
    }
}

impl std::error::Error for LowerError {}

type Result<T> = std::result::Result<T, LowerError>;

fn err<T>(span: Span, msg: impl Into<String>) -> Result<T> {
    Err(LowerError { span, msg: msg.into() })
}

/// The F77 implicit typing rule: names starting with I–N are INTEGER,
/// everything else REAL.
pub fn implicit_ty(name: &str) -> Ty {
    match name.chars().next() {
        Some(c @ 'i'..='n') | Some(c @ 'I'..='N') if c.is_ascii_alphabetic() => Ty::Int,
        _ => Ty::Real,
    }
}

fn lower_typespec(t: TypeSpec, span: Span) -> Result<Ty> {
    match t {
        TypeSpec::Integer => Ok(Ty::Int),
        TypeSpec::Real => Ok(Ty::Real),
        TypeSpec::Double => Ok(Ty::Double),
        TypeSpec::Logical => Ok(Ty::Logical),
        TypeSpec::Character => err(span, "CHARACTER data is not supported"),
    }
}

/// Lower a parsed source file into a program.
pub fn lower(src: &ast::SourceFile) -> Result<Program> {
    // Phase 1: program-level unit registry so call sites resolve.
    let mut unit_kinds: HashMap<String, UnitKind> = HashMap::new();
    for u in &src.units {
        let kind = match u.kind {
            ast::UnitKind::Program => UnitKind::Program,
            ast::UnitKind::Subroutine => UnitKind::Subroutine,
            ast::UnitKind::Function(_) => UnitKind::Function,
        };
        if unit_kinds.insert(u.name.clone(), kind).is_some() {
            return err(u.span, format!("duplicate program unit `{}`", u.name));
        }
    }

    let mut program = Program::default();
    for u in &src.units {
        let unit = UnitLowerer::new(u, &unit_kinds, &mut program.commons)?.run()?;
        program.units.push(unit);
    }

    // Any OpenMP directive implies the flat shared-memory model: the
    // emission backend dropped all Cedar placement lines, so cluster
    // memory must not partition data the directives expect to share.
    // Globalize every non-private allocation (routine locals stay
    // call-private — frames allocate per call regardless of placement).
    if src.units.iter().any(|u| ast_has_omp(&u.body)) {
        for u in &mut program.units {
            for s in &mut u.symbols {
                if matches!(s.kind, SymKind::Local | SymKind::FuncResult | SymKind::Common { .. })
                    && s.placement == Placement::Default
                {
                    s.placement = Placement::Global;
                }
            }
        }
        for c in program.commons.values_mut() {
            c.visibility = Visibility::Global;
        }
    }
    Ok(program)
}

/// Does any statement (recursively) carry an OpenMP directive?
fn ast_has_omp(body: &[ast::Stmt]) -> bool {
    body.iter().any(|s| match &s.kind {
        StmtKind::OmpParallelDo { .. } => true,
        StmtKind::If { then_body, elifs, else_body, .. } => {
            ast_has_omp(then_body)
                || elifs.iter().any(|(_, b)| ast_has_omp(b))
                || ast_has_omp(else_body)
        }
        StmtKind::Do { preamble, body, postamble, .. } => {
            ast_has_omp(preamble) || ast_has_omp(body) || ast_has_omp(postamble)
        }
        StmtKind::DoWhile { body, .. } => ast_has_omp(body),
        _ => false,
    })
}

/// Declaration info accumulated before symbol finalization.
#[derive(Default, Clone)]
struct NameInfo {
    ty: Option<Ty>,
    dims: Option<Vec<ast::DimBound>>,
    common: Option<(String, usize)>,
    placement: Placement,
    param_expr: Option<ast::Expr>,
    data: Vec<(u32, ast::Expr)>,
    span: Span,
}

struct UnitLowerer<'a> {
    ast: &'a ast::ProgramUnit,
    unit_kinds: &'a HashMap<String, UnitKind>,
    commons: &'a mut BTreeMap<String, CommonBlock>,
    unit: Unit,
    /// Name resolution scope stack (innermost last). Base scope maps all
    /// unit-level names; parallel-loop locals push shadowing scopes.
    scopes: Vec<HashMap<String, SymbolId>>,
    externals: HashSet<String>,
    /// Next lock id for synthesized OpenMP reduction merges. Starts well
    /// above the restructurer's own lock numbering so re-lowered OpenMP
    /// output cannot collide with hand-written `lock(n)` calls.
    omp_lock: u32,
}

impl<'a> UnitLowerer<'a> {
    fn new(
        u: &'a ast::ProgramUnit,
        unit_kinds: &'a HashMap<String, UnitKind>,
        commons: &'a mut BTreeMap<String, CommonBlock>,
    ) -> Result<Self> {
        let kind = match u.kind {
            ast::UnitKind::Program => UnitKind::Program,
            ast::UnitKind::Subroutine => UnitKind::Subroutine,
            ast::UnitKind::Function(_) => UnitKind::Function,
        };
        Ok(UnitLowerer {
            ast: u,
            unit_kinds,
            commons,
            unit: Unit {
                name: u.name.clone(),
                kind,
                args: Vec::new(),
                symbols: Vec::new(),
                body: Vec::new(),
                result: None,
                span: u.span,
            },
            scopes: vec![HashMap::new()],
            externals: HashSet::new(),
            omp_lock: 500,
        })
    }

    fn run(mut self) -> Result<Unit> {
        let infos = self.collect_decls()?;
        self.build_symbols(infos)?;
        let body = self.lower_body(&self.ast.body)?;
        self.unit.body = body;
        Ok(self.unit)
    }

    /// Pass A: merge all specification statements into per-name records.
    fn collect_decls(&mut self) -> Result<BTreeMap<String, NameInfo>> {
        // Keep insertion order deterministic: BTreeMap keyed by first-seen
        // sequence number.
        let mut order: Vec<String> = Vec::new();
        let mut map: HashMap<String, NameInfo> = HashMap::new();
        fn touch(
            map: &mut HashMap<String, NameInfo>,
            order: &mut Vec<String>,
            name: &str,
            span: Span,
        ) {
            if !map.contains_key(name) {
                order.push(name.to_string());
            }
            let e = map.entry(name.to_string()).or_default();
            if e.span == Span::NONE {
                e.span = span;
            }
        }

        // Arguments come first so their SymbolIds are the positional ids.
        for a in &self.ast.args {
            touch(&mut map, &mut order, a, self.ast.span);
        }
        // Function result variable.
        if let ast::UnitKind::Function(ret) = &self.ast.kind {
            touch(&mut map, &mut order, &self.ast.name, self.ast.span);
            if let Some(t) = ret {
                let ty = lower_typespec(*t, self.ast.span)?;
                map.get_mut(&self.ast.name).unwrap().ty = Some(ty);
            }
        }

        for d in &self.ast.decls {
            let span = d.span;
            match &d.kind {
                DeclKind::Type { ty, entities } => {
                    let ty = lower_typespec(*ty, span)?;
                    for e in entities {
                        touch(&mut map, &mut order, &e.name, span);
                        let info = map.get_mut(&e.name).unwrap();
                        if info.ty.replace(ty).is_some_and(|old| old != ty) {
                            return err(span, format!("conflicting type for `{}`", e.name));
                        }
                        if !e.dims.is_empty() {
                            if info.dims.is_some() {
                                return err(span, format!("`{}` dimensioned twice", e.name));
                            }
                            info.dims = Some(e.dims.clone());
                        }
                    }
                }
                DeclKind::Dimension { entities } => {
                    for e in entities {
                        if e.dims.is_empty() {
                            return err(span, format!("DIMENSION `{}` without bounds", e.name));
                        }
                        touch(&mut map, &mut order, &e.name, span);
                        let info = map.get_mut(&e.name).unwrap();
                        if info.dims.is_some() {
                            return err(span, format!("`{}` dimensioned twice", e.name));
                        }
                        info.dims = Some(e.dims.clone());
                    }
                }
                DeclKind::Parameter { assigns } => {
                    for (name, e) in assigns {
                        touch(&mut map, &mut order, name, span);
                        map.get_mut(name).unwrap().param_expr = Some(e.clone());
                    }
                }
                DeclKind::Common { block, entities, process } => {
                    let bname = block.clone().unwrap_or_else(|| "$blank".to_string());
                    let vis = if *process { Visibility::Global } else { Visibility::Cluster };
                    let existing = self.commons.get(&bname).map(|c| c.members);
                    let blk = self.commons.entry(bname.clone()).or_insert(CommonBlock {
                        name: bname.clone(),
                        visibility: vis,
                        members: entities.len(),
                    });
                    if *process {
                        blk.visibility = Visibility::Global;
                    }
                    if let Some(n) = existing {
                        if n != entities.len() {
                            return err(
                                span,
                                format!(
                                    "COMMON /{bname}/ declared with {} members here but {n} elsewhere",
                                    entities.len()
                                ),
                            );
                        }
                    }
                    for (pos, e) in entities.iter().enumerate() {
                        touch(&mut map, &mut order, &e.name, span);
                        let info = map.get_mut(&e.name).unwrap();
                        info.common = Some((bname.clone(), pos));
                        if !e.dims.is_empty() {
                            info.dims = Some(e.dims.clone());
                        }
                    }
                }
                DeclKind::Visibility { vis, names } => {
                    for n in names {
                        touch(&mut map, &mut order, n, span);
                        map.get_mut(n).unwrap().placement = match vis {
                            Visibility::Global => Placement::Global,
                            Visibility::Cluster => Placement::Cluster,
                        };
                    }
                }
                DeclKind::Data { names, values } => {
                    // Values are distributed positionally: each name takes
                    // values until its length is satisfied. We attach the
                    // whole list to the first name and let symbol building
                    // split it (needs array lengths).
                    if let Some(first) = names.first() {
                        let nm = match first.base_name() {
                            Some(n) => n,
                            None => return err(span, "bad DATA item"),
                        };
                        if names.len() > 1 || !matches!(first, ast::Expr::Name(_)) {
                            // Conservative subset: one whole variable per
                            // DATA statement group keeps the semantics
                            // unambiguous.
                            for n in names {
                                if !matches!(n, ast::Expr::Name(_)) {
                                    return err(span, "DATA supports whole scalars/arrays only");
                                }
                            }
                            // Multiple whole names: split evenly later is
                            // error-prone; require one name.
                            if names.len() > 1 {
                                return err(
                                    span,
                                    "DATA with multiple names per value list is not supported; \
                                     use one DATA group per variable",
                                );
                            }
                        }
                        touch(&mut map, &mut order, nm, span);
                        map.get_mut(nm).unwrap().data = values.clone();
                    }
                }
                DeclKind::External(names) => {
                    for n in names {
                        self.externals.insert(n.clone());
                    }
                }
                DeclKind::Intrinsic(_) | DeclKind::Save(_) | DeclKind::ImplicitNone => {}
                DeclKind::Equivalence(_) => {
                    return err(span, "EQUIVALENCE is not supported (defeats dependence analysis)")
                }
            }
        }

        let mut out = BTreeMap::new();
        for (i, name) in order.iter().enumerate() {
            // BTreeMap sorted by sequence number to preserve order.
            out.insert(format!("{i:06}:{name}"), map.remove(name).unwrap());
        }
        Ok(out)
    }

    /// Pass B: finalize symbols, evaluate PARAMETERs, lower dim bounds.
    fn build_symbols(&mut self, infos: BTreeMap<String, NameInfo>) -> Result<()> {
        // First create all slots (so dim expressions can reference any
        // declared name), then fill dims/params in declaration order.
        let names: Vec<(String, NameInfo)> =
            infos.into_iter().map(|(k, v)| (k.split_once(':').unwrap().1.to_string(), v)).collect();

        for (name, info) in &names {
            if self.externals.contains(name) {
                continue;
            }
            let ty = info.ty.unwrap_or_else(|| implicit_ty(name));
            let is_arg = self.ast.args.iter().position(|a| a == name);
            let kind = if let Some(pos) = is_arg {
                SymKind::Arg(pos)
            } else if name == &self.ast.name && matches!(self.ast.kind, ast::UnitKind::Function(_))
            {
                SymKind::FuncResult
            } else if let Some((block, member)) = &info.common {
                SymKind::Common { block: block.clone(), member: *member }
            } else {
                SymKind::Local
            };
            let id = self.unit.add_symbol(Symbol {
                name: name.clone(),
                ty,
                dims: Vec::new(), // filled below
                kind,
                placement: info.placement,
                init: Vec::new(),
                span: info.span,
            });
            self.scopes[0].insert(name.clone(), id);
        }

        // Argument ids in positional order; missing ones (undeclared
        // args) get implicit scalars.
        for a in &self.ast.args {
            let id = match self.scopes[0].get(a) {
                Some(id) => *id,
                None => {
                    let id = self.unit.add_symbol(Symbol {
                        name: a.clone(),
                        ty: implicit_ty(a),
                        dims: Vec::new(),
                        kind: SymKind::Arg(self.unit.args.len()),
                        placement: Placement::Default,
                        init: Vec::new(),
                        span: self.ast.span,
                    });
                    self.scopes[0].insert(a.clone(), id);
                    id
                }
            };
            self.unit.args.push(id);
        }
        if matches!(self.ast.kind, ast::UnitKind::Function(_)) {
            self.unit.result = self.scopes[0].get(&self.ast.name).copied();
        }

        // Dims, PARAMETER values, DATA.
        for (name, info) in &names {
            if self.externals.contains(name) {
                continue;
            }
            let id = self.scopes[0][name];
            if let Some(dims) = &info.dims {
                let mut lowered = Vec::with_capacity(dims.len());
                for (k, d) in dims.iter().enumerate() {
                    let lower = match &d.lower {
                        Some(e) => self.lower_expr(e, info.span)?,
                        None => Expr::ConstI(1),
                    };
                    let upper = match &d.upper {
                        Some(e) => Some(self.lower_expr(e, info.span)?),
                        None => {
                            if k + 1 != dims.len() {
                                return err(
                                    info.span,
                                    format!("assumed-size `*` only in last dimension of `{name}`"),
                                );
                            }
                            None
                        }
                    };
                    lowered.push(Dim { lower, upper });
                }
                self.unit.symbol_mut(id).dims = lowered;
            }
            if let Some(pe) = &info.param_expr {
                let e = self.lower_expr(pe, info.span)?;
                let v = self.unit.const_value(&e).ok_or_else(|| LowerError {
                    span: info.span,
                    msg: format!("PARAMETER `{name}` is not a constant expression"),
                })?;
                let v = match (self.unit.symbol(id).ty, v) {
                    (Ty::Int, v @ Value::R(_)) => Value::I(v.as_i64()),
                    (Ty::Real | Ty::Double, v @ Value::I(_)) => Value::R(v.as_f64()),
                    (_, v) => v,
                };
                self.unit.symbol_mut(id).kind = SymKind::Param(v);
            }
            if !info.data.is_empty() {
                let mut flat = Vec::new();
                for (count, e) in &info.data {
                    let le = self.lower_expr(e, info.span)?;
                    let v = self.unit.const_value(&le).ok_or_else(|| LowerError {
                        span: info.span,
                        msg: format!("DATA value for `{name}` is not constant"),
                    })?;
                    for _ in 0..*count {
                        flat.push(v);
                    }
                }
                self.unit.symbol_mut(id).init = flat;
            }
        }
        Ok(())
    }

    // ----- name resolution -----

    fn resolve(&self, name: &str) -> Option<SymbolId> {
        self.scopes.iter().rev().find_map(|s| s.get(name)).copied()
    }

    /// Resolve or create (implicit typing) a scalar symbol.
    fn resolve_or_implicit(&mut self, name: &str, span: Span) -> Result<SymbolId> {
        if let Some(id) = self.resolve(name) {
            return Ok(id);
        }
        if self.unit_kinds.contains_key(name) || self.externals.contains(name) {
            return err(span, format!("routine `{name}` used as a variable"));
        }
        let id = self.unit.add_symbol(Symbol {
            name: name.to_string(),
            ty: implicit_ty(name),
            dims: Vec::new(),
            kind: SymKind::Local,
            placement: Placement::Default,
            init: Vec::new(),
            span,
        });
        self.scopes[0].insert(name.to_string(), id);
        Ok(id)
    }

    // ----- expression lowering -----

    fn lower_expr(&mut self, e: &ast::Expr, span: Span) -> Result<Expr> {
        Ok(match e {
            ast::Expr::Int(v) => Expr::ConstI(*v),
            ast::Expr::Real { value, is_double } => {
                Expr::ConstR { value: *value, double: *is_double }
            }
            ast::Expr::Logical(b) => Expr::ConstB(*b),
            ast::Expr::Str(_) => return err(span, "character expression outside I/O"),
            ast::Expr::Name(n) => {
                // The printer spells the min/max reduction identities as
                // `inf` / `(-inf)`, which is not a legal F77 literal:
                // accept the name as ±infinity when nothing declares it.
                if n == "inf" && self.resolve(n).is_none() {
                    return Ok(Expr::real(f64::INFINITY));
                }
                let id = self.resolve_or_implicit(n, span)?;
                let sym = self.unit.symbol(id);
                if sym.is_array() {
                    // Whole-array reference: full section.
                    let idx = sym
                        .dims
                        .iter()
                        .map(|_| Index::Range { lo: None, hi: None, step: None })
                        .collect();
                    Expr::Section { arr: id, idx }
                } else if let SymKind::Param(v) = &sym.kind {
                    // Fold named constants at use sites: loop bounds and
                    // subscripts become literal, which sharpens every
                    // downstream analysis (trip counts, Banerjee ranges,
                    // version-selection heuristics).
                    match v {
                        Value::I(x) => Expr::ConstI(*x),
                        Value::R(x) => Expr::ConstR { value: *x, double: sym.ty == Ty::Double },
                        Value::B(x) => Expr::ConstB(*x),
                    }
                } else {
                    Expr::Scalar(id)
                }
            }
            ast::Expr::NameArgs { name, args } => self.lower_name_args(name, args, span)?,
            ast::Expr::Un(op, inner) => {
                let e = self.lower_expr(inner, span)?;
                match op {
                    ast::UnOp::Plus => e,
                    ast::UnOp::Neg => Expr::Un(UnOp::Neg, Box::new(e)),
                    ast::UnOp::Not => Expr::Un(UnOp::Not, Box::new(e)),
                }
            }
            ast::Expr::Bin(op, l, r) => {
                let op = match op {
                    ast::BinOp::Add => BinOp::Add,
                    ast::BinOp::Sub => BinOp::Sub,
                    ast::BinOp::Mul => BinOp::Mul,
                    ast::BinOp::Div => BinOp::Div,
                    ast::BinOp::Pow => BinOp::Pow,
                    ast::BinOp::Eq => BinOp::Eq,
                    ast::BinOp::Ne => BinOp::Ne,
                    ast::BinOp::Lt => BinOp::Lt,
                    ast::BinOp::Le => BinOp::Le,
                    ast::BinOp::Gt => BinOp::Gt,
                    ast::BinOp::Ge => BinOp::Ge,
                    ast::BinOp::And => BinOp::And,
                    ast::BinOp::Or => BinOp::Or,
                    ast::BinOp::Eqv => BinOp::Eqv,
                    ast::BinOp::Neqv => BinOp::Neqv,
                    ast::BinOp::Concat => return err(span, "character concatenation"),
                };
                Expr::bin(op, self.lower_expr(l, span)?, self.lower_expr(r, span)?)
            }
        })
    }

    fn lower_name_args(&mut self, name: &str, args: &[ArgExpr], span: Span) -> Result<Expr> {
        let has_section = args.iter().any(|a| matches!(a, ArgExpr::Section { .. }));
        // Declared array?
        if let Some(id) = self.resolve(name) {
            if self.unit.symbol(id).is_array() {
                let rank = self.unit.symbol(id).dims.len();
                if args.len() != rank {
                    return err(
                        span,
                        format!("`{name}` has rank {rank} but {} subscript(s) given", args.len()),
                    );
                }
                if has_section {
                    let idx = args
                        .iter()
                        .map(|a| self.lower_index(a, span))
                        .collect::<Result<Vec<_>>>()?;
                    return Ok(Expr::Section { arr: id, idx });
                }
                let idx = args
                    .iter()
                    .map(|a| match a {
                        ArgExpr::Expr(e) => self.lower_expr(e, span),
                        _ => unreachable!(),
                    })
                    .collect::<Result<Vec<_>>>()?;
                // A vector-valued subscript (nested section or iota) is
                // a hardware gather: the whole reference is a Section.
                if idx.iter().any(|e| e.is_vector_valued()) {
                    return Ok(Expr::Section {
                        arr: id,
                        idx: idx.into_iter().map(Index::At).collect(),
                    });
                }
                return Ok(Expr::Elem { arr: id, idx });
            }
        }
        if has_section {
            return err(span, format!("section subscript on non-array `{name}`"));
        }
        let exprs = args
            .iter()
            .map(|a| match a {
                ArgExpr::Expr(e) => self.lower_expr(e, span),
                _ => unreachable!(),
            })
            .collect::<Result<Vec<_>>>()?;
        // Intrinsic? Reduction names may carry a scheduling-variant
        // suffix (`sum$v`, `dotproduct$x`, ... — see the printer).
        let (base, par) = match name.rsplit_once('$') {
            Some((b, "v")) => (b, ParMode::Vector),
            Some((b, "c")) => (b, ParMode::ClusterParallel),
            Some((b, "x")) => (b, ParMode::CedarParallel),
            _ => (name, ParMode::Serial),
        };
        if let Some((intr, _)) = intrinsic_by_name(base) {
            if intr.is_reduction() || par == ParMode::Serial {
                return Ok(Expr::Intr { f: intr, args: exprs, par });
            }
        }
        // User function?
        if matches!(self.unit_kinds.get(name), Some(UnitKind::Function))
            || self.externals.contains(name)
        {
            return Ok(Expr::Call { unit: name.to_string(), args: exprs });
        }
        err(span, format!("`{name}` is not an array, intrinsic, or known function"))
    }

    fn lower_index(&mut self, a: &ArgExpr, span: Span) -> Result<Index> {
        Ok(match a {
            ArgExpr::Expr(e) => Index::At(self.lower_expr(e, span)?),
            ArgExpr::Section { lower, upper, stride } => Index::Range {
                lo: lower.as_ref().map(|e| self.lower_expr(e, span)).transpose()?,
                hi: upper.as_ref().map(|e| self.lower_expr(e, span)).transpose()?,
                step: stride.as_ref().map(|e| self.lower_expr(e, span)).transpose()?,
            },
        })
    }

    fn lower_lvalue(&mut self, e: &ast::Expr, span: Span) -> Result<LValue> {
        match self.lower_expr(e, span)? {
            Expr::Scalar(s) => {
                if self.unit.symbol(s).is_param() {
                    return err(span, "assignment to PARAMETER constant");
                }
                Ok(LValue::Scalar(s))
            }
            Expr::Elem { arr, idx } => Ok(LValue::Elem { arr, idx }),
            Expr::Section { arr, idx } => Ok(LValue::Section { arr, idx }),
            _ => err(span, "assignment target must be a variable or array reference"),
        }
    }

    // ----- statement lowering -----

    fn lower_body(&mut self, body: &[ast::Stmt]) -> Result<Vec<Stmt>> {
        let mut out = Vec::with_capacity(body.len());
        for s in body {
            if let Some(st) = self.lower_stmt(s)? {
                out.push(st);
            }
        }
        Ok(out)
    }

    fn lower_stmt(&mut self, s: &ast::Stmt) -> Result<Option<Stmt>> {
        let span = s.span;
        Ok(Some(match &s.kind {
            StmtKind::Continue => return Ok(None),
            StmtKind::Assign { lhs, rhs } => {
                let lhs = self.lower_lvalue(lhs, span)?;
                let rhs = self.lower_expr(rhs, span)?;
                Stmt::Assign { lhs, rhs, span }
            }
            StmtKind::Where { mask, lhs, rhs } => {
                let mask = self.lower_expr(mask, span)?;
                let lhs = self.lower_lvalue(lhs, span)?;
                let rhs = self.lower_expr(rhs, span)?;
                Stmt::WhereAssign { mask, lhs, rhs, span }
            }
            StmtKind::If { cond, then_body, elifs, else_body } => {
                let cond = self.lower_expr(cond, span)?;
                let then_body = self.lower_body(then_body)?;
                let elifs = elifs
                    .iter()
                    .map(|(c, b)| Ok((self.lower_expr(c, span)?, self.lower_body(b)?)))
                    .collect::<Result<Vec<_>>>()?;
                let else_body = self.lower_body(else_body)?;
                Stmt::If { cond, then_body, elifs, else_body, span }
            }
            StmtKind::Do { class, var, start, end, step, decls, preamble, body, postamble } => {
                let var_id = self.resolve_or_implicit(var, span)?;
                let start = self.lower_expr(start, span)?;
                let end = self.lower_expr(end, span)?;
                let step = step.as_ref().map(|e| self.lower_expr(e, span)).transpose()?;

                // Loop-local declarations open a shadowing scope.
                let mut scope = HashMap::new();
                let mut locals = Vec::new();
                for d in decls {
                    match &d.kind {
                        DeclKind::Type { ty, entities } => {
                            let ty = lower_typespec(*ty, d.span)?;
                            for e in entities {
                                // Dims may reference outer names (e.g.
                                // `REAL T(STRIP)`): lower before pushing
                                // the new scope entry.
                                let mut dims = Vec::new();
                                for b in &e.dims {
                                    let lower = match &b.lower {
                                        Some(x) => self.lower_expr(x, d.span)?,
                                        None => Expr::ConstI(1),
                                    };
                                    let upper = match &b.upper {
                                        Some(x) => Some(self.lower_expr(x, d.span)?),
                                        None => return err(d.span, "assumed-size loop local"),
                                    };
                                    dims.push(Dim { lower, upper });
                                }
                                let stored = self.unit.fresh_name(&e.name);
                                let id = self.unit.add_symbol(Symbol {
                                    name: stored,
                                    ty,
                                    dims,
                                    kind: SymKind::LoopLocal,
                                    placement: Placement::Private,
                                    init: Vec::new(),
                                    span: d.span,
                                });
                                scope.insert(e.name.clone(), id);
                                locals.push(id);
                            }
                        }
                        _ => {
                            return err(d.span, "only type declarations are allowed as loop locals")
                        }
                    }
                }
                self.scopes.push(scope);
                let preamble = self.lower_body(preamble)?;
                let body = self.lower_body(body)?;
                let postamble = self.lower_body(postamble)?;
                self.scopes.pop();
                Stmt::Loop(Loop {
                    class: *class,
                    var: var_id,
                    start,
                    end,
                    step,
                    locals,
                    preamble,
                    body,
                    postamble,
                    span,
                })
            }
            StmtKind::DoWhile { cond, body } => {
                let cond = self.lower_expr(cond, span)?;
                let body = self.lower_body(body)?;
                Stmt::DoWhile { cond, body, span }
            }
            StmtKind::Call { name, args } => {
                // Cedar synchronization primitives.
                match name.as_str() {
                    "await" => {
                        if args.len() != 2 {
                            return err(span, "AWAIT takes (point, distance)");
                        }
                        let point = self.sync_point(&args[0], span)?;
                        let dist = self.lower_expr(&args[1], span)?;
                        return Ok(Some(Stmt::Sync(SyncOp::Await { point, dist })));
                    }
                    "advance" => {
                        if args.len() != 1 {
                            return err(span, "ADVANCE takes (point)");
                        }
                        let point = self.sync_point(&args[0], span)?;
                        return Ok(Some(Stmt::Sync(SyncOp::Advance { point })));
                    }
                    "ctskstart" | "mtskstart" => {
                        let lib = name == "mtskstart";
                        let Some(ast::Expr::Name(sub)) = args.first() else {
                            return err(span, "CTSKSTART/MTSKSTART need a subroutine name");
                        };
                        if !matches!(self.unit_kinds.get(sub), Some(UnitKind::Subroutine)) {
                            return err(span, format!("`{sub}` is not a known subroutine"));
                        }
                        let rest = args[1..]
                            .iter()
                            .map(|a| self.lower_expr(a, span))
                            .collect::<Result<Vec<_>>>()?;
                        return Ok(Some(Stmt::TaskStart {
                            callee: sub.clone(),
                            args: rest,
                            lib,
                            span,
                        }));
                    }
                    "tskwait" => {
                        if !args.is_empty() {
                            return err(span, "TSKWAIT takes no arguments");
                        }
                        return Ok(Some(Stmt::TaskWait { span }));
                    }
                    "lock" | "unlock" => {
                        if args.len() != 1 {
                            return err(span, "LOCK/UNLOCK take (id)");
                        }
                        let id = self.sync_point(&args[0], span)?;
                        return Ok(Some(Stmt::Sync(if name == "lock" {
                            SyncOp::Lock { id }
                        } else {
                            SyncOp::Unlock { id }
                        })));
                    }
                    // OpenMP runtime spelling of the same primitives,
                    // produced by the OpenMP emission backend.
                    "omp_set_lock" | "omp_unset_lock" => {
                        if args.len() != 1 {
                            return err(span, "OMP_SET_LOCK/OMP_UNSET_LOCK take (id)");
                        }
                        let id = self.sync_point(&args[0], span)?;
                        return Ok(Some(Stmt::Sync(if name == "omp_set_lock" {
                            SyncOp::Lock { id }
                        } else {
                            SyncOp::Unlock { id }
                        })));
                    }
                    _ => {}
                }
                if !self.unit_kinds.contains_key(name)
                    && !self.externals.contains(name)
                    && !crate::is_timer_call(name)
                {
                    return err(span, format!("CALL to unknown subroutine `{name}`"));
                }
                let args =
                    args.iter().map(|a| self.lower_expr(a, span)).collect::<Result<Vec<_>>>()?;
                Stmt::Call { callee: name.clone(), args, span }
            }
            StmtKind::OmpParallelDo { privates, reductions, body } => {
                return self.lower_omp(privates, reductions, body, span).map(Some);
            }
            StmtKind::Goto(_) => {
                return err(span, "GOTO is not supported; restructure with block IF / DO WHILE")
            }
            StmtKind::Return => Stmt::Return,
            StmtKind::Stop => Stmt::Stop,
            StmtKind::Io { .. } => Stmt::Io { span },
        }))
    }

    /// Rewrite `!$omp parallel do` plus its DO into the equivalent
    /// `XDOALL`. Clause privates become loop locals; each `reduction`
    /// clause gets the partial that the OpenMP emission backend folded
    /// into it, built by [`furniture::reduction_partials`].
    fn lower_omp(
        &mut self,
        privates: &[String],
        reductions: &[(RedOp, String)],
        body: &ast::Stmt,
        span: Span,
    ) -> Result<Stmt> {
        let Some(Stmt::Loop(mut l)) = self.lower_stmt(body)? else {
            return err(span, "`!$omp parallel do` must annotate a DO loop");
        };
        l.class = ast::LoopClass::XDoall;
        for name in privates {
            let id = self.clause_variable("private", name, span)?;
            if id == l.var {
                // The control variable is per-participant already.
                continue;
            }
            let s = self.unit.symbol_mut(id);
            s.kind = SymKind::LoopLocal;
            s.placement = Placement::Private;
            l.locals.push(id);
        }
        for (op, name) in reductions {
            let target = self.clause_variable("reduction", name, span)?;
            if target == l.var {
                return err(span, format!("reduction({name}) names the loop's control variable"));
            }
            if privates.contains(name) {
                return err(span, format!("`{name}` is both private and a reduction"));
            }
            if self.unit.symbol(target).is_array() {
                return err(span, "reduction clause on an array is not supported");
            }
            furniture::reduction_partials(
                &mut self.unit,
                &mut l,
                (*op, target),
                self.omp_lock,
                span,
            );
            self.omp_lock += 1;
        }
        Ok(Stmt::Loop(l))
    }

    /// The variable an OpenMP clause names: visible, and not a constant.
    fn clause_variable(&self, clause: &str, name: &str, span: Span) -> Result<SymbolId> {
        let Some(id) = self.resolve(name) else {
            return err(span, format!("{clause}({name}) names no visible variable"));
        };
        if let SymKind::Param(_) = self.unit.symbol(id).kind {
            return err(span, format!("{clause}({name}) names a PARAMETER constant"));
        }
        Ok(id)
    }

    fn sync_point(&mut self, e: &ast::Expr, span: Span) -> Result<u32> {
        let le = self.lower_expr(e, span)?;
        self.unit.const_value(&le).and_then(|v| u32::try_from(v.as_i64()).ok()).ok_or_else(|| {
            LowerError { span, msg: "synchronization point must be a constant".to_string() }
        })
    }
}

/// Map a Fortran intrinsic name (generic or specific) to its IR
/// intrinsic. The second element is true if the specific name forces
/// DOUBLE results (unused for execution — both map to f64 — but kept so
/// the printer can round-trip the generic name).
pub fn intrinsic_by_name(name: &str) -> Option<(Intrinsic, bool)> {
    use Intrinsic::*;
    Some(match name {
        "abs" | "iabs" | "dabs" => (Abs, name == "dabs"),
        "sqrt" | "dsqrt" => (Sqrt, name == "dsqrt"),
        "exp" | "dexp" => (Exp, name == "dexp"),
        "log" | "alog" | "dlog" => (Log, name == "dlog"),
        "log10" | "alog10" | "dlog10" => (Log10, name == "dlog10"),
        "sin" | "dsin" => (Sin, name == "dsin"),
        "cos" | "dcos" => (Cos, name == "dcos"),
        "tan" | "dtan" => (Tan, name == "dtan"),
        "atan" | "datan" => (Atan, name == "datan"),
        "atan2" | "datan2" => (Atan2, name == "datan2"),
        "sinh" => (Sinh, false),
        "cosh" => (Cosh, false),
        "tanh" => (Tanh, false),
        "sign" | "isign" | "dsign" => (Sign, name == "dsign"),
        "mod" | "amod" | "dmod" => (Mod, name == "dmod"),
        "min" | "min0" | "amin1" | "dmin1" | "amin0" | "min1" => (Min, name == "dmin1"),
        "max" | "max0" | "amax1" | "dmax1" | "amax0" | "max1" => (Max, name == "dmax1"),
        "int" | "ifix" | "idint" => (Int, false),
        "nint" | "idnint" => (Nint, false),
        "real" | "float" | "sngl" => (Real, false),
        "dble" | "dfloat" => (Dble, true),
        "iota" => (Iota, false),
        "sum" => (Sum, false),
        "product" => (Product, false),
        "dotproduct" | "dot_product" => (DotProduct, false),
        "maxval" => (MaxVal, false),
        "minval" => (MinVal, false),
        "maxloc" => (MaxLoc, false),
        "minloc" => (MinLoc, false),
        _ => return None,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compile_free;

    #[test]
    fn omp_parallel_do_lowers_to_xdoall() {
        let p = compile_free(
            "subroutine s(a, b, n)\nreal a(n), b(n)\nreal x\n\
             !$omp parallel do private(x)\ndo i = 1, n\nx = b(i)\n\
             a(i) = x * 2.0\nend do\nend\n",
        )
        .unwrap();
        let u = p.unit("s").unwrap();
        let Stmt::Loop(l) = &u.body[0] else { panic!() };
        assert_eq!(l.class, ast::LoopClass::XDoall);
        assert_eq!(l.locals.len(), 1);
        let x = l.locals[0];
        assert_eq!(u.symbol(x).kind, SymKind::LoopLocal);
        assert_eq!(u.symbol(x).placement, Placement::Private);
    }

    #[test]
    fn omp_directive_globalizes_shared_data() {
        let p = compile_free(
            "subroutine s(n)\ncommon /blk/ c(100)\nreal w(100)\n\
             !$omp parallel do\ndo i = 1, n\nw(i) = c(i)\nend do\nend\n",
        )
        .unwrap();
        let u = p.unit("s").unwrap();
        let w = u.find_symbol("w").unwrap();
        assert_eq!(u.symbol(w).placement, Placement::Global);
        let c = u.find_symbol("c").unwrap();
        assert_eq!(u.symbol(c).placement, Placement::Global);
        assert_eq!(p.commons["blk"].visibility, ast::Visibility::Global);
        // Without a directive nothing moves.
        let p = compile_free(
            "subroutine s(n)\ncommon /blk/ c(100)\nreal w(100)\n\
             do i = 1, n\nw(i) = c(i)\nend do\nend\n",
        )
        .unwrap();
        let u = p.unit("s").unwrap();
        let w = u.find_symbol("w").unwrap();
        assert_eq!(u.symbol(w).placement, Placement::Default);
        assert_eq!(p.commons["blk"].visibility, ast::Visibility::Cluster);
    }

    #[test]
    fn omp_reduction_synthesizes_partials() {
        let p = compile_free(
            "subroutine s(a, n, t)\nreal a(n), t\n\
             !$omp parallel do reduction(+:t)\ndo i = 1, n\n\
             t = t + a(i)\nend do\nend\n",
        )
        .unwrap();
        let u = p.unit("s").unwrap();
        let Stmt::Loop(l) = &u.body[0] else { panic!() };
        assert_eq!(l.class, ast::LoopClass::XDoall);
        assert_eq!(l.locals.len(), 1);
        let partial = l.locals[0];
        // Preamble: partial = identity. Postamble: lock; merge; unlock.
        assert_eq!(l.preamble.len(), 1);
        let Stmt::Assign { lhs: pl, rhs: pr, .. } = &l.preamble[0] else { panic!() };
        assert_eq!(*pl, LValue::Scalar(partial));
        assert_eq!(*pr, Expr::real(0.0));
        assert!(matches!(l.postamble[0], Stmt::Sync(SyncOp::Lock { id: 500 })));
        let Stmt::Assign { lhs, rhs, .. } = &l.postamble[1] else { panic!() };
        let t = u.find_symbol("t").unwrap();
        assert_eq!(*lhs, LValue::Scalar(t));
        assert_eq!(*rhs, Expr::bin(BinOp::Add, Expr::Scalar(t), Expr::Scalar(partial)));
        assert!(matches!(l.postamble[2], Stmt::Sync(SyncOp::Unlock { id: 500 })));
        // The body accumulates into the partial, not the target.
        let Stmt::Assign { lhs, .. } = &l.body[0] else { panic!() };
        assert_eq!(*lhs, LValue::Scalar(partial));
    }

    /// The lowering error of `src`: its line and message.
    fn lower_error(src: &str) -> (u32, String) {
        match compile_free(src) {
            Err(crate::CompileError::Lower(e)) => (e.span.line, e.msg),
            other => panic!("expected a lowering error, got {other:?}"),
        }
    }

    #[test]
    fn omp_reduction_on_the_control_variable_is_refused() {
        // Renaming the body's `i` to a partial would sum zeros into `s`.
        let (line, msg) = lower_error(
            "program p\nreal s\ns = 0.0\n!$omp parallel do reduction(+:i)\n\
             do i = 1, 4\ns = s + i\nend do\nend\n",
        );
        assert_eq!((line, msg.as_str()), (4, "reduction(i) names the loop's control variable"));
    }

    #[test]
    fn omp_clause_on_a_parameter_is_refused() {
        // A reduction would merge into the constant; a private would
        // turn it into a loop local.
        for clause in ["reduction(+:s)", "private(s)"] {
            let (line, msg) = lower_error(&format!(
                "program p\nreal a(4)\nparameter (s = 2.0)\n!$omp parallel do {clause}\n\
                 do i = 1, 4\na(i) = s\nend do\nend\n"
            ));
            let name = clause.split('(').next().unwrap();
            assert_eq!((line, msg), (4, format!("{name}(s) names a PARAMETER constant")));
        }
    }

    #[test]
    fn omp_private_reduction_is_refused() {
        // The merge would read a target that no participant bound.
        let (line, msg) = lower_error(
            "program p\nreal a(4), s\ns = 0.0\n!$omp parallel do private(s) reduction(+:s)\n\
             do i = 1, 4\ns = s + a(i)\nend do\nend\n",
        );
        assert_eq!((line, msg.as_str()), (4, "`s` is both private and a reduction"));
    }

    #[test]
    fn omp_lock_calls_lower_to_sync_ops() {
        let p = compile_free(
            "subroutine s(a, n, t)\nreal a(n), t\n!$omp parallel do\n\
             do i = 1, n\ncall omp_set_lock(3)\nt = t + a(i)\n\
             call omp_unset_lock(3)\nend do\nend\n",
        )
        .unwrap();
        let u = p.unit("s").unwrap();
        let Stmt::Loop(l) = &u.body[0] else { panic!() };
        assert!(matches!(l.body[0], Stmt::Sync(SyncOp::Lock { id: 3 })));
        assert!(matches!(l.body[2], Stmt::Sync(SyncOp::Unlock { id: 3 })));
    }

    #[test]
    fn inf_name_is_the_infinity_literal() {
        let p = compile_free("subroutine s(x)\nreal x\nx = -inf\nend\n").unwrap();
        let u = p.unit("s").unwrap();
        let Stmt::Assign { rhs, .. } = &u.body[0] else { panic!() };
        let Expr::Un(UnOp::Neg, inner) = rhs else { panic!("{rhs:?}") };
        assert_eq!(**inner, Expr::real(f64::INFINITY));
        // ... unless something by that name is declared.
        let p = compile_free("subroutine s(x)\nreal x, inf\ninf = 1.0\nx = inf\nend\n").unwrap();
        let u = p.unit("s").unwrap();
        assert!(u.find_symbol("inf").is_some());
    }

    #[test]
    fn lowers_scalar_and_array_refs() {
        let p =
            compile_free("subroutine s(a, n)\nreal a(n)\nx = a(1) + n\na(2) = x\nend\n").unwrap();
        let u = p.unit("s").unwrap();
        assert_eq!(u.args.len(), 2);
        let Stmt::Assign { rhs, .. } = &u.body[0] else { panic!() };
        assert!(matches!(rhs, Expr::Bin(BinOp::Add, _, _)));
        let Stmt::Assign { lhs, .. } = &u.body[1] else { panic!() };
        assert!(matches!(lhs, LValue::Elem { .. }));
    }

    #[test]
    fn implicit_typing_rule() {
        assert_eq!(implicit_ty("i"), Ty::Int);
        assert_eq!(implicit_ty("n2"), Ty::Int);
        assert_eq!(implicit_ty("x"), Ty::Real);
        assert_eq!(implicit_ty("alpha"), Ty::Real);
    }

    #[test]
    fn whole_array_lowers_to_full_section() {
        let p = compile_free("subroutine s(a, b, n)\nreal a(n), b(n)\na = b\nend\n").unwrap();
        let u = p.unit("s").unwrap();
        let Stmt::Assign { lhs, rhs, .. } = &u.body[0] else { panic!() };
        assert!(matches!(lhs, LValue::Section { .. }));
        assert!(matches!(rhs, Expr::Section { .. }));
    }

    #[test]
    fn sync_calls_lower_to_sync_ops() {
        let p = compile_free(
            "subroutine s(a, b, n)\nreal a(n), b(n)\ncdoacross i = 1, n\n\
             call await(1, 1)\nb(i) = a(i) + b(i)\ncall advance(1)\nend cdoacross\nend\n",
        )
        .unwrap();
        let u = p.unit("s").unwrap();
        let Stmt::Loop(l) = &u.body[0] else { panic!() };
        assert!(matches!(&l.body[0], Stmt::Sync(SyncOp::Await { point: 1, .. })));
        assert!(matches!(&l.body[2], Stmt::Sync(SyncOp::Advance { point: 1 })));
    }

    #[test]
    fn loop_locals_shadow_outer_names() {
        let p = compile_free(
            "subroutine s(a, b, n)\nreal a(n), b(n)\nreal t\nt = 0.0\n\
             xdoall i = 1, n\nreal t\nt = b(i)\na(i) = t\nend xdoall\nend\n",
        )
        .unwrap();
        let u = p.unit("s").unwrap();
        let Stmt::Loop(l) = &u.body[1] else { panic!() };
        assert_eq!(l.locals.len(), 1);
        let local = l.locals[0];
        assert_eq!(u.symbol(local).placement, Placement::Private);
        // The loop body reads/writes the local, not the outer `t`.
        let Stmt::Assign { lhs, .. } = &l.body[0] else { panic!() };
        assert_eq!(lhs.base(), local);
        // The outer assignment still targets the outer `t`.
        let Stmt::Assign { lhs, .. } = &u.body[0] else { panic!() };
        assert_ne!(lhs.base(), local);
    }

    #[test]
    fn intrinsics_resolve_specific_names() {
        let p = compile_free("subroutine s(x, y)\ny = dsqrt(x) + amax1(x, y)\nend\n").unwrap();
        let u = p.unit("s").unwrap();
        let Stmt::Assign { rhs, .. } = &u.body[0] else { panic!() };
        let mut intrs = Vec::new();
        crate::visit::walk_expr(rhs, &mut |e| {
            if let Expr::Intr { f, .. } = e {
                intrs.push(*f);
            }
        });
        assert_eq!(intrs, vec![Intrinsic::Sqrt, Intrinsic::Max]);
    }

    #[test]
    fn function_calls_resolve() {
        let p = compile_free(
            "program p\nreal x\nx = f(2.0)\nend\nreal function f(y)\nf = y * 2.0\nend\n",
        )
        .unwrap();
        let u = p.unit("p").unwrap();
        let Stmt::Assign { rhs, .. } = &u.body[0] else { panic!() };
        assert!(matches!(rhs, Expr::Call { unit, .. } if unit == "f"));
        let f = p.unit("f").unwrap();
        assert!(f.result.is_some());
    }

    #[test]
    fn common_blocks_register_at_program_level() {
        let p = compile_free(
            "subroutine a\ncommon /blk/ x(10), k\nx(1) = k\nend\n\
             subroutine b\ncommon /blk/ y(10), j\ny(2) = j\nend\n",
        )
        .unwrap();
        assert!(p.commons.contains_key("blk"));
        let ua = p.unit("a").unwrap();
        let x = ua.find_symbol("x").unwrap();
        assert!(matches!(
            &ua.symbol(x).kind,
            SymKind::Common { block, member: 0 } if block == "blk"
        ));
    }

    #[test]
    fn process_common_is_global() {
        let p = compile_free("subroutine a\nprocess common /g/ x(10)\nx(1) = 0.0\nend\n").unwrap();
        assert_eq!(p.commons["g"].visibility, Visibility::Global);
    }

    #[test]
    fn goto_is_rejected() {
        // GOTO 10 targeting a CONTINUE: parseable, but lowering refuses.
        let r =
            compile_free("subroutine s(x)\nif (x .gt. 0.0) go to 10\nx = 1.0\n10 continue\nend\n");
        assert!(r.is_err());
    }

    #[test]
    fn equivalence_is_rejected() {
        let r =
            compile_free("subroutine s\nreal a(10), b(10)\nequivalence (a, b)\na(1) = 0.\nend\n");
        assert!(r.is_err());
    }

    #[test]
    fn data_initializers() {
        let p =
            compile_free("subroutine s\nreal x(4)\ndata x /3*1.0, 2.0/\nx(1) = 0.\nend\n").unwrap();
        let u = p.unit("s").unwrap();
        let x = u.find_symbol("x").unwrap();
        assert_eq!(
            u.symbol(x).init,
            vec![Value::R(1.0), Value::R(1.0), Value::R(1.0), Value::R(2.0)]
        );
    }

    #[test]
    fn visibility_declarations() {
        let p = compile_free(
            "subroutine s(a, n)\nreal a(n)\nglobal a, n\ncluster w\nreal w(10)\na(1) = w(1)\nend\n",
        )
        .unwrap();
        let u = p.unit("s").unwrap();
        let a = u.find_symbol("a").unwrap();
        assert_eq!(u.symbol(a).placement, Placement::Global);
        let w = u.find_symbol("w").unwrap();
        assert_eq!(u.symbol(w).placement, Placement::Cluster);
    }
}
