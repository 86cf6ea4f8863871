//! How much of the pool's serial originals the bytecode VM runs as
//! typed register code — counted, not assumed (DESIGN.md §14).
//!
//! Two deterministic counts per program: expression sites the compiler
//! boxed behind `EvalTree` and statements it left to `Interp`. Both are
//! pinned at zero for all 22 serial originals, and an independent walk
//! of the IR checks the rule behind the pin: nothing is boxed unless it
//! contains a function call, a reduction, `iota` or a section. A third
//! count, taken from a run, pins that no activation was handed back to
//! the tree-walker for a binding of another type than declared.
//!
//! The restructured programs are vector statements, which both engines
//! hand to the one shared implementation; there the count is of how
//! each section was resolved to element indices: as an arithmetic
//! progression (no index list) or through a list. A one-range section
//! must never build a list under the default configuration. The same
//! runs pin that neither the fast paths nor the engine moves a cycle
//! of any of the 22 restructured programs.
//!
//! The serial originals' static instruction mix is pinned as well, and
//! searched for the two shapes the compiler fuses: an INTEGER variable
//! as a subscript, and a sequential loop the dispatch loop runs itself.
//!
//! `cargo test -p cedar-workloads --test vm_coverage -- --nocapture`
//! prints the tables (CI's vm-smoke job does).

use cedar_ir::visit::{walk_expr, walk_stmts};
use cedar_ir::{Expr, Intrinsic, LoopClass, Stmt};
use cedar_sim::{Engine, MachineConfig};
use cedar_workloads::{table1_workloads, table2_workloads};

/// Sites the typed ops cannot compute: those containing a function
/// call, a reduction or `iota`, or a section.
fn boxable_sites(p: &cedar_ir::Program) -> usize {
    let mut sites = 0;
    for unit in &p.units {
        walk_stmts(&unit.body, &mut |s| {
            if matches!(s, Stmt::Call { .. }) {
                // Actual arguments are bound by `invoke`, not compiled.
                return;
            }
            let mut tops: Vec<&Expr> = Vec::new();
            match s {
                Stmt::Assign { lhs, rhs, .. } => {
                    if let cedar_ir::LValue::Elem { idx, .. } = lhs {
                        tops.extend(idx);
                    }
                    tops.push(rhs);
                }
                Stmt::If { cond, elifs, .. } => {
                    tops.push(cond);
                    tops.extend(elifs.iter().map(|(c, _)| c));
                }
                Stmt::DoWhile { cond, .. } => tops.push(cond),
                Stmt::Loop(l) => {
                    tops.extend([&l.start, &l.end]);
                    tops.extend(&l.step);
                }
                _ => {}
            }
            for e in tops {
                let mut plain = true;
                walk_expr(e, &mut |n| match n {
                    Expr::Call { .. } | Expr::Section { .. } => plain = false,
                    Expr::Intr { f, .. } if f.is_reduction() || *f == Intrinsic::Iota => {
                        plain = false
                    }
                    _ => {}
                });
                sites += !plain as usize;
            }
        });
    }
    sites
}

#[test]
fn serial_originals_compile_and_run_as_typed_code() {
    println!(
        "{:<8} {:>6} {:>10} {:>12} {:>12} {:>10} {:>10} {:>10}",
        "program",
        "instrs",
        "eval-trees",
        "interp-stmts",
        "tree-walked",
        "iters",
        "kernel",
        "lanes"
    );
    let (mut iterations, mut kernels, mut lanes) = (0, 0, 0);
    for w in table1_workloads().into_iter().chain(table2_workloads()) {
        let p = w.compile();
        let art = cedar_sim::compile(&p);
        let mc = MachineConfig::cedar_config1().with_engine(Engine::Vm);
        let sim = cedar_sim::run_precompiled(&p, mc, &art).expect("serial original runs");
        let (inline, kernel, lane) = sim.kernel_iterations();
        println!(
            "{:<8} {:>6} {:>10} {:>12} {:>12} {:>10} {:>10} {:>10}",
            w.name,
            art.instr_count(),
            art.eval_tree_count(),
            art.fallback_count(),
            sim.tree_walked_activations(),
            inline,
            kernel,
            lane
        );
        iterations += inline;
        kernels += kernel;
        lanes += lane;
        assert!(
            art.eval_tree_count() <= boxable_sites(&p),
            "{}: an expression over plain scalars, constants, elements and elemental \
             intrinsics was boxed",
            w.name
        );
        // The pins. A workload that gains a function call or a vector
        // statement moves them on purpose: update the number here and
        // the table in EXPERIMENTS.md ("Engine split").
        assert_eq!(art.eval_tree_count(), 0, "{}: EvalTree sites", w.name);
        assert_eq!(art.fallback_count(), 0, "{}: Interp statements", w.name);
        assert_eq!(sim.tree_walked_activations(), 0, "{}: tree-walked activations", w.name);
    }
    // Iterations of the sequential loops the VM runs inline, how many
    // of them ran as loop kernels, and how many of those as lanes
    // (DESIGN.md §14, "Loop kernels"). A change that knocks loops off
    // the kernel moves the second, one that refuses batches as lanes the
    // third; one that moves any updates them here and in EXPERIMENTS.md
    // ("Straight-line loops as kernels", "Lane batches").
    let share = kernels as f64 / iterations as f64;
    let lane_share = lanes as f64 / kernels as f64;
    println!(
        "{:<8} {iterations:>55} {kernels:>10} {lanes:>10} ({:.1} % as kernels, {:.1} % of them as lanes)",
        "total",
        100.0 * share,
        100.0 * lane_share
    );
    assert_eq!((iterations, kernels, lanes), (3_934_056, 3_884_568, 3_771_682));
}

/// The columns of the instruction-mix table: `ElemVar` and `Elem`
/// count all three classes.
const MIX: [&str; 8] =
    ["LoadIdx", "ElemVar", "Elem", "LoadI", "ChargeIdx", "SeqLoop", "LoopBack", "LoopStmt"];

#[test]
fn serial_originals_address_through_the_fused_forms() {
    // Static counts: instructions, then `MIX`. A subscript that is an
    // INTEGER variable is one `LoadIdx` (or part of an `ElemVar` load),
    // never `LoadI` + `ChargeIdx`; a sequential loop without locals, a
    // preamble or a postamble is a `SeqLoop` whose body ends in
    // `LoopBack`, every other loop a `LoopStmt`.
    let line = |name: &str, cells: Vec<String>| println!("{name:<8} {}", cells.join(" "));
    let counts = |row: &[usize]| row.iter().map(|n| format!("{n:>9}")).collect();
    line("program", ["instrs"].iter().chain(&MIX).map(|m| format!("{m:>9}")).collect());
    let mut totals = [0; MIX.len() + 1];
    for w in table1_workloads().into_iter().chain(table2_workloads()) {
        let p = w.compile();
        let names = cedar_sim::compile(&p).op_names();
        let mut row = [0; MIX.len() + 1];
        for (unit, ops) in p.units.iter().zip(&names) {
            row[0] += ops.len();
            for op in ops {
                let op = if op.starts_with("Elem") { &op[..op.len() - 1] } else { op.as_str() };
                if let Some(k) = MIX.iter().position(|&m| m == op) {
                    row[k + 1] += 1;
                }
            }
            for pair in ops.windows(2) {
                assert!(pair != ["LoadI", "ChargeIdx"], "{}: a subscript variable unfused", w.name);
            }
            let mut inline = Vec::new();
            walk_stmts(&unit.body, &mut |s| {
                if let Stmt::Loop(l) = s {
                    inline.push(
                        l.class == LoopClass::Seq
                            && l.locals.is_empty()
                            && l.preamble.is_empty()
                            && l.postamble.is_empty(),
                    );
                }
            });
            // Loops compile in the order the walk visits them.
            let entries: Vec<bool> = ops
                .iter()
                .filter(|op| *op == "SeqLoop" || *op == "LoopStmt")
                .map(|op| op == "SeqLoop")
                .collect();
            assert_eq!(entries, inline, "{}: {}", w.name, unit.name);
            let mut open = 0usize;
            for op in ops {
                match op.as_str() {
                    "SeqLoop" => open += 1,
                    "LoopBack" => open = open.checked_sub(1).expect("a LoopBack closes a SeqLoop"),
                    _ => {}
                }
            }
            assert_eq!(open, 0, "{}: {}: a SeqLoop without its LoopBack", w.name, unit.name);
        }
        line(w.name, counts(&row));
        for (t, n) in totals.iter_mut().zip(row) {
            *t += n;
        }
    }
    line("total", counts(&totals));
    // The pin. A workload or a compiler change that moves it updates the
    // number here and the table in EXPERIMENTS.md ("Fused scalar
    // addressing").
    assert_eq!(totals, [2368, 172, 184, 48, 174, 61, 188, 188, 0]);
}

#[test]
fn restructured_programs_resolve_one_range_sections_without_an_index_list() {
    use cedar_restructure::{restructure, PassConfig};
    println!(
        "{:<8} {:<9} {:>12} {:>18} {:>11}",
        "program", "passes", "progressions", "single-range lists", "other lists"
    );
    let (mut progressions, mut other) = (0, 0);
    for w in table1_workloads().into_iter().chain(table2_workloads()) {
        let configs = [
            ("automatic", PassConfig::automatic_1991()),
            ("manual", PassConfig::manual_improved()),
        ];
        for (passes, cfg) in configs {
            let p = restructure(&w.compile(), &cfg).program;
            let sim = cedar_sim::run(&p, MachineConfig::cedar_config1()).expect("candidate runs");
            let c = sim.section_counts();
            println!(
                "{:<8} {:<9} {:>12} {:>18} {:>11}",
                w.name, passes, c.progressions, c.single_range_lists, c.other_lists
            );
            // The pin: what can be a progression is one.
            assert_eq!(c.single_range_lists, 0, "{} ({passes})", w.name);
            // Without the fast paths every one of them is a list again,
            // and nothing else changes category.
            let slow_sim = cedar_sim::run(&p, MachineConfig::cedar_config1().without_fast_paths())
                .expect("candidate runs");
            let slow = slow_sim.section_counts();
            assert_eq!(
                (slow.progressions, slow.single_range_lists, slow.other_lists),
                (0, c.progressions, c.other_lists),
                "{} ({passes})",
                w.name
            );
            // Neither the fast paths nor the engine may move a cycle.
            let interp = MachineConfig::cedar_config1().with_engine(Engine::Interp);
            let walked = cedar_sim::run(&p, interp).expect("candidate runs");
            for (what, other) in [("fast paths off", &slow_sim), ("tree-walker", &walked)] {
                assert_eq!(
                    other.cycles().to_bits(),
                    sim.cycles().to_bits(),
                    "{} ({passes}): {what}",
                    w.name
                );
            }
            progressions += c.progressions;
            other += c.other_lists;
        }
    }
    println!("{:<18} {progressions:>12} {:>18} {other:>11}", "total", 0);
    assert!(progressions > 0, "the pool's candidates are vector statements");
}

#[test]
fn the_counts_see_what_falls_back() {
    // One of each: a function call (boxed site), a vector statement
    // (Interp), and an INTEGER actual behind a REAL dummy (the callee's
    // activation is tree-walked; the main program's is not).
    let p = cedar_ir::compile_free(
        "program p\nreal a(8)\ninteger n\nn = 3\na(1:8) = 1.0\nx = f(2.0) + a(n)\n\
         call g(n)\nend\nreal function f(v)\nf = v * 2.0\nend\n\
         subroutine g(v)\nreal v\nv = v + 1.0\nend\n",
    )
    .unwrap();
    let art = cedar_sim::compile(&p);
    assert_eq!((art.eval_tree_count(), art.fallback_count()), (1, 1));
    assert_eq!(boxable_sites(&p), 1, "only the call; the vector statement's sides are plain");
    let mc = MachineConfig::cedar_config1();
    let vm = cedar_sim::run_precompiled(&p, mc.clone().with_engine(Engine::Vm), &art).unwrap();
    assert_eq!(vm.tree_walked_activations(), 1);
    let interp = cedar_sim::run(&p, mc.with_engine(Engine::Interp)).unwrap();
    assert_eq!(interp.tree_walked_activations(), 0);
    assert_eq!(vm.cycles().to_bits(), interp.cycles().to_bits());
}
