//! Microbenchmarks of the pipeline's stages: front end, dependence
//! analysis, restructuring passes, and the simulator's interpreter
//! throughput. These guard the tool itself (wall-clock), not the
//! simulated machine.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use std::hint::black_box;

use cedar_restructure::{BackendKind, EmitInput, PassConfig};
use cedar_sim::{Engine, MachineConfig};

fn front_end(c: &mut Criterion) {
    let src = cedar_workloads::linalg::cg(128).source;
    let mut g = c.benchmark_group("front-end");
    g.throughput(Throughput::Bytes(src.len() as u64));
    g.bench_function("parse-cg", |b| {
        b.iter(|| black_box(cedar_f77::parse_source(&src).unwrap()))
    });
    g.bench_function("parse+lower-cg", |b| {
        b.iter(|| black_box(cedar_ir::compile_source(&src).unwrap()))
    });
    let pool = pool();
    g.throughput(Throughput::Bytes(pool.iter().map(|w| w.source.len() as u64).sum()));
    g.bench_function("parse-pool", |b| {
        b.iter(|| {
            for w in &pool {
                black_box(cedar_f77::parse_source(&w.source).unwrap());
            }
        })
    });
    g.finish();
}

/// The 22 paper workloads.
fn pool() -> Vec<cedar_workloads::Workload> {
    let mut pool = cedar_workloads::table1_workloads();
    pool.extend(cedar_workloads::table2_workloads());
    pool
}

fn emission(c: &mut Criterion) {
    // Restructure once; time only the printing of each backend.
    let cfg = PassConfig::manual_improved();
    let compiled: Vec<_> = pool()
        .iter()
        .map(|w| {
            let p = w.compile();
            let r = cedar_restructure::restructure(&p, &cfg);
            (p, r)
        })
        .collect();
    let mut g = c.benchmark_group("emission");
    for kind in BackendKind::all() {
        let backend = kind.backend();
        g.bench_function(&format!("emit-pool-{kind}"), |b| {
            b.iter(|| {
                for (p, r) in &compiled {
                    let input =
                        EmitInput { original: p, restructured: &r.program, report: &r.report };
                    black_box(backend.emit(&input));
                }
            })
        });
    }
    g.finish();
}

fn analysis(c: &mut Criterion) {
    let p = cedar_workloads::linalg::ludcmp(64).compile();
    let unit = p.unit("ludcmp").unwrap().clone();
    let l = unit
        .body
        .iter()
        .find_map(|s| s.as_loop())
        .unwrap()
        .clone();
    let mut g = c.benchmark_group("analysis");
    g.bench_function("dependence-ludcmp-kloop", |b| {
        b.iter(|| black_box(cedar_analysis::depend::analyze_loop(&unit, &l, None).deps.len()))
    });
    g.bench_function("reductions-ludcmp-kloop", |b| {
        b.iter(|| black_box(cedar_analysis::reduction::find_reductions(&l).len()))
    });
    g.finish();
}

fn restructurer(c: &mut Criterion) {
    let p = cedar_workloads::perfect::mdg().compile();
    let mut g = c.benchmark_group("restructurer");
    g.bench_function("automatic-mdg", |b| {
        b.iter(|| {
            black_box(
                cedar_restructure::restructure(&p, &PassConfig::automatic_1991())
                    .report
                    .loops
                    .len(),
            )
        })
    });
    g.bench_function("manual-mdg", |b| {
        b.iter(|| {
            black_box(
                cedar_restructure::restructure(&p, &PassConfig::manual_improved())
                    .report
                    .loops
                    .len(),
            )
        })
    });
    g.finish();
}

fn simulator(c: &mut Criterion) {
    // Interpreter throughput on a serial scalar kernel and on a
    // vector-heavy kernel.
    let scalar = cedar_ir::compile_source(
        "
      PROGRAM S
      PARAMETER (N = 256)
      REAL A(N, N), CHKSUM
      DO 20 J = 1, N
        DO 10 I = 1, N
          A(I, J) = REAL(I) * 0.5 + REAL(J)
   10   CONTINUE
   20 CONTINUE
      CHKSUM = A(N, N)
      END
",
    )
    .unwrap();
    let vector = cedar_ir::compile_source(
        "
      PROGRAM V
      PARAMETER (N = 65536)
      REAL A(N), B(N), CHKSUM
      B(1:N) = 0.5
      A(1:N) = B(1:N) * 2.0 + 1.0
      CHKSUM = A(N)
      END
",
    )
    .unwrap();
    let mut g = c.benchmark_group("simulator");
    g.throughput(Throughput::Elements(256 * 256));
    // The same scalar nest on the tree-walker and on the bytecode VM,
    // back to back: CI's vm-smoke job fails unless the second is the
    // cheaper per statement.
    for (id, engine) in [
        ("scalar-interpret-64k-stmts", Engine::Interp),
        ("scalar-vm-64k-stmts", Engine::Vm),
    ] {
        g.bench_function(id, |b| {
            b.iter(|| {
                black_box(
                    cedar_sim::run(&scalar, MachineConfig::cedar_config1().with_engine(engine))
                        .unwrap()
                        .cycles(),
                )
            })
        });
    }
    g.throughput(Throughput::Elements(65536));
    g.bench_function("vector-interpret-64k-lanes", |b| {
        b.iter(|| {
            black_box(
                cedar_sim::run(&vector, MachineConfig::cedar_config1())
                    .unwrap()
                    .cycles(),
            )
        })
    });
    // One vector statement, many times over: the inner statement of
    // `ludcmp`/`gaussj` at 64 lanes (three stream loads, two vector
    // ops, one stream store). Throughput is statements, so ns per
    // statement is the time over `VECTOR_STMTS`; the two engines share
    // the implementation and must read alike. CI's vm-smoke job holds
    // the default engine to a third of what boxed lanes cost (3039 ns).
    let stmt = cedar_ir::compile_source(&vector_stmt_source(64)).unwrap();
    g.throughput(Throughput::Elements(VECTOR_STMTS));
    for (id, engine) in [
        ("vector-stmt-64-lanes", Engine::Vm),
        ("vector-stmt-64-lanes-interp", Engine::Interp),
    ] {
        g.bench_function(id, |b| {
            b.iter(|| {
                black_box(
                    cedar_sim::run(&stmt, MachineConfig::cedar_config1().with_engine(engine))
                        .unwrap()
                        .cycles(),
                )
            })
        });
    }
    g.finish();
}

/// Executions of the statement in [`vector_stmt_source`].
const VECTOR_STMTS: u64 = 64 * 127;

/// `a(lo:128, j) = a(lo:128, j) - a(lo:128, 1) * a(1, j)` over `lanes`
/// lanes, `VECTOR_STMTS` times.
fn vector_stmt_source(lanes: usize) -> String {
    format!(
        "
      PROGRAM V
      PARAMETER (N = 128)
      REAL A(N, N)
      LO = N - {lanes} + 1
      A(1:N, 1) = 0.5
      DO 30 K = 1, 64
        DO 20 J = 2, N
          A(LO:N, J) = A(LO:N, J) - A(LO:N, 1) * A(1, J)
   20   CONTINUE
   30 CONTINUE
      END
"
    )
}

criterion_group!(benches, front_end, emission, analysis, restructurer, simulator);
criterion_main!(benches);
