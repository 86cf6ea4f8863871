//! Layer probes: each layer's public functions called directly, one
//! span per call, on fixed inputs (the 22-program pool) or inputs made
//! from the seed. Every traced run takes all of them, whichever
//! workload it traces, so a layer's numbers do not depend on which
//! workload asked for them.
//!
//! Unlike the library, this file reaches below the crate roots
//! (`interproc::summarize`, `run_collecting_races_precompiled`,
//! `Engine::Interp`, `Store`, `engine::handle`).

use cedar_benchmark::harness::{metric, Check, Metric};
use cedar_benchmark::inputs::{self, PoolEntry};
use cedar_benchmark::paper;
use cedar_benchmark::spans::{totals_by_name, Span, Tracer};
use cedar_benchmark::stats::median;
use cedar_benchmark::workloads::{compile_corpus, serve, validate_pool, PaperSuite};
use cedar_benchmark::JOBS;
use cedar_ir::{Program, Stmt};
use cedar_restructure::{restructure, BackendKind, LoopDecision};
use cedar_serve::{http, Breaker, Json, ServeRequest};
use cedar_sim::{Engine, ExecStats, FaultConfig, MachineConfig};
use cedar_store::Store;
use cedar_verify::{first_bit_diff, first_diff, restructure_validated, Snapshot};
use std::time::Duration;

/// Probe spans whose summed duration is reported as `<name>_s`.
const TIMED_SPANS: &[&str] = &[
    "f77.parse",
    "ir.lower",
    "ir.print",
    "analysis.summarize",
    "analysis.depend",
    "core.restructure",
    "core.emit_cedar",
    "core.emit_openmp",
    "core.emit_serial",
    "sim.compile",
    "sim.serial_run",
    "sim.parallel_run",
    "sim.parallel_run_interp",
    "sim.parallel_run_nofast",
    "sim.race_run",
    "sim.fault_run",
    "verify.reference",
    "verify.restructure",
    "verify.race_run",
    "verify.compare",
    "verify.backends",
    "experiments.table1",
    "experiments.table2",
    "experiments.fig6",
    "experiments.fig7",
    "experiments.fig8",
    "experiments.fig9",
    "experiments.ablation",
    "fuzz.gen",
];

/// Collects what the probes measure.
struct Probes {
    metrics: Vec<Metric>,
    check: Check,
}

fn count_stmts(p: &Program) -> usize {
    let mut n = 0;
    for u in &p.units {
        cedar_ir::visit::walk_stmts(&u.body, &mut |_| n += 1);
    }
    n
}

fn watched(sim: &cedar_sim::Simulator<'_>, watch: &[&str]) -> Snapshot {
    watch
        .iter()
        .filter_map(|w| sim.read_f64(w).map(|v| (w.to_string(), v)))
        .collect()
}

fn p50_of(spans: &[Span], name: &str, scale: f64) -> f64 {
    let xs: Vec<f64> = spans
        .iter()
        .filter(|s| s.name == name)
        .map(|s| s.duration_ns() as f64 * scale)
        .collect();
    if xs.is_empty() {
        f64::NAN
    } else {
        median(&xs)
    }
}

fn compiled(p: &PoolEntry) -> Program {
    cedar_ir::compile_source(&p.source)
        .unwrap_or_else(|e| panic!("pool program {} does not compile: {e}", p.name))
}

/// Run every probe; returns the per-layer metrics, the probe spans and
/// the invariants checked on the way.
pub fn run(seed: u64) -> (Vec<Metric>, Vec<Span>, Check) {
    let t = Tracer::on();
    let mut p = Probes {
        metrics: Vec::new(),
        check: Check::default(),
    };
    let pool = inputs::pool();
    let lines = p.compiler(&t, seed);
    p.analysis(&t, &pool);
    let events = p.simulator(&t, seed, &pool);
    p.validator(&t, seed);
    p.store(&t);
    p.service(&t, seed);
    p.experiments(&t);

    let spans = t.take();
    let totals = totals_by_name(&spans);
    let total_s = |name: &str| totals.get(name).map_or(f64::NAN, |t| t.total_s);
    for name in TIMED_SPANS {
        p.metrics
            .push(metric(format!("{name}_s"), total_s(name), "s"));
    }
    p.push("f77.lines_per_s", lines / total_s("f77.parse"), "lines/s");
    p.push(
        "sim.host_ns_per_event",
        total_s("sim.parallel_run") * 1e9 / events,
        "ns",
    );
    // One perturbation seed's share of the seed phase, which ran its
    // seeds on JOBS threads as `restructure_validated` does.
    let seeds_s = total_s("verify.seed_runs");
    p.push(
        "verify.seed_run_s",
        seeds_s / validate_pool::SEEDS as f64,
        "s",
    );
    let parts = [
        "verify.reference",
        "verify.restructure",
        "verify.race_run",
        "verify.compare",
    ]
    .iter()
    .map(|n| total_s(n))
    .sum::<f64>()
        + seeds_s;
    p.push(
        "verify.unattributed_s",
        total_s("verify.restructure_validated") - parts,
        "s",
    );
    p.push("store.put_us_p50", p50_of(&spans, "store.put", 1e-3), "us");
    p.push("store.get_us_p50", p50_of(&spans, "store.get", 1e-3), "us");
    p.push("store.open_ms", total_s("store.open") * 1e3, "ms");
    p.push(
        "serve.json_parse_us_p50",
        p50_of(&spans, "serve.json_parse", 1e-3),
        "us",
    );
    let engine_ms = p50_of(&spans, "serve.engine_handle", 1e-6);
    p.push("serve.engine_ms_p50", engine_ms, "ms");
    p.push(
        "serve.overhead_ms_p50",
        p50_of(&spans, "serve.post", 1e-6) - engine_ms,
        "ms",
    );
    p.push("serve.restart_ms", total_s("serve.restart") * 1e3, "ms");
    p.push(
        "experiments.warm_iter_s",
        total_s("experiments.warm_iteration"),
        "s",
    );
    p.push(
        "par.suite_speedup",
        total_s("experiments.iteration_1job") / total_s("experiments.iteration"),
        "time-ratio",
    );
    (p.metrics, spans, p.check)
}

impl Probes {
    fn push(&mut self, name: &str, value: f64, unit: &'static str) {
        self.metrics.push(metric(name, value, unit));
    }

    /// f77, ir, core and the generator: one pass over the corpus
    /// `compile_corpus` runs on. Returns the source lines parsed.
    fn compiler(&mut self, t: &Tracer, seed: u64) -> f64 {
        let corpus = t.span("fuzz.gen", 0, || compile_corpus::corpus(seed));
        let (mut lines, mut stmts_in, mut stmts_out) = (0, 0, 0);
        let (mut parallel, mut serial, mut techniques) = (0, 0, 0);
        let mut bytes = [0; 3];
        for (k, src) in corpus.iter().enumerate() {
            let c = match compile_corpus::compile_one(t, k as u32, src) {
                Ok(c) => c,
                Err(e) => {
                    self.check.record(Some(format!("corpus program {k}: {e}")));
                    continue;
                }
            };
            t.span("ir.print", k as u32, || {
                cedar_ir::print::print_program(&c.program)
            });
            lines += c.source_lines;
            stmts_in += count_stmts(&c.program);
            stmts_out += count_stmts(&c.restructured.program);
            for l in &c.restructured.report.loops {
                match l.decision {
                    LoopDecision::Serial { .. } => serial += 1,
                    _ => parallel += 1,
                }
                techniques += l.techniques.len();
            }
            for (b, e) in bytes.iter_mut().zip(&c.emissions) {
                *b += e.len();
            }
        }
        self.push("f77.source_lines", lines as f64, "lines");
        self.push("ir.stmts_in", stmts_in as f64, "count");
        self.push("core.stmts_out", stmts_out as f64, "count");
        self.push("core.decisions.parallel", parallel as f64, "count");
        self.push("core.decisions.serial", serial as f64, "count");
        self.push("core.techniques_applied", techniques as f64, "count");
        for (kind, b) in BackendKind::all().iter().zip(bytes) {
            self.push(
                &format!("core.emit_bytes.{}", kind.name()),
                b as f64,
                "bytes",
            );
        }
        lines as f64
    }

    /// analysis: interprocedural summaries and the carried-dependence
    /// test on every loop of the pool. `core.restructure` contains this
    /// work; here it is called directly.
    fn analysis(&mut self, t: &Tracer, pool: &[PoolEntry]) {
        fn walk(
            t: &Tracer,
            unit: &cedar_ir::Unit,
            body: &[Stmt],
            summaries: &cedar_analysis::interproc::ProgramSummaries,
            counts: &mut (usize, usize),
        ) {
            for s in body {
                match s {
                    Stmt::Loop(l) => {
                        let deps = t.span("analysis.depend", counts.0 as u32, || {
                            cedar_analysis::depend::analyze_loop(unit, l, Some(summaries))
                        });
                        counts.0 += 1;
                        counts.1 += deps.deps.len();
                        walk(t, unit, &l.body, summaries, counts);
                    }
                    Stmt::If {
                        then_body,
                        elifs,
                        else_body,
                        ..
                    } => {
                        walk(t, unit, then_body, summaries, counts);
                        for (_, b) in elifs {
                            walk(t, unit, b, summaries, counts);
                        }
                        walk(t, unit, else_body, summaries, counts);
                    }
                    _ => {}
                }
            }
        }
        let mut counts = (0, 0);
        for (k, p) in pool.iter().enumerate() {
            let program = compiled(p);
            let summaries = t.span("analysis.summarize", k as u32, || {
                cedar_analysis::interproc::summarize(&program)
            });
            for unit in &program.units {
                walk(t, unit, &unit.body, &summaries, &mut counts);
            }
        }
        self.push("analysis.loops", counts.0 as f64, "count");
        self.push("analysis.deps", counts.1 as f64, "count");
    }

    /// sim: one pass over the pool, every way the other layers run the
    /// simulator, plus the exact event counts of the plain parallel run.
    fn simulator(&mut self, t: &Tracer, seed: u64, pool: &[PoolEntry]) -> f64 {
        let mc = MachineConfig::cedar_config1_scaled().with_engine(Engine::Vm);
        let (mut cycles_serial, mut cycles_parallel) = (0.0, 0.0);
        let mut sum = ExecStats::default();
        for (k, p) in pool.iter().enumerate() {
            let k = k as u32;
            let program = compiled(p);
            let candidate = restructure(&program, &p.cfg).program;
            let artifact = t.span("sim.compile", k, || cedar_sim::compile(&candidate));

            let serial = t
                .span("sim.serial_run", k, || cedar_sim::run(&program, mc.clone()))
                .unwrap_or_else(|e| panic!("{} serial run: {e}", p.name));
            cycles_serial += serial.cycles();

            let parallel = t
                .span("sim.parallel_run", k, || {
                    cedar_sim::run_precompiled(&candidate, mc.clone(), &artifact)
                })
                .unwrap_or_else(|e| panic!("{} parallel run: {e}", p.name));
            cycles_parallel += parallel.cycles();
            let s = &parallel.stats;
            sum.scalar_ops += s.scalar_ops;
            sum.vector_elems += s.vector_elems;
            sum.private_accesses += s.private_accesses;
            sum.cluster_accesses += s.cluster_accesses;
            sum.global_scalar_accesses += s.global_scalar_accesses;
            sum.global_vector_elems += s.global_vector_elems;
            sum.prefetched_elems += s.prefetched_elems;
            sum.parallel_iterations += s.parallel_iterations;
            sum.awaits += s.awaits;
            sum.lock_acquisitions += s.lock_acquisitions;
            sum.await_stall_cycles += s.await_stall_cycles;
            sum.lock_stall_cycles += s.lock_stall_cycles;

            // The same program on the tree-walker, without the fast
            // paths, under the race detector and under a legal fault
            // schedule; the first three must not move a single cycle.
            let variants = [
                (
                    "sim.parallel_run_interp",
                    mc.clone().with_engine(Engine::Interp),
                    0,
                ),
                (
                    "sim.parallel_run_nofast",
                    mc.clone().without_fast_paths(),
                    0,
                ),
                ("sim.race_run", mc.clone(), 1),
                ("sim.fault_run", mc.clone(), 2),
            ];
            for (name, vmc, mode) in variants {
                let sim = t
                    .span(name, k, || match mode {
                        0 => cedar_sim::run_precompiled(&candidate, vmc, &artifact),
                        1 => {
                            cedar_sim::run_collecting_races_precompiled(&candidate, vmc, &artifact)
                        }
                        _ => cedar_sim::run_with_faults_precompiled(
                            &candidate,
                            vmc,
                            FaultConfig::legal(seed + 1),
                            &artifact,
                        ),
                    })
                    .unwrap_or_else(|e| panic!("{} {name}: {e}", p.name));
                if mode < 2 {
                    self.check.record(
                        (sim.cycles().to_bits() != parallel.cycles().to_bits()).then(|| {
                            format!(
                                "{}: {name} ran {} cycles, the plain run {}",
                                p.name,
                                sim.cycles(),
                                parallel.cycles()
                            )
                        }),
                    );
                }
            }
        }
        self.push("sim.cycles_serial", cycles_serial, "cycles");
        self.push("sim.cycles_parallel", cycles_parallel, "cycles");
        for (name, v) in [
            ("sim.scalar_ops", sum.scalar_ops),
            ("sim.vector_elems", sum.vector_elems),
            ("sim.private_accesses", sum.private_accesses),
            ("sim.cluster_accesses", sum.cluster_accesses),
            ("sim.global_scalar_accesses", sum.global_scalar_accesses),
            ("sim.global_vector_elems", sum.global_vector_elems),
            ("sim.prefetched_elems", sum.prefetched_elems),
            ("sim.parallel_iterations", sum.parallel_iterations),
            ("sim.awaits", sum.awaits),
            ("sim.lock_acquisitions", sum.lock_acquisitions),
        ] {
            self.push(name, v as f64, "count");
        }
        self.push("sim.await_stall_cycles", sum.await_stall_cycles, "cycles");
        self.push("sim.lock_stall_cycles", sum.lock_stall_cycles, "cycles");
        // Returns the simulated events of the plain parallel pass, which
        // `sim.host_ns_per_event` divides that pass's host time by.
        let events = sum.scalar_ops
            + sum.vector_elems
            + sum.private_accesses
            + sum.cluster_accesses
            + sum.global_scalar_accesses
            + sum.global_vector_elems;
        events as f64
    }

    /// verify: `restructure_validated` over `validate_pool`'s programs,
    /// then its steps replayed one by one through the public calls it
    /// makes, and the three-backend comparison.
    fn validator(&mut self, t: &Tracer, seed: u64) {
        let mc = MachineConfig::cedar_config1_scaled();
        let vcfg = validate_pool::validation(seed);
        let subjects = validate_pool::subjects();

        let (mut attempts, mut fallbacks, mut seed_runs, mut identical) = (0, 0, 0, 0);
        for (k, s) in subjects.iter().enumerate() {
            let v = t.span("verify.restructure_validated", k as u32, || {
                restructure_validated(&s.program, &s.cfg, &mc, &s.watch(), &vcfg)
            });
            if let Ok(v) = v {
                attempts += v.validation.attempts;
                fallbacks += v.validation.fallbacks.len();
                seed_runs += v.validation.seed_runs.len();
                identical += v
                    .validation
                    .seed_runs
                    .iter()
                    .filter(|r| r.bit_identical)
                    .count();
            }
        }
        self.push("verify.attempts", attempts as f64, "count");
        self.push("verify.fallbacks", fallbacks as f64, "count");
        self.push(
            "verify.bit_identical_share",
            identical as f64 / seed_runs.max(1) as f64,
            "share",
        );

        // The replay. The negatives are left to `unattributed_s`: what
        // they cost is the fallback loop, which has no public parts.
        let mut races = 0;
        for (k, s) in subjects.iter().enumerate() {
            let k = k as u32;
            let watch = s.watch();
            let candidate = t
                .span("verify.restructure", k, || restructure(&s.program, &s.cfg))
                .program;
            let artifact = cedar_sim::compile(&candidate);
            if s.racy {
                // Only the count of races on the first candidate.
                if let Ok(sim) =
                    cedar_sim::run_collecting_races_precompiled(&candidate, mc.clone(), &artifact)
                {
                    races += sim.races_detected();
                }
                continue;
            }
            let reference = t.span("verify.reference", k, || {
                let sim = cedar_sim::run(&s.program, mc.clone().with_engine(Engine::Interp))
                    .unwrap_or_else(|e| panic!("{} reference: {e}", s.name));
                watched(&sim, &watch)
            });
            let base = t.span("verify.race_run", k, || {
                let sim =
                    cedar_sim::run_collecting_races_precompiled(&candidate, mc.clone(), &artifact)
                        .unwrap_or_else(|e| panic!("{} race run: {e}", s.name));
                races += sim.races_detected();
                watched(&sim, &watch)
            });
            let diff = t.span("verify.compare", k, || {
                first_diff(&reference, &base, vcfg.rel_tol)
            });
            self.check
                .record(diff.map(|d| format!("{}: replayed candidate differs at {d}", s.name)));
            let diffs = t.span("verify.seed_runs", k, || {
                let parent = t.current();
                cedar_par::par_map(vcfg.seeds.clone(), |seed| {
                    t.span_under(parent, "verify.seed_run", k, || {
                        let sim = cedar_sim::run_with_faults_precompiled(
                            &candidate,
                            mc.clone(),
                            FaultConfig::legal(seed),
                            &artifact,
                        )
                        .unwrap_or_else(|e| panic!("{} seed {seed}: {e}", s.name));
                        let got = watched(&sim, &watch);
                        // Both comparisons, as the validator makes them.
                        let _ = first_bit_diff(&base, &got);
                        first_diff(&base, &got, vcfg.rel_tol)
                    })
                })
            });
            for d in diffs {
                self.check
                    .record(d.map(|d| format!("{}: a perturbed run differs at {d}", s.name)));
            }
        }
        self.push("verify.races_found", races as f64, "count");

        // Generated-code quality per backend: the comparator's cycle
        // counts against a direct serial run of the input.
        let mut log_speedup = [0.0; 3];
        let pool = inputs::pool();
        for (k, p) in pool.iter().enumerate() {
            let program = compiled(p);
            let serial = cedar_sim::run(&program, mc.clone())
                .unwrap_or_else(|e| panic!("{} serial run: {e}", p.name))
                .cycles();
            let cmp = t.span("verify.backends", k as u32, || {
                cedar_verify::compare_backends(&program, &p.cfg, &mc, &p.watch, vcfg.rel_tol)
            });
            match cmp {
                Ok(cmp) if cmp.agree() => {
                    self.check.record(None);
                    for (sum, kind) in log_speedup.iter_mut().zip(BackendKind::all()) {
                        *sum += (serial / cmp.run(kind).cycles.unwrap_or(f64::NAN)).ln();
                    }
                }
                Ok(cmp) => self
                    .check
                    .record(Some(format!("{}: backends disagree:\n{cmp}", p.name))),
                Err(e) => self.check.record(Some(format!("{}: {e}", p.name))),
            }
        }
        for (sum, kind) in log_speedup.iter().zip(BackendKind::all()) {
            let geomean = (sum / pool.len() as f64).exp();
            self.push(
                &format!("sim.speedup_geomean.{}", kind.name()),
                geomean,
                "x",
            );
        }
    }

    /// store: open, put, get and one miss on a fresh store.
    fn store(&mut self, t: &Tracer) {
        const ENTRIES: u64 = 256;
        let dir = serve::scratch_dir("store_probe");
        let store = t
            .span("store.open", 0, || Store::open(dir.join("store")))
            .unwrap_or_else(|e| panic!("store open: {e}"));
        let payload = |k: u64| -> Vec<u8> { (0..4096u64).map(|b| (b * 31 + k) as u8).collect() };
        for k in 0..ENTRIES {
            let bytes = payload(k);
            let put = t.span("store.put", k as u32, || store.put(k, &bytes));
            self.check
                .record(put.err().map(|e| format!("store put {k}: {e}")));
        }
        for k in 0..ENTRIES {
            let got = t.span("store.get", k as u32, || store.get(k));
            self.check
                .record((got != Some(payload(k))).then(|| format!("store get {k}: wrong bytes")));
        }
        self.check.record(
            store
                .get(ENTRIES)
                .is_some()
                .then(|| "store: hit on a missing key".to_string()),
        );
        let stats = store.stats();
        let bytes = store.total_bytes();
        drop(store);
        let _ = std::fs::remove_dir_all(&dir);
        self.push("store.hits", stats.hits as f64, "count");
        self.push("store.misses", stats.misses as f64, "count");
        self.push("store.puts", stats.puts as f64, "count");
        self.push("store.bytes", bytes as f64, "bytes");
        self.push(
            "store.corrupt_recovered",
            stats.corrupt_recovered as f64,
            "count",
        );
    }

    /// serve: the same requests through `engine::handle` directly and
    /// through a server from one client, so that the difference is the
    /// service's own overhead; then a restart on the filled store.
    fn service(&mut self, t: &Tracer, seed: u64) {
        const REQUESTS: u64 = 60;
        let bodies: Vec<String> = (0..REQUESTS)
            .map(|i| inputs::request_body(seed, 800_000 + i))
            .collect();
        self.push(
            "serve.request_bytes",
            bodies.iter().map(String::len).sum::<usize>() as f64,
            "bytes",
        );

        let requests: Vec<ServeRequest> = bodies
            .iter()
            .enumerate()
            .map(|(k, b)| {
                let json = t.span("serve.json_parse", k as u32, || Json::parse(b));
                ServeRequest::from_json(&json.expect("request bodies are JSON"))
                    .expect("request bodies are requests")
            })
            .collect();

        cedar_experiments::cache::clear();
        let dir = serve::scratch_dir("serve_probe");
        let server = serve::start_server(&dir);
        let addr = server.addr();
        let mut response_bytes = 0;
        for (k, body) in bodies.iter().enumerate() {
            let reply = t.span("serve.post", k as u32, || {
                http::post(&addr, "/restructure", body, Duration::from_secs(120))
            });
            match reply {
                // Without the `service` block, whose `duration_ms` makes
                // the length vary from run to run.
                Ok((200, body)) => {
                    response_bytes += body.find("\"service\":").unwrap_or(body.len())
                }
                other => self
                    .check
                    .record(Some(format!("probe request {k}: {other:?}"))),
            }
        }
        self.push("serve.response_bytes", response_bytes as f64, "bytes");
        let metrics = http::get(&addr, "/metrics", Duration::from_secs(10))
            .ok()
            .and_then(|(_, body)| Json::parse(&body).ok());
        for name in ["accepted", "shed", "coalesced", "recovered", "quarantined"] {
            let v = metrics
                .as_ref()
                .and_then(|m| m.get(name))
                .and_then(Json::as_f64);
            self.push(&format!("serve.{name}"), v.unwrap_or(f64::NAN), "count");
        }
        let server = t.span("serve.restart", 0, || {
            server.shutdown();
            serve::start_server(&dir)
        });
        server.shutdown();
        let _ = std::fs::remove_dir_all(&dir);

        cedar_experiments::cache::clear();
        let engine = cedar_serve::EngineConfig::default();
        let breaker = Breaker::new(3, Duration::from_secs(5));
        for (k, req) in requests.iter().enumerate() {
            let handled = t.span("serve.engine_handle", k as u32, || {
                cedar_serve::handle(req, &engine, &breaker)
            });
            self.check.record(
                (handled.status != 200).then(|| format!("engine request {k}: {}", handled.body)),
            );
        }
    }

    /// experiments and par: one cold iteration of `paper_suite` on
    /// [`JOBS`] threads (its artifacts are the `experiments.*_s`
    /// spans), one on a single thread, and one warm.
    fn experiments(&mut self, t: &Tracer) {
        let mut suite = PaperSuite { tables: None };
        cedar_experiments::cache::clear();
        cedar_par::with_jobs(1, || {
            t.span("experiments.iteration_1job", 0, || {
                suite.artifacts(&Tracer::off())
            })
        });
        cedar_experiments::cache::clear();
        t.span("experiments.iteration", 0, || suite.artifacts(t));
        let sizes = cedar_experiments::cache::sizes();
        t.span("experiments.warm_iteration", 0, || {
            suite.artifacts(&Tracer::off())
        });
        let (t1, t2) = suite.tables.as_ref().expect("artifacts ran");
        let f = paper::fidelity(t1, t2);
        self.push("par.jobs", JOBS as f64, "count");
        self.push(
            "experiments.cache_entries",
            (sizes.0 + sizes.1 + sizes.2 + sizes.3) as f64,
            "count",
        );
        self.push("experiments.table1_log_err", f.table1_log_err, "ln-ratio");
        self.push("experiments.table2_log_err", f.table2_log_err, "ln-ratio");
    }
}
