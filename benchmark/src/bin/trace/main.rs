//! Traced runner: one workload with spans on, then every layer probe.
//!
//! `trace --workload NAME --seed N --seconds S` sets the workload up
//! once, runs it for a third of `S` with tracing off and again with
//! tracing on (the difference is the tracing overhead), runs the layer
//! probes of `probes.rs`, writes `benchmark/out/trace-NAME.json`, and
//! prints every per-layer metric as one JSON object on the last line
//! of stdout (and as a table on stderr).

mod probes;

use cedar_benchmark::harness::{self, metric, Metric, Workload};
use cedar_benchmark::reference::Reference;
use cedar_benchmark::spans::{self, Tracer};
use cedar_benchmark::{stats, with_workload};
use std::path::PathBuf;

/// Layers a workload's own spans can belong to; each gets a
/// `trace.self_share.<layer>` metric, zero where the workload bypasses
/// the layer.
const WORKLOAD_LAYERS: [&str; 6] = ["f77", "ir", "core", "verify", "experiments", "serve"];

/// Iterations each of the two short runs makes at least.
const MIN_ITERS: usize = 3;

fn run<W: Workload>(args: &harness::Args) {
    let mut reference = Reference::new();
    let (mut w, _, mut check) = harness::setup_repeated::<W>(args.seed, 1, &mut reference);
    let short = args.seconds / 3.0;
    let untraced = harness::timed_loop(&mut w, short, MIN_ITERS, &Tracer::off(), &mut reference);
    let tracer = Tracer::on();
    let traced = harness::timed_loop(&mut w, short, MIN_ITERS, &tracer, &mut reference);
    check.absorb(w.check());
    check.absorb(w.finish());
    let workload_spans = tracer.take();

    // The workload really bypasses the layers it claims to.
    let mut strangers: Vec<&str> = workload_spans
        .iter()
        .map(|s| s.layer())
        .filter(|l| *l != "bench" && !W::LAYERS.contains(l))
        .collect();
    strangers.sort_unstable();
    strangers.dedup();
    check.record(
        (!strangers.is_empty()).then(|| format!("{}: spans of layers {strangers:?}", W::NAME)),
    );

    let rec = spans::reconcile(&workload_spans);
    eprintln!(
        "{}: layer spans cover all but {:.2} % of the traced iterations ({} 10 %)",
        W::NAME,
        100.0 * rec.unattributed_s / rec.iterations_s,
        if rec.holds(0.10) {
            "within"
        } else {
            "NOT within"
        }
    );
    let traced_iter_s = stats::median(&traced.iter_s);
    let untraced_iter_s = stats::median(&untraced.iter_s);
    let mut metrics: Vec<Metric> = vec![
        metric("trace.iter_s", traced_iter_s, "s"),
        metric("trace.untraced_iter_s", untraced_iter_s, "s"),
        metric(
            "trace.overhead_share",
            traced_iter_s / untraced_iter_s - 1.0,
            "time-share",
        ),
        metric(
            "trace.spans",
            workload_spans.len() as f64 / traced.iter_s.len() as f64,
            "count",
        ),
        metric(
            "trace.unattributed_share",
            rec.unattributed_s / rec.iterations_s,
            "time-share",
        ),
    ];
    // Per-layer times are reported as timed; the host's speed while they
    // were taken is reported next to them.
    let [alu, loads, alloc] = reference.kernel_medians();
    metrics.push(metric(
        "bench.host_index",
        reference.host_index(),
        "time-ratio",
    ));
    metrics.push(metric("bench.host_arithmetic_ms", alu * 1e3, "ms"));
    metrics.push(metric("bench.host_loads_ms", loads * 1e3, "ms"));
    metrics.push(metric("bench.host_allocation_ms", alloc * 1e3, "ms"));
    for layer in WORKLOAD_LAYERS {
        let self_s = rec.layer_self_s.get(layer).copied().unwrap_or(0.0);
        metrics.push(metric(
            format!("trace.self_share.{layer}"),
            self_s / rec.iterations_s,
            "time-share",
        ));
    }

    let (probe_metrics, probe_spans, probe_check) = probes::run(args.seed);
    check.absorb(probe_check);
    metrics.extend(probe_metrics);
    metrics.sort_by(|a, b| a.name.cmp(&b.name));

    let out = PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/out"));
    let path = out.join(format!("trace-{}.json", W::NAME));
    let file = format!(
        "{{\"schema\": \"cedar-benchmark-trace-v1\", \"workload\": \"{}\", \"seed\": {},\n\"workload_trace\": {},\n\"probe_trace\": {}}}\n",
        W::NAME,
        args.seed,
        spans::to_json(&workload_spans),
        spans::to_json(&probe_spans),
    );
    let written = std::fs::create_dir_all(&out).and_then(|()| std::fs::write(&path, file));
    check.record(written.err().map(|e| format!("{}: {e}", path.display())));

    for note in &check.notes {
        eprintln!("FAILED {note}");
    }
    harness::print_table(W::NAME, &metrics);
    eprintln!("{}: trace written to {}", W::NAME, path.display());
    let attempted = (untraced.units() + traced.units()) as u64 + check.attempted;
    println!(
        "{}",
        harness::result_line(attempted, check.failed, &metrics)
    );
}

fn main() {
    let args = harness::parse_args(std::env::args().skip(1)).unwrap_or_else(|e| {
        eprintln!("trace: {e}\nusage: trace --workload NAME [--seed N] [--seconds S]");
        std::process::exit(2);
    });
    let ran = cedar_par::with_jobs(
        cedar_benchmark::JOBS,
        || with_workload!(args.workload.as_str(), W => run::<W>(&args)),
    );
    if ran.is_none() {
        eprintln!("trace: no workload named {}", args.workload);
        std::process::exit(2);
    }
}
