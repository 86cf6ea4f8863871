//! What every workload shares: the set-up / timed-loop / check
//! sequence, the summary statistics, and the one-line JSON result.

use crate::reference::{Reference, CHAIN_BYTES};
use crate::spans::{Tracer, ITERATION};
use crate::stats;
use std::time::Instant;

/// Times a run sets its workload up; `setup_s` is the median.
pub const SETUPS: usize = 3;

/// Failure notes a check keeps; the count of failures is not capped.
const MAX_NOTES: usize = 20;

/// Result of an output check.
#[derive(Debug, Default)]
pub struct Check {
    /// Things checked.
    pub attempted: u64,
    /// Things that failed the check.
    pub failed: u64,
    /// One line per failure, for stderr.
    pub notes: Vec<String>,
}

impl Check {
    /// Record one checked thing; `problem` is `Some` when it failed.
    pub fn record(&mut self, problem: Option<String>) {
        self.attempted += 1;
        if let Some(p) = problem {
            self.failed += 1;
            if self.notes.len() < MAX_NOTES {
                self.notes.push(p);
            }
        }
    }

    /// Fold another check into this one.
    pub fn absorb(&mut self, other: Check) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.notes.extend(other.notes);
        self.notes.truncate(MAX_NOTES);
    }
}

/// One workload. `setup` makes the inputs from the seed and brings the
/// system to a steady state; the timed loop then alternates `prepare`
/// (untimed) and `iteration` (timed).
pub trait Workload: Sized {
    /// The name `--workload` selects it by.
    const NAME: &'static str;
    /// Iterations a run makes at least, whatever `--seconds` says.
    const MIN_ITERS: usize;
    /// Whether unit `k` is the same work in every iteration. If so a
    /// unit's latency is its median over the iterations and the
    /// percentiles are taken over the units
    /// ([`stats::repeated_unit_percentile`]); if not the latencies are
    /// samples ([`stats::sample_percentile`]).
    const REPEATS_UNITS: bool;
    /// The percentile `unit_tail_ms` reports. Over samples it has ten
    /// samples beyond it after `MIN_ITERS` iterations
    /// (`tests::sample_tails_have_ten_samples_beyond`).
    const TAIL: f64;
    /// Units one iteration completes.
    const UNITS_PER_ITER: usize;
    /// The layers an iteration calls into directly; the traced run
    /// fails if a span of any other layer shows up.
    const LAYERS: &'static [&'static str];

    /// Everything a run does before its first timed unit.
    fn setup(seed: u64) -> Self;
    /// Untimed client-side work before an iteration.
    fn prepare(&mut self) {}
    /// One timed iteration; returns one latency, in ms, per unit.
    fn iteration(&mut self, tracer: &Tracer) -> Vec<f64>;
    /// The untimed output check.
    fn check(&mut self) -> Check;
    /// Stop what `setup` started and check what only shows at the end.
    fn finish(self) -> Check {
        Check::default()
    }
}

/// What the timed loop measured.
#[derive(Debug, Default)]
pub struct Timed {
    /// Seconds per iteration.
    pub iter_s: Vec<f64>,
    /// Unit latencies (ms), one list per iteration.
    pub unit_ms: Vec<Vec<f64>>,
    /// The process's resident-set high-water mark (MB) when the
    /// `min_iters`-th iteration ended: the peak over a fixed amount of
    /// work, however many more iterations `--seconds` leaves time for.
    pub peak_rss_mb: f64,
}

impl Timed {
    /// Sum of the iteration times.
    pub fn wall_s(&self) -> f64 {
        self.iter_s.iter().sum()
    }

    /// Units completed.
    pub fn units(&self) -> usize {
        self.unit_ms.iter().map(Vec::len).sum()
    }
}

/// Run `setup` `times` times, finishing all but the last, with a sample
/// of the host-speed reference before each; returns the last state and
/// every set-up time.
pub fn setup_repeated<W: Workload>(
    seed: u64,
    times: usize,
    reference: &mut Reference,
) -> (W, Vec<f64>, Check) {
    let mut setup_s = Vec::new();
    let mut check = Check::default();
    let mut last = None;
    for _ in 0..times {
        if let Some(prev) = last.take() {
            check.absorb(W::finish(prev));
        }
        reference.sample();
        let t0 = Instant::now();
        last = Some(W::setup(seed));
        setup_s.push(t0.elapsed().as_secs_f64());
    }
    (last.expect("at least one set-up"), setup_s, check)
}

/// Iterate until `seconds` of iteration time and `min_iters` iterations
/// are both reached, with a sample of the host-speed reference before
/// each iteration.
pub fn timed_loop<W: Workload>(
    w: &mut W,
    seconds: f64,
    min_iters: usize,
    tracer: &Tracer,
    reference: &mut Reference,
) -> Timed {
    let mut timed = Timed::default();
    while timed.wall_s() < seconds || timed.iter_s.len() < min_iters {
        w.prepare();
        reference.sample();
        let t0 = Instant::now();
        let units = tracer.span(ITERATION, timed.iter_s.len() as u32, || w.iteration(tracer));
        timed.iter_s.push(t0.elapsed().as_secs_f64());
        timed.unit_ms.push(units);
        if timed.iter_s.len() == min_iters {
            timed.peak_rss_mb = peak_rss_mb();
        }
    }
    timed
}

/// Resident-set high-water mark of this process (`VmHWM`), in MB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// One reported metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Name, as in `BENCHMARK.json`.
    pub name: String,
    /// Value as measured.
    pub value: f64,
    /// Unit, as in `BENCHMARK.json`.
    pub unit: &'static str,
}

/// Shorthand constructor.
pub fn metric(name: impl Into<String>, value: f64, unit: &'static str) -> Metric {
    Metric {
        name: name.into(),
        value,
        unit,
    }
}

/// The end-to-end metrics of a run, in `BENCHMARK.json` order;
/// `failed` of `attempted` units and checks went wrong.
pub fn end_to_end<W: Workload>(
    setup_s: &[f64],
    timed: &Timed,
    (attempted, failed): (u64, u64),
    fidelity: &crate::paper::Fidelity,
    reference: &Reference,
) -> Vec<Metric> {
    let percentile = if W::REPEATS_UNITS {
        stats::repeated_unit_percentile
    } else {
        stats::sample_percentile
    };
    let (p50, _) = percentile(&timed.unit_ms, 50.0);
    let (tail, tail_n) = percentile(&timed.unit_ms, W::TAIL);
    eprintln!(
        "{}: {} iterations of {} units; unit_tail_ms is p{} over {} {}",
        W::NAME,
        timed.iter_s.len(),
        W::UNITS_PER_ITER,
        W::TAIL,
        tail_n,
        if W::REPEATS_UNITS {
            "repeated units"
        } else {
            "samples"
        }
    );
    // Clock metrics are reported at reference host speed (`reference`).
    let host = reference.host_index();
    let raw_iter_s = stats::median(&timed.iter_s);
    eprintln!(
        "{}: host index {host:.4} (kernels {:.2?} ms); as timed, iter_s {raw_iter_s:.6}",
        W::NAME,
        reference.kernel_medians().map(|t| t * 1e3),
    );
    let own_mb = CHAIN_BYTES as f64 / (1 << 20) as f64;
    vec![
        metric("setup_s", stats::median(setup_s) / host, "s"),
        metric("iter_s", raw_iter_s / host, "s"),
        metric(
            "units_per_s",
            timed.units() as f64 / timed.wall_s() * host,
            "1/s",
        ),
        metric("unit_p50_ms", p50 / host, "ms"),
        metric("unit_tail_ms", tail / host, "ms"),
        metric(
            "ok_share",
            1.0 - failed as f64 / attempted.max(1) as f64,
            "share",
        ),
        metric("peak_rss_mb", timed.peak_rss_mb - own_mb, "MB"),
        metric("paper_log_err", fidelity.log_err, "ln-ratio"),
        metric("paper_cells_within_2x", fidelity.within_2x, "share"),
    ]
}

/// The result line: one JSON object, the last line of stdout.
pub fn result_line(attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name,
                json_number(m.value),
                m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        failed == 0 && metrics.iter().all(|m| m.value.is_finite()),
        attempted.max(1),
        failed,
        body.join(", ")
    )
}

/// A number as JSON: every digit `f64` carries; `null` when not finite
/// (which also makes the run incorrect).
fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "null".into()
    }
}

/// Print every metric by name with its unit, for people.
pub fn print_table(workload: &str, metrics: &[Metric]) {
    for m in metrics {
        eprintln!("{workload:<15} {:<34} {:>18.6} {}", m.name, m.value, m.unit);
    }
}

/// The driver's arguments.
#[derive(Debug, Clone, PartialEq)]
pub struct Args {
    /// `--workload`.
    pub workload: String,
    /// `--seed`, default 1.
    pub seed: u64,
    /// `--seconds`, default 10.
    pub seconds: f64,
}

/// Parse `--workload NAME --seed N --seconds S` (`--trace` is consumed
/// by `bench.sh`, which picks the binary).
pub fn parse_args(argv: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
    };
    let mut argv = argv;
    while let Some(flag) = argv.next() {
        let mut value = || argv.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = value()?,
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(args.seconds > 0.0 && args.seconds <= 60.0) {
                    return Err("--seconds must be in (0, 60]".into());
                }
            }
            "--trace" => {
                value()?;
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if args.workload.is_empty() {
        return Err("--workload is required".into());
    }
    Ok(args)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_line_is_the_contract_shape() {
        let line = result_line(
            10,
            0,
            &[
                metric("iter_s", 1.25, "s"),
                metric("ok_share", 1.0, "share"),
            ],
        );
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 10, \"failed\": 0, \"metrics\": {\
             \"iter_s\": {\"value\": 1.25, \"unit\": \"s\"}, \
             \"ok_share\": {\"value\": 1.0, \"unit\": \"share\"}}}"
        );
        let v = cedar_experiments::Json::parse(&line).expect("the result line is JSON");
        assert_eq!(
            v.get("failed").and_then(cedar_experiments::Json::as_f64),
            Some(0.0)
        );
        assert!(result_line(1, 1, &[]).starts_with("{\"correct\": false"));
        assert!(result_line(1, 0, &[metric("x", f64::NAN, "s")]).starts_with("{\"correct\": false"));
    }

    #[test]
    fn args_parse_and_reject() {
        let parse = |s: &str| parse_args(s.split_whitespace().map(String::from));
        let a = parse("--workload serve_cold --seed 7 --seconds 4 --trace 0").unwrap();
        assert_eq!(
            a,
            Args {
                workload: "serve_cold".into(),
                seed: 7,
                seconds: 4.0
            }
        );
        assert!(parse("--seed 7").is_err());
        assert!(parse("--workload x --seconds 0").is_err());
        assert!(parse("--workload x --bogus 1").is_err());
    }

    #[test]
    fn peak_rss_reads_as_a_positive_number() {
        assert!(peak_rss_mb() > 1.0);
    }
}
