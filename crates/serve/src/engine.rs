//! The per-request engine: one HTTP request becomes a supervised
//! retry ladder.
//!
//! Where the batch harness ([`cedar_experiments::supervise::run_cells`])
//! sweeps many cells and retries stragglers after the fact, the service
//! walks one request up the same degradation ladder inline: attempt at
//! the breaker's entry rung, classify any failure (panic, structured
//! simulator fault, deadline), sleep a jittered backoff, retry one rung
//! safer. A request that fails at every rung is quarantined exactly
//! like a batch cell — deduplicated crash bundle and all — and the
//! client gets a structured error referencing the bundle instead of a
//! stack trace.
//!
//! Determinism note: the request **label** (`serve/<hex of the request
//! key>`) keys the chaos draws, so a given `(CEDAR_CHAOS, request)`
//! pair always injects the same faults — the chaos integration tests
//! and the load-test gates rely on predicting recovery vs quarantine
//! per request, not on sampling.

use crate::breaker::Breaker;
use crate::error::{self, kind};
use crate::json::Json;
use cedar_experiments::pipeline::{simulate, timed_cycles};
use cedar_experiments::supervise::{self, CellError, Rung, Supervisor};
use cedar_experiments::Writer;
use cedar_ir::Program;
use cedar_restructure::{BackendKind, EmitInput, PassConfig, Report};
use cedar_sim::{ExecStats, MachineConfig, SimError};
use cedar_verify::{restructure_validated, ValidationConfig, ValidationReport};
use std::hash::{Hash, Hasher};
use std::path::PathBuf;
use std::time::{Duration, Instant};

/// Engine knobs shared by every request.
#[derive(Debug, Clone)]
pub struct EngineConfig {
    /// Supervisor profile: chaos seed, per-attempt wall-clock deadline,
    /// crash-bundle root.
    pub sup: Supervisor,
    /// First retry backoff; attempt `k` waits `base · 2^(k-1)` plus a
    /// deterministic 0–50 % jitter keyed on the request label
    /// ([`cedar_par::backoff`], shared with the campaign workers).
    pub backoff_base: Duration,
    /// Perturbation seeds for validated requests (trimmed from the
    /// batch default of 8 — a service pays per request).
    pub validate_seeds: Vec<u64>,
}

impl Default for EngineConfig {
    fn default() -> EngineConfig {
        EngineConfig {
            sup: Supervisor {
                chaos: None,
                deadline: Some(Duration::from_secs(30)),
                bundle_dir: PathBuf::from("target/crash-bundles"),
            },
            backoff_base: Duration::from_millis(10),
            validate_seeds: vec![1, 2],
        }
    }
}

/// One parsed `/restructure` request.
#[derive(Debug, Clone)]
pub struct ServeRequest {
    /// Fortran source text.
    pub source: String,
    /// Free-form (`true`, the fuzz/corpus dialect) or fixed-form F77.
    pub free_form: bool,
    /// Pass configuration: `auto` (default), `manual`, or `serial`.
    pub config: String,
    /// Machine model: `cedar` (default) or `fx80`.
    pub machine: String,
    /// Emission dialect for the `restructured` response field:
    /// `cedar` (default), `openmp`, or `serial`.
    pub backend: BackendKind,
    /// Variables to report watched results for.
    pub watch: Vec<String>,
    /// Differentially validate the output (perturbed schedules, race
    /// check) before returning it.
    pub validate: bool,
    /// Per-attempt wall-clock deadline override, milliseconds.
    pub deadline_ms: Option<u64>,
}

impl ServeRequest {
    /// A request with defaults: free-form, `auto`, `cedar`, validated.
    pub fn new(source: impl Into<String>) -> ServeRequest {
        ServeRequest {
            source: source.into(),
            free_form: true,
            config: "auto".into(),
            machine: "cedar".into(),
            backend: BackendKind::Cedar,
            watch: Vec::new(),
            validate: true,
            deadline_ms: None,
        }
    }

    /// Parse the JSON request body.
    pub fn from_json(v: &Json) -> Result<ServeRequest, String> {
        let source = v.str_at("source")?;
        if source.trim().is_empty() {
            return Err("`source` is empty".into());
        }
        let mut req = ServeRequest::new(source);
        if let Some(form) = v.get("form") {
            match form.as_str() {
                Some("free") => req.free_form = true,
                Some("fixed") => req.free_form = false,
                _ => return Err("`form` must be \"free\" or \"fixed\"".into()),
            }
        }
        if let Some(cfg) = v.get("config") {
            match cfg.as_str() {
                Some(c @ ("auto" | "manual" | "serial")) => req.config = c.into(),
                _ => return Err("`config` must be \"auto\", \"manual\", or \"serial\"".into()),
            }
        }
        if let Some(m) = v.get("machine") {
            match m.as_str() {
                Some(c @ ("cedar" | "fx80")) => req.machine = c.into(),
                _ => return Err("`machine` must be \"cedar\" or \"fx80\"".into()),
            }
        }
        if let Some(b) = v.get("backend") {
            let s = b.as_str().ok_or("`backend` must be a string")?;
            req.backend = s.parse().map_err(|e| format!("`backend`: {e}"))?;
        }
        if v.get("watch").is_some() {
            req.watch = v.strs_at("watch")?;
        }
        if let Some(b) = v.get("validate") {
            req.validate = b.as_bool().ok_or("`validate` must be a boolean")?;
        }
        if v.get("deadline_ms").is_some() {
            let ms = v.u64_at("deadline_ms").ok().filter(|ms| *ms > 0);
            req.deadline_ms = Some(ms.ok_or("`deadline_ms` must be a positive whole number")?);
        }
        Ok(req)
    }

    /// Serialize back to a request body (clients: load test, tests).
    pub fn to_json(&self) -> String {
        let mut w = Writer::new();
        w.obj().key("source").str(&self.source);
        w.key("form").str(if self.free_form { "free" } else { "fixed" });
        w.key("config").str(&self.config);
        w.key("machine").str(&self.machine);
        w.key("backend").str(self.backend);
        w.key("watch").strs(&self.watch);
        w.key("validate").bool(self.validate);
        if let Some(ms) = self.deadline_ms {
            w.key("deadline_ms").int(ms);
        }
        w.finish()
    }

    /// Content key: two requests with equal keys are behaviorally
    /// identical end to end, so the server coalesces them in flight and
    /// keys the store on it. A later repeat is answered by the store
    /// when one is configured and recomputed when not.
    pub fn key(&self) -> u64 {
        let mut h = std::collections::hash_map::DefaultHasher::new();
        self.source.hash(&mut h);
        self.free_form.hash(&mut h);
        self.config.hash(&mut h);
        self.machine.hash(&mut h);
        self.backend.hash(&mut h);
        self.watch.hash(&mut h);
        self.validate.hash(&mut h);
        h.finish()
    }

    /// The reply's `request_id`: [`ServeRequest::key`] as 16 hex digits.
    pub fn id(&self) -> String {
        format!("{:016x}", self.key())
    }

    /// Supervision label: names the chaos-draw key and the crash-bundle
    /// cell for this request.
    pub fn label(&self) -> String {
        format!("serve/{}", self.id())
    }
}

/// The outcome the server needs for counters and the response.
#[derive(Debug)]
pub struct Handled {
    /// HTTP status.
    pub status: u16,
    /// Response body (JSON).
    pub body: String,
    /// Ladder retries this request needed (0 = first attempt worked).
    pub retries: u32,
    /// The request failed at every rung and a bundle was attempted.
    pub quarantined: bool,
}

enum AttemptFail {
    /// The front end rejected the source: deterministic, never retried.
    Compile(String),
    /// A structured simulator error surfaced as a `Result` (validation
    /// path) rather than a panic.
    Sim(SimError),
}

/// Where a successful attempt's time went; with the queue wait, the
/// reply's `stages_ms`. `validate` is everything between the front end
/// and emission: the verdict, or for `"validate": false` the
/// restructurer and the two simulations.
struct Stages {
    compile: Duration,
    validate: Duration,
    emit: Duration,
}

struct Output {
    restructured: String,
    report: String,
    serial_cycles: f64,
    parallel_cycles: f64,
    stats: ExecStats,
    validation: Option<ValidationReport>,
    stages: Stages,
}

/// The machine a request names: the one its pass plans for and its
/// programs run on.
fn machine_for(req: &ServeRequest) -> MachineConfig {
    match req.machine.as_str() {
        "fx80" => MachineConfig::fx80_scaled(),
        _ => MachineConfig::cedar_config1_scaled(),
    }
}

/// The program a request is answered with, and the two runs behind the
/// reply's cycle counts and counters.
struct Checked {
    program: Program,
    report: Report,
    serial: ExecStats,
    candidate: ExecStats,
    validation: Option<ValidationReport>,
}

/// One fault-free run outside a verdict (gates "simulate" internally).
/// Nothing here is memoized: what outlives a request is the server's
/// to hold.
fn plain_run(program: &Program, mc: &MachineConfig, watch: &[&str]) -> ExecStats {
    simulate(program, mc, watch).stats
}

/// `"validate": true`: the verdict runs the serial reference and the
/// accepted program's base run itself (race-collecting, which charges
/// nothing) and hands both back, so neither is simulated again — four
/// simulations with the two seeds, where there were six.
fn validated(
    program: &Program,
    pass: &PassConfig,
    mc: &MachineConfig,
    watch: &[&str],
    cfg: &EngineConfig,
) -> Result<Checked, AttemptFail> {
    // Chaos draws are keyed by phase, not by call: one gate stands for
    // every simulation of the path.
    supervise::gate("simulate");
    supervise::gate("validate");
    let vcfg =
        ValidationConfig { seeds: cfg.validate_seeds.clone(), ..ValidationConfig::default() };
    let v = restructure_validated(
        program,
        &supervise::adjust_pass(pass),
        &supervise::adjust_machine(mc),
        watch,
        &vcfg,
    )
    .map_err(AttemptFail::Sim)?;
    let candidate = match v.base_stats {
        Some(base) => base,
        // Degraded to a serial program that failed its own check: the
        // verdict has no completed run of what it returns.
        None => plain_run(&v.program, mc, watch),
    };
    Ok(Checked {
        program: v.program,
        report: v.report,
        serial: v.reference_stats,
        candidate,
        validation: Some(v.validation),
    })
}

/// `"validate": false`: restructure, and simulate input and output.
fn unvalidated(
    program: &Program,
    pass: &PassConfig,
    mc: &MachineConfig,
    watch: &[&str],
) -> Checked {
    let serial = plain_run(program, mc, watch);
    supervise::gate("restructure");
    let r = cedar_restructure::restructure(program, &supervise::adjust_pass(pass));
    let candidate = plain_run(&r.program, mc, watch);
    Checked { program: r.program, report: r.report, serial, candidate, validation: None }
}

/// One attempt's real work; runs under the supervisor's cell context,
/// so the phase gates, rung adjustment, and cancel token all apply.
fn attempt_body(
    req: &ServeRequest,
    pass: &PassConfig,
    mc: &MachineConfig,
    cfg: &EngineConfig,
) -> Result<Output, AttemptFail> {
    let started = Instant::now();
    supervise::gate("compile");
    let compiled = if req.free_form {
        cedar_ir::compile_free(&req.source)
    } else {
        cedar_ir::compile_source(&req.source)
    };
    let program = compiled.map_err(|e| AttemptFail::Compile(e.to_string()))?;
    let watch: Vec<&str> = req.watch.iter().map(String::as_str).collect();
    let front_end = Instant::now();

    let checked = if req.validate {
        validated(&program, pass, mc, &watch, cfg)?
    } else {
        unvalidated(&program, pass, mc, &watch)
    };
    let verdict = Instant::now();

    let restructured = req.backend.backend().emit(&EmitInput {
        original: &program,
        restructured: &checked.program,
        report: &checked.report,
    });
    let report = checked.report.to_string();
    Ok(Output {
        restructured,
        report,
        serial_cycles: timed_cycles(&checked.serial),
        parallel_cycles: timed_cycles(&checked.candidate),
        stats: checked.candidate,
        validation: checked.validation,
        stages: Stages {
            compile: front_end - started,
            validate: verdict - front_end,
            emit: verdict.elapsed(),
        },
    })
}

fn success_body(
    out: &Output,
    rung: Rung,
    entry: Rung,
    retries: u32,
    duration: Duration,
    request_id: &str,
    queued: Duration,
) -> String {
    let speedup =
        if out.parallel_cycles > 0.0 { out.serial_cycles / out.parallel_cycles } else { 0.0 };
    let mut w = Writer::new();
    w.obj().key("schema").str("cedar-serve-v1");
    w.key("restructured").str(&out.restructured);
    w.key("report").str(&out.report);
    w.key("stats").obj();
    let (serial, parallel) = (out.serial_cycles, out.parallel_cycles);
    w.key("serial_cycles").float(serial, format_args!("{serial:.1}"));
    w.key("parallel_cycles").float(parallel, format_args!("{parallel:.1}"));
    w.key("speedup").float(speedup, format_args!("{speedup:.3}"));
    w.key("scalar_ops").int(out.stats.scalar_ops);
    w.key("vector_elems").int(out.stats.vector_elems);
    w.key("parallel_loops").int(out.stats.parallel_loops).end();
    w.key("verification").opt(out.validation.as_ref(), |w, v| {
        w.obj().key("attempts").int(v.attempts).key("fallbacks").int(v.fallbacks.len());
        w.key("seed_runs").int(v.seed_runs.len());
        w.key("all_bit_identical").bool(v.all_bit_identical());
        w.key("degraded_to_serial").bool(v.degraded_to_serial).end()
    });
    w.key("service").obj();
    w.key("rung").str(rung.label()).key("entry_rung").str(entry.label());
    w.key("retries").int(retries);
    w.key("coalesced").bool(false);
    let ms = duration.as_secs_f64() * 1e3;
    w.key("duration_ms").float(ms, format_args!("{ms:.1}"));
    // New members go here, after the duration: `json_bytes.txt` pins
    // the body up to it, and `coalesced_copy` finds its needle before.
    w.key("request_id").str(request_id);
    w.key("stages_ms").obj();
    for (stage, took) in [
        ("queue", queued),
        ("compile", out.stages.compile),
        ("validate", out.stages.validate),
        ("emit", out.stages.emit),
    ] {
        let ms = took.as_secs_f64() * 1e3;
        w.key(stage).float(ms, format_args!("{ms:.3}"));
    }
    w.end().end();
    w.finish()
}

/// A leader's response as the followers of its coalesced flight
/// receive it: the `service` block's `coalesced` member flipped (a
/// success body carries exactly one such member; error bodies carry
/// none and pass through unchanged).
pub(crate) fn coalesced_copy(body: &str) -> String {
    let member = |coalesced| {
        let mut w = Writer::new();
        w.key("coalesced").bool(coalesced);
        w.finish()
    };
    body.replacen(&member(false), &member(true), 1)
}

/// Run one request through the retry ladder. Never panics: every
/// failure mode becomes a structured response.
pub fn handle(req: &ServeRequest, cfg: &EngineConfig, breaker: &Breaker) -> Handled {
    handle_queued(req, cfg, breaker, Duration::ZERO)
}

/// [`handle`] for a request that waited `queued` between admission and
/// a worker picking it up (the server's entry point; the wait is
/// reported in the reply, it does not count against any deadline).
pub fn handle_queued(
    req: &ServeRequest,
    cfg: &EngineConfig,
    breaker: &Breaker,
    queued: Duration,
) -> Handled {
    let started = Instant::now();
    let mc = machine_for(req);
    // `from_json` admits only named configurations; a hand-built
    // request with any other name runs the default.
    let pass = PassConfig::named(&req.config)
        .unwrap_or_else(PassConfig::automatic_1991)
        .for_machine(&mc.machine);
    let mut sup = cfg.sup.clone();
    if let Some(ms) = req.deadline_ms {
        sup.deadline = Some(Duration::from_millis(ms));
    }
    let (request_id, label) = (req.id(), req.label());
    let entry = breaker.entry_rung(&req.config);
    let start = Rung::LADDER.iter().position(|r| *r == entry).unwrap_or(0);

    let mut attempts: Vec<(&'static str, CellError)> = Vec::new();
    for (i, rung) in Rung::LADDER[start..].iter().enumerate() {
        if i > 0 {
            std::thread::sleep(cedar_par::backoff(cfg.backoff_base, &label, i));
        }
        let outcome =
            supervise::run_attempt(&sup, &label, *rung, || attempt_body(req, &pass, &mc, cfg));
        match outcome {
            Ok(Ok(out)) => {
                breaker.record(&req.config, entry, Some(*rung));
                let retries = attempts.len() as u32;
                let took = started.elapsed();
                return Handled {
                    status: 200,
                    body: success_body(&out, *rung, entry, retries, took, &request_id, queued),
                    retries,
                    quarantined: false,
                };
            }
            Ok(Err(AttemptFail::Compile(msg))) => {
                // The front end is deterministic and chaos-free:
                // retrying or penalizing the breaker would be noise.
                return Handled {
                    status: error::status_for(kind::COMPILE_ERROR),
                    body: error::error_json(kind::COMPILE_ERROR, &msg, None, &[]),
                    retries: attempts.len() as u32,
                    quarantined: false,
                };
            }
            Ok(Err(AttemptFail::Sim(e))) => {
                attempts.push((rung.label(), CellError::from_sim_error(&e)));
            }
            Err(cell_error) => attempts.push((rung.label(), cell_error)),
        }
    }

    // Every rung failed: quarantine. The bundle is deduplicated by
    // minimized-source digest, so identical failing requests share one
    // directory whose hit count grows instead.
    breaker.record(&req.config, entry, None);
    let bundle = supervise::write_quarantine_bundle(&sup, &label, Some(&req.source), &attempts);
    let last = &attempts.last().expect("ladder ran at least one rung").1;
    let attempt_kinds: Vec<(&'static str, &'static str)> =
        attempts.iter().map(|(r, e)| (*r, error::kind_for(e))).collect();
    let k = error::kind_for(last);
    Handled {
        status: error::status_for(k),
        body: error::error_json(k, &error::message_for(last), bundle.as_deref(), &attempt_kinds),
        retries: attempts.len().saturating_sub(1) as u32,
        quarantined: true,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const CLEAN: &str = "program p\nreal a(64)\ninteger i\ndo 10 i = 1, 64\n  a(i) = real(i) * 2.0\n10 continue\nprint *, a(64)\nend\n";

    fn quiet_engine(tag: &str) -> EngineConfig {
        EngineConfig {
            sup: Supervisor {
                chaos: None,
                deadline: None,
                bundle_dir: PathBuf::from(format!("target/test-serve-bundles/{tag}")),
            },
            backoff_base: Duration::from_millis(1),
            validate_seeds: vec![1],
        }
    }

    #[test]
    fn clean_request_succeeds_first_attempt() {
        let mut req = ServeRequest::new(CLEAN);
        req.watch.push("a".into());
        let cfg = quiet_engine("clean");
        let breaker = Breaker::new(3, Duration::from_secs(5));
        let h = handle(&req, &cfg, &breaker);
        assert_eq!(h.status, 200, "{}", h.body);
        assert_eq!(h.retries, 0);
        assert!(h.body.contains("\"schema\": \"cedar-serve-v1\""));
        assert!(h.body.contains("\"rung\": \"normal\""));
        assert!(h.body.contains("\"all_bit_identical\""), "{}", h.body);
        let v = Json::parse(&h.body).expect("response is valid JSON");
        assert!(v.get("restructured").unwrap().as_str().unwrap().contains("doall"));
    }

    #[test]
    fn a_long_cascade_is_answered_within_its_deadline() {
        // A legal recurrence of 1 536 iterations, four simulations of
        // 2 ms: while the race detector kept a clock per sibling
        // iteration its one race-collecting run took 25 s, the request
        // timed out at every rung of the ladder and the program was
        // quarantined with a crash bundle.
        let source = "program p\nparameter (n = 1536)\nreal a(n), b(n), c(n)\ndo i = 1, n\n\
                      b(i) = i * 1.0\nc(i) = i * 0.5\nend do\na(1) = 1.0\ndo i = 2, n\n\
                      t = sqrt(b(i)) + sqrt(c(i)) + sin(b(i)) * cos(c(i)) + exp(c(i) * 0.01)\n\
                      a(i) = a(i - 1) * 0.5 + t\nend do\nx = a(n)\nend\n";
        let mut req = ServeRequest::new(source);
        req.watch.push("x".into());
        req.deadline_ms = Some(2000);
        let breaker = Breaker::new(3, Duration::from_secs(5));
        let h = handle(&req, &quiet_engine("long-cascade"), &breaker);
        assert_eq!(h.status, 200, "{}", h.body);
        assert_eq!((h.retries, h.quarantined), (0, false));
        let v = Json::parse(&h.body).unwrap();
        let service = v.get("service").unwrap();
        assert_eq!(service.get("rung").unwrap().as_str(), Some("normal"));
        let verification = v.get("verification").unwrap();
        assert_eq!(verification.get("degraded_to_serial").unwrap().as_bool(), Some(false));
        assert_eq!(verification.u64_at("fallbacks"), Ok(0));
        // Answered with the cascade, not with a serial loop.
        assert!(v.str_at("restructured").unwrap().contains("await"), "{}", h.body);
    }

    #[test]
    fn a_reply_says_where_its_time_went() {
        let mut req = ServeRequest::new(CLEAN);
        req.watch.push("a".into());
        let cfg = quiet_engine("stages");
        let breaker = Breaker::new(3, Duration::from_secs(5));
        for (validate, queued_ms) in [(true, 0.0), (false, 7.0)] {
            req.validate = validate;
            let queued = Duration::from_secs_f64(queued_ms / 1e3);
            let h = handle_queued(&req, &cfg, &breaker, queued);
            assert_eq!(h.status, 200, "{}", h.body);
            let v = Json::parse(&h.body).unwrap();
            let service = v.get("service").unwrap();
            assert_eq!(service.str_at("request_id").unwrap(), req.id());
            let stages = service.get("stages_ms").unwrap();
            let ms = |name: &str| stages.get(name).and_then(Json::as_f64).expect("a stage");
            assert_eq!(ms("queue"), queued_ms);
            // The stages are the successful attempt's share of the
            // duration; the wait for a worker is outside it.
            let attempt = ms("compile") + ms("validate") + ms("emit");
            let duration = service.get("duration_ms").and_then(Json::as_f64).unwrap();
            assert!(attempt > 0.0 && attempt <= duration + 0.1, "{attempt} of {duration}");
        }
        // An error body carries no timing.
        let h = handle(&ServeRequest::new("program p\nx = = 1\nend\n"), &cfg, &breaker);
        assert!(!h.body.contains("stages_ms") && !h.body.contains("request_id"), "{}", h.body);
    }

    /// Of the six simulations a validated request used to cost, the two
    /// made only for the reply's cycle counts are the verdict's own
    /// reference and base run: the validated arm asks for a run of its
    /// own only when a degraded verdict has none to hand back, and the
    /// one call of `pipeline::simulate` is the helper both arms share.
    #[test]
    fn the_validated_path_simulates_nothing_the_verdict_ran() {
        let src = include_str!("engine.rs");
        let src = &src[..src.find("#[cfg(test)]").unwrap()];
        let body_of = |name: &str| {
            let at = src.find(&format!("\nfn {name}(")).unwrap_or_else(|| panic!("fn {name}"));
            &src[at..at + 1 + src[at + 1..].find("\nfn ").expect("a later function")]
        };
        assert_eq!(src.matches("simulate(").count(), 1, "one call, in `plain_run`");
        assert!(body_of("plain_run").contains("simulate("));
        let validated = body_of("validated");
        assert_eq!(validated.matches("plain_run(").count(), 1);
        assert!(validated.contains("None => plain_run("), "only for a verdict with no base run");
        assert_eq!(validated.matches("gate(\"simulate\")").count(), 1);
        assert_eq!(body_of("unvalidated").matches("plain_run(").count(), 2);
        assert!(!body_of("attempt_body").contains("plain_run("));
    }

    #[test]
    fn compile_errors_are_400_without_retry() {
        let req = ServeRequest::new("this is not fortran at all (");
        let cfg = quiet_engine("compile");
        let breaker = Breaker::new(3, Duration::from_secs(5));
        let h = handle(&req, &cfg, &breaker);
        assert_eq!(h.status, 400, "{}", h.body);
        assert!(h.body.contains("\"kind\": \"compile-error\""), "{}", h.body);
        assert_eq!(h.retries, 0);
        assert!(!h.quarantined);
    }

    #[test]
    fn an_iota_past_the_storage_cap_is_a_422_and_the_next_request_runs() {
        // Its lanes once took 32 TB from the host allocator, which
        // aborted the server.
        let breaker = Breaker::new(3, Duration::from_secs(5));
        let cfg = EngineConfig::default();
        for source in [
            "program p\ns = sum(iota(1, 4000000000000))\nend\n",
            "program p\nreal rp(4), ra(4)\nrp(1:4) = ra(iota(1, 4000000000000))\nend\n",
        ] {
            let h = handle(&ServeRequest::new(source), &cfg, &breaker);
            assert_eq!(h.status, 422, "{}", h.body);
            assert!(h.body.contains("iota too large"), "{}", h.body);
            let h = handle(&ServeRequest::new(CLEAN), &cfg, &breaker);
            assert_eq!(h.status, 200, "{}", h.body);
        }
    }

    #[test]
    fn backend_selects_the_emission_dialect() {
        let cfg = quiet_engine("backend");
        let breaker = Breaker::new(3, Duration::from_secs(5));

        let mut req = ServeRequest::new(CLEAN);
        req.backend = BackendKind::OpenMp;
        let h = handle(&req, &cfg, &breaker);
        assert_eq!(h.status, 200, "{}", h.body);
        let v = Json::parse(&h.body).unwrap();
        let text = v.get("restructured").unwrap().as_str().unwrap().to_string();
        assert!(text.contains("!$omp parallel do"), "{text}");
        assert!(!text.contains("doall"), "Cedar dialect leaked:\n{text}");

        let mut serial = ServeRequest::new(CLEAN);
        serial.backend = BackendKind::Serial;
        let h = handle(&serial, &cfg, &breaker);
        assert_eq!(h.status, 200, "{}", h.body);
        let v = Json::parse(&h.body).unwrap();
        let text = v.get("restructured").unwrap().as_str().unwrap().to_string();
        assert!(!text.contains("doall") && !text.contains("!$omp"), "{text}");

        // Backend choice is part of the content key: the coalescer and
        // the store must not serve one backend's emission for another.
        assert_ne!(req.key(), serial.key());
        assert_ne!(req.key(), ServeRequest::new(CLEAN).key());
    }

    #[test]
    fn request_key_discriminates_and_label_is_stable() {
        let a = ServeRequest::new(CLEAN);
        let mut b = ServeRequest::new(CLEAN);
        assert_eq!(a.key(), b.key());
        assert_eq!(a.label(), b.label());
        b.config = "manual".into();
        assert_ne!(a.key(), b.key());
        assert!(a.label().starts_with("serve/"));
    }

    /// The key names the entries of the *persistent* store, and std
    /// leaves `DefaultHasher`'s algorithm unspecified: a toolchain that
    /// changed it would turn every warm restart into all-misses with no
    /// other test failing.
    #[test]
    fn request_key_is_pinned() {
        let mut req = ServeRequest::new("program p\nend\n");
        req.watch = vec!["a1".into()];
        assert_eq!(req.key(), 0xb256_cfe7_93e1_aa79);
    }

    #[test]
    fn request_json_round_trips() {
        let mut req = ServeRequest::new("program p\nend\n");
        req.watch = vec!["a1".into(), "s2".into()];
        req.validate = false;
        req.config = "manual".into();
        req.deadline_ms = Some(1500);
        let parsed = ServeRequest::from_json(&Json::parse(&req.to_json()).unwrap()).unwrap();
        assert_eq!(parsed.key(), req.key());
        assert_eq!(parsed.deadline_ms, Some(1500));
        assert!(!parsed.validate);
    }

    #[test]
    fn bad_requests_are_rejected_with_reasons() {
        for (body, needle) in [
            ("{}", "`source`"),
            ("{\"source\": \"\"}", "empty"),
            ("{\"source\": \"x\", \"config\": \"fastest\"}", "`config`"),
            ("{\"source\": \"x\", \"machine\": \"cray\"}", "`machine`"),
            ("{\"source\": \"x\", \"backend\": \"f90\"}", "`backend`"),
            ("{\"source\": \"x\", \"watch\": \"a\"}", "`watch`"),
            ("{\"source\": \"x\", \"deadline_ms\": -5}", "positive"),
        ] {
            let err = ServeRequest::from_json(&Json::parse(body).unwrap()).unwrap_err();
            assert!(err.contains(needle), "{body} -> {err}");
        }
    }

    #[test]
    fn retry_backoff_is_the_shared_cedar_par_implementation() {
        // The ladder's sleep is `cedar_par::backoff` — assert the
        // contract the engine relies on (growth + determinism) against
        // the shared implementation so a drift there fails here too.
        let base = Duration::from_millis(10);
        let a1 = cedar_par::backoff(base, "serve/x", 1);
        let a2 = cedar_par::backoff(base, "serve/x", 2);
        assert!(a1 >= base && a1 < base * 2, "{a1:?}");
        assert!(a2 >= base * 2 && a2 < base * 3, "{a2:?}");
        assert_eq!(a1, cedar_par::backoff(base, "serve/x", 1));
    }
}
