//! Supervised experiment engine (DESIGN.md §10): panic isolation,
//! per-cell wall-clock deadlines, a degradation ladder, and crash
//! bundles.
//!
//! Every sweep cell (one Table 1 row, one Table 2 `(row, machine)`
//! pair, one figure, one robustness validation job, ...) runs under a
//! supervisor that guarantees the sweep **always completes with a full
//! report**, no matter what individual cells do:
//!
//! * a panicking cell is contained (building on
//!   [`cedar_par`]'s per-item panic isolation) and classified — plain
//!   panic, structured simulator fault (via [`note_sim_error`]), or
//!   wall-clock timeout (the cell's [`CancelToken`] is threaded into
//!   every `MachineConfig` the cell builds, so the simulator watchdog
//!   aborts cooperatively);
//! * a failed cell is retried up the **degradation ladder**
//!   ([`Rung`]): interpreter fast paths off → race detection on →
//!   full serial fallback — each rung trades performance for safety;
//! * a cell that fails at every rung is **quarantined**: the sweep
//!   reports it under a `quarantined` section instead of a result row,
//!   and a **crash bundle** (minimized Fortran source, attempt chain,
//!   backtrace) is written under `target/crash-bundles/`.
//!
//! The supervisor's state rides on [`cedar_par::set_context`], so
//! nested `par_map` workers spawned inside a cell inherit its record,
//! and the pipeline choke points ([`crate::pipeline::run_program`],
//! [`crate::cache`]) pick up the active rung, cancel token, and chaos
//! profile without every call site threading them explicitly. With no
//! supervisor installed every hook is an exact identity — plain sweeps
//! are byte-for-byte unaffected.

use crate::chaos::{self, Injection};
use crate::Writer;
use cedar_par::{cli, panic_message, CancelToken, Context};
use cedar_restructure::PassConfig;
use cedar_sim::{MachineConfig, SimError, SimErrorKind};
use cedar_store::fnv1a;
use std::any::Any;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::{Arc, Mutex, MutexGuard, OnceLock};
use std::time::Duration;

/// Degradation-ladder rung: which safety/performance trade the current
/// attempt of a cell runs under. Rungs are cumulative — each keeps the
/// previous rung's concessions and adds one more.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Rung {
    /// First attempt: the configuration the sweep asked for.
    Normal,
    /// Interpreter fast paths disabled (rules out a fast-path
    /// miscompile; observationally invisible for correct programs).
    NoFastPaths,
    /// Fast paths off *and* the happens-before race detector on in
    /// fail-fast mode (turns a silent ordering bug into a structured
    /// `data-race` error).
    RacesOn,
    /// Full retreat: the restructurer is forced to
    /// [`PassConfig::serial`], abandoning all parallelism.
    Serial,
}

impl Rung {
    /// The ladder, safest rung last.
    pub const LADDER: [Rung; 4] = [Rung::Normal, Rung::NoFastPaths, Rung::RacesOn, Rung::Serial];

    /// Stable lower-case tag (used in JSON reports and bundle files).
    pub fn label(self) -> &'static str {
        match self {
            Rung::Normal => "normal",
            Rung::NoFastPaths => "no-fast-paths",
            Rung::RacesOn => "races-on",
            Rung::Serial => "serial",
        }
    }
}

/// Classification of one failed attempt of a cell.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CellErrorKind {
    /// The cell panicked (assertion, injected chaos panic, bug).
    Panicked,
    /// The cell's wall-clock budget lapsed (simulator watchdog timeout
    /// or an expired token behind any other panic).
    TimedOut,
    /// The cell died on a structured [`SimError`] other than a timeout.
    Failed,
}

impl CellErrorKind {
    /// Stable lower-case tag.
    pub fn as_str(self) -> &'static str {
        match self {
            CellErrorKind::Panicked => "panicked",
            CellErrorKind::TimedOut => "timed-out",
            CellErrorKind::Failed => "sim-error",
        }
    }
}

/// One failed attempt: classification, message, and the backtrace the
/// panic hook captured (when the failure went through a panic).
#[derive(Debug, Clone)]
pub struct CellError {
    /// What kind of failure this was.
    pub kind: CellErrorKind,
    /// Human-readable error (panic message or `SimError` display).
    pub msg: String,
    /// The structured simulator error kind, when the failure carried
    /// one (via [`note_sim_error`]) — lets callers map the failure onto
    /// a stable taxonomy without parsing `msg`.
    pub sim: Option<SimErrorKind>,
    /// Backtrace captured at the panic site, if any.
    pub backtrace: Option<String>,
}

impl CellError {
    /// Build a `CellError` from a structured simulator error that was
    /// *returned* (not panicked) by supervised work — service-style
    /// callers that keep `Result`s structured use this to feed the
    /// same ladder/quarantine machinery the panic path does.
    pub fn from_sim_error(e: &SimError) -> CellError {
        CellError {
            kind: if e.is_timeout() { CellErrorKind::TimedOut } else { CellErrorKind::Failed },
            msg: e.to_string(),
            sim: Some(e.kind),
            backtrace: None,
        }
    }
}

/// A cell that failed at rung `normal` but succeeded on a retry.
#[derive(Debug, Clone)]
pub struct Recovery {
    /// Cell label.
    pub cell: String,
    /// The rung that finally succeeded.
    pub rung: &'static str,
    /// `(rung, error message)` for every failed attempt before it.
    pub errors: Vec<(&'static str, String)>,
}

/// A cell that failed at **every** rung of the ladder.
#[derive(Debug, Clone)]
pub struct Quarantine {
    /// Cell label.
    pub cell: String,
    /// Classification of the final (serial-rung) failure.
    pub kind: &'static str,
    /// `(rung, kind, error message)` for every attempt, ladder order.
    pub attempts: Vec<(&'static str, &'static str, String)>,
    /// Crash-bundle directory, if one was written.
    pub bundle: Option<String>,
}

/// Result of a supervised sweep: one slot per input cell (`None` =
/// quarantined), plus the recovery and quarantine records.
#[derive(Debug)]
pub struct Sweep<R> {
    /// Per-cell results, input order. `results[k]` is `None` exactly
    /// when cell `k` appears in [`Sweep::quarantined`].
    pub results: Vec<Option<R>>,
    /// Cells that needed the ladder but recovered.
    pub recovered: Vec<Recovery>,
    /// Cells that failed at every rung.
    pub quarantined: Vec<Quarantine>,
}

impl<R> Sweep<R> {
    /// The single result of a [`run_cell`] sweep.
    pub fn single(self) -> Option<R> {
        self.results.into_iter().next().flatten()
    }
}

/// One unit of supervised work.
#[derive(Debug)]
pub struct Cell<T> {
    /// Stable label (`suite/name[/variant]`): keys chaos draws, names
    /// the crash-bundle directory, and appears in reports.
    pub label: String,
    /// Fortran source behind the cell, for the crash bundle.
    pub source: Option<String>,
    /// The input handed to the sweep's cell function.
    pub input: T,
}

impl<T> Cell<T> {
    /// A cell with no attached source.
    pub fn new(label: impl Into<String>, input: T) -> Cell<T> {
        Cell { label: label.into(), source: None, input }
    }

    /// A cell carrying the Fortran source it exercises.
    pub fn with_source(label: impl Into<String>, source: impl Into<String>, input: T) -> Cell<T> {
        Cell { label: label.into(), source: Some(source.into()), input }
    }
}

/// Supervisor configuration; build via [`Supervisor::from_env`] or
/// construct directly (tests do).
#[derive(Debug, Clone)]
pub struct Supervisor {
    /// Chaos seed (`CEDAR_CHAOS`); `None` = no injection.
    pub chaos: Option<u64>,
    /// Per-cell wall-clock budget (`CEDAR_CELL_DEADLINE` seconds,
    /// default 120; `0` disables). Applies to every attempt separately.
    pub deadline: Option<Duration>,
    /// Crash-bundle root (`CEDAR_BUNDLE_DIR`, default
    /// `target/crash-bundles`).
    pub bundle_dir: PathBuf,
}

/// Bundle directories kept under a bundle root: enough to hold every
/// distinct failure a realistic chaos sweep produces, small enough that
/// an unattended fuzz campaign stays bounded on disk. When a quarantine
/// pushes the count over it, the least-recently-hit bundles are evicted
/// — their hit counts survive in the `evicted.txt` ledger, which
/// [`bundle_hits`] folds back in, so a long chaos campaign can't fill
/// the disk with stale reproducers but also never *forgets* how often a
/// failure fired.
const BUNDLE_CAP: usize = 64;

impl Supervisor {
    /// The sweep binaries' supervisor (120 s a cell) under the
    /// variables that are set.
    pub fn from_env() -> Supervisor {
        let deadline = Some(Duration::from_secs(120));
        let bundle_dir = PathBuf::from("target/crash-bundles");
        Supervisor { chaos: None, deadline, bundle_dir }.overlay_env()
    }

    /// `self` with each of the three supervisor variables that is set
    /// laid over it (DESIGN.md §18.2).
    pub fn overlay_env(self) -> Supervisor {
        let deadline = cli::env_secs("CEDAR_CELL_DEADLINE").map(|d| (!d.is_zero()).then_some(d));
        Supervisor {
            chaos: cli::env::<String>("CEDAR_CHAOS").map_or(self.chaos, |s| chaos::parse_seed(&s)),
            deadline: deadline.unwrap_or(self.deadline),
            bundle_dir: cli::env("CEDAR_BUNDLE_DIR").unwrap_or(self.bundle_dir),
        }
    }
}

/// Per-attempt record installed as the ambient [`cedar_par`] context
/// while a cell runs; the pipeline hooks read it, and worker threads
/// spawned inside the cell inherit it.
struct CellCtx {
    label: String,
    rung: Rung,
    chaos: Option<u64>,
    token: CancelToken,
    sim_error: Mutex<Option<SimError>>,
    backtrace: Mutex<Option<String>>,
}

/// Lock that shrugs off poisoning: the supervisor's mutexes hold plain
/// data and every failure path here is already a failure path.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

/// The active cell context, if this thread (or the `par_map` caller it
/// inherited from) is running under a supervisor.
fn current() -> Option<Arc<CellCtx>> {
    let ctx: Context = cedar_par::context()?;
    let any: Arc<dyn Any + Send + Sync> = ctx;
    any.downcast::<CellCtx>().ok()
}

/// The active degradation-ladder rung's label, if a supervisor is
/// running this thread's work.
pub fn rung() -> Option<&'static str> {
    current().map(|c| c.rung.label())
}

/// Record a structured simulator error for the supervisor before the
/// harness glue panics, so the failure is classified as `sim-error`
/// (or `timed-out` for watchdog timeouts) instead of a bare panic.
/// No-op without an active supervisor.
pub fn note_sim_error(e: &SimError) {
    if let Some(ctx) = current() {
        *lock(&ctx.sim_error) = Some(e.clone());
    }
}

/// Chaos gate: pipeline phases call this before doing real work
/// (`compile`, `restructure`, `simulate`, `validate`). Without an
/// active supervisor carrying a chaos seed this is a no-op; with one,
/// a deterministic draw (see [`crate::chaos`]) may panic, record an
/// injected [`SimError`], or sleep briefly. Gates run *before* any
/// cache lookup, so memoized results can never mask an injection.
pub fn gate(phase: &str) {
    let Some(ctx) = current() else { return };
    let Some(seed) = ctx.chaos else { return };
    match chaos::draw(seed, &ctx.label, ctx.rung.label(), phase) {
        None => {}
        Some(Injection::Delay(ms)) => std::thread::sleep(Duration::from_millis(ms)),
        Some(Injection::Panic) => panic!(
            "chaos[{seed}]: injected panic in `{phase}` for `{}` at rung `{}`",
            ctx.label,
            ctx.rung.label()
        ),
        Some(Injection::SimFault) => {
            let e = SimError::new(
                SimErrorKind::Unsupported,
                cedar_ir::Span::new(0),
                format!(
                    "chaos[{seed}]: injected simulator fault in `{phase}` for `{}` \
                     at rung `{}`",
                    ctx.label,
                    ctx.rung.label()
                ),
            );
            note_sim_error(&e);
            panic!("{e}");
        }
    }
}

/// Apply the active rung to a machine config: thread the cell's cancel
/// token in, and disable fast paths / enable race detection per the
/// ladder. Identity (a plain clone) without an active supervisor.
pub fn adjust_machine(mc: &MachineConfig) -> MachineConfig {
    let Some(ctx) = current() else { return mc.clone() };
    let out = mc.clone().with_cancel(ctx.token.clone());
    match ctx.rung {
        Rung::Normal => out,
        Rung::NoFastPaths | Rung::Serial => out.without_fast_paths(),
        Rung::RacesOn => out.without_fast_paths().with_race_detection(),
    }
}

/// Apply the active rung to a pass config: the `serial` rung forces
/// [`PassConfig::serial`], every other case is a plain clone.
pub fn adjust_pass(cfg: &PassConfig) -> PassConfig {
    match current() {
        Some(ctx) if ctx.rung == Rung::Serial => PassConfig::serial(),
        _ => cfg.clone(),
    }
}

/// [`adjust_pass`] + [`adjust_machine`] in one step, preserving a
/// `None` pass config (serial reference runs are already serial).
pub fn adjust(cfg: Option<&PassConfig>, mc: &MachineConfig) -> (Option<PassConfig>, MachineConfig) {
    (cfg.map(adjust_pass), adjust_machine(mc))
}

/// Install the supervisor's panic hook (once per process): for panics
/// on supervised threads it captures a backtrace into the cell record
/// and stays silent; unsupervised panics go to the previous hook
/// untouched.
fn install_hook() {
    static HOOK: OnceLock<()> = OnceLock::new();
    HOOK.get_or_init(|| {
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            if let Some(ctx) = current() {
                let bt = std::backtrace::Backtrace::force_capture();
                *lock(&ctx.backtrace) = Some(format!("{info}\n\nstack backtrace:\n{bt}"));
            } else {
                prev(info);
            }
        }));
    });
}

/// Run one supervised attempt of a unit of work at `rung`: the cell
/// context (cancel token with the supervisor's deadline, chaos profile,
/// rung) is installed for the duration, panics are contained and
/// classified, and the pipeline hooks ([`gate`], [`adjust_machine`],
/// [`adjust_pass`]) see the attempt exactly as they would under
/// [`run_cells`]. This is the building block `cedar-serve` drives its
/// per-request retry/backoff ladder with — one HTTP request maps to a
/// sequence of `run_attempt` calls rather than one batch sweep.
pub fn run_attempt<R>(
    sup: &Supervisor,
    label: &str,
    rung: Rung,
    f: impl FnOnce() -> R,
) -> Result<R, CellError> {
    install_hook();
    let token = match sup.deadline {
        Some(d) => CancelToken::with_budget(d),
        None => CancelToken::new(),
    };
    let ctx = Arc::new(CellCtx {
        label: label.to_string(),
        rung,
        chaos: sup.chaos,
        token: token.clone(),
        sim_error: Mutex::new(None),
        backtrace: Mutex::new(None),
    });
    let prev = cedar_par::set_context(Some(ctx.clone()));
    let result = catch_unwind(AssertUnwindSafe(f));
    cedar_par::set_context(prev);
    match result {
        Ok(v) => Ok(v),
        Err(payload) => {
            let sim = lock(&ctx.sim_error).take();
            let backtrace = lock(&ctx.backtrace).take();
            let sim_kind = sim.as_ref().map(|e| e.kind);
            let (kind, msg) = match sim {
                Some(e) if e.is_timeout() => (CellErrorKind::TimedOut, e.to_string()),
                Some(e) => (CellErrorKind::Failed, e.to_string()),
                None if token.expired() => (
                    CellErrorKind::TimedOut,
                    format!(
                        "cell exceeded its wall-clock budget; final panic: {}",
                        panic_message(payload.as_ref())
                    ),
                ),
                None => (CellErrorKind::Panicked, panic_message(payload.as_ref())),
            };
            Err(CellError { kind, msg, sim: sim_kind, backtrace })
        }
    }
}

/// Run every cell under supervision. First pass: all cells in parallel
/// ([`cedar_par::par_map`]) at rung `normal`. Failed cells are then
/// retried serially up the degradation ladder; cells that fail at
/// every rung are quarantined with a crash bundle. The returned
/// [`Sweep`] always covers every input cell.
pub fn run_cells<T, R>(
    sup: &Supervisor,
    cells: Vec<Cell<T>>,
    f: impl Fn(&T) -> R + Sync,
) -> Sweep<R>
where
    T: Send + Sync,
    R: Send,
{
    let n = cells.len();
    let cells = &cells;
    let f = &f;
    let first: Vec<Result<R, CellError>> = cedar_par::par_map((0..n).collect(), |k| {
        run_attempt(sup, &cells[k].label, Rung::Normal, || f(&cells[k].input))
    });

    let mut sweep =
        Sweep { results: Vec::with_capacity(n), recovered: Vec::new(), quarantined: Vec::new() };
    for (k, outcome) in first.into_iter().enumerate() {
        let cell = &cells[k];
        match outcome {
            Ok(v) => sweep.results.push(Some(v)),
            Err(e0) => {
                let mut errors: Vec<(&'static str, CellError)> = vec![(Rung::Normal.label(), e0)];
                let mut rescued: Option<(R, Rung)> = None;
                for rung in &Rung::LADDER[1..] {
                    match run_attempt(sup, &cell.label, *rung, || f(&cell.input)) {
                        Ok(v) => {
                            rescued = Some((v, *rung));
                            break;
                        }
                        Err(e) => errors.push((rung.label(), e)),
                    }
                }
                match rescued {
                    Some((v, rung)) => {
                        sweep.recovered.push(Recovery {
                            cell: cell.label.clone(),
                            rung: rung.label(),
                            errors: errors.iter().map(|(r, e)| (*r, e.msg.clone())).collect(),
                        });
                        sweep.results.push(Some(v));
                    }
                    None => {
                        let src = cell.source.as_deref();
                        let bundle = write_quarantine_bundle(sup, &cell.label, src, &errors);
                        let last = &errors.last().expect("ladder ran").1;
                        sweep.quarantined.push(Quarantine {
                            cell: cell.label.clone(),
                            kind: last.kind.as_str(),
                            attempts: errors
                                .iter()
                                .map(|(r, e)| (*r, e.kind.as_str(), e.msg.clone()))
                                .collect(),
                            bundle,
                        });
                        sweep.results.push(None);
                    }
                }
            }
        }
    }
    sweep
}

/// Supervise a single artifact-level job (a whole figure, an ablation
/// sweep) as one cell.
pub fn run_cell<R: Send>(
    sup: &Supervisor,
    label: impl Into<String>,
    f: impl Fn() -> R + Sync,
) -> Sweep<R> {
    run_cells(sup, vec![Cell::new(label, ())], |_: &()| f())
}

/// Strip a Fortran source to the lines that matter for reproduction:
/// comment (`!`) and blank lines go, trailing whitespace goes.
fn minimize_source(src: &str) -> String {
    let mut out = String::new();
    for line in src.lines() {
        let t = line.trim_end();
        if t.trim_start().is_empty() || t.trim_start().starts_with('!') {
            continue;
        }
        out.push_str(t);
        out.push('\n');
    }
    out
}

/// The digest a quarantined cell's bundle is keyed by: the *minimized
/// source* when the cell carries one (so the same failure found under
/// different labels — two machines over one workload, two service
/// requests with one program, two fuzz seeds shrinking to one
/// reproducer — shares a single bundle directory), else the label.
pub fn bundle_digest(label: &str, minimized_source: Option<&str>) -> u64 {
    match minimized_source {
        Some(src) => fnv1a(src.as_bytes()),
        None => fnv1a(format!("label:{label}").as_bytes()),
    }
}

/// Serializes bundle-directory writes so concurrent quarantines (service
/// worker threads, parallel sweeps) never interleave a `hits.txt`
/// append with a first-write of the same directory. This only covers
/// *in-process* racers; cross-process safety comes from `O_APPEND`
/// hit appends ([`append_hit`]) and `create_new` on `bundle.json`.
fn bundle_lock() -> &'static Mutex<()> {
    static L: OnceLock<Mutex<()>> = OnceLock::new();
    L.get_or_init(Default::default)
}

/// When a hit happened, finer than a file's mtime: wall-clock
/// nanoseconds, pushed past the last stamp this process handed out so
/// that two hits never share one.
fn hit_stamp() -> u64 {
    use std::sync::atomic::{AtomicU64, Ordering};
    // Relaxed: the stamp publishes nothing but itself.
    static LAST: AtomicU64 = AtomicU64::new(0);
    let now = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map_or(0, |d| d.as_nanos() as u64);
    let mut last = LAST.load(Ordering::Relaxed);
    loop {
        let stamp = now.max(last + 1);
        match LAST.compare_exchange_weak(last, stamp, Ordering::Relaxed, Ordering::Relaxed) {
            Ok(_) => return stamp,
            Err(seen) => last = seen,
        }
    }
}

/// Append one hit line, `<label>\t<stamp>`, to `dir/hits.txt`. The
/// file is opened `O_APPEND`, so each line lands atomically even when
/// several *processes* (campaign workers sharing one
/// `CEDAR_BUNDLE_DIR`) quarantine the same failure concurrently — the
/// hit count of a bundle is exact, not last-writer-wins. Counted on
/// read by [`bundle_hits`]; the stamp ([`hit_stamp`]) orders bundles
/// whose `hits.txt` mtimes tie in [`enforce_bundle_cap`].
fn append_hit(dir: &std::path::Path, label: &str) -> Option<()> {
    use std::io::Write;
    let mut f =
        std::fs::OpenOptions::new().append(true).create(true).open(dir.join("hits.txt")).ok()?;
    f.write_all(format!("{label}\t{}\n", hit_stamp()).as_bytes()).ok()
}

/// Write (or re-hit) a crash bundle for a quarantined cell — from
/// [`run_cells`], or from a caller that runs its own ladder (the
/// service's per-request engine). Bundles are **deduplicated by
/// minimized-source digest**: the directory is
/// `<bundle_dir>/<digest as 16 hex chars>/`, created on the first
/// quarantine with `bundle.json` (attempt chain + metadata), `source.f`
/// (minimized Fortran, when the cell carries source), and
/// `backtrace.txt` (deepest captured backtrace). Every quarantine —
/// first or repeat — appends the cell label to `hits.txt`, so the hit
/// count of a bundle is its line count and identical failures across
/// cells/requests/campaigns share one directory instead of multiplying
/// under `target/crash-bundles/`. Returns the bundle directory; I/O
/// failures degrade to `None` rather than panicking — the supervisor
/// must never fail while reporting a failure.
pub fn write_quarantine_bundle(
    sup: &Supervisor,
    label: &str,
    source: Option<&str>,
    errors: &[(&'static str, CellError)],
) -> Option<String> {
    let minimized = source.map(minimize_source);
    let digest = bundle_digest(label, minimized.as_deref());
    let dir = sup.bundle_dir.join(format!("{digest:016x}"));

    let _guard = lock(bundle_lock());
    std::fs::create_dir_all(&dir).ok()?;
    // `create_new` claims first-writer atomically even across
    // processes: exactly one quarantine writes the bundle metadata, the
    // rest only append their hit. (The in-process mutex alone cannot
    // arbitrate two campaign workers racing on a shared bundle dir.)
    let claim =
        std::fs::OpenOptions::new().write(true).create_new(true).open(dir.join("bundle.json"));

    if let Ok(mut bundle_file) = claim {
        use std::io::Write;
        if let Some(src) = &minimized {
            std::fs::write(dir.join("source.f"), src).ok()?;
        }
        let backtrace = errors.iter().rev().find_map(|(_, e)| e.backtrace.as_deref());
        if let Some(bt) = backtrace {
            std::fs::write(dir.join("backtrace.txt"), bt).ok()?;
        }

        let mut w = Writer::document();
        w.key("schema").str("cedar-crash-bundle-v1");
        w.key("digest").str(format_args!("{digest:016x}"));
        w.key("cell").str(label);
        w.key("chaos_seed").opt(sup.chaos, Writer::int);
        let deadline = sup.deadline.map(|d| d.as_secs_f64());
        w.key("deadline_s").opt(deadline, |w, s| w.float(s, format_args!("{s}")));
        w.key("source").opt(minimized.as_ref().map(|_| "source.f"), Writer::str);
        w.key("backtrace").opt(backtrace.map(|_| "backtrace.txt"), Writer::str);
        w.key("hits").str("hits.txt");
        w.key("attempts").rows();
        for (rung, e) in errors {
            w.obj().key("rung").str(rung).key("kind").str(e.kind.as_str());
            w.key("error").str(&e.msg).end();
        }
        w.end();
        bundle_file.write_all(w.finish().as_bytes()).ok()?;
    }

    // Every hit — including the first — records its cell label; the
    // bundle's hit count is the line count of this file. Appended
    // `O_APPEND` so concurrent processes never lose counts.
    append_hit(&dir, label)?;
    enforce_bundle_cap(&sup.bundle_dir, BUNDLE_CAP, digest);
    Some(dir.to_string_lossy().into_owned())
}

/// Evict least-recently-hit bundle directories until at most `cap`
/// remain, sparing `keep` (the bundle just written/re-hit). Recency is
/// the mtime of `hits.txt` — every quarantine touches it, so a bundle
/// that keeps firing keeps surviving — and, between bundles whose
/// mtimes tie (file timestamps can be coarser than the gap between two
/// quarantines), the stamp of the last hit line. Each eviction appends
/// `<digest> <hits>` to `<bundle_dir>/evicted.txt` (`O_APPEND`, one
/// line, atomic across processes) before the directory is removed, so
/// the count is preserved: [`bundle_hits`] folds ledger lines back in,
/// including for a digest whose bundle is later recreated.
fn enforce_bundle_cap(root: &std::path::Path, cap: usize, keep: u64) {
    let keep_name = format!("{keep:016x}");
    let Ok(dirents) = std::fs::read_dir(root) else { return };
    let mut bundles: Vec<(PathBuf, String)> = dirents
        .flatten()
        .filter_map(|ent| {
            let name = ent.file_name().to_string_lossy().into_owned();
            // Only 16-hex bundle directories participate; the ledger
            // and any stray files are never eviction candidates.
            let is_digest = name.len() == 16 && name.bytes().all(|b| b.is_ascii_hexdigit());
            (is_digest && ent.path().is_dir()).then(|| (ent.path(), name))
        })
        .collect();
    if bundles.len() <= cap {
        return;
    }
    // The name last, so that even equal keys evict in a fixed order
    // rather than in `read_dir`'s.
    bundles.sort_by_cached_key(|(path, name)| {
        let hits = path.join("hits.txt");
        let mtime = std::fs::metadata(&hits)
            .or_else(|_| std::fs::metadata(path))
            .and_then(|m| m.modified())
            .unwrap_or(std::time::UNIX_EPOCH);
        // A line written before hits carried stamps reads as 0.
        let stamp: u64 = std::fs::read_to_string(&hits)
            .ok()
            .and_then(|s| s.lines().last()?.rsplit_once('\t')?.1.parse().ok())
            .unwrap_or(0);
        (mtime, stamp, name.clone())
    });
    let mut excess = bundles.len() - cap;
    for (path, name) in bundles {
        if excess == 0 {
            break;
        }
        if name == keep_name {
            continue;
        }
        let hits =
            std::fs::read_to_string(path.join("hits.txt")).map(|s| s.lines().count()).unwrap_or(0);
        use std::io::Write;
        if let Ok(mut ledger) =
            std::fs::OpenOptions::new().append(true).create(true).open(root.join("evicted.txt"))
        {
            let _ = ledger.write_all(format!("{name} {hits}\n").as_bytes());
        }
        if std::fs::remove_dir_all(&path).is_ok() {
            excess -= 1;
        }
    }
}

/// Number of quarantines that have landed in a bundle directory: the
/// line count of its `hits.txt`, **plus** any counts recorded for the
/// same digest in the root `evicted.txt` ledger — so evicting a bundle
/// under [`BUNDLE_CAP`] and later recreating it never
/// resets how often the failure has fired. 0 when nothing is recorded.
pub fn bundle_hits(bundle_dir: &str) -> usize {
    let dir = PathBuf::from(bundle_dir);
    let live =
        std::fs::read_to_string(dir.join("hits.txt")).map(|s| s.lines().count()).unwrap_or(0);
    let evicted = match (dir.file_name(), dir.parent()) {
        (Some(name), Some(root)) => {
            let name = name.to_string_lossy();
            std::fs::read_to_string(root.join("evicted.txt"))
                .map(|s| {
                    s.lines()
                        .filter_map(|l| {
                            let (digest, count) = l.split_once(' ')?;
                            (digest == name).then(|| count.trim().parse::<usize>().ok())?
                        })
                        .sum()
                })
                .unwrap_or(0)
        }
        _ => 0,
    };
    live + evicted
}

/// Render a `quarantined` JSON array (no trailing newline): embedded by
/// every sweep report writer so failed cells are first-class citizens
/// of the artifact JSON instead of vanishing from it.
pub fn quarantined_json(q: &[Quarantine]) -> String {
    let mut w = Writer::new();
    w.rows();
    for item in q {
        w.obj().key("cell").str(&item.cell).key("kind").str(item.kind);
        w.key("bundle").opt(item.bundle.as_deref(), Writer::str);
        w.key("attempts").arr();
        for (rung, kind, msg) in &item.attempts {
            w.obj().key("rung").str(rung).key("kind").str(kind).key("error").str(msg).end();
        }
        w.end().end();
    }
    w.finish()
}

/// Render a `recovered` JSON array (no trailing newline).
pub fn recovered_json(r: &[Recovery]) -> String {
    let mut w = Writer::new();
    w.rows();
    for item in r {
        w.obj().key("cell").str(&item.cell).key("rung").str(item.rung).end();
    }
    w.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sup(tag: &str) -> Supervisor {
        Supervisor {
            chaos: None,
            deadline: None,
            bundle_dir: PathBuf::from(format!("target/test-crash-bundles/{tag}")),
        }
    }

    #[test]
    fn clean_cells_need_no_ladder() {
        let cells = (0..8).map(|k| Cell::new(format!("t/c{k}"), k)).collect();
        let sweep = run_cells(&sup("clean"), cells, |&k: &i32| k * 2);
        assert_eq!(
            sweep.results.iter().map(|r| r.unwrap()).collect::<Vec<_>>(),
            (0..8).map(|k| k * 2).collect::<Vec<_>>()
        );
        assert!(sweep.recovered.is_empty());
        assert!(sweep.quarantined.is_empty());
    }

    #[test]
    fn rung_local_failure_recovers_up_the_ladder() {
        let sweep = run_cell(&sup("recover"), "t/flaky", || {
            if rung() == Some("normal") {
                panic!("only normal fails");
            }
            41
        });
        assert_eq!(sweep.results, vec![Some(41)]);
        assert!(sweep.quarantined.is_empty());
        let r = &sweep.recovered[0];
        assert_eq!(r.cell, "t/flaky");
        assert_eq!(r.rung, "no-fast-paths");
        assert_eq!(r.errors.len(), 1);
        assert_eq!(r.errors[0], ("normal", "only normal fails".to_string()));
    }

    #[test]
    fn persistent_failure_quarantines_with_a_crash_bundle() {
        let s = sup("quarantine");
        let cells = vec![Cell::with_source(
            "t/doomed",
            "program p\n! a comment\n\nreal x\nx = 1.0\nend\n",
            (),
        )];
        let sweep = run_cells(&s, cells, |_: &()| -> u32 { panic!("always broken") });
        assert_eq!(sweep.results, vec![None]);
        assert!(sweep.recovered.is_empty());
        let q = &sweep.quarantined[0];
        assert_eq!(q.cell, "t/doomed");
        assert_eq!(q.kind, "panicked");
        assert_eq!(q.attempts.len(), Rung::LADDER.len());
        assert_eq!(
            q.attempts.iter().map(|(r, ..)| *r).collect::<Vec<_>>(),
            vec!["normal", "no-fast-paths", "races-on", "serial"]
        );
        let dir = PathBuf::from(q.bundle.as_ref().expect("bundle written"));
        let bundle = std::fs::read_to_string(dir.join("bundle.json")).unwrap();
        assert!(bundle.contains("\"cell\": \"t/doomed\""), "{bundle}");
        assert!(bundle.contains("\"kind\": \"panicked\""), "{bundle}");
        let src = std::fs::read_to_string(dir.join("source.f")).unwrap();
        assert_eq!(src, "program p\nreal x\nx = 1.0\nend\n", "comments/blanks stripped");
        let bt = std::fs::read_to_string(dir.join("backtrace.txt")).unwrap();
        assert!(bt.contains("always broken"), "backtrace carries the panic: {bt}");
    }

    #[test]
    fn identical_sources_share_one_deduped_bundle() {
        let s = sup("dedupe");
        let _ = std::fs::remove_dir_all(&s.bundle_dir);
        // Two different labels, same source (modulo comments): the
        // digest is over the minimized source, so both quarantines land
        // in one bundle directory and `hits.txt` counts them.
        let src_a = "program q\nreal y\ny = 2.0\nend\n";
        let src_b = "program q\n! different comment\nreal y\ny = 2.0\nend\n";
        let cells =
            vec![Cell::with_source("t/dup-a", src_a, ()), Cell::with_source("t/dup-b", src_b, ())];
        let sweep = run_cells(&s, cells, |_: &()| -> u32 { panic!("shared failure") });
        assert_eq!(sweep.quarantined.len(), 2);
        let a = sweep.quarantined[0].bundle.as_ref().unwrap();
        let b = sweep.quarantined[1].bundle.as_ref().unwrap();
        assert_eq!(a, b, "identical minimized sources must share a bundle dir");
        assert_eq!(bundle_hits(a), 2);
        let hits = std::fs::read_to_string(PathBuf::from(a).join("hits.txt")).unwrap();
        assert!(hits.contains("t/dup-a") && hits.contains("t/dup-b"), "{hits}");
        // Exactly one bundle directory exists under this root.
        let dirs: Vec<_> = std::fs::read_dir(&s.bundle_dir).unwrap().collect();
        assert_eq!(dirs.len(), 1);
    }

    #[test]
    fn concurrent_hit_appends_lose_no_counts() {
        // Simulates multiple worker *processes* sharing a bundle dir:
        // append_hit is called concurrently without the in-process
        // bundle lock. O_APPEND must keep every line.
        let dir = PathBuf::from("target/test-crash-bundles/append-race");
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let threads = 8;
        let per_thread = 50;
        std::thread::scope(|scope| {
            for t in 0..threads {
                let dir = &dir;
                scope.spawn(move || {
                    for k in 0..per_thread {
                        append_hit(dir, &format!("t{t}/hit{k}")).expect("append");
                    }
                });
            }
        });
        assert_eq!(bundle_hits(dir.to_str().unwrap()), threads * per_thread);
    }

    #[test]
    fn repeat_quarantines_append_hits_without_rewriting_metadata() {
        let s = sup("rehit");
        let _ = std::fs::remove_dir_all(&s.bundle_dir);
        let src = "program r\nreal z\nz = 3.0\nend\n";
        for _ in 0..3 {
            let cells = vec![Cell::with_source("t/rehit", src, ())];
            let sweep = run_cells(&s, cells, |_: &()| -> u32 { panic!("boom") });
            assert_eq!(sweep.quarantined.len(), 1);
        }
        let dir = std::fs::read_dir(&s.bundle_dir).unwrap().next().unwrap().unwrap().path();
        assert_eq!(bundle_hits(dir.to_str().unwrap()), 3);
        let bundle = std::fs::read_to_string(dir.join("bundle.json")).unwrap();
        assert!(bundle.ends_with("}\n"), "metadata written exactly once, intact");
    }

    #[test]
    fn bundle_cap_evicts_lru_and_the_ledger_preserves_hit_counts() {
        let s = sup("cap");
        let _ = std::fs::remove_dir_all(&s.bundle_dir);
        let err = || {
            vec![(
                "normal",
                CellError {
                    kind: CellErrorKind::Panicked,
                    msg: "kaboom".into(),
                    sim: None,
                    backtrace: None,
                },
            )]
        };
        // Three distinct failures (distinct sources → distinct digests);
        // the first is hit three times, then falls LRU when the other
        // two arrive and a cap of 2 is enforced.
        let first = write_quarantine_bundle(&s, "t/a", Some("x = 1\nend\n"), &err()).unwrap();
        write_quarantine_bundle(&s, "t/a2", Some("x = 1\nend\n"), &err()).unwrap();
        write_quarantine_bundle(&s, "t/a3", Some("x = 1\nend\n"), &err()).unwrap();
        assert_eq!(bundle_hits(&first), 3);
        // Make the first bundle the least recently hit by the clock
        // eviction reads, not by how long this test sleeps.
        let hour_ago = std::time::SystemTime::now() - Duration::from_secs(3600);
        std::fs::File::options()
            .append(true)
            .open(PathBuf::from(&first).join("hits.txt"))
            .unwrap()
            .set_modified(hour_ago)
            .unwrap();
        write_quarantine_bundle(&s, "t/b", Some("y = 2\nend\n"), &err()).unwrap();
        write_quarantine_bundle(&s, "t/c", Some("z = 3\nend\n"), &err()).unwrap();
        enforce_bundle_cap(&s.bundle_dir, 2, bundle_digest("t/c", Some("z = 3\nend\n")));

        let live: Vec<_> = std::fs::read_dir(&s.bundle_dir)
            .unwrap()
            .flatten()
            .filter(|e| e.path().is_dir())
            .collect();
        assert_eq!(live.len(), 2, "cap of 2 must hold after the third bundle");
        assert!(
            !PathBuf::from(&first).exists(),
            "the least-recently-hit bundle must be the one evicted"
        );
        // The ledger keeps the evicted digest's count — both directly
        // and through a recreated bundle for the same failure.
        assert_eq!(bundle_hits(&first), 3, "evicted counts must survive in the ledger");
        let again = write_quarantine_bundle(&s, "t/a4", Some("x = 1\nend\n"), &err()).unwrap();
        assert_eq!(again, first, "same minimized source → same digest → same dir");
        assert_eq!(bundle_hits(&again), 4, "ledger + fresh hit");
        // By itself a quarantine evicts only past `BUNDLE_CAP`.
        let live =
            std::fs::read_dir(&s.bundle_dir).unwrap().flatten().filter(|e| e.path().is_dir());
        assert_eq!(live.count(), 3);
    }

    #[test]
    fn bundle_cap_breaks_mtime_ties_by_hit_stamp() {
        let s = sup("cap-ties");
        let _ = std::fs::remove_dir_all(&s.bundle_dir);
        let err = [(
            "normal",
            CellError {
                kind: CellErrorKind::Panicked,
                msg: "kaboom".into(),
                sim: None,
                backtrace: None,
            },
        )];
        // Hit in the order a, b, c, a: b is now the least recently hit.
        let (a, b, c) = ("x = 1\nend\n", "y = 2\nend\n", "z = 3\nend\n");
        let dirs: Vec<String> = [("t/a", a), ("t/b", b), ("t/c", c), ("t/a2", a)]
            .iter()
            .map(|(label, src)| write_quarantine_bundle(&s, label, Some(src), &err).unwrap())
            .collect();
        // A file system with coarse timestamps: every mtime the same.
        let instant = std::time::SystemTime::now();
        for d in &dirs {
            std::fs::File::options()
                .append(true)
                .open(PathBuf::from(d).join("hits.txt"))
                .unwrap()
                .set_modified(instant)
                .unwrap();
        }
        enforce_bundle_cap(&s.bundle_dir, 2, bundle_digest("t/c", Some(c)));
        assert!(!PathBuf::from(&dirs[1]).exists(), "b was hit longest ago");
        assert!(PathBuf::from(&dirs[0]).exists() && PathBuf::from(&dirs[2]).exists());
    }

    #[test]
    fn sim_errors_are_classified_not_panicked() {
        let sweep = run_cell(&sup("simerr"), "t/simfail", || -> u32 {
            let e = SimError::new(SimErrorKind::Deadlock, cedar_ir::Span::new(3), "await(1) stuck");
            note_sim_error(&e);
            panic!("{e}");
        });
        let q = &sweep.quarantined[0];
        assert_eq!(q.kind, "sim-error");
        assert!(q.attempts[0].2.contains("await(1) stuck"));
    }

    #[test]
    fn expired_deadline_is_classified_as_timeout() {
        let s = Supervisor { deadline: Some(Duration::from_millis(1)), ..sup("deadline") };
        let sweep = run_cell(&s, "t/slowpoke", || -> u32 {
            let token = current().expect("supervised cell has a context").token.clone();
            while !token.expired() {
                std::hint::spin_loop();
            }
            panic!("cooperative abort");
        });
        let q = &sweep.quarantined[0];
        assert_eq!(q.kind, "timed-out");
        assert!(q.attempts.iter().all(|(_, k, _)| *k == "timed-out"), "{q:?}");
    }

    #[test]
    fn an_attempt_runs_in_its_cell_and_restores_the_callers_context() {
        let prev = cedar_par::set_context(Some(Arc::new("outer")));
        let seen = run_attempt(&sup("attempt-ok"), "t/one", Rung::RacesOn, || {
            (rung(), current().map(|c| c.label.clone()))
        });
        assert_eq!(seen.unwrap(), (Some("races-on"), Some("t/one".to_string())));
        let outer = cedar_par::context().and_then(|c| c.downcast_ref::<&str>().copied());
        assert_eq!(outer, Some("outer"), "the caller's context is back");
        cedar_par::set_context(prev);
    }

    #[test]
    fn a_panic_inside_the_deadline_is_panicked_with_its_backtrace() {
        let s = Supervisor { deadline: Some(Duration::from_secs(600)), ..sup("attempt-panic") };
        let e = run_attempt(&s, "t/boom", Rung::Normal, || -> u32 { panic!("boom in attempt") })
            .unwrap_err();
        assert_eq!(e.kind, CellErrorKind::Panicked);
        assert_eq!(e.msg, "boom in attempt");
        assert_eq!(e.sim, None);
        let bt = e.backtrace.expect("the hook captured a backtrace");
        assert!(bt.contains("boom in attempt"), "{bt}");
        assert!(current().is_none(), "no cell outlives its attempt");
    }

    #[test]
    fn a_panic_past_the_deadline_times_out_and_keeps_the_panic_text() {
        let s = Supervisor { deadline: Some(Duration::ZERO), ..sup("attempt-late") };
        let e = run_attempt(&s, "t/late", Rung::Normal, || -> u32 { panic!("cooperative abort") })
            .unwrap_err();
        assert_eq!(e.kind, CellErrorKind::TimedOut);
        assert_eq!(e.msg, "cell exceeded its wall-clock budget; final panic: cooperative abort");
    }

    #[test]
    fn adjust_is_identity_without_a_supervisor() {
        let mc = MachineConfig::cedar_config1_scaled();
        let cfg = PassConfig::automatic_1991();
        assert_eq!(format!("{:?}", adjust_machine(&mc)), format!("{mc:?}"));
        assert_eq!(format!("{:?}", adjust_pass(&cfg)), format!("{cfg:?}"));
        assert!(rung().is_none());
        assert!(current().is_none());
    }

    #[test]
    fn adjust_tracks_the_ladder() {
        let seen = Mutex::new(Vec::new());
        let sweep = run_cell(&sup("adjust"), "t/ladder", || -> u32 {
            let mc = adjust_machine(&MachineConfig::cedar_config1_scaled());
            let cfg = adjust_pass(&PassConfig::automatic_1991());
            lock(&seen).push((
                rung().unwrap(),
                mc.fast_paths,
                mc.detect_races,
                mc.cancel.is_some(),
                format!("{cfg:?}") == format!("{:?}", PassConfig::serial()),
            ));
            panic!("drive the ladder");
        });
        assert_eq!(sweep.quarantined.len(), 1);
        let seen = lock(&seen);
        assert_eq!(
            *seen,
            vec![
                ("normal", true, false, true, false),
                ("no-fast-paths", false, false, true, false),
                ("races-on", false, true, true, false),
                ("serial", false, false, true, true),
            ]
        );
    }

    #[test]
    fn quarantined_json_shape() {
        assert_eq!(quarantined_json(&[]), "[]");
        let q = Quarantine {
            cell: "t/x".into(),
            kind: "panicked",
            attempts: vec![("normal", "panicked", "boom \"quoted\"".into())],
            bundle: None,
        };
        let json = quarantined_json(&[q]);
        assert!(json.contains("\"cell\": \"t/x\""), "{json}");
        assert!(json.contains("boom \\\"quoted\\\""), "{json}");
        assert!(json.starts_with("[\n") && json.ends_with("  ]"), "{json}");
    }
}
