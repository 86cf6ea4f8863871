//! The command line of every binary and of `parallelize_file`, as one
//! table: binary, argv, environment → exit code, whether stdout is
//! empty, a substring of stderr. Recorded from the binaries of the
//! commit before `cedar_par::cli` (ISSUE 20), each with its own argument
//! loop; the rows under a `// parent:` comment are the defects of those
//! binaries, flipped when the loops went, and say what they did then.
//!
//! Cargo sets `CARGO_BIN_EXE_<name>` only while compiling the package
//! that owns the binary, so this file is registered in each of the
//! four packages whose binaries it drives (`cedar-experiments`,
//! `cedar-fuzz`, `cedar-campaign`, `cedar-serve`) and every run checks
//! its own rows. `parallelize_file` is an example of
//! `cedar-experiments`: plain `cargo test` builds it; a filtered run
//! needs `cargo build -p cedar-experiments --example parallelize_file`
//! with the same profile first.

use std::io::{BufRead, BufReader, Read, Write};
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};

macro_rules! exe {
    ($name:literal) => {
        option_env!(concat!("CARGO_BIN_EXE_", $name)).map(PathBuf::from)
    };
}

fn workspace() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../..")
}

/// The executable behind a name of the table, `None` when another
/// package owns it.
fn locate(bin: &str) -> Option<PathBuf> {
    match bin {
        "all" => exe!("all"),
        "races" => exe!("races"),
        "robustness" => exe!("robustness"),
        "fuzz" => exe!("fuzz"),
        "compare" => exe!("compare"),
        "campaign" => exe!("campaign"),
        "serve" => exe!("serve"),
        "loadtest" => exe!("loadtest"),
        "parallelize_file" => {
            exe!("all")?;
            // target/<profile>/deps/cli_usage-… → target/<profile>/examples/
            let me = std::env::current_exe().unwrap();
            let path = me.parent().unwrap().parent().unwrap().join("examples/parallelize_file");
            assert!(
                path.exists(),
                "{} is not built: cargo build -p cedar-experiments --example parallelize_file",
                path.display()
            );
            Some(path)
        }
        other => panic!("no binary `{other}`"),
    }
}

/// The directory the binaries run in (their `target/…` defaults land
/// under it), one per package so that parallel runs do not collide.
/// Holds `bad.f`, a program with a syntax error, and `free.f`, one in
/// free form.
fn scratch() -> PathBuf {
    let dir = workspace().join("target/cli-usage").join(env!("CARGO_PKG_NAME"));
    std::fs::create_dir_all(&dir).unwrap();
    std::fs::write(dir.join("bad.f"), "      PROGRAM T\n      X =\n      END\n").unwrap();
    std::fs::write(
        dir.join("free.f"),
        "program t\nreal a(8)\ndo i = 1, 8\na(i) = i\nend do\nend\n",
    )
    .unwrap();
    dir
}

/// A command in the scratch directory with every `CEDAR_*` variable of
/// the caller's environment removed and `{F}` in `argv` replaced by one
/// of the 22 pool programs.
fn command(exe: &Path, argv: &[&str], env: &[(&str, &str)]) -> Command {
    let golden = workspace().join("tests/golden/ADM.expected.serial.f");
    let mut cmd = Command::new(exe);
    cmd.current_dir(scratch());
    cmd.args(argv.iter().map(|a| a.replace("{F}", golden.to_str().unwrap())));
    for (name, _) in std::env::vars_os() {
        if name.to_string_lossy().starts_with("CEDAR_") {
            cmd.env_remove(name);
        }
    }
    cmd.envs(env.iter().copied());
    cmd
}

/// binary, argv, environment → exit code, stdout is empty, stderr has.
type Row = (
    &'static str,
    &'static [&'static str],
    &'static [(&'static str, &'static str)],
    i32,
    bool,
    &'static str,
);

/// An address no bind or connect succeeds on, refused without a lookup:
/// the smallest command line that gets a server binary past its parser.
const NOWHERE: &str = "127.0.0.1:99999";

#[rustfmt::skip]
const TABLE: &[Row] = &[
    // ---- all
    ("all", &["--bogus"], &[], 2, true, "usage: all"),
    ("all", &["--json"], &[], 2, true, "usage: all"),
    ("all", &[], &[], 0, false, "wrote target/artifacts.json"),
    // parent: `--help` was an unknown argument of six binaries, exit 2.
    ("all", &["--help"], &[], 0, false, ""),
    // parent: a sweep whose report could not be written exited 0.
    ("all", &["--json", "/proc/nope/r.json"], &[], 2, false, "/proc/nope/r.json"),
    ("all", &[], &[("CEDAR_CHAOS", "1")], 2, false, "HARNESS ERROR: 4 cell(s) quarantined"),

    // ---- races
    ("races", &["--bogus"], &[], 2, true, "usage: races"),
    ("races", &["--json"], &[], 2, true, "usage: races"),
    ("races", &[], &[], 0, false, ""),
    // parent: unknown argument, exit 2.
    ("races", &["--help"], &[], 0, false, ""),
    // parent: exit 0 with no report.
    ("races", &["--json", "/proc/nope/r.json"], &[], 2, false, "/proc/nope/r.json"),
    // `CEDAR_CHAOS`: any non-empty string is hashed to a seed.
    ("races", &[], &[("CEDAR_CHAOS", "kaboom")], 2, false, "QUARANTINED `races/table2/BDNA`"),
    ("races", &[], &[("CEDAR_CELL_DEADLINE", "0")], 0, false, ""),
    ("races", &[], &[("CEDAR_CELL_DEADLINE", "2.5")], 0, false, ""),
    // parent: `Duration::from_secs_f64` panicked, exit 101.
    ("races", &[], &[("CEDAR_CELL_DEADLINE", "inf")], 2, true, "CEDAR_CELL_DEADLINE=inf: expected seconds"),
    // parent: switched the watchdog off, exit 0.
    ("races", &[], &[("CEDAR_CELL_DEADLINE", "abc")], 2, true, "CEDAR_CELL_DEADLINE=abc: expected seconds"),
    // parent: a variable nobody reads was accepted in silence, exit 0.
    ("races", &[], &[("CEDAR_ENGINE", "interp")], 2, true, "CEDAR_ENGINE: no such variable"),

    // ---- robustness
    ("robustness", &["--sedes", "3"], &[], 2, true, "usage: robustness"),
    ("robustness", &["--json"], &[], 2, true, "usage: robustness"),
    ("robustness", &["x"], &[], 2, true, "usage: robustness"),
    ("robustness", &["1"], &[], 0, false, ""),
    // parent: unknown argument, exit 2.
    ("robustness", &["--help"], &[], 0, false, ""),
    // parent: perturbed nothing, "22 workloads x 0 seeds: 22 bit-identical", exit 0.
    ("robustness", &["0"], &[], 2, true, "usage: robustness"),
    // parent: the last one won, exit 0.
    ("robustness", &["1", "2"], &[], 2, true, "usage: robustness"),
    // parent: exit 0 with no report.
    ("robustness", &["1", "--json", "/proc/nope/r.json"], &[], 2, false, "/proc/nope/r.json"),

    // ---- parallelize_file
    ("parallelize_file", &[], &[], 0, false, "using the built-in MDG sample"),
    ("parallelize_file", &["{F}"], &[], 0, false, ""),
    ("parallelize_file", &["{F}", "--report"], &[], 0, false, ""),
    ("parallelize_file", &["{F}", "--manual", "--fx80", "--simulate"], &[], 0, false, "speedup"),
    ("parallelize_file", &["{F}", "--validate"], &[], 0, false, "validated on cedar-config1-scaled128"),
    // parent: restructured for the FX/80 and validated on Cedar configuration 1.
    ("parallelize_file", &["{F}", "--fx80", "--validate"], &[], 0, false, "validated on fx80-scaled128"),
    ("parallelize_file", &["bad.f"], &[], 1, true, "syntax error"),
    // parent: flags it did not know were ignored, exit 0; CI `cmp`s two such outputs.
    ("parallelize_file", &["{F}", "--validat"], &[], 2, true, "usage: parallelize_file"),
    // parent: ignored, the MDG sample was restructured (and said so on stderr).
    ("parallelize_file", &["--help"], &[], 0, false, ""),
    // parent: the second file was ignored, exit 0.
    ("parallelize_file", &["{F}", "bad.f"], &[], 2, true, "usage: parallelize_file"),
    // parent: exited 1 for everything (`emit`: 2).
    ("parallelize_file", &["/nope.f"], &[], 2, true, "/nope.f"),
    // parent: `--backend` and `--free` were flags of `emit`; here the
    // one was ignored and its value was a second file, exit 0.
    ("parallelize_file", &["{F}", "--backend"], &[], 2, true, "usage: parallelize_file"),
    ("parallelize_file", &["{F}", "--backend", "x"], &[], 2, true, "usage: parallelize_file"),
    ("parallelize_file", &["{F}", "--backend", "openmp"], &[], 0, false, ""),
    ("parallelize_file", &["free.f", "--backend", "serial", "--free"], &[], 0, false, ""),
    ("parallelize_file", &["free.f"], &[], 1, true, "front end"),

    // ---- fuzz
    ("fuzz", &["--bogus"], &[], 2, true, "usage: fuzz"),
    ("fuzz", &[], &[], 2, true, "usage: fuzz"),
    ("fuzz", &["--seeds"], &[], 2, true, "usage: fuzz"),
    ("fuzz", &["--seeds", "0..1", "--budget"], &[], 2, true, "usage: fuzz"),
    ("fuzz", &["--seeds", "0..1", "--json"], &[], 2, true, "usage: fuzz"),
    ("fuzz", &["--seeds", "0..1", "--config"], &[], 2, true, "usage: fuzz"),
    ("fuzz", &["--seeds", "0..1", "--jobs-check"], &[], 2, true, "usage: fuzz"),
    ("fuzz", &["--seeds", "0..1", "--corpus"], &[], 2, true, "usage: fuzz"),
    ("fuzz", &["--seeds", "0..1", "--emit-corpus"], &[], 2, true, "usage: fuzz"),
    ("fuzz", &["--seeds", "5..5"], &[], 2, true, "usage: fuzz"),
    ("fuzz", &["--seeds", "x"], &[], 2, true, "usage: fuzz"),
    ("fuzz", &["--seeds", "0..1", "--budget", "x"], &[], 2, true, "usage: fuzz"),
    ("fuzz", &["--seeds", "0..1", "--jobs-check", "x"], &[], 2, true, "usage: fuzz"),
    // One seed reaches few passes: findings.
    ("fuzz", &["--seeds", "0..1", "--no-bundles", "--no-shrink"], &[], 1, false, "fuzz: 1 executed, 1 clean"),
    ("fuzz", &["--seeds", "0..2", "--emit-corpus", "corpus"], &[], 0, true, "fuzz: wrote corpus/seed0001"),
    ("fuzz", &["--seeds", "0..1", "--no-bundles", "--json", "/proc/nope/r.json"], &[], 2, true, "/proc/nope/r.json"),
    // parent: unknown argument, exit 2.
    ("fuzz", &["--help"], &[], 0, false, ""),
    // parent: `Duration::from_secs_f64` panicked, exit 101.
    ("fuzz", &["--seeds", "0..1", "--budget", "-1"], &[], 2, true, "usage: fuzz"),
    ("fuzz", &["--seeds", "0..1", "--budget", "nan"], &[], 2, true, "usage: fuzz"),

    // ---- compare
    ("compare", &["--bogus"], &[], 2, true, "usage: compare"),
    ("compare", &["--seeds"], &[], 2, true, "usage: compare"),
    ("compare", &["--config"], &[], 2, true, "usage: compare"),
    ("compare", &["--rel-tol"], &[], 2, true, "usage: compare"),
    ("compare", &["--json"], &[], 2, true, "usage: compare"),
    ("compare", &["--bundle-dir"], &[], 2, true, "usage: compare"),
    ("compare", &["--seeds", "5..5"], &[], 2, true, "usage: compare"),
    ("compare", &["--seeds", "x"], &[], 2, true, "usage: compare"),
    ("compare", &["--config", "atuo"], &[], 2, true, "usage: compare"),
    ("compare", &["--rel-tol", "x"], &[], 2, true, "usage: compare"),
    ("compare", &["--seeds", "0..1"], &[], 0, false, ""),
    ("compare", &["--seeds", "0..1", "--json", "/proc/nope/r.json"], &[], 2, true, "/proc/nope/r.json"),
    ("compare", &["--seeds", "0..1"], &[("CEDAR_JOBS", "2")], 0, false, ""),
    // parent: unknown argument, exit 2.
    ("compare", &["--help"], &[], 0, false, ""),
    // parent: nothing is `> NaN`, "all backends agree", exit 0. The flag is gone.
    ("compare", &["--seeds", "0..1", "--rel-tol", "nan"], &[], 2, true, "usage: compare"),
    // parent: both meant "all cores", exit 0.
    ("compare", &["--seeds", "0..1"], &[("CEDAR_JOBS", "four")], 2, true, "CEDAR_JOBS=four: expected a positive integer"),
    ("compare", &["--seeds", "0..1"], &[("CEDAR_JOBS", "0")], 2, true, "CEDAR_JOBS=0: expected a positive integer"),
    // parent: a mistyped name was no variable at all, exit 0.
    ("compare", &["--seeds", "0..1"], &[("CEDAR_JOB", "4")], 2, true, "CEDAR_JOB: no such variable"),

    // ---- campaign
    ("campaign", &[], &[], 2, true, "campaign work --addr"),
    ("campaign", &["bogus"], &[], 2, true, "campaign work --addr"),
    ("campaign", &["coordinate"], &[], 2, true, "campaign coordinate --addr"),
    ("campaign", &["coordinate", "--bogus"], &[], 2, true, "campaign coordinate --addr"),
    ("campaign", &["coordinate", "--addr"], &[], 2, true, "campaign coordinate --addr"),
    ("campaign", &["coordinate", "--seeds"], &[], 2, true, "campaign coordinate --addr"),
    ("campaign", &["coordinate", "--dir"], &[], 2, true, "campaign coordinate --addr"),
    ("campaign", &["coordinate", "--shard"], &[], 2, true, "campaign coordinate --addr"),
    ("campaign", &["coordinate", "--lease-ms"], &[], 2, true, "campaign coordinate --addr"),
    ("campaign", &["coordinate", "--retry-budget"], &[], 2, true, "campaign coordinate --addr"),
    ("campaign", &["coordinate", "--jobs-check"], &[], 2, true, "campaign coordinate --addr"),
    ("campaign", &["coordinate", "--config"], &[], 2, true, "campaign coordinate --addr"),
    ("campaign", &["coordinate", "--linger-ms"], &[], 2, true, "campaign coordinate --addr"),
    ("campaign", &["coordinate", "--addr", NOWHERE, "--dir", "c-empty", "--seeds", "5..5"], &[], 2, true, "campaign coordinate --addr"),
    ("campaign", &["coordinate", "--addr", NOWHERE, "--dir", "c-x", "--seeds", "x"], &[], 2, true, "campaign coordinate --addr"),
    ("campaign", &["coordinate", "--addr", NOWHERE, "--dir", "c-shard", "--seeds", "0..4", "--shard", "x"], &[], 2, true, "campaign coordinate --addr"),
    ("campaign", &["coordinate", "--addr", NOWHERE, "--dir", "c-retry", "--seeds", "0..4", "--retry-budget", "-1"], &[], 2, true, "campaign coordinate --addr"),
    ("campaign", &["coordinate", "--addr", NOWHERE, "--dir", "c-bind", "--seeds", "0..4"], &[], 2, true, "invalid port value"),
    ("campaign", &["work"], &[], 2, true, "campaign work --addr"),
    ("campaign", &["work", "--bogus"], &[], 2, true, "campaign work --addr"),
    ("campaign", &["work", "--addr"], &[], 2, true, "campaign work --addr"),
    ("campaign", &["work", "--name"], &[], 2, true, "campaign work --addr"),
    ("campaign", &["work", "--budget"], &[], 2, true, "campaign work --addr"),
    ("campaign", &["work", "--poll-ms"], &[], 2, true, "campaign work --addr"),
    ("campaign", &["work", "--corpus"], &[], 2, true, "campaign work --addr"),
    ("campaign", &["work", "--addr", NOWHERE, "--name", "w", "--budget", "x"], &[], 2, true, "campaign work --addr"),
    ("campaign", &["work", "--addr", NOWHERE, "--name", "w"], &[], 2, true, "coordinator unreachable"),
    // parent: neither a subcommand nor an argument of one, exit 2.
    ("campaign", &["--help"], &[], 0, false, ""),
    ("campaign", &["coordinate", "--help"], &[], 0, false, ""),
    ("campaign", &["work", "--help"], &[], 0, false, ""),
    // parent: `Duration::from_secs_f64` panicked, exit 101.
    ("campaign", &["work", "--addr", NOWHERE, "--name", "w", "--budget", "-1"], &[], 2, true, "campaign work --addr"),

    // ---- serve
    ("serve", &["--bogus"], &[], 2, true, "usage: serve"),
    ("serve", &["extra"], &[], 2, true, "usage: serve"),
    ("serve", &["--help"], &[], 0, false, ""),
    ("serve", &["--addr"], &[], 2, true, "usage: serve"),
    ("serve", &["--workers"], &[], 2, true, "usage: serve"),
    ("serve", &["--queue"], &[], 2, true, "usage: serve"),
    ("serve", &["--store"], &[], 2, true, "usage: serve"),
    ("serve", &["--workers", "0"], &[], 2, true, "usage: serve"),
    ("serve", &["--workers", "x"], &[], 2, true, "usage: serve"),
    ("serve", &["--queue", "0"], &[], 2, true, "usage: serve"),
    ("serve", &["--addr", NOWHERE], &[], 2, true, "invalid port value"),
    // parent: one of four variables that duplicated a flag; it was read,
    // and the bind failed as in the row above.
    ("serve", &["--addr", NOWHERE], &[("CEDAR_SERVE_WORKERS", "8")], 2, true, "CEDAR_SERVE_WORKERS: no such variable"),

    // ---- loadtest
    ("loadtest", &["--bogus"], &[], 2, true, "usage: loadtest"),
    ("loadtest", &["--help"], &[], 0, false, ""),
    ("loadtest", &["--requests"], &[], 2, true, "usage: loadtest"),
    ("loadtest", &["--clients"], &[], 2, true, "usage: loadtest"),
    ("loadtest", &["--workers"], &[], 2, true, "usage: loadtest"),
    ("loadtest", &["--queue"], &[], 2, true, "usage: loadtest"),
    ("loadtest", &["--chaos"], &[], 2, true, "usage: loadtest"),
    ("loadtest", &["--out"], &[], 2, true, "usage: loadtest"),
    ("loadtest", &["--requests", "0"], &[], 2, true, "usage: loadtest"),
    ("loadtest", &["--workers", "0"], &[], 2, true, "usage: loadtest"),
    ("loadtest", &["--clients", "x"], &[], 2, true, "usage: loadtest"),
    ("loadtest", &["--requests", "4", "--clients", "2", "--out", "lt.json"], &[], 0, true, "all gates passed; wrote lt.json"),
    ("loadtest", &["--requests", "4", "--clients", "2", "--out", "/proc/nope/lt.json"], &[], 2, true, "/proc/nope/lt.json"),
    ("loadtest", &["--requests", "100", "--out", "lt-chaos.json"], &[("CEDAR_CHAOS", "42")], 0, true, "chaos=42"),
    // parent: a second spelling of `CEDAR_CHAOS`, for this binary only, exit 0.
    ("loadtest", &["--requests", "100", "--out", "lt-chaos.json", "--chaos", "42"], &[], 2, true, "usage: loadtest"),
];

#[test]
fn every_row_of_the_table_holds() {
    let mut wrong = Vec::new();
    let mut ran = 0;
    for &(bin, argv, env, code, quiet, needle) in TABLE {
        let Some(exe) = locate(bin) else { continue };
        ran += 1;
        let out = command(&exe, argv, env).output().unwrap();
        let err = String::from_utf8_lossy(&out.stderr);
        if out.status.code() != Some(code)
            || out.stdout.is_empty() != quiet
            || !err.contains(needle)
        {
            wrong.push(format!(
                "{env:?} {bin} {argv:?}: wanted exit {code}, stdout empty {quiet}, stderr with {needle:?}; \
                 got exit {:?}, {} bytes of stdout, stderr:\n{err}",
                out.status.code(),
                out.stdout.len(),
            ));
        }
    }
    assert!(ran > 0, "this package owns no binary of the table");
    assert!(wrong.is_empty(), "{} of {ran} rows:\n{}", wrong.len(), wrong.join("\n"));
}

/// `serve`'s smallest valid command line runs until it is told to
/// drain, so it is not a row: start it on a free port, read the address
/// from its first line, `POST /shutdown`, and it exits 0.
#[test]
fn serve_starts_on_a_free_port_and_drains_on_shutdown() {
    let Some(exe) = locate("serve") else { return };
    let mut child =
        command(&exe, &["--addr", "127.0.0.1:0", "--workers", "1", "--queue", "1"], &[])
            .stderr(Stdio::piped())
            .spawn()
            .unwrap();
    let mut stderr = BufReader::new(child.stderr.take().unwrap());
    let mut line = String::new();
    stderr.read_line(&mut line).unwrap();
    let addr = line.trim().strip_prefix("cedar-serve listening on ").expect(&line).to_string();
    let mut conn = std::net::TcpStream::connect(&addr).unwrap();
    write!(
        conn,
        "POST /shutdown HTTP/1.1\r\nHost: {addr}\r\nContent-Length: 0\r\nConnection: close\r\n\r\n"
    )
    .unwrap();
    let mut reply = String::new();
    conn.read_to_string(&mut reply).unwrap();
    assert!(reply.starts_with("HTTP/1.1 200"), "{reply}");
    let mut rest = String::new();
    stderr.read_to_string(&mut rest).unwrap();
    assert_eq!(child.wait().unwrap().code(), Some(0), "{rest}");
    assert!(rest.contains("drained"), "{rest}");
}

/// `campaign`'s smallest valid command lines need each other: a
/// coordinator over four seeds in two shards and one worker, both
/// exit 0 and the merged report is on disk.
#[test]
fn a_coordinator_and_a_worker_finish_a_campaign() {
    let Some(exe) = locate("campaign") else { return };
    let dir = scratch().join("pair");
    let _ = std::fs::remove_dir_all(&dir);
    let port = std::net::TcpListener::bind("127.0.0.1:0").unwrap().local_addr().unwrap().port();
    let addr = format!("127.0.0.1:{port}");
    let coordinate = [
        "coordinate",
        "--addr",
        &addr,
        "--seeds",
        "0..4",
        "--dir",
        "pair",
        "--shard",
        "2",
        "--lease-ms",
        "300",
    ];
    let mut coordinator = command(&exe, &coordinate, &[]).stderr(Stdio::piped()).spawn().unwrap();
    let mut stderr = BufReader::new(coordinator.stderr.take().unwrap());
    let mut line = String::new();
    stderr.read_line(&mut line).unwrap();
    assert!(line.contains("coordinating on"), "{line}");
    let worker = command(&exe, &["work", "--addr", &addr, "--name", "w1", "--no-shrink"], &[])
        .output()
        .unwrap();
    let said = String::from_utf8_lossy(&worker.stderr);
    assert_eq!(worker.status.code(), Some(0), "{said}");
    assert!(said.contains("campaign[w1]: done — 2 completed, 0 failed"), "{said}");
    let mut rest = String::new();
    stderr.read_to_string(&mut rest).unwrap();
    assert_eq!(coordinator.wait().unwrap().code(), Some(0), "{rest}");
    assert!(rest.contains("campaign: clean"), "{rest}");
    assert!(dir.join("merged.json").exists());
}

/// `--config atuo` used to journal and report `atuo` while judging
/// every seed under `manual`.
#[test]
fn a_mistyped_config_name_is_usage_not_a_different_configuration() {
    let coordinate = ["coordinate", "--addr", "127.0.0.1:0", "--seeds", "0..4", "--dir", "atuo"];
    let cases = [("campaign", &coordinate[..]), ("fuzz", &["--seeds", "0..1"][..])];
    for (name, args) in cases {
        let Some(exe) = locate(name) else { continue };
        let out = command(&exe, args, &[]).args(["--config", "atuo"]).output().unwrap();
        assert_eq!(out.status.code(), Some(2), "{name} {args:?}");
        assert!(out.stdout.is_empty(), "{name} ran");
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(err.contains("unknown config `atuo`") && err.contains("usage:"), "{name}: {err}");
    }
    assert!(!scratch().join("atuo").exists(), "nothing was written");
}

/// Every binary with the smallest command line that ends by itself,
/// and its options that take a value.
#[rustfmt::skip]
const BINARIES: &[(&str, &[&str], &[&str])] = &[
    ("all", &[], &["--json"]),
    ("races", &[], &["--json"]),
    ("robustness", &["1"], &["--json"]),
    ("parallelize_file", &["{F}"], &["--backend"]),
    ("fuzz", &["--seeds", "0..1", "--no-bundles", "--no-shrink"],
        &["--seeds", "--budget", "--json", "--config", "--jobs-check", "--corpus", "--emit-corpus"]),
    ("compare", &["--seeds", "0..1"], &["--seeds", "--config", "--json", "--bundle-dir"]),
    ("campaign", &["coordinate", "--addr", NOWHERE, "--seeds", "0..4", "--dir", "hostile"],
        &["--addr", "--seeds", "--dir", "--shard", "--lease-ms", "--retry-budget", "--jobs-check", "--config"]),
    ("campaign", &["work", "--addr", NOWHERE, "--name", "w"], &["--addr", "--name", "--budget", "--corpus"]),
    ("serve", &["--addr", NOWHERE], &["--addr", "--workers", "--queue", "--store"]),
    ("loadtest", &["--requests", "4", "--clients", "2", "--out", "hostile.json"],
        &["--requests", "--clients", "--workers", "--queue", "--out"]),
];

const VARIABLES: [&str; 4] =
    ["CEDAR_JOBS", "CEDAR_CHAOS", "CEDAR_CELL_DEADLINE", "CEDAR_BUNDLE_DIR"];

/// No value of an option, of a positional argument or of a variable
/// ends a binary in a Rust panic (exit 101) or a signal: 0, 1 or 2 only.
/// (`--budget -1` and `CEDAR_CELL_DEADLINE=inf` did.)
#[test]
fn hostile_values_are_usage_errors_not_panics() {
    const HOSTILE: [&str; 5] = ["-1", "nan", "inf", "1e400", ""];
    let mut runs: Vec<(String, Command)> = Vec::new();
    for &(bin, base, flags) in BINARIES {
        let Some(exe) = locate(bin) else { continue };
        for token in HOSTILE {
            for &flag in flags {
                // Replace the value the base gives the flag, or add both.
                let mut argv = base.to_vec();
                match argv.iter().position(|a| *a == flag) {
                    Some(at) => argv[at + 1] = token,
                    None => argv.extend([flag, token]),
                }
                runs.push((format!("{bin} {argv:?}"), command(&exe, &argv, &[])));
            }
            // As the positional argument: N_SEEDS, FILE.f, the subcommand.
            if let "robustness" | "parallelize_file" | "campaign" = bin {
                runs.push((format!("{bin} [{token:?}]"), command(&exe, &[token], &[])));
            }
            for var in VARIABLES {
                runs.push((
                    format!("{var}={token:?} {bin} {base:?}"),
                    command(&exe, base, &[(var, token)]),
                ));
            }
        }
    }
    // An unreachable coordinator costs a worker 2 s of backoff: overlap them.
    let runs = std::sync::Mutex::new(runs);
    let ran = std::sync::atomic::AtomicUsize::new(0);
    std::thread::scope(|scope| {
        for _ in 0..4 {
            scope.spawn(|| loop {
                let Some((what, mut cmd)) = runs.lock().unwrap().pop() else { break };
                let out = cmd.output().unwrap();
                let err = String::from_utf8_lossy(&out.stderr);
                assert!(
                    matches!(out.status.code(), Some(0..=2)),
                    "{what}: {:?}\n{err}",
                    out.status
                );
                ran.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
            });
        }
    });
    assert!(ran.into_inner() > 0, "this package owns no binary");
}

/// `--help` is the usage text on stdout and exit 0 for every binary (it
/// was that for three, "unknown argument" for six and ignored by
/// `parallelize_file`), and `Args::finish` has compared the `--option`
/// words of that text with the options the parser asked for: a panic
/// there is exit 101 here.
#[test]
fn help_is_the_usage_text_and_the_usage_text_is_the_parser() {
    for &(bin, base, flags) in BINARIES {
        let Some(exe) = locate(bin) else { continue };
        let subcommand = if bin == "campaign" { &base[..1] } else { &[] };
        for help in ["--help", "-h"] {
            let out = command(&exe, subcommand, &[]).arg(help).output().unwrap();
            let (text, err) =
                (String::from_utf8_lossy(&out.stdout), String::from_utf8_lossy(&out.stderr));
            assert_eq!(out.status.code(), Some(0), "{bin} {subcommand:?} {help}: {err}");
            assert!(
                text.starts_with(&format!("usage: {bin} ")) && err.is_empty(),
                "{bin}: {text}{err}"
            );
            for flag in flags {
                assert!(text.contains(flag), "{bin} {help} does not mention {flag}: {text}");
            }
        }
    }
}

fn rust_files(dir: &Path, out: &mut Vec<PathBuf>) {
    for entry in std::fs::read_dir(dir).unwrap() {
        let entry = entry.unwrap().path();
        if entry.is_dir() {
            rust_files(&entry, out);
        } else if entry.extension().is_some_and(|e| e == "rs") {
            out.push(entry);
        }
    }
}

/// The seam: outside `crates/par/src/cli.rs`, no code above a test
/// module under `crates/*/src`, `crates/*/examples` or `examples/` reads
/// the argument vector or the environment, or exits with a number.
#[test]
fn arguments_variables_and_exit_codes_are_spelled_only_in_cli() {
    let mut files = Vec::new();
    rust_files(&workspace().join("crates"), &mut files);
    files.retain(|f| f.components().any(|c| c.as_os_str() == "src" || c.as_os_str() == "examples"));
    rust_files(&workspace().join("examples"), &mut files);
    files.retain(|f| !f.ends_with("par/src/cli.rs"));
    assert!(files.len() > 100, "crates/*/src was not found: {} files", files.len());
    let mut findings = Vec::new();
    for file in &files {
        let text = std::fs::read_to_string(file).unwrap();
        let code = text.split("\n#[cfg(test)]").next().unwrap();
        for (n, line) in code.lines().enumerate() {
            let literal_after = |call: &str| {
                line.split(call).skip(1).any(|rest| rest.starts_with(|c: char| c.is_ascii_digit()))
            };
            let what = if line.contains("env::args") {
                "reads the argument vector"
            } else if line.contains("env::var") {
                "reads the environment"
            } else if literal_after("ExitCode::from(") || literal_after("exit(") {
                "an exit code spelled as a number"
            } else {
                continue;
            };
            findings.push(format!("{}:{}: {what}: {}", file.display(), n + 1, line.trim()));
        }
    }
    assert!(findings.is_empty(), "go through `cedar_par::cli`:\n{}", findings.join("\n"));
}
