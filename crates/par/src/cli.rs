//! The one command line: the only module that reads a process's
//! arguments or a `CEDAR_*` variable, or spells an exit code
//! (`tests/cli_usage.rs` fails on one anywhere else; DESIGN.md §18
//! lists every binary's). A binary asks [`Args`] for each option by
//! name, then calls [`Args::finish`]. Every failure is `NAME: MESSAGE`
//! and the usage text on stderr with [`exitcode::HARNESS`]; `--help` or
//! `-h` anywhere is the usage text on stdout with [`exitcode::OK`].

use std::collections::BTreeSet;
use std::fmt::Display;
use std::path::Path;
use std::process::exit;
use std::str::FromStr;
use std::time::Duration;

/// What a binary's exit code means (README "Exit codes").
pub mod exitcode {
    /// Everything ran and every check passed.
    pub const OK: i32 = 0;
    /// The run completed and a validation, an oracle or a gate failed.
    pub const VALIDATION: i32 = 1;
    /// A bad command line or environment, an unwritable report, a quarantine.
    pub const HARNESS: i32 = 2;
    /// `campaign work` only: `CEDAR_CHAOS` made it vanish holding a lease.
    pub const CRASHED: i32 = 3;

    /// A quarantine leaves the verdict incomplete, so it outranks it.
    pub fn classify(validation_failed: bool, quarantined: usize) -> i32 {
        match (quarantined, validation_failed) {
            (0, false) => OK,
            (0, true) => VALIDATION,
            _ => HARNESS,
        }
    }
}

fn parse_secs(v: &str) -> Option<Duration> {
    Duration::try_from_secs_f64(v.parse().ok()?).ok()
}

/// The four process-wide settings, which every binary honours, and what
/// a non-empty value of each has to be. All else is a flag of a binary.
fn check(name: &str, v: &str) -> Result<(), String> {
    let (ok, want) = match name {
        "CEDAR_JOBS" => (v.parse().is_ok_and(|n: usize| n > 0), "a positive integer"),
        "CEDAR_CELL_DEADLINE" => (parse_secs(v).is_some(), "seconds, finite and not negative"),
        "CEDAR_CHAOS" | "CEDAR_BUNDLE_DIR" => (true, ""),
        _ => return Err(format!("{name}: no such variable")),
    };
    (ok || v.is_empty()).then_some(()).ok_or_else(|| format!("{name}={v}: expected {want}"))
}

/// The value of one of the four variables; unset or empty is `None`.
/// A malformed value panics with the message a binary prints for it at
/// start-up, so that a library reader under `cargo test` (`jobs()`,
/// `Supervisor::from_env`) does not quietly run under a default.
pub fn env<T: FromStr>(name: &str) -> Option<T> {
    let value = std::env::var(name).ok()?;
    let value = Some(value.trim()).filter(|v| !v.is_empty())?;
    check(name, value).unwrap_or_else(|e| panic!("{e}"));
    value.parse().ok()
}

/// [`env`] for a variable that holds seconds.
pub fn env_secs(name: &str) -> Option<Duration> {
    env::<String>(name).and_then(|v| parse_secs(&v))
}

/// An option's name, `--like-this`, as the usage text spells it.
type Name = &'static str;

/// A process's arguments, taken out option by option.
pub struct Args {
    name: &'static str,
    /// Printed by `--help` and under every failure (`campaign` narrows it).
    pub usage: String,
    rest: Vec<String>,
    help: bool,
    asked: BTreeSet<Name>,
}

impl Args {
    /// The arguments of this process, for the binary `name`. Fails on a
    /// `CEDAR_*` variable that is malformed or that no reader knows.
    pub fn from_env(name: &'static str, usage: &str) -> Args {
        let is_help = |a: &String| a == "--help" || a == "-h";
        let (help, rest): (Vec<_>, Vec<_>) = std::env::args().skip(1).partition(is_help);
        let help = !help.is_empty();
        let args = Args { name, usage: usage.into(), rest, help, asked: BTreeSet::new() };
        for (var, value) in std::env::vars_os() {
            if let Some(var) = var.to_str().filter(|var| var.starts_with("CEDAR_")) {
                check(var, value.to_string_lossy().trim()).unwrap_or_else(|e| args.fail(e));
            }
        }
        args
    }

    /// The one way out of a bad command line.
    pub fn fail(&self, message: impl Display) -> ! {
        if self.help {
            println!("{}", self.usage);
            exit(exitcode::OK);
        }
        eprintln!("{}: {message}\n{}", self.name, self.usage);
        exit(exitcode::HARNESS)
    }

    fn take<T, E: Display>(&mut self, name: Name, parse: fn(&str) -> Result<T, E>) -> Option<T> {
        self.asked.insert(name);
        let at = self.rest.iter().position(|a| a == name)?;
        if at + 1 == self.rest.len() {
            self.fail(format!("{name} needs a value"));
        }
        let v = self.rest.drain(at..at + 2).nth(1)?;
        Some(parse(&v).unwrap_or_else(|e| self.fail(format!("{name} {v}: {e}"))))
    }

    /// Whether `name` was given.
    pub fn flag(&mut self, name: Name) -> bool {
        self.asked.insert(name);
        let at = self.rest.iter().position(|a| a == name);
        at.map(|at| self.rest.remove(at)).is_some()
    }

    /// The value after `name`.
    pub fn value<T: FromStr<Err: Display>>(&mut self, name: Name) -> Option<T> {
        self.take(name, str::parse)
    }

    /// `name A..B`, a range of seeds that is not empty.
    pub fn seeds(&mut self, name: Name) -> Option<(u64, u64)> {
        self.take(name, |v| {
            let ends = v.split_once("..");
            let ends = ends.and_then(|(a, b)| Some((a.parse().ok()?, b.parse().ok()?)));
            ends.filter(|(a, b)| a < b).ok_or("expected a non-empty range A..B")
        })
    }

    /// `name SECS`, finite and above zero.
    pub fn secs(&mut self, name: Name) -> Option<Duration> {
        self.take(name, |v| {
            parse_secs(v).filter(|d| !d.is_zero()).ok_or("expected seconds, finite and above 0")
        })
    }

    /// The first argument left that is not an option: ask for it last.
    pub fn positional(&mut self) -> Option<String> {
        let at = self.rest.iter().position(|a| !a.starts_with('-'))?;
        Some(self.rest.remove(at))
    }

    /// Fails on whatever nobody asked for, then answers `--help`. Under
    /// `--help` (and in every debug run) the `--[a-z0-9-]+` words of the usage
    /// text must be the options asked for, so that the two cannot drift.
    pub fn finish(&self) {
        if let Some(a) = self.rest.first() {
            self.fail(format!("unknown argument `{a}`"));
        }
        if self.help || cfg!(debug_assertions) {
            let word = |c: char| c == '-' || c.is_ascii_lowercase() || c.is_ascii_digit();
            let words = self.usage.split(|c| !word(c));
            let documented = words.filter(|w| w.len() > 2 && w.starts_with("--"));
            let documented: BTreeSet<_> = documented.collect();
            assert_eq!(documented, self.asked, "{}: usage text and parser disagree", self.name);
        }
        if self.help {
            self.fail("");
        }
    }

    /// Writes a report the run was asked for, its directory first. From
    /// every binary, a report that cannot be written is a harness error.
    pub fn write_report(&self, path: impl AsRef<Path>, text: &str) {
        let path = path.as_ref();
        let dir = path.parent().map_or(Ok(()), std::fs::create_dir_all);
        if let Err(e) = dir.and_then(|()| std::fs::write(path, text)) {
            self.fail(format!("cannot write {}: {e}", path.display()));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(rest: &[&str]) -> Args {
        let rest = rest.iter().map(|a| a.to_string()).collect();
        Args { name: "t", usage: String::new(), rest, help: false, asked: BTreeSet::new() }
    }

    #[test]
    fn options_come_out_by_name_wherever_they_stand() {
        let mut a = args(&["in.f", "--seeds", "3..9", "--quiet", "--n", "7", "--budget", "0.5", "--to", "-1"]);
        assert_eq!(a.seeds("--seeds"), Some((3, 9)));
        assert!(a.flag("--quiet") && !a.flag("--loud"));
        assert_eq!(a.value::<u32>("--n"), Some(7));
        assert_eq!(a.value::<u32>("--m"), None);
        assert_eq!(a.secs("--budget"), Some(Duration::from_millis(500)));
        // A value is whatever follows its option, dash or not.
        assert_eq!(a.value::<String>("--to").as_deref(), Some("-1"));
        assert_eq!(a.positional().as_deref(), Some("in.f"));
        assert_eq!(a.positional(), None);
        assert!(a.rest.is_empty(), "{:?}", a.rest);
        assert_eq!(a.asked.len(), 7);
    }

    #[test]
    fn the_four_variables_and_what_each_may_hold() {
        for (name, value) in [
            ("CEDAR_JOBS", "4"),
            ("CEDAR_JOBS", ""),
            ("CEDAR_CHAOS", "kaboom"),
            ("CEDAR_CELL_DEADLINE", "0"),
            ("CEDAR_CELL_DEADLINE", "2.5"),
            ("CEDAR_BUNDLE_DIR", "-1"),
        ] {
            assert_eq!(check(name, value), Ok(()), "{name}={value}");
        }
        for (name, value, message) in [
            ("CEDAR_JOBS", "four", "CEDAR_JOBS=four: expected a positive integer"),
            ("CEDAR_JOBS", "0", "CEDAR_JOBS=0: expected a positive integer"),
            ("CEDAR_JOBS", "-1", "CEDAR_JOBS=-1: expected a positive integer"),
            ("CEDAR_CELL_DEADLINE", "abc", "CEDAR_CELL_DEADLINE=abc: expected seconds, finite and not negative"),
            ("CEDAR_CELL_DEADLINE", "-1", "CEDAR_CELL_DEADLINE=-1: expected seconds, finite and not negative"),
            ("CEDAR_CELL_DEADLINE", "nan", "CEDAR_CELL_DEADLINE=nan: expected seconds, finite and not negative"),
            ("CEDAR_CELL_DEADLINE", "inf", "CEDAR_CELL_DEADLINE=inf: expected seconds, finite and not negative"),
            ("CEDAR_CELL_DEADLINE", "1e400", "CEDAR_CELL_DEADLINE=1e400: expected seconds, finite and not negative"),
            ("CEDAR_BUNDLE_CAP", "64", "CEDAR_BUNDLE_CAP: no such variable"),
            ("CEDAR_JOB", "4", "CEDAR_JOB: no such variable"),
            ("CEDAR_ENGINE", "interp", "CEDAR_ENGINE: no such variable"),
            ("CEDAR_SERVE_WORKERS", "", "CEDAR_SERVE_WORKERS: no such variable"),
        ] {
            assert_eq!(check(name, value), Err(message.to_string()));
        }
    }

    /// The library half: with no binary in front of it to refuse the
    /// variable, `jobs()` panics with the message the binary would
    /// print. Setting a variable in this process would race the other
    /// tests' `jobs()` calls, so the test runs itself again as a child.
    #[test]
    fn a_malformed_cedar_jobs_panics_in_the_library_reader() {
        if std::env::var("CEDAR_JOBS").as_deref() == Ok("four") {
            crate::jobs();
            return;
        }
        let me = "cli::tests::a_malformed_cedar_jobs_panics_in_the_library_reader";
        let child = std::process::Command::new(std::env::current_exe().unwrap())
            .args(["--exact", me, "--nocapture"])
            .env("CEDAR_JOBS", "four")
            .output()
            .unwrap();
        let said = String::from_utf8_lossy(&child.stderr);
        assert!(!child.status.success(), "jobs() ran under CEDAR_JOBS=four");
        assert!(said.contains("CEDAR_JOBS=four: expected a positive integer"), "{said}");
    }
}
