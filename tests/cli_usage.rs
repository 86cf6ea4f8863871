//! The sweep binaries reject a command line they do not understand:
//! usage on stderr, exit code 2 (`exitcode::HARNESS`), nothing run.
//! Before, `robustness --sedes 3` ran the default 8 seeds and exited 0,
//! so a typo in a CI gate passed vacuously.

use std::process::Command;

#[test]
fn sweep_binaries_reject_unknown_arguments_and_a_json_without_a_value() {
    let bins = [
        ("all", env!("CARGO_BIN_EXE_all")),
        ("races", env!("CARGO_BIN_EXE_races")),
        ("robustness", env!("CARGO_BIN_EXE_robustness")),
    ];
    for (name, exe) in bins {
        for args in [&["--sedes", "3"][..], &["--json"][..]] {
            let out = Command::new(exe).args(args).output().unwrap();
            assert_eq!(
                out.status.code(),
                Some(cedar_experiments::exitcode::HARNESS),
                "{name} {args:?}"
            );
            assert!(out.stdout.is_empty(), "{name} {args:?} ran its sweep");
            let err = String::from_utf8_lossy(&out.stderr);
            assert!(err.contains(&format!("usage: {name} ")), "{name} {args:?}: {err}");
        }
    }
}
