//! The sweep binaries reject a command line they do not understand:
//! usage on stderr, exit code 2 (`exitcode::HARNESS`), nothing run.
//! Before, `robustness --sedes 3` ran the default 8 seeds and exited 0,
//! so a typo in a CI gate passed vacuously.

//!
//! Cargo sets `CARGO_BIN_EXE_<name>` only while compiling the package
//! that owns the binary, so this file is registered in each of the
//! three packages whose binaries it drives (`cedar-experiments`,
//! `cedar-fuzz`, `cedar-campaign`) and every run checks its own.

use std::process::Command;

macro_rules! exe {
    ($name:literal) => {
        option_env!(concat!("CARGO_BIN_EXE_", $name))
    };
}

#[test]
fn sweep_binaries_reject_unknown_arguments_and_a_json_without_a_value() {
    let bins = [("all", exe!("all")), ("races", exe!("races")), ("robustness", exe!("robustness"))];
    for (name, exe) in bins {
        let Some(exe) = exe else { continue };
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

/// `--config atuo` used to journal and report `atuo` while judging
/// every seed under `manual`.
#[test]
fn a_mistyped_config_name_is_usage_not_a_different_configuration() {
    let coordinate =
        ["coordinate", "--addr", "127.0.0.1:0", "--seeds", "0..4", "--dir", "target/cli-usage-atuo"];
    let cases = [
        ("campaign", exe!("campaign"), &coordinate[..]),
        ("fuzz", exe!("fuzz"), &["--seeds", "0..1"][..]),
    ];
    for (name, exe, args) in cases {
        let Some(exe) = exe else { continue };
        let out = Command::new(exe).args(args).args(["--config", "atuo"]).output().unwrap();
        assert_eq!(out.status.code(), Some(2), "{name} {args:?}");
        assert!(out.stdout.is_empty(), "{name} ran");
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(err.contains("unknown config `atuo`") && err.contains("usage:"), "{name}: {err}");
    }
    assert!(!std::path::Path::new("target/cli-usage-atuo").exists(), "nothing was journaled");
}
