//! `selfcheck A B`: compare two sets of runs recorded by `run.sh`
//! against the bounds of `BENCHMARK.json`; exit 1 when they disagree.

use cedar_benchmark::selfcheck::{compare, parse_results, parse_spec};

fn main() {
    let files: Vec<String> = std::env::args().skip(1).collect();
    let [a, b] = files.as_slice() else {
        eprintln!("usage: selfcheck FIRST-SET SECOND-SET");
        std::process::exit(2);
    };
    let read = |path: &str| {
        std::fs::read_to_string(path).unwrap_or_else(|e| {
            eprintln!("selfcheck: {path}: {e}");
            std::process::exit(2);
        })
    };
    let spec_path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let outcome = parse_spec(&read(spec_path)).and_then(|spec| {
        let first = parse_results(&spec, &read(a))?;
        let second = parse_results(&spec, &read(b))?;
        Ok(compare(&spec, &first, &second))
    });
    match outcome {
        Err(e) => {
            eprintln!("selfcheck: {e}");
            std::process::exit(2);
        }
        Ok((report, failures)) => {
            print!("{report}");
            println!("selfcheck: {failures} disagreement(s)");
            std::process::exit(i32::from(failures > 0));
        }
    }
}
