//! Regression-corpus format: self-describing `.f` files under
//! `tests/corpus/`.
//!
//! Every interesting program the fuzzer has ever found (or that we pin
//! for pass coverage) is checked in as plain free-form Fortran with a
//! metadata header in `!` comments, so an entry is simultaneously a
//! valid compiler input and a complete replay recipe:
//!
//! ```text
//! ! cedar-fuzz seed=17 config=manual
//! ! watch s1 approx
//! ! watch a1 exact
//! program fz
//! ...
//! ```
//!
//! `fuzz_corpus.rs` (tier-1) replays every entry through the full
//! oracle stack on each CI run; a restructurer regression that re-breaks
//! an old find fails the build, not a nightly job.

use crate::gen::{Rendered, WatchVar};
use crate::oracle::OracleConfig;
use std::fs;
use std::path::Path;

/// One parsed corpus entry.
#[derive(Debug, Clone)]
pub struct CorpusEntry {
    /// File stem (e.g. `seed0017_reduction`).
    pub name: String,
    /// Generator seed recorded in the header (replay provenance; the
    /// checked-in text is authoritative).
    pub seed: u64,
    /// `manual` or `auto` — selects the [`OracleConfig`].
    pub config: String,
    /// Source + watch list, ready for [`crate::oracle::run_oracles`].
    pub rendered: Rendered,
}

impl CorpusEntry {
    /// The oracle configuration this entry asks for.
    pub fn oracle_config(&self) -> OracleConfig {
        OracleConfig::named(&self.config).expect("parse_entry admits only named configurations")
    }
}

/// Render a corpus file: metadata header + source.
pub fn format_entry(seed: u64, config: &str, rendered: &Rendered) -> String {
    let mut out = format!("! cedar-fuzz seed={seed} config={config}\n");
    for w in &rendered.watch {
        out.push_str(&format!("! watch {} {}\n", w.name, if w.exact { "exact" } else { "approx" }));
    }
    out.push_str(&rendered.source);
    out
}

/// Parse one corpus file's text. Errors are strings — the replay test
/// turns them into assertion failures naming the file.
pub fn parse_entry(name: &str, text: &str) -> Result<CorpusEntry, String> {
    let mut seed = None;
    let mut config = String::from("manual");
    let mut watch = Vec::new();
    for line in text.lines() {
        let Some(meta) = line.strip_prefix("! ") else { continue };
        if let Some(rest) = meta.strip_prefix("cedar-fuzz ") {
            for field in rest.split_whitespace() {
                if let Some(v) = field.strip_prefix("seed=") {
                    seed = Some(v.parse::<u64>().map_err(|e| format!("bad seed: {e}"))?);
                } else if let Some(v) = field.strip_prefix("config=") {
                    if OracleConfig::named(v).is_none() {
                        return Err(format!("unknown config `{v}`"));
                    }
                    config = v.to_string();
                }
            }
        } else if let Some(rest) = meta.strip_prefix("watch ") {
            let mut it = rest.split_whitespace();
            let var = it.next().ok_or("watch line missing variable")?;
            let exact = match it.next() {
                Some("exact") => true,
                Some("approx") => false,
                other => return Err(format!("watch `{var}`: bad exactness {other:?}")),
            };
            watch.push(WatchVar { name: var.to_string(), exact });
        }
    }
    let seed = seed.ok_or("missing `! cedar-fuzz seed=...` header")?;
    if watch.is_empty() {
        return Err("no `! watch ...` lines — nothing for the oracle to check".into());
    }
    Ok(CorpusEntry {
        name: name.to_string(),
        seed,
        config,
        rendered: Rendered { source: text.to_string(), watch },
    })
}

/// Load every `.f` entry in a directory, name order (deterministic
/// replay order regardless of filesystem).
pub fn load_dir(dir: &Path) -> Result<Vec<CorpusEntry>, String> {
    let mut names: Vec<String> = fs::read_dir(dir)
        .map_err(|e| format!("read {}: {e}", dir.display()))?
        .filter_map(|ent| ent.ok())
        .filter_map(|ent| {
            let p = ent.path();
            (p.extension().is_some_and(|x| x == "f"))
                .then(|| p.file_stem().unwrap().to_string_lossy().into_owned())
        })
        .collect();
    names.sort();
    let mut out = Vec::with_capacity(names.len());
    for name in names {
        let path = dir.join(format!("{name}.f"));
        let text =
            fs::read_to_string(&path).map_err(|e| format!("read {}: {e}", path.display()))?;
        out.push(parse_entry(&name, &text).map_err(|e| format!("{name}.f: {e}"))?);
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::GenProgram;

    #[test]
    fn format_then_parse_round_trips() {
        let gp = GenProgram::generate(17);
        let r = gp.render();
        let text = format_entry(17, "manual", &r);
        let e = parse_entry("seed0017", &text).unwrap();
        assert_eq!(e.seed, 17);
        assert_eq!(e.config, "manual");
        assert_eq!(e.rendered.watch, r.watch);
        // The header comments must not break compilation of the entry.
        cedar_ir::compile_free(&e.rendered.source).unwrap();
    }

    #[test]
    fn malformed_headers_are_rejected_with_reasons() {
        assert!(parse_entry("x", "program p\nend\n").unwrap_err().contains("seed"));
        let no_watch = "! cedar-fuzz seed=1 config=manual\nprogram p\nend\n";
        assert!(parse_entry("x", no_watch).unwrap_err().contains("watch"));
        let bad = "! cedar-fuzz seed=1\n! watch s1 sorta\nprogram p\nend\n";
        assert!(parse_entry("x", bad).unwrap_err().contains("exactness"));
    }
}
