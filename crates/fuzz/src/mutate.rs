//! Syntactic mutations for parser error-recovery fuzzing.
//!
//! The generator produces only *well-formed* programs; these mutators
//! break them on purpose — truncation, token deletion, line deletion,
//! character garbling — to exercise the f77 parser's recovery paths.
//! The contract under test is narrow: on arbitrary mangled input the
//! recovering entry points must **never panic**, only emit diagnostics
//! (and whatever partial program they salvaged). Mutations are pure
//! functions of `(source, seed)`, so any parser crash they provoke is
//! replayable from two integers.

use crate::rng::Rng;

/// All mutation kinds, in the order [`mutations`] cycles through them.
pub const KINDS: [&str; 5] = ["truncate", "drop-token", "drop-line", "garble-char", "dup-line"];

/// Apply one seeded mutation of the given kind. Returns `None` when the
/// mutation has nothing to chew on (e.g. token deletion on an empty
/// source).
pub fn mutate(source: &str, kind: &str, rng: &mut Rng) -> Option<String> {
    match kind {
        "truncate" => {
            if source.is_empty() {
                return None;
            }
            // Cut at a random char boundary, including mid-line.
            let cut = rng.below(source.len() as u64) as usize;
            let cut = (0..=cut).rev().find(|&i| source.is_char_boundary(i))?;
            Some(source[..cut].to_string())
        }
        "drop-token" => {
            let tokens: Vec<&str> = source.split_inclusive(char::is_whitespace).collect();
            let candidates: Vec<usize> =
                (0..tokens.len()).filter(|&i| !tokens[i].trim().is_empty()).collect();
            if candidates.is_empty() {
                return None;
            }
            let victim = *rng.pick(&candidates);
            Some(tokens.iter().enumerate().filter(|(i, _)| *i != victim).map(|(_, t)| *t).collect())
        }
        "drop-line" => {
            let lines: Vec<&str> = source.lines().collect();
            if lines.is_empty() {
                return None;
            }
            let victim = rng.below(lines.len() as u64) as usize;
            let mut out: Vec<&str> =
                lines.iter().enumerate().filter(|(i, _)| *i != victim).map(|(_, l)| *l).collect();
            out.push(""); // keep the trailing newline
            Some(out.join("\n"))
        }
        "garble-char" => {
            let chars: Vec<char> = source.chars().collect();
            if chars.is_empty() {
                return None;
            }
            let victim = rng.below(chars.len() as u64) as usize;
            const JUNK: [char; 10] = ['@', '#', '$', '%', '^', '&', '~', '`', '|', '\\'];
            let mut out = chars;
            out[victim] = *rng.pick(&JUNK);
            Some(out.into_iter().collect())
        }
        "dup-line" => {
            let lines: Vec<&str> = source.lines().collect();
            if lines.is_empty() {
                return None;
            }
            let victim = rng.below(lines.len() as u64) as usize;
            let mut out: Vec<&str> = Vec::with_capacity(lines.len() + 1);
            for (i, l) in lines.iter().enumerate() {
                out.push(l);
                if i == victim {
                    out.push(l);
                }
            }
            out.push("");
            Some(out.join("\n"))
        }
        other => panic!("unknown mutation kind `{other}`"),
    }
}

/// `count` seeded mutations of `source`, cycling through every kind.
/// Returns `(kind, mutated)` pairs.
pub fn mutations(source: &str, seed: u64, count: usize) -> Vec<(&'static str, String)> {
    let mut rng = Rng::new(seed ^ 0x6d75_7461_7465_2121);
    let mut out = Vec::with_capacity(count);
    for k in 0..count {
        let kind = KINDS[k % KINDS.len()];
        if let Some(m) = mutate(source, kind, &mut rng) {
            out.push((kind, m));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    const SRC: &str = "program p\nreal a(4)\ndo i = 1, 4\na(i) = 1.0\nend do\nend\n";

    #[test]
    fn mutations_are_deterministic_and_differ_from_source() {
        let a = mutations(SRC, 9, 10);
        let b = mutations(SRC, 9, 10);
        assert_eq!(a, b);
        assert_eq!(a.len(), 10);
        assert!(a.iter().any(|(_, m)| m != SRC));
    }

    #[test]
    fn every_kind_produces_something_on_nontrivial_source() {
        let mut rng = Rng::new(1);
        for kind in KINDS {
            assert!(mutate(SRC, kind, &mut rng).is_some(), "{kind}");
        }
    }

    #[test]
    fn truncation_is_a_prefix() {
        let mut rng = Rng::new(5);
        for _ in 0..50 {
            let t = mutate(SRC, "truncate", &mut rng).unwrap();
            assert!(SRC.starts_with(&t));
        }
    }
}
