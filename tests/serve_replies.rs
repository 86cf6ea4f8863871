//! What a validated `POST /restructure` answers, pinned up to its
//! `service` block.
//!
//! The reply's `serial_cycles`, `parallel_cycles` and `ExecStats`
//! members come from simulations; which simulations is the engine's
//! business (a verdict runs the serial reference and the accepted
//! candidate itself), the numbers are not.
//! `tests/fixtures/serve_replies.txt` holds, for 60 generated requests
//! (the programs `benchmark/`'s `serve_cold` posts on seed 1, backend
//! rotating, so 20 per backend and a cascade in about a third) and
//! three pool programs read back from their serial goldens and posted
//! with `"form": "fixed"`, and two racy programs (one nest demoted, one
//! verdict degraded to serial): the status, a digest of the body before
//! `"service": `, and in the clear the part of it a simulation writes
//! (`stats` and `verification`). Nothing after it is pinned: the
//! `service` block carries wall-clock time.
//!
//! ```text
//! UPDATE_SERVE_REPLIES=1 cargo test -p cedar-serve --test serve_replies
//! ```

use cedar_fuzz::GenProgram;
use cedar_restructure::BackendKind;
use cedar_serve::{Breaker, EngineConfig, ServeRequest};
use std::path::{Path, PathBuf};
use std::time::Duration;

const GENERATED: u64 = 60;
const POOL: [&str; 3] = ["tridag", "toeplz", "TRFD"];

fn root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../..")
}

fn requests() -> Vec<(String, ServeRequest)> {
    let mut out = Vec::new();
    for i in 0..GENERATED {
        // `benchmark/src/inputs.rs::program_seed(1, i)`.
        let seed = 1_000_000 + i;
        let rendered = GenProgram::generate(seed).render();
        let mut req = ServeRequest::new(rendered.source);
        req.watch = rendered.watch.into_iter().map(|w| w.name).collect();
        req.backend = BackendKind::all()[(i % 3) as usize];
        out.push((format!("generated {seed} {}", req.backend), req));
    }
    for name in POOL {
        let path = root().join(format!("tests/golden/{name}.expected.serial.f"));
        let source =
            std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
        let mut req = ServeRequest::new(source);
        req.free_form = false;
        req.watch = vec!["chksum".into()];
        out.push((format!("pool {name} fixed"), req));
    }
    // None of the generated programs needs a second attempt; these two
    // do. The shared temporary costs its nest (accepted on the second
    // attempt, whose task set has no reference run of its own); the
    // tasks race whatever is suppressed, so the verdict degrades to a
    // serial program it could not validate either.
    let demoted = "program p\nparameter (n = 64)\nreal a(n), t\ndo i = 1, n\na(i) = real(i)\n\
                   end do\ncdoall i = 1, n\nt = a(i) * 2.0\na(i) = t + 1.0\nend cdoall\n\
                   x = a(n)\nend\n";
    let degraded = "program p\nreal s\ns = 0.0\ncall ctskstart(add, s, 1.0)\n\
                    call ctskstart(add, s, 2.0)\ncall tskwait\nx = s\nend\n\
                    subroutine add(s, v)\nreal s, v\ns = s + v\nend\n";
    for (label, source) in [("racy nest demoted", demoted), ("racy tasks degraded", degraded)] {
        let mut req = ServeRequest::new(source);
        req.watch = vec!["x".into()];
        out.push((label.into(), req));
    }
    out
}

fn reply_lines() -> Vec<String> {
    let mut engine = EngineConfig::default();
    engine.sup.deadline = None;
    engine.sup.bundle_dir = PathBuf::from("target/test-serve-bundles/replies");
    let breaker = Breaker::new(3, Duration::from_secs(5));
    let mut lines = Vec::new();
    for (label, req) in requests() {
        let handled = cedar_serve::handle(&req, &engine, &breaker);
        let body = &handled.body;
        let head = &body[..body.find("\"service\": ").unwrap_or(body.len())];
        lines.push(format!(
            "{label} status={} fnv1a={:016x} len={}",
            handled.status,
            cedar_store::fnv1a(head.as_bytes()),
            head.len()
        ));
        lines.push(format!("  {}", head[head.find("\"stats\": ").unwrap_or(0)..].trim_end()));
    }
    lines
}

#[test]
fn replies_match_the_recorded_bytes() {
    let got = reply_lines();
    let path = root().join("tests/fixtures/serve_replies.txt");
    if std::env::var("UPDATE_SERVE_REPLIES").is_ok_and(|v| !v.is_empty() && v != "0") {
        std::fs::write(&path, got.join("\n") + "\n").unwrap();
        println!("serve_replies: {} lines written to {}", got.len(), path.display());
        return;
    }
    let want = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
    let want: Vec<&str> = want.lines().collect();
    assert_eq!(want.len(), got.len(), "fixture has a different number of replies");
    for (w, g) in want.iter().zip(&got) {
        assert_eq!(w, g, "a reply moved");
    }
}
