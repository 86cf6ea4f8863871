//! Real `kill -9` test of write-behind persistence, in the style of
//! `store_kill.rs`: an actual child **process** (this test binary
//! re-executed with `SERVE_KILL_CHILD` set) runs a server on a store;
//! the parent posts a stream of distinct requests and sends SIGKILL the
//! moment the last reply has arrived — when the server has answered and
//! may not have appended or synced yet. The window is the one DESIGN.md
//! §15.2 already allows a failed put: the entry is absent (or whole) and
//! the restarted server recomputes (or replays). What may never happen is a torn entry, an entry
//! nobody was sent, or a survivor that differs from its reply.

use cedar_serve::{http, Json, ServeRequest, Server, ServerConfig};
use cedar_store::Store;
use std::io::{BufRead, BufReader};
use std::path::{Path, PathBuf};
use std::time::Duration;

const T: Duration = Duration::from_secs(30);

/// What the child prints before its server's address.
const READY: &str = "serve_kill child listening on ";

fn config(root: &Path) -> ServerConfig {
    let mut cfg =
        ServerConfig { workers: 2, store_dir: Some(root.join("store")), ..ServerConfig::default() };
    cfg.engine.sup.chaos = None;
    cfg.engine.sup.deadline = None;
    cfg.engine.sup.bundle_dir = root.join("bundles");
    cfg
}

/// `n` validated requests with distinct keys.
fn requests(n: usize) -> Vec<ServeRequest> {
    (0..n)
        .map(|i| {
            let mut req = ServeRequest::new(format!(
                "program p\nreal a({0}), s\ninteger i\ns = 0.0\ndo 10 i = 1, {0}\n  a(i) = real(i) * 1.5\n10 continue\ndo 20 i = 1, {0}\n  s = s + a(i)\n20 continue\nprint *, s\nend\n",
                48 + i
            ));
            req.watch.push("s".into());
            req
        })
        .collect()
}

fn post_ok(addr: &str, req: &ServeRequest) -> String {
    let (status, body) = http::post(addr, "/restructure", &req.to_json(), T).unwrap();
    assert_eq!(status, 200, "{body}");
    body
}

/// Child mode: serve on the store the parent named until killed. Runs
/// as a normal no-op test unless the parent set the variable.
#[test]
fn kill_child_server() {
    let Ok(root) = std::env::var("SERVE_KILL_CHILD") else {
        return;
    };
    let server = Server::start(config(Path::new(&root))).unwrap();
    println!("{READY}{}", server.addr());
    // Nobody drains this server: it lives until the SIGKILL.
    server.join();
}

#[test]
fn sigkill_right_after_a_reply_leaves_no_torn_entry() {
    let exe = std::env::current_exe().unwrap();
    // Kill after the first reply, and after longer streams whose earlier
    // puts have had time to land.
    for n in [1, 2, 3, 5, 8] {
        let root = PathBuf::from(format!("target/test-serve-kill/after-{n}"));
        let _ = std::fs::remove_dir_all(&root);
        std::fs::create_dir_all(&root).unwrap();

        let mut child = std::process::Command::new(&exe)
            .args(["--exact", "kill_child_server", "--nocapture"])
            .env("SERVE_KILL_CHILD", &root)
            .stdout(std::process::Stdio::piped())
            .stderr(std::process::Stdio::null())
            .spawn()
            .unwrap();
        let addr = BufReader::new(child.stdout.take().unwrap())
            .lines()
            .find_map(|line| line.unwrap().strip_prefix(READY).map(str::to_string))
            .expect("the child announces its address");

        let requests = requests(n);
        let replies: Vec<String> = requests.iter().map(|req| post_ok(&addr, req)).collect();
        // SIGKILL: no drain, no destructors, no lock release.
        child.kill().unwrap();
        child.wait().unwrap();

        // The dead child's lock went with it; reopening cuts the torn
        // tail of a put the kill interrupted.
        let store = Store::open(root.join("store")).unwrap();
        let log = std::fs::metadata(root.join("store/log")).unwrap().len();
        assert_eq!(log, store.total_bytes(), "after {n}: the log ends on a record");
        let survived: Vec<bool> = requests
            .iter()
            .zip(&replies)
            .map(|(req, reply)| match store.get(req.key()) {
                None => false,
                Some(entry) => {
                    assert_eq!(
                        entry,
                        reply.as_bytes(),
                        "after {n}: a surviving entry is its reply"
                    );
                    true
                }
            })
            .collect();
        let survivors = survived.iter().filter(|s| **s).count();
        assert_eq!(
            store.len(),
            survivors,
            "after {n}: no entry but of a request that was answered"
        );
        assert_eq!(store.stats().corrupt_recovered, 0, "after {n}: nothing verifies as torn");
        drop(store);

        // The restarted server answers every earlier request: verbatim
        // where the entry survived, by recomputing where it did not.
        let server = Server::start(config(&root)).unwrap();
        let addr = server.addr();
        for ((req, reply), survived) in requests.iter().zip(&replies).zip(&survived) {
            let again = post_ok(&addr, req);
            if *survived {
                assert_eq!(&again, reply, "after {n}: a surviving entry replays verbatim");
            }
        }
        let (_, metrics) = http::get(&addr, "/metrics", T).unwrap();
        let store = Json::parse(&metrics).unwrap().get("store").cloned().unwrap();
        assert_eq!(store.u64_at("hits").unwrap(), survivors as u64, "{metrics}");
        assert_eq!(store.u64_at("corrupt_recovered").unwrap(), 0, "{metrics}");
        server.shutdown();
        println!("serve_kill: killed after {n} replies, {survivors} entries had landed");
    }
}
