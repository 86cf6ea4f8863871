//! `serve` — run the restructurer service until told to drain.
//!
//! Deployment settings are flags; the supervisor's `CEDAR_CHAOS`,
//! `CEDAR_CELL_DEADLINE` and `CEDAR_BUNDLE_DIR` are laid over
//! [`ServerConfig::default`], so an attempt's deadline is
//! the 30 s of every in-process server unless the variable says
//! otherwise. The process exits when a client POSTs `/shutdown` and the
//! drain completes.

use cedar_par::cli::Args;
use cedar_serve::{Server, ServerConfig};
use std::num::NonZeroUsize;

const USAGE: &str = "usage: serve [--addr HOST:PORT] [--workers N] [--queue N] [--store DIR]
  --addr HOST:PORT   bind address (default 127.0.0.1:0, i.e. any free port)
  --workers N        worker threads (default 4)
  --queue N          admission queue capacity (default 64)
  --store DIR        persist results in a crash-safe store at DIR; a
                     restarted server replays them byte-identically";

fn main() {
    let mut args = Args::from_env("serve", USAGE);
    let mut cfg = ServerConfig::default();
    cfg.addr = args.value("--addr").unwrap_or(cfg.addr);
    cfg.workers = args.value("--workers").map_or(cfg.workers, NonZeroUsize::get);
    cfg.queue_cap = args.value("--queue").map_or(cfg.queue_cap, NonZeroUsize::get);
    cfg.store_dir = args.value("--store");
    args.finish();
    cfg.engine.sup = cfg.engine.sup.overlay_env();

    let server = Server::start(cfg).unwrap_or_else(|e| args.fail(format!("bind failed: {e}")));
    eprintln!("cedar-serve listening on {}", server.addr());
    eprintln!("POST /restructure to submit work, POST /shutdown to drain and exit");
    server.join();
    eprintln!("cedar-serve drained; exiting");
}
