#![warn(missing_docs)]
//! Scoped-thread parallel map with **deterministic, index-ordered
//! result collection** — a tiny offline stand-in for rayon used by the
//! experiment harness and the differential validator.
//!
//! Every sweep in the repo (Table 1/2 cells, Fig 6–9 curve points,
//! ablation knob settings, robustness seeds, race-matrix workloads,
//! perturbed-schedule validation runs) consists of *independent* jobs:
//! each one builds its own [`Simulator`](../cedar_sim/index.html) over
//! shared read-only inputs, and the simulator itself is fully
//! deterministic (virtual per-CE clocks, no host-time dependence). So
//! host-level parallelism cannot change any result — only the order in
//! which results *finish*. [`par_map`] removes even that freedom:
//! workers self-schedule over a shared atomic index (work stealing in
//! the Cedar paper's own sense of §2.2.1 self-scheduling loops), but
//! each result is written to the slot of its input index, so the
//! returned `Vec` is byte-for-byte the same as the serial map.
//!
//! Degrees of parallelism, in priority order:
//!
//! 1. [`with_jobs`] override (used by determinism tests),
//! 2. the `CEDAR_JOBS` environment variable (`CEDAR_JOBS=1` is the
//!    debugging escape hatch: pure serial `Iterator::map`, no threads
//!    spawned at all; a value that is not a positive integer is refused,
//!    by the binary at start-up and by [`jobs`] with a panic),
//! 3. `std::thread::available_parallelism()`.
//!
//! **The caller is the first worker.** A sweep on `n` workers spawns
//! `n − 1` scoped threads; the calling thread claims item 0 before any
//! of them exists and then keeps claiming like the others, marked as a
//! worker for as long as it does (a drop guard unmarks it, also when an
//! item's panic is resumed). It already holds the ambient context, so
//! nothing is installed or restored on it. Besides saving a spawn per
//! sweep this keeps memory where it was: glibc gives each thread its
//! own malloc arena, and a caller that parks while spawned threads
//! build and free simulators leaves those blocks in arenas of their
//! own. Measured on the repo benchmark's `validate_pool` (parent: peak
//! RSS 10.8–12.0 MB over seven runs) when a verdict's simulations
//! became one sweep: 13.8–16.1 MB with the caller parked; 12.0–13.7,
//! once 15.9 (and 11.8 under `MALLOC_ARENA_MAX=1`: it is the arenas),
//! with the caller working but the race-collecting run — the one with
//! the large footprint — on whichever thread claimed it; 10.9–11.9 with
//! that run always on the caller. Hence the second half of the rule:
//! which item lands on the caller is fixed (item 0), so a sweep can put
//! its largest item there.
//!
//! Nested calls run serially: a `par_map` issued from inside a worker
//! (e.g. cedar-verify's per-seed sweep under the robustness binary's
//! per-workload sweep) degrades to the serial path instead of
//! oversubscribing the host. The outermost call owns the threads.
//!
//! ## Failure containment
//!
//! Workers isolate per-item panics. In [`par_map`], a panicking item no
//! longer aborts the scoped join mid-sweep: every other item still runs
//! to completion, and the *first panic in index order* is then resumed
//! on the calling thread — the same panic the serial map would have
//! surfaced, with its payload intact. Per-item outcomes and wall-clock
//! budgets are the supervisor's (`cedar-experiments::supervise`): it
//! contains each attempt itself and hands it a [`CancelToken`] that
//! cooperative workloads (the simulator watchdog) poll.
//!
//! ## The shared front door
//!
//! This is the dependency-free base crate of every package that owns a
//! binary, so it also hosts what they share: [`backoff`], [`sip_parts`],
//! [`CancelToken`], and [`cli`], the one reader of argument vectors,
//! `CEDAR_*` variables and exit codes (DESIGN.md §18).

mod backoff;
mod cancel;
pub mod cli;
mod hash;

pub use backoff::backoff;
pub use cancel::CancelToken;
pub use hash::sip_parts;

use std::any::Any;
use std::cell::RefCell;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};

/// Global override installed by [`with_jobs`]; 0 = no override.
static JOBS_OVERRIDE: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    /// Set inside worker threads so nested `par_map` calls degrade to
    /// the serial path instead of spawning a second tier of threads.
    static IN_WORKER: std::cell::Cell<bool> = const { std::cell::Cell::new(false) };

    /// Caller-provided ambient context, inherited by worker threads
    /// (see [`set_context`]).
    static CONTEXT: RefCell<Option<Context>> = const { RefCell::new(None) };
}

/// Ambient context handle inherited by [`par_map`] worker threads; see
/// [`set_context`].
pub type Context = Arc<dyn Any + Send + Sync>;

/// Install an ambient context on the current thread and return the
/// previous one. Worker threads spawned by [`par_map`] inherit a clone
/// of the calling thread's context, so thread-local state that must
/// follow the work across the pool (the experiment supervisor's
/// per-cell record: rung, chaos profile, cancel token) can ride along
/// without every closure threading it explicitly.
pub fn set_context(ctx: Option<Context>) -> Option<Context> {
    CONTEXT.with(|c| std::mem::replace(&mut *c.borrow_mut(), ctx))
}

/// The current thread's ambient context (the caller's own, or the one
/// inherited from the spawning [`par_map`] call when on a worker).
pub fn context() -> Option<Context> {
    CONTEXT.with(|c| c.borrow().clone())
}

/// Effective worker count for the next [`par_map`] call: the
/// [`with_jobs`] override if present, else `CEDAR_JOBS`, else the
/// host's available parallelism. Always ≥ 1.
pub fn jobs() -> usize {
    let ov = JOBS_OVERRIDE.load(Ordering::Relaxed);
    if ov > 0 {
        return ov;
    }
    if let Some(n) = cli::env("CEDAR_JOBS") {
        return n;
    }
    std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1)
}

/// True when called from inside a `par_map` worker thread.
pub fn in_worker() -> bool {
    IN_WORKER.with(|f| f.get())
}

/// Run `f` with the worker count forced to `n`, restoring the previous
/// setting afterwards (used by the determinism tests to compare
/// `CEDAR_JOBS=1` vs `CEDAR_JOBS=N` sweeps inside one process without
/// mutating the environment).
pub fn with_jobs<R>(n: usize, f: impl FnOnce() -> R) -> R {
    assert!(n >= 1, "job count must be >= 1");
    let prev = JOBS_OVERRIDE.swap(n, Ordering::SeqCst);
    struct Restore(usize);
    impl Drop for Restore {
        fn drop(&mut self) {
            JOBS_OVERRIDE.store(self.0, Ordering::SeqCst);
        }
    }
    let _restore = Restore(prev);
    f()
}

/// A worker panic's payload, preserved across the join.
type PanicPayload = Box<dyn Any + Send + 'static>;

/// Render a panic payload as text: the `&str` / `String` message when
/// the panic carried one (the overwhelmingly common case — `panic!`,
/// `assert!`, `expect`), a placeholder otherwise.
pub fn panic_message(payload: &(dyn Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&'static str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "<non-string panic payload>".to_string()
    }
}

/// The engine of [`par_map`]: map `f` over `items` on `workers`
/// workers — the calling thread and scoped threads for the rest —
/// catching per-item panics so a failing item can never abort the
/// scoped join. Results come back in input order.
fn supervised_map<T, R, F>(items: Vec<T>, workers: usize, f: &F) -> Vec<Result<R, PanicPayload>>
where
    T: Send,
    R: Send,
    F: Fn(T) -> R + Sync,
{
    let n = items.len();
    // Each input and each output slot gets its own mutex so workers
    // never contend except on the claim counter; `take()` moves the
    // item into the worker, and results land in index order.
    let input: Vec<Mutex<Option<T>>> =
        items.into_iter().map(|t| Mutex::new(Some(t))).collect();
    let output: Vec<Mutex<Option<Result<R, PanicPayload>>>> =
        (0..n).map(|_| Mutex::new(None)).collect();
    let next = AtomicUsize::new(0);
    let inherited = context();

    // Run item `k`, then claim items off the shared counter until none
    // are left.
    let work = |mut k: usize| {
        while k < n {
            let item = input[k]
                .lock()
                .expect("par_map input slot poisoned")
                .take()
                .expect("par_map slot claimed twice");
            let r = catch_unwind(AssertUnwindSafe(|| f(item)));
            *output[k].lock().expect("par_map output slot poisoned") = Some(r);
            k = next.fetch_add(1, Ordering::Relaxed);
        }
    };
    // Shared by reference, so that each spawned worker's `move` closure
    // moves only its clone of the context.
    let (work, next) = (&work, &next);

    // The caller is the first worker, and item 0 is its first item —
    // claimed before any thread exists, so where a sweep's first item
    // runs does not depend on how fast a thread starts.
    let first = next.fetch_add(1, Ordering::Relaxed);
    std::thread::scope(|scope| {
        for _ in 1..workers {
            let inherited = inherited.clone();
            scope.spawn(move || {
                IN_WORKER.with(|flag| flag.set(true));
                set_context(inherited);
                work(next.fetch_add(1, Ordering::Relaxed));
            });
        }
        // The caller already has the context, and is marked a worker
        // for as long as it runs items, so that a nested call from one
        // of them stays serial.
        struct Unmark(bool);
        impl Drop for Unmark {
            fn drop(&mut self) {
                IN_WORKER.with(|flag| flag.set(self.0));
            }
        }
        let _unmark = Unmark(IN_WORKER.with(|flag| flag.replace(true)));
        work(first);
    });

    output
        .into_iter()
        .map(|m| {
            m.into_inner()
                .expect("par_map output slot poisoned")
                .expect("par_map worker skipped a slot")
        })
        .collect()
}

/// Map `f` over `items` on up to [`jobs`] scoped threads, returning
/// results in input order (slot `k` of the output is `f(items[k])`,
/// exactly as the serial `items.into_iter().map(f).collect()` would
/// produce).
///
/// Jobs are claimed dynamically from a shared atomic counter, so an
/// expensive cell (say, ADM under Config 2) does not leave the other
/// workers idle behind a static partition.
///
/// Panics inside `f` are contained per item: the remaining items all
/// still run, and after the pool joins, the first panic *in index
/// order* is resumed on the calling thread with its original payload —
/// matching the serial path's panic (the serial path itself propagates
/// immediately, unchanged).
pub fn par_map<T, R, F>(items: Vec<T>, f: F) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(T) -> R + Sync,
{
    let n = items.len();
    let workers = jobs().min(n);
    if workers <= 1 || in_worker() {
        return items.into_iter().map(f).collect();
    }

    let mut out = Vec::with_capacity(n);
    let mut first_panic: Option<PanicPayload> = None;
    for r in supervised_map(items, workers, &f) {
        match r {
            Ok(v) => out.push(v),
            Err(p) => {
                if first_panic.is_none() {
                    first_panic = Some(p);
                }
            }
        }
    }
    if let Some(p) = first_panic {
        resume_unwind(p);
    }
    out
}

/// [`par_map`] over an index range: `par_map_range(n, f)[k] == f(k)`.
pub fn par_map_range<R, F>(n: usize, f: F) -> Vec<R>
where
    R: Send,
    F: Fn(usize) -> R + Sync,
{
    par_map((0..n).collect(), f)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU32;
    use std::sync::MutexGuard;

    /// `with_jobs` installs one process-wide override, which every
    /// `jobs()` and so every `par_map` reads: each test here holds this
    /// lock throughout, so no sibling's override is seen. A failed test
    /// poisons it; the next one takes it all the same.
    static JOBS: Mutex<()> = Mutex::new(());

    fn hold_jobs() -> MutexGuard<'static, ()> {
        JOBS.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
    }

    #[test]
    fn results_are_index_ordered() {
        let _jobs = hold_jobs();
        let items: Vec<u64> = (0..100).collect();
        let serial: Vec<u64> = items.iter().map(|x| x * x).collect();
        let par = with_jobs(8, || par_map(items, |x| x * x));
        assert_eq!(par, serial);
    }

    #[test]
    fn serial_mode_spawns_no_threads() {
        let _jobs = hold_jobs();
        // With jobs forced to 1 the map runs on the calling thread, so
        // thread-local state is visible across items.
        thread_local! {
            static SEEN: std::cell::Cell<u32> = const { std::cell::Cell::new(0) };
        }
        let out = with_jobs(1, || {
            par_map(vec![1u32, 2, 3], |x| {
                SEEN.with(|s| s.set(s.get() + x));
                SEEN.with(|s| s.get())
            })
        });
        assert_eq!(out, vec![1, 3, 6]);
    }

    #[test]
    fn nested_calls_degrade_to_serial() {
        let _jobs = hold_jobs();
        let depth_two_workers = with_jobs(4, || {
            par_map(vec![0usize; 4], |_| {
                // Inner call must not spawn: in_worker() is set.
                assert!(in_worker());
                par_map(vec![1usize, 2, 3], |x| x).len()
            })
        });
        assert_eq!(depth_two_workers, vec![3, 3, 3, 3]);
        assert!(!in_worker(), "flag must not leak to the caller");
    }

    #[test]
    fn every_item_runs_exactly_once() {
        let _jobs = hold_jobs();
        static CALLS: AtomicU32 = AtomicU32::new(0);
        CALLS.store(0, Ordering::SeqCst);
        let out = with_jobs(3, || {
            par_map((0..57usize).collect(), |k| {
                CALLS.fetch_add(1, Ordering::SeqCst);
                k
            })
        });
        assert_eq!(out, (0..57).collect::<Vec<_>>());
        assert_eq!(CALLS.load(Ordering::SeqCst), 57);
    }

    #[test]
    fn range_helper_matches_direct() {
        let _jobs = hold_jobs();
        let a = par_map_range(10, |k| k * 3);
        assert_eq!(a, (0..10).map(|k| k * 3).collect::<Vec<_>>());
    }

    #[test]
    fn with_jobs_restores_on_exit() {
        let _jobs = hold_jobs();
        let before = jobs();
        with_jobs(7, || assert_eq!(jobs(), 7));
        assert_eq!(jobs(), before);
    }

    /// Regression: a panicking worker used to abort the whole sweep
    /// through the scoped join (`std::thread::scope` re-panics with a
    /// generic payload once any spawned thread dies). Now every other
    /// item completes and the original payload is resumed afterwards.
    #[test]
    fn worker_panic_is_contained_and_payload_preserved() {
        let _jobs = hold_jobs();
        static RAN: AtomicU32 = AtomicU32::new(0);
        RAN.store(0, Ordering::SeqCst);
        let result = std::panic::catch_unwind(|| {
            with_jobs(4, || {
                par_map((0..32usize).collect(), |k| {
                    if k == 5 {
                        panic!("cell 5 exploded");
                    }
                    RAN.fetch_add(1, Ordering::SeqCst);
                    k
                })
            })
        });
        let payload = result.expect_err("panic must still propagate");
        assert_eq!(panic_message(payload.as_ref()), "cell 5 exploded");
        assert_eq!(
            RAN.load(Ordering::SeqCst),
            31,
            "every non-panicking item must still run"
        );
    }

    #[test]
    fn first_panic_in_index_order_wins() {
        let _jobs = hold_jobs();
        // Items 3 and 20 both panic; the resumed payload must be item
        // 3's regardless of which worker finished first.
        let result = std::panic::catch_unwind(|| {
            with_jobs(8, || {
                par_map((0..32usize).collect(), |k| {
                    if k == 3 || k == 20 {
                        panic!("boom at {k}");
                    }
                    k
                })
            })
        });
        let payload = result.expect_err("panic must propagate");
        assert_eq!(panic_message(payload.as_ref()), "boom at 3");
    }

    #[test]
    fn workers_inherit_the_callers_context() {
        let _jobs = hold_jobs();
        let prev = set_context(Some(Arc::new(42usize)));
        let seen = with_jobs(4, || {
            par_map((0..16usize).collect(), |_| {
                context()
                    .and_then(|c| c.downcast_ref::<usize>().copied())
                    .unwrap_or(0)
            })
        });
        set_context(prev);
        assert!(seen.iter().all(|&v| v == 42), "context lost in workers: {seen:?}");
    }

    // ---- the caller is the first worker ----

    #[test]
    fn the_caller_runs_the_first_item_and_one_thread_fewer_is_spawned() {
        let _jobs = hold_jobs();
        let caller = std::thread::current().id();
        let ran_on = with_jobs(3, || {
            par_map((0..24usize).collect(), |_| std::thread::current().id())
        });
        assert_eq!(
            ran_on[0], caller,
            "item 0 is claimed before any thread is spawned"
        );
        let spawned: std::collections::HashSet<_> =
            ran_on.iter().filter(|&&id| id != caller).collect();
        assert!(
            spawned.len() <= 2,
            "3 workers are the caller and at most 2 threads: {spawned:?}"
        );
    }

    #[test]
    fn a_nested_call_from_the_callers_own_item_stays_serial() {
        let _jobs = hold_jobs();
        let caller = std::thread::current().id();
        let inner_threads = with_jobs(4, || {
            par_map(vec![0usize, 1], |k| {
                assert!(
                    in_worker(),
                    "item {k}: the caller counts as a worker while it works"
                );
                // Serial: every inner item runs on the thread of the outer one.
                let me = std::thread::current().id();
                let inner = par_map(vec![0usize; 6], |_| std::thread::current().id());
                (me, inner.iter().all(|&id| id == me))
            })
        });
        assert_eq!(inner_threads[0].0, caller);
        assert!(inner_threads.iter().all(|&(_, serial)| serial));
        assert!(!in_worker(), "and is the caller again afterwards");
    }

    #[test]
    fn a_panicking_item_leaves_the_caller_unmarked_and_its_context_in_place() {
        let _jobs = hold_jobs();
        let prev = set_context(Some(Arc::new("ambient")));
        let seen = Mutex::new(Vec::new());
        // Item 0 — the caller's own — panics; `par_map` resumes it on the caller.
        let resumed = std::panic::catch_unwind(AssertUnwindSafe(|| {
            with_jobs(2, || {
                par_map(vec![0u32, 1, 2, 3], |k| {
                    assert_ne!(k, 0, "the caller's item");
                    let ambient = context().and_then(|c| c.downcast_ref::<&str>().copied());
                    seen.lock().unwrap().push(ambient);
                })
            })
        }));
        assert!(resumed.is_err());
        assert_eq!(seen.into_inner().unwrap(), vec![Some("ambient"); 3]);
        assert!(
            !in_worker(),
            "the flag is restored after a sweep whose item panicked"
        );
        let ambient = context().and_then(|c| c.downcast_ref::<&str>().copied());
        assert_eq!(ambient, Some("ambient"), "the caller keeps its context");
        set_context(prev);
    }
}
