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
//! **One budget of [`jobs`] cores per process.** A thread holds a core
//! while it runs sweep items, and a server request holds one for as
//! long as [`occupy`] runs it. A sweep spawns a helper only for a core
//! that no thread holds, and each helper gives its core back as soon as
//! it runs out of items. So a `par_map` issued from inside a worker
//! (cedar-verify's per-seed sweep under the robustness binary's
//! per-workload sweep, or a verdict on a busy server's worker) runs
//! serially while every core is held, and takes the cores that finished
//! helpers have released. This is Cedar's own rule (§2.2): nested
//! loops share one fixed set of processors instead of adding threads.
//!
//! **The caller is the first worker.** A sweep on `n` workers spawns
//! `n − 1` scoped threads; the calling thread claims item 0 before any
//! of them exists and then keeps claiming like the others, holding a
//! core for as long as it does (a drop guard releases it, also when an
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
use std::cell::{Cell, RefCell};
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};

/// Global override installed by [`with_jobs`]; 0 = no override.
static JOBS_OVERRIDE: AtomicUsize = AtomicUsize::new(0);

/// Cores held process-wide, out of a budget of [`jobs`]: one per thread
/// running sweep items or inside [`occupy`].
static HELD: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    /// Set while this thread holds one of the [`HELD`] cores, so that a
    /// nested sweep or `occupy` on it takes no second one.
    static HOLDS: Cell<bool> = const { Cell::new(false) };

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

/// One of the [`HELD`] cores, given back on drop.
struct Core;

impl Core {
    /// Take a core that no thread holds, if one of the `budget` is free.
    fn reserve(budget: usize) -> Option<Core> {
        HELD.fetch_update(Ordering::SeqCst, Ordering::SeqCst, |held| {
            (held < budget).then_some(held + 1)
        })
        .ok()
        .map(|_| Core)
    }
}

impl Drop for Core {
    fn drop(&mut self) {
        HELD.fetch_sub(1, Ordering::SeqCst);
    }
}

/// The calling thread's hold on a core, released on drop (also when a
/// panic unwinds past it). A thread holds at most one: a second hold
/// takes nothing.
struct Holding(Option<Core>);

impl Holding {
    /// Hold a core for the calling thread, counted even past the budget:
    /// the thread runs either way, and helpers are spawned only below it.
    fn take() -> Holding {
        if HOLDS.with(|h| h.replace(true)) {
            return Holding(None);
        }
        HELD.fetch_add(1, Ordering::SeqCst);
        Holding(Some(Core))
    }

    /// Hold `core`, reserved for the calling thread by its spawner.
    fn adopt(core: Core) -> Holding {
        HOLDS.with(|h| h.set(true));
        Holding(Some(core))
    }
}

impl Drop for Holding {
    fn drop(&mut self) {
        if self.0.is_some() {
            HOLDS.with(|h| h.set(false));
        }
    }
}

/// Run `f` holding one of the process's [`jobs`] cores, so that sweeps
/// elsewhere spawn no helper for it. `cedar-serve`'s workers answer each
/// request inside it: a lone request's verdict still spreads over the
/// idle cores, and concurrent requests on a busy machine run theirs
/// serially. Nested in a sweep item or another `occupy`, it takes no
/// second core.
pub fn occupy<R>(f: impl FnOnce() -> R) -> R {
    let _hold = Holding::take();
    f()
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

/// The engine of [`par_map`]: map `f` over `items` on the calling
/// thread and one scoped helper per reserved core in `cores`, catching
/// per-item panics so a failing item can never abort the scoped join.
/// Results come back in input order.
fn supervised_map<T, R, F>(items: Vec<T>, cores: Vec<Core>, f: &F) -> Vec<Result<R, PanicPayload>>
where
    T: Send,
    R: Send,
    F: Fn(T) -> R + Sync,
{
    let n = items.len();
    // Each input and each output slot gets its own mutex so workers
    // never contend except on the claim counter; `take()` moves the
    // item into the worker, and results land in index order.
    let input: Vec<Mutex<Option<T>>> = items.into_iter().map(|t| Mutex::new(Some(t))).collect();
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
        for core in cores {
            let inherited = inherited.clone();
            // A helper gives its core back when it runs out of items,
            // not at the join, so a nested sweep still running elsewhere
            // can take it.
            scope.spawn(move || {
                let _hold = Holding::adopt(core);
                set_context(inherited);
                work(next.fetch_add(1, Ordering::Relaxed));
            });
        }
        // The caller already has the context and its core.
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

/// Map `f` over `items` on the calling thread and a helper for each
/// free core of the [`jobs`] budget (at most one fewer than the items),
/// returning results in input order (slot `k` of the output is `f(items[k])`,
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
    let _hold = Holding::take();
    let budget = jobs();
    let cores: Vec<Core> = (1..budget.min(n)).map_while(|_| Core::reserve(budget)).collect();
    if cores.is_empty() {
        return items.into_iter().map(f).collect();
    }

    let mut out = Vec::with_capacity(n);
    let mut first_panic: Option<PanicPayload> = None;
    for r in supervised_map(items, cores, &f) {
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
    use std::sync::{Barrier, MutexGuard};

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

    /// Cores held right now, out of the budget.
    fn held() -> usize {
        HELD.load(Ordering::SeqCst)
    }

    #[test]
    fn nested_calls_degrade_to_serial() {
        let _jobs = hold_jobs();
        // All four outer items run at once, each on its own thread (the
        // barrier lets none through until four have arrived), and none
        // leaves before every inner sweep is done: all four cores are
        // held throughout, so no inner sweep may spawn.
        let (arrive, leave) = (Barrier::new(4), Barrier::new(4));
        let inner_on_own_thread = with_jobs(4, || {
            par_map(vec![0usize; 4], |_| {
                arrive.wait();
                assert_eq!(held(), 4);
                let me = std::thread::current().id();
                let inner = par_map(vec![1usize, 2, 3], |_| std::thread::current().id());
                leave.wait();
                inner.iter().all(|&id| id == me)
            })
        });
        assert_eq!(inner_on_own_thread, vec![true; 4]);
        assert_eq!(held(), 0, "every core is given back");
    }

    #[test]
    fn a_busy_budget_runs_a_sweep_on_its_caller() {
        let _jobs = hold_jobs();
        // Two occupied threads hold both cores of a budget of two, so
        // the second one's sweep runs every item itself.
        let (entered, done) = (Barrier::new(2), Barrier::new(2));
        let ran_here = with_jobs(2, || {
            std::thread::scope(|scope| {
                scope.spawn(|| {
                    occupy(|| {
                        entered.wait();
                        done.wait();
                    })
                });
                let ran_here = occupy(|| {
                    entered.wait();
                    assert_eq!(held(), 2);
                    let me = std::thread::current().id();
                    let ran = par_map((0..8usize).collect(), |_| std::thread::current().id());
                    ran.iter().all(|&id| id == me)
                });
                done.wait();
                ran_here
            })
        });
        assert!(ran_here, "a sweep under a full budget spawned a helper");
        assert_eq!(held(), 0);
    }

    #[test]
    fn an_occupied_thread_still_spreads_a_lone_sweep() {
        let _jobs = hold_jobs();
        // The request holds one core of two; its sweep takes the other,
        // so two items that wait for each other finish.
        let both_in = Barrier::new(2);
        let during = with_jobs(2, || {
            occupy(|| {
                let during = par_map(vec![0usize; 2], |_| {
                    let held = held();
                    both_in.wait();
                    held
                });
                assert_eq!(held(), 1, "the helper's core is back");
                during
            })
        });
        assert_eq!(during, vec![2, 2]);
        assert_eq!(held(), 0);
    }

    #[test]
    fn occupy_nested_in_a_sweep_takes_no_second_core() {
        let _jobs = hold_jobs();
        let seen = with_jobs(1, || par_map(vec![0usize], |_| occupy(held)));
        assert_eq!(seen, vec![1]);
        assert_eq!(held(), 0);
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
        assert_eq!(RAN.load(Ordering::SeqCst), 31, "every non-panicking item must still run");
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
                context().and_then(|c| c.downcast_ref::<usize>().copied()).unwrap_or(0)
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
        let ran_on =
            with_jobs(3, || par_map((0..24usize).collect(), |_| std::thread::current().id()));
        assert_eq!(ran_on[0], caller, "item 0 is claimed before any thread is spawned");
        let spawned: std::collections::HashSet<_> =
            ran_on.iter().filter(|&&id| id != caller).collect();
        assert!(spawned.len() <= 2, "3 workers are the caller and at most 2 threads: {spawned:?}");
        // And a lone sweep does get both: three items that wait for each
        // other can only finish on three threads.
        let all_in = Barrier::new(3);
        let held_by = with_jobs(3, || {
            par_map(vec![0usize; 3], |_| {
                // Read before anyone may leave and give a core back.
                let held = held();
                all_in.wait();
                held
            })
        });
        assert_eq!(held_by, vec![3; 3]);
    }

    #[test]
    fn a_nested_call_from_the_callers_own_item_stays_serial() {
        let _jobs = hold_jobs();
        let caller = std::thread::current().id();
        // Budget 2: the caller and one helper hold both cores, and the
        // helper's item waits for the caller's inner sweep to finish.
        let (both, inner_done) = (Barrier::new(2), Barrier::new(2));
        let inner_threads = with_jobs(2, || {
            par_map(vec![0usize, 1], |k| {
                both.wait();
                if k == 1 {
                    inner_done.wait();
                    return (std::thread::current().id(), true);
                }
                // Serial: every inner item runs on the thread of the outer one.
                let me = std::thread::current().id();
                let inner = par_map(vec![0usize; 6], |_| std::thread::current().id());
                inner_done.wait();
                (me, inner.iter().all(|&id| id == me))
            })
        });
        assert_eq!(inner_threads[0].0, caller);
        assert!(inner_threads.iter().all(|&(_, serial)| serial));
        assert_eq!(held(), 0, "and holds no core afterwards");
    }

    #[test]
    fn a_nested_sweep_takes_the_core_a_finished_helper_gave_back() {
        let _jobs = hold_jobs();
        let caller = std::thread::current().id();
        // Budget 2, two outer items: the caller runs item 0 and a helper
        // item 1. While the helper works, the caller's inner sweep is
        // serial; once the helper has run out of items and given its
        // core back, the next inner sweep spawns one.
        let helper_working = Barrier::new(2);
        let helper_finish = Barrier::new(2);
        let inner_both = Barrier::new(2);
        let (busy, free) = with_jobs(2, || {
            let out = par_map(vec![0usize, 1], |k| {
                helper_working.wait();
                if k == 1 {
                    helper_finish.wait();
                    return (0, 0);
                }
                let busy = par_map(vec![0usize; 4], |_| held());
                helper_finish.wait();
                // The helper leaves its work loop and drops its core.
                while held() > 1 {
                    std::thread::yield_now();
                }
                let free = par_map(vec![0usize; 2], |_| {
                    let held = held();
                    inner_both.wait();
                    held
                });
                (busy.iter().copied().max().unwrap(), free[0])
            });
            out[0]
        });
        assert_eq!(busy, 2, "caller and helper held both cores");
        assert_eq!(free, 2, "the inner sweep reserved the released core");
        assert_eq!(std::thread::current().id(), caller);
        assert_eq!(held(), 0);
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
        assert_eq!(held(), 0, "the budget is whole after a sweep whose item panicked");
        assert!(!HOLDS.with(Cell::get), "and the caller holds no core");
        let ambient = context().and_then(|c| c.downcast_ref::<&str>().copied());
        assert_eq!(ambient, Some("ambient"), "the caller keeps its context");
        set_context(prev);
    }

    #[test]
    fn occupy_gives_its_core_back_when_it_unwinds() {
        let _jobs = hold_jobs();
        let unwound = std::panic::catch_unwind(|| {
            occupy(|| {
                assert_eq!(held(), 1);
                panic!("request failed")
            })
        });
        assert!(unwound.is_err());
        assert_eq!(held(), 0);
        assert!(!HOLDS.with(Cell::get));
    }
}
