//! Heap allocations of the compile path: a gate that does not depend
//! on how fast the host happens to be.
//!
//! Counts allocations (`alloc` + `realloc` calls) of parsing, of
//! `restructure` and of each backend's emission over the 22 paper
//! workloads and 200 generated programs. This binary holds one
//! `#[test]` and installs its own counting allocator, so nothing else
//! allocates while it counts; the counts repeat exactly from run to
//! run.
//!
//! Counts at the parent of the streaming writer and the consuming
//! parser (commit 6c95e2a), same inputs, and at the commit that
//! introduced both:
//!
//! ```text
//! stage          parent   bytes/alloc    change   bytes/alloc
//! parse          128866                   56321
//! emit cedar     115945           2.9      2209         150.4
//! emit openmp    191660           1.8     33024          10.5
//! emit serial    113440           1.7      2057          95.8
//! ```
//!
//! The OpenMP emission keeps a structural pre-pass that copies every
//! unit whose loops carry locals or pre/postambles; that copy is what
//! is left of its count.
//!
//! `restructure` counted 215 938 before the dependence tests read one
//! reference table per loop (each access normalized once, not once per
//! pair it is in) and 140 395 after. Every emission gained one
//! allocation then, the shrink that makes its text exact-size: every
//! emitted text, `print_program`'s output and every generated source
//! must have a capacity equal to its length, which is what a corpus
//! that keeps its texts pays for in memory.

use cedar_fuzz::GenProgram;
use cedar_restructure::{restructure, BackendKind, EmitInput, PassConfig};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

struct Counting;

static ALLOCS: AtomicU64 = AtomicU64::new(0);

// SAFETY: every call is forwarded unchanged to `System`; the counter is
// a statistic and publishes no other data.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, l: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.alloc(l)
    }
    unsafe fn dealloc(&self, p: *mut u8, l: Layout) {
        System.dealloc(p, l)
    }
    unsafe fn realloc(&self, p: *mut u8, l: Layout, n: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.realloc(p, l, n)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

fn counted<R>(total: &mut u64, f: impl FnOnce() -> R) -> R {
    let before = ALLOCS.load(Ordering::Relaxed);
    let r = f();
    *total += ALLOCS.load(Ordering::Relaxed) - before;
    r
}

const GENERATED: u64 = 200;

/// (source, free-form?, pass configuration) of every input.
fn inputs() -> Vec<(String, bool, PassConfig)> {
    let mut v: Vec<_> = (0..GENERATED)
        .map(|s| {
            let src = GenProgram::generate(s).render().source;
            assert_eq!(src.capacity(), src.len(), "generated program {s} is not exact-size");
            (src, true, PassConfig::automatic_1991())
        })
        .collect();
    let mut pool = cedar_workloads::table1_workloads();
    pool.extend(cedar_workloads::table2_workloads());
    v.extend(pool.into_iter().map(|w| (w.source, false, PassConfig::manual_improved())));
    v
}

/// Ceiling of each stage: the count of the introducing commit with 1.5×
/// headroom. Parse stays more than 1.5× under the parent, the three
/// emissions together more than 5× under it, `restructure` under the
/// count it had before the reference table.
const CEILINGS: [(&str, u64); 5] = [
    ("parse", 84_481),
    ("restructure", 210_592),
    ("emit cedar", 3_313),
    ("emit openmp", 49_536),
    ("emit serial", 3_085),
];

/// Cedar and serial emission are pure printing: at least this many
/// output bytes per allocation.
const BYTES_PER_ALLOC_FLOOR: f64 = 32.0;

#[test]
fn compile_path_allocations_stay_under_their_ceilings() {
    let inputs = inputs();
    let mut allocs = [0u64; 5];
    let mut bytes = [0u64; 5];
    for (src, free, cfg) in &inputs {
        bytes[0] += src.len() as u64;
        let ast = counted(&mut allocs[0], || {
            if *free {
                cedar_f77::parse_free(src)
            } else {
                cedar_f77::parse_source(src)
            }
        })
        .expect("input parses");
        let p = cedar_ir::lower(&ast).expect("input lowers");
        let r = counted(&mut allocs[1], || restructure(&p, cfg));
        bytes[1] += src.len() as u64;
        let printed = cedar_ir::print::print_program(&r.program);
        assert_eq!(printed.capacity(), printed.len(), "print_program is not exact-size");
        let input = EmitInput { original: &p, restructured: &r.program, report: &r.report };
        for (i, kind) in BackendKind::all().into_iter().enumerate() {
            let backend = kind.backend();
            let text = counted(&mut allocs[2 + i], || backend.emit(&input));
            assert_eq!(text.capacity(), text.len(), "{kind} emission is not exact-size");
            bytes[2 + i] += text.len() as u64;
        }
    }
    println!("{} programs", inputs.len());
    println!(
        "{:<12} {:>10} {:>10} {:>10} {:>12}",
        "stage", "allocs", "ceiling", "bytes", "bytes/alloc"
    );
    for (i, (stage, ceiling)) in CEILINGS.into_iter().enumerate() {
        let per_alloc = bytes[i] as f64 / allocs[i] as f64;
        println!("{stage:<12} {:>10} {ceiling:>10} {:>10} {per_alloc:>12.1}", allocs[i], bytes[i]);
        assert!(allocs[i] <= ceiling, "{stage}: {} allocations > {ceiling}", allocs[i]);
        if matches!(stage, "emit cedar" | "emit serial") {
            assert!(
                per_alloc >= BYTES_PER_ALLOC_FLOOR,
                "{stage}: {per_alloc:.1} bytes per allocation"
            );
        }
    }
}
