//! Heap allocations made by one application of each transform to sqrt(16).
//!
//! The synthesis kernels work on inline `Copy` truth tables and reused
//! scratch buffers, so their allocation counts are small and repeat exactly
//! for a fixed input. Each transform's count must stay under a ceiling of
//! twice the count measured when the kernels were made allocation-free: a
//! reintroduced heap truth table or per-node map multiplies the count by
//! orders of magnitude and fails here without timing anything.
//!
//! This binary holds a single test because it installs its own global
//! allocator; the counter is per thread, so the harness's own threads do
//! not disturb it.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use boils_circuits::{Benchmark, CircuitSpec};
use boils_synth::Transform;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

fn count_one() {
    // `try_with` fails only while the thread is being torn down.
    let _ = ALLOCATIONS.try_with(|c| c.set(c.get() + 1));
}

/// The system allocator, counting every allocation and reallocation made
/// on the calling thread.
struct Counting;

// SAFETY: every method forwards to `System` with the caller's arguments.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_one();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count_one();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_one();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

fn allocations() -> u64 {
    ALLOCATIONS.with(Cell::get)
}

/// Per-transform ceilings, in `Transform::ALL` order: twice the counts
/// measured on sqrt(16) (identical in debug and release builds). With heap
/// truth tables, per-node hash maps and heap cut leaves the same calls made
/// 74k–452k allocations each, except `balance` and `fraig`.
const CEILINGS: [(Transform, u64); 11] = [
    (Transform::Rewrite, 10_112),
    (Transform::RewriteZ, 6_906),
    (Transform::Refactor, 13_668),
    (Transform::RefactorZ, 17_494),
    (Transform::Resub, 5_046),
    (Transform::ResubZ, 5_014),
    (Transform::Balance, 2_348),
    (Transform::Fraig, 17_708),
    (Transform::Sopb, 4_340),
    (Transform::Blut, 3_746),
    (Transform::Dsdb, 3_716),
];

#[test]
fn each_transform_stays_under_its_allocation_ceiling() {
    let base = CircuitSpec::new(Benchmark::SquareRoot).bits(16).build();
    let mut over = Vec::new();
    for (transform, ceiling) in CEILINGS {
        let before = allocations();
        let out = transform.apply(&base);
        let made = allocations() - before;
        drop(out);
        println!(
            "{:>3} {:<12} {made:>8} allocations",
            transform.code(),
            transform.abc_name()
        );
        if made > ceiling {
            over.push(format!("{transform}: {made} > {ceiling}"));
        }
    }
    assert!(over.is_empty(), "allocation ceilings exceeded: {over:?}");
}
