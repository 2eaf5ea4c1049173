//! Memory contract of warm snapshots: a [`WarmState`] costs what its
//! structures hold, not what they could hold.
//!
//! A counting `#[global_allocator]` sums the bytes requested while a cold
//! `WarmState` is built and while one captured over each quick workload
//! is cloned. Both must stay well under one L3 tag slab (16,384 sets ×
//! 12 ways × 16 B = 3 MiB): cache tag storage is allocated per group of
//! sets on first fill, so a snapshot copies only the groups its warming
//! touched. A flat, fully preallocated tag array fails here with the
//! byte count.
//!
//! This file must hold exactly one `#[test]`: the libtest runner executes
//! tests of one binary concurrently, and a neighbour's allocations would
//! leak into the measured spans.

use phast_ooo::{CheckConfig, CoreConfig};
use phast_sample::{capture, SampleConfig, WarmState};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

struct CountingAlloc;

static BYTES: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        BYTES.fetch_add(layout.size() as u64, Ordering::Relaxed);
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        BYTES.fetch_add(layout.size() as u64, Ordering::Relaxed);
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        BYTES.fetch_add(new_size.saturating_sub(layout.size()) as u64, Ordering::Relaxed);
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// One L3 tag slab of the Alder Lake configuration.
const L3_SLAB: u64 = 3 << 20;
/// "Well under" one slab.
const LIMIT: u64 = L3_SLAB / 4;

/// Bytes allocated while `f` runs, and its result.
fn allocated<T>(f: impl FnOnce() -> T) -> (u64, T) {
    let before = BYTES.load(Ordering::SeqCst);
    let out = f();
    (BYTES.load(Ordering::SeqCst) - before, out)
}

#[test]
fn warm_states_allocate_for_the_lines_they_hold() {
    let mut cfg = CoreConfig::alder_lake();
    cfg.check = CheckConfig::off();

    let (cold, state) = allocated(|| WarmState::new(&cfg));
    drop(state);
    assert!(cold < LIMIT, "WarmState::new allocated {cold} bytes (limit {LIMIT})");

    for w in phast_workloads::all_workloads().into_iter().take(6) {
        let program = w.build(200_000);
        let set = capture(&program, &cfg, &SampleConfig::new(4, 2_000, 1_000), 100_000)
            .expect("capture runs clean");
        let warmed = set.warm.iter().rev().flatten().next().expect("a warm snapshot");
        let (bytes, copy) = allocated(|| warmed.clone());
        drop(copy);
        assert!(
            bytes < LIMIT,
            "{}: cloning a warm snapshot allocated {bytes} bytes (limit {LIMIT})",
            w.name
        );
    }
}
