//! Allocation and footprint gate: what a network holds after it is built,
//! what a subsystem that is off allocates (nothing), and what the steady
//! state allocates per cycle (nothing). The counts are deterministic, unlike
//! timings or resident memory, so they are asserted exactly as bounds.
//!
//! A binary of its own: the counting allocator is global. Each count is
//! taken on the current thread only, so concurrent tests cannot disturb it.

use quarc_core::config::{FaultPlan, NocConfig};
use quarc_sim::{build_any, FaultState, NocSim, QuarcNetwork};
use quarc_workloads::{Synthetic, SyntheticConfig};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

/// This thread's allocation calls (allocations, reallocations and frees)
/// and the bytes it has requested.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
struct Tally {
    calls: usize,
    bytes: usize,
}

thread_local! {
    static TALLY: Cell<Tally> = const { Cell::new(Tally { calls: 0, bytes: 0 }) };
}

fn count(bytes: usize) {
    let _ = TALLY.try_with(|t| {
        let Tally { calls, bytes: total } = t.get();
        t.set(Tally { calls: calls + 1, bytes: total + bytes });
    });
}

/// The system allocator, counting this thread's calls and requested bytes.
struct Counting;

// SAFETY: every call is forwarded unchanged to the system allocator.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size.saturating_sub(layout.size()));
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        count(0);
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// `f`'s result and the calls and bytes it made on this thread.
fn tally<R>(f: impl FnOnce() -> R) -> (R, Tally) {
    let before = TALLY.with(Cell::get);
    let result = f();
    let after = TALLY.with(Cell::get);
    (result, Tally { calls: after.calls - before.calls, bytes: after.bytes - before.bytes })
}

const MIB: usize = 1 << 20;

#[test]
fn a_fault_free_quarc_network_at_n16384_allocates_at_most_12_mib() {
    let cfg = NocConfig::quarc(16_384);
    assert!(cfg.fault.is_empty() && !cfg.recovery.enabled());
    let (net, built) = tally(|| QuarcNetwork::new(cfg));
    eprintln!("Quarc n=16384: {} bytes in {} calls", built.bytes, built.calls);
    assert!(built.bytes <= 12 * MIB, "building took {:.2} MiB", built.bytes as f64 / MIB as f64);
    assert_eq!(net.num_nodes(), 16_384);
}

#[test]
fn an_empty_fault_plan_allocates_nothing() {
    let (state, t) =
        tally(|| FaultState::new(&FaultPlan::NONE, 16_384, 65_536, |l| l / 4, |_| true));
    assert!(!state.any());
    assert_eq!(t.bytes, 0, "an empty plan's fault state allocated {} bytes", t.bytes);
}

#[test]
fn the_steady_state_allocates_nothing() {
    for cfg in
        [NocConfig::quarc(64), NocConfig::spidergon(64), NocConfig::mesh(64), NocConfig::torus(64)]
    {
        let mut net = build_any(cfg);
        let mut wl = Synthetic::new(net.num_nodes(), SyntheticConfig::paper(0.004, 8, 0.05, 7));
        (0..30_000).for_each(|_| net.step(&mut wl));
        let ((), t) = tally(|| (0..10_000).for_each(|_| net.step(&mut wl)));
        assert_eq!(
            t,
            Tally::default(),
            "{} n=64 allocated or freed over cycles 30,000–40,000",
            cfg.kind
        );
        assert!(net.metrics().completed_total() > 1_000, "{}: traffic flowed", cfg.kind);
    }
}
