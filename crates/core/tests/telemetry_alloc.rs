//! Alloc-count assertion for the telemetry hot path: with the trace
//! sampler disabled (`trace_sample_rate = 0`) and no slow queries, the
//! full per-query telemetry protocol — `begin_query`, stage spans, and
//! `finish_query` — performs **zero heap allocations**. Everything is
//! relaxed atomics; the trace-building closure is never invoked.
//!
//! Same counting-allocator harness as `probe_alloc.rs`; its own binary so
//! the `#[global_allocator]` stays out of the other integration tests.

use gc_core::telemetry::{PipelineStage, QueryTiming, Telemetry};
use gc_core::CacheConfig;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::time::Duration;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

struct CountingAllocator;

// SAFETY: delegates every operation to `System`; the only addition is a
// thread-local counter bump (Cell<u64> is const-initialized and has no
// destructor, so touching it from the allocator cannot recurse or allocate).
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.with(|c| c.set(c.get() + 1));
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCS.with(|c| c.set(c.get() + 1));
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.with(|c| c.set(c.get() + 1));
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOCATOR: CountingAllocator = CountingAllocator;

fn allocations_on_this_thread() -> u64 {
    ALLOCS.with(|c| c.get())
}

#[test]
fn disabled_sampler_allocates_nothing_on_the_query_path() {
    let config = CacheConfig {
        trace_sample_rate: 0.0, // sampling off
        // Default threshold (100 ms) — the synthetic 5 µs "queries" below
        // can never trip the slow-query capture.
        ..CacheConfig::default()
    };
    let telemetry = Telemetry::from_config(&config);

    let before = allocations_on_this_thread();
    for _ in 0..1000 {
        let seq = telemetry.begin_query();
        let mut timing = QueryTiming::default();
        for stage in PipelineStage::ALL {
            let _span = telemetry.span(stage, &mut timing);
        }
        drop(telemetry.mutate_span());
        telemetry.finish_query(seq, Duration::from_micros(5), |_| {
            unreachable!("disabled sampler must never build a trace")
        });
    }
    let after = allocations_on_this_thread();
    assert_eq!(after - before, 0, "telemetry allocated with the sampler disabled");
    assert_eq!(telemetry.total().count(), 1000);
    assert_eq!(telemetry.mutate().count(), 1000);
    assert_eq!(telemetry.sampled_count(), 0);
    assert_eq!(telemetry.slow_count(), 0);
}

#[test]
fn slow_query_capture_still_works_with_sampler_disabled() {
    // Companion check: the zero-alloc guarantee applies only to the
    // fast/unsampled path; a query over the slow threshold still builds
    // and stores its trace.
    let config = CacheConfig {
        trace_sample_rate: 0.0,
        slow_query_threshold: Duration::from_micros(10),
        ..CacheConfig::default()
    };
    let telemetry = Telemetry::from_config(&config);
    let seq = telemetry.begin_query();
    let mut timing = QueryTiming::default();
    {
        let _span = telemetry.span(PipelineStage::Verify, &mut timing);
    }
    telemetry.finish_query(seq, Duration::from_millis(5), |slow| {
        assert!(slow);
        gc_core::QueryTrace {
            seq,
            kind: "sub".into(),
            outcome: "pipeline".into(),
            plan: "filter".into(),
            total_us: 5_000,
            verify_us: timing.us(PipelineStage::Verify),
            slow,
            ..Default::default()
        }
    });
    assert_eq!(telemetry.slow_count(), 1);
    assert_eq!(telemetry.recent_slow(5).len(), 1);
}
