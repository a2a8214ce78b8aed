//! S4: the sampling layer's two contracts.
//!
//! * **Determinism** — the sampled set is a pure function of `(seed, key)`:
//!   two sampler instances with the same seed agree on every key, across
//!   threads, and retuning the rate never perturbs which keys a given rate
//!   selects. This is what makes "same workload ⇒ same sampled set"
//!   reproducible across server restarts.
//! * **Zero allocation off the sampled path** — a request that was *not*
//!   sampled pays one thread-local load per span and allocates nothing.
//!   Pinned with a global allocator that counts per thread.

use pc_obs::sample::Sampler;

#[test]
fn sampler_is_deterministic_in_seed_and_key() {
    let a = Sampler::new(8, 0xDEAD_BEEF);
    let b = Sampler::new(8, 0xDEAD_BEEF);
    let picked: Vec<u64> = (0..10_000).filter(|&k| a.should_sample(k)).collect();
    assert!(!picked.is_empty());
    for k in 0..10_000 {
        assert_eq!(a.should_sample(k), b.should_sample(k), "key {k}");
    }

    // A different seed selects a different set (astronomically likely).
    let c = Sampler::new(8, 0xFEED_FACE);
    let picked_c: Vec<u64> = (0..10_000).filter(|&k| c.should_sample(k)).collect();
    assert_ne!(picked, picked_c);

    // Concurrent readers observe the same decisions.
    std::thread::scope(|s| {
        for _ in 0..4 {
            s.spawn(|| {
                for (i, &k) in picked.iter().enumerate() {
                    assert!(a.should_sample(k), "thread view diverged at {i}");
                }
            });
        }
    });
}

#[test]
fn sampling_rate_is_roughly_one_in_n() {
    let every = 16u64;
    let s = Sampler::new(every, 0x5EED);
    let n = 100_000u64;
    let picked = (0..n).filter(|&k| s.should_sample(k)).count() as u64;
    let expected = n / every;
    assert!(
        picked > expected / 2 && picked < expected * 2,
        "picked {picked}, expected ~{expected}"
    );
}

#[test]
fn retuning_changes_rate_without_changing_selection() {
    let s = Sampler::new(0, 7);
    assert!((0..1000).all(|k| !s.should_sample(k)), "0 = off");
    s.set_every(1);
    assert!((0..1000).all(|k| s.should_sample(k)), "1 = everything");
    s.set_every(4);
    let at_4: Vec<u64> = (0..1000).filter(|&k| s.should_sample(k)).collect();
    // Going away and back to the same rate selects the same keys — the
    // decision depends on (seed, key, rate), never on history.
    s.set_every(32);
    s.set_every(4);
    let again: Vec<u64> = (0..1000).filter(|&k| s.should_sample(k)).collect();
    assert_eq!(at_4, again);
}

// ---------------------------------------------------------------------------
// Zero-allocation fast path.

mod alloc_counting {
    use super::*;
    use std::alloc::{GlobalAlloc, Layout, System};
    use std::cell::Cell;

    /// System allocator with a per-thread allocation counter — the probe
    /// for the "sampled-off requests allocate nothing" contract. Per
    /// thread, because the harness runs this binary's tests on parallel
    /// threads and a sibling's allocations are not the measured path's.
    struct Counting;

    thread_local! {
        // Const-initialised and without a destructor: touching it from
        // inside the allocator neither allocates nor registers anything.
        static ALLOCS: Cell<u64> = const { Cell::new(0) };
    }

    fn count_one() {
        // `try_with`: a thread that is tearing down may still free or
        // allocate after its locals are gone.
        let _ = ALLOCS.try_with(|c| c.set(c.get() + 1));
    }

    /// Allocations made by the calling thread so far.
    fn allocs() -> u64 {
        ALLOCS.with(Cell::get)
    }

    // SAFETY: delegates everything to `System`; the counter is a
    // thread-local cell with no other side effects.
    unsafe impl GlobalAlloc for Counting {
        unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
            count_one();
            unsafe { System.alloc(layout) }
        }
        unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
            unsafe { System.dealloc(ptr, layout) }
        }
        unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
            count_one();
            unsafe { System.realloc(ptr, layout, new_size) }
        }
    }

    #[global_allocator]
    static COUNTING: Counting = Counting;

    #[test]
    fn unsampled_span_stack_allocates_nothing() {
        let sampler = Sampler::new(4, 0xA110C);

        // Warm the thread-locals (first touch may lazily initialize).
        {
            let _s = pc_obs::span!("warmup");
            pc_obs::record_io(pc_obs::IoEvent::Read);
        }

        let before = allocs();
        for key in 0..1_000u64 {
            // The admission decision itself…
            let sampled = sampler.should_sample(key);
            if sampled {
                // …but only drive the span stack for unsampled requests
                // here: the sampled path is allowed to allocate.
                continue;
            }
            let _root = pc_obs::span!("serve_query", key);
            pc_obs::set_block_capacity(4);
            pc_obs::record_read(pc_obs::ReadClass::Skeletal);
            pc_obs::record_io(pc_obs::IoEvent::Read);
            {
                let _child = pc_obs::span!(output: "node_block");
                pc_obs::record_read(pc_obs::ReadClass::Node);
                pc_obs::record_io(pc_obs::IoEvent::Read);
                pc_obs::add_items(3);
            }
        }
        let after = allocs();
        assert_eq!(after - before, 0, "unsampled fast path allocated {}x", after - before);
    }

    #[test]
    fn sampled_requests_do_allocate_and_capture() {
        // Sanity check that the counter works at all: a captured trace
        // builds a real tree on the heap.
        let before = allocs();
        let cap = pc_obs::begin_trace();
        {
            let _root = pc_obs::span!("traced");
            pc_obs::record_io(pc_obs::IoEvent::Read);
        }
        let trace = cap.finish().expect("captured");
        assert_eq!(trace.total_io, 1);
        assert!(allocs() > before, "capturing a trace must allocate");
    }
}
