//! Counting-allocator test for the batched Gram engine.
//!
//! The batch entry point's amortization claim has two halves: the design
//! matrix is packed once per `(band, panel)` regardless of the batch size
//! (checked via the `pack_count` hook), and the allocation footprint grows
//! only by the per-resample output buffers — it must not re-pack or
//! re-stage anything `B` times.
//!
//! This file holds exactly one `#[test]` because the counting allocator is
//! process-global: a second test running on a sibling harness thread would
//! pollute the counts.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use uoi_linalg::{gram, syrk_t_weighted_batch, Matrix};

struct CountingAllocator;

static ALLOCS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc(layout) }
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: CountingAllocator = CountingAllocator;

fn weights(n: usize, seed: u64) -> Vec<f64> {
    let mut state = seed.wrapping_mul(0xD134_2543_DE82_EF95).max(1);
    (0..n)
        .map(|_| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state % 4) as f64
        })
        .collect()
}

#[test]
fn batch_path_packs_once_and_allocates_per_output_only() {
    let n = 256;
    let p = 128;
    let a = Matrix::from_fn(n, p, |i, j| ((i * 31 + j * 17) as f64 * 0.37).sin());
    let ws: Vec<Vec<f64>> = (0..8).map(|k| weights(n, 40 + k)).collect();
    let one: Vec<&[f64]> = vec![ws[0].as_slice()];
    let eight: Vec<&[f64]> = ws.iter().map(|w| w.as_slice()).collect();

    // Warm-up outside the measured windows (lazy statics, thread-locals).
    let _ = syrk_t_weighted_batch(&a, &one);

    let packs0 = gram::pack_count();
    let allocs0 = ALLOCS.load(Ordering::Relaxed);
    let g1 = syrk_t_weighted_batch(&a, &one);
    let packs_b1 = gram::pack_count() - packs0;
    let allocs_b1 = ALLOCS.load(Ordering::Relaxed) - allocs0;
    drop(g1);

    let packs0 = gram::pack_count();
    let allocs0 = ALLOCS.load(Ordering::Relaxed);
    let g8 = syrk_t_weighted_batch(&a, &eight);
    let packs_b8 = gram::pack_count() - packs0;
    let allocs_b8 = ALLOCS.load(Ordering::Relaxed) - allocs0;
    drop(g8);

    // One pack per (band, panel) cell of the grid — independent of B.
    let grid = (p.div_ceil(gram::GRAM_BAND) * n.div_ceil(gram::GRAM_PANEL_ROWS)) as u64;
    assert_eq!(packs_b1, grid, "B=1 must pack each (band, panel) once");
    assert_eq!(packs_b8, grid, "B=8 must pack each (band, panel) once");

    // Allocations grow with the per-resample outputs, not with B repacks
    // of the shared machinery: 8x the resamples must cost far less than
    // 8x the allocations of a batch of one.
    assert!(
        allocs_b8 < 8 * allocs_b1,
        "batch of 8 allocated {allocs_b8} times vs {allocs_b1} for a batch of one"
    );
}
