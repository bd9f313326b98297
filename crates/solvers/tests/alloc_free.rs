//! Enforces the tentpole allocation contract: once the caller's buffers
//! and [`AdmmWorkspace`] are warm, `LassoAdmm::solve_warm_with` performs
//! zero heap allocations per solve. A counting global allocator makes the
//! claim falsifiable rather than aspirational. It counts per thread, so
//! tests running concurrently in this binary cannot bleed allocations
//! into each other's measured windows.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use uoi_linalg::Matrix;
use uoi_solvers::{AdmmConfig, AdmmWorkspace, LassoAdmm, ResilienceConfig, ResilientLasso};

struct CountingAlloc;

thread_local! {
    static ALLOCATIONS: Cell<usize> = const { Cell::new(0) };
}

fn note_allocation() {
    // `try_with`: the allocator may run while a thread's locals are torn down.
    let _ = ALLOCATIONS.try_with(|c| c.set(c.get() + 1));
}

/// Allocations made so far by the calling thread.
fn allocations() -> usize {
    ALLOCATIONS.with(Cell::get)
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note_allocation();
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note_allocation();
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

fn deterministic_design(n: usize, p: usize) -> Matrix {
    Matrix::from_fn(n, p, |i, j| {
        let t = (i * p + j) as f64;
        (t * 0.37).sin() + if i % (j + 2) == 0 { 0.5 } else { -0.25 }
    })
}

fn warm_then_count(solver: &LassoAdmm, xty: &[f64], p: usize) -> usize {
    let mut ws = AdmmWorkspace::new();
    let mut z = vec![0.0; p];
    let mut u = vec![0.0; p];

    // First solve grows the workspace buffers to their steady-state size.
    let warm = solver.solve_warm_with(xty, 0.1, &mut z, &mut u, &mut ws);
    assert!(warm.iterations > 0);

    let before = allocations();
    for lambda in [0.3, 0.1, 0.05, 0.01, 0.0] {
        let status = solver.solve_warm_with(xty, lambda, &mut z, &mut u, &mut ws);
        assert!(status.iterations > 0);
    }
    allocations() - before
}

#[test]
fn warm_solve_is_allocation_free_primal() {
    // p <= n: Primal factorisation (the zero-copy bootstrap path).
    let (n, p) = (48, 12);
    let x = deterministic_design(n, p);
    let y: Vec<f64> = (0..n).map(|i| ((i as f64) * 0.11).cos()).collect();
    let solver = LassoAdmm::new(x, AdmmConfig::default());
    let xty = solver.prepare_rhs(&y);

    let allocs = warm_then_count(&solver, &xty, p);
    assert_eq!(
        allocs, 0,
        "primal solve_warm_with allocated on the warm path"
    );
}

#[test]
fn warm_solve_is_allocation_free_from_gram() {
    let (n, p) = (48, 12);
    let x = deterministic_design(n, p);
    let y: Vec<f64> = (0..n).map(|i| ((i as f64) * 0.23).sin()).collect();
    let gram = uoi_linalg::syrk_t(&x);
    let xty = uoi_linalg::gemv_t(&x, &y);
    let solver = LassoAdmm::from_gram(gram, AdmmConfig::default());

    let allocs = warm_then_count(&solver, &xty, p);
    assert_eq!(
        allocs, 0,
        "gram-built solve_warm_with allocated on the warm path"
    );
}

/// The divergence tripwire on the clean path costs zero extra heap
/// allocations: a guarded whole-path solve allocates exactly what the
/// unguarded one does (output solutions only; the empty trip list and
/// health vectors never touch the allocator).
#[test]
fn clean_guarded_path_allocates_no_more_than_unguarded() {
    let (n, p) = (48, 12);
    let x = deterministic_design(n, p);
    let y: Vec<f64> = (0..n).map(|i| ((i as f64) * 0.17).sin()).collect();
    let gram = uoi_linalg::syrk_t(&x);
    let xty = uoi_linalg::gemv_t(&x, &y);
    let lambdas = [0.3, 0.1, 0.05, 0.01];

    let plain = LassoAdmm::from_gram(gram.clone(), AdmmConfig::default());
    let mut guarded =
        ResilientLasso::from_gram(gram, AdmmConfig::default(), ResilienceConfig::default())
            .expect("well-conditioned gram factors cleanly");

    // One warm-up round each so lazily-grown buffers reach steady state.
    let _ = plain.solve_path_with_rhs(&xty, &lambdas);
    let _ = guarded.solve_path_with_rhs(&xty, &lambdas);

    let before = allocations();
    let base = plain.solve_path_with_rhs(&xty, &lambdas);
    let plain_allocs = allocations() - before;

    let before = allocations();
    let (sols, health) = guarded.solve_path_with_rhs(&xty, &lambdas);
    let guarded_allocs = allocations() - before;

    assert!(health.is_clean());
    assert_eq!(base.len(), sols.len());
    assert_eq!(
        guarded_allocs, plain_allocs,
        "guards must add no allocations on the clean path"
    );
}

#[test]
fn warm_solve_is_allocation_free_woodbury() {
    // p > n: Woodbury factorisation with its own scratch vectors.
    let (n, p) = (10, 24);
    let x = deterministic_design(n, p);
    let y: Vec<f64> = (0..n).map(|i| ((i as f64) * 0.31).cos()).collect();
    let solver = LassoAdmm::new(x, AdmmConfig::default());
    let xty = solver.prepare_rhs(&y);

    let allocs = warm_then_count(&solver, &xty, p);
    assert_eq!(
        allocs, 0,
        "woodbury solve_warm_with allocated on the warm path"
    );
}
