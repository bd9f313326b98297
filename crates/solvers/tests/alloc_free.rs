//! Enforces the tentpole allocation contract: once the caller's buffers
//! and [`AdmmWorkspace`] are warm, `LassoAdmm::solve_warm_with` performs
//! zero heap allocations per solve. A counting global allocator makes the
//! claim falsifiable rather than aspirational. It counts per thread, so
//! tests running concurrently in this binary cannot bleed allocations
//! into each other's measured windows.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use uoi_linalg::Matrix;
use uoi_solvers::{
    AdmmConfig, AdmmWorkspace, LassoAdmm, PathSchedule, ResilienceConfig, ResilientLasso,
};

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

/// Allocations made by `solve` at `max_iter` 20 and at 150, on a problem
/// whose tolerances no lane can reach, so every lane runs to the cap.
fn fused_allocs_at_both_caps(solve: impl Fn(&LassoAdmm)) -> (usize, usize) {
    let (n, p) = (48, 12);
    let x = deterministic_design(n, p);
    let gram = uoi_linalg::syrk_t(&x);
    let count = |max_iter: usize| {
        let cfg = AdmmConfig {
            max_iter,
            abstol: 1e-300,
            reltol: 1e-300,
            schedule: PathSchedule::Fused,
            ..AdmmConfig::default()
        };
        let solver = LassoAdmm::from_gram(gram.clone(), cfg);
        let before = allocations();
        solve(&solver);
        allocations() - before
    };
    (count(20), count(150))
}

/// A fused path's rounds allocate nothing: the lockstep window, its slot
/// table and the per-problem records are sized before the first round,
/// and the only allocation after that is each problem's result vector,
/// once, when its lane retires. So a path that runs 150 rounds allocates
/// exactly what one running 20 does — for one column, for a block of
/// columns sharing the factor, and for a block with more problems than
/// the window has slots, whose slots are refilled as lanes retire.
#[test]
fn fused_rounds_are_allocation_free() {
    let (n, p) = (48, 12);
    let x = deterministic_design(n, p);
    let xtys: Vec<Vec<f64>> = (0..5)
        .map(|c| {
            let y: Vec<f64> = (0..n)
                .map(|i| ((i * (c + 2)) as f64 * 0.13).sin())
                .collect();
            uoi_linalg::gemv_t(&x, &y)
        })
        .collect();
    let lambdas = [0.3, 0.1, 0.05, 0.01, 0.0];

    let (short, long) = fused_allocs_at_both_caps(|s| {
        let sols = s.solve_path_fused_with_rhs(&xtys[0], &lambdas);
        assert!(sols.iter().all(|sol| !sol.converged));
    });
    assert_eq!(short, long, "one-column fused path allocated per round");

    let refs: Vec<&[f64]> = xtys.iter().map(Vec::as_slice).collect();
    let (short, long) = fused_allocs_at_both_caps(|s| {
        let paths = s.solve_paths_with_rhs(&refs, &lambdas);
        assert!(paths.iter().flatten().all(|sol| !sol.converged));
    });
    assert_eq!(short, long, "block fused path allocated per round");

    // 17 columns x 5 lambdas = 85 problems through a 32-slot window.
    let many: Vec<&[f64]> = (0..17).map(|c| refs[c % refs.len()]).collect();
    assert!(many.len() * lambdas.len() > uoi_solvers::LOCKSTEP_LANES);
    let (short, long) = fused_allocs_at_both_caps(|s| {
        let paths = s.solve_paths_with_rhs(&many, &lambdas);
        assert!(paths.iter().flatten().all(|sol| !sol.converged));
    });
    assert_eq!(short, long, "refilling fused window allocated per round");
}
