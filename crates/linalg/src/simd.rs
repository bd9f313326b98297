//! Run-time instruction-set dispatch for the hottest kernels.
//!
//! The workspace compiles for the target's baseline ISA, which on x86-64
//! is SSE2: two f64 lanes per register. The Gram tile sweep
//! ([`crate::gram`]), the lane-major panel solve
//! ([`crate::chol::Cholesky::solve_panel_in_place`]) and the lockstep ADMM
//! round ([`crate::chol::Cholesky::admm_round`]) are generic plain-Rust
//! bodies that are additionally instantiated inside
//! `#[target_feature(enable = ...)]` wrappers. [`isa`] probes the host once
//! and names the widest instantiation it can run; callers dispatch on it
//! once per tile sweep, panel solve or round, never per element.
//!
//! Every instantiation performs the same IEEE operations in the same order:
//! the bodies use no `std::arch` intrinsics and no `mul_add`, and Rust
//! never contracts `a * b + c` into a fused multiply-add. Dispatch
//! therefore changes speed only; results are `f64::to_bits`-identical on
//! every ISA.

use std::sync::OnceLock;

/// An instruction set a dispatched kernel is compiled for.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Isa {
    /// The compilation target's baseline (SSE2 on x86-64). Runs everywhere.
    Baseline,
    /// AVX2: four f64 lanes per register.
    #[cfg(target_arch = "x86_64")]
    Avx2,
    /// AVX-512F: eight f64 lanes per register.
    #[cfg(target_arch = "x86_64")]
    Avx512,
}

impl Isa {
    /// Every instantiation compiled for this target, narrowest first.
    const ALL: &'static [Isa] = &[
        Isa::Baseline,
        #[cfg(target_arch = "x86_64")]
        Isa::Avx2,
        #[cfg(target_arch = "x86_64")]
        Isa::Avx512,
    ];

    /// Name recorded in run reports (`simd_isa`) and benchmark ids.
    pub fn name(self) -> &'static str {
        match self {
            Isa::Baseline => "baseline",
            #[cfg(target_arch = "x86_64")]
            Isa::Avx2 => "avx2",
            #[cfg(target_arch = "x86_64")]
            Isa::Avx512 => "avx512f",
        }
    }

    /// Whether this host can execute code compiled for `self`.
    ///
    /// The dispatchers assert this before calling into a
    /// `#[target_feature]` instantiation, so an unsupported `Isa` panics
    /// instead of executing an illegal instruction.
    pub fn is_supported(self) -> bool {
        match self {
            Isa::Baseline => true,
            #[cfg(target_arch = "x86_64")]
            Isa::Avx2 => std::arch::is_x86_feature_detected!("avx2"),
            #[cfg(target_arch = "x86_64")]
            Isa::Avx512 => std::arch::is_x86_feature_detected!("avx512f"),
        }
    }

    /// Every instantiation this host can run, narrowest first.
    pub fn supported() -> impl Iterator<Item = Isa> {
        Isa::ALL.iter().copied().filter(|i| i.is_supported())
    }
}

/// The widest ISA this host supports, probed on first call and cached.
pub fn isa() -> Isa {
    static DETECTED: OnceLock<Isa> = OnceLock::new();
    *DETECTED.get_or_init(|| Isa::supported().last().unwrap_or(Isa::Baseline))
}
