//! # uoi-data
//!
//! Synthetic data generation and resampling for the UoI workspace:
//!
//! * [`linear`] — sparse linear-regression datasets (the `UoI_LASSO`
//!   workload family);
//! * [`var`] — stable sparse VAR(d) processes with the eq. 6 stability
//!   constraint enforced via the companion spectral radius;
//! * [`finance`] — the S&P-500 substitute: sector-structured VAR(1) weekly
//!   differences integrated into daily closes (§VI, Fig 11);
//! * [`neuro`] — the primate-recording substitute: latent VAR dynamics
//!   driving 192-channel Poisson spike counts (§VI);
//! * [`bootstrap`] — i.i.d. row bootstrap and the moving-block bootstrap
//!   `UoI_VAR` needs for temporal dependence;
//! * [`preprocess`] — weekly aggregation, first differencing,
//!   standardisation (the §VI pipeline);
//! * [`rng`] — seeded deterministic generators, Gaussian and Poisson
//!   sampling.

#![forbid(unsafe_code)]

pub mod bootstrap;
pub mod finance;
pub mod linear;
pub mod neuro;
pub mod preprocess;
pub mod rng;
pub mod validate;
pub mod var;

pub use bootstrap::{
    block_bootstrap, default_block_len, resample_weights, row_bootstrap, temporal_split,
    train_eval_split,
};
pub use finance::{FinanceConfig, FinanceDataset, DAYS_PER_WEEK};
pub use linear::{LinearConfig, LinearDataset};
pub use neuro::{NeuroConfig, NeuroDataset};
pub use preprocess::{aggregate_last, aggregate_mean, first_differences, Standardizer};
pub use validate::{
    check_resample_weights, column_diagnostics, validate_xy, DataError, DataIssue, NonFiniteKind,
    ValidationOutcome, ValidationPolicy,
};
pub use var::{VarConfig, VarProcess};
