//! # uoi-mpisim
//!
//! An in-process SPMD message-passing runtime with a virtual-time machine
//! model — the substitute for the MPI + Cori-KNL substrate of the paper.
//!
//! Ranks run as OS threads and exchange *real* data (collectives move real
//! bytes, one-sided windows expose real buffers), so algorithms produce
//! bit-identical statistical results to a genuine distributed run. Time,
//! however, is **virtual**: every operation advances a per-rank clock using
//! the [`model::MachineModel`] cost functions, evaluated at a *modeled*
//! rank count that may far exceed the executed one. This is what lets a
//! laptop reproduce the shape of 100,000-core weak/strong scaling curves.
//!
//! Key pieces:
//! * [`cluster::Cluster`] — spawn ranks, run an SPMD closure, collect a
//!   [`cluster::SimReport`];
//! * [`comm::Comm`] — `MPI_Comm` analogue: barrier, bcast, allreduce,
//!   gather/allgather/scatter, and `split` for the `P_B x P_lambda x
//!   ADMM_cores` decomposition;
//! * [`window::Window`] — one-sided windows with target-side
//!   serialisation, the mechanism behind the paper's randomized data
//!   distribution (Tier 2) and distributed Kronecker product;
//! * [`ledger`] — per-rank phase accounting matching the paper's runtime
//!   breakdown categories (Computation / Communication / Distribution /
//!   Data I/O);
//! * [`extrapolate::WorkloadProfile`] — closed-form evaluation at
//!   arbitrary rank counts;
//! * [`fault::FaultPlan`] — seeded, deterministic fault injection (rank
//!   crashes, stragglers, window-op drops/corruption, transient I/O);
//!   collectives carry an epoch watchdog so a dead rank surfaces as
//!   [`fault::MpiError::RankFailed`] instead of a condvar deadlock.

#![forbid(unsafe_code)]
#![allow(clippy::needless_range_loop)]

pub mod cluster;
pub mod comm;
pub mod extrapolate;
pub mod fault;
pub mod ledger;
pub mod model;
pub mod speculation;
pub mod window;

pub use cluster::{
    watchdog_from_env, watchdog_from_str, Cluster, RankFailure, RecoveryContext, RecoveryError,
    RecoveryLog, RecoveryRound, RecoveryStash, SimError, SimReport, DEFAULT_WATCHDOG,
    UOI_WATCHDOG_ENV,
};
pub use comm::{Comm, PendingReduce, RankCtx};
pub use extrapolate::WorkloadProfile;
pub use fault::{FaultPlan, MpiError, RankFaults};
pub use ledger::{CollectiveEvent, Phase, PhaseLedger};
pub use model::{IoModel, MachineModel, NoiseModel, SplitMix64};
pub use speculation::{
    makespan_healthy, makespan_unhedged, plan_hedges, DeadlinePolicy, HedgeEvent, HedgeSchedule,
    PublishOutcome, RankTimings, SpeculationBoard, TaskHeartbeat,
};
pub use window::{Window, WindowEpoch};
// Telemetry types commonly needed alongside `Cluster::with_telemetry`.
pub use uoi_telemetry::{
    JsonlSink, MemorySink, MetricsRegistry, RunSummary, Telemetry, TraceEvent, TraceSink,
};
