//! # predict — counter-driven interference prediction
//!
//! The placement-advisor subsystem (ROADMAP item 4, after Shubham et al.'s
//! counter-based slowdown prediction, arXiv 2410.18126): learn the
//! co-location penalty of a (communication, computation) pair from the
//! PMU-style telemetry counters of its **alone** runs, so a scheduler can
//! rank placements without ever co-running the candidates.
//!
//! * [`learn`] — the deterministic ridge + boosted-stump learner, k-fold
//!   cross-validation, and the exact-bits model codec.
//! * [`advisor`] — training over harvested pairs (`interference`'s
//!   `experiments::harvest`), unseen-pair prediction from alone-step
//!   features, and the `rank-placements` query.
//! * [`accuracy`] — the `repro --validate` campaign experiment gating
//!   cross-validated error and held-out placement-ranking accuracy against
//!   the `PREDICT_baseline.json` ratchet.
//!
//! Everything is bit-deterministic: identical training pairs and seed give
//! a byte-identical model file and bit-identical predictions at any
//! `--jobs` width (the harvest orders pairs by grid position and the
//! learner reduces every sum in fixed index order).

#![warn(missing_docs)]
// Dense matrix kernels (Gram accumulation, Gaussian elimination) read
// more clearly as index loops than as iterator chains over row pairs.
#![allow(clippy::needless_range_loop)]

pub mod accuracy;
pub mod advisor;
pub mod learn;

pub use advisor::{Advisor, RankedPlacement};
pub use learn::{cross_validate, train, CvReport, Model, Params};
