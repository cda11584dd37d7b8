//! # np-grid
//!
//! Power-distribution models for Section 4 of *Future Performance
//! Challenges in Nanometer Design* (Sylvester & Kaul, DAC 2001) — a
//! BACPAC-style \[41\] top-level power-grid analysis:
//!
//! * [`hotspot`] — the ×4 hot-spot power-density model (footnote 7);
//! * [`analytic`] — closed-form worst-case IR drop in a bump cell and the
//!   rail width required for a <10 % drop budget;
//! * [`solver`] / [`mesh`] — an independent resistive-mesh field solver
//!   (successive over-relaxation) used to validate the analytic model;
//! * [`cg`] — conjugate-gradient solvers (plain and
//!   Jacobi-preconditioned) over the same mesh;
//! * [`multigrid`] — the O(N) geometric multigrid V-cycle over the same
//!   mesh (red-black smoothing, full-weighting restriction, bilinear
//!   prolongation), standalone or as a CG preconditioner (MGCG);
//! * [`plan`] — the Fig. 5 study: required rail width (normalized to the
//!   minimum top-metal width) and routing-resource share per node, under
//!   (a) minimum attainable bump pitch and (b) ITRS pad counts — and the
//!   [`plan::SolvePlan`] strategy enum that routes a mesh to the right
//!   solver by size;
//! * [`transient`] — `L·di/dt` noise from sleep-mode wake-up;
//! * [`mcml`] — MOS current-mode logic as a current-transient-free
//!   alternative (ref. \[42\]).
//!
//! # Examples
//!
//! ```
//! # fn main() -> Result<(), np_grid::GridError> {
//! use np_grid::plan::GridPlan;
//! use np_roadmap::TechNode;
//!
//! let plan = GridPlan::min_pitch(TechNode::N35)?;
//! // Fig. 5: manageable rail widths at the minimum bump pitch...
//! assert!(plan.width_over_min() < 40.0);
//! let itrs = GridPlan::itrs_pads(TechNode::N35)?;
//! // ...but a blow-up under the ITRS pad-count assumptions.
//! assert!(itrs.width_over_min() > 500.0);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![deny(missing_docs)]
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

pub mod analytic;
pub mod cg;
pub mod decap;
mod error;
pub mod hotspot;
pub mod mcml;
pub mod mesh;
pub mod multigrid;
#[cfg(any(test, feature = "kernel-oracle"))]
#[doc(hidden)]
pub mod oracle;
pub mod plan;
pub mod solver;
mod stencil;
pub mod transient;

pub use error::GridError;
pub use plan::{GridPlan, SolvePlan, SolveStrategy};
