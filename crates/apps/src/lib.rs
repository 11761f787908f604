//! The application programs evaluated in the Munin paper, plus one extra.
//!
//! * [`matmul`] — Matrix Multiply: inputs annotated `read_only`, output
//!   annotated `result` (Tables 3 and 6).
//! * [`sor`] — Successive Over-Relaxation with the scratch-array method: the
//!   grid is annotated `producer_consumer` (Tables 5/6).
//! * [`tsp`] — a branch-and-bound travelling-salesman search that exercises
//!   the `reduction` (global bound via `Fetch_and_min`), `migratory`
//!   (best-tour record protected by a lock) and `read_only` (distance table)
//!   protocols that the two headline programs do not.
//!
//! Every program comes in a Munin variant and (for the paper's two) a
//! hand-coded message-passing variant that performs the identical
//! computation, plus a serial reference used by the tests to verify results.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod matmul;
pub mod measure;
pub mod sor;
pub mod tsp;
pub mod workloads;

pub use measure::RunMeasurement;
