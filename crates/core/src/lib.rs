//! Munin: a multi-protocol, release-consistent software distributed shared
//! memory system.
//!
//! This crate reproduces the system described in *"Implementation and
//! Performance of Munin"* (Carter, Bennett, Zwaenepoel — SOSP 1991). Munin
//! lets shared-memory parallel programs run on a distributed-memory machine
//! with two distinguishing features:
//!
//! * **Multiple consistency protocols** ([`annotation`]): every shared
//!   variable is annotated with its expected access pattern (`read_only`,
//!   `migratory`, `write_shared`, `producer_consumer`, `reduction`, `result`,
//!   `conventional`); the runtime derives a per-object protocol from the
//!   eight parameter bits of the paper's Table 1.
//! * **Software release consistency** ([`duq`], [`diff`]): writes to objects
//!   whose protocol allows delayed operations are buffered in a delayed
//!   update queue and propagated — as run-length encoded diffs against a
//!   *twin* made at the first write — when the writer releases a lock or
//!   arrives at a barrier.
//!
//! The supporting machinery mirrors the prototype: a per-node data object
//! [`directory`], distributed queue-based locks and owner-released barriers
//! ([`sync`]), and a per-node runtime ([`runtime`]) split into a user-thread
//! side (fault handling, flushes, synchronization) and a service thread that
//! answers remote requests.
//!
//! Programs are written against [`api::MuninProgram`] / [`api::WorkerCtx`];
//! see the crate examples and the `munin-apps` crate for the paper's Matrix
//! Multiply and SOR programs.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod annotation;
pub mod api;
pub mod config;
pub mod diff;
pub mod directory;
pub mod duq;
pub mod error;
pub mod msg;
pub mod nodeset;
pub mod object;
pub mod obs;
pub mod runtime;
pub mod segment;
pub mod stats;
pub mod sync;

pub use annotation::{render_table1, Param, ProtocolParams, SharingAnnotation};
pub use api::{InitCtx, MuninProgram, MuninReport, Shareable, SharedVar, WorkerCtx};
pub use config::{
    flight_events_from_env, trace_out_from_env, AccessMode, CopysetStrategy, MuninConfig,
};
pub use error::{MuninError, Result, StallReport};
pub use nodeset::NodeSet;
pub use object::{ObjectId, VarId, DEFAULT_PAGE_SIZE};
pub use obs::{EventKind, LatencyHist, ObsEvent, ObsSnapshot};
pub use stats::MuninStatsSnapshot;
pub use sync::{BarrierId, LockId};
