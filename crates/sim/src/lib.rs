//! Deterministic simulated distributed-memory cluster substrate.
//!
//! The Munin paper evaluates its DSM prototype on sixteen SUN workstations
//! connected by a dedicated 10 Mbps Ethernet, running a modified V kernel.
//! This crate provides the equivalent substrate for the reproduction:
//!
//! * [`time`] — virtual time ([`VirtTime`]) and per-node clocks
//!   ([`NodeClock`]) that separate *user* (application) time from *system*
//!   (Munin/runtime) time, matching the columns reported in the paper's
//!   performance tables.
//! * [`cost`] — an explicit [`CostModel`] describing what every primitive
//!   operation costs (message fixed overhead, wire time per byte on a shared
//!   bus, page-fault handling, twin copies, diff encode/decode, application
//!   compute operations).
//! * [`net`] — a typed message-passing [`Network`] between node endpoints.
//!   Data really moves between OS threads (so correctness is exercised
//!   end-to-end) while *latency* is virtual and derived from the cost model.
//! * [`event`] — the discrete-event engine behind the network: a seeded,
//!   virtual-time-ordered delivery scheduler ([`EngineConfig`]) with
//!   per-link FIFO guarantees, deterministic tie-breaking, optional fault
//!   injection (delay / reorder / loss / crash), the run's wire statistics,
//!   and a replayable delivery trace.
//! * [`pace`] — paced sends, and the user-thread mailbox they read.
//! * [`cluster`] — helpers for spawning one OS thread per simulated node and
//!   collecting a [`ClusterReport`] (elapsed virtual time, per-node
//!   user/system split, network statistics).
//!
//! Both the Munin DSM runtime (`munin-core`) and the hand-coded
//! message-passing baseline (`munin-msgpass`) are built on this crate, so the
//! comparison between them is controlled exactly as in the paper: identical
//! computation, identical network, different consistency machinery.
//!
//! # Examples
//!
//! ```
//! use munin_sim::{CostModel, Cluster};
//!
//! // Two nodes; node 1 sends a 1 KiB message to node 0.
//! let report = Cluster::<Vec<u8>>::new(2, CostModel::sun_ethernet_1991())
//!     .run(|ctx| {
//!         if ctx.node_id().as_usize() == 1 {
//!             ctx.sender()
//!                 .send(munin_sim::NodeId::new(0), "data", 1024, vec![0u8; 16]);
//!         } else {
//!             let (_env, payload) = ctx.receiver().recv().unwrap();
//!             assert_eq!(payload.len(), 16);
//!         }
//!         ctx.node_id().as_usize()
//!     })
//!     .unwrap();
//! assert!(report.elapsed.as_nanos() > 0);
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod cluster;
pub mod cost;
pub mod error;
pub mod event;
pub mod net;
pub mod pace;
pub mod stats;
pub mod time;

pub use cluster::{Cluster, ClusterReport, NodeCtx};
pub use cost::CostModel;
pub use error::SimError;
pub use event::{
    CrashPlan, CrashSpec, CrashTrigger, DeliveryMode, EngineConfig, EngineStats, EventEngine,
    FaultPlan, TraceEntry,
};
pub use net::{Envelope, Network, NodeId, Receiver, Sender};
pub use pace::Mailbox;
pub use stats::NodeTimes;
pub use time::{NodeClock, TimeKind, VirtTime};
