//! The Munin programming interface.
//!
//! "The Munin programming interface is the same as that of conventional
//! shared memory parallel programming systems, except that it requires (i)
//! all shared variable declarations to be annotated with their expected
//! access pattern, and (ii) all synchronization to be visible to the runtime
//! system."
//!
//! A program is described by a [`MuninProgram`]: shared variable declarations
//! (with their sharing annotations), locks, barriers, an optional sequential
//! `user_init` routine run on the root node, and an optional `user_done`
//! routine run on the root after every worker finishes. [`MuninProgram::run`]
//! then spawns one worker per node on the simulated cluster and hands each a
//! [`WorkerCtx`] with the shared-memory access, synchronization, and hint
//! operations of Sections 2.1 and 2.4.
//!
//! # Examples
//!
//! ```
//! use munin_core::{MuninConfig, MuninProgram, SharingAnnotation};
//!
//! let mut prog = MuninProgram::new(MuninConfig::fast_test(2));
//! let counter = prog.declare::<i64>("counter", 1, SharingAnnotation::Migratory);
//! let lock = prog.create_lock("counter_lock");
//! let done = prog.create_barrier("done");
//! let report = prog
//!     .run(move |ctx| {
//!         for _ in 0..5 {
//!             ctx.acquire_lock(lock)?;
//!             let v: i64 = ctx.read(&counter, 0)?;
//!             ctx.write(&counter, 0, v + 1)?;
//!             ctx.release_lock(lock)?;
//!         }
//!         ctx.wait_at_barrier(done)?;
//!         ctx.read(&counter, 0)
//!     })
//!     .unwrap();
//! assert!(report.results.iter().any(|r| *r.as_ref().unwrap() == 10));
//! ```

use std::collections::HashSet;
use std::marker::PhantomData;
use std::sync::Arc;

use munin_sim::{Cluster, NodeId, NodeTimes, VirtTime};

use crate::annotation::SharingAnnotation;
use crate::config::MuninConfig;
use crate::error::{MuninError, Result};
use crate::msg::{DsmMsg, ReduceOp};
use crate::object::{ObjectId, VarId};
use crate::obs::ObsSnapshot;
use crate::runtime::NodeRuntime;
use crate::segment::SharedDataTable;
use crate::stats::MuninStatsSnapshot;
use crate::sync::{BarrierId, LockId};

/// Element types that may live in Munin shared memory.
///
/// Elements are stored little-endian in the shared data segment so the
/// word-granularity flat diff of the delayed update queue (see
/// [`crate::diff`] and `DESIGN.md`) is well defined.
pub trait Shareable: Copy + Send + Sync + 'static {
    /// Size of one element in bytes.
    const ELEM_SIZE: usize;
    /// Serializes the element into `out` (exactly `ELEM_SIZE` bytes).
    fn write_le(self, out: &mut [u8]);
    /// Deserializes an element from `buf` (exactly `ELEM_SIZE` bytes).
    fn read_le(buf: &[u8]) -> Self;
}

macro_rules! impl_shareable {
    ($($ty:ty),+) => {
        $(
            impl Shareable for $ty {
                const ELEM_SIZE: usize = std::mem::size_of::<$ty>();

                fn write_le(self, out: &mut [u8]) {
                    out.copy_from_slice(&self.to_le_bytes());
                }

                fn read_le(buf: &[u8]) -> Self {
                    <$ty>::from_le_bytes(buf.try_into().expect("element size mismatch"))
                }
            }
        )+
    };
}

impl_shareable!(i32, u32, i64, u64, f32, f64);

/// A typed handle to a shared variable declared in a [`MuninProgram`].
///
/// Handles are plain identifiers (cheap to copy and capture in worker
/// closures); all state lives in the runtime.
pub struct SharedVar<T: Shareable> {
    id: VarId,
    len: usize,
    name: &'static str,
    _marker: PhantomData<fn() -> T>,
}

impl<T: Shareable> Clone for SharedVar<T> {
    fn clone(&self) -> Self {
        *self
    }
}
impl<T: Shareable> Copy for SharedVar<T> {}

impl<T: Shareable> SharedVar<T> {
    /// Number of elements in the variable.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the variable has zero elements.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The variable's name.
    pub fn name(&self) -> &'static str {
        self.name
    }

    /// The untyped variable identifier.
    pub fn id(&self) -> VarId {
        self.id
    }

    fn check_range(&self, index: usize, count: usize) -> Result<()> {
        if index + count > self.len {
            Err(MuninError::OutOfBounds {
                var: self.name,
                index: index + count - 1,
                len: self.len,
            })
        } else {
            Ok(())
        }
    }
}

struct VarDecl {
    name: &'static str,
    annotation: SharingAnnotation,
    elem_size: usize,
    len: usize,
}

type InitFn = dyn Fn(&mut InitCtx<'_>) + Send + Sync;
type DoneFn = dyn Fn(&WorkerCtx<'_>) + Send + Sync;

/// A Munin program description: shared variables, synchronization objects,
/// and the sequential initialization / completion routines.
pub struct MuninProgram {
    cfg: MuninConfig,
    vars: Vec<VarDecl>,
    locks: Vec<&'static str>,
    lock_assoc: Vec<Vec<VarId>>,
    barriers: Vec<&'static str>,
    init: Option<Arc<InitFn>>,
    done: Option<Arc<DoneFn>>,
}

impl MuninProgram {
    /// Creates an empty program under the given configuration.
    pub fn new(cfg: MuninConfig) -> Self {
        MuninProgram {
            cfg,
            vars: Vec::new(),
            locks: Vec::new(),
            lock_assoc: Vec::new(),
            barriers: Vec::new(),
            init: None,
            done: None,
        }
    }

    /// The configuration of this program.
    pub fn config(&self) -> &MuninConfig {
        &self.cfg
    }

    /// Declares a shared variable of `len` elements with the given sharing
    /// annotation (the analogue of `shared <annotation> int x[len]`).
    pub fn declare<T: Shareable>(
        &mut self,
        name: &'static str,
        len: usize,
        annotation: SharingAnnotation,
    ) -> SharedVar<T> {
        let id = VarId(self.vars.len() as u32);
        self.vars.push(VarDecl {
            name,
            annotation,
            elem_size: T::ELEM_SIZE,
            len,
        });
        SharedVar {
            id,
            len,
            name,
            _marker: PhantomData,
        }
    }

    /// `CreateLock()`: declares a distributed lock (homed at the root).
    pub fn create_lock(&mut self, name: &'static str) -> LockId {
        let id = LockId(self.locks.len() as u32);
        self.locks.push(name);
        self.lock_assoc.push(Vec::new());
        id
    }

    /// `CreateBarrier()`: declares a barrier in which every node
    /// participates.
    pub fn create_barrier(&mut self, name: &'static str) -> BarrierId {
        let id = BarrierId(self.barriers.len() as u32);
        self.barriers.push(name);
        id
    }

    /// `AssociateDataAndSynch()`: records that `var` is protected by `lock`,
    /// so its contents are piggybacked on lock transfers.
    pub fn associate_data_and_synch<T: Shareable>(&mut self, lock: LockId, var: &SharedVar<T>) {
        self.lock_assoc[lock.0 as usize].push(var.id);
    }

    /// Registers the sequential `user_init()` routine, run once on the root
    /// node before the workers start.
    pub fn user_init<F>(&mut self, f: F)
    where
        F: Fn(&mut InitCtx<'_>) + Send + Sync + 'static,
    {
        self.init = Some(Arc::new(f));
    }

    /// Registers the sequential `user_done()` routine, run once on the root
    /// node after every worker has finished.
    pub fn user_done<F>(&mut self, f: F)
    where
        F: Fn(&WorkerCtx<'_>) + Send + Sync + 'static,
    {
        self.done = Some(Arc::new(f));
    }

    /// Builds the shared data description table from the declarations.
    fn build_table(&self) -> SharedDataTable {
        let mut table = SharedDataTable::new(self.cfg.page_size);
        for v in &self.vars {
            table.declare(v.name, v.annotation, v.elem_size, v.len);
        }
        table
    }

    /// Runs the program: spawns one worker per node, runs `user_init` on the
    /// root first, executes `worker` everywhere, runs `user_done` on the root
    /// after every worker finishes, and collects a [`MuninReport`].
    ///
    /// The worker closure receives a [`WorkerCtx`] and returns a value (or a
    /// runtime error); per-node results are collected in the report.
    pub fn run<R, F>(&self, worker: F) -> Result<MuninReport<R>>
    where
        R: Send,
        F: Fn(&WorkerCtx<'_>) -> Result<R> + Sync,
    {
        if self.cfg.access_mode == crate::config::AccessMode::VmTraps {
            // Typed failure before any node thread spawns: unsupported
            // platform or a broken trap substrate in this process.
            crate::runtime::vm_traps_preflight()?;
        }
        let nodes = self.cfg.nodes;
        let table = Arc::new(self.build_table());
        let cfg = Arc::new(self.cfg.clone());
        let root = NodeId::new(0);
        let lock_homes = vec![root; self.locks.len()];
        let lock_assoc: Vec<Vec<ObjectId>> = self
            .lock_assoc
            .iter()
            .map(|vars| {
                vars.iter()
                    .flat_map(|v| table.var(*v).objects.clone())
                    .collect()
            })
            .collect();
        // Internal start barrier, after the program's own: workers must not
        // begin faulting before the root has finished `user_init`.
        let start_barrier = BarrierId(self.barriers.len() as u32);
        let barrier_owners = vec![root; self.barriers.len() + 1];

        let init = self.init.clone();
        let done = self.done.clone();
        let worker = &worker;

        let cluster: Cluster<DsmMsg> =
            Cluster::new(nodes, self.cfg.cost.clone()).with_engine(self.cfg.engine);
        let report = cluster
            .run(move |ctx| -> NodeOutcome<R> {
                let (node, n, clock, cost, sender, receiver) = ctx.into_parts();
                let rt = NodeRuntime::new(
                    node,
                    n,
                    Arc::clone(&cfg),
                    Arc::clone(&table),
                    lock_homes.clone(),
                    barrier_owners.clone(),
                    clock,
                    cost,
                    sender,
                );
                rt.apply_lock_associations(&lock_assoc);
                let server_rt = Arc::clone(&rt);
                let server = std::thread::spawn(move || server_rt.server_loop(receiver));

                if rt.is_root() {
                    let mut ictx = InitCtx {
                        rt: &rt,
                        table: &table,
                        touched: HashSet::new(),
                    };
                    if let Some(f) = &init {
                        f(&mut ictx);
                    }
                    let touched = ictx.touched;
                    rt.finish_root_init(&touched);
                }

                let wctx = WorkerCtx {
                    rt: Arc::clone(&rt),
                    table: Arc::clone(&table),
                    _marker: std::marker::PhantomData,
                };
                let mut outcome = NodeOutcome {
                    result: Err(MuninError::ProtocolViolation("worker did not run")),
                    stats: Default::default(),
                    obs: Default::default(),
                    root_memory: None,
                };
                // Synchronize the start so no worker faults before the root
                // finished initializing the shared segment.
                let start = rt.wait_at_barrier(start_barrier);
                outcome.result = match start {
                    Ok(()) => worker(&wctx),
                    Err(e) => Err(e),
                };

                if rt.is_root() {
                    match rt.wait_workers_done() {
                        Ok(()) => {
                            if let Some(f) = &done {
                                f(&wctx);
                            }
                        }
                        Err(e) => {
                            // A stalled completion wait is a run failure even
                            // when the root's own worker succeeded.
                            if outcome.result.is_ok() {
                                outcome.result = Err(e);
                            }
                        }
                    }
                    outcome.root_memory = Some(rt.memory_snapshot());
                    let _ = rt.broadcast_shutdown();
                } else {
                    let _ = rt.signal_worker_done();
                    if let Err(e) = rt.wait_for_shutdown() {
                        if outcome.result.is_ok() {
                            outcome.result = Err(e);
                        }
                    }
                }
                if outcome.result.is_err() {
                    // After an error the shutdown handshake cannot be
                    // trusted — under injected loss the `Shutdown` messages
                    // themselves may have been dropped (and with the
                    // reliability layer off nothing retransmits them).
                    // Close the inbox so the service thread observes
                    // disconnection and exits instead of wedging the join.
                    rt.abort_service();
                }
                let _ = server.join();
                outcome.stats = rt.stats().snapshot();
                // Both threads have stopped, so this snapshot is the node's
                // complete event and histogram record for the run.
                outcome.obs = rt.obs().snapshot();
                outcome
            })
            .map_err(MuninError::from)?;

        let mut results = Vec::with_capacity(nodes);
        let mut stats = Vec::with_capacity(nodes);
        let mut obs = Vec::with_capacity(nodes);
        let mut root_memory = Vec::new();
        for outcome in report.results {
            results.push(outcome.result);
            stats.push(outcome.stats);
            obs.push(outcome.obs);
            if let Some(mem) = outcome.root_memory {
                root_memory = mem;
            }
        }
        // The watchdog could only attach the stalled node's own event tail
        // when it raised; now that every runtime has stopped, extend each
        // stall report with the forensics of all nodes.
        let tails: Vec<(usize, Vec<String>)> = obs
            .iter()
            .map(|s| (s.node, s.tail(crate::obs::STALL_TAIL_EVENTS)))
            .collect();
        for r in &mut results {
            if let Err(MuninError::Stalled(rep)) = r {
                rep.last_events = tails.clone();
            }
        }
        if let Some(path) = &self.cfg.trace_out {
            // Trace export is best-effort diagnostics: an unwritable path
            // must not turn a successful run into a failure.
            if let Err(e) = crate::obs::perfetto::write_trace_file(path, &obs) {
                eprintln!("munin: failed to write trace to {path}: {e}");
            }
        }
        Ok(MuninReport {
            elapsed: report.elapsed,
            node_times: report.node_times,
            net: report.net,
            engine_stats: report.engine_stats,
            trace_digest: report.trace_digest,
            stats,
            obs,
            results,
            root_memory,
            table: Arc::new(self.build_table()),
        })
    }
}

struct NodeOutcome<R> {
    result: Result<R>,
    stats: MuninStatsSnapshot,
    obs: ObsSnapshot,
    root_memory: Option<Vec<u8>>,
}

/// Context handed to the sequential `user_init()` routine on the root node.
///
/// Initialization writes go directly into the root's copy of the shared data
/// segment (there are no other copies yet), and the runtime records which
/// objects were touched so it can set up the initial access rights.
pub struct InitCtx<'a> {
    rt: &'a Arc<NodeRuntime>,
    table: &'a Arc<SharedDataTable>,
    touched: HashSet<ObjectId>,
}

impl InitCtx<'_> {
    /// Writes one element of a shared variable.
    pub fn write<T: Shareable>(
        &mut self,
        var: &SharedVar<T>,
        index: usize,
        value: T,
    ) -> Result<()> {
        var.check_range(index, 1)?;
        self.write_slice(var, index, &[value])
    }

    /// Writes a slice of elements starting at `offset`.
    pub fn write_slice<T: Shareable>(
        &mut self,
        var: &SharedVar<T>,
        offset: usize,
        values: &[T],
    ) -> Result<()> {
        var.check_range(offset, values.len())?;
        let mut bytes = vec![0u8; values.len() * T::ELEM_SIZE];
        for (i, v) in values.iter().enumerate() {
            v.write_le(&mut bytes[i * T::ELEM_SIZE..(i + 1) * T::ELEM_SIZE]);
        }
        let byte_off = offset * T::ELEM_SIZE;
        self.touched.extend(
            self.table
                .objects_in_range(var.id, byte_off, byte_off + bytes.len()),
        );
        let base = self.table.var(var.id).segment_offset;
        self.rt.init_write(base + byte_off, &bytes);
        // Initialization is ordinary sequential computation on the root.
        self.rt.compute(values.len() as u64);
        Ok(())
    }

    /// Number of nodes the program will run on.
    pub fn nodes(&self) -> usize {
        self.rt.nodes()
    }
}

/// Context handed to every worker thread (and to `user_done` on the root).
///
/// All shared-memory access, synchronization, and hint operations go through
/// this context, which makes every access visible to the runtime — the
/// simulated analogue of the virtual-memory protection check.
pub struct WorkerCtx<'a> {
    rt: Arc<NodeRuntime>,
    table: Arc<SharedDataTable>,
    _marker: std::marker::PhantomData<&'a ()>,
}

// Manual constructor to keep the lifetime parameter (tied to the program run)
// without storing references.
impl WorkerCtx<'_> {
    /// Index of this node (0 is the root).
    pub fn node_id(&self) -> usize {
        self.rt.node_id().as_usize()
    }

    /// Total number of nodes.
    pub fn nodes(&self) -> usize {
        self.rt.nodes()
    }

    /// Reads one element of a shared variable.
    pub fn read<T: Shareable>(&self, var: &SharedVar<T>, index: usize) -> Result<T> {
        var.check_range(index, 1)?;
        let mut out = vec![T::read_le(&vec![0u8; T::ELEM_SIZE]); 1];
        self.read_slice_into(var, index, &mut out)?;
        Ok(out[0])
    }

    /// Writes one element of a shared variable.
    pub fn write<T: Shareable>(&self, var: &SharedVar<T>, index: usize, value: T) -> Result<()> {
        var.check_range(index, 1)?;
        self.write_slice(var, index, &[value])
    }

    /// Reads `out.len()` elements starting at `offset` into `out`.
    pub fn read_slice_into<T: Shareable>(
        &self,
        var: &SharedVar<T>,
        offset: usize,
        out: &mut [T],
    ) -> Result<()> {
        var.check_range(offset, out.len())?;
        if out.is_empty() {
            return Ok(());
        }
        // Reduction objects are accessed only through Fetch_and_Φ at their
        // fixed owner, never through cached local copies.
        if self.annotation_of(var.id) == SharingAnnotation::Reduction {
            for (i, slot) in out.iter_mut().enumerate() {
                let obj_offset = (offset + i) * T::ELEM_SIZE;
                let (object, within) =
                    self.table
                        .locate(var.id, obj_offset)
                        .ok_or(MuninError::OutOfBounds {
                            var: var.name,
                            index: offset + i,
                            len: var.len,
                        })?;
                let old = self.rt.reduce(object, within, ReduceOp::Read)?;
                *slot = T::read_le(&old[..T::ELEM_SIZE]);
            }
            return Ok(());
        }
        let mut bytes = vec![0u8; out.len() * T::ELEM_SIZE];
        self.rt
            .read_var_bytes(var.id, offset * T::ELEM_SIZE, &mut bytes)?;
        for (i, slot) in out.iter_mut().enumerate() {
            *slot = T::read_le(&bytes[i * T::ELEM_SIZE..(i + 1) * T::ELEM_SIZE]);
        }
        Ok(())
    }

    /// Reads `count` elements starting at `offset`.
    pub fn read_slice<T: Shareable>(
        &self,
        var: &SharedVar<T>,
        offset: usize,
        count: usize,
    ) -> Result<Vec<T>> {
        var.check_range(offset, count)?;
        let zero = vec![0u8; T::ELEM_SIZE];
        let mut out = vec![T::read_le(&zero); count];
        self.read_slice_into(var, offset, &mut out)?;
        Ok(out)
    }

    /// Writes a slice of elements starting at `offset`.
    pub fn write_slice<T: Shareable>(
        &self,
        var: &SharedVar<T>,
        offset: usize,
        values: &[T],
    ) -> Result<()> {
        var.check_range(offset, values.len())?;
        if values.is_empty() {
            return Ok(());
        }
        let mut bytes = vec![0u8; values.len() * T::ELEM_SIZE];
        for (i, v) in values.iter().enumerate() {
            v.write_le(&mut bytes[i * T::ELEM_SIZE..(i + 1) * T::ELEM_SIZE]);
        }
        self.rt
            .write_var_bytes(var.id, offset * T::ELEM_SIZE, &bytes)
    }

    /// `AcquireLock()`.
    pub fn acquire_lock(&self, lock: LockId) -> Result<()> {
        self.rt.acquire_lock(lock)
    }

    /// `ReleaseLock()` (a release: flushes the delayed update queue first).
    pub fn release_lock(&self, lock: LockId) -> Result<()> {
        self.rt.release_lock(lock)
    }

    /// `WaitAtBarrier()` (a release followed by an acquire).
    pub fn wait_at_barrier(&self, barrier: BarrierId) -> Result<()> {
        self.rt.wait_at_barrier(barrier)
    }

    /// `Fetch_and_add` on an element of a reduction variable.
    pub fn fetch_and_add_i64(&self, var: &SharedVar<i64>, index: usize, value: i64) -> Result<i64> {
        self.fetch_and(var, index, ReduceOp::AddI64(value))
    }

    /// `Fetch_and_min` on an element of a reduction variable (the paper's
    /// example: the global minimum in a parallel minimum-path algorithm).
    pub fn fetch_and_min_i64(&self, var: &SharedVar<i64>, index: usize, value: i64) -> Result<i64> {
        self.fetch_and(var, index, ReduceOp::MinI64(value))
    }

    fn fetch_and(&self, var: &SharedVar<i64>, index: usize, op: ReduceOp) -> Result<i64> {
        let out_of_bounds = MuninError::OutOfBounds {
            var: var.name,
            index,
            len: var.len,
        };
        let located = (index < var.len).then(|| self.table.locate(var.id, index * 8));
        let (object, within) = located.flatten().ok_or(out_of_bounds)?;
        let old = self.rt.reduce(object, within, op)?;
        Ok(i64::from_le_bytes(
            old[..8].try_into().expect("i64 element"),
        ))
    }

    /// Charges `ops` abstract application operations of computation.
    pub fn compute(&self, ops: u64) {
        self.rt.compute(ops);
    }

    // --- hints (Section 2.4) ------------------------------------------------

    /// `Flush()`: push buffered writes out immediately instead of waiting for
    /// the next release.
    pub fn flush(&self) -> Result<()> {
        self.rt.flush_duq()
    }

    /// `Invalidate()`: delete the local copies of a variable's objects
    /// (propagating pending changes first).
    pub fn invalidate(&self, var: VarId) -> Result<()> {
        let objects = self.table.var(var).objects.clone();
        self.rt.invalidate_hint(&objects)
    }

    /// `PhaseChange()`: purge the accumulated producer-consumer sharing
    /// relationships so they are re-determined at the next flush.
    ///
    /// The call is local and unsynchronised, and meant to be made by every
    /// node at the same point of the program (after a barrier, say): a node
    /// counts its calls and sends the count with each fetch, and an owner
    /// that is one call behind a requester treats its recorded relationship
    /// as already purged instead of raising the stable-sharing runtime
    /// error. A node that calls it more often than the others gains nothing
    /// by being ahead: an owner makes that allowance once per phase of its
    /// own, and judges that node's later fetches against the relationship
    /// it re-determines.
    pub fn phase_change(&self) {
        self.rt.phase_change();
    }

    /// `ChangeAnnotation()`: switch the protocol used for a variable.
    pub fn change_annotation<T: Shareable>(
        &self,
        var: &SharedVar<T>,
        annotation: SharingAnnotation,
    ) -> Result<()> {
        let objects = self.table.var(var.id).objects.clone();
        self.rt.change_annotation(&objects, annotation)
    }

    /// `PreAcquire()`: fetch read copies of `count` elements starting at
    /// `offset` in anticipation of future use — a read access without the
    /// read, so the invalid objects among them arrive a run per round trip.
    pub fn pre_acquire<T: Shareable>(
        &self,
        var: &SharedVar<T>,
        offset: usize,
        count: usize,
    ) -> Result<()> {
        var.check_range(offset, count)?;
        let objects = self.table.objects_in_range(
            var.id,
            offset * T::ELEM_SIZE,
            (offset + count) * T::ELEM_SIZE,
        );
        self.rt.fault_in(objects, false)
    }

    /// Snapshot of this node's runtime statistics.
    pub fn stats(&self) -> MuninStatsSnapshot {
        self.rt.stats().snapshot()
    }

    fn annotation_of(&self, var: VarId) -> SharingAnnotation {
        if let Some(forced) = self.rt.config().annotation_override {
            forced
        } else {
            self.table.var(var).annotation
        }
    }
}

/// The outcome of a Munin program run.
pub struct MuninReport<R> {
    /// Virtual time at which the last node finished (the paper's "Total").
    pub elapsed: VirtTime,
    /// Per-node time accounting (user vs. system split).
    pub node_times: Vec<NodeTimes>,
    /// Network statistics (message and byte counts per class).
    pub net: munin_sim::stats::NetSnapshot,
    /// Engine-level message volume: totals and per-message-kind counts of
    /// every delivery the event engine scheduled (carriers count once, under
    /// the class of the message they frame).
    pub engine_stats: munin_sim::EngineStats,
    /// Digest of the engine's delivery trace, identical across runs with
    /// the same seed and protocol behaviour (the differential observability
    /// tests compare it between recording-on and recording-off runs).
    pub trace_digest: u64,
    /// Per-node Munin runtime statistics.
    pub stats: Vec<MuninStatsSnapshot>,
    /// Per-node observability snapshots: flight-recorder events and
    /// blocking-wait / fault-service latency histograms.
    pub obs: Vec<ObsSnapshot>,
    /// Per-node worker results.
    pub results: Vec<Result<R>>,
    /// Final contents of the root node's shared data segment.
    pub root_memory: Vec<u8>,
    table: Arc<SharedDataTable>,
}

impl<R> MuninReport<R> {
    /// Time accounting on the root node (the node the paper's tables report).
    pub fn root_times(&self) -> NodeTimes {
        self.node_times[0]
    }

    /// Reads the final value of a shared variable out of the root node's
    /// memory. Meaningful for `result` objects (flushed to the root) and any
    /// variable the root holds a current copy of.
    pub fn read_root_slice<T: Shareable>(&self, var: &SharedVar<T>) -> Vec<T> {
        let desc = self.table.var(var.id());
        let base = desc.segment_offset;
        (0..desc.len)
            .map(|i| {
                let off = base + i * T::ELEM_SIZE;
                T::read_le(&self.root_memory[off..off + T::ELEM_SIZE])
            })
            .collect()
    }

    /// Sum of the per-node runtime statistics.
    pub fn stats_total(&self) -> MuninStatsSnapshot {
        self.stats
            .iter()
            .fold(MuninStatsSnapshot::default(), |acc, s| acc.merge(s))
    }

    /// Cluster-wide observability aggregate: every node's wait and
    /// fault-service histograms merged (flight-recorder events stay
    /// per-node and are not included).
    pub fn obs_total(&self) -> ObsSnapshot {
        let mut total = ObsSnapshot::default();
        for s in &self.obs {
            total.merge_hists(s);
        }
        total
    }

    /// The first worker error, if any worker failed.
    pub fn first_error(&self) -> Option<&MuninError> {
        self.results.iter().find_map(|r| r.as_ref().err())
    }

    /// Returns the cost model–independent execution time in seconds.
    pub fn elapsed_secs(&self) -> f64 {
        self.elapsed.as_secs_f64()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shareable_round_trips() {
        let mut buf = [0u8; 8];
        42i64.write_le(&mut buf);
        assert_eq!(i64::read_le(&buf), 42);
        let mut buf4 = [0u8; 4];
        (-7i32).write_le(&mut buf4);
        assert_eq!(i32::read_le(&buf4), -7);
        1.5f64.write_le(&mut buf);
        assert_eq!(f64::read_le(&buf), 1.5);
    }

    #[test]
    fn declarations_assign_distinct_ids() {
        let mut prog = MuninProgram::new(MuninConfig::fast_test(1));
        let a = prog.declare::<i32>("a", 10, SharingAnnotation::ReadOnly);
        let b = prog.declare::<f64>("b", 4, SharingAnnotation::Result);
        assert_ne!(a.id(), b.id());
        assert_eq!(a.len(), 10);
        assert_eq!(b.name(), "b");
        assert!(!a.is_empty());
    }

    #[test]
    fn out_of_bounds_is_reported_with_context() {
        let mut prog = MuninProgram::new(MuninConfig::fast_test(1));
        let a = prog.declare::<i32>("a", 4, SharingAnnotation::WriteShared);
        let err = a.check_range(3, 2).unwrap_err();
        assert!(matches!(err, MuninError::OutOfBounds { var: "a", .. }));
        assert!(a.check_range(0, 4).is_ok());
    }

    #[test]
    fn single_node_program_runs_and_reports() {
        let mut prog = MuninProgram::new(MuninConfig::fast_test(1));
        let x = prog.declare::<i32>("x", 8, SharingAnnotation::WriteShared);
        let bar = prog.create_barrier("done");
        prog.user_init(move |init| {
            init.write_slice(&x, 0, &[1, 2, 3, 4, 5, 6, 7, 8]).unwrap();
        });
        let report = prog
            .run(move |ctx| {
                let v = ctx.read_slice(&x, 0, 8)?;
                let sum: i32 = v.iter().sum();
                ctx.write(&x, 0, sum)?;
                ctx.wait_at_barrier(bar)?;
                Ok(sum)
            })
            .unwrap();
        assert_eq!(report.results.len(), 1);
        assert_eq!(*report.results[0].as_ref().unwrap(), 36);
        assert_eq!(report.read_root_slice(&x)[0], 36);
        assert!(report.elapsed.as_nanos() > 0);
        assert!(report.first_error().is_none());
    }

    #[test]
    fn two_node_read_only_sharing() {
        let mut prog = MuninProgram::new(MuninConfig::fast_test(2));
        let input = prog.declare::<i32>("input", 64, SharingAnnotation::ReadOnly);
        let bar = prog.create_barrier("done");
        prog.user_init(move |init| {
            let vals: Vec<i32> = (0..64).collect();
            init.write_slice(&input, 0, &vals).unwrap();
        });
        let report = prog
            .run(move |ctx| {
                let v = ctx.read_slice(&input, 0, 64)?;
                ctx.wait_at_barrier(bar)?;
                Ok(v.iter().map(|x| *x as i64).sum::<i64>())
            })
            .unwrap();
        for r in &report.results {
            assert_eq!(*r.as_ref().unwrap(), (0..64).sum::<i64>());
        }
        // The non-root node must have fetched the data over the network.
        assert!(report.stats[1].objects_fetched > 0);
        assert!(report.net.class("object_fetch").msgs > 0);
    }

    #[test]
    fn write_to_read_only_returns_runtime_error() {
        let mut prog = MuninProgram::new(MuninConfig::fast_test(1));
        let input = prog.declare::<i32>("input", 4, SharingAnnotation::ReadOnly);
        let report = prog.run(move |ctx| ctx.write(&input, 0, 1)).unwrap();
        assert!(matches!(
            report.results[0],
            Err(MuninError::ReadOnlyWrite(_))
        ));
        assert_eq!(report.stats_total().runtime_errors, 1);
    }

    #[test]
    fn report_merges_stats() {
        let mut prog = MuninProgram::new(MuninConfig::fast_test(2));
        let x = prog.declare::<i32>("x", 4, SharingAnnotation::ReadOnly);
        prog.user_init(move |init| init.write_slice(&x, 0, &[1, 2, 3, 4]).unwrap());
        let report = prog
            .run(move |ctx| {
                let _ = ctx.read_slice(&x, 0, 4)?;
                Ok(())
            })
            .unwrap();
        let total = report.stats_total();
        assert_eq!(
            total.read_faults,
            report.stats.iter().map(|s| s.read_faults).sum::<u64>()
        );
    }
}
