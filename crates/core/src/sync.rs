//! Synchronization objects: distributed queue-based locks and barriers.
//!
//! "Synchronization objects are accessed in a fundamentally different way
//! than data objects, so Munin does not provide synchronization through
//! shared memory. Rather each Munin node interacts with the other nodes to
//! provide a high-level synchronization service." (Section 3.4.)
//!
//! This module holds the per-node *synchronization object directory*: the
//! local view of every lock and barrier. The message handling that drives the
//! distributed protocol lives in [`crate::runtime`]; the state transitions are
//! kept here so they can be unit-tested in isolation.

use std::collections::VecDeque;

use munin_sim::{NodeId, VirtTime};

use crate::error::{MuninError, Result};
use crate::nodeset::NodeSet;
use crate::object::ObjectId;

/// Identifier of a distributed lock.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, PartialOrd, Ord)]
pub struct LockId(pub u32);

/// Identifier of a barrier.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, PartialOrd, Ord)]
pub struct BarrierId(pub u32);

/// Per-node state of one distributed lock.
///
/// Ownership of a lock (the right to grant it) moves between nodes; the queue
/// of waiting requesters travels with ownership, so that "a release/acquire
/// pair can be performed with a single message exchange if the acquire is
/// pending when the release occurs". Nodes that are not the owner keep only a
/// probable-owner hint used to forward requests.
///
/// A node is in one of three states: *owner* (`owned`, and `held` while the
/// local thread is inside the critical section), *awaiting* (its own acquire
/// is outstanding: it has sent a request and the token has not arrived yet),
/// or *idle*. Only an idle node forwards a request, and it then points its
/// hint at the requester, the newest waiter it knows of (path compression):
/// hints lead to the queue's tail, not along the token's past. An awaiting
/// node is such a tail and parks requests behind its own.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub struct LockState {
    /// Whether this node currently owns the lock token (holds it or is the
    /// node at which the free lock resides).
    pub owned: bool,
    /// Whether the local user thread currently holds the lock.
    pub held: bool,
    /// Whether the local thread's acquire is outstanding: set when the
    /// request is sent, cleared by [`Self::receive_grant`] (or by
    /// [`Self::abandon_acquire`] when the acquire fails).
    pub awaiting: bool,
    /// Requesters waiting behind this node. At the owner it is the lock's
    /// waiter queue; at an awaiting node it holds the requests parked until
    /// the token arrives; at an idle node it is empty.
    pub queue: VecDeque<NodeId>,
    /// Where to forward acquire requests: the newest requester this node
    /// has heard of (or itself while it owns the token).
    pub probable_owner: NodeId,
    /// The node this node last sent the token to (itself while it owns it,
    /// the home before either): crash recovery's evidence of the token's
    /// whereabouts, which the routing hint is not.
    pub sent_token_to: NodeId,
    /// Data objects associated with the lock via `AssociateDataAndSynch`;
    /// their contents are piggybacked on lock grants.
    pub associated: Vec<ObjectId>,
    /// When the token last came to rest here, free: the local release that
    /// found no waiter, or the arrival of a token nobody was waiting for.
    /// The release → acquire edge of a free lock: a later grant or local
    /// acquire happens no earlier. Kept by the runtime, which knows the
    /// time; the transitions below never touch it.
    pub released_at: VirtTime,
}

impl LockState {
    /// Creates the initial state of a lock created at `home` as seen from a
    /// node: the home node owns it, everyone else forwards there.
    pub fn new(home: NodeId, local: NodeId) -> Self {
        LockState {
            owned: home == local,
            held: false,
            awaiting: false,
            queue: VecDeque::new(),
            probable_owner: home,
            sent_token_to: home,
            associated: Vec::new(),
            released_at: VirtTime::ZERO,
        }
    }

    /// Attempts a purely local acquire. Returns `true` if the lock was free
    /// and owned locally (fast path, no messages needed).
    pub fn try_local_acquire(&mut self) -> bool {
        if self.owned && !self.held && self.queue.is_empty() {
            self.held = true;
            true
        } else {
            false
        }
    }

    /// Starts a local acquire: takes the lock on the spot when it is free
    /// here (`None`), otherwise marks the acquire outstanding and returns
    /// the node the request must be sent to. Reading the hint and setting
    /// `awaiting` are one step, so no request can slip past in between and
    /// be forwarded along the hint this node is about to follow itself.
    pub fn begin_acquire(&mut self) -> Option<NodeId> {
        if self.try_local_acquire() {
            return None;
        }
        self.awaiting = true;
        Some(self.probable_owner)
    }

    /// Installs the lock token at this node (a `LockGrant` arrived, or the
    /// home regenerated a lost token), together with the waiter queue that
    /// travels with it. Requests parked here while the token was on its way
    /// line up behind that queue (a requester already in it is not queued
    /// twice).
    ///
    /// When the local acquire was outstanding the local thread becomes the
    /// holder. Otherwise nobody here asked for the token — crash recovery
    /// re-sent a request whose original was served after all, or minted a
    /// fresh token — and it is passed straight on to the head waiter, or
    /// rests here, free, if there is none.
    pub fn receive_grant(
        &mut self,
        queue: impl IntoIterator<Item = NodeId>,
        local: NodeId,
    ) -> TokenArrival {
        let parked = std::mem::replace(&mut self.queue, queue.into_iter().collect());
        for node in parked {
            if !self.queue.contains(&node) {
                self.queue.push_back(node);
            }
        }
        self.owned = true;
        self.probable_owner = local;
        self.sent_token_to = local;
        if std::mem::take(&mut self.awaiting) {
            self.held = true;
            return TokenArrival::Acquired;
        }
        match self.release() {
            Some((next, rest)) => TokenArrival::PassedOn(next, rest),
            None => TokenArrival::Idle,
        }
    }

    /// Handles a remote acquire request arriving at this node.
    ///
    /// Returns what the runtime must do with it. Queueing is idempotent (a
    /// requester already waiting is not queued twice): the crash-recovery
    /// path re-sends an acquire towards the lock home when a peer on the
    /// forwarding chain dies, and the original request may still be alive.
    pub fn handle_remote_acquire(&mut self, requester: NodeId) -> RemoteAcquireAction {
        if !self.owned && !self.awaiting {
            let hint = std::mem::replace(&mut self.probable_owner, requester);
            // Only a crash-recovery re-send finds the hint at its requester:
            // it goes where the token went instead.
            let next = if hint == requester {
                self.sent_token_to
            } else {
                hint
            };
            return RemoteAcquireAction::Forward(next);
        }
        if self.owned && !self.held && self.queue.is_empty() {
            // Free at this node: hand ownership over immediately.
            self.owned = false;
            self.probable_owner = requester;
            self.sent_token_to = requester;
            RemoteAcquireAction::Grant
        } else {
            // Held here, or on its way here: wait behind this node.
            if !self.queue.contains(&requester) {
                self.queue.push_back(requester);
            }
            RemoteAcquireAction::Queued
        }
    }

    /// Gives up an outstanding local acquire (it failed with `NodeDown` or
    /// a stall). Returns the requests parked behind it, which the caller
    /// must send on: their requesters are waiting on a node that no longer
    /// expects the token. Empty when the token arrived after all.
    pub fn abandon_acquire(&mut self) -> Vec<NodeId> {
        if !std::mem::take(&mut self.awaiting) {
            return Vec::new();
        }
        self.queue.drain(..).collect()
    }

    /// Mints a fresh token at the lock's home ([`Self::recover`]): the queue
    /// that travelled with the dead one is gone, and orphaned waiters re-send
    /// their acquires to the home. It arrives like a grant with an empty
    /// queue ([`Self::receive_grant`]). `None` when the home owns a token.
    pub fn regenerate_token(&mut self, local: NodeId) -> Option<TokenArrival> {
        (!self.owned).then(|| self.receive_grant([], local))
    }

    /// Removes a dead node from the waiter queue (parked requests
    /// included), and redirects a probable-owner hint that points at the
    /// dead node to `fallback` (the lock home) so later forwards do not
    /// chase a corpse.
    pub fn prune_dead(&mut self, dead: NodeId, fallback: NodeId) {
        self.queue.retain(|n| *n != dead);
        if self.probable_owner == dead && !self.owned {
            self.probable_owner = fallback;
        }
    }

    /// Crash recovery for `dead` at `local`: the home, having last sent the
    /// token to the corpse, mints a fresh one. The hint is no such evidence
    /// (it may name a forwarded requester or a queue's tail); pruned, it
    /// falls back to the home, or at the home to where the token went.
    pub fn recover(&mut self, dead: NodeId, home: NodeId, local: NodeId) -> Option<TokenArrival> {
        let at_home = home == local;
        let token_lost = at_home && !self.owned && self.sent_token_to == dead;
        self.prune_dead(dead, if at_home { self.sent_token_to } else { home });
        token_lost.then(|| self.regenerate_token(local)).flatten()
    }

    /// Releases the lock locally. If waiters are queued, ownership (and the
    /// remaining queue) goes to the head waiter, the hint to the queue's
    /// tail, and the grant target is returned.
    ///
    /// Returns `None` if no one is waiting (the lock stays here, free).
    pub fn release(&mut self) -> Option<(NodeId, Vec<NodeId>)> {
        self.held = false;
        let next = self.queue.pop_front()?;
        let rest: Vec<NodeId> = self.queue.drain(..).collect();
        self.owned = false;
        self.probable_owner = rest.last().copied().unwrap_or(next);
        self.sent_token_to = next;
        Some((next, rest))
    }
}

/// What became of a lock token installed by [`LockState::receive_grant`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum TokenArrival {
    /// The local acquire was waiting for it: the local thread now holds the
    /// lock and must be woken.
    Acquired,
    /// Nobody here was waiting: ownership moved on to this node, with the
    /// rest of the queue. The caller sends the grant.
    PassedOn(NodeId, Vec<NodeId>),
    /// Nobody is waiting anywhere: the token rests here, free.
    Idle,
}

/// What a node must do with a remote lock-acquire request.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum RemoteAcquireAction {
    /// Not the owner: forward the request to this node.
    Forward(NodeId),
    /// The lock was free here: grant ownership to the requester.
    Grant,
    /// The lock is busy: the requester has been queued.
    Queued,
}

/// The static k-ary combining tree a barrier's arrivals climb and its
/// releases descend.
///
/// Nodes are laid out heap-style by *rank*: the barrier owner is rank 0, the
/// ranks `r·k+1 ..= r·k+k` are the children of rank `r`, and rank `r` of node
/// `n` is `(n + nodes − owner) mod nodes` — so the shape depends only on
/// `(owner, nodes, fanout)` and every node derives identical edges without
/// coordination. At `k = nodes − 1` the tree is a star: every node reports
/// straight to the owner. The *static* tree never changes; crash recovery
/// re-parents a subtree by sending its reports to the nearest live static
/// ancestor, which moves an edge but never changes any node's static subtree
/// membership.
#[derive(Clone, Copy, Debug)]
pub struct TreeTopology {
    /// The barrier owner (rank 0, the tree root).
    pub owner: NodeId,
    /// Total cluster size.
    nodes: usize,
    /// Fan-in `k`, between 1 and `nodes − 1` (at least 1): only
    /// [`Self::new`] sets it, so rank arithmetic stays below `nodes²`.
    fanout: usize,
}

impl TreeTopology {
    /// Builds the topology. Any `fanout` of `nodes − 1` or more describes
    /// the same star, so it is clamped there, whatever the configuration
    /// asked for.
    pub fn new(owner: NodeId, nodes: usize, fanout: usize) -> Self {
        TreeTopology {
            owner,
            nodes,
            fanout: fanout.clamp(1, Self::star_fanout(nodes)),
        }
    }

    /// The largest fan-in that means anything on `nodes` nodes: everyone but
    /// the owner is its child (1 on a cluster of one, which has no edges).
    pub fn star_fanout(nodes: usize) -> usize {
        nodes.saturating_sub(1).max(1)
    }

    /// Whether every node reports straight to the owner.
    pub fn is_star(&self) -> bool {
        self.fanout + 1 >= self.nodes
    }

    /// Heap rank of a node (owner = 0).
    pub fn rank_of(&self, node: NodeId) -> usize {
        (node.as_usize() + self.nodes - self.owner.as_usize()) % self.nodes
    }

    /// The node holding a heap rank.
    pub fn node_at(&self, rank: usize) -> NodeId {
        NodeId::new((self.owner.as_usize() + rank) % self.nodes)
    }

    /// Ranks of the static children of `rank`, in order.
    fn child_ranks(&self, rank: usize) -> std::ops::Range<usize> {
        let first = (rank * self.fanout + 1).min(self.nodes);
        first..(first + self.fanout).min(self.nodes)
    }

    /// The node's full static subtree, itself included.
    pub fn subtree_of(&self, node: NodeId) -> NodeSet {
        let mut set = NodeSet::EMPTY;
        let mut stack = vec![self.rank_of(node)];
        while let Some(r) = stack.pop() {
            set.insert(self.node_at(r));
            stack.extend(self.child_ranks(r));
        }
        set
    }

    /// Whether `ancestor` lies on the static path from `node` (exclusive)
    /// up to the owner (inclusive). Crash recovery uses this to decide
    /// whether a death can have swallowed this node's upward report.
    pub fn is_ancestor_of(&self, ancestor: NodeId, node: NodeId) -> bool {
        let target = self.rank_of(ancestor);
        let mut r = self.rank_of(node);
        while r > 0 {
            r = (r - 1) / self.fanout;
            if r == target {
                return true;
            }
        }
        false
    }

    /// The nearest static ancestor not in `dead` — the node a re-parented
    /// subtree reports to. `None` when every ancestor up to and including
    /// the owner is dead (owner death ends the run via `NodeDown`), and for
    /// the owner itself, which has no parent.
    pub fn live_parent_of(&self, node: NodeId, dead: &NodeSet) -> Option<NodeId> {
        let mut r = self.rank_of(node);
        while r > 0 {
            r = (r - 1) / self.fanout;
            let ancestor = self.node_at(r);
            if !dead.contains(ancestor) {
                return Some(ancestor);
            }
        }
        None
    }
}

/// Per-node state of one barrier.
///
/// "A thread arrives, the owner releases everyone": arrivals climb the
/// barrier's [`TreeTopology`] as merged reports and the release descends the
/// edges the reports came up. Every node keeps one of these per barrier and
/// combines its own arrival with its children's reports here; the decision
/// what to do next is the pure [`Self::advance`].
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub struct BarrierState {
    /// The node that opens the barrier (the tree root).
    pub owner: NodeId,
    /// Every node known to have arrived this episode in (or re-parented
    /// into) this node's subtree, itself included once it arrives.
    pub arrived: NodeSet,
    /// Dynamic children this episode: each reporting node and the arrived
    /// set it covers, recorded from its upward reports. Releases fan down
    /// exactly these edges, so a re-parented subtree is released by whoever
    /// actually received its report.
    pub children: Vec<(NodeId, NodeSet)>,
    /// Arrival count as of the last upward report, so duplicate incoming
    /// reports (crash-recovery re-sends) do not trigger duplicate forwards:
    /// a node re-forwards only when its merged set has grown.
    pub forwarded_count: usize,
    /// Episodes this node has been released from. A report or release is for
    /// episode `completed + 1`, or it is stale.
    pub completed: u64,
    /// Latest time anything arrived at this state this episode (the local
    /// thread, a child's report, a death's confirmation): the upward report
    /// — at the owner, the opening — is stamped from it, not from whichever
    /// arrival happened to be processed last.
    pub latest: VirtTime,
}

/// What [`BarrierState::advance`] decided. Computed under the sync lock and
/// acted on outside it.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum BarrierStep {
    /// Nothing to do: the subtree is incomplete, or nothing grew since the
    /// last upward report.
    Hold,
    /// Send the merged arrived set of episode `gen` to the live parent, no
    /// earlier than `at`.
    Report {
        /// The episode.
        gen: u64,
        /// Everyone known to have arrived below this node, itself included.
        arrived: NodeSet,
        /// The latest arrival the report accounts for.
        at: VirtTime,
    },
    /// Owner only: every live node has arrived. Episode `gen` opened at
    /// `at`; the state is already reset for the next one.
    Open {
        /// The episode.
        gen: u64,
        /// The edges to release down, with the set each one covers.
        children: Vec<(NodeId, NodeSet)>,
        /// The latest arrival of the episode.
        at: VirtTime,
    },
}

impl BarrierState {
    /// Creates the barrier state.
    pub fn new(owner: NodeId) -> Self {
        BarrierState {
            owner,
            arrived: NodeSet::EMPTY,
            children: Vec::new(),
            forwarded_count: 0,
            completed: 0,
            latest: VirtTime::ZERO,
        }
    }

    /// Merges a child's report for episode `gen` into the combining state.
    /// `false` when this node has already been released from that episode:
    /// the sender missed the release (the ancestor that absorbed its report
    /// died before forwarding it) and is owed one directly; nothing is
    /// counted. Reports are sets, so a duplicate or a grown re-send merges
    /// idempotently.
    pub fn merge_report(&mut self, from: NodeId, gen: u64, covered: &NodeSet) -> bool {
        if gen <= self.completed {
            return false;
        }
        self.arrived.union_with(covered);
        match self.children.iter_mut().find(|(c, _)| *c == from) {
            Some((_, set)) => set.union_with(covered),
            None => self.children.push((from, covered.clone())),
        }
        true
    }

    /// Decides what `me` does after an event at time `at` — its own thread's
    /// arrival (recorded in `arrived` by the caller), a merged report, a
    /// confirmed death. Idempotent: a trigger that changed nothing yields
    /// [`BarrierStep::Hold`].
    ///
    /// A node is complete when everyone in its static subtree who is not in
    /// `dead` has arrived — itself included, so nothing leaves before its
    /// own thread arrives. Removing the dead from what is needed is the only
    /// way a dead participant is excluded.
    pub fn advance(
        &mut self,
        me: NodeId,
        topo: &TreeTopology,
        dead: &NodeSet,
        at: VirtTime,
    ) -> BarrierStep {
        self.latest = self.latest.max(at);
        let mut needed = topo.subtree_of(me);
        needed.difference_with(dead);
        if !self.arrived.is_superset_of(&needed) {
            return BarrierStep::Hold;
        }
        let (gen, at) = (self.completed + 1, self.latest);
        if me == topo.owner {
            let children = std::mem::take(&mut self.children);
            self.reset_episode(gen);
            BarrierStep::Open { gen, children, at }
        } else if self.arrived.count() > self.forwarded_count {
            self.forwarded_count = self.arrived.count();
            let arrived = self.arrived.clone();
            BarrierStep::Report { gen, arrived, at }
        } else {
            BarrierStep::Hold
        }
    }

    /// The release of episode `gen` reached `me`. Returns the edges to pass
    /// it down — the state is then reset for the next episode and the local
    /// thread is to be woken — or `None` for a duplicate (a crash-recovery
    /// re-send of a release already acted on). The owner opened the episode
    /// itself and sees no release: its thread is woken where it opens.
    pub fn release(&mut self, gen: u64) -> Option<Vec<(NodeId, NodeSet)>> {
        if gen <= self.completed {
            return None;
        }
        let children = std::mem::take(&mut self.children);
        self.reset_episode(gen);
        Some(children)
    }

    /// A static ancestor died, and may have swallowed this node's report
    /// without forwarding it: the next [`Self::advance`] sends the merged
    /// report again (to the nearest live ancestor). Re-sends merge
    /// idempotently, so over-sending is safe and under-sending is not.
    pub fn report_again(&mut self) {
        self.forwarded_count = 0;
    }

    fn reset_episode(&mut self, completed: u64) {
        self.arrived.clear();
        self.children.clear();
        self.forwarded_count = 0;
        self.completed = completed;
        self.latest = VirtTime::ZERO;
    }
}

/// The synchronization object directory of one node: the analogue of the data
/// object directory for locks and barriers.
#[derive(Clone, Debug, Default)]
pub struct SyncDirectory {
    locks: Vec<LockState>,
    barriers: Vec<BarrierState>,
}

impl SyncDirectory {
    /// Builds the directory for a node, given the home of every statically
    /// created lock and the owner of every barrier (all at the root in the
    /// prototype).
    pub fn new(local: NodeId, lock_homes: &[NodeId], barrier_owners: &[NodeId]) -> Self {
        SyncDirectory {
            locks: lock_homes
                .iter()
                .map(|home| LockState::new(*home, local))
                .collect(),
            barriers: barrier_owners
                .iter()
                .map(|owner| BarrierState::new(*owner))
                .collect(),
        }
    }

    /// State of a lock.
    pub fn lock(&self, id: LockId) -> &LockState {
        &self.locks[id.0 as usize]
    }

    /// Mutable state of a lock.
    pub fn lock_mut(&mut self, id: LockId) -> &mut LockState {
        &mut self.locks[id.0 as usize]
    }

    /// Mutable state of a lock the program may not have created.
    pub fn known_lock(&mut self, id: LockId) -> Result<&mut LockState> {
        let unknown = MuninError::UnknownSyncObject(id.0);
        self.locks.get_mut(id.0 as usize).ok_or(unknown)
    }

    /// State of a barrier.
    pub fn barrier(&self, id: BarrierId) -> &BarrierState {
        &self.barriers[id.0 as usize]
    }

    /// Mutable state of a barrier.
    pub fn barrier_mut(&mut self, id: BarrierId) -> &mut BarrierState {
        &mut self.barriers[id.0 as usize]
    }

    /// Number of barriers known to this node.
    pub fn barrier_count(&self) -> usize {
        self.barriers.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Accessors only the tests read.
    impl TreeTopology {
        /// Static tree children, in rank order.
        pub fn children_of(&self, node: NodeId) -> Vec<NodeId> {
            self.child_ranks(self.rank_of(node))
                .map(|r| self.node_at(r))
                .collect()
        }
    }

    fn n(i: usize) -> NodeId {
        NodeId::new(i)
    }

    /// For the tests that are about who is released, not when.
    const T0: VirtTime = VirtTime::ZERO;

    #[test]
    fn local_acquire_fast_path() {
        let mut lock = LockState::new(n(0), n(0));
        assert!(lock.try_local_acquire());
        assert!(lock.held);
        // Cannot acquire again while held.
        assert!(!lock.try_local_acquire());
    }

    #[test]
    fn non_owner_cannot_acquire_locally() {
        let mut lock = LockState::new(n(0), n(1));
        assert!(!lock.try_local_acquire());
        assert_eq!(lock.probable_owner, n(0));
    }

    #[test]
    fn remote_acquire_grants_free_lock_and_moves_ownership() {
        let mut lock = LockState::new(n(0), n(0));
        let action = lock.handle_remote_acquire(n(2));
        assert_eq!(action, RemoteAcquireAction::Grant);
        assert!(!lock.owned);
        assert_eq!(lock.probable_owner, n(2));
        // A later request is forwarded to the new owner.
        assert_eq!(
            lock.handle_remote_acquire(n(3)),
            RemoteAcquireAction::Forward(n(2))
        );
    }

    #[test]
    fn remote_acquire_queues_when_held() {
        let mut lock = LockState::new(n(0), n(0));
        assert!(lock.try_local_acquire());
        assert_eq!(
            lock.handle_remote_acquire(n(1)),
            RemoteAcquireAction::Queued
        );
        assert_eq!(
            lock.handle_remote_acquire(n(2)),
            RemoteAcquireAction::Queued
        );
        // Release hands ownership and the remaining queue to the head waiter;
        // the hint names the queue's tail, where the next request belongs.
        let (next, rest) = lock.release().unwrap();
        assert_eq!(next, n(1));
        assert_eq!(rest, vec![n(2)]);
        assert!(!lock.owned);
        assert_eq!(lock.probable_owner, n(2));
        assert_eq!(lock.sent_token_to, n(1));
    }

    #[test]
    fn release_without_waiters_keeps_lock_local() {
        let mut lock = LockState::new(n(0), n(0));
        assert!(lock.try_local_acquire());
        assert!(lock.release().is_none());
        assert!(lock.owned);
        assert!(!lock.held);
        // Can re-acquire locally without messages.
        assert!(lock.try_local_acquire());
    }

    #[test]
    fn grant_receipt_installs_queue() {
        let mut lock = LockState::new(n(0), n(3));
        assert_eq!(lock.begin_acquire(), Some(n(0)));
        assert!(lock.awaiting);
        assert_eq!(
            lock.receive_grant(vec![n(1), n(2)], n(3)),
            TokenArrival::Acquired
        );
        assert!(lock.owned && lock.held && !lock.awaiting);
        assert_eq!(lock.probable_owner, n(3));
        assert_eq!(lock.queue, vec![n(1), n(2)]);
        let (next, rest) = lock.release().unwrap();
        assert_eq!(next, n(1));
        assert_eq!(rest, vec![n(2)]);
    }

    #[test]
    fn awaiting_node_parks_requests_behind_its_own() {
        let mut lock = LockState::new(n(0), n(3));
        // Idle non-owner: forwards along the hint, then points it at the
        // requester, the newest waiter it knows of.
        assert_eq!(
            lock.handle_remote_acquire(n(1)),
            RemoteAcquireAction::Forward(n(0))
        );
        assert_eq!(lock.sent_token_to, n(0));
        // Its own acquire goes there too. While it is outstanding this node
        // is the newest waiter, so requests wait here instead of forwarding.
        assert_eq!(lock.begin_acquire(), Some(n(1)));
        assert_eq!(
            lock.handle_remote_acquire(n(1)),
            RemoteAcquireAction::Queued
        );
        assert_eq!(
            lock.handle_remote_acquire(n(2)),
            RemoteAcquireAction::Queued
        );
        assert_eq!(
            lock.handle_remote_acquire(n(1)),
            RemoteAcquireAction::Queued
        );
        assert!(!lock.owned);
        // The grant's own queue goes first; parked requests line up behind
        // it, and one that is in both (node 2) is not queued twice.
        assert_eq!(
            lock.receive_grant(vec![n(4), n(2)], n(3)),
            TokenArrival::Acquired
        );
        assert_eq!(lock.queue, vec![n(4), n(2), n(1)]);
        assert_eq!(lock.release(), Some((n(4), vec![n(2), n(1)])));
        assert!(lock.queue.is_empty());
    }

    #[test]
    fn unawaited_token_is_passed_on_or_rests() {
        // A second grant for one acquire (crash recovery duplicated the
        // request): nobody here is waiting, the head waiter gets it.
        let mut lock = LockState::new(n(0), n(3));
        assert_eq!(
            lock.receive_grant(vec![n(1), n(2)], n(3)),
            TokenArrival::PassedOn(n(1), vec![n(2)])
        );
        assert!(!lock.owned && !lock.held);
        assert_eq!(lock.probable_owner, n(2));
        assert_eq!(lock.sent_token_to, n(1));
        // No waiters either: it rests here, free for the next local acquire.
        assert_eq!(lock.receive_grant([], n(3)), TokenArrival::Idle);
        assert!(lock.owned && !lock.held);
        assert_eq!(lock.begin_acquire(), None);
    }

    #[test]
    fn abandoned_acquire_hands_its_parked_requests_back() {
        let mut lock = LockState::new(n(0), n(3));
        assert_eq!(lock.begin_acquire(), Some(n(0)));
        lock.handle_remote_acquire(n(1));
        lock.handle_remote_acquire(n(2));
        assert_eq!(lock.abandon_acquire(), vec![n(1), n(2)]);
        assert!(!lock.awaiting && lock.queue.is_empty());
        // Idle again: later requests are forwarded, not parked.
        assert_eq!(
            lock.handle_remote_acquire(n(1)),
            RemoteAcquireAction::Forward(n(0))
        );
        // Once the token has arrived there is nothing to withdraw: the
        // waiters are the lock's real queue now.
        let mut lock = LockState::new(n(0), n(3));
        assert_eq!(lock.begin_acquire(), Some(n(0)));
        lock.handle_remote_acquire(n(1));
        lock.receive_grant([], n(3));
        assert_eq!(lock.abandon_acquire(), Vec::<NodeId>::new());
        assert_eq!(lock.queue, vec![n(1)]);
    }

    /// The owner (node 0) of an `nodes`-node star barrier, driven as the
    /// runtime drives it: a leaf's arrival is its one-node report, the
    /// owner's is local, a death is a node that stops being needed.
    struct StarOwner {
        b: BarrierState,
        topo: TreeTopology,
        dead: NodeSet,
    }

    impl StarOwner {
        fn new(nodes: usize) -> Self {
            StarOwner {
                b: BarrierState::new(n(0)),
                topo: TreeTopology::new(n(0), nodes, usize::MAX),
                dead: NodeSet::EMPTY,
            }
        }

        /// The leaves released and the opening time, if the event at `at`
        /// opened the barrier.
        fn step(&mut self, at: VirtTime) -> Option<(Vec<NodeId>, VirtTime)> {
            match self.b.advance(n(0), &self.topo, &self.dead, at) {
                BarrierStep::Hold => None,
                BarrierStep::Open { children, at, .. } => {
                    Some((children.into_iter().map(|(c, _)| c).collect(), at))
                }
                report => panic!("the owner reports to nobody: {report:?}"),
            }
        }

        fn arrive(&mut self, from: NodeId, at: VirtTime) -> Option<(Vec<NodeId>, VirtTime)> {
            if from == n(0) {
                self.b.arrived.insert(from);
            } else {
                let gen = self.b.completed + 1;
                assert!(self.b.merge_report(from, gen, &NodeSet::from_nodes([from])));
            }
            self.step(at)
        }

        fn exclude(&mut self, node: NodeId, at: VirtTime) -> Option<(Vec<NodeId>, VirtTime)> {
            self.dead.insert(node);
            self.step(at)
        }
    }

    #[test]
    fn barrier_opens_when_all_parties_arrive() {
        let mut b = StarOwner::new(3);
        assert!(b.arrive(n(0), T0).is_none());
        assert!(b.arrive(n(1), T0).is_none());
        let (released, _) = b.arrive(n(2), T0).unwrap();
        assert_eq!(released, vec![n(1), n(2)]);
        assert_eq!(b.b.completed, 1);
        // The barrier is reusable.
        assert!(b.arrive(n(2), T0).is_none());
        assert!(b.arrive(n(1), T0).is_none());
        assert!(b.arrive(n(0), T0).is_some());
        assert_eq!(b.b.completed, 2);
    }

    #[test]
    fn barrier_opens_at_its_latest_arrival_not_the_one_processed_last() {
        let us = VirtTime::from_micros;
        let mut b = StarOwner::new(3);
        // The host ran the virtually latest arriver first.
        assert!(b.arrive(n(2), us(900)).is_none());
        assert!(b.arrive(n(0), us(100)).is_none());
        let (_, opened_at) = b.arrive(n(1), us(300)).unwrap();
        assert_eq!(opened_at, us(900));
        // The next episode starts from scratch.
        assert!(b.arrive(n(0), us(10)).is_none());
        assert!(b.arrive(n(1), us(30)).is_none());
        assert_eq!(b.arrive(n(2), us(20)).unwrap().1, us(30));
        // An exclusion that opens the barrier is itself the last event.
        assert!(b.arrive(n(0), us(50)).is_none());
        assert!(b.arrive(n(1), us(40)).is_none());
        assert_eq!(b.exclude(n(2), us(70)).unwrap().1, us(70));
    }

    #[test]
    fn excluding_a_dead_node_lowers_the_arrival_threshold() {
        let mut b = StarOwner::new(4);
        assert!(b.arrive(n(0), T0).is_none());
        assert!(b.arrive(n(1), T0).is_none());
        // Node 3 dies: the two arrivals are still not enough.
        assert!(b.exclude(n(3), T0).is_none());
        let (released, _) = b.arrive(n(2), T0).unwrap();
        assert_eq!(released, vec![n(1), n(2)]);
        // Excluding again is idempotent.
        assert!(b.exclude(n(3), T0).is_none());
        // Next episode still runs without node 3.
        assert!(b.arrive(n(0), T0).is_none());
        assert!(b.arrive(n(1), T0).is_none());
        assert!(b.arrive(n(2), T0).is_some());
    }

    #[test]
    fn exclusion_of_the_last_straggler_releases_waiters() {
        let mut b = StarOwner::new(3);
        assert!(b.arrive(n(0), T0).is_none());
        assert!(b.arrive(n(1), T0).is_none());
        // Node 2 dies while everyone else waits: the exclusion itself opens
        // the barrier.
        let (released, _) = b.exclude(n(2), T0).unwrap();
        assert_eq!(released, vec![n(1)]);
        assert_eq!(b.b.completed, 1);
    }

    #[test]
    fn exclusion_above_node_64_does_not_alias() {
        // Regression: the historical bitmap computed `1u64 << (node % 64)`,
        // so excluding node 64 (a) aliased onto node 0 and (b) made a later
        // real exclusion of node 0 an idempotent no-op — one node too many
        // stayed needed and the barrier hung forever.
        let mut b = StarOwner::new(66);
        assert!(b.exclude(n(64), T0).is_none());
        assert!(b.exclude(n(1), T0).is_none());
        assert!(b.exclude(n(65), T0).is_none());
        assert_eq!(b.dead.count(), 3, "three distinct exclusions");
        // 66 nodes - 3 dead = 63 arrivals open the barrier.
        assert!(b.arrive(n(0), T0).is_none());
        for i in 2..63 {
            assert!(b.arrive(n(i), T0).is_none(), "arrival {i} must not open");
        }
        let (released, _) = b.arrive(n(63), T0).unwrap();
        assert_eq!(released.len(), 62);
        assert_eq!(b.b.completed, 1);
    }

    #[test]
    fn excluding_an_already_arrived_node_drops_its_arrival() {
        let mut b = StarOwner::new(3);
        assert!(b.arrive(n(2), T0).is_none());
        assert!(b.exclude(n(2), T0).is_none());
        // Nodes 0 and 1 are still needed: node 2's stale arrival stands in
        // for neither.
        assert!(b.arrive(n(0), T0).is_none());
        assert!(b.arrive(n(1), T0).is_some());
    }

    #[test]
    fn duplicate_queue_entries_are_not_created() {
        let mut lock = LockState::new(n(0), n(0));
        assert!(lock.try_local_acquire());
        assert_eq!(
            lock.handle_remote_acquire(n(1)),
            RemoteAcquireAction::Queued
        );
        // A crash-recovery re-send of the same acquire is a no-op.
        assert_eq!(
            lock.handle_remote_acquire(n(1)),
            RemoteAcquireAction::Queued
        );
        assert_eq!(lock.queue, vec![n(1)]);
    }

    #[test]
    fn token_regeneration_and_dead_pruning() {
        let mut lock = LockState::new(n(0), n(0));
        // Grant the token away; node 2 now holds it.
        assert_eq!(lock.handle_remote_acquire(n(2)), RemoteAcquireAction::Grant);
        assert!(!lock.owned);
        // Node 2 dies: the home regenerates a free local token.
        assert_eq!(lock.regenerate_token(n(0)), Some(TokenArrival::Idle));
        assert!(lock.owned && !lock.held && lock.queue.is_empty());
        assert_eq!(lock.probable_owner, n(0));
        // Regenerating an owned token is refused.
        assert_eq!(lock.regenerate_token(n(0)), None);
        // Pruning removes dead waiters and redirects stale hints.
        let mut other = LockState::new(n(0), n(1));
        other.prune_dead(n(0), n(0));
        assert_eq!(other.probable_owner, n(0));
        let mut held = LockState::new(n(0), n(0));
        assert!(held.try_local_acquire());
        held.handle_remote_acquire(n(2));
        held.handle_remote_acquire(n(3));
        held.prune_dead(n(2), n(0));
        assert_eq!(held.queue, vec![n(3)]);
    }

    #[test]
    fn regeneration_keeps_the_requests_parked_at_the_home() {
        // The home's own acquire is outstanding, two requests are parked
        // behind it, and the token dies with node 4 (one parked requester
        // dies too). The fresh token goes to the home's acquire, with the
        // surviving parked request queued behind it — not cleared.
        let mut home = LockState::new(n(0), n(0));
        assert_eq!(home.handle_remote_acquire(n(4)), RemoteAcquireAction::Grant);
        assert_eq!(home.begin_acquire(), Some(n(4)));
        home.handle_remote_acquire(n(2));
        home.handle_remote_acquire(n(5));
        home.prune_dead(n(5), n(0));
        home.prune_dead(n(4), n(0));
        assert_eq!(home.queue, vec![n(2)]);
        assert_eq!(home.regenerate_token(n(0)), Some(TokenArrival::Acquired));
        assert!(home.owned && home.held && !home.awaiting);
        assert_eq!(home.release(), Some((n(2), vec![])));
    }

    #[test]
    fn recovery_regenerates_only_a_token_sent_to_the_corpse() {
        // The home forwarded node 3's request after granting the token to
        // node 2: its hint names 3, the token is with 2. Node 3 dies while
        // awaiting.
        let mut home = LockState::new(n(0), n(0));
        assert_eq!(home.handle_remote_acquire(n(2)), RemoteAcquireAction::Grant);
        assert_eq!(
            home.handle_remote_acquire(n(3)),
            RemoteAcquireAction::Forward(n(2))
        );
        assert_eq!(home.probable_owner, n(3));
        assert_eq!(home.recover(n(3), n(0), n(0)), None);
        assert!(!home.owned);
        // The pruned hint goes where the token went, never to the home itself.
        assert_eq!(home.probable_owner, n(2));
        // The home handed the token to node 2 with queue [3]: the hint is the
        // tail, 3. Node 3 dies: the token lives on at node 2.
        let handed_on = || {
            let mut home = LockState::new(n(0), n(0));
            assert!(home.try_local_acquire());
            home.handle_remote_acquire(n(2));
            home.handle_remote_acquire(n(3));
            assert_eq!(home.release(), Some((n(2), vec![n(3)])));
            assert_eq!((home.probable_owner, home.sent_token_to), (n(3), n(2)));
            home
        };
        let mut home = handed_on();
        assert_eq!(home.recover(n(3), n(0), n(0)), None);
        assert!(!home.owned);
        // Node 2 dies in the same state: it had the token, so the home mints
        // a fresh one, free here since nobody waits at the home.
        let mut home = handed_on();
        assert_eq!(home.recover(n(2), n(0), n(0)), Some(TokenArrival::Idle));
        assert!(home.owned && !home.held && home.queue.is_empty());
        // Away from the home nothing is minted; a hint at the corpse falls
        // back to the home.
        let mut other = LockState::new(n(0), n(1));
        assert_eq!(
            other.handle_remote_acquire(n(2)),
            RemoteAcquireAction::Forward(n(0))
        );
        assert_eq!(other.recover(n(2), n(0), n(1)), None);
        assert_eq!(other.probable_owner, n(0));
    }

    #[test]
    fn a_resent_request_is_not_forwarded_back_to_its_requester() {
        // The home granted the token to node 2, then forwarded node 3's
        // request, which a death swallowed: node 3 re-sends it to the home,
        // whose hint still names node 3. It goes where the token went.
        let mut home = LockState::new(n(0), n(0));
        assert_eq!(home.handle_remote_acquire(n(2)), RemoteAcquireAction::Grant);
        home.handle_remote_acquire(n(3));
        assert_eq!(
            home.handle_remote_acquire(n(3)),
            RemoteAcquireAction::Forward(n(2))
        );
    }

    #[test]
    fn directory_indexes_locks_and_barriers() {
        let mut dir = SyncDirectory::new(n(1), &[n(0), n(0)], &[n(0)]);
        assert!(dir.known_lock(LockId(1)).is_ok() && dir.known_lock(LockId(2)).is_err());
        assert_eq!(dir.barrier_count(), 1);
        assert!(!dir.lock(LockId(0)).owned);
        assert_eq!(dir.barrier(BarrierId(0)).owner, n(0));
        assert_eq!(dir.barrier(BarrierId(0)).completed, 0);
    }

    /// Every shape the topology tests walk: real trees, and — for each of a
    /// few cluster sizes — every spelling of the star, up to fan-ins whose
    /// rank arithmetic would overflow if they were not clamped.
    fn topologies() -> Vec<TreeTopology> {
        let mut all = vec![
            // Non-zero owner: ranks rotate.
            TreeTopology::new(n(3), 13, 4),
            TreeTopology::new(n(0), 64, 2),
            TreeTopology::new(n(0), 256, 8),
        ];
        for nodes in [1usize, 2, 3, 13] {
            for k in [nodes.saturating_sub(1), nodes, 1 << 63, usize::MAX] {
                all.push(TreeTopology::new(n(nodes / 2), nodes, k));
            }
        }
        all
    }

    #[test]
    fn tree_topology_edges_are_mutually_consistent() {
        for t in topologies() {
            assert_eq!(t.rank_of(t.owner), 0);
            assert_eq!(t.live_parent_of(t.owner, &NodeSet::EMPTY), None);
            for i in 0..t.nodes {
                let node = n(i);
                let children = t.children_of(node);
                assert!(children.len() <= t.fanout, "{t:?}");
                for child in children {
                    assert_ne!(child, node, "{t:?}");
                    assert_eq!(
                        t.live_parent_of(child, &NodeSet::EMPTY),
                        Some(node),
                        "{t:?}"
                    );
                }
                if let Some(p) = t.live_parent_of(node, &NodeSet::EMPTY) {
                    assert!(t.children_of(p).contains(&node), "{t:?}");
                    assert!(t.is_ancestor_of(p, node), "{t:?}");
                }
            }
        }
        let t = TreeTopology::new(n(3), 13, 4);
        // Rank 0 has children at ranks 1..=4 (nodes 4..=7).
        assert_eq!(t.children_of(n(3)), vec![n(4), n(5), n(6), n(7)]);
        // A leaf has none.
        assert_eq!(t.children_of(n(12)), Vec::<NodeId>::new());
        // Any fan-in of nodes - 1 or more is the one star.
        let star = TreeTopology::new(n(0), 13, usize::MAX);
        assert!(star.is_star() && star.fanout == 12);
        assert_eq!(star.children_of(n(0)).len(), 12);
        assert!(!t.is_star());
    }

    #[test]
    fn tree_subtrees_partition_the_cluster() {
        for t in topologies() {
            // The owner's subtree is everyone.
            assert_eq!(t.subtree_of(t.owner), NodeSet::full(t.nodes), "{t:?}");
            // Sibling subtrees are disjoint and, with the root, cover the
            // cluster exactly.
            let mut union = NodeSet::from_nodes([t.owner]);
            for child in t.children_of(t.owner) {
                let sub = t.subtree_of(child);
                assert!(sub.contains(child));
                let mut overlap = sub.clone();
                overlap.difference_with(&union);
                assert_eq!(overlap, sub, "subtrees must not overlap in {t:?}");
                union.union_with(&sub);
            }
            assert_eq!(union, NodeSet::full(t.nodes), "{t:?}");
        }
    }

    #[test]
    fn live_parent_skips_dead_ancestors() {
        let t = TreeTopology::new(n(0), 64, 2);
        // Rank chain of node 7 (rank 7): 7 → 3 → 1 → 0.
        assert_eq!(t.live_parent_of(n(7), &NodeSet::EMPTY), Some(n(3)));
        let mut dead = NodeSet::EMPTY;
        dead.insert(n(3));
        assert_eq!(t.live_parent_of(n(7), &dead), Some(n(1)));
        dead.insert(n(1));
        assert_eq!(t.live_parent_of(n(7), &dead), Some(n(0)));
        // Everything up to the owner dead: no live parent (NodeDown path).
        dead.insert(n(0));
        assert_eq!(t.live_parent_of(n(7), &dead), None);
        // The owner has no parent even when fully alive.
        assert_eq!(t.live_parent_of(n(0), &NodeSet::EMPTY), None);
    }

    #[test]
    fn barrier_state_merges_reports_idempotently() {
        let mut s = BarrierState::new(n(0));
        let report = NodeSet::from_nodes([n(5), n(6)]);
        assert!(s.merge_report(n(5), 1, &report));
        assert_eq!(s.arrived.count(), 2);
        assert_eq!(s.children.len(), 1);
        // A crash-recovery re-send of the same report changes nothing.
        assert!(s.merge_report(n(5), 1, &report));
        assert_eq!(s.arrived.count(), 2);
        assert_eq!(s.children.len(), 1);
        // A grown re-send merges into the same child entry.
        assert!(s.merge_report(n(5), 1, &NodeSet::from_nodes([n(5), n(6), n(7)])));
        assert_eq!(s.arrived.count(), 3);
        assert_eq!(s.children.len(), 1);
        assert_eq!(s.children[0].1.count(), 3);
        // Released at a non-owner: the edges come back, the episode is over,
        // and a report for it is answered instead of counted.
        let edges = s.release(1).unwrap();
        assert_eq!(edges.len(), 1);
        assert!(s.arrived.is_empty() && s.children.is_empty());
        assert_eq!(s.completed, 1);
        assert!(!s.merge_report(n(5), 1, &report));
        assert!(s.arrived.is_empty());
        assert_eq!(s.release(1), None);
    }

    // --- exhaustive exploration of the distributed lock -------------------
    //
    // The whole cluster as a pure model: one `LockState` per node, the user
    // threads' acquire and release steps, and the `LockAcquire` / `LockGrant`
    // messages in flight. The explorer walks *every* order in which those
    // steps and deliveries can happen — the wire keeps no order at all, a
    // superset of what the engine can produce — and checks the argument
    // DESIGN.md ("Distributed locks") makes in prose.

    /// One in-flight message of the model.
    #[derive(Clone, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
    enum Wire {
        Acquire { at: NodeId, requester: NodeId },
        Grant { to: NodeId, queue: Vec<NodeId> },
    }

    /// A whole-cluster state. `wire` is kept sorted: it is a multiset, the
    /// delivery order being the explorer's choice.
    #[derive(Clone, Debug, PartialEq, Eq, Hash)]
    struct World {
        nodes: Vec<LockState>,
        /// Acquire/release rounds each node's user thread has yet to start.
        rounds_left: Vec<u8>,
        wire: Vec<Wire>,
    }

    /// How a node treats an arriving `LockAcquire`.
    #[derive(Clone, Copy)]
    enum Rule {
        /// [`LockState::handle_remote_acquire`].
        Current,
        /// The rule it replaced: a non-owner forwards along its hint even
        /// while its own acquire is outstanding — when the token may be on
        /// the wire towards it and its hint still names the sender.
        ForwardEvenWhileAwaiting,
        /// The hint rule path compression replaced: the hint trails the
        /// token. A forward leaves it alone and a hand-off points it at the
        /// grantee, so it is always `sent_token_to`.
        HintTrailsToken,
    }

    impl Rule {
        fn apply(self, at: NodeId, l: &mut LockState, requester: NodeId) -> RemoteAcquireAction {
            match self {
                Rule::ForwardEvenWhileAwaiting if !l.owned => {
                    RemoteAcquireAction::Forward(l.probable_owner)
                }
                Rule::ForwardEvenWhileAwaiting => l.handle_remote_acquire(requester),
                Rule::Current | Rule::HintTrailsToken => {
                    // What lets the runtime drop such a request unseen, and
                    // keeps a re-send's detour off every fault-free path.
                    assert_ne!(at, requester, "a request came back to its requester");
                    assert!(
                        l.owned || l.awaiting || l.probable_owner != requester,
                        "a hint leads a request back to its requester"
                    );
                    l.handle_remote_acquire(requester)
                }
            }
        }

        /// What the rule makes of a node's state after any transition.
        fn settle(self, l: &mut LockState) {
            match self {
                Rule::HintTrailsToken => l.probable_owner = l.sent_token_to,
                // Crash recovery's evidence: no fault-free step reads it, so
                // it is folded away instead of multiplying the states.
                Rule::Current | Rule::ForwardEvenWhileAwaiting => l.sent_token_to = n(0),
            }
        }
    }

    impl World {
        fn new(nodes: usize, rounds: u8) -> Self {
            World {
                nodes: (0..nodes).map(|i| LockState::new(n(0), n(i))).collect(),
                rounds_left: vec![rounds; nodes],
                wire: Vec::new(),
            }
        }

        fn send(&mut self, msg: Wire) {
            let at = self.wire.binary_search(&msg).unwrap_or_else(|i| i);
            self.wire.insert(at, msg);
        }

        /// Whether node `i`'s user thread has a step to take: a release, or
        /// the start of its next acquire.
        fn can_step(&self, i: usize) -> bool {
            let l = &self.nodes[i];
            l.held || (!l.awaiting && self.rounds_left[i] > 0)
        }

        /// Node `i`'s user thread takes its step; returns what it sends.
        fn step(&mut self, i: usize, rule: Rule) -> Option<Wire> {
            let l = &mut self.nodes[i];
            let sent = if l.held {
                l.release().map(|(to, queue)| Wire::Grant { to, queue })
            } else {
                self.rounds_left[i] -= 1;
                let requester = n(i);
                l.begin_acquire().map(|at| Wire::Acquire { at, requester })
            };
            rule.settle(l);
            sent
        }

        /// Delivers `msg`, taken off the wire; returns what its receiver
        /// sends on.
        fn deliver(&mut self, msg: Wire, rule: Rule) -> Option<Wire> {
            let (at, sent) = match msg {
                Wire::Acquire { at, requester } => {
                    let l = &mut self.nodes[at.as_usize()];
                    let sent = match rule.apply(at, l, requester) {
                        RemoteAcquireAction::Forward(at) => Some(Wire::Acquire { at, requester }),
                        RemoteAcquireAction::Grant => Some(Wire::Grant {
                            to: requester,
                            queue: Vec::new(),
                        }),
                        RemoteAcquireAction::Queued => None,
                    };
                    (at, sent)
                }
                Wire::Grant { to, queue } => {
                    assert_eq!(
                        self.nodes[to.as_usize()].receive_grant(queue, to),
                        TokenArrival::Acquired,
                        "a fault-free grant finds its acquire outstanding"
                    );
                    (to, None)
                }
            };
            rule.settle(&mut self.nodes[at.as_usize()]);
            sent
        }

        /// Every state one step away: a user thread starts an acquire or
        /// releases, or any one in-flight message is delivered.
        fn successors(&self, rule: Rule) -> Vec<World> {
            let mut next = Vec::new();
            for i in (0..self.nodes.len()).filter(|i| self.can_step(*i)) {
                let mut w = self.clone();
                if let Some(msg) = w.step(i, rule) {
                    w.send(msg);
                }
                next.push(w);
            }
            for (k, msg) in self.wire.iter().enumerate() {
                if k > 0 && self.wire[k - 1] == *msg {
                    continue; // equal messages: delivering either is the same step
                }
                let mut w = self.clone();
                let taken = w.wire.remove(k);
                if let Some(msg) = w.deliver(taken, rule) {
                    w.send(msg);
                }
                next.push(w);
            }
            next
        }

        /// Safety: exactly one token (owned or in flight), and every
        /// outstanding acquire is in exactly one place — a request on the
        /// wire, an entry in one queue, or a grant addressed to it.
        fn check(&self) {
            let mut tokens = self.nodes.iter().filter(|l| l.owned).count();
            let mut places: Vec<NodeId> = Vec::new();
            for l in &self.nodes {
                places.extend(&l.queue);
            }
            for msg in &self.wire {
                match msg {
                    Wire::Acquire { requester, .. } => places.push(*requester),
                    Wire::Grant { to, queue } => {
                        tokens += 1;
                        places.push(*to);
                        places.extend(queue);
                    }
                }
            }
            assert_eq!(tokens, 1, "token lost or duplicated in {self:?}");
            for (i, l) in self.nodes.iter().enumerate() {
                let found = places.iter().filter(|p| **p == n(i)).count();
                assert_eq!(
                    found,
                    usize::from(l.awaiting),
                    "node {i}'s request lost or queued twice in {self:?}"
                );
                assert!(
                    l.owned || l.awaiting || l.queue.is_empty(),
                    "idle node {i} sits on waiters in {self:?}"
                );
            }
        }

        /// Liveness at a state with no step left: nothing may be pending.
        fn check_terminal(&self) {
            assert!(
                self.wire.is_empty()
                    && self.rounds_left.iter().all(|r| *r == 0)
                    && self.nodes.iter().all(|l| !l.awaiting && !l.held),
                "deadlock: no step possible in {self:?}"
            );
        }
    }

    /// Walks the state graph reachable from `root` depth-first, calling
    /// `check` on every state and `check_terminal` on those with no step
    /// left. A step that leads back to a state still on the walk's own path
    /// is a cycle: deliveries that can repeat forever (livelock). A finite
    /// graph without one means every delivery order terminates, and
    /// `check_terminal` says what it terminates in. Returns the number of
    /// distinct states.
    fn walk<S: Clone + Eq + std::hash::Hash + std::fmt::Debug>(
        root: S,
        successors: impl Fn(&S) -> Vec<S>,
        check: impl Fn(&S),
        check_terminal: impl Fn(&S),
    ) -> usize {
        // `true` while the state is on the current path.
        let mut seen = std::collections::HashMap::from([(root.clone(), true)]);
        let mut path = vec![(root.clone(), successors(&root))];
        while let Some((state, todo)) = path.last_mut() {
            let Some(next) = todo.pop() else {
                seen.insert(state.clone(), false);
                path.pop();
                continue;
            };
            match seen.get(&next) {
                Some(false) => {}
                Some(true) => panic!("livelock: a cycle of steps leads back to {next:?}"),
                None => {
                    check(&next);
                    let steps = successors(&next);
                    if steps.is_empty() {
                        check_terminal(&next);
                    }
                    seen.insert(next.clone(), true);
                    path.push((next, steps));
                }
            }
        }
        seen.len()
    }

    fn explore(nodes: usize, rounds: u8, rule: Rule) -> usize {
        walk(
            World::new(nodes, rounds),
            |w| w.successors(rule),
            World::check,
            World::check_terminal,
        )
    }

    #[test]
    fn every_delivery_order_of_the_lock_protocol_terminates() {
        // Two and three rounds exercise re-acquisition (a node awaiting its
        // next grant while hints from its last ownership or its last request
        // still name it); four and five nodes exercise longer forwarding
        // chains.
        for (nodes, rounds) in [(3, 2), (3, 3), (4, 1), (4, 2), (5, 1)] {
            let states = explore(nodes, rounds, Rule::Current);
            println!("lock explorer: {nodes}x{rounds}: {states} states");
            assert!(states > 1_000, "{nodes}x{rounds}: only {states} states");
        }
    }

    /// The sizes too large for the debug profile: run in release with
    /// `--ignored`.
    #[test]
    #[ignore = "wide lock explorer: seconds in release, minutes in debug"]
    fn every_delivery_order_of_the_wider_lock_protocol_terminates() {
        for (nodes, rounds) in [(4, 3), (5, 2)] {
            let states = explore(nodes, rounds, Rule::Current);
            println!("lock explorer: {nodes}x{rounds}: {states} states");
        }
    }

    /// The same explorer on the replaced rule finds the bounce: with the
    /// token on the wire from A to B, a third node's request is forwarded
    /// A -> B -> A -> ... for as long as the grant stays undelivered.
    #[test]
    #[should_panic(expected = "livelock")]
    fn forwarding_while_awaiting_can_bounce_forever() {
        explore(3, 1, Rule::ForwardEvenWhileAwaiting);
    }

    /// Replays one fixed schedule of `nodes` threads doing `rounds`
    /// acquire/release rounds each, every message taking one turn: each
    /// turn, every thread that can step does, in node order, and then every
    /// message then in flight is delivered, oldest first. Returns the
    /// `Acquire` deliveries.
    fn unit_latency_acquire_deliveries(nodes: usize, rounds: u8, rule: Rule) -> usize {
        let mut w = World::new(nodes, rounds);
        let mut fifo = VecDeque::new();
        let mut acquires = 0;
        loop {
            for i in 0..nodes {
                if w.can_step(i) {
                    fifo.extend(w.step(i, rule));
                }
            }
            if fifo.is_empty() {
                break;
            }
            for msg in std::mem::take(&mut fifo) {
                acquires += usize::from(matches!(msg, Wire::Acquire { .. }));
                fifo.extend(w.deliver(msg, rule));
            }
        }
        w.check_terminal();
        acquires
    }

    /// The mechanism's economy without host scheduling: on one fixed
    /// schedule, hints that lead to the queue's tail deliver fewer requests
    /// than hints that trail the token (which the explorer accepts too).
    #[test]
    fn path_compressed_hints_forward_fewer_requests() {
        let current = unit_latency_acquire_deliveries(4, 8, Rule::Current);
        let trailing = unit_latency_acquire_deliveries(4, 8, Rule::HintTrailsToken);
        assert_eq!((current, trailing), (41, 66));
        assert!(explore(3, 2, Rule::HintTrailsToken) > 1_000);
    }

    // --- exhaustive exploration of the barrier ----------------------------
    //
    // The whole cluster as a pure model: one `BarrierState` per node, the
    // user threads' arrivals, the `BarrierArrive` / `BarrierRelease` messages
    // in flight, and at most one fault. As for the lock, the explorer walks
    // every order in which those steps can happen — the wire keeps no order
    // at all — and checks what DESIGN.md ("Barriers") argues in prose.

    const EPISODES: u64 = 2;

    /// When node `i`'s thread arrives at episode `gen`: distinct, and not in
    /// node order, so "the latest arrival" is neither the owner's nor the
    /// one most orders process last.
    fn arrival_time(i: NodeId, gen: u64) -> VirtTime {
        VirtTime::from_nanos(100 * gen + [3, 9, 1, 5][i.as_usize()])
    }

    /// The one fault a run may suffer, at any point.
    #[derive(Clone, Copy, Debug, PartialEq)]
    enum Fault {
        None,
        /// A node other than the owner crashes: it takes no further step,
        /// what reaches it is lost, and every survivor confirms the death
        /// at a time of its own.
        Death,
        /// A report in flight is delivered twice.
        DuplicateReport,
    }

    #[derive(Clone, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
    enum BarrierWire {
        Report {
            to: NodeId,
            from: NodeId,
            gen: u64,
            arrived: Vec<NodeId>,
            at: VirtTime,
        },
        Release {
            to: NodeId,
            from: NodeId,
            gen: u64,
        },
    }

    #[derive(Clone, Debug, PartialEq, Eq, Hash)]
    struct BarrierWorld {
        nodes: Vec<BarrierState>,
        /// The episode each node's thread last arrived at, and the one it
        /// was last released from: it waits while the two differ.
        arrived_at: Vec<u64>,
        released_from: Vec<u64>,
        /// The last report each node sent: episode, parent, nodes covered.
        last_report: Vec<Option<(u64, NodeId, usize)>>,
        fault_left: bool,
        crashed: Option<NodeId>,
        /// Which survivors have confirmed the crash.
        confirmed: Vec<bool>,
        /// In flight; kept sorted, it is a multiset.
        wire: Vec<BarrierWire>,
    }

    impl BarrierWorld {
        fn new(topo: &TreeTopology, fault: Fault) -> Self {
            BarrierWorld {
                nodes: vec![BarrierState::new(topo.owner); topo.nodes],
                arrived_at: vec![0; topo.nodes],
                released_from: vec![0; topo.nodes],
                last_report: vec![None; topo.nodes],
                fault_left: fault != Fault::None,
                crashed: None,
                confirmed: vec![false; topo.nodes],
                wire: Vec::new(),
            }
        }

        fn send(&mut self, msg: BarrierWire) {
            let at = self.wire.binary_search(&msg).unwrap_or_else(|i| i);
            self.wire.insert(at, msg);
        }

        /// The dead as node `i` knows them.
        fn dead_at(&self, i: NodeId) -> NodeSet {
            match self.crashed {
                Some(v) if self.confirmed[i.as_usize()] => NodeSet::from_nodes([v]),
                _ => NodeSet::EMPTY,
            }
        }

        /// Whether a message from `from` is acted on at `to`: not by a
        /// crashed node, and not once `to` has confirmed `from` dead.
        fn hears(&self, to: NodeId, from: NodeId) -> bool {
            self.crashed != Some(to) && !self.dead_at(to).contains(from)
        }

        /// What `runtime/barrier_tree.rs::barrier_advance` does with the
        /// state machine's decision.
        fn advance(&mut self, i: NodeId, topo: &TreeTopology, at: VirtTime) {
            let dead = self.dead_at(i);
            let covered = self.nodes[i.as_usize()].arrived.clone();
            match self.nodes[i.as_usize()].advance(i, topo, &dead, at) {
                BarrierStep::Hold => {}
                BarrierStep::Report { gen, arrived, at } => {
                    let to = topo
                        .live_parent_of(i, &dead)
                        .expect("the owner does not die here");
                    if let Some((g, p, count)) = self.last_report[i.as_usize()] {
                        assert!(
                            (g, p) != (gen, to) || arrived.count() > count,
                            "{i:?} repeated a report that had not grown in {self:?}"
                        );
                    }
                    self.last_report[i.as_usize()] = Some((gen, to, arrived.count()));
                    self.send(BarrierWire::Report {
                        to,
                        from: i,
                        gen,
                        arrived: arrived.iter().collect(),
                        at,
                    });
                }
                BarrierStep::Open { gen, children, at } => {
                    let latest = covered.iter().map(|j| arrival_time(j, gen)).max();
                    assert_eq!(Some(at), latest, "opened at the wrong time in {self:?}");
                    for (to, _) in children {
                        if !dead.contains(to) {
                            self.send(BarrierWire::Release { to, from: i, gen });
                        }
                    }
                    self.wake(i, gen);
                }
            }
        }

        fn deliver(&mut self, msg: BarrierWire, topo: &TreeTopology) {
            match msg {
                BarrierWire::Report {
                    to,
                    from,
                    gen,
                    arrived,
                    at,
                } if self.hears(to, from) => {
                    let b = &mut self.nodes[to.as_usize()];
                    assert!(gen <= b.completed + 1, "a report from the future");
                    let before = b.clone();
                    if b.merge_report(from, gen, &NodeSet::from_nodes(arrived)) {
                        self.advance(to, topo, at);
                    } else {
                        // Answered, never re-counted.
                        assert_eq!(*b, before);
                        self.send(BarrierWire::Release {
                            to: from,
                            from: to,
                            gen,
                        });
                    }
                }
                BarrierWire::Release { to, from, gen } if self.hears(to, from) => {
                    let b = &mut self.nodes[to.as_usize()];
                    assert!(gen <= b.completed + 1, "a release from the future");
                    let Some(children) = b.release(gen) else {
                        return;
                    };
                    let dead = self.dead_at(to);
                    for (child, _) in children {
                        if !dead.contains(child) {
                            self.send(BarrierWire::Release {
                                to: child,
                                from: to,
                                gen,
                            });
                        }
                    }
                    self.wake(to, gen);
                }
                _lost => {}
            }
        }

        /// Node `to`'s thread wakes from episode `gen`: once per episode,
        /// and only after every live node has arrived at that episode.
        fn wake(&mut self, to: NodeId, gen: u64) {
            let i = to.as_usize();
            assert_eq!(
                (self.arrived_at[i], self.released_from[i]),
                (gen, gen - 1),
                "{to:?} released twice, or from an episode it is not in: {self:?}"
            );
            for (j, arrived_at) in self.arrived_at.iter().enumerate() {
                assert!(
                    self.crashed == Some(n(j)) || *arrived_at >= gen,
                    "{to:?} released before {j} arrived in {self:?}"
                );
            }
            self.released_from[i] = gen;
        }

        fn successors(&self, topo: &TreeTopology, fault: Fault) -> Vec<BarrierWorld> {
            let mut next = Vec::new();
            let live = |i: &usize| self.crashed != Some(n(*i));
            // A thread that is not waiting arrives at its next episode.
            for i in (0..topo.nodes).filter(live) {
                let gen = self.arrived_at[i] + 1;
                if self.arrived_at[i] == self.released_from[i] && gen <= EPISODES {
                    let mut w = self.clone();
                    w.arrived_at[i] = gen;
                    w.nodes[i].arrived.insert(n(i));
                    w.advance(n(i), topo, arrival_time(n(i), gen));
                    next.push(w);
                }
            }
            // A survivor confirms the crash.
            if let Some(v) = self.crashed {
                for i in (0..topo.nodes).filter(live) {
                    if !self.confirmed[i] {
                        let mut w = self.clone();
                        w.confirmed[i] = true;
                        if topo.is_ancestor_of(v, n(i)) {
                            w.nodes[i].report_again();
                        }
                        w.advance(n(i), topo, VirtTime::ZERO);
                        next.push(w);
                    }
                }
            }
            for (k, msg) in self.wire.iter().enumerate() {
                if k > 0 && self.wire[k - 1] == *msg {
                    continue; // equal messages: delivering either is the same step
                }
                let mut w = self.clone();
                let taken = w.wire.remove(k);
                w.deliver(taken, topo);
                next.push(w);
                if self.fault_left
                    && fault == Fault::DuplicateReport
                    && matches!(msg, BarrierWire::Report { .. })
                {
                    let mut w = self.clone();
                    w.fault_left = false;
                    w.send(msg.clone());
                    next.push(w);
                }
            }
            if self.fault_left && fault == Fault::Death {
                for v in (0..topo.nodes).map(n).filter(|v| *v != topo.owner) {
                    let mut w = self.clone();
                    w.fault_left = false;
                    w.crashed = Some(v);
                    next.push(w);
                }
            }
            next
        }

        /// Liveness at a state with no step left: every survivor has been
        /// through every episode.
        fn check_terminal(&self) {
            assert!(self.wire.is_empty());
            for (i, released_from) in self.released_from.iter().enumerate() {
                assert!(
                    self.crashed == Some(n(i)) || *released_from == EPISODES,
                    "node {i} is stuck in {self:?}"
                );
            }
        }
    }

    #[test]
    fn every_delivery_order_of_the_barrier_releases_everyone_once() {
        let mut total = 0;
        for nodes in [2usize, 3, 4] {
            for fanout in [2, nodes - 1] {
                // The owner is not node 0, so ranks are not node ids.
                let topo = TreeTopology::new(n(1), nodes, fanout);
                for fault in [Fault::None, Fault::Death, Fault::DuplicateReport] {
                    let states = walk(
                        BarrierWorld::new(&topo, fault),
                        |w| w.successors(&topo, fault),
                        |_| {},
                        BarrierWorld::check_terminal,
                    );
                    println!("barrier explorer: {nodes} nodes, fan-in {fanout}, {fault:?}: {states} states");
                    total += states;
                }
            }
        }
        println!("barrier explorer: {total} states visited");
        assert!(total > 10_000, "only {total} states");
    }
}
