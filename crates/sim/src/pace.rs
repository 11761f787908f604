//! Paced sends: a node holds a send back until nothing stamped before it can
//! still reach any node — the lower bound on time stamp of conservative
//! parallel discrete-event simulation (Chandy & Misra 1979; Fujimoto, CACM
//! 1990). What can still be sent below `T`:
//!
//! * whatever handles a message queued, or popped by a service thread and
//!   still in service, with an arrival before `T` (each inbox's low mark,
//!   kept by the engine under its shard lock);
//! * a user thread running at a clock below `T`; equal clocks are ordered
//!   by node id. One blocked on an empty [`Mailbox`] (*parked*) sends
//!   nothing until a message wakes it, and that message is in some inbox's
//!   low mark until then: [`Mailbox::send`] clears the bit before it
//!   enqueues, and a service mark lasts until the next receive.
//!
//! A closed inbox, a node on the crash plan and a dropped mailbox hold
//! nobody back. Pacing only narrows the host schedules a run can take, so
//! no protocol argument changes (`DESIGN.md`, "Virtual-time model").

use std::collections::VecDeque;
use std::sync::atomic::Ordering::SeqCst;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, OnceLock, PoisonError};
use std::time::{Duration, Instant};

use crate::time::NodeClock;

/// A pacer looks again this often unprompted: a clock passing `T` tells nobody.
const PACE_SLICE: Duration = Duration::from_millis(50);

/// What the pace predicate reads of one node.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) struct NodeView {
    pub clock_ns: u64,
    /// Parked, exited, never started, or on the crash plan.
    pub idle: bool,
    /// The inbox's low mark (`u64::MAX`: none, or closed).
    pub inbox_ns: u64,
}

/// The first node that could still send something stamped before `t_ns`
/// (`None`: `me` may send at `t_ns`): an inbox holding an arrival before
/// `t_ns`, or another running user thread at `(clock, id)` below `(t_ns, me)`.
pub(crate) fn blocker(me: usize, t_ns: u64, nodes: &[NodeView]) -> Option<usize> {
    nodes.iter().enumerate().position(|(k, v)| {
        v.inbox_ns < t_ns || (k != me && !v.idle && (v.clock_ns, k) < (t_ns, me))
    })
}

#[derive(Default)]
struct Slot {
    clock: OnceLock<NodeClock>,
    parked: AtomicBool,
    gone: AtomicBool,
    inbox_ns: AtomicU64,
    /// Pacers this node holds back wait here.
    cond: Condvar,
}

/// The per-run progress board: each node's clock, parked bit and inbox low
/// mark. Its lock is a leaf.
pub(crate) struct Board {
    slots: Vec<Slot>,
    lock: Mutex<()>,
    pacers: AtomicUsize,
}

impl Board {
    /// A board for `n` nodes, `doomed` the nodes on the crash plan.
    pub(crate) fn new(n: usize, doomed: impl Iterator<Item = usize>) -> Self {
        let slots: Vec<Slot> = (0..n)
            .map(|_| Slot {
                inbox_ns: AtomicU64::new(u64::MAX),
                ..Slot::default()
            })
            .collect();
        doomed
            .filter(|&k| k < n)
            .for_each(|k| slots[k].gone.store(true, SeqCst));
        Board {
            slots,
            lock: Mutex::new(()),
            pacers: AtomicUsize::new(0),
        }
    }

    pub(crate) fn bind_clock(&self, node: usize, clock: NodeClock) {
        let _ = self.slots[node].clock.set(clock);
    }

    pub(crate) fn set_inbox(&self, node: usize, low_ns: u64) {
        if self.slots[node].inbox_ns.swap(low_ns, SeqCst) < low_ns {
            self.touch(node);
        }
    }

    fn set_parked(&self, node: usize, parked: bool) {
        self.slots[node].parked.store(parked, SeqCst);
        if parked {
            self.touch(node);
        }
    }

    /// Wakes the pacers `node` holds back: it may no longer.
    fn touch(&self, node: usize) {
        if self.pacers.load(SeqCst) > 0 {
            drop(self.lock.lock().unwrap_or_else(PoisonError::into_inner));
            self.slots[node].cond.notify_all();
        }
    }

    pub(crate) fn view(&self, node: usize) -> NodeView {
        let slot = &self.slots[node];
        let clock = slot.clock.get();
        NodeView {
            clock_ns: clock.map_or(u64::MAX, |c| c.now().as_nanos()),
            idle: clock.is_none() || slot.parked.load(SeqCst) || slot.gone.load(SeqCst),
            inbox_ns: slot.inbox_ns.load(SeqCst),
        }
    }

    /// Blocks `me`, whose clock reads `t_ns`, until [`blocker`] finds
    /// nobody; false if `timeout` of host time passed first.
    pub(crate) fn pace(&self, me: usize, t_ns: u64, timeout: Duration) -> bool {
        self.pacers.fetch_add(1, SeqCst);
        // Whoever waits on this node's clock sees where it stopped.
        self.touch(me);
        let deadline = Instant::now() + timeout;
        let mut views = Vec::with_capacity(self.slots.len());
        let mut guard = self.lock.lock().unwrap_or_else(PoisonError::into_inner);
        let passed = loop {
            views.clear();
            views.extend((0..self.slots.len()).map(|k| self.view(k)));
            let Some(k) = blocker(me, t_ns, &views) else {
                break true;
            };
            let left = deadline.saturating_duration_since(Instant::now());
            if left.is_zero() {
                break false;
            }
            let woken = self.slots[k].cond.wait_timeout(guard, left.min(PACE_SLICE));
            guard = woken.unwrap_or_else(PoisonError::into_inner).0;
        };
        drop(guard);
        self.pacers.fetch_sub(1, SeqCst);
        passed
    }
}

/// A user thread's mailbox: the thread is parked while it blocks on an
/// empty one, and for good once it is dropped.
pub struct Mailbox<T> {
    queue: Mutex<VecDeque<T>>,
    cond: Condvar,
    board: Arc<Board>,
    node: usize,
}

impl<T> Mailbox<T> {
    pub(crate) fn new(board: Arc<Board>, node: usize) -> Self {
        let (queue, cond) = (Mutex::new(VecDeque::new()), Condvar::new());
        Mailbox {
            queue,
            cond,
            board,
            node,
        }
    }

    fn queue(&self) -> MutexGuard<'_, VecDeque<T>> {
        self.queue.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Enqueues `value`; the thread runs from before it is queued.
    pub fn send(&self, value: T) {
        let mut queue = self.queue();
        self.board.set_parked(self.node, false);
        queue.push_back(value);
        drop(queue);
        self.cond.notify_one();
    }

    /// Takes the oldest queued value, if any.
    pub fn try_recv(&self) -> Option<T> {
        self.queue().pop_front()
    }

    /// Takes the oldest value, waiting up to `timeout` for one.
    pub fn recv_timeout(&self, timeout: Duration) -> Option<T> {
        let mut queue = self.queue();
        if let Some(value) = queue.pop_front() {
            return Some(value);
        }
        self.board.set_parked(self.node, true);
        let (deadline, mut left) = (Instant::now() + timeout, timeout);
        while queue.is_empty() && !left.is_zero() {
            let woken = self.cond.wait_timeout(queue, left);
            queue = woken.unwrap_or_else(PoisonError::into_inner).0;
            left = deadline.saturating_duration_since(Instant::now());
        }
        self.board.set_parked(self.node, false);
        queue.pop_front()
    }
}

impl<T> Drop for Mailbox<T> {
    fn drop(&mut self) {
        self.board.slots[self.node].gone.store(true, SeqCst);
        self.board.touch(self.node);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::{TimeKind, VirtTime};

    const MAX: u64 = u64::MAX;

    fn running(clock_ns: u64) -> NodeView {
        NodeView {
            clock_ns,
            idle: false,
            inbox_ns: MAX,
        }
    }

    fn idle(clock_ns: u64) -> NodeView {
        NodeView {
            idle: true,
            ..running(clock_ns)
        }
    }

    #[test]
    fn a_node_alone_at_its_time_passes() {
        assert_eq!(blocker(0, 500, &[running(500)]), None);
        assert_eq!(blocker(1, 500, &[idle(0), running(500)]), None);
    }

    #[test]
    fn a_running_thread_behind_holds_the_pacer_back() {
        assert_eq!(blocker(1, 500, &[running(499), running(500)]), Some(0));
        assert_eq!(blocker(0, 500, &[running(500), running(499)]), Some(1));
        assert_eq!(blocker(0, 500, &[running(500), running(501)]), None);
    }

    #[test]
    fn equal_clocks_are_ordered_by_node_id() {
        let board = [running(500), running(500), running(500)];
        assert_eq!(blocker(0, 500, &board), None);
        assert_eq!(blocker(1, 500, &board), Some(0));
        assert_eq!(blocker(2, 500, &board), Some(0));
    }

    #[test]
    fn parked_exited_and_crashed_threads_hold_nobody_back() {
        // `idle` is one bit for all three.
        assert_eq!(blocker(1, 500, &[idle(3), running(500), idle(0)]), None);
        // The board sets it: node 2 is on the crash plan, node 0 runs at
        // 10 ns until it parks on its mailbox, and drops it for good.
        let board = Arc::new(Board::new(3, [2].into_iter()));
        for (node, clock_ns) in [(0, 10), (1, 500), (2, 20)] {
            let clock = NodeClock::new();
            clock.advance(TimeKind::User, VirtTime::from_nanos(clock_ns));
            board.bind_clock(node, clock);
        }
        let views = || (0..3).map(|k| board.view(k)).collect::<Vec<_>>();
        assert_eq!(blocker(1, 500, &views()), Some(0));
        let mailbox = Mailbox::<()>::new(Arc::clone(&board), 0);
        board.set_parked(0, true);
        assert_eq!(blocker(1, 500, &views()), None);
        board.set_parked(0, false);
        assert_eq!(blocker(1, 500, &views()), Some(0));
        drop(mailbox);
        assert_eq!(blocker(1, 500, &views()), None);
        // A node whose endpoint was never handed out has no thread at all.
        let unbound = Board::new(2, std::iter::empty());
        unbound.bind_clock(1, NodeClock::new());
        assert_eq!(blocker(1, 0, &[unbound.view(0), unbound.view(1)]), None);
    }

    #[test]
    fn an_inbox_below_the_pacer_holds_it_back_whoever_owns_it() {
        // Queued or in service, at the pacer's own node or another — even a
        // parked or crashed one, whose service thread still drains it.
        let mut board = [idle(0), running(500)];
        board[0].inbox_ns = 499;
        assert_eq!(blocker(1, 500, &board), Some(0));
        board[0].inbox_ns = 500;
        assert_eq!(blocker(1, 500, &board), None);
        board[1].inbox_ns = 10;
        assert_eq!(blocker(1, 500, &board), Some(1));
    }

    #[test]
    fn the_256_node_board() {
        // Everyone at a barrier in clock order: only the earliest passes, and
        // each later one waits for exactly the node before it to park.
        let mut board: Vec<NodeView> = (0..256).map(|k| running(1_000 + k as u64 / 2)).collect();
        assert_eq!(blocker(0, 1_000, &board), None);
        for me in 1..256 {
            let t = board[me].clock_ns;
            assert_eq!(blocker(me, t, &board), Some(me - 1), "node {me}");
            board[me - 1].idle = true;
            assert_eq!(blocker(me, t, &board), None, "node {me}");
        }
        // One message left in one inbox, stamped in the middle, holds back
        // exactly the pacers past it.
        board[200].inbox_ns = 1_064;
        assert_eq!(blocker(129, 1_064, &board), None);
        assert_eq!(blocker(130, 1_065, &board), Some(200));
        assert_eq!(blocker(255, 1_127, &board), Some(200));
    }

    #[test]
    fn a_mailbox_parks_its_node_only_while_it_blocks_on_an_empty_queue() {
        let board = Arc::new(Board::new(1, std::iter::empty()));
        let mailbox = Arc::new(Mailbox::<u32>::new(Arc::clone(&board), 0));
        let parked = || board.slots[0].parked.load(SeqCst);
        assert_eq!(mailbox.recv_timeout(Duration::from_millis(1)), None);
        assert!(!parked(), "a timed-out wait runs again");
        mailbox.send(7);
        assert!(!parked());
        assert_eq!(mailbox.recv_timeout(Duration::from_millis(1)), Some(7));
        let waiter = {
            let mailbox = Arc::clone(&mailbox);
            std::thread::spawn(move || mailbox.recv_timeout(Duration::from_secs(10)))
        };
        while !parked() {
            std::thread::yield_now();
        }
        mailbox.send(8);
        // Running again before the wake-up is even seen.
        assert!(!parked());
        assert_eq!(waiter.join().unwrap(), Some(8));
        assert!(!board.slots[0].gone.load(SeqCst));
        drop(mailbox);
        assert!(board.slots[0].gone.load(SeqCst), "dropped for good");
    }

    #[test]
    fn a_pacer_waits_for_the_thread_behind_it_to_park() {
        let board = Arc::new(Board::new(2, std::iter::empty()));
        for node in 0..2 {
            board.bind_clock(node, NodeClock::new());
        }
        assert!(
            !board.pace(1, 900, Duration::from_millis(5)),
            "node 0 runs at 0"
        );
        let mailbox = Mailbox::<()>::new(Arc::clone(&board), 0);
        let pacer = {
            let board = Arc::clone(&board);
            std::thread::spawn(move || board.pace(1, 900, Duration::from_secs(10)))
        };
        while !pacer.is_finished() {
            assert_eq!(mailbox.recv_timeout(Duration::from_millis(20)), None);
        }
        assert!(pacer.join().unwrap());
    }
}
