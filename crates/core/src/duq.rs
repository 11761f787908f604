//! The delayed update queue (DUQ).
//!
//! "The delayed update queue is used to buffer pending outgoing write
//! operations as part of Munin's software implementation of release
//! consistency. A write to an object that allows delayed updates ... is
//! stored in the DUQ. The DUQ is flushed whenever a local thread releases a
//! lock or arrives at a barrier." (Section 3.3.)
//!
//! An entry records the object and, with multiple writers, its twin: the
//! snapshot taken at its first write since the last flush, or first share.
//!
//! Twin buffers are recycled through a small pool: a first-write fault takes
//! a buffer from the pool instead of allocating, and the flush path returns
//! the buffer when the entry leaves the queue. Under a steady flush cadence the
//! write-shared hot path therefore performs no twin allocations after
//! warm-up.

use std::collections::HashMap;

use crate::object::ObjectId;

/// Maximum number of twin buffers kept for reuse; beyond this, returned
/// buffers are simply freed. Sized for the largest flush bursts the paper's
/// workloads generate.
const TWIN_POOL_CAP: usize = 64;

/// One pending entry of the DUQ.
#[derive(Clone, Debug)]
pub struct DuqEntry {
    /// The modified object.
    pub object: ObjectId,
    /// The twin made at the first write, or at the first copy served of a
    /// page queued with none. `None` means the whole object (or an
    /// invalidation), if anything, is propagated instead of a diff.
    pub twin: Option<Vec<u8>>,
}

/// The delayed update queue of one node.
#[derive(Debug, Default)]
pub struct DelayedUpdateQueue {
    entries: Vec<DuqEntry>,
    index: HashMap<ObjectId, usize>,
    /// Freed twin buffers awaiting reuse by the next first-write fault.
    twin_pool: Vec<Vec<u8>>,
}

impl DelayedUpdateQueue {
    /// Creates an empty queue.
    pub fn new() -> Self {
        Self::default()
    }

    /// Whether an object is already enqueued.
    pub fn contains(&self, object: ObjectId) -> bool {
        self.index.contains_key(&object)
    }

    /// Enqueues an object (with its twin, if any). Re-enqueueing an object
    /// that is already pending is a no-op: the existing twin still reflects
    /// the state at the first write since the last flush.
    pub fn enqueue(&mut self, object: ObjectId, twin: Option<Vec<u8>>) {
        if self.contains(object) {
            // A superfluous twin snapshot goes back to the pool.
            if let Some(buf) = twin {
                self.recycle_twin(buf);
            }
            return;
        }
        self.index.insert(object, self.entries.len());
        self.entries.push(DuqEntry { object, twin });
    }

    /// The twin slot of a pending object: where an update that arrives for
    /// it patches its twin, and where a copy served of an object queued with
    /// none becomes its twin, so its next diff is against what was served.
    pub fn twin_mut(&mut self, object: ObjectId) -> Option<&mut Option<Vec<u8>>> {
        let i = *self.index.get(&object)?;
        Some(&mut self.entries[i].twin)
    }

    /// Takes a twin buffer from the pool (or a fresh one), ready for the
    /// caller to fill with an object snapshot of roughly `size` bytes. The
    /// returned buffer is empty but retains its capacity; a pooled buffer
    /// whose capacity already fits `size` is preferred so small twins do not
    /// pin large allocations while large first-writes reallocate anyway.
    pub fn acquire_twin_buffer(&mut self, size: usize) -> Vec<u8> {
        let fit = self
            .twin_pool
            .iter()
            .enumerate()
            .filter(|(_, b)| b.capacity() >= size)
            .min_by_key(|(_, b)| b.capacity())
            .map(|(i, _)| i);
        let mut buf = match fit {
            Some(i) => self.twin_pool.swap_remove(i),
            None => self.twin_pool.pop().unwrap_or_default(),
        };
        buf.clear();
        buf
    }

    /// Returns a twin buffer to the pool for reuse by a later first-write
    /// fault. Called when an entry leaves the queue, once its diff has been
    /// encoded — or at once, when its changes have nowhere to go.
    pub fn recycle_twin(&mut self, buf: Vec<u8>) {
        if self.twin_pool.len() < TWIN_POOL_CAP {
            self.twin_pool.push(buf);
        }
    }

    /// Number of pending entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the queue is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Removes a single pending entry: how a release takes each object out
    /// as it encodes it, and an invalidation a dirty copy.
    pub fn remove(&mut self, object: ObjectId) -> Option<DuqEntry> {
        let idx = self.index.remove(&object)?;
        let entry = self.entries.remove(idx);
        // Reindex the tail.
        for (i, e) in self.entries.iter().enumerate().skip(idx) {
            self.index.insert(e.object, i);
        }
        Some(entry)
    }

    /// Drains every pending entry, in enqueue order. (A release does not:
    /// it takes entries out one at a time with [`Self::remove`], so that each
    /// twin stays where a peer's update can patch it until it is encoded.)
    pub fn flush(&mut self) -> Vec<DuqEntry> {
        self.index.clear();
        std::mem::take(&mut self.entries)
    }

    /// The pending objects, in enqueue order.
    pub fn pending(&self) -> Vec<ObjectId> {
        self.entries.iter().map(|e| e.object).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Accessors only the tests read.
    impl DelayedUpdateQueue {
        /// Returns the twin bytes of a pending object, if present.
        pub fn twin_of(&self, object: ObjectId) -> Option<&[u8]> {
            self.index
                .get(&object)
                .and_then(|i| self.entries[*i].twin.as_deref())
        }

        /// Number of twin buffers currently pooled (observable for tests).
        pub fn pooled_twins(&self) -> usize {
            self.twin_pool.len()
        }
    }

    #[test]
    fn enqueue_and_flush_preserve_order() {
        let mut duq = DelayedUpdateQueue::new();
        duq.enqueue(ObjectId::new(2), None);
        duq.enqueue(ObjectId::new(0), Some(vec![1, 2, 3, 4]));
        assert_eq!(duq.len(), 2);
        assert!(duq.contains(ObjectId::new(2)));
        let drained = duq.flush();
        assert_eq!(drained.len(), 2);
        assert_eq!(drained[0].object, ObjectId::new(2));
        assert_eq!(drained[1].object, ObjectId::new(0));
        assert!(duq.is_empty());
    }

    #[test]
    fn duplicate_enqueue_keeps_first_twin() {
        let mut duq = DelayedUpdateQueue::new();
        duq.enqueue(ObjectId::new(1), Some(vec![9]));
        duq.enqueue(ObjectId::new(1), Some(vec![7]));
        assert_eq!(duq.len(), 1);
        assert_eq!(duq.twin_of(ObjectId::new(1)), Some(&[9u8][..]));
        // The duplicate's snapshot was recycled, not leaked.
        assert_eq!(duq.pooled_twins(), 1);
    }

    #[test]
    fn remove_reindexes_remaining_entries() {
        let mut duq = DelayedUpdateQueue::new();
        duq.enqueue(ObjectId::new(0), None);
        duq.enqueue(ObjectId::new(1), None);
        duq.enqueue(ObjectId::new(2), None);
        let removed = duq.remove(ObjectId::new(1)).unwrap();
        assert_eq!(removed.object, ObjectId::new(1));
        assert_eq!(duq.len(), 2);
        assert!(duq.contains(ObjectId::new(2)));
        assert_eq!(
            duq.remove(ObjectId::new(2)).unwrap().object,
            ObjectId::new(2)
        );
        assert!(duq.remove(ObjectId::new(7)).is_none());
    }

    /// A flush removes from the front, entry by entry, while the service
    /// thread keeps looking twins up: every lookup, a later enqueue and a
    /// removal from the middle must find the right entry at each step.
    #[test]
    fn removing_from_the_front_keeps_every_lookup_right() {
        let mut duq = DelayedUpdateQueue::new();
        for o in 0..4u8 {
            duq.enqueue(ObjectId::new(o.into()), Some(vec![o]));
        }
        assert_eq!(duq.remove(ObjectId::new(0)).unwrap().twin, Some(vec![0]));
        assert_eq!(duq.remove(ObjectId::new(1)).unwrap().twin, Some(vec![1]));
        duq.twin_mut(ObjectId::new(2)).unwrap().as_mut().unwrap()[0] = 20;
        duq.enqueue(ObjectId::new(9), Some(vec![9]));
        assert_eq!(duq.twin_of(ObjectId::new(2)), Some(&[20u8][..]));
        assert_eq!(duq.twin_of(ObjectId::new(9)), Some(&[9u8][..]));
        assert_eq!(duq.remove(ObjectId::new(3)).unwrap().twin, Some(vec![3]));
        assert_eq!(duq.twin_of(ObjectId::new(9)), Some(&[9u8][..]));
        assert_eq!(duq.pending(), vec![ObjectId::new(2), ObjectId::new(9)]);
        let drained = duq.flush();
        assert_eq!(drained.len(), 2);
        duq.enqueue(ObjectId::new(5), Some(vec![5]));
        assert_eq!(duq.twin_of(ObjectId::new(5)), Some(&[5u8][..]));
    }

    #[test]
    fn only_a_pending_object_has_a_twin_slot() {
        let mut duq = DelayedUpdateQueue::new();
        duq.enqueue(ObjectId::new(0), Some(vec![0, 0]));
        duq.enqueue(ObjectId::new(1), None);
        duq.twin_mut(ObjectId::new(0)).unwrap().as_mut().unwrap()[0] = 5;
        assert_eq!(duq.twin_mut(ObjectId::new(1)), Some(&mut None));
        assert_eq!(duq.twin_mut(ObjectId::new(9)), None);
        assert_eq!(duq.twin_of(ObjectId::new(0)), Some(&[5u8, 0][..]));
        // A queued object with no twin takes one in its slot.
        *duq.twin_mut(ObjectId::new(1)).unwrap() = Some(vec![7]);
        assert_eq!(duq.twin_of(ObjectId::new(1)), Some(&[7u8][..]));
    }

    #[test]
    fn pending_lists_objects() {
        let mut duq = DelayedUpdateQueue::new();
        duq.enqueue(ObjectId::new(4), None);
        duq.enqueue(ObjectId::new(5), None);
        assert_eq!(duq.pending(), vec![ObjectId::new(4), ObjectId::new(5)]);
    }

    #[test]
    fn twin_pool_recycles_buffers() {
        let mut duq = DelayedUpdateQueue::new();
        // Simulate a flush cycle: acquire, fill, enqueue, drain, recycle.
        let mut buf = duq.acquire_twin_buffer(4);
        assert!(buf.is_empty());
        buf.extend_from_slice(&[1, 2, 3, 4]);
        let ptr = buf.as_ptr();
        duq.enqueue(ObjectId::new(0), Some(buf));
        let drained = duq.flush();
        let twin = drained.into_iter().next().unwrap().twin.unwrap();
        duq.recycle_twin(twin);
        assert_eq!(duq.pooled_twins(), 1);
        // The next fault reuses the same allocation.
        let reused = duq.acquire_twin_buffer(4);
        assert_eq!(reused.as_ptr(), ptr);
        assert!(reused.is_empty());
        assert!(reused.capacity() >= 4);
    }

    #[test]
    fn twin_pool_prefers_a_buffer_that_fits() {
        let mut duq = DelayedUpdateQueue::new();
        duq.recycle_twin(Vec::with_capacity(8));
        duq.recycle_twin(Vec::with_capacity(1024));
        duq.recycle_twin(Vec::with_capacity(16));
        // A 512-byte twin takes the 1024-capacity buffer, not the LIFO tail.
        let buf = duq.acquire_twin_buffer(512);
        assert!(buf.capacity() >= 512);
        assert_eq!(duq.pooled_twins(), 2);
        // Best fit: a small twin must not pin the largest remaining buffer.
        duq.recycle_twin(Vec::with_capacity(2048));
        let small = duq.acquire_twin_buffer(8);
        assert!(small.capacity() >= 8);
        assert!(small.capacity() < 2048, "smallest fitting buffer preferred");
    }

    #[test]
    fn twin_pool_is_bounded() {
        let mut duq = DelayedUpdateQueue::new();
        for _ in 0..(TWIN_POOL_CAP + 10) {
            duq.recycle_twin(vec![0u8; 8]);
        }
        assert_eq!(duq.pooled_twins(), TWIN_POOL_CAP);
    }
}
