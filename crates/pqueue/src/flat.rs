//! A cache-conscious flat 4-ary implicit heap over compact 16-byte entries.
//!
//! The pairing heap ([`crate::PairingHeap`]) pays a pointer chase per
//! comparison and drags the full `(K, V)` payload through every merge. Here
//! the heap sifts only a compact entry — `(key: u64, tag: u32, payload:
//! u32)` in SoA layout — while the value lives in a u32-indexed slab with
//! free-list recycling: slots are freed on pop and reused on push, so
//! steady-state queue memory is O(live elements) with zero per-element
//! allocation. The key is *not* stored at all: [`QueueKey`] keys are fully
//! determined by their order image, so pops rebuild them from the entry
//! via [`QueueKey::from_parts`].
//!
//! The arrays grow by 25% instead of the usual doubling — this layout
//! exists to keep resident queue memory low, and trading a few extra
//! reallocation copies (of flat integers) for a ≤ 1.25× capacity overshoot
//! is the right side of that bargain.
//!
//! * `key` is [`QueueKey::order_bits`]: an order-preserving `u64` image of
//!   the distance, so sift comparisons are integer compares.
//! * `tag` packs the key's secondary [`QueueKey::tie_rank`] (high 8 bits)
//!   over a 24-bit arrival sequence (low bits), making the entry order
//!   `(distance, tie, arrival)` — a *total* order, so equal keys pop in
//!   FIFO arrival order, deterministically. When the sequence counter wraps
//!   the live entries are renumbered in place (a `(key, tag)`-sorted array
//!   is itself a valid implicit heap, so renumbering is a sort, not a
//!   rebuild).
//! * `payload` indexes the slab.
//!
//! Children of entry `i` sit at `4i+1 ..= 4i+4` — one 32-byte span of the
//! key array, compared through fixed-size `as_chunks` lanes.
//!
//! The heap doubles as the hybrid queue's in-memory *list* tier: staged
//! entries accumulate unsorted ([`FlatHeap::stage`]) and are promoted in one
//! sorted pass ([`FlatHeap::promote_staged`]) when the window advances —
//! promotion into an empty heap is a move, with zero sift steps.

use crate::traits::{PriorityQueue, QueueKey};

/// Heap arity: children of `i` live at `ARITY*i + 1 ..= ARITY*i + ARITY`.
/// 4 × u64 keys span one 32-byte chunk, the width of a 256-bit vector
/// register.
pub const ARITY: usize = 4;

/// Low bits of the entry tag holding the arrival sequence.
const SEQ_BITS: u32 = 24;
/// Mask of the arrival-sequence field.
const SEQ_MASK: u32 = (1 << SEQ_BITS) - 1;

/// A flat 4-ary implicit min-heap of compact entries over a `(K, V)` slab.
pub struct FlatHeap<K, V> {
    /// Sifted region, SoA: `keys[i]`/`tags[i]`/`pays[i]` form entry `i`.
    keys: Vec<u64>,
    tags: Vec<u32>,
    pays: Vec<u32>,
    /// Staged (unsorted) entries — the hybrid queue's list tier.
    staged: Vec<(u64, u32, u32)>,
    /// Value slab, indexed by the entry payload. Freed slots keep their
    /// last value until reused.
    slab_vals: Vec<V>,
    free: Vec<u32>,
    /// Keys exist only as compact entries; see [`QueueKey::from_parts`].
    _keys: std::marker::PhantomData<K>,
    /// Next arrival sequence (low [`SEQ_BITS`] bits of the next tag).
    seq: u32,
    len: usize,
    max_len: usize,
    slab_high_water: usize,
    slab_recycled: u64,
}

impl<K: QueueKey, V: Clone> Default for FlatHeap<K, V> {
    fn default() -> Self {
        Self::new()
    }
}

impl<K: QueueKey, V: Clone> FlatHeap<K, V> {
    /// Creates an empty heap.
    #[must_use]
    pub fn new() -> Self {
        Self {
            keys: Vec::new(),
            tags: Vec::new(),
            pays: Vec::new(),
            staged: Vec::new(),
            slab_vals: Vec::new(),
            free: Vec::new(),
            _keys: std::marker::PhantomData,
            seq: 0,
            len: 0,
            max_len: 0,
            slab_high_water: 0,
            slab_recycled: 0,
        }
    }

    /// Creates an empty heap with pre-allocated capacity.
    #[must_use]
    pub fn with_capacity(cap: usize) -> Self {
        let mut h = Self::new();
        h.reserve(cap);
        h
    }

    /// Number of elements (sifted + staged).
    #[must_use]
    pub fn len(&self) -> usize {
        self.len
    }

    /// True if the heap has no elements at all.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Number of entries in the sifted (heap-ordered) region.
    #[must_use]
    pub fn sifted_len(&self) -> usize {
        self.keys.len()
    }

    /// Number of staged (not yet heap-ordered) entries.
    #[must_use]
    pub fn staged_len(&self) -> usize {
        self.staged.len()
    }

    /// Largest length observed.
    #[must_use]
    pub fn high_water_mark(&self) -> usize {
        self.max_len
    }

    /// High-water mark of live slab slots. Recycling keeps this equal to the
    /// queue's own high-water mark: a freed slot is reused before the slab
    /// grows.
    #[must_use]
    pub fn slab_high_water(&self) -> usize {
        self.slab_high_water
    }

    /// Live slab slots (always exactly the element count: every queued
    /// element owns one slot).
    #[must_use]
    pub fn slab_live(&self) -> usize {
        self.len
    }

    /// How many pushes were served from the free list instead of growing
    /// the slab.
    #[must_use]
    pub fn slab_recycled(&self) -> u64 {
        self.slab_recycled
    }

    /// Approximate resident bytes of the heap: entry arrays, staged run,
    /// value slab, and free list, at their allocated capacities.
    #[must_use]
    pub fn approx_bytes(&self) -> usize {
        self.keys.capacity() * 8
            + self.tags.capacity() * 4
            + self.pays.capacity() * 4
            + self.staged.capacity() * std::mem::size_of::<(u64, u32, u32)>()
            + self.slab_vals.capacity() * std::mem::size_of::<V>()
            + self.free.capacity() * 4
    }

    /// Reserves one more slot in `v` with 25% amortized growth (see the
    /// module docs) instead of `Vec`'s doubling.
    #[inline]
    fn reserve_one<T>(v: &mut Vec<T>) {
        if v.len() == v.capacity() {
            v.reserve_exact((v.capacity() / 4).max(32));
        }
    }

    /// Appends one compact entry to the sifted arrays, growing by 25%.
    #[inline]
    fn push_entry(&mut self, k: u64, t: u32, p: u32) {
        Self::reserve_one(&mut self.keys);
        Self::reserve_one(&mut self.tags);
        Self::reserve_one(&mut self.pays);
        self.keys.push(k);
        self.tags.push(t);
        self.pays.push(p);
    }

    /// Ensures space for `additional` more elements without reallocating
    /// (beyond slab slots recycled through the free list).
    pub fn reserve(&mut self, additional: usize) {
        self.keys.reserve(additional);
        self.tags.reserve(additional);
        self.pays.reserve(additional);
        let fresh = additional.saturating_sub(self.free.len());
        self.slab_vals.reserve(fresh);
    }

    /// Drops all elements, keeping capacity.
    pub fn clear(&mut self) {
        self.keys.clear();
        self.tags.clear();
        self.pays.clear();
        self.staged.clear();
        self.slab_vals.clear();
        self.free.clear();
        self.seq = 0;
        self.len = 0;
    }

    /// The minimum key of the *sifted* region, rebuilt from its compact
    /// entry. Staged entries are invisible until promoted (use
    /// [`PriorityQueue::peek_key`] for the promoting variant).
    #[must_use]
    pub fn peek(&self) -> Option<K> {
        let (&bits, &tag) = (self.keys.first()?, self.tags.first()?);
        Some(Self::rebuild_key(bits, tag))
    }

    /// The minimum sifted key and a reference to its value.
    #[must_use]
    pub fn peek_entry(&self) -> Option<(K, &V)> {
        let &pay = self.pays.first()?;
        Some((self.peek()?, self.slab_vals.get(pay as usize)?))
    }

    /// Rebuilds a key from its compact entry (see [`QueueKey::from_parts`]).
    #[inline]
    fn rebuild_key(bits: u64, tag: u32) -> K {
        let tie = u8::try_from(tag >> SEQ_BITS).unwrap_or(u8::MAX);
        K::from_parts(bits, tie)
    }

    /// Inserts an element into the sifted region. O(log₄ n).
    pub fn push(&mut self, key: K, value: V) {
        let bits = key.order_bits();
        let tag = self.next_tag(key.tie_rank());
        let pay = self.alloc_slot(value);
        self.push_entry(bits, tag, pay);
        self.sift_up(self.keys.len() - 1);
        self.len += 1;
        self.max_len = self.max_len.max(self.len);
    }

    /// Inserts a batch of elements, growing the arrays at most once.
    ///
    /// Entries are appended raw and the heap invariant is restored once at
    /// the end: per-entry sift-up for small batches (`O(k·log₄ n)`), or one
    /// Floyd bottom-up heapify pass over the whole sifted region (`O(n)`)
    /// when the batch is a sizeable fraction of it — the flush-batched push
    /// shape where per-push sifting was losing to the pairing heap.
    pub fn push_batch<I>(&mut self, batch: I)
    where
        I: IntoIterator<Item = (K, V)>,
    {
        let batch = batch.into_iter();
        let (lower, _) = batch.size_hint();
        self.reserve(lower);
        let before = self.keys.len();
        for (key, value) in batch {
            let bits = key.order_bits();
            let tag = self.next_tag(key.tie_rank());
            let pay = self.alloc_slot(value);
            self.push_entry(bits, tag, pay);
            self.len += 1;
        }
        self.max_len = self.max_len.max(self.len);
        // `next_tag` may have renumbered mid-batch; renumbering sorts the
        // whole region by `(key, tag)`, which is itself a valid heap, so
        // both restoration paths below stay correct (and cheap) after it.
        let total = self.keys.len();
        let appended = total - before;
        if appended == 0 {
            return;
        }
        if appended >= total / 4 {
            self.heapify();
        } else {
            for i in before..total {
                self.sift_up(i);
            }
        }
    }

    /// Restores the heap invariant over the whole sifted region by sifting
    /// down from the last parent to the root (Floyd's bottom-up
    /// construction). O(n) — each level's sift cost halves going up.
    fn heapify(&mut self) {
        let n = self.keys.len();
        if n < 2 {
            return;
        }
        let last_parent = (n - 2) / ARITY;
        for i in (0..=last_parent).rev() {
            self.sift_down(i);
        }
    }

    /// Drains every element — sifted and staged — in arbitrary array order,
    /// visiting each rebuilt key and value exactly once, then leaves the
    /// heap empty. O(n) with zero sift work: the adaptive handoff harvests
    /// the whole frontier without needing it sorted, so popping entries one
    /// at a time would waste `n·log₄ n` comparisons re-ordering entries
    /// whose order is about to be discarded.
    pub fn drain_unordered(&mut self, mut visit: impl FnMut(K, V)) {
        for i in 0..self.keys.len() {
            let key = Self::rebuild_key(self.keys[i], self.tags[i]);
            let value = self.slab_vals[self.pays[i] as usize].clone();
            visit(key, value);
        }
        for (bits, tag, pay) in std::mem::take(&mut self.staged) {
            let key = Self::rebuild_key(bits, tag);
            let value = self.slab_vals[pay as usize].clone();
            visit(key, value);
        }
        self.clear();
    }

    /// Appends an element to the staged run without sifting — the hybrid
    /// queue's unorganised list tier. Staged entries keep their arrival
    /// tags, so a later [`FlatHeap::promote_staged`] restores exact
    /// `(distance, tie, arrival)` order.
    pub fn stage(&mut self, key: K, value: V) {
        let bits = key.order_bits();
        let tag = self.next_tag(key.tie_rank());
        let pay = self.alloc_slot(value);
        Self::reserve_one(&mut self.staged);
        self.staged.push((bits, tag, pay));
        self.len += 1;
        self.max_len = self.max_len.max(self.len);
    }

    /// Promotes every staged entry into the sifted region, returning how
    /// many moved. The staged run is sorted by `(key, tag)`; into an empty
    /// heap the sorted run *is* a valid implicit heap (every prefix of a
    /// sorted array satisfies the d-ary heap property), so promotion is a
    /// move with zero sift steps — the hybrid window advance always hits
    /// this path because it only pours when the heap tier is empty.
    pub fn promote_staged(&mut self) -> usize {
        let n = self.staged.len();
        if n == 0 {
            return 0;
        }
        self.staged.sort_by_key(|&(k, t, _)| (k, t));
        if self.keys.is_empty() {
            self.keys.reserve(n);
            self.tags.reserve(n);
            self.pays.reserve(n);
            for (k, t, p) in self.staged.drain(..) {
                self.keys.push(k);
                self.tags.push(t);
                self.pays.push(p);
            }
        } else {
            for (k, t, p) in std::mem::take(&mut self.staged) {
                self.push_entry(k, t, p);
                self.sift_up(self.keys.len() - 1);
            }
        }
        n
    }

    /// Removes and returns the minimum element. O(log₄ n). Promotes the
    /// staged run first if the sifted region is empty.
    pub fn pop(&mut self) -> Option<(K, V)> {
        if self.keys.is_empty() {
            if self.staged.is_empty() {
                return None;
            }
            self.promote_staged();
        }
        let (bits, tag, pay) = (self.keys[0], self.tags[0], self.pays[0]);
        let last = self.keys.len() - 1;
        if last > 0 {
            self.keys[0] = self.keys[last];
            self.tags[0] = self.tags[last];
            self.pays[0] = self.pays[last];
        }
        self.keys.truncate(last);
        self.tags.truncate(last);
        self.pays.truncate(last);
        if last > 1 {
            self.sift_down(0);
        }
        self.len -= 1;
        Some((Self::rebuild_key(bits, tag), self.take_slot(pay)))
    }

    fn alloc_slot(&mut self, value: V) -> u32 {
        let idx = match self.free.pop() {
            Some(i) => {
                self.slab_vals[i as usize] = value;
                self.slab_recycled += 1;
                i
            }
            None => {
                let i = u32::try_from(self.slab_vals.len()).unwrap_or(u32::MAX);
                Self::reserve_one(&mut self.slab_vals);
                self.slab_vals.push(value);
                i
            }
        };
        let live = self.slab_vals.len() - self.free.len();
        self.slab_high_water = self.slab_high_water.max(live);
        idx
    }

    fn take_slot(&mut self, pay: u32) -> V {
        let out = self.slab_vals[pay as usize].clone();
        Self::reserve_one(&mut self.free);
        self.free.push(pay);
        out
    }

    /// Allocates the next entry tag: `tie` in the high 8 bits over the
    /// arrival sequence. When the 24-bit sequence wraps, live entries are
    /// renumbered (relative order preserved) and the counter restarts past
    /// them; with ≥ 2^24 *live* entries the sequence saturates instead, and
    /// FIFO order among further equal keys degrades gracefully (the heap
    /// order itself stays valid).
    fn next_tag(&mut self, tie: u8) -> u32 {
        if self.seq > SEQ_MASK {
            self.renumber();
        }
        let tag = (u32::from(tie) << SEQ_BITS) | self.seq.min(SEQ_MASK);
        self.seq = self.seq.saturating_add(1);
        tag
    }

    /// Reassigns arrival sequences 0.. in global `(key, tag)` order across
    /// the sifted and staged regions. Order-preserving: equal-key entries
    /// keep their relative arrival order. The sifted region is rebuilt from
    /// its sorted entries, which is again a valid implicit heap.
    fn renumber(&mut self) {
        let sifted = self.keys.len();
        let mut all: Vec<(u64, u32, u32, bool)> = Vec::with_capacity(sifted + self.staged.len());
        for i in 0..sifted {
            all.push((self.keys[i], self.tags[i], self.pays[i], true));
        }
        for &(k, t, p) in &self.staged {
            all.push((k, t, p, false));
        }
        all.sort_by_key(|&(k, t, _, _)| (k, t));
        self.keys.clear();
        self.tags.clear();
        self.pays.clear();
        self.staged.clear();
        for (rank, (k, t, p, in_sifted)) in all.into_iter().enumerate() {
            let seq = u32::try_from(rank).unwrap_or(u32::MAX).min(SEQ_MASK);
            let tag = (t & !SEQ_MASK) | seq;
            if in_sifted {
                self.keys.push(k);
                self.tags.push(tag);
                self.pays.push(p);
            } else {
                self.staged.push((k, tag, p));
            }
        }
        self.seq = u32::try_from(self.len).unwrap_or(u32::MAX);
    }

    /// Entry order: `(key, tag)` — i.e. `(distance bits, tie, arrival)`.
    #[inline]
    fn less(a: (u64, u32), b: (u64, u32)) -> bool {
        a < b
    }

    #[inline]
    fn sift_up(&mut self, mut i: usize) {
        let entry = (self.keys[i], self.tags[i], self.pays[i]);
        while i > 0 {
            let parent = (i - 1) / ARITY;
            if !Self::less((entry.0, entry.1), (self.keys[parent], self.tags[parent])) {
                break;
            }
            self.keys[i] = self.keys[parent];
            self.tags[i] = self.tags[parent];
            self.pays[i] = self.pays[parent];
            i = parent;
        }
        self.keys[i] = entry.0;
        self.tags[i] = entry.1;
        self.pays[i] = entry.2;
    }

    #[inline]
    fn sift_down(&mut self, mut i: usize) {
        let n = self.keys.len();
        let entry = (self.keys[i], self.tags[i], self.pays[i]);
        loop {
            let base = ARITY * i + 1;
            if base >= n {
                break;
            }
            // Minimum of the up-to-4 children. The full-fan case reads one
            // 32-byte key lane plus one 16-byte tag lane through fixed-size
            // chunks, which carry no per-element bounds checks.
            let mut best = 0usize;
            if base + ARITY <= n {
                let (klane, _) = self.keys[base..base + ARITY].as_chunks::<ARITY>();
                let (tlane, _) = self.tags[base..base + ARITY].as_chunks::<ARITY>();
                let (k4, t4) = (&klane[0], &tlane[0]);
                for j in 1..ARITY {
                    if Self::less((k4[j], t4[j]), (k4[best], t4[best])) {
                        best = j;
                    }
                }
            } else {
                for j in 1..n - base {
                    if Self::less(
                        (self.keys[base + j], self.tags[base + j]),
                        (self.keys[base + best], self.tags[base + best]),
                    ) {
                        best = j;
                    }
                }
            }
            let c = base + best;
            if !Self::less((self.keys[c], self.tags[c]), (entry.0, entry.1)) {
                break;
            }
            self.keys[i] = self.keys[c];
            self.tags[i] = self.tags[c];
            self.pays[i] = self.pays[c];
            i = c;
        }
        self.keys[i] = entry.0;
        self.tags[i] = entry.1;
        self.pays[i] = entry.2;
    }

    #[cfg(test)]
    fn force_seq(&mut self, seq: u32) {
        self.seq = seq;
    }
}

impl<K: QueueKey, V: Clone> PriorityQueue<K, V> for FlatHeap<K, V> {
    fn push(&mut self, key: K, value: V) -> sdj_storage::Result<()> {
        FlatHeap::push(self, key, value);
        Ok(())
    }

    fn pop(&mut self) -> sdj_storage::Result<Option<(K, V)>> {
        Ok(FlatHeap::pop(self))
    }

    fn peek_key(&mut self) -> sdj_storage::Result<Option<K>> {
        if self.keys.is_empty() && !self.staged.is_empty() {
            self.promote_staged();
        }
        Ok(self.peek())
    }

    fn len(&self) -> usize {
        self.len
    }

    fn max_len(&self) -> usize {
        self.max_len
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::PairingHeap;
    use proptest::prelude::*;
    use sdj_geom::OrdF64;

    #[test]
    fn pops_in_order() {
        let mut h: FlatHeap<OrdF64, u64> = FlatHeap::new();
        for k in [5.0, 1.0, 4.0, 1.0, 3.0, 9.0, 2.0] {
            h.push(OrdF64::new(k), (k * 10.0) as u64);
        }
        let mut out = Vec::new();
        while let Some((k, _)) = h.pop() {
            out.push(k.get());
        }
        assert_eq!(out, vec![1.0, 1.0, 2.0, 3.0, 4.0, 5.0, 9.0]);
        assert!(h.is_empty());
    }

    #[test]
    fn equal_keys_pop_fifo() {
        let mut h: FlatHeap<OrdF64, u64> = FlatHeap::new();
        for v in 0..50u64 {
            h.push(OrdF64::new(1.0), v);
        }
        for v in 0..50u64 {
            assert_eq!(h.pop().map(|(_, v)| v), Some(v));
        }
    }

    #[test]
    fn negative_and_zero_keys_order_correctly() {
        let mut h: FlatHeap<OrdF64, u64> = FlatHeap::new();
        for (i, d) in [-1.5, 0.0, -0.0, 3.0, -7.25, 0.0].iter().enumerate() {
            h.push(OrdF64::new(*d), i as u64);
        }
        let mut out = Vec::new();
        while let Some((k, v)) = h.pop() {
            out.push((k.get(), v));
        }
        // Sorted by key; the three zeros (+0.0, -0.0, +0.0) are equal under
        // OrdF64 and pop in arrival order.
        assert_eq!(
            out,
            vec![
                (-7.25, 4),
                (-1.5, 0),
                (0.0, 1),
                (-0.0, 2),
                (0.0, 5),
                (3.0, 3)
            ]
        );
    }

    #[test]
    fn slab_slots_are_recycled() {
        let mut h: FlatHeap<OrdF64, u64> = FlatHeap::new();
        for round in 0..10 {
            for k in 0..100 {
                h.push(OrdF64::new(f64::from(k)), round);
            }
            for _ in 0..100 {
                h.pop().unwrap();
            }
        }
        assert!(
            h.slab_vals.len() <= 100,
            "slab grew to {}",
            h.slab_vals.len()
        );
        assert_eq!(h.slab_high_water(), 100);
        assert_eq!(h.slab_recycled(), 900);
    }

    #[test]
    fn staged_promotion_restores_order() {
        let mut h: FlatHeap<OrdF64, u64> = FlatHeap::new();
        h.stage(OrdF64::new(3.0), 0);
        h.stage(OrdF64::new(1.0), 1);
        h.stage(OrdF64::new(2.0), 2);
        h.stage(OrdF64::new(1.0), 3);
        assert_eq!(h.staged_len(), 4);
        assert_eq!(h.sifted_len(), 0);
        assert_eq!(h.promote_staged(), 4);
        assert_eq!(h.staged_len(), 0);
        let mut out = Vec::new();
        while let Some((k, v)) = h.pop() {
            out.push((k.get(), v));
        }
        // Equal keys in arrival (stage) order.
        assert_eq!(out, vec![(1.0, 1), (1.0, 3), (2.0, 2), (3.0, 0)]);
    }

    #[test]
    fn promote_into_nonempty_heap_sifts() {
        let mut h: FlatHeap<OrdF64, u64> = FlatHeap::new();
        h.push(OrdF64::new(2.0), 0);
        h.stage(OrdF64::new(1.0), 1);
        h.stage(OrdF64::new(3.0), 2);
        h.promote_staged();
        assert_eq!(h.pop().map(|(_, v)| v), Some(1));
        assert_eq!(h.pop().map(|(_, v)| v), Some(0));
        assert_eq!(h.pop().map(|(_, v)| v), Some(2));
    }

    #[test]
    fn pop_promotes_staged_when_sifted_is_empty() {
        let mut h: FlatHeap<OrdF64, u64> = FlatHeap::new();
        h.stage(OrdF64::new(5.0), 7);
        assert_eq!(h.pop().map(|(_, v)| v), Some(7));
        assert_eq!(h.pop(), None);
    }

    #[test]
    fn renumber_preserves_fifo_across_wrap() {
        let mut h: FlatHeap<OrdF64, u64> = FlatHeap::new();
        for v in 0..10u64 {
            h.push(OrdF64::new(1.0), v);
        }
        h.stage(OrdF64::new(1.0), 10);
        // Force the 24-bit sequence to its limit: the next tag triggers a
        // renumber of the 11 live entries.
        h.force_seq(SEQ_MASK + 1);
        h.push(OrdF64::new(1.0), 11);
        h.stage(OrdF64::new(1.0), 12);
        h.promote_staged();
        for v in 0..13u64 {
            assert_eq!(h.pop().map(|(_, v)| v), Some(v), "at {v}");
        }
    }

    #[test]
    fn approx_bytes_tracks_capacity() {
        let mut h: FlatHeap<OrdF64, u64> = FlatHeap::new();
        assert_eq!(h.approx_bytes(), 0);
        h.push(OrdF64::new(1.0), 1);
        let one = h.approx_bytes();
        assert!(one >= 16 + 8, "entry + slab accounted: {one}");
        for k in 0..100 {
            h.push(OrdF64::new(f64::from(k)), 0);
        }
        assert!(h.approx_bytes() > one);
    }

    #[test]
    fn clear_resets() {
        let mut h: FlatHeap<OrdF64, u64> = FlatHeap::new();
        h.push(OrdF64::new(1.0), 1);
        h.stage(OrdF64::new(2.0), 2);
        h.clear();
        assert!(h.is_empty());
        assert_eq!(h.pop(), None);
        h.push(OrdF64::new(2.0), 2);
        assert_eq!(h.pop().map(|(_, v)| v), Some(2));
    }

    #[test]
    fn reserve_prevents_incremental_growth() {
        let mut h: FlatHeap<OrdF64, u64> = FlatHeap::new();
        h.reserve(64);
        let cap = h.keys.capacity();
        assert!(cap >= 64);
        for k in 0..64 {
            h.push(OrdF64::new(f64::from(k)), 0);
        }
        assert_eq!(h.keys.capacity(), cap, "no reallocation during pushes");
    }

    #[test]
    fn push_batch_large_takes_heapify_path() {
        // A batch much larger than the sifted region triggers the Floyd
        // bottom-up heapify; the pop sequence must be unchanged.
        let mut h: FlatHeap<OrdF64, u64> = FlatHeap::new();
        h.push(OrdF64::new(500.0), 999);
        h.push_batch((0..256u64).map(|v| (OrdF64::new(((v * 37) % 101) as f64), v)));
        let mut out = Vec::new();
        while let Some((k, v)) = h.pop() {
            out.push((k.get(), v));
        }
        assert_eq!(out.len(), 257);
        let mut sorted = out.clone();
        sorted.sort_by(|a, b| a.0.total_cmp(&b.0));
        let dists: Vec<f64> = out.iter().map(|(k, _)| *k).collect();
        let expect: Vec<f64> = sorted.iter().map(|(k, _)| *k).collect();
        assert_eq!(dists, expect);
    }

    #[test]
    fn push_batch_small_keeps_fifo_among_equal_keys() {
        // A small batch into a large region takes the per-entry sift-up
        // path; equal keys must still pop in arrival order.
        let mut h: FlatHeap<OrdF64, u64> = FlatHeap::new();
        for v in 0..64u64 {
            h.push(OrdF64::new(2.0), v);
        }
        h.push_batch([(OrdF64::new(2.0), 64u64), (OrdF64::new(1.0), 65)]);
        assert_eq!(h.pop().map(|(_, v)| v), Some(65));
        for v in 0..65u64 {
            assert_eq!(h.pop().map(|(_, v)| v), Some(v));
        }
    }

    #[test]
    fn drain_unordered_yields_every_element_once() {
        let mut h: FlatHeap<OrdF64, u64> = FlatHeap::new();
        for v in 0..40u64 {
            h.push(OrdF64::new((v % 7) as f64), v);
        }
        for v in 40..50u64 {
            h.stage(OrdF64::new((v % 7) as f64), v);
        }
        let mut got = Vec::new();
        h.drain_unordered(|k, v| got.push((k.get(), v)));
        assert!(h.is_empty());
        assert_eq!(h.pop(), None);
        got.sort_by_key(|e| e.1);
        let expect: Vec<(f64, u64)> = (0..50u64).map(|v| ((v % 7) as f64, v)).collect();
        assert_eq!(got, expect);
        // Reusable afterwards.
        h.push(OrdF64::new(9.0), 1);
        assert_eq!(h.pop().map(|(_, v)| v), Some(1));
    }

    proptest! {
        /// `push_batch` (both restoration paths) agrees with per-element
        /// pushes into a pairing heap on the full pop sequence.
        #[test]
        fn push_batch_matches_individual_pushes(
            batches in prop::collection::vec(
                prop::collection::vec(0u32..20, 0..60),
                1..8,
            ),
        ) {
            let mut flat: FlatHeap<OrdF64, u32> = FlatHeap::new();
            let mut pairing: PairingHeap<OrdF64, u32> = PairingHeap::new();
            let mut next = 0u32;
            for batch in batches {
                let items: Vec<(OrdF64, u32)> = batch
                    .iter()
                    .map(|k| {
                        let v = next;
                        next += 1;
                        (OrdF64::new(f64::from(*k)), v)
                    })
                    .collect();
                for &(k, v) in &items {
                    pairing.push(k, v);
                }
                flat.push_batch(items);
                // Interleave a pop so batches land on non-empty regions.
                prop_assert_eq!(flat.pop(), pairing.pop());
            }
            while let Some(got) = flat.pop() {
                prop_assert_eq!(Some(got), pairing.pop());
            }
            prop_assert_eq!(pairing.pop(), None);
        }
    }

    proptest! {
        /// Heap order agrees with sorting, including duplicate keys.
        #[test]
        fn agrees_with_sort(keys in prop::collection::vec(0u32..1000, 0..300)) {
            let mut h: FlatHeap<OrdF64, usize> = FlatHeap::new();
            for (i, k) in keys.iter().enumerate() {
                h.push(OrdF64::new(f64::from(*k)), i);
            }
            let mut expect = keys.clone();
            expect.sort_unstable();
            let mut got = Vec::new();
            while let Some((k, _)) = h.pop() {
                got.push(k.get() as u32);
            }
            prop_assert_eq!(got, expect);
        }

        /// Random interleavings of push/stage/promote/pop agree with the
        /// seq-stamped pairing heap on the full (key, value) pop sequence —
        /// both realise the total order (key, arrival).
        #[test]
        fn matches_pairing_heap_exactly(
            ops in prop::collection::vec((0u8..4, 0u32..50), 1..400),
        ) {
            let mut flat: FlatHeap<OrdF64, u32> = FlatHeap::new();
            let mut pairing: PairingHeap<OrdF64, u32> = PairingHeap::new();
            for (i, (op, k)) in ops.into_iter().enumerate() {
                let v = i as u32;
                match op {
                    0 | 3 => {
                        flat.push(OrdF64::new(f64::from(k)), v);
                        pairing.push(OrdF64::new(f64::from(k)), v);
                    }
                    1 => {
                        // Stage + immediate promote is equivalent to push
                        // for ordering purposes (arrival tags persist).
                        flat.stage(OrdF64::new(f64::from(k)), v);
                        flat.promote_staged();
                        pairing.push(OrdF64::new(f64::from(k)), v);
                    }
                    _ => {
                        prop_assert_eq!(flat.pop(), pairing.pop());
                    }
                }
                prop_assert_eq!(flat.len(), pairing.len());
            }
            while let Some(got) = flat.pop() {
                prop_assert_eq!(Some(got), pairing.pop());
            }
            prop_assert_eq!(pairing.pop(), None);
        }
    }
}
