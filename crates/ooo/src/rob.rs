//! The reorder buffer as a fixed ring of uop slots.

use std::ops::{Index, IndexMut};

/// A ring of in-flight entries, oldest (the head) first, in a slab
/// allocated once.
///
/// The core numbers uops with dense tokens from the head (its invariant
/// audit checks this), so the entry with token `t` lives in slot
/// `t & mask` and position `i` (counted from the head) in slot
/// `(head + i) & mask`. The slab's capacity is the next power of two at or
/// above the ROB size. The first lap of pushes fills it; later pushes
/// overwrite a retired or squashed slot in place. Retire and squash only
/// move the head and the tail, so no entry is ever moved out by value.
pub(crate) struct Rob<T> {
    slots: Vec<T>,
    mask: u64,
    /// Token of the oldest live entry.
    head: u64,
    len: usize,
}

impl<T> Rob<T> {
    /// An empty ring holding at least `size` entries; its head token is 0.
    pub(crate) fn new(size: usize) -> Rob<T> {
        let capacity = size.max(1).next_power_of_two();
        Rob { slots: Vec::with_capacity(capacity), mask: capacity as u64 - 1, head: 0, len: 0 }
    }

    /// Live entries.
    #[inline]
    pub(crate) fn len(&self) -> usize {
        self.len
    }

    /// Token of the oldest live entry (the next to retire).
    #[inline]
    pub(crate) fn head_token(&self) -> u64 {
        self.head
    }

    #[inline]
    fn slot_of(&self, pos: usize) -> usize {
        (self.head.wrapping_add(pos as u64) & self.mask) as usize
    }

    /// The entry at position `pos` from the head, if live.
    #[inline]
    pub(crate) fn get(&self, pos: usize) -> Option<&T> {
        (pos < self.len).then(|| &self.slots[self.slot_of(pos)])
    }

    /// The oldest live entry.
    #[inline]
    pub(crate) fn front(&self) -> Option<&T> {
        self.get(0)
    }

    /// The youngest live entry.
    #[inline]
    pub(crate) fn back(&self) -> Option<&T> {
        self.len.checked_sub(1).and_then(|pos| self.get(pos))
    }

    /// Appends an entry at the tail (token `head_token() + len()`).
    ///
    /// # Panics
    ///
    /// Panics if the ring is full.
    #[inline]
    pub(crate) fn push_back(&mut self, entry: T) {
        assert!(self.len <= self.mask as usize, "ROB ring overflow");
        let slot = self.slot_of(self.len);
        // Tokens start at 0 and the tail only ever rewinds, so until the
        // first lap completes the tail slot is at most one past the end.
        if slot == self.slots.len() {
            self.slots.push(entry);
        } else {
            self.slots[slot] = entry;
        }
        self.len += 1;
    }

    /// Retires the head entry and returns its token. The entry stays
    /// readable through [`Rob::retired`] until a later push reuses its
    /// slot.
    ///
    /// # Panics
    ///
    /// Panics if the ring is empty.
    #[inline]
    pub(crate) fn retire_head(&mut self) -> u64 {
        assert!(self.len > 0, "retire from an empty ROB");
        let token = self.head;
        self.head += 1;
        self.len -= 1;
        token
    }

    /// The entry [`Rob::retire_head`] just retired as `token`, read in
    /// place.
    #[inline]
    pub(crate) fn retired(&self, token: u64) -> &T {
        debug_assert_eq!(token + 1, self.head, "only the last retired entry is readable");
        &self.slots[(token & self.mask) as usize]
    }

    /// Drops the youngest entry (squash). Its slot is reused by the next
    /// push.
    #[inline]
    pub(crate) fn pop_back(&mut self) {
        assert!(self.len > 0, "squash from an empty ROB");
        self.len -= 1;
    }

    /// Live entries, oldest first.
    pub(crate) fn iter(&self) -> impl Iterator<Item = &T> {
        (0..self.len).map(move |pos| &self.slots[self.slot_of(pos)])
    }
}

impl<T> Index<usize> for Rob<T> {
    type Output = T;

    /// The live entry at position `pos` from the head.
    #[inline]
    fn index(&self, pos: usize) -> &T {
        debug_assert!(pos < self.len, "ROB position {pos} past the tail ({})", self.len);
        &self.slots[self.slot_of(pos)]
    }
}

impl<T> IndexMut<usize> for Rob<T> {
    #[inline]
    fn index_mut(&mut self, pos: usize) -> &mut T {
        debug_assert!(pos < self.len, "ROB position {pos} past the tail ({})", self.len);
        let slot = self.slot_of(pos);
        &mut self.slots[slot]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn capacity_rounds_up_to_a_power_of_two() {
        let mut r = Rob::new(6);
        for t in 0..8u64 {
            r.push_back(t);
        }
        assert_eq!(r.len(), 8);
        assert_eq!(r.slots.capacity(), 8, "allocated once, never grown");
    }

    #[test]
    fn positions_follow_tokens_across_wraps() {
        // Model: a VecDeque of tokens driven through the same pushes,
        // retires and squashes.
        let mut r = Rob::new(5);
        let mut model = std::collections::VecDeque::new();
        let mut next = 0u64;
        for step in 0..400u64 {
            match step % 7 {
                0..=3 if r.len() < 8 => {
                    r.push_back(next);
                    model.push_back(next);
                    next += 1;
                }
                4 | 5 if r.len() > 0 => {
                    let t = r.retire_head();
                    assert_eq!(*r.retired(t), t);
                    assert_eq!(model.pop_front(), Some(t));
                }
                6 if r.len() > 1 => {
                    r.pop_back();
                    model.pop_back();
                    next -= 1;
                }
                _ => {}
            }
            assert_eq!(r.head_token(), model.front().copied().unwrap_or(next));
            assert!(r.iter().eq(model.iter()));
            assert_eq!(r.back(), model.back());
            for (pos, t) in model.iter().enumerate() {
                assert_eq!(r[pos], *t);
                assert_eq!(r.get(pos), Some(t));
            }
            assert_eq!(r.get(model.len()), None);
        }
        assert!(next > 4 * 8, "the test must wrap the ring several times");
    }
}
