//! Dense vertex sets.
//!
//! The paper stores the bottom-up current queue as a bitmap (§IV, citing
//! Agarwal et al.). [`Bitmap`] is the single-threaded variant;
//! [`AtomicBitmap`] lets parallel kernels publish next-frontier membership
//! with relaxed `fetch_or` — the claim race is resolved separately by the
//! parent CAS, so no stronger ordering is needed on the bits themselves.

use crate::VertexId;
use serde::{Deserialize, Serialize};
use std::sync::atomic::{AtomicU64, Ordering};

const BITS: usize = 64;

/// Fixed-capacity bitset over vertex ids `0..len`.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct Bitmap {
    len: usize,
    words: Vec<u64>,
}

impl Bitmap {
    /// All-zeros bitmap able to hold `len` bits.
    pub fn new(len: usize) -> Self {
        Self {
            len,
            words: vec![0; len.div_ceil(BITS)],
        }
    }

    /// Capacity in bits.
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// `true` if capacity is zero.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Test bit `v`.
    #[inline]
    pub fn get(&self, v: VertexId) -> bool {
        let i = v as usize;
        debug_assert!(i < self.len);
        self.words[i / BITS] & (1u64 << (i % BITS)) != 0
    }

    /// Set bit `v`.
    #[inline]
    pub fn set(&mut self, v: VertexId) {
        let i = v as usize;
        debug_assert!(i < self.len);
        self.words[i / BITS] |= 1u64 << (i % BITS);
    }

    /// Clear bit `v`.
    #[inline]
    pub fn clear(&mut self, v: VertexId) {
        let i = v as usize;
        debug_assert!(i < self.len);
        self.words[i / BITS] &= !(1u64 << (i % BITS));
    }

    /// Population count.
    pub fn count(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Iterate set bits in ascending order.
    pub fn iter(&self) -> impl Iterator<Item = VertexId> + '_ {
        self.words
            .iter()
            .enumerate()
            .flat_map(|(wi, &word)| BitIter {
                word,
                base: (wi * BITS) as u32,
            })
    }
}

struct BitIter {
    word: u64,
    base: u32,
}

impl Iterator for BitIter {
    type Item = VertexId;
    #[inline]
    fn next(&mut self) -> Option<VertexId> {
        if self.word == 0 {
            return None;
        }
        let tz = self.word.trailing_zeros();
        self.word &= self.word - 1;
        Some(self.base + tz)
    }
}

/// Bitmap shared across threads; bits are published with relaxed atomics.
#[derive(Debug)]
pub struct AtomicBitmap {
    len: usize,
    words: Vec<AtomicU64>,
}

impl AtomicBitmap {
    /// All-zeros atomic bitmap able to hold `len` bits.
    pub fn new(len: usize) -> Self {
        let words = (0..len.div_ceil(BITS)).map(|_| AtomicU64::new(0)).collect();
        Self { len, words }
    }

    /// Test bit `v` (relaxed).
    #[inline]
    pub fn get(&self, v: VertexId) -> bool {
        let i = v as usize;
        debug_assert!(i < self.len);
        self.words[i / BITS].load(Ordering::Relaxed) & (1u64 << (i % BITS)) != 0
    }

    /// Set bit `v` (relaxed `fetch_or`); returns `true` if it was newly set.
    #[inline]
    pub fn set(&self, v: VertexId) -> bool {
        let i = v as usize;
        debug_assert!(i < self.len);
        let mask = 1u64 << (i % BITS);
        self.words[i / BITS].fetch_or(mask, Ordering::Relaxed) & mask == 0
    }
}

impl From<&Bitmap> for AtomicBitmap {
    fn from(src: &Bitmap) -> Self {
        Self {
            len: src.len,
            words: src.words.iter().map(|&w| AtomicU64::new(w)).collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn set_get_clear() {
        let mut bm = Bitmap::new(130);
        assert!(!bm.get(0));
        bm.set(0);
        bm.set(63);
        bm.set(64);
        bm.set(129);
        assert!(bm.get(0) && bm.get(63) && bm.get(64) && bm.get(129));
        assert_eq!(bm.count(), 4);
        bm.clear(64);
        assert!(!bm.get(64));
        assert_eq!(bm.count(), 3);
    }

    #[test]
    fn iter_yields_ascending_set_bits() {
        let mut bm = Bitmap::new(200);
        for v in [3u32, 64, 65, 199] {
            bm.set(v);
        }
        assert_eq!(bm.iter().collect::<Vec<_>>(), vec![3, 64, 65, 199]);
    }

    #[test]
    fn atomic_set_reports_novelty() {
        let bm = AtomicBitmap::new(70);
        assert!(bm.set(69));
        assert!(!bm.set(69));
        assert!(bm.get(69));
        assert!(!bm.get(68));
    }

    #[test]
    fn atomic_from_plain_keeps_every_bit() {
        let mut plain = Bitmap::new(100);
        plain.set(1);
        plain.set(64);
        let at = AtomicBitmap::from(&plain);
        let set: Vec<VertexId> = (0..100).filter(|&v| at.get(v)).collect();
        assert_eq!(set, vec![1, 64]);
    }

    #[test]
    fn atomic_concurrent_sets_all_land() {
        use std::sync::Arc;
        let bm = Arc::new(AtomicBitmap::new(4096));
        let mut handles = Vec::new();
        for t in 0..4u32 {
            let bm = Arc::clone(&bm);
            handles.push(std::thread::spawn(move || {
                for v in (t..4096).step_by(4) {
                    bm.set(v);
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert!((0..4096).all(|v| bm.get(v)));
    }

    #[test]
    fn empty_bitmap() {
        let bm = Bitmap::new(0);
        assert!(bm.is_empty());
        assert_eq!(bm.count(), 0);
        assert_eq!(bm.iter().count(), 0);
    }
}
