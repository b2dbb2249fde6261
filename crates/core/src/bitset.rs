//! Word-packed bitsets: the dense set-algebra engine behind the executor's
//! tuple sets.
//!
//! Every tuple identity the base query can return has a dense `u32` id —
//! its row in the driving table (see [`crate::exec`]) — so a set of tuples is a
//! [`BitSet`] — a `Vec<u64>` where bit `i` of word `i / 64` marks tuple
//! `i`. The combination algebra the dissertation evaluates per enhanced
//! query (intersection for `AND`, union for `OR`, §4.6) then compiles to
//! word-wide `&`/`|` loops, and `COUNT(DISTINCT …)` to a popcount — the
//! hot path of the PairwiseCache build and every PEPS round.
//!
//! Sets of different lengths are fine everywhere: missing high words are
//! treated as zero, so a set built before the corpus grew still
//! intersects correctly with a newer, wider one.
//!
//! Every shrinking operation (`remove`, `and`, `and_not`, `and_assign`)
//! trims trailing zero words, so a `BitSet` is always in *canonical form*:
//! two sets holding the same ids are equal word-for-word regardless of the
//! op sequence that built them. The adaptive
//! [`TupleSet`](crate::tupleset::TupleSet) relies on this to derive its own
//! structural equality.

/// A growable, word-packed set of `u32` ids.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct BitSet {
    words: Vec<u64>,
}

impl BitSet {
    /// An empty set.
    pub fn new() -> Self {
        BitSet::default()
    }

    /// An empty set pre-sized for ids below `bits`.
    pub fn with_capacity(bits: usize) -> Self {
        BitSet {
            words: Vec::with_capacity(bits.div_ceil(64)),
        }
    }

    /// Inserts an id; returns whether it was newly added. Grows the word
    /// vector as needed.
    pub fn insert(&mut self, id: u32) -> bool {
        let (w, b) = (id as usize / 64, id as usize % 64);
        if w >= self.words.len() {
            self.words.resize(w + 1, 0);
        }
        let mask = 1u64 << b;
        let fresh = self.words[w] & mask == 0;
        self.words[w] |= mask;
        fresh
    }

    /// Removes an id; returns whether it was present.
    pub fn remove(&mut self, id: u32) -> bool {
        let (w, b) = (id as usize / 64, id as usize % 64);
        if w >= self.words.len() {
            return false;
        }
        let mask = 1u64 << b;
        let present = self.words[w] & mask != 0;
        self.words[w] &= !mask;
        self.trim();
        present
    }

    /// Drops trailing zero words so equal sets are equal word-for-word.
    fn trim(&mut self) {
        while self.words.last() == Some(&0) {
            self.words.pop();
        }
    }

    /// Whether the id is present.
    pub fn contains(&self, id: u32) -> bool {
        let (w, b) = (id as usize / 64, id as usize % 64);
        self.words.get(w).is_some_and(|word| word & (1 << b) != 0)
    }

    /// Number of set bits (one popcount per word).
    pub fn count(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Whether no bit is set.
    pub fn is_empty(&self) -> bool {
        self.words.iter().all(|&w| w == 0)
    }

    /// `self ∩ other` as a new set.
    pub fn and(&self, other: &BitSet) -> BitSet {
        let n = self.words.len().min(other.words.len());
        let mut out = BitSet {
            words: self.words[..n]
                .iter()
                .zip(&other.words[..n])
                .map(|(a, b)| a & b)
                .collect(),
        };
        out.trim();
        out
    }

    /// `self ∪ other` as a new set.
    pub fn or(&self, other: &BitSet) -> BitSet {
        let (long, short) = if self.words.len() >= other.words.len() {
            (&self.words, &other.words)
        } else {
            (&other.words, &self.words)
        };
        let mut words = long.clone();
        for (w, s) in words.iter_mut().zip(short.iter()) {
            *w |= s;
        }
        BitSet { words }
    }

    /// `self \ other` as a new set.
    pub fn and_not(&self, other: &BitSet) -> BitSet {
        let mut words = self.words.clone();
        for (w, o) in words.iter_mut().zip(other.words.iter()) {
            *w &= !o;
        }
        let mut out = BitSet { words };
        out.trim();
        out
    }

    /// In-place `self ∩= other`.
    pub fn and_assign(&mut self, other: &BitSet) {
        let n = self.words.len().min(other.words.len());
        for (w, o) in self.words[..n].iter_mut().zip(&other.words[..n]) {
            *w &= o;
        }
        self.words.truncate(n);
        self.trim();
    }

    /// In-place `self ∪= other`.
    pub fn or_assign(&mut self, other: &BitSet) {
        if other.words.len() > self.words.len() {
            self.words.resize(other.words.len(), 0);
        }
        for (w, o) in self.words.iter_mut().zip(other.words.iter()) {
            *w |= o;
        }
    }

    /// `|self ∩ other|` without materialising the intersection — the
    /// pairwise-cache inner loop: one `&` and one popcount per word pair.
    pub fn and_count(&self, other: &BitSet) -> usize {
        self.words
            .iter()
            .zip(other.words.iter())
            .map(|(a, b)| (a & b).count_ones() as usize)
            .sum()
    }

    /// Whether the sets share any id (short-circuits on the first hit).
    pub fn intersects(&self, other: &BitSet) -> bool {
        self.words
            .iter()
            .zip(other.words.iter())
            .any(|(a, b)| a & b != 0)
    }

    /// Bytes of word storage this set occupies (the memory side of the
    /// adaptive-container trade-off).
    pub fn heap_bytes(&self) -> usize {
        self.words.len() * std::mem::size_of::<u64>()
    }

    /// The packed words, low ids first. Canonical form guarantees the
    /// last word (if any) is non-zero, so `words().len()` *is* the word
    /// span of the set's maximum id.
    pub fn words(&self) -> &[u64] {
        &self.words
    }

    /// Wraps a word vector directly (trailing zero words trimmed to keep
    /// canonical form) — the constructor the run-length container uses
    /// to materialise word-masked results without per-bit inserts.
    pub fn from_words(mut words: Vec<u64>) -> BitSet {
        while words.last() == Some(&0) {
            words.pop();
        }
        BitSet { words }
    }

    // ------------------------------------------------------------------
    // SIMD-width kernels
    //
    // Explicit 4×u64 block loops the adaptive `TupleSet` bitmap fast
    // paths run on: the fixed-width inner blocks have no cross-iteration
    // dependencies, so the compiler autovectorises them to full SIMD
    // registers. The plain word-loop methods above are the *frozen PR 1
    // control* the bench-regression guard normalises against and must
    // not change — these are additions, not replacements.
    // ------------------------------------------------------------------

    /// [`and`](Self::and) over 4-word blocks.
    pub fn and_wide(&self, other: &BitSet) -> BitSet {
        let n = self.words.len().min(other.words.len());
        let mut words = vec![0u64; n];
        let (a, b) = (&self.words[..n], &other.words[..n]);
        let mut out_blocks = words.chunks_exact_mut(4);
        for ((o, x), y) in (&mut out_blocks)
            .zip(a.chunks_exact(4))
            .zip(b.chunks_exact(4))
        {
            o[0] = x[0] & y[0];
            o[1] = x[1] & y[1];
            o[2] = x[2] & y[2];
            o[3] = x[3] & y[3];
        }
        let tail = n - n % 4;
        for (o, (x, y)) in words[tail..]
            .iter_mut()
            .zip(a[tail..].iter().zip(&b[tail..]))
        {
            *o = x & y;
        }
        BitSet::from_words(words)
    }

    /// [`or`](Self::or) over 4-word blocks.
    pub fn or_wide(&self, other: &BitSet) -> BitSet {
        let (long, short) = if self.words.len() >= other.words.len() {
            (&self.words, &other.words)
        } else {
            (&other.words, &self.words)
        };
        let mut words = long.clone();
        let n = short.len();
        let mut out_blocks = words[..n].chunks_exact_mut(4);
        for (o, s) in (&mut out_blocks).zip(short.chunks_exact(4)) {
            o[0] |= s[0];
            o[1] |= s[1];
            o[2] |= s[2];
            o[3] |= s[3];
        }
        let tail = n - n % 4;
        for (o, s) in words[tail..n].iter_mut().zip(&short[tail..n]) {
            *o |= s;
        }
        // A union of canonical sets never gains trailing zero words.
        BitSet { words }
    }

    /// [`and_assign`](Self::and_assign) over 4-word blocks.
    pub fn and_assign_wide(&mut self, other: &BitSet) {
        let n = self.words.len().min(other.words.len());
        self.words.truncate(n);
        let mut blocks = self.words.chunks_exact_mut(4);
        for (o, s) in (&mut blocks).zip(other.words[..n].chunks_exact(4)) {
            o[0] &= s[0];
            o[1] &= s[1];
            o[2] &= s[2];
            o[3] &= s[3];
        }
        let tail = n - n % 4;
        for (o, s) in self.words[tail..].iter_mut().zip(&other.words[tail..n]) {
            *o &= s;
        }
        self.trim();
    }

    /// [`and_count`](Self::and_count) over 4-word blocks with four
    /// independent popcount accumulators.
    pub fn and_count_wide(&self, other: &BitSet) -> usize {
        let n = self.words.len().min(other.words.len());
        let (a, b) = (&self.words[..n], &other.words[..n]);
        let mut acc = [0usize; 4];
        for (x, y) in a.chunks_exact(4).zip(b.chunks_exact(4)) {
            acc[0] += (x[0] & y[0]).count_ones() as usize;
            acc[1] += (x[1] & y[1]).count_ones() as usize;
            acc[2] += (x[2] & y[2]).count_ones() as usize;
            acc[3] += (x[3] & y[3]).count_ones() as usize;
        }
        let tail = n - n % 4;
        let mut total = acc[0] + acc[1] + acc[2] + acc[3];
        for (x, y) in a[tail..].iter().zip(&b[tail..]) {
            total += (x & y).count_ones() as usize;
        }
        total
    }

    /// Iterates set ids in ascending order via per-word trailing-zero
    /// scans.
    pub fn iter(&self) -> Iter<'_> {
        Iter {
            words: &self.words,
            word_idx: 0,
            current: self.words.first().copied().unwrap_or(0),
        }
    }
}

impl FromIterator<u32> for BitSet {
    fn from_iter<I: IntoIterator<Item = u32>>(iter: I) -> Self {
        let mut set = BitSet::new();
        for id in iter {
            set.insert(id);
        }
        set
    }
}

impl<'a> IntoIterator for &'a BitSet {
    type Item = u32;
    type IntoIter = Iter<'a>;
    fn into_iter(self) -> Iter<'a> {
        self.iter()
    }
}

/// Ascending set-bit iterator over a [`BitSet`].
pub struct Iter<'a> {
    words: &'a [u64],
    word_idx: usize,
    current: u64,
}

impl Iterator for Iter<'_> {
    type Item = u32;

    fn next(&mut self) -> Option<u32> {
        while self.current == 0 {
            self.word_idx += 1;
            if self.word_idx >= self.words.len() {
                return None;
            }
            self.current = self.words[self.word_idx];
        }
        let bit = self.current.trailing_zeros();
        self.current &= self.current - 1; // clear lowest set bit
        Some((self.word_idx * 64) as u32 + bit)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    fn set(ids: &[u32]) -> BitSet {
        ids.iter().copied().collect()
    }

    #[test]
    fn insert_contains_remove() {
        let mut s = BitSet::new();
        assert!(s.insert(3));
        assert!(s.insert(64));
        assert!(s.insert(1000));
        assert!(!s.insert(3), "reinsert reports existing");
        assert!(s.contains(3) && s.contains(64) && s.contains(1000));
        assert!(!s.contains(4) && !s.contains(63) && !s.contains(100_000));
        assert_eq!(s.count(), 3);
        assert!(s.remove(64));
        assert!(!s.remove(64));
        assert_eq!(s.count(), 2);
        assert!(!s.is_empty());
        assert!(BitSet::new().is_empty());
    }

    #[test]
    fn algebra_matches_hashset_semantics() {
        let a = set(&[0, 5, 63, 64, 100, 200]);
        let b = set(&[5, 64, 150, 200, 300]);
        let ha: HashSet<u32> = a.iter().collect();
        let hb: HashSet<u32> = b.iter().collect();

        let and: HashSet<u32> = a.and(&b).iter().collect();
        assert_eq!(and, ha.intersection(&hb).copied().collect());
        let or: HashSet<u32> = a.or(&b).iter().collect();
        assert_eq!(or, ha.union(&hb).copied().collect());
        let diff: HashSet<u32> = a.and_not(&b).iter().collect();
        assert_eq!(diff, ha.difference(&hb).copied().collect());
        assert_eq!(a.and_count(&b), a.and(&b).count());
        assert!(a.intersects(&b));
        assert!(!set(&[1]).intersects(&set(&[2])));
    }

    #[test]
    fn mixed_lengths_pad_with_zero() {
        let short = set(&[1, 2]);
        let long = set(&[2, 500]);
        assert_eq!(short.and(&long).iter().collect::<Vec<_>>(), vec![2]);
        assert_eq!(long.and(&short).iter().collect::<Vec<_>>(), vec![2]);
        assert_eq!(short.or(&long).count(), 3);
        assert_eq!(long.and_not(&short).iter().collect::<Vec<_>>(), vec![500]);
        assert_eq!(short.and_not(&long).iter().collect::<Vec<_>>(), vec![1]);
        assert_eq!(short.and_count(&long), 1);

        let mut acc = set(&[2, 500]);
        acc.and_assign(&short);
        assert_eq!(acc.iter().collect::<Vec<_>>(), vec![2]);
        let mut acc = short.clone();
        acc.or_assign(&long);
        assert_eq!(acc.count(), 3);
        assert!(acc.contains(500));
    }

    #[test]
    fn iteration_is_ascending_and_complete() {
        let ids = [0u32, 1, 63, 64, 65, 127, 128, 1000, 4095];
        let s = set(&ids);
        assert_eq!(s.iter().collect::<Vec<_>>(), ids.to_vec());
        assert_eq!(set(&[]).iter().count(), 0);
    }

    #[test]
    fn and_assign_clears_tail_words() {
        let mut a = set(&[1, 700]);
        a.and_assign(&set(&[1]));
        assert_eq!(a.iter().collect::<Vec<_>>(), vec![1]);
        assert!(!a.contains(700));
    }

    #[test]
    fn wide_kernels_match_the_plain_word_loops() {
        // Operand lengths straddle the 4-word block boundary (0–9 words)
        // so both the block loop and the scalar tail are exercised, in
        // both argument orders.
        let shapes: Vec<BitSet> = vec![
            set(&[]),
            set(&[0]),
            set(&[63, 64, 65]),
            (0..256).collect(),
            (0..256).filter(|i| i % 3 == 0).collect(),
            (100..580).collect(),
            set(&[5, 64, 150, 200, 300, 511, 512]),
        ];
        for a in &shapes {
            for b in &shapes {
                assert_eq!(a.and_wide(b), a.and(b));
                assert_eq!(a.or_wide(b), a.or(b));
                assert_eq!(a.and_count_wide(b), a.and_count(b));
                let mut assign = a.clone();
                assign.and_assign_wide(b);
                assert_eq!(assign, a.and(b), "and_assign_wide canonical");
            }
        }
    }

    #[test]
    fn from_words_trims_to_canonical_form() {
        assert_eq!(BitSet::from_words(vec![0, 0]), BitSet::new());
        let s = BitSet::from_words(vec![0b1010, 0, 0]);
        assert_eq!(s, set(&[1, 3]));
        assert_eq!(s.words(), &[0b1010]);
    }

    #[test]
    fn shrinking_ops_leave_canonical_form() {
        // Two equal sets built by different op sequences must compare
        // equal word-for-word (derived PartialEq over the word vector).
        let direct = set(&[1, 5]);

        let mut via_remove = set(&[1, 5, 7000]);
        assert!(via_remove.remove(7000));
        assert_eq!(via_remove, direct);

        let mut via_and_assign = set(&[1, 5, 9000]);
        via_and_assign.and_assign(&set(&[1, 5, 63]));
        assert_eq!(via_and_assign, direct);

        let via_and = set(&[1, 5, 10_000]).and(&set(&[1, 5, 200]));
        assert_eq!(via_and, direct);

        let via_and_not = set(&[1, 5, 4096]).and_not(&set(&[4096]));
        assert_eq!(via_and_not, direct);

        // the empty set collapses to zero words from any direction
        let mut drained = set(&[6400]);
        drained.remove(6400);
        assert_eq!(drained, BitSet::new());
        assert_eq!(drained.heap_bytes(), 0);
        assert_eq!(set(&[6400]).and(&set(&[1])), BitSet::new());
    }
}
