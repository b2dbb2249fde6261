//! Adaptive compressed tuple sets: the roaring-style **two-container**
//! representation behind every tuple set the executor produces.
//!
//! A [`TupleSet`] adapts its container to its contents:
//!
//! * **Array container** — a sorted, duplicate-free `Vec<u32>` for the
//!   highly selective long tail. Storage is 4 bytes per id, intersection
//!   is a two-pointer merge (galloping binary search under heavy size
//!   skew), and array∩bitmap runs one `contains` probe per array element.
//! * **Bitmap container** — the packed-word [`BitSet`] for dense sets.
//!   Its algebra runs on the SIMD-width kernels ([`BitSet::and_wide`] &
//!   co.): explicit 4×`u64` blocks the compiler autovectorises, while the
//!   plain word loops remain frozen as the PR 1 bench control.
//!
//! There is no run-length container: a tuple id is a driver row, so
//! warmed sets follow corpus order, and on the benchmark corpus none of
//! them is a few long runs.
//!
//! ## The container rule
//!
//! The choice is a **pure function of the contents** — cardinality `n`
//! and word span `w` (`max_id/64 + 1`) — so the representation is
//! canonical and `PartialEq`/`Eq` derive structurally: **Array** iff
//! `n ≤ ARRAY_MAX` and `n × SPAN_FACTOR ≤ w` (the array only where it is
//! at most 1/8 of the bitmap's bytes), else **Bitmap**.
//!
//! Every constructor and mutation re-establishes this rule, converting
//! in either direction. Together with [`BitSet`]'s trailing-zero-word
//! trimming, two equal sets are equal container-for-container no matter
//! which op sequence built them.
//!
//! ## The ops
//!
//! Sets are built from ids ([`TupleSet::from_unsorted`], `collect`) or a
//! bitmap, grow by [`insert`](TupleSet::insert) /
//! [`insert_all`](TupleSet::insert_all), and combine by
//! [`and`](TupleSet::and) / [`and_assign`](TupleSet::and_assign),
//! [`or`](TupleSet::or) / [`or_assign`](TupleSet::or_assign),
//! [`and_count`](TupleSet::and_count) and
//! [`intersects`](TupleSet::intersects). There is no difference and no
//! removal: the engine only ever narrows a set by intersecting it.
//!
//! Two arrays meet in one merge walk, `for_each_common`: a visitor that
//! calls back on each common id in ascending order and stops when the
//! callback returns `false`, galloping over the larger side past
//! `GALLOP_SKEW`× skew. `and` collects the visits, `and_count` counts
//! them and `intersects` stops at the first.
//!
//! The whole combination algebra of the executor ([`crate::exec`]), the
//! PEPS expansion ([`crate::algo::peps`]) and the dense scorer
//! ([`crate::enhance`]) runs on this type; `BitSet` remains public as the
//! dense container and as the pure-bitmap reference algebra for
//! differential tests and benches.

use crate::bitset::BitSet;

/// Maximum cardinality the sorted-array container may hold, regardless of
/// span — bounds the per-op merge cost like roaring's 4096-per-chunk
/// threshold bounds its array containers.
pub const ARRAY_MAX: usize = 512;

/// Span-rule factor: an array is used only when `cardinality ×
/// SPAN_FACTOR` does not exceed the word span of the equivalent bitmap,
/// i.e. only where the array is decisively the smaller container.
pub const SPAN_FACTOR: usize = 4;

/// Size skew at which array∩array intersection switches from the
/// two-pointer merge to galloping binary search over the larger side.
const GALLOP_SKEW: usize = 16;

/// The two containers. The variant is the one [`fits_array`] picks for
/// the contents — every constructor and mutation re-establishes this
/// invariant, so the derived equality is structural equality of contents.
#[derive(Debug, Clone, PartialEq, Eq)]
enum Repr {
    Array(Vec<u32>),
    Bitmap(BitSet),
}

impl Default for Repr {
    fn default() -> Self {
        Repr::Array(Vec::new())
    }
}

/// Whether contents with cardinality `n` and word span `w` belong in the
/// array container — the module-doc rule, in code. (The empty set, at
/// `n = w = 0`, is an array.)
fn fits_array(n: usize, w: usize) -> bool {
    n <= ARRAY_MAX && n * SPAN_FACTOR <= w
}

/// A borrowed view of one container's raw payload, produced by
/// [`TupleSet::dump`] for the snapshot serialiser.
pub(crate) enum ContainerDump<'a> {
    /// Sorted, duplicate-free ids.
    Array(&'a [u32]),
    /// Packed bitmap words.
    Bitmap(&'a BitSet),
}

/// Word span of a set whose maximum id is `max`.
fn word_span(max: u32) -> usize {
    max as usize / 64 + 1
}

/// Word span of a sorted id list (0 when empty).
fn array_span(ids: &[u32]) -> usize {
    ids.last().map_or(0, |&m| word_span(m))
}

/// An adaptive compressed set of `u32` tuple ids (sorted array or packed
/// bitmap — whichever the container rule picks).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct TupleSet {
    repr: Repr,
}

impl TupleSet {
    /// An empty set (array container).
    pub fn new() -> Self {
        TupleSet::default()
    }

    /// Builds a set from ids in any order, with duplicates allowed.
    pub fn from_unsorted(mut ids: Vec<u32>) -> Self {
        ids.sort_unstable();
        ids.dedup();
        TupleSet::from_sorted(ids)
    }

    /// Wraps a sorted, duplicate-free id vector in the canonical
    /// container — the executor's materialisation path, whose scans
    /// return driver rows ascending.
    pub(crate) fn from_sorted(ids: Vec<u32>) -> Self {
        debug_assert!(ids.windows(2).all(|w| w[0] < w[1]), "sorted + deduped");
        let repr = if fits_array(ids.len(), array_span(&ids)) {
            Repr::Array(ids)
        } else {
            Repr::Bitmap(ids.into_iter().collect())
        };
        TupleSet { repr }
    }

    /// Wraps an existing bitmap, demoting it if a smaller container fits.
    pub fn from_bitset(bits: BitSet) -> Self {
        let mut set = TupleSet {
            repr: Repr::Bitmap(bits),
        };
        set.canonicalize();
        set
    }

    /// A copy of the contents as a plain dense [`BitSet`] — the bridge the
    /// pure-bitmap reference algebra and benches use.
    pub fn to_bitset(&self) -> BitSet {
        match &self.repr {
            Repr::Array(v) => v.iter().copied().collect(),
            Repr::Bitmap(b) => b.clone(),
        }
    }

    /// A borrowed view of the current container's raw payload — the
    /// snapshot serialiser writes exactly this, so a saved set costs no
    /// re-encoding and restores to a byte-identical container.
    pub(crate) fn dump(&self) -> ContainerDump<'_> {
        match &self.repr {
            Repr::Array(v) => ContainerDump::Array(v),
            Repr::Bitmap(b) => ContainerDump::Bitmap(b),
        }
    }

    /// Rebuilds a set from a snapshot array dump. Validates the sorted,
    /// duplicate-free invariant up front (corrupt input must produce
    /// `None`, not a debug-assert panic) and re-derives the canonical
    /// container, which by construction matches what was dumped.
    pub(crate) fn restore_array(ids: Vec<u32>) -> Option<TupleSet> {
        ids.windows(2)
            .all(|w| w[0] < w[1])
            .then(|| TupleSet::from_sorted(ids))
    }

    /// Rebuilds a set from a snapshot bitmap dump (any word vector is a
    /// valid bitmap; canonicalisation demotes if a smaller container fits,
    /// which for a dump of a canonical bitmap is a no-op).
    pub(crate) fn restore_bitmap(words: Vec<u64>) -> TupleSet {
        TupleSet::from_bitset(BitSet::from_words(words))
    }

    /// Whether the set currently uses the sorted-array container.
    pub fn is_array(&self) -> bool {
        matches!(self.repr, Repr::Array(_))
    }

    /// Whether the set currently uses the bitmap container.
    pub fn is_bitmap(&self) -> bool {
        matches!(self.repr, Repr::Bitmap(_))
    }

    /// The current container's name (`"array"` or `"bitmap"`) — for
    /// bench reports and diagnostics.
    pub fn container(&self) -> &'static str {
        match &self.repr {
            Repr::Array(_) => "array",
            Repr::Bitmap(_) => "bitmap",
        }
    }

    /// Number of ids in the set.
    pub fn count(&self) -> usize {
        match &self.repr {
            Repr::Array(v) => v.len(),
            Repr::Bitmap(b) => b.count(),
        }
    }

    /// Whether the set is empty.
    pub fn is_empty(&self) -> bool {
        match &self.repr {
            Repr::Array(v) => v.is_empty(),
            Repr::Bitmap(b) => b.is_empty(),
        }
    }

    /// Bytes of container storage (4 per id in an array; 8 per word in a
    /// bitmap) — the quantity the adaptive representation minimises.
    pub fn heap_bytes(&self) -> usize {
        match &self.repr {
            Repr::Array(v) => v.len() * std::mem::size_of::<u32>(),
            Repr::Bitmap(b) => b.heap_bytes(),
        }
    }

    /// Whether the id is present (binary search / bit probe).
    pub fn contains(&self, id: u32) -> bool {
        match &self.repr {
            Repr::Array(v) => v.binary_search(&id).is_ok(),
            Repr::Bitmap(b) => b.contains(id),
        }
    }

    /// Inserts an id; returns whether it was newly added. Converts
    /// container when the grown contents pick the other one.
    pub fn insert(&mut self, id: u32) -> bool {
        self.insert_all([id]) == 1
    }

    /// Appends a batch of ids, returning how many were newly added — the
    /// delta-ingest append path. Canonicalisation runs once at the end
    /// rather than per insert, so a large delta pays one container
    /// decision instead of thousands.
    pub fn insert_all<I: IntoIterator<Item = u32>>(&mut self, ids: I) -> usize {
        let mut fresh = 0usize;
        for id in ids {
            let added = match &mut self.repr {
                Repr::Array(v) => match v.binary_search(&id) {
                    Ok(_) => false,
                    Err(pos) => {
                        v.insert(pos, id);
                        true
                    }
                },
                Repr::Bitmap(b) => b.insert(id),
            };
            fresh += usize::from(added);
        }
        if fresh > 0 {
            self.canonicalize();
        }
        fresh
    }

    /// `self ∩ other` as a new set, picking the container-pair fast path:
    /// merge/gallop for array pairs, SIMD-width word-AND for bitmap
    /// pairs, `contains` probes for the mixed pair.
    pub fn and(&self, other: &TupleSet) -> TupleSet {
        match (&self.repr, &other.repr) {
            (Repr::Array(a), Repr::Array(b)) => {
                let mut out = Vec::with_capacity(a.len().min(b.len()));
                for_each_common(a, b, |id| {
                    out.push(id);
                    true
                });
                TupleSet::from_sorted(out)
            }
            (Repr::Array(a), Repr::Bitmap(b)) | (Repr::Bitmap(b), Repr::Array(a)) => {
                TupleSet::from_sorted(a.iter().copied().filter(|&id| b.contains(id)).collect())
            }
            (Repr::Bitmap(a), Repr::Bitmap(b)) => TupleSet::from_bitset(a.and_wide(b)),
        }
    }

    /// `self ∪ other` as a new set (re-containerised as the union grows).
    pub fn or(&self, other: &TupleSet) -> TupleSet {
        match (&self.repr, &other.repr) {
            (Repr::Array(a), Repr::Array(b)) => TupleSet::from_sorted(union_arrays(a, b)),
            (Repr::Array(a), Repr::Bitmap(b)) | (Repr::Bitmap(b), Repr::Array(a)) => {
                let mut bits = b.clone();
                for &id in a {
                    bits.insert(id);
                }
                TupleSet::from_bitset(bits)
            }
            (Repr::Bitmap(a), Repr::Bitmap(b)) => TupleSet::from_bitset(a.or_wide(b)),
        }
    }

    /// In-place `self ∩= other` (in place where the container allows it,
    /// re-canonicalised afterwards).
    pub fn and_assign(&mut self, other: &TupleSet) {
        match (&mut self.repr, &other.repr) {
            (Repr::Array(a), _) => {
                a.retain(|&id| other.contains(id));
                self.canonicalize();
            }
            (Repr::Bitmap(a), Repr::Bitmap(b)) => {
                a.and_assign_wide(b);
                self.canonicalize();
            }
            (Repr::Bitmap(a), Repr::Array(b)) => {
                let kept: Vec<u32> = b.iter().copied().filter(|&id| a.contains(id)).collect();
                *self = TupleSet::from_sorted(kept);
            }
        }
    }

    /// In-place `self ∪= other`.
    pub fn or_assign(&mut self, other: &TupleSet) {
        match (&mut self.repr, &other.repr) {
            (Repr::Bitmap(a), Repr::Bitmap(b)) => {
                a.or_assign(b);
                self.canonicalize();
            }
            (Repr::Bitmap(a), Repr::Array(b)) => {
                for &id in b {
                    a.insert(id);
                }
                self.canonicalize();
            }
            (Repr::Array(_), _) => *self = self.or(other),
        }
    }

    /// `|self ∩ other|` without materialising the intersection.
    pub fn and_count(&self, other: &TupleSet) -> usize {
        match (&self.repr, &other.repr) {
            (Repr::Array(a), Repr::Array(b)) => {
                let mut n = 0usize;
                for_each_common(a, b, |_| {
                    n += 1;
                    true
                });
                n
            }
            (Repr::Array(a), Repr::Bitmap(b)) | (Repr::Bitmap(b), Repr::Array(a)) => {
                a.iter().filter(|&&id| b.contains(id)).count()
            }
            (Repr::Bitmap(a), Repr::Bitmap(b)) => a.and_count_wide(b),
        }
    }

    /// Whether the sets share any id (short-circuits on the first hit).
    pub fn intersects(&self, other: &TupleSet) -> bool {
        match (&self.repr, &other.repr) {
            (Repr::Array(a), Repr::Array(b)) => {
                let mut hit = false;
                for_each_common(a, b, |_| {
                    hit = true;
                    false
                });
                hit
            }
            (Repr::Array(a), Repr::Bitmap(b)) | (Repr::Bitmap(b), Repr::Array(a)) => {
                a.iter().any(|&id| b.contains(id))
            }
            (Repr::Bitmap(a), Repr::Bitmap(b)) => a.intersects(b),
        }
    }

    /// Visits the set as disjoint, ascending `(start, len)` id ranges —
    /// per-word set-bit segments for the bitmap, single ids for the
    /// array. The dense PEPS scorer walks ranges so a bitmap's
    /// contiguous bits process as slice sweeps instead of per-id
    /// iteration.
    pub fn for_each_range(&self, mut f: impl FnMut(u32, u32)) {
        match &self.repr {
            Repr::Array(v) => v.iter().for_each(|&id| f(id, 1)),
            Repr::Bitmap(b) => {
                for (wi, &word) in b.words().iter().enumerate() {
                    let base = wi as u64 * 64;
                    let mut x = word;
                    while x != 0 {
                        let start = x.trailing_zeros() as u64;
                        let len = (x >> start).trailing_ones() as u64;
                        f((base + start) as u32, len as u32);
                        if start + len >= 64 {
                            break;
                        }
                        x &= !0u64 << (start + len);
                    }
                }
            }
        }
    }

    /// Iterates ids in ascending order regardless of container.
    pub fn iter(&self) -> Iter<'_> {
        Iter {
            inner: match &self.repr {
                Repr::Array(v) => IterInner::Array(v.iter()),
                Repr::Bitmap(b) => IterInner::Bitmap(b.iter()),
            },
        }
    }

    /// Re-establishes the container rule after a mutation, converting to
    /// whichever container the contents now pick. An array's stats are
    /// its length and last id; a bitmap's are a single word scan that
    /// exits early once the array is ruled out.
    fn canonicalize(&mut self) {
        let array = match &self.repr {
            Repr::Array(v) => fits_array(v.len(), array_span(v)),
            Repr::Bitmap(b) => bitmap_fits_array(b),
        };
        self.repr = match (std::mem::take(&mut self.repr), array) {
            (Repr::Array(v), false) => Repr::Bitmap(v.into_iter().collect()),
            (Repr::Bitmap(b), true) => Repr::Array(b.iter().collect()),
            (repr, _) => repr,
        };
    }
}

/// [`fits_array`] for a bitmap's contents: one cardinality scan that
/// exits as soon as the count passes what the array may hold over this
/// span.
fn bitmap_fits_array(b: &BitSet) -> bool {
    let words = b.words();
    let limit = ARRAY_MAX.min(words.len() / SPAN_FACTOR);
    let mut n = 0usize;
    for &word in words {
        n += word.count_ones() as usize;
        if n > limit {
            return false;
        }
    }
    true
}

/// The one array×array merge walk: calls `f` on every id both sorted
/// arrays hold, ascending, until it returns `false`. Two-pointer merge,
/// switching to galloping binary search over the larger side when it is
/// more than [`GALLOP_SKEW`]× the smaller.
fn for_each_common(a: &[u32], b: &[u32], mut f: impl FnMut(u32) -> bool) {
    let (small, large) = if a.len() <= b.len() { (a, b) } else { (b, a) };
    if small.len() * GALLOP_SKEW < large.len() {
        // Galloping: binary-search each small element in the still-unseen
        // suffix of the large side.
        let mut lo = 0usize;
        for &id in small {
            match large[lo..].binary_search(&id) {
                Ok(pos) => {
                    if !f(id) {
                        return;
                    }
                    lo += pos + 1;
                }
                Err(pos) => lo += pos,
            }
            if lo >= large.len() {
                return;
            }
        }
        return;
    }
    let (mut i, mut j) = (0usize, 0usize);
    while i < small.len() && j < large.len() {
        match small[i].cmp(&large[j]) {
            std::cmp::Ordering::Less => i += 1,
            std::cmp::Ordering::Greater => j += 1,
            std::cmp::Ordering::Equal => {
                if !f(small[i]) {
                    return;
                }
                i += 1;
                j += 1;
            }
        }
    }
}

/// Sorted-array union (merge; output stays sorted and duplicate-free).
fn union_arrays(a: &[u32], b: &[u32]) -> Vec<u32> {
    let mut out = Vec::with_capacity(a.len() + b.len());
    let (mut i, mut j) = (0usize, 0usize);
    while i < a.len() && j < b.len() {
        match a[i].cmp(&b[j]) {
            std::cmp::Ordering::Less => {
                out.push(a[i]);
                i += 1;
            }
            std::cmp::Ordering::Greater => {
                out.push(b[j]);
                j += 1;
            }
            std::cmp::Ordering::Equal => {
                out.push(a[i]);
                i += 1;
                j += 1;
            }
        }
    }
    out.extend_from_slice(&a[i..]);
    out.extend_from_slice(&b[j..]);
    out
}

impl FromIterator<u32> for TupleSet {
    fn from_iter<I: IntoIterator<Item = u32>>(iter: I) -> Self {
        TupleSet::from_unsorted(iter.into_iter().collect())
    }
}

impl<'a> IntoIterator for &'a TupleSet {
    type Item = u32;
    type IntoIter = Iter<'a>;
    fn into_iter(self) -> Iter<'a> {
        self.iter()
    }
}

/// Ascending id iterator over any container of a [`TupleSet`].
pub struct Iter<'a> {
    inner: IterInner<'a>,
}

enum IterInner<'a> {
    Array(std::slice::Iter<'a, u32>),
    Bitmap(crate::bitset::Iter<'a>),
}

impl Iterator for Iter<'_> {
    type Item = u32;

    fn next(&mut self) -> Option<u32> {
        match &mut self.inner {
            IterInner::Array(it) => it.next().copied(),
            IterInner::Bitmap(it) => it.next(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    /// Wide enough id spacing that isolated ids always pick the array
    /// (one id per `SPAN_FACTOR` 64-bit words, with headroom).
    const WIDE: u32 = (64 * SPAN_FACTOR * 2) as u32;

    fn set(ids: &[u32]) -> TupleSet {
        ids.iter().copied().collect()
    }

    /// A set holding exactly `n` ids spaced `stride` apart from `start`.
    fn strided(start: u32, n: usize, stride: u32) -> TupleSet {
        (0..n as u32).map(|i| start + i * stride).collect()
    }

    /// `(callback calls of a full walk, callback calls of a walk whose
    /// callback returns false)`.
    fn visits(walk: impl Fn(&mut dyn FnMut() -> bool)) -> (usize, usize) {
        let (mut all, mut stopped) = (0, 0);
        walk(&mut || {
            all += 1;
            true
        });
        walk(&mut || {
            stopped += 1;
            false
        });
        (all, stopped)
    }

    /// The rule every constructor and mutation must re-establish: the
    /// container is the one `fits_array` picks for the contents, and
    /// rebuilding from the id list reproduces the set exactly.
    fn assert_canonical(s: &TupleSet) {
        let ids: Vec<u32> = s.iter().collect();
        assert_eq!(
            s.is_array(),
            fits_array(ids.len(), array_span(&ids)),
            "container rule violated for {} ids (max {:?})",
            ids.len(),
            ids.last()
        );
        assert_eq!(s, &set(&ids), "not structurally canonical");
    }

    #[test]
    fn word_boundary_ids_round_trip() {
        for ids in [
            &[0u32][..],
            &[63],
            &[64],
            &[65],
            &[0, 63, 64, 65],
            &[0, 63, 64, 65, 127, 128, 4095, 4096],
        ] {
            let mut s = TupleSet::new();
            for &id in ids {
                assert!(s.insert(id), "fresh insert of {id}");
                assert!(!s.insert(id), "re-insert of {id}");
            }
            assert_eq!(s.count(), ids.len());
            assert_eq!(s.iter().collect::<Vec<_>>(), ids.to_vec());
            for &id in ids {
                assert!(s.contains(id));
            }
            assert!(!s.contains(1_000_000));
            assert_canonical(&s);
            // same ids through a bitmap container behave identically
            let mut dense: TupleSet = (0..256).collect();
            assert!(dense.is_bitmap(), "256 ids in 4 words pack to a bitmap");
            for &id in ids {
                dense.insert(id);
                assert!(dense.contains(id));
            }
            assert_canonical(&dense);
        }
    }

    #[test]
    fn insert_all_matches_repeated_inserts() {
        // Batch append across both containers: fresh ids count,
        // duplicates don't, and the deferred canonicalize lands on the
        // same container (and contents) as insert-at-a-time.
        for start in [set(&[]), strided(0, 8, WIDE), (0..256).collect(), {
            let dense: TupleSet = (0..9000).step_by(2).collect();
            assert!(dense.is_bitmap());
            dense
        }] {
            let delta: Vec<u32> = vec![1, 3, 3, 500, 501, 502, 9001, 1];
            let mut batched = start.clone();
            let mut one_by_one = start.clone();
            let fresh = batched.insert_all(delta.iter().copied());
            let mut expect = 0usize;
            for &id in &delta {
                expect += usize::from(one_by_one.insert(id));
            }
            assert_eq!(fresh, expect, "fresh count diverged");
            assert_eq!(batched, one_by_one, "contents diverged");
            assert_canonical(&batched);
            // A no-op batch reports zero and changes nothing.
            assert_eq!(batched.insert_all(delta.iter().copied()), 0);
            assert_eq!(batched, one_by_one);
        }
    }

    #[test]
    fn empty_and_universe_sets() {
        let empty = TupleSet::new();
        assert!(empty.is_empty() && empty.is_array());
        assert_eq!(empty.count(), 0);
        assert_eq!(empty.iter().count(), 0);
        assert_eq!(empty.heap_bytes(), 0);

        // The whole universe is a full bitmap.
        let universe: TupleSet = (0..10_000).collect();
        assert!(universe.is_bitmap());
        assert_eq!(universe.heap_bytes(), (9_999 / 64 + 1) * 8);
        assert_eq!(universe.count(), 10_000);
        assert_eq!(universe.and(&universe), universe);
        assert_eq!(universe.or(&universe), universe);
        assert_eq!(empty.and(&universe), empty);
        assert_eq!(empty.or(&universe), universe);
        assert_eq!(universe.and_count(&empty), 0);
        assert!(!universe.intersects(&empty));
        for s in [&empty, &universe] {
            assert_canonical(s);
        }
    }

    #[test]
    fn promotion_exactly_at_the_array_cardinality_threshold() {
        // WIDE spacing keeps the span rule satisfied, making the
        // promotion trigger exactly the ARRAY_MAX cardinality cap.
        let mut s = strided(0, ARRAY_MAX, WIDE);
        assert!(s.is_array(), "ARRAY_MAX ids still fit the array");
        assert_eq!(s.count(), ARRAY_MAX);
        assert!(s.insert(ARRAY_MAX as u32 * WIDE));
        assert!(s.is_bitmap(), "one over the threshold promotes");
        assert_eq!(s.count(), ARRAY_MAX + 1);
        assert_eq!(
            s.iter().collect::<Vec<_>>(),
            (0..=ARRAY_MAX as u32).map(|i| i * WIDE).collect::<Vec<_>>()
        );
        assert_canonical(&s);
    }

    #[test]
    fn demotion_exactly_at_the_array_cardinality_threshold() {
        let mut s = strided(0, ARRAY_MAX + 1, WIDE);
        assert!(s.is_bitmap());
        // Dropping id 0 through an in-place bitmap∩bitmap.
        let mask = strided(WIDE, ARRAY_MAX + 1, WIDE);
        assert!(mask.is_bitmap());
        s.and_assign(&mask);
        assert!(s.is_array(), "falling to ARRAY_MAX demotes");
        assert_eq!(s.count(), ARRAY_MAX);
        // structural equality with a direct array build
        assert_eq!(s, strided(WIDE, ARRAY_MAX, WIDE));
        assert_canonical(&s);
    }

    #[test]
    fn span_rule_boundary_in_both_directions() {
        // n·SPAN_FACTOR = w exactly: 2 ids whose span is 8 words stay an
        // array; one id more (or one word less) promotes to a bitmap.
        let at: TupleSet = set(&[0, 7 * 64]);
        assert!(at.is_array(), "2·4 = 8 ≤ 8 words");
        let over_n = set(&[0, 1, 7 * 64]);
        assert!(over_n.is_bitmap(), "3·4 = 12 > 8 words");
        let over_w = set(&[0, 6 * 64 + 63]);
        assert!(over_w.is_bitmap(), "2·4 = 8 > 7 words");
        // ops agree in both argument orders across the boundary
        // (at ⊂ over_n by construction)
        for (a, b) in [(&at, &over_n), (&over_n, &at)] {
            assert_eq!(a.and(b), at);
            assert_eq!(a.and_count(b), at.count());
            assert_eq!(a.or(b), over_n);
            assert!(a.intersects(b));
        }
        for s in [&at, &over_n, &over_w] {
            assert_canonical(s);
        }
    }

    #[test]
    fn both_container_conversions_round_trip() {
        // array → bitmap: the promotion (cap exceeded, wide span).
        let mut s = strided(0, ARRAY_MAX, WIDE);
        s.insert(ARRAY_MAX as u32 * WIDE);
        assert!(s.is_bitmap());
        assert_canonical(&s);

        // bitmap → array: the demotion.
        let mut s = strided(0, ARRAY_MAX + 1, WIDE);
        assert!(s.is_bitmap());
        s.and_assign(&strided(WIDE, ARRAY_MAX + 1, WIDE));
        assert!(s.is_array());
        assert_canonical(&s);

        // array → bitmap: filling a sparse set in until it is dense.
        let mut s = set(&[0, 1000]);
        assert!(s.is_array());
        for id in 1..100 {
            s.insert(id);
        }
        assert!(s.is_bitmap(), "101 ids over 16 words");
        assert_canonical(&s);

        // either container survives a round trip through a plain BitSet
        for s in [strided(3, 40, WIDE), (60..70).chain(200..466).collect()] {
            assert_eq!(TupleSet::from_bitset(s.to_bitset()), s);
        }
    }

    #[test]
    fn span_rule_picks_the_smaller_container() {
        // 300 contiguous ids in five words: the 40-byte bitmap beats the
        // 1200-byte array.
        let compact: TupleSet = (0..300).collect();
        assert!(compact.is_bitmap());
        assert_eq!(compact.heap_bytes(), 40);
        // 100 ids scattered WIDE apart fit the array rule
        let scattered = strided(0, 100, WIDE);
        assert!(scattered.is_array());
        assert_eq!(scattered.heap_bytes(), 400);
        // stride-2 ids in a compact span: the bitmap wins
        let striped = strided(0, 100, 2);
        assert!(striped.is_bitmap());
        for s in [&compact, &scattered, &striped] {
            assert_canonical(s);
        }
    }

    #[test]
    fn removing_an_outlier_recontainerises() {
        // [0..6) plus one far outlier: an array over a wide span;
        // intersecting the outlier away leaves one word → bitmap.
        let mut s: TupleSet = (0..6u32).chain(std::iter::once(1_000_000)).collect();
        assert!(s.is_array());
        let low: TupleSet = (0..1_000).collect();
        assert!(low.is_bitmap());
        s.and_assign(&low);
        assert!(s.is_bitmap(), "span collapsed; one word is now smaller");
        assert_eq!(s, (0..6u32).collect::<TupleSet>());
        assert_canonical(&s);
    }

    #[test]
    fn and_collapses_bitmap_under_the_threshold() {
        // A dense range against a striped bitmap sharing only its last
        // five ids: the bitmap result demotes to an array.
        let big: TupleSet = (0..40_000).collect();
        let mask: TupleSet = (40_000 - 5..40_000)
            .chain((50_000..60_000).step_by(2))
            .collect();
        assert!(big.is_bitmap() && mask.is_bitmap());
        let sparse = big.and(&mask);
        assert!(sparse.is_array(), "five ids over 625 words are an array");
        assert_eq!(sparse.heap_bytes(), 20);
        assert_eq!(
            sparse.iter().collect::<Vec<_>>(),
            (40_000 - 5..40_000).collect::<Vec<_>>()
        );
        assert_eq!(
            sparse,
            (40_000 - 5..40_000).collect(),
            "canonical across builds"
        );
        assert_canonical(&sparse);
        // a striped bitmap losing two ids stays canonical too
        let striped: TupleSet = (0..40_000).step_by(2).collect();
        assert!(striped.is_bitmap());
        let all_but_two: TupleSet = (1..40_000).filter(|&id| id != WIDE).collect();
        let nearly = striped.and(&all_but_two);
        assert!(nearly.is_bitmap());
        assert_eq!(nearly.count(), 20_000 - 2);
        assert_canonical(&nearly);
    }

    #[test]
    fn mixed_container_ops_in_all_argument_orders() {
        let sparse = strided(3, 4, 40_000); // array: ids 3, 40003, 80003, 120003
        let dense: TupleSet = (0..1_500).collect(); // bitmap: one range
        let striped: TupleSet = (0..3_000).step_by(2).collect(); // bitmap
        assert!(sparse.is_array() && dense.is_bitmap() && striped.is_bitmap());

        for (x, y) in [(&sparse, &dense), (&dense, &sparse)] {
            let and = x.and(y);
            assert_eq!(and.iter().collect::<Vec<_>>(), vec![3]);
            assert!(and.is_bitmap(), "id 3 alone spans one word; bitmap wins");
            assert_eq!(x.and_count(y), 1);
            assert!(x.intersects(y));

            let or = x.or(y);
            assert_eq!(or.count(), 1_500 + 3);
            assert!(or.contains(120_003) && or.contains(0));

            let mut acc = x.clone();
            acc.and_assign(y);
            assert_eq!(acc, and, "and_assign matches and");
            let mut acc = x.clone();
            acc.or_assign(y);
            assert_eq!(acc, or, "or_assign matches or");
            assert_canonical(&and);
            assert_canonical(&or);
        }

        for (x, y) in [(&striped, &dense), (&dense, &striped)] {
            let and = x.and(y);
            assert_eq!(and.count(), 750);
            assert_eq!(x.and_count(y), 750);
            assert!(x.intersects(y));
            let or = x.or(y);
            assert_eq!(or.count(), 1_500 + 750);
            let mut acc = x.clone();
            acc.and_assign(y);
            assert_eq!(acc, and);
            let mut acc = x.clone();
            acc.or_assign(y);
            assert_eq!(acc, or);
            assert_canonical(&and);
            assert_canonical(&or);
        }

        let disjoint = set(&[9_999_999]);
        assert!(!disjoint.intersects(&dense));
        assert!(!dense.intersects(&disjoint));
        assert!(!striped.intersects(&disjoint));
        assert_eq!(dense.and_count(&disjoint), 0);
    }

    #[test]
    fn algebra_matches_hashset_semantics_across_container_pairs() {
        // array and bitmap operands in every pairing reduce to plain set
        // semantics, and every result re-establishes the container rule.
        let shapes = [
            strided(0, 40, WIDE),                     // scattered array
            (3..1_403).collect::<TupleSet>(),         // one range
            (0..600).chain(10_000..10_600).collect(), // two ranges
            strided(1, ARRAY_MAX, WIDE),              // array at the cap
            strided(0, 2 * ARRAY_MAX + 1, 2),         // striped bitmap
            (0..64).collect::<TupleSet>(),            // one-word bitmap
        ];
        assert!(shapes[0].is_array() && shapes[3].is_array());
        assert!(shapes[1].is_bitmap() && shapes[2].is_bitmap());
        assert!(shapes[4].is_bitmap() && shapes[5].is_bitmap());
        for a in &shapes {
            for b in &shapes {
                let ha: HashSet<u32> = a.iter().collect();
                let hb: HashSet<u32> = b.iter().collect();
                let want_and: Vec<u32> = {
                    let mut v: Vec<u32> = ha.intersection(&hb).copied().collect();
                    v.sort_unstable();
                    v
                };
                assert_eq!(a.and(b).iter().collect::<Vec<_>>(), want_and);
                assert_eq!(a.and_count(b), want_and.len());
                assert_eq!(a.intersects(b), !want_and.is_empty());
                let mut want_or: Vec<u32> = ha.union(&hb).copied().collect();
                want_or.sort_unstable();
                assert_eq!(a.or(b).iter().collect::<Vec<_>>(), want_or);
                let mut and_acc = a.clone();
                and_acc.and_assign(b);
                assert_eq!(and_acc, a.and(b), "and_assign ≡ and");
                let mut or_acc = a.clone();
                or_acc.or_assign(b);
                assert_eq!(or_acc, a.or(b), "or_assign ≡ or");
                for r in [a.and(b), a.or(b)] {
                    assert_canonical(&r);
                }
            }
        }
    }

    #[test]
    fn and_assign_equals_and_for_every_container_pair() {
        // Two operands of each container, overlapping in part, so every
        // one of the four receiver × operand pairs is met in both
        // argument orders; the arrays differ enough in size to take the
        // gallop path against each other.
        let shapes = [
            strided(0, 20, WIDE * 8),                           // array
            strided(WIDE, ARRAY_MAX, WIDE),                     // array, > GALLOP_SKEW× larger
            strided(0, 2 * ARRAY_MAX + 1, 2),                   // striped bitmap
            (0..64).chain((3_000..4_000).step_by(3)).collect(), // bitmap
        ];
        assert!(shapes[0].is_array() && shapes[1].is_array());
        assert!(shapes[2].is_bitmap() && shapes[3].is_bitmap());
        assert_eq!(shapes[0].and_count(&shapes[1]), 19, "the arrays overlap");
        let mut pairs = HashSet::new();
        for a in &shapes {
            for b in &shapes {
                let mut acc = a.clone();
                acc.and_assign(b);
                assert_eq!(acc, a.and(b), "{} ∩= {}", a.container(), b.container());
                assert_canonical(&acc);
                pairs.insert((a.container(), b.container()));
            }
        }
        assert_eq!(pairs.len(), 4);
    }

    #[test]
    fn the_merge_walk_stops_at_the_first_false() {
        // The merge path (3 vs 10) and the gallop path (3 vs 100), in
        // both argument orders.
        let few: Vec<u32> = vec![0, 5, 9];
        let (near, far): (Vec<u32>, Vec<u32>) = ((0..10).collect(), (0..100).collect());
        assert!(few.len() * GALLOP_SKEW >= near.len() && few.len() * GALLOP_SKEW < far.len());
        for other in [&near, &far] {
            for (x, y) in [(&few, other), (other, &few)] {
                assert_eq!(visits(|f| for_each_common(x, y, |_| f())), (3, 1));
            }
        }
    }

    #[test]
    fn galloping_intersection_agrees_with_merge() {
        // A tiny array against one large enough to trigger the galloping
        // path (skew > GALLOP_SKEW), with hits at both ends and misses.
        let small = set(&[0, 2 * WIDE, 37 * WIDE, 9_999_999]);
        let large = strided(0, ARRAY_MAX, WIDE);
        assert!(small.is_array() && large.is_array());
        assert!(small.count() * GALLOP_SKEW < large.count());
        let got = small.and(&large);
        assert_eq!(got.iter().collect::<Vec<_>>(), vec![0, 2 * WIDE, 37 * WIDE]);
        assert_eq!(small.and_count(&large), 3);
        assert!(small.intersects(&large));
        assert!(!set(&[1, WIDE + 1, 600_000_001]).intersects(&large));
    }

    #[test]
    fn memory_footprint_shrinks_for_sparse_sets() {
        let sparse = set(&[5, 900, 40_000]);
        let dense_equivalent = sparse.to_bitset();
        assert_eq!(sparse.heap_bytes(), 12);
        assert!(
            sparse.heap_bytes() * 50 < dense_equivalent.heap_bytes(),
            "{} vs {}",
            sparse.heap_bytes(),
            dense_equivalent.heap_bytes()
        );
        // round-trip through the dense container preserves contents
        assert_eq!(TupleSet::from_bitset(dense_equivalent), sparse);
        // a year-range-shaped set: contiguous ids, one bit each up to
        // its last
        let range: TupleSet = (2_000..12_000).collect();
        assert!(range.is_bitmap());
        assert_eq!(range.heap_bytes(), (11_999 / 64 + 1) * 8);
        assert_eq!(TupleSet::from_bitset(range.to_bitset()), range);
    }

    #[test]
    fn from_unsorted_dedups_and_picks_container() {
        let s = TupleSet::from_unsorted(vec![WIDE * 5, 1, WIDE * 5, WIDE * 3, 1]);
        assert_eq!(s.iter().collect::<Vec<_>>(), vec![1, WIDE * 3, WIDE * 5]);
        assert!(s.is_array());
        let big = TupleSet::from_unsorted((0..3_000).rev().collect());
        assert!(big.is_bitmap());
        assert_eq!(big.count(), 3_000);
    }

    #[test]
    fn for_each_range_covers_exactly_the_iterated_ids() {
        let shapes = [
            TupleSet::new(),
            set(&[7]),
            strided(0, 40, WIDE),                     // array
            (0..600).chain(10_000..10_600).collect(), // two-range bitmap
            strided(0, 2 * ARRAY_MAX + 1, 2),         // striped bitmap
            (0..64).collect(),                        // full-word bitmap
            (30..70).step_by(3).chain(100..170).collect(),
            (60..70).chain(200..466).collect(), // ranges across words
        ];
        for s in &shapes {
            let mut ids: Vec<u32> = Vec::new();
            let mut prev_end = 0u64;
            s.for_each_range(|start, len| {
                assert!(len >= 1);
                assert!(start as u64 >= prev_end, "ranges ascending + disjoint");
                prev_end = start as u64 + len as u64;
                ids.extend(start..start + (len - 1) + 1);
            });
            assert_eq!(ids, s.iter().collect::<Vec<_>>(), "{}", s.container());
        }
    }
}
