//! Adaptive compressed tuple sets: the roaring-style **three-container**
//! representation behind every tuple set the executor produces.
//!
//! PR 1 made tuple sets word-packed [`BitSet`]s, ideal for dense
//! predicates but wasteful for the highly selective long tail; PR 2 added
//! a sorted-array container for that tail. This revision adds the third
//! classic roaring container — **run-length encoding** — because a tuple
//! id is a driver row: a predicate over a column the corpus is ordered
//! by (a key range, a load-order window) matches a handful of
//! *contiguous id runs* that collapse to a few `(start, len)` pairs. A
//! [`TupleSet`] adapts its container to its contents:
//!
//! * **Array container** — a sorted, duplicate-free `Vec<u32>`. Storage is
//!   4 bytes per id, intersection is a two-pointer merge (galloping
//!   binary search under heavy size skew), and array∩bitmap runs one
//!   `contains` probe per array element.
//! * **Run container** — maximal, disjoint, ascending `(u32 start,
//!   u32 len)` runs. Storage is 8 bytes per run *regardless of
//!   cardinality* (the whole universe is one 8-byte run), and the
//!   algebra is interval sweeps: `O(r₁ + r₂)` merges for run∩run, masked
//!   word walks against bitmaps, membership walks against arrays.
//! * **Bitmap container** — the packed-word [`BitSet`]. Its algebra runs
//!   on the SIMD-width kernels ([`BitSet::and_wide`] & co.): explicit
//!   4×`u64` blocks the compiler autovectorises, while the plain word
//!   loops remain frozen as the PR 1 bench control.
//!
//! ## The container rule
//!
//! The choice is a **pure function of the contents** — cardinality `n`,
//! maximal-run count `r`, and word span `w` (`max_id/64 + 1`) — so the
//! representation is canonical and `PartialEq`/`Eq` derive structurally:
//!
//! 1. **Runs** iff `r ≤ RUN_MAX` (bounds per-op sweep cost) and
//!    `2·r ≤ n` (8 bytes per run is at most the array's `4·n`) and
//!    `RUN_COST_FACTOR·r ≤ w` (one run-sweep step costs ~4× a bitmap
//!    word step, so runs only where the sweep decisively beats the
//!    word walk — the PR 8 cost-informed cap; it also keeps runs
//!    strictly smaller than the bitmap's `8·w` bytes);
//! 2. else **Array** iff `n ≤ ARRAY_MAX` and `n × SPAN_FACTOR ≤ w`
//!    (the PR 2 rule: the array only where it is at most 1/8 of the
//!    bitmap's bytes);
//! 3. else **Bitmap**.
//!
//! Every constructor and mutation re-establishes this rule, converting
//! between any pair of containers in either direction (six conversion
//! edges, all exercised by the boundary tests below). Together with
//! [`BitSet`]'s trailing-zero-word trimming, two equal sets are equal
//! container-for-container no matter which op sequence built them.
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
//! Each of the array×array, array×runs and runs×runs pairs has one
//! merge walk, a visitor that calls back on each common id (or each
//! overlapping interval) in ascending order and stops when the callback
//! returns `false` — the idiom `for_run_words` uses for runs against
//! bitmap words. `and` collects the visits, `and_count` counts them and
//! `intersects` stops at the first:
//!
//! * `for_each_common` — two arrays: a two-pointer merge, galloping
//!   binary search over the larger side past `GALLOP_SKEW`× skew;
//! * `for_each_in_runs` — an array against runs: one forward walk;
//! * `for_each_overlap` — two run lists: an interval sweep, or a
//!   forward `partition_point` seek over the larger list past
//!   `GALLOP_SKEW`× skew.
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

/// Maximum number of runs the run container may hold — bounds the per-op
/// interval-sweep cost exactly like [`ARRAY_MAX`] bounds array merges.
pub const RUN_MAX: usize = 512;

/// Cost factor of one run-sweep step relative to one bitmap word step
/// (PR 8): a run step is branchy u64 interval arithmetic, a word step
/// is one AND+popcount in a 4-wide kernel, roughly a 4× gap measured
/// on the `set_algebra` micro rows. The run container is kept only
/// while `RUN_COST_FACTOR · r ≤ w` — i.e. only where the interval
/// sweep decisively beats the word walk (a sweep costs one step per
/// run, per word or per element, depending on the container) —
/// which resolves the on-record PR 4 trade-off where dense many-run
/// sets (`r` close to `w`) made isolated `and_count` ~6× slower at
/// 20k ids.
pub const RUN_COST_FACTOR: usize = 4;

/// Size skew at which array∩array intersection switches from the
/// two-pointer merge to galloping binary search over the larger side.
const GALLOP_SKEW: usize = 16;

/// One maximal run of consecutive ids: `(start, len)`, `len ≥ 1`. Runs in
/// a container are disjoint, non-adjacent and ascending by start.
type Run = (u32, u32);

/// The three containers. The variant is the one [`choose_kind`] picks for
/// the contents — every constructor and mutation re-establishes this
/// invariant, so the derived equality is structural equality of contents.
#[derive(Debug, Clone, PartialEq, Eq)]
enum Repr {
    Array(Vec<u32>),
    Runs(Vec<Run>),
    Bitmap(BitSet),
}

impl Default for Repr {
    fn default() -> Self {
        Repr::Array(Vec::new())
    }
}

/// The canonical container for contents with cardinality `n`, maximal-run
/// count `r` and word span `w` — the module-doc rule, in code.
fn choose_kind(n: usize, r: usize, w: usize) -> Kind {
    // `r ≥ 1` keeps the empty set out of the run branch (every rule
    // below is vacuously true at n = r = w = 0; empty is an array).
    if (1..=RUN_MAX).contains(&r) && 2 * r <= n && RUN_COST_FACTOR * r <= w {
        Kind::Runs
    } else if n <= ARRAY_MAX && n * SPAN_FACTOR <= w {
        Kind::Array
    } else {
        Kind::Bitmap
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Kind {
    Array,
    Runs,
    Bitmap,
}

/// A borrowed view of one container's raw payload, produced by
/// [`TupleSet::dump`] for the snapshot serialiser.
pub(crate) enum ContainerDump<'a> {
    /// Sorted, duplicate-free ids.
    Array(&'a [u32]),
    /// Maximal, disjoint, ascending `(start, len)` runs.
    Runs(&'a [Run]),
    /// Packed bitmap words.
    Bitmap(&'a BitSet),
}

/// Word span of a set whose maximum id is `max`.
fn word_span(max: u32) -> usize {
    max as usize / 64 + 1
}

/// An adaptive compressed set of `u32` tuple ids (sorted array, run list
/// or packed bitmap — whichever the container rule picks).
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
        let w = ids.last().map_or(0, |&m| word_span(m));
        let repr = match choose_kind(ids.len(), run_count_sorted(&ids), w) {
            Kind::Array => Repr::Array(ids),
            Kind::Runs => Repr::Runs(runs_from_sorted(&ids)),
            Kind::Bitmap => Repr::Bitmap(ids.into_iter().collect()),
        };
        TupleSet { repr }
    }

    /// Wraps a maximal, disjoint, ascending run list in the canonical
    /// container.
    fn from_runs(runs: Vec<Run>) -> Self {
        debug_assert!(
            runs.windows(2)
                .all(|w| (w[0].0 as u64 + w[0].1 as u64) < w[1].0 as u64)
                && runs.iter().all(|&(_, l)| l >= 1),
            "maximal disjoint ascending runs"
        );
        let n: usize = runs.iter().map(|&(_, l)| l as usize).sum();
        let w = runs.last().map_or(0, |&(s, l)| word_span(s + (l - 1)));
        let repr = match choose_kind(n, runs.len(), w) {
            Kind::Array => Repr::Array(iter_runs(&runs).collect()),
            Kind::Runs => Repr::Runs(runs),
            Kind::Bitmap => Repr::Bitmap(runs_to_bitset(&runs)),
        };
        TupleSet { repr }
    }

    /// Wraps a bitmap result in the canonical container.
    fn from_bits(bits: BitSet) -> Self {
        TupleSet {
            repr: Repr::Bitmap(bits),
        }
        .into_canonical()
    }

    /// Wraps an existing bitmap, demoting it if a smaller container fits.
    pub fn from_bitset(bits: BitSet) -> Self {
        TupleSet::from_bits(bits)
    }

    /// A copy of the contents as a plain dense [`BitSet`] — the bridge the
    /// pure-bitmap reference algebra and benches use.
    pub fn to_bitset(&self) -> BitSet {
        match &self.repr {
            Repr::Array(v) => v.iter().copied().collect(),
            Repr::Runs(r) => runs_to_bitset(r),
            Repr::Bitmap(b) => b.clone(),
        }
    }

    /// A borrowed view of the current container's raw payload — the
    /// snapshot serialiser writes exactly this, so a saved set costs no
    /// re-encoding and restores to a byte-identical container.
    pub(crate) fn dump(&self) -> ContainerDump<'_> {
        match &self.repr {
            Repr::Array(v) => ContainerDump::Array(v),
            Repr::Runs(r) => ContainerDump::Runs(r),
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

    /// Rebuilds a set from a snapshot run dump, validating the maximal,
    /// disjoint, ascending, non-empty invariant up front.
    pub(crate) fn restore_runs(runs: Vec<Run>) -> Option<TupleSet> {
        (!runs.is_empty()
            && runs.iter().all(|&(_, l)| l >= 1)
            && runs
                .windows(2)
                .all(|w| (w[0].0 as u64 + w[0].1 as u64) < w[1].0 as u64))
        .then(|| TupleSet::from_runs(runs))
    }

    /// Rebuilds a set from a snapshot bitmap dump (any word vector is a
    /// valid bitmap; canonicalisation demotes if a smaller container fits,
    /// which for a dump of a canonical bitmap is a no-op).
    pub(crate) fn restore_bitmap(words: Vec<u64>) -> TupleSet {
        TupleSet::from_bits(BitSet::from_words(words))
    }

    /// Whether the set currently uses the sorted-array container.
    pub fn is_array(&self) -> bool {
        matches!(self.repr, Repr::Array(_))
    }

    /// Whether the set currently uses the run-length container.
    pub fn is_runs(&self) -> bool {
        matches!(self.repr, Repr::Runs(_))
    }

    /// Whether the set currently uses the bitmap container.
    pub fn is_bitmap(&self) -> bool {
        matches!(self.repr, Repr::Bitmap(_))
    }

    /// The current container's name (`"array"`, `"runs"` or `"bitmap"`)
    /// — for bench reports and diagnostics.
    pub fn container(&self) -> &'static str {
        match &self.repr {
            Repr::Array(_) => "array",
            Repr::Runs(_) => "runs",
            Repr::Bitmap(_) => "bitmap",
        }
    }

    /// Number of ids in the set.
    pub fn count(&self) -> usize {
        match &self.repr {
            Repr::Array(v) => v.len(),
            Repr::Runs(r) => r.iter().map(|&(_, l)| l as usize).sum(),
            Repr::Bitmap(b) => b.count(),
        }
    }

    /// Whether the set is empty.
    pub fn is_empty(&self) -> bool {
        match &self.repr {
            Repr::Array(v) => v.is_empty(),
            Repr::Runs(r) => r.is_empty(),
            Repr::Bitmap(b) => b.is_empty(),
        }
    }

    /// Bytes of container storage (4 per id in an array; 8 per run in a
    /// run list; 8 per word in a bitmap) — the quantity the adaptive
    /// representation minimises.
    pub fn heap_bytes(&self) -> usize {
        match &self.repr {
            Repr::Array(v) => v.len() * std::mem::size_of::<u32>(),
            Repr::Runs(r) => r.len() * std::mem::size_of::<Run>(),
            Repr::Bitmap(b) => b.heap_bytes(),
        }
    }

    /// Whether the id is present (binary search / interval search / bit
    /// probe).
    pub fn contains(&self, id: u32) -> bool {
        match &self.repr {
            Repr::Array(v) => v.binary_search(&id).is_ok(),
            Repr::Runs(r) => runs_contain(r, id),
            Repr::Bitmap(b) => b.contains(id),
        }
    }

    /// Inserts an id; returns whether it was newly added. Converts
    /// container when the grown contents pick a different one (e.g. an
    /// insert bridging two runs coalesces them; an isolated insert into a
    /// run set can tip it back to an array).
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
                Repr::Runs(r) => runs_insert(r, id),
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
    /// merge/gallop for array pairs, interval sweep for run pairs,
    /// SIMD-width word-AND for bitmap pairs, probe/masked walks for the
    /// mixed pairs.
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
            (Repr::Array(a), Repr::Runs(r)) | (Repr::Runs(r), Repr::Array(a)) => {
                let mut out = Vec::new();
                for_each_in_runs(a, r, |id| {
                    out.push(id);
                    true
                });
                TupleSet::from_sorted(out)
            }
            (Repr::Runs(a), Repr::Runs(b)) => {
                let mut out = Vec::new();
                for_each_overlap(a, b, |s, e| {
                    out.push((s as u32, (e - s) as u32));
                    true
                });
                TupleSet::from_runs(out)
            }
            (Repr::Runs(r), Repr::Bitmap(b)) | (Repr::Bitmap(b), Repr::Runs(r)) => {
                TupleSet::from_bits(restrict_bitmap_to_runs(b, r))
            }
            (Repr::Bitmap(a), Repr::Bitmap(b)) => TupleSet::from_bits(a.and_wide(b)),
        }
    }

    /// `self ∪ other` as a new set (re-containerised as the union grows —
    /// unions of runny operands stay runs; mixed unions overlay runs onto
    /// words).
    pub fn or(&self, other: &TupleSet) -> TupleSet {
        match (&self.repr, &other.repr) {
            (Repr::Array(a), Repr::Array(b)) => TupleSet::from_sorted(union_arrays(a, b)),
            (Repr::Array(a), Repr::Bitmap(b)) | (Repr::Bitmap(b), Repr::Array(a)) => {
                let mut bits = b.clone();
                for &id in a {
                    bits.insert(id);
                }
                TupleSet::from_bits(bits)
            }
            (Repr::Array(a), Repr::Runs(r)) | (Repr::Runs(r), Repr::Array(a)) => {
                TupleSet::from_runs(union_runs(&runs_from_sorted(a), r))
            }
            (Repr::Runs(a), Repr::Runs(b)) => TupleSet::from_runs(union_runs(a, b)),
            (Repr::Runs(r), Repr::Bitmap(b)) | (Repr::Bitmap(b), Repr::Runs(r)) => {
                TupleSet::from_bits(overlay_runs_on_bitmap(b, r))
            }
            (Repr::Bitmap(a), Repr::Bitmap(b)) => TupleSet::from_bits(a.or_wide(b)),
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
            (Repr::Bitmap(a), Repr::Runs(r)) => {
                *self = TupleSet::from_bits(restrict_bitmap_to_runs(a, r));
            }
            (Repr::Runs(_), _) => *self = self.and(other),
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
            (Repr::Bitmap(a), Repr::Runs(r)) => {
                *self = TupleSet::from_bits(overlay_runs_on_bitmap(a, r));
            }
            (Repr::Array(_) | Repr::Runs(_), _) => *self = self.or(other),
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
            (Repr::Array(a), Repr::Runs(r)) | (Repr::Runs(r), Repr::Array(a)) => {
                let mut n = 0usize;
                for_each_in_runs(a, r, |_| {
                    n += 1;
                    true
                });
                n
            }
            (Repr::Runs(a), Repr::Runs(b)) => {
                let mut n = 0usize;
                for_each_overlap(a, b, |s, e| {
                    n += (e - s) as usize;
                    true
                });
                n
            }
            (Repr::Runs(r), Repr::Bitmap(b)) | (Repr::Bitmap(b), Repr::Runs(r)) => {
                let words = b.words();
                let mut n = 0usize;
                for_run_words(r, words.len(), |wi, mask| {
                    n += (words[wi] & mask).count_ones() as usize;
                    true
                });
                n
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
            (Repr::Array(a), Repr::Runs(r)) | (Repr::Runs(r), Repr::Array(a)) => {
                let mut hit = false;
                for_each_in_runs(a, r, |_| {
                    hit = true;
                    false
                });
                hit
            }
            (Repr::Runs(a), Repr::Runs(b)) => {
                let mut hit = false;
                for_each_overlap(a, b, |_, _| {
                    hit = true;
                    false
                });
                hit
            }
            (Repr::Runs(r), Repr::Bitmap(b)) | (Repr::Bitmap(b), Repr::Runs(r)) => {
                let words = b.words();
                let mut hit = false;
                for_run_words(r, words.len(), |wi, mask| {
                    hit = words[wi] & mask != 0;
                    !hit
                });
                hit
            }
            (Repr::Bitmap(a), Repr::Bitmap(b)) => a.intersects(b),
        }
    }

    /// Visits the set as disjoint, ascending `(start, len)` id ranges —
    /// maximal runs for the run container, per-word set-bit segments for
    /// the bitmap, single ids for the array. Dense consumers (the PEPS
    /// scorer) walk ranges so runny sets process as contiguous slice
    /// sweeps instead of per-id iteration.
    pub fn for_each_range(&self, mut f: impl FnMut(u32, u32)) {
        match &self.repr {
            Repr::Array(v) => v.iter().for_each(|&id| f(id, 1)),
            Repr::Runs(r) => r.iter().for_each(|&(s, l)| f(s, l)),
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
                Repr::Runs(r) => IterInner::Runs {
                    runs: r,
                    idx: 0,
                    next: 0,
                },
                Repr::Bitmap(b) => IterInner::Bitmap(b.iter()),
            },
        }
    }

    /// Re-establishes the container rule after a mutation, converting to
    /// whichever container the contents now pick. Array and run stats
    /// are `O(current container size)`; bitmap stats are a single word
    /// scan that exits early once both demotions are ruled out.
    fn canonicalize(&mut self) {
        let kind = match &self.repr {
            Repr::Array(v) => choose_kind(
                v.len(),
                run_count_sorted(v),
                v.last().map_or(0, |&m| word_span(m)),
            ),
            Repr::Runs(r) => choose_kind(
                r.iter().map(|&(_, l)| l as usize).sum(),
                r.len(),
                r.last().map_or(0, |&(s, l)| word_span(s + (l - 1))),
            ),
            Repr::Bitmap(b) => bitmap_kind(b),
        };
        self.repr = match (std::mem::take(&mut self.repr), kind) {
            (repr @ Repr::Array(_), Kind::Array)
            | (repr @ Repr::Runs(_), Kind::Runs)
            | (repr @ Repr::Bitmap(_), Kind::Bitmap) => repr,
            (Repr::Array(v), Kind::Runs) => Repr::Runs(runs_from_sorted(&v)),
            (Repr::Array(v), Kind::Bitmap) => Repr::Bitmap(v.into_iter().collect()),
            (Repr::Runs(r), Kind::Array) => Repr::Array(iter_runs(&r).collect()),
            (Repr::Runs(r), Kind::Bitmap) => Repr::Bitmap(runs_to_bitset(&r)),
            (Repr::Bitmap(b), Kind::Array) => Repr::Array(b.iter().collect()),
            (Repr::Bitmap(b), Kind::Runs) => Repr::Runs(bitmap_to_runs(&b)),
        };
    }

    /// [`canonicalize`](Self::canonicalize) by value, for builder chains.
    fn into_canonical(mut self) -> Self {
        self.canonicalize();
        self
    }
}

/// The canonical container for a bitmap's contents: one scan computing
/// cardinality and run count together, exiting early once the contents
/// can only be a bitmap.
fn bitmap_kind(b: &BitSet) -> Kind {
    let words = b.words();
    let w = words.len();
    let run_limit = RUN_MAX.min(w / RUN_COST_FACTOR);
    let array_limit = ARRAY_MAX.min(w / SPAN_FACTOR);
    let mut n = 0usize;
    let mut r = 0usize;
    let mut carry = 0u64;
    for &word in words {
        n += word.count_ones() as usize;
        r += (word & !((word << 1) | carry)).count_ones() as usize;
        carry = word >> 63;
        if r > run_limit && n > array_limit {
            return Kind::Bitmap;
        }
    }
    choose_kind(n, r, w)
}

// ----------------------------------------------------------------------
// run-container helpers
// ----------------------------------------------------------------------

/// Number of maximal runs in a sorted, duplicate-free id list.
fn run_count_sorted(ids: &[u32]) -> usize {
    if ids.is_empty() {
        return 0;
    }
    1 + ids.windows(2).filter(|w| w[1] != w[0] + 1).count()
}

/// The maximal run list of a sorted, duplicate-free id list.
fn runs_from_sorted(ids: &[u32]) -> Vec<Run> {
    let mut runs: Vec<Run> = Vec::new();
    for &id in ids {
        match runs.last_mut() {
            Some((s, l)) if *s as u64 + *l as u64 == id as u64 => *l += 1,
            _ => runs.push((id, 1)),
        }
    }
    runs
}

/// Iterates the ids covered by a run list, ascending.
fn iter_runs(runs: &[Run]) -> impl Iterator<Item = u32> + '_ {
    // Widen before computing the exclusive end: a run ending at
    // `u32::MAX` has `s + l == 2^32`, which overflows u32.
    runs.iter()
        .flat_map(|&(s, l)| (s as u64..s as u64 + l as u64).map(|id| id as u32))
}

/// Whether a run list covers `id` (binary search by run start).
fn runs_contain(runs: &[Run], id: u32) -> bool {
    let pos = runs.partition_point(|&(s, _)| s <= id);
    pos > 0 && {
        let (s, l) = runs[pos - 1];
        (id as u64) < s as u64 + l as u64
    }
}

/// Inserts `id` into a run list, extending, merging or creating runs as
/// needed; returns whether it was newly added.
fn runs_insert(runs: &mut Vec<Run>, id: u32) -> bool {
    let pos = runs.partition_point(|&(s, _)| s <= id);
    if pos > 0 {
        let (s, l) = runs[pos - 1];
        let end = s as u64 + l as u64; // exclusive
        if (id as u64) < end {
            return false;
        }
        if id as u64 == end {
            runs[pos - 1].1 += 1;
            // bridging insert: coalesce with the following run
            if pos < runs.len() && runs[pos].0 as u64 == id as u64 + 1 {
                runs[pos - 1].1 += runs[pos].1;
                runs.remove(pos);
            }
            return true;
        }
    }
    if pos < runs.len() && runs[pos].0 as u64 == id as u64 + 1 {
        runs[pos].0 = id;
        runs[pos].1 += 1;
        return true;
    }
    runs.insert(pos, (id, 1));
    true
}

/// The one run×run merge walk: calls `f(start, end)` (end exclusive) on
/// every maximal overlap of two run lists, ascending, until it returns
/// `false`. Two-pointer interval sweep, `O(r₁ + r₂)`; under
/// ≥[`GALLOP_SKEW`]× size skew (PR 8), mirroring the array galloping
/// rule, it takes the seek path instead: for each run of the smaller
/// list, `partition_point` over the larger list's tail finds the first
/// run that can overlap it — `O(|small| · log |large|)`. The seek cursor
/// only moves forward, so the worst case stays linear. Both paths visit
/// the same overlaps in the same order. Each overlap is maximal (gaps in
/// either input separate overlaps).
fn for_each_overlap(a: &[Run], b: &[Run], mut f: impl FnMut(u64, u64) -> bool) {
    let bounds = |(s, l): Run| (s as u64, s as u64 + l as u64);
    let (small, large) = if a.len() <= b.len() { (a, b) } else { (b, a) };
    if small.len() * GALLOP_SKEW < large.len() {
        let mut lo = 0usize;
        for &run in small {
            let (s, e) = bounds(run);
            lo += large[lo..].partition_point(|&r| bounds(r).1 <= s);
            let mut k = lo;
            while k < large.len() {
                let (b0, b1) = bounds(large[k]);
                if b0 >= e {
                    break;
                }
                if !f(s.max(b0), e.min(b1)) {
                    return;
                }
                if b1 > e {
                    // This large run extends past the current small run,
                    // so it may also overlap the next one: leave it.
                    break;
                }
                k += 1;
            }
            lo = k;
        }
        return;
    }
    let (mut i, mut j) = (0usize, 0usize);
    while i < a.len() && j < b.len() {
        let ((a0, a1), (b0, b1)) = (bounds(a[i]), bounds(b[j]));
        let (s, e) = (a0.max(b0), a1.min(b1));
        if s < e && !f(s, e) {
            return;
        }
        if a1 <= b1 {
            i += 1;
        } else {
            j += 1;
        }
    }
}

/// `a ∪ b` over run lists: an ascending merge that coalesces overlapping
/// *and adjacent* runs, so the output is maximal.
fn union_runs(a: &[Run], b: &[Run]) -> Vec<Run> {
    let mut out: Vec<Run> = Vec::with_capacity(a.len() + b.len());
    let (mut i, mut j) = (0usize, 0usize);
    let mut cur: Option<(u64, u64)> = None;
    while i < a.len() || j < b.len() {
        let take_a = j >= b.len() || (i < a.len() && a[i].0 <= b[j].0);
        let (s, l) = if take_a {
            i += 1;
            a[i - 1]
        } else {
            j += 1;
            b[j - 1]
        };
        let (s, e) = (s as u64, s as u64 + l as u64);
        match &mut cur {
            Some((_, ce)) if s <= *ce => *ce = (*ce).max(e),
            _ => {
                if let Some((cs, ce)) = cur.take() {
                    out.push((cs as u32, (ce - cs) as u32));
                }
                cur = Some((s, e));
            }
        }
    }
    if let Some((cs, ce)) = cur {
        out.push((cs as u32, (ce - cs) as u32));
    }
    out
}

/// The one array×runs merge walk: calls `f` on every id of the sorted
/// array that the run list covers, ascending, until it returns `false`.
fn for_each_in_runs(ids: &[u32], runs: &[Run], mut f: impl FnMut(u32) -> bool) {
    let mut j = 0usize;
    for &id in ids {
        while j < runs.len() && runs[j].0 as u64 + runs[j].1 as u64 <= id as u64 {
            j += 1;
        }
        if j == runs.len() || (runs[j].0 <= id && !f(id)) {
            return;
        }
    }
}

/// The word mask covering the intersection of the 64-bit word starting
/// at `word_base` with the half-open id interval `start..end`. Caller
/// guarantees the interval overlaps the word.
fn run_word_mask(word_base: u64, start: u64, end: u64) -> u64 {
    let mut mask = !0u64;
    if start > word_base {
        mask <<= start - word_base;
    }
    if end < word_base + 64 {
        mask &= !0u64 >> (word_base + 64 - end);
    }
    mask
}

/// Visits every `(word index, mask)` pair a run list covers below
/// `max_words`, in ascending word order per run; the callback returns
/// `false` to stop early.
fn for_run_words(runs: &[Run], max_words: usize, mut f: impl FnMut(usize, u64) -> bool) {
    for &(start, len) in runs {
        let s = start as u64;
        let e = s + len as u64;
        let first = (s / 64) as usize;
        if first >= max_words {
            break;
        }
        let last = (((e - 1) / 64) as usize).min(max_words - 1);
        for wi in first..=last {
            if !f(wi, run_word_mask(wi as u64 * 64, s, e)) {
                return;
            }
        }
    }
}

/// A run list as a packed bitmap (word-masked fills, no per-bit inserts).
fn runs_to_bitset(runs: &[Run]) -> BitSet {
    let Some(&(ls, ll)) = runs.last() else {
        return BitSet::new();
    };
    let span = word_span(ls + (ll - 1));
    let mut words = vec![0u64; span];
    for_run_words(runs, span, |wi, mask| {
        words[wi] |= mask;
        true
    });
    BitSet::from_words(words)
}

/// A bitmap's set bits as a maximal run list (per-word segment scan).
fn bitmap_to_runs(b: &BitSet) -> Vec<Run> {
    let mut runs: Vec<Run> = Vec::new();
    // open run as (start, end exclusive)
    let mut open: Option<(u32, u64)> = None;
    let close = |open: &mut Option<(u32, u64)>, runs: &mut Vec<Run>| {
        if let Some((s, e)) = open.take() {
            runs.push((s, (e - s as u64) as u32));
        }
    };
    for (wi, &word) in b.words().iter().enumerate() {
        let base = wi as u64 * 64;
        if word == 0 {
            close(&mut open, &mut runs);
            continue;
        }
        let mut x = word;
        while x != 0 {
            let start_bit = x.trailing_zeros() as u64;
            let ones = (x >> start_bit).trailing_ones() as u64;
            let (seg_start, seg_end) = (base + start_bit, base + start_bit + ones);
            match &mut open {
                Some((_, e)) if *e == seg_start => *e = seg_end,
                _ => {
                    close(&mut open, &mut runs);
                    open = Some((seg_start as u32, seg_end));
                }
            }
            if start_bit + ones >= 64 {
                x = 0;
            } else {
                x &= !0u64 << (start_bit + ones);
            }
        }
    }
    close(&mut open, &mut runs);
    runs
}

/// `bitmap ∩ runs` as a bitmap (masked word copies).
fn restrict_bitmap_to_runs(bits: &BitSet, runs: &[Run]) -> BitSet {
    let words = bits.words();
    let mut out = vec![0u64; words.len()];
    for_run_words(runs, words.len(), |wi, mask| {
        out[wi] |= words[wi] & mask;
        true
    });
    BitSet::from_words(out)
}

/// `bitmap ∪ runs` as a bitmap (masked word fills over the wider span).
fn overlay_runs_on_bitmap(bits: &BitSet, runs: &[Run]) -> BitSet {
    let span = runs
        .last()
        .map_or(0, |&(s, l)| word_span(s + (l - 1)))
        .max(bits.words().len());
    let mut out = bits.words().to_vec();
    out.resize(span, 0);
    for_run_words(runs, span, |wi, mask| {
        out[wi] |= mask;
        true
    });
    BitSet::from_words(out)
}

// ----------------------------------------------------------------------
// array-container helpers
// ----------------------------------------------------------------------

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
    Runs {
        runs: &'a [Run],
        idx: usize,
        next: u64,
    },
    Bitmap(crate::bitset::Iter<'a>),
}

impl Iterator for Iter<'_> {
    type Item = u32;

    fn next(&mut self) -> Option<u32> {
        match &mut self.inner {
            IterInner::Array(it) => it.next().copied(),
            IterInner::Runs { runs, idx, next } => loop {
                let &(s, l) = runs.get(*idx)?;
                let (s, e) = (s as u64, s as u64 + l as u64);
                if *next < s {
                    *next = s;
                }
                if *next < e {
                    let id = *next as u32;
                    *next += 1;
                    return Some(id);
                }
                *idx += 1;
            },
            IterInner::Bitmap(it) => it.next(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    /// Wide enough id spacing that isolated ids always pick the array
    /// (one id per `SPAN_FACTOR` 64-bit words, with headroom, and no two
    /// ids ever form a run).
    const WIDE: u32 = (64 * SPAN_FACTOR * 2) as u32;

    fn set(ids: &[u32]) -> TupleSet {
        ids.iter().copied().collect()
    }

    /// A set holding exactly `n` ids spaced `stride` apart from `start`.
    fn strided(start: u32, n: usize, stride: u32) -> TupleSet {
        (0..n as u32).map(|i| start + i * stride).collect()
    }

    /// Every overlap of two run lists, as runs.
    fn overlaps(a: &[Run], b: &[Run]) -> Vec<Run> {
        let mut out = Vec::new();
        for_each_overlap(a, b, |s, e| {
            out.push((s as u32, (e - s) as u32));
            true
        });
        out
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
    /// container is the one `choose_kind` picks for the contents, and
    /// rebuilding from the id list reproduces the set exactly.
    fn assert_canonical(s: &TupleSet) {
        let ids: Vec<u32> = s.iter().collect();
        let want = choose_kind(
            ids.len(),
            run_count_sorted(&ids),
            ids.last().map_or(0, |&m| word_span(m)),
        );
        let got = match &s.repr {
            Repr::Array(_) => Kind::Array,
            Repr::Runs(_) => Kind::Runs,
            Repr::Bitmap(_) => Kind::Bitmap,
        };
        assert_eq!(
            got,
            want,
            "container rule violated for {} ids (max {:?})",
            ids.len(),
            ids.last()
        );
        assert_eq!(s, &set(&ids), "not structurally canonical");
        if let Repr::Runs(r) = &s.repr {
            assert!(
                r.windows(2)
                    .all(|w| (w[0].0 as u64 + w[0].1 as u64) < w[1].0 as u64),
                "runs not maximal/disjoint/ascending: {r:?}"
            );
        }
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
            // same ids through a run container behave identically
            let mut dense: TupleSet = (0..256).collect();
            assert!(dense.is_runs(), "one dense run packs to runs");
            for &id in ids {
                dense.insert(id);
                assert!(dense.contains(id));
            }
            assert_canonical(&dense);
        }
    }

    #[test]
    fn insert_all_matches_repeated_inserts() {
        // Batch append across all three containers: fresh ids count,
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

        // The whole universe is a single 8-byte run — the RLE win.
        let universe: TupleSet = (0..10_000).collect();
        assert!(universe.is_runs());
        assert_eq!(universe.heap_bytes(), 8);
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
        // WIDE spacing keeps the span rule satisfied and every id its own
        // run (so runs never fit), making the promotion trigger exactly
        // the ARRAY_MAX cardinality cap.
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
    fn run_rule_thresholds() {
        // RUN_MAX pairs of adjacent ids, pairs spaced WIDE apart: exactly
        // RUN_MAX runs of length 2 → the run container, at its cap.
        let paired = |n: usize| -> TupleSet {
            (0..n as u32)
                .flat_map(|i| [i * WIDE, i * WIDE + 1])
                .collect()
        };
        let s = paired(RUN_MAX);
        assert!(s.is_runs(), "RUN_MAX runs still fit the run container");
        assert_eq!(s.heap_bytes(), RUN_MAX * 8);
        // one more pair exceeds RUN_MAX runs → bitmap (2·RUN_MAX + 2 ids
        // also exceeds ARRAY_MAX, and the span is far too wide anyway).
        let over = paired(RUN_MAX + 1);
        assert!(over.is_bitmap(), "over the run cap promotes");
        // the 2r ≤ n rule: unit runs never pick the run container
        let units = strided(0, 100, WIDE);
        assert!(units.is_array(), "isolated ids stay an array");
        // RUN_COST_FACTOR·r ≤ w: a run only beats the bitmap once its
        // span reaches RUN_COST_FACTOR words — below that the wide word
        // walk is cheaper than the branchy interval sweep.
        let narrow: TupleSet = (0..129).collect(); // 3 words: 4·1 > 3
        assert!(narrow.is_bitmap(), "a sub-cap-span run stays a bitmap");
        let wide: TupleSet = (0..193).collect(); // 4 words: 4·1 ≤ 4
        assert!(wide.is_runs(), "a 4-word run beats the bitmap");
        for s in [&s, &over, &units, &narrow, &wide] {
            assert_canonical(s);
        }
    }

    #[test]
    fn run_gallop_switches_exactly_at_the_skew_threshold() {
        // 1 small run against GALLOP_SKEW (sweep) and GALLOP_SKEW + 1
        // (seek) large runs: both paths must agree with the id-level
        // reference exactly at and across the switch, in both argument
        // orders.
        let small: Vec<Run> = vec![(100, 1_000)];
        let all_large: Vec<Run> = (0..GALLOP_SKEW as u32 + 1).map(|k| (k * 320, 4)).collect();
        for len in [GALLOP_SKEW, GALLOP_SKEW + 1] {
            let large = &all_large[..len];
            assert_eq!(
                small.len() * GALLOP_SKEW < large.len(),
                len > GALLOP_SKEW,
                "gallop exactly past {GALLOP_SKEW}×"
            );
            let a: std::collections::BTreeSet<u32> = iter_runs(&small).collect();
            let b: std::collections::BTreeSet<u32> = iter_runs(large).collect();
            let want: Vec<u32> = a.intersection(&b).copied().collect();
            assert!(!want.is_empty(), "the shapes overlap");
            for (x, y) in [(small.as_slice(), large), (large, small.as_slice())] {
                let got: Vec<u32> = iter_runs(&overlaps(x, y)).collect();
                assert_eq!(got, want, "intersect at skew {len}");
            }
        }
        // disjoint skewed lists: the seek path must find nothing
        let hole: Vec<Run> = vec![(50_000, 10)];
        for (x, y) in [(hole.as_slice(), all_large.as_slice()), (&all_large, &hole)] {
            assert!(overlaps(x, y).is_empty());
        }
    }

    #[test]
    fn run_gallop_keeps_a_spanning_run_live_across_small_runs() {
        // One run of the larger list covers *several* runs of the
        // smaller list: the seek cursor must not consume it after the
        // first overlap.
        let small: Vec<Run> = vec![(10, 10), (100, 10)];
        let large: Vec<Run> = std::iter::once((0u32, 5_000u32))
            .chain((0..32).map(|k| (10_000 + k * 640, 4)))
            .collect();
        assert!(small.len() * GALLOP_SKEW < large.len(), "gallop path");
        for (x, y) in [(small.as_slice(), large.as_slice()), (&large, &small)] {
            assert_eq!(overlaps(x, y), small, "both small runs survive");
        }
    }

    #[test]
    fn run_count_cap_boundary_in_both_argument_orders() {
        // Exactly RUN_COST_FACTOR·r = w: 7 id pairs one word apart plus
        // a tail run ending in word 31 → r = 8 runs over w = 32 words
        // holds the run container; one more pair tips 4·9 = 36 > 32 and
        // the set becomes a bitmap.
        let at_cap: TupleSet = (0..7u32)
            .flat_map(|k| [k * 64, k * 64 + 1])
            .chain(1_984..1_990)
            .collect();
        assert!(at_cap.is_runs(), "4·8 = 32 ≤ 32 words stays runs");
        let over_cap: TupleSet = (0..7u32)
            .flat_map(|k| [k * 64, k * 64 + 1])
            .chain([448, 449])
            .chain(1_984..1_990)
            .collect();
        assert!(over_cap.is_bitmap(), "4·9 = 36 > 32 words promotes");
        // ops agree in both argument orders across the cap boundary
        // (at_cap ⊂ over_cap by construction)
        for (a, b) in [(&at_cap, &over_cap), (&over_cap, &at_cap)] {
            assert_eq!(a.and(b), at_cap);
            assert_eq!(a.and_count(b), at_cap.count());
            assert_eq!(a.or(b), over_cap);
            assert!(a.intersects(b));
        }
        assert_canonical(&at_cap);
        assert_canonical(&over_cap);
    }

    #[test]
    fn all_six_container_conversions_round_trip() {
        // array → runs: an insert completing a long run.
        let mut s = set(&[0, 1000]);
        assert!(s.is_array());
        for id in 1..100 {
            s.insert(id);
        }
        assert!(s.is_runs(), "array grew a long run");
        assert_canonical(&s);

        // runs → array: an intersection shattering the runs into
        // isolated ids.
        let mut s: TupleSet = (0..40).map(|i| i * WIDE).flat_map(|s| [s, s + 1]).collect();
        assert!(s.is_runs());
        s.and_assign(&strided(0, 40, WIDE));
        assert!(s.is_array(), "unit runs fall back to the array");
        assert_canonical(&s);

        // array → bitmap: the PR 2 promotion (cap exceeded, wide span).
        let mut s = strided(0, ARRAY_MAX, WIDE);
        s.insert(ARRAY_MAX as u32 * WIDE);
        assert!(s.is_bitmap());
        assert_canonical(&s);

        // bitmap → array: the PR 2 demotion.
        let mut s = strided(0, ARRAY_MAX + 1, WIDE);
        assert!(s.is_bitmap());
        s.and_assign(&strided(WIDE, ARRAY_MAX + 1, WIDE));
        assert!(s.is_array());
        assert_canonical(&s);

        // runs → bitmap: intersecting one run with every other id.
        let mut s: TupleSet = (0..260).collect();
        assert!(s.is_runs());
        s.and_assign(&(0..260).step_by(2).collect());
        assert!(s.is_bitmap(), "alternating bits are bitmap territory");
        assert_canonical(&s);

        // bitmap → runs: filling the holes back in.
        let mut s: TupleSet = (0..260).step_by(2).collect();
        assert!(s.is_bitmap());
        for id in (1..260).step_by(2) {
            s.insert(id);
        }
        assert!(s.is_runs(), "contiguous again → runs");
        assert_eq!(s, (0..260).collect::<TupleSet>());
        assert_canonical(&s);
    }

    #[test]
    fn adjacent_runs_coalesce_on_bridging_insert() {
        // [0..400) and [401..800) with a hole at 400.
        let mut s: TupleSet = (0..400).chain(401..800).collect();
        assert!(s.is_runs());
        assert_eq!(s.heap_bytes(), 16, "two runs");
        assert!(s.insert(400));
        assert!(s.is_runs());
        assert_eq!(s.heap_bytes(), 8, "bridged into one run");
        assert_eq!(s, (0..800).collect::<TupleSet>());
        // extending at the front edge coalesces too
        let mut s: TupleSet = (1..400).chain(401..800).collect();
        assert!(s.insert(400));
        assert!(s.insert(0));
        assert_eq!(s, (0..800).collect::<TupleSet>());
        assert_canonical(&s);
    }

    #[test]
    fn span_rule_keeps_scattered_sets_out_of_runs() {
        // 300 ids packed into five words: runs (one 8-byte run) beat
        // the 40-byte bitmap and the 1200-byte array.
        let compact: TupleSet = (0..300).collect();
        assert!(compact.is_runs());
        assert_eq!(compact.heap_bytes(), 8);
        // 100 ids scattered WIDE apart fit the array rule
        let scattered = strided(0, 100, WIDE);
        assert!(scattered.is_array());
        assert_eq!(scattered.heap_bytes(), 400);
        // stride-2 ids (no runs) in a compact span: the bitmap wins
        let striped = strided(0, 100, 2);
        assert!(striped.is_bitmap());
        for s in [&compact, &scattered, &striped] {
            assert_canonical(s);
        }
    }

    #[test]
    fn removing_an_outlier_recontainerises() {
        // [0..6) plus one far outlier: two runs, 16 B, beats the 28 B
        // array; intersecting the outlier away leaves one word → bitmap.
        let mut s: TupleSet = (0..6u32).chain(std::iter::once(1_000_000)).collect();
        assert!(s.is_runs());
        let low: TupleSet = (0..1_000).collect();
        assert!(low.is_runs());
        s.and_assign(&low);
        assert!(s.is_bitmap(), "span collapsed; one word is now smaller");
        assert_eq!(s, (0..6u32).collect::<TupleSet>());
        assert_canonical(&s);
    }

    #[test]
    fn and_collapses_bitmap_under_the_threshold() {
        // A run against a striped bitmap sharing only its last five ids:
        // the bitmap result demotes to one run.
        let big: TupleSet = (0..40_000).collect();
        let mask: TupleSet = (40_000 - 5..40_000)
            .chain((50_000..60_000).step_by(2))
            .collect();
        assert!(big.is_runs() && mask.is_bitmap());
        let sparse = big.and(&mask);
        assert!(sparse.is_runs(), "tiny contiguous residue is one run");
        assert_eq!(sparse.heap_bytes(), 8);
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
        assert!(all_but_two.is_runs());
        let nearly = striped.and(&all_but_two);
        assert!(nearly.is_bitmap());
        assert_eq!(nearly.count(), 20_000 - 2);
        assert_canonical(&nearly);
    }

    #[test]
    fn mixed_container_ops_in_all_argument_orders() {
        let sparse = strided(3, 4, 40_000); // array: ids 3, 40003, 80003, 120003
        let dense: TupleSet = (0..1_500).collect(); // runs: one run
        let striped: TupleSet = (0..3_000).step_by(2).collect(); // bitmap
        assert!(sparse.is_array() && dense.is_runs() && striped.is_bitmap());

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
        // array, run and bitmap operands in every pairing reduce to plain
        // set semantics, and every result re-establishes the container
        // rule.
        let shapes = [
            strided(0, 40, WIDE),                     // scattered array
            (3..1_403).collect::<TupleSet>(),         // single run
            (0..600).chain(10_000..10_600).collect(), // two runs
            strided(1, ARRAY_MAX, WIDE),              // array at the cap
            strided(0, 2 * ARRAY_MAX + 1, 2),         // striped bitmap
            (0..64).collect::<TupleSet>(),            // one-word bitmap
        ];
        assert!(shapes[0].is_array() && shapes[3].is_array());
        assert!(shapes[1].is_runs() && shapes[2].is_runs());
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
        // one of the nine receiver × operand pairs is met in both
        // argument orders; the arrays differ enough in size to take the
        // gallop path against each other.
        let shapes = [
            strided(0, 20, WIDE * 8),                           // array
            strided(WIDE, ARRAY_MAX, WIDE),                     // array, > GALLOP_SKEW× larger
            (0..2_000).collect::<TupleSet>(),                   // one run
            (500..900).chain(WIDE * 10..WIDE * 12).collect(),   // two runs
            strided(0, 2 * ARRAY_MAX + 1, 2),                   // striped bitmap
            (0..64).chain((3_000..4_000).step_by(3)).collect(), // bitmap
        ];
        assert!(shapes[0].is_array() && shapes[1].is_array());
        assert!(shapes[2].is_runs() && shapes[3].is_runs());
        assert!(shapes[4].is_bitmap() && shapes[5].is_bitmap());
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
        assert_eq!(pairs.len(), 9);
    }

    #[test]
    fn each_merge_walk_stops_at_the_first_false() {
        // array×array: the merge path (3 vs 10) and the gallop path
        // (3 vs 100), in both argument orders.
        let few: Vec<u32> = vec![0, 5, 9];
        let (near, far): (Vec<u32>, Vec<u32>) = ((0..10).collect(), (0..100).collect());
        assert!(few.len() * GALLOP_SKEW >= near.len() && few.len() * GALLOP_SKEW < far.len());
        for other in [&near, &far] {
            for (x, y) in [(&few, other), (other, &few)] {
                assert_eq!(visits(|f| for_each_common(x, y, |_| f())), (3, 1));
            }
        }
        // runs×runs: the sweep (1 vs 2 runs) and the seek path (1 vs 40).
        let one: Vec<Run> = vec![(0, 1_000)];
        let two: Vec<Run> = vec![(0, 10), (100, 10)];
        let forty: Vec<Run> = (0..40).map(|k| (k * 20, 10)).collect();
        assert!(one.len() * GALLOP_SKEW >= two.len() && one.len() * GALLOP_SKEW < forty.len());
        for (other, hits) in [(&two, 2), (&forty, 40)] {
            for (x, y) in [(&one, other), (other, &one)] {
                assert_eq!(visits(|f| for_each_overlap(x, y, |_, _| f())), (hits, 1));
            }
        }
        // array×runs has a single path and a fixed argument order.
        let ids: Vec<u32> = vec![0, 5, 9, 500];
        assert_eq!(visits(|f| for_each_in_runs(&ids, &two, |_| f())), (3, 1));
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
    fn memory_footprint_shrinks_for_sparse_and_runny_sets() {
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
        // a year-range-shaped set: contiguous ids, 8 bytes total
        let range: TupleSet = (2_000..12_000).collect();
        assert!(range.is_runs());
        assert_eq!(range.heap_bytes(), 8);
        assert_eq!(range.to_bitset().heap_bytes(), (11_999 / 64 + 1) * 8);
        assert_eq!(TupleSet::from_bitset(range.to_bitset()), range);
    }

    #[test]
    fn from_unsorted_dedups_and_picks_container() {
        let s = TupleSet::from_unsorted(vec![WIDE * 5, 1, WIDE * 5, WIDE * 3, 1]);
        assert_eq!(s.iter().collect::<Vec<_>>(), vec![1, WIDE * 3, WIDE * 5]);
        assert!(s.is_array());
        let big = TupleSet::from_unsorted((0..3_000).rev().collect());
        assert!(big.is_runs());
        assert_eq!(big.count(), 3_000);
    }

    #[test]
    fn several_runs_in_one_word_accumulate_against_bitmaps() {
        // Two runs inside the same 64-bit word: masked-word ops must OR
        // their contributions, not overwrite them.
        let runs: TupleSet = (0..20).chain(30..50).chain(100..760).collect();
        assert!(runs.is_runs());
        let striped: TupleSet = (0..760).step_by(2).collect();
        assert!(striped.is_bitmap());
        let want: Vec<u32> = (0..20)
            .chain(30..50)
            .chain(100..760)
            .filter(|id| id % 2 == 0)
            .collect();
        for (a, b) in [(&runs, &striped), (&striped, &runs)] {
            assert_eq!(a.and(b).iter().collect::<Vec<_>>(), want);
            assert_eq!(a.and_count(b), want.len());
            assert_eq!(a.and(b).count(), a.and_count(b));
        }
        assert_eq!(runs.or(&striped).count(), 700 + 380 - want.len());
    }

    #[test]
    fn for_each_range_covers_exactly_the_iterated_ids() {
        let shapes = [
            TupleSet::new(),
            set(&[7]),
            strided(0, 40, WIDE),                     // array
            (0..600).chain(10_000..10_600).collect(), // runs
            strided(0, 2 * ARRAY_MAX + 1, 2),         // striped bitmap
            (0..64).collect(),                        // full-word bitmap
            (30..70).step_by(3).chain(100..170).collect(),
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

    #[test]
    fn runs_ending_at_the_id_space_ceiling_convert_without_overflow() {
        // A run whose exclusive end is 2^32: converting it out of the
        // run container must widen before computing the end.
        let mut s: TupleSet = (0..10u32).chain([u32::MAX - 1, u32::MAX]).collect();
        assert!(s.is_runs());
        assert!(s.contains(u32::MAX));
        // shatter the low run against a run mask so the rule re-picks
        // the array
        let mask: TupleSet = (0..10u32)
            .step_by(2)
            .chain(u32::MAX - 1_000..=u32::MAX)
            .collect();
        assert!(mask.is_runs());
        s.and_assign(&mask);
        assert!(s.is_array(), "scattered survivors fall back to the array");
        assert_eq!(
            s.iter().collect::<Vec<_>>(),
            (0..10u32)
                .step_by(2)
                .chain([u32::MAX - 1, u32::MAX])
                .collect::<Vec<_>>()
        );
        assert_canonical(&s);
    }

    #[test]
    fn run_iteration_and_probes_cross_word_boundaries() {
        // Two runs over 8 words — exactly at the RUN_COST_FACTOR·r = w
        // boundary, so the run container holds.
        let s: TupleSet = (60..70).chain(200..466).collect();
        assert!(s.is_runs());
        assert_eq!(
            s.iter().collect::<Vec<_>>(),
            (60..70).chain(200..466).collect::<Vec<_>>()
        );
        assert!(s.contains(60) && s.contains(69) && s.contains(465));
        assert!(!s.contains(59) && !s.contains(70) && !s.contains(466));
        assert_eq!(s.count(), 276);
        // bitmap round trip hits the word-mask edges
        assert_eq!(TupleSet::from_bitset(s.to_bitset()), s);
    }
}
