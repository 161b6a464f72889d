//! Monthly ground-truth snapshots, and the O(output) views over them.
//!
//! A [`Snapshot`] is what one full scan of the announced space would have
//! produced for one protocol in one month: the sorted set of responsive
//! addresses. The paper's evaluation uses 7 monthly snapshots × 4 protocols
//! from censys.io as ground truth; this module provides the same object,
//! sourced from the simulation, with the set operations the strategies
//! need (membership, intersection counting) and a compact binary
//! serialisation so generated universes can be cached on disk.
//!
//! # Cost model
//!
//! Matrix campaigns touch the same `(month, protocol)` snapshot from
//! every strategy, repetition, and worker, so per-cycle work must be
//! proportional to what a cycle *produces*, not to the size of the
//! universe. Two pieces enforce that:
//!
//! * **One bulk counting path.** Every ranking counts through
//!   [`PrefixCount::count_prefixes_into`], which sweeps an ascending
//!   prefix sequence (sorted view units, sorted plan prefixes) over the
//!   sorted host list with a galloping cursor — O(Σ log gapᵢ) total, no
//!   hashing, no lock, and nothing cached inside the shared
//!   [`Arc<Snapshot>`]. [`PrefixCount`] is the trait rankings are
//!   generic over; a single point query is one binary search.
//! * **Copy-free feedback.** A [`HostSetView`] is an `Arc<Snapshot>`
//!   plus sorted disjoint index ranges into its host list: the per-cycle
//!   "responsive set" of a simulated scan without cloning, sorting, or
//!   allocating anything proportional to the host count. A full-scan
//!   cycle is a single `(0, n)` range; a prefix-plan cycle is the
//!   interval union of the per-prefix slices (so overlapping prefixes
//!   have explicit set-union semantics). [`HostSetView::materialize`] is
//!   the escape hatch back to an owned [`HostSet`], and the serde form
//!   is byte-identical to the eager set's, so downstream digests cannot
//!   tell the difference.
//! * **Mapped decode.** [`Snapshot::decode_mapped`] validates a
//!   snapshot buffer in one sequential pass and then serves the
//!   address section *in place*: the [`HostSet`] decodes fixed-width
//!   LE addresses on access instead of rebuilding a `Vec`, so loading
//!   a month costs O(header) + one scan and its resident memory is the
//!   shared file buffer ([`Snapshot::resident_bytes`]). Everything
//!   above runs unchanged over either representation because every set
//!   operation goes through rank-indexed accessors.

use crate::protocol::Protocol;
use bytes::{BufMut, Bytes, BytesMut};
use std::fmt;
use std::sync::Arc;
use tass_net::{AddrFamily, Prefix, V4};

/// Anything that can report how many of its member hosts a prefix
/// covers. Density rankings are generic over this, so they can run
/// against an owned [`HostSet`] or a shared [`Snapshot`] (binary
/// search), or a per-cycle [`HostSetView`] (range arithmetic) without
/// materialising anything.
pub trait PrefixCount<F: AddrFamily = V4> {
    /// Count member hosts covered by `p`.
    fn count_in_prefix(&self, p: Prefix<F>) -> usize;

    /// Bulk counting: append one count per prefix to `out`, in input
    /// order. Implementations over sorted storage override this with a
    /// monotone sweep — a cursor remembers where the previous prefix
    /// began, so an ascending prefix sequence (sorted view units, sorted
    /// plan prefixes: the hot feedback-cycle case) costs short forward
    /// gallops instead of one full-width binary search per prefix.
    /// Out-of-order prefixes stay correct everywhere; they just pay the
    /// full search again.
    fn count_prefixes_into(
        &self,
        prefixes: &mut dyn Iterator<Item = Prefix<F>>,
        out: &mut Vec<u64>,
    ) {
        for p in prefixes {
            out.push(self.count_in_prefix(p) as u64);
        }
    }

    /// Sum of the per-prefix counts, with no output allocation: the
    /// same monotone sweep as [`PrefixCount::count_prefixes_into`], but
    /// the sink is an accumulator. This is what a plan-evaluation loop
    /// wants — it only ever summed the vector anyway.
    fn count_prefixes_total(&self, prefixes: &mut dyn Iterator<Item = Prefix<F>>) -> u64 {
        let mut total = 0u64;
        for p in prefixes {
            total += self.count_in_prefix(p) as u64;
        }
        total
    }
}

/// `partition_point` found by exponential probing from the front of the
/// slice: O(log d) in the distance `d` to the answer instead of O(log n)
/// in the slice length. `pred` must be monotone (true on a prefix of the
/// slice), exactly as for `partition_point`.
fn gallop<T>(s: &[T], mut pred: impl FnMut(&T) -> bool) -> usize {
    let mut hi = 1usize;
    while hi < s.len() && pred(&s[hi]) {
        hi <<= 1;
    }
    let lo = hi >> 1;
    let hi = hi.min(s.len());
    lo + s[lo..hi].partition_point(pred)
}

/// The address section of a mapped snapshot: the whole read buffer plus
/// the byte offset and element count of the sorted fixed-width LE
/// address section inside it. Element `i` is decoded on access from
/// `W` little-endian bytes at `off + i·W` — no per-host `Vec` is ever
/// rebuilt, and clones share the buffer.
#[derive(Clone)]
struct MappedAddrs<F: AddrFamily> {
    buf: Bytes,
    off: usize,
    count: usize,
    _family: std::marker::PhantomData<fn() -> F>,
}

impl<F: AddrFamily> MappedAddrs<F> {
    #[inline]
    fn get(&self, i: usize) -> F::Addr {
        debug_assert!(i < self.count);
        let w = usize::from(F::BITS / 8);
        let p = self.off + i * w;
        let mut raw = [0u8; 16];
        raw[..w].copy_from_slice(&self.buf[p..p + w]);
        F::addr_from_u128(u128::from_le_bytes(raw))
    }
}

/// Rank-indexed read access to ascending addresses: an owned slice or
/// a mapped section. The [`HostSet`] searches are generic over it, so a
/// search matches the set's representation once and then runs a loop
/// specialised to that storage, with no dispatch per step.
trait Ranks<F: AddrFamily> {
    fn len(&self) -> usize;

    fn at(&self, i: usize) -> F::Addr;

    /// Binary search over ranks `[lo, hi)`: first rank where `pred`
    /// turns false. `pred` must be monotone over the ascending members.
    #[inline]
    fn partition_in(
        &self,
        mut lo: usize,
        mut hi: usize,
        mut pred: impl FnMut(F::Addr) -> bool,
    ) -> usize {
        while lo < hi {
            let mid = lo + (hi - lo) / 2;
            if pred(self.at(mid)) {
                lo = mid + 1;
            } else {
                hi = mid;
            }
        }
        lo
    }

    /// [`gallop`] over ranks, starting at `base`.
    #[inline]
    fn gallop_from(&self, base: usize, mut pred: impl FnMut(F::Addr) -> bool) -> usize {
        let len = self.len() - base;
        let mut hi = 1usize;
        while hi < len && pred(self.at(base + hi)) {
            hi <<= 1;
        }
        let lo = hi >> 1;
        let hi = hi.min(len);
        self.partition_in(base + lo, base + hi, pred)
    }
}

impl<F: AddrFamily> Ranks<F> for [F::Addr] {
    #[inline]
    fn len(&self) -> usize {
        <[F::Addr]>::len(self)
    }

    #[inline]
    fn at(&self, i: usize) -> F::Addr {
        self[i]
    }

    #[inline]
    fn partition_in(&self, lo: usize, hi: usize, mut pred: impl FnMut(F::Addr) -> bool) -> usize {
        lo + self[lo..hi].partition_point(|&a| pred(a))
    }
}

impl<F: AddrFamily> Ranks<F> for MappedAddrs<F> {
    #[inline]
    fn len(&self) -> usize {
        self.count
    }

    #[inline]
    fn at(&self, i: usize) -> F::Addr {
        self.get(i)
    }
}

/// Bind `$r` to a set's storage as a [`Ranks`] implementor and evaluate
/// `$body` once per representation: the one `match` a search pays.
macro_rules! with_ranks {
    ($set:expr, $r:ident => $body:expr) => {
        match &$set.repr {
            SetRepr::Owned(v) => {
                let $r: &[F::Addr] = v;
                $body
            }
            SetRepr::Mapped(m) => {
                let $r = m;
                $body
            }
        }
    };
}

/// How a [`HostSet`] stores its sorted addresses: an owned `Vec`, or a
/// section of a decoded snapshot buffer read in place.
#[derive(Clone)]
enum SetRepr<F: AddrFamily> {
    Owned(Vec<F::Addr>),
    Mapped(MappedAddrs<F>),
}

/// A sorted, deduplicated set of responsive addresses, generic over the
/// address family (the default `HostSet` is IPv4, `HostSet<V6>` carries
/// `u128` addresses).
///
/// This is the "host set" unit of the whole evaluation: hitrates are
/// ratios of intersections of these sets.
///
/// The storage is either an owned `Vec` or a *mapped* section of a
/// snapshot file buffer ([`Snapshot::decode_mapped`]): sorted
/// fixed-width little-endian addresses decoded on access. All set
/// operations go through rank-indexed accessors ([`HostSet::get`],
/// [`HostSet::lower_bound`], [`HostSet::upper_bound`]), so they cost
/// the same O(log n) searches over either representation and a corpus
/// replay never pays an O(hosts) decode per month load.
///
/// A search dispatches on the representation **once**, then runs a loop
/// specialised to that storage: over an owned set,
/// [`HostSet::contains`] is a plain slice `binary_search` and the bound
/// searches are slice `partition_point`s. Only [`HostSet::get`], a
/// single-rank access, matches per call.
#[derive(Clone)]
pub struct HostSet<F: AddrFamily = V4> {
    repr: SetRepr<F>,
}

impl<F: AddrFamily> HostSet<F> {
    /// Build from an arbitrary address list (sorted and deduplicated here).
    pub fn from_addrs(mut addrs: Vec<F::Addr>) -> Self {
        addrs.sort_unstable();
        addrs.dedup();
        HostSet {
            repr: SetRepr::Owned(addrs),
        }
    }

    /// Build from a list that is already sorted and unique.
    ///
    /// Panics in debug builds if the precondition is violated.
    pub fn from_sorted_unique(addrs: Vec<F::Addr>) -> Self {
        debug_assert!(
            addrs.windows(2).all(|w| w[0] < w[1]),
            "addrs not sorted/unique"
        );
        HostSet {
            repr: SetRepr::Owned(addrs),
        }
    }

    /// Wrap a validated mapped address section (callers guarantee the
    /// section is in bounds, strictly ascending, fixed-width LE).
    fn from_mapped(buf: Bytes, off: usize, count: usize) -> Self {
        HostSet {
            repr: SetRepr::Mapped(MappedAddrs {
                buf,
                off,
                count,
                _family: std::marker::PhantomData,
            }),
        }
    }

    /// The address at rank `i` (ascending). Panics if `i >= len()`.
    #[inline]
    pub fn get(&self, i: usize) -> F::Addr {
        match &self.repr {
            SetRepr::Owned(v) => v[i],
            SetRepr::Mapped(m) => m.get(i),
        }
    }

    /// Copy the members out into a fresh ascending `Vec`. O(n) — the
    /// escape hatch for callers that genuinely need a slice.
    pub fn to_vec(&self) -> Vec<F::Addr> {
        match &self.repr {
            SetRepr::Owned(v) => v.clone(),
            SetRepr::Mapped(m) => (0..m.count).map(|i| m.get(i)).collect(),
        }
    }

    /// Is this set a mapped section of a snapshot buffer (as opposed to
    /// an owned `Vec`)?
    pub fn is_mapped(&self) -> bool {
        matches!(self.repr, SetRepr::Mapped(_))
    }

    /// Bytes of memory this set keeps resident: the `Vec` storage for
    /// owned sets, the whole shared file buffer for mapped ones (the
    /// buffer is what an eviction actually frees).
    pub fn resident_bytes(&self) -> usize {
        match &self.repr {
            SetRepr::Owned(v) => v.len() * usize::from(F::BITS / 8),
            SetRepr::Mapped(m) => m.buf.len(),
        }
    }

    /// Number of hosts.
    pub fn len(&self) -> usize {
        match &self.repr {
            SetRepr::Owned(v) => v.len(),
            SetRepr::Mapped(m) => m.count,
        }
    }

    /// Is the set empty?
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// First rank whose address is `>= addr` (a `partition_point` over
    /// ranks; O(log n) either representation).
    pub fn lower_bound(&self, addr: F::Addr) -> usize {
        with_ranks!(self, r => Ranks::<F>::partition_in(r, 0, r.len(), |a| a < addr))
    }

    /// First rank whose address is `> addr`.
    pub fn upper_bound(&self, addr: F::Addr) -> usize {
        with_ranks!(self, r => Ranks::<F>::partition_in(r, 0, r.len(), |a| a <= addr))
    }

    /// [`gallop`] over ranks, starting at `base`: first rank `>= base`
    /// where `pred` turns false, found by exponential probing — O(log d)
    /// in the distance `d`, not O(log n).
    pub(crate) fn gallop_from(&self, base: usize, pred: impl FnMut(F::Addr) -> bool) -> usize {
        with_ranks!(self, r => Ranks::<F>::gallop_from(r, base, pred))
    }

    /// Membership test: a slice `binary_search` for owned sets, a
    /// rank search over the mapped section otherwise.
    pub fn contains(&self, addr: F::Addr) -> bool {
        match &self.repr {
            SetRepr::Owned(v) => v.binary_search(&addr).is_ok(),
            SetRepr::Mapped(m) => {
                let i = Ranks::<F>::partition_in(m, 0, m.count, |a| a < addr);
                i < m.count && m.get(i) == addr
            }
        }
    }

    /// Size of the intersection with another host set (linear merge).
    pub fn intersection_count(&self, other: &HostSet<F>) -> usize {
        let (mut i, mut j, mut n) = (0usize, 0usize, 0usize);
        while i < self.len() && j < other.len() {
            match self.get(i).cmp(&other.get(j)) {
                std::cmp::Ordering::Less => i += 1,
                std::cmp::Ordering::Greater => j += 1,
                std::cmp::Ordering::Equal => {
                    n += 1;
                    i += 1;
                    j += 1;
                }
            }
        }
        n
    }

    /// Count how many members fall within `[first, last]` (inclusive).
    /// O(log n) — used to count hosts per prefix.
    pub fn count_in_range(&self, first: F::Addr, last: F::Addr) -> usize {
        self.upper_bound(last) - self.lower_bound(first)
    }

    /// Count members covered by a prefix.
    pub fn count_in_prefix(&self, p: Prefix<F>) -> usize {
        self.count_in_range(p.first(), p.last())
    }

    /// The shared monotone counting sweep: ascending prefixes advance a
    /// cursor by galloping, so counting a whole sorted view costs
    /// O(Σ log gapᵢ) comparisons total — not `k` full binary searches,
    /// and no hashing or locking. Each prefix's count goes to `sink`,
    /// so bulk counting ([`PrefixCount::count_prefixes_into`]) and
    /// allocation-free totalling
    /// ([`PrefixCount::count_prefixes_total`]) share one body.
    fn sweep_prefix_counts(
        &self,
        prefixes: &mut dyn Iterator<Item = Prefix<F>>,
        sink: &mut dyn FnMut(u64),
    ) {
        // ranks `[..cursor]` are < the previous prefix's first address;
        // nested prefixes (next.first inside the previous span) keep the
        // cursor at `lo`, not `hi`, so the invariant holds under overlap.
        let mut cursor = 0usize;
        let mut prev_first: Option<F::Addr> = None;
        for p in prefixes {
            let (first, last) = (p.first(), p.last());
            if prev_first.is_some_and(|pf| first < pf) {
                cursor = 0;
            }
            let lo = self.gallop_from(cursor, |a| a < first);
            let hi = self.gallop_from(lo, |a| a <= last);
            sink((hi - lo) as u64);
            cursor = lo;
            prev_first = Some(first);
        }
    }

    /// Bulk counting into an output vector; see
    /// [`PrefixCount::count_prefixes_into`].
    pub fn count_prefixes_into(
        &self,
        prefixes: &mut dyn Iterator<Item = Prefix<F>>,
        out: &mut Vec<u64>,
    ) {
        self.sweep_prefix_counts(prefixes, &mut |c| out.push(c));
    }

    /// Iterate members ascending.
    pub fn iter(&self) -> impl Iterator<Item = F::Addr> + '_ {
        (0..self.len()).map(move |i| self.get(i))
    }
}

impl<F: AddrFamily> Default for HostSet<F> {
    fn default() -> Self {
        HostSet {
            repr: SetRepr::Owned(Vec::new()),
        }
    }
}

// Sets compare as sets, independent of representation (a mapped month
// equals its eagerly decoded twin).
impl<F: AddrFamily> PartialEq for HostSet<F> {
    fn eq(&self, other: &Self) -> bool {
        match (&self.repr, &other.repr) {
            (SetRepr::Owned(a), SetRepr::Owned(b)) => a == b,
            _ => self.len() == other.len() && self.iter().eq(other.iter()),
        }
    }
}

impl<F: AddrFamily> Eq for HostSet<F> {}

impl<F: AddrFamily> fmt::Debug for HostSet<F> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let repr = match &self.repr {
            SetRepr::Owned(_) => "owned",
            SetRepr::Mapped(_) => "mapped",
        };
        f.debug_struct("HostSet")
            .field("len", &self.len())
            .field("repr", &repr)
            .finish()
    }
}

// Serializes as the bare sorted address sequence; `from_addrs` on the
// way back re-establishes the sorted/deduplicated invariant, so the
// serde form is canonical: equal sets produce byte-equal JSON whatever
// the representation.
impl<F: AddrFamily> serde::Serialize for HostSet<F> {
    fn to_value(&self) -> serde::Value {
        serde::Value::Seq(self.iter().map(|a| a.to_value()).collect())
    }
}

impl<F: AddrFamily> serde::Deserialize for HostSet<F> {
    fn from_value(v: &serde::Value) -> Result<Self, serde::DeError> {
        let addrs = <Vec<F::Addr> as serde::Deserialize>::from_value(v)?;
        Ok(HostSet::from_addrs(addrs))
    }
}

impl<F: AddrFamily> FromIterator<F::Addr> for HostSet<F> {
    fn from_iter<I: IntoIterator<Item = F::Addr>>(iter: I) -> Self {
        HostSet::from_addrs(iter.into_iter().collect())
    }
}

impl<F: AddrFamily> PrefixCount<F> for HostSet<F> {
    fn count_in_prefix(&self, p: Prefix<F>) -> usize {
        HostSet::count_in_prefix(self, p)
    }

    fn count_prefixes_into(
        &self,
        prefixes: &mut dyn Iterator<Item = Prefix<F>>,
        out: &mut Vec<u64>,
    ) {
        HostSet::count_prefixes_into(self, prefixes, out)
    }

    fn count_prefixes_total(&self, prefixes: &mut dyn Iterator<Item = Prefix<F>>) -> u64 {
        let mut total = 0u64;
        self.sweep_prefix_counts(prefixes, &mut |c| total += c);
        total
    }
}

/// One protocol's ground truth for one month, generic over the family.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Snapshot<F: AddrFamily = V4> {
    /// The protocol scanned.
    pub protocol: Protocol,
    /// Month index since the seeding scan (0 = t₀).
    pub month: u32,
    /// The responsive hosts.
    pub hosts: HostSet<F>,
}

impl<F: AddrFamily> Snapshot<F> {
    /// Construct a snapshot.
    pub fn new(protocol: Protocol, month: u32, hosts: HostSet<F>) -> Self {
        Snapshot {
            protocol,
            month,
            hosts,
        }
    }

    /// Number of responsive hosts (the paper's `N` at t₀).
    pub fn len(&self) -> usize {
        self.hosts.len()
    }

    /// Is the snapshot empty?
    pub fn is_empty(&self) -> bool {
        self.hosts.is_empty()
    }

    /// Bytes of memory this snapshot keeps resident (the host storage —
    /// owned `Vec` or shared file buffer). This is what a byte-budgeted
    /// month cache accounts evictions in.
    pub fn resident_bytes(&self) -> usize {
        self.hosts.resident_bytes()
    }
}

impl<F: AddrFamily> PrefixCount<F> for Snapshot<F> {
    fn count_in_prefix(&self, p: Prefix<F>) -> usize {
        self.hosts.count_in_prefix(p)
    }

    fn count_prefixes_into(
        &self,
        prefixes: &mut dyn Iterator<Item = Prefix<F>>,
        out: &mut Vec<u64>,
    ) {
        self.hosts.count_prefixes_into(prefixes, out)
    }

    fn count_prefixes_total(&self, prefixes: &mut dyn Iterator<Item = Prefix<F>>) -> u64 {
        PrefixCount::count_prefixes_total(&self.hosts, prefixes)
    }
}

/// A copy-free view of a subset of one snapshot's hosts: the
/// `Arc<Snapshot>` plus sorted, disjoint, half-open index ranges into
/// its (sorted, deduplicated) host list.
///
/// This is what a feedback cycle hands back as its responsive set.
/// Building one costs O(prefixes log n) — never O(hosts) — and all the
/// set operations the strategies use (`len`, `contains`,
/// `count_in_prefix`, ordered iteration) work directly on the ranges.
/// Overlapping prefixes are resolved by interval union, i.e. genuine
/// set-union semantics. The serde form is the bare sorted address
/// sequence, byte-identical to the eager [`HostSet`] encoding.
#[derive(Clone)]
pub struct HostSetView<F: AddrFamily = V4> {
    repr: Repr<F>,
}

#[derive(Clone)]
enum Repr<F: AddrFamily> {
    /// Sorted, disjoint, non-empty half-open ranges into `snap.hosts`.
    /// `cum[i]` is the total number of members in `ranges[..i]`.
    Ranges {
        snap: Arc<Snapshot<F>>,
        ranges: Vec<(usize, usize)>,
        cum: Vec<usize>,
        len: usize,
    },
    /// An owned set, for views that do not subset a snapshot (address
    /// hitlists, per-cycle samples, deserialised feedback).
    Owned(HostSet<F>),
}

impl<F: AddrFamily> HostSetView<F> {
    /// The full snapshot as a view — an `All`-plan cycle's responsive
    /// set. One `Arc` clone; no host-proportional allocation.
    pub fn full(snap: Arc<Snapshot<F>>) -> Self {
        let n = snap.hosts.len();
        let ranges = if n > 0 { vec![(0, n)] } else { Vec::new() };
        HostSetView {
            repr: Repr::Ranges {
                snap,
                cum: vec![0; ranges.len()],
                len: n,
                ranges,
            },
        }
    }

    /// The hosts covered by a prefix list, as the interval union of the
    /// per-prefix slices: overlapping prefixes contribute their union,
    /// never a double count. O(prefixes log hosts) to build; no
    /// host-proportional allocation.
    pub fn from_prefixes(snap: Arc<Snapshot<F>>, prefixes: &[Prefix<F>]) -> Self {
        let hosts = &snap.hosts;
        // Plan prefixes arrive sorted on the hot path (strategies plan in
        // address order), so the spans fall out of a galloping sweep
        // already ordered by start and the sort below is skipped.
        let sorted = prefixes.windows(2).all(|w| w[0] <= w[1]);
        let mut spans: Vec<(usize, usize)> = Vec::with_capacity(prefixes.len());
        let mut cursor = 0usize;
        for &p in prefixes {
            let lo = if sorted {
                hosts.gallop_from(cursor, |a| a < p.first())
            } else {
                hosts.lower_bound(p.first())
            };
            let hi = hosts.gallop_from(lo, |a| a <= p.last());
            cursor = lo;
            if lo < hi {
                spans.push((lo, hi));
            }
        }
        if !sorted {
            spans.sort_unstable();
        }
        // Interval union: merge overlapping or adjacent spans.
        let mut ranges: Vec<(usize, usize)> = Vec::with_capacity(spans.len());
        for (s, e) in spans {
            match ranges.last_mut() {
                Some(last) if s <= last.1 => last.1 = last.1.max(e),
                _ => ranges.push((s, e)),
            }
        }
        let mut cum = Vec::with_capacity(ranges.len());
        let mut len = 0usize;
        for &(s, e) in &ranges {
            cum.push(len);
            len += e - s;
        }
        HostSetView {
            repr: Repr::Ranges {
                snap,
                ranges,
                cum,
                len,
            },
        }
    }

    /// Wrap an owned host set (hitlist plans, per-cycle samples).
    pub fn owned(hosts: HostSet<F>) -> Self {
        HostSetView {
            repr: Repr::Owned(hosts),
        }
    }

    /// Number of hosts in the view.
    pub fn len(&self) -> usize {
        match &self.repr {
            Repr::Ranges { len, .. } => *len,
            Repr::Owned(h) => h.len(),
        }
    }

    /// Is the view empty?
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Members of `ranges[..]` with host index < `idx` (a rank query).
    fn rank(ranges: &[(usize, usize)], cum: &[usize], idx: usize) -> usize {
        let i = ranges.partition_point(|&(s, _)| s < idx);
        if i == 0 {
            return 0;
        }
        let (s, e) = ranges[i - 1];
        cum[i - 1] + idx.min(e) - s
    }

    /// Membership test (binary search, then a range lookup).
    pub fn contains(&self, addr: F::Addr) -> bool {
        match &self.repr {
            Repr::Ranges { snap, ranges, .. } => {
                let idx = snap.hosts.lower_bound(addr);
                if idx >= snap.hosts.len() || snap.hosts.get(idx) != addr {
                    return false;
                }
                let i = ranges.partition_point(|&(s, _)| s <= idx);
                i > 0 && idx < ranges[i - 1].1
            }
            Repr::Owned(h) => h.contains(addr),
        }
    }

    /// Count how many members fall within `[first, last]` (inclusive) —
    /// two binary searches plus two rank queries.
    pub fn count_in_range(&self, first: F::Addr, last: F::Addr) -> usize {
        match &self.repr {
            Repr::Ranges {
                snap, ranges, cum, ..
            } => {
                let lo = snap.hosts.lower_bound(first);
                let hi = snap.hosts.upper_bound(last);
                Self::rank(ranges, cum, hi) - Self::rank(ranges, cum, lo)
            }
            Repr::Owned(h) => h.count_in_range(first, last),
        }
    }

    /// Count members covered by a prefix.
    pub fn count_in_prefix(&self, p: Prefix<F>) -> usize {
        self.count_in_range(p.first(), p.last())
    }

    /// Iterate members ascending.
    pub fn iter(&self) -> HostSetViewIter<'_, F> {
        const EMPTY_RANGES: &[(usize, usize)] = &[];
        match &self.repr {
            Repr::Ranges { snap, ranges, .. } => HostSetViewIter {
                hosts: &snap.hosts,
                ranges: ranges.iter(),
                cur: 0..0,
            },
            Repr::Owned(h) => HostSetViewIter {
                hosts: h,
                ranges: EMPTY_RANGES.iter(),
                cur: 0..h.len(),
            },
        }
    }

    /// The escape hatch: copy the view out into an owned, eagerly
    /// materialised [`HostSet`]. O(hosts in the view) — the only
    /// operation here that is.
    pub fn materialize(&self) -> HostSet<F> {
        match &self.repr {
            Repr::Ranges {
                snap, ranges, len, ..
            } => {
                let hosts = &snap.hosts;
                let mut out = Vec::with_capacity(*len);
                for &(s, e) in ranges {
                    out.extend((s..e).map(|i| hosts.get(i)));
                }
                // Disjoint ascending ranges over a sorted unique list.
                HostSet::from_sorted_unique(out)
            }
            Repr::Owned(h) => h.clone(),
        }
    }
}

/// Ascending iterator over a [`HostSetView`]'s members: a cursor of
/// rank ranges into the underlying host set, decoded on access (so it
/// runs unchanged off mapped snapshot bytes).
pub struct HostSetViewIter<'a, F: AddrFamily> {
    hosts: &'a HostSet<F>,
    ranges: std::slice::Iter<'a, (usize, usize)>,
    cur: std::ops::Range<usize>,
}

impl<'a, F: AddrFamily> Iterator for HostSetViewIter<'a, F> {
    type Item = F::Addr;

    fn next(&mut self) -> Option<F::Addr> {
        loop {
            if let Some(i) = self.cur.next() {
                return Some(self.hosts.get(i));
            }
            let &(s, e) = self.ranges.next()?;
            self.cur = s..e;
        }
    }
}

impl<F: AddrFamily> HostSetView<F> {
    /// The range-repr sweep: two galloping cursors, one over the host
    /// ranks and one over the view's ranges, so counting a sorted view's
    /// units against a feedback cycle's responsive view is a single
    /// coordinated pass — not two binary searches plus two rank queries
    /// per unit. Counts go to `sink`, shared by the bulk and the
    /// allocation-free total paths.
    fn sweep_prefix_counts(
        &self,
        prefixes: &mut dyn Iterator<Item = Prefix<F>>,
        sink: &mut dyn FnMut(u64),
    ) {
        match &self.repr {
            Repr::Owned(h) => h.sweep_prefix_counts(prefixes, sink),
            // a full-snapshot view (an `All`-plan cycle) sweeps the host
            // array directly — the rank arithmetic would be a no-op
            Repr::Ranges { snap, len, .. } if *len == snap.hosts.len() => {
                snap.hosts.sweep_prefix_counts(prefixes, sink)
            }
            Repr::Ranges {
                snap, ranges, cum, ..
            } => {
                let hosts = &snap.hosts;
                // count of range members with host index < `idx`, given
                // the partition index `r` (first range with start >= idx)
                let rank_at = |r: usize, idx: usize| -> usize {
                    if r == 0 {
                        return 0;
                    }
                    let (s, e) = ranges[r - 1];
                    cum[r - 1] + idx.min(e) - s
                };
                let mut cursor = 0usize; // into host ranks, as in the HostSet sweep
                let mut rcursor = 0usize; // into ranges: starts before it are < prev lo
                let mut prev_first: Option<F::Addr> = None;
                for p in prefixes {
                    let (first, last) = (p.first(), p.last());
                    if prev_first.is_some_and(|pf| first < pf) {
                        cursor = 0;
                        rcursor = 0;
                    }
                    let lo = hosts.gallop_from(cursor, |a| a < first);
                    let hi = hosts.gallop_from(lo, |a| a <= last);
                    let rlo = rcursor + gallop(&ranges[rcursor..], |&(s, _)| s < lo);
                    let rhi = rlo + gallop(&ranges[rlo..], |&(s, _)| s < hi);
                    sink((rank_at(rhi, hi) - rank_at(rlo, lo)) as u64);
                    cursor = lo;
                    rcursor = rlo;
                    prev_first = Some(first);
                }
            }
        }
    }
}

impl<F: AddrFamily> PrefixCount<F> for HostSetView<F> {
    fn count_in_prefix(&self, p: Prefix<F>) -> usize {
        HostSetView::count_in_prefix(self, p)
    }

    fn count_prefixes_into(
        &self,
        prefixes: &mut dyn Iterator<Item = Prefix<F>>,
        out: &mut Vec<u64>,
    ) {
        self.sweep_prefix_counts(prefixes, &mut |c| out.push(c));
    }

    fn count_prefixes_total(&self, prefixes: &mut dyn Iterator<Item = Prefix<F>>) -> u64 {
        let mut total = 0u64;
        self.sweep_prefix_counts(prefixes, &mut |c| total += c);
        total
    }
}

impl<F: AddrFamily> From<HostSet<F>> for HostSetView<F> {
    fn from(hosts: HostSet<F>) -> Self {
        HostSetView::owned(hosts)
    }
}

// Views compare as the sets they denote, independent of representation.
impl<F: AddrFamily> PartialEq for HostSetView<F> {
    fn eq(&self, other: &Self) -> bool {
        self.len() == other.len() && self.iter().eq(other.iter())
    }
}

impl<F: AddrFamily> Eq for HostSetView<F> {}

impl<F: AddrFamily> fmt::Debug for HostSetView<F> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let form = match &self.repr {
            Repr::Ranges { ranges, .. } => format!("ranges[{}]", ranges.len()),
            Repr::Owned(_) => "owned".to_string(),
        };
        f.debug_struct("HostSetView")
            .field("len", &self.len())
            .field("repr", &form)
            .finish()
    }
}

// Byte-identical to `HostSet`'s serde form: the bare sorted address
// sequence. A round trip comes back `Owned` — representation is not
// part of the wire format.
impl<F: AddrFamily> serde::Serialize for HostSetView<F> {
    fn to_value(&self) -> serde::Value {
        serde::Value::Seq(self.iter().map(|a| a.to_value()).collect())
    }
}

impl<F: AddrFamily> serde::Deserialize for HostSetView<F> {
    fn from_value(v: &serde::Value) -> Result<Self, serde::DeError> {
        Ok(HostSetView::owned(HostSet::from_value(v)?))
    }
}

/// Errors decoding the binary snapshot format.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DecodeError {
    /// Wrong magic bytes at the start.
    BadMagic,
    /// The input is a valid snapshot of the *other* address family
    /// (the magic identifies the family; a v6 snapshot cannot decode as
    /// a v4 one or vice versa).
    WrongFamily {
        /// Family the input encodes (`"IPv4"` / `"IPv6"`).
        found: &'static str,
        /// Family the decoder expected.
        expected: &'static str,
    },
    /// Unsupported format version.
    BadVersion(u8),
    /// Unknown protocol tag.
    BadProtocol(u8),
    /// Input shorter than the declared payload.
    Truncated,
    /// Addresses not strictly ascending (corrupt payload).
    Unsorted,
    /// A v2 header declares a section offset that cannot hold a header
    /// (the offset must be at least the fixed header length).
    BadSection(u32),
}

impl fmt::Display for DecodeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DecodeError::BadMagic => write!(f, "snapshot: bad magic"),
            DecodeError::WrongFamily { found, expected } => {
                write!(f, "snapshot: {found} data, expected {expected}")
            }
            DecodeError::BadVersion(v) => write!(f, "snapshot: unsupported version {v}"),
            DecodeError::BadProtocol(p) => write!(f, "snapshot: unknown protocol tag {p}"),
            DecodeError::Truncated => write!(f, "snapshot: truncated input"),
            DecodeError::Unsorted => write!(f, "snapshot: addresses not sorted"),
            DecodeError::BadSection(off) => {
                write!(f, "snapshot: bad address-section offset {off}")
            }
        }
    }
}

impl std::error::Error for DecodeError {}

const MAGIC_V4: &[u8; 4] = b"TSS1";
const MAGIC_V6: &[u8; 4] = b"TSS6";
const VERSION: u8 = 1;
/// Format version with an explicit, aligned address section
/// ([`Snapshot::encode_aligned`]) — the form [`Snapshot::decode_mapped`]
/// serves without rebuilding a `Vec`.
pub(crate) const VERSION_ALIGNED: u8 = 2;
/// Byte length of the fixed v1 header (also the v1 address-section
/// offset): magic(4) version(1) protocol(1) month(4) count(8).
const HEADER_V1_LEN: usize = 18;
/// Byte length of the v2 fixed header: the v1 fields plus the
/// `section_off` u32.
const HEADER_V2_LEN: usize = 22;
/// Where v2 writers place the address section: the first 64-byte
/// boundary after the header, so fixed-width reads never straddle a
/// cache line more than the address width forces.
const SECTION_ALIGN: usize = 64;

/// Magic bytes for a family: `TSS1` keeps the pre-generic IPv4 format
/// byte-identical; 128-bit snapshots are tagged `TSS6`.
fn family_magic<F: AddrFamily>() -> &'static [u8; 4] {
    if F::BITS == 32 {
        MAGIC_V4
    } else {
        MAGIC_V6
    }
}

/// The fixed 64-byte v2 header, as [`Snapshot::encode_aligned`] writes
/// it. Streaming writers emit this with a placeholder count and patch
/// it once the merged address count is known.
pub(crate) fn aligned_header<F: AddrFamily>(
    protocol: Protocol,
    month: u32,
    count: u64,
) -> [u8; SECTION_ALIGN] {
    let mut h = [0u8; SECTION_ALIGN];
    h[..4].copy_from_slice(family_magic::<F>());
    h[4] = VERSION_ALIGNED;
    h[5] = protocol.index() as u8;
    h[6..10].copy_from_slice(&month.to_le_bytes());
    h[10..18].copy_from_slice(&count.to_le_bytes());
    h[18..22].copy_from_slice(&(SECTION_ALIGN as u32).to_le_bytes());
    h
}

/// A parsed snapshot header: everything before the address section.
struct SnapHeader {
    protocol: Protocol,
    month: u32,
    count: usize,
    /// Byte offset of the first address (18 for v1; `section_off` for v2).
    section_off: usize,
}

/// Parse and bounds-check a snapshot header, either version. On
/// success the address section `[section_off, section_off + count·W)`
/// is guaranteed in bounds — address *content* (strict ascent) is the
/// caller's validation pass.
fn parse_header<F: AddrFamily>(data: &[u8]) -> Result<SnapHeader, DecodeError> {
    let width = usize::from(F::BITS / 8);
    if data.len() < HEADER_V1_LEN {
        return Err(DecodeError::Truncated);
    }
    let magic: &[u8; 4] = data[..4].try_into().expect("4-byte slice");
    if magic != family_magic::<F>() {
        return Err(if magic == MAGIC_V4 {
            DecodeError::WrongFamily {
                found: "IPv4",
                expected: F::NAME,
            }
        } else if magic == MAGIC_V6 {
            DecodeError::WrongFamily {
                found: "IPv6",
                expected: F::NAME,
            }
        } else {
            DecodeError::BadMagic
        });
    }
    let version = data[4];
    if version != VERSION && version != VERSION_ALIGNED {
        return Err(DecodeError::BadVersion(version));
    }
    let ptag = data[5];
    let protocol = Protocol::from_index(ptag as usize).ok_or(DecodeError::BadProtocol(ptag))?;
    let month = u32::from_le_bytes(data[6..10].try_into().expect("4-byte slice"));
    let count64 = u64::from_le_bytes(data[10..18].try_into().expect("8-byte slice"));
    let count = usize::try_from(count64).map_err(|_| DecodeError::Truncated)?;
    let section_off = if version == VERSION {
        HEADER_V1_LEN
    } else {
        if data.len() < HEADER_V2_LEN {
            return Err(DecodeError::Truncated);
        }
        let off = u32::from_le_bytes(data[18..22].try_into().expect("4-byte slice"));
        if (off as usize) < HEADER_V2_LEN {
            return Err(DecodeError::BadSection(off));
        }
        off as usize
    };
    let payload = count.checked_mul(width).ok_or(DecodeError::Truncated)?;
    if section_off > data.len() || data.len() - section_off < payload {
        return Err(DecodeError::Truncated);
    }
    Ok(SnapHeader {
        protocol,
        month,
        count,
        section_off,
    })
}

impl<F: AddrFamily> Snapshot<F> {
    /// Encode to the compact binary format:
    /// `magic(4) version(1) protocol(1) month(4 LE) count(8 LE)
    /// addrs(W·n LE)` where `W` is the family's address width in bytes
    /// (4 for IPv4 — bit-identical to the pre-generic format — and 16
    /// for IPv6, under the `TSS6` magic).
    pub fn encode(&self) -> Bytes {
        let width = usize::from(F::BITS / 8);
        let mut buf = BytesMut::with_capacity(18 + width * self.hosts.len());
        buf.put_slice(family_magic::<F>());
        buf.put_u8(VERSION);
        buf.put_u8(self.protocol.index() as u8);
        buf.put_u32_le(self.month);
        buf.put_u64_le(self.hosts.len() as u64);
        for a in self.hosts.iter() {
            buf.put_slice(&F::addr_to_u128(a).to_le_bytes()[..width]);
        }
        buf.freeze()
    }

    /// Encode to the v2 *aligned* binary format:
    /// `magic(4) version=2(1) protocol(1) month(4 LE) count(8 LE)
    /// section_off(4 LE) pad` with the sorted fixed-width LE address
    /// section starting at `section_off` (the first 64-byte boundary).
    /// This is the form [`Snapshot::decode_mapped`] can serve without
    /// rebuilding a `Vec`; [`Snapshot::decode`] reads it too.
    pub fn encode_aligned(&self) -> Bytes {
        let width = usize::from(F::BITS / 8);
        let mut buf = BytesMut::with_capacity(SECTION_ALIGN + width * self.hosts.len());
        buf.put_slice(&aligned_header::<F>(
            self.protocol,
            self.month,
            self.hosts.len() as u64,
        ));
        for a in self.hosts.iter() {
            buf.put_slice(&F::addr_to_u128(a).to_le_bytes()[..width]);
        }
        buf.freeze()
    }

    /// Decode the binary format produced by [`Snapshot::encode`] or
    /// [`Snapshot::encode_aligned`] into an owned snapshot.
    ///
    /// The decoder is family-checked: handing v6 bytes to a v4 decode
    /// (or vice versa) fails with [`DecodeError::WrongFamily`] rather
    /// than misreading addresses.
    pub fn decode(data: &[u8]) -> Result<Snapshot<F>, DecodeError> {
        let width = usize::from(F::BITS / 8);
        let h = parse_header::<F>(data)?;
        let mut addrs = Vec::with_capacity(h.count);
        let mut prev: Option<F::Addr> = None;
        let mut raw = [0u8; 16];
        for i in 0..h.count {
            let p = h.section_off + i * width;
            raw[..width].copy_from_slice(&data[p..p + width]);
            let a = F::addr_from_u128(u128::from_le_bytes(raw));
            if let Some(p) = prev {
                if a <= p {
                    return Err(DecodeError::Unsorted);
                }
            }
            prev = Some(a);
            addrs.push(a);
        }
        Ok(Snapshot::new(
            h.protocol,
            h.month,
            HostSet::from_sorted_unique(addrs),
        ))
    }

    /// Decode a snapshot buffer *in place*: parse and bounds-check the
    /// header, make one strict-ascent validation pass over the address
    /// section, and hand back a snapshot whose host set reads the
    /// section directly out of `buf` — no per-host `Vec` rebuild, so
    /// the decode cost is O(header) + one sequential scan, and the
    /// returned snapshot's memory *is* the (shared) file buffer.
    /// Either format version works; v1's section simply starts at
    /// byte 18.
    pub fn decode_mapped(buf: Bytes) -> Result<Snapshot<F>, DecodeError> {
        let width = usize::from(F::BITS / 8);
        let h = parse_header::<F>(&buf)?;
        let mut prev: Option<u128> = None;
        let mut raw = [0u8; 16];
        for i in 0..h.count {
            let p = h.section_off + i * width;
            raw[..width].copy_from_slice(&buf[p..p + width]);
            let a = u128::from_le_bytes(raw);
            if let Some(pv) = prev {
                if a <= pv {
                    return Err(DecodeError::Unsorted);
                }
            }
            prev = Some(a);
        }
        Ok(Snapshot::new(
            h.protocol,
            h.month,
            HostSet::from_mapped(buf, h.section_off, h.count),
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hs(v: &[u32]) -> HostSet {
        HostSet::from_addrs(v.to_vec())
    }

    #[test]
    fn from_addrs_sorts_and_dedups() {
        let s = hs(&[5, 1, 3, 3, 1]);
        assert_eq!(s.to_vec(), vec![1, 3, 5]);
        assert_eq!(s.get(0), 1);
        assert_eq!(s.get(2), 5);
        assert_eq!(s.len(), 3);
        assert!(!s.is_empty());
        assert!(!s.is_mapped());
        assert!(HostSet::<tass_net::V4>::default().is_empty());
    }

    #[test]
    fn contains_binary_search() {
        let s = hs(&[10, 20, 30]);
        assert!(s.contains(10) && s.contains(30));
        assert!(!s.contains(15) && !s.contains(0) && !s.contains(40));
    }

    #[test]
    fn intersection_count_merge() {
        let a = hs(&[1, 2, 3, 5, 8]);
        let b = hs(&[2, 3, 4, 8, 9]);
        assert_eq!(a.intersection_count(&b), 3);
        assert_eq!(b.intersection_count(&a), 3);
        assert_eq!(a.intersection_count(&HostSet::default()), 0);
        assert_eq!(a.intersection_count(&a), a.len());
    }

    #[test]
    fn range_and_prefix_counts() {
        let s = hs(&[0x0A00_0001, 0x0A00_0002, 0x0A00_0100, 0x0B00_0000]);
        assert_eq!(s.count_in_range(0x0A00_0000, 0x0A00_00FF), 2);
        let p24: tass_net::Prefix = "10.0.0.0/24".parse().unwrap();
        assert_eq!(s.count_in_prefix(p24), 2);
        let p8: tass_net::Prefix = "10.0.0.0/8".parse().unwrap();
        assert_eq!(s.count_in_prefix(p8), 3);
        let all: tass_net::Prefix = "0.0.0.0/0".parse().unwrap();
        assert_eq!(s.count_in_prefix(all), 4);
        let none: tass_net::Prefix = "12.0.0.0/8".parse().unwrap();
        assert_eq!(s.count_in_prefix(none), 0);
    }

    #[test]
    fn count_at_space_boundaries() {
        let s = hs(&[0, u32::MAX]);
        assert_eq!(s.count_in_range(0, u32::MAX), 2);
        assert_eq!(s.count_in_range(1, u32::MAX - 1), 0);
    }

    #[test]
    fn encode_decode_roundtrip() {
        let snap = Snapshot::new(Protocol::Https, 3, hs(&[1, 7, 0xFFFF_FFFF]));
        let bytes = snap.encode();
        let back = Snapshot::decode(&bytes).unwrap();
        assert_eq!(back, snap);
    }

    #[test]
    fn encode_decode_empty() {
        let snap: Snapshot = Snapshot::new(Protocol::Ftp, 0, HostSet::default());
        let back = Snapshot::decode(&snap.encode()).unwrap();
        assert_eq!(back, snap);
        assert_eq!(back.len(), 0);
        assert!(back.is_empty());
    }

    #[test]
    fn decode_rejects_garbage() {
        assert_eq!(Snapshot::<V4>::decode(b""), Err(DecodeError::Truncated));
        assert_eq!(
            Snapshot::<V4>::decode(b"XXXX..............."),
            Err(DecodeError::BadMagic)
        );
        // valid header but truncated payload
        let snap = Snapshot::new(Protocol::Http, 1, hs(&[1, 2, 3]));
        let bytes = snap.encode();
        let cut = &bytes[..bytes.len() - 2];
        assert_eq!(Snapshot::<V4>::decode(cut), Err(DecodeError::Truncated));
    }

    #[test]
    fn decode_rejects_bad_version_and_protocol() {
        let snap = Snapshot::new(Protocol::Http, 1, hs(&[1]));
        let mut bytes = snap.encode().to_vec();
        bytes[4] = 9; // version
        assert_eq!(
            Snapshot::<V4>::decode(&bytes),
            Err(DecodeError::BadVersion(9))
        );
        let mut bytes = snap.encode().to_vec();
        bytes[5] = 77; // protocol tag
        assert_eq!(
            Snapshot::<V4>::decode(&bytes),
            Err(DecodeError::BadProtocol(77))
        );
    }

    #[test]
    fn decode_rejects_unsorted_payload() {
        let snap = Snapshot::new(Protocol::Http, 1, hs(&[1, 2]));
        let mut bytes = snap.encode().to_vec();
        // swap the two addresses
        let n = bytes.len();
        bytes.swap(n - 8, n - 4);
        bytes.swap(n - 7, n - 3);
        bytes.swap(n - 6, n - 2);
        bytes.swap(n - 5, n - 1);
        assert_eq!(Snapshot::<V4>::decode(&bytes), Err(DecodeError::Unsorted));
    }

    #[test]
    fn decode_error_display() {
        for e in [
            DecodeError::BadMagic,
            DecodeError::WrongFamily {
                found: "IPv6",
                expected: "IPv4",
            },
            DecodeError::BadVersion(9),
            DecodeError::BadProtocol(8),
            DecodeError::Truncated,
            DecodeError::Unsorted,
            DecodeError::BadSection(4),
        ] {
            assert!(!e.to_string().is_empty());
        }
    }

    #[test]
    fn aligned_encode_roundtrips_both_decoders() {
        let snap = Snapshot::new(Protocol::Https, 3, hs(&[1, 7, 0xFFFF_FFFF]));
        let aligned = snap.encode_aligned();
        assert_eq!(aligned[4], 2); // version byte
        assert_eq!(aligned.len(), 64 + 4 * 3);
        let owned = Snapshot::decode(&aligned).unwrap();
        assert_eq!(owned, snap);
        let mapped = Snapshot::decode_mapped(aligned).unwrap();
        assert_eq!(mapped, snap);
        assert!(mapped.hosts.is_mapped());
    }

    #[test]
    fn mapped_decode_serves_v1_and_matches_owned_ops() {
        let snap = Snapshot::new(
            Protocol::Http,
            2,
            hs(&[0x0A00_0001, 0x0A00_0002, 0x0A00_0100, 0x0B00_0000]),
        );
        let mapped = Snapshot::decode_mapped(snap.encode()).unwrap();
        assert_eq!(mapped, snap);
        assert!(mapped.hosts.is_mapped());
        assert_eq!(mapped.hosts.to_vec(), snap.hosts.to_vec());
        assert!(mapped.hosts.contains(0x0A00_0100));
        assert!(!mapped.hosts.contains(0x0A00_0003));
        let p24: tass_net::Prefix = "10.0.0.0/24".parse().unwrap();
        assert_eq!(mapped.hosts.count_in_prefix(p24), 2);
        assert_eq!(mapped.hosts.intersection_count(&snap.hosts), 4);
        // serde form is representation-independent
        assert_eq!(
            serde_json::to_string(&mapped.hosts).unwrap(),
            serde_json::to_string(&snap.hosts).unwrap()
        );
        // views run off the mapped bytes
        let arc = Arc::new(mapped);
        let v = HostSetView::from_prefixes(arc.clone(), &[p24]);
        assert_eq!(v.len(), 2);
        assert_eq!(v.iter().collect::<Vec<_>>(), vec![0x0A00_0001, 0x0A00_0002]);
    }

    #[test]
    fn mapped_resident_bytes_is_the_buffer() {
        let snap = Snapshot::new(Protocol::Http, 0, hs(&[1, 2, 3]));
        assert_eq!(snap.resident_bytes(), 12);
        let bytes = snap.encode_aligned();
        let total = bytes.len();
        let mapped = Snapshot::<V4>::decode_mapped(bytes).unwrap();
        assert_eq!(mapped.resident_bytes(), total);
    }

    #[test]
    fn aligned_truncation_at_every_boundary_is_typed() {
        let snap = Snapshot::new(Protocol::Cwmp, 2, hs(&[5, 6, 7]));
        let bytes = snap.encode_aligned();
        for cut in 0..bytes.len() {
            assert_eq!(
                Snapshot::<V4>::decode(&bytes[..cut]),
                Err(DecodeError::Truncated),
                "cut at {cut}"
            );
            let buf = Bytes::from(bytes[..cut].to_vec());
            assert_eq!(
                Snapshot::<V4>::decode_mapped(buf).map(|s| s.month),
                Err(DecodeError::Truncated),
                "mapped cut at {cut}"
            );
        }
    }

    #[test]
    fn bad_section_offset_is_typed() {
        let snap = Snapshot::new(Protocol::Http, 1, hs(&[1, 2]));
        let mut bytes = snap.encode_aligned().to_vec();
        bytes[18..22].copy_from_slice(&4u32.to_le_bytes());
        assert_eq!(
            Snapshot::<V4>::decode(&bytes),
            Err(DecodeError::BadSection(4))
        );
        // an offset past the end of the buffer is a truncation
        let mut bytes = snap.encode_aligned().to_vec();
        bytes[18..22].copy_from_slice(&10_000u32.to_le_bytes());
        assert_eq!(Snapshot::<V4>::decode(&bytes), Err(DecodeError::Truncated));
    }

    #[test]
    fn mapped_decode_rejects_unsorted_payload() {
        let snap = Snapshot::new(Protocol::Http, 1, hs(&[1, 2]));
        let mut bytes = snap.encode_aligned().to_vec();
        let n = bytes.len();
        for i in 0..4 {
            bytes.swap(n - 8 + i, n - 4 + i);
        }
        assert_eq!(
            Snapshot::<V4>::decode_mapped(Bytes::from(bytes)).map(|s| s.month),
            Err(DecodeError::Unsorted)
        );
    }

    #[test]
    fn v6_encode_decode_roundtrip() {
        let hosts: HostSet<tass_net::V6> =
            HostSet::from_addrs(vec![1u128, 0x2600 << 112, u128::MAX]);
        let snap: Snapshot<tass_net::V6> = Snapshot::new(Protocol::Http, 4, hosts);
        let bytes = snap.encode();
        assert_eq!(&bytes[..4], b"TSS6");
        assert_eq!(bytes.len(), 18 + 3 * 16);
        let back = Snapshot::<tass_net::V6>::decode(&bytes).unwrap();
        assert_eq!(back, snap);
    }

    #[test]
    fn cross_family_decode_is_a_typed_error() {
        let v4 = Snapshot::new(Protocol::Ftp, 1, hs(&[9])).encode();
        assert_eq!(
            Snapshot::<tass_net::V6>::decode(&v4),
            Err(DecodeError::WrongFamily {
                found: "IPv4",
                expected: "IPv6",
            })
        );
        let v6: Snapshot<tass_net::V6> =
            Snapshot::new(Protocol::Ftp, 1, HostSet::from_addrs(vec![9u128]));
        assert_eq!(
            Snapshot::<V4>::decode(&v6.encode()),
            Err(DecodeError::WrongFamily {
                found: "IPv6",
                expected: "IPv4",
            })
        );
    }

    #[test]
    fn snapshot_bulk_prefix_counts_match_scalar() {
        let snap = Snapshot::new(
            Protocol::Http,
            0,
            hs(&[0x0A00_0001, 0x0A00_0002, 0x0A00_0100, 0x0B00_0000]),
        );
        let ps: Vec<tass_net::Prefix> = ["10.0.0.0/24", "11.0.0.0/8", "12.0.0.0/8"]
            .iter()
            .map(|s| s.parse().unwrap())
            .collect();
        let scalar: Vec<u64> = ps
            .iter()
            .map(|&p| PrefixCount::count_in_prefix(&snap, p) as u64)
            .collect();
        assert_eq!(scalar, vec![2, 1, 0]);
        let mut bulk = Vec::new();
        PrefixCount::count_prefixes_into(&snap, &mut ps.iter().copied(), &mut bulk);
        assert_eq!(bulk, scalar);
        assert_eq!(
            PrefixCount::count_prefixes_total(&snap, &mut ps.iter().copied()),
            3
        );
    }

    fn snap_of(v: &[u32]) -> Arc<Snapshot> {
        Arc::new(Snapshot::new(Protocol::Http, 0, hs(v)))
    }

    #[test]
    fn full_view_is_the_whole_snapshot_without_copying() {
        let snap = snap_of(&[1, 5, 9, 0x0A00_0000]);
        let v = HostSetView::full(snap.clone());
        assert_eq!(v.len(), 4);
        assert!(!v.is_empty());
        assert_eq!(v.iter().collect::<Vec<_>>(), vec![1, 5, 9, 0x0A00_0000]);
        assert_eq!(v.materialize(), snap.hosts);
        assert!(v.contains(5) && !v.contains(6));
        let p8: tass_net::Prefix = "10.0.0.0/8".parse().unwrap();
        assert_eq!(v.count_in_prefix(p8), 1);
        assert_eq!(PrefixCount::count_in_prefix(&*snap, p8), 1);
        let empty = HostSetView::full(snap_of(&[]));
        assert!(empty.is_empty());
        assert_eq!(empty.iter().count(), 0);
    }

    #[test]
    fn prefix_view_unions_overlapping_prefixes() {
        let snap = snap_of(&[
            0x0A00_0001,
            0x0A00_0002,
            0x0A00_0100,
            0x0A01_0000,
            0x0B00_0000,
        ]);
        // /24 nested inside /16 plus a disjoint /8: union, not double count
        let ps: Vec<tass_net::Prefix> = ["10.0.0.0/24", "10.0.0.0/16", "11.0.0.0/8"]
            .iter()
            .map(|s| s.parse().unwrap())
            .collect();
        let v = HostSetView::from_prefixes(snap.clone(), &ps);
        assert_eq!(v.len(), 4);
        assert_eq!(
            v.materialize(),
            hs(&[0x0A00_0001, 0x0A00_0002, 0x0A00_0100, 0x0B00_0000])
        );
        // identical overlapping prefixes collapse to one range
        let twice = HostSetView::from_prefixes(snap, &[ps[0], ps[0]]);
        assert_eq!(twice.len(), 2);
    }

    #[test]
    fn view_range_and_prefix_counts_match_materialised() {
        let snap = snap_of(&[0x0A00_0001, 0x0A00_0002, 0x0A00_0100, 0x0B00_0000]);
        let ps: Vec<tass_net::Prefix> = ["10.0.0.0/24", "11.0.0.0/8"]
            .iter()
            .map(|s| s.parse().unwrap())
            .collect();
        let v = HostSetView::from_prefixes(snap, &ps);
        let m = v.materialize();
        for (first, last) in [
            (0u32, u32::MAX),
            (0x0A00_0000, 0x0A00_00FF),
            (0x0A00_0002, 0x0B00_0000),
            (5, 4), // empty range
        ] {
            assert_eq!(v.count_in_range(first, last), m.count_in_range(first, last));
        }
        let p8: tass_net::Prefix = "10.0.0.0/8".parse().unwrap();
        assert_eq!(
            PrefixCount::count_in_prefix(&v, p8),
            PrefixCount::count_in_prefix(&m, p8)
        );
    }

    #[test]
    fn view_serde_is_byte_identical_to_hostset() {
        let snap = snap_of(&[0x0A00_0001, 0x0A00_0002, 0x0B00_0000]);
        let ps: Vec<tass_net::Prefix> =
            ["10.0.0.0/24"].iter().map(|s| s.parse().unwrap()).collect();
        for v in [
            HostSetView::full(snap.clone()),
            HostSetView::from_prefixes(snap.clone(), &ps),
            HostSetView::owned(hs(&[7, 9])),
            HostSetView::full(snap_of(&[])),
        ] {
            let eager = v.materialize();
            assert_eq!(
                serde_json::to_string(&v).unwrap(),
                serde_json::to_string(&eager).unwrap()
            );
            // round trip preserves the set (as an owned view)
            let back: HostSetView =
                serde_json::from_str(&serde_json::to_string(&v).unwrap()).unwrap();
            assert_eq!(back, v);
        }
    }

    #[test]
    fn view_equality_is_set_equality_across_reprs() {
        let snap = snap_of(&[1, 2, 3]);
        let full = HostSetView::full(snap.clone());
        let owned = HostSetView::owned(hs(&[1, 2, 3]));
        assert_eq!(full, owned);
        assert_ne!(full, HostSetView::owned(hs(&[1, 2])));
        let from: HostSetView = hs(&[1, 2, 3]).into();
        assert_eq!(from, full);
        assert!(!format!("{full:?}").is_empty());
    }

    proptest::proptest! {
        /// Overlap semantics, pinned: for *arbitrary* prefix lists —
        /// nested, duplicated, adjacent — the view equals the oracle
        /// set union of the per-prefix host subsets.
        #[test]
        fn prefix_view_equals_oracle_union(
            hosts in proptest::collection::vec(0u32..0x1000, 0..60),
            specs in proptest::collection::vec((0u32..0x1000, 20u8..=32), 0..8),
        ) {
            let snap = Arc::new(Snapshot::new(Protocol::Http, 0, HostSet::from_addrs(hosts)));
            let prefixes: Vec<tass_net::Prefix> = specs
                .iter()
                .map(|&(a, len)| tass_net::Prefix::new_truncate(a, len).unwrap())
                .collect();
            let view = HostSetView::from_prefixes(snap.clone(), &prefixes);
            let oracle: HostSet = snap
                .hosts
                .iter()
                .filter(|&a| prefixes.iter().any(|p| p.first() <= a && a <= p.last()))
                .collect();
            proptest::prop_assert_eq!(view.materialize(), oracle.clone());
            proptest::prop_assert_eq!(view.len(), oracle.len());
            proptest::prop_assert_eq!(
                serde_json::to_string(&view).unwrap(),
                serde_json::to_string(&oracle).unwrap()
            );
        }
    }

    proptest::proptest! {
        /// The bulk counting sweep, pinned against the scalar oracle for
        /// every `PrefixCount` impl: arbitrary prefix sequences (sorted
        /// or not, nested, duplicated) must count identically through
        /// `count_prefixes_into` on a `HostSet`, a `Snapshot`, a
        /// ranges-repr `HostSetView`, and a full-snapshot view.
        #[test]
        fn bulk_count_sweep_matches_scalar_counts(
            hosts in proptest::collection::vec(0u32..0x1000, 0..60),
            view_specs in proptest::collection::vec((0u32..0x1000, 20u8..=32), 0..8),
            query_specs in proptest::collection::vec((0u32..0x1000, 18u8..=32), 0..24),
        ) {
            let snap = Arc::new(Snapshot::new(Protocol::Http, 0, HostSet::from_addrs(hosts)));
            let view_prefixes: Vec<tass_net::Prefix> = view_specs
                .iter()
                .map(|&(a, len)| tass_net::Prefix::new_truncate(a, len).unwrap())
                .collect();
            let queries: Vec<tass_net::Prefix> = query_specs
                .iter()
                .map(|&(a, len)| tass_net::Prefix::new_truncate(a, len).unwrap())
                .collect();
            let ranges = HostSetView::from_prefixes(snap.clone(), &view_prefixes);
            let full = HostSetView::full(snap.clone());
            let counters: [&dyn PrefixCount; 4] = [&snap.hosts, &*snap, &ranges, &full];
            for c in counters {
                let mut bulk = Vec::new();
                c.count_prefixes_into(&mut queries.iter().copied(), &mut bulk);
                let scalar: Vec<u64> =
                    queries.iter().map(|&p| c.count_in_prefix(p) as u64).collect();
                proptest::prop_assert_eq!(&bulk, &scalar);
            }
        }
    }

    #[test]
    fn v6_truncation_at_every_boundary_is_typed() {
        let hosts: HostSet<tass_net::V6> = HostSet::from_addrs(vec![5u128, 6, 7]);
        let snap: Snapshot<tass_net::V6> = Snapshot::new(Protocol::Cwmp, 2, hosts);
        let bytes = snap.encode();
        for cut in 0..bytes.len() {
            assert_eq!(
                Snapshot::<tass_net::V6>::decode(&bytes[..cut]),
                Err(DecodeError::Truncated),
                "cut at {cut}"
            );
        }
    }
}
