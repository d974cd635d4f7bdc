//! Set-associative LRU cache-hierarchy simulator.
//!
//! Backs the Table 2 characterization (L2/L3 MPKI, DRAM bytes per op) and
//! the locality benefit of the shard-partitioned algorithm variant: the
//! hierarchy is run over the *actual* access trace of the Aggregation
//! phase (see [`crate::trace`]), not an analytic approximation.
//!
//! Geometry defaults follow the Xeon E5-2680 v3: 32 KB/8-way L1D,
//! 256 KB/8-way L2 per core, and a 30 MB shared L3 modeled as 30-way
//! (16,384 sets; one socket — the trace is single-threaded, matching
//! PyG's mostly-serial scatter kernel).
//!
//! ## Layout
//!
//! A [`CacheLevel`] keeps every set in one flat `Vec<u32>` of
//! `num_sets * assoc` tag slots, set-major, each set ordered LRU first
//! and MRU last, with unfilled ways holding an empty sentinel at the
//! LRU end. A slot stores the line number with its set index shifted
//! out, so the tag fits in 4 bytes; set and tag come from shifts and a
//! mask because the geometry is all powers of two. The point is the
//! *host's* cache: the modeled L3 has 491,520 ways, and at 4 B each its
//! tag store (1.9 MiB) fits a 2 MiB per-core host L2, where 8-byte tags
//! (or one heap `Vec` per set) would not. A lookup scans one set
//! from the MRU end, then a single `copy_within` rotates the hit way —
//! or way 0, the LRU victim, on a miss — to the MRU slot; hit and miss
//! counters advance without a data-dependent branch.

use hygcn_mem::cast::{saturating_usize, widen_u64};

/// Tag value of a way that has never been filled. [`CacheLevel::access`]
/// never stores it as a real tag, so an empty way cannot alias a line.
const EMPTY: u32 = u32::MAX;

/// One inclusive cache level with LRU replacement.
#[derive(Debug, Clone)]
pub struct CacheLevel {
    /// `num_sets * assoc` tag slots; set `s` is `tags[s * assoc..][..assoc]`,
    /// least recently used first.
    tags: Vec<u32>,
    assoc: usize,
    line_shift: u32,
    set_bits: u32,
    set_mask: u64,
    hits: u64,
    misses: u64,
}

impl CacheLevel {
    /// Creates a cache of `capacity_bytes` with `assoc` ways and
    /// `line_bytes` lines.
    ///
    /// # Panics
    ///
    /// Panics if the geometry is zero, if the capacity is smaller than
    /// one set, or if the line size or the set count is not a power of
    /// two.
    pub fn new(capacity_bytes: usize, assoc: usize, line_bytes: u64) -> Self {
        assert!(
            assoc > 0 && line_bytes > 0,
            "cache geometry must be nonzero"
        );
        assert!(
            line_bytes.is_power_of_two(),
            "line size must be a power of two"
        );
        let lines = widen_u64(capacity_bytes) / line_bytes;
        assert!(lines >= widen_u64(assoc), "capacity smaller than one set");
        let num_sets = lines / widen_u64(assoc);
        assert!(
            num_sets.is_power_of_two(),
            "set count must be a power of two"
        );
        Self {
            tags: vec![EMPTY; saturating_usize(num_sets).saturating_mul(assoc)],
            assoc,
            line_shift: line_bytes.trailing_zeros(),
            set_bits: num_sets.trailing_zeros(),
            set_mask: num_sets - 1,
            hits: 0,
            misses: 0,
        }
    }

    /// Accesses the line containing `addr`; returns `true` on hit.
    ///
    /// # Panics
    ///
    /// Panics if `addr` lies beyond the traceable address space: the
    /// line number with the set index stripped must fit a `u32` tag
    /// below the empty sentinel, i.e. `addr < (2^32 - 1) * num_sets *
    /// line_bytes`. For the Xeon L1 (64 sets of 64-B lines) that is
    /// about 2^44 B (16 TiB); the widest Table 4 trace layout spans
    /// about 2^38 B.
    pub fn access(&mut self, addr: u64) -> bool {
        let line = addr >> self.line_shift;
        let set = saturating_usize(line & self.set_mask);
        let tag = u32::try_from(line >> self.set_bits)
            .ok()
            .filter(|&t| t != EMPTY)
            // lint: allow(unwrap) -- a tag that does not fit would alias another line; the trace layouts stay ~64x below the limit
            .expect("address beyond the cache model's u32 tag range");
        let ways = &mut self.tags[set * self.assoc..][..self.assoc];
        let mut way = self.assoc;
        while way > 0 && ways[way - 1] != tag {
            way -= 1;
        }
        // `way` is one past the hit way, or 0 on a miss.
        let hit = way > 0;
        let from = way.saturating_sub(1);
        ways.copy_within(from + 1.., from);
        ways[self.assoc - 1] = tag;
        self.hits += u64::from(hit);
        self.misses += u64::from(!hit);
        hit
    }

    /// Hits so far.
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Misses so far.
    pub fn misses(&self) -> u64 {
        self.misses
    }

    /// Line size in bytes.
    pub fn line_bytes(&self) -> u64 {
        1 << self.line_shift
    }

    /// First address [`CacheLevel::access`] rejects.
    #[cfg(test)]
    pub(crate) fn addr_limit(&self) -> u64 {
        u64::from(EMPTY) << (self.set_bits + self.line_shift)
    }
}

/// A three-level hierarchy (L1D → L2 → L3 → DRAM).
#[derive(Debug, Clone)]
pub struct Hierarchy {
    l1: CacheLevel,
    l2: CacheLevel,
    l3: CacheLevel,
    dram_bytes: u64,
}

impl Hierarchy {
    /// Xeon E5-2680 v3 single-core view with the shared L3.
    pub fn xeon() -> Self {
        Self::new(
            CacheLevel::new(32 << 10, 8, 64),
            CacheLevel::new(256 << 10, 8, 64),
            CacheLevel::new(30 << 20, 30, 64), // 30 MB, 30-way → 16384 sets
        )
    }

    /// Creates a hierarchy from explicit levels.
    pub fn new(l1: CacheLevel, l2: CacheLevel, l3: CacheLevel) -> Self {
        Self {
            l1,
            l2,
            l3,
            dram_bytes: 0,
        }
    }

    /// Accesses one address (whole line); misses propagate down and DRAM
    /// traffic accumulates on an L3 miss.
    pub fn access(&mut self, addr: u64) {
        if self.l1.access(addr) {
            return;
        }
        if self.l2.access(addr) {
            return;
        }
        if !self.l3.access(addr) {
            self.dram_bytes += self.l3.line_bytes();
        }
    }

    /// Accesses every line of `[addr, addr + bytes)`.
    pub fn access_range(&mut self, addr: u64, bytes: u64) {
        let line = self.l1.line_bytes();
        let mut a = addr / line * line;
        while a < addr + bytes {
            self.access(a);
            a += line;
        }
    }

    /// L2 misses so far.
    pub fn l2_misses(&self) -> u64 {
        self.l2.misses()
    }

    /// L3 misses so far.
    pub fn l3_misses(&self) -> u64 {
        self.l3.misses()
    }

    /// Bytes fetched from DRAM so far.
    pub fn dram_bytes(&self) -> u64 {
        self.dram_bytes
    }

    /// First address any level rejects (see [`CacheLevel::access`]).
    #[cfg(test)]
    pub(crate) fn addr_limit(&self) -> u64 {
        self.l1
            .addr_limit()
            .min(self.l2.addr_limit())
            .min(self.l3.addr_limit())
    }

    /// Misses per kilo-instruction for a run of `instructions`.
    pub fn mpki(misses: u64, instructions: u64) -> f64 {
        if instructions == 0 {
            0.0
        } else {
            misses as f64 * 1000.0 / instructions as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The original LRU, one `Vec` of `u64` line numbers per set (MRU
    /// last): the reference model [`CacheLevel`] must match access for
    /// access.
    struct RefLevel {
        sets: Vec<Vec<u64>>,
        assoc: usize,
        line_bytes: u64,
        num_sets: u64,
        hits: u64,
        misses: u64,
    }

    impl RefLevel {
        fn new(capacity_bytes: usize, assoc: usize, line_bytes: u64) -> Self {
            let num_sets = capacity_bytes as u64 / line_bytes / assoc as u64;
            Self {
                sets: vec![Vec::with_capacity(assoc); num_sets as usize],
                assoc,
                line_bytes,
                num_sets,
                hits: 0,
                misses: 0,
            }
        }

        fn access(&mut self, addr: u64) -> bool {
            let tag = addr / self.line_bytes;
            let set = &mut self.sets[(tag % self.num_sets) as usize];
            if let Some(pos) = set.iter().position(|&t| t == tag) {
                let t = set.remove(pos);
                set.push(t);
                self.hits += 1;
                true
            } else {
                if set.len() == self.assoc {
                    set.remove(0);
                }
                set.push(tag);
                self.misses += 1;
                false
            }
        }
    }

    /// `(capacity, assoc, line)` geometries: 1-, 2-, 8- and 30-way sets
    /// over 64-B and 128-B lines, then the three `Hierarchy::xeon()`
    /// levels.
    const GEOMETRIES: [(usize, usize, u64); 9] = [
        (4 * 64, 1, 64),
        (64 * 128, 1, 128),
        (8 * 2 * 64, 2, 64),
        (16 * 8 * 128, 8, 128),
        (32 * 30 * 64, 30, 64),
        (8 * 30 * 128, 30, 128),
        (32 << 10, 8, 64),
        (256 << 10, 8, 64),
        (30 << 20, 30, 64),
    ];

    /// Replays `addrs` through both models, asserting every access and
    /// the final counters agree.
    fn assert_matches_reference((cap, assoc, line): (usize, usize, u64), addrs: &[u64]) {
        let mut flat = CacheLevel::new(cap, assoc, line);
        let mut reference = RefLevel::new(cap, assoc, line);
        for (i, &a) in addrs.iter().enumerate() {
            assert_eq!(
                flat.access(a),
                reference.access(a),
                "access {i} (addr {a:#x}) of geometry {cap}/{assoc}/{line}"
            );
        }
        assert_eq!(
            (flat.hits(), flat.misses()),
            (reference.hits, reference.misses)
        );
    }

    /// A stream confined to `sets` sets of `geom`, cycling through a few
    /// more distinct tags than the set has ways: most accesses evict.
    fn conflict_stream(geom: (usize, usize, u64), picks: &[(u64, u64, u64)]) -> Vec<u64> {
        let (cap, assoc, line) = geom;
        let num_sets = cap as u64 / line / assoc as u64;
        let stride = num_sets * line;
        let tags = assoc as u64 + 3;
        picks
            .iter()
            .map(|&(set, tag, offset)| {
                (set % num_sets.min(4)) * line + (tag % tags) * stride + offset % line
            })
            .collect()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        #[test]
        fn flat_lru_matches_reference_on_random_streams(
            g in 0usize..GEOMETRIES.len(),
            // A 64 KiB span: small enough that lines are re-referenced.
            addrs in collection::vec(0u64..1 << 16, 1..3000),
        ) {
            assert_matches_reference(GEOMETRIES[g], &addrs);
        }

        #[test]
        fn flat_lru_matches_reference_on_conflict_streams(
            g in 0usize..GEOMETRIES.len(),
            picks in collection::vec((0u64..4, 0u64..64, 0u64..128), 1..3000),
        ) {
            assert_matches_reference(GEOMETRIES[g], &conflict_stream(GEOMETRIES[g], &picks));
        }

        #[test]
        fn xeon_hierarchy_matches_reference_levels(
            // 8192 candidate lines (512 KiB) scattered by an odd stride:
            // twice the L2, so re-references hit in every level.
            lines in collection::vec(0u64..8192, 1..6000),
        ) {
            let addrs: Vec<u64> = lines.iter().map(|&k| k * 1031 * 64).collect();
            let mut h = Hierarchy::xeon();
            let [l1, l2, l3] = [GEOMETRIES[6], GEOMETRIES[7], GEOMETRIES[8]];
            let mut r1 = RefLevel::new(l1.0, l1.1, l1.2);
            let mut r2 = RefLevel::new(l2.0, l2.1, l2.2);
            let mut r3 = RefLevel::new(l3.0, l3.1, l3.2);
            let mut dram = 0u64;
            for &a in &addrs {
                h.access(a);
                if !r1.access(a) && !r2.access(a) && !r3.access(a) {
                    dram += 64;
                }
            }
            prop_assert_eq!(
                (h.l2_misses(), h.l3_misses(), h.dram_bytes()),
                (r2.misses, r3.misses, dram)
            );
        }
    }

    #[test]
    #[should_panic(expected = "u32 tag range")]
    fn address_beyond_tag_range_panics_instead_of_aliasing() {
        let mut c = CacheLevel::new(32 << 10, 8, 64);
        let limit = c.addr_limit();
        assert_eq!(limit, u64::from(u32::MAX) << 12);
        assert!(!c.access(limit - 1));
        c.access(limit);
    }

    #[test]
    #[should_panic(expected = "line size must be a power of two")]
    fn rejects_non_power_of_two_lines() {
        CacheLevel::new(4 * 96, 1, 96);
    }

    #[test]
    fn repeated_access_hits() {
        let mut c = CacheLevel::new(1024, 2, 64);
        assert!(!c.access(0));
        assert!(c.access(0));
        assert!(c.access(32)); // same line
        assert_eq!(c.misses(), 1);
        assert_eq!(c.hits(), 2);
    }

    #[test]
    fn lru_evicts_oldest() {
        // 2 ways, 64 B lines, 2 sets (256 B capacity).
        let mut c = CacheLevel::new(256, 2, 64);
        // Set 0 gets tags 0, 2, 4 (addresses 0, 128, 256).
        c.access(0);
        c.access(128);
        c.access(256); // evicts tag of addr 0
        assert!(!c.access(0), "addr 0 should have been evicted");
        assert!(c.access(256));
    }

    #[test]
    fn lru_respects_recency() {
        let mut c = CacheLevel::new(256, 2, 64);
        c.access(0);
        c.access(128);
        c.access(0); // refresh 0
        c.access(256); // should evict 128, not 0
        assert!(c.access(0));
        assert!(!c.access(128));
    }

    #[test]
    fn hierarchy_counts_dram_once_per_cold_line() {
        let mut h = Hierarchy::new(
            CacheLevel::new(1024, 2, 64),
            CacheLevel::new(2048, 2, 64),
            CacheLevel::new(4096, 2, 64),
        );
        h.access_range(0, 512);
        assert_eq!(h.dram_bytes(), 512);
        // Re-access: everything fits in L1, no new DRAM traffic.
        h.access_range(0, 512);
        assert_eq!(h.dram_bytes(), 512);
    }

    #[test]
    fn working_set_larger_than_l3_streams_from_dram() {
        let mut h = Hierarchy::new(
            CacheLevel::new(1024, 2, 64),
            CacheLevel::new(2048, 2, 64),
            CacheLevel::new(4096, 2, 64),
        );
        // Two passes over 64 KB >> 4 KB L3.
        h.access_range(0, 65536);
        h.access_range(0, 65536);
        assert_eq!(h.dram_bytes(), 2 * 65536);
    }

    #[test]
    fn xeon_geometry_constructs() {
        let h = Hierarchy::xeon();
        assert_eq!(h.dram_bytes(), 0);
    }

    #[test]
    fn mpki_math() {
        assert_eq!(Hierarchy::mpki(10, 1000), 10.0);
        assert_eq!(Hierarchy::mpki(10, 0), 0.0);
    }

    #[test]
    fn access_range_handles_unaligned() {
        let mut h = Hierarchy::new(
            CacheLevel::new(1024, 2, 64),
            CacheLevel::new(2048, 2, 64),
            CacheLevel::new(4096, 2, 64),
        );
        h.access_range(60, 8); // straddles two lines
        assert_eq!(h.dram_bytes(), 128);
    }
}
