//! Device memory management: a size-classed exclusive pool allocator.
//!
//! The pipeline of §IV-C must "reasonably allocate storage space …
//! according to the performance and storage capacity of the GPU", and the
//! out-of-core streaming mode goes further: segment staging buffers are
//! allocated and released thousands of times per plan, so the simulator
//! models a real pooled allocator rather than a monotone byte counter.
//!
//! ## Design (kubecl-style exclusive pools)
//!
//! Pages are carved from capacity at their **exact** requested size — a
//! streaming budget is often tight to the byte, and rounding the carve up
//! would spuriously overflow it. Size classes (powers of two, ≥
//! [`MIN_CLASS_BYTES`]) govern **reuse**: a freed page parks in the free
//! list and is preferentially handed to the next fitting request of the
//! *same* class (exclusive-pool semantics — a small request never squats
//! a huge page), which is what makes a double-buffered streaming loop
//! cost two carves total instead of one per segment. Under capacity
//! pressure the allocator degrades gracefully: cross-class best-fit reuse
//! first, then an auto-trim of every pooled free page, and only then
//! [`OutOfMemory`].
//!
//! The pool distinguishes three byte populations, all tracked with
//! high-watermarks:
//!
//! * **in use** — page bytes of live allocations ([`MemoryPool::used`]);
//! * **reserved** — carved from capacity: in-use pages plus pooled free
//!   pages ([`MemStats::reserved`]);
//! * **requested** — what callers actually asked for; `in_use −
//!   requested` is the internal fragmentation of reusing pages larger
//!   than their request.

use parking_lot::Mutex;
use std::collections::BTreeMap;

/// Smallest size class: smaller requests all share the bottom class.
pub const MIN_CLASS_BYTES: u64 = 256;

/// Error returned when an allocation exceeds the remaining capacity even
/// after trimming every pooled free page.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct OutOfMemory {
    /// Bytes requested.
    pub requested: u64,
    /// Bytes currently free (capacity minus live allocations, post-trim).
    pub available: u64,
}

impl std::fmt::Display for OutOfMemory {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "device out of memory: requested {} bytes, {} available",
            self.requested, self.available
        )
    }
}

impl std::error::Error for OutOfMemory {}

/// A live device allocation. Freed via [`MemoryPool::free`] (the page
/// returns to its size-class free list for reuse).
#[derive(Debug, PartialEq, Eq)]
pub struct Allocation {
    id: u64,
    requested: u64,
    page_bytes: u64,
}

/// A point-in-time snapshot of the pool's accounting.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct MemStats {
    /// Total device capacity in bytes.
    pub capacity: u64,
    /// Page bytes of live allocations.
    pub in_use: u64,
    /// Bytes carved from capacity (live pages + pooled free pages).
    pub reserved: u64,
    /// Bytes callers actually requested across live allocations.
    pub requested: u64,
    /// High-watermark of `in_use`.
    pub peak_in_use: u64,
    /// High-watermark of `reserved`.
    pub peak_reserved: u64,
    /// Pages carved fresh from capacity.
    pub carves: u64,
    /// Allocations served from the free lists (no capacity touched).
    pub reuses: u64,
    /// Free pages released back to capacity by trims.
    pub trimmed_pages: u64,
    /// Allocation requests that failed with [`OutOfMemory`].
    pub failures: u64,
}

#[derive(Default)]
struct PoolInner {
    in_use: u64,
    reserved: u64,
    requested: u64,
    peak_in_use: u64,
    peak_reserved: u64,
    next_id: u64,
    /// page size → count of pooled free pages of that size. Pages of
    /// one size are interchangeable, so a count is all reuse needs.
    free_pages: BTreeMap<u64, u64>,
    carves: u64,
    reuses: u64,
    trimmed_pages: u64,
    failures: u64,
}

impl PoolInner {
    fn take_free(&mut self, page: u64) {
        let n = self.free_pages.get_mut(&page).expect("page size has free pages");
        *n -= 1;
        if *n == 0 {
            self.free_pages.remove(&page);
        }
    }

    fn trim_all(&mut self) {
        for (page, n) in std::mem::take(&mut self.free_pages) {
            self.reserved -= page * n;
            self.trimmed_pages += n;
        }
    }
}

/// The size class of a request: next power of two, with a shared bottom
/// class at [`MIN_CLASS_BYTES`]. Free pages are reused exclusively within
/// their class before any cross-class fallback.
pub fn size_class(bytes: u64) -> u64 {
    bytes.max(MIN_CLASS_BYTES).next_power_of_two()
}

/// A capacity-tracked, size-classed exclusive pool over the device memory.
///
/// Thread-safe: allocations may be requested from kernel closures running
/// on the `scalfrag-host` pool.
pub struct MemoryPool {
    capacity: u64,
    inner: Mutex<PoolInner>,
}

impl std::fmt::Debug for MemoryPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = self.stats();
        f.debug_struct("MemoryPool")
            .field("capacity", &s.capacity)
            .field("in_use", &s.in_use)
            .field("reserved", &s.reserved)
            .finish_non_exhaustive()
    }
}

impl MemoryPool {
    /// Creates a pool with the given byte capacity.
    pub fn new(capacity: u64) -> Self {
        Self { capacity, inner: Mutex::new(PoolInner::default()) }
    }

    /// Page bytes of live allocations.
    pub fn used(&self) -> u64 {
        self.inner.lock().in_use
    }

    /// High-watermark of live page bytes.
    pub fn peak(&self) -> u64 {
        self.inner.lock().peak_in_use
    }

    /// Snapshot of the full accounting state.
    pub fn stats(&self) -> MemStats {
        let g = self.inner.lock();
        MemStats {
            capacity: self.capacity,
            in_use: g.in_use,
            reserved: g.reserved,
            requested: g.requested,
            peak_in_use: g.peak_in_use,
            peak_reserved: g.peak_reserved,
            carves: g.carves,
            reuses: g.reuses,
            trimmed_pages: g.trimmed_pages,
            failures: g.failures,
        }
    }

    /// Allocates `bytes`: (1) reuse a pooled page of the same size class,
    /// (2) carve a fresh exact-size page, (3) best-fit reuse of any
    /// larger pooled page, (4) carve after trimming the free lists.
    /// Fails with [`OutOfMemory`] only when the request cannot fit next
    /// to the *live* allocations at all.
    pub fn alloc(&self, bytes: u64) -> Result<Allocation, OutOfMemory> {
        let mut g = self.inner.lock();
        if bytes == 0 {
            let id = g.next_id;
            g.next_id += 1;
            return Ok(Allocation { id, requested: 0, page_bytes: 0 });
        }
        // 1. Exclusive-pool reuse: the smallest free page that fits AND
        //    shares the request's size class — exactly the pages in
        //    `[bytes, size_class(bytes)]`.
        let class = size_class(bytes);
        if let Some(page) = g.free_pages.range(bytes..=class).next().map(|(&p, _)| p) {
            g.take_free(page);
            g.reuses += 1;
            return Ok(finish_alloc(&mut g, bytes, page));
        }
        // 2. Fresh exact-size carve: capacity is charged what was asked,
        //    so a byte-tight streaming budget never fails on rounding.
        if g.reserved + bytes <= self.capacity {
            g.carves += 1;
            g.reserved += bytes;
            return Ok(finish_alloc(&mut g, bytes, bytes));
        }
        // 3. Pressure fallback: best-fit reuse of a larger-class pooled
        //    page (costs internal fragmentation, saves capacity).
        if let Some(page) = g.free_pages.range(bytes..).next().map(|(&p, _)| p) {
            g.take_free(page);
            g.reuses += 1;
            return Ok(finish_alloc(&mut g, bytes, page));
        }
        // 4. Trim every pooled free page back to capacity and retry the
        //    carve.
        if g.reserved > g.in_use {
            g.trim_all();
            if g.reserved + bytes <= self.capacity {
                g.carves += 1;
                g.reserved += bytes;
                return Ok(finish_alloc(&mut g, bytes, bytes));
            }
        }
        g.failures += 1;
        // Post-trim, reserved == in_use, so this is the honest free count.
        Err(OutOfMemory { requested: bytes, available: self.capacity - g.reserved })
    }

    /// Releases an allocation: the page parks in the free list keyed by
    /// its size and is reused by the next fitting request of its class.
    /// Capacity is only recovered by the allocator's auto-trim under
    /// pressure — exclusive-pool semantics.
    pub fn free(&self, alloc: Allocation) {
        let mut g = self.inner.lock();
        g.in_use -= alloc.page_bytes;
        g.requested -= alloc.requested;
        if alloc.page_bytes > 0 {
            *g.free_pages.entry(alloc.page_bytes).or_default() += 1;
        }
    }
}

fn finish_alloc(g: &mut PoolInner, requested: u64, page_bytes: u64) -> Allocation {
    g.in_use += page_bytes;
    g.requested += requested;
    g.peak_in_use = g.peak_in_use.max(g.in_use);
    g.peak_reserved = g.peak_reserved.max(g.reserved);
    let id = g.next_id;
    g.next_id += 1;
    Allocation { id, requested, page_bytes }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn freed_pages_are_reused_within_their_size_class() {
        let pool = MemoryPool::new(1 << 20);
        let a = pool.alloc(400).unwrap();
        let s = pool.stats();
        assert_eq!(s.requested, 400);
        assert_eq!(s.in_use, 400, "carves are exact-size");
        assert_eq!(pool.used(), 400);
        pool.free(a);
        assert_eq!(pool.used(), 0);
        assert_eq!(pool.stats().reserved, 400, "freed page stays pooled");
        // Same class (256, 512]: served from the free list, no new carve.
        let b = pool.alloc(300).unwrap();
        assert_eq!(pool.used(), 400);
        let s = pool.stats();
        assert_eq!(s.reuses, 1);
        assert_eq!(s.carves, 1);
        assert_eq!(s.in_use - s.requested, 100, "reused page is 100 B over");
        pool.free(b);
        // Different class: a tiny request must not squat the 400 B page.
        let c = pool.alloc(64).unwrap();
        assert_eq!(pool.used(), 64);
        assert_eq!(pool.stats().carves, 2);
        pool.free(c);
    }

    #[test]
    fn tight_capacity_keeps_exact_accounting() {
        // Byte-tight capacity: exact carves preserve the seed
        // allocator's accounting down to the last byte.
        let pool = MemoryPool::new(1_000);
        let a = pool.alloc(999).unwrap();
        assert_eq!(pool.used(), 999);
        let err = pool.alloc(30).unwrap_err();
        assert_eq!(err.requested, 30);
        assert_eq!(err.available, 1);
        assert!(err.to_string().contains("out of memory"));
        assert_eq!(pool.stats().failures, 1);
        let b = pool.alloc(1).unwrap();
        assert_eq!(pool.used(), 1_000);
        assert_eq!(pool.peak(), 1_000);
        pool.free(a);
        pool.free(b);
        assert_eq!(pool.used(), 0);
    }

    #[test]
    fn pressure_falls_back_to_best_fit_then_trim() {
        let pool = MemoryPool::new(1_024);
        let a = pool.alloc(1_000).unwrap();
        pool.free(a);
        assert_eq!(pool.stats().reserved, 1_000, "page pooled, capacity still reserved");
        // 24 B of capacity remain: a 200 B request cannot carve, so it
        // best-fits into the pooled 1000 B page despite the class gap.
        let b = pool.alloc(200).unwrap();
        assert_eq!(pool.used(), 1_000);
        let s = pool.stats();
        assert_eq!(s.in_use - s.requested, 800);
        pool.free(b);
        // A request bigger than any pooled page only fits once the
        // pooled 1000 B page is trimmed back to capacity.
        let c = pool.alloc(1_010).unwrap();
        assert_eq!(pool.used(), 1_010);
        let s = pool.stats();
        assert!(s.trimmed_pages >= 1, "auto-trim reclaimed the pooled page");
        assert_eq!(s.reserved, 1_010, "only the live page stays carved");
        pool.free(c);
    }

    #[test]
    fn fragmentation_accounting_tracks_reuse_waste() {
        let pool = MemoryPool::new(1 << 20);
        let a = pool.alloc(512).unwrap();
        pool.free(a);
        let b = pool.alloc(300).unwrap(); // same class: reuses the 512 B page
        let s = pool.stats();
        assert_eq!(s.requested, 300);
        assert_eq!(s.in_use, 512);
        assert_eq!(s.in_use - s.requested, 212, "internal fragmentation");
        assert_eq!(s.reserved - s.in_use, 0, "nothing pooled");
        pool.free(b);
        let s = pool.stats();
        assert_eq!(s.reserved - s.in_use, 512, "the page is pooled");
        assert_eq!(s.in_use - s.requested, 0);
    }

    #[test]
    fn zero_byte_allocations_are_fine() {
        let pool = MemoryPool::new(10);
        let a = pool.alloc(0).unwrap();
        assert_eq!(pool.used(), 0);
        pool.free(a);
        assert_eq!(pool.stats().reserved, 0);
    }

    #[test]
    fn peak_tracks_both_live_and_reserved_watermarks() {
        let pool = MemoryPool::new(4_096);
        let a = pool.alloc(1_024).unwrap();
        let b = pool.alloc(1_024).unwrap();
        pool.free(a);
        pool.free(b);
        let c = pool.alloc(1_024).unwrap();
        let s = pool.stats();
        assert_eq!(s.peak_in_use, 2_048);
        assert_eq!(s.peak_reserved, 2_048);
        assert_eq!(s.in_use, 1_024);
        pool.free(c);
    }

    #[test]
    fn concurrent_allocations_never_exceed_capacity() {
        use std::sync::Arc;
        let pool = Arc::new(MemoryPool::new(10_000));
        let mut handles = Vec::new();
        for _ in 0..8 {
            let p = Arc::clone(&pool);
            handles.push(std::thread::spawn(move || {
                let mut allocs = Vec::new();
                for _ in 0..100 {
                    if let Ok(a) = p.alloc(37) {
                        allocs.push(a);
                    }
                }
                for a in allocs {
                    p.free(a);
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(pool.used(), 0);
        assert!(pool.peak() <= 10_000);
        assert!(pool.stats().reserved <= 10_000);
    }

    #[test]
    fn streaming_loop_reuses_two_pages() {
        // The two-slot double-buffer pattern: alternate alloc/free of
        // same-class segment buffers must settle on two carved pages.
        let pool = MemoryPool::new(1 << 24);
        let mut slots: [Option<Allocation>; 2] = [None, None];
        for i in 0..64 {
            let s = i % 2;
            if let Some(a) = slots[s].take() {
                pool.free(a);
            }
            slots[s] = Some(pool.alloc(100_000).unwrap());
        }
        for s in &mut slots {
            if let Some(a) = s.take() {
                pool.free(a);
            }
        }
        let st = pool.stats();
        assert_eq!(st.carves, 2, "a steady-state stream carves once per slot");
        assert_eq!(st.reuses, 62);
        assert_eq!(st.peak_in_use, 200_000);
        assert_eq!(st.in_use - st.requested, 0);
    }
}
