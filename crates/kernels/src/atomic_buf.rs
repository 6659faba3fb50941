//! A lock-free `f32` accumulation buffer — the functional equivalent of
//! the `atomicAdd(float*)` the ParTI COO kernel issues on the GPU.
//!
//! The buffer stores IEEE-754 bit patterns in `AtomicU32`s and implements
//! add via a compare-exchange loop, exactly like `atomicAdd` is specified
//! on hardware without native float atomics. This lets the simulated
//! kernels run data-race-free on the host pool while keeping the same update
//! semantics (including non-deterministic summation order, which the tests
//! account for with tolerances).

use std::sync::atomic::{AtomicU32, Ordering};

/// A shared buffer of atomically-accumulable `f32`s.
pub struct AtomicF32Buffer {
    bits: Vec<AtomicU32>,
}

impl AtomicF32Buffer {
    /// Creates a zero-initialised buffer of `len` floats.
    pub fn new(len: usize) -> Self {
        let mut bits = Vec::with_capacity(len);
        bits.resize_with(len, || AtomicU32::new(0f32.to_bits()));
        Self { bits }
    }

    /// Number of elements.
    pub fn len(&self) -> usize {
        self.bits.len()
    }

    /// True when the buffer has no elements.
    pub fn is_empty(&self) -> bool {
        self.bits.is_empty()
    }

    /// Atomically adds `v` to element `i` (the `atomicAdd` loop).
    #[inline]
    pub fn add(&self, i: usize, v: f32) {
        let cell = &self.bits[i];
        let mut current = cell.load(Ordering::Relaxed);
        loop {
            let new = (f32::from_bits(current) + v).to_bits();
            match cell.compare_exchange_weak(current, new, Ordering::AcqRel, Ordering::Relaxed) {
                Ok(_) => return,
                Err(seen) => current = seen,
            }
        }
    }

    /// Non-atomic read of element `i` (call after parallel phase ends).
    pub fn get(&self, i: usize) -> f32 {
        f32::from_bits(self.bits[i].load(Ordering::Acquire))
    }

    /// Snapshots the whole buffer into a `Vec<f32>`.
    pub fn to_vec(&self) -> Vec<f32> {
        self.bits.iter().map(|b| f32::from_bits(b.load(Ordering::Acquire))).collect()
    }

    /// Resets every element to zero.
    pub fn reset(&self) {
        let zero = 0f32.to_bits();
        for b in &self.bits {
            b.store(zero, Ordering::Release);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sequential_adds_accumulate() {
        let buf = AtomicF32Buffer::new(4);
        buf.add(1, 2.5);
        buf.add(1, 0.5);
        buf.add(3, -1.0);
        assert_eq!(buf.get(0), 0.0);
        assert_eq!(buf.get(1), 3.0);
        assert_eq!(buf.get(3), -1.0);
        assert_eq!(buf.to_vec(), vec![0.0, 3.0, 0.0, -1.0]);
    }

    #[test]
    fn concurrent_adds_do_not_lose_updates() {
        let buf = AtomicF32Buffer::new(8);
        // 10_000 adds of 1.0 spread over 8 slots from four pool threads:
        // integer values up to 10k are exact in f32, so the result must be
        // exact.
        scalfrag_host::with_threads(4, || scalfrag_host::par_map(10_000, |i| buf.add(i % 8, 1.0)));
        let total: f32 = buf.to_vec().iter().sum();
        assert_eq!(total, 10_000.0);
        assert_eq!(buf.get(0), 1250.0);
    }

    #[test]
    fn reset_zeroes() {
        let buf = AtomicF32Buffer::new(3);
        buf.add(0, 7.0);
        buf.reset();
        assert_eq!(buf.to_vec(), vec![0.0, 0.0, 0.0]);
    }

    #[test]
    fn empty_buffer() {
        let buf = AtomicF32Buffer::new(0);
        assert!(buf.is_empty());
        assert_eq!(buf.to_vec(), Vec::<f32>::new());
    }
}
