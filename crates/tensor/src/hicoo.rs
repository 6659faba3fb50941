//! HiCOO-lite: hierarchical block-compressed COO (Li et al., SC'18).
//!
//! HiCOO groups non-zeros into aligned `2^b`-edge blocks, storing one full
//! block coordinate per block and compact `u8` local offsets per entry —
//! §II-D lists it as the COO-family format that "reduces the memory
//! required to store tensor nonzeros". This implementation keeps the core
//! idea (block grouping + narrow per-entry offsets) and is used by the
//! memory-footprint comparisons and as a compaction stage for clustered
//! tensors.

use crate::bucket::BucketSort;
use crate::{CooTensor, Idx, Val};

/// Block edge exponent limit: local offsets are stored as `u8`, so block
/// edges can be at most `2^8`.
pub const MAX_BLOCK_BITS: u32 = 8;

/// One compressed block: the base coordinate (block index per mode) plus
/// the range of entries it owns.
#[derive(Clone, Debug, PartialEq)]
pub struct Block {
    /// Block coordinate per mode (original index >> block_bits).
    pub bidx: Vec<Idx>,
    /// Entry range `[start, end)` into the offset/value arrays.
    pub start: usize,
    /// End of the entry range.
    pub end: usize,
}

/// A sparse tensor in HiCOO-lite form.
#[derive(Clone, Debug, PartialEq)]
pub struct HiCooTensor {
    dims: Vec<Idx>,
    block_bits: u32,
    blocks: Vec<Block>,
    /// Per-entry local offsets, `order` bytes each, block-major.
    offsets: Vec<u8>,
    vals: Vec<Val>,
}

impl HiCooTensor {
    /// Compresses `coo` with blocks of edge `2^block_bits`.
    ///
    /// # Panics
    /// Panics if `block_bits` is 0 or exceeds [`MAX_BLOCK_BITS`].
    pub fn from_coo(coo: &CooTensor, block_bits: u32) -> Self {
        assert!(
            (1..=MAX_BLOCK_BITS).contains(&block_bits),
            "block_bits must be in 1..={MAX_BLOCK_BITS}"
        );
        let n = coo.order();
        let nnz = coo.nnz();

        // Sort entries by block coordinate (lexicographic), then by local
        // offset — a morton order would be fancier; lexicographic suffices.
        let mask = (1u32 << block_bits) - 1;
        let bidx: Vec<Vec<Idx>> = (0..n)
            .map(|m| coo.mode_indices(m).iter().map(|&i| i >> block_bits).collect())
            .collect();
        let local: Vec<Vec<Idx>> =
            (0..n).map(|m| coo.mode_indices(m).iter().map(|&i| i & mask).collect()).collect();
        let keys: Vec<(&[Idx], Idx)> = bidx
            .iter()
            .zip(coo.dims())
            .map(|(col, &d)| (&col[..], ((d - 1) >> block_bits) + 1))
            .chain(local.iter().map(|col| (&col[..], mask + 1)))
            .collect();
        let perm = BucketSort::new(nnz, keys).perm();

        let mut blocks: Vec<Block> = Vec::new();
        let mut offsets = Vec::with_capacity(nnz * n);
        let mut vals = Vec::with_capacity(nnz);

        for (pos, &e) in perm.iter().enumerate() {
            let e = e as usize;
            let open_new = pos == 0 || bidx.iter().any(|col| col[e] != col[perm[pos - 1] as usize]);
            if open_new {
                if let Some(b) = blocks.last_mut() {
                    b.end = pos;
                }
                blocks.push(Block {
                    bidx: bidx.iter().map(|col| col[e]).collect(),
                    start: pos,
                    end: pos,
                });
            }
            offsets.extend(local.iter().map(|col| col[e] as u8));
            vals.push(coo.values()[e]);
        }
        if let Some(b) = blocks.last_mut() {
            b.end = nnz;
        }

        Self { dims: coo.dims().to_vec(), block_bits, blocks, offsets, vals }
    }

    /// Tensor order.
    pub fn order(&self) -> usize {
        self.dims.len()
    }

    /// Mode sizes.
    pub fn dims(&self) -> &[Idx] {
        &self.dims
    }

    /// Number of stored non-zeros.
    pub fn nnz(&self) -> usize {
        self.vals.len()
    }

    /// Number of non-empty blocks.
    pub fn num_blocks(&self) -> usize {
        self.blocks.len()
    }

    /// Block edge length `2^block_bits`.
    pub fn block_edge(&self) -> Idx {
        1 << self.block_bits
    }

    /// The block list.
    pub fn blocks(&self) -> &[Block] {
        &self.blocks
    }

    /// Average non-zeros per block — HiCOO's quality metric: higher means
    /// better compression and locality.
    pub fn avg_nnz_per_block(&self) -> f64 {
        if self.blocks.is_empty() {
            0.0
        } else {
            self.nnz() as f64 / self.blocks.len() as f64
        }
    }

    /// Bytes of the device layout: per-block coordinates (+ range) and
    /// per-entry byte offsets + values.
    pub fn byte_size(&self) -> usize {
        self.blocks.len() * (self.order() * std::mem::size_of::<Idx>() + std::mem::size_of::<u64>())
            + self.offsets.len()
            + self.vals.len() * std::mem::size_of::<Val>()
    }

    /// Entry values (block-major order, parallel to the offsets).
    pub fn values(&self) -> &[Val] {
        &self.vals
    }

    /// Reconstructs the coordinate of entry `e`, which must belong to
    /// block `b` — O(order), no block search.
    pub fn coord_in(&self, b: &Block, e: usize) -> Vec<Idx> {
        debug_assert!((b.start..b.end).contains(&e), "entry outside the given block");
        let n = self.order();
        (0..n).map(|m| (b.bidx[m] << self.block_bits) | self.offsets[e * n + m] as Idx).collect()
    }

    /// Reconstructs the full coordinate of entry `e` (searches for the
    /// owning block; prefer [`HiCooTensor::coord_in`] in kernels).
    pub fn coord(&self, e: usize) -> Vec<Idx> {
        let b = self
            .blocks
            .iter()
            .find(|b| (b.start..b.end).contains(&e))
            .expect("entry must belong to a block");
        self.coord_in(b, e)
    }

    /// Expands back to COO.
    pub fn to_coo(&self) -> CooTensor {
        let n = self.order();
        let mut inds = vec![Vec::with_capacity(self.nnz()); n];
        for b in &self.blocks {
            for e in b.start..b.end {
                for (m, col) in inds.iter_mut().enumerate() {
                    col.push((b.bidx[m] << self.block_bits) | self.offsets[e * n + m] as Idx);
                }
            }
        }
        CooTensor::from_parts(&self.dims, inds, self.vals.clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trip_uniform() {
        let coo = CooTensor::random_uniform(&[100, 80, 60], 400, 3);
        let h = HiCooTensor::from_coo(&coo, 4);
        assert_eq!(h.nnz(), 400);
        let back = h.to_coo();
        // Same entry multiset.
        let mut a: Vec<(Vec<Idx>, Val)> =
            (0..400).map(|e| (coo.coord(e), coo.values()[e])).collect();
        let mut b: Vec<(Vec<Idx>, Val)> =
            (0..400).map(|e| (back.coord(e), back.values()[e])).collect();
        a.sort_by(|x, y| x.0.cmp(&y.0));
        b.sort_by(|x, y| x.0.cmp(&y.0));
        assert_eq!(a, b);
    }

    #[test]
    fn blocks_tile_entries() {
        let coo = CooTensor::random_uniform(&[64, 64, 64], 300, 8);
        let h = HiCooTensor::from_coo(&coo, 3);
        let mut covered = 0;
        for b in h.blocks() {
            assert_eq!(b.start, covered);
            assert!(b.end > b.start, "no empty blocks stored");
            covered = b.end;
        }
        assert_eq!(covered, 300);
    }

    #[test]
    fn clustered_tensor_compresses_well() {
        let clustered = crate::gen::blocked(&[512, 512, 512], 3_000, 4, 16, 1);
        let uniform = crate::gen::uniform(&[512, 512, 512], 3_000, 1);
        let hc = HiCooTensor::from_coo(&clustered, 4);
        let hu = HiCooTensor::from_coo(&uniform, 4);
        assert!(
            hc.avg_nnz_per_block() > 4.0 * hu.avg_nnz_per_block(),
            "clustered: {} vs uniform: {}",
            hc.avg_nnz_per_block(),
            hu.avg_nnz_per_block()
        );
        assert!(hc.byte_size() < clustered.byte_size(), "HiCOO should shrink clustered data");
    }

    #[test]
    fn coord_reconstruction() {
        let coo = CooTensor::from_entries(
            &[32, 32],
            &[(vec![17, 5], 1.0), (vec![17, 6], 2.0), (vec![3, 30], 3.0)],
        );
        let h = HiCooTensor::from_coo(&coo, 3);
        // Blocks of edge 8: (17,5)->block(2,0); (3,30)->block(0,3).
        assert_eq!(h.num_blocks(), 2);
        let mut coords: Vec<Vec<Idx>> = (0..3).map(|e| h.coord(e)).collect();
        coords.sort();
        assert_eq!(coords, vec![vec![3, 30], vec![17, 5], vec![17, 6]]);
    }

    #[test]
    #[should_panic(expected = "block_bits")]
    fn rejects_oversized_blocks() {
        let coo = CooTensor::random_uniform(&[8, 8], 4, 0);
        let _ = HiCooTensor::from_coo(&coo, 9);
    }

    #[test]
    fn empty_tensor_empty_blocks() {
        let coo = CooTensor::new(&[8, 8, 8]);
        let h = HiCooTensor::from_coo(&coo, 2);
        assert_eq!(h.num_blocks(), 0);
        assert_eq!(h.avg_nnz_per_block(), 0.0);
        assert_eq!(h.to_coo().nnz(), 0);
    }
}
