//! The crate's one coordinate sort: a counting scatter of packed words
//! into buckets by the lead key, then a sort inside each bucket.
//!
//! Every entry becomes one `u64` word `[lead low bits | other keys | entry
//! id]`. One pass counts the lead key per bucket, a second scatters the
//! words into their buckets in entry order, and `sort_unstable` orders each
//! bucket on its own — small buckets stay in cache. The entry id in the low
//! bits makes every word unique, so the unstable sort yields the stable
//! lexicographic order. A lead key whose bound is wider than
//! `max(2^16, nnz)` buckets by its high bits and keeps its low bits in the
//! word. Keys that need more than 64 bits with the id take the one other
//! path: the buckets hold bare entry ids and are sorted by comparing key
//! columns.
//!
//! Cost: O(order · nnz + buckets) for the packing and scatter, plus
//! O(b log b) per bucket of b entries. The scratch is one `u64` per entry
//! and one `u32` count per bucket.

use crate::Idx;

/// Bucket-index bits a lead key keeps at least before its low bits move
/// into the word (the bucket count grows to `nnz` past this).
const MIN_BUCKET_BITS: u32 = 16;

/// Bits that hold every value below `bound`.
fn width(bound: u64) -> u32 {
    u64::BITS - bound.saturating_sub(1).leading_zeros()
}

/// The field of `bits` bits at `offset` in a packed word.
fn field(word: u64, (offset, bits): (u32, u32)) -> u64 {
    if bits == 0 {
        0
    } else {
        (word >> offset) & (u64::MAX >> (u64::BITS - bits))
    }
}

/// Entries `0..nnz` in lexicographic order of `keys` (most significant
/// first), equal keys in entry order. Each key is a column of `nnz` values
/// below its bound.
pub(crate) struct BucketSort<'a> {
    keys: Vec<(&'a [Idx], Idx)>,
    /// Entries per bucket; bucket `b` holds lead keys `b << shift ..`.
    counts: Vec<u32>,
    /// Low bits of the lead key kept in the word.
    shift: u32,
    /// `(offset, bits)` of each key in a word, lead (its low `shift` bits)
    /// first; `None` when the keys do not fit and words are bare entry ids.
    fields: Option<Vec<(u32, u32)>>,
    id_bits: u32,
    /// One word per entry, in sorted order.
    words: Vec<u64>,
}

impl<'a> BucketSort<'a> {
    pub(crate) fn new(nnz: usize, keys: Vec<(&'a [Idx], Idx)>) -> Self {
        assert!(nnz <= u32::MAX as usize, "entry ids are u32");
        assert!(keys.iter().all(|(col, _)| col.len() == nnz), "key column length != nnz");
        let id_bits = width(nnz as u64);
        let Some(&(lead, lead_bound)) = keys.first() else {
            // No keys: every entry ties, one bucket in entry order.
            let words = (0..nnz as u64).collect();
            return Self { keys, counts: vec![nnz as u32], shift: 0, fields: None, id_bits, words };
        };
        let shift = width(lead_bound as u64).saturating_sub(MIN_BUCKET_BITS.max(id_bits));
        let bits: Vec<u32> = std::iter::once(shift)
            .chain(keys[1..].iter().map(|&(_, bound)| width(bound as u64)))
            .collect();
        let total = bits.iter().sum::<u32>() + id_bits;
        let fields = (total <= u64::BITS).then(|| {
            let mut offset = total;
            bits.iter()
                .map(|&b| {
                    offset -= b;
                    (offset, b)
                })
                .collect::<Vec<_>>()
        });

        let mut counts = vec![0u32; ((lead_bound - 1) >> shift) as usize + 1];
        for &v in lead {
            counts[(v >> shift) as usize] += 1;
        }
        let mut next: Vec<u32> = counts
            .iter()
            .scan(0u32, |start, &c| {
                let s = *start;
                *start += c;
                Some(s)
            })
            .collect();
        let mut words = vec![0u64; nnz];
        // Key values are below their bounds, so only the lead needs a mask.
        let (low, rest): (u64, Vec<(&[Idx], u32)>) = match &fields {
            Some(f) => {
                ((1 << shift) - 1, keys[1..].iter().zip(&f[1..]).map(|(k, g)| (k.0, g.1)).collect())
            }
            None => (0, Vec::new()),
        };
        for (e, &v) in lead.iter().enumerate() {
            let mut w = v as u64 & low;
            for &(col, b) in &rest {
                w = (w << b) | col[e] as u64;
            }
            let slot = &mut next[(v >> shift) as usize];
            words[*slot as usize] = (w << id_bits) | e as u64;
            *slot += 1;
        }

        let mut start = 0;
        for &c in &counts {
            let bucket = &mut words[start..start + c as usize];
            if fields.is_some() {
                bucket.sort_unstable();
            } else {
                bucket.sort_unstable_by(|&a, &b| {
                    let key = |(col, _): &(&[Idx], Idx)| col[a as usize].cmp(&col[b as usize]);
                    keys.iter().map(key).find(|o| o.is_ne()).unwrap_or(a.cmp(&b))
                });
            }
            start += c as usize;
        }
        Self { keys, counts, shift, fields, id_bits, words }
    }

    /// Entry ids in sorted order.
    pub(crate) fn ids(&self) -> impl Iterator<Item = usize> + '_ {
        let id = (0, if self.fields.is_some() { self.id_bits } else { u64::BITS });
        self.words.iter().map(move |&w| field(w, id) as usize)
    }

    /// The sorted permutation: `perm[k]` is the entry id at position `k`.
    pub(crate) fn perm(&self) -> Vec<u32> {
        self.ids().map(|e| e as u32).collect()
    }

    /// `src`, one value per entry, in sorted order.
    pub(crate) fn gather<T: Copy>(&self, src: &[T]) -> Vec<T> {
        self.ids().map(|e| src[e]).collect()
    }

    /// Key column `k` in sorted order, decoded sequentially from the words:
    /// the lead from the bucket walk, the others from their fields. Wide
    /// keys gather it instead.
    pub(crate) fn column(&self, k: usize) -> Vec<Idx> {
        let Some(fields) = &self.fields else { return self.gather(self.keys[k].0) };
        if k > 0 {
            return self.words.iter().map(|&w| field(w, fields[k]) as Idx).collect();
        }
        let mut out = Vec::with_capacity(self.words.len());
        let mut start = 0;
        for (b, &c) in self.counts.iter().enumerate() {
            let high = (b as Idx) << self.shift;
            let bucket = &self.words[start..start + c as usize];
            out.extend(bucket.iter().map(|&w| high | field(w, fields[0]) as Idx));
            start += c as usize;
        }
        out
    }

    /// Lengths of the runs of equal keys, in sorted order.
    pub(crate) fn runs(&self) -> Vec<u32> {
        let packed = self.fields.is_some();
        let same = |a: u64, b: u64| {
            if packed {
                (a ^ b) >> self.id_bits == 0
            } else {
                self.keys.iter().all(|(col, _)| col[a as usize] == col[b as usize])
            }
        };
        let mut runs: Vec<u32> = Vec::new();
        let mut start = 0;
        for &c in &self.counts {
            let bucket = &self.words[start..start + c as usize];
            for (i, &w) in bucket.iter().enumerate() {
                match runs.last_mut() {
                    Some(run) if i > 0 && same(bucket[i - 1], w) => *run += 1,
                    _ => runs.push(1),
                }
            }
            start += c as usize;
        }
        runs
    }
}
