//! Submission-order folding of per-unit partials — the discipline that
//! lets the kernels run on the host pool without moving a single
//! output bit.
//!
//! A kernel splits its entries into **units** (fixed windows, blocks,
//! partitions — never a function of the thread count), and each unit
//! records the `out.add(index, value)` calls it *would* have made into a
//! private [`UpdateList`]. [`run_units`] executes the units on the
//! `scalfrag-host` pool and then applies the lists **in unit order** from
//! one thread. Because the pre-pool kernels also executed units
//! sequentially in submission order, the applied add sequence is
//! *identical* to theirs — which is why the golden cluster output
//! checksum (a hash of output value bits) survives the pool at every
//! thread count.

use crate::atomic_buf::AtomicF32Buffer;

/// The `out.add` calls one unit produces, in the order it produced them:
/// `(flat output index, addend)`.
pub type UpdateList = Vec<(usize, f32)>;

/// Runs `unit(u, &mut list)` for every `u in 0..num_units` on the host
/// pool and applies every recorded update to `out` in unit order.
///
/// At an effective thread count of 1 the units run inline and each list
/// is applied as soon as its unit finishes — same order, no buffering —
/// so the sequential path keeps its flat memory profile and stays the
/// bit-reference the parallel path must reproduce.
pub fn run_units<F>(num_units: usize, out: &AtomicF32Buffer, unit: F)
where
    F: Fn(usize, &mut UpdateList) + Sync,
{
    if scalfrag_host::current_num_threads() <= 1 || num_units <= 1 {
        let mut list = UpdateList::new();
        for u in 0..num_units {
            list.clear();
            unit(u, &mut list);
            apply(out, &list);
        }
        return;
    }
    let lists = scalfrag_host::par_map(num_units, |u| {
        let mut list = UpdateList::new();
        unit(u, &mut list);
        list
    });
    for list in &lists {
        apply(out, list);
    }
}

fn apply(out: &AtomicF32Buffer, list: &UpdateList) {
    for &(index, value) in list {
        out.add(index, value);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn applies_updates_in_unit_order_at_every_thread_count() {
        // f32 addition is not associative: applying unit partials out of
        // order would move bits on this payload (1e8 absorbs small adds
        // one at a time but not pre-summed).
        let golden = scalfrag_host::with_threads(1, run_case);
        for threads in [2usize, 4, 8] {
            let got = scalfrag_host::with_threads(threads, run_case);
            assert_eq!(golden, got, "{threads} threads moved bits");
        }
    }

    fn run_case() -> Vec<u32> {
        let out = AtomicF32Buffer::new(4);
        run_units(64, &out, |u, list| {
            let x = if u == 0 { 1e8 } else { 5.0 };
            list.push((u % 4, x));
            list.push(((u + 1) % 4, x * 0.5));
        });
        out.to_vec().iter().map(|v| v.to_bits()).collect()
    }

    #[test]
    fn zero_units_is_a_noop() {
        let out = AtomicF32Buffer::new(2);
        run_units(0, &out, |_, _| panic!("no units to run"));
        assert_eq!(out.to_vec(), vec![0.0, 0.0]);
    }
}
