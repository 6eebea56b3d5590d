//! The campaign scheduler: checkpoint-affinity buckets dealt to worker
//! threads with work stealing and order-preserving collection.
//!
//! [`run_bucketed`] is the one parallel runner. Callers key every work
//! item, a checkpointed campaign by the replay checkpoint the item
//! restores from; items sharing a key form a bucket that one call to the
//! caller's `work` serves, so a per-bucket setup cost (restoring a
//! snapshot and walking forward) is paid once per bucket instead of once
//! per item. Workers claim buckets —
//! and contiguous chunks of oversized ones ([`contiguous_ranges`]) — from
//! an atomic cursor as they go idle, and results come back in item
//! order, so scheduling is invisible in the output: campaigns classify
//! identically at every thread count.

use std::num::NonZeroUsize;
use std::ops::Range;

/// Resolves a requested worker count: `0` means all available cores.
pub fn resolve_threads(requested: usize) -> usize {
    if requested > 0 {
        requested
    } else {
        std::thread::available_parallelism().map(NonZeroUsize::get).unwrap_or(1)
    }
}

/// Splits `len` items into at most `shards` contiguous, near-equal,
/// non-empty ranges covering `0..len` in order.
///
/// Degenerate requests degrade instead of erroring: `len == 0` yields no
/// shards, and `shards == 0` (like `shards == 1`) yields a single shard
/// covering everything — the clamp to `1..=len` makes every returned
/// shard non-empty.
pub fn contiguous_ranges(len: usize, shards: usize) -> Vec<Range<usize>> {
    if len == 0 {
        return Vec::new();
    }
    let shards = shards.clamp(1, len);
    let chunk = len.div_ceil(shards);
    (0..len).step_by(chunk).map(|start| start..(start + chunk).min(len)).collect()
}

/// Items per extra worker [`run_bucketed`] needs before it splits
/// buckets across threads. Every split re-pays a bucket's setup, which
/// for a checkpointed campaign is a restore plus a walk of up to one
/// checkpoint interval; plans near the end of a trace run for fewer
/// steps than that walk, so a short tail campaign (a few dozen plans in
/// one neighbourhood) is cheapest inline. Longer runs of plans amortize
/// the setup and spread across workers.
const MIN_ITEMS_PER_WORKER: usize = 32;

/// Affinity scheduling: groups items into buckets by a caller-supplied
/// key, runs `work` over the buckets on up to `threads` workers, and
/// returns one result per item **in item order** — bucketing and thread
/// count are invisible in the output.
///
/// `work` receives the bucket's key and a run of the bucket's item
/// indices in ascending order, and must return one result per index, in
/// that order. Handing `work` a whole run — rather than one item at a
/// time — is the point: a worker can pay a per-bucket setup cost (e.g.
/// restoring one replay checkpoint) once for every item that shares it.
/// This is how checkpointed campaigns schedule plans: keyed by the
/// checkpoint preceding their first injection, a bucket restores that
/// checkpoint once per run instead of once per plan.
///
/// Workers are capped by the work on offer: at most one per bucket or
/// one per `MIN_ITEMS_PER_WORKER` (32) items, whichever allows more. With
/// one worker — one thread, or a single bucket too small to be worth
/// splitting — every bucket runs whole on the caller's thread, in
/// ascending key order, paying its setup once. With more, scheduling is
/// work-stealing over an atomic cursor: workers claim the next unclaimed
/// unit as they go idle, so a few expensive buckets cannot serialize the
/// tail of a run behind one worker while the rest sit idle. **Oversized
/// buckets are split** into contiguous chunks of at most
/// `⌈items / (16 × workers)⌉` indices — each chunk re-pays the bucket's
/// setup cost, but idle workers get to help with a giant neighbourhood
/// (a streamed batch of plans from a few neighbouring sites is often one
/// bucket) instead of watching it run, and the last chunk of a call,
/// which every other worker waits out, stays short. Only wall-clock time
/// depends on these choices.
pub fn run_bucketed<T, K, R, F>(
    items: &[T],
    threads: usize,
    key_of: impl Fn(&T) -> K,
    work: F,
) -> Vec<R>
where
    T: Sync,
    K: Ord + Send + Sync,
    R: Send,
    F: Fn(&K, &[usize]) -> Vec<R> + Sync,
{
    let mut buckets: std::collections::BTreeMap<K, Vec<usize>> = std::collections::BTreeMap::new();
    for (index, item) in items.iter().enumerate() {
        buckets.entry(key_of(item)).or_default().push(index);
    }
    let buckets: Vec<(K, Vec<usize>)> = buckets.into_iter().collect();
    let mut slots: Vec<Option<R>> = std::iter::repeat_with(|| None).take(items.len()).collect();
    let scatter = |slots: &mut Vec<Option<R>>, indices: &[usize], results: Vec<R>| {
        assert_eq!(indices.len(), results.len(), "one result per bucket item");
        for (&index, result) in indices.iter().zip(results) {
            slots[index] = Some(result);
        }
    };
    let workers =
        resolve_threads(threads).min(buckets.len().max(items.len() / MIN_ITEMS_PER_WORKER)).max(1);
    if workers <= 1 {
        for (key, indices) in &buckets {
            let results = work(key, indices);
            scatter(&mut slots, indices, results);
        }
    } else {
        // Claimable units: whole buckets, except buckets larger than the
        // chunk target, which split into contiguous index runs so idle
        // workers can steal part of an oversized neighbourhood. ~16 units
        // per worker keeps claim contention negligible (one atomic add
        // per unit) while leaving enough slack for stealing to balance
        // skewed bucket costs, and bounds the idle tail at the end of
        // the call: a streamed campaign makes one call per batch of
        // plans, so it pays that tail once per batch.
        let chunk_target = items.len().div_ceil(workers * 16).max(1);
        let units: Vec<(usize, Range<usize>)> = buckets
            .iter()
            .enumerate()
            .flat_map(|(bucket, (_, indices))| {
                contiguous_ranges(indices.len(), indices.len().div_ceil(chunk_target))
                    .into_iter()
                    .map(move |range| (bucket, range))
            })
            .collect();
        let cursor = std::sync::atomic::AtomicUsize::new(0);
        std::thread::scope(|scope| {
            let (work, units, buckets, cursor) = (&work, &units, &buckets, &cursor);
            let handles: Vec<_> = (0..workers.min(units.len()))
                .map(|_| {
                    scope.spawn(move || {
                        let mut done: Vec<(usize, Vec<R>)> = Vec::new();
                        loop {
                            let unit = cursor.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                            let Some((bucket, range)) = units.get(unit) else { break };
                            let (key, indices) = &buckets[*bucket];
                            done.push((unit, work(key, &indices[range.clone()])));
                        }
                        done
                    })
                })
                .collect();
            for handle in handles {
                for (unit, results) in handle.join().expect("bucket worker panicked") {
                    let (bucket, range) = &units[unit];
                    let (_, indices) = &buckets[*bucket];
                    scatter(&mut slots, &indices[range.clone()], results);
                }
            }
        });
    }
    slots.into_iter().map(|r| r.expect("every item evaluated")).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn ranges_cover_everything_in_order() {
        for len in [0usize, 1, 2, 7, 8, 9, 100, 101] {
            for shards in [1usize, 2, 3, 8, 200] {
                let ranges = contiguous_ranges(len, shards);
                let mut covered = 0;
                for r in &ranges {
                    assert_eq!(r.start, covered, "contiguous in order");
                    assert!(r.end > r.start, "non-empty");
                    covered = r.end;
                }
                assert_eq!(covered, len, "full coverage for len={len} shards={shards}");
                assert!(ranges.len() <= shards.max(1));
            }
        }
    }

    #[test]
    fn resolve_threads_defaults_to_cores() {
        assert!(resolve_threads(0) >= 1);
        assert_eq!(resolve_threads(3), 3);
    }

    // Property coverage for `contiguous_ranges`, with the edge cases the
    // example-based test above skips: `shards > len`, `len == 0`, and
    // `shards == 0` (documented to behave like a single shard).
    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(256))]

        #[test]
        fn contiguous_ranges_cover_every_index_exactly_once(
            len in 0usize..300,
            shards in 0usize..400,
        ) {
            let ranges = contiguous_ranges(len, shards);
            let mut seen = vec![0usize; len];
            for range in &ranges {
                proptest::prop_assert!(range.start < range.end, "empty shard {range:?}");
                proptest::prop_assert!(range.end <= len);
                for index in range.clone() {
                    seen[index] += 1;
                }
            }
            proptest::prop_assert!(
                seen.iter().all(|&count| count == 1),
                "len={len} shards={shards}: coverage {seen:?}"
            );
            proptest::prop_assert!(ranges.len() <= shards.max(1).min(len.max(1)));
        }
    }

    #[test]
    fn bucketed_runs_preserve_item_order_and_group_by_key() {
        // Key = tens digit: buckets of up to 10 neighbouring items.
        let items: Vec<usize> = (0..137).rev().collect();
        let expected: Vec<usize> = items.iter().map(|x| x * 3).collect();
        for threads in [1, 3, 8] {
            let calls = std::sync::Mutex::new(Vec::new());
            let results = run_bucketed(
                &items,
                threads,
                |&x| x / 10,
                |&key, indices| {
                    calls.lock().unwrap().push((key, indices.to_vec()));
                    // Indices arrive ascending, and every item in the
                    // run shares the key.
                    assert!(indices.windows(2).all(|w| w[0] < w[1]));
                    assert!(indices.iter().all(|&i| items[i] / 10 == key));
                    indices.iter().map(|&i| items[i] * 3).collect()
                },
            );
            assert_eq!(results, expected, "threads={threads}");
            let calls = calls.into_inner().unwrap();
            // 137 items with tens-digit keys → 14 buckets; chunk
            // splitting may hand a bucket to `work` in several ascending
            // runs, but never mixes keys and never repeats an index.
            assert!(calls.len() >= 14, "threads={threads}: {} calls", calls.len());
            let mut per_key = std::collections::BTreeMap::new();
            for (key, indices) in calls {
                per_key.entry(key).or_insert_with(Vec::new).extend(indices);
            }
            assert_eq!(per_key.len(), 14, "threads={threads}");
            for (key, mut indices) in per_key {
                indices.sort_unstable();
                indices.dedup();
                let expected_count = items.iter().filter(|&&x| x / 10 == key).count();
                assert_eq!(indices.len(), expected_count, "key {key} threads={threads}");
            }
        }
    }

    #[test]
    fn bucketed_stealing_splits_an_oversized_bucket_into_claimable_chunks() {
        // One giant bucket plus a handful of singletons: the old static
        // whole-bucket deal handed the giant to one worker in a single
        // call while the others exited after their singletons; the
        // cursor scheduling splits it into bounded chunks any idle
        // worker can claim. (Which worker claims which chunk is timing —
        // the splitting and the bound are what's deterministic.)
        let items: Vec<usize> = (0..400).collect();
        let expected: Vec<usize> = items.iter().map(|x| x + 1).collect();
        let giant_chunks = std::sync::Mutex::new(Vec::new());
        let results = run_bucketed(
            &items,
            4,
            |&x| if x < 396 { 0u8 } else { (x - 395) as u8 },
            |&key, indices| {
                if key == 0 {
                    giant_chunks.lock().unwrap().push(indices.to_vec());
                }
                indices.iter().map(|&i| items[i] + 1).collect()
            },
        );
        assert_eq!(results, expected);
        let chunks = giant_chunks.into_inner().unwrap();
        // Chunk target = ⌈400 / (4 workers × 16)⌉ = 7: the 396-item
        // bucket must arrive as many bounded runs, not one call.
        assert!(chunks.len() >= 396 / 7, "only {} chunks", chunks.len());
        let mut all: Vec<usize> = Vec::new();
        for chunk in &chunks {
            assert!(chunk.len() <= 7, "chunk of {} items", chunk.len());
            assert!(chunk.windows(2).all(|w| w[0] < w[1]), "ascending within a chunk");
            all.extend(chunk);
        }
        all.sort_unstable();
        assert_eq!(all, (0..396).collect::<Vec<_>>(), "giant bucket covered exactly once");
    }

    #[test]
    fn single_thread_runs_inline() {
        // One worker — one thread, or at any thread count one bucket
        // with fewer than two workers' worth of items (a short tail
        // campaign) — runs each bucket whole, in one call on the
        // caller's thread: no worker is spawned and each bucket's setup
        // (one checkpoint restore) is paid once.
        let caller = std::thread::current().id();
        for (threads, len, width) in
            [(1, 400, 100), (4, 2 * MIN_ITEMS_PER_WORKER - 1, 2 * MIN_ITEMS_PER_WORKER)]
        {
            let items: Vec<usize> = (0..len).collect();
            let buckets = len.div_ceil(width);
            let calls = AtomicUsize::new(0);
            let results = run_bucketed(
                &items,
                threads,
                |&x| x / width,
                |_, indices| {
                    calls.fetch_add(1, Ordering::Relaxed);
                    assert_eq!(indices.len(), width.min(len), "threads={threads}");
                    assert_eq!(std::thread::current().id(), caller, "threads={threads}");
                    indices.iter().map(|&i| items[i] * 2).collect()
                },
            );
            assert_eq!(results, items.iter().map(|x| x * 2).collect::<Vec<_>>());
            assert_eq!(calls.into_inner(), buckets, "threads={threads}");
        }
    }

    #[test]
    fn one_large_bucket_splits_across_workers() {
        // A single bucket holding many items — a streamed batch whose
        // plans all share one checkpoint — is still split into bounded
        // chunks when threads are available, instead of running on one
        // worker. Chunk target = ⌈1024 / (2 workers × 16)⌉ = 32.
        let items: Vec<usize> = (0..1024).collect();
        let chunks = std::sync::Mutex::new(Vec::new());
        let results = run_bucketed(
            &items,
            2,
            |_| 0u8,
            |_, indices| {
                chunks.lock().unwrap().push(indices.to_vec());
                indices.iter().map(|&i| items[i] + 1).collect()
            },
        );
        assert_eq!(results, items.iter().map(|x| x + 1).collect::<Vec<_>>());
        let chunks = chunks.into_inner().unwrap();
        assert_eq!(chunks.len(), 32, "one bucket dealt as 32 claimable chunks");
        assert!(chunks.iter().all(|chunk| chunk.len() == 32));
    }

    #[test]
    fn bucketed_runs_handle_degenerate_inputs() {
        let empty: [u32; 0] = [];
        assert!(run_bucketed(&empty, 4, |&x| x, |_, i| vec![0u32; i.len()]).is_empty());
        // One bucket, many threads.
        let ones = [7u32; 5];
        let out = run_bucketed(&ones, 8, |_| 0u8, |_, indices| vec![1u32; indices.len()]);
        assert_eq!(out, vec![1; 5]);
    }

    #[test]
    #[should_panic(expected = "one result per bucket item")]
    fn bucketed_work_must_answer_every_item() {
        let items = [1u32, 2, 3];
        let _ = run_bucketed(&items, 1, |_| 0u8, |_, _| Vec::<u32>::new());
    }
}
