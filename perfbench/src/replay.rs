//! Calibration replays: per-call costs of layers the benchmark cannot wrap
//! call by call, measured at the workload's own sizes through each layer's
//! public API. Each returns nanoseconds per operation.

use std::hint::black_box;
use std::time::Instant;

use sdj_core::{Item, JoinConfig, Pair, PairKey, TiePolicy};
use sdj_geom::{Rect, SoaRects};
use sdj_pqueue::PairingHeap;
use sdj_rtree::{EntryPtr, ObjectId, RTree};
use sdj_storage::{BufferPool, PageId, Pager};

use crate::setup::derive;

/// Every page of `tree` with its leaf flag, root first (breadth-first).
pub fn pages(tree: &RTree<2>) -> Vec<(PageId, bool)> {
    let mut out = vec![];
    let mut frontier = vec![tree.root_id()];
    while let Some(page) = frontier.pop() {
        let node = tree.read_node(page).expect("reading a freshly loaded tree");
        out.push((page, node.is_leaf()));
        for e in &node.entries {
            if let EntryPtr::Child(child) = e.ptr {
                frontier.push(child);
            }
        }
    }
    out
}

/// Leaf entry rectangles of `tree`, one `Vec` per leaf, for up to `max`
/// leaves.
fn leaf_batches(tree: &RTree<2>, max: usize) -> Vec<Vec<Rect<2>>> {
    pages(tree)
        .into_iter()
        .filter(|(_, leaf)| *leaf)
        .take(max)
        .map(|(p, _)| {
            tree.read_node(p)
                .expect("reading a freshly loaded tree")
                .entries
                .iter()
                .map(|e| e.mbr)
                .collect()
        })
        .collect()
}

/// `sdj_geom::kernels` MINDIST over node-sized struct-of-arrays batches
/// from `a`'s leaves, against entry rectangles from `b`'s leaves, in the
/// join's default key space: ns per bound.
pub fn geom_ns_per_bound(a: &RTree<2>, b: &RTree<2>) -> f64 {
    const BOUNDS: usize = 2_000_000;
    let ks = JoinConfig::default().key_space();
    let batches: Vec<SoaRects<2>> = leaf_batches(a, 64)
        .iter()
        .map(|rects| {
            let mut soa = SoaRects::new();
            for r in rects {
                soa.push(r);
            }
            soa
        })
        .collect();
    let queries: Vec<Rect<2>> = leaf_batches(b, 4).into_iter().flatten().collect();
    let mut out = Vec::with_capacity(64);
    let (mut bounds, mut ns) = (0usize, 0u128);
    while bounds < BOUNDS {
        let t = Instant::now();
        for soa in &batches {
            for q in &queries {
                out.clear();
                soa.mindist_keys(ks, q, 0..soa.len(), &mut out);
                black_box(&out);
                bounds += soa.len();
            }
        }
        ns += t.elapsed().as_nanos();
    }
    ns as f64 / bounds as f64
}

/// `RTree::scan_node` over a resident set of half the pool's frames: ns per
/// node (pool hit plus entry decode).
pub fn rtree_scan_ns_per_node(tree: &RTree<2>) -> f64 {
    const SCANS: usize = 200_000;
    let frames = tree.config().buffer_frames;
    let resident: Vec<PageId> = pages(tree)
        .into_iter()
        .map(|(p, _)| p)
        .take((frames / 2).max(1))
        .collect();
    let scan = |p: PageId| {
        tree.scan_node(p, |level, e| {
            black_box((level, e));
        })
        .expect("scanning a freshly loaded tree")
    };
    for &p in &resident {
        scan(p);
    }
    let mut scans = 0;
    let t = Instant::now();
    while scans < SCANS {
        for &p in &resident {
            black_box(scan(p));
        }
        scans += resident.len();
    }
    t.elapsed().as_nanos() as f64 / scans as f64
}

/// A `BufferPool` of `frames` frames over `pages` pages of `page_size`
/// bytes: ns per page read on resident pages and on evicted ones. The miss
/// replay cycles over at least twice the frames, so every read misses.
pub fn storage_hit_miss_ns(page_size: usize, pages: usize, frames: usize) -> (f64, f64) {
    let pool = BufferPool::new(Pager::new(page_size), frames);
    let n = pages.max(2 * frames);
    let data = vec![0x5Au8; page_size];
    let ids: Vec<PageId> = (0..n).map(|_| pool.allocate()).collect();
    for &id in &ids {
        pool.write(id, &data).expect("writing a fresh page");
    }
    let read = |id: PageId| {
        pool.with_page(id, |b| black_box(b[0]))
            .expect("reading a written page")
    };
    // One full cycle writes back the dirty frames and leaves clean ones.
    for &id in &ids {
        read(id);
    }
    let resident = &ids[..(frames / 2).max(1)];
    for &id in resident {
        read(id);
    }
    let mut ops = 0;
    let t = Instant::now();
    while ops < 200_000 {
        for &id in resident {
            read(id);
        }
        ops += resident.len();
    }
    let hit_ns = t.elapsed().as_nanos() as f64 / ops as f64;
    let mut ops = 0;
    let t = Instant::now();
    while ops < 100_000 {
        for &id in &ids {
            read(id);
        }
        ops += ids.len();
    }
    let miss_ns = t.elapsed().as_nanos() as f64 / ops as f64;
    (hit_ns, miss_ns)
}

/// The default queue layout (pairing heap over fat pairs) at the counted
/// pass's sizes: ns per push and per pop.
///
/// The heap is first filled to `max_len` pairs with keys in [1, 2), the far
/// tail a join queues and never reaches. Then it runs the join's access
/// pattern: each pop takes the smallest key `k`, and `push_per_pop` new
/// pairs (the counted pass's push/pop ratio) enter just above `k`, so pops
/// come from recent pushes as in a best-first traversal.
pub fn pqueue_push_pop_ns(max_len: usize, push_per_pop: f64) -> (f64, f64) {
    const POPS: usize = 200_000;
    let pair = |i: u64, key: f64| {
        let r = Rect::new([key, key], [key, key]);
        let pair = Pair::new(
            Item::Obr {
                oid: ObjectId(i),
                mbr: r,
            },
            Item::Obr {
                oid: ObjectId(i + 1),
                mbr: r,
            },
        );
        (PairKey::new(key, &pair, TiePolicy::DepthFirst), pair)
    };
    let unit = |i: u64| (derive(i, 11) >> 11) as f64 / (1u64 << 53) as f64;
    let mut heap: PairingHeap<PairKey, Pair<2>> = PairingHeap::new();
    for i in 0..max_len as u64 {
        let (k, p) = pair(i, 1.0 + unit(i));
        heap.push(k, p);
    }
    // The first pop pairs up all prefilled roots at once, a cost a join
    // spreads over its interleaved pops; it stays untimed.
    black_box(heap.pop());
    let ratio = push_per_pop.max(1.0);
    let (mut push_ns, mut pushes, mut pop_ns) = (0u128, 0u64, 0u128);
    let (mut credit, mut last, mut i) = (ratio, 0.0f64, max_len as u64);
    for _ in 0..POPS {
        let t = Instant::now();
        while credit >= 1.0 {
            let (k, p) = pair(i, last + 1e-9 * unit(i));
            heap.push(k, p);
            i += 1;
            pushes += 1;
            credit -= 1.0;
        }
        push_ns += t.elapsed().as_nanos();
        credit += ratio;
        let t = Instant::now();
        let popped = heap.pop();
        pop_ns += t.elapsed().as_nanos();
        if let Some((k, _)) = popped {
            last = k.dist.get();
        }
    }
    (
        push_ns as f64 / pushes.max(1) as f64,
        pop_ns as f64 / POPS as f64,
    )
}
