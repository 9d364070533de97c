//! Input making: graph shapes, depots and traffic updates, all derived from
//! the run's seed. The program receives only what is made here.

use std::collections::HashSet;

use polymer_graph::{DeltaBatch, EdgeList};

use crate::oracle::{self, Adj};

/// R-MAT shaped like the paper's rMat24, scaled down: 2^17 vertices with
/// 16 edges per vertex and the Graph500 probabilities.
pub const HOST_RMAT_SCALE: u32 = 17;
/// The simulator is ~100× slower per edge than the host executor, so
/// `sim-paper` runs the same shape at 2^14 vertices: one round of Table-3
/// rows then takes about a second.
pub const SIM_RMAT_SCALE: u32 = 14;
pub const RMAT_EDGES_PER_VERTEX: usize = 16;
/// rMat24's edge and vertex counts (paper Table 2), which scale the
/// simulated barrier and LLC costs to the generated graph's size.
pub const RMAT24_EDGES: f64 = 268e6;
pub const RMAT24_VERTICES: f64 = 16.8e6;

/// Road grid shaped like roadUS: a 512×512 lattice keeping each bond with
/// probability 0.6 (average directed degree ≈ 2.4, diameter ≈ 1000 hops).
pub const ROAD_SIDE: usize = 512;
pub const ROAD_BOND: f64 = 0.6;

/// Depots per workload: BFS/SSSP sources that reach most of the graph.
pub const DEPOTS: usize = 4;

/// SplitMix64: the benchmark's own seeded stream.
pub struct SplitMix(u64);

impl SplitMix {
    pub fn new(seed: u64) -> SplitMix {
        SplitMix(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }
}

/// An independent seed for input `tag` of run seed `seed`.
pub fn sub_seed(seed: u64, tag: u64) -> u64 {
    SplitMix::new(seed ^ tag.wrapping_mul(0xD6E8_FEB8_6659_FD93)).next_u64()
}

/// The benchmark's copy of an edge list as an adjacency.
pub fn adj_of(el: &EdgeList) -> Adj {
    Adj::from_triples(
        el.num_vertices,
        el.edges.iter().map(|e| (e.src, e.dst, e.weight)),
    )
}

/// R-MAT depots: the highest out-degree vertices (hubs reach the giant
/// component in a few hops), ties to the smaller id.
pub fn hub_depots(adj: &Adj) -> Vec<u32> {
    let mut v: Vec<u32> = (0..adj.n() as u32).collect();
    let deg = |x: u32| adj.offsets[x as usize + 1] - adj.offsets[x as usize];
    v.sort_by_key(|&x| (std::cmp::Reverse(deg(x)), x));
    v.truncate(DEPOTS);
    v
}

/// Road depots: fixed lattice points (the centre and three quarter points)
/// snapped to the nearest vertex of the largest component, searching rings
/// of growing radius in a fixed order. Fixed points keep the traversal
/// depth, and with it the superstep count, the same from seed to seed.
pub fn road_depots(el: &EdgeList, side: usize) -> Vec<u32> {
    let n = el.num_vertices;
    let label = oracle::components(n, el.edges.iter().map(|e| (e.src, e.dst)));
    let mut size = vec![0usize; n];
    for &l in &label {
        size[l as usize] += 1;
    }
    let giant = (0..n)
        .max_by_key(|&l| (size[l], std::cmp::Reverse(l)))
        .unwrap_or(0) as u32;
    let points = [(2, 2), (1, 1), (3, 3), (1, 3)];
    points
        .iter()
        .map(|&(qx, qy)| {
            let (cx, cy) = ((qx * side / 4) as i64, (qy * side / 4) as i64);
            for r in 0..side as i64 {
                for dy in -r..=r {
                    for dx in -r..=r {
                        if dx.abs().max(dy.abs()) != r {
                            continue;
                        }
                        let (x, y) = (cx + dx, cy + dy);
                        if x < 0 || y < 0 || x >= side as i64 || y >= side as i64 {
                            continue;
                        }
                        let v = (y * side as i64 + x) as u32;
                        if label[v as usize] == giant {
                            return v;
                        }
                    }
                }
            }
            0
        })
        .collect()
}

/// Reweighted segments per traffic update.
pub const REWEIGHTS: usize = 2;
/// Closed and opened segments per traffic update.
pub const CLOSURES: usize = 1;
pub const OPENINGS: usize = 1;

/// One traffic update: the batch for the service and the same mutations
/// for the benchmark's edge mirror.
pub struct TrafficUpdate {
    pub batch: DeltaBatch,
    pub deletes: Vec<(u32, u32)>,
    pub inserts: Vec<(u32, u32, u32)>,
}

/// Traffic updates over a road grid. Roads are two-way, so every mutation
/// touches both directions of a lattice bond (a *segment*, stored `u < v`).
///
/// No segment is touched twice in a run. Warm starts span several batches,
/// and a segment changed in two of them trips the fault that
/// `serve_road::merged_window_probe` shows on every round; left to chance,
/// it would fail on some seeds and not others.
pub struct Traffic {
    rng: SplitMix,
    side: usize,
    /// Live segments no update has touched: candidates to close or re-weight.
    fresh: Vec<(u32, u32)>,
    /// Segments that are live or were touched: openings pick outside them.
    taken: HashSet<(u32, u32)>,
}

impl Traffic {
    pub fn new(seed: u64, el: &EdgeList, side: usize) -> Traffic {
        let mut fresh: Vec<(u32, u32)> = el
            .edges
            .iter()
            .filter(|e| e.src < e.dst)
            .map(|e| (e.src, e.dst))
            .collect();
        fresh.sort_unstable();
        fresh.dedup();
        let taken = fresh.iter().copied().collect();
        Traffic {
            rng: SplitMix::new(seed),
            side,
            fresh,
            taken,
        }
    }

    /// A fresh segment, at random.
    fn pick(&mut self) -> (u32, u32) {
        let i = self.rng.below(self.fresh.len() as u64) as usize;
        self.fresh.swap_remove(i)
    }

    /// The next update: `CLOSURES` segments closed, `REWEIGHTS` other
    /// segments re-weighted (delete + insert with a new weight in 1..=100),
    /// and `OPENINGS` absent lattice bonds opened.
    pub fn next_update(&mut self) -> TrafficUpdate {
        let mut up = TrafficUpdate {
            batch: DeltaBatch::new(),
            deletes: Vec::new(),
            inserts: Vec::new(),
        };
        for _ in 0..CLOSURES {
            let (u, v) = self.pick();
            up.delete(u, v);
        }
        for _ in 0..REWEIGHTS {
            let (u, v) = self.pick();
            let w = 1 + self.rng.below(100) as u32;
            up.delete(u, v);
            up.insert(u, v, w);
        }
        let side = self.side as u64;
        let mut opened = 0;
        while opened < OPENINGS {
            let (x, y) = (self.rng.below(side), self.rng.below(side));
            let right = self.rng.below(2) == 0;
            let (nx, ny) = if right { (x + 1, y) } else { (x, y + 1) };
            if nx >= side || ny >= side {
                continue;
            }
            let (u, v) = ((y * side + x) as u32, (ny * side + nx) as u32);
            if !self.taken.insert((u, v)) {
                continue;
            }
            up.insert(u, v, 1 + self.rng.below(100) as u32);
            opened += 1;
        }
        up
    }
}

impl TrafficUpdate {
    fn delete(&mut self, u: u32, v: u32) {
        for (s, t) in [(u, v), (v, u)] {
            self.batch.delete(s, t);
            self.deletes.push((s, t));
        }
    }

    fn insert(&mut self, u: u32, v: u32, w: u32) {
        for (s, t) in [(u, v), (v, u)] {
            self.batch.insert(s, t, w);
            self.inserts.push((s, t, w));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use polymer_graph::gen;

    #[test]
    fn traffic_touches_every_segment_at_most_once() {
        let side = 16;
        let el = gen::road_grid(side, side, 0.6, 7);
        let mut traffic = Traffic::new(1, &el, side);
        let mut seen = HashSet::new();
        for _ in 0..40 {
            let up = traffic.next_update();
            let mut pairs: Vec<(u32, u32)> = up
                .deletes
                .iter()
                .copied()
                .chain(up.inserts.iter().map(|&(s, t, _)| (s, t)))
                .map(|(s, t)| (s.min(t), s.max(t)))
                .collect();
            pairs.sort_unstable();
            pairs.dedup();
            assert_eq!(pairs.len(), CLOSURES + REWEIGHTS + OPENINGS);
            for p in pairs {
                assert!(seen.insert(p), "segment {p:?} touched twice");
            }
        }
    }
}
