//! Independent oracles: every answer the benchmark receives is checked
//! against a computation written here, over the benchmark's own copy of the
//! edges, never against the program's reference executor or a stored copy
//! of an earlier output.

use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap, VecDeque};

/// Level / distance of a vertex the source does not reach (the program's
/// `UNVISITED` and `UNREACHED` are the all-ones values of their widths).
pub const UNREACHED_LEVEL: u32 = u32::MAX;
/// See [`UNREACHED_LEVEL`].
pub const UNREACHED_DIST: u64 = u64::MAX;

/// A directed, weighted adjacency in CSR form, built by the benchmark from
/// its own edge triples. Parallel edges and self-loops are kept, so the
/// multiset of edges is exactly what the program was handed.
#[derive(Clone, Debug)]
pub struct Adj {
    pub offsets: Vec<usize>,
    pub targets: Vec<u32>,
    pub weights: Vec<u32>,
}

impl Adj {
    pub fn from_triples(n: usize, edges: impl Iterator<Item = (u32, u32, u32)> + Clone) -> Adj {
        let mut offsets = vec![0usize; n + 1];
        for (s, _, _) in edges.clone() {
            offsets[s as usize + 1] += 1;
        }
        for v in 0..n {
            offsets[v + 1] += offsets[v];
        }
        let m = offsets[n];
        let mut fill = offsets.clone();
        let mut targets = vec![0u32; m];
        let mut weights = vec![0u32; m];
        for (s, t, w) in edges {
            let i = fill[s as usize];
            targets[i] = t;
            weights[i] = w;
            fill[s as usize] += 1;
        }
        Adj {
            offsets,
            targets,
            weights,
        }
    }

    pub fn n(&self) -> usize {
        self.offsets.len() - 1
    }

    pub fn range(&self, v: usize) -> std::ops::Range<usize> {
        self.offsets[v]..self.offsets[v + 1]
    }
}

/// Hop levels from `source` by a FIFO queue.
pub fn bfs_levels(offsets: &[usize], targets: &[u32], source: u32) -> Vec<u32> {
    let n = offsets.len() - 1;
    let mut level = vec![UNREACHED_LEVEL; n];
    let mut queue = VecDeque::new();
    level[source as usize] = 0;
    queue.push_back(source);
    while let Some(v) = queue.pop_front() {
        let next = level[v as usize] + 1;
        for &t in &targets[offsets[v as usize]..offsets[v as usize + 1]] {
            if level[t as usize] == UNREACHED_LEVEL {
                level[t as usize] = next;
                queue.push_back(t);
            }
        }
    }
    level
}

/// Shortest-path distances from `source` by Dijkstra over a binary heap.
pub fn dijkstra(adj: &Adj, source: u32) -> Vec<u64> {
    let mut dist = vec![UNREACHED_DIST; adj.n()];
    let mut heap = BinaryHeap::new();
    dist[source as usize] = 0;
    heap.push(Reverse((0u64, source)));
    while let Some(Reverse((d, v))) = heap.pop() {
        if d > dist[v as usize] {
            continue;
        }
        for i in adj.range(v as usize) {
            let t = adj.targets[i] as usize;
            let nd = d + adj.weights[i] as u64;
            if nd < dist[t] {
                dist[t] = nd;
                heap.push(Reverse((nd, t as u32)));
            }
        }
    }
    dist
}

/// Check that `dist` is the exact shortest-path distance vector from
/// `source` without recomputing it. With positive weights, `dist` is exact
/// if and only if `dist[source] = 0`, no edge can still relax a target
/// (`dist[v] ≤ dist[u] + w`), and every other reached vertex has a tight
/// in-edge (`dist[u] + w = dist[v]`): the first bounds `dist` above by the
/// true distance, and following tight edges back, with strictly falling
/// values, ends at the source along a real path, which bounds it below.
pub fn check_distances(adj: &Adj, source: u32, dist: &[u64]) -> Result<(), String> {
    let n = adj.n();
    if dist.len() != n {
        return Err(format!("SSSP: {} values, expected {n}", dist.len()));
    }
    if dist[source as usize] != 0 {
        return Err(format!(
            "SSSP: source {source} at distance {}",
            dist[source as usize]
        ));
    }
    let mut tight = vec![false; n];
    tight[source as usize] = true;
    for u in 0..n {
        if dist[u] == UNREACHED_DIST {
            continue;
        }
        for i in adj.range(u) {
            let (v, w) = (adj.targets[i] as usize, adj.weights[i] as u64);
            if w == 0 {
                return Err(format!("SSSP: zero-weight edge {u} -> {v}"));
            }
            let via = dist[u] + w;
            if dist[v] > via {
                return Err(format!(
                    "SSSP: vertex {v} at {} but {u} + {w} gives {via}",
                    dist[v]
                ));
            }
            tight[v] |= dist[v] == via;
        }
    }
    match (0..n).find(|&v| dist[v] != UNREACHED_DIST && !tight[v]) {
        None => Ok(()),
        Some(v) => Err(format!(
            "SSSP: vertex {v} at {} is reached by no in-edge",
            dist[v]
        )),
    }
}

/// Component labels by union-find, ignoring edge direction: each vertex is
/// labelled with the smallest vertex id of its component (the label that
/// min-label propagation converges to).
pub fn components(n: usize, pairs: impl Iterator<Item = (u32, u32)>) -> Vec<u32> {
    let mut parent: Vec<u32> = (0..n as u32).collect();
    fn find(parent: &mut [u32], mut v: u32) -> u32 {
        while parent[v as usize] != v {
            let p = parent[v as usize];
            parent[v as usize] = parent[p as usize];
            v = p;
        }
        v
    }
    for (a, b) in pairs {
        let (ra, rb) = (find(&mut parent, a), find(&mut parent, b));
        // Union by smaller id keeps every root the minimum of its set.
        if ra < rb {
            parent[rb as usize] = ra;
        } else if rb < ra {
            parent[ra as usize] = rb;
        }
    }
    (0..n as u32).map(|v| find(&mut parent, v)).collect()
}

/// PageRank with the program's frontier-gated semantics: every vertex starts
/// at `1/n` and active; each iteration the active vertices push
/// `rank / out_degree` along their out-edges, every vertex that received a
/// contribution becomes `(1-d)/n + d·sum`, and stays active while it moved
/// by more than `epsilon`. Vertices that received nothing keep their rank
/// and drop out. Returns the ranks and the iterations run (at most `iters`,
/// fewer if the frontier empties).
pub fn pagerank_gated(
    offsets: &[usize],
    targets: &[u32],
    iters: usize,
    damping: f64,
    epsilon: f64,
) -> (Vec<f64>, usize) {
    let n = offsets.len() - 1;
    let base = (1.0 - damping) / n as f64;
    let mut rank = vec![1.0 / n as f64; n];
    let mut active = vec![true; n];
    let mut acc = vec![0.0f64; n];
    let mut got = vec![false; n];
    let mut run = 0;
    while run < iters && active.iter().any(|&a| a) {
        for v in 0..n {
            if !active[v] {
                continue;
            }
            let deg = (offsets[v + 1] - offsets[v]) as f64;
            for &t in &targets[offsets[v]..offsets[v + 1]] {
                acc[t as usize] += rank[v] / deg;
                got[t as usize] = true;
            }
        }
        for v in 0..n {
            active[v] = false;
            if got[v] {
                let new = base + damping * acc[v];
                active[v] = (new - rank[v]).abs() > epsilon;
                rank[v] = new;
            }
            acc[v] = 0.0;
            got[v] = false;
        }
        run += 1;
    }
    (rank, run)
}

/// How far `x` is from the PageRank fixpoint `x = (1-d)/n + d·Σ_{u→v}
/// x_u / outdeg(u)`: the largest entry of the residual `|F(x) − x|`. It is 0
/// at the fixpoint of exactly this graph; an answer computed on a graph that
/// misses an edge change is off by about a rank over a degree there.
pub fn pagerank_residual(offsets: &[usize], targets: &[u32], damping: f64, x: &[f64]) -> f64 {
    let n = offsets.len() - 1;
    let mut fx = vec![0.0f64; n];
    for v in 0..n {
        let deg = offsets[v + 1] - offsets[v];
        for &t in &targets[offsets[v]..offsets[v + 1]] {
            fx[t as usize] += x[v] / deg as f64;
        }
    }
    let base = (1.0 - damping) / n as f64;
    fx.iter()
        .zip(x)
        .map(|(&s, &xv)| (base + damping * s - xv).abs())
        .fold(0.0, f64::max)
}

/// Relative tolerance of PageRank answers: parallel summation order differs
/// from the oracle's by far less than this.
pub const PR_TOL: f64 = 1e-9;

/// Iterations of a synchronous BFS: one superstep per level, plus the one
/// whose frontier (the deepest level) discovers nothing.
pub fn bfs_iterations(levels: &[u32]) -> usize {
    levels
        .iter()
        .filter(|&&l| l != UNREACHED_LEVEL)
        .max()
        .map_or(0, |&l| l as usize + 1)
}

pub fn check_iterations(what: &str, got: usize, want: usize) -> Result<(), String> {
    if got == want {
        Ok(())
    } else {
        Err(format!(
            "{what}: {got} iterations, the oracle's semantics give {want}"
        ))
    }
}

/// Exact comparison of integer answers; the error names the first mismatch.
pub fn check_exact<T: PartialEq + std::fmt::Debug>(
    what: &str,
    got: &[T],
    want: &[T],
) -> Result<(), String> {
    if got.len() != want.len() {
        return Err(format!(
            "{what}: {} values, expected {}",
            got.len(),
            want.len()
        ));
    }
    match got.iter().zip(want).position(|(a, b)| a != b) {
        None => Ok(()),
        Some(v) => Err(format!(
            "{what}: vertex {v} is {:?}, expected {:?}",
            got[v], want[v]
        )),
    }
}

/// Float comparison: every value within `rel` of the expected one, relative
/// to the larger of the two magnitudes and the uniform rank `1/n` (so
/// near-zero entries are judged on the scale of the vector).
pub fn check_close(what: &str, got: &[f64], want: &[f64], rel: f64) -> Result<(), String> {
    if got.len() != want.len() {
        return Err(format!(
            "{what}: {} values, expected {}",
            got.len(),
            want.len()
        ));
    }
    let floor = 1.0 / want.len().max(1) as f64;
    for (v, (&a, &b)) in got.iter().zip(want).enumerate() {
        let scale = a.abs().max(b.abs()).max(floor);
        let close = (a - b).abs() <= rel * scale; // false for NaN too
        if !close {
            return Err(format!(
                "{what}: vertex {v} is {a:e}, expected {b:e} (tolerance {rel:e})"
            ));
        }
    }
    Ok(())
}

/// Counters of one applied mutation batch, computed by [`EdgeMirror`] with
/// the documented ingest semantics (deletes first, then inserts; duplicate
/// deletes collapse, duplicate inserts keep the last weight).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct MirrorStats {
    pub inserted: usize,
    pub updated: usize,
    pub deleted: usize,
    pub missing: usize,
}

/// The live edge set of a mutating graph, kept by the benchmark beside the
/// service so that answers after an ingest are checked against the graph
/// they were computed on. Self-loops are dropped and parallel edges keep the
/// first weight, as when the program canonicalises a loaded graph.
#[derive(Clone, Debug)]
pub struct EdgeMirror {
    /// Out-edges `(target, weight)` of every vertex, sorted by target.
    out: Vec<Vec<(u32, u32)>>,
}

impl EdgeMirror {
    pub fn new(n: usize, edges: impl Iterator<Item = (u32, u32, u32)>) -> EdgeMirror {
        let mut out = vec![Vec::new(); n];
        for (s, t, w) in edges {
            if s != t {
                out[s as usize].push((t, w));
            }
        }
        for list in &mut out {
            // Stable: of parallel edges, the first in input order survives.
            list.sort_by_key(|&(t, _)| t);
            list.dedup_by_key(|&mut (t, _)| t);
        }
        EdgeMirror { out }
    }

    #[cfg(test)]
    pub fn weight(&self, s: u32, t: u32) -> Option<u32> {
        let list = &self.out[s as usize];
        list.binary_search_by_key(&t, |&(x, _)| x)
            .ok()
            .map(|i| list[i].1)
    }

    pub fn apply(&mut self, deletes: &[(u32, u32)], inserts: &[(u32, u32, u32)]) -> MirrorStats {
        let mut stats = MirrorStats::default();
        let mut del: Vec<(u32, u32)> = deletes.to_vec();
        del.sort_unstable();
        del.dedup();
        for (s, t) in del {
            let list = &mut self.out[s as usize];
            match list.binary_search_by_key(&t, |&(x, _)| x) {
                Ok(i) => {
                    list.remove(i);
                    stats.deleted += 1;
                }
                Err(_) => stats.missing += 1,
            }
        }
        let mut last: HashMap<(u32, u32), u32> = HashMap::new();
        for &(s, t, w) in inserts {
            last.insert((s, t), w);
        }
        for ((s, t), w) in last {
            let list = &mut self.out[s as usize];
            match list.binary_search_by_key(&t, |&(x, _)| x) {
                Ok(i) => {
                    list[i].1 = w;
                    stats.updated += 1;
                }
                Err(i) => {
                    list.insert(i, (t, w));
                    stats.inserted += 1;
                }
            }
        }
        stats
    }

    /// The live edges as an adjacency.
    pub fn adj(&self) -> Adj {
        let edges = self
            .out
            .iter()
            .enumerate()
            .flat_map(|(s, list)| list.iter().map(move |&(t, w)| (s as u32, t, w)));
        Adj::from_triples(self.out.len(), edges)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// 0 -> 1 -> 2 -> 3 with weights 5, 10, 20.
    fn path() -> Adj {
        Adj::from_triples(4, [(0, 1, 5), (1, 2, 10), (2, 3, 20)].into_iter())
    }

    /// Hub 0 with spokes to 1..=4 and back, unit weights.
    fn star() -> Adj {
        let e: Vec<(u32, u32, u32)> = (1..5).flat_map(|v| [(0, v, 1), (v, 0, 1)]).collect();
        Adj::from_triples(5, e.into_iter())
    }

    /// A 3×3 grid (ids `3y + x`, both directions, weight 1) with the bond
    /// 4–5 deleted.
    fn grid_mirror() -> EdgeMirror {
        let mut e = Vec::new();
        for y in 0..3u32 {
            for x in 0..3u32 {
                let v = 3 * y + x;
                if x < 2 {
                    e.extend([(v, v + 1, 1), (v + 1, v, 1)]);
                }
                if y < 2 {
                    e.extend([(v, v + 3, 1), (v + 3, v, 1)]);
                }
            }
        }
        let mut m = EdgeMirror::new(9, e.into_iter());
        let stats = m.apply(&[(4, 5), (5, 4)], &[]);
        assert_eq!(
            stats,
            MirrorStats {
                deleted: 2,
                ..Default::default()
            }
        );
        m
    }

    #[test]
    fn bfs_on_path_star_and_grid() {
        let p = path();
        assert_eq!(bfs_levels(&p.offsets, &p.targets, 0), vec![0, 1, 2, 3]);
        assert_eq!(
            bfs_levels(&p.offsets, &p.targets, 2),
            vec![UNREACHED_LEVEL, UNREACHED_LEVEL, 0, 1]
        );
        let s = star();
        assert_eq!(bfs_levels(&s.offsets, &s.targets, 3), vec![1, 2, 2, 0, 2]);
        let g = grid_mirror().adj();
        // Without 4–5, vertex 5 is reached around the ring: 4-1-2-5.
        assert_eq!(
            bfs_levels(&g.offsets, &g.targets, 4),
            vec![2, 1, 2, 1, 0, 3, 2, 1, 2]
        );
    }

    #[test]
    fn dijkstra_on_path_star_and_grid() {
        assert_eq!(dijkstra(&path(), 0), vec![0, 5, 15, 35]);
        assert_eq!(dijkstra(&star(), 1), vec![1, 0, 2, 2, 2]);
        let mut m = grid_mirror();
        // Make the detour through 8 cheaper than the one through 2.
        m.apply(&[(1, 2), (2, 1)], &[(1, 2, 9), (2, 1, 9)]);
        let d = dijkstra(&m.adj(), 4);
        assert_eq!(d[5], 3); // 4-7-8-5
        assert_eq!(d[2], 4); // 4-7-8-5-2
    }

    #[test]
    fn components_on_path_star_and_grid() {
        let p = path();
        let pairs = |a: &Adj| -> Vec<(u32, u32)> {
            (0..a.n())
                .flat_map(|v| a.targets[a.range(v)].iter().map(move |&t| (v as u32, t)))
                .collect()
        };
        assert_eq!(components(4, pairs(&p).into_iter()), vec![0, 0, 0, 0]);
        assert_eq!(
            components(6, pairs(&star()).into_iter()),
            vec![0, 0, 0, 0, 0, 5]
        );
        // Cutting the grid's column x = 2 off entirely leaves {2, 5, 8}.
        let mut m = grid_mirror();
        m.apply(&[(1, 2), (2, 1), (7, 8), (8, 7)], &[]);
        assert_eq!(
            components(9, pairs(&m.adj()).into_iter()),
            vec![0, 0, 2, 0, 0, 2, 0, 0, 2]
        );
    }

    #[test]
    fn gated_pagerank_by_hand() {
        // Star, n = 5, all at 0.2: the hub collects 4 × 0.2 and each spoke
        // a quarter of the hub, twice over.
        let s = star();
        let (r, it) = pagerank_gated(&s.offsets, &s.targets, 2, 0.85, 1e-9);
        assert_eq!(it, 2);
        let (hub, spoke) = (0.03 + 0.85 * 0.8, 0.03 + 0.85 * 0.05);
        let (hub, spoke) = (0.03 + 0.85 * 4.0 * spoke, 0.03 + 0.85 * hub / 4.0);
        assert!((r[0] - hub).abs() < 1e-15 && (r[4] - spoke).abs() < 1e-15);
        // 0 -> 1, 0 -> 2, 1 -> 2: vertex 0 is never updated and drops out
        // after the first iteration, 1 after the second, and the frontier
        // {2} has no out-edges, so the third iteration ends the run.
        let t = Adj::from_triples(3, [(0, 1, 1), (0, 2, 1), (1, 2, 1)].into_iter());
        let (r, it) = pagerank_gated(&t.offsets, &t.targets, 10, 0.85, 1e-9);
        assert_eq!(it, 3);
        let r1 = 0.05 + 0.85 / 6.0;
        assert!((r[0] - 1.0 / 3.0).abs() < 1e-15);
        assert!((r[1] - r1).abs() < 1e-15);
        assert!((r[2] - (0.05 + 0.85 * r1)).abs() < 1e-15);
        // The linear system's solution on the same graph has no residual;
        // moving one entry by δ leaves a residual of δ there.
        let x = [
            0.05,
            0.05 + 0.85 * 0.025,
            0.05 + 0.85 * (0.025 + 0.05 + 0.85 * 0.025),
        ];
        assert!(pagerank_residual(&t.offsets, &t.targets, 0.85, &x) < 1e-16);
        let y = [x[0], x[1] + 1e-6, x[2]];
        assert!(pagerank_residual(&t.offsets, &t.targets, 0.85, &y) >= 1e-6);
    }

    #[test]
    fn corrupted_answers_are_rejected() {
        let g = grid_mirror().adj();
        let mut levels = bfs_levels(&g.offsets, &g.targets, 4);
        assert!(check_exact("bfs", &levels, &bfs_levels(&g.offsets, &g.targets, 4)).is_ok());
        levels[5] = 1; // as if the deleted bond 4–5 were still live
        assert!(check_exact("bfs", &levels, &bfs_levels(&g.offsets, &g.targets, 4)).is_err());
        let mut dist = dijkstra(&g, 0);
        dist[8] += 1;
        assert!(check_exact("sssp", &dist, &dijkstra(&g, 0)).is_err());
        let (want, _) = pagerank_gated(&g.offsets, &g.targets, 10, 0.85, 1e-9);
        let mut got = want.clone();
        assert!(check_close("pr", &got, &want, 1e-9).is_ok());
        got[3] *= 1.0 + 1e-6;
        assert!(check_close("pr", &got, &want, 1e-9).is_err());
        assert!(check_close("pr", &[f64::NAN], &[1.0], 1e-9).is_err());
    }

    #[test]
    fn distance_certificate_accepts_exact_and_rejects_corrupted() {
        for (adj, s) in [(path(), 0), (star(), 1), (grid_mirror().adj(), 4)] {
            let d = dijkstra(&adj, s);
            assert!(check_distances(&adj, s, &d).is_ok());
            // Too short (stale): no tight in-edge. Too long: an edge relaxes.
            let v = (0..adj.n())
                .rev()
                .find(|&v| v != s as usize && d[v] != UNREACHED_DIST)
                .unwrap();
            for bad in [d[v] - 1, d[v] + 1, UNREACHED_DIST] {
                let mut c = d.clone();
                c[v] = bad;
                assert!(
                    check_distances(&adj, s, &c).is_err(),
                    "{bad} at {v} accepted"
                );
            }
        }
        // An unreachable vertex claimed reached is rejected too.
        let p = path();
        assert!(check_distances(&p, 2, &[0, UNREACHED_DIST, 0, 20]).is_err());
        assert!(check_distances(&p, 2, &[UNREACHED_DIST, UNREACHED_DIST, 0, 20]).is_ok());
    }

    #[test]
    fn mirror_applies_batches_with_ingest_semantics() {
        let mut m = EdgeMirror::new(3, [(0, 1, 4), (0, 1, 9), (1, 1, 2), (1, 2, 3)].into_iter());
        // Parallel edges keep the first weight; self-loops are dropped.
        assert_eq!(m.weight(0, 1), Some(4));
        assert_eq!(m.weight(1, 1), None);
        // Deletes run first, so a delete+insert of one pair is a reweight;
        // the later of two inserts of one pair wins.
        let s = m.apply(
            &[(0, 1), (0, 1), (2, 0)],
            &[(0, 1, 7), (1, 2, 5), (1, 2, 6), (2, 0, 1)],
        );
        assert_eq!(
            s,
            MirrorStats {
                inserted: 2,
                updated: 1,
                deleted: 1,
                missing: 1
            }
        );
        assert_eq!(
            (m.weight(0, 1), m.weight(1, 2), m.weight(2, 0)),
            (Some(7), Some(6), Some(1))
        );
    }
}
