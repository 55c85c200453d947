//! Undirected graphs with adjacency bit-matrices, and coloring.

use regbal_ir::BitSet;

/// An undirected graph over nodes `0..n`, stored as an adjacency
/// bit-matrix (the node counts here — live ranges of one thread — are a
/// few hundred at most).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Graph {
    adj: Vec<BitSet>,
}

impl Graph {
    /// Creates an edgeless graph with `n` nodes.
    pub fn new(n: usize) -> Graph {
        Graph {
            adj: vec![BitSet::new(n); n],
        }
    }

    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.adj.len()
    }

    /// Whether the graph has zero nodes.
    pub fn is_empty(&self) -> bool {
        self.adj.is_empty()
    }

    /// Adds the undirected edge `{a, b}`. Self-loops are ignored.
    ///
    /// # Panics
    ///
    /// Panics if either endpoint is out of range.
    pub fn add_edge(&mut self, a: usize, b: usize) {
        if a == b {
            return;
        }
        self.adj[a].insert(b);
        self.adj[b].insert(a);
    }

    /// Adds an edge from `a` to every member of `others` in bulk: `a`'s
    /// adjacency row is OR-ed with `others` in one word-level pass, then
    /// the reverse direction is set bit by bit. `a` itself is skipped if
    /// present (no self-loops). Equivalent to calling
    /// [`add_edge`](Self::add_edge) for each member.
    ///
    /// # Panics
    ///
    /// Panics if `others`' capacity differs from the node count or a
    /// member is out of range.
    pub fn add_edges_from_bitset(&mut self, a: usize, others: &BitSet) {
        assert_eq!(
            others.capacity(),
            self.adj.len(),
            "bitset capacity must equal the node count"
        );
        self.adj[a].union_with(others);
        self.adj[a].remove(a);
        for b in others.iter() {
            if b != a {
                self.adj[b].insert(a);
            }
        }
    }

    /// Makes `set` a clique: every pair of members becomes an edge. Each
    /// member's adjacency row is OR-ed with the whole set in one
    /// word-level pass — O(|set| · n/64) instead of the O(|set|²)
    /// single-bit inserts of pairwise construction.
    ///
    /// # Panics
    ///
    /// Panics if `set`'s capacity differs from the node count.
    pub fn add_clique(&mut self, set: &BitSet) {
        assert_eq!(
            set.capacity(),
            self.adj.len(),
            "bitset capacity must equal the node count"
        );
        for a in set.iter() {
            self.adj[a].union_with(set);
            self.adj[a].remove(a);
        }
    }

    /// Whether `{a, b}` is an edge.
    pub fn has_edge(&self, a: usize, b: usize) -> bool {
        self.adj[a].contains(b)
    }

    /// The neighbour set of `a`.
    pub fn neighbors(&self, a: usize) -> &BitSet {
        &self.adj[a]
    }

    /// Degree of `a`.
    pub fn degree(&self, a: usize) -> usize {
        self.adj[a].count()
    }

    /// Total number of edges.
    pub fn num_edges(&self) -> usize {
        self.adj.iter().map(BitSet::count).sum::<usize>() / 2
    }

    /// Colors the graph with the DSATUR heuristic (Brélaz 1979),
    /// restricted to the nodes in `subset` if given.
    ///
    /// If `cap` is `Some(k)`, nodes that cannot receive a color `< k`
    /// are left uncolored (`None`) instead of opening color `k`; with
    /// `cap = None` the coloring is always total.
    pub fn dsatur_subset(&self, subset: Option<&BitSet>, cap: Option<usize>) -> Coloring {
        let n = self.len();
        let in_play = |i: usize| subset.is_none_or(|s| s.contains(i));
        let mut colors: Vec<Option<u32>> = vec![None; n];
        let mut neighbor_colors: Vec<BitSet> = vec![BitSet::new(n + 1); n];
        let mut remaining: Vec<usize> = (0..n).filter(|&i| in_play(i)).collect();

        while !remaining.is_empty() {
            // Pick uncolored node with max saturation, tie-break degree.
            let (pos, &node) = remaining
                .iter()
                .enumerate()
                .max_by_key(|&(_, &i)| (neighbor_colors[i].count(), self.degree(i)))
                .expect("remaining is non-empty");
            remaining.swap_remove(pos);

            let mut c = 0u32;
            while neighbor_colors[node].contains(c as usize) {
                c += 1;
            }
            if let Some(k) = cap {
                if c as usize >= k {
                    continue; // leave uncolored
                }
            }
            colors[node] = Some(c);
            for nb in self.neighbors(node).iter() {
                if in_play(nb) {
                    neighbor_colors[nb].insert(c as usize);
                }
            }
        }
        let num_colors = colors
            .iter()
            .flatten()
            .map(|&c| c as usize + 1)
            .max()
            .unwrap_or(0);
        Coloring { colors, num_colors }
    }

    /// [`dsatur_subset`](Self::dsatur_subset) over all nodes.
    pub fn dsatur(&self, cap: Option<usize>) -> Coloring {
        self.dsatur_subset(None, cap)
    }

    /// Checks that `colors` assigns distinct colors to adjacent colored
    /// nodes.
    ///
    /// # Errors
    ///
    /// Returns the first conflicting edge `(a, b)`.
    pub fn check_coloring(&self, colors: &[Option<u32>]) -> Result<(), (usize, usize)> {
        for a in 0..self.len() {
            let Some(ca) = colors[a] else { continue };
            for b in self.neighbors(a).iter() {
                if b > a {
                    if let Some(cb) = colors[b] {
                        if ca == cb {
                            return Err((a, b));
                        }
                    }
                }
            }
        }
        Ok(())
    }
}

impl Graph {
    /// Renders the graph in Graphviz DOT syntax with the given node
    /// labels (and optional colors as fill indices).
    ///
    /// # Panics
    ///
    /// Panics if `labels.len() != self.len()`.
    pub fn to_dot(&self, name: &str, labels: &[String], colors: Option<&[Option<u32>]>) -> String {
        assert_eq!(labels.len(), self.len(), "one label per node");
        let palette = [
            "lightblue", "lightgreen", "lightsalmon", "gold", "plum", "khaki", "lightcyan",
            "mistyrose",
        ];
        let mut out = format!("graph \"{name}\" {{\n  node [style=filled];\n");
        for (i, label) in labels.iter().enumerate() {
            let fill = colors
                .and_then(|c| c[i])
                .map(|c| palette[c as usize % palette.len()])
                .unwrap_or("white");
            out.push_str(&format!("  n{i} [label=\"{label}\", fillcolor={fill}];\n"));
        }
        for a in 0..self.len() {
            for b in self.neighbors(a).iter() {
                if b > a {
                    out.push_str(&format!("  n{a} -- n{b};\n"));
                }
            }
        }
        out.push_str("}\n");
        out
    }
}

/// Result of a coloring pass.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Coloring {
    /// Per-node color; `None` if the node was outside the colored subset
    /// or could not be colored under the cap.
    pub colors: Vec<Option<u32>>,
    /// Number of distinct colors used (`max + 1`).
    pub num_colors: usize,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cycle(n: usize) -> Graph {
        let mut g = Graph::new(n);
        for i in 0..n {
            g.add_edge(i, (i + 1) % n);
        }
        g
    }

    #[test]
    fn basic_edges() {
        let mut g = Graph::new(4);
        g.add_edge(0, 1);
        g.add_edge(1, 2);
        g.add_edge(1, 1); // ignored self-loop
        assert!(g.has_edge(0, 1));
        assert!(g.has_edge(1, 0));
        assert!(!g.has_edge(0, 2));
        assert!(!g.has_edge(1, 1));
        assert_eq!(g.degree(1), 2);
        assert_eq!(g.num_edges(), 2);
        assert!(!g.is_empty());
        assert!(Graph::new(0).is_empty());
    }

    #[test]
    fn dsatur_colors_even_cycle_with_two() {
        let g = cycle(6);
        let c = g.dsatur(None);
        assert_eq!(c.num_colors, 2);
        g.check_coloring(&c.colors).unwrap();
    }

    #[test]
    fn dsatur_colors_odd_cycle_with_three() {
        let g = cycle(5);
        let c = g.dsatur(None);
        assert_eq!(c.num_colors, 3);
        g.check_coloring(&c.colors).unwrap();
    }

    #[test]
    fn dsatur_on_clique_uses_n_colors() {
        let mut g = Graph::new(5);
        for a in 0..5 {
            for b in (a + 1)..5 {
                g.add_edge(a, b);
            }
        }
        let c = g.dsatur(None);
        assert_eq!(c.num_colors, 5);
    }

    #[test]
    fn cap_leaves_nodes_uncolored() {
        let mut g = Graph::new(3);
        g.add_edge(0, 1);
        g.add_edge(1, 2);
        g.add_edge(0, 2);
        let c = g.dsatur(Some(2));
        let uncolored = c.colors.iter().filter(|c| c.is_none()).count();
        assert_eq!(uncolored, 1);
        g.check_coloring(&c.colors).unwrap();
    }

    #[test]
    fn subset_coloring_ignores_outside_nodes() {
        let mut g = Graph::new(4);
        g.add_edge(0, 1);
        g.add_edge(2, 3);
        let subset: BitSet = [0usize, 1].into_iter().collect();
        let mut padded = BitSet::new(4);
        padded.extend(subset.iter());
        let c = g.dsatur_subset(Some(&padded), None);
        assert!(c.colors[0].is_some());
        assert!(c.colors[1].is_some());
        assert!(c.colors[2].is_none());
        assert!(c.colors[3].is_none());
        assert_eq!(padded.iter().filter(|&i| c.colors[i].is_none()).count(), 0);
    }

    #[test]
    fn check_coloring_reports_conflicts() {
        let mut g = Graph::new(2);
        g.add_edge(0, 1);
        assert_eq!(g.check_coloring(&[Some(0), Some(0)]), Err((0, 1)));
        assert!(g.check_coloring(&[Some(0), Some(1)]).is_ok());
        assert!(g.check_coloring(&[Some(0), None]).is_ok());
    }

    #[test]
    fn empty_graph_coloring() {
        let g = Graph::new(0);
        let c = g.dsatur(None);
        assert_eq!(c.num_colors, 0);
        assert!(c.colors.is_empty());
    }
}

#[cfg(test)]
mod bulk_edge_tests {
    use super::*;

    /// Tiny deterministic generator so these tests need no external
    /// crates.
    struct Lcg(u64);
    impl Lcg {
        fn next(&mut self) -> u64 {
            self.0 = self.0.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            self.0 >> 33
        }
        fn set(&mut self, n: usize, density_pct: u64) -> BitSet {
            let mut s = BitSet::new(n);
            for i in 0..n {
                if self.next() % 100 < density_pct {
                    s.insert(i);
                }
            }
            s
        }
    }

    fn clique_pairwise(g: &mut Graph, set: &BitSet) {
        let nodes: Vec<usize> = set.iter().collect();
        for (i, &a) in nodes.iter().enumerate() {
            for &b in &nodes[i + 1..] {
                g.add_edge(a, b);
            }
        }
    }

    #[test]
    fn add_clique_matches_pairwise_on_random_sets() {
        let mut rng = Lcg(0xfeed);
        for n in [1usize, 7, 64, 65, 130] {
            for density in [0, 10, 50, 100] {
                let set = rng.set(n, density);
                let mut bulk = Graph::new(n);
                bulk.add_clique(&set);
                let mut pairwise = Graph::new(n);
                clique_pairwise(&mut pairwise, &set);
                assert_eq!(bulk, pairwise, "n={n} density={density}%");
            }
        }
    }

    #[test]
    fn add_edges_from_bitset_matches_pairwise_on_random_sets() {
        let mut rng = Lcg(0xbeef);
        for n in [2usize, 9, 64, 100] {
            for density in [0, 25, 100] {
                let set = rng.set(n, density);
                let a = (rng.next() as usize) % n;
                let mut bulk = Graph::new(n);
                bulk.add_edges_from_bitset(a, &set);
                let mut pairwise = Graph::new(n);
                for b in set.iter() {
                    pairwise.add_edge(a, b);
                }
                assert_eq!(bulk, pairwise, "n={n} density={density}% a={a}");
            }
        }
    }

    #[test]
    fn bulk_apis_accumulate_over_existing_edges() {
        let mut rng = Lcg(0x1234);
        let n = 90;
        let mut bulk = Graph::new(n);
        let mut pairwise = Graph::new(n);
        for round in 0..12 {
            let set = rng.set(n, 30);
            if round % 2 == 0 {
                bulk.add_clique(&set);
                clique_pairwise(&mut pairwise, &set);
            } else {
                let a = (rng.next() as usize) % n;
                bulk.add_edges_from_bitset(a, &set);
                for b in set.iter() {
                    pairwise.add_edge(a, b);
                }
            }
        }
        assert_eq!(bulk, pairwise);
        assert!(bulk.num_edges() > 0, "rounds must have produced edges");
    }

    #[test]
    fn empty_set_adds_nothing() {
        let mut g = Graph::new(8);
        g.add_clique(&BitSet::new(8));
        g.add_edges_from_bitset(3, &BitSet::new(8));
        assert_eq!(g.num_edges(), 0);
    }

    #[test]
    fn full_set_builds_complete_graph() {
        let n = 70;
        let full: BitSet = (0..n).collect();
        let mut g = Graph::new(n);
        g.add_clique(&full);
        assert_eq!(g.num_edges(), n * (n - 1) / 2);
        for a in 0..n {
            assert!(!g.has_edge(a, a), "no self-loop at {a}");
            assert_eq!(g.degree(a), n - 1);
        }
    }

    #[test]
    fn member_source_node_gets_no_self_loop() {
        let mut g = Graph::new(5);
        let set: BitSet = {
            let mut s = BitSet::new(5);
            s.extend([1usize, 2, 4]);
            s
        };
        g.add_edges_from_bitset(2, &set);
        assert!(!g.has_edge(2, 2));
        assert!(g.has_edge(2, 1));
        assert!(g.has_edge(2, 4));
        assert_eq!(g.num_edges(), 2);
    }

    #[test]
    #[should_panic(expected = "capacity must equal the node count")]
    fn capacity_mismatch_panics() {
        let mut g = Graph::new(4);
        g.add_clique(&BitSet::new(5));
    }
}

#[cfg(test)]
mod dot_tests {
    use super::*;

    #[test]
    fn dot_renders_nodes_edges_and_colors() {
        let mut g = Graph::new(3);
        g.add_edge(0, 1);
        g.add_edge(1, 2);
        let labels = vec!["v0".to_string(), "v1".to_string(), "v2".to_string()];
        let dot = g.to_dot("gig", &labels, Some(&[Some(0), Some(1), Some(0)]));
        assert!(dot.starts_with("graph \"gig\""));
        assert!(dot.contains("n0 -- n1;"));
        assert!(dot.contains("n1 -- n2;"));
        assert!(!dot.contains("n0 -- n2;"));
        assert!(dot.contains("fillcolor=lightblue"));
        assert!(dot.contains("fillcolor=lightgreen"));
        let plain = g.to_dot("gig", &labels, None);
        assert!(plain.contains("fillcolor=white"));
    }

    #[test]
    #[should_panic(expected = "one label per node")]
    fn dot_rejects_wrong_label_count() {
        Graph::new(2).to_dot("g", &[], None);
    }
}
