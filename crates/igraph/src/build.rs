//! Construction of the GIG, BIG and per-region IIGs from analysis
//! results.

use crate::graph::Graph;
use regbal_analysis::{ProgramInfo, RegionId};
use regbal_ir::BitSet;

/// Builds the **global interference graph**: one node per virtual
/// register, an edge whenever two registers are co-live.
///
/// Two registers are co-live when both are live-in at the same point, or
/// one is defined at a point where the other is live-out (the standard
/// Chaitin interference rule).
///
/// Live sets are OR-ed into the adjacency rows whole
/// ([`Graph::add_clique`] / [`Graph::add_edges_from_bitset`]), so each
/// program point costs O(live · n/64) word operations instead of the
/// O(live²) single-bit inserts of [`build_gig_naive`].
pub fn build_gig(info: &ProgramInfo) -> Graph {
    let nv = info.num_vregs();
    let mut g = Graph::new(nv);
    for p in info.pmap.points() {
        g.add_clique(info.liveness.live_in(p));
        let defs = info.liveness.defs_at(p);
        for (i, d) in defs.iter().enumerate() {
            g.add_edges_from_bitset(d.index(), info.liveness.live_out(p));
            // Burst destinations are written together: they interfere
            // with each other even when some are otherwise dead.
            for d2 in &defs[i + 1..] {
                g.add_edge(d.index(), d2.index());
            }
        }
    }
    g
}

/// Reference pairwise implementation of [`build_gig`], kept as the
/// oracle of the `bulk_graph_construction_matches_naive` property test.
pub fn build_gig_naive(info: &ProgramInfo) -> Graph {
    let nv = info.num_vregs();
    let mut g = Graph::new(nv);
    for p in info.pmap.points() {
        let live_in: Vec<usize> = info.liveness.live_in(p).iter().collect();
        for (i, &a) in live_in.iter().enumerate() {
            for &b in &live_in[i + 1..] {
                g.add_edge(a, b);
            }
        }
        let defs = info.liveness.defs_at(p);
        for (i, d) in defs.iter().enumerate() {
            for b in info.liveness.live_out(p).iter() {
                g.add_edge(d.index(), b);
            }
            for d2 in &defs[i + 1..] {
                g.add_edge(d.index(), d2.index());
            }
        }
    }
    g
}

/// Builds the **boundary interference graph**: nodes are all virtual
/// registers (for index stability) but edges connect only *boundary*
/// nodes that are live across the *same* CSB (paper §3.2, "boundary
/// interference"). Values live at program entry interfere with each
/// other the same way (the entry acts as a boundary).
///
/// Each live-across set becomes a clique through whole-row OR-ing
/// ([`Graph::add_clique`]).
pub fn build_big(info: &ProgramInfo) -> Graph {
    let nv = info.num_vregs();
    let mut g = Graph::new(nv);
    for (_, across) in info.csbs.iter() {
        g.add_clique(across);
    }
    g.add_clique(info.liveness.live_in(info.pmap.entry()));
    g
}

/// Reference pairwise implementation of [`build_big`], kept as the
/// oracle of the `bulk_graph_construction_matches_naive` property test.
pub fn build_big_naive(info: &ProgramInfo) -> Graph {
    let nv = info.num_vregs();
    let mut g = Graph::new(nv);
    let clique = |set: &BitSet, g: &mut Graph| {
        let nodes: Vec<usize> = set.iter().collect();
        for (i, &a) in nodes.iter().enumerate() {
            for &b in &nodes[i + 1..] {
                g.add_edge(a, b);
            }
        }
    };
    for (_, across) in info.csbs.iter() {
        clique(across, &mut g);
    }
    clique(info.liveness.live_in(info.pmap.entry()), &mut g);
    g
}

/// One internal interference graph: the internal nodes of a region and
/// their mutual interference (a sub-view of the GIG).
#[derive(Debug, Clone)]
pub struct Iig {
    /// The region this IIG belongs to.
    pub region: RegionId,
    /// The internal virtual registers of the region (as GIG indices).
    pub members: Vec<usize>,
    /// Interference among `members`, indexed positionally (node `i` of
    /// this graph is `members[i]`).
    pub graph: Graph,
}

/// Builds one [`Iig`] per non-switch region, containing that region's
/// internal nodes. Internal nodes that belong to no region (dead
/// definitions at a CSB) are attached to no IIG; they interfere with
/// nothing internal and are handled directly on the GIG.
///
/// Paper Claim 2 — internal nodes of different regions never interfere —
/// holds by construction and is asserted by this crate's tests.
pub fn build_iigs(info: &ProgramInfo, gig: &Graph) -> Vec<Iig> {
    let regions_of = info.nsr.vreg_regions(&info.liveness, &info.pmap);
    let nr = info.nsr.num_regions();
    let mut members: Vec<Vec<usize>> = vec![Vec::new(); nr];
    for (v, regions) in regions_of.iter().enumerate() {
        if info.boundary.contains(v) {
            continue;
        }
        // An internal node is live in at most one region.
        if let Some(r) = regions.iter().next() {
            members[r].push(v);
        }
    }
    // Sub-view extraction works on whole GIG rows: each member's
    // neighbour row is AND-ed with the region's member set in one
    // word-level pass, then only the surviving bits are translated to
    // positional indices — O(members · n/64 + edges) per region instead
    // of O(members²) `has_edge` probes.
    let nv = info.num_vregs();
    let mut pos = vec![usize::MAX; nv];
    members
        .into_iter()
        .enumerate()
        .map(|(r, members)| {
            let mut graph = Graph::new(members.len());
            let mut in_region = BitSet::new(nv);
            for (i, &m) in members.iter().enumerate() {
                in_region.insert(m);
                pos[m] = i;
            }
            for (i, &a) in members.iter().enumerate() {
                let mut row = gig.neighbors(a).clone();
                row.intersect_with(&in_region);
                for b in row.iter() {
                    if pos[b] > i {
                        graph.add_edge(i, pos[b]);
                    }
                }
            }
            for &m in &members {
                pos[m] = usize::MAX;
            }
            Iig {
                region: RegionId(r as u32),
                members,
                graph,
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use regbal_analysis::ProgramInfo;
    use regbal_ir::parse_func;

    /// The running example of paper Figures 4/5: an IP-checksum-like
    /// loop. `sum`, `buf`, `len` are boundary; `tmp1`, `tmp2` internal.
    fn figure4() -> ProgramInfo {
        let src = "
func frag {
bb0:
    v0 = mov 0        ; sum
    v1 = mov 256      ; buf
    v2 = mov 16       ; len
    jump bb1
bb1:
    bne v2, 0, bb2, bb3
bb2:
    v3 = load sram[v1+0]   ; tmp1 (read = CSB)
    v0 = add v0, v3
    v1 = add v1, 4
    v2 = sub v2, 1
    ctx
    jump bb1
bb3:
    v4 = load sram[v1+0]   ; tmp2 (read = CSB)
    v0 = add v0, v4
    store scratch[v1+0], v0
    halt
}";
        ProgramInfo::compute(&parse_func(src).unwrap())
    }

    #[test]
    fn figure5_gig_shape() {
        let info = figure4();
        let gig = build_gig(&info);
        // sum, buf, len pairwise interfere.
        assert!(gig.has_edge(0, 1));
        assert!(gig.has_edge(0, 2));
        assert!(gig.has_edge(1, 2));
        // tmp1 interferes with sum/buf/len inside the loop body.
        assert!(gig.has_edge(3, 0));
        assert!(gig.has_edge(3, 1));
        assert!(gig.has_edge(3, 2));
        // tmp1 and tmp2 never co-live.
        assert!(!gig.has_edge(3, 4));
    }

    #[test]
    fn figure5_big_shape() {
        let info = figure4();
        let big = build_big(&info);
        // Boundary clique sum/buf/len.
        assert!(big.has_edge(0, 1));
        assert!(big.has_edge(0, 2));
        assert!(big.has_edge(1, 2));
        // Internal nodes have no boundary edges.
        assert_eq!(big.degree(3), 0);
        assert_eq!(big.degree(4), 0);
    }

    #[test]
    fn figure5_boundary_classification() {
        let info = figure4();
        for v in [0usize, 1, 2] {
            assert!(info.boundary.contains(v), "v{v} should be boundary");
        }
        for v in [3usize, 4] {
            assert!(!info.boundary.contains(v), "v{v} should be internal");
        }
    }

    #[test]
    fn iigs_partition_internal_nodes() {
        let info = figure4();
        let gig = build_gig(&info);
        let iigs = build_iigs(&info, &gig);
        let mut seen = Vec::new();
        for iig in &iigs {
            for &m in &iig.members {
                assert!(!info.boundary.contains(m));
                seen.push(m);
            }
        }
        seen.sort_unstable();
        assert_eq!(seen, vec![3, 4], "tmp1 and tmp2 in separate IIGs");
        // tmp1 and tmp2 live in different regions.
        let homes: Vec<_> = iigs
            .iter()
            .filter(|i| !i.members.is_empty())
            .map(|i| i.region)
            .collect();
        assert_eq!(homes.len(), 2);
        assert_ne!(homes[0], homes[1]);
    }

    #[test]
    fn claim2_internal_nodes_of_distinct_regions_never_interfere() {
        let info = figure4();
        let gig = build_gig(&info);
        let iigs = build_iigs(&info, &gig);
        for (i, a) in iigs.iter().enumerate() {
            for b in iigs.iter().skip(i + 1) {
                for &ma in &a.members {
                    for &mb in &b.members {
                        assert!(!gig.has_edge(ma, mb), "claim 2 violated: v{ma} - v{mb}");
                    }
                }
            }
        }
    }

    #[test]
    fn gig_def_interferes_with_live_out() {
        // v1's def happens while v0 is live (v0 used later).
        let info = ProgramInfo::compute(
            &parse_func(
                "func f {\nbb0:\n v0 = mov 1\n v1 = mov 2\n store scratch[v1+0], v0\n halt\n}",
            )
            .unwrap(),
        );
        let gig = build_gig(&info);
        assert!(gig.has_edge(0, 1));
    }

    #[test]
    fn consumed_value_does_not_interfere_with_def() {
        // v1 = add v0, 1: v0 dies at the add, so v0 and v1 can share.
        let info = ProgramInfo::compute(
            &parse_func(
                "func f {\nbb0:\n v0 = mov 1\n v1 = add v0, 1\n store scratch[v1+0], v1\n halt\n}",
            )
            .unwrap(),
        );
        let gig = build_gig(&info);
        assert!(!gig.has_edge(0, 1));
    }

    #[test]
    fn entry_live_values_form_big_clique() {
        let info = ProgramInfo::compute(
            &parse_func("func f {\nbb0:\n v2 = add v0, v1\n store scratch[v2+0], v2\n halt\n}")
                .unwrap(),
        );
        let big = build_big(&info);
        assert!(big.has_edge(0, 1));
    }

    #[test]
    fn boundary_nodes_colive_only_internally_share_no_big_edge() {
        // v0 live across first ctx only; v1 across second ctx only; they
        // overlap between the two switches — GIG edge but no BIG edge.
        let info = ProgramInfo::compute(
            &parse_func(
                "func f {\nbb0:\n v0 = mov 1\n ctx\n v1 = mov 2\n v2 = add v0, v1\n ctx\n store scratch[v1+0], v2\n halt\n}",
            )
            .unwrap(),
        );
        let gig = build_gig(&info);
        let big = build_big(&info);
        assert!(gig.has_edge(0, 1), "co-live between the switches");
        assert!(!big.has_edge(0, 1), "never across the same CSB");
        assert!(info.boundary.contains(0) && info.boundary.contains(1));
    }
}
