//! Per-register live half-point sets, value-flow edges and atoms.
//!
//! A virtual register's live range is the set of [`HalfPoint`]s where its
//! value occupies a register. *Flow edges* connect consecutive live
//! half-points along the CFG; cutting a flow edge with a `mov` splits the
//! live range (paper §7.1). Two kinds of adjacency exist:
//!
//! * `Out(p) → In(q)` between consecutive instructions — **cuttable**: a
//!   move can be materialised in the gap;
//! * `In(p) → Out(p)` through an instruction the value survives —
//!   **uncuttable** (there is no gap inside an instruction; for a context
//!   switch this is precisely why live-across values need private
//!   registers). The two halves form an *atom* that splits never
//!   separate.

use crate::half::HalfPoint;
use regbal_analysis::{ProgramInfo, RegionId};
use regbal_ir::{BitSet, VReg};

/// Live half-points, atoms, flow edges and boundary marks for every
/// virtual register of one thread.
#[derive(Debug, Clone)]
pub struct LiveMap {
    nv: usize,
    nh: usize,
    /// Per vreg: half-points where the value is live (occupies a
    /// register).
    live: Vec<BitSet>,
    /// Per vreg: `In(p)` half-points fused with their `Out(p)` (the
    /// value survives instruction `p`).
    fused: Vec<BitSet>,
    /// Per vreg: half-points that force *private* registers — `Out(csb)`
    /// positions where the value is live across the switch, plus
    /// `In(entry)` for entry-live values.
    boundary_halves: Vec<BitSet>,
    /// Per vreg: cuttable flow edges `Out(p) → In(q)`.
    flows: Vec<Vec<(HalfPoint, HalfPoint)>>,
    /// Region of each half-point's program point (`None` at CSBs).
    region_of_half: Vec<Option<RegionId>>,
    /// Per region: all half-points inside it.
    region_masks: Vec<BitSet>,
}

impl LiveMap {
    /// Derives the live map from the analysis bundle.
    pub fn compute(info: &ProgramInfo) -> LiveMap {
        let nv = info.num_vregs();
        let np = info.pmap.num_points();
        let nh = np * 2;
        let mut live = vec![BitSet::new(nh); nv];
        let mut fused = vec![BitSet::new(nh); nv];
        let mut boundary_halves = vec![BitSet::new(nh); nv];
        let mut flows: Vec<Vec<(HalfPoint, HalfPoint)>> = vec![Vec::new(); nv];
        let mut region_of_half = vec![None; nh];

        for p in info.pmap.points() {
            let hin = HalfPoint::before(p);
            let hout = HalfPoint::after(p);
            region_of_half[hin.index()] = info.nsr.region_of(p);
            region_of_half[hout.index()] = info.nsr.region_of(p);
            let defs = info.liveness.defs_at(p);
            for v in info.liveness.live_in(p).iter() {
                live[v].insert(hin.index());
            }
            for v in info.liveness.live_out(p).iter() {
                live[v].insert(hout.index());
                if !defs.contains(&VReg(v as u32)) {
                    // The value flows through p: fuse In(p) with Out(p).
                    fused[v].insert(hin.index());
                    if info.csbs.is_csb(p) {
                        boundary_halves[v].insert(hout.index());
                    }
                }
            }
            for d in defs {
                // A def occupies a register just after p even when dead.
                live[d.index()].insert(hout.index());
            }
            // Cuttable flow edges to successor points. A branch with
            // both targets equal contributes a single edge.
            let mut seen: Vec<regbal_analysis::Point> = Vec::with_capacity(2);
            for &q in info.pmap.succs(p) {
                if seen.contains(&q) {
                    continue;
                }
                seen.push(q);
                let qin = HalfPoint::before(q);
                for v in info.liveness.live_out(p).iter() {
                    if info.liveness.live_in(q).contains(v) {
                        flows[v].push((hout, qin));
                    }
                }
            }
        }
        // Entry-live values must already sit in a private register when
        // the thread first runs.
        let entry_in = HalfPoint::before(info.pmap.entry());
        for v in info.liveness.live_in(info.pmap.entry()).iter() {
            boundary_halves[v].insert(entry_in.index());
        }
        let mut region_masks = vec![BitSet::new(nh); info.nsr.num_regions()];
        for (h, region) in region_of_half.iter().enumerate() {
            if let Some(r) = region {
                region_masks[r.index()].insert(h);
            }
        }
        LiveMap {
            nv,
            nh,
            live,
            fused,
            boundary_halves,
            flows,
            region_of_half,
            region_masks,
        }
    }

    /// All half-points belonging to a region.
    pub fn region_mask(&self, r: RegionId) -> &BitSet {
        &self.region_masks[r.index()]
    }

    /// Number of non-switch regions.
    pub fn num_regions(&self) -> usize {
        self.region_masks.len()
    }

    /// Number of virtual registers.
    pub fn num_vregs(&self) -> usize {
        self.nv
    }

    /// Number of half-points (`2 ×` program points).
    pub fn num_halves(&self) -> usize {
        self.nh
    }

    /// The live half-point set of `v`.
    pub fn live(&self, v: VReg) -> &BitSet {
        &self.live[v.index()]
    }

    /// The boundary half-points of `v` (positions that require a private
    /// register). A live range containing any of them is a *boundary
    /// node*.
    pub fn boundary_halves(&self, v: VReg) -> &BitSet {
        &self.boundary_halves[v.index()]
    }

    /// Whether `v` is live at all.
    pub fn is_live(&self, v: VReg) -> bool {
        !self.live[v.index()].is_empty()
    }

    /// The cuttable flow edges of `v`.
    pub fn flows(&self, v: VReg) -> &[(HalfPoint, HalfPoint)] {
        &self.flows[v.index()]
    }

    /// The region of a half-point's program point (`None` at CSBs).
    pub fn region_of(&self, h: HalfPoint) -> Option<RegionId> {
        self.region_of_half[h.index()]
    }

    /// Expands `mask ∩ points-of-v` to full atoms: the returned set
    /// contains exactly the atoms of `points` that intersect `mask`.
    /// The result is atom-closed by construction.
    pub fn atoms_touching(&self, v: VReg, points: &BitSet, mask: &BitSet) -> BitSet {
        let mut out = BitSet::new(self.nh);
        let fused = &self.fused[v.index()];
        for h in points.iter() {
            if !mask.contains(h) {
                continue;
            }
            out.insert(h);
            let hp = HalfPoint::from_index(h);
            if hp.is_before() {
                if fused.contains(h) && points.contains(h + 1) {
                    out.insert(h + 1);
                }
            } else if h > 0 && fused.contains(h - 1) && points.contains(h - 1) {
                out.insert(h - 1);
            }
        }
        out
    }

    /// Enumerates the atoms of `points` (for register `v`) in ascending
    /// half-point order: fused `In/Out` pairs stay together, everything
    /// else is a singleton.
    pub fn atoms(&self, v: VReg, points: &BitSet) -> Vec<BitSet> {
        let fused = &self.fused[v.index()];
        let mut out = Vec::new();
        let mut skip_next: Option<usize> = None;
        for h in points.iter() {
            if skip_next == Some(h) {
                continue;
            }
            let mut atom = BitSet::new(self.nh);
            atom.insert(h);
            let hp = HalfPoint::from_index(h);
            if hp.is_before() && fused.contains(h) && points.contains(h + 1) {
                atom.insert(h + 1);
                skip_next = Some(h + 1);
            }
            out.push(atom);
        }
        out
    }

    /// Checks that `points ⊆ live(v)` and that no fused `In/Out` pair is
    /// separated by the set boundary.
    pub fn is_atom_closed(&self, v: VReg, points: &BitSet) -> bool {
        if !points.is_subset(&self.live[v.index()]) {
            return false;
        }
        for h in points.iter() {
            let hp = HalfPoint::from_index(h);
            let fused = &self.fused[v.index()];
            if hp.is_before() {
                if fused.contains(h) && !points.contains(h + 1) && self.live[v.index()].contains(h + 1)
                {
                    return false;
                }
            } else if h > 0
                && fused.contains(h - 1)
                && self.live[v.index()].contains(h - 1)
                && !points.contains(h - 1)
            {
                return false;
            }
        }
        true
    }

    /// Number of moves between two specific parts (flow edges with one
    /// endpoint in each).
    pub fn moves_between(&self, v: VReg, a: &BitSet, b: &BitSet) -> usize {
        self.flows[v.index()]
            .iter()
            .filter(|(x, y)| {
                (a.contains(x.index()) && b.contains(y.index()))
                    || (b.contains(x.index()) && a.contains(y.index()))
            })
            .count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use regbal_analysis::{Point, ProgramInfo};
    use regbal_ir::parse_func;

    fn map(src: &str) -> (ProgramInfo, LiveMap) {
        let f = parse_func(src).unwrap();
        let info = ProgramInfo::compute(&f);
        let lm = LiveMap::compute(&info);
        (info, lm)
    }

    #[test]
    fn straight_line_live_halves() {
        // p0: v0 = mov 1 | p1: store [v0], v0 | p2: halt
        let (_, lm) = map("func f {\nbb0:\n v0 = mov 1\n store scratch[v0+0], v0\n halt\n}");
        let v0 = VReg(0);
        let pts: Vec<usize> = lm.live(v0).iter().collect();
        // Out(p0) = 1, In(p1) = 2. Dead after the store.
        assert_eq!(pts, vec![1, 2]);
        assert!(lm.is_live(v0));
    }

    #[test]
    fn flow_edges_connect_consecutive_points() {
        let (_, lm) = map("func f {\nbb0:\n v0 = mov 1\n nop\n store scratch[v0+0], v0\n halt\n}");
        let v0 = VReg(0);
        // Out(p0)→In(p1), Out(p1)→In(p2)
        assert_eq!(
            lm.flows(v0),
            &[
                (HalfPoint(1), HalfPoint(2)),
                (HalfPoint(3), HalfPoint(4))
            ]
        );
        // v0 survives the nop: In(p1) fused with Out(p1).
        let mut part = BitSet::new(lm.num_halves());
        part.insert(1);
        part.insert(2);
        // This part separates In(p1) from Out(p1): not atom-closed.
        assert!(!lm.is_atom_closed(v0, &part));
        part.insert(3);
        // Atom-closed split between the nop and the store.
        assert!(lm.is_atom_closed(v0, &part));
    }

    #[test]
    fn boundary_halves_at_csb() {
        let (_, lm) = map(
            "func f {\nbb0:\n v0 = mov 1\n ctx\n store scratch[v0+0], v0\n halt\n}",
        );
        let v0 = VReg(0);
        let bh: Vec<usize> = lm.boundary_halves(v0).iter().collect();
        // ctx is p1: Out(p1) has index 3.
        assert_eq!(bh, vec![HalfPoint::after(Point(1)).index()]);
    }

    #[test]
    fn load_destination_has_no_boundary_half() {
        let (_, lm) = map(
            "func f {\nbb0:\n v0 = mov 256\n v1 = load sram[v0+0]\n store scratch[v0+0], v1\n halt\n}",
        );
        assert!(lm.boundary_halves(VReg(1)).is_empty(), "transfer-reg rule");
        assert!(!lm.boundary_halves(VReg(0)).is_empty(), "base survives load");
    }

    #[test]
    fn value_consumed_by_csb_not_boundary() {
        let (_, lm) = map(
            "func f {\nbb0:\n v0 = mov 1\n v1 = mov 2\n store scratch[v1+0], v0\n halt\n}",
        );
        assert!(lm.boundary_halves(VReg(0)).is_empty());
        assert!(lm.boundary_halves(VReg(1)).is_empty());
    }

    #[test]
    fn entry_live_marked_boundary() {
        let (info, lm) = map("func f {\nbb0:\n store scratch[v0+0], v0\n halt\n}");
        let entry_in = HalfPoint::before(info.pmap.entry());
        assert!(lm.boundary_halves(VReg(0)).contains(entry_in.index()));
    }

    #[test]
    fn atoms_touching_expands_to_pairs() {
        let (_, lm) = map("func f {\nbb0:\n v0 = mov 1\n nop\n store scratch[v0+0], v0\n halt\n}");
        let v0 = VReg(0);
        // Mask covering only In(p1) (index 2) must pull in Out(p1) (3).
        let mut mask = BitSet::new(lm.num_halves());
        mask.insert(2);
        let atoms = lm.atoms_touching(v0, lm.live(v0), &mask);
        let got: Vec<usize> = atoms.iter().collect();
        assert_eq!(got, vec![2, 3]);
        assert!(lm.is_atom_closed(v0, &atoms) || !atoms.is_subset(lm.live(v0)));
    }

    #[test]
    fn dead_def_occupies_out_half() {
        let (_, lm) = map("func f {\nbb0:\n v0 = mov 1\n halt\n}");
        let pts: Vec<usize> = lm.live(VReg(0)).iter().collect();
        assert_eq!(pts, vec![1], "dead def occupies Out(p0) only");
    }

    #[test]
    fn moves_between_counts_boundary_edges() {
        let (_, lm) = map(
            "func f {\nbb0:\n v0 = mov 1\n nop\n nop\n store scratch[v0+0], v0\n halt\n}",
        );
        let v0 = VReg(0);
        // Split after the first nop: A = {Out(p0), In(p1), Out(p1)},
        // B = {In(p2), Out(p2), In(p3)}.
        let a: BitSet = {
            let mut s = BitSet::new(lm.num_halves());
            s.extend([1usize, 2, 3]);
            s
        };
        let b: BitSet = {
            let mut s = BitSet::new(lm.num_halves());
            s.extend([4usize, 5, 6]);
            s
        };
        assert_eq!(lm.moves_between(v0, &a, &b), 1);
        assert!(lm.is_atom_closed(v0, &a));
        assert!(lm.is_atom_closed(v0, &b));
    }

    #[test]
    fn branch_fans_out_flow_edges() {
        let (_, lm) = map(
            "func f {\nbb0:\n v0 = mov 1\n beq v0, 0, bb1, bb2\nbb1:\n store scratch[v0+0], v0\n halt\nbb2:\n store scratch[v0+4], v0\n halt\n}",
        );
        let v0 = VReg(0);
        // Edges: Out(p0)→In(p1), Out(p1)→In(p2) (bb1), Out(p1)→In(p4) (bb2).
        assert_eq!(lm.flows(v0).len(), 3);
    }
}
