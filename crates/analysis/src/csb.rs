//! Context-switch boundaries (CSBs) and the values live across them.

use crate::liveness::Liveness;
use crate::points::{Point, PointMap};
use regbal_ir::{BitSet, Func};

/// The context-switch boundaries of a function.
///
/// A CSB is the program point of a context-switch instruction: an
/// explicit `ctx`, or a `load`/`store` (which block the thread for the
/// memory latency). The *live-across* set of a CSB contains the virtual
/// registers whose value must survive in a register while the thread is
/// switched out — `live_out(csb)` minus the register defined *by* the
/// CSB instruction itself, because a `load` destination travels in the
/// per-thread transfer registers during the switch (paper footnote 3).
#[derive(Debug, Clone)]
pub struct Csbs {
    points: Vec<Point>,
    live_across: Vec<BitSet>,
    is_csb: Vec<bool>,
}

impl Csbs {
    /// Finds every CSB of `func` and computes its live-across set.
    pub fn compute(func: &Func, pmap: &PointMap, liveness: &Liveness) -> Csbs {
        let mut points = Vec::new();
        let mut live_across = Vec::new();
        let mut is_csb = vec![false; pmap.num_points()];
        for p in pmap.points() {
            if pmap.slot(func, p).is_ctx_switch() {
                let mut across = liveness.live_out(p).clone();
                for d in liveness.defs_at(p) {
                    across.remove(d.index());
                }
                points.push(p);
                live_across.push(across);
                is_csb[p.index()] = true;
            }
        }
        Csbs {
            points,
            live_across,
            is_csb,
        }
    }

    /// The CSB points in program order.
    pub fn points(&self) -> &[Point] {
        &self.points
    }

    /// Number of CSBs.
    pub fn len(&self) -> usize {
        self.points.len()
    }

    /// Whether the function has no CSBs.
    pub fn is_empty(&self) -> bool {
        self.points.is_empty()
    }

    /// Whether `p` is a CSB.
    pub fn is_csb(&self, p: Point) -> bool {
        self.is_csb[p.index()]
    }

    /// The live-across set of the `i`-th CSB.
    pub fn live_across(&self, i: usize) -> &BitSet {
        &self.live_across[i]
    }

    /// Iterates over `(csb point, live-across set)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (Point, &BitSet)> {
        self.points.iter().copied().zip(self.live_across.iter())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use regbal_ir::parse_func;

    fn analyze(src: &str) -> (PointMap, Csbs) {
        let f = parse_func(src).unwrap();
        let pm = PointMap::new(&f);
        let lv = Liveness::compute(&f, &pm);
        let cs = Csbs::compute(&f, &pm, &lv);
        (pm, cs)
    }

    /// The live-across set at `p`, if `p` is a CSB.
    fn across_at(cs: &Csbs, p: Point) -> Option<&BitSet> {
        cs.iter().find(|&(q, _)| q == p).map(|(_, set)| set)
    }

    #[test]
    fn finds_all_csb_kinds() {
        let (_, cs) = analyze(
            "func f {\nbb0:\n v0 = mov 256\n v1 = load sram[v0+0]\n ctx\n store sdram[v0+0], v1\n nop\n halt\n}",
        );
        assert_eq!(cs.len(), 3);
        assert_eq!(
            cs.points(),
            &[Point(1), Point(2), Point(3)],
            "load, ctx, store"
        );
        assert!(cs.is_csb(Point(2)));
        assert!(!cs.is_csb(Point(4)));
        assert!(!cs.is_empty());
    }

    #[test]
    fn load_destination_not_live_across_its_own_csb() {
        // v1 is defined by the load: it must not count as live across it.
        let (_, cs) = analyze(
            "func f {\nbb0:\n v0 = mov 256\n v1 = load sram[v0+0]\n store sdram[v0+0], v1\n halt\n}",
        );
        let load_across = across_at(&cs, Point(1)).unwrap();
        assert!(load_across.contains(0), "base v0 survives the load");
        assert!(!load_across.contains(1), "load dst uses transfer regs");
        // At the store, everything is consumed.
        let store_across = across_at(&cs, Point(2)).unwrap();
        assert!(store_across.is_empty());
    }

    #[test]
    fn value_consumed_by_store_is_not_across() {
        let (_, cs) = analyze(
            "func f {\nbb0:\n v0 = mov 1\n v1 = mov 2\n store scratch[v0+0], v1\n store scratch[v0+4], v0\n halt\n}",
        );
        let first = across_at(&cs, Point(2)).unwrap();
        assert!(!first.contains(1), "v1 dead after its last use");
        assert!(first.contains(0), "v0 needed by the second store");
    }

    #[test]
    fn live_across_at_non_csb_is_none() {
        let (_, cs) = analyze("func f {\nbb0:\n nop\n ctx\n halt\n}");
        assert!(across_at(&cs, Point(0)).is_none());
        assert!(across_at(&cs, Point(1)).is_some());
    }

    #[test]
    fn iter_matches_points() {
        let (_, cs) = analyze("func f {\nbb0:\n ctx\n ctx\n halt\n}");
        let pairs: Vec<_> = cs.iter().map(|(p, s)| (p, s.count())).collect();
        assert_eq!(pairs, vec![(Point(0), 0), (Point(1), 0)]);
    }
}
