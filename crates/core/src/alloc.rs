//! The intra-thread allocation state and the Reduce-PR / Reduce-SR
//! operations of paper Fig. 10.
//!
//! A [`ThreadAlloc`] holds, for one thread, a partition of every live
//! range into colored *nodes* (split live-range fragments) together with
//! the thread's private and shared color palettes. The two reduction
//! entry points each give up one color:
//!
//! * [`ThreadAlloc::reduce_private`] — drop one private color
//!   (Reduce-PR): boundary nodes using it are recolored or split at
//!   NSR granularity (the paper's *Cut-if-conflict* and *NSR exclusion*,
//!   Figs. 11–12);
//! * [`ThreadAlloc::reduce_shared`] — drop one shared color
//!   (Reduce-SR): internal nodes are recolored or split at live-range
//!   overlap granularity (Fig. 13).
//!
//! Both finish with *eliminate-unnecessary-moves*, the merge pass of
//! paper §7.2. Costs are measured in `mov` instructions: the number of
//! value-flow edges whose two endpoint fragments carry different colors.

use crate::half::HalfPoint;
use crate::livemap::LiveMap;
use regbal_ir::{BitSet, VReg};
use std::sync::Arc;

/// Identifier of a live-range fragment within a [`ThreadAlloc`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct NodeId(pub u32);

impl NodeId {
    fn index(self) -> usize {
        self.0 as usize
    }
}

/// One live-range fragment: a set of half-points of a single virtual
/// register, holding one color.
#[derive(Debug, Clone)]
struct Node {
    vreg: VReg,
    points: BitSet,
    boundary: bool,
    color: u32,
    alive: bool,
}

/// Work-limit multiplier for a single color elimination; prevents
/// pathological split cascades from looping.
const VACATE_STEP_LIMIT_PER_NODE: usize = 24;

/// The allocation state of one thread.
#[derive(Debug, Clone)]
pub struct ThreadAlloc {
    live: Arc<LiveMap>,
    nodes: Vec<Node>,
    by_vreg: Vec<Vec<NodeId>>,
    private: Vec<u32>,
    shared: Vec<u32>,
}

impl ThreadAlloc {
    /// Builds the initial state from a total coloring: one unsplit node
    /// per live virtual register. Colors `0..max_pr` form the private
    /// palette, `max_pr..max_r` the shared palette.
    ///
    /// # Panics
    ///
    /// Panics if a live register has no color, a boundary node has a
    /// non-private color, or two interfering nodes share a color.
    pub fn new(live: Arc<LiveMap>, colors: &[Option<u32>], max_pr: usize, max_r: usize) -> Self {
        assert!(max_pr <= max_r, "PR cannot exceed R");
        let nv = live.num_vregs();
        let mut nodes = Vec::new();
        let mut by_vreg = vec![Vec::new(); nv];
        for (vi, slots) in by_vreg.iter_mut().enumerate() {
            let v = VReg(vi as u32);
            if !live.is_live(v) {
                continue;
            }
            let color = colors
                .get(vi)
                .copied()
                .flatten()
                .expect("bound estimation colors every live register");
            let boundary = !live.boundary_halves(v).is_empty();
            assert!(
                !boundary || (color as usize) < max_pr,
                "boundary node {v} must use a private color, got {color}"
            );
            assert!((color as usize) < max_r, "color {color} out of palette");
            let id = NodeId(nodes.len() as u32);
            nodes.push(Node {
                vreg: v,
                points: live.live(v).clone(),
                boundary,
                color,
                alive: true,
            });
            slots.push(id);
        }
        let alloc = ThreadAlloc {
            live,
            nodes,
            by_vreg,
            private: (0..max_pr as u32).collect(),
            shared: (max_pr as u32..max_r as u32).collect(),
        };
        alloc.assert_consistent();
        alloc
    }

    /// The live map the allocation is built over.
    pub fn live_map(&self) -> &LiveMap {
        &self.live
    }

    /// Number of private colors (the thread's `PR`).
    pub fn pr(&self) -> usize {
        self.private.len()
    }

    /// Number of shared colors (the thread's `SR`).
    pub fn sr(&self) -> usize {
        self.shared.len()
    }

    /// Total colors (`R = PR + SR`).
    pub fn r(&self) -> usize {
        self.private.len() + self.shared.len()
    }

    /// The private color palette, in physical-assignment order.
    pub fn private_palette(&self) -> &[u32] {
        &self.private
    }

    /// The shared color palette, in physical-assignment order.
    pub fn shared_palette(&self) -> &[u32] {
        &self.shared
    }

    /// Live fragment ids, in arbitrary order.
    pub fn node_ids(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.nodes
            .iter()
            .enumerate()
            .filter(|(_, n)| n.alive)
            .map(|(i, _)| NodeId(i as u32))
    }

    /// The virtual register of a fragment.
    pub fn node_vreg(&self, id: NodeId) -> VReg {
        self.nodes[id.index()].vreg
    }

    /// The half-point set of a fragment.
    pub fn node_points(&self, id: NodeId) -> &BitSet {
        &self.nodes[id.index()].points
    }

    /// The color of a fragment.
    pub fn node_color(&self, id: NodeId) -> u32 {
        self.nodes[id.index()].color
    }

    /// Whether the fragment contains a boundary half-point (and thus
    /// requires a private color).
    pub fn node_is_boundary(&self, id: NodeId) -> bool {
        self.nodes[id.index()].boundary
    }

    /// The fragment of `v` covering half-point `h`, if `v` is live
    /// there.
    pub fn node_at(&self, v: VReg, h: HalfPoint) -> Option<NodeId> {
        self.by_vreg[v.index()]
            .iter()
            .copied()
            .find(|&id| self.nodes[id.index()].alive && self.nodes[id.index()].points.contains(h.index()))
    }

    /// Number of fragments a register is split into.
    pub fn num_fragments(&self, v: VReg) -> usize {
        self.by_vreg[v.index()]
            .iter()
            .filter(|id| self.nodes[id.index()].alive)
            .count()
    }

    /// Total `mov` instructions implied by the current partition: flow
    /// edges whose endpoints lie in fragments of different colors.
    pub fn moves(&self) -> usize {
        (0..self.live.num_vregs())
            .map(|vi| self.vreg_moves(VReg(vi as u32)))
            .sum()
    }

    /// The moves `v` alone contributes to [`moves`](Self::moves): its
    /// flow edges whose endpoint fragments differ in color (none while
    /// it is unsplit).
    fn vreg_moves(&self, v: VReg) -> usize {
        if self.num_fragments(v) <= 1 {
            return 0;
        }
        let color = |h| {
            let id = self.node_at(v, h).expect("flow endpoint is live");
            self.nodes[id.index()].color
        };
        self.live
            .flows(v)
            .iter()
            .filter(|&&(a, b)| color(a) != color(b))
            .count()
    }

    /// The moves as concrete `(from, to, vreg, old_color, new_color)`
    /// tuples, for the rewriter.
    pub fn move_sites(&self) -> Vec<MoveSite> {
        let mut sites = Vec::new();
        for vi in 0..self.live.num_vregs() {
            let v = VReg(vi as u32);
            if self.num_fragments(v) <= 1 {
                continue;
            }
            for &(a, b) in self.live.flows(v) {
                let na = self.node_at(v, a).expect("flow endpoint is live");
                let nb = self.node_at(v, b).expect("flow endpoint is live");
                let (ca, cb) = (self.nodes[na.index()].color, self.nodes[nb.index()].color);
                if ca != cb {
                    sites.push(MoveSite {
                        from: a,
                        to: b,
                        vreg: v,
                        old_color: ca,
                        new_color: cb,
                    });
                }
            }
        }
        sites
    }

    // ------------------------------------------------------------------
    // Fault injection — test-harness API.
    // ------------------------------------------------------------------

    /// Forcibly recolors fragment `id`, **bypassing every invariant**.
    ///
    /// This exists to manufacture broken allocations on purpose: the
    /// verifier's unit tests and the simulator's sanitizer harness
    /// inject exactly the bug classes (a boundary fragment in a shared
    /// register, co-live fragments sharing a color, ...) that
    /// [`crate::verify`] and the dynamic sanitizer must catch. Never
    /// call it from allocation code.
    pub fn force_color(&mut self, id: NodeId, color: u32) {
        self.nodes[id.index()].color = color;
    }

    /// Forcibly flips fragment `id`'s boundary flag (see
    /// [`force_color`](Self::force_color) — fault injection only).
    pub fn force_boundary(&mut self, id: NodeId, boundary: bool) {
        self.nodes[id.index()].boundary = boundary;
    }

    /// Forcibly replaces both palettes (see
    /// [`force_color`](Self::force_color) — fault injection only).
    pub fn force_palettes(&mut self, private: Vec<u32>, shared: Vec<u32>) {
        self.private = private;
        self.shared = shared;
    }

    /// Forcibly replaces fragment `id`'s program points (see
    /// [`force_color`](Self::force_color) — fault injection only).
    pub fn force_points(&mut self, id: NodeId, points: BitSet) {
        self.nodes[id.index()].points = points;
    }

    // ------------------------------------------------------------------
    // Conflict queries
    // ------------------------------------------------------------------

    /// Fragments of *other* registers with color `c` overlapping
    /// `points`.
    fn conflicting_nodes(&self, points: &BitSet, c: u32, vreg: VReg) -> Vec<NodeId> {
        self.nodes
            .iter()
            .enumerate()
            .filter(|(_, n)| n.alive && n.color == c && n.vreg != vreg)
            .filter(|(_, n)| n.points.intersects(points))
            .map(|(i, _)| NodeId(i as u32))
            .collect()
    }

    /// Whether color `c` is free over `points` for register `vreg`.
    fn color_free(&self, points: &BitSet, c: u32, vreg: VReg) -> bool {
        self.nodes
            .iter()
            .all(|n| !(n.alive && n.color == c && n.vreg != vreg && n.points.intersects(points)))
    }

    /// The union of the overlap between `points` and fragments of other
    /// registers colored `c`.
    fn conflict_mask(&self, points: &BitSet, c: u32, vreg: VReg) -> BitSet {
        let mut mask = BitSet::new(self.live.num_halves());
        for n in &self.nodes {
            if n.alive && n.color == c && n.vreg != vreg && n.points.intersects(points) {
                let mut overlap = n.points.clone();
                overlap.intersect_with(points);
                mask.union_with(&overlap);
            }
        }
        mask
    }

    /// The colors a fragment may use: private only for boundary
    /// fragments, the full palette otherwise.
    fn palette_for(&self, boundary: bool) -> Vec<u32> {
        if boundary {
            self.private.clone()
        } else {
            self.private.iter().chain(self.shared.iter()).copied().collect()
        }
    }

    // ------------------------------------------------------------------
    // Mutations
    // ------------------------------------------------------------------

    fn recolor(&mut self, id: NodeId, c: u32) {
        self.nodes[id.index()].color = c;
    }

    /// Splits `part` (atom-closed, proper non-empty subset) out of `id`
    /// into a new fragment carrying the same color.
    fn split(&mut self, id: NodeId, part: BitSet) -> NodeId {
        debug_assert!(!part.is_empty());
        let vreg = self.nodes[id.index()].vreg;
        let bh = self.live.boundary_halves(vreg).clone();
        let node = &mut self.nodes[id.index()];
        debug_assert!(part.is_subset(&node.points));
        node.points.difference_with(&part);
        debug_assert!(!node.points.is_empty(), "split must be proper");
        let color = node.color;
        node.boundary = node.points.intersects(&bh);
        let boundary = part.intersects(&bh);
        let new_id = NodeId(self.nodes.len() as u32);
        self.nodes.push(Node {
            vreg,
            points: part,
            boundary,
            color,
            alive: true,
        });
        self.by_vreg[vreg.index()].push(new_id);
        new_id
    }

    /// Merges fragment `b` into fragment `a` (same register); `a` keeps
    /// its color.
    fn merge(&mut self, a: NodeId, b: NodeId) {
        debug_assert_ne!(a, b);
        let pts = self.nodes[b.index()].points.clone();
        let bb = self.nodes[b.index()].boundary;
        debug_assert_eq!(self.nodes[a.index()].vreg, self.nodes[b.index()].vreg);
        self.nodes[b.index()].alive = false;
        let node = &mut self.nodes[a.index()];
        node.points.union_with(&pts);
        node.boundary |= bb;
    }

    // ------------------------------------------------------------------
    // Color elimination (the heart of Reduce-PR / Reduce-SR)
    // ------------------------------------------------------------------

    /// Demotes private color `banned` (paper `Reduce_PR`, Figs. 11-12):
    /// every *boundary* fragment vacates it; internal fragments may keep
    /// it, in which case the color moves to the shared palette
    /// (`PR-1, SR+1` — Fig. 11's split fragment "keeps color c"). If no
    /// internal user remains the color disappears entirely (`R-1`).
    /// Returns `None` if stuck (callers work on clones).
    fn demote_private(&mut self, banned: u32) -> Option<()> {
        let mut queue: Vec<NodeId> = self
            .node_ids()
            .filter(|&id| {
                self.nodes[id.index()].color == banned && self.nodes[id.index()].boundary
            })
            .collect();
        let limit = VACATE_STEP_LIMIT_PER_NODE * (queue.len() + 4);
        let mut steps = 0;
        while let Some(id) = queue.pop() {
            let node = &self.nodes[id.index()];
            if !node.alive || node.color != banned || !node.boundary {
                continue;
            }
            steps += 1;
            if steps > limit {
                return None;
            }
            let spawned = self.vacate_one(id, banned)?;
            // Split fragments that are still boundary must vacate too;
            // internal fragments legitimately keep the demoted color.
            queue.extend(
                spawned
                    .into_iter()
                    .filter(|&s| self.nodes[s.index()].boundary),
            );
        }
        self.private.retain(|&c| c != banned);
        let still_used = self
            .nodes
            .iter()
            .any(|n| n.alive && n.color == banned);
        if still_used {
            self.shared.push(banned);
        }
        Some(())
    }

    /// Vacates every fragment using `banned` and removes the color from
    /// its palette entirely (paper `Reduce_SR`). Returns `None` if
    /// stuck (callers work on clones).
    fn eliminate_color(&mut self, banned: u32) -> Option<()> {
        let mut queue: Vec<NodeId> = self
            .node_ids()
            .filter(|&id| self.nodes[id.index()].color == banned)
            .collect();
        // Boundary nodes first, like the paper's Reduce-PR.
        queue.sort_by_key(|&id| !self.nodes[id.index()].boundary);
        queue.reverse(); // pop() takes boundary nodes first
        let limit = VACATE_STEP_LIMIT_PER_NODE * (queue.len() + 4);
        let mut steps = 0;
        while let Some(id) = queue.pop() {
            if !self.nodes[id.index()].alive || self.nodes[id.index()].color != banned {
                continue;
            }
            steps += 1;
            if steps > limit {
                return None;
            }
            if let Some(spawned) = self.vacate_one(id, banned) {
                queue.extend(spawned);
            } else {
                return None;
            }
        }
        self.private.retain(|&c| c != banned);
        self.shared.retain(|&c| c != banned);
        Some(())
    }

    /// Moves one fragment off `banned`, possibly splitting it; returns
    /// the fragments still carrying `banned` that the split produced.
    fn vacate_one(&mut self, id: NodeId, banned: u32) -> Option<Vec<NodeId>> {
        let vreg = self.nodes[id.index()].vreg;
        let boundary = self.nodes[id.index()].boundary;
        let points = self.nodes[id.index()].points.clone();
        let palette: Vec<u32> = self
            .palette_for(boundary)
            .into_iter()
            .filter(|&c| c != banned)
            .collect();
        if palette.is_empty() {
            return None;
        }

        // 1. Free recolor (paper: NCN < PR-1 / NCN < R-1 case).
        for &c in &palette {
            if self.color_free(&points, c, vreg) {
                self.recolor(id, c);
                return Some(Vec::new());
            }
        }

        // 2. Neighbour nudge (paper: "try to change their neighbors'
        //    colors"). Only single-blocker cases, one level deep.
        for &c in &palette {
            let blockers = self.conflicting_nodes(&points, c, vreg);
            if blockers.len() != 1 {
                continue;
            }
            let blocker = blockers[0];
            let bpoints = self.nodes[blocker.index()].points.clone();
            let bvreg = self.nodes[blocker.index()].vreg;
            let bpalette = self.palette_for(self.nodes[blocker.index()].boundary);
            let retarget = bpalette
                .into_iter()
                .filter(|&c2| c2 != c && c2 != banned)
                .find(|&c2| self.color_free(&bpoints, c2, bvreg));
            if let Some(c2) = retarget {
                self.recolor(blocker, c2);
                self.recolor(id, c);
                return Some(Vec::new());
            }
        }

        // 3. Split. Boundary fragments split at NSR granularity
        //    (paper Figs. 11-12); internal fragments at overlap
        //    granularity (paper Fig. 13).
        let mut best: Option<(u32, BitSet, usize)> = None;
        for &c in &palette {
            let conflict = self.conflict_mask(&points, c, vreg);
            debug_assert!(!conflict.is_empty());
            let mask = if boundary {
                // Exclude whole regions containing conflicts (paper
                // Fig. 12, NSR exclusion). A conflict at a CSB itself —
                // both nodes live across the same switch — excludes that
                // CSB's atom instead: the cut lands on the flow edges
                // entering/leaving the switch (paper Fig. 11).
                let mut m = BitSet::new(self.live.num_halves());
                for h in conflict.iter() {
                    match self.live.region_of(HalfPoint::from_index(h)) {
                        Some(r) => {
                            m.union_with(self.live.region_mask(r));
                        }
                        None => {
                            m.insert(h);
                        }
                    }
                }
                m
            } else {
                conflict
            };
            let excl = self.live.atoms_touching(vreg, &points, &mask);
            if excl.is_empty() || excl == points {
                continue;
            }
            // The kept part takes color c; it must actually be free of c.
            let mut kept = points.clone();
            kept.difference_with(&excl);
            if !self.color_free(&kept, c, vreg) {
                continue;
            }
            // A boundary-constrained kept part can only take c if c is
            // private; palette_for already guarantees that for boundary
            // nodes, and kept keeps all boundary halves by construction.
            let cost = self.live.moves_between(vreg, &kept, &excl);
            if best.as_ref().is_none_or(|&(_, _, bc)| cost < bc) {
                best = Some((c, excl, cost));
            }
        }
        if let Some((c, excl, _)) = best {
            let spawned = self.split(id, excl);
            self.recolor(id, c);
            debug_assert_eq!(self.nodes[spawned.index()].color, banned);
            return Some(vec![spawned]);
        }

        // 4. Last resort — the Lemma 1 construction: explode the node
        //    into individual atoms (one fragment per instruction slot)
        //    and first-fit color each. Guaranteed to work down to the
        //    pressure bounds; eliminate-unnecessary-moves re-merges the
        //    pieces afterwards.
        self.explode_and_color(id, banned)
    }

    /// Splits `id` into per-atom fragments and colors each from its
    /// allowed palette, avoiding `banned`. Returns `None` if some atom
    /// has no free color.
    fn explode_and_color(&mut self, id: NodeId, banned: u32) -> Option<Vec<NodeId>> {
        let vreg = self.nodes[id.index()].vreg;
        let atoms = self.live.atoms(vreg, &self.nodes[id.index()].points);
        if atoms.len() <= 1 {
            return None;
        }
        let mut pieces = vec![id];
        for atom in atoms.iter().skip(1) {
            pieces.push(self.split(id, atom.clone()));
        }
        for &piece in &pieces {
            let points = self.nodes[piece.index()].points.clone();
            let palette = self.palette_for(self.nodes[piece.index()].boundary);
            let c = palette
                .into_iter()
                .filter(|&c| c != banned)
                .find(|&c| self.color_free(&points, c, vreg))?;
            self.recolor(piece, c);
        }
        Some(Vec::new())
    }

    // ------------------------------------------------------------------
    // Reductions (public API used by the inter-thread allocator)
    // ------------------------------------------------------------------

    /// Tries to reduce `PR` by one (paper Fig. 10, `Reduce_PR`):
    /// evaluates the *demotion* of every private color on a scratch
    /// copy and commits the cheapest. The demoted color becomes shared
    /// if internal fragments still use it (`SR` grows by one),
    /// otherwise it disappears. Returns the move-count delta, or
    /// `None` if no private color can be given up.
    pub fn reduce_private(&mut self) -> Option<isize> {
        let candidates = self.private.clone();
        if let Some(delta) = self.reduce_with(&candidates, |alloc, c| alloc.demote_private(c)) {
            return Some(delta);
        }
        // Per-node vacating can wedge when several boundary nodes must
        // move *together*; fall back to the paper's Lemma 1
        // construction — explode every boundary node at its CSBs and
        // recolor the fragments from scratch — and let the merge pass
        // recover most of the moves.
        self.reduce_with(&candidates, |alloc, c| alloc.demote_private_lemma1(c))
    }

    /// Aggressive Reduce-PR: split **every** boundary node into atoms,
    /// then first-fit recolor all boundary fragments within the private
    /// palette minus `banned`, evicting internal blockers to shared
    /// colors when needed.
    fn demote_private_lemma1(&mut self, banned: u32) -> Option<()> {
        let boundary_ids: Vec<NodeId> = self
            .node_ids()
            .filter(|&id| self.nodes[id.index()].boundary)
            .collect();
        let mut fragments: Vec<NodeId> = Vec::new();
        for id in boundary_ids {
            let vreg = self.nodes[id.index()].vreg;
            let atoms = self.live.atoms(vreg, &self.nodes[id.index()].points);
            fragments.push(id);
            for atom in atoms.iter().skip(1) {
                fragments.push(self.split(id, atom.clone()));
            }
        }
        // Recolor boundary fragments in program order so chains of
        // adjacent atoms tend to receive the same color.
        fragments.sort_by_key(|&f| self.nodes[f.index()].points.iter().next());
        for &f in &fragments {
            if !self.nodes[f.index()].boundary {
                continue; // exploded interior piece: internal rules
            }
            let vreg = self.nodes[f.index()].vreg;
            let points = self.nodes[f.index()].points.clone();
            let palette: Vec<u32> = self
                .private
                .iter()
                .copied()
                .filter(|&c| c != banned)
                .collect();
            let free = palette
                .iter()
                .copied()
                .find(|&c| self.color_free(&points, c, vreg));
            let c = match free {
                Some(c) => c,
                None => {
                    // Evict internal blockers of some candidate color to
                    // a shared color.
                    let mut chosen = None;
                    'colors: for &c in &palette {
                        let blockers = self.conflicting_nodes(&points, c, vreg);
                        if blockers.iter().any(|&b| self.nodes[b.index()].boundary) {
                            continue;
                        }
                        // Evict one by one so each check sees the
                        // previous eviction (safe either way: every
                        // recolor is conflict-checked; a partial
                        // eviction merely leaves valid recolorings
                        // behind on this scratch copy).
                        for &blk in &blockers {
                            let bp = self.nodes[blk.index()].points.clone();
                            let bv = self.nodes[blk.index()].vreg;
                            let Some(target) = self
                                .shared
                                .iter()
                                .chain(self.private.iter())
                                .copied()
                                .filter(|&cc| cc != c && cc != banned)
                                .find(|&cc| self.color_free(&bp, cc, bv))
                            else {
                                continue 'colors;
                            };
                            self.recolor(blk, target);
                        }
                        chosen = Some(c);
                        break;
                    }
                    chosen?
                }
            };
            self.recolor(f, c);
        }
        self.private.retain(|&c| c != banned);
        let still_used = self.nodes.iter().any(|n| n.alive && n.color == banned);
        if still_used {
            self.shared.push(banned);
        }
        Some(())
    }

    /// Tries to reduce `SR` by one (paper Fig. 10, `Reduce_SR`): the
    /// cheapest shared color is eliminated outright (`R` drops).
    pub fn reduce_shared(&mut self) -> Option<isize> {
        let candidates = self.shared.clone();
        self.reduce_with(&candidates, |alloc, c| alloc.eliminate_color(c))
    }

    fn reduce_with(
        &mut self,
        candidates: &[u32],
        step: impl Fn(&mut ThreadAlloc, u32) -> Option<()>,
    ) -> Option<isize> {
        let before = self.moves() as isize;
        let mut best: Option<(ThreadAlloc, isize)> = None;
        for &c in candidates {
            let mut trial = self.clone();
            if step(&mut trial, c).is_none() {
                continue;
            }
            trial.eliminate_unnecessary_moves();
            let delta = trial.moves() as isize - before;
            if best.as_ref().is_none_or(|&(_, d)| delta < d) {
                best = Some((trial, delta));
            }
        }
        let (next, delta) = best?;
        *self = next;
        Some(delta)
    }

    /// Cost of the cheapest private-color elimination without applying
    /// it, for the inter-thread allocator's candidate comparison.
    pub fn peek_reduce_private(&self) -> Option<isize> {
        let mut copy = self.clone();
        copy.reduce_private()
    }

    /// Cost of the cheapest shared-color elimination without applying
    /// it.
    pub fn peek_reduce_shared(&self) -> Option<isize> {
        let mut copy = self.clone();
        copy.reduce_shared()
    }

    // ------------------------------------------------------------------
    // Move elimination (paper §7.2, "Eliminate Unnecessary Moves")
    // ------------------------------------------------------------------

    /// Merges adjacent same-register fragments when doing so removes
    /// moves: same-color neighbours always merge; differently-colored
    /// neighbours merge when one side can adopt the other's color
    /// without conflicts and the merge strictly reduces the move count.
    pub fn eliminate_unnecessary_moves(&mut self) {
        self.eliminate_moves_with(ThreadAlloc::try_merge_recolored);
    }

    /// The merge pass of [`eliminate_unnecessary_moves`](Self::eliminate_unnecessary_moves)
    /// with the differently-colored merge decided by `try_merge`.
    fn eliminate_moves_with(
        &mut self,
        try_merge: impl Fn(&mut ThreadAlloc, NodeId, NodeId) -> bool,
    ) {
        loop {
            let mut changed = false;
            'scan: for vi in 0..self.live.num_vregs() {
                let v = VReg(vi as u32);
                if self.num_fragments(v) <= 1 {
                    continue;
                }
                let flows = self.live.flows(v).to_vec();
                for (a, b) in flows {
                    let na = self.node_at(v, a).expect("flow endpoint live");
                    let nb = self.node_at(v, b).expect("flow endpoint live");
                    if na == nb {
                        continue;
                    }
                    if self.nodes[na.index()].color == self.nodes[nb.index()].color {
                        self.merge(na, nb);
                        changed = true;
                        continue 'scan;
                    }
                    // Try adopting either side's color for the union.
                    for (keep, give) in [(na, nb), (nb, na)] {
                        if try_merge(self, keep, give) {
                            changed = true;
                            continue 'scan;
                        }
                    }
                }
            }
            if !changed {
                return;
            }
        }
    }

    /// Attempts to merge `give` into `keep` under `keep`'s color;
    /// commits only if legal and strictly move-reducing.
    ///
    /// The merge happens in place and is undone when `vreg`'s own move
    /// count does not fall. That count decides exactly: a merge touches
    /// only `vreg`'s fragments, so every other register's term of
    /// [`moves`](Self::moves) is unchanged.
    fn try_merge_recolored(&mut self, keep: NodeId, give: NodeId) -> bool {
        if !self.can_merge_recolored(keep, give) {
            return false;
        }
        let vreg = self.nodes[keep.index()].vreg;
        let before = self.vreg_moves(vreg);
        let saved = (
            self.nodes[keep.index()].points.clone(),
            self.nodes[keep.index()].boundary,
        );
        self.merge(keep, give);
        if self.vreg_moves(vreg) < before {
            return true;
        }
        let node = &mut self.nodes[keep.index()];
        (node.points, node.boundary) = saved;
        self.nodes[give.index()].alive = true;
        false
    }

    /// Whether `give` may join `keep` under `keep`'s color: a boundary
    /// union needs a private color, and the color must be free over
    /// `give`'s points.
    fn can_merge_recolored(&self, keep: NodeId, give: NodeId) -> bool {
        let (k, g) = (&self.nodes[keep.index()], &self.nodes[give.index()]);
        if (k.boundary || g.boundary) && !self.private.contains(&k.color) {
            return false;
        }
        self.color_free(&g.points, k.color, k.vreg)
    }

    // ------------------------------------------------------------------
    // Internal consistency (used by tests and the verifier)
    // ------------------------------------------------------------------

    /// Asserts every structural invariant; see [`crate::verify`] for the
    /// fallible variant.
    pub fn assert_consistent(&self) {
        crate::verify::check_thread(self).expect("thread allocation invariant violated");
    }
}

/// A concrete move the rewriter must materialise: register `vreg`
/// changes color between half-points `from` and `to`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MoveSite {
    /// Source half-point (`Out` of the earlier instruction).
    pub from: HalfPoint,
    /// Destination half-point (`In` of the later instruction).
    pub to: HalfPoint,
    /// The register being renamed.
    pub vreg: VReg,
    /// Color before the move.
    pub old_color: u32,
    /// Color after the move.
    pub new_color: u32,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bounds::estimate_bounds;
    use regbal_analysis::ProgramInfo;
    use regbal_ir::parse_func;

    pub(super) fn setup(src: &str) -> (ProgramInfo, ThreadAlloc) {
        let f = parse_func(src).unwrap();
        let info = ProgramInfo::compute(&f);
        let est = estimate_bounds(&info);
        let live = Arc::new(LiveMap::compute(&info));
        let alloc = ThreadAlloc::new(live, &est.coloring, est.bounds.max_pr, est.bounds.max_r);
        (info, alloc)
    }

    /// Paper Figure 3 thread 1: `a` across the ctx, `b`/`c` internal.
    /// MinPR = 1, MinR = 2; the initial estimate uses more.
    pub(super) const FIG3_T1: &str = "
func t1 {
bb0:
    v0 = mov 1
    ctx
    beq v0, 0, bb1, bb2
bb1:
    v1 = mov 2
    v3 = add v0, v1
    v2 = mov 3
    jump bb3
bb2:
    v2 = mov 4
    v3 = add v0, v2
    v1 = mov 5
    jump bb3
bb3:
    v4 = add v1, v2
    v5 = load sram[v4+0]
    store scratch[v4+0], v5
    halt
}";

    /// Paper Figure 9: three values interfering pairwise at three
    /// different CSBs: a 3-clique on the BIG, but only two co-live at
    /// any single CSB — splitting reaches MinPR = 2.
    pub(super) const FIG9: &str = "
func fig9 {
bb0:
    v0 = mov 1            ; A
    v1 = mov 2            ; B
    ctx                    ; A,B across
    v2 = add v0, v1       ; C defined while A live... keep simple
    ctx                    ; A,C across
    store scratch[v0+0], v0
    ctx                    ; B?,C across
    store scratch[v2+0], v2
    store scratch[v1+0], v1
    halt
}";

    #[test]
    fn initial_state_is_consistent() {
        let (_, alloc) = setup(FIG3_T1);
        alloc.assert_consistent();
        assert!(alloc.pr() >= 1);
        assert_eq!(alloc.moves(), 0, "no splits yet");
        for v in 0..6u32 {
            assert!(alloc.num_fragments(regbal_ir::VReg(v)) <= 1);
        }
    }

    #[test]
    fn reduce_private_reaches_min_pr_on_fig3() {
        let (info, mut alloc) = setup(FIG3_T1);
        let min_pr = info.pressure.min_pr();
        assert_eq!(min_pr, 1);
        while alloc.pr() > min_pr {
            let before_pr = alloc.pr();
            let delta = alloc.reduce_private();
            assert!(delta.is_some(), "stuck at pr={}", alloc.pr());
            assert_eq!(alloc.pr(), before_pr - 1);
            alloc.assert_consistent();
        }
        assert_eq!(alloc.pr(), 1);
    }

    #[test]
    fn reduce_shared_shrinks_r() {
        let (info, mut alloc) = setup(FIG3_T1);
        let min_r = info.pressure.min_r();
        while alloc.r() > min_r && alloc.sr() > 0 {
            let before = alloc.sr();
            if alloc.reduce_shared().is_none() {
                break;
            }
            assert_eq!(alloc.sr(), before - 1);
            alloc.assert_consistent();
        }
        assert!(alloc.r() >= min_r);
    }

    #[test]
    fn figure9_split_reaches_two_private() {
        let (info, mut alloc) = setup(FIG9);
        let min_pr = info.pressure.min_pr();
        while alloc.pr() > min_pr {
            if alloc.reduce_private().is_none() {
                break;
            }
            alloc.assert_consistent();
        }
        assert_eq!(alloc.pr(), min_pr, "live-range splitting reaches MinPR");
    }

    #[test]
    fn reductions_report_move_cost() {
        let (info, mut alloc) = setup(FIG9);
        let mut total_delta = 0isize;
        while alloc.pr() > info.pressure.min_pr() {
            match alloc.reduce_private() {
                Some(d) => total_delta += d,
                None => break,
            }
        }
        assert_eq!(alloc.moves() as isize, total_delta.max(0));
    }

    #[test]
    fn peek_does_not_mutate() {
        let (_, alloc) = setup(FIG3_T1);
        let pr = alloc.pr();
        let moves = alloc.moves();
        let _ = alloc.peek_reduce_private();
        let _ = alloc.peek_reduce_shared();
        assert_eq!(alloc.pr(), pr);
        assert_eq!(alloc.moves(), moves);
    }

    #[test]
    fn move_sites_match_move_count() {
        let (info, mut alloc) = setup(FIG9);
        while alloc.pr() > info.pressure.min_pr() {
            if alloc.reduce_private().is_none() {
                break;
            }
        }
        assert_eq!(alloc.move_sites().len(), alloc.moves());
        for site in alloc.move_sites() {
            assert!(site.from.is_after());
            assert!(site.to.is_before());
            assert_ne!(site.old_color, site.new_color);
        }
    }

    #[test]
    fn boundary_nodes_keep_private_colors_after_reduction() {
        let (info, mut alloc) = setup(FIG9);
        while alloc.pr() > info.pressure.min_pr() {
            if alloc.reduce_private().is_none() {
                break;
            }
        }
        for id in alloc.node_ids().collect::<Vec<_>>() {
            if alloc.node_is_boundary(id) {
                assert!(alloc.private_palette().contains(&alloc.node_color(id)));
            }
        }
    }

    #[test]
    fn empty_function_allocates_trivially() {
        let (_, alloc) = setup("func e {\nbb0:\n halt\n}");
        assert_eq!(alloc.pr(), 0);
        assert_eq!(alloc.sr(), 0);
        assert_eq!(alloc.moves(), 0);
    }

    #[test]
    fn reduce_fails_gracefully_at_floor() {
        let (_, mut alloc) = setup("func f {\nbb0:\n v0 = mov 1\n ctx\n store scratch[v0+0], v0\n halt\n}");
        // One boundary value: pr = 1, can't go below.
        assert_eq!(alloc.pr(), 1);
        assert!(alloc.reduce_private().is_none());
        alloc.assert_consistent();
    }
}

#[cfg(test)]
mod demotion_tests {
    use super::*;
    use crate::bounds::estimate_bounds;
    use regbal_analysis::ProgramInfo;
    use regbal_ir::parse_func;

    fn setup2(src: &str) -> ThreadAlloc {
        let f = parse_func(src).unwrap();
        let info = ProgramInfo::compute(&f);
        let est = estimate_bounds(&info);
        let live = Arc::new(LiveMap::compute(&info));
        ThreadAlloc::new(live, &est.coloring, est.bounds.max_pr, est.bounds.max_r)
    }

    /// v0 and v1 boundary (across ctx); v2/v3 internal and colorable
    /// only with a third color at their pressure point.
    pub(super) const DEMOTION: &str = "
func d {
bb0:
    v0 = mov 1
    v1 = mov 2
    ctx
    v2 = add v0, v1
    v3 = add v2, v0
    v4 = add v3, v2
    store scratch[v4+0], v4
    ctx
    store scratch[v0+0], v1
    halt
}";

    /// A pairwise-boundary pattern (paper Fig. 9) where per-node
    /// vacating alone wedges.
    pub(super) const LEMMA1_PATTERN: &str = "
func p {
bb0:
    v0 = mov 1
    v1 = mov 2
    v2 = mov 3
    beq v0, 1, bb1, bb2
bb1:
    store scratch[v0+0], v0   ; v0,v1 across? choose pairs below
    v3 = add v0, v1
    jump bb3
bb2:
    store scratch[v1+0], v1   ; v1,v2 across
    v3 = add v1, v2
    jump bb3
bb3:
    store scratch[v2+0], v2   ; v2,(v3) across
    v4 = add v3, v2
    store scratch[v4+4], v4
    halt
}";

    /// A demoted private color whose internal users remain migrates to
    /// the shared palette: R is preserved (paper Fig. 11 semantics).
    #[test]
    fn demotion_moves_color_to_shared() {
        let mut a = setup2(DEMOTION);
        let (pr0, sr0, r0) = (a.pr(), a.sr(), a.r());
        if a.reduce_private().is_some() {
            assert_eq!(a.pr(), pr0 - 1);
            // Either the color was demoted (SR grew, R same) or dropped
            // entirely (R shrank).
            assert!(
                (a.sr() == sr0 + 1 && a.r() == r0) || (a.sr() == sr0 && a.r() == r0 - 1),
                "pr {} sr {} r {}",
                a.pr(),
                a.sr(),
                a.r()
            );
            a.assert_consistent();
        }
    }

    /// The Lemma-1 fallback really fires on [`LEMMA1_PATTERN`].
    #[test]
    fn lemma1_reaches_min_pr_on_fig9_pattern() {
        let f = parse_func(LEMMA1_PATTERN).unwrap();
        let info = ProgramInfo::compute(&f);
        let mut a = setup2(LEMMA1_PATTERN);
        let min_pr = info.pressure.min_pr();
        while a.pr() > min_pr {
            if a.reduce_private().is_none() {
                break;
            }
            a.assert_consistent();
        }
        assert_eq!(a.pr(), min_pr, "splitting reaches the Lemma 1 bound");
    }

    /// Atom enumeration: fused pairs stay together, order ascending.
    #[test]
    fn livemap_atoms_are_ordered_and_fused() {
        let f = parse_func(
            "func a {\nbb0:\n v0 = mov 1\n nop\n store scratch[v0+0], v0\n halt\n}",
        )
        .unwrap();
        let info = ProgramInfo::compute(&f);
        let lm = LiveMap::compute(&info);
        let v0 = VReg(0);
        let atoms = lm.atoms(v0, lm.live(v0));
        // Live halves: Out(p0)=1, In(p1)=2+Out(p1)=3 fused, In(p2)=4.
        let flat: Vec<Vec<usize>> = atoms.iter().map(|a| a.iter().collect()).collect();
        assert_eq!(flat, vec![vec![1], vec![2, 3], vec![4]]);
    }
}

/// The in-place, per-register merge check against the rule it
/// replaced: merge on a clone of the whole allocation and commit when
/// the whole-program move recount strictly falls.
#[cfg(test)]
mod merge_oracle_tests {
    use super::demotion_tests::{DEMOTION, LEMMA1_PATTERN};
    use super::tests::{setup, FIG3_T1, FIG9};
    use super::*;
    use std::cell::Cell;

    /// Every move of the partition, recounted flow edge by flow edge.
    fn recount(a: &ThreadAlloc) -> usize {
        let mut total = 0;
        for vi in 0..a.live.num_vregs() {
            let v = VReg(vi as u32);
            if a.num_fragments(v) <= 1 {
                continue;
            }
            for &(x, y) in a.live.flows(v) {
                let nx = a.node_at(v, x).unwrap();
                let ny = a.node_at(v, y).unwrap();
                if a.nodes[nx.index()].color != a.nodes[ny.index()].color {
                    total += 1;
                }
            }
        }
        total
    }

    /// The replaced merge rule, verbatim but for [`recount`].
    fn merge_by_recount(a: &mut ThreadAlloc, keep: NodeId, give: NodeId) -> bool {
        let color = a.nodes[keep.index()].color;
        let vreg = a.nodes[keep.index()].vreg;
        let gpoints = a.nodes[give.index()].points.clone();
        let union_boundary = a.nodes[keep.index()].boundary || a.nodes[give.index()].boundary;
        if union_boundary && !a.private.contains(&color) {
            return false;
        }
        if !a.color_free(&gpoints, color, vreg) {
            return false;
        }
        let before = recount(a);
        let mut trial = a.clone();
        trial.merge(keep, give);
        if recount(&trial) < before {
            *a = trial;
            true
        } else {
            false
        }
    }

    /// Every legal merge of two adjacent fragments of `raw` that the
    /// in-place rule rejects must leave `raw` exactly as it was. Returns
    /// how many of those undid a merge that made `keep` a boundary
    /// fragment.
    fn assert_rejected_merges_undo(raw: &ThreadAlloc, what: &str) -> usize {
        let mut flips = 0;
        for vi in 0..raw.live.num_vregs() {
            let v = VReg(vi as u32);
            for &(x, y) in raw.live.flows(v) {
                let (nx, ny) = (raw.node_at(v, x).unwrap(), raw.node_at(v, y).unwrap());
                if nx == ny {
                    continue;
                }
                for (keep, give) in [(nx, ny), (ny, nx)] {
                    let mut trial = raw.clone();
                    if !trial.can_merge_recolored(keep, give)
                        || trial.try_merge_recolored(keep, give)
                    {
                        continue;
                    }
                    assert_eq!(format!("{trial:?}"), format!("{raw:?}"), "{what}: undo");
                    flips += usize::from(
                        !raw.nodes[keep.index()].boundary && raw.nodes[give.index()].boundary,
                    );
                }
            }
        }
        flips
    }

    /// Runs both merge rules on clones of `raw` and demands identical
    /// states and exact move accounting. Returns how many legal merges
    /// the in-place rule tried and undid.
    fn assert_rules_agree(raw: &ThreadAlloc, what: &str) -> usize {
        assert_eq!(raw.moves(), recount(raw), "{what}: raw moves");
        let undone = Cell::new(0);
        let mut fast = raw.clone();
        fast.eliminate_moves_with(|a, keep, give| {
            let legal = a.can_merge_recolored(keep, give);
            let merged = a.try_merge_recolored(keep, give);
            undone.set(undone.get() + usize::from(legal && !merged));
            merged
        });
        let mut reference = raw.clone();
        reference.eliminate_moves_with(merge_by_recount);
        assert_eq!(format!("{fast:?}"), format!("{reference:?}"), "{what}");
        fast.assert_consistent();
        let per_vreg: usize = (0..fast.live.num_vregs())
            .map(|v| fast.vreg_moves(VReg(v as u32)))
            .sum();
        assert_eq!(fast.moves(), recount(&fast), "{what}: merged moves");
        assert_eq!(per_vreg, recount(&fast), "{what}: per-register sum");
        undone.get()
    }

    type Step = fn(&mut ThreadAlloc, u32) -> Option<()>;

    /// A loop of `n` values, each live across two consecutive switches,
    /// plus a counter live everywhere: for odd `n` the BIG is an odd
    /// cycle needing one more private color than any switch carries
    /// (the engine tests' `odd_cycle` is `ring(5, 0)`). Each switch is
    /// followed by `extra` chained internal temporaries.
    fn ring(n: usize, extra: usize) -> String {
        let mut src = format!(
            "func ring {{\nbb0:\n v{n} = mov 10\n v{} = mov 44\n jump bb1\nbb1:\n",
            n - 1
        );
        let mut next = n + 1;
        for i in 0..n {
            let prev = (i + n - 1) % n;
            src += &format!(" v{i} = mov {i}\n ctx\n");
            let mut acc = prev;
            for _ in 0..extra {
                src += &format!(" v{next} = add v{acc}, v{i}\n");
                acc = next;
                next += 1;
            }
            src += &format!(" store scratch[v{acc}+0], v{prev}\n");
        }
        src + &format!(" v{n} = sub v{n}, 1\n bne v{n}, 0, bb1, bb2\nbb2:\n halt\n}}")
    }

    /// Every raw reduction step, on every color, at every state of each
    /// fixture's descent to its bounds — and once more on each state a
    /// step (and the merge pass) leads to.
    #[test]
    fn per_register_merge_check_matches_the_whole_program_recount() {
        let private_steps: [(&str, Step); 3] = [
            ("demote", ThreadAlloc::demote_private),
            ("lemma1", ThreadAlloc::demote_private_lemma1),
            ("eliminate", ThreadAlloc::eliminate_color),
        ];
        let (mut checked, mut merged, mut undone, mut flips) = (0, 0, 0, 0);
        let rings = [ring(5, 0), ring(7, 0), ring(9, 2)];
        for (name, src) in [
            ("fig3", FIG3_T1),
            ("fig9", FIG9),
            ("lemma1", LEMMA1_PATTERN),
            ("demotion", DEMOTION),
            ("ring5", rings[0].as_str()),
            ("ring7", rings[1].as_str()),
            ("ring9x2", rings[2].as_str()),
        ] {
            let (info, mut state) = setup(src);
            let mut frontier = vec![state.clone()];
            loop {
                let stepped = (state.pr() > info.pressure.min_pr()
                    && state.reduce_private().is_some())
                    || (state.r() > info.pressure.min_r()
                        && state.sr() > 0
                        && state.reduce_shared().is_some());
                if !stepped {
                    break;
                }
                frontier.push(state.clone());
            }
            for _depth in 0..2 {
                let mut next = Vec::new();
                for state in &frontier {
                    let mut trials: Vec<(&str, Step, u32)> = Vec::new();
                    for &c in &state.private {
                        trials.extend(private_steps.iter().map(|&(step, f)| (step, f, c)));
                    }
                    for &c in &state.shared {
                        trials.push(("eliminate", ThreadAlloc::eliminate_color, c));
                    }
                    for (step, f, c) in trials {
                        let mut raw = state.clone();
                        if f(&mut raw, c).is_none() {
                            continue;
                        }
                        let what =
                            format!("{name}: {step} {c} at pr={} sr={}", state.pr(), state.sr());
                        undone += assert_rules_agree(&raw, &what);
                        flips += assert_rejected_merges_undo(&raw, &what);
                        let mut after = raw.clone();
                        after.eliminate_unnecessary_moves();
                        merged += usize::from(after.moves() < raw.moves());
                        checked += 1;
                        next.push(after);
                    }
                }
                frontier = next;
            }
        }
        assert!(checked >= 30, "only {checked} raw states checked");
        assert!(merged > 0, "no raw state had a move to merge away");
        assert!(undone > 0, "no merge trial was ever undone");
        assert!(flips > 0, "no undone merge had a boundary flag to restore");
    }
}
