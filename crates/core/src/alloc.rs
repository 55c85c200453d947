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
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
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
    /// Per color: the live fragments carrying it, in ascending id order.
    by_color: Vec<Vec<NodeId>>,
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
        let mut by_color = vec![Vec::new(); max_r];
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
            by_color[color as usize].push(id);
        }
        let alloc = ThreadAlloc {
            live,
            nodes,
            by_vreg,
            by_color,
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
        self.recolor(id, color);
    }

    // ------------------------------------------------------------------
    // Conflict queries
    // ------------------------------------------------------------------

    /// The live fragments colored `c`, in ascending id order.
    fn colored(&self, c: u32) -> &[NodeId] {
        self.by_color.get(c as usize).map_or(&[], Vec::as_slice)
    }

    /// Fragments of *other* registers with color `c` overlapping
    /// `points`, in ascending id order.
    fn conflicts<'a>(
        &'a self,
        points: &'a BitSet,
        c: u32,
        vreg: VReg,
    ) -> impl Iterator<Item = NodeId> + 'a {
        self.colored(c).iter().copied().filter(move |&id| {
            let n = &self.nodes[id.index()];
            n.vreg != vreg && n.points.intersects(points)
        })
    }

    /// [`conflicts`](Self::conflicts), collected.
    fn conflicting_nodes(&self, points: &BitSet, c: u32, vreg: VReg) -> Vec<NodeId> {
        self.conflicts(points, c, vreg).collect()
    }

    /// Whether color `c` is free over `points` for register `vreg`.
    fn color_free(&self, points: &BitSet, c: u32, vreg: VReg) -> bool {
        self.conflicts(points, c, vreg).next().is_none()
    }

    /// The union of the overlap between `points` and fragments of other
    /// registers colored `c`.
    fn conflict_mask(&self, points: &BitSet, c: u32, vreg: VReg) -> BitSet {
        let mut mask = BitSet::new(self.live.num_halves());
        for id in self.conflicts(points, c, vreg) {
            let mut overlap = self.nodes[id.index()].points.clone();
            overlap.intersect_with(points);
            mask.union_with(&overlap);
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

    /// Recolors live fragment `id`, keeping the per-color index sorted
    /// (and growing it for a color beyond the palette).
    fn recolor(&mut self, id: NodeId, c: u32) {
        let old = std::mem::replace(&mut self.nodes[id.index()].color, c);
        if old == c {
            return;
        }
        self.unindex(id, old);
        let c = c as usize;
        if c >= self.by_color.len() {
            self.by_color.resize_with(c + 1, Vec::new);
        }
        let list = &mut self.by_color[c];
        if let Err(at) = list.binary_search(&id) {
            list.insert(at, id);
        }
    }

    /// Drops `id` from color `c`'s index entry.
    fn unindex(&mut self, id: NodeId, c: u32) {
        let list = &mut self.by_color[c as usize];
        let at = list
            .binary_search(&id)
            .expect("live fragments are indexed by color");
        list.remove(at);
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
        // The newest id is the largest: pushing keeps the list sorted.
        self.by_color[color as usize].push(new_id);
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
        self.unindex(b, self.nodes[b.index()].color);
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
            .colored(banned)
            .iter()
            .copied()
            .filter(|&id| self.nodes[id.index()].boundary)
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
        if !self.colored(banned).is_empty() {
            self.shared.push(banned);
        }
        Some(())
    }

    /// Vacates every fragment using `banned` and removes the color from
    /// its palette entirely (paper `Reduce_SR`). Returns `None` if
    /// stuck (callers work on clones).
    fn eliminate_color(&mut self, banned: u32) -> Option<()> {
        let mut queue: Vec<NodeId> = self.colored(banned).to_vec();
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
        let before = self.moves();
        let (next, delta) = self
            .cheapest_trial(before, &candidates, ThreadAlloc::demote_private)
            // Per-node vacating can wedge when several boundary nodes
            // must move *together*; fall back to the paper's Lemma 1
            // construction — explode every boundary node at its CSBs
            // and recolor the fragments from scratch — and let the
            // merge pass recover most of the moves.
            .or_else(|| self.cheapest_lemma1_trial(before, &candidates))?;
        *self = next;
        Some(delta)
    }

    /// The Lemma 1 trials of [`reduce_private`](Self::reduce_private).
    /// The explosion does not depend on the banned color, so it runs
    /// once, and each candidate recolors a clone of the exploded state.
    fn cheapest_lemma1_trial(
        &self,
        before: usize,
        candidates: &[u32],
    ) -> Option<(ThreadAlloc, isize)> {
        let mut exploded = self.clone();
        let fragments = exploded.explode_boundary_nodes();
        exploded.cheapest_trial(before, candidates, |alloc, c| {
            alloc.recolor_exploded(&fragments, c)
        })
    }

    /// Splits **every** boundary node into atoms and returns the pieces
    /// in program order, so that chains of adjacent atoms tend to
    /// receive the same color.
    fn explode_boundary_nodes(&mut self) -> Vec<NodeId> {
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
        fragments.sort_by_key(|&f| self.nodes[f.index()].points.iter().next());
        fragments
    }

    /// Aggressive Reduce-PR over the pieces of
    /// [`explode_boundary_nodes`](Self::explode_boundary_nodes):
    /// first-fit recolor all boundary fragments within the private
    /// palette minus `banned`, evicting internal blockers to shared
    /// colors when needed.
    fn recolor_exploded(&mut self, fragments: &[NodeId], banned: u32) -> Option<()> {
        for &f in fragments {
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
        if !self.colored(banned).is_empty() {
            self.shared.push(banned);
        }
        Some(())
    }

    /// Tries to reduce `SR` by one (paper Fig. 10, `Reduce_SR`): the
    /// cheapest shared color is eliminated outright (`R` drops).
    pub fn reduce_shared(&mut self) -> Option<isize> {
        let candidates = self.shared.clone();
        let (next, delta) =
            self.cheapest_trial(self.moves(), &candidates, ThreadAlloc::eliminate_color)?;
        *self = next;
        Some(delta)
    }

    /// Runs `step` for every candidate color on a clone of `self`, lets
    /// the merge pass recover moves, and returns the first trial with
    /// the fewest moves, with its move delta against `before`.
    fn cheapest_trial(
        &self,
        before: usize,
        candidates: &[u32],
        step: impl Fn(&mut ThreadAlloc, u32) -> Option<()>,
    ) -> Option<(ThreadAlloc, isize)> {
        let mut best: Option<(ThreadAlloc, isize)> = None;
        for &c in candidates {
            let mut trial = self.clone();
            if step(&mut trial, c).is_none() {
                continue;
            }
            let delta = trial.eliminate_unnecessary_moves() as isize - before as isize;
            if best.as_ref().is_none_or(|&(_, d)| delta < d) {
                best = Some((trial, delta));
            }
        }
        best
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
    ///
    /// Passes scan the registers in order, each making at most the first
    /// merge its scan finds, until no scan merges. A pass skips a
    /// register whose scan would find nothing again: one that did not
    /// merge in its last scan and whose live points no other fragment
    /// has changed color over since (a same-color merge changes no
    /// point's color). Its fragments are then unchanged, and so is every
    /// `color_free` answer its scan depends on.
    ///
    /// Returns the merged allocation's [`moves`](Self::moves), counted
    /// over the flow-edge end table the pass already holds.
    pub fn eliminate_unnecessary_moves(&mut self) -> usize {
        let nv = self.live.num_vregs();
        let mut ends: Vec<Vec<(NodeId, NodeId)>> =
            (0..nv).map(|vi| self.flow_ends(VReg(vi as u32))).collect();
        let mut dirty: Vec<bool> = ends.iter().map(|e| !e.is_empty()).collect();
        loop {
            let mut changed = false;
            for vi in 0..nv {
                if !std::mem::take(&mut dirty[vi]) {
                    continue;
                }
                let Some((give, recolored)) = self.merge_first(&mut ends[vi]) else {
                    continue;
                };
                changed = true;
                dirty[vi] = true;
                if recolored {
                    let moved = &self.nodes[give.index()].points;
                    for (wi, mark) in dirty.iter_mut().enumerate() {
                        if wi != vi
                            && !ends[wi].is_empty()
                            && self.live.live(VReg(wi as u32)).intersects(moved)
                        {
                            *mark = true;
                        }
                    }
                }
            }
            if !changed {
                let color = |id: NodeId| self.nodes[id.index()].color;
                return ends
                    .iter()
                    .flatten()
                    .filter(|&&(a, b)| color(a) != color(b))
                    .count();
            }
        }
    }

    /// The fragments at the two ends of each of `v`'s flow edges, in
    /// flow order; empty while `v` is unsplit.
    fn flow_ends(&self, v: VReg) -> Vec<(NodeId, NodeId)> {
        if self.num_fragments(v) <= 1 {
            return Vec::new();
        }
        let at = |h| self.node_at(v, h).expect("flow endpoint is live");
        self.live
            .flows(v)
            .iter()
            .map(|&(a, b)| (at(a), at(b)))
            .collect()
    }

    /// One register's scan of the merge pass over its flow-edge `ends`:
    /// makes the first merge it finds and returns the merged-away
    /// fragment and whether that fragment changed color.
    fn merge_first(&mut self, ends: &mut [(NodeId, NodeId)]) -> Option<(NodeId, bool)> {
        for i in 0..ends.len() {
            let (na, nb) = ends[i];
            if na == nb {
                continue;
            }
            if self.nodes[na.index()].color == self.nodes[nb.index()].color {
                self.merge_ends(ends, na, nb);
                return Some((nb, false));
            }
            // Try adopting either side's color for the union.
            for (keep, give) in [(na, nb), (nb, na)] {
                if self.try_merge_recolored(ends, keep, give) {
                    return Some((give, true));
                }
            }
        }
        None
    }

    /// Merges `give` into `keep` under `keep`'s color if that is legal
    /// and strictly lowers the register's moves, counted over its
    /// flow-edge `ends` before and with `give` recolored. A merge touches
    /// only that register's fragments, so every other register's term of
    /// [`moves`](Self::moves) is unchanged. A rejected merge changes
    /// nothing.
    fn try_merge_recolored(
        &mut self,
        ends: &mut [(NodeId, NodeId)],
        keep: NodeId,
        give: NodeId,
    ) -> bool {
        if !self.can_merge_recolored(keep, give) {
            return false;
        }
        let color = |id: NodeId| self.nodes[id.index()].color;
        let merged = |id: NodeId| color(if id == give { keep } else { id });
        let before = ends.iter().filter(|&&(a, b)| color(a) != color(b)).count();
        let after = ends
            .iter()
            .filter(|&&(a, b)| merged(a) != merged(b))
            .count();
        if after >= before {
            return false;
        }
        self.merge_ends(ends, keep, give);
        true
    }

    /// Merges `give` into `keep` and repoints `give`'s flow-edge ends at
    /// `keep`.
    fn merge_ends(&mut self, ends: &mut [(NodeId, NodeId)], keep: NodeId, give: NodeId) {
        self.merge(keep, give);
        for end in ends.iter_mut().flat_map(|(a, b)| [a, b]) {
            if *end == give {
                *end = keep;
            }
        }
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

    /// Asserts every structural invariant, and that the per-color index
    /// matches a recount; see [`crate::verify`] for the fallible variant.
    pub fn assert_consistent(&self) {
        crate::verify::check_thread(self).expect("thread allocation invariant violated");
        let mut recount = vec![Vec::new(); self.by_color.len()];
        for id in self.node_ids() {
            recount[self.nodes[id.index()].color as usize].push(id);
        }
        assert_eq!(
            recount, self.by_color,
            "per-color fragment index out of date"
        );
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

/// The verifier's fault injection beyond [`ThreadAlloc::force_color`]:
/// each breaks one invariant that [`crate::verify`] must catch.
#[cfg(test)]
impl ThreadAlloc {
    /// Forcibly flips fragment `id`'s boundary flag.
    pub(crate) fn force_boundary(&mut self, id: NodeId, boundary: bool) {
        self.nodes[id.index()].boundary = boundary;
    }

    /// Forcibly replaces both palettes.
    pub(crate) fn force_palettes(&mut self, private: Vec<u32>, shared: Vec<u32>) {
        self.private = private;
        self.shared = shared;
    }

    /// Forcibly replaces fragment `id`'s program points.
    pub(crate) fn force_points(&mut self, id: NodeId, points: BitSet) {
        self.nodes[id.index()].points = points;
    }
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
            assert!(!site.from.is_before());
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

/// The incremental merge pass, the shared Lemma 1 explosion and the
/// per-color index against the code they replaced: a merge pass that
/// rescans every split register with `node_at` lookups and decides each
/// merge on a clone by a whole-program move recount, an explosion per
/// candidate color, and scans of the whole fragment list.
#[cfg(test)]
mod merge_oracle_tests {
    use super::demotion_tests::{DEMOTION, LEMMA1_PATTERN};
    use super::tests::{FIG3_T1, FIG9};
    use super::*;
    use crate::bounds::estimate_bounds;
    use regbal_analysis::ProgramInfo;
    use regbal_ir::{parse_func, Func};
    use regbal_workloads::stress::{stress_bundle, StressConfig};
    use regbal_workloads::Kernel;

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

    /// The replaced merge rule: merge on a clone of the whole allocation
    /// and commit when the whole-program recount strictly falls.
    fn merge_by_recount(a: &mut ThreadAlloc, keep: NodeId, give: NodeId) -> bool {
        if !a.can_merge_recolored(keep, give) {
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

    /// The replaced merge pass: each pass rescans every split register,
    /// finds both ends of each flow edge with `node_at`, and makes at
    /// most one merge per register, until a pass changes nothing.
    fn eliminate_by_rescan(a: &mut ThreadAlloc) {
        loop {
            let mut changed = false;
            'scan: for vi in 0..a.live.num_vregs() {
                let v = VReg(vi as u32);
                if a.num_fragments(v) <= 1 {
                    continue;
                }
                let flows = a.live.flows(v).to_vec();
                for (x, y) in flows {
                    let nx = a.node_at(v, x).unwrap();
                    let ny = a.node_at(v, y).unwrap();
                    if nx == ny {
                        continue;
                    }
                    if a.nodes[nx.index()].color == a.nodes[ny.index()].color {
                        a.merge(nx, ny);
                        changed = true;
                        continue 'scan;
                    }
                    for (keep, give) in [(nx, ny), (ny, nx)] {
                        if merge_by_recount(a, keep, give) {
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

    /// Lemma 1 with an explosion of its own for each candidate color,
    /// as `reduce_private` ran it before the explosion was shared.
    fn lemma1(a: &mut ThreadAlloc, banned: u32) -> Option<()> {
        let fragments = a.explode_boundary_nodes();
        a.recolor_exploded(&fragments, banned)
    }

    /// Every legal recolor merge of two adjacent fragments of `raw`
    /// decides as the whole-program recount does, and one it rejects
    /// leaves the state and the end table exactly as they were. Returns
    /// how many it rejected.
    fn assert_merge_decisions_agree(raw: &ThreadAlloc, what: &str) -> usize {
        let raw_debug = format!("{raw:?}");
        let mut rejected = 0;
        for vi in 0..raw.live.num_vregs() {
            let v = VReg(vi as u32);
            let ends = raw.flow_ends(v);
            for &(nx, ny) in &ends {
                if raw.nodes[nx.index()].color == raw.nodes[ny.index()].color {
                    continue;
                }
                for (keep, give) in [(nx, ny), (ny, nx)] {
                    if !raw.can_merge_recolored(keep, give) {
                        continue;
                    }
                    let (mut trial, mut trial_ends) = (raw.clone(), ends.clone());
                    let mut reference = raw.clone();
                    let merged = trial.try_merge_recolored(&mut trial_ends, keep, give);
                    assert_eq!(
                        merged,
                        merge_by_recount(&mut reference, keep, give),
                        "{what}"
                    );
                    if merged {
                        assert_eq!(format!("{trial:?}"), format!("{reference:?}"), "{what}");
                        assert_eq!(trial_ends, trial.flow_ends(v), "{what}: repointed ends");
                    } else {
                        assert_eq!(format!("{trial:?}"), raw_debug, "{what}: rejected merge");
                        assert_eq!(trial_ends, ends, "{what}: rejected merge's ends");
                        rejected += 1;
                    }
                }
            }
        }
        rejected
    }

    /// Both merge passes on clones of `raw` reach identical states with
    /// exact move accounting; returns the merged state.
    fn assert_passes_agree(raw: &ThreadAlloc, what: &str) -> ThreadAlloc {
        assert_eq!(raw.moves(), recount(raw), "{what}: raw moves");
        let mut fast = raw.clone();
        let counted = fast.eliminate_unnecessary_moves();
        let mut reference = raw.clone();
        eliminate_by_rescan(&mut reference);
        assert_eq!(format!("{fast:?}"), format!("{reference:?}"), "{what}");
        fast.assert_consistent();
        assert_eq!(fast.moves(), recount(&fast), "{what}: merged moves");
        assert_eq!(counted, fast.moves(), "{what}: the pass's own count");
        fast
    }

    type Step = fn(&mut ThreadAlloc, u32) -> Option<()>;

    /// What a run of the harness covered.
    #[derive(Debug, Default)]
    struct Tally {
        states: usize,
        raw: usize,
        lemma1: usize,
        merged: usize,
        rejected: usize,
    }

    /// Applies demote, Lemma 1 and eliminate for every candidate color
    /// of `state`, checks both merge passes and every merge decision on
    /// each raw result, and checks the shared explosion against the
    /// per-candidate one. Returns the merged results.
    fn check_state(state: &ThreadAlloc, name: &str, tally: &mut Tally) -> Vec<ThreadAlloc> {
        let at = format!("{name} at pr={} sr={}", state.pr(), state.sr());
        state.assert_consistent();
        tally.states += 1;
        let mut trials: Vec<(&str, Step, u32)> = Vec::new();
        for &c in &state.private {
            trials.push(("demote", ThreadAlloc::demote_private, c));
            trials.push(("lemma1", lemma1, c));
            trials.push(("eliminate", ThreadAlloc::eliminate_color, c));
        }
        for &c in &state.shared {
            trials.push(("eliminate", ThreadAlloc::eliminate_color, c));
        }
        let mut next = Vec::new();
        for (step, f, c) in trials {
            let mut raw = state.clone();
            if f(&mut raw, c).is_none() {
                continue;
            }
            let what = format!("{at}: {step} {c}");
            raw.assert_consistent();
            tally.rejected += assert_merge_decisions_agree(&raw, &what);
            let after = assert_passes_agree(&raw, &what);
            tally.merged += usize::from(after.moves() < raw.moves());
            tally.lemma1 += usize::from(step == "lemma1");
            tally.raw += 1;
            next.push(after);
        }
        let before = state.moves();
        let shared = state.cheapest_lemma1_trial(before, &state.private);
        let per_candidate = state.cheapest_trial(before, &state.private, lemma1);
        assert_eq!(
            format!("{shared:?}"),
            format!("{per_candidate:?}"),
            "{at}: Lemma 1"
        );
        next
    }

    /// The initial state of `f` and every state of its descent to its
    /// bounds (Reduce-PR down to `MinPR`, then Reduce-SR down to `MinR`).
    fn descent(f: &Func) -> Vec<ThreadAlloc> {
        let info = ProgramInfo::compute(f);
        let est = estimate_bounds(&info);
        let live = Arc::new(LiveMap::compute(&info));
        let mut state = ThreadAlloc::new(live, &est.coloring, est.bounds.max_pr, est.bounds.max_r);
        let mut states = vec![state.clone()];
        loop {
            let stepped = (state.pr() > info.pressure.min_pr() && state.reduce_private().is_some())
                || (state.r() > info.pressure.min_r()
                    && state.sr() > 0
                    && state.reduce_shared().is_some());
            if !stepped {
                break;
            }
            states.push(state.clone());
        }
        states
    }

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

    /// Every raw step, on every color, at every state of each fixture's
    /// descent to its bounds — and once more on each state a step (and
    /// the merge pass) leads to.
    fn check_fixtures(tally: &mut Tally) {
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
            let mut frontier = descent(&parse_func(src).unwrap());
            for _depth in 0..2 {
                frontier = frontier
                    .iter()
                    .flat_map(|s| check_state(s, name, tally))
                    .collect();
            }
        }
    }

    /// Every raw step, on every color, at every state of each program's
    /// descent to its bounds.
    fn check_descents(programs: &[(String, Func)], tally: &mut Tally) {
        for (name, f) in programs {
            for state in descent(f) {
                check_state(&state, name, tally);
            }
        }
    }

    /// The stress bundles of `seeds` at two threads, every class.
    fn stress_programs(seeds: std::ops::Range<u64>) -> Vec<(String, Func)> {
        let mut programs = Vec::new();
        for seed in seeds {
            for (class, config) in [
                ("csb_dense", StressConfig::csb_dense()),
                ("clique", StressConfig::clique()),
                ("mixed", StressConfig::mixed()),
            ] {
                for (t, f) in stress_bundle(seed, 2, config).into_iter().enumerate() {
                    programs.push((format!("{class} seed={seed} thread={t}"), f));
                }
            }
        }
        programs
    }

    fn kernels(which: &[Kernel]) -> Vec<(String, Func)> {
        which
            .iter()
            .map(|k| (k.name().to_string(), k.build(0, 4)))
            .collect()
    }

    /// The fixtures, one stress seed and the two kernels whose descents
    /// check the most Lemma 1 explosions per second of a debug build.
    #[test]
    fn per_register_merge_check_matches_the_whole_program_recount() {
        let mut tally = Tally::default();
        check_fixtures(&mut tally);
        let mut programs = stress_programs(0..1);
        programs.extend(kernels(&[Kernel::Url, Kernel::L2l3fwdRx]));
        check_descents(&programs, &mut tally);
        assert!(tally.raw >= 80, "{tally:?}");
        assert!(tally.lemma1 >= 30, "too few Lemma 1 explosions: {tally:?}");
        assert!(
            tally.merged > 0,
            "no raw state had a move to merge away: {tally:?}"
        );
        assert!(
            tally.rejected > 0,
            "no legal merge was ever rejected: {tally:?}"
        );
    }

    /// The same check over all 11 kernels and eight stress seeds (run in
    /// release with `cargo test --release -p regbal-core -- --ignored`).
    #[test]
    #[ignore]
    fn per_register_merge_check_matches_the_whole_program_recount_on_every_kernel() {
        let mut tally = Tally::default();
        check_fixtures(&mut tally);
        let mut programs = stress_programs(0..8);
        programs.extend(kernels(&Kernel::ALL));
        check_descents(&programs, &mut tally);
        assert!(tally.lemma1 >= 80, "too few Lemma 1 explosions: {tally:?}");
    }
}
