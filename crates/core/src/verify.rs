//! Static verification of allocation safety invariants.
//!
//! These checks encode the safety argument of the paper: with them
//! satisfied, no thread can ever observe another thread's write to a
//! register it relies on across a context switch.

use crate::alloc::{NodeId, ThreadAlloc};
use regbal_ir::VReg;
use std::fmt;

/// A violated allocation invariant.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum VerifyError {
    /// A register's live half-points are not exactly partitioned by its
    /// fragments.
    BadPartition(VReg),
    /// A fragment separates a fused `In/Out` pair (a move inside an
    /// instruction, which cannot be materialised).
    AtomSplit(VReg),
    /// A fragment's boundary flag disagrees with its points.
    BadBoundaryFlag(VReg),
    /// A boundary fragment carries a non-private color.
    SharedBoundary {
        /// The offending register.
        vreg: VReg,
        /// The non-private color it carries.
        color: u32,
    },
    /// A fragment's color is in neither palette.
    UnknownColor {
        /// The offending register.
        vreg: VReg,
        /// The unknown color.
        color: u32,
    },
    /// The private and shared palettes overlap.
    PaletteOverlap(u32),
    /// Two co-live fragments of different registers share a color.
    Interference {
        /// First register.
        a: VReg,
        /// Second register.
        b: VReg,
        /// The shared color.
        color: u32,
    },
    /// The combined multi-thread demand exceeds the register file.
    OverCommitted {
        /// `Σ PRᵢ + max SRᵢ`.
        needed: usize,
        /// Physical registers available.
        available: usize,
    },
}

impl fmt::Display for VerifyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            VerifyError::BadPartition(v) => write!(f, "{v}: fragments do not partition live range"),
            VerifyError::AtomSplit(v) => write!(f, "{v}: fragment splits an In/Out atom"),
            VerifyError::BadBoundaryFlag(v) => write!(f, "{v}: stale boundary flag"),
            VerifyError::SharedBoundary { vreg, color } =>

                write!(f, "{vreg}: boundary fragment holds shared color {color}"),
            VerifyError::UnknownColor { vreg, color } => {
                write!(f, "{vreg}: color {color} not in any palette")
            }
            VerifyError::PaletteOverlap(c) => write!(f, "color {c} is both private and shared"),
            VerifyError::Interference { a, b, color } => {
                write!(f, "co-live {a} and {b} share color {color}")
            }
            VerifyError::OverCommitted { needed, available } => {
                write!(f, "demand {needed} exceeds {available} registers")
            }
        }
    }
}

impl std::error::Error for VerifyError {}

/// Checks every invariant of a single thread's allocation state.
///
/// # Errors
///
/// Returns the first violated invariant.
pub fn check_thread(alloc: &ThreadAlloc) -> Result<(), VerifyError> {
    let live = alloc.live_map();
    // Palettes disjoint.
    for c in alloc.private_palette() {
        if alloc.shared_palette().contains(c) {
            return Err(VerifyError::PaletteOverlap(*c));
        }
    }

    // Bucket the fragments by register and by color, ids ascending. The
    // buckets are built here, not read from the allocation's own index,
    // so that the check stays independent of the state it checks.
    let mut by_vreg = vec![Vec::new(); live.num_vregs()];
    let mut by_color = Vec::new();
    for id in alloc.node_ids() {
        by_vreg[alloc.node_vreg(id).index()].push(id);
        by_color.push((alloc.node_color(id), id));
    }
    by_color.sort_unstable();

    // Per-register partition, atom closure, flags, palette membership.
    for (vi, frags) in by_vreg.iter().enumerate() {
        let v = VReg(vi as u32);
        let mut covered = regbal_ir::BitSet::new(live.num_halves());
        for &id in frags {
            let pts = alloc.node_points(id);
            if pts.intersects(&covered) {
                return Err(VerifyError::BadPartition(v));
            }
            covered.union_with(pts);
            if !live.is_atom_closed(v, pts) {
                return Err(VerifyError::AtomSplit(v));
            }
            let is_boundary = pts.intersects(live.boundary_halves(v));
            if is_boundary != alloc.node_is_boundary(id) {
                return Err(VerifyError::BadBoundaryFlag(v));
            }
            let color = alloc.node_color(id);
            let private = alloc.private_palette().contains(&color);
            let shared = alloc.shared_palette().contains(&color);
            if !private && !shared {
                return Err(VerifyError::UnknownColor { vreg: v, color });
            }
            if is_boundary && !private {
                return Err(VerifyError::SharedBoundary { vreg: v, color });
            }
        }
        if &covered != live.live(v) {
            return Err(VerifyError::BadPartition(v));
        }
    }

    // Same-color fragments of different registers never overlap. Only
    // fragments of one color can clash; the error names the lowest
    // clashing id pair, the first an all-pairs scan would meet.
    let mut first: Option<(NodeId, NodeId)> = None;
    for group in by_color.chunk_by(|x, y| x.0 == y.0) {
        'group: for (i, &(_, a)) in group.iter().enumerate() {
            if first.is_some_and(|(fa, _)| fa < a) {
                break;
            }
            for &(_, b) in &group[i + 1..] {
                if alloc.node_vreg(a) != alloc.node_vreg(b)
                    && alloc.node_points(a).intersects(alloc.node_points(b))
                {
                    first = Some(first.map_or((a, b), |f| f.min((a, b))));
                    break 'group;
                }
            }
        }
    }
    match first {
        Some((a, b)) => Err(VerifyError::Interference {
            a: alloc.node_vreg(a),
            b: alloc.node_vreg(b),
            color: alloc.node_color(a),
        }),
        None => Ok(()),
    }
}

/// Checks the cross-thread feasibility condition of paper §2:
/// `Σ PRᵢ + max SRᵢ ≤ Nreg`, plus every per-thread invariant.
///
/// # Errors
///
/// Returns the first violated invariant.
pub fn check_threads(threads: &[ThreadAlloc], nreg: usize) -> Result<(), VerifyError> {
    for t in threads {
        check_thread(t)?;
    }
    let needed: usize = threads.iter().map(ThreadAlloc::pr).sum::<usize>()
        + threads.iter().map(ThreadAlloc::sr).max().unwrap_or(0);
    if needed > nreg {
        return Err(VerifyError::OverCommitted {
            needed,
            available: nreg,
        });
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::livemap::LiveMap;
    use regbal_analysis::ProgramInfo;
    use regbal_ir::parse_func;
    use std::sync::Arc;

    fn alloc_for(src: &str, colors: &[Option<u32>], pr: usize, r: usize) -> ThreadAlloc {
        let f = parse_func(src).unwrap();
        let info = ProgramInfo::compute(&f);
        let live = Arc::new(LiveMap::compute(&info));
        ThreadAlloc::new(live, colors, pr, r)
    }

    #[test]
    fn clean_allocation_passes() {
        let a = alloc_for(
            "func f {\nbb0:\n v0 = mov 1\n ctx\n v1 = add v0, 1\n store scratch[v1+0], v0\n halt\n}",
            &[Some(0), Some(1)],
            1,
            2,
        );
        assert_eq!(check_thread(&a), Ok(()));
        assert_eq!(check_threads(&[a.clone(), a], 4), Ok(()));
    }

    #[test]
    fn overcommit_detected() {
        let a = alloc_for(
            "func f {\nbb0:\n v0 = mov 1\n ctx\n store scratch[v0+0], v0\n halt\n}",
            &[Some(0)],
            1,
            1,
        );
        let threads = vec![a.clone(), a.clone(), a];
        match check_threads(&threads, 2) {
            Err(VerifyError::OverCommitted { needed, available }) => {
                assert_eq!(needed, 3);
                assert_eq!(available, 2);
            }
            other => panic!("expected overcommit, got {other:?}"),
        }
    }

    #[test]
    fn error_messages_are_informative() {
        use regbal_ir::VReg;
        let cases: Vec<(VerifyError, &str)> = vec![
            (VerifyError::BadPartition(VReg(1)), "partition"),
            (VerifyError::AtomSplit(VReg(2)), "atom"),
            (VerifyError::BadBoundaryFlag(VReg(3)), "boundary"),
            (
                VerifyError::SharedBoundary {
                    vreg: VReg(4),
                    color: 7,
                },
                "shared color 7",
            ),
            (
                VerifyError::UnknownColor {
                    vreg: VReg(5),
                    color: 9,
                },
                "color 9",
            ),
            (VerifyError::PaletteOverlap(3), "both"),
            (
                VerifyError::Interference {
                    a: VReg(0),
                    b: VReg(1),
                    color: 2,
                },
                "share color 2",
            ),
            (
                VerifyError::OverCommitted {
                    needed: 9,
                    available: 8,
                },
                "exceeds",
            ),
        ];
        for (err, needle) in cases {
            assert!(err.to_string().contains(needle), "{err}");
        }
    }

    // ------------------------------------------------------------------
    // Detection tests: manufacture each corruption with the fault-
    // injection API and assert the verifier names it precisely.
    // ------------------------------------------------------------------

    /// The (sole) fragment of `v`.
    fn node_of(alloc: &ThreadAlloc, v: VReg) -> NodeId {
        alloc
            .node_ids()
            .find(|&id| alloc.node_vreg(id) == v)
            .expect("vreg has a fragment")
    }

    /// The clean two-color allocation of the `clean_allocation_passes`
    /// program: `v0` boundary (private color 0), `v1` internal (shared
    /// color 1).
    fn clean() -> ThreadAlloc {
        alloc_for(
            "func f {\nbb0:\n v0 = mov 1\n ctx\n v1 = add v0, 1\n store scratch[v1+0], v0\n halt\n}",
            &[Some(0), Some(1)],
            1,
            2,
        )
    }

    #[test]
    fn shared_boundary_detected() {
        let mut a = clean();
        let v0 = node_of(&a, VReg(0));
        assert!(a.node_is_boundary(v0), "v0 lives across the ctx");
        a.force_color(v0, 1); // 1 is the shared color
        match check_thread(&a) {
            Err(VerifyError::SharedBoundary { vreg, color }) => {
                assert_eq!((vreg, color), (VReg(0), 1));
            }
            other => panic!("expected SharedBoundary, got {other:?}"),
        }
    }

    #[test]
    fn unknown_color_detected() {
        let mut a = clean();
        a.force_color(node_of(&a, VReg(1)), 9);
        match check_thread(&a) {
            Err(VerifyError::UnknownColor { vreg, color }) => {
                assert_eq!((vreg, color), (VReg(1), 9));
            }
            other => panic!("expected UnknownColor, got {other:?}"),
        }
    }

    #[test]
    fn palette_overlap_detected() {
        let mut a = clean();
        a.force_palettes(vec![0], vec![0, 1]);
        assert_eq!(check_thread(&a), Err(VerifyError::PaletteOverlap(0)));
    }

    #[test]
    fn stale_boundary_flag_detected() {
        let mut a = clean();
        let v1 = node_of(&a, VReg(1));
        assert!(!a.node_is_boundary(v1), "v1 is internal");
        a.force_boundary(v1, true);
        assert_eq!(check_thread(&a), Err(VerifyError::BadBoundaryFlag(VReg(1))));
    }

    #[test]
    fn bad_partition_detected() {
        // No ctx, so the (false) boundary flag of the emptied fragment
        // stays consistent and the partition check is what fires.
        let mut a = alloc_for(
            "func f {\nbb0:\n v0 = mov 1\n store scratch[v0+0], v0\n halt\n}",
            &[Some(0)],
            1,
            1,
        );
        let v0 = node_of(&a, VReg(0));
        let empty = regbal_ir::BitSet::new(a.node_points(v0).capacity());
        a.force_points(v0, empty);
        assert_eq!(check_thread(&a), Err(VerifyError::BadPartition(VReg(0))));
    }

    #[test]
    fn atom_split_detected() {
        // v0 flows *through* `v1 = add v0, 1` (live out, not redefined),
        // fusing that instruction's In/Out halves into one atom;
        // dropping exactly one of those halves from the fragment tears
        // it. Dropping a singleton-atom half instead leaves a partition
        // hole. Sweep every half and require both diagnoses to appear.
        let src = "func f {\nbb0:\n v0 = mov 1\n v1 = add v0, 1\n store scratch[v1+0], v0\n halt\n}";
        let colors = [Some(0), Some(1)];
        let mut saw_atom_split = false;
        let mut saw_bad_partition = false;
        let probe = alloc_for(src, &colors, 2, 2);
        let v0 = node_of(&probe, VReg(0));
        let halves: Vec<usize> = probe.node_points(v0).iter().collect();
        for h in halves {
            let mut a = alloc_for(src, &colors, 2, 2);
            let id = node_of(&a, VReg(0));
            let mut pts = a.node_points(id).clone();
            pts.remove(h);
            a.force_points(id, pts);
            match check_thread(&a) {
                Err(VerifyError::AtomSplit(v)) => {
                    assert_eq!(v, VReg(0));
                    saw_atom_split = true;
                }
                Err(VerifyError::BadPartition(v)) => {
                    assert_eq!(v, VReg(0));
                    saw_bad_partition = true;
                }
                other => panic!("corrupt fragment must be diagnosed, got {other:?}"),
            }
        }
        assert!(saw_atom_split, "some half tears the In/Out atom");
        assert!(saw_bad_partition, "some half leaves a partition hole");
    }

    /// The all-pairs interference scan the color-grouped one replaced.
    fn first_clash_all_pairs(alloc: &ThreadAlloc) -> Result<(), VerifyError> {
        let ids: Vec<_> = alloc.node_ids().collect();
        for (i, &a) in ids.iter().enumerate() {
            for &b in &ids[i + 1..] {
                if alloc.node_vreg(a) == alloc.node_vreg(b) {
                    continue;
                }
                if alloc.node_color(a) == alloc.node_color(b)
                    && alloc.node_points(a).intersects(alloc.node_points(b))
                {
                    return Err(VerifyError::Interference {
                        a: alloc.node_vreg(a),
                        b: alloc.node_vreg(b),
                        color: alloc.node_color(a),
                    });
                }
            }
        }
        Ok(())
    }

    /// How many fragment pairs clash.
    fn clashes(alloc: &ThreadAlloc) -> usize {
        let ids: Vec<_> = alloc.node_ids().collect();
        let mut n = 0;
        for (i, &a) in ids.iter().enumerate() {
            for &b in &ids[i + 1..] {
                n += usize::from(
                    alloc.node_vreg(a) != alloc.node_vreg(b)
                        && alloc.node_color(a) == alloc.node_color(b)
                        && alloc.node_points(a).intersects(alloc.node_points(b)),
                );
            }
        }
        n
    }

    /// With two or more clashes injected by `force_color` (each within
    /// the palette the fragment may use, so only interference is
    /// wrong), the color-grouped check names the same first clash as
    /// the all-pairs scan — on unsplit kernels and on split ones.
    #[test]
    fn grouped_interference_check_names_the_all_pairs_first_clash() {
        use crate::bounds::estimate_bounds;
        use regbal_workloads::Kernel;
        let (mut checked, mut split) = (0, 0);
        let mut seed = 0x9E37_79B9_7F4A_7C15u64;
        let mut next = |n: usize| {
            seed = seed
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            (seed >> 33) as usize % n
        };
        for k in [Kernel::Frag, Kernel::Drr, Kernel::Url, Kernel::WrapsTx] {
            let info = ProgramInfo::compute(&k.build(0, 4));
            let est = estimate_bounds(&info);
            let live = Arc::new(LiveMap::compute(&info));
            let mut base =
                ThreadAlloc::new(live, &est.coloring, est.bounds.max_pr, est.bounds.max_r);
            for _split in 0..2 {
                let ids: Vec<NodeId> = base.node_ids().collect();
                split += usize::from(ids.len() > info.num_vregs());
                for _trial in 0..8 {
                    let mut a = base.clone();
                    while clashes(&a) < 2 {
                        let id = ids[next(ids.len())];
                        let mut palette = a.private_palette().to_vec();
                        if !a.node_is_boundary(id) {
                            palette.extend_from_slice(a.shared_palette());
                        }
                        a.force_color(id, palette[next(palette.len())]);
                    }
                    let want = first_clash_all_pairs(&a);
                    assert!(want.is_err(), "{}: {want:?}", k.name());
                    assert_eq!(check_thread(&a), want, "{}", k.name());
                    checked += 1;
                }
                // Split the fragments for the second round.
                if base.reduce_private().is_none() {
                    base.reduce_shared();
                }
            }
        }
        assert_eq!(checked, 64);
        assert!(split > 0, "no kernel was split");
    }

    #[test]
    fn interference_detected() {
        let mut a = alloc_for(
            "func f {\nbb0:\n v0 = mov 1\n v1 = mov 2\n v2 = add v0, v1\n store scratch[v2+0], v2\n halt\n}",
            &[Some(0), Some(1), Some(2)],
            3,
            3,
        );
        a.force_color(node_of(&a, VReg(1)), 0);
        match check_thread(&a) {
            Err(VerifyError::Interference { a, b, color }) => {
                assert_eq!(color, 0);
                assert_eq!(
                    {
                        let mut pair = [a.0, b.0];
                        pair.sort_unstable();
                        pair
                    },
                    [0, 1]
                );
            }
            other => panic!("expected Interference, got {other:?}"),
        }
    }
}
