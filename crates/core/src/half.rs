//! Half-points: the *before* and *after* positions of a program point.
//!
//! Live ranges and their splits are represented over half-points so that
//! a split "at" a context switch is expressible: the value is in one
//! register up to `Out(p)` and in another from `In(q)` on, with the move
//! instruction materialised between `p` and `q` at rewrite time.

use regbal_analysis::Point;
use std::fmt;

/// The position just before (`In`) or just after (`Out`) a program
/// point, encoded as `2·p` / `2·p + 1`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct HalfPoint(pub u32);

impl HalfPoint {
    /// The position just before `p` executes.
    pub fn before(p: Point) -> HalfPoint {
        HalfPoint(p.0 * 2)
    }

    /// The position just after `p` executes.
    pub fn after(p: Point) -> HalfPoint {
        HalfPoint(p.0 * 2 + 1)
    }

    /// The program point this half-point belongs to.
    pub fn point(self) -> Point {
        Point(self.0 / 2)
    }

    /// Whether this is a *before* position.
    pub fn is_before(self) -> bool {
        self.0.is_multiple_of(2)
    }

    /// Dense index (for bit sets over `2 × num_points`).
    pub fn index(self) -> usize {
        self.0 as usize
    }

    /// Reconstructs a half-point from its dense index.
    pub fn from_index(i: usize) -> HalfPoint {
        HalfPoint(i as u32)
    }
}

impl fmt::Display for HalfPoint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_before() {
            write!(f, "in({})", self.point())
        } else {
            write!(f, "out({})", self.point())
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip() {
        let p = Point(7);
        assert_eq!(HalfPoint::before(p).point(), p);
        assert_eq!(HalfPoint::after(p).point(), p);
        assert!(HalfPoint::before(p).is_before());
        assert!(!HalfPoint::after(p).is_before());
        assert_eq!(HalfPoint::before(p).index(), 14);
        assert_eq!(HalfPoint::after(p).index(), 15);
        assert_eq!(HalfPoint::from_index(15), HalfPoint::after(p));
    }

    #[test]
    fn ordering_follows_execution() {
        let p = Point(3);
        let q = Point(4);
        assert!(HalfPoint::before(p) < HalfPoint::after(p));
        assert!(HalfPoint::after(p) < HalfPoint::before(q));
    }

    #[test]
    fn display() {
        assert_eq!(HalfPoint::before(Point(2)).to_string(), "in(p2)");
        assert_eq!(HalfPoint::after(Point(2)).to_string(), "out(p2)");
    }
}
