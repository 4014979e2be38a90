//! Deterministic dimension-order (XY) routing.
//!
//! All organisations in the paper route minimally in dimension order: first
//! along X to the destination column, then along Y to the destination row.
//! XY routing is deadlock-free on a mesh without extra virtual channels,
//! which lets each message class own a single VC.

use crate::config::NocConfig;
use crate::types::{Coord, Direction, NodeId, Port};

/// A precomputed route: the sequence of output directions taken at each
/// router from source to destination (empty if `src == dest`).
///
/// # Examples
///
/// ```
/// use noc::config::NocConfig;
/// use noc::routing::Route;
/// use noc::types::NodeId;
///
/// let cfg = NocConfig::paper();
/// let route = Route::compute(&cfg, NodeId::new(0), NodeId::new(18));
/// assert_eq!(route.hops(), 4); // (0,0) -> (2,2): two east, two south
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Route {
    src: NodeId,
    dest: NodeId,
    dirs: Vec<Direction>,
}

impl Route {
    /// Computes the XY route from `src` to `dest`.
    pub fn compute(cfg: &NocConfig, src: NodeId, dest: NodeId) -> Route {
        let hops = cfg.coord(src).manhattan(cfg.coord(dest)) as usize;
        let mut route = Route {
            src,
            dest,
            dirs: Vec::with_capacity(hops),
        };
        route.compute_into(cfg, src, dest);
        route
    }

    /// Recomputes `self` as the XY route from `src` to `dest`, reusing
    /// its storage (a recycled route allocates nothing once its buffer
    /// has grown to the mesh diameter).
    pub fn compute_into(&mut self, cfg: &NocConfig, src: NodeId, dest: NodeId) {
        let s = cfg.coord(src);
        let d = cfg.coord(dest);
        self.src = src;
        self.dest = dest;
        let dirs = &mut self.dirs;
        dirs.clear();
        let xdir = if d.x > s.x {
            Some(Direction::East)
        } else if d.x < s.x {
            Some(Direction::West)
        } else {
            None
        };
        if let Some(dir) = xdir {
            for _ in 0..(d.x as i32 - s.x as i32).unsigned_abs() {
                dirs.push(dir);
            }
        }
        let ydir = if d.y > s.y {
            Some(Direction::South)
        } else if d.y < s.y {
            Some(Direction::North)
        } else {
            None
        };
        if let Some(dir) = ydir {
            for _ in 0..(d.y as i32 - s.y as i32).unsigned_abs() {
                dirs.push(dir);
            }
        }
    }

    /// Builds a route from an explicit hop sequence (used by
    /// fault-degraded routing, where routes come from BFS next-hop
    /// tables rather than XY).
    ///
    /// # Panics
    ///
    /// Panics if following `dirs` from `src` leaves the mesh or does not
    /// end at `dest`.
    pub fn from_dirs(cfg: &NocConfig, src: NodeId, dest: NodeId, dirs: Vec<Direction>) -> Route {
        let mut c = cfg.coord(src);
        for dir in &dirs {
            let (dx, dy) = dir.delta();
            let (nx, ny) = (c.x as i32 + dx, c.y as i32 + dy);
            assert!(cfg.in_bounds(nx, ny), "route leaves the mesh");
            c = Coord::new(nx as u8, ny as u8);
        }
        assert_eq!(cfg.node_at(c), dest, "route does not end at destination");
        Route { src, dest, dirs }
    }

    /// Source node of the route.
    pub fn src(&self) -> NodeId {
        self.src
    }

    /// Destination node of the route.
    pub fn dest(&self) -> NodeId {
        self.dest
    }

    /// Total hop count.
    pub fn hops(&self) -> usize {
        self.dirs.len()
    }

    /// Direction taken at the router `hop` hops from the source
    /// (`hop = 0` is the source router itself), or `None` past the end.
    pub fn dir_at(&self, hop: usize) -> Option<Direction> {
        self.dirs.get(hop).copied()
    }

    /// The sequence of directions from source to destination.
    pub fn dirs(&self) -> &[Direction] {
        &self.dirs
    }

    /// The node reached after `hop` hops from the source.
    ///
    /// # Panics
    ///
    /// Panics if `hop > self.hops()`.
    pub fn node_at(&self, cfg: &NocConfig, hop: usize) -> NodeId {
        assert!(hop <= self.dirs.len(), "hop index past route end");
        let mut c = cfg.coord(self.src);
        for dir in &self.dirs[..hop] {
            c = step(c, *dir);
        }
        cfg.node_at(c)
    }
}

/// Moves one hop from `c` in direction `dir` without bounds checking
/// (callers walk validated routes, which never leave the mesh).
pub fn step(c: Coord, dir: Direction) -> Coord {
    let (dx, dy) = dir.delta();
    Coord::new((c.x as i32 + dx) as u8, (c.y as i32 + dy) as u8)
}

/// Computes the output port a flit headed for `dest` takes at router
/// `here` under XY routing. Returns [`Port::Local`] when `here == dest`.
///
/// # Examples
///
/// ```
/// use noc::config::NocConfig;
/// use noc::routing::route_port;
/// use noc::types::{Direction, NodeId, Port};
///
/// let cfg = NocConfig::paper();
/// // Node 0 = (0,0); node 3 = (3,0): go east first.
/// assert_eq!(
///     route_port(&cfg, NodeId::new(0), NodeId::new(3)),
///     Port::Dir(Direction::East)
/// );
/// assert_eq!(route_port(&cfg, NodeId::new(5), NodeId::new(5)), Port::Local);
/// ```
pub fn route_port(cfg: &NocConfig, here: NodeId, dest: NodeId) -> Port {
    let h = cfg.coord(here);
    let d = cfg.coord(dest);
    if d.x > h.x {
        Port::Dir(Direction::East)
    } else if d.x < h.x {
        Port::Dir(Direction::West)
    } else if d.y > h.y {
        Port::Dir(Direction::South)
    } else if d.y < h.y {
        Port::Dir(Direction::North)
    } else {
        Port::Local
    }
}

/// The neighbour of `here` in direction `dir`, or `None` at the mesh edge.
pub fn neighbor(cfg: &NocConfig, here: NodeId, dir: Direction) -> Option<NodeId> {
    let c = cfg.coord(here);
    let (dx, dy) = dir.delta();
    let (nx, ny) = (c.x as i32 + dx, c.y as i32 + dy);
    if cfg.in_bounds(nx, ny) {
        Some(cfg.node_at(Coord::new(nx as u8, ny as u8)))
    } else {
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn route_is_minimal_and_x_first() {
        let cfg = NocConfig::paper();
        let r = Route::compute(&cfg, NodeId::new(0), NodeId::new(63));
        assert_eq!(r.hops(), 14);
        // X first: 7 easts then 7 souths.
        assert!(r.dirs()[..7].iter().all(|d| *d == Direction::East));
        assert!(r.dirs()[7..].iter().all(|d| *d == Direction::South));
    }

    #[test]
    fn route_ends_at_destination() {
        let cfg = NocConfig::paper();
        for (s, d) in [(0u16, 63u16), (63, 0), (7, 56), (12, 34), (5, 5)] {
            let r = Route::compute(&cfg, NodeId::new(s), NodeId::new(d));
            assert_eq!(r.node_at(&cfg, r.hops()), NodeId::new(d));
            assert_eq!(
                r.hops() as u32,
                cfg.coord(NodeId::new(s))
                    .manhattan(cfg.coord(NodeId::new(d)))
            );
        }
    }

    #[test]
    fn route_port_consistency_with_route() {
        let cfg = NocConfig::paper();
        let src = NodeId::new(3);
        let dest = NodeId::new(60);
        let r = Route::compute(&cfg, src, dest);
        let mut here = src;
        for hop in 0..r.hops() {
            let port = route_port(&cfg, here, dest);
            assert_eq!(port, Port::Dir(r.dir_at(hop).unwrap()));
            here = neighbor(&cfg, here, r.dir_at(hop).unwrap()).unwrap();
        }
        assert_eq!(route_port(&cfg, here, dest), Port::Local);
    }

    #[test]
    fn neighbor_edges() {
        let cfg = NocConfig::paper();
        assert_eq!(neighbor(&cfg, NodeId::new(0), Direction::North), None);
        assert_eq!(neighbor(&cfg, NodeId::new(0), Direction::West), None);
        assert_eq!(
            neighbor(&cfg, NodeId::new(0), Direction::East),
            Some(NodeId::new(1))
        );
        assert_eq!(
            neighbor(&cfg, NodeId::new(0), Direction::South),
            Some(NodeId::new(8))
        );
        assert_eq!(neighbor(&cfg, NodeId::new(63), Direction::South), None);
        assert_eq!(neighbor(&cfg, NodeId::new(63), Direction::East), None);
    }

    #[test]
    fn self_route_is_empty() {
        let cfg = NocConfig::paper();
        let r = Route::compute(&cfg, NodeId::new(10), NodeId::new(10));
        assert_eq!(r.hops(), 0);
        assert_eq!(r.node_at(&cfg, 0), NodeId::new(10));
    }

    #[test]
    fn xy_routes_have_at_most_one_turn() {
        let cfg = NocConfig::paper();
        for s in 0..64u16 {
            for d in 0..64u16 {
                let r = Route::compute(&cfg, NodeId::new(s), NodeId::new(d));
                let mut turns = 0;
                for w in r.dirs().windows(2) {
                    if w[0] != w[1] {
                        turns += 1;
                    }
                }
                assert!(turns <= 1, "route {s}->{d} has {turns} turns");
            }
        }
    }
}
