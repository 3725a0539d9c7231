//! # fabric — routed inter-node topologies
//!
//! Pure-data description of the fabric connecting N nodes: a set of
//! **directed links** (each becomes one fluid resource in `netsim`, so every
//! hop of a multi-link path shares bandwidth through the max-min allocator)
//! plus a **deterministic routing table** precomputed at build time. Four
//! presets:
//!
//! * [`FabricKind::Direct`] — the paper's original two-node point-to-point
//!   wire. Its link names and order (`wire.0to1`, `wire.1to0`) are frozen:
//!   a direct fabric of two nodes reproduces the pre-fabric resource layout
//!   byte for byte, which is what keeps the fig1–fig10 golden traces valid.
//! * [`FabricKind::Switch`] — a single non-blocking crossbar: every node has
//!   one up-link and one down-link; any permutation of node pairs is
//!   contention-free. Routes are always 2 hops.
//! * [`FabricKind::Torus`] — a 2-D torus with dimension-order (X then Y)
//!   minimal routing; wrap-around direction ties break toward +.
//! * [`FabricKind::Dragonfly`] — groups of routers (one node per router),
//!   complete graph inside each group, one directed global link per ordered
//!   group pair, attached round-robin across the group's routers. Minimal
//!   routes are at most `intra → global → intra` (3 hops).
//!
//! Everything here is deterministic: same spec → same links, same routes —
//! no RNG anywhere, so `(src, dst)` alone pins a route.

use std::fmt;

/// Index of a directed link inside a [`Fabric`].
pub type LinkIdx = u32;

/// One directed link of the fabric.
#[derive(Clone, Debug)]
pub struct LinkSpec {
    /// Resource name (stable across builds; used by golden traces).
    pub name: String,
    /// Per-link bandwidth scale, applied on top of the machine's `link_bw`.
    pub bw_scale: f64,
    /// Vertex the link leaves. Vertices `< nodes` are nodes; `>= nodes`
    /// are internal fabric vertices (e.g. the crossbar of a switch).
    pub src: usize,
    /// Vertex the link enters.
    pub dst: usize,
}

/// The fabric family.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FabricKind {
    /// Two nodes, one wire per direction (the paper's setup).
    Direct,
    /// Single crossbar switch: up/down link per node, 2-hop routes.
    Switch,
    /// 2-D torus `x × y`, dimension-order minimal routing.
    Torus {
        /// Ring size along X.
        x: usize,
        /// Ring size along Y.
        y: usize,
    },
    /// Dragonfly: `groups` groups of `routers` routers (one node each).
    Dragonfly {
        /// Number of groups.
        groups: usize,
        /// Routers (= nodes) per group.
        routers: usize,
    },
}

/// Declarative fabric description; [`FabricSpec::build`] precomputes links
/// and routes.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct FabricSpec {
    /// The fabric family and its shape.
    pub kind: FabricKind,
}

/// The three routed presets used by the collective experiments and oracles
/// (the degenerate [`FabricKind::Direct`] wire is not in this list — it only
/// exists for the two-rank paper scenarios).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FabricPreset {
    /// Non-blocking crossbar.
    Switch,
    /// 2-D torus, near-square shape.
    Torus,
    /// Dragonfly with a near-square group split.
    Dragonfly,
}

impl FabricPreset {
    /// All routed presets, in registry order.
    pub const ALL: [FabricPreset; 3] = [
        FabricPreset::Switch,
        FabricPreset::Torus,
        FabricPreset::Dragonfly,
    ];

    /// Stable preset name.
    pub fn name(&self) -> &'static str {
        match self {
            FabricPreset::Switch => "switch",
            FabricPreset::Torus => "torus",
            FabricPreset::Dragonfly => "dragonfly",
        }
    }

    /// Concrete spec for `nodes` nodes. Torus picks the most-square `x × y`
    /// factorisation; dragonfly the most-square `groups × routers` split.
    pub fn spec(&self, nodes: usize) -> FabricSpec {
        assert!(nodes >= 2, "a fabric needs at least two nodes");
        match self {
            FabricPreset::Switch => FabricSpec {
                kind: FabricKind::Switch,
            },
            FabricPreset::Torus => {
                let x = largest_divisor_le_sqrt(nodes);
                FabricSpec {
                    kind: FabricKind::Torus { x: nodes / x, y: x },
                }
            }
            FabricPreset::Dragonfly => {
                let g = largest_divisor_le_sqrt(nodes);
                FabricSpec {
                    kind: FabricKind::Dragonfly {
                        groups: g,
                        routers: nodes / g,
                    },
                }
            }
        }
    }
}

impl fmt::Display for FabricPreset {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

fn largest_divisor_le_sqrt(n: usize) -> usize {
    (1..=n)
        .take_while(|d| d * d <= n)
        .filter(|d| n.is_multiple_of(*d))
        .last()
        .unwrap_or(1)
}

impl FabricSpec {
    /// The paper's two-node point-to-point wire.
    pub fn direct() -> FabricSpec {
        FabricSpec {
            kind: FabricKind::Direct,
        }
    }

    /// Crossbar switch over `nodes` nodes (shape is per-build, see
    /// [`FabricSpec::build_for`]).
    pub fn switch() -> FabricSpec {
        FabricSpec {
            kind: FabricKind::Switch,
        }
    }

    /// Number of nodes this spec describes, if the shape pins it (`None`
    /// for switch, whose size comes from [`FabricSpec::build_for`]).
    pub fn fixed_nodes(&self) -> Option<usize> {
        match self.kind {
            FabricKind::Direct => Some(2),
            FabricKind::Switch => None,
            FabricKind::Torus { x, y } => Some(x * y),
            FabricKind::Dragonfly { groups, routers } => Some(groups * routers),
        }
    }

    /// Build the fabric for `nodes` nodes. Panics if the shape pins a
    /// different node count.
    pub fn build_for(&self, nodes: usize) -> Fabric {
        if let Some(n) = self.fixed_nodes() {
            assert_eq!(n, nodes, "fabric shape {:?} pins {} nodes", self.kind, n);
        }
        assert!(nodes >= 2, "a fabric needs at least two nodes");
        match self.kind {
            FabricKind::Direct => build_direct(),
            FabricKind::Switch => build_switch(nodes),
            FabricKind::Torus { x, y } => build_torus(x, y),
            FabricKind::Dragonfly { groups, routers } => build_dragonfly(groups, routers),
        }
    }

    /// Build a shape-pinned fabric (direct/torus/dragonfly).
    pub fn build(&self) -> Fabric {
        let n = self
            .fixed_nodes()
            .expect("switch fabrics need build_for(nodes)");
        self.build_for(n)
    }
}

/// Dense identifier of an interned `(src, dst)` route: `src * nodes + dst`.
///
/// Stable for the lifetime of the [`Fabric`] that issued it; resolves to
/// the hop list through [`Fabric::route_by_id`] without any per-transfer
/// hashing or cloning.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct RouteId(pub u32);

/// A built fabric: links plus a dense `(src, dst) → route` table.
///
/// Routes are interned at build time: every hop list lives in one shared
/// `LinkIdx` arena and the per-pair table stores only `(start, end)` spans,
/// so a 1024-node fabric does not carry a million separate allocations and
/// `route()` is a bounds-checked slice of the arena.
#[derive(Clone, Debug)]
pub struct Fabric {
    kind: FabricKind,
    nodes: usize,
    /// Total vertex count: nodes first, then internal fabric vertices.
    vertices: usize,
    links: Vec<LinkSpec>,
    /// All hop lists end to end, pair-major (`src * nodes + dst` order).
    route_arena: Vec<LinkIdx>,
    /// `route_spans[src * nodes + dst]` slices `route_arena`; empty span
    /// for `src == dst`.
    route_spans: Vec<(u32, u32)>,
}

impl Fabric {
    /// Intern the per-pair hop lists into the shared arena form. Builders
    /// construct routes pair-major, so spans are contiguous and ascending.
    fn assemble(
        kind: FabricKind,
        nodes: usize,
        vertices: usize,
        links: Vec<LinkSpec>,
        routes: Vec<Vec<LinkIdx>>,
    ) -> Fabric {
        debug_assert_eq!(routes.len(), nodes * nodes);
        let total: usize = routes.iter().map(Vec::len).sum();
        let mut route_arena = Vec::with_capacity(total);
        let mut route_spans = Vec::with_capacity(routes.len());
        for route in &routes {
            let start = route_arena.len() as u32;
            route_arena.extend_from_slice(route);
            route_spans.push((start, route_arena.len() as u32));
        }
        Fabric {
            kind,
            nodes,
            vertices,
            links,
            route_arena,
            route_spans,
        }
    }
    /// The fabric family.
    pub fn kind(&self) -> FabricKind {
        self.kind
    }

    /// Number of nodes.
    pub fn nodes(&self) -> usize {
        self.nodes
    }

    /// Total vertex count (nodes plus internal fabric vertices such as a
    /// switch crossbar).
    pub fn vertices(&self) -> usize {
        self.vertices
    }

    /// The directed links, in resource-creation order.
    pub fn links(&self) -> &[LinkSpec] {
        &self.links
    }

    /// The deterministic route from `src` to `dst` as link indices, hop by
    /// hop. Empty iff `src == dst`.
    pub fn route(&self, src: usize, dst: usize) -> &[LinkIdx] {
        self.route_by_id(self.route_id(src, dst))
    }

    /// The interned id of the `src → dst` route.
    pub fn route_id(&self, src: usize, dst: usize) -> RouteId {
        debug_assert!(src < self.nodes && dst < self.nodes);
        RouteId((src * self.nodes + dst) as u32)
    }

    /// Resolve an interned route id to its hop list.
    pub fn route_by_id(&self, id: RouteId) -> &[LinkIdx] {
        let (start, end) = self.route_spans[id.0 as usize];
        &self.route_arena[start as usize..end as usize]
    }

    /// Hop count of the `src → dst` route.
    pub fn hops(&self, src: usize, dst: usize) -> usize {
        self.route(src, dst).len()
    }
}

fn build_direct() -> Fabric {
    Fabric::assemble(
        FabricKind::Direct,
        2,
        2,
        vec![
            LinkSpec {
                name: "wire.0to1".into(),
                bw_scale: 1.0,
                src: 0,
                dst: 1,
            },
            LinkSpec {
                name: "wire.1to0".into(),
                bw_scale: 1.0,
                src: 1,
                dst: 0,
            },
        ],
        vec![vec![], vec![0], vec![1], vec![]],
    )
}

fn build_switch(nodes: usize) -> Fabric {
    // Up-links first, then down-links: route(s, d) = [up(s), down(d)].
    // Vertex `nodes` is the crossbar.
    let crossbar = nodes;
    let mut links = Vec::with_capacity(2 * nodes);
    for i in 0..nodes {
        links.push(LinkSpec {
            name: format!("fab.n{}.up", i),
            bw_scale: 1.0,
            src: i,
            dst: crossbar,
        });
    }
    for i in 0..nodes {
        links.push(LinkSpec {
            name: format!("fab.n{}.down", i),
            bw_scale: 1.0,
            src: crossbar,
            dst: i,
        });
    }
    let mut routes = Vec::with_capacity(nodes * nodes);
    for s in 0..nodes {
        for d in 0..nodes {
            routes.push(if s == d {
                vec![]
            } else {
                vec![s as LinkIdx, (nodes + d) as LinkIdx]
            });
        }
    }
    Fabric::assemble(FabricKind::Switch, nodes, nodes + 1, links, routes)
}

/// Directions of a 2-D torus, in per-node link-creation order.
const TORUS_DIRS: [(&str, usize, isize); 4] = [
    ("xp", 0, 1),
    ("xn", 0, -1),
    ("yp", 1, 1),
    ("yn", 1, -1),
];

fn build_torus(x: usize, y: usize) -> Fabric {
    let nodes = x * y;
    let dims = [x, y];
    let coord = |i: usize| [i % x, i / x];
    let index = |c: [usize; 2]| c[1] * x + c[0];
    // Per-node directed links to each torus neighbour; dimensions of size 1
    // have no links. `link_of[node][dir]` resolves a hop to its link index.
    let mut links = Vec::new();
    let mut link_of = vec![[None; 4]; nodes];
    let step = |c: [usize; 2], dir: usize| {
        let (_, dim, sign) = TORUS_DIRS[dir];
        let mut n = c;
        let m = dims[dim] as isize;
        n[dim] = ((c[dim] as isize + sign).rem_euclid(m)) as usize;
        n
    };
    for (i, node_links) in link_of.iter_mut().enumerate().take(nodes) {
        for (d, (suffix, dim, sign)) in TORUS_DIRS.iter().enumerate() {
            // Rings of size 1 need no link; in rings of size 2 the tie
            // always breaks toward +, so the − link would never route.
            let needed = if *sign > 0 { 1 } else { 2 };
            if dims[*dim] > needed {
                node_links[d] = Some(links.len() as LinkIdx);
                links.push(LinkSpec {
                    name: format!("fab.n{}.{}", i, suffix),
                    bw_scale: 1.0,
                    src: i,
                    dst: index(step(coord(i), d)),
                });
            }
        }
    }
    let mut routes = Vec::with_capacity(nodes * nodes);
    for s in 0..nodes {
        for d in 0..nodes {
            let mut route = Vec::new();
            let mut cur = coord(s);
            let dst = coord(d);
            // Dimension-order: settle X, then Y; shorter ring direction
            // wins, ties toward +.
            for dim in 0..2 {
                let m = dims[dim];
                let fwd = (dst[dim] + m - cur[dim]) % m;
                let back = (cur[dim] + m - dst[dim]) % m;
                let (dir, steps) = if fwd <= back {
                    (2 * dim, fwd)
                } else {
                    (2 * dim + 1, back)
                };
                for _ in 0..steps {
                    route.push(link_of[index(cur)][dir].expect("dim > 1"));
                    cur = step(cur, dir);
                }
            }
            debug_assert_eq!(cur, dst);
            routes.push(route);
        }
    }
    Fabric::assemble(FabricKind::Torus { x, y }, nodes, nodes, links, routes)
}

/// Router of group `g` hosting the directed global link `g → h`: the `g − 1`
/// outgoing globals are dealt round-robin across the group's routers.
fn dfly_gateway(g: usize, h: usize, routers: usize) -> usize {
    (h - usize::from(h > g)) % routers
}

fn build_dragonfly(groups: usize, routers: usize) -> Fabric {
    assert!(groups >= 1 && routers >= 1);
    let nodes = groups * routers;
    let node = |g: usize, r: usize| g * routers + r;
    // Intra-group complete graph first (all ordered pairs, group-major),
    // then one directed global link per ordered group pair.
    let mut links = Vec::new();
    let mut intra = vec![None; nodes * routers];
    for g in 0..groups {
        for i in 0..routers {
            for j in 0..routers {
                if i != j {
                    intra[node(g, i) * routers + j] = Some(links.len() as LinkIdx);
                    links.push(LinkSpec {
                        name: format!("fab.g{}.r{}r{}", g, i, j),
                        bw_scale: 1.0,
                        src: node(g, i),
                        dst: node(g, j),
                    });
                }
            }
        }
    }
    let mut global = vec![None; groups * groups];
    for g in 0..groups {
        for h in 0..groups {
            if g != h {
                global[g * groups + h] = Some(links.len() as LinkIdx);
                links.push(LinkSpec {
                    name: format!("fab.g{}g{}", g, h),
                    bw_scale: 1.0,
                    src: node(g, dfly_gateway(g, h, routers)),
                    dst: node(h, dfly_gateway(h, g, routers)),
                });
            }
        }
    }
    let intra_link = |g: usize, i: usize, j: usize| intra[node(g, i) * routers + j].expect("i != j");
    let mut routes = Vec::with_capacity(nodes * nodes);
    for s in 0..nodes {
        for d in 0..nodes {
            let (gs, rs) = (s / routers, s % routers);
            let (gd, rd) = (d / routers, d % routers);
            let mut route = Vec::new();
            if s == d {
            } else if gs == gd {
                route.push(intra_link(gs, rs, rd));
            } else {
                let gw_s = dfly_gateway(gs, gd, routers);
                let gw_d = dfly_gateway(gd, gs, routers);
                if rs != gw_s {
                    route.push(intra_link(gs, rs, gw_s));
                }
                route.push(global[gs * groups + gd].expect("gs != gd"));
                if gw_d != rd {
                    route.push(intra_link(gd, gw_d, rd));
                }
            }
            routes.push(route);
        }
    }
    Fabric::assemble(
        FabricKind::Dragonfly { groups, routers },
        nodes,
        nodes,
        links,
        routes,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::VecDeque;

    /// Directed adjacency over all fabric vertices (nodes + internal).
    fn adjacency(f: &Fabric) -> Vec<Vec<usize>> {
        let mut adj = vec![Vec::new(); f.vertices()];
        for l in f.links() {
            adj[l.src].push(l.dst);
        }
        adj
    }

    fn bfs_dist(adj: &[Vec<usize>], src: usize) -> Vec<usize> {
        let mut dist = vec![usize::MAX; adj.len()];
        dist[src] = 0;
        let mut q = VecDeque::from([src]);
        while let Some(u) = q.pop_front() {
            for &v in &adj[u] {
                if dist[v] == usize::MAX {
                    dist[v] = dist[u] + 1;
                    q.push_back(v);
                }
            }
        }
        dist
    }

    fn all_fabrics() -> Vec<(&'static str, Fabric)> {
        vec![
            ("direct", FabricSpec::direct().build()),
            ("switch4", FabricSpec::switch().build_for(4)),
            ("switch8", FabricSpec::switch().build_for(8)),
            ("torus4x2", FabricPreset::Torus.spec(8).build_for(8)),
            ("torus4x4", FabricPreset::Torus.spec(16).build_for(16)),
            ("torus5x3", FabricSpec { kind: FabricKind::Torus { x: 5, y: 3 } }.build()),
            ("dfly2x4", FabricPreset::Dragonfly.spec(8).build_for(8)),
            ("dfly3x3", FabricSpec { kind: FabricKind::Dragonfly { groups: 3, routers: 3 } }.build()),
            ("dfly4x4", FabricPreset::Dragonfly.spec(16).build_for(16)),
        ]
    }

    #[test]
    fn direct_fabric_freezes_paper_wire_names() {
        let f = FabricSpec::direct().build();
        assert_eq!(f.nodes(), 2);
        let names: Vec<_> = f.links().iter().map(|l| l.name.as_str()).collect();
        assert_eq!(names, ["wire.0to1", "wire.1to0"]);
        assert_eq!(f.route(0, 1), [0]);
        assert_eq!(f.route(1, 0), [1]);
    }

    #[test]
    fn routes_are_contiguous_and_loop_free() {
        // Every route starts at src, ends at dst, chains hop endpoints, and
        // never revisits a vertex (hence never reuses a link).
        for (name, f) in all_fabrics() {
            for s in 0..f.nodes() {
                for d in 0..f.nodes() {
                    let r = f.route(s, d);
                    if s == d {
                        assert!(r.is_empty(), "{}: self-route must be empty", name);
                        continue;
                    }
                    assert!(!r.is_empty(), "{}: missing route {}→{}", name, s, d);
                    let mut visited = std::collections::HashSet::from([s]);
                    let mut at = s;
                    for &l in r {
                        let link = &f.links()[l as usize];
                        assert_eq!(link.src, at, "{}: broken chain {}→{}", name, s, d);
                        at = link.dst;
                        assert!(
                            visited.insert(at),
                            "{}: route {}→{} revisits vertex {}",
                            name,
                            s,
                            d,
                            at
                        );
                    }
                    assert_eq!(at, d, "{}: route {}→{} ends at {}", name, s, d, at);
                }
            }
        }
    }

    #[test]
    fn routes_are_minimal_on_switch_and_torus() {
        for (name, f) in all_fabrics() {
            if matches!(f.kind(), FabricKind::Dragonfly { .. }) {
                // Dragonfly minimal routing is minimal w.r.t. the
                // gateway-constrained path set, not raw BFS; skip here.
                continue;
            }
            let adj = adjacency(&f);
            for s in 0..f.nodes() {
                let dist = bfs_dist(&adj, s);
                for (d, &want) in dist.iter().enumerate().take(f.nodes()) {
                    assert_eq!(
                        f.hops(s, d),
                        want,
                        "{}: route {}→{} is not shortest",
                        name,
                        s,
                        d
                    );
                }
            }
        }
    }

    #[test]
    fn dragonfly_routes_bounded_and_valid() {
        for (name, f) in all_fabrics() {
            if let FabricKind::Dragonfly { routers, .. } = f.kind() {
                for s in 0..f.nodes() {
                    for d in 0..f.nodes() {
                        if s == d {
                            continue;
                        }
                        let same_group = s / routers == d / routers;
                        let max = if same_group { 1 } else { 3 };
                        assert!(
                            f.hops(s, d) <= max,
                            "{}: {}→{} takes {} hops",
                            name,
                            s,
                            d,
                            f.hops(s, d)
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn builds_are_deterministic() {
        for (name, f) in all_fabrics() {
            let spec = FabricSpec { kind: f.kind() };
            let again = spec.build_for(f.nodes());
            let names: Vec<_> = f.links().iter().map(|l| l.name.clone()).collect();
            let names2: Vec<_> = again.links().iter().map(|l| l.name.clone()).collect();
            assert_eq!(names, names2, "{}: link set changed across builds", name);
            for s in 0..f.nodes() {
                for d in 0..f.nodes() {
                    assert_eq!(f.route(s, d), again.route(s, d), "{}: route changed", name);
                }
            }
        }
    }

    #[test]
    fn preset_shapes_cover_required_sizes() {
        for preset in FabricPreset::ALL {
            for nodes in [2, 8, 64, 256] {
                let f = preset.spec(nodes).build_for(nodes);
                assert_eq!(f.nodes(), nodes, "{} at {}", preset.name(), nodes);
            }
        }
    }

    #[test]
    fn switch_routes_disjoint_under_permutation() {
        // The crossbar guarantee behind the collective closed forms: any
        // node permutation routes over pairwise-disjoint links.
        let f = FabricSpec::switch().build_for(8);
        let perm = [3, 0, 7, 1, 6, 2, 5, 4]; // sample derangement-ish map
        let mut used = std::collections::HashSet::new();
        for (s, &d) in perm.iter().enumerate() {
            if s == d {
                continue;
            }
            for &l in f.route(s, d) {
                assert!(used.insert(l), "switch links must not be shared");
            }
        }
    }
}
