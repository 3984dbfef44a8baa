//! Grid topology: sites, nodes and the links between them.
//!
//! A [`GridTopology`] is the static part of the simulated grid — which nodes
//! exist, how fast they are when idle, how they are grouped into
//! administrative sites, and what the inter-site links look like.  Dynamic
//! behaviour (external load, faults) is layered on top by
//! [`crate::grid::Grid`].

use crate::link::LinkSpec;
use crate::node::{NodeId, NodeSpec};
use crate::site::{Site, SiteId};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::BTreeMap;

/// The static description of a computational grid.
#[derive(Debug, Clone, PartialEq)]
pub struct GridTopology {
    nodes: Vec<NodeSpec>,
    sites: Vec<Site>,
    /// Wide-area links between pairs of sites (symmetric); keyed by the
    /// ordered pair (min, max).
    wan_links: BTreeMap<(usize, usize), LinkSpec>,
}

impl GridTopology {
    /// All sites, indexed by `SiteId::index()`.
    pub fn sites(&self) -> &[Site] {
        &self.sites
    }

    /// Number of nodes.
    pub(crate) fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// Node ids in index order.
    pub fn node_ids(&self) -> Vec<NodeId> {
        self.nodes.iter().map(|n| n.id).collect()
    }

    /// Look up a node; `None` when the id is out of range.
    pub(crate) fn node(&self, id: NodeId) -> Option<&NodeSpec> {
        self.nodes.get(id.index())
    }

    /// Look up a site; `None` when the id is out of range.
    pub(crate) fn site(&self, id: SiteId) -> Option<&Site> {
        self.sites.get(id.index())
    }

    /// The link used between two nodes: the site-local link when they share a
    /// site, the declared WAN link between their sites otherwise (or
    /// [`LinkSpec::wan`] when none was declared).  `None` if either node id is
    /// unknown.
    pub(crate) fn link_between(&self, a: NodeId, b: NodeId) -> Option<LinkSpec> {
        let na = self.node(a)?;
        let nb = self.node(b)?;
        if na.site == nb.site {
            return self.site(na.site).map(|s| s.local_link);
        }
        let key = ordered(na.site.index(), nb.site.index());
        Some(
            self.wan_links
                .get(&key)
                .copied()
                .unwrap_or_else(LinkSpec::wan),
        )
    }

    /// Fastest dedicated node speed in the topology (0 when empty).
    pub fn max_speed(&self) -> f64 {
        self.nodes.iter().map(|n| n.base_speed).fold(0.0, f64::max)
    }

    /// Total dedicated speed summed over all nodes.
    pub fn aggregate_speed(&self) -> f64 {
        self.nodes.iter().map(|n| n.base_speed).sum()
    }
}

fn ordered(a: usize, b: usize) -> (usize, usize) {
    if a <= b {
        (a, b)
    } else {
        (b, a)
    }
}

/// Incremental builder for `GridTopology`.
#[derive(Debug, Clone)]
pub struct TopologyBuilder {
    nodes: Vec<NodeSpec>,
    sites: Vec<Site>,
    wan_links: BTreeMap<(usize, usize), LinkSpec>,
}

impl Default for TopologyBuilder {
    fn default() -> Self {
        Self::new()
    }
}

impl TopologyBuilder {
    /// Start an empty topology.
    pub fn new() -> Self {
        TopologyBuilder {
            nodes: Vec::new(),
            sites: Vec::new(),
            wan_links: BTreeMap::new(),
        }
    }

    /// Add a site with the given local-area link; returns its id.
    pub fn add_site(&mut self, name: impl Into<String>, local_link: LinkSpec) -> SiteId {
        let id = SiteId(self.sites.len());
        self.sites.push(Site::new(id, name, local_link));
        id
    }

    /// Add a node to a site; returns its id.  Panics if the site id is
    /// unknown (programming error in topology construction).
    pub fn add_node(&mut self, site: SiteId, name: impl Into<String>, base_speed: f64) -> NodeId {
        assert!(site.index() < self.sites.len(), "unknown site {site}");
        let id = NodeId(self.nodes.len());
        let spec = NodeSpec::new(id, name, base_speed, site);
        self.nodes.push(spec);
        self.sites[site.index()].nodes.push(id);
        id
    }

    /// Declare a WAN link between two sites (symmetric).
    pub(crate) fn connect_sites(&mut self, a: SiteId, b: SiteId, link: LinkSpec) -> &mut Self {
        self.wan_links.insert(ordered(a.index(), b.index()), link);
        self
    }

    /// Finish building.
    pub fn build(self) -> GridTopology {
        GridTopology {
            nodes: self.nodes,
            sites: self.sites,
            wan_links: self.wan_links,
        }
    }

    // ---------------------------------------------------------------------
    // Preset topologies used by examples, tests and the benchmark harness.
    // ---------------------------------------------------------------------

    /// A single homogeneous cluster of `n` nodes with the given speed.
    pub fn uniform_cluster(n: usize, speed: f64) -> GridTopology {
        let mut b = TopologyBuilder::new();
        let site = b.add_site("cluster", LinkSpec::lan());
        for i in 0..n {
            b.add_node(site, format!("node-{i:02}"), speed);
        }
        b.build()
    }

    /// A single cluster of `n` nodes with speeds drawn uniformly from
    /// `[min_speed, max_speed]` (deterministic per seed).
    pub fn heterogeneous_cluster(
        n: usize,
        min_speed: f64,
        max_speed: f64,
        seed: u64,
    ) -> GridTopology {
        let mut rng = StdRng::seed_from_u64(seed);
        let lo = min_speed.min(max_speed).max(1e-6);
        let hi = min_speed.max(max_speed).max(lo + 1e-9);
        let mut b = TopologyBuilder::new();
        let site = b.add_site("cluster", LinkSpec::lan());
        for i in 0..n {
            let speed = rng.gen_range(lo..=hi);
            b.add_node(site, format!("node-{i:02}"), speed);
        }
        b.build()
    }

    /// A multi-site grid: `sites` entries of `(node_count, node_speed)`
    /// connected pair-wise by WAN links.
    pub fn multi_site(sites: &[(usize, f64)]) -> GridTopology {
        let mut b = TopologyBuilder::new();
        let mut ids = Vec::new();
        for (s, &(count, speed)) in sites.iter().enumerate() {
            let sid = b.add_site(format!("site-{s}"), LinkSpec::lan());
            ids.push(sid);
            for i in 0..count {
                b.add_node(sid, format!("s{s}-n{i:02}"), speed);
            }
        }
        for i in 0..ids.len() {
            for j in (i + 1)..ids.len() {
                b.connect_sites(ids[i], ids[j], LinkSpec::wan());
            }
        }
        b.build()
    }

    /// The "paper-style" testbed: three departmental clusters of unequal size
    /// and speed joined by WAN links — a small stand-in for the kind of
    /// multi-domain grid (local cluster + remote centres) the PPoPP'07 work
    /// and its companion papers evaluated on.
    pub fn paper_testbed(seed: u64) -> GridTopology {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut b = TopologyBuilder::new();
        let edi = b.add_site("edinburgh", LinkSpec::lan());
        let remote_a = b.add_site("remote-a", LinkSpec::lan());
        let remote_b = b.add_site("remote-b", LinkSpec::new(60.0, 5e-4));
        for i in 0..8 {
            let speed = 80.0 * rng.gen_range(0.9..1.1);
            b.add_node(edi, format!("edi-{i:02}"), speed);
        }
        for i in 0..12 {
            let speed = 40.0 * rng.gen_range(0.8..1.2);
            b.add_node(remote_a, format!("ra-{i:02}"), speed);
        }
        for i in 0..4 {
            let speed = 160.0 * rng.gen_range(0.95..1.05);
            b.add_node(remote_b, format!("rb-{i:02}"), speed);
        }
        b.connect_sites(edi, remote_a, LinkSpec::wan());
        b.connect_sites(edi, remote_b, LinkSpec::new(20.0, 0.012));
        b.connect_sites(remote_a, remote_b, LinkSpec::internet());
        b.build()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Fastest over slowest node speed.
    fn heterogeneity(topo: &GridTopology) -> f64 {
        let speeds = topo.nodes.iter().map(|n| n.base_speed);
        speeds.clone().fold(0.0, f64::max) / speeds.fold(f64::INFINITY, f64::min)
    }

    #[test]
    fn builder_assigns_sequential_ids() {
        let mut b = TopologyBuilder::new();
        let s0 = b.add_site("a", LinkSpec::lan());
        let s1 = b.add_site("b", LinkSpec::lan());
        let n0 = b.add_node(s0, "n0", 10.0);
        let n1 = b.add_node(s1, "n1", 20.0);
        assert_eq!(s0, SiteId(0));
        assert_eq!(s1, SiteId(1));
        assert_eq!(n0, NodeId(0));
        assert_eq!(n1, NodeId(1));
        let topo = b.build();
        assert_eq!(topo.node_count(), 2);
        assert_eq!(topo.sites().len(), 2);
        assert!(topo.site(s0).unwrap().nodes.contains(&n0));
        assert!(!topo.site(s0).unwrap().nodes.contains(&n1));
    }

    #[test]
    fn link_between_same_site_uses_local_link() {
        let topo = TopologyBuilder::uniform_cluster(4, 10.0);
        let l = topo.link_between(NodeId(0), NodeId(1)).unwrap();
        assert_eq!(l, LinkSpec::lan());
    }

    #[test]
    fn link_between_sites_uses_wan_or_default() {
        let mut b = TopologyBuilder::new();
        let s0 = b.add_site("a", LinkSpec::lan());
        let s1 = b.add_site("b", LinkSpec::lan());
        let s2 = b.add_site("c", LinkSpec::lan());
        let n0 = b.add_node(s0, "n0", 10.0);
        let n1 = b.add_node(s1, "n1", 10.0);
        let n2 = b.add_node(s2, "n2", 10.0);
        b.connect_sites(s0, s1, LinkSpec::internet());
        let topo = b.build();
        assert_eq!(topo.link_between(n0, n1).unwrap(), LinkSpec::internet());
        // Direction must not matter.
        assert_eq!(topo.link_between(n1, n0).unwrap(), LinkSpec::internet());
        // Undeclared pair falls back to the default WAN link.
        assert_eq!(topo.link_between(n0, n2).unwrap(), LinkSpec::wan());
    }

    #[test]
    fn link_between_unknown_node_is_none() {
        let topo = TopologyBuilder::uniform_cluster(2, 10.0);
        assert!(topo.link_between(NodeId(0), NodeId(9)).is_none());
    }

    #[test]
    fn uniform_cluster_is_homogeneous() {
        let topo = TopologyBuilder::uniform_cluster(8, 25.0);
        assert_eq!(topo.node_count(), 8);
        assert_eq!(topo.sites().len(), 1);
        assert!((heterogeneity(&topo) - 1.0).abs() < 1e-12);
        assert!((topo.aggregate_speed() - 200.0).abs() < 1e-9);
        assert_eq!(topo.max_speed(), 25.0);
    }

    #[test]
    fn heterogeneous_cluster_spans_speed_range() {
        let topo = TopologyBuilder::heterogeneous_cluster(32, 10.0, 80.0, 5);
        assert_eq!(topo.node_count(), 32);
        assert!(heterogeneity(&topo) > 2.0);
        assert!(topo
            .nodes
            .iter()
            .all(|n| n.base_speed >= 10.0 && n.base_speed <= 80.0));
        // Deterministic per seed.
        let again = TopologyBuilder::heterogeneous_cluster(32, 10.0, 80.0, 5);
        assert_eq!(topo, again);
    }

    #[test]
    fn multi_site_connects_every_pair() {
        let topo = TopologyBuilder::multi_site(&[(4, 10.0), (4, 20.0), (2, 40.0)]);
        assert_eq!(topo.sites().len(), 3);
        assert_eq!(topo.node_count(), 10);
        // Nodes in different sites should see a WAN link.
        let a = topo.sites()[0].nodes[0];
        let b = topo.sites()[2].nodes[0];
        assert_eq!(topo.link_between(a, b).unwrap(), LinkSpec::wan());
    }

    #[test]
    fn paper_testbed_shape() {
        let topo = TopologyBuilder::paper_testbed(1);
        assert_eq!(topo.sites().len(), 3);
        assert_eq!(topo.node_count(), 24);
        assert!(heterogeneity(&topo) > 2.0, "testbed must be heterogeneous");
    }

    #[test]
    #[should_panic]
    fn adding_node_to_unknown_site_panics() {
        let mut b = TopologyBuilder::new();
        b.add_node(SiteId(3), "orphan", 1.0);
    }
}
