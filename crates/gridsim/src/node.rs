//! Grid nodes.
//!
//! A node models one processing element of the grid: a base speed in abstract
//! *work units per second* and the administrative site it belongs to.  Heterogeneity — the central difficulty GRASP addresses —
//! is expressed through differing base speeds and differing external load.

use crate::site::SiteId;
use serde::{Deserialize, Serialize};
use std::fmt;

/// Identifier of a node within a `GridTopology`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct NodeId(pub usize);

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

impl NodeId {
    /// The raw index.
    pub fn index(&self) -> usize {
        self.0
    }
}

/// Static description of a grid node.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct NodeSpec {
    /// Node identifier (assigned by the topology builder).
    pub(crate) id: NodeId,
    /// Human-readable name, e.g. `"edinburgh-03"`.
    pub(crate) name: String,
    /// Base processing speed in work units per virtual second, with the whole
    /// machine to itself.  Heterogeneity is expressed as differing speeds.
    pub base_speed: f64,
    /// Administrative site (cluster / virtual organisation) this node is in.
    pub(crate) site: SiteId,
}

impl NodeSpec {
    /// Create a node spec with the given speed.
    pub(crate) fn new(id: NodeId, name: impl Into<String>, base_speed: f64, site: SiteId) -> Self {
        NodeSpec {
            id,
            name: name.into(),
            base_speed: if base_speed > 0.0 { base_speed } else { 1.0 },
            site,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn node_id_display() {
        assert_eq!(format!("{}", NodeId(7)), "n7");
        assert_eq!(NodeId(7).index(), 7);
    }

    #[test]
    fn spec_clamps_nonpositive_speed() {
        let n = NodeSpec::new(NodeId(0), "x", 0.0, SiteId(0));
        assert_eq!(n.base_speed, 1.0);
        let n = NodeSpec::new(NodeId(0), "x", -3.0, SiteId(0));
        assert_eq!(n.base_speed, 1.0);
    }
}
