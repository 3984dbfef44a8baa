//! Administrative sites (clusters / virtual organisations).
//!
//! Computational grids are federations of independently administered
//! clusters.  GRASP's "grid resource co-allocation" and "inter-domain
//! scheduling" concerns show up here as the grouping of nodes into sites:
//! intra-site communication uses the site's local-area link, inter-site
//! communication uses the (slower) wide-area links declared in the topology.

use crate::link::LinkSpec;
use crate::node::NodeId;
use serde::{Deserialize, Serialize};
use std::fmt;

/// Identifier of a site within a topology.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct SiteId(pub(crate) usize);

impl fmt::Display for SiteId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "site{}", self.0)
    }
}

impl SiteId {
    /// The raw index.
    pub(crate) fn index(&self) -> usize {
        self.0
    }
}

/// An administrative domain: a named cluster with a local interconnect.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Site {
    /// Site identifier (assigned by the topology builder).
    pub id: SiteId,
    /// Human-readable name, e.g. `"edinburgh"`.
    pub(crate) name: String,
    /// Local-area interconnect used for node-to-node transfers inside the
    /// site (typically high bandwidth / low latency).
    pub(crate) local_link: LinkSpec,
    /// Nodes belonging to this site.
    pub(crate) nodes: Vec<NodeId>,
}

impl Site {
    /// Create an empty site with the given local interconnect.
    pub(crate) fn new(id: SiteId, name: impl Into<String>, local_link: LinkSpec) -> Self {
        Site {
            id,
            name: name.into(),
            local_link,
            nodes: Vec::new(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn site_display_and_index() {
        assert_eq!(format!("{}", SiteId(2)), "site2");
        assert_eq!(SiteId(2).index(), 2);
    }
}
