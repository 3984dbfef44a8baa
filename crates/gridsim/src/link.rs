//! Network links.
//!
//! A link is characterised by bandwidth (MiB per virtual second) and latency
//! (seconds).  Links connect sites; intra-site transfers use the site's local
//! link.  The effective bandwidth seen by a transfer is the nominal bandwidth
//! scaled by `1 − background_utilisation(t)`, mirroring how node speed is
//! scaled by external CPU load.

/// Static description of a network link.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LinkSpec {
    /// Nominal bandwidth in MiB per second.
    pub(crate) bandwidth_mib_s: f64,
    /// One-way latency in seconds.
    pub(crate) latency_s: f64,
}

impl LinkSpec {
    /// Create a link spec; non-positive bandwidth is clamped to a tiny
    /// positive value so transfer times stay finite, negative latency to 0.
    pub(crate) fn new(bandwidth_mib_s: f64, latency_s: f64) -> Self {
        LinkSpec {
            bandwidth_mib_s: if bandwidth_mib_s > 0.0 {
                bandwidth_mib_s
            } else {
                1e-6
            },
            latency_s: latency_s.max(0.0),
        }
    }

    /// A typical gigabit-class LAN: ~110 MiB/s, 0.1 ms latency.
    pub fn lan() -> Self {
        LinkSpec::new(110.0, 1e-4)
    }

    /// A typical academic WAN path: ~10 MiB/s, 20 ms latency.
    pub(crate) fn wan() -> Self {
        LinkSpec::new(10.0, 0.020)
    }

    /// A congested commodity internet path: ~1 MiB/s, 80 ms latency.
    pub(crate) fn internet() -> Self {
        LinkSpec::new(1.0, 0.080)
    }

    /// Time to move `bytes` over this link with availability `avail ∈ (0,1]`
    /// of the nominal bandwidth.
    pub fn transfer_time(&self, bytes: u64, avail: f64) -> f64 {
        let avail = avail.clamp(1e-3, 1.0);
        let mib = bytes as f64 / (1024.0 * 1024.0);
        self.latency_s + mib / (self.bandwidth_mib_s * avail)
    }
}

impl Default for LinkSpec {
    fn default() -> Self {
        LinkSpec::lan()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clamps_degenerate_values() {
        let l = LinkSpec::new(-5.0, -1.0);
        assert!(l.bandwidth_mib_s > 0.0);
        assert_eq!(l.latency_s, 0.0);
    }

    #[test]
    fn transfer_time_includes_latency() {
        let l = LinkSpec::new(100.0, 0.5);
        // Zero bytes: just the latency.
        assert!((l.transfer_time(0, 1.0) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn transfer_time_scales_with_size_and_availability() {
        let l = LinkSpec::new(10.0, 0.0);
        let one_mib = 1024 * 1024;
        let full = l.transfer_time(one_mib, 1.0);
        let half = l.transfer_time(one_mib, 0.5);
        assert!((full - 0.1).abs() < 1e-9);
        assert!((half - 0.2).abs() < 1e-9);
        let two = l.transfer_time(2 * one_mib, 1.0);
        assert!((two - 0.2).abs() < 1e-9);
    }

    #[test]
    fn presets_are_ordered_by_quality() {
        assert!(LinkSpec::lan().bandwidth_mib_s > LinkSpec::wan().bandwidth_mib_s);
        assert!(LinkSpec::wan().bandwidth_mib_s > LinkSpec::internet().bandwidth_mib_s);
        assert!(LinkSpec::lan().latency_s < LinkSpec::wan().latency_s);
    }

    #[test]
    fn availability_is_clamped() {
        let l = LinkSpec::new(10.0, 0.0);
        // avail=0 would divide by zero; it must be clamped to something finite.
        assert!(l.transfer_time(1024 * 1024, 0.0).is_finite());
    }
}
