//! The placement backend's name.
//!
//! The paper's weighted hash ring ([`crate::ring::HashRing`], walked by
//! [`crate::placement`]) is the only placement path. [`EngineKind`]
//! survives as a one-variant enum so code built against
//! `ClusterConfig::placement` keeps compiling: the standalone benchmark
//! pins `EngineKind::Ring` in its config and prints the value in its
//! `# env` header (`engine=ring`).

use std::fmt;

/// The placement backend a cluster places with: always the ring.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EngineKind {
    /// Weighted hash ring with successor LUT (the paper's structure).
    Ring,
}

impl fmt::Display for EngineKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EngineKind::Ring => f.write_str("ring"),
        }
    }
}
