//! Replica placement: original consistent hashing and the paper's
//! primary-server data placement (Algorithm 1, §III-B).
//!
//! Both algorithms walk the ring clockwise from the object's hash
//! position. The elastic variant adds three rules, visible as the "skip"
//! arrows of Figure 4:
//!
//! 1. inactive servers are skipped (this *is* write-availability
//!    offloading — a replica that would land on a powered-down server goes
//!    to the next eligible one instead, §III-E);
//! 2. once some replica sits on a primary, later replicas skip primaries,
//!    so primaries hold **exactly one** copy;
//! 3. the last replica is forced onto a primary if none was used yet.
//!
//! §III-B's special case: if fewer than `r − 1` secondaries are active,
//! primaries are temporarily treated as secondaries so the replication
//! level survives, as long as `r` active servers exist at all.
//!
use crate::hash::object_position;
use crate::ids::{ObjectId, ServerId};
use crate::layout::Layout;
use crate::membership::MembershipTable;
use crate::ring::HashRing;
use rayon::prelude::*;
use serde::{Deserialize, Serialize};
use std::fmt;

/// Which placement algorithm to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Strategy {
    /// Original consistent hashing: first `r` distinct active servers.
    Original,
    /// Primary-server data placement (Algorithm 1).
    Primary,
}

/// Ordered replica locations for one object (index 0 = first replica).
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct Placement {
    servers: Vec<ServerId>,
}

impl Placement {
    /// Replica locations in placement order.
    #[inline]
    pub fn servers(&self) -> &[ServerId] {
        &self.servers
    }

    /// Number of replicas placed.
    #[inline]
    pub fn len(&self) -> usize {
        self.servers.len()
    }

    /// True when no replicas were placed (never returned by the placers).
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.servers.is_empty()
    }

    /// True when `server` holds a replica.
    #[inline]
    pub fn contains(&self, server: ServerId) -> bool {
        self.servers.contains(&server)
    }

    /// The replicas that sit on primary servers under `layout`.
    pub fn primary_replicas<'a>(
        &'a self,
        layout: &'a Layout,
    ) -> impl Iterator<Item = ServerId> + 'a {
        self.servers
            .iter()
            .copied()
            .filter(move |&s| layout.is_primary(s))
    }
}

impl fmt::Display for Placement {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[")?;
        for (i, s) in self.servers.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{s}")?;
        }
        write!(f, "]")
    }
}

/// Placement failure.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PlacementError {
    /// Fewer active servers than requested replicas: the cluster cannot
    /// hold `r` distinct copies.
    InsufficientActiveServers {
        /// Replicas requested.
        needed: usize,
        /// Active servers available.
        active: usize,
    },
    /// `r == 0` was requested.
    ZeroReplicas,
    /// A placement invariant failed (e.g. the relaxed ring walk found no
    /// eligible server even though enough were active). This indicates a
    /// bug, but the data path degrades with an error instead of
    /// panicking so the store keeps serving other objects.
    Internal(&'static str),
    /// Placement was requested under a membership version the history
    /// has not recorded. A concurrent writer racing a view snapshot can
    /// produce this; the epoch-retry loop resolves it on a fresh view.
    UnknownVersion(crate::ids::VersionId),
}

impl fmt::Display for PlacementError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PlacementError::InsufficientActiveServers { needed, active } => write!(
                f,
                "cannot place {needed} replicas on {active} active servers"
            ),
            PlacementError::ZeroReplicas => write!(f, "replication factor must be at least 1"),
            PlacementError::Internal(what) => {
                write!(f, "placement invariant violated: {what}")
            }
            PlacementError::UnknownVersion(version) => {
                write!(f, "unknown membership version {version}")
            }
        }
    }
}

impl std::error::Error for PlacementError {}

/// Original consistent hashing placement (§II-A): the first `r` distinct
/// *active* servers clockwise from the object's position.
///
/// With every server active this is the textbook algorithm; with servers
/// off it degenerates to "skip the missing node", which is how a CH store
/// behaves after a node departs the ring.
pub fn place_original(
    ring: &HashRing,
    membership: &MembershipTable,
    oid: ObjectId,
    replicas: usize,
) -> Result<Placement, PlacementError> {
    if replicas == 0 {
        return Err(PlacementError::ZeroReplicas);
    }
    let active = membership.active_count();
    if active < replicas {
        return Err(PlacementError::InsufficientActiveServers {
            needed: replicas,
            active,
        });
    }
    let mut chosen: Vec<ServerId> = Vec::with_capacity(replicas);
    let mut cursor = object_position(oid);
    while chosen.len() < replicas {
        let found = next_on_ring(ring, cursor, |s| {
            membership.is_active(s) && !chosen.contains(&s)
        });
        // `active >= replicas` plus a full lap guarantees a hit; if not,
        // degrade with a classified error rather than panicking mid-put
        // (analyzer rule D2).
        let Some((server, next)) = found else {
            return Err(PlacementError::Internal(
                "ring walk found no active unchosen server",
            ));
        };
        chosen.push(server);
        cursor = next;
    }
    Ok(Placement { servers: chosen })
}

/// What kind of server the current replica may use.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Need {
    /// Any active server (Algorithm 1, `next_server`).
    Any,
    /// Active secondary (`next_secondary`).
    Secondary,
    /// Active primary (`next_primary`).
    Primary,
}

/// Primary-server data placement — Algorithm 1 of the paper.
///
/// Walks the ring clockwise from the object's position; each replica
/// continues the walk from where the previous replica was found (wrapping
/// as needed), applying the skip rules described in the module docs.
///
/// Returns the replica locations in placement order. When at least one
/// primary and at least `r − 1` secondaries are active, the result holds
/// **exactly one** replica on a primary server; under the §III-B special
/// case (secondaries scarce) it holds **at least** one.
pub fn place_primary(
    ring: &HashRing,
    layout: &Layout,
    membership: &MembershipTable,
    oid: ObjectId,
    replicas: usize,
) -> Result<Placement, PlacementError> {
    if replicas == 0 {
        return Err(PlacementError::ZeroReplicas);
    }
    let active = membership.active_count();
    if active < replicas {
        return Err(PlacementError::InsufficientActiveServers {
            needed: replicas,
            active,
        });
    }

    // §III-B special case: not enough active secondaries for the r-1
    // non-primary copies — let primaries stand in as secondaries. Even if
    // every primary is active, secondaries number at least
    // `active - primary_count`, so the common well-provisioned case
    // resolves in O(1); only the scarce regime pays the exact O(n) count.
    let primaries_as_secondaries = if active >= layout.primary_count() + replicas.saturating_sub(1)
    {
        false
    } else {
        let active_primaries = membership
            .active_servers()
            .filter(|&s| layout.is_primary(s))
            .count();
        active - active_primaries < replicas.saturating_sub(1)
    };

    let mut chosen: Vec<ServerId> = Vec::with_capacity(replicas);
    let mut has_primary = false;
    let mut cursor = object_position(oid);

    for i in 1..=replicas {
        let need = if i == replicas {
            // Last replica (Algorithm 1, lines 11–15).
            if has_primary {
                Need::Secondary
            } else {
                Need::Primary
            }
        } else if has_primary {
            // Lines 4–5: a primary already holds a copy.
            Need::Secondary
        } else {
            // Lines 6–7: plain clockwise walk.
            Need::Any
        };

        // One full lap from the cursor; a second pass relaxes the need to
        // `Any` so replication survives degenerate memberships (e.g. no
        // active primary at all).
        let mut found = None;
        for pass in 0..2 {
            let pass_need = if pass == 0 { need } else { Need::Any };
            found = next_on_ring(ring, cursor, |s: ServerId| {
                if !membership.is_active(s) || chosen.contains(&s) {
                    return false;
                }
                match pass_need {
                    Need::Any => true,
                    Need::Secondary => !layout.is_primary(s) || primaries_as_secondaries,
                    Need::Primary => layout.is_primary(s),
                }
            });
            if found.is_some() {
                break;
            }
        }
        // `active >= replicas` guarantees the relaxed pass finds a
        // server; if it somehow does not, degrade with a classified error
        // rather than panicking mid-put (analyzer rule D2).
        let Some((server, next)) = found else {
            return Err(PlacementError::Internal(
                "relaxed ring walk found no active unchosen server",
            ));
        };
        if layout.is_primary(server) {
            has_primary = true;
        }
        chosen.push(server);
        cursor = next;
    }

    Ok(Placement { servers: chosen })
}

/// Dispatch on [`Strategy`].
pub fn place(
    strategy: Strategy,
    ring: &HashRing,
    layout: &Layout,
    membership: &MembershipTable,
    oid: ObjectId,
    replicas: usize,
) -> Result<Placement, PlacementError> {
    match strategy {
        Strategy::Original => place_original(ring, membership, oid, replicas),
        Strategy::Primary => place_primary(ring, layout, membership, oid, replicas),
    }
}

/// First server clockwise from `cursor` that `accept` takes, with the
/// cursor just past its vnode, so the next replica resumes the walk
/// there (Algorithm 1's "continue clockwise"). One full lap: `None`
/// means `accept` rejected every server.
fn next_on_ring<F: FnMut(ServerId) -> bool>(
    ring: &HashRing,
    cursor: u64,
    mut accept: F,
) -> Option<(ServerId, u64)> {
    ring.walk_from(cursor)
        .find(|v| accept(v.server))
        .map(|v| (v.server, v.position.wrapping_add(1)))
}

/// Place many objects in parallel (rayon), preserving input order.
///
/// Used by layout-analysis sweeps and the experiment harnesses, where
/// placements for 10⁵–10⁷ objects are computed per membership version.
pub fn par_place_many(
    strategy: Strategy,
    ring: &HashRing,
    layout: &Layout,
    membership: &MembershipTable,
    oids: &[ObjectId],
    replicas: usize,
) -> Vec<Result<Placement, PlacementError>> {
    oids.par_iter()
        .map(|&oid| place(strategy, ring, layout, membership, oid, replicas))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::membership::PowerState;

    fn setup(n: usize) -> (HashRing, Layout) {
        let layout = Layout::equal_work(n, 10_000);
        let ring = layout.build_ring();
        (ring, layout)
    }

    #[test]
    fn original_matches_distinct_walk() {
        let layout = Layout::uniform(10, 1000);
        let ring = layout.build_ring();
        let m = MembershipTable::full_power(10);
        for k in 0..500u64 {
            let p = place_original(&ring, &m, ObjectId(k), 3).unwrap();
            assert_eq!(p.len(), 3);
            let mut sorted = p.servers().to_vec();
            sorted.sort();
            sorted.dedup();
            assert_eq!(sorted.len(), 3, "duplicate server for oid {k}");
        }
    }

    #[test]
    fn original_at_full_power_is_the_distinct_clockwise_walk() {
        // With every server active and r = n, classic placement lists
        // every server in the ring's distinct clockwise order.
        let ring = HashRing::build(&[64u32; 8]);
        let m = MembershipTable::full_power(8);
        for k in 0..200u64 {
            let oid = ObjectId(k);
            let walk: Vec<ServerId> = ring.distinct_servers_from(object_position(oid)).collect();
            let p = place_original(&ring, &m, oid, 8).unwrap();
            assert_eq!(p.servers(), &walk[..], "oid {k}");
        }
    }

    #[test]
    fn original_skips_inactive() {
        let layout = Layout::uniform(10, 1000);
        let ring = layout.build_ring();
        let m = MembershipTable::active_prefix(10, 5);
        for k in 0..500u64 {
            let p = place_original(&ring, &m, ObjectId(k), 2).unwrap();
            for &s in p.servers() {
                assert!(m.is_active(s), "oid {k} placed on inactive {s}");
            }
        }
    }

    #[test]
    fn primary_places_exactly_one_replica_on_a_primary() {
        let (ring, layout) = setup(10);
        let m = MembershipTable::full_power(10);
        for k in 0..2000u64 {
            let p = place_primary(&ring, &layout, &m, ObjectId(k), 2).unwrap();
            assert_eq!(p.len(), 2);
            let primaries = p.primary_replicas(&layout).count();
            assert_eq!(primaries, 1, "oid {k}: placement {p}");
        }
    }

    #[test]
    fn primary_invariant_holds_for_r3_and_r4() {
        let (ring, layout) = setup(20);
        let m = MembershipTable::full_power(20);
        for r in [3usize, 4] {
            for k in 0..1000u64 {
                let p = place_primary(&ring, &layout, &m, ObjectId(k), r).unwrap();
                assert_eq!(p.len(), r);
                assert_eq!(p.primary_replicas(&layout).count(), 1, "r={r} oid {k}: {p}");
            }
        }
    }

    #[test]
    fn primary_placement_replicas_are_distinct_and_active() {
        let (ring, layout) = setup(10);
        let m = MembershipTable::active_prefix(10, 6);
        for k in 0..1000u64 {
            let p = place_primary(&ring, &layout, &m, ObjectId(k), 3).unwrap();
            let mut sorted = p.servers().to_vec();
            sorted.sort();
            sorted.dedup();
            assert_eq!(sorted.len(), 3);
            assert!(p.servers().iter().all(|&s| m.is_active(s)));
        }
    }

    #[test]
    fn scaling_down_to_primaries_only_keeps_data_available() {
        // With only the p primaries active and r = 2 <= p, the special
        // case kicks in: both replicas land on primaries.
        let (ring, layout) = setup(10);
        let p = layout.primary_count();
        assert_eq!(p, 2);
        let m = MembershipTable::active_prefix(10, p);
        for k in 0..300u64 {
            let pl = place_primary(&ring, &layout, &m, ObjectId(k), 2).unwrap();
            assert_eq!(pl.len(), 2);
            assert!(pl
                .servers()
                .iter()
                .all(|&s| layout.is_primary(s) && m.is_active(s)));
        }
    }

    #[test]
    fn scarce_secondaries_relax_to_at_least_one_primary() {
        // 3 active (2 primaries + 1 secondary), r = 3: only 1 active
        // secondary < r - 1 = 2, so primaries serve as secondaries and the
        // "exactly one" invariant relaxes to "at least one".
        let (ring, layout) = setup(10);
        let m = MembershipTable::active_prefix(10, 3);
        for k in 0..300u64 {
            let pl = place_primary(&ring, &layout, &m, ObjectId(k), 3).unwrap();
            assert_eq!(pl.len(), 3);
            assert!(pl.primary_replicas(&layout).count() >= 1);
        }
    }

    #[test]
    fn insufficient_active_servers_is_an_error() {
        let (ring, layout) = setup(10);
        let m = MembershipTable::active_prefix(10, 2);
        let err = place_primary(&ring, &layout, &m, ObjectId(1), 3).unwrap_err();
        assert_eq!(
            err,
            PlacementError::InsufficientActiveServers {
                needed: 3,
                active: 2
            }
        );
        let err = place_original(&ring, &m, ObjectId(1), 3).unwrap_err();
        assert!(matches!(
            err,
            PlacementError::InsufficientActiveServers { .. }
        ));
    }

    #[test]
    fn zero_replicas_is_an_error() {
        let (ring, layout) = setup(4);
        let m = MembershipTable::full_power(4);
        assert_eq!(
            place_primary(&ring, &layout, &m, ObjectId(1), 0),
            Err(PlacementError::ZeroReplicas)
        );
        assert_eq!(
            place_original(&ring, &m, ObjectId(1), 0),
            Err(PlacementError::ZeroReplicas)
        );
    }

    #[test]
    fn no_active_primary_still_replicates() {
        // Pathological membership (primaries off) — placement must still
        // produce r active distinct servers via the relaxed pass.
        let (ring, layout) = setup(10);
        let mut m = MembershipTable::full_power(10);
        for i in 0..layout.primary_count() {
            m = m.with_state(ServerId(i as u32), PowerState::Off);
        }
        for k in 0..200u64 {
            let pl = place_primary(&ring, &layout, &m, ObjectId(k), 2).unwrap();
            assert_eq!(pl.len(), 2);
            assert!(pl.servers().iter().all(|&s| m.is_active(s)));
        }
    }

    #[test]
    fn offloading_redirects_only_affected_replicas() {
        // Turning off the tail servers must not disturb replicas that were
        // already on active servers (the first-copy stability behind
        // selective re-integration).
        let (ring, layout) = setup(10);
        let full = MembershipTable::full_power(10);
        let small = MembershipTable::active_prefix(10, 8);
        let mut moved = 0usize;
        let mut total = 0usize;
        for k in 0..2000u64 {
            let a = place_primary(&ring, &layout, &full, ObjectId(k), 2).unwrap();
            let b = place_primary(&ring, &layout, &small, ObjectId(k), 2).unwrap();
            for (ra, rb) in a.servers().iter().zip(b.servers()) {
                total += 1;
                if ra != rb {
                    moved += 1;
                    // The replica moved because its full-power home is now
                    // inactive, or because an earlier replica's move
                    // re-shuffled the walk; the dominant cause is the
                    // former.
                }
            }
        }
        let frac = moved as f64 / total as f64;
        assert!(
            frac < 0.35,
            "too many replicas moved when 2 servers went off: {:.1}%",
            frac * 100.0
        );
    }

    #[test]
    fn strategy_dispatch() {
        let (ring, layout) = setup(10);
        let m = MembershipTable::full_power(10);
        let a = place(Strategy::Original, &ring, &layout, &m, ObjectId(5), 2).unwrap();
        let b = place_original(&ring, &m, ObjectId(5), 2).unwrap();
        assert_eq!(a, b);
        let c = place(Strategy::Primary, &ring, &layout, &m, ObjectId(5), 2).unwrap();
        let d = place_primary(&ring, &layout, &m, ObjectId(5), 2).unwrap();
        assert_eq!(c, d);
    }

    #[test]
    fn par_place_matches_serial() {
        let (ring, layout) = setup(10);
        let m = MembershipTable::full_power(10);
        let oids: Vec<ObjectId> = (0..500).map(ObjectId).collect();
        let par = par_place_many(Strategy::Primary, &ring, &layout, &m, &oids, 2);
        for (oid, res) in oids.iter().zip(par) {
            assert_eq!(
                res.unwrap(),
                place_primary(&ring, &layout, &m, *oid, 2).unwrap()
            );
        }
    }

    #[test]
    fn placement_is_deterministic() {
        let (ring, layout) = setup(10);
        let m = MembershipTable::active_prefix(10, 7);
        for k in 0..100u64 {
            let a = place_primary(&ring, &layout, &m, ObjectId(k), 3).unwrap();
            let b = place_primary(&ring, &layout, &m, ObjectId(k), 3).unwrap();
            assert_eq!(a, b);
        }
    }
}
