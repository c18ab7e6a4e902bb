//! Property-based tests over the core invariants.
//!
//! These encode the paper's guarantees as properties over randomly drawn
//! cluster shapes, replication factors, memberships and object ids:
//!
//! * Algorithm 1 places exactly one replica on a primary whenever enough
//!   secondaries are active, and never loses the replication level;
//! * placements are deterministic, distinct and active-only, and a
//!   serde round-trip of the view leaves them unchanged;
//! * a size-down moves exactly the keys that had a replica on a
//!   deactivated server (minimal disruption);
//! * equal-work weights are monotone in rank and sum close to their ideal;
//! * membership histories resolve every recorded version;
//! * applying Algorithm 2's moves to the write-time placement yields the
//!   current placement exactly (re-integration converges);
//! * the token bucket never grants more than `rate · t + burst`.

use ech_core::placement::Strategy as PlacementStrategy;
use ech_core::prelude::*;
use proptest::prelude::*;
use proptest::strategy::Strategy as _;

/// Strategy for a cluster shape: (n, B, r) with n >= r and B >= n.
fn cluster_shape() -> impl proptest::strategy::Strategy<Value = (usize, u32, usize)> {
    (3usize..60, 1usize..4).prop_flat_map(|(n, r_seed)| {
        let r = (r_seed % n.min(3)) + 1; // 1..=3, <= n
        let b = (n as u32 * 50)..(n as u32 * 400);
        (Just(n), b, Just(r))
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn primary_placement_invariants((n, b, r) in cluster_shape(), oid in 0u64..1_000_000, active_frac in 0.2f64..1.0) {
        let layout = Layout::equal_work(n, b);
        let ring = layout.build_ring();
        let p = layout.primary_count();
        // Active prefix, at least r servers and at least the primaries.
        let min_active = r.max(1);
        let active = ((n as f64 * active_frac) as usize).clamp(min_active, n);
        let m = MembershipTable::active_prefix(n, active);

        let placement = place_primary(&ring, &layout, &m, ObjectId(oid), r).unwrap();

        // Replication level always met, all replicas active and distinct.
        prop_assert_eq!(placement.len(), r);
        let mut servers = placement.servers().to_vec();
        servers.sort();
        servers.dedup();
        prop_assert_eq!(servers.len(), r);
        for &s in placement.servers() {
            prop_assert!(m.is_active(s));
        }

        // Primary invariant: exactly one on a primary when secondaries
        // suffice, at least one otherwise (as long as a primary is active,
        // which active-prefix memberships guarantee).
        let active_secondaries = active.saturating_sub(p.min(active));
        let on_primary = placement.primary_replicas(&layout).count();
        if active_secondaries >= r - 1 {
            prop_assert_eq!(on_primary, 1, "n={} p={} r={} active={}", n, p, r, active);
        } else {
            prop_assert!(on_primary >= 1);
        }
    }

    #[test]
    fn original_placement_invariants((n, b, r) in cluster_shape(), oid in 0u64..1_000_000) {
        let layout = Layout::uniform(n, b);
        let ring = layout.build_ring();
        let m = MembershipTable::full_power(n);
        let placement = place_original(&ring, &m, ObjectId(oid), r).unwrap();
        prop_assert_eq!(placement.len(), r);
        let mut servers = placement.servers().to_vec();
        servers.sort();
        servers.dedup();
        prop_assert_eq!(servers.len(), r);
    }

    #[test]
    fn placement_is_pure((n, b, r) in cluster_shape(), oid in 0u64..1_000_000) {
        let layout = Layout::equal_work(n, b);
        let ring = layout.build_ring();
        let m = MembershipTable::full_power(n);
        let a = place_primary(&ring, &layout, &m, ObjectId(oid), r).unwrap();
        let b2 = place_primary(&ring, &layout, &m, ObjectId(oid), r).unwrap();
        prop_assert_eq!(a, b2);
    }

    #[test]
    fn view_placement_survives_serde_round_trip(
        (n, b, r) in cluster_shape(),
        oid_base in 0u64..1_000_000,
        active_frac in 0.2f64..1.0,
    ) {
        let mut view = ClusterView::new(Layout::equal_work(n, b), PlacementStrategy::Primary, r);
        let active = ((n as f64 * active_frac) as usize).clamp(r, n);
        view.resize(active);
        let json = serde_json::to_string(&view).expect("serialize view");
        let back: ClusterView = serde_json::from_str(&json).expect("deserialize view");
        // A coordinator restart must not remap: every recorded version
        // places identically on the deserialised view.
        for k in 0..32u64 {
            let oid = ObjectId(oid_base + k);
            for version in [VersionId(1), view.current_version()] {
                prop_assert_eq!(view.place_at(oid, version), back.place_at(oid, version));
            }
        }
    }

    #[test]
    fn size_down_only_moves_keys_that_lost_a_replica(
        (n, b, r) in cluster_shape(),
        oid_base in 0u64..1_000_000,
    ) {
        let mut view = ClusterView::new(Layout::equal_work(n, b), PlacementStrategy::Primary, r);
        // Keep the placement regime identical across the resize (all
        // primaries active, secondaries plentiful), so only individual
        // servers' availability changes: a key then moves iff it held a
        // replica on a deactivated server.
        let down = ((n * 4) / 5).max(view.layout().primary_count() + r);
        if down >= n {
            // Too small to size down without changing the regime.
            return Ok(());
        }
        let full = view.current_version();
        view.resize(down);
        for k in 0..64u64 {
            let oid = ObjectId(oid_base + k);
            let before = view.place_at(oid, full).unwrap();
            let after = view.place_current(oid).unwrap();
            let lost = before
                .servers()
                .iter()
                .any(|&s| !view.current_membership().is_active(s));
            if lost {
                prop_assert!(after != before, "inactive replica must be offloaded");
            } else {
                prop_assert_eq!(&after, &before, "key with intact replicas must not move");
            }
        }
    }

    #[test]
    fn equal_work_weights_monotone(n in 1usize..200, mult in 10u32..100) {
        let b = n as u32 * mult;
        let layout = Layout::equal_work(n, b);
        let w = layout.weights();
        for i in 1..n {
            prop_assert!(w[i - 1] >= w[i]);
        }
        prop_assert!(w.iter().all(|&x| x >= 1));
        // p matches the formula.
        let e2 = std::f64::consts::E * std::f64::consts::E;
        prop_assert_eq!(layout.primary_count(), ((n as f64 / e2).ceil() as usize).max(1));
    }

    #[test]
    fn membership_history_resolves_all_versions(n in 2usize..40, sizes in proptest::collection::vec(1usize..40, 1..20)) {
        let mut h = MembershipHistory::new(MembershipTable::full_power(n));
        let mut expected = vec![n];
        for s in sizes {
            let k = s.clamp(1, n);
            h.record(MembershipTable::active_prefix(n, k));
            expected.push(k);
        }
        for (i, &k) in expected.iter().enumerate() {
            let v = VersionId(i as u64 + 1);
            prop_assert_eq!(h.active_count(v), k);
        }
        prop_assert_eq!(h.current_version(), VersionId(expected.len() as u64));
    }

    #[test]
    fn reintegration_moves_converge_to_current_placement(
        (n, b, r) in cluster_shape(),
        writes in proptest::collection::vec(0u64..100_000, 1..60),
        down_frac in 0.3f64..0.9,
    ) {
        // Write objects while scaled down, then size back up to full and
        // apply each task's moves to the write-time placement: the result
        // must equal the current placement, and the dirty table must end
        // empty.
        let layout = Layout::equal_work(n, b);
        let mut view = ClusterView::new(layout, PlacementStrategy::Primary, r);
        let down = ((n as f64 * down_frac) as usize).clamp(r, n);
        view.resize(down);
        let wver = view.current_version();

        let mut dirty = InMemoryDirtyTable::new();
        let mut unique = writes.clone();
        unique.sort();
        unique.dedup();
        for &w in &unique {
            dirty.push_back(DirtyEntry::new(ObjectId(w), wver));
        }
        view.resize(n); // full power

        let mut engine = Reintegrator::new();
        let tasks = engine.drain(&view, &mut dirty, &NoHeaders);
        prop_assert!(dirty.is_empty());

        use std::collections::BTreeSet;
        for t in tasks {
            let mut replicas: BTreeSet<ServerId> = t.from.servers().iter().copied().collect();
            for m in &t.moves {
                prop_assert!(replicas.remove(&m.from), "move source not held");
                prop_assert!(replicas.insert(m.to), "move target already held");
            }
            let want: BTreeSet<ServerId> = t.to.servers().iter().copied().collect();
            prop_assert_eq!(replicas, want);
        }
    }

    #[test]
    fn token_bucket_never_exceeds_budget(rate in 1.0f64..1e6, burst in 1.0f64..1e6, steps in proptest::collection::vec((0.0f64..0.5, 0.0f64..1e6), 1..100)) {
        let mut bucket = TokenBucket::new(rate, burst);
        let mut granted = 0.0;
        let mut elapsed = 0.0;
        for (dt, want) in steps {
            bucket.refill(dt);
            elapsed += dt;
            granted += bucket.consume_up_to(want);
            prop_assert!(granted <= rate * elapsed + burst + 1e-6,
                "granted {} > budget {}", granted, rate * elapsed + burst);
        }
    }

    #[test]
    fn ring_ownership_sums_to_one(n in 1usize..50, mult in 20u32..200) {
        let layout = Layout::equal_work(n, n as u32 * mult);
        let ring = layout.build_ring();
        let own = ring.ownership_fractions();
        let sum: f64 = own.iter().sum();
        prop_assert!((sum - 1.0).abs() < 1e-9);
    }

    #[test]
    fn adding_tail_server_disrupts_few_placements(n in 5usize..30, oid_base in 0u64..1_000_000) {
        // Minimal-disruption (Figure 1): compare uniform rings of n and
        // n+1 servers; moved first-copies should be well under 3/(n+1)
        // (expected 1/(n+1)).
        let before = Layout::uniform(n, 4000).build_ring();
        let after = Layout::uniform(n + 1, 4000).build_ring();
        let mb = MembershipTable::full_power(n);
        let ma = MembershipTable::full_power(n + 1);
        let keys = 600u64;
        let mut moved = 0u32;
        for k in 0..keys {
            let oid = ObjectId(oid_base + k);
            let b = place_original(&before, &mb, oid, 1).unwrap();
            let a = place_original(&after, &ma, oid, 1).unwrap();
            if a.servers()[0] != b.servers()[0] {
                moved += 1;
            }
        }
        let frac = moved as f64 / keys as f64;
        prop_assert!(frac < 3.0 / (n as f64 + 1.0), "moved {:.3} for n={}", frac, n);
    }
}
