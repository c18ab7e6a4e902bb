//! Ring placement scaling harness behind `ech bench placement`.
//!
//! Measures the paper's weighted hash ring at large scale — lookup
//! throughput through the full placement path ([`ClusterView::place_at`]
//! with the Primary strategy), resident ring memory, and the remap
//! fraction when the cluster sizes down to 80% active — and emits one
//! JSON report (`BENCH_placement.json`). The full run is the
//! million-key × 10³/10⁴-node grid; `--smoke` shrinks it to one
//! CI-sized section.
//!
//! Each section also carries two cross-checks of the remap fraction:
//! the fraction of keys that had a replica on a deactivated server
//! (minimal disruption says exactly those keys move) and the analytic
//! expectation from the layout's weights. [`run`] fails unless both
//! hold (see [`SectionReport::check_remap`]).
//!
//! Wall-clock timing is intentional here: this crate is a measurement
//! harness, not part of the deterministic placement/sim core, so the D1
//! no-wall-clock rule does not apply.

use ech_core::ids::ObjectId;
use ech_core::layout::Layout;
use ech_core::placement::{Placement, Strategy};
use ech_core::view::ClusterView;
use std::time::Instant;

/// Replication factor used for every measurement (the paper's r = 2).
pub const REPLICAS: usize = 2;

/// Vnode fairness base `B` (the paper's 10 000; it also satisfies
/// `B >= n` at the 10⁴-node section).
pub const LAYOUT_BASE: u32 = 10_000;

/// Largest allowed gap between the measured remap fraction and
/// [`SectionReport::remap_expected`].
pub const REMAP_TOLERANCE: f64 = 0.01;

/// The ring's numbers at one (nodes, keys) scale point.
#[derive(Debug, Clone, PartialEq)]
pub struct SectionReport {
    /// JSON section name (`smoke`, `nodes_1000`, `nodes_10000`).
    pub name: &'static str,
    /// Cluster size.
    pub nodes: usize,
    /// Distinct objects looked up.
    pub keys: usize,
    /// Full-power `place_at` throughput (lookups/sec, single thread).
    pub lookup_ops_per_sec: f64,
    /// Bytes of placement state the ring keeps resident.
    pub resident_bytes: usize,
    /// Keys whose replica set changed when the cluster sized down to
    /// 80% active servers.
    pub remapped_keys: usize,
    /// Keys that had a replica on a server the size-down deactivated.
    pub lost_replica_keys: usize,
    /// Analytic remap fraction: the deactivated secondaries' share of
    /// all secondary weight.
    pub remap_expected: f64,
}

impl SectionReport {
    /// Measured remap fraction.
    pub fn remap_fraction(&self) -> f64 {
        self.remapped_keys as f64 / self.keys as f64
    }

    /// Fraction of keys that had a replica on a deactivated server.
    pub fn lost_replica_fraction(&self) -> f64 {
        self.lost_replica_keys as f64 / self.keys as f64
    }

    /// The remap cross-check: exactly the keys that lost a replica
    /// moved (minimal disruption), and the remap fraction is within
    /// [`REMAP_TOLERANCE`] of the analytic expectation.
    pub fn check_remap(&self) -> Result<(), String> {
        if self.remapped_keys != self.lost_replica_keys {
            return Err(format!(
                "{}: {} keys remapped but {} had a replica on a deactivated server",
                self.name, self.remapped_keys, self.lost_replica_keys
            ));
        }
        let gap = (self.remap_fraction() - self.remap_expected).abs();
        if gap > REMAP_TOLERANCE {
            return Err(format!(
                "{}: remap fraction {:.4} is {gap:.4} from the expected {:.4}",
                self.name,
                self.remap_fraction(),
                self.remap_expected
            ));
        }
        Ok(())
    }
}

/// One full measurement pass.
#[derive(Debug, Clone, PartialEq)]
pub struct PlacementReport {
    /// `"smoke"` or `"full"`.
    pub smoke: bool,
    /// Measured sections.
    pub sections: Vec<SectionReport>,
}

impl PlacementReport {
    /// Hand-rolled JSON with a stable field order (the committed report
    /// is diffed across PRs, so ordering must not depend on a map).
    pub fn to_json(&self) -> String {
        let mut s = String::new();
        s.push_str("{\n");
        s.push_str(&format!(
            "  \"mode\": \"{}\",\n",
            if self.smoke { "smoke" } else { "full" }
        ));
        s.push_str(&format!("  \"replicas\": {REPLICAS},\n"));
        for (i, sec) in self.sections.iter().enumerate() {
            s.push_str(&format!("  \"{}\": {{\n", sec.name));
            s.push_str(&format!("    \"nodes\": {},\n", sec.nodes));
            s.push_str(&format!("    \"keys\": {},\n", sec.keys));
            s.push_str(&format!(
                "    \"ring_lookup_ops_per_sec\": {:.0},\n",
                sec.lookup_ops_per_sec
            ));
            s.push_str(&format!(
                "    \"ring_resident_bytes\": {},\n",
                sec.resident_bytes
            ));
            s.push_str(&format!(
                "    \"ring_remap_fraction\": {:.4},\n",
                sec.remap_fraction()
            ));
            s.push_str(&format!(
                "    \"ring_remap_expected\": {:.4},\n",
                sec.remap_expected
            ));
            s.push_str(&format!(
                "    \"ring_lost_replica_fraction\": {:.4}\n",
                sec.lost_replica_fraction()
            ));
            let comma = if i + 1 == self.sections.len() {
                ""
            } else {
                ","
            };
            s.push_str(&format!("  }}{comma}\n"));
        }
        s.push('}');
        s
    }
}

/// Measure the ring at one scale point.
fn measure_section(name: &'static str, nodes: usize, keys: usize) -> SectionReport {
    let layout = Layout::equal_work(nodes, LAYOUT_BASE.max(nodes as u32));
    let mut view = ClusterView::new(layout, Strategy::Primary, REPLICAS);

    // Warm the path (branch predictors, lazily-touched pages) before the
    // timed pass.
    for k in 0..(keys / 10).clamp(1, 10_000) {
        let _ = view.place_current(ObjectId(k as u64)).expect("warmup");
    }

    // Timed full-power lookups. The result is consumed but not stored:
    // pushing a million `Placement` vectors would time the allocator,
    // not the ring walk. Best-of-3 passes — on a shared box one pass can
    // be depressed by 20%+ by outside interference, and the max is the
    // estimate least polluted by it.
    let mut lookup_ops_per_sec = 0.0f64;
    for _ in 0..3 {
        let t = Instant::now();
        let mut sink = 0u64;
        for k in 0..keys {
            let p = view.place_current(ObjectId(k as u64)).expect("place");
            sink = sink.wrapping_add(p.servers()[0].index() as u64);
        }
        lookup_ops_per_sec = lookup_ops_per_sec.max(keys as f64 / t.elapsed().as_secs_f64());
        std::hint::black_box(sink);
    }

    // Untimed pass keeping the placements the remap count needs.
    let before: Vec<Placement> = (0..keys)
        .map(|k| view.place_current(ObjectId(k as u64)).expect("place"))
        .collect();

    let resident_bytes = view.ring().resident_bytes();

    // Size down to 80% active: the servers `active..` go dark. Those
    // are all secondaries (primaries are a prefix of ~n/e² servers), and
    // each key keeps exactly one replica on a secondary, so the expected
    // remap fraction is the dark servers' share of secondary weight.
    let active = (nodes * 4 / 5).max(1);
    let weights = view.layout().weights();
    let secondary_weight: u64 = weights[view.layout().primary_count()..]
        .iter()
        .map(|&w| u64::from(w))
        .sum();
    let dark_weight: u64 = weights[active..].iter().map(|&w| u64::from(w)).sum();
    let shrunk = view.resize(active);
    let (mut remapped_keys, mut lost_replica_keys) = (0, 0);
    for (k, was) in before.iter().enumerate() {
        let after = view.place_at(ObjectId(k as u64), shrunk).expect("place");
        remapped_keys += usize::from(after != *was);
        lost_replica_keys += usize::from(was.servers().iter().any(|s| s.index() >= active));
    }

    SectionReport {
        name,
        nodes,
        keys,
        lookup_ops_per_sec,
        resident_bytes,
        remapped_keys,
        lost_replica_keys,
        remap_expected: dark_weight as f64 / secondary_weight as f64,
    }
}

/// Run the full measurement. `smoke` shrinks the workload for CI. Fails
/// when a section's remap fraction fails [`SectionReport::check_remap`].
pub fn run(smoke: bool) -> Result<PlacementReport, String> {
    let sections = if smoke {
        vec![measure_section("smoke", 1_000, 20_000)]
    } else {
        vec![
            measure_section("nodes_1000", 1_000, 1_000_000),
            measure_section("nodes_10000", 10_000, 1_000_000),
        ]
    };
    for sec in &sections {
        sec.check_remap()?;
    }
    Ok(PlacementReport { smoke, sections })
}

/// Compare a fresh report against a committed reference JSON, failing
/// when the ring's lookup throughput regressed beyond `tolerance` in any
/// section both reports carry. Returns a human-readable verdict on
/// success.
pub fn check_against(
    fresh: &PlacementReport,
    reference_json: &str,
    tolerance: f64,
) -> Result<String, String> {
    let mut checked = 0usize;
    for sec in &fresh.sections {
        let field = "ring_lookup_ops_per_sec";
        let Some(reference) = extract_number(reference_json, sec.name, field) else {
            return Err(format!("reference JSON has no {}.{field}", sec.name));
        };
        let floor = reference * (1.0 - tolerance);
        if sec.lookup_ops_per_sec < floor {
            return Err(format!(
                "{} ring lookups regressed: {:.0} ops/s vs committed {reference:.0} (floor {floor:.0})",
                sec.name, sec.lookup_ops_per_sec
            ));
        }
        checked += 1;
    }
    Ok(format!(
        "placement check ok: {checked} ring lookup rates within {:.0}% of reference",
        tolerance * 100.0
    ))
}

/// Pull `"field": <number>` out of the named top-level section of the
/// committed report. Deliberately string-based: the reference file is
/// machine-written by this same module, so a full JSON parser would only
/// add surface area.
fn extract_number(json: &str, section: &str, field: &str) -> Option<f64> {
    let sec_key = format!("\"{section}\"");
    let start = json.find(&sec_key)?;
    let tail = &json[start..];
    let field_key = format!("\"{field}\"");
    let f = tail.find(&field_key)?;
    let after = &tail[f + field_key.len()..];
    let colon = after.find(':')?;
    let rest = after[colon + 1..].trim_start();
    let end = rest
        .find(|c: char| {
            !(c.is_ascii_digit() || c == '.' || c == '-' || c == 'e' || c == 'E' || c == '+')
        })
        .unwrap_or(rest.len());
    rest[..end].parse().ok()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_report() -> PlacementReport {
        PlacementReport {
            smoke: true,
            sections: vec![SectionReport {
                name: "smoke",
                nodes: 16,
                keys: 64,
                lookup_ops_per_sec: 1000.0,
                resident_bytes: 64,
                remapped_keys: 16,
                lost_replica_keys: 16,
                remap_expected: 0.25,
            }],
        }
    }

    #[test]
    fn json_report_round_trips_through_the_checker() {
        let r = tiny_report();
        let json = r.to_json();
        for field in [
            "ring_lookup_ops_per_sec",
            "ring_resident_bytes",
            "ring_remap_fraction",
            "ring_remap_expected",
            "ring_lost_replica_fraction",
        ] {
            assert!(json.contains(&format!("\"{field}\"")), "{field}");
        }
        assert_eq!(
            extract_number(&json, "smoke", "ring_remap_fraction"),
            Some(0.25)
        );
        assert!(check_against(&r, &json, 0.25).is_ok());
        let mut slow = r.clone();
        slow.sections[0].lookup_ops_per_sec = 1.0;
        assert!(check_against(&slow, &json, 0.25).is_err());
        // A reference missing the section fails loudly, not silently.
        assert!(check_against(&r, "{}", 0.25).is_err());
    }

    #[test]
    fn remap_check_rejects_extra_moves_and_drift() {
        let ok = tiny_report().sections.remove(0);
        assert!(ok.check_remap().is_ok());
        let extra = SectionReport {
            remapped_keys: 17,
            ..ok.clone()
        };
        assert!(extra.check_remap().is_err());
        let drift = SectionReport {
            remap_expected: 0.25 + 2.0 * REMAP_TOLERANCE,
            ..ok
        };
        assert!(drift.check_remap().is_err());
    }

    #[test]
    fn smoke_sized_measurement_produces_sane_numbers() {
        // A miniature run through the real measurement path, tiny key
        // count so the test stays fast.
        let sec = measure_section("smoke", 50, 400);
        assert!(sec.lookup_ops_per_sec > 0.0);
        assert!(sec.resident_bytes > 0);
        // Minimal disruption holds exactly at any size: a key moves iff
        // one of its replicas sat on a deactivated server.
        assert_eq!(sec.remapped_keys, sec.lost_replica_keys);
        // 400 keys are too few for the 0.01 expectation bound; a 20%
        // size-down must still move roughly the dark servers' share.
        assert!(
            (sec.remap_fraction() - sec.remap_expected).abs() < 0.1,
            "remap {:.3} vs expected {:.3}",
            sec.remap_fraction(),
            sec.remap_expected
        );
        assert!(sec.remap_fraction() < 0.5);
    }
}
