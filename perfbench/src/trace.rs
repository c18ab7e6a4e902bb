//! Outside-in layer tracing.
//!
//! The benchmark adds nothing inside the program. A traced client op is
//! timed as one `cluster.put` / `cluster.get` root span; right after it
//! returns, the tracer replays the op's layer calls through each layer's
//! public functions and times each as a child span of the same request
//! id. Replays that only read run against the live cluster's handles;
//! replays that write run against a shadow cluster built with the same
//! preload, so the measured state is left unchanged.
//!
//! Child spans therefore follow their root in time rather than nesting
//! inside it. A root's residual — its duration minus its children's —
//! is the `cluster` facade's own cost (rpc, retry, deadline and
//! bookkeeping), attributed per request, plus whatever the replays do
//! not reproduce: a get's second placement lookup, and the cost of a
//! placement-cache miss, since the replayed lookup follows the root and
//! always hits.

use crate::stats::quantile;
use bytes::Bytes;
use ech_cluster::{Cluster, KvDirtyTable, KvHeaderStore};
use ech_core::dirty::{DirtyEntry, DirtyTable, HeaderSource};
use ech_core::ids::ObjectId;
use ech_core::placement::Placement;
use std::collections::BTreeMap;
use std::hint::black_box;
use std::io::Write;
use std::time::Instant;

/// Root span names, one per op kind.
pub const PUT: &str = "cluster.put";
/// See [`PUT`].
pub const GET: &str = "cluster.get";

/// One timed call.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    /// Request id shared by a root and its children.
    pub req: u64,
    /// Layer call, e.g. `node.put`.
    pub name: &'static str,
    /// Name of the root span that caused this one; `None` for a root.
    pub parent: Option<&'static str>,
    /// Start, in ns since the run's epoch.
    pub start_ns: u64,
    /// End, in ns since the run's epoch.
    pub end_ns: u64,
}

impl Span {
    fn dur(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Per-client span recorder with a request budget.
pub struct Tracer<'a> {
    live: &'a Cluster,
    live_headers: KvHeaderStore,
    shadow: &'a Cluster,
    shadow_headers: KvHeaderStore,
    shadow_dirty: KvDirtyTable,
    next_req: u64,
    budget: usize,
    rec: Recorder,
}

/// The span list and the clock origin its times count from.
struct Recorder {
    epoch: Instant,
    spans: Vec<Span>,
}

impl Recorder {
    fn push(
        &mut self,
        req: u64,
        name: &'static str,
        parent: Option<&'static str>,
        t0: Instant,
        t1: Instant,
    ) {
        let ns = |t: Instant| t.duration_since(self.epoch).as_nanos() as u64;
        let span = Span {
            req,
            name,
            parent,
            start_ns: ns(t0),
            end_ns: ns(t1),
        };
        self.spans.push(span);
    }

    /// Time `f` as a child span of request `req`.
    fn child<T>(
        &mut self,
        req: u64,
        parent: &'static str,
        name: &'static str,
        f: impl FnOnce() -> T,
    ) -> T {
        let t0 = Instant::now();
        let out = black_box(f());
        let t1 = Instant::now();
        self.push(req, name, Some(parent), t0, t1);
        out
    }
}

impl<'a> Tracer<'a> {
    /// A tracer for one client; request ids start at `client << 40`, and
    /// at most `budget` requests are traced.
    pub fn new(
        live: &'a Cluster,
        shadow: &'a Cluster,
        epoch: Instant,
        client: u64,
        budget: usize,
    ) -> Self {
        Tracer {
            live,
            live_headers: KvHeaderStore::new(live.kv().clone()),
            shadow,
            shadow_headers: KvHeaderStore::new(shadow.kv().clone()),
            shadow_dirty: KvDirtyTable::new(shadow.kv().clone()),
            next_req: client << 40,
            budget,
            rec: Recorder {
                epoch,
                spans: Vec::with_capacity(budget * 6),
            },
        }
    }

    /// True while requests remain in the budget.
    pub fn active(&self) -> bool {
        self.budget > 0
    }

    /// The spans recorded so far, roots followed by their children.
    pub fn into_spans(self) -> Vec<Span> {
        self.rec.spans
    }

    fn root(&mut self, name: &'static str, t0: Instant, t1: Instant) -> u64 {
        self.budget -= 1;
        self.next_req += 1;
        self.rec.push(self.next_req, name, None, t0, t1);
        self.next_req
    }

    /// Record a put that ran from `t0` to `t1` and landed at `placement`,
    /// then replay its layer calls: the ring walk, one node store per
    /// replica, the header write and, for an offloaded write, the dirty
    /// append.
    pub fn put(
        &mut self,
        oid: ObjectId,
        data: &Bytes,
        placement: &Placement,
        t0: Instant,
        t1: Instant,
    ) {
        let req = self.root(PUT, t0, t1);
        let view = self.live.view_snapshot();
        let version = view.current_version();
        let dirty = view.write_is_dirty();
        let rec = &mut self.rec;
        rec.child(req, PUT, "view.place", || view.place_current(oid).is_ok());
        for &s in placement.servers() {
            let node = &self.shadow.nodes()[s.index()];
            rec.child(req, PUT, "node.put", || {
                node.put(oid, data.clone(), version, dirty).is_ok()
            });
        }
        let headers = &self.shadow_headers;
        rec.child(req, PUT, "headers.write", || {
            headers.record_write(oid, version, dirty)
        });
        if dirty {
            let table = &mut self.shadow_dirty;
            rec.child(req, PUT, "dirty.push", || {
                table.push_back(DirtyEntry::new(oid, version))
            });
        }
    }

    /// Record a get that ran from `t0` to `t1`, then replay its layer
    /// calls: the cached placement lookup, the header read and the node
    /// read at the first current replica.
    pub fn get(&mut self, oid: ObjectId, t0: Instant, t1: Instant) {
        let req = self.root(GET, t0, t1);
        let live = self.live;
        let rec = &mut self.rec;
        let placement = rec.child(req, GET, "cache.lookup", || live.locate(oid));
        let headers = &self.live_headers;
        rec.child(req, GET, "headers.lookup", || headers.header(oid));
        if let Some(&s) = placement.as_ref().ok().and_then(|p| p.servers().first()) {
            let node = &live.nodes()[s.index()];
            rec.child(req, GET, "node.get", || node.get(oid).is_ok());
        }
    }
}

/// Per-layer figures derived from a run's spans.
#[derive(Debug, Default)]
pub struct Attribution {
    /// Median duration (ns) and span count per child span name.
    pub layer_ns: BTreeMap<&'static str, (f64, u64)>,
    /// Median root duration (ns) per op kind.
    pub root_ns: BTreeMap<&'static str, f64>,
    /// Median per-request residual (ns) and request count per op kind.
    pub wrapper_ns: BTreeMap<&'static str, (f64, u64)>,
    /// Instrument errors: negative residuals and layer sums that do not
    /// reconcile with their root.
    pub errors: Vec<String>,
}

/// Largest gap allowed between a root's median and its layers' medians
/// plus the residual, as a share of the root's median.
pub const RECONCILE_TOLERANCE: f64 = 0.10;

/// The requests of one op kind.
#[derive(Default)]
struct Kind {
    root_ns: Vec<u64>,
    residual_ns: Vec<i64>,
    /// Child spans per layer call name.
    calls: BTreeMap<&'static str, u64>,
}

/// Attribute `spans` (roots each followed by their children) to layers
/// and check the attribution against the roots.
pub fn attribute(spans: &[Span]) -> Attribution {
    let mut layers: BTreeMap<&'static str, Vec<u64>> = BTreeMap::new();
    let mut kinds: BTreeMap<&'static str, Kind> = BTreeMap::new();
    let mut i = 0;
    while i < spans.len() {
        let root = spans[i];
        assert!(
            root.parent.is_none(),
            "span list must start each request with its root"
        );
        let mut j = i + 1;
        let mut children_ns = 0u64;
        let kind = kinds.entry(root.name).or_default();
        while j < spans.len() && spans[j].req == root.req {
            let child = spans[j];
            layers.entry(child.name).or_default().push(child.dur());
            *kind.calls.entry(child.name).or_default() += 1;
            children_ns += child.dur();
            j += 1;
        }
        kind.root_ns.push(root.dur());
        kind.residual_ns
            .push(root.dur() as i64 - children_ns as i64);
        i = j;
    }
    let mut out = Attribution::default();
    for (name, mut durs) in layers {
        let n = durs.len() as u64;
        out.layer_ns
            .insert(name, (quantile(&mut durs, 0.5).unwrap_or(0) as f64, n));
    }
    for (kind, mut k) in kinds {
        let requests = k.root_ns.len() as f64;
        let root = quantile(&mut k.root_ns, 0.5).unwrap_or(0) as f64;
        let wrapper = quantile(&mut k.residual_ns, 0.5).unwrap_or(0) as f64;
        let layer_sum: f64 = k
            .calls
            .iter()
            .map(|(name, &n)| out.layer_ns[name].0 * n as f64 / requests)
            .sum();
        if wrapper < 0.0 {
            out.errors.push(format!(
                "instrument error: {kind} median residual is {wrapper} ns (layers {layer_sum:.0} ns > root {root} ns)"
            ));
        }
        let gap = (layer_sum + wrapper - root).abs();
        if gap > RECONCILE_TOLERANCE * root {
            out.errors.push(format!(
                "instrument error: {kind} layers {layer_sum:.0} ns + residual {wrapper} ns do not reconcile with root {root} ns"
            ));
        }
        out.root_ns.insert(kind, root);
        out.wrapper_ns
            .insert(kind, (wrapper, k.root_ns.len() as u64));
    }
    out
}

/// Write `spans` as CSV to `path`, creating its directory.
pub fn write_spans(path: &std::path::Path, spans: &[Span]) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
    writeln!(w, "req,name,parent,start_ns,end_ns")?;
    for s in spans {
        writeln!(
            w,
            "{},{},{},{},{}",
            s.req,
            s.name,
            s.parent.unwrap_or("-"),
            s.start_ns,
            s.end_ns
        )?;
    }
    w.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(
        req: u64,
        name: &'static str,
        parent: Option<&'static str>,
        start: u64,
        end: u64,
    ) -> Span {
        Span {
            req,
            name,
            parent,
            start_ns: start,
            end_ns: end,
        }
    }

    #[test]
    fn residual_is_root_minus_children() {
        let spans = [
            span(1, PUT, None, 0, 100),
            span(1, "node.put", Some(PUT), 100, 130),
            span(1, "node.put", Some(PUT), 130, 160),
            span(1, "headers.write", Some(PUT), 160, 180),
        ];
        let a = attribute(&spans);
        assert_eq!(a.wrapper_ns[PUT], (20.0, 1));
        assert_eq!(a.layer_ns["node.put"], (30.0, 2));
        assert!(a.errors.is_empty(), "{:?}", a.errors);
    }

    #[test]
    fn negative_residual_is_an_instrument_error() {
        let spans = [
            span(1, GET, None, 0, 10),
            span(1, "node.get", Some(GET), 10, 40),
        ];
        let a = attribute(&spans);
        assert_eq!(a.wrapper_ns[GET], (-20.0, 1));
        assert!(
            a.errors.iter().any(|e| e.contains("residual")),
            "{:?}",
            a.errors
        );
    }
}
