//! Running one workload: set-up, the closed-loop phases, the elastic
//! cycle, the correctness checks and, in a traced run, the layer probes.

use crate::stats::{median, peak_rss_mb, quantile, Hist};
use crate::stream::{is_payload, partition, payload, Inputs, Op, PAYLOAD_BYTES};
use crate::trace::{self, Span, Tracer};
use ech_cluster::{Cluster, ClusterConfig, KvDirtyTable, KvHeaderStore, ReintegrationStats};
use ech_core::dirty::DirtyTable;
use ech_core::engine::EngineKind;
use ech_core::reintegration::Reintegrator;
use ech_core::stats::{CacheSnapshot, PathSnapshot};
use ech_kvstore::KvStore;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Set-ups per full-power run; `setup_s` is their median.
const SETUPS: usize = 3;
/// Fewest half-power rewrite-and-drain cycles after each set-up's
/// full-power phase; more run until the drains have taken
/// [`TAIL_DRAIN_SHARE`] of that phase's length.
const TAIL_CYCLES: usize = 2;
/// See [`TAIL_CYCLES`].
const TAIL_DRAIN_SHARE: f64 = 0.2;
/// Measurement windows per set-up's share of the full-power phase.
const FG_WINDOWS: usize = 4;
/// Fewest elastic cycles per `elastic-cycle` run: the drain's pace on
/// two hardware threads shared with the foreground reader swings between
/// cycles, so its median needs several.
const MIN_CYCLES: usize = 5;
/// Length of one measurement window of the drain-time reader; a last
/// window shorter than half of this is dropped.
const READ_WINDOW: Duration = Duration::from_millis(500);
/// Keys read once after preload so the placement cache starts warm
/// (twice its capacity, or every key).
const WARM_KEYS: usize = 131_072;
/// Requests traced per client and phase; spans stay in memory until
/// the run ends.
const TRACE_BUDGET: usize = 50_000;
/// Tracer client ids of the elastic cycle's writer and reader, after
/// the full-power clients' ids, so request ids stay unique in a run.
const REWRITER: u64 = 2;
/// See [`REWRITER`].
const READER: u64 = 3;
/// Header writes per thread in the two-thread header probe.
const HEADER_PROBE_WRITES: usize = 100_000;

/// One reported figure.
#[derive(Debug, Clone)]
pub struct Metric {
    /// Metric name, as in `BENCHMARK.json`.
    pub name: &'static str,
    /// Measured value.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
    /// Samples the value summarises.
    pub samples: u64,
}

/// A run's result.
#[derive(Debug, Default)]
pub struct Report {
    /// Client ops issued.
    pub attempted: u64,
    /// Client ops that failed or returned a wrong payload.
    pub failed: u64,
    /// Metrics in output order.
    pub metrics: Vec<Metric>,
    /// Invariant violations and instrument errors; any makes the run
    /// incorrect.
    pub errors: Vec<String>,
    /// Extra `# key=value` lines for the human-readable output.
    pub notes: Vec<String>,
    /// Spans of a traced run.
    pub spans: Vec<Span>,
}

impl Report {
    fn metric(&mut self, name: &'static str, value: f64, unit: &'static str, samples: u64) {
        self.metrics.push(Metric {
            name,
            value,
            unit,
            samples,
        });
    }
}

/// The cluster configuration every workload runs: the paper's shape
/// with the placement engine pinned to the ring, whatever
/// `ECH_PLACEMENT` says.
pub fn config() -> ClusterConfig {
    ClusterConfig {
        placement: EngineKind::Ring,
        ..ClusterConfig::paper()
    }
}

/// Client-side tally of one phase.
#[derive(Debug, Default)]
struct Tally {
    attempted: u64,
    failed: u64,
    put_ns: Hist,
    get_ns: Hist,
    first_error: Option<String>,
}

impl Tally {
    fn absorb(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.put_ns.absorb(&other.put_ns);
        self.get_ns.absorb(&other.get_ns);
        if self.first_error.is_none() {
            self.first_error = other.first_error;
        }
    }

    fn fail(&mut self, what: String) {
        self.failed += 1;
        self.first_error.get_or_insert(what);
    }
}

fn ns(t0: Instant, t1: Instant) -> u32 {
    u32::try_from(t1.duration_since(t0).as_nanos()).unwrap_or(u32::MAX)
}

/// One closed-loop client: issues an op, waits for it, checks it.
struct Client<'a> {
    cluster: &'a Cluster,
    inputs: &'a Inputs,
    scratch: Vec<u8>,
    tally: Tally,
    tracer: Option<Tracer<'a>>,
}

impl<'a> Client<'a> {
    fn new(cluster: &'a Cluster, inputs: &'a Inputs, tracer: Option<Tracer<'a>>) -> Self {
        Client {
            cluster,
            inputs,
            scratch: vec![0; PAYLOAD_BYTES],
            tally: Tally::default(),
            tracer,
        }
    }

    fn tracing(&self) -> bool {
        self.tracer.as_ref().is_some_and(Tracer::active)
    }

    /// Overwrite key `key`, advancing `seq` once the put is acknowledged.
    fn put(&mut self, key: usize, seq: &mut u32) {
        let oid = self.inputs.oid(key);
        let data = payload(oid, *seq + 1);
        let kept = self.tracing().then(|| data.clone());
        let t0 = Instant::now();
        let result = self.cluster.put(oid, data);
        let t1 = Instant::now();
        self.tally.attempted += 1;
        self.tally.put_ns.record(ns(t0, t1));
        match result {
            Ok(placement) => {
                *seq += 1;
                if let (Some(tracer), Some(data)) = (self.tracer.as_mut(), kept) {
                    tracer.put(oid, &data, &placement, t0, t1);
                }
            }
            Err(e) => self.tally.fail(format!("put {oid:?}: {e}")),
        }
    }

    /// Read key `key` and check it holds the payload of write `seq`.
    fn get(&mut self, key: usize, seq: u32) {
        let oid = self.inputs.oid(key);
        let t0 = Instant::now();
        let result = self.cluster.get(oid);
        let t1 = Instant::now();
        self.tally.attempted += 1;
        self.tally.get_ns.record(ns(t0, t1));
        match result {
            Ok(data) if is_payload(&data, oid, seq, &mut self.scratch) => {
                if self.tracing() {
                    if let Some(tracer) = self.tracer.as_mut() {
                        tracer.get(oid, t0, t1);
                    }
                }
            }
            Ok(_) => self
                .tally
                .fail(format!("get {oid:?}: wrong payload (want seq {seq})")),
            Err(e) => self.tally.fail(format!("get {oid:?}: {e}")),
        }
    }

    fn finish(self, spans: &mut Vec<Span>) -> Tally {
        if let Some(t) = self.tracer {
            spans.extend(t.into_spans());
        }
        self.tally
    }
}

/// Counters read from the cluster's public accessors.
#[derive(Debug, Clone, Copy, Default)]
struct Counts {
    cache: CacheSnapshot,
    path: PathSnapshot,
    node_reads: u64,
    node_writes: u64,
}

impl Counts {
    fn read(c: &Cluster) -> Self {
        let (node_reads, node_writes) = c
            .nodes()
            .iter()
            .map(|n| n.op_counts())
            .fold((0, 0), |(r, w), (nr, nw)| (r + nr, w + nw));
        Counts {
            cache: c.cache_stats(),
            path: c.counters(),
            node_reads,
            node_writes,
        }
    }

    /// Add `after - before` into `self`.
    fn add_delta(&mut self, before: Counts, after: Counts) {
        let (a, b) = (&after.cache, &before.cache);
        self.cache.hits += a.hits - b.hits;
        self.cache.misses += a.misses - b.misses;
        self.cache.shard_contention += a.shard_contention - b.shard_contention;
        self.cache.epoch_evictions += a.epoch_evictions - b.epoch_evictions;
        self.path.retries += after.path.retries - before.path.retries;
        self.path.quorum_acks += after.path.quorum_acks - before.path.quorum_acks;
        self.node_reads += after.node_reads - before.node_reads;
        self.node_writes += after.node_writes - before.node_writes;
    }
}

/// Counter deltas over the untraced client windows of a traced run.
#[derive(Debug, Default)]
struct Windows {
    counts: Counts,
    puts: u64,
    gets: u64,
    /// Replica moves that ran inside the windows (each is one node read
    /// and one node write that no client op caused).
    moves: u64,
}

/// What one half-power rewrite and drain measured.
#[derive(Debug, Default)]
struct CycleOut {
    rewrite: Tally,
    reader: Tally,
    /// The drain-time reader's measurement windows.
    windows: Vec<Window>,
    rewrite_s: f64,
    drain_s: f64,
    entries: usize,
    stats: ReintegrationStats,
}

/// One measurement window's end-to-end figures, each with the number
/// of samples behind it; NaN where the window has no such samples.
#[derive(Debug)]
struct Window {
    throughput: (f64, u64),
    get_p50: (f64, u64),
    get_p99: (f64, u64),
    put_p50: (f64, u64),
    put_p99: (f64, u64),
}

impl Window {
    /// Figures of the ops in `tally`, which took `secs` when the window
    /// measures throughput.
    fn new(tally: &Tally, secs: Option<f64>) -> Self {
        let q = |samples: &Hist, q: f64| {
            let v = samples
                .clone()
                .quantile(q)
                .map_or(f64::NAN, |x| f64::from(x) / 1e3);
            (v, samples.len())
        };
        let ops = tally.attempted;
        Window {
            throughput: (secs.map_or(f64::NAN, |s| ops as f64 / s), ops),
            get_p50: q(&tally.get_ns, 0.5),
            get_p99: q(&tally.get_ns, 0.99),
            put_p50: q(&tally.put_ns, 0.5),
            put_p99: q(&tally.put_ns, 0.99),
        }
    }
}

/// Layer probes of a traced drain.
#[derive(Debug, Default)]
struct DrainProbe {
    pop_ns_per_entry: f64,
    plan_ns_per_task: f64,
    tasks: usize,
    planned_moves: usize,
    heal_s: f64,
    batch_ns: Vec<u32>,
}

/// One workload run.
pub struct Bench<'a> {
    inputs: &'a Inputs,
    cfg: ClusterConfig,
    seconds: f64,
    epoch: Instant,
    report: Report,
}

impl<'a> Bench<'a> {
    /// A run of `inputs` measuring for `seconds`.
    pub fn new(inputs: &'a Inputs, seconds: f64) -> Self {
        Bench {
            inputs,
            cfg: config(),
            seconds,
            epoch: Instant::now(),
            report: Report::default(),
        }
    }

    fn error(&mut self, msg: String) {
        eprintln!("error: {msg}");
        self.report.errors.push(msg);
    }

    /// Build a cluster (and optionally a shadow) with the workload's
    /// preload, warm the placement cache, and return them with the
    /// expected write sequence of every key.
    ///
    /// Set-up runs on the calling thread. Spread over client threads it
    /// would leave the preload in per-thread heap arenas that the later
    /// client threads may or may not inherit, and put tails then swing
    /// between runs with page faults on fresh arena memory.
    fn setup(&mut self, shadow: bool) -> (Arc<Cluster>, Option<Arc<Cluster>>, Vec<u32>) {
        let live = Cluster::new(self.cfg.clone());
        let shadow = shadow.then(|| Cluster::new(self.cfg.clone()));
        for key in 0..self.inputs.spec.objects {
            let oid = self.inputs.oid(key);
            let data = payload(oid, 0);
            for c in std::iter::once(&live).chain(shadow.as_ref()) {
                c.put(oid, data.clone()).expect("preload put at full power");
            }
        }
        let mut scratch = vec![0; PAYLOAD_BYTES];
        for key in 0..self.inputs.spec.objects.min(WARM_KEYS) {
            let oid = self.inputs.oid(key);
            let ok = live
                .get(oid)
                .is_ok_and(|d| is_payload(&d, oid, 0, &mut scratch));
            if !ok {
                self.error(format!(
                    "warm-up read of {oid:?} did not return its preload"
                ));
                break;
            }
        }
        (live, shadow, vec![0; self.inputs.spec.objects])
    }

    /// The full-power closed loop: every client runs its op stream over
    /// its own key partition for `seconds`, split into `windows` equal
    /// windows with a tally each (traced, a client also stops once its
    /// request budget is spent). Returns each window's tally, all
    /// clients merged, and its length in seconds.
    fn foreground(
        &self,
        live: &Cluster,
        shadow: Option<&Cluster>,
        seqs: &mut [u32],
        seconds: f64,
        windows: usize,
        spans: &mut Vec<Span>,
    ) -> Vec<(Tally, f64)> {
        let inputs = self.inputs;
        let mut parts = Vec::new();
        let mut rest = seqs;
        for c in 0..inputs.clients {
            let (part, tail) =
                rest.split_at_mut(partition(inputs.spec.objects, inputs.clients, c).len());
            parts.push(part);
            rest = tail;
        }
        let epoch = self.epoch;
        let window = Duration::from_secs_f64(seconds / windows as f64);
        let start = Instant::now();
        let outs: Vec<(Vec<Tally>, Vec<Span>)> = std::thread::scope(|s| {
            let handles: Vec<_> = parts
                .into_iter()
                .enumerate()
                .map(|(c, seqs)| {
                    let stream: &[Op] = &inputs.streams[c];
                    let base = partition(inputs.spec.objects, inputs.clients, c).start;
                    s.spawn(move || {
                        let tracer =
                            shadow.map(|sh| Tracer::new(live, sh, epoch, c as u64, TRACE_BUDGET));
                        let mut client = Client::new(live, inputs, tracer);
                        let traced = client.tracer.is_some();
                        let mut tallies = Vec::with_capacity(windows);
                        let mut ends = (1..=windows as u32).map(|w| start + window * w);
                        let mut end = ends.next();
                        'run: loop {
                            for chunk in stream.chunks(64) {
                                for &op in chunk {
                                    if op.is_put() {
                                        client.put(base + op.key(), &mut seqs[op.key()]);
                                    } else {
                                        client.get(base + op.key(), seqs[op.key()]);
                                    }
                                }
                                let now = Instant::now();
                                if traced && !client.tracing() {
                                    tallies.push(std::mem::take(&mut client.tally));
                                    break 'run;
                                }
                                while end.is_some_and(|e| now >= e) {
                                    tallies.push(std::mem::take(&mut client.tally));
                                    end = ends.next();
                                }
                                if end.is_none() {
                                    break 'run;
                                }
                            }
                        }
                        let mut spans = Vec::new();
                        client.finish(&mut spans);
                        (tallies, spans)
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("client thread panicked"))
                .collect()
        });
        let elapsed = start.elapsed().as_secs_f64();
        let mut merged: Vec<Tally> = Vec::new();
        for (tallies, s) in outs {
            for (w, tally) in tallies.into_iter().enumerate() {
                if merged.len() <= w {
                    merged.push(Tally::default());
                }
                merged[w].absorb(tally);
            }
            spans.extend(s);
        }
        let len = if merged.len() == windows {
            window.as_secs_f64()
        } else {
            elapsed
        };
        merged.into_iter().map(|t| (t, len)).collect()
    }

    /// One elastic cycle on `live`: size down to half power, rewrite
    /// `order` (offloaded and dirty-logged), size back up, and drain —
    /// with one client reading throughout when the workload says so.
    /// Traced (`shadow` given), the rewrite and reads record spans and
    /// the drain is replayed batch by batch under the layer probes.
    fn cycle(
        &mut self,
        live: &Cluster,
        shadow: Option<&Cluster>,
        seqs: &mut [u32],
        order: &[u32],
        windows: Option<&mut Windows>,
        spans: &mut Vec<Span>,
    ) -> (CycleOut, Option<DrainProbe>) {
        let inputs = self.inputs;
        let servers = self.cfg.servers;
        let mut out = CycleOut::default();
        live.resize(servers / 2);

        let before = Counts::read(live);
        let tracer = shadow.map(|sh| Tracer::new(live, sh, self.epoch, REWRITER, TRACE_BUDGET));
        let mut writer = Client::new(live, inputs, tracer);
        let t0 = Instant::now();
        for &key in order {
            writer.put(key as usize, &mut seqs[key as usize]);
        }
        out.rewrite_s = t0.elapsed().as_secs_f64();
        out.rewrite = writer.finish(spans);
        let mut window = Counts::default();
        window.add_delta(before, Counts::read(live));

        out.entries = live.dirty_len();
        let offloaded = out.rewrite.attempted - out.rewrite.failed;
        if out.entries as u64 != offloaded {
            self.error(format!(
                "dirty.entries_logged {} != offloaded puts {offloaded}",
                out.entries
            ));
        }
        live.resize(servers);
        let probe = shadow.map(|_| self.plan_probe(live));

        let seqs: &[u32] = seqs;
        let batch = self.cfg.reintegration_batch;
        let stop = AtomicBool::new(false);
        let before = Counts::read(live);
        let epoch = self.epoch;
        let (drain, reader) = std::thread::scope(|s| {
            let reader = inputs.spec.reader_during_drain.then(|| {
                let stop = &stop;
                s.spawn(move || {
                    let tracer =
                        shadow.map(|sh| Tracer::new(live, sh, epoch, READER, TRACE_BUDGET));
                    let mut client = Client::new(live, inputs, tracer);
                    let (mut merged, mut windows) = (Tally::default(), Vec::new());
                    let mut start = Instant::now();
                    'run: loop {
                        for chunk in inputs.reader.chunks(64) {
                            for &key in chunk {
                                client.get(key as usize, seqs[key as usize]);
                            }
                            let stopped = stop.load(Ordering::SeqCst);
                            let now = Instant::now();
                            let len = now - start;
                            if stopped || len >= READ_WINDOW {
                                let tally = std::mem::take(&mut client.tally);
                                if len >= READ_WINDOW / 2 {
                                    windows.push(Window::new(&tally, Some(len.as_secs_f64())));
                                }
                                merged.absorb(tally);
                                start = now;
                            }
                            if stopped {
                                break 'run;
                            }
                        }
                    }
                    let mut spans = Vec::new();
                    merged.absorb(client.finish(&mut spans));
                    (merged, windows, spans)
                })
            });
            let t0 = Instant::now();
            let drain = match probe {
                None => (live.reintegrate_all(), None),
                Some(p) => {
                    let (stats, p) = replay_drain(live, p, batch);
                    (stats, Some(p))
                }
            };
            let drain_s = t0.elapsed().as_secs_f64();
            stop.store(true, Ordering::SeqCst);
            let reader = reader.map(|h| h.join().expect("reader thread panicked"));
            ((drain, drain_s), reader)
        });
        let ((stats, probe), drain_s) = drain;
        out.stats = stats;
        out.drain_s = drain_s;
        if let Some((tally, w, s)) = reader {
            out.reader = tally;
            out.windows.extend(w);
            spans.extend(s);
        }
        window.add_delta(before, Counts::read(live));
        if let Some(w) = windows {
            w.counts.add_delta(Counts::default(), window);
            w.puts += out.rewrite.attempted;
            w.gets += out.reader.attempted;
            w.moves += out.stats.moves as u64;
        }

        self.check_moved_fraction(live, out.stats.moves, out.entries);
        (out, probe)
    }

    /// Time the dirty-table pops and Algorithm 2's planner on two
    /// restored copies of the pre-drain metadata, leaving the live
    /// cluster untouched.
    fn plan_probe(&self, live: &Cluster) -> DrainProbe {
        let dump = live.kv().dump();
        let shards = self.cfg.kv_shards;
        let mut probe = DrainProbe::default();

        let kv = Arc::new(KvStore::restore(dump.clone(), shards));
        let mut table = KvDirtyTable::new(kv);
        let entries = table.len();
        let t0 = Instant::now();
        while !table.pop_front_n(32).is_empty() {}
        probe.pop_ns_per_entry = t0.elapsed().as_nanos() as f64 / entries.max(1) as f64;

        let kv = Arc::new(KvStore::restore(dump, shards));
        let mut table = KvDirtyTable::new(kv.clone());
        let headers = KvHeaderStore::new(kv);
        let view = live.view_snapshot();
        let mut planner = Reintegrator::new();
        let t0 = Instant::now();
        while let Ok(tasks) =
            planner.next_tasks(&view, &mut table, &headers, self.cfg.reintegration_batch)
        {
            probe.tasks += tasks.len();
            probe.planned_moves += tasks.iter().map(|t| t.moves.len()).sum::<usize>();
        }
        probe.plan_ns_per_task = t0.elapsed().as_nanos() as f64 / probe.tasks.max(1) as f64;
        probe
    }

    /// The at-rest invariants: an empty dirty table and `replicas` bytes
    /// stored per live byte, and with `sweep`, on every object, full
    /// placement, exactly one replica on a primary and the payload of the
    /// last acknowledged write. Returns the space amplification.
    fn check_at_rest(&mut self, live: &Cluster, seqs: &[u32], sweep: bool) -> f64 {
        if live.dirty_len() != 0 {
            self.error(format!(
                "dirty table holds {} entries at rest",
                live.dirty_len()
            ));
        }
        let stored: u64 = live.nodes().iter().map(|n| n.bytes_stored()).sum();
        let live_bytes = (seqs.len() * PAYLOAD_BYTES) as u64;
        let amp = stored as f64 / live_bytes as f64;
        if stored != live_bytes * self.cfg.replicas as u64 {
            self.error(format!(
                "space_amp {amp} != replicas {} at rest",
                self.cfg.replicas
            ));
        }
        if !sweep {
            return amp;
        }
        let primaries = live.view_snapshot().layout().primary_count();
        let nodes = live.nodes();
        let inputs = self.inputs;
        // The sweep is not measured, so it runs on every hardware thread.
        let threads = std::thread::available_parallelism().map_or(1, |n| n.get());
        let counts: Vec<[usize; 3]> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..threads)
                .map(|t| {
                    s.spawn(move || {
                        let mut scratch = vec![0; PAYLOAD_BYTES];
                        let mut n = [0usize; 3];
                        for key in partition(seqs.len(), threads, t) {
                            let oid = inputs.oid(key);
                            let read = live.get(oid);
                            n[0] += usize::from(!live.is_fully_placed(oid));
                            n[1] += usize::from(
                                nodes[..primaries].iter().filter(|n| n.holds(oid)).count() != 1,
                            );
                            n[2] += usize::from(
                                !read.is_ok_and(|d| is_payload(&d, oid, seqs[key], &mut scratch)),
                            );
                        }
                        n
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("check thread panicked"))
                .collect()
        });
        let [unplaced, off_primary, wrong] = counts
            .iter()
            .fold([0; 3], |a, n| [a[0] + n[0], a[1] + n[1], a[2] + n[2]]);
        for (n, what) in [
            (unplaced, "not fully placed"),
            (off_primary, "without exactly one replica on a primary"),
            (wrong, "not reading back their last acknowledged write"),
        ] {
            if n > 0 {
                self.error(format!("{n} objects {what}"));
            }
        }
        amp
    }

    /// Compare the drain's moved fraction with the share the equal-work
    /// weights predict: a half-power write's secondary moves exactly
    /// when its full-power secondary lies on a server that was off.
    fn check_moved_fraction(&mut self, live: &Cluster, moves: usize, entries: usize) {
        let view = live.view_snapshot();
        let layout = view.layout();
        let w = layout.weights();
        let p = layout.primary_count();
        let low = self.cfg.servers / 2;
        let secondary: f64 = w[p..].iter().map(|&x| f64::from(x)).sum();
        let off: f64 = w[low..].iter().map(|&x| f64::from(x)).sum();
        let predicted = off / secondary;
        let measured = moves as f64 / entries.max(1) as f64;
        // Five binomial standard deviations, plus a point for the ring's
        // vnode discretisation.
        let tolerance = 5.0 * (predicted * (1.0 - predicted) / entries.max(1) as f64).sqrt() + 0.01;
        self.report.notes.push(format!(
            "analytic moved_fraction={measured:.4} predicted={predicted:.4} tolerance={tolerance:.4} entries={entries}"
        ));
        if (measured - predicted).abs() > tolerance {
            self.error(format!(
                "reintegration.moved_fraction {measured:.4} diverges from predicted {predicted:.4}"
            ));
        }
    }

    /// Run the workload untraced and report the end-to-end metrics.
    ///
    /// Latency and throughput figures are medians over measurement
    /// windows: the equal slices of the full-power phase, or in
    /// `elastic-cycle` the drain-time reader's half-second slices (gets,
    /// throughput) and all the rewrites together (puts).
    /// `drain_objs_per_s` is the median over cycles and `setup_s` the
    /// median over set-ups.
    pub fn end_to_end(mut self) -> Report {
        let inputs = self.inputs;
        let mut setup_s = Vec::new();
        let mut drain_rate = Vec::new();
        let mut windows: Vec<Window> = Vec::new();
        let mut space_amp = 0.0;
        // Peak RSS through the first cluster instance: later instances
        // start on a heap the earlier ones' client threads fragmented,
        // which a process serving one cluster never sees.
        let mut peak_rss = None;
        if inputs.clients > 0 {
            // Each set-up gets an equal share of the closed loop and of
            // the tail cycles, so the samples of every metric are spread
            // over the whole run rather than bunched in one stretch of
            // it, and heap layout differs between the instances.
            let mut orders = inputs.rewrites.iter().cycle();
            for _ in 0..SETUPS {
                let t0 = Instant::now();
                let (live, _, mut seqs) = self.setup(false);
                setup_s.push(t0.elapsed().as_secs_f64());
                let secs = self.seconds / SETUPS as f64;
                for (tally, secs) in
                    self.foreground(&live, None, &mut seqs, secs, FG_WINDOWS, &mut Vec::new())
                {
                    windows.push(Window::new(&tally, Some(secs)));
                    self.count(tally);
                }
                let (mut cycles, mut drained) = (0, 0.0);
                while cycles < TAIL_CYCLES || drained < TAIL_DRAIN_SHARE * secs {
                    let order = orders.next().expect("rewrite orders cycle forever");
                    let (cycle, _) =
                        self.cycle(&live, None, &mut seqs, order, None, &mut Vec::new());
                    cycles += 1;
                    drained += cycle.drain_s;
                    drain_rate.push(cycle.entries as f64 / cycle.drain_s);
                    self.check_at_rest(&live, &seqs, false);
                    self.count(cycle.rewrite);
                }
                // One per-object sweep per run, on the first instance,
                // covers its tail cycles: the cluster and its objects
                // persist across them. The later instances run the same
                // code on other heaps and get the cheap checks only.
                space_amp = self.check_at_rest(&live, &seqs, setup_s.len() == 1);
                peak_rss = peak_rss.or_else(peak_rss_mb);
            }
        } else {
            // The puts of a run form one window: a rewrite lasts about a
            // second, and its pace swings between cycles with the host,
            // so a median over cycles would jump between those paces.
            let mut rewrites = Tally::default();
            let mut measured = 0.0;
            for order in &inputs.rewrites {
                if setup_s.len() >= MIN_CYCLES && measured >= self.seconds {
                    break;
                }
                let t0 = Instant::now();
                let (live, _, mut seqs) = self.setup(false);
                setup_s.push(t0.elapsed().as_secs_f64());
                let (cycle, _) = self.cycle(&live, None, &mut seqs, order, None, &mut Vec::new());
                measured += cycle.rewrite_s + cycle.drain_s;
                let rate = cycle.entries as f64 / cycle.drain_s;
                drain_rate.push(rate);
                let put_p50 = cycle
                    .rewrite
                    .put_ns
                    .clone()
                    .quantile(0.5)
                    .map_or(f64::NAN, f64::from);
                self.report.notes.push(format!(
                    "cycle {} rewrite_s={:.3} put_p50_ns={put_p50} drain_s={:.3} drain_objs_per_s={rate:.0}",
                    setup_s.len(),
                    cycle.rewrite_s,
                    cycle.drain_s,
                ));
                windows.extend(cycle.windows);
                // As in the full-power workloads, one per-object sweep
                // per run, after the first cycle.
                space_amp = self.check_at_rest(&live, &seqs, setup_s.len() == 1);
                peak_rss = peak_rss.or_else(peak_rss_mb);
                rewrites.absorb(cycle.rewrite);
                self.count(cycle.reader);
            }
            windows.push(Window::new(&rewrites, None));
            self.count(rewrites);
        }
        let figures = |f: fn(&Window) -> (f64, u64)| {
            let (values, counts): (Vec<f64>, Vec<u64>) =
                windows.iter().map(f).filter(|(v, _)| !v.is_nan()).unzip();
            let v = if values.is_empty() {
                f64::NAN
            } else {
                median(&values)
            };
            (v, counts.iter().sum::<u64>())
        };
        let r = &mut self.report;
        for (name, unit, f) in [
            (
                "throughput_ops_per_s",
                "1/s",
                (|w| w.throughput) as fn(&Window) -> (f64, u64),
            ),
            ("get_p50_us", "us", |w| w.get_p50),
            ("get_p99_us", "us", |w| w.get_p99),
            ("put_p50_us", "us", |w| w.put_p50),
            ("put_p99_us", "us", |w| w.put_p99),
        ] {
            let (v, n) = figures(f);
            r.metric(name, v, unit, n);
        }
        r.metric(
            "drain_objs_per_s",
            median(&drain_rate),
            "1/s",
            drain_rate.len() as u64,
        );
        r.metric("setup_s", median(&setup_s), "s", setup_s.len() as u64);
        r.metric("peak_rss_mb", peak_rss.unwrap_or(f64::NAN), "MiB", 1);
        r.metric("space_amp", space_amp, "ratio", 1);
        self.report
    }

    fn count(&mut self, tally: Tally) {
        self.report.attempted += tally.attempted;
        self.report.failed += tally.failed;
        if let Some(e) = tally.first_error {
            eprintln!("error: first failed op: {e}");
        }
    }

    /// Run the workload with layer tracing and report the per-layer
    /// metrics. Counters come from an untraced pass, spans from a traced
    /// one; `trace.overhead_*` compares the two passes' medians.
    pub fn per_layer(mut self) -> Report {
        let inputs = self.inputs;
        let mut windows = Windows::default();
        let mut spans = Vec::new();
        let mut untraced = Tally::default();
        // `trace.overhead_*` compares like with like: the traced spans of
        // the same phase the untraced pass measured, `spans[..compared]`.
        let (cycle, probe, header_2t_ns, compared);
        if inputs.clients > 0 {
            let (live, shadow, mut seqs) = self.setup(true);
            let shadow = shadow.expect("traced set-up builds a shadow");
            let before = Counts::read(&live);
            let (tally, _) = self
                .foreground(
                    &live,
                    None,
                    &mut seqs,
                    self.seconds / 2.0,
                    1,
                    &mut Vec::new(),
                )
                .remove(0);
            windows.counts.add_delta(before, Counts::read(&live));
            windows.puts = tally.put_ns.len();
            windows.gets = tally.get_ns.len();
            untraced.absorb(tally);
            let (tally, _) = self
                .foreground(
                    &live,
                    Some(&shadow),
                    &mut seqs,
                    self.seconds / 2.0,
                    1,
                    &mut spans,
                )
                .remove(0);
            self.count(tally);
            compared = spans.len();
            header_2t_ns = header_probe(&shadow, inputs);
            let (c, p) = self.cycle(
                &live,
                Some(&shadow),
                &mut seqs,
                &inputs.rewrites[0],
                None,
                &mut spans,
            );
            self.check_at_rest(&live, &seqs, true);
            (cycle, probe) = (c, p);
        } else {
            let (live, _, mut seqs) = self.setup(false);
            let (c, _) = self.cycle(
                &live,
                None,
                &mut seqs,
                &inputs.rewrites[0],
                Some(&mut windows),
                &mut Vec::new(),
            );
            self.check_at_rest(&live, &seqs, true);
            untraced.absorb(c.rewrite);
            untraced.absorb(c.reader);
            drop(live);
            let (live, shadow, mut seqs) = self.setup(true);
            let shadow = shadow.expect("traced set-up builds a shadow");
            header_2t_ns = header_probe(&shadow, inputs);
            let (c, p) = self.cycle(
                &live,
                Some(&shadow),
                &mut seqs,
                &inputs.rewrites[1],
                None,
                &mut spans,
            );
            self.check_at_rest(&live, &seqs, true);
            (cycle, probe) = (c, p);
            compared = spans.len();
        }
        let mut traced_rewrite = cycle.rewrite;
        traced_rewrite.absorb(cycle.reader);
        self.count(traced_rewrite);
        let untraced_put = untraced.put_ns.quantile(0.5).map_or(f64::NAN, f64::from);
        let untraced_get = untraced.get_ns.quantile(0.5).map_or(f64::NAN, f64::from);
        self.count(untraced);
        let probe = probe.expect("a traced cycle probes its drain");
        if probe.planned_moves != cycle.stats.moves {
            self.error(format!(
                "planner on the restored dump planned {} moves, the drain executed {}",
                probe.planned_moves, cycle.stats.moves
            ));
        }

        let a = trace::attribute(&spans);
        let roots = trace::attribute(&spans[..compared]).root_ns;
        for e in &a.errors {
            self.error(e.clone());
        }
        let layer = |name: &str| a.layer_ns.get(name).copied().unwrap_or((f64::NAN, 0));
        let wrapper = |kind: &str| a.wrapper_ns.get(kind).copied().unwrap_or((f64::NAN, 0));
        let w = &windows;
        let client_ops = (w.puts + w.gets).max(1) as f64;
        let node_ops = (w.counts.node_reads + w.counts.node_writes).saturating_sub(2 * w.moves);
        let mut batch_ns = probe.batch_ns;
        let batch_p50 = quantile(&mut batch_ns, 0.5).map_or(f64::NAN, |x| f64::from(x) / 1e3);
        let batch_p99 = quantile(&mut batch_ns, 0.99).map_or(f64::NAN, |x| f64::from(x) / 1e3);
        let r = &mut self.report;
        let (v, n) = layer("view.place");
        r.metric("view.place_ns", v, "ns", n);
        let (v, n) = layer("cache.lookup");
        r.metric("cache.lookup_ns", v, "ns", n);
        r.metric(
            "cache.hit_ratio",
            w.counts.cache.hit_ratio(),
            "ratio",
            w.counts.cache.hits + w.counts.cache.misses,
        );
        r.metric(
            "cache.contention_per_op",
            w.counts.cache.shard_contention as f64 / client_ops,
            "count/op",
            client_ops as u64,
        );
        r.metric(
            "cache.epoch_evictions",
            w.counts.cache.epoch_evictions as f64,
            "count",
            1,
        );
        let (v, n) = layer("node.put");
        r.metric("node.put_ns", v, "ns", n);
        let (v, n) = layer("node.get");
        r.metric("node.get_ns", v, "ns", n);
        r.metric(
            "node.ops_per_client_op",
            node_ops as f64 / client_ops,
            "count/op",
            client_ops as u64,
        );
        r.metric(
            "node.writes_per_put",
            (w.counts.node_writes - w.moves) as f64 / w.puts.max(1) as f64,
            "count/op",
            w.puts,
        );
        r.metric(
            "node.reads_per_get",
            (w.counts.node_reads - w.moves) as f64 / w.gets.max(1) as f64,
            "count/op",
            w.gets,
        );
        let (v, n) = layer("headers.write");
        r.metric("headers.write_ns", v, "ns", n);
        r.metric(
            "headers.write_ns_2t",
            header_2t_ns,
            "ns",
            2 * HEADER_PROBE_WRITES as u64,
        );
        let (v, n) = layer("headers.lookup");
        r.metric("headers.lookup_ns", v, "ns", n);
        let (v, n) = layer("dirty.push");
        r.metric("dirty.push_ns", v, "ns", n);
        r.metric(
            "dirty.pop_ns_per_entry",
            probe.pop_ns_per_entry,
            "ns",
            cycle.entries as u64,
        );
        r.metric("dirty.entries_logged", cycle.entries as f64, "count", 1);
        r.metric(
            "reintegration.plan_ns_per_task",
            probe.plan_ns_per_task,
            "ns",
            probe.tasks as u64,
        );
        r.metric("reintegration.tasks", probe.tasks as f64, "count", 1);
        r.metric(
            "reintegration.moved_fraction",
            probe.planned_moves as f64 / cycle.entries.max(1) as f64,
            "ratio",
            cycle.entries as u64,
        );
        r.metric("drain.heal_s", probe.heal_s, "s", 1);
        r.metric("drain.batch_p50_us", batch_p50, "us", batch_ns.len() as u64);
        r.metric("drain.batch_p99_us", batch_p99, "us", batch_ns.len() as u64);
        r.metric("drain.moves", cycle.stats.moves as f64, "count", 1);
        r.metric(
            "drain.failed_moves",
            cycle.stats.failed_moves as f64,
            "count",
            1,
        );
        r.metric("drain.bytes_moved", cycle.stats.bytes as f64, "B", 1);
        let (v, n) = wrapper(trace::PUT);
        r.metric("cluster.put_wrapper_ns", v, "ns", n);
        let (v, n) = wrapper(trace::GET);
        r.metric("cluster.get_wrapper_ns", v, "ns", n);
        r.metric("cluster.retries", w.counts.path.retries as f64, "count", 1);
        r.metric(
            "cluster.quorum_acks",
            w.counts.path.quorum_acks as f64,
            "count",
            1,
        );
        r.metric(
            "trace.overhead_put_p50",
            roots.get(trace::PUT).copied().unwrap_or(f64::NAN) / untraced_put,
            "ratio",
            1,
        );
        r.metric(
            "trace.overhead_get_p50",
            roots.get(trace::GET).copied().unwrap_or(f64::NAN) / untraced_get,
            "ratio",
            1,
        );
        self.report.spans = spans;
        self.report
    }
}

/// Replay what `Cluster::reintegrate_all` does — a heal pass, then
/// batches until nothing qualifies — timing the heal and every batch.
fn replay_drain(
    live: &Cluster,
    mut probe: DrainProbe,
    batch: usize,
) -> (ReintegrationStats, DrainProbe) {
    let t0 = Instant::now();
    live.heal_dirty();
    probe.heal_s = t0.elapsed().as_secs_f64();
    let mut total = ReintegrationStats::default();
    loop {
        let t0 = Instant::now();
        let result = live.reintegrate_batch(batch.max(1));
        let t1 = Instant::now();
        match result {
            Ok(s) => {
                probe.batch_ns.push(ns(t0, t1));
                let stalled = s.moves == 0 && s.failed_moves > 0;
                total.absorb(s);
                if stalled {
                    break;
                }
            }
            Err(_) => break,
        }
    }
    (total, probe)
}

/// Median ns of one header write while two threads write at once, each
/// to its own keys, into the shadow's header store.
fn header_probe(shadow: &Cluster, inputs: &Inputs) -> f64 {
    let version = shadow.current_version();
    let mut samples: Vec<u32> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..2)
            .map(|t| {
                let headers = KvHeaderStore::new(shadow.kv().clone());
                s.spawn(move || {
                    let keys = partition(inputs.spec.objects, 2, t);
                    let mut out = Vec::with_capacity(HEADER_PROBE_WRITES);
                    for i in 0..HEADER_PROBE_WRITES {
                        let oid = inputs.oid(keys.start + i % keys.len());
                        let t0 = Instant::now();
                        headers.record_write(oid, version, false);
                        out.push(ns(t0, Instant::now()));
                    }
                    out
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("header probe thread panicked"))
            .collect()
    });
    quantile(&mut samples, 0.5).map_or(f64::NAN, f64::from)
}
