//! The cluster coordinator: an in-process, multi-threaded elastic object
//! store.
//!
//! This is the executable counterpart of the paper's modified Sheepdog
//! deployment: real object bytes on [`StorageNode`]s, placement by
//! `ech-core` (Algorithm 1 or original CH), membership versioning on
//! every resize, write-availability offloading for free (placement skips
//! powered-off nodes), dirty tracking in the Redis-like store, and
//! selective re-integration executing actual replica copies.
//!
//! All operations take `&self`; the coordinator is safe to share across
//! client threads (`Arc<Cluster>`).

use crate::dirty_store::{KvDirtyTable, KvHeaderStore};
use crate::fault::{Clock, FaultInjector, FaultPlan, FaultStatsSnapshot, SystemClock};
use crate::net::{
    BreakerSnapshot, NetFabric, NetPlan, NetStatsSnapshot, ReplicaBreakers, SendVerdict,
};
use crate::node::{NodeError, StorageNode};
use crate::repair::RepairStats;
use crate::retry::{Classify, Deadline, RetryPolicy};
use crate::sync::{
    counter_u64, footprint, footprint_write, msg_fate, AtomicBool, AtomicU64, MsgFate, Mutex,
    Ordering,
};
use arc_swap::ArcSwap;
use bytes::Bytes;
use ech_core::cache::ShardedPlacementCache;
use ech_core::dirty::{DirtyEntry, DirtyTable, HeaderSource};
use ech_core::engine::EngineKind;
use ech_core::ids::{ObjectId, ServerId, VersionId};
use ech_core::layout::Layout;
use ech_core::placement::{Placement, PlacementError, Strategy};
use ech_core::ratelimit::TokenBucket;
use ech_core::reintegration::{Idle, MigrationTask, Reintegrator};
use ech_core::stats::{CacheSnapshot, PathCounters, PathSnapshot};
use ech_core::view::ClusterView;
use ech_kvstore::{KvStore, ShardFaultHook};
use std::sync::Arc;
use std::time::Duration;

/// Cluster construction parameters.
#[derive(Debug, Clone)]
pub struct ClusterConfig {
    /// Number of storage nodes.
    pub servers: usize,
    /// Replication factor.
    pub replicas: usize,
    /// Virtual-node fairness base `B`.
    pub layout_base: u32,
    /// Placement algorithm (Primary = the paper's elastic design).
    pub strategy: Strategy,
    /// Placement backend: the paper's consistent-hash ring, the only
    /// one (kept as a field so configs that pin it still build).
    pub placement: EngineKind,
    /// Shards of the backing key-value store.
    pub kv_shards: usize,
    /// Optional per-node disk capacities (§III-D tiered provisioning);
    /// `None` = unlimited disks.
    pub capacity_plan: Option<ech_core::layout::CapacityPlan>,
    /// Replica acknowledgements a write needs before it is acked.
    pub write_quorum: WriteQuorum,
    /// Retry budget applied to transiently-failing node operations.
    pub retry: RetryPolicy,
    /// Entries the sharded placement cache holds before evicting.
    pub cache_capacity: usize,
    /// Lock stripes of the placement cache (rounded up to a power of
    /// two).
    pub cache_shards: usize,
    /// Tasks one re-integration drain batch plans before executing them
    /// (executed in parallel when no fault plan is installed).
    pub reintegration_batch: usize,
    /// Migration throttle in payload bytes per second; `None` leaves
    /// re-integration unthrottled. Must be positive when set.
    pub migration_rate: Option<f64>,
    /// Per-operation deadline budget for puts and gets: once spent,
    /// retries stop, remaining secondaries are skipped (and recorded as
    /// missed), and the op fails with [`ClusterError::DeadlineExceeded`]
    /// if it cannot degrade. `None` = no budget (retry policy alone
    /// bounds the op).
    pub op_deadline: Option<Duration>,
    /// Per-replica circuit breaker ([`crate::net::BreakerConfig`]):
    /// after enough consecutive message-level failures, sends to that
    /// replica fail fast instead of burning an rpc timeout each. `None`
    /// disables health tracking.
    pub breaker: Option<crate::net::BreakerConfig>,
}

impl ClusterConfig {
    /// The paper's deployment shape: 10 nodes, 2-way replication,
    /// primary placement over the equal-work layout.
    pub fn paper() -> Self {
        ClusterConfig {
            servers: 10,
            replicas: 2,
            layout_base: 10_000,
            strategy: Strategy::Primary,
            placement: EngineKind::Ring,
            kv_shards: 10,
            capacity_plan: None,
            write_quorum: WriteQuorum::default(),
            retry: RetryPolicy::default(),
            cache_capacity: 65_536,
            cache_shards: 16,
            reintegration_batch: 8,
            migration_rate: None,
            op_deadline: None,
            breaker: None,
        }
    }
}

/// How many replica writes must succeed before a put is acknowledged.
///
/// The primary replica is always mandatory — it anchors the header-version
/// placement that degraded reads and healing rely on. Secondaries that
/// fail below the quorum are recorded as dirty-table entries and healed by
/// [`Cluster::heal_dirty`] / repair, so an acked write converges back to
/// full replication.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum WriteQuorum {
    /// Every replica must succeed (strictest, least available).
    All,
    /// The primary plus a majority of the `r - 1` secondaries:
    /// `1 + ceil((r - 1) / 2)` acks. At `r = 2` this equals [`WriteQuorum::All`].
    #[default]
    PrimaryPlusMajority,
    /// A fixed ack count, clamped to `1..=r`. The primary still counts
    /// toward — and is required by — the quorum.
    AtLeast(usize),
}

impl WriteQuorum {
    /// Acks required at replication factor `replicas`.
    pub fn required(&self, replicas: usize) -> usize {
        match *self {
            WriteQuorum::All => replicas,
            WriteQuorum::PrimaryPlusMajority => 1 + replicas.saturating_sub(1).div_ceil(2),
            WriteQuorum::AtLeast(n) => n.clamp(1, replicas.max(1)),
        }
    }
}

/// Cluster-level operation errors.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ClusterError {
    /// Placement failed (not enough active servers).
    Placement(PlacementError),
    /// No replica holds the object (an authoritative miss — retrying
    /// cannot help).
    NotFound,
    /// Candidate replicas exist but all attempts hit transient faults;
    /// the object may well be there. Retryable.
    Unavailable,
    /// Fewer replicas acknowledged the write than the configured quorum
    /// requires. Retryable (the failures may be transient).
    QuorumNotReached {
        /// Replicas that acknowledged.
        written: usize,
        /// Acks the quorum required.
        required: usize,
    },
    /// A node rejected an operation (unexpected power race).
    Node(NodeError),
    /// The operation's deadline budget ([`ClusterConfig::op_deadline`])
    /// ran out before it could complete *or* degrade cleanly. Permanent:
    /// any further attempt would start already expired.
    DeadlineExceeded,
    /// A coordinator invariant failed (e.g. a placement named a server
    /// outside the cluster). Indicates a bug; the data path reports it
    /// instead of panicking so degraded mode stays degraded (rule D2).
    Internal(&'static str),
}

impl ClusterError {
    /// True when the operation may succeed if simply retried. The
    /// verdict is delegated to the exhaustive classification in
    /// [`crate::retry`] (analyzer rule D3).
    pub fn is_retryable(&self) -> bool {
        self.is_retryable_class()
    }
}

impl From<PlacementError> for ClusterError {
    fn from(e: PlacementError) -> Self {
        ClusterError::Placement(e)
    }
}

impl std::fmt::Display for ClusterError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClusterError::Placement(e) => write!(f, "placement failed: {e}"),
            ClusterError::NotFound => write!(f, "object not found on any replica"),
            ClusterError::Unavailable => {
                write!(f, "replicas temporarily unavailable (transient faults)")
            }
            ClusterError::QuorumNotReached { written, required } => write!(
                f,
                "write quorum not reached ({written} of {required} required acks)"
            ),
            ClusterError::Node(e) => write!(f, "node error: {e}"),
            ClusterError::DeadlineExceeded => {
                write!(f, "operation deadline budget exhausted")
            }
            ClusterError::Internal(what) => {
                write!(f, "cluster invariant violated: {what}")
            }
        }
    }
}

impl std::error::Error for ClusterError {}

/// Statistics from a re-integration pass.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ReintegrationStats {
    /// Tasks (objects) migrated.
    pub tasks: usize,
    /// Individual replica moves executed.
    pub moves: usize,
    /// Payload bytes copied.
    pub bytes: u64,
    /// Replica moves that failed on message-level faults after retries
    /// (the task's entry is re-logged so a post-heal drain re-plans it).
    pub failed_moves: usize,
}

impl ReintegrationStats {
    /// Accumulate another pass's counters into this one.
    pub fn absorb(&mut self, other: ReintegrationStats) {
        self.tasks += other.tasks;
        self.moves += other.moves;
        self.bytes += other.bytes;
        self.failed_moves += other.failed_moves;
    }
}

/// Token-bucket throttle for re-integration payload bytes. Refills run
/// off the cluster clock, so virtual-clock drills stay deterministic.
#[derive(Debug)]
struct MigrationThrottle {
    bucket: TokenBucket,
    last_refill: Duration,
}

/// How reads pick among an object's replicas.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ReadPolicy {
    /// Always try the first replica first (simple, but hot-spots it).
    #[default]
    FirstReplica,
    /// Rotate the starting replica round-robin, spreading read load
    /// across all holders — the equal-work layout then makes read work
    /// proportional to data stored ("read performance proportionality",
    /// §III-C).
    Balanced,
    /// Probe the first replica under a latency budget, and hedge to the
    /// remaining candidates when the probe fails or overruns it
    /// (tail-latency hedging against slow replicas). The budget is
    /// measured on the cluster clock, so virtual-clock drills hedge
    /// deterministically.
    Hedged {
        /// Latency budget granted to the first candidate before the
        /// hedge fires.
        threshold: std::time::Duration,
    },
}

/// The elastic object-store cluster.
pub struct Cluster {
    cfg: ClusterConfig,
    nodes: Vec<Arc<StorageNode>>,
    /// RCU-style membership snapshot: readers [`ArcSwap::load`] an
    /// immutable `Arc<ClusterView>` without locking, and the `Arc` pins a
    /// coherent epoch for as long as they hold it. Writers
    /// clone-mutate-publish under `view_write`.
    view: ArcSwap<ClusterView>,
    /// Serialises view writers (resize, crash marking, repair); readers
    /// never touch it.
    view_write: Mutex<()>,
    /// Sharded `(oid, version) -> Placement` cache in front of the ring
    /// walk.
    cache: ShardedPlacementCache,
    kv: Arc<KvStore>,
    /// Dirty-table handle. `KvDirtyTable` clones share the backing
    /// store and the kv list ops are shard-atomic, so the hot path
    /// appends through a throwaway clone instead of a coordinator lock;
    /// Algorithm 2's serial scan order is enforced by `engine`'s lock.
    dirty: KvDirtyTable,
    headers: KvHeaderStore,
    engine: Mutex<Reintegrator>,
    migration_limiter: Option<Mutex<MigrationThrottle>>,
    stop_worker: AtomicBool,
    migrated_bytes: AtomicU64,
    read_rr: AtomicU64,
    fault: Option<Arc<FaultInjector>>,
    /// Message fault plane: every data-path send to a node crosses this
    /// fabric (when installed) via [`Cluster::rpc`].
    net: Option<Arc<NetFabric>>,
    /// Per-replica circuit breakers consulted by [`Cluster::rpc`].
    breakers: Option<ReplicaBreakers>,
    clock: Arc<dyn Clock>,
    counters: PathCounters,
}

impl Cluster {
    /// Build a cluster at full power.
    pub fn new(cfg: ClusterConfig) -> Arc<Self> {
        Self::build(cfg, None)
    }

    /// Build a cluster running a deterministic [`FaultPlan`]: the
    /// injector is threaded through every node's data path and installed
    /// as the key-value store's shard-fault hook.
    pub fn with_faults(cfg: ClusterConfig, plan: FaultPlan) -> Arc<Self> {
        let injector = Arc::new(FaultInjector::new(cfg.servers, plan));
        Self::build(cfg, Some(injector))
    }

    /// [`Cluster::with_faults`] running on an injected [`Clock`]: retry
    /// backoff, kv brown-out waits, slow-replica delays and hedged-read
    /// thresholds all consume `clock` instead of the wall clock, so a
    /// [`crate::fault::VirtualClock`] makes a whole drill replayable
    /// without real-time dependence (`ech chaos` uses this).
    pub fn with_faults_and_clock(
        cfg: ClusterConfig,
        plan: FaultPlan,
        clock: Arc<dyn Clock>,
    ) -> Arc<Self> {
        let injector = Arc::new(FaultInjector::with_clock(cfg.servers, plan, clock));
        Self::build(cfg, Some(injector))
    }

    fn build(cfg: ClusterConfig, fault: Option<Arc<FaultInjector>>) -> Arc<Self> {
        let clock: Arc<dyn Clock> = match &fault {
            Some(inj) => inj.clock().clone(),
            None => Arc::new(SystemClock::new()),
        };
        let layout = match cfg.strategy {
            Strategy::Primary => Layout::equal_work(cfg.servers, cfg.layout_base),
            Strategy::Original => Layout::uniform(cfg.servers, cfg.layout_base),
        };
        let view = ClusterView::new(layout, cfg.strategy, cfg.replicas);
        let kv = Arc::new(KvStore::new(cfg.kv_shards));
        if let Some(inj) = &fault {
            kv.set_fault_hook(Some(inj.clone() as Arc<dyn ShardFaultHook>));
        }
        let nodes = (0..cfg.servers)
            .map(|i| {
                let id = ServerId(i as u32);
                let capacity = cfg
                    .capacity_plan
                    .as_ref()
                    .map(|p| p.capacity(id))
                    .unwrap_or(u64::MAX);
                Arc::new(StorageNode::with_capacity_and_faults(
                    id,
                    capacity,
                    fault.clone(),
                ))
            })
            .collect();
        let net = fault
            .as_ref()
            .and_then(|inj| inj.plan().net.clone())
            .map(|plan| Arc::new(NetFabric::new(cfg.servers, plan, clock.clone())));
        let breakers = cfg.breaker.map(|b| ReplicaBreakers::new(cfg.servers, b));
        Arc::new(Cluster {
            nodes,
            view: ArcSwap::from_pointee(view),
            view_write: Mutex::new(()),
            cache: ShardedPlacementCache::new(cfg.cache_capacity.max(1), cfg.cache_shards.max(1)),
            dirty: KvDirtyTable::with_clock(kv.clone(), clock.clone()),
            headers: KvHeaderStore::with_clock(kv.clone(), clock.clone()),
            engine: Mutex::new(Reintegrator::new()),
            migration_limiter: Self::migration_limiter(&cfg, &clock),
            stop_worker: AtomicBool::new(false),
            migrated_bytes: counter_u64(0),
            read_rr: counter_u64(0),
            kv,
            fault,
            net,
            breakers,
            cfg,
            clock,
            counters: PathCounters::default(),
        })
    }

    /// Build the optional migration throttle from the configured rate.
    /// The burst is one second of budget, so a drain never outruns the
    /// rate by more than a second's worth of bytes.
    fn migration_limiter(
        cfg: &ClusterConfig,
        clock: &Arc<dyn Clock>,
    ) -> Option<Mutex<MigrationThrottle>> {
        cfg.migration_rate.map(|rate| {
            Mutex::new(MigrationThrottle {
                bucket: TokenBucket::new(rate, rate),
                last_refill: clock.now(),
            })
        })
    }

    /// The configuration.
    pub fn config(&self) -> &ClusterConfig {
        &self.cfg
    }

    /// The node handles (for inspection in tests/examples).
    pub fn nodes(&self) -> &[Arc<StorageNode>] {
        &self.nodes
    }

    /// The clock every time-dependent data-path decision runs on.
    pub fn clock(&self) -> &Arc<dyn Clock> {
        &self.clock
    }

    /// Resolve a placement-named server to its node handle. A miss means
    /// a placement/membership invariant broke; the data path reports it
    /// as a classified error instead of indexing (and panicking) on a
    /// bad rank.
    pub(crate) fn node(&self, server: ServerId) -> Result<&Arc<StorageNode>, ClusterError> {
        self.nodes
            .get(server.index())
            .ok_or(ClusterError::Internal("placement named an unknown server"))
    }

    /// The backing key-value store.
    pub fn kv(&self) -> &Arc<KvStore> {
        &self.kv
    }

    /// Simulate a coordinator restart: metadata (membership history,
    /// dirty table, object headers) is recovered from a snapshot of the
    /// key-value store, node disks keep their contents, and the
    /// re-integration engine starts fresh — which is exactly Algorithm
    /// 2's own rule (a new scan restarts from the table head), so resumed
    /// re-integration is correct by construction.
    pub fn restart(&self) -> Arc<Cluster> {
        let view = self.view.load();
        let kv = Arc::new(KvStore::restore(self.kv.dump(), self.cfg.kv_shards));
        if let Some(inj) = &self.fault {
            kv.set_fault_hook(Some(inj.clone() as Arc<dyn ShardFaultHook>));
        }
        Arc::new(Cluster {
            cfg: self.cfg.clone(),
            nodes: self.nodes.clone(),
            view: ArcSwap::new(view),
            view_write: Mutex::new(()),
            cache: ShardedPlacementCache::new(
                self.cfg.cache_capacity.max(1),
                self.cfg.cache_shards.max(1),
            ),
            dirty: KvDirtyTable::with_clock(kv.clone(), self.clock.clone()),
            headers: KvHeaderStore::with_clock(kv.clone(), self.clock.clone()),
            engine: Mutex::new(Reintegrator::new()),
            migration_limiter: Self::migration_limiter(&self.cfg, &self.clock),
            stop_worker: AtomicBool::new(false),
            migrated_bytes: counter_u64(0),
            read_rr: counter_u64(0),
            fault: self.fault.clone(),
            // The fabric (and its message counters) survives the restart:
            // the network does not reset because the coordinator did.
            // Breaker state is process-local health tracking and starts
            // fresh, like the re-integration engine.
            net: self.net.clone(),
            breakers: self
                .cfg
                .breaker
                .map(|b| ReplicaBreakers::new(self.cfg.servers, b)),
            clock: self.clock.clone(),
            counters: PathCounters::default(),
            kv,
        })
    }

    /// Clone-mutate-publish a new cluster view. `f` runs on a private
    /// clone of the current snapshot under the writer mutex (serialising
    /// concurrent membership changes); the result is then published
    /// atomically for the lock-free readers. Crate-internal: used by the
    /// repair module to record irregular memberships.
    pub(crate) fn update_view<R>(&self, f: impl FnOnce(&mut ClusterView) -> R) -> R {
        let _writer = self.view_write.lock();
        let mut next = ClusterView::clone(&self.view.load());
        let out = f(&mut next);
        self.view.store(Arc::new(next));
        out
    }

    /// The current cluster-view snapshot, lock-free. The returned `Arc`
    /// pins a coherent epoch for as long as the caller holds it — a
    /// concurrent resize publishes a *new* snapshot and never mutates
    /// this one.
    pub fn view_snapshot(&self) -> Arc<ClusterView> {
        self.view.load()
    }

    /// The header store (crate-internal: repair scans enumerate it).
    pub(crate) fn headers(&self) -> &KvHeaderStore {
        &self.headers
    }

    /// Current membership version.
    pub fn current_version(&self) -> VersionId {
        self.view.load().current_version()
    }

    /// Number of active (placement-eligible) servers.
    pub fn active_count(&self) -> usize {
        self.view.load().current_membership().active_count()
    }

    /// Dirty-table length.
    pub fn dirty_len(&self) -> usize {
        self.dirty.len()
    }

    /// Snapshot of the placement-cache counters (hits, misses, shard
    /// contention).
    pub fn cache_stats(&self) -> CacheSnapshot {
        self.cache.snapshot()
    }

    /// Append a dirty entry. Handles share the backing store, so a
    /// throwaway clone provides the `&mut` receiver the [`DirtyTable`]
    /// trait wants without a coordinator lock (the kv list push is
    /// shard-atomic).
    fn log_dirty(&self, entry: DirtyEntry) {
        self.dirty.clone().push_back(entry);
    }

    /// Total payload bytes moved by re-integration so far.
    pub fn migrated_bytes(&self) -> u64 {
        self.migrated_bytes.load(Ordering::Relaxed)
    }

    /// Snapshot of the degraded-path counters (retries, quorum acks,
    /// missed replicas, hedged reads, unavailable errors).
    pub fn counters(&self) -> PathSnapshot {
        self.counters.snapshot()
    }

    /// The fault injector, when the cluster runs under a [`FaultPlan`].
    pub fn fault_injector(&self) -> Option<&Arc<FaultInjector>> {
        self.fault.as_ref()
    }

    /// Counters of injected faults, when running under a [`FaultPlan`].
    pub fn fault_stats(&self) -> Option<FaultStatsSnapshot> {
        self.fault.as_ref().map(|f| f.stats())
    }

    /// The message fault fabric, when the fault plan carries a
    /// [`crate::net::NetPlan`].
    pub fn net_fabric(&self) -> Option<&Arc<NetFabric>> {
        self.net.as_ref()
    }

    /// Counters of injected message faults, when a fabric is installed.
    pub fn net_stats(&self) -> Option<NetStatsSnapshot> {
        self.net.as_ref().map(|n| n.stats())
    }

    /// Circuit-breaker counters, when breakers are configured.
    pub fn breaker_stats(&self) -> Option<BreakerSnapshot> {
        self.breakers.as_ref().map(|b| b.snapshot(self.clock.now()))
    }

    /// A fresh [`Deadline`] for one client operation, from the
    /// configured budget.
    pub(crate) fn op_deadline(&self) -> Deadline {
        Deadline::from_config(&*self.clock, self.cfg.op_deadline)
    }

    /// One message-level node operation: the single choke point every
    /// data-path send crosses, so the breaker and the fault fabric see
    /// the whole conversation.
    ///
    /// Order of business: (1) an open breaker fails the send fast,
    /// charging one backoff base on the clock (a zero-cost rejection
    /// would let poll loops spin against an open breaker without
    /// advancing virtual time); (2) the fabric rules on the message
    /// (deliver/delay/drop/partition) — unless the model checker's
    /// message-scheduler mode is active, in which case the explorer's
    /// enumerated [`MsgFate`] overrides the seed-hashed fabric; (3) the
    /// outcome feeds the breaker. Lost messages cost the sender the
    /// plan's rpc timeout on the clock before surfacing as
    /// [`NodeError::Timeout`] / [`NodeError::Partitioned`] — an
    /// `Outbound` partition and a dropped *response* still execute `op`
    /// (the node did the work; only the ack vanished), which is what
    /// makes acked-write accounting under partitions honest.
    pub(crate) fn rpc<T>(
        &self,
        server: ServerId,
        node: &StorageNode,
        op: impl Fn(&StorageNode) -> Result<T, NodeError>,
    ) -> Result<T, NodeError> {
        let idx = server.index();
        if self.breakers.is_some() || self.net.is_some() {
            // Breaker health counters and fabric budgets are
            // checker-invisible (`counter_u64` internals); every send
            // mutates this link's channel state, so declare a coarse
            // per-server write for the partial-order reduction.
            footprint_write(footprint::RPC_BASE | idx as u64);
        }
        if let Some(b) = &self.breakers {
            if !b.try_acquire(idx, self.clock.now()) {
                self.clock.sleep(self.cfg.retry.base);
                return Err(NodeError::BreakerOpen);
            }
        }
        let result = match msg_fate() {
            // Message-scheduler mode: the explorer chose this send's
            // fate; emulate it with the same clock charges and
            // execute/ack split as the fabric verdicts below.
            Some(fate) => {
                let timeout = self
                    .net
                    .as_ref()
                    .map(|n| n.rpc_timeout())
                    .unwrap_or_else(NetPlan::default_rpc_timeout);
                match fate {
                    MsgFate::Deliver => op(node),
                    MsgFate::DropRequest => {
                        self.clock.sleep(timeout);
                        Err(NodeError::Timeout)
                    }
                    MsgFate::DropResponse => {
                        let _ = op(node);
                        self.clock.sleep(timeout);
                        Err(NodeError::Timeout)
                    }
                    MsgFate::Duplicate => {
                        let r = op(node);
                        if r.is_ok() {
                            let _ = op(node);
                        }
                        r
                    }
                    MsgFate::Reorder => {
                        self.clock.sleep(timeout);
                        op(node)
                    }
                    MsgFate::PartitionedInbound => {
                        self.clock.sleep(timeout);
                        Err(NodeError::Partitioned)
                    }
                    MsgFate::PartitionedOutbound => {
                        let _ = op(node);
                        self.clock.sleep(timeout);
                        Err(NodeError::Partitioned)
                    }
                }
            }
            None => match &self.net {
                None => op(node),
                Some(net) => match net.before_send(idx) {
                    SendVerdict::Deliver { delay, duplicate } => {
                        if let Some(d) = delay {
                            self.clock.sleep(d);
                        }
                        let r = op(node);
                        if duplicate && r.is_ok() {
                            // A retransmitted request executes twice; node
                            // ops are idempotent so only the op counters see
                            // it (the duplicate's own faults are swallowed —
                            // the first reply already answered the sender).
                            let _ = op(node);
                        }
                        r
                    }
                    SendVerdict::DropRequest => {
                        self.clock.sleep(net.rpc_timeout());
                        Err(NodeError::Timeout)
                    }
                    SendVerdict::DropResponse => {
                        let _ = op(node);
                        self.clock.sleep(net.rpc_timeout());
                        Err(NodeError::Timeout)
                    }
                    SendVerdict::Partitioned { request_delivered } => {
                        if request_delivered {
                            let _ = op(node);
                        }
                        self.clock.sleep(net.rpc_timeout());
                        Err(NodeError::Partitioned)
                    }
                },
            },
        };
        if let Some(b) = &self.breakers {
            match &result {
                Ok(_) => b.record_success(idx),
                // Only message-level failures are link health signals;
                // application verdicts (NotFound, PoweredOff, DiskFull)
                // mean the link worked fine.
                Err(NodeError::Timeout | NodeError::Partitioned | NodeError::Io) => {
                    b.record_failure(idx, self.clock.now());
                }
                Err(_) => {}
            }
        }
        result
    }

    /// Where `oid`'s replicas should live right now.
    pub fn locate(&self, oid: ObjectId) -> Result<Placement, ClusterError> {
        Ok(self.cache.place_current(&self.view.load(), oid)?)
    }

    /// Write an object: place at the current version, store on the
    /// replica nodes, record the header, and log a dirty entry when the
    /// cluster is not at full power.
    ///
    /// The write is acknowledged once the configured [`WriteQuorum`] is
    /// met. The primary replica is mandatory; transiently-failing nodes
    /// are retried under the configured [`RetryPolicy`]. Secondaries
    /// still missing after retries are recorded in the dirty table —
    /// exactly like power-offloaded writes — so [`Cluster::heal_dirty`]
    /// and repair converge the object back to full replication.
    pub fn put(&self, oid: ObjectId, data: Bytes) -> Result<Placement, ClusterError> {
        let span = crate::lincheck::inv_put(oid, &data, &*self.clock);
        let result = self.put_epochs(oid, data);
        crate::lincheck::ret_put(span, &result, &*self.clock);
        result
    }

    /// [`Cluster::put`]'s body, bracketed by the lincheck facade above
    /// so recorded histories see the ack exactly when the caller does.
    fn put_epochs(&self, oid: ObjectId, data: Bytes) -> Result<Placement, ClusterError> {
        // A resize can race this write between the placement snapshot and
        // the node I/O, powering a targeted node off mid-flight. That
        // failure is an artifact of the stale snapshot, not of cluster
        // health: re-place at the new membership version and try again
        // (bounded — each extra pass requires the version to have moved).
        let mut epochs = 0;
        // One budget for the whole put, epoch re-placements included.
        let deadline = self.op_deadline();
        loop {
            let (placement, version, power_dirty) = {
                let view = self.view.load();
                // Writes compute the placement directly: a first-time oid
                // would only pay the cache-miss insert for nothing, and
                // the ring's successor table already makes the walk
                // cheap. Reads populate and profit from the cache.
                let p = view.place_current(oid)?;
                (p, view.current_version(), view.write_is_dirty())
            };
            match self.put_at(oid, &data, placement, version, power_dirty, true, deadline) {
                Err(ClusterError::Node(NodeError::PoweredOff))
                    if epochs < 4 && self.current_version() != version =>
                {
                    epochs += 1;
                }
                other => return other,
            }
        }
    }

    /// One write attempt against a fixed placement snapshot.
    /// `record_dirty` is always true on the production path; the seeded
    /// quorum-dirty mutant below passes false to skip the dirty-table
    /// entry that makes degraded writes self-healing.
    #[allow(clippy::too_many_arguments)]
    fn put_at(
        &self,
        oid: ObjectId,
        data: &Bytes,
        placement: Placement,
        version: VersionId,
        power_dirty: bool,
        record_dirty: bool,
        deadline: Deadline,
    ) -> Result<Placement, ClusterError> {
        let servers = placement.servers();
        let required = self.cfg.write_quorum.required(servers.len());
        let mut written = 0usize;
        let mut missed = 0usize;
        let mut permanent: Option<NodeError> = None;
        for (rank, &server) in servers.iter().enumerate() {
            let node = self.node(server)?;
            if rank > 0 && deadline.expired(&*self.clock) {
                // Budget gone: don't even send to the remaining
                // secondaries — count them missed and let the quorum
                // accounting below decide whether the write can still
                // degrade into an ack.
                missed += 1;
                continue;
            }
            let token = oid.raw() ^ ((server.index() as u64) << 48) ^ version.raw();
            let (result, retries) = self.cfg.retry.run_counted_deadline(
                &*self.clock,
                deadline,
                token,
                NodeError::is_transient,
                || {
                    self.rpc(server, node, |n| {
                        n.put(oid, data.clone(), version, power_dirty)
                    })
                },
            );
            self.counters.add_retries(retries as u64);
            match result {
                Ok(()) => written += 1,
                Err(e) if rank == 0 => {
                    // The primary anchors the header-version placement
                    // that degraded reads and healing rely on; a write
                    // that misses it is not acknowledged.
                    if deadline.expired(&*self.clock)
                        && matches!(e, NodeError::Timeout | NodeError::Partitioned)
                    {
                        self.counters.inc_deadline_exceeded();
                        return Err(ClusterError::DeadlineExceeded);
                    }
                    return Err(match e {
                        NodeError::Io => ClusterError::Unavailable,
                        other => ClusterError::Node(other),
                    });
                }
                Err(e) => {
                    // BreakerOpen is a routing verdict, not a node
                    // verdict: the replica is skipped and healed later,
                    // never allowed to veto the quorum as "permanent".
                    if !matches!(e, NodeError::BreakerOpen)
                        && !e.is_transient()
                        && permanent.is_none()
                    {
                        permanent = Some(e);
                    }
                    missed += 1;
                }
            }
        }
        if written < required {
            // A permanent secondary failure (e.g. DiskFull) that cost the
            // quorum is more actionable than a generic shortfall — no
            // amount of retrying will reach the quorum.
            if let Some(e) = permanent {
                return Err(ClusterError::Node(e));
            }
            if deadline.expired(&*self.clock) {
                // The budget, not the cluster, decided the shortfall:
                // fail cleanly within (just past) the deadline instead
                // of inviting a retry that would start expired.
                self.counters.inc_deadline_exceeded();
                return Err(ClusterError::DeadlineExceeded);
            }
            return Err(ClusterError::QuorumNotReached { written, required });
        }
        let is_dirty = power_dirty || missed > 0;
        self.headers.record_write(oid, version, is_dirty);
        if is_dirty && record_dirty {
            self.log_dirty(DirtyEntry::new(oid, version));
        }
        if missed > 0 {
            self.counters.inc_quorum_acks();
            self.counters.add_replicas_missed(missed as u64);
        }
        Ok(placement)
    }

    /// **Deliberately seeded quorum bug** (modelcheck builds only): a
    /// quorum write that skips the dirty-table entry for the replicas it
    /// missed. The ack looks identical to [`Cluster::put`]'s, but the
    /// missed replicas are no longer self-healing — [`Cluster::heal_dirty`]
    /// has nothing to scan. The `quorum-dirty-bug` model drives this
    /// under an always-failing secondary and asserts the dirty table is
    /// non-empty after the ack.
    #[cfg(feature = "modelcheck")]
    pub fn put_unlogged_for_modelcheck(
        &self,
        oid: ObjectId,
        data: Bytes,
    ) -> Result<Placement, ClusterError> {
        let span = crate::lincheck::inv_put(oid, &data, &*self.clock);
        let result = self.put_unlogged_body_for_modelcheck(oid, data);
        crate::lincheck::ret_put(span, &result, &*self.clock);
        result
    }

    #[cfg(feature = "modelcheck")]
    fn put_unlogged_body_for_modelcheck(
        &self,
        oid: ObjectId,
        data: Bytes,
    ) -> Result<Placement, ClusterError> {
        let (placement, version, power_dirty) = {
            let view = self.view.load();
            let p = view.place_current(oid)?;
            (p, view.current_version(), view.write_is_dirty())
        };
        self.put_at(
            oid,
            &data,
            placement,
            version,
            power_dirty,
            false,
            self.op_deadline(),
        )
    }

    /// **Deliberately seeded retransmission-safety bug** (modelcheck
    /// builds only): a quorum write built on the non-idempotent
    /// [`StorageNode::append_for_modelcheck`] store. On a fault-free
    /// fabric it is byte-for-byte identical to a first write — the
    /// appended-to slot is empty — so thread-only exploration passes
    /// exhaustively. Under the message scheduler's `Duplicate` fate the
    /// retransmitted request appends twice and a reader observes the
    /// doubled payload; the `msg-dup-append-bug` model catches it.
    #[cfg(feature = "modelcheck")]
    pub fn put_appending_for_modelcheck(
        &self,
        oid: ObjectId,
        data: Bytes,
    ) -> Result<(), ClusterError> {
        let span = crate::lincheck::inv_put(oid, &data, &*self.clock);
        let result = self.put_appending_body_for_modelcheck(oid, data);
        crate::lincheck::ret_put(span, &result, &*self.clock);
        result
    }

    #[cfg(feature = "modelcheck")]
    fn put_appending_body_for_modelcheck(
        &self,
        oid: ObjectId,
        data: Bytes,
    ) -> Result<(), ClusterError> {
        let (placement, version, power_dirty) = {
            let view = self.view.load();
            let p = view.place_current(oid)?;
            (p, view.current_version(), view.write_is_dirty())
        };
        let servers = placement.servers();
        let required = self.cfg.write_quorum.required(servers.len());
        let mut written = 0usize;
        for (rank, &server) in servers.iter().enumerate() {
            let node = self.node(server)?;
            let result = self.rpc(server, node, |n| {
                n.append_for_modelcheck(oid, data.clone(), version, power_dirty)
            });
            match result {
                Ok(()) => written += 1,
                Err(e) if rank == 0 => return Err(ClusterError::Node(e)),
                Err(_) => {}
            }
        }
        if written < required {
            return Err(ClusterError::QuorumNotReached { written, required });
        }
        self.headers.record_write(oid, version, power_dirty);
        Ok(())
    }

    /// **Deliberately seeded ack-ordering bug** (modelcheck builds
    /// only): [`Cluster::put`] with the acknowledgement surfaced
    /// *before* any replica I/O or header bookkeeping runs. Every
    /// state-based invariant still holds once the body completes — the
    /// final cluster state is byte-identical to a correct put, so
    /// assertion-style models pass exhaustively. Only a recorded
    /// history shows the violation: a reader scheduled into the window
    /// observes the old value *after* the ack, and the linearizability
    /// checker rejects the history. The `lin-ack-before-log-bug` model
    /// catches it under `--lincheck`.
    #[cfg(feature = "modelcheck")]
    pub fn put_acking_before_log_for_modelcheck(
        &self,
        oid: ObjectId,
        data: Bytes,
    ) -> Result<Placement, ClusterError> {
        let span = crate::lincheck::inv_put(oid, &data, &*self.clock);
        // BUG under test: the ack belongs after the write body; recording
        // it first is the caller-visible analogue of replying to the
        // client before the log write is durable.
        crate::lincheck::ret_put_premature(span, &*self.clock);
        self.put_epochs(oid, data)
    }

    /// Read an object from any live replica.
    ///
    /// First tries the current placement; if the object has not been
    /// re-integrated yet, falls back to the placement at its header's
    /// write version — "as long as the last version it is written is
    /// known, it is able to accurately find the servers that contain the
    /// latest replicas" (§III-E1).
    pub fn get(&self, oid: ObjectId) -> Result<Bytes, ClusterError> {
        let span = crate::lincheck::inv_get(oid, &*self.clock);
        // One budget spans the whole read, retries included.
        let deadline = self.op_deadline();
        let result = self
            .cfg
            .retry
            .run_counted_deadline(
                &*self.clock,
                deadline,
                oid.raw(),
                ClusterError::is_retryable,
                || self.get_with_acceptance(oid, ReadPolicy::FirstReplica, true, deadline),
            )
            .0;
        crate::lincheck::ret_get(span, &result, &*self.clock);
        result
    }

    /// Read an object, choosing the starting replica per `policy`.
    ///
    /// Replicas carry the version they were written at; an object
    /// rewritten at a newer membership version may leave *stale* copies
    /// at its older placements until re-integration/repair collects them.
    /// Reads therefore accept only copies whose stored version matches
    /// the authoritative header (§III-E2: the header lets the system
    /// "identify the latest data version and avoid stale data").
    pub fn get_with(&self, oid: ObjectId, policy: ReadPolicy) -> Result<Bytes, ClusterError> {
        let span = crate::lincheck::inv_get(oid, &*self.clock);
        let result = self.get_with_acceptance(oid, policy, true, self.op_deadline());
        crate::lincheck::ret_get(span, &result, &*self.clock);
        result
    }

    /// **Deliberately seeded staleness bug** (modelcheck builds only):
    /// a read that skips the header-version acceptance check, returning
    /// whatever copy it finds first. Superseded replicas awaiting
    /// collection become observable — the `hedged-stale-bug` model races
    /// this against a crash of the fresh replica and catches the stale
    /// payload escaping to the caller.
    #[cfg(feature = "modelcheck")]
    pub fn get_accepting_stale_for_modelcheck(
        &self,
        oid: ObjectId,
        policy: ReadPolicy,
    ) -> Result<Bytes, ClusterError> {
        let span = crate::lincheck::inv_get(oid, &*self.clock);
        let result = self.get_with_acceptance(oid, policy, false, self.op_deadline());
        crate::lincheck::ret_get(span, &result, &*self.clock);
        result
    }

    /// **Deliberately seeded breaker-misclassification bug** (modelcheck
    /// builds only): a read that does not count an open breaker toward
    /// the "could this miss be transient?" verdict. When every replica
    /// hides behind a tripped breaker, a committed object is reported
    /// [`ClusterError::NotFound`] — an authoritative answer fabricated
    /// from a routing veto. Thread-only exploration never trips a
    /// breaker (no message faults exist to feed it), so the bug is
    /// invisible without `--msg`; the `msg-breaker-notfound-bug` model
    /// catches it with a single enumerated fault.
    #[cfg(feature = "modelcheck")]
    pub fn get_treating_breaker_as_notfound_for_modelcheck(
        &self,
        oid: ObjectId,
    ) -> Result<Bytes, ClusterError> {
        let span = crate::lincheck::inv_get(oid, &*self.clock);
        let result = self.get_with_acceptance_opts(
            oid,
            ReadPolicy::FirstReplica,
            true,
            self.op_deadline(),
            false,
        );
        crate::lincheck::ret_get(span, &result, &*self.clock);
        result
    }

    /// [`Cluster::get_with`] with the version-acceptance check made
    /// explicit; `enforce_versions` is always true on the production
    /// path.
    fn get_with_acceptance(
        &self,
        oid: ObjectId,
        policy: ReadPolicy,
        enforce_versions: bool,
        deadline: Deadline,
    ) -> Result<Bytes, ClusterError> {
        self.get_with_acceptance_opts(oid, policy, enforce_versions, deadline, true)
    }

    /// [`Cluster::get_with_acceptance`] with the breaker classification
    /// made explicit. `breaker_is_transient` is always true on the
    /// production path: an open breaker is a routing verdict about the
    /// link, never an authoritative statement about the object, so a
    /// read that saw only tripped breakers must report `Unavailable`,
    /// not `NotFound`. The seeded mutant below passes false.
    fn get_with_acceptance_opts(
        &self,
        oid: ObjectId,
        policy: ReadPolicy,
        enforce_versions: bool,
        deadline: Deadline,
        breaker_is_transient: bool,
    ) -> Result<Bytes, ClusterError> {
        let expected = self.headers.header(oid).map(|h| h.version);
        let view = self.view.load();
        let mut candidates: Vec<ServerId> = Vec::new();
        if let Ok(p) = self.cache.place_current(&view, oid) {
            candidates.extend_from_slice(p.servers());
        }
        if let Some(ver) = expected {
            if let Ok(p) = self.cache.place_at(&view, oid, ver) {
                for &s in p.servers() {
                    if !candidates.contains(&s) {
                        candidates.push(s);
                    }
                }
            }
        }
        drop(view);
        if candidates.is_empty() {
            return Err(ClusterError::NotFound);
        }
        let start = match policy {
            ReadPolicy::FirstReplica | ReadPolicy::Hedged { .. } => 0,
            ReadPolicy::Balanced => {
                self.read_rr.fetch_add(1, Ordering::Relaxed) as usize % candidates.len()
            }
        };
        // A copy is acceptable when its stamp is at least the header
        // version we read: stale (superseded) copies are always strictly
        // older than the header, while a concurrent re-integration may
        // restamp fresh copies *past* the header snapshot we took.
        let acceptable = |stamp: ech_core::ids::VersionId| {
            !enforce_versions || expected.is_none_or(|v| stamp >= v)
        };
        if let ReadPolicy::Hedged { threshold } = policy {
            if let Some(data) = self.hedged_get(oid, &candidates, &acceptable, threshold, deadline)
            {
                return Ok(data);
            }
        }
        // Transient failures must not masquerade as authoritative misses:
        // track them and report `Unavailable` (retryable) instead of
        // `NotFound` when every failure could have been a fault. An open
        // breaker counts too — it is a routing verdict about the link,
        // never an authoritative statement about the object.
        let mut saw_transient = false;
        for &server in candidates.iter().cycle().skip(start).take(candidates.len()) {
            if deadline.expired(&*self.clock) {
                self.counters.inc_deadline_exceeded();
                return Err(ClusterError::DeadlineExceeded);
            }
            let node = self.node(server)?;
            match self.rpc(server, node, |n| n.get(oid)) {
                Ok(obj) if acceptable(obj.header.version) => return Ok(obj.data),
                Ok(_) => {}
                Err(e) => {
                    saw_transient |= e.is_transient()
                        || (breaker_is_transient && matches!(e, NodeError::BreakerOpen));
                }
            }
        }
        // Placement-guided candidates failed (e.g. the fresh copy sits on
        // a server an intermediate re-integration chose); sweep all
        // powered nodes for a version-matching copy before giving up.
        for (i, node) in self.nodes.iter().enumerate() {
            if deadline.expired(&*self.clock) {
                self.counters.inc_deadline_exceeded();
                return Err(ClusterError::DeadlineExceeded);
            }
            match self.rpc(ServerId(i as u32), node, |n| n.get(oid)) {
                Ok(obj) if acceptable(obj.header.version) => return Ok(obj.data),
                Ok(_) => {}
                Err(e) => {
                    saw_transient |= e.is_transient()
                        || (breaker_is_transient && matches!(e, NodeError::BreakerOpen));
                }
            }
        }
        if saw_transient {
            self.counters.inc_unavailable();
            Err(ClusterError::Unavailable)
        } else {
            Err(ClusterError::NotFound)
        }
    }

    /// Probe the first candidate under a per-probe latency budget of
    /// `threshold`, and hedge to the remaining candidates when the probe
    /// either failed or overran the budget on the cluster clock. `None`
    /// falls back to the caller's sequential sweep.
    ///
    /// The probe runs inline through [`Cluster::rpc`]: a slow replica
    /// charges its injected delay to the clock, so "did it answer within
    /// the threshold" is a pure clock comparison — no helper thread, no
    /// channel polling, no wall-time dependence. The threshold is a
    /// *freshness* budget, not a race: a first replica that answers late
    /// (or returns a stale copy) loses to any acceptable secondary, and
    /// is used only as the last resort.
    ///
    /// The operation's [`Deadline`] is consulted before every hedge
    /// probe: hedging is an optimisation, and a spent budget means the
    /// caller's sequential sweep should surface the failure instead.
    fn hedged_get(
        &self,
        oid: ObjectId,
        candidates: &[ServerId],
        acceptable: &impl Fn(VersionId) -> bool,
        threshold: std::time::Duration,
        deadline: Deadline,
    ) -> Option<Bytes> {
        let first_id = *candidates.first()?;
        let first = self.node(first_id).ok()?;
        let t0 = self.clock.now();
        let first_result = self.rpc(first_id, first, |n| n.get(oid));
        let overran = self.clock.now().saturating_sub(t0) >= threshold;
        if let Ok(obj) = &first_result {
            if acceptable(obj.header.version) && !overran {
                return Some(obj.data.clone());
            }
        }
        // The first replica was slow, stale, or unreachable — hedge.
        self.counters.inc_hedged_reads();
        for &s in candidates.iter().skip(1) {
            if deadline.expired(&*self.clock) {
                break;
            }
            if let Ok(obj) = self.rpc(s, self.node(s).ok()?, |n| n.get(oid)) {
                if acceptable(obj.header.version) {
                    return Some(obj.data);
                }
            }
        }
        // Every hedge lost; a late-but-acceptable original still wins
        // over giving up.
        if let Ok(obj) = first_result {
            if acceptable(obj.header.version) {
                return Some(obj.data);
            }
        }
        None
    }

    /// Resize to `active` servers (an expansion-chain prefix): records a
    /// new membership version and flips node power states. Elastic
    /// placement needs no clean-up before power-down — that is the point.
    ///
    /// # Panics
    /// Panics if `active` is outside `1..=n`.
    pub fn resize(&self, active: usize) -> VersionId {
        let span = crate::lincheck::inv_resize(active, &*self.clock);
        let version = self.resize_views(active);
        crate::lincheck::ret_resize(span, version, &*self.clock);
        version
    }

    fn resize_views(&self, active: usize) -> VersionId {
        let _writer = self.view_write.lock();
        let mut next = ClusterView::clone(&self.view.load());
        let version = next.resize(active);
        // Power ordering around the snapshot swap: servers joining the
        // membership power on *before* the new view is published (a
        // reader of the new epoch must find them accepting I/O), and
        // servers leaving power off *after* (readers still pinning the
        // old epoch hit the PoweredOff epoch-retry path, same as before).
        for (i, node) in self.nodes.iter().enumerate() {
            if i < active {
                node.set_powered(true);
            }
        }
        self.view.store(Arc::new(next));
        for (i, node) in self.nodes.iter().enumerate() {
            if i >= active {
                node.set_powered(false);
            }
        }
        version
    }

    /// **Deliberately seeded publish-order bug** (modelcheck builds
    /// only). Re-enacts the pre-publish-ordering regression: resize to
    /// `active` and migrate `oid` to its placement at the new version,
    /// but stamp the authoritative header *before* the copies land and
    /// the view is published. In the window between the stamp and the
    /// first new-version copy, a concurrent reader sees a header
    /// version no replica can satisfy and reports a spurious
    /// [`ClusterError::NotFound`]. The `seeded-stamp-bug` model drives
    /// this method so the counterexample-replay test can prove the
    /// checker finds the interleaving; analyzer rule D6 flags the same
    /// ordering statically (suppressed below, on purpose).
    #[cfg(feature = "modelcheck")]
    pub fn resize_with_seeded_stamp_bug(
        &self,
        oid: ObjectId,
        active: usize,
    ) -> Result<VersionId, ClusterError> {
        let span = crate::lincheck::inv_resize(active, &*self.clock);
        let result = self.resize_with_seeded_stamp_bug_body(oid, active);
        crate::lincheck::ret_resize_result(span, &result, &*self.clock);
        result
    }

    #[cfg(feature = "modelcheck")]
    fn resize_with_seeded_stamp_bug_body(
        &self,
        oid: ObjectId,
        active: usize,
    ) -> Result<VersionId, ClusterError> {
        let _writer = self.view_write.lock();
        let mut next = ClusterView::clone(&self.view.load());
        let version = next.resize(active);
        for (i, node) in self.nodes.iter().enumerate() {
            if i < active {
                node.set_powered(true);
            }
        }
        let data = self
            .nodes
            .iter()
            .find_map(|n| n.get(oid).ok())
            .ok_or(ClusterError::NotFound)?
            .data;
        // BUG under test: the stamp belongs after the copies and the
        // publish; running it first opens the stale-header window.
        // ech-allow(D4, D6): deliberate seeded bug — the counterexample
        // replay test needs a real stamp-before-publish violation for
        // the checker to find, and the stamp's kv retry runs under the
        // writer lock only on this intentionally wrong path.
        self.headers.record_write(oid, version, false);
        let placement = next.place_at(oid, version)?;
        for &server in placement.servers() {
            self.node(server)?
                // ech-allow(D4): same seeded bug — faultable node I/O
                // under the writer lock is part of the window under
                // test.
                .put(oid, data.clone(), version, false)
                .map_err(ClusterError::Node)?;
        }
        self.view.store(Arc::new(next));
        for (i, node) in self.nodes.iter().enumerate() {
            if i >= active {
                node.set_powered(false);
            }
        }
        Ok(version)
    }

    /// **Deliberately seeded weak-publication bug** (modelcheck builds
    /// only): [`Cluster::resize`] with the view swap downgraded to a
    /// `Relaxed` pointer store. Under sequentially consistent
    /// exploration this is indistinguishable from the correct resize —
    /// the store still lands before any later read. Only the checker's
    /// weak-memory mode exhibits the bug: the publication sits in the
    /// resizing thread's store buffer, and an observer still sees the
    /// old membership version after the resize "completed".
    #[cfg(feature = "modelcheck")]
    pub fn resize_with_relaxed_publish_for_modelcheck(&self, active: usize) -> VersionId {
        let span = crate::lincheck::inv_resize(active, &*self.clock);
        let version = self.resize_with_relaxed_publish_body(active);
        crate::lincheck::ret_resize(span, version, &*self.clock);
        version
    }

    #[cfg(feature = "modelcheck")]
    fn resize_with_relaxed_publish_body(&self, active: usize) -> VersionId {
        let _writer = self.view_write.lock();
        let mut next = ClusterView::clone(&self.view.load());
        let version = next.resize(active);
        for (i, node) in self.nodes.iter().enumerate() {
            if i < active {
                node.set_powered(true);
            }
        }
        for (i, node) in self.nodes.iter().enumerate() {
            if i >= active {
                node.set_powered(false);
            }
        }
        // BUG under test: the publication must be `Release` (rule D6's
        // dynamic analogue); `Relaxed` lets it linger in a store buffer.
        // It is also this thread's *last* store — a later write-through
        // store (e.g. the power flips above, which is why they were
        // hoisted) would drain the buffer in FIFO order and mask the
        // staleness, exactly as on TSO hardware.
        self.view.store_relaxed_for_modelcheck(Arc::new(next));
        version
    }

    /// Execute one selective re-integration task. Returns the stats of
    /// the task, or the idle reason.
    pub fn reintegrate_step(&self) -> Result<ReintegrationStats, Idle> {
        self.reintegrate_batch(1)
    }

    /// **Deliberately seeded move-ordering bug** (modelcheck builds
    /// only): plan and execute one re-integration task with the replica
    /// move inverted to remove-before-copy. A resize that powers the
    /// destination off in the window between the remove and the copy
    /// loses the only replica — the `reintegration-lost-replica-bug`
    /// model finds that interleaving.
    #[cfg(feature = "modelcheck")]
    pub fn reintegrate_step_remove_first_for_modelcheck(&self) -> Result<ReintegrationStats, Idle> {
        let span = crate::lincheck::inv_reintegrate(&*self.clock);
        let result = self
            .plan_task()
            .map(|task| self.execute_task_opts(&task, true));
        crate::lincheck::ret_reintegrate(span, &result, &*self.clock);
        result
    }

    /// Plan one migration task against the current snapshot. The engine
    /// lock serialises Algorithm 2's scan (and with it the dirty-table
    /// pops the scan performs).
    fn plan_task(&self) -> Result<MigrationTask, Idle> {
        let view = self.view.load();
        let mut engine = self.engine.lock();
        let mut dirty = self.dirty.clone();
        engine.next_task(&view, &mut dirty, &self.headers)
    }

    /// Drain up to `max_tasks` re-integration tasks in one call.
    ///
    /// With no fault plan installed the batch is planned first (the scan
    /// is inherently serial) and the replica moves then execute on
    /// parallel threads, one per task. Under fault injection — or with a
    /// batch of one — planning and execution interleave task by task,
    /// which keeps deterministic drills (`ech chaos`) byte-identical to
    /// the sequential engine.
    ///
    /// Batch planning consumes dirty entries before any byte moves;
    /// duplicate entries for one object collapse into a single task
    /// inside [`Reintegrator::next_tasks`]. The interleaved engine
    /// behaves identically: after the first task's header restamp the
    /// later entries no longer qualify and pop without planning work.
    pub fn reintegrate_batch(&self, max_tasks: usize) -> Result<ReintegrationStats, Idle> {
        let span = crate::lincheck::inv_reintegrate(&*self.clock);
        let result = self.reintegrate_batch_body(max_tasks);
        crate::lincheck::ret_reintegrate(span, &result, &*self.clock);
        result
    }

    fn reintegrate_batch_body(&self, max_tasks: usize) -> Result<ReintegrationStats, Idle> {
        let max_tasks = max_tasks.max(1);
        let workers_cap = std::thread::available_parallelism()
            .map(std::num::NonZero::get)
            .unwrap_or(1);
        // Adaptive cutover: the pooled path pays for batch planning,
        // per-task stat slots and real thread spawns, which only ever
        // amortises with both hardware parallelism and a batch worth
        // sharing. Small batches — and any machine the scheduler caps at
        // one thread — drain faster through the sequential engine.
        if self.fault.is_some() || max_tasks < 4 || workers_cap <= 1 {
            let mut total = ReintegrationStats::default();
            for planned in 0..max_tasks {
                match self.plan_task() {
                    Ok(task) => total.absorb(self.execute_task(&task)),
                    Err(idle) if planned == 0 => return Err(idle),
                    Err(_) => break,
                }
            }
            return Ok(total);
        }
        // Plan the whole batch in one engine call: `next_tasks` reads
        // the table in chunked LRANGEs and drains consumed entries with
        // one batched LPOP per chunk, instead of a table round-trip per
        // entry as the task-at-a-time loop above pays.
        let tasks: Vec<MigrationTask> = {
            let view = self.view.load();
            let mut engine = self.engine.lock();
            let mut dirty = self.dirty.clone();
            engine.next_tasks(&view, &mut dirty, &self.headers, max_tasks)?
        };
        if tasks.is_empty() {
            return Err(Idle::NothingQualifies);
        }
        // One worker thread per hardware thread, not per task: each
        // worker takes a strided share of the batch, so a small machine
        // does not drown the drain in thread-spawn overhead.
        let workers = workers_cap.min(tasks.len());
        let mut total = ReintegrationStats::default();
        if workers <= 1 {
            for task in &tasks {
                total.absorb(self.execute_task(task));
            }
            return Ok(total);
        }
        let slots: Vec<Mutex<ReintegrationStats>> = tasks
            .iter()
            .map(|_| Mutex::new(ReintegrationStats::default()))
            .collect();
        rayon::scope(|s| {
            for w in 0..workers {
                let tasks = &tasks;
                let slots = &slots;
                s.spawn(move || {
                    for (i, (task, slot)) in tasks.iter().zip(slots).enumerate() {
                        if i % workers == w {
                            let stats = self.execute_task(task);
                            *slot.lock() = stats;
                        }
                    }
                });
            }
        });
        for slot in &slots {
            total.absorb(*slot.lock());
        }
        Ok(total)
    }

    /// Execute the byte movement and header restamp of one planned task.
    fn execute_task(&self, task: &MigrationTask) -> ReintegrationStats {
        self.execute_task_opts(task, false)
    }

    /// [`Cluster::execute_task`] with the move ordering made explicit;
    /// `remove_before_copy` is always false on the production path
    /// (copy-then-remove is what makes a racing failure lose only the
    /// *copy*, never the source replica).
    fn execute_task_opts(
        &self,
        task: &MigrationTask,
        remove_before_copy: bool,
    ) -> ReintegrationStats {
        let mut stats = ReintegrationStats {
            tasks: 1,
            ..Default::default()
        };
        // A move can fail for benign reasons (the replica already moved,
        // the source raced off) or because the *network* got in the way
        // after retries. The distinction matters: a fault-failed move
        // must not let the header restamp below pretend the migration
        // happened — that would strand the object behind a header no
        // copy can satisfy.
        let fault_failed = |e: &NodeError| {
            matches!(
                e,
                NodeError::Io
                    | NodeError::Timeout
                    | NodeError::Partitioned
                    | NodeError::BreakerOpen
            )
        };
        // One budget for the whole task: every per-move retry loop
        // consults the same expiry (rule D8), so a task against a dark
        // fabric gives up instead of spending a fresh budget per move.
        let deadline = self.op_deadline();
        for m in &task.moves {
            let (Ok(src), Ok(dst)) = (self.node(m.from), self.node(m.to)) else {
                // A move naming a server outside the cluster is a planner
                // bug; skip it and let the entry be re-planned.
                continue;
            };
            let src_token = task.oid.raw() ^ ((m.from.index() as u64) << 48);
            let got = self.cfg.retry.run_deadline(
                &*self.clock,
                deadline,
                src_token,
                NodeError::is_transient,
                || self.rpc(m.from, src, |n| n.get(task.oid)),
            );
            match got {
                Ok(obj) => {
                    let bytes = obj.data.len() as u64;
                    self.throttle_migration(bytes as f64);
                    if remove_before_copy {
                        // BUG under test (seeded, modelcheck only): the
                        // source goes away before the copy exists, so a
                        // put failure below loses the replica outright.
                        // ech-allow(D7): replica removes are reconciliation messages the coordinator repeats at will; they ride the reliable queue and bypass the fabric (DESIGN §8)
                        src.remove(task.oid);
                    }
                    // The destination is active at the target version by
                    // construction; a put failure here (after transient
                    // retries) means a racing resize — or a message-level
                    // fault — in which case the entry is re-planned.
                    let dst_token = task.oid.raw() ^ ((m.to.index() as u64) << 48);
                    let put = self.cfg.retry.run_deadline(
                        &*self.clock,
                        deadline,
                        dst_token,
                        NodeError::is_transient,
                        || {
                            self.rpc(m.to, dst, |n| {
                                n.put(
                                    task.oid,
                                    obj.data.clone(),
                                    task.target_version,
                                    obj.header.dirty,
                                )
                            })
                        },
                    );
                    match put {
                        Ok(()) => {
                            if !remove_before_copy {
                                // ech-allow(D7): replica removes are reconciliation messages the coordinator repeats at will; they ride the reliable queue and bypass the fabric (DESIGN §8)
                                src.remove(task.oid);
                            }
                            stats.moves += 1;
                            stats.bytes += bytes;
                        }
                        Err(e) if fault_failed(&e) => stats.failed_moves += 1,
                        Err(_) => {}
                    }
                }
                Err(e) if fault_failed(&e) => {
                    // The source may well hold the replica — the fabric
                    // just would not let us read it.
                    stats.failed_moves += 1;
                }
                Err(_) => {
                    // Replica already moved or source raced off: skip.
                }
            }
        }
        if stats.failed_moves > 0 {
            // The migration is incomplete through no fault of the plan:
            // message-level faults blocked at least one move. Advancing
            // the header now could strand the object (no copy would
            // satisfy the new stamp), so leave the header alone and put
            // the entry back — a drain after the faults clear re-plans
            // exactly this work.
            let version = self
                .headers
                .header(task.oid)
                .map(|h| h.version)
                .unwrap_or(task.target_version);
            self.log_dirty(DirtyEntry::new(task.oid, version));
            self.migrated_bytes
                .fetch_add(stats.bytes, Ordering::Relaxed);
            return stats;
        }
        // Advance the object header to the re-integration target (see
        // Figure 6: the header version moves with every migration); the
        // dirty bit clears only at full power. Every replica of the
        // object is restamped, not just the moved ones — otherwise the
        // untouched siblings would look stale next to the new header.
        // A concurrent rewrite may have advanced the header beyond the
        // task's target; never downgrade it.
        let full_power = self.view.load().current_membership().is_full_power();
        let still_dirty = !full_power;
        let superseded = self
            .headers
            .header(task.oid)
            .is_some_and(|h| h.version > task.target_version);
        if !superseded {
            if full_power {
                self.headers.mark_clean(task.oid, task.target_version);
            } else {
                self.headers
                    .record_write(task.oid, task.target_version, true);
            }
            for &server in task.to.servers() {
                if let Ok(node) = self.node(server) {
                    // ech-allow(D7): header restamps are reconciliation messages the coordinator repeats at will; they ride the reliable queue and bypass the fabric (DESIGN §8)
                    node.restamp(task.oid, task.target_version, still_dirty);
                }
            }
        }
        self.migrated_bytes
            .fetch_add(stats.bytes, Ordering::Relaxed);
        stats
    }

    /// Block (on the cluster clock) until the migration limiter grants
    /// `bytes` of payload budget. No-op when unthrottled. Requests
    /// larger than the burst drain the bucket in instalments, so any
    /// object size makes progress.
    fn throttle_migration(&self, bytes: f64) {
        let Some(limiter) = &self.migration_limiter else {
            return;
        };
        let mut remaining = bytes;
        while remaining > 0.0 {
            let wait = {
                let mut t = limiter.lock();
                let now = self.clock.now();
                let dt = now.saturating_sub(t.last_refill);
                t.bucket.refill(dt.as_secs_f64());
                t.last_refill = now;
                remaining -= t.bucket.consume_up_to(remaining);
                if remaining <= 0.0 {
                    return;
                }
                Duration::from_secs_f64(remaining / t.bucket.rate())
            };
            // Guard dropped before sleeping: parallel executors refill
            // and drain the bucket independently.
            self.clock
                .sleep(wait.clamp(Duration::from_micros(100), Duration::from_millis(50)));
        }
    }

    /// Run re-integration until nothing more qualifies at the current
    /// version. Returns the accumulated stats.
    ///
    /// Healing runs first: quorum writes may have acked with replicas
    /// missing, and at full power Algorithm 2 pops such entries without
    /// moving anything (nothing "qualifies" when the entry's version has
    /// the same active count as the current one) — the missed replicas
    /// must be re-created before the table drains.
    pub fn reintegrate_all(&self) -> ReintegrationStats {
        let span = crate::lincheck::inv_reintegrate(&*self.clock);
        let stats = self.reintegrate_all_body();
        crate::lincheck::ret_reintegrate_all(span, &stats, &*self.clock);
        stats
    }

    fn reintegrate_all_body(&self) -> ReintegrationStats {
        self.heal_dirty();
        let batch = self.cfg.reintegration_batch.max(1);
        let mut total = ReintegrationStats::default();
        loop {
            match self.reintegrate_batch(batch) {
                Ok(s) => {
                    let stalled = s.moves == 0 && s.failed_moves > 0;
                    total.absorb(s);
                    if stalled {
                        // Every move in the batch died on message-level
                        // faults (e.g. an unhealed partition): the
                        // entries are re-logged, but draining harder now
                        // would just loop against the same dead links.
                        // Come back after the network heals.
                        return total;
                    }
                }
                Err(_) => return total,
            }
        }
    }

    /// Spawn a background re-integration worker that repeatedly calls
    /// [`Cluster::reintegrate_step`], sleeping `idle_wait` when idle.
    /// Stop it with [`Cluster::stop_background_worker`]; join the handle
    /// afterwards.
    pub fn start_background_worker(
        self: &Arc<Self>,
        idle_wait: std::time::Duration,
    ) -> std::thread::JoinHandle<()> {
        let me = Arc::clone(self);
        me.stop_worker.store(false, Ordering::Release);
        std::thread::spawn(move || {
            let batch = me.cfg.reintegration_batch.max(1);
            while !me.stop_worker.load(Ordering::Acquire) {
                match me.reintegrate_batch(batch) {
                    Ok(_) => {}
                    Err(_) => std::thread::sleep(idle_wait),
                }
            }
        })
    }

    /// Signal the background worker to exit.
    pub fn stop_background_worker(&self) {
        self.stop_worker.store(true, Ordering::Release);
    }

    /// Has [`Cluster::stop_background_worker`] been called since the
    /// worker was (last) started? This is the worker loop's own exit
    /// test, exposed so tests and model-checking scenarios can observe
    /// the flag without joining the thread.
    pub fn stop_requested(&self) -> bool {
        self.stop_worker.load(Ordering::Acquire)
    }

    /// **Deliberately seeded weak-publication bug** (modelcheck builds
    /// only): [`Cluster::stop_background_worker`] with the flag store
    /// downgraded to `Relaxed`. Sequentially consistent exploration
    /// cannot distinguish this from the correct `Release` store; the
    /// checker's weak-memory mode buffers it, and the worker keeps
    /// observing `false` after the stop "was requested" — the stale
    /// publication the `weak-stop-flag-relaxed` model must catch.
    #[cfg(feature = "modelcheck")]
    pub fn stop_background_worker_relaxed_for_modelcheck(&self) {
        // ech-allow(D5): deliberate seeded bug — the weak-memory models
        // need a real Relaxed publication for the checker to catch.
        self.stop_worker.store(true, Ordering::Relaxed);
    }

    /// Heal replicas missed by degraded (quorum) writes: for every dirty
    /// object, re-create the replicas its *header-version* placement
    /// names but no node physically holds, copying from any fresh
    /// replica. Entries logged purely for power offloading are no-ops
    /// here (all their replicas exist) and are left to the
    /// re-integration engine, which owns the actual migrations.
    ///
    /// Healing targets the header-version placement — where the write
    /// intended its replicas — rather than the current one, so it never
    /// duplicates the engine's migration work. At full power, objects
    /// that end up fully placed get their dirty bit cleared.
    pub fn heal_dirty(&self) -> RepairStats {
        let span = crate::lincheck::inv_heal(&*self.clock);
        let stats = self.heal_dirty_body();
        crate::lincheck::ret_heal(span, &stats, &*self.clock);
        stats
    }

    fn heal_dirty_body(&self) -> RepairStats {
        // One batched LRANGE instead of a per-index LINDEX each: the
        // kv-backed table locks a shard per call, so reading the scan's
        // worth of entries in one op is what keeps a large backlog from
        // turning the heal pass into a lock convoy.
        let entries: Vec<DirtyEntry> = self.dirty.get_range(0, self.dirty.len());
        // One pinned view for the whole scan: entries healed against a
        // placement snapshot, not a per-entry reload (a resize racing
        // the scan is caught by the next heal pass either way).
        let view = self.view.load();
        let full_power = view.current_membership().is_full_power();
        let mut seen = std::collections::HashSet::new();
        let mut stats = RepairStats::default();
        for entry in entries {
            let oid = entry.oid;
            if !seen.insert(oid) {
                continue;
            }
            stats.scanned += 1;
            let Some(h) = self.headers.header(oid) else {
                continue;
            };
            // Placements here are one-shot (each entry names a distinct
            // object, usually at a historical version): computing them
            // straight off the ring is cheaper than a cache round-trip
            // and keeps the shared cache free of never-again-used keys.
            let Ok(placement) = view.place_at(oid, h.version) else {
                continue;
            };
            // Most dirty entries are power-dirty, not degraded: every
            // placement target already holds the object and the copy
            // loop below would skip them all. Checking local presence
            // first keeps the common case off the (retry-wrapped,
            // fault-injected) probe path — this is what keeps the
            // reintegration drain rate intact, since `reintegrate_all`
            // leads with a full heal scan.
            let all_held = placement
                .servers()
                .iter()
                .all(|&s| self.node(s).is_ok_and(|n| n.holds(oid)));
            if !all_held {
                // One budget per healed object, shared by the source
                // probe and every target copy (rule D8): a dark fabric
                // costs one deadline per entry, not one per replica.
                let deadline = self.op_deadline();
                // Find a fresh source, retrying transient probe failures
                // so an injected fault cannot make a healthy replica
                // invisible.
                let mut source = None;
                for (i, n) in self.nodes.iter().enumerate() {
                    if !n.is_powered() {
                        continue;
                    }
                    let token = oid.raw() ^ ((i as u64) << 48) ^ 0x6EA1_0001;
                    let got = self.cfg.retry.run_deadline(
                        &*self.clock,
                        deadline,
                        token,
                        NodeError::is_transient,
                        || self.rpc(ServerId(i as u32), n, |node| node.get(oid)),
                    );
                    if let Ok(obj) = got {
                        if obj.header.version >= h.version {
                            source = Some(obj);
                            break;
                        }
                    }
                }
                let Some(obj) = source else { continue };
                for &target in placement.servers() {
                    let Ok(node) = self.node(target) else {
                        continue;
                    };
                    if node.holds(oid) {
                        continue;
                    }
                    let token = oid.raw() ^ ((target.index() as u64) << 48) ^ 0x6EA1_0002;
                    let put = self.cfg.retry.run_deadline(
                        &*self.clock,
                        deadline,
                        token,
                        NodeError::is_transient,
                        || {
                            self.rpc(target, node, |n| {
                                n.put(oid, obj.data.clone(), obj.header.version, obj.header.dirty)
                            })
                        },
                    );
                    if put.is_ok() {
                        stats.recreated += 1;
                        stats.bytes += obj.data.len() as u64;
                    }
                }
            }
            let placed_now = full_power
                && view.place_current(oid).is_ok_and(|p| {
                    p.servers()
                        .iter()
                        .all(|&s| self.node(s).is_ok_and(|n| n.holds(oid)))
                });
            if placed_now {
                self.headers.mark_clean(oid, h.version);
                for &server in placement.servers() {
                    if let Ok(node) = self.node(server) {
                        // ech-allow(D7): header restamps are reconciliation messages the coordinator repeats at will; they ride the reliable queue and bypass the fabric (DESIGN §8)
                        node.restamp(oid, h.version, false);
                    }
                }
            }
        }
        stats
    }

    /// **Deliberately seeded reconciliation bug** (modelcheck builds
    /// only): [`Cluster::heal_dirty`] followed by a plausible-looking
    /// "reconcile the header with what the disks actually hold" pass
    /// that restamps each dirty object's header *down* to the oldest
    /// surviving replica stamp. Every replica the heal created is
    /// intact and every membership invariant holds, so state assertions
    /// pass — but the downgraded header re-admits the superseded copy a
    /// past resize left at the *current* placement (acceptance is
    /// `stamp >= header`), and the next read serves it. Only a recorded
    /// history convicts the bug: a get that *began after* the newer
    /// write's ack returns the old value, and the `--lincheck` checker
    /// rejects the history (`lin-heal-restamp-bug` model).
    #[cfg(feature = "modelcheck")]
    pub fn heal_dirty_restamping_for_modelcheck(&self) -> RepairStats {
        let span = crate::lincheck::inv_heal(&*self.clock);
        let stats = self.heal_dirty_restamping_body();
        crate::lincheck::ret_heal(span, &stats, &*self.clock);
        stats
    }

    #[cfg(feature = "modelcheck")]
    fn heal_dirty_restamping_body(&self) -> RepairStats {
        let entries: Vec<DirtyEntry> = self.dirty.get_range(0, self.dirty.len());
        let stats = self.heal_dirty_body();
        let mut seen = std::collections::HashSet::new();
        for entry in entries {
            if !seen.insert(entry.oid) {
                continue;
            }
            let Some(h) = self.headers.header(entry.oid) else {
                continue;
            };
            // BUG under test: the oldest surviving stamp is where a
            // *superseded* copy lives, not where the object's latest
            // write landed — "reconciling" the header down to it
            // un-publishes every newer write to the object.
            let oldest = self
                .nodes
                .iter()
                .filter_map(|n| n.get(entry.oid).ok())
                .map(|o| o.header.version)
                .min();
            if let Some(v) = oldest {
                if v < h.version {
                    self.headers.record_write(entry.oid, v, h.dirty);
                }
            }
        }
        stats
    }

    /// Scan for nodes that crashed *silently* (an injected crash powers
    /// the node off without telling the coordinator) and record a
    /// membership version excluding them, so placement stops targeting
    /// dead disks and repair can re-replicate. Returns the newly-marked
    /// servers.
    pub fn detect_and_mark_crashed(&self) -> Vec<ServerId> {
        let _writer = self.view_write.lock();
        let view = self.view.load();
        let dark: Vec<ServerId> = (0..self.cfg.servers as u32)
            .map(ServerId)
            .filter(|&s| {
                view.current_membership().is_active(s)
                    && self.nodes.get(s.index()).is_some_and(|n| !n.is_powered())
            })
            .collect();
        if let Some((&head, tail)) = dark.split_first() {
            let mut next = ClusterView::clone(&view);
            let mut table = next
                .current_membership()
                .with_state(head, ech_core::membership::PowerState::Off);
            for &s in tail {
                table = table.with_state(s, ech_core::membership::PowerState::Off);
            }
            next.record_membership(table);
            self.view.store(Arc::new(next));
        }
        dark
    }

    /// Check that every replica of `oid` required by the current
    /// placement is physically present (used by integrity tests).
    pub fn is_fully_placed(&self, oid: ObjectId) -> bool {
        match self.locate(oid) {
            Ok(p) => p
                .servers()
                .iter()
                .all(|&s| self.node(s).is_ok_and(|n| n.holds(oid))),
            Err(_) => false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn payload(oid: u64) -> Bytes {
        Bytes::from(format!("object-{oid}-payload"))
    }

    fn cluster() -> Arc<Cluster> {
        Cluster::new(ClusterConfig::paper())
    }

    #[test]
    fn put_replicates_r_ways() {
        let c = cluster();
        let p = c.put(ObjectId(7), payload(7)).unwrap();
        assert_eq!(p.len(), 2);
        let holders = c.nodes().iter().filter(|n| n.holds(ObjectId(7))).count();
        assert_eq!(holders, 2);
        assert_eq!(c.get(ObjectId(7)).unwrap(), payload(7));
    }

    #[test]
    fn data_available_with_only_primaries_active() {
        let c = cluster();
        for i in 0..200u64 {
            c.put(ObjectId(i), payload(i)).unwrap();
        }
        // Scale down to the 2 primaries — no cleanup, no re-replication.
        c.resize(2);
        for i in 0..200u64 {
            assert_eq!(
                c.get(ObjectId(i)).unwrap(),
                payload(i),
                "object {i} lost at minimal power"
            );
        }
    }

    #[test]
    fn writes_at_partial_power_are_dirty_and_offloaded() {
        let c = cluster();
        c.resize(5);
        for i in 0..50u64 {
            let p = c.put(ObjectId(i), payload(i)).unwrap();
            for s in p.servers() {
                assert!(s.index() < 5, "placed on inactive server {s}");
            }
        }
        assert_eq!(c.dirty_len(), 50);
        // Readable immediately.
        for i in 0..50u64 {
            assert_eq!(c.get(ObjectId(i)).unwrap(), payload(i));
        }
    }

    #[test]
    fn full_power_writes_are_clean() {
        let c = cluster();
        c.put(ObjectId(1), payload(1)).unwrap();
        assert_eq!(c.dirty_len(), 0);
    }

    #[test]
    fn reintegration_moves_offloaded_data_home() {
        let c = cluster();
        c.resize(5);
        for i in 0..100u64 {
            c.put(ObjectId(i), payload(i)).unwrap();
        }
        c.resize(10);
        let stats = c.reintegrate_all();
        assert!(stats.tasks > 0, "some objects must have been offloaded");
        assert_eq!(c.dirty_len(), 0, "full power clears the dirty table");
        for i in 0..100u64 {
            assert!(
                c.is_fully_placed(ObjectId(i)),
                "object {i} not at its full-power home"
            );
            assert_eq!(c.get(ObjectId(i)).unwrap(), payload(i));
        }
        assert!(c.migrated_bytes() > 0);
    }

    #[test]
    fn partial_size_up_keeps_dirty_entries() {
        let c = cluster();
        c.resize(4);
        for i in 0..60u64 {
            c.put(ObjectId(i), payload(i)).unwrap();
        }
        c.resize(7);
        let stats = c.reintegrate_all();
        // Data moved toward v3 placement but entries survive for the
        // eventual full-power pass.
        assert_eq!(c.dirty_len(), 60);
        assert!(stats.tasks > 0);
        // All data still correct.
        for i in 0..60u64 {
            assert_eq!(c.get(ObjectId(i)).unwrap(), payload(i));
        }
    }

    #[test]
    fn reads_fall_back_to_write_version_placement() {
        let c = cluster();
        c.resize(3);
        c.put(ObjectId(42), payload(42)).unwrap();
        // Size up WITHOUT re-integrating: current placement may name
        // servers that do not hold the object yet.
        c.resize(10);
        assert_eq!(c.get(ObjectId(42)).unwrap(), payload(42));
    }

    #[test]
    fn rewrite_at_newer_version_wins() {
        let c = cluster();
        c.resize(5);
        c.put(ObjectId(9), Bytes::from("old")).unwrap();
        c.resize(6);
        c.put(ObjectId(9), Bytes::from("new")).unwrap();
        c.resize(10);
        c.reintegrate_all();
        assert_eq!(c.get(ObjectId(9)).unwrap(), Bytes::from("new"));
    }

    #[test]
    fn original_strategy_cluster_works_too() {
        let mut cfg = ClusterConfig::paper();
        cfg.strategy = Strategy::Original;
        let c = Cluster::new(cfg);
        for i in 0..50u64 {
            c.put(ObjectId(i), payload(i)).unwrap();
        }
        for i in 0..50u64 {
            assert_eq!(c.get(ObjectId(i)).unwrap(), payload(i));
        }
    }

    #[test]
    fn concurrent_writers_and_reintegration() {
        let c = cluster();
        c.resize(5);
        // Preload some dirty data.
        for i in 0..100u64 {
            c.put(ObjectId(i), payload(i)).unwrap();
        }
        c.resize(10);
        let worker = c.start_background_worker(std::time::Duration::from_millis(1));
        // Writers race with the background re-integration.
        crossbeam::scope(|s| {
            for t in 0..4u64 {
                let c = &c;
                s.spawn(move |_| {
                    for i in 0..200u64 {
                        let oid = ObjectId(1000 + t * 1000 + i);
                        c.put(oid, payload(oid.raw())).unwrap();
                    }
                });
            }
        })
        .unwrap();
        // Wait for the table to drain.
        let mut spins = 0;
        while c.dirty_len() > 0 && spins < 5000 {
            std::thread::sleep(std::time::Duration::from_millis(1));
            spins += 1;
        }
        c.stop_background_worker();
        worker.join().unwrap();
        assert_eq!(c.dirty_len(), 0);
        // Everything readable and fully placed.
        for i in 0..100u64 {
            assert!(c.is_fully_placed(ObjectId(i)));
        }
        for t in 0..4u64 {
            for i in 0..200u64 {
                let oid = ObjectId(1000 + t * 1000 + i);
                assert_eq!(c.get(oid).unwrap(), payload(oid.raw()));
            }
        }
    }

    #[test]
    fn balanced_reads_track_the_equal_work_layout() {
        // With reads spread round-robin over replicas, each server's read
        // count is proportional to the data it stores — the layout's read
        // performance proportionality claim (§III-C).
        let c = cluster();
        let objects = 4_000u64;
        for i in 0..objects {
            c.put(ObjectId(i), payload(i)).unwrap();
        }
        let writes_baseline: Vec<u64> = c.nodes().iter().map(|n| n.op_counts().0).collect();
        for round in 0..4u64 {
            for i in 0..objects {
                let _ = c
                    .get_with(ObjectId((i + round * 7) % objects), ReadPolicy::Balanced)
                    .unwrap();
            }
        }
        let stored: Vec<f64> = c.nodes().iter().map(|n| n.object_count() as f64).collect();
        let reads: Vec<f64> = c
            .nodes()
            .iter()
            .zip(&writes_baseline)
            .map(|(n, &base)| (n.op_counts().0 - base) as f64)
            .collect();
        let total_stored: f64 = stored.iter().sum();
        let total_reads: f64 = reads.iter().sum();
        for i in 0..10 {
            let stored_frac = stored[i] / total_stored;
            let read_frac = reads[i] / total_reads;
            assert!(
                (stored_frac - read_frac).abs() < 0.05,
                "server {}: stores {:.3} of data but serves {:.3} of reads",
                i + 1,
                stored_frac,
                read_frac
            );
        }
    }

    #[test]
    fn first_replica_policy_is_more_skewed_than_balanced() {
        let skew = |policy: ReadPolicy| -> f64 {
            let c = cluster();
            for i in 0..2_000u64 {
                c.put(ObjectId(i), payload(i)).unwrap();
            }
            let base: Vec<u64> = c.nodes().iter().map(|n| n.op_counts().0).collect();
            for i in 0..2_000u64 {
                let _ = c.get_with(ObjectId(i), policy).unwrap();
            }
            let reads: Vec<f64> = c
                .nodes()
                .iter()
                .zip(&base)
                .map(|(n, &b)| (n.op_counts().0 - b) as f64)
                .collect();
            let stored: Vec<f64> = c.nodes().iter().map(|n| n.object_count() as f64).collect();
            // Sum of absolute deviation between read share and data share.
            let tr: f64 = reads.iter().sum();
            let ts: f64 = stored.iter().sum();
            reads
                .iter()
                .zip(&stored)
                .map(|(r, s)| (r / tr - s / ts).abs())
                .sum()
        };
        assert!(
            skew(ReadPolicy::Balanced) < skew(ReadPolicy::FirstReplica),
            "balanced reads should track the data distribution more closely"
        );
    }

    #[test]
    fn coordinator_restart_resumes_reintegration() {
        let c = cluster();
        c.resize(5);
        for i in 0..150u64 {
            c.put(ObjectId(i), payload(i)).unwrap();
        }
        // Coordinator dies mid-flight; a new one recovers from the
        // metadata store. Node disks are untouched.
        let c2 = c.restart();
        assert_eq!(c2.dirty_len(), 150);
        assert_eq!(c2.current_version(), c.current_version());
        for i in 0..150u64 {
            assert_eq!(c2.get(ObjectId(i)).unwrap(), payload(i));
        }
        // The restarted coordinator finishes the elastic cycle.
        c2.resize(10);
        let stats = c2.reintegrate_all();
        assert!(stats.tasks > 0);
        assert_eq!(c2.dirty_len(), 0);
        for i in 0..150u64 {
            assert!(c2.is_fully_placed(ObjectId(i)));
            assert_eq!(c2.get(ObjectId(i)).unwrap(), payload(i));
        }
    }

    #[test]
    fn restart_mid_reintegration_loses_no_work() {
        let c = cluster();
        c.resize(4);
        for i in 0..200u64 {
            c.put(ObjectId(i), payload(i)).unwrap();
        }
        c.resize(10);
        // Process only part of the backlog, then "crash" the coordinator.
        for _ in 0..40 {
            let _ = c.reintegrate_step();
        }
        let c2 = c.restart();
        c2.reintegrate_all();
        assert_eq!(c2.dirty_len(), 0);
        for i in 0..200u64 {
            assert!(c2.is_fully_placed(ObjectId(i)), "object {i}");
        }
    }

    /// Placement is deterministic per config, so an unfaulted twin
    /// cluster tells a fault-plan test which servers an object lands on.
    fn placement_of(cfg: &ClusterConfig, oid: ObjectId) -> Vec<ServerId> {
        let c = Cluster::new(cfg.clone());
        c.locate(oid).unwrap().servers().to_vec()
    }

    #[test]
    fn write_quorum_required_counts() {
        assert_eq!(WriteQuorum::All.required(3), 3);
        assert_eq!(WriteQuorum::PrimaryPlusMajority.required(2), 2);
        assert_eq!(WriteQuorum::PrimaryPlusMajority.required(3), 2);
        assert_eq!(WriteQuorum::PrimaryPlusMajority.required(5), 3);
        assert_eq!(WriteQuorum::PrimaryPlusMajority.required(1), 1);
        assert_eq!(WriteQuorum::AtLeast(0).required(3), 1);
        assert_eq!(WriteQuorum::AtLeast(9).required(3), 3);
    }

    #[test]
    fn degraded_write_acks_at_quorum_and_heals() {
        use crate::fault::{FaultPlan, NodeFaultSpec};
        let mut cfg = ClusterConfig::paper();
        cfg.replicas = 3;
        let oid = ObjectId(77);
        let servers = placement_of(&cfg, oid);
        // One secondary fails every attempt of the put (the retry budget
        // is 4 attempts; the error window covers exactly its first 4
        // ops), then recovers — deterministic by construction.
        let mut plan = FaultPlan::default();
        plan.set_node(
            servers[1].index(),
            NodeFaultSpec {
                io_error_prob: 1.0,
                io_error_until_op: cfg.retry.max_attempts as u64,
                ..NodeFaultSpec::default()
            },
        );
        let c = Cluster::with_faults(cfg, plan);
        c.put(oid, payload(77)).unwrap();
        assert!(!c.is_fully_placed(oid), "one replica must be missing");
        assert_eq!(c.dirty_len(), 1, "degraded ack logs a dirty entry");
        let snap = c.counters();
        assert_eq!(snap.quorum_acks, 1);
        assert_eq!(snap.replicas_missed, 1);
        assert_eq!(snap.retries, 3);
        // Readable from the surviving replicas meanwhile.
        assert_eq!(c.get(oid).unwrap(), payload(77));
        // Healing (run first by reintegrate_all) restores the replica
        // and the table drains at full power.
        c.reintegrate_all();
        assert!(c.is_fully_placed(oid));
        assert_eq!(c.dirty_len(), 0);
        assert_eq!(c.fault_stats().unwrap().io_errors, 4);
    }

    #[test]
    fn quorum_failure_rejects_the_write() {
        use crate::fault::{FaultPlan, NodeFaultSpec};
        let mut cfg = ClusterConfig::paper();
        cfg.replicas = 3;
        let oid = ObjectId(321);
        let servers = placement_of(&cfg, oid);
        let mut plan = FaultPlan::default();
        for &s in &servers[1..] {
            plan.set_node(
                s.index(),
                NodeFaultSpec {
                    io_error_prob: 1.0,
                    ..NodeFaultSpec::default()
                },
            );
        }
        let c = Cluster::with_faults(cfg, plan);
        let err = c.put(oid, payload(321)).unwrap_err();
        assert_eq!(
            err,
            ClusterError::QuorumNotReached {
                written: 1,
                required: 2
            }
        );
        assert!(err.is_retryable());
        // The write was not acknowledged: no header, no dirty entry.
        assert_eq!(c.dirty_len(), 0);
        assert!(c.headers().header(oid).is_none());
    }

    #[test]
    fn transient_failures_surface_as_unavailable_not_notfound() {
        use crate::fault::{FaultPlan, NodeFaultSpec};
        // Unfaulted: a missing object is an authoritative NotFound.
        let c = cluster();
        assert_eq!(c.get(ObjectId(404)), Err(ClusterError::NotFound));

        // Faulted: the secondary errors on every op and the primary goes
        // dark — every probe failure could be transient, so the read
        // must report a retryable Unavailable, not NotFound.
        let mut cfg = ClusterConfig::paper();
        cfg.servers = 2;
        cfg.replicas = 2;
        cfg.kv_shards = 2;
        cfg.write_quorum = WriteQuorum::AtLeast(1);
        let oid = ObjectId(5);
        let servers = placement_of(&cfg, oid);
        let mut plan = FaultPlan::default();
        plan.set_node(
            servers[1].index(),
            NodeFaultSpec {
                io_error_prob: 1.0,
                ..NodeFaultSpec::default()
            },
        );
        let c = Cluster::with_faults(cfg, plan);
        c.put(oid, payload(5)).unwrap();
        assert_eq!(c.counters().replicas_missed, 1);
        c.nodes()[servers[0].index()].set_powered(false);
        assert_eq!(
            c.get_with(oid, ReadPolicy::FirstReplica),
            Err(ClusterError::Unavailable)
        );
        assert!(ClusterError::Unavailable.is_retryable());
        assert!(c.counters().unavailable_errors >= 1);
    }

    #[test]
    fn silent_crashes_are_detected_and_excluded() {
        use crate::fault::{FaultPlan, NodeFaultSpec};
        let mut plan = FaultPlan::default();
        plan.set_node(
            2,
            NodeFaultSpec {
                crash_at_op: Some(0),
                ..NodeFaultSpec::default()
            },
        );
        let c = Cluster::with_faults(ClusterConfig::paper(), plan);
        assert!(c.detect_and_mark_crashed().is_empty());
        // Any op on node 2 fires the injected crash; the coordinator is
        // not told (that is what makes it silent).
        assert!(c.nodes()[2].get(ObjectId(1)).is_err());
        assert!(!c.nodes()[2].is_powered());
        assert_eq!(c.active_count(), 10);
        assert_eq!(c.detect_and_mark_crashed(), vec![ServerId(2)]);
        assert_eq!(c.active_count(), 9);
        // New writes no longer target the dead disk.
        for i in 100..160u64 {
            let p = c.put(ObjectId(i), payload(i)).unwrap();
            assert!(!p.contains(ServerId(2)));
        }
        // Idempotent: nothing newly dark on a second scan.
        assert!(c.detect_and_mark_crashed().is_empty());
    }

    #[test]
    fn hedged_reads_dodge_a_slow_replica() {
        use crate::fault::{FaultPlan, NodeFaultSpec, VirtualClock};
        use std::time::Duration;
        let cfg = ClusterConfig::paper();
        let oid = ObjectId(9000);
        let servers = placement_of(&cfg, oid);
        let mut plan = FaultPlan::default();
        plan.set_node(
            servers[0].index(),
            NodeFaultSpec {
                delay: Some(Duration::from_millis(150)),
                ..NodeFaultSpec::default()
            },
        );
        // The probe's latency budget runs on the injected clock: the
        // slow replica's 150 ms delay is pure virtual time, and
        // overrunning the 2 ms threshold fires the hedge
        // deterministically.
        let clock = Arc::new(VirtualClock::new());
        let c = Cluster::with_faults_and_clock(cfg, plan, clock.clone());
        c.put(oid, payload(9000)).unwrap();
        let hedged_before = c.counters().hedged_reads;
        let t0 = clock.now();
        let data = c
            .get_with(
                oid,
                ReadPolicy::Hedged {
                    threshold: Duration::from_millis(2),
                },
            )
            .unwrap();
        assert_eq!(data, payload(9000));
        assert!(
            c.counters().hedged_reads > hedged_before,
            "overrunning the threshold must fire the hedge"
        );
        assert!(
            clock.now().saturating_sub(t0) >= Duration::from_millis(2),
            "the slow probe must have consumed the latency budget"
        );
        // A read that stays under the budget must NOT hedge: the fast
        // secondary answers within threshold once it is probed first.
        let hedged_mid = c.counters().hedged_reads;
        let fast = c
            .get_with(
                oid,
                ReadPolicy::Hedged {
                    threshold: Duration::from_secs(1),
                },
            )
            .unwrap();
        assert_eq!(fast, payload(9000));
        assert_eq!(
            c.counters().hedged_reads,
            hedged_mid,
            "a probe inside its budget must not hedge"
        );
    }

    #[test]
    fn open_breaker_fast_fails_charge_the_clock() {
        use crate::fault::{FaultPlan, NodeFaultSpec, VirtualClock};
        use crate::net::BreakerConfig;
        let mut cfg = ClusterConfig::paper();
        cfg.breaker = Some(BreakerConfig {
            failure_threshold: 2,
            cooldown: Duration::from_secs(3600),
        });
        let backoff_base = cfg.retry.base;
        let oid = ObjectId(31);
        let servers = placement_of(&cfg, oid);
        let mut plan = FaultPlan::default();
        plan.set_node(
            servers[0].index(),
            NodeFaultSpec {
                io_error_prob: 1.0,
                ..NodeFaultSpec::default()
            },
        );
        let clock = Arc::new(VirtualClock::new());
        let c = Cluster::with_faults_and_clock(cfg, plan, clock.clone());
        // Trip the primary's breaker with two message-level failures.
        let node = c.node(servers[0]).unwrap();
        for _ in 0..2 {
            assert!(matches!(
                c.rpc(servers[0], node, |n| n.get(oid)),
                Err(NodeError::Io)
            ));
        }
        // Every fast-fail must advance the virtual clock by at least one
        // backoff base — a zero-cost rejection would let a poll loop spin
        // against the open breaker without time ever passing, so the
        // cooldown (and any deadline) could never expire.
        let t0 = clock.now();
        let spins = 50u32;
        for _ in 0..spins {
            assert!(matches!(
                c.rpc(servers[0], node, |n| n.get(oid)),
                Err(NodeError::BreakerOpen)
            ));
        }
        assert!(
            clock.now().saturating_sub(t0) >= backoff_base * spins,
            "open-breaker fast-fails must charge the clock"
        );
    }

    #[test]
    fn resize_validates_bounds() {
        let c = cluster();
        let v = c.resize(6);
        assert_eq!(v, VersionId(2));
        assert_eq!(c.active_count(), 6);
        assert!(!c.nodes()[9].is_powered());
        assert!(c.nodes()[5].is_powered());
    }
}
