//! Workload definitions and their seeded inputs.
//!
//! Everything a run feeds the cluster — object ids, the per-client op
//! streams, the rewrite orders of the elastic cycles and the drain
//! reader's keys — is generated here from `--seed` before any timing
//! starts, and folded into one digest so two runs can show they drove
//! the same inputs.

use bytes::Bytes;
use ech_core::ids::ObjectId;

/// Payload size of every object.
pub const PAYLOAD_BYTES: usize = 1024;

/// Ops pre-generated per closed-loop client; a client that outruns its
/// stream starts over from the head.
pub const STREAM_LEN: usize = 1 << 20;

/// Rewrite orders generated up front: the most elastic cycles an
/// `elastic-cycle` run makes; the full-power tails reuse them in turn.
pub const MAX_CYCLES: usize = 8;

/// One workload's shape.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Spec {
    /// Name on the command line.
    pub name: &'static str,
    /// Objects preloaded at full power.
    pub objects: usize,
    /// Closed-loop clients of the full-power phase (0 = no such phase).
    pub clients: usize,
    /// Percentage of gets in the full-power mix (the rest are puts).
    pub get_percent: u32,
    /// Objects rewritten at half power in each elastic cycle.
    pub rewrite: usize,
    /// Whether one client reads while the drain runs.
    pub reader_during_drain: bool,
}

/// The benchmark's workloads.
pub const WORKLOADS: [Spec; 3] = [
    // Working set inside the 65,536-entry placement cache; the
    // half-power tail only exists so every workload reports a drain.
    Spec {
        name: "read-hot",
        objects: 50_000,
        clients: 2,
        get_percent: 95,
        rewrite: 25_000,
        reader_during_drain: false,
    },
    // 7.6x the placement cache, half the ops are writes.
    Spec {
        name: "write-cold",
        objects: 500_000,
        clients: 2,
        get_percent: 50,
        rewrite: 50_000,
        reader_during_drain: false,
    },
    // The paper's scenario: offloaded rewrites at half power, then a
    // drain after the size-up with one foreground reader.
    Spec {
        name: "elastic-cycle",
        objects: 400_000,
        clients: 0,
        get_percent: 0,
        rewrite: 200_000,
        reader_during_drain: true,
    },
];

/// Look a workload up by name.
pub fn spec(name: &str) -> Option<Spec> {
    WORKLOADS.iter().copied().find(|s| s.name == name)
}

/// SplitMix64: a small, fast, seedable generator (and, through
/// [`mix`], a bijection on `u64`).
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator for `seed` and a purpose tag, so independent streams
    /// of one run do not share their sequence.
    pub fn new(seed: u64, tag: u64) -> Self {
        Rng(mix(seed ^ mix(tag)))
    }

    /// Next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        mix(self.0)
    }

    /// Uniform in `0..n` (`n > 0`), by multiply-shift.
    pub fn below(&mut self, n: usize) -> usize {
        ((u128::from(self.next_u64()) * n as u128) >> 64) as usize
    }
}

/// The SplitMix64 finalizer; a bijection, so distinct inputs give
/// distinct outputs.
pub fn mix(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// One closed-loop op: a key index local to the client's partition and
/// whether it is a put.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Op(u32);

impl Op {
    /// Key index within the client's partition.
    pub fn key(self) -> usize {
        (self.0 >> 1) as usize
    }

    /// True for a put, false for a get.
    pub fn is_put(self) -> bool {
        self.0 & 1 == 1
    }
}

/// All of one run's generated inputs.
#[derive(Debug, Clone)]
pub struct Inputs {
    /// The workload.
    pub spec: Spec,
    /// Seed the inputs came from.
    pub seed: u64,
    /// Effective closed-loop clients (`spec.clients` capped at the
    /// machine's parallelism).
    pub clients: usize,
    /// Per-client op streams of the full-power phase.
    pub streams: Vec<Vec<Op>>,
    /// Per-cycle rewrite orders (distinct key indices).
    pub rewrites: Vec<Vec<u32>>,
    /// Key indices the drain reader visits, in order.
    pub reader: Vec<u32>,
}

impl Inputs {
    /// Generate every input of `spec` for `seed`, with `clients`
    /// closed-loop clients in the full-power phase.
    pub fn generate(spec: Spec, seed: u64, clients: usize) -> Self {
        let streams = (0..clients)
            .map(|c| {
                let part = partition(spec.objects, clients, c).len();
                let mut rng = Rng::new(seed, 0x100 + c as u64);
                (0..STREAM_LEN)
                    .map(|_| {
                        let key = rng.below(part) as u32;
                        let put = rng.below(100) as u32 >= spec.get_percent;
                        Op(key << 1 | u32::from(put))
                    })
                    .collect()
            })
            .collect();
        let mut rng = Rng::new(seed, 0x200);
        let mut keys: Vec<u32> = (0..spec.objects as u32).collect();
        let rewrites = (0..MAX_CYCLES)
            .map(|_| {
                // Partial Fisher-Yates: the first `rewrite` slots become
                // a uniform sample without replacement.
                for i in 0..spec.rewrite {
                    let j = i + rng.below(spec.objects - i);
                    keys.swap(i, j);
                }
                keys[..spec.rewrite].to_vec()
            })
            .collect();
        let mut rng = Rng::new(seed, 0x300);
        let reader = (0..STREAM_LEN)
            .map(|_| rng.below(spec.objects) as u32)
            .collect();
        Inputs {
            spec,
            seed,
            clients,
            streams,
            rewrites,
            reader,
        }
    }

    /// Object id of key index `key`: a seeded bijection, so each seed
    /// places a different, collision-free key set.
    pub fn oid(&self, key: usize) -> ObjectId {
        ObjectId(mix(key as u64 ^ mix(self.seed)))
    }

    /// FNV-1a over every generated input and a sample of the id map.
    pub fn digest(&self) -> u64 {
        let mut h: u64 = 0xCBF2_9CE4_8422_2325;
        let mut eat = |w: u64| {
            for b in w.to_le_bytes() {
                h ^= u64::from(b);
                h = h.wrapping_mul(0x0100_0000_01B3);
            }
        };
        for key in (0..self.spec.objects).step_by(997) {
            eat(self.oid(key).raw());
        }
        for s in &self.streams {
            s.iter().for_each(|op| eat(u64::from(op.0)));
        }
        for r in &self.rewrites {
            r.iter().for_each(|&k| eat(u64::from(k)));
        }
        self.reader.iter().for_each(|&k| eat(u64::from(k)));
        h
    }
}

/// Key indices owned by client `c` of `clients` (contiguous, disjoint).
pub fn partition(objects: usize, clients: usize, c: usize) -> std::ops::Range<usize> {
    objects * c / clients..objects * (c + 1) / clients
}

/// The payload of `oid` at write sequence `seq`: the id and sequence
/// number, then a fill derived from both.
pub fn payload(oid: ObjectId, seq: u32) -> Bytes {
    let mut v = vec![0u8; PAYLOAD_BYTES];
    fill(&mut v, oid, seq);
    Bytes::from(v)
}

/// True when `data` is exactly the payload of `oid` at `seq`. `scratch`
/// is a reusable buffer of [`PAYLOAD_BYTES`].
pub fn is_payload(data: &[u8], oid: ObjectId, seq: u32, scratch: &mut [u8]) -> bool {
    fill(scratch, oid, seq);
    data == scratch
}

fn fill(buf: &mut [u8], oid: ObjectId, seq: u32) {
    buf[..8].copy_from_slice(&oid.raw().to_le_bytes());
    buf[8..12].copy_from_slice(&seq.to_le_bytes());
    let mut x = mix(oid.raw() ^ u64::from(seq));
    for chunk in buf[12..].chunks_mut(8) {
        x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
        chunk.copy_from_slice(&x.to_le_bytes()[..chunk.len()]);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_digest_other_seed_other_digest() {
        for spec in WORKLOADS {
            let a = Inputs::generate(spec, 7, 2).digest();
            assert_eq!(a, Inputs::generate(spec, 7, 2).digest(), "{}", spec.name);
            assert_ne!(a, Inputs::generate(spec, 8, 2).digest(), "{}", spec.name);
        }
    }

    #[test]
    fn rewrite_orders_are_distinct_keys() {
        let inputs = Inputs::generate(spec("read-hot").unwrap(), 3, 2);
        for order in &inputs.rewrites {
            let mut sorted = order.clone();
            sorted.sort_unstable();
            sorted.dedup();
            assert_eq!(sorted.len(), inputs.spec.rewrite);
        }
    }

    #[test]
    fn payload_round_trips_and_rejects_other_versions() {
        let mut scratch = vec![0u8; PAYLOAD_BYTES];
        let p = payload(ObjectId(42), 3);
        assert!(is_payload(&p, ObjectId(42), 3, &mut scratch));
        assert!(!is_payload(&p, ObjectId(42), 4, &mut scratch));
        assert!(!is_payload(&p, ObjectId(43), 3, &mut scratch));
    }

    #[test]
    fn partitions_cover_every_key_once() {
        let parts: Vec<_> = (0..3).map(|c| partition(10, 3, c)).collect();
        assert_eq!(parts[0].start, 0);
        assert_eq!(parts[2].end, 10);
        assert!(parts.windows(2).all(|w| w[0].end == w[1].start));
    }
}
