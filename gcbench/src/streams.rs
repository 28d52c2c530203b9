//! The four workloads' inputs: the fixed corpus and query catalogues, and the
//! ordered operation stream made from `--seed` and nothing else. Sizes are
//! fixed counts (a per-second rate probed on the reference box × `--seconds`),
//! not a time limit, so every count the program reports repeats exactly.

use crate::layers::{self, Graph, Query};

pub const WORKLOADS: [&str; 4] = ["zipf-fit", "drift-cold", "mutate-durable", "http-open"];

/// Operations per second of `--seconds` each workload is sized by: what the
/// seed commit sustains on the reference box (2 cores), so a timed phase
/// lasts about `--seconds` there.
pub const ZIPF_FIT_QPS: usize = 200_000;
pub const DRIFT_COLD_QPS: usize = 1_900;
pub const MUTATE_DURABLE_QPS: usize = 1_550;
/// Offered rate of the open-loop phase (under a tenth of what two closed-loop
/// connections reach on this all-hit stream).
pub const HTTP_OPEN_RPS: usize = 2_000;
/// Rates the traced run sweeps on the warm server.
pub const SWEEP_RATES: [u64; 5] = [1000, 2000, 3000, 4000, 5000];

/// Each swept rate is held for two fifths of `--seconds`.
pub fn sweep_seconds_per_rate(scale: Scale) -> usize {
    (scale.seconds * 2 / SWEEP_RATES.len()).max(1)
}

const DATASET_SEED: u64 = 1;
/// The Zipf workloads draw from a fixed catalogue of queries with fixed
/// popularity ranks, as a key-value benchmark draws from a fixed key space:
/// the seed decides which query arrives when. (A pool drawn per seed makes the
/// handful of top-ranked queries — their sizes, their answer sizes — set every
/// median, and ten seeds then measure ten different workloads.)
const CATALOGUE_SEED: u64 = 2;
pub const ZIPF_SKEW: f64 = 1.1;
/// On `zipf-fit` the rank→query assignment shifts every this many queries
/// (popularity drifts; the working set does not). Which queries are popular
/// then averages out within a run, where a fixed assignment would let the
/// size of the one top-ranked query — a fifth of all traffic — set the medians.
pub const FIT_ROTATE_EVERY: usize = 10_000;
/// Ranks shift by this much each time; coprime with the pool size, so every
/// query gets its turn at every rank.
const FIT_ROTATE_BY: usize = 37;
/// Fits the 500-entry cache.
pub const FIT_POOL: usize = 400;
/// Forty times the cache; Zipf 1.1 still repeats enough for ≈96 % hits.
pub const WIDE_POOL: usize = 20_000;
pub const QUERIES_PER_MUTATION: usize = 100;
/// Closed-loop requests sent before the open-loop schedule starts.
pub const HTTP_WARMUP: usize = 4_000;
/// Queries replayed against the restored cache, every one checked.
pub const POST_RESTORE_QUERIES: usize = 200;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Op {
    /// Index into the pool.
    Query(u32),
    /// Index into the fresh graphs.
    Insert(u32),
    /// Graph id to tombstone; live when the stream reaches it.
    Remove(u32),
}

pub struct Stream {
    /// Graphs in the base dataset; the first insert gets this id.
    pub base_graphs: usize,
    pub pool: Vec<Query>,
    /// Graphs the insert operations add, in order.
    pub fresh: Vec<Graph>,
    /// Leading operations that warm the program and are not timed.
    pub warmup: usize,
    pub ops: Vec<Op>,
    /// Operations after the timed ones: the post-restore check, or the
    /// traced run's rate sweep.
    pub tail: usize,
}

impl Stream {
    pub fn timed(&self) -> std::ops::Range<usize> {
        self.warmup..self.ops.len() - self.tail
    }

    pub fn pool_index(&self, op: Op) -> usize {
        match op {
            Op::Query(i) => i as usize,
            _ => panic!("not a query operation"),
        }
    }

    pub fn query(&self, op: Op) -> &Query {
        &self.pool[self.pool_index(op)]
    }

    /// Order-sensitive hash of everything the program will be sent.
    pub fn hash(&self) -> u64 {
        let mut h = Fnv::default();
        for q in &self.pool {
            h.add(layers::graph_fingerprint(&q.graph));
            h.add(q.kind as u64);
        }
        for g in &self.fresh {
            h.add(layers::graph_fingerprint(g));
        }
        for op in &self.ops {
            let (tag, x) = match *op {
                Op::Query(i) => (1u64, i),
                Op::Insert(i) => (2, i),
                Op::Remove(i) => (3, i),
            };
            h.add(tag << 32 | u64::from(x));
        }
        h.0
    }
}

struct Fnv(u64);

impl Default for Fnv {
    fn default() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv {
    fn add(&mut self, x: u64) {
        for byte in x.to_le_bytes() {
            self.0 = (self.0 ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
}

/// Independent generator seeds from the one `--seed`.
fn sub_seed(seed: u64, lane: u64) -> u64 {
    let mut h = Fnv::default();
    h.add(seed);
    h.add(lane);
    h.0
}

/// Problem size of one run.
#[derive(Debug, Clone, Copy)]
pub struct Scale {
    pub graphs: usize,
    pub seconds: usize,
}

/// The corpus every run queries: one fixed molecule dataset, as the paper
/// queries one fixed AIDS dataset. `--seed` draws the workload — query
/// pools, arrival order, inserted graphs, removal victims — not the corpus,
/// so that a metric's spread across seeds is the workload's, not that of ten
/// different databases.
pub fn dataset(scale: Scale) -> Vec<Graph> {
    layers::gen_dataset(scale.graphs, DATASET_SEED)
}

pub fn build(workload: &str, graphs: &[Graph], scale: Scale, seed: u64) -> Stream {
    let ranks = |pool: usize, n: usize| layers::gen_zipf(pool, ZIPF_SKEW, n, sub_seed(seed, 2));
    let base_graphs = graphs.len();
    match workload {
        "zipf-fit" => {
            let pool = layers::gen_pool(graphs, FIT_POOL, CATALOGUE_SEED);
            let ops = fit_ops(ranks(FIT_POOL, ZIPF_FIT_QPS * scale.seconds));
            Stream { base_graphs, pool, fresh: Vec::new(), warmup: FIT_POOL, ops, tail: 0 }
        }
        "drift-cold" => {
            let pool = layers::gen_drift(graphs, DRIFT_COLD_QPS * scale.seconds, sub_seed(seed, 1));
            let ops = (0..pool.len() as u32).map(Op::Query).collect();
            Stream { base_graphs, pool, fresh: Vec::new(), warmup: 0, ops, tail: 0 }
        }
        "mutate-durable" => {
            let pool = layers::gen_pool(graphs, WIDE_POOL, CATALOGUE_SEED);
            let n = MUTATE_DURABLE_QPS * scale.seconds;
            let mutations = n / QUERIES_PER_MUTATION;
            let fresh = layers::gen_dataset(mutations.div_ceil(2), sub_seed(seed, 3));
            let mut ops = Vec::with_capacity(n + mutations + POST_RESTORE_QUERIES);
            // Ids the generator knows to be live: base ids, then one per insert.
            let mut live: Vec<u32> = (0..graphs.len() as u32).collect();
            let mut next_id = graphs.len() as u32;
            let mut pick = Lcg(sub_seed(seed, 4));
            let mut inserted = 0;
            for (i, rank) in ranks(WIDE_POOL, n + POST_RESTORE_QUERIES).into_iter().enumerate() {
                ops.push(Op::Query(rank));
                if i < n && (i + 1) % QUERIES_PER_MUTATION == 0 {
                    if ((i + 1) / QUERIES_PER_MUTATION) % 2 == 1 {
                        ops.push(Op::Insert(inserted));
                        inserted += 1;
                        live.push(next_id);
                        next_id += 1;
                    } else {
                        let victim = live.swap_remove(pick.below(live.len()));
                        ops.push(Op::Remove(victim));
                    }
                }
            }
            Stream { base_graphs, pool, fresh, warmup: 0, ops, tail: POST_RESTORE_QUERIES }
        }
        "http-open" => {
            // The `zipf-fit` stream, so that what differs from `zipf-fit` is
            // the server and nothing else.
            let pool = layers::gen_pool(graphs, FIT_POOL, CATALOGUE_SEED);
            let sweep = SWEEP_RATES.iter().sum::<u64>() as usize * sweep_seconds_per_rate(scale);
            let n = HTTP_WARMUP - FIT_POOL + HTTP_OPEN_RPS * scale.seconds + sweep;
            let ops = fit_ops(ranks(FIT_POOL, n));
            Stream { base_graphs, pool, fresh: Vec::new(), warmup: HTTP_WARMUP, ops, tail: sweep }
        }
        other => panic!("unknown workload {other:?}"),
    }
}

/// One pass over the fitting pool (it fills the cache), then the skewed
/// stream with its drifting rank→query assignment.
fn fit_ops(ranks: Vec<u32>) -> Vec<Op> {
    let fill = (0..FIT_POOL as u32).map(Op::Query);
    let skewed = ranks.into_iter().enumerate().map(|(j, rank)| {
        let shift = j / FIT_ROTATE_EVERY * FIT_ROTATE_BY;
        Op::Query(((rank as usize + shift) % FIT_POOL) as u32)
    });
    fill.chain(skewed).collect()
}

/// Tiny deterministic generator for the remove victims (the pool and ranks
/// come from the program's own workload crate through `layers`).
struct Lcg(u64);

impl Lcg {
    fn below(&mut self, n: usize) -> usize {
        self.0 = self.0.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        ((self.0 >> 33) % n as u64) as usize
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const SMALL: Scale = Scale { graphs: 120, seconds: 1 };

    #[test]
    fn same_seed_same_stream_other_seed_other_stream() {
        for workload in ["drift-cold", "mutate-durable"] {
            let hash = |seed| build(workload, &dataset(SMALL), SMALL, seed).hash();
            assert_eq!(hash(7), hash(7), "{workload}");
            assert_ne!(hash(7), hash(8), "{workload}");
        }
    }

    #[test]
    fn mutations_alternate_and_remove_only_live_ids() {
        let graphs = dataset(SMALL);
        let s = build("mutate-durable", &graphs, SMALL, 3);
        let mut live: Vec<bool> = vec![true; graphs.len()];
        let mut last_was_insert = false;
        let mut mutations = 0;
        for op in &s.ops {
            match *op {
                Op::Query(i) => assert!((i as usize) < s.pool.len()),
                Op::Insert(i) => {
                    assert!(!last_was_insert && (i as usize) < s.fresh.len());
                    live.push(true);
                    last_was_insert = true;
                    mutations += 1;
                }
                Op::Remove(gid) => {
                    assert!(last_was_insert && std::mem::replace(&mut live[gid as usize], false));
                    last_was_insert = false;
                    mutations += 1;
                }
            }
        }
        assert_eq!(mutations, MUTATE_DURABLE_QPS / QUERIES_PER_MUTATION);
        assert_eq!(s.timed().len(), MUTATE_DURABLE_QPS + mutations);
    }
}
