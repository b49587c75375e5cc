//! `update-churn`: a durable Roots store pre-loaded with a working set of
//! balanced ~2k-node terms, larger than the store's 64-entry cache of
//! incremental hashers, takes seeded leaf rewrites through `try_update`.
//! Most draws come from a hot set that fits the cache, a fixed share
//! from the cold rest; `checkpoint()` runs every fixed number of
//! updates, and a `contains_batch` of live terms every few.
//!
//! Every `COLD_EVERY`-th update is cold, so the p50 lands among hot
//! cache hits and the p99 in the middle of the cold misses, well clear of
//! the boundary between the two. The cache never fills during an epoch
//! (see `HOT`), so which draws miss is fixed by the schedule alone. An
//! epoch replays the same seeded update sequence on a freshly pre-loaded
//! store, so every epoch ends in the same state.

use crate::corpus;
use crate::measure::{self, census, ratio, Counters, Deltas, Report, Samples, Tracer};
use crate::{Budget, Config};
use alpha_hash::incremental::IncrementalHasher;
use alpha_hash::HashScheme;
use alpha_store::{AlphaStore, Rewrite, StoreBuilder, TermId};
use lambda_lang::arena::{ExprArena, ExprNode, NodeId};
use lambda_lang::literal::Literal;
use rand::Rng;
use std::time::Instant;

const WORKING_SET: usize = 128;
const TERM_NODES: usize = 2_000;
/// Hot terms: an eighth of the store's 64-entry hasher cache. The cache
/// evicts the first key in `HashMap` iteration order, and its
/// `RandomState` differs from store to store, so once the cache is full
/// the hot keys that hash low are evicted again and again and the miss
/// rate differs from store to store. An epoch therefore never fills it:
/// the warm-up caches the hot terms only, and each cold draw is a
/// distinct cold term, so the cache ends an epoch holding `HOT` + the
/// cold draws, at most its capacity. Nothing is evicted, every hot draw
/// hits and every cold draw misses.
const HOT: usize = 8;
/// One update in this many is cold: a 2% share.
const COLD_EVERY: usize = 50;
const UPDATES_PER_EPOCH: usize = 2_800;
const _: () = assert!(HOT + UPDATES_PER_EPOCH / COLD_EVERY <= CACHE_CAP);
const _: () = assert!(UPDATES_PER_EPOCH / COLD_EVERY <= WORKING_SET - HOT);
const CHECKPOINT_EVERY: usize = 700;
const QUERY_EVERY: usize = 28;
/// Live terms per query.
const QUERY_TERMS: usize = 4;
/// In traced epochs, one `IncrementalHasher::new` every this many updates.
const BUILD_EVERY: usize = 200;
/// The store's incremental-hasher cache capacity (`UPDATE_CACHE_CAP`).
const CACHE_CAP: usize = 64;
const SCHEME_SEED: u64 = 0x5EED;

fn builder() -> StoreBuilder<u64> {
    AlphaStore::builder()
        .seed(SCHEME_SEED)
        .sync_on_commit(false)
}

/// One working-set term as the benchmark tracks it: a named copy kept in
/// step with every rewrite, its leaves, and each node's parent.
struct Live {
    id: TermId,
    arena: ExprArena,
    root: NodeId,
    leaves: Vec<NodeId>,
    parent: Vec<Option<NodeId>>,
}

impl Live {
    fn new(id: TermId, arena: ExprArena, root: NodeId) -> Self {
        let mut leaves = Vec::new();
        let mut parent = vec![None; arena.len()];
        let mut stack = vec![root];
        while let Some(n) = stack.pop() {
            let mut leaf = true;
            for child in arena.node(n).children() {
                parent[child.index()] = Some(n);
                stack.push(child);
                leaf = false;
            }
            if leaf {
                leaves.push(n);
            }
        }
        Live {
            id,
            arena,
            root,
            leaves,
            parent,
        }
    }

    /// The child-slot path from the root to `node`.
    fn path_to(&self, mut node: NodeId) -> Vec<u32> {
        let mut path = Vec::new();
        while let Some(p) = self.parent[node.index()] {
            let first = self.arena.node(p).children().into_iter().next();
            path.push(u32::from(first != Some(node)));
            node = p;
        }
        path.reverse();
        path
    }
}

/// The working set's balanced terms.
fn working_set(seed: u64) -> (ExprArena, Vec<NodeId>) {
    let mut arena = ExprArena::new();
    let roots = (0..WORKING_SET)
        .map(|k| {
            corpus::family_term(
                &mut arena,
                0,
                TERM_NODES,
                &mut corpus::rng(seed, 6, k as u64),
                false,
            )
        })
        .collect();
    (arena, roots)
}

fn preload(store: &AlphaStore<u64>, arena: &ExprArena, roots: &[NodeId]) -> Vec<Live> {
    let outcomes = store.try_insert_batch(arena, roots).expect("pre-load");
    outcomes
        .iter()
        .map(|o| {
            // Paths address the class's canonical representative.
            let mut own = ExprArena::new();
            let root = store.representative_into(o.class, &mut own);
            Live::new(o.term, own, root)
        })
        .collect()
}

#[derive(Default)]
struct Parts {
    deltas: Deltas,
    build_ns: f64,
    build_knodes: f64,
    wal_bytes: f64,
    updates: f64,
}

pub fn run(cfg: &Config) -> Report {
    let mut report = Report::default();
    let scheme = HashScheme::<u64>::new(SCHEME_SEED);
    let mut budget = Budget::new(cfg.seconds);
    let (mut updates, mut queries, mut checkpoints) =
        (Samples::default(), Samples::default(), Samples::default());
    let (mut hot, mut cold) = (Samples::default(), Samples::default());
    let mut tracer = Tracer::new();
    let mut parts = Parts::default();
    let mut audited = false;
    let (mut snapshot_bytes, mut resident, mut dead) = (0u64, 0u64, 0u64);
    let mut answers_right = (0u64, 0u64);

    let (ws_arena, ws_roots) = report.generate(|| working_set(cfg.seed));

    let mut epoch = 0;
    while budget.left() {
        let traced = cfg.traced_epoch(epoch);
        let t_setup = Instant::now();
        let dir = cfg.scratch.join(format!("churn-{epoch}"));
        let store = builder().open_durable(&dir).expect("open durable store");
        let mut live = preload(&store, &ws_arena, &ws_roots);
        store.checkpoint().expect("checkpoint the pre-load");
        let mut draws = corpus::rng(cfg.seed, 7, 0);
        let mut value: i64 = 1 << 40;
        let mut apply = |store: &AlphaStore<u64>, t: &mut Live, draws: &mut rand::rngs::StdRng| {
            let leaf = t.leaves[draws.random_range(0..t.leaves.len())];
            let path = t.path_to(leaf);
            value += 1;
            let mut patch = ExprArena::new();
            let root = patch.int(value);
            let rewrite = Rewrite {
                path: &path,
                arena: &patch,
                root,
            };
            let t0 = Instant::now();
            let outcome = store.try_update(t.id, rewrite);
            let took = t0.elapsed();
            if outcome.is_ok() {
                t.arena
                    .replace_node(leaf, ExprNode::Lit(Literal::I64(value)));
            }
            (outcome, took)
        };
        // Warm-up: cache every hot term's hasher, so timing starts with
        // the hot set resident.
        for t in live.iter_mut().take(HOT) {
            apply(&store, t, &mut draws).0.expect("warm-up update");
        }
        // This epoch's cold draws: distinct cold terms in seeded order.
        let mut cold_terms: Vec<usize> = (HOT..WORKING_SET).collect();
        for i in (1..cold_terms.len()).rev() {
            cold_terms.swap(i, draws.random_range(0..=i));
        }
        report.setups.push(t_setup.elapsed().as_secs_f64());

        let mut before = Counters::read(&store);
        let (mut ops, mut secs) = (0.0, 0.0);
        let mut done = 0;
        budget.start();
        for u in 0..UPDATES_PER_EPOCH {
            if !budget.left() {
                break;
            }
            let is_cold = u % COLD_EVERY == COLD_EVERY / 2;
            let k = if is_cold {
                cold_terms[u / COLD_EVERY]
            } else {
                draws.random_range(0..HOT)
            };
            let req = (epoch * UPDATES_PER_EPOCH + u) as u64;
            if traced {
                tracer.enter("alpha-store.try_update", req);
            }
            let (outcome, took) = apply(&store, &mut live[k], &mut draws);
            if traced {
                tracer.exit();
            }
            updates.push(took);
            if is_cold {
                cold.push(took);
            } else {
                hot.push(took);
            }
            report.attempted += 1;
            if outcome.is_err() {
                report.failed += 1;
                break;
            }
            ops += 1.0;
            secs += took.as_secs_f64();
            done += 1;

            if traced && u % BUILD_EVERY == 0 {
                let t = &live[k];
                let own = t.arena.clone();
                tracer.enter("alpha-hash.IncrementalHasher.new", req);
                std::hint::black_box(IncrementalHasher::new(own, t.root, scheme));
                parts.build_ns += tracer.exit() as f64;
                parts.build_knodes += TERM_NODES as f64 / 1e3;
            }
            // Off the checkpoint schedule: a query right after each
            // checkpoint would put a post-checkpoint class into the p99.
            if u % QUERY_EVERY == QUERY_EVERY / 2 {
                let mut probe_arena = ExprArena::new();
                let asked: Vec<usize> = (0..QUERY_TERMS)
                    .map(|_| draws.random_range(0..WORKING_SET))
                    .collect();
                let probes: Vec<NodeId> = asked
                    .iter()
                    .map(|&q| corpus::renamed_copy(&live[q].arena, live[q].root, &mut probe_arena))
                    .collect();
                if traced {
                    tracer.enter("alpha-store.contains_batch", req);
                }
                let t0 = Instant::now();
                let found = store.contains_batch(&probe_arena, &probes);
                queries.push(t0.elapsed());
                if traced {
                    tracer.exit();
                }
                report.attempted += 1;
                for (answer, &q) in found.iter().zip(&asked) {
                    answers_right.0 += u64::from(*answer == Some(store.class_of(live[q].id)));
                    answers_right.1 += 1;
                }
            }
            if (u + 1) % CHECKPOINT_EVERY == 0 {
                if traced {
                    let after = Counters::read(&store);
                    parts.deltas.add(&before, &after);
                    parts.wal_bytes += after.get("wal_bytes_since_checkpoint") as f64;
                    parts.updates += CHECKPOINT_EVERY as f64;
                    tracer.enter("alpha-store.checkpoint", req);
                }
                let t0 = Instant::now();
                let ok = store.checkpoint().is_ok();
                checkpoints.push(t0.elapsed());
                if traced {
                    tracer.exit();
                    before = Counters::read(&store);
                }
                report.attempted += 1;
                report.failed += u64::from(!ok);
            }
        }
        budget.stop();
        report.epoch_work(traced, ops, secs);

        if done == UPDATES_PER_EPOCH {
            report.complete_epoch(ops, secs);
            snapshot_bytes = std::fs::metadata(dir.join(alpha_store::persist::SNAPSHOT_FILE))
                .map_or(0, |m| m.len());
            resident = store.canon_dag_stats().resident_bytes;
            dead = store.classes().filter(|&c| store.members(c) == 0).count() as u64;
            if !audited {
                audited = true;
                let fresh = builder().build();
                for t in &live {
                    fresh.try_insert(&t.arena, t.root).expect("fresh build");
                }
                report.e2e.insert(
                    "space_amp",
                    ratio(
                        resident as f64,
                        fresh.canon_dag_stats().resident_bytes as f64,
                    ),
                );
                report.audit(
                    "census after churn equals a fresh build of the live terms",
                    census(&store) == census(&fresh),
                    format!("{dead} dead classes"),
                );
            }
        }
        report.check_exact(epoch, &store);
        drop(store);
        let _ = std::fs::remove_dir_all(&dir);
        epoch += 1;
    }

    report.audit("a complete epoch ran", audited, format!("{epoch} epochs"));
    report.audit(
        "every contains_batch finds the live term's class",
        answers_right.0 == answers_right.1,
        format!("{}/{}", answers_right.0, answers_right.1),
    );
    report.percentiles("latency_p50_us", "latency_p99_us", &updates);
    report.percentiles("query_p50_us", "query_p99_us", &queries);
    report
        .e2e
        .insert("checkpoint_ms", checkpoints.mid_mean_ms());
    report.notes.push(format!(
        "update latency in us, hot draws: p50 {:.0}, p75 {:.0}, p90 {:.0}; cold draws: p10 {:.0}, p50 {:.0}",
        hot.pct_us(0.5),
        hot.pct_us(0.75),
        hot.pct_us(0.9),
        cold.pct_us(0.1),
        cold.pct_us(0.5),
    ));
    report.notes.push(format!(
        "{epoch} epochs, {} checkpoints, {} hot and {} cold draws",
        checkpoints.len(),
        hot.len(),
        cold.len()
    ));

    if cfg.trace {
        let p = &parts;
        p.deltas.store_layers(&mut report);
        let layers = [
            ("alpha-store.update.hot_p50_us", hot.pct_us(0.5)),
            ("alpha-store.update.cold_p50_us", cold.pct_us(0.5)),
            (
                "alpha-hash.incremental_build_us_per_knode",
                ratio(p.build_ns / 1e3, p.build_knodes),
            ),
            ("alpha-store.dag.canon_resident_bytes", resident as f64),
            (
                "alpha-store.query.hit_ratio",
                ratio(answers_right.0 as f64, answers_right.1 as f64),
            ),
            (
                "alpha-store.persist.wal_bytes_per_term",
                ratio(p.wal_bytes, p.updates),
            ),
            ("alpha-store.persist.snapshot_bytes", snapshot_bytes as f64),
            ("alpha-store.store.dead_classes", dead as f64),
        ];
        report.layers.extend(layers);
        measure::finish_trace(
            &mut report,
            &tracer,
            &cfg.scratch,
            &format!("update-churn-{}", cfg.seed),
        );
    }
    report
}
