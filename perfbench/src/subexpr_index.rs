//! `subexpr-index`: an in-process durable store at
//! `Granularity::Subexpressions` ingests the store-shaped corpus with
//! deep `unbalanced` spines of one fixed size spread evenly through it,
//! in small batches, and answers a `contains_batch` of half hits
//! (alpha-renamed subterms already ingested) and half misses after every
//! batch.
//!
//! The spines are where the per-subterm canonical sub-walk costs
//! O(n · depth); their share is set so that the p99 insert latency
//! falls inside their population and the p50 among corpus-only batches.
//! An epoch is one pass over the stream into a fresh store.

use crate::corpus;
use crate::measure::{self, census, ratio, Counters, Deltas, Report, Samples, Tracer};
use crate::{Budget, Config};
use alpha_hash::{HashScheme, HashedSummariser};
use alpha_store::{AlphaStore, Preparer, StoreBuilder};
use lambda_lang::arena::{ExprArena, NodeId};
use rand::Rng;
use std::collections::HashSet;
use std::time::Instant;

const CORPUS_TERMS: usize = 4_000;
const SPINES: usize = 20;
const SPINE_NODES: usize = 600;
const BATCH_TERMS: usize = 8;
/// Patterns per query: half hits, half misses.
const QUERY_TERMS: usize = 8;
const MIN_NODES: usize = 3;
const SCHEME_SEED: u64 = 0x5EED;

fn builder() -> StoreBuilder<u64> {
    AlphaStore::builder()
        .seed(SCHEME_SEED)
        .subexpressions(MIN_NODES)
        .sync_on_commit(false)
}

struct Inputs {
    arena: ExprArena,
    /// The stream in insertion order, corpus terms with spines spread
    /// evenly among them.
    stream: Vec<NodeId>,
    nodes: Vec<usize>,
    probe_arena: ExprArena,
    /// Per batch: the pattern, and for a pattern that must hit, the
    /// alpha-hash its class must carry.
    probes: Vec<Vec<(NodeId, Option<u64>)>>,
}

fn inputs(seed: u64, scheme: &HashScheme<u64>) -> Inputs {
    let mut arena = ExprArena::new();
    let corpus = corpus::store_shaped(&mut arena, CORPUS_TERMS, seed);
    let gap = CORPUS_TERMS / SPINES;
    let mut stream = Vec::with_capacity(CORPUS_TERMS + SPINES);
    for (i, &t) in corpus.iter().enumerate() {
        stream.push(t);
        if i % gap == gap / 2 {
            let k = (i / gap) as u64;
            let spine = corpus::family_term(
                &mut arena,
                2,
                SPINE_NODES,
                &mut corpus::rng(seed, 4, k),
                false,
            );
            stream.push(spine);
        }
    }
    let nodes: Vec<usize> = stream.iter().map(|&r| arena.subtree_size(r)).collect();

    let mut probe_arena = ExprArena::new();
    let mut pick = corpus::rng(seed, 5, 0);
    let mut done = 0;
    let probes = nodes
        .chunks(BATCH_TERMS)
        .map(|batch| {
            // Corpus terms ingested up to and including this batch.
            done += batch.iter().filter(|&&n| n < SPINE_NODES).count();
            (0..QUERY_TERMS)
                .map(|q| {
                    let hit = q % 2 == 0;
                    let pool = if hit { done } else { CORPUS_TERMS };
                    let term = corpus[pick.random_range(0..pool)];
                    // Roots are indexed whatever their size, so a root
                    // below the floor is its own only pattern.
                    let mut subs = corpus::subterms_at_least(&arena, term, MIN_NODES);
                    if subs.is_empty() {
                        subs.push(term);
                    }
                    let sub = subs[pick.random_range(0..subs.len())];
                    if hit {
                        let p = corpus::renamed_copy(&arena, sub, &mut probe_arena);
                        (p, Some(alpha_hash::hash_expr(&probe_arena, p, scheme)))
                    } else {
                        (corpus::miss_pattern(&arena, sub, &mut probe_arena), None)
                    }
                })
                .collect()
        })
        .collect();
    Inputs {
        arena,
        stream,
        nodes,
        probe_arena,
        probes,
    }
}

/// The independent class count: distinct de Bruijn forms over every
/// root and every subterm the granularity indexes.
fn debruijn_classes(arena: &ExprArena, stream: &[NodeId]) -> usize {
    let mut forms = HashSet::new();
    for &root in stream {
        for n in corpus::subterms_at_least(arena, root, MIN_NODES) {
            let (db, db_root) = lambda_lang::debruijn::to_debruijn(arena, n);
            forms.insert(lambda_lang::debruijn::db_print(&db, db_root));
        }
        if arena.subtree_size(root) < MIN_NODES {
            let (db, db_root) = lambda_lang::debruijn::to_debruijn(arena, root);
            forms.insert(lambda_lang::debruijn::db_print(&db, db_root));
        }
    }
    forms.len()
}

#[derive(Default)]
struct Parts {
    nodes: f64,
    hash_pass_ns: f64,
    root_prepare_ns: f64,
    deltas: Deltas,
    wal_bytes: f64,
    terms: f64,
}

pub fn run(cfg: &Config) -> Report {
    let mut report = Report::default();
    let scheme = HashScheme::<u64>::new(SCHEME_SEED);
    let mut budget = Budget::new(cfg.seconds);
    let (mut inserts, mut queries, mut checkpoints) =
        (Samples::default(), Samples::default(), Samples::default());
    let mut tracer = Tracer::new();
    let mut parts = Parts::default();
    let mut audited = false;
    let (mut snapshot_bytes, mut resident) = (0u64, 0u64);
    let mut answers_right = (0u64, 0u64);
    let mut found = 0u64;

    let inp = report.generate(|| inputs(cfg.seed, &scheme));

    let mut epoch = 0;
    while budget.left() {
        let traced = cfg.traced_epoch(epoch);
        let t_setup = Instant::now();
        let dir = cfg.scratch.join(format!("subexpr-{epoch}"));
        let store = builder().open_durable(&dir).expect("open durable store");
        let warm: Vec<NodeId> = inp.probes[0].iter().map(|p| p.0).collect();
        store.contains_batch(&inp.probe_arena, &warm);
        report.setups.push(t_setup.elapsed().as_secs_f64());

        let before = Counters::read(&store);
        let (mut terms, mut secs) = (0.0, 0.0);
        let mut done = 0;
        budget.start();
        for (b, batch) in inp.stream.chunks(BATCH_TERMS).enumerate() {
            if !budget.left() {
                break;
            }
            let req = (epoch * inp.probes.len() + b) as u64;
            if traced {
                tracer.enter("batch", req);
                tracer.enter("alpha-store.try_insert_batch", req);
            }
            let t = Instant::now();
            let outcome = store.try_insert_batch(&inp.arena, batch);
            let took = t.elapsed();
            if traced {
                tracer.exit();
            }
            inserts.push(took);
            report.attempted += 1;
            if outcome.is_err() {
                report.failed += 1;
                if traced {
                    tracer.exit();
                }
                break;
            }
            terms += batch.len() as f64;
            secs += took.as_secs_f64();
            done += batch.len();
            if traced {
                for (k, &root) in batch.iter().enumerate() {
                    let mut own = ExprArena::new();
                    let r = own.import_subtree(&inp.arena, root);
                    parts.nodes += inp.nodes[b * BATCH_TERMS + k] as f64;
                    parts.terms += 1.0;
                    tracer.enter("alpha-hash.HashedSummariser.summarise_all", req);
                    let mut summariser = HashedSummariser::new(&own, &scheme);
                    std::hint::black_box(summariser.summarise_all(&own, r));
                    parts.hash_pass_ns += tracer.exit() as f64;
                    tracer.enter("alpha-store.Preparer.hash_and_canon", req);
                    let mut preparer = Preparer::new(&own, &scheme);
                    std::hint::black_box(preparer.hash_and_canon(&own, r));
                    parts.root_prepare_ns += tracer.exit() as f64;
                }
            }

            let patterns: Vec<NodeId> = inp.probes[b].iter().map(|p| p.0).collect();
            if traced {
                tracer.enter("alpha-store.contains_batch", req);
            }
            let t = Instant::now();
            let answers = store.contains_batch(&inp.probe_arena, &patterns);
            queries.push(t.elapsed());
            if traced {
                tracer.exit();
                tracer.exit();
            }
            report.attempted += 1;
            for (answer, &(_, want)) in answers.iter().zip(&inp.probes[b]) {
                found += u64::from(answer.is_some());
                let right = answer.map(|class| store.hash_of(class)) == want;
                answers_right.0 += u64::from(right);
                answers_right.1 += 1;
            }
        }
        budget.stop();
        report.epoch_work(traced, terms, secs);
        let complete = done == inp.stream.len();
        if traced {
            let after = Counters::read(&store);
            parts.deltas.add(&before, &after);
            parts.wal_bytes += after.get("wal_bytes_since_checkpoint") as f64;
        }

        if complete {
            report.complete_epoch(terms, secs);
            let t = Instant::now();
            let ok = store.checkpoint().is_ok();
            checkpoints.push(t.elapsed());
            report.attempted += 1;
            report.failed += u64::from(!ok);
            snapshot_bytes = std::fs::metadata(dir.join(alpha_store::persist::SNAPSHOT_FILE))
                .map_or(0, |m| m.len());
            resident = store.canon_dag_stats().resident_bytes;
            if !audited {
                audited = true;
                let fresh = builder().build();
                for batch in inp.stream.chunks(BATCH_TERMS) {
                    fresh
                        .try_insert_batch(&inp.arena, batch)
                        .expect("fresh build");
                }
                report.e2e.insert(
                    "space_amp",
                    ratio(
                        resident as f64,
                        fresh.canon_dag_stats().resident_bytes as f64,
                    ),
                );
                report.audit(
                    "census equals a fresh build of the same stream",
                    census(&store) == census(&fresh),
                    "",
                );
                let want = debruijn_classes(&inp.arena, &inp.stream);
                report.audit(
                    "class count equals the distinct de Bruijn forms",
                    store.num_classes() == want,
                    format!("{} against {want}", store.num_classes()),
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
        "every contains_batch answer matches its expected hit or miss",
        answers_right.0 == answers_right.1,
        format!("{}/{}", answers_right.0, answers_right.1),
    );
    report.percentiles("latency_p50_us", "latency_p99_us", &inserts);
    report.percentiles("query_p50_us", "query_p99_us", &queries);
    report
        .e2e
        .insert("checkpoint_ms", checkpoints.mid_mean_ms());
    report
        .notes
        .push(format!("{epoch} epochs, {} checkpoints", checkpoints.len()));

    if cfg.trace {
        let p = &parts;
        p.deltas.store_layers(&mut report);
        let prepare_ns = p.deltas.get("prepare_ns");
        let outside = ratio(prepare_ns - p.hash_pass_ns, prepare_ns);
        let layers = [
            (
                "alpha-hash.hash_pass_ns_per_node",
                ratio(p.hash_pass_ns, p.nodes),
            ),
            (
                "alpha-store.prepare.root_ns_per_node",
                ratio(p.root_prepare_ns, p.nodes),
            ),
            ("alpha-store.prepare.outside_hash_share", outside),
            ("alpha-store.dag.canon_resident_bytes", resident as f64),
            (
                "alpha-store.query.hit_ratio",
                ratio(found as f64, answers_right.1 as f64),
            ),
            (
                "alpha-store.persist.wal_bytes_per_term",
                ratio(p.wal_bytes, p.terms),
            ),
            ("alpha-store.persist.snapshot_bytes", snapshot_bytes as f64),
        ];
        report.layers.extend(layers);
        // prepare = hash pass + everything outside it; the hash pass is
        // timed apart on the same terms, so it must not exceed prepare,
        // and the store must have prepared exactly the nodes ingested.
        if outside < -0.05 {
            report.notes.push(format!(
                "finding: the hash pass alone exceeds the store's prepare time by {:.1}%",
                -outside * 100.0
            ));
        }
        let counted = p.deltas.get("prepare_nodes");
        if counted != p.nodes {
            report.notes.push(format!(
                "finding: the store prepared {counted} nodes, the benchmark ingested {}",
                p.nodes
            ));
        }
        measure::finish_trace(
            &mut report,
            &tracer,
            &cfg.scratch,
            &format!("subexpr-index-{}", cfg.seed),
        );
    }
    report
}
