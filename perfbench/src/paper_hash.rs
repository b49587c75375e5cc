//! `paper-hash`: the library alone. `hash_all_subexpressions` runs over a
//! module of terms from the paper's three families (balanced, unbalanced,
//! arithmetic) at sizes from 10² to 10⁵ nodes, all held in one shared
//! arena as a caller holding a module would hold them. After every call
//! a query looks up alpha-renamed subterms (and patterns that must miss)
//! in a hash index of the module, confirming each hash match with
//! `alpha_eq`, the way a caller finds common subexpressions.
//!
//! An epoch builds the module and its index, then hashes every term of
//! the module a fixed number of times, in a seeded order.

use crate::corpus;
use crate::measure::{self, ratio, Report, Samples, Tracer};
use crate::{Budget, Config};
use alpha_hash::equiv::{ground_truth_classes, hash_classes, same_partition};
use alpha_hash::incremental::IncrementalHasher;
use alpha_hash::{hash_all_subexpressions, HashScheme};
use alpha_store::Preparer;
use lambda_lang::alpha::alpha_eq;
use lambda_lang::arena::{ExprArena, NodeId};
use rand::Rng;
use std::collections::HashMap;
use std::time::Instant;

/// Quarter-decade sizes from 10² to 10⁵, one term per family each.
const SIZES: [usize; 13] = [
    100, 178, 316, 562, 1_000, 1_778, 3_162, 5_623, 10_000, 17_783, 31_623, 56_234, 100_000,
];
const PASSES_PER_EPOCH: usize = 10;
/// Patterns per query.
const QUERY_TERMS: usize = 4;
const PROBE_POOL: usize = 256;
/// Largest subterm a probe copies.
const PROBE_MAX_NODES: u32 = 64;
/// The terms whose `IncrementalHasher::new` is the checkpoint measure.
const CHECKPOINT_SIZE: usize = 10_000;
const SCHEME_SEED: u64 = 0x5EED;

struct Module {
    arena: ExprArena,
    /// `(root, nodes)` per term.
    terms: Vec<(NodeId, usize)>,
    nodes: usize,
    /// `(arena, root, should hit)`; each probe has an arena of its own.
    probes: Vec<(ExprArena, NodeId, bool)>,
}

/// Alpha-hash of every non-leaf subterm to one node carrying it: what a
/// caller builds from `hash_all_subexpressions` to find shared
/// subexpressions.
fn index(m: &Module, scheme: &HashScheme<u64>) -> HashMap<u64, NodeId> {
    let mut index = HashMap::new();
    for &(root, _) in &m.terms {
        let hashes = hash_all_subexpressions(&m.arena, root, scheme);
        for (n, hash) in hashes.iter() {
            if m.arena.node(n).children().into_iter().next().is_some() {
                index.entry(hash).or_insert(n);
            }
        }
    }
    index
}

fn module(seed: u64) -> Module {
    let mut arena = ExprArena::new();
    let mut terms = Vec::new();
    for family in 0..3u64 {
        for (i, &size) in SIZES.iter().enumerate() {
            let mut rng = corpus::rng(seed, 8, family * 100 + i as u64);
            let root = corpus::family_term(&mut arena, family, size, &mut rng, false);
            terms.push((root, arena.subtree_size(root)));
        }
    }
    let nodes = terms.iter().map(|t| t.1).sum();

    // Subtree sizes, bottom-up, to pick probe subterms.
    let mut sizes = vec![0u32; arena.len()];
    for &(root, _) in &terms {
        for n in lambda_lang::visit::postorder(&arena, root) {
            let below: u32 = arena
                .node(n)
                .children()
                .into_iter()
                .map(|c| sizes[c.index()])
                .sum();
            sizes[n.index()] = below + 1;
        }
    }
    let mut pick = corpus::rng(seed, 9, 0);
    let probes = (0..PROBE_POOL)
        .map(|k| {
            let (root, _) = terms[pick.random_range(0..terms.len())];
            let candidates: Vec<NodeId> = lambda_lang::visit::postorder(&arena, root)
                .into_iter()
                .filter(|n| (3..=PROBE_MAX_NODES).contains(&sizes[n.index()]))
                .collect();
            let sub = candidates[pick.random_range(0..candidates.len())];
            let mut own = ExprArena::new();
            let hit = k % 2 == 0;
            let r = if hit {
                corpus::renamed_copy(&arena, sub, &mut own)
            } else {
                corpus::miss_pattern(&arena, sub, &mut own)
            };
            (own, r, hit)
        })
        .collect();
    Module {
        arena,
        terms,
        nodes,
        probes,
    }
}

/// Whether the module holds a subterm alpha-equivalent to the probe: a
/// hash lookup confirmed by `alpha_eq`.
fn lookup(
    m: &Module,
    index: &HashMap<u64, NodeId>,
    probe: &(ExprArena, NodeId, bool),
    scheme: &HashScheme<u64>,
) -> bool {
    let (arena, root, _) = probe;
    let hash = hash_all_subexpressions(arena, *root, scheme)
        .get(*root)
        .expect("root hashed");
    index
        .get(&hash)
        .is_some_and(|&n| alpha_eq(&m.arena, n, arena, *root))
}

/// Bytes `hash_all_subexpressions` holds live at its peak, summed over
/// the module's terms, per byte of the hashes it returns (one `u64` per
/// node of the term). Measured outside the timed calls, which run
/// without counting.
fn space_amp(m: &Module, scheme: &HashScheme<u64>) -> f64 {
    let peak: usize = m
        .terms
        .iter()
        .map(|&(root, _)| {
            let (hashes, bytes) =
                measure::peak_bytes(|| hash_all_subexpressions(&m.arena, root, scheme));
            drop(hashes);
            bytes
        })
        .sum();
    ratio(peak as f64, (m.nodes * std::mem::size_of::<u64>()) as f64)
}

/// Least-squares slope of `ln t` against `ln n`.
fn loglog_slope(points: &[(f64, f64)]) -> f64 {
    let k = points.len() as f64;
    let (sx, sy) = points
        .iter()
        .fold((0.0, 0.0), |(a, b), &(n, t)| (a + n.ln(), b + t.ln()));
    let (mx, my) = (sx / k, sy / k);
    let (num, den) = points.iter().fold((0.0, 0.0), |(a, b), &(n, t)| {
        (a + (n.ln() - mx) * (t.ln() - my), b + (n.ln() - mx).powi(2))
    });
    ratio(num, den)
}

#[derive(Default)]
struct Parts {
    nodes: f64,
    shared_ns: f64,
    private_ns: f64,
    prepare_ns: f64,
    /// Per term: its nodes and its private-arena call times in ns.
    by_term: HashMap<usize, (f64, Vec<f64>)>,
}

pub fn run(cfg: &Config) -> Report {
    let mut report = Report::default();
    let scheme = HashScheme::<u64>::new(SCHEME_SEED);
    let mut budget = Budget::new(cfg.seconds);
    let (mut calls, mut queries, mut builds) =
        (Samples::default(), Samples::default(), Samples::default());
    let mut build_knodes = 0.0;
    let mut tracer = Tracer::new();
    let mut parts = Parts::default();
    let mut answers_right = (0u64, 0u64);
    let mut found = 0u64;
    let mut audited = false;

    let m = report.generate(|| module(cfg.seed));
    let private: Vec<(ExprArena, NodeId)> = if cfg.trace {
        m.terms
            .iter()
            .map(|&(root, _)| {
                let mut own = ExprArena::new();
                let r = own.import_subtree(&m.arena, root);
                (own, r)
            })
            .collect()
    } else {
        Vec::new()
    };
    let checkpoint_terms: Vec<usize> = (0..m.terms.len())
        .filter(|&i| SIZES[i % SIZES.len()] == CHECKPOINT_SIZE)
        .collect();

    let mut epoch = 0;
    while budget.left() {
        let traced = cfg.traced_epoch(epoch);
        let t_setup = Instant::now();
        let index = index(&m, &scheme);
        report.setups.push(t_setup.elapsed().as_secs_f64());

        let mut order: Vec<usize> = (0..m.terms.len()).collect();
        let mut shuffle = corpus::rng(cfg.seed, 10, 0);
        let mut next_probe = 0;
        let (mut nodes, mut secs) = (0.0, 0.0);
        let mut passes = 0;
        budget.start();
        'epoch: for pass in 0..PASSES_PER_EPOCH {
            for i in (1..order.len()).rev() {
                order.swap(i, shuffle.random_range(0..=i));
            }
            for &i in &order {
                if !budget.left() {
                    break 'epoch;
                }
                let (root, n) = m.terms[i];
                let req = (epoch * 1000 + pass * 100 + i) as u64;
                if traced {
                    tracer.enter("call", req);
                    tracer.enter("alpha-hash.hash_all_subexpressions", req);
                }
                let t = Instant::now();
                let hashes = hash_all_subexpressions(&m.arena, root, &scheme);
                let took = t.elapsed();
                std::hint::black_box(hashes.get(root));
                drop(hashes);
                if traced {
                    parts.shared_ns += tracer.exit() as f64;
                }
                calls.push(took);
                report.attempted += 1;
                nodes += n as f64;
                secs += took.as_secs_f64();
                if traced {
                    let (own, r) = &private[i];
                    parts.nodes += n as f64;
                    tracer.enter("alpha-hash.hash_all_subexpressions.private_arena", req);
                    std::hint::black_box(hash_all_subexpressions(own, *r, &scheme).get(*r));
                    let ns = tracer.exit() as f64;
                    parts.private_ns += ns;
                    parts
                        .by_term
                        .entry(i)
                        .or_insert((n as f64, Vec::new()))
                        .1
                        .push(ns);
                    tracer.enter("alpha-store.Preparer.hash_and_canon", req);
                    let mut preparer = Preparer::new(own, &scheme);
                    std::hint::black_box(preparer.hash_and_canon(own, *r));
                    parts.prepare_ns += tracer.exit() as f64;
                }

                if traced {
                    tracer.enter("query", req);
                }
                let t = Instant::now();
                let answers: Vec<(bool, bool)> = (0..QUERY_TERMS)
                    .map(|q| {
                        let probe = &m.probes[(next_probe + q) % m.probes.len()];
                        (lookup(&m, &index, probe, &scheme), probe.2)
                    })
                    .collect();
                queries.push(t.elapsed());
                if traced {
                    tracer.exit();
                    tracer.exit();
                }
                next_probe += QUERY_TERMS;
                report.attempted += 1;
                for (hit, want) in answers {
                    found += u64::from(hit);
                    answers_right.0 += u64::from(hit == want);
                    answers_right.1 += 1;
                }
            }
            passes += 1;

            // The library's checkpoint: the resumable hash state an
            // incremental rewrite starts from, for one 10⁴-node term.
            let i = checkpoint_terms[pass % checkpoint_terms.len()];
            let (root, n) = m.terms[i];
            let mut own = ExprArena::new();
            let r = own.import_subtree(&m.arena, root);
            let t = Instant::now();
            std::hint::black_box(IncrementalHasher::new(own, r, scheme).root_hash());
            builds.push(t.elapsed());
            build_knodes += n as f64 / 1e3;
            report.attempted += 1;
        }
        budget.stop();
        report.epoch_work(traced, nodes, secs);
        if passes == PASSES_PER_EPOCH {
            report.complete_epoch(nodes, secs);
            if !audited {
                audited = true;
                audit_partitions(&mut report, &m, &scheme, cfg.seed);
                report.e2e.insert("space_amp", space_amp(&m, &scheme));
            }
        }
        epoch += 1;
    }

    report.audit("a complete epoch ran", audited, format!("{epoch} epochs"));
    report.audit(
        "every lookup matches its expected hit or miss",
        answers_right.0 == answers_right.1,
        format!("{}/{}", answers_right.0, answers_right.1),
    );
    report.percentiles("latency_p50_us", "latency_p99_us", &calls);
    report.percentiles("query_p50_us", "query_p99_us", &queries);
    report.e2e.insert("checkpoint_ms", builds.mid_mean_ms());
    report.notes.push(format!("{epoch} epochs"));

    if cfg.trace {
        let p = &parts;
        let points: Vec<(f64, f64)> = p
            .by_term
            .values()
            .map(|(n, ts)| {
                let mut ts = ts.clone();
                ts.sort_by(f64::total_cmp);
                (*n, ts[ts.len() / 2])
            })
            .collect();
        let layers = [
            ("alpha-hash.ns_per_node", ratio(p.shared_ns, p.nodes)),
            (
                "alpha-hash.hash_pass_ns_per_node",
                ratio(p.private_ns, p.nodes),
            ),
            (
                "alpha-hash.result_alloc_share",
                ratio(p.shared_ns - p.private_ns, p.shared_ns),
            ),
            ("alpha-hash.time_exponent", loglog_slope(&points)),
            (
                "alpha-store.prepare.root_ns_per_node",
                ratio(p.prepare_ns, p.nodes),
            ),
            (
                "alpha-store.prepare.outside_hash_share",
                ratio(p.prepare_ns - p.private_ns, p.prepare_ns),
            ),
            (
                "alpha-hash.incremental_build_us_per_knode",
                ratio(builds.total_s() * 1e6, build_knodes),
            ),
            (
                "alpha-store.query.hit_ratio",
                ratio(found as f64, answers_right.1 as f64),
            ),
        ];
        report.layers.extend(layers);
        measure::finish_trace(
            &mut report,
            &tracer,
            &cfg.scratch,
            &format!("paper-hash-{}", cfg.seed),
        );
    }
    report
}

/// The class partition of the module's small terms, and of a seeded
/// sample of subterms of the larger ones, equals the ground truth of
/// pairwise `alpha_eq`.
fn audit_partitions(report: &mut Report, m: &Module, scheme: &HashScheme<u64>, seed: u64) {
    const GROUND_TRUTH_MAX: usize = 400;
    let mut roots: Vec<NodeId> = m
        .terms
        .iter()
        .filter(|t| t.1 <= GROUND_TRUTH_MAX)
        .map(|t| t.0)
        .collect();
    let mut pick = corpus::rng(seed, 11, 0);
    for &(root, n) in &m.terms {
        if n > GROUND_TRUTH_MAX && pick.random_bool(0.25) {
            let subs: Vec<NodeId> = lambda_lang::visit::postorder(&m.arena, root)
                .into_iter()
                .filter(|&s| (100..=GROUND_TRUTH_MAX).contains(&m.arena.subtree_size(s)))
                .take(64)
                .collect();
            if let Some(&s) = subs.get(pick.random_range(0..subs.len().max(1))) {
                roots.push(s);
            }
        }
    }
    let wrong = roots
        .iter()
        .filter(|&&r| {
            !same_partition(
                &hash_classes(&m.arena, r, scheme),
                &ground_truth_classes(&m.arena, r),
            )
        })
        .count();
    report.audit(
        "class partitions equal the alpha_eq ground truth",
        wrong == 0,
        format!("{} terms checked, {wrong} differ", roots.len()),
    );
}
