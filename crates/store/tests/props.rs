//! Property tests for the alpha-store, checking the three contract points
//! of the subsystem:
//!
//! (a) `insert` is **idempotent modulo alpha** — alpha-renamed copies of a
//!     term land in the class the original created;
//! (b) the store's partition of a term's subexpressions **agrees with the
//!     ground truth** (`alpha_hash::equiv::ground_truth_classes`, the
//!     O(n³) pairwise predicate);
//! (c) **concurrent ingest is equivalent to sequential ingest** — 8
//!     threads racing on the shards produce the same class partition as a
//!     single thread, with identical stats invariants, on a varied corpus
//!     and on a duplicate-heavy one.

use alpha_hash::combine::{HashScheme, HashWord};
use alpha_hash::equiv::{ground_truth_classes, same_partition};
use alpha_store::{AlphaStore, ClassId, Granularity};
use lambda_lang::arena::{ExprArena, NodeId};
use lambda_lang::uniquify::uniquify_into;
use lambda_lang::visit::postorder;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::HashMap;

fn scheme() -> HashScheme<u64> {
    HashScheme::new(0x57_0E)
}

/// A varied small corpus: balanced, unbalanced and arithmetic terms, with
/// seeds drawn from a small pool so alpha-duplicates occur, plus an
/// alpha-renamed (uniquified) variant of every other term.
fn corpus(arena: &mut ExprArena, seed: u64, count: usize) -> Vec<NodeId> {
    let mut roots = Vec::with_capacity(count);
    for i in 0..count {
        let mut rng = StdRng::seed_from_u64(seed ^ (i as u64 % 7));
        let size = 4 + (i % 5) * 9;
        let mut scratch = ExprArena::new();
        let root = match i % 3 {
            0 => expr_gen::balanced(&mut scratch, size, &mut rng),
            1 => expr_gen::unbalanced(&mut scratch, size, &mut rng),
            _ => expr_gen::arithmetic(&mut scratch, size.max(8), &mut rng),
        };
        if i % 2 == 0 {
            // Alpha-renamed variant: same class, different binder names.
            roots.push(uniquify_into(&scratch, root, arena));
        } else {
            roots.push(arena.import_subtree(&scratch, root));
        }
    }
    roots
}

/// A duplicate-heavy corpus: `shapes` distinct generator outputs, each
/// appearing `copies` times as alpha-renamed variants, so most inserts
/// are repeat merges into a few classes, each confirmed by a frontier
/// walk.
fn duplicate_heavy_corpus(
    arena: &mut ExprArena,
    seed: u64,
    shapes: usize,
    copies: usize,
) -> Vec<NodeId> {
    let mut roots = Vec::with_capacity(shapes * copies);
    for shape in 0..shapes {
        let mut rng = StdRng::seed_from_u64(seed ^ shape as u64);
        let size = 8 + (shape % 4) * 10;
        let mut scratch = ExprArena::new();
        let root = match shape % 3 {
            0 => expr_gen::balanced(&mut scratch, size, &mut rng),
            1 => expr_gen::unbalanced(&mut scratch, size, &mut rng),
            _ => expr_gen::arithmetic(&mut scratch, size.max(8), &mut rng),
        };
        for _ in 0..copies {
            roots.push(uniquify_into(&scratch, root, arena));
        }
    }
    roots
}

/// Brute-force containment oracle: is some subexpression of some ingested
/// term alpha-equivalent to `pattern`, subject to the store's granularity?
/// Enumerates every (ingested subexpression, pattern) pair with the O(n)
/// reference predicate `alpha_eq` — the quadratic ground truth the
/// store's one-probe `contains` must agree with exactly.
fn oracle_contains(
    arena: &ExprArena,
    ingested: &[NodeId],
    pattern: NodeId,
    granularity: Granularity,
) -> bool {
    ingested.iter().any(|&t| match granularity {
        Granularity::Roots => lambda_lang::alpha_eq(arena, t, arena, pattern),
        Granularity::Subexpressions { .. } => postorder(arena, t).into_iter().any(|s| {
            // Roots are always indexed; proper subterms only above the
            // floor.
            (s == t || arena.subtree_size(s) >= granularity.min_nodes())
                && lambda_lang::alpha_eq(arena, s, arena, pattern)
        }),
    })
}

/// One store at the given width/granularity, checked against the oracle
/// for every pattern.
fn check_contains_against_oracle<H: HashWord>(
    arena: &ExprArena,
    ingested: &[NodeId],
    patterns: &[NodeId],
    granularity: Granularity,
) -> Result<(), TestCaseError> {
    let store: AlphaStore<H> = AlphaStore::builder()
        .scheme(HashScheme::new(0x0C_A1))
        .shards(4)
        .granularity(granularity)
        .build();
    store.insert_batch(arena, ingested);
    prop_assert!(store.stats().is_exact());
    for &pattern in patterns {
        let hit = store.contains(arena, pattern).is_some();
        let truth = oracle_contains(arena, ingested, pattern, granularity);
        prop_assert_eq!(
            hit,
            truth,
            "contains disagrees with the alpha_eq oracle ({:?})",
            granularity
        );
    }
    Ok(())
}

/// Groups term indexes by their store class.
fn partition_of(classes: &[ClassId]) -> Vec<Vec<usize>> {
    let mut groups: HashMap<ClassId, Vec<usize>> = HashMap::new();
    for (i, &c) in classes.iter().enumerate() {
        groups.entry(c).or_default().push(i);
    }
    let mut out: Vec<Vec<usize>> = groups.into_values().collect();
    for g in &mut out {
        g.sort();
    }
    out.sort();
    out
}

/// Ingests `roots` sequentially and from 8 racing threads, and checks
/// that both stores hold the same partition with the same stats.
fn check_concurrent_matches_sequential(
    arena: &ExprArena,
    roots: &[NodeId],
) -> Result<(), TestCaseError> {
    // Sequential reference.
    let sequential = AlphaStore::with_shards(scheme(), 8);
    let seq_classes: Vec<ClassId> = roots
        .iter()
        .map(|&r| sequential.insert(arena, r).class)
        .collect();

    // Concurrent: 8 threads, one chunk each, racing on 8 shards.
    let concurrent = AlphaStore::with_shards(scheme(), 8);
    std::thread::scope(|scope| {
        for chunk in roots.chunks(roots.len().div_ceil(8)) {
            scope.spawn(|| concurrent.insert_batch(arena, chunk));
        }
    });
    // Class ids differ between runs (creation order is racy), so
    // compare the partitions, recovered via lookup.
    let conc_classes: Vec<ClassId> = roots
        .iter()
        .map(|&r| concurrent.lookup(arena, r).expect("ingested term found"))
        .collect();

    prop_assert_eq!(partition_of(&seq_classes), partition_of(&conc_classes));
    prop_assert_eq!(sequential.num_terms(), concurrent.num_terms());
    prop_assert_eq!(sequential.num_classes(), concurrent.num_classes());

    let seq_stats = sequential.stats();
    let conc_stats = concurrent.stats();
    prop_assert!(conc_stats.is_exact());
    prop_assert_eq!(seq_stats.terms_ingested, conc_stats.terms_ingested);
    prop_assert_eq!(seq_stats.classes_created, conc_stats.classes_created);
    prop_assert_eq!(seq_stats.merges_confirmed, conc_stats.merges_confirmed);
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// (a) Alpha-renaming never creates a new class: for any generated
    /// term, inserting an alpha-renamed copy merges into the original's
    /// class without growing the store.
    #[test]
    fn insert_is_idempotent_modulo_alpha(seed in any::<u64>(), size in 3usize..90) {
        let store = AlphaStore::new(scheme());
        let mut arena = ExprArena::new();
        let mut rng = StdRng::seed_from_u64(seed);
        let mut scratch = ExprArena::new();
        let built = expr_gen::balanced(&mut scratch, size, &mut rng);
        let root = arena.import_subtree(&scratch, built);
        let renamed = uniquify_into(&scratch, built, &mut arena);

        let first = store.insert(&arena, root);
        let classes_after_first = store.num_classes();
        let second = store.insert(&arena, renamed);

        prop_assert!(first.fresh);
        prop_assert!(!second.fresh);
        prop_assert_eq!(first.class, second.class);
        prop_assert_eq!(store.num_classes(), classes_after_first);
        prop_assert_eq!(store.members(first.class), 2);
        prop_assert!(store.stats().is_exact());
    }

    /// (b) Ingesting every subexpression of a random term produces exactly
    /// the ground-truth alpha-equivalence partition.
    #[test]
    fn store_partition_matches_ground_truth(seed in any::<u64>(), size in 3usize..70) {
        let mut arena = ExprArena::new();
        let mut rng = StdRng::seed_from_u64(seed);
        let root = match size % 3 {
            0 => expr_gen::balanced(&mut arena, size, &mut rng),
            1 => expr_gen::unbalanced(&mut arena, size, &mut rng),
            _ => expr_gen::arithmetic(&mut arena, size.max(8), &mut rng),
        };

        let store = AlphaStore::new(scheme());
        let nodes = lambda_lang::visit::postorder(&arena, root);
        let outcomes = store.insert_batch(&arena, &nodes);

        // Store partition over the nodes, as Vec<Vec<NodeId>>.
        let mut groups: HashMap<ClassId, Vec<NodeId>> = HashMap::new();
        for (node, outcome) in nodes.iter().zip(&outcomes) {
            groups.entry(outcome.class).or_default().push(*node);
        }
        let store_partition: Vec<Vec<NodeId>> = groups.into_values().collect();

        let truth = ground_truth_classes(&arena, root);
        prop_assert!(
            same_partition(&store_partition, &truth),
            "store partition diverges from ground truth"
        );
        prop_assert!(store.stats().is_exact());
        prop_assert_eq!(store.num_classes(), truth.len());
    }

    /// (c) Concurrent ingest from 8 threads yields the same class
    /// partition as sequential ingest of the same corpus, for a varied
    /// corpus and for a few shapes with many alpha-copies each.
    #[test]
    fn concurrent_ingest_matches_sequential(
        seed in any::<u64>(),
        shapes in 2usize..6,
        copies in 4usize..9,
    ) {
        let mut arena = ExprArena::new();
        let roots = corpus(&mut arena, seed, 48);
        check_concurrent_matches_sequential(&arena, &roots)?;

        let mut arena = ExprArena::new();
        let roots = duplicate_heavy_corpus(&mut arena, seed, shapes, copies);
        check_concurrent_matches_sequential(&arena, &roots)?;
    }

    /// `contains` answers exactly the brute-force containment predicate —
    /// for every subexpression pattern, at u64 and u128 hash widths, in
    /// both granularity modes (and at two `min_nodes` floors).
    #[test]
    fn contains_agrees_with_bruteforce_oracle(seed in any::<u64>(), size in 3usize..40) {
        let mut arena = ExprArena::new();
        let mut rng = StdRng::seed_from_u64(seed);

        // Two ingested terms of different families, plus an alpha-renamed
        // copy of the first so patterns hit under renaming.
        let a = expr_gen::balanced(&mut arena, size, &mut rng);
        let b = expr_gen::arithmetic(&mut arena, size.max(8), &mut rng);
        let scratch = arena.clone();
        let a_renamed = uniquify_into(&scratch, a, &mut arena);
        let ingested = [a, b, a_renamed];

        // Patterns: every subexpression of an ingested term (positives at
        // all depths) and of an unrelated term (mostly misses).
        let stranger = expr_gen::unbalanced(&mut arena, size, &mut rng);
        let mut patterns = postorder(&arena, a);
        patterns.extend(postorder(&arena, stranger));

        for granularity in [
            Granularity::Roots,
            Granularity::Subexpressions { min_nodes: 1 },
            Granularity::Subexpressions { min_nodes: 4 },
        ] {
            check_contains_against_oracle::<u64>(&arena, &ingested, &patterns, granularity)?;
            check_contains_against_oracle::<u128>(&arena, &ingested, &patterns, granularity)?;
        }
    }

    /// Inserting one term at subexpression granularity partitions its
    /// subexpressions exactly like the ground-truth pairwise predicate,
    /// and occurrence counts mirror the class sizes.
    #[test]
    fn subexpression_classes_match_ground_truth(seed in any::<u64>(), size in 3usize..50) {
        let mut arena = ExprArena::new();
        let mut rng = StdRng::seed_from_u64(seed);
        let root = match size % 3 {
            0 => expr_gen::balanced(&mut arena, size, &mut rng),
            1 => expr_gen::unbalanced(&mut arena, size, &mut rng),
            _ => expr_gen::arithmetic(&mut arena, size.max(8), &mut rng),
        };

        let store: AlphaStore<u64> = AlphaStore::builder()
            .scheme(scheme())
            .subexpressions(1)
            .build();
        let outcome = store.insert(&arena, root);

        let truth = ground_truth_classes(&arena, root);
        prop_assert_eq!(store.num_classes(), truth.len());
        prop_assert_eq!(
            outcome.subs.indexed as usize + 1,
            arena.subtree_size(root)
        );
        prop_assert_eq!(outcome.subs.skipped_min_nodes, 0);

        // Each ground-truth class maps to one store class whose occurrence
        // count is exactly the class's node count.
        for class_nodes in &truth {
            let class = store
                .contains(&arena, class_nodes[0])
                .expect("every subexpression is indexed");
            prop_assert_eq!(store.occurrences(class), class_nodes.len() as u64);
        }
        prop_assert!(store.stats().is_exact());
    }

    /// Representatives: for any ingested term, the class representative is
    /// alpha-equivalent to the term and re-ingesting it merges back into
    /// the same class (the store is closed under its own canonical forms).
    #[test]
    fn representatives_reingest_into_their_class(seed in any::<u64>(), size in 3usize..60) {
        let store = AlphaStore::new(scheme());
        let mut arena = ExprArena::new();
        let mut rng = StdRng::seed_from_u64(seed);
        let root = expr_gen::unbalanced(&mut arena, size, &mut rng);
        let outcome = store.insert(&arena, root);

        let mut dst = ExprArena::new();
        let rep = store.representative_into(outcome.class, &mut dst);
        prop_assert!(lambda_lang::alpha_eq(&arena, root, &dst, rep));

        let again = store.insert(&dst, rep);
        prop_assert_eq!(again.class, outcome.class);
        prop_assert!(!again.fresh);
    }
}
