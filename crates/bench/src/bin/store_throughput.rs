//! Measures `AlphaStore` ingest throughput — single-threaded vs
//! multi-threaded, batched vs one-by-one, root vs subexpression
//! granularity — and optionally saves the numbers as JSON.
//!
//! ```text
//! cargo run --release --bin store_throughput -- \
//!     --terms 20000 --threads 8 --shards 8 --reps 3 \
//!     --sub-min-nodes 3 --save-json BENCH_store.json
//! ```
//!
//! All flags are optional; `--save-json <path>` enables the JSON report
//! (the conventional path is `BENCH_store.json` in the repo root). Thread
//! speedup requires actual cores: the report includes the machine's
//! `available_parallelism` so single-core runs are interpretable.
//!
//! Besides terms/sec and nodes/sec, the report splits single-threaded
//! batched ingest into its **prepare** share (hashing + de Bruijn
//! canonicalization, the fused lock-free pass) and the remaining **store**
//! share (shard grouping, locking, bucket probes, confirm-compare), by
//! timing the prepare pass on its own. A separate run ingests the same
//! corpus at `Subexpressions { min_nodes: --sub-min-nodes }` granularity,
//! so the cost of building the containment index is tracked PR over PR
//! alongside the root-mode numbers it must not regress.

use alpha_hash::combine::HashScheme;
use alpha_hash_bench::{best_of, format_ms, parallel_ingest, store_corpus, Args};
use alpha_store::{AlphaStore, Preparer};
use lambda_lang::arena::{ExprArena, NodeId};

fn ingest(
    arena: &ExprArena,
    roots: &[NodeId],
    scheme: HashScheme<u64>,
    shards: usize,
    threads: usize,
) -> AlphaStore<u64> {
    let store = AlphaStore::builder().scheme(scheme).shards(shards).build();
    parallel_ingest(&store, arena, roots, threads);
    store
}

fn ingest_subexpr(
    arena: &ExprArena,
    roots: &[NodeId],
    scheme: HashScheme<u64>,
    shards: usize,
    min_nodes: usize,
) -> AlphaStore<u64> {
    let store = AlphaStore::builder()
        .scheme(scheme)
        .shards(shards)
        .subexpressions(min_nodes)
        .build();
    store.insert_batch(arena, roots);
    store
}

/// Durable-mode ingest into a fresh directory: every batch chunk is one
/// group-committed WAL append (OS-buffered; the default durability
/// boundary). The directory is recreated per call so each rep pays the
/// same setup.
fn ingest_durable(
    arena: &ExprArena,
    roots: &[NodeId],
    scheme: HashScheme<u64>,
    shards: usize,
    dir: &std::path::Path,
) -> AlphaStore<u64> {
    let _ = std::fs::remove_dir_all(dir);
    let store = AlphaStore::builder()
        .scheme(scheme)
        .shards(shards)
        .open_durable(dir)
        .expect("create durable store");
    store.insert_batch(arena, roots);
    store
}

fn main() {
    let args = Args::parse();
    let terms = args.get_usize("terms", 20_000);
    let threads = args.get_usize("threads", 8);
    let shards = args.get_usize("shards", 8);
    let reps = args.get_usize("reps", 3);
    let seed_pool = args.get_usize("seed-pool", 997) as u64;
    let sub_min_nodes = args.get_usize("sub-min-nodes", 3);
    let json_path = args.get("save-json", "");
    for (flag, value) in [
        ("terms", terms),
        ("threads", threads),
        ("reps", reps),
        ("seed-pool", seed_pool as usize),
    ] {
        if value == 0 {
            eprintln!("error: --{flag} must be at least 1");
            std::process::exit(2);
        }
    }

    let mut arena = ExprArena::new();
    let roots = store_corpus(&mut arena, terms, seed_pool);
    let corpus_nodes: usize = roots.iter().map(|&r| arena.subtree_size(r)).sum();
    let scheme: HashScheme<u64> = HashScheme::new(0x5EED);
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());

    println!(
        "store_throughput: {terms} terms / {corpus_nodes} nodes, {shards} shards, best of {reps}"
    );
    let table_shards = AlphaStore::builder()
        .scheme(scheme)
        .shards(shards)
        .build()
        .table_shard_count();
    println!("  machine parallelism: {cores} (effective table stripes: {table_shards})");

    // Single-threaded, unbatched (per-term lock traffic).
    let unbatched = best_of(reps, || {
        let store = AlphaStore::builder().scheme(scheme).shards(shards).build();
        for &root in &roots {
            store.insert(&arena, root);
        }
        std::hint::black_box(store.num_classes());
    });

    // Single-threaded, batched.
    let single = best_of(reps, || {
        std::hint::black_box(ingest(&arena, &roots, scheme, shards, 1).num_classes());
    });

    // Multi-threaded, batched.
    let multi = best_of(reps, || {
        std::hint::black_box(ingest(&arena, &roots, scheme, shards, threads).num_classes());
    });

    // Batched single-thread with the obs runtime toggle on vs off: the
    // ratio is what live instrumentation (clock reads, histogram
    // records) costs on the hot path. The two variants are interleaved
    // rep by rep — not measured in separate blocks — so slow drift in
    // machine load biases both sides equally.
    let (single_obs_on, single_obs_off) = {
        let run = |enabled: bool| {
            let store = AlphaStore::builder().scheme(scheme).shards(shards).build();
            store.set_obs_enabled(enabled);
            let t0 = std::time::Instant::now();
            parallel_ingest(&store, &arena, &roots, 1);
            let secs = t0.elapsed().as_secs_f64();
            std::hint::black_box(store.num_classes());
            secs
        };
        let (mut on, mut off) = (f64::INFINITY, f64::INFINITY);
        for _ in 0..reps {
            on = on.min(run(true));
            off = off.min(run(false));
        }
        (on, off)
    };
    let obs_overhead_ratio = single_obs_on / single_obs_off;

    // Prepare pass alone (fused hash + canonicalization, no store): the
    // lock-free share of single-threaded batched ingest.
    let prepare = best_of(reps, || {
        let mut preparer = Preparer::new(&arena, &scheme);
        for &root in &roots {
            std::hint::black_box(preparer.hash_and_canon(&arena, root).0);
        }
    });
    let store_side = (single - prepare).max(0.0);

    // Subexpression granularity, single-threaded batched: same corpus,
    // every subterm >= --sub-min-nodes nodes indexed for containment.
    let subexpr = best_of(reps, || {
        std::hint::black_box(
            ingest_subexpr(&arena, &roots, scheme, shards, sub_min_nodes).num_classes(),
        );
    });

    // Durable mode (WAL tee, group commit per chunk), single-threaded
    // batched: the overhead over `single` is the cost of durability.
    let durable_dir = std::path::PathBuf::from(
        args.get(
            "durable-dir",
            &std::env::temp_dir()
                .join(format!("store-throughput-durable-{}", std::process::id()))
                .to_string_lossy(),
        ),
    );
    // Timed by hand instead of `best_of` so each rep's directory setup
    // (remove + create + fsync the fresh WAL header) stays outside the
    // measurement — the number tracks ingest, not mkdir.
    let durable = (0..reps)
        .map(|_| {
            let _ = std::fs::remove_dir_all(&durable_dir);
            let store = AlphaStore::builder()
                .scheme(scheme)
                .shards(shards)
                .open_durable(&durable_dir)
                .expect("create durable store");
            let t0 = std::time::Instant::now();
            store.insert_batch(&arena, &roots);
            let secs = t0.elapsed().as_secs_f64();
            std::hint::black_box(store.num_classes());
            secs
        })
        .fold(f64::INFINITY, f64::min);

    // One audited run for the stats block. Its obs report also supplies
    // the root-mode latency quantiles (obs is on by default).
    let store = ingest(&arena, &roots, scheme, shards, threads);
    let stats = store.stats();
    assert!(stats.is_exact(), "store must confirm every merge: {stats}");
    let obs = store.obs_report();
    let quantiles = |name: &str| {
        let h = obs.histogram(name).unwrap_or_else(|| panic!("no {name}"));
        (h.quantile(0.5), h.quantile(0.99))
    };
    let (prepare_p50, prepare_p99) = quantiles("alpha_store_prepare_ns");
    let (apply_p50, apply_p99) = quantiles("alpha_store_apply_ns");
    let (lock_wait_p50, lock_wait_p99) = quantiles("alpha_store_shard_lock_wait_ns");

    // And one audited subexpression-mode run.
    let sub_store = ingest_subexpr(&arena, &roots, scheme, shards, sub_min_nodes);
    let sub_stats = sub_store.stats();
    assert!(
        sub_stats.is_exact(),
        "subexpression merges must be confirmed too: {sub_stats}"
    );
    let indexed_entries = terms as u64 + sub_stats.subterms_indexed;

    // Canon-DAG residency of that run (the hash-consed node table shared
    // across all classes), plus batched containment-query throughput
    // answered against it. Patterns are corpus terms — every probe hits,
    // the worst case for the confirm-compare.
    let dag = sub_store.canon_dag_stats();
    let pattern_count = terms.min(2000);
    let patterns = &roots[..pattern_count];
    let contains_batch_secs = best_of(reps, || {
        let found = sub_store.contains_batch(&arena, patterns);
        assert!(found.iter().all(Option::is_some));
        std::hint::black_box(found);
    });
    let contains_qps = pattern_count as f64 / contains_batch_secs;

    // One audited durable run: ingest, crash (drop), recover, verify the
    // round trip, and time the recovery. The WAL-commit quantiles come
    // from this run's obs report.
    let (wal_bytes, reopen_secs, durable_stats, wal_commit_p50, wal_commit_p99) = {
        let d_store = ingest_durable(&arena, &roots, scheme, shards, &durable_dir);
        let d_classes = d_store.num_classes();
        let d_stats = d_store.stats();
        assert!(
            d_stats.is_exact(),
            "durable ingest must stay exact: {d_stats}"
        );
        let d_obs = d_store.obs_report();
        let commits = d_obs
            .histogram("alpha_store_wal_commit_ns")
            .expect("durable run records WAL commits");
        assert!(commits.count > 0, "durable ingest must group-commit");
        let (wal_commit_p50, wal_commit_p99) = (commits.quantile(0.5), commits.quantile(0.99));
        let wal_bytes = std::fs::metadata(durable_dir.join("wal.bin")).map_or(0, |m| m.len());
        drop(d_store);
        let t0 = std::time::Instant::now();
        let reopened: AlphaStore<u64> =
            AlphaStore::open(&durable_dir).expect("recover durable store");
        let reopen_secs = t0.elapsed().as_secs_f64();
        assert_eq!(
            reopened.num_classes(),
            d_classes,
            "recovery must round-trip"
        );
        assert_eq!(reopened.stats(), d_stats, "stats must round-trip");
        (
            wal_bytes,
            reopen_secs,
            d_stats,
            wal_commit_p50,
            wal_commit_p99,
        )
    };
    let _ = std::fs::remove_dir_all(&durable_dir);

    let rate = |secs: f64| terms as f64 / secs;

    // Reliability: the same durable ingest over a periodically flaky
    // disk (every 5th write-side op fails once with EIO), absorbed by
    // the retry policy with a near-zero backoff so the number tracks
    // the retry *path* (truncate-to-good + re-append), not the sleep.
    // `wal_commit_ns` p99 from this run is the retry-path tail latency.
    // Small chunks so even a smoke-sized corpus draws enough write-side
    // ops (one group commit each) to be guaranteed a faulted one.
    let (retry_secs, wal_retries, retry_commit_p50, retry_commit_p99) = {
        use alpha_store::{FaultKind, FaultVfs};
        let fault = FaultVfs::new();
        let _ = std::fs::remove_dir_all(&durable_dir);
        let r_store = AlphaStore::builder()
            .scheme(scheme)
            .shards(shards)
            .chunk_entries(256)
            .vfs(std::sync::Arc::new(fault.clone()))
            .persist_retries(2)
            .persist_backoff(std::time::Duration::from_micros(10))
            .open_durable(&durable_dir)
            .expect("create durable store");
        fault.fail_every(5, FaultKind::Eio);
        let t0 = std::time::Instant::now();
        r_store.insert_batch(&arena, &roots);
        let secs = t0.elapsed().as_secs_f64();
        let r_obs = r_store.obs_report();
        let retries = r_obs
            .counter("alpha_store_wal_retries")
            .expect("retry counter exported");
        assert!(
            retries > 0,
            "a 1-in-5 fault rate must exercise the retry path"
        );
        let commits = r_obs
            .histogram("alpha_store_wal_commit_ns")
            .expect("faulted run records WAL commits");
        (secs, retries, commits.quantile(0.5), commits.quantile(0.99))
    };
    let _ = std::fs::remove_dir_all(&durable_dir);

    let node_rate = |secs: f64| corpus_nodes as f64 / secs;
    println!(
        "  unbatched 1 thread : {:>10} ({:>12.0} terms/s, {:>12.0} nodes/s)",
        format_ms(unbatched),
        rate(unbatched),
        node_rate(unbatched)
    );
    println!(
        "  batched   1 thread : {:>10} ({:>12.0} terms/s, {:>12.0} nodes/s)",
        format_ms(single),
        rate(single),
        node_rate(single)
    );
    println!(
        "  batched {threads:>2} threads : {:>10} ({:>12.0} terms/s, {:>12.0} nodes/s)",
        format_ms(multi),
        rate(multi),
        node_rate(multi)
    );
    println!(
        "  batch speedup {:.2}x, thread speedup {:.2}x",
        unbatched / single,
        single / multi
    );
    println!(
        "  time split (1 thread, batched): prepare {:>10} ({:.0}%), store {:>10} ({:.0}%)",
        format_ms(prepare),
        100.0 * prepare / single,
        format_ms(store_side),
        100.0 * store_side / single
    );
    println!(
        "  subexpr   1 thread : {:>10} ({:>12.0} terms/s, {:>12.0} nodes/s, min_nodes {}, {} entries)",
        format_ms(subexpr),
        rate(subexpr),
        node_rate(subexpr),
        sub_min_nodes,
        indexed_entries,
    );
    println!(
        "  durable   1 thread : {:>10} ({:>12.0} terms/s, {:>12.0} nodes/s, {:.1}% over in-memory)",
        format_ms(durable),
        rate(durable),
        node_rate(durable),
        100.0 * (durable / single - 1.0),
    );
    println!(
        "  durable artifacts  : wal {} KiB, recovery (snapshot + replay) {}",
        wal_bytes / 1024,
        format_ms(reopen_secs),
    );
    println!(
        "  canon DAG (subexpr): {} resident / {} logical nodes ({:.2}x sharing, {} KiB)",
        dag.resident_nodes,
        dag.logical_nodes,
        dag.sharing_ratio(),
        dag.resident_bytes / 1024,
    );
    println!(
        "  contains_batch     : {:>10} for {} patterns ({:>12.0} queries/s)",
        format_ms(contains_batch_secs),
        pattern_count,
        contains_qps,
    );
    println!(
        "  obs overhead       : {:.1}% (toggled off: {:>10}); prepare p50/p99 {:.0}/{:.0} ns, \
         apply p50/p99 {:.0}/{:.0} ns, wal commit p50/p99 {:.0}/{:.0} ns",
        100.0 * (obs_overhead_ratio - 1.0),
        format_ms(single_obs_off),
        prepare_p50,
        prepare_p99,
        apply_p50,
        apply_p99,
        wal_commit_p50,
        wal_commit_p99,
    );
    println!(
        "  reliability        : flaky-disk ingest {} ({} retries, commit p50/p99 {:.0}/{:.0} ns)",
        format_ms(retry_secs),
        wal_retries,
        retry_commit_p50,
        retry_commit_p99,
    );
    println!("  {stats}");
    println!("  subexpr mode: {sub_stats}");
    println!("  durable mode: {durable_stats}");

    if !json_path.is_empty() {
        let json = format!(
            concat!(
                "{{\n",
                "  \"bench\": \"store_throughput\",\n",
                "  \"terms\": {terms},\n",
                "  \"corpus_nodes\": {nodes},\n",
                "  \"shards\": {shards},\n",
                "  \"table_shards\": {table_shards},\n",
                "  \"threads\": {threads},\n",
                "  \"reps\": {reps},\n",
                "  \"available_parallelism\": {cores},\n",
                "  \"unbatched_single_thread_secs\": {unbatched:.6},\n",
                "  \"batched_single_thread_secs\": {single:.6},\n",
                "  \"batched_multi_thread_secs\": {multi:.6},\n",
                "  \"single_thread_terms_per_sec\": {single_rate:.1},\n",
                "  \"multi_thread_terms_per_sec\": {multi_rate:.1},\n",
                "  \"single_thread_nodes_per_sec\": {single_node_rate:.1},\n",
                "  \"multi_thread_nodes_per_sec\": {multi_node_rate:.1},\n",
                "  \"prepare_single_thread_secs\": {prepare:.6},\n",
                "  \"store_single_thread_secs\": {store_side:.6},\n",
                "  \"prepare_share\": {prepare_share:.3},\n",
                "  \"batch_speedup\": {batch_speedup:.3},\n",
                "  \"thread_speedup\": {thread_speedup:.3},\n",
                "  \"classes\": {classes},\n",
                "  \"stats\": {{\n",
                "    \"terms_ingested\": {ingested},\n",
                "    \"classes_created\": {created},\n",
                "    \"merges_confirmed\": {merged},\n",
                "    \"hash_collisions\": {collisions},\n",
                "    \"unconfirmed_merges\": {unconfirmed}\n",
                "  }},\n",
                "  \"subexpr\": {{\n",
                "    \"min_nodes\": {sub_min_nodes},\n",
                "    \"single_thread_secs\": {subexpr:.6},\n",
                "    \"terms_per_sec\": {sub_rate:.1},\n",
                "    \"corpus_nodes_per_sec\": {sub_node_rate:.1},\n",
                "    \"indexed_entries\": {indexed_entries},\n",
                "    \"indexed_entries_per_sec\": {sub_entry_rate:.1},\n",
                "    \"classes\": {sub_classes},\n",
                "    \"subterms_indexed\": {subterms_indexed},\n",
                "    \"subterm_merges_confirmed\": {subterm_merges},\n",
                "    \"subterms_skipped_min_nodes\": {subterms_skipped},\n",
                "    \"unconfirmed_merges\": {sub_unconfirmed}\n",
                "  }},\n",
                "  \"durable\": {{\n",
                "    \"single_thread_secs\": {durable:.6},\n",
                "    \"terms_per_sec\": {durable_rate:.1},\n",
                "    \"corpus_nodes_per_sec\": {durable_node_rate:.1},\n",
                "    \"overhead_vs_memory\": {durable_overhead:.4},\n",
                "    \"wal_bytes\": {wal_bytes},\n",
                "    \"recovery_secs\": {reopen_secs:.6},\n",
                "    \"unconfirmed_merges_after_recovery\": {durable_unconfirmed}\n",
                "  }},\n",
                "  \"canon_dag\": {{\n",
                "    \"granularity_min_nodes\": {sub_min_nodes},\n",
                "    \"resident_nodes\": {dag_resident_nodes},\n",
                "    \"resident_bytes\": {dag_resident_bytes},\n",
                "    \"resident_names\": {dag_resident_names},\n",
                "    \"logical_nodes\": {dag_logical_nodes},\n",
                "    \"sharing_ratio\": {dag_sharing:.3},\n",
                "    \"contains_batch_patterns\": {cb_patterns},\n",
                "    \"contains_batch_secs\": {cb_secs:.6},\n",
                "    \"contains_batch_queries_per_sec\": {cb_qps:.1}\n",
                "  }},\n",
                "  \"reliability\": {{\n",
                "    \"durable_terms_per_sec\": {durable_rate:.1},\n",
                "    \"flaky_disk_ingest_secs\": {retry_secs:.6},\n",
                "    \"flaky_disk_terms_per_sec\": {retry_rate:.1},\n",
                "    \"wal_retries\": {wal_retries},\n",
                "    \"retry_commit_ns_p50\": {retry_commit_p50:.1},\n",
                "    \"retry_commit_ns_p99\": {retry_commit_p99:.1}\n",
                "  }},\n",
                "  \"obs\": {{\n",
                "    \"single_thread_obs_on_secs\": {single_obs_on:.6},\n",
                "    \"single_thread_obs_off_secs\": {single_obs_off:.6},\n",
                "    \"overhead_ratio\": {obs_overhead_ratio:.4},\n",
                "    \"prepare_ns_p50\": {prepare_p50:.1},\n",
                "    \"prepare_ns_p99\": {prepare_p99:.1},\n",
                "    \"apply_ns_p50\": {apply_p50:.1},\n",
                "    \"apply_ns_p99\": {apply_p99:.1},\n",
                "    \"shard_lock_wait_ns_p50\": {lock_wait_p50:.1},\n",
                "    \"shard_lock_wait_ns_p99\": {lock_wait_p99:.1},\n",
                "    \"wal_commit_ns_p50\": {wal_commit_p50:.1},\n",
                "    \"wal_commit_ns_p99\": {wal_commit_p99:.1}\n",
                "  }}\n",
                "}}\n",
            ),
            terms = terms,
            nodes = corpus_nodes,
            shards = store.shard_count(),
            table_shards = table_shards,
            threads = threads,
            reps = reps,
            cores = cores,
            unbatched = unbatched,
            single = single,
            multi = multi,
            single_rate = rate(single),
            multi_rate = rate(multi),
            single_node_rate = node_rate(single),
            multi_node_rate = node_rate(multi),
            prepare = prepare,
            store_side = store_side,
            prepare_share = prepare / single,
            batch_speedup = unbatched / single,
            thread_speedup = single / multi,
            classes = store.num_classes(),
            ingested = stats.terms_ingested,
            created = stats.classes_created,
            merged = stats.merges_confirmed,
            collisions = stats.hash_collisions,
            unconfirmed = stats.unconfirmed_merges,
            sub_min_nodes = sub_min_nodes,
            subexpr = subexpr,
            sub_rate = rate(subexpr),
            sub_node_rate = node_rate(subexpr),
            indexed_entries = indexed_entries,
            sub_entry_rate = indexed_entries as f64 / subexpr,
            sub_classes = sub_store.num_classes(),
            subterms_indexed = sub_stats.subterms_indexed,
            subterm_merges = sub_stats.subterm_merges_confirmed,
            subterms_skipped = sub_stats.subterms_skipped_min_nodes,
            sub_unconfirmed = sub_stats.unconfirmed_merges,
            durable = durable,
            durable_rate = rate(durable),
            durable_node_rate = node_rate(durable),
            durable_overhead = durable / single - 1.0,
            wal_bytes = wal_bytes,
            reopen_secs = reopen_secs,
            durable_unconfirmed = durable_stats.unconfirmed_merges,
            dag_resident_nodes = dag.resident_nodes,
            dag_resident_bytes = dag.resident_bytes,
            dag_resident_names = dag.resident_names,
            dag_logical_nodes = dag.logical_nodes,
            dag_sharing = dag.sharing_ratio(),
            cb_patterns = pattern_count,
            cb_secs = contains_batch_secs,
            cb_qps = contains_qps,
            retry_secs = retry_secs,
            retry_rate = rate(retry_secs),
            wal_retries = wal_retries,
            retry_commit_p50 = retry_commit_p50,
            retry_commit_p99 = retry_commit_p99,
            single_obs_on = single_obs_on,
            single_obs_off = single_obs_off,
            obs_overhead_ratio = obs_overhead_ratio,
            prepare_p50 = prepare_p50,
            prepare_p99 = prepare_p99,
            apply_p50 = apply_p50,
            apply_p99 = apply_p99,
            lock_wait_p50 = lock_wait_p50,
            lock_wait_p99 = lock_wait_p99,
            wal_commit_p50 = wal_commit_p50,
            wal_commit_p99 = wal_commit_p99,
        );
        std::fs::write(&json_path, json)
            .unwrap_or_else(|e| panic!("cannot write {json_path}: {e}"));
        println!("  wrote {json_path}");
    }
}
