//! `wire-ingest`: one client streams the store-shaped corpus into
//! `alphahashd` over loopback, in requests of exactly the daemon's flush
//! watermark, and probes already-sent terms with `contains_batch` after
//! every request. The daemon fronts a durable Roots-granularity store.
//!
//! An epoch is one pass over the corpus into a fresh daemon and store;
//! a run repeats epochs until its measuring time is spent. The process
//! runs on one CPU (see [`crate::pin_to_one_cpu`]).

use crate::corpus;
use crate::measure::{self, census, ratio, Census, Counters, Deltas, Report, Samples, Tracer};
use crate::{Budget, Config};
use alpha_store::{AlphaStore, StoreBuilder};
use alphahashd::{wire, Client, Daemon, DaemonConfig};
use lambda_lang::arena::{ExprArena, NodeId};
use rand::Rng;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Requests per epoch.
const REQUESTS_PER_EPOCH: usize = 48;
/// Patterns in the `contains_batch` that follows each insert request.
const QUERY_TERMS: usize = 128;
const SCHEME_SEED: u64 = 0x5EED;

fn builder() -> StoreBuilder<u64> {
    AlphaStore::builder()
        .seed(SCHEME_SEED)
        .sync_on_commit(false)
}

struct Inputs {
    arena: ExprArena,
    roots: Vec<NodeId>,
    nodes: Vec<usize>,
    probe_arena: ExprArena,
    /// Per request: `(pattern, index of the sent term it renames)`.
    probes: Vec<Vec<(NodeId, usize)>>,
}

fn inputs(seed: u64, request_terms: usize) -> Inputs {
    let mut arena = ExprArena::new();
    let roots = corpus::store_shaped(&mut arena, request_terms * REQUESTS_PER_EPOCH, seed);
    let nodes = roots.iter().map(|&r| arena.subtree_size(r)).collect();
    let mut probe_arena = ExprArena::new();
    let mut pick = corpus::rng(seed, 3, 0);
    let probes = (1..=REQUESTS_PER_EPOCH)
        .map(|r| {
            (0..QUERY_TERMS)
                .map(|_| {
                    let i = pick.random_range(0..r * request_terms);
                    (corpus::renamed_copy(&arena, roots[i], &mut probe_arena), i)
                })
                .collect()
        })
        .collect();
    Inputs {
        arena,
        roots,
        nodes,
        probe_arena,
        probes,
    }
}

/// What the traced epochs add up.
#[derive(Default)]
struct Parts {
    nodes: f64,
    encode_ns: f64,
    decode_ns: f64,
    round_trip_ns: f64,
    twin_ns: f64,
    daemon: Deltas,
    twin: Deltas,
    wal_bytes: f64,
    terms: f64,
}

pub fn run(cfg: &Config) -> Report {
    let mut report = Report::default();
    report.notes.push(match crate::pin_to_one_cpu() {
        Some(cpu) => format!("pinned to CPU {cpu}"),
        None => "not pinned to one CPU".to_string(),
    });
    let request_terms = DaemonConfig::default().flush_terms;
    let mut budget = Budget::new(cfg.seconds);
    let (mut inserts, mut queries, mut checkpoints) =
        (Samples::default(), Samples::default(), Samples::default());
    let mut tracer = Tracer::new();
    let mut parts = Parts::default();
    // The in-process reference build's census and canon resident bytes.
    let mut reference: Option<(Census, u64)> = None;
    let mut snapshot_bytes = 0u64;
    let mut resident = 0u64;
    let mut hits = (0u64, 0u64);
    let mut census_mismatches = 0;

    let inp = report.generate(|| inputs(cfg.seed, request_terms));

    let mut epoch = 0;
    while budget.left() {
        let traced = cfg.traced_epoch(epoch);
        let t_setup = Instant::now();
        let dir = cfg.scratch.join(format!("wire-{epoch}"));
        let store = Arc::new(builder().open_durable(&dir).expect("open durable store"));
        let daemon = Daemon::spawn(Arc::clone(&store), DaemonConfig::default()).expect("spawn");
        let mut client = Client::connect(daemon.local_addr().to_string()).expect("connect");
        client.set_chunk_terms(request_terms);
        client
            .set_read_timeout(Some(Duration::from_secs(60)))
            .expect("set timeout");
        let twin_dir = cfg.scratch.join(format!("wire-twin-{epoch}"));
        let twin = traced.then(|| builder().open_durable(&twin_dir).expect("open twin"));
        // Warm the connection and the daemon's query path; queries ingest
        // nothing, so the store still starts empty.
        let warm: Vec<NodeId> = inp.probes[0].iter().map(|p| p.0).collect();
        client
            .contains_batch(&inp.probe_arena, &warm)
            .expect("warm-up");
        report.setups.push(t_setup.elapsed().as_secs_f64());

        let before = Counters::read(&store);
        let twin_before = twin.as_ref().map(Counters::read);
        let mut classes = vec![0u64; inp.roots.len()];
        let (mut terms, mut secs) = (0.0, 0.0);
        let mut sent = 0;
        budget.start();
        for (r, chunk) in inp.roots.chunks(request_terms).enumerate() {
            if !budget.left() {
                break;
            }
            let req = (epoch * REQUESTS_PER_EPOCH + r) as u64;
            if traced {
                tracer.enter("request", req);
            }
            let mut bytes = Vec::new();
            if traced {
                tracer.enter("alphahashd.wire.put_term", req);
                for &root in chunk {
                    wire::put_term(&mut bytes, &inp.arena, root);
                }
                parts.encode_ns += tracer.exit() as f64;
                tracer.enter("alphahashd.Client.insert_batch", req);
            }
            let t = Instant::now();
            let outcome = client.insert_batch(&inp.arena, chunk);
            let took = t.elapsed();
            if traced {
                parts.round_trip_ns += tracer.exit() as f64;
            }
            inserts.push(took);
            report.attempted += 1;
            match outcome {
                Ok(outs) if outs.len() == chunk.len() => {
                    for (k, o) in outs.iter().enumerate() {
                        classes[r * request_terms + k] = o.class;
                    }
                    terms += chunk.len() as f64;
                    secs += took.as_secs_f64();
                    sent = (r + 1) * request_terms;
                }
                _ => {
                    report.failed += 1;
                    if traced {
                        tracer.exit();
                    }
                    break;
                }
            }
            if let Some(twin) = &twin {
                let n: usize = inp.nodes[r * request_terms..][..chunk.len()].iter().sum();
                parts.nodes += n as f64;
                parts.terms += chunk.len() as f64;
                let mut decoded = ExprArena::new();
                tracer.enter("alphahashd.wire.take_term", req);
                let mut input = bytes.as_slice();
                let roots: Vec<NodeId> = chunk
                    .iter()
                    .map(|_| wire::take_term(&mut input, &mut decoded).expect("decode"))
                    .collect();
                parts.decode_ns += tracer.exit() as f64;
                tracer.enter("alpha-store.try_insert_batch", req);
                twin.try_insert_batch(&decoded, &roots)
                    .expect("twin insert");
                parts.twin_ns += tracer.exit() as f64;
            }

            let patterns: Vec<NodeId> = inp.probes[r].iter().map(|p| p.0).collect();
            if traced {
                tracer.enter("alphahashd.Client.contains_batch", req);
            }
            let t = Instant::now();
            let answers = client.contains_batch(&inp.probe_arena, &patterns);
            queries.push(t.elapsed());
            if traced {
                tracer.exit();
                tracer.exit();
            }
            report.attempted += 1;
            match answers {
                Ok(found) => {
                    let right = found
                        .iter()
                        .zip(&inp.probes[r])
                        .filter(|(f, p)| **f == Some(classes[p.1]))
                        .count();
                    hits.0 += right as u64;
                    hits.1 += patterns.len() as u64;
                }
                Err(_) => report.failed += 1,
            }
        }
        budget.stop();
        report.epoch_work(traced, terms, secs);
        let complete = sent == inp.roots.len();
        if let Some(twin) = &twin {
            parts.daemon.add(&before, &Counters::read(&store));
            parts
                .twin
                .add(twin_before.as_ref().expect("read"), &Counters::read(twin));
            parts.wal_bytes += Counters::read(&store).get("wal_bytes_since_checkpoint") as f64;
        }

        if complete {
            report.complete_epoch(terms, secs);
            let t = Instant::now();
            let ok = client.checkpoint().is_ok();
            checkpoints.push(t.elapsed());
            report.attempted += 1;
            report.failed += u64::from(!ok);
            snapshot_bytes = std::fs::metadata(dir.join(alpha_store::persist::SNAPSHOT_FILE))
                .map_or(0, |m| m.len());
            let got = census(&store);
            let (want, want_bytes) = reference.get_or_insert_with(|| {
                let fresh = builder().build();
                for chunk in inp.roots.chunks(request_terms) {
                    fresh
                        .try_insert_batch(&inp.arena, chunk)
                        .expect("reference");
                }
                (census(&fresh), fresh.canon_dag_stats().resident_bytes)
            });
            resident = store.canon_dag_stats().resident_bytes;
            report
                .e2e
                .insert("space_amp", ratio(resident as f64, *want_bytes as f64));
            census_mismatches += usize::from(got != *want);
        }
        report.check_exact(epoch, &store);
        let _ = client.shutdown();
        daemon.join();
        drop(store);
        if complete && epoch == 0 {
            let reopened = AlphaStore::<u64>::open(&dir).map(|s| census(&s));
            let same = matches!((&reopened, &reference), (Ok(c), Some((w, _))) if c == w);
            report.audit(
                "reopened directory has the census of the in-process build",
                same,
                "",
            );
        }
        drop(twin);
        let _ = std::fs::remove_dir_all(&dir);
        let _ = std::fs::remove_dir_all(&twin_dir);
        epoch += 1;
    }

    report.audit(
        "a complete epoch ran",
        reference.is_some(),
        format!("{epoch} epochs"),
    );
    report.audit(
        "every complete epoch's census equals the in-process build",
        census_mismatches == 0,
        format!("{census_mismatches} differ"),
    );
    report.audit(
        "every contains_batch answer is the inserted term's class",
        hits.0 == hits.1,
        format!("{}/{}", hits.0, hits.1),
    );
    report.percentiles("latency_p50_us", "latency_p99_us", &inserts);
    report.percentiles("query_p50_us", "query_p99_us", &queries);
    report
        .e2e
        .insert("checkpoint_ms", checkpoints.mid_mean_ms());
    report.notes.push(format!(
        "{} epochs, {} checkpoints",
        epoch,
        checkpoints.len()
    ));

    if cfg.trace {
        let p = &parts;
        p.daemon.store_layers(&mut report);
        let residual = ratio(p.round_trip_ns - p.decode_ns - p.twin_ns, p.round_trip_ns);
        let layers = [
            (
                "alphahashd.wire.decode_ns_per_node",
                ratio(p.decode_ns, p.nodes),
            ),
            (
                "alphahashd.wire.encode_ns_per_node",
                ratio(p.encode_ns, p.nodes),
            ),
            ("alphahashd.residual_share", residual),
            (
                "alphahashd.vs_in_process",
                ratio(p.twin_ns, p.round_trip_ns),
            ),
            (
                "alphahashd.store_time_ratio",
                ratio(p.daemon.store_ns(), p.twin.store_ns()),
            ),
            ("alpha-store.dag.canon_resident_bytes", resident as f64),
            (
                "alpha-store.query.hit_ratio",
                ratio(hits.0 as f64, hits.1 as f64),
            ),
            (
                "alpha-store.persist.wal_bytes_per_term",
                ratio(p.wal_bytes, p.terms),
            ),
            ("alpha-store.persist.snapshot_bytes", snapshot_bytes as f64),
        ];
        report.layers.extend(layers);
        // The round trip is the whole; decode and the twin-store insert
        // are parts measured apart from it. Parts above the whole mean
        // the twin is not a faithful stand-in for the daemon's work.
        const TOLERANCE: f64 = 0.05;
        if residual < -TOLERANCE {
            report.notes.push(format!(
                "finding: decode + in-process insert exceed the round trip by {:.1}%",
                -residual * 100.0
            ));
        }
        let store_ratio = ratio(p.daemon.store_ns(), p.twin.store_ns());
        if (store_ratio - 1.0).abs() > 0.25 {
            report.notes.push(format!(
                "finding: daemon store counters read {store_ratio:.2}x the twin's for the same terms"
            ));
        }
        measure::finish_trace(
            &mut report,
            &tracer,
            &cfg.scratch,
            &format!("wire-ingest-{}", cfg.seed),
        );
    }
    report
}
