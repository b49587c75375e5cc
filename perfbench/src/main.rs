//! The repository benchmark. One process runs one workload for a fixed
//! measuring time and prints every metric by name and unit, then one
//! JSON line:
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload wire-ingest --seed 1 --seconds 10 --trace 0
//! ```
//!
//! `--trace 0` reports the end-to-end metrics; `--trace 1` reports the
//! per-layer metrics, timing each layer's public entry points from this
//! package and reading the store's exported counters around each phase.
//! The process exits non-zero when any correctness audit fails. See
//! `perfbench/README.md` for the metric catalog and why each workload
//! exists.

mod corpus;
mod measure;
mod paper_hash;
mod subexpr_index;
mod update_churn;
mod wire_ingest;

use std::path::PathBuf;
use std::time::{Duration, Instant};

/// End-to-end metrics with their units; every workload reports each one.
const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("throughput_per_s", "1/s"),
    ("latency_p50_us", "us"),
    ("latency_p99_us", "us"),
    ("query_p50_us", "us"),
    ("query_p99_us", "us"),
    ("checkpoint_ms", "ms"),
    ("space_amp", "ratio"),
    ("peak_rss_mb", "MiB"),
];

/// Per-layer metrics with their units. A workload that does not reach a
/// layer reports 0 for it (the layer did no work there).
const PER_LAYER: &[(&str, &str)] = &[
    ("alphahashd.wire.decode_ns_per_node", "ns"),
    ("alphahashd.wire.encode_ns_per_node", "ns"),
    ("alphahashd.residual_share", "ratio"),
    ("alphahashd.vs_in_process", "ratio"),
    ("alphahashd.store_time_ratio", "ratio"),
    ("alpha-store.prepare.ns_per_node", "ns"),
    ("alpha-store.prepare.root_ns_per_node", "ns"),
    ("alpha-store.prepare.outside_hash_share", "ratio"),
    ("alpha-hash.hash_pass_ns_per_node", "ns"),
    ("alpha-store.dag.canon_nodes_per_input_node", "ratio"),
    ("alpha-store.dag.canon_intern_hit_ratio", "ratio"),
    ("alpha-store.dag.canon_resident_bytes", "bytes"),
    ("alpha-store.dag.apply_ns_per_term", "ns"),
    ("alpha-store.dag.shard_lock_wait_ns_per_term", "ns"),
    ("alpha-store.dag.walk_nodes_per_merge", "nodes"),
    ("alpha-store.dag.hot_cache_hit_ratio", "ratio"),
    ("alpha-store.query.probe_ns_per_pattern", "ns"),
    ("alpha-store.query.hit_ratio", "ratio"),
    ("alpha-store.update.hot_p50_us", "us"),
    ("alpha-store.update.cold_p50_us", "us"),
    ("alpha-store.update.spine_nodes_per_update", "nodes"),
    ("alpha-hash.incremental_build_us_per_knode", "us"),
    ("alpha-store.persist.wal_commit_ns_per_term", "ns"),
    ("alpha-store.persist.wal_bytes_per_term", "bytes"),
    ("alpha-store.persist.snapshot_bytes", "bytes"),
    ("alpha-store.store.dead_classes", "count"),
    ("alpha-hash.ns_per_node", "ns"),
    ("alpha-hash.result_alloc_share", "ratio"),
    ("alpha-hash.time_exponent", "ratio"),
    ("bench.trace_overhead_ratio", "ratio"),
];

#[global_allocator]
static ALLOC: measure::CountingAlloc = measure::CountingAlloc;

const WORKLOADS: &[&str] = &["wire-ingest", "subexpr-index", "update-churn", "paper-hash"];

/// What every workload receives.
pub struct Config {
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Directory for durable stores and the span dump, inside the
    /// benchmark's own directory; removed at exit except for the dump.
    pub scratch: PathBuf,
}

impl Config {
    /// Whether epoch `epoch` records spans. A traced run alternates
    /// untraced and traced epochs so both see the same inputs and store
    /// sizes, which is what `bench.trace_overhead_ratio` compares.
    pub fn traced_epoch(&self, epoch: usize) -> bool {
        self.trace && epoch % 2 == 1
    }
}

/// Measuring time left to a run: only the timed phases of each epoch
/// draw on it, never set-up or audits.
pub struct Budget {
    limit: Duration,
    used: Duration,
    phase: Option<Instant>,
}

impl Budget {
    pub fn new(seconds: f64) -> Self {
        Budget {
            limit: Duration::from_secs_f64(seconds),
            used: Duration::ZERO,
            phase: None,
        }
    }

    pub fn start(&mut self) {
        self.phase = Some(Instant::now());
    }

    pub fn stop(&mut self) {
        if let Some(t) = self.phase.take() {
            self.used += t.elapsed();
        }
    }

    /// Whether measuring time remains (counting the running phase).
    pub fn left(&self) -> bool {
        let running = self.phase.map_or(Duration::ZERO, |t| t.elapsed());
        self.used + running < self.limit
    }
}

fn usage() -> ! {
    eprintln!(
        "usage: perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
        WORKLOADS.join("|")
    );
    std::process::exit(2);
}

fn parse_args() -> (String, Config) {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let mut workload = None;
    let (mut seed, mut seconds, mut trace) = (None, None, None);
    for pair in raw.chunks(2) {
        let [flag, value] = pair else { usage() };
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = value.parse::<u64>().ok(),
            "--seconds" => seconds = value.parse::<f64>().ok().filter(|s| *s > 0.0),
            "--trace" => trace = matches!(value.as_str(), "0" | "1").then(|| value == "1"),
            _ => usage(),
        }
    }
    let (Some(workload), Some(seed), Some(seconds), Some(trace)) = (workload, seed, seconds, trace)
    else {
        usage()
    };
    if !WORKLOADS.contains(&workload.as_str()) {
        usage();
    }
    let scratch = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("out")
        .join(format!("{workload}-{}", std::process::id()));
    (
        workload,
        Config {
            seed,
            seconds,
            trace,
            scratch,
        },
    )
}

/// Pins the process to the first CPU it may run on and returns it. Call
/// it before starting any thread, so every thread inherits the mask.
///
/// wire-ingest has one closed-loop client, so one of its threads has
/// work at a time. A hand-off (client to connection handler to ingest
/// worker and back) that wakes a thread on another, idle virtual CPU
/// waits for the host to schedule that CPU; on a shared host the wait is
/// 1-5 ms, often enough to set a p99. On one CPU a hand-off is a plain
/// context switch. The in-process workloads run on one thread and are
/// not pinned.
#[cfg(target_os = "linux")]
pub fn pin_to_one_cpu() -> Option<usize> {
    extern "C" {
        fn sched_getaffinity(pid: i32, size: usize, mask: *mut u64) -> i32;
        fn sched_setaffinity(pid: i32, size: usize, mask: *const u64) -> i32;
    }
    // A `cpu_set_t`: 1,024 CPU bits.
    let mut mask = [0u64; 16];
    let size = std::mem::size_of_val(&mask);
    // SAFETY: `mask` is a writable buffer of `size` bytes; pid 0 is the
    // calling thread.
    if unsafe { sched_getaffinity(0, size, mask.as_mut_ptr()) } != 0 {
        return None;
    }
    let cpu = (0..1024).find(|&c| mask[c / 64] >> (c % 64) & 1 == 1)?;
    let mut one = [0u64; 16];
    one[cpu / 64] = 1 << (cpu % 64);
    // SAFETY: `one` is a readable buffer of `size` bytes.
    (unsafe { sched_setaffinity(0, size, one.as_ptr()) } == 0).then_some(cpu)
}

#[cfg(not(target_os = "linux"))]
pub fn pin_to_one_cpu() -> Option<usize> {
    None
}

fn main() {
    let (workload, config) = parse_args();
    if let Err(e) = std::fs::create_dir_all(&config.scratch) {
        eprintln!("cannot create {}: {e}", config.scratch.display());
        std::process::exit(2);
    }
    let mut report = match workload.as_str() {
        "wire-ingest" => wire_ingest::run(&config),
        "subexpr-index" => subexpr_index::run(&config),
        "update-churn" => update_churn::run(&config),
        _ => paper_hash::run(&config),
    };
    // Pooled over complete epochs: a median of per-epoch rates jumps
    // between the machine's speed phases (see `Samples::blocked_pct_us`).
    let (ops, secs) = report.complete;
    report
        .e2e
        .insert("throughput_per_s", measure::ratio(ops, secs));
    // Inputs are generated for the whole run and reused by every epoch;
    // the program's own set-up is repeated per epoch and its mid-mean
    // taken.
    let setup = report.generation_s + measure::mid_mean(&report.setups);
    report.e2e.insert("setup_s", setup);
    report.notes.push(format!(
        "setup_s: input generation {:.4} s + mid-mean epoch set-up {:.4} s over {} epochs",
        report.generation_s,
        measure::mid_mean(&report.setups),
        report.setups.len()
    ));
    let rate = |(ops, secs): (f64, f64)| measure::ratio(ops, secs);
    let overhead = measure::ratio(rate(report.work[1]), rate(report.work[0]));
    report.layers.insert("bench.trace_overhead_ratio", overhead);
    report.e2e.insert("peak_rss_mb", measure::peak_rss_mb());
    let _ = std::fs::remove_dir_all(&config.scratch);

    let catalog = if config.trace { PER_LAYER } else { END_TO_END };
    let chosen = if config.trace {
        report.layers.clone()
    } else {
        report.e2e.clone()
    };
    let mut metrics = Vec::new();
    for &(name, unit) in catalog {
        let value = chosen.get(name).copied().unwrap_or(0.0);
        let value = if value.is_finite() { value } else { 0.0 };
        if !config.trace && value <= 0.0 {
            report.audit(
                format!("{name} measured"),
                false,
                "an end-to-end metric read 0: no complete epoch fit the run",
            );
        }
        metrics.push(format!(
            "\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
        ));
        println!("{name:<48} {value:>16.4} {unit}");
    }
    for note in &report.notes {
        println!("note: {note}");
    }
    for a in &report.audits {
        let verdict = if a.ok { "ok" } else { "FAILED" };
        println!("audit {verdict}: {} {}", a.name, a.detail);
    }
    let correct = report.audits.iter().all(|a| a.ok);
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        report.attempted.max(1),
        report.failed,
        metrics.join(", ")
    );
    if !correct {
        std::process::exit(1);
    }
}
