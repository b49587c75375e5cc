//! Shared measurement pieces: latency samples, the per-run report, the
//! census used by the exactness audits, and the span recorder of the
//! traced run.

use alpha_store::AlphaStore;
use std::alloc::{GlobalAlloc, Layout, System};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicBool, AtomicIsize, Ordering::Relaxed};
use std::time::{Duration, Instant};

/// The system allocator, counting live bytes while [`peak_bytes`] runs.
/// Outside it each call pays one relaxed load.
pub struct CountingAlloc;

static COUNTING: AtomicBool = AtomicBool::new(false);
static LIVE: AtomicIsize = AtomicIsize::new(0);
static PEAK: AtomicIsize = AtomicIsize::new(0);

fn count(bytes: isize) {
    if COUNTING.load(Relaxed) {
        let live = LIVE.fetch_add(bytes, Relaxed) + bytes;
        PEAK.fetch_max(live, Relaxed);
    }
}

// SAFETY: every call is forwarded unchanged to `System`; the counters
// only observe sizes.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc(layout);
        if !p.is_null() {
            count(layout.size() as isize);
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc_zeroed(layout);
        if !p.is_null() {
            count(layout.size() as isize);
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
        count(-(layout.size() as isize));
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let p = System.realloc(ptr, layout, new_size);
        if !p.is_null() {
            count(new_size as isize - layout.size() as isize);
        }
        p
    }
}

/// Runs `f` and returns its result with the most bytes it held live at
/// once beyond what was live when it started. Only one thread may
/// allocate while it runs.
pub fn peak_bytes<R>(f: impl FnOnce() -> R) -> (R, usize) {
    LIVE.store(0, Relaxed);
    PEAK.store(0, Relaxed);
    COUNTING.store(true, Relaxed);
    let out = f();
    COUNTING.store(false, Relaxed);
    (out, PEAK.load(Relaxed).max(0) as usize)
}

/// Wall-clock latencies of one kind of operation, in nanoseconds.
#[derive(Default)]
pub struct Samples(Vec<u64>);

impl Samples {
    pub fn push(&mut self, d: Duration) {
        self.0.push(u64::try_from(d.as_nanos()).unwrap_or(u64::MAX));
    }

    pub fn len(&self) -> usize {
        self.0.len()
    }

    pub fn total_s(&self) -> f64 {
        self.0.iter().map(|&ns| ns as f64).sum::<f64>() / 1e9
    }

    /// Nearest-rank percentile in microseconds (0 when empty).
    pub fn pct_us(&self, q: f64) -> f64 {
        pct_us(&self.0, q)
    }

    /// The `q` percentile in microseconds, averaged over consecutive
    /// blocks of the samples in the order they were taken. The samples
    /// are cut into as many equal blocks as leave at least ten samples
    /// beyond the percentile in each (blocks of at least 20 samples for
    /// p50, 1,000 for p99); fewer samples than that make one block.
    ///
    /// The machine runs in speed phases of a few seconds, about 1.4x
    /// apart. The percentile of a whole run's samples falls in whichever
    /// phase held most of them, so it jumps between two values from run
    /// to run; the mean over blocks moves with the share of time spent in
    /// each phase instead.
    pub fn blocked_pct_us(&self, q: f64) -> f64 {
        let n = self.0.len();
        let blocks = (n / (10.0 / (1.0 - q)).round() as usize).max(1);
        let sum: f64 = (0..blocks)
            .map(|i| pct_us(&self.0[i * n / blocks..(i + 1) * n / blocks], q))
            .sum();
        sum / blocks as f64
    }

    /// The [`mid_mean`] of the samples in milliseconds: for checkpoints,
    /// of which a run takes too few for [`Self::blocked_pct_us`].
    pub fn mid_mean_ms(&self) -> f64 {
        let ms: Vec<f64> = self.0.iter().map(|&ns| ns as f64 / 1e6).collect();
        mid_mean(&ms)
    }

    /// Samples strictly beyond the `q` percentile: the p99 rule asks for
    /// at least ten.
    pub fn beyond(&self, q: f64) -> usize {
        self.0.len() - ((q * self.0.len() as f64).ceil() as usize).min(self.0.len())
    }
}

/// The mean of the middle half of `values` (0 when empty). Like a
/// median it ignores the outer quarters, where stalls land; unlike a
/// median it does not jump between the machine's speed phases (see
/// [`Samples::blocked_pct_us`]).
pub fn mid_mean(values: &[f64]) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let cut = sorted.len() / 4;
    let middle = &sorted[cut..sorted.len() - cut];
    ratio(middle.iter().sum(), middle.len() as f64)
}

fn pct_us(samples: &[u64], q: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_unstable();
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1] as f64 / 1e3
}

/// A correctness check; any failure makes the run exit non-zero.
pub struct Audit {
    pub name: String,
    pub ok: bool,
    pub detail: String,
}

/// Everything one workload run measured.
#[derive(Default)]
pub struct Report {
    pub e2e: BTreeMap<&'static str, f64>,
    pub layers: BTreeMap<&'static str, f64>,
    pub attempted: u64,
    pub failed: u64,
    pub audits: Vec<Audit>,
    /// (primary operations, seconds in primary calls) summed over the
    /// complete epochs, for `throughput_per_s`.
    pub complete: (f64, f64),
    /// Seconds of one generation of the run's inputs ([`mid_mean`]).
    pub generation_s: f64,
    /// Seconds of each epoch's set-up.
    pub setups: Vec<f64>,
    /// (primary operations, seconds in primary calls) of untraced and of
    /// traced epochs, for `bench.trace_overhead_ratio`.
    pub work: [(f64, f64); 2],
    /// Human-readable notes (sample counts, reconciliation findings).
    pub notes: Vec<String>,
}

impl Report {
    pub fn audit(&mut self, name: impl Into<String>, ok: bool, detail: impl Into<String>) {
        self.audits.push(Audit {
            name: name.into(),
            ok,
            detail: detail.into(),
        });
    }

    /// Generates the run's inputs `GENERATIONS` times, keeps the last
    /// and records the [`mid_mean`] time of one generation: a single
    /// timing of a sub-second step moves too much from run to run.
    pub fn generate<T>(&mut self, mut make: impl FnMut() -> T) -> T {
        const GENERATIONS: usize = 5;
        let mut times = Vec::new();
        let mut made = None;
        for _ in 0..GENERATIONS {
            drop(made.take());
            let t = Instant::now();
            made = Some(make());
            times.push(t.elapsed().as_secs_f64());
        }
        self.generation_s = mid_mean(&times);
        made.expect("generated at least once")
    }

    /// Tallies one epoch's primary work under its tracing state.
    pub fn epoch_work(&mut self, traced: bool, ops: f64, secs: f64) {
        let w = &mut self.work[usize::from(traced)];
        w.0 += ops;
        w.1 += secs;
    }

    /// Tallies the primary work of an epoch that ran to its end.
    pub fn complete_epoch(&mut self, ops: f64, secs: f64) {
        self.complete.0 += ops;
        self.complete.1 += secs;
    }

    /// Fails the run if the store ever merged without confirmation.
    pub fn check_exact(&mut self, epoch: usize, store: &AlphaStore<u64>) {
        let unconfirmed = store.stats().unconfirmed_merges;
        if unconfirmed != 0 {
            self.audit(
                format!("epoch {epoch} unconfirmed merges"),
                false,
                unconfirmed.to_string(),
            );
        }
    }

    /// Records the block-averaged p50/p99 pair of `samples` under the
    /// given names and notes how many samples sit beyond the p99.
    pub fn percentiles(&mut self, p50: &'static str, p99: &'static str, samples: &Samples) {
        self.e2e.insert(p50, samples.blocked_pct_us(0.50));
        self.e2e.insert(p99, samples.blocked_pct_us(0.99));
        self.notes.push(format!(
            "{p99}: {} samples, {} beyond the p99",
            samples.len(),
            samples.beyond(0.99)
        ));
    }
}

/// Peak resident set of this process (VmHWM), in MiB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

pub type Census = Vec<(u64, u64, usize)>;

/// The store's partition as a sorted multiset of `(hash, members,
/// canonical nodes)`, one entry per live class. Class ids differ between
/// stores; this does not. Classes left with no member by an update are
/// not live and are skipped.
pub fn census(store: &AlphaStore<u64>) -> Census {
    let mut out: Census = store
        .classes()
        .filter_map(|c| {
            let members = store.members(c);
            (members > 0).then(|| (store.hash_of(c), members, store.node_count(c)))
        })
        .collect();
    out.sort_unstable();
    out
}

/// Reads the store's exported counters once, for before/after deltas.
pub struct Counters(alpha_store::alpha_obs::Report);

impl Counters {
    pub fn read(store: &AlphaStore<u64>) -> Self {
        Counters(store.obs_report())
    }

    /// A counter or gauge by its exported name, or a histogram's sum.
    pub fn get(&self, name: &str) -> u64 {
        let full = format!("alpha_store_{name}");
        self.0
            .counter(&full)
            .or_else(|| self.0.gauge(&full))
            .or_else(|| self.0.histogram(&full).map(|h| h.sum))
            .unwrap_or(0)
    }

    /// A histogram's sample count.
    pub fn count(&self, name: &str) -> u64 {
        let full = format!("alpha_store_{name}");
        self.0.histogram(&full).map_or(0, |h| h.count)
    }
}

/// `after - before` for one counter.
pub fn delta(before: &Counters, after: &Counters, name: &str) -> u64 {
    after.get(name).saturating_sub(before.get(name))
}

/// `num / den`, or 0 when the layer did no work.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// One recorded span of the traced run.
struct Span {
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
    parent: Option<usize>,
    request: u64,
}

/// Span recorder for the traced run. Spans wrap calls into the program
/// from the benchmark's own code; they stay in memory and are written
/// out once, after the run.
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    pub fn new() -> Self {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Opens a span nested in the innermost open one.
    pub fn enter(&mut self, name: &'static str, request: u64) {
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
            request,
        });
        self.open.push(self.spans.len() - 1);
    }

    /// Closes the innermost open span and returns its duration in ns.
    pub fn exit(&mut self) -> u64 {
        let end = self.now_ns();
        let ix = self.open.pop().expect("exit matches an enter");
        self.spans[ix].end_ns = end;
        end - self.spans[ix].start_ns
    }

    /// Self time per span name: each span's duration minus the time its
    /// children cover (children never overlap: one thread records them).
    pub fn self_times(&self) -> BTreeMap<&'static str, u64> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.end_ns - s.start_ns;
            }
        }
        let mut out = BTreeMap::new();
        for (s, c) in self.spans.iter().zip(child_ns) {
            *out.entry(s.name).or_insert(0) += (s.end_ns - s.start_ns).saturating_sub(c);
        }
        out
    }

    /// Writes every span as one JSON object per line.
    pub fn write_jsonl(&self, path: &std::path::Path) -> std::io::Result<()> {
        let mut text = String::with_capacity(self.spans.len() * 96);
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_owned(), |p| p.to_string());
            let _ = writeln!(
                text,
                "{{\"id\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"request\":{}}}",
                s.name, s.start_ns, s.end_ns, s.request
            );
        }
        std::fs::write(path, text)
    }
}

/// Store counters summed over the traced phases of a run.
const TRACKED: &[&str] = &[
    "prepare_ns",
    "prepare_nodes",
    "hash_nodes",
    "canon_intern_hits",
    "canon_intern_misses",
    "apply_ns",
    "shard_lock_wait_ns",
    "frontier_walk_nodes",
    "merge_confirm_walk",
    "merge_confirm_cached",
    "probe_ns",
    "wal_commit_ns",
    "terms_ingested",
    "updates_applied",
    "spine_nodes_rehashed",
];

#[derive(Default)]
pub struct Deltas {
    sums: BTreeMap<&'static str, u64>,
    probes: u64,
}

impl Deltas {
    pub fn add(&mut self, before: &Counters, after: &Counters) {
        for &name in TRACKED {
            *self.sums.entry(name).or_default() += delta(before, after, name);
        }
        self.probes += after
            .count("probe_ns")
            .saturating_sub(before.count("probe_ns"));
    }

    pub fn get(&self, name: &str) -> f64 {
        self.sums.get(name).copied().unwrap_or(0) as f64
    }

    /// Terms written to the store: ingested terms plus applied updates.
    pub fn written(&self) -> f64 {
        self.get("terms_ingested") + self.get("updates_applied")
    }

    /// Store time the counters attribute: prepare, apply and WAL commit.
    pub fn store_ns(&self) -> f64 {
        self.get("prepare_ns") + self.get("apply_ns") + self.get("wal_commit_ns")
    }

    /// Fills the per-layer metrics every store workload derives from the
    /// store's own counters.
    pub fn store_layers(&self, report: &mut Report) {
        let g = |n: &str| self.get(n);
        let interned = g("canon_intern_hits") + g("canon_intern_misses");
        let confirms = g("merge_confirm_cached") + g("merge_confirm_walk");
        let rows = [
            (
                "alpha-store.prepare.ns_per_node",
                ratio(g("prepare_ns"), g("prepare_nodes")),
            ),
            (
                "alpha-store.dag.canon_nodes_per_input_node",
                ratio(interned, g("hash_nodes")),
            ),
            (
                "alpha-store.dag.canon_intern_hit_ratio",
                ratio(g("canon_intern_hits"), interned),
            ),
            (
                "alpha-store.dag.apply_ns_per_term",
                ratio(g("apply_ns"), self.written()),
            ),
            (
                "alpha-store.dag.shard_lock_wait_ns_per_term",
                ratio(g("shard_lock_wait_ns"), self.written()),
            ),
            (
                "alpha-store.dag.walk_nodes_per_merge",
                ratio(g("frontier_walk_nodes"), g("merge_confirm_walk")),
            ),
            (
                "alpha-store.dag.hot_cache_hit_ratio",
                ratio(g("merge_confirm_cached"), confirms),
            ),
            (
                "alpha-store.query.probe_ns_per_pattern",
                ratio(g("probe_ns"), self.probes as f64),
            ),
            (
                "alpha-store.persist.wal_commit_ns_per_term",
                ratio(g("wal_commit_ns"), self.written()),
            ),
            (
                "alpha-store.update.spine_nodes_per_update",
                ratio(g("spine_nodes_rehashed"), g("updates_applied")),
            ),
        ];
        report.layers.extend(rows);
    }
}

/// Notes each span name's self time and writes the span dump next to the
/// run's scratch directory.
pub fn finish_trace(report: &mut Report, tracer: &Tracer, scratch: &std::path::Path, tag: &str) {
    for (name, ns) in tracer.self_times() {
        report
            .notes
            .push(format!("self time {name}: {:.3} s", ns as f64 / 1e9));
    }
    let path = scratch.with_file_name(format!("trace-{tag}.jsonl"));
    match tracer.write_jsonl(&path) {
        Ok(()) => report
            .notes
            .push(format!("spans written to {}", path.display())),
        Err(e) => report.notes.push(format!("span dump failed: {e}")),
    }
}
