//! The [`AlphaStore`]: sharded, concurrent, content-addressed storage of
//! alpha-equivalence classes over a hash-consed canon DAG.
//!
//! ## Concurrency model
//!
//! The store is lock-striped: the term's alpha-hash selects one of N
//! shards (N a power of two, fixed at construction), and each shard is an
//! independent `RwLock`-protected map from hash to classes. Ingesting
//! threads therefore contend only when their terms land on the same
//! stripe. All expensive work — hashing the term, canonicalizing it —
//! happens *outside* the lock; the critical section is a bucket probe plus
//! a merge confirmation that is **O(1)** for entries already interned into
//! the shared canon DAG (a ref compare) and a linear
//! canonical-form walk only at the intern frontier.
//!
//! Canonical forms themselves live in one store-wide `CanonTable`
//! (`crate::dag`):
//! classes hold a [`CanonRef`] root instead of owning an arena, so
//! identical structure — across classes, across subterm entries, across
//! whole alpha-duplicated corpora — is resident exactly once. See
//! [`AlphaStore::canon_dag_stats`] for the sharing it buys.
//!
//! ## Exactness
//!
//! Content-addressed stores are usually probabilistic: equal address ⇒
//! assumed equal content. This store is exact. A hash match only nominates
//! a candidate class; the merge happens after canonical-form identity is
//! confirmed — by hash-consed ref equality (interned side) or a structural
//! walk (`dag::eq_frontier`) at the frontier, both exact.
//! Colliding-but-inequivalent terms coexist in the same bucket as distinct
//! classes, and the collision is counted in
//! [`StoreStats::hash_collisions`].

use crate::canon::rebuild_named;
use crate::dag::{eq_frontier, extract_canon, extract_one, CanonTable, TableView};
use crate::granularity::{Granularity, StoreBuilder};
use crate::obs::StoreObs;
use crate::persist::format::RawRecord;
use crate::persist::snapshot::SnapshotHeader;
use crate::persist::vfs::Vfs;
use crate::persist::wal::{WalEntry, WalHeader};
use crate::persist::{Durable, PersistError, SNAPSHOT_FILE};
use crate::prepare::{PreparedCanon, PreparedTerm, Preparer, SubEntry};
use crate::stats::{CanonDagStats, StatCounters, StoreStats};
use alpha_hash::combine::{mix64, HashScheme, HashWord};
use lambda_lang::arena::{ExprArena, NodeId};
use lambda_lang::canon::{CanonNode, CanonRef};
use lambda_lang::debruijn::db_print;
use std::collections::HashMap;
use std::fmt;
use std::path::Path;
use std::sync::atomic::{AtomicU8, Ordering};
use std::sync::{Arc, Mutex, RwLock};
use std::time::Duration;

/// Shared `Debug` shape for the two handle types: `c3.17` = shard 3,
/// index 17.
macro_rules! fmt_id {
    ($prefix:literal) => {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            write!(f, concat!($prefix, "{}.{}"), self.shard, self.index)
        }
    };
}

/// Handle to an equivalence class inside one [`AlphaStore`].
///
/// Handles are only meaningful relative to the store that issued them;
/// they are stable for the lifetime of the store (classes are never
/// removed or renumbered).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ClassId {
    pub(crate) shard: u16,
    pub(crate) index: u32,
}

impl ClassId {
    /// Packs the handle into a single word (shard in the high bits), for
    /// use as a compact foreign key.
    pub fn to_bits(self) -> u64 {
        (u64::from(self.shard) << 32) | u64::from(self.index)
    }

    /// Inverse of [`ClassId::to_bits`].
    pub fn from_bits(bits: u64) -> Self {
        ClassId {
            shard: (bits >> 32) as u16,
            index: bits as u32,
        }
    }
}

impl fmt::Debug for ClassId {
    fmt_id!("c");
}

/// Handle to one ingested term inside one [`AlphaStore`].
///
/// Every successful [`AlphaStore::insert`] issues a fresh `TermId`, even
/// when the term merges into an existing class; [`AlphaStore::class_of`]
/// maps it back to its class.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct TermId {
    pub(crate) shard: u16,
    pub(crate) index: u32,
}

impl TermId {
    /// Packs the handle into a single word (shard in the high bits), for
    /// use as a compact foreign key — the form WAL delta records and the
    /// wire protocol carry.
    pub fn to_bits(self) -> u64 {
        (u64::from(self.shard) << 32) | u64::from(self.index)
    }

    /// Inverse of [`TermId::to_bits`]. Only meaningful for bits produced
    /// by [`TermId::to_bits`] against the same store; the fallible update
    /// paths range-check the result before trusting it.
    pub fn from_bits(bits: u64) -> Self {
        TermId {
            shard: (bits >> 32) as u16,
            index: bits as u32,
        }
    }
}

impl fmt::Debug for TermId {
    fmt_id!("t");
}

/// What one insert did to the subexpression index. All-zero in
/// [`Granularity::Roots`] mode, where no subexpressions are indexed.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SubexprSummary {
    /// Proper subexpression occurrences indexed by this insert (the root
    /// itself is accounted by the term's own class, not here).
    pub indexed: u64,
    /// Of those, how many merged into an already-existing class (merge
    /// confirmed by canonical-form identity, as always). Duplicate
    /// occurrences beyond the first within one term count here too.
    pub merged: u64,
    /// Proper subexpression occurrences skipped by the granularity's
    /// `min_nodes` floor.
    pub skipped_min_nodes: u64,
}

/// What one insert did.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct InsertOutcome {
    /// Handle for the ingested term.
    pub term: TermId,
    /// The class the term belongs to.
    pub class: ClassId,
    /// `true` iff this insert created the class (first member).
    pub fresh: bool,
    /// What the insert did to the subexpression index.
    pub subs: SubexprSummary,
}

/// Operational health of a store's durability, reported by
/// [`AlphaStore::health`] and driven by the WAL/snapshot outcomes the
/// store observes. In-memory stores are always [`Health::Healthy`].
///
/// The machine is `Healthy → Degraded → ReadOnly`, with two healing
/// edges back to `Healthy`: a WAL append that succeeds after retries
/// (the transient fault passed), and a successful
/// [`checkpoint`](AlphaStore::checkpoint) (which re-establishes the
/// clean `(snapshot, empty WAL)` state from scratch — the only way out
/// of `ReadOnly`). See `docs/RELIABILITY.md` for the full transition
/// diagram.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Health {
    /// Every persistence operation is succeeding.
    Healthy,
    /// A recent persistence operation failed but the store still accepts
    /// writes: a WAL append is mid-retry, or a snapshot/checkpoint failed
    /// while the WAL kept working. The payload is a human-readable
    /// description of the last failure.
    Degraded(String),
    /// WAL writes failed persistently (every retry exhausted, or a WAL
    /// reset failed and left the log unusable): ingest is refused with
    /// [`StoreError::Degraded`] so in-memory state cannot silently
    /// diverge from what recovery could rebuild, while `lookup` /
    /// `contains` / `contains_batch` keep serving the state already
    /// ingested. A successful [`checkpoint`](AlphaStore::checkpoint)
    /// heals the store.
    ReadOnly(String),
}

impl Health {
    /// The state as a stable machine-readable code — the same encoding
    /// the `alpha_store_health` gauge uses and the one network front
    /// ends put on the wire: 0 = healthy, 1 = degraded, 2 = read-only.
    pub fn code(&self) -> u8 {
        match self {
            Health::Healthy => HEALTH_HEALTHY,
            Health::Degraded(_) => HEALTH_DEGRADED,
            Health::ReadOnly(_) => HEALTH_READ_ONLY,
        }
    }

    /// The failure description carried by the degraded states (empty for
    /// [`Health::Healthy`]).
    pub fn reason(&self) -> &str {
        match self {
            Health::Healthy => "",
            Health::Degraded(r) | Health::ReadOnly(r) => r,
        }
    }
}

/// What recovery did when a durable store was [opened](AlphaStore::open),
/// reported by [`AlphaStore::recovery_info`]. Lets operators (and the
/// `alphahashd` daemon's shutdown test) distinguish a **clean** reopen —
/// the snapshot already held every WAL record, nothing was replayed —
/// from a crash recovery that had to replay a WAL tail.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct RecoveryInfo {
    /// WAL records replayed through the ingest path during the open.
    pub replayed_records: u64,
    /// `true` when the open was clean: intact snapshot, intact same-epoch
    /// WAL fully absorbed by it, so the O(store) recovery checkpoint was
    /// skipped and the existing WAL simply continues.
    pub clean: bool,
}

/// What a fallible ingest ([`AlphaStore::try_insert`] /
/// [`AlphaStore::try_insert_batch`]) can fail with. The infallible
/// [`AlphaStore::insert`] / [`AlphaStore::insert_batch`] panic on these
/// instead (the pre-health-machine contract).
#[derive(Debug)]
pub enum StoreError {
    /// The store is in [`Health::ReadOnly`]: its WAL failed persistently
    /// and ingest is refused until a [`checkpoint`](AlphaStore::checkpoint)
    /// succeeds. Read paths keep working.
    Degraded {
        /// Why the store went read-only.
        reason: String,
    },
    /// The WAL write for **this** ingest failed after exhausting the
    /// retry policy; the store has just flipped to [`Health::ReadOnly`].
    /// Nothing from the failed chunk was applied to memory.
    Persist(PersistError),
    /// An [`AlphaStore::try_update`] rewrite was refused **before any
    /// state changed**: the term handle is unknown, the path does not
    /// resolve inside the term, or the replacement's free variables could
    /// capture a binder of the host term (the hazard
    /// `alpha_hash::incremental` documents — the store boundary rejects
    /// it rather than silently mis-hashing).
    InvalidRewrite {
        /// Why the rewrite was refused.
        reason: String,
    },
}

impl fmt::Display for StoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StoreError::Degraded { reason } => {
                write!(f, "store is read-only (degraded): {reason}")
            }
            StoreError::Persist(e) => write!(f, "store ingest failed to persist: {e}"),
            StoreError::InvalidRewrite { reason } => {
                write!(f, "invalid rewrite: {reason}")
            }
        }
    }
}

impl std::error::Error for StoreError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            StoreError::Degraded { .. } | StoreError::InvalidRewrite { .. } => None,
            StoreError::Persist(e) => Some(e),
        }
    }
}

impl From<PersistError> for StoreError {
    fn from(e: PersistError) -> Self {
        StoreError::Persist(e)
    }
}

/// Retry policy for WAL appends: `retries` bounded attempts after the
/// first failure, exponential backoff from `backoff`, sleeping through
/// the injectable `sleeper` (see [`StoreBuilder::persist_sleeper`]).
#[derive(Clone)]
pub(crate) struct RetryPolicy {
    pub(crate) retries: u32,
    pub(crate) backoff: Duration,
    pub(crate) sleeper: Arc<dyn Fn(Duration) + Send + Sync>,
}

impl fmt::Debug for RetryPolicy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("RetryPolicy")
            .field("retries", &self.retries)
            .field("backoff", &self.backoff)
            .finish_non_exhaustive()
    }
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            retries: 2,
            backoff: Duration::from_millis(5),
            sleeper: Arc::new(std::thread::sleep),
        }
    }
}

/// Auto-checkpoint watermarks (both off by default): after an ingest
/// leaves the WAL at or past either one, the store checkpoints itself.
#[derive(Clone, Copy, Debug, Default)]
pub(crate) struct AutoCheckpoint {
    pub(crate) bytes: Option<u64>,
    pub(crate) records: Option<u64>,
}

impl AutoCheckpoint {
    fn armed(&self) -> bool {
        self.bytes.is_some() || self.records.is_some()
    }

    fn reached(&self, bytes: u64, records: u64) -> bool {
        self.bytes.is_some_and(|w| bytes >= w) || self.records.is_some_and(|w| records >= w)
    }
}

/// Health gauge/state encoding shared with `alpha_store_health`.
const HEALTH_HEALTHY: u8 = 0;
const HEALTH_DEGRADED: u8 = 1;
const HEALTH_READ_ONLY: u8 = 2;

/// The store-internal half of the health machine: a lock-free state tag
/// read on every durable ingest, plus the last failure description. The
/// reason mutex is a **leaf lock** (nothing is acquired while holding
/// it) and is only touched on transitions and `health()` calls — never
/// on the healthy hot path, which reads one relaxed atomic.
#[derive(Debug)]
struct HealthState {
    state: AtomicU8,
    reason: Mutex<String>,
}

impl Default for HealthState {
    fn default() -> Self {
        HealthState {
            state: AtomicU8::new(HEALTH_HEALTHY),
            reason: Mutex::new(String::new()),
        }
    }
}

/// One stored equivalence class: the root of its canonical form in the
/// shared canon DAG, plus bookkeeping.
pub(crate) struct StoredClass<H> {
    pub(crate) hash: H,
    /// Root of the class's canonical de Bruijn form in the canon DAG.
    pub(crate) canon: CanonRef,
    /// Tree node count of the canonical form (the size every member
    /// shares, alpha-equivalent terms being equisized). The *resident*
    /// footprint is smaller: DAG nodes are shared across classes.
    pub(crate) node_count: u64,
    /// Whole-term inserts into this class. Zero for classes that only ever
    /// appeared as subexpressions of ingested terms.
    pub(crate) members: u64,
    /// Total appearances: whole-term inserts plus every indexed
    /// subexpression occurrence. Equals `members` in `Roots` mode.
    pub(crate) occurrences: u64,
}

/// One lock stripe: hash-addressed classes plus the shard-local term log.
pub(crate) struct Shard<H> {
    /// Hash → indexes into `classes`. Almost always a single entry; more
    /// only under a true hash collision.
    buckets: HashMap<H, Vec<u32>>,
    pub(crate) classes: Vec<StoredClass<H>>,
    /// Term-local index → [`ClassId::to_bits`] of the term's class. A
    /// term starts in the shard its hash routes to, but a later
    /// [`AlphaStore::update`] can repoint it at a class in **any** shard,
    /// hence full bits rather than a same-shard class index.
    pub(crate) terms: Vec<u64>,
    /// Term-local index → `(ClassId::to_bits, multiplicity)` pairs for
    /// the term's indexed subexpression classes (including the term's own
    /// class), sorted by bits. The multiplicity is how many occurrences
    /// of that class this term contributes — what an update must subtract
    /// to un-index the old form exactly. Always empty boxes in `Roots`
    /// mode, where the root class is recovered from `terms` instead.
    pub(crate) term_subs: Vec<Box<[(u64, u32)]>>,
}

impl<H: HashWord> Shard<H> {
    pub(crate) fn empty() -> Self {
        Shard {
            buckets: HashMap::new(),
            classes: Vec::new(),
            terms: Vec::new(),
            term_subs: Vec::new(),
        }
    }

    /// Rebuilds a shard from snapshot parts. Buckets are reconstructed
    /// from the class hashes, pushing in class-index order so bucket scan
    /// order matches creation order (which keeps collision accounting
    /// deterministic across a save/load cycle).
    pub(crate) fn from_parts(
        classes: Vec<StoredClass<H>>,
        terms: Vec<u64>,
        term_subs: Vec<Box<[(u64, u32)]>>,
    ) -> Self {
        let mut buckets: HashMap<H, Vec<u32>> = HashMap::new();
        for (i, class) in classes.iter().enumerate() {
            buckets.entry(class.hash).or_default().push(i as u32);
        }
        Shard {
            buckets,
            classes,
            terms,
            term_subs,
        }
    }

    /// Inserts one prepared entry — a whole term (`is_root`) or an indexed
    /// subexpression — returning (class index, fresh, collided).
    /// `collided` is true whenever this insert's hash matched at least one
    /// class that turned out not to be alpha-equivalent — on the merge
    /// path as well as on class creation — matching the definition of
    /// [`StoreStats::hash_collisions`].
    ///
    /// Confirmation is an O(1) ref compare when the entry is interned; a
    /// structural DAG walk (through `view`) at the frontier. A frontier
    /// entry that creates a class is interned here — `view` is released
    /// first, since interning write-locks table stripes the view may hold
    /// read guards on.
    pub(crate) fn insert_entry(
        &mut self,
        table: &CanonTable,
        view: &mut TableView<'_>,
        entry: SubEntry<H>,
        is_root: bool,
        obs: &StoreObs,
    ) -> (u32, bool, bool) {
        let bucket = self.buckets.entry(entry.hash).or_default();
        let mut mismatched = false;
        for &ci in bucket.iter() {
            let class = &self.classes[ci as usize];
            let equal = class.node_count == entry.node_count
                && match &entry.canon {
                    PreparedCanon::Interned(r) => {
                        let eq = *r == class.canon;
                        if eq {
                            obs.confirm_ref();
                        }
                        eq
                    }
                    PreparedCanon::Frontier { canon, canon_root } => {
                        let mut steps = 0u64;
                        let eq = eq_frontier(view, class.canon, canon, *canon_root, &mut steps);
                        if eq {
                            obs.confirm_walk(steps);
                        }
                        eq
                    }
                };
            if equal {
                let class = &mut self.classes[ci as usize];
                class.occurrences += u64::from(entry.multiplicity);
                if is_root {
                    class.members += 1;
                }
                return (ci, false, mismatched);
            }
            mismatched = true;
        }
        let collided = !bucket.is_empty();
        let canon = match entry.canon {
            PreparedCanon::Interned(r) => r,
            PreparedCanon::Frontier { canon, canon_root } => {
                view.release();
                table.intern_arena(&canon, canon_root)
            }
        };
        let ci = u32::try_from(self.classes.len()).expect("shard class overflow");
        self.buckets
            .get_mut(&entry.hash)
            .expect("bucket just touched")
            .push(ci);
        self.classes.push(StoredClass {
            hash: entry.hash,
            canon,
            node_count: entry.node_count,
            members: u64::from(is_root),
            occurrences: u64::from(entry.multiplicity),
        });
        (ci, true, collided)
    }

    /// Read-only probe: the class whose canonical form equals the prepared
    /// frontier term, if any.
    pub(crate) fn find(&self, view: &mut TableView<'_>, p: &Prepared<H>) -> Option<u32> {
        let PreparedCanon::Frontier { canon, canon_root } = &p.entry.canon else {
            unreachable!("probes prepare frontier forms");
        };
        self.buckets
            .get(&p.entry.hash)?
            .iter()
            .copied()
            .find(|&ci| {
                let class = &self.classes[ci as usize];
                class.node_count == p.entry.node_count
                    && eq_frontier(view, class.canon, canon, *canon_root, &mut 0)
            })
    }
}

/// The per-term work done outside any lock: hash, canonical form, shard.
pub(crate) struct Prepared<H> {
    pub(crate) entry: SubEntry<H>,
    pub(crate) shard: usize,
}

/// A sharded, concurrent, content-addressed store of alpha-equivalence
/// classes. See the [module docs](self) for the design.
///
/// The store is `Sync`: share it by reference (or `Arc`) and ingest from
/// many threads concurrently.
///
/// ```
/// use alpha_store::AlphaStore;
/// use lambda_lang::{parse, ExprArena};
///
/// let store: AlphaStore<u64> = AlphaStore::default();
/// let mut arena = ExprArena::new();
/// let roots = [
///     parse(&mut arena, r"\x. x + 1").unwrap(),
///     parse(&mut arena, r"\y. y + 1").unwrap(),
///     parse(&mut arena, r"\z. z + 2").unwrap(),
/// ];
/// std::thread::scope(|scope| {
///     for chunk in roots.chunks(2) {
///         scope.spawn(|| store.insert_batch(&arena, chunk));
///     }
/// });
/// assert_eq!(store.num_terms(), 3);
/// assert_eq!(store.num_classes(), 2); // the two x+1 lambdas merged
/// assert!(store.stats().is_exact());
/// ```
pub struct AlphaStore<H: HashWord = u64> {
    pub(crate) scheme: HashScheme<H>,
    pub(crate) shards: Box<[RwLock<Shard<H>>]>,
    mask: usize,
    pub(crate) counters: StatCounters,
    pub(crate) granularity: Granularity,
    /// The shared, hash-consed storage of every canonical form the store
    /// holds. Lock order: store locks (maintenance → WAL → shards) are
    /// always taken before table locks, and a thread never holds a table
    /// read guard while acquiring a store lock.
    pub(crate) table: CanonTable,
    /// Batch ingest drains in chunks of at most this many prepared
    /// entries, bounding both the prepared-state high-water mark and the
    /// WAL group-commit buffer. See [`StoreBuilder::chunk_entries`].
    chunk_entries: usize,
    /// `Some` for durable stores: the open WAL plus its directory.
    pub(crate) durable: Option<Durable>,
    /// WAL append retry policy (durable stores; see
    /// [`StoreBuilder::persist_retries`]).
    retry: RetryPolicy,
    /// Auto-checkpoint watermarks (durable stores; off by default).
    auto_ckpt: AutoCheckpoint,
    /// The `Healthy → Degraded → ReadOnly` machine. Its state tag is a
    /// relaxed atomic read on the durable ingest path; its reason mutex
    /// is a leaf lock touched only on transitions.
    health: HealthState,
    /// Ingest holds this shared; [`AlphaStore::snapshot`] and
    /// [`AlphaStore::compact`] hold it exclusive, so a snapshot's
    /// `(WAL record count, shard state)` cut is consistent — no insert is
    /// ever logged-but-unapplied or applied-but-unlogged at the moment the
    /// cut is taken. Lock order: `maintenance` → `updates` → WAL mutex →
    /// shard locks → canon-table locks.
    pub(crate) maintenance: RwLock<()>,
    /// Incremental-rewrite state ([`crate::update`]): a bounded cache of
    /// live spine hashers keyed by term, behind the mutex that serializes
    /// updates. Lock order: after `maintenance` (shared), before the WAL
    /// mutex and shard locks.
    pub(crate) updates: Mutex<crate::update::UpdateCache<H>>,
    /// The instrumentation seam (`crate::obs`): the store's metric
    /// registry and tracer. Obs recording never takes a store lock; inside critical sections only
    /// wait-free operations (atomic adds, monotonic clock reads) happen.
    pub(crate) obs: StoreObs,
    /// What recovery did, for stores built by the durable open paths
    /// (`None` for in-memory stores and fresh creations).
    pub(crate) recovery: Option<RecoveryInfo>,
}

impl<H: HashWord> Default for AlphaStore<H> {
    /// A store with the default [`HashScheme`] and [default shard
    /// count](AlphaStore::DEFAULT_SHARDS).
    fn default() -> Self {
        AlphaStore::new(HashScheme::default())
    }
}

impl<H: HashWord> AlphaStore<H> {
    /// Floor of the default shard count: enough stripes that 8–16 ingest
    /// threads rarely contend, cheap enough to be negligible for
    /// single-threaded use. [`AlphaStore::default_shards`] scales above
    /// this on wider machines.
    pub const DEFAULT_SHARDS: usize = 16;

    /// The shard count [`AlphaStore::new`] and [`StoreBuilder::new`] use:
    /// the machine's `available_parallelism` rounded up to a power of
    /// two, floored at [`AlphaStore::DEFAULT_SHARDS`] (so boxes up to 16
    /// cores keep the historical layout) and capped at the 16-bit
    /// [`ClassId`] shard-index limit. Durable stores persist and validate
    /// whatever count they were built with, so a store created on a wide
    /// machine reopens elsewhere by passing that count to
    /// [`StoreBuilder::shards`] explicitly.
    pub fn default_shards() -> usize {
        std::thread::available_parallelism()
            .map_or(Self::DEFAULT_SHARDS, |n| n.get().next_power_of_two())
            .clamp(Self::DEFAULT_SHARDS, 1 << 16)
    }

    /// The configuring front door: a [`StoreBuilder`] with the default
    /// scheme, shard count and [`Granularity::Roots`].
    pub fn builder() -> StoreBuilder<H> {
        StoreBuilder::new()
    }

    /// A [`Granularity::Roots`] store hashing with `scheme`, with the
    /// [default shard count](AlphaStore::default_shards). Thin shim over
    /// [`AlphaStore::builder`], kept so pre-builder call sites stay
    /// source-compatible.
    pub fn new(scheme: HashScheme<H>) -> Self {
        Self::with_shards(scheme, Self::default_shards())
    }

    /// A [`Granularity::Roots`] store with an explicit shard count (shim
    /// over [`AlphaStore::builder`], like [`AlphaStore::new`]). The count
    /// is rounded up to a power of two and clamped to `1..=65536`.
    pub fn with_shards(scheme: HashScheme<H>, shards: usize) -> Self {
        Self::with_config(
            scheme,
            shards,
            Granularity::Roots,
            Self::DEFAULT_CHUNK_ENTRIES,
            crate::dag::default_table_shards(),
        )
    }

    /// Default for [`StoreBuilder::chunk_entries`]: big enough that chunk
    /// overhead (extra lock rounds, WAL flushes) is negligible, small
    /// enough to bound batch ingest's peak memory to a few thousand
    /// canonical forms whatever the batch size.
    pub const DEFAULT_CHUNK_ENTRIES: usize = 8192;

    /// The actual constructor, reached via [`StoreBuilder::build`].
    pub(crate) fn with_config(
        scheme: HashScheme<H>,
        shards: usize,
        granularity: Granularity,
        chunk_entries: usize,
        table_shards: usize,
    ) -> Self {
        let count = shards.clamp(1, 1 << 16).next_power_of_two();
        let shards: Box<[RwLock<Shard<H>>]> =
            (0..count).map(|_| RwLock::new(Shard::empty())).collect();
        AlphaStore {
            scheme,
            shards,
            mask: count - 1,
            counters: StatCounters::default(),
            granularity,
            table: CanonTable::with_shards(table_shards),
            chunk_entries: chunk_entries.max(1),
            durable: None,
            retry: RetryPolicy::default(),
            auto_ckpt: AutoCheckpoint::default(),
            health: HealthState::default(),
            maintenance: RwLock::new(()),
            updates: Mutex::new(crate::update::UpdateCache::default()),
            obs: StoreObs::new(),
            recovery: None,
        }
    }

    /// Rebuilds a store from loaded snapshot state (the recovery path).
    /// `table` is the canon table the snapshot's classes were interned
    /// into during decode.
    pub(crate) fn from_loaded(
        scheme: HashScheme<H>,
        shards: Vec<Shard<H>>,
        granularity: Granularity,
        stats: &StoreStats,
        chunk_entries: usize,
        table: CanonTable,
    ) -> Result<Self, PersistError> {
        let count = shards.len();
        if !(1..=1 << 16).contains(&count) || !count.is_power_of_two() {
            return Err(PersistError::Corrupt {
                context: format!("shard count {count} is not a power of two in 1..=65536"),
            });
        }
        let counters = StatCounters::default();
        counters.restore(stats);
        Ok(AlphaStore {
            scheme,
            shards: shards.into_iter().map(RwLock::new).collect(),
            mask: count - 1,
            counters,
            granularity,
            table,
            chunk_entries: chunk_entries.max(1),
            durable: None,
            retry: RetryPolicy::default(),
            auto_ckpt: AutoCheckpoint::default(),
            health: HealthState::default(),
            maintenance: RwLock::new(()),
            updates: Mutex::new(crate::update::UpdateCache::default()),
            obs: StoreObs::new(),
            recovery: None,
        })
    }

    pub(crate) fn attach_durable(&mut self, mut durable: Durable) {
        // Hand the WAL its slice of this store's instruments before it
        // can see any traffic.
        durable.wal.get_mut().expect("wal lock poisoned").obs = self.obs.wal_obs();
        self.durable = Some(durable);
    }

    /// Installs the builder's reliability knobs (called by the durable
    /// open paths before any ingest can run).
    pub(crate) fn set_reliability(&mut self, retry: RetryPolicy, auto_ckpt: AutoCheckpoint) {
        self.retry = retry;
        self.auto_ckpt = auto_ckpt;
    }

    /// Recovery phases are timed in `persist::open_store_locked`, before
    /// this store exists; they arrive here as raw durations.
    pub(crate) fn record_recovery(&self, snapshot_load_ns: u64, replay_ns: u64) {
        self.obs.rec_recovery(snapshot_load_ns, replay_ns);
    }

    /// The hash scheme terms are addressed with.
    pub fn scheme(&self) -> &HashScheme<H> {
        &self.scheme
    }

    /// The granularity mode fixed at build time.
    pub fn granularity(&self) -> Granularity {
        self.granularity
    }

    /// Number of lock stripes.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// Number of lock stripes in the shared canon table — a per-process
    /// concurrency knob ([`StoreBuilder::table_shards`]), not part of the
    /// persisted configuration.
    pub fn table_shard_count(&self) -> usize {
        self.table.shard_count()
    }

    /// Routes a hash to its shard. Re-mixed so that shard choice is not
    /// correlated with the low bits used by the buckets' `HashMap`.
    pub(crate) fn shard_of(&self, hash: H) -> usize {
        let (lo, hi) = hash.to_lanes();
        (mix64(lo ^ hi.rotate_left(32)) as usize) & self.mask
    }

    /// Hashing and canonicalization, done outside any lock: one fused
    /// post-order pass per term, with all scratch state (name-hash cache,
    /// traversal stacks) living in `preparer` so batches reuse it across
    /// terms. Produces a frontier form: nothing is interned unless the
    /// insert creates a class.
    pub(crate) fn prepare(
        &self,
        preparer: &mut Preparer<'_, H>,
        arena: &ExprArena,
        root: NodeId,
    ) -> Prepared<H> {
        let (hash, canon, canon_root) = preparer.hash_and_canon(arena, root);
        Prepared {
            shard: self.shard_of(hash),
            entry: SubEntry {
                hash,
                node_count: canon.len() as u64,
                multiplicity: 1,
                canon: PreparedCanon::Frontier { canon, canon_root },
            },
        }
    }

    /// Ingests one term: routes it by content address, confirms any
    /// candidate merge by canonical-form identity, and either joins an
    /// existing class or creates a new one. Under
    /// [`Granularity::Subexpressions`], additionally indexes every
    /// subexpression clearing the `min_nodes` floor, all hashed in the
    /// same fused pass and interned into the shared canon DAG.
    ///
    /// ```
    /// use alpha_store::AlphaStore;
    /// use lambda_lang::{parse, ExprArena};
    ///
    /// let store: AlphaStore<u64> = AlphaStore::default();
    /// let mut arena = ExprArena::new();
    /// let t = parse(&mut arena, "let w = v+7 in w*w").unwrap();
    /// let outcome = store.insert(&arena, t);
    /// assert!(outcome.fresh);
    /// assert_eq!(store.class_of(outcome.term), outcome.class);
    /// ```
    ///
    /// # Panics
    ///
    /// On a durable store whose WAL write fails beyond the retry policy
    /// (durability would silently diverge otherwise). Use
    /// [`AlphaStore::try_insert`] to handle that as an error instead.
    pub fn insert(&self, arena: &ExprArena, root: NodeId) -> InsertOutcome {
        self.try_insert(arena, root)
            .unwrap_or_else(|e| panic!("WAL append failed; cannot continue durably: {e}"))
    }

    /// [`AlphaStore::insert`], but a durable-store persistence failure
    /// comes back as a typed [`StoreError`] instead of a panic: the term
    /// was **not** applied (memory and WAL stay in agreement), and the
    /// store's [`health`](AlphaStore::health) says what to do next. For
    /// in-memory stores this never errors.
    pub fn try_insert(&self, arena: &ExprArena, root: NodeId) -> Result<InsertOutcome, StoreError> {
        match self.granularity {
            Granularity::Roots => {
                let mut preparer = Preparer::new(arena, &self.scheme);
                let t = self.obs.tick();
                let prepared = self.prepare(&mut preparer, arena, root);
                self.obs.rec_prepare(t, prepared.entry.node_count);
                let (nodes, misses) = preparer.take_hash_counters();
                self.obs.add_hash_counters(nodes, misses);
                Ok(self
                    .ingest_prepared_roots(vec![prepared])?
                    .pop()
                    .expect("one term ingested"))
            }
            Granularity::Subexpressions { min_nodes } => {
                let mut preparer = Preparer::new(arena, &self.scheme);
                let t = self.obs.tick();
                let pt = preparer.prepare_term(arena, root, min_nodes, &self.table);
                self.obs.rec_prepare(t, pt.root.node_count);
                let (nodes, misses) = preparer.take_hash_counters();
                self.obs.add_hash_counters(nodes, misses);
                Ok(self
                    .ingest_prepared_terms(vec![pt])?
                    .pop()
                    .expect("one term ingested"))
            }
        }
    }

    /// Ingests a batch of terms, draining in chunks of at most
    /// [`chunk_entries`](StoreBuilder::chunk_entries) prepared entries so
    /// peak memory is bounded whatever the batch size; within a chunk,
    /// each shard lock is taken at most once (at most twice under
    /// [`Granularity::Subexpressions`]: one sweep for the chunk's
    /// subexpression entries, one for the roots).
    ///
    /// Outcomes are returned in input order. Equivalent to calling
    /// [`AlphaStore::insert`] per term, but with per-term lock traffic
    /// amortised and one shared [`Preparer`] across the batch, so hashing
    /// scratch state and the name-hash cache are never rebuilt per term —
    /// the natural entry point for high-throughput ingest. On a durable
    /// store, each chunk is one group-committed WAL append.
    ///
    /// # Panics
    ///
    /// On a durable store whose WAL write fails beyond the retry policy,
    /// like [`AlphaStore::insert`]. Use
    /// [`AlphaStore::try_insert_batch`] to handle that as an error.
    pub fn insert_batch(&self, arena: &ExprArena, roots: &[NodeId]) -> Vec<InsertOutcome> {
        self.try_insert_batch(arena, roots)
            .unwrap_or_else(|e| panic!("WAL append failed; cannot continue durably: {e}"))
    }

    /// [`AlphaStore::insert_batch`], but a durable-store persistence
    /// failure comes back as a typed [`StoreError`]. Chunks are applied
    /// in order and each chunk is atomic with respect to failure: on
    /// `Err`, every chunk before the failing one was fully ingested
    /// (memory and WAL agree) and the failing chunk plus everything
    /// after it was not applied at all.
    pub fn try_insert_batch(
        &self,
        arena: &ExprArena,
        roots: &[NodeId],
    ) -> Result<Vec<InsertOutcome>, StoreError> {
        match self.granularity {
            Granularity::Roots => self.insert_batch_roots(arena, roots),
            Granularity::Subexpressions { min_nodes } => {
                self.insert_batch_subs(arena, roots, min_nodes)
            }
        }
    }

    fn insert_batch_roots(
        &self,
        arena: &ExprArena,
        roots: &[NodeId],
    ) -> Result<Vec<InsertOutcome>, StoreError> {
        let mut preparer = Preparer::new(arena, &self.scheme);
        let mut outcomes = Vec::with_capacity(roots.len());
        // One prepared entry per root: chunks are `chunk_entries` terms.
        for chunk in roots.chunks(self.chunk_entries) {
            // All hashing/canonicalization first, outside any lock…
            let prepared: Vec<Prepared<H>> = chunk
                .iter()
                .map(|&r| {
                    let t = self.obs.tick();
                    let p = self.prepare(&mut preparer, arena, r);
                    self.obs.rec_prepare(t, p.entry.node_count);
                    p
                })
                .collect();
            let (nodes, misses) = preparer.take_hash_counters();
            self.obs.add_hash_counters(nodes, misses);
            // …then log and drain shard by shard.
            outcomes.extend(self.ingest_prepared_roots(prepared)?);
        }
        Ok(outcomes)
    }

    /// The root-granularity apply path shared by `insert` (a one-element
    /// batch) and each `insert_batch` chunk: group-commit the chunk to the
    /// WAL (durable stores), then drain shard by shard. A one-element
    /// chunk skips the by-shard regrouping and goes straight to its shard
    /// lock, so per-term `insert` keeps the old direct path's cost.
    fn ingest_prepared_roots(
        &self,
        mut prepared: Vec<Prepared<H>>,
    ) -> Result<Vec<InsertOutcome>, StoreError> {
        let outcomes = {
            let _ingest = self.maintenance.read().expect("maintenance lock poisoned");
            self.check_writable()?;
            self.wal_log_roots(&prepared)?;
            if prepared.len() == 1 {
                let p = prepared.pop().expect("one prepared term");
                let t_apply = self.obs.tick();
                let outcome = {
                    let t_lock = self.obs.tick();
                    let mut shard = self.shards[p.shard].write().expect("shard lock poisoned");
                    self.obs.rec_shard_lock_wait(t_lock);
                    let mut view = TableView::new(&self.table);
                    self.finish_insert(
                        &mut shard,
                        &mut view,
                        p,
                        SubexprSummary::default(),
                        Vec::new(),
                    )
                };
                self.obs.rec_apply(t_apply, 1);
                vec![outcome]
            } else {
                self.drain_roots(prepared, |_| (SubexprSummary::default(), Vec::new()))
            }
        };
        // The ingest guard is released: housekeeping takes the exclusive
        // maintenance lock if a watermark tripped.
        self.maybe_auto_checkpoint();
        Ok(outcomes)
    }

    /// Drains prepared roots grouped by shard, one write lock per shard,
    /// finishing each insert in input order. `extras` supplies the i-th
    /// term's subexpression summary and class-bits list — trivially empty
    /// in `Roots` mode. The shared drain protocol for both granularities.
    fn drain_roots(
        &self,
        prepared: Vec<Prepared<H>>,
        mut extras: impl FnMut(usize) -> (SubexprSummary, Vec<(u64, u32)>),
    ) -> Vec<InsertOutcome> {
        let count = prepared.len();
        let mut by_shard: HashMap<usize, Vec<(usize, Prepared<H>)>> = HashMap::new();
        for (i, p) in prepared.into_iter().enumerate() {
            by_shard.entry(p.shard).or_default().push((i, p));
        }
        let mut outcomes: Vec<Option<InsertOutcome>> = vec![None; count];
        for (shard_index, items) in by_shard {
            let n_items = items.len() as u64;
            let t_apply = self.obs.tick();
            {
                let t_lock = self.obs.tick();
                let mut shard = self.shards[shard_index]
                    .write()
                    .expect("shard lock poisoned");
                self.obs.rec_shard_lock_wait(t_lock);
                // One view per critical section: table guards are only ever
                // taken *after* the shard lock (the documented lock order).
                let mut view = TableView::new(&self.table);
                for (i, p) in items {
                    let (summary, sub_bits) = extras(i);
                    outcomes[i] =
                        Some(self.finish_insert(&mut shard, &mut view, p, summary, sub_bits));
                }
            }
            self.obs.rec_apply(t_apply, n_items);
        }
        outcomes
            .into_iter()
            .map(|o| o.expect("every term processed"))
            .collect()
    }

    /// Subexpression-granularity batch ingest: every term is prepared by
    /// the fused batched pass (all subexpression hashes from one walk,
    /// canonical forms interned into the canon DAG with intra-term
    /// duplicates collapsed), then handed to
    /// [`AlphaStore::ingest_prepared_terms`] — in chunks of at most
    /// `chunk_entries` prepared entries (a term's root plus its distinct
    /// indexed subexpressions), so peak memory is Θ(chunk budget) instead
    /// of Σ subterm sizes over the whole batch.
    fn insert_batch_subs(
        &self,
        arena: &ExprArena,
        roots: &[NodeId],
        min_nodes: usize,
    ) -> Result<Vec<InsertOutcome>, StoreError> {
        let mut preparer = Preparer::new(arena, &self.scheme);
        let mut outcomes = Vec::with_capacity(roots.len());
        let mut pending: Vec<PreparedTerm<H>> = Vec::new();
        let mut pending_entries = 0usize;
        for &root in roots {
            let t = self.obs.tick();
            let pt = preparer.prepare_term(arena, root, min_nodes, &self.table);
            self.obs.rec_prepare(t, pt.root.node_count);
            pending_entries += 1 + pt.subs.len();
            pending.push(pt);
            if pending_entries >= self.chunk_entries {
                outcomes.extend(self.ingest_prepared_terms(std::mem::take(&mut pending))?);
                pending_entries = 0;
            }
        }
        if !pending.is_empty() {
            outcomes.extend(self.ingest_prepared_terms(pending)?);
        }
        let (nodes, misses) = preparer.take_hash_counters();
        self.obs.add_hash_counters(nodes, misses);
        Ok(outcomes)
    }

    /// The subexpression-granularity critical path, shared by `insert` (a
    /// one-element batch), each `insert_batch` chunk and WAL replay: the
    /// chunk is group-committed to the WAL (durable stores), then its
    /// subexpression entries are drained shard by shard, then the roots —
    /// each shard locked at most twice. Entries arrive pre-interned, so
    /// every confirmation inside the locks is an O(1) ref compare.
    pub(crate) fn ingest_prepared_terms(
        &self,
        terms: Vec<PreparedTerm<H>>,
    ) -> Result<Vec<InsertOutcome>, StoreError> {
        let outcomes = {
            let _ingest = self.maintenance.read().expect("maintenance lock poisoned");
            self.check_writable()?;
            self.wal_log_terms(&terms)?;
            self.apply_prepared_terms(terms)
        };
        self.maybe_auto_checkpoint();
        Ok(outcomes)
    }

    /// The lock-side second half of [`AlphaStore::ingest_prepared_terms`]
    /// (everything after the WAL tee).
    fn apply_prepared_terms(&self, terms: Vec<PreparedTerm<H>>) -> Vec<InsertOutcome> {
        let count = terms.len();
        let mut summaries: Vec<SubexprSummary> = Vec::with_capacity(count);
        let mut sub_bits: Vec<Vec<(u64, u32)>> = Vec::with_capacity(count);
        let mut roots_prepared: Vec<Prepared<H>> = Vec::with_capacity(count);
        let mut by_shard: HashMap<usize, Vec<(usize, SubEntry<H>)>> = HashMap::new();
        let mut total_skipped = 0u64;

        for (ti, pt) in terms.into_iter().enumerate() {
            summaries.push(SubexprSummary {
                skipped_min_nodes: pt.skipped,
                ..SubexprSummary::default()
            });
            total_skipped += pt.skipped;
            sub_bits.push(Vec::with_capacity(pt.subs.len() + 1));
            for entry in pt.subs {
                let shard = self.shard_of(entry.hash);
                by_shard.entry(shard).or_default().push((ti, entry));
            }
            let root_shard = self.shard_of(pt.root.hash);
            roots_prepared.push(Prepared {
                entry: pt.root,
                shard: root_shard,
            });
        }
        StatCounters::add(&self.counters.subterms_skipped_min_nodes, total_skipped);

        // Sweep 1: the batch's subexpression entries, one lock per shard.
        // Counter deltas accumulate locally and publish once at the end,
        // so no atomic traffic happens inside the critical sections. A
        // fresh entry with multiplicity m counts as 1 creation + (m-1)
        // merges: the collapsed duplicates merged into the class the first
        // occurrence created.
        let (mut n_indexed, mut n_created, mut n_merged, mut n_collided) = (0u64, 0u64, 0u64, 0u64);
        for (shard_index, entries) in by_shard {
            let n_entries = entries.len() as u64;
            let t_apply = self.obs.tick();
            let t_lock = self.obs.tick();
            let mut shard = self.shards[shard_index]
                .write()
                .expect("shard lock poisoned");
            self.obs.rec_shard_lock_wait(t_lock);
            let mut view = TableView::new(&self.table);
            let shard_u16 = u16::try_from(shard_index).expect("shard count fits u16");
            for (ti, entry) in entries {
                let mult = entry.multiplicity;
                let m = u64::from(mult);
                let (class_index, fresh, collided) =
                    shard.insert_entry(&self.table, &mut view, entry, false, &self.obs);
                n_indexed += m;
                summaries[ti].indexed += m;
                if fresh {
                    n_created += 1;
                    n_merged += m - 1;
                    summaries[ti].merged += m - 1;
                } else {
                    n_merged += m;
                    summaries[ti].merged += m;
                }
                if collided {
                    n_collided += 1;
                }
                sub_bits[ti].push((
                    ClassId {
                        shard: shard_u16,
                        index: class_index,
                    }
                    .to_bits(),
                    mult,
                ));
            }
            drop(shard);
            self.obs.rec_apply(t_apply, n_entries);
        }
        StatCounters::add(&self.counters.subterms_indexed, n_indexed);
        StatCounters::add(&self.counters.classes_created, n_created);
        StatCounters::add(&self.counters.subterm_merges_confirmed, n_merged);
        StatCounters::add(&self.counters.hash_collisions, n_collided);

        // Sort each term's class pairs by bits now, outside any lock —
        // finish_insert only splices in the root's own class bit. Within
        // one term every pair's class is distinct (prepare collapses
        // duplicate canons into one multiplicity, and merges are exact),
        // but coalesce defensively so the sorted-unique key invariant
        // cannot break.
        for bits in &mut sub_bits {
            bits.sort_unstable();
            bits.dedup_by(|b, a| {
                if a.0 == b.0 {
                    a.1 += b.1;
                    true
                } else {
                    false
                }
            });
        }

        // Sweep 2: the roots, one lock per shard.
        self.drain_roots(roots_prepared, |i| {
            (summaries[i], std::mem::take(&mut sub_bits[i]))
        })
    }

    /// The critical section of a root insert (shard lock already held).
    /// `sub_bits` are the term's indexed subexpression classes as
    /// [`ClassId::to_bits`], **already sorted and deduplicated** (the
    /// caller does that outside the lock); only the term's own class bit
    /// is spliced in here, since it is not known until the insert.
    fn finish_insert(
        &self,
        shard: &mut Shard<H>,
        view: &mut TableView<'_>,
        prepared: Prepared<H>,
        subs: SubexprSummary,
        mut sub_bits: Vec<(u64, u32)>,
    ) -> InsertOutcome {
        StatCounters::bump(&self.counters.terms_ingested);
        let shard_u16 = u16::try_from(prepared.shard).expect("shard count fits u16");
        let (class_index, fresh, collided) =
            shard.insert_entry(&self.table, view, prepared.entry, true, &self.obs);
        if fresh {
            StatCounters::bump(&self.counters.classes_created);
        } else {
            StatCounters::bump(&self.counters.merges_confirmed);
        }
        if collided {
            StatCounters::bump(&self.counters.hash_collisions);
        }
        let class = ClassId {
            shard: shard_u16,
            index: class_index,
        };
        if self.granularity.indexes_subexpressions() {
            let bits = class.to_bits();
            match sub_bits.binary_search_by_key(&bits, |p| p.0) {
                Ok(pos) => sub_bits[pos].1 += 1,
                Err(pos) => sub_bits.insert(pos, (bits, 1)),
            }
        }
        let term_index = u32::try_from(shard.terms.len()).expect("shard term overflow");
        shard.terms.push(class.to_bits());
        shard.term_subs.push(sub_bits.into_boxed_slice());
        InsertOutcome {
            term: TermId {
                shard: shard_u16,
                index: term_index,
            },
            class,
            fresh,
            subs,
        }
    }

    /// The read-only probe shared by [`AlphaStore::lookup`] and
    /// [`AlphaStore::contains`]: hash + canonicalize outside the lock,
    /// then find the confirming class under the shard's read lock.
    /// `roots_only` narrows the answer to classes with at least one
    /// whole-term member. Probes never intern: the canon DAG only grows
    /// through ingest.
    pub(crate) fn probe(
        &self,
        arena: &ExprArena,
        root: NodeId,
        roots_only: bool,
    ) -> Option<ClassId> {
        let mut preparer = Preparer::new(arena, &self.scheme);
        let prepared = self.prepare(&mut preparer, arena, root);
        let (nodes, misses) = preparer.take_hash_counters();
        self.obs.add_hash_counters(nodes, misses);
        self.probe_prepared(&prepared, roots_only)
    }

    fn probe_prepared(&self, prepared: &Prepared<H>, roots_only: bool) -> Option<ClassId> {
        let t = self.obs.tick();
        let t_lock = self.obs.tick();
        let shard = self.shards[prepared.shard]
            .read()
            .expect("shard lock poisoned");
        self.obs.rec_shard_lock_wait(t_lock);
        let mut view = TableView::new(&self.table);
        let found = shard
            .find(&mut view, prepared)
            .filter(|&index| !roots_only || shard.classes[index as usize].members > 0)
            .map(|index| ClassId {
                shard: u16::try_from(prepared.shard).expect("shard count fits u16"),
                index,
            });
        drop(shard);
        self.obs.rec_probe(t);
        found
    }

    /// Batched probes sharing one [`Preparer`] (and therefore one
    /// name-hash cache and one set of traversal buffers) across all
    /// patterns, grouped so each shard's read lock is taken at most once.
    /// Backs [`AlphaStore::contains_batch`]; results are in input order.
    pub(crate) fn probe_batch(
        &self,
        arena: &ExprArena,
        patterns: &[NodeId],
        roots_only: bool,
    ) -> Vec<Option<ClassId>> {
        let mut preparer = Preparer::new(arena, &self.scheme);
        let mut by_shard: HashMap<usize, Vec<(usize, Prepared<H>)>> = HashMap::new();
        for (i, &p) in patterns.iter().enumerate() {
            let prepared = self.prepare(&mut preparer, arena, p);
            by_shard
                .entry(prepared.shard)
                .or_default()
                .push((i, prepared));
        }
        let (nodes, misses) = preparer.take_hash_counters();
        self.obs.add_hash_counters(nodes, misses);
        let mut results: Vec<Option<ClassId>> = vec![None; patterns.len()];
        for (shard_index, items) in by_shard {
            let t_lock = self.obs.tick();
            let shard = self.shards[shard_index]
                .read()
                .expect("shard lock poisoned");
            self.obs.rec_shard_lock_wait(t_lock);
            let mut view = TableView::new(&self.table);
            let shard_u16 = u16::try_from(shard_index).expect("shard count fits u16");
            for (i, prepared) in items {
                let t = self.obs.tick();
                results[i] = shard
                    .find(&mut view, &prepared)
                    .filter(|&index| !roots_only || shard.classes[index as usize].members > 0)
                    .map(|index| ClassId {
                        shard: shard_u16,
                        index,
                    });
                self.obs.rec_probe(t);
            }
        }
        results
    }

    /// Finds the class of a term ingested **as a whole term**, without
    /// ingesting the query. Classes that only ever appeared as
    /// subexpressions of ingested terms do not count — that is what
    /// [`AlphaStore::contains`] answers.
    pub fn lookup(&self, arena: &ExprArena, root: NodeId) -> Option<ClassId> {
        self.probe(arena, root, true)
    }

    /// The class a previously ingested term belongs to.
    ///
    /// # Panics
    ///
    /// Panics if `term` was not issued by this store.
    pub fn class_of(&self, term: TermId) -> ClassId {
        let shard = self.shards[term.shard as usize]
            .read()
            .expect("shard lock poisoned");
        ClassId::from_bits(shard.terms[term.index as usize])
    }

    /// Number of distinct alpha-equivalence classes stored.
    pub fn num_classes(&self) -> usize {
        self.shards
            .iter()
            .map(|s| s.read().expect("shard lock poisoned").classes.len())
            .sum()
    }

    /// Number of terms ingested (every insert counts, merged or fresh).
    pub fn num_terms(&self) -> usize {
        self.shards
            .iter()
            .map(|s| s.read().expect("shard lock poisoned").terms.len())
            .sum()
    }

    /// Whether no term has been ingested yet.
    pub fn is_empty(&self) -> bool {
        self.num_terms() == 0
    }

    /// Every class handle, ordered by shard then creation, as a **lazy**
    /// iterator: nothing is allocated up front, and each stripe's lock is
    /// taken (briefly, read-only) only when the iteration reaches it.
    ///
    /// The view is taken shard by shard: classes created concurrently with
    /// the iteration may or may not appear, but every handle returned is
    /// valid forever. Collect with [`AlphaStore::classes_vec`] when a
    /// point-in-time `Vec` is wanted (e.g. to sort).
    pub fn classes(&self) -> impl Iterator<Item = ClassId> + '_ {
        self.shards.iter().enumerate().flat_map(|(si, stripe)| {
            let len = stripe.read().expect("shard lock poisoned").classes.len() as u32;
            let si = u16::try_from(si).expect("shard count fits u16");
            (0..len).map(move |index| ClassId { shard: si, index })
        })
    }

    /// [`AlphaStore::classes`] collected into a `Vec` — the allocating
    /// shape the API originally exposed.
    pub fn classes_vec(&self) -> Vec<ClassId> {
        self.classes().collect()
    }

    /// How many **whole ingested terms** belong to `class`. Zero for
    /// classes that only ever appeared as subexpressions (see
    /// [`AlphaStore::occurrences`] for the count that includes those).
    ///
    /// # Panics
    ///
    /// Panics if `class` was not issued by this store.
    pub fn members(&self, class: ClassId) -> u64 {
        self.with_class(class, |c| c.members)
    }

    /// Tree node count of the class's canonical form (the size every
    /// member shares, alpha-equivalent terms being equisized). The
    /// *resident* cost is lower: canonical structure is stored once in the
    /// shared canon DAG, see [`AlphaStore::canon_dag_stats`].
    ///
    /// # Panics
    ///
    /// Panics if `class` was not issued by this store.
    pub fn node_count(&self, class: ClassId) -> usize {
        usize::try_from(self.with_class(class, |c| c.node_count)).expect("node count fits usize")
    }

    /// The content address (alpha-hash) of `class`.
    ///
    /// # Panics
    ///
    /// Panics if `class` was not issued by this store.
    pub fn hash_of(&self, class: ClassId) -> H {
        self.with_class(class, |c| c.hash)
    }

    /// The class's canonical form in the paper's de Bruijn notation
    /// (`\. %0`, free variables by name), extracted from the canon DAG.
    ///
    /// # Panics
    ///
    /// Panics if `class` was not issued by this store.
    pub fn canonical_text(&self, class: ClassId) -> String {
        let cref = self.with_class(class, |c| c.canon);
        let mut view = TableView::new(&self.table);
        let (arena, root) = extract_one(&mut view, cref);
        db_print(&arena, root)
    }

    /// Rebuilds a named representative of `class` into `dst` (fresh binder
    /// names, unique-binder invariant holds) and returns its root.
    ///
    /// # Panics
    ///
    /// Panics if `class` was not issued by this store.
    pub fn representative_into(&self, class: ClassId, dst: &mut ExprArena) -> NodeId {
        let cref = self.with_class(class, |c| c.canon);
        let mut view = TableView::new(&self.table);
        let (arena, root) = extract_one(&mut view, cref);
        drop(view);
        rebuild_named(&arena, root, dst)
    }

    /// Shared-DAG size of a corpus under this store's hash scheme; see
    /// [`crate::corpus::corpus_shared_dag_size`].
    pub fn shared_dag_size(&self, arena: &ExprArena, roots: &[NodeId]) -> usize {
        crate::corpus::corpus_shared_dag_size(arena, roots, &self.scheme)
    }

    /// Snapshot of the ingest statistics.
    pub fn stats(&self) -> StoreStats {
        self.counters.snapshot()
    }

    /// Resident footprint of the hash-consed canon DAG versus the
    /// standalone storage it replaces: distinct nodes and bytes actually
    /// resident, and the logical (per-class tree) node total a
    /// one-arena-per-class design would hold. The ratio of the two is the
    /// structure-sharing win.
    pub fn canon_dag_stats(&self) -> CanonDagStats {
        let resident_nodes = self.table.resident_nodes();
        let (resident_names, name_bytes) = self.table.resident_names();
        let logical_nodes: u64 = self
            .shards
            .iter()
            .map(|s| {
                s.read()
                    .expect("shard lock poisoned")
                    .classes
                    .iter()
                    .map(|c| c.node_count)
                    .sum::<u64>()
            })
            .sum();
        CanonDagStats {
            resident_nodes,
            resident_bytes: resident_nodes * std::mem::size_of::<CanonNode>() as u64 + name_bytes,
            resident_names,
            logical_nodes,
        }
    }

    // ---- persistence ---------------------------------------------------

    /// Opens a durable store from its directory, reading the whole
    /// configuration (hash scheme, shard count, granularity) from disk:
    /// loads the latest snapshot, replays the WAL tail — **re-confirming
    /// every replayed merge by canonical-form identity**, so exactness
    /// survives restarts — truncates any torn tail left by a crash, and
    /// checkpoints (fresh snapshot, reset WAL). Use
    /// [`StoreBuilder::open_durable`] instead when the caller knows the
    /// configuration and wants it verified against what is on disk (or
    /// wants [`StoreBuilder::verify_on_replay`] paranoia).
    ///
    /// The hash width is the one thing the type system fixes: opening a
    /// store whose snapshot was written at a different `H` fails with
    /// [`PersistError::Mismatch`].
    ///
    /// ```
    /// use alpha_store::AlphaStore;
    /// use lambda_lang::{parse, ExprArena};
    ///
    /// let dir = std::env::temp_dir().join(format!("doc-open-{}", std::process::id()));
    /// let mut arena = ExprArena::new();
    /// let t = parse(&mut arena, r"\x. x + 1").unwrap();
    /// let class = {
    ///     let store: AlphaStore<u64> =
    ///         AlphaStore::builder().open_durable(&dir).unwrap();
    ///     store.insert(&arena, t).class
    /// }; // dropped: the store is gone from memory…
    ///
    /// let reopened: AlphaStore<u64> = AlphaStore::open(&dir).unwrap();
    /// let alpha = parse(&mut arena, r"\q. q + 1").unwrap();
    /// assert_eq!(reopened.lookup(&arena, alpha), Some(class)); // …not from disk
    /// assert!(reopened.stats().is_exact());
    /// # std::fs::remove_dir_all(&dir).unwrap();
    /// ```
    pub fn open(dir: impl AsRef<Path>) -> Result<Self, PersistError> {
        crate::persist::open_store(
            dir.as_ref(),
            None,
            crate::persist::OpenConfig {
                sync_on_commit: false,
                chunk_entries: Self::DEFAULT_CHUNK_ENTRIES,
                verify_on_replay: false,
                vfs: Arc::new(crate::persist::vfs::OsVfs),
                retry: RetryPolicy::default(),
                auto_ckpt: AutoCheckpoint::default(),
                table_shards: crate::dag::default_table_shards(),
            },
        )
    }

    /// Whether this store tees inserts into a write-ahead log (built via
    /// [`StoreBuilder::open_durable`] or [`AlphaStore::open`]).
    pub fn is_durable(&self) -> bool {
        self.durable.is_some()
    }

    /// What recovery did when this store was opened from a durable
    /// directory: how many WAL records were replayed, and whether the
    /// reopen was **clean** (snapshot already current, no replay, no
    /// recovery checkpoint). `None` for in-memory stores and for
    /// directories created fresh by this open.
    pub fn recovery_info(&self) -> Option<RecoveryInfo> {
        self.recovery
    }

    /// The durable store's directory, if any.
    pub fn persist_dir(&self) -> Option<&Path> {
        self.durable.as_ref().map(|d| d.dir.as_path())
    }

    /// Records currently in the write-ahead log (zero right after
    /// [`AlphaStore::compact`] or a fresh open). `None` for in-memory
    /// stores.
    pub fn wal_records(&self) -> Option<u64> {
        self.durable
            .as_ref()
            .map(|d| d.wal.lock().expect("wal lock poisoned").records)
    }

    /// Writes a fresh snapshot of the current state (atomically: temp
    /// file, `fsync`, rename) without touching the WAL. The snapshot
    /// records how many WAL records it absorbed, so a subsequent
    /// [`AlphaStore::open`] replays only the records that arrive after
    /// this call.
    ///
    /// Errors with [`PersistError::Mismatch`] on an in-memory store. A
    /// write failure marks the store [`Health::Degraded`] (the previous
    /// snapshot and the WAL are untouched, so nothing is lost).
    pub fn snapshot(&self) -> Result<(), PersistError> {
        let durable = self.require_durable()?;
        let _cut = self.maintenance.write().expect("maintenance lock poisoned");
        let wal = durable.wal.lock().expect("wal lock poisoned");
        let result = self.write_snapshot_file(
            &*durable.vfs,
            &durable.dir.join(SNAPSHOT_FILE),
            wal.epoch,
            wal.records,
        );
        if let Err(e) = &result {
            self.obs.persist_error();
            self.set_degraded(format!("snapshot failed: {e}"));
        }
        result
    }

    /// Checkpoints the durable state: writes a fresh snapshot under the
    /// **next epoch**, then truncates the WAL and restamps it with that
    /// epoch. The snapshot rename is the commit point — a crash between
    /// the two steps leaves a stale-epoch WAL that recovery recognises and
    /// discards instead of replaying records the snapshot already holds.
    ///
    /// This is also the manual **healing** path: a successful checkpoint
    /// proves the storage can absorb the full state again, so it resets
    /// [`health`](AlphaStore::health) to [`Health::Healthy`] — including
    /// out of [`Health::ReadOnly`], re-enabling ingest. A failed snapshot
    /// write leaves the previous snapshot and the WAL untouched (the
    /// store stays degraded but loses nothing); a failed WAL truncation
    /// *after* the snapshot committed flips the store read-only, since
    /// appending to a WAL whose truncation half-happened could corrupt it.
    ///
    /// Errors with [`PersistError::Mismatch`] on an in-memory store.
    pub fn checkpoint(&self) -> Result<(), PersistError> {
        let durable = self.require_durable()?;
        let _cut = self.maintenance.write().expect("maintenance lock poisoned");
        self.checkpoint_locked(durable)
    }

    /// [`AlphaStore::checkpoint`] under an already-held exclusive
    /// maintenance guard — shared with the auto-checkpoint path.
    fn checkpoint_locked(&self, durable: &Durable) -> Result<(), PersistError> {
        let mut wal = durable.wal.lock().expect("wal lock poisoned");
        let new_epoch = wal.epoch + 1;
        if let Err(e) = self.write_snapshot_file(
            &*durable.vfs,
            &durable.dir.join(SNAPSHOT_FILE),
            new_epoch,
            0,
        ) {
            self.obs.persist_error();
            self.set_degraded(format!("checkpoint snapshot failed: {e}"));
            return Err(e);
        }
        match wal.reset(WalHeader {
            hash_bits: H::BITS,
            scheme_seed: self.scheme.seed(),
            shard_count: u32::try_from(self.shard_count()).expect("shard count fits u32"),
            granularity: self.granularity,
            epoch: new_epoch,
        }) {
            Ok(()) => {
                self.heal();
                Ok(())
            }
            Err(e) => {
                self.set_read_only(format!("WAL reset failed after checkpoint: {e}"));
                Err(e)
            }
        }
    }

    /// Alias for [`AlphaStore::checkpoint`], kept for callers of the
    /// pre-health-machine API.
    pub fn compact(&self) -> Result<(), PersistError> {
        self.checkpoint()
    }

    /// Checks the auto-checkpoint watermarks after an ingest chunk lands
    /// and, if one tripped, runs a checkpoint opportunistically. Never
    /// fails the insert that triggered it: a contended maintenance lock
    /// skips (someone else is compacting or snapshotting anyway), and a
    /// checkpoint error only moves [`health`](AlphaStore::health) — the
    /// chunk itself is already committed to the WAL.
    pub(crate) fn maybe_auto_checkpoint(&self) {
        let Some(durable) = &self.durable else {
            return;
        };
        if !self.auto_ckpt.armed() {
            return;
        }
        let (bytes, records) = {
            let wal = durable.wal.lock().expect("wal lock poisoned");
            (wal.bytes_since_checkpoint(), wal.records)
        };
        if !self.auto_ckpt.reached(bytes, records) {
            return;
        }
        // try_write, not write: if maintenance is already running (another
        // auto-checkpoint, an explicit compact), the watermark stays
        // tripped and the next chunk re-checks.
        let Ok(_cut) = self.maintenance.try_write() else {
            return;
        };
        {
            let wal = durable.wal.lock().expect("wal lock poisoned");
            if !self
                .auto_ckpt
                .reached(wal.bytes_since_checkpoint(), wal.records)
            {
                return;
            }
        }
        self.obs.rec_auto_checkpoint();
        // checkpoint_locked does the health bookkeeping on failure.
        let _ = self.checkpoint_locked(durable);
    }

    fn require_durable(&self) -> Result<&Durable, PersistError> {
        self.durable.as_ref().ok_or_else(|| PersistError::Mismatch {
            context: "store is in-memory; build it with StoreBuilder::open_durable".to_owned(),
        })
    }

    /// Serializes the current state to `path` (the caller has quiesced
    /// ingest or owns the store exclusively). Shard read locks are taken
    /// in index order, then the canon table is read — after the
    /// maintenance/WAL locks, per the documented lock order. The node
    /// table is emitted **once** (the reachable sub-DAG, sharing
    /// preserved); classes serialize as positions into it.
    pub(crate) fn write_snapshot_file(
        &self,
        vfs: &dyn Vfs,
        path: &Path,
        wal_epoch: u64,
        wal_records_applied: u64,
    ) -> Result<(), PersistError> {
        let t = self.obs.tick();
        let guards: Vec<_> = self
            .shards
            .iter()
            .map(|s| s.read().expect("shard lock poisoned"))
            .collect();
        let shard_refs: Vec<&Shard<H>> = guards.iter().map(|g| &**g).collect();
        // Extract the class-reachable sub-DAG once, sharing preserved:
        // one arena, one id per distinct node, every class root an id.
        let refs: Vec<CanonRef> = shard_refs
            .iter()
            .flat_map(|s| s.classes.iter().map(|c| c.canon))
            .collect();
        let mut dag = lambda_lang::debruijn::DbArena::new();
        let mut view = TableView::new(&self.table);
        let class_roots = extract_canon(&mut view, &refs, &mut dag);
        drop(view);
        let header = SnapshotHeader {
            hash_bits: H::BITS,
            scheme_seed: self.scheme.seed(),
            shard_count: u32::try_from(self.shards.len()).expect("shard count fits u32"),
            granularity: self.granularity,
            wal_epoch,
            wal_records_applied,
            stats: self.counters.snapshot(),
        };
        let bytes =
            crate::persist::snapshot::encode_snapshot(&header, &shard_refs, &dag, &class_roots);
        let result = crate::persist::snapshot::write_atomically(vfs, path, &bytes);
        drop(guards);
        if result.is_ok() {
            self.obs.rec_snapshot_write(t, bytes.len() as u64);
        }
        result
    }

    /// Replays recovered WAL records through the normal ingest path,
    /// group by group — each group is one original group commit, so the
    /// root-vs-subterm merge-counter split is reproduced exactly (groups
    /// are re-chunked by `chunk_entries`, which is the identity when the
    /// store reopens with the configuration that wrote them). Every
    /// replayed merge is re-confirmed by canonical-form identity. With
    /// `verify`, every record is additionally **re-hashed** (its canon
    /// rebuilt to a named term and pushed through the full hashing
    /// pipeline) before being trusted — the paranoid mode that catches
    /// canon payload corruption consistent enough to slip past CRC and
    /// confirmation. Runs before the WAL is attached, so nothing is
    /// re-logged.
    ///
    /// Delta records (v3 `update` frames) interleave with inserts in log
    /// order: any pending insert chunk is flushed first, then the delta
    /// is re-applied through the same deterministic splice the live
    /// update used, its recorded root hash cross-checked
    /// ([`PersistError::Corrupt`] on mismatch).
    pub(crate) fn replay(
        &mut self,
        groups: Vec<Vec<WalEntry<H>>>,
        verify: bool,
    ) -> Result<(), PersistError> {
        debug_assert!(self.durable.is_none(), "replay must not re-log records");
        for group in groups {
            let mut pending: Vec<PreparedTerm<H>> = Vec::new();
            let mut pending_entries = 0usize;
            for entry in group {
                match entry {
                    WalEntry::Insert(raw) => {
                        if verify {
                            crate::persist::verify_record(&self.scheme, &raw)?;
                        }
                        let pt = self.intern_raw(raw);
                        pending_entries += 1 + pt.subs.len();
                        pending.push(pt);
                        if pending_entries >= self.chunk_entries {
                            self.ingest_prepared_terms(std::mem::take(&mut pending))
                                .expect("in-memory replay ingest cannot fail");
                            pending_entries = 0;
                        }
                    }
                    WalEntry::Update(delta) => {
                        if !pending.is_empty() {
                            self.ingest_prepared_terms(std::mem::take(&mut pending))
                                .expect("in-memory replay ingest cannot fail");
                            pending_entries = 0;
                        }
                        crate::update::apply_update_replay(self, delta, verify)?;
                    }
                }
            }
            if !pending.is_empty() {
                self.ingest_prepared_terms(pending)
                    .expect("in-memory replay ingest cannot fail");
            }
        }
        Ok(())
    }

    /// Interns one decoded WAL record's canon DAG into the store's table
    /// and re-addresses its entries as interned prepared entries.
    fn intern_raw(&self, raw: RawRecord<H>) -> PreparedTerm<H> {
        let refs = self.table.intern_arena_refs(&raw.canon);
        let entry = |e: &crate::persist::format::RawEntry<H>| SubEntry {
            hash: e.hash,
            node_count: e.node_count,
            multiplicity: e.multiplicity,
            canon: PreparedCanon::Interned(refs[e.pos.index()]),
        };
        PreparedTerm {
            root: entry(&raw.root),
            subs: raw.subs.iter().map(entry).collect(),
            skipped: raw.skipped,
        }
    }

    /// Tees a chunk of root-granularity inserts into the WAL as one group
    /// commit (the chunk's records, then a boundary marker so replay can
    /// reproduce the group exactly). No-op on in-memory stores. A write
    /// failure is retried per the store's [`RetryPolicy`]; exhausting the
    /// retries returns [`StoreError::Persist`] **without** applying the
    /// chunk to memory, so memory and WAL stay in agreement.
    fn wal_log_roots(&self, prepared: &[Prepared<H>]) -> Result<(), StoreError> {
        let Some(durable) = &self.durable else {
            return Ok(());
        };
        // ~10 bytes per canon node plus fixed costs: a close-enough guess
        // that the frame buffer almost never regrows mid-chunk.
        let estimate: usize = prepared
            .iter()
            .map(|p| 80 + p.entry.node_count as usize * 10)
            .sum();
        let mut frames = Vec::with_capacity(estimate);
        for p in prepared {
            let PreparedCanon::Frontier { canon, canon_root } = &p.entry.canon else {
                unreachable!("root-granularity prepares frontier forms");
            };
            crate::persist::wal::frame_record_frontier(
                &mut frames,
                p.entry.hash,
                canon,
                *canon_root,
            );
        }
        crate::persist::wal::frame_commit(&mut frames, prepared.len() as u64);
        self.wal_append_with_retry(durable, &frames, prepared.len() as u64)
    }

    /// Tees a chunk of subexpression-granularity inserts into the WAL as
    /// one group commit. Each record's canon is encoded as one
    /// node-deduplicated DAG (extracted from the canon table) with entries
    /// addressing positions in it — duplicates within a term cost one
    /// position and a multiplicity, not k copies. No-op on in-memory
    /// stores; retried on write failure like [`AlphaStore::wal_log_roots`].
    fn wal_log_terms(&self, terms: &[PreparedTerm<H>]) -> Result<(), StoreError> {
        let Some(durable) = &self.durable else {
            return Ok(());
        };
        let estimate: usize = terms
            .iter()
            .map(|pt| 96 + 28 * pt.subs.len() + pt.root.node_count as usize * 10)
            .sum();
        let mut frames = Vec::with_capacity(estimate);
        // Table reads happen here, before the WAL mutex is taken (lock
        // order), and the view is dropped before appending.
        let mut view = TableView::new(&self.table);
        for pt in terms {
            crate::persist::wal::frame_record_interned(&mut frames, &mut view, pt);
        }
        drop(view);
        crate::persist::wal::frame_commit(&mut frames, terms.len() as u64);
        self.wal_append_with_retry(durable, &frames, terms.len() as u64)
    }

    /// The shared locked-append tail of the two `wal_log_*` tees, with the
    /// degraded-mode retry loop around it. Transient failures sleep a
    /// bounded exponential backoff (the WAL mutex is **held across the
    /// sleeps** — concurrent ingest queues behind the same broken disk
    /// either way, and releasing it would let groups land out of order);
    /// a retried append that succeeds heals the store back to
    /// [`Health::Healthy`], while exhausting the policy flips it to
    /// [`Health::ReadOnly`] and returns the underlying error.
    pub(crate) fn wal_append_with_retry(
        &self,
        durable: &Durable,
        frames: &[u8],
        count: u64,
    ) -> Result<(), StoreError> {
        let t = self.obs.tick();
        let mut wal = durable.wal.lock().expect("wal lock poisoned");
        let mut attempt = 0u32;
        loop {
            match wal.append_group(frames, count) {
                Ok(()) => {
                    drop(wal);
                    self.obs.rec_wal_commit(t, count);
                    if attempt > 0 {
                        self.heal();
                    }
                    return Ok(());
                }
                Err(e) => {
                    if attempt >= self.retry.retries {
                        drop(wal);
                        let reason = format!("WAL write failed after {attempt} retries: {e}");
                        self.set_read_only(reason);
                        return Err(StoreError::Persist(e));
                    }
                    attempt += 1;
                    self.obs.rec_wal_retry();
                    self.set_degraded(format!(
                        "WAL write failing (retry {attempt}/{}): {e}",
                        self.retry.retries
                    ));
                    let delay = self
                        .retry
                        .backoff
                        .saturating_mul(1u32 << (attempt - 1).min(16));
                    (self.retry.sleeper)(delay);
                }
            }
        }
    }

    /// The store's current [`Health`]. `Healthy` stores persist normally;
    /// `Degraded` stores have seen transient persistence failures (recent
    /// ingests still landed, but the storage deserves attention);
    /// `ReadOnly` stores refuse ingest — lookups keep serving from memory
    /// — until a successful [`AlphaStore::checkpoint`] proves the storage
    /// recovered. In-memory stores are always `Healthy`.
    pub fn health(&self) -> Health {
        match self.health.state.load(Ordering::Acquire) {
            HEALTH_HEALTHY => Health::Healthy,
            HEALTH_DEGRADED => Health::Degraded(
                self.health
                    .reason
                    .lock()
                    .expect("health lock poisoned")
                    .clone(),
            ),
            _ => Health::ReadOnly(
                self.health
                    .reason
                    .lock()
                    .expect("health lock poisoned")
                    .clone(),
            ),
        }
    }

    /// Ingest-path gate: one relaxed atomic load when healthy, a typed
    /// refusal when read-only.
    pub(crate) fn check_writable(&self) -> Result<(), StoreError> {
        if self.health.state.load(Ordering::Relaxed) == HEALTH_READ_ONLY {
            return Err(StoreError::Degraded {
                reason: self
                    .health
                    .reason
                    .lock()
                    .expect("health lock poisoned")
                    .clone(),
            });
        }
        Ok(())
    }

    /// Healthy → Degraded (or refreshes a Degraded reason). ReadOnly
    /// outranks Degraded, so an already-read-only store is left alone.
    fn set_degraded(&self, reason: String) {
        match self.health.state.compare_exchange(
            HEALTH_HEALTHY,
            HEALTH_DEGRADED,
            Ordering::AcqRel,
            Ordering::Acquire,
        ) {
            Ok(_) => {
                *self.health.reason.lock().expect("health lock poisoned") = reason;
                self.obs
                    .rec_health("store.degraded", u64::from(HEALTH_DEGRADED));
            }
            Err(HEALTH_DEGRADED) => {
                *self.health.reason.lock().expect("health lock poisoned") = reason;
            }
            Err(_) => {}
        }
    }

    /// Any state → ReadOnly: persistence is gone until an operator (or a
    /// successful [`AlphaStore::checkpoint`]) intervenes.
    fn set_read_only(&self, reason: String) {
        let prev = self.health.state.swap(HEALTH_READ_ONLY, Ordering::AcqRel);
        *self.health.reason.lock().expect("health lock poisoned") = reason;
        if prev != HEALTH_READ_ONLY {
            self.obs
                .rec_health("store.read_only", u64::from(HEALTH_READ_ONLY));
        }
    }

    /// Any state → Healthy, after storage proved itself again (a retried
    /// append landed, or a checkpoint completed).
    fn heal(&self) {
        let prev = self.health.state.swap(HEALTH_HEALTHY, Ordering::AcqRel);
        if prev != HEALTH_HEALTHY {
            self.health
                .reason
                .lock()
                .expect("health lock poisoned")
                .clear();
            self.obs
                .rec_health("store.healed", u64::from(HEALTH_HEALTHY));
        }
    }

    pub(crate) fn with_class<T>(&self, class: ClassId, f: impl FnOnce(&StoredClass<H>) -> T) -> T {
        let shard = self.shards[class.shard as usize]
            .read()
            .expect("shard lock poisoned");
        f(&shard.classes[class.index as usize])
    }
}

/// Observability surface. See `docs/OBSERVABILITY.md` for the metric
/// catalog.
impl<H: HashWord> AlphaStore<H> {
    /// A point-in-time snapshot of every instrument this store owns —
    /// latency histograms, confirmation counters, WAL gauges — unified
    /// with [`StoreStats`] and [`CanonDagStats`] derived values so one
    /// call yields the full picture. Render it with
    /// [`Report::to_json`](alpha_obs::Report::to_json) or
    /// [`Report::to_prometheus`](alpha_obs::Report::to_prometheus).
    pub fn obs_report(&self) -> alpha_obs::Report {
        use alpha_obs::{Desc, Sample};
        const fn d(name: &'static str, help: &'static str, unit: &'static str) -> Desc {
            Desc { name, help, unit }
        }
        let stats = self.stats();
        let dag = self.canon_dag_stats();
        let (intern_hits, intern_misses) = self.table.intern_stats();
        let mut extras = vec![
            Sample::counter(
                d(
                    "alpha_store_terms_ingested",
                    "Whole terms ingested",
                    "terms",
                ),
                stats.terms_ingested,
            ),
            Sample::counter(
                d(
                    "alpha_store_classes_created",
                    "Fresh equivalence classes created",
                    "classes",
                ),
                stats.classes_created,
            ),
            Sample::counter(
                d(
                    "alpha_store_merges_confirmed",
                    "Whole-term merges confirmed by canonical identity",
                    "merges",
                ),
                stats.merges_confirmed,
            ),
            Sample::counter(
                d(
                    "alpha_store_hash_collisions",
                    "Inserts whose hash matched a non-equivalent class",
                    "collisions",
                ),
                stats.hash_collisions,
            ),
            Sample::counter(
                d(
                    "alpha_store_unconfirmed_merges",
                    "Merges accepted without confirmation (always 0: merges are exact)",
                    "merges",
                ),
                stats.unconfirmed_merges,
            ),
            Sample::counter(
                d(
                    "alpha_store_subterms_indexed",
                    "Subexpression occurrences indexed",
                    "subterms",
                ),
                stats.subterms_indexed,
            ),
            Sample::counter(
                d(
                    "alpha_store_subterm_merges_confirmed",
                    "Subexpression merges confirmed by canonical identity",
                    "merges",
                ),
                stats.subterm_merges_confirmed,
            ),
            Sample::counter(
                d(
                    "alpha_store_subterms_skipped_min_nodes",
                    "Subexpressions skipped by the min_nodes floor",
                    "subterms",
                ),
                stats.subterms_skipped_min_nodes,
            ),
            Sample::counter(
                d(
                    "alpha_store_canon_intern_hits",
                    "Canon-table intern calls answered by an existing node",
                    "nodes",
                ),
                intern_hits,
            ),
            Sample::counter(
                d(
                    "alpha_store_canon_intern_misses",
                    "Canon-table intern calls that inserted a new node",
                    "nodes",
                ),
                intern_misses,
            ),
            Sample::gauge(
                d(
                    "alpha_store_canon_resident_nodes",
                    "Distinct canon DAG nodes resident",
                    "nodes",
                ),
                dag.resident_nodes,
            ),
            Sample::gauge(
                d(
                    "alpha_store_canon_logical_nodes",
                    "Logical canon nodes a tree-per-class design would hold",
                    "nodes",
                ),
                dag.logical_nodes,
            ),
            Sample::gauge(
                d(
                    "alpha_store_canon_resident_bytes",
                    "Approximate bytes resident in the canon DAG",
                    "bytes",
                ),
                dag.resident_bytes,
            ),
            Sample::gauge(
                d(
                    "alpha_store_shards",
                    "Effective store lock-stripe count",
                    "shards",
                ),
                self.shard_count() as u64,
            ),
            Sample::gauge(
                d(
                    "alpha_store_table_shards",
                    "Effective canon-table lock-stripe count",
                    "shards",
                ),
                self.table_shard_count() as u64,
            ),
        ];
        if let Some(records) = self.wal_records() {
            extras.push(Sample::gauge(
                d(
                    "alpha_store_wal_records",
                    "Records in the live WAL epoch",
                    "records",
                ),
                records,
            ));
        }
        self.obs.report(extras)
    }

    /// Runtime toggle for the clock-reading / event-emitting half of
    /// instrumentation (on by default). Counters and length histograms
    /// keep recording regardless — one relaxed atomic op each — so
    /// reconciliation invariants (e.g. confirmations vs
    /// [`StoreStats::merges_confirmed`]) hold in either state.
    pub fn set_obs_enabled(&self, on: bool) {
        self.obs.set_enabled(on);
    }

    /// Whether timed instrumentation is currently enabled.
    pub fn obs_enabled(&self) -> bool {
        self.obs.enabled()
    }

    /// The most recent trace events from the default ring-buffer
    /// subscriber (newest last). Empty after
    /// [`set_obs_subscriber`](Self::set_obs_subscriber) replaces the
    /// ring.
    pub fn obs_recent_events(&self) -> Vec<alpha_obs::Event> {
        self.obs.recent_events()
    }

    /// Replaces the trace subscriber (the default is a bounded ring
    /// buffer readable via
    /// [`obs_recent_events`](Self::obs_recent_events)). The subscriber
    /// is called with store locks possibly held: it must not call back
    /// into this store.
    pub fn set_obs_subscriber(&self, s: std::sync::Arc<dyn alpha_obs::Subscriber>) {
        self.obs.set_subscriber(s);
    }
}

// The whole point of the sharded design: the store is shareable across
// ingest threads. Fails to compile if a non-Sync type sneaks in.
const _: fn() = || {
    fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<AlphaStore<u64>>();
    assert_send_sync::<AlphaStore<u128>>();
};

#[cfg(test)]
mod tests {
    use super::*;
    use lambda_lang::parse::parse;

    fn store() -> AlphaStore<u64> {
        AlphaStore::with_shards(HashScheme::new(0xA1FA), 8)
    }

    #[test]
    fn insert_is_idempotent_modulo_alpha() {
        let store = store();
        let mut arena = ExprArena::new();
        let a = parse(&mut arena, r"\x. x + 1").unwrap();
        let b = parse(&mut arena, r"\y. y + 1").unwrap();
        let first = store.insert(&arena, a);
        let second = store.insert(&arena, b);
        assert!(first.fresh);
        assert!(!second.fresh);
        assert_eq!(first.class, second.class);
        assert_ne!(first.term, second.term);
        assert_eq!(store.num_classes(), 1);
        assert_eq!(store.num_terms(), 2);
        assert_eq!(store.members(first.class), 2);
        let stats = store.stats();
        assert_eq!(stats.merges_confirmed, 1);
        assert_eq!(stats.classes_created, 1);
        assert!(stats.is_exact());
    }

    #[test]
    fn inequivalent_terms_get_distinct_classes() {
        let store = store();
        let mut arena = ExprArena::new();
        let terms = [
            parse(&mut arena, r"\x. x").unwrap(),
            parse(&mut arena, r"\x. x x").unwrap(),
            parse(&mut arena, r"\x. x + y").unwrap(),
            parse(&mut arena, r"\x. x + z").unwrap(), // free var differs
        ];
        let classes: Vec<ClassId> = terms
            .iter()
            .map(|&t| store.insert(&arena, t).class)
            .collect();
        for i in 0..classes.len() {
            for j in 0..i {
                assert_ne!(classes[i], classes[j], "terms {i} and {j} merged");
            }
        }
    }

    #[test]
    fn batch_matches_singles_and_preserves_order() {
        let mut arena = ExprArena::new();
        let roots: Vec<NodeId> = [r"\a. a", r"\b. b", "v + 7", r"\c. c + (v+7)"]
            .iter()
            .map(|s| parse(&mut arena, s).unwrap())
            .collect();

        let singles = store();
        let one_by_one: Vec<ClassId> = roots
            .iter()
            .map(|&r| singles.insert(&arena, r).class)
            .collect();

        let batched = store();
        let batch = batched.insert_batch(&arena, &roots);
        assert_eq!(batch.len(), roots.len());
        // Same partition: term i and j share a class in one store iff they
        // do in the other.
        for i in 0..roots.len() {
            for j in 0..roots.len() {
                assert_eq!(
                    one_by_one[i] == one_by_one[j],
                    batch[i].class == batch[j].class,
                );
            }
        }
        assert!(batch[0].fresh && !batch[1].fresh);
    }

    #[test]
    fn lookup_does_not_ingest() {
        let store = store();
        let mut arena = ExprArena::new();
        let t = parse(&mut arena, r"\x. x * x").unwrap();
        assert_eq!(store.lookup(&arena, t), None);
        let inserted = store.insert(&arena, t);
        let alpha = parse(&mut arena, r"\q. q * q").unwrap();
        assert_eq!(store.lookup(&arena, alpha), Some(inserted.class));
        assert_eq!(store.num_terms(), 1);
    }

    #[test]
    fn representative_is_alpha_equivalent_to_members() {
        let store = store();
        let mut arena = ExprArena::new();
        let t = parse(&mut arena, r"\x. \y. x + y*7").unwrap();
        let outcome = store.insert(&arena, t);
        let mut dst = ExprArena::new();
        let rep = store.representative_into(outcome.class, &mut dst);
        assert!(lambda_lang::alpha_eq(&arena, t, &dst, rep));
        assert_eq!(store.node_count(outcome.class), arena.subtree_size(t));
        assert_eq!(
            store.canonical_text(outcome.class),
            r"\. \. add %1 (mul %0 7)"
        );
    }

    #[test]
    fn alpha_duplicates_share_resident_canon_storage() {
        // Ten alpha-renamings of one term: one class, and the canon DAG
        // holds the structure exactly once.
        let store = store();
        let mut arena = ExprArena::new();
        for i in 0..10 {
            let src = format!(r"\v{i}. v{i} + (w * 7)");
            let t = parse(&mut arena, &src).unwrap();
            store.insert(&arena, t);
        }
        assert_eq!(store.num_classes(), 1);
        let dag = store.canon_dag_stats();
        assert_eq!(dag.logical_nodes, 10); // one 10-node canonical tree
        assert_eq!(dag.resident_nodes, 10); // …resident exactly once
                                            // A second, overlapping term shares its common suffix.
        let t2 = parse(&mut arena, r"\q. q * (w * 7)").unwrap();
        store.insert(&arena, t2);
        let dag2 = store.canon_dag_stats();
        assert!(
            dag2.resident_nodes < dag2.logical_nodes,
            "cross-class sharing: {dag2:?}"
        );
    }

    #[test]
    fn contains_batch_matches_single_probes() {
        let store: AlphaStore<u64> = AlphaStore::builder().seed(0xBA7C).subexpressions(1).build();
        let mut arena = ExprArena::new();
        let t = parse(&mut arena, r"foo (\x. x + 7) (v * 3)").unwrap();
        store.insert(&arena, t);
        let patterns: Vec<NodeId> = [r"\p. p + 7", "v * 3", "v * 4", "foo", r"\z. z"]
            .iter()
            .map(|s| parse(&mut arena, s).unwrap())
            .collect();
        let batch = store.contains_batch(&arena, &patterns);
        for (i, &p) in patterns.iter().enumerate() {
            assert_eq!(batch[i], store.contains(&arena, p), "pattern {i}");
        }
        assert!(batch[0].is_some() && batch[1].is_some());
        assert!(batch[2].is_none() && batch[4].is_none());
    }

    #[test]
    fn narrow_hashes_surface_collisions_without_merging() {
        // At b = 16 random inequivalent terms collide readily (the
        // Appendix B study); the store must keep them separate and count
        // the collisions rather than merge unconfirmed.
        use rand::rngs::StdRng;
        use rand::SeedableRng;
        let store: AlphaStore<u16> = AlphaStore::with_shards(HashScheme::new(3), 4);
        let mut arena = ExprArena::new();
        let mut rng = StdRng::seed_from_u64(11);
        let mut roots = Vec::new();
        for _ in 0..600 {
            roots.push(expr_gen::balanced(&mut arena, 30, &mut rng));
        }
        let outcomes = store.insert_batch(&arena, &roots);

        // Exactness check against ground truth on every pair.
        for i in 0..roots.len() {
            for j in 0..i {
                let same_class = outcomes[i].class == outcomes[j].class;
                let equivalent = lambda_lang::alpha_eq(&arena, roots[i], &arena, roots[j]);
                assert_eq!(same_class, equivalent, "pair ({i},{j})");
            }
        }
        let stats = store.stats();
        assert!(stats.is_exact());
        assert!(
            stats.hash_collisions > 0,
            "600 random 30-node terms at b=16 should collide at least once: {stats}"
        );
    }

    #[test]
    fn class_ids_round_trip_through_bits() {
        let id = ClassId {
            shard: 7,
            index: 123_456,
        };
        assert_eq!(ClassId::from_bits(id.to_bits()), id);
        assert_eq!(format!("{id:?}"), "c7.123456");
    }
}
