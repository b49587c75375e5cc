//! The hash-consed canon DAG: one shared, append-only node table for every
//! canonical form the store holds.
//!
//! ## Why
//!
//! The store used to own one standalone [`DbArena`] per class — and, at
//! [`Granularity::Subexpressions`](crate::Granularity::Subexpressions),
//! per indexed subterm class. Canonical forms overlap massively (every
//! subterm of a spine shares its suffix with every larger subterm; alpha-
//! duplicated corpora repeat whole trees), so the resident bytes were a
//! large multiple of the distinct structure. The paper's own framing (§3)
//! is that the corpus of equivalence classes *is* a DAG; this module makes
//! the storage match: canonical de Bruijn nodes are **interned once** into
//! a [`CanonTable`], children are [`CanonRef`]s, and classes hold a single
//! root ref.
//!
//! ## Exactness
//!
//! Interning is keyed on the node itself (`HashMap<CanonNode, index>`,
//! compared by `Eq`), and de Bruijn structure is context-free, so by
//! induction **two refs are equal iff the terms they root are identical**.
//! That upgrades merge confirmation: when both sides are interned, `db_eq`
//! is one ref compare; only *frontier* terms (not yet interned — the root-
//! granularity hot path, and read-only queries) fall back to a structural
//! walk against the DAG ([`eq_frontier`]). Either way no merge is ever
//! taken on hash equality alone.
//!
//! ## Concurrency
//!
//! The table is sharded by node hash ([`DEFAULT_TABLE_SHARDS`] stripes
//! unless the builder configures another power of two). Each stripe holds
//! its nodes in an append-only `RwLock<Vec<CanonNode>>` plus an interning
//! map behind a `Mutex`. Readers use a [`TableView`], which lazily caches
//! one read guard per stripe so a whole compare or extraction walk costs
//! one batch of lock acquisitions, not one per node. Lock order: store locks are always taken **before**
//! table locks (maintenance → WAL → store shards → canon table), and
//! interning never holds more than one table lock at a time, so the lock
//! graph is acyclic. A [`TableView`] must be [released](TableView::release)
//! before its thread interns (read→write upgrade on one stripe would
//! deadlock); the store does this exactly where a fresh class interns its
//! frontier canon.

use alpha_hash::combine::mix64;
use lambda_lang::canon::{CanonNode, CanonRef, NameId};
use lambda_lang::debruijn::{DbArena, DbId, DbNode};
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hash, Hasher};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, RwLock, RwLockReadGuard};

/// Default number of lock stripes in a [`CanonTable`] — the value the
/// table always used before stripe counts became builder-configurable.
/// Refs pack the stripe into their low bits, but nothing **on disk**
/// depends on the count (serialization uses flat topological positions,
/// not refs), so it is a per-process concurrency knob: the same
/// directory can be reopened under any stripe count.
pub(crate) const DEFAULT_TABLE_SHARDS: usize = 16;

/// Largest permitted stripe count: 8 stripe bits still leave 2^24 nodes
/// of packed-ref capacity per stripe, and lock stripes beyond the core
/// count stop paying for themselves long before 256.
pub(crate) const MAX_TABLE_SHARDS: usize = 256;

/// The adaptive stripe default: enough stripes to cover the machine's
/// cores, never fewer than the classic 16 (so small boxes keep exactly
/// the historical layout and its benchmark numbers), never more than
/// [`MAX_TABLE_SHARDS`].
pub(crate) fn default_table_shards() -> usize {
    std::thread::available_parallelism()
        .map_or(DEFAULT_TABLE_SHARDS, |n| n.get().next_power_of_two())
        .clamp(DEFAULT_TABLE_SHARDS, MAX_TABLE_SHARDS)
}

#[inline]
fn pack_ref(shard_bits: u32, shard: usize, index: u32) -> CanonRef {
    // A hard check, not a debug_assert: a truncated shift would alias two
    // distinct nodes under one ref, silently breaking the hash-consing
    // invariant (ref equality ⟺ term identity) the store's exactness
    // rests on. 2^(32-bits) nodes per stripe is the packing's capacity.
    assert!(
        // u64 shift: with a single stripe `shard_bits` is 0 and the
        // capacity is the full 2^32, which a u32 shift cannot express.
        (index as u64) < (1u64 << (32 - shard_bits)),
        "canon table stripe overflow: {index} does not fit a packed CanonRef"
    );
    CanonRef::from_bits((index << shard_bits) | shard as u32)
}

#[inline]
fn unpack_ref(shard_bits: u32, shard_mask: u32, r: CanonRef) -> (usize, usize) {
    let bits = r.to_bits();
    ((bits & shard_mask) as usize, (bits >> shard_bits) as usize)
}

/// A fast, deterministic hasher for [`CanonNode`] interning maps and for
/// routing nodes to table stripes (std's default hasher is both slower and
/// randomly seeded; stripe routing wants determinism for reproducible
/// profiles). Folds every written word through the splitmix64 finaliser.
#[derive(Default)]
pub(crate) struct NodeHasher(u64);

impl Hasher for NodeHasher {
    #[inline]
    fn finish(&self) -> u64 {
        self.0
    }

    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut buf = [0u8; 8];
            buf[..chunk.len()].copy_from_slice(chunk);
            self.0 = mix64(self.0 ^ u64::from_le_bytes(buf));
        }
    }

    #[inline]
    fn write_u8(&mut self, v: u8) {
        self.0 = mix64(self.0 ^ v as u64);
    }

    #[inline]
    fn write_u32(&mut self, v: u32) {
        self.0 = mix64(self.0 ^ v as u64);
    }

    #[inline]
    fn write_u64(&mut self, v: u64) {
        self.0 = mix64(self.0 ^ v);
    }

    #[inline]
    fn write_usize(&mut self, v: usize) {
        self.0 = mix64(self.0 ^ v as u64);
    }
}

type NodeMap = HashMap<CanonNode, u32, BuildHasherDefault<NodeHasher>>;

#[inline]
fn node_hash(node: &CanonNode) -> u64 {
    let mut h = NodeHasher::default();
    node.hash(&mut h);
    h.finish()
}

/// One lock stripe of the table: append-only node storage plus the
/// interning map over it. The map mutex serialises interning per stripe;
/// the node `RwLock` lets any number of [`TableView`]s read concurrently
/// with interning on *other* stripes.
struct TableShard {
    nodes: RwLock<Vec<CanonNode>>,
    map: Mutex<NodeMap>,
}

impl TableShard {
    fn new() -> Self {
        TableShard {
            nodes: RwLock::new(Vec::new()),
            map: Mutex::new(NodeMap::default()),
        }
    }
}

/// The shared, sharded, hash-consed canon node table. One per
/// [`AlphaStore`](crate::AlphaStore); every class and every interned
/// prepared entry holds [`CanonRef`]s into it.
pub(crate) struct CanonTable {
    shards: Vec<TableShard>,
    /// log2 of the stripe count: how far packed refs shift their index.
    shard_bits: u32,
    /// Stripe count minus one, for masking node hashes and packed refs.
    shard_mask: u32,
    names: RwLock<Vec<Box<str>>>,
    name_map: Mutex<HashMap<Box<str>, u32>>,
    /// Intern probes answered from the table (node already resident).
    hits: AtomicU64,
    /// Intern probes that appended a fresh node. Equals
    /// [`resident_nodes`](Self::resident_nodes) exactly: the stripe map
    /// mutex is held across the check-and-insert, so no probe is double
    /// counted.
    misses: AtomicU64,
}

impl CanonTable {
    /// A table with the default stripe count. Production stores size the
    /// table through the builder; this is the test shorthand.
    #[cfg(test)]
    pub(crate) fn new() -> Self {
        Self::with_shards(DEFAULT_TABLE_SHARDS)
    }

    /// A table with `count` lock stripes. `count` must be a power of two
    /// in `1..=`[`MAX_TABLE_SHARDS`] — the builder validates before
    /// calling, so violation here is a store bug, not bad user input.
    pub(crate) fn with_shards(count: usize) -> Self {
        assert!(
            count.is_power_of_two() && count <= MAX_TABLE_SHARDS,
            "canon table stripe count must be a power of two in 1..={MAX_TABLE_SHARDS}, got {count}"
        );
        CanonTable {
            shards: (0..count).map(|_| TableShard::new()).collect(),
            shard_bits: count.trailing_zeros(),
            shard_mask: count as u32 - 1,
            names: RwLock::new(Vec::new()),
            name_map: Mutex::new(HashMap::new()),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
        }
    }

    /// Number of lock stripes this table was built with.
    pub(crate) fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// Interns one node (children already interned), returning its ref.
    /// Idempotent: equal nodes always return the same ref.
    pub(crate) fn intern_node(&self, node: CanonNode) -> CanonRef {
        let shard = (node_hash(&node) & u64::from(self.shard_mask)) as usize;
        let stripe = &self.shards[shard];
        let mut map = stripe.map.lock().expect("canon map poisoned");
        if let Some(&index) = map.get(&node) {
            self.hits.fetch_add(1, Ordering::Relaxed);
            return pack_ref(self.shard_bits, shard, index);
        }
        let mut nodes = stripe.nodes.write().expect("canon nodes poisoned");
        let index = u32::try_from(nodes.len()).expect("canon stripe overflow");
        nodes.push(node);
        drop(nodes);
        map.insert(node, index);
        self.misses.fetch_add(1, Ordering::Relaxed);
        pack_ref(self.shard_bits, shard, index)
    }

    /// `(hits, misses)` of the intern probes since construction — the
    /// dedup ratio of the hash-consing layer, read by the obs report.
    pub(crate) fn intern_stats(&self) -> (u64, u64) {
        (
            self.hits.load(Ordering::Relaxed),
            self.misses.load(Ordering::Relaxed),
        )
    }

    /// Interns a free-variable name, returning its global id. Idempotent.
    pub(crate) fn intern_name(&self, name: &str) -> NameId {
        let mut map = self.name_map.lock().expect("name map poisoned");
        if let Some(&index) = map.get(name) {
            return NameId::from_index(index);
        }
        let mut names = self.names.write().expect("names poisoned");
        let index = u32::try_from(names.len()).expect("name table overflow");
        names.push(name.into());
        drop(names);
        map.insert(name.into(), index);
        NameId::from_index(index)
    }

    /// Interns every node of a [`DbArena`] term bottom-up (arena order is
    /// topological), returning one ref per arena position. The whole-arena
    /// variant exists because decoded records address entries by position.
    pub(crate) fn intern_arena_refs(&self, arena: &DbArena) -> Vec<CanonRef> {
        let names: Vec<NameId> = arena.names().map(|n| self.intern_name(n)).collect();
        let mut refs: Vec<CanonRef> = Vec::with_capacity(arena.len());
        for node in arena.nodes() {
            let canon = match node {
                DbNode::BVar(i) => CanonNode::BVar(i),
                DbNode::FVar(sym) => CanonNode::FVar(names[sym.index() as usize]),
                DbNode::Lam(b) => CanonNode::Lam(refs[b.index()]),
                DbNode::App(f, a) => CanonNode::App(refs[f.index()], refs[a.index()]),
                DbNode::Let(r, b) => CanonNode::Let(refs[r.index()], refs[b.index()]),
                DbNode::Lit(l) => CanonNode::Lit(l),
            };
            refs.push(self.intern_node(canon));
        }
        refs
    }

    /// Interns the term rooted at `root` of `arena`, returning its ref —
    /// the frontier→DAG crossing for freshly created classes.
    pub(crate) fn intern_arena(&self, arena: &DbArena, root: DbId) -> CanonRef {
        self.intern_arena_refs(arena)[root.index()]
    }

    /// Resident distinct nodes across all stripes.
    pub(crate) fn resident_nodes(&self) -> u64 {
        self.shards
            .iter()
            .map(|s| s.nodes.read().expect("canon nodes poisoned").len() as u64)
            .sum()
    }

    /// Resident distinct names and their total string bytes.
    pub(crate) fn resident_names(&self) -> (u64, u64) {
        let names = self.names.read().expect("names poisoned");
        let bytes: u64 = names.iter().map(|n| n.len() as u64).sum();
        (names.len() as u64, bytes)
    }
}

/// A read-only view of a [`CanonTable`] that caches one read guard per
/// stripe (plus the name table), acquired all-at-once on first use, so a
/// DAG walk costs O(stripes) lock acquisitions and then indexes guards
/// directly — no per-node branching. Create one per locked sweep, and
/// [release](TableView::release) it before interning on the same thread.
pub(crate) struct TableView<'t> {
    table: &'t CanonTable,
    guards: Option<ViewGuards<'t>>,
}

/// The acquired read guards: every node stripe plus the name table.
pub(crate) struct ViewGuards<'t> {
    nodes: Vec<RwLockReadGuard<'t, Vec<CanonNode>>>,
    /// Copied from the owning table so ref unpacking needs no extra hop.
    shard_bits: u32,
    shard_mask: u32,
    names: RwLockReadGuard<'t, Vec<Box<str>>>,
}

impl ViewGuards<'_> {
    /// The node behind `r` — two array indexes, no locking.
    #[inline]
    pub(crate) fn node(&self, r: CanonRef) -> CanonNode {
        let (shard, index) = unpack_ref(self.shard_bits, self.shard_mask, r);
        self.nodes[shard][index]
    }

    /// The name string behind `id`.
    #[inline]
    pub(crate) fn name(&self, id: NameId) -> &str {
        &self.names[id.index() as usize]
    }

    /// Flattens the guard set to plain slices — hot walks resolve these
    /// once per walk and then read nodes with a single dependent load
    /// each, instead of re-dereferencing a guard per node. One small
    /// allocation per walk, amortised over its whole node count.
    #[inline]
    pub(crate) fn slices(&self) -> Vec<&[CanonNode]> {
        self.nodes.iter().map(|g| g.as_slice()).collect()
    }
}

impl<'t> TableView<'t> {
    pub(crate) fn new(table: &'t CanonTable) -> Self {
        TableView {
            table,
            guards: None,
        }
    }

    /// The guard set, acquired on first use. Hoist this out of node-walk
    /// loops: the returned reference indexes without branches.
    pub(crate) fn guards(&mut self) -> &ViewGuards<'t> {
        let table = self.table;
        self.guards.get_or_insert_with(|| ViewGuards {
            nodes: table
                .shards
                .iter()
                .map(|s| s.nodes.read().expect("canon nodes poisoned"))
                .collect(),
            shard_bits: table.shard_bits,
            shard_mask: table.shard_mask,
            names: table.names.read().expect("names poisoned"),
        })
    }

    /// The node behind `r` (acquiring the guards if needed).
    pub(crate) fn node(&mut self, r: CanonRef) -> CanonNode {
        self.guards().node(r)
    }

    /// The name string behind `id` (acquiring the guards if needed).
    pub(crate) fn name(&mut self, id: NameId) -> &str {
        self.guards();
        // Reborrow through the field so the returned &str ties to the
        // stored guards, not to the &mut self borrow `guards()` took.
        self.guards.as_ref().expect("just acquired").name(id)
    }

    /// Drops every cached guard. **Required** before the owning thread
    /// interns (a stripe's read guard would deadlock its write lock).
    pub(crate) fn release(&mut self) {
        self.guards = None;
    }
}

/// Structural equality between an interned term (`cref` in the DAG) and a
/// frontier term (`root` in `arena`) — the walk-compare that confirms
/// merges at the intern frontier. Exactly [`lambda_lang::debruijn::db_eq`]
/// semantics: indices by value, free variables by name, literals by value.
/// `steps` accumulates the number of node pairs visited (the walk length
/// the instrumentation seam reports for frontier merge confirmations);
/// pass `&mut 0` when the count is not wanted.
pub(crate) fn eq_frontier(
    view: &mut TableView<'_>,
    cref: CanonRef,
    arena: &DbArena,
    root: DbId,
    steps: &mut u64,
) -> bool {
    // Acquire the guard set once and flatten it to slices; the walk then
    // costs one dependent load per table node, like an arena walk.
    let guards = view.guards();
    let (shard_bits, shard_mask) = (guards.shard_bits, guards.shard_mask);
    let slices = guards.slices();
    let node_at = |r: CanonRef| {
        let (shard, index) = unpack_ref(shard_bits, shard_mask, r);
        slices[shard][index]
    };
    let mut stack: Vec<(CanonRef, DbId)> = vec![(cref, root)];
    while let Some((r, d)) = stack.pop() {
        *steps += 1;
        match (node_at(r), arena.node(d)) {
            (CanonNode::BVar(i), DbNode::BVar(j)) => {
                if i != j {
                    return false;
                }
            }
            (CanonNode::FVar(id), DbNode::FVar(sym)) => {
                if guards.name(id) != arena.name(sym) {
                    return false;
                }
            }
            (CanonNode::Lit(l1), DbNode::Lit(l2)) => {
                if l1 != l2 {
                    return false;
                }
            }
            (CanonNode::Lam(b1), DbNode::Lam(b2)) => stack.push((b1, b2)),
            (CanonNode::App(f1, a1), DbNode::App(f2, a2)) => {
                stack.push((a1, a2));
                stack.push((f1, f2));
            }
            (CanonNode::Let(r1, b1), DbNode::Let(r2, b2)) => {
                stack.push((b1, b2));
                stack.push((r1, r2));
            }
            _ => return false,
        }
    }
    true
}

/// Extracts the sub-DAG reachable from `roots` into a fresh [`DbArena`],
/// **preserving sharing** (each distinct ref becomes one arena node), and
/// returns the arena ids corresponding to `roots`. This is how classes
/// leave the table: representatives, printing, and snapshot encoding all
/// serialize through this walk. Children land at smaller arena positions
/// than parents (post-order emission), matching the wire format's
/// topological-order rule.
pub(crate) fn extract_canon(
    view: &mut TableView<'_>,
    roots: &[CanonRef],
    dst: &mut DbArena,
) -> Vec<DbId> {
    let mut memo: HashMap<u32, DbId> = HashMap::new();
    let mut name_memo: HashMap<u32, lambda_lang::Symbol> = HashMap::new();
    let mut stack: Vec<(CanonRef, bool)> = Vec::new();
    for &root in roots {
        stack.push((root, false));
        while let Some((r, expanded)) = stack.pop() {
            if memo.contains_key(&r.to_bits()) {
                continue;
            }
            let node = view.node(r);
            if !expanded {
                stack.push((r, true));
                let mut push_child = |c: CanonRef, memo: &HashMap<u32, DbId>| {
                    if !memo.contains_key(&c.to_bits()) {
                        stack.push((c, false));
                    }
                };
                match node {
                    CanonNode::Lam(b) => push_child(b, &memo),
                    CanonNode::App(f, a) => {
                        push_child(a, &memo);
                        push_child(f, &memo);
                    }
                    CanonNode::Let(rh, b) => {
                        push_child(b, &memo);
                        push_child(rh, &memo);
                    }
                    _ => {}
                }
            } else {
                let db = match node {
                    CanonNode::BVar(i) => DbNode::BVar(i),
                    CanonNode::FVar(id) => {
                        let sym = match name_memo.get(&id.index()) {
                            Some(&sym) => sym,
                            None => {
                                let sym = dst.intern(view.name(id));
                                name_memo.insert(id.index(), sym);
                                sym
                            }
                        };
                        DbNode::FVar(sym)
                    }
                    CanonNode::Lam(b) => DbNode::Lam(memo[&b.to_bits()]),
                    CanonNode::App(f, a) => DbNode::App(memo[&f.to_bits()], memo[&a.to_bits()]),
                    CanonNode::Let(rh, b) => DbNode::Let(memo[&rh.to_bits()], memo[&b.to_bits()]),
                    CanonNode::Lit(l) => DbNode::Lit(l),
                };
                memo.insert(r.to_bits(), dst.push(db));
            }
        }
    }
    roots.iter().map(|r| memo[&r.to_bits()]).collect()
}

/// Convenience wrapper: extracts one interned term as a standalone
/// `(arena, root)` pair.
pub(crate) fn extract_one(view: &mut TableView<'_>, cref: CanonRef) -> (DbArena, DbId) {
    let mut dst = DbArena::new();
    let root = extract_canon(view, &[cref], &mut dst)[0];
    (dst, root)
}

#[cfg(test)]
mod tests {
    use super::*;
    use lambda_lang::debruijn::{db_eq, db_print, to_debruijn};
    use lambda_lang::parse::parse;
    use lambda_lang::ExprArena;

    fn canon_of(src: &str) -> (DbArena, DbId) {
        let mut a = ExprArena::new();
        let root = parse(&mut a, src).unwrap();
        to_debruijn(&a, root)
    }

    #[test]
    fn interning_is_idempotent_and_identity_preserving() {
        let table = CanonTable::new();
        let (c1, r1) = canon_of(r"\x. \y. x + y*7");
        let (c2, r2) = canon_of(r"\p. \q. p + q*7"); // alpha-equal: same canon
        let (c3, r3) = canon_of(r"\p. \q. q + p*7"); // different term
        let i1 = table.intern_arena(&c1, r1);
        let i2 = table.intern_arena(&c2, r2);
        let i3 = table.intern_arena(&c3, r3);
        assert_eq!(i1, i2, "identical canonical forms intern to one ref");
        assert_ne!(i1, i3, "distinct terms intern to distinct refs");
        // Second interning allocated nothing new.
        let resident = table.resident_nodes();
        assert_eq!(table.intern_arena(&c1, r1), i1);
        assert_eq!(table.resident_nodes(), resident);
    }

    #[test]
    fn shared_suffixes_are_stored_once() {
        let table = CanonTable::new();
        // Both terms contain the subterm v + 7 — its nodes intern once.
        let (c1, r1) = canon_of("(v + 7) * 3");
        let (c2, r2) = canon_of("(v + 7) * 4");
        table.intern_arena(&c1, r1);
        let after_first = table.resident_nodes();
        table.intern_arena(&c2, r2);
        let after_second = table.resident_nodes();
        // Only `4` and the two fresh applications of `mul` are new.
        assert!(
            after_second - after_first < c2.len() as u64 / 2,
            "second term should reuse the shared v+7 structure: {after_first} -> {after_second}"
        );
    }

    #[test]
    fn eq_frontier_agrees_with_db_eq() {
        let table = CanonTable::new();
        let samples = [
            (r"\x. x + y", r"\p. p + y", true),
            (r"\x. x + y", r"\q. q + z", false),
            (r"\x. \x. x", r"\a. \b. b", true),
            ("let bar = x+1 in bar*y", "let p = x+1 in p*y", true),
            ("let x = x in x", "let y = y in y", false),
            ("42", "42", true),
            ("42", "43", false),
        ];
        for (s1, s2, expected) in samples {
            let (c1, r1) = canon_of(s1);
            let (c2, r2) = canon_of(s2);
            let i1 = table.intern_arena(&c1, r1);
            let mut view = TableView::new(&table);
            let mut steps = 0u64;
            assert_eq!(
                eq_frontier(&mut view, i1, &c2, r2, &mut steps),
                expected,
                "{s1} vs {s2}"
            );
            assert!(steps > 0, "the walk visited at least the roots");
            assert_eq!(db_eq(&c1, r1, &c2, r2), expected);
        }
    }

    #[test]
    fn extract_round_trips_and_preserves_sharing() {
        let table = CanonTable::new();
        let (c, r) = canon_of(r"foo (\x. x+7) (\y. y+7) ((v+1) * (v+1))");
        let cref = table.intern_arena(&c, r);
        let mut view = TableView::new(&table);
        let (out, out_root) = extract_one(&mut view, cref);
        assert!(db_eq(&c, r, &out, out_root), "extraction changed the term");
        // Sharing survives: the extracted arena holds one node per
        // *distinct* subterm, strictly fewer than the tree size.
        assert!(out.len() < c.len(), "{} vs {}", out.len(), c.len());
        assert_eq!(db_print(&out, out_root), db_print(&c, r));
    }

    #[test]
    fn deep_terms_are_stack_safe_through_the_table() {
        let table = CanonTable::new();
        let mut a = ExprArena::new();
        let x = a.intern("x");
        let mut e = a.var(x);
        for _ in 0..120_000 {
            e = a.lam(x, e);
        }
        let (c, r) = to_debruijn(&a, e);
        let cref = table.intern_arena(&c, r);
        assert_eq!(table.resident_nodes(), 120_001);
        let mut view = TableView::new(&table);
        let (out, out_root) = extract_one(&mut view, cref);
        assert_eq!(out.len(), 120_001);
        assert!(matches!(out.node(out_root), DbNode::Lam(_)));
    }

    #[test]
    fn stripe_counts_are_interchangeable_views_of_the_same_terms() {
        // The stripe count is a per-process concurrency knob: the same
        // corpus interned under 1, 4, or 256 stripes yields identical
        // equality structure (refs differ in packing only).
        let sources = [r"\x. x + y", r"\p. p + y", r"\q. q + z", "v * (v + 1)"];
        let canons: Vec<(DbArena, DbId)> = sources.iter().map(|s| canon_of(s)).collect();
        let baseline = CanonTable::new();
        let base_refs: Vec<CanonRef> = canons
            .iter()
            .map(|(c, r)| baseline.intern_arena(c, *r))
            .collect();
        for count in [1usize, 4, MAX_TABLE_SHARDS] {
            let table = CanonTable::with_shards(count);
            assert_eq!(table.shard_count(), count);
            let refs: Vec<CanonRef> = canons
                .iter()
                .map(|(c, r)| table.intern_arena(c, *r))
                .collect();
            for i in 0..refs.len() {
                for j in 0..refs.len() {
                    assert_eq!(
                        refs[i] == refs[j],
                        base_refs[i] == base_refs[j],
                        "{count} stripes disagree on {} vs {}",
                        sources[i],
                        sources[j]
                    );
                }
            }
            assert_eq!(table.resident_nodes(), baseline.resident_nodes());
            // Extraction round-trips under every stripe count.
            let mut view = TableView::new(&table);
            let (out, out_root) = extract_one(&mut view, refs[0]);
            assert!(db_eq(&canons[0].0, canons[0].1, &out, out_root));
        }
    }

    #[test]
    fn concurrent_interning_converges_to_one_ref_per_term() {
        let table = CanonTable::new();
        let sources = [r"\x. x + 1", r"\y. y + 1", "v * (v + 1)", r"\a. \b. a b"];
        let canons: Vec<(DbArena, DbId)> = sources.iter().map(|s| canon_of(s)).collect();
        let refs: Vec<Vec<CanonRef>> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..4)
                .map(|_| {
                    scope.spawn(|| {
                        canons
                            .iter()
                            .map(|(c, r)| table.intern_arena(c, *r))
                            .collect::<Vec<_>>()
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        for other in &refs[1..] {
            assert_eq!(&refs[0], other);
        }
        assert_eq!(refs[0][0], refs[0][1], "alpha-equal terms share a ref");
    }
}
