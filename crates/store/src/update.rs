//! Incremental re-ingest: [`AlphaStore::update`] applies a local rewrite
//! to a previously ingested term **without** re-hashing, re-canonicalizing
//! or re-indexing the parts of the term the rewrite did not touch.
//!
//! The paper's §6.3 observation is that a local edit perturbs a term's
//! alpha-hash only along the spine from the edit site to the root. This
//! module turns that observation into a store operation:
//!
//! * **Hashing** — under [`Granularity::Roots`]
//!   the store keeps a bounded cache of live
//!   [`IncrementalHasher`]s,
//!   one per recently updated term, so a rewrite re-hashes the patch plus
//!   the O(spine) path to the root instead of the whole term.
//! * **Canonical storage** — the rewritten canonical form is produced by
//!   *splicing* the patch's canon into the class's existing canon along
//!   the rewrite path. Every untouched subtree reuses its interned
//!   [`CanonRef`]; only the spine's nodes are re-interned.
//! * **Durability** — the WAL records a format-v3 **delta**: the term
//!   handle, the old root hash (an integrity anchor), the rewrite path
//!   and the patch's canonical node run. Recovery re-splices the delta
//!   through this same code, re-confirming the result exactly like insert
//!   replay, so exactness (zero unconfirmed merges) survives restarts.
//! * **Subexpression index** — under
//!   [`Granularity::Subexpressions`]
//!   the update diffs the term's old `(class, multiplicity)` pairs against
//!   the rewritten term's and touches only the entries whose membership
//!   actually changed; unchanged pairs keep their classes without a probe
//!   (class ↔ canon is a bijection, so ref equality decides).
//!
//! ## Semantics: normalized delete + re-insert
//!
//! `update(term, rewrite)` behaves exactly as if the term were deleted
//! and the **effective rewritten term** were re-inserted under the same
//! [`TermId`], where the effective term is built from canonical forms:
//! the class's canonical representative (fresh machine binders) with the
//! *patch's* canonical representative spliced in at `rewrite.path`. The
//! patch contributes only its canonical content — its binder names are
//! discarded, its free variables keep their names. This makes the result
//! independent of which alpha-variant originally created the class
//! (live, replayed and [previewed](AlphaStore::preview_rewrite) updates
//! all agree bit for bit). [`AlphaStore::preview_rewrite`] returns the
//! effective term so callers (and the differential oracle tests) can see
//! precisely what the update ingests.
//!
//! Because every machine-generated binder name contains `'%'` (the
//! interner's freshening scheme) and source names never do, a replacement
//! whose free variables mention a `'%'` name could only be trying to
//! reference — and be captured by — a binder of the host's canonical
//! representative. Those rewrites are rejected up front with
//! [`StoreError::InvalidRewrite`] rather than silently mis-hashing (the
//! by-name capture hazard `alpha_hash::incremental` documents). Accepted
//! patches are therefore always closed over the host's binders.
//!
//! ## What an update does **not** do
//!
//! The term count is unchanged (the same handle is repointed), so
//! [`StoreStats::terms_ingested`](crate::StoreStats::terms_ingested) does
//! not move. Classes are never removed: a class whose last member is
//! rewritten away stays resident with `members == 0` (and possibly
//! `occurrences == 0`) and is skipped by root-only probes — the same
//! stale-class rule the rest of the store follows.

use crate::canon::rebuild_named;
use crate::dag::{extract_one, CanonTable, TableView};
use crate::granularity::Granularity;
use crate::persist::format::RawDelta;
use crate::persist::wal::{frame_commit, frame_delta};
use crate::persist::PersistError;
use crate::prepare::{PreparedCanon, PreparedTerm, Preparer, SubEntry};
use crate::stats::StatCounters;
use crate::store::{AlphaStore, ClassId, StoreError, SubexprSummary, TermId};
use alpha_hash::combine::HashWord;
use alpha_hash::incremental::IncrementalHasher;
use lambda_lang::arena::{Children, ExprArena, NodeId};
use lambda_lang::canon::{CanonNode, CanonRef};
use lambda_lang::debruijn::{to_debruijn, DbArena, DbId};
use std::collections::HashMap;

/// One local rewrite of a previously ingested term: replace the subtree
/// at `path` (child-slot steps from the root of the term's **canonical
/// representative**) with the term rooted at `root` in `arena`.
///
/// Path slots follow [`ExprNode::children`](lambda_lang::arena::ExprNode)
/// order: a lambda's body is slot `0`; an application is `0` = function,
/// `1` = argument; a let is `0` = bound expression, `1` = body. An empty
/// path replaces the whole term.
///
/// The replacement must be closed over the host's binders: its free
/// variables are global names (never containing `'%'`, the marker of
/// machine-generated binders) and its own binder names are irrelevant —
/// only its canonical content is spliced in.
#[derive(Clone, Copy, Debug)]
pub struct Rewrite<'a> {
    /// Child-slot steps from the canonical representative's root to the
    /// replacement site.
    pub path: &'a [u32],
    /// Arena holding the replacement subterm.
    pub arena: &'a ExprArena,
    /// Root of the replacement within `arena`.
    pub root: NodeId,
}

/// What one [`AlphaStore::update`] did.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct UpdateOutcome {
    /// The updated term (the same handle that was passed in: updates
    /// repoint, they never reissue).
    pub term: TermId,
    /// The class the term belonged to before the rewrite.
    pub old_class: ClassId,
    /// The class the rewritten term belongs to now.
    pub class: ClassId,
    /// `true` iff the rewrite created its class (no existing term or
    /// indexed subexpression was alpha-equivalent to the result).
    pub fresh: bool,
    /// What the update did to the subexpression index. `indexed` counts
    /// the rewritten term's subexpression occurrences; `merged` counts
    /// those that landed in classes that already existed (pairs the old
    /// version of the term already held count as merged). All-zero in
    /// `Roots` mode.
    pub subs: SubexprSummary,
    /// Nodes re-hashed to produce the new root hash: patch plus spine in
    /// `Roots` mode (the incremental win), the full rewritten term in
    /// `Subexpressions` mode (the index needs every node's hash anyway).
    pub spine_nodes_rehashed: u64,
}

/// How many per-term incremental hashers the store keeps alive. Each one
/// holds a named copy of its term plus O(n) hash state, so the cache is
/// deliberately small; evicted terms just pay one O(n) rebuild on their
/// next update. At capacity the least recently updated term goes.
const UPDATE_CACHE_CAP: usize = 64;

/// The store's incremental-rewrite state: a bounded map from
/// `TermId::to_bits` to the live [`IncrementalHasher`] tracking that
/// term's evolving named form. Guarded by the `updates` mutex, which
/// doubles as the serializer for all updates (both granularities).
pub(crate) struct UpdateCache<H: HashWord> {
    entries: HashMap<u64, CachedSpine<H>>,
    /// Count of `put` calls: the recency clock for eviction.
    tick: u64,
}

struct CachedSpine<H: HashWord> {
    /// `ClassId::to_bits` of the term's class when the hasher was last
    /// synchronized — the cache-validity check.
    class_bits: u64,
    hasher: IncrementalHasher<H>,
    /// [`UpdateCache::tick`] at the entry's last `put`.
    last_put: u64,
}

impl<H: HashWord> Default for UpdateCache<H> {
    fn default() -> Self {
        UpdateCache {
            entries: HashMap::new(),
            tick: 0,
        }
    }
}

impl<H: HashWord> UpdateCache<H> {
    /// Removes and returns the cached hasher for `term_bits` iff it is
    /// still synchronized with `class_bits`. A stale entry (the term was
    /// repointed without the cache hearing about it) is dropped.
    fn take(&mut self, term_bits: u64, class_bits: u64) -> Option<IncrementalHasher<H>> {
        let cached = self.entries.remove(&term_bits)?;
        (cached.class_bits == class_bits).then_some(cached.hasher)
    }

    /// (Re-)caches a hasher, evicting the least recently put entry at
    /// capacity (a scan of [`UPDATE_CACHE_CAP`] entries, small next to
    /// the update itself).
    fn put(&mut self, term_bits: u64, class_bits: u64, hasher: IncrementalHasher<H>) {
        if self.entries.len() >= UPDATE_CACHE_CAP && !self.entries.contains_key(&term_bits) {
            let oldest = self.entries.iter().min_by_key(|(_, e)| e.last_put);
            if let Some((&victim, _)) = oldest {
                self.entries.remove(&victim);
            }
        }
        self.tick += 1;
        let last_put = self.tick;
        self.entries.insert(
            term_bits,
            CachedSpine {
                class_bits,
                hasher,
                last_put,
            },
        );
    }
}

fn invalid(reason: impl Into<String>) -> StoreError {
    StoreError::InvalidRewrite {
        reason: reason.into(),
    }
}

/// One step of a rewrite path in a named arena.
fn child_at(children: Children, slot: u32) -> Option<NodeId> {
    match (children, slot) {
        (Children::One(b), 0) => Some(b),
        (Children::Two(f, _), 0) => Some(f),
        (Children::Two(_, a), 1) => Some(a),
        _ => None,
    }
}

/// Resolves a child-slot path from `root`, or says which step failed.
fn resolve_path_named(arena: &ExprArena, root: NodeId, path: &[u32]) -> Result<NodeId, String> {
    let mut cur = root;
    for (depth, &slot) in path.iter().enumerate() {
        let children = arena.node(cur).children();
        cur = child_at(children, slot).ok_or_else(|| {
            format!(
                "path step {depth} asks for child {slot} of a node with {} children",
                children.len()
            )
        })?;
    }
    Ok(cur)
}

/// The canonical mirror of [`child_at`].
fn canon_child(node: &CanonNode, slot: u32) -> Option<CanonRef> {
    match (node, slot) {
        (CanonNode::Lam(b), 0) => Some(*b),
        (CanonNode::App(f, _), 0) => Some(*f),
        (CanonNode::App(_, a), 1) => Some(*a),
        (CanonNode::Let(r, _), 0) => Some(*r),
        (CanonNode::Let(_, b), 1) => Some(*b),
        _ => None,
    }
}

/// `node` with the child at `slot` replaced (slot already validated).
fn canon_with_child(node: CanonNode, slot: u32, child: CanonRef) -> CanonNode {
    match (node, slot) {
        (CanonNode::Lam(_), 0) => CanonNode::Lam(child),
        (CanonNode::App(_, a), 0) => CanonNode::App(child, a),
        (CanonNode::App(f, _), 1) => CanonNode::App(f, child),
        (CanonNode::Let(_, b), 0) => CanonNode::Let(child, b),
        (CanonNode::Let(r, _), 1) => CanonNode::Let(r, child),
        _ => unreachable!("slot was validated while walking the spine"),
    }
}

/// Splices `patch` into the canon rooted at `old_root` along `path`,
/// re-interning **only the spine**: every untouched subtree keeps its
/// existing [`CanonRef`]. De Bruijn indices need no shifting — the patch
/// is closed over the host's binders (its free variables are by-name
/// `FVar`s), so its bound indices are self-contained, and the spine's
/// sibling subtrees sit at unchanged binding depths.
fn splice_canon(
    table: &CanonTable,
    old_root: CanonRef,
    path: &[u32],
    patch: CanonRef,
) -> Result<CanonRef, String> {
    if path.is_empty() {
        return Ok(patch);
    }
    let mut spine: Vec<(CanonNode, u32)> = Vec::with_capacity(path.len());
    {
        // Walk down under a read view; released before interning (the
        // table's documented view-before-write discipline).
        let mut view = TableView::new(table);
        let mut cur = old_root;
        for (depth, &slot) in path.iter().enumerate() {
            let node = view.node(cur);
            cur = canon_child(&node, slot).ok_or_else(|| {
                format!("path step {depth} asks for child {slot}, which the canonical form lacks")
            })?;
            spine.push((node, slot));
        }
    }
    let mut replacement = patch;
    for (node, slot) in spine.into_iter().rev() {
        replacement = table.intern_node(canon_with_child(node, slot, replacement));
    }
    Ok(replacement)
}

/// Rejects replacements that are not closed over the host's binders: a
/// free variable whose name contains `'%'` can only be naming a
/// machine-generated binder of the canonical representative, which the
/// by-name splice would capture (or, in the canon, silently *not*
/// capture — a mis-hash either way).
fn check_patch_closed(arena: &ExprArena, root: NodeId) -> Result<(), StoreError> {
    for &sym in lambda_lang::stats::free_vars(arena, root).keys() {
        let name = arena.name(sym);
        if name.contains('%') {
            return Err(invalid(format!(
                "replacement has free variable `{name}`: names containing '%' are \
                 machine-generated binders of the host term, and capturing them is \
                 not expressible — rewrites must be closed over the host's binders"
            )));
        }
    }
    Ok(())
}

/// Builds the **effective rewritten term** into `dst` and returns its
/// root: the class canon's named rebuild with the patch canon's named
/// rebuild spliced in at `path`. Fully deterministic given the two
/// canonical forms — the construction live updates, WAL replay and
/// [`AlphaStore::preview_rewrite`] all share.
fn build_rewritten<H: HashWord>(
    store: &AlphaStore<H>,
    old_canon: CanonRef,
    path: &[u32],
    patch: &DbArena,
    patch_root: DbId,
    dst: &mut ExprArena,
) -> Result<NodeId, String> {
    let (host_db, host_db_root) = {
        let mut view = TableView::new(&store.table);
        extract_one(&mut view, old_canon)
    };
    let host_root = rebuild_named(&host_db, host_db_root, dst);
    if path.is_empty() {
        return Ok(rebuild_named(patch, patch_root, dst));
    }
    let target = resolve_path_named(dst, host_root, path)?;
    // The fresh-name counter continues past the host's binders, so the
    // patch's binders are unique against the whole spliced term.
    let patch_named = rebuild_named(patch, patch_root, dst);
    dst.replace_node(target, dst.node(patch_named));
    Ok(host_root)
}

impl<H: HashWord> AlphaStore<H> {
    /// Applies a local rewrite to a previously ingested term, re-hashing
    /// only the patch and the spine to the root, reusing interned canon
    /// for every untouched subtree, and re-indexing only the
    /// subexpression entries whose membership changed. Durable stores log
    /// one compact WAL **delta record** instead of the full term. See the
    /// [module docs](self) for the exact semantics.
    ///
    /// ```
    /// use alpha_store::{AlphaStore, Rewrite};
    /// use lambda_lang::{parse, ExprArena};
    ///
    /// let store: AlphaStore<u64> = AlphaStore::default();
    /// let mut arena = ExprArena::new();
    /// let t = parse(&mut arena, r"\x. x + (v * 3)").unwrap();
    /// let inserted = store.insert(&arena, t);
    ///
    /// // Rewrite the multiplication argument: lam body (0), then the
    /// // application's argument (1).
    /// let patch = parse(&mut arena, "v * 4").unwrap();
    /// let outcome = store.update(
    ///     inserted.term,
    ///     Rewrite { path: &[0, 1], arena: &arena, root: patch },
    /// );
    /// assert_eq!(outcome.term, inserted.term);
    /// assert_ne!(outcome.class, inserted.class);
    /// assert_eq!(store.class_of(inserted.term), outcome.class);
    ///
    /// // The store now holds `\x. x + (v * 4)`, not the original.
    /// let rewritten = parse(&mut arena, r"\q. q + (v * 4)").unwrap();
    /// assert_eq!(store.lookup(&arena, rewritten), Some(outcome.class));
    /// assert_eq!(store.num_terms(), 1); // same handle, repointed
    /// ```
    ///
    /// # Panics
    ///
    /// Panics on any [`StoreError`] — an invalid rewrite, a read-only
    /// store, or a WAL append that failed beyond the retry policy. Use
    /// [`AlphaStore::try_update`] to handle those as errors.
    pub fn update(&self, term: TermId, rewrite: Rewrite<'_>) -> UpdateOutcome {
        self.try_update(term, rewrite)
            .unwrap_or_else(|e| panic!("update failed: {e}"))
    }

    /// [`AlphaStore::update`], but failures come back as a typed
    /// [`StoreError`]. [`StoreError::InvalidRewrite`] (unknown term, bad
    /// path, non-closed replacement) is returned **before any state
    /// changes** — store, WAL and cache are exactly as they were. A WAL
    /// failure ([`StoreError::Persist`]) likewise leaves memory
    /// untouched; it only evicts the term's cached hasher, which the
    /// next update rebuilds.
    pub fn try_update(
        &self,
        term: TermId,
        rewrite: Rewrite<'_>,
    ) -> Result<UpdateOutcome, StoreError> {
        self.validate_term(term)?;
        check_patch_closed(rewrite.arena, rewrite.root)?;
        match self.granularity {
            Granularity::Roots => self.update_roots(term, &rewrite),
            Granularity::Subexpressions { min_nodes } => {
                self.update_subs(term, &rewrite, min_nodes)
            }
        }
    }

    /// Applies a sequence of rewrites, one [`AlphaStore::try_update`]
    /// each, in order. On `Err`, every rewrite before the failing one was
    /// fully applied (they are independent durable operations) and the
    /// failing one plus everything after it was not.
    pub fn try_update_batch(
        &self,
        edits: &[(TermId, Rewrite<'_>)],
    ) -> Result<Vec<UpdateOutcome>, StoreError> {
        edits
            .iter()
            .map(|&(term, rewrite)| self.try_update(term, rewrite))
            .collect()
    }

    /// Builds the **effective rewritten term** — what
    /// [`AlphaStore::update`] would ingest for this `(term, rewrite)` —
    /// into `dst` and returns its root, without changing the store. This
    /// is the normalized form: the class's canonical representative with
    /// the patch's canonical content spliced in, fresh machine binders
    /// throughout. The differential oracle tests feed this to a fresh
    /// store to cross-check `update` against plain ingest.
    pub fn preview_rewrite(
        &self,
        term: TermId,
        rewrite: Rewrite<'_>,
        dst: &mut ExprArena,
    ) -> Result<NodeId, StoreError> {
        self.validate_term(term)?;
        check_patch_closed(rewrite.arena, rewrite.root)?;
        let old_canon = self.with_class(self.class_of(term), |c| c.canon);
        let (patch_db, patch_db_root) = to_debruijn(rewrite.arena, rewrite.root);
        build_rewritten(self, old_canon, rewrite.path, &patch_db, patch_db_root, dst)
            .map_err(invalid)
    }

    /// Rejects handles this store never issued (including out-of-range
    /// bits arriving from the wire) with a typed error instead of a
    /// panic.
    fn validate_term(&self, term: TermId) -> Result<(), StoreError> {
        let s = term.shard as usize;
        if s < self.shards.len() {
            let shard = self.shards[s].read().expect("shard lock poisoned");
            if (term.index as usize) < shard.terms.len() {
                return Ok(());
            }
        }
        Err(invalid(format!(
            "unknown term {term:?}: handle was not issued by this store"
        )))
    }

    /// The `Roots`-granularity update: O(spine) re-hash through the
    /// cached [`IncrementalHasher`], O(spine) canon re-intern through
    /// [`splice_canon`], one delta WAL append, three brief shard
    /// critical sections.
    fn update_roots(
        &self,
        term: TermId,
        rewrite: &Rewrite<'_>,
    ) -> Result<UpdateOutcome, StoreError> {
        let outcome = {
            // Lock order: maintenance (shared) → updates → WAL → shards.
            let _ingest = self.maintenance.read().expect("maintenance lock poisoned");
            self.check_writable()?;
            let mut cache = self.updates.lock().expect("update lock poisoned");
            let term_bits = term.to_bits();
            let old_class = {
                let shard = self.shards[term.shard as usize]
                    .read()
                    .expect("shard lock poisoned");
                ClassId::from_bits(shard.terms[term.index as usize])
            };
            let (old_hash, old_canon) = self.with_class(old_class, |c| (c.hash, c.canon));

            // The spine hasher: cached from the previous update of this
            // term, or rebuilt (O(n), once) from the class canon.
            let mut hasher = match cache.take(term_bits, old_class.to_bits()) {
                Some(h) => h,
                None => {
                    let (db, db_root) = {
                        let mut view = TableView::new(&self.table);
                        extract_one(&mut view, old_canon)
                    };
                    let mut arena = ExprArena::new();
                    let root = rebuild_named(&db, db_root, &mut arena);
                    IncrementalHasher::new(arena, root, self.scheme)
                }
            };

            // Validate the path and build the canonical splice before
            // mutating anything: a refusal here leaves store, cache and
            // hasher exactly as they were (interned orphan nodes aside,
            // which is the same pre-WAL interning the prepare path does).
            let target = match resolve_path_named(hasher.arena(), hasher.root(), rewrite.path) {
                Ok(t) => t,
                Err(reason) => {
                    cache.put(term_bits, old_class.to_bits(), hasher);
                    return Err(invalid(reason));
                }
            };
            let (patch_db, patch_db_root) = to_debruijn(rewrite.arena, rewrite.root);
            let patch_ref = self.table.intern_arena(&patch_db, patch_db_root);
            let new_canon = match splice_canon(&self.table, old_canon, rewrite.path, patch_ref) {
                Ok(r) => r,
                Err(reason) => {
                    cache.put(term_bits, old_class.to_bits(), hasher);
                    return Err(invalid(reason));
                }
            };

            // O(spine) re-hash. From here the hasher has diverged from
            // the stored class: failure paths drop it (eviction) instead
            // of re-caching, and the next update rebuilds from canon.
            let replaced = hasher
                .replace_subtree(target, rewrite.arena, rewrite.root)
                .map_err(|e| invalid(format!("replacement target is not live: {e}")))?;
            let spine_nodes = replaced.stats.nodes_recomputed as u64;
            let new_hash = hasher.root_hash();
            let new_node_count = hasher.live_nodes() as u64;

            let delta = RawDelta {
                term_bits,
                old_hash,
                new_hash,
                new_node_count,
                path: rewrite.path.to_vec(),
                patch: patch_db,
                patch_root: patch_db_root,
            };
            // WAL failure: memory untouched, hasher dropped by `?`.
            self.wal_log_delta(&delta)?;

            let (class, fresh) =
                self.apply_root_update(term, old_class, new_hash, new_node_count, new_canon);
            cache.put(term_bits, class.to_bits(), hasher);
            self.obs.rec_update(spine_nodes);
            UpdateOutcome {
                term,
                old_class,
                class,
                fresh,
                subs: SubexprSummary::default(),
                spine_nodes_rehashed: spine_nodes,
            }
        };
        self.maybe_auto_checkpoint();
        Ok(outcome)
    }

    /// The `Subexpressions`-granularity update: build the effective
    /// rewritten term, re-prepare it (the index needs every node's hash),
    /// log the same compact delta, then **diff** the old and new
    /// `(class, multiplicity)` pair lists so only changed entries touch
    /// their shards.
    fn update_subs(
        &self,
        term: TermId,
        rewrite: &Rewrite<'_>,
        min_nodes: usize,
    ) -> Result<UpdateOutcome, StoreError> {
        let outcome = {
            let _ingest = self.maintenance.read().expect("maintenance lock poisoned");
            self.check_writable()?;
            // The cache is unused here, but its mutex is the update
            // serializer: the old-pairs snapshot must stay consistent
            // with the apply.
            let _serial = self.updates.lock().expect("update lock poisoned");
            let (old_class, old_pairs) = {
                let shard = self.shards[term.shard as usize]
                    .read()
                    .expect("shard lock poisoned");
                (
                    ClassId::from_bits(shard.terms[term.index as usize]),
                    shard.term_subs[term.index as usize].to_vec(),
                )
            };
            let (old_hash, old_canon) = self.with_class(old_class, |c| (c.hash, c.canon));

            let (patch_db, patch_db_root) = to_debruijn(rewrite.arena, rewrite.root);
            let mut dst = ExprArena::new();
            let new_root = build_rewritten(
                self,
                old_canon,
                rewrite.path,
                &patch_db,
                patch_db_root,
                &mut dst,
            )
            .map_err(invalid)?;
            let mut preparer = Preparer::new(&dst, &self.scheme);
            let pt = preparer.prepare_term(&dst, new_root, min_nodes, &self.table);
            let rehashed = pt.root.node_count;

            let delta = RawDelta {
                term_bits: term.to_bits(),
                old_hash,
                new_hash: pt.root.hash,
                new_node_count: pt.root.node_count,
                path: rewrite.path.to_vec(),
                patch: patch_db,
                patch_root: patch_db_root,
            };
            self.wal_log_delta(&delta)?;

            let (class, fresh, subs) = self.apply_sub_update(term, old_class, old_pairs, pt);
            self.obs.rec_update(rehashed);
            UpdateOutcome {
                term,
                old_class,
                class,
                fresh,
                subs,
                spine_nodes_rehashed: rehashed,
            }
        };
        self.maybe_auto_checkpoint();
        Ok(outcome)
    }

    /// Tees one delta record into the WAL as its own group commit. No-op
    /// on in-memory stores; retried per the store's policy like insert
    /// appends.
    fn wal_log_delta(&self, delta: &RawDelta<H>) -> Result<(), StoreError> {
        let Some(durable) = &self.durable else {
            return Ok(());
        };
        let mut frames = Vec::with_capacity(96 + delta.patch.len() * 10 + delta.path.len() * 4);
        frame_delta(&mut frames, delta);
        frame_commit(&mut frames, 1);
        self.wal_append_with_retry(durable, &frames, 1)
    }

    /// The shared memory apply of a `Roots`-mode update (live and
    /// replay): leave the old class (never removing it), join or create
    /// the new one — merge confirmation is the usual interned ref
    /// compare — and repoint the term.
    pub(crate) fn apply_root_update(
        &self,
        term: TermId,
        old_class: ClassId,
        new_hash: H,
        new_node_count: u64,
        new_canon: CanonRef,
    ) -> (ClassId, bool) {
        {
            let mut shard = self.shards[old_class.shard as usize]
                .write()
                .expect("shard lock poisoned");
            let c = &mut shard.classes[old_class.index as usize];
            c.members -= 1;
            c.occurrences -= 1;
        }
        let shard_index = self.shard_of(new_hash);
        let entry = SubEntry {
            hash: new_hash,
            node_count: new_node_count,
            multiplicity: 1,
            canon: PreparedCanon::Interned(new_canon),
        };
        let (class_index, fresh, collided) = {
            let mut shard = self.shards[shard_index]
                .write()
                .expect("shard lock poisoned");
            let mut view = TableView::new(&self.table);
            shard.insert_entry(&self.table, &mut view, entry, true, &self.obs)
        };
        if fresh {
            StatCounters::bump(&self.counters.classes_created);
        } else {
            StatCounters::bump(&self.counters.merges_confirmed);
        }
        if collided {
            StatCounters::bump(&self.counters.hash_collisions);
        }
        let class = ClassId {
            shard: u16::try_from(shard_index).expect("shard count fits u16"),
            index: class_index,
        };
        {
            let mut shard = self.shards[term.shard as usize]
                .write()
                .expect("shard lock poisoned");
            shard.terms[term.index as usize] = class.to_bits();
        }
        (class, fresh)
    }

    /// The shared memory apply of a `Subexpressions`-mode update (live
    /// and replay): diff the old pair list against the prepared new term.
    /// Pairs whose class recurs keep it without a probe (ref bijection);
    /// only the occurrence delta is applied. Entries only the new term
    /// has go through the normal exact insert; entries only the old term
    /// had are un-indexed by their recorded multiplicity.
    pub(crate) fn apply_sub_update(
        &self,
        term: TermId,
        old_class: ClassId,
        old_pairs: Vec<(u64, u32)>,
        pt: PreparedTerm<H>,
    ) -> (ClassId, bool, SubexprSummary) {
        // Key the old pairs by their class's canon ref: class ↔ canon is
        // a bijection (merges are exact), so ref equality identifies
        // "same subexpression class" without touching buckets.
        let old_root_bits = old_class.to_bits();
        let mut old_map: HashMap<CanonRef, (u64, u32)> = HashMap::with_capacity(old_pairs.len());
        for &(bits, mult) in &old_pairs {
            if bits == old_root_bits {
                // The root's own pair carries exactly the root occurrence:
                // a proper subterm is strictly smaller than the root, so
                // it can never share the root's class.
                debug_assert_eq!(mult, 1, "root pair carries only the root occurrence");
                continue;
            }
            let cref = self.with_class(ClassId::from_bits(bits), |c| c.canon);
            old_map.insert(cref, (bits, mult));
        }

        let mut summary = SubexprSummary {
            skipped_min_nodes: pt.skipped,
            ..SubexprSummary::default()
        };
        let mut new_pairs: Vec<(u64, u32)> = Vec::with_capacity(pt.subs.len() + 1);
        let (mut n_indexed, mut n_created, mut n_merged, mut n_collided) = (0u64, 0u64, 0u64, 0u64);
        for entry in pt.subs {
            let cref = match &entry.canon {
                PreparedCanon::Interned(r) => *r,
                PreparedCanon::Frontier { .. } => {
                    unreachable!("prepare_term interns every subexpression entry")
                }
            };
            let mult = entry.multiplicity;
            let m = u64::from(mult);
            n_indexed += m;
            summary.indexed += m;
            match old_map.remove(&cref) {
                Some((bits, old_mult)) => {
                    // Retained pair: same class, possibly different count.
                    if old_mult != mult {
                        let class = ClassId::from_bits(bits);
                        let mut shard = self.shards[class.shard as usize]
                            .write()
                            .expect("shard lock poisoned");
                        let c = &mut shard.classes[class.index as usize];
                        c.occurrences += m;
                        c.occurrences -= u64::from(old_mult);
                    }
                    n_merged += m;
                    summary.merged += m;
                    new_pairs.push((bits, mult));
                }
                None => {
                    let shard_index = self.shard_of(entry.hash);
                    let (class_index, fresh, collided) = {
                        let mut shard = self.shards[shard_index]
                            .write()
                            .expect("shard lock poisoned");
                        let mut view = TableView::new(&self.table);
                        shard.insert_entry(&self.table, &mut view, entry, false, &self.obs)
                    };
                    let bits = ClassId {
                        shard: u16::try_from(shard_index).expect("shard count fits u16"),
                        index: class_index,
                    }
                    .to_bits();
                    if fresh {
                        n_created += 1;
                        n_merged += m - 1;
                        summary.merged += m - 1;
                    } else {
                        n_merged += m;
                        summary.merged += m;
                    }
                    if collided {
                        n_collided += 1;
                    }
                    new_pairs.push((bits, mult));
                }
            }
        }
        // Entries only the old term indexed: un-index by their recorded
        // multiplicity. The class stays resident (possibly at zero).
        for (bits, mult) in old_map.into_values() {
            let class = ClassId::from_bits(bits);
            let mut shard = self.shards[class.shard as usize]
                .write()
                .expect("shard lock poisoned");
            shard.classes[class.index as usize].occurrences -= u64::from(mult);
        }
        // The root: leave the old class, join or create the new one.
        {
            let mut shard = self.shards[old_class.shard as usize]
                .write()
                .expect("shard lock poisoned");
            let c = &mut shard.classes[old_class.index as usize];
            c.members -= 1;
            c.occurrences -= 1;
        }
        let root_shard = self.shard_of(pt.root.hash);
        let (class_index, fresh, collided) = {
            let mut shard = self.shards[root_shard]
                .write()
                .expect("shard lock poisoned");
            let mut view = TableView::new(&self.table);
            shard.insert_entry(&self.table, &mut view, pt.root, true, &self.obs)
        };
        let class = ClassId {
            shard: u16::try_from(root_shard).expect("shard count fits u16"),
            index: class_index,
        };
        if fresh {
            StatCounters::bump(&self.counters.classes_created);
        } else {
            StatCounters::bump(&self.counters.merges_confirmed);
        }
        if collided {
            StatCounters::bump(&self.counters.hash_collisions);
        }
        StatCounters::add(&self.counters.subterms_indexed, n_indexed);
        StatCounters::add(&self.counters.classes_created, n_created);
        StatCounters::add(&self.counters.subterm_merges_confirmed, n_merged);
        StatCounters::add(&self.counters.hash_collisions, n_collided);
        StatCounters::add(&self.counters.subterms_skipped_min_nodes, pt.skipped);

        // Sort + coalesce, then splice the root's own bit — the same
        // sorted-unique invariant finish_insert maintains.
        new_pairs.sort_unstable();
        new_pairs.dedup_by(|b, a| {
            if a.0 == b.0 {
                a.1 += b.1;
                true
            } else {
                false
            }
        });
        let bits = class.to_bits();
        match new_pairs.binary_search_by_key(&bits, |p| p.0) {
            Ok(pos) => new_pairs[pos].1 += 1,
            Err(pos) => new_pairs.insert(pos, (bits, 1)),
        }
        {
            let mut shard = self.shards[term.shard as usize]
                .write()
                .expect("shard lock poisoned");
            shard.terms[term.index as usize] = bits;
            shard.term_subs[term.index as usize] = new_pairs.into_boxed_slice();
        }
        (class, fresh, summary)
    }
}

/// Re-applies one recovered WAL delta record, called from the store's
/// replay loop in log order. The recorded old root hash must match the
/// class the term currently points at — a mismatch means the log and the
/// snapshot disagree about history and recovery must not guess. `Roots`
/// mode re-splices the canon and (under `verify`) re-hashes the result
/// from scratch; `Subexpressions` mode re-runs the full deterministic
/// sub-index construction, so its recomputed root hash is **always**
/// cross-checked against the record.
pub(crate) fn apply_update_replay<H: HashWord>(
    store: &AlphaStore<H>,
    delta: RawDelta<H>,
    verify: bool,
) -> Result<(), PersistError> {
    let corrupt = |context: String| PersistError::Corrupt { context };
    let term = TermId::from_bits(delta.term_bits);
    let s = term.shard as usize;
    if s >= store.shards.len() {
        return Err(corrupt(format!(
            "delta names shard {} of a {}-shard store",
            term.shard,
            store.shards.len()
        )));
    }
    let old_class_bits = {
        let shard = store.shards[s].read().expect("shard lock poisoned");
        let i = term.index as usize;
        if i >= shard.terms.len() {
            return Err(corrupt(format!("delta names unknown term {term:?}")));
        }
        shard.terms[i]
    };
    let old_class = ClassId::from_bits(old_class_bits);
    let (old_hash, old_canon) = store.with_class(old_class, |c| (c.hash, c.canon));
    if old_hash != delta.old_hash {
        return Err(corrupt(format!(
            "delta old-hash mismatch for {term:?}: log and store disagree about the \
             term's pre-update class"
        )));
    }
    match store.granularity {
        Granularity::Roots => {
            let patch_ref = store.table.intern_arena(&delta.patch, delta.patch_root);
            let new_canon = splice_canon(&store.table, old_canon, &delta.path, patch_ref)
                .map_err(|e| corrupt(format!("delta does not splice: {e}")))?;
            if verify {
                // Paranoid mode: rebuild a named representative of the
                // spliced canon and push it through the full hashing
                // pipeline before trusting the recorded hash.
                let (db, db_root) = {
                    let mut view = TableView::new(&store.table);
                    extract_one(&mut view, new_canon)
                };
                let mut arena = ExprArena::new();
                let root = rebuild_named(&db, db_root, &mut arena);
                let mut preparer = Preparer::new(&arena, &store.scheme);
                let (hash, _, _) = preparer.hash_and_canon(&arena, root);
                if hash != delta.new_hash {
                    return Err(corrupt(
                        "delta re-hash mismatch: spliced canon does not hash to the \
                         recorded root hash"
                            .to_owned(),
                    ));
                }
            }
            store.apply_root_update(
                term,
                old_class,
                delta.new_hash,
                delta.new_node_count,
                new_canon,
            );
        }
        Granularity::Subexpressions { min_nodes } => {
            let old_pairs = {
                let shard = store.shards[s].read().expect("shard lock poisoned");
                shard.term_subs[term.index as usize].to_vec()
            };
            let mut dst = ExprArena::new();
            let new_root = build_rewritten(
                store,
                old_canon,
                &delta.path,
                &delta.patch,
                delta.patch_root,
                &mut dst,
            )
            .map_err(|e| corrupt(format!("delta does not splice: {e}")))?;
            let mut preparer = Preparer::new(&dst, &store.scheme);
            let pt = preparer.prepare_term(&dst, new_root, min_nodes, &store.table);
            if pt.root.hash != delta.new_hash || pt.root.node_count != delta.new_node_count {
                return Err(corrupt(
                    "delta re-hash mismatch: replayed rewrite does not reproduce the \
                     recorded root hash and node count"
                        .to_owned(),
                ));
            }
            store.apply_sub_update(term, old_class, old_pairs, pt);
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use alpha_hash::combine::HashScheme;
    use lambda_lang::parse::parse;

    fn roots_store() -> AlphaStore<u64> {
        AlphaStore::with_shards(HashScheme::new(0xA1FA), 8)
    }

    fn subs_store() -> AlphaStore<u64> {
        AlphaStore::builder()
            .scheme(HashScheme::new(0xA1FA))
            .shards(8)
            .subexpressions(1)
            .build()
    }

    /// A hot term re-updated between updates of more than
    /// `UPDATE_CACHE_CAP` distinct cold terms is never evicted: the cache
    /// drops the least recently updated term, so it always holds the hot
    /// term plus the most recent cold ones.
    #[test]
    fn update_cache_evicts_the_least_recently_updated_term() {
        let store = roots_store();
        let mut arena = ExprArena::new();
        let hot_root = parse(&mut arena, r"\x. x * 7").unwrap();
        let hot = store.insert(&arena, hot_root).term;
        let cold: Vec<TermId> = (0..2 * UPDATE_CACHE_CAP as i64)
            .map(|i| {
                let t = parse(&mut arena, &format!(r"\x. x + {i}")).unwrap();
                store.insert(&arena, t).term
            })
            .collect();
        let cached = |store: &AlphaStore<u64>| -> Vec<u64> {
            let cache = store.updates.lock().unwrap();
            let mut bits: Vec<u64> = cache.entries.keys().copied().collect();
            bits.sort_unstable();
            bits
        };
        for (i, &term) in cold.iter().enumerate() {
            let patch = parse(&mut arena, &format!("{}", 1000 + i)).unwrap();
            let rw = Rewrite {
                path: &[0, 1],
                arena: &arena,
                root: patch,
            };
            store.update(term, rw);
            store.update(hot, rw);
            let recent = &cold[(i + 1).saturating_sub(UPDATE_CACHE_CAP - 1)..=i];
            let mut expected: Vec<u64> = recent.iter().map(|t| t.to_bits()).collect();
            expected.push(hot.to_bits());
            expected.sort_unstable();
            assert_eq!(cached(&store), expected, "after cold update {i}");
        }
        assert!(store.stats().is_exact());
    }

    #[test]
    fn roots_update_matches_fresh_ingest_of_the_preview() {
        let store = roots_store();
        let mut arena = ExprArena::new();
        let t = parse(&mut arena, r"\x. x + (v * 3)").unwrap();
        let ins = store.insert(&arena, t);
        let patch = parse(&mut arena, "v * 4").unwrap();
        let rw = Rewrite {
            path: &[0, 1],
            arena: &arena,
            root: patch,
        };

        let mut preview = ExprArena::new();
        let preview_root = store.preview_rewrite(ins.term, rw, &mut preview).unwrap();

        let out = store.update(ins.term, rw);
        assert_eq!(out.term, ins.term);
        assert_eq!(out.old_class, ins.class);
        assert_ne!(out.class, ins.class);
        assert!(out.fresh);
        assert!(out.spine_nodes_rehashed > 0);
        assert_eq!(store.class_of(ins.term), out.class);
        // The old class is stale but resident, and root-only probes skip it.
        assert_eq!(store.members(ins.class), 0);
        assert_eq!(store.lookup(&arena, t), None);
        // A fresh store fed the preview lands on the same canonical text.
        let fresh = roots_store();
        let fresh_ins = fresh.insert(&preview, preview_root);
        assert_eq!(
            fresh.canonical_text(fresh_ins.class),
            store.canonical_text(out.class)
        );
        assert_eq!(fresh.hash_of(fresh_ins.class), store.hash_of(out.class));
        assert!(store.stats().is_exact());
        // Terms are repointed, never reissued.
        assert_eq!(store.num_terms(), 1);
        assert_eq!(store.stats().terms_ingested, 1);
    }

    #[test]
    fn update_into_an_existing_class_merges_exactly() {
        let store = roots_store();
        let mut arena = ExprArena::new();
        let a = parse(&mut arena, r"\x. x + 1").unwrap();
        let b = parse(&mut arena, r"\y. y + 2").unwrap();
        let ia = store.insert(&arena, a);
        let ib = store.insert(&arena, b);
        assert_ne!(ia.class, ib.class);
        // Rewrite b's literal 2 → 1: it must join a's class, confirmed.
        let one = parse(&mut arena, "1").unwrap();
        let out = store.update(
            ib.term,
            Rewrite {
                path: &[0, 1],
                arena: &arena,
                root: one,
            },
        );
        assert_eq!(out.class, ia.class);
        assert!(!out.fresh);
        assert_eq!(store.members(ia.class), 2);
        assert_eq!(store.members(ib.class), 0);
        assert!(store.stats().is_exact());
    }

    #[test]
    fn consecutive_updates_reuse_the_cached_spine_hasher() {
        let store = roots_store();
        let mut arena = ExprArena::new();
        let t = parse(&mut arena, r"\x. x + (v * 3)").unwrap();
        let ins = store.insert(&arena, t);
        let mut term = ins.term;
        let mut last = ins.class;
        for k in 5..9 {
            let patch_src = format!("v * {k}");
            let patch = parse(&mut arena, &patch_src).unwrap();
            let out = store.update(
                term,
                Rewrite {
                    path: &[0, 1],
                    arena: &arena,
                    root: patch,
                },
            );
            assert_ne!(out.class, last);
            // Spine-local: far fewer nodes re-hashed than the whole term.
            assert!(out.spine_nodes_rehashed < 10);
            term = out.term;
            last = out.class;
        }
        let expect = parse(&mut arena, r"\q. q + (v * 8)").unwrap();
        assert_eq!(store.lookup(&arena, expect), Some(last));
    }

    #[test]
    fn sub_mode_update_diffs_the_index() {
        let store = subs_store();
        let mut arena = ExprArena::new();
        let t = parse(&mut arena, "(v + 7) * (v + 7)").unwrap();
        let ins = store.insert(&arena, t);
        let pat = parse(&mut arena, "v + 7").unwrap();
        let shared = store.contains(&arena, pat).unwrap();
        assert_eq!(store.occurrences(shared), 2);

        // Rewrite the right factor to (v + 8): one occurrence of v+7
        // remains, and v+8 appears.
        let patch = parse(&mut arena, "v + 8").unwrap();
        let out = store.update(
            ins.term,
            Rewrite {
                path: &[1],
                arena: &arena,
                root: patch,
            },
        );
        assert_ne!(out.class, ins.class);
        assert!(out.subs.indexed > 0);
        assert_eq!(store.occurrences(shared), 1);
        let pat8 = parse(&mut arena, "v + 8").unwrap();
        let c8 = store.contains(&arena, pat8).expect("newly indexed");
        assert_eq!(store.occurrences(c8), 1);
        // The term's pair list agrees with the live classes.
        let classes: Vec<ClassId> = store.subterm_classes(ins.term).collect();
        assert!(classes.contains(&shared));
        assert!(classes.contains(&c8));
        assert!(classes.contains(&out.class));
        assert!(store.stats().is_exact());
    }

    #[test]
    fn invalid_rewrites_are_typed_refusals_that_change_nothing() {
        let store = roots_store();
        let mut arena = ExprArena::new();
        let t = parse(&mut arena, r"\x. x + 1").unwrap();
        let ins = store.insert(&arena, t);
        let patch = parse(&mut arena, "2").unwrap();

        // Unknown term handle (wire bits): refused, not a panic.
        let bogus = TermId::from_bits(0xFFFF_0000_0000_0123);
        let err = store
            .try_update(
                bogus,
                Rewrite {
                    path: &[],
                    arena: &arena,
                    root: patch,
                },
            )
            .unwrap_err();
        assert!(matches!(err, StoreError::InvalidRewrite { .. }), "{err}");

        // Path off the end of a leaf.
        let err = store
            .try_update(
                ins.term,
                Rewrite {
                    path: &[0, 0, 0, 0, 0, 0],
                    arena: &arena,
                    root: patch,
                },
            )
            .unwrap_err();
        assert!(matches!(err, StoreError::InvalidRewrite { .. }), "{err}");

        // Nothing moved.
        assert_eq!(store.class_of(ins.term), ins.class);
        assert_eq!(store.members(ins.class), 1);
        assert_eq!(store.num_classes(), 1);
    }

    #[test]
    fn replacements_touching_machine_binders_are_rejected() {
        let store = roots_store();
        let mut arena = ExprArena::new();
        let t = parse(&mut arena, r"\x. x + 1").unwrap();
        let ins = store.insert(&arena, t);
        // The canonical representative's binder is machine-named (r%N).
        // A patch that names it would be captured by the by-name splice.
        let mut rep = ExprArena::new();
        let rep_root = store.representative_into(ins.class, &mut rep);
        let binder = rep
            .node(rep_root)
            .binder()
            .expect("representative is a lambda");
        let binder_name = rep.name(binder).to_owned();
        assert!(binder_name.contains('%'));
        let mut patch_arena = ExprArena::new();
        let patch = patch_arena.var_named(&binder_name);
        let err = store
            .try_update(
                ins.term,
                Rewrite {
                    path: &[0],
                    arena: &patch_arena,
                    root: patch,
                },
            )
            .unwrap_err();
        assert!(matches!(err, StoreError::InvalidRewrite { .. }), "{err}");
        assert_eq!(store.class_of(ins.term), ins.class);
    }

    #[test]
    fn whole_root_replacement_uses_the_empty_path() {
        let store = roots_store();
        let mut arena = ExprArena::new();
        let t = parse(&mut arena, r"\x. x").unwrap();
        let ins = store.insert(&arena, t);
        let patch = parse(&mut arena, r"\a. \b. a b").unwrap();
        let out = store.update(
            ins.term,
            Rewrite {
                path: &[],
                arena: &arena,
                root: patch,
            },
        );
        assert_eq!(store.canonical_text(out.class), r"\. \. %1 %0");
        assert_eq!(store.class_of(ins.term), out.class);
    }

    #[test]
    fn batch_updates_apply_a_prefix_on_error() {
        let store = roots_store();
        let mut arena = ExprArena::new();
        let a = parse(&mut arena, r"\x. x + 1").unwrap();
        let b = parse(&mut arena, r"\y. y * 2").unwrap();
        let ia = store.insert(&arena, a);
        let ib = store.insert(&arena, b);
        let patch = parse(&mut arena, "9").unwrap();
        let good = Rewrite {
            path: &[0, 1],
            arena: &arena,
            root: patch,
        };
        let bad = Rewrite {
            path: &[7],
            arena: &arena,
            root: patch,
        };
        let err = store
            .try_update_batch(&[(ia.term, good), (ib.term, bad)])
            .unwrap_err();
        assert!(matches!(err, StoreError::InvalidRewrite { .. }));
        // The first edit landed, the failing one did not.
        let rewritten = parse(&mut arena, r"\q. q + 9").unwrap();
        assert_eq!(
            store.lookup(&arena, rewritten),
            Some(store.class_of(ia.term))
        );
        assert_eq!(store.class_of(ib.term), ib.class);
    }
}
