//! The streaming matcher: Algorithm 3 run over a recorded Algorithm 2
//! expansion.
//!
//! [`crate::estimate::matcher::Matcher`] materializes the whole expanded
//! path tree (EPT) into an arena and then tree-walks it with per-node state
//! vectors. This module splits the work in two. [`FrontierMemo`] walks
//! the expansion once per [`FrozenKernel`] snapshot and records it;
//! [`StreamingMatcher`] then matches each query by **replaying that
//! record as an open/close stream**: frontier states advance on open,
//! unwind on close, and no estimate allocates an EPT arena.
//!
//! ## The expansion walk
//!
//! [`FrontierMemo::build`] is the one production walker of Algorithm 2:
//! the traveler's depth-first walk (same child order, same
//! effective-`card_threshold` / Observation-1 stopping rules, same
//! per-path HET overrides), inlined over the frozen CSR arrays with the
//! flat-array recursion tracker ([`FlatCounterStacks`]) that kernel
//! construction also uses. It records every opened position in
//! pre-order with its footprint (card / fsel / bsel / path hash) and
//! subtree extent. A walk that records more than
//! [`max_ept_nodes`](XseedConfig::max_ept_nodes) positions stops and
//! restarts at the escalated threshold, so one pass both settles the
//! effective threshold and records the memo.
//!
//! ## The matching loop
//!
//! Each open frame carries the footprint of its synopsis path plus the
//! frontier states its children inherit — exactly the
//! `(spine index, accumulated predicate factor)` pairs the materialized
//! matcher clones per child, but stored once in a stack-disciplined
//! scratch buffer and freed by truncation on close.
//!
//! Two ideas make a *single pass* sufficient where the materialized matcher
//! looks ahead into the arena:
//!
//! * **Deferred predicate cells.** A predicate factor anchored at node `n`
//!   depends on `n`'s subtree, which the stream has not produced yet when
//!   `n` opens. Each such factor becomes a *cell* — a slot resolved when
//!   `n` closes — and candidate values carry `(known factor, cell list)`
//!   pairs instead of plain numbers. Because a candidate created inside
//!   `n`'s subtree can only be *used* (summed into the total) after the
//!   whole stream ends, every cell is resolved before it is read. Taking
//!   the maximum over candidates at the very end is exact: all later
//!   operations multiply by non-negative factors, and `max` distributes
//!   over those.
//! * **Bottom-up embedding tables.** While a predicate evaluation is
//!   pending, every frame maintains, per compiled predicate node `q`, the
//!   best child-axis embedding `gc[q]` and best descendant-axis embedding
//!   `gd[q]` seen among its closed children. Folding a closing child `c`
//!   into its parent (`gc[q] ← max(gc[q], f(q, c))` on a label match,
//!   `gd[q] ← max(gd[q], bsel(c)·gd_c[q])` always) reproduces the
//!   materialized matcher's recursive best-embedding search without ever
//!   revisiting a node. The tables are only maintained while an anchor is
//!   pending, so predicate-free (or fully HET-covered) queries pay nothing.
//!
//! ## Pruning with reachable-label bitsets
//!
//! Before opening a recorded child position at vertex `v`, the matcher
//! asks whether the child's subtree can change the result. If it cannot,
//! the replay jumps over the child's recorded extent in O(1). Two tests
//! decide, and the child is skipped only when both say no:
//!
//! * **A frontier state is viable at `v`.** State `i` needs every named
//!   label of spine steps `i..` to occur at or below `v`
//!   ([`FrozenKernel::reaches_all`]). A state whose step `i` is a
//!   child-axis step also needs `v`'s own label to pass that step's
//!   test: at a child it does not match, the state neither advances nor
//!   survives (only descendant-axis states pass down unchanged), so
//!   nothing below `v` descends from it. A state that fails either test
//!   cannot complete below `v`, so no result match, contribution or
//!   predicate cell that is ever read comes from `v`'s subtree.
//! * **The subtree can raise a pending embedding table.** Under a frame
//!   whose predicate tables are active, a closing child folds
//!   `f(q, child)` into its parent only where the child's label matches
//!   predicate node `q`'s test, and otherwise passes up
//!   `bsel × gd_child[q]`. A subtree holding none of the labels the
//!   query's predicate nodes test ([`FrozenKernel::reaches_any`] against
//!   the compiled predicate mask) matches no predicate node anywhere, so
//!   all its tables stay 0 and every value it passes up is `bsel × 0`:
//!   the parent's tables come out the same whether the subtree is
//!   replayed or skipped. A wildcard predicate node matches every label,
//!   so such a query replays every child under an active frame.
//!
//! Both prunes are exact: skipping never changes an estimate bit. They
//! do mean the node count reported by
//! [`StreamingMatcher::estimate_with_stats`] is the number of positions
//! *visited*, at most the memo size, which equals the materialized EPT
//! size.
//!
//! ## Repeats
//!
//! A [`CompiledQuery`] held by the snapshot's [`CompiledPlanCache`] keeps
//! the answers its first plan estimate computed, so a repeated plan does
//! not replay (see [`CompiledQuery`]). The expression entry points
//! ([`StreamingMatcher::estimate`], [`StreamingMatcher::estimate_bound`],
//! [`StreamingMatcher::estimate_with_stats`]) compile fresh and always
//! replay.
//!
//! The snapshot is valid until the kernel is mutated; see
//! [`crate::synopsis::XseedSynopsis::kernel_mut`] for the invalidation
//! contract.

use crate::config::{escalate_card_threshold, XseedConfig};
use crate::counter_stacks::FlatCounterStacks;
use crate::het::hash::{correlated_key, inc_hash, PATH_HASH_SEED};
use crate::het::table::HyperEdgeTable;
use crate::kernel::{FrozenKernel, VertexId};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::{Duration, Instant};
use xmlkit::names::{LabelId, NameTable};
use xpathkit::ast::{Axis, NodeTest, PathExpr};
use xpathkit::query_tree::{QtnId, QueryTree};
use xpathkit::QueryPlan;

/// A resolved node test: wildcard, a concrete label, or a name absent from
/// the document.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Test {
    Any,
    Label(LabelId),
    Never,
}

impl Test {
    #[inline]
    fn matches(self, label: LabelId) -> bool {
        match self {
            Test::Any => true,
            Test::Label(l) => l == label,
            Test::Never => false,
        }
    }
}

/// One compiled predicate node (flattened across the whole query).
#[derive(Debug)]
struct PredNode {
    test: Test,
    axis: Axis,
    /// Indices of child predicate nodes.
    children: Vec<u32>,
    /// The label when this predicate is a single child-axis name step (the
    /// shape the HET stores).
    single_label: Option<LabelId>,
}

/// One compiled spine step.
#[derive(Debug)]
struct SpineStep {
    test: Test,
    axis: Axis,
    /// Compiled predicate roots hanging off this step.
    pred_roots: Vec<u32>,
    /// All predicate labels when every predicate is a single child-axis
    /// name step (enables the whole-step correlated HET lookup).
    all_simple: Option<Vec<LabelId>>,
    /// Label of the child-axis name-test spine successor, if any (the `r`
    /// of the HET's `p[q1]...[qm]/r` shape).
    sibling: Option<LabelId>,
}

/// A query compiled (label-resolved) against one snapshot's label space:
/// the spine steps and flattened predicate nodes with their node tests
/// resolved to [`LabelId`]s, dead-suffix flags, the per-step
/// required-label bitsets driving reachability pruning, and the
/// predicate-label bitset that prunes under pending predicate tables —
/// plus two write-once **answer cells**: the query's point estimate and
/// its raw bound on that snapshot.
///
/// An estimate is a pure function of the snapshot and the query, so the
/// first [`StreamingMatcher::estimate_plan_timed`] or
/// [`StreamingMatcher::estimate_plan_bound_timed`] that replays the memo
/// (or runs the bound propagation) for a cached compilation fills its
/// cell, and every later estimate of that plan reads it instead of
/// replaying. A cell is filled outside any lock; two racing fills compute
/// the same bits and the first one stays.
///
/// A compiled query is only meaningful for the snapshot it was compiled
/// against — label ids and bitset widths are snapshot-specific, and the
/// answers hold for that snapshot's kernel, config and HET only — which
/// is why the caching layer ([`CompiledPlanCache`]) lives *inside* each
/// [`crate::synopsis::SynopsisSnapshot`]: an epoch bump publishes a fresh
/// snapshot with a fresh (empty) cache, so invalidation needs no extra
/// machinery. The struct is opaque; obtain one through
/// [`StreamingMatcher::estimate_plan`] or the cache.
#[derive(Debug)]
pub struct CompiledQuery {
    spine: Vec<SpineStep>,
    preds: Vec<PredNode>,
    /// `dead[i]`: no state at spine index `i` can ever reach the result
    /// (some later step names an absent label, or carries a predicate that
    /// does).
    dead: Vec<bool>,
    /// `label_words`-sized label bitsets, one row per spine index `i`
    /// holding the labels required by steps `i..` (named spine tests
    /// only), then one last row holding the labels the predicate nodes
    /// test. One allocation serves both, since compiled-plan caches hold
    /// thousands of these.
    masks: Vec<u64>,
    label_words: usize,
    /// Some predicate node is a wildcard: it matches every label, so the
    /// predicate row cannot rule a subtree out.
    pred_wildcard: bool,
    /// The point estimate, once a plan estimate has replayed the memo.
    estimate: OnceLock<f64>,
    /// The raw `compute_bound` value, once a bound request has run it.
    bound: OnceLock<u64>,
}

/// Reads a write-once answer cell, filling it from `compute` when it is
/// empty. `compute` runs outside any lock: a racing fill computes the
/// same bits, and the first value set stays.
fn read_or_fill<T: Copy>(cell: &OnceLock<T>, compute: impl FnOnce() -> T) -> T {
    if let Some(&value) = cell.get() {
        return value;
    }
    let value = compute();
    let _ = cell.set(value);
    value
}

impl CompiledQuery {
    fn req_mask(&self, idx: usize) -> &[u64] {
        &self.masks[idx * self.label_words..(idx + 1) * self.label_words]
    }

    /// Whether a subtree rooted at `v` could raise an embedding table:
    /// some node in it may match a predicate node's test.
    fn may_match_predicate(&self, frozen: &FrozenKernel, v: VertexId) -> bool {
        self.pred_wildcard || frozen.reaches_any(v, self.req_mask(self.spine.len()))
    }
}

/// A point estimate paired with a guaranteed upper bound on the true
/// result cardinality.
///
/// The bound comes from [`StreamingMatcher::estimate_bound`]'s
/// max-out-degree propagation (see that method's docs): it is a *sound*
/// pessimistic cardinality — the true count never exceeds it — while the
/// point estimate is the usual average-fanout product, which can under- or
/// overshoot. By construction `bound >= estimate` always holds.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BoundedEstimate {
    /// The point estimate ([`StreamingMatcher::estimate`]).
    pub estimate: f64,
    /// A guaranteed upper bound on the true result cardinality, never
    /// below `estimate`.
    pub bound: f64,
}

/// The rooted-label-path identity of a bound-propagation frontier entry:
/// `Known(h)` when every document node the entry over-counts shares the
/// rooted label path hashing to `h` (a chain of child steps from the
/// root), `Ambiguous` otherwise. Only `Known` entries may be clamped by
/// HET simple-path cardinalities — those are exact per-path counts, so the
/// clamp can never cut below the truth.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum PathTag {
    Known(u64),
    Ambiguous,
}

/// One candidate value of a frontier state: a known factor times a product
/// of not-yet-resolved predicate cells.
#[derive(Debug, Clone, Copy)]
struct Candidate {
    value: f64,
    cells_start: u32,
    cells_len: u32,
}

/// One frontier state: a spine index plus its candidate values.
#[derive(Debug, Clone, Copy)]
struct State {
    idx: u32,
    cand_start: u32,
    cand_len: u32,
}

/// A pending predicate evaluation: cell `cell` resolves to the best
/// embedding of predicate root `pred` under the anchoring frame.
#[derive(Debug, Clone, Copy)]
struct Anchor {
    pred: u32,
    cell: u32,
}

/// A deferred contribution: `card` times the best resolved candidate.
#[derive(Debug, Clone, Copy)]
struct Contrib {
    card: f64,
    cand_start: u32,
    cand_len: u32,
}

/// One open position of the replayed expansion.
#[derive(Debug, Clone, Copy)]
struct Frame {
    vertex: VertexId,
    bsel: f64,
    /// Memo index of the next child position, and one past the last
    /// index of this position's subtree.
    next_child: u32,
    subtree_end: u32,
    /// Frontier states this frame's children inherit.
    states_start: u32,
    states_end: u32,
    /// Truncation marks into the candidate / cell-ref stacks.
    cands_mark: u32,
    cell_refs_mark: u32,
    /// Start of this frame's `gc`/`gd` tables in the table stack
    /// (`u32::MAX` when tables are inactive here).
    pred_start: u32,
    /// Cells anchored at this frame, resolved at its close.
    anchors_start: u32,
    tables_active: bool,
}

/// One memoized traversal position: the footprint the traveler computes
/// for a `(vertex, recursion level)` pair along one expansion path,
/// stored in pre-order with the subtree extent so pruned replays can skip
/// it in O(1).
#[derive(Debug, Clone, Copy)]
struct MemoNode {
    vertex: VertexId,
    card: f64,
    fsel: f64,
    bsel: f64,
    path_hash: u64,
    /// One past the last memo index of this node's subtree (pre-order).
    subtree_end: u32,
}

/// The traveler's full expansion of one snapshot: every
/// `(vertex, recursion level)` position the traversal reaches, with its
/// footprint (card / fsel / bsel / path hash), laid out in pre-order with
/// subtree extents.
///
/// The expansion is *query-independent* (which children open depends only
/// on the synopsis, the config thresholds, and the HET overrides), so one
/// memo serves every query estimated against the same snapshot: every
/// [`StreamingMatcher`] estimate that is not a stored answer (see
/// [`CompiledQuery`]) replays it, and reachability pruning
/// skips a subtree that cannot complete any frontier state via its stored
/// extent.
///
/// The memo is valid for exactly one frozen snapshot + config + HET
/// combination; take a fresh one (or a fresh [`StreamingMatcher`]) after
/// the kernel epoch changes. It records the full expansion under the
/// snapshot's effective cardinality threshold (escalated as needed to fit
/// [`XseedConfig::max_ept_nodes`]), which is exactly the frontier the
/// materialized oracle walks, so it never holds more than `max_ept_nodes`
/// positions (`size_of::<MemoNode>()` bytes each).
#[derive(Debug, Clone)]
pub struct FrontierMemo {
    nodes: Vec<MemoNode>,
    /// Vertex and slot counts of the snapshot the memo was built from,
    /// used to catch cross-snapshot reuse in debug builds.
    vertex_count: usize,
    slot_count: usize,
}

impl FrontierMemo {
    /// Builds the memo for a snapshot by walking the traveler's expansion
    /// under the configured `card_threshold`. A walk that records more
    /// than `max_ept_nodes` positions is abandoned and restarted at the
    /// escalated threshold (to 1, then doubled), so the recorded
    /// expansion is the first one that fits. The loop ends because the
    /// set of expanded paths shrinks monotonically as the threshold grows
    /// and the root alone fits any bound.
    pub fn build(
        frozen: &FrozenKernel,
        config: &XseedConfig,
        het: Option<&HyperEdgeTable>,
    ) -> Self {
        let cap = config.max_ept_nodes.max(1);
        let mut walk = ExpansionWalk {
            frozen,
            het,
            recursion: FlatCounterStacks::with_vertices(frozen.vertex_count()),
        };
        let mut nodes = Vec::new();
        let mut threshold = config.card_threshold;
        while !walk.record(threshold, cap, &mut nodes) {
            threshold = escalate_card_threshold(threshold);
        }
        nodes.shrink_to_fit();
        FrontierMemo {
            nodes,
            vertex_count: frozen.vertex_count(),
            slot_count: frozen.slot_count(),
        }
    }

    /// Number of memoized traversal positions (the materialized EPT size).
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Returns `true` when the snapshot has no root to expand.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// The kernel's estimate of **every** rooted simple path, computed in
    /// one pass over the recorded expansion: a simple-path query `/l1/…/ln`
    /// is estimated by the matcher as the sum of `card` over the expansion
    /// positions whose rooted label path equals the query (each position
    /// contributes `card × 1` — no predicates, no descendant states — and
    /// positions are visited in the same pre-order), so accumulating `card`
    /// per path hash replays the frontier once for *all* candidates instead
    /// of once per candidate. This is what lets the HET builder
    /// ([`crate::het::builder::HetBuilder`]) pay O(expansion) for its
    /// simple-path error ranking instead of O(paths × expansion).
    ///
    /// Keys are [`crate::het::hash::path_hash`] values — the same keys the
    /// HET stores — and a path absent from the map has estimate 0.
    pub fn simple_path_estimates(&self) -> HashMap<u64, f64> {
        let mut totals: HashMap<u64, f64> = HashMap::with_capacity(self.nodes.len());
        for node in &self.nodes {
            *totals.entry(node.path_hash).or_insert(0.0) += node.card;
        }
        totals
    }
}

/// The state of one [`FrontierMemo::build`] walk: the snapshot it expands
/// and the recursion tracker.
struct ExpansionWalk<'a> {
    frozen: &'a FrozenKernel,
    het: Option<&'a HyperEdgeTable>,
    recursion: FlatCounterStacks,
}

impl ExpansionWalk<'_> {
    /// Walks the expansion under `threshold`, recording every opened
    /// position into `nodes` (cleared first). Returns `false` as soon as
    /// a position beyond the `cap`-th would open, leaving `nodes` partial;
    /// stopping there also bounds walks that would otherwise never end,
    /// e.g. a negative threshold keeping cardinality-0 cycles open.
    fn record(&mut self, threshold: f64, cap: usize, nodes: &mut Vec<MemoNode>) -> bool {
        nodes.clear();
        self.recursion.clear();
        let Some(root) = self.frozen.root() else {
            return true;
        };

        let mut stack = vec![self.open(
            MemoNode {
                vertex: root,
                card: 1.0,
                fsel: 1.0,
                bsel: 1.0,
                path_hash: inc_hash(PATH_HASH_SEED, self.frozen.label(root)),
                subtree_end: 0,
            },
            nodes,
        )];
        while let Some(top) = stack.last_mut() {
            if top.next_slot >= top.end_slot {
                let done = stack.pop().expect("non-empty stack");
                let end = nodes.len() as u32;
                let node = &mut nodes[done.node as usize];
                node.subtree_end = end;
                self.recursion.pop(node.vertex);
                continue;
            }
            let slot = top.next_slot as usize;
            top.next_slot += 1;
            let parent = nodes[top.node as usize];
            let Some(child) = self.child_footprint(&parent, slot, threshold) else {
                continue;
            };
            if nodes.len() >= cap {
                return false;
            }
            stack.push(self.open(child, nodes));
        }
        true
    }

    /// Records `node` as the next position in pre-order and enters its
    /// vertex in the recursion tracker.
    fn open(&mut self, node: MemoNode, nodes: &mut Vec<MemoNode>) -> WalkFrame {
        self.recursion.push(node.vertex);
        let slots = self.frozen.out_slots(node.vertex);
        nodes.push(node);
        WalkFrame {
            node: nodes.len() as u32 - 1,
            next_slot: slots.start as u32,
            end_slot: slots.end as u32,
        }
    }

    /// The traveler's `EST`: the position reached from `parent` through
    /// `slot`, or `None` when traversal stops there (threshold or
    /// Observation 1).
    fn child_footprint(&self, parent: &MemoNode, slot: usize, threshold: f64) -> Option<MemoNode> {
        let child = self.frozen.slot_target(slot);
        let old_level = self.recursion.recursion_level();
        let new_level = self.recursion.peek_push(child);
        let path_hash = inc_hash(parent.path_hash, self.frozen.label(child));

        let (mut card, mut bsel) = if new_level < self.frozen.slot_levels(slot) {
            let card = self.frozen.slot_child_count(slot, new_level) as f64 * parent.fsel;
            let parent_in_sum = self.frozen.in_child_sum(parent.vertex, old_level);
            let bsel = if parent_in_sum == 0 {
                0.0
            } else {
                self.frozen.slot_parent_count(slot, new_level) as f64 / parent_in_sum as f64
            };
            (card, bsel)
        } else {
            (0.0, 0.0)
        };

        if let Some(het) = self.het {
            if let Some((actual_card, actual_bsel)) = het.lookup_simple(path_hash) {
                card = actual_card as f64;
                bsel = actual_bsel;
            }
        }

        if card <= threshold {
            return None;
        }

        let v_in_sum = self.frozen.in_child_sum(child, new_level);
        let fsel = if v_in_sum == 0 {
            0.0
        } else {
            card / v_in_sum as f64
        };

        Some(MemoNode {
            vertex: child,
            card,
            fsel,
            bsel,
            path_hash,
            subtree_end: 0,
        })
    }
}

/// An open position of an [`ExpansionWalk`]: its memo index and its
/// out-slot cursor.
struct WalkFrame {
    node: u32,
    next_slot: u32,
    end_slot: u32,
}

/// Counters and occupancy of a [`CompiledPlanCache`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CompiledCacheStats {
    /// Lookups answered with an already-compiled query.
    pub hits: u64,
    /// Lookups that had to compile.
    pub misses: u64,
    /// Compiled queries currently resident.
    pub entries: usize,
}

#[derive(Default)]
struct CompiledShard {
    map: HashMap<u64, CachedCompiled>,
    tick: u64,
}

struct CachedCompiled {
    compiled: Arc<CompiledQuery>,
    last_used: u64,
}

/// A per-snapshot cache of label-resolved [`CompiledQuery`]s, keyed by
/// [`QueryPlan::id`] — plan-cache hits skip recompilation entirely, and
/// since each compiled query also carries its answer cells, a repeat of
/// an estimated plan skips the replay too.
///
/// Sharded by plan id with per-shard mutexes and tick-stamped LRU
/// eviction, mirroring the service-layer plan cache: concurrent workers
/// estimating different plans rarely touch the same lock, and compilation
/// always happens *outside* any lock (two racing compiles of one plan
/// produce identical artifacts; the first insert wins and the loser's is
/// dropped).
///
/// A compiled query and its answers are only valid for the snapshot it
/// was compiled against, so the cache is owned by the snapshot bundle
/// ([`crate::synopsis::SynopsisSnapshot`]): a kernel/config/HET mutation
/// bumps the epoch, publishes a fresh snapshot, and thereby starts from an
/// empty cache — invalidation falls out of the existing epoch machinery.
/// A cache shared across snapshots would therefore hand one snapshot
/// another snapshot's estimates.
pub struct CompiledPlanCache {
    shards: Box<[Mutex<CompiledShard>]>,
    shard_capacity: usize,
    hits: AtomicU64,
    misses: AtomicU64,
}

impl std::fmt::Debug for CompiledPlanCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let stats = self.stats();
        f.debug_struct("CompiledPlanCache")
            .field("shards", &self.shards.len())
            .field("shard_capacity", &self.shard_capacity)
            .field("stats", &stats)
            .finish()
    }
}

impl CompiledPlanCache {
    /// Creates a cache of `shards` independent shards holding about
    /// `capacity` compiled queries in total. Both values are clamped to at
    /// least 1.
    pub fn new(shards: usize, capacity: usize) -> Self {
        let shards = shards.max(1);
        CompiledPlanCache {
            shards: (0..shards)
                .map(|_| Mutex::new(CompiledShard::default()))
                .collect(),
            shard_capacity: capacity.div_ceil(shards).max(1),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
        }
    }

    fn shard_for(&self, plan_id: u64) -> &Mutex<CompiledShard> {
        &self.shards[(plan_id % self.shards.len() as u64) as usize]
    }

    /// Returns the compiled form of the plan with identity `plan_id`,
    /// running `compile` (outside any lock) and caching the result on a
    /// miss.
    pub fn get_or_compile(
        &self,
        plan_id: u64,
        compile: impl FnOnce() -> CompiledQuery,
    ) -> Arc<CompiledQuery> {
        {
            let mut shard = self
                .shard_for(plan_id)
                .lock()
                .unwrap_or_else(|poison| poison.into_inner());
            shard.tick += 1;
            let tick = shard.tick;
            if let Some(cached) = shard.map.get_mut(&plan_id) {
                cached.last_used = tick;
                let compiled = cached.compiled.clone();
                drop(shard);
                self.hits.fetch_add(1, Ordering::Relaxed);
                return compiled;
            }
        }

        let compiled = Arc::new(compile());
        self.misses.fetch_add(1, Ordering::Relaxed);
        let mut shard = self
            .shard_for(plan_id)
            .lock()
            .unwrap_or_else(|poison| poison.into_inner());
        shard.tick += 1;
        let tick = shard.tick;
        if !shard.map.contains_key(&plan_id) {
            if shard.map.len() >= self.shard_capacity {
                if let Some(oldest) = shard
                    .map
                    .iter()
                    .min_by_key(|(_, c)| c.last_used)
                    .map(|(&k, _)| k)
                {
                    shard.map.remove(&oldest);
                }
            }
            shard.map.insert(
                plan_id,
                CachedCompiled {
                    compiled: compiled.clone(),
                    last_used: tick,
                },
            );
        }
        compiled
    }

    /// Current hit/miss counters and occupancy.
    pub fn stats(&self) -> CompiledCacheStats {
        CompiledCacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            entries: self
                .shards
                .iter()
                .map(|s| {
                    s.lock()
                        .unwrap_or_else(|poison| poison.into_inner())
                        .map
                        .len()
                })
                .sum(),
        }
    }
}

const NO_TABLES: u32 = u32::MAX;

/// Matches queries against a [`FrozenKernel`] snapshot by replaying its
/// [`FrontierMemo`]. Reusable across queries: the scratch buffers grow to
/// the high-water mark of the frontier and stay allocated.
pub struct StreamingMatcher<'a> {
    frozen: &'a FrozenKernel,
    names: &'a NameTable,
    config: &'a XseedConfig,
    het: Option<&'a HyperEdgeTable>,
    // Scratch, stack-disciplined (truncated on frame close).
    frames: Vec<Frame>,
    states: Vec<State>,
    cands: Vec<Candidate>,
    cell_refs: Vec<u32>,
    tables: Vec<f64>,
    anchors: Vec<Anchor>,
    // Scratch, per query (cleared on entry).
    cells: Vec<f64>,
    contribs: Vec<Contrib>,
    contrib_cands: Vec<Candidate>,
    contrib_cells: Vec<u32>,
    // Scratch, per open (cleared per node).
    produced: Vec<(u32, f64, u32, u32)>,
    produced_cells: Vec<u32>,
    node_cells: Vec<(u32, u32)>,
    opens: usize,
    /// The expansion every estimate replays: installed by
    /// [`StreamingMatcher::set_frontier_memo`], or built by the first
    /// estimate that needs it (HET fast-path answers do not).
    memo: Option<Arc<FrontierMemo>>,
    /// When set, [`StreamingMatcher::estimate_plan`] reuses compiled
    /// queries across estimates (see [`CompiledPlanCache`]).
    compiled_cache: Option<Arc<CompiledPlanCache>>,
}

impl<'a> StreamingMatcher<'a> {
    /// Creates a matcher over a frozen snapshot. `names` must be the name
    /// table of the kernel the snapshot was taken from. Without a memo
    /// installed through [`StreamingMatcher::set_frontier_memo`], the
    /// first estimate builds one.
    pub fn new(
        frozen: &'a FrozenKernel,
        names: &'a NameTable,
        config: &'a XseedConfig,
        het: Option<&'a HyperEdgeTable>,
    ) -> Self {
        StreamingMatcher {
            frozen,
            names,
            config,
            het,
            frames: Vec::new(),
            states: Vec::new(),
            cands: Vec::new(),
            cell_refs: Vec::new(),
            tables: Vec::new(),
            anchors: Vec::new(),
            cells: Vec::new(),
            contribs: Vec::new(),
            contrib_cands: Vec::new(),
            contrib_cells: Vec::new(),
            produced: Vec::new(),
            produced_cells: Vec::new(),
            node_cells: Vec::new(),
            opens: 0,
            memo: None,
            compiled_cache: None,
        }
    }

    /// Installs a pre-built (possibly shared) frontier memo.
    ///
    /// The memo must have been built from the same frozen snapshot,
    /// config, and HET this matcher was created over; estimates are
    /// undefined otherwise. That compatibility is the **caller's
    /// contract** — only the snapshot's vertex and slot counts are
    /// sanity-checked (in debug builds), which cannot catch e.g. a config
    /// or HET that differs over an identically shaped graph. Obtaining
    /// matchers through [`crate::synopsis::SynopsisSnapshot::matcher`]
    /// upholds the contract by construction (one bundle owns both).
    pub fn set_frontier_memo(&mut self, memo: Arc<FrontierMemo>) {
        debug_assert_eq!(memo.vertex_count, self.frozen.vertex_count());
        debug_assert_eq!(memo.slot_count, self.frozen.slot_count());
        self.memo = Some(memo);
    }

    /// Installs a shared per-snapshot compiled-query cache consulted by
    /// [`StreamingMatcher::estimate_plan`] and
    /// [`StreamingMatcher::estimate_plan_bound_timed`]. The cache holds
    /// compiled queries *and their answers*, so it must come from the same
    /// snapshot (frozen kernel, name table, config and HET) this matcher
    /// was created over: a cache filled on another snapshot returns that
    /// snapshot's estimates. This is the same caller's contract as
    /// [`StreamingMatcher::set_frontier_memo`], upheld by construction
    /// when matchers come from
    /// [`crate::synopsis::SynopsisSnapshot::matcher`].
    pub fn set_compiled_cache(&mut self, cache: Arc<CompiledPlanCache>) {
        self.compiled_cache = Some(cache);
    }

    /// Estimates the cardinality of a path expression.
    pub fn estimate(&mut self, expr: &PathExpr) -> f64 {
        self.estimate_with_stats(expr).0
    }

    /// Estimates a cached [`QueryPlan`], reusing its compiled
    /// (label-resolved) form across calls when a [`CompiledPlanCache`] is
    /// installed — the service hot path: a plan-cache hit then skips both
    /// the parse *and* the compilation, and a repeat of a plan already
    /// estimated on this snapshot reads the compiled query's answer cell
    /// instead of replaying the memo (the same bits). Without a cache this
    /// is equivalent to `estimate(plan.expr())`.
    pub fn estimate_plan(&mut self, plan: &QueryPlan) -> f64 {
        self.estimate_plan_timed(plan).0
    }

    /// [`StreamingMatcher::estimate_plan`], additionally reporting how
    /// long label resolution + NFA compilation took **when this call
    /// compiled the plan**: `None` on compiled-cache hits and
    /// pre-traversal answers (HET fast path / empty kernel). The timing
    /// is captured inside the cache's miss closure, so instrumented
    /// callers can attribute compilation separately from the estimate
    /// without a second cache round-trip (which would perturb the very
    /// hit/miss counters they report).
    pub fn estimate_plan_timed(&mut self, plan: &QueryPlan) -> (f64, Option<Duration>) {
        if let Some((answer, _)) = self.answer_without_traversal(plan.expr()) {
            return (answer, None);
        }
        let (compiled, compile_time) = self.compiled_plan(plan);
        let estimate = read_or_fill(&compiled.estimate, || self.run_compiled(&compiled).0);
        (estimate, compile_time)
    }

    /// The compiled form of `plan` — from the installed cache, or compiled
    /// here when there is none — with the compilation time when this call
    /// compiled it (`None` on a cache hit). The point and bound plan paths
    /// share this one lookup, so each estimate counts once in the cache's
    /// counters.
    fn compiled_plan(&self, plan: &QueryPlan) -> (Arc<CompiledQuery>, Option<Duration>) {
        let mut compile_time = None;
        let mut compile = || {
            let started = Instant::now();
            let compiled = self.compile(plan.expr());
            compile_time = Some(started.elapsed());
            compiled
        };
        let compiled = match &self.compiled_cache {
            Some(cache) => cache.get_or_compile(plan.id(), compile),
            None => Arc::new(compile()),
        };
        (compiled, compile_time)
    }

    /// Estimates a path expression in **bound mode**: the usual point
    /// estimate paired with a guaranteed upper bound on the true result
    /// cardinality.
    ///
    /// The bound is computed by `compute_bound`'s max-out-degree
    /// frontier propagation over the synopsis graph —
    /// worst-case fan-out instead of average fan-out, exact per-label node
    /// totals as clamps, predicates ignored (they only filter), and the
    /// point path's cardinality-threshold pruning (including its
    /// `max_ept_nodes` escalation) deliberately *not* applied (pruning
    /// drops mass, which would break the guarantee). HET entries clamp the bound downwards only — their
    /// simple-path cardinalities are exact counts — and never inflate it.
    /// `bound >= estimate` holds by construction.
    pub fn estimate_bound(&mut self, expr: &PathExpr) -> BoundedEstimate {
        let query = self.compile(expr);
        self.bound_compiled(expr, &query)
    }

    /// [`StreamingMatcher::estimate_bound`] over a cached [`QueryPlan`],
    /// sharing the compiled form with the point path when a
    /// [`CompiledPlanCache`] is installed: one cache lookup serves both
    /// halves, so a bound request counts once in the cache's counters.
    /// Both halves read and fill the compiled query's answer cells, so a
    /// repeat neither replays the memo nor reruns the bound propagation.
    /// The point half keeps [`StreamingMatcher::estimate_plan`]'s HET
    /// fast path. Like [`StreamingMatcher::estimate_plan_timed`], also
    /// reports the compilation time when this call compiled the plan.
    pub fn estimate_plan_bound_timed(
        &mut self,
        plan: &QueryPlan,
    ) -> (BoundedEstimate, Option<Duration>) {
        let (compiled, compile_time) = self.compiled_plan(plan);
        (self.bound_compiled(plan.expr(), &compiled), compile_time)
    }

    /// Bound mode over an already-compiled `query` (the compiled form of
    /// `expr`): the point half keeps the pre-traversal answers of
    /// [`StreamingMatcher::estimate`], and the bound half reuses the same
    /// compilation.
    fn bound_compiled(&mut self, expr: &PathExpr, query: &CompiledQuery) -> BoundedEstimate {
        let estimate = match self.answer_without_traversal(expr) {
            Some((answer, _)) => answer,
            None => read_or_fill(&query.estimate, || self.run_compiled(query).0),
        };
        let raw = read_or_fill(&query.bound, || self.compute_bound(query)) as f64;
        BoundedEstimate {
            estimate,
            bound: raw.max(estimate),
        }
    }

    /// Estimates the cardinality, also reporting the number of memo
    /// positions *visited* by the replay: at most the materialized EPT
    /// size, since the replay skips every child subtree where no frontier
    /// state is viable and no pending predicate table can rise (see the
    /// module docs; both prunes leave the estimate's bits unchanged).
    pub fn estimate_with_stats(&mut self, expr: &PathExpr) -> (f64, usize) {
        if let Some(answer) = self.answer_without_traversal(expr) {
            return answer;
        }
        let query = self.compile(expr);
        self.run_compiled(&query)
    }

    /// The pre-traversal answers shared by the expression and plan entry
    /// points: the Section 5 HET fast path (a simple path resident in the
    /// table is answered exactly, identical to `Matcher::estimate`) and
    /// the empty-kernel case.
    fn answer_without_traversal(&self, expr: &PathExpr) -> Option<(f64, usize)> {
        if let Some(het) = self.het {
            if let Some(actual) = het.answer_simple_path(self.names, expr) {
                return Some((actual, 0));
            }
        }
        if self.frozen.root().is_none() {
            return Some((0.0, 0));
        }
        None
    }

    /// Replays the frontier memo (building it first if this matcher has
    /// none) and matches an already-compiled query in the same pass,
    /// summing the contributions. Frame cursors index memo positions;
    /// advancing a cursor jumps over the child's whole pre-order extent,
    /// so pruning a subtree costs O(1).
    fn run_compiled(&mut self, query: &CompiledQuery) -> (f64, usize) {
        let memo = self
            .memo
            .get_or_insert_with(|| {
                Arc::new(FrontierMemo::build(self.frozen, self.config, self.het))
            })
            .clone();
        let nodes = &memo.nodes;
        let Some(&root) = nodes.first() else {
            return (0.0, 0);
        };
        self.reset();

        // Seed the root's incoming frontier: spine index 0, factor 1.
        let incoming_start = self.states.len() as u32;
        if !query.dead[0] {
            let cand = self.cands.len() as u32;
            self.cands.push(Candidate {
                value: 1.0,
                cells_start: 0,
                cells_len: 0,
            });
            self.states.push(State {
                idx: 0,
                cand_start: cand,
                cand_len: 1,
            });
        }
        let incoming_end = self.states.len() as u32;
        self.open_frame(root, 1, incoming_start, incoming_end, query);

        while let Some(frame) = self.frames.last().copied() {
            if frame.next_child >= frame.subtree_end {
                self.close_top(query);
                continue;
            }
            let m = frame.next_child;
            let node = nodes[m as usize];
            let top = self.frames.len() - 1;
            self.frames[top].next_child = node.subtree_end;
            let raises_tables =
                frame.tables_active && query.may_match_predicate(self.frozen, node.vertex);
            if !raises_tables && !self.any_state_viable(&frame, node.vertex, query) {
                continue;
            }
            self.open_frame(node, m + 1, frame.states_start, frame.states_end, query);
        }

        (self.sum_contributions(), self.opens)
    }

    // ------------------------------------------------------------------
    // Query compilation
    // ------------------------------------------------------------------

    fn resolve_test(&self, test: &NodeTest) -> Test {
        match test {
            NodeTest::Wildcard => Test::Any,
            NodeTest::Name(n) => match self.names.lookup(n) {
                Some(l) => Test::Label(l),
                None => Test::Never,
            },
        }
    }

    fn compile_pred(&self, qt: &QueryTree, id: QtnId, preds: &mut Vec<PredNode>) -> u32 {
        let node = qt.node(id);
        let test = self.resolve_test(&node.test);
        let my_idx = preds.len() as u32;
        preds.push(PredNode {
            test,
            axis: node.axis,
            children: Vec::new(),
            single_label: None,
        });
        let children: Vec<u32> = qt
            .children(id)
            .iter()
            .map(|&c| self.compile_pred(qt, c, preds))
            .collect();
        let single_label = if node.axis == Axis::Child && children.is_empty() {
            match test {
                Test::Label(l) => Some(l),
                _ => None,
            }
        } else {
            None
        };
        let slot = &mut preds[my_idx as usize];
        slot.children = children;
        slot.single_label = single_label;
        my_idx
    }

    fn pred_has_never(&self, preds: &[PredNode], root: u32) -> bool {
        let node = &preds[root as usize];
        node.test == Test::Never || node.children.iter().any(|&c| self.pred_has_never(preds, c))
    }

    fn compile(&self, expr: &PathExpr) -> CompiledQuery {
        let qt = QueryTree::from_expr(expr);
        let spine_ids = qt.spine();
        let mut preds: Vec<PredNode> = Vec::new();
        let mut spine: Vec<SpineStep> = Vec::with_capacity(spine_ids.len());

        for (i, &sid) in spine_ids.iter().enumerate() {
            let node = qt.node(sid);
            let pred_roots: Vec<u32> = qt
                .predicate_children(sid)
                .iter()
                .map(|&p| self.compile_pred(&qt, p, &mut preds))
                .collect();
            let all_simple = pred_roots
                .iter()
                .map(|&p| preds[p as usize].single_label)
                .collect::<Option<Vec<LabelId>>>()
                .filter(|labels| !labels.is_empty());
            let sibling = spine_ids.get(i + 1).and_then(|&next| {
                let n = qt.node(next);
                if n.axis != Axis::Child {
                    return None;
                }
                match &n.test {
                    NodeTest::Name(name) => self.names.lookup(name),
                    NodeTest::Wildcard => None,
                }
            });
            spine.push(SpineStep {
                test: self.resolve_test(&node.test),
                axis: node.axis,
                pred_roots,
                all_simple,
                sibling,
            });
        }

        // Dead suffixes: a state can only complete if every later spine
        // test (and every predicate tree along the way) can match at all.
        let mut dead = vec![false; spine.len()];
        let mut blocked = false;
        for i in (0..spine.len()).rev() {
            let step = &spine[i];
            if step.test == Test::Never
                || step
                    .pred_roots
                    .iter()
                    .any(|&p| self.pred_has_never(&preds, p))
            {
                blocked = true;
            }
            dead[i] = blocked;
        }

        // Required-label masks, as suffix unions of the named spine tests,
        // then the predicate labels.
        let label_words = self.frozen.label_words();
        let mut masks = vec![0u64; (spine.len() + 1) * label_words];
        let mut suffix = vec![0u64; label_words];
        for i in (0..spine.len()).rev() {
            if let Test::Label(l) = spine[i].test {
                suffix[l.index() / 64] |= 1u64 << (l.index() % 64);
            }
            masks[i * label_words..(i + 1) * label_words].copy_from_slice(&suffix);
        }
        let pred_row = spine.len() * label_words;
        for pred in &preds {
            if let Test::Label(l) = pred.test {
                masks[pred_row + l.index() / 64] |= 1u64 << (l.index() % 64);
            }
        }
        let pred_wildcard = preds.iter().any(|p| p.test == Test::Any);

        CompiledQuery {
            spine,
            preds,
            dead,
            masks,
            label_words,
            pred_wildcard,
            estimate: OnceLock::new(),
            bound: OnceLock::new(),
        }
    }

    // ------------------------------------------------------------------
    // Traversal
    // ------------------------------------------------------------------

    fn reset(&mut self) {
        self.frames.clear();
        self.states.clear();
        self.cands.clear();
        self.cell_refs.clear();
        self.tables.clear();
        self.anchors.clear();
        self.cells.clear();
        self.contribs.clear();
        self.contrib_cands.clear();
        self.contrib_cells.clear();
        self.opens = 0;
    }

    /// Whether any inherited frontier state could still complete inside the
    /// subtree of `child`: a child-axis state must match `child` itself,
    /// and every state needs its remaining labels at or below it (see the
    /// module docs).
    fn any_state_viable(&self, parent: &Frame, child: VertexId, query: &CompiledQuery) -> bool {
        let label = self.frozen.label(child);
        self.states[parent.states_start as usize..parent.states_end as usize]
            .iter()
            .any(|s| {
                let step = &query.spine[s.idx as usize];
                (step.axis == Axis::Descendant || step.test.matches(label))
                    && self
                        .frozen
                        .reaches_all(child, query.req_mask(s.idx as usize))
            })
    }

    /// Opens a frame for the memo position `fp`, processing the inherited
    /// frontier states exactly as the materialized matcher processes one
    /// EPT node. `first_child` is the memo index of `fp`'s first child
    /// position.
    fn open_frame(
        &mut self,
        fp: MemoNode,
        first_child: u32,
        incoming_start: u32,
        incoming_end: u32,
        query: &CompiledQuery,
    ) {
        self.opens += 1;
        let label = self.frozen.label(fp.vertex);
        let states_start = self.states.len() as u32;
        let cands_mark = self.cands.len() as u32;
        let cell_refs_mark = self.cell_refs.len() as u32;
        let anchors_start = self.anchors.len() as u32;
        let spine_len = query.spine.len() as u32;

        self.produced.clear();
        self.produced_cells.clear();
        self.node_cells.clear();
        let mut contrib_here: Option<(u32, u32)> = None; // range in contrib_cands

        for si in incoming_start as usize..incoming_end as usize {
            let state = self.states[si];
            let i = state.idx as usize;
            let step = &query.spine[i];
            if step.test.matches(label) {
                if let Some((known, cells_start, cells_len)) =
                    self.step_factor(step, fp.path_hash, query)
                {
                    if i as u32 + 1 == spine_len {
                        // Result reached: defer `card × max(candidates)`.
                        let start = self.contrib_cands.len() as u32;
                        for ci in state.cand_start..state.cand_start + state.cand_len {
                            let cand = self.cands[ci as usize];
                            let cs = self.contrib_cells.len() as u32;
                            for r in cand.cells_start..cand.cells_start + cand.cells_len {
                                let cell = self.cell_refs[r as usize];
                                self.contrib_cells.push(cell);
                            }
                            for r in cells_start..cells_start + cells_len {
                                let cell = self.produced_cells[r as usize];
                                self.contrib_cells.push(cell);
                            }
                            self.contrib_cands.push(Candidate {
                                value: cand.value * known,
                                cells_start: cs,
                                cells_len: cand.cells_len + cells_len,
                            });
                        }
                        let end = self.contrib_cands.len() as u32;
                        contrib_here = match contrib_here {
                            None => Some((start, end)),
                            Some((s, _)) => Some((s, end)),
                        };
                    } else if !query.dead[i + 1] {
                        for ci in state.cand_start..state.cand_start + state.cand_len {
                            let cand = self.cands[ci as usize];
                            let pc = self.produced_cells.len() as u32;
                            for r in cand.cells_start..cand.cells_start + cand.cells_len {
                                let cell = self.cell_refs[r as usize];
                                self.produced_cells.push(cell);
                            }
                            for r in cells_start..cells_start + cells_len {
                                let cell = self.produced_cells[r as usize];
                                self.produced_cells.push(cell);
                            }
                            self.produced.push((
                                i as u32 + 1,
                                cand.value * known,
                                pc,
                                cand.cells_len + cells_len,
                            ));
                        }
                    }
                }
            }
            if step.axis == Axis::Descendant {
                // Descendant states survive downwards unchanged.
                for ci in state.cand_start..state.cand_start + state.cand_len {
                    let cand = self.cands[ci as usize];
                    let pc = self.produced_cells.len() as u32;
                    for r in cand.cells_start..cand.cells_start + cand.cells_len {
                        let cell = self.cell_refs[r as usize];
                        self.produced_cells.push(cell);
                    }
                    self.produced
                        .push((state.idx, cand.value, pc, cand.cells_len));
                }
            }
        }

        if let Some((start, end)) = contrib_here {
            self.contribs.push(Contrib {
                card: fp.card,
                cand_start: start,
                cand_len: end - start,
            });
        }

        // Group produced entries into the frame's child-state list, merging
        // pure (cell-free) candidates per spine index by max — exactly the
        // materialized matcher's `push_state`.
        let mut p = 0;
        while p < self.produced.len() {
            let idx = self.produced[p].0;
            if self.states[states_start as usize..]
                .iter()
                .any(|s| s.idx == idx)
            {
                p += 1;
                continue;
            }
            let cand_start = self.cands.len() as u32;
            let mut pure: Option<f64> = None;
            for q in p..self.produced.len() {
                let (qidx, value, pc, plen) = self.produced[q];
                if qidx != idx {
                    continue;
                }
                if plen == 0 {
                    pure = Some(pure.map_or(value, |v: f64| v.max(value)));
                } else {
                    let cs = self.cell_refs.len() as u32;
                    for r in pc..pc + plen {
                        let cell = self.produced_cells[r as usize];
                        self.cell_refs.push(cell);
                    }
                    self.cands.push(Candidate {
                        value,
                        cells_start: cs,
                        cells_len: plen,
                    });
                }
            }
            if let Some(v) = pure {
                self.cands.push(Candidate {
                    value: v,
                    cells_start: 0,
                    cells_len: 0,
                });
            }
            self.states.push(State {
                idx,
                cand_start,
                cand_len: self.cands.len() as u32 - cand_start,
            });
            p += 1;
        }

        let own_cells = self.anchors.len() as u32 > anchors_start;
        let parent_active = self.frames.last().is_some_and(|f| f.tables_active);
        let tables_active = parent_active || own_cells;
        let pred_start = if tables_active {
            let start = self.tables.len() as u32;
            self.tables
                .resize(self.tables.len() + 2 * query.preds.len(), 0.0);
            start
        } else {
            NO_TABLES
        };

        self.frames.push(Frame {
            vertex: fp.vertex,
            bsel: fp.bsel,
            next_child: first_child,
            subtree_end: fp.subtree_end,
            states_start,
            states_end: self.states.len() as u32,
            cands_mark,
            cell_refs_mark,
            pred_start,
            anchors_start,
            tables_active,
        });
    }

    /// The combined predicate factor of `step` anchored at the node being
    /// opened: `Some((known, produced_cells range))`, or `None` when the
    /// factor is known to be zero (the state must not advance). Mirrors
    /// `Matcher::predicate_factor` with embeddings deferred to cells.
    fn step_factor(
        &mut self,
        step: &SpineStep,
        anchor_hash: u64,
        query: &CompiledQuery,
    ) -> Option<(f64, u32, u32)> {
        if step.pred_roots.is_empty() {
            return Some((1.0, 0, 0));
        }

        // Whole-step correlated HET entry: used verbatim when present.
        if let (Some(het), Some(simple), Some(sibling)) = (self.het, &step.all_simple, step.sibling)
        {
            if let Some(factor) =
                het.lookup_correlated(correlated_key(anchor_hash, simple, sibling))
            {
                if factor > 0.0 {
                    return Some((factor, 0, 0));
                }
                return None;
            }
        }

        let mut known = 1.0f64;
        let cells_start = self.produced_cells.len() as u32;
        let mut cells_len = 0u32;
        for &pr in &step.pred_roots {
            // Per-predicate correlated entry.
            let single = match (
                self.het,
                query.preds[pr as usize].single_label,
                step.sibling,
            ) {
                (Some(het), Some(label), Some(sibling)) => {
                    het.lookup_correlated(correlated_key(anchor_hash, &[label], sibling))
                }
                _ => None,
            };
            match single {
                Some(bsel) => {
                    if bsel <= 0.0 {
                        self.produced_cells.truncate(cells_start as usize);
                        return None;
                    }
                    known *= bsel.min(1.0);
                }
                None => {
                    let cell = self.cell_for(pr);
                    self.produced_cells.push(cell);
                    cells_len += 1;
                }
            }
        }
        Some((known, cells_start, cells_len))
    }

    /// Returns the cell for `pred` anchored at the node currently being
    /// opened, creating (and registering) it on first use.
    fn cell_for(&mut self, pred: u32) -> u32 {
        if let Some(&(_, cell)) = self.node_cells.iter().find(|&&(p, _)| p == pred) {
            return cell;
        }
        let cell = self.cells.len() as u32;
        self.cells.push(f64::NAN);
        self.anchors.push(Anchor { pred, cell });
        self.node_cells.push((pred, cell));
        cell
    }

    /// Closes the top frame: resolves its anchored cells, folds its
    /// embedding tables into its parent, and truncates the scratch stacks.
    fn close_top(&mut self, query: &CompiledQuery) {
        let frame = self.frames.pop().expect("close requires an open frame");

        if frame.tables_active {
            let p_count = query.preds.len();
            let base = frame.pred_start as usize;
            let label = self.frozen.label(frame.vertex);

            // Resolve cells anchored here: the best embedding of the
            // predicate root under this frame (child axis -> gc,
            // descendant axis -> gd).
            for a in frame.anchors_start as usize..self.anchors.len() {
                let Anchor { pred, cell } = self.anchors[a];
                let value = match query.preds[pred as usize].axis {
                    Axis::Child => self.tables[base + pred as usize],
                    Axis::Descendant => self.tables[base + p_count + pred as usize],
                };
                self.cells[cell as usize] = value;
            }

            // Fold into the parent: parent.gc/gd absorb f(q, this) and the
            // bsel-weighted descendant table.
            if let Some(parent) = self.frames.last() {
                if parent.tables_active {
                    let p_base = parent.pred_start as usize;
                    for q in 0..p_count {
                        let f_q = self.exact_factor(query, q, base, p_count, frame.bsel);
                        if query.preds[q].test.matches(label) {
                            let gc = &mut self.tables[p_base + q];
                            if f_q > *gc {
                                *gc = f_q;
                            }
                            let gd = &mut self.tables[p_base + p_count + q];
                            if f_q > *gd {
                                *gd = f_q;
                            }
                        }
                        let through = frame.bsel * self.tables[base + p_count + q];
                        let gd = &mut self.tables[p_base + p_count + q];
                        if through > *gd {
                            *gd = through;
                        }
                    }
                }
            }
            self.tables.truncate(base);
        }

        self.anchors.truncate(frame.anchors_start as usize);
        self.states.truncate(frame.states_start as usize);
        self.cands.truncate(frame.cands_mark as usize);
        self.cell_refs.truncate(frame.cell_refs_mark as usize);
    }

    /// `f(q, node)` of the bottom-up embedding recurrence: the node's bsel
    /// times the clamped best embeddings of `q`'s children below it
    /// (mirrors `Matcher::factor_at`).
    fn exact_factor(
        &self,
        query: &CompiledQuery,
        q: usize,
        base: usize,
        p_count: usize,
        bsel: f64,
    ) -> f64 {
        let mut factor = bsel;
        for &child in &query.preds[q].children {
            let sub = match query.preds[child as usize].axis {
                Axis::Child => self.tables[base + child as usize],
                Axis::Descendant => self.tables[base + p_count + child as usize],
            };
            if sub <= 0.0 {
                return 0.0;
            }
            factor *= sub.min(1.0);
        }
        factor
    }

    /// Evaluates the deferred contributions once all cells are resolved.
    fn sum_contributions(&self) -> f64 {
        let mut total = 0.0;
        for contrib in &self.contribs {
            let mut best = 0.0f64;
            for ci in contrib.cand_start..contrib.cand_start + contrib.cand_len {
                let cand = self.contrib_cands[ci as usize];
                let mut value = cand.value;
                for r in cand.cells_start..cand.cells_start + cand.cells_len {
                    let cell = self.contrib_cells[r as usize] as usize;
                    let resolved = self.cells[cell];
                    debug_assert!(!resolved.is_nan(), "cell read before resolution");
                    if resolved <= 0.0 {
                        value = 0.0;
                        break;
                    }
                    value *= resolved.min(1.0);
                }
                best = best.max(value);
            }
            total += contrib.card * best;
        }
        total
    }

    // ------------------------------------------------------------------
    // Bound mode
    // ------------------------------------------------------------------

    /// Computes a guaranteed upper bound on the number of document nodes
    /// matching `query`, by worst-case frontier propagation over the
    /// synopsis graph.
    ///
    /// The frontier maps each synopsis vertex `v` (one per label) to
    /// `B(v)`, an upper bound on the number of document nodes at `v`
    /// matched by the spine prefix processed so far. The three per-kernel
    /// tables it reads are built once by [`FrozenKernel::freeze`]:
    /// `total[v]` ([`FrozenKernel::node_total`]), the per-slot child count
    /// ([`FrozenKernel::slot_child_total`]) and `maxdeg`
    /// ([`FrozenKernel::slot_max_fanout`]). Soundness rests on per-step
    /// arguments:
    ///
    /// * **Exact label totals.** `total[v]` is the exact number of
    ///   document nodes with `v`'s label: every non-root node is counted
    ///   once as a child on exactly one `(edge, recursion level)` pair,
    ///   plus one for the root node itself. No `B(v)` may exceed it.
    /// * **Child steps.** A parent node on edge `u -> v` at recursion
    ///   level `r` has at most `c_r - p_r + 1` children at `v` (all
    ///   same-label children of one parent share one level, and each of
    ///   the `p_r` recorded parents has at least one child), so `maxdeg`
    ///   — the maximum of that expression over the levels with children —
    ///   bounds any single parent's fan-out. `B(u) * maxdeg` then bounds
    ///   the matched children through the edge, as does the edge's child
    ///   count over all levels; the minimum of the two is taken. Summing
    ///   over frontier vertices is sound because distinct vertices carry
    ///   distinct labels, hence disjoint parent-node sets, and every child
    ///   has one parent.
    /// * **Descendant steps.** Matched nodes are strict descendants of
    ///   some step `i-1` node, so their labels lie in the union of the
    ///   reachable-label rows of the frontier's *children* (a self-loop
    ///   covers same-label recursion); every vertex whose label is in
    ///   that union gets the always-sound `B(v) = total[v]`.
    /// * **Predicates only filter**, so ignoring them preserves the
    ///   bound, and the point path's cardinality-threshold pruning
    ///   (`card_threshold` and its `max_ept_nodes` escalation) is never
    ///   applied (pruning drops mass).
    /// * **HET clamps, never inflates.** A frontier entry tagged
    ///   [`PathTag::Known`] over-counts only nodes sharing one rooted
    ///   label path; the HET's simple-path cardinality for that path is an
    ///   exact count, so `min`-ing with it cannot cut below the truth.
    ///
    /// Arithmetic saturates at `u64::MAX`; an empty kernel bounds 0.
    fn compute_bound(&self, query: &CompiledQuery) -> u64 {
        let frozen = self.frozen;
        let Some(root) = frozen.root() else {
            return 0;
        };
        let Some(step0) = query.spine.first() else {
            return 0;
        };
        let n = frozen.vertex_count();

        let het_clamp = |entry: (u64, PathTag)| -> (u64, PathTag) {
            let (b, tag) = entry;
            if let (Some(het), PathTag::Known(h)) = (self.het, tag) {
                if let Some((card, _)) = het.lookup_simple(h) {
                    return (b.min(card), tag);
                }
            }
            (b, tag)
        };

        // Seed the step-0 frontier. A leading child axis matches only the
        // root node; a leading descendant axis is at-or-below the root,
        // i.e. every node in the document.
        let mut frontier: Vec<Option<(u64, PathTag)>> = vec![None; n];
        match step0.axis {
            Axis::Child => {
                if step0.test.matches(frozen.label(root)) {
                    let h = inc_hash(PATH_HASH_SEED, frozen.label(root));
                    frontier[root.index()] = Some(het_clamp((1, PathTag::Known(h))));
                }
            }
            Axis::Descendant => {
                for (vi, slot) in frontier.iter_mut().enumerate() {
                    let v = VertexId(vi as u32);
                    let total = frozen.node_total(v);
                    if step0.test.matches(frozen.label(v)) && total > 0 {
                        *slot = Some((total, PathTag::Ambiguous));
                    }
                }
            }
        }

        let mut next: Vec<Option<(u64, PathTag)>> = vec![None; n];
        for step in &query.spine[1..] {
            next.fill(None);
            match step.axis {
                Axis::Child => {
                    for (ui, entry) in frontier.iter().enumerate() {
                        let Some((b_u, tag_u)) = *entry else {
                            continue;
                        };
                        if b_u == 0 {
                            continue;
                        }
                        for slot in frozen.out_slots(VertexId(ui as u32)) {
                            let v = frozen.slot_target(slot);
                            let label = frozen.label(v);
                            if !step.test.matches(label) {
                                continue;
                            }
                            let contribution = frozen
                                .slot_child_total(slot)
                                .min(b_u.saturating_mul(frozen.slot_max_fanout(slot)));
                            if contribution == 0 {
                                continue;
                            }
                            let tag_v = match tag_u {
                                PathTag::Known(h) => PathTag::Known(inc_hash(h, label)),
                                PathTag::Ambiguous => PathTag::Ambiguous,
                            };
                            let vi = v.index();
                            next[vi] = Some(match next[vi] {
                                None => (contribution, tag_v),
                                Some((b, t)) => (
                                    b.saturating_add(contribution),
                                    if t == tag_v { t } else { PathTag::Ambiguous },
                                ),
                            });
                        }
                    }
                    for (vi, entry) in next.iter_mut().enumerate() {
                        if let Some((b, t)) = *entry {
                            let total = frozen.node_total(VertexId(vi as u32));
                            *entry = Some(het_clamp((b.min(total), t)));
                        }
                    }
                }
                Axis::Descendant => {
                    let words = frozen.label_words();
                    let mut mask = vec![0u64; words];
                    for (ui, entry) in frontier.iter().enumerate() {
                        let Some((b_u, _)) = *entry else {
                            continue;
                        };
                        if b_u == 0 {
                            continue;
                        }
                        for slot in frozen.out_slots(VertexId(ui as u32)) {
                            let child = frozen.slot_target(slot);
                            for (m, r) in mask.iter_mut().zip(frozen.reach_row(child)) {
                                *m |= r;
                            }
                        }
                    }
                    for (vi, entry) in next.iter_mut().enumerate() {
                        let v = VertexId(vi as u32);
                        let label = frozen.label(v);
                        let total = frozen.node_total(v);
                        if !step.test.matches(label) || total == 0 {
                            continue;
                        }
                        let word = label.index() / 64;
                        if word < words && mask[word] & (1u64 << (label.index() % 64)) != 0 {
                            *entry = Some((total, PathTag::Ambiguous));
                        }
                    }
                }
            }
            std::mem::swap(&mut frontier, &mut next);
        }

        frontier
            .iter()
            .flatten()
            .fold(0u64, |acc, &(b, _)| acc.saturating_add(b))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::estimate::ept::ExpandedPathTree;
    use crate::estimate::matcher::Matcher;
    use crate::het::hash::path_hash;
    use crate::kernel::{Kernel, KernelBuilder};
    use xmlkit::samples::{figure2_document, figure4_document};
    use xpathkit::parse;

    fn assert_matches_materialized(
        kernel: &Kernel,
        het: Option<&HyperEdgeTable>,
        queries: &[&str],
    ) {
        assert_matches_materialized_with_config(kernel, het, &XseedConfig::default(), queries);
    }

    fn assert_matches_materialized_with_config(
        kernel: &Kernel,
        het: Option<&HyperEdgeTable>,
        config: &XseedConfig,
        queries: &[&str],
    ) {
        let ept = ExpandedPathTree::generate(kernel, config, het);
        let matcher = Matcher::new(kernel, &ept, het);
        let frozen = FrozenKernel::freeze(kernel);
        let mut streaming = StreamingMatcher::new(&frozen, kernel.names(), config, het);
        for q in queries {
            let expr = parse(q).unwrap();
            let expected = matcher.estimate(&expr);
            let got = streaming.estimate(&expr);
            assert!(
                (expected - got).abs() < 1e-9,
                "{q}: streaming {got} != materialized {expected}"
            );
        }
    }

    const FIGURE2_QUERIES: &[&str] = &[
        "/a",
        "/a/c",
        "/a/c/s",
        "/a/c/s/s",
        "/a/c/s/s/t",
        "/a/c/s/p",
        "/a/t",
        "/a/u",
        "/c",
        "/zzz",
        "/a/zzz",
        "//c",
        "//s",
        "//p",
        "//*",
        "/a/*",
        "//s//s//p",
        "//s//s//s//s",
        "/a/c/s[t]",
        "/a/c/s[t]/p",
        "/a/c/s[t][s]/p",
        "/a/c[s[s]]",
        "/a/c[//t]",
        "/a/c[zzz]",
        "//s[p]/t",
        "//*[s]/p",
        "/a//s[t//p]/p",
        "//c[s/s]//t",
    ];

    #[test]
    fn streaming_matches_materialized_on_figure2() {
        let kernel = KernelBuilder::from_document(&figure2_document());
        assert_matches_materialized(&kernel, None, FIGURE2_QUERIES);
    }

    #[test]
    fn streaming_matches_materialized_on_figure4() {
        let kernel = KernelBuilder::from_document(&figure4_document());
        assert_matches_materialized(&kernel, None, FIGURE4_QUERIES);
    }

    #[test]
    fn streaming_matches_materialized_with_het() {
        let kernel = KernelBuilder::from_document(&figure2_document());
        let names = kernel.names();
        let l = |n: &str| names.lookup(n).unwrap();
        let mut het = HyperEdgeTable::new();
        // Simple-path override (a fake actual for /a/c) plus a correlated
        // entry for s[t]/p.
        het.insert_simple(path_hash(&[l("a"), l("c")]), 7, 0.9, 100.0);
        let anchor = path_hash(&[l("a"), l("c"), l("s")]);
        het.insert_correlated(correlated_key(anchor, &[l("t")], l("p")), 9, 1.0, 50.0);
        het.rebuild_residency();
        assert_matches_materialized(&kernel, Some(&het), FIGURE2_QUERIES);
    }

    #[test]
    fn streaming_matches_materialized_with_card_threshold() {
        let kernel = KernelBuilder::from_document(&figure2_document());
        assert_matches_materialized_with_config(
            &kernel,
            None,
            &XseedConfig::default().with_card_threshold(2.0),
            FIGURE2_QUERIES,
        );
    }

    #[test]
    fn known_figure2_estimates() {
        // Spot-check absolute values from the paper against the streaming
        // path (not just agreement with the oracle).
        let kernel = KernelBuilder::from_document(&figure2_document());
        let frozen = FrozenKernel::freeze(&kernel);
        let config = XseedConfig::default();
        let mut m = StreamingMatcher::new(&frozen, kernel.names(), &config, None);
        for (q, expected) in [
            ("/a/c/s", 5.0),
            ("/a/c/s/s/t", 1.0),
            ("//p", 17.0),
            ("//*", 36.0),
            ("/a/c/s[t]/p", 3.6),
            ("/a/c/s[t][s]/p", 1.44),
            ("/a/c[s[s]]", 0.8),
        ] {
            let est = m.estimate(&parse(q).unwrap());
            assert!((est - expected).abs() < 1e-9, "{q}: {est} != {expected}");
        }
    }

    #[test]
    fn pruning_reduces_visited_nodes_without_changing_estimates() {
        // (document, query, estimate, memo positions visited). Figure 2's
        // memo holds 14 positions, Figure 4's 9.
        let cases = [
            // The child-axis step `t` cannot match `u` or `c`.
            (figure2_document(), "/a/t", 1.0, 2),
            // Only `c` can match the child-axis step below `a`.
            (figure2_document(), "/a/c/s/p", 9.0, 4),
            // Under the pending `[t]` and `[s/p]` tables, subtrees without
            // a predicate label are skipped too.
            (figure2_document(), "/a/c/s[t]/p", 3.6, 8),
            (figure2_document(), "/a/c[s/p]/s", 5.0, 9),
            (figure4_document(), "/a/b[c]/d", 0.0, 3),
            (figure4_document(), "/a[b/d]/b/c", 0.0, 5),
            // A wildcard query visits everything the materialized EPT holds.
            (figure2_document(), "//*", 36.0, 14),
        ];
        for (doc, q, expected, expected_visited) in cases {
            let kernel = KernelBuilder::from_document(&doc);
            let frozen = FrozenKernel::freeze(&kernel);
            let config = XseedConfig::default();
            let mut m = StreamingMatcher::new(&frozen, kernel.names(), &config, None);
            let expr = parse(q).unwrap();
            let (est, visited) = m.estimate_with_stats(&expr);
            let ept = ExpandedPathTree::generate(&kernel, &config, None);
            let oracle = Matcher::new(&kernel, &ept, None).estimate(&expr);
            assert!((est - oracle).abs() < 1e-9, "{q}: {est} != oracle {oracle}");
            assert!((est - expected).abs() < 1e-9, "{q}: {est} != {expected}");
            assert_eq!(visited, expected_visited, "{q}: visited positions");
        }
    }

    #[test]
    fn empty_kernel_estimates_zero() {
        let kernel = Kernel::new();
        let frozen = FrozenKernel::freeze(&kernel);
        let config = XseedConfig::default();
        assert!(FrontierMemo::build(&frozen, &config, None).is_empty());
        let mut m = StreamingMatcher::new(&frozen, kernel.names(), &config, None);
        assert_eq!(m.estimate(&parse("/a").unwrap()), 0.0);
        assert_matches_materialized(&kernel, None, &["/a", "//*", "/a[b]/c"]);
    }

    #[test]
    fn matcher_is_reusable_across_queries() {
        let kernel = KernelBuilder::from_document(&figure2_document());
        let frozen = FrozenKernel::freeze(&kernel);
        let config = XseedConfig::default();
        let mut m = StreamingMatcher::new(&frozen, kernel.names(), &config, None);
        // Interleave predicate-heavy and simple queries to shake the
        // scratch reuse.
        for _ in 0..3 {
            assert!((m.estimate(&parse("/a/c/s[t][s]/p").unwrap()) - 1.44).abs() < 1e-9);
            assert!((m.estimate(&parse("//p").unwrap()) - 17.0).abs() < 1e-9);
            assert!((m.estimate(&parse("/a/c").unwrap()) - 2.0).abs() < 1e-9);
        }
    }

    #[test]
    fn memo_size_equals_materialized_ept() {
        let kernel = KernelBuilder::from_document(&figure2_document());
        let frozen = FrozenKernel::freeze(&kernel);
        let config = XseedConfig::default();
        let memo = FrontierMemo::build(&frozen, &config, None);
        let ept = ExpandedPathTree::generate(&kernel, &config, None);
        assert_eq!(memo.len(), ept.len());
        assert!(!memo.is_empty());
    }

    #[test]
    fn memo_respects_max_ept_nodes() {
        let kernel = KernelBuilder::from_document(&figure2_document());
        let frozen = FrozenKernel::freeze(&kernel);
        let config = XseedConfig {
            max_ept_nodes: 3,
            ..XseedConfig::default()
        };
        let memo = FrontierMemo::build(&frozen, &config, None);
        assert!(memo.len() <= 3);
        let mut m = StreamingMatcher::new(&frozen, kernel.names(), &config, None);
        m.set_frontier_memo(std::sync::Arc::new(memo));
        let (_, visited) = m.estimate_with_stats(&parse("//*").unwrap());
        assert!(visited <= 3);
    }

    /// Asserts that under a tiny `max_ept_nodes` the memo records exactly
    /// the materialized EPT, which fits the cap, and that replaying it
    /// agrees with the oracle on every query.
    fn assert_one_frontier_under_cap(
        kernel: &Kernel,
        het: Option<&HyperEdgeTable>,
        cap: usize,
        queries: &[&str],
    ) {
        let config = XseedConfig {
            max_ept_nodes: cap,
            ..XseedConfig::default()
        };
        let ept = ExpandedPathTree::generate(kernel, &config, het);
        assert!(ept.len() <= cap, "cap {cap}: expansion must fit");
        let frozen = FrozenKernel::freeze(kernel);
        let memo = FrontierMemo::build(&frozen, &config, het);
        assert_eq!(
            memo.len(),
            ept.len(),
            "cap {cap}: memo and oracle frontiers differ"
        );
        assert_matches_materialized_with_config(kernel, het, &config, queries);
    }

    #[test]
    fn tiny_caps_share_one_frontier_across_all_paths() {
        // A tiny cap escalates the threshold instead of stopping a walk
        // mid-stride, so the memo's walk and the traveler settle on one
        // frontier even when pruning would make per-walk stops differ.
        let kernel2 = KernelBuilder::from_document(&figure2_document());
        let kernel4 = KernelBuilder::from_document(&figure4_document());
        let names = kernel2.names();
        let l = |n: &str| names.lookup(n).unwrap();
        let mut het = HyperEdgeTable::new();
        het.insert_simple(path_hash(&[l("a"), l("c")]), 7, 0.9, 100.0);
        het.rebuild_residency();
        for cap in [1usize, 2, 3, 5, 8] {
            assert_one_frontier_under_cap(&kernel2, None, cap, FIGURE2_QUERIES);
            assert_one_frontier_under_cap(&kernel2, Some(&het), cap, FIGURE2_QUERIES);
            assert_one_frontier_under_cap(&kernel4, None, cap, FIGURE4_QUERIES);
        }
    }

    #[test]
    fn memo_node_is_forty_bytes() {
        // docs/OPERATIONS.md sizes a snapshot's memo from this figure.
        assert_eq!(std::mem::size_of::<MemoNode>(), 40);
    }

    #[test]
    fn simple_path_estimates_match_per_query_streaming() {
        for (doc, config) in [
            (figure2_document(), XseedConfig::default()),
            (
                figure2_document(),
                XseedConfig::default().with_card_threshold(2.0),
            ),
            (figure4_document(), XseedConfig::default()),
        ] {
            let kernel = KernelBuilder::from_document(&doc);
            let frozen = FrozenKernel::freeze(&kernel);
            let memo = FrontierMemo::build(&frozen, &config, None);
            let totals = memo.simple_path_estimates();
            let mut m = StreamingMatcher::new(&frozen, kernel.names(), &config, None);
            let path_tree = nokstore::PathTree::from_document(&doc);
            for id in path_tree.ids() {
                let labels = path_tree.label_path(id);
                let names: Vec<String> = labels
                    .iter()
                    .map(|&l| kernel.names().name_or_panic(l).to_string())
                    .collect();
                let expr = xpathkit::ast::PathExpr::simple(names);
                let expected = m.estimate(&expr);
                let got = totals.get(&path_hash(&labels)).copied().unwrap_or(0.0);
                assert_eq!(
                    got.to_bits(),
                    expected.to_bits(),
                    "{expr}: aggregated {got} != streamed {expected}"
                );
            }
        }
    }

    #[test]
    fn estimate_plan_matches_estimate_with_and_without_cache() {
        let kernel = KernelBuilder::from_document(&figure2_document());
        let frozen = FrozenKernel::freeze(&kernel);
        let config = XseedConfig::default();
        let cache = Arc::new(CompiledPlanCache::new(2, 64));
        let mut cached = StreamingMatcher::new(&frozen, kernel.names(), &config, None);
        cached.set_compiled_cache(cache.clone());
        let mut uncached = StreamingMatcher::new(&frozen, kernel.names(), &config, None);
        for q in FIGURE2_QUERIES {
            let plan = QueryPlan::parse(q).unwrap();
            let expected = uncached.estimate(plan.expr());
            // Two cached runs: the second must hit the compiled cache and
            // both must be bit-identical to the plain expression path.
            assert_eq!(cached.estimate_plan(&plan).to_bits(), expected.to_bits());
            assert_eq!(cached.estimate_plan(&plan).to_bits(), expected.to_bits());
            assert_eq!(
                uncached.estimate_plan(&plan).to_bits(),
                expected.to_bits(),
                "{q}: cache-less estimate_plan must equal estimate"
            );
        }
        let stats = cache.stats();
        assert_eq!(stats.misses as usize, FIGURE2_QUERIES.len());
        assert_eq!(stats.hits as usize, FIGURE2_QUERIES.len());
        assert_eq!(stats.entries, FIGURE2_QUERIES.len().min(64));
    }

    /// Runs `estimate_plan` twice and `estimate_plan_bound_timed` twice on
    /// `plan` (the bound requests first when `bound_first`), checking each
    /// answer's bits against a fresh compile of the expression and each
    /// call's compiled-cache lookups, then that the cached compilation
    /// holds the answers.
    fn assert_answer_cells(
        m: &mut StreamingMatcher<'_>,
        cache: &CompiledPlanCache,
        plan: &QueryPlan,
        bound_first: bool,
    ) {
        let expr = plan.expr();
        let point = m.estimate(expr);
        let bounded = m.estimate_bound(expr);
        // The HET fast path answers a point estimate before the lookup.
        let replays = m.answer_without_traversal(expr).is_none();
        let lookups = || {
            let stats = cache.stats();
            stats.hits + stats.misses
        };
        let order = if bound_first {
            [true, true, false, false]
        } else {
            [false, false, true, true]
        };
        for bound in order {
            let before = lookups();
            if bound {
                let (got, _) = m.estimate_plan_bound_timed(plan);
                assert_eq!(got.estimate.to_bits(), bounded.estimate.to_bits(), "{expr}");
                assert_eq!(got.bound.to_bits(), bounded.bound.to_bits(), "{expr}");
                assert_eq!(lookups(), before + 1, "{expr}: bound lookups");
            } else {
                assert_eq!(m.estimate_plan(plan).to_bits(), point.to_bits(), "{expr}");
                assert_eq!(lookups(), before + u64::from(replays), "{expr}: lookups");
            }
        }
        let cached = cache.get_or_compile(plan.id(), || unreachable!("{expr} is cached"));
        let stored = cached.estimate.get().map(|e| e.to_bits());
        assert_eq!(stored, replays.then_some(point.to_bits()), "{expr}");
        assert!(cached.bound.get().is_some(), "{expr}: bound cell");
    }

    #[test]
    fn answer_cells_return_the_replay_bits() {
        use crate::synopsis::XseedSynopsis;
        use datagen::{Dataset, WorkloadGenerator, WorkloadSpec};
        let docs = [
            (figure2_document(), false),
            (figure4_document(), false),
            (Dataset::XMark10.generate_scaled(0.02), true),
            (Dataset::Dblp.generate_scaled(0.02), true),
        ];
        for (doc, het) in docs {
            let config = XseedConfig::default();
            let synopsis = if het {
                XseedSynopsis::build_with_het(&doc, config).0
            } else {
                XseedSynopsis::build(&doc, config)
            };
            let snap = synopsis.snapshot();
            let mut m = snap.matcher();
            let workload = WorkloadGenerator::new(&doc, 24).generate(&WorkloadSpec::small());
            for expr in workload.all() {
                // One parse estimated point-first, a second parse of the
                // same text (a distinct plan identity) bound-first.
                let text = expr.to_string();
                for bound_first in [false, true] {
                    let plan = QueryPlan::parse(&text).unwrap();
                    assert_answer_cells(&mut m, snap.compiled_cache(), &plan, bound_first);
                }
            }
        }
    }

    #[test]
    fn compiled_cache_keys_on_plan_identity_not_text() {
        let kernel = KernelBuilder::from_document(&figure2_document());
        let frozen = FrozenKernel::freeze(&kernel);
        let config = XseedConfig::default();
        let cache = Arc::new(CompiledPlanCache::new(1, 8));
        let mut m = StreamingMatcher::new(&frozen, kernel.names(), &config, None);
        m.set_compiled_cache(cache.clone());
        let a = QueryPlan::parse("/a/c/s").unwrap();
        let b = QueryPlan::parse("/a/c/s").unwrap();
        assert_eq!(m.estimate_plan(&a), m.estimate_plan(&b));
        // Distinct parses are distinct identities: two compilations.
        assert_eq!(cache.stats().misses, 2);
        // A clone shares the identity: pure hit.
        let _ = m.estimate_plan(&a.clone());
        assert_eq!(cache.stats().misses, 2);
        assert_eq!(cache.stats().hits, 1);
    }

    #[test]
    fn compiled_cache_evicts_least_recently_used() {
        let cache = CompiledPlanCache::new(1, 2);
        let kernel = KernelBuilder::from_document(&figure2_document());
        let frozen = FrozenKernel::freeze(&kernel);
        let config = XseedConfig::default();
        let m = StreamingMatcher::new(&frozen, kernel.names(), &config, None);
        let m = &m;
        let compile = |text: &str| {
            let expr = parse(text).unwrap();
            move || m.compile(&expr)
        };
        cache.get_or_compile(1, compile("/a"));
        cache.get_or_compile(2, compile("/a/c"));
        cache.get_or_compile(1, compile("/a")); // refresh 1
        cache.get_or_compile(3, compile("/a/c/s")); // evicts 2
        assert_eq!(cache.stats().entries, 2);
        let before = cache.stats().misses;
        cache.get_or_compile(2, compile("/a/c")); // recompiles, evicts 1
        assert_eq!(cache.stats().misses, before + 1);
        let hits = cache.stats().hits;
        cache.get_or_compile(3, compile("/a/c/s")); // still resident
        assert_eq!(cache.stats().hits, hits + 1);
    }

    #[test]
    fn compiled_cache_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<CompiledPlanCache>();
    }

    /// Differential soundness check: for every query, the bound must
    /// dominate both the NoK oracle's true cardinality and the point
    /// estimate.
    fn assert_bound_sound(
        doc: &xmlkit::Document,
        het: Option<&HyperEdgeTable>,
        config: &XseedConfig,
        queries: &[&str],
    ) {
        let kernel = KernelBuilder::from_document(doc);
        let frozen = FrozenKernel::freeze(&kernel);
        let mut m = StreamingMatcher::new(&frozen, kernel.names(), config, het);
        let storage = nokstore::NokStorage::from_document(doc);
        let eval = nokstore::Evaluator::new(&storage);
        for q in queries {
            let expr = parse(q).unwrap();
            let be = m.estimate_bound(&expr);
            let actual = eval.count(&expr) as f64;
            assert!(
                be.bound + 1e-9 >= actual,
                "{q}: bound {} < true cardinality {actual}",
                be.bound
            );
            assert!(
                be.bound + 1e-9 >= be.estimate,
                "{q}: bound {} < point estimate {}",
                be.bound,
                be.estimate
            );
        }
    }

    const FIGURE4_QUERIES: &[&str] = &[
        "/a/b/d/e",
        "/a/c/d/f",
        "/a/b/d[f]/e",
        "/a/c/d[f]/e",
        "//d[e][f]",
        "//d//*",
        "/a/*/d[e]/f",
    ];

    #[test]
    fn bound_is_sound_on_figure2() {
        assert_bound_sound(
            &figure2_document(),
            None,
            &XseedConfig::default(),
            FIGURE2_QUERIES,
        );
    }

    #[test]
    fn bound_is_sound_on_figure4() {
        assert_bound_sound(
            &figure4_document(),
            None,
            &XseedConfig::default(),
            FIGURE4_QUERIES,
        );
    }

    #[test]
    fn bound_is_sound_under_truncation() {
        // The point path prunes (card_threshold drops low-mass edges, and
        // a tiny max_ept_nodes escalates that threshold further); the
        // bound must ignore both.
        for config in [
            XseedConfig::default().with_card_threshold(2.0),
            XseedConfig {
                max_ept_nodes: 3,
                ..XseedConfig::default()
            },
        ] {
            assert_bound_sound(&figure2_document(), None, &config, FIGURE2_QUERIES);
            assert_bound_sound(&figure4_document(), None, &config, FIGURE4_QUERIES);
        }
    }

    #[test]
    fn bound_is_sound_with_true_het_entries() {
        // HET entries clamp with *true* cardinalities (as the feedback
        // loop inserts them); the clamp must never cut below the truth.
        let doc = figure2_document();
        let kernel = KernelBuilder::from_document(&doc);
        let names = kernel.names();
        let l = |n: &str| names.lookup(n).unwrap();
        let storage = nokstore::NokStorage::from_document(&doc);
        let eval = nokstore::Evaluator::new(&storage);
        let mut het = HyperEdgeTable::new();
        for (path, query) in [
            (vec![l("a"), l("c")], "/a/c"),
            (vec![l("a"), l("c"), l("s")], "/a/c/s"),
            (vec![l("a"), l("c"), l("s"), l("s")], "/a/c/s/s"),
        ] {
            let actual = eval.count(&parse(query).unwrap());
            het.insert_simple(path_hash(&path), actual, 0.9, 100.0);
        }
        het.rebuild_residency();
        assert_bound_sound(&doc, Some(&het), &XseedConfig::default(), FIGURE2_QUERIES);
    }

    #[test]
    fn het_entries_tighten_the_bound() {
        let doc = figure2_document();
        let kernel = KernelBuilder::from_document(&doc);
        let names = kernel.names();
        let l = |n: &str| names.lookup(n).unwrap();
        let frozen = FrozenKernel::freeze(&kernel);
        let config = XseedConfig::default();
        let storage = nokstore::NokStorage::from_document(&doc);
        let eval = nokstore::Evaluator::new(&storage);
        let expr = parse("/a/c/s").unwrap();
        let actual = eval.count(&expr);
        let loose = StreamingMatcher::new(&frozen, kernel.names(), &config, None)
            .estimate_bound(&expr)
            .bound;
        let mut het = HyperEdgeTable::new();
        het.insert_simple(path_hash(&[l("a"), l("c"), l("s")]), actual, 0.9, 100.0);
        het.rebuild_residency();
        let tight = StreamingMatcher::new(&frozen, kernel.names(), &config, Some(&het))
            .estimate_bound(&expr)
            .bound;
        assert!(
            tight <= loose,
            "HET clamp inflated the bound: {tight} > {loose}"
        );
        assert!(tight >= actual as f64);
    }

    #[test]
    fn bound_on_empty_kernel_and_absent_labels() {
        let kernel = Kernel::new();
        let frozen = FrozenKernel::freeze(&kernel);
        let config = XseedConfig::default();
        let mut m = StreamingMatcher::new(&frozen, kernel.names(), &config, None);
        let be = m.estimate_bound(&parse("/a").unwrap());
        assert_eq!(be.bound, 0.0);
        assert_eq!(be.estimate, 0.0);

        let kernel = KernelBuilder::from_document(&figure2_document());
        let frozen = FrozenKernel::freeze(&kernel);
        let mut m = StreamingMatcher::new(&frozen, kernel.names(), &config, None);
        for q in ["/zzz", "/a/zzz", "//zzz", "/a//zzz/t"] {
            let be = m.estimate_bound(&parse(q).unwrap());
            assert_eq!(be.bound, 0.0, "{q}: absent label must bound 0");
        }
    }

    #[test]
    fn known_figure2_bounds() {
        // Pin exact bound values on Figure 2(a) so bound regressions are
        // visible, not just soundness violations. Truths: /a/c/s has 5
        // nodes, //p has 17, //* has 36.
        let kernel = KernelBuilder::from_document(&figure2_document());
        let frozen = FrozenKernel::freeze(&kernel);
        let config = XseedConfig::default();
        let mut m = StreamingMatcher::new(&frozen, kernel.names(), &config, None);
        for (q, truth) in [("/a/c/s", 5.0), ("//p", 17.0), ("//*", 36.0), ("/a", 1.0)] {
            let be = m.estimate_bound(&parse(q).unwrap());
            assert!(be.bound >= truth, "{q}: bound {} < truth {truth}", be.bound);
        }
        // //* covers every node; the per-label totals are exact, so the
        // bound is exactly the document size.
        assert_eq!(m.estimate_bound(&parse("//*").unwrap()).bound, 36.0);
        // A leading child step matches only the root.
        assert_eq!(m.estimate_bound(&parse("/a").unwrap()).bound, 1.0);
    }

    #[test]
    fn estimate_plan_bound_matches_estimate_bound() {
        let kernel = KernelBuilder::from_document(&figure2_document());
        let frozen = FrozenKernel::freeze(&kernel);
        let config = XseedConfig::default();
        let cache = Arc::new(CompiledPlanCache::new(2, 64));
        let mut cached = StreamingMatcher::new(&frozen, kernel.names(), &config, None);
        cached.set_compiled_cache(cache.clone());
        let mut plain = StreamingMatcher::new(&frozen, kernel.names(), &config, None);
        for q in FIGURE2_QUERIES {
            let plan = QueryPlan::parse(q).unwrap();
            let expected = plain.estimate_bound(plan.expr());
            for round in 0..2 {
                let (got, compile_time) = cached.estimate_plan_bound_timed(&plan);
                assert_eq!(got.bound.to_bits(), expected.bound.to_bits(), "{q}");
                assert_eq!(got.estimate.to_bits(), expected.estimate.to_bits(), "{q}");
                // Compile time is reported exactly on the cache miss.
                assert_eq!(compile_time.is_some(), round == 0, "{q}");
            }
        }
        assert!(cache.stats().hits > 0);
    }

    #[test]
    fn max_ept_nodes_caps_traversal() {
        let kernel = KernelBuilder::from_document(&figure2_document());
        let frozen = FrozenKernel::freeze(&kernel);
        let config = XseedConfig {
            max_ept_nodes: 3,
            ..XseedConfig::default()
        };
        let mut m = StreamingMatcher::new(&frozen, kernel.names(), &config, None);
        let (_, visited) = m.estimate_with_stats(&parse("//*").unwrap());
        assert!(visited <= 3);
    }
}
