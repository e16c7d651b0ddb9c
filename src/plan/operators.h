#ifndef GQLITE_PLAN_OPERATORS_H_
#define GQLITE_PLAN_OPERATORS_H_

#include <memory>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

#include "src/frontend/ast.h"
#include "src/interp/projection.h"
#include "src/interp/row_batch.h"
#include "src/interp/table.h"
#include "src/pattern/matcher.h"
#include "src/value/value_compare.h"

namespace gqlite {

class Operator;

/// Cursor over a child operator's output: pulls one morsel at a time and
/// hands out row references, preserving per-row resume state for
/// operators (scans, expands, unwind) that produce many output rows per
/// input row. The referenced row stays valid until Advance() moves past
/// the end of the current morsel and the next Current() pulls a new one.
class BatchCursor {
 public:
  void Reset() {
    batch_.Clear();
    pos_ = 0;
    done_ = false;
  }
  /// The current input row, pulling the next batch from `child` as
  /// needed (`capacity` sizes the internal morsel). nullptr at end of
  /// stream.
  Result<const ValueList*> Current(Operator* child, size_t capacity);
  void Advance() { ++pos_; }

 private:
  RowBatch batch_{1};
  size_t pos_ = 0;
  bool done_ = false;
};

/// Batched Volcano operators. §2 describes Neo4j's "simple
/// tuple-at-a-time iterator-based execution model"; this runtime keeps
/// the same pull-based operator tree but moves a *morsel* of rows per
/// NextBatch call (RowBatch, default 1024 rows, selection vector for
/// filters), amortizing virtual dispatch and per-row bookkeeping across
/// the batch. Rows flow bottom-up; each operator introduces zero or more
/// columns. Operators are single-use pipelines: Open() resets, NextBatch()
/// fills a caller-provided morsel.
///
/// The signature operator is Expand (its own class below): "Semantically
/// Expand is very similar to a relational join. It finds pairs of nodes
/// that are connected through an edge … it utilizes the fact that the data
/// representation contains direct references from each node via its edges
/// to the related nodes." A hash-join-based baseline (HashJoinExpand) that
/// scans the relationship store instead is provided for experiment E14.
class Operator {
 public:
  virtual ~Operator() = default;

  /// Resets the operator (and its inputs) to the start of its stream.
  virtual Status Open() = 0;

  /// Clears `out` and fills it with up to out->capacity() rows. Returns
  /// false at end of stream (and only then — a true return carries at
  /// least one live row). Correlated subplans keep one-row semantics by
  /// driving the pipeline from a single-row ArgumentOp; everything else
  /// streams whole morsels.
  Result<bool> NextBatch(RowBatch* out) {
    out->Clear();
    GQL_ASSIGN_OR_RETURN(bool ok, NextBatchImpl(out));
    if (ok) {
      ++batches_produced_;
      rows_produced_ += static_cast<int64_t>(out->size());
    }
    return ok;
  }

  /// Output schema: column names (hidden planner columns start with '#').
  const std::vector<std::string>& schema() const { return schema_; }

  /// One line of EXPLAIN output for this operator (children indented by
  /// the caller).
  virtual std::string Describe() const = 0;
  Operator* child() const { return child_.get(); }

  /// Children for EXPLAIN tree rendering (Apply/Union override).
  virtual std::vector<const Operator*> children() const {
    std::vector<const Operator*> out;
    if (child_) out.push_back(child_.get());
    return out;
  }

  /// Cumulative rows / batches produced (PROFILE-style counters).
  int64_t rows_produced() const { return rows_produced_; }
  int64_t batches_produced() const { return batches_produced_; }

  /// Planner-estimated output rows (cost-model cardinality at plan
  /// time, against the executing snapshot's statistics); negative when
  /// the planner did not estimate this operator. EXPLAIN prints it as
  /// `est. rows`.
  double est_rows() const { return est_rows_; }
  void set_est_rows(double rows) { est_rows_ = rows; }

  /// Adds `other`'s counters into this tree, operator by operator — the
  /// trees must be structurally identical (per-worker instances of the
  /// same plan). PROFILE of a parallel run folds every worker's counters
  /// into the printed tree.
  void AbsorbCounters(const Operator& other);

 protected:
  Operator(std::unique_ptr<Operator> child, std::vector<std::string> schema)
      : child_(std::move(child)), schema_(std::move(schema)) {}

  /// The per-operator batch producer (NextBatch handles clearing and
  /// counter bookkeeping).
  virtual Result<bool> NextBatchImpl(RowBatch* out) = 0;

  std::unique_ptr<Operator> child_;
  std::vector<std::string> schema_;
  int64_t rows_produced_ = 0;
  int64_t batches_produced_ = 0;
  double est_rows_ = -1;
};

using OperatorPtr = std::unique_ptr<Operator>;

/// Shared runtime state for a plan. Execution-scoped fields
/// (eval.parameters, eval.rand_state) are REBOUND by the engine before
/// each execution of a cached plan — everything that reads them must go
/// through this struct at call time rather than copying them at plan
/// time.
///
/// Operators bind their expressions when the planner builds them
/// (BoundExpr: variables become slots of the operator's input schema);
/// the property keys, labels and parameters those expressions name go
/// into `binds`, which ResolveBindings fills per execution.
struct ExecContext {
  const PropertyGraph* graph = nullptr;
  /// Keeps `graph` alive while a cached plan outlives the query (and, for
  /// FROM GRAPH plans, while the catalog drops a named graph).
  std::shared_ptr<const PropertyGraph> graph_owner;
  EvalContext eval;
  MatchOptions match;
  /// Morsel capacity for pipeline breakers that drain a subplan
  /// themselves (ProjectionOp); leaf-to-root morsels are sized by the
  /// caller of NextBatch.
  size_t batch_size = RowBatch::kDefaultCapacity;
  BindTable binds;

  /// Resolves `binds` against this execution's graph snapshot and
  /// parameters — O(keys + labels + params). ExecutePlan and
  /// ExecutePlanParallel call it for every context of the plan before
  /// opening it (Apply re-opens inner pipelines per driving row, so Open
  /// must not pay it).
  void ResolveBindings() { binds.Resolve(graph, eval.parameters); }
  /// Resolves only when an operator was bound since the last resolution —
  /// operators driven directly (outside ExecutePlan) resolve on Open.
  void EnsureBindings() {
    if (binds.stale()) ResolveBindings();
  }
};

/// Implemented by scan leaves whose domain (node slots, label-index
/// entries) the parallel runtime can split into contiguous morsel ranges
/// claimed by workers (src/exec/parallel.h). A range restriction applies
/// from the next Open(); SetScanRange(0, SIZE_MAX) restores the full
/// domain (the serial default).
class PartitionedScan {
 public:
  virtual ~PartitionedScan() = default;
  /// Current size of the scan domain (positions, not live entries).
  virtual size_t ScanDomainSize() const = 0;
  /// Restricts the scan to domain positions [begin, end).
  virtual void SetScanRange(size_t begin, size_t end) = 0;
};

/// Leaf: emits the rows of a driving table (the argument of an Apply, or
/// the unit table at the top of a query). When bound to a single row
/// (Apply-style correlation) it produces a one-row batch — the thin
/// adapter that keeps one-row semantics for correlated subplans.
class ArgumentOp : public Operator {
 public:
  ArgumentOp(std::vector<std::string> schema, const Table* source)
      : Operator(nullptr, std::move(schema)), source_(source) {}
  /// True when this leaf replays a fixed table (the unit table at the top
  /// of a pipeline) rather than an Apply-bound row — the anchor the
  /// parallel-safety analysis looks for.
  bool has_table_source() const { return source_ != nullptr; }
  /// Rebinds to a single row (Apply-style correlation).
  void BindRow(const ValueList* row) { single_row_ = row; }
  Status Open() override {
    pos_ = 0;
    done_single_ = false;
    return Status::OK();
  }
  Result<bool> NextBatchImpl(RowBatch* out) override;
  std::string Describe() const override { return "Argument"; }

 private:
  const Table* source_;
  const ValueList* single_row_ = nullptr;
  size_t pos_ = 0;
  bool done_single_ = false;
};

/// One entry of a pattern element's property map `{k: v, ...}`.
using PropertyEntry = std::pair<std::string, ast::ExprPtr>;

/// A property map bound to the input schema of the operator that checks
/// it: per entry, the key's BindTable index and the value expression
/// over the driving row. The scans (node maps) and the expand family
/// (relationship maps) share it.
struct BoundPropMap {
  std::vector<int> keys;
  std::vector<BoundExpr> values;

  static BoundPropMap Bind(std::span<const PropertyEntry> props,
                           const std::vector<std::string>& input_schema,
                           BindTable* table);
  bool empty() const { return keys.empty(); }
};

/// Lazily-hoisted property-map values for one driving row: a pattern's
/// property expressions reference outer bindings (the driving row),
/// never the candidate node or relationship, so each key's value is
/// evaluated at the FIRST candidate that reaches that key (i.e. survives
/// the earlier keys) and reused for the row's remaining candidates. Lazy
/// per key, not eager: the reference check evaluates a key's expression
/// only when some candidate gets that far, so a row with no candidates —
/// or whose candidates all fail an earlier key — must not evaluate (and
/// possibly error on) the later expressions. Call Reset() whenever the
/// driving row changes.
///
/// Deliberate tradeoff: a non-deterministic constraint expression (e.g.
/// `{w: rand()}`) samples once per driving row here, while the
/// reference matcher samples per candidate. Cypher leaves the
/// evaluation count of such expressions unspecified; the hoist trades
/// that freedom for not re-evaluating per candidate.
class LazyPropWants {
 public:
  void Reset() { wants_.clear(); }
  /// True if candidate relationship `r` / node `n` satisfies `props` for
  /// `row`; evaluates constraint values on first use per row and key.
  /// Inline: once a row's values are evaluated, the check is a pure read
  /// of the candidate's record.
  Result<bool> Ok(const ExecContext& ctx, const BoundPropMap& props,
                  const ValueList& row, RelId r) {
    return Check(ctx, props, row, [&](SymbolId key) -> const Value& {
      return ctx.graph->RelPropertyById(r, key);
    });
  }
  Result<bool> Ok(const ExecContext& ctx, const BoundPropMap& props,
                  const ValueList& row, NodeId n) {
    return Check(ctx, props, row, [&](SymbolId key) -> const Value& {
      return ctx.graph->NodePropertyById(n, key);
    });
  }

 private:
  template <typename ReadProp>
  Result<bool> Check(const ExecContext& ctx, const BoundPropMap& props,
                     const ValueList& row, ReadProp read) {
    for (size_t i = 0; i < props.keys.size(); ++i) {
      // Key i's constraint value is evaluated at the first candidate
      // that survives keys 0..i-1 — exactly when the per-candidate
      // reference check would evaluate it, so an erroring expression
      // behind a mismatching earlier key stays unevaluated.
      if (i >= wants_.size()) GQL_RETURN_IF_ERROR(EvalNext(ctx, props, row));
      if (ValueEquals(read(ctx.binds.key(props.keys[i])), wants_[i]) !=
          Tri::kTrue) {
        return false;
      }
    }
    return true;
  }
  /// Evaluates the next key's value (out of line: once per row and key).
  Status EvalNext(const ExecContext& ctx, const BoundPropMap& props,
                  const ValueList& row);

  std::vector<Value> wants_;  // values for keys 0..wants_.size()-1
};

/// The scanned node's own pattern constraints, handed to a scan by the
/// planner: the pattern's labels other than the scanned one, then (a
/// prefix of) its property map in pattern order. The property entries
/// point into the query AST.
struct NodeScanFilter {
  std::vector<std::string> labels;
  std::span<const PropertyEntry> props;
};

/// A NodeScanFilter bound to a scan's input schema. A scan tests each
/// candidate's record against it before building a row — labels first,
/// then the map in pattern order, the interpreter's CheckAndBindNode
/// order — so only survivors are appended (and counted by PROFILE).
class ScanPredicate {
 public:
  ScanPredicate(const NodeScanFilter& filter,
                const std::vector<std::string>& input_schema, BindTable* table);
  bool empty() const { return label_refs_.empty() && props_.empty(); }
  /// A new driving row: its wanted values are evaluated afresh.
  void Reset() { wants_.Reset(); }
  /// Whether candidate `n` passes for driving row `row`. The scans skip
  /// the call when empty(): it costs more than the no-op check.
  Result<bool> Ok(const ExecContext& ctx, const ValueList& row, NodeId n) {
    const PropertyGraph& g = *ctx.graph;
    for (int l : label_refs_) {
      if (!g.NodeHasLabelId(n, ctx.binds.label(l))) return false;
    }
    return wants_.Ok(ctx, props_, row, n);
  }
  /// EXPLAIN suffix: ` :Label {key, ...}`, empty when nothing is pushed.
  std::string Describe() const;

 private:
  NodeScanFilter filter_;  // as planned, for EXPLAIN
  std::vector<int> label_refs_;
  BoundPropMap props_;
  LazyPropWants wants_;
};

/// Scans all live nodes, binding `var`. Domain = node slot space.
class AllNodesScanOp : public Operator, public PartitionedScan {
 public:
  AllNodesScanOp(OperatorPtr child, ExecContext* ctx, std::string var,
                 const NodeScanFilter& filter = {});
  Status Open() override;
  Result<bool> NextBatchImpl(RowBatch* out) override;
  std::string Describe() const override {
    return "AllNodesScan(" + var_ + ")" + pred_.Describe();
  }
  size_t ScanDomainSize() const override;
  void SetScanRange(size_t begin, size_t end) override {
    range_begin_ = begin;
    range_end_ = end;
  }

 private:
  ExecContext* ctx_;
  std::string var_;
  ScanPredicate pred_;
  BatchCursor input_;
  size_t node_pos_ = 0;
  size_t range_begin_ = 0;
  size_t range_end_ = SIZE_MAX;
};

/// Scans the label index, binding `var` (the planner's preferred access
/// path when the pattern constrains the label). Domain = index entries.
class NodeByLabelScanOp : public Operator, public PartitionedScan {
 public:
  NodeByLabelScanOp(OperatorPtr child, ExecContext* ctx, std::string var,
                    std::string label, const NodeScanFilter& filter = {});
  Status Open() override;
  Result<bool> NextBatchImpl(RowBatch* out) override;
  std::string Describe() const override {
    return "NodeByLabelScan(" + var_ + ":" + label_ + ")" +
           pred_.Describe();
  }
  size_t ScanDomainSize() const override;
  void SetScanRange(size_t begin, size_t end) override {
    range_begin_ = begin;
    range_end_ = end;
  }

 private:
  ExecContext* ctx_;
  std::string var_;
  std::string label_;
  ScanPredicate pred_;
  BatchCursor input_;
  size_t idx_pos_ = 0;
  size_t range_begin_ = 0;
  size_t range_end_ = SIZE_MAX;
};

/// Common configuration of the expand family: traverse one relationship
/// pattern hop from a bound node column.
struct ExpandSpec {
  int from_col = -1;               // bound source column
  int to_col = -1;                 // bound target column (ExpandInto) or -1
  std::string to_var;              // name of new target column (if unbound)
  std::string rel_var;             // rel column name (may be hidden "#...")
  int bound_rel_col = -1;          // rel variable already bound, must equal
  std::vector<std::string> types;  // empty = any
  /// `types` resolved against the bound graph's type interner (filled by
  /// each expand operator's Open) so the per-candidate type check is an
  /// integer compare, not a string compare. A type the graph has never
  /// seen resolves to kNoSymbol, which no live relationship carries.
  std::vector<SymbolId> type_ids;
  ast::Direction direction = ast::Direction::kRight;
  /// Relationship columns of the same MATCH clause bound before this hop —
  /// relationship-isomorphism check targets (single rels and rel lists).
  std::vector<int> uniqueness_cols;
  /// Property constraints of the relationship pattern, evaluated against
  /// the driving row (fused into the expand; a candidate relationship must
  /// carry equal values). Not owned; each expand operator binds them to
  /// its input schema when it is built (BoundPropMap).
  std::span<const PropertyEntry> rel_props;
};

/// Adjacency-based expand: direct node→edge→node references. Batched:
/// the relationship-property constraint expressions are evaluated ONCE
/// per driving row (hoisted out of the per-relationship loop).
class ExpandOp : public Operator {
 public:
  ExpandOp(OperatorPtr child, ExecContext* ctx, ExpandSpec spec);
  Status Open() override;
  Result<bool> NextBatchImpl(RowBatch* out) override;
  std::string Describe() const override;

 private:
  Result<bool> RelMatches(const AdjEntry& e, const ValueList& row);
  ExecContext* ctx_;
  ExpandSpec spec_;
  BoundPropMap bound_props_;
  BatchCursor input_;
  size_t adj_pos_ = 0;  // position in the (conceptual) adjacency sequence
  LazyPropWants props_;
};

/// Baseline expand for experiment E14: builds a hash table over the whole
/// relationship store at Open (src → rel for the requested types) and
/// probes it per row — a classic hash join between the driving table and
/// the edge table, paying the full edge scan the paper says Expand avoids.
class HashJoinExpandOp : public Operator {
 public:
  HashJoinExpandOp(OperatorPtr child, ExecContext* ctx, ExpandSpec spec);
  Status Open() override;
  Result<bool> NextBatchImpl(RowBatch* out) override;
  std::string Describe() const override;

 private:
  ExecContext* ctx_;
  ExpandSpec spec_;
  BoundPropMap bound_props_;
  using Index = std::unordered_multimap<uint64_t, AdjEntry>;
  Index index_;  // node id → the entry seen from that node
  BatchCursor input_;
  bool probing_ = false;
  LazyPropWants props_;
  std::pair<Index::const_iterator, Index::const_iterator> range_;
  bool built_ = false;
};

/// Variable-length expand: enumerates relationship sequences of length
/// [min, max], one row per (length, sequence) — preserving the bag
/// semantics of rigid-pattern refinements. Batched as a
/// frontier-per-morsel BFS: all driving rows of a batch expand one level
/// at a time over a shared frontier of owned contiguous paths. Working
/// memory is therefore the whole morsel's in-flight level plus its
/// buffered expansion rows (the per-tuple DFS held one row's worth);
/// lowering EngineOptions::batch_size bounds it when a dense graph with
/// a high `min` makes that a concern.
class VarLengthExpandOp : public Operator {
 public:
  VarLengthExpandOp(OperatorPtr child, ExecContext* ctx, ExpandSpec spec,
                    int64_t min, int64_t max);
  Status Open() override;
  Result<bool> NextBatchImpl(RowBatch* out) override;
  std::string Describe() const override;

 private:
  /// Runs the level-synchronous BFS for the whole input batch, buffering
  /// its expansion rows in pending_; streaming resumes from the buffer.
  Status ExpandBatch();

  /// Next reusable pending-row slot (cleared). Slots keep their ValueList
  /// allocations across batches, so a refill costs element assignments,
  /// not a malloc per emitted row.
  ValueList& NextPendingSlot();

  ExecContext* ctx_;
  ExpandSpec spec_;
  BoundPropMap bound_props_;
  int64_t min_;
  int64_t max_;

  RowBatch input_{1};
  std::vector<ValueList> pending_;  // slot pool of rows ready to emit
  size_t pending_size_ = 0;         // live prefix of pending_
  size_t pos_in_pending_ = 0;

  /// An in-flight BFS path head. The path itself lives in the level's
  /// flat arena (cur_paths_/next_paths_), not in the entry: the
  /// level-synchronous BFS keeps every path of one level the same
  /// length, so entry i's relationships are the contiguous stride at
  /// [i * level_len, (i + 1) * level_len).
  struct FrontierEntry {
    uint32_t row;
    NodeId node;
  };
  /// Pooled per-level path arenas and frontier vectors: extending a path
  /// appends its prefix + the new relationship to next_paths_ (amortized
  /// chunk growth), replacing the per-extension std::vector<RelId>
  /// allocation of the old representation. Capacity persists across
  /// batches — a refill costs element copies, not mallocs — and the
  /// trail-uniqueness probe stays one linear scan of contiguous memory.
  std::vector<RelId> cur_paths_;
  std::vector<RelId> next_paths_;
  std::vector<FrontierEntry> frontier_;
  std::vector<FrontierEntry> next_frontier_;
};

/// σ: keeps rows whose predicate is true (3VL: null drops the row).
/// Batched: marks survivors in the morsel's selection vector — no row is
/// copied or moved by a filter. The predicate is bound to the child's
/// schema at construction and evaluated per row by slot.
class FilterOp : public Operator {
 public:
  FilterOp(OperatorPtr child, ExecContext* ctx, const ast::Expr* pred);
  Status Open() override;
  Result<bool> NextBatchImpl(RowBatch* out) override;
  std::string Describe() const override;

 private:
  ExecContext* ctx_;
  BoundExpr pred_;
  std::vector<uint32_t> keep_;
};

/// Correlated nested-loop apply: for every input row, re-opens the inner
/// pipeline with the row as its argument (a one-row ArgumentOp batch) and
/// streams the inner output into the caller's morsel. `optional` adds
/// OPTIONAL MATCH null-padding when the inner pipeline produces nothing
/// for a row (Figure 7's rule).
class ApplyOp : public Operator {
 public:
  ApplyOp(OperatorPtr child, OperatorPtr inner, ArgumentOp* argument,
          bool optional, std::vector<std::string> schema);
  Status Open() override;
  Result<bool> NextBatchImpl(RowBatch* out) override;
  std::string Describe() const override {
    return optional_ ? "OptionalApply" : "Apply";
  }
  std::vector<const Operator*> children() const override {
    std::vector<const Operator*> out;
    if (child_) out.push_back(child_.get());
    out.push_back(inner_.get());
    return out;
  }
  /// Correlated inner pipeline / OPTIONAL flag (parallel-safety analysis).
  Operator* inner() const { return inner_.get(); }
  bool optional() const { return optional_; }

 private:
  OperatorPtr inner_;
  ArgumentOp* argument_;  // leaf of inner_ (owned by inner_)
  bool optional_;
  BatchCursor input_;
  bool inner_open_ = false;
  bool inner_matched_ = false;
};

/// UNWIND (Figure 7 rule, including the single-row non-list case).
class UnwindOp : public Operator {
 public:
  UnwindOp(OperatorPtr child, ExecContext* ctx, const ast::Expr* expr,
           std::string var);
  Status Open() override;
  Result<bool> NextBatchImpl(RowBatch* out) override;
  std::string Describe() const override { return "Unwind(" + var_ + ")"; }

 private:
  ExecContext* ctx_;
  BoundExpr expr_;
  std::string var_;
  BatchCursor input_;
  bool row_ready_ = false;
  /// The evaluated list being unwound (the payload is shared with the
  /// evaluation result, never copied element-wise).
  Value items_ = Value::EmptyList();
  size_t item_pos_ = 0;
  bool single_pending_ = false;
  Value single_value_;
};

/// RETURN/WITH projection. A pipeline breaker: materializes its input and
/// delegates to the shared projection/aggregation machinery (eager
/// aggregation, DISTINCT, ORDER BY, SKIP/LIMIT), then streams the result
/// in morsels. `where` (WITH ... WHERE) filters the projected rows. The
/// body is bound to the child's schema once, at construction
/// (BoundProjection); `*` skips planner-hidden '#' columns there.
class ProjectionOp : public Operator {
 public:
  ProjectionOp(OperatorPtr child, ExecContext* ctx,
               const ast::ProjectionBody* body, const ast::Expr* where,
               std::vector<std::string> schema);
  Status Open() override;
  Result<bool> NextBatchImpl(RowBatch* out) override;
  std::string Describe() const override;

  /// Applies this operator's projection (map or aggregation, tail, the
  /// WITH ... WHERE filter) to an already-materialized input — the same
  /// transformation Open() applies to the drained child. The parallel
  /// runtime merges per-worker rows and runs this once, serially, as the
  /// pipeline-breaker barrier that keeps ORDER BY / DISTINCT / SKIP /
  /// LIMIT deterministic.
  Result<Table> ProjectTable(const Table& input) const;

  /// The bound body (map stage, aggregation plan, ORDER BY keys, tail,
  /// WHERE filter) — the parallel runtime runs its stages itself: the
  /// map and keys on each worker's scan-range rows, the tail and filter
  /// in the merge. Evaluate with exec_context()->eval.
  const BoundProjection& projection() const { return proj_; }

  /// Hands this breaker its already-computed result: the next Open()
  /// consumes `result` directly instead of draining the child. The
  /// parallel runtime uses this to resume the serial plan ABOVE a merged
  /// breaker — the breaker's output is computed by the parallel merge
  /// stages, then the remaining serial operators stream it as usual.
  void PreloadResult(Table result);

  const ast::ProjectionBody* body() const { return &proj_.body(); }
  const ExecContext* exec_context() const { return ctx_; }

 private:
  ExecContext* ctx_;
  BoundProjection proj_;
  Table result_;
  size_t pos_ = 0;
  bool has_preloaded_ = false;
};

/// UNION [ALL] of complete sub-plans (pipeline breaker for the DISTINCT
/// variant).
class UnionOp : public Operator {
 public:
  UnionOp(std::vector<OperatorPtr> parts, bool all,
          std::vector<std::string> schema,
          size_t batch_size = RowBatch::kDefaultCapacity);
  Status Open() override;
  Result<bool> NextBatchImpl(RowBatch* out) override;
  std::string Describe() const override {
    return all_ ? "UnionAll" : "Union";
  }
  std::vector<const Operator*> children() const override {
    std::vector<const Operator*> out;
    for (const auto& p : parts_) out.push_back(p.get());
    return out;
  }

 private:
  std::vector<OperatorPtr> parts_;
  bool all_;
  size_t batch_size_;
  Table materialized_;
  size_t pos_ = 0;
};

/// Fallback operator for pattern shapes the specialized pipeline does not
/// cover (named paths, repeated variable-length variables): runs the
/// reference matcher per input row (one-row correlation semantics).
/// Keeps the runtime complete while the common shapes stay on the fast
/// path. The matcher is name-based; it sees the input row through a
/// SlotEnvironment holding only the names the pattern mentions, bound to
/// their slots at construction.
class MatcherOp : public Operator {
 public:
  MatcherOp(OperatorPtr child, const ExecContext* ctx,
            const ast::Pattern* pattern, std::vector<std::string> new_cols);
  Status Open() override;
  Result<bool> NextBatchImpl(RowBatch* out) override;
  std::string Describe() const override { return "PatternMatch(fallback)"; }

 private:
  const ExecContext* ctx_;
  const ast::Pattern* pattern_;
  std::vector<std::string> new_cols_;
  std::vector<NamedSlot> names_;
  BatchCursor input_;
  bool row_ready_ = false;
  std::vector<ValueList> buffered_;
  size_t pos_ = 0;
};

/// Drains a plan into a table, morsel by morsel, through the caller's
/// `batch` (its capacity sizes the morsels). A caller that drains many
/// plans — a parallel worker, range after range — passes the same batch
/// each time, so refills reuse its row slots instead of allocating them
/// per drain. `stats` (optional) accumulates the rows/batches the root
/// produced.
Result<Table> DrainPlan(Operator* root, RowBatch* batch,
                        BatchStats* stats = nullptr);

/// Renders an EXPLAIN tree.
std::string ExplainPlan(const Operator& root);

/// Renders the tree with per-operator row/batch counters (PROFILE) —
/// call after executing the plan.
std::string ProfilePlan(const Operator& root);

}  // namespace gqlite

#endif  // GQLITE_PLAN_OPERATORS_H_
