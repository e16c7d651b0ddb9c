#ifndef GQLITE_INTERP_PROJECTION_H_
#define GQLITE_INTERP_PROJECTION_H_

#include <algorithm>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "src/common/result.h"
#include "src/eval/bound_expr.h"
#include "src/frontend/ast.h"
#include "src/interp/table.h"

namespace gqlite {

/// Evaluates a RETURN/WITH projection body over a driving table
/// (Figures 6/7 rules for RETURN/WITH, extended with the standard
/// DISTINCT / ORDER BY / SKIP / LIMIT sub-clauses and aggregation).
///
/// Aggregation follows §3: projection items that contain no aggregate
/// function act as implicit grouping keys; items containing aggregates are
/// evaluated once per group, with each aggregate sub-expression replaced
/// by its accumulated result and any remaining non-aggregate
/// sub-expressions evaluated against a representative row of the group
/// (SQL-style). On an empty input with no grouping keys, one row of
/// neutral aggregate values is produced (count → 0, collect → [], sum →
/// 0, min/max/avg → null).
///
/// ORDER BY sees the projected columns; for non-aggregating projections it
/// may also reference the pre-projection variables (output shadows input).
///
/// The interpreter's entry point: binds the body to `input`'s fields on
/// entry (BoundProjection below) and resolves it against `ctx`.
Result<Table> EvaluateProjection(const ast::ProjectionBody& body,
                                 const Table& input, const EvalContext& ctx);

/// True if any projection item contains an aggregate function call (the
/// body groups rather than maps).
bool ProjectionAggregates(const ast::ProjectionBody& body);

/// Global first-occurrence position of an aggregation group: the (scan
/// range, row-within-range) coordinates of the row that created it. The
/// partitioned parallel merge stamps every group at creation and
/// interleaves the per-partition group streams back into ascending stamp
/// order — exactly the serial first-occurrence group order.
struct GroupStamp {
  uint64_t range = 0;
  uint64_t row = 0;
};
inline bool operator<(const GroupStamp& a, const GroupStamp& b) {
  return a.range != b.range ? a.range < b.range : a.row < b.row;
}

/// Grouping/aggregation state of one aggregating projection body — the
/// machinery behind EvaluateProjection's aggregate path, exposed so the
/// morsel-driven parallel runtime can aggregate per worker and merge.
///
/// Protocol: a state is Plan()ned once against its input fields (binding
/// grouping keys, aggregate arguments and the rewritten items into
/// `table`, which the caller resolves before accumulating); partitions
/// Fork() it, Accumulate() their share of the rows, and the merge stage folds
/// the partials together with MergeFrom() *in partition (input) order* —
/// that order makes collect(), DISTINCT first-occurrence, group output
/// order and representative-row choice identical to a serial run over the
/// concatenated input. Finish() then produces the grouped rows (one per
/// group, plus the neutral row for empty keyless input), to be
/// post-processed by BoundProjection::Tail.
class AggregationState {
 public:
  static AggregationState Plan(const ast::ProjectionBody& body,
                               const std::vector<std::string>& input_fields,
                               BindTable* table);

  AggregationState(AggregationState&&) noexcept;
  AggregationState& operator=(AggregationState&&) noexcept;
  ~AggregationState();

  /// A fresh (empty-groups) state sharing this state's plan — item
  /// resolution and the rewritten aggregate expressions are immutable
  /// and shared, so a worker plans once and forks per partition.
  AggregationState Fork() const;

  /// Folds every row of `input` into the group accumulators. The table's
  /// columns must be positionally compatible with the fields this state
  /// was planned against.
  Status Accumulate(const Table& input, const EvalContext& ctx);

  /// Folds one row (positionally compatible with the planned input
  /// fields) into the group accumulators — the streaming entry point: the
  /// batched and parallel runtimes feed morsels straight into the state
  /// without materializing the pre-aggregation table. `stamp` records the
  /// row's global scan position on any group it creates (serial callers
  /// leave the default; only the partitioned merge reads stamps back).
  Status AccumulateRow(const ValueList& row, const EvalContext& ctx,
                       GroupStamp stamp = {});

  /// Absorbs a partial that accumulated a LATER partition of the input
  /// (merge in partition order). `other` must be planned from the same
  /// projection body; it is consumed. Groups keep the stamp of their
  /// earliest occurrence.
  Status MergeFrom(AggregationState&& other);

  /// Produces the grouped output rows (group keys in first-occurrence
  /// order). Terminal: the accumulators are consumed. When `stamps` is
  /// non-null it receives each output row's first-occurrence stamp
  /// (ascending — groups are stored in first-occurrence order).
  Result<Table> Finish(const EvalContext& ctx,
                       std::vector<GroupStamp>* stamps = nullptr);

  /// True when the planned body has non-aggregating items: rows group by
  /// key (the partitioned parallel merge applies). False = keyless global
  /// aggregation (single group; the direct-fold merge chain stays O(1)
  /// per partial).
  bool has_keys() const;

  /// Output column names (one per projection item).
  const std::vector<std::string>& out_fields() const;

 private:
  friend class PartitionedAggregationState;
  AggregationState();
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

/// P-way hash-partitioned aggregation, the parallel runtime's keyed-merge
/// building block: rows route to one of P AggregationStates by group-key
/// hash (RowHash — the same equivalence-consistent hash the group index
/// probes with, so equivalent keys always land in the same partition).
/// Each worker keeps one of these per scan range; the merge stage then
/// folds partition p of every range in range order — P INDEPENDENT
/// MergeFrom chains running as parallel tasks instead of one serial
/// chain — and the stamps recorded at group creation let the final
/// interleave restore serial first-occurrence group order exactly.
class PartitionedAggregationState {
 public:
  /// Forks `proto` (a planned, keyed AggregationState) into `partitions`
  /// empty states sharing its plan.
  PartitionedAggregationState(const AggregationState& proto,
                              size_t partitions);

  /// Builds the row's grouping key once, routes by its hash, and folds
  /// the row into the owning partition under `stamp`.
  Status AccumulateRow(const ValueList& row, const EvalContext& ctx,
                       GroupStamp stamp);

  size_t num_partitions() const { return parts_.size(); }
  AggregationState& partition(size_t p) { return parts_[p]; }

 private:
  std::vector<AggregationState> parts_;
  ValueList key_scratch_;
};

/// Evaluated SKIP/LIMIT bounds of a projection body: skip = 0 and
/// limit = -1 (unbounded) when absent. Errors carry the serial messages
/// ("SKIP must be a non-negative integer").
struct SkipLimitBounds {
  int64_t skip = 0;
  int64_t limit = -1;
};

/// Rows [skip, skip + limit) of `t` (limit < 0: through the end).
Table SliceRows(Table t, const SkipLimitBounds& b);

/// How many sorted rows a SKIP/LIMIT can ever surface: skip + limit, or
/// UINT64_MAX when unbounded — or when the bounds failed to evaluate, so
/// the caller sorts everything and its slice raises the error at the
/// serial point (after the ORDER BY keys).
uint64_t TopKBound(const Result<SkipLimitBounds>& bounds);

/// Sorts `rows` under the strict total order `less` and keeps the first
/// `k`: a bounded std::partial_sort when `k` cuts the input. Exact
/// because `less` is total (callers break key ties on input position).
template <typename T, typename Less>
void SortTopK(std::vector<T>* rows, uint64_t k, Less less) {
  if (k < rows->size()) {
    auto mid = rows->begin() + static_cast<std::ptrdiff_t>(k);
    std::partial_sort(rows->begin(), mid, rows->end(), less);
    rows->erase(mid, rows->end());
  } else {
    std::sort(rows->begin(), rows->end(), less);
  }
}

/// A RETURN/WITH body bound once to its input fields — at plan time for
/// ProjectionOp, on entry for the interpreter. Items are bound
/// expressions over the input slots (`*` copies the visible input
/// fields), each ORDER BY key is either the projected column it names
/// (alias resolution: the key's text equals a column name) or a bound
/// expression over the output row then the pre-projection row, the WITH
/// ... WHERE filter reads the output row, and SKIP / LIMIT are bound with
/// no row scope. Evaluating it never resolves a name.
class BoundProjection {
 public:
  /// Binds `body` (and the optional WITH ... WHERE `where`) against
  /// `input_fields`; keys, labels and parameters go into `table`, which
  /// the caller resolves before evaluating.
  static BoundProjection Bind(const ast::ProjectionBody& body,
                              const std::vector<std::string>& input_fields,
                              const ast::Expr* where, BindTable* table);

  BoundProjection(BoundProjection&&) noexcept;
  BoundProjection& operator=(BoundProjection&&) noexcept;
  ~BoundProjection();

  const ast::ProjectionBody& body() const;
  /// Output column names (one per projected item, `*` expanded).
  const std::vector<std::string>& out_fields() const;
  bool aggregates() const;

  /// The whole projection over a materialized input: the map or the
  /// aggregation, the tail, and the WHERE filter.
  Result<Table> Evaluate(const Table& input, const EvalContext& ctx) const;

  /// The map stage of a NON-aggregating body for one input row, with no
  /// tail. When `keys` is non-null it receives the row's computed ORDER
  /// BY keys (OrderKeys) in the same pass — the parallel runtime projects
  /// and keys each scan range on its worker and keeps only the keys, not
  /// the pre-projection rows, alive into the merge.
  Result<ValueList> MapRow(const ValueList& row, const EvalContext& ctx,
                           ValueList* keys) const;

  /// An empty aggregation state sharing the bound aggregation plan
  /// (aggregating bodies only).
  AggregationState NewAggregation() const;

  /// DISTINCT, ORDER BY, SKIP / LIMIT over already-projected rows.
  /// `source_rows` (optional, sized to `output`) pairs each output row
  /// with the input row that produced it so ORDER BY in non-aggregating
  /// projections can read pre-projection variables; aggregated output
  /// passes nullptr. Under a LIMIT the sort is a bounded top-K (input
  /// position breaks ties, so the result equals a stable sort's prefix).
  Result<Table> Tail(Table output,
                     const std::vector<const ValueList*>* source_rows,
                     const EvalContext& ctx) const;

  /// The computed ORDER BY keys of one projected row — those that are
  /// not a projected column (alias keys are read from the row itself, so
  /// an all-alias ORDER BY yields an empty, unallocated list). `source` is
  /// the row's pre-projection row, or nullptr for aggregated or
  /// post-DISTINCT rows.
  Result<ValueList> OrderKeys(const ValueList& row, const ValueList* source,
                              const EvalContext& ctx) const;

  /// Three-way comparison of two projected rows with their OrderKeys
  /// under the body's sort spec (per-key ascending/descending over
  /// ValueOrder). Returns <0 / 0 / >0. Ties (0) are broken by the caller
  /// on original input position, which is what makes the parallel merge
  /// sort reproduce a stable sort byte-for-byte.
  int Compare(const ValueList& row_a, const ValueList& keys_a,
              const ValueList& row_b, const ValueList& keys_b) const;

  /// Evaluated SKIP/LIMIT bounds.
  Result<SkipLimitBounds> SkipLimit(const EvalContext& ctx) const;

  /// Applies the WITH ... WHERE filter (no-op without one).
  Result<Table> FilterWhere(Table result, const EvalContext& ctx) const;

 private:
  BoundProjection();
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

}  // namespace gqlite

#endif  // GQLITE_INTERP_PROJECTION_H_
