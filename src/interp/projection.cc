#include "src/interp/projection.h"

#include <algorithm>
#include <memory>
#include <optional>
#include <unordered_map>
#include <utility>

#include "src/eval/aggregation.h"
#include "src/frontend/analyzer.h"
#include "src/value/value_compare.h"

namespace gqlite {

using namespace ast;  // NOLINT(build/namespaces)

namespace {

/// Rewrites an expression by pulling out aggregate calls: each aggregate
/// occurrence becomes a VariableExpr("#aggN") and its (argument, function,
/// distinct) triple is appended to `slots`. The returned clone is bound
/// with `#aggN` as aggregate slots and evaluated once per group.
struct AggSlot {
  std::string fn;      // "count", "sum", ... or "count(*)"
  bool distinct = false;
  const Expr* arg = nullptr;  // null for count(*)
};

ExprPtr ExtractAggregates(const Expr& e, std::vector<AggSlot>* slots) {
  if (e.kind == Expr::Kind::kCountStar) {
    slots->push_back(AggSlot{"count(*)", false, nullptr});
    return std::make_unique<VariableExpr>("#agg" +
                                          std::to_string(slots->size() - 1));
  }
  if (e.kind == Expr::Kind::kFunctionCall) {
    const auto& f = static_cast<const FunctionCallExpr&>(e);
    if (IsAggregateFunction(f.name)) {
      slots->push_back(AggSlot{f.name, f.distinct, f.args[0].get()});
      return std::make_unique<VariableExpr>(
          "#agg" + std::to_string(slots->size() - 1));
    }
    std::vector<ExprPtr> args;
    for (const auto& a : f.args) args.push_back(ExtractAggregates(*a, slots));
    return std::make_unique<FunctionCallExpr>(f.name, f.distinct,
                                              std::move(args));
  }
  if (e.kind == Expr::Kind::kBinary) {
    const auto& b = static_cast<const BinaryExpr&>(e);
    return std::make_unique<BinaryExpr>(b.op, ExtractAggregates(*b.lhs, slots),
                                        ExtractAggregates(*b.rhs, slots));
  }
  if (e.kind == Expr::Kind::kUnary) {
    const auto& u = static_cast<const UnaryExpr&>(e);
    return std::make_unique<UnaryExpr>(u.op,
                                       ExtractAggregates(*u.operand, slots));
  }
  if (e.kind == Expr::Kind::kListLiteral) {
    const auto& l = static_cast<const ListLiteralExpr&>(e);
    std::vector<ExprPtr> items;
    for (const auto& i : l.items) items.push_back(ExtractAggregates(*i, slots));
    return std::make_unique<ListLiteralExpr>(std::move(items));
  }
  if (e.kind == Expr::Kind::kMapLiteral) {
    const auto& m = static_cast<const MapLiteralExpr&>(e);
    std::vector<std::pair<std::string, ExprPtr>> entries;
    for (const auto& [k, v] : m.entries) {
      entries.emplace_back(k, ExtractAggregates(*v, slots));
    }
    return std::make_unique<MapLiteralExpr>(std::move(entries));
  }
  if (e.kind == Expr::Kind::kProperty) {
    const auto& p = static_cast<const PropertyExpr&>(e);
    return std::make_unique<PropertyExpr>(ExtractAggregates(*p.object, slots),
                                          p.key);
  }
  if (e.kind == Expr::Kind::kLabelCheck) {
    const auto& l = static_cast<const LabelCheckExpr&>(e);
    return std::make_unique<LabelCheckExpr>(
        ExtractAggregates(*l.object, slots), l.labels);
  }
  if (e.kind == Expr::Kind::kIndex) {
    const auto& i = static_cast<const IndexExpr&>(e);
    return std::make_unique<IndexExpr>(ExtractAggregates(*i.object, slots),
                                       ExtractAggregates(*i.index, slots));
  }
  if (e.kind == Expr::Kind::kSlice) {
    const auto& sl = static_cast<const SliceExpr&>(e);
    return std::make_unique<SliceExpr>(
        ExtractAggregates(*sl.object, slots),
        sl.from ? ExtractAggregates(*sl.from, slots) : nullptr,
        sl.to ? ExtractAggregates(*sl.to, slots) : nullptr);
  }
  if (e.kind == Expr::Kind::kCase) {
    const auto& c = static_cast<const CaseExpr&>(e);
    auto out = std::make_unique<CaseExpr>();
    if (c.operand) out->operand = ExtractAggregates(*c.operand, slots);
    for (const auto& [w, t] : c.whens) {
      out->whens.emplace_back(ExtractAggregates(*w, slots),
                              ExtractAggregates(*t, slots));
    }
    if (c.otherwise) out->otherwise = ExtractAggregates(*c.otherwise, slots);
    return out;
  }
  // Leaves, and scoped forms whose bodies may read their own locals
  // (comprehensions, quantifiers, reduce): clone as-is.
  return CloneExpr(e);
}

}  // namespace

bool ProjectionAggregates(const ProjectionBody& body) {
  for (const auto& item : body.items) {
    if (ContainsAggregate(*item.expr)) return true;
  }
  return false;
}

// ---- AggregationState -------------------------------------------------------

struct AggregationState::Impl {
  /// One aggregate sub-expression of an item, its argument bound to the
  /// input slots (empty for count(*)).
  struct Slot {
    std::string fn;  // "count", "sum", ... or "count(*)"
    bool distinct = false;
    BoundExpr arg;
  };
  struct Item {
    std::string name;
    int field_index = -1;  // `*` item: copy this input column
    bool aggregating = false;
    BoundExpr key;         // non-aggregating: the grouping-key expression
    ExprPtr rewritten;     // aggregating: aggregates replaced by `#aggN`
    BoundExpr finish;      // `rewritten` over the representative + aggs
    std::vector<Slot> slots;
  };
  /// The immutable part of the plan (item resolution, the bound and
  /// rewritten aggregate expressions, the output schema) — shared between
  /// Fork()ed states so per-partition states pay no re-planning.
  struct Shape {
    size_t num_input_fields = 0;
    std::vector<Item> items;
    std::vector<std::string> out_fields;
    bool has_keys = false;
  };
  /// One group, in first-occurrence order. The representative row is
  /// owned (partitions outlive their input tables under the parallel
  /// merge) and is the group's FIRST input row, as in the serial run.
  struct Group {
    ValueList key;
    ValueList representative;
    std::vector<std::unique_ptr<Aggregator>> aggs;
    GroupStamp stamp;  // global scan position of the creating row
  };

  std::shared_ptr<const Shape> shape;
  std::vector<Group> groups;
  std::unordered_map<ValueList, size_t, RowEquivalenceHash, RowEquivalenceEq>
      index;
  ValueList key_scratch;  // reused per row; copied only on new groups

  Result<std::vector<std::unique_ptr<Aggregator>>> MakeGroupAggs() const {
    std::vector<std::unique_ptr<Aggregator>> aggs;
    for (const auto& it : shape->items) {
      for (const auto& slot : it.slots) {
        GQL_ASSIGN_OR_RETURN(std::unique_ptr<Aggregator> agg,
                             MakeAggregator(slot.fn, slot.distinct));
        aggs.push_back(std::move(agg));
      }
    }
    return aggs;
  }

  /// Builds the row's grouping key (the values of the non-aggregating
  /// items) into `key`. Static so the partitioned wrapper can build the
  /// key ONCE, route on its hash, and hand it to the owning partition.
  static Status BuildKey(const Shape& shape, const ValueList& row,
                         const EvalContext& ctx, ValueList* key) {
    key->clear();
    BoundRow in{&row};
    for (const auto& it : shape.items) {
      if (it.aggregating) continue;
      if (it.field_index >= 0) {
        key->push_back(row[it.field_index]);
      } else {
        GQL_ASSIGN_OR_RETURN(Value v, it.key.Eval(in, ctx));
        key->push_back(std::move(v));
      }
    }
    return Status::OK();
  }

  /// Folds one row's aggregate arguments into a group's accumulators.
  Status AccumulateSlots(Group& g, const ValueList& row,
                         const EvalContext& ctx) {
    size_t slot_idx = 0;
    BoundRow in{&row};
    for (const auto& it : shape->items) {
      for (const auto& slot : it.slots) {
        Value v = Value::Bool(true);  // row marker for count(*)
        if (!slot.arg.empty()) {
          GQL_ASSIGN_OR_RETURN(v, slot.arg.Eval(in, ctx));
        }
        GQL_RETURN_IF_ERROR(g.aggs[slot_idx]->Accumulate(v));
        ++slot_idx;
      }
    }
    return Status::OK();
  }

  /// Probes/creates the group for an already-built key and folds the row
  /// in. New groups record `stamp` (their global first occurrence).
  Status AccumulateKeyed(const ValueList& key, const ValueList& row,
                         const EvalContext& ctx, GroupStamp stamp) {
    auto pos = index.find(key);
    if (pos == index.end()) {
      Group g;
      g.key = key;
      g.representative = row;
      g.stamp = stamp;
      GQL_ASSIGN_OR_RETURN(g.aggs, MakeGroupAggs());
      pos = index.emplace(key, groups.size()).first;
      groups.push_back(std::move(g));
    }
    return AccumulateSlots(groups[pos->second], row, ctx);
  }
};

AggregationState::AggregationState() : impl_(std::make_unique<Impl>()) {}
AggregationState::AggregationState(AggregationState&&) noexcept = default;
AggregationState& AggregationState::operator=(AggregationState&&) noexcept =
    default;
AggregationState::~AggregationState() = default;

const std::vector<std::string>& AggregationState::out_fields() const {
  return impl_->shape->out_fields;
}

AggregationState AggregationState::Plan(
    const ProjectionBody& body, const std::vector<std::string>& input_fields,
    BindTable* table) {
  AggregationState state;
  auto shape = std::make_shared<Impl::Shape>();
  shape->num_input_fields = input_fields.size();
  const BindScope in_scope{&input_fields};
  // `*` expands to the visible input fields, in order (planner-hidden
  // '#...' columns are internal and never projected).
  if (body.star) {
    for (size_t i = 0; i < input_fields.size(); ++i) {
      const std::string& f = input_fields[i];
      if (!f.empty() && f[0] == '#') continue;
      Impl::Item it;
      it.name = f;
      it.field_index = static_cast<int>(i);
      shape->items.push_back(std::move(it));
    }
  }
  for (const auto& item : body.items) {
    Impl::Item it;
    it.name = item.alias ? *item.alias : DerivedColumnName(*item.expr);
    it.aggregating = ContainsAggregate(*item.expr);
    if (it.aggregating) {
      std::vector<AggSlot> slots;
      it.rewritten = ExtractAggregates(*item.expr, &slots);
      for (const AggSlot& s : slots) {
        Impl::Slot bound{s.fn, s.distinct, BoundExpr()};
        if (s.arg != nullptr) {
          bound.arg = BoundExpr::Bind(*s.arg, in_scope, table);
        }
        it.slots.push_back(std::move(bound));
      }
      it.finish = BoundExpr::Bind(
          *it.rewritten, BindScope{&input_fields, nullptr, slots.size()},
          table);
    } else {
      it.key = BoundExpr::Bind(*item.expr, in_scope, table);
    }
    shape->items.push_back(std::move(it));
  }
  for (const auto& it : shape->items) {
    shape->out_fields.push_back(it.name);
    if (!it.aggregating) shape->has_keys = true;
  }
  state.impl_->shape = std::move(shape);
  return state;
}

AggregationState AggregationState::Fork() const {
  AggregationState state;
  state.impl_->shape = impl_->shape;  // planning is shared, groups are not
  return state;
}

Status AggregationState::Accumulate(const Table& input,
                                    const EvalContext& ctx) {
  for (const auto& row : input.rows()) {
    GQL_RETURN_IF_ERROR(AccumulateRow(row, ctx));
  }
  return Status::OK();
}

Status AggregationState::AccumulateRow(const ValueList& row,
                                       const EvalContext& ctx,
                                       GroupStamp stamp) {
  Impl& im = *impl_;
  if (!im.shape->has_keys) {
    // Global aggregation: every row lands in the single group — no key to
    // build, hash or probe.
    if (im.groups.empty()) {
      Impl::Group g;
      g.representative = row;
      g.stamp = stamp;
      GQL_ASSIGN_OR_RETURN(g.aggs, im.MakeGroupAggs());
      im.groups.push_back(std::move(g));
    }
    return im.AccumulateSlots(im.groups[0], row, ctx);
  }
  // Group by the values of the non-aggregating items (§3: "the first
  // expression, r, is a non-aggregating expression and therefore acts
  // as an implicit grouping key"). The key is built in a reused scratch
  // buffer; the existing-group path allocates nothing.
  GQL_RETURN_IF_ERROR(Impl::BuildKey(*im.shape, row, ctx, &im.key_scratch));
  return im.AccumulateKeyed(im.key_scratch, row, ctx, stamp);
}

Status AggregationState::MergeFrom(AggregationState&& other) {
  Impl& im = *impl_;
  Impl& oim = *other.impl_;
  if (!im.shape->has_keys) {
    // Keyless states bypass the group index (single group, no keys); fold
    // the other state's accumulators directly.
    if (!oim.groups.empty()) {
      if (im.groups.empty()) {
        im.groups = std::move(oim.groups);
      } else {
        Impl::Group& g = im.groups[0];
        Impl::Group& og = oim.groups[0];
        if (og.stamp < g.stamp) g.stamp = og.stamp;
        for (size_t a = 0; a < g.aggs.size(); ++a) {
          GQL_ASSIGN_OR_RETURN(Value partial, og.aggs[a]->ExportPartial());
          GQL_RETURN_IF_ERROR(g.aggs[a]->MergePartial(partial));
        }
      }
    }
    oim.groups.clear();
    oim.index.clear();
    return Status::OK();
  }
  // Walking the later partition's groups in ITS first-occurrence order
  // keeps the merged group order equal to first occurrence over the
  // concatenated input; an already-known group keeps its (earlier)
  // representative.
  for (Impl::Group& og : oim.groups) {
    auto [pos, inserted] = im.index.try_emplace(og.key, im.groups.size());
    if (inserted) {
      im.groups.push_back(std::move(og));
      continue;
    }
    Impl::Group& g = im.groups[pos->second];
    if (og.stamp < g.stamp) g.stamp = og.stamp;
    for (size_t a = 0; a < g.aggs.size(); ++a) {
      GQL_ASSIGN_OR_RETURN(Value partial, og.aggs[a]->ExportPartial());
      GQL_RETURN_IF_ERROR(g.aggs[a]->MergePartial(partial));
    }
  }
  oim.groups.clear();
  oim.index.clear();
  return Status::OK();
}

bool AggregationState::has_keys() const { return impl_->shape->has_keys; }

Result<Table> AggregationState::Finish(const EvalContext& ctx,
                                       std::vector<GroupStamp>* stamps) {
  Impl& im = *impl_;
  // Global aggregation over an empty input: one row of neutral aggregate
  // values — but only when there are no grouping keys.
  if (im.groups.empty() && !im.shape->has_keys) {
    Impl::Group g;
    GQL_ASSIGN_OR_RETURN(g.aggs, im.MakeGroupAggs());
    im.groups.push_back(std::move(g));
  }

  Table output(im.shape->out_fields);
  ValueList agg_values;
  for (Impl::Group& g : im.groups) {
    agg_values.clear();
    for (auto& agg : g.aggs) {
      GQL_ASSIGN_OR_RETURN(Value v, agg->Finish());
      agg_values.push_back(std::move(v));
    }
    // The neutral group of an empty keyless input has no representative;
    // its variables must resolve to nothing (not index into an empty row).
    bool has_rep = g.representative.size() == im.shape->num_input_fields;
    ValueList out_row;
    out_row.reserve(im.shape->items.size());
    size_t key_idx = 0;
    size_t slot_base = 0;
    for (const auto& it : im.shape->items) {
      if (!it.aggregating) {
        out_row.push_back(g.key[key_idx++]);
      } else {
        // This item's placeholders #agg0.. index its own slice of the
        // group's aggregate values.
        BoundRow rep{has_rep ? &g.representative : nullptr, nullptr,
                     agg_values.data() + slot_base, it.slots.size()};
        GQL_ASSIGN_OR_RETURN(Value v, it.finish.Eval(rep, ctx));
        out_row.push_back(std::move(v));
        slot_base += it.slots.size();
      }
    }
    output.AddRow(std::move(out_row));
    if (stamps != nullptr) stamps->push_back(g.stamp);
  }
  im.groups.clear();
  im.index.clear();
  return output;
}

// ---- PartitionedAggregationState --------------------------------------------

PartitionedAggregationState::PartitionedAggregationState(
    const AggregationState& proto, size_t partitions) {
  parts_.reserve(partitions);
  for (size_t p = 0; p < partitions; ++p) parts_.push_back(proto.Fork());
}

Status PartitionedAggregationState::AccumulateRow(const ValueList& row,
                                                  const EvalContext& ctx,
                                                  GroupStamp stamp) {
  const AggregationState::Impl::Shape& shape = *parts_[0].impl_->shape;
  GQL_RETURN_IF_ERROR(
      AggregationState::Impl::BuildKey(shape, row, ctx, &key_scratch_));
  // RowHash is the same equivalence-consistent hash the group index
  // probes with, so equivalent keys (1 vs 1.0) cannot split across
  // partitions and create duplicate groups.
  size_t p = RowHash(key_scratch_) % parts_.size();
  return parts_[p].impl_->AccumulateKeyed(key_scratch_, row, ctx, stamp);
}

// ---- Post-projection tail ---------------------------------------------------

Table SliceRows(Table t, const SkipLimitBounds& b) {
  Table limited(t.fields());
  int64_t n = static_cast<int64_t>(t.NumRows());
  int64_t end = n;
  if (b.limit >= 0 && b.skip < n && b.limit < n - b.skip) {
    end = b.skip + b.limit;  // cannot overflow: stays below n
  }
  for (int64_t i = b.skip; i < end; ++i) {
    limited.AddRow(std::move(t.mutable_rows()[i]));
  }
  return limited;
}

uint64_t TopKBound(const Result<SkipLimitBounds>& bounds) {
  if (!bounds.ok() || bounds->limit < 0) return UINT64_MAX;
  return static_cast<uint64_t>(bounds->skip) +
         static_cast<uint64_t>(bounds->limit);
}

// ---- BoundProjection --------------------------------------------------------

struct BoundProjection::Impl {
  struct Item {
    int field = -1;  // `*` item: copy this input column
    BoundExpr expr;
  };
  struct OrderKey {
    int column = -1;  // alias: the projected column the key names
    int computed = -1;  // otherwise: its position in the OrderKeys list
    BoundExpr expr;
    bool ascending = true;
  };
  const ProjectionBody* body = nullptr;
  std::vector<std::string> out_fields;
  std::vector<Item> items;                // non-aggregating bodies
  std::optional<AggregationState> agg;    // aggregating bodies
  std::vector<OrderKey> order;
  BoundExpr where;
  BoundExpr skip;
  BoundExpr limit;
};

BoundProjection::BoundProjection() : impl_(std::make_unique<Impl>()) {}
BoundProjection::BoundProjection(BoundProjection&&) noexcept = default;
BoundProjection& BoundProjection::operator=(BoundProjection&&) noexcept =
    default;
BoundProjection::~BoundProjection() = default;

BoundProjection BoundProjection::Bind(
    const ProjectionBody& body, const std::vector<std::string>& input_fields,
    const Expr* where, BindTable* table) {
  BoundProjection p;
  Impl& im = *p.impl_;
  im.body = &body;
  const BindScope in_scope{&input_fields};
  bool aggregating = ProjectionAggregates(body);
  if (aggregating) {
    im.agg.emplace(AggregationState::Plan(body, input_fields, table));
    im.out_fields = im.agg->out_fields();
  } else {
    // `*` expands to the visible input fields, in order.
    if (body.star) {
      for (size_t i = 0; i < input_fields.size(); ++i) {
        const std::string& f = input_fields[i];
        if (!f.empty() && f[0] == '#') continue;
        im.out_fields.push_back(f);
        im.items.push_back({static_cast<int>(i), BoundExpr()});
      }
    }
    for (const auto& item : body.items) {
      im.out_fields.push_back(item.alias ? *item.alias
                                         : DerivedColumnName(*item.expr));
      im.items.push_back({-1, BoundExpr::Bind(*item.expr, in_scope, table)});
    }
  }
  // ORDER BY sees the output row, then (non-aggregating bodies only) the
  // pre-projection row.
  const BindScope order_scope{&im.out_fields,
                              aggregating ? nullptr : &input_fields};
  int computed = 0;
  for (const auto& o : body.order_by) {
    Impl::OrderKey key;
    key.ascending = o.ascending;
    // An ORDER BY expression that textually matches a projected column
    // (e.g. ORDER BY p.acmid after RETURN p.acmid, count(*)) refers to
    // that column, like Cypher's alias resolution.
    std::string text = DerivedColumnName(*o.expr);
    for (size_t i = 0; i < im.out_fields.size(); ++i) {
      if (im.out_fields[i] == text) {
        key.column = static_cast<int>(i);
        break;
      }
    }
    if (key.column < 0) {
      key.computed = computed++;
      key.expr = BoundExpr::Bind(*o.expr, order_scope, table);
    }
    im.order.push_back(std::move(key));
  }
  if (where != nullptr) {
    im.where = BoundExpr::Bind(*where, BindScope{&im.out_fields}, table);
  }
  if (body.skip) im.skip = BoundExpr::Bind(*body.skip, BindScope{}, table);
  if (body.limit) im.limit = BoundExpr::Bind(*body.limit, BindScope{}, table);
  return p;
}

const ProjectionBody& BoundProjection::body() const { return *impl_->body; }

const std::vector<std::string>& BoundProjection::out_fields() const {
  return impl_->out_fields;
}

bool BoundProjection::aggregates() const { return impl_->agg.has_value(); }

AggregationState BoundProjection::NewAggregation() const {
  return impl_->agg->Fork();
}

Result<ValueList> BoundProjection::MapRow(const ValueList& row,
                                          const EvalContext& ctx,
                                          ValueList* keys) const {
  BoundRow in{&row};
  ValueList out_row;
  out_row.reserve(impl_->items.size());
  for (const auto& it : impl_->items) {
    if (it.field >= 0) {
      out_row.push_back(row[it.field]);
    } else {
      GQL_ASSIGN_OR_RETURN(Value v, it.expr.Eval(in, ctx));
      out_row.push_back(std::move(v));
    }
  }
  if (keys != nullptr) {
    // Same-pass keying, while the source row is still in reach.
    GQL_ASSIGN_OR_RETURN(*keys, OrderKeys(out_row, &row, ctx));
  }
  return out_row;
}

Result<ValueList> BoundProjection::OrderKeys(const ValueList& row,
                                             const ValueList* source,
                                             const EvalContext& ctx) const {
  BoundRow env{&row, source};
  ValueList keys;
  for (const auto& k : impl_->order) {
    if (k.column >= 0) continue;
    GQL_ASSIGN_OR_RETURN(Value v, k.expr.Eval(env, ctx));
    keys.push_back(std::move(v));
  }
  return keys;
}

int BoundProjection::Compare(const ValueList& row_a, const ValueList& keys_a,
                             const ValueList& row_b,
                             const ValueList& keys_b) const {
  for (const auto& k : impl_->order) {
    int c = k.column >= 0
                ? ValueOrder(row_a[k.column], row_b[k.column])
                : ValueOrder(keys_a[k.computed], keys_b[k.computed]);
    if (c != 0) return k.ascending ? c : -c;
  }
  return 0;
}

namespace {

Result<int64_t> EvalCount(const BoundExpr& e, const EvalContext& ctx,
                          const char* what) {
  GQL_ASSIGN_OR_RETURN(Value v, e.Eval(BoundRow{}, ctx));
  if (!v.is_int() || v.AsInt() < 0) {
    return Status::EvaluationError(std::string(what) +
                                   " must be a non-negative integer");
  }
  return v.AsInt();
}

}  // namespace

Result<SkipLimitBounds> BoundProjection::SkipLimit(
    const EvalContext& ctx) const {
  SkipLimitBounds b;
  if (!impl_->skip.empty()) {
    GQL_ASSIGN_OR_RETURN(b.skip, EvalCount(impl_->skip, ctx, "SKIP"));
  }
  if (!impl_->limit.empty()) {
    GQL_ASSIGN_OR_RETURN(b.limit, EvalCount(impl_->limit, ctx, "LIMIT"));
  }
  return b;
}

Result<Table> BoundProjection::Tail(
    Table output, const std::vector<const ValueList*>* source_rows,
    const EvalContext& ctx) const {
  const ProjectionBody& body = *impl_->body;
  if (body.distinct) {
    // ε after projection; source-row pairing is dropped (ORDER BY then
    // sees only the projected columns, as in Cypher).
    output = output.Deduplicated();
    source_rows = nullptr;
  }
  const bool sliced = body.skip || body.limit;
  // Evaluated once, after the ORDER BY keys: a key error surfaces first,
  // as before bounding the sort.
  std::optional<Result<SkipLimitBounds>> bounds;

  if (!body.order_by.empty()) {
    struct Keyed {
      ValueList row;
      ValueList keys;
      size_t pos = 0;
    };
    std::vector<Keyed> keyed;
    keyed.reserve(output.NumRows());
    for (size_t i = 0; i < output.NumRows(); ++i) {
      ValueList& row = output.mutable_rows()[i];
      const ValueList* source =
          source_rows != nullptr && i < source_rows->size()
              ? (*source_rows)[i]
              : nullptr;
      GQL_ASSIGN_OR_RETURN(ValueList keys, OrderKeys(row, source, ctx));
      // Keys are computed; the row itself can move out of the table.
      keyed.push_back(Keyed{std::move(row), std::move(keys), i});
    }
    uint64_t topk = UINT64_MAX;
    if (sliced) {
      bounds.emplace(SkipLimit(ctx));
      topk = TopKBound(*bounds);
    }
    SortTopK(&keyed, topk, [this](const Keyed& a, const Keyed& b) {
      int c = Compare(a.row, a.keys, b.row, b.keys);
      return c != 0 ? c < 0 : a.pos < b.pos;
    });
    Table sorted(output.fields());
    for (auto& k : keyed) sorted.AddRow(std::move(k.row));
    output = std::move(sorted);
  }

  if (sliced) {
    if (!bounds.has_value()) bounds.emplace(SkipLimit(ctx));
    GQL_ASSIGN_OR_RETURN(SkipLimitBounds b, std::move(*bounds));
    output = SliceRows(std::move(output), b);
  }
  return output;
}

Result<Table> BoundProjection::FilterWhere(Table result,
                                           const EvalContext& ctx) const {
  if (impl_->where.empty()) return result;
  Table filtered(result.fields());
  for (auto& r : result.mutable_rows()) {
    GQL_ASSIGN_OR_RETURN(Tri keep,
                         impl_->where.EvalPredicate(BoundRow{&r}, ctx));
    if (keep == Tri::kTrue) filtered.AddRow(std::move(r));
  }
  return filtered;
}

Result<Table> BoundProjection::Evaluate(const Table& input,
                                        const EvalContext& ctx) const {
  Table result;
  if (aggregates()) {
    AggregationState state = NewAggregation();
    GQL_RETURN_IF_ERROR(state.Accumulate(input, ctx));
    GQL_ASSIGN_OR_RETURN(Table grouped, state.Finish(ctx));
    GQL_ASSIGN_OR_RETURN(result, Tail(std::move(grouped), nullptr, ctx));
  } else {
    Table output(out_fields());
    output.mutable_rows().reserve(input.NumRows());
    // Track the input row that produced each output row (for ORDER BY on
    // pre-projection variables).
    std::vector<const ValueList*> source_rows;
    source_rows.reserve(input.NumRows());
    for (const auto& row : input.rows()) {
      GQL_ASSIGN_OR_RETURN(ValueList out, MapRow(row, ctx, nullptr));
      output.AddRow(std::move(out));
      source_rows.push_back(&row);
    }
    GQL_ASSIGN_OR_RETURN(result,
                         Tail(std::move(output), &source_rows, ctx));
  }
  return FilterWhere(std::move(result), ctx);
}

// ---- EvaluateProjection -----------------------------------------------------

Result<Table> EvaluateProjection(const ProjectionBody& body,
                                 const Table& input, const EvalContext& ctx) {
  BindTable table;
  BoundProjection p =
      BoundProjection::Bind(body, input.fields(), nullptr, &table);
  table.Resolve(ctx.graph, ctx.parameters);
  return p.Evaluate(input, ctx);
}

}  // namespace gqlite
