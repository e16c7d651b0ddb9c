#include "src/plan/operators.h"

#include <algorithm>
#include <cstdio>

#include "src/value/value_compare.h"

namespace gqlite {

namespace {

std::vector<std::string> Extend(const std::vector<std::string>& base,
                                std::initializer_list<std::string> extra) {
  std::vector<std::string> out = base;
  for (const auto& e : extra) {
    if (!e.empty()) out.push_back(e);
  }
  return out;
}

/// True if relationship `r` already occurs in one of the uniqueness
/// columns (single relationships or relationship lists) of `row` — the
/// relationship-isomorphism check.
bool RelAlreadyUsed(RelId r, const ValueList& row,
                    const std::vector<int>& cols) {
  for (int c : cols) {
    const Value& v = row[c];
    if (v.is_relationship() && v.AsRelationship() == r) return true;
    if (v.is_list()) {
      for (const Value& e : v.AsList()) {
        if (e.is_relationship() && e.AsRelationship() == r) return true;
      }
    }
  }
  return false;
}

/// Type check against the spec's pre-resolved type ids (see
/// ExpandSpec::type_ids) — one integer compare per wanted type.
bool TypeOk(const ExpandSpec& spec, SymbolId t) {
  if (spec.type_ids.empty()) return true;
  for (SymbolId want : spec.type_ids) {
    if (want == t) return true;
  }
  return false;
}

/// Resolves the spec's type names against the bound graph (call from
/// Open(): the graph is fixed per execution, ids are stable per graph).
void ResolveTypeIds(const PropertyGraph& g, ExpandSpec* spec) {
  spec->type_ids.clear();
  spec->type_ids.reserve(spec->types.size());
  for (const auto& t : spec->types) spec->type_ids.push_back(g.LookupType(t));
}

}  // namespace

// ---- BoundPropMap / LazyPropWants / ScanPredicate ---------------------------

BoundPropMap BoundPropMap::Bind(std::span<const PropertyEntry> props,
                                const std::vector<std::string>& input_schema,
                                BindTable* table) {
  BoundPropMap out;
  for (const auto& [key, expr] : props) {
    out.keys.push_back(table->KeyIndex(key));
    out.values.push_back(
        BoundExpr::Bind(*expr, BindScope{&input_schema}, table));
  }
  return out;
}

Status LazyPropWants::EvalNext(const ExecContext& ctx,
                               const BoundPropMap& props,
                               const ValueList& row) {
  GQL_ASSIGN_OR_RETURN(
      Value want, props.values[wants_.size()].Eval(BoundRow{&row}, ctx.eval));
  wants_.push_back(std::move(want));
  return Status::OK();
}

ScanPredicate::ScanPredicate(const NodeScanFilter& filter,
                             const std::vector<std::string>& input_schema,
                             BindTable* table)
    : filter_(filter),
      props_(BoundPropMap::Bind(filter.props, input_schema, table)) {
  for (const auto& l : filter.labels) {
    label_refs_.push_back(table->LabelIndex(l));
  }
}

std::string ScanPredicate::Describe() const {
  std::string out;
  for (const auto& l : filter_.labels) out += (out.empty() ? " :" : ":") + l;
  if (filter_.props.empty()) return out;
  out += " {";
  for (size_t i = 0; i < filter_.props.size(); ++i) {
    if (i) out += ", ";
    out += filter_.props[i].first;
  }
  return out + "}";
}

// ---- BatchCursor ------------------------------------------------------------

Result<const ValueList*> BatchCursor::Current(Operator* child,
                                              size_t capacity) {
  while (!done_ && pos_ >= batch_.size()) {
    if (batch_.capacity() != capacity) batch_ = RowBatch(capacity);
    GQL_ASSIGN_OR_RETURN(bool ok, child->NextBatch(&batch_));
    pos_ = 0;
    if (!ok) done_ = true;
  }
  if (done_) return static_cast<const ValueList*>(nullptr);
  return &batch_.row(pos_);
}

// ---- ArgumentOp -------------------------------------------------------------

Result<bool> ArgumentOp::NextBatchImpl(RowBatch* out) {
  if (single_row_ != nullptr) {
    if (done_single_) return false;
    done_single_ = true;
    out->Append(*single_row_);
    return true;
  }
  if (source_ == nullptr) return false;
  while (pos_ < source_->NumRows() && !out->full()) {
    out->Append(source_->rows()[pos_++]);
  }
  return !out->empty();
}

// ---- AllNodesScanOp ---------------------------------------------------------

AllNodesScanOp::AllNodesScanOp(OperatorPtr child, ExecContext* ctx,
                               std::string var, const NodeScanFilter& filter)
    : Operator(nullptr, {}),
      ctx_(ctx),
      var_(var),
      pred_(filter, child->schema(), &ctx->binds) {
  child_ = std::move(child);
  schema_ = Extend(child_->schema(), {var});
}

size_t AllNodesScanOp::ScanDomainSize() const {
  return ctx_->graph->NumNodeSlots();
}

Status AllNodesScanOp::Open() {
  input_.Reset();
  pred_.Reset();
  node_pos_ = range_begin_;
  ctx_->EnsureBindings();
  return child_->Open();
}

Result<bool> AllNodesScanOp::NextBatchImpl(RowBatch* out) {
  const PropertyGraph& g = *ctx_->graph;
  const size_t end = std::min(range_end_, g.NumNodeSlots());
  while (!out->full()) {
    GQL_ASSIGN_OR_RETURN(const ValueList* in,
                         input_.Current(child_.get(), out->capacity()));
    if (in == nullptr) break;
    while (node_pos_ < end && !out->full()) {
      NodeId n{node_pos_++};
      if (!g.IsNodeAlive(n)) continue;
      if (!pred_.empty()) {
        GQL_ASSIGN_OR_RETURN(bool keep, pred_.Ok(*ctx_, *in, n));
        if (!keep) continue;
      }
      out->AppendFrom(*in).push_back(Value::Node(n));
    }
    if (node_pos_ >= end) {
      input_.Advance();
      pred_.Reset();
      node_pos_ = range_begin_;
    }
  }
  return !out->empty();
}

// ---- NodeByLabelScanOp ------------------------------------------------------

NodeByLabelScanOp::NodeByLabelScanOp(OperatorPtr child, ExecContext* ctx,
                                     std::string var, std::string label,
                                     const NodeScanFilter& filter)
    : Operator(nullptr, {}),
      ctx_(ctx),
      var_(var),
      label_(label),
      pred_(filter, child->schema(), &ctx->binds) {
  child_ = std::move(child);
  schema_ = Extend(child_->schema(), {var});
}

size_t NodeByLabelScanOp::ScanDomainSize() const {
  return ctx_->graph->NodesWithLabel(label_).size();
}

Status NodeByLabelScanOp::Open() {
  input_.Reset();
  pred_.Reset();
  idx_pos_ = range_begin_;
  ctx_->EnsureBindings();
  return child_->Open();
}

Result<bool> NodeByLabelScanOp::NextBatchImpl(RowBatch* out) {
  const auto& idx = ctx_->graph->NodesWithLabel(label_);
  const size_t end = std::min(range_end_, idx.size());
  while (!out->full()) {
    GQL_ASSIGN_OR_RETURN(const ValueList* in,
                         input_.Current(child_.get(), out->capacity()));
    if (in == nullptr) break;
    while (idx_pos_ < end && !out->full()) {
      NodeId n = idx[idx_pos_++];
      if (!pred_.empty()) {
        GQL_ASSIGN_OR_RETURN(bool keep, pred_.Ok(*ctx_, *in, n));
        if (!keep) continue;
      }
      out->AppendFrom(*in).push_back(Value::Node(n));
    }
    if (idx_pos_ >= end) {
      input_.Advance();
      pred_.Reset();
      idx_pos_ = range_begin_;
    }
  }
  return !out->empty();
}

// ---- ExpandOp ---------------------------------------------------------------

ExpandOp::ExpandOp(OperatorPtr child, ExecContext* ctx, ExpandSpec spec)
    : Operator(nullptr, {}), ctx_(ctx), spec_(std::move(spec)) {
  child_ = std::move(child);
  schema_ = child_->schema();
  if (!spec_.rel_var.empty()) schema_.push_back(spec_.rel_var);
  if (spec_.to_col < 0) schema_.push_back(spec_.to_var);
  bound_props_ =
      BoundPropMap::Bind(spec_.rel_props, child_->schema(), &ctx_->binds);
}

Status ExpandOp::Open() {
  input_.Reset();
  adj_pos_ = 0;
  props_.Reset();
  ResolveTypeIds(*ctx_->graph, &spec_);
  ctx_->EnsureBindings();
  return child_->Open();
}

Result<bool> ExpandOp::RelMatches(const AdjEntry& e, const ValueList& row) {
  if (!TypeOk(spec_, e.type)) return false;
  if (ctx_->match.morphism != Morphism::kHomomorphism &&
      RelAlreadyUsed(e.rel, row, spec_.uniqueness_cols)) {
    return false;
  }
  // The only check that reads the relationship record; it stays ahead of
  // the row checks below so a constraint expression is evaluated exactly
  // when the reference matcher evaluates it.
  if (!bound_props_.empty()) {
    GQL_ASSIGN_OR_RETURN(bool props_ok,
                         props_.Ok(*ctx_, bound_props_, row, e.rel));
    if (!props_ok) return false;
  }
  if (spec_.bound_rel_col >= 0) {
    const Value& bound = row[spec_.bound_rel_col];
    if (!bound.is_relationship() || !(bound.AsRelationship() == e.rel)) {
      return false;
    }
  }
  if (spec_.to_col < 0) return true;
  const Value& want = row[spec_.to_col];
  return want.is_node() && want.AsNode() == e.other;
}

Result<bool> ExpandOp::NextBatchImpl(RowBatch* out) {
  const PropertyGraph& g = *ctx_->graph;
  while (!out->full()) {
    GQL_ASSIGN_OR_RETURN(const ValueList* in,
                         input_.Current(child_.get(), out->capacity()));
    if (in == nullptr) break;
    const Value& from_v = (*in)[spec_.from_col];
    if (!from_v.is_node() || !g.IsNodeAlive(from_v.AsNode())) {
      input_.Advance();
      adj_pos_ = 0;
      props_.Reset();
      continue;
    }
    NodeId from = from_v.AsNode();
    const auto out_rels = g.OutRels(from);
    const auto in_rels = g.InRels(from);
    // Adjacency sequence: only the half (or halves) the direction emits
    // from — `->` the out-relationships, `<-` the in-relationships, `--`
    // out then in, skipping self-loops in the in half so undirected
    // traversal sees them once. Either way the entry's `other` is the
    // next node.
    const bool walk_out = spec_.direction != ast::Direction::kLeft;
    const bool walk_in = spec_.direction != ast::Direction::kRight;
    const size_t out_n = walk_out ? out_rels.size() : 0;
    const size_t total = out_n + (walk_in ? in_rels.size() : 0);
    while (adj_pos_ < total && !out->full()) {
      size_t i = adj_pos_++;
      const AdjEntry& e = i < out_n ? out_rels[i] : in_rels[i - out_n];
      if (i >= out_n && walk_out && e.other == from) continue;
      GQL_ASSIGN_OR_RETURN(bool rel_ok, RelMatches(e, *in));
      if (!rel_ok) continue;
      ValueList& row = out->AppendFrom(*in);
      if (!spec_.rel_var.empty()) row.push_back(Value::Relationship(e.rel));
      if (spec_.to_col < 0) row.push_back(Value::Node(e.other));
    }
    if (adj_pos_ >= total) {
      input_.Advance();
      adj_pos_ = 0;
      props_.Reset();
    }
  }
  return !out->empty();
}

std::string ExpandOp::Describe() const {
  std::string arrow = spec_.direction == ast::Direction::kRight   ? "->"
                      : spec_.direction == ast::Direction::kLeft ? "<-"
                                                                  : "--";
  std::string out = spec_.to_col >= 0 ? "ExpandInto(" : "Expand(";
  out += schema_[spec_.from_col] + arrow;
  for (size_t i = 0; i < spec_.types.size(); ++i) {
    out += (i ? "|" : ":") + spec_.types[i];
  }
  out += arrow;
  out += spec_.to_col >= 0 ? schema_[spec_.to_col] : spec_.to_var;
  return out + ")";
}

// ---- HashJoinExpandOp -------------------------------------------------------

HashJoinExpandOp::HashJoinExpandOp(OperatorPtr child, ExecContext* ctx,
                                   ExpandSpec spec)
    : Operator(nullptr, {}), ctx_(ctx), spec_(std::move(spec)) {
  child_ = std::move(child);
  schema_ = child_->schema();
  if (!spec_.rel_var.empty()) schema_.push_back(spec_.rel_var);
  if (spec_.to_col < 0) schema_.push_back(spec_.to_var);
  bound_props_ =
      BoundPropMap::Bind(spec_.rel_props, child_->schema(), &ctx_->binds);
}

Status HashJoinExpandOp::Open() {
  input_.Reset();
  probing_ = false;
  ResolveTypeIds(*ctx_->graph, &spec_);
  ctx_->EnsureBindings();
  if (!built_) {
    // Build side: scan the entire relationship store (the indirection the
    // adjacency-based Expand avoids).
    const PropertyGraph& g = *ctx_->graph;
    for (size_t i = 0; i < g.NumRelSlots(); ++i) {
      RelId r{i};
      if (!g.IsRelAlive(r)) continue;
      SymbolId t = g.RelTypeId(r);
      if (!TypeOk(spec_, t)) continue;
      NodeId src = g.Source(r);
      NodeId tgt = g.Target(r);
      if (spec_.direction != ast::Direction::kLeft) {
        index_.emplace(src.id, AdjEntry{r, tgt, t});
      }
      if (spec_.direction == ast::Direction::kLeft ||
          (spec_.direction == ast::Direction::kBoth && src != tgt)) {
        index_.emplace(tgt.id, AdjEntry{r, src, t});
      }
    }
    built_ = true;
  }
  range_ = {index_.end(), index_.end()};
  return child_->Open();
}

Result<bool> HashJoinExpandOp::NextBatchImpl(RowBatch* out) {
  while (!out->full()) {
    GQL_ASSIGN_OR_RETURN(const ValueList* in,
                         input_.Current(child_.get(), out->capacity()));
    if (in == nullptr) break;
    if (!probing_) {
      const Value& from_v = (*in)[spec_.from_col];
      if (!from_v.is_node()) {
        input_.Advance();
        continue;
      }
      range_ = index_.equal_range(from_v.AsNode().id);
      probing_ = true;
      props_.Reset();
    }
    while (range_.first != range_.second && !out->full()) {
      const AdjEntry& e = range_.first->second;
      RelId r = e.rel;
      ++range_.first;
      if (ctx_->match.morphism != Morphism::kHomomorphism &&
          RelAlreadyUsed(r, *in, spec_.uniqueness_cols)) {
        continue;
      }
      if (spec_.bound_rel_col >= 0) {
        const Value& bound = (*in)[spec_.bound_rel_col];
        if (!bound.is_relationship() || !(bound.AsRelationship() == r)) {
          continue;
        }
      }
      GQL_ASSIGN_OR_RETURN(bool props_ok,
                           props_.Ok(*ctx_, bound_props_, *in, r));
      if (!props_ok) continue;
      if (spec_.to_col >= 0) {
        const Value& want = (*in)[spec_.to_col];
        if (!want.is_node() || !(want.AsNode() == e.other)) continue;
      }
      ValueList& row = out->AppendFrom(*in);
      if (!spec_.rel_var.empty()) row.push_back(Value::Relationship(r));
      if (spec_.to_col < 0) row.push_back(Value::Node(e.other));
    }
    if (range_.first == range_.second) {
      probing_ = false;
      input_.Advance();
    }
  }
  return !out->empty();
}

std::string HashJoinExpandOp::Describe() const {
  return "HashJoinExpand(" + schema_[spec_.from_col] + "," +
         (spec_.to_col >= 0 ? schema_[spec_.to_col] : spec_.to_var) + ")";
}

// ---- VarLengthExpandOp ------------------------------------------------------

VarLengthExpandOp::VarLengthExpandOp(OperatorPtr child, ExecContext* ctx,
                                     ExpandSpec spec, int64_t min, int64_t max)
    : Operator(nullptr, {}), ctx_(ctx), spec_(std::move(spec)), min_(min),
      max_(max) {
  child_ = std::move(child);
  schema_ = child_->schema();
  if (!spec_.rel_var.empty()) schema_.push_back(spec_.rel_var);
  if (spec_.to_col < 0) schema_.push_back(spec_.to_var);
  bound_props_ =
      BoundPropMap::Bind(spec_.rel_props, child_->schema(), &ctx_->binds);
}

Status VarLengthExpandOp::Open() {
  input_.Clear();
  pending_size_ = 0;
  pos_in_pending_ = 0;
  ResolveTypeIds(*ctx_->graph, &spec_);
  ctx_->EnsureBindings();
  return child_->Open();
}

ValueList& VarLengthExpandOp::NextPendingSlot() {
  if (pending_size_ < pending_.size()) {
    ValueList& slot = pending_[pending_size_++];
    slot.clear();
    return slot;
  }
  pending_.emplace_back();
  ++pending_size_;
  return pending_.back();
}

Status VarLengthExpandOp::ExpandBatch() {
  const PropertyGraph& g = *ctx_->graph;
  pending_size_ = 0;
  size_t n = input_.size();

  // Per-row lazily-hoisted relationship property constraint values.
  std::vector<LazyPropWants> wants(bound_props_.empty() ? 0 : n);

  auto emit = [&](uint32_t row_idx, NodeId target, const RelId* path,
                  size_t path_len) {
    const ValueList& in = input_.row(row_idx);
    if (spec_.to_col >= 0) {
      const Value& want = in[spec_.to_col];
      if (!want.is_node() || !(want.AsNode() == target)) return;
    }
    ValueList& row = NextPendingSlot();
    row.reserve(in.size() + 2);
    row.assign(in.begin(), in.end());
    if (!spec_.rel_var.empty()) {
      ValueList list;
      list.reserve(path_len);
      for (size_t k = 0; k < path_len; ++k) {
        list.push_back(Value::Relationship(path[k]));
      }
      row.push_back(Value::MakeList(std::move(list)));
    }
    if (spec_.to_col < 0) row.push_back(Value::Node(target));
  };

  // One frontier entry per in-flight path. Each level's paths live in
  // one flat pooled arena with stride = level length (level-synchronous
  // BFS keeps them uniform): extending appends prefix + new relationship
  // to the next level's arena — amortized chunk growth instead of a
  // vector allocation per extension — and the trail-uniqueness scan
  // stays a linear pass over contiguous memory (parent-linked path
  // sharing measures slower at depth: pointer-chasing latency on every
  // uniqueness probe).
  frontier_.clear();
  cur_paths_.clear();
  for (uint32_t i = 0; i < n; ++i) {
    const ValueList& in = input_.row(i);
    const Value& from_v = in[spec_.from_col];
    if (!from_v.is_node() || !g.IsNodeAlive(from_v.AsNode())) continue;
    NodeId from = from_v.AsNode();
    if (min_ == 0) emit(i, from, nullptr, 0);
    if (max_ >= 1) frontier_.push_back({i, from});
  }

  // Level-synchronous BFS over the whole morsel: every depth in
  // [max(1,min), max] produces its own rows (rigid refinements), and the
  // relationship-isomorphism rule (no rel reused within one path, nor
  // against the clause's uniqueness columns) keeps enumeration finite.
  for (int64_t depth = 1; depth <= max_ && !frontier_.empty(); ++depth) {
    next_frontier_.clear();
    next_paths_.clear();
    // Entry e's path in this level's arena (stride = depth - 1).
    const size_t stride = static_cast<size_t>(depth - 1);
    for (size_t ei = 0; ei < frontier_.size(); ++ei) {
      const FrontierEntry& e = frontier_[ei];
      const RelId* path = cur_paths_.data() + ei * stride;
      const ValueList& in = input_.row(e.row);
      auto consider = [&](const AdjEntry& adj, bool from_out) -> Status {
        const RelId r = adj.rel;
        if (!TypeOk(spec_, adj.type)) return Status::OK();
        // Within-path uniqueness plus clause-level uniqueness columns.
        if (ctx_->match.morphism != Morphism::kHomomorphism) {
          for (size_t k = 0; k < stride; ++k) {
            if (path[k] == r) return Status::OK();
          }
          if (RelAlreadyUsed(r, in, spec_.uniqueness_cols)) {
            return Status::OK();
          }
        }
        if (!bound_props_.empty()) {
          GQL_ASSIGN_OR_RETURN(bool props_ok,
                               wants[e.row].Ok(*ctx_, bound_props_, in, r));
          if (!props_ok) return Status::OK();
        }
        // A self-loop is in both halves; undirected traversal takes it
        // from the outgoing half only.
        if (!from_out && spec_.direction == ast::Direction::kBoth &&
            adj.other == e.node) {
          return Status::OK();
        }
        const NodeId next = adj.other;
        // Materialize the extension at the next arena's tail; keep it
        // only if it seeds the next level.
        size_t base = next_paths_.size();
        if (stride > 0) {  // depth 1 has a null arena; 0-len insert is UB
          next_paths_.insert(next_paths_.end(), path, path + stride);
        }
        next_paths_.push_back(r);
        if (depth >= min_) {
          emit(e.row, next, next_paths_.data() + base, stride + 1);
        }
        if (depth < max_) {
          next_frontier_.push_back({e.row, next});
        } else {
          next_paths_.resize(base);
        }
        return Status::OK();
      };
      if (spec_.direction != ast::Direction::kLeft) {
        for (const AdjEntry& adj : g.OutRels(e.node)) {
          GQL_RETURN_IF_ERROR(consider(adj, true));
        }
      }
      if (spec_.direction != ast::Direction::kRight) {
        for (const AdjEntry& adj : g.InRels(e.node)) {
          GQL_RETURN_IF_ERROR(consider(adj, false));
        }
      }
    }
    frontier_.swap(next_frontier_);
    cur_paths_.swap(next_paths_);
  }
  return Status::OK();
}

Result<bool> VarLengthExpandOp::NextBatchImpl(RowBatch* out) {
  while (!out->full()) {
    if (pos_in_pending_ < pending_size_) {
      while (pos_in_pending_ < pending_size_ && !out->full()) {
        // Copy (don't move): both the pending slot and the out slot keep
        // their allocations for the next refill; the elements themselves
        // are O(1) to copy.
        out->AppendFrom(pending_[pos_in_pending_++]);
      }
      continue;
    }
    if (input_.capacity() != out->capacity()) input_ = RowBatch(out->capacity());
    GQL_ASSIGN_OR_RETURN(bool ok, child_->NextBatch(&input_));
    if (!ok) break;
    GQL_RETURN_IF_ERROR(ExpandBatch());
    pos_in_pending_ = 0;
  }
  return !out->empty();
}

std::string VarLengthExpandOp::Describe() const {
  std::string out = "VarLengthExpand(" + schema_[spec_.from_col] + "-";
  for (size_t i = 0; i < spec_.types.size(); ++i) {
    out += (i ? "|" : ":") + spec_.types[i];
  }
  out += "*" + std::to_string(min_) + ".." + std::to_string(max_) + "->";
  out += spec_.to_col >= 0 ? schema_[spec_.to_col] : spec_.to_var;
  return out + ")";
}

// ---- FilterOp ---------------------------------------------------------------

FilterOp::FilterOp(OperatorPtr child, ExecContext* ctx, const ast::Expr* pred)
    : Operator(nullptr, {}), ctx_(ctx) {
  child_ = std::move(child);
  schema_ = child_->schema();
  pred_ = BoundExpr::Bind(*pred, BindScope{&schema_}, &ctx_->binds);
}

Status FilterOp::Open() {
  ctx_->EnsureBindings();
  return child_->Open();
}

Result<bool> FilterOp::NextBatchImpl(RowBatch* out) {
  while (true) {
    GQL_ASSIGN_OR_RETURN(bool ok, child_->NextBatch(out));
    if (!ok) return false;
    keep_.clear();
    for (uint32_t i = 0; i < out->size(); ++i) {
      GQL_ASSIGN_OR_RETURN(
          Tri keep, pred_.EvalPredicate(BoundRow{&out->row(i)}, ctx_->eval));
      if (keep == Tri::kTrue) keep_.push_back(i);
    }
    if (keep_.empty()) continue;  // whole morsel filtered out; pull more
    if (keep_.size() < out->size()) out->Select(keep_);
    return true;
  }
}

std::string FilterOp::Describe() const { return "Filter"; }

// ---- ApplyOp ----------------------------------------------------------------

ApplyOp::ApplyOp(OperatorPtr child, OperatorPtr inner, ArgumentOp* argument,
                 bool optional, std::vector<std::string> schema)
    : Operator(nullptr, std::move(schema)),
      inner_(std::move(inner)),
      argument_(argument),
      optional_(optional) {
  child_ = std::move(child);
}

Status ApplyOp::Open() {
  input_.Reset();
  inner_open_ = false;
  return child_->Open();
}

Result<bool> ApplyOp::NextBatchImpl(RowBatch* out) {
  // Streams the inner pipeline's morsels straight through (no
  // re-buffering): each return carries one inner morsel of the current
  // driving row. Morsels from an Apply may therefore run smaller than
  // the configured capacity — the batch contract only requires >= 1 row.
  while (true) {
    GQL_ASSIGN_OR_RETURN(const ValueList* in,
                         input_.Current(child_.get(), out->capacity()));
    if (in == nullptr) return false;
    if (!inner_open_) {
      // One-row correlation: the Argument leaf replays this driving row.
      argument_->BindRow(in);
      GQL_RETURN_IF_ERROR(inner_->Open());
      inner_open_ = true;
      inner_matched_ = false;
    }
    GQL_ASSIGN_OR_RETURN(bool ok, inner_->NextBatch(out));
    if (ok) {
      inner_matched_ = true;
      return true;
    }
    inner_open_ = false;
    input_.Advance();
    if (optional_ && !inner_matched_) {
      // OPTIONAL MATCH null-padding (Figure 7's rule).
      out->AppendFrom(*in).resize(schema_.size(), Value::Null());
      return true;
    }
  }
}

// ---- UnwindOp ---------------------------------------------------------------

UnwindOp::UnwindOp(OperatorPtr child, ExecContext* ctx, const ast::Expr* expr,
                   std::string var)
    : Operator(nullptr, {}), ctx_(ctx), var_(var) {
  child_ = std::move(child);
  schema_ = Extend(child_->schema(), {var});
  expr_ = BoundExpr::Bind(*expr, BindScope{&child_->schema()}, &ctx_->binds);
}

Status UnwindOp::Open() {
  input_.Reset();
  row_ready_ = false;
  ctx_->EnsureBindings();
  return child_->Open();
}

Result<bool> UnwindOp::NextBatchImpl(RowBatch* out) {
  while (!out->full()) {
    GQL_ASSIGN_OR_RETURN(const ValueList* in,
                         input_.Current(child_.get(), out->capacity()));
    if (in == nullptr) break;
    if (!row_ready_) {
      GQL_ASSIGN_OR_RETURN(Value v, expr_.Eval(BoundRow{in}, ctx_->eval));
      item_pos_ = 0;
      single_pending_ = false;
      if (v.is_list()) {
        items_ = std::move(v);  // share the payload; no element copies
      } else {
        static const Value kSharedEmptyList = Value::EmptyList();
        items_ = kSharedEmptyList;  // refcount bump, no allocation
        single_pending_ = true;
        single_value_ = std::move(v);
      }
      row_ready_ = true;
    }
    if (single_pending_) {
      single_pending_ = false;
      out->AppendFrom(*in).push_back(single_value_);
    }
    const ValueList& items = items_.AsList();
    while (item_pos_ < items.size() && !out->full()) {
      out->AppendFrom(*in).push_back(items[item_pos_++]);
    }
    if (!single_pending_ && item_pos_ >= items.size()) {
      input_.Advance();
      row_ready_ = false;
    }
  }
  return !out->empty();
}

// ---- ProjectionOp -----------------------------------------------------------

ProjectionOp::ProjectionOp(OperatorPtr child, ExecContext* ctx,
                           const ast::ProjectionBody* body,
                           const ast::Expr* where,
                           std::vector<std::string> schema)
    : Operator(nullptr, std::move(schema)),
      ctx_(ctx),
      proj_(BoundProjection::Bind(*body, child->schema(), where,
                                  &ctx->binds)) {
  child_ = std::move(child);
}

Result<Table> ProjectionOp::ProjectTable(const Table& input) const {
  return proj_.Evaluate(input, ctx_->eval);
}

void ProjectionOp::PreloadResult(Table result) {
  result_ = std::move(result);
  has_preloaded_ = true;
}

Status ProjectionOp::Open() {
  if (has_preloaded_) {
    // The parallel merge stages already produced this breaker's output
    // (projection, tail and WHERE included); stream it without touching
    // the child — the child's pipelines already ran, range by range, on
    // the workers. One-shot: a later Open() recomputes normally.
    has_preloaded_ = false;
    pos_ = 0;
    return Status::OK();
  }
  ctx_->EnsureBindings();
  GQL_RETURN_IF_ERROR(child_->Open());
  RowBatch batch(ctx_->batch_size);
  if (proj_.aggregates()) {
    // Aggregating projection: stream the child's morsels straight into
    // the aggregation state — the pre-aggregation table (often the whole
    // join) never materializes.
    AggregationState state = proj_.NewAggregation();
    while (true) {
      GQL_ASSIGN_OR_RETURN(bool ok, child_->NextBatch(&batch));
      if (!ok) break;
      for (size_t i = 0; i < batch.size(); ++i) {
        GQL_RETURN_IF_ERROR(state.AccumulateRow(batch.row(i), ctx_->eval));
      }
    }
    GQL_ASSIGN_OR_RETURN(Table grouped, state.Finish(ctx_->eval));
    GQL_ASSIGN_OR_RETURN(grouped,
                         proj_.Tail(std::move(grouped), nullptr, ctx_->eval));
    GQL_ASSIGN_OR_RETURN(result_,
                         proj_.FilterWhere(std::move(grouped), ctx_->eval));
  } else {
    GQL_ASSIGN_OR_RETURN(Table input, DrainPlan(child_.get(), &batch));
    GQL_ASSIGN_OR_RETURN(result_, ProjectTable(input));
  }
  pos_ = 0;
  return Status::OK();
}

Result<bool> ProjectionOp::NextBatchImpl(RowBatch* out) {
  // Streams the materialized result; rows move out (Open rebuilds).
  while (pos_ < result_.NumRows() && !out->full()) {
    out->Append(std::move(result_.mutable_rows()[pos_++]));
  }
  return !out->empty();
}

std::string ProjectionOp::Describe() const {
  const ast::ProjectionBody& body = proj_.body();
  std::string out = proj_.aggregates() ? "EagerAggregation(" : "Projection(";
  for (size_t i = 0; i < schema_.size(); ++i) {
    if (i) out += ", ";
    out += schema_[i];
  }
  if (body.distinct) out += " DISTINCT";
  if (!body.order_by.empty()) out += " ORDER BY";
  if (body.skip) out += " SKIP";
  if (body.limit) out += " LIMIT";
  return out + ")";
}

// ---- UnionOp ----------------------------------------------------------------

UnionOp::UnionOp(std::vector<OperatorPtr> parts, bool all,
                 std::vector<std::string> schema, size_t batch_size)
    : Operator(nullptr, std::move(schema)), parts_(std::move(parts)),
      all_(all), batch_size_(batch_size) {}

Status UnionOp::Open() {
  materialized_ = Table(schema_);
  for (auto& p : parts_) {
    GQL_RETURN_IF_ERROR(p->Open());
    RowBatch batch(batch_size_);
    GQL_ASSIGN_OR_RETURN(Table t, DrainPlan(p.get(), &batch));
    for (auto& r : t.mutable_rows()) {
      materialized_.AddRow(std::move(r));  // NextBatch moves them out again
    }
  }
  if (!all_) materialized_ = materialized_.Deduplicated();
  pos_ = 0;
  return Status::OK();
}

Result<bool> UnionOp::NextBatchImpl(RowBatch* out) {
  while (pos_ < materialized_.NumRows() && !out->full()) {
    out->Append(std::move(materialized_.mutable_rows()[pos_++]));
  }
  return !out->empty();
}

// ---- MatcherOp --------------------------------------------------------------

MatcherOp::MatcherOp(OperatorPtr child, const ExecContext* ctx,
                     const ast::Pattern* pattern,
                     std::vector<std::string> new_cols)
    : Operator(nullptr, {}), ctx_(ctx), pattern_(pattern),
      new_cols_(std::move(new_cols)) {
  child_ = std::move(child);
  schema_ = child_->schema();
  for (const auto& c : new_cols_) schema_.push_back(c);
  names_ = BindNames(PatternNames(*pattern_), BindScope{&child_->schema()});
}

Status MatcherOp::Open() {
  input_.Reset();
  row_ready_ = false;
  buffered_.clear();
  pos_ = 0;
  return child_->Open();
}

Result<bool> MatcherOp::NextBatchImpl(RowBatch* out) {
  while (!out->full()) {
    GQL_ASSIGN_OR_RETURN(const ValueList* in,
                         input_.Current(child_.get(), out->capacity()));
    if (in == nullptr) break;
    if (!row_ready_) {
      buffered_.clear();
      pos_ = 0;
      BoundRow bound_in{in};
      SlotEnvironment env(names_, bound_in);
      Status st = MatchPattern(*pattern_, *ctx_->graph, env, ctx_->eval,
                               ctx_->match, new_cols_,
                               [&](const BindingRow& b) -> Result<bool> {
                                 ValueList row = *in;
                                 for (const Value& v : b) row.push_back(v);
                                 buffered_.push_back(std::move(row));
                                 return true;
                               });
      GQL_RETURN_IF_ERROR(st);
      row_ready_ = true;
    }
    while (pos_ < buffered_.size() && !out->full()) {
      out->Append(std::move(buffered_[pos_++]));
    }
    if (pos_ >= buffered_.size()) {
      input_.Advance();
      row_ready_ = false;
    }
  }
  return !out->empty();
}

// ---- Helpers ----------------------------------------------------------------

void Operator::AbsorbCounters(const Operator& other) {
  rows_produced_ += other.rows_produced_;
  batches_produced_ += other.batches_produced_;
  std::vector<const Operator*> mine = children();
  std::vector<const Operator*> theirs = other.children();
  for (size_t i = 0; i < mine.size() && i < theirs.size(); ++i) {
    // children() exposes const views for EXPLAIN; the counters being
    // folded belong to this (mutable) tree.
    const_cast<Operator*>(mine[i])->AbsorbCounters(*theirs[i]);
  }
}

Result<Table> DrainPlan(Operator* root, RowBatch* batch, BatchStats* stats) {
  Table out(root->schema());
  while (true) {
    GQL_ASSIGN_OR_RETURN(bool ok, root->NextBatch(batch));
    if (!ok) break;
    if (stats != nullptr) {
      ++stats->batches;
      stats->rows += static_cast<int64_t>(batch->size());
    }
    out.AddBatch(batch);
  }
  return out;
}

namespace {

void ExplainRec(const Operator& op, int depth, bool with_rows,
                std::string* out) {
  out->append(static_cast<size_t>(depth) * 2, ' ');
  *out += "+ " + op.Describe();
  if (op.est_rows() >= 0) {
    // %.1f below 10 keeps sub-row selectivities visible; whole numbers
    // above.
    double est = op.est_rows();
    char buf[32];
    if (est < 10) {
      std::snprintf(buf, sizeof(buf), "%.1f", est);
    } else {
      std::snprintf(buf, sizeof(buf), "%.0f", est);
    }
    *out += "  (est. rows: " + std::string(buf) + ")";
  }
  if (with_rows) {
    *out += "  (rows: " + std::to_string(op.rows_produced()) +
            ", batches: " + std::to_string(op.batches_produced()) + ")";
  }
  *out += "\n";
  for (const Operator* c : op.children()) {
    if (c != nullptr) ExplainRec(*c, depth + 1, with_rows, out);
  }
}

}  // namespace

std::string ExplainPlan(const Operator& root) {
  std::string out;
  ExplainRec(root, 0, /*with_rows=*/false, &out);
  return out;
}

std::string ProfilePlan(const Operator& root) {
  std::string out;
  ExplainRec(root, 0, /*with_rows=*/true, &out);
  return out;
}

}  // namespace gqlite
