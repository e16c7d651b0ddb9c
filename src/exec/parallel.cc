#include "src/exec/parallel.h"

#include <algorithm>
#include <cstdint>
#include <memory>
#include <optional>
#include <unordered_set>
#include <utility>
#include <vector>

#include "src/frontend/analyzer.h"
#include "src/interp/projection.h"
#include "src/plan/runtime.h"
#include "src/value/value_compare.h"

namespace gqlite {

namespace {

using ast::Expr;

bool ExprNondet(const Expr& e);

bool PatternNondet(const ast::Pattern& p) {
  for (const auto& path : p.paths) {
    for (const auto& [k, v] : path.start.properties) {
      if (ExprNondet(*v)) return true;
    }
    for (const auto& hop : path.hops) {
      for (const auto& [k, v] : hop.rel.properties) {
        if (ExprNondet(*v)) return true;
      }
      for (const auto& [k, v] : hop.node.properties) {
        if (ExprNondet(*v)) return true;
      }
    }
  }
  return false;
}

/// Does the expression call rand()? (The parser lower-cases function
/// names.) Mirrors ContainsAggregate's traversal, plus pattern
/// predicates, whose property expressions ContainsAggregate need not
/// visit.
bool ExprNondet(const Expr& e) {
  switch (e.kind) {
    case Expr::Kind::kFunctionCall: {
      const auto& f = static_cast<const ast::FunctionCallExpr&>(e);
      if (f.name == "rand") return true;
      for (const auto& a : f.args) {
        if (ExprNondet(*a)) return true;
      }
      return false;
    }
    case Expr::Kind::kProperty:
      return ExprNondet(*static_cast<const ast::PropertyExpr&>(e).object);
    case Expr::Kind::kLabelCheck:
      return ExprNondet(*static_cast<const ast::LabelCheckExpr&>(e).object);
    case Expr::Kind::kListLiteral: {
      for (const auto& i : static_cast<const ast::ListLiteralExpr&>(e).items) {
        if (ExprNondet(*i)) return true;
      }
      return false;
    }
    case Expr::Kind::kMapLiteral: {
      for (const auto& [k, v] :
           static_cast<const ast::MapLiteralExpr&>(e).entries) {
        if (ExprNondet(*v)) return true;
      }
      return false;
    }
    case Expr::Kind::kBinary: {
      const auto& b = static_cast<const ast::BinaryExpr&>(e);
      return ExprNondet(*b.lhs) || ExprNondet(*b.rhs);
    }
    case Expr::Kind::kUnary:
      return ExprNondet(*static_cast<const ast::UnaryExpr&>(e).operand);
    case Expr::Kind::kIndex: {
      const auto& i = static_cast<const ast::IndexExpr&>(e);
      return ExprNondet(*i.object) || ExprNondet(*i.index);
    }
    case Expr::Kind::kSlice: {
      const auto& s = static_cast<const ast::SliceExpr&>(e);
      if (ExprNondet(*s.object)) return true;
      if (s.from && ExprNondet(*s.from)) return true;
      if (s.to && ExprNondet(*s.to)) return true;
      return false;
    }
    case Expr::Kind::kCase: {
      const auto& c = static_cast<const ast::CaseExpr&>(e);
      if (c.operand && ExprNondet(*c.operand)) return true;
      for (const auto& [w, t] : c.whens) {
        if (ExprNondet(*w) || ExprNondet(*t)) return true;
      }
      if (c.otherwise && ExprNondet(*c.otherwise)) return true;
      return false;
    }
    case Expr::Kind::kListComprehension: {
      const auto& c = static_cast<const ast::ListComprehensionExpr&>(e);
      if (ExprNondet(*c.list)) return true;
      if (c.where && ExprNondet(*c.where)) return true;
      if (c.project && ExprNondet(*c.project)) return true;
      return false;
    }
    case Expr::Kind::kQuantifier: {
      const auto& q = static_cast<const ast::QuantifierExpr&>(e);
      return ExprNondet(*q.list) || ExprNondet(*q.where);
    }
    case Expr::Kind::kReduce: {
      const auto& r = static_cast<const ast::ReduceExpr&>(e);
      return ExprNondet(*r.init) || ExprNondet(*r.list) ||
             ExprNondet(*r.body);
    }
    case Expr::Kind::kPatternPredicate:
      return PatternNondet(
          static_cast<const ast::PatternPredicateExpr&>(e).pattern);
    case Expr::Kind::kLiteral:
    case Expr::Kind::kVariable:
    case Expr::Kind::kParameter:
    case Expr::Kind::kCountStar:
      return false;  // leaves
  }
  // A kind this walk does not know cannot be proven deterministic —
  // treat it as nondeterministic so a future Expr addition fails SAFE
  // (serial fallback) instead of racing on shared PRNG state.
  return true;
}

bool BodyNondet(const ast::ProjectionBody& body) {
  for (const auto& item : body.items) {
    if (ExprNondet(*item.expr)) return true;
  }
  for (const auto& o : body.order_by) {
    if (ExprNondet(*o.expr)) return true;
  }
  if (body.skip && ExprNondet(*body.skip)) return true;
  if (body.limit && ExprNondet(*body.limit)) return true;
  return false;
}

/// True when `op` (a non-root operator) distributes over a partition of
/// the driving scan: running it per partition and concatenating results
/// in partition order equals the serial run. Fills `why` otherwise.
bool Distributive(const Operator* op, std::string* why) {
  if (op == nullptr) return true;
  if (auto* p = dynamic_cast<const ProjectionOp*>(op)) {
    const ast::ProjectionBody& b = *p->body();
    const char* blocker = nullptr;
    if (ProjectionAggregates(b)) {
      blocker = "aggregation";
    } else if (b.distinct) {
      blocker = "DISTINCT";
    } else if (!b.order_by.empty()) {
      // A per-partition sort reorders rows the final SKIP/LIMIT (or a
      // downstream non-commutative step) could observe; keep it serial.
      blocker = "ORDER BY";
    } else if (b.skip != nullptr) {
      blocker = "SKIP";
    } else if (b.limit != nullptr) {
      blocker = "LIMIT";
    }
    if (blocker != nullptr) {
      *why = std::string("intermediate WITH ") + blocker +
             " is a serial pipeline breaker";
      return false;
    }
  } else if (dynamic_cast<const UnionOp*>(op) != nullptr) {
    *why = "UNION materializes whole sub-plans";
    return false;
  } else if (dynamic_cast<const ArgumentOp*>(op) == nullptr &&
             dynamic_cast<const AllNodesScanOp*>(op) == nullptr &&
             dynamic_cast<const NodeByLabelScanOp*>(op) == nullptr &&
             dynamic_cast<const ExpandOp*>(op) == nullptr &&
             dynamic_cast<const HashJoinExpandOp*>(op) == nullptr &&
             dynamic_cast<const VarLengthExpandOp*>(op) == nullptr &&
             dynamic_cast<const FilterOp*>(op) == nullptr &&
             dynamic_cast<const ApplyOp*>(op) == nullptr &&
             dynamic_cast<const UnwindOp*>(op) == nullptr &&
             dynamic_cast<const MatcherOp*>(op) == nullptr) {
    // Unknown operator kinds are conservatively serial.
    *why = "operator " + op->Describe() + " is not parallel-safe";
    return false;
  }
  for (const Operator* ch : op->children()) {
    if (!Distributive(ch, why)) return false;
  }
  return true;
}

/// True when the body is a pipeline breaker whose tail the merge stage
/// must own (aggregation / DISTINCT / ORDER BY / SKIP / LIMIT).
bool BodyBreaks(const ast::ProjectionBody& b) {
  return ProjectionAggregates(b) || b.distinct || !b.order_by.empty() ||
         b.skip != nullptr || b.limit != nullptr;
}

/// Mirrors AggregationState::has_keys() (any non-aggregating item,
/// `*`-expanded input fields included) for the EXPLAIN shape string.
bool AggBodyHasKeys(const ast::ProjectionBody& b) {
  if (b.star) return true;
  for (const auto& item : b.items) {
    if (!ContainsAggregate(*item.expr)) return true;
  }
  return false;
}

std::string MergeShape(const ast::ProjectionBody& b) {
  if (ProjectionAggregates(b)) {
    return AggBodyHasKeys(b) ? "partitioned aggregation merge"
                             : "global aggregation fold";
  }
  if (b.distinct) {
    return b.order_by.empty() ? "partitioned DISTINCT merge"
                              : "partitioned DISTINCT + parallel merge sort";
  }
  if (!b.order_by.empty()) return "parallel merge sort";
  return "concat merge";
}

/// One projected row in a sorted run: its ORDER BY key row plus the
/// (range, row-within-range) sequence that breaks ties on original scan
/// order. The tie-break makes the comparator a STRICT total order, so
/// every merge-tree shape — and top-K truncation — reproduces the serial
/// std::stable_sort byte-for-byte.
struct SortRow {
  ValueList row;
  ValueList keys;
  uint64_t range = 0;
  uint64_t idx = 0;
};
using SortedRun = std::vector<SortRow>;

bool SortRowLess(const BoundProjection& proj, const SortRow& a,
                 const SortRow& b) {
  int c = proj.Compare(a.row, a.keys, b.row, b.keys);
  if (c != 0) return c < 0;
  return a.range != b.range ? a.range < b.range : a.idx < b.idx;
}

/// Two-way merge of sorted runs, truncated to the first `topk` rows
/// (UINT64_MAX = unbounded).
SortedRun MergeSortedRuns(const BoundProjection& proj, SortedRun a,
                          SortedRun b, uint64_t topk) {
  SortedRun out;
  uint64_t total = a.size() + b.size();
  out.reserve(static_cast<size_t>(total < topk ? total : topk));
  size_t i = 0;
  size_t j = 0;
  while ((i < a.size() || j < b.size()) && out.size() < topk) {
    bool take_a =
        j >= b.size() || (i < a.size() && SortRowLess(proj, a[i], b[j]));
    out.push_back(std::move(take_a ? a[i++] : b[j++]));
  }
  return out;
}

/// Tree-structured pairwise merge on the pool, leaving one run. The
/// pairing is deterministic, but under the strict total order ANY tree
/// shape yields identical output — the determinism is belt-and-braces.
Status TreeMergeRuns(WorkerPool* pool, const BoundProjection& proj,
                     std::vector<SortedRun>* runs, uint64_t topk,
                     size_t* merge_tasks) {
  while (runs->size() > 1) {
    std::vector<SortedRun>& rs = *runs;
    size_t pairs = rs.size() / 2;
    std::vector<SortedRun> next(pairs + rs.size() % 2);
    GQL_RETURN_IF_ERROR(pool->RunTasks(pairs, [&](size_t t) -> Status {
      next[t] = MergeSortedRuns(proj, std::move(rs[2 * t]),
                                std::move(rs[2 * t + 1]), topk);
      return Status::OK();
    }));
    if (rs.size() % 2 != 0) next[pairs] = std::move(rs.back());
    *merge_tasks += pairs;
    *runs = std::move(next);
  }
  return Status::OK();
}

/// Global (range, row-within-range) position of a projected row — the
/// interleave key that restores serial first-occurrence order after the
/// partitioned DISTINCT.
struct RowSeq {
  uint64_t range = 0;
  uint64_t idx = 0;
};
bool SeqLess(RowSeq a, RowSeq b) {
  return a.range != b.range ? a.range < b.range : a.idx < b.idx;
}

/// Seen-set over pointers into the per-range projected tables (the rows
/// stay owned by their tables; the set stores no copies). Same
/// hash/equivalence pair as Table::Deduplicated.
struct RowPtrHash {
  size_t operator()(const ValueList* r) const { return RowHash(*r); }
};
struct RowPtrEq {
  bool operator()(const ValueList* a, const ValueList* b) const {
    return RowEquivalent(*a, *b);
  }
};

/// The serial tail's SKIP/LIMIT slice (the merge stages sort/dedup
/// themselves, then slice and WHERE-filter exactly like
/// BoundProjection::Tail + FilterWhere).
Result<Table> SliceSkipLimit(const BoundProjection& proj, Table t,
                             const EvalContext& ctx) {
  if (proj.body().skip == nullptr && proj.body().limit == nullptr) return t;
  GQL_ASSIGN_OR_RETURN(SkipLimitBounds b, proj.SkipLimit(ctx));
  return SliceRows(std::move(t), b);
}

/// Sorts a run under SortRowLess and keeps its first `topk` rows.
void SortRun(const BoundProjection& proj, SortedRun* run, uint64_t topk) {
  SortTopK(run, topk, [&proj](const SortRow& a, const SortRow& b) {
    return SortRowLess(proj, a, b);
  });
}

}  // namespace

size_t MorselChunk(size_t domain, size_t workers) {
  // ~8 morsels per worker gives the claim counter something to steal
  // while bounding the per-range buffer count; the floor keeps tiny
  // domains from paying a pipeline re-Open per handful of positions.
  constexpr size_t kMinChunk = 16;
  if (workers == 0) workers = 1;
  size_t chunk = domain / (workers * 8);
  return chunk < kMinChunk ? kMinChunk : chunk;
}

ParallelCandidate AnalyzeParallelCandidate(Operator* root) {
  ParallelCandidate c;
  auto* proj = dynamic_cast<ProjectionOp*>(root);
  if (proj == nullptr) {
    c.reason = "plan root is not a projection (UNION runs serially)";
    return c;
  }
  // The merge point is the LOWEST pipeline breaker on the projection
  // spine (or the root when none breaks): everything below it must
  // distribute over the scan partition; everything above it — earlier
  // breakers included — resumes serially on the merged output. An
  // intermediate WITH with ORDER BY / DISTINCT / aggregation / SKIP /
  // LIMIT therefore no longer forces the whole plan serial.
  ProjectionOp* merge = proj;
  for (Operator* op = proj->child(); op != nullptr; op = op->child()) {
    if (auto* p = dynamic_cast<ProjectionOp*>(op)) {
      if (BodyBreaks(*p->body())) merge = p;
    }
  }
  if (!Distributive(merge->child(), &c.reason)) return c;

  // The driving pipeline: descend the child() chain to the unit-table
  // Argument leaf; the Apply directly above it correlates the first
  // MATCH, and the bottom of ITS inner pipeline is the scan to
  // partition.
  Operator* prev = nullptr;
  Operator* cur = merge->child();
  if (cur == nullptr) {
    c.reason = "projection has no input pipeline";
    return c;
  }
  while (cur->child() != nullptr) {
    prev = cur;
    cur = cur->child();
  }
  auto* leaf = dynamic_cast<ArgumentOp*>(cur);
  if (leaf == nullptr || !leaf->has_table_source()) {
    c.reason = "pipeline does not bottom out at the unit table";
    return c;
  }
  auto* drive = dynamic_cast<ApplyOp*>(prev);
  if (drive == nullptr) {
    c.reason = "no MATCH drives the plan (nothing to partition)";
    return c;
  }
  if (drive->optional()) {
    // OPTIONAL MATCH null-pads when the WHOLE scan finds nothing; a
    // partition that happens to be empty must not pad on its own.
    c.reason = "OPTIONAL MATCH drives the plan";
    return c;
  }
  // The DEEPEST partitionable scan of the driving pipeline anchors the
  // partition (variable-free filters may sit between it and the Argument
  // leaf; scans of later cross-product paths sit above it and iterate
  // their full domain per partitioned row).
  PartitionedScan* scan = nullptr;
  for (Operator* op = drive->inner(); op != nullptr; op = op->child()) {
    if (auto* s = dynamic_cast<PartitionedScan*>(op)) scan = s;
  }
  if (scan == nullptr) {
    c.reason = "driving pattern does not start at a partitionable scan";
    return c;
  }
  c.ok = true;
  c.projection = merge;
  c.scan = scan;
  c.merge_below_root = merge != proj;
  c.merge_shape = MergeShape(*merge->body());
  if (c.merge_below_root) c.merge_shape += " at intermediate WITH";
  return c;
}

bool QueryCallsNondeterministicFunction(const ast::Query& q) {
  for (const auto& part : q.parts) {
    for (const auto& clause : part.clauses) {
      switch (clause->kind) {
        case ast::Clause::Kind::kMatch: {
          const auto& m = static_cast<const ast::MatchClause&>(*clause);
          if (PatternNondet(m.pattern)) return true;
          if (m.where && ExprNondet(*m.where)) return true;
          break;
        }
        case ast::Clause::Kind::kWith: {
          const auto& w = static_cast<const ast::WithClause&>(*clause);
          if (BodyNondet(w.body)) return true;
          if (w.where && ExprNondet(*w.where)) return true;
          break;
        }
        case ast::Clause::Kind::kReturn: {
          const auto& r = static_cast<const ast::ReturnClause&>(*clause);
          if (BodyNondet(r.body)) return true;
          break;
        }
        case ast::Clause::Kind::kUnwind: {
          const auto& u = static_cast<const ast::UnwindClause&>(*clause);
          if (ExprNondet(*u.expr)) return true;
          break;
        }
        default:
          // Updating clauses and RETURN GRAPH never reach the planner.
          break;
      }
    }
  }
  return false;
}

Result<Table> ExecutePlanParallel(Plan* plan, WorkerPool* pool,
                                  size_t batch_size, BatchStats* stats,
                                  ParallelRunStats* pstats) {
  const ParallelPlanInfo& par = plan->parallel;
  if (!par.safe || par.scans.empty() ||
      par.scans.size() != par.projections.size()) {
    return Status::Internal("plan is not prepared for parallel execution");
  }
  ResolvePlanBindings(plan);
  const size_t instances = par.scans.size();
  const size_t workers =
      instances < pool->size() + 1 ? instances : pool->size() + 1;

  const size_t domain = par.scans[0]->ScanDomainSize();
  MorselDispatcher dispatcher(domain, MorselChunk(domain, workers));
  const size_t num_morsels = dispatcher.num_morsels();

  ProjectionOp* merge_proj = par.projections[0];
  const BoundProjection& merge_bound = merge_proj->projection();
  const ast::ProjectionBody& body = merge_bound.body();
  const EvalContext& merge_eval = merge_proj->exec_context()->eval;

  // Resumes the serial plan above the merge point; a no-op when the
  // merge point IS the root (the merged table is the query result).
  auto finish_above = [&](Table merged) -> Result<Table> {
    if (plan->root.get() == merge_proj) return merged;
    merge_proj->PreloadResult(std::move(merged));
    GQL_RETURN_IF_ERROR(plan->root->Open());
    RowBatch batch(batch_size);
    return DrainPlan(plan->root.get(), &batch, stats);
  };

  if (num_morsels == 0) {
    // Empty scan domain: run the breaker serially over its empty input —
    // keyless aggregation still produces its neutral row this way.
    if (pstats != nullptr) pstats->workers = workers;
    GQL_ASSIGN_OR_RETURN(
        Table merged,
        merge_proj->ProjectTable(Table(merge_proj->child()->schema())));
    return finish_above(std::move(merged));
  }

  // Merge kinds, most specific first: keyed/keyless aggregation folds
  // partials (pre-aggregation rows never materialize centrally);
  // DISTINCT partitions rows by whole-row hash; a bare ORDER BY builds
  // per-range sorted runs; everything else (plain projection, bare
  // SKIP/LIMIT) concatenates raw child rows in range order — the serial
  // scan order — and runs the breaker once over them.
  const bool aggregates = merge_bound.aggregates();
  const bool distinct = !aggregates && body.distinct;
  const bool sort_only = !aggregates && !distinct && !body.order_by.empty();
  std::optional<AggregationState> proto;
  bool agg_keyed = false;
  if (aggregates) {
    // One shared plan (the bound Shape is immutable); workers Fork() it.
    proto.emplace(merge_bound.NewAggregation());
    agg_keyed = proto->has_keys();
  }
  const size_t partitions = workers;  // radix width of the keyed merges

  // SKIP/LIMIT under ORDER BY push a top-K bound into the local sorts
  // and run merges: rows past skip+limit can never surface, and the
  // strict total order makes truncation exact. The bounds are evaluated
  // up front, but an evaluation error DISABLES the bound instead of
  // raising here — the serial-tail slice below raises it at the same
  // point a serial run would (after ORDER BY key errors, which stage 1
  // surfaces first).
  uint64_t topk = UINT64_MAX;
  if (!body.order_by.empty() &&
      (body.skip != nullptr || body.limit != nullptr)) {
    topk = TopKBound(merge_bound.SkipLimit(merge_eval));
  }

  // Per-range buffers, one flavor per merge kind.
  const bool concat = !aggregates && !distinct && !sort_only;
  std::vector<Table> range_child(concat ? num_morsels : 0);
  std::vector<SortedRun> range_runs(sort_only ? num_morsels : 0);
  std::vector<Table> range_proj(distinct ? num_morsels : 0);
  // [range][partition] -> projected-row indices, in row order.
  std::vector<std::vector<std::vector<uint64_t>>> range_parts(
      distinct ? num_morsels : 0);
  std::vector<std::unique_ptr<AggregationState>> range_aggs(
      aggregates && !agg_keyed ? num_morsels : 0);
  std::vector<std::unique_ptr<PartitionedAggregationState>> range_pagg(
      aggregates && agg_keyed ? num_morsels : 0);

  std::vector<Status> range_status(num_morsels, Status::OK());
  std::vector<BatchStats> worker_stats(instances);

  auto work = [&](size_t w) -> Status {
    if (w >= instances) return Status::OK();
    ProjectionOp* wproj = par.projections[w];
    const BoundProjection& wbound = wproj->projection();
    Operator* root = wproj->child();
    PartitionedScan* scan = par.scans[w];
    const EvalContext& eval = wproj->exec_context()->eval;
    // One morsel buffer per worker, refilled range after range: its row
    // slots keep their allocations, so a range costs no per-row mallocs
    // beyond the rows it keeps.
    RowBatch batch(batch_size);
    ScanMorsel morsel;
    while (dispatcher.Next(&morsel)) {
      scan->SetScanRange(morsel.begin, morsel.end);
      auto run_range = [&]() -> Status {
        GQL_RETURN_IF_ERROR(root->Open());
        if (aggregates) {
          // Stream the range's morsels straight into the partial state:
          // the pre-aggregation rows never materialize, so a range's
          // working memory is one RowBatch, not its whole row count.
          // Every row stamps its global (range, row) position onto any
          // group it creates — the merge interleave's sort key.
          std::unique_ptr<AggregationState> st;
          std::unique_ptr<PartitionedAggregationState> pst;
          if (agg_keyed) {
            pst = std::make_unique<PartitionedAggregationState>(*proto,
                                                                partitions);
          } else {
            st = std::make_unique<AggregationState>(proto->Fork());
          }
          uint64_t row_in_range = 0;
          while (true) {
            GQL_ASSIGN_OR_RETURN(bool ok, root->NextBatch(&batch));
            if (!ok) break;
            ++worker_stats[w].batches;
            worker_stats[w].rows += static_cast<int64_t>(batch.size());
            for (size_t i = 0; i < batch.size(); ++i) {
              GroupStamp stamp{morsel.index, row_in_range++};
              if (agg_keyed) {
                GQL_RETURN_IF_ERROR(
                    pst->AccumulateRow(batch.row(i), eval, stamp));
              } else {
                GQL_RETURN_IF_ERROR(
                    st->AccumulateRow(batch.row(i), eval, stamp));
              }
            }
          }
          if (agg_keyed) {
            range_pagg[morsel.index] = std::move(pst);
          } else {
            range_aggs[morsel.index] = std::move(st);
          }
          return Status::OK();
        }
        GQL_ASSIGN_OR_RETURN(Table t,
                             DrainPlan(root, &batch, &worker_stats[w]));
        if (sort_only) {
          // Project and key in one pass, then the bounded local sort —
          // this range's contribution to the parallel merge sort.
          SortedRun run;
          run.reserve(t.NumRows());
          for (size_t i = 0; i < t.NumRows(); ++i) {
            ValueList keys;
            GQL_ASSIGN_OR_RETURN(ValueList out,
                                 wbound.MapRow(t.rows()[i], eval, &keys));
            run.push_back(
                SortRow{std::move(out), std::move(keys), morsel.index, i});
          }
          SortRun(wbound, &run, topk);
          range_runs[morsel.index] = std::move(run);
        } else if (distinct) {
          // Project, then pre-split the row indices by whole-row hash so
          // the dedup stage becomes `partitions` independent seen-sets.
          Table projected(wbound.out_fields());
          std::vector<std::vector<uint64_t>> parts(partitions);
          for (size_t i = 0; i < t.NumRows(); ++i) {
            GQL_ASSIGN_OR_RETURN(ValueList out,
                                 wbound.MapRow(t.rows()[i], eval, nullptr));
            parts[RowHash(out) % partitions].push_back(i);
            projected.AddRow(std::move(out));
          }
          range_parts[morsel.index] = std::move(parts);
          range_proj[morsel.index] = std::move(projected);
        } else {
          range_child[morsel.index] = std::move(t);
        }
        return Status::OK();
      };
      Status st = run_range();
      if (!st.ok()) {
        // Record per range and stop this worker; survivors drain the
        // dispatcher, and the merge stage reports the error of the
        // FIRST range in scan order — deterministic even though the
        // worker-to-range assignment is not.
        range_status[morsel.index] = std::move(st);
        break;
      }
    }
    scan->SetScanRange(0, SIZE_MAX);  // restore the serial default
    return Status::OK();
  };
  GQL_RETURN_IF_ERROR(pool->RunOnAll(work));

  if (stats != nullptr) {
    for (const BatchStats& ws : worker_stats) {
      stats->rows += ws.rows;
      stats->batches += ws.batches;
    }
  }
  size_t merge_tasks = 0;
  if (pstats != nullptr) {
    pstats->workers = workers;
    pstats->morsels = num_morsels;
    pstats->sort_merge = sort_only || (distinct && !body.order_by.empty());
    pstats->partitioned_agg = aggregates && agg_keyed;
    pstats->partitioned_distinct = distinct;
  }
  for (const Status& st : range_status) {
    GQL_RETURN_IF_ERROR(st);
  }

  // The merge stages. Each produces the merge projection's COMPLETE
  // output — tail and WHERE filter included — byte-identical to
  // merge_proj->ProjectTable over the concatenated ranges.
  auto compute_merged = [&]() -> Result<Table> {
    if (aggregates && agg_keyed) {
      // `partitions` independent MergeFrom chains (range order within
      // each) run as parallel tasks; the serial interleave on the
      // recorded stamps then restores serial first-occurrence group
      // order across partitions.
      std::vector<Table> part_tables(partitions);
      std::vector<std::vector<GroupStamp>> part_stamps(partitions);
      // Named local: the lambda's own GQL_ macros would shadow an
      // enclosing GQL_RETURN_IF_ERROR's temporary (-Wshadow).
      Status merge_status =
          pool->RunTasks(partitions, [&](size_t p) -> Status {
            AggregationState merged_p = std::move(range_pagg[0]->partition(p));
            for (size_t r = 1; r < num_morsels; ++r) {
              GQL_RETURN_IF_ERROR(
                  merged_p.MergeFrom(std::move(range_pagg[r]->partition(p))));
            }
            GQL_ASSIGN_OR_RETURN(part_tables[p],
                                 merged_p.Finish(merge_eval, &part_stamps[p]));
            return Status::OK();
          });
      GQL_RETURN_IF_ERROR(merge_status);
      merge_tasks += partitions;
      Table grouped(part_tables[0].fields());
      std::vector<size_t> pos(partitions, 0);
      while (true) {
        size_t best = partitions;
        for (size_t p = 0; p < partitions; ++p) {
          if (pos[p] >= part_stamps[p].size()) continue;
          if (best == partitions ||
              part_stamps[p][pos[p]] < part_stamps[best][pos[best]]) {
            best = p;
          }
        }
        if (best == partitions) break;
        grouped.AddRow(
            std::move(part_tables[best].mutable_rows()[pos[best]]));
        ++pos[best];
      }
      GQL_ASSIGN_OR_RETURN(
          Table tailed,
          merge_bound.Tail(std::move(grouped), nullptr, merge_eval));
      return merge_bound.FilterWhere(std::move(tailed), merge_eval);
    }

    if (aggregates) {
      // Keyless: a single group per range — the direct-fold chain is
      // O(1) per partial, so no partitioning is worth it.
      AggregationState merged = std::move(*range_aggs[0]);
      for (size_t r = 1; r < num_morsels; ++r) {
        GQL_RETURN_IF_ERROR(merged.MergeFrom(std::move(*range_aggs[r])));
      }
      GQL_ASSIGN_OR_RETURN(Table grouped, merged.Finish(merge_eval));
      GQL_ASSIGN_OR_RETURN(
          Table tailed,
          merge_bound.Tail(std::move(grouped), nullptr, merge_eval));
      return merge_bound.FilterWhere(std::move(tailed), merge_eval);
    }

    if (distinct) {
      // `partitions` independent seen-sets, each walking its share of
      // every range in (range, row) order; the serial interleave of the
      // survivors keeps the serial first occurrence of every distinct
      // row.
      std::vector<std::vector<RowSeq>> survivors(partitions);
      GQL_RETURN_IF_ERROR(
          pool->RunTasks(partitions, [&](size_t p) -> Status {
            std::unordered_set<const ValueList*, RowPtrHash, RowPtrEq> seen;
            for (size_t r = 0; r < num_morsels; ++r) {
              const Table& t = range_proj[r];
              for (uint64_t i : range_parts[r][p]) {
                if (seen.insert(&t.rows()[i]).second) {
                  survivors[p].push_back(RowSeq{r, i});
                }
              }
            }
            return Status::OK();
          }));
      merge_tasks += partitions;
      Table deduped(merge_bound.out_fields());
      std::vector<size_t> pos(partitions, 0);
      while (true) {
        size_t best = partitions;
        for (size_t p = 0; p < partitions; ++p) {
          if (pos[p] >= survivors[p].size()) continue;
          if (best == partitions ||
              SeqLess(survivors[p][pos[p]], survivors[best][pos[best]])) {
            best = p;
          }
        }
        if (best == partitions) break;
        RowSeq s = survivors[best][pos[best]++];
        deduped.AddRow(
            std::move(range_proj[s.range].mutable_rows()[s.idx]));
      }

      if (!body.order_by.empty()) {
        // ORDER BY after DISTINCT reuses the merge-sort machinery: key
        // and sort chunks of the deduped rows in parallel (the source
        // pairing is gone after DISTINCT, exactly as in the serial
        // tail), then tree-merge.
        size_t n = deduped.NumRows();
        size_t min_one = n == 0 ? 1 : n;
        size_t chunks = partitions < min_one ? partitions : min_one;
        size_t per = (n + chunks - 1) / chunks;
        std::vector<SortedRun> runs(chunks);
        GQL_RETURN_IF_ERROR(pool->RunTasks(chunks, [&](size_t c) -> Status {
          size_t lo = c * per;
          size_t hi = lo + per < n ? lo + per : n;
          SortedRun run;
          run.reserve(hi - lo);
          for (size_t i = lo; i < hi; ++i) {
            // Every chunk moves rows out of a disjoint index range of
            // `deduped`.
            ValueList& row = deduped.mutable_rows()[i];
            GQL_ASSIGN_OR_RETURN(
                ValueList keys,
                merge_bound.OrderKeys(row, nullptr, merge_eval));
            run.push_back(SortRow{std::move(row), std::move(keys), 0, i});
          }
          SortRun(merge_bound, &run, topk);
          runs[c] = std::move(run);
          return Status::OK();
        }));
        merge_tasks += chunks;
        GQL_RETURN_IF_ERROR(
            TreeMergeRuns(pool, merge_bound, &runs, topk, &merge_tasks));
        Table sorted(deduped.fields());
        for (SortRow& sr : runs[0]) sorted.AddRow(std::move(sr.row));
        deduped = std::move(sorted);
      }
      GQL_ASSIGN_OR_RETURN(Table sliced, SliceSkipLimit(merge_bound,
                                                        std::move(deduped),
                                                        merge_eval));
      return merge_bound.FilterWhere(std::move(sliced), merge_eval);
    }

    if (sort_only) {
      std::vector<SortedRun> runs = std::move(range_runs);
      GQL_RETURN_IF_ERROR(
          TreeMergeRuns(pool, merge_bound, &runs, topk, &merge_tasks));
      Table sorted(merge_bound.out_fields());
      for (SortRow& sr : runs[0]) sorted.AddRow(std::move(sr.row));
      GQL_ASSIGN_OR_RETURN(Table sliced, SliceSkipLimit(merge_bound,
                                                        std::move(sorted),
                                                        merge_eval));
      return merge_bound.FilterWhere(std::move(sliced), merge_eval);
    }

    Table merged(merge_proj->child()->schema());
    for (Table& t : range_child) {
      for (ValueList& row : t.mutable_rows()) {
        merged.AddRow(std::move(row));
      }
    }
    return merge_proj->ProjectTable(merged);
  };

  GQL_ASSIGN_OR_RETURN(Table merged, compute_merged());
  if (pstats != nullptr) pstats->merge_tasks = merge_tasks;
  return finish_above(std::move(merged));
}

}  // namespace gqlite
