#ifndef GQLITE_EXEC_PARALLEL_H_
#define GQLITE_EXEC_PARALLEL_H_

#include <cstddef>
#include <string>

#include "src/common/sync.h"

#include "src/exec/worker_pool.h"
#include "src/plan/planner.h"

namespace gqlite {

/// Morsel-driven parallel execution of compiled plans (ROADMAP's "worker
/// pool stealing morsel boundaries"). The model:
///
///  * The planner builds one pipeline INSTANCE per worker (structurally
///    identical operator trees over the same AST — operators are
///    stateful single-use pipelines, so workers must not share them).
///  * The driving scan of each instance is morsel-partitioned: a shared
///    MorselDispatcher splits the scan domain (node slots / label-index
///    entries) into contiguous ranges that workers claim atomically —
///    work stealing falls out of the shared claim counter.
///  * Every instance's key/label/parameter tables are resolved once,
///    before dispatch (ResolvePlanBindings); workers then only read them.
///  * A worker binds its instance's scan to the claimed range, re-Opens
///    the pipeline, drains it, and buffers the result PER RANGE.
///  * The MERGE POINT is the lowest pipeline breaker on the projection
///    spine (a projection with aggregation / DISTINCT / ORDER BY / SKIP /
///    LIMIT), or the root projection when no breaker exists. Everything
///    below it distributes over the scan partition; everything above it
///    resumes serially on the merged output (ProjectionOp::PreloadResult),
///    so an intermediate WITH breaker no longer forces the whole plan
///    serial.
///  * The merge itself parallelizes per breaker kind, on the same pool
///    (WorkerPool::RunTasks), always reproducing the serial output
///    byte-for-byte:
///      - ORDER BY: per-range local sorts ordered by (keys, range, row) —
///        a STRICT total order, so the tree-structured pairwise run merge
///        is shape-independent and reproduces std::stable_sort exactly;
///        SKIP/LIMIT push a top-K bound into the local sorts (bounded
///        std::partial_sort) and merges.
///      - keyed aggregation: rows hash-partition on their group key
///        (RowHash — the group index's own equivalence-consistent hash),
///        so the merge becomes independent per-partition MergeFrom chains;
///        GroupStamps recorded at group creation let the final interleave
///        restore serial first-occurrence group order. Keyless
///        aggregation keeps the direct-fold chain (single group, O(1) per
///        partial).
///      - DISTINCT: the same key-partitioning over whole rows gives
///        independent per-partition seen-sets; survivors interleave back
///        by (range, row), keeping the serial first occurrence.
///    One DELIBERATE semantic edge survives from the partial-aggregation
///    model: sum() over int64 adds in chunks, so a serial run whose
///    running sum overflows mid-stream (while the true total is
///    representable) can raise where the chunked run returns the total.
///    Cypher leaves accumulation order unspecified; the strict guarantee
///    kept is one-sided — any overflow the MERGE itself produces still
///    raises EvaluationError, never wraps.
///
/// Plans qualify when every operator below the merge point distributes
/// over a partition of the driving scan (per-row operators: Expand,
/// Filter, Unwind, Apply, simple WITH) and the query calls no
/// nondeterministic function (rand() mutates engine-shared PRNG state).
/// Everything else — UNION, OPTIONAL MATCH at the driving position,
/// matcher-fallback driving patterns, updating queries
/// (interpreter-only) — stays on the serial runtime.

/// One contiguous chunk of a partitioned scan domain.
struct ScanMorsel {
  size_t index = 0;  // position in range order (deterministic merge key)
  size_t begin = 0;
  size_t end = 0;
};

/// Splits `domain` positions into ceil(domain/chunk) contiguous morsels
/// claimed atomically by workers. Thread-safe; claim order is first-come.
class MorselDispatcher {
 public:
  MorselDispatcher(size_t domain, size_t chunk)
      : domain_(domain), chunk_(chunk == 0 ? 1 : chunk) {
    count_ = domain_ == 0 ? 0 : (domain_ + chunk_ - 1) / chunk_;
  }

  /// Claims the next morsel; false once the domain is exhausted.
  bool Next(ScanMorsel* out) {
    size_t i = next_.FetchAdd(1);
    if (i >= count_) return false;
    out->index = i;
    out->begin = i * chunk_;
    out->end = out->begin + chunk_ < domain_ ? out->begin + chunk_ : domain_;
    return true;
  }

  size_t num_morsels() const { return count_; }
  size_t chunk() const { return chunk_; }

 private:
  size_t domain_;
  size_t chunk_;
  size_t count_;
  /// The shared claim counter — work stealing falls out of FetchAdd.
  AtomicCounter next_;
};

/// Scan-range chunk for `domain` positions across `workers` workers:
/// roughly eight morsels per worker (steal granularity) with a floor that
/// keeps tiny domains from paying a pipeline re-Open per handful of
/// nodes.
size_t MorselChunk(size_t domain, size_t workers);

/// Result of analyzing one compiled operator tree for parallel
/// execution: the merge-point projection (the lowest pipeline breaker on
/// the projection spine, or the root) and the partitioned driving scan,
/// or the reason the plan stays serial.
struct ParallelCandidate {
  bool ok = false;
  std::string reason;
  ProjectionOp* projection = nullptr;
  PartitionedScan* scan = nullptr;
  /// Human-readable merge-stage shape ("parallel merge sort",
  /// "partitioned aggregation merge", ...) for EXPLAIN/PROFILE.
  std::string merge_shape;
  /// True when the merge point is an intermediate WITH (operators above
  /// it resume serially on the merged output).
  bool merge_below_root = false;
};
ParallelCandidate AnalyzeParallelCandidate(Operator* root);

/// True if any expression in the query calls rand() — which both mutates
/// engine-shared PRNG state (a data race across workers) and makes
/// results depend on evaluation order.
bool QueryCallsNondeterministicFunction(const ast::Query& q);

/// Per-execution counters surfaced through PROFILE and gqlsh :stats.
struct ParallelRunStats {
  size_t workers = 0;
  size_t morsels = 0;
  /// Merge-stage tasks submitted to the pool (pairwise run merges,
  /// per-partition aggregation/DISTINCT merges, chunk sorts).
  size_t merge_tasks = 0;
  /// Which parallel merge stages this execution ran.
  bool sort_merge = false;
  bool partitioned_agg = false;
  bool partitioned_distinct = false;
};

/// Executes a parallel-safe plan (Plan::parallel.safe) on `pool` (workers
/// = pool->size() + 1 including the calling thread; the plan must carry
/// at least that many instances is NOT required — extra pool threads
/// idle, extra instances go unused). `stats` accumulates rows/batches
/// drained across all workers.
Result<Table> ExecutePlanParallel(Plan* plan, WorkerPool* pool,
                                  size_t batch_size,
                                  BatchStats* stats = nullptr,
                                  ParallelRunStats* pstats = nullptr);

}  // namespace gqlite

#endif  // GQLITE_EXEC_PARALLEL_H_
