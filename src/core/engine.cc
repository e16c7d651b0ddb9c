#include "src/core/engine.h"

#include <cstdlib>

#include "src/core/session.h"
#include "src/exec/parallel.h"
#include "src/exec/worker_pool.h"
#include "src/frontend/analyzer.h"
#include "src/frontend/canonicalize.h"
#include "src/frontend/parser.h"
#include "src/interp/interpreter.h"
#include "src/plan/runtime.h"
#include "src/storage/storage_engine.h"
#include "src/storage/wal_recorder.h"

namespace gqlite {

namespace {

/// Un-pins a plan-cache entry on scope exit, including error returns
/// mid-execution.
struct EntryReleaser {
  PlanCache* cache;
  PlanCache::EntryPtr entry;
  ~EntryReleaser() {
    if (entry != nullptr) cache->Release(entry);
  }
};

/// Applies the GQLITE_PLAN_MODE override: comma-separated tokens, each
/// setting the expand strategy or the direction policy. Strict by the
/// same rule as the numeric overrides — an unknown token is an error
/// naming the variable, not a silent default (a misspelled forced-plan
/// token would quietly test nothing).
Status ApplyPlanModeEnv(EngineOptions* options) {
  const char* env = std::getenv("GQLITE_PLAN_MODE");
  if (env == nullptr || env[0] == '\0') return Status::OK();
  std::string_view rest = env;
  bool more = true;
  while (more) {
    size_t comma = rest.find(',');
    std::string_view tok = rest.substr(0, comma);
    more = comma != std::string_view::npos;
    if (more) rest = rest.substr(comma + 1);
    if (tok == "adjacency") {
      options->expand_strategy = ExpandStrategy::kAdjacency;
    } else if (tok == "hashjoin") {
      options->expand_strategy = ExpandStrategy::kHashJoin;
    } else if (tok == "cost-expand") {
      options->expand_strategy = ExpandStrategy::kCost;
    } else if (tok == "force-right") {
      options->direction_policy = DirectionPolicy::kForceRight;
    } else if (tok == "force-left") {
      options->direction_policy = DirectionPolicy::kForceLeft;
    } else if (tok == "cost-direction") {
      options->direction_policy = DirectionPolicy::kCost;
    } else {
      return Status::InvalidArgument("GQLITE_PLAN_MODE: unknown token \"" +
                                     std::string(tok) + "\"");
    }
  }
  return Status::OK();
}

}  // namespace

Status CypherEngine::ApplyEnvOverrides(EngineOptions* options) {
  GQL_ASSIGN_OR_RETURN(options->batch_size,
                       EffectiveBatchSize(options->batch_size));
  GQL_ASSIGN_OR_RETURN(options->num_threads,
                       EffectiveNumThreads(options->num_threads));
  GQL_RETURN_IF_ERROR(ApplyPlanModeEnv(options));
  return Status::OK();
}

CypherEngine::CypherEngine(EngineOptions options)
    : options_(options),
      plan_cache_(options.plan_cache_capacity),
      rand_state_(options.rand_seed) {
  options_status_ = ApplyEnvOverrides(&options_);
  graph_ = catalog_.default_graph();
}

CypherEngine::~CypherEngine() {
  // The graph may outlive the engine (shared_ptr handed out via
  // graph_ptr()); never leave it pointing at the dying recorder.
  if (recorder_ != nullptr && graph_ != nullptr) {
    graph_->set_write_observer(nullptr);
  }
}
CypherEngine::CypherEngine(CypherEngine&&) noexcept = default;

Status CypherEngine::BindStorage(std::unique_ptr<StorageEngine> storage) {
  GQL_ASSIGN_OR_RETURN(std::shared_ptr<PropertyGraph> recovered,
                       storage->Recover());
  storage_ = std::move(storage);
  if (storage_->durable()) {
    recorder_ = std::make_unique<WalRecorder>(recovered.get());
    recovered->set_write_observer(recorder_.get());
  }
  catalog_.RegisterGraph(GraphCatalog::kDefaultGraphName, recovered);
  MutexLock lock(&txn_mu_);
  graph_ = std::move(recovered);
  committed_snapshot_ = nullptr;
  committed_src_ = nullptr;
  committed_version_ = 0;
  return Status::OK();
}

Status CypherEngine::Checkpoint() {
  if (storage_ == nullptr) return Status::OK();
  // Hold the writer slot across the whole checkpoint: an active write
  // transaction finishes first, new ones wait, and AcquireWriter has
  // already flushed any pending setup-API batch — so the pinned
  // committed snapshot matches "every WAL batch appended so far",
  // exactly what WriteCheckpoint claims.
  GQL_RETURN_IF_ERROR(AcquireWriter(/*wait=*/true).status());
  GraphPtr snapshot;
  {
    MutexLock lock(&txn_mu_);
    snapshot = ReadSnapshotLocked();
  }
  Status written = storage_->WriteCheckpoint(*snapshot);
  // Nothing was mutated, so releasing the slot cannot append a batch.
  Status released = CommitWriter();
  return written.ok() ? released : written;
}

Status CypherEngine::Close() {
  if (storage_ == nullptr) return Status::OK();
  Status flushed = Status::OK();
  if (recorder_ != nullptr) {
    // Taking the writer slot waits out in-flight writers and flushes any
    // pending setup-API batch; detach the recorder before releasing so
    // no op can slip in after the final append.
    Result<GraphPtr> live = AcquireWriter(/*wait=*/true);
    if (live.ok()) {
      (*live)->set_write_observer(nullptr);
      flushed = CommitWriter();
    } else {
      flushed = live.status();
    }
    recorder_.reset();
  }
  Status closed = storage_->Close();
  return flushed.ok() ? closed : flushed;
}

std::unique_ptr<Session> CypherEngine::CreateSession() {
  uint64_t ordinal;
  {
    MutexLock lock(&stats_mu_);
    ordinal = ++sessions_created_;
  }
  // Distinct substream per session: the engine seed advanced by a
  // per-session Weyl increment (the splitmix64 constant), then mixed so
  // nearby ordinals do not yield nearby rand() sequences. Deterministic
  // given the seed and session creation order.
  uint64_t seed = options_.rand_seed + ordinal * 0x9E3779B97F4A7C15ULL;
  seed ^= seed >> 30;
  seed *= 0xBF58476D1CE4E5B9ULL;
  seed ^= seed >> 27;
  return std::unique_ptr<Session>(new Session(this, seed));
}

WorkerPool* CypherEngine::EnsureWorkerPool() {
  MutexLock lock(&pool_mu_);
  size_t extra = options_.num_threads - 1;
  if (pool_ == nullptr || pool_->size() != extra) {
    pool_ = std::make_unique<WorkerPool>(extra);
  }
  return pool_.get();
}

void CypherEngine::FoldRunStats(const BatchStats& run,
                                const ParallelRunStats& prun) {
  MutexLock lock(&stats_mu_);
  exec_stats_.rows += run.rows;
  exec_stats_.batches += run.batches;
  if (prun.workers > 0) {
    ++parallel_stats_.queries;
    parallel_stats_.morsels += prun.morsels;
    parallel_stats_.merge_tasks += prun.merge_tasks;
    if (prun.sort_merge) ++parallel_stats_.sort_merges;
    if (prun.partitioned_agg) ++parallel_stats_.agg_merges;
    if (prun.partitioned_distinct) ++parallel_stats_.distinct_merges;
  }
}

void CypherEngine::RecordSerialFallback(const std::string& reason) {
  if (reason.empty()) return;
  MutexLock lock(&stats_mu_);
  ++parallel_stats_.serial_reasons[reason];
}

MatchOptions CypherEngine::MakeMatchOptions() const {
  MatchOptions m;
  m.morphism = options_.morphism;
  m.max_var_length = options_.max_var_length;
  return m;
}

PlannerOptions CypherEngine::MakePlannerOptions() const {
  PlannerOptions popts;
  popts.expand_strategy = options_.expand_strategy;
  popts.direction_policy = options_.direction_policy;
  popts.batch_size = options_.batch_size;
  popts.num_threads = options_.num_threads;
  popts.match = MakeMatchOptions();
  return popts;
}

std::string CypherEngine::OptionsFingerprint() const {
  // Every option that changes the compiled plan. The unit separator keeps
  // the suffix from colliding with query text.
  std::string f = "\x1f";
  f += 'm';
  f += std::to_string(static_cast<int>(options_.morphism));
  f += 'v';
  f += std::to_string(options_.max_var_length);
  f += 'x';
  f += std::to_string(static_cast<int>(options_.expand_strategy));
  f += 'd';
  f += std::to_string(static_cast<int>(options_.direction_policy));
  // Morsel size is baked into the plan's ExecContext (pipeline-breaker
  // drains), so it is part of the key.
  f += 'b';
  f += std::to_string(options_.batch_size);
  // Worker count is baked in as per-worker pipeline instances.
  f += 't';
  f += std::to_string(options_.num_threads);
  return f;
}

// ---- MVCC transaction core -------------------------------------------------

Status CypherEngine::set_default_graph(GraphPtr g) {
  if (recorder_ != nullptr) {
    // The durable default graph IS the recovered, WAL-backed store;
    // swapping it out from under the log would desynchronize recovery.
    return Status::InvalidArgument(
        "set_default_graph: a durable database owns its default graph; "
        "register additional graphs by name instead");
  }
  catalog_.RegisterGraph(GraphCatalog::kDefaultGraphName, g);
  MutexLock lock(&txn_mu_);
  graph_ = std::move(g);
  // Invalidate the committed snapshot: the next read snapshots the new
  // head. An active writer keeps the (old) head it pinned at begin;
  // writer_graph_ no longer matches graph_, so readers are not deferred
  // to that writer's begin snapshot.
  committed_snapshot_ = nullptr;
  committed_src_ = nullptr;
  committed_version_ = 0;
  return Status::OK();
}

GraphPtr CypherEngine::ReadSnapshot() {
  MutexLock lock(&txn_mu_);
  return ReadSnapshotLocked();
}

GraphPtr CypherEngine::ReadSnapshotLocked() {
  if (writer_active_ && graph_.get() == writer_graph_) {
    // A writer owns the head: serve the snapshot taken at its begin and
    // do not touch head fields it may be mutating right now.
    return committed_snapshot_;
  }
  if (graph_->frozen()) {
    // The default graph is itself a frozen snapshot (e.g. an oracle
    // engine bound to another engine's snapshot): it cannot change, so
    // it IS the committed state. Copying here would also race — frozen
    // graphs are shared across engines and Snapshot() is a mutation.
    return graph_;
  }
  if (committed_snapshot_ == nullptr || committed_src_ != graph_.get() ||
      committed_version_ != graph_->data_version()) {
    committed_snapshot_ = graph_->Snapshot();
    committed_src_ = graph_.get();
    committed_version_ = graph_->data_version();
  }
  return committed_snapshot_;
}

Result<GraphPtr> CypherEngine::AcquireWriter(bool wait) {
  // Durable storage whose recorder is gone has been Close()d: writes
  // could no longer be logged, so refuse them instead of silently
  // diverging memory from disk.
  if (storage_ != nullptr && storage_->durable() && recorder_ == nullptr) {
    return Status::InvalidArgument("database is closed for writes");
  }
  GraphPtr head;
  {
    MutexLock lock(&txn_mu_);
    while (writer_active_) {
      if (!wait) {
        return Status::Conflict(
            "write-write conflict: another write transaction is in progress");
      }
      txn_cv_.Wait(&txn_mu_);
    }
    // Pin the pre-transaction committed state BEFORE any dirty write:
    // readers starting during the transaction are served this snapshot,
    // and Rollback restores it.
    ReadSnapshotLocked();
    writer_active_ = true;
    writer_graph_ = graph_.get();
    head = graph_;
  }
  // Holding the writer slot (appends are serialized by it, not by a
  // lock), flush ops from setup-API writes that bypassed a transaction
  // (graph() fixture loads) as their own batch. They are part of the
  // snapshot pinned above, so a rollback — which discards only pending
  // ops — stays consistent with the log.
  if (recorder_ != nullptr && recorder_->HasPending()) {
    Status st = storage_->AppendCommit(recorder_->TakePending());
    if (!st.ok()) {
      MutexLock lock(&txn_mu_);
      writer_active_ = false;
      writer_graph_ = nullptr;
      txn_cv_.NotifyAll();
      return st;
    }
  }
  return head;
}

Status CypherEngine::CommitWriter() {
  // Durability first: the batch is on disk (fsync'd) before the commit
  // is acknowledged — still holding the writer slot, so batches hit the
  // log in commit order. On failure the transaction rolls back: OK from
  // this function is the moment the commit exists.
  if (recorder_ != nullptr && recorder_->HasPending()) {
    Status st = storage_->AppendCommit(recorder_->TakePending());
    if (!st.ok()) {
      RollbackWriter();
      return st;
    }
  }
  MutexLock lock(&txn_mu_);
  // Publishing is lazy: with the writer slot free, the next
  // ReadSnapshotLocked sees the head's data_version moved and takes a
  // fresh snapshot.
  writer_active_ = false;
  writer_graph_ = nullptr;
  txn_cv_.NotifyAll();
  return Status::OK();
}

void CypherEngine::RollbackWriter() {
  GraphPtr restored;
  {
    MutexLock lock(&txn_mu_);
    if (graph_.get() == writer_graph_) {
      // Re-materialize the pre-begin state as a fresh live head. The
      // committed snapshot stays (it is content-equal to the new head).
      restored = committed_snapshot_->Clone();
      if (recorder_ != nullptr) {
        // Drop the transaction's unlogged ops and observe the restored
        // head from its (rolled-back) interner state — which matches
        // what the log contains, since AcquireWriter flushed everything
        // older.
        recorder_->Rebind(restored.get());
        restored->set_write_observer(recorder_.get());
      }
      graph_ = restored;
      committed_src_ = restored.get();
      committed_version_ = restored->data_version();
    }
    // else: set_default_graph replaced the head mid-transaction, so the
    // writer's graph is already unbound; releasing the slot suffices.
    writer_active_ = false;
    writer_graph_ = nullptr;
    txn_cv_.NotifyAll();
  }
  if (restored != nullptr) {
    // Bumps the catalog version, invalidating cached plans bound to the
    // abandoned head.
    catalog_.RegisterGraph(GraphCatalog::kDefaultGraphName, restored);
  }
}

// ---- Statement execution ---------------------------------------------------

Result<PreparedQuery> CypherEngine::Prepare(std::string_view query) {
  GQL_RETURN_IF_ERROR(options_status_);
  auto state = std::make_shared<PreparedStatement>();
  GQL_ASSIGN_OR_RETURN(state->query, ParseQuery(query));
  // Analysis runs on the original tree so diagnostics mention the
  // literals the user wrote, not synthetic parameters.
  GQL_ASSIGN_OR_RETURN(state->info, Analyze(state->query));
  for (const auto& part : state->query.parts) {
    for (const auto& c : part.clauses) {
      if (c->kind == ast::Clause::Kind::kReturnGraph) {
        state->has_return_graph = true;
      }
    }
  }
  // Canonicalize only when a cached plan can actually use it: updating
  // and RETURN GRAPH queries run on the interpreter (where keeping the
  // user's literals also keeps diagnostics in their terms), and with the
  // cache off (capacity 0) the rewrite+unparse would be pure overhead on
  // every Execute(text) call. A statement prepared while the cache is off
  // stays uncached (text_key empty) even if the cache is enabled later.
  bool cacheable = !state->info.updating && !state->has_return_graph &&
                   options_.mode == ExecutionMode::kVolcano &&
                   plan_cache_.capacity() > 0;
  if (cacheable) {
    state->constants = AutoParameterize(&state->query).extracted;
    state->text_key = NormalizedQueryKey(state->query);
  }
  return PreparedQuery(PreparedPtr(std::move(state)));
}

Result<QueryResult> CypherEngine::Execute(std::string_view query,
                                          const ValueMap& params) {
  GQL_ASSIGN_OR_RETURN(PreparedQuery prepared, Prepare(query));
  return Execute(prepared, params);
}

Result<QueryResult> CypherEngine::Execute(const PreparedQuery& prepared,
                                          const ValueMap& params) {
  return ExecuteWith(prepared, params, /*session_rand=*/nullptr);
}

Result<QueryResult> CypherEngine::Run(const QueryRequest& req) {
  PreparedQuery prepared = req.prepared;
  if (!prepared.valid()) {
    GQL_ASSIGN_OR_RETURN(prepared, Prepare(req.text));
  }
  if (req.graph != nullptr) {
    // Caller-pinned binding: execute directly against it, outside the
    // auto-commit transaction wrapper (the caller owns the pin's
    // consistency story, as Session does for transactions).
    return ExecuteOn(prepared, req.params, req.graph);
  }
  return ExecuteWith(prepared, req.params, /*session_rand=*/nullptr);
}

Result<QueryResult> CypherEngine::ExecuteWith(const PreparedQuery& prepared,
                                              const ValueMap& params,
                                              uint64_t* session_rand) {
  GQL_RETURN_IF_ERROR(options_status_);
  if (!prepared.valid()) {
    return Status::InvalidArgument("executing an empty PreparedQuery");
  }
  if (prepared.state_->info.updating) {
    // Auto-commit write: wait for the single-writer slot, apply to the
    // live head, commit. Commit also on error — a failed statement may
    // have applied partial effects (pre-session behavior); explicit
    // Session transactions get Rollback instead.
    GQL_ASSIGN_OR_RETURN(GraphPtr live, AcquireWriter(/*wait=*/true));
    Result<QueryResult> result = ExecuteOn(prepared, params, live,
                                           session_rand);
    Status committed = CommitWriter();
    if (result.ok() && !committed.ok()) return committed;
    return result;
  }
  // Read statement: execute against the committed-state snapshot. The
  // binding is resolved here, once — a concurrent set_default_graph
  // cannot rebind the statement mid-flight.
  return ExecuteOn(prepared, params, ReadSnapshot(), session_rand);
}

Result<QueryResult> CypherEngine::ExecuteOn(
    const PreparedQuery& prepared, const ValueMap& params,
    const GraphPtr& graph, uint64_t* session_rand,
    std::shared_ptr<const CatalogSnapshot> pinned_catalog) {
  const PreparedStatement& st = *prepared.state_;
  bool interpreted = st.info.updating || st.has_return_graph ||
                     options_.mode == ExecutionMode::kInterpreter;
  if (st.constants.empty()) {
    // Nothing was extracted — run on the caller's map directly (the
    // common case for fully-parameterized and non-cacheable statements).
    if (interpreted) {
      return RunInterpreter(st.query, params, graph, session_rand,
                            std::move(pinned_catalog));
    }
    return RunVolcano(prepared.state_, params, graph, session_rand,
                      std::move(pinned_catalog));
  }
  // User parameters first, then the literals extracted at Prepare time.
  // Synthetic names never collide with parameters referenced by the
  // query, so the overlay cannot shadow a binding the query can see.
  ValueMap merged = params;
  for (const auto& [name, value] : st.constants) {
    merged[name] = value;
  }
  if (interpreted) {
    return RunInterpreter(st.query, merged, graph, session_rand,
                          std::move(pinned_catalog));
  }
  return RunVolcano(prepared.state_, merged, graph, session_rand,
                    std::move(pinned_catalog));
}

Result<QueryResult> CypherEngine::RunVolcano(
    const PreparedPtr& prepared, const ValueMap& params,
    const GraphPtr& graph, uint64_t* session_rand,
    std::shared_ptr<const CatalogSnapshot> pinned_catalog) {
  CatalogRef cref(&catalog_, pinned_catalog);
  QueryResult result;
  {
    MutexLock lock(&stats_mu_);
    ++exec_queries_;  // counts attempts, like the serial-era counter
  }
  WorkerPool* pool = options_.num_threads > 1 ? EnsureWorkerPool() : nullptr;
  // Per-execution counters accumulate into locals and fold into the
  // guarded cumulative stats once at the end, so a monitoring thread can
  // read exec_stats()/parallel_stats() while the query runs.
  BatchStats run_stats;
  ParallelRunStats prun;
  std::string serial_reason;
  RandScope rand(this, session_rand);
  if (plan_cache_.capacity() == 0 || prepared->text_key.empty()) {
    if (pool != nullptr) {
      // RunPlanned may take the parallel runtime internally; sessions
      // take turns on the shared pool.
      MutexLock plock(&pool_exec_mu_);
      GQL_ASSIGN_OR_RETURN(
          result.table,
          RunPlanned(cref, graph, &params, MakePlannerOptions(),
                     rand.get(), prepared->query, &run_stats, pool, &prun,
                     &serial_reason));
    } else {
      GQL_ASSIGN_OR_RETURN(
          result.table,
          RunPlanned(cref, graph, &params, MakePlannerOptions(),
                     rand.get(), prepared->query, &run_stats, nullptr, &prun));
    }
    FoldRunStats(run_stats, prun);
    RecordSerialFallback(serial_reason);
    return result;
  }
  // Transactions with a pinned catalog validate (and insert) against the
  // snapshot's version: a plan cached under a newer binding is never
  // served to an older-pinned reader, and vice versa.
  uint64_t cat_version = cref.version();
  // A catalog-version move strands every older entry (they can never
  // validate again); sweep them now so the graphs they pin are released
  // promptly rather than on LRU eviction. Skipped under a pinned
  // catalog: the pinned version may legitimately trail the live one, and
  // sweeping by it would evict entries current transactions still
  // validate.
  bool sweep = false;
  if (!cref.pinned()) {
    MutexLock lock(&stats_mu_);
    if (cat_version != swept_catalog_version_) {
      swept_catalog_version_ = cat_version;
      sweep = true;
    }
  }
  if (sweep) {
    plan_cache_.SweepStale(cat_version, graph->stats_version(),
                           graph->data_version());
  }
  std::string key = prepared->text_key + OptionsFingerprint();
  bool busy = false;
  PlanCache::EntryPtr entry =
      plan_cache_.Acquire(key, cat_version, graph->stats_version(),
                          graph->data_version(), &busy);
  EntryReleaser releaser{&plan_cache_, entry};
  Plan local_plan;
  if (entry == nullptr) {
    Planner planner(cref, graph, &params, MakePlannerOptions(), rand.get());
    GQL_ASSIGN_OR_RETURN(local_plan, planner.PlanQuery(prepared->query));
    if (!busy) {
      // Snapshot generations AFTER planning: FROM GRAPH ... AT "url" may
      // register a graph name while planning, bumping the catalog
      // version. Contexts planned against this execution's default-graph
      // snapshot are flagged: later executions validate them against
      // (and rebind them to) THEIR snapshot.
      std::vector<PlanCache::GraphGuard> guards;
      std::vector<bool> default_ctx;
      guards.reserve(local_plan.contexts.size());
      default_ctx.reserve(local_plan.contexts.size());
      for (const auto& ctx : local_plan.contexts) {
        guards.push_back({ctx->graph_owner, ctx->graph_owner->stats_version(),
                          ctx->graph_owner->data_version()});
        default_ctx.push_back(ctx->graph_owner == graph);
      }
      cat_version = cref.version();
      entry = plan_cache_.InsertAcquire(std::move(key), prepared,
                                        std::move(local_plan), cat_version,
                                        std::move(guards),
                                        std::move(default_ctx));
      releaser.entry = entry;
    }
    // else: the cached entry is mid-execution in another session; run
    // the fresh plan uncached (its contexts are already bound to this
    // execution's graph, params and PRNG).
  }
  Plan* plan = &local_plan;
  if (entry != nullptr) {
    plan = &entry->plan;
    // Rebind execution-scoped state: this execution's parameter
    // bindings, PRNG checkout, and — for default-graph contexts — this
    // transaction's snapshot. The pin guarantees exclusivity.
    for (size_t i = 0; i < entry->plan.contexts.size(); ++i) {
      auto& ctx = entry->plan.contexts[i];
      ctx->eval.parameters = &params;
      ctx->eval.rand_state = rand.get();
      if (i < entry->default_ctx.size() && entry->default_ctx[i]) {
        ctx->graph = graph.get();
        ctx->graph_owner = graph;
        ctx->eval.graph = graph.get();
      }
    }
  }
  if (pool != nullptr && plan->parallel.safe) {
    MutexLock plock(&pool_exec_mu_);
    GQL_ASSIGN_OR_RETURN(result.table,
                         ExecutePlanParallel(plan, pool, options_.batch_size,
                                             &run_stats, &prun));
  } else {
    if (pool != nullptr) serial_reason = plan->parallel.reason;
    GQL_ASSIGN_OR_RETURN(
        result.table, ExecutePlan(plan, options_.batch_size, &run_stats));
  }
  FoldRunStats(run_stats, prun);
  RecordSerialFallback(serial_reason);
  return result;
}

Result<QueryResult> CypherEngine::RunInterpreter(
    const ast::Query& q, const ValueMap& params, const GraphPtr& graph,
    uint64_t* session_rand,
    std::shared_ptr<const CatalogSnapshot> pinned_catalog) {
  QueryResult result;
  RandScope rand(this, session_rand);
  Interpreter::Options iopts;
  iopts.match = MakeMatchOptions();
  Interpreter interp(CatalogRef(&catalog_, std::move(pinned_catalog)), graph,
                     &params, iopts, rand.get());
  MatchOptions match = MakeMatchOptions();
  uint64_t* rand_state = rand.get();
  interp.set_update_handler([&interp, &params, &result, match, rand_state](
                                const ast::Clause& c,
                                Table t) -> Result<Table> {
    UpdateExecutor upd(interp.current_graph().get(), &params, match,
                       rand_state, &result.stats);
    return upd.Execute(c, std::move(t));
  });
  GQL_ASSIGN_OR_RETURN(result.table, interp.ExecuteQuery(q));
  result.graphs = interp.produced_graphs();
  return result;
}

Result<std::string> CypherEngine::Profile(std::string_view query,
                                          const ValueMap& params) {
  GQL_RETURN_IF_ERROR(options_status_);
  GQL_ASSIGN_OR_RETURN(ast::Query q, ParseQuery(query));
  GQL_ASSIGN_OR_RETURN(QueryInfo info, Analyze(q));
  if (info.updating) {
    return Status::Unimplemented(
        "PROFILE of updating queries is not supported");
  }
  GraphPtr snapshot = ReadSnapshot();
  RandScope rand(this);
  Planner planner(&catalog_, snapshot, &params, MakePlannerOptions(),
                  rand.get());
  GQL_ASSIGN_OR_RETURN(Plan plan, planner.PlanQuery(q));
  {
    MutexLock lock(&stats_mu_);
    ++exec_queries_;
  }
  Table t;
  std::string head;
  BatchStats run_stats;
  ParallelRunStats prun;
  if (options_.num_threads > 1 && plan.parallel.safe) {
    WorkerPool* pool = EnsureWorkerPool();
    {
      MutexLock plock(&pool_exec_mu_);
      GQL_ASSIGN_OR_RETURN(t, ExecutePlanParallel(&plan, pool,
                                                  options_.batch_size,
                                                  &run_stats, &prun));
    }
    // Fold every worker instance's counters into the printed tree.
    for (const OperatorPtr& instance : plan.extra_roots) {
      plan.root->AbsorbCounters(*instance);
    }
    head = "Parallel: " + std::to_string(prun.workers) + " workers, " +
           std::to_string(prun.morsels) + " morsels dispatched, " +
           std::to_string(prun.merge_tasks) + " merge tasks, " +
           plan.parallel.merge_shape +
           " (the merge-point projection runs in the merge stage; its "
           "tree counters stay 0)\n";
  } else {
    GQL_ASSIGN_OR_RETURN(
        t, ExecutePlan(&plan, options_.batch_size, &run_stats));
    if (options_.num_threads > 1) {
      head = "Parallel: serial (" + plan.parallel.reason + ")\n";
      RecordSerialFallback(plan.parallel.reason);
    }
  }
  FoldRunStats(run_stats, prun);
  std::string out = head + ProfilePlan(*plan.root);
  out += "result: " + std::to_string(t.NumRows()) + " rows\n";
  return out;
}

Result<std::string> CypherEngine::Explain(std::string_view query,
                                          const ValueMap& params) {
  GQL_RETURN_IF_ERROR(options_status_);
  GQL_ASSIGN_OR_RETURN(ast::Query q, ParseQuery(query));
  GQL_ASSIGN_OR_RETURN(QueryInfo info, Analyze(q));
  if (info.updating) {
    return Status::Unimplemented(
        "EXPLAIN of updating queries is not supported (they run on the "
        "clause interpreter)");
  }
  RandScope rand(this);
  return ExplainQuery(&catalog_, ReadSnapshot(), &params,
                      MakePlannerOptions(), rand.get(), q);
}

}  // namespace gqlite
