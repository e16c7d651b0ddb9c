// Forced-plan differential harness for the cost-based planner: every
// side of every choice the cost model makes (adjacency Expand vs
// relationship-store HashJoinExpand per hop, left-to-right vs
// right-to-left chain direction) must produce the SAME bag of rows. The
// harness generates seeded chain-shaped queries — the shapes where the
// chain decision (CostModel::DecideChain) has an anchor, a per-hop
// direction and a per-hop operator to choose — and pins every
// forced configuration, across the serial batched (morsel 1 and 1024)
// and parallel (1, 2 and 4 worker) executor legs, to the reference
// interpreter. A cost model that merely picks SLOW plans is a perf bug;
// one whose alternatives disagree is a correctness bug, and this is the
// test that catches it.

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <optional>
#include <string>
#include <vector>

#include "src/core/engine.h"
#include "src/plan/runtime.h"

namespace gqlite {
namespace {

/// splitmix64, same as test_differential.cc: deterministic everywhere.
struct Rng {
  uint64_t state;
  uint64_t Next() {
    uint64_t z = (state += 0x9E3779B97F4A7C15ULL);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
    return z ^ (z >> 31);
  }
  uint64_t Below(uint64_t n) { return Next() % n; }
  bool Chance(int percent) {
    return Below(100) < static_cast<uint64_t>(percent);
  }
  template <typename T>
  const T& Pick(const std::vector<T>& v) {
    return v[Below(v.size())];
  }
};

/// A graph with DELIBERATELY lopsided statistics, so the cost-based
/// choices are non-trivial: a few :Hub nodes with large out-fans of :R,
/// many :Leaf nodes, a sparse :S type, and property `v` (10 distinct
/// values) / `id` (unique) for selective equality predicates.
GraphPtr MakeChainGraph(uint64_t seed) {
  Rng rng{seed};
  auto g = std::make_shared<PropertyGraph>();
  std::vector<NodeId> hubs;
  std::vector<NodeId> leaves;
  for (int i = 0; i < 8; ++i) {
    hubs.push_back(g->CreateNode(
        {"Hub"}, {{"id", Value::Int(i)},
                  {"v", Value::Int(static_cast<int64_t>(rng.Below(10)))}}));
  }
  for (int i = 0; i < 120; ++i) {
    leaves.push_back(g->CreateNode(
        {"Leaf"}, {{"id", Value::Int(100 + i)},
                   {"v", Value::Int(static_cast<int64_t>(rng.Below(10)))}}));
  }
  // Dense hub->leaf :R edges (big forward fan, tiny reverse fan).
  for (NodeId h : hubs) {
    for (int i = 0; i < 25; ++i) {
      auto r = g->CreateRelationship(h, leaves[rng.Below(leaves.size())],
                                     "R", {});
      EXPECT_TRUE(r.ok());
    }
  }
  // Sparse leaf->leaf :S edges (cheap either way).
  for (int i = 0; i < 60; ++i) {
    auto r = g->CreateRelationship(leaves[rng.Below(leaves.size())],
                                   leaves[rng.Below(leaves.size())], "S", {});
    EXPECT_TRUE(r.ok());
  }
  // A few leaf->hub :S backlinks so <- traversals reach hubs too.
  for (int i = 0; i < 20; ++i) {
    auto r = g->CreateRelationship(leaves[rng.Below(leaves.size())],
                                   hubs[rng.Below(hubs.size())], "S", {});
    EXPECT_TRUE(r.ok());
  }
  return g;
}

struct GeneratedQuery {
  std::string text;
  bool ordered = false;
};

/// One random chain query of 1-3 hops: mixed arrow directions, types,
/// labels, WHERE equalities (the selectivities the cost model ranks
/// anchors by) and an occasional short var-length hop. The output is
/// always a bag of scalars, never collect(): row ORDER legitimately
/// differs between plan shapes, the row BAG must not.
GeneratedQuery GenerateChainQuery(Rng& rng) {
  const std::vector<std::string> labels = {"", ":Hub", ":Leaf"};
  const std::vector<std::string> types = {"", ":R", ":S", ":R|S"};
  GeneratedQuery out;
  size_t hops = 1 + rng.Below(3);
  std::vector<std::string> vars;
  std::string match = "MATCH ";
  for (size_t i = 0; i <= hops; ++i) {
    std::string v(1, static_cast<char>('a' + i));
    vars.push_back(v);
    match += "(" + v + rng.Pick(labels) + ")";
    if (i == hops) break;
    std::string rel = "[" + rng.Pick(types);
    if (hops == 1 && rng.Chance(20)) {
      rel += "*1.." + std::to_string(1 + rng.Below(2));
    }
    rel += "]";
    match += rng.Chance(50) ? ("-" + rel + "->") : ("<-" + rel + "-");
  }
  if (rng.Chance(70)) {
    const std::string& x = rng.Pick(vars);
    switch (rng.Below(4)) {
      case 0:
        match += " WHERE " + x + ".id = " + std::to_string(rng.Below(130));
        break;
      case 1:
        match += " WHERE " + x + ".v = " + std::to_string(rng.Below(10));
        break;
      case 2:
        match += " WHERE " + x + ".v > " + std::to_string(rng.Below(9));
        break;
      default:
        match += " WHERE " + x + ":Leaf";
        break;
    }
    if (rng.Chance(30)) {
      const std::string& y = rng.Pick(vars);
      match += " AND " + y + ".v <= " + std::to_string(1 + rng.Below(9));
    }
  }
  std::string ret = " RETURN ";
  if (rng.Chance(30)) {
    ret += "count(*) AS c";
  } else {
    ret += vars.front() + ".id AS x, " + vars.back() + ".id AS y";
    if (rng.Chance(50)) {
      ret += " ORDER BY x, y";
      out.ordered = true;
    }
  }
  out.text = match + ret;
  return out;
}

struct Runtime {
  std::string name;
  CypherEngine engine;
};

/// Every forced (expand strategy, direction) corner plus the cost-based
/// default, each across the five executor legs (morsel 1 and 1024,
/// 1, 2 and 4 workers), all over `graph`.
std::vector<Runtime> AllRuntimes(const GraphPtr& graph) {
  struct Config {
    const char* name;
    ExpandStrategy strategy;
    DirectionPolicy direction;
  };
  const std::vector<Config> configs = {
      {"adjacency/right", ExpandStrategy::kAdjacency,
       DirectionPolicy::kForceRight},
      {"adjacency/left", ExpandStrategy::kAdjacency,
       DirectionPolicy::kForceLeft},
      {"hashjoin/right", ExpandStrategy::kHashJoin,
       DirectionPolicy::kForceRight},
      {"hashjoin/left", ExpandStrategy::kHashJoin,
       DirectionPolicy::kForceLeft},
      {"cost/cost", ExpandStrategy::kCost, DirectionPolicy::kCost},
  };
  struct Leg {
    size_t batch;
    size_t threads;
  };
  const std::vector<Leg> legs = {{1, 1}, {1024, 1}, {1024, 1}, {1024, 2},
                                 {1024, 4}};
  std::vector<Runtime> runtimes;
  for (const Config& c : configs) {
    for (const Leg& l : legs) {
      EngineOptions opts;
      opts.batch_size = l.batch;
      opts.num_threads = l.threads;
      opts.expand_strategy = c.strategy;
      opts.direction_policy = c.direction;
      runtimes.push_back({std::string(c.name) + "/b" +
                              std::to_string(l.batch) + "t" +
                              std::to_string(l.threads),
                          CypherEngine(opts)});
      runtimes.back().engine.set_default_graph(graph);
    }
  }
  return runtimes;
}

CypherEngine Oracle(const GraphPtr& graph) {
  EngineOptions interp_opts;
  interp_opts.mode = ExecutionMode::kInterpreter;
  CypherEngine oracle(interp_opts);
  oracle.set_default_graph(graph);
  return oracle;
}

TEST(ForcedPlans, AllPlanAlternativesAgreeOnEveryExecutorLeg) {
  auto eff_threads = EffectiveNumThreads(4);
  ASSERT_TRUE(eff_threads.ok()) << eff_threads.status().ToString();

  GraphPtr graph = MakeChainGraph(0xF0ECEDCA5E5ULL);
  CypherEngine oracle = Oracle(graph);
  std::vector<Runtime> runtimes = AllRuntimes(graph);

  Rng rng{0xF02CEDBEEFULL};
  const int kCases = 160;
  int executed = 0;
  for (int i = 0; i < kCases; ++i) {
    GeneratedQuery q = GenerateChainQuery(rng);
    SCOPED_TRACE("case " + std::to_string(i) + ": " + q.text);
    auto want = oracle.Execute(q.text);
    ASSERT_TRUE(want.ok()) << want.status().ToString();
    ++executed;
    for (auto& rt : runtimes) {
      auto got = rt.engine.Execute(q.text);
      ASSERT_TRUE(got.ok()) << rt.name << ": " << got.status().ToString();
      EXPECT_TRUE(want->table.SameBag(got->table))
          << rt.name << " diverges\noracle:\n"
          << want->table.ToString() << rt.name << ":\n"
          << got->table.ToString();
      if (q.ordered) {
        EXPECT_EQ(want->table.ToString(), got->table.ToString())
            << rt.name << " ordered output is not byte-identical";
      }
    }
  }
  EXPECT_EQ(executed, kCases);
}

/// 240 :L nodes (every third also :M) with `k` = i % 10 — absent on
/// every seventh node, a float on every eleventh — and `d`, which is 0
/// on some nodes but never where k = 2; 40 unlabeled nodes with the
/// same `k`; :R edges between :L nodes. Big enough that 4 workers split
/// every scan into several morsels.
GraphPtr MakePatternMapGraph() {
  auto g = std::make_shared<PropertyGraph>();
  std::vector<NodeId> ls;
  for (int i = 0; i < 240; ++i) {
    std::vector<std::string> labels = {"L"};
    if (i % 3 == 0) labels.push_back("M");
    PropertyList props;
    const int k = i % 10;
    if (i % 7 != 0) {
      props.emplace_back("k", i % 11 == 0 ? Value::Float(k) : Value::Int(k));
    }
    props.emplace_back("d", Value::Int(k == 2 ? 1 : i % 4));
    ls.push_back(g->CreateNode(labels, props));
  }
  for (int i = 0; i < 40; ++i) {
    g->CreateNode({}, {{"k", Value::Int(i % 10)}});
  }
  for (int i = 0; i < 240; ++i) {
    auto r = g->CreateRelationship(ls[i], ls[(i * 7 + 3) % 240], "R", {});
    EXPECT_TRUE(r.ok());
  }
  return g;
}

TEST(ForcedPlans, PatternPredicatesInTheScanAgreeOnEveryExecutorLeg) {
  // The anchor's labels and property map are tested by the scan on the
  // record; every leg must keep the interpreter's rows — and its errors,
  // which the map raises only when a candidate reaches the erroring key.
  GraphPtr graph = MakePatternMapGraph();
  CypherEngine oracle = Oracle(graph);
  std::vector<Runtime> runtimes = AllRuntimes(graph);
  struct Case {
    const char* query;
    ValueMap params;
  };
  const std::vector<Case> cases = {
      {"MATCH (n:L {k: $p}) RETURN id(n) AS i", {{"p", Value::Int(2)}}},
      {"MATCH (n:L {k: $p}) RETURN count(*) AS c", {{"p", Value::Null()}}},
      {"MATCH (n:L {k: null}) RETURN count(*) AS c", {}},
      {"MATCH (n:L {k: 2.0}) RETURN id(n) AS i", {}},
      {"MATCH (n:L {k: 0}) RETURN id(n) AS i", {}},
      {"MATCH (n:L {missing: 1}) RETURN count(*) AS c", {}},
      {"MATCH (n:L:M {k: 1}) RETURN id(n) AS i", {}},
      {"MATCH (n:M:L {k: 1, d: 1}) RETURN id(n) AS i", {}},
      {"MATCH (n {k: 1}) RETURN id(n) AS i", {}},
      {"UNWIND [1, 2] AS x MATCH (n:L {k: x}) RETURN x, id(n) AS i", {}},
      {"MATCH (n:L {k: 4}) RETURN count(*) AS c, sum(n.d) AS s", {}},
      {"MATCH (n:Missing {k: 1 / 0}) RETURN count(*) AS c", {}},
      {"MATCH (n:L {k: 1 / 0}) RETURN count(*) AS c", {}},
      {"MATCH (n:L {k: 100, d: 1 / 0}) RETURN count(*) AS c", {}},
      {"MATCH (n:L {k: 2}) WHERE 1 / n.d > 0 RETURN n.k AS k", {}},
      {"MATCH (n:L {k: n.d}) RETURN n.k AS k", {}},
      {"MATCH (a:L {k: 3})-[:R]->(b:M {k: a.k % 5}) RETURN id(a), id(b)", {}},
      {"MATCH (a:L)-[:R]->(b:M {k: a.d}) RETURN count(*) AS c", {}},
  };
  int errors = 0;
  for (const Case& c : cases) {
    SCOPED_TRACE(c.query);
    auto want = oracle.Execute(c.query, c.params);
    if (!want.ok()) ++errors;
    for (auto& rt : runtimes) {
      auto got = rt.engine.Execute(c.query, c.params);
      if (!want.ok()) {
        ASSERT_FALSE(got.ok()) << rt.name << " returned rows:\n"
                               << got->table.ToString();
        EXPECT_EQ(got.status().ToString(), want.status().ToString()) << rt.name;
        continue;
      }
      ASSERT_TRUE(got.ok()) << rt.name << ": " << got.status().ToString();
      EXPECT_TRUE(want->table.SameBag(got->table))
          << rt.name << " diverges\noracle:\n"
          << want->table.ToString() << rt.name << ":\n"
          << got->table.ToString();
    }
  }
  // `{k: 1 / 0}` over a non-empty label and `{k: n.d}` raise.
  EXPECT_EQ(errors, 2);
}

// ---- GQLITE_PLAN_MODE parsing ----------------------------------------------

/// Same scoped-env helper as test_engine.cc (anonymous namespaces keep
/// the two definitions from colliding).
class ScopedEnv {
 public:
  ScopedEnv(const char* name, const char* value) : name_(name) {
    const char* old = getenv(name);
    if (old != nullptr) saved_ = old;
    if (value != nullptr) {
      setenv(name, value, /*overwrite=*/1);
    } else {
      unsetenv(name);
    }
  }
  ~ScopedEnv() {
    if (saved_.has_value()) {
      setenv(name_, saved_->c_str(), 1);
    } else {
      unsetenv(name_);
    }
  }

 private:
  const char* name_;
  std::optional<std::string> saved_;
};

TEST(PlanModeEnv, TokensApplyOverProgrammaticOptions) {
  ScopedEnv env("GQLITE_PLAN_MODE", "hashjoin,force-left");
  EngineOptions opts;
  opts.expand_strategy = ExpandStrategy::kAdjacency;  // overridden
  CypherEngine engine(opts);
  EXPECT_EQ(engine.options().expand_strategy, ExpandStrategy::kHashJoin);
  EXPECT_EQ(engine.options().direction_policy, DirectionPolicy::kForceLeft);
  EXPECT_TRUE(engine.Execute("RETURN 1 AS one").ok());
}

TEST(PlanModeEnv, CostTokensRestoreTheDefaults) {
  ScopedEnv env("GQLITE_PLAN_MODE", "cost-expand,cost-direction");
  EngineOptions opts;
  opts.expand_strategy = ExpandStrategy::kHashJoin;
  opts.direction_policy = DirectionPolicy::kForceRight;
  CypherEngine engine(opts);
  EXPECT_EQ(engine.options().expand_strategy, ExpandStrategy::kCost);
  EXPECT_EQ(engine.options().direction_policy, DirectionPolicy::kCost);
}

TEST(PlanModeEnv, UnknownTokenIsAClearErrorNotAClamp) {
  for (const char* garbage : {"fastest", "hash join", "adjacency,", ",",
                              "adjacency;hashjoin", "FORCE-LEFT", "greedy",
                              "dp", "ltr", "hashjoin,dp"}) {
    ScopedEnv env("GQLITE_PLAN_MODE", garbage);
    CypherEngine engine;
    auto r = engine.Execute("RETURN 1 AS one");
    ASSERT_FALSE(r.ok()) << "accepted GQLITE_PLAN_MODE=" << garbage;
    EXPECT_NE(r.status().ToString().find("GQLITE_PLAN_MODE"),
              std::string::npos)
        << r.status().ToString();
  }
}

}  // namespace
}  // namespace gqlite
