// analytics: whole-graph Cypher over an in-memory 50k-person social
// graph on a 4-worker engine, one client. Almost all of the time goes to
// the runtime, the operators, expression evaluation and the parallel
// executor; the frontend and storage do almost no work. Every answer is
// checked against a 1-worker database over the same graph.
#include <algorithm>
#include <numeric>
#include <optional>

#include "common.h"
#include "src/workload/generators.h"

namespace perfbench {
namespace {

constexpr size_t kPeople = 50000;
constexpr size_t kCities = 50;
constexpr double kAvgFriends = 8.0;  // ~200k FRIEND relationships
constexpr size_t kThreads = 4;
constexpr int kSetupReps = 9;
constexpr int kPoolPerTemplate = 2;

struct Stmt {
  const char* cls;
  std::string text;
  bool ordered;
};

std::string Person(Rng& rng) { return "'P" + std::to_string(Pick(rng, kPeople)) + "'"; }
std::string City(Rng& rng) { return "'City" + std::to_string(Pick(rng, kCities)) + "'"; }
// Thresholds in the first years of the 1990-2017 range keep most FRIEND
// relationships, so a query's work hardly depends on the literal drawn.
std::string EarlyYear(Rng& rng) { return std::to_string(1990 + Pick(rng, 4)); }

// Statement templates with seeded literals. Every ORDER BY is total over
// the returned columns, so ordered answers are deterministic.
std::vector<Stmt> MakePool(Rng& rng) {
  std::vector<Stmt> pool;
  for (int i = 0; i < kPoolPerTemplate; ++i) {
    pool.push_back({"lookup",
                    "MATCH (p:Person {name: " + Person(rng) +
                        "}) RETURN p.name AS name",
                    false});
    pool.push_back({"traverse",
                    "MATCH (p:Person {name: " + Person(rng) +
                        "})-[:FRIEND]->(f) RETURN f.name AS name ORDER BY name",
                    true});
    pool.push_back({"traverse",
                    "MATCH (p:Person {name: " + Person(rng) +
                        "})-[:FRIEND]->(f)-[:FRIEND]->(g) "
                        "RETURN count(DISTINCT g) AS n",
                    false});
    pool.push_back({"traverse",
                    "MATCH (p:Person {name: " + Person(rng) +
                        "})-[:FRIEND*1..3]->(g) RETURN count(DISTINCT g) AS n",
                    false});
    pool.push_back({"traverse",
                    "MATCH (p:Person {name: " + Person(rng) +
                        "})-[:FRIEND]->(f)-[:IN]->(c:City) "
                        "RETURN c.name AS city, count(*) AS n "
                        "ORDER BY n DESC, city",
                    true});
    pool.push_back({"analytic",
                    "MATCH (p:Person)-[:IN]->(c:City) "
                    "RETURN c.name AS city, count(*) AS n "
                    "ORDER BY n DESC, city LIMIT " +
                        std::to_string(3 + Pick(rng, 8)),
                    true});
    pool.push_back({"analytic",
                    "MATCH (p:Person)-[f:FRIEND]->(q) WHERE f.since >= " +
                        EarlyYear(rng) + " RETURN count(*) AS n",
                    false});
    pool.push_back({"analytic",
                    "MATCH (p:Person)-[:FRIEND]->(q)-[:IN]->(c:City {name: " +
                        City(rng) + "}) RETURN count(DISTINCT p) AS n",
                    false});
    pool.push_back({"analytic",
                    "MATCH (p:Person)-[f:FRIEND]->(q) WHERE f.since >= " +
                        EarlyYear(rng) +
                        " RETURN p.name AS name, f.since AS since "
                        "ORDER BY since DESC, name LIMIT " +
                        std::to_string(10 + Pick(rng, 21)),
                    true});
    pool.push_back({"analytic",
                    "MATCH (p:Person)-[f:FRIEND]->(q) WHERE f.since >= " +
                        EarlyYear(rng) +
                        " RETURN DISTINCT q.name AS name ORDER BY name LIMIT " +
                        std::to_string(5 + Pick(rng, 11)),
                    true});
    pool.push_back({"analytic",
                    "MATCH (p:Person)-[f:FRIEND]->(q)-[:IN]->(c:City) "
                    "WHERE f.since >= " +
                        EarlyYear(rng) +
                        " RETURN c.name AS city, count(*) AS n, "
                        "min(f.since) AS first ORDER BY city",
                    true});
  }
  return pool;
}

gqlite::GraphPtr MakeGraph(uint64_t seed) {
  gqlite::workload::SocialConfig cfg;
  cfg.num_people = kPeople;
  cfg.avg_friends = kAvgFriends;
  cfg.num_cities = kCities;
  cfg.seed = seed;
  return gqlite::workload::MakeSocialNetwork(cfg);
}

Database OpenOn(const gqlite::GraphPtr& g, size_t threads) {
  gqlite::EngineOptions options;
  options.num_threads = threads;
  Result<Database> db = Database::OpenInMemory(options);
  if (!db.ok()) Die("OpenInMemory: " + db.status().ToString());
  CheckEngineOptions(*db, threads);
  gqlite::Status st = db->engine().set_default_graph(g);
  if (!st.ok()) Die("set_default_graph: " + st.ToString());
  return std::move(db).value();
}

}  // namespace

Report RunAnalytics(const Options& opt) {
  Rng rng(opt.seed);
  uint64_t graph_seed = rng();
  std::vector<Stmt> pool = MakePool(rng);

  std::optional<Database> db;
  gqlite::GraphPtr graph;
  TextWorkload w;
  w.setup = [&]() {
    db.reset();
    graph.reset();
    Stopwatch watch;
    graph = MakeGraph(graph_seed);
    db.emplace(OpenOn(graph, kThreads));
    w.db = &*db;
    return watch.Seconds();
  };

  // The client deals a deck holding every pool statement a fixed number
  // of times, reshuffled (seeded) on every pass: each pass is the same
  // work, so throughput does not depend on a random op mix. The mix is
  // synthetic: each class (lookup, traverse, analytic) sends the same
  // number of statements per pass, so no class's latencies rest on
  // fewer samples than another's. By time the analytic third dominates.
  std::map<std::string, size_t> per_class;
  for (const Stmt& st : pool) ++per_class[st.cls];
  size_t per_pass = 1;
  for (const auto& [cls, n] : per_class) per_pass = std::lcm(per_pass, n);
  std::vector<uint32_t> deck;
  for (uint32_t i = 0; i < pool.size(); ++i) {
    deck.insert(deck.end(), per_pass / per_class[pool[i].cls], i);
  }
  size_t dealt = deck.size();
  w.next = [&]() {
    if (dealt == deck.size()) {
      std::shuffle(deck.begin(), deck.end(), rng);
      dealt = 0;
    }
    uint32_t i = deck[dealt++];
    return TextOp{&pool[i].text, pool[i].cls, pool[i].ordered, i};
  };

  std::optional<Database> oracle;
  auto oracle_db = [&]() -> Database& {
    if (!oracle) oracle.emplace(OpenOn(graph, 1));
    return *oracle;
  };
  w.oracle_fingerprint = [&](const TextOp& op) -> Result<uint64_t> {
    auto r = oracle_db().Execute(*op.text);
    if (!r.ok()) return r.status();
    return Fingerprint(r->table, op.ordered);
  };

  w.probe = [&](LayerInputs* in, Tracer* tracer) {
    std::vector<ProbeStmt> stmts;
    std::vector<double> speedups;
    // The pool's first round holds one statement of each template.
    for (size_t i = 0; i < pool.size() / kPoolPerTemplate; ++i) {
      const Stmt& s = pool[i];
      stmts.push_back({s.cls, s.text, {}, true,
                       std::string(s.cls) == "lookup" ? kPeople : 0});
      if (std::string(s.cls) != "analytic") continue;
      // 1-worker / 4-worker Execute(prepared) time of the same query,
      // best of two; both plans are cached by now.
      double us[2];
      Database* dbs[2] = {&oracle_db(), w.db};
      for (int k = 0; k < 2; ++k) {
        auto prepared = dbs[k]->Prepare(s.text);
        if (!prepared.ok()) Die("prepare: " + s.text);
        std::vector<double> runs;
        for (int r = 0; r < 2; ++r) {
          int64_t t0 = NowNs();
          MustRun(dbs[k]->Execute(*prepared), s.text);
          runs.push_back(static_cast<double>(NowNs() - t0));
        }
        us[k] = std::min(runs[0], runs[1]);
      }
      speedups.push_back(us[0] / us[1]);
    }
    in->probes = ProbeLayers(*w.db, stmts, tracer);
    in->exec_speedup = Median(speedups);
  };
  return RunTextWorkload(opt, w);
}

}  // namespace perfbench
