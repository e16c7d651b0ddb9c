// short_text: one client sends small text statements over an in-memory
// 1k-person social graph. Most are anchored on a :City or only compute
// expressions, so execution is cheap and the frontend (lex, parse,
// analyze, canonicalize), the plan-cache lookup and planning dominate.
// The statements come from more distinct shapes than the plan cache
// holds, with skewed popularity: hot shapes hit, the tail misses and is
// planned. Every answer is checked against the interpreter oracle.
#include <algorithm>
#include <cmath>
#include <numeric>
#include <optional>

#include "common.h"
#include "src/workload/generators.h"

namespace perfbench {
namespace {

constexpr size_t kPeople = 1000;
constexpr size_t kCities = 20;
// A set-up builds a 1k-person graph in a few ms, too short to time
// alone against scheduler noise: each slice times this many.
constexpr int kSetupsPerSlice = 25;
constexpr uint32_t kTemplates = 8;
// 320 shapes: 2.5x the plan cache's default 128 entries.
constexpr uint32_t kVariants = 40;
constexpr uint32_t kShapes = kTemplates * kVariants;
constexpr uint32_t kLiterals = 16;
// YCSB's default Zipfian constant for request popularity.
constexpr double kZipfExponent = 0.99;

const char* const kClass[kTemplates] = {"lookup",   "lookup",   "traverse",
                                        "traverse", "traverse", "expr",
                                        "expr",     "analytic"};

/// The statement of shape `shape` with literal choice `lit`. A shape's
/// variant only renames its output column, which the plan-cache key
/// keeps (projection items are not auto-parameterized); the literals
/// are lifted into parameters, so all 16 literal choices of one shape
/// share a cached plan. Every statement scans at most the 20 cities or
/// the ~50 people of one city.
std::string Text(uint32_t shape, uint32_t lit) {
  std::string v = std::to_string(shape / kTemplates);
  std::string city = "'City" + std::to_string(lit % kCities) + "'";
  switch (shape % kTemplates) {
    case 0:
      return "MATCH (c:City {name: " + city + "}) RETURN c.name AS name_" + v;
    case 1:
      return "MATCH (c:City) WHERE c.name = " + city +
             " RETURN toUpper(c.name) AS up_" + v;
    case 2:
      return "MATCH (c:City {name: " + city +
             "})<-[:IN]-(p) RETURN count(p) AS n_" + v;
    case 3:
      return "MATCH (c:City {name: " + city +
             "})<-[:IN]-(p) RETURN p.name AS name_" + v + " ORDER BY name_" +
             v + " LIMIT 3";
    case 4:
      return "MATCH (c:City {name: " + city +
             "})<-[:IN]-(p) WHERE p.name STARTS WITH 'P" +
             std::to_string(1 + lit % 9) + "' RETURN count(*) AS n_" + v;
    case 5:
      return "UNWIND [" + std::to_string(lit) + ", " +
             std::to_string(lit * 3 + 1) + ", " + std::to_string(lit * 7 + 2) +
             "] AS x RETURN sum(x * x) AS e_" + v;
    case 6:
      return "UNWIND range(1, " + std::to_string(10 + lit) +
             ") AS x RETURN count(x) AS c_" + v + ", max(x) AS m";
    default:
      return "MATCH (c:City) WHERE c.name <> " + city +
             " RETURN count(*) AS n_" + v + ", min(c.name) AS first";
  }
}

bool Ordered(uint32_t shape) { return shape % kTemplates == 3; }

Database OpenOn(const gqlite::GraphPtr& g, gqlite::ExecutionMode mode) {
  gqlite::EngineOptions options;
  options.mode = mode;
  Result<Database> db = Database::OpenInMemory(options);
  if (!db.ok()) Die("OpenInMemory: " + db.status().ToString());
  CheckEngineOptions(*db, 1);
  gqlite::Status st = db->engine().set_default_graph(g);
  if (!st.ok()) Die("set_default_graph: " + st.ToString());
  return std::move(db).value();
}

}  // namespace

Report RunShortText(const Options& opt) {
  Rng rng(opt.seed);
  gqlite::workload::SocialConfig cfg;
  cfg.num_people = kPeople;
  cfg.num_cities = kCities;
  cfg.seed = rng();
  // Popularity rank -> shape: rank r is a shape of template r % 8, so
  // every seed spreads popularity over the templates alike; the seed
  // permutes which variant of the template holds the rank.
  std::vector<uint32_t> variant_order(kVariants);
  std::iota(variant_order.begin(), variant_order.end(), 0);
  std::shuffle(variant_order.begin(), variant_order.end(), rng);
  std::vector<uint32_t> shape_of_rank(kShapes);
  for (uint32_t r = 0; r < kShapes; ++r) {
    shape_of_rank[r] = variant_order[r / kTemplates] * kTemplates + r % kTemplates;
  }
  std::vector<double> cumulative(kShapes);
  double total = 0;
  for (uint32_t r = 0; r < kShapes; ++r) {
    total += 1.0 / std::pow(static_cast<double>(r + 1), kZipfExponent);
    cumulative[r] = total;
  }

  std::optional<Database> db;
  gqlite::GraphPtr graph;
  TextWorkload w;
  w.setups_per_slice = kSetupsPerSlice;
  w.setup = [&]() {
    db.reset();
    graph.reset();
    Stopwatch watch;
    graph = gqlite::workload::MakeSocialNetwork(cfg);
    db.emplace(OpenOn(graph, gqlite::ExecutionMode::kVolcano));
    w.db = &*db;
    return watch.Seconds();
  };

  std::vector<std::string> texts(kShapes * kLiterals);
  w.next = [&]() {
    double x = Unit(rng) * total;
    size_t rank = static_cast<size_t>(
        std::upper_bound(cumulative.begin(), cumulative.end(), x) -
        cumulative.begin());
    uint32_t shape = shape_of_rank[std::min<size_t>(rank, kShapes - 1)];
    uint32_t lit = static_cast<uint32_t>(Pick(rng, kLiterals));
    uint32_t key = shape * kLiterals + lit;
    if (texts[key].empty()) texts[key] = Text(shape, lit);
    return TextOp{&texts[key], kClass[shape % kTemplates], Ordered(shape),
                  key};
  };

  std::optional<Database> oracle;
  w.oracle_fingerprint = [&](const TextOp& op) -> Result<uint64_t> {
    if (!oracle) oracle.emplace(OpenOn(graph, gqlite::ExecutionMode::kInterpreter));
    auto r = oracle->Execute(*op.text);
    if (!r.ok()) return r.status();
    return Fingerprint(r->table, op.ordered);
  };

  w.probe = [&](LayerInputs* in, Tracer* tracer) {
    std::vector<ProbeStmt> stmts;
    for (uint32_t t = 0; t < kTemplates; ++t) {
      size_t scan = kClass[t] == std::string("lookup") ? kCities : 0;
      stmts.push_back({kClass[t], Text(t, 0), {}, true, scan});
    }
    in->probes = ProbeLayers(*w.db, stmts, tracer);
  };
  return RunTextWorkload(opt, w);
}

}  // namespace perfbench
