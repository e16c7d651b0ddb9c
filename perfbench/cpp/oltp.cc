// oltp: a durable database on disk, two client sessions on serial
// engines, each mixing prepared key lookups and traversals (snapshot
// read transactions) with insert and update write transactions
// (Begin(kWrite) -> Execute -> Commit, retried on Status::Conflict).
// This is the workload where commit, the writer slot, copy-on-write
// snapshots, the WAL and plan-cache invalidation do real work.
//
// Answers are checked exactly against a model of the data: each client
// only updates its own half of the original people and only wires edges
// out of nodes it inserted, so the original FRIEND structure never
// changes and every client knows the scores it reads. After the timed
// slice (see kSlices) the database is closed, reopened and checked for
// every acknowledged insert, update and edge; the next slice sets it up
// afresh.
#include <sys/stat.h>

#include <algorithm>
#include <cstdlib>
#include <filesystem>
#include <mutex>
#include <optional>
#include <set>
#include <thread>

#include "common.h"
#include "src/core/session.h"

namespace perfbench {
namespace {

constexpr int64_t kPeople = 20000;
constexpr int kFriends = 4;
constexpr int kClients = 2;
constexpr int64_t kInsertIdBase = 1000000;
// Pause before retrying Begin(kWrite) after Status::Conflict.
constexpr std::chrono::microseconds kConflictBackoff{20};

const char* const kLookup =
    "MATCH (p:Person {id: $id}) RETURN p.name AS name, p.score AS score";
const char* const kTraverse[3] = {
    "MATCH (p:Person {id: $id})-[:FRIEND]->(f) RETURN f.id AS id ORDER BY id",
    "MATCH (p:Person {id: $id})-[:FRIEND]->(f)-[:FRIEND]->(g) "
    "RETURN count(DISTINCT g) AS n",
    "MATCH (p:Person {id: $id})-[:FRIEND*1..3]->(g) "
    "RETURN count(DISTINCT g) AS n"};
const char* const kInsert =
    "CREATE (:Person {id: $id, name: $name, score: $score})";
const char* const kUpdateScore =
    "MATCH (p:Person {id: $id}) SET p.score = p.score + $d";
const char* const kAddEdge =
    "MATCH (a:Person {id: $a}), (b:Person {id: $b}) CREATE (a)-[:FRIEND]->(b)";

/// The seeded original graph: scores and FRIEND out-neighbours.
struct Data {
  std::vector<int64_t> score;
  std::vector<std::vector<int64_t>> out;
};

Data MakeData(Rng& rng) {
  Data d;
  d.score.resize(kPeople);
  d.out.resize(kPeople);
  for (int64_t i = 0; i < kPeople; ++i) {
    d.score[i] = static_cast<int64_t>(Pick(rng, 1000));
    while (static_cast<int>(d.out[i].size()) < kFriends) {
      int64_t j = static_cast<int64_t>(Pick(rng, kPeople));
      if (j != i && std::find(d.out[i].begin(), d.out[i].end(), j) ==
                        d.out[i].end()) {
        d.out[i].push_back(j);
      }
    }
  }
  return d;
}

/// Expected count(DISTINCT g) of traversal `kind` from `id`: kind 1 is
/// exactly two FRIEND hops; kind 2 is `*1..3`, every node reachable by a
/// walk of one to three hops (the same set under the trail semantics:
/// the shortest walk to a node never repeats an edge).
int64_t ExpectedCount(const Data& d, int64_t id, int kind) {
  std::set<int64_t> seen;
  std::set<int64_t> frontier = {id};
  for (int hop = 1; hop <= (kind == 1 ? 2 : 3); ++hop) {
    std::set<int64_t> next;
    for (int64_t n : frontier) next.insert(d.out[n].begin(), d.out[n].end());
    if (kind == 2 || hop == 2) seen.insert(next.begin(), next.end());
    frontier = std::move(next);
  }
  return static_cast<int64_t>(seen.size());
}

int64_t FileSize(const std::string& path) {
  struct stat sb {};
  return ::stat(path.c_str(), &sb) == 0 ? sb.st_size : 0;
}

Database OpenDurable(const std::string& dir) {
  Result<Database> db = Database::Open(dir);
  if (!db.ok()) Die("Open " + dir + ": " + db.status().ToString());
  CheckEngineOptions(*db, 1);
  return std::move(db).value();
}

struct SetupTimes {
  Elapsed setup;
  double checkpoint_ms = 0;
  double checkpoint_bytes = 0;
  double recovery_ms = 0;
};

/// Loads the graph through the setup API into an empty directory,
/// checkpoints, closes and reopens (recovery from the checkpoint).
SetupTimes Setup(const Data& d, const std::string& dir,
                 std::optional<Database>* db) {
  SetupTimes t;
  db->reset();
  std::filesystem::remove_all(dir);
  Stopwatch watch;
  db->emplace(OpenDurable(dir));
  gqlite::PropertyGraph& g = (*db)->graph();
  std::vector<gqlite::NodeId> ids;
  ids.reserve(kPeople);
  for (int64_t i = 0; i < kPeople; ++i) {
    ids.push_back(g.CreateNode(
        {"Person"}, {{"id", Value::Int(i)},
                     {"name", Value::String("P" + std::to_string(i))},
                     {"score", Value::Int(d.score[i])}}));
  }
  for (int64_t i = 0; i < kPeople; ++i) {
    for (int64_t j : d.out[i]) {
      if (!g.CreateRelationship(ids[i], ids[j], "FRIEND").ok()) {
        Die("CreateRelationship failed in set-up");
      }
    }
  }
  int64_t c0 = NowNs();
  gqlite::Status st = (*db)->Checkpoint();
  if (!st.ok()) Die("Checkpoint: " + st.ToString());
  t.checkpoint_ms = static_cast<double>(NowNs() - c0) / 1e6;
  t.checkpoint_bytes = static_cast<double>(FileSize(dir + "/checkpoint.gql"));
  st = (*db)->Close();
  if (!st.ok()) Die("Close: " + st.ToString());
  db->reset();
  int64_t r0 = NowNs();
  db->emplace(OpenDurable(dir));
  t.recovery_ms = static_cast<double>(NowNs() - r0) / 1e6;
  t.setup = watch.Seconds();
  return t;
}

/// One client session and the part of the data model it owns.
struct Client {
  int index = 0;
  Rng rng;
  std::unique_ptr<gqlite::Session> session;
  gqlite::PreparedQuery lookup, traverse[3], insert, update_score, add_edge;
  /// Current score of every original person this client owns
  /// (id % kClients == index); others stay unused.
  std::vector<int64_t> score;
  /// Acknowledged inserts: (id, score).
  std::vector<std::pair<int64_t, int64_t>> inserted;
  int64_t next_insert = 0;
  int64_t edges_added = 0;
  /// Acknowledged write transactions on the current set-up.
  int64_t acked = 0;

  int64_t ops = 0;
  int64_t failed = 0;
  int64_t writes = 0;
  int64_t conflicts = 0;
  std::vector<double> writer_wait_us;
  Tracer* tracer = nullptr;
};

gqlite::PreparedQuery MustPrepare(Database& db, const char* text) {
  auto p = db.Prepare(text);
  if (!p.ok()) Die(std::string("prepare: ") + text);
  return *p;
}

/// Gives every client a session and prepared statements on a fresh
/// set-up and resets its model to the original data.
void ResetClients(std::vector<Client>& clients, Database& db, const Data& d) {
  for (Client& c : clients) {
    c.session = db.CreateSession();
    c.lookup = MustPrepare(db, kLookup);
    for (int k = 0; k < 3; ++k) c.traverse[k] = MustPrepare(db, kTraverse[k]);
    c.insert = MustPrepare(db, kInsert);
    c.update_score = MustPrepare(db, kUpdateScore);
    c.add_edge = MustPrepare(db, kAddEdge);
    c.score = d.score;
    c.inserted.clear();
    c.next_insert = 0;
    c.edges_added = 0;
    c.acked = 0;
    c.failed = 0;
  }
}

void Fail(Client& c, const std::string& what) {
  ++c.failed;
  std::fprintf(stderr, "perfbench: oltp client %d: %s\n", c.index,
               what.c_str());
}

int64_t OwnOriginal(Client& c) {
  return static_cast<int64_t>(Pick(c.rng, kPeople / kClients)) * kClients +
         c.index;
}

/// A snapshot read transaction running one prepared statement.
Result<QueryResult> Read(Client& c, int64_t op, int32_t root,
                         const gqlite::PreparedQuery& q, int64_t id) {
  {
    SpanScope span(c.tracer, "session.begin_read", op, root);
    gqlite::Status st = c.session->Begin(gqlite::TxnMode::kRead);
    if (!st.ok()) return st;
  }
  Result<QueryResult> r = [&] {
    SpanScope span(c.tracer, "runtime.execute", op, root);
    return c.session->Execute(q, {{"id", Value::Int(id)}});
  }();
  SpanScope span(c.tracer, "session.end_read", op, root);
  gqlite::Status st = c.session->Commit();
  if (r.ok() && !st.ok()) return st;
  return r;
}

void DoLookup(Client& c, int64_t op, int32_t root) {
  int64_t id;
  int64_t expect_score;
  std::string expect_name;
  if (!c.inserted.empty() && Pick(c.rng, 5) == 0) {
    const auto& ins = c.inserted[Pick(c.rng, c.inserted.size())];
    id = ins.first;
    expect_score = ins.second;
    expect_name = "N" + std::to_string(id);
  } else {
    id = OwnOriginal(c);
    expect_score = c.score[id];
    expect_name = "P" + std::to_string(id);
  }
  auto r = Read(c, op, root, c.lookup, id);
  if (!r.ok()) return Fail(c, "lookup: " + r.status().ToString());
  const auto& rows = r->table.rows();
  if (rows.size() != 1 || !rows[0][0].is_string() ||
      rows[0][0].AsString() != expect_name || !rows[0][1].is_int() ||
      rows[0][1].AsInt() != expect_score) {
    Fail(c, "lookup of id " + std::to_string(id) + " returned a wrong row");
  }
}

void DoTraverse(Client& c, const Data& d, int64_t op, int32_t root) {
  int kind = static_cast<int>(Pick(c.rng, 3));
  int64_t id = static_cast<int64_t>(Pick(c.rng, kPeople));
  auto r = Read(c, op, root, c.traverse[kind], id);
  if (!r.ok()) return Fail(c, "traverse: " + r.status().ToString());
  const auto& rows = r->table.rows();
  bool ok;
  if (kind == 0) {
    std::vector<int64_t> expect = d.out[id];
    std::sort(expect.begin(), expect.end());
    ok = rows.size() == expect.size();
    for (size_t i = 0; ok && i < rows.size(); ++i) {
      ok = rows[i][0].is_int() && rows[i][0].AsInt() == expect[i];
    }
  } else {
    int64_t expect = ExpectedCount(d, id, kind);
    ok = rows.size() == 1 && rows[0][0].is_int() && rows[0][0].AsInt() == expect;
  }
  if (!ok) Fail(c, "traverse kind " + std::to_string(kind) + " of id " +
                       std::to_string(id) + " returned a wrong answer");
}

/// A write transaction: takes the writer slot (retrying on conflict),
/// runs one statement, checks its update counts and commits. Returns
/// true when the commit was acknowledged.
bool Write(Client& c, int64_t op, int32_t root, const gqlite::PreparedQuery& q,
           const ValueMap& params,
           bool (*check)(const gqlite::UpdateStats&)) {
  int64_t first = NowNs();
  while (true) {
    int64_t attempt = NowNs();
    gqlite::Status st = c.session->Begin(gqlite::TxnMode::kWrite);
    if (st.ok()) {
      // Only the attempt that got the slot is a span: failed attempts
      // are counted as conflicts and their time as writer wait.
      if (c.tracer) {
        c.tracer->Record("session.writer_wait", first, attempt, op, root);
        c.tracer->Record("session.begin_write", attempt, NowNs(), op, root);
      }
      c.writer_wait_us.push_back(static_cast<double>(attempt - first) / 1e3);
      break;
    }
    if (st.code() != gqlite::StatusCode::kConflict) {
      Fail(c, "begin write: " + st.ToString());
      return false;
    }
    ++c.conflicts;
    std::this_thread::sleep_for(kConflictBackoff);
  }
  Result<QueryResult> r = [&] {
    SpanScope span(c.tracer, "session.statement", op, root);
    return c.session->Execute(q, params);
  }();
  if (!r.ok() || !check(r->stats)) {
    (void)c.session->Rollback();
    Fail(c, r.ok() ? "write statement changed the wrong number of entities"
                   : "write statement: " + r.status().ToString());
    return false;
  }
  SpanScope span(c.tracer, "session.commit", op, root);
  gqlite::Status st = c.session->Commit();
  if (!st.ok()) {
    Fail(c, "commit: " + st.ToString());
    return false;
  }
  ++c.writes;
  ++c.acked;
  return true;
}

void DoInsert(Client& c, int64_t op, int32_t root) {
  int64_t id = kInsertIdBase * (c.index + 1) + c.next_insert++;
  int64_t score = static_cast<int64_t>(Pick(c.rng, 1000));
  ValueMap params = {{"id", Value::Int(id)},
                     {"name", Value::String("N" + std::to_string(id))},
                     {"score", Value::Int(score)}};
  if (Write(c, op, root, c.insert, params,
            [](const gqlite::UpdateStats& s) { return s.nodes_created == 1; })) {
    c.inserted.push_back({id, score});
  }
}

void DoUpdate(Client& c, int64_t op, int32_t root) {
  if (c.inserted.empty() || Pick(c.rng, 2) == 0) {
    int64_t id = OwnOriginal(c);
    int64_t delta = 1 + static_cast<int64_t>(Pick(c.rng, 9));
    if (Write(c, op, root, c.update_score,
              {{"id", Value::Int(id)}, {"d", Value::Int(delta)}},
              [](const gqlite::UpdateStats& s) {
                return s.properties_set == 1;
              })) {
      c.score[id] += delta;
    }
    return;
  }
  int64_t a = c.inserted[Pick(c.rng, c.inserted.size())].first;
  int64_t b = static_cast<int64_t>(Pick(c.rng, kPeople));
  if (Write(c, op, root, c.add_edge,
            {{"a", Value::Int(a)}, {"b", Value::Int(b)}},
            [](const gqlite::UpdateStats& s) { return s.rels_created == 1; })) {
    ++c.edges_added;
  }
}

/// What all clients did in one timed window.
struct Window {
  Elapsed time;
  int64_t ops = 0;
  int64_t writes = 0;
  int64_t conflicts = 0;
  std::vector<double> writer_wait_us;

  void Add(const Window& o) {
    time.Add(o.time);
    ops += o.ops;
    writes += o.writes;
    conflicts += o.conflicts;
    writer_wait_us.insert(writer_wait_us.end(), o.writer_wait_us.begin(),
                          o.writer_wait_us.end());
  }
};

/// Runs every client's closed loop on its own thread for `seconds` or,
/// with `limits`, for exactly (*limits)[i] ops of client i. Op latencies
/// go to `wall_us` and the client thread's CPU time per op to `cpu_us`
/// when they are given; the engines are serial, so an op's work all runs
/// on its client's thread.
Window RunClients(std::vector<Client>& clients, const Data& d, double seconds,
                  LatencyLog* wall_us = nullptr, LatencyLog* cpu_us = nullptr,
                  const std::vector<int64_t>* limits = nullptr) {
  // A synthetic mix on YCSB workload A's proportions: half reads, half
  // writes (its "update heavy" mix), each half split evenly between its
  // two classes.
  static const std::vector<double> kMix = {0.25, 0.25, 0.25, 0.25};
  static const char* const kOpClass[4] = {"lookup", "traverse", "insert",
                                          "update"};
  for (Client& c : clients) {
    c.ops = c.writes = c.conflicts = 0;
    c.writer_wait_us.clear();
  }
  Stopwatch watch;
  int64_t deadline = NowNs() + static_cast<int64_t>(seconds * 1e9);
  std::mutex log_mu;
  std::vector<std::thread> threads;
  for (Client& c : clients) {
    threads.emplace_back([&c, &d, deadline, wall_us, cpu_us, limits,
                          &log_mu] {
      while (limits ? c.ops < (*limits)[c.index] : NowNs() < deadline) {
        int kind = static_cast<int>(PickWeighted(c.rng, kMix));
        int64_t op = c.ops++ * kClients + c.index;
        int64_t t0 = NowNs();
        int64_t cpu0 = ThreadCpuNs();
        {
          SpanScope root(c.tracer, "op", op, -1);
          switch (kind) {
            case 0: DoLookup(c, op, root.id()); break;
            case 1: DoTraverse(c, d, op, root.id()); break;
            case 2: DoInsert(c, op, root.id()); break;
            default: DoUpdate(c, op, root.id()); break;
          }
        }
        double cpu = static_cast<double>(ThreadCpuNs() - cpu0) / 1e3;
        double us = static_cast<double>(NowNs() - t0) / 1e3;
        if (wall_us) {
          std::lock_guard<std::mutex> lock(log_mu);
          wall_us->Add(kOpClass[kind], us);
          cpu_us->Add(kOpClass[kind], cpu);
        }
      }
    });
  }
  for (auto& t : threads) t.join();
  Window w;
  w.time = watch.Seconds();
  for (const Client& c : clients) {
    Window part;
    part.ops = c.ops;
    part.writes = c.writes;
    part.conflicts = c.conflicts;
    part.writer_wait_us = c.writer_wait_us;
    w.Add(part);
  }
  return w;
}

/// Reopens the database and counts acknowledged writes that did not
/// survive (and any committed state the model does not explain).
int64_t VerifyAfterReopen(std::optional<Database>* db, const std::string& dir,
                          const Data& d, const std::vector<Client>& clients) {
  gqlite::Status st = (*db)->Close();
  if (!st.ok()) Die("Close: " + st.ToString());
  db->reset();
  Result<Database> opened = Database::Open(dir);
  if (!opened.ok()) {
    // Nothing committed can be read back: every acknowledged write is lost.
    int64_t acked = 0;
    for (const Client& c : clients) acked += c.acked;
    std::fprintf(stderr, "perfbench: oltp reopen failed: %s\n",
                 opened.status().ToString().c_str());
    return std::max<int64_t>(acked, 1);
  }
  db->emplace(std::move(opened).value());
  Database& reopened = **db;
  int64_t lost = 0;

  std::set<int64_t> expect_ids;
  int64_t expect_edges = kPeople * kFriends;
  std::vector<int64_t> expect_score = d.score;
  int64_t expect_inserted_sum = 0;
  for (const Client& c : clients) {
    for (const auto& [id, score] : c.inserted) {
      expect_ids.insert(id);
      expect_inserted_sum += score;
    }
    expect_edges += c.edges_added;
    for (int64_t id = c.index; id < kPeople; id += kClients) {
      expect_score[id] = c.score[id];
    }
  }

  auto ins = MustRun(reopened.Execute("MATCH (p:Person) WHERE p.id >= " +
                                      std::to_string(kInsertIdBase) +
                                      " RETURN p.id AS id, p.score AS score"),
                     "verify inserts");
  std::set<int64_t> got_ids;
  int64_t got_inserted_sum = 0;
  for (const auto& row : ins.table.rows()) {
    if (!row[0].is_int() || !row[1].is_int()) {
      ++lost;
      continue;
    }
    got_ids.insert(row[0].AsInt());
    got_inserted_sum += row[1].AsInt();
  }
  for (int64_t id : expect_ids) lost += got_ids.count(id) == 0;
  for (int64_t id : got_ids) lost += expect_ids.count(id) == 0;
  if (got_inserted_sum != expect_inserted_sum && lost == 0) ++lost;

  auto orig = MustRun(reopened.Execute("MATCH (p:Person) WHERE p.id < " +
                                       std::to_string(kPeople) +
                                       " RETURN p.id AS id, p.score AS score"),
                      "verify scores");
  if (static_cast<int64_t>(orig.table.NumRows()) != kPeople) ++lost;
  for (const auto& row : orig.table.rows()) {
    int64_t id = row[0].is_int() ? row[0].AsInt() : -1;
    lost += id < 0 || id >= kPeople || !row[1].is_int() ||
            row[1].AsInt() != expect_score[id];
  }

  auto edges = MustRun(
      reopened.Execute("MATCH (:Person)-[r:FRIEND]->(:Person) RETURN count(r)"),
      "verify edges");
  const auto& edge_rows = edges.table.rows();
  if (edge_rows.size() != 1 || !edge_rows[0][0].is_int()) {
    ++lost;
  } else {
    lost += std::abs(edge_rows[0][0].AsInt() - expect_edges);
  }
  if (lost > 0) {
    std::fprintf(stderr,
                 "perfbench: oltp reopen check: %lld acknowledged writes "
                 "missing or unexplained\n",
                 static_cast<long long>(lost));
  }
  return lost;
}

/// Ends the clients' sessions, closes and reopens the database and
/// returns the clients' failed ops plus the acknowledged writes that did
/// not survive (and any committed state the model does not explain).
int64_t CloseAndVerify(std::optional<Database>* db, const std::string& dir,
                       const Data& d, std::vector<Client>& clients) {
  int64_t failed = 0;
  for (Client& c : clients) {
    failed += c.failed;
    c.session.reset();
  }
  return failed + VerifyAfterReopen(db, dir, d, clients);
}

}  // namespace

Report RunOltp(const Options& opt) {
  Rng rng(opt.seed);
  Data data = MakeData(rng);
  std::string dir = opt.work_dir + "/oltp-db";
  std::string wal = dir + "/wal.log";
  std::vector<Client> clients(kClients);
  for (int i = 0; i < kClients; ++i) {
    clients[i].index = i;
    clients[i].rng.seed(rng());
  }

  Report report;
  std::optional<Database> db;
  std::vector<SetupTimes> setups;
  LatencyLog wall_us;
  LatencyLog cpu_us;
  Window measured;
  Window traced;
  std::vector<Tracer> tracers(kClients);
  LayerInputs in;
  for (int i = 0; i < kClients; ++i) in.op_tracers.push_back(&tracers[i]);
  for (int slice = 0; slice < kSlices; ++slice) {
    setups.push_back(Setup(data, dir, &db));
    ResetClients(clients, *db, data);
    report.attempted += RunClients(clients, data, kWarmupSeconds).ops;
    if (!opt.trace) {
      measured.Add(RunClients(clients, data, opt.seconds / kSlices, &wall_us,
                              &cpu_us));
    } else {
      // The traced replay draws the same op sequence per client (same
      // generator state, same op count) as the untraced half.
      std::vector<Rng> rngs;
      for (Client& c : clients) rngs.push_back(c.rng);
      measured.Add(RunClients(clients, data, opt.seconds / (2 * kSlices)));
      std::vector<int64_t> limits;
      for (int i = 0; i < kClients; ++i) {
        limits.push_back(clients[i].ops);
        clients[i].rng = rngs[i];
        clients[i].tracer = &tracers[i];
      }
      Counters before = ReadCounters(*db, wal);
      traced.Add(RunClients(clients, data, 0, nullptr, nullptr, &limits));
      AddDelta(ReadCounters(*db, wal), before, &in.traced);
      for (Client& c : clients) c.tracer = nullptr;
    }
    report.failed += CloseAndVerify(&db, dir, data, clients);
  }
  report.attempted += measured.ops + traced.ops;

  if (!opt.trace) {
    std::vector<Elapsed> setup;
    for (const SetupTimes& t : setups) setup.push_back(t.setup);
    AddEndToEnd(wall_us, cpu_us, measured.time, setup, &report);
  } else {
    in.ops = traced.ops;
    in.writes = traced.writes;
    in.conflicts = traced.conflicts;
    in.writer_wait_us = traced.writer_wait_us;
    in.device_fdatasync_us = DeviceFdatasyncUs(dir);
    std::vector<double> ckpt_ms, ckpt_bytes, recovery_ms;
    for (const SetupTimes& t : setups) {
      ckpt_ms.push_back(t.checkpoint_ms);
      ckpt_bytes.push_back(t.checkpoint_bytes);
      recovery_ms.push_back(t.recovery_ms);
    }
    in.checkpoint_ms = Median(ckpt_ms);
    in.checkpoint_bytes = Median(ckpt_bytes);
    in.recovery_ms = Median(recovery_ms);

    Tracer probe_tracer;
    std::vector<ProbeStmt> stmts;
    ValueMap id = {{"id", Value::Int(kPeople / 2)}};
    stmts.push_back({"lookup", kLookup, id, true, static_cast<size_t>(kPeople)});
    for (const char* t : kTraverse) stmts.push_back({"traverse", t, id, true, 0});
    for (const char* t : {kInsert, kUpdateScore, kAddEdge}) {
      stmts.push_back({"write", t, {}, false, 0});
    }
    if (!db) Die("the database did not reopen");
    in.probes = ProbeLayers(*db, stmts, &probe_tracer);
    AddLayerMetrics(in, &report);
    AddTraceMetrics(static_cast<double>(measured.ops) / measured.time.cpu,
                    static_cast<double>(traced.ops) / traced.time.cpu,
                    traced.ops, in.op_tracers, &report);
    std::string spans = opt.work_dir + "/spans-oltp.csv";
    std::vector<const Tracer*> all = in.op_tracers;
    all.push_back(&probe_tracer);
    if (!WriteSpans(spans, all)) Die("cannot write " + spans);
    report.Note("spans written to " + spans);
  }
  db.reset();
  std::filesystem::remove_all(dir);
  return report;
}

}  // namespace perfbench
