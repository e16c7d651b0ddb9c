// Storage layer: WAL format (framing, CRC, torn tails), checkpoint
// round-trips, and the Database durability contract (commit / rollback
// / reopen / checkpoint / close) — the crash model of the SIGMOD'18
// engine's persistence layer.
#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include "src/core/database.h"
#include "src/core/session.h"
#include "src/graph/graph_io.h"
#include "src/storage/checkpoint.h"
#include "src/storage/storage_engine.h"
#include "src/storage/wal.h"
#include "tests/graph_invariants.h"

namespace gqlite {
namespace {

namespace fs = std::filesystem;

// Fresh scratch directory under the gtest temp root; wiped up-front so
// reruns never see a previous run's files (names are fixed — the
// determinism lint bans clocks/entropy in tests).
std::string FreshDir(const std::string& name) {
  std::string dir = ::testing::TempDir() + "gqlite_storage_" + name;
  fs::remove_all(dir);
  return dir;
}

std::string WalPath(const std::string& dir) { return dir + "/wal.log"; }

uint64_t FileSize(const std::string& path) {
  return static_cast<uint64_t>(fs::file_size(path));
}

// Truncates / corrupts raw log bytes to simulate crashes and bit rot.
void TruncateFile(const std::string& path, uint64_t size) {
  fs::resize_file(path, size);
}

void FlipByte(const std::string& path, uint64_t offset) {
  std::fstream f(path, std::ios::in | std::ios::out | std::ios::binary);
  ASSERT_TRUE(f.good());
  f.seekg(static_cast<std::streamoff>(offset));
  char b = 0;
  f.read(&b, 1);
  b = static_cast<char>(b ^ 0x5a);
  f.seekp(static_cast<std::streamoff>(offset));
  f.write(&b, 1);
}

WalBatch MakeBatch(uint64_t lsn) {
  WalBatch batch;
  batch.lsn = lsn;
  WalOp label;
  label.type = WalOpType::kInternLabel;
  label.id = 1;
  label.name = "Person";
  batch.ops.push_back(label);
  WalOp node;
  node.type = WalOpType::kCreateNode;
  node.id = lsn - 1;  // fresh-graph node ids: batch n creates node n-1
  node.labels = {"Person"};
  node.props = {{"name", Value::String("n")},
                {"age", Value::Int(static_cast<int64_t>(lsn))},
                {"score", Value::Float(2.5)},
                {"active", Value::Bool(true)},
                {"missing", Value::Null()}};
  batch.ops.push_back(node);
  return batch;
}

Database MustOpen(const std::string& dir) {
  auto opened = Database::Open(dir);
  EXPECT_TRUE(opened.ok()) << opened.status().ToString();
  return std::move(*opened);
}

int64_t CountNodes(Database& db) {
  auto r = db.Execute("MATCH (n) RETURN count(n) AS c");
  EXPECT_TRUE(r.ok()) << r.status().ToString();
  return r->table.rows()[0][0].AsInt();
}

// ---- WAL format units ----------------------------------------------------

constexpr uint64_t kWalHeaderBytes = 12;  // magic "GQLWAL1\n" + u32 version

TEST(WalFormat, EmptyLogIsHeaderOnly) {
  std::string dir = FreshDir("wal_empty");
  ASSERT_TRUE(fs::create_directories(dir));
  auto writer = WalWriter::Open(WalPath(dir));
  ASSERT_TRUE(writer.ok()) << writer.status().ToString();

  auto contents = ReadWal(WalPath(dir));
  ASSERT_TRUE(contents.ok()) << contents.status().ToString();
  EXPECT_TRUE(contents->batches.empty());
  EXPECT_EQ(contents->file_bytes, kWalHeaderBytes);
  EXPECT_EQ(contents->valid_bytes, kWalHeaderBytes);
}

TEST(WalFormat, MissingLogReadsAsEmpty) {
  std::string dir = FreshDir("wal_missing");
  auto contents = ReadWal(WalPath(dir));
  ASSERT_TRUE(contents.ok()) << contents.status().ToString();
  EXPECT_TRUE(contents->batches.empty());
  EXPECT_EQ(contents->file_bytes, 0u);
  EXPECT_EQ(contents->valid_bytes, 0u);
}

TEST(WalFormat, PayloadCodecRoundTrip) {
  WalBatch batch = MakeBatch(7);
  WalOp rel;
  rel.type = WalOpType::kCreateRelationship;
  rel.id = 0;
  rel.src = 7;
  rel.tgt = 7;
  rel.name = "KNOWS";
  rel.props = {{"since", Value::Int(1833)}};
  batch.ops.push_back(rel);

  std::string payload;
  EncodeWalBatchPayload(batch, &payload);
  auto decoded = DecodeWalBatchPayload(payload);
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_EQ(decoded->lsn, 7u);
  ASSERT_EQ(decoded->ops.size(), batch.ops.size());
  for (size_t i = 0; i < batch.ops.size(); ++i) {
    EXPECT_EQ(decoded->ops[i].type, batch.ops[i].type);
    EXPECT_EQ(decoded->ops[i].id, batch.ops[i].id);
    EXPECT_EQ(decoded->ops[i].name, batch.ops[i].name);
    EXPECT_EQ(decoded->ops[i].labels, batch.ops[i].labels);
    ASSERT_EQ(decoded->ops[i].props.size(), batch.ops[i].props.size());
    for (size_t p = 0; p < batch.ops[i].props.size(); ++p) {
      EXPECT_EQ(decoded->ops[i].props[p].first, batch.ops[i].props[p].first);
      EXPECT_EQ(decoded->ops[i].props[p].second.ToString(),
                batch.ops[i].props[p].second.ToString());
    }
  }
}

TEST(WalFormat, AppendThenReadBack) {
  std::string dir = FreshDir("wal_roundtrip");
  ASSERT_TRUE(fs::create_directories(dir));
  {
    auto writer = WalWriter::Open(WalPath(dir));
    ASSERT_TRUE(writer.ok());
    ASSERT_TRUE((*writer)->Append(MakeBatch(1)).ok());
    ASSERT_TRUE((*writer)->Append(MakeBatch(2)).ok());
    ASSERT_TRUE((*writer)->Append(MakeBatch(3)).ok());
  }
  auto contents = ReadWal(WalPath(dir));
  ASSERT_TRUE(contents.ok());
  ASSERT_EQ(contents->batches.size(), 3u);
  EXPECT_EQ(contents->batches[0].lsn, 1u);
  EXPECT_EQ(contents->batches[1].lsn, 2u);
  EXPECT_EQ(contents->batches[2].lsn, 3u);
  EXPECT_EQ(contents->valid_bytes, contents->file_bytes);
}

TEST(WalFormat, TornFinalFrameDropsOnlyTheTail) {
  std::string dir = FreshDir("wal_torn");
  ASSERT_TRUE(fs::create_directories(dir));
  uint64_t after_two = 0;
  {
    auto writer = WalWriter::Open(WalPath(dir));
    ASSERT_TRUE(writer.ok());
    ASSERT_TRUE((*writer)->Append(MakeBatch(1)).ok());
    ASSERT_TRUE((*writer)->Append(MakeBatch(2)).ok());
    after_two = (*writer)->size();
    ASSERT_TRUE((*writer)->Append(MakeBatch(3)).ok());
  }
  // Cut the last frame mid-payload: a crash during the third commit's
  // write. Every prefix length inside the frame must recover the first
  // two batches.
  uint64_t full = FileSize(WalPath(dir));
  for (uint64_t cut = after_two + 1; cut < full; cut += 3) {
    TruncateFile(WalPath(dir), cut);
    auto contents = ReadWal(WalPath(dir));
    ASSERT_TRUE(contents.ok()) << "cut=" << cut;
    ASSERT_EQ(contents->batches.size(), 2u) << "cut=" << cut;
    EXPECT_EQ(contents->valid_bytes, after_two) << "cut=" << cut;
    EXPECT_EQ(contents->file_bytes, cut) << "cut=" << cut;
  }
}

TEST(WalFormat, CrcCorruptionMidLogDropsFromThere) {
  std::string dir = FreshDir("wal_crc");
  ASSERT_TRUE(fs::create_directories(dir));
  uint64_t after_one = 0;
  {
    auto writer = WalWriter::Open(WalPath(dir));
    ASSERT_TRUE(writer.ok());
    ASSERT_TRUE((*writer)->Append(MakeBatch(1)).ok());
    after_one = (*writer)->size();
    ASSERT_TRUE((*writer)->Append(MakeBatch(2)).ok());
    ASSERT_TRUE((*writer)->Append(MakeBatch(3)).ok());
  }
  // Flip one payload byte in the second frame (past its 8-byte frame
  // header): batches 2 AND 3 must both be dropped — a valid-looking
  // frame after a corrupt one could be a ghost of a previous log
  // generation, so recovery never skips over corruption.
  FlipByte(WalPath(dir), after_one + 9);
  auto contents = ReadWal(WalPath(dir));
  ASSERT_TRUE(contents.ok());
  ASSERT_EQ(contents->batches.size(), 1u);
  EXPECT_EQ(contents->batches[0].lsn, 1u);
  EXPECT_EQ(contents->valid_bytes, after_one);
  EXPECT_GT(contents->file_bytes, contents->valid_bytes);
}

TEST(WalFormat, BadMagicIsCorruption) {
  std::string dir = FreshDir("wal_magic");
  ASSERT_TRUE(fs::create_directories(dir));
  {
    const char bytes[] = "NOTAWAL!\x01\x00\x00\x00extra";
    std::ofstream f(WalPath(dir), std::ios::binary);
    f.write(bytes, sizeof(bytes) - 1);
  }
  auto contents = ReadWal(WalPath(dir));
  EXPECT_FALSE(contents.ok());
}

TEST(WalFormat, ReplayIsIdempotentAcrossReads) {
  std::string dir = FreshDir("wal_idem");
  ASSERT_TRUE(fs::create_directories(dir));
  {
    auto writer = WalWriter::Open(WalPath(dir));
    ASSERT_TRUE(writer.ok());
    ASSERT_TRUE((*writer)->Append(MakeBatch(1)).ok());
    ASSERT_TRUE((*writer)->Append(MakeBatch(2)).ok());
  }
  // Applying the same log to two fresh graphs yields identical state;
  // re-applying an already-applied batch to the first graph fails
  // loudly (ids would not match) instead of silently double-applying.
  auto contents = ReadWal(WalPath(dir));
  ASSERT_TRUE(contents.ok());
  PropertyGraph a, b;
  for (const WalBatch& batch : contents->batches) {
    ASSERT_TRUE(ApplyWalBatch(&a, batch).ok());
    ASSERT_TRUE(ApplyWalBatch(&b, batch).ok());
  }
  EXPECT_EQ(DumpToCypher(a), DumpToCypher(b));
  EXPECT_FALSE(ApplyWalBatch(&a, contents->batches[0]).ok());
}

// ---- Checkpoint round-trip -----------------------------------------------

TEST(Checkpoint, BodyRoundTripPreservesGraphAndInterners) {
  PropertyGraph g;
  NodeId ada = g.CreateNode({"Person"}, {{"name", Value::String("Ada")},
                                         {"born", Value::Int(1815)}});
  NodeId chas = g.CreateNode({"Person", "Author"},
                             {{"name", Value::String("Charles")}});
  NodeId math = g.CreateNode({"Topic"}, {{"name", Value::String("Math")}});
  ASSERT_TRUE(g.CreateRelationship(ada, chas, "KNOWS",
                                   {{"since", Value::Int(1833)}})
                  .ok());
  ASSERT_TRUE(g.CreateRelationship(ada, math, "LIKES").ok());
  // Tombstones and label churn must survive verbatim too.
  NodeId doomed = g.CreateNode({"Person"});
  ASSERT_TRUE(g.DetachDeleteNode(doomed).ok());
  g.AddLabel(chas, "Emeritus");
  g.RemoveLabel(chas, "Author");

  std::string body;
  StorageInternals::EncodeGraph(g, /*last_lsn=*/42, &body);
  auto recovered = StorageInternals::DecodeGraph(body);
  ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
  EXPECT_EQ(recovered->last_lsn, 42u);
  const PropertyGraph& r = *recovered->graph;

  EXPECT_EQ(DumpToCypher(r), DumpToCypher(g));
  EXPECT_EQ(r.NumNodes(), g.NumNodes());
  EXPECT_EQ(r.NumNodeSlots(), g.NumNodeSlots());  // tombstone kept
  EXPECT_EQ(r.NumRels(), g.NumRels());
  EXPECT_EQ(r.stats_version(), g.stats_version());

  // Interners are bit-identical: same ids, same strings, in order —
  // including "Author", which no live node references anymore.
  ASSERT_EQ(r.labels().size(), g.labels().size());
  for (SymbolId id = 1; id < g.labels().size(); ++id) {
    EXPECT_EQ(r.labels().ToString(id), g.labels().ToString(id));
  }
  ASSERT_EQ(r.types().size(), g.types().size());
  for (SymbolId id = 1; id < g.types().size(); ++id) {
    EXPECT_EQ(r.types().ToString(id), g.types().ToString(id));
  }
  ASSERT_EQ(r.keys().size(), g.keys().size());
  for (SymbolId id = 1; id < g.keys().size(); ++id) {
    EXPECT_EQ(r.keys().ToString(id), g.keys().ToString(id));
  }

  // Statistics survive: label counts drive the planner's estimates.
  EXPECT_EQ(r.LabelCounts(), g.LabelCounts());
}

TEST(Checkpoint, FileRoundTripAndCorruptionDetection) {
  std::string dir = FreshDir("ckp_file");
  ASSERT_TRUE(fs::create_directories(dir));
  std::string path = dir + "/checkpoint.gql";

  PropertyGraph g;
  g.CreateNode({"A"}, {{"x", Value::Int(1)}});
  ASSERT_TRUE(WriteCheckpointFile(path, g, /*last_lsn=*/9).ok());

  auto loaded = ReadCheckpointFile(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded->last_lsn, 9u);
  EXPECT_EQ(DumpToCypher(*loaded->graph), DumpToCypher(g));

  EXPECT_FALSE(ReadCheckpointFile(dir + "/nope.gql").ok());  // NotFound

  // Any flipped body byte must fail the CRC, not load garbage.
  FlipByte(path, FileSize(path) - 3);
  EXPECT_FALSE(ReadCheckpointFile(path).ok());
}

// ---- Checkpoint decode validation and record layout ------------------------

std::string Unhex(std::string_view hex) {
  std::string out;
  for (size_t i = 0; i + 1 < hex.size(); i += 2) {
    out.push_back(static_cast<char>(
        std::stoi(std::string(hex.substr(i, 2)), nullptr, 16)));
  }
  return out;
}

uint64_t GetU64(const std::string& body, size_t at) {
  uint64_t v = 0;
  for (size_t i = 0; i < 8; ++i) {
    v |= static_cast<uint64_t>(static_cast<unsigned char>(body[at + i]))
         << (8 * i);
  }
  return v;
}

void PutU64(std::string* body, size_t at, uint64_t v) {
  for (size_t i = 0; i < 8; ++i) {
    (*body)[at + i] = static_cast<char>((v >> (8 * i)) & 0xff);
  }
}

// Body of (n0)-[:T]->(n1:L), last_lsn 1. The byte offsets follow the
// checkpoint layout: seven u64 header fields (56 bytes); the label, type
// and key interners (u32 count, then u32 length + bytes per string: 9 +
// 9 + 4 bytes); node records (u8 deleted, u32 label count + u32 ids, u32
// property count, u32 out count + u64 rel ids, u32 in count + u64 rel
// ids); relationship records (u8 deleted, u64 src, u64 tgt, u32 type,
// u32 property count); then label postings (u32 count, then u32 label,
// u32 count, u64 node ids).
constexpr size_t kNode0OutRel = 91;
constexpr size_t kRel0Src = 133;
constexpr size_t kRel0Tgt = 141;
constexpr size_t kPostingNode = 169;

std::string TinyBody() {
  PropertyGraph g;
  NodeId n0 = g.CreateNode();
  NodeId n1 = g.CreateNode({"L"});
  EXPECT_TRUE(g.CreateRelationship(n0, n1, "T").ok());
  std::string body;
  StorageInternals::EncodeGraph(g, /*last_lsn=*/1, &body);
  // The offsets above still name what they claim to.
  EXPECT_EQ(GetU64(body, kNode0OutRel), 0u);
  EXPECT_EQ(GetU64(body, kRel0Src), 0u);
  EXPECT_EQ(GetU64(body, kRel0Tgt), 1u);
  EXPECT_EQ(GetU64(body, kPostingNode), 1u);
  return body;
}

// Decoding one patched u64 of the tiny body must fail with Corruption
// naming `what`, instead of loading ids that index past the records.
void ExpectPatchRejected(size_t at, uint64_t value, const std::string& what) {
  std::string body = TinyBody();
  ASSERT_TRUE(StorageInternals::DecodeGraph(body).ok());
  PutU64(&body, at, value);
  auto decoded = StorageInternals::DecodeGraph(body);
  ASSERT_FALSE(decoded.ok()) << "patch at " << at << " decoded";
  EXPECT_EQ(decoded.status().code(), StatusCode::kCorruption)
      << decoded.status().ToString();
  EXPECT_NE(decoded.status().message().find(what), std::string::npos)
      << decoded.status().ToString();
}

TEST(Checkpoint, DecodeRejectsAdjacencyPastTheRelationshipSlots) {
  ExpectPatchRejected(kNode0OutRel, 5, "past the slots");
}

TEST(Checkpoint, DecodeRejectsRelationshipEndpointPastTheNodeSlots) {
  ExpectPatchRejected(kRel0Tgt, 7, "endpoint past the node slots");
}

TEST(Checkpoint, DecodeRejectsPostingPastTheNodeSlots) {
  ExpectPatchRejected(kPostingNode, 9, "past the slots");
}

TEST(Checkpoint, DecodeRejectsAdjacencyNotIncidentToTheListingNode) {
  // r0 now claims to start at n1, but n0 lists it as outgoing.
  ExpectPatchRejected(kRel0Src, 1, "does not start there");
}

// A checkpoint body as written before adjacency entries carried the
// neighbour and type: the file format is unchanged, so it must decode to
// the same graph and re-encode to the same bytes. Graph: (a:Person:Admin
// {born}) after removing its first property `name`, (b:Person {name}),
// KNOWS a->b {since, w}, a->a and b->a, and a deleted node whose KNOWS
// relationship went with it.
const char* kGoldenBody =
      "0700000000000000030000000000000004000000000000000200000000000000"
      "030000000000000009000000000000000a000000000000000300000006000000"
      "506572736f6e0500000041646d696e0400000054656d7001000000050000004b"
      "4e4f575304000000040000006e616d6504000000626f726e0500000073696e63"
      "6501000000770002000000010000000200000001000000020000000217070000"
      "0000000002000000000000000000000001000000000000000200000001000000"
      "0000000002000000000000000001000000010000000100000001000000040300"
      "0000426f62010000000200000000000000010000000000000000000000010000"
      "0000000000000000000000000000000000000000000000010000000000000001"
      "00000002000000030000000229070000000000000400000003000000000000e0"
      "3f00000000000000000000000000000000000100000000000000000100000000"
      "0000000000000000000000010000000000000001010000000000000002000000"
      "0000000001000000000000000300000001000000020000000000000000000000"
      "0100000000000000020000000100000000000000000000000300000000000000"
      "0300000001000000020000000000000002000000010000000000000003000000"
      "0000000000000000010000000100000003000000000000000200000001000000"
      "0100000003000000000000000100000002000000020000000000000003000000"
      "0100000001000000030000000000000001000000020000000200000000000000"
      "0100000003000000000000000000000001000000010000000200000000000000"
      "0200000000000000010000000000000001000000000000000000000000000000"
      "0000000000000000000000000000000000000000000000000000000000000000"
      "0000000000000000000000000000000000000000000000000000000000000000"
      "0000000000000000000000000000000000000000000000000000000000000000"
      "0000000000000000000000000000000000000000000000000000000000000000"
      "0000000000000000000000000000000000000000000000000000000000000000"
      "0000000000000000000000000000000000000000000000000000000000000000"
      "0000000000000000000000000000000000000000000000000000000000000000"
      "0000000000000000010000000000000001000000000000000000000000000000"
      "0000000000000000000000000000000000000000000000000000000000000000"
      "0000000000000000000000000000000000000000000000000000000000000000"
      "0000000000000000000000000000000000000000000000000000000000000000"
      "0000000000000000000000000000000000000000000000000000000000000000"
      "0000000000000000000000000000000000000000000000000000000000000000"
      "0000000000000000000000000000000000000000000000000000000000000000"
      "0000000000000000000000000000000000000000000000000000000000000000"
      "00000000000000000200000001000000020000003c64aa21795e4433330b937e"
      "a1839b99020000000100000089f8e22a2a8fb38e020000000300000001000000"
      "953dbd3dc5cada420400000001000000c1fa90227c1271b1";

TEST(Checkpoint, BodyFormatIsUnchanged) {
  PropertyGraph g;
  NodeId a = g.CreateNode({"Person", "Admin"}, {{"name", Value::String("Ada")},
                                                {"born", Value::Int(1815)}});
  NodeId b = g.CreateNode({"Person"}, {{"name", Value::String("Bob")}});
  NodeId gone = g.CreateNode({"Temp"});
  ASSERT_TRUE(g.CreateRelationship(a, b, "KNOWS",
                                   {{"since", Value::Int(1833)},
                                    {"w", Value::Float(0.5)}})
                  .ok());
  ASSERT_TRUE(g.CreateRelationship(a, a, "KNOWS").ok());
  ASSERT_TRUE(g.CreateRelationship(b, a, "KNOWS").ok());
  ASSERT_TRUE(g.CreateRelationship(b, gone, "KNOWS").ok());
  ASSERT_TRUE(g.DetachDeleteNode(gone).ok());
  g.SetNodeProperty(a, "name", Value::Null());

  const std::string golden = Unhex(kGoldenBody);
  std::string body;
  StorageInternals::EncodeGraph(g, /*last_lsn=*/7, &body);
  EXPECT_EQ(body, golden);

  auto decoded = StorageInternals::DecodeGraph(golden);
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  const PropertyGraph& r = *decoded->graph;
  EXPECT_TRUE(AdjacencyConsistent(r));
  EXPECT_EQ(AllAdjacency(r), AllAdjacency(g));
  EXPECT_EQ(DumpToCypher(r), DumpToCypher(g));
  EXPECT_EQ(r.NodePropertyKeys(a), std::vector<std::string>{"born"});
  EXPECT_EQ(r.NodeLabels(a), (std::vector<std::string>{"Person", "Admin"}));
  EXPECT_EQ(r.RelPropertyKeys(RelId{0}),
            (std::vector<std::string>{"since", "w"}));
  std::string again;
  StorageInternals::EncodeGraph(r, /*last_lsn=*/7, &again);
  EXPECT_EQ(again, golden);
}

TEST(Checkpoint, RoundTripAndWalReplayKeepAdjacency) {
  std::string dir = FreshDir("ckp_adjacency");
  const char* kSetup[] = {
      "CREATE (:P {id: 0, name: 'a'}), (:P:Q {id: 1}), (:P {id: 2}), "
      "(:R {id: 3, x: 1, y: 2})",
      "MATCH (a {id: 0}), (b {id: 1}) CREATE (a)-[:T {w: 1}]->(b), "
      "(b)-[:U]->(a), (a)-[:T]->(a)",
      "MATCH (a {id: 1}), (b {id: 2}) CREATE (a)-[:T]->(b), (b)-[:T]->(b)",
      "MATCH (a {id: 2}), (b {id: 3}) CREATE (b)-[:U {k: 'v'}]->(a)",
      "MATCH (a {id: 0})-[r:U]-() DELETE r",
      "MATCH (n {id: 2}) DETACH DELETE n",
      "MATCH (n {id: 1}) SET n:S REMOVE n:Q SET n.id = 10",
      "MATCH (n {id: 3}) REMOVE n.id",
      "MATCH (a {id: 0}), (b {x: 1}) CREATE (b)-[:T]->(a)"};
  std::vector<std::vector<uint64_t>> adjacency;
  std::string dump;
  {
    Database db = MustOpen(dir);
    for (const char* q : kSetup) {
      auto r = db.Execute(q);
      ASSERT_TRUE(r.ok()) << q << ": " << r.status().ToString();
      ASSERT_TRUE(AdjacencyConsistent(db.graph())) << q;
    }
    adjacency = AllAdjacency(db.graph());
    dump = DumpToCypher(db.graph());
  }
  {
    // WAL replay rebuilds the entries through the mutators.
    Database db = MustOpen(dir);
    EXPECT_TRUE(AdjacencyConsistent(db.graph()));
    EXPECT_EQ(AllAdjacency(db.graph()), adjacency);
    EXPECT_EQ(DumpToCypher(db.graph()), dump);
    ASSERT_TRUE(db.Checkpoint().ok());
  }
  // The checkpoint decoder derives them from the relationship records.
  Database db = MustOpen(dir);
  EXPECT_TRUE(AdjacencyConsistent(db.graph()));
  EXPECT_EQ(AllAdjacency(db.graph()), adjacency);
  EXPECT_EQ(DumpToCypher(db.graph()), dump);
  auto r = db.Execute("MATCH (a {id: 0})-[t:T]->(b) RETURN b.id AS b, t.w AS w "
                      "ORDER BY b");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  ASSERT_EQ(r->table.NumRows(), 2u);
  EXPECT_EQ(r->table.rows()[0][0].AsInt(), 0);  // the self-loop
  EXPECT_EQ(r->table.rows()[1][0].AsInt(), 10);
  EXPECT_EQ(r->table.rows()[1][1].AsInt(), 1);
}

// ---- Database durability contract ----------------------------------------

TEST(Durability, CommitSurvivesReopen) {
  std::string dir = FreshDir("db_reopen");
  {
    Database db = MustOpen(dir);
    EXPECT_EQ(CountNodes(db), 0);
    ASSERT_TRUE(db.Execute("CREATE (:Person {name: 'Ada', born: 1815})"
                           "-[:KNOWS {since: 1833}]->"
                           "(:Person {name: 'Charles'})")
                    .ok());
    ASSERT_TRUE(db.Execute("MATCH (p {name: 'Ada'}) SET p.famous = true")
                    .ok());
  }
  Database db = MustOpen(dir);
  EXPECT_EQ(CountNodes(db), 2);
  auto r = db.Execute(
      "MATCH (a)-[k:KNOWS]->(b) "
      "RETURN a.name, a.famous, k.since, b.name");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  ASSERT_EQ(r->table.rows().size(), 1u);
  EXPECT_EQ(r->table.rows()[0][0].ToString(), "'Ada'");
  EXPECT_EQ(r->table.rows()[0][1].ToString(), "true");
  EXPECT_EQ(r->table.rows()[0][2].ToString(), "1833");
  EXPECT_EQ(r->table.rows()[0][3].ToString(), "'Charles'");
}

TEST(Durability, DoubleReopenIsIdempotent) {
  std::string dir = FreshDir("db_idem");
  {
    Database db = MustOpen(dir);
    ASSERT_TRUE(db.Execute("CREATE (:A {x: 1})-[:R]->(:B {y: 2})").ok());
    ASSERT_TRUE(db.Execute("MATCH (b:B) SET b.y = 3").ok());
  }
  std::string first, second;
  {
    Database db = MustOpen(dir);
    first = DumpToCypher(db.graph());
  }
  {
    Database db = MustOpen(dir);
    second = DumpToCypher(db.graph());
  }
  EXPECT_FALSE(first.empty());
  EXPECT_EQ(first, second);
}

TEST(Durability, RollbackIsNotPersisted) {
  std::string dir = FreshDir("db_rollback");
  {
    Database db = MustOpen(dir);
    ASSERT_TRUE(db.Execute("CREATE (:Keep)").ok());
    auto session = db.CreateSession();
    ASSERT_TRUE(session->Begin(TxnMode::kWrite).ok());
    ASSERT_TRUE(session->Execute("CREATE (:Gone), (:Gone)").ok());
    ASSERT_TRUE(session->Rollback().ok());
    // A later committed transaction still lands in the log.
    ASSERT_TRUE(session->Begin(TxnMode::kWrite).ok());
    ASSERT_TRUE(session->Execute("CREATE (:Keep)").ok());
    ASSERT_TRUE(session->Commit().ok());
  }
  Database db = MustOpen(dir);
  auto r = db.Execute("MATCH (n:Keep) RETURN count(n) AS c");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->table.rows()[0][0].AsInt(), 2);
  auto gone = db.Execute("MATCH (n:Gone) RETURN count(n) AS c");
  ASSERT_TRUE(gone.ok());
  EXPECT_EQ(gone->table.rows()[0][0].AsInt(), 0);
}

TEST(Durability, CheckpointTruncatesWalAndReopens) {
  std::string dir = FreshDir("db_ckpt");
  {
    Database db = MustOpen(dir);
    for (int i = 0; i < 10; ++i) {
      ASSERT_TRUE(db.Execute("CREATE (:N {i: " + std::to_string(i) + "})")
                      .ok());
    }
    EXPECT_GT(FileSize(WalPath(dir)), kWalHeaderBytes);
    ASSERT_TRUE(db.Checkpoint().ok());
    // Checkpoint folds the log into the baseline and truncates it.
    EXPECT_EQ(FileSize(WalPath(dir)), kWalHeaderBytes);
    EXPECT_TRUE(fs::exists(dir + "/checkpoint.gql"));
    // Post-checkpoint commits append to the fresh log.
    ASSERT_TRUE(db.Execute("CREATE (:N {i: 10})").ok());
    EXPECT_GT(FileSize(WalPath(dir)), kWalHeaderBytes);
  }
  Database db = MustOpen(dir);
  EXPECT_EQ(CountNodes(db), 11);
}

TEST(Durability, PlanEstimatesSurviveCheckpointAndReopen) {
  std::string dir = FreshDir("db_estimates");
  const std::string query =
      "MATCH (a:Person)-[:KNOWS]->(b:Person) WHERE b.born < 1800 "
      "RETURN a.name";
  std::string before;
  {
    Database db = MustOpen(dir);
    for (int i = 0; i < 32; ++i) {
      ASSERT_TRUE(
          db.Execute("CREATE (:Person {name: 'p" + std::to_string(i) +
                     "', born: " + std::to_string(1780 + i) + "})")
              .ok());
    }
    ASSERT_TRUE(db.Execute("MATCH (a:Person {name: 'p0'}), "
                           "(b:Person {name: 'p1'}) "
                           "CREATE (a)-[:KNOWS]->(b)")
                    .ok());
    auto plan = db.Explain(query);
    ASSERT_TRUE(plan.ok()) << plan.status().ToString();
    before = *plan;
    ASSERT_TRUE(db.Checkpoint().ok());
  }
  // The reopened planner must see the same statistics (degree
  // histograms, NDV sketches, label counts) and print the same plan
  // with the same cardinality estimates.
  Database db = MustOpen(dir);
  auto plan = db.Explain(query);
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  EXPECT_EQ(*plan, before);
}

TEST(Durability, TornWalTailIsDiscardedOnOpen) {
  std::string dir = FreshDir("db_torn");
  {
    Database db = MustOpen(dir);
    ASSERT_TRUE(db.Execute("CREATE (:A {x: 1})").ok());
    ASSERT_TRUE(db.Execute("CREATE (:B {x: 2})").ok());
  }
  // Chop bytes off the final frame: the B commit is torn away, A
  // survives, and the next open both recovers and resumes appending.
  TruncateFile(WalPath(dir), FileSize(WalPath(dir)) - 5);
  {
    Database db = MustOpen(dir);
    EXPECT_EQ(CountNodes(db), 1);
    ASSERT_TRUE(db.Execute("CREATE (:C {x: 3})").ok());
  }
  Database db = MustOpen(dir);
  EXPECT_EQ(CountNodes(db), 2);
  EXPECT_TRUE(db.Execute("MATCH (c:C) RETURN c").ok());
}

TEST(Durability, TornWalHeaderIsRewrittenDurably) {
  std::string dir = FreshDir("db_torn_header");
  {
    Database db = MustOpen(dir);
    ASSERT_TRUE(db.Execute("CREATE (:A)").ok());
  }
  // Power loss during the very first header write leaves a log shorter
  // than the 12-byte header: every frame is gone, recovery starts from
  // an empty graph, rewrites the header — and must KEEP it when it
  // truncates the torn remainder (a headerless log would swallow later
  // commits silently until the next open failed with Corruption).
  TruncateFile(WalPath(dir), 5);
  {
    Database db = MustOpen(dir);
    EXPECT_EQ(CountNodes(db), 0);
    ASSERT_TRUE(db.Execute("CREATE (:K)").ok());
  }
  Database db = MustOpen(dir);
  EXPECT_EQ(CountNodes(db), 1);
}

TEST(Durability, MoveAssignFlushesTheReplacedDatabase) {
  std::string dir = FreshDir("db_move_assign");
  {
    Database db = MustOpen(dir);
    // A setup-API write only becomes durable at the next transaction
    // boundary — here the Close() that move-assignment runs on the
    // database being replaced (a defaulted move would drop it).
    db.graph().CreateNode({"Moved"}, {});
    Database other = MustOpen(FreshDir("db_move_assign_other"));
    db = std::move(other);
  }
  Database db = MustOpen(dir);
  EXPECT_EQ(CountNodes(db), 1);
  EXPECT_TRUE(db.Execute("MATCH (m:Moved) RETURN m").ok());
}

TEST(Durability, SetDefaultGraphRejectedOnDurableDatabase) {
  std::string dir = FreshDir("db_setdefault");
  Database db = MustOpen(dir);
  EXPECT_FALSE(db.engine()
                   .set_default_graph(std::make_shared<PropertyGraph>())
                   .ok());
  // In-memory databases keep the setup API.
  auto mem = Database::OpenInMemory();
  ASSERT_TRUE(mem.ok());
  EXPECT_TRUE(mem->engine()
                  .set_default_graph(std::make_shared<PropertyGraph>())
                  .ok());
}

TEST(Durability, CloseFlushesAndRejectsLaterWrites) {
  std::string dir = FreshDir("db_close");
  Database db = MustOpen(dir);
  ASSERT_TRUE(db.Execute("CREATE (:A)").ok());
  ASSERT_TRUE(db.Close().ok());
  ASSERT_TRUE(db.Close().ok());  // idempotent
  // Reads of the in-memory state still work; writes are refused.
  EXPECT_EQ(CountNodes(db), 1);
  EXPECT_FALSE(db.Execute("CREATE (:B)").ok());

  Database reopened = MustOpen(dir);
  EXPECT_EQ(CountNodes(reopened), 1);
}

TEST(Durability, SetupApiWritesFlushAtTransactionBoundary) {
  std::string dir = FreshDir("db_setupapi");
  {
    Database db = MustOpen(dir);
    // graph() is the fixture-loading backdoor: mutations bypass the
    // session layer but must still be logged at the next boundary.
    db.graph().CreateNode({"Seeded"}, {{"k", Value::Int(1)}});
    ASSERT_TRUE(db.Execute("CREATE (:Committed)").ok());
  }
  Database db = MustOpen(dir);
  EXPECT_EQ(CountNodes(db), 2);
  EXPECT_TRUE(db.Execute("MATCH (s:Seeded) RETURN s").ok());
}

TEST(Durability, InMemoryDatabaseWritesNoFiles) {
  auto db = Database::OpenInMemory();
  ASSERT_TRUE(db.ok());
  ASSERT_TRUE(db->Execute("CREATE (:A)").ok());
  EXPECT_TRUE(db->Checkpoint().ok());  // documented no-op
  EXPECT_TRUE(db->Close().ok());
}

}  // namespace
}  // namespace gqlite
