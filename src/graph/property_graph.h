#ifndef GQLITE_GRAPH_PROPERTY_GRAPH_H_
#define GQLITE_GRAPH_PROPERTY_GRAPH_H_

#include <array>
#include <cassert>
#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <unordered_map>
#include <utility>
#include <vector>

#include "src/common/interner.h"
#include "src/common/result.h"
#include "src/common/status.h"
#include "src/value/value.h"

namespace gqlite {

class GraphWriteObserver;
class StorageInternals;

/// Property list used when creating/updating entities.
using PropertyList = std::vector<std::pair<std::string, Value>>;

/// One entry of a node's adjacency: the relationship, the node at its
/// other end and the relationship's type — everything Expand needs to
/// filter by type and step to the neighbour without reading the
/// relationship record.
struct AdjEntry {
  RelId rel;
  NodeId other;
  SymbolId type = kNoSymbol;
};

/// An in-memory property graph G = ⟨N, R, src, tgt, ι, λ, τ⟩ (§4.1):
///  * N, R      — dense slots of node/relationship records (with tombstones
///                so ids stay stable under deletion);
///  * src, tgt  — stored on each relationship record;
///  * ι         — per-entity property lists (key → value);
///  * λ         — per-node label sets;
///  * τ         — per-relationship type.
///
/// The store keeps *direct adjacency references* — each node record holds
/// its incident relationships together with their other endpoint and
/// type — which is the structural property behind the paper's `Expand`
/// operator ("the data representation of Neo4j contains direct
/// references from each node via its edges to the related nodes", §2).
/// A label index supports NodeByLabelScan.
///
/// Labels, relationship types and property keys are interned to dense ids.
///
/// ## Record layout
///
/// Records live in pages of kPageSize records (one heap array per page),
/// so reaching a record is one hop from the page table. The fields a
/// scan or an Expand reads sit in the record itself:
///  * a node record holds its smallest label id and its first property
///    (key id and value) inline; further labels (sorted) and further
///    properties (insertion order) spill to one heap block per record;
///  * a relationship record holds src, tgt, type and its first property
///    inline; further properties spill the same way;
///  * a node's adjacency is one vector of AdjEntry: the outgoing half
///    first, then the incoming half, each in creation order (a self-loop
///    is in both halves). Expand reads type and neighbour from the entry
///    and touches the relationship record only to read a property.
/// Property order (keys(), properties()) is insertion order: removing the
/// inline property moves the next one in.
///
/// ## Versioned snapshots (MVCC substrate)
///
/// Pages are copy-on-write (a page array behind a shared_ptr), and each
/// label-index posting list is likewise a shared payload. Snapshot()
/// produces a new PropertyGraph that SHARES every page with this one —
/// O(slots/kPageSize) pointer copies plus a schema-sized interner clone,
/// independent of data volume. After a snapshot, the first mutation
/// touching a page clones just that page (epoch-tagged: a page is written
/// in place only while this graph object owns it exclusively), so
///  * a snapshot is deeply immutable — reader threads traverse it without
///    any locking while the live graph keeps committing, and
///  * the live graph pays copy costs proportional to what it actually
///    writes, not to graph size.
/// Snapshots are frozen: mutators on a frozen graph fail (Status-returning
/// ones) or assert (infallible ones). The session layer (src/core/session)
/// is the intended consumer; it hands frozen snapshots to readers and
/// routes every write to the single live graph under the engine's writer
/// transaction.
///
/// Thread-safety: a PropertyGraph object is single-writer. Concurrent
/// READERS of a frozen snapshot are safe (nothing mutates shared pages);
/// the live graph must not be read while a writer mutates it — the engine
/// enforces this by running readers on snapshots.
///
/// References returned by accessors point into the current page payload
/// or into a record's heap storage. On a graph that is written to:
///  * any mutation of ANY record on the same page may copy-on-write the
///    page and invalidate every reference into it;
///  * NodeProperty/RelProperty (and the ById forms) are invalidated by a
///    SET/REMOVE on the same entity (the inline value is overwritten or
///    replaced by the next property; the spill block may reallocate) and
///    by deleting it;
///  * OutRels/InRels spans are invalidated by creating or deleting a
///    relationship at that node (the adjacency vector shifts/reallocates);
///  * NodesWithLabel is invalidated by any change to that label's members.
/// Copy the Value (O(1), shared payload) or the entries instead of holding
/// references across mutations. A frozen snapshot's references stay valid
/// for the snapshot's lifetime.
class PropertyGraph {
 public:
  PropertyGraph() = default;
  PropertyGraph(const PropertyGraph&) = delete;
  PropertyGraph& operator=(const PropertyGraph&) = delete;

  // ---- Versioned snapshots -------------------------------------------------

  /// An immutable snapshot of this graph's current state, sharing slot
  /// pages copy-on-write. Cheap (page-pointer vector + interner clone);
  /// safe to read from any number of threads while this graph keeps
  /// mutating. Marks every current page frozen, so subsequent writes to
  /// this graph clone the pages they touch.
  std::shared_ptr<PropertyGraph> Snapshot();

  /// A mutable copy sharing pages copy-on-write (the transaction-rollback
  /// restore path: re-materialize the last committed state as a fresh
  /// live graph). Content-equal to `*this` at call time.
  std::shared_ptr<PropertyGraph> Clone() const;

  /// True for graphs produced by Snapshot(): every mutator fails/asserts.
  bool frozen() const { return frozen_; }

  /// Monotonic counter of ALL mutations (structural and property). The
  /// engine compares it against the version captured at the last
  /// committed snapshot to decide whether a fresh read snapshot is
  /// needed. Unlike stats_version(), property SETs bump it.
  uint64_t data_version() const { return data_version_; }

  // ---- Creation ----------------------------------------------------------

  /// Creates a node with the given labels and properties; returns its id.
  NodeId CreateNode(const std::vector<std::string>& labels = {},
                    const PropertyList& props = {});

  /// Creates a relationship src -[type]-> tgt. Fails if an endpoint is
  /// missing or deleted, or if `type` is empty (τ is total on R).
  Result<RelId> CreateRelationship(NodeId src, NodeId tgt,
                                   std::string_view type,
                                   const PropertyList& props = {});

  // ---- Existence & cardinality -------------------------------------------

  bool IsNodeAlive(NodeId n) const {
    return n.id < node_slots_ && !node(n).deleted;
  }
  bool IsRelAlive(RelId r) const {
    return r.id < rel_slots_ && !rel(r).deleted;
  }
  /// Number of live nodes / relationships.
  size_t NumNodes() const { return num_nodes_; }
  size_t NumRels() const { return num_rels_; }
  /// Slot-space upper bounds for id iteration (ids < NumNodeSlots()).
  size_t NumNodeSlots() const { return node_slots_; }
  size_t NumRelSlots() const { return rel_slots_; }

  /// All live node ids (materialized; prefer slot iteration in hot paths).
  std::vector<NodeId> AllNodes() const;

  // ---- λ: labels ----------------------------------------------------------

  /// Label names of a node, in interned-id order.
  std::vector<std::string> NodeLabels(NodeId n) const;
  bool NodeHasLabel(NodeId n, std::string_view label) const;
  bool NodeHasLabelId(NodeId n, SymbolId label) const {
    const NodeRecord& rec = node(n);
    if (rec.label == label) return label != kNoSymbol;
    return rec.spill && SpillHasLabel(*rec.spill, label);
  }
  /// Adds/removes a label; returns true if the label set changed.
  bool AddLabel(NodeId n, std::string_view label);
  bool RemoveLabel(NodeId n, std::string_view label);

  // ---- τ: relationship types ---------------------------------------------

  SymbolId RelTypeId(RelId r) const { return rel(r).type; }
  const std::string& RelType(RelId r) const {
    return types_.ToString(rel(r).type);
  }

  // ---- src / tgt ----------------------------------------------------------

  NodeId Source(RelId r) const { return rel(r).src; }
  NodeId Target(RelId r) const { return rel(r).tgt; }

  // ---- ι: properties ------------------------------------------------------

  /// ι(entity, key); a null Value when the property is absent (the partial
  /// function is undefined), matching Cypher's `x.k` semantics. Returns a
  /// reference into the record (or a static null) — hot paths compare and
  /// copy without materializing an intermediate.
  const Value& NodeProperty(NodeId n, std::string_view key) const;
  const Value& RelProperty(RelId r, std::string_view key) const;
  /// ι by interned key id — the bound runtime resolves each key name to
  /// its id once per execution (keys().Lookup), then reads by id.
  /// kNoSymbol (a key this graph never saw) reads as null.
  const Value& NodePropertyById(NodeId n, SymbolId key) const {
    return GetProp(node(n), key);
  }
  const Value& RelPropertyById(RelId r, SymbolId key) const {
    return GetProp(rel(r), key);
  }
  /// Sets (or, with a null value, removes) a property. Returns the number
  /// of properties added/changed (0 or 1).
  int SetNodeProperty(NodeId n, std::string_view key, Value v);
  int SetRelProperty(RelId r, std::string_view key, Value v);
  /// All properties as a map value (the `properties()` function).
  ValueMap NodeProperties(NodeId n) const;
  ValueMap RelProperties(RelId r) const;
  std::vector<std::string> NodePropertyKeys(NodeId n) const;
  std::vector<std::string> RelPropertyKeys(RelId r) const;

  // ---- Adjacency (the Expand substrate) -----------------------------------

  /// Outgoing entries (other = target) / incoming entries (other =
  /// source), each in relationship creation order.
  std::span<const AdjEntry> OutRels(NodeId n) const {
    const NodeRecord& rec = node(n);
    return {rec.adj.data(), rec.out_count};
  }
  std::span<const AdjEntry> InRels(NodeId n) const {
    const NodeRecord& rec = node(n);
    return std::span<const AdjEntry>(rec.adj).subspan(rec.out_count);
  }
  /// Incident entry count. NOTE: a self-loop appears in both halves, so
  /// Degree counts it twice — callers counting distinct incident
  /// relationships (DETACH DELETE accounting) must not use this.
  size_t Degree(NodeId n) const { return node(n).adj.size(); }

  // ---- Label index ---------------------------------------------------------

  /// Nodes currently carrying `label` (exact, maintained on mutation).
  const std::vector<NodeId>& NodesWithLabel(std::string_view label) const;

  // ---- Deletion -------------------------------------------------------------

  /// Deletes a relationship (unlinks it from both endpoints).
  Status DeleteRelationship(RelId r);
  /// Deletes a node; fails if it still has relationships (Cypher DELETE).
  Status DeleteNode(NodeId n);
  /// Deletes a node and all incident relationships (DETACH DELETE).
  /// Returns the number of relationships actually removed — a self-loop
  /// counts once (Degree would count it twice), and relationships a
  /// previous deletion already removed do not count at all. DELETE
  /// statement accounting must use this value, not a pre-delete Degree.
  Result<int64_t> DetachDeleteNode(NodeId n);

  // ---- Interners & statistics ----------------------------------------------

  /// Monotonic counter of plan-relevant structural changes: node and
  /// relationship creation/deletion and label changes — everything that
  /// moves the cardinality statistics the planner bakes into a plan (and
  /// the relationship-count bound substituted for ∞ in unbounded
  /// variable-length patterns). Property value updates do NOT bump it:
  /// plans evaluate property predicates at runtime, so cached plans stay
  /// valid across SET/REMOVE of properties. The plan cache uses this for
  /// generation-based invalidation; snapshots inherit the value at
  /// snapshot time (and, being frozen, never move it).
  uint64_t stats_version() const { return stats_version_; }

  const StringInterner& labels() const { return labels_; }
  const StringInterner& types() const { return types_; }
  const StringInterner& keys() const { return keys_; }
  SymbolId LookupLabel(std::string_view s) const { return labels_.Lookup(s); }
  SymbolId LookupType(std::string_view s) const { return types_.Lookup(s); }

  /// Live node count per label id / rel count per type id (for the cost
  /// model). Missing entries mean zero.
  const std::unordered_map<SymbolId, size_t>& LabelCounts() const {
    return label_counts_;
  }
  const std::unordered_map<SymbolId, size_t>& TypeCounts() const {
    return type_counts_;
  }

  // ---- Directional degree statistics ---------------------------------------

  /// Degree histograms are log2-bucketed: bucket b counts live nodes
  /// whose typed degree d (>= 1) has floor(log2 d) == b.
  static constexpr size_t kDegreeBuckets = 32;

  /// Per-relationship-type directional statistics, maintained
  /// incrementally by the relationship mutators (an O(degree) scan of
  /// the touched endpoint's adjacency per create/delete):
  ///  * distinct_sources/targets — live nodes with at least one
  ///    outgoing/incoming relationship of the type (conditional-fan
  ///    denominators for multi-level expands);
  ///  * out_hist/in_hist — log2-bucketed fan histograms (heavy-tail
  ///    bounds for var-length estimates).
  struct TypeDegreeStats {
    size_t distinct_sources = 0;
    size_t distinct_targets = 0;
    std::array<size_t, kDegreeBuckets> out_hist{};
    std::array<size_t, kDegreeBuckets> in_hist{};
  };

  /// Directional stats for `type`; nullptr if no relationship of that
  /// type was ever created.
  const TypeDegreeStats* DegreeStatsFor(SymbolId type) const;

  /// Live relationships of `type` whose source (out) / target (in) node
  /// currently carries `label`. Zero when the pair is absent.
  size_t LabelTypeOutCount(SymbolId label, SymbolId type) const;
  size_t LabelTypeInCount(SymbolId label, SymbolId type) const;

  /// Estimated distinct values ever written under the property key on
  /// nodes / relationships (insert-only KMV sketch: overwrites and
  /// deletes never retract, so after heavy rewriting the estimate can
  /// only overcount — which biases equality selectivity low, a safe
  /// direction for the planner). Exact while under 64 distinct values.
  /// Returns 0 when the key was never written.
  double NodePropertyNdv(std::string_view key) const;
  double RelPropertyNdv(std::string_view key) const;

  // ---- Rendering -----------------------------------------------------------

  /// Graph-aware display: nodes as `(:Label {k: v})`, relationships as
  /// `[:TYPE {k: v}]`, paths expanded, containers recursed.
  std::string Render(const Value& v) const;

  // ---- Write observation (durability hook) ---------------------------------

  /// Attaches (or, with nullptr, detaches) the observer every successful
  /// primitive mutation reports to — the WAL recorder of src/storage/.
  /// Not copied by Snapshot()/Clone(): snapshots are frozen, and clones
  /// (transaction-rollback restores) get a fresh observer attached by
  /// the transaction layer. Single-writer discipline covers the observer
  /// too: callbacks fire on the mutating thread only.
  void set_write_observer(GraphWriteObserver* observer) {
    observer_ = observer;
  }
  GraphWriteObserver* write_observer() const { return observer_; }

 private:
  /// The serialization backdoor of src/storage/ (checkpoint encode/decode
  /// and WAL replay): the ONE class allowed to touch record pages,
  /// interners and statistics directly, so the on-disk format can carry
  /// every record, tombstone and statistic verbatim without widening the
  /// public API.
  friend class StorageInternals;

  /// Heap overflow of one record: the labels after the inline one
  /// (sorted, nodes only) and the properties after the inline one
  /// (insertion order).
  struct Spill {
    std::vector<SymbolId> labels;
    std::vector<std::pair<SymbolId, Value>> props;
  };
  /// Owning pointer to a record's Spill that copies the block along with
  /// the record (a cloned page must not share spill storage with the
  /// snapshot it was cloned from). Null until something spills.
  class SpillPtr {
   public:
    SpillPtr() = default;
    SpillPtr(const SpillPtr& o)
        : p_(o.p_ ? std::make_unique<Spill>(*o.p_) : nullptr) {}
    SpillPtr& operator=(const SpillPtr& o) {
      if (this != &o) p_ = o.p_ ? std::make_unique<Spill>(*o.p_) : nullptr;
      return *this;
    }
    SpillPtr(SpillPtr&&) = default;
    SpillPtr& operator=(SpillPtr&&) = default;
    explicit operator bool() const { return p_ != nullptr; }
    const Spill& operator*() const { return *p_; }
    const Spill* operator->() const { return p_.get(); }
    /// The block, created on first use.
    Spill* Mutable() {
      if (!p_) p_ = std::make_unique<Spill>();
      return p_.get();
    }
    /// Frees the block once nothing is left in it.
    void ShrinkIfEmpty() {
      if (p_ && p_->labels.empty() && p_->props.empty()) p_.reset();
    }
    void Reset() { p_.reset(); }

   private:
    std::unique_ptr<Spill> p_;
  };

  /// Field order puts what scans and Expand read (the inline property,
  /// its key, the smallest label / the type and endpoints) first.
  /// Invariants: `prop` is null when `prop_key` is kNoSymbol, and then
  /// no property spills; `label` is kNoSymbol only for an unlabeled node
  /// and is smaller than every spilled label. 88 / 80 bytes.
  struct NodeRecord {
    Value prop;
    SymbolId prop_key = kNoSymbol;
    SymbolId label = kNoSymbol;
    uint32_t out_count = 0;  // adj[0, out_count) is the outgoing half
    bool deleted = false;
    std::vector<AdjEntry> adj;
    SpillPtr spill;
  };
  struct RelRecord {
    Value prop;
    SymbolId prop_key = kNoSymbol;
    SymbolId type = kNoSymbol;
    NodeId src;
    NodeId tgt;
    bool deleted = false;
    SpillPtr spill;
  };

  /// 64 records per copy-on-write page: small enough that a point write
  /// after a snapshot copies little, large enough that the page-pointer
  /// vector (and thus Snapshot cost) stays 64x smaller than the slots.
  static constexpr size_t kPageBits = 6;
  static constexpr size_t kPageSize = size_t{1} << kPageBits;
  static constexpr size_t kPageMask = kPageSize - 1;

  /// A shared payload plus the epoch at which THIS graph object last
  /// owned it exclusively. Writable in place iff epoch == epoch_;
  /// otherwise some snapshot/clone may share the payload and the writer
  /// clones it first (see MutableSlot).
  template <typename T>
  struct Cow {
    std::shared_ptr<T> payload;
    uint64_t epoch = 0;
  };
  template <typename Rec>
  using PageVec = std::vector<Cow<Rec[]>>;

  /// Copy-on-write copy: shares every page/posting payload, clones the
  /// interners and count maps. The copy's epoch is advanced past every
  /// shared payload's, so its first write to any page clones it.
  PropertyGraph(const PropertyGraph& other, bool frozen);

  const NodeRecord& node(NodeId n) const {
    return node_pages_[n.id >> kPageBits].payload[n.id & kPageMask];
  }
  const RelRecord& rel(RelId r) const {
    return rel_pages_[r.id >> kPageBits].payload[r.id & kPageMask];
  }
  template <typename Rec>
  Rec* MutableSlot(PageVec<Rec>* pages, size_t id);
  NodeRecord* MutableNode(NodeId n) {
    return MutableSlot(&node_pages_, n.id);
  }
  RelRecord* MutableRel(RelId r) { return MutableSlot(&rel_pages_, r.id); }
  /// Appends one slot (cloning/creating the tail page as needed) and
  /// returns the new record.
  template <typename Rec>
  Rec* AppendSlot(PageVec<Rec>* pages, size_t* slots);
  /// The label-index posting list for `s`, writable in place.
  std::vector<NodeId>* MutablePosting(SymbolId s);

  void AssertMutable() const {
    assert(!frozen_ && "mutating a frozen graph snapshot");
  }

  /// ι over one record: the inline property first, then the spill.
  /// A kNoSymbol key matches an empty inline slot, whose value is null.
  template <typename Rec>
  static const Value& GetProp(const Rec& rec, SymbolId key) {
    if (rec.prop_key == key) return rec.prop;
    return rec.spill ? SpillProp(*rec.spill, key) : NullValue();
  }
  static const Value& SpillProp(const Spill& spill, SymbolId key);
  static const Value& NullValue();
  static bool SpillHasLabel(const Spill& spill, SymbolId label);
  /// Sets (null: removes) `key` on a record; returns 0 or 1 changed.
  template <typename Rec>
  static int SetProp(Rec* rec, SymbolId key, Value v);
  /// Appends a property known to be absent (creation and decode).
  template <typename Rec>
  static void AppendProp(Rec* rec, SymbolId key, Value v) {
    if (rec->prop_key == kNoSymbol) {
      rec->prop_key = key;
      rec->prop = std::move(v);
    } else {
      rec->spill.Mutable()->props.emplace_back(key, std::move(v));
    }
  }
  /// Calls fn(key, value) for every property in order.
  template <typename Rec, typename Fn>
  static void ForEachProp(const Rec& rec, Fn&& fn) {
    if (rec.prop_key == kNoSymbol) return;
    fn(rec.prop_key, rec.prop);
    if (rec.spill) {
      for (const auto& [k, v] : rec.spill->props) fn(k, v);
    }
  }
  /// Adds/removes `label` on a node record; false if it was already
  /// present/absent.
  static bool InsertLabel(NodeRecord* rec, SymbolId label);
  static bool EraseLabel(NodeRecord* rec, SymbolId label);
  /// Calls fn(label) for every label of the record, ascending.
  template <typename Fn>
  static void ForEachLabel(const NodeRecord& rec, Fn&& fn) {
    if (rec.label == kNoSymbol) return;
    fn(rec.label);
    if (rec.spill) {
      for (SymbolId s : rec.spill->labels) fn(s);
    }
  }
  /// Removes `r` from the outgoing or incoming half of `rec`'s adjacency.
  static void Unlink(NodeRecord* rec, RelId r, bool outgoing);

  /// Insert-only k-minimum-values distinct-count sketch: keeps the kK
  /// smallest distinct 64-bit hashes seen. Exact below kK (it simply
  /// holds every distinct hash); at capacity the estimate is
  /// (kK-1) * 2^64 / kth-smallest.
  struct KmvSketch {
    static constexpr size_t kK = 64;
    std::vector<uint64_t> mins;  // sorted ascending, distinct
    void Insert(uint64_t h);
    double Estimate() const;
  };

  static uint64_t LabelTypeKey(SymbolId label, SymbolId type) {
    return (static_cast<uint64_t>(label) << 32) | type;
  }
  /// floor(log2 d) clamped to the histogram width; d >= 1.
  static size_t DegreeBucket(size_t d);
  /// Count of relationships of `type` in the adjacency vector.
  static size_t TypedDegree(std::span<const AdjEntry> adj, SymbolId type);
  /// Re-buckets one node whose typed degree changed from `before` to
  /// `before + delta` (delta is +1 or -1), keeping the distinct-endpoint
  /// count in sync (a node enters at degree 1, leaves at degree 0).
  static void ShiftDegree(std::array<size_t, kDegreeBuckets>* hist,
                          size_t* distinct, size_t before, int delta);
  static void NoteNdv(std::unordered_map<SymbolId, KmvSketch>* ndv,
                      SymbolId key, const Value& v);

  PageVec<NodeRecord> node_pages_;
  PageVec<RelRecord> rel_pages_;
  size_t node_slots_ = 0;
  size_t rel_slots_ = 0;
  size_t num_nodes_ = 0;
  size_t num_rels_ = 0;
  uint64_t stats_version_ = 0;
  uint64_t data_version_ = 0;
  /// Epoch for the Cow ownership test; bumped by Snapshot() so every
  /// page held at snapshot time reads as shared.
  uint64_t epoch_ = 1;
  bool frozen_ = false;
  /// Deliberately absent from the copy constructor's init list: snapshots
  /// and clones start unobserved (see set_write_observer).
  GraphWriteObserver* observer_ = nullptr;

  StringInterner labels_;
  StringInterner types_;
  StringInterner keys_;

  std::unordered_map<SymbolId, Cow<std::vector<NodeId>>> label_index_;
  std::unordered_map<SymbolId, size_t> label_counts_;
  std::unordered_map<SymbolId, size_t> type_counts_;

  // Directional statistics (schema-sized: per type / per (label, type)
  // pair / per property key — Snapshot() copies stay cheap). Keys of the
  // label-type maps are LabelTypeKey-packed pairs.
  std::unordered_map<uint64_t, size_t> label_type_out_counts_;
  std::unordered_map<uint64_t, size_t> label_type_in_counts_;
  std::unordered_map<SymbolId, TypeDegreeStats> type_degree_stats_;
  std::unordered_map<SymbolId, KmvSketch> node_ndv_;
  std::unordered_map<SymbolId, KmvSketch> rel_ndv_;
};

}  // namespace gqlite

#endif  // GQLITE_GRAPH_PROPERTY_GRAPH_H_
