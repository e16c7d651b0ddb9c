#ifndef GQLITE_PLAN_COST_MODEL_H_
#define GQLITE_PLAN_COST_MODEL_H_

#include <string>
#include <vector>

#include "src/frontend/ast.h"
#include "src/graph/graph_statistics.h"
#include "src/pattern/pattern.h"

namespace gqlite {

/// Physical-operator override for each hop of a chain. kCost picks the
/// cheaper of adjacency Expand and relationship-store HashJoinExpand per
/// step; the forced values pin one side so the differential harness can
/// exercise both regardless of what the statistics prefer
/// (GQLITE_PLAN_MODE tokens `adjacency` / `hashjoin` / `cost-expand`).
enum class ExpandStrategy { kCost, kAdjacency, kHashJoin };

/// Expand-direction override. kCost picks the anchor and the order of
/// the expands by estimated cost; kForceRight anchors at the chain's
/// first node and expands left-to-right, kForceLeft anchors at the last
/// node and expands right-to-left (GQLITE_PLAN_MODE tokens
/// `force-right` / `force-left` / `cost-direction`).
enum class DirectionPolicy { kCost, kForceRight, kForceLeft };

/// A node's local constraints in copyable form (ast::NodePattern holds
/// non-copyable ExprPtr property values): labels plus the keys of
/// equality-constrained properties — inline `{k: v}` map entries and
/// WHERE-derived `n.k = <literal/parameter>` conjuncts the planner
/// recognizes. The cost model only needs the keys: equality selectivity
/// is 1/NDV(key) from the statistics' sketches.
struct NodeConstraint {
  std::vector<std::string> labels;
  std::vector<std::string> eq_props;
};

/// Cardinality-based cost model for pattern planning (§2: Neo4j plans
/// "based on the IDP algorithm, using a cost model"); gqlite's chain
/// decision is the greedy DecideChain below. Inputs are the
/// maintained statistics of the executing snapshot: label/type counts,
/// per-type directional degree distributions (label-conditioned fans),
/// and property NDV sketches.
///
/// One selectivity formula backs every estimate (scans and post-expand
/// filters use the same product over label fractions and property
/// equalities), so anchor ranking is consistent on multi-label patterns.
class CostModel {
 public:
  explicit CostModel(const GraphStatistics& stats) : stats_(stats) {}

  /// Fraction of all nodes satisfying the constraints: product of label
  /// fractions times 1/NDV per equality-constrained property (0.1 per
  /// property when the key has no sketch).
  double NodeSelectivity(const NodeConstraint& nc) const;

  /// Estimated rows from scanning candidates for the constraints:
  /// NodeCount() * NodeSelectivity.
  double ScanCardinality(const NodeConstraint& nc) const;

  /// Estimated fan-out of one hop per input row, DIRECTIONAL: the typed
  /// degree in the actual traversal direction, conditioned on the
  /// source node's most selective label when `from` is given. `reversed`
  /// means the hop is traversed right-to-left (a `-[:T]->` hop entered
  /// from its target follows IN-edges). Variable-length hops multiply
  /// by the path-count amplification over the hop's length range — an
  /// explicit user maximum is honored (saturating at ~1e15), an
  /// unbounded `*lo..` uses a lo+8 horizon.
  double ExpandFactor(const ast::RelPattern& rp, bool reversed) const;
  double ExpandFactor(const ast::RelPattern& rp, bool reversed,
                      const NodeConstraint& from) const;

  /// Rows scanned per input row by an adjacency ExpandOp for this hop:
  /// the UNTYPED fan in the scanned direction(s) — the operator walks
  /// the whole adjacency list and filters by type.
  double AdjacencyScanFan(const ast::RelPattern& rp, bool reversed,
                          const NodeConstraint& from) const;

  /// One planned step of a chain: which hop, which direction it is
  /// traversed and which physical operator runs it.
  struct ChainStep {
    size_t hop = 0;
    bool to_right = true;
    bool hash_join = false;
  };
  struct ChainDecision {
    size_t anchor = 0;
    std::vector<ChainStep> steps;  // in emission order
  };

  /// The chain decision: anchor at a bound node or the cheapest scan
  /// (unless `direction` pins an end), then repeatedly expand whichever
  /// frontier has the smaller directional fan. Each hop's physical
  /// operator is the cheaper of adjacency Expand (rows_in * scan_fan +
  /// rows_out) and the relationship-store hash join (RelCount + rows_in
  /// + rows_out), unless `strategy` forces a side; var-length hops
  /// always run the adjacency frontier walk. `nodes` carries the
  /// augmented constraints per chain position (size hops+1), `bound`
  /// marks positions already bound by the driving table.
  ChainDecision DecideChain(const ast::PathPattern& path,
                            const std::vector<NodeConstraint>& nodes,
                            const std::vector<bool>& bound,
                            ExpandStrategy strategy,
                            DirectionPolicy direction) const;

 private:
  /// Typed directional fan of the hop (no var-length amplification).
  double HopFan(const ast::RelPattern& rp, bool reversed,
                const NodeConstraint& from) const;
  /// Fan conditioned on the frontier already having one such rel
  /// (levels >= 2 of a var-length expand).
  double CondFan(const ast::RelPattern& rp, bool reversed) const;

  const GraphStatistics& stats_;
};

}  // namespace gqlite

#endif  // GQLITE_PLAN_COST_MODEL_H_
