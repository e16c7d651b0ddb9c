#include "src/plan/cost_model.h"

#include <algorithm>
#include <cmath>

namespace gqlite {

namespace {

/// Equality selectivity for property keys with no NDV sketch.
constexpr double kPropertySelectivity = 0.1;
/// Cardinality floor: keeps products from collapsing to exact zero and
/// erasing later cost differences.
constexpr double kMinRows = 0.001;
/// Var-length estimates saturate here instead of overflowing; an
/// explicit user maximum is honored up to this ceiling.
constexpr double kSaturatedPaths = 1e15;
/// Per-hop iteration cap for very long explicit ranges; the geometric
/// tail beyond it is summed in closed form.
constexpr int64_t kVarLengthIterations = 256;

/// The direction the traversal's source node sees: traversing a hop
/// right-to-left flips the pattern arrow.
ast::Direction EffectiveDirection(const ast::RelPattern& rp, bool reversed) {
  if (!reversed) return rp.direction;
  switch (rp.direction) {
    case ast::Direction::kRight:
      return ast::Direction::kLeft;
    case ast::Direction::kLeft:
      return ast::Direction::kRight;
    default:
      return ast::Direction::kBoth;
  }
}

}  // namespace

double CostModel::NodeSelectivity(const NodeConstraint& nc) const {
  double n = std::max(stats_.NodeCount(), 1.0);
  double sel = 1.0;
  // One formula for scans and filters alike: a product over label
  // fractions (not a min) and property equalities, so anchor ranking
  // stays consistent on multi-label patterns.
  for (const auto& label : nc.labels) {
    sel *= std::min(stats_.NodesWithLabel(label) / n, 1.0);
  }
  for (const auto& key : nc.eq_props) {
    double ndv = stats_.NodePropertyNdv(key);
    sel *= ndv >= 1 ? 1.0 / ndv : kPropertySelectivity;
  }
  return sel;
}

double CostModel::ScanCardinality(const NodeConstraint& nc) const {
  return std::max(stats_.NodeCount() * NodeSelectivity(nc), kMinRows);
}

double CostModel::HopFan(const ast::RelPattern& rp, bool reversed,
                         const NodeConstraint& from) const {
  ast::Direction dir = EffectiveDirection(rp, reversed);
  auto fan_for = [&](std::string_view type, std::string_view label) {
    switch (dir) {
      case ast::Direction::kRight:
        return stats_.OutDegree(type, label);
      case ast::Direction::kLeft:
        return stats_.InDegree(type, label);
      default:
        return stats_.OutDegree(type, label) + stats_.InDegree(type, label);
    }
  };
  auto fan_with_label = [&](std::string_view label) {
    if (rp.types.empty()) return fan_for({}, label);
    double f = 0;
    for (const auto& t : rp.types) f += fan_for(t, label);
    return f;
  };
  if (from.labels.empty()) return fan_with_label({});
  // Condition on the source's lowest-fan label (the most specific
  // available distribution).
  double best = -1;
  for (const auto& l : from.labels) {
    double f = fan_with_label(l);
    if (best < 0 || f < best) best = f;
  }
  return best;
}

double CostModel::CondFan(const ast::RelPattern& rp, bool reversed) const {
  ast::Direction dir = EffectiveDirection(rp, reversed);
  auto cond_for = [&](std::string_view type) {
    switch (dir) {
      case ast::Direction::kRight:
        return stats_.CondOutDegree(type);
      case ast::Direction::kLeft:
        return stats_.CondInDegree(type);
      default:
        return stats_.CondOutDegree(type) + stats_.CondInDegree(type);
    }
  };
  if (rp.types.empty()) return cond_for({});
  double f = 0;
  for (const auto& t : rp.types) f += cond_for(t);
  return f;
}

double CostModel::ExpandFactor(const ast::RelPattern& rp,
                               bool reversed) const {
  return ExpandFactor(rp, reversed, NodeConstraint{});
}

double CostModel::ExpandFactor(const ast::RelPattern& rp, bool reversed,
                               const NodeConstraint& from) const {
  double prop_sel = 1.0;
  for (const auto& kv : rp.properties) {
    double ndv = stats_.RelPropertyNdv(kv.first);
    prop_sel *= ndv >= 1 ? 1.0 / ndv : kPropertySelectivity;
  }
  double first = HopFan(rp, reversed, from) * prop_sel;
  if (!rp.length) return std::max(first, 0.01);

  // Variable length: sum of expected path counts over the admissible
  // lengths. The first level fans out from the (possibly
  // label-constrained) source; deeper levels fan from frontier nodes
  // KNOWN to participate in the relationship type, so they use the
  // conditional fan. An explicit user maximum is honored (estimates
  // saturate at kSaturatedPaths); an unbounded `*lo..` uses a lo+8
  // default horizon.
  int64_t lo = std::max<int64_t>(rp.length->min.value_or(1), 0);
  int64_t hi = rp.length->max.value_or(lo + 8);
  if (hi < lo) return 0.01;
  double cond = std::max(CondFan(rp, reversed) * prop_sel, 0.01);
  double total = 0;
  double f = 1;  // expected paths of the current length
  int64_t len = 0;
  for (; len <= hi && len <= kVarLengthIterations; ++len) {
    if (len >= lo) total += f;
    if (total >= kSaturatedPaths) return kSaturatedPaths;
    f *= len == 0 ? std::max(first, 0.01) : cond;
    f = std::min(f, kSaturatedPaths);
  }
  if (len <= hi && len > lo) {
    // Geometric tail of the remaining lengths in closed form.
    double remaining = static_cast<double>(hi - len + 1);
    double tail = std::abs(cond - 1.0) < 1e-9
                      ? f * remaining
                      : f * (std::pow(cond, remaining) - 1.0) / (cond - 1.0);
    total += tail;
  }
  return std::min(std::max(total, 0.1), kSaturatedPaths);
}

double CostModel::AdjacencyScanFan(const ast::RelPattern& rp, bool reversed,
                                   const NodeConstraint& from) const {
  // ExpandOp walks the source's whole adjacency list in the scanned
  // direction(s) and filters by type — the scan cost is the UNTYPED fan.
  ast::Direction dir = EffectiveDirection(rp, reversed);
  auto fan = [&](std::string_view label) {
    switch (dir) {
      case ast::Direction::kRight:
        return stats_.OutDegree({}, label);
      case ast::Direction::kLeft:
        return stats_.InDegree({}, label);
      default:
        return stats_.OutDegree({}, label) + stats_.InDegree({}, label);
    }
  };
  if (from.labels.empty()) return fan({});
  double best = -1;
  for (const auto& l : from.labels) {
    double f = fan(l);
    if (best < 0 || f < best) best = f;
  }
  return best;
}

CostModel::ChainDecision CostModel::DecideChain(
    const ast::PathPattern& path, const std::vector<NodeConstraint>& nodes,
    const std::vector<bool>& bound, ExpandStrategy strategy,
    DirectionPolicy direction) const {
  const size_t n = nodes.size();
  ChainDecision d;
  if (direction == DirectionPolicy::kForceRight) {
    d.anchor = 0;
  } else if (direction == DirectionPolicy::kForceLeft) {
    d.anchor = n - 1;
  } else {
    double best = -1;
    for (size_t i = 0; i < n; ++i) {
      double c = bound[i] ? 0.0 : ScanCardinality(nodes[i]);
      if (best < 0 || c < best) {
        best = c;
        d.anchor = i;
      }
    }
  }
  const double node_n = std::max(stats_.NodeCount(), 1.0);
  const double rel_count = stats_.RelCount();
  // Estimated rows at the frontier: they weigh each hop's adjacency scan
  // against the hash join's whole-store build.
  double rows = bound[d.anchor] ? 1.0 : ScanCardinality(nodes[d.anchor]);
  size_t right = d.anchor;
  size_t left = d.anchor;
  while (right + 1 < n || left > 0) {
    bool go_right = right + 1 < n;
    if (go_right && left > 0) {
      double fr = ExpandFactor(path.hops[right].rel, false, nodes[right]);
      double fl = ExpandFactor(path.hops[left - 1].rel, true, nodes[left]);
      go_right = fr <= fl;
    }
    ChainStep s;
    s.hop = go_right ? right : left - 1;
    s.to_right = go_right;
    const ast::RelPattern& rp = path.hops[s.hop].rel;
    size_t from_i = go_right ? right : left;
    size_t to_i = go_right ? right + 1 : left - 1;
    double fan = ExpandFactor(rp, !go_right, nodes[from_i]);
    double out = bound[to_i] ? rows * fan / node_n
                             : rows * fan * NodeSelectivity(nodes[to_i]);
    out = std::max(out, kMinRows);
    // Var-length hops always run the adjacency frontier walk.
    if (!rp.length && strategy != ExpandStrategy::kAdjacency) {
      double adj =
          rows * AdjacencyScanFan(rp, !go_right, nodes[from_i]) + out;
      double join = rel_count + rows + out;
      s.hash_join = strategy == ExpandStrategy::kHashJoin || join < adj;
    }
    d.steps.push_back(s);
    rows = out;
    if (go_right) {
      ++right;
    } else {
      --left;
    }
  }
  return d;
}

}  // namespace gqlite
