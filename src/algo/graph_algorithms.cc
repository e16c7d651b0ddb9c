#include "src/algo/graph_algorithms.h"

#include <algorithm>
#include <deque>
#include <map>
#include <set>

namespace gqlite {
namespace algo {

namespace {

/// Applies the traversal options to one node's incident relationships,
/// invoking fn(rel, neighbor) for each admissible step.
template <typename Fn>
void ForEachStep(const PropertyGraph& g, NodeId n,
                 const TraversalOptions& opts, Fn&& fn) {
  SymbolId type = opts.type.empty() ? kNoSymbol : g.LookupType(opts.type);
  bool filter = !opts.type.empty();
  if (filter && type == kNoSymbol) return;  // unknown type: no steps
  for (const AdjEntry& e : g.OutRels(n)) {
    if (filter && e.type != type) continue;
    fn(e.rel, e.other);
  }
  if (opts.undirected) {
    for (const AdjEntry& e : g.InRels(n)) {
      if (filter && e.type != type) continue;
      if (e.other == n) continue;  // self loop seen above
      fn(e.rel, e.other);
    }
  }
}

}  // namespace

std::optional<Path> ShortestPath(const PropertyGraph& g, NodeId source,
                                 NodeId target,
                                 const TraversalOptions& opts) {
  if (!g.IsNodeAlive(source) || !g.IsNodeAlive(target)) return std::nullopt;
  if (source == target) {
    Path p;
    p.nodes.push_back(source);
    return p;
  }
  // BFS with parent pointers.
  std::unordered_map<uint64_t, std::pair<uint64_t, uint64_t>> parent;
  std::deque<NodeId> queue;
  queue.push_back(source);
  parent.emplace(source.id, std::make_pair(source.id, ~0ULL));
  while (!queue.empty()) {
    NodeId cur = queue.front();
    queue.pop_front();
    bool found = false;
    ForEachStep(g, cur, opts, [&](RelId r, NodeId next) {
      if (found || parent.contains(next.id)) return;
      parent.emplace(next.id, std::make_pair(cur.id, r.id));
      if (next == target) {
        found = true;
        return;
      }
      queue.push_back(next);
    });
    if (found) break;
  }
  auto it = parent.find(target.id);
  if (it == parent.end()) return std::nullopt;
  // Reconstruct backwards.
  Path p;
  std::vector<NodeId> rnodes;
  std::vector<RelId> rrels;
  uint64_t cur = target.id;
  while (cur != source.id) {
    auto [prev, rel] = parent.at(cur);
    rnodes.push_back(NodeId{cur});
    rrels.push_back(RelId{rel});
    cur = prev;
  }
  rnodes.push_back(source);
  std::reverse(rnodes.begin(), rnodes.end());
  std::reverse(rrels.begin(), rrels.end());
  p.nodes = std::move(rnodes);
  p.rels = std::move(rrels);
  return p;
}

std::unordered_map<uint64_t, int64_t> BfsDistances(
    const PropertyGraph& g, NodeId source, const TraversalOptions& opts) {
  std::unordered_map<uint64_t, int64_t> dist;
  if (!g.IsNodeAlive(source)) return dist;
  std::deque<NodeId> queue;
  queue.push_back(source);
  dist[source.id] = 0;
  while (!queue.empty()) {
    NodeId cur = queue.front();
    queue.pop_front();
    int64_t d = dist[cur.id];
    ForEachStep(g, cur, opts, [&](RelId, NodeId next) {
      if (dist.contains(next.id)) return;
      dist[next.id] = d + 1;
      queue.push_back(next);
    });
  }
  return dist;
}

std::unordered_map<uint64_t, double> PageRank(const PropertyGraph& g,
                                              const PageRankOptions& opts) {
  std::vector<NodeId> nodes = g.AllNodes();
  std::unordered_map<uint64_t, double> rank;
  if (nodes.empty()) return rank;
  const double n = static_cast<double>(nodes.size());
  for (NodeId v : nodes) rank[v.id] = 1.0 / n;

  for (int iter = 0; iter < opts.max_iterations; ++iter) {
    std::unordered_map<uint64_t, double> next;
    next.reserve(rank.size());
    for (NodeId v : nodes) next[v.id] = 0;
    double dangling = 0;
    for (NodeId v : nodes) {
      const auto out = g.OutRels(v);
      double share = rank[v.id];
      if (out.empty()) {
        dangling += share;
        continue;
      }
      double per_edge = share / static_cast<double>(out.size());
      for (const AdjEntry& e : out) next[e.other.id] += per_edge;
    }
    double base = (1.0 - opts.damping) / n + opts.damping * dangling / n;
    double delta = 0;
    for (NodeId v : nodes) {
      double nv = base + opts.damping * next[v.id];
      delta += std::abs(nv - rank[v.id]);
      next[v.id] = nv;
    }
    rank.swap(next);
    if (delta < opts.tolerance) break;
  }
  return rank;
}

std::unordered_map<uint64_t, uint64_t> WeaklyConnectedComponents(
    const PropertyGraph& g) {
  std::unordered_map<uint64_t, uint64_t> comp;
  TraversalOptions undirected;
  undirected.undirected = true;
  for (size_t i = 0; i < g.NumNodeSlots(); ++i) {
    NodeId start{i};
    if (!g.IsNodeAlive(start) || comp.contains(start.id)) continue;
    // BFS labelling with the smallest node id (starts ascend).
    std::deque<NodeId> queue;
    queue.push_back(start);
    comp[start.id] = start.id;
    while (!queue.empty()) {
      NodeId cur = queue.front();
      queue.pop_front();
      ForEachStep(g, cur, undirected, [&](RelId, NodeId next) {
        if (comp.contains(next.id)) return;
        comp[next.id] = start.id;
        queue.push_back(next);
      });
    }
  }
  return comp;
}

int64_t TriangleCount(const PropertyGraph& g) {
  // Build deduplicated undirected neighbor sets; count each triangle once
  // by ordering node ids.
  std::unordered_map<uint64_t, std::set<uint64_t>> nbr;
  for (size_t i = 0; i < g.NumRelSlots(); ++i) {
    RelId r{i};
    if (!g.IsRelAlive(r)) continue;
    uint64_t a = g.Source(r).id;
    uint64_t b = g.Target(r).id;
    if (a == b) continue;
    nbr[a].insert(b);
    nbr[b].insert(a);
  }
  int64_t count = 0;
  for (const auto& [a, na] : nbr) {
    for (uint64_t b : na) {
      if (b <= a) continue;
      const auto& nb = nbr[b];
      for (uint64_t c : na) {
        if (c <= b) continue;
        if (nb.contains(c)) ++count;
      }
    }
  }
  return count;
}

std::vector<std::pair<size_t, size_t>> DegreeHistogram(
    const PropertyGraph& g) {
  std::map<size_t, size_t> hist;
  for (size_t i = 0; i < g.NumNodeSlots(); ++i) {
    NodeId n{i};
    if (!g.IsNodeAlive(n)) continue;
    ++hist[g.Degree(n)];
  }
  return {hist.begin(), hist.end()};
}

}  // namespace algo
}  // namespace gqlite
