// Record-layout invariants of PropertyGraph, shared by the graph and
// storage suites: every adjacency entry agrees with its relationship
// record, each half of a node's adjacency keeps creation order, and
// every live relationship is listed exactly once in each half.
#ifndef GQLITE_TESTS_GRAPH_INVARIANTS_H_
#define GQLITE_TESTS_GRAPH_INVARIANTS_H_

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "src/graph/property_graph.h"

namespace gqlite {

inline ::testing::AssertionResult AdjacencyConsistent(const PropertyGraph& g) {
  size_t out_total = 0;
  size_t in_total = 0;
  for (size_t i = 0; i < g.NumNodeSlots(); ++i) {
    NodeId n{i};
    if (!g.IsNodeAlive(n)) {
      if (g.Degree(n) != 0) {
        return ::testing::AssertionFailure()
               << "deleted node " << i << " keeps adjacency entries";
      }
      continue;
    }
    for (bool outgoing : {true, false}) {
      const char* half = outgoing ? "out" : "in";
      const auto adj = outgoing ? g.OutRels(n) : g.InRels(n);
      (outgoing ? out_total : in_total) += adj.size();
      for (size_t j = 0; j < adj.size(); ++j) {
        const AdjEntry& e = adj[j];
        auto fail = [&]() {
          return ::testing::AssertionFailure()
                 << "node " << i << " " << half << "[" << j << "] (rel "
                 << e.rel.id << "): ";
        };
        if (!g.IsRelAlive(e.rel)) return fail() << "relationship is dead";
        NodeId here = outgoing ? g.Source(e.rel) : g.Target(e.rel);
        NodeId there = outgoing ? g.Target(e.rel) : g.Source(e.rel);
        if (here != n) return fail() << "record does not list this node";
        if (e.other != there) {
          return fail() << "other " << e.other.id << " != record's "
                        << there.id;
        }
        if (e.type != g.RelTypeId(e.rel)) {
          return fail() << "type " << e.type << " != record's "
                        << g.RelTypeId(e.rel);
        }
        // Relationship ids are handed out in creation order.
        if (j > 0 && !(adj[j - 1].rel < e.rel)) {
          return fail() << "out of creation order";
        }
      }
    }
  }
  if (out_total != g.NumRels() || in_total != g.NumRels()) {
    return ::testing::AssertionFailure()
           << "adjacency lists " << out_total << " out / " << in_total
           << " in entries for " << g.NumRels() << " live relationships";
  }
  return ::testing::AssertionSuccess();
}

/// The relationship ids of one half of `n`'s adjacency, in order.
inline std::vector<uint64_t> AdjRelIds(const PropertyGraph& g, NodeId n,
                                       bool outgoing) {
  std::vector<uint64_t> ids;
  for (const AdjEntry& e : outgoing ? g.OutRels(n) : g.InRels(n)) {
    ids.push_back(e.rel.id);
  }
  return ids;
}

/// Every node's out and in relationship-id sequences, for comparing the
/// adjacency of two graphs that must be equal (round trips, replay).
inline std::vector<std::vector<uint64_t>> AllAdjacency(const PropertyGraph& g) {
  std::vector<std::vector<uint64_t>> all;
  for (size_t i = 0; i < g.NumNodeSlots(); ++i) {
    all.push_back(AdjRelIds(g, NodeId{i}, true));
    all.push_back(AdjRelIds(g, NodeId{i}, false));
  }
  return all;
}

}  // namespace gqlite

#endif  // GQLITE_TESTS_GRAPH_INVARIANTS_H_
