#include "src/pattern/matcher.h"

#include <unordered_set>

#include "src/value/value_compare.h"

namespace gqlite {

namespace {

using ast::Direction;
using ast::NodePattern;
using ast::PathPattern;
using ast::Pattern;
using ast::RelPattern;

/// Depth-first enumerator implementing Equation (1): it explores, for each
/// path pattern in the tuple, every (rigid refinement, path) combination.
/// Variable-length hops enumerate each target length in the range
/// separately, which realizes the bag multiplicities of Examples 4.5 and
/// the §3 † rows.
class Matcher {
 public:
  Matcher(const Pattern& pattern, const PropertyGraph& graph,
          const Environment& env, const EvalContext& ctx,
          const MatchOptions& opts, const std::vector<std::string>& columns,
          const MatchSink& sink)
      : pattern_(pattern),
        graph_(graph),
        env_(env),
        ctx_(ctx),
        opts_(opts),
        columns_(columns),
        sink_(sink),
        local_env_(*this) {}

  Status Run() {
    GQL_ASSIGN_OR_RETURN(bool keep_going, MatchPath(0));
    (void)keep_going;
    return Status::OK();
  }

 private:
  /// Environment view: pattern-local bindings shadow the input bindings.
  class LocalEnv : public Environment {
   public:
    explicit LocalEnv(const Matcher& m) : m_(m) {}
    const Value* Lookup(const std::string& name) const override {
      return m_.LookupVar(name);
    }

   private:
    const Matcher& m_;
  };

  const Value* LookupVar(const std::string& name) const {
    for (auto it = locals_.rbegin(); it != locals_.rend(); ++it) {
      if (it->first == name) return &it->second;
    }
    return env_.Lookup(name);
  }

  /// Binds `name` to `v`, or checks equivalence if already bound. Returns
  /// true if the binding is consistent. The caller restores locals_ to its
  /// saved size on backtrack.
  bool BindVar(const std::string& name, Value v) {
    const Value* existing = LookupVar(name);
    if (existing != nullptr) return ValueEquivalent(*existing, v);
    locals_.emplace_back(name, std::move(v));
    return true;
  }

  /// Checks a node pattern against a concrete node and binds its variable.
  /// Returns false (no error) on mismatch.
  Result<bool> CheckAndBindNode(const NodePattern& np, NodeId n) {
    if (!graph_.IsNodeAlive(n)) return false;
    for (const auto& label : np.labels) {
      if (!graph_.NodeHasLabel(n, label)) return false;
    }
    for (const auto& [key, expr] : np.properties) {
      GQL_ASSIGN_OR_RETURN(Value want, EvaluateExpr(*expr, local_env_, ctx_));
      if (ValueEquals(graph_.NodeProperty(n, key), want) != Tri::kTrue) {
        return false;
      }
    }
    if (np.var && !BindVar(*np.var, Value::Node(n))) return false;
    return true;
  }

  /// Checks a relationship's type and property constraints.
  Result<bool> RelConstraintsOk(const RelPattern& rp, const AdjEntry& e) {
    const RelId r = e.rel;
    if (!rp.types.empty()) {
      const std::string& t = graph_.types().ToString(e.type);
      bool any = false;
      for (const auto& want : rp.types) {
        if (want == t) {
          any = true;
          break;
        }
      }
      if (!any) return false;
    }
    for (const auto& [key, expr] : rp.properties) {
      GQL_ASSIGN_OR_RETURN(Value want, EvaluateExpr(*expr, local_env_, ctx_));
      if (ValueEquals(graph_.RelProperty(r, key), want) != Tri::kTrue) {
        return false;
      }
    }
    return true;
  }

  /// Candidate step along adjacency entry `e` of `cur` honoring the
  /// pattern direction (§4.2 condition (e′)). Returns the next node, or
  /// nullopt if the entry does not connect in the required way.
  /// `from_out` says whether `e` is in cur's outgoing half; only the
  /// direction-relevant half (or halves) is walked, so a `->` step only
  /// sees outgoing entries and a `<-` step only incoming ones.
  static std::optional<NodeId> Step(const RelPattern& rp, const AdjEntry& e,
                                    NodeId cur, bool from_out) {
    // Self loops appear in both halves; count them once (the (e′)
    // condition is a set membership, satisfied one way).
    if (rp.direction == Direction::kBoth && !from_out && e.other == cur) {
      return std::nullopt;
    }
    return e.other;
  }

  bool RelUsable(RelId r) {
    if (opts_.morphism == Morphism::kHomomorphism) return true;
    return used_rels_.find(r.id) == used_rels_.end();
  }

  bool NodeUsable(NodeId n) {
    if (opts_.morphism != Morphism::kNodeIsomorphism) return true;
    return path_nodes_.find(n.id) == path_nodes_.end();
  }

  // ---- Tuple / path / chain recursion -------------------------------------

  Result<bool> MatchPath(size_t path_idx) {
    if (path_idx == pattern_.paths.size()) return Emit();
    const PathPattern& path = pattern_.paths[path_idx];

    // Save per-path traversal state.
    std::vector<NodeId> saved_nodes = std::move(cur_nodes_);
    std::vector<RelId> saved_rels = std::move(cur_rels_);
    std::unordered_set<uint64_t> saved_path_nodes = std::move(path_nodes_);
    cur_nodes_.clear();
    cur_rels_.clear();
    path_nodes_.clear();

    auto restore = [&]() {
      cur_nodes_ = std::move(saved_nodes);
      cur_rels_ = std::move(saved_rels);
      path_nodes_ = std::move(saved_path_nodes);
    };

    Result<bool> result = MatchPathStart(path_idx, path);
    restore();
    return result;
  }

  Result<bool> MatchPathStart(size_t path_idx, const PathPattern& path) {
    // Determine candidate start nodes.
    if (path.start.var) {
      const Value* bound = LookupVar(*path.start.var);
      if (bound != nullptr) {
        if (!bound->is_node()) return true;  // bound to non-node: no match
        return TryStart(path_idx, path, bound->AsNode());
      }
    }
    if (!path.start.labels.empty()) {
      // Use the most selective label index.
      const std::vector<NodeId>* best = nullptr;
      for (const auto& l : path.start.labels) {
        const auto& idx = graph_.NodesWithLabel(l);
        if (best == nullptr || idx.size() < best->size()) best = &idx;
      }
      for (NodeId n : *best) {
        GQL_ASSIGN_OR_RETURN(bool cont, TryStart(path_idx, path, n));
        if (!cont) return false;
      }
      return true;
    }
    for (size_t i = 0; i < graph_.NumNodeSlots(); ++i) {
      NodeId n{i};
      if (!graph_.IsNodeAlive(n)) continue;
      GQL_ASSIGN_OR_RETURN(bool cont, TryStart(path_idx, path, n));
      if (!cont) return false;
    }
    return true;
  }

  Result<bool> TryStart(size_t path_idx, const PathPattern& path, NodeId n) {
    size_t frame = locals_.size();
    GQL_ASSIGN_OR_RETURN(bool ok, CheckAndBindNode(path.start, n));
    bool cont = true;
    if (ok) {
      cur_nodes_.push_back(n);
      path_nodes_.insert(n.id);
      GQL_ASSIGN_OR_RETURN(cont, MatchChain(path_idx, path, 0, n));
      path_nodes_.erase(n.id);
      cur_nodes_.pop_back();
    }
    locals_.resize(frame);
    return cont;
  }

  Result<bool> MatchChain(size_t path_idx, const PathPattern& path,
                          size_t hop_idx, NodeId cur) {
    if (hop_idx == path.hops.size()) {
      // Path complete: bind the path name if present, then next path.
      size_t frame = locals_.size();
      if (path.path_var) {
        Path p;
        p.nodes = cur_nodes_;
        p.rels = cur_rels_;
        if (!BindVar(*path.path_var, Value::MakePath(std::move(p)))) {
          locals_.resize(frame);
          return true;
        }
      }
      Result<bool> r = MatchPath(path_idx + 1);
      locals_.resize(frame);
      return r;
    }

    const PathPattern::Hop& hop = path.hops[hop_idx];
    HopRange range = EffectiveRange(hop.rel, opts_.max_var_length);

    // Zero-length refinement: the hop collapses; the next node pattern
    // must hold at the current node, and a named relationship variable
    // binds to list() (§4.2 case m = 0).
    if (range.lo == 0) {
      size_t frame = locals_.size();
      bool ok = true;
      if (hop.rel.var) ok = BindVar(*hop.rel.var, Value::EmptyList());
      if (ok) {
        GQL_ASSIGN_OR_RETURN(bool node_ok, CheckAndBindNode(hop.node, cur));
        if (node_ok) {
          GQL_ASSIGN_OR_RETURN(bool cont,
                               MatchChain(path_idx, path, hop_idx + 1, cur));
          if (!cont) {
            locals_.resize(frame);
            return false;
          }
        }
      }
      locals_.resize(frame);
    }

    if (range.hi < 1) return true;
    int64_t lo = std::max<int64_t>(range.lo, 1);
    return Walk(path_idx, path, hop_idx, cur, 0, lo, range.hi);
  }

  /// DFS over relationship sequences for one hop: at each depth d in
  /// [lo, hi] where the next node pattern holds, complete the hop (one
  /// rigid refinement); keep extending while d < hi.
  Result<bool> Walk(size_t path_idx, const PathPattern& path, size_t hop_idx,
                    NodeId cur, int64_t depth, int64_t lo, int64_t hi) {
    if (depth >= hi) return true;
    const RelPattern& rp = path.hops[hop_idx].rel;

    auto try_rel = [&](const AdjEntry& e, bool from_out) -> Result<bool> {
      const RelId r = e.rel;
      std::optional<NodeId> next = Step(rp, e, cur, from_out);
      if (!next) return true;
      if (!RelUsable(r)) return true;
      if (!NodeUsable(*next)) return true;
      GQL_ASSIGN_OR_RETURN(bool ok, RelConstraintsOk(rp, e));
      if (!ok) return true;

      used_rels_.insert(r.id);
      path_nodes_.insert(next->id);
      cur_nodes_.push_back(*next);
      cur_rels_.push_back(r);
      int64_t d = depth + 1;

      bool cont = true;
      if (d >= lo) {
        GQL_ASSIGN_OR_RETURN(
            cont, CompleteHop(path_idx, path, hop_idx, *next, d));
      }
      if (cont && d < hi) {
        GQL_ASSIGN_OR_RETURN(cont,
                             Walk(path_idx, path, hop_idx, *next, d, lo, hi));
      }

      cur_rels_.pop_back();
      cur_nodes_.pop_back();
      path_nodes_.erase(next->id);
      used_rels_.erase(r.id);
      return cont;
    };

    // A self-loop sits in both adjacency lists of its node; iterating only
    // the direction-relevant list(s) (plus the from_out dedup in Step)
    // guarantees it is considered exactly once per hop step.
    if (rp.direction != Direction::kLeft) {
      for (const AdjEntry& e : graph_.OutRels(cur)) {
        GQL_ASSIGN_OR_RETURN(bool cont, try_rel(e, true));
        if (!cont) return false;
      }
    }
    if (rp.direction != Direction::kRight) {
      for (const AdjEntry& e : graph_.InRels(cur)) {
        GQL_ASSIGN_OR_RETURN(bool cont, try_rel(e, false));
        if (!cont) return false;
      }
    }
    return true;
  }

  /// The hop's relationship sequence is cur_rels_[seg_start..]; bind the
  /// relationship variable, check the hop's target node pattern, recurse.
  Result<bool> CompleteHop(size_t path_idx, const PathPattern& path,
                           size_t hop_idx, NodeId target, int64_t seg_len) {
    const PathPattern::Hop& hop = path.hops[hop_idx];
    size_t frame = locals_.size();
    bool ok = true;
    if (hop.rel.var) {
      if (hop.rel.length) {
        ValueList rels;
        for (size_t i = cur_rels_.size() - seg_len; i < cur_rels_.size();
             ++i) {
          rels.push_back(Value::Relationship(cur_rels_[i]));
        }
        ok = BindVar(*hop.rel.var, Value::MakeList(std::move(rels)));
      } else {
        ok = BindVar(*hop.rel.var, Value::Relationship(cur_rels_.back()));
      }
    }
    bool cont = true;
    if (ok) {
      GQL_ASSIGN_OR_RETURN(bool node_ok, CheckAndBindNode(hop.node, target));
      if (node_ok) {
        GQL_ASSIGN_OR_RETURN(cont,
                             MatchChain(path_idx, path, hop_idx + 1, target));
      }
    }
    locals_.resize(frame);
    return cont;
  }

  Result<bool> Emit() {
    BindingRow row;
    row.reserve(columns_.size());
    for (const std::string& col : columns_) {
      const Value* v = LookupVar(col);
      if (v == nullptr) {
        return Status::Internal("pattern variable `" + col +
                                "` unbound at emit");
      }
      row.push_back(*v);
    }
    return sink_(row);
  }

  const Pattern& pattern_;
  const PropertyGraph& graph_;
  const Environment& env_;
  const EvalContext& ctx_;
  const MatchOptions& opts_;
  const std::vector<std::string>& columns_;
  const MatchSink& sink_;
  LocalEnv local_env_;

  std::vector<std::pair<std::string, Value>> locals_;
  std::unordered_set<uint64_t> used_rels_;  // across the whole tuple
  // Per-path traversal state (for path values and node isomorphism).
  std::vector<NodeId> cur_nodes_;
  std::vector<RelId> cur_rels_;
  std::unordered_set<uint64_t> path_nodes_;
};

}  // namespace

Status MatchPattern(const Pattern& pattern, const PropertyGraph& graph,
                    const Environment& env, const EvalContext& ctx,
                    const MatchOptions& opts,
                    const std::vector<std::string>& columns,
                    const MatchSink& sink) {
  return Matcher(pattern, graph, env, ctx, opts, columns, sink).Run();
}

std::vector<std::string> NewPatternColumns(const Pattern& pattern,
                                           const Environment& env) {
  std::vector<std::string> out;
  for (const std::string& v : PatternVariables(pattern)) {
    if (!env.Lookup(v)) out.push_back(v);
  }
  return out;
}

Result<bool> ExistsMatch(const Pattern& pattern, const PropertyGraph& graph,
                         const Environment& env, const EvalContext& ctx,
                         const MatchOptions& opts) {
  bool found = false;
  std::vector<std::string> columns;  // no bindings needed
  Status st = MatchPattern(pattern, graph, env, ctx, opts, columns,
                           [&](const BindingRow&) -> Result<bool> {
                             found = true;
                             return false;  // stop at first match
                           });
  GQL_RETURN_IF_ERROR(st);
  return found;
}

}  // namespace gqlite
