#include "src/plan/logical_plan.h"

#include <set>

namespace gqlite {

using namespace ast;  // NOLINT(build/namespaces)

bool PipelinePlannable(const Pattern& pattern) {
  std::set<std::string> var_length_vars;
  for (const auto& path : pattern.paths) {
    if (path.path_var) return false;  // path values need full traversal info
    for (const auto& hop : path.hops) {
      if (hop.rel.var && hop.rel.length) {
        // A repeated var-length variable requires list-equality joins the
        // pipeline does not implement.
        if (!var_length_vars.insert(*hop.rel.var).second) return false;
      }
    }
  }
  return true;
}

std::vector<const Expr*> SplitConjuncts(const Expr& e) {
  if (e.kind == Expr::Kind::kBinary) {
    const auto& b = static_cast<const BinaryExpr&>(e);
    if (b.op == BinaryOp::kAnd) {
      std::vector<const Expr*> out = SplitConjuncts(*b.lhs);
      for (const Expr* c : SplitConjuncts(*b.rhs)) out.push_back(c);
      return out;
    }
  }
  return {&e};
}

}  // namespace gqlite
