#ifndef GQLITE_EVAL_EVALUATOR_H_
#define GQLITE_EVAL_EVALUATOR_H_

#include <functional>
#include <optional>
#include <string>

#include "src/common/result.h"
#include "src/frontend/ast.h"
#include "src/graph/property_graph.h"
#include "src/value/value_compare.h"

namespace gqlite {

/// A variable-binding environment (the assignment u of the paper). The
/// name-based evaluator (EvaluateExpr, the interpreter oracle's) and the
/// pattern matcher resolve variables through this interface; list
/// comprehensions push overlay environments. The Volcano runtime binds
/// variables to row slots instead (src/eval/bound_expr.h) and builds an
/// Environment only at the matcher boundary.
class Environment {
 public:
  virtual ~Environment() = default;
  /// Pointer to the value bound to `name`, or nullptr if unbound. The
  /// pointee lives in the environment's backing storage (a row, a map, an
  /// overlay binding) — no Value is materialized by a lookup; callers
  /// copy only when they need ownership.
  virtual const Value* Lookup(const std::string& name) const = 0;
};

/// Environment over an explicit map (tests, parameters-only evaluation).
class MapEnvironment : public Environment {
 public:
  MapEnvironment() = default;
  explicit MapEnvironment(ValueMap vars) : vars_(std::move(vars)) {}
  void Set(const std::string& name, Value v) { vars_[name] = std::move(v); }
  const Value* Lookup(const std::string& name) const override {
    auto it = vars_.find(name);
    if (it == vars_.end()) return nullptr;
    return &it->second;
  }

 private:
  ValueMap vars_;
};

/// One extra binding layered over a base environment (list comprehension
/// iteration variable).
class OverlayEnvironment : public Environment {
 public:
  OverlayEnvironment(const Environment& base, const std::string& name,
                     const Value& v)
      : base_(base), name_(name), value_(v) {}
  const Value* Lookup(const std::string& name) const override {
    if (name == name_) return &value_;
    return base_.Lookup(name);
  }

 private:
  const Environment& base_;
  const std::string& name_;
  const Value& value_;
};

/// Context threaded through expression evaluation: the graph G (for
/// property/label access — ⟦expr⟧G,u is parameterized by G), the query
/// parameters, and a hook for evaluating pattern predicates (wired up by
/// the interpreter layer, which owns pattern matching; this breaks the
/// eval↔pattern dependency cycle).
struct EvalContext {
  const PropertyGraph* graph = nullptr;
  const ValueMap* parameters = nullptr;
  std::function<Result<bool>(const ast::Pattern&, const Environment&)>
      pattern_predicate;
  /// Deterministic PRNG state for rand(); owned by the engine.
  uint64_t* rand_state = nullptr;
};

/// Evaluates ⟦expr⟧G,u (§4.3) by name: every variable is looked up in
/// `env`, every property key and parameter by its string. This is the
/// interpreter oracle's evaluator; the Volcano runtime evaluates the
/// same semantics through BoundExpr, bound once per plan. Type errors
/// (e.g. `1 + true`) are kTypeError; nulls propagate per SQL/Cypher rules
/// and never error.
Result<Value> EvaluateExpr(const ast::Expr& e, const Environment& env,
                           const EvalContext& ctx);

/// Evaluates an expression to a Tri for WHERE filtering: true/false/null;
/// non-boolean non-null values are a type error.
Result<Tri> EvaluatePredicate(const ast::Expr& e, const Environment& env,
                              const EvalContext& ctx);

/// Arithmetic helpers shared with the update executor.
Result<Value> AddValues(const Value& a, const Value& b);

/// Checked int64 addition shared by the `+` operator and the sum()/avg()
/// aggregators: raises `EvaluationError: integer overflow` instead of
/// wrapping (which is UB in C++ and wrong under openCypher semantics).
Result<int64_t> CheckedAddInt64(int64_t a, int64_t b);

}  // namespace gqlite

#endif  // GQLITE_EVAL_EVALUATOR_H_
