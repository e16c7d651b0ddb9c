#ifndef GQLITE_EVAL_BOUND_EXPR_H_
#define GQLITE_EVAL_BOUND_EXPR_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "src/common/result.h"
#include "src/eval/evaluator.h"
#include "src/frontend/ast.h"

namespace gqlite {

/// The per-plan table of the names a bound expression cannot resolve at
/// plan time: property keys and labels (interned per graph snapshot) and
/// query parameters (supplied per execution). Binding assigns each
/// distinct name an index; Resolve fills the indices with the executing
/// snapshot's SymbolIds and this execution's parameter values, so a
/// cached plan sees keys interned after it was planned and the
/// parameters of the execution at hand. Resolve costs O(keys + labels +
/// params), once per execution, never per row.
class BindTable {
 public:
  /// Plan time: the index of a name (assigned on first use).
  int KeyIndex(std::string_view key);
  int LabelIndex(std::string_view label);
  int ParamIndex(std::string_view name);

  /// Execution time: resolves every index against `graph`'s interners
  /// (null graph: every key and label reads as absent) and `params`
  /// (null: no parameters supplied). The pointers into `params` stay
  /// valid while the caller's map does — one execution.
  void Resolve(const PropertyGraph* graph, const ValueMap* params);
  /// True when a name was added since the last Resolve (or none ran) —
  /// operators opened outside ExecutePlan resolve lazily on this.
  bool stale() const { return stale_; }

  SymbolId key(int i) const { return key_ids_[i]; }
  SymbolId label(int i) const { return label_ids_[i]; }
  /// The bound parameter value, or an error naming what is missing
  /// (same messages as the name-based evaluator).
  Result<const Value*> param(int i) const;

 private:
  std::vector<std::string> key_names_;
  std::vector<std::string> label_names_;
  std::vector<std::string> param_names_;
  std::vector<SymbolId> key_ids_;
  std::vector<SymbolId> label_ids_;
  std::vector<const Value*> param_values_;
  bool params_supplied_ = false;
  bool stale_ = true;
};

/// Where a bound expression's variables live: the columns of the row it
/// is evaluated on, optionally a second ("outer") row consulted after
/// the first (ORDER BY in a non-aggregating projection sees the output
/// row, then the pre-projection row: output shadows input), and the
/// aggregate placeholders `#aggN` of a rewritten aggregating item.
struct BindScope {
  const std::vector<std::string>* row = nullptr;
  const std::vector<std::string>* outer = nullptr;
  size_t num_aggs = 0;  // `#agg0` .. `#agg{num_aggs-1}` are aggregate slots
};

/// The rows a bound expression reads, positionally matching its
/// BindScope. A variable whose row is absent (null pointer, or a row
/// shorter than its slot) raises the name-based evaluator's
/// "variable `x` is not bound".
struct BoundRow {
  const ValueList* row = nullptr;
  const ValueList* outer = nullptr;
  const Value* aggs = nullptr;
  size_t num_aggs = 0;
};

/// One bound variable of a name-based boundary (SlotEnvironment): which
/// row of the BoundRow holds it, at which slot.
struct NamedSlot {
  std::string name;
  uint8_t which = 0;  // 0 = BoundRow::row, 1 = BoundRow::outer
  int slot = -1;
};

/// An expression bound once per plan: variables are column slots of its
/// scope, `#aggN` placeholders aggregate slots, `x.key` and `x:Label`
/// indices into the BindTable, `$p` a parameter index. Evaluation walks
/// a flat node array and never compares a name, hashes a key or probes
/// the parameter map. Pure reads (slot, property, parameter, literal)
/// yield a `const Value*` into the row, the record or the parameter map,
/// and comparisons consume those pointers without copying.
///
/// Semantics are those of EvaluateExpr — both evaluators share the
/// value operations of src/eval/eval_ops.h and raise the same error
/// kinds and messages. Subtrees that scope their own locals (list
/// comprehensions, quantifiers, reduce) and pattern predicates (the
/// matcher is name-based) stay name-resolved: they run on EvaluateExpr
/// over a SlotEnvironment holding their free variables, bound to slots
/// at plan time.
///
/// The AST the expression was bound from, and the BindTable, must
/// outlive it.
class BoundExpr {
 public:
  BoundExpr() = default;

  static BoundExpr Bind(const ast::Expr& e, const BindScope& scope,
                        BindTable* table);

  bool empty() const { return nodes_.empty(); }

  /// ⟦e⟧ on `row`.
  Result<Value> Eval(const BoundRow& row, const EvalContext& ctx) const;
  /// WHERE form: true/false/null; a non-boolean is a type error.
  Result<Tri> EvalPredicate(const BoundRow& row, const EvalContext& ctx) const;

 private:
  friend class BoundEvaluator;
  friend class ExprBinder;

  enum class Op : uint8_t {
    kConst,        // src: LiteralExpr
    kSlot,         // index: BoundRow::row slot
    kOuterSlot,    // index: BoundRow::outer slot
    kAggSlot,      // index: aggregate slot
    kUnbound,      // a variable no scope binds (error when evaluated)
    kParam,        // index: BindTable parameter
    kProperty,     // index: BindTable key; kid 0: object
    kLabelCheck,   // index: first entry of label_refs_; kid 0: object
    kList,         // kids: items
    kMap,          // kids: entry values (keys from src)
    kCountStar,    // error outside projections
    kAggregate,    // error outside projections
    kExists,       // exists(expr) over a non-pattern argument; kid 0
    kFunction,     // kids: args
    kLogical,      // AND / OR / XOR; kids: lhs, rhs
    kBinary,       // every other binary operator; kids: lhs, rhs
    kUnary,        // kid 0
    kIndex,        // kids: object, index
    kSlice,        // kids: object, from?, to?
    kCase,         // kids: operand?, (when, then)*, otherwise?
    kByName,       // comprehension, quantifier, reduce, pattern
                   // predicate; index: names_ entry
  };

  static constexpr uint32_t kNoKid = UINT32_MAX;

  struct Node {
    Op op = Op::kConst;
    int32_t index = -1;
    uint32_t first_kid = 0;
    uint32_t num_kids = 0;
    const ast::Expr* src = nullptr;
  };

  std::vector<Node> nodes_;      // nodes_[0] is the root
  std::vector<uint32_t> kids_;   // child node indices (kNoKid = absent)
  std::vector<int> label_refs_;  // BindTable label indices of checks
  std::vector<std::vector<NamedSlot>> names_;  // of kByName subtrees
  const BindTable* table_ = nullptr;
};

/// The names a pattern's evaluation can look up in its environment: its
/// own variables plus the free variables of its property expressions.
std::vector<std::string> PatternNames(const ast::Pattern& pattern);

/// Resolves `names` against `scope` (row first, then outer); names the
/// scope does not hold are left out.
std::vector<NamedSlot> BindNames(const std::vector<std::string>& names,
                                 const BindScope& scope);

/// The Environment a name-based consumer (the pattern matcher, a
/// scoped subtree) sees over a bound row: only the names bound ahead of
/// time in `slots`, each read from its slot.
class SlotEnvironment : public Environment {
 public:
  SlotEnvironment(const std::vector<NamedSlot>& slots, const BoundRow& row)
      : slots_(slots), row_(row) {}
  const Value* Lookup(const std::string& name) const override;

 private:
  const std::vector<NamedSlot>& slots_;
  const BoundRow& row_;
};

}  // namespace gqlite

#endif  // GQLITE_EVAL_BOUND_EXPR_H_
