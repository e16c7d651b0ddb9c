#ifndef GQLITE_EVAL_EVAL_OPS_H_
#define GQLITE_EVAL_EVAL_OPS_H_

#include <string>
#include <string_view>

#include "src/common/result.h"
#include "src/eval/evaluator.h"
#include "src/frontend/ast.h"

namespace gqlite {

/// The value-level operations behind both expression evaluators — the
/// name-resolving EvaluateExpr (interpreter oracle) and the bound
/// evaluator of src/eval/bound_expr.h (Volcano runtime). Keeping one
/// definition of each operator is what keeps the two engines' results
/// and error messages identical.
namespace eval_ops {

Status TypeErr(const std::string& what, const Value& v);
Value TriToValue(Tri t);
/// 3VL view of a boolean operand; `op` names the operator in the error.
Result<Tri> AsTri(const Value& v, const char* op);

/// Property/component access on a value: maps index by key; nodes and
/// relationships consult ι; temporal values expose their components.
Result<Value> AccessProperty(const Value& obj, std::string_view key,
                             const EvalContext& ctx);

/// True for =, <>, <, <=, >, >=.
bool IsComparison(ast::BinaryOp op);
/// 3VL result of a comparison operator (IsComparison(op)).
Tri Compare(ast::BinaryOp op, const Value& a, const Value& b);

Result<Value> Arith(ast::BinaryOp op, const Value& a, const Value& b);
Result<Value> StringPredicate(ast::BinaryOp op, const Value& a,
                              const Value& b);
Result<Value> InList(const Value& needle, const Value& hay);
Result<Value> IndexValue(const Value& obj, const Value& idx,
                         const EvalContext& ctx);
Result<Value> SliceValue(const Value& obj, const Value& from,
                         const Value& to);

}  // namespace eval_ops
}  // namespace gqlite

#endif  // GQLITE_EVAL_EVAL_OPS_H_
