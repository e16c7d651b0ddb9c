#ifndef GQLITE_FRONTEND_ANALYZER_H_
#define GQLITE_FRONTEND_ANALYZER_H_

#include <map>
#include <string>
#include <vector>

#include "src/common/result.h"
#include "src/frontend/ast.h"

namespace gqlite {

/// What a variable in scope denotes. Node/relationship/path variables come
/// from patterns; kValue covers projections, UNWIND aliases and
/// variable-length relationship lists.
enum class VarKind : uint8_t { kNode, kRelationship, kPath, kValue };

/// True for Cypher's aggregating functions (count, sum, avg, min, max,
/// collect). The projection semantics of WITH/RETURN treats items
/// containing these as aggregates and the rest as grouping keys (§3).
bool IsAggregateFunction(const std::string& lowercase_name);

/// True if `e` contains an aggregate function call (at any depth).
bool ContainsAggregate(const ast::Expr& e);

/// The column name assigned to an un-aliased return item — the paper's
/// injective α function from expressions to names. We use the unparsed
/// expression text.
std::string DerivedColumnName(const ast::Expr& e);

/// Variables referenced by an expression (free variables, not counting
/// list-comprehension, quantifier or reduce locals; a pattern
/// predicate's include its property expressions'). The planner places
/// filters by them; the binder binds them to slots for the subtrees it
/// leaves name-resolved.
std::vector<std::string> ExprVariables(const ast::Expr& e);

/// Result of semantic analysis.
struct QueryInfo {
  /// True if any clause mutates the graph (CREATE/DELETE/SET/REMOVE/MERGE).
  bool updating = false;
  /// Output column names (empty for queries ending in an update clause or
  /// RETURN GRAPH).
  std::vector<std::string> columns;
};

/// Validates a parsed query: variable scoping through the linear clause
/// flow (variables not projected by WITH go out of scope, §3), pattern
/// variable kind consistency, aggregation placement, clause ordering,
/// UNION column compatibility, and the restrictions on update-clause
/// patterns. Returns metadata used by the executors.
Result<QueryInfo> Analyze(const ast::Query& q);

}  // namespace gqlite

#endif  // GQLITE_FRONTEND_ANALYZER_H_
