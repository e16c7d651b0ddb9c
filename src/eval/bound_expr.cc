#include "src/eval/bound_expr.h"

#include <algorithm>
#include <cstdint>

#include "src/eval/eval_ops.h"
#include "src/eval/functions.h"
#include "src/frontend/analyzer.h"
#include "src/pattern/pattern.h"

namespace gqlite {

using namespace ast;             // NOLINT(build/namespaces)
using namespace eval_ops;        // NOLINT(build/namespaces)

// ---- BindTable --------------------------------------------------------------

namespace {

int IndexOf(std::vector<std::string>* names, std::string_view name,
            bool* stale) {
  for (size_t i = 0; i < names->size(); ++i) {
    if ((*names)[i] == name) return static_cast<int>(i);
  }
  names->emplace_back(name);
  *stale = true;
  return static_cast<int>(names->size() - 1);
}

}  // namespace

int BindTable::KeyIndex(std::string_view key) {
  return IndexOf(&key_names_, key, &stale_);
}

int BindTable::LabelIndex(std::string_view label) {
  return IndexOf(&label_names_, label, &stale_);
}

int BindTable::ParamIndex(std::string_view name) {
  return IndexOf(&param_names_, name, &stale_);
}

void BindTable::Resolve(const PropertyGraph* graph, const ValueMap* params) {
  key_ids_.assign(key_names_.size(), kNoSymbol);
  label_ids_.assign(label_names_.size(), kNoSymbol);
  if (graph != nullptr) {
    for (size_t i = 0; i < key_names_.size(); ++i) {
      key_ids_[i] = graph->keys().Lookup(key_names_[i]);
    }
    for (size_t i = 0; i < label_names_.size(); ++i) {
      label_ids_[i] = graph->LookupLabel(label_names_[i]);
    }
  }
  params_supplied_ = params != nullptr;
  param_values_.assign(param_names_.size(), nullptr);
  if (params != nullptr) {
    for (size_t i = 0; i < param_names_.size(); ++i) {
      auto it = params->find(param_names_[i]);
      if (it != params->end()) param_values_[i] = &it->second;
    }
  }
  stale_ = false;
}

Result<const Value*> BindTable::param(int i) const {
  if (!params_supplied_) {
    return Status::EvaluationError("no parameters supplied");
  }
  const Value* v = param_values_[i];
  if (v == nullptr) {
    return Status::EvaluationError("missing query parameter $" +
                                   param_names_[i]);
  }
  return v;
}

// ---- Binding ----------------------------------------------------------------

std::vector<std::string> PatternNames(const Pattern& pattern) {
  std::vector<std::string> names = PatternVariables(pattern);
  auto add_exprs = [&](const auto& props) {
    for (const auto& kv : props) {
      for (std::string& v : ExprVariables(*kv.second)) {
        names.push_back(std::move(v));
      }
    }
  };
  for (const auto& path : pattern.paths) {
    add_exprs(path.start.properties);
    for (const auto& hop : path.hops) {
      add_exprs(hop.rel.properties);
      add_exprs(hop.node.properties);
    }
  }
  std::sort(names.begin(), names.end());
  names.erase(std::unique(names.begin(), names.end()), names.end());
  return names;
}

namespace {

int SlotOf(const std::vector<std::string>* cols, const std::string& name) {
  if (cols == nullptr) return -1;
  for (size_t i = 0; i < cols->size(); ++i) {
    if ((*cols)[i] == name) return static_cast<int>(i);
  }
  return -1;
}

}  // namespace

std::vector<NamedSlot> BindNames(const std::vector<std::string>& names,
                                 const BindScope& scope) {
  std::vector<NamedSlot> out;
  for (const std::string& n : names) {
    int s = SlotOf(scope.row, n);
    if (s >= 0) {
      out.push_back(NamedSlot{n, 0, s});
      continue;
    }
    s = SlotOf(scope.outer, n);
    if (s >= 0) out.push_back(NamedSlot{n, 1, s});
  }
  return out;
}

/// Builds a BoundExpr's node array from an AST: one node per AST node,
/// children appended after their parent is reserved.
class ExprBinder {
 public:
  ExprBinder(BoundExpr* out, const BindScope& scope, BindTable* table)
      : out_(out), scope_(scope), table_(table) {}

  uint32_t Bind(const Expr& e) {
    using Op = BoundExpr::Op;
    uint32_t id = static_cast<uint32_t>(out_->nodes_.size());
    out_->nodes_.push_back(BoundExpr::Node{});
    out_->nodes_[id].src = &e;
    Op op = Op::kConst;
    int32_t index = -1;
    std::vector<uint32_t> kids;
    auto opt = [&](const ExprPtr& p) {
      return p ? Bind(*p) : BoundExpr::kNoKid;
    };
    switch (e.kind) {
      case Expr::Kind::kLiteral:
        op = Op::kConst;
        break;
      case Expr::Kind::kVariable:
        BindVariable(static_cast<const VariableExpr&>(e).name, &op, &index);
        break;
      case Expr::Kind::kParameter:
        op = Op::kParam;
        index = table_->ParamIndex(static_cast<const ParameterExpr&>(e).name);
        break;
      case Expr::Kind::kProperty: {
        const auto& p = static_cast<const PropertyExpr&>(e);
        op = Op::kProperty;
        index = table_->KeyIndex(p.key);
        kids.push_back(Bind(*p.object));
        break;
      }
      case Expr::Kind::kLabelCheck: {
        const auto& p = static_cast<const LabelCheckExpr&>(e);
        op = Op::kLabelCheck;
        index = static_cast<int32_t>(out_->label_refs_.size());
        for (const auto& l : p.labels) {
          out_->label_refs_.push_back(table_->LabelIndex(l));
        }
        kids.push_back(Bind(*p.object));
        break;
      }
      case Expr::Kind::kListLiteral:
        op = Op::kList;
        for (const auto& i : static_cast<const ListLiteralExpr&>(e).items) {
          kids.push_back(Bind(*i));
        }
        break;
      case Expr::Kind::kMapLiteral:
        op = Op::kMap;
        for (const auto& kv : static_cast<const MapLiteralExpr&>(e).entries) {
          kids.push_back(Bind(*kv.second));
        }
        break;
      case Expr::Kind::kCountStar:
        op = Op::kCountStar;
        break;
      case Expr::Kind::kFunctionCall: {
        const auto& f = static_cast<const FunctionCallExpr&>(e);
        if (IsAggregateFunction(f.name)) {
          op = Op::kAggregate;
        } else if (f.name == "exists" && f.args.size() == 1) {
          if (f.args[0]->kind == Expr::Kind::kPatternPredicate) {
            // exists(pattern) is the pattern predicate itself.
            out_->nodes_.pop_back();
            return Bind(*f.args[0]);
          }
          op = Op::kExists;
          kids.push_back(Bind(*f.args[0]));
        } else {
          op = Op::kFunction;
          for (const auto& a : f.args) kids.push_back(Bind(*a));
        }
        break;
      }
      case Expr::Kind::kBinary: {
        const auto& b = static_cast<const BinaryExpr&>(e);
        op = b.op == BinaryOp::kAnd || b.op == BinaryOp::kOr ||
                     b.op == BinaryOp::kXor
                 ? Op::kLogical
                 : Op::kBinary;
        kids.push_back(Bind(*b.lhs));
        kids.push_back(Bind(*b.rhs));
        break;
      }
      case Expr::Kind::kUnary:
        op = Op::kUnary;
        kids.push_back(Bind(*static_cast<const UnaryExpr&>(e).operand));
        break;
      case Expr::Kind::kIndex: {
        const auto& i = static_cast<const IndexExpr&>(e);
        op = Op::kIndex;
        kids.push_back(Bind(*i.object));
        kids.push_back(Bind(*i.index));
        break;
      }
      case Expr::Kind::kSlice: {
        const auto& s = static_cast<const SliceExpr&>(e);
        op = Op::kSlice;
        kids.push_back(Bind(*s.object));
        kids.push_back(opt(s.from));
        kids.push_back(opt(s.to));
        break;
      }
      case Expr::Kind::kCase: {
        const auto& c = static_cast<const CaseExpr&>(e);
        op = Op::kCase;
        kids.push_back(opt(c.operand));
        for (const auto& [w, t] : c.whens) {
          kids.push_back(Bind(*w));
          kids.push_back(Bind(*t));
        }
        kids.push_back(opt(c.otherwise));
        break;
      }
      case Expr::Kind::kListComprehension:
      case Expr::Kind::kQuantifier:
      case Expr::Kind::kReduce:
      case Expr::Kind::kPatternPredicate:
        // Locals scoped inside these, and the pattern matcher, stay
        // name-resolved: the subtree runs on EvaluateExpr over its free
        // variables, bound to their slots here.
        op = Op::kByName;
        index = static_cast<int32_t>(out_->names_.size());
        out_->names_.push_back(BindNames(ExprVariables(e), scope_));
        break;
    }
    BoundExpr::Node& n = out_->nodes_[id];
    n.op = op;
    n.index = index;
    n.first_kid = static_cast<uint32_t>(out_->kids_.size());
    n.num_kids = static_cast<uint32_t>(kids.size());
    out_->kids_.insert(out_->kids_.end(), kids.begin(), kids.end());
    return id;
  }

 private:
  void BindVariable(const std::string& name, BoundExpr::Op* op,
                    int32_t* index) {
    using Op = BoundExpr::Op;
    // `#aggN` placeholders resolve before the row columns; a malformed
    // or out-of-range N falls through to them.
    if (scope_.num_aggs > 0 && name.size() > 4 &&
        name.compare(0, 4, "#agg") == 0 &&
        name.find_first_not_of("0123456789", 4) == std::string::npos &&
        name.size() < 14) {
      size_t i = std::stoul(name.substr(4));
      if (i < scope_.num_aggs) {
        *op = Op::kAggSlot;
        *index = static_cast<int32_t>(i);
        return;
      }
    }
    int s = SlotOf(scope_.row, name);
    if (s >= 0) {
      *op = Op::kSlot;
      *index = s;
      return;
    }
    s = SlotOf(scope_.outer, name);
    if (s >= 0) {
      *op = Op::kOuterSlot;
      *index = s;
      return;
    }
    *op = Op::kUnbound;
  }

  BoundExpr* out_;
  const BindScope& scope_;
  BindTable* table_;
};

BoundExpr BoundExpr::Bind(const Expr& e, const BindScope& scope,
                          BindTable* table) {
  BoundExpr out;
  out.table_ = table;
  ExprBinder binder(&out, scope, table);
  binder.Bind(e);
  return out;
}

// ---- Evaluation -------------------------------------------------------------

const Value* SlotEnvironment::Lookup(const std::string& name) const {
  for (const NamedSlot& s : slots_) {
    if (s.name != name) continue;
    const ValueList* r = s.which == 0 ? row_.row : row_.outer;
    if (r == nullptr || static_cast<size_t>(s.slot) >= r->size()) {
      return nullptr;
    }
    return &(*r)[s.slot];
  }
  return nullptr;
}

namespace {

Status Unbound(const Expr& e) {
  return Status::EvaluationError(
      "variable `" + static_cast<const VariableExpr&>(e).name +
      "` is not bound");
}

const Value& NullValue() {
  static const Value kNull;
  return kNull;
}

}  // namespace

/// One evaluation of a BoundExpr over one BoundRow.
class BoundEvaluator {
 public:
  BoundEvaluator(const BoundExpr& x, const BoundRow& row,
                 const EvalContext& ctx)
      : x_(x), row_(row), ctx_(ctx) {}

  Result<Value> Eval(uint32_t id);
  /// The WHERE form of node `id`: a comparison yields its Tri directly;
  /// anything else is evaluated and must be a boolean or null.
  Result<Tri> Test(uint32_t id);
  /// Pure reads (slot, property, parameter, literal) point into the
  /// row, the record, the parameter map or the AST; anything else is
  /// computed into `*scratch`.
  Result<const Value*> Ref(uint32_t id, Value* scratch);

 private:
  using Node = BoundExpr::Node;
  using Op = BoundExpr::Op;

  uint32_t Kid(const Node& n, uint32_t i) const {
    return x_.kids_[n.first_kid + i];
  }
  Result<const Value*> Slot(const ValueList* r, const Node& n) const {
    if (r == nullptr || static_cast<size_t>(n.index) >= r->size()) {
      return Unbound(*n.src);
    }
    return &(*r)[n.index];
  }
  Result<Value> EvalCompute(const Node& n);

  const BoundExpr& x_;
  const BoundRow& row_;
  const EvalContext& ctx_;
};

Result<const Value*> BoundEvaluator::Ref(uint32_t id, Value* scratch) {
  const Node& n = x_.nodes_[id];
  switch (n.op) {
    case Op::kConst:
      return &static_cast<const LiteralExpr&>(*n.src).value;
    case Op::kSlot:
      return Slot(row_.row, n);
    case Op::kOuterSlot:
      return Slot(row_.outer, n);
    case Op::kAggSlot:
      if (static_cast<size_t>(n.index) >= row_.num_aggs) return Unbound(*n.src);
      return &row_.aggs[n.index];
    case Op::kUnbound:
      return Unbound(*n.src);
    case Op::kParam:
      return x_.table_->param(n.index);
    case Op::kProperty: {
      GQL_ASSIGN_OR_RETURN(const Value* obj, Ref(Kid(n, 0), scratch));
      switch (obj->type()) {
        case ValueType::kNull:
          return &NullValue();
        case ValueType::kMap: {
          const ValueMap& m = obj->AsMap();
          auto it = m.find(static_cast<const PropertyExpr&>(*n.src).key);
          return it == m.end() ? &NullValue() : &it->second;
        }
        case ValueType::kNode:
          if (ctx_.graph == nullptr) {
            return Status::EvaluationError(
                "no graph bound for property access");
          }
          if (!ctx_.graph->IsNodeAlive(obj->AsNode())) {
            return Status::EvaluationError(
                "cannot access property of a deleted node");
          }
          return &ctx_.graph->NodePropertyById(obj->AsNode(),
                                               x_.table_->key(n.index));
        case ValueType::kRelationship:
          if (ctx_.graph == nullptr) {
            return Status::EvaluationError(
                "no graph bound for property access");
          }
          if (!ctx_.graph->IsRelAlive(obj->AsRelationship())) {
            return Status::EvaluationError(
                "cannot access property of a deleted relationship");
          }
          return &ctx_.graph->RelPropertyById(obj->AsRelationship(),
                                              x_.table_->key(n.index));
        default: {
          // Temporal components and the type error.
          GQL_ASSIGN_OR_RETURN(
              Value v,
              AccessProperty(*obj, static_cast<const PropertyExpr&>(*n.src).key,
                             ctx_));
          *scratch = std::move(v);
          return scratch;
        }
      }
    }
    default: {
      GQL_ASSIGN_OR_RETURN(*scratch, EvalCompute(n));
      return scratch;
    }
  }
}

Result<Value> BoundEvaluator::Eval(uint32_t id) {
  const Node& n = x_.nodes_[id];
  switch (n.op) {
    case Op::kConst:
    case Op::kSlot:
    case Op::kOuterSlot:
    case Op::kAggSlot:
    case Op::kUnbound:
    case Op::kParam:
    case Op::kProperty: {
      Value scratch;
      GQL_ASSIGN_OR_RETURN(const Value* v, Ref(id, &scratch));
      if (v == &scratch) return scratch;
      return *v;
    }
    default:
      return EvalCompute(n);
  }
}

Result<Value> BoundEvaluator::EvalCompute(const Node& n) {
  switch (n.op) {
    case Op::kLabelCheck: {
      const auto& p = static_cast<const LabelCheckExpr&>(*n.src);
      Value scratch;
      GQL_ASSIGN_OR_RETURN(const Value* obj, Ref(Kid(n, 0), &scratch));
      if (obj->is_null()) return Value::Null();
      if (!obj->is_node()) {
        return TypeErr("label predicate requires a node", *obj);
      }
      if (ctx_.graph == nullptr || !ctx_.graph->IsNodeAlive(obj->AsNode())) {
        return Status::EvaluationError("label check on a deleted node");
      }
      for (size_t i = 0; i < p.labels.size(); ++i) {
        SymbolId l = x_.table_->label(x_.label_refs_[n.index + i]);
        if (l == kNoSymbol || !ctx_.graph->NodeHasLabelId(obj->AsNode(), l)) {
          return Value::Bool(false);
        }
      }
      return Value::Bool(true);
    }
    case Op::kList: {
      ValueList out;
      out.reserve(n.num_kids);
      for (uint32_t i = 0; i < n.num_kids; ++i) {
        GQL_ASSIGN_OR_RETURN(Value v, Eval(Kid(n, i)));
        out.push_back(std::move(v));
      }
      return Value::MakeList(std::move(out));
    }
    case Op::kMap: {
      const auto& m = static_cast<const MapLiteralExpr&>(*n.src);
      ValueMap out;
      for (uint32_t i = 0; i < n.num_kids; ++i) {
        GQL_ASSIGN_OR_RETURN(Value v, Eval(Kid(n, i)));
        out[m.entries[i].first] = std::move(v);
      }
      return Value::MakeMap(std::move(out));
    }
    case Op::kCountStar:
      return Status::EvaluationError(
          "count(*) is only valid in RETURN/WITH projections");
    case Op::kAggregate: {
      const auto& fc = static_cast<const FunctionCallExpr&>(*n.src);
      return Status::EvaluationError(
          "aggregate function " + fc.name +
          " is only valid in RETURN/WITH projections");
    }
    case Op::kExists: {
      Value scratch;
      GQL_ASSIGN_OR_RETURN(const Value* v, Ref(Kid(n, 0), &scratch));
      return Value::Bool(!v->is_null());
    }
    case Op::kFunction: {
      const auto& fc = static_cast<const FunctionCallExpr&>(*n.src);
      std::vector<Value> args;
      args.reserve(n.num_kids);
      for (uint32_t i = 0; i < n.num_kids; ++i) {
        GQL_ASSIGN_OR_RETURN(Value v, Eval(Kid(n, i)));
        args.push_back(std::move(v));
      }
      return CallFunction(fc.name, args, ctx_);
    }
    case Op::kLogical: {
      const auto& b = static_cast<const BinaryExpr&>(*n.src);
      Value ls, rs;
      GQL_ASSIGN_OR_RETURN(const Value* lv, Ref(Kid(n, 0), &ls));
      GQL_ASSIGN_OR_RETURN(const Value* rv, Ref(Kid(n, 1), &rs));
      GQL_ASSIGN_OR_RETURN(Tri lt, AsTri(*lv, BinaryOpName(b.op)));
      GQL_ASSIGN_OR_RETURN(Tri rt, AsTri(*rv, BinaryOpName(b.op)));
      Tri r = b.op == BinaryOp::kAnd
                  ? TriAnd(lt, rt)
                  : (b.op == BinaryOp::kOr ? TriOr(lt, rt) : TriXor(lt, rt));
      return TriToValue(r);
    }
    case Op::kBinary: {
      const auto& b = static_cast<const BinaryExpr&>(*n.src);
      Value ls, rs;
      GQL_ASSIGN_OR_RETURN(const Value* lp, Ref(Kid(n, 0), &ls));
      GQL_ASSIGN_OR_RETURN(const Value* rp, Ref(Kid(n, 1), &rs));
      const Value& lv = *lp;
      const Value& rv = *rp;
      if (IsComparison(b.op)) return TriToValue(Compare(b.op, lv, rv));
      switch (b.op) {
        case BinaryOp::kAdd:
        case BinaryOp::kSub:
        case BinaryOp::kMul:
        case BinaryOp::kDiv:
        case BinaryOp::kMod:
        case BinaryOp::kPow:
          return Arith(b.op, lv, rv);
        case BinaryOp::kIn:
          if (lv.is_null() && rv.is_null()) return Value::Null();
          return InList(lv, rv);
        case BinaryOp::kStartsWith:
        case BinaryOp::kEndsWith:
        case BinaryOp::kContains:
        case BinaryOp::kRegexMatch:
          return StringPredicate(b.op, lv, rv);
        default:
          return Status::Internal("unhandled binary operator");
      }
    }
    case Op::kUnary: {
      const auto& u = static_cast<const UnaryExpr&>(*n.src);
      Value scratch;
      GQL_ASSIGN_OR_RETURN(const Value* vp, Ref(Kid(n, 0), &scratch));
      const Value& v = *vp;
      switch (u.op) {
        case UnaryOp::kNot: {
          GQL_ASSIGN_OR_RETURN(Tri t, AsTri(v, "NOT"));
          return TriToValue(TriNot(t));
        }
        case UnaryOp::kMinus:
          if (v.is_null()) return Value::Null();
          if (v.is_int()) {
            if (v.AsInt() == INT64_MIN) {
              return Status::EvaluationError(
                  "integer overflow: -(" + std::to_string(v.AsInt()) + ")");
            }
            return Value::Int(-v.AsInt());
          }
          if (v.is_float()) return Value::Float(-v.AsFloat());
          if (v.type() == ValueType::kDuration) {
            return Value::Temporal(v.AsDuration().Negated());
          }
          return TypeErr("unary minus requires a number", v);
        case UnaryOp::kPlus:
          if (v.is_null() || v.is_number()) return v;
          return TypeErr("unary plus requires a number", v);
        case UnaryOp::kIsNull:
          return Value::Bool(v.is_null());
        case UnaryOp::kIsNotNull:
          return Value::Bool(!v.is_null());
      }
      return Status::Internal("unhandled unary operator");
    }
    case Op::kIndex: {
      Value os, is;
      GQL_ASSIGN_OR_RETURN(const Value* obj, Ref(Kid(n, 0), &os));
      GQL_ASSIGN_OR_RETURN(const Value* idx, Ref(Kid(n, 1), &is));
      return IndexValue(*obj, *idx, ctx_);
    }
    case Op::kSlice: {
      GQL_ASSIGN_OR_RETURN(Value obj, Eval(Kid(n, 0)));
      Value from = Value::Int(0);
      if (Kid(n, 1) != BoundExpr::kNoKid) {
        GQL_ASSIGN_OR_RETURN(from, Eval(Kid(n, 1)));
      }
      Value to = obj.is_list()
                     ? Value::Int(static_cast<int64_t>(obj.AsList().size()))
                     : Value::Null();
      if (Kid(n, 2) != BoundExpr::kNoKid) {
        GQL_ASSIGN_OR_RETURN(to, Eval(Kid(n, 2)));
      }
      if (!obj.is_null() && !obj.is_list()) {
        return TypeErr("slicing requires a list", obj);
      }
      if (obj.is_null()) return Value::Null();
      return SliceValue(obj, from, to);
    }
    case Op::kCase: {
      const uint32_t whens = (n.num_kids - 2) / 2;
      const uint32_t operand = Kid(n, 0);
      if (operand != BoundExpr::kNoKid) {
        GQL_ASSIGN_OR_RETURN(Value op, Eval(operand));
        for (uint32_t i = 0; i < whens; ++i) {
          GQL_ASSIGN_OR_RETURN(Value wv, Eval(Kid(n, 1 + 2 * i)));
          if (ValueEquals(op, wv) == Tri::kTrue) {
            return Eval(Kid(n, 2 + 2 * i));
          }
        }
      } else {
        for (uint32_t i = 0; i < whens; ++i) {
          GQL_ASSIGN_OR_RETURN(Value wv, Eval(Kid(n, 1 + 2 * i)));
          GQL_ASSIGN_OR_RETURN(Tri wt, AsTri(wv, "CASE WHEN"));
          if (wt == Tri::kTrue) return Eval(Kid(n, 2 + 2 * i));
        }
      }
      const uint32_t otherwise = Kid(n, n.num_kids - 1);
      if (otherwise != BoundExpr::kNoKid) return Eval(otherwise);
      return Value::Null();
    }
    case Op::kByName: {
      SlotEnvironment env(x_.names_[n.index], row_);
      return EvaluateExpr(*n.src, env, ctx_);
    }
    default:
      return Status::Internal("unhandled expression kind");
  }
}

Result<Value> BoundExpr::Eval(const BoundRow& row,
                              const EvalContext& ctx) const {
  BoundEvaluator ev(*this, row, ctx);
  return ev.Eval(0);
}

Result<Tri> BoundEvaluator::Test(uint32_t id) {
  const Node& n = x_.nodes_[id];
  Value ls, rs;
  if (n.op == Op::kBinary) {
    BinaryOp op = static_cast<const BinaryExpr&>(*n.src).op;
    if (IsComparison(op)) {
      GQL_ASSIGN_OR_RETURN(const Value* lv, Ref(Kid(n, 0), &ls));
      GQL_ASSIGN_OR_RETURN(const Value* rv, Ref(Kid(n, 1), &rs));
      return Compare(op, *lv, *rv);
    }
  }
  GQL_ASSIGN_OR_RETURN(const Value* v, Ref(id, &ls));
  if (v->is_null()) return Tri::kNull;
  if (v->is_bool()) return TriFromBool(v->AsBool());
  return Status::TypeError(
      "predicate must evaluate to a boolean or null (got " +
      std::string(ValueTypeName(v->type())) + ")");
}

Result<Tri> BoundExpr::EvalPredicate(const BoundRow& row,
                                     const EvalContext& ctx) const {
  BoundEvaluator ev(*this, row, ctx);
  return ev.Test(0);
}

}  // namespace gqlite
