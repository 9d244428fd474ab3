#include "solap/expr/row_predicate.h"

#include <algorithm>
#include <iterator>

namespace solap {

namespace {

bool IsNumeric(ValueType t) {
  return t == ValueType::kInt64 || t == ValueType::kDouble ||
         t == ValueType::kTimestamp;
}

bool IsComparison(ExprOp op) {
  return op == ExprOp::kEq || op == ExprOp::kNe || op == ExprOp::kLt ||
         op == ExprOp::kLe || op == ExprOp::kGt || op == ExprOp::kGe;
}

// `lit <op> col` as `col <Mirror(op)> lit`.
ExprOp Mirror(ExprOp op) {
  switch (op) {
    case ExprOp::kLt:
      return ExprOp::kGt;
    case ExprOp::kLe:
      return ExprOp::kGe;
    case ExprOp::kGt:
      return ExprOp::kLt;
    case ExprOp::kGe:
      return ExprOp::kLe;
    default:
      return op;
  }
}

// Keeps the rows of rows[0, n) whose value passes `op` against `lit`.
// Expr spells Le as LessThan || Equals and Gt as the swapped LessThan; on
// doubles (NaN included) those are exactly the IEEE operators below.
template <typename ValueOf>
size_t KeepCompared(ExprOp op, double lit, ValueOf value_of, RowId* rows,
                    size_t n) {
  auto keep = [&](auto pass) {
    size_t kept = 0;
    for (size_t i = 0; i < n; ++i) {
      const RowId row = rows[i];
      rows[kept] = row;
      kept += pass(static_cast<double>(value_of(row))) ? 1 : 0;
    }
    return kept;
  };
  switch (op) {
    case ExprOp::kEq:
      return keep([lit](double v) { return v == lit; });
    case ExprOp::kNe:
      return keep([lit](double v) { return !(v == lit); });
    case ExprOp::kLt:
      return keep([lit](double v) { return v < lit; });
    case ExprOp::kLe:
      return keep([lit](double v) { return v <= lit; });
    case ExprOp::kGt:
      return keep([lit](double v) { return v > lit; });
    case ExprOp::kGe:
      return keep([lit](double v) { return v >= lit; });
    default:
      return 0;
  }
}

}  // namespace

Result<RowPredicate> RowPredicate::Compile(const Expr& where,
                                           const EventTable& table) {
  RowPredicate p;
  p.table_ = &table;
  p.bound_ = where.Clone();
  SOLAP_RETURN_NOT_OK(p.bound_->Bind(table.schema(), nullptr));
  p.root_ = p.Lower(*p.bound_);
  return p;
}

uint32_t RowPredicate::Lower(const Expr& e) {
  Node node;
  const ExprOp op = e.op();
  if (op == ExprOp::kConst) {
    node.truth = e.literal().AsBool();
  } else if (op == ExprOp::kAnd || op == ExprOp::kOr || op == ExprOp::kNot) {
    node.kind = op == ExprOp::kAnd  ? Kind::kAnd
                : op == ExprOp::kOr ? Kind::kOr
                                    : Kind::kNot;
    node.lhs = Lower(*e.children()[0]);
    if (op != ExprOp::kNot) node.rhs = Lower(*e.children()[1]);
  } else {
    const bool col_lit = IsComparison(op) &&
                         e.children()[0]->op() == ExprOp::kColumn &&
                         e.children()[1]->op() == ExprOp::kConst;
    const bool lit_col = IsComparison(op) &&
                         e.children()[0]->op() == ExprOp::kConst &&
                         e.children()[1]->op() == ExprOp::kColumn;
    const bool lowered =
        (col_lit && LowerComparison(op, *e.children()[0],
                                    e.children()[1]->literal(), &node)) ||
        (lit_col && LowerComparison(Mirror(op), *e.children()[1],
                                    e.children()[0]->literal(), &node));
    if (!lowered) {
      node.kind = Kind::kValue;
      node.expr = &e;
    }
  }
  nodes_.push_back(node);
  return static_cast<uint32_t>(nodes_.size() - 1);
}

bool RowPredicate::LowerComparison(ExprOp op, const Expr& column,
                                   const Value& lit, Node* out) const {
  const Schema& schema = table_->schema();
  const int col = schema.FieldIndex(column.column());
  const ValueType type = schema.field(col).type;
  out->op = op;
  out->col = col;
  if (IsNumeric(type) && IsNumeric(lit.type())) {
    out->kind = type == ValueType::kDouble ? Kind::kDouble : Kind::kInt;
    out->lit = lit.AsDouble();
    return true;
  }
  if (type == ValueType::kString && lit.type() == ValueType::kString) {
    if (op != ExprOp::kEq && op != ExprOp::kNe) return false;  // lexical
    out->code = table_->dictionary(col)->Lookup(lit.str());
    if (out->code == kNullCode) {
      out->kind = Kind::kConst;
      out->truth = op == ExprOp::kNe;
    } else {
      out->kind = Kind::kCode;
    }
    return true;
  }
  // String against number, or anything against NULL: Value::Equals and
  // Value::LessThan are false both ways, so only != holds.
  out->kind = Kind::kConst;
  out->truth = op == ExprOp::kNe;
  return true;
}

size_t RowPredicate::Filter(uint32_t n, RowId* rows, size_t count) const {
  const Node& node = nodes_[n];
  const int col = node.col;
  switch (node.kind) {
    case Kind::kConst:
      return node.truth ? count : 0;
    case Kind::kInt:
      return KeepCompared(
          node.op, node.lit,
          [&](RowId row) { return table_->Int64At(row, col); }, rows, count);
    case Kind::kDouble:
      return KeepCompared(
          node.op, node.lit,
          [&](RowId row) { return table_->DoubleAt(row, col); }, rows, count);
    case Kind::kCode: {
      const bool eq = node.op == ExprOp::kEq;
      size_t kept = 0;
      for (size_t i = 0; i < count; ++i) {
        const RowId row = rows[i];
        rows[kept] = row;
        kept += ((table_->CodeAt(row, col) == node.code) == eq) ? 1 : 0;
      }
      return kept;
    }
    case Kind::kAnd:
      return Filter(node.rhs, rows, Filter(node.lhs, rows, count));
    case Kind::kOr: {
      // Left matches, plus the right side's matches among the rest.
      std::vector<RowId> left(rows, rows + count);
      left.resize(Filter(node.lhs, left.data(), count));
      std::vector<RowId> right;
      std::set_difference(rows, rows + count, left.begin(), left.end(),
                          std::back_inserter(right));
      right.resize(Filter(node.rhs, right.data(), right.size()));
      return std::merge(left.begin(), left.end(), right.begin(), right.end(),
                        rows) -
             rows;
    }
    case Kind::kNot: {
      std::vector<RowId> matched(rows, rows + count);
      matched.resize(Filter(node.lhs, matched.data(), count));
      std::vector<RowId> all(rows, rows + count);
      return std::set_difference(all.begin(), all.end(), matched.begin(),
                                 matched.end(), rows) -
             rows;
    }
    case Kind::kValue: {
      size_t kept = 0;
      for (size_t i = 0; i < count; ++i) {
        if (node.expr->EvalRow(*table_, rows[i]).AsBool()) {
          rows[kept++] = rows[i];
        }
      }
      return kept;
    }
  }
  return 0;
}

}  // namespace solap
