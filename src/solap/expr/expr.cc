#include "solap/expr/expr.h"

#include <algorithm>
#include <charconv>
#include <cmath>

namespace solap {

ExprPtr Expr::Lit(Value v) {
  auto e = ExprPtr(new Expr(ExprOp::kConst));
  e->literal_ = std::move(v);
  return e;
}

ExprPtr Expr::Col(std::string name) {
  auto e = ExprPtr(new Expr(ExprOp::kColumn));
  e->column_ = std::move(name);
  return e;
}

ExprPtr Expr::PCol(std::string placeholder, std::string attr) {
  auto e = ExprPtr(new Expr(ExprOp::kPlaceholder));
  e->placeholder_ = std::move(placeholder);
  e->column_ = std::move(attr);
  return e;
}

ExprPtr Expr::Cmp(ExprOp op, ExprPtr lhs, ExprPtr rhs) {
  auto e = ExprPtr(new Expr(op));
  e->children_ = {std::move(lhs), std::move(rhs)};
  return e;
}

ExprPtr Expr::And(ExprPtr l, ExprPtr r) {
  auto e = ExprPtr(new Expr(ExprOp::kAnd));
  e->children_ = {std::move(l), std::move(r)};
  return e;
}

ExprPtr Expr::Or(ExprPtr l, ExprPtr r) {
  auto e = ExprPtr(new Expr(ExprOp::kOr));
  e->children_ = {std::move(l), std::move(r)};
  return e;
}

ExprPtr Expr::Not(ExprPtr x) {
  auto e = ExprPtr(new Expr(ExprOp::kNot));
  e->children_ = {std::move(x)};
  return e;
}

Status Expr::Bind(const Schema& schema,
                  const std::vector<std::string>* placeholders) {
  switch (op_) {
    case ExprOp::kConst:
      return Status::OK();
    case ExprOp::kColumn: {
      SOLAP_ASSIGN_OR_RETURN(col_index_, schema.RequireField(column_));
      return Status::OK();
    }
    case ExprOp::kPlaceholder: {
      if (placeholders == nullptr) {
        return Status::InvalidArgument(
            "placeholder reference '" + placeholder_ + "." + column_ +
            "' is not allowed outside a matching predicate");
      }
      auto it =
          std::find(placeholders->begin(), placeholders->end(), placeholder_);
      if (it == placeholders->end()) {
        return Status::InvalidArgument("unknown event placeholder '" +
                                       placeholder_ + "'");
      }
      ph_index_ = static_cast<int>(it - placeholders->begin());
      SOLAP_ASSIGN_OR_RETURN(col_index_, schema.RequireField(column_));
      return Status::OK();
    }
    default:
      for (const ExprPtr& c : children_) {
        SOLAP_RETURN_NOT_OK(c->Bind(schema, placeholders));
      }
      return Status::OK();
  }
}

Value Expr::EvalImpl(const EventTable& table, RowId row,
                     const RowId* matched) const {
  switch (op_) {
    case ExprOp::kConst:
      return literal_;
    case ExprOp::kColumn:
      return table.GetValue(row, col_index_);
    case ExprOp::kPlaceholder:
      return table.GetValue(matched[ph_index_], col_index_);
    case ExprOp::kEq:
      return Value::Bool(children_[0]->EvalImpl(table, row, matched)
                             .Equals(children_[1]->EvalImpl(table, row, matched)));
    case ExprOp::kNe:
      return Value::Bool(!children_[0]->EvalImpl(table, row, matched)
                              .Equals(children_[1]->EvalImpl(table, row, matched)));
    case ExprOp::kLt:
      return Value::Bool(children_[0]->EvalImpl(table, row, matched)
                             .LessThan(children_[1]->EvalImpl(table, row, matched)));
    case ExprOp::kLe: {
      Value a = children_[0]->EvalImpl(table, row, matched);
      Value b = children_[1]->EvalImpl(table, row, matched);
      return Value::Bool(a.LessThan(b) || a.Equals(b));
    }
    case ExprOp::kGt:
      return Value::Bool(children_[1]->EvalImpl(table, row, matched)
                             .LessThan(children_[0]->EvalImpl(table, row, matched)));
    case ExprOp::kGe: {
      Value a = children_[0]->EvalImpl(table, row, matched);
      Value b = children_[1]->EvalImpl(table, row, matched);
      return Value::Bool(b.LessThan(a) || a.Equals(b));
    }
    case ExprOp::kAnd:
      if (!children_[0]->EvalImpl(table, row, matched).AsBool()) {
        return Value::Bool(false);
      }
      return Value::Bool(children_[1]->EvalImpl(table, row, matched).AsBool());
    case ExprOp::kOr:
      if (children_[0]->EvalImpl(table, row, matched).AsBool()) {
        return Value::Bool(true);
      }
      return Value::Bool(children_[1]->EvalImpl(table, row, matched).AsBool());
    case ExprOp::kNot:
      return Value::Bool(!children_[0]->EvalImpl(table, row, matched).AsBool());
  }
  return Value::Null();
}

Value Expr::EvalRow(const EventTable& table, RowId row) const {
  return EvalImpl(table, row, nullptr);
}

Value Expr::EvalMatch(const EventTable& table, const RowId* matched) const {
  return EvalImpl(table, 0, matched);
}

bool Expr::UsesPlaceholders() const {
  if (op_ == ExprOp::kPlaceholder) return true;
  for (const ExprPtr& c : children_) {
    if (c->UsesPlaceholders()) return true;
  }
  return false;
}

ExprPtr Expr::Clone() const {
  auto e = ExprPtr(new Expr(*this));
  for (ExprPtr& c : e->children_) c = c->Clone();
  return e;
}

namespace {

const char* OpToken(ExprOp op) {
  switch (op) {
    case ExprOp::kEq:
      return "=";
    case ExprOp::kNe:
      return "!=";
    case ExprOp::kLt:
      return "<";
    case ExprOp::kLe:
      return "<=";
    case ExprOp::kGt:
      return ">";
    case ExprOp::kGe:
      return ">=";
    case ExprOp::kAnd:
      return "AND";
    case ExprOp::kOr:
      return "OR";
    default:
      return "?";
  }
}

// Exact, re-lexable text of a literal. A double prints as the shortest
// fixed notation that reads back as the same double, always with a '.' so
// the lexer reads a double again. A string is quoted with a quote character
// it does not contain (the lexer has no escapes; the parser cannot produce
// a string holding both).
std::string LiteralText(const Value& v) {
  if (v.type() == ValueType::kString) {
    const char quote = v.str().find('"') == std::string::npos ? '"' : '\'';
    return quote + v.str() + quote;
  }
  if (v.type() != ValueType::kDouble || !std::isfinite(v.dbl())) {
    return v.ToString();
  }
  char buf[400];  // the longest shortest fixed double is ~330 characters
  char* end =
      std::to_chars(buf, buf + sizeof buf, v.dbl(), std::chars_format::fixed)
          .ptr;
  std::string out(buf, end);
  if (out.find('.') == std::string::npos) out += ".0";
  return out;
}

}  // namespace

std::string Expr::ToString() const {
  switch (op_) {
    case ExprOp::kConst:
      return LiteralText(literal_);
    case ExprOp::kColumn:
      return column_;
    case ExprOp::kPlaceholder:
      return placeholder_ + "." + column_;
    case ExprOp::kNot:
      return "NOT (" + children_[0]->ToString() + ")";
    default:
      return "(" + children_[0]->ToString() + " " + OpToken(op_) + " " +
             children_[1]->ToString() + ")";
  }
}

}  // namespace solap
