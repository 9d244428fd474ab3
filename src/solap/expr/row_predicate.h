// Compiled WHERE clauses: an expression tree lowered once, against one
// table, into typed comparisons over the table's raw columns — the
// selection step of sequence formation evaluates it on every row.
#ifndef SOLAP_EXPR_ROW_PREDICATE_H_
#define SOLAP_EXPR_ROW_PREDICATE_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "solap/common/status.h"
#include "solap/expr/expr.h"

namespace solap {

/// \brief A row-context Expr compiled against one EventTable.
///
/// Filter keeps exactly the rows for which
/// `where.EvalRow(table, row).AsBool()` holds:
///  - a numeric column compared with a numeric literal compares doubles,
///    as Value::Equals / Value::LessThan do;
///  - a string column compared with `=` / `!=` against a string literal
///    compares dictionary codes (a literal absent from the dictionary
///    equals no row);
///  - comparisons the Value rules make constant (a string against a number,
///    anything against NULL) fold to that constant;
///  - AND narrows the rows its left side kept, OR tests its right side
///    only on the rows its left side dropped, so each side sees just the
///    rows the row-at-a-time evaluation would have evaluated it on;
///  - every other shape evaluates through Value on a private bound clone.
/// Compiling never writes to `where`, which concurrent queries may share.
class RowPredicate {
 public:
  /// Fails exactly where binding `where` fails (unknown column,
  /// placeholder reference outside a matching predicate).
  static Result<RowPredicate> Compile(const Expr& where,
                                      const EventTable& table);

  /// Keeps, in order, the rows of rows[0, n) that match (rows must be
  /// ascending) and returns how many there are.
  size_t Filter(RowId* rows, size_t n) const { return Filter(root_, rows, n); }

 private:
  enum class Kind : uint8_t {
    kConst,   ///< `truth`
    kInt,     ///< int64/timestamp column `col` <op> `lit`
    kDouble,  ///< double column `col` <op> `lit`
    kCode,    ///< string column `col` (=|!=) dictionary code `code`
    kAnd,
    kOr,
    kNot,
    kValue,  ///< Value evaluation of `expr`
  };
  struct Node {
    Kind kind = Kind::kConst;
    ExprOp op = ExprOp::kEq;
    bool truth = false;
    int col = -1;
    double lit = 0;
    Code code = kNullCode;
    uint32_t lhs = 0, rhs = 0;
    const Expr* expr = nullptr;
  };

  uint32_t Lower(const Expr& e);
  bool LowerComparison(ExprOp op, const Expr& column, const Value& lit,
                       Node* out) const;
  size_t Filter(uint32_t node, RowId* rows, size_t n) const;

  const EventTable* table_ = nullptr;
  ExprPtr bound_;  // owns the subtrees kValue nodes point into
  std::vector<Node> nodes_;
  uint32_t root_ = 0;
};

}  // namespace solap

#endif  // SOLAP_EXPR_ROW_PREDICATE_H_
