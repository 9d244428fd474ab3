// Regular-expression pattern templates — the §3.2 extension the paper
// leaves open: "the current S-cuboid specification only supports substring
// or subsequence pattern templates. It can be extended so that pattern
// templates of regular expressions can be supported."
//
// A regex template matches *contiguous* runs of a sequence against a
// regular expression whose atoms are:
//   X            a pattern symbol: binds dimension X; every occurrence of
//                X inside one match must carry the same value
//   'Pentagon'   a literal value of the template's domain
//   .            wildcard: any value, no binding
// combined with concatenation, alternation `|`, grouping `( )` and the
// quantifiers `*`, `+`, `?`. Example — "commuters who hop through any
// number of intermediate stations and return":
//
//     X ( . )* X        with X AS location AT station
//
// Cell coordinates are the symbol bindings; a symbol that an accepting
// path never visits (one arm of an alternation) binds the null value,
// displayed as "*". All pattern dimensions of one regex template share a
// single domain (attribute @ level).
//
// Matching compiles the expression to a Thompson NFA and enumerates
// accepting (start, end, bindings) triples by depth-first search with
// binding backtracking; epsilon cycles are pruned per (state, position),
// and so is every subtree whose full binding the caller declares dead.
#ifndef SOLAP_PATTERN_REGEX_H_
#define SOLAP_PATTERN_REGEX_H_

#include <algorithm>
#include <span>
#include <string>
#include <vector>

#include "solap/common/status.h"
#include "solap/common/types.h"
#include "solap/pattern/pattern_template.h"

namespace solap {

/// \brief A parsed, compiled regex template (literals still unresolved —
/// they are labels until bound against a group's dictionary).
class RegexTemplate {
 public:
  /// Empty template; invalid until assigned from Parse(). Exists so owning
  /// structs can be default-constructed.
  RegexTemplate() = default;

  /// Parses `pattern` against the declared dimensions. Every identifier in
  /// the pattern must name a declared symbol; every dimension must share
  /// the same attribute/level (the template's domain).
  static Result<RegexTemplate> Parse(const std::string& pattern,
                                     std::vector<PatternDim> dims);

  const std::string& pattern() const { return pattern_; }
  const std::vector<PatternDim>& dims() const { return dims_; }
  size_t num_dims() const { return dims_.size(); }
  /// The shared domain of all symbols and literals.
  const LevelRef& domain() const { return dims_.front().ref; }
  /// Literal labels appearing in the pattern, in first-use order.
  const std::vector<std::string>& literal_labels() const {
    return literal_labels_;
  }

  /// Edge kinds of the compiled NFA.
  enum class EdgeKind : uint8_t { kEpsilon, kSymbol, kLiteral, kAny };
  struct Edge {
    EdgeKind kind;
    int target;
    int index;  ///< dimension index (kSymbol) or literal ordinal (kLiteral)
  };

  const std::vector<std::vector<Edge>>& states() const { return states_; }
  int start_state() const { return start_; }
  int accept_state() const { return accept_; }

 private:
  std::string pattern_;
  std::vector<PatternDim> dims_;
  std::vector<std::string> literal_labels_;
  std::vector<std::vector<Edge>> states_;
  int start_ = 0;
  int accept_ = 0;
};

/// \brief A RegexTemplate bound to concrete data: literal labels resolved
/// to codes, ready to enumerate matches over symbol-code spans.
///
/// The matcher keeps its bindings, on-path marks and emitted-match records
/// as scratch reused across start positions and sequences, so matching
/// mutates the BoundRegex: one per scanning thread.
class BoundRegex {
 public:
  /// `literal_codes[i]` is the code of literal_labels()[i] in the target
  /// domain (kNullCode for unknown labels: those edges never fire).
  BoundRegex(const RegexTemplate* tmpl, std::vector<Code> literal_codes)
      : tmpl_(tmpl), literal_codes_(std::move(literal_codes)) {}

  /// Enumerates accepting matches over `seq` in order of (start, end):
  /// `fn(start, end, bindings)` where `bindings` has num_dims() codes
  /// (kNullCode = dimension unbound on the accepting path). Return false
  /// from `fn` to stop. Matches are deduplicated per (start, end,
  /// bindings).
  ///
  /// `dead(bindings)` is asked only while every dimension is bound: when
  /// the last one becomes bound and after each emitted match. Returning
  /// true skips every further match under that binding reached from the
  /// current start; a caller that would drop all of them (a binding
  /// already counted, or refused by a slice) loses nothing.
  template <typename Fn, typename Dead>
  void ForEachMatch(std::span<const Code> seq, Fn&& fn, Dead&& dead);

 private:
  template <typename Fn, typename Dead>
  bool MatchFrom(std::span<const Code> seq, uint32_t start, Fn& fn,
                 Dead& dead);

  const RegexTemplate* tmpl_;
  std::vector<Code> literal_codes_;
  // Matcher scratch (see the class comment).
  std::vector<Code> bindings_;
  std::vector<uint8_t> on_path_;  // all zero between matches
  std::vector<uint32_t> emitted_ends_;
  std::vector<Code> emitted_bindings_;  // num_dims() per end
};

// ---------------------------------------------------------------------------

template <typename Fn, typename Dead>
void BoundRegex::ForEachMatch(std::span<const Code> seq, Fn&& fn,
                              Dead&& dead) {
  bindings_.assign(tmpl_->num_dims(), kNullCode);
  const size_t guards = tmpl_->states().size() * (seq.size() + 1);
  if (on_path_.size() < guards) on_path_.resize(guards, 0);
  for (uint32_t start = 0; start < seq.size(); ++start) {
    if (!MatchFrom(seq, start, fn, dead)) return;
  }
}

template <typename Fn, typename Dead>
bool BoundRegex::MatchFrom(std::span<const Code> seq, uint32_t start, Fn& fn,
                           Dead& dead) {
  const auto& states = tmpl_->states();
  const size_t n_dims = tmpl_->num_dims();
  Code* bindings = bindings_.data();
  // Epsilon-cycle guard: a (state, pos) pair revisited without consuming
  // input within one DFS path means an epsilon loop (bindings cannot have
  // changed since the position did not advance).
  uint8_t* on_path = on_path_.data();
  size_t unbound = n_dims;
  bool keep_going = true;
  // Set when `dead` condemns the current full binding; cleared where the
  // DFS unbinds the dimension whose binding completed it.
  bool pruned = false;
  emitted_ends_.clear();
  emitted_bindings_.clear();

  auto rec = [&](auto&& self, int state, uint32_t pos) -> void {
    if (state == tmpl_->accept_state() && pos > start) {
      // Dedup of emitted (end, bindings) for this start.
      bool fresh = true;
      for (size_t i = 0; i < emitted_ends_.size(); ++i) {
        if (emitted_ends_[i] == pos &&
            std::equal(bindings, bindings + n_dims,
                       emitted_bindings_.begin() + i * n_dims)) {
          fresh = false;
          break;
        }
      }
      if (fresh) {
        emitted_ends_.push_back(pos);
        emitted_bindings_.insert(emitted_bindings_.end(), bindings,
                                 bindings + n_dims);
        if (!fn(start, pos, static_cast<const Code*>(bindings))) {
          keep_going = false;
          return;
        }
        if (unbound == 0 && dead(static_cast<const Code*>(bindings))) {
          pruned = true;
          return;
        }
      }
    }
    const size_t guard = static_cast<size_t>(state) * (seq.size() + 1) + pos;
    if (on_path[guard]) return;
    on_path[guard] = 1;
    for (const RegexTemplate::Edge& edge : states[state]) {
      if (!keep_going || pruned) break;
      switch (edge.kind) {
        case RegexTemplate::EdgeKind::kEpsilon:
          self(self, edge.target, pos);
          break;
        case RegexTemplate::EdgeKind::kAny:
          if (pos < seq.size()) self(self, edge.target, pos + 1);
          break;
        case RegexTemplate::EdgeKind::kLiteral:
          if (pos < seq.size() &&
              seq[pos] == literal_codes_[edge.index]) {
            self(self, edge.target, pos + 1);
          }
          break;
        case RegexTemplate::EdgeKind::kSymbol: {
          if (pos >= seq.size()) break;
          Code& slot = bindings[edge.index];
          if (slot == kNullCode) {
            slot = seq[pos];
            --unbound;
            if (unbound != 0 || !dead(static_cast<const Code*>(bindings))) {
              self(self, edge.target, pos + 1);
            }
            pruned = false;
            ++unbound;
            slot = kNullCode;  // backtrack
          } else if (slot == seq[pos]) {
            self(self, edge.target, pos + 1);
          }
          break;
        }
      }
    }
    on_path[guard] = 0;
  };
  rec(rec, tmpl_->start_state(), start);
  return keep_going;
}

}  // namespace solap

#endif  // SOLAP_PATTERN_REGEX_H_
