// Per-scan cell accumulator: the flat counter table of the counter-based
// S-cuboid computation (paper §4.2.1, Fig. 7), where each assignment bumps
// the counter of its cell. Gray et al.'s data cube likewise aggregates
// into flat arrays rather than keyed lookups.
//
// One accumulator serves one scan of one sequence group. It is an
// open-addressing table keyed by the group's pattern-dimension codes only;
// the group's global coordinates are prepended once, when the table is
// flushed into its target cuboid. Each slot carries the stamp of the last
// sequence that claimed it, so one probe answers both "was this binding
// already assigned in this sequence?" (the LEFT-MAXIMALITY restrictions
// count a sequence once per distinct instantiation) and "which cell does
// this assignment bump?".
#ifndef SOLAP_CUBE_CELL_ACCUMULATOR_H_
#define SOLAP_CUBE_CELL_ACCUMULATOR_H_

#include <cstdint>
#include <cstring>
#include <vector>

#include "solap/common/types.h"
#include "solap/cube/cell.h"
#include "solap/cube/cuboid.h"

namespace solap {

/// \brief Accumulates one sequence group's cells of a cuboid during a scan.
///
/// A new slot is seeded from the target's existing cell (SCuboid::CellAt)
/// and Flush() overwrites that cell, so scanning onto a non-empty cuboid
/// (ingest patches, chunked online aggregation) folds each cell's state in
/// the same order as folding into the cuboid directly. Not thread-safe:
/// parallel scans use one accumulator per partition.
class CellAccumulator {
 public:
  /// Accumulates cells of `target` whose keys are `group_key` followed by
  /// `n_dims` pattern codes. With `first_per_sequence` (the LEFT-MAXIMALITY
  /// restrictions) a binding is claimed at most once per sequence.
  CellAccumulator(SCuboid* target, const CellKey& group_key, size_t n_dims,
                  bool first_per_sequence);

  /// Starts the next sequence: every binding may be claimed once more.
  void NextSequence() { ++stamp_; }

  /// The cell an assignment of the binding `codes` folds into, or nullptr
  /// when `first_per_sequence` holds and the current sequence has already
  /// claimed `codes`.
  CellValue* Claim(const Code* codes) {
    size_t slot = Probe(codes);
    if (stamps_[slot] == 0) {
      // Grow at 3/4 load: linear probing stays short there, and a sparser
      // table shows in peak memory when several scans run at once.
      if (4 * (size_ + 1) > 3 * stamps_.size()) {
        Grow();
        slot = Probe(codes);
      }
      Insert(slot, codes);
    } else if (first_per_sequence_ && stamps_[slot] == stamp_) {
      return nullptr;
    }
    stamps_[slot] = stamp_;
    return &values_[slot];
  }

  /// True when the current sequence has already claimed `codes`.
  bool ClaimedInSequence(const Code* codes) const {
    return stamps_[Probe(codes)] == stamp_;
  }

  /// Writes every accumulated cell into the target, overwriting its
  /// previous state. Called once, at the end of the scan.
  void Flush() const;

 private:
  size_t Hash(const Code* codes) const {
    uint64_t h = 0x9e3779b97f4a7c15ull;
    for (size_t d = 0; d < n_dims_; ++d) {
      h = (h ^ codes[d]) * 0xff51afd7ed558ccdull;
    }
    return static_cast<size_t>(h ^ (h >> 32));
  }
  /// The slot holding `codes`, or the empty slot where it would go.
  size_t Probe(const Code* codes) const {
    const size_t mask = stamps_.size() - 1;
    for (size_t slot = Hash(codes) & mask;; slot = (slot + 1) & mask) {
      if (stamps_[slot] == 0 ||
          std::memcmp(keys_.data() + slot * n_dims_, codes,
                      n_dims_ * sizeof(Code)) == 0) {
        return slot;
      }
    }
  }
  void Insert(size_t slot, const Code* codes);
  void Grow();

  SCuboid* target_;
  CellKey group_key_;
  size_t n_dims_;
  bool first_per_sequence_;
  /// Whether new slots must read the target's existing cell.
  const bool seed_from_target_;
  /// Stamp of the current sequence; slot stamp 0 marks an empty slot.
  uint32_t stamp_ = 1;
  size_t size_ = 0;
  std::vector<uint32_t> stamps_;
  std::vector<Code> keys_;  // n_dims_ codes per slot
  std::vector<CellValue> values_;
};

}  // namespace solap

#endif  // SOLAP_CUBE_CELL_ACCUMULATOR_H_
