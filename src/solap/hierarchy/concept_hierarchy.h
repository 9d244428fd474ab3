// Concept hierarchies over dimension attributes (paper §3.1):
// station → district, individual → fare-group, raw-page → page-category,
// and calendar hierarchies time → day → week → month for timestamps.
#ifndef SOLAP_HIERARCHY_CONCEPT_HIERARCHY_H_
#define SOLAP_HIERARCHY_CONCEPT_HIERARCHY_H_

#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "solap/common/status.h"
#include "solap/common/types.h"
#include "solap/storage/dictionary.h"

namespace solap {

/// \brief A multi-level abstraction hierarchy for one string attribute.
///
/// Level 0 is the base level whose codes are the attribute's dictionary
/// codes. Higher levels are defined by value-name parent mappings
/// (SetParent) and compiled on demand into dense base-code → level-code
/// vectors, so new dictionary entries appended later (incremental update)
/// extend the mapping lazily instead of invalidating it.
class ConceptHierarchy {
 public:
  /// `level_names[0]` names the base level (e.g. {"station", "district"}).
  explicit ConceptHierarchy(std::vector<std::string> level_names);

  size_t num_levels() const { return level_names_.size(); }
  const std::string& level_name(int level) const {
    return level_names_[level];
  }

  /// Index of `name` among the levels, or -1.
  int LevelIndex(const std::string& name) const;

  /// Declares that `child` (a value at `level`) rolls up to `parent`
  /// (a value at `level + 1`).
  Status SetParent(int level, const std::string& child,
                   const std::string& parent);

  /// Maps a base-level code (from `base_dict`) to its code at `level`.
  /// Values with no declared parent roll up to themselves. Compiled lazily;
  /// amortized O(1).
  Code MapBaseCode(const Dictionary& base_dict, int level, Code base_code);

  /// The compiled base-code → `level` code table (level >= 1), covering
  /// every value currently in `base_dict`, copied under one lock — for
  /// callers that map many codes at once (MapBaseCode locks per call).
  std::vector<Code> CompiledLevel(const Dictionary& base_dict, int level);

  /// Display name of `code` at `level` (level 0 reads `base_dict`).
  std::string LabelOf(const Dictionary& base_dict, int level,
                      Code code) const;

  /// Dictionary of a non-base level (codes assigned by MapBaseCode).
  const Dictionary& level_dictionary(int level) const {
    return *level_dicts_[level];
  }

  /// Base codes that roll up to `parent_code` at `level` — the refinement
  /// used by P-DRILL-DOWN list splitting. Only base codes already seen by
  /// MapBaseCode are returned.
  std::vector<Code> BaseCodesOf(int level, Code parent_code) const;

  /// Compiles the mapping from codes at `from_level` to codes at `to_level`
  /// (`from_level` < `to_level`), covering every value currently in
  /// `base_dict`. `table[c]` is the to-level code of from-level code c.
  /// Used by P-ROLL-UP list merging, which may start from a non-base level.
  std::vector<Code> LevelToLevel(const Dictionary& base_dict, int from_level,
                                 int to_level);

  /// The declared parent mappings: element l maps child value names at
  /// level l to parent value names at level l+1. Written only by SetParent
  /// (construction time), so reading needs no lock. Used by the hierarchy
  /// snapshot writer (storage/hierarchy_io.h).
  const std::vector<std::unordered_map<std::string, std::string>>&
  parent_maps() const {
    return parents_;
  }

 private:
  Code MapBaseCodeLocked(const Dictionary& base_dict, int level,
                         Code base_code);

  std::vector<std::string> level_names_;
  // parents_[l]: child value name at level l -> parent value name at l+1.
  std::vector<std::unordered_map<std::string, std::string>> parents_;
  // Compiled: base_to_level_[l][base_code] = code at level l (l >= 1).
  std::vector<std::vector<Code>> base_to_level_;
  std::vector<std::unique_ptr<Dictionary>> level_dicts_;
  // Guards lazy compilation (and the level dictionaries it appends to):
  // concurrent queries may trigger MapBaseCode on the same hierarchy.
  mutable std::mutex mu_;
};

/// Calendar abstraction levels available on every timestamp attribute.
enum class CalendarLevel { kRaw, kDay, kWeek, kMonth };

/// Parses "time"/"day"/"week"/"month" (also accepting the attribute's own
/// name for the raw level). Returns error on anything else.
Result<CalendarLevel> ParseCalendarLevel(const std::string& level,
                                         const std::string& attr);

/// Buckets a Unix timestamp (seconds) to a dense-enough bucket code:
/// day index, ISO-ish week index, or month index (year*12+month).
Code CalendarBucket(int64_t ts_seconds, CalendarLevel level);

/// Human-readable bucket label ("2007-10-01", "2007-W40", "2007-10").
std::string CalendarLabel(Code bucket, CalendarLevel level);

/// Unix timestamp (seconds, UTC) for a civil date/time. Convenience for
/// examples and generators.
int64_t MakeTimestamp(int year, int month, int day, int hour = 0,
                      int minute = 0, int second = 0);

/// \brief Registry mapping attribute names to their hierarchies.
class HierarchyRegistry {
 public:
  /// Registers (replacing) the hierarchy of `attr`.
  void Register(const std::string& attr,
                std::shared_ptr<ConceptHierarchy> hierarchy);

  /// Hierarchy of `attr`, or nullptr if none registered.
  ConceptHierarchy* Find(const std::string& attr) const;

  /// Every registered (attr, hierarchy) pair — iteration for the hierarchy
  /// snapshot writer (storage/hierarchy_io.h).
  const std::unordered_map<std::string, std::shared_ptr<ConceptHierarchy>>&
  all() const {
    return map_;
  }

 private:
  std::unordered_map<std::string, std::shared_ptr<ConceptHierarchy>> map_;
};

}  // namespace solap

#endif  // SOLAP_HIERARCHY_CONCEPT_HIERARCHY_H_
