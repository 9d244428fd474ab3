// Seeded input generation for the benchmark. The generator is the
// benchmark's own (it does not call the library's gen/ module), so a change
// to the program can never change the inputs it is measured on: the program
// only ever sees the generated rows, loaded through the public EventTable
// and HierarchyRegistry calls.
//
// The data is a web clickstream shaped like the paper's §5.1 experiment:
// sessions of page requests, a raw-page -> page-category hierarchy over 44
// categories, a hot Assortment -> Legwear path and comparison shopping
// within Legwear.
#ifndef PERFBENCH_DATAGEN_H_
#define PERFBENCH_DATAGEN_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "solap/hierarchy/concept_hierarchy.h"
#include "solap/storage/event_table.h"
#include "solap/storage/value.h"

namespace perfbench {

/// splitmix64: the benchmark's only source of randomness, so inputs depend
/// on the seed alone (not on the standard library's distributions).
class Rng {
 public:
  explicit Rng(uint64_t seed) : state_(seed) {}
  uint64_t Next() {
    uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }
  /// Uniform in [0, 1).
  double Uniform() { return static_cast<double>(Next() >> 11) * 0x1.0p-53; }
  /// Uniform in [0, n).
  size_t Below(size_t n) { return static_cast<size_t>(Uniform() * n); }

 private:
  uint64_t state_;
};

/// One click: compact so millions of rows stay cheap to hold.
struct Click {
  uint32_t session = 0;
  uint16_t page = 0;
  int64_t time = 0;  // seconds since the epoch
};

/// The generated event log plus the vocabulary needed to render it.
struct Clickstream {
  std::vector<std::string> categories;
  std::vector<std::string> pages;          // raw page names
  std::vector<uint16_t> page_category;     // page -> category index
  std::vector<std::vector<uint16_t>> category_pages;
  std::vector<Click> clicks;               // session-major, time-ordered
  size_t num_sessions = 0;
  int64_t first_time = 0;
  int64_t last_time = 0;
};

/// Generates `sessions` sessions with about 8 clicks each.
Clickstream GenerateClicks(uint64_t seed, size_t sessions);

/// Name of session `s` as it appears in the session-id column.
std::string SessionName(uint32_t s);

/// The table schema (session-id, request-time, page).
solap::Schema ClickSchema();

/// One click as a table row.
std::vector<solap::Value> ClickRow(const Clickstream& data, const Click& c);

/// The page hierarchy (raw-page -> page-category) registered under "page".
std::shared_ptr<solap::HierarchyRegistry> BuildHierarchies(
    const Clickstream& data);

/// Loads `clicks` into a fresh table through EventTable::Append in batches.
std::unique_ptr<solap::EventTable> LoadTable(const Clickstream& data,
                                             const std::vector<Click>& clicks);

/// Next category of a Markov walk over the categories (Zipf base with the
/// paper's boosted story transitions).
uint16_t NextCategory(Rng& rng, uint16_t current, size_t num_categories);

/// A page of `category`, Zipf-skewed towards its first pages.
uint16_t PickPage(Rng& rng, const Clickstream& data, uint16_t category);

/// A session's clicks starting at `start`: a Markov walk from a
/// seeded entry category, `length` clicks 5-125 s apart.
std::vector<Click> MakeSession(Rng& rng, const Clickstream& data,
                               uint32_t session, int64_t start,
                               size_t length);

/// Session length with mean ~8 (2 + a geometric tail, capped at 40).
size_t SessionLength(Rng& rng);

/// "YYYY-MM-DDTHH:MM" for a timestamp (the query language's literal).
std::string TimeLiteral(int64_t t);

}  // namespace perfbench

#endif  // PERFBENCH_DATAGEN_H_
