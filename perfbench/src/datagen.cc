#include "datagen.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <ctime>

namespace perfbench {

namespace {

const char* const kNamedCategories[] = {
    "Assortment", "Legwear", "Legcare", "Main-Pages", "Boutiques",
    "Departments", "Search", "Checkout", "Account", "Logout",
};
constexpr size_t kNumNamed = sizeof(kNamedCategories) / sizeof(char*);
constexpr size_t kNumCategories = 44;
constexpr size_t kPagesPerCategory = 6;

/// Zipf(s = 1.1) over [0, n) by inverting a precomputed CDF.
class Zipf {
 public:
  explicit Zipf(size_t n) : cdf_(n) {
    double sum = 0;
    for (size_t i = 0; i < n; ++i) {
      sum += 1.0 / std::pow(static_cast<double>(i + 1), 1.1);
      cdf_[i] = sum;
    }
    for (double& c : cdf_) c /= sum;
  }
  size_t Sample(Rng& rng) const {
    double u = rng.Uniform();
    auto it = std::lower_bound(cdf_.begin(), cdf_.end(), u);
    return std::min(static_cast<size_t>(it - cdf_.begin()), cdf_.size() - 1);
  }

 private:
  std::vector<double> cdf_;
};

const Zipf& CategoryZipf() {
  static const Zipf z(kNumCategories);
  return z;
}

}  // namespace

std::string SessionName(uint32_t s) { return "s" + std::to_string(s); }

solap::Schema ClickSchema() {
  return solap::Schema({
      {"session-id", solap::ValueType::kString, solap::FieldRole::kDimension},
      {"request-time", solap::ValueType::kTimestamp,
       solap::FieldRole::kDimension},
      {"page", solap::ValueType::kString, solap::FieldRole::kDimension},
  });
}

std::vector<solap::Value> ClickRow(const Clickstream& data, const Click& c) {
  return {solap::Value::String(SessionName(c.session)),
          solap::Value::Timestamp(c.time),
          solap::Value::String(data.pages[c.page])};
}

uint16_t NextCategory(Rng& rng, uint16_t current, size_t num_categories) {
  double u = rng.Uniform();
  if (current == 0) {         // Assortment ->
    if (u < 0.42) return 1;   //   Legwear (the hot pair)
    if (u < 0.47) return 2;   //   Legcare
    if (u < 0.55) return 0;   //   keep browsing the assortment
  } else if (current == 1) {  // Legwear ->
    if (u < 0.35) return 1;   //   comparison shopping within Legwear
    if (u < 0.45) return 7;   //   Checkout
  } else if (current == 3) {  // Main-Pages ->
    if (u < 0.40) return 0;   //   Assortment
  }
  return static_cast<uint16_t>(CategoryZipf().Sample(rng) % num_categories);
}

uint16_t PickPage(Rng& rng, const Clickstream& data, uint16_t category) {
  const std::vector<uint16_t>& pages = data.category_pages[category];
  // Geometric skew: the first page of a category is the most popular.
  size_t i = 0;
  while (i + 1 < pages.size() && rng.Uniform() < 0.55) ++i;
  return pages[i];
}

size_t SessionLength(Rng& rng) {
  double u = std::max(rng.Uniform(), 1e-12);
  size_t len = 2 + static_cast<size_t>(-std::log(u) * 6.0);
  return std::min<size_t>(len, 40);
}

std::vector<Click> MakeSession(Rng& rng, const Clickstream& data,
                               uint32_t session, int64_t start,
                               size_t length) {
  std::vector<Click> out;
  out.reserve(length);
  uint16_t cat = rng.Uniform() < 0.5
                     ? (rng.Uniform() < 0.6 ? 3 : 0)
                     : static_cast<uint16_t>(CategoryZipf().Sample(rng));
  int64_t t = start;
  for (size_t i = 0; i < length; ++i) {
    out.push_back(Click{session, PickPage(rng, data, cat), t});
    t += 5 + static_cast<int64_t>(rng.Uniform() * 120);
    cat = NextCategory(rng, cat, data.categories.size());
  }
  return out;
}

Clickstream GenerateClicks(uint64_t seed, size_t sessions) {
  Clickstream data;
  data.categories.resize(kNumCategories);
  data.category_pages.resize(kNumCategories);
  for (size_t c = 0; c < kNumCategories; ++c) {
    data.categories[c] = c < kNumNamed ? kNamedCategories[c]
                                       : "Category-" + std::to_string(c + 1);
    std::vector<std::string> names;
    if (c == 1) {
      names = {"product-id-null",  "product-id-34893", "product-id-34885",
               "product-id-34897", "product-id-35121", "product-id-35340",
               "product-id-36002", "product-id-36447"};
    } else {
      for (size_t i = 0; i < kPagesPerCategory; ++i) {
        names.push_back(data.categories[c] + "-page-" + std::to_string(i + 1));
      }
    }
    for (std::string& n : names) {
      data.category_pages[c].push_back(
          static_cast<uint16_t>(data.pages.size()));
      data.page_category.push_back(static_cast<uint16_t>(c));
      data.pages.push_back(std::move(n));
    }
  }

  Rng rng(seed);
  data.clicks.reserve(sessions * 9);
  data.first_time = solap::MakeTimestamp(2000, 3, 1);
  int64_t t = data.first_time;
  for (size_t s = 0; s < sessions; ++s) {
    t += 1 + static_cast<int64_t>(rng.Uniform() * 30);
    std::vector<Click> clicks = MakeSession(
        rng, data, static_cast<uint32_t>(s), t, SessionLength(rng));
    data.last_time = std::max(data.last_time, clicks.back().time);
    data.clicks.insert(data.clicks.end(), clicks.begin(), clicks.end());
  }
  data.num_sessions = sessions;
  return data;
}

std::shared_ptr<solap::HierarchyRegistry> BuildHierarchies(
    const Clickstream& data) {
  auto registry = std::make_shared<solap::HierarchyRegistry>();
  auto page = std::make_shared<solap::ConceptHierarchy>(
      std::vector<std::string>{"raw-page", "page-category"});
  for (size_t p = 0; p < data.pages.size(); ++p) {
    (void)page->SetParent(0, data.pages[p],
                          data.categories[data.page_category[p]]);
  }
  registry->Register("page", page);
  return registry;
}

std::unique_ptr<solap::EventTable> LoadTable(const Clickstream& data,
                                             const std::vector<Click>& clicks) {
  auto table = std::make_unique<solap::EventTable>(ClickSchema());
  constexpr size_t kBatch = 8192;
  std::vector<std::vector<solap::Value>> rows;
  rows.reserve(kBatch);
  for (size_t i = 0; i < clicks.size(); ++i) {
    rows.push_back(ClickRow(data, clicks[i]));
    if (rows.size() == kBatch || i + 1 == clicks.size()) {
      solap::Status st = table->Append(rows);
      if (!st.ok()) {
        std::fprintf(stderr, "table load failed: %s\n",
                     st.ToString().c_str());
        std::exit(1);
      }
      rows.clear();
    }
  }
  return table;
}

std::string TimeLiteral(int64_t t) {
  time_t tt = static_cast<time_t>(t);
  struct tm tm_utc {};
  gmtime_r(&tt, &tm_utc);
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%04d-%02d-%02dT%02d:%02d",
                tm_utc.tm_year + 1900, tm_utc.tm_mon + 1, tm_utc.tm_mday,
                tm_utc.tm_hour, tm_utc.tm_min);
  return buf;
}

}  // namespace perfbench
