// explore: analysts iterating over the S-cube (paper §4.2.2, §5.2). Each
// session opens with a stateless-parsed base query (X-Solap-Session: new)
// over page-category pairs and then issues 5-8 session operations over
// HTTP: slice to a top cell of the previous answer, P-DRILL-DOWN,
// P-ROLL-UP, APPEND and DE-TAIL. A seeded share of the steps revisits an
// earlier spec (the inverse of the previous step, or a plain re-run).
// Closed loop, two clients, one shard, strategy auto; the working set fits
// the default caches.
#include <algorithm>
#include <map>
#include <string>

#include "bench.h"
#include "solap/parser/parser.h"
#include "solap/service/session.h"
#include "workload_util.h"

namespace perfbench {

namespace {

constexpr size_t kSessionsTable = 25'000;  // ~200k click rows
constexpr size_t kClients = 2;
/// Analyst sessions per client per second of --seconds.
constexpr double kSessionsPerClientSecond = 60.0;
/// Share of steps that revisit an earlier spec.
constexpr double kRevisitShare = 0.25;
/// A slice picks one of this many top cells of the previous answer.
constexpr size_t kSliceRanks = 12;
/// Share of answers sampled for verification (about 45 per 10 s of
/// --seconds; each check re-forms and rescans on a fresh reference engine).
constexpr double kCheckShare = 0.005;

struct BaseQuery {
  const char* cuboid_by;
  std::vector<std::string> positions;
  /// APPEND on a subsequence template multiplies its matches; analysts
  /// extend substring templates only.
  bool appendable;
};

const std::vector<BaseQuery>& BaseQueries() {
  static const std::vector<BaseQuery> kBases = {
      {kTemplates[kSubstring2], {"X", "Y"}, true},
      {kTemplates[kSubsequence2], {"X", "Y"}, false},
      {"SUBSTRING (X, Y) WITH X AS page AT page-category, "
       "Y AS page AT page-category ALL-MATCHED",
       {"X", "Y"},
       true},
      {"SUBSTRING (X, Y, X) WITH X AS page AT page-category, "
       "Y AS page AT page-category LEFT-MAXIMALITY",
       {"X", "Y", "X"},
       true},
  };
  return kBases;
}

/// A session operation in both forms: the HTTP body and the SessionOp the
/// handler would parse it into.
struct Op {
  std::string text;  // "" = re-run the current spec
  solap::SessionOp op;
};

Op MakeOp(const std::string& verb, const std::string& symbol = "",
          const std::string& label = "") {
  Op o;
  if (verb == "slice") {
    o.text = "slice " + symbol + " " + label;
    o.op.op = "slice";
    o.op.symbol = symbol;
    o.op.labels = {label};
  } else if (verb == "drilldown" || verb == "rollup") {
    o.text = verb + " " + symbol;
    o.op.op = verb == "drilldown" ? "pdrilldown" : "prollup";
    o.op.symbol = symbol;
  } else if (verb == "append") {
    o.text = "append " + symbol + " page page-category";
    o.op.op = "append";
    o.op.symbol = symbol;
    o.op.ref = {"page", "page-category"};
  } else if (verb == "detail") {
    o.text = "detail";
    o.op.op = "detail";
  }
  return o;
}

/// One analyst: a closed loop over seeded sessions.
class Analyst {
 public:
  Analyst(Transport* transport, const solap::HierarchyRegistry* hier,
          size_t client, uint64_t seed, bool record, Recorder* rec)
      : client_(client),
        transport_(transport),
        shadow_(hier),
        rng_(seed),
        record_(record),
        rec_(rec) {}

  void RunSession(size_t index) {
    // Sessions cycle through the bases, so every run has the same mix.
    const BaseQuery& base = BaseQueries()[index % BaseQueries().size()];
    const std::string text = ClickQuery(base.cuboid_by);
    auto spec = solap::ParseQuery(text);
    if (!spec.ok()) {
      rec_->Fail("base query does not parse: " + spec.status().ToString());
      return;
    }
    QueryRequest req;
    req.text = text;
    req.open_session = true;
    req.spec = &*spec;
    const std::string session = "client " + std::to_string(client_) +
                                " session " + std::to_string(index);
    Answer a = Issue(req, *spec, session + " base");
    if (!a.ok()) return;
    if (a.session == 0) {
      rec_->Fail(session + " base: the answer carries no session id");
      return;
    }
    const solap::SessionId shadow_id = shadow_.Open(*spec);
    positions_ = base.positions;
    appendable_ = base.appendable;
    levels_.clear();
    sliced_.clear();
    for (const std::string& s : positions_) levels_[s] = "page-category";
    Answer last = std::move(a);
    bool have_inverse = false;
    Op inverse;

    const size_t steps = 5 + rng_.Below(4);
    for (size_t step = 0; step < steps; ++step) {
      Op op;
      std::string inverse_verb, inverse_symbol;
      if (rng_.Uniform() < kRevisitShare) {
        if (have_inverse) op = inverse;  // else: re-run (empty text)
      } else {
        op = Choose(last, &inverse_verb, &inverse_symbol);
      }
      solap::Result<solap::CuboidSpec> next =
          op.text.empty() ? shadow_.Current(shadow_id)
                          : shadow_.Apply(shadow_id, op.op);
      if (!next.ok()) {
        rec_->Fail("session op rejected client-side: " + op.text);
        return;
      }
      QueryRequest r;
      r.text = op.text;
      r.session = last.session;
      r.op = op.op;
      r.spec = &*next;
      Answer got = Issue(r, *next,
                         session + " step " + std::to_string(step) + " '" +
                             op.text + "'");
      if (!got.ok()) return;
      Track(op);
      have_inverse = !inverse_verb.empty();
      if (have_inverse) inverse = MakeOp(inverse_verb, inverse_symbol);
      got.session = last.session;
      last = std::move(got);
    }
  }

 private:
  Answer Issue(const QueryRequest& req, const solap::CuboidSpec& spec,
               const std::string& label) {
    ++rec_->attempted;
    Answer a = transport_->Query(req);
    if (!a.ok()) {
      rec_->Fail(label + ": " + a.error);
      return a;
    }
    if (record_) {
      rec_->RecordQuery(label, a);
      // Every empty answer is checked as well: the wrong answers seen
      // under concurrent sessions were empty ones.
      const bool sampled = rng_.Uniform() < kCheckShare;
      if (sampled || a.num_cells == 0) {
        rec_->checks.push_back(CheckItem{label, spec, a});
      }
    }
    return a;
  }

  /// Picks a valid forward step; sets the verb/symbol of its inverse when
  /// it has one.
  Op Choose(const Answer& last, std::string* inv_verb,
            std::string* inv_symbol) {
    std::vector<std::pair<int, Op>> candidates;  // weight, op
    std::vector<std::string> symbols = DistinctSymbols();
    for (const std::string& s : symbols) {
      const int d = last.DimIndex(s);
      if (!sliced_.count(s) && d >= 0 && !last.cells.empty()) {
        size_t rank = rng_.Below(std::min<size_t>(kSliceRanks, last.cells.size()));
        candidates.push_back({3, MakeOp("slice", s, last.cells[rank].first[d])});
      }
      if (levels_[s] == "page-category") {
        // Analysts drill into the category they sliced to (§5.2); an
        // unsliced raw-page dimension multiplies the cuboid instead.
        // An unsliced drill-down stays affordable only on a two-symbol
        // substring template with no other raw-page dimension.
        if (sliced_.count(s)) {
          candidates.push_back({2, MakeOp("drilldown", s)});
        } else if (appendable_ && positions_.size() == 2 && !AnyRawPage()) {
          candidates.push_back({1, MakeOp("drilldown", s)});
        }
      } else if (sliced_.count(s) == 0 || sliced_[s] != "raw-page") {
        // A slice taken at raw-page level pins the dimension there.
        candidates.push_back({1, MakeOp("rollup", s)});
      }
    }
    if (appendable_ && positions_.size() < 3) {
      const std::string fresh = std::count(symbols.begin(), symbols.end(), "Z")
                                    ? "W"
                                    : "Z";
      candidates.push_back({2, MakeOp("append", fresh)});
    }
    if (positions_.size() > 2) candidates.push_back({1, MakeOp("detail")});

    int total = 0;
    for (const auto& c : candidates) total += c.first;
    int pick = static_cast<int>(rng_.Below(static_cast<size_t>(total)));
    Op chosen;
    for (const auto& c : candidates) {
      if (pick < c.first) {
        chosen = c.second;
        break;
      }
      pick -= c.first;
    }
    if (chosen.op.op == "pdrilldown") {
      *inv_verb = "rollup";
      *inv_symbol = chosen.op.symbol;
    } else if (chosen.op.op == "prollup") {
      *inv_verb = "drilldown";
      *inv_symbol = chosen.op.symbol;
    } else if (chosen.op.op == "append") {
      *inv_verb = "detail";
    }
    return chosen;
  }

  bool AnyRawPage() const {
    for (const auto& [symbol, level] : levels_) {
      if (level == "raw-page") return true;
    }
    return false;
  }

  std::vector<std::string> DistinctSymbols() const {
    std::vector<std::string> out;
    for (const std::string& s : positions_) {
      if (std::find(out.begin(), out.end(), s) == out.end()) out.push_back(s);
    }
    return out;
  }

  /// Mirrors a successful step in the client's view of the session.
  void Track(const Op& o) {
    const solap::SessionOp& op = o.op;
    if (o.text.empty()) return;
    if (op.op == "slice") {
      sliced_[op.symbol] = levels_[op.symbol];
    } else if (op.op == "pdrilldown") {
      levels_[op.symbol] = "raw-page";
    } else if (op.op == "prollup") {
      levels_[op.symbol] = "page-category";
    } else if (op.op == "append") {
      positions_.push_back(op.symbol);
      if (!levels_.count(op.symbol)) levels_[op.symbol] = "page-category";
    } else if (op.op == "detail") {
      std::string sym = positions_.back();
      positions_.pop_back();
      if (std::find(positions_.begin(), positions_.end(), sym) ==
          positions_.end()) {
        levels_.erase(sym);
        sliced_.erase(sym);
      }
    }
  }

  size_t client_;
  Transport* transport_;
  solap::SessionManager shadow_;
  Rng rng_;
  bool record_;
  Recorder* rec_;
  std::vector<std::string> positions_;
  bool appendable_ = true;
  std::map<std::string, std::string> levels_;
  std::map<std::string, std::string> sliced_;  // symbol -> slice level
};

class Explore : public Workload {
 public:
  const char* name() const override { return "explore"; }
  size_t clients() const override { return kClients; }
  size_t sessions() const override { return kSessionsTable; }

  solap::EngineOptions Options() const override {
    solap::EngineOptions o;
    o.default_strategy = solap::ExecStrategy::kAuto;
    return o;
  }

  void WarmUp(System& system, const RunContext&) override {
    // Every base query once: forms the sequence groups and computes the
    // base cuboids the analysts start from.
    auto transport = MakeHttpTransport(system.port());
    Recorder rec;
    for (const BaseQuery& base : BaseQueries()) {
      QueryRequest req;
      req.text = ClickQuery(base.cuboid_by);
      Answer a = transport->Query(req);
      if (!a.ok()) rec.Fail("base query: " + a.error);
    }
    // Then the two fixed analyst paths that build the large indices with
    // an unsliced raw-page position: an unsliced P-DRILL-DOWN of the pair
    // and an APPEND after it. Once cached, such an index slows every later
    // optimizer decision on its template size, so whether and when a
    // seed's sessions first built one decided a run's latency; built here,
    // every run starts from the same index cache.
    for (const char* symbol : {"X", "Y"}) {
      QueryRequest open;
      open.text = ClickQuery(BaseQueries()[0].cuboid_by);
      open.open_session = true;
      const Answer base = transport->Query(open);
      if (!base.ok() || base.session == 0) {
        rec.Fail("warm-up session: " + base.error);
        continue;
      }
      for (const Op& op : {MakeOp("drilldown", symbol), MakeOp("append", "Z")}) {
        QueryRequest req;
        req.text = op.text;
        req.session = base.session;
        req.op = op.op;
        const Answer a = transport->Query(req);
        if (!a.ok()) rec.Fail("warm-up '" + op.text + "': " + a.error);
      }
    }
    ExitOnWarmUpFailure(rec, name());
  }

  Recorder Run(System& system, const RunContext& ctx,
               const std::function<std::unique_ptr<Transport>()>&
                   make_transport) override {
    const size_t per_client = static_cast<size_t>(
        std::max(1.0, kSessionsPerClientSecond * ctx.seconds));
    return RunClients(kClients, [&](size_t client, Recorder* rec) {
      auto transport = make_transport();
      Analyst analyst(transport.get(), &system.hierarchies(), client,
                      ctx.seed * 1000003ULL + client, true, rec);
      for (size_t i = 0; i < per_client; ++i) analyst.RunSession(i);
    });
  }

  void Verify(System& system, const RunContext&, Recorder* rec) override {
    VerifyChecks(system.table(), system.hierarchies(), rec);
  }
};

}  // namespace

std::unique_ptr<Workload> MakeExplore() { return std::make_unique<Explore>(); }

}  // namespace perfbench
