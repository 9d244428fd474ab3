// live: event data that keeps arriving while a dashboard stays open. An
// open-loop writer POSTs /ingest batches on a fixed schedule (most batches
// are new sessions, which take the extend/patch path; every fifth appends
// clicks to an existing session, which forces invalidation), and one reader
// re-runs a fixed dashboard set: three patchable COUNT cuboids and one regex
// cuboid that ingest cannot patch. The reader's work is fixed too: when a
// batch is due it refreshes the dashboard a fixed number of times back to
// back, the first refreshes racing the batch's ingest and the last one
// after its ack, so every run sees each batch's invalidations once, however
// fast the machine is. One shard, default merge settings, strategy auto.
#include <algorithm>
#include <atomic>
#include <thread>

#include "bench.h"
#include "solap/net/json.h"
#include "solap/parser/parser.h"
#include "workload_util.h"

namespace perfbench {

namespace {

constexpr size_t kSessionsTable = 8'000;  // ~60k click rows
/// Ingest batches per second, far below the write capacity at this table
/// size (a batch and its share of delta merging cost ~20 ms), so the
/// writer's backlog cannot grow.
constexpr double kBatchesPerSecond = 10.0;
/// Every kExistingEvery-th batch appends to an existing session.
constexpr size_t kExistingEvery = 5;
/// Dashboard refreshes per batch. The regex cuboid is recomputed once per
/// batch and every cuboid once per existing-session batch, about 13% of
/// the reader's queries, so p95 lies well inside the recomputes and p50
/// well inside the repository hits.
constexpr size_t kRefreshesPerBatch = 3;
/// The dashboard is every template (workload_util.h).
constexpr size_t kDashboardSize = kNumTemplates;

struct Batch {
  std::vector<Click> clicks;
  std::string body;  // {"rows":[...]}
};

std::vector<Batch> MakeBatches(const Clickstream& data, uint64_t seed,
                               size_t n) {
  Rng rng(seed ^ 0x11fe'0000ULL);
  std::vector<Batch> out(n);
  int64_t t = data.last_time + 60;
  uint32_t next_session = static_cast<uint32_t>(data.num_sessions);
  for (size_t i = 0; i < n; ++i) {
    Batch& b = out[i];
    t += 1 + static_cast<int64_t>(rng.Uniform() * 30);
    if (i % kExistingEvery == kExistingEvery - 1) {
      // A returning visitor: 1-3 more clicks on an existing session.
      const uint32_t s = static_cast<uint32_t>(rng.Below(data.num_sessions));
      b.clicks = MakeSession(rng, data, s, t, 1 + rng.Below(3));
    } else {
      b.clicks = MakeSession(rng, data, next_session++, t, SessionLength(rng));
    }
    b.body = "{\"rows\":[";
    for (size_t i = 0; i < b.clicks.size(); ++i) {
      const Click& c = b.clicks[i];
      if (i) b.body += ',';
      b.body += "[" + solap::net::JsonString(SessionName(c.session)) + "," +
                std::to_string(c.time) + "," +
                solap::net::JsonString(data.pages[c.page]) + "]";
    }
    b.body += "]}";
  }
  return out;
}

class Live : public Workload {
 public:
  const char* name() const override { return "live"; }
  size_t clients() const override { return 2; }  // one writer, one reader
  size_t sessions() const override { return kSessionsTable; }

  solap::EngineOptions Options() const override {
    solap::EngineOptions o;
    o.default_strategy = solap::ExecStrategy::kAuto;
    return o;
  }

  void WarmUp(System& system, const RunContext&) override {
    auto transport = MakeHttpTransport(system.port());
    Recorder rec;
    std::vector<Answer> answers;
    ReadDashboard(transport.get(), "", &rec, &answers);
    ExitOnWarmUpFailure(rec, name());
  }

  Recorder Run(System& system, const RunContext& ctx,
               const std::function<std::unique_ptr<Transport>()>&
                   make_transport) override {
    const size_t n = static_cast<size_t>(
        std::max(1.0, kBatchesPerSecond * ctx.seconds));
    batches_ = MakeBatches(*ctx.data, ctx.seed, n);
    acked_.assign(n, false);
    const Clock::time_point start = Clock::now() + std::chrono::milliseconds(5);
    auto due = [&](size_t i) {
      return start + std::chrono::microseconds(
                         static_cast<int64_t>(i * 1e6 / kBatchesPerSecond));
    };
    // Batches the writer has finished (acked or failed), for the reader.
    std::atomic<size_t> done{0};
    Recorder writer_rec, reader_rec;
    double max_late_ms = 0, sum_late_ms = 0, reader_busy_ms = 0;

    std::thread writer([&] {
      auto transport = make_transport();
      Clock::time_point last_merge = start;
      for (size_t i = 0; i < n; ++i) {
        std::this_thread::sleep_until(due(i));
        const double late_ms = MsSince(due(i));
        max_late_ms = std::max(max_late_ms, late_ms);
        sum_late_ms += late_ms;
        double ack_ms = 0;
        ++writer_rec.attempted;
        const int status = transport->Ingest(batches_[i].body, &ack_ms);
        if (status == 200) {
          acked_[i] = true;
          writer_rec.ingest_ms.push_back(late_ms + ack_ms);
          if (ctx.sink != nullptr) ForegroundMerge(system, ctx, &last_merge);
        } else {
          writer_rec.Fail("ingest batch " + std::to_string(i) + ": HTTP " +
                          std::to_string(status));
        }
        done.store(i + 1, std::memory_order_release);
      }
    });
    std::thread reader([&] {
      auto transport = make_transport();
      std::vector<Answer> answers;
      for (size_t i = 0; i < n; ++i) {
        std::this_thread::sleep_until(due(i));
        for (size_t r = 0; r < kRefreshesPerBatch; ++r) {
          if (r + 1 == kRefreshesPerBatch) {
            while (done.load(std::memory_order_acquire) <= i) {
              std::this_thread::sleep_for(std::chrono::microseconds(200));
            }
          }
          const Clock::time_point t0 = Clock::now();
          ReadDashboard(transport.get(),
                        "batch " + std::to_string(i) + " refresh " +
                            std::to_string(r),
                        &reader_rec, &answers);
          reader_busy_ms += MsSince(t0);
        }
      }
    });
    writer.join();
    reader.join();
    // The final dashboard, checked against a rebuild in Verify.
    auto transport = make_transport();
    ReadDashboard(transport.get(), "", &reader_rec, &final_answers_);
    std::printf("# live writer lateness: mean %.3f ms, max %.3f ms over %zu "
                "batches\n",
                sum_late_ms / static_cast<double>(n), max_late_ms, n);
    Recorder out;
    out.paced_busy_s = reader_busy_ms / 1000.0;
    out.Merge(std::move(writer_rec));
    out.Merge(std::move(reader_rec));
    return out;
  }

  void Verify(System& system, const RunContext& ctx, Recorder* rec) override {
    std::vector<Click> all = ctx.data->clicks;
    for (size_t i = 0; i < batches_.size(); ++i) {
      if (!acked_[i]) continue;
      all.insert(all.end(), batches_[i].clicks.begin(),
                 batches_[i].clicks.end());
    }
    auto rebuilt = LoadTable(*ctx.data, all);
    if (rebuilt->num_rows() != system.table().num_rows()) {
      rec->Fail("final table has " + std::to_string(system.table().num_rows()) +
                " rows, expected " + std::to_string(rebuilt->num_rows()));
    }
    if (final_answers_.size() != kDashboardSize) {
      rec->Fail("final dashboard incomplete");
      return;
    }
    for (size_t d = 0; d < kDashboardSize; ++d) {
      rec->checks.push_back(CheckItem{"final dashboard " + std::to_string(d),
                                      *solap::ParseQuery(DashboardText(d)),
                                      final_answers_[d]});
    }
    VerifyChecks(*rebuilt, system.hierarchies(), rec);
  }

 private:
  static std::string DashboardText(size_t d) {
    return ClickQuery(kTemplates[d]);
  }

  /// One refresh of the dashboard; `answers` receives the answers. A
  /// non-empty `refresh` names the refresh among the recorded operations;
  /// an empty one records nothing.
  static void ReadDashboard(Transport* transport, const std::string& refresh,
                            Recorder* rec, std::vector<Answer>* answers) {
    answers->clear();
    for (size_t d = 0; d < kDashboardSize; ++d) {
      const std::string text = DashboardText(d);
      auto spec = solap::ParseQuery(text);
      QueryRequest req;
      req.text = text;
      req.spec = spec.ok() ? &*spec : nullptr;
      const std::string op = refresh + " dashboard " + std::to_string(d);
      ++rec->attempted;
      Answer a = transport->Query(req);
      if (!a.ok()) {
        rec->Fail(op + ": " + a.error);
        continue;
      }
      if (!refresh.empty()) rec->RecordQuery(op, a);
      answers->push_back(std::move(a));
    }
  }

  /// Traced replay only: the background merger's spans cannot be recorded,
  /// so the replay disables it and runs the same policy in the foreground
  /// (merge once the delta bytes pass the threshold or the interval has
  /// elapsed since the last merge).
  static void ForegroundMerge(System& system, const RunContext& ctx,
                              Clock::time_point* last_merge) {
    const solap::EngineOptions& opts = system.engine().options();
    const auto delta = system.engine().DeltaSnapshot();
    if (delta.segments == 0) return;
    if (delta.bytes < opts.delta_merge_bytes &&
        MsSince(*last_merge) < static_cast<double>(opts.merge_interval_ms)) {
      return;
    }
    solap::TraceContext trace;
    (void)system.engine().MergeDeltasNow(&trace);
    ctx.sink->AddTrace(trace);
    *last_merge = Clock::now();
  }

  std::vector<Batch> batches_;
  std::vector<bool> acked_;
  std::vector<Answer> final_answers_;
};

}  // namespace

std::unique_ptr<Workload> MakeLive() { return std::make_unique<Live>(); }

}  // namespace perfbench
