#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>

#include "bench.h"
#include "solap/cube/partial_codec.h"
#include "solap/cube/partial_merge.h"
#include "solap/engine/optimizer.h"
#include "solap/net/http.h"
#include "solap/net/json.h"
#include "solap/net/query_routes.h"
#include "solap/net/shard_routes.h"
#include "solap/parser/parser.h"

namespace perfbench {

using solap::net::JsonParse;
using solap::net::JsonValue;

// ------------------------------------------------------------------ System

System::System(const Clickstream& data, const std::vector<Click>& clicks,
               const solap::EngineOptions& options) {
  hier_ = BuildHierarchies(data);
  Clock::time_point t0 = Clock::now();
  table_ = LoadTable(data, clicks);
  load_ms_ = MsSince(t0);
  engine_ = std::make_unique<solap::ShardedEngine>(table_.get(), hier_.get(),
                                                   options);
  solap::ServiceOptions so;
  so.num_threads = kServiceThreads;
  service_ = std::make_unique<solap::QueryService>(engine_.get(), so);
  solap::net::HttpServerOptions ho;
  ho.num_workers = kServiceThreads;
  solap::QueryService* service = service_.get();
  server_ = std::make_unique<solap::net::HttpServer>(
      solap::net::BuildSolapRouter(service), ho, &service->metrics(),
      [service] { service->BeginDrain(); });
  solap::Status st = server_->Start();
  if (!st.ok()) {
    std::fprintf(stderr, "http server failed to start: %s\n",
                 st.ToString().c_str());
    std::exit(1);
  }
}

System::~System() {
  server_->Stop();
  service_->Shutdown();
}

int Answer::DimIndex(const std::string& name) const {
  for (size_t d = 0; d < dim_names.size(); ++d) {
    if (dim_names[d] == name) return static_cast<int>(d);
  }
  return -1;
}

// ---------------------------------------------------------------- requests

std::string RenderQueryRequest(const QueryRequest& req) {
  std::string out = "POST /query HTTP/1.1\r\nHost: perfbench\r\n";
  if (req.open_session) {
    out += "X-Solap-Session: new\r\n";
  } else if (req.session != 0) {
    out += "X-Solap-Session: " + std::to_string(req.session) + "\r\n";
  }
  out += "Content-Length: " + std::to_string(req.text.size()) + "\r\n\r\n";
  out += req.text;
  return out;
}

std::string RenderIngestRequest(const std::string& body) {
  return "POST /ingest HTTP/1.1\r\nHost: perfbench\r\nContent-Length: " +
         std::to_string(body.size()) + "\r\n\r\n" + body;
}

namespace {

/// Fills `a` from a /query JSON body.
void ParseAnswerJson(const std::string& body, Answer* a) {
  auto root = JsonParse(body);
  if (!root.ok() || !root->IsObject()) {
    a->status = 0;
    a->error = "unparseable answer: " + root.status().ToString();
    return;
  }
  if (a->status != 200) {
    const JsonValue* msg = root->Find("message");
    a->error = "HTTP " + std::to_string(a->status) + ": " +
               (msg != nullptr && msg->IsString() ? msg->s : body);
    return;
  }
  if (const JsonValue* v = root->Find("num_cells"); v && v->IsInt()) {
    a->num_cells = static_cast<size_t>(v->i);
  }
  if (const JsonValue* v = root->Find("exec_ms"); v && v->IsNumber()) {
    a->exec_ms = v->d;
  }
  if (const JsonValue* v = root->Find("session"); v && v->IsInt()) {
    a->session = static_cast<uint64_t>(v->i);
  }
  if (const JsonValue* dims = root->Find("dims"); dims && dims->IsArray()) {
    for (const JsonValue& d : dims->items) {
      const JsonValue* n = d.Find("name");
      a->dim_names.push_back(n != nullptr && n->IsString() ? n->s : "");
    }
  }
  if (const JsonValue* cells = root->Find("cells"); cells && cells->IsArray()) {
    for (const JsonValue& c : cells->items) {
      std::vector<std::string> key;
      if (const JsonValue* k = c.Find("key"); k && k->IsArray()) {
        for (const JsonValue& l : k->items) key.push_back(l.s);
      }
      const JsonValue* v = c.Find("value");
      a->cells.emplace_back(std::move(key),
                            v != nullptr && v->IsNumber() ? v->d : -1.0);
    }
  }
}

/// One keep-alive connection to the loopback server.
class HttpTransport : public Transport {
 public:
  explicit HttpTransport(uint16_t port) : port_(port) {}
  ~HttpTransport() override { Close(); }

  Answer Query(const QueryRequest& req) override {
    Answer a;
    std::string body;
    Clock::time_point t0 = Clock::now();
    a.status = Exchange(RenderQueryRequest(req), &body);
    a.latency_ms = MsSince(t0);
    a.response_bytes = body.size();
    if (a.status == 0) {
      a.error = "torn connection";
      return a;
    }
    ParseAnswerJson(body, &a);
    return a;
  }

  int Ingest(const std::string& body, double* latency_ms) override {
    std::string resp;
    Clock::time_point t0 = Clock::now();
    int status = Exchange(RenderIngestRequest(body), &resp);
    *latency_ms = MsSince(t0);
    return status;
  }

 private:
  bool Connect() {
    fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd_ < 0) return false;
    int one = 1;
    ::setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port_);
    ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
    if (::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) !=
        0) {
      Close();
      return false;
    }
    timeval tv{60, 0};
    ::setsockopt(fd_, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
    return true;
  }

  void Close() {
    if (fd_ >= 0) ::close(fd_);
    fd_ = -1;
    buf_.clear();
  }

  bool Fill() {
    char tmp[16384];
    ssize_t n = ::recv(fd_, tmp, sizeof(tmp), 0);
    if (n <= 0) return false;
    buf_.append(tmp, static_cast<size_t>(n));
    return true;
  }

  /// Sends one request and reads one Content-Length-framed response.
  /// Returns the HTTP status, or 0 on a torn connection (which is then
  /// closed; the next call reconnects).
  int Exchange(const std::string& request, std::string* body) {
    if (fd_ < 0 && !Connect()) return 0;
    size_t off = 0;
    while (off < request.size()) {
      ssize_t n = ::send(fd_, request.data() + off, request.size() - off,
                         MSG_NOSIGNAL);
      if (n <= 0) {
        Close();
        return 0;
      }
      off += static_cast<size_t>(n);
    }
    size_t head_end;
    while ((head_end = buf_.find("\r\n\r\n")) == std::string::npos) {
      if (!Fill()) {
        Close();
        return 0;
      }
    }
    const std::string head = buf_.substr(0, head_end);
    if (head.compare(0, 5, "HTTP/") != 0 || head.size() < 12) {
      Close();
      return 0;
    }
    const int status = std::atoi(head.c_str() + 9);
    std::string lower = head;
    std::transform(lower.begin(), lower.end(), lower.begin(), ::tolower);
    size_t cl = lower.find("content-length:");
    const size_t len =
        cl == std::string::npos
            ? 0
            : static_cast<size_t>(std::atoll(head.c_str() + cl + 15));
    while (buf_.size() < head_end + 4 + len) {
      if (!Fill()) {
        Close();
        return 0;
      }
    }
    body->assign(buf_, head_end + 4, len);
    buf_.erase(0, head_end + 4 + len);
    if (lower.find("connection: close") != std::string::npos) Close();
    return status;
  }

  uint16_t port_;
  int fd_ = -1;
  std::string buf_;
};

/// The traced replay: the public calls the /query and /ingest handlers
/// make, each timed by the benchmark, with the engine's own spans
/// recorded through SubmitOptions::trace / the ingest TraceContext. It does
/// no engine work of its own; ProbeLayers does that after the replay.
class InProcessTransport : public Transport {
 public:
  InProcessTransport(System* system, TraceSink* sink)
      : system_(system), sink_(sink) {}

  Answer Query(const QueryRequest& req) override {
    Answer a;
    Clock::time_point t0 = Clock::now();
    ParseHttp(RenderQueryRequest(req));
    solap::QueryService& service = system_->service();
    solap::TraceContext trace;
    solap::SubmitOptions opts;
    opts.trace = &trace;

    solap::QueryResponse qr;
    if (req.session != 0) {
      solap::Result<solap::QueryService::Ticket> ticket =
          req.text.empty()
              ? service.SubmitSessionCurrent(req.session, opts)
              : service.SubmitSessionOp(req.session, req.op, opts);
      if (!ticket.ok()) {
        a.status = solap::net::HttpStatusForError(ticket.status());
        a.error = ticket.status().ToString();
        return a;
      }
      qr = ticket->response.get();
      a.session = req.session;
    } else {
      Clock::time_point p0 = Clock::now();
      solap::Result<solap::Statement> stmt = solap::ParseStatement(req.text);
      sink_->Observe("parser.parse_us", MsSince(p0) * 1000.0);
      if (!stmt.ok()) {
        a.status = 400;
        a.error = stmt.status().ToString();
        return a;
      }
      if (req.open_session) a.session = service.OpenSession(stmt->spec);
      qr = service.Run(stmt->spec, opts);
    }
    a.latency_ms = MsSince(t0);
    sink_->AddTrace(trace);
    if (!qr.status.ok()) {
      a.status = solap::net::HttpStatusForError(qr.status);
      a.error = qr.status.ToString();
      return a;
    }
    sink_->AddStats(qr.stats);
    sink_->Observe("query", 1);
    if (req.spec != nullptr) sink_->AddSpec(*req.spec);
    Answer rendered = AnswerFromCuboid(*qr.cuboid);
    rendered.status = 200;
    rendered.session = a.session;
    rendered.exec_ms = qr.exec_ms;
    rendered.latency_ms = a.latency_ms;
    return rendered;
  }

  int Ingest(const std::string& body, double* latency_ms) override {
    Clock::time_point t0 = Clock::now();
    ParseHttp(RenderIngestRequest(body));
    Clock::time_point j0 = Clock::now();
    auto root = JsonParse(body);
    sink_->Observe("net.json_parse_us", MsSince(j0) * 1000.0);
    if (!root.ok()) return 400;
    auto rows_v = root->Require("rows", JsonValue::Kind::kArray);
    if (!rows_v.ok()) return 400;
    std::vector<std::vector<solap::Value>> rows;
    for (const JsonValue& rv : (*rows_v)->items) {
      std::vector<solap::Value> row;
      for (const JsonValue& cv : rv.items) {
        auto value = solap::net::RowValueFromJson(cv);
        if (!value.ok()) return 400;
        row.push_back(*std::move(value));
      }
      rows.push_back(std::move(row));
    }
    solap::TraceContext trace;
    solap::QueryService::IngestResult r =
        system_->service().Ingest(rows, &trace);
    *latency_ms = MsSince(t0);
    sink_->AddTrace(trace);
    sink_->Observe("batch", 1);
    sink_->Observe("ingest.delta_bytes",
                   static_cast<double>(
                       system_->engine().DeltaSnapshot().bytes));
    return r.status.ok() ? 200 : solap::net::HttpStatusForError(r.status);
  }

 private:
  void ParseHttp(const std::string& bytes) {
    Clock::time_point t0 = Clock::now();
    solap::net::HttpParser parser;
    parser.Feed(bytes.data(), bytes.size());
    solap::net::HttpRequest parsed;
    (void)parser.Next(&parsed);
    sink_->Observe("net.http_parse_us", MsSince(t0) * 1000.0);
  }

  System* system_;
  TraceSink* sink_;
};

}  // namespace

std::unique_ptr<Transport> MakeHttpTransport(uint16_t port) {
  return std::make_unique<HttpTransport>(port);
}

std::unique_ptr<Transport> MakeInProcessTransport(System* system,
                                                  TraceSink* sink) {
  return std::make_unique<InProcessTransport>(system, sink);
}

// ------------------------------------------------------------------ probes

namespace {

/// Specs ProbeLayers probes at most: bounds the traced run's length on
/// scan, where every probe forms and scans anew.
constexpr size_t kMaxProbes = 96;

/// Times GroupsFor on every shard: the formation step the optimizer and
/// the prepare step call.
void ProbeFormation(solap::ShardedEngine& engine, const solap::CuboidSpec& spec,
                    TraceSink* sink) {
  const std::string key = spec.seq.CanonicalString();
  for (size_t i = 0; i < engine.num_shards(); ++i) {
    Clock::time_point t0 = Clock::now();
    auto groups = engine.shard(i)->GroupsFor(spec.seq);
    const double ms = MsSince(t0);
    if (!groups.ok()) continue;
    if (sink->NoteFormation(key + "#" + std::to_string(i), *groups, ms)) {
      sink->Observe("seq.formation_ms", ms);
    }
  }
}

/// Executes `spec` on every shard to get its real partials, then times the
/// wire codec (EncodeShardPartial / DecodeShardPartial) and the gather-side
/// MergeCuboidPartials on them.
void ProbeCodec(solap::ShardedEngine& engine, const solap::CuboidSpec& spec,
                TraceSink* sink) {
  std::shared_ptr<solap::SCuboid> merged;
  for (size_t i = 0; i < engine.num_shards(); ++i) {
    solap::ScanStats stats;
    solap::ExecControl control;
    control.stats_out = &stats;
    auto partial =
        engine.shard(i)->Execute(spec, solap::ExecStrategy::kAuto, control);
    if (!partial.ok()) continue;
    Clock::time_point t0 = Clock::now();
    const std::string wire = solap::EncodeShardPartial(**partial, stats);
    sink->Observe("cube.codec_encode_us", MsSince(t0) * 1000.0);
    t0 = Clock::now();
    auto decoded = solap::DecodeShardPartial(wire);
    sink->Observe("cube.codec_decode_us", MsSince(t0) * 1000.0);
    if (!decoded.ok()) continue;
    if (merged == nullptr) {
      merged = std::make_shared<solap::SCuboid>(decoded->cuboid->dims(),
                                                decoded->cuboid->agg());
    }
    t0 = Clock::now();
    solap::MergeCuboidPartials(merged.get(), *decoded->cuboid);
    sink->Observe("cube.merge_us", MsSince(t0) * 1000.0);
  }
}

}  // namespace

void ProbeLayers(System* system, TraceSink* sink) {
  solap::ShardedEngine& engine = system->engine();
  const std::vector<solap::CuboidSpec> specs = sink->specs();
  const size_t stride = std::max<size_t>(1, specs.size() / kMaxProbes);
  for (size_t q = 0; q < specs.size(); q += stride) {
    const solap::CuboidSpec& spec = specs[q];
    sink->Observe("probe", 1);
    ProbeFormation(engine, spec, sink);
    if (!spec.is_regex()) {
      Clock::time_point t0 = Clock::now();
      solap::StrategyOptimizer optimizer(engine.shard(0));
      (void)optimizer.Choose(spec);
      sink->Observe("optimizer.choose_us", MsSince(t0) * 1000.0);
    }
    if (engine.num_shards() > 1) ProbeCodec(engine, spec, sink);
  }
}

Answer AnswerFromCuboid(const solap::SCuboid& c) {
  Answer a;
  a.status = 200;
  a.num_cells = c.num_cells();
  for (const solap::DimDescriptor& d : c.dims()) a.dim_names.push_back(d.name);
  for (const auto& [key, value] : c.TopCells(kAnswerLimit)) {
    std::vector<std::string> labels;
    for (size_t d = 0; d < key.size(); ++d) labels.push_back(c.LabelOf(d, key[d]));
    a.cells.emplace_back(std::move(labels), value);
  }
  return a;
}

// ---------------------------------------------------------------- recorder

void Recorder::RecordQuery(const std::string& op, const Answer& a) {
  query_ms.push_back(a.latency_ms);
  response_bytes.push_back(a.response_bytes);
  exec_ms[op + " cells=" + std::to_string(a.num_cells)] = a.exec_ms;
}

void Recorder::Fail(const std::string& what) {
  ++failed;
  if (errors.size() < 5) errors.push_back(what);
}

void Recorder::Merge(Recorder&& o) {
  query_ms.insert(query_ms.end(), o.query_ms.begin(), o.query_ms.end());
  ingest_ms.insert(ingest_ms.end(), o.ingest_ms.begin(), o.ingest_ms.end());
  exec_ms.merge(o.exec_ms);
  paced_busy_s += o.paced_busy_s;
  response_bytes.insert(response_bytes.end(), o.response_bytes.begin(),
                        o.response_bytes.end());
  attempted += o.attempted;
  failed += o.failed;
  for (std::string& e : o.errors) {
    if (errors.size() < 5) errors.push_back(std::move(e));
  }
  for (CheckItem& c : o.checks) checks.push_back(std::move(c));
}

double Percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  size_t rank = static_cast<size_t>(std::ceil(p / 100.0 * v.size()));
  rank = std::clamp<size_t>(rank, 1, v.size());
  return v[rank - 1];
}

}  // namespace perfbench
