#include "solap/engine/sharded_engine.h"

#include <algorithm>
#include <new>
#include <thread>
#include <utility>

#include "solap/cube/partial_merge.h"
#include "solap/engine/remote_shard.h"
#include "solap/engine/shard_partition.h"
#include "solap/index/build_index.h"

namespace solap {

ShardedEngine::ShardedEngine(const EventTable* table,
                             const HierarchyRegistry* hierarchies,
                             EngineOptions options)
    : table_(table), hierarchies_(hierarchies), options_(std::move(options)) {
  BuildShards();
}

ShardedEngine::ShardedEngine(EventTable* table,
                             const HierarchyRegistry* hierarchies,
                             EngineOptions options)
    : table_(table),
      mutable_table_(table),
      hierarchies_(hierarchies),
      options_(std::move(options)) {
  BuildShards();
}

ShardedEngine::ShardedEngine(std::shared_ptr<SequenceGroupSet> raw_groups,
                             const HierarchyRegistry* hierarchies,
                             EngineOptions options)
    : raw_groups_(std::move(raw_groups)),
      hierarchies_(hierarchies),
      options_(std::move(options)) {
  BuildShards();
}

ShardedEngine::ShardedEngine(SOlapEngine* borrowed)
    : hierarchies_(borrowed->hierarchies()), borrowed_(borrowed) {}

ShardedEngine::~ShardedEngine() = default;

void ShardedEngine::BuildShards() {
  size_t n = std::max<size_t>(1, options_.shards);
  if (n > 1 && table_ != nullptr) {
    // Resolve the shard-by column; an unusable one degrades to one shard
    // rather than failing construction (the engine stays correct, just
    // monolithic).
    shard_col_ = ResolveShardColumn(*table_, options_.shard_by);
    shard_attr_ =
        shard_col_ >= 0 ? table_->schema().field(shard_col_).name : "";
    if (shard_col_ < 0) n = 1;
  }

  EngineOptions shard_opts = options_;
  shard_opts.shards = 1;
  if (n == 1) {
    if (mutable_table_ != nullptr) {
      // Mutable overload: the single executor gets the writable table so
      // its streaming write path works through plain delegation.
      shards_.push_back(std::make_unique<SOlapEngine>(mutable_table_,
                                                      hierarchies_,
                                                      shard_opts));
    } else {
      shards_.push_back(
          table_ != nullptr
              ? std::make_unique<SOlapEngine>(table_, hierarchies_, shard_opts)
              : std::make_unique<SOlapEngine>(raw_groups_, hierarchies_,
                                              shard_opts));
    }
    return;
  }

  // Per-shard executors run serially (the scatter is the parallelism) with
  // an even split of the memory budget; merged results cache in the facade
  // repository, so shard-level cuboid caching is off.
  shard_opts.exec_threads = 1;
  shard_opts.repository_capacity_bytes = 0;
  shard_opts.memory_budget_bytes = options_.memory_budget_bytes / n;
  repository_ =
      std::make_unique<CuboidRepository>(options_.repository_capacity_bytes);

  if (table_ != nullptr) {
    shard_tables_ = table_->PartitionRows(n, [this, n](RowId r) {
      return ShardOfCode(table_->CodeAt(r, shard_col_), n);
    });
    for (size_t s = 0; s < n; ++s) {
      shards_.push_back(std::make_unique<SOlapEngine>(shard_tables_[s].get(),
                                                      hierarchies_,
                                                      shard_opts));
    }
    return;
  }

  // Raw groups: split every group into n contiguous sid blocks. Every group
  // exists in every shard (possibly empty) and in source order, so group
  // ordinals line up across shards and with the source set.
  shard_groups_.clear();
  for (size_t s = 0; s < n; ++s) {
    auto set = std::make_shared<SequenceGroupSet>(raw_groups_->raw_attr());
    set->raw_dictionary() = raw_groups_->raw_dictionary();
    shard_groups_.push_back(std::move(set));
  }
  const auto& groups = raw_groups_->groups();
  shard_bases_.assign(groups.size(), std::vector<Sid>(n, 0));
  for (size_t g = 0; g < groups.size(); ++g) {
    const SequenceGroup& src = groups[g];
    const size_t m = src.num_sequences();
    for (size_t s = 0; s < n; ++s) {
      SequenceGroup& dst = shard_groups_[s]->GroupFor(src.key());
      const size_t begin = m * s / n;
      const size_t end = m * (s + 1) / n;
      shard_bases_[g][s] = static_cast<Sid>(begin);
      for (size_t sid = begin; sid < end; ++sid) {
        dst.AddSequence(src.Rows(static_cast<Sid>(sid)));
      }
    }
  }
  for (size_t s = 0; s < n; ++s) {
    shards_.push_back(std::make_unique<SOlapEngine>(shard_groups_[s],
                                                    hierarchies_, shard_opts));
  }
}

ThreadPool* ShardedEngine::ScatterPool() {
  std::lock_guard<std::mutex> lock(scatter_pool_mu_);
  if (!scatter_pool_created_) {
    scatter_pool_created_ = true;
    const size_t t =
        std::min<size_t>(std::max(std::thread::hardware_concurrency(), 1u),
                         shards_.size());
    if (t > 1) scatter_pool_ = std::make_unique<ThreadPool>(t);
  }
  return scatter_pool_.get();
}

SOlapEngine* ShardedEngine::Monolith() {
  if (borrowed_ != nullptr) return borrowed_;
  if (shards_.size() == 1) return shards_[0].get();
  std::lock_guard<std::mutex> lock(fallback_mu_);
  if (!fallback_) {
    EngineOptions opts = options_;
    opts.shards = 1;
    fallback_ =
        table_ != nullptr
            ? std::make_unique<SOlapEngine>(table_, hierarchies_, opts)
            : std::make_unique<SOlapEngine>(raw_groups_, hierarchies_, opts);
  }
  return fallback_.get();
}

Status ShardedEngine::EnableRemoteScatter(
    const std::vector<ShardEndpoint>& endpoints, RemoteShardOptions rpc,
    DegradePolicy policy, bool local_fallback, MetricsRegistry* metrics) {
  if (borrowed_ != nullptr || shards_.size() <= 1) {
    return Status::InvalidArgument(
        "remote scatter requires a sharded (shards > 1) engine");
  }
  if (endpoints.size() != shards_.size()) {
    return Status::InvalidArgument(
        "endpoint count does not match shard count: " +
        std::to_string(endpoints.size()) + " vs " +
        std::to_string(shards_.size()));
  }
  remote_clients_.clear();
  remote_clients_.reserve(endpoints.size());
  for (size_t i = 0; i < endpoints.size(); ++i) {
    remote_clients_.push_back(
        std::make_unique<RemoteShardClient>(i, endpoints[i], rpc, metrics));
  }
  shard_healthy_ = std::make_unique<std::atomic<bool>[]>(endpoints.size());
  for (size_t i = 0; i < endpoints.size(); ++i) {
    shard_healthy_[i].store(true, std::memory_order_relaxed);
  }
  degrade_policy_ = policy;
  remote_local_fallback_ = local_fallback;
  return Status::OK();
}

void ShardedEngine::DisableRemoteScatter() {
  remote_clients_.clear();
  shard_healthy_.reset();
}

void ShardedEngine::SetShardHealthy(size_t i, bool healthy) {
  if (shard_healthy_ != nullptr && i < remote_clients_.size()) {
    shard_healthy_[i].store(healthy, std::memory_order_relaxed);
  }
}

bool ShardedEngine::ShardHealthy(size_t i) const {
  return shard_healthy_ == nullptr || i >= remote_clients_.size() ||
         shard_healthy_[i].load(std::memory_order_relaxed);
}

bool ShardedEngine::Shardable(const CuboidSpec& spec) const {
  if (borrowed_ != nullptr || shards_.size() <= 1) return true;
  if (table_ == nullptr) return true;  // raw mode: the sequence is the unit
  for (const LevelRef& ref : spec.seq.cluster_by) {
    if (ref.attr != shard_attr_) continue;
    const ConceptHierarchy* h =
        hierarchies_ != nullptr ? hierarchies_->Find(ref.attr) : nullptr;
    // No hierarchy = a single (base) level; otherwise level 0 is base.
    if (h == nullptr || h->LevelIndex(ref.level) == 0) return true;
  }
  return false;
}

Result<std::shared_ptr<const SCuboid>> ShardedEngine::Execute(
    const CuboidSpec& spec) {
  return Execute(spec, options_.default_strategy, ExecControl{});
}

Result<std::shared_ptr<const SCuboid>> ShardedEngine::Execute(
    const CuboidSpec& spec, ExecStrategy strategy) {
  return Execute(spec, strategy, ExecControl{});
}

Result<std::shared_ptr<const SCuboid>> ShardedEngine::Execute(
    const CuboidSpec& spec, ExecStrategy strategy,
    const ExecControl& control) {
  if (borrowed_ != nullptr) return borrowed_->Execute(spec, strategy, control);
  if (shards_.size() == 1) return shards_[0]->Execute(spec, strategy, control);

  // Facade snapshot: multi-shard mutations (IngestRows, eviction,
  // repartition) hold this gate exclusively, so a scattered execution sees
  // every shard at one consistent facade epoch.
  EpochGate::ReadLock rl(gate_);
  if (control.epoch_out != nullptr) *control.epoch_out = rl.epoch();
  ScanStats local;
  auto run = [&]() -> Result<std::shared_ptr<const SCuboid>> {
    if (Shardable(spec)) {
      try {
        return ExecuteScatter(spec, strategy, control, &local);
      } catch (const std::bad_alloc&) {
        return Status::ResourceExhausted(
            "allocation failed while gathering shard partials");
      }
    }
    ExecControl sub = control;
    sub.stats_out = &local;
    sub.epoch_out = nullptr;  // the facade epoch above is authoritative
    auto fallback = Monolith()->Execute(spec, strategy, sub);
    ++local.shard_fallbacks;
    return fallback;
  };
  auto result = run();
  MergeStats(local);
  if (control.stats_out != nullptr) *control.stats_out = local;
  return result;
}

Result<std::shared_ptr<const SCuboid>> ShardedEngine::ExecuteScatter(
    const CuboidSpec& spec, ExecStrategy strategy, const ExecControl& control,
    ScanStats* stats) {
  TraceContext* trace = control.trace;
  const std::string key = spec.CanonicalString();
  {
    TraceSpan span(trace, "repo.lookup");
    if (auto hit = repository_->Lookup(key)) {
      ++stats->repository_hits;
      span.Note("result", "hit");
      return hit;
    }
    span.Note("result", "miss");
  }

  // Shards execute without the iceberg restriction: a cell split across
  // shards could fall below the threshold in every partial yet clear it
  // globally, so the restriction only applies to the merged cuboid.
  CuboidSpec shard_spec = spec;
  shard_spec.iceberg_min_count.reset();

  const size_t n = shards_.size();
  const bool remote = remote_scatter();
  std::vector<std::shared_ptr<const SCuboid>> partials(n);
  std::vector<ScanStats> shard_stats(n);
  std::vector<Status> shard_status(n, Status::OK());

  {
    TraceSpan scatter(trace, "shard.scatter");
    scatter.Count("shards", n);
    if (remote) scatter.Note("transport", "rpc");
    const int scatter_id = scatter.id();
    // Declared after the span so the fork/join completes (TaskBatch dtor)
    // while "shard.scatter" is still open.
    TaskBatch batch(ScatterPool());
    for (size_t i = 0; i < n; ++i) {
      batch.Submit([&, i] {
        TraceSpan span(trace, "shard.exec", scatter_id);
        span.Count("shard", i);
        if (remote) {
          // An unhealthy shard (supervisor verdict) skips the RPC and its
          // retry budget entirely — fail fast into the degradation policy.
          if (!ShardHealthy(i)) {
            shard_status[i] =
                Status::Unavailable("shard marked degraded by supervisor");
            span.Note("error", shard_status[i].ToString());
            return;
          }
          auto r = remote_clients_[i]->Execute(shard_spec, strategy,
                                               control.stop, trace,
                                               &shard_stats[i]);
          if (r.ok()) {
            partials[i] = r->cuboid;
            span.Count("cells", partials[i]->num_cells());
          } else {
            shard_status[i] = r.status();
            span.Note("error", r.status().ToString());
          }
          return;
        }
        ExecControl sub;
        sub.stop = control.stop;
        sub.stats_out = &shard_stats[i];
        sub.trace = trace;
        auto r = shards_[i]->Execute(shard_spec, strategy, sub);
        if (r.ok()) {
          partials[i] = *r;
          span.Count("cells", partials[i]->num_cells());
        } else {
          shard_status[i] = r.status();
          span.Note("error", r.status().ToString());
        }
      });
    }
  }

  // Work already done counts even when a shard failed.
  for (size_t i = 0; i < n; ++i) *stats += shard_stats[i];

  // Failure disposition. In-process scatter and strict remote mode fail
  // the query on the first shard error. Degraded remote mode recovers
  // unavailable shards: re-execute the slice on the local shard executor
  // (bit-identical — same slice, same code), else answer without it and
  // flag the shards that are missing. Application-class errors (bad spec,
  // cancel, out of time) always fail the query — degradation is for dead
  // shards, not bad requests.
  std::vector<size_t> missing;
  for (size_t i = 0; i < n; ++i) {
    if (shard_status[i].ok()) continue;
    const bool recoverable =
        remote && degrade_policy_ == DegradePolicy::kDegraded &&
        RemoteShardClient::IsTransportError(shard_status[i]);
    if (!recoverable) return shard_status[i];
    if (remote_local_fallback_) {
      TraceSpan span(trace, "shard.local_fallback");
      span.Count("shard", i);
      ScanStats local_stats;
      ExecControl sub;
      sub.stop = control.stop;
      sub.stats_out = &local_stats;
      sub.trace = trace;
      auto r = shards_[i]->Execute(shard_spec, strategy, sub);
      *stats += local_stats;
      if (r.ok()) {
        partials[i] = *r;
        ++stats->degraded_queries;
        continue;
      }
      span.Note("error", r.status().ToString());
    }
    missing.push_back(i);
  }
  if (missing.size() == n) {
    return Status::Unavailable("all shards unavailable");
  }

  TraceSpan gather(trace, "shard.gather");
  size_t first = 0;
  while (partials[first] == nullptr) ++first;
  auto merged = std::make_shared<SCuboid>(partials[first]->dims(),
                                          partials[first]->agg());
  size_t folded = 0;
  // Ascending shard order keeps the FP sum fold deterministic.
  for (size_t i = 0; i < n; ++i) {
    if (partials[i] != nullptr) {
      folded += MergeCuboidPartials(merged.get(), *partials[i]);
    }
  }
  ++stats->shard_scatters;
  stats->shard_partials += n - missing.size();
  stats->shard_merged_cells += folded;
  if (spec.iceberg_min_count.has_value()) {
    merged->ApplyIceberg(*spec.iceberg_min_count);
  }
  gather.Count("merged_cells", folded);
  gather.Count("cells", merged->num_cells());
  if (!missing.empty()) {
    ++stats->partial_answers;
    gather.Count("missing_shards", missing.size());
    if (control.missing_shards != nullptr) {
      *control.missing_shards = missing;
    }
    // A partial answer must never be served from cache as if complete.
    return std::shared_ptr<const SCuboid>(merged);
  }
  repository_->Insert(key, merged);
  return std::shared_ptr<const SCuboid>(merged);
}

Result<std::shared_ptr<const SCuboid>> ShardedEngine::ExecuteOnline(
    const CuboidSpec& spec, size_t report_every,
    const SOlapEngine::ProgressFn& progress) {
  if (borrowed_ == nullptr && shards_.size() > 1) {
    std::lock_guard<std::mutex> lock(stats_mu_);
    ++stats_.shard_fallbacks;
  }
  return Monolith()->ExecuteOnline(spec, report_every, progress);
}

Status ShardedEngine::PrecomputeIndex(const CuboidSpec& spec, size_t m,
                                      const LevelRef& position_ref) {
  if (borrowed_ != nullptr || shards_.size() == 1 || !Shardable(spec)) {
    return Monolith()->PrecomputeIndex(spec, m, position_ref);
  }
  for (auto& shard : shards_) {
    Status s = shard->PrecomputeIndex(spec, m, position_ref);
    if (!s.ok()) return s;
  }
  return Status::OK();
}

Status ShardedEngine::WarmSequenceCache(const SequenceSpec& spec) {
  if (borrowed_ != nullptr || shards_.size() == 1) {
    return Monolith()->WarmSequenceCache(spec);
  }
  CuboidSpec probe;
  probe.seq = spec;
  if (!Shardable(probe)) return Monolith()->WarmSequenceCache(spec);
  for (auto& shard : shards_) {
    Status s = shard->WarmSequenceCache(spec);
    if (!s.ok()) return s;
  }
  return Status::OK();
}

Status ShardedEngine::MaterializeIndex(const SequenceSpec& formation,
                                       const IndexShape& shape) {
  if (borrowed_ != nullptr || shards_.size() == 1) {
    return Monolith()->MaterializeIndex(formation, shape);
  }
  CuboidSpec probe;
  probe.seq = formation;
  if (!Shardable(probe)) return Monolith()->MaterializeIndex(formation, shape);
  for (auto& shard : shards_) {
    Status s = shard->MaterializeIndex(formation, shape);
    if (!s.ok()) return s;
  }
  return Status::OK();
}

Result<std::shared_ptr<InvertedIndex>> ShardedEngine::GatherCompleteIndex(
    size_t group_idx, const IndexShape& shape) {
  if (borrowed_ != nullptr || raw_groups_ == nullptr) {
    return Status::InvalidArgument(
        "GatherCompleteIndex requires a raw-group sharded engine");
  }
  ScanStats local;
  const size_t n = shards_.size();
  // Per-shard sets and sid-block bases; one shard over the source set is
  // the degenerate base-0 case.
  std::vector<SequenceGroupSet*> sets;
  std::vector<Sid> bases;
  if (n == 1) {
    sets.push_back(raw_groups_.get());
    bases.push_back(0);
  } else {
    if (group_idx >= shard_bases_.size()) {
      return Status::InvalidArgument("group index out of range");
    }
    for (size_t s = 0; s < n; ++s) {
      sets.push_back(shard_groups_[s].get());
      bases.push_back(shard_bases_[group_idx][s]);
    }
  }

  std::vector<std::shared_ptr<InvertedIndex>> shard_indices;
  shard_indices.reserve(sets.size());
  for (SequenceGroupSet* set : sets) {
    if (group_idx >= set->groups().size()) {
      return Status::InvalidArgument("group index out of range");
    }
    auto built = BuildIndex(&set->groups()[group_idx], *set, hierarchies_,
                            shape, &local);
    if (!built.ok()) return built.status();
    shard_indices.push_back(*built);
  }

  auto gathered = std::make_shared<InvertedIndex>(shape, /*complete=*/true);
  ContainerOpCounts ops;
  std::vector<SidList> scratches(shard_indices.size());
  for (const auto& index : shard_indices) {
    index->ForEachLogicalList([&](const PatternKey& pattern, const SidList*,
                                  const SidList*) {
      if (gathered->lists().count(pattern) != 0) return;
      std::vector<const SidList*> lists;
      lists.reserve(shard_indices.size());
      for (size_t i = 0; i < shard_indices.size(); ++i) {
        // LogicalList materializes base+delta per shard; may be nullptr.
        lists.push_back(shard_indices[i]->LogicalList(pattern, &scratches[i]));
      }
      gathered->lists()[pattern] = GatherShardLists(
          std::span<const SidList* const>(lists), bases, &ops);
    });
  }
  gathered->RecountEntries();
  local.container_array_ops += ops.array_ops;
  local.container_bitmap_ops += ops.bitmap_ops;
  local.container_run_ops += ops.run_ops;
  local.container_gallop_ops += ops.gallop_ops;
  MergeStats(local);
  return gathered;
}

Status ShardedEngine::AppendRawSequences(
    size_t group_idx, const std::vector<std::vector<Code>>& sequences) {
  if (borrowed_ != nullptr) {
    return borrowed_->AppendRawSequences(group_idx, sequences);
  }
  if (shards_.size() == 1) {
    return shards_[0]->AppendRawSequences(group_idx, sequences);
  }
  // Contiguous blocks stay contiguous when the append lands in the last
  // shard; results never depend on which shard owns a sequence.
  EpochGate::WriteLock wl(gate_);
  Status s = shards_.back()->AppendRawSequences(group_idx, sequences);
  if (!s.ok()) {
    wl.Abandon();
    return s;
  }
  repository_->Clear();
  // The source set is what the monolithic fallback answers from; it must
  // see the rows too. A built fallback appends them itself (under its own
  // gate, extending its cached indices); otherwise the source set grows
  // here, and holding fallback_mu_ keeps a concurrent Monolith() from
  // building over a half-appended group.
  std::lock_guard<std::mutex> lock(fallback_mu_);
  if (fallback_) return fallback_->AppendRawSequences(group_idx, sequences);
  SequenceGroup& group = raw_groups_->groups()[group_idx];
  for (const std::vector<Code>& seq : sequences) group.AddSequence(seq);
  group.InvalidateViews();
  return Status::OK();
}

Status ShardedEngine::IngestRows(const std::vector<std::vector<Value>>& rows,
                                 TraceContext* trace) {
  if (borrowed_ != nullptr) return borrowed_->IngestRows(rows, trace);
  if (mutable_table_ == nullptr) {
    return Status::InvalidArgument(
        "IngestRows requires the mutable-table constructor");
  }
  if (shards_.size() == 1) return shards_[0]->IngestRows(rows, trace);

  TraceSpan span(trace, "ingest.append");
  span.Note("scope", "facade");
  EpochGate::WriteLock wl(gate_);
  if (rows.empty()) {
    wl.Abandon();
    return Status::OK();
  }
  // Commit to the facade (source-of-truth) table first: validate-first
  // Append keeps the batch all-or-nothing, and a later repartition rebuilds
  // consistent slices from here.
  const RowId from_row = static_cast<RowId>(mutable_table_->num_rows());
  Status appended = mutable_table_->Append(rows);
  if (!appended.ok()) {
    wl.Abandon();
    return appended;
  }
  ScanStats local;
  local.ingested_events = rows.size();
  const size_t n = shards_.size();
  const size_t num_fields = mutable_table_->schema().num_fields();

  auto fan_out = [&]() -> Status {
    // New string values got fresh codes in the facade dictionaries; the
    // shard replicas must assign the identical codes before any shard
    // re-encodes the routed rows.
    std::vector<std::vector<RemoteShardClient::DictUpdate>> dict_updates(n);
    for (size_t c = 0; c < num_fields; ++c) {
      const int col = static_cast<int>(c);
      if (mutable_table_->dictionary(col) == nullptr) continue;
      for (size_t s = 0; s < n; ++s) {
        const size_t from = shard_tables_[s]->DictionarySize(col);
        std::vector<std::string> tail =
            mutable_table_->DictionaryTail(col, from);
        if (tail.empty()) continue;
        SOLAP_RETURN_NOT_OK(shard_tables_[s]->SyncDictionary(col, from, tail));
        // Remote replicas start code-identical to the local slice, so the
        // same tail keeps them that way.
        dict_updates[s].push_back({col, from, std::move(tail)});
      }
    }
    // Route each appended row to the shard owning its sequence.
    std::vector<std::vector<std::vector<Value>>> batches(n);
    const size_t end_row = mutable_table_->num_rows();
    for (RowId r = from_row; r < end_row; ++r) {
      const size_t s = ShardOfCode(mutable_table_->CodeAt(r, shard_col_), n);
      std::vector<Value> row;
      row.reserve(num_fields);
      for (size_t c = 0; c < num_fields; ++c) {
        row.push_back(mutable_table_->GetValue(r, static_cast<int>(c)));
      }
      batches[s].push_back(std::move(row));
    }
    for (size_t s = 0; s < n; ++s) {
      if (batches[s].empty()) continue;
      SOLAP_RETURN_NOT_OK(shards_[s]->IngestRows(batches[s], trace));
      // Remote slices must track the local ones or scatters would answer
      // from pre-append data. A failed replication marks the shard
      // degraded: scatters then use the (up-to-date) local executor until
      // the supervisor restores it.
      if (remote_scatter() && s < remote_clients_.size()) {
        Status replicated = remote_clients_[s]->Append(
            batches[s], dict_updates[s], nullptr, trace);
        if (!replicated.ok()) SetShardHealthy(s, false);
      }
    }
    return Status::OK();
  };
  Status fanned = fan_out();
  if (!fanned.ok()) {
    // The facade table holds the batch but some slice does not — rebuild
    // every slice from the source table so shards and facade agree again.
    shards_.clear();
    shard_tables_.clear();
    BuildShards();
    ++local.formation_invalidations;
  }
  // Merged cuboids span all shards; any append staleness invalidates them.
  local.stale_cuboid_invalidations += repository_->size();
  repository_->Clear();
  {
    std::lock_guard<std::mutex> lock(fallback_mu_);
    if (fallback_) fallback_->NotifyTableAppend();
  }
  span.Count("events", rows.size());
  span.Count("epoch", wl.committed_epoch());
  MergeStats(local);
  return fanned;
}

Status ShardedEngine::EvictBefore(const std::string& order_attr,
                                  int64_t cutoff) {
  if (borrowed_ != nullptr) return borrowed_->EvictBefore(order_attr, cutoff);
  if (shards_.size() == 1) return shards_[0]->EvictBefore(order_attr, cutoff);
  EpochGate::WriteLock wl(gate_);
  for (auto& shard : shards_) {
    SOLAP_RETURN_NOT_OK(shard->EvictBefore(order_attr, cutoff));
  }
  {
    std::lock_guard<std::mutex> lock(fallback_mu_);
    if (fallback_) {
      SOLAP_RETURN_NOT_OK(fallback_->EvictBefore(order_attr, cutoff));
    }
  }
  repository_->Clear();
  return Status::OK();
}

uint64_t ShardedEngine::epoch() const {
  if (borrowed_ != nullptr) return borrowed_->epoch();
  if (shards_.size() == 1) return shards_[0]->epoch();
  return gate_.epoch();
}

Status ShardedEngine::MergeDeltasNow(TraceContext* trace) {
  if (borrowed_ != nullptr) return borrowed_->MergeDeltasNow(trace);
  for (auto& shard : shards_) {
    SOLAP_RETURN_NOT_OK(shard->MergeDeltasNow(trace));
  }
  return Status::OK();
}

SOlapEngine::DeltaStats ShardedEngine::DeltaSnapshot() const {
  if (borrowed_ != nullptr) return borrowed_->DeltaSnapshot();
  SOlapEngine::DeltaStats out;
  for (const auto& shard : shards_) {
    const SOlapEngine::DeltaStats s = shard->DeltaSnapshot();
    out.segments += s.segments;
    out.bytes += s.bytes;
  }
  return out;
}

ScanStats& ShardedEngine::stats() {
  if (borrowed_ != nullptr) return borrowed_->stats();
  if (shards_.size() == 1) return shards_[0]->stats();
  return stats_;
}

ScanStats ShardedEngine::StatsSnapshot() const {
  if (borrowed_ != nullptr) return borrowed_->StatsSnapshot();
  if (shards_.size() == 1) return shards_[0]->StatsSnapshot();
  std::lock_guard<std::mutex> lock(stats_mu_);
  return stats_;
}

size_t ShardedEngine::IndexCacheBytes() const {
  if (borrowed_ != nullptr) return borrowed_->IndexCacheBytes();
  size_t total = 0;
  for (const auto& shard : shards_) total += shard->IndexCacheBytes();
  std::lock_guard<std::mutex> lock(fallback_mu_);
  if (fallback_) total += fallback_->IndexCacheBytes();
  return total;
}

size_t ShardedEngine::MemUsed() const {
  if (borrowed_ != nullptr) return borrowed_->governor().used();
  size_t total = 0;
  for (const auto& shard : shards_) total += shard->governor().used();
  std::lock_guard<std::mutex> lock(fallback_mu_);
  if (fallback_) total += fallback_->governor().used();
  return total;
}

size_t ShardedEngine::MemBudget() const {
  if (borrowed_ != nullptr) return borrowed_->governor().budget();
  if (shards_.size() == 1) return shards_[0]->governor().budget();
  return options_.memory_budget_bytes;
}

size_t ShardedEngine::MemRejects() const {
  if (borrowed_ != nullptr) return borrowed_->governor().rejects();
  size_t total = 0;
  for (const auto& shard : shards_) total += shard->governor().rejects();
  std::lock_guard<std::mutex> lock(fallback_mu_);
  if (fallback_) total += fallback_->governor().rejects();
  return total;
}

}  // namespace solap
