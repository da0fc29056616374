// rpc_ingest: two client connections to an in-process rpc::Server on
// loopback in front of a 2-shard ShardRouter with default store options.
// Each client owns one shard (through its tenant) and runs rounds of three
// PutProfile calls with fresh synthetic profiles and one SubmitJob of a
// Table 6.1 job.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <limits>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "common.h"
#include "common/hash.h"
#include "core/evaluator.h"
#include "rpc/client.h"
#include "rpc/server.h"
#include "rpc/shard_router.h"
#include "storage/env.h"
#include "tools/synthetic_corpus.h"

namespace perfbench {
namespace {

constexpr uint32_t kShards = 2;
constexpr int kPutsPerRound = 3;
constexpr char kBasePath[] = "/ingest";
/// Synthetic-corpus index distance between the two clients' puts.
constexpr size_t kClientIndexStride = size_t{1} << 32;

/// A Table 6.1 pair as a remote client submits it: by catalogue name. The
/// server resolves the name to the catalogue job, so the benchmark's own
/// default-configuration run uses that job too.
struct RemoteJob {
  std::string name;
  jobs::BenchmarkJob job;
  mrsim::DataSetSpec data;
};

/// What one client measured and which puts the server acknowledged.
struct ClientLog {
  uint32_t shard = 0;
  std::vector<std::string> acked_keys;
  std::vector<double> put_ms;     // RPC PutProfile round trips
  std::vector<double> submit_ms;  // RPC SubmitJob round trips
  std::vector<double> log_speedups;
  double busy_s = 0;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  uint64_t puts = 0;  // every acknowledged put, RPC or in-process
  double profile_bytes = 0;
  // Traced pass only.
  SpanLog spans;
  std::vector<double> router_put_ms, store_put_ms, submit_overhead_us,
      echo_us;
  LayerStats layer_stats;  // against the in-process router call
};

bool SameAnswer(const rpc::SubmitJobResponse& a,
                const rpc::SubmitJobResponse& b) {
  return a.matched == b.matched && a.composite == b.composite &&
         a.stored_new_profile == b.stored_new_profile &&
         a.profile_source == b.profile_source &&
         a.config_used == b.config_used && a.runtime_s == b.runtime_s &&
         a.sample_runtime_s == b.sample_runtime_s &&
         a.predicted_runtime_s == b.predicted_runtime_s && a.shard == b.shard;
}

/// First "tenant-<k>" the router places on `shard` (deterministic).
std::string TenantFor(const rpc::ShardRouter& router, uint32_t shard) {
  for (int k = 0;; ++k) {
    std::string tenant = "tenant-" + std::to_string(k);
    if (router.ShardFor(tenant) == shard) return tenant;
  }
}

/// The workload's state; its members are the run's shared fixtures.
struct IngestBench {
  IngestBench(const RunOptions& options, Checks* checks)
      : options_(options), checks_(checks) {}

  Status Setup();
  void RunClient(uint32_t c, rpc::Client* client, double deadline,
                 ClientLog* log);

  uint16_t port() const { return server_->port(); }

  Status Put(uint32_t c, rpc::Client* client, size_t index, int kind,
             ClientLog* log);
  void Submit(uint32_t c, rpc::Client* client, uint64_t round,
              ClientLog* log);

  const RunOptions options_;
  Checks* checks_;
  mrsim::Simulator simulator_{mrsim::ThesisCluster()};
  storage::InMemoryEnv env_;
  core::Corpus corpus_;
  std::vector<RemoteJob> remote_jobs_;
  std::unique_ptr<tools::SyntheticCorpus> synthetic_;
  std::unique_ptr<rpc::ShardRouter> router_;
  std::unique_ptr<rpc::Server> server_;
  std::vector<std::string> tenants_;
  size_t put_base_ = 0;
};

Status IngestBench::Setup() {
  PSTORM_ASSIGN_OR_RETURN(
      corpus_, core::BuildEvaluationCorpus(simulator_, mrsim::Configuration{},
                                           kCorpusSeed));
  const std::vector<jobs::BenchmarkJob> catalogue = jobs::AllBenchmarkJobs();
  for (const core::CorpusItem& item : corpus_.items) {
    const std::string& name = item.entry.job.spec.name;
    const auto it = std::find_if(
        catalogue.begin(), catalogue.end(),
        [&](const jobs::BenchmarkJob& j) { return j.spec.name == name; });
    if (it == catalogue.end()) return Status::NotFound(name);
    remote_jobs_.push_back(RemoteJob{name, *it, item.data});
  }
  tools::SyntheticCorpusOptions synth_options;
  synth_options.seed = kSyntheticSeed;
  synth_options.num_profiles = std::numeric_limits<size_t>::max();
  synthetic_ = std::make_unique<tools::SyntheticCorpus>(synth_options);
  // Which synthetic profiles get ingested depends on the run's seed.
  put_base_ = static_cast<size_t>(Mix64(options_.seed) >> 36) << 24;

  rpc::ShardRouterOptions router_options;
  router_options.num_shards = kShards;
  PSTORM_ASSIGN_OR_RETURN(router_,
                          rpc::ShardRouter::Create(&simulator_, &env_,
                                                   kBasePath, router_options));
  for (uint32_t s = 0; s < kShards; ++s) {
    for (const core::CorpusItem& item : corpus_.items) {
      PSTORM_RETURN_IF_ERROR(
          router_->shard(s).AddProfile(item.job_key, item.complete,
                                       item.statics));
    }
    tenants_.push_back(TenantFor(*router_, s));
  }
  PSTORM_ASSIGN_OR_RETURN(server_, rpc::Server::Start(router_.get()));
  return Status::OK();
}

/// kind 0: RPC put (the measured one); traced pass only: 1 = in-process
/// ShardRouter::PutProfile, 2 = ProfileStore::PutProfile.
Status IngestBench::Put(uint32_t c, rpc::Client* client, size_t index,
                        int kind, ClientLog* log) {
  const tools::SyntheticProfile p = synthetic_->Make(index);
  rpc::PutProfileRequest request;
  request.tenant = tenants_[c];
  request.job_key = p.job_key;
  request.profile_text = p.profile.Serialize();
  request.statics = p.statics;
  static constexpr const char* kSpanNames[] = {"rpc.put", "router.put",
                                               "profile_store.put"};
  const size_t span =
      options_.trace ? log->spans.Begin(index, kSpanNames[kind]) : 0;
  const double t0 = NowSeconds();
  Status s;
  if (kind == 0) {
    s = client->PutProfile(request);
  } else if (kind == 1) {
    s = router_->PutProfile(request);
  } else {
    s = router_->shard(log->shard).store().PutProfile(p.job_key, p.profile,
                                                      p.statics);
  }
  const double dt = NowSeconds() - t0;
  if (options_.trace) log->spans.End(span);
  if (!s.ok()) return s;
  log->acked_keys.push_back(p.job_key);
  ++log->puts;
  log->profile_bytes += static_cast<double>(request.profile_text.size());
  if (kind == 0) {
    log->busy_s += dt;
    log->put_ms.push_back(dt * 1e3);
  } else if (kind == 1) {
    log->router_put_ms.push_back(dt * 1e3);
  } else {
    log->store_put_ms.push_back(dt * 1e3);
  }
  return Status::OK();
}

void IngestBench::Submit(uint32_t c, rpc::Client* client, uint64_t round,
                         ClientLog* log) {
  const size_t j = (c * remote_jobs_.size() / kShards + round) %
                   remote_jobs_.size();
  const RemoteJob& remote = remote_jobs_[j];
  rpc::SubmitJobRequest request;
  request.tenant = tenants_[c];
  request.job_name = remote.name;
  request.data = remote.data;
  request.seed = SubmissionSeed(options_.seed, (uint64_t{c} << 40) | round);
  const uint64_t id = (uint64_t{c} << 40) | round;

  ++log->attempted;
  size_t span = options_.trace ? log->spans.Begin(id, "rpc.submit") : 0;
  double t0 = NowSeconds();
  Result<rpc::SubmitJobResponse> remote_answer = client->SubmitJob(request);
  const double rpc_s = NowSeconds() - t0;
  if (options_.trace) log->spans.End(span);
  if (!remote_answer.ok()) {
    ++log->failed;
    std::fprintf(stderr, "RPC SubmitJob %s failed: %s\n", remote.name.c_str(),
                 remote_answer.status().ToString().c_str());
    return;
  }
  log->busy_s += rpc_s;
  log->submit_ms.push_back(rpc_s * 1e3);

  // The same request served in-process by the router must give the same
  // answer (this client is the only writer of its shard).
  rpc::SubmitJobRequest replay = request;
  if (options_.inject == Inject::kReplaySeed) ++replay.seed;
  span = options_.trace ? log->spans.Begin(id, "router.submit") : 0;
  t0 = NowSeconds();
  Result<rpc::SubmitJobResponse> local_answer = router_->SubmitJob(replay);
  const double local_s = NowSeconds() - t0;
  if (options_.trace) log->spans.End(span);
  checks_->Expect(local_answer.ok() && SameAnswer(*remote_answer,
                                                  *local_answer),
                  remote.name + ": RPC answer differs from the in-process "
                                "replay on the router");
  checks_->Expect(remote_answer->shard == log->shard,
                  remote.name + ": served by the wrong shard");

  Result<double> baseline =
      options_.inject == Inject::kDefaultRuntimeTuned
          ? Result<double>(remote_answer->runtime_s)
          : DefaultRuntime(simulator_, remote.job, remote.data, request.seed);
  checks_->Expect(baseline.ok(), remote.name + " default-configuration run");
  if (baseline.ok() && remote_answer->runtime_s > 0) {
    log->log_speedups.push_back(std::log(*baseline / remote_answer->runtime_s));
  }
  if (!options_.trace) return;

  // The first RPC call met the block and entry caches cold after this
  // round's puts; the replay found them warm. The wire's share is taken
  // between two warm calls: the replay and a second RPC submission.
  ++log->attempted;
  span = log->spans.Begin(id, "rpc.submit_warm");
  t0 = NowSeconds();
  Result<rpc::SubmitJobResponse> warm_answer = client->SubmitJob(request);
  const double warm_s = NowSeconds() - t0;
  log->spans.End(span);
  if (!warm_answer.ok()) {
    ++log->failed;
    std::fprintf(stderr, "RPC SubmitJob %s failed: %s\n", remote.name.c_str(),
                 warm_answer.status().ToString().c_str());
    return;
  }
  checks_->Expect(SameAnswer(*remote_answer, *warm_answer),
                  remote.name + ": repeated RPC submission answered "
                                "differently");
  log->submit_overhead_us.push_back((warm_s - local_s) * 1e6);
  if (!remote_answer->matched) return;  // nothing for the pipeline to redo
  const Layers layers{&simulator_, &router_->shard(log->shard).store(),
                      core::PStormOptions{}};
  const uint64_t salt = options_.inject == Inject::kPipelineSeed
                            ? kRunSeedSalt + 1
                            : kRunSeedSalt;
  Result<PipelineResult> p = RunPipeline(layers, remote.job, remote.data,
                                         request.seed, salt, &log->spans, id);
  if (!p.ok()) {
    checks_->Expect(false, "layer pipeline for " + remote.name + ": " +
                               p.status().ToString());
    return;
  }
  checks_->Expect(p->recommendation.config == remote_answer->config_used &&
                      p->runtime_s == remote_answer->runtime_s,
                  remote.name + ": layer pipeline disagrees with SubmitJob");
  log->layer_stats.Add(*p, local_s);

  span = log->spans.Begin(id, "rpc.echo");
  t0 = NowSeconds();
  Result<std::string> echoed = client->Echo(std::string(64, 'e'));
  log->echo_us.push_back((NowSeconds() - t0) * 1e6);
  log->spans.End(span);
  checks_->Expect(echoed.ok() && *echoed == std::string(64, 'e'),
                  "Echo round trip");
}

void IngestBench::RunClient(uint32_t c, rpc::Client* client, double deadline,
                            ClientLog* log) {
  log->shard = c;
  size_t next = put_base_ + c * kClientIndexStride;
  uint64_t round = 0;
  // Whole rounds until the deadline: puts, then one submission.
  do {
    for (int k = 0; k < kPutsPerRound; ++k) {
      // The traced pass spreads the three puts over the three put paths.
      const int kind = options_.trace ? k : 0;
      ++log->attempted;
      if (Status s = Put(c, client, next++, kind, log); !s.ok()) {
        ++log->failed;
        std::fprintf(stderr, "PutProfile failed: %s\n", s.ToString().c_str());
      }
    }
    Submit(c, client, round++, log);
  } while (NowSeconds() < deadline);
}

std::vector<double> Concat(const std::vector<ClientLog>& logs,
                           std::vector<double> ClientLog::*field) {
  std::vector<double> all;
  for (const ClientLog& log : logs) {
    all.insert(all.end(), (log.*field).begin(), (log.*field).end());
  }
  return all;
}

}  // namespace

RunResult RunIngest(const RunOptions& options, Checks* checks) {
  RunResult result;
  IngestBench bench(options, checks);
  if (Status s = bench.Setup(); !s.ok()) {
    checks->Expect(false, "set-up: " + s.ToString());
    return result;
  }
  std::vector<std::unique_ptr<rpc::Client>> clients;
  for (uint32_t c = 0; c < kShards; ++c) {
    Result<std::unique_ptr<rpc::Client>> client =
        rpc::Client::Connect("127.0.0.1", bench.port());
    if (!client.ok()) {
      checks->Expect(false, "connect: " + client.status().ToString());
      return result;
    }
    clients.push_back(std::move(client).value());
  }
  const double setup_s = SecondsSinceStart();

  std::vector<const core::ProfileStore*> stores;
  for (uint32_t s = 0; s < kShards; ++s) {
    stores.push_back(&bench.router_->shard(s).store());
  }
  const StorageSnapshot before = TakeSnapshot(stores);
  std::vector<ClientLog> logs(kShards);
  const double deadline = NowSeconds() + options.seconds;
  {
    std::vector<std::thread> threads;
    for (uint32_t c = 0; c < kShards; ++c) {
      threads.emplace_back([&, c] {
        bench.RunClient(c, clients[c].get(), deadline, &logs[c]);
      });
    }
    for (std::thread& t : threads) t.join();
  }
  const StorageSnapshot after = TakeSnapshot(stores);

  // Per-shard profile counts: the 54 real profiles plus every put the
  // store acknowledged on that shard; no request was turned away.
  if (options.inject == Inject::kDropAckedPut &&
      !logs[0].acked_keys.empty()) {
    logs[0].acked_keys.pop_back();
  }
  const size_t real = bench.corpus_.items.size();
  Result<rpc::GetStatsResponse> stats = clients[0]->GetStats();
  checks->Expect(stats.ok(), "GetStats");
  if (stats.ok()) {
    checks->Expect(stats->shards.size() == kShards, "GetStats shard count");
    for (const rpc::ShardStatsEntry& shard : stats->shards) {
      if (shard.shard >= kShards) continue;
      const uint64_t expected = real + logs[shard.shard].acked_keys.size();
      checks->Expect(shard.num_profiles == expected,
                     "shard " + std::to_string(shard.shard) + " holds " +
                         std::to_string(shard.num_profiles) +
                         " profiles, expected " + std::to_string(expected));
    }
    checks->Expect(stats->backpressure_rejections == 0 &&
                       stats->quota_rejections == 0,
                   "requests were turned away");
  }
  for (auto& client : clients) client->Close();
  bench.server_->Stop();
  bench.server_.reset();
  bench.router_.reset();

  // Reopen each shard from the same Env: every acknowledged key is listed,
  // and nothing else beyond the real profiles.
  double reopen_s = 0;
  for (uint32_t s = 0; s < kShards; ++s) {
    const double t0 = NowSeconds();
    Result<std::unique_ptr<core::PStorM>> shard = core::PStorM::Create(
        &bench.simulator_, &bench.env_,
        storage::JoinPath(kBasePath, "shard-" + std::to_string(s)));
    reopen_s += NowSeconds() - t0;
    checks->Expect(shard.ok(), "reopen shard " + std::to_string(s));
    if (!shard.ok()) continue;
    Result<std::vector<std::string>> listed = (*shard)->store().ListJobKeys();
    checks->Expect(listed.ok(), "list shard " + std::to_string(s));
    if (!listed.ok()) continue;
    std::set<std::string> expected(logs[s].acked_keys.begin(),
                                   logs[s].acked_keys.end());
    for (const core::CorpusItem& item : bench.corpus_.items) {
      expected.insert(item.job_key);
    }
    const std::set<std::string> got(listed->begin(), listed->end());
    checks->Expect(got == expected,
                   "shard " + std::to_string(s) + " lists " +
                       std::to_string(got.size()) + " keys after reopen, " +
                       "expected " + std::to_string(expected.size()));
  }

  std::vector<double> log_speedups = Concat(logs, &ClientLog::log_speedups);
  const double speedup = std::exp(Mean(log_speedups));
  checks->Expect(speedup > 1.0, "tuning speedup " + std::to_string(speedup) +
                                    " is not above 1 (Fig. 6.3)");
  double ops_per_s = 0;
  uint64_t puts = 0;
  double profile_bytes = 0;
  for (const ClientLog& log : logs) {
    result.attempted += log.attempted;
    result.failed += log.failed;
    puts += log.puts;
    profile_bytes += log.profile_bytes;
    if (log.busy_s > 0) {
      ops_per_s +=
          static_cast<double>(log.put_ms.size() + log.submit_ms.size()) /
          log.busy_s;
    }
  }
  const std::vector<double> submit_ms = Concat(logs, &ClientLog::submit_ms);
  const std::vector<double> put_ms = Concat(logs, &ClientLog::put_ms);

  std::vector<Metric>& m = result.metrics;
  if (!options.trace) {
    m.push_back({"setup_s", setup_s, "s"});
    m.push_back({"submit_ms", Median(submit_ms), "ms"});
    m.push_back({"ops_per_s", ops_per_s, "1/s"});
    m.push_back({"tuning_speedup", speedup, "x"});
    return result;
  }

  LayerStats layer_stats;
  SpanLog spans;
  for (const ClientLog& log : logs) {
    layer_stats.Merge(log.layer_stats);
    spans.Append(log.spans);
  }
  layer_stats.AppendMetrics(&m, checks);
  m.push_back({"profile_store.put_ms",
               Median(Concat(logs, &ClientLog::store_put_ms)), "ms"});
  AddStorageMetrics(before, after, puts, profile_bytes, before, after, &m);
  m.push_back({"rpc.put_ms", Median(put_ms), "ms"});
  m.push_back({"rpc.echo_us", Median(Concat(logs, &ClientLog::echo_us)), "us"});
  m.push_back({"rpc.submit_overhead_us",
               Median(Concat(logs, &ClientLog::submit_overhead_us)), "us"});
  m.push_back({"rpc.put_overhead_us",
               (Median(put_ms) - Median(Concat(logs, &ClientLog::router_put_ms))) *
                   1e3,
               "us"});
  m.push_back({"core.reopen_s", reopen_s, "s"});
  WriteTraceOutputs(options, spans, checks);
  return result;
}

}  // namespace perfbench
