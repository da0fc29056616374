// Shared pieces of the submission benchmark: run options, the result
// record, the correctness-check ledger, in-memory spans, the hand-composed
// layer pipeline, and small statistics helpers.

#ifndef PERFBENCH_COMMON_H_
#define PERFBENCH_COMMON_H_

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "common/result.h"
#include "core/matcher.h"
#include "core/profile_store.h"
#include "core/pstorm.h"
#include "jobs/benchmark_jobs.h"
#include "mrsim/simulator.h"
#include "obs/trace.h"
#include "optimizer/cbo.h"
#include "profiler/profiler.h"
#include "storage/db.h"
#include "whatif/whatif_engine.h"

namespace perfbench {

using namespace pstorm;

/// Seed of the Table 6.1 evaluation corpus (the store content of every
/// workload). Fixed: the benchmark's --seed drives the submissions and the
/// ingested profiles, not the stored corpus.
inline constexpr uint64_t kCorpusSeed = 19;
/// Seed of the synthetic corpus (scale_serving's extra profiles and
/// rpc_ingest's fresh puts).
inline constexpr uint64_t kSyntheticSeed = 42;
/// The run seed PStorM::SubmitJob derives from the submission seed.
inline constexpr uint64_t kRunSeedSalt = 0x72756eULL;
/// Traced pass: the layer calls' times must sum to SubmitJob's time within
/// this share of it (medians over the run's submissions).
inline constexpr double kLayerSumTolerance = 0.10;

/// Wrong expectations the self-test feeds the checks (see README).
enum class Inject {
  kNone,
  kSwapExpectedKeys,      // serving: two expected job keys swapped
  kDefaultRuntimeTuned,   // speedup baseline run with the tuned config
  kDefaultPredictHalved,  // predicted-runtime bound halved
  kPipelineSeed,          // traced pass: pipeline run seed off by one
  kReplaySeed,            // rpc_ingest: in-process replay with another seed
  kDropAckedPut,          // rpc_ingest: one acked put left out of the keys
};

struct RunOptions {
  std::string workload;
  uint64_t seed = 1;
  int seconds = 10;
  bool trace = false;
  std::string out_dir;  // spans and metrics dump of the traced pass
  Inject inject = Inject::kNone;
};

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

struct RunResult {
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<Metric> metrics;
};

/// Collects failed correctness checks; the first few are reported on
/// stderr.
class Checks {
 public:
  void Expect(bool ok, const std::string& what);
  bool all_passed() const { return failures_ == 0; }
  uint64_t failures() const { return failures_; }

 private:
  uint64_t failures_ = 0;
};

/// Seconds since the benchmark process entered main() (set-up is timed
/// from there).
double SecondsSinceStart();
void MarkProcessStart();

inline double NowSeconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Distinct, reproducible seed of submission `index` of a run.
uint64_t SubmissionSeed(uint64_t bench_seed, uint64_t index);

double Median(std::vector<double> values);
/// Linear-interpolated quantile, q in [0, 1].
double Quantile(std::vector<double> values, double q);
double Mean(const std::vector<double>& values);

/// In-memory span log: one record per timed layer call. Spans of one
/// submission share a request id; children name their parent span. Written
/// out once, at the end of the run.
class SpanLog {
 public:
  size_t Begin(uint64_t request, const char* name, int64_t parent = -1);
  /// Closes span `id` and returns its duration in seconds.
  double End(size_t id);
  void Append(const SpanLog& other);
  /// One JSON object per line, plus a trailing summary line of per-name
  /// median self times (span time not covered by its children).
  bool WriteJsonl(const std::string& path) const;

 private:
  struct Record {
    uint64_t request;
    std::string name;
    int64_t parent;
    double start_s;
    double end_s;
  };
  std::vector<Record> records_;
};

/// The layers PStorM::SubmitJob calls, composed by hand so each call can
/// be timed on its own.
struct Layers {
  const mrsim::Simulator* simulator;
  const core::ProfileStore* store;
  core::PStormOptions options;
};

struct PipelineResult {
  core::MatchResult match;
  optimizer::CostBasedOptimizer::Recommendation recommendation;
  double runtime_s = 0;
  obs::SubmissionTrace trace;
  // Wall time of each layer call, seconds.
  double sample_s = 0;
  double extract_s = 0;
  double match_s = 0;
  double cbo_s = 0;
  double run_s = 0;
  double layer_sum_s() const {
    return sample_s + extract_s + match_s + cbo_s + run_s;
  }
};

/// Profiler::ProfileOneTask -> ExtractStaticFeatures + BuildFeatureVector
/// -> MultiStageMatcher::Match -> CostBasedOptimizer::Optimize ->
/// Simulator::RunJob, in SubmitJob's order and with its seeds. Fails with
/// NotFound when the matcher finds nothing (every benchmark submission is
/// expected to match). Records a root span and one child per layer.
Result<PipelineResult> RunPipeline(const Layers& layers,
                                   const jobs::BenchmarkJob& job,
                                   const mrsim::DataSetSpec& data,
                                   uint64_t seed, uint64_t run_seed_salt,
                                   SpanLog* spans, uint64_t request);

/// Per-submission samples of the traced pass, for the layer metrics that
/// every workload reports the same way.
struct LayerStats {
  std::vector<double> submit_ms, unaccounted_ms, sample_ms, extract_ms,
      match_ms, cbo_ms, run_ms, us_per_candidate, dynamic_out, cfg_out,
      rows_scanned, candidates;
  uint64_t entry_hits = 0, entry_gets = 0, cache_hits = 0, cache_lookups = 0;

  /// Records one pipeline run next to the SubmitJob call (`submit_s`) it
  /// reproduced.
  void Add(const PipelineResult& p, double submit_s);
  void Merge(const LayerStats& other);
  /// Appends the layers.* to mrsim.* metrics and checks that the layer
  /// calls add up to SubmitJob within kLayerSumTolerance.
  void AppendMetrics(std::vector<Metric>* metrics, Checks* checks) const;
};

/// Writes the traced pass's spans and the metrics registry dump under
/// options.out_dir (nothing when it is empty).
void WriteTraceOutputs(const RunOptions& options, const SpanLog& spans,
                       Checks* checks);

/// Simulated runtime of `job` under the default configuration with the run
/// seed SubmitJob uses for submission seed `seed`.
Result<double> DefaultRuntime(const mrsim::Simulator& simulator,
                              const jobs::BenchmarkJob& job,
                              const mrsim::DataSetSpec& data, uint64_t seed);

/// Per-put storage counters over a span of the run (deltas of
/// ProfileStore::StorageStats summed over stores, plus the global block
/// cache counters).
struct StorageSnapshot {
  storage::DbStats db;
  uint64_t block_cache_hits = 0;
  uint64_t block_cache_misses = 0;
};
StorageSnapshot TakeSnapshot(const std::vector<const core::ProfileStore*>&);

/// Appends the storage.* per-layer metrics for `puts` puts carrying
/// `profile_bytes` serialized profile bytes between `before` and `after`;
/// the block cache ratio is taken over `read_before`..`read_after`.
void AddStorageMetrics(const StorageSnapshot& before,
                       const StorageSnapshot& after, uint64_t puts,
                       double profile_bytes,
                       const StorageSnapshot& read_before,
                       const StorageSnapshot& read_after,
                       std::vector<Metric>* metrics);

RunResult RunServing(const RunOptions& options, Checks* checks);
RunResult RunIngest(const RunOptions& options, Checks* checks);

}  // namespace perfbench

#endif  // PERFBENCH_COMMON_H_
