// sd_serving and scale_serving: matched SubmitJob calls from one client
// thread against an in-process PStorM whose store holds the Table 6.1
// corpus (plus, for scale_serving, a bulk-loaded synthetic corpus).

#include <cmath>
#include <cstdio>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common.h"
#include "core/evaluator.h"
#include "storage/env.h"
#include "tools/synthetic_corpus.h"

namespace perfbench {
namespace {

/// Synthetic profiles scale_serving adds to the 54 real ones.
constexpr size_t kScaleSyntheticProfiles = 2000;
/// Untimed submissions between set-up and the measured phase.
constexpr size_t kWarmupSubmissions = 10;
/// Warm-up submission w uses seed SubmissionSeed(seed, kWarmupIndexBase + w),
/// apart from every measured submission's.
constexpr uint64_t kWarmupIndexBase = uint64_t{1} << 48;

struct ServingState {
  mrsim::Simulator simulator{mrsim::ThesisCluster()};
  storage::InMemoryEnv env;
  core::Corpus corpus;
  std::unique_ptr<core::PStorM> pstorm;
  // Set-up load: per-put latencies and storage counters around it.
  std::vector<double> load_put_ms;
  StorageSnapshot load_before;
  StorageSnapshot load_after;
  double load_profile_bytes = 0;
  double reopen_s = 0;
};

Status Setup(const RunOptions& options, ServingState* state) {
  PSTORM_ASSIGN_OR_RETURN(
      state->corpus, core::BuildEvaluationCorpus(
                         state->simulator, mrsim::Configuration{},
                         kCorpusSeed));
  const bool scale = options.workload == "scale_serving";
  core::PStormOptions load_options;
  // Bulk load: one Flush at the end instead of one per put.
  if (scale) load_options.store.eager_flush = false;
  PSTORM_ASSIGN_OR_RETURN(
      std::unique_ptr<core::PStorM> loader,
      core::PStorM::Create(&state->simulator, &state->env, "/serving",
                           load_options));
  state->load_before = TakeSnapshot({&loader->store()});
  auto put = [&](const std::string& key,
                 const profiler::ExecutionProfile& profile,
                 const staticanalysis::StaticFeatures& statics) -> Status {
    state->load_profile_bytes += static_cast<double>(profile.Serialize().size());
    const double t0 = NowSeconds();
    Status s = loader->AddProfile(key, profile, statics);
    state->load_put_ms.push_back((NowSeconds() - t0) * 1e3);
    return s;
  };
  for (const core::CorpusItem& item : state->corpus.items) {
    PSTORM_RETURN_IF_ERROR(put(item.job_key, item.complete, item.statics));
  }
  if (!scale) {
    state->load_after = TakeSnapshot({&loader->store()});
    state->pstorm = std::move(loader);
    return Status::OK();
  }
  tools::SyntheticCorpusOptions synth_options;
  synth_options.seed = kSyntheticSeed;
  synth_options.num_profiles = kScaleSyntheticProfiles;
  const tools::SyntheticCorpus synthetic(synth_options);
  for (size_t i = 0; i < synthetic.size(); ++i) {
    const tools::SyntheticProfile p = synthetic.Make(i);
    PSTORM_RETURN_IF_ERROR(put(p.job_key, p.profile, p.statics));
  }
  PSTORM_RETURN_IF_ERROR(loader->store().Flush());
  state->load_after = TakeSnapshot({&loader->store()});
  loader.reset();
  // Serving reopens the bulk-loaded store with default options: Db open
  // plus the match-index rebuild.
  const double t0 = NowSeconds();
  PSTORM_ASSIGN_OR_RETURN(
      state->pstorm,
      core::PStorM::Create(&state->simulator, &state->env, "/serving"));
  state->reopen_s = NowSeconds() - t0;
  return Status::OK();
}

/// Facts about each submitted pair known without asking the program: the
/// key it must match (its own, the SD state) and the what-if prediction of
/// the default configuration on that stored profile.
struct Expectations {
  std::vector<std::string> keys;
  std::vector<double> default_predicted_s;
};

Result<Expectations> MakeExpectations(const ServingState& state,
                                      Inject inject) {
  const whatif::WhatIfEngine engine(state.simulator.cluster());
  Expectations e;
  for (const core::CorpusItem& item : state.corpus.items) {
    e.keys.push_back(item.job_key);
    PSTORM_ASSIGN_OR_RETURN(
        whatif::Prediction p,
        engine.Predict(item.complete, item.data, mrsim::Configuration{}));
    e.default_predicted_s.push_back(
        inject == Inject::kDefaultPredictHalved ? p.runtime_s * 0.5
                                                : p.runtime_s);
  }
  if (inject == Inject::kSwapExpectedKeys) std::swap(e.keys[0], e.keys[1]);
  return e;
}

/// The checks every submission must pass; returns log(default / tuned)
/// for the speedup mean (0 when the baseline run failed).
double CheckOutcome(const ServingState& state, const Expectations& expect,
                    size_t i, uint64_t seed,
                    const core::PStorM::SubmissionOutcome& out, Inject inject,
                    Checks* checks) {
  const core::CorpusItem& item = state.corpus.items[i];
  checks->Expect(out.matched && !out.composite &&
                     out.profile_source == expect.keys[i],
                 item.job_key + " matched '" + out.profile_source +
                     "', expected its own profile '" + expect.keys[i] + "'");
  checks->Expect(out.predicted_runtime_s <= expect.default_predicted_s[i],
                 item.job_key + " recommendation predicted " +
                     std::to_string(out.predicted_runtime_s) +
                     " s, worse than the default configuration's " +
                     std::to_string(expect.default_predicted_s[i]) + " s");
  Result<double> baseline =
      inject == Inject::kDefaultRuntimeTuned
          ? Result<double>(out.runtime_s)
          : DefaultRuntime(state.simulator, item.entry.job, item.data, seed);
  checks->Expect(baseline.ok(), item.job_key + " default-configuration run");
  if (!baseline.ok() || !(out.runtime_s > 0)) return 0;
  return std::log(*baseline / out.runtime_s);
}

}  // namespace

RunResult RunServing(const RunOptions& options, Checks* checks) {
  RunResult result;
  ServingState state;
  if (Status s = Setup(options, &state); !s.ok()) {
    checks->Expect(false, "set-up: " + s.ToString());
    return result;
  }
  Result<Expectations> expect = MakeExpectations(state, options.inject);
  if (!expect.ok()) {
    checks->Expect(false, "expectations: " + expect.status().ToString());
    return result;
  }
  const double setup_s = SecondsSinceStart();
  const size_t pairs = state.corpus.items.size();
  const mrsim::Configuration submitted;

  // Warm-up: the first pairs once each, checked but neither timed nor
  // counted, so the measured phase starts with code and caches warm.
  for (size_t w = 0; w < kWarmupSubmissions && w < pairs; ++w) {
    const core::CorpusItem& item = state.corpus.items[w];
    const uint64_t seed = SubmissionSeed(options.seed, kWarmupIndexBase + w);
    Result<core::PStorM::SubmissionOutcome> out =
        state.pstorm->SubmitJob(item.entry.job, item.data, submitted, seed);
    checks->Expect(out.ok(), "warm-up SubmitJob " + item.job_key);
    if (out.ok()) {
      CheckOutcome(state, *expect, w, seed, *out, options.inject, checks);
    }
  }

  std::vector<double> submit_ms;
  std::vector<double> log_speedups;
  double busy_s = 0;
  uint64_t index = 0;

  // Traced pass only.
  SpanLog spans;
  const Layers layers{&state.simulator, &state.pstorm->store(),
                      core::PStormOptions{}};
  LayerStats layer_stats;

  const StorageSnapshot read_before = TakeSnapshot({&state.pstorm->store()});
  const double start = NowSeconds();
  // Whole rounds over all pairs, until the run length is reached.
  do {
    for (size_t i = 0; i < pairs; ++i) {
      const core::CorpusItem& item = state.corpus.items[i];
      const uint64_t seed = SubmissionSeed(options.seed, index++);
      ++result.attempted;
      obs::SubmissionTrace program_trace;
      const size_t span =
          options.trace ? spans.Begin(index, "core.submit_job") : 0;
      const double t0 = NowSeconds();
      Result<core::PStorM::SubmissionOutcome> out = state.pstorm->SubmitJob(
          item.entry.job, item.data, submitted, seed,
          options.trace ? &program_trace : nullptr);
      const double dt = NowSeconds() - t0;
      if (options.trace) spans.End(span);
      if (!out.ok()) {
        ++result.failed;
        std::fprintf(stderr, "SubmitJob %s failed: %s\n",
                     item.job_key.c_str(), out.status().ToString().c_str());
        continue;
      }
      busy_s += dt;
      submit_ms.push_back(dt * 1e3);
      log_speedups.push_back(CheckOutcome(state, *expect, i, seed, *out,
                                          options.inject, checks));
      if (!options.trace) continue;

      const uint64_t salt = options.inject == Inject::kPipelineSeed
                                ? kRunSeedSalt + 1
                                : kRunSeedSalt;
      Result<PipelineResult> p = RunPipeline(layers, item.entry.job,
                                             item.data, seed, salt, &spans,
                                             index);
      if (!p.ok()) {
        checks->Expect(false, "layer pipeline for " + item.job_key + ": " +
                                  p.status().ToString());
        continue;
      }
      checks->Expect(p->recommendation.config == out->config_used &&
                         p->runtime_s == out->runtime_s &&
                         p->recommendation.predicted_runtime_s ==
                             out->predicted_runtime_s,
                     item.job_key +
                         ": layer pipeline disagrees with SubmitJob");
      checks->Expect(p->match.map_source == expect->keys[i] &&
                         p->match.reduce_source == expect->keys[i],
                     item.job_key + ": pipeline matched map '" +
                         p->match.map_source + "' reduce '" +
                         p->match.reduce_source + "'");
      layer_stats.Add(*p, dt);
    }
  } while (NowSeconds() - start < options.seconds);
  const StorageSnapshot read_after = TakeSnapshot({&state.pstorm->store()});

  const double speedup = std::exp(Mean(log_speedups));
  checks->Expect(speedup > 1.0, "tuning speedup " + std::to_string(speedup) +
                                    " is not above 1 (Fig. 6.3)");

  std::vector<Metric>& m = result.metrics;
  if (!options.trace) {
    m.push_back({"setup_s", setup_s, "s"});
    m.push_back({"submit_ms", Median(submit_ms), "ms"});
    m.push_back({"ops_per_s",
                 static_cast<double>(submit_ms.size()) / busy_s, "1/s"});
    m.push_back({"tuning_speedup", speedup, "x"});
    return result;
  }

  layer_stats.AppendMetrics(&m, checks);
  // Serving workloads write only during set-up: the put metrics describe
  // that load.
  m.push_back({"profile_store.put_ms", Median(state.load_put_ms), "ms"});
  AddStorageMetrics(state.load_before, state.load_after,
                    state.load_put_ms.size(), state.load_profile_bytes,
                    read_before, read_after, &m);
  m.push_back({"rpc.put_ms", 0.0, "ms"});
  m.push_back({"rpc.echo_us", 0.0, "us"});
  m.push_back({"rpc.submit_overhead_us", 0.0, "us"});
  m.push_back({"rpc.put_overhead_us", 0.0, "us"});
  m.push_back({"core.reopen_s", state.reopen_s, "s"});
  WriteTraceOutputs(options, spans, checks);
  return result;
}

}  // namespace perfbench
