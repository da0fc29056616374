#include "common.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <map>
#include <numeric>

#include "common/hash.h"
#include "core/feature_vector.h"
#include "obs/metrics.h"
#include "staticanalysis/features.h"

namespace perfbench {

namespace {
double g_process_start_s = 0;
constexpr int kMaxReportedFailures = 10;

bool WriteMetricsDump(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  const std::string dump = obs::MetricsRegistry::Global().Dump();
  std::fwrite(dump.data(), 1, dump.size(), f);
  return std::fclose(f) == 0;
}

}  // namespace

void Checks::Expect(bool ok, const std::string& what) {
  if (ok) return;
  if (failures_ < kMaxReportedFailures) {
    std::fprintf(stderr, "CHECK FAILED: %s\n", what.c_str());
  }
  ++failures_;
}

void MarkProcessStart() { g_process_start_s = NowSeconds(); }

double SecondsSinceStart() { return NowSeconds() - g_process_start_s; }

uint64_t SubmissionSeed(uint64_t bench_seed, uint64_t index) {
  return HashCombine(Mix64(bench_seed), index);
}

double Median(std::vector<double> values) { return Quantile(values, 0.5); }

double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const size_t lo = static_cast<size_t>(std::floor(pos));
  const size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

double Mean(const std::vector<double>& values) {
  if (values.empty()) return 0;
  return std::accumulate(values.begin(), values.end(), 0.0) /
         static_cast<double>(values.size());
}

size_t SpanLog::Begin(uint64_t request, const char* name, int64_t parent) {
  records_.push_back(Record{request, name, parent, NowSeconds(), 0});
  return records_.size() - 1;
}

double SpanLog::End(size_t id) {
  Record& r = records_[id];
  r.end_s = NowSeconds();
  return r.end_s - r.start_s;
}

void SpanLog::Append(const SpanLog& other) {
  const int64_t offset = static_cast<int64_t>(records_.size());
  for (Record r : other.records_) {
    if (r.parent >= 0) r.parent += offset;
    records_.push_back(std::move(r));
  }
}

bool SpanLog::WriteJsonl(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::vector<double> child_s(records_.size(), 0.0);
  for (const Record& r : records_) {
    if (r.parent >= 0) child_s[r.parent] += r.end_s - r.start_s;
  }
  const double t0 = records_.empty() ? 0 : records_.front().start_s;
  std::map<std::string, std::vector<double>> self_ms;
  for (size_t i = 0; i < records_.size(); ++i) {
    const Record& r = records_[i];
    const double self = (r.end_s - r.start_s) - child_s[i];
    self_ms[r.name].push_back(self * 1e3);
    std::fprintf(f,
                 "{\"id\": %zu, \"request\": %llu, \"name\": \"%s\", "
                 "\"parent\": %lld, \"start_us\": %.3f, \"end_us\": %.3f, "
                 "\"self_us\": %.3f}\n",
                 i, static_cast<unsigned long long>(r.request),
                 r.name.c_str(), static_cast<long long>(r.parent),
                 (r.start_s - t0) * 1e6, (r.end_s - t0) * 1e6, self * 1e6);
  }
  std::fprintf(f, "{\"summary\": \"median self time, ms\"");
  for (const auto& [name, values] : self_ms) {
    std::fprintf(f, ", \"%s\": %.6f", name.c_str(), Median(values));
  }
  std::fprintf(f, "}\n");
  return std::fclose(f) == 0;
}

Result<PipelineResult> RunPipeline(const Layers& layers,
                                   const jobs::BenchmarkJob& job,
                                   const mrsim::DataSetSpec& data,
                                   uint64_t seed, uint64_t run_seed_salt,
                                   SpanLog* spans, uint64_t request) {
  PipelineResult out;
  const profiler::Profiler profiler(layers.simulator);
  const whatif::WhatIfEngine engine(layers.simulator->cluster());
  const mrsim::Configuration submitted;
  const int64_t root =
      static_cast<int64_t>(spans->Begin(request, "pipeline"));

  size_t span = spans->Begin(request, "profiler.sample", root);
  Result<profiler::ProfiledRun> sample =
      profiler.ProfileOneTask(job.spec, data, submitted, seed);
  out.sample_s = spans->End(span);
  if (!sample.ok()) return sample.status();

  span = spans->Begin(request, "staticanalysis.extract", root);
  const staticanalysis::StaticFeatures statics =
      staticanalysis::ExtractStaticFeatures(job.program);
  const core::JobFeatureVector probe =
      core::BuildFeatureVector(sample->profile, statics);
  out.extract_s = spans->End(span);

  span = spans->Begin(request, "matcher.match", root);
  const core::MultiStageMatcher matcher(layers.store, layers.options.match);
  Result<core::MatchResult> match = matcher.Match(probe, &out.trace);
  out.match_s = spans->End(span);
  if (!match.ok()) return match.status();
  if (!match->found) return Status::NotFound("no match for " + job.spec.name);
  out.match = std::move(match).value();

  span = spans->Begin(request, "optimizer.cbo", root);
  const optimizer::CostBasedOptimizer cbo(&engine, layers.options.cbo);
  Result<optimizer::CostBasedOptimizer::Recommendation> rec =
      cbo.Optimize(out.match.profile, data, &out.trace.cbo);
  out.cbo_s = spans->End(span);
  if (!rec.ok()) return rec.status();
  out.recommendation = std::move(rec).value();

  span = spans->Begin(request, "mrsim.run", root);
  mrsim::RunOptions run_options;
  run_options.seed = seed ^ run_seed_salt;
  Result<mrsim::JobRunResult> run = layers.simulator->RunJob(
      job.spec, data, out.recommendation.config, run_options);
  out.run_s = spans->End(span);
  spans->End(static_cast<size_t>(root));
  if (!run.ok()) return run.status();
  out.runtime_s = run->runtime_s;
  return out;
}

void LayerStats::Add(const PipelineResult& p, double submit_s) {
  submit_ms.push_back(submit_s * 1e3);
  unaccounted_ms.push_back((submit_s - p.layer_sum_s()) * 1e3);
  sample_ms.push_back(p.sample_s * 1e3);
  extract_ms.push_back(p.extract_s * 1e3);
  match_ms.push_back(p.match_s * 1e3);
  cbo_ms.push_back(p.cbo_s * 1e3);
  run_ms.push_back(p.run_s * 1e3);
  const obs::CboTrace& cbo = p.trace.cbo;
  candidates.push_back(static_cast<double>(cbo.candidates_evaluated));
  us_per_candidate.push_back(
      p.cbo_s * 1e6 / std::max<double>(1.0, cbo.candidates_evaluated));
  cache_hits += cbo.map_cache_hits;
  cache_lookups += cbo.map_cache_lookups;
  dynamic_out.push_back(static_cast<double>(
      p.match.map_side.after_dynamic + p.match.reduce_side.after_dynamic));
  cfg_out.push_back(static_cast<double>(p.match.map_side.after_cfg +
                                        p.match.reduce_side.after_cfg));
  rows_scanned.push_back(static_cast<double>(p.trace.store.rows_scanned));
  entry_hits += p.trace.store.entry_cache_hits;
  entry_gets +=
      p.trace.store.entry_cache_hits + p.trace.store.entry_cache_misses;
}

void LayerStats::Merge(const LayerStats& other) {
  for (auto field :
       {&LayerStats::submit_ms, &LayerStats::unaccounted_ms,
        &LayerStats::sample_ms, &LayerStats::extract_ms,
        &LayerStats::match_ms, &LayerStats::cbo_ms, &LayerStats::run_ms,
        &LayerStats::us_per_candidate, &LayerStats::dynamic_out,
        &LayerStats::cfg_out, &LayerStats::rows_scanned,
        &LayerStats::candidates}) {
    (this->*field).insert((this->*field).end(), (other.*field).begin(),
                          (other.*field).end());
  }
  entry_hits += other.entry_hits;
  entry_gets += other.entry_gets;
  cache_hits += other.cache_hits;
  cache_lookups += other.cache_lookups;
}

void LayerStats::AppendMetrics(std::vector<Metric>* metrics,
                               Checks* checks) const {
  auto ratio = [](uint64_t num, uint64_t den) {
    return den == 0 ? 0.0 : static_cast<double>(num) / den;
  };
  const double submit = Median(submit_ms);
  const double unaccounted = Median(unaccounted_ms);
  std::vector<Metric>& m = *metrics;
  m.push_back({"layers.submit_ms", submit, "ms"});
  m.push_back({"layers.unaccounted_ms", unaccounted, "ms"});
  m.push_back({"profiler.sample_ms", Median(sample_ms), "ms"});
  m.push_back({"staticanalysis.extract_ms", Median(extract_ms), "ms"});
  m.push_back({"matcher.match_ms", Median(match_ms), "ms"});
  m.push_back({"matcher.dynamic_out", Mean(dynamic_out), "count"});
  m.push_back({"matcher.cfg_out", Mean(cfg_out), "count"});
  m.push_back({"hstore.rows_scanned_per_match", Mean(rows_scanned), "count"});
  m.push_back({"profile_store.entry_cache_hit_ratio",
               ratio(entry_hits, entry_gets), "ratio"});
  m.push_back({"optimizer.cbo_ms", Median(cbo_ms), "ms"});
  m.push_back({"optimizer.candidates", Mean(candidates), "count"});
  m.push_back({"whatif.us_per_candidate", Median(us_per_candidate), "us"});
  m.push_back({"whatif.map_cache_hit_ratio", ratio(cache_hits, cache_lookups),
               "ratio"});
  m.push_back({"mrsim.run_ms", Median(run_ms), "ms"});
  checks->Expect(std::fabs(unaccounted) <= kLayerSumTolerance * submit,
                 "layer times sum to " + std::to_string(submit - unaccounted) +
                     " ms, SubmitJob took " + std::to_string(submit) + " ms");
}

void WriteTraceOutputs(const RunOptions& options, const SpanLog& spans,
                       Checks* checks) {
  if (options.out_dir.empty()) return;
  const std::string stem = options.out_dir + "/" + options.workload +
                           "-seed" + std::to_string(options.seed);
  checks->Expect(spans.WriteJsonl(stem + ".spans.jsonl"),
                 "write " + stem + ".spans.jsonl");
  checks->Expect(WriteMetricsDump(stem + ".metrics.txt"),
                 "write " + stem + ".metrics.txt");
}

Result<double> DefaultRuntime(const mrsim::Simulator& simulator,
                              const jobs::BenchmarkJob& job,
                              const mrsim::DataSetSpec& data, uint64_t seed) {
  mrsim::RunOptions run_options;
  run_options.seed = seed ^ kRunSeedSalt;
  PSTORM_ASSIGN_OR_RETURN(
      mrsim::JobRunResult run,
      simulator.RunJob(job.spec, data, mrsim::Configuration{}, run_options));
  return run.runtime_s;
}

StorageSnapshot TakeSnapshot(
    const std::vector<const core::ProfileStore*>& stores) {
  StorageSnapshot s;
  for (const core::ProfileStore* store : stores) {
    const storage::DbStats d = store->StorageStats();
    s.db.flushes += d.flushes;
    s.db.compactions += d.compactions;
    s.db.bytes_flushed += d.bytes_flushed;
    s.db.bytes_compacted += d.bytes_compacted;
    s.db.wal_appends += d.wal_appends;
    s.db.wal_syncs += d.wal_syncs;
  }
  obs::MetricsRegistry& registry = obs::MetricsRegistry::Global();
  s.block_cache_hits =
      registry.GetCounter("pstorm_block_cache_hits_total").Value();
  s.block_cache_misses =
      registry.GetCounter("pstorm_block_cache_misses_total").Value();
  return s;
}

void AddStorageMetrics(const StorageSnapshot& before,
                       const StorageSnapshot& after, uint64_t puts,
                       double profile_bytes,
                       const StorageSnapshot& read_before,
                       const StorageSnapshot& read_after,
                       std::vector<Metric>* metrics) {
  const double n = puts == 0 ? 1.0 : static_cast<double>(puts);
  auto per_put = [&](uint64_t a, uint64_t b) {
    return static_cast<double>(b - a) / n;
  };
  metrics->push_back({"storage.flushes_per_put",
                      per_put(before.db.flushes, after.db.flushes), "count"});
  metrics->push_back({"storage.compactions_per_put",
                      per_put(before.db.compactions, after.db.compactions),
                      "count"});
  metrics->push_back({"storage.wal_syncs_per_put",
                      per_put(before.db.wal_syncs, after.db.wal_syncs),
                      "count"});
  const double written =
      static_cast<double>(after.db.bytes_flushed - before.db.bytes_flushed) +
      static_cast<double>(after.db.bytes_compacted -
                          before.db.bytes_compacted);
  metrics->push_back({"storage.write_amplification",
                      profile_bytes > 0 ? written / profile_bytes : 0.0,
                      "ratio"});
  const double hits = static_cast<double>(read_after.block_cache_hits -
                                          read_before.block_cache_hits);
  const double misses = static_cast<double>(read_after.block_cache_misses -
                                            read_before.block_cache_misses);
  metrics->push_back({"storage.block_cache_hit_ratio",
                      hits + misses > 0 ? hits / (hits + misses) : 0.0,
                      "ratio"});
}

}  // namespace perfbench
