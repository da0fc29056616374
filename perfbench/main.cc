// PStorM submission benchmark. Usage:
//
//   perfbench --workload sd_serving|scale_serving|rpc_ingest --seed N
//             --seconds S --trace 0|1 [--out DIR] [--inject NAME]
//
// Prints, as its last line, one JSON object with the keys correct,
// attempted, failed and metrics. With --trace 0 the metrics are the
// end-to-end ones; with --trace 1 a separate traced pass gives the
// per-layer ones (and writes its spans and the metrics registry dump under
// --out). Exits 1 when a correctness check failed. See README.md.

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <string>

#include "common.h"

namespace {

using perfbench::Inject;

const std::map<std::string, Inject>& InjectNames() {
  static const std::map<std::string, Inject> names = {
      {"none", Inject::kNone},
      {"swap_expected_keys", Inject::kSwapExpectedKeys},
      {"default_runtime_tuned", Inject::kDefaultRuntimeTuned},
      {"default_predict_halved", Inject::kDefaultPredictHalved},
      {"pipeline_seed", Inject::kPipelineSeed},
      {"replay_seed", Inject::kReplaySeed},
      {"drop_acked_put", Inject::kDropAckedPut},
  };
  return names;
}

int Usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload "
               "sd_serving|scale_serving|rpc_ingest --seed N --seconds S "
               "--trace 0|1 [--out DIR] [--inject NAME]\n",
               why);
  return 2;
}

bool ParseUint(const std::string& text, uint64_t* out) {
  if (text.empty()) return false;
  char* end = nullptr;
  *out = std::strtoull(text.c_str(), &end, 10);
  return end != nullptr && *end == '\0';
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::MarkProcessStart();
  perfbench::RunOptions options;
  bool have_seed = false, have_seconds = false, have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) return Usage(("missing value for " + flag).c_str());
    const std::string value = argv[++i];
    uint64_t n = 0;
    if (flag == "--workload") {
      options.workload = value;
    } else if (flag == "--seed" && ParseUint(value, &n)) {
      options.seed = n;
      have_seed = true;
    } else if (flag == "--seconds" && ParseUint(value, &n) && n >= 1 &&
               n <= 600) {
      options.seconds = static_cast<int>(n);
      have_seconds = true;
    } else if (flag == "--trace" && (value == "0" || value == "1")) {
      options.trace = value == "1";
      have_trace = true;
    } else if (flag == "--out") {
      options.out_dir = value;
    } else if (flag == "--inject" && InjectNames().count(value) != 0) {
      options.inject = InjectNames().at(value);
    } else {
      return Usage(("bad flag or value: " + flag + " " + value).c_str());
    }
  }
  if (!have_seed || !have_seconds || !have_trace) {
    return Usage("--seed, --seconds and --trace are required");
  }

  perfbench::Checks checks;
  perfbench::RunResult result;
  if (options.workload == "sd_serving" || options.workload == "scale_serving") {
    result = perfbench::RunServing(options, &checks);
  } else if (options.workload == "rpc_ingest") {
    result = perfbench::RunIngest(options, &checks);
  } else {
    return Usage(("unknown workload: " + options.workload).c_str());
  }
  if (result.attempted == 0) {
    std::fprintf(stderr, "perfbench: no operation was attempted\n");
    return 1;
  }

  std::string metrics;
  for (const perfbench::Metric& m : result.metrics) {
    checks.Expect(std::isfinite(m.value), m.name + " is not finite");
    char buf[160];
    std::snprintf(buf, sizeof(buf), "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  metrics.empty() ? "" : ", ", m.name.c_str(),
                  std::isfinite(m.value) ? m.value : 0.0, m.unit.c_str());
    metrics += buf;
  }
  const bool correct = checks.all_passed();
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {%s}}\n",
              correct ? "true" : "false",
              static_cast<unsigned long long>(result.attempted),
              static_cast<unsigned long long>(result.failed), metrics.c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}
