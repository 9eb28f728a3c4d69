// perfbench — the repository benchmark.
//
//   perfbench --workload crowd|churn|offline --seed N --seconds S
//             --trace 0|1 [--trace-out spans.json]
//
// Prints its context, every metric by name with unit and sample count,
// and as the last stdout line one JSON object {"correct", "attempted",
// "failed", "metrics"}.  --trace 0 reports the end-to-end metrics;
// --trace 1 runs the traced variant and reports the per-layer metrics (and
// writes the spans as Chrome trace-event JSON to --trace-out).  Exits 1
// when a self-check fails, 2 on bad usage or an unfit build.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <stdexcept>
#include <string>
#include <thread>

#include "report.h"
#include "workloads.h"

namespace {

int usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload crowd|churn|offline "
               "--seed N --seconds S --trace 0|1 [--trace-out FILE]\n",
               why);
  return 2;
}

/// Layers whose self time the traced run reports as a share of the run.
constexpr const char* kLayers[] = {"workload",  "serve", "scheduling",
                                   "placement", "core",  "obs",
                                   "bench"};

}  // namespace

int main(int argc, char** argv) {
  std::string workload, trace_out;
  long long seed = -1;
  double seconds = -1.0;
  int trace = -1;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) return usage(("missing value for " + flag).c_str());
    const char* value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      workload = value;
    } else if (flag == "--seed") {
      seed = std::strtoll(value, &end, 10);
      if (*end != '\0' || seed < 0) return usage("bad --seed");
    } else if (flag == "--seconds") {
      seconds = std::strtod(value, &end);
      if (*end != '\0' || !(seconds > 0.0 && seconds <= 600.0)) {
        return usage("bad --seconds");
      }
    } else if (flag == "--trace") {
      if (std::strcmp(value, "0") != 0 && std::strcmp(value, "1") != 0) {
        return usage("bad --trace");
      }
      trace = value[0] - '0';
    } else if (flag == "--trace-out") {
      trace_out = value;
    } else {
      return usage(("unknown flag " + flag).c_str());
    }
  }
  if (workload.empty() || seed < 0 || seconds < 0.0 || trace < 0) {
    return usage("--workload, --seed, --seconds and --trace are required");
  }
  if (const std::string why = perfbench::build_refusal(); !why.empty()) {
    std::fprintf(stderr, "perfbench: refusing to report: %s\n", why.c_str());
    return 2;
  }

  perfbench::RunOptions options;
  options.seed = static_cast<std::uint64_t>(seed);
  options.seconds = seconds;
  options.traced = trace == 1;

  std::printf("perfbench %s seed=%lld seconds=%g trace=%d\n", workload.c_str(),
              seed, seconds, trace);
  std::printf("context: nproc=%u threads=%s\n",
              std::thread::hardware_concurrency(),
              workload == "offline" ? "2 (exec pool)" : "1");
  std::printf("context: build=%s\n",
              std::string(perfbench::build_flags()).c_str());
  std::fflush(stdout);

  perfbench::RunResult result;
  try {
    if (workload == "crowd") {
      result = perfbench::run_crowd(options);
    } else if (workload == "churn") {
      result = perfbench::run_churn(options);
    } else if (workload == "offline") {
      result = perfbench::run_offline(options);
    } else {
      return usage(("unknown workload " + workload).c_str());
    }

    perfbench::Report& report = result.report;
    if (options.traced) {
      // Self time per layer as a share of all traced time (the root spans;
      // the untraced passes between them are not part of the trace).
      const auto& spans = result.spans.spans();
      double total = 0.0;
      for (const auto& s : spans) {
        if (s.parent < 0) total += static_cast<double>(s.end_ns - s.start_ns);
      }
      if (total > 0.0) {
        const auto self = result.spans.self_ns_by_layer();
        std::printf("layer self time (share of the traced time):\n");
        for (const char* layer : kLayers) {
          const auto it = self.find(layer);
          const double ns =
              it == self.end() ? 0.0 : static_cast<double>(it->second);
          std::printf("  %-11s %10.3f s  %6.2f%%\n", layer, ns / 1e9,
                      100.0 * ns / total);
          report.add(std::string(layer) + ".self_share", ns / total, "ratio",
                     spans.size());
        }
      }
      if (!trace_out.empty()) {
        std::ofstream os(trace_out);
        if (!os) throw std::runtime_error("cannot open " + trace_out);
        result.spans.write_chrome_json(os);
        std::printf("spans: %zu written to %s\n", spans.size(),
                    trace_out.c_str());
      }
    }
    // Every workload reports the full metric set; a layer this workload
    // does not exercise reads 0 with 0 samples.
    const auto& wanted = options.traced ? perfbench::per_layer_metrics()
                                        : perfbench::end_to_end_metrics();
    for (const auto& spec : wanted) {
      if (report.find(spec.name) == nullptr) report.add(spec.name, 0.0, spec.unit, 0);
    }
    if (report.metrics().size() != wanted.size()) {
      throw std::logic_error("reported metrics differ from the declared set");
    }
  } catch (const std::exception& e) {
    result.failures.push_back(std::string("exception: ") + e.what());
  }

  for (const std::string& line : result.context) {
    std::printf("context: %s\n", line.c_str());
  }
  std::printf("metrics:\n");
  result.report.print(stdout);
  for (const std::string& f : result.failures) {
    std::printf("CHECK FAILED: %s\n", f.c_str());
  }
  const bool correct = result.failures.empty();
  std::printf("%s\n", result.report
                          .result_json(correct, std::max<std::uint64_t>(
                                                    result.attempted, 1),
                                       result.failures.size())
                          .c_str());
  return correct ? 0 : 1;
}
