// Shared helpers for the experiment benches (EXPERIMENTS.md, E1-E9).
//
// Every bench uses TEMPSPEC_BENCH_MAIN("<id>") instead of BENCHMARK_MAIN():
// it behaves identically until `--json [path]` is passed, in which case the
// per-repetition timings are captured through a reporter shim and written as
// BENCH_<id>.json (see bench_json.h for the schema) next to the console
// output.
#ifndef TEMPSPEC_BENCH_BENCH_COMMON_H_
#define TEMPSPEC_BENCH_BENCH_COMMON_H_

#include <benchmark/benchmark.h>

#include <cstring>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "bench_json.h"
#include "percentile.h"
#include "query/executor.h"
#include "spec/inference.h"
#include "workload/workloads.h"

namespace tempspec {
namespace bench {

/// \brief Aborts the benchmark on error — benches must not silently measure
/// failure paths.
inline void Require(const Status& status) { status.Check(); }

template <typename T>
T Require(Result<T> result) {
  result.status().Check();
  return std::move(result).ValueOrDie();
}

/// \brief Workload sized from the benchmark's first range argument
/// (total elements ~= state.range(0)).
inline WorkloadConfig ConfigFor(int64_t total_elements, size_t num_objects = 16) {
  WorkloadConfig config;
  config.num_objects = num_objects;
  config.ops_per_object =
      static_cast<size_t>(total_elements) / (num_objects ? num_objects : 1);
  return config;
}

/// \brief The always-available naive plan.
inline const PlanChoice& FullScanPlan() {
  static const PlanChoice plan{ExecutionStrategy::kFullScan,
                               TimeInterval::All(), ""};
  return plan;
}

/// \brief Publishes accumulated QueryStats as per-iteration counters
/// (examined elements, morsels dispatched, wall vs summed per-morsel time).
inline void ReportQueryStats(benchmark::State& state, const QueryStats& stats) {
  using benchmark::Counter;
  state.counters["examined"] =
      Counter(static_cast<double>(stats.elements_examined),
              Counter::kAvgIterations);
  state.counters["results"] =
      Counter(static_cast<double>(stats.results), Counter::kAvgIterations);
  state.counters["morsels"] = Counter(
      static_cast<double>(stats.morsels_executed), Counter::kAvgIterations);
  state.counters["wall_micros"] = Counter(
      static_cast<double>(stats.wall_micros), Counter::kAvgIterations);
  state.counters["cpu_micros"] = Counter(
      static_cast<double>(stats.cpu_micros), Counter::kAvgIterations);
}

/// \brief Console reporter that also captures per-repetition real times so
/// BenchMain can compute median/p99 per benchmark name.
class CapturingReporter : public benchmark::ConsoleReporter {
 public:
  void ReportRuns(const std::vector<Run>& runs) override {
    for (const Run& run : runs) {
      if (run.run_type != Run::RT_Iteration) continue;
      Sample& s = samples_[run.benchmark_name()];
      ++s.runs;
      s.iterations += static_cast<uint64_t>(run.iterations);
      // Per-iteration real time in nanoseconds, independent of the
      // benchmark's display time unit.
      const double iters = run.iterations > 0
                               ? static_cast<double>(run.iterations)
                               : 1.0;
      s.real_time_ns.push_back(run.real_accumulated_time / iters * 1e9);
      for (const auto& [name, counter] : run.counters) {
        s.counters[name] = counter.value;
      }
      if (order_.empty() || order_.back() != run.benchmark_name()) {
        bool seen = false;
        for (const auto& n : order_) seen = seen || n == run.benchmark_name();
        if (!seen) order_.push_back(run.benchmark_name());
      }
    }
    ConsoleReporter::ReportRuns(runs);
  }

  std::vector<BenchResult> Results() const {
    std::vector<BenchResult> out;
    for (const std::string& name : order_) {
      const Sample& s = samples_.at(name);
      BenchResult r;
      r.name = name;
      r.runs = s.runs;
      r.iterations = s.iterations;
      r.real_time_ns_median = SamplePercentile(s.real_time_ns, 0.5);
      r.real_time_ns_p99 = SamplePercentile(s.real_time_ns, 0.99);
      r.counters = s.counters;
      out.push_back(std::move(r));
    }
    return out;
  }

 private:
  struct Sample {
    uint64_t runs = 0;
    uint64_t iterations = 0;
    std::vector<double> real_time_ns;
    std::map<std::string, double> counters;  // last run's values
  };
  std::map<std::string, Sample> samples_;
  std::vector<std::string> order_;
};

/// \brief BENCHMARK_MAIN() replacement with the `--json` capture mode.
inline int BenchMain(const std::string& id, int argc, char** argv) {
  std::string json_path;
  const bool want_json = ExtractJsonFlag(&argc, argv, id, &json_path);
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  if (!want_json) {
    benchmark::RunSpecifiedBenchmarks();
    benchmark::Shutdown();
    return 0;
  }
  CapturingReporter reporter;
  benchmark::RunSpecifiedBenchmarks(&reporter);
  benchmark::Shutdown();
  return WriteBenchJson(json_path, id, reporter.Results()) ? 0 : 1;
}

}  // namespace bench
}  // namespace tempspec

#define TEMPSPEC_BENCH_MAIN(id)                             \
  int main(int argc, char** argv) {                         \
    return ::tempspec::bench::BenchMain(id, argc, argv);    \
  }

#endif  // TEMPSPEC_BENCH_BENCH_COMMON_H_
