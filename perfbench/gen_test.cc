// Determinism test for the statement generator: the same seed gives a
// byte-identical stream, different seeds give different streams. Exits
// nonzero on failure; the benchmark runs it before every measurement.
#include <cstdio>
#include <string>

#include "gen.h"

namespace {

constexpr int kStreams = 3;
constexpr int kMeasuredOps = 20000;

std::string Stream(perfbench::Workload workload, uint64_t seed) {
  const perfbench::WorkloadSpec spec = perfbench::MakeSpec(workload, kStreams);
  std::string out;
  for (int s = 0; s < kStreams; ++s) {
    perfbench::StreamGen gen(spec, s, seed);
    for (const perfbench::Op& op : gen.Preload()) out += op.statement + "\n";
    for (int i = 0; i < kMeasuredOps; ++i) out += gen.Next().statement + "\n";
  }
  return out;
}

}  // namespace

int main() {
  int failures = 0;
  for (perfbench::Workload w :
       {perfbench::Workload::kIngest, perfbench::Workload::kHistoryScan,
        perfbench::Workload::kChatter}) {
    const std::string a = Stream(w, 7);
    const std::string b = Stream(w, 7);
    const std::string c = Stream(w, 8);
    const bool same = a == b;
    const bool differ = a != c;
    std::printf("gen_test %-13s %zu bytes: same seed identical %s, other seed "
                "differs %s\n",
                perfbench::WorkloadName(w), a.size(), same ? "yes" : "NO",
                differ ? "yes" : "NO");
    if (!same || !differ) ++failures;
  }
  return failures == 0 ? 0 : 1;
}
