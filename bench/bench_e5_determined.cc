// E5 — Determined relations need not store valid time-stamps at all
// (Section 3.1): vt = m(e) is recomputable from the transaction stamp.
//
// Measures (a) bytes per element with stored vs computed valid stamps, and
// (b) the read-side cost of recomputing the stamp through each mapping
// family (offset, truncate, next-phase).
#include "bench_common.h"
#include "storage/serde.h"

using namespace tempspec;
using tempspec::bench::Require;

namespace {

std::vector<Element> MakeElements(int64_t n, const MappingFunction& mapping) {
  std::vector<Element> out;
  out.reserve(n);
  for (int64_t i = 0; i < n; ++i) {
    Element e;
    e.element_surrogate = i + 1;
    e.object_surrogate = i % 16 + 1;
    e.tt_begin = TimePoint::FromSeconds(1000 + i * 60);
    e.valid = ValidTime::Event(mapping.Apply(e));
    e.attributes = Tuple{static_cast<int64_t>(i % 16), 20.0};
    out.push_back(std::move(e));
  }
  return out;
}

// A fixed-width element layout (raw 64-bit surrogates and stamps), with or
// without the valid stamp: without it is what a determined-aware layout
// would write, since the stamp is recomputable.
std::string EncodeFixedWidth(const Element& e, bool with_valid) {
  std::string out;
  Encoder enc(&out);
  enc.PutU64(e.element_surrogate);
  enc.PutU64(e.object_surrogate);
  enc.PutTimePoint(e.tt_begin);
  enc.PutTimePoint(e.tt_end);
  if (with_valid) {
    enc.PutU8(e.valid.is_event() ? 0 : 1);
    enc.PutTimePoint(e.valid.begin());
    enc.PutTimePoint(e.valid.end());
  }
  EncodeTuple(e.attributes, &enc);
  return out;
}

void BM_Storage_StoredStamps(benchmark::State& state) {
  const auto elements =
      MakeElements(state.range(0), MappingFunction::Offset(Duration::Seconds(-30)));
  size_t bytes = 0;
  for (auto _ : state) {
    bytes = 0;
    for (const Element& e : elements) {
      std::string buf = EncodeFixedWidth(e, /*with_valid=*/true);
      bytes += buf.size();
      benchmark::DoNotOptimize(buf);
    }
  }
  state.counters["bytes_per_element"] =
      benchmark::Counter(static_cast<double>(bytes) / elements.size());
}

void BM_Storage_ComputedStamps(benchmark::State& state) {
  const auto elements =
      MakeElements(state.range(0), MappingFunction::Offset(Duration::Seconds(-30)));
  size_t bytes = 0;
  for (auto _ : state) {
    bytes = 0;
    for (const Element& e : elements) {
      std::string buf = EncodeFixedWidth(e, /*with_valid=*/false);
      bytes += buf.size();
      benchmark::DoNotOptimize(buf);
    }
  }
  state.counters["bytes_per_element"] =
      benchmark::Counter(static_cast<double>(bytes) / elements.size());
}

void RunMappingReads(benchmark::State& state, MappingFunction mapping) {
  const auto elements = MakeElements(state.range(0), mapping);
  for (auto _ : state) {
    int64_t acc = 0;
    for (const Element& e : elements) {
      acc += mapping.Apply(e).micros();
    }
    benchmark::DoNotOptimize(acc);
  }
  state.SetItemsProcessed(state.iterations() * elements.size());
}

void BM_Recompute_OffsetMapping(benchmark::State& state) {
  RunMappingReads(state, MappingFunction::Offset(Duration::Seconds(-30)));
}
void BM_Recompute_TruncateMapping(benchmark::State& state) {
  RunMappingReads(state, MappingFunction::TruncateThenOffset(Granularity::Hour()));
}
void BM_Recompute_NextPhaseMapping(benchmark::State& state) {
  RunMappingReads(state,
                  MappingFunction::NextPhase(Granularity::Day(), Duration::Hours(8)));
}
void BM_Recompute_CalendricOffsetMapping(benchmark::State& state) {
  RunMappingReads(state, MappingFunction::Offset(Duration::Months(-1)));
}

}  // namespace

BENCHMARK(BM_Storage_StoredStamps)->Arg(8192);
BENCHMARK(BM_Storage_ComputedStamps)->Arg(8192);
BENCHMARK(BM_Recompute_OffsetMapping)->Arg(8192);
BENCHMARK(BM_Recompute_TruncateMapping)->Arg(8192);
BENCHMARK(BM_Recompute_NextPhaseMapping)->Arg(8192);
BENCHMARK(BM_Recompute_CalendricOffsetMapping)->Arg(8192);

TEMPSPEC_BENCH_MAIN("e5_determined");
