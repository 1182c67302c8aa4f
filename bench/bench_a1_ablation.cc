// A1 — Ablations of the engine's design choices.
//
//  (a) Enforcement mechanism: the O(1)-state online checkers vs the naive
//      alternative of re-verifying the whole extension after every insert
//      (what a system without incremental checkers would do).
//  (b) Index for monotone stamps: the general B+tree vs the sorted column
//      plus binary search (MonotoneBounds) the engine uses for transaction
//      time and for declared non-decreasing/sequential valid time.
//  (c) Interval-index layout: stab cost on the engine's logarithmic layout
//      (binary-counter runs plus an unsorted tail of at most 64 entries)
//      vs the same entries Compact()ed into one run.
#include "bench_common.h"
#include "index/btree.h"
#include "index/interval_index.h"
#include "query/kernels.h"

using namespace tempspec;
using tempspec::bench::Require;

namespace {

Element OrderedElement(int64_t i) {
  Element e;
  e.element_surrogate = static_cast<ElementSurrogate>(i + 1);
  e.object_surrogate = i % 8 + 1;
  e.tt_begin = TimePoint::FromSeconds(1000 + i);
  e.valid = ValidTime::Event(TimePoint::FromSeconds(900 + i));
  return e;
}

SpecializationSet OrderedSpecs() {
  SpecializationSet specs;
  specs.AddOrdering(OrderingSpec(OrderingKind::kNonDecreasing));
  specs.AddEvent(EventSpecialization::Retroactive());
  return specs;
}

void BM_Enforcement_OnlineCheckers(benchmark::State& state) {
  const Granularity gran = Granularity::Second();
  for (auto _ : state) {
    ConstraintChecker checker(OrderedSpecs(), gran);
    for (int64_t i = 0; i < state.range(0); ++i) {
      Require(checker.OnInsert(OrderedElement(i)));
    }
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}

void BM_Enforcement_BatchReverify(benchmark::State& state) {
  // The ablated design: no incremental state; after each insert the full
  // extension is re-verified. O(n^2) total.
  const Granularity gran = Granularity::Second();
  ConstraintChecker checker(OrderedSpecs(), gran);
  for (auto _ : state) {
    std::vector<Element> extension;
    extension.reserve(state.range(0));
    for (int64_t i = 0; i < state.range(0); ++i) {
      extension.push_back(OrderedElement(i));
      Require(checker.CheckExtension(extension));
    }
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}

// ---------------------------------------------------------------------------
// (b) B+tree vs sorted column for monotone keys
// ---------------------------------------------------------------------------

void BM_MonotoneIndex_BTree(benchmark::State& state) {
  for (auto _ : state) {
    BTreeIndex index;
    for (int64_t i = 0; i < state.range(0); ++i) {
      index.Insert(1000 + i, static_cast<uint64_t>(i));
    }
    benchmark::DoNotOptimize(index.Range(2000, 2100));
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}

// The StampStore's tt_start column: appends in stamp order, and a key
// range is a position range (the same [2000, 2100] as the B+tree query).
void BM_MonotoneIndex_SortedColumn(benchmark::State& state) {
  for (auto _ : state) {
    std::vector<int64_t> column;
    for (int64_t i = 0; i < state.range(0); ++i) column.push_back(1000 + i);
    benchmark::DoNotOptimize(
        MonotoneBounds(column.data(), column.size(), 2000, 2101));
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}

// ---------------------------------------------------------------------------
// (c) interval-index runs + tail vs one compacted run
// ---------------------------------------------------------------------------

IntervalIndex BuildIntervalIndex(int64_t n, uint64_t seed) {
  Random rng(seed);
  IntervalIndex index;
  for (int64_t i = 0; i < n; ++i) {
    const int64_t b = rng.Uniform(0, 1'000'000);
    index.Insert(TimePoint::FromMicros(b),
                 TimePoint::FromMicros(b + rng.Uniform(1, 10'000)),
                 static_cast<uint64_t>(i));
  }
  return index;
}

void StabLoop(benchmark::State& state, const IntervalIndex& index) {
  Random rng(11);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        index.Stab(TimePoint::FromMicros(rng.Uniform(0, 1'000'000))));
  }
  state.counters["runs"] =
      benchmark::Counter(static_cast<double>(index.run_count()));
  state.counters["tail_size"] =
      benchmark::Counter(static_cast<double>(index.tail_size()));
}

void BM_IntervalIndex_StabRunsAndTail(benchmark::State& state) {
  StabLoop(state, BuildIntervalIndex(state.range(0), 7));
}

void BM_IntervalIndex_StabCompacted(benchmark::State& state) {
  IntervalIndex index = BuildIntervalIndex(state.range(0), 7);
  index.Compact();
  StabLoop(state, index);
}

// Insert cost of the layout: the merges every 64 inserts, amortized.
void BM_IntervalIndex_Build(benchmark::State& state) {
  for (auto _ : state) {
    benchmark::DoNotOptimize(BuildIntervalIndex(state.range(0), 7));
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}

}  // namespace

BENCHMARK(BM_Enforcement_OnlineCheckers)->Arg(1024)->Arg(4096);
BENCHMARK(BM_Enforcement_BatchReverify)->Arg(1024)->Arg(4096);
BENCHMARK(BM_MonotoneIndex_BTree)->Arg(65536);
BENCHMARK(BM_MonotoneIndex_SortedColumn)->Arg(65536);
BENCHMARK(BM_IntervalIndex_StabRunsAndTail)->Arg(65535)->Arg(200000);
BENCHMARK(BM_IntervalIndex_StabCompacted)->Arg(65535)->Arg(200000);
BENCHMARK(BM_IntervalIndex_Build)->Arg(200000);

TEMPSPEC_BENCH_MAIN("a1_ablation");
