#include "query/kernels.h"

#include <algorithm>
#include <bit>

namespace tempspec {

namespace {

// Rows per flags pass: one uint8 lane per row, sized so the flags buffer and
// the column slices it reads stay L1/L2-resident alongside the output.
constexpr size_t kBlock = 4096;

/// \brief Evaluates `pred(position) -> uint8_t` over [begin, end) in blocks:
/// a branch-free flags pass (the auto-vectorizable loop), then a pack into
/// 64-bit selection words drained with countr_zero. Matches append to `out`
/// in ascending position order.
template <typename Pred>
void ScanBlocks(size_t begin, size_t end, const Pred& pred,
                std::vector<uint64_t>* out) {
  alignas(64) uint8_t flags[kBlock];
  for (size_t base = begin; base < end; base += kBlock) {
    const size_t n = std::min(kBlock, end - base);
    for (size_t i = 0; i < n; ++i) {
      flags[i] = pred(base + i);
    }
    for (size_t w = 0; w < n; w += 64) {
      const size_t m = std::min<size_t>(64, n - w);
      uint64_t bits = 0;
      for (size_t b = 0; b < m; ++b) {
        bits |= static_cast<uint64_t>(flags[w + b]) << b;
      }
      while (bits != 0) {
        const unsigned b = static_cast<unsigned>(std::countr_zero(bits));
        out->push_back(static_cast<uint64_t>(base + w + b));
        bits &= bits - 1;
      }
    }
  }
}

}  // namespace

std::pair<size_t, size_t> MonotoneBounds(const int64_t* column, size_t size,
                                         int64_t lo, int64_t hi) {
  const int64_t* last = column + size;
  const size_t a =
      static_cast<size_t>(std::lower_bound(column, last, lo) - column);
  const size_t b = static_cast<size_t>(
      std::lower_bound(column + a, last, hi) - column);
  return {a, b};
}

void KernelScan(ScanKernel kernel, const StampColumns& cols, size_t begin,
                size_t end, int64_t lo, int64_t hi, int64_t as_of,
                std::vector<uint64_t>* out) {
  const int64_t* const ts = cols.tt_start;
  const int64_t* const te = cols.tt_end;
  const int64_t* const vs = cols.vt_start;
  const int64_t* const ve = cols.vt_end;
  // The bools multiply with `&` instead of `&&` on purpose: every column is
  // loaded unconditionally, so the flags loop has no data-dependent control
  // flow for the vectorizer to trip on.
  switch (kernel) {
    case ScanKernel::kGeneric:
      if (as_of == kCurrentAsOf) {
        ScanBlocks(begin, end,
                   [=](size_t i) -> uint8_t {
                     return static_cast<uint8_t>((vs[i] < hi) & (lo < ve[i]) &
                                                 (as_of < te[i]));
                   },
                   out);
      } else {
        ScanBlocks(begin, end,
                   [=](size_t i) -> uint8_t {
                     return static_cast<uint8_t>((vs[i] < hi) & (lo < ve[i]) &
                                                 (ts[i] <= as_of) &
                                                 (as_of < te[i]));
                   },
                   out);
      }
      return;

    case ScanKernel::kDegenerate:
    case ScanKernel::kBanded:
      // Event stamps: vt_end == vt_start + 1 by construction, so the second
      // half-plane `lo < vt_end` is `lo <= vt_start` — one column, two
      // compares.
      if (as_of == kCurrentAsOf) {
        ScanBlocks(begin, end,
                   [=](size_t i) -> uint8_t {
                     return static_cast<uint8_t>((lo <= vs[i]) & (vs[i] < hi) &
                                                 (as_of < te[i]));
                   },
                   out);
      } else {
        ScanBlocks(begin, end,
                   [=](size_t i) -> uint8_t {
                     return static_cast<uint8_t>((lo <= vs[i]) & (vs[i] < hi) &
                                                 (ts[i] <= as_of) &
                                                 (as_of < te[i]));
                   },
                   out);
      }
      return;

    case ScanKernel::kMonotone:
      // [begin, end) already came out of MonotoneBounds: every candidate
      // satisfies the valid-range tests, only existence remains.
    case ScanKernel::kExistence:
      if (as_of == kCurrentAsOf) {
        ScanBlocks(begin, end,
                   [=](size_t i) -> uint8_t {
                     return static_cast<uint8_t>(as_of < te[i]);
                   },
                   out);
      } else {
        ScanBlocks(begin, end,
                   [=](size_t i) -> uint8_t {
                     return static_cast<uint8_t>((ts[i] <= as_of) &
                                                 (as_of < te[i]));
                   },
                   out);
      }
      return;

    case ScanKernel::kRowAtATime:
      break;  // no columnar form; the executor keeps its Element walk
  }
}

}  // namespace tempspec
