//===----------------------------------------------------------------------===//
///
/// \file
/// Runtime statistics backing the paper's plots: the number of casts
/// executed and the longest proxy chain traversed (paper Figures 4 and 7),
/// plus allocation and GC counters. Every counter is declared once, in
/// support/Counters.def; the structs, benchjson's rows, bench_compare's
/// exact list and griftc's printers are all generated from that table.
///
//===----------------------------------------------------------------------===//
#ifndef GRIFT_RUNTIME_STATS_H
#define GRIFT_RUNTIME_STATS_H

#include <algorithm>
#include <cstdint>

namespace grift {

/// How bench_compare.py treats a counter's benchjson field.
enum class CounterGate { Exact, Reported, Unlisted };

/// One counter table entry as a writer sees it.
struct CounterRef {
  const char *Key;
  const char *TotalKey; ///< arrays: key of the sum ("" = none)
  CounterGate Gate;
  const char *Doc;
  const uint64_t *Values;
  unsigned Size; ///< element count; 0 for a scalar

  uint64_t total() const {
    uint64_t Sum = 0;
    for (unsigned I = 0; I != std::max(Size, 1u); ++I)
      Sum += Values[I];
    return Sum;
  }
};

/// The Heap's counters. The Heap owns one and bumps it in place; a run's
/// RuntimeStats receives it whole at the end of the run (VM::run).
struct HeapStats {
  /// Heap::ClassCellSizes plus one trailing bucket for large objects.
  static constexpr unsigned NumAllocClasses = 8;
  static constexpr unsigned NumPauseBuckets = 16;

#define GRIFT_GC_COUNTER(Field, Key, Gate, Doc) uint64_t Field = 0;
#define GRIFT_GC_COUNTER_ARRAY(Field, Size, Key, TotalKey, Gate, Doc)         \
  uint64_t Field[Size] = {};
#include "support/Counters.def"

  /// Objects allocated across all size classes (large included).
  uint64_t allocObjects() const {
    uint64_t Total = 0;
    for (uint64_t N : AllocObjectsByClass)
      Total += N;
    return Total;
  }
};

struct RuntimeStats : HeapStats {
#define GRIFT_RUN_COUNTER(Field, Key, Gate, Doc) uint64_t Field = 0;
#include "support/Counters.def"
  /// Nanoseconds measured by the innermost (time ...) form, if any.
  int64_t TimedNanos = -1;

  void noteChain(uint64_t Length) {
    LongestProxyChain = std::max(LongestProxyChain, Length);
  }

  void noteRetCasts(uint64_t Count) {
    MaxRetCastsPerFrame = std::max(MaxRetCastsPerFrame, Count);
  }

  void reset() { *this = RuntimeStats(); }
};

/// Calls \p Fn with a CounterRef for each run counter, in table order.
template <typename F> void forEachRunCounter(const RuntimeStats &S, F &&Fn) {
#define GRIFT_RUN_COUNTER(Field, Key, Gate, Doc)                              \
  Fn(CounterRef{Key, "", CounterGate::Gate, Doc, &S.Field, 0});
#include "support/Counters.def"
}

/// Calls \p Fn with a CounterRef for each GC counter, in table order.
template <typename F> void forEachGCCounter(const HeapStats &S, F &&Fn) {
#define GRIFT_GC_COUNTER(Field, Key, Gate, Doc)                               \
  Fn(CounterRef{Key, "", CounterGate::Gate, Doc, &S.Field, 0});
#define GRIFT_GC_COUNTER_ARRAY(Field, Size, Key, TotalKey, Gate, Doc)         \
  Fn(CounterRef{Key, TotalKey, CounterGate::Gate, Doc, S.Field, Size});
#include "support/Counters.def"
}

} // namespace grift

#endif // GRIFT_RUNTIME_STATS_H
