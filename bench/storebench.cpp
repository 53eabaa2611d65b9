//===----------------------------------------------------------------------===//
///
/// \file
/// Cold-vs-warm compile latency harness for the persistent program
/// store (src/store). For each benchmark/mode pair it measures
///
///   cold_compile_ns  median of fresh parse+check+compile+fuse runs
///   warm_load_ns     median of Store::load + Grift::adopt runs against
///                    a freshly constructed engine (the path griftd
///                    takes after a restart with a warm --cache-dir)
///
/// and emits one grift-bench-v1 document with both timings plus the
/// store hit/miss/corrupt/evict counters, so CI can gate the warm-start
/// SLO with tools/bench_compare.py:
///
///   storebench --out store.json
///   bench_compare.py store.json \
///       --slo 'store/synthetic:warm_over_cold_pct<=20' \
///       --slo 'store/:store_hits>=1' --slo 'store/:store_corrupt<=0'
///
/// The latency SLO is gated on the synthetic module-sized row; the tiny
/// benchmark rows (tak compiles cold in ~50us) sit inside the store's
/// fixed per-load cost and are reported for context, not gated.
///
/// Every warm executable is run once and its result text compared
/// against the cold one — a store that is fast but wrong fails here,
/// not in CI triage. Repeats come from GRIFT_BENCH_REPEATS (default 5).
///
///   storebench [--out FILE] [--cache-dir DIR]
///
/// Without --cache-dir a fresh directory is created under TMPDIR and
/// removed on exit; with it, images persist for post-mortem.
///
//===----------------------------------------------------------------------===//
#include "bench_programs/Benchmarks.h"
#include "grift/Grift.h"
#include "store/Store.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <string>
#include <vector>

#include <dirent.h>
#include <unistd.h>

using namespace grift;

namespace {

unsigned repeatsFromEnv() {
  if (const char *Env = std::getenv("GRIFT_BENCH_REPEATS")) {
    int N = std::atoi(Env);
    if (N > 0)
      return static_cast<unsigned>(N);
  }
  return 5;
}

int64_t median(std::vector<int64_t> Xs) {
  std::sort(Xs.begin(), Xs.end());
  size_t N = Xs.size();
  return (Xs[(N - 1) / 2] + Xs[N / 2]) / 2;
}

int64_t nowNanos() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Removes every regular file in \p Dir, then the directory itself.
/// Only used on directories this process created.
void removeTree(const std::string &Dir) {
  if (DIR *D = ::opendir(Dir.c_str())) {
    while (dirent *E = ::readdir(D)) {
      std::string Name = E->d_name;
      if (Name != "." && Name != "..")
        ::unlink((Dir + "/" + Name).c_str());
    }
    ::closedir(D);
  }
  ::rmdir(Dir.c_str());
}

struct Row {
  const char *Bench;
  const char *Input;
  CastMode Mode;
};

/// A chain of \p N distinct one-argument functions. Tiny benchmark
/// programs compile in tens of microseconds, where the store's fixed
/// per-load cost (open, map, checksum) dominates the ratio; this row is
/// sized like a real module so the warm/cold SLO measures the scaling
/// regime the store exists for.
std::string syntheticSource(unsigned N) {
  std::string S = "(define f0 : (Int -> Int) (lambda ([x : Int]) (+ x 1)))\n";
  for (unsigned I = 1; I != N; ++I) {
    std::string Prev = std::to_string(I - 1), Cur = std::to_string(I);
    S += "(define f" + Cur + " : (Int -> Int) (lambda ([x : Int]) (+ (f" +
         Prev + " x) " + Cur + ")))\n";
  }
  S += "(f" + std::to_string(N - 1) + " 0)\n";
  return S;
}

} // namespace

int main(int argc, char **argv) {
  std::string OutPath;
  std::string CacheDir;
  for (int I = 1; I < argc; ++I) {
    if (std::strcmp(argv[I], "--out") == 0 && I + 1 < argc) {
      OutPath = argv[++I];
    } else if (std::strcmp(argv[I], "--cache-dir") == 0 && I + 1 < argc) {
      CacheDir = argv[++I];
    } else {
      std::fprintf(stderr, "usage: storebench [--out FILE] [--cache-dir DIR]\n");
      return 2;
    }
  }

  bool OwnDir = CacheDir.empty();
  if (OwnDir) {
    const char *Tmp = std::getenv("TMPDIR");
    std::string Templ =
        std::string(Tmp && *Tmp ? Tmp : "/tmp") + "/storebench.XXXXXX";
    std::vector<char> Buf(Templ.begin(), Templ.end());
    Buf.push_back('\0');
    if (!::mkdtemp(Buf.data())) {
      std::fprintf(stderr, "storebench: mkdtemp failed\n");
      return 1;
    }
    CacheDir = Buf.data();
  }

  // Cold compilation varies from sub-millisecond (tak) to a few
  // milliseconds (ray); the spread exercises both the fixed per-load
  // cost and the per-node scaling. Every registered cast mode appears
  // (sieve × AllCastModes below) so the serializer's mode byte and the
  // coercion section (present under the coercion-compiling modes) are
  // all measured.
  const Row Rows[] = {
      {"quicksort", "128", CastMode::Coercions},
      {"tak", "16 12 6", CastMode::Coercions},
      {"ray", "10", CastMode::Coercions},
  };

  unsigned Repeats = repeatsFromEnv();

  std::string Json;
  Json += "{\n  \"schema\": \"grift-bench-v1\",\n";
  Json += "  \"repeats\": " + std::to_string(Repeats) + ",\n";
  Json += "  \"exact\": [],\n  \"results\": [\n";
  bool First = true;

  store::StoreConfig SC;
  SC.Dir = CacheDir;
  store::Store S(std::move(SC));
  if (!S.enabled()) {
    std::fprintf(stderr, "storebench: cannot use cache dir '%s'\n",
                 CacheDir.c_str());
    return 1;
  }

  struct Spec {
    std::string Name;
    std::string Source;
    std::string Input;
    CastMode Mode;
  };
  std::vector<Spec> Specs;
  {
    const BenchProgram &Sieve = getBenchmark("sieve");
    for (CastMode Mode : AllCastModes)
      Specs.push_back({"sieve", Sieve.Source, "100", Mode});
  }
  for (const Row &R : Rows) {
    const BenchProgram &B = getBenchmark(R.Bench);
    Specs.push_back({R.Bench, B.Source, R.Input, R.Mode});
  }
  Specs.push_back(
      {"synthetic/400", syntheticSource(400), "", CastMode::Coercions});

  int Status = 0;
  for (const Spec &R : Specs) {
    uint64_t Key = store::Store::key(R.Source, R.Mode, /*Optimize=*/false);

    // Cold: the full front-to-back pipeline the store short-circuits.
    std::vector<int64_t> ColdNs;
    std::string ColdResult;
    for (unsigned I = 0; I != Repeats; ++I) {
      Grift G;
      std::string Errors;
      int64_t T0 = nowNanos();
      auto Exe = G.compile(R.Source, R.Mode, Errors);
      int64_t T1 = nowNanos();
      if (!Exe) {
        std::fprintf(stderr, "storebench: compile failed for %s [%s]: %s\n",
                     R.Name.c_str(), castModeName(R.Mode), Errors.c_str());
        return 1;
      }
      ColdNs.push_back(T1 - T0);
      if (I == 0) {
        S.put(Key, Exe->program());
        RunResult Run = Exe->run(R.Input);
        if (!Run.OK) {
          std::fprintf(stderr, "storebench: cold run failed for %s [%s]\n",
                       R.Name.c_str(), castModeName(R.Mode));
          return 1;
        }
        ColdResult = Run.ResultText;
      }
    }

    // Warm: fresh engine each time — exactly a post-restart first job.
    std::vector<int64_t> WarmNs;
    for (unsigned I = 0; I != Repeats; ++I) {
      Grift G;
      VMProgram Prog;
      int64_t T0 = nowNanos();
      bool Loaded = S.load(Key, G.types(), G.coercions(), Prog);
      if (!Loaded) {
        std::fprintf(stderr, "storebench: warm load MISSED for %s [%s]: %s\n",
                     R.Name.c_str(), castModeName(R.Mode), S.lastReason().c_str());
        return 1;
      }
      Executable Exe = G.adopt(std::move(Prog));
      int64_t T1 = nowNanos();
      WarmNs.push_back(T1 - T0);
      if (I == 0) {
        RunResult Run = Exe.run(R.Input);
        if (!Run.OK || Run.ResultText != ColdResult) {
          std::fprintf(stderr,
                       "storebench: WARM RESULT DIVERGES for %s [%s]: "
                       "cold '%s' warm '%s'\n",
                       R.Name.c_str(), castModeName(R.Mode), ColdResult.c_str(),
                       Run.OK ? Run.ResultText.c_str() : "<error>");
          Status = 1;
        }
      }
    }

    int64_t Cold = median(ColdNs);
    int64_t Warm = median(WarmNs);
    uint64_t Pct =
        Cold > 0 ? static_cast<uint64_t>((Warm * 100 + Cold - 1) / Cold) : 0;
    store::StoreStats SS = S.stats();

    if (!First)
      Json += ",\n";
    First = false;
    Json += std::string("    {\"name\": \"store/") + R.Name + "\", " +
            "\"mode\": \"" + castModeName(R.Mode) + "\"";
    Json += ", \"median_ns\": " + std::to_string(Warm);
    Json += ", \"cold_compile_ns\": " + std::to_string(Cold);
    Json += ", \"warm_load_ns\": " + std::to_string(Warm);
    Json += ", \"warm_over_cold_pct\": " + std::to_string(Pct);
#define GRIFT_STORE_COUNTER(Field, Key, Doc)                                   \
  Json += ", \"store_" Key "\": " + std::to_string(SS.Field);
#include "support/Counters.def"
    Json += "}";

    std::fprintf(stderr, "store/%-12s %-11s cold %8.3f ms  warm %8.3f ms  "
                         "(%llu%%)\n",
                 R.Name.c_str(), castModeName(R.Mode), Cold / 1e6, Warm / 1e6,
                 static_cast<unsigned long long>(Pct));
  }
  Json += "\n  ]\n}\n";

  if (OutPath.empty()) {
    std::fputs(Json.c_str(), stdout);
  } else {
    std::ofstream Out(OutPath);
    if (!Out) {
      std::fprintf(stderr, "storebench: cannot open %s\n", OutPath.c_str());
      return 1;
    }
    Out << Json;
  }

  if (OwnDir)
    removeTree(CacheDir);
  return Status;
}
