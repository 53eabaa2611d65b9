//===----------------------------------------------------------------------===//
///
/// \file
/// perfbench — the repository benchmark program. Runs one named workload
/// for a fixed number of seconds from a seed, checks every operation's
/// output against a reference that does not come from the VM under test,
/// and prints a human-readable report followed by one JSON line.
///
///   perfbench --workload (lattice|heap|compile|serve) --seed N
///             --seconds S --trace (0|1) --griftd PATH --work-dir DIR
///             [--corrupt-expected]
///
/// --trace 0 reports the end-to-end metrics. --trace 1 reports the
/// per-layer metrics: every closed-loop operation runs untraced and then
/// with spans around the calls into each layer's public functions (serve:
/// the even requests traced, the odd ones untraced), the
/// difference is reported as tracing overhead, and a fixed counted pass
/// is replayed twice on fresh engines, requiring the deterministic
/// counters to repeat exactly. Spans are recorded only here, around calls
/// from outside; nothing inside src/ is instrumented.
///
/// --corrupt-expected corrupts the first reference output, so a correct
/// program must be reported as failing (the checker's self-check).
///
/// The exit status is 0 when every output and check is correct, 1 when
/// the report says correct=false, and 2 on a usage error.
///
/// perfbench/README.md explains the workloads and the metric map.
///
//===----------------------------------------------------------------------===//
#include "bench_programs/Benchmarks.h"
#include "frontend/Parser.h"
#include "frontend/TypeChecker.h"
#include "fuzz/FuzzGen.h"
#include "grift/Grift.h"
#include "lattice/Lattice.h"
#include "refinterp/RefInterp.h"
#include "service/Protocol.h"
#include "sexp/Reader.h"
#include "support/Json.h"
#include "support/RNG.h"
#include "vm/Compiler.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <climits>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <tuple>
#include <unordered_set>
#include <vector>

#include <csignal>
#include <spawn.h>
#include <sys/resource.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <sys/wait.h>
#include <unistd.h>

using namespace grift;

namespace {

using Clock = std::chrono::steady_clock;

int64_t nanosSince(Clock::time_point T0) {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                              T0)
      .count();
}

uint64_t fnv(const std::string &S) {
  uint64_t H = 1469598103934665603ull;
  for (char C : S) {
    H ^= static_cast<unsigned char>(C);
    H *= 1099511628211ull;
  }
  return H;
}

double median(std::vector<double> Xs) {
  if (Xs.empty())
    return 0;
  std::sort(Xs.begin(), Xs.end());
  size_t N = Xs.size();
  return (Xs[(N - 1) / 2] + Xs[N / 2]) / 2;
}

/// Nearest-rank percentile \p Q of \p Xs, or nullopt when fewer than ten
/// samples lie beyond it (too few to estimate that tail).
std::optional<double> tailPercentile(std::vector<double> Xs, double Q) {
  size_t N = Xs.size();
  size_t Rank = static_cast<size_t>(std::ceil(Q * static_cast<double>(N)));
  if (N == 0 || N - Rank < 10)
    return std::nullopt;
  std::sort(Xs.begin(), Xs.end());
  return Xs[Rank - 1];
}

double peakRssMb(int Who) {
  rusage U{};
  getrusage(Who, &U);
  return static_cast<double>(U.ru_maxrss) / 1024.0; // ru_maxrss is KiB
}

//===----------------------------------------------------------------------===//
// Host speed: a fixed kernel, timed next to the work, that every absolute
// time metric is scaled by.
//===----------------------------------------------------------------------===//

/// The kernel's time on the reference host speed. setup_s, ops_per_s and
/// latency_ms_p50 are reported at that speed: multiplied by NominalCalMs over the kernel's
/// time measured next to it (see README.md, "Timing on a noisy host").
constexpr double NominalCalMs = 0.5;

/// One execution of the calibration kernel, in ms. It calls no repository
/// code, so a change to the program under test leaves it unchanged. It
/// resembles an interpreter's inner loop: an unpredictable four-way
/// branch on a data-dependent value, and loads and stores spread over a
/// 256 KiB table.
double calibrationMs() {
  static std::vector<uint32_t> Table(1u << 16, 1);
  static volatile uint32_t Sink;
  auto T0 = Clock::now();
  uint32_t Acc = 2166136261u;
  for (uint32_t I = 0; I != 50'000; ++I) {
    uint32_t &Slot = Table[(Acc ^ I) & 0xFFFF];
    switch ((Acc >> 11) & 3) {
    case 0:
      Acc = Acc * 2654435761u + Slot;
      break;
    case 1:
      Acc ^= Slot >> 3;
      Slot += Acc;
      break;
    case 2:
      Acc += I;
      Slot ^= Acc;
      break;
    default:
      Acc = (Acc << 5 | Acc >> 27) + 1;
      break;
    }
  }
  Sink = Acc;
  return nanosSince(T0) / 1e6;
}

/// The host-speed scale now: NominalCalMs over the fastest of three kernel
/// executions (best of three, as the closed-loop operations are timed, so
/// a short stall hits neither).
double hostScale() {
  double Best = HUGE_VAL;
  for (int I = 0; I != 3; ++I)
    Best = std::min(Best, calibrationMs());
  return NominalCalMs / Best;
}

/// The host's speed through a measured loop: a hostScale() sample at most
/// every PeriodMs, and the scale of an operation that ended at a given
/// time as the median of the samples within WindowMs of it.
class HostSpeed {
public:
  static constexpr double PeriodMs = 25, WindowMs = 1500;

  explicit HostSpeed(Clock::time_point T0) : T0(T0) {}

  double nowMs() const { return nanosSince(T0) / 1e6; }

  void sample() {
    double Scale = hostScale();
    Samples.push_back({nowMs(), Scale});
  }
  /// Samples when PeriodMs have passed since the last sample.
  void maybeSample() {
    if (Samples.empty() || nowMs() - Samples.back().first >= PeriodMs)
      sample();
  }

  double scaleAt(double Ms) const {
    std::vector<double> Near;
    for (auto &[At, Scale] : Samples)
      if (std::abs(At - Ms) <= WindowMs)
        Near.push_back(Scale);
    if (Near.empty() && !Samples.empty()) // sampling stalled: the nearest
      Near.push_back(std::min_element(Samples.begin(), Samples.end(),
                                      [&](auto &A, auto &B) {
                                        return std::abs(A.first - Ms) <
                                               std::abs(B.first - Ms);
                                      })
                         ->second);
    return median(Near);
  }

private:
  Clock::time_point T0;
  std::vector<std::pair<double, double>> Samples; ///< (ms since T0, scale)
};

//===----------------------------------------------------------------------===//
// Tracing: spans recorded around calls into each layer, kept in memory.
//===----------------------------------------------------------------------===//

struct Span {
  const char *Name;
  int64_t StartNs, EndNs;
  int Parent; ///< index of the enclosing span, -1 at top level
  uint64_t Op; ///< operation the span belongs to
};

class Tracer {
public:
  class Scope {
  public:
    Scope(Tracer *T, const char *Name) : T(T) {
      if (T)
        Index = T->open(Name);
    }
    ~Scope() {
      if (T)
        T->close(Index);
    }
    Scope(const Scope &) = delete;
    Scope &operator=(const Scope &) = delete;

  private:
    Tracer *T;
    int Index = -1;
  };

  void beginOp(uint64_t Op) { CurrentOp = Op; }

  /// Records a span timed by the caller (spans from client threads).
  void record(const char *Name, Clock::time_point Start,
              Clock::time_point End, uint64_t Op) {
    auto Ns = [&](Clock::time_point P) {
      return std::chrono::duration_cast<std::chrono::nanoseconds>(P - T0)
          .count();
    };
    Spans.push_back({Name, Ns(Start), Ns(End), -1, Op});
  }

  /// Durations (ns) of every span named \p Name, keyed by operation.
  std::map<uint64_t, int64_t> byOp(const char *Name) const {
    std::map<uint64_t, int64_t> Out;
    for (const Span &S : Spans)
      if (std::strcmp(S.Name, Name) == 0)
        Out[S.Op] += S.EndNs - S.StartNs;
    return Out;
  }

  /// Median duration in µs of spans named \p Name minus the same
  /// operation's spans named \p Minus (when given).
  double medianUs(const char *Name, const char *Minus = nullptr) const {
    std::map<uint64_t, int64_t> A = byOp(Name), B;
    if (Minus)
      B = byOp(Minus);
    std::vector<double> Xs;
    for (auto &[Op, Ns] : A)
      Xs.push_back(static_cast<double>(Ns - (Minus ? B[Op] : 0)) / 1e3);
    return median(Xs);
  }

  int64_t totalNs(const char *Name) const {
    int64_t Sum = 0;
    for (const Span &S : Spans)
      if (std::strcmp(S.Name, Name) == 0)
        Sum += S.EndNs - S.StartNs;
    return Sum;
  }

private:
  std::vector<Span> Spans;
  std::vector<int> Open;
  uint64_t CurrentOp = 0;
  Clock::time_point T0 = Clock::now();

  int open(const char *Name) {
    Spans.push_back({Name, nanosSince(T0), 0, Open.empty() ? -1 : Open.back(),
                     CurrentOp});
    Open.push_back(static_cast<int>(Spans.size() - 1));
    return Open.back();
  }
  void close(int Index) {
    Spans[Index].EndNs = nanosSince(T0);
    Open.pop_back();
  }
};

//===----------------------------------------------------------------------===//
// Report: the metrics one run prints, plus the correctness tally.
//===----------------------------------------------------------------------===//

struct Report {
  struct Metric {
    std::string Name;
    double Value;
    std::string Unit;
  };
  std::vector<Metric> Metrics;
  std::vector<std::string> Notes;
  uint64_t Attempted = 0, Failed = 0;
  bool ChecksPassed = true; ///< workload-level checks beyond outputs

  void add(std::string Name, double Value, std::string Unit) {
    Metrics.push_back({std::move(Name), Value, std::move(Unit)});
  }
  void note(std::string Line) { Notes.push_back(std::move(Line)); }
  void check(bool OK, const std::string &What) {
    if (!OK) {
      ChecksPassed = false;
      note("CHECK FAILED: " + What);
    }
  }
  bool correct() const { return Failed == 0 && ChecksPassed; }

  void print(const std::string &Workload) const {
    for (const std::string &N : Notes)
      std::printf("%s: %s\n", Workload.c_str(), N.c_str());
    std::printf("%s: attempted %llu, failed %llu, error_rate %.6f\n",
                Workload.c_str(), static_cast<unsigned long long>(Attempted),
                static_cast<unsigned long long>(Failed),
                Attempted ? static_cast<double>(Failed) / Attempted : 0.0);
    for (const Metric &M : Metrics)
      std::printf("%s: %-34s %.6g %s\n", Workload.c_str(), M.Name.c_str(),
                  M.Value, M.Unit.c_str());
    std::string J = "{\"correct\": ";
    J += correct() ? "true" : "false";
    J += ", \"attempted\": " + std::to_string(std::max<uint64_t>(Attempted, 1));
    J += ", \"failed\": " + std::to_string(Failed) + ", \"metrics\": {";
    for (size_t I = 0; I != Metrics.size(); ++I) {
      char Num[64];
      std::snprintf(Num, sizeof Num, "%.17g",
                    std::isfinite(Metrics[I].Value) ? Metrics[I].Value : 0.0);
      J += (I ? ", \"" : "\"") + Metrics[I].Name + "\": {\"value\": " + Num +
           ", \"unit\": \"" + Metrics[I].Unit + "\"}";
    }
    J += "}}";
    std::printf("%s\n", J.c_str());
  }
};

/// Prints an end-to-end metric that carries no bound in BENCHMARK.json
/// (see README.md, "Printed only").
void notePrinted(Report &R, const char *Name, double Value, const char *Unit) {
  char Line[128];
  std::snprintf(Line, sizeof Line, "%s %.6g %s (printed only)", Name, Value,
                Unit);
  R.note(Line);
}

/// The p99 is printed only when at least ten samples lie beyond it.
void noteP99(Report &R, std::optional<double> P99, size_t Samples) {
  if (P99)
    notePrinted(R, "latency_ms_p99", *P99, "ms");
  else
    R.note("latency_ms_p99: too few samples (" + std::to_string(Samples) +
           ") for ten beyond p99; not printed");
}

/// The latency median of each fifth of the run, in order: a drift over
/// the run (a cache or store that slows as it fills) shows here.
void noteDrift(Report &R, const std::vector<double> &LatMs) {
  std::string Line = "latency_ms_p50 by fifth of the run:";
  size_t M = LatMs.size();
  for (size_t W = 0; W != 5; ++W) {
    char Num[32];
    std::snprintf(Num, sizeof Num, " %.3f",
                  median({LatMs.begin() + W * M / 5,
                          LatMs.begin() + (W + 1) * M / 5}));
    Line += Num;
  }
  R.note(Line);
}

/// Set-up times: each set-up's seconds, raw and at the reference speed.
/// A run repeats its set-up while more() holds: at least MinSamples
/// times, and on for BudgetS (up to MaxSamples), so a set-up of a few
/// milliseconds gets a median over hundreds of samples.
struct SetupTimes {
  static constexpr size_t MinSamples = 21, MaxSamples = 501;
  static constexpr double BudgetS = 2;

  std::vector<double> RawS, AtMs;
  Clock::time_point T0 = Clock::now();
  HostSpeed Speed{T0};

  bool more() const {
    return RawS.size() < MinSamples ||
           (RawS.size() < MaxSamples && nanosSince(T0) / 1e9 < BudgetS);
  }

  /// Times \p SetUp, then samples the host's speed.
  template <typename F> void measure(F SetUp) {
    auto S0 = Clock::now();
    SetUp();
    RawS.push_back(nanosSince(S0) / 1e9);
    AtMs.push_back(Speed.nowMs());
    Speed.sample();
  }

  /// Each set-up's seconds at the reference speed.
  std::vector<double> scaled() const {
    std::vector<double> S;
    for (size_t I = 0; I != RawS.size(); ++I)
      S.push_back(RawS[I] * Speed.scaleAt(AtMs[I]));
    return S;
  }
};

/// setup_s: the median of the run's set-ups, with their range noted.
void addSetup(Report &R, const SetupTimes &Setup) {
  std::vector<double> S = Setup.scaled();
  R.add("setup_s", median(S), "s");
  auto [Lo, Hi] = std::minmax_element(S.begin(), S.end());
  char Line[128];
  std::snprintf(Line, sizeof Line, "set-up samples: %zu, from %.6f to %.6f s",
                S.size(), *Lo, *Hi);
  R.note(Line);
  notePrinted(R, "setup_s_raw", median(Setup.RawS), "s");
}

/// End-to-end latency metrics from per-operation samples (ms at the
/// reference speed), and the raw median for comparison.
void addLatency(Report &R, const std::vector<double> &LatMs,
                const std::vector<double> &RawLatMs) {
  R.add("latency_ms_p50", median(LatMs), "ms");
  R.note("latency samples: " + std::to_string(LatMs.size()));
  noteP99(R, tailPercentile(LatMs, 0.99), LatMs.size());
  noteDrift(R, LatMs);
  notePrinted(R, "latency_ms_p50_raw", median(RawLatMs), "ms");
}

//===----------------------------------------------------------------------===//
// Work items, references and output checking.
//===----------------------------------------------------------------------===//

/// What an operation must produce, taken from src/refinterp or from a
/// recorded BenchProgram::TestOutput — never from the VM under test.
struct Expected {
  std::string Output;
  std::string Result;
};

struct Item {
  std::string Source;
  std::string Input;
  CastMode Mode = CastMode::Coercions;
  Expected Exp;
  bool HasTimeRegion = false; ///< suite programs wrap their kernel in (time)
  int Group = 0;              ///< row / program the item belongs to
  RunLimits Limits;
  /// A seed-independent point of the lattice (fully dynamic, or one of
  /// the paper's figure programs); slowdown_max ranges over these.
  bool Fixed = false;
};

/// Reference result of \p Source on \p Input from the reference
/// interpreter, in an engine separate from the one under test.
std::optional<Expected> reference(Grift &RefG, const std::string &Source,
                                  const std::string &Input) {
  std::string Errors;
  std::optional<Program> Ast = RefG.parse(Source, Errors);
  if (!Ast)
    return std::nullopt;
  std::optional<core::CoreProgram> Core = RefG.check(*Ast, Errors);
  if (!Core)
    return std::nullopt;
  RunLimits Limits;
  Limits.MaxSteps = 50'000'000;
  refinterp::RefResult R =
      refinterp::interpret(RefG.types(), RefG.coercions(), *Core, Input, Limits);
  if (!R.OK)
    return std::nullopt;
  return Expected{R.Output, R.ResultText};
}

bool matches(const RunResult &R, const Expected &E) {
  return R.OK && R.Output == E.Output && R.ResultText == E.Result;
}

//===----------------------------------------------------------------------===//
// Compilation, whole (Grift::compile) or split into its public layer
// functions with a span around each.
//===----------------------------------------------------------------------===//

std::optional<Executable> compileItem(Grift &G, const Item &It, Tracer *T) {
  std::string Errors;
  if (!T)
    return G.compile(It.Source, It.Mode, Errors);
  // The traced path calls the same functions Grift::compile calls, plus
  // one extra readSexps so the reader's share of parseProgram shows.
  {
    Tracer::Scope S(T, "sexp.read");
    DiagnosticEngine Diags;
    readSexps(It.Source, Diags);
  }
  Tracer::Scope Whole(T, "grift.compile");
  DiagnosticEngine Diags;
  std::optional<Program> Ast;
  {
    Tracer::Scope S(T, "frontend.parse");
    Ast = parseProgram(G.types(), It.Source, Diags);
  }
  if (!Ast || Diags.hasErrors())
    return std::nullopt;
  std::optional<core::CoreProgram> Core;
  {
    Tracer::Scope S(T, "frontend.check");
    Core = typeCheck(G.types(), *Ast, Diags);
  }
  if (!Core || Diags.hasErrors())
    return std::nullopt;
  std::optional<VMProgram> Prog;
  {
    Tracer::Scope S(T, "vm.codegen");
    Prog = compileProgram(*Core, G.types(), G.coercions(), It.Mode, Errors);
  }
  if (!Prog)
    return std::nullopt;
  return G.adopt(std::move(*Prog));
}

/// Runs \p Exe once; on a traced run the call gets a span.
RunResult runItem(const Executable &Exe, const Item &It, Tracer *T) {
  Tracer::Scope S(T, "vm.run");
  return Exe.run(It.Input, It.Limits);
}

//===----------------------------------------------------------------------===//
// Per-layer counters over a fixed counted pass.
//===----------------------------------------------------------------------===//

struct Counters {
  // Deterministic: must repeat exactly for the same seed.
  uint64_t Steps = 0, Casts = 0, Compositions = 0, Nodes = 0, AllocBytes = 0,
           AllocObjects = 0, GcMinor = 0, GcMajor = 0, PromotedBytes = 0;
  // Machine- or history-dependent.
  uint64_t CacheHits = 0, CacheMisses = 0, LongestChain = 0, RemSetPeak = 0,
           PeakHeap = 0, PauseTotalNs = 0, PauseMaxNs = 0, RunWallNs = 0;

  void add(const RunResult &R) {
    const RuntimeStats &S = R.Stats;
    Steps += R.Steps;
    Casts += S.CastsApplied;
    Compositions += S.Compositions;
    AllocBytes += S.AllocBytes;
    AllocObjects += S.allocObjects();
    GcMinor += S.MinorCollections;
    GcMajor += S.Collections;
    PromotedBytes += S.PromotedBytes;
    CacheHits += S.CacheHits;
    CacheMisses += S.CacheMisses;
    LongestChain = std::max(LongestChain, S.LongestProxyChain);
    RemSetPeak = std::max(RemSetPeak, S.RememberedSetPeak);
    PeakHeap = std::max<uint64_t>(PeakHeap, R.PeakHeapBytes);
    PauseTotalNs += S.GCPauseTotalNs;
    PauseMaxNs = std::max(PauseMaxNs, S.GCPauseMaxNs);
    RunWallNs += static_cast<uint64_t>(R.WallNanos);
  }

  struct Exact {
    const char *Name;
    uint64_t Value;
    const char *Unit;
  };
  std::vector<Exact> exact() const {
    return {{"vm.steps", Steps, "count"},
            {"runtime.casts", Casts, "count"},
            {"coercions.compositions", Compositions, "count"},
            {"coercions.nodes_allocated", Nodes, "count"},
            {"runtime.alloc_bytes", AllocBytes, "bytes"},
            {"runtime.alloc_objects", AllocObjects, "count"},
            {"runtime.gc_minor", GcMinor, "count"},
            {"runtime.gc_major", GcMajor, "count"},
            {"runtime.promoted_bytes", PromotedBytes, "bytes"}};
  }

  void report(Report &R) const {
    for (const Exact &E : exact())
      R.add(E.Name, static_cast<double>(E.Value), E.Unit);
    uint64_t Lookups = CacheHits + CacheMisses;
    R.add("runtime.cast_cache_hit_ratio",
          Lookups ? static_cast<double>(CacheHits) / Lookups : 0.0, "ratio");
    R.add("runtime.cast_cache_lookups", static_cast<double>(Lookups), "count");
    R.add("runtime.longest_chain", static_cast<double>(LongestChain), "count");
    R.add("runtime.gc_pause_ms_total", PauseTotalNs / 1e6, "ms");
    R.add("runtime.gc_pause_ms_max", PauseMaxNs / 1e6, "ms");
    R.add("runtime.gc_share",
          RunWallNs ? static_cast<double>(PauseTotalNs) / RunWallNs : 0.0,
          "ratio");
    R.add("runtime.remembered_set_peak", static_cast<double>(RemSetPeak),
          "count");
    R.add("runtime.peak_heap_bytes", static_cast<double>(PeakHeap), "bytes");
  }
};

/// Compiles and runs every item once. With \p CompileFirst (lattice,
/// heap: compilation is set-up there), one engine compiles all items
/// before any runs and the coercion-node count covers the runs only.
/// Otherwise (compile, serve) each item is compiled and run on a fresh
/// engine, as in the measured loop. Failed outputs count in \p Failures.
Counters countedPass(const std::vector<Item> &Items, bool CompileFirst,
                     uint64_t &Failures) {
  Counters C;
  auto G = std::make_unique<Grift>();
  std::vector<std::optional<Executable>> Exes;
  if (CompileFirst)
    for (const Item &It : Items)
      Exes.push_back(compileItem(*G, It, nullptr));
  for (size_t I = 0; I != Items.size(); ++I) {
    if (!CompileFirst)
      G = std::make_unique<Grift>();
    size_t NodesBefore = G->coercions().allocatedNodes();
    std::optional<Executable> Exe = CompileFirst
                                        ? std::move(Exes[I])
                                        : compileItem(*G, Items[I], nullptr);
    if (!Exe) {
      ++Failures;
      continue;
    }
    RunResult R = Exe->run(Items[I].Input, Items[I].Limits);
    if (!matches(R, Items[I].Exp))
      ++Failures;
    C.add(R);
    C.Nodes += G->coercions().allocatedNodes() - NodesBefore;
  }
  return C;
}

/// Runs the counted pass twice and requires the deterministic counters
/// to agree exactly; reports the pass's counters.
void reportCountedPass(Report &R, const std::vector<Item> &Items,
                       bool CompileFirst) {
  uint64_t Failures = 0;
  Counters A = countedPass(Items, CompileFirst, Failures);
  Counters B = countedPass(Items, CompileFirst, Failures);
  R.Attempted += 2 * Items.size();
  R.Failed += Failures;
  auto EA = A.exact(), EB = B.exact();
  for (size_t I = 0; I != EA.size(); ++I)
    R.check(EA[I].Value == EB[I].Value,
            std::string("exact counter ") + EA[I].Name + " differs: " +
                std::to_string(EA[I].Value) + " vs " +
                std::to_string(EB[I].Value));
  R.note("counted pass: " + std::to_string(Items.size()) +
         " items, run twice on fresh engines; exact counters " +
         (R.ChecksPassed ? "repeat" : "DIFFER"));
  A.report(R);
}

/// Front-end and codegen span metrics.
void reportFrontEnd(Report &R, const Tracer &T, uint64_t SourceBytes) {
  R.add("sexp.read_us", T.medianUs("sexp.read"), "us");
  int64_t ReadNs = T.totalNs("sexp.read");
  R.add("sexp.mb_per_s",
        ReadNs ? static_cast<double>(SourceBytes) / 1e6 / (ReadNs / 1e9) : 0.0,
        "MB/s");
  R.add("frontend.parse_us", T.medianUs("frontend.parse", "sexp.read"), "us");
  R.add("frontend.check_us", T.medianUs("frontend.check"), "us");
  R.add("vm.codegen_us", T.medianUs("vm.codegen"), "us");
}

/// The service and store layers exist only in griftd (serve); on the
/// in-process workloads they did nothing.
void reportNoService(Report &R) {
  for (const char *Name :
       {"store.hits", "store.misses", "service.rejected", "service.retries"})
    R.add(Name, 0, "count");
  for (const char *Name :
       {"store.hit_ratio", "service.compile_cache_hit_ratio"})
    R.add(Name, 0, "ratio");
  for (const char *Name : {"service.exec_ms_p50", "service.overhead_ms_p50",
                           "service.roundtrip_ms_p50", "loadgen.late_ms_p99"})
    R.add(Name, 0, "ms");
}

//===----------------------------------------------------------------------===//
// Closed-loop statistics shared by lattice, heap and compile.
//===----------------------------------------------------------------------===//

/// Every closed-loop operation is executed Reps times back to back and
/// timed by its fastest execution. The virtual machines this benchmark
/// was tuned on lose their CPU to the host for several milliseconds at a
/// time (one pure ALU loop measured anywhere from 35 to 220 ms), so any
/// single execution may absorb a stall. The fastest of three executions
/// of a run lasting a few milliseconds almost always escapes it. The
/// work itself repeats in every execution: casts, allocation and
/// collections.
constexpr int Reps = 3;

/// A closed loop runs for the requested seconds, and on past them until
/// it has the 1000 operations a p99 with ten samples beyond it needs (on
/// a slow or stalled host).
constexpr uint64_t MinOps = 1000;

/// One operation: the fastest of its Reps executions.
struct Best {
  double LatMs = HUGE_VAL;
  int64_t TimedNs = INT64_MAX; ///< fastest (time ...) region, else run wall
  RunResult Run;               ///< the fastest execution's result
  bool OK = true;              ///< every execution produced the reference

  void add(double Ms, RunResult R, const Item &It) {
    OK = OK && matches(R, It.Exp);
    TimedNs = std::min(TimedNs, R.Stats.TimedNanos >= 0 ? R.Stats.TimedNanos
                                                        : R.WallNanos);
    if (Ms < LatMs) {
      LatMs = Ms;
      Run = std::move(R);
    }
  }
};

struct LoopStats {
  std::vector<double> RawLatMs; ///< as measured
  std::vector<double> AtMs;     ///< when each operation ended
  std::vector<double> LatMs;    ///< at the reference speed, by scale()
  double BusyNs = 0, RawBusyNs = 0;
  uint64_t Steps = 0;
  int64_t RunWallNs = 0;
  std::vector<double> RunSetupUs; ///< run wall minus (time) region
  uint64_t Ops = 0;

  /// Adds an operation that ended at \p EndMs (HostSpeed::nowMs()).
  void add(const Best &B, const Item &It, double EndMs) {
    addLatency(B.LatMs, EndMs);
    Steps += B.Run.Steps;
    RunWallNs += B.Run.WallNanos;
    if (It.HasTimeRegion && B.Run.Stats.TimedNanos >= 0)
      RunSetupUs.push_back(
          static_cast<double>(B.Run.WallNanos - B.Run.Stats.TimedNanos) /
          1e3);
  }
  void addLatency(double Ms, double EndMs) {
    RawLatMs.push_back(Ms);
    AtMs.push_back(EndMs);
    RawBusyNs += Ms * 1e6;
    ++Ops;
  }
  /// Puts every latency at the reference speed, once the loop is over.
  void scale(const HostSpeed &Speed) {
    for (size_t I = 0; I != RawLatMs.size(); ++I) {
      LatMs.push_back(RawLatMs[I] * Speed.scaleAt(AtMs[I]));
      BusyNs += LatMs.back() * 1e6;
    }
  }
  double opsPerSec() const { return BusyNs > 0 ? Ops / (BusyNs / 1e9) : 0; }
  double rawOpsPerSec() const {
    return RawBusyNs > 0 ? Ops / (RawBusyNs / 1e9) : 0;
  }
};

/// ops_per_s and the latency metrics of a closed loop.
void addThroughput(Report &R, const LoopStats &S) {
  R.add("ops_per_s", S.opsPerSec(), "1/s");
  notePrinted(R, "ops_per_s_raw", S.rawOpsPerSec(), "1/s");
  addLatency(R, S.LatMs, S.RawLatMs);
}

/// Tracing overhead: the traced half's end-to-end numbers minus the
/// untraced half's.
void reportOverhead(Report &R, const LoopStats &Plain,
                    const LoopStats &Traced) {
  R.add("trace.overhead_ms_p50", median(Traced.LatMs) - median(Plain.LatMs),
        "ms");
  double P = Plain.opsPerSec();
  R.add("trace.overhead_ops_pct",
        P > 0 ? (P - Traced.opsPerSec()) / P * 100 : 0.0, "%");
}

void reportVmTimes(Report &R, const LoopStats &S) {
  R.add("vm.run_setup_us", median(S.RunSetupUs), "us");
  R.add("vm.ns_per_step",
        S.Steps ? static_cast<double>(S.RunWallNs) / S.Steps : 0.0, "ns");
}

//===----------------------------------------------------------------------===//
// lattice and heap: precompiled programs run in rounds.
//===----------------------------------------------------------------------===//

/// One program of a rounds workload: a fully typed top run in static mode
/// (the same-run denominator) and gradual configurations of it.
struct Row {
  std::string Name;
  std::string Input;
  Item Top;                 ///< static mode
  std::vector<Item> Configs; ///< gradual configurations
};

std::vector<Item> flatten(const std::vector<Row> &Rows) {
  std::vector<Item> Items;
  for (size_t I = 0; I != Rows.size(); ++I) {
    Items.push_back(Rows[I].Top);
    Items.back().Group = static_cast<int>(I);
    for (const Item &C : Rows[I].Configs) {
      Items.push_back(C);
      Items.back().Group = static_cast<int>(I);
    }
  }
  return Items;
}

/// Compiles every item on a fresh engine. Every item is a well-typed
/// program, so a compile failure is a defect the run cannot measure
/// around: it is reported and the run aborts.
void compileAll(const std::vector<Item> &Items, std::unique_ptr<Grift> &G,
                std::vector<Executable> &Exes, Tracer *T) {
  G = std::make_unique<Grift>();
  Exes.clear();
  for (size_t I = 0; I != Items.size(); ++I) {
    if (T)
      T->beginOp(I);
    std::optional<Executable> E = compileItem(*G, Items[I], T);
    if (!E) {
      std::fprintf(stderr, "perfbench: failed to compile:\n%s\n",
                   Items[I].Source.c_str());
      std::exit(1);
    }
    Exes.push_back(std::move(*E));
  }
}

struct RoundsResult {
  LoopStats Plain, Traced;
  /// Per gradual item, its (time ...) region over that of its row's
  /// static top in the top's most recent operation, one per operation.
  std::vector<std::vector<double>> Ratios;
  Counters Loop; ///< every run of the measured loop
};

/// Runs the items in \p Schedule order, pass after pass, until \p Seconds
/// have passed.
RoundsResult runRounds(const std::vector<Item> &Items,
                       const std::vector<Executable> &Exes,
                       const std::vector<size_t> &Schedule, double Seconds,
                       bool Trace, Tracer *T, Report &R) {
  RoundsResult Out;
  Out.Ratios.resize(Items.size());
  std::vector<double> LastTopNs(Items.size(), 0); // indexed by Group
  auto T0 = Clock::now();
  HostSpeed Speed(T0);
  int64_t Budget = static_cast<int64_t>(Seconds * 1e9);
  uint64_t Op = 0;
  while (nanosSince(T0) < Budget || Op < MinOps) {
    for (size_t I : Schedule) {
      if (nanosSince(T0) >= Budget && Op >= MinOps)
        break;
      // A traced run executes every operation untraced and then traced,
      // so the overhead compares the same work.
      Best Plain, B;
      for (Tracer *Active : {static_cast<Tracer *>(nullptr), T}) {
        if (Active && !Trace)
          break;
        Best Pass;
        for (int Rep = 0; Rep != Reps; ++Rep) {
          if (Active)
            Active->beginOp(Op * Reps + Rep);
          auto S0 = Clock::now();
          RunResult Run = runItem(Exes[I], Items[I], Active);
          Pass.add(nanosSince(S0) / 1e6, std::move(Run), Items[I]);
        }
        (Active ? B : Plain) = std::move(Pass);
      }
      double At = Speed.nowMs();
      Out.Plain.add(Plain, Items[I], At);
      if (Trace)
        Out.Traced.add(B, Items[I], At);
      else
        B = std::move(Plain);
      Speed.maybeSample();
      ++Op;
      ++R.Attempted;
      R.Failed += !(Plain.OK && B.OK);
      // The ratio pairs each operation with its top's latest one, a few
      // milliseconds earlier, so a host slowdown lasting longer than
      // that scales both sides and cancels.
      double &Top = LastTopNs[Items[I].Group];
      if (Items[I].Mode == CastMode::Static)
        Top = static_cast<double>(B.TimedNs);
      else if (Top > 0)
        Out.Ratios[I].push_back(B.TimedNs / Top);
      Out.Loop.add(B.Run);
    }
  }
  Speed.sample();
  Out.Plain.scale(Speed);
  Out.Traced.scale(Speed);
  return Out;
}

/// Same-run slowdowns: each gradual item's median paired ratio. Returns
/// {geomean over every gradual item, max over the Fixed items, max over
/// every gradual item}.
std::tuple<double, double, double> slowdowns(const std::vector<Item> &Items,
                                             const RoundsResult &RR) {
  double LogSum = 0, FixedMax = 0, Max = 0;
  size_t N = 0;
  for (size_t I = 0; I != Items.size(); ++I) {
    if (RR.Ratios[I].empty())
      continue;
    double Ratio = median(RR.Ratios[I]);
    LogSum += std::log(Ratio);
    Max = std::max(Max, Ratio);
    if (Items[I].Fixed)
      FixedMax = std::max(FixedMax, Ratio);
    ++N;
  }
  return {N ? std::exp(LogSum / N) : 0.0, FixedMax, Max};
}

/// A row's static top runs before every TopEvery-th of its
/// configurations, and its Fixed configurations rerun before every
/// FixedEvery-th, so slowdown_max rests on several paired ratios. The
/// counted pass takes each row's first CountedConfigs configurations.
constexpr size_t TopEvery = 4, FixedEvery = 16, CountedConfigs = 10;

/// Interleaves the rows' items so any prefix of a pass is a balanced mix
/// of programs: step C runs configuration C of every row. Also picks the
/// counted pass: every top plus each row's first CountedConfigs
/// configurations.
std::vector<size_t> interleave(const std::vector<Row> &Rows,
                               const std::vector<Item> &Items,
                               std::vector<Item> &Counted) {
  std::vector<size_t> First(Rows.size());
  size_t Longest = 0;
  for (size_t I = 0, At = 0; I != Rows.size(); ++I) {
    First[I] = At;
    At += 1 + Rows[I].Configs.size();
    Longest = std::max(Longest, Rows[I].Configs.size());
  }
  std::vector<size_t> Schedule;
  for (size_t C = 0; C != Longest; ++C)
    for (size_t I = 0; I != Rows.size(); ++I) {
      if (C >= Rows[I].Configs.size())
        continue;
      if (C % TopEvery == 0)
        Schedule.push_back(First[I]);
      if (C % FixedEvery == 0 && C != 0)
        for (size_t K = 0; K != Rows[I].Configs.size(); ++K)
          if (Rows[I].Configs[K].Fixed)
            Schedule.push_back(First[I] + 1 + K);
      Schedule.push_back(First[I] + 1 + C);
      if (C == 0)
        Counted.push_back(Items[First[I]]);
      if (C < CountedConfigs)
        Counted.push_back(Items[First[I] + 1 + C]);
    }
  return Schedule;
}

/// Shared body of lattice and heap. Returns the counters of every run in
/// the measured loop.
Counters runRowsWorkload(const std::vector<Row> &Rows, double Seconds,
                         bool Trace, Report &R) {
  std::vector<Item> Items = flatten(Rows), Counted;
  std::vector<size_t> Schedule = interleave(Rows, Items, Counted);
  R.note("items: " + std::to_string(Items.size()) + " in " +
         std::to_string(Rows.size()) + " programs");
  std::unique_ptr<Grift> G;
  std::vector<Executable> Exes;
  Tracer T;
  SetupTimes Setup;
  while (Setup.more())
    Setup.measure([&] { compileAll(Items, G, Exes, nullptr); });
  // A traced run records spans on one more, untimed set-up.
  if (Trace)
    compileAll(Items, G, Exes, &T);
  RoundsResult RR = runRounds(Items, Exes, Schedule, Seconds, Trace, &T, R);
  const LoopStats &Main = Trace ? RR.Traced : RR.Plain;
  if (!Trace) {
    addSetup(R, Setup);
    addThroughput(R, Main);
    auto [Geo, FixedMax, SampleMax] = slowdowns(Items, RR);
    R.add("slowdown_geomean", Geo, "x");
    R.add("slowdown_max", FixedMax, "x");
    notePrinted(R, "slowdown_max_sampled", SampleMax, "x");
    notePrinted(R, "peak_rss_mb", peakRssMb(RUSAGE_SELF), "MB");
  } else {
    uint64_t Bytes = 0;
    for (const Item &It : Items)
      Bytes += It.Source.size();
    reportFrontEnd(R, T, Bytes);
    reportVmTimes(R, Main);
    reportOverhead(R, RR.Plain, RR.Traced);
    reportCountedPass(R, Counted, /*CompileFirst=*/true);
    reportNoService(R);
  }
  return RR.Loop;
}

//===----------------------------------------------------------------------===//
// lattice
//===----------------------------------------------------------------------===//

/// Figure 2's even/odd with every Dyn replaced by its static type: the
/// fully typed top of the lattice the figure's program lives in.
const char *EvenOddTyped = R"(
(define even? : (Int (Bool -> Bool) -> Bool)
  (lambda ([n : Int] [k : (Bool -> Bool)])
    (if (= n 0)
        (k #t)
        (odd? (- n 1) k))))

(define odd? : (Int (Bool -> Bool) -> Bool)
  (lambda ([n : Int] [k : (Bool -> Bool)])
    (if (= n 0)
        (k #f)
        (even? (- n 1) k))))

(define n : Int (read-int))
(define r : Bool
  (time (even? n (lambda ([b : Bool]) b))))
(print-bool r)
)";

/// Inputs scaled so a run takes one to a few milliseconds on a 2.1 GHz
/// x86 core (a dynamic configuration up to a few times that): short
/// enough that the fastest of Reps executions escapes host stalls, and
/// that a 20 s run completes well over the 1000 operations a p99 needs.
struct LatticeSpec {
  const char *Name;
  const char *Input;
};
constexpr LatticeSpec LatticeRows[] = {
    {"sieve", "60"},          {"n-body", "200"},   {"tak", "14 10 5"},
    {"ray", "22"},            {"blackscholes", "1500"},
    {"matmult", "22"},        {"matmult-float", "22"},
    {"quicksort", "80"},      {"fft", "512"},      {"evenodd", "20000"},
};
/// About 120 distinct configurations per program in 12 precision bins:
/// the finer the strata and the larger the sample, the less the seed's
/// sample moves ops_per_s and the latency median (with 6 bins of 5 the
/// mean slowdown moved by a few percent between seeds). A 20 s run passes
/// over each item once or twice, so each item's median paired ratio rests
/// on one or two operations, and slowdown_geomean on about a thousand
/// items.
constexpr unsigned LatticeBins = 12, LatticePerBin = 10;

std::vector<Row> latticeRows(uint64_t Seed, Grift &RefG, Report &R) {
  std::vector<Row> Rows;
  for (const LatticeSpec &Spec : LatticeRows) {
    Row Rw;
    Rw.Name = Spec.Name;
    Rw.Input = Spec.Input;
    bool EvenOdd = Rw.Name == "evenodd";
    std::string Typed = EvenOdd ? EvenOddTyped : getBenchmark(Rw.Name).Source;
    Expected Exp;
    if (EvenOdd) {
      // The reference interpreter has no tail calls, so it cannot run
      // even/odd at this depth; the answer is the input's parity.
      Exp = {std::atoll(Spec.Input) % 2 == 0 ? "#t" : "#f", "()"};
    } else {
      std::optional<Expected> E = reference(RefG, Typed, Rw.Input);
      if (!E) {
        R.check(false, "reference interpreter failed on " + Rw.Name);
        continue;
      }
      Exp = *E;
    }
    Rw.Top = {Typed, Rw.Input, CastMode::Static, Exp, true, 0};
    std::string Errors;
    std::optional<Program> Ast = RefG.parse(Typed, Errors);
    std::unordered_set<uint64_t> Seen{fnv(Typed)};
    auto addConfig = [&](std::string Src, bool Fixed) {
      if (Seen.insert(fnv(Src)).second)
        Rw.Configs.push_back({std::move(Src), Rw.Input, CastMode::Coercions,
                              Exp, true, 0, {}, Fixed});
    };
    // Seed-independent points: the fully dynamic configuration, and
    // Figures 2 and 3, which are points of these two lattices.
    addConfig(eraseTypes(*Ast, RefG.types()).str(), true);
    if (EvenOdd)
      addConfig(evenOddSource(), true);
    if (Rw.Name == "quicksort")
      addConfig(quicksortFig3Source(), true);
    uint64_t RowSeed = Seed * 0x9E3779B97F4A7C15ull ^ fnv(Rw.Name);
    std::vector<Configuration> Sample = sampleFineGrained(
        *Ast, RefG.types(), LatticeBins, LatticePerBin, RowSeed);
    // The sampler returns its bins in order of precision. Shuffled, any
    // prefix of a pass is a mix of every bin, so a run that ends partway
    // through a pass (a slow host) does not shift the mix.
    RNG Shuffle(RowSeed);
    for (size_t I = Sample.size(); I > 1; --I)
      std::swap(Sample[I - 1], Sample[Shuffle.below(I)]);
    for (Configuration &C : Sample)
      addConfig(C.Prog.str(), false);
    Rows.push_back(std::move(Rw));
  }
  return Rows;
}

//===----------------------------------------------------------------------===//
// heap
//===----------------------------------------------------------------------===//

/// A large live vector allocated before the measured program, as in the
/// gc/ suite of bench/benchjson.cpp: every major collection marks it.
const char *GCLive = "(define gc-live : (Vect Int) (make-vector 350000 0))\n";

/// Stores fresh boxes into an old vector and an old box through Dyn
/// views: proxied writes in coercions mode, in-place strengthening in
/// monotonic mode, and old→young stores through the write barrier.
/// %V% and %B% are the view types; the typed top uses the precise ones.
const char *StoreLoopTemplate = R"(
(define old-vec : (Vect (Ref Int)) (make-vector 512 (box 0)))
(define old-box : (Ref (Ref Int)) (box (box 0)))
(define store-loop : (%V% %B% Int -> Int)
  (lambda ([v : %V%] [b : %B%] [n : Int])
    (repeat (i 0 n) (acc : Int 0)
      (let ([j : Int (% i 512)])
        (begin
          (vector-set! v j (box i))
          (box-set! b (box (+ i 1)))
          (+ acc (+ (unbox (vector-ref v j)) (unbox (unbox b)))))))))
(define n : Int (read-int))
(define total : Int (time (store-loop old-vec old-box n)))
(print-int total)
)";

std::string storeLoop(const char *V, const char *B) {
  std::string S = StoreLoopTemplate;
  for (auto [Needle, With] : {std::pair{"%V%", V}, std::pair{"%B%", B}})
    for (size_t At; (At = S.find(Needle)) != std::string::npos;)
      S.replace(At, 3, With);
  return S;
}

std::vector<Row> heapRows(Grift &RefG, Report &R) {
  struct Spec {
    const char *Name;
    std::string Typed, Gradual;
    const char *Input;
  };
  const Spec Specs[] = {
      {"quicksort-fig3", getBenchmark("quicksort").Source,
       quicksortFig3Source(), "150"},
      {"sieve", getBenchmark("sieve").Source, getBenchmark("sieve").Source,
       "150"},
      {"store-loop", storeLoop("(Vect (Ref Int))", "(Ref (Ref Int))"),
       storeLoop("(Vect Dyn)", "(Ref Dyn)"), "8000"},
  };
  // A 12 MiB heap limit, as a griftd tenant would set with max_heap,
  // clamps the major-collection threshold to 3 MiB, so the live vector
  // plus each program's promotions reach the major collector.
  RunLimits Limits;
  Limits.MaxHeapBytes = 12u << 20;
  std::vector<Row> Rows;
  for (const Spec &S : Specs) {
    std::string Typed = GCLive + S.Typed, Gradual = GCLive + S.Gradual;
    std::optional<Expected> Exp = reference(RefG, Gradual, S.Input);
    if (!Exp) {
      R.check(false, std::string("reference interpreter failed on ") + S.Name);
      continue;
    }
    Row Rw;
    Rw.Name = S.Name;
    Rw.Input = S.Input;
    Rw.Top = {Typed, S.Input, CastMode::Static, *Exp, true, 0, Limits};
    for (CastMode M : {CastMode::Coercions, CastMode::Monotonic})
      Rw.Configs.push_back({Gradual, S.Input, M, *Exp, true, 0, Limits, true});
    Rows.push_back(std::move(Rw));
  }
  return Rows;
}

//===----------------------------------------------------------------------===//
// compile and serve: a seeded stream of distinct sources.
//===----------------------------------------------------------------------===//

/// Share of fuzz programs in the compile stream. Away from one half, so
/// the latency median sits inside the fuzz programs' distribution instead
/// of on the boundary between the two populations.
constexpr double CompileFuzzShare = 2.0 / 3.0;

/// Distinct programs: FuzzGen structural programs and fine-grained
/// lattice configurations of the nine suite programs at their TestInput.
/// Each comes with its reference result, computed in an engine of its
/// own.
class SourceStream {
public:
  /// With \p ConfigInputs the suite configurations run at the input it
  /// gives their program instead of at their TestInput.
  explicit SourceStream(uint64_t Seed,
                        const std::vector<LatticeSpec> *ConfigInputs = nullptr)
      : Gen(Seed), ConfigInputs(ConfigInputs) {
    for (const BenchProgram &B : allBenchmarks()) {
      Suite S;
      S.B = &B;
      std::string Errors;
      S.Ast = RefG.parse(B.Source, Errors);
      Suites.push_back(std::move(S));
    }
  }

  /// The next distinct source: a fuzz program with probability
  /// \p FuzzShare, else a suite configuration.
  Item next(double FuzzShare) {
    for (;;) {
      if (Gen.flip(FuzzShare))
        return nextFuzz();
      size_t K = Gen.below(Suites.size());
      Suite &S = Suites[K];
      // A small program's lattice runs out of unseen configurations; it
      // then leaves the stream.
      for (int Try = 0; Try != 8 && S.Pending.empty(); ++Try)
        for (Configuration &C : sampleFineGrained(*S.Ast, RefG.types(), 4, 2,
                                                  Gen.next()))
          if (Seen.insert(fnv(C.Prog.str())).second)
            S.Pending.push_back(C.Prog.str());
      if (S.Pending.empty())
        continue;
      std::string Src = std::move(S.Pending.back());
      S.Pending.pop_back();
      return {Src, configInput(S), CastMode::Coercions, configExpected(S),
              true, static_cast<int>(K)};
    }
  }

  /// The next distinct fuzz program. Programs the reference interpreter
  /// does not finish cleanly are skipped: the stream holds only programs
  /// that should succeed.
  Item nextFuzz() {
    for (;;) {
      fuzz::GenOptions Opts;
      Opts.Structural = true;
      fuzz::ProgramGen P(RefG.types(), Gen, Opts);
      std::string Src = P.program();
      if (!Seen.insert(fnv(Src)).second)
        continue;
      if (std::optional<Expected> E = reference(RefG, Src, ""))
        return {Src, "", CastMode::Coercions, *E, false, -1};
    }
  }

  /// The fully typed suite program \p K at its TestInput.
  Item suiteTop(size_t K) {
    Suite &S = Suites[K];
    Seen.insert(fnv(S.B->Source));
    return {S.B->Source, S.B->TestInput, CastMode::Coercions,
            testExpected(S), true, static_cast<int>(K)};
  }

private:
  struct Suite {
    const BenchProgram *B = nullptr;
    std::optional<Program> Ast;
    std::optional<Expected> TestExp, ConfigExp;
    std::vector<std::string> Pending;
  };

  /// On TestInput every configuration of a suite program prints
  /// TestOutput and ends with the typed program's final value (computed
  /// once by the reference interpreter).
  Expected testExpected(Suite &S) {
    if (!S.TestExp) {
      std::optional<Expected> E = reference(RefG, S.B->Source, S.B->TestInput);
      S.TestExp = Expected{S.B->TestOutput, E ? E->Result : "<reference failed>"};
    }
    return *S.TestExp;
  }

  std::string configInput(const Suite &S) const {
    if (ConfigInputs)
      for (const LatticeSpec &L : *ConfigInputs)
        if (S.B->Name == L.Name)
          return L.Input;
    return S.B->TestInput;
  }

  /// Off TestInput, the typed program's output and value on the
  /// configuration input, from the reference interpreter.
  Expected configExpected(Suite &S) {
    if (!ConfigInputs)
      return testExpected(S);
    if (!S.ConfigExp) {
      std::optional<Expected> E = reference(RefG, S.B->Source, configInput(S));
      S.ConfigExp = E ? *E : Expected{"<reference failed>", "<reference failed>"};
    }
    return *S.ConfigExp;
  }

  Grift RefG;
  RNG Gen;
  const std::vector<LatticeSpec> *ConfigInputs;
  std::unordered_set<uint64_t> Seen;
  std::vector<Suite> Suites;
};

/// Items of the exact-counter pass on compile and serve.
constexpr size_t CountedItems = 200;

void runCompile(uint64_t Seed, double Seconds, bool Trace, bool Corrupt,
                Report &R) {
  SourceStream Stream(Seed);
  std::vector<Item> Head;
  for (size_t I = 0; I != CountedItems; ++I)
    Head.push_back(Stream.next(CompileFuzzShare));
  if (Corrupt)
    Head.front().Exp.Output += "<corrupted>";

  // Set-up: a fresh engine compiles and runs each typed suite program
  // once at its TestInput (warming the allocator and the code paths),
  // repeated while Setup.more().
  std::vector<Item> Warm;
  for (size_t K = 0; K != allBenchmarks().size(); ++K)
    Warm.push_back(Stream.suiteTop(K));
  SetupTimes Setup;
  while (Setup.more())
    Setup.measure([&] {
      Grift G;
      for (const Item &It : Warm)
        if (std::optional<Executable> E = compileItem(G, It, nullptr))
          E->run(It.Input);
    });

  Tracer T;
  LoopStats Plain, Traced;
  uint64_t SourceBytes = 0;
  auto T0 = Clock::now();
  HostSpeed Speed(T0);
  int64_t Budget = static_cast<int64_t>(Seconds * 1e9);
  for (uint64_t Op = 0; nanosSince(T0) < Budget || Op < MinOps; ++Op) {
    Item It = Op < Head.size() ? Head[Op] : Stream.next(CompileFuzzShare);
    // Each execution compiles on a fresh engine, so every one does the
    // same cold work and no earlier source has interned this one's types.
    // A traced run executes every operation untraced and then traced.
    bool OK = true;
    Best Passes[2];
    for (Tracer *Active : {static_cast<Tracer *>(nullptr), &T}) {
      if (Active && !Trace)
        break;
      if (Active)
        SourceBytes += Reps * It.Source.size();
      Best B;
      for (int Rep = 0; Rep != Reps; ++Rep) {
        auto Engine = std::make_unique<Grift>();
        if (Active)
          Active->beginOp(Op * Reps + Rep);
        auto S0 = Clock::now();
        std::optional<Executable> Exe = compileItem(*Engine, It, Active);
        RunResult Run;
        if (Exe)
          Run = runItem(*Exe, It, Active);
        B.add(nanosSince(S0) / 1e6, std::move(Run), It);
      }
      OK = OK && B.OK;
      Passes[Active != nullptr] = std::move(B);
    }
    double At = Speed.nowMs();
    Plain.add(Passes[0], It, At);
    if (Trace)
      Traced.add(Passes[1], It, At);
    Speed.maybeSample();
    ++R.Attempted;
    R.Failed += !OK;
  }
  Speed.sample();
  Plain.scale(Speed);
  Traced.scale(Speed);
  if (!Trace) {
    addSetup(R, Setup);
    addThroughput(R, Plain);
    // No same-run static denominator exists for a stream of distinct
    // programs; 1 means "no slowdown measured" (see README.md).
    R.add("slowdown_geomean", 1.0, "x");
    R.add("slowdown_max", 1.0, "x");
    notePrinted(R, "peak_rss_mb", peakRssMb(RUSAGE_SELF), "MB");
  } else {
    reportFrontEnd(R, T, SourceBytes);
    reportVmTimes(R, Traced);
    reportOverhead(R, Plain, Traced);
    reportCountedPass(R, Head, /*CompileFirst=*/false);
    reportNoService(R);
  }
}

//===----------------------------------------------------------------------===//
// serve: an open loop against griftd --serve over its Unix socket.
//===----------------------------------------------------------------------===//

class Conn {
public:
  explicit Conn(const std::string &Path) {
    Fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (Fd < 0)
      return;
    sockaddr_un Addr{};
    Addr.sun_family = AF_UNIX;
    std::strncpy(Addr.sun_path, Path.c_str(), sizeof Addr.sun_path - 1);
    if (::connect(Fd, reinterpret_cast<sockaddr *>(&Addr), sizeof Addr) !=
        0) {
      ::close(Fd);
      Fd = -1;
      return;
    }
    timeval TV{30, 0};
    ::setsockopt(Fd, SOL_SOCKET, SO_RCVTIMEO, &TV, sizeof TV);
  }
  ~Conn() {
    if (Fd >= 0)
      ::close(Fd);
  }
  Conn(const Conn &) = delete;
  Conn &operator=(const Conn &) = delete;

  bool ok() const { return Fd >= 0; }

  /// One request/response round trip; empty on a lost response.
  std::string roundTrip(const std::string &Payload) {
    if (!service::protocol::writeFrame(Fd, Payload))
      return "";
    service::protocol::FrameReader Reader(Fd, 64u << 20);
    std::string Response;
    if (Reader.read(Response) != service::protocol::ReadStatus::Frame)
      return "";
    return Response;
  }

private:
  int Fd = -1;
};

/// A griftd --serve child with its stdout on a pipe.
class Server {
public:
  /// Starts griftd and blocks until its "serving" line.
  /// With \p Store, griftd keeps its compiled-program store in Dir.
  Server(const std::string &Griftd, const std::string &Dir, bool Store)
      : Dir(Dir) {
    std::filesystem::create_directories(Dir);
    Socket = Dir + "/s.sock";
    if (Socket.size() >= sizeof(sockaddr_un::sun_path))
      return; // not Ready: the path does not fit a Unix socket address
    int Out[2];
    if (::pipe(Out) != 0)
      return;
    std::vector<std::string> Args = {Griftd, "--serve", "--socket=" + Socket,
                                     "--threads=" + std::to_string(Workers)};
    if (Store)
      Args.push_back("--cache-dir=" + Dir + "/cache");
    std::vector<char *> Argv;
    for (std::string &A : Args)
      Argv.push_back(A.data());
    Argv.push_back(nullptr);
    // posix_spawn, not fork: the start-up time is griftd's own, not that
    // of copying this process's page tables.
    posix_spawn_file_actions_t Actions;
    posix_spawn_file_actions_init(&Actions);
    posix_spawn_file_actions_adddup2(&Actions, Out[1], STDOUT_FILENO);
    posix_spawn_file_actions_addclose(&Actions, Out[0]);
    posix_spawn_file_actions_addclose(&Actions, Out[1]);
    int Err = ::posix_spawn(&Pid, Griftd.c_str(), &Actions, nullptr,
                            Argv.data(), environ);
    posix_spawn_file_actions_destroy(&Actions);
    ::close(Out[1]);
    if (Err != 0) {
      Pid = -1;
      ::close(Out[0]);
      return;
    }
    OutFd = Out[0];
    std::string Line;
    char C;
    while (::read(OutFd, &C, 1) == 1 && C != '\n')
      Line.push_back(C);
    Ready = Line.find("\"serving\"") != std::string::npos;
  }
  ~Server() {
    if (Pid > 0 && !Stopped)
      stop();
    std::filesystem::remove_all(Dir);
  }
  Server(const Server &) = delete;
  Server &operator=(const Server &) = delete;

  /// SIGTERM, read the final stats line, reap. True when griftd drained
  /// and exited 0.
  bool stop() {
    Stopped = true;
    ::kill(Pid, SIGTERM);
    char Buf[4096];
    ssize_t N;
    while ((N = ::read(OutFd, Buf, sizeof Buf)) > 0)
      FinalOutput.append(Buf, static_cast<size_t>(N));
    ::close(OutFd);
    int Status = 0;
    if (::wait4(Pid, &Status, 0, &Usage) != Pid)
      return false;
    return WIFEXITED(Status) && WEXITSTATUS(Status) == 0;
  }

  /// griftd's worker threads; with the client's one busy thread at a
  /// time this keeps the load within four cores.
  static constexpr unsigned Workers = 3;

  std::string Dir, Socket, FinalOutput;
  pid_t Pid = -1;
  int OutFd = -1;
  bool Ready = false, Stopped = false;
  rusage Usage{};
};

uint64_t statOf(const std::string &Stats, const std::string &Key) {
  size_t P = Stats.find("\"" + Key + "\":");
  return P == std::string::npos
             ? 0
             : std::strtoull(Stats.c_str() + P + Key.size() + 3, nullptr, 10);
}

/// Offered load. griftd's saturation point falls as its store fills,
/// because every put scans the whole store directory (see README.md):
/// at 100 requests/s with 60% unique sources, a unique request's latency
/// median tripled over a 20 s run (4.7 to 15 ms), close to the knee.
/// 50/s stays well below saturation for the whole run, and the put cost
/// shows as a rising latency median.
constexpr double ServeRate = 50;
/// Share of requests drawn from the hot set (compile-cache and store
/// hits; the first request for each hot source is a miss). The rest are
/// unique sources, so the latency median is a unique request's, near the
/// middle of their distribution: a front-end, codegen or store-put change
/// shows in it.
constexpr double ServeRepeatShare = 0.2;
constexpr size_t ServeHotSet = 32;
constexpr unsigned ServeConns = 4;

/// Inputs of serve's unique requests, about twice the lattice workload's:
/// a fully typed run takes 1 to 5 ms and a fully dynamic one 4 to 22 ms.
/// Runs this long put most of a unique request's latency in work the
/// host-speed scaling covers, rather than in socket wake-ups, whose cost
/// it does not track (griftd's start-up time spread 0.2 to 0.45 between
/// runs).
const std::vector<LatticeSpec> ServeInputs = {
    {"sieve", "120"},         {"n-body", "400"},  {"tak", "16 10 5"},
    {"ray", "32"},            {"blackscholes", "3000"},
    {"matmult", "28"},        {"matmult-float", "28"},
    {"quicksort", "160"},     {"fft", "1024"},
};

struct Response {
  double LatMs = 0, LateMs = 0, ExecMs = 0, DoneMs = 0;
  bool Received = false, OK = false, CacheHit = false, Rejected = false;
  uint64_t Retries = 0;
};

std::string requestPayload(const Item &It, size_t Id) {
  std::string P = "{\"id\":\"" + std::to_string(Id) + "\",\"source\":\"" +
                  json::escape(It.Source) + "\"";
  if (!It.Input.empty())
    P += ",\"input\":\"" + json::escape(It.Input) + "\"";
  return P + ",\"mode\":\"coercions\",\"deadline_ms\":20000}";
}

void runServe(uint64_t Seed, double Seconds, bool Trace,
              const std::string &Griftd, const std::string &WorkDir,
              bool Corrupt, Report &R) {
  if (Griftd.empty()) {
    std::fprintf(stderr, "perfbench: serve needs --griftd\n");
    std::exit(2);
  }
  // The request schedule. A hot set of the suite programs at TestInput
  // and fuzz programs, all short, repeats (compile-cache and store hits).
  // The rest are unique lattice configurations of the suite programs at
  // ServeInputs.
  SourceStream Stream(Seed, &ServeInputs);
  RNG Pick(Seed ^ 0x5E57E);
  std::vector<Item> Hot, Distinct;
  for (size_t K = 0; K != allBenchmarks().size(); ++K)
    Hot.push_back(Stream.suiteTop(K));
  while (Hot.size() != ServeHotSet)
    Hot.push_back(Stream.nextFuzz());
  Distinct = Hot;
  size_t N = static_cast<size_t>(ServeRate * Seconds);
  std::vector<Item> Schedule;
  for (size_t I = 0; I != N; ++I) {
    if (Pick.flip(ServeRepeatShare)) {
      Schedule.push_back(Hot[Pick.below(Hot.size())]);
    } else {
      Schedule.push_back(Stream.next(/*FuzzShare=*/0));
      Distinct.push_back(Schedule.back());
    }
  }
  if (Corrupt)
    for (Item &It : Schedule)
      if (It.Source == Schedule.front().Source)
        It.Exp.Result += "<corrupted>";
  std::vector<std::string> Payloads;
  for (size_t I = 0; I != N; ++I)
    Payloads.push_back(requestPayload(Schedule[I], I));

  // Set-up: griftd start-up, repeated while Setup.more(); the last
  // server carries the load. Only a traced run gives griftd a store
  // (--cache-dir, fresh): a store put waits for two fsyncs, whose latency
  // varied threefold between runs on the host this was tuned on and set
  // the latency median (README.md, "Finding"), so the bounded figures
  // leave the disk out and the traced run measures the store.
  SetupTimes Setup;
  std::unique_ptr<Server> Srv;
  for (int I = 0; Setup.more(); ++I) {
    Srv.reset();
    Setup.measure([&] {
      Srv = std::make_unique<Server>(
          Griftd,
          WorkDir + "/serve-" + std::to_string(::getpid()) + "-" +
              std::to_string(I),
          /*Store=*/Trace);
    });
    if (!Srv->Ready) {
      std::fprintf(stderr, "perfbench: griftd failed to start\n");
      Srv.reset(); // stops griftd if it is running
      std::exit(1);
    }
  }

  std::vector<Response> Out(N);
  std::atomic<size_t> Next{0};
  std::mutex TraceMutex;
  Tracer T;
  auto T0 = Clock::now();
  // The host's speed through the run, sampled on a thread of its own
  // that is busy about 6% of the time (one more busy thread only then).
  HostSpeed Speed(T0);
  std::atomic<bool> Done{false};
  std::thread Calibrator([&] {
    do {
      Speed.sample();
      std::this_thread::sleep_for(std::chrono::duration<double, std::milli>(
          HostSpeed::PeriodMs));
    } while (!Done);
  });
  auto Client = [&] {
    std::unique_ptr<Conn> C;
    for (size_t I; (I = Next.fetch_add(1)) < N;) {
      auto Due = T0 + std::chrono::nanoseconds(
                          static_cast<int64_t>(I * 1e9 / ServeRate));
      std::this_thread::sleep_until(Due);
      Response &Resp = Out[I];
      Resp.LateMs = std::chrono::duration<double, std::milli>(Clock::now() -
                                                              Due)
                        .count();
      if (!C || !C->ok())
        C = std::make_unique<Conn>(Srv->Socket);
      auto S0 = Clock::now();
      std::string Reply = C->roundTrip(Payloads[I]);
      auto S1 = Clock::now();
      Resp.LatMs = std::chrono::duration<double, std::milli>(S1 - Due).count();
      Resp.DoneMs =
          std::chrono::duration<double, std::milli>(S1 - T0).count();
      if (Trace && I % 2 == 0) {
        std::lock_guard<std::mutex> Lock(TraceMutex);
        T.record("service.roundtrip", S0, S1, I);
      }
      if (Reply.empty()) {
        C.reset();
        continue;
      }
      Resp.Received = true;
      std::map<std::string, json::Value> Fields;
      json::LineParser Parser(Reply);
      if (!Parser.parse(Fields))
        continue;
      const std::string &Status = Fields["status"].S;
      Resp.Rejected = Status == "rejected";
      Resp.OK = Status == "ok" && Fields["result"].S == Schedule[I].Exp.Result;
      Resp.CacheHit = Fields["cache_hit"].B;
      Resp.ExecMs = Fields["wall_ms"].N;
      Resp.Retries = static_cast<uint64_t>(Fields["retries"].N);
    }
  };
  {
    std::vector<std::thread> Threads;
    for (unsigned I = 0; I != ServeConns; ++I)
      Threads.emplace_back(Client);
    for (std::thread &Th : Threads)
      Th.join();
  }
  double WallS = nanosSince(T0) / 1e9;
  Done = true;
  Calibrator.join();
  bool Drained = Srv->stop();
  R.check(Drained, "griftd did not drain and exit 0 after SIGTERM");

  LoopStats Plain, Traced;
  std::vector<double> ExecMs, OverheadMs, LateMs;
  uint64_t Received = 0, CacheHits = 0, Rejected = 0, Retries = 0, Ok = 0;
  for (size_t I = 0; I != N; ++I) {
    const Response &Resp = Out[I];
    ++R.Attempted;
    LateMs.push_back(Resp.LateMs);
    if (!Resp.OK)
      ++R.Failed;
    if (!Resp.Received)
      continue;
    ++Received;
    Ok += Resp.OK;
    CacheHits += Resp.CacheHit;
    Rejected += Resp.Rejected;
    Retries += Resp.Retries;
    ExecMs.push_back(Resp.ExecMs);
    OverheadMs.push_back(Resp.LatMs - Resp.ExecMs);
    // A traced run traces every even request; the odd ones, interleaved
    // with them, are the untraced baseline.
    (Trace && I % 2 == 0 ? Traced : Plain)
        .addLatency(Resp.LatMs, Resp.DoneMs);
  }
  Plain.scale(Speed);
  Traced.scale(Speed);
  R.check(Received == N, "lost responses: " + std::to_string(N - Received));
  R.note("requests " + std::to_string(N) + " at " +
         std::to_string(static_cast<int>(ServeRate)) + "/s over " +
         std::to_string(ServeConns) + " connections, griftd --threads=" +
         std::to_string(Server::Workers) + "; responses " +
         std::to_string(Received) + ", distinct sources " +
         std::to_string(Distinct.size()));
  std::optional<double> LateP99 = tailPercentile(LateMs, 0.99);
  R.note("load generator lateness p99: " +
         std::to_string(LateP99 ? *LateP99 : median(LateMs)) + " ms");

  if (!Trace) {
    addSetup(R, Setup);
    // Correct responses per second of wall time. It equals the offered
    // rate while griftd keeps up, and falls when griftd saturates (the
    // schedule's last responses arrive late) or requests fail.
    R.add("ops_per_s", Ok / WallS, "1/s");
    // griftd's CPU time (user + system, from wait4) per request is its
    // cost on this mix; it moves with griftd's speed but varies with the
    // host's speed too much to carry a bound.
    const rusage &U = Srv->Usage;
    double CpuS = static_cast<double>(U.ru_utime.tv_sec + U.ru_stime.tv_sec) +
                  (U.ru_utime.tv_usec + U.ru_stime.tv_usec) / 1e6;
    notePrinted(R, "griftd_requests_per_cpu_s", CpuS > 0 ? Ok / CpuS : 0.0,
                "1/s");
    addLatency(R, Plain.LatMs, Plain.RawLatMs);
    // No same-run static denominator (see README.md): placeholders.
    R.add("slowdown_geomean", 1.0, "x");
    R.add("slowdown_max", 1.0, "x");
    notePrinted(R, "peak_rss_mb",
                static_cast<double>(Srv->Usage.ru_maxrss) / 1024.0, "MB");
    return;
  }
  // Per-layer metrics. The service and store numbers are griftd's own
  // (response fields and its drain-time stats line), with the store on. The front-end and
  // VM layers run inside griftd where no span can reach them, so a
  // client-side shadow pass compiles and runs the same distinct sources
  // in-process with spans, and the counted pass replays its head.
  const std::string &Stats = Srv->FinalOutput;
  uint64_t SHits = statOf(Stats, "store_hits"),
           SMisses = statOf(Stats, "store_misses");
  R.add("store.hits", static_cast<double>(SHits), "count");
  R.add("store.misses", static_cast<double>(SMisses), "count");
  R.add("store.hit_ratio",
        SHits + SMisses ? static_cast<double>(SHits) / (SHits + SMisses) : 0,
        "ratio");
  R.add("service.exec_ms_p50", median(ExecMs), "ms");
  R.add("service.overhead_ms_p50", median(OverheadMs), "ms");
  R.add("service.compile_cache_hit_ratio",
        Received ? static_cast<double>(CacheHits) / Received : 0.0, "ratio");
  R.add("service.rejected", static_cast<double>(Rejected), "count");
  R.add("service.retries", static_cast<double>(Retries), "count");
  R.add("loadgen.late_ms_p99", LateP99 ? *LateP99 : 0.0, "ms");
  R.add("service.roundtrip_ms_p50", T.medianUs("service.roundtrip") / 1e3,
        "ms");
  reportOverhead(R, Plain, Traced);

  Tracer Shadow;
  LoopStats ShadowLoop;
  Grift G;
  uint64_t Bytes = 0;
  for (size_t I = 0; I != Distinct.size(); ++I) {
    Shadow.beginOp(I);
    Bytes += Distinct[I].Source.size();
    std::optional<Executable> Exe = compileItem(G, Distinct[I], &Shadow);
    if (!Exe)
      continue;
    auto S0 = Clock::now();
    RunResult Run = runItem(*Exe, Distinct[I], &Shadow);
    Best B;
    B.add(nanosSince(S0) / 1e6, std::move(Run), Distinct[I]);
    ShadowLoop.add(B, Distinct[I], 1.0);
  }
  reportFrontEnd(R, Shadow, Bytes);
  reportVmTimes(R, ShadowLoop);
  std::vector<Item> Head(Distinct.begin(),
                         Distinct.begin() +
                             std::min(CountedItems, Distinct.size()));
  reportCountedPass(R, Head, /*CompileFirst=*/false);
}

} // namespace

int main(int Argc, char **Argv) {
  std::string Workload, Griftd, WorkDir = ".";
  uint64_t Seed = 1;
  double Seconds = 10;
  bool Trace = false, Corrupt = false;
  for (int I = 1; I < Argc; ++I) {
    std::string A = Argv[I];
    auto value = [&]() -> std::string {
      if (I + 1 >= Argc) {
        std::fprintf(stderr, "perfbench: %s needs a value\n", A.c_str());
        std::exit(2);
      }
      return Argv[++I];
    };
    if (A == "--workload")
      Workload = value();
    else if (A == "--seed")
      Seed = std::strtoull(value().c_str(), nullptr, 10);
    else if (A == "--seconds")
      Seconds = std::strtod(value().c_str(), nullptr);
    else if (A == "--trace")
      Trace = value() == "1";
    else if (A == "--griftd")
      Griftd = value();
    else if (A == "--work-dir")
      WorkDir = value();
    else if (A == "--corrupt-expected")
      Corrupt = true;
    else {
      std::fprintf(stderr, "perfbench: unknown option '%s'\n", A.c_str());
      return 2;
    }
  }
  if (!(Seconds > 0)) {
    std::fprintf(stderr, "perfbench: --seconds must be positive\n");
    return 2;
  }

  Report R;
  if (Workload == "lattice" || Workload == "heap") {
    Grift RefG;
    std::vector<Row> Rows = Workload == "lattice"
                                ? latticeRows(Seed, RefG, R)
                                : heapRows(RefG, R);
    if (Corrupt && !Rows.empty()) {
      Rows.front().Top.Exp.Output += "<corrupted>";
      for (Item &C : Rows.front().Configs)
        C.Exp.Output += "<corrupted>";
    }
    Counters Loop = runRowsWorkload(Rows, Seconds, Trace, R);
    if (Workload == "heap") {
      // The workload exists to exercise the nursery and the write
      // barrier; a run that reaches neither measured the wrong thing.
      R.check(Loop.GcMinor > 0, "heap: no minor collection ran");
      R.check(Loop.RemSetPeak > 0, "heap: the remembered set stayed empty");
    }
  } else if (Workload == "compile") {
    runCompile(Seed, Seconds, Trace, Corrupt, R);
  } else if (Workload == "serve") {
    runServe(Seed, Seconds, Trace, Griftd, WorkDir, Corrupt, R);
  } else {
    std::fprintf(stderr,
                 "perfbench: --workload must be lattice, heap, compile or "
                 "serve\n");
    return 2;
  }
  R.print(Workload);
  return R.correct() ? 0 : 1;
}
