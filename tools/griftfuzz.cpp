//===----------------------------------------------------------------------===//
///
/// \file
/// griftfuzz — metamorphic gradual-guarantee fuzzer with a
/// blame-differential oracle and automatic shrinking.
///
///   griftfuzz [options]
///
/// Options:
///   --oracle=lattice|blame|all  which oracle(s) to run (default all)
///   --iters=N          programs per oracle (default 100; 0 = unbounded,
///                      requires --budget-ms)
///   --budget-ms=N      stop an oracle's loop after N milliseconds
///   --seed=S           base seed (default 1); iteration i uses
///                      S + i * 0x9E3779B9, so --seed=<failing> --iters=1
///                      replays exactly one failure
///   --bins=N           fine-grained precision bins per program (default 4)
///   --per-bin=N        configurations sampled per bin (default 2)
///   --coarse-max=N     module-lattice configurations (default 8)
///   --shrink-attempts=N  delta-debugging budget per failure (default 1200)
///   --no-shrink        dump failures unshrunk
///   --artifact-dir=DIR where to write repro artifacts
///                      (default griftfuzz-repros)
///   --max-failures=N   stop after N failures (default 5)
///   --quiet            no per-chunk progress lines
///   --gc-torture=N     force a full collection every Nth allocation in
///                      every VM run (0 = off)
///   --gc-minor-torture=N  force a minor (nursery) collection every Nth
///                      allocation and every Nth cast application
///   --gc-nursery=BYTES nursery size for every VM run (0 disables the
///                      generational layer)
///   --gc-differential  enroll a --gc-nursery=0 twin of every VM engine;
///                      the generational and pre-generational collectors
///                      must agree on every program in every cast mode
///
/// Exit status: 0 when every check passed, 1 when any oracle failed,
/// 2 on usage errors.
///
/// Each failure is minimized by the AST-aware shrinker and dumped as a
/// pair of artifacts: <artifact-dir>/<oracle>-seed<NNN>.grift (the
/// shrunk program) and .repro.txt (seeds, expectation, observed
/// behaviour, original source, one-command rerun line).
///
//===----------------------------------------------------------------------===//
#include "fuzz/FuzzGen.h"
#include "fuzz/Oracle.h"
#include "fuzz/Shrink.h"
#include "support/StringUtil.h"

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <optional>
#include <string>
#include <vector>

using namespace grift;
using namespace grift::fuzz;

namespace {

struct Options {
  bool RunLattice = true;
  bool RunBlame = true;
  uint64_t Iters = 100;
  uint64_t BudgetMs = 0;
  uint64_t Seed = 1;
  unsigned MaxFailures = 5;
  bool Shrink = true;
  bool Quiet = false;
  std::string ArtifactDir = "griftfuzz-repros";
  OracleOptions Oracle;
};

void printUsage() {
  std::fprintf(stderr,
               "usage: griftfuzz [--oracle=lattice|blame|all] [--iters=N]\n"
               "                 [--budget-ms=N] [--seed=S] [--bins=N]\n"
               "                 [--per-bin=N] [--coarse-max=N]\n"
               "                 [--shrink-attempts=N] [--no-shrink]\n"
               "                 [--artifact-dir=DIR] [--max-failures=N]\n"
               "                 [--quiet] [--gc-torture=N]\n"
               "                 [--gc-minor-torture=N] [--gc-nursery=BYTES]\n"
               "                 [--gc-differential]\n");
}

/// Spreads iteration indices across the seed space so neighbouring base
/// seeds do not re-explore the same programs.
uint64_t iterationSeed(uint64_t Base, uint64_t Iteration) {
  return Base + Iteration * 0x9E3779B9ull;
}

class Harness {
public:
  explicit Harness(const Options &Opts) : Opts(Opts) {}

  /// Runs one oracle's loop. Returns the number of failures found.
  unsigned runOracle(OracleKind Kind) {
    using Clock = std::chrono::steady_clock;
    auto Start = Clock::now();
    auto elapsedMs = [&] {
      return static_cast<uint64_t>(
          std::chrono::duration_cast<std::chrono::milliseconds>(
              Clock::now() - Start)
              .count());
    };

    unsigned Failures = 0;
    uint64_t Iteration = 0;
    while (true) {
      if (Opts.Iters != 0 && Iteration >= Opts.Iters)
        break;
      if (Opts.BudgetMs != 0 && elapsedMs() >= Opts.BudgetMs)
        break;
      if (Opts.Iters == 0 && Opts.BudgetMs == 0)
        break; // defensive: never spin forever without a budget

      uint64_t Seed = iterationSeed(Opts.Seed, Iteration);
      std::optional<OracleFailure> Failure =
          Kind == OracleKind::Lattice ? checkLattice(Seed, Opts.Oracle)
                                      : checkBlame(Seed, Opts.Oracle);
      ++Iteration;
      ++Programs;
      if (Failure) {
        ++Failures;
        report(*Failure);
        if (Failures >= Opts.MaxFailures) {
          std::fprintf(stderr,
                       "griftfuzz: %s oracle: stopping after %u failures\n",
                       oracleKindName(Kind), Failures);
          break;
        }
      }
      if (!Opts.Quiet && Iteration % 25 == 0)
        std::fprintf(stderr,
                     "griftfuzz: %s oracle: %llu programs, %u failures, "
                     "%llu ms\n",
                     oracleKindName(Kind),
                     static_cast<unsigned long long>(Iteration), Failures,
                     static_cast<unsigned long long>(elapsedMs()));
    }
    std::fprintf(stderr,
                 "griftfuzz: %s oracle done: %llu programs, %u failures, "
                 "%llu ms\n",
                 oracleKindName(Kind),
                 static_cast<unsigned long long>(Iteration), Failures,
                 static_cast<unsigned long long>(elapsedMs()));
    return Failures;
  }

  uint64_t programsRun() const { return Programs; }

private:
  void report(const OracleFailure &Failure) {
    std::fprintf(stderr,
                 "\ngriftfuzz: FAILURE (%s oracle, seed %llu)\n  %s\n"
                 "  expected: %s\n  actual:   %s\n",
                 oracleKindName(Failure.Oracle),
                 static_cast<unsigned long long>(Failure.Seed),
                 Failure.What.c_str(), Failure.Expected.c_str(),
                 Failure.Actual.c_str());

    std::string Shrunk = Failure.Source;
    if (Opts.Shrink) {
      ShrinkStats Stats;
      Shrunk = shrinkFailure(Failure, Opts.Oracle, &Stats);
      std::fprintf(stderr,
                   "  shrink: %zu -> %zu bytes (%u candidates, %u accepted, "
                   "%u rounds)\n",
                   Failure.Source.size(), Shrunk.size(), Stats.Attempts,
                   Stats.Accepted, Stats.Rounds);
    }
    std::fprintf(stderr, "  shrunk repro:\n%s", Shrunk.c_str());
    if (!Shrunk.empty() && Shrunk.back() != '\n')
      std::fprintf(stderr, "\n");
    writeArtifacts(Failure, Shrunk);
  }

  void writeArtifacts(const OracleFailure &Failure,
                      const std::string &Shrunk) {
    std::error_code EC;
    std::filesystem::create_directories(Opts.ArtifactDir, EC);
    if (EC) {
      std::fprintf(stderr, "griftfuzz: cannot create artifact dir %s: %s\n",
                   Opts.ArtifactDir.c_str(), EC.message().c_str());
      return;
    }
    std::string Stem = Opts.ArtifactDir + "/" +
                       oracleKindName(Failure.Oracle) + "-seed" +
                       std::to_string(Failure.Seed);
    {
      std::ofstream Out(Stem + ".grift");
      Out << Shrunk;
    }
    {
      std::ofstream Out(Stem + ".repro.txt");
      Out << reproText(Failure, Shrunk);
    }
    std::fprintf(stderr, "  artifacts: %s.grift, %s.repro.txt\n",
                 Stem.c_str(), Stem.c_str());
  }

  const Options &Opts;
  uint64_t Programs = 0;
};

} // namespace

int main(int Argc, char **Argv) {
  Options Opts;
  for (int I = 1; I != Argc; ++I) {
    std::string Arg = Argv[I];
    if (Arg == "--oracle=lattice") {
      Opts.RunBlame = false;
    } else if (Arg == "--oracle=blame") {
      Opts.RunLattice = false;
    } else if (Arg == "--oracle=all") {
      Opts.RunLattice = Opts.RunBlame = true;
    } else if (parseFlag(Arg, "--iters=", Opts.Iters) ||
               parseFlag(Arg, "--budget-ms=", Opts.BudgetMs) ||
               parseFlag(Arg, "--seed=", Opts.Seed) ||
               parseFlag(Arg, "--bins=", Opts.Oracle.Bins) ||
               parseFlag(Arg, "--per-bin=", Opts.Oracle.PerBin) ||
               parseFlag(Arg, "--coarse-max=", Opts.Oracle.CoarseMax) ||
               parseFlag(Arg, "--shrink-attempts=",
                         Opts.Oracle.ShrinkAttempts) ||
               parseFlag(Arg, "--gc-torture=", Opts.Oracle.GCTorturePeriod) ||
               parseFlag(Arg, "--gc-minor-torture=",
                         Opts.Oracle.MinorGCTorturePeriod) ||
               parseFlag(Arg, "--gc-nursery=",
                         Opts.Oracle.Limits.GCNurseryBytes)) {
      // Numeric flags: k/m/g suffixes, range-checked (support/StringUtil).
    } else if (parseFlag(Arg, "--max-failures=", Opts.MaxFailures)) {
      Opts.MaxFailures = std::max(Opts.MaxFailures, 1u);
    } else if (Arg == "--gc-differential") {
      Opts.Oracle.GCDifferential = true;
    } else if (Arg == "--no-shrink") {
      Opts.Shrink = false;
    } else if (Arg == "--quiet") {
      Opts.Quiet = true;
    } else if (Arg.rfind("--artifact-dir=", 0) == 0) {
      Opts.ArtifactDir = Arg.substr(std::strlen("--artifact-dir="));
    } else if (Arg == "--help" || Arg == "-h") {
      printUsage();
      return 0;
    } else {
      std::fprintf(stderr, "griftfuzz: unknown argument or bad value '%s'\n",
                   Arg.c_str());
      printUsage();
      return 2;
    }
  }
  if (Opts.Iters == 0 && Opts.BudgetMs == 0) {
    std::fprintf(stderr, "griftfuzz: --iters=0 requires --budget-ms\n");
    printUsage();
    return 2;
  }

  Harness H(Opts);
  unsigned Failures = 0;
  if (Opts.RunLattice)
    Failures += H.runOracle(OracleKind::Lattice);
  if (Opts.RunBlame)
    Failures += H.runOracle(OracleKind::Blame);

  std::fprintf(stderr, "griftfuzz: %llu programs total, %u failure(s)\n",
               static_cast<unsigned long long>(H.programsRun()), Failures);
  return Failures ? 1 : 0;
}
