//===----------------------------------------------------------------------===//
///
/// \file
/// griftd — job executor over the hardened execution service, in two
/// front ends sharing one job schema (service/Protocol.h):
///
/// Batch:   griftd [options] (manifest.jsonl | -)
///
/// Reads one JSON job object per input line, streams the jobs across an
/// EnginePool, and emits one structured JSON result line per job in
/// manifest order. Hostile input is a per-job outcome, never a crash: a
/// malformed, oversized, or unknown-keyed line yields a "bad-request"
/// record and the batch keeps going.
///
/// Serve:   griftd --serve [--socket=PATH | --port=N] [options]
///
/// Runs the multi-tenant server (service/Server.h): length-prefixed
/// frames over a Unix or loopback TCP socket, per-tenant quotas, global
/// admission control, deadline propagation, and drain-on-SIGTERM. On
/// startup one JSON line announcing the bound address is printed to
/// stdout; on drain the final stats object follows, and the exit status
/// is 0.
///
/// Shared options:
///   --threads=N              worker threads (default: hardware)
///   --retries=N              max retries for transient OOM (default 2)
///   --breaker-threshold=N    consecutive resource failures that open a
///                            circuit (default 3; 0 disables)
///   --breaker-cooldown-ms=N  circuit cooldown (default 5000)
///   --no-cache               disable the per-engine compile cache
///   --gc-torture=N           FaultInjector: force GC every Nth alloc
///   --gc-minor-torture=N     FaultInjector: force a minor (nursery)
///                            GC every Nth alloc and every Nth cast
///   --fail-alloc=N           FaultInjector: fail every Nth alloc
///   --cache-dir=DIR          persistent compiled-program store (warm
///                            starts; store_* counters in stats)
///   --cache-max-bytes=N      store eviction cap (default 256 MiB)
///   --file-short-write=N     store faults: truncate the Nth entry write
///   --file-fail-fsync=N      store faults: fail the Nth fsync
///   --file-flip-bit=N        store faults: flip one bit of the Nth read
///   --file-flip-bit-index=N  which bit the flip targets (default 0)
///
/// Batch options:
///   --summary                append outcome-class counts after results
///   --summary-only           print only the summary (golden-file tests)
///   --max-line-bytes=N       per-line input bound (default 1 MiB)
///
/// Serve options:
///   --socket=PATH            Unix listener (precedence over --port)
///   --port=N                 loopback TCP listener (0 = ephemeral)
///   --queue-depth=N          ExecService queue bound (default 64)
///   --max-connections=N      concurrent connections (default 64)
///   --max-inflight=N         global admitted-request bound (default 256)
///   --max-inflight-bytes=N   global admitted-payload bound (default 64 MiB)
///   --max-request-bytes=N    per-request payload bound (default 1 MiB)
///   --write-timeout-ms=N     slow-client write bound (default 5000)
///   --default-deadline-ms=N  deadline for requests without one (30000)
///   --max-deadline-ms=N      ceiling on requested deadlines (300000)
///   --tenant-rps=F           per-tenant request rate (0 = unlimited)
///   --tenant-burst=F         request bucket depth (default 8)
///   --tenant-fuel-per-sec=F  per-tenant fuel budget (0 = unlimited)
///   --tenant-max-inflight=N  per-tenant concurrent requests
///
/// Batch exit status is the worst outcome across jobs: 0 all ok, 1
/// program error (blame/trap/compile error/bad request), 3 resource
/// exhaustion or rejection, 4 watchdog cancellation.
///
//===----------------------------------------------------------------------===//
#include "service/Protocol.h"
#include "service/Server.h"
#include "support/StringUtil.h"

#include <algorithm>
#include <cstdio>
#include <deque>
#include <fstream>
#include <iostream>
#include <map>
#include <string>

#include <csignal>
#include <unistd.h>

using namespace grift;
using namespace grift::service;
using namespace grift::service::protocol;

namespace {

/// The one-word outcome class used for the summary and the exit status.
std::string outcomeClass(const JobResult &R) {
  switch (R.Status) {
  case JobStatus::Done:
    return "ok";
  case JobStatus::CompileError:
    return "compile-error";
  case JobStatus::Rejected:
    return "rejected";
  case JobStatus::Failed:
    return errorKindName(R.Kind);
  }
  return "?";
}

int severity(const JobResult &R) {
  if (R.Status == JobStatus::Done)
    return 0;
  if (R.Status == JobStatus::CompileError)
    return 1;
  if (R.Status == JobStatus::Rejected)
    return 3;
  if (R.Kind == ErrorKind::Cancelled)
    return 4;
  return R.Kind == ErrorKind::Blame || R.Kind == ErrorKind::Trap ? 1 : 3;
}

void printUsage() {
  std::fprintf(stderr,
               "usage: griftd [options] (manifest.jsonl | -)\n"
               "       griftd --serve [--socket=PATH | --port=N] [options]\n"
               "run 'griftd --help' for the full option list\n");
}

void printHelp() {
  std::fprintf(
      stderr,
      "griftd — batch and server front ends over the execution service\n"
      "  batch: griftd [options] (manifest.jsonl | -)\n"
      "  serve: griftd --serve [--socket=PATH | --port=N] [options]\n"
      "shared: --threads=N --retries=N --breaker-threshold=N\n"
      "        --breaker-cooldown-ms=N --no-cache --gc-torture=N\n"
      "        --gc-minor-torture=N --fail-alloc=N\n"
      "        --cache-dir=DIR --cache-max-bytes=N (persistent compiled-\n"
      "        program store; store_* counters appear in stats)\n"
      "        --file-short-write=N --file-fail-fsync=N --file-flip-bit=N\n"
      "        --file-flip-bit-index=N (store fault injection, Nth op)\n"
      "batch:  --summary --summary-only --max-line-bytes=N\n"
      "serve:  --queue-depth=N --max-connections=N --max-inflight=N\n"
      "        --max-inflight-bytes=N --max-request-bytes=N\n"
      "        --write-timeout-ms=N --default-deadline-ms=N "
      "--max-deadline-ms=N\n"
      "        --tenant-rps=F --tenant-burst=F --tenant-fuel-per-sec=F\n"
      "        --tenant-max-inflight=N\n");
}

//===----------------------------------------------------------------------===//
// Serve mode: SIGTERM/SIGINT drain via self-pipe.
//===----------------------------------------------------------------------===//

int SignalPipe[2] = {-1, -1};

void onTermSignal(int) {
  char B = 1;
  [[maybe_unused]] ssize_t N = ::write(SignalPipe[1], &B, 1);
}

int runServe(ServerConfig Config) {
  if (::pipe(SignalPipe) != 0) {
    std::perror("griftd: pipe");
    return 2;
  }
  struct sigaction SA{};
  SA.sa_handler = onTermSignal;
  ::sigaction(SIGTERM, &SA, nullptr);
  ::sigaction(SIGINT, &SA, nullptr);

  Server Srv(Config);
  std::string Error;
  if (!Srv.start(Error)) {
    std::fprintf(stderr, "griftd: %s\n", Error.c_str());
    return 2;
  }
  if (!Config.UnixSocketPath.empty())
    std::printf("{\"status\":\"serving\",\"socket\":\"%s\"}\n",
                Config.UnixSocketPath.c_str());
  else
    std::printf("{\"status\":\"serving\",\"port\":%u}\n",
                static_cast<unsigned>(Srv.tcpPort()));
  std::fflush(stdout);

  // Park until SIGTERM/SIGINT; the self-pipe makes the wait signal-safe.
  char B;
  while (::read(SignalPipe[0], &B, 1) < 0 && errno == EINTR)
    ;

  Srv.beginDrain();
  Srv.waitDrained();
  std::printf("%s\n", Srv.renderStats().c_str());
  return 0;
}

//===----------------------------------------------------------------------===//
// Batch mode: streaming manifest execution with hostile-input hardening.
//===----------------------------------------------------------------------===//

int runBatch(ServiceConfig Config, const std::string &ManifestPath,
             bool Summary, bool SummaryOnly, size_t MaxLineBytes) {
  std::ifstream FileIn;
  std::istream *In = &std::cin;
  if (ManifestPath != "-") {
    FileIn.open(ManifestPath);
    if (!FileIn) {
      std::fprintf(stderr, "griftd: cannot open '%s'\n", ManifestPath.c_str());
      return 2;
    }
    In = &FileIn;
  }

  // One output slot per manifest line, in manifest order: either a
  // pending future or a pre-rendered bad-request record. Slots drain
  // from the front whenever the window fills, so arbitrarily long
  // manifests stream in bounded memory.
  struct Slot {
    std::future<JobResult> F;
    bool HasJob = false;
    std::string BadLine; ///< rendered record when !HasJob
  };
  std::deque<Slot> Window;
  constexpr size_t MaxWindow = 4096;

  std::map<std::string, uint64_t> Counts;
  int Worst = 0;

  auto drainOne = [&] {
    Slot S = std::move(Window.front());
    Window.pop_front();
    if (!S.HasJob) {
      ++Counts["bad-request"];
      Worst = std::max(Worst, 1);
      if (!SummaryOnly)
        std::printf("%s\n", S.BadLine.c_str());
      return;
    }
    JobResult R = S.F.get();
    ++Counts[outcomeClass(R)];
    Worst = std::max(Worst, severity(R));
    if (!SummaryOnly)
      std::printf("%s\n", renderResult(R).c_str());
  };

  ExecService Service(Config);
  std::string Line;
  size_t LineNo = 0;
  while (std::getline(*In, Line)) {
    ++LineNo;
    if (Line.empty() || Line[0] == '#')
      continue;
    Slot S;
    std::string DefaultId = "job-" + std::to_string(LineNo);
    if (MaxLineBytes && Line.size() > MaxLineBytes) {
      // Report the bound without echoing the oversized payload back.
      S.BadLine = renderBadRequest(
          DefaultId,
          "line exceeds max_line_bytes (" + std::to_string(Line.size()) +
              " > " + std::to_string(MaxLineBytes) + ")",
          "too-large");
    } else {
      Request Req;
      Req.Spec.Id = DefaultId;
      std::string Error;
      std::string Reason;
      if (!parseRequest(Line, Req, Error, &Reason))
        S.BadLine = renderBadRequest(DefaultId, Error, Reason);
      else if (Req.StatsRequest)
        S.BadLine = renderBadRequest(DefaultId, "\"stats\" is not a batch job",
                                     "stats-in-batch");
      else {
        S.HasJob = true;
        S.F = Service.submit(std::move(Req.Spec));
      }
    }
    Window.push_back(std::move(S));
    while (Window.size() >= MaxWindow)
      drainOne();
  }
  while (!Window.empty())
    drainOne();

  if (Summary) {
    // Lexicographically sorted "class: count" lines — the deterministic
    // shape the CI smoke test diffs against its golden file.
    for (const auto &[Class, N] : Counts)
      std::printf("%s: %llu\n", Class.c_str(),
                  static_cast<unsigned long long>(N));
    if (!Config.CacheDir.empty()) {
      // Only with --cache-dir, so cache-less goldens are untouched.
      store::StoreStats S = Service.stats().Store;
      std::printf("store:");
#define GRIFT_STORE_COUNTER(Field, Key, Doc)                                   \
  std::printf(" " Key "=%llu", static_cast<unsigned long long>(S.Field));
#include "support/Counters.def"
      std::printf("\n");
    }
  }
  return Worst;
}

} // namespace

int main(int Argc, char **Argv) {
  ServerConfig Server;
  ServiceConfig &Exec = Server.Exec;
  bool Serve = false;
  bool Summary = false;
  bool SummaryOnly = false;
  size_t MaxLineBytes = 1u << 20;
  bool QueueDepthSet = false;
  std::string ManifestPath;

  for (int I = 1; I < Argc; ++I) {
    std::string Arg = Argv[I];
    if (parseFlag(Arg, "--threads=", Exec.Threads,
                  ServiceConfig::MaxThreads) ||
        parseFlag(Arg, "--retries=", Exec.Retry.MaxRetries) ||
        parseFlag(Arg, "--breaker-threshold=",
                  Exec.Breaker.FailureThreshold) ||
        parseMillisFlag(Arg, "--breaker-cooldown-ms=",
                        Exec.Breaker.CooldownNanos) ||
        parseFlag(Arg, "--gc-torture=", Exec.GCTorturePeriod) ||
        parseFlag(Arg, "--gc-minor-torture=", Exec.MinorGCTorturePeriod) ||
        parseFlag(Arg, "--fail-alloc=", Exec.FailAllocPeriod) ||
        parseFlag(Arg, "--cache-max-bytes=", Exec.CacheMaxBytes) ||
        parseFlag(Arg, "--file-short-write=", Exec.FileShortWriteAt) ||
        parseFlag(Arg, "--file-fail-fsync=", Exec.FileFailFsyncAt) ||
        parseFlag(Arg, "--file-flip-bit=", Exec.FileFlipReadBitAt) ||
        parseFlag(Arg, "--file-flip-bit-index=", Exec.FileFlipReadBitIndex) ||
        parseFlag(Arg, "--port=", Server.TcpPort) ||
        parseFlag(Arg, "--max-connections=", Server.MaxConnections) ||
        parseFlag(Arg, "--max-inflight=", Server.Admission.MaxInflight) ||
        parseFlag(Arg, "--max-inflight-bytes=",
                  Server.Admission.MaxInflightBytes) ||
        parseFlag(Arg, "--max-request-bytes=", Server.MaxRequestBytes) ||
        parseMillisFlag(Arg, "--write-timeout-ms=",
                        Server.WriteTimeoutNanos) ||
        parseMillisFlag(Arg, "--default-deadline-ms=",
                        Server.DefaultDeadlineNanos) ||
        parseMillisFlag(Arg, "--max-deadline-ms=", Server.MaxDeadlineNanos) ||
        parseFlag(Arg, "--tenant-rps=", Server.Quota.RequestsPerSec) ||
        parseFlag(Arg, "--tenant-burst=", Server.Quota.BurstRequests) ||
        parseFlag(Arg, "--tenant-fuel-per-sec=", Server.Quota.FuelPerSec) ||
        parseFlag(Arg, "--tenant-max-inflight=", Server.Quota.MaxInflight) ||
        parseFlag(Arg, "--max-line-bytes=", MaxLineBytes)) {
      // Numeric flags: k/m/g suffixes, range-checked (support/StringUtil).
    } else if (parseFlag(Arg, "--queue-depth=", Exec.MaxQueueDepth)) {
      QueueDepthSet = true;
    } else if (Arg.rfind("--cache-dir=", 0) == 0) {
      Exec.CacheDir = Arg.substr(12);
    } else if (Arg == "--no-cache") {
      Exec.CompileCache = false;
    } else if (Arg == "--serve") {
      Serve = true;
    } else if (Arg.rfind("--socket=", 0) == 0) {
      Server.UnixSocketPath = Arg.substr(9);
    } else if (Arg == "--summary") {
      Summary = true;
    } else if (Arg == "--summary-only") {
      Summary = SummaryOnly = true;
    } else if (Arg == "--help" || Arg == "-h") {
      printHelp();
      return 0;
    } else if (Arg.size() > 1 && Arg[0] == '-' && Arg != "-") {
      std::fprintf(stderr, "griftd: unknown option or bad value '%s'\n",
                   Arg.c_str());
      printUsage();
      return 2;
    } else {
      ManifestPath = Arg;
    }
  }

  if (Serve) {
    // A server must never queue unboundedly; apply the default bound
    // only here so batch mode keeps enqueueing whole manifests.
    if (!QueueDepthSet)
      Exec.MaxQueueDepth = 64;
    return runServe(std::move(Server));
  }
  if (ManifestPath.empty()) {
    printUsage();
    return 2;
  }
  return runBatch(Exec, ManifestPath, Summary, SummaryOnly, MaxLineBytes);
}
