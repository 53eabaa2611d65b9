#include "service/ExecService.h"

#include <algorithm>
#include <chrono>

using namespace grift;
using namespace grift::service;

unsigned ServiceConfig::workerCount() const {
  unsigned N = Threads ? Threads
                       : std::max(1u, std::thread::hardware_concurrency());
  return std::min(N, MaxThreads);
}

ExecService::ExecService(ServiceConfig C)
    : Config(C),
      Pool(C.workerCount()),
      Breaker(C.Breaker) {
  if (!Config.CacheDir.empty()) {
    FileFaults.ShortWriteAt = Config.FileShortWriteAt;
    FileFaults.FailFsyncAt = Config.FileFailFsyncAt;
    FileFaults.FlipReadBitAt = Config.FileFlipReadBitAt;
    FileFaults.FlipReadBitIndex = Config.FileFlipReadBitIndex;
    store::StoreConfig SC;
    SC.Dir = Config.CacheDir;
    SC.MaxBytes = Config.CacheMaxBytes;
    SC.Faults = Config.FileShortWriteAt || Config.FileFailFsyncAt ||
                        Config.FileFlipReadBitAt
                    ? &FileFaults
                    : nullptr;
    ProgStore = std::make_unique<store::Store>(std::move(SC));
  }
  Workers.reserve(Pool.size());
  for (unsigned I = 0; I != Pool.size(); ++I)
    Workers.emplace_back([this, I] { workerLoop(I); });
}

ExecService::~ExecService() {
  {
    std::lock_guard<std::mutex> Lock(QueueM);
    Stopping = true;
  }
  QueueCV.notify_all();
  for (std::thread &W : Workers)
    W.join();
}

std::future<JobResult> ExecService::submit(JobSpec Spec) {
  Submitted.fetch_add(1, std::memory_order_relaxed);
  Pending P;
  P.Spec = std::move(Spec);
  std::future<JobResult> F = P.Promise.get_future();
  {
    // Workers drain the queue before exiting, so a job enqueued any time
    // before the destructor runs is guaranteed a result.
    std::lock_guard<std::mutex> Lock(QueueM);
    if (Config.MaxQueueDepth && Queue.size() >= Config.MaxQueueDepth) {
      // Admission bound: shed now, under the same lock that admitted the
      // jobs ahead of us, so the depth check and the verdict are atomic.
      Sheds.fetch_add(1, std::memory_order_relaxed);
      JobResult R;
      R.Id = std::move(P.Spec.Id);
      R.Status = JobStatus::Rejected;
      R.Kind = ErrorKind::Overloaded;
      R.ErrorMessage = "overloaded: queue depth at limit (" +
                       std::to_string(Config.MaxQueueDepth) +
                       " waiting); retry later";
      P.Promise.set_value(std::move(R));
      return F;
    }
    Queue.push_back(std::move(P));
    uint64_t Depth = Queue.size();
    if (Depth > PeakQueue.load(std::memory_order_relaxed))
      PeakQueue.store(Depth, std::memory_order_relaxed);
  }
  QueueCV.notify_one();
  return F;
}

size_t ExecService::queueDepth() const {
  std::lock_guard<std::mutex> Lock(QueueM);
  return Queue.size();
}

void ExecService::workerLoop(unsigned SlotIdx) {
  EnginePool::Slot &Slot = Pool.slot(SlotIdx);
  // This thread owns the slot's engine for its whole lifetime; debug
  // builds now assert every compile/run of this engine happens here.
  Slot.Engine.bindToCurrentThread();
  // Per-slot fault injector (allocation counter spans jobs) and RNG for
  // retry jitter. Distinct seeds per slot are the whole point: slots that
  // fail together must not sleep together.
  FaultInjector Injector;
  Injector.GCTorturePeriod = Config.GCTorturePeriod;
  Injector.MinorGCTorturePeriod = Config.MinorGCTorturePeriod;
  RNG Gen(0x5eedba5eULL + SlotIdx);
  for (;;) {
    Pending P;
    {
      std::unique_lock<std::mutex> Lock(QueueM);
      QueueCV.wait(Lock, [this] { return Stopping || !Queue.empty(); });
      if (Queue.empty()) {
        if (Stopping)
          return; // drained: stop only once no work is left
        continue;
      }
      P = std::move(Queue.front());
      Queue.pop_front();
    }
    JobResult R = executeJob(Slot, P.Spec, Injector, Gen);
    // Between jobs nothing on this slot holds coercion pointers, so this
    // is the one safe point to bound the arena.
    Slot.maybeResetEpoch(Config.MaxCoercionNodes);
    Completed.fetch_add(1, std::memory_order_relaxed);
    P.Promise.set_value(std::move(R));
  }
}

JobResult ExecService::executeJob(EnginePool::Slot &Slot, JobSpec &Spec,
                                  FaultInjector &Injector, RNG &Gen) {
  using Clock = std::chrono::steady_clock;
  JobResult R;
  R.Id = Spec.Id;
  uint64_t Key = jobKey(Spec.Source, Spec.Mode, Spec.Optimize);

  // End-to-end deadline: a job that expired while queued is failed
  // without burning an engine on it — the client has already given up.
  const bool HasQueueDeadline = Spec.QueueDeadline != Clock::time_point{};
  if (HasQueueDeadline && Clock::now() >= Spec.QueueDeadline) {
    Expired.fetch_add(1, std::memory_order_relaxed);
    R.Status = JobStatus::Failed;
    R.Kind = ErrorKind::Timeout;
    R.ErrorMessage = "timeout: deadline expired while queued";
    return R;
  }

  if (!Breaker.admit(Key)) {
    R.Status = JobStatus::Rejected;
    R.Kind = ErrorKind::Overloaded;
    R.ErrorMessage = "circuit open: quarantined after repeated resource "
                     "failures; retry after cooldown";
    return R;
  }

  bool CacheHit = false;
  const EnginePool::CacheEntry &Entry =
      Slot.compileCached(Spec, CacheHit, Config.CompileCache, ProgStore.get());
  R.CompileCacheHit = CacheHit;
  if (!Entry.Exe) {
    R.Status = JobStatus::CompileError;
    R.ErrorMessage = Entry.Errors;
    // Compile errors are deterministic program errors: they neither trip
    // nor reset the breaker (and the negative cache makes them cheap).
    return R;
  }

  RunLimits Limits = Spec.Limits;
  Limits.Cancel = &Slot.CancelToken;

  int64_t PrevBackoff = 0;
  for (uint32_t Attempt = 0;; ++Attempt) {
    Slot.CancelToken.store(false, std::memory_order_relaxed);
    // Clamp every attempt to the time left before the absolute deadline:
    // both the in-band wall budget and the watchdog follow the client's
    // remaining patience, not the original per-attempt allowance.
    int64_t RemainingNanos = 0;
    if (HasQueueDeadline) {
      RemainingNanos = std::chrono::duration_cast<std::chrono::nanoseconds>(
                           Spec.QueueDeadline - Clock::now())
                           .count();
      if (RemainingNanos <= 0) {
        Expired.fetch_add(1, std::memory_order_relaxed);
        R.Status = JobStatus::Failed;
        R.Kind = ErrorKind::Timeout;
        R.ErrorMessage = "timeout: deadline expired between attempts";
        return R;
      }
      if (Limits.MaxWallNanos == 0 || Limits.MaxWallNanos > RemainingNanos)
        Limits.MaxWallNanos = RemainingNanos;
    }
    int64_t WatchNanos = Spec.DeadlineNanos;
    if (RemainingNanos > 0 && (WatchNanos == 0 || WatchNanos > RemainingNanos))
      WatchNanos = RemainingNanos;
    uint64_t WatchHandle = 0;
    if (WatchNanos > 0)
      WatchHandle = Dog.watch(Slot.CancelToken,
                              Watchdog::Clock::now() +
                                  std::chrono::nanoseconds(WatchNanos));
    FaultInjector *Faults = nullptr;
    if (Config.GCTorturePeriod || Config.MinorGCTorturePeriod ||
        Config.FailAllocPeriod) {
      // Periodic re-arm: FailAllocAt is one-shot, so schedule the next
      // failure relative to the counter the previous runs advanced.
      if (Config.FailAllocPeriod)
        Injector.FailAllocAt = Injector.AllocCount + Config.FailAllocPeriod;
      Faults = &Injector;
    }
    RunResult Run = Entry.Exe->run(Spec.Input, Limits, Faults);
    if (WatchHandle)
      Dog.unwatch(WatchHandle);

    ++R.Attempts;
    R.WallNanos += Run.WallNanos;
    R.Output = std::move(Run.Output);
    R.FuelUsed = Run.Steps;
    R.PeakHeapBytes = Run.PeakHeapBytes;
    R.Stats = Run.Stats;

    if (Run.OK) {
      R.Status = JobStatus::Done;
      R.ResultText = std::move(Run.ResultText);
      Breaker.recordSuccess(Key);
      return R;
    }

    R.Status = JobStatus::Failed;
    R.Kind = Run.Error.Kind;
    R.ErrorMessage = Run.Error.str();

    if (Config.Retry.isTransient(Run.Error.Kind) &&
        Attempt < Config.Retry.MaxRetries) {
      ++R.Retries;
      RetryCount.fetch_add(1, std::memory_order_relaxed);
      int64_t Backoff =
          Config.Retry.jitteredBackoffNanos(R.Retries, PrevBackoff, Gen);
      if (Backoff > 0)
        std::this_thread::sleep_for(std::chrono::nanoseconds(Backoff));
      // Fresh heap is automatic (each run() builds its own Runtime);
      // optionally give the retry more room to make OOM genuinely
      // transient when the original budget was finite.
      if (Limits.MaxHeapBytes && Config.Retry.HeapGrowthFactor > 1.0)
        Limits.MaxHeapBytes = static_cast<size_t>(
            static_cast<double>(Limits.MaxHeapBytes) *
            Config.Retry.HeapGrowthFactor);
      continue;
    }

    if (Run.Error.isResourceExhaustion())
      Breaker.recordResourceFailure(Key);
    // Program errors (Blame/Trap) end the streak: the program is
    // answering deterministically, not straining the pool.
    else
      Breaker.recordSuccess(Key);
    return R;
  }
}

ServiceStats ExecService::stats() const {
  ServiceStats S;
  S.JobsSubmitted = Submitted.load(std::memory_order_relaxed);
  S.JobsCompleted = Completed.load(std::memory_order_relaxed);
  S.JobsRejected = Breaker.rejections();
  S.JobsShed = Sheds.load(std::memory_order_relaxed);
  S.DeadlineExpired = Expired.load(std::memory_order_relaxed);
  S.Retries = RetryCount.load(std::memory_order_relaxed);
  S.WatchdogKills = Dog.kills();
  S.CacheHits = Pool.totalCacheHits();
  S.CacheMisses = Pool.totalCacheMisses();
  S.EpochResets = Pool.totalEpochResets();
  S.PeakQueueDepth = PeakQueue.load(std::memory_order_relaxed);
  if (ProgStore)
    S.Store = ProgStore->stats();
  return S;
}
