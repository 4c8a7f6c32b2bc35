// Span recorder for the traced benchmark binary.
//
// Every span sits at a public qrgrid function, entered through a GNU ld
// `--wrap` interposer (wraps.cpp). Each thread keeps its own span stack;
// a span's self time is its duration minus the durations of the spans
// opened directly inside it on the same thread, so on any one thread the
// self times of its spans plus its unspanned time add up to its wall.
//
// Threads are kept apart. The thread that drives the service is the
// "main" thread: its self times decompose the benchmark's wall clock. The
// msg runtime runs rank 0 on the main thread and spawns ranks 1..P-1 on
// threads of their own; those threads fold their tallies into a shared
// rank-thread tally when they exit, together with the CPU seconds they
// consumed.
#pragma once

#include <array>
#include <cstdint>

namespace perfbench {

/// The layers of qrgrid the benchmark charges time to.
enum class Layer : int {
  kReplay,     ///< sched/backend -> simgrid/des: DES replays (cache misses)
  kPlacement,  ///< sched try_place -> simgrid/jobprofile
  kService,    ///< sched/service: the event loop itself
  kQueue,      ///< sched/job: the policy-ordered pending queue
  kWan,        ///< sched/wan: the shared-WAN rate engine
  kTelemetry,  ///< sched/telemetry, sched/critpath
  kMsg,        ///< msg: the threaded runtime and its receives
  kKernel,     ///< linalg, core/tsqr: the factorization kernels
  kVerify,     ///< linalg/norms: residual and orthogonality checks
  kCount,
};
constexpr int kLayerCount = static_cast<int>(Layer::kCount);
const char* layer_name(Layer layer);

/// One interposed public function.
enum class Site : int {
  kDesTsqr,
  kLocationOf,  ///< counted, not timed (tens of millions of calls)
  kMakeSubTopology,
  kAllocate,
  kStart,
  kStep,
  kFinish,
  kQueuePush,
  kQueuePopFront,
  kQueueTake,
  kQueueBegin,
  kQueueFront,
  kWanAdmit,
  kWanRetire,
  kWanAdvance,
  kWanNextEvent,
  kObserve,
  kObserveBounds,
  kValidatorConsume,
  kValidatorFinish,
  kCriticalPath,
  kWriteChromeTrace,
  kWriteCritpathJson,
  kRuntimeRun,
  kCommRecv,
  kCommSend,
  kGeqrf,
  kTpqrtTt,
  kTpmqrtTt,
  kOrmqrLeft,
  kTsqrFactor,
  kTsqrFormQ,
  kFillGaussian,
  kResidual,
  kOrthogonality,
  kCount,
};
constexpr int kSiteCount = static_cast<int>(Site::kCount);
const char* site_name(Site site);
Layer site_layer(Site site);

struct SiteTally {
  long long calls = 0;
  std::int64_t self_ns = 0;
};

/// Everything one thread (or a merged set of threads) recorded.
struct Tally {
  std::array<SiteTally, kSiteCount> site{};
  /// Time covered by the outermost span of each layer on the thread — a
  /// layer's inclusive time, which bounds its self time from above.
  std::array<std::int64_t, kLayerCount> layer_incl_ns{};
  double kernel_flops = 0.0;     ///< counted from the kernel call shapes
  std::int64_t flop_kernel_ns = 0;  ///< self time of the flop-counted kernels
  long long allocate_ok = 0;     ///< MetaScheduler::allocate successes
  long long msg_messages = 0;    ///< summed RunStats of Runtime::run
  long long msg_bytes = 0;
  double cpu_s = 0.0;            ///< thread CPU seconds (rank threads)
  long long threads = 0;         ///< rank threads merged in

  void add(const Tally& other);
  Tally minus(const Tally& base) const;
};

/// RAII span on the calling thread.
class Span {
 public:
  explicit Span(Site site);
  ~Span();
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;
};

/// Adds to the calling thread's counters.
void count(Site site);
/// Flops of the kernel span open on this thread; its self time counts
/// toward the denominator of kernel.gflops.
void add_flops(double flops);
void add_allocate_ok();
void add_messages(long long messages, long long bytes);

/// The calling thread's tally so far (call it from the main thread).
Tally main_tally();
/// The merged tally of every rank thread that has exited.
Tally rank_tally();

}  // namespace perfbench
