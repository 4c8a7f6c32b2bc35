#include "spans.hpp"

#include <time.h>

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <mutex>
#include <thread>

namespace perfbench {

namespace {

struct SiteInfo {
  const char* name;
  Layer layer;
};

constexpr SiteInfo kSites[kSiteCount] = {
    {"core::des_tsqr", Layer::kReplay},
    {"GridTopology::location_of", Layer::kReplay},
    {"sched::make_sub_topology", Layer::kPlacement},
    {"MetaScheduler::allocate", Layer::kPlacement},
    {"GridJobService::start", Layer::kService},
    {"GridJobService::step", Layer::kService},
    {"GridJobService::finish", Layer::kService},
    {"JobQueue::push", Layer::kQueue},
    {"JobQueue::pop_front", Layer::kQueue},
    {"JobQueue::take", Layer::kQueue},
    {"JobQueue::begin", Layer::kQueue},
    {"JobQueue::front", Layer::kQueue},
    {"GridWanModel::admit", Layer::kWan},
    {"GridWanModel::retire", Layer::kWan},
    {"GridWanModel::advance", Layer::kWan},
    {"GridWanModel::next_event_s", Layer::kWan},
    {"MetricsRegistry::observe", Layer::kTelemetry},
    {"MetricsRegistry::observe(bounds)", Layer::kTelemetry},
    {"TraceValidator::consume", Layer::kTelemetry},
    {"TraceValidator::finish", Layer::kTelemetry},
    {"sched::analyze_critical_path", Layer::kTelemetry},
    {"sched::write_chrome_trace", Layer::kTelemetry},
    {"sched::write_critpath_json", Layer::kTelemetry},
    {"msg::Runtime::run", Layer::kMsg},
    {"msg::Comm::recv", Layer::kMsg},
    {"msg::Comm::send", Layer::kMsg},
    {"geqrf", Layer::kKernel},
    {"tpqrt_tt", Layer::kKernel},
    {"tpmqrt_tt", Layer::kKernel},
    {"ormqr_left", Layer::kKernel},
    {"core::tsqr_factor", Layer::kKernel},
    {"core::tsqr_form_explicit_q", Layer::kKernel},
    {"fill_gaussian_rows", Layer::kKernel},
    {"factorization_residual", Layer::kVerify},
    {"orthogonality_error", Layer::kVerify},
};

constexpr const char* kLayerNames[kLayerCount] = {
    "replay", "placement", "service", "queue", "wan",
    "telemetry", "msg", "kernel", "verify"};

constexpr int kMaxDepth = 64;

struct Frame {
  Site site = Site::kStep;
  std::int64_t start_ns = 0;
  std::int64_t child_ns = 0;
  bool counts_flops = false;
};

// Rank threads fold into this when they exit; the main thread never does.
std::mutex g_rank_mu;
Tally g_rank_tally;
const std::thread::id g_main_thread = std::this_thread::get_id();

double thread_cpu_s() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + 1e-9 * static_cast<double>(ts.tv_nsec);
}

struct ThreadState {
  Frame stack[kMaxDepth];
  int depth = 0;
  int layer_depth[kLayerCount] = {};
  Tally tally;

  ThreadState() = default;
  ThreadState(const ThreadState&) = delete;
  ThreadState& operator=(const ThreadState&) = delete;
  ~ThreadState() {
    if (std::this_thread::get_id() == g_main_thread) return;
    tally.cpu_s = thread_cpu_s();
    tally.threads = 1;
    const std::lock_guard<std::mutex> lock(g_rank_mu);
    g_rank_tally.add(tally);
  }
};

thread_local ThreadState t_state;

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

}  // namespace

const char* layer_name(Layer layer) {
  return kLayerNames[static_cast<int>(layer)];
}
const char* site_name(Site site) { return kSites[static_cast<int>(site)].name; }
Layer site_layer(Site site) { return kSites[static_cast<int>(site)].layer; }

void Tally::add(const Tally& other) {
  for (int i = 0; i < kSiteCount; ++i) {
    site[i].calls += other.site[i].calls;
    site[i].self_ns += other.site[i].self_ns;
  }
  for (int i = 0; i < kLayerCount; ++i) layer_incl_ns[i] += other.layer_incl_ns[i];
  kernel_flops += other.kernel_flops;
  flop_kernel_ns += other.flop_kernel_ns;
  allocate_ok += other.allocate_ok;
  msg_messages += other.msg_messages;
  msg_bytes += other.msg_bytes;
  cpu_s += other.cpu_s;
  threads += other.threads;
}

Tally Tally::minus(const Tally& base) const {
  Tally out = *this;
  for (int i = 0; i < kSiteCount; ++i) {
    out.site[i].calls -= base.site[i].calls;
    out.site[i].self_ns -= base.site[i].self_ns;
  }
  for (int i = 0; i < kLayerCount; ++i) out.layer_incl_ns[i] -= base.layer_incl_ns[i];
  out.kernel_flops -= base.kernel_flops;
  out.flop_kernel_ns -= base.flop_kernel_ns;
  out.allocate_ok -= base.allocate_ok;
  out.msg_messages -= base.msg_messages;
  out.msg_bytes -= base.msg_bytes;
  out.cpu_s -= base.cpu_s;
  out.threads -= base.threads;
  return out;
}

Span::Span(Site site) {
  ThreadState& s = t_state;
  if (s.depth == kMaxDepth) {
    std::fprintf(stderr, "perfbench: span stack overflow at %s\n",
                 site_name(site));
    std::abort();
  }
  s.stack[s.depth++] = Frame{site, now_ns(), 0};
  ++s.layer_depth[static_cast<int>(site_layer(site))];
}

Span::~Span() {
  const std::int64_t end = now_ns();
  ThreadState& s = t_state;
  const Frame f = s.stack[--s.depth];
  const std::int64_t dur = end - f.start_ns;
  SiteTally& st = s.tally.site[static_cast<int>(f.site)];
  ++st.calls;
  st.self_ns += dur - f.child_ns;
  if (f.counts_flops) s.tally.flop_kernel_ns += dur - f.child_ns;
  if (s.depth > 0) s.stack[s.depth - 1].child_ns += dur;
  const int layer = static_cast<int>(site_layer(f.site));
  if (--s.layer_depth[layer] == 0) s.tally.layer_incl_ns[layer] += dur;
}

void count(Site site) { ++t_state.tally.site[static_cast<int>(site)].calls; }
void add_flops(double flops) {
  ThreadState& s = t_state;
  s.tally.kernel_flops += flops;
  s.stack[s.depth - 1].counts_flops = true;
}
void add_allocate_ok() { ++t_state.tally.allocate_ok; }
void add_messages(long long messages, long long bytes) {
  t_state.tally.msg_messages += messages;
  t_state.tally.msg_bytes += bytes;
}

Tally main_tally() { return t_state.tally; }

Tally rank_tally() {
  const std::lock_guard<std::mutex> lock(g_rank_mu);
  return g_rank_tally;
}

}  // namespace perfbench
