// perfbench: one named workload of the qrgrid job service, run in passes
// for a time budget.
//
//   perfbench[_traced] --workload NAME --seed N --seconds S
//
// Each workload has kStreams input streams; stream s is generated from
// seed s. After one untimed warm-up pass over stream 0, a run makes
// passes over streams N, N+1, ... (mod kStreams): each pass generates its
// stream's inputs, stands up a fresh GridJobService (cold replay cache),
// drives start() / step() / finish() itself, and checks every job's
// outcome. Passes repeat until S seconds have gone by and at least
// kMinSteps step() calls have been timed, so a run's figures average over
// several streams. The last line of stdout is one JSON object of raw
// measurements; run.py turns it into the benchmark's result line.
//
// The traced binary (PERFBENCH_TRACED) is the same program linked with
// the span interposers of wraps.cpp; it adds per-layer self times and
// counts, taken over the same window as the jobs_per_s clock.
#include <malloc.h>
#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <iostream>
#include <limits>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "common/check.hpp"
#include "common/rng.hpp"
#include "core/des_algos.hpp"
#include "model/roofline.hpp"
#include "sched/critpath.hpp"
#include "sched/outage.hpp"
#include "sched/service.hpp"
#include "sched/telemetry.hpp"
#include "sched/workload.hpp"
#include "simgrid/topology.hpp"

#ifdef PERFBENCH_TRACED
#include "spans.hpp"
#endif

using namespace qrgrid;

namespace {

/// Input streams per workload; run.py keeps reference outcomes for each.
constexpr std::uint64_t kStreams = 16;
/// p99 needs at least ten samples beyond it.
constexpr std::size_t kMinSteps = 1000;
/// Set-up is timed this many times after every pass (and at least
/// kMinSetupSamples times in all); setup_s is the median.
constexpr std::size_t kSetupsPerPass = 10;
constexpr std::size_t kMinSetupSamples = 51;
/// Hard stop for the pass loop, well inside the 180 s a run may take.
constexpr double kMaxLoopSeconds = 120.0;
/// Backend-equivalence bounds on a real factorization.
constexpr double kMaxResidual = 1e-10;
constexpr double kMaxOrthogonality = 1e-10;
/// glibc's ceiling for M_MMAP_THRESHOLD on 64-bit hosts (32 MiB): smaller
/// blocks come from the heap. Free heap memory above kMaxTrimThreshold is
/// returned to the kernel.
constexpr int kMaxMmapThreshold = 32 << 20;
constexpr int kMaxTrimThreshold = 1 << 30;

double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

enum class Workload { kG5kChurnObserved, kWanContended, kMsgExec };

Workload workload_of(const std::string& name) {
  if (name == "g5k-churn-observed") return Workload::kG5kChurnObserved;
  if (name == "wan-contended") return Workload::kWanContended;
  if (name == "msg-exec") return Workload::kMsgExec;
  throw Error("unknown --workload '" + name +
              "' (g5k-churn-observed|wan-contended|msg-exec)");
}

/// Sixteen sites tiled from the measured 4-site Grid'5000 slice: site s
/// copies measured site s mod 4, and every inter-site link borrows the
/// measured parameters of its endpoint classes (a same-class pair uses
/// its class's link to the next class). Many thin access links give the
/// max-min rate engine several independent bottleneck components.
simgrid::GridTopology tiled_grid(int sites, int nodes_per_cluster,
                                 int procs_per_node) {
  const simgrid::GridTopology measured =
      simgrid::GridTopology::grid5000(4, nodes_per_cluster, procs_per_node);
  std::vector<simgrid::ClusterSpec> clusters;
  for (int s = 0; s < sites; ++s) {
    simgrid::ClusterSpec spec = measured.cluster(s % 4);
    if (s >= 4) {
      spec.name += '-';
      spec.name += std::to_string(s / 4);
    }
    clusters.push_back(std::move(spec));
  }
  const auto k = static_cast<std::size_t>(sites);
  std::vector<std::vector<simgrid::LinkParams>> inter(
      k, std::vector<simgrid::LinkParams>(k));
  for (int a = 0; a < sites; ++a) {
    for (int b = 0; b < sites; ++b) {
      const int ca = a % 4, cb = b % 4;
      inter[static_cast<std::size_t>(a)][static_cast<std::size_t>(b)] =
          a == b     ? measured.inter_cluster_link(ca, ca)
          : ca == cb ? measured.inter_cluster_link(ca, (ca + 1) % 4)
                     : measured.inter_cluster_link(ca, cb);
    }
  }
  return simgrid::GridTopology(std::move(clusters), measured.intra_node_link(),
                               measured.intra_cluster_link(), std::move(inter));
}

/// Generates the stream's jobs with a stratified shape mix: the library's
/// Poisson stream supplies ids and arrival times, and the (m, n, procs)
/// draws are replaced by blocks holding every combination once, each block
/// in a seeded order. Every stream of a workload then carries the same mix
/// (up to the last, partial block) and streams differ in order and timing
/// only, which keeps the per-stream work, and so the run-to-run spread,
/// small.
std::vector<sched::Job> stratified_workload(const sched::WorkloadSpec& spec) {
  std::vector<sched::Job> jobs = sched::generate_workload(spec);
  struct Shape {
    double m;
    int n;
    int procs;
  };
  std::vector<Shape> shapes;
  for (const double m : spec.m_choices) {
    for (const int n : spec.n_choices) {
      for (const int procs : spec.procs_choices) shapes.push_back({m, n, procs});
    }
  }
  Rng rng(spec.seed + 0x51ed270b27f1e9c3ull);
  std::vector<std::size_t> order(shapes.size());
  for (std::size_t j = 0; j < jobs.size(); ++j) {
    const std::size_t k = j % shapes.size();
    if (k == 0) {
      for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
      for (std::size_t i = order.size() - 1; i > 0; --i) {
        std::swap(order[i], order[rng.uniform_index(i + 1)]);
      }
    }
    const Shape& shape = shapes[order[k]];
    jobs[j].m = shape.m;
    jobs[j].n = shape.n;
    jobs[j].procs = shape.procs;
  }
  return jobs;
}

/// One pass: its inputs, its telemetry sinks, and the started service.
/// The service is declared last so it is destroyed before the sinks it
/// points at.
struct Pass {
  std::vector<sched::Job> jobs;
  std::unique_ptr<sched::ServiceTracer> tracer;
  std::unique_ptr<sched::MetricsRegistry> metrics;
  std::unique_ptr<sched::GridJobService> service;
};

/// Workload generation, topology, and service construction for one pass
/// (start() is called by the caller).
Pass build_pass(Workload workload, std::uint64_t seed) {
  const model::Roofline roof = model::paper_calibration();
  Pass pass;
  sched::WorkloadSpec spec;
  spec.seed = seed;
  sched::ServiceOptions options;
  options.policy = sched::Policy::kEasyBackfill;
  simgrid::GridTopology topo = simgrid::GridTopology::grid5000(4, 32, 2);
  switch (workload) {
    case Workload::kG5kChurnObserved: {
      // The paper's shape mix on the measured 4-site slice, under churn,
      // with the full observability stack of `serve --blame --trace-out
      // --critpath-out`.
      spec.jobs = 1000;
      spec.mean_interarrival_s = 0.25;
      spec.procs_choices = {16, 32, 64, 128, 256};
      pass.jobs = stratified_workload(spec);
      const sched::GridJobService predictor(topo, roof);
      sched::assign_walltimes(pass.jobs, 5.0, seed, [&](const sched::Job& j) {
        return predictor.predicted_seconds(j);
      });
      sched::OutageSpec outage;
      outage.mtbf_s = 120.0;
      outage.mean_outage_s = outage.mtbf_s / 8.0;
      outage.seed = seed + 1;
      options.outages = sched::OutageTrace(outage, topo.num_clusters());
      options.max_retries = 3;
      options.restart_credit = true;
      pass.tracer = std::make_unique<sched::ServiceTracer>();
      pass.metrics = std::make_unique<sched::MetricsRegistry>();
      options.tracer = pass.tracer.get();
      options.metrics = pass.metrics.get();
      options.wait_blame = true;
      break;
    }
    case Workload::kWanContended: {
      // Flat-tree jobs straddling thin 16-site access links under max-min
      // sharing: the WAN rate engine's workload.
      topo = tiled_grid(16, 8, 2);
      spec.jobs = 2500;
      spec.mean_interarrival_s = 0.35;
      spec.m_choices = {1 << 17, 1 << 18};
      spec.n_choices = {256, 512};
      spec.procs_choices = {6, 12, 20};
      spec.tree_choices = {core::TreeKind::kFlat};
      pass.jobs = stratified_workload(spec);
      options.backfill_depth = 4;
      options.wan_contention = true;
      options.wan_aware = true;
      options.wan_fairness = sched::WanFairness::kMaxMin;
      options.wan_link_Bps = 0.05e9 / 8.0;
      options.wan_backbone_Bps = std::numeric_limits<double>::infinity();
      pass.metrics = std::make_unique<sched::MetricsRegistry>();
      options.metrics = pass.metrics.get();
      break;
    }
    case Workload::kMsgExec: {
      // Real TSQR on the threaded msg runtime: two sites of one
      // single-processor node, so at most two rank threads.
      topo = simgrid::GridTopology::grid5000(2, 1, 1);
      spec.jobs = 120;
      spec.mean_interarrival_s = 0.05;
      spec.m_choices = {1 << 11, 1 << 12, 1 << 13};
      spec.n_choices = {16, 32};
      spec.procs_choices = {1, 2};
      pass.jobs = stratified_workload(spec);
      // Arrivals batched on a 0.1 s grid: a step that admits arrivals
      // then often starts no factorization, and steps that do are clearly
      // more than half of all steps, so the median step is an execution
      // rather than the boundary between cheap and executing steps.
      for (sched::Job& job : pass.jobs) {
        job.arrival_s = 0.1 * std::ceil(job.arrival_s / 0.1);
      }
      options.domains_per_cluster = core::kOneDomainPerProcess;
      options.backend = sched::BackendKind::kMsgRuntime;
      pass.metrics = std::make_unique<sched::MetricsRegistry>();
      options.metrics = pass.metrics.get();
      break;
    }
  }
  pass.service =
      std::make_unique<sched::GridJobService>(std::move(topo), roof, options);
  return pass;
}

/// Times `count` set-ups of one stream: workload generation, topology,
/// service construction and start().
void time_setups(Workload workload, std::uint64_t stream, std::size_t count,
                 std::vector<double>& out) {
  for (std::size_t i = 0; i < count; ++i) {
    const double t0 = now_s();
    Pass pass = build_pass(workload, stream);
    pass.service->start(std::move(pass.jobs));
    out.push_back(now_s() - t0);
  }
}

/// 8-bit digest of one job's (id, start, finish, placement, fate).
std::uint8_t outcome_digest(const sched::JobOutcome& o) {
  std::uint64_t h = 1469598103934665603ull;
  const auto mix = [&h](std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (8 * i)) & 0xffu;
      h *= 1099511628211ull;
    }
  };
  const auto bits = [](double d) {
    std::uint64_t u = 0;
    std::memcpy(&u, &d, sizeof u);
    return u;
  };
  mix(static_cast<std::uint64_t>(o.job.id));
  mix(bits(o.start_s));
  mix(bits(o.finish_s));
  mix(static_cast<std::uint64_t>(o.fate));
  for (std::size_t i = 0; i < o.clusters.size(); ++i) {
    mix(static_cast<std::uint64_t>(o.clusters[i]));
    mix(static_cast<std::uint64_t>(o.nodes_per_cluster[i]));
  }
  h ^= h >> 32;
  h ^= h >> 16;
  return static_cast<std::uint8_t>(h ^ (h >> 8));
}

struct PassCheck {
  long long failed = 0;                 ///< jobs whose outcome check failed
  std::vector<std::uint8_t> digest;     ///< per job, in job-id order
  std::vector<std::string> notes;       ///< why jobs failed
};

/// Outcome checks of one pass that need no reference data.
PassCheck check_pass(Workload workload, std::size_t submitted,
                     const sched::ServiceReport& report,
                     const sched::TraceValidator* validator,
                     const sched::CriticalPathReport* cp) {
  PassCheck out;
  const auto n = static_cast<long long>(submitted);
  const long long accounted = report.completed_jobs + report.failed_jobs;
  if (accounted != n ||
      report.outcomes.size() != static_cast<std::size_t>(n)) {
    out.failed += std::max(std::llabs(n - accounted),
                           std::llabs(n - static_cast<long long>(
                                              report.outcomes.size())));
    out.notes.push_back("lost jobs: " + std::to_string(accounted) + " of " +
                        std::to_string(n) + " accounted");
  }
  // A run-level invariant that fails condemns every job of the pass.
  bool run_ok = true;
  if (validator != nullptr && !validator->ok()) {
    run_ok = false;
    out.notes.push_back("trace validator: " + validator->violations().front());
  }
  if (cp != nullptr) {
    bool tiles = cp->chain.empty()
                     ? report.makespan_s == 0.0
                     : cp->chain.front().t0_s == 0.0 &&
                           cp->chain.back().t1_s == report.makespan_s;
    for (std::size_t i = 0; tiles && i + 1 < cp->chain.size(); ++i) {
      tiles = cp->chain[i].t1_s == cp->chain[i + 1].t0_s;
    }
    if (!tiles || cp->makespan_s != report.makespan_s) {
      run_ok = false;
      out.notes.push_back("critical path does not tile the makespan");
    }
  }
  long long bad_numerics = 0;
  for (const sched::JobOutcome& o : report.outcomes) {
    out.digest.push_back(outcome_digest(o));
    if (!run_ok) continue;
    if (workload == Workload::kMsgExec &&
        !(o.completed() && o.executed && std::isfinite(o.residual) &&
          o.residual <= kMaxResidual && std::isfinite(o.orthogonality) &&
          o.orthogonality <= kMaxOrthogonality)) {
      ++bad_numerics;
    }
  }
  if (!run_ok) out.failed = n;
  if (bad_numerics > 0) {
    out.failed += bad_numerics;
    out.notes.push_back(std::to_string(bad_numerics) +
                        " executions outside the residual/orthogonality bounds");
  }
  return out;
}

double percentile(std::vector<double> v, double q) {
  std::sort(v.begin(), v.end());
  const auto rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(v.size())));
  return v[std::max<std::size_t>(rank, 1) - 1];
}

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += (c == '\n') ? ' ' : c;
  }
  return out + "\"";
}

#ifdef PERFBENCH_TRACED
using perfbench::Layer;
using perfbench::Site;
using perfbench::Tally;

double layer_self_s(const Tally& t, Layer layer) {
  std::int64_t ns = 0;
  for (int s = 0; s < perfbench::kSiteCount; ++s) {
    if (perfbench::site_layer(static_cast<Site>(s)) == layer) {
      ns += t.site[static_cast<std::size_t>(s)].self_ns;
    }
  }
  return 1e-9 * static_cast<double>(ns);
}

double layer_calls(const Tally& t, Layer layer) {
  long long calls = 0;
  for (int s = 0; s < perfbench::kSiteCount; ++s) {
    if (perfbench::site_layer(static_cast<Site>(s)) == layer &&
        static_cast<Site>(s) != Site::kLocationOf) {
      calls += t.site[static_cast<std::size_t>(s)].calls;
    }
  }
  return static_cast<double>(calls);
}

/// What the traced binary adds over one run, summed over its passes.
struct TraceTotals {
  Tally main;   ///< the service thread, whose self times tile the wall
  Tally ranks;  ///< the msg runtime's spawned rank threads
  long long profile_hits = 0;
  long long profile_misses = 0;
  long long trace_events = 0;
  double wan_events = 0.0, wan_recomputes = 0.0, wan_full_refills = 0.0;
};

/// Per-layer metrics, each per pass of the workload, with what run.py's
/// span checks need: per-layer inclusive times, per-site call counts,
/// and the backend's own count of profile misses.
void write_layers(std::ostream& js, const TraceTotals& t, double loop_s,
                  int passes) {
  const double per = 1.0 / passes;
  const Tally& m = t.main;
  const Tally& r = t.ranks;
  const auto calls = [&](Site s) {
    const auto i = static_cast<std::size_t>(s);
    return static_cast<double>(m.site[i].calls + r.site[i].calls) * per;
  };
  std::map<std::string, double> out;
  std::map<std::string, double> incl_s;
  const double wall_s = loop_s * per;
  double spanned_s = 0.0;
  for (int l = 0; l < perfbench::kLayerCount; ++l) {
    const auto layer = static_cast<Layer>(l);
    const double self = layer_self_s(m, layer) * per;
    const double incl =
        1e-9 * static_cast<double>(m.layer_incl_ns[static_cast<std::size_t>(l)]) *
        per;
    spanned_s += self;
    out[std::string(perfbench::layer_name(layer)) + ".self_s"] = self;
    incl_s[perfbench::layer_name(layer)] = incl;
  }
  out["other.self_s"] = wall_s - spanned_s;
  out["trace.wall_s"] = wall_s;

  const double misses = calls(Site::kDesTsqr);
  const double lookups =
      static_cast<double>(t.profile_hits + t.profile_misses) * per;
  out["replay.misses"] = misses;
  out["replay.lookups"] = lookups;
  out["replay.ms_per_miss"] =
      misses > 0.0 ? 1e3 * out["replay.self_s"] / misses : 0.0;
  out["replay.hit_rate"] =
      lookups > 0.0 ? static_cast<double>(t.profile_hits) * per / lookups : 0.0;
  out["topology.location_of_calls"] = calls(Site::kLocationOf);
  out["placement.probes"] = calls(Site::kMakeSubTopology);
  out["placement.allocate_calls"] = calls(Site::kAllocate);
  out["placement.allocate_success"] =
      calls(Site::kAllocate) > 0.0
          ? static_cast<double>(m.allocate_ok + r.allocate_ok) * per /
                calls(Site::kAllocate)
          : 0.0;
  out["service.steps"] = calls(Site::kStep);
  out["queue.ops"] =
      (layer_calls(m, Layer::kQueue) + layer_calls(r, Layer::kQueue)) * per;
  out["wan.calls"] =
      (layer_calls(m, Layer::kWan) + layer_calls(r, Layer::kWan)) * per;
  out["wan.rebalance.events"] = t.wan_events * per;
  out["wan.rebalance.recomputes"] = t.wan_recomputes * per;
  out["wan.rebalance.full_refills"] = t.wan_full_refills * per;
  out["telemetry.trace_events"] = static_cast<double>(t.trace_events) * per;
  const auto recv = static_cast<std::size_t>(Site::kCommRecv);
  out["msg.recv_wait_s"] =
      1e-9 * static_cast<double>(m.site[recv].self_ns + r.site[recv].self_ns) *
      per;
  out["msg.rank_cpu_s"] = r.cpu_s * per;
  out["msg.rank_threads"] = static_cast<double>(r.threads) * per;
  out["msg.messages"] =
      static_cast<double>(m.msg_messages + r.msg_messages) * per;
  out["msg.bytes"] = static_cast<double>(m.msg_bytes + r.msg_bytes) * per;
  const double flops = (m.kernel_flops + r.kernel_flops) * per;
  const double flop_s =
      1e-9 * static_cast<double>(m.flop_kernel_ns + r.flop_kernel_ns) * per;
  out["kernel.flops"] = flops;
  out["kernel.flop_s"] = flop_s;
  out["kernel.gflops"] = flop_s > 0.0 ? flops / flop_s / 1e9 : 0.0;

  js << ", \"layers\": {";
  bool first = true;
  for (const auto& [name, value] : out) {
    js << (first ? "" : ", ") << json_string(name) << ": " << value;
    first = false;
  }
  js << "}, \"layer_incl_s\": {";
  first = true;
  for (const auto& [name, value] : incl_s) {
    js << (first ? "" : ", ") << json_string(name) << ": " << value;
    first = false;
  }
  js << "}, \"backend_profile_misses\": "
     << static_cast<double>(t.profile_misses) * per << ", \"sites\": {";
  for (int s = 0; s < perfbench::kSiteCount; ++s) {
    js << (s ? ", " : "")
       << json_string(perfbench::site_name(static_cast<Site>(s)))
       << ": {\"calls\": " << calls(static_cast<Site>(s)) << "}";
  }
  js << "}";
}
#endif

/// Process settings that keep the host out of the figures, made before
/// any thread starts (threads inherit the CPU affinity).
void settle_process(Workload workload) {
  // On msg-exec, keep freed heap memory in the process. With glibc's
  // defaults every job's multi-megabyte matrices are fresh pages (about
  // 60,000 minor faults a second, an eighth of the run in the kernel),
  // and what a fault costs in a virtual machine swings with the load on
  // the host. A job now reuses the pages an earlier job faulted in, as in
  // a warmed-up server. The replay workloads fault little, and there the
  // setting would only grow the heap.
  if (workload == Workload::kMsgExec) {
    QRGRID_CHECK_MSG(mallopt(M_MMAP_THRESHOLD, kMaxMmapThreshold) == 1 &&
                         mallopt(M_TRIM_THRESHOLD, kMaxTrimThreshold) == 1,
                     "mallopt refused the allocator settings");
  }
  // Run on one CPU, the highest-numbered one allowed. A msg-exec job
  // hands control between its rank threads several times; across CPUs
  // each hand-off wakes an idle virtual CPU, whose delay depends on the
  // host's load (on a 4-vCPU VM, msg-exec's jobs_per_s ranged over 13%
  // of its mean in five runs that way, 2.5% on one CPU). On one CPU a
  // rank that blocks in recv yields to its peer.
  cpu_set_t allowed;
  CPU_ZERO(&allowed);
  QRGRID_CHECK_MSG(sched_getaffinity(0, sizeof allowed, &allowed) == 0,
                   "sched_getaffinity failed");
  int cpu = -1;
  for (int c = 0; c < CPU_SETSIZE; ++c) {
    if (CPU_ISSET(c, &allowed)) cpu = c;
  }
  QRGRID_CHECK_MSG(cpu >= 0, "no CPU in the process's affinity mask");
  cpu_set_t one;
  CPU_ZERO(&one);
  CPU_SET(cpu, &one);
  QRGRID_CHECK_MSG(sched_setaffinity(0, sizeof one, &one) == 0,
                   "sched_setaffinity to CPU " << cpu << " failed");
}

int run(int argc, char** argv) {
  std::string workload_name;
  std::uint64_t seed = 0;
  double seconds = 0.0;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    if (flag == "--workload") {
      workload_name = value;
    } else if (flag == "--seed") {
      seed = std::stoull(value);
    } else if (flag == "--seconds") {
      seconds = std::stod(value);
    } else {
      throw Error("unknown flag " + flag);
    }
  }
  QRGRID_CHECK_MSG(argc % 2 == 1 && !workload_name.empty() && seconds > 0.0,
                   "usage: perfbench --workload NAME --seed N --seconds S");
  const Workload workload = workload_of(workload_name);

  settle_process(workload);

  // Every timed step() call of the run; step_p50_us and step_p99_us are
  // percentiles of them all.
  std::vector<double> step_s;
  std::vector<double> setup_s;
  long long retired = 0;  ///< jobs completed or finally failed
  std::map<std::uint64_t, std::vector<std::uint8_t>> digests;  ///< per stream
  std::vector<std::uint64_t> streams;  ///< the stream of each pass
  std::map<std::uint64_t, double> stream_loop_s;
  double loop_s = 0.0;
  long long attempted = 0, failed = 0;
  int passes = 0;
  std::vector<std::string> notes;
#ifdef PERFBENCH_TRACED
  TraceTotals totals;
#endif

  // One untimed pass over stream 0 first. It warms the caches, and on
  // msg-exec, where freed memory stays in the process, it grows the heap
  // the timed passes reuse, so the peak RSS no longer depends on the
  // stream a seed starts at (it did by up to a tenth).
  {
    Pass warm = build_pass(workload, 0);
    warm.service->start(std::move(warm.jobs));
    while (warm.service->active()) warm.service->step();
    warm.service->finish();
  }

  const double t_begin = now_s();
  while (step_s.size() < kMinSteps || now_s() - t_begin < seconds) {
    QRGRID_CHECK_MSG(now_s() - t_begin < kMaxLoopSeconds,
                     "fewer than " << kMinSteps << " steps in "
                                   << kMaxLoopSeconds << " s");
    const std::uint64_t stream =
        (seed % kStreams + static_cast<std::uint64_t>(passes)) % kStreams;
    Pass pass = build_pass(workload, stream);
    const std::size_t submitted = pass.jobs.size();
#ifdef PERFBENCH_TRACED
    const Tally main_base = perfbench::main_tally();
    const Tally rank_base = perfbench::rank_tally();
#endif
    // The jobs_per_s clock runs from start() to the end of the post-run
    // analyses; start() also counts toward set-up.
    const double t1 = now_s();
    pass.service->start(std::move(pass.jobs));
    while (pass.service->active()) {
      const double a = now_s();
      pass.service->step();
      step_s.push_back(now_s() - a);
    }
    const sched::ServiceReport report = pass.service->finish();
    // A local object, so consume() and finish() are direct calls the
    // traced binary's interposers see (a virtual call never names them).
    sched::TraceValidator validator;
    std::unique_ptr<sched::CriticalPathReport> cp;
    if (pass.tracer != nullptr) {
      // The post-run trace analyses `serve --trace-out --critpath-out`
      // performs, rendered in memory rather than to files.
      const std::vector<sched::ServiceTraceEvent>& events =
          pass.tracer->events();
      for (const sched::ServiceTraceEvent& ev : events) validator.consume(ev);
      validator.finish();
      cp = std::make_unique<sched::CriticalPathReport>(
          sched::analyze_critical_path(events));
      std::ostringstream sink;
      sched::write_chrome_trace(events, sink);
      sched::write_critpath_json(*cp, sink);
    }
    const double t3 = now_s();
    loop_s += t3 - t1;
    stream_loop_s[stream] += t3 - t1;
#ifdef PERFBENCH_TRACED
    totals.main.add(perfbench::main_tally().minus(main_base));
    totals.ranks.add(perfbench::rank_tally().minus(rank_base));
    if (pass.tracer != nullptr) {
      totals.trace_events += static_cast<long long>(pass.tracer->events().size());
    }
    totals.profile_hits += pass.metrics->counter("backend.profile_hits");
    totals.profile_misses += pass.metrics->counter("backend.profile_misses");
    totals.wan_events += pass.metrics->gauge("wan.rebalance.events");
    totals.wan_recomputes += pass.metrics->gauge("wan.rebalance.recomputes");
    totals.wan_full_refills += pass.metrics->gauge("wan.rebalance.full_refills");
#endif

    PassCheck check =
        check_pass(workload, submitted, report,
                   pass.tracer != nullptr ? &validator : nullptr, cp.get());
    streams.push_back(stream);
    const auto [seen, first] = digests.emplace(stream, check.digest);
    const std::vector<std::uint8_t>& digest = seen->second;
    if (!first && check.digest != digest) {
      // A stream's outcomes must repeat on every pass over it.
      long long differ = 0;
      for (std::size_t j = 0; j < std::max(digest.size(), check.digest.size());
           ++j) {
        if (j >= digest.size() || j >= check.digest.size() ||
            digest[j] != check.digest[j]) {
          ++differ;
        }
      }
      check.failed += differ;
      check.notes.push_back("stream " + std::to_string(stream) + ": " +
                            std::to_string(differ) +
                            " outcomes differ from its first pass");
    }
    for (std::string& note : check.notes) notes.push_back(std::move(note));
    failed += std::min<long long>(check.failed,
                                  static_cast<long long>(submitted));
    attempted += static_cast<long long>(submitted);
    retired += report.completed_jobs + report.failed_jobs;
    ++passes;
    std::cerr << "pass " << passes << " (stream " << stream << "): "
              << submitted << " jobs, "
              << report.killed_jobs << " kills, " << report.requeued_jobs
              << " requeues, makespan " << report.makespan_s << " s, "
              << t3 - t1 << " s wall\n";
    // Set-up alone, timed between passes so that a burst of load on the
    // host cannot skew every sample.
    time_setups(workload, stream, kSetupsPerPass, setup_s);
  }
  if (setup_s.size() < kMinSetupSamples) {
    time_setups(workload, seed % kStreams, kMinSetupSamples - setup_s.size(),
                setup_s);
  }

  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  const double peak_rss_mb = static_cast<double>(usage.ru_maxrss) / 1024.0;

  std::ostringstream js;
  js.precision(17);
  js << "{\"workload\": " << json_string(workload_name) << ", \"seed\": "
     << seed << ", \"passes\": " << passes
     << ", \"attempted\": " << attempted << ", \"failed\": " << failed
     << ", \"jobs_per_s\": " << static_cast<double>(retired) / loop_s
     << ", \"loop_s\": " << loop_s << ", \"steps\": " << step_s.size()
     << ", \"step_p50_us\": " << 1e6 * percentile(step_s, 0.50)
     << ", \"step_p99_us\": " << 1e6 * percentile(step_s, 0.99)
     << ", \"setup_s\": " << percentile(setup_s, 0.50)
     << ", \"setup_samples\": " << setup_s.size()
     << ", \"peak_rss_mb\": " << peak_rss_mb << ", \"notes\": [";
  for (std::size_t i = 0; i < notes.size(); ++i) {
    js << (i ? ", " : "") << json_string(notes[i]);
  }
  js << "], \"streams\": [";
  for (std::size_t i = 0; i < streams.size(); ++i) {
    js << (i ? ", " : "") << streams[i];
  }
  js << "], \"stream_loop_s\": {";
  for (const auto& [stream, secs] : stream_loop_s) {
    js << (stream == stream_loop_s.begin()->first ? "" : ", ") << '"'
       << stream << "\": " << secs;
  }
  js << "}, \"digests\": {";
  for (const auto& [stream, digest] : digests) {
    js << (stream == digests.begin()->first ? "" : ", ") << '"' << stream
       << "\": \"";
    for (const std::uint8_t d : digest) {
      char buf[3];
      std::snprintf(buf, sizeof buf, "%02x", d);
      js << buf;
    }
    js << '"';
  }
  js << "}";
#ifdef PERFBENCH_TRACED
  write_layers(js, totals, loop_s, passes);
#endif
  js << "}";
  std::cout << js.str() << std::endl;
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return run(argc, argv);
  } catch (const std::exception& e) {
    std::cerr << "perfbench: error: " << e.what() << '\n';
    return 1;
  }
}
