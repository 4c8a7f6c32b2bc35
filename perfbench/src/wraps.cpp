// Link-time interposers on qrgrid's public functions (traced binary only).
//
// The traced binary is linked with `-Wl,--wrap=<symbol>` for every
// mangled name below (CMakeLists.txt extracts them from this file): the
// linker resolves each undefined reference to <symbol> to __wrap_<symbol>
// and __real_<symbol> to the original definition. Both benchmark binaries
// link the same, unmodified library. A member function is declared here
// as a free function taking the object pointer first, which is how the
// Itanium C++ ABI passes `this`.
//
// Only calls that cross a translation unit reach a wrapper: a call the
// compiler resolves inside the defining object file never names the
// symbol. A function renamed at the library side fails the link (its
// __real_ symbol stays undefined); one whose callers move into its own
// translation unit goes silent, which the benchmark's per-workload span
// check reports as an error.
#include <string>
#include <vector>

#include "core/des_algos.hpp"
#include "core/tsqr.hpp"
#include "linalg/flops.hpp"
#include "linalg/generators.hpp"
#include "linalg/norms.hpp"
#include "linalg/qr.hpp"
#include "linalg/tpqrt.hpp"
#include "msg/comm.hpp"
#include "sched/backend.hpp"
#include "sched/critpath.hpp"
#include "sched/job.hpp"
#include "sched/service.hpp"
#include "sched/telemetry.hpp"
#include "sched/wan.hpp"
#include "simgrid/jobprofile.hpp"
#include "simgrid/topology.hpp"
#include "spans.hpp"

using namespace qrgrid;
using perfbench::Site;
using perfbench::Span;

// Declares __real_<mangled> and defines __wrap_<mangled> as a span around
// it. `params` lists the full parameter list (object pointer first for
// members), `args` the matching argument names.
#define PERFBENCH_WRAP(site, mangled, Ret, params, args) \
  Ret real_##site params __asm__("__real_" mangled);     \
  Ret wrap_##site params __asm__("__wrap_" mangled);     \
  Ret wrap_##site params {                               \
    const Span span(Site::site);                         \
    return real_##site args;                             \
  }

// Like PERFBENCH_WRAP, but the wrapper body is written out after it.
#define PERFBENCH_DECLARE(site, mangled, Ret, params) \
  Ret real_##site params __asm__("__real_" mangled);  \
  Ret wrap_##site params __asm__("__wrap_" mangled);

namespace perfbench::wraps {

// ---------------------------------------------------------------- replay
PERFBENCH_WRAP(kDesTsqr,
               "_ZN6qrgrid4core8des_tsqrERNS_7simgrid9DesEngineERKSt6vectorIS4_IiSaIiEESaIS6_EERKS6_ddNS0_8TreeKindEb",
               void,
               (simgrid::DesEngine & engine,
                const std::vector<std::vector<int>>& groups,
                const std::vector<int>& domain_cluster, double m, double n,
                core::TreeKind tree, bool form_q),
               (engine, groups, domain_cluster, m, n, tree, form_q))

PERFBENCH_DECLARE(kLocationOf,
                  "_ZNK6qrgrid7simgrid12GridTopology11location_ofEi",
                  simgrid::ProcLocation,
                  (const simgrid::GridTopology* self, int rank))
simgrid::ProcLocation wrap_kLocationOf(const simgrid::GridTopology* self,
                                       int rank) {
  perfbench::count(Site::kLocationOf);
  return real_kLocationOf(self, rank);
}

// ------------------------------------------------------------- placement
PERFBENCH_WRAP(kMakeSubTopology,
               "_ZN6qrgrid5sched17make_sub_topologyERKNS_7simgrid12GridTopologyERKSt6vectorIiSaIiEES9_",
               sched::SubTopology,
               (const simgrid::GridTopology& master,
                const std::vector<int>& nodes_per_cluster,
                const std::vector<int>& order),
               (master, nodes_per_cluster, order))

PERFBENCH_DECLARE(kAllocate,
                  "_ZNK6qrgrid7simgrid13MetaScheduler8allocateERKNS0_10JobProfileE",
                  std::optional<simgrid::Allocation>,
                  (const simgrid::MetaScheduler* self,
                   const simgrid::JobProfile& profile))
std::optional<simgrid::Allocation> wrap_kAllocate(
    const simgrid::MetaScheduler* self, const simgrid::JobProfile& profile) {
  const Span span(Site::kAllocate);
  std::optional<simgrid::Allocation> alloc = real_kAllocate(self, profile);
  if (alloc.has_value()) perfbench::add_allocate_ok();
  return alloc;
}

// ------------------------------------------------------------ event loop
PERFBENCH_WRAP(kStart,
               "_ZN6qrgrid5sched14GridJobService5startESt6vectorINS0_3JobESaIS3_EE",
               void,
               (sched::GridJobService * self, std::vector<sched::Job> jobs),
               (self, std::move(jobs)))
PERFBENCH_WRAP(kStep, "_ZN6qrgrid5sched14GridJobService4stepEv", void,
               (sched::GridJobService * self), (self))
PERFBENCH_WRAP(kFinish, "_ZN6qrgrid5sched14GridJobService6finishEv",
               sched::ServiceReport, (sched::GridJobService * self), (self))

// ----------------------------------------------------------------- queue
PERFBENCH_WRAP(kQueuePush, "_ZN6qrgrid5sched8JobQueue4pushENS0_3JobEd", void,
               (sched::JobQueue * self, sched::Job job, double predicted_s),
               (self, std::move(job), predicted_s))
PERFBENCH_WRAP(kQueuePopFront, "_ZN6qrgrid5sched8JobQueue9pop_frontEv",
               sched::Job, (sched::JobQueue * self), (self))
PERFBENCH_WRAP(kQueueTake,
               "_ZN6qrgrid5sched8JobQueue4takeESt23_Rb_tree_const_iteratorINS0_12PendingEntryEERNS0_3JobE",
               sched::JobQueue::const_iterator,
               (sched::JobQueue * self, sched::JobQueue::const_iterator it,
                sched::Job& out),
               (self, it, out))
PERFBENCH_WRAP(kQueueBegin, "_ZN6qrgrid5sched8JobQueue5beginEv",
               sched::JobQueue::const_iterator, (sched::JobQueue * self),
               (self))
PERFBENCH_WRAP(kQueueFront, "_ZN6qrgrid5sched8JobQueue5frontEv",
               const sched::Job&, (sched::JobQueue * self), (self))

// ------------------------------------------------------------ WAN engine
PERFBENCH_WRAP(kWanAdmit,
               "_ZN6qrgrid5sched12GridWanModel5admitEdSt6vectorINS1_4PoolESaIS3_EE",
               int,
               (sched::GridWanModel * self, double now_s,
                std::vector<sched::GridWanModel::Pool> pools),
               (self, now_s, std::move(pools)))
PERFBENCH_WRAP(kWanRetire,
               "_ZN6qrgrid5sched12GridWanModel6retireEiRSt6vectorIxSaIxEES5_",
               void,
               (sched::GridWanModel * self, int flow,
                std::vector<long long>& egress, std::vector<long long>& ingress),
               (self, flow, egress, ingress))
PERFBENCH_WRAP(kWanAdvance, "_ZN6qrgrid5sched12GridWanModel7advanceEdd", void,
               (sched::GridWanModel * self, double from_s, double to_s),
               (self, from_s, to_s))
PERFBENCH_WRAP(kWanNextEvent, "_ZNK6qrgrid5sched12GridWanModel12next_event_sEd",
               double, (const sched::GridWanModel* self, double now_s),
               (self, now_s))

// ------------------------------------------------------------- telemetry
PERFBENCH_WRAP(kObserve,
               "_ZN6qrgrid5sched15MetricsRegistry7observeERKNSt7__cxx1112basic_stringIcSt11char_traitsIcESaIcEEEd",
               void,
               (sched::MetricsRegistry * self, const std::string& name,
                double value),
               (self, name, value))
PERFBENCH_WRAP(kObserveBounds,
               "_ZN6qrgrid5sched15MetricsRegistry7observeERKNSt7__cxx1112basic_stringIcSt11char_traitsIcESaIcEEEdRKSt6vectorIdSaIdEE",
               void,
               (sched::MetricsRegistry * self, const std::string& name,
                double value, const std::vector<double>& bounds),
               (self, name, value, bounds))
PERFBENCH_WRAP(kValidatorConsume,
               "_ZN6qrgrid5sched14TraceValidator7consumeERKNS0_17ServiceTraceEventE",
               void,
               (sched::TraceValidator * self,
                const sched::ServiceTraceEvent& event),
               (self, event))
PERFBENCH_WRAP(kValidatorFinish, "_ZN6qrgrid5sched14TraceValidator6finishEv",
               void, (sched::TraceValidator * self), (self))
PERFBENCH_WRAP(kCriticalPath,
               "_ZN6qrgrid5sched21analyze_critical_pathERKSt6vectorINS0_17ServiceTraceEventESaIS2_EE",
               sched::CriticalPathReport,
               (const std::vector<sched::ServiceTraceEvent>& events),
               (events))
PERFBENCH_WRAP(kWriteChromeTrace,
               "_ZN6qrgrid5sched18write_chrome_traceERKSt6vectorINS0_17ServiceTraceEventESaIS2_EERSo",
               void,
               (const std::vector<sched::ServiceTraceEvent>& events,
                std::ostream& out),
               (events, out))
PERFBENCH_WRAP(kWriteCritpathJson,
               "_ZN6qrgrid5sched19write_critpath_jsonERKNS0_18CriticalPathReportERSo",
               void,
               (const sched::CriticalPathReport& report, std::ostream& out),
               (report, out))

// ----------------------------------------------------------- msg runtime
PERFBENCH_DECLARE(kRuntimeRun,
                  "_ZN6qrgrid3msg7Runtime3runERKSt8functionIFvRNS0_4CommEEE",
                  msg::RunStats,
                  (msg::Runtime * self,
                   const std::function<void(msg::Comm&)>& fn))
msg::RunStats wrap_kRuntimeRun(msg::Runtime* self,
                               const std::function<void(msg::Comm&)>& fn) {
  const Span span(Site::kRuntimeRun);
  const msg::RunStats stats = real_kRuntimeRun(self, fn);
  perfbench::add_messages(stats.messages, stats.bytes);
  return stats;
}
PERFBENCH_WRAP(kCommRecv, "_ZN6qrgrid3msg4Comm4recvEii", std::vector<double>,
               (msg::Comm * self, int src, int tag), (self, src, tag))
PERFBENCH_WRAP(kCommSend, "_ZN6qrgrid3msg4Comm4sendEiiSt4spanIKdLm18446744073709551615EE",
               void,
               (msg::Comm * self, int dst, int tag,
                std::span<const double> payload),
               (self, dst, tag, payload))

// --------------------------------------------------------------- kernels
PERFBENCH_DECLARE(kGeqrf,
                  "_ZN6qrgrid5geqrfENS_10MatrixViewERSt6vectorIdSaIdEEl", void,
                  (MatrixView a, std::vector<double>& tau, Index nb))
void wrap_kGeqrf(MatrixView a, std::vector<double>& tau, Index nb) {
  const Span span(Site::kGeqrf);
  perfbench::add_flops(flops::geqrf(static_cast<double>(a.rows()),
                                    static_cast<double>(a.cols())));
  real_kGeqrf(a, tau, nb);
}
PERFBENCH_DECLARE(kTpqrtTt,
                  "_ZN6qrgrid8tpqrt_ttENS_10MatrixViewES0_RSt6vectorIdSaIdEE",
                  void,
                  (MatrixView r1, MatrixView r2, std::vector<double>& tau))
void wrap_kTpqrtTt(MatrixView r1, MatrixView r2, std::vector<double>& tau) {
  const Span span(Site::kTpqrtTt);
  perfbench::add_flops(flops::tpqrt_tt(static_cast<double>(r1.cols())));
  real_kTpqrtTt(r1, r2, tau);
}
PERFBENCH_DECLARE(kTpmqrtTt,
                  "_ZN6qrgrid9tpmqrt_ttENS_5TransENS_15ConstMatrixViewERKSt6vectorIdSaIdEENS_10MatrixViewES7_",
                  void,
                  (Trans trans, ConstMatrixView v2,
                   const std::vector<double>& tau, MatrixView c1,
                   MatrixView c2))
void wrap_kTpmqrtTt(Trans trans, ConstMatrixView v2,
                    const std::vector<double>& tau, MatrixView c1,
                    MatrixView c2) {
  const Span span(Site::kTpmqrtTt);
  perfbench::add_flops(flops::tpmqrt_tt(static_cast<double>(v2.cols()),
                                        static_cast<double>(c1.cols())));
  real_kTpmqrtTt(trans, v2, tau, c1, c2);
}
PERFBENCH_DECLARE(kOrmqrLeft,
                  "_ZN6qrgrid10ormqr_leftENS_5TransENS_15ConstMatrixViewERKSt6vectorIdSaIdEENS_10MatrixViewE",
                  void,
                  (Trans trans, ConstMatrixView a,
                   const std::vector<double>& tau, MatrixView c))
void wrap_kOrmqrLeft(Trans trans, ConstMatrixView a,
                     const std::vector<double>& tau, MatrixView c) {
  const Span span(Site::kOrmqrLeft);
  perfbench::add_flops(flops::ormqr(static_cast<double>(a.rows()),
                                    static_cast<double>(tau.size()),
                                    static_cast<double>(c.cols())));
  real_kOrmqrLeft(trans, a, tau, c);
}
PERFBENCH_WRAP(kTsqrFactor,
               "_ZN6qrgrid4core11tsqr_factorERNS_3msg4CommENS_10MatrixViewERKNS0_11TsqrOptionsE",
               core::TsqrFactors,
               (msg::Comm & comm, MatrixView a_local,
                const core::TsqrOptions& options),
               (comm, a_local, options))
PERFBENCH_WRAP(kTsqrFormQ,
               "_ZN6qrgrid4core20tsqr_form_explicit_qERNS_3msg4CommERKNS0_11TsqrFactorsE",
               Matrix, (msg::Comm & comm, const core::TsqrFactors& factors),
               (comm, factors))

PERFBENCH_WRAP(kFillGaussian, "_ZN6qrgrid18fill_gaussian_rowsENS_10MatrixViewElm",
               void, (MatrixView block, Index row0, std::uint64_t seed),
               (block, row0, seed))

// ---------------------------------------------------------- verification
PERFBENCH_WRAP(kResidual,
               "_ZN6qrgrid22factorization_residualENS_15ConstMatrixViewES0_S0_",
               double, (ConstMatrixView a, ConstMatrixView q, ConstMatrixView r),
               (a, q, r))
PERFBENCH_WRAP(kOrthogonality, "_ZN6qrgrid19orthogonality_errorENS_15ConstMatrixViewE",
               double, (ConstMatrixView q), (q))

}  // namespace perfbench::wraps
