// Discrete-event replays of the factorization schedules at grid scale.
//
// These functions drive a simgrid::DesEngine through the exact
// communication/computation schedule of the SPMD algorithms (same trees,
// same collective shapes, same flop formulas) without touching payload
// data, which is what lets the benchmark harness reproduce the paper's
// figures over matrices up to 33.5M rows. The engine-equivalence test
// pins these schedules to the threaded implementations.
#pragma once

#include <span>
#include <vector>

#include "core/tree.hpp"
#include "model/roofline.hpp"
#include "simgrid/des.hpp"
#include "simgrid/topology.hpp"

namespace qrgrid::core {

/// ScaLAPACK PDGEQR2 analog: 2 allreduces per column over `ranks`.
/// `form_q` additionally replays the distributed Q accumulation.
void des_pdgeqr2(simgrid::DesEngine& engine, std::span<const int> ranks,
                 double m, double n, bool form_q);

/// ScaLAPACK PDGEQRF analog: per-column allreduces inside each width-nb
/// panel plus one blocked-update allreduce per panel (NB = 64 in the
/// paper's runs).
void des_pdgeqrf(simgrid::DesEngine& engine, std::span<const int> ranks,
                 double m, double n, int nb, bool form_q);

/// QCG-TSQR: each domain is factored by a ScaLAPACK call over its process
/// group (a single-process group degenerates to a LAPACK geqrf, the
/// original TSQR), then the R factors are reduced over `tree_kind`.
/// The leaf loop replays each distinct group shape once per call and
/// stamps that end state onto every other group of the shape
/// (DesEngine::replay_group): same size, one cluster, same pattern of
/// shared nodes, and the same per-position speed scale, start clock and
/// compute seconds, bit for bit. A group spanning clusters is replayed
/// in full. Every engine observable stays bit-identical to replaying
/// each group. Refuses an empty group, an out-of-range rank and a rank
/// listed twice in one group with qrgrid::Error before replaying any.
void des_tsqr(simgrid::DesEngine& engine,
              const std::vector<std::vector<int>>& domain_groups,
              const std::vector<int>& domain_cluster, double m, double n,
              TreeKind tree_kind, bool form_q);

/// Splits each cluster's contiguous ranks into `domains_per_cluster`
/// groups of (nearly) equal size. Pass kOneDomainPerProcess for exactly
/// one single-rank domain per process regardless of per-cluster process
/// counts — the layout under which the replayed schedule is structurally
/// identical to a threaded tsqr_factor run (every msg rank IS a domain),
/// which is what the service-layer engine-equivalence suite pins.
inline constexpr int kOneDomainPerProcess = -1;
struct DomainLayout {
  std::vector<std::vector<int>> groups;  ///< ranks per domain
  std::vector<int> domain_cluster;       ///< cluster of each domain
};
DomainLayout make_domain_layout(const simgrid::GridTopology& topology,
                                int domains_per_cluster);

/// Aggregate outcome of one simulated factorization.
struct DesRunResult {
  double seconds = 0.0;
  double gflops = 0.0;  ///< useful flops (2MN^2 - 2/3 N^3) per second
  long long total_messages = 0;
  long long inter_cluster_messages = 0;
  double compute_utilization = 0.0;  ///< busy fraction, mean over ranks
};

/// Simulates one ScaLAPACK factorization over all processes of `topology`.
DesRunResult run_des_scalapack(const simgrid::GridTopology& topology,
                               const model::Roofline& roofline, double m,
                               double n, int nb = 64, bool form_q = false);

/// Simulates one QCG-TSQR factorization with the given per-cluster domain
/// count and tree shape.
DesRunResult run_des_tsqr(const simgrid::GridTopology& topology,
                          const model::Roofline& roofline,
                          int domains_per_cluster, double m, double n,
                          TreeKind tree_kind = TreeKind::kGridHierarchical,
                          bool form_q = false);

}  // namespace qrgrid::core
