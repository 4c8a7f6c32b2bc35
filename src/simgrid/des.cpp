#include "simgrid/des.hpp"

#include <algorithm>

#include "common/check.hpp"

namespace qrgrid::simgrid {

DesEngine::DesEngine(const GridTopology* topology, model::Roofline roofline)
    : topology_(topology), roofline_(roofline) {
  QRGRID_CHECK(topology != nullptr);
  clock_.assign(static_cast<std::size_t>(topology->total_procs()), 0.0);
  compute_seconds_.assign(static_cast<std::size_t>(topology->total_procs()),
                          0.0);
  egress_free_.assign(static_cast<std::size_t>(topology->num_clusters()),
                      0.0);
  ingress_free_.assign(static_cast<std::size_t>(topology->num_clusters()),
                       0.0);
  wan_egress_bytes_.assign(static_cast<std::size_t>(topology->num_clusters()),
                           0);
  wan_ingress_bytes_.assign(
      static_cast<std::size_t>(topology->num_clusters()), 0);
  // Rank placement never changes during a replay: resolve it once here so
  // the per-message and per-compute paths index arrays instead of scanning
  // clusters.
  const double base_peak = topology->cluster(0).proc_peak_gflops;
  for (int r = 0; r < nprocs(); ++r) {
    const ProcLocation loc = topology->location_of(r);
    cluster_of_.push_back(loc.cluster);
    node_of_.push_back(loc.node);
    speed_scale_.push_back(topology->cluster(loc.cluster).proc_peak_gflops /
                           base_peak);
  }
}

void DesEngine::check_rank(int rank) const {
  QRGRID_CHECK_MSG(rank >= 0 && rank < nprocs(), "rank=" << rank);
}

msg::LinkClass DesEngine::link_class(int a, int b) const {
  if (a == b) return msg::LinkClass::kSelf;
  const auto ia = static_cast<std::size_t>(a);
  const auto ib = static_cast<std::size_t>(b);
  if (cluster_of_[ia] != cluster_of_[ib]) return msg::LinkClass::kInterCluster;
  if (node_of_[ia] != node_of_[ib]) return msg::LinkClass::kIntraCluster;
  return msg::LinkClass::kIntraNode;
}

LinkParams DesEngine::link(int a, int b, msg::LinkClass cls) const {
  switch (cls) {
    case msg::LinkClass::kSelf:
      return LinkParams{0.0, 1e300};
    case msg::LinkClass::kIntraNode:
      return topology_->intra_node_link();
    case msg::LinkClass::kIntraCluster:
      return topology_->intra_cluster_link();
    case msg::LinkClass::kInterCluster:
      break;
  }
  return topology_->inter_cluster_link(
      cluster_of_[static_cast<std::size_t>(a)],
      cluster_of_[static_cast<std::size_t>(b)]);
}

void DesEngine::compute(int rank, double flops, int ncols) {
  check_rank(rank);
  const double seconds =
      flops / (roofline_.rate_gflops(ncols) *
               speed_scale_[static_cast<std::size_t>(rank)] * 1e9);
  auto& clock = clock_[static_cast<std::size_t>(rank)];
  if (trace_ != nullptr) {
    trace_->record(rank, clock, clock + seconds, ActivityKind::kCompute);
  }
  clock += seconds;
  compute_seconds_[static_cast<std::size_t>(rank)] += seconds;
  total_flops_ += flops;
}

double DesEngine::compute_utilization() const {
  const double span = makespan();
  if (span <= 0.0) return 0.0;
  double acc = 0.0;
  for (double c : compute_seconds_) acc += c;
  return acc / (span * static_cast<double>(compute_seconds_.size()));
}

double DesEngine::transfer(int src, int dst, std::size_t bytes,
                           msg::LinkClass cls, double latency_s) {
  // Latency overlaps across concurrent messages; the per-flow byte time is
  // paid by the receiver and serializes back-to-back arrivals (LogGP
  // receiver occupancy) — mirrors msg::Comm::recv. Inter-cluster flows
  // additionally contend for their sites' aggregate WAN uplink/downlink.
  double start = clock_[static_cast<std::size_t>(src)];
  if (cls == msg::LinkClass::kInterCluster) {
    const auto sc = static_cast<std::size_t>(
        cluster_of_[static_cast<std::size_t>(src)]);
    const auto dc = static_cast<std::size_t>(
        cluster_of_[static_cast<std::size_t>(dst)]);
    start = std::max({start, egress_free_[sc], ingress_free_[dc]});
    const double channel_done =
        start + static_cast<double>(bytes) / wan_aggregate_Bps_;
    egress_free_[sc] = channel_done;
    ingress_free_[dc] = channel_done;
    wan_egress_bytes_[sc] += static_cast<long long>(bytes);
    wan_ingress_bytes_[dc] += static_cast<long long>(bytes);
    if (record_wan_) {
      wan_transfers_.push_back({start, static_cast<int>(sc),
                                static_cast<int>(dc),
                                static_cast<long long>(bytes)});
    }
  }
  messages_ += 1;
  messages_by_class_[static_cast<std::size_t>(cls)] += 1;
  bytes_by_class_[static_cast<std::size_t>(cls)] +=
      static_cast<long long>(bytes);
  // Wire arrival: the receiver additionally pays the per-flow byte time
  // (receiver serialization), added by the caller.
  return start + latency_s;
}

void DesEngine::p2p(int src, int dst, std::size_t bytes) {
  check_rank(src);
  check_rank(dst);
  if (src == dst) return;
  const msg::LinkClass cls = link_class(src, dst);
  const LinkParams l = link(src, dst, cls);
  const double flow_time = static_cast<double>(bytes) / l.bandwidth_Bps;
  const double arrival = transfer(src, dst, bytes, cls, l.latency_s);
  auto& dst_clock = clock_[static_cast<std::size_t>(dst)];
  const double recv_start = std::max(dst_clock, arrival);
  if (trace_ != nullptr) {
    trace_->record(dst, recv_start, recv_start + flow_time,
                   ActivityKind::kTransfer);
  }
  dst_clock = recv_start + flow_time;
}

void DesEngine::allreduce(std::span<const int> ranks, std::size_t bytes,
                          double combine_flops, int ncols) {
  const auto p = static_cast<int>(ranks.size());
  if (p <= 1) return;
  for (int r : ranks) check_rank(r);
  int p2 = 1;
  while (p2 * 2 <= p) p2 *= 2;
  const int rem = p - p2;

  // Fold phase for non-power-of-two participant counts.
  for (int i = 0; i < rem; ++i) {
    p2p(ranks[static_cast<std::size_t>(2 * i)],
        ranks[static_cast<std::size_t>(2 * i + 1)], bytes);
    compute(ranks[static_cast<std::size_t>(2 * i + 1)], combine_flops, ncols);
  }
  auto vrank_to_rank = [&](int vr) {
    return ranks[static_cast<std::size_t>(vr < rem ? 2 * vr + 1 : vr + rem)];
  };
  // Butterfly: each round pairs vr with vr^mask; both directions transfer.
  for (int mask = 1; mask < p2; mask <<= 1) {
    for (int vr = 0; vr < p2; ++vr) {
      const int partner = vr ^ mask;
      if (partner > vr) {
        const int a = vrank_to_rank(vr);
        const int b = vrank_to_rank(partner);
        // Exchange is concurrent: both wire arrivals computed from
        // pre-round clocks (transfer reads the sender clock before either
        // side advances); each side then pays the receive serialization.
        const msg::LinkClass cls = link_class(a, b);
        const LinkParams l = link(a, b, cls);
        const double byte_time = static_cast<double>(bytes) / l.bandwidth_Bps;
        const double t_ab = transfer(a, b, bytes, cls, l.latency_s);
        const double t_ba =
            transfer(b, a, bytes, cls, link(b, a, cls).latency_s);
        auto& ca = clock_[static_cast<std::size_t>(a)];
        auto& cb = clock_[static_cast<std::size_t>(b)];
        const double a_start = std::max(ca, t_ba);
        const double b_start = std::max(cb, t_ab);
        if (trace_ != nullptr) {
          trace_->record(a, a_start, a_start + byte_time,
                         ActivityKind::kTransfer);
          trace_->record(b, b_start, b_start + byte_time,
                         ActivityKind::kTransfer);
        }
        ca = a_start + byte_time;
        cb = b_start + byte_time;
      }
    }
    for (int vr = 0; vr < p2; ++vr) {
      compute(vrank_to_rank(vr), combine_flops, ncols);
    }
  }
  // Unfold to the folded-out ranks.
  for (int i = 0; i < rem; ++i) {
    p2p(ranks[static_cast<std::size_t>(2 * i + 1)],
        ranks[static_cast<std::size_t>(2 * i)], bytes);
  }
}

void DesEngine::reduce_bcast(std::span<const int> ranks, std::size_t bytes,
                             double combine_flops, int ncols) {
  const auto p = static_cast<int>(ranks.size());
  if (p <= 1) return;
  // Binomial reduce: at step `mask`, ranks whose lowest set bit is `mask`
  // send to (vr ^ mask); the receiver folds the contribution in.
  for (int mask = 1; mask < p; mask <<= 1) {
    for (int vr = mask; vr < p; vr += 2 * mask) {
      const int dst = vr ^ mask;
      p2p(ranks[static_cast<std::size_t>(vr)],
          ranks[static_cast<std::size_t>(dst)], bytes);
      compute(ranks[static_cast<std::size_t>(dst)], combine_flops, ncols);
    }
  }
  bcast(ranks, bytes);
}

void DesEngine::bcast(std::span<const int> ranks, std::size_t bytes) {
  const auto p = static_cast<int>(ranks.size());
  // Binomial: at round k, ranks with vr < 2^k forward to vr + 2^k.
  for (int mask = 1; mask < p; mask <<= 1) {
    for (int vr = 0; vr < mask && vr + mask < p; ++vr) {
      p2p(ranks[static_cast<std::size_t>(vr)],
          ranks[static_cast<std::size_t>(vr + mask)], bytes);
    }
  }
}

void DesEngine::synchronize(std::span<const int> ranks) {
  double latest = 0.0;
  for (int r : ranks) {
    latest = std::max(latest, clock_[static_cast<std::size_t>(r)]);
  }
  for (int r : ranks) clock_[static_cast<std::size_t>(r)] = latest;
}

double DesEngine::makespan() const {
  return *std::max_element(clock_.begin(), clock_.end());
}

}  // namespace qrgrid::simgrid
