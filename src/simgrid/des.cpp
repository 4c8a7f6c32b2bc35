#include "simgrid/des.hpp"

#include <algorithm>
#include <bit>

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

void DesEngine::check_ranks(std::span<const int> ranks) const {
  for (int r : ranks) check_rank(r);
}

double DesEngine::rate_gflops(int ncols) {
  for (const auto& [cols, rate] : rates_) {
    if (cols == ncols) return rate;
  }
  rates_.emplace_back(ncols, roofline_.rate_gflops(ncols));
  return rates_.back().second;
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
  compute_unchecked(rank, flops, ncols);
}

void DesEngine::compute_unchecked(int rank, double flops, int ncols) {
  const double seconds =
      flops / (rate_gflops(ncols) *
               speed_scale_[static_cast<std::size_t>(rank)] * 1e9);
  auto& clock = clock_[static_cast<std::size_t>(rank)];
  if (trace_ != nullptr) {
    trace_->record(rank, clock, clock + seconds, ActivityKind::kCompute);
  }
  clock += seconds;
  compute_seconds_[static_cast<std::size_t>(rank)] += seconds;
  total_flops_ += flops;
  if (flop_log_ != nullptr) flop_log_->push_back(flops);
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
  p2p_unchecked(src, dst, bytes);
}

void DesEngine::p2p_unchecked(int src, int dst, std::size_t bytes) {
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
  check_ranks(ranks);
  int p2 = 1;
  while (p2 * 2 <= p) p2 *= 2;
  const int rem = p - p2;

  // Fold phase for non-power-of-two participant counts.
  for (int i = 0; i < rem; ++i) {
    p2p_unchecked(ranks[static_cast<std::size_t>(2 * i)],
                  ranks[static_cast<std::size_t>(2 * i + 1)], bytes);
    compute_unchecked(ranks[static_cast<std::size_t>(2 * i + 1)],
                      combine_flops, ncols);
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
      compute_unchecked(vrank_to_rank(vr), combine_flops, ncols);
    }
  }
  // Unfold to the folded-out ranks.
  for (int i = 0; i < rem; ++i) {
    p2p_unchecked(ranks[static_cast<std::size_t>(2 * i + 1)],
                  ranks[static_cast<std::size_t>(2 * i)], bytes);
  }
}

void DesEngine::reduce_bcast(std::span<const int> ranks, std::size_t bytes,
                             double combine_flops, int ncols) {
  const auto p = static_cast<int>(ranks.size());
  if (p <= 1) return;
  check_ranks(ranks);
  // Binomial reduce: at step `mask`, ranks whose lowest set bit is `mask`
  // send to (vr ^ mask); the receiver folds the contribution in.
  for (int mask = 1; mask < p; mask <<= 1) {
    for (int vr = mask; vr < p; vr += 2 * mask) {
      const int dst = vr ^ mask;
      p2p_unchecked(ranks[static_cast<std::size_t>(vr)],
                    ranks[static_cast<std::size_t>(dst)], bytes);
      compute_unchecked(ranks[static_cast<std::size_t>(dst)], combine_flops,
                        ncols);
    }
  }
  bcast_unchecked(ranks, bytes);
}

void DesEngine::bcast(std::span<const int> ranks, std::size_t bytes) {
  if (ranks.size() <= 1) return;
  check_ranks(ranks);
  bcast_unchecked(ranks, bytes);
}

void DesEngine::bcast_unchecked(std::span<const int> ranks,
                                std::size_t bytes) {
  const auto p = static_cast<int>(ranks.size());
  // Binomial: at round k, ranks with vr < 2^k forward to vr + 2^k.
  for (int mask = 1; mask < p; mask <<= 1) {
    for (int vr = 0; vr < mask && vr + mask < p; ++vr) {
      p2p_unchecked(ranks[static_cast<std::size_t>(vr)],
                    ranks[static_cast<std::size_t>(vr + mask)], bytes);
    }
  }
}

void DesEngine::synchronize(std::span<const int> ranks) {
  check_ranks(ranks);
  double latest = 0.0;
  for (int r : ranks) {
    latest = std::max(latest, clock_[static_cast<std::size_t>(r)]);
  }
  for (int r : ranks) clock_[static_cast<std::size_t>(r)] = latest;
}

bool DesEngine::stamp_group(GroupMemo& memo, std::span<const int> ranks) {
  // The shape key: everything the replay of a single-cluster group reads
  // from the engine, by position. A position's node is keyed as the first
  // position sharing it.
  std::vector<std::uint64_t>& key = memo.key_;
  key.assign({ranks.size(), trace_ != nullptr});
  bool one_cluster = true;
  for (std::size_t i = 0; i < ranks.size(); ++i) {
    const int r = ranks[i];
    check_rank(r);
    const auto ri = static_cast<std::size_t>(r);
    one_cluster = one_cluster &&
                  cluster_of_[ri] ==
                      cluster_of_[static_cast<std::size_t>(ranks[0])];
    std::size_t first = i;
    for (std::size_t j = 0; j < i; ++j) {
      QRGRID_CHECK_MSG(ranks[j] != r, "rank " << r << " repeats in a group");
      if (first == i &&
          node_of_[static_cast<std::size_t>(ranks[j])] == node_of_[ri]) {
        first = j;
      }
    }
    key.insert(key.end(),
               {first, std::bit_cast<std::uint64_t>(speed_scale_[ri]),
                std::bit_cast<std::uint64_t>(clock_[ri]),
                std::bit_cast<std::uint64_t>(compute_seconds_[ri])});
  }
  memo.capture_ = nullptr;
  if (!one_cluster) return false;
  const auto [it, fresh] = memo.states_.try_emplace(key);
  GroupMemo::EndState& state = it->second;
  if (fresh) {
    // Counters open at minus their current value; finish_capture adds the
    // end value, leaving the replay's delta.
    state.messages = -messages_;
    for (int c = 0; c < msg::kNumLinkClasses; ++c) {
      state.messages_by_class[c] = -messages_by_class_[c];
      state.bytes_by_class[c] = -bytes_by_class_[c];
    }
    memo.capture_ = &state;
    memo.trace_begin_ = trace_ != nullptr ? trace_->events().size() : 0;
    flop_log_ = &state.flops;
    return false;
  }
  for (std::size_t i = 0; i < ranks.size(); ++i) {
    const auto r = static_cast<std::size_t>(ranks[i]);
    clock_[r] = state.clock[i];
    compute_seconds_[r] = state.compute_seconds[i];
  }
  messages_ += state.messages;
  for (int c = 0; c < msg::kNumLinkClasses; ++c) {
    messages_by_class_[c] += state.messages_by_class[c];
    bytes_by_class_[c] += state.bytes_by_class[c];
  }
  for (double f : state.flops) total_flops_ += f;
  if (trace_ != nullptr) {
    for (const TraceEvent& e : state.events) {
      trace_->record(ranks[static_cast<std::size_t>(e.rank)], e.start, e.end,
                     e.kind);
    }
  }
  return true;
}

void DesEngine::finish_capture(GroupMemo& memo, std::span<const int> ranks) {
  GroupMemo::EndState* state = memo.capture_;
  if (state == nullptr) return;
  for (int r : ranks) {
    state->clock.push_back(clock_[static_cast<std::size_t>(r)]);
    state->compute_seconds.push_back(
        compute_seconds_[static_cast<std::size_t>(r)]);
  }
  state->messages += messages_;
  for (int c = 0; c < msg::kNumLinkClasses; ++c) {
    state->messages_by_class[c] += messages_by_class_[c];
    state->bytes_by_class[c] += bytes_by_class_[c];
  }
  QRGRID_CHECK_MSG(state->messages_by_class[static_cast<std::size_t>(
                       msg::LinkClass::kInterCluster)] == 0,
                   "a single-cluster group replay crossed the WAN");
  if (trace_ != nullptr) {
    std::vector<int> position(clock_.size(), -1);
    for (std::size_t i = 0; i < ranks.size(); ++i) {
      position[static_cast<std::size_t>(ranks[i])] = static_cast<int>(i);
    }
    const std::vector<TraceEvent>& events = trace_->events();
    for (std::size_t k = memo.trace_begin_; k < events.size(); ++k) {
      TraceEvent e = events[k];
      e.rank = position[static_cast<std::size_t>(e.rank)];
      QRGRID_CHECK_MSG(e.rank >= 0, "a group replay traced a rank outside "
                                    "the group");
      state->events.push_back(e);
    }
  }
  flop_log_ = nullptr;
  memo.capture_ = nullptr;
}

void DesEngine::drop_capture(GroupMemo& memo) {
  if (memo.capture_ == nullptr) return;
  flop_log_ = nullptr;
  memo.capture_ = nullptr;
  memo.states_.erase(memo.key_);
}

double DesEngine::makespan() const {
  return *std::max_element(clock_.begin(), clock_.end());
}

}  // namespace qrgrid::simgrid
