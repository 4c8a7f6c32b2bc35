#include "simgrid/des.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <numeric>
#include <string>

#include "common/check.hpp"
#include "core/des_algos.hpp"
#include "linalg/flops.hpp"
#include "sched/backend.hpp"

namespace qrgrid::simgrid {
namespace {

/// A toy 2-cluster topology with round numbers for exact assertions.
GridTopology toy_topology() {
  std::vector<ClusterSpec> clusters = {
      ClusterSpec{"A", 2, 2, 4.0},
      ClusterSpec{"B", 2, 2, 4.0},
  };
  const LinkParams intra_node{1.0, 100.0};
  const LinkParams intra_cluster{10.0, 10.0};
  std::vector<std::vector<LinkParams>> inter(2, std::vector<LinkParams>(2));
  inter[0][0] = intra_cluster;
  inter[1][1] = intra_cluster;
  inter[0][1] = inter[1][0] = LinkParams{1000.0, 1.0};
  return GridTopology(std::move(clusters), intra_node, intra_cluster,
                      std::move(inter));
}

model::Roofline flat_roofline() {
  model::Roofline r;
  r.dgemm_gflops = 1e-9;  // 1 flop per virtual second at peak
  r.f_min = 1.0;
  r.f_max = 1.0;
  return r;
}

TEST(DesEngine, ComputeAdvancesOneClock) {
  GridTopology topo = toy_topology();
  DesEngine engine(&topo, flat_roofline());
  engine.compute(3, 5.0, 0);
  EXPECT_DOUBLE_EQ(engine.clock(3), 5.0);
  EXPECT_DOUBLE_EQ(engine.clock(0), 0.0);
  EXPECT_DOUBLE_EQ(engine.makespan(), 5.0);
}

TEST(DesEngine, P2pUsesLinkOfThePair) {
  GridTopology topo = toy_topology();
  DesEngine engine(&topo, flat_roofline());
  engine.p2p(0, 1, 100);  // intra-node: 1 + 100/100 = 2
  EXPECT_DOUBLE_EQ(engine.clock(1), 2.0);
  engine.p2p(0, 2, 100);  // intra-cluster: 10 + 10 = 20
  EXPECT_DOUBLE_EQ(engine.clock(2), 20.0);
  engine.p2p(0, 4, 1);  // inter-cluster: 1000 + 1
  EXPECT_DOUBLE_EQ(engine.clock(4), 1001.0);
}

TEST(DesEngine, P2pKeepsLaterArrival) {
  GridTopology topo = toy_topology();
  DesEngine engine(&topo, flat_roofline());
  engine.compute(1, 500.0, 0);
  engine.p2p(0, 1, 100);
  // The wire arrival (latency 1) is long past; the receiver still pays the
  // byte-serialization time 100/100 = 1 on top of its clock.
  EXPECT_DOUBLE_EQ(engine.clock(1), 501.0);
}

TEST(DesEngine, MessageCountersByClass) {
  GridTopology topo = toy_topology();
  DesEngine engine(&topo, flat_roofline());
  engine.p2p(0, 1, 8);
  engine.p2p(0, 2, 8);
  engine.p2p(0, 4, 8);
  engine.p2p(4, 0, 8);
  EXPECT_EQ(engine.messages(), 4);
  EXPECT_EQ(engine.messages_of(msg::LinkClass::kIntraNode), 1);
  EXPECT_EQ(engine.messages_of(msg::LinkClass::kIntraCluster), 1);
  EXPECT_EQ(engine.messages_of(msg::LinkClass::kInterCluster), 2);
  EXPECT_EQ(engine.bytes_of(msg::LinkClass::kInterCluster), 16);
}

TEST(DesEngine, AllreduceDepthMatchesButterfly) {
  GridTopology topo = toy_topology();
  DesEngine engine(&topo, flat_roofline());
  // 4 ranks inside cluster A, all on distinct... ranks 0,1 node 0; 2,3
  // node 1. Butterfly rounds: (0,1),(2,3) intra-node then (0,2),(1,3)
  // intra-cluster.
  std::vector<int> ranks = {0, 1, 2, 3};
  engine.allreduce(ranks, 100, 0.0, 0);
  // Round 1: intra-node cost 1 + 100/100 = 2. Round 2: 10 + 10 = 20 on
  // top of clock 2.
  for (int r : ranks) EXPECT_DOUBLE_EQ(engine.clock(r), 22.0);
}

TEST(DesEngine, AllreduceHandlesNonPowerOfTwo) {
  GridTopology topo = toy_topology();
  DesEngine engine(&topo, flat_roofline());
  std::vector<int> ranks = {0, 1, 2};
  engine.allreduce(ranks, 10, 0.0, 0);
  // All clocks must advance and end up equal-ish (rank 0 folded out waits
  // for the unfold message).
  EXPECT_GT(engine.clock(0), 0.0);
  EXPECT_GT(engine.clock(1), 0.0);
  EXPECT_GT(engine.clock(2), 0.0);
}

TEST(DesEngine, AllreduceCombineFlopsCharged) {
  GridTopology topo = toy_topology();
  DesEngine engine(&topo, flat_roofline());
  std::vector<int> ranks = {0, 1};
  engine.allreduce(ranks, 8, 7.0, 0);
  EXPECT_DOUBLE_EQ(engine.total_flops(), 14.0);  // one round, both ranks
}

TEST(DesEngine, BcastReachesEveryoneThroughBinomialTree) {
  GridTopology topo = toy_topology();
  DesEngine engine(&topo, flat_roofline());
  std::vector<int> ranks = {0, 1, 2, 3, 4, 5};
  engine.bcast(ranks, 8);
  for (int r = 1; r < 6; ++r) EXPECT_GT(engine.clock(r), 0.0);
}

TEST(DesEngine, SynchronizeLevelsClocks) {
  GridTopology topo = toy_topology();
  DesEngine engine(&topo, flat_roofline());
  engine.compute(0, 9.0, 0);
  std::vector<int> ranks = {0, 1, 2};
  engine.synchronize(ranks);
  EXPECT_DOUBLE_EQ(engine.clock(1), 9.0);
  EXPECT_DOUBLE_EQ(engine.clock(2), 9.0);
}

TEST(DesEngine, ComputeUtilizationIsComputeOverMakespan) {
  GridTopology topo = toy_topology();
  DesEngine engine(&topo, flat_roofline());
  engine.compute(0, 10.0, 0);  // busy 10 of makespan 10
  engine.compute(1, 5.0, 0);   // busy 5 of 10
  // Remaining 6 ranks idle: utilization = (10 + 5) / (10 * 8).
  EXPECT_DOUBLE_EQ(engine.compute_utilization(), 15.0 / 80.0);
}

TEST(DesEngine, UtilizationRisesWithM) {
  // Property 3's mechanism: communication terms are independent of M, so
  // the busy fraction grows toward 1 as the matrix gets taller.
  GridTopology topo = GridTopology::grid5000(4, 4, 2);
  model::Roofline roof = model::paper_calibration();
  double prev = 0.0;
  for (double m = 1 << 17; m <= (1 << 23); m *= 8) {
    DesEngine engine(&topo, roof);
    std::vector<int> ranks(static_cast<std::size_t>(topo.total_procs()));
    std::iota(ranks.begin(), ranks.end(), 0);
    // A simple compute+allreduce loop proportional to M.
    for (int step = 0; step < 16; ++step) {
      for (int r : ranks) engine.compute(r, m, 64);
      engine.allreduce(ranks, 4096, 0.0, 64);
    }
    const double util = engine.compute_utilization();
    EXPECT_GT(util, prev);
    EXPECT_LE(util, 1.0);
    prev = util;
  }
}

TEST(DesEngine, RecordsWanTransfersOnlyWhenAsked) {
  GridTopology topo = toy_topology();
  const int remote = topo.cluster_rank_base(1);
  {
    // Off by default: figure-scale sweeps must not grow event vectors.
    DesEngine engine(&topo, flat_roofline());
    engine.p2p(0, remote, 512);
    EXPECT_TRUE(engine.wan_transfers().empty());
  }
  DesEngine engine(&topo, flat_roofline());
  engine.record_wan_transfers(true);
  engine.p2p(0, 1, 4096);       // intra-node: never a WAN transfer
  engine.p2p(0, remote, 512);   // cluster 0 -> 1
  engine.p2p(remote, 0, 128);   // cluster 1 -> 0
  ASSERT_EQ(engine.wan_transfers().size(), 2u);
  const DesEngine::WanTransfer& first = engine.wan_transfers()[0];
  EXPECT_EQ(first.src_cluster, 0);
  EXPECT_EQ(first.dst_cluster, 1);
  EXPECT_EQ(first.bytes, 512);
  EXPECT_GE(first.start_s, 0.0);
  const DesEngine::WanTransfer& second = engine.wan_transfers()[1];
  EXPECT_EQ(second.src_cluster, 1);
  EXPECT_EQ(second.dst_cluster, 0);
  EXPECT_EQ(second.bytes, 128);
  // The recorded events decompose the WAN byte counters exactly.
  EXPECT_EQ(first.bytes, engine.wan_egress_bytes(0));
  EXPECT_EQ(second.bytes, engine.wan_egress_bytes(1));
}

TEST(DesEngine, FasterClusterComputesFaster) {
  std::vector<ClusterSpec> clusters = {
      ClusterSpec{"slow", 1, 1, 4.0},
      ClusterSpec{"fast", 1, 1, 8.0},
  };
  const LinkParams l{1.0, 1.0};
  std::vector<std::vector<LinkParams>> inter(2, std::vector<LinkParams>(2, l));
  GridTopology topo(std::move(clusters), l, l, std::move(inter));
  DesEngine engine(&topo, flat_roofline());
  engine.compute(0, 100.0, 0);
  engine.compute(1, 100.0, 0);
  EXPECT_DOUBLE_EQ(engine.clock(0) / engine.clock(1), 2.0);
}

TEST(DesEngine, RejectsOutOfRangeRanks) {
  GridTopology topo = toy_topology();
  DesEngine engine(&topo, flat_roofline());
  const int n = engine.nprocs();
  EXPECT_THROW(engine.compute(-1, 1.0, 0), Error);
  EXPECT_THROW(engine.compute(n, 1.0, 0), Error);
  EXPECT_THROW(engine.p2p(-1, 0, 8), Error);
  EXPECT_THROW(engine.p2p(0, -1, 8), Error);
  EXPECT_THROW(engine.p2p(n, 0, 8), Error);
  EXPECT_THROW(engine.p2p(0, n, 8), Error);
  const std::vector<int> bad = {0, n};
  EXPECT_THROW(engine.allreduce(bad, 8, 0.0, 0), Error);
  EXPECT_THROW(engine.reduce_bcast(bad, 8, 0.0, 0), Error);
  EXPECT_THROW(engine.bcast(bad, 8), Error);
  EXPECT_THROW(engine.synchronize(bad), Error);
  const std::vector<int> negative = {-1};
  EXPECT_THROW(engine.synchronize(negative), Error);
  // des_tsqr refuses a group that repeats a rank or holds an unknown one
  // before replaying any group.
  const std::vector<int> domain_cluster = {0, 1};
  EXPECT_THROW(core::des_tsqr(engine, {{0, 1}, {4, 5, 4}}, domain_cluster,
                              1e4, 8.0, core::TreeKind::kFlat, false),
               Error);
  EXPECT_THROW(core::des_tsqr(engine, {{0, 1}, {4, n}}, domain_cluster, 1e4,
                              8.0, core::TreeKind::kFlat, false),
               Error);
  EXPECT_EQ(engine.makespan(), 0.0);
  EXPECT_EQ(engine.messages(), 0);
}

/// The engine's per-rank tables against GridTopology, the oracle: every
/// grid5000 shape the service builds, plus a placement sub-topology with
/// unequal node counts whose cluster order is not the master's.
std::vector<GridTopology> differential_topologies() {
  std::vector<GridTopology> topos;
  for (int sites = 1; sites <= 4; ++sites) {
    for (int ppn = 1; ppn <= 2; ++ppn) {
      topos.push_back(GridTopology::grid5000(sites, 3, ppn));
    }
  }
  const GridTopology master = GridTopology::grid5000(4, 4, 2);
  topos.push_back(
      sched::make_sub_topology(master, {3, 0, 1, 2}, {3, 1, 0, 2}).topology);
  return topos;
}

TEST(DesEngine, P2pMatchesTopologyOnEveryRankPair) {
  const std::size_t bytes = 12345;
  for (const GridTopology& topo : differential_topologies()) {
    const int n = topo.total_procs();
    for (int a = 0; a < n; ++a) {
      for (int b = 0; b < n; ++b) {
        const std::string label = std::to_string(topo.num_clusters()) +
                                  " clusters, " + std::to_string(n) +
                                  " ranks, " + std::to_string(a) + "->" +
                                  std::to_string(b);
        DesEngine engine(&topo, model::paper_calibration());
        engine.p2p(a, b, bytes);
        if (a == b) {
          EXPECT_EQ(engine.clock(b), 0.0) << label;
          EXPECT_EQ(engine.messages(), 0) << label;
          continue;
        }
        const LinkParams link = topo.link(a, b);
        const msg::LinkClass cls = topo.link_class(a, b);
        EXPECT_EQ(engine.clock(b), link.latency_s + static_cast<double>(bytes) /
                                                        link.bandwidth_Bps)
            << label;
        EXPECT_EQ(engine.clock(a), 0.0) << label;
        EXPECT_EQ(engine.messages(), 1) << label;
        EXPECT_EQ(engine.messages_of(cls), 1) << label;
        EXPECT_EQ(engine.bytes_of(cls), static_cast<long long>(bytes))
            << label;
        const int ca = topo.location_of(a).cluster;
        const int cb = topo.location_of(b).cluster;
        const long long wan =
            cls == msg::LinkClass::kInterCluster ? static_cast<long long>(bytes)
                                                 : 0;
        EXPECT_EQ(engine.wan_egress_bytes(ca), wan) << label;
        EXPECT_EQ(engine.wan_ingress_bytes(cb), wan) << label;
      }
    }
  }
}

TEST(DesEngine, ComputeMatchesTopologySpeedOnEveryRank) {
  const model::Roofline roof = model::paper_calibration();
  const double flops = 3.5e9;
  const int ncols = 64;
  for (const GridTopology& topo : differential_topologies()) {
    DesEngine engine(&topo, roof);
    for (int r = 0; r < topo.total_procs(); ++r) {
      engine.compute(r, flops, ncols);
      const double scale =
          topo.cluster(topo.location_of(r).cluster).proc_peak_gflops /
          topo.cluster(0).proc_peak_gflops;
      EXPECT_EQ(engine.clock(r),
                flops / (roof.rate_gflops(ncols) * scale * 1e9))
          << "rank " << r << " of " << topo.total_procs();
    }
  }
}

/// des_tsqr with every leaf group replayed in full, no memo: the
/// differential oracle for DesEngine::replay_group.
void oracle_des_tsqr(DesEngine& engine,
                     const std::vector<std::vector<int>>& domain_groups,
                     const std::vector<int>& domain_cluster, double m,
                     double n, core::TreeKind tree_kind, bool form_q) {
  const int d = static_cast<int>(domain_groups.size());
  const double m_d = m / static_cast<double>(d);
  const int ncols = static_cast<int>(n);
  for (const auto& group : domain_groups) {
    if (group.size() == 1) {
      engine.compute(group[0], flops::geqrf(m_d, n), ncols);
    } else {
      core::des_pdgeqrf(engine, group, m_d, n, 64, false);
    }
  }
  auto root_of = [&](int domain) {
    return domain_groups[static_cast<std::size_t>(domain)][0];
  };
  const int combine_ncols = std::min(ncols, 128);
  const core::ReductionTree tree =
      core::ReductionTree::make(tree_kind, d, domain_cluster);
  const auto r_bytes = static_cast<std::size_t>(n * (n + 1) / 2 * 8.0);
  for (const auto& level : tree.levels()) {
    for (const core::Merge& merge : level.merges) {
      engine.p2p(root_of(merge.child), root_of(merge.parent), r_bytes);
      engine.compute(root_of(merge.parent), flops::tpqrt_tt(n),
                     combine_ncols);
    }
  }
  if (form_q) {
    const auto c_bytes = static_cast<std::size_t>(n * n * 8.0);
    for (std::size_t l = tree.levels().size(); l-- > 0;) {
      for (const core::Merge& merge : tree.levels()[l].merges) {
        engine.compute(root_of(merge.parent), 2.0 * flops::tpqrt_tt(n),
                       ncols);
        engine.p2p(root_of(merge.parent), root_of(merge.child), c_bytes);
      }
    }
    for (const auto& group : domain_groups) {
      const double share =
          flops::orgqr(m_d, n) / static_cast<double>(group.size());
      for (int r : group) engine.compute(r, share, ncols);
      if (group.size() > 1) {
        engine.allreduce(group, c_bytes, 0.0, ncols);
      }
    }
  }
}

std::uint64_t bits(double x) { return std::bit_cast<std::uint64_t>(x); }

/// Every observable of two engines (and their trace logs), bit for bit.
void expect_same_engine(const DesEngine& got, const TraceLog& got_log,
                        const DesEngine& want, const TraceLog& want_log,
                        const std::string& label) {
  for (int r = 0; r < want.nprocs(); ++r) {
    EXPECT_EQ(bits(got.clock(r)), bits(want.clock(r))) << label << " r" << r;
    EXPECT_EQ(bits(got.compute_seconds(r)), bits(want.compute_seconds(r)))
        << label << " r" << r;
  }
  EXPECT_EQ(got.messages(), want.messages()) << label;
  for (int c = 0; c < msg::kNumLinkClasses; ++c) {
    const auto cls = static_cast<msg::LinkClass>(c);
    EXPECT_EQ(got.messages_of(cls), want.messages_of(cls)) << label;
    EXPECT_EQ(got.bytes_of(cls), want.bytes_of(cls)) << label;
  }
  EXPECT_EQ(bits(got.total_flops()), bits(want.total_flops())) << label;
  for (int c = 0; c < want.topology().num_clusters(); ++c) {
    EXPECT_EQ(got.wan_egress_bytes(c), want.wan_egress_bytes(c)) << label;
    EXPECT_EQ(got.wan_ingress_bytes(c), want.wan_ingress_bytes(c)) << label;
  }
  ASSERT_EQ(got.wan_transfers().size(), want.wan_transfers().size()) << label;
  for (std::size_t i = 0; i < want.wan_transfers().size(); ++i) {
    const DesEngine::WanTransfer& a = got.wan_transfers()[i];
    const DesEngine::WanTransfer& b = want.wan_transfers()[i];
    EXPECT_EQ(bits(a.start_s), bits(b.start_s)) << label << " wan " << i;
    EXPECT_EQ(a.src_cluster, b.src_cluster) << label << " wan " << i;
    EXPECT_EQ(a.dst_cluster, b.dst_cluster) << label << " wan " << i;
    EXPECT_EQ(a.bytes, b.bytes) << label << " wan " << i;
  }
  ASSERT_EQ(got_log.events().size(), want_log.events().size()) << label;
  for (std::size_t i = 0; i < want_log.events().size(); ++i) {
    const TraceEvent& a = got_log.events()[i];
    const TraceEvent& b = want_log.events()[i];
    ASSERT_TRUE(a.rank == b.rank && bits(a.start) == bits(b.start) &&
                bits(a.end) == bits(b.end) && a.kind == b.kind)
        << label << " trace event " << i;
  }
}

/// Leaf layouts over one topology: balanced and unbalanced per-cluster
/// splits, and fixed-size chunks of the rank range that cut across
/// cluster and node boundaries (some groups span clusters).
std::vector<core::DomainLayout> differential_layouts(const GridTopology& topo) {
  std::vector<core::DomainLayout> layouts;
  int min_procs = topo.cluster(0).procs();
  for (int c = 1; c < topo.num_clusters(); ++c) {
    min_procs = std::min(min_procs, topo.cluster(c).procs());
  }
  for (int domains : {1, 2, 3}) {
    if (domains <= min_procs) {
      layouts.push_back(core::make_domain_layout(topo, domains));
    }
  }
  core::DomainLayout chunks;
  for (int base = 0; base < topo.total_procs(); base += 3) {
    std::vector<int> group;
    for (int r = base; r < std::min(base + 3, topo.total_procs()); ++r) {
      group.push_back(r);
    }
    chunks.domain_cluster.push_back(topo.location_of(base).cluster);
    chunks.groups.push_back(std::move(group));
  }
  layouts.push_back(std::move(chunks));
  return layouts;
}

TEST(DesEngine, LeafMemoMatchesFullReplayOracle) {
  std::vector<GridTopology> topos;
  topos.push_back(GridTopology::grid5000(1, 5, 1));
  topos.push_back(GridTopology::grid5000(2, 5, 2));
  topos.push_back(GridTopology::grid5000(3, 3, 2));
  // Equal speeds: groups of different clusters share a shape.
  topos.push_back(GridTopology::grid5000(4, 3, 1, /*equal_power=*/true));
  const GridTopology master = GridTopology::grid5000(4, 4, 2);
  topos.push_back(
      sched::make_sub_topology(master, {3, 1, 2, 2}, {3, 1, 0, 2}).topology);
  const model::Roofline roof = model::paper_calibration();
  int cases = 0;
  for (const GridTopology& topo : topos) {
    for (const core::DomainLayout& layout : differential_layouts(topo)) {
      for (const double n : {16.0, 70.0}) {
        for (const bool traced : {false, true}) {
          const bool form_q = n > 64.0;
          const core::TreeKind tree = traced ? core::TreeKind::kFlat
                                             : core::TreeKind::kGridHierarchical;
          const std::string label =
              std::to_string(topo.num_clusters()) + " clusters, " +
              std::to_string(topo.total_procs()) + " ranks, " +
              std::to_string(layout.groups.size()) + " groups, n " +
              std::to_string(static_cast<int>(n)) +
              (traced ? ", traced" : "");
          DesEngine got(&topo, roof);
          DesEngine want(&topo, roof);
          TraceLog got_log;
          TraceLog want_log;
          got.record_wan_transfers(true);
          want.record_wan_transfers(true);
          if (traced) {
            got.set_trace(&got_log);
            want.set_trace(&want_log);
          }
          // The second call starts from the first one's non-zero clocks.
          for (const double m : {5e4, 3e4}) {
            core::des_tsqr(got, layout.groups, layout.domain_cluster, m, n,
                           tree, form_q);
            oracle_des_tsqr(want, layout.groups, layout.domain_cluster, m, n,
                            tree, form_q);
            expect_same_engine(got, got_log, want, want_log, label);
          }
          ++cases;
        }
      }
    }
  }
  EXPECT_GE(cases, 40);
}

TEST(DesEngine, GroupMemoStampsOnlyMatchingShapes) {
  // Ranks 0-3 and 4-7 of one equal-speed site pair up on nodes alike, so
  // the second group's replay is stamped from the first; after a compute
  // on rank 8 the third group starts from a different clock and must be
  // replayed. Each replay here writes a known amount per position.
  const GridTopology topo = GridTopology::grid5000(1, 6, 2);
  DesEngine engine(&topo, flat_roofline());
  DesEngine::GroupMemo memo;
  int replays = 0;
  auto run = [&](std::vector<int> group) {
    engine.replay_group(memo, group, [&] {
      ++replays;
      engine.allreduce(group, 64, 1.0, 0);
      engine.compute(group.back(), 3.0, 0);
    });
  };
  run({0, 1, 2, 3});
  run({4, 5, 6, 7});
  EXPECT_EQ(replays, 1);
  for (int r = 0; r < 4; ++r) {
    EXPECT_EQ(bits(engine.clock(4 + r)), bits(engine.clock(r)));
  }
  engine.compute(8, 1.0, 0);
  run({8, 9, 10, 11});
  EXPECT_EQ(replays, 2);
  // Same size, other node pattern (1 and 2 sit on different nodes).
  run({1, 2, 3, 4});
  EXPECT_EQ(replays, 3);
  const std::vector<int> repeated = {0, 1, 0};
  EXPECT_THROW(run(repeated), Error);
  EXPECT_EQ(replays, 3);
}

}  // namespace
}  // namespace qrgrid::simgrid
