#include "simgrid/des.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <numeric>
#include <string>

#include "common/check.hpp"
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

}  // namespace
}  // namespace qrgrid::simgrid
