// Sequential discrete-event engine for grid-scale performance replay.
//
// The threaded msg::Runtime executes real payloads and is the library's
// production path; this engine replays the *schedule* of an algorithm
// (who computes what, who sends to whom) without payloads, advancing one
// virtual clock per rank. It is what lets the benchmark harness sweep the
// paper's full matrix range (up to 33,554,432 rows — 16 GB of data on the
// original testbed) in milliseconds. Costs use exactly the same
// GridTopology links and Roofline rates as the threaded runtime, and the
// engine-equivalence test pins the two to identical critical paths.
//
// The constructor resolves every rank's cluster, node and speed scale
// through GridTopology::location_of once; compute and transfers then read
// those per-rank tables, so locating a rank costs an array index rather
// than a cluster scan per call. Public entries refuse out-of-range
// ranks with qrgrid::Error; collectives check their ranks once at entry.
//
// replay_group is the leaf memo behind core::des_tsqr: the domains of
// one site are mostly copies of one another (same group size, node
// pattern, speed and start clocks), so each distinct group shape is
// replayed once and its end state stamped onto the other groups of that
// shape, bit-identically. The key is everything a single-cluster group's
// replay reads: size, which positions share a node, and each position's
// speed scale, start clock and compute seconds (plus whether tracing is
// on). Groups that span clusters touch WAN state and are replayed in
// full.
#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <span>
#include <utility>
#include <vector>

#include "model/roofline.hpp"
#include "msg/cost_model.hpp"
#include "simgrid/topology.hpp"
#include "simgrid/trace.hpp"

namespace qrgrid::simgrid {

class DesEngine {
 public:
  DesEngine(const GridTopology* topology, model::Roofline roofline);

  int nprocs() const { return static_cast<int>(clock_.size()); }

  /// Advances `rank`'s clock by the time to execute `flops` on
  /// ncols-column blocks at the rank's roofline rate.
  void compute(int rank, double flops, int ncols);

  /// Point-to-point transfer: dst cannot proceed before the message
  /// arrives. Also accrues the message/byte counters by link class.
  void p2p(int src, int dst, std::size_t bytes);

  /// Recursive-doubling allreduce over the given ranks; every rank
  /// exchanges `bytes` per round and pays `combine_flops` per round.
  void allreduce(std::span<const int> ranks, std::size_t bytes,
                 double combine_flops, int ncols);

  /// Binomial-tree broadcast from ranks[0].
  void bcast(std::span<const int> ranks, std::size_t bytes);

  /// BLACS-style combine (DGSUM2D): binomial-tree reduce to ranks[0]
  /// followed by a binomial broadcast — 2 log2(P) rounds on the critical
  /// path, versus the butterfly allreduce's log2(P). ScaLAPACK's
  /// collectives behave like this; the paper's Section-IV model idealizes
  /// them as log2(P).
  void reduce_bcast(std::span<const int> ranks, std::size_t bytes,
                    double combine_flops, int ncols);

  /// All ranks wait for the latest of them (e.g. after a collective whose
  /// result synchronizes everyone). Refuses out-of-range ranks.
  void synchronize(std::span<const int> ranks);

  double clock(int rank) const {
    return clock_[static_cast<std::size_t>(rank)];
  }
  double makespan() const;

  /// Seconds rank spent computing (as opposed to waiting on transfers).
  double compute_seconds(int rank) const {
    return compute_seconds_[static_cast<std::size_t>(rank)];
  }

  /// Mean over ranks of compute_time / makespan — how much of the grid
  /// the algorithm actually kept busy. Property 3's mechanism: this
  /// fraction rises toward 1 as M grows because the communication terms
  /// are independent of M.
  double compute_utilization() const;

  long long messages() const { return messages_; }
  long long messages_of(msg::LinkClass c) const {
    return messages_by_class_[static_cast<std::size_t>(c)];
  }
  long long bytes_of(msg::LinkClass c) const {
    return bytes_by_class_[static_cast<std::size_t>(c)];
  }

  /// Bytes this cluster pushed onto (pulled off) its wide-area uplink
  /// (downlink). Intra-cluster traffic never touches these counters; the
  /// two sums over clusters are equal — every WAN byte leaves one site and
  /// enters another. The job service uses them for per-site accounting.
  long long wan_egress_bytes(int cluster) const {
    return wan_egress_bytes_[static_cast<std::size_t>(cluster)];
  }
  long long wan_ingress_bytes(int cluster) const {
    return wan_ingress_bytes_[static_cast<std::size_t>(cluster)];
  }
  double total_flops() const { return total_flops_; }

  const GridTopology& topology() const { return *topology_; }
  const model::Roofline& roofline() const { return roofline_; }

  /// Attaches an activity log; every subsequent compute/transfer records
  /// a TraceEvent. Pass nullptr to stop tracing. The log must outlive the
  /// engine's use of it.
  void set_trace(TraceLog* trace) { trace_ = trace; }

  /// Replay memo for loops that run one schedule over many process
  /// groups (des_tsqr's leaves). Per group shape it holds the end state
  /// of the one group replayed in full, stored by position in the group.
  /// Scope one memo to one loop over one engine: it grows with the
  /// distinct shapes seen and is freed with the loop.
  class GroupMemo {
   private:
    friend class DesEngine;
    struct EndState {
      std::vector<double> clock;            ///< per position
      std::vector<double> compute_seconds;  ///< per position
      long long messages = 0;
      long long messages_by_class[msg::kNumLinkClasses] = {0, 0, 0, 0};
      long long bytes_by_class[msg::kNumLinkClasses] = {0, 0, 0, 0};
      std::vector<double> flops;       ///< the replay's flop adds, in order
      std::vector<TraceEvent> events;  ///< rank = position in the group
    };
    std::map<std::vector<std::uint64_t>, EndState> states_;
    std::vector<std::uint64_t> key_;  ///< shape of the group in hand
    EndState* capture_ = nullptr;     ///< entry the running replay fills
    std::size_t trace_begin_ = 0;     ///< first trace event of that replay
  };

  /// Runs `replay`, a schedule that reads and writes only the state of
  /// `ranks`, once per group shape. When `memo` already holds a group of
  /// the same shape, its end state is stamped onto `ranks` instead: the
  /// clocks, compute seconds, message and byte counters, total_flops()
  /// (its adds repeated in order) and trace events (ranks mapped by
  /// position) all come out bit-identical to a full replay. Two groups
  /// share a shape when they have the same size, sit in one cluster
  /// each (so the replay touches no WAN state), pair their positions
  /// onto nodes the same way, and hold the same per-position speed
  /// scale, start clock and compute seconds, bit for bit; and tracing
  /// must be on for both or off for both. Intra-node and intra-cluster
  /// links are grid-wide, so they need no key. A group that spans
  /// clusters is replayed in full. Refuses out-of-range and repeated
  /// ranks with qrgrid::Error.
  template <class Replay>
  void replay_group(GroupMemo& memo, std::span<const int> ranks,
                    Replay&& replay) {
    if (stamp_group(memo, ranks)) return;
    try {
      replay();
      finish_capture(memo, ranks);
    } catch (...) {
      drop_capture(memo);
      throw;
    }
  }

  /// Aggregate capacity of each site's wide-area uplink. The measured
  /// Fig. 3(a) throughputs (78-102 Mb/s) are per TCP flow; the dark fiber
  /// backbone carries ~10 Gb/s, so concurrent inter-site flows contend
  /// only once their sum saturates the site uplink. Set to infinity to
  /// disable contention modeling.
  void set_wan_aggregate_Bps(double bps) { wan_aggregate_Bps_ = bps; }

  /// One inter-cluster transfer the engine booked: when it claimed the
  /// channel, between which clusters, how many bytes. This is the
  /// replay's WAN demand decomposed in time (per phase, per cluster
  /// pair) — what the job service's shared-WAN contention engine feeds
  /// on. Recording is opt-in so figure-scale ScaLAPACK sweeps do not
  /// accumulate event vectors they never read.
  struct WanTransfer {
    double start_s = 0.0;
    int src_cluster = 0;
    int dst_cluster = 0;
    long long bytes = 0;
  };
  void record_wan_transfers(bool on) { record_wan_ = on; }
  const std::vector<WanTransfer>& wan_transfers() const {
    return wan_transfers_;
  }

 private:
  /// Throws qrgrid::Error unless 0 <= rank < nprocs().
  void check_rank(int rank) const;
  void check_ranks(std::span<const int> ranks) const;

  /// The bodies of compute, p2p and bcast. Collectives check their ranks
  /// once at entry and then step through these without re-checking.
  void compute_unchecked(int rank, double flops, int ncols);
  void p2p_unchecked(int src, int dst, std::size_t bytes);
  void bcast_unchecked(std::span<const int> ranks, std::size_t bytes);

  /// replay_group's halves. stamp_group computes the group's shape key
  /// and, on a memo hit, applies the stored end state and returns true;
  /// on a miss it opens a capture that finish_capture completes after
  /// the replay (drop_capture abandons it if either throws).
  bool stamp_group(GroupMemo& memo, std::span<const int> ranks);
  void finish_capture(GroupMemo& memo, std::span<const int> ranks);
  void drop_capture(GroupMemo& memo);

  /// roofline_.rate_gflops(ncols), memoised: a replay asks for a handful
  /// of column counts, millions of times.
  double rate_gflops(int ncols);

  /// GridTopology::link_class / link, read from the per-rank tables.
  msg::LinkClass link_class(int a, int b) const;
  LinkParams link(int a, int b, msg::LinkClass cls) const;

  /// Books the (possibly contended) channel for a transfer of class `cls`
  /// and returns the wire arrival time at the receiver; updates counters.
  double transfer(int src, int dst, std::size_t bytes, msg::LinkClass cls,
                  double latency_s);

  const GridTopology* topology_;
  model::Roofline roofline_;
  std::vector<std::pair<int, double>> rates_;  ///< (ncols, rate_gflops)
  // Per-rank placement, resolved once from GridTopology::location_of.
  std::vector<int> cluster_of_;      ///< the rank's cluster
  std::vector<int> node_of_;         ///< its node within that cluster
  std::vector<double> speed_scale_;  ///< proc peak / cluster 0's proc peak
  std::vector<double> clock_;
  std::vector<double> compute_seconds_;
  TraceLog* trace_ = nullptr;
  std::vector<double> egress_free_;   ///< per-cluster WAN uplink horizon
  std::vector<double> ingress_free_;  ///< per-cluster WAN downlink horizon
  std::vector<long long> wan_egress_bytes_;   ///< per-cluster WAN bytes out
  std::vector<long long> wan_ingress_bytes_;  ///< per-cluster WAN bytes in
  double wan_aggregate_Bps_ = 10e9 / 8.0;  ///< Grid'5000 dark fiber
  bool record_wan_ = false;
  std::vector<WanTransfer> wan_transfers_;
  long long messages_ = 0;
  long long messages_by_class_[msg::kNumLinkClasses] = {0, 0, 0, 0};
  long long bytes_by_class_[msg::kNumLinkClasses] = {0, 0, 0, 0};
  double total_flops_ = 0.0;
  std::vector<double>* flop_log_ = nullptr;  ///< set while capturing
};

}  // namespace qrgrid::simgrid
