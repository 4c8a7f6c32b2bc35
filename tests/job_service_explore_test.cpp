// Snapshot/restore and the exhaustive interleaving explorer: a mid-run
// checkpoint restored into a fresh identically-configured service must
// reproduce the uninterrupted run's trace, metrics, and report byte for
// byte (across the policy x allocator x backend matrix); the explorer
// must enumerate EVERY legal same-instant tie ordering of a bounded
// instance exactly once, validating the full TraceValidator invariant
// set plus report-level conservation on every leaf; and the pinned
// event-precedence contract (kills before recoveries before failures
// before arrivals) must survive a same-instant pileup of all four
// classes under every policy. Every tie kind is decided through the one
// path canonical runs share with the explorer, and hostile checkpoints
// (huge counts, single-bit flips) are restored or refused, never crash.
#include "sched/explore.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <memory>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "core/des_algos.hpp"
#include "model/roofline.hpp"
#include "sched/backend.hpp"
#include "sched/outage.hpp"
#include "sched/service.hpp"
#include "sched/snapshot.hpp"
#include "sched/telemetry.hpp"
#include "sched/workload.hpp"
#include "simgrid/topology.hpp"

namespace qrgrid::sched {
namespace {

simgrid::GridTopology small_grid() {
  // 2 sites x 2 nodes x 2 procs = 8 processes, 4 nodes.
  return simgrid::GridTopology::grid5000(2, 2, 2);
}

Job make_job(int id, double arrival_s, double m, int n, int procs) {
  Job job;
  job.id = id;
  job.arrival_s = arrival_s;
  job.m = m;
  job.n = n;
  job.procs = procs;
  return job;
}

/// Seeded workload small enough for exhaustive enumeration.
std::vector<Job> small_workload(int jobs, std::uint64_t seed) {
  WorkloadSpec spec;
  spec.jobs = jobs;
  spec.mean_interarrival_s = 0.05;
  spec.seed = seed;
  spec.users = 2;
  spec.priority_levels = 2;
  spec.procs_choices = {2, 4, 8};
  spec.m_choices = {4096, 8192};
  spec.n_choices = {8, 16};
  return generate_workload(spec);
}

/// Floors arrivals onto a q-second grid: distinct Poisson arrivals
/// collapse onto shared instants, manufacturing the same-instant ties
/// the explorer branches on.
std::vector<Job> quantized_workload(int jobs, std::uint64_t seed, double q) {
  std::vector<Job> out = small_workload(jobs, seed);
  for (Job& job : out) job.arrival_s = std::floor(job.arrival_s / q) * q;
  return out;
}

/// Explorer factory over a fixed topology/options pair: one fresh,
/// identically-configured service per leaf, tracer and metrics bound.
ServiceFactory factory_for(const simgrid::GridTopology& topo,
                           const ServiceOptions& options) {
  return [topo, options](ServiceTracer* tracer, MetricsRegistry* metrics) {
    ServiceOptions opts = options;
    opts.tracer = tracer;
    opts.metrics = metrics;
    return std::make_unique<GridJobService>(topo, model::paper_calibration(),
                                            opts);
  };
}

std::string trace_json(const ServiceTracer& tracer) {
  std::ostringstream out;
  write_chrome_trace(tracer.events(), out);
  return out.str();
}

std::string metrics_json(const MetricsRegistry& metrics) {
  std::ostringstream out;
  metrics.write_json(out);
  return out.str();
}

/// Failure-message rendering of every violation with its reproduction
/// prescription — paste the choice list into a PrescribedOracle to
/// replay the offending interleaving.
std::string violation_digest(const ExploreResult& result) {
  std::ostringstream out;
  for (const ExploreViolation& v : result.violations) {
    out << v.what << " via choices [";
    for (std::size_t i = 0; i < v.prescription.size(); ++i) {
      out << (i > 0 ? " " : "") << v.prescription[i];
    }
    out << "]\n";
  }
  return out.str();
}

/// One engineered instance per same-instant tie class, with the tie
/// kinds (k >= 2) its canonical run must decide.
struct TieInstance {
  std::string name;
  simgrid::GridTopology topo;
  ServiceOptions options;
  std::vector<Job> jobs;
  std::vector<TieOracle::Kind> expect;
};

std::vector<TieInstance> tie_instances() {
  using Kind = TieOracle::Kind;
  std::vector<TieInstance> out;
  // Two identical full-cluster jobs submitted together start together
  // on twin clusters and finish together.
  out.push_back({"twin completions",
                 simgrid::GridTopology::grid5000(2, 2, 2, /*equal_power=*/true),
                 {},
                 {make_job(0, 0.0, 1 << 18, 64, 4),
                  make_job(1, 0.0, 1 << 18, 64, 4)},
                 {Kind::kArrival, Kind::kCompletion}});
  // Two one-node jobs share the only cluster when it fails mid-run.
  const simgrid::GridTopology one_site =
      simgrid::GridTopology::grid5000(1, 2, 2);
  const std::vector<Job> pair = {make_job(0, 0.0, 1 << 20, 64, 2),
                                 make_job(1, 0.0, 1 << 20, 64, 2)};
  const double T = 0.5 * GridJobService(one_site, model::paper_calibration())
                             .run(pair)
                             .outcomes[0]
                             .service_s;
  ServiceOptions one_outage;
  one_outage.outages = OutageTrace(std::vector<Outage>{{0, T, 2.0 * T}});
  out.push_back({"one outage, two victims", one_site, one_outage, pair,
                 {Kind::kOutageVictim}});
  // Both clusters fail together and recover together before the only
  // job arrives.
  ServiceOptions paired;
  paired.outages =
      OutageTrace(std::vector<Outage>{{0, 1.0, 2.0}, {1, 1.0, 2.0}});
  out.push_back({"paired outages", small_grid(), paired,
                 {make_job(0, 3.0, 1 << 18, 64, 2)},
                 {Kind::kOutageDown, Kind::kOutageUp}});
  return out;
}

/// Answers every tie canonically except those of one kind, where it
/// returns an index outside [0, k): -1 or k itself.
class OutOfRangeOracle : public TieOracle {
 public:
  OutOfRangeOracle(Kind kind, bool below) : kind_(kind), below_(below) {}
  int choose(Kind kind, double, int k) override {
    if (kind != kind_) return 0;
    return below_ ? -1 : k;
  }

 private:
  Kind kind_;
  bool below_;
};

/// Offset of the u64 job count that follows a snapshot's header (magic,
/// format version, configuration fingerprint).
std::size_t job_count_offset(const std::string& snapshot) {
  SnapshotReader r(snapshot);
  const std::string magic = r.str();
  r.u32();
  const std::string fingerprint = r.str();
  return 8 + magic.size() + 4 + 8 + fingerprint.size();
}

// --------------------------------------------------- snapshot/restore

TEST(SnapshotRestore, RoundTripByteIdentityAcrossMatrix) {
  // For every matrix configuration: run uninterrupted; run again but
  // checkpoint after a few steps and finish the run in a FRESH service
  // restored from the checkpoint. Trace JSON, metrics JSON, and the
  // summary row must be byte-identical — and re-snapshotting the
  // restored state must reproduce the checkpoint bit for bit.
  struct Config {
    Policy policy;
    WanFairness fairness;
    BackendKind backend;
  };
  const std::vector<Config> matrix = {
      {Policy::kFcfs, WanFairness::kEqualSplit, BackendKind::kDesReplay},
      {Policy::kSpjf, WanFairness::kEqualSplit, BackendKind::kDesReplay},
      {Policy::kEasyBackfill, WanFairness::kEqualSplit,
       BackendKind::kDesReplay},
      {Policy::kPriorityEasy, WanFairness::kMaxMin, BackendKind::kDesReplay},
      {Policy::kFairShare, WanFairness::kMaxMin, BackendKind::kDesReplay},
      {Policy::kEasyBackfill, WanFairness::kEqualSplit,
       BackendKind::kMsgRuntime},
      {Policy::kFairShare, WanFairness::kMaxMin, BackendKind::kMsgRuntime},
  };
  const simgrid::GridTopology topo = small_grid();
  const std::vector<Job> jobs = small_workload(12, 23);
  const model::Roofline roof = model::paper_calibration();
  for (const Config& config : matrix) {
    ServiceOptions base;
    base.policy = config.policy;
    base.wan_contention = true;
    base.wan_fairness = config.fairness;
    base.backend = config.backend;
    if (config.backend == BackendKind::kMsgRuntime) {
      base.domains_per_cluster = core::kOneDomainPerProcess;
    }
    const std::string label = std::string(policy_name(config.policy)) + "/" +
                              wan_fairness_name(config.fairness) + "/" +
                              backend_name(config.backend);

    ServiceTracer t0;
    MetricsRegistry m0;
    ServiceOptions o0 = base;
    o0.tracer = &t0;
    o0.metrics = &m0;
    GridJobService uninterrupted(topo, roof, o0);
    const ServiceReport r0 = uninterrupted.run(jobs);

    ServiceTracer t1;
    MetricsRegistry m1;
    ServiceOptions o1 = base;
    o1.tracer = &t1;
    o1.metrics = &m1;
    GridJobService first(topo, roof, o1);
    first.start(jobs);
    for (int i = 0; i < 6 && first.active(); ++i) first.step();
    const std::string checkpoint = first.snapshot();

    ServiceTracer t2;
    MetricsRegistry m2;
    ServiceOptions o2 = base;
    o2.tracer = &t2;
    o2.metrics = &m2;
    GridJobService second(topo, roof, o2);
    second.restore(checkpoint);
    EXPECT_EQ(second.snapshot(), checkpoint) << label;
    while (second.active()) second.step();
    const ServiceReport r2 = second.finish();

    EXPECT_EQ(summary_row(r0), summary_row(r2)) << label;
    EXPECT_EQ(trace_json(t0), trace_json(t2)) << label;
    EXPECT_EQ(metrics_json(m0), metrics_json(m2)) << label;
  }
}

TEST(SnapshotRestore, RefusesMismatchedConfigurationAndGarbage) {
  // The embedded fingerprint pins every decision-shaping option: a
  // checkpoint from an fcfs service must not restore into an spjf one.
  const simgrid::GridTopology topo = small_grid();
  const model::Roofline roof = model::paper_calibration();
  const std::vector<Job> jobs = small_workload(6, 3);
  ServiceOptions fcfs;
  fcfs.policy = Policy::kFcfs;
  GridJobService source(topo, roof, fcfs);
  source.start(jobs);
  source.step();
  const std::string checkpoint = source.snapshot();

  ServiceOptions spjf;
  spjf.policy = Policy::kSpjf;
  GridJobService wrong_policy(topo, roof, spjf);
  EXPECT_THROW(wrong_policy.restore(checkpoint), Error);

  GridJobService garbage_target(topo, roof, fcfs);
  EXPECT_THROW(garbage_target.restore("not a snapshot"), Error);
  // Truncated checkpoints are refused, not misread.
  EXPECT_THROW(
      garbage_target.restore(checkpoint.substr(0, checkpoint.size() / 2)),
      Error);
}

TEST(SnapshotRestore, RefusesAHugeJobCount) {
  // A corrupt job count must be refused before a vector is sized from
  // it — 2^40 jobs would otherwise ask for tens of TiB — and a refused
  // restore leaves no run in flight: the same service still restores
  // the intact checkpoint.
  const simgrid::GridTopology topo = small_grid();
  const model::Roofline roof = model::paper_calibration();
  GridJobService source(topo, roof);
  source.start(small_workload(6, 3));
  source.step();
  const std::string checkpoint = source.snapshot();
  const std::size_t at = job_count_offset(checkpoint);
  std::uint64_t njobs = 0;
  std::memcpy(&njobs, checkpoint.data() + at, sizeof(njobs));
  ASSERT_EQ(njobs, 6u);

  GridJobService target(topo, roof);
  for (const std::uint64_t bad : {std::uint64_t{1} << 40, ~std::uint64_t{0}}) {
    std::string hostile = checkpoint;
    std::memcpy(hostile.data() + at, &bad, sizeof(bad));
    EXPECT_THROW(target.restore(hostile), Error) << bad;
  }
  target.restore(checkpoint);
  EXPECT_EQ(target.snapshot(), checkpoint);
}

TEST(SnapshotRestore, ARefusedRestoreLeavesTheServiceReusable) {
  // A checkpoint cut short in its last field is refused after the
  // backend was silenced for the replay re-warm. The same service must
  // then run a workload with its backend reporting again: the replays
  // the re-warm did not cover still emit their profile-compute events.
  const simgrid::GridTopology topo = small_grid();
  const model::Roofline roof = model::paper_calibration();
  const std::vector<Job> jobs = small_workload(6, 3);
  ServiceTracer tracer;
  MetricsRegistry metrics;
  ServiceOptions options;
  options.tracer = &tracer;
  options.metrics = &metrics;
  GridJobService source(topo, roof, options);
  source.start(jobs);
  source.step();
  const std::string checkpoint = source.snapshot();

  // The refusal comes from the metrics, the last thing loaded: neither
  // caller-owned sink may have changed by then.
  const std::string trace_before = trace_json(tracer);
  const std::string metrics_before = metrics_json(metrics);
  GridJobService reused(topo, roof, options);
  EXPECT_THROW(reused.restore(checkpoint.substr(0, checkpoint.size() - 1)),
               Error);
  EXPECT_EQ(trace_json(tracer), trace_before);
  EXPECT_EQ(metrics_json(metrics), metrics_before);
  tracer.clear();
  reused.run(jobs);
  int computes = 0;
  for (const ServiceTraceEvent& ev : tracer.events()) {
    computes += ev.kind == TraceKind::kProfileCompute;
  }
  EXPECT_GT(computes, 0);
}

/// ServiceTracer::save_state's bytes for `tracer`'s clock and `events`.
std::string tracer_state(const ServiceTracer& tracer,
                         const std::vector<ServiceTraceEvent>& events) {
  ServiceTracer copy;
  for (const ServiceTraceEvent& ev : events) copy.record(ev);
  copy.advance_to(tracer.now_s());
  SnapshotWriter w;
  copy.save_state(w);
  return w.bytes();
}

TEST(SnapshotRestore, RefusesARestoredTraceThatBreaksItsInvariants) {
  // Flipping the sign bit of a profile-compute timestamp sends that event
  // back in time. Restore must refuse the checkpoint up front, with the
  // caller's tracer unchanged, instead of letting the resumed run fail
  // in the validator at its end. The byte is found by re-encoding the
  // tracer state with that one timestamp negated.
  const simgrid::GridTopology topo = small_grid();
  const model::Roofline roof = model::paper_calibration();
  const std::vector<Job> jobs = small_workload(6, 3);
  ServiceTracer tracer;
  ServiceOptions options;
  options.tracer = &tracer;
  GridJobService source(topo, roof, options);
  source.start(jobs);
  for (int i = 0; i < 4 && source.active(); ++i) source.step();
  const std::string checkpoint = source.snapshot();

  std::vector<ServiceTraceEvent> events = tracer.events();
  const std::string intact = tracer_state(tracer, events);
  const std::size_t section = checkpoint.find(intact);
  ASSERT_NE(section, std::string::npos);
  const auto flipped = std::find_if(
      events.begin(), events.end(), [](const ServiceTraceEvent& ev) {
        return ev.kind == TraceKind::kProfileCompute && ev.t_s > 0.0;
      });
  ASSERT_NE(flipped, events.end());
  flipped->t_s = -flipped->t_s;
  const std::string mutated = tracer_state(tracer, events);
  ASSERT_EQ(mutated.size(), intact.size());
  const auto at = static_cast<std::size_t>(
      std::mismatch(intact.begin(), intact.end(), mutated.begin()).first -
      intact.begin());
  std::string hostile = checkpoint;
  hostile[section + at] = mutated[at];

  const std::string trace_before = trace_json(tracer);
  GridJobService target(topo, roof, options);
  try {
    target.restore(hostile);
    ADD_FAILURE() << "restore accepted a trace that goes back in time";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("timestamp went backwards"),
              std::string::npos)
        << e.what();
  }
  EXPECT_EQ(trace_json(tracer), trace_before);
  target.restore(checkpoint);
  EXPECT_EQ(target.snapshot(), checkpoint);
}

/// save_job's record of one job.
std::string job_record(const Job& job) {
  SnapshotWriter w;
  save_job(w, job);
  return w.bytes();
}

/// Offset of one field inside a job record: the first byte that differs
/// once `mutate` changes that field alone.
template <typename Mutate>
std::size_t field_offset(const Job& job, Mutate mutate) {
  Job changed = job;
  mutate(changed);
  const std::string a = job_record(job);
  const std::string b = job_record(changed);
  return static_cast<std::size_t>(
      std::mismatch(a.begin(), a.end(), b.begin()).first - a.begin());
}

TEST(SnapshotRestore, RefusesSavedJobsThatDisagreeWithTheJobList) {
  // A checkpoint holds every job twice or more: once in the job list,
  // again as an outcome, a pending or a running entry (and in the
  // replay-cache exemplars, after all of those). Corrupting a job-list
  // entry's procs, a saved copy's procs or id, or any tree kind must be
  // refused at restore: such mutants used to restore into runs that
  // spun forever or broke trace invariants. Records are found by
  // searching for their save_job bytes, fields by re-encoding.
  const simgrid::GridTopology topo = small_grid();
  const model::Roofline roof = model::paper_calibration();
  const std::vector<Job> jobs = small_workload(12, 23);
  ServiceOptions options;
  options.policy = Policy::kEasyBackfill;
  options.wan_contention = true;
  GridJobService source(topo, roof, options);
  source.start(jobs);
  for (int i = 0; i < 6 && source.active(); ++i) source.step();
  const std::string checkpoint = source.snapshot();

  const auto refused = [&](std::size_t at, int bit) {
    std::string mutant = checkpoint;
    mutant[at] = static_cast<char>(mutant[at] ^ (1 << bit));
    GridJobService target(topo, roof, options);
    try {
      target.restore(mutant);
    } catch (const Error&) {
      return true;
    }
    return false;
  };
  const std::size_t procs_at =
      field_offset(jobs[0], [](Job& j) { j.procs ^= 1; });
  const std::size_t id_at = field_offset(jobs[0], [](Job& j) { j.id ^= 1; });
  const std::size_t tree_at = field_offset(jobs[0], [](Job& j) {
    j.tree = static_cast<core::TreeKind>(static_cast<int>(j.tree) ^ 1);
  });
  int saved_copies = 0;
  for (const Job& job : jobs) {
    const std::string record = job_record(job);
    const std::size_t listed = checkpoint.find(record);
    ASSERT_NE(listed, std::string::npos) << "job " << job.id;
    EXPECT_TRUE(refused(listed + procs_at, 7)) << "job " << job.id;
    EXPECT_TRUE(refused(listed + tree_at, 7)) << "job " << job.id;
    const std::size_t copy = checkpoint.find(record, listed + record.size());
    if (copy == std::string::npos) continue;  // not yet arrived
    ++saved_copies;
    EXPECT_TRUE(refused(copy + procs_at, 7)) << "job " << job.id;
    EXPECT_TRUE(refused(copy + id_at, 7)) << "job " << job.id;
  }
  EXPECT_GT(saved_copies, 0);
  GridJobService intact(topo, roof, options);
  intact.restore(checkpoint);
  EXPECT_EQ(intact.snapshot(), checkpoint);
}

TEST(SnapshotRestore, SingleBitFlipsAreRestoredOrRefused) {
  // Flip bit 0 and bit 7 of every byte of a real mid-run checkpoint
  // (outages, max-min WAN flows, wait blame, tracer and metrics state).
  // Each mutant must either restore or be refused with qrgrid::Error —
  // never crash, read out of bounds, or throw anything else. Restoring
  // only: a mutant that restores may still describe a run that cannot
  // finish.
  const simgrid::GridTopology topo = small_grid();
  const model::Roofline roof = model::paper_calibration();
  ServiceTracer tracer;
  MetricsRegistry metrics;
  ServiceOptions options;
  options.policy = Policy::kEasyBackfill;
  options.wan_contention = true;
  options.wan_fairness = WanFairness::kMaxMin;
  options.wait_blame = true;
  options.outages = OutageTrace(std::vector<Outage>{{1, 0.02, 0.5}});
  options.tracer = &tracer;
  options.metrics = &metrics;
  GridJobService source(topo, roof, options);
  source.start(small_workload(4, 5));
  for (int i = 0; i < 3 && source.active(); ++i) source.step();
  const std::string checkpoint = source.snapshot();

  int restored = 0;
  int refused = 0;
  auto target = std::make_unique<GridJobService>(topo, roof, options);
  for (std::size_t at = 0; at < checkpoint.size(); ++at) {
    for (const int bit : {0, 7}) {
      std::string mutant = checkpoint;
      mutant[at] = static_cast<char>(mutant[at] ^ (1 << bit));
      try {
        target->restore(mutant);
        ++restored;
        // A restored run stays in flight; start the next mutant afresh.
        target = std::make_unique<GridJobService>(topo, roof, options);
      } catch (const Error&) {
        ++refused;
      }
    }
  }
  EXPECT_EQ(restored + refused, static_cast<int>(2 * checkpoint.size()));
  EXPECT_GT(refused, 0);
  EXPECT_GT(restored, 0);
}

TEST(SnapshotReader, RefusesLengthPrefixesLargerThanTheBytesLeft) {
  // A corrupt length must be refused before anything is sized from it:
  // 2^33 items would otherwise request tens of GiB, and 2^64 - 1 string
  // bytes would wrap the end-of-buffer test.
  for (const std::uint64_t n : {std::uint64_t{1} << 33, ~std::uint64_t{0}}) {
    SnapshotWriter w;
    w.u64(n);
    w.i64(7);  // a few trailing bytes, far fewer than n items
    EXPECT_THROW(SnapshotReader(w.bytes()).i32_vec(), Error) << n;
    EXPECT_THROW(SnapshotReader(w.bytes()).i64_vec(), Error) << n;
    EXPECT_THROW(SnapshotReader(w.bytes()).f64_vec(), Error) << n;
    EXPECT_THROW(SnapshotReader(w.bytes()).str(), Error) << n;
  }
  // One item too many for the bytes left is refused; an exact fit is not.
  SnapshotWriter w;
  w.i64_vec({1, 2});
  std::string short_by_one = w.bytes();
  short_by_one.resize(short_by_one.size() - 1);
  EXPECT_THROW(SnapshotReader(short_by_one).i64_vec(), Error);
  SnapshotReader r(w.bytes());
  EXPECT_EQ(r.i64_vec(), (std::vector<long long>{1, 2}));
  EXPECT_TRUE(r.at_end());
}

// --------------------------------------------------------- explorer

TEST(ExploreService, EveryTieKindIsDecidedOnTheSharedPath) {
  // A recording oracle (empty prescription: always the canonical pick)
  // must be consulted at a k >= 2 tie of every kind the instance was
  // engineered for, and its run must match the oracle-free one byte for
  // byte: both resolve ties through the same statements.
  std::set<TieOracle::Kind> seen;
  for (const TieInstance& inst : tie_instances()) {
    ServiceTracer plain_tracer;
    ServiceOptions plain_options = inst.options;
    plain_options.tracer = &plain_tracer;
    const ServiceReport plain =
        GridJobService(inst.topo, model::paper_calibration(), plain_options)
            .run(inst.jobs);

    ServiceTracer tracer;
    ServiceOptions options = inst.options;
    options.tracer = &tracer;
    GridJobService service(inst.topo, model::paper_calibration(), options);
    PrescribedOracle recorder;
    service.set_tie_oracle(&recorder);
    const ServiceReport report = service.run(inst.jobs);
    EXPECT_EQ(summary_row(report), summary_row(plain)) << inst.name;
    EXPECT_EQ(trace_json(tracer), trace_json(plain_tracer)) << inst.name;

    std::set<TieOracle::Kind> kinds;
    for (const PrescribedOracle::Decision& d : recorder.log()) {
      EXPECT_GE(d.k, 2) << inst.name;
      kinds.insert(d.kind);
    }
    for (const TieOracle::Kind kind : inst.expect) {
      EXPECT_EQ(kinds.count(kind), 1u)
          << inst.name << ": no tie of kind " << static_cast<int>(kind);
    }
    seen.insert(kinds.begin(), kinds.end());
  }
  EXPECT_EQ(seen.size(), 5u);
}

TEST(ExploreService, OutOfRangeTieChoicesAreRefusedAtEveryKind) {
  // An oracle answer outside [0, k) is a harness bug; the engine refuses
  // it with qrgrid::Error at whichever tie site asked.
  for (const TieInstance& inst : tie_instances()) {
    for (const TieOracle::Kind kind : inst.expect) {
      for (const bool below : {true, false}) {
        OutOfRangeOracle oracle(kind, below);
        GridJobService service(inst.topo, model::paper_calibration(),
                               inst.options);
        service.set_tie_oracle(&oracle);
        EXPECT_THROW(service.run(inst.jobs), Error)
            << inst.name << ": kind " << static_cast<int>(kind)
            << (below ? " answered -1" : " answered k");
      }
    }
  }
}

TEST(ExploreService, AllTiedArrivalBatchEnumeratesTheFullFactorial) {
  // Four jobs at one instant with pairwise-distinct sizes: the ONLY tie
  // in the run is the 4-way arrival batch, resolved as a 4-then-3-then-2
  // way pick. First-deviation enumeration must visit exactly 4! = 24
  // admission orders — no duplicates, no misses.
  const std::vector<Job> jobs = {make_job(0, 0.0, 1 << 18, 64, 2),
                                 make_job(1, 0.0, 1 << 19, 64, 2),
                                 make_job(2, 0.0, 1 << 20, 64, 2),
                                 make_job(3, 0.0, 1 << 21, 64, 2)};
  ServiceOptions options;
  options.policy = Policy::kFcfs;
  const ExploreResult result =
      explore_interleavings(factory_for(small_grid(), options), jobs);
  EXPECT_TRUE(result.ok()) << violation_digest(result);
  EXPECT_FALSE(result.truncated);
  EXPECT_EQ(result.leaves, 24);
  EXPECT_EQ(result.max_fanout, 4);
}

TEST(ExploreService, QuantizedArrivalsEnumerateCleanAcrossPolicies) {
  // A seeded workload with arrivals floored onto a coarse grid: every
  // legal admission interleaving of every tied batch, under static,
  // backfilling, and dynamic-order policies. Zero violations — and the
  // canonical (all-zeros) leaf must be byte-identical to an oracle-free
  // plain run of the same factory.
  const simgrid::GridTopology topo = small_grid();
  const std::vector<Job> jobs = quantized_workload(5, 7, 0.25);
  for (const Policy policy :
       {Policy::kFcfs, Policy::kEasyBackfill, Policy::kFairShare}) {
    ServiceOptions options;
    options.policy = policy;
    options.wan_contention = true;
    const ServiceFactory factory = factory_for(topo, options);
    const ExploreResult result = explore_interleavings(factory, jobs);
    EXPECT_TRUE(result.ok())
        << policy_name(policy) << "\n" << violation_digest(result);
    EXPECT_FALSE(result.truncated) << policy_name(policy);
    EXPECT_GT(result.leaves, 1) << policy_name(policy);
    EXPECT_GT(result.decision_points, 0) << policy_name(policy);

    ServiceTracer tracer;
    MetricsRegistry metrics;
    std::unique_ptr<GridJobService> plain = factory(&tracer, &metrics);
    const ServiceReport report = plain->run(jobs);
    SnapshotWriter w;
    tracer.save_state(w);
    EXPECT_EQ(result.canonical_trace_bytes, w.bytes()) << policy_name(policy);
    EXPECT_EQ(summary_row(result.canonical_report), summary_row(report))
        << policy_name(policy);
  }
}

TEST(ExploreService, TripleTieSameInstantPileupAcrossAllPolicies) {
  // Engineer a walltime kill, an outage recovery, an outage failure, and
  // two arrivals onto ONE virtual instant, then assert the precedence
  // contract (kills, then recoveries, then failures, then arrivals) in
  // the recorded trace under every policy — and that every alternative
  // ordering of the tied arrivals is violation-free.
  const simgrid::GridTopology topo = small_grid();
  const model::Roofline roof = model::paper_calibration();
  std::vector<Job> probe = {make_job(0, 0.0, 1 << 20, 64, 4)};
  const ServiceReport clean = GridJobService(topo, roof).run(probe);
  ASSERT_EQ(clean.outcomes[0].clusters.size(), 1u);
  const int mine = clean.outcomes[0].clusters[0];
  const int other = 1 - mine;
  const double T = 0.5 * clean.outcomes[0].service_s;

  std::vector<Job> jobs = {make_job(0, 0.0, 1 << 20, 64, 4),
                           make_job(1, T, 1 << 18, 64, 2),
                           make_job(2, T, 1 << 18, 64, 2)};
  jobs[0].walltime_s = T;  // starts at 0 on an empty grid: killed at T
  // The bystander cluster recovers from one outage and fails into the
  // next at exactly the kill instant.
  const std::vector<Outage> outages = {{other, 0.5 * T, T},
                                       {other, T, 1.25 * T}};

  for (const Policy policy :
       {Policy::kFcfs, Policy::kSpjf, Policy::kEasyBackfill,
        Policy::kPriorityEasy, Policy::kFairShare}) {
    ServiceOptions options;
    options.policy = policy;
    options.outages = OutageTrace(outages);
    ServiceTracer tracer;
    MetricsRegistry metrics;
    ServiceOptions traced = options;
    traced.tracer = &tracer;
    traced.metrics = &metrics;
    GridJobService service(topo, roof, traced);
    const ServiceReport report = service.run(jobs);
    EXPECT_TRUE(validate_trace(tracer.events()).empty())
        << policy_name(policy);
    EXPECT_EQ(report.walltime_kills, 1) << policy_name(policy);
    EXPECT_EQ(report.completed_jobs, 2) << policy_name(policy);

    std::vector<TraceKind> at_t;
    for (const ServiceTraceEvent& ev : tracer.events()) {
      if (ev.t_s != T) continue;
      if (ev.kind == TraceKind::kWalltimeKill ||
          ev.kind == TraceKind::kOutageUp ||
          ev.kind == TraceKind::kOutageDown ||
          ev.kind == TraceKind::kArrival) {
        at_t.push_back(ev.kind);
      }
    }
    const std::vector<TraceKind> expected = {
        TraceKind::kWalltimeKill, TraceKind::kOutageUp,
        TraceKind::kOutageDown, TraceKind::kArrival, TraceKind::kArrival};
    EXPECT_EQ(at_t, expected) << policy_name(policy);

    const ExploreResult result =
        explore_interleavings(factory_for(topo, options), jobs);
    EXPECT_TRUE(result.ok())
        << policy_name(policy) << "\n" << violation_digest(result);
    EXPECT_GE(result.leaves, 2) << policy_name(policy);  // arrival tie
    EXPECT_GE(result.max_fanout, 2) << policy_name(policy);
  }
}

TEST(ExploreService, OutageKillTimingSweepHoldsInvariants) {
  // Aim short outages exactly AT the canonical run's attempt start and
  // completion instants — the collision-richest timings, where a kill
  // boundary ties with dispatches and finishes — and exhaustively
  // explore each faulty instance with restart credit on.
  const simgrid::GridTopology topo = small_grid();
  const std::vector<Job> jobs = quantized_workload(4, 11, 0.25);
  ServiceOptions base;
  base.policy = Policy::kEasyBackfill;
  const std::vector<double> instants =
      harvest_attempt_instants(factory_for(topo, base), jobs);
  ASSERT_FALSE(instants.empty());

  int sweeps = 0;
  const std::size_t stride =
      instants.size() < 3 ? 1 : instants.size() / 3;
  for (std::size_t i = 0; i < instants.size() && sweeps < 3; i += stride) {
    if (instants[i] <= 0.0) continue;
    ++sweeps;
    ServiceOptions options = base;
    options.outages =
        OutageTrace(std::vector<Outage>{{0, instants[i], instants[i] + 0.3}});
    options.restart_credit = true;
    options.checkpoint_panels = 4;
    const ExploreResult result =
        explore_interleavings(factory_for(topo, options), jobs);
    EXPECT_TRUE(result.ok())
        << "outage at t=" << instants[i] << "\n" << violation_digest(result);
    EXPECT_FALSE(result.truncated) << "outage at t=" << instants[i];
    EXPECT_GT(result.leaves, 0) << "outage at t=" << instants[i];
  }
  EXPECT_GT(sweeps, 0);
}

}  // namespace
}  // namespace qrgrid::sched
