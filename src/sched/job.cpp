#include "sched/job.hpp"

#include <algorithm>
#include <utility>
#include <vector>

#include "common/check.hpp"
#include "sched/policy.hpp"
#include "sched/snapshot.hpp"
#include "sched/telemetry.hpp"

namespace qrgrid::sched {

Policy policy_of(const std::string& name) {
  if (name == "fcfs") return Policy::kFcfs;
  if (name == "spjf") return Policy::kSpjf;
  if (name == "easy") return Policy::kEasyBackfill;
  if (name == "prio-easy") return Policy::kPriorityEasy;
  if (name == "fair") return Policy::kFairShare;
  throw Error("unknown policy '" + name +
              "' (fcfs|spjf|easy|prio-easy|fair)");
}

std::string policy_name(Policy policy) {
  switch (policy) {
    case Policy::kFcfs: return "fcfs";
    case Policy::kSpjf: return "spjf";
    case Policy::kEasyBackfill: return "easy";
    case Policy::kPriorityEasy: return "prio-easy";
    case Policy::kFairShare: return "fair";
  }
  return "?";
}

void save_job(SnapshotWriter& w, const Job& job) {
  w.i32(job.id);
  w.f64(job.arrival_s);
  w.f64(job.m);
  w.i32(job.n);
  w.i32(job.procs);
  w.i32(job.priority);
  w.i32(job.user);
  w.f64(job.weight);
  w.i32(static_cast<int>(job.tree));
  w.f64(job.walltime_s);
}

Job load_job(SnapshotReader& r) {
  Job job;
  job.id = r.i32();
  job.arrival_s = r.f64();
  job.m = r.f64();
  job.n = r.i32();
  job.procs = r.i32();
  job.priority = r.i32();
  job.user = r.i32();
  job.weight = r.f64();
  const int tree = r.i32();
  QRGRID_CHECK_MSG(
      tree >= 0 && tree <= static_cast<int>(core::TreeKind::kGridHierarchical),
      "snapshot job tree kind out of range");
  job.tree = static_cast<core::TreeKind>(tree);
  job.walltime_s = r.f64();
  return job;
}

std::string fate_name(JobFate fate) {
  switch (fate) {
    case JobFate::kCompleted: return "completed";
    case JobFate::kWalltimeKilled: return "walltime";
    case JobFate::kOutageFailed: return "outage";
  }
  return "?";
}

bool PendingOrder::operator()(const PendingEntry& a,
                              const PendingEntry& b) const {
  return policy->before(a, b);
}

JobQueue::JobQueue(const SchedulingPolicy* policy)
    : policy_(policy),
      set_(PendingOrder{policy}),
      track_classes_(policy->dynamic_order()) {}

JobQueue::JobQueue(Policy policy)
    : owned_(make_policy(policy)), set_(PendingOrder{owned_.get()}) {
  policy_ = owned_.get();
  track_classes_ = policy_->dynamic_order();
}

JobQueue::~JobQueue() = default;

void JobQueue::index_insert(Set::iterator it) {
  buckets_[policy_->order_class(it->job)].emplace(it->job.id, it);
}

void JobQueue::index_erase(Set::const_iterator it) {
  const auto b = buckets_.find(policy_->order_class(it->job));
  QRGRID_CHECK(b != buckets_.end());
  b->second.erase(it->job.id);
  if (b->second.empty()) buckets_.erase(b);
}

void JobQueue::sync() {
  if (!policy_->keys_dirty()) return;
  // Extraction by stored iterator is comparison-free, so it is safe even
  // though the tree's invariant no longer matches the mutated keys; the
  // remaining entries (whose keys did not move) stay mutually consistent,
  // and reinsertion compares fresh keys against them.
  std::vector<PendingEntry> moved;
  const std::vector<int>* classes =
      track_classes_ ? policy_->dirty_classes() : nullptr;
  if (classes != nullptr) {
    for (const int cls : *classes) {
      const auto b = buckets_.find(cls);
      if (b == buckets_.end()) continue;  // no queued jobs of this class
      for (auto& [id, it] : b->second) {
        if (!policy_->touch(it->job)) continue;
        moved.push_back(std::move(const_cast<PendingEntry&>(*it)));
        set_.erase(it);
      }
      buckets_.erase(b);
    }
  } else {
    // Conservative path (a dynamic policy without dirty tracking):
    // everything reinserts. Extracting in current order and reinserting
    // in that order keeps ties stable, matching the old stable_sort.
    moved.reserve(set_.size());
    for (const PendingEntry& e : set_) moved.push_back(e);
    set_.clear();
    buckets_.clear();
  }
  policy_->clear_dirty();
  for (PendingEntry& e : moved) {
    auto it = set_.insert(std::move(e));
    if (track_classes_) index_insert(it);
  }
  if (metrics_ != nullptr) {
    metrics_->add("policy.resorts");
    if (!moved.empty()) {
      metrics_->add("policy.resort_reinserts",
                    static_cast<long long>(moved.size()));
    }
  }
}

void JobQueue::push(Job job, double predicted_s) {
  sync();  // insertion compares; never against stale keys (the old
           // upper_bound-over-unsorted-range UB for dynamic policies)
  auto it = set_.emplace_hint(set_.end(),
                              PendingEntry{std::move(job), predicted_s});
  if (track_classes_) index_insert(it);
}

const Job& JobQueue::front() {
  sync();
  QRGRID_CHECK(!set_.empty());
  return set_.begin()->job;
}

Job JobQueue::pop_front() {
  sync();
  QRGRID_CHECK(!set_.empty());
  Job job;
  take(set_.begin(), job);
  return job;
}

JobQueue::const_iterator JobQueue::begin() {
  sync();
  return set_.begin();
}

JobQueue::const_iterator JobQueue::take(const_iterator it, Job& out) {
  if (track_classes_) index_erase(it);
  out = std::move(const_cast<PendingEntry&>(*it).job);
  return set_.erase(it);
}

}  // namespace qrgrid::sched
