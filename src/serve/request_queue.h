// RequestQueue — the deadline-aware, three-lane, tenant-fair scheduling
// policy behind CompileService's async path, plugged into core::ThreadPool
// as its TaskQueue.
//
// Ordering.  Each lane (interactive / normal / batch, see serve::Priority)
// holds one FIFO sub-queue per *flow* (the serving layer passes the tenant
// id as TaskAttrs::flow; "" is the shared default flow).  Inside a lane,
// flows are scheduled by start-time fair queueing: entry tags are
//
//     tag = max(lane_virtual_time, flow_last_tag) + 1 / weight(flow)
//
// and a pop takes the smallest-tagged eligible head, so over any backlogged
// interval each tenant receives service proportional to its configured
// weight — a tenant flooding 10x the requests cannot crowd out the others'
// turn, it just deepens its own sub-queue.  With a single flow the tag
// order is exactly arrival order, preserving the original per-lane FIFO.
//
// Across lanes a pop picks the lane whose eligible head has the smallest
// *score*
//
//     score = enqueue_time + lane_index * aging_seconds
//
// which is strict priority — interactive beats normal beats batch — for
// entries younger than the aging horizon, and turns into
// longest-waiting-first once a lower lane's head has waited `aging_seconds`
// per lane step longer than a higher lane's head.  A batch flood therefore
// never starves, yet a just-submitted interactive request overtakes any
// young batch backlog.  aging_seconds <= 0 disables aging (pure strict
// priority, batch may starve).
//
// Deadlines.  A pop first drains expired flow heads, most-urgent lane
// first: the entry's on_expired callback is handed to the worker in place
// of its task, so an expired request costs the worker a few microseconds
// (failing the waiter with DeadlineExceeded) instead of a solve.  Expiry is
// checked at sub-queue heads only — an entry queued behind a live head
// fails the moment it surfaces, not before.  Expiry costs no batch slot.
//
// Batch concurrency cap.  Options::max_batch_inflight > 0 bounds how many
// batch-lane tasks may *run* at once: while the cap is reached, Size()
// stops reporting the batch backlog (so idle workers sleep instead of
// popping it) and Pop() skips the batch lane.  A popped batch task is
// wrapped to release its slot when it finishes; the worker that ran it
// re-examines the queue right after, which is what resumes a capped
// backlog — no pool cooperation needed.
//
// Threading.  Push/Pop/Size run under the owning ThreadPool's mutex (the
// TaskQueue contract), so the lane/flow deques need no locking of their
// own.  The per-lane depth and the batch-running count are atomics because
// they are read off-thread and a wrapped batch task releases its slot from
// its worker.
#pragma once

#include <array>
#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <string>

#include "core/thread_pool.h"
#include "serve/request.h"

namespace respect::serve {

class RequestQueue final : public core::ThreadPool::TaskQueue {
 public:
  struct Options {
    /// Lane-step aging quantum (see file comment); <= 0 disables aging.
    double aging_seconds = 2.0;

    /// Max batch-lane tasks running concurrently (see file comment);
    /// <= 0 means unlimited.
    int max_batch_inflight = 0;

    /// Bound on entries resident per lane; <= 0 means unbounded.  Only
    /// entries marked TaskAttrs::sheddable are refused (Push throws
    /// serve::Overloaded); bookkeeping tasks always
    /// enqueue.  The bound compares against the lane's total residency, so
    /// unsheddable entries consume depth but are never rejected.
    int max_lane_depth = 0;

    /// Test seam: time source for enqueue stamps and expiry checks.
    /// Defaults to std::chrono::steady_clock::now.
    std::function<std::chrono::steady_clock::time_point()> clock;

    /// Per-tenant fair-queueing weights: a weight-2 tenant receives twice
    /// the service share of a weight-1 tenant while both are backlogged.
    /// Absent tenants weigh 1; non-positive weights are clamped to a tiny
    /// positive value.
    std::map<std::string, double> tenant_weights;
  };

  RequestQueue();
  explicit RequestQueue(const Options& options);

  /// Throws serve::Overloaded (nothing enqueued) for a sheddable entry
  /// pushed into a lane at its configured max_lane_depth.
  void Push(core::ThreadPool::Task task,
            core::ThreadPool::TaskAttrs attrs) override;
  [[nodiscard]] core::ThreadPool::Task Pop() override;
  [[nodiscard]] std::size_t Size() const override;

  /// Settles every entry still queued when the owning pool shuts down:
  /// runs each entry's on_expired exactly once (entries without one are
  /// dropped), so no promise-holding waiter hangs on a destroyed pool.
  /// Called by ~ThreadPool after the workers have joined.
  void Shutdown() override;

  /// Entries resident in `lane` right now (atomic; readable off-thread).
  [[nodiscard]] std::size_t Depth(Priority lane) const;

  /// Batch-lane tasks running right now (atomic; readable off-thread).
  /// Always 0 when no cap is configured — the count is only maintained
  /// when it gates something.
  [[nodiscard]] int BatchRunning() const;

 private:
  struct Entry {
    core::ThreadPool::Task run;
    core::ThreadPool::Task on_expired;
    std::chrono::steady_clock::time_point enqueue;
    std::chrono::steady_clock::time_point deadline{};
    bool has_deadline = false;
    double tag = 0.0;  // start-time fair-queueing tag within the lane
    std::uint64_t trace_id = 0;  // obs flow tag for the queue-wait span
  };

  /// One tenant's FIFO inside a lane.  Flows never hold an empty deque —
  /// drained flows are erased (a re-appearing tenant re-anchors to the
  /// lane's virtual time).
  struct Flow {
    std::deque<Entry> entries;
    double last_tag = 0.0;
  };

  struct Lane {
    std::map<std::string, Flow> flows;  // deterministic iteration order
    double virtual_time = 0.0;
    std::atomic<std::size_t> depth{0};
  };

  using FlowIter = std::map<std::string, Flow>::iterator;

  [[nodiscard]] std::chrono::steady_clock::time_point Now() const;

  /// Consumes the head of `it`'s flow; claims a batch slot and wraps the
  /// task to release it unless the entry expired.
  [[nodiscard]] core::ThreadPool::Task TakeEntry(Lane& lane, FlowIter it,
                                                 bool expired);

  /// Smallest-tagged flow; flows.end() when the lane is empty.
  [[nodiscard]] FlowIter EligibleHead(Lane& lane);

  [[nodiscard]] double WeightFor(const std::string& flow) const;

  /// True when the batch lane may not start another task right now.
  [[nodiscard]] bool BatchCapped() const;

  /// Whether `lane` is the capped batch lane.
  [[nodiscard]] bool IsBatchLane(const Lane& lane) const {
    return &lane == &lanes_.back();
  }

  Options options_;
  std::array<Lane, kNumPriorityLanes> lanes_;
  std::size_t size_ = 0;
  std::atomic<int> batch_running_{0};
};

}  // namespace respect::serve
