// serve::RequestQueue unit tests — ordering policy (strict priority,
// in-lane FIFO, batch-starvation aging) and deadline expiry, driven with an
// injected clock so every scenario is deterministic; plus one integration
// test proving the queue plugs into core::ThreadPool as its TaskQueue.
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <latch>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "core/thread_pool.h"
#include "serve/request.h"
#include "serve/request_queue.h"

namespace respect {
namespace {

using core::ThreadPool;
using serve::Priority;
using serve::RequestQueue;

using TimePoint = std::chrono::steady_clock::time_point;

/// Manually advanced clock injected through RequestQueue::Options.
struct FakeClock {
  TimePoint now{};

  void Advance(double seconds) {
    now += std::chrono::duration_cast<std::chrono::steady_clock::duration>(
        std::chrono::duration<double>(seconds));
  }
};

class RequestQueueTest : public ::testing::Test {
 protected:
  RequestQueue MakeQueue(double aging_seconds, int max_batch_inflight = 0) {
    RequestQueue::Options options;
    options.aging_seconds = aging_seconds;
    options.max_batch_inflight = max_batch_inflight;
    options.clock = [this] { return clock_.now; };
    return RequestQueue(options);
  }

  /// Pushes an entry that appends `label` to ran_ when run and
  /// `label + "!expired"` when expired.
  void Push(RequestQueue& queue, const std::string& label, Priority lane,
            double deadline_in_seconds = -1.0) {
    ThreadPool::TaskAttrs attrs;
    attrs.lane = static_cast<int>(lane);
    if (deadline_in_seconds >= 0.0) {
      attrs.has_deadline = true;
      attrs.deadline = clock_.now +
                       std::chrono::duration_cast<
                           std::chrono::steady_clock::duration>(
                           std::chrono::duration<double>(deadline_in_seconds));
    }
    attrs.on_expired = [this, label] { ran_.push_back(label + "!expired"); };
    queue.Push([this, label] { ran_.push_back(label); }, std::move(attrs));
  }

  /// Pops one entry and runs whatever came back (task or expiry callback).
  void PopAndRun(RequestQueue& queue) {
    ThreadPool::Task task = queue.Pop();
    ASSERT_TRUE(static_cast<bool>(task));
    task();
  }

  /// Same, tagging the entry with a tenant flow.
  void PushFlow(RequestQueue& queue, const std::string& label, Priority lane,
                const std::string& flow, double deadline_in_seconds = -1.0) {
    ThreadPool::TaskAttrs attrs;
    attrs.lane = static_cast<int>(lane);
    attrs.flow = flow;
    if (deadline_in_seconds >= 0.0) {
      attrs.has_deadline = true;
      attrs.deadline = clock_.now +
                       std::chrono::duration_cast<
                           std::chrono::steady_clock::duration>(
                           std::chrono::duration<double>(deadline_in_seconds));
    }
    attrs.on_expired = [this, label] { ran_.push_back(label + "!expired"); };
    queue.Push([this, label] { ran_.push_back(label); }, std::move(attrs));
  }

  /// Expiry callbacks run so far (entries labelled "...!expired").
  [[nodiscard]] std::size_t ExpiredCount() const {
    return static_cast<std::size_t>(
        std::count_if(ran_.begin(), ran_.end(), [](const std::string& s) {
          return s.ends_with("!expired");
        }));
  }

  FakeClock clock_;
  std::vector<std::string> ran_;
};

TEST_F(RequestQueueTest, StrictPriorityAcrossLanesFifoWithin) {
  RequestQueue queue = MakeQueue(/*aging_seconds=*/100.0);
  Push(queue, "batch-0", Priority::kBatch);
  Push(queue, "normal-0", Priority::kNormal);
  Push(queue, "interactive-0", Priority::kInteractive);
  Push(queue, "interactive-1", Priority::kInteractive);
  Push(queue, "batch-1", Priority::kBatch);
  EXPECT_EQ(queue.Size(), 5u);
  EXPECT_EQ(queue.Depth(Priority::kInteractive), 2u);
  EXPECT_EQ(queue.Depth(Priority::kBatch), 2u);

  for (int i = 0; i < 5; ++i) PopAndRun(queue);
  EXPECT_EQ(ran_,
            (std::vector<std::string>{"interactive-0", "interactive-1",
                                      "normal-0", "batch-0", "batch-1"}));
  EXPECT_EQ(queue.Size(), 0u);
  EXPECT_EQ(queue.Depth(Priority::kBatch), 0u);
}

TEST_F(RequestQueueTest, AgedBatchWorkOvertakesFreshInteractive) {
  RequestQueue queue = MakeQueue(/*aging_seconds=*/1.0);
  Push(queue, "batch-old", Priority::kBatch);

  // Young batch loses to fresh interactive (strict-priority regime)...
  clock_.Advance(0.5);
  Push(queue, "interactive-young", Priority::kInteractive);
  PopAndRun(queue);
  EXPECT_EQ(ran_.back(), "interactive-young");

  // ...but once the batch head has waited past 2 * aging_seconds longer,
  // its score beats a fresh interactive arrival: no starvation.
  clock_.Advance(2.0);  // batch-old has now waited 2.5s vs lane handicap 2.0
  Push(queue, "interactive-late", Priority::kInteractive);
  PopAndRun(queue);
  EXPECT_EQ(ran_.back(), "batch-old");
  PopAndRun(queue);
  EXPECT_EQ(ran_.back(), "interactive-late");
}

TEST_F(RequestQueueTest, ZeroAgingMeansPureStrictPriority) {
  RequestQueue queue = MakeQueue(/*aging_seconds=*/0.0);
  Push(queue, "batch", Priority::kBatch);
  clock_.Advance(3600.0);  // a starved hour changes nothing
  Push(queue, "interactive", Priority::kInteractive);
  PopAndRun(queue);
  EXPECT_EQ(ran_.back(), "interactive");
  PopAndRun(queue);
  EXPECT_EQ(ran_.back(), "batch");
}

TEST_F(RequestQueueTest, ExpiredHeadsDrainBeforeLiveWork) {
  RequestQueue queue = MakeQueue(/*aging_seconds=*/100.0);
  Push(queue, "batch-doomed", Priority::kBatch, /*deadline_in_seconds=*/0.5);
  Push(queue, "interactive-live", Priority::kInteractive);
  clock_.Advance(1.0);  // the batch head's deadline lapses

  // The expired batch head drains first (as its expiry callback), then the
  // live interactive entry runs.
  PopAndRun(queue);
  EXPECT_EQ(ran_.back(), "batch-doomed!expired");
  EXPECT_EQ(ExpiredCount(), 1u);
  PopAndRun(queue);
  EXPECT_EQ(ran_.back(), "interactive-live");
  EXPECT_EQ(ExpiredCount(), 1u);
}

TEST_F(RequestQueueTest, LiveEntriesMeetTheirDeadlinesUnexpired) {
  RequestQueue queue = MakeQueue(/*aging_seconds=*/100.0);
  Push(queue, "in-time", Priority::kNormal, /*deadline_in_seconds=*/10.0);
  clock_.Advance(1.0);
  PopAndRun(queue);
  EXPECT_EQ(ran_.back(), "in-time");
  EXPECT_EQ(ExpiredCount(), 0u);
}

TEST_F(RequestQueueTest, MissingExpiryCallbackDropsSilently) {
  RequestQueue queue = MakeQueue(/*aging_seconds=*/100.0);
  ThreadPool::TaskAttrs attrs;
  attrs.lane = static_cast<int>(Priority::kNormal);
  attrs.has_deadline = true;
  attrs.deadline = clock_.now;  // expires on the next tick
  queue.Push([this] { ran_.push_back("never"); }, std::move(attrs));
  clock_.Advance(1.0);
  PopAndRun(queue);  // returns the no-op stand-in, not the task
  EXPECT_TRUE(ran_.empty());
  EXPECT_EQ(queue.Size(), 0u);
  EXPECT_EQ(queue.Depth(Priority::kNormal), 0u);
}

TEST_F(RequestQueueTest, OutOfRangeLaneHintsClampToTheNearestLane) {
  RequestQueue queue = MakeQueue(/*aging_seconds=*/100.0);
  ThreadPool::TaskAttrs low;
  low.lane = -5;
  queue.Push([this] { ran_.push_back("clamped-low"); }, std::move(low));
  ThreadPool::TaskAttrs high;
  high.lane = 99;
  queue.Push([this] { ran_.push_back("clamped-high"); }, std::move(high));
  EXPECT_EQ(queue.Depth(Priority::kInteractive), 1u);
  EXPECT_EQ(queue.Depth(Priority::kBatch), 1u);
  PopAndRun(queue);
  EXPECT_EQ(ran_.back(), "clamped-low");
}

// ── Batch concurrency cap ────────────────────────────────────────────────

TEST_F(RequestQueueTest, BatchCapHidesTheBacklogWhileASlotIsHeld) {
  RequestQueue queue = MakeQueue(/*aging_seconds=*/100.0,
                                 /*max_batch_inflight=*/1);
  Push(queue, "batch-0", Priority::kBatch);
  Push(queue, "batch-1", Priority::kBatch);
  EXPECT_EQ(queue.Size(), 2u);  // nothing running yet: both poppable

  // Popping batch-0 claims the one slot; until the returned task finishes,
  // the rest of the batch backlog is invisible (workers sleep on it) and
  // BatchRunning reports the held slot.
  ThreadPool::Task first = queue.Pop();
  EXPECT_EQ(queue.BatchRunning(), 1);
  EXPECT_EQ(queue.Size(), 0u);
  EXPECT_EQ(queue.Depth(Priority::kBatch), 1u);  // still queued, just hidden

  // Other lanes are unaffected by the batch cap.
  Push(queue, "interactive", Priority::kInteractive);
  EXPECT_EQ(queue.Size(), 1u);
  PopAndRun(queue);
  EXPECT_EQ(ran_.back(), "interactive");

  // Finishing the batch task releases the slot; the backlog reappears.
  first();
  EXPECT_EQ(ran_.back(), "batch-0");
  EXPECT_EQ(queue.BatchRunning(), 0);
  EXPECT_EQ(queue.Size(), 1u);
  PopAndRun(queue);
  EXPECT_EQ(ran_.back(), "batch-1");
}

TEST_F(RequestQueueTest, BatchCapAllowsUpToNConcurrentSlots) {
  RequestQueue queue = MakeQueue(/*aging_seconds=*/100.0,
                                 /*max_batch_inflight=*/2);
  Push(queue, "batch-0", Priority::kBatch);
  Push(queue, "batch-1", Priority::kBatch);
  Push(queue, "batch-2", Priority::kBatch);
  ThreadPool::Task a = queue.Pop();
  ThreadPool::Task b = queue.Pop();
  EXPECT_EQ(queue.BatchRunning(), 2);
  EXPECT_EQ(queue.Size(), 0u);  // third entry hidden at the cap
  b();
  EXPECT_EQ(queue.BatchRunning(), 1);
  EXPECT_EQ(queue.Size(), 1u);
  PopAndRun(queue);
  EXPECT_EQ(ran_.back(), "batch-2");
  a();
  EXPECT_EQ(queue.BatchRunning(), 0);
}

TEST_F(RequestQueueTest, ExpiredCappedBatchHeadStillFailsFast) {
  RequestQueue queue = MakeQueue(/*aging_seconds=*/100.0,
                                 /*max_batch_inflight=*/1);
  Push(queue, "batch-running", Priority::kBatch);
  ThreadPool::Task running = queue.Pop();  // holds the only slot
  Push(queue, "batch-doomed", Priority::kBatch, /*deadline_in_seconds=*/0.5);
  EXPECT_EQ(queue.Size(), 0u);  // capped and unexpired: hidden
  clock_.Advance(1.0);
  // Once its deadline lapses the head surfaces despite the cap — expiring
  // costs no batch slot, so a worker can fail it fast immediately.
  EXPECT_EQ(queue.Size(), 1u);
  PopAndRun(queue);
  EXPECT_EQ(ran_.back(), "batch-doomed!expired");
  EXPECT_EQ(ExpiredCount(), 1u);
  EXPECT_EQ(queue.BatchRunning(), 1);  // the running task still holds its slot
  running();
  EXPECT_EQ(queue.BatchRunning(), 0);
}

// ── Per-tenant weighted-fair queueing ────────────────────────────────────

TEST_F(RequestQueueTest, EqualWeightTenantsInterleaveUnderAFlood) {
  RequestQueue queue = MakeQueue(/*aging_seconds=*/100.0);
  // Tenant "a" floods 6 entries before "b" submits 2: fair queueing still
  // alternates them while both are backlogged — the flood only deepens a's
  // own sub-queue.
  for (int i = 0; i < 6; ++i) {
    PushFlow(queue, "a-" + std::to_string(i), Priority::kNormal, "a");
  }
  for (int i = 0; i < 2; ++i) {
    PushFlow(queue, "b-" + std::to_string(i), Priority::kNormal, "b");
  }
  for (int i = 0; i < 8; ++i) PopAndRun(queue);
  EXPECT_EQ(ran_, (std::vector<std::string>{"a-0", "b-0", "a-1", "b-1", "a-2",
                                            "a-3", "a-4", "a-5"}));
}

TEST_F(RequestQueueTest, WeightTwoTenantReceivesTwiceTheService) {
  RequestQueue::Options options;
  options.aging_seconds = 100.0;
  options.clock = [this] { return clock_.now; };
  options.tenant_weights["big"] = 2.0;
  RequestQueue queue(options);
  for (int i = 0; i < 6; ++i) {
    PushFlow(queue, "big", Priority::kNormal, "big");
  }
  for (int i = 0; i < 3; ++i) {
    PushFlow(queue, "small", Priority::kNormal, "small");
  }
  // Over the first 6 pops (both tenants backlogged throughout), the
  // weight-2 tenant gets exactly twice the weight-1 tenant's share.
  int big = 0;
  for (int i = 0; i < 6; ++i) {
    PopAndRun(queue);
    if (ran_.back() == "big") ++big;
  }
  EXPECT_EQ(big, 4);
  for (int i = 0; i < 3; ++i) PopAndRun(queue);  // the rest drains
  EXPECT_EQ(queue.Size(), 0u);
}

TEST_F(RequestQueueTest, SingleTenantKeepsExactFifoOrder) {
  RequestQueue queue = MakeQueue(/*aging_seconds=*/100.0);
  for (int i = 0; i < 4; ++i) {
    PushFlow(queue, "x-" + std::to_string(i), Priority::kNormal, "x");
  }
  for (int i = 0; i < 4; ++i) PopAndRun(queue);
  EXPECT_EQ(ran_, (std::vector<std::string>{"x-0", "x-1", "x-2", "x-3"}));
}

// ── Depth bounds and load shedding ───────────────────────────────────────

TEST_F(RequestQueueTest, DepthBoundShedsOnlySheddableEntries) {
  RequestQueue::Options options;
  options.aging_seconds = 100.0;
  options.max_lane_depth = 2;
  options.clock = [this] { return clock_.now; };
  RequestQueue queue(options);

  const auto push = [&](const std::string& label, bool sheddable) {
    ThreadPool::TaskAttrs attrs;
    attrs.lane = static_cast<int>(Priority::kNormal);
    attrs.sheddable = sheddable;
    queue.Push([this, label] { ran_.push_back(label); }, std::move(attrs));
  };

  push("n-0", /*sheddable=*/true);
  push("n-1", /*sheddable=*/true);
  EXPECT_THROW(push("n-2", /*sheddable=*/true), serve::Overloaded);
  EXPECT_EQ(queue.Depth(Priority::kNormal), 2u);

  // Bookkeeping (unsheddable) entries always enqueue, even over the bound,
  // and other lanes are unaffected by this lane's pressure.
  push("n-keep", /*sheddable=*/false);
  EXPECT_EQ(queue.Depth(Priority::kNormal), 3u);
  Push(queue, "i-0", Priority::kInteractive);
  EXPECT_EQ(queue.Depth(Priority::kInteractive), 1u);

  // Unsheddable residency still counts against the bound: the lane stays
  // full for sheddable traffic until something drains.
  EXPECT_THROW(push("n-3", /*sheddable=*/true), serve::Overloaded);
  EXPECT_EQ(queue.Depth(Priority::kNormal), 3u);

  for (int i = 0; i < 4; ++i) PopAndRun(queue);
  EXPECT_EQ(ran_, (std::vector<std::string>{"i-0", "n-0", "n-1", "n-keep"}));
  push("n-4", /*sheddable=*/true);  // drained lane admits again
  EXPECT_EQ(queue.Depth(Priority::kNormal), 1u);
}

TEST_F(RequestQueueTest, DepthBoundComposesWithBatchCap) {
  RequestQueue::Options options;
  options.aging_seconds = 100.0;
  options.max_lane_depth = 2;
  options.max_batch_inflight = 1;
  options.clock = [this] { return clock_.now; };
  RequestQueue queue(options);

  const auto push = [&](const std::string& label, Priority lane,
                        const std::string& flow) {
    ThreadPool::TaskAttrs attrs;
    attrs.lane = static_cast<int>(lane);
    attrs.flow = flow;
    attrs.sheddable = true;
    queue.Push([this, label] { ran_.push_back(label); }, std::move(attrs));
  };

  // Fill the batch lane to its depth bound, then start one batch task: the
  // inflight cap hides the remaining entry from Size(), but it still holds
  // its depth slot — the bound tracks residency, not visibility.
  push("b-0", Priority::kBatch, "t");
  push("b-1", Priority::kBatch, "t");
  EXPECT_THROW(push("b-2", Priority::kBatch, "t"), serve::Overloaded);
  ThreadPool::Task running_batch = queue.Pop();
  EXPECT_EQ(queue.Size(), 0u);  // capped: b-1 hidden
  EXPECT_EQ(queue.Depth(Priority::kBatch), 1u);
  push("b-3", Priority::kBatch, "t");  // depth 1 < 2: admitted while hidden
  EXPECT_THROW(push("b-4", Priority::kBatch, "t"), serve::Overloaded);
  EXPECT_EQ(queue.Depth(Priority::kBatch), 2u);

  // The cap hides only the batch lane: normal-lane work stays visible
  // while the batch slot is held, and its own depth bound still applies.
  push("n-0", Priority::kNormal, "t");
  push("n-1", Priority::kNormal, "t");
  EXPECT_THROW(push("n-2", Priority::kNormal, "t"), serve::Overloaded);
  EXPECT_EQ(queue.Size(), 2u);  // n-0 and n-1; b-1 and b-3 still hidden
  EXPECT_EQ(queue.Depth(Priority::kNormal), 2u);

  // Finishing the batch task releases the batch slot; everything queued
  // drains in lane order.
  running_batch();
  EXPECT_EQ(ran_.back(), "b-0");
  EXPECT_EQ(queue.Size(), 4u);
  for (int i = 0; i < 4; ++i) PopAndRun(queue);
  EXPECT_EQ(ran_, (std::vector<std::string>{"b-0", "n-0", "n-1", "b-1",
                                            "b-3"}));
}

// Weighted-fair service under overload: one tenant floods a depth-bounded
// lane; sheds happen (the backlog cannot absorb the flood), yet the service
// received by the three backlogged tenants stays near-equal — Jain fairness
// over served counts >= 0.9.
TEST_F(RequestQueueTest, ServiceStaysFairUnderSheddingFlood) {
  RequestQueue::Options options;
  options.aging_seconds = 100.0;
  options.max_lane_depth = 6;
  options.clock = [this] { return clock_.now; };
  RequestQueue queue(options);

  std::map<std::string, int> served;
  std::uint64_t shed_pushes = 0;
  const auto push = [&](const std::string& tenant) {
    ThreadPool::TaskAttrs attrs;
    attrs.lane = static_cast<int>(Priority::kNormal);
    attrs.flow = tenant;
    attrs.sheddable = true;
    try {
      queue.Push([&served, tenant] { ++served[tenant]; }, std::move(attrs));
    } catch (const serve::Overloaded&) {
      ++shed_pushes;
    }
  };

  for (int round = 0; round < 150; ++round) {
    // Interleaved arrivals: every tenant offers work each round, tenant
    // "a" offers 3x as much.  The lane serves 3 per round, so the flood
    // keeps the lane at its bound and pushes beyond it are shed.
    push("a");
    push("b");
    push("c");
    push("a");
    push("a");
    clock_.Advance(0.001);
    for (int i = 0; i < 3 && queue.Size() > 0; ++i) PopAndRun(queue);
  }
  while (queue.Size() > 0) PopAndRun(queue);

  EXPECT_GT(shed_pushes, 0u);
  ASSERT_EQ(served.size(), 3u);
  // Every push was either shed with Overloaded or served exactly once.
  EXPECT_EQ(shed_pushes + served["a"] + served["b"] + served["c"], 150u * 5u);

  double sum = 0.0;
  double sum_sq = 0.0;
  for (const auto& [tenant, count] : served) {
    sum += count;
    sum_sq += static_cast<double>(count) * count;
  }
  const double jain = (sum * sum) / (3.0 * sum_sq);
  EXPECT_GE(jain, 0.9) << "served: a=" << served["a"] << " b=" << served["b"]
                       << " c=" << served["c"];
}

// The queue as a live ThreadPool policy: every submitted task runs exactly
// once — the queue's one-entry-per-pop contract lines up with the pool's
// workers.
TEST(RequestQueuePoolTest, DrivesAThreadPoolToCompletion) {
  constexpr int kTasks = 32;
  std::mutex mutex;
  int ran = 0;
  std::latch done(kTasks);
  // Declared last: joins its workers before the state above dies.
  ThreadPool pool(2, std::make_unique<RequestQueue>());
  for (int i = 0; i < kTasks; ++i) {
    ThreadPool::TaskAttrs attrs;
    attrs.lane = i % 3;
    pool.Submit(
        [&] {
          {
            const std::lock_guard<std::mutex> lock(mutex);
            ++ran;
          }
          done.count_down();
        },
        std::move(attrs));
  }
  done.wait();
  const std::lock_guard<std::mutex> lock(mutex);
  EXPECT_EQ(ran, kTasks);
}

}  // namespace
}  // namespace respect
