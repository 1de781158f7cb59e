#include "serve/request_queue.h"

#include <algorithm>
#include <string>
#include <utility>

#include "core/failpoint.h"
#include "obs/trace.h"

namespace respect::serve {

namespace {

using Clock = std::chrono::steady_clock;

/// Lane index for arbitrary Submit attrs: out-of-range hints land in the
/// nearest lane instead of crashing (the pool contract says any int).
std::size_t LaneIndex(int lane) {
  return static_cast<std::size_t>(
      std::clamp<int>(lane, 0, static_cast<int>(kNumPriorityLanes) - 1));
}

}  // namespace

RequestQueue::RequestQueue() : RequestQueue(Options{}) {}

RequestQueue::RequestQueue(const Options& options) : options_(options) {}

Clock::time_point RequestQueue::Now() const {
  return options_.clock ? options_.clock() : Clock::now();
}

double RequestQueue::WeightFor(const std::string& flow) const {
  const auto it = options_.tenant_weights.find(flow);
  const double weight = it != options_.tenant_weights.end() ? it->second : 1.0;
  return std::max(weight, 1e-6);
}

void RequestQueue::Push(core::ThreadPool::Task task,
                        core::ThreadPool::TaskAttrs attrs) {
  Lane& lane = lanes_[LaneIndex(attrs.lane)];
  // Depth-bound admission runs under the pool mutex, so the depth check and
  // the enqueue are atomic with respect to every other Push/Pop: the bound
  // can never be overshot by a race.  The throw propagates out of
  // ThreadPool::Submit with nothing enqueued.
  if (attrs.sheddable && options_.max_lane_depth > 0 &&
      lane.depth.load(std::memory_order_relaxed) >=
          static_cast<std::size_t>(options_.max_lane_depth)) {
    throw Overloaded("lane " + std::string(PriorityName(static_cast<Priority>(
                         LaneIndex(attrs.lane)))) +
                     " at depth bound " +
                     std::to_string(options_.max_lane_depth));
  }
  Flow& flow = lane.flows[attrs.flow];
  const double tag = std::max(lane.virtual_time, flow.last_tag) +
                     1.0 / WeightFor(attrs.flow);
  flow.last_tag = tag;
  flow.entries.push_back(Entry{std::move(task), std::move(attrs.on_expired),
                               Now(), attrs.deadline, attrs.has_deadline,
                               tag, attrs.trace_id});
  lane.depth.fetch_add(1, std::memory_order_relaxed);
  ++size_;
}

bool RequestQueue::BatchCapped() const {
  return options_.max_batch_inflight > 0 &&
         batch_running_.load(std::memory_order_relaxed) >=
             options_.max_batch_inflight;
}

core::ThreadPool::Task RequestQueue::TakeEntry(Lane& lane, FlowIter it,
                                               bool expired) {
  Flow& flow = it->second;
  Entry entry = std::move(flow.entries.front());
  flow.entries.pop_front();
  if (flow.entries.empty()) lane.flows.erase(it);
  lane.depth.fetch_sub(1, std::memory_order_relaxed);
  --size_;

  if (obs::Armed()) {
    // The popping thread records the whole enqueue -> pop wait as one
    // manually-timed span (it crosses threads, so RAII can't).  Lane names
    // are constexpr literals — process-lifetime, safe to borrow.  With a
    // test clock installed the stamps are synthetic; the span is recorded
    // on the same clock, so it is at least self-consistent.
    const std::size_t lane_index =
        static_cast<std::size_t>(&lane - lanes_.data());
    const std::string_view lane_name =
        PriorityName(static_cast<Priority>(lane_index));
    const auto to_us = [](Clock::time_point t) {
      return std::chrono::duration_cast<std::chrono::microseconds>(
                 t.time_since_epoch())
          .count();
    };
    obs::RecordSpan("serve.queue_wait", to_us(entry.enqueue), to_us(Now()),
                    entry.trace_id, lane_name.data(),
                    static_cast<std::uint32_t>(lane_name.size()));
  }

  if (expired) {
    if (entry.on_expired) return std::move(entry.on_expired);
    return [] {};  // Pop must return a runnable callable
  }

  // The popped tag advances the lane's virtual time, never backwards.
  lane.virtual_time = std::max(lane.virtual_time, entry.tag);

  // Chaos hook: the injected action (a stall, an error) must run on the
  // worker that executes the task, never here under the pool mutex — so
  // wrap instead of evaluating, and only when something is armed.
  if (core::failpoint::Armed()) {
    entry.run = [run = std::move(entry.run)] {
      RESPECT_FAILPOINT("queue.pop");
      run();
    };
  }

  // Claim the batch slot now (under the pool mutex) and release it when the
  // task finishes on its worker — the release is visible to that worker's
  // very next Size() check, which is what resumes a capped backlog.
  if (!IsBatchLane(lane) || options_.max_batch_inflight <= 0) {
    return std::move(entry.run);
  }
  batch_running_.fetch_add(1, std::memory_order_relaxed);
  return [this, run = std::move(entry.run)] {
    try {
      run();
    } catch (...) {
      batch_running_.fetch_sub(1, std::memory_order_relaxed);
      throw;
    }
    batch_running_.fetch_sub(1, std::memory_order_relaxed);
  };
}

RequestQueue::FlowIter RequestQueue::EligibleHead(Lane& lane) {
  FlowIter best = lane.flows.end();
  for (FlowIter it = lane.flows.begin(); it != lane.flows.end(); ++it) {
    // Strictly-less keeps tag ties on the lexicographically first tenant.
    if (best == lane.flows.end() ||
        it->second.entries.front().tag < best->second.entries.front().tag) {
      best = it;
    }
  }
  return best;
}

core::ThreadPool::Task RequestQueue::Pop() {
  const Clock::time_point now = Now();

  // Expired heads fail fast before any live work runs, most-urgent lane
  // first.  One entry per Pop keeps the pool's push/pop accounting 1:1.
  // Expiring costs no batch slot, so the cap does not gate this sweep.
  for (Lane& lane : lanes_) {
    for (FlowIter it = lane.flows.begin(); it != lane.flows.end(); ++it) {
      const Entry& head = it->second.entries.front();
      if (head.has_deadline && head.deadline < now) {
        return TakeEntry(lane, it, /*expired=*/true);
      }
    }
  }

  // Aging disabled: strict priority, first lane with an eligible flow wins.
  if (options_.aging_seconds <= 0.0) {
    for (Lane& lane : lanes_) {
      if (IsBatchLane(lane) && BatchCapped()) continue;
      const FlowIter it = EligibleHead(lane);
      if (it != lane.flows.end()) return TakeEntry(lane, it, /*expired=*/false);
    }
    return [] {};  // unreachable under the Size() > 0 contract
  }

  const auto aging = std::chrono::duration_cast<Clock::duration>(
      std::chrono::duration<double>(options_.aging_seconds));
  Lane* best_lane = nullptr;
  FlowIter best_flow;
  Clock::time_point best_score{};
  for (std::size_t i = 0; i < lanes_.size(); ++i) {
    Lane& lane = lanes_[i];
    if (IsBatchLane(lane) && BatchCapped()) continue;
    const FlowIter it = EligibleHead(lane);
    if (it == lane.flows.end()) continue;
    const Clock::time_point score = it->second.entries.front().enqueue +
                                    aging * static_cast<std::int64_t>(i);
    // Strictly-less keeps ties on the more urgent lane.
    if (best_lane == nullptr || score < best_score) {
      best_lane = &lane;
      best_flow = it;
      best_score = score;
    }
  }
  if (best_lane == nullptr) return [] {};  // unreachable under the contract
  return TakeEntry(*best_lane, best_flow, /*expired=*/false);
}

std::size_t RequestQueue::Size() const {
  // A batch backlog hidden by the cap is invisible: idle workers must sleep
  // on it, not spin Pop against entries Pop would skip.  It becomes visible
  // again the moment a slot frees (the completing worker re-checks Size()
  // before it sleeps) — except expired flow heads, which are poppable
  // regardless because expiry costs no slot.
  if (!BatchCapped()) return size_;

  const Lane& batch = lanes_.back();
  const Clock::time_point now = Now();
  std::size_t visible = size_ - batch.depth.load(std::memory_order_relaxed);
  for (const auto& [name, flow] : batch.flows) {
    const Entry& head = flow.entries.front();
    if (head.has_deadline && head.deadline < now) ++visible;
  }
  return visible;
}

std::size_t RequestQueue::Depth(Priority lane) const {
  return lanes_[LaneIndex(static_cast<int>(lane))].depth.load(
      std::memory_order_relaxed);
}

void RequestQueue::Shutdown() {
  // Post-join, single-threaded (the TaskQueue::Shutdown contract): workers
  // stop as soon as Size() hits zero, which strands entries hidden by the
  // batch cap.  Each stranded entry is settled exactly
  // once — its on_expired runs (failing its waiters fast) or, absent one,
  // it is dropped deliberately.
  for (Lane& lane : lanes_) {
    for (auto& [name, flow] : lane.flows) {
      for (Entry& entry : flow.entries) {
        lane.depth.fetch_sub(1, std::memory_order_relaxed);
        --size_;
        if (entry.on_expired) {
          try {
            entry.on_expired();
          } catch (...) {
            // Settling must reach every entry; a throwing callback cannot
            // be reported anywhere at this point.
          }
        }
      }
    }
    lane.flows.clear();
  }
}

int RequestQueue::BatchRunning() const {
  return batch_running_.load(std::memory_order_relaxed);
}

}  // namespace respect::serve
