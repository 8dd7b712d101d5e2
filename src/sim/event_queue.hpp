// Discrete-event simulation core.
//
// A single monotonically-advancing clock (microseconds) and a priority queue
// of (time, sequence, callback). Ties are broken by insertion sequence, so a
// run is fully deterministic regardless of heap implementation details.
//
// The binary heap holds plain 24-byte (time, sequence, slot) keys; each
// callback sits in a slot of a side vector (recycled through a free list),
// so a sift moves keys only, never a std::function.
#pragma once

#include <algorithm>
#include <cstdint>
#include <functional>
#include <utility>
#include <vector>

#include "util/check.hpp"

namespace mg::sim {

class EventQueue {
 public:
  using Callback = std::function<void()>;

  [[nodiscard]] double now() const { return now_; }
  [[nodiscard]] bool empty() const { return heap_.empty(); }
  [[nodiscard]] std::uint64_t events_processed() const { return processed_; }

  void schedule_at(double time, Callback callback) {
    push(time, next_sequence_++, std::move(callback));
  }

  void schedule_after(double delay, Callback callback) {
    MG_DCHECK(delay >= 0.0);
    schedule_at(now_ + delay, std::move(callback));
  }

  /// Takes `count` consecutive sequence numbers now and returns the first.
  /// An event queued later under one of them (schedule_reserved) sorts
  /// exactly where it would have had it been queued at this call, so a
  /// caller can hand out a known series of events one at a time.
  [[nodiscard]] std::uint64_t reserve_sequences(std::uint64_t count) {
    const std::uint64_t first = next_sequence_;
    next_sequence_ += count;
    return first;
  }

  /// Queues `callback` under a number from reserve_sequences(); each
  /// reserved number is used at most once.
  void schedule_reserved(double time, std::uint64_t sequence,
                         Callback callback) {
    MG_DCHECK(sequence < next_sequence_);
    push(time, sequence, std::move(callback));
  }

  /// Pops and runs the earliest event. Returns false when the queue is empty.
  bool run_one() {
    if (heap_.empty()) return false;
    std::pop_heap(heap_.begin(), heap_.end(), Later{});
    const Key key = heap_.back();
    heap_.pop_back();
    MG_DCHECK(key.time >= now_);
    now_ = key.time;
    ++processed_;
    // The slot is free before the callback runs: whatever it schedules may
    // reuse the slot or grow the slot vector.
    Callback callback = std::move(slots_[key.slot]);
    free_slots_.push_back(key.slot);
    callback();
    return true;
  }

  void run_until_empty() {
    while (run_one()) {
    }
  }

 private:
  struct Key {
    double time;
    std::uint64_t sequence;
    std::uint32_t slot;
  };

  /// Heap order: std::*_heap keep the greatest on top, so "greater" is
  /// "later" and the earliest (time, sequence) pops first.
  struct Later {
    bool operator()(const Key& a, const Key& b) const {
      if (a.time != b.time) return a.time > b.time;
      return a.sequence > b.sequence;
    }
  };

  void push(double time, std::uint64_t sequence, Callback callback) {
    MG_DCHECK(time >= now_);
    auto slot = static_cast<std::uint32_t>(slots_.size());
    if (free_slots_.empty()) {
      slots_.push_back(std::move(callback));
    } else {
      slot = free_slots_.back();
      free_slots_.pop_back();
      slots_[slot] = std::move(callback);
    }
    heap_.push_back(Key{time, sequence, slot});
    std::push_heap(heap_.begin(), heap_.end(), Later{});
  }

  std::vector<Key> heap_;
  std::vector<Callback> slots_;
  std::vector<std::uint32_t> free_slots_;
  double now_ = 0.0;
  std::uint64_t next_sequence_ = 0;
  std::uint64_t processed_ = 0;
};

}  // namespace mg::sim
