#include "sim/memory_manager.hpp"

#include <algorithm>

#include "util/check.hpp"
#include "util/log.hpp"

namespace mg::sim {

using core::DataId;
using core::kInvalidData;

MemoryManager::MemoryManager(core::GpuId gpu, const core::TaskGraph& graph,
                             std::uint64_t capacity_bytes,
                             TransferRouter& router)
    : gpu_(gpu),
      graph_(graph),
      capacity_(capacity_bytes),
      router_(router),
      residency_(graph.num_data(), Residency::kAbsent),
      pins_(graph.num_data(), 0),
      resident_pos_(graph.num_data(), kNoPos),
      replica_(graph.num_data(), 0),
      protected_(graph.num_data(), 0) {}

void MemoryManager::fetch(DataId data, bool demand) {
  MG_DCHECK(policy_ != nullptr && observer_ != nullptr);
  if (!active_) return;
  // A fetch means the scheduler wants the data here anyway: a proactive
  // replica of it is promoted to regular residency (no longer shed-first).
  clear_replica(data);
  if (residency_[data] != Residency::kAbsent) {
    // A hint transfer may still be sitting in the low-priority queue; a
    // demand for the same data makes it urgent.
    if (demand && residency_[data] == Residency::kFetching) {
      router_.promote(gpu_, data);
    }
    return;
  }
  const std::uint64_t size = graph_.data_size(data);
  MG_CHECK_MSG(size <= capacity_, "data larger than GPU memory");
  if (!make_room(size)) {
    // Deduplicate: an entry for this data may already be parked; keep a
    // single entry and upgrade it to demand priority if needed.
    for (auto& stalled : stalled_) {
      if (stalled.data == data) {
        stalled.demand = stalled.demand || demand;
        return;
      }
    }
    stalled_.push_back(StalledFetch{data, demand});
    MG_TRACE("gpu%u fetch of data %u stalled (%zu stalled)", gpu_, data,
             stalled_.size());
    return;
  }
  start_transfer(data, demand);
}

bool MemoryManager::fetch_hint(DataId data, bool may_evict) {
  MG_DCHECK(policy_ != nullptr && observer_ != nullptr);
  if (!active_) return true;
  clear_replica(data);
  if (residency_[data] != Residency::kAbsent) return true;
  const std::uint64_t size = graph_.data_size(data);
  // Written overflow-safe: a capacity shock can leave committed_ above
  // capacity_, where `capacity_ - committed_` would wrap.
  if (committed_ + size > capacity_) {
    if (!may_evict) return false;
    if (!make_room(size)) return false;
  }
  start_transfer(data, /*demand=*/false, TransferPriority::kLow);
  return true;
}

bool MemoryManager::fetch_replica(DataId data) {
  MG_DCHECK(policy_ != nullptr && observer_ != nullptr);
  if (!active_) return true;
  if (residency_[data] != Residency::kAbsent) return true;
  const std::uint64_t size = graph_.data_size(data);
  if (committed_ + size > capacity_) return false;  // free space only
  MG_DCHECK(replica_[data] == 0);
  replica_[data] = 1;
  ++replica_count_;
  start_transfer(data, /*demand=*/false, TransferPriority::kLow);
  return true;
}

void MemoryManager::protect(DataId data) {
  if (!active_) return;
  protected_[data] = 1;
  clear_replica(data);  // a protected copy is not shedable
}

void MemoryManager::unprotect(DataId data) {
  protected_[data] = 0;
  if (!stalled_.empty()) retry_stalled();
}

void MemoryManager::start_transfer(DataId data, bool demand,
                                   TransferPriority priority) {
  committed_ += graph_.data_size(data);
  MG_DCHECK(committed_ <= capacity_);
  residency_[data] = Residency::kFetching;
  observer_->on_fetch_started(gpu_, data, demand);
  router_.request_transfer(gpu_, data, graph_.data_size(data),
                           [this, data] { on_transfer_complete(data); },
                           priority);
}

void MemoryManager::on_transfer_complete(DataId data) {
  // A transfer that was already on the wire (or in retry backoff) when the
  // GPU died still delivers; drop it on the floor.
  if (!active_) return;
  MG_DCHECK(residency_[data] == Residency::kFetching);
  residency_[data] = Residency::kPresent;
  resident_pos_[data] = static_cast<std::uint32_t>(resident_.size());
  resident_.push_back(data);
  policy_->on_load(gpu_, data);
  // Observer first: the engine pins head-of-pipeline inputs the moment they
  // land, so that the stalled-fetch retry below cannot evict the data this
  // very transfer delivered (it becomes an eviction candidate the moment it
  // is resident and unpinned).
  observer_->on_data_loaded(gpu_, data);
  retry_stalled();
}

bool MemoryManager::make_room(std::uint64_t bytes) {
  MG_DCHECK(bytes <= capacity_);
  // Overflow-safe form of `capacity_ - committed_ < bytes`: a capacity
  // shock can leave committed_ above capacity_.
  while (committed_ + bytes > capacity_) {
    if (!evict_one(/*forced=*/false)) return false;
  }
  return true;
}

bool MemoryManager::evict_one(bool forced) {
  // Proactive replicas are shed first (oldest first), before the eviction
  // policy gets a say: they are insurance, not working-set data.
  if (replica_count_ != 0) {
    for (DataId data : resident_) {
      if (replica_[data] != 0 && evictable(data)) {
        ++replicas_shed_;
        observer_->on_replica_shed(gpu_, data);
        evict(data);
        return true;
      }
    }
  }
  // Every round reports each unpinned, unprotected resident data the SLO
  // veto keeps from the policy (the engine debounces the reports).
  if (!veto_counts_.empty()) {
    for (DataId data : resident_) {
      if (pins_[data] == 0 && protected_[data] == 0 && vetoed(data)) {
        observer_->on_eviction_vetoed(gpu_, data);
      }
    }
  }
  residents_.reset();
  DataId victim = policy_->select_victim(gpu_, residents_);
  if (victim == kInvalidData && forced) {
    // Under emergency pressure the policy does not get to decline: fall
    // back to the oldest candidate rather than staying over capacity.
    const std::span<const DataId> candidates = residents_.candidates();
    if (!candidates.empty()) victim = candidates.front();
  }
  if (victim == kInvalidData) return false;
  MG_DCHECK(evictable(victim));
  evict(victim);
  return true;
}

std::span<const DataId> MemoryManager::Residents::candidates() {
  if (!built_) {
    candidates_.clear();
    for (DataId data : manager_.resident_) {
      if (manager_.evictable(data)) candidates_.push_back(data);
    }
    built_ = true;
  }
  return candidates_;
}

void MemoryManager::evict(DataId victim) {
  MG_DCHECK(residency_[victim] == Residency::kPresent);
  MG_DCHECK(pins_[victim] == 0);
  MG_DCHECK(protected_[victim] == 0);
  clear_replica(victim);
  residency_[victim] = Residency::kAbsent;
  remove_resident(victim);
  committed_ -= graph_.data_size(victim);
  ++evictions_;
  policy_->on_evict(gpu_, victim);
  observer_->on_data_evicted(gpu_, victim);
}

void MemoryManager::remove_resident(DataId data) {
  const std::uint32_t pos = resident_pos_[data];
  MG_DCHECK(pos != kNoPos);
  const DataId moved = resident_.back();
  resident_[pos] = moved;
  resident_pos_[moved] = pos;
  resident_.pop_back();
  resident_pos_[data] = kNoPos;
}

void MemoryManager::pin(DataId data) {
  if (!active_) return;
  // Always-on check: pinning absent data would silently wedge the pipeline
  // (the engine would believe the input is protected and never re-fetch it).
  MG_CHECK_MSG(residency_[data] == Residency::kPresent,
               "pin of non-resident data");
  ++pins_[data];
}

void MemoryManager::unpin(DataId data) {
  if (!active_) return;
  MG_DCHECK(pins_[data] > 0);
  --pins_[data];
  if (pins_[data] == 0 && !stalled_.empty()) retry_stalled();
}

void MemoryManager::touch(DataId data) {
  if (!active_) return;
  policy_->on_use(gpu_, data);
}

bool MemoryManager::try_reserve_scratch(std::uint64_t bytes) {
  if (!active_) return false;
  if (bytes == 0) return true;
  MG_CHECK_MSG(bytes <= capacity_, "scratch larger than GPU memory");
  if (!make_room(bytes)) return false;
  committed_ += bytes;
  MG_DCHECK(committed_ <= capacity_);
  return true;
}

void MemoryManager::release_scratch(std::uint64_t bytes) {
  if (!active_) return;
  MG_DCHECK(bytes <= committed_);
  committed_ -= bytes;
  if (!stalled_.empty()) retry_stalled();
}

std::uint32_t MemoryManager::emergency_evict() {
  std::uint32_t evicted = 0;
  // Pinned data and in-flight reservations cannot go: that overhang drains
  // later.
  while (committed_ > capacity_ && evict_one(/*forced=*/true)) ++evicted;
  return evicted;
}

void MemoryManager::deactivate() {
  active_ = false;
  std::fill(residency_.begin(), residency_.end(), Residency::kAbsent);
  std::fill(pins_.begin(), pins_.end(), 0u);
  std::fill(resident_pos_.begin(), resident_pos_.end(), kNoPos);
  std::fill(replica_.begin(), replica_.end(), std::uint8_t{0});
  replica_count_ = 0;
  std::fill(protected_.begin(), protected_.end(), std::uint8_t{0});
  resident_.clear();
  stalled_.clear();
  committed_ = 0;
}

bool MemoryManager::quiescent() const {
  if (!stalled_.empty()) return false;
  std::uint64_t resident_bytes = 0;
  for (DataId data : resident_) resident_bytes += graph_.data_size(data);
  // committed_ = resident + in-flight + scratch, so equality means neither
  // a fetch nor a scratch reservation is outstanding.
  return committed_ == resident_bytes;
}

void MemoryManager::wipe_resident() {
  if (!active_) return;
  MG_DCHECK(quiescent());
  for (DataId data : resident_) {
    MG_DCHECK(pins_[data] == 0);
    residency_[data] = Residency::kAbsent;
    resident_pos_[data] = kNoPos;
    clear_replica(data);
    protected_[data] = 0;
    committed_ -= graph_.data_size(data);
    policy_->on_evict(gpu_, data);
  }
  resident_.clear();
  MG_DCHECK(committed_ == 0);
}

void MemoryManager::retry_stalled() {
  if (in_retry_ || stalled_.empty()) return;
  in_retry_ = true;
  // Work on a local snapshot: eviction callbacks can re-enter fetch() and
  // park new entries on stalled_ while we iterate.
  std::deque<StalledFetch> work = std::move(stalled_);
  stalled_.clear();
  std::deque<StalledFetch> remaining;
  // Demand fetches first, then prefetches, each in FIFO order. Entries whose
  // data is no longer absent are stale (a later fetch succeeded) and dropped.
  for (int demand_pass = 1; demand_pass >= 0; --demand_pass) {
    for (const StalledFetch& stalled : work) {
      if (stalled.demand != (demand_pass == 1)) continue;
      if (residency_[stalled.data] != Residency::kAbsent) continue;  // stale
      if (make_room(graph_.data_size(stalled.data))) {
        start_transfer(stalled.data, stalled.demand);
      } else {
        remaining.push_back(stalled);
      }
    }
  }
  // Merge entries that still could not be served with any entries parked by
  // re-entrant fetches, deduplicating by data id.
  for (const StalledFetch& stalled : remaining) {
    bool merged = false;
    for (auto& existing : stalled_) {
      if (existing.data == stalled.data) {
        existing.demand = existing.demand || stalled.demand;
        merged = true;
        break;
      }
    }
    if (!merged) stalled_.push_back(stalled);
  }
  in_retry_ = false;
}

}  // namespace mg::sim
