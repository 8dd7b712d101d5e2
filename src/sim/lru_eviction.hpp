// Least-Recently-Used eviction — the default policy of every scheduler in
// the paper except DARTS+LUF. Recency is advanced on load and on task-start
// use; the victim is the evictable data with the oldest stamp.
//
// Next to each data's stamp, each GPU keeps an intrusive recency list
// (prev/next links, one sentinel per GPU), oldest first: a load or use moves
// the data to the newest end, an eviction unlinks it. Stamps are unique, so
// list order is stamp order and select_victim returns the first evictable
// entry of the walk from the oldest end — the stamp argmin over the
// candidates, at the cost of the entries it skips. choose_victim keeps the
// stamp scan for callers that hand it a candidate list.
#pragma once

#include <cstdint>
#include <span>
#include <string_view>
#include <vector>

#include "core/eviction.hpp"
#include "core/ids.hpp"
#include "util/check.hpp"

namespace mg::sim {

class LruEviction final : public core::EvictionPolicy {
 public:
  LruEviction(std::uint32_t num_gpus, std::uint32_t num_data)
      : sentinel_(num_data),
        entries_(num_gpus, std::vector<Entry>(num_data + 1)) {
    for (std::vector<Entry>& list : entries_) {
      list[sentinel_].prev = sentinel_;
      list[sentinel_].next = sentinel_;
    }
  }

  [[nodiscard]] std::string_view name() const override { return "LRU"; }

  void on_load(core::GpuId gpu, core::DataId data) override {
    touch(entries_[gpu], data);
  }

  void on_use(core::GpuId gpu, core::DataId data) override {
    touch(entries_[gpu], data);
  }

  void on_evict(core::GpuId gpu, core::DataId data) override {
    std::vector<Entry>& list = entries_[gpu];
    if (list[data].next != kUnlisted) unlink(list, data);
  }

  [[nodiscard]] core::DataId choose_victim(
      core::GpuId gpu, std::span<const core::DataId> candidates) override {
    const std::vector<Entry>& list = entries_[gpu];
    core::DataId victim = core::kInvalidData;
    std::uint64_t oldest = ~std::uint64_t{0};
    for (core::DataId data : candidates) {
      const std::uint64_t stamp = list[data].stamp;
      if (stamp < oldest) {
        oldest = stamp;
        victim = data;
      }
    }
    return victim;
  }

  [[nodiscard]] core::DataId select_victim(
      core::GpuId gpu, core::ResidentView& resident) override {
    const std::vector<Entry>& list = entries_[gpu];
    core::DataId victim = core::kInvalidData;
    for (core::DataId data = list[sentinel_].next; data != sentinel_;
         data = list[data].next) {
      if (resident.evictable(data)) {
        victim = data;
        break;
      }
    }
#ifndef NDEBUG
    // Audit the walk against the stamp scan over the candidate list: an
    // evictable data the list lost, or an out-of-order entry, shows here.
    const std::span<const core::DataId> candidates = resident.candidates();
    MG_CHECK_MSG(victim == (candidates.empty()
                                ? core::kInvalidData
                                : choose_victim(gpu, candidates)),
                 "LRU recency walk disagrees with the oldest stamp");
#endif
    return victim;
  }

 private:
  static constexpr std::uint32_t kUnlisted = 0xffffffffu;

  /// One data's recency on one GPU: its stamp (0 = never loaded or used)
  /// and its links in the GPU's list. Each GPU's entries hold data ids
  /// 0..num_data-1 plus the sentinel at index num_data, whose next is the
  /// oldest listed data and whose prev the newest. Unlisted data link to
  /// kUnlisted.
  struct Entry {
    std::uint64_t stamp = 0;
    std::uint32_t prev = kUnlisted;
    std::uint32_t next = kUnlisted;
  };

  static void unlink(std::vector<Entry>& list, core::DataId data) {
    Entry& entry = list[data];
    list[entry.prev].next = entry.next;
    list[entry.next].prev = entry.prev;
    entry.prev = kUnlisted;
    entry.next = kUnlisted;
  }

  /// Stamps `data` and moves it to the newest end, linking it if unlisted.
  void touch(std::vector<Entry>& list, core::DataId data) {
    list[data].stamp = ++clock_;
    if (list[sentinel_].prev == data) return;  // already the newest
    if (list[data].next != kUnlisted) unlink(list, data);
    const std::uint32_t newest = list[sentinel_].prev;
    list[data].prev = newest;
    list[data].next = sentinel_;
    list[newest].next = data;
    list[sentinel_].prev = data;
  }

  std::uint32_t sentinel_;
  std::vector<std::vector<Entry>> entries_;  // per GPU
  std::uint64_t clock_ = 0;
};

}  // namespace mg::sim
