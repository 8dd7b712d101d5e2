// A MemoryView whose residency a test sets and may edit between pops: one
// byte per data (absent, fetching or present), registered as the view's
// residency, so schedulers read it exactly as they read a MemoryManager's.
#pragma once

#include <array>
#include <cstdint>
#include <set>

#include "core/ids.hpp"
#include "core/memory_view.hpp"
#include "util/check.hpp"

namespace mg::test {

class StubMemory final : public core::MemoryView {
 public:
  /// Data ids the stub can hold; every graph it is used with is smaller.
  static constexpr core::DataId kMaxData = 256;

  explicit StubMemory(const std::set<core::DataId>& present = {},
                      const std::set<core::DataId>& fetching = {}) {
    register_residency(state_);
    for (core::DataId data : present) set_present(data);
    for (core::DataId data : fetching) set_fetching(data);
  }

  [[nodiscard]] bool is_present(core::DataId data) const override {
    return state_[data] == kPresent;
  }
  [[nodiscard]] bool is_fetching(core::DataId data) const {
    return state_[data] == kFetching;
  }
  [[nodiscard]] std::uint64_t capacity_bytes() const override { return 1000; }
  [[nodiscard]] std::uint64_t used_bytes() const override {
    return 10 * held_count_;
  }

  void set_present(core::DataId data) { set(data, kPresent); }
  void set_fetching(core::DataId data) { set(data, kFetching); }
  void drop(core::DataId data) { set(data, kAbsent); }
  void clear() {
    state_.fill(kAbsent);
    held_count_ = 0;
  }

 private:
  enum : std::uint8_t { kAbsent, kFetching, kPresent };

  void set(core::DataId data, std::uint8_t state) {
    MG_CHECK(data < kMaxData);
    if (state_[data] != kAbsent) --held_count_;
    if (state != kAbsent) ++held_count_;
    state_[data] = state;
  }

  std::array<std::uint8_t, kMaxData> state_{};
  std::uint64_t held_count_ = 0;
};

}  // namespace mg::test
