#include "core/platform.hpp"

#include <gtest/gtest.h>

#include <array>
#include <cstdint>

#include "core/memory_view.hpp"

namespace mg::core {
namespace {

TEST(Platform, DefaultsMatchThePaperTestbed) {
  const Platform platform;
  EXPECT_EQ(platform.num_gpus, 1u);
  EXPECT_EQ(platform.gpu_memory_bytes, 500 * kMB);
  EXPECT_DOUBLE_EQ(platform.gpu_gflops, 13253.0);
  EXPECT_DOUBLE_EQ(platform.bus_bandwidth_bytes_per_s, 16e9);
  EXPECT_FALSE(platform.nvlink_enabled);
}

TEST(Platform, TransferTimeIsLatencyPlusBandwidth) {
  Platform platform;
  platform.bus_latency_us = 15.0;
  platform.bus_bandwidth_bytes_per_s = 16e9;
  // 16 MB over 16 GB/s = 1 ms + 15 us latency.
  EXPECT_NEAR(platform.transfer_time_us(16'000'000), 1015.0, 1e-9);
  EXPECT_NEAR(platform.transfer_time_us(0), 15.0, 1e-12);
}

TEST(Platform, ComputeTimeFromFlops) {
  const Platform platform;
  // 13253 GFlop at 13253 GFlop/s = 1 second.
  EXPECT_NEAR(platform.compute_time_us(13253.0 * 1e9), 1e6, 1e-3);
}

TEST(Platform, PaperTaskTakesAboutHalfAMillisecond) {
  const Platform platform;
  // One 2D-matmul task: 480 flops/byte * 14 MB = 6.72 GFlop.
  EXPECT_NEAR(platform.compute_time_us(480.0 * 14e6), 507.0, 0.5);
  // Its data item takes longer to transfer than the task to compute —
  // the ratio that makes data reuse the whole game.
  EXPECT_GT(platform.transfer_time_us(14 * kMB),
            platform.compute_time_us(480.0 * 14e6));
}

TEST(Platform, CumulatedMemoryAndPeak) {
  const Platform platform = make_v100_platform(4, 250 * kMB);
  EXPECT_EQ(platform.cumulated_memory_bytes(), 1000 * kMB);
  EXPECT_DOUBLE_EQ(platform.peak_gflops(), 4 * 13253.0);
}

TEST(Platform, NvlinkFasterThanHostBus) {
  Platform platform;
  platform.nvlink_enabled = true;
  // Same payload: peer link (50 GB/s, 5 us) vs host (16 GB/s, 15 us).
  EXPECT_LT(platform.nvlink_transfer_time_us(14 * kMB),
            platform.transfer_time_us(14 * kMB));
}

TEST(Platform, EveryLinkPricesThroughTheSharedCostModel) {
  // One formula for all three link kinds: latency + bytes / bandwidth.
  Platform platform;
  platform.nvlink_enabled = true;
  const std::uint64_t bytes = 14 * kMB;
  EXPECT_DOUBLE_EQ(platform.transfer_time_us(bytes),
                   Platform::link_time_us(bytes,
                                          platform.bus_bandwidth_bytes_per_s,
                                          platform.bus_latency_us));
  EXPECT_DOUBLE_EQ(
      platform.nvlink_transfer_time_us(bytes),
      Platform::link_time_us(bytes, platform.nvlink_bandwidth_bytes_per_s,
                             platform.nvlink_latency_us));
  EXPECT_DOUBLE_EQ(
      platform.net_transfer_time_us(bytes),
      Platform::link_time_us(bytes, platform.net_bandwidth_bytes_per_s,
                             platform.net_latency_us));
}

TEST(Platform, ZeroByteTransfersCostExactlyTheLatency) {
  Platform platform;
  platform.bus_latency_us = 15.0;
  platform.net_latency_us = 25.0;
  platform.nvlink_latency_us = 5.0;
  EXPECT_DOUBLE_EQ(platform.transfer_time_us(0), 15.0);
  EXPECT_DOUBLE_EQ(platform.net_transfer_time_us(0), 25.0);
  EXPECT_DOUBLE_EQ(platform.nvlink_transfer_time_us(0), 5.0);
  // A zero-byte inter-node move still pays two PCI setups plus one network
  // round: latency never amortizes away.
  EXPECT_DOUBLE_EQ(platform.internode_transfer_time_us(0), 2 * 15.0 + 25.0);
}

TEST(Platform, LatencyDominatesSmallMessages) {
  const Platform platform;
  // 1 byte over 12.5 GB/s is ~0.08 ns of bandwidth against 25 us of
  // latency: the fixed cost is essentially the whole transfer.
  const double time = platform.net_transfer_time_us(1);
  EXPECT_GT(time, platform.net_latency_us);
  EXPECT_LT(time - platform.net_latency_us, 1e-3);
}

TEST(Platform, InternodeTransferIsTwoPciHopsPlusOneNetworkHop) {
  Platform platform;
  platform.num_nodes = 2;
  const std::uint64_t bytes = 14 * kMB;
  EXPECT_DOUBLE_EQ(platform.internode_transfer_time_us(bytes),
                   2.0 * platform.transfer_time_us(bytes) +
                       platform.net_transfer_time_us(bytes));
  // The network hop makes remote strictly slower than a local PCI load.
  EXPECT_GT(platform.internode_transfer_time_us(bytes),
            platform.transfer_time_us(bytes));
}

TEST(Platform, NodeTopologyMapsContiguousGpuBlocks) {
  Platform platform;
  platform.num_gpus = 4;
  platform.num_nodes = 2;
  EXPECT_TRUE(platform.is_cluster());
  EXPECT_EQ(platform.node_of(0), 0u);
  EXPECT_EQ(platform.node_of(1), 0u);
  EXPECT_EQ(platform.node_of(2), 1u);
  EXPECT_EQ(platform.node_of(3), 1u);
  EXPECT_EQ(platform.node_gpu_begin(0), 0u);
  EXPECT_EQ(platform.node_gpu_end(0), 2u);
  EXPECT_EQ(platform.node_gpu_begin(1), 2u);
  EXPECT_EQ(platform.node_gpu_end(1), 4u);
  // Round-robin data homes.
  EXPECT_EQ(platform.home_node_of(0), 0u);
  EXPECT_EQ(platform.home_node_of(1), 1u);
  EXPECT_EQ(platform.home_node_of(2), 0u);
}

TEST(Platform, UnevenGpuCountsSplitWithoutGapsOrOverlap) {
  Platform platform;
  platform.num_gpus = 5;
  platform.num_nodes = 2;
  // Blocks partition [0, 5): every GPU belongs to exactly the node whose
  // [begin, end) contains it.
  for (GpuId gpu = 0; gpu < platform.num_gpus; ++gpu) {
    const NodeId node = platform.node_of(gpu);
    EXPECT_GE(gpu, platform.node_gpu_begin(node));
    EXPECT_LT(gpu, platform.node_gpu_end(node));
  }
  EXPECT_EQ(platform.node_gpu_begin(0), 0u);
  EXPECT_EQ(platform.node_gpu_end(1), 5u);
  EXPECT_EQ(platform.node_gpu_end(0), platform.node_gpu_begin(1));
}

TEST(Platform, SingleNodeIsNotACluster) {
  Platform platform;
  platform.num_gpus = 4;
  EXPECT_FALSE(platform.is_cluster());
  EXPECT_EQ(platform.node_of(3), 0u);
  EXPECT_EQ(platform.node_gpu_end(0), 4u);
  EXPECT_EQ(platform.home_node_of(7), 0u);
}

TEST(MemoryView, FreeBytesDerivesFromCapacityAndUse) {
  class Stub final : public MemoryView {
   public:
    Stub() { register_residency(held_); }
    [[nodiscard]] bool is_present(DataId) const override { return false; }
    [[nodiscard]] std::uint64_t capacity_bytes() const override { return 100; }
    [[nodiscard]] std::uint64_t used_bytes() const override { return 30; }

   private:
    std::array<std::uint8_t, 1> held_{};
  };
  Stub stub;
  EXPECT_EQ(stub.free_bytes(), 70u);
  EXPECT_FALSE(stub.is_present_or_fetching(0));
}

}  // namespace
}  // namespace mg::core
