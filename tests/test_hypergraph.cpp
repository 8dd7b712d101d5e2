#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <ostream>
#include <set>
#include <string>
#include <vector>

#include "hypergraph/hypergraph.hpp"
#include "hypergraph/partitioner.hpp"
#include "hypergraph/quality.hpp"
#include "util/rng.hpp"
#include "workloads/cholesky.hpp"
#include "workloads/lu.hpp"
#include "workloads/matmul2d.hpp"
#include "workloads/matmul3d.hpp"
#include "workloads/random_bipartite.hpp"
#include "workloads/sparse_matmul.hpp"

namespace mg::hyper {
namespace {

TEST(Hypergraph, CsrBothDirections) {
  // 4 vertices, nets {0,1,2}, {2,3}, {0}.
  Hypergraph hypergraph({1, 1, 1, 1}, {{0, 1, 2}, {2, 3}, {0}}, {5, 7, 9});
  EXPECT_EQ(hypergraph.num_vertices(), 4u);
  EXPECT_EQ(hypergraph.num_nets(), 3u);
  EXPECT_EQ(hypergraph.num_pins(), 6u);

  const auto pins0 = hypergraph.pins(0);
  EXPECT_EQ(std::vector<VertexId>(pins0.begin(), pins0.end()),
            (std::vector<VertexId>{0, 1, 2}));
  const auto nets2 = hypergraph.nets_of(2);
  EXPECT_EQ(std::vector<NetId>(nets2.begin(), nets2.end()),
            (std::vector<NetId>{0, 1}));
  EXPECT_EQ(hypergraph.net_weight(1), 7u);
  EXPECT_EQ(hypergraph.total_vertex_weight(), 4u);
}

TEST(Hypergraph, FromTaskGraphHasOneNetPerData) {
  const core::TaskGraph graph =
      work::make_matmul_2d({.n = 4, .data_bytes = 100});
  const Hypergraph hypergraph = hypergraph_from_task_graph(graph);
  EXPECT_EQ(hypergraph.num_vertices(), graph.num_tasks());
  EXPECT_EQ(hypergraph.num_nets(), graph.num_data());
  for (NetId net = 0; net < hypergraph.num_nets(); ++net) {
    EXPECT_EQ(hypergraph.pins(net).size(), graph.consumers(net).size());
    EXPECT_EQ(hypergraph.net_weight(net), graph.data_size(net));
  }
}

TEST(Hypergraph, FlopWeightsScaleFromLightestTask) {
  const core::TaskGraph graph = work::make_cholesky_tasks({.n = 4});
  const Hypergraph hypergraph = hypergraph_from_task_graph(graph);
  // Lightest task is POTRF (t^3/3): weight 1. GEMM is 2t^3: weight 6.
  std::uint64_t min_weight = ~0ull;
  std::uint64_t max_weight = 0;
  for (VertexId v = 0; v < hypergraph.num_vertices(); ++v) {
    min_weight = std::min(min_weight, hypergraph.vertex_weight(v));
    max_weight = std::max(max_weight, hypergraph.vertex_weight(v));
  }
  EXPECT_EQ(min_weight, 1u);
  EXPECT_EQ(max_weight, 6u);
}

TEST(Quality, CountsConnectivityAndCut) {
  Hypergraph hypergraph({1, 1, 1, 1}, {{0, 1}, {1, 2, 3}, {0, 3}},
                        {10, 20, 30});
  // Partition {0,1 | 2,3}: net0 internal, net1 cut (lambda 2), net2 cut.
  const std::vector<std::uint32_t> part{0, 0, 1, 1};
  const PartitionQuality quality = evaluate_partition(hypergraph, part, 2);
  EXPECT_EQ(quality.cut_nets_weight, 50u);
  EXPECT_EQ(quality.connectivity_minus_1, 50u);
  EXPECT_DOUBLE_EQ(quality.imbalance, 0.0);
}

TEST(Quality, LambdaCountsEveryTouchedPart) {
  Hypergraph hypergraph({1, 1, 1}, {{0, 1, 2}}, {10});
  const std::vector<std::uint32_t> part{0, 1, 2};
  const PartitionQuality quality = evaluate_partition(hypergraph, part, 3);
  EXPECT_EQ(quality.connectivity_minus_1, 20u);  // lambda=3 -> (3-1)*10
}

TEST(Partitioner, ProducesValidAssignment) {
  const core::TaskGraph graph =
      work::make_matmul_2d({.n = 8, .data_bytes = 10});
  const Hypergraph hypergraph = hypergraph_from_task_graph(graph);
  PartitionerConfig config;
  config.num_parts = 4;
  config.seed = 3;
  const auto part = partition_hypergraph(hypergraph, config);
  ASSERT_EQ(part.size(), hypergraph.num_vertices());
  std::set<std::uint32_t> used(part.begin(), part.end());
  for (std::uint32_t p : used) EXPECT_LT(p, 4u);
  EXPECT_EQ(used.size(), 4u);  // all parts non-empty on a regular workload
}

TEST(Partitioner, RespectsBalanceOnUniformWeights) {
  const core::TaskGraph graph =
      work::make_matmul_2d({.n = 10, .data_bytes = 10});
  const Hypergraph hypergraph = hypergraph_from_task_graph(graph);
  PartitionerConfig config;
  config.num_parts = 2;
  config.imbalance = 0.02;
  config.seed = 5;
  const auto part = partition_hypergraph(hypergraph, config);
  const PartitionQuality quality = evaluate_partition(hypergraph, part, 2);
  // Multilevel + FM should land close to the bound; allow slack for the
  // coarse granularity of a 100-task instance.
  EXPECT_LE(quality.imbalance, 0.08);
}

TEST(Partitioner, SeparatesDisconnectedClusters) {
  // Two disjoint cliques of 8 tasks sharing one data each: the optimal
  // bisection cuts nothing.
  core::TaskGraphBuilder builder;
  const core::DataId a = builder.add_data(10);
  const core::DataId b = builder.add_data(10);
  for (int i = 0; i < 8; ++i) builder.add_task(1.0, {a});
  for (int i = 0; i < 8; ++i) builder.add_task(1.0, {b});
  const Hypergraph hypergraph =
      hypergraph_from_task_graph(builder.build());

  PartitionerConfig config;
  config.num_parts = 2;
  config.seed = 9;
  const auto part = partition_hypergraph(hypergraph, config);
  const PartitionQuality quality = evaluate_partition(hypergraph, part, 2);
  EXPECT_EQ(quality.connectivity_minus_1, 0u);
  EXPECT_DOUBLE_EQ(quality.imbalance, 0.0);
}

TEST(Partitioner, CutIsNearTheStructuralOptimum) {
  // For the NxN 2D matmul, the best balanced bisection splits one dimension
  // in half and cuts exactly the N nets of the other dimension.
  const std::uint32_t n = 12;
  const core::TaskGraph graph = work::make_matmul_2d({.n = n, .data_bytes = 10});
  const Hypergraph hypergraph = hypergraph_from_task_graph(graph);
  PartitionerConfig config;
  config.num_parts = 2;
  config.seed = 1;
  const auto part = partition_hypergraph(hypergraph, config);
  const auto quality = evaluate_partition(hypergraph, part, 2);

  const std::uint64_t optimal = static_cast<std::uint64_t>(n) * 10;
  EXPECT_LE(quality.connectivity_minus_1, 2 * optimal);

  // And it must clearly beat a scattered random assignment, which puts both
  // halves on nearly every net (~2N cut nets).
  util::Rng rng(123);
  std::vector<std::uint32_t> random_assignment(hypergraph.num_vertices());
  for (VertexId v = 0; v < hypergraph.num_vertices(); ++v) {
    random_assignment[v] = static_cast<std::uint32_t>(rng.below(2));
  }
  const auto random_quality =
      evaluate_partition(hypergraph, random_assignment, 2);
  EXPECT_LT(quality.connectivity_minus_1, random_quality.connectivity_minus_1);
}

TEST(KwayRefine, FixesAnObviouslyBadAssignment) {
  // Two disjoint clusters, deliberately mis-assigned half-and-half: the
  // refinement must move vertices until the cut is zero.
  core::TaskGraphBuilder builder;
  const core::DataId a = builder.add_data(10);
  const core::DataId b = builder.add_data(10);
  for (int i = 0; i < 8; ++i) builder.add_task(1.0, {a});
  for (int i = 0; i < 8; ++i) builder.add_task(1.0, {b});
  const Hypergraph hypergraph = hypergraph_from_task_graph(builder.build());

  // Interleave: vertices 0..7 read net a, 8..15 read net b; assign by
  // parity so both nets are cut. Greedy single moves need at least one
  // vertex of transient imbalance headroom to get moving.
  std::vector<std::uint32_t> part(16);
  for (VertexId v = 0; v < 16; ++v) part[v] = v % 2;

  kway_refine(hypergraph, part, 2, /*imbalance=*/0.14, /*max_passes=*/8);
  const auto quality = evaluate_partition(hypergraph, part, 2);
  EXPECT_EQ(quality.connectivity_minus_1, 0u);
  EXPECT_LE(quality.imbalance, 0.14 + 1e-9);
}

TEST(KwayRefine, NeverWorsensConnectivityOrBreaksBalance) {
  const core::TaskGraph graph =
      work::make_matmul_2d({.n = 10, .data_bytes = 10});
  const Hypergraph hypergraph = hypergraph_from_task_graph(graph);

  util::Rng rng(5);
  std::vector<std::uint32_t> part(hypergraph.num_vertices());
  for (auto& p : part) p = static_cast<std::uint32_t>(rng.below(4));
  const auto before = evaluate_partition(hypergraph, part, 4);

  kway_refine(hypergraph, part, 4, 0.30, 4);
  const auto after = evaluate_partition(hypergraph, part, 4);
  EXPECT_LE(after.connectivity_minus_1, before.connectivity_minus_1);
  EXPECT_LE(after.imbalance, 0.35);  // bound plus integer-weight slack
}

TEST(KwayRefine, NoOpForSinglePart) {
  const core::TaskGraph graph =
      work::make_matmul_2d({.n = 4, .data_bytes = 10});
  const Hypergraph hypergraph = hypergraph_from_task_graph(graph);
  std::vector<std::uint32_t> part(hypergraph.num_vertices(), 0);
  kway_refine(hypergraph, part, 1, 0.02, 4);
  EXPECT_TRUE(std::all_of(part.begin(), part.end(),
                          [](std::uint32_t p) { return p == 0; }));
}

TEST(Partitioner, SinglePartIsAllZeros) {
  const core::TaskGraph graph =
      work::make_matmul_2d({.n = 3, .data_bytes = 10});
  const Hypergraph hypergraph = hypergraph_from_task_graph(graph);
  PartitionerConfig config;
  config.num_parts = 1;
  const auto part = partition_hypergraph(hypergraph, config);
  EXPECT_TRUE(std::all_of(part.begin(), part.end(),
                          [](std::uint32_t p) { return p == 0; }));
}

TEST(Partitioner, DeterministicForFixedSeed) {
  const core::TaskGraph graph =
      work::make_matmul_2d({.n = 8, .data_bytes = 10});
  const Hypergraph hypergraph = hypergraph_from_task_graph(graph);
  PartitionerConfig config;
  config.num_parts = 4;
  config.seed = 17;
  const auto part_a = partition_hypergraph(hypergraph, config);
  const auto part_b = partition_hypergraph(hypergraph, config);
  EXPECT_EQ(part_a, part_b);
}

TEST(Partitioner, HandlesNonPowerOfTwoParts) {
  const core::TaskGraph graph =
      work::make_matmul_2d({.n = 9, .data_bytes = 10});
  const Hypergraph hypergraph = hypergraph_from_task_graph(graph);
  PartitionerConfig config;
  config.num_parts = 3;
  config.seed = 2;
  const auto part = partition_hypergraph(hypergraph, config);
  std::vector<std::uint64_t> weights(3, 0);
  for (VertexId v = 0; v < hypergraph.num_vertices(); ++v) {
    weights[part[v]] += hypergraph.vertex_weight(v);
  }
  const auto max_weight = *std::max_element(weights.begin(), weights.end());
  const auto min_weight = *std::min_element(weights.begin(), weights.end());
  EXPECT_GT(min_weight, 0u);
  EXPECT_LT(static_cast<double>(max_weight),
            1.35 * static_cast<double>(min_weight));
}

// ---------------------------------------------------------------------------
// Partition pins: every refinement change must reproduce these assignments
// exactly (the schedulers' queues, and so every hMETIS+R run, follow them).
// ---------------------------------------------------------------------------

/// 64-bit FNV-1a over the part of every vertex, 4 little-endian bytes each.
std::uint64_t partition_fingerprint(const std::vector<std::uint32_t>& part) {
  std::uint64_t hash = 0xcbf29ce484222325ULL;
  for (const std::uint32_t p : part) {
    for (int i = 0; i < 4; ++i) {
      hash ^= (p >> (8 * i)) & 0xffu;
      hash *= 0x100000001b3ULL;
    }
  }
  return hash;
}

struct PartitionPinCase {
  const char* name;
  core::TaskGraph (*graph)();
  std::uint32_t num_parts;
  std::uint64_t seed;
  std::vector<double> target_share;
  std::uint64_t expected;
};

// gtest prints the parameter into each test's listed name; print the case
// name so that name does not carry the address of the name string.
void PrintTo(const PartitionPinCase& pin_case, std::ostream* os) {
  *os << pin_case.name;
}

const PartitionPinCase kPartitionPinCases[] = {
    {"Matmul2dK2", [] { return work::make_matmul_2d({.n = 24}); }, 2, 1, {},
     0x28a16f73f6c8c415ULL},
    {"Matmul2dShuffledK4",
     [] {
       return work::make_matmul_2d(
           {.n = 40, .randomize_order = true, .seed = 3});
     },
     4, 7, {}, 0xf12cec5cbf586bb5ULL},
    {"Matmul2dK3", [] { return work::make_matmul_2d({.n = 30}); }, 3, 42, {},
     0x77135c36d8479564ULL},
    {"Matmul3dK8", [] { return work::make_matmul_3d({.n = 8}); }, 8, 1234, {},
     0x88a608f6c33e6f25ULL},
    {"CholeskyFlopsK4", [] { return work::make_cholesky_tasks({.n = 16}); }, 4,
     7, {}, 0x5fc204578746d226ULL},
    {"LuK2", [] { return work::make_lu_tasks({.n = 12}); }, 2, 1, {},
     0xba26372dffcce705ULL},
    {"RandomBipartite1to4K4",
     [] {
       return work::make_random_bipartite({.num_tasks = 1000,
                                           .num_data = 250,
                                           .min_inputs = 1,
                                           .max_inputs = 4,
                                           .seed = 11});
     },
     4, 42, {}, 0x33585db6f1712a44ULL},
    {"SparseMatmulK3",
     [] {
       return work::make_sparse_matmul(
           {.n = 120, .keep_fraction = 0.05, .seed = 5});
     },
     3, 7, {}, 0x89dbbaf57b5f9fd6ULL},
    {"HeterogeneousSharesK3", [] { return work::make_matmul_2d({.n = 32}); },
     3, 1234, {1.0, 2.0, 3.0}, 0xa1694c98e79b6147ULL},
    // matmul_hmetis's first point: Fig. 8's N=89 on 4 GPUs at the figure
    // harness's partitioner seed.
    {"MatmulHmetisN89", [] { return work::make_matmul_2d({.n = 89}); }, 4, 42,
     {}, 0xf4be212a2c4f84c4ULL},
};

class PartitionPin : public testing::TestWithParam<PartitionPinCase> {};

TEST_P(PartitionPin, RepeatsExactly) {
  const PartitionPinCase& pin_case = GetParam();
  const Hypergraph hypergraph = hypergraph_from_task_graph(pin_case.graph());
  PartitionerConfig config;
  config.num_parts = pin_case.num_parts;
  config.seed = pin_case.seed;
  config.target_share = pin_case.target_share;
  const auto part = partition_hypergraph(hypergraph, config);
  ASSERT_EQ(part.size(), hypergraph.num_vertices());
  const std::uint64_t actual = partition_fingerprint(part);
  EXPECT_EQ(actual, pin_case.expected)
      << "actual 0x" << std::hex << actual;
}

INSTANTIATE_TEST_SUITE_P(
    Cases, PartitionPin, testing::ValuesIn(kPartitionPinCases),
    [](const testing::TestParamInfo<PartitionPinCase>& case_info) {
      return std::string(case_info.param.name);
    });

}  // namespace
}  // namespace mg::hyper
