// Microbenchmark: hypergraph partitioner cost and quality scaling — the
// "partitioning time of hMETIS+R has a significant impact on performance"
// observation of Section V-C depends on this scaling.
#include <benchmark/benchmark.h>

#include <cstdint>
#include <vector>

#include "hypergraph/hypergraph.hpp"
#include "hypergraph/partitioner.hpp"
#include "hypergraph/quality.hpp"
#include "workloads/cholesky.hpp"
#include "workloads/matmul2d.hpp"

namespace {

using namespace mg;

void BM_PartitionMatmul2D(benchmark::State& state) {
  const auto n = static_cast<std::uint32_t>(state.range(0));
  const auto parts = static_cast<std::uint32_t>(state.range(1));
  const core::TaskGraph graph = work::make_matmul_2d({.n = n});
  const hyper::Hypergraph hypergraph = hyper::hypergraph_from_task_graph(graph);

  hyper::PartitionerConfig config;
  config.num_parts = parts;
  // Quality of one fixed-seed partition, computed outside the timed loop so
  // the counter does not depend on how many iterations the library chose.
  const std::uint64_t connectivity =
      hyper::evaluate_partition(
          hypergraph, hyper::partition_hypergraph(hypergraph, config), parts)
          .connectivity_minus_1;
  for (auto _ : state) {
    config.seed += 1;  // fresh randomness per iteration
    const auto part = hyper::partition_hypergraph(hypergraph, config);
    benchmark::DoNotOptimize(part.data());
  }
  state.counters["tasks"] = static_cast<double>(graph.num_tasks());
  state.counters["connectivity"] = static_cast<double>(connectivity);
}
BENCHMARK(BM_PartitionMatmul2D)
    ->Args({16, 2})
    ->Args({32, 2})
    ->Args({32, 4})
    ->Args({64, 4})
    ->Unit(benchmark::kMillisecond);

void BM_PartitionCholesky(benchmark::State& state) {
  const auto n = static_cast<std::uint32_t>(state.range(0));
  const core::TaskGraph graph = work::make_cholesky_tasks({.n = n});
  const hyper::Hypergraph hypergraph = hyper::hypergraph_from_task_graph(graph);

  hyper::PartitionerConfig config;
  config.num_parts = 4;
  for (auto _ : state) {
    config.seed += 1;
    const auto part = hyper::partition_hypergraph(hypergraph, config);
    benchmark::DoNotOptimize(part.data());
  }
  state.counters["tasks"] = static_cast<double>(graph.num_tasks());
}
BENCHMARK(BM_PartitionCholesky)->Arg(12)->Arg(20)->Arg(28)
    ->Unit(benchmark::kMillisecond);

// The three partitions of perfbench's matmul_hmetis workload: Fig. 8's
// N=89, 103 and 117 on 4 GPUs at the figure harness's seed 42, without the
// engine around them. The seed stays fixed because the partitioner's cost
// varies with it by up to 3x per point.
void BM_PartitionMatmulHmetisPoints(benchmark::State& state) {
  std::vector<hyper::Hypergraph> hypergraphs;
  std::uint64_t tasks = 0;
  for (const std::uint32_t n : {89u, 103u, 117u}) {
    const core::TaskGraph graph = work::make_matmul_2d({.n = n});
    tasks += graph.num_tasks();
    hypergraphs.push_back(hyper::hypergraph_from_task_graph(graph));
  }
  hyper::PartitionerConfig config;
  config.num_parts = 4;
  config.seed = 42;
  for (auto _ : state) {
    for (const hyper::Hypergraph& hypergraph : hypergraphs) {
      const auto part = hyper::partition_hypergraph(hypergraph, config);
      benchmark::DoNotOptimize(part.data());
    }
  }
  state.counters["tasks"] = static_cast<double>(tasks);
}
BENCHMARK(BM_PartitionMatmulHmetisPoints)->Unit(benchmark::kMillisecond);

}  // namespace
