#include "workloads/matmul2d.hpp"

#include <numeric>
#include <string>
#include <utility>
#include <vector>

#include "util/check.hpp"
#include "util/rng.hpp"

namespace mg::work {

core::TaskGraph make_matmul_2d(const Matmul2DParams& params) {
  MG_CHECK(params.n >= 1);
  core::TaskGraphBuilder builder;

  std::vector<core::DataId> rows(params.n);
  std::vector<core::DataId> cols(params.n);
  for (std::uint32_t i = 0; i < params.n; ++i) {
    rows[i] = builder.add_data(params.data_bytes, "rowA_" + std::to_string(i));
  }
  for (std::uint32_t j = 0; j < params.n; ++j) {
    cols[j] = builder.add_data(params.data_bytes, "colB_" + std::to_string(j));
  }

  // Submission order: row-major, optionally shuffled.
  std::vector<std::uint32_t> order(static_cast<std::size_t>(params.n) *
                                   params.n);
  std::iota(order.begin(), order.end(), 0);
  if (params.randomize_order) {
    util::Rng rng(params.seed);
    rng.shuffle(order);
  }

  const double flops =
      params.flops_per_byte * static_cast<double>(params.data_bytes);
  for (std::uint32_t index : order) {
    const std::uint32_t i = index / params.n;
    const std::uint32_t j = index % params.n;
    const core::TaskId task =
        builder.add_task(flops, {rows[i], cols[j]},
                         "C_" + std::to_string(i) + "_" + std::to_string(j));
    if (params.output_bytes > 0) {
      builder.set_task_output(task, params.output_bytes);
    }
    if (params.derive_warps) {
      builder.set_task_warps(task, matmul_2d_task_warps(params.tile_dim));
    }
  }
  return std::move(builder).build();
}

}  // namespace mg::work
