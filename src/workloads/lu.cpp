#include "workloads/lu.hpp"

#include <string>
#include <utility>
#include <vector>

#include "util/check.hpp"

namespace mg::work {

core::TaskGraph make_lu_tasks(const LuParams& params) {
  MG_CHECK(params.n >= 1);
  core::TaskGraphBuilder builder;

  const std::uint32_t n = params.n;
  const std::uint64_t tile_bytes =
      static_cast<std::uint64_t>(params.tile_elems) * params.tile_elems * 4;
  const double t3 = static_cast<double>(params.tile_elems) *
                    params.tile_elems * params.tile_elems;

  // Full square tile grid, row-major.
  std::vector<core::DataId> tiles;
  tiles.reserve(static_cast<std::size_t>(n) * n);
  for (std::uint32_t i = 0; i < n; ++i) {
    for (std::uint32_t j = 0; j < n; ++j) {
      tiles.push_back(builder.add_data(
          tile_bytes, "T_" + std::to_string(i) + "_" + std::to_string(j)));
    }
  }
  auto tile = [&](std::uint32_t i, std::uint32_t j) {
    return tiles[static_cast<std::size_t>(i) * n + j];
  };

  auto finish_task = [&](core::TaskId task, core::DataId written_tile) {
    if (params.with_outputs) builder.set_task_output(task, tile_bytes);
    if (params.with_dependencies) builder.set_task_writes(task, written_tile);
  };

  // Right-looking factorization submission order.
  for (std::uint32_t k = 0; k < n; ++k) {
    // GETRF(k): factorize the diagonal tile, ~2t^3/3 flops.
    finish_task(builder.add_task(2.0 * t3 / 3.0, {tile(k, k)},
                                 "getrf_" + std::to_string(k)),
                tile(k, k));
    // TRSM_row(k,j): solve L against the row panel, ~t^3 flops.
    for (std::uint32_t j = k + 1; j < n; ++j) {
      finish_task(
          builder.add_task(
              t3, {tile(k, j), tile(k, k)},
              "trsmr_" + std::to_string(k) + "_" + std::to_string(j)),
          tile(k, j));
    }
    // TRSM_col(i,k): solve U against the column panel, ~t^3 flops.
    for (std::uint32_t i = k + 1; i < n; ++i) {
      finish_task(
          builder.add_task(
              t3, {tile(i, k), tile(k, k)},
              "trsmc_" + std::to_string(i) + "_" + std::to_string(k)),
          tile(i, k));
    }
    // Trailing update: GEMM(i,j,k): A_ij -= L_ik U_kj, 2t^3 flops.
    for (std::uint32_t i = k + 1; i < n; ++i) {
      for (std::uint32_t j = k + 1; j < n; ++j) {
        finish_task(builder.add_task(
                        2.0 * t3, {tile(i, k), tile(k, j), tile(i, j)},
                        "gemm_" + std::to_string(i) + "_" + std::to_string(j) +
                            "_" + std::to_string(k)),
                    tile(i, j));
      }
    }
  }
  return std::move(builder).build();
}

}  // namespace mg::work
