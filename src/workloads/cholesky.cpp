#include "workloads/cholesky.hpp"

#include <string>
#include <utility>
#include <vector>

#include "util/check.hpp"

namespace mg::work {

core::TaskGraph make_cholesky_tasks(const CholeskyParams& params) {
  MG_CHECK(params.n >= 1);
  core::TaskGraphBuilder builder;

  const std::uint32_t n = params.n;
  const std::uint64_t tile_bytes =
      static_cast<std::uint64_t>(params.tile_elems) * params.tile_elems * 4;
  const double t3 = static_cast<double>(params.tile_elems) *
                    params.tile_elems * params.tile_elems;

  // Lower-triangular tiles (i >= j).
  auto tile_index = [n](std::uint32_t i, std::uint32_t j) {
    // Row-major over the lower triangle: offset of row i is i(i+1)/2.
    (void)n;
    return i * (i + 1) / 2 + j;
  };
  std::vector<core::DataId> tiles;
  tiles.reserve(static_cast<std::size_t>(n) * (n + 1) / 2);
  for (std::uint32_t i = 0; i < n; ++i) {
    for (std::uint32_t j = 0; j <= i; ++j) {
      tiles.push_back(builder.add_data(
          tile_bytes, "T_" + std::to_string(i) + "_" + std::to_string(j)));
    }
  }
  auto tile = [&](std::uint32_t i, std::uint32_t j) {
    return tiles[tile_index(i, j)];
  };

  // Every kernel writes back one tile when outputs are modeled; with
  // dependencies, the written tile also versions the data so build() derives
  // the factorization DAG.
  auto finish_task = [&](core::TaskId task, core::DataId written_tile) {
    if (params.with_outputs) builder.set_task_output(task, tile_bytes);
    if (params.with_dependencies) builder.set_task_writes(task, written_tile);
  };

  // Right-looking factorization submission order (dependencies dropped
  // unless params.with_dependencies restores them).
  for (std::uint32_t k = 0; k < n; ++k) {
    // POTRF(k): factorize the diagonal tile, ~t^3/3 flops.
    finish_task(builder.add_task(t3 / 3.0, {tile(k, k)},
                                 "potrf_" + std::to_string(k)),
                tile(k, k));
    // TRSM(i,k): triangular solve against the panel, ~t^3 flops.
    for (std::uint32_t i = k + 1; i < n; ++i) {
      finish_task(builder.add_task(
                      t3, {tile(i, k), tile(k, k)},
                      "trsm_" + std::to_string(i) + "_" + std::to_string(k)),
                  tile(i, k));
    }
    // Trailing update.
    for (std::uint32_t i = k + 1; i < n; ++i) {
      // SYRK(i,k): A_ii -= L_ik L_ik^T, ~t^3 flops.
      finish_task(builder.add_task(
                      t3, {tile(i, k), tile(i, i)},
                      "syrk_" + std::to_string(i) + "_" + std::to_string(k)),
                  tile(i, i));
      // GEMM(i,j,k): A_ij -= L_ik L_jk^T, 2t^3 flops, three input tiles.
      for (std::uint32_t j = k + 1; j < i; ++j) {
        finish_task(builder.add_task(
                        2.0 * t3, {tile(i, k), tile(j, k), tile(i, j)},
                        "gemm_" + std::to_string(i) + "_" + std::to_string(j) +
                            "_" + std::to_string(k)),
                    tile(i, j));
      }
    }
  }
  return std::move(builder).build();
}

}  // namespace mg::work
