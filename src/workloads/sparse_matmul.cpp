#include "workloads/sparse_matmul.hpp"

#include <string>
#include <utility>
#include <vector>

#include "util/check.hpp"
#include "util/rng.hpp"

namespace mg::work {

core::TaskGraph make_sparse_matmul(const SparseMatmulParams& params) {
  MG_CHECK(params.n >= 1);
  MG_CHECK(params.keep_fraction > 0.0 && params.keep_fraction <= 1.0);
  core::TaskGraphBuilder builder;

  std::vector<core::DataId> rows(params.n);
  std::vector<core::DataId> cols(params.n);
  for (std::uint32_t i = 0; i < params.n; ++i) {
    rows[i] = builder.add_data(params.data_bytes, "rowA_" + std::to_string(i));
  }
  for (std::uint32_t j = 0; j < params.n; ++j) {
    cols[j] = builder.add_data(params.data_bytes, "colB_" + std::to_string(j));
  }

  util::Rng rng(params.seed);
  const double flops =
      params.flops_per_byte * static_cast<double>(params.data_bytes);
  std::uint32_t kept = 0;
  for (std::uint32_t i = 0; i < params.n; ++i) {
    for (std::uint32_t j = 0; j < params.n; ++j) {
      if (!rng.chance(params.keep_fraction)) continue;
      builder.add_task(flops, {rows[i], cols[j]},
                       "C_" + std::to_string(i) + "_" + std::to_string(j));
      ++kept;
    }
  }
  // Degenerate draw (tiny n and low fraction): guarantee at least one task
  // so downstream code never sees an empty graph.
  if (kept == 0) {
    builder.add_task(flops, {rows[0], cols[0]}, "C_0_0");
  }
  return std::move(builder).build();
}

}  // namespace mg::work
