#include "workloads/matmul3d.hpp"

#include <cmath>
#include <string>
#include <utility>
#include <vector>

#include "util/check.hpp"

namespace mg::work {

core::TaskGraph make_matmul_3d(const Matmul3DParams& params) {
  MG_CHECK(params.n >= 1);
  core::TaskGraphBuilder builder;

  std::vector<core::DataId> a(static_cast<std::size_t>(params.n) * params.n);
  std::vector<core::DataId> b(static_cast<std::size_t>(params.n) * params.n);
  for (std::uint32_t i = 0; i < params.n; ++i) {
    for (std::uint32_t k = 0; k < params.n; ++k) {
      a[i * params.n + k] = builder.add_data(
          params.data_bytes,
          "A_" + std::to_string(i) + "_" + std::to_string(k));
    }
  }
  for (std::uint32_t k = 0; k < params.n; ++k) {
    for (std::uint32_t j = 0; j < params.n; ++j) {
      b[k * params.n + j] = builder.add_data(
          params.data_bytes,
          "B_" + std::to_string(k) + "_" + std::to_string(j));
    }
  }

  // GEMM of two square single-precision blocks of `data_bytes` bytes:
  // side = sqrt(bytes/4), flops = 2 * side^3.
  const double side = std::sqrt(static_cast<double>(params.data_bytes) / 4.0);
  const double flops = 2.0 * side * side * side;

  // Submission order: i, then j, then k (natural nested-loop order).
  for (std::uint32_t i = 0; i < params.n; ++i) {
    for (std::uint32_t j = 0; j < params.n; ++j) {
      for (std::uint32_t k = 0; k < params.n; ++k) {
        builder.add_task(flops, {a[i * params.n + k], b[k * params.n + j]},
                         "C_" + std::to_string(i) + "_" + std::to_string(j) +
                             "_" + std::to_string(k));
      }
    }
  }
  return std::move(builder).build();
}

}  // namespace mg::work
