#include "workloads/random_bipartite.hpp"

#include <algorithm>
#include <utility>
#include <vector>

#include "util/check.hpp"
#include "util/rng.hpp"

namespace mg::work {

core::TaskGraph make_random_bipartite(const RandomBipartiteParams& params) {
  MG_CHECK(params.num_tasks >= 1 && params.num_data >= 1);
  MG_CHECK(params.min_inputs >= 1 && params.min_inputs <= params.max_inputs);
  MG_CHECK(params.max_inputs <= params.num_data);

  core::TaskGraphBuilder builder;
  for (std::uint32_t d = 0; d < params.num_data; ++d) {
    builder.add_data(params.data_bytes);
  }

  util::Rng rng(params.seed);
  std::vector<core::DataId> inputs;
  for (std::uint32_t t = 0; t < params.num_tasks; ++t) {
    const std::uint32_t degree =
        params.min_inputs +
        static_cast<std::uint32_t>(
            rng.below(params.max_inputs - params.min_inputs + 1));
    inputs.clear();
    while (inputs.size() < degree) {
      const auto data = static_cast<core::DataId>(rng.below(params.num_data));
      if (std::find(inputs.begin(), inputs.end(), data) == inputs.end()) {
        inputs.push_back(data);
      }
    }
    builder.add_task(params.task_flops, inputs);
  }
  return std::move(builder).build();
}

}  // namespace mg::work
