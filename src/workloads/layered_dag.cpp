#include "workloads/layered_dag.hpp"

#include <algorithm>
#include <utility>
#include <vector>

#include "util/check.hpp"
#include "util/rng.hpp"

namespace mg::work {

core::TaskGraph make_layered_dag(const LayeredDagParams& params) {
  MG_CHECK(params.num_layers >= 1 && params.tasks_per_layer >= 1);
  MG_CHECK(params.num_data >= 1);
  MG_CHECK(params.min_inputs >= 1 && params.min_inputs <= params.max_inputs);
  MG_CHECK(params.max_inputs <= params.num_data);

  core::TaskGraphBuilder builder;
  for (std::uint32_t d = 0; d < params.num_data; ++d) {
    builder.add_data(params.data_bytes);
  }

  util::Rng rng(params.seed);
  std::vector<core::DataId> inputs;
  std::vector<core::TaskId> previous_layer;
  std::vector<core::TaskId> current_layer;
  std::vector<core::TaskId> preds;
  for (std::uint32_t layer = 0; layer < params.num_layers; ++layer) {
    current_layer.clear();
    for (std::uint32_t slot = 0; slot < params.tasks_per_layer; ++slot) {
      const std::uint32_t degree =
          params.min_inputs +
          static_cast<std::uint32_t>(
              rng.below(params.max_inputs - params.min_inputs + 1));
      inputs.clear();
      while (inputs.size() < degree) {
        const auto data =
            static_cast<core::DataId>(rng.below(params.num_data));
        if (std::find(inputs.begin(), inputs.end(), data) == inputs.end()) {
          inputs.push_back(data);
        }
      }
      const core::TaskId task = builder.add_task(params.task_flops, inputs);
      if (params.with_writes) builder.set_task_writes(task, inputs[0]);

      // Explicit edges from a random subset of the previous layer.
      if (layer > 0 && params.max_preds > 0) {
        const std::uint32_t want = 1 + static_cast<std::uint32_t>(
                                           rng.below(params.max_preds));
        const std::uint32_t count = std::min<std::uint32_t>(
            want, static_cast<std::uint32_t>(previous_layer.size()));
        preds.clear();
        while (preds.size() < count) {
          const core::TaskId pred =
              previous_layer[rng.pick_index(previous_layer)];
          if (std::find(preds.begin(), preds.end(), pred) == preds.end()) {
            preds.push_back(pred);
          }
        }
        for (core::TaskId pred : preds) builder.add_dependency(pred, task);
      }
      current_layer.push_back(task);
    }
    previous_layer = current_layer;
  }
  return std::move(builder).build();
}

}  // namespace mg::work
