#include "core/task_graph.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <utility>
#include <vector>

namespace mg::core {
namespace {

TEST(TaskGraphBuilder, BuildsForwardAndReverseCsr) {
  TaskGraphBuilder builder;
  const DataId d0 = builder.add_data(10);
  const DataId d1 = builder.add_data(20);
  const DataId d2 = builder.add_data(30);
  const TaskId t0 = builder.add_task(1.0, {d0, d1});
  const TaskId t1 = builder.add_task(2.0, {d1, d2});
  const TaskId t2 = builder.add_task(3.0, {d0});
  const TaskGraph graph = builder.build();

  ASSERT_EQ(graph.num_tasks(), 3u);
  ASSERT_EQ(graph.num_data(), 3u);

  EXPECT_EQ(std::vector<DataId>(graph.inputs(t0).begin(),
                                graph.inputs(t0).end()),
            (std::vector<DataId>{d0, d1}));
  EXPECT_EQ(std::vector<DataId>(graph.inputs(t2).begin(),
                                graph.inputs(t2).end()),
            (std::vector<DataId>{d0}));

  EXPECT_EQ(std::vector<TaskId>(graph.consumers(d0).begin(),
                                graph.consumers(d0).end()),
            (std::vector<TaskId>{t0, t2}));
  EXPECT_EQ(std::vector<TaskId>(graph.consumers(d1).begin(),
                                graph.consumers(d1).end()),
            (std::vector<TaskId>{t0, t1}));
  EXPECT_EQ(std::vector<TaskId>(graph.consumers(d2).begin(),
                                graph.consumers(d2).end()),
            (std::vector<TaskId>{t1}));
}

TEST(TaskGraphBuilder, CsrIsMutuallyConsistent) {
  TaskGraphBuilder builder;
  std::vector<DataId> data;
  for (int i = 0; i < 7; ++i) data.push_back(builder.add_data(5));
  builder.add_task(1.0, {data[0], data[3]});
  builder.add_task(1.0, {data[3], data[6]});
  builder.add_task(1.0, {data[1], data[2], data[5]});
  builder.add_task(1.0, {data[0]});
  const TaskGraph graph = builder.build();

  // Every (task, data) edge must appear in both directions, and edge counts
  // must match.
  std::size_t forward_edges = 0;
  for (TaskId task = 0; task < graph.num_tasks(); ++task) {
    for (DataId input : graph.inputs(task)) {
      const auto consumers = graph.consumers(input);
      EXPECT_NE(std::find(consumers.begin(), consumers.end(), task),
                consumers.end());
      ++forward_edges;
    }
  }
  std::size_t reverse_edges = 0;
  for (DataId item = 0; item < graph.num_data(); ++item) {
    reverse_edges += graph.consumers(item).size();
  }
  EXPECT_EQ(forward_edges, reverse_edges);
}

TEST(TaskGraph, SizesFlopsAndAggregates) {
  TaskGraphBuilder builder;
  const DataId d0 = builder.add_data(100);
  const DataId d1 = builder.add_data(250);
  builder.add_task(1.5, {d0});
  builder.add_task(2.5, {d0, d1});
  const TaskGraph graph = builder.build();

  EXPECT_EQ(graph.data_size(d0), 100u);
  EXPECT_EQ(graph.data_size(d1), 250u);
  EXPECT_DOUBLE_EQ(graph.task_flops(0), 1.5);
  EXPECT_DOUBLE_EQ(graph.total_flops(), 4.0);
  EXPECT_EQ(graph.working_set_bytes(), 350u);
  EXPECT_EQ(graph.input_bytes(1), 350u);
  EXPECT_EQ(graph.max_task_footprint(), 350u);
}

TEST(TaskGraph, LabelsAreOptional) {
  TaskGraphBuilder builder;
  const DataId d0 = builder.add_data(1, "alpha");
  builder.add_task(1.0, {d0}, "t-alpha");
  const TaskGraph labeled = builder.build();
  EXPECT_EQ(labeled.data_label(d0), "alpha");
  EXPECT_EQ(labeled.task_label(0), "t-alpha");

  builder.clear();
  const DataId d = builder.add_data(1);
  builder.add_task(1.0, {d});
  const TaskGraph unlabeled = builder.build();
  EXPECT_EQ(unlabeled.task_label(0), "");
  EXPECT_EQ(unlabeled.data_label(0), "");
}

// Labels, outputs and warps are kept from the first item that has one; the
// items before it read "" or 0, through either build().
TEST(TaskGraphBuilder, OptionalArraysStartAtTheFirstValue) {
  TaskGraphBuilder builder;
  builder.reserve(6, 12);
  const DataId d0 = builder.add_data(1);
  const DataId d1 = builder.add_data(1, "beta");
  const DataId d2 = builder.add_data(1);
  constexpr TaskId kFirstLabelled = 3;
  for (TaskId task = 0; task < 6; ++task) {
    const TaskId id = builder.add_task(
        1.0, {d0, d2},
        task == kFirstLabelled ? "t3" : (task == 5 ? "t5" : ""));
    builder.set_task_output(id, task == 4 ? 8 : 0);
    builder.set_task_warps(id, task == 2 ? 32 : 0);
  }
  const TaskGraph copied = builder.build();
  const TaskGraph consumed = std::move(builder).build();
  for (const TaskGraph* graph : {&copied, &consumed}) {
    for (TaskId task = 0; task < kFirstLabelled; ++task) {
      EXPECT_EQ(graph->task_label(task), "");
    }
    EXPECT_EQ(graph->task_label(3), "t3");
    EXPECT_EQ(graph->task_label(4), "");
    EXPECT_EQ(graph->task_label(5), "t5");
    EXPECT_EQ(graph->data_label(d0), "");
    EXPECT_EQ(graph->data_label(d1), "beta");
    EXPECT_EQ(graph->data_label(d2), "");
    ASSERT_TRUE(graph->has_outputs());
    ASSERT_TRUE(graph->has_warps());
    for (TaskId task = 0; task < 6; ++task) {
      EXPECT_EQ(graph->task_output_bytes(task), task == 4 ? 8u : 0u);
      EXPECT_EQ(graph->task_warps(task), task == 2 ? 32u : 0u);
    }
  }

  // The consumed builder starts over empty, and a value set back to 0
  // stores nothing.
  builder.add_task(1.0, {builder.add_data(1)});
  builder.set_task_output(0, 8);
  builder.set_task_output(0, 0);
  builder.set_task_warps(0, 32);
  builder.set_task_warps(0, 0);
  const TaskGraph zeroed = std::move(builder).build();
  ASSERT_EQ(zeroed.num_tasks(), 1u);
  EXPECT_EQ(zeroed.inputs(0).size(), 1u);
  EXPECT_EQ(zeroed.consumers(0).size(), 1u);
  EXPECT_FALSE(zeroed.has_outputs());
  EXPECT_FALSE(zeroed.has_warps());
}

TEST(TaskGraphBuilder, ClearResetsState) {
  TaskGraphBuilder builder;
  builder.add_task(1.0, {builder.add_data(4)});
  builder.clear();
  EXPECT_EQ(builder.num_tasks(), 0u);
  EXPECT_EQ(builder.num_data(), 0u);
  const DataId d = builder.add_data(8);
  builder.add_task(2.0, {d});
  const TaskGraph graph = builder.build();
  EXPECT_EQ(graph.num_tasks(), 1u);
  EXPECT_EQ(graph.working_set_bytes(), 8u);
}

using TaskGraphDeathTest = TaskGraphBuilder;

TEST(TaskGraphDeathTest, RejectsDuplicateInputs) {
  TaskGraphBuilder builder;
  const DataId d = builder.add_data(4);
  EXPECT_DEATH(builder.add_task(1.0, {d, d}), "duplicate input");
}

TEST(TaskGraphDeathTest, RejectsUnknownData) {
  TaskGraphBuilder builder;
  (void)builder.add_data(4);
  EXPECT_DEATH(builder.add_task(1.0, {DataId{5}}), "not registered");
}

}  // namespace
}  // namespace mg::core
