#include "sim/event_queue.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <functional>
#include <numeric>
#include <tuple>
#include <vector>

#include "util/rng.hpp"

namespace mg::sim {
namespace {

TEST(EventQueue, RunsEventsInTimeOrder) {
  EventQueue queue;
  std::vector<int> order;
  queue.schedule_at(3.0, [&order] { order.push_back(3); });
  queue.schedule_at(1.0, [&order] { order.push_back(1); });
  queue.schedule_at(2.0, [&order] { order.push_back(2); });
  queue.run_until_empty();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_DOUBLE_EQ(queue.now(), 3.0);
}

TEST(EventQueue, TiesBreakByInsertionOrder) {
  EventQueue queue;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    queue.schedule_at(5.0, [&order, i] { order.push_back(i); });
  }
  queue.run_until_empty();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[static_cast<size_t>(i)], i);
}

TEST(EventQueue, ScheduleAfterIsRelativeToNow) {
  EventQueue queue;
  double second_time = -1.0;
  queue.schedule_at(10.0, [&queue, &second_time] {
    queue.schedule_after(5.0, [&queue, &second_time] {
      second_time = queue.now();
    });
  });
  queue.run_until_empty();
  EXPECT_DOUBLE_EQ(second_time, 15.0);
}

TEST(EventQueue, EventsScheduledDuringRunAreExecuted) {
  EventQueue queue;
  int depth = 0;
  std::function<void()> recurse = [&] {
    if (++depth < 100) queue.schedule_after(1.0, recurse);
  };
  queue.schedule_at(0.0, recurse);
  queue.run_until_empty();
  EXPECT_EQ(depth, 100);
  EXPECT_DOUBLE_EQ(queue.now(), 99.0);
}

TEST(EventQueue, RunOneReportsEmptiness) {
  EventQueue queue;
  EXPECT_FALSE(queue.run_one());
  queue.schedule_at(1.0, [] {});
  EXPECT_TRUE(queue.run_one());
  EXPECT_FALSE(queue.run_one());
  EXPECT_EQ(queue.events_processed(), 1u);
}

TEST(EventQueue, ClockNeverGoesBackwards) {
  EventQueue queue;
  double last = 0.0;
  bool monotone = true;
  for (int i = 100; i > 0; --i) {
    queue.schedule_at(static_cast<double>(i), [&queue, &last, &monotone] {
      if (queue.now() < last) monotone = false;
      last = queue.now();
    });
  }
  queue.run_until_empty();
  EXPECT_TRUE(monotone);
}

TEST(EventQueue, ReservedSequenceRunsBeforeLaterSameTimeEvents) {
  EventQueue queue;
  std::vector<int> order;
  const std::uint64_t first = queue.reserve_sequences(2);
  // Scheduled after the reservation, at the time of both reserved events.
  queue.schedule_at(5.0, [&order] { order.push_back(3); });
  queue.schedule_reserved(2.0, first, [&] {
    order.push_back(1);
    // Queued now, but under the number taken before event 3 was scheduled.
    queue.schedule_reserved(5.0, first + 1, [&order] { order.push_back(2); });
  });
  queue.run_until_empty();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(queue.events_processed(), 3u);
}

// Seeded runs of thousands of schedule_at / schedule_after calls on a grid
// of few distinct times (so most events tie on time), a share of them made
// from inside callbacks, plus chains of reserved numbers where each link
// queues the next. Every key is (time, sequence) as numbered by the calls
// themselves; the queue must pop them in exactly sorted key order.
TEST(EventQueue, PopOrderMatchesSortedTimeSequenceReference) {
  struct Key {
    double time;
    std::uint64_t sequence;
  };
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    util::Rng rng(seed);
    EventQueue queue;
    std::vector<Key> keys;  // indexed by event id
    std::vector<std::size_t> popped;
    std::uint64_t next_sequence = 0;
    std::size_t budget = 4000;  // schedule calls made from callbacks

    std::function<void()> schedule_random;
    auto on_pop = [&](std::size_t id) {
      EXPECT_EQ(queue.now(), keys[id].time) << "seed " << seed;
      popped.push_back(id);
      // Half the events schedule one or two more while they run.
      for (std::uint64_t n = rng.below(4); n > 1 && budget > 0; --n) {
        --budget;
        schedule_random();
      }
    };
    schedule_random = [&] {
      const std::size_t id = keys.size();
      const double delay = 0.5 * static_cast<double>(rng.below(4));
      keys.push_back({queue.now() + delay, next_sequence++});
      if (rng.chance(0.5)) {
        queue.schedule_after(delay, [&on_pop, id] { on_pop(id); });
      } else {
        queue.schedule_at(keys[id].time, [&on_pop, id] { on_pop(id); });
      }
    };

    // Reserved chains: numbers taken up front, each link queued by the
    // previous one at a non-decreasing time on the same grid.
    constexpr std::uint64_t kChains = 3;
    constexpr std::uint64_t kLinks = 40;
    std::vector<std::uint64_t> chain_first(kChains);
    std::vector<std::vector<double>> chain_times(kChains);
    std::function<void(std::uint64_t, std::uint64_t)> queue_link =
        [&](std::uint64_t chain, std::uint64_t link) {
          const std::size_t id = keys.size();
          keys.push_back({chain_times[chain][link], chain_first[chain] + link});
          queue.schedule_reserved(keys[id].time, keys[id].sequence, [&, chain,
                                                                    link, id] {
            if (link + 1 < kLinks) queue_link(chain, link + 1);
            on_pop(id);
          });
        };

    for (std::uint64_t i = 0; i < 1000; ++i) schedule_random();
    for (std::uint64_t chain = 0; chain < kChains; ++chain) {
      chain_first[chain] = queue.reserve_sequences(kLinks);
      ASSERT_EQ(chain_first[chain], next_sequence);
      next_sequence += kLinks;
      double time = 0.0;
      for (std::uint64_t link = 0; link < kLinks; ++link) {
        time += 0.5 * static_cast<double>(rng.below(3));
        chain_times[chain].push_back(time);
      }
      for (std::uint64_t i = 0; i < 200; ++i) schedule_random();
    }
    for (std::uint64_t chain = 0; chain < kChains; ++chain) {
      queue_link(chain, 0);
    }
    queue.run_until_empty();

    std::vector<std::size_t> expected(keys.size());
    std::iota(expected.begin(), expected.end(), std::size_t{0});
    std::sort(expected.begin(), expected.end(),
              [&keys](std::size_t a, std::size_t b) {
                return std::tie(keys[a].time, keys[a].sequence) <
                       std::tie(keys[b].time, keys[b].sequence);
              });
    EXPECT_GT(keys.size(), 3000u);
    EXPECT_EQ(queue.events_processed(), keys.size());
    EXPECT_EQ(popped, expected) << "seed " << seed;
  }
}

}  // namespace
}  // namespace mg::sim
