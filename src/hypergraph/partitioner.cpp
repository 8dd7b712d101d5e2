#include "hypergraph/partitioner.hpp"

#include <algorithm>
#include <array>
#include <cstdint>
#include <deque>
#include <limits>
#include <numeric>
#include <queue>
#include <utility>
#include <vector>

#include "util/check.hpp"
#include "util/rng.hpp"

namespace mg::hyper {
namespace {

constexpr std::uint32_t kUnmatched = std::numeric_limits<std::uint32_t>::max();

// ---------------------------------------------------------------------------
// Bisection state: side[v] in {0,1}, pin counts per net, side weights.
// ---------------------------------------------------------------------------

struct Bisection {
  std::vector<std::uint8_t> side;
  std::vector<std::array<std::uint32_t, 2>> pins_in;
  std::array<std::uint64_t, 2> weight{0, 0};
  std::uint64_t cut = 0;

  void init(const Hypergraph& hypergraph, std::vector<std::uint8_t> sides) {
    side = std::move(sides);
    pins_in.assign(hypergraph.num_nets(), {0, 0});
    weight = {0, 0};
    cut = 0;
    for (VertexId v = 0; v < hypergraph.num_vertices(); ++v) {
      weight[side[v]] += hypergraph.vertex_weight(v);
    }
    for (NetId e = 0; e < hypergraph.num_nets(); ++e) {
      for (VertexId v : hypergraph.pins(e)) ++pins_in[e][side[v]];
      if (pins_in[e][0] > 0 && pins_in[e][1] > 0) {
        cut += hypergraph.net_weight(e);
      }
    }
  }

  [[nodiscard]] std::int64_t gain(const Hypergraph& hypergraph,
                                  VertexId v) const {
    std::int64_t g = 0;
    const std::uint8_t from = side[v];
    for (NetId e : hypergraph.nets_of(v)) {
      const auto w = static_cast<std::int64_t>(hypergraph.net_weight(e));
      if (pins_in[e][from] == 1) g += w;           // becomes uncut
      if (pins_in[e][1 - from] == 0) g -= w;       // becomes cut
    }
    return g;
  }

  void move(const Hypergraph& hypergraph, VertexId v) {
    const std::uint8_t from = side[v];
    const std::uint8_t to = static_cast<std::uint8_t>(1 - from);
    for (NetId e : hypergraph.nets_of(v)) {
      const std::uint64_t w = hypergraph.net_weight(e);
      const bool was_cut = pins_in[e][0] > 0 && pins_in[e][1] > 0;
      --pins_in[e][from];
      ++pins_in[e][to];
      const bool is_cut = pins_in[e][0] > 0 && pins_in[e][1] > 0;
      if (was_cut && !is_cut) cut -= w;
      if (!was_cut && is_cut) cut += w;
    }
    weight[from] -= hypergraph.vertex_weight(v);
    weight[to] += hypergraph.vertex_weight(v);
    side[v] = to;
  }
};

struct BalanceBounds {
  std::array<std::uint64_t, 2> max_weight;

  [[nodiscard]] std::uint64_t overweight(
      const std::array<std::uint64_t, 2>& weight) const {
    std::uint64_t over = 0;
    for (std::size_t s = 0; s < 2; ++s) {
      if (weight[s] > max_weight[s]) over += weight[s] - max_weight[s];
    }
    return over;
  }
};

// ---------------------------------------------------------------------------
// FM refinement with rollback to the best feasible prefix. Returns true if
// the pass improved (cut or balance).
// ---------------------------------------------------------------------------

// Fiduccia–Mattheyses delta rules for moving v: before the move, a net's
// other pins change gain only when its to-side count is 0 or 1 or its
// from-side count is 1 or 2. v's own gain becomes its negation, so `gain`
// stays exact for every vertex, locked ones included.
void update_gains_for_move(const Hypergraph& hypergraph,
                           const Bisection& bisection, VertexId v,
                           std::vector<std::int64_t>& gain) {
  const std::uint8_t from = bisection.side[v];
  const std::uint8_t to = static_cast<std::uint8_t>(1 - from);
  for (NetId e : hypergraph.nets_of(v)) {
    const std::uint32_t from_count = bisection.pins_in[e][from];
    const std::uint32_t to_count = bisection.pins_in[e][to];
    const auto w = static_cast<std::int64_t>(hypergraph.net_weight(e));
    // From-side pins: leaving no longer cuts a net the move cuts (to side
    // empty), and the last pin left behind can uncut it (from side of 2).
    // To-side pins: the one pin there no longer uncuts it by leaving (to
    // side of 1), and leaving a net now wholly on the to side cuts it.
    const std::int64_t from_delta =
        (to_count == 0 ? w : 0) + (from_count == 2 ? w : 0);
    const std::int64_t to_delta =
        -((to_count == 1 ? w : 0) + (from_count == 1 ? w : 0));
    if (from_delta == 0 && to_delta == 0) continue;
    for (VertexId u : hypergraph.pins(e)) {
      if (u != v) gain[u] += bisection.side[u] == from ? from_delta : to_delta;
    }
  }
  gain[v] = -gain[v];
}

bool fm_pass(const Hypergraph& hypergraph, Bisection& bisection,
             const BalanceBounds& bounds) {
  const std::uint32_t n = hypergraph.num_vertices();

  struct HeapEntry {
    std::int64_t gain;
    VertexId vertex;
    bool operator<(const HeapEntry& other) const {
      if (gain != other.gain) return gain < other.gain;
      return vertex > other.vertex;  // deterministic tie-break
    }
  };
  std::priority_queue<HeapEntry> heap;
  std::vector<std::uint8_t> locked(n, 0);
  std::vector<std::int64_t> gain(n);

  // queued[v] is the gain of v's latest heap entry while that entry is still
  // queued. A push with the same key is skipped: the twin would pop right
  // after its sibling and either find v locked or take the same branch.
  constexpr std::int64_t kNotQueued = std::numeric_limits<std::int64_t>::min();
  std::vector<std::int64_t> queued(n, kNotQueued);
  auto push = [&](VertexId v) {
    if (queued[v] == gain[v]) return;
    queued[v] = gain[v];
    heap.push({gain[v], v});
  };

  // Seed the heap with boundary vertices (vertices on at least one cut net);
  // if the partition is unbalanced also seed everything on the heavy side.
  const bool fix_balance = bounds.overweight(bisection.weight) > 0;
  for (VertexId v = 0; v < n; ++v) {
    // Bisection::gain and the boundary test in one walk of v's nets.
    const std::uint8_t from = bisection.side[v];
    std::int64_t g = 0;
    bool boundary = false;
    for (NetId e : hypergraph.nets_of(v)) {
      const auto w = static_cast<std::int64_t>(hypergraph.net_weight(e));
      const auto& counts = bisection.pins_in[e];
      if (counts[from] == 1) g += w;
      if (counts[1 - from] == 0) g -= w;
      if (counts[0] > 0 && counts[1] > 0) boundary = true;
    }
    gain[v] = g;
    const bool heavy_side =
        fix_balance &&
        bisection.weight[bisection.side[v]] >
            bounds.max_weight[bisection.side[v]];
    if (boundary || heavy_side) push(v);
  }

  const std::uint64_t start_cut = bisection.cut;
  const std::uint64_t start_over = bounds.overweight(bisection.weight);

  std::vector<VertexId> moves;
  std::int64_t cum_gain = 0;
  std::int64_t best_gain = 0;
  std::size_t best_prefix = 0;
  std::uint64_t best_over = start_over;
  bool best_found = false;

  const std::size_t move_limit = n;
  std::size_t since_best = 0;
  const std::size_t patience = std::max<std::size_t>(64, n / 10);

  while (!heap.empty() && moves.size() < move_limit && since_best < patience) {
    const HeapEntry top = heap.top();
    heap.pop();
    const VertexId v = top.vertex;
    if (queued[v] == top.gain) queued[v] = kNotQueued;
    if (locked[v]) continue;
    MG_DCHECK(gain[v] == bisection.gain(hypergraph, v));
    const std::int64_t current_gain = gain[v];
    if (current_gain != top.gain) {  // stale entry: reinsert with fresh gain
      push(v);
      continue;
    }
    // Balance feasibility of the move (allow when it reduces overweight).
    const std::uint8_t to = static_cast<std::uint8_t>(1 - bisection.side[v]);
    const std::uint64_t to_weight =
        bisection.weight[to] + hypergraph.vertex_weight(v);
    const std::uint64_t over_now = bounds.overweight(bisection.weight);
    auto weight_after = bisection.weight;
    weight_after[bisection.side[v]] -= hypergraph.vertex_weight(v);
    weight_after[to] = to_weight;
    const std::uint64_t over_after = bounds.overweight(weight_after);
    if (over_after > over_now) continue;  // would worsen balance: skip

    update_gains_for_move(hypergraph, bisection, v, gain);
    bisection.move(hypergraph, v);
    locked[v] = 1;
    moves.push_back(v);
    cum_gain += current_gain;

    const std::uint64_t over = bounds.overweight(bisection.weight);
    const bool better =
        (over < best_over) || (over == best_over &&
                               (!best_found || cum_gain > best_gain));
    if (better) {
      best_found = true;
      best_gain = cum_gain;
      best_prefix = moves.size();
      best_over = over;
      since_best = 0;
    } else {
      ++since_best;
    }

    // Refresh neighbours whose gain changed.
    for (NetId e : hypergraph.nets_of(v)) {
      // Only nets near the boundary matter; skip internal ones.
      if (bisection.pins_in[e][0] != 0 && bisection.pins_in[e][1] != 0 &&
          bisection.pins_in[e][0] + bisection.pins_in[e][1] > 1) {
        for (VertexId u : hypergraph.pins(e)) {
          if (!locked[u]) push(u);
        }
      }
    }
  }
#ifndef NDEBUG
  // Audited before the rollback, which does not maintain the cache.
  for (VertexId v = 0; v < n; ++v) {
    MG_DCHECK(gain[v] == bisection.gain(hypergraph, v));
  }
#endif

  // Roll back to the best prefix.
  while (moves.size() > best_prefix) {
    bisection.move(hypergraph, moves.back());
    moves.pop_back();
  }

  const std::uint64_t end_over = bounds.overweight(bisection.weight);
  return bisection.cut < start_cut || end_over < start_over;
}

void refine(const Hypergraph& hypergraph, Bisection& bisection,
            const BalanceBounds& bounds, std::uint32_t max_passes) {
  for (std::uint32_t pass = 0; pass < max_passes; ++pass) {
    if (!fm_pass(hypergraph, bisection, bounds)) break;
  }
}

// ---------------------------------------------------------------------------
// Initial bisection: randomized BFS growth of part 0 up to its target
// weight, then FM.
// ---------------------------------------------------------------------------

std::vector<std::uint8_t> grow_initial(const Hypergraph& hypergraph,
                                       std::uint64_t target0,
                                       util::Rng& rng) {
  const std::uint32_t n = hypergraph.num_vertices();
  std::vector<std::uint8_t> side(n, 1);
  std::vector<std::uint8_t> visited(n, 0);
  std::vector<std::uint8_t> walked(hypergraph.num_nets(), 0);
  std::uint64_t weight0 = 0;

  std::deque<VertexId> frontier;
  auto seed_new_component = [&]() {
    // Pick a random unvisited vertex.
    for (std::uint32_t attempts = 0; attempts < 8; ++attempts) {
      const VertexId v = static_cast<VertexId>(rng.below(n));
      if (!visited[v]) {
        frontier.push_back(v);
        visited[v] = 1;
        return true;
      }
    }
    for (VertexId v = 0; v < n; ++v) {
      if (!visited[v]) {
        frontier.push_back(v);
        visited[v] = 1;
        return true;
      }
    }
    return false;
  };

  while (weight0 < target0) {
    if (frontier.empty() && !seed_new_component()) break;
    const VertexId v = frontier.front();
    frontier.pop_front();
    side[v] = 0;
    weight0 += hypergraph.vertex_weight(v);
    for (NetId e : hypergraph.nets_of(v)) {
      // The first walk of a net marks every pin visited; later ones add
      // nothing.
      if (walked[e] != 0) continue;
      walked[e] = 1;
      for (VertexId u : hypergraph.pins(e)) {
        if (!visited[u]) {
          visited[u] = 1;
          frontier.push_back(u);
        }
      }
    }
  }
  return side;
}

// ---------------------------------------------------------------------------
// Coarsening by heavy-connectivity matching.
// ---------------------------------------------------------------------------

struct CoarseLevel {
  Hypergraph hypergraph;
  std::vector<std::uint32_t> fine_to_coarse;
};

CoarseLevel coarsen(const Hypergraph& fine, util::Rng& rng) {
  const std::uint32_t n = fine.num_vertices();
  std::vector<std::uint32_t> match(n, kUnmatched);

  std::vector<VertexId> order(n);
  std::iota(order.begin(), order.end(), 0);
  rng.shuffle(order);

  // Scratch connection scores with a touched list for O(deg) reset.
  std::vector<double> score(n, 0.0);
  std::vector<VertexId> touched;

  // Very large nets contribute negligible per-pair affinity and dominate the
  // matching cost; skip them during matching (hMETIS does the same).
  constexpr std::size_t kMaxNetForMatching = 512;

  // Net e's pins still unmatched at its last walk, in pin order, are
  // live[live_begin[e], live_begin[e] + live_size[e]). A walk drops the pins
  // matched since: every walk skips matched pins, so dropping them keeps the
  // order in which the others are scored.
  std::vector<std::uint32_t> live_begin(fine.num_nets());
  std::vector<std::uint32_t> live_size(fine.num_nets());
  std::vector<VertexId> live;
  live.reserve(fine.num_pins());
  for (NetId e = 0; e < fine.num_nets(); ++e) {
    const auto pins = fine.pins(e);
    live_begin[e] = static_cast<std::uint32_t>(live.size());
    live_size[e] = static_cast<std::uint32_t>(pins.size());
    live.insert(live.end(), pins.begin(), pins.end());
  }

  for (VertexId u : order) {
    if (match[u] != kUnmatched) continue;
    touched.clear();
    for (NetId e : fine.nets_of(u)) {
      const std::size_t size = fine.pins(e).size();
      if (size < 2 || size > kMaxNetForMatching) continue;
      const double contribution = static_cast<double>(fine.net_weight(e)) /
                                  static_cast<double>(size - 1);
      VertexId* const first = live.data() + live_begin[e];
      VertexId* kept = first;
      for (const VertexId* it = first; it != first + live_size[e]; ++it) {
        const VertexId v = *it;
        if (match[v] != kUnmatched) continue;
        *kept++ = v;
        if (v == u) continue;
        if (score[v] == 0.0) touched.push_back(v);
        score[v] += contribution;
      }
      live_size[e] = static_cast<std::uint32_t>(kept - first);
#ifndef NDEBUG
      // The live list is exactly the net's unmatched pins, in pin order.
      const VertexId* expected = first;
      for (VertexId v : fine.pins(e)) {
        if (match[v] != kUnmatched) continue;
        MG_DCHECK(expected != kept && *expected == v);
        ++expected;
      }
      MG_DCHECK(expected == kept);
#endif
    }
    VertexId best = kUnmatched;
    double best_score = 0.0;
    for (VertexId v : touched) {
      if (score[v] > best_score) {
        best_score = score[v];
        best = v;
      }
      score[v] = 0.0;
    }
    if (best != kUnmatched) {
      match[u] = best;
      match[best] = u;
    }
  }

  // Assign coarse ids (matched pairs share one id).
  std::vector<std::uint32_t> fine_to_coarse(n, kUnmatched);
  std::uint32_t coarse_n = 0;
  for (VertexId v = 0; v < n; ++v) {
    if (fine_to_coarse[v] != kUnmatched) continue;
    fine_to_coarse[v] = coarse_n;
    if (match[v] != kUnmatched) fine_to_coarse[match[v]] = coarse_n;
    ++coarse_n;
  }

  std::vector<std::uint64_t> coarse_weights(coarse_n, 0);
  for (VertexId v = 0; v < n; ++v) {
    coarse_weights[fine_to_coarse[v]] += fine.vertex_weight(v);
  }

  // Coarse nets: project pins, dedupe (stamp[c] is the last net that took
  // coarse vertex c), sort, drop single-pin nets.
  std::vector<std::vector<VertexId>> coarse_pins;
  std::vector<std::uint64_t> coarse_net_weights;
  std::vector<VertexId> scratch;
  std::vector<NetId> stamp(coarse_n, kUnmatched);
  for (NetId e = 0; e < fine.num_nets(); ++e) {
    scratch.clear();
    for (VertexId v : fine.pins(e)) {
      const std::uint32_t c = fine_to_coarse[v];
      if (stamp[c] == e) continue;
      stamp[c] = e;
      scratch.push_back(c);
    }
    if (scratch.size() < 2) continue;
    std::sort(scratch.begin(), scratch.end());
    coarse_pins.push_back(scratch);
    coarse_net_weights.push_back(fine.net_weight(e));
  }

  return CoarseLevel{Hypergraph(std::move(coarse_weights), coarse_pins,
                                std::move(coarse_net_weights)),
                     std::move(fine_to_coarse)};
}

// ---------------------------------------------------------------------------
// One multilevel bisection run.
// ---------------------------------------------------------------------------

std::vector<std::uint8_t> multilevel_bisect(const Hypergraph& hypergraph,
                                            double fraction0,
                                            const PartitionerConfig& config,
                                            util::Rng& rng) {
  // Build the coarsening hierarchy.
  std::vector<CoarseLevel> levels;
  const Hypergraph* current = &hypergraph;
  while (current->num_vertices() > config.coarsen_limit) {
    CoarseLevel level = coarsen(*current, rng);
    if (level.hypergraph.num_vertices() >
        static_cast<std::uint32_t>(0.95 * current->num_vertices())) {
      break;  // coarsening stalled
    }
    levels.push_back(std::move(level));
    current = &levels.back().hypergraph;
  }

  const Hypergraph& coarsest = *current;
  const std::uint64_t total = coarsest.total_vertex_weight();
  const auto target0 =
      static_cast<std::uint64_t>(fraction0 * static_cast<double>(total));
  BalanceBounds bounds;
  bounds.max_weight[0] = static_cast<std::uint64_t>(
      static_cast<double>(target0) * (1.0 + config.imbalance));
  bounds.max_weight[1] = static_cast<std::uint64_t>(
      static_cast<double>(total - target0) * (1.0 + config.imbalance));

  // Initial partition: restarts of greedy growth + refinement, keep best.
  Bisection best;
  bool have_best = false;
  for (std::uint32_t run = 0; run < std::max(1u, config.num_restarts); ++run) {
    Bisection bisection;
    bisection.init(coarsest, grow_initial(coarsest, target0, rng));
    refine(coarsest, bisection, bounds, config.fm_max_passes);
    const std::uint64_t over = bounds.overweight(bisection.weight);
    const std::uint64_t best_over =
        have_best ? bounds.overweight(best.weight) : 0;
    if (!have_best || std::make_pair(over, bisection.cut) <
                          std::make_pair(best_over, best.cut)) {
      best = std::move(bisection);
      have_best = true;
    }
  }

  // Uncoarsen with refinement at each level.
  std::vector<std::uint8_t> side = std::move(best.side);
  for (auto it = levels.rbegin(); it != levels.rend(); ++it) {
    const Hypergraph& fine_graph =
        (it + 1) == levels.rend() ? hypergraph : (it + 1)->hypergraph;
    std::vector<std::uint8_t> fine_side(fine_graph.num_vertices());
    for (VertexId v = 0; v < fine_graph.num_vertices(); ++v) {
      fine_side[v] = side[it->fine_to_coarse[v]];
    }
    Bisection bisection;
    bisection.init(fine_graph, std::move(fine_side));
    refine(fine_graph, bisection, bounds, config.fm_max_passes);
    side = std::move(bisection.side);
  }

  // No coarsening happened: refine the flat graph directly.
  if (levels.empty()) {
    Bisection bisection;
    bisection.init(hypergraph, std::move(side));
    refine(hypergraph, bisection, bounds, config.fm_max_passes);
    side = std::move(bisection.side);
  }
  return side;
}

std::uint64_t bisection_cost(const Hypergraph& hypergraph,
                             const std::vector<std::uint8_t>& side) {
  std::uint64_t cut = 0;
  for (NetId e = 0; e < hypergraph.num_nets(); ++e) {
    bool in0 = false;
    bool in1 = false;
    for (VertexId v : hypergraph.pins(e)) {
      (side[v] == 0 ? in0 : in1) = true;
      if (in0 && in1) break;
    }
    if (in0 && in1) cut += hypergraph.net_weight(e);
  }
  return cut;
}

// ---------------------------------------------------------------------------
// Recursive bisection to K parts.
// ---------------------------------------------------------------------------

struct SubProblem {
  Hypergraph hypergraph;
  std::vector<VertexId> global_ids;
};

SubProblem extract(const Hypergraph& hypergraph,
                   const std::vector<VertexId>& global_ids,
                   const std::vector<std::uint8_t>& side, std::uint8_t keep) {
  std::vector<std::uint32_t> remap(hypergraph.num_vertices(), kUnmatched);
  std::vector<std::uint64_t> weights;
  std::vector<VertexId> sub_globals;
  for (VertexId v = 0; v < hypergraph.num_vertices(); ++v) {
    if (side[v] != keep) continue;
    remap[v] = static_cast<std::uint32_t>(weights.size());
    weights.push_back(hypergraph.vertex_weight(v));
    sub_globals.push_back(global_ids[v]);
  }
  std::vector<std::vector<VertexId>> net_pins;
  std::vector<std::uint64_t> net_weights;
  std::vector<VertexId> scratch;
  for (NetId e = 0; e < hypergraph.num_nets(); ++e) {
    scratch.clear();
    for (VertexId v : hypergraph.pins(e)) {
      if (remap[v] != kUnmatched) scratch.push_back(remap[v]);
    }
    if (scratch.size() < 2) continue;
    net_pins.push_back(scratch);
    net_weights.push_back(hypergraph.net_weight(e));
  }
  return SubProblem{Hypergraph(std::move(weights), net_pins,
                               std::move(net_weights)),
                    std::move(sub_globals)};
}

void recursive_bisect(SubProblem problem, std::uint32_t num_parts,
                      std::uint32_t first_part,
                      const PartitionerConfig& config, util::Rng& rng,
                      std::vector<std::uint32_t>& out) {
  if (num_parts == 1) {
    for (VertexId global : problem.global_ids) out[global] = first_part;
    return;
  }
  const std::uint32_t parts0 = (num_parts + 1) / 2;
  const std::uint32_t parts1 = num_parts - parts0;
  // Proportional target: uniform by part count, or by the configured
  // shares of the parts this recursion level is responsible for.
  double fraction0 = static_cast<double>(parts0) / num_parts;
  if (!config.target_share.empty()) {
    double share0 = 0.0;
    double total = 0.0;
    for (std::uint32_t p = 0; p < num_parts; ++p) {
      const double share = config.target_share[first_part + p];
      total += share;
      if (p < parts0) share0 += share;
    }
    if (total > 0.0) fraction0 = share0 / total;
  }

  // Several independent multilevel runs; keep the best (V-cycles).
  std::vector<std::uint8_t> best_side;
  std::uint64_t best_cut = 0;
  for (std::uint32_t cycle = 0; cycle < std::max(1u, config.cycles); ++cycle) {
    std::vector<std::uint8_t> side =
        multilevel_bisect(problem.hypergraph, fraction0, config, rng);
    const std::uint64_t cut = bisection_cost(problem.hypergraph, side);
    if (best_side.empty() || cut < best_cut) {
      best_cut = cut;
      best_side = std::move(side);
    }
  }

  SubProblem sub0 = extract(problem.hypergraph, problem.global_ids, best_side,
                            /*keep=*/0);
  SubProblem sub1 = extract(problem.hypergraph, problem.global_ids, best_side,
                            /*keep=*/1);
  // Release the parent before recursing to bound peak memory.
  problem = SubProblem{};
  recursive_bisect(std::move(sub0), parts0, first_part, config, rng, out);
  recursive_bisect(std::move(sub1), parts1, first_part + parts0, config, rng,
                   out);
}

}  // namespace

void kway_refine(const Hypergraph& hypergraph,
                 std::vector<std::uint32_t>& part, std::uint32_t num_parts,
                 double imbalance, std::uint32_t max_passes,
                 std::span<const double> target_share) {
  const std::uint32_t n = hypergraph.num_vertices();
  if (n == 0 || num_parts < 2) return;
  MG_CHECK(target_share.empty() || target_share.size() == num_parts);

  // pins_in[e * num_parts + p] = pins of net e in part p.
  std::vector<std::uint32_t> pins_in(
      static_cast<std::size_t>(hypergraph.num_nets()) * num_parts, 0);
  std::vector<std::uint64_t> weights(num_parts, 0);
  for (VertexId v = 0; v < n; ++v) {
    weights[part[v]] += hypergraph.vertex_weight(v);
    for (NetId e : hypergraph.nets_of(v)) {
      ++pins_in[static_cast<std::size_t>(e) * num_parts + part[v]];
    }
  }
  const double total_weight =
      static_cast<double>(hypergraph.total_vertex_weight());
  double share_sum = 0.0;
  for (double share : target_share) share_sum += share;
  std::vector<std::uint64_t> max_weights(num_parts);
  for (std::uint32_t p = 0; p < num_parts; ++p) {
    const double share = target_share.empty() || share_sum <= 0.0
                             ? 1.0 / num_parts
                             : target_share[p] / share_sum;
    max_weights[p] = static_cast<std::uint64_t>(total_weight * share *
                                                (1.0 + imbalance));
  }

  for (std::uint32_t pass = 0; pass < max_passes; ++pass) {
    bool improved = false;
    for (VertexId v = 0; v < n; ++v) {
      const std::uint32_t from = part[v];
      // Candidate target parts: parts adjacent to v through its nets.
      // Primary objective: connectivity-1 gain. Secondary (for zero-gain
      // plateaus, e.g. a large net split evenly): consolidation — move
      // toward the part already holding more of v's co-pins, which walks
      // evenly-cut nets toward being uncut.
      std::int64_t best_gain = 0;
      std::int64_t best_score = 0;
      std::uint32_t best_part = from;
      for (std::uint32_t to = 0; to < num_parts; ++to) {
        if (to == from) continue;
        if (weights[to] + hypergraph.vertex_weight(v) > max_weights[to]) continue;
        std::int64_t gain = 0;
        std::int64_t score = 0;
        bool adjacent = false;
        for (NetId e : hypergraph.nets_of(v)) {
          const auto* counts = &pins_in[static_cast<std::size_t>(e) * num_parts];
          const auto w = static_cast<std::int64_t>(hypergraph.net_weight(e));
          // Connectivity-1 delta: leaving `from` removes it from lambda(e)
          // when v was its last pin there; entering `to` adds it when `to`
          // had none.
          if (counts[from] == 1) gain += w;
          if (counts[to] == 0) gain -= w;
          if (counts[to] != 0) adjacent = true;
          score += w * (static_cast<std::int64_t>(counts[to]) -
                        (static_cast<std::int64_t>(counts[from]) - 1));
        }
        if (!adjacent) continue;  // sharing nothing can never help
        if (gain > best_gain ||
            (gain == best_gain && score > best_score)) {
          best_gain = gain;
          best_score = score;
          best_part = to;
        }
      }
      if (best_part == from || (best_gain == 0 && best_score <= 0)) continue;
      // Apply the move.
      for (NetId e : hypergraph.nets_of(v)) {
        auto* counts = &pins_in[static_cast<std::size_t>(e) * num_parts];
        --counts[from];
        ++counts[best_part];
      }
      weights[from] -= hypergraph.vertex_weight(v);
      weights[best_part] += hypergraph.vertex_weight(v);
      part[v] = best_part;
      improved = true;
    }
    if (!improved) break;
  }
}

std::vector<std::uint32_t> partition_hypergraph(
    const Hypergraph& hypergraph, const PartitionerConfig& config) {
  MG_CHECK(config.num_parts >= 1);
  MG_CHECK_MSG(config.target_share.empty() ||
                   config.target_share.size() == config.num_parts,
               "one target share per part required");
  std::vector<std::uint32_t> part(hypergraph.num_vertices(), 0);
  if (config.num_parts == 1 || hypergraph.num_vertices() == 0) return part;

  util::Rng rng(config.seed);
  std::vector<VertexId> global_ids(hypergraph.num_vertices());
  std::iota(global_ids.begin(), global_ids.end(), 0);

  // Copy the root hypergraph into the sub-problem (recursion owns its data).
  std::vector<std::uint64_t> weights(hypergraph.num_vertices());
  for (VertexId v = 0; v < hypergraph.num_vertices(); ++v) {
    weights[v] = hypergraph.vertex_weight(v);
  }
  std::vector<std::vector<VertexId>> net_pins(hypergraph.num_nets());
  std::vector<std::uint64_t> net_weights(hypergraph.num_nets());
  for (NetId e = 0; e < hypergraph.num_nets(); ++e) {
    const auto pins = hypergraph.pins(e);
    net_pins[e].assign(pins.begin(), pins.end());
    net_weights[e] = hypergraph.net_weight(e);
  }
  SubProblem root{Hypergraph(std::move(weights), net_pins,
                             std::move(net_weights)),
                  std::move(global_ids)};
  recursive_bisect(std::move(root), config.num_parts, 0, config, rng, part);
  kway_refine(hypergraph, part, config.num_parts, config.imbalance,
              config.kway_refine_passes, config.target_share);
  return part;
}

}  // namespace mg::hyper
