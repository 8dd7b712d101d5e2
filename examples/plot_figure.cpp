// plot_figure — renders a figure-harness CSV as SVG line charts (one per
// metric), reproducing the paper's figure style without any external
// plotting stack:
//
//   ./build/bench/fig03_2d_1gpu_perf --out fig03.csv
//   ./build/examples/plot_figure fig03.csv --metric=gflops --out=fig03.svg
//
// Reference lines (GFlop/s max, fits-in-memory thresholds, PCI limit) are
// taken from the CSV's comment header automatically.
#include <cstdio>
#include <string>
#include <vector>

#include "util/flags.hpp"
#include "viz/figure_csv.hpp"
#include "viz/svg_chart.hpp"

int main(int argc, char** argv) {
  using namespace mg;
  util::Flags flags(
      "plot_figure: render a bench/fig* CSV as an SVG line chart");
  flags.define_string("metric", "gflops",
                      "column to plot (gflops, transfers_mb, loads, ...)")
      .define_string("out", "", "output SVG path (default: <csv>.<metric>.svg)")
      .define_string("title", "", "chart title (default: derived)")
      .define_bool("log-y", false, "logarithmic y axis");
  if (!flags.parse(argc, argv)) return flags.exit_status();

  if (flags.positional().empty()) {
    std::fprintf(stderr, "usage: plot_figure <figure.csv> [flags]\n");
    return 1;
  }
  const std::string csv_path = flags.positional()[0];
  const std::string metric = flags.get_string("metric");

  const viz::FigureData data = viz::parse_figure_csv(csv_path);
  if (data.empty()) {
    std::fprintf(stderr, "no data parsed from %s\n", csv_path.c_str());
    return 1;
  }

  std::vector<viz::Series> series;
  for (const auto& [scheduler, rows] : data.by_scheduler) {
    viz::Series s;
    s.label = scheduler;
    for (const auto& row : rows) {
      const auto it = row.values.find(metric);
      if (it != row.values.end()) {
        s.points.emplace_back(row.working_set_mb, it->second);
      }
    }
    if (!s.points.empty()) series.push_back(std::move(s));
  }
  if (series.empty()) {
    std::fprintf(stderr, "metric '%s' not present in %s\n", metric.c_str(),
                 csv_path.c_str());
    return 1;
  }

  std::vector<viz::ReferenceLine> references;
  if (metric == "gflops" && data.gflops_max > 0.0) {
    references.push_back({"GFlop/s max", data.gflops_max, true});
  }
  if (data.threshold_both_fit_mb > 0.0) {
    references.push_back(
        {"A and B fit", data.threshold_both_fit_mb, false});
  }
  if (data.threshold_one_fits_mb > 0.0) {
    references.push_back({"B fits", data.threshold_one_fits_mb, false});
  }
  if (metric == "transfers_mb" && !data.pci_limit.empty()) {
    viz::Series pci;
    pci.label = "PCI bus limit";
    pci.points = data.pci_limit;
    series.push_back(std::move(pci));
  }

  viz::ChartConfig config;
  config.title = flags.get_string("title").empty()
                     ? csv_path + " — " + metric
                     : flags.get_string("title");
  config.x_label = "Working set (MB)";
  config.y_label = metric == "gflops" ? "GFlop/s" : metric;
  config.logarithmic_y = flags.get_bool("log-y");

  std::string out = flags.get_string("out");
  if (out.empty()) out = csv_path + "." + metric + ".svg";
  if (!viz::write_line_chart(config, series, references, out)) {
    std::fprintf(stderr, "cannot write %s\n", out.c_str());
    return 1;
  }
  std::printf("wrote %s (%zu series)\n", out.c_str(), series.size());
  return 0;
}
