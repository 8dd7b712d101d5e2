#include "analysis/trace_export.hpp"

#include <algorithm>
#include <cstdio>
#include <map>

namespace mg::analysis {

namespace {

/// Escapes a label for inclusion in a JSON string literal.
std::string json_escape(const std::string& text) {
  std::string out;
  out.reserve(text.size());
  for (char c : text) {
    if (c == '"' || c == '\\') out.push_back('\\');
    out.push_back(c);
  }
  return out;
}

}  // namespace

std::string chrome_trace_json(const core::TaskGraph& graph,
                              const core::Platform& platform,
                              const sim::Trace& trace) {
  std::string json = "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n";
  bool first = true;
  auto emit = [&](const std::string& line) {
    if (!first) json += ",\n";
    first = false;
    json += line;
  };

  // Row names.
  for (core::GpuId gpu = 0; gpu < platform.num_gpus; ++gpu) {
    char line[160];
    std::snprintf(line, sizeof line,
                  "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":0,"
                  "\"tid\":%u,\"args\":{\"name\":\"GPU %u\"}}",
                  gpu, gpu);
    emit(line);
  }

  // Task slices need start+end pairing; track the open start per GPU.
  std::vector<double> open_start(platform.num_gpus, 0.0);
  for (const sim::TraceEvent& event : trace.events) {
    char line[320];
    switch (event.kind) {
      case sim::TraceKind::kTaskStart:
        open_start[event.gpu] = event.time_us;
        break;
      case sim::TraceKind::kTaskEnd: {
        const std::string& label = graph.task_label(event.id);
        std::snprintf(line, sizeof line,
                      "{\"name\":\"%s\",\"ph\":\"X\",\"pid\":0,\"tid\":%u,"
                      "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"task\":%u}}",
                      label.empty() ? ("task " + std::to_string(event.id)).c_str()
                                    : json_escape(label).c_str(),
                      event.gpu, open_start[event.gpu],
                      event.time_us - open_start[event.gpu], event.id);
        emit(line);
        break;
      }
      case sim::TraceKind::kLoad:
      case sim::TraceKind::kPeerLoad:
      case sim::TraceKind::kEvict: {
        const char* kind = event.kind == sim::TraceKind::kEvict
                               ? "evict"
                               : (event.kind == sim::TraceKind::kPeerLoad
                                      ? "peer-load"
                                      : "load");
        std::snprintf(line, sizeof line,
                      "{\"name\":\"%s d%u\",\"ph\":\"i\",\"pid\":0,"
                      "\"tid\":%u,\"ts\":%.3f,\"s\":\"t\"}",
                      kind, event.id, event.gpu, event.time_us);
        emit(line);
        break;
      }
      case sim::TraceKind::kWriteBack: {
        std::snprintf(line, sizeof line,
                      "{\"name\":\"writeback t%u\",\"ph\":\"i\",\"pid\":0,"
                      "\"tid\":%u,\"ts\":%.3f,\"s\":\"t\"}",
                      event.id, event.gpu, event.time_us);
        emit(line);
        break;
      }
    }
  }
  json += "\n]}\n";
  return json;
}

bool write_chrome_trace(const std::string& json, const std::string& path) {
  std::FILE* file = std::fopen(path.c_str(), "w");
  if (file == nullptr) return false;
  std::fputs(json.c_str(), file);
  const bool ok = std::fflush(file) == 0;
  std::fclose(file);
  return ok;
}

bool export_chrome_trace(const core::TaskGraph& graph,
                         const core::Platform& platform,
                         const sim::Trace& trace, const std::string& path) {
  return write_chrome_trace(chrome_trace_json(graph, platform, trace), path);
}

ReuseStats compute_reuse_stats(const core::TaskGraph& graph,
                               const core::Platform& platform,
                               const sim::Trace& trace) {
  (void)platform;
  ReuseStats stats;
  // loads per (gpu, data); also per data across gpus for most_reloaded.
  std::map<std::pair<core::GpuId, core::DataId>, std::uint64_t> per_pair;
  std::vector<std::uint64_t> per_data(graph.num_data(), 0);

  for (const sim::TraceEvent& event : trace.events) {
    if (event.kind != sim::TraceKind::kLoad &&
        event.kind != sim::TraceKind::kPeerLoad) {
      continue;
    }
    ++stats.total_loads;
    ++per_pair[{event.gpu, event.id}];
    ++per_data[event.id];
  }

  for (const auto& [key, count] : per_pair) {
    (void)key;
    if (count > stats.histogram.size()) stats.histogram.resize(count, 0);
    ++stats.histogram[count - 1];
    stats.reloads += count - 1;
  }
  for (core::DataId data = 0; data < graph.num_data(); ++data) {
    if (per_data[data] == 0) continue;
    ++stats.distinct_data;
    if (per_data[data] > stats.max_loads_one_data) {
      stats.max_loads_one_data = per_data[data];
      stats.most_reloaded = data;
    }
  }
  stats.mean_loads_per_used_data =
      stats.distinct_data > 0
          ? static_cast<double>(stats.total_loads) /
                static_cast<double>(stats.distinct_data)
          : 0.0;
  return stats;
}

}  // namespace mg::analysis
