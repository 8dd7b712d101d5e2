#include "util/flags.hpp"

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <stdexcept>

#include "util/check.hpp"

namespace mg::util {

namespace {

/// Splits `text` at commas into numbers, skipping empty entries; throws
/// std::invalid_argument when an entry is not a number through and through.
std::vector<double> split_numbers(const std::string& text) {
  std::vector<double> values;
  for (std::size_t start = 0; start <= text.size();) {
    std::size_t comma = text.find(',', start);
    if (comma == std::string::npos) comma = text.size();
    const std::string token = text.substr(start, comma - start);
    if (!token.empty()) {
      std::size_t parsed = 0;
      values.push_back(std::stod(token, &parsed));
      if (parsed != token.size()) throw std::invalid_argument("trailing");
    }
    start = comma + 1;
  }
  return values;
}

/// The range as text: "at least 0", "above 0 and below 1".
std::string range_text(const ListRange& range) {
  char text[64];
  std::snprintf(text, sizeof text, "%s %g",
                range.min_exclusive ? "above" : "at least", range.min);
  std::string out = text;
  if (std::isfinite(range.below)) {
    std::snprintf(text, sizeof text, " and below %g", range.below);
    out += text;
  }
  return out;
}

bool in_range(double value, const ListRange& range) {
  return std::isfinite(value) &&
         (!range.integral || value == std::floor(value)) &&
         (range.min_exclusive ? value > range.min : value >= range.min) &&
         value < range.below;
}

/// Why `values` do not fit a list flag, or "" when they do.
std::string list_problem(const std::vector<double>& values,
                         const ListRange& range, bool optional) {
  if (values.empty() && !optional) return "at least one entry";
  for (const double value : values) {
    if (in_range(value, range)) continue;
    return std::string(range.integral ? "whole" : "finite") +
           " numbers, each " + range_text(range);
  }
  return "";
}

}  // namespace

Flags::Flags(std::string program_description)
    : description_(std::move(program_description)) {}

Flags::Entry& Flags::add(const std::string& name, Kind kind,
                         const std::string& help) {
  Entry entry;
  entry.kind = kind;
  entry.help = help;
  const auto [it, inserted] = entries_.emplace(name, std::move(entry));
  MG_CHECK_MSG(inserted, "duplicate flag definition");
  return it->second;
}

Flags& Flags::define_int(const std::string& name, std::int64_t default_value,
                         const std::string& help, std::int64_t min_value) {
  Entry& entry = add(name, Kind::kInt, help);
  entry.int_value = default_value;
  entry.int_min = min_value;
  return *this;
}

Flags& Flags::define_double(const std::string& name, double default_value,
                            const std::string& help, ListRange range) {
  Entry& entry = add(name, Kind::kDouble, help);
  entry.double_value = default_value;
  entry.range = range;
  MG_CHECK_MSG(in_range(default_value, range),
               "double flag default out of its range");
  return *this;
}

Flags& Flags::define_bool(const std::string& name, bool default_value,
                          const std::string& help) {
  add(name, Kind::kBool, help).bool_value = default_value;
  return *this;
}

Flags& Flags::define_string(const std::string& name,
                            const std::string& default_value,
                            const std::string& help) {
  add(name, Kind::kString, help).string_value = default_value;
  return *this;
}

Flags& Flags::define_list(const std::string& name,
                          const std::string& default_value,
                          const std::string& help, ListRange range) {
  Entry& entry = add(name, Kind::kList, help);
  entry.string_value = default_value;
  entry.list_value = split_numbers(default_value);
  entry.range = range;
  entry.list_optional = default_value.empty();
  MG_CHECK_MSG(list_problem(entry.list_value, range, true).empty(),
               "list flag default out of its range");
  return *this;
}

bool Flags::parse(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg == "--help" || arg == "-h") {
      print_usage(argv[0]);
      return false;
    }
    if (arg.rfind("--", 0) != 0) {
      positional_.push_back(std::move(arg));
      continue;
    }
    std::string body = arg.substr(2);
    std::string name;
    std::string value;
    bool has_value = false;
    if (auto eq = body.find('='); eq != std::string::npos) {
      name = body.substr(0, eq);
      value = body.substr(eq + 1);
      has_value = true;
    } else {
      name = body;
    }

    auto it = entries_.find(name);
    // `--no-foo` negates boolean flag `foo`.
    if (it == entries_.end() && name.rfind("no-", 0) == 0) {
      auto neg = entries_.find(name.substr(3));
      if (neg != entries_.end() && neg->second.kind == Kind::kBool) {
        neg->second.bool_value = false;
        continue;
      }
    }
    if (it == entries_.end()) {
      std::fprintf(stderr, "unknown flag: --%s (see --help)\n", name.c_str());
      exit_status_ = 2;
      return false;
    }

    if (!has_value) {
      if (it->second.kind == Kind::kBool) {
        it->second.bool_value = true;
        continue;
      }
      if (i + 1 >= argc) {
        std::fprintf(stderr, "flag --%s expects a value\n", name.c_str());
        exit_status_ = 2;
        return false;
      }
      value = argv[++i];
    }
    if (!assign(name, value)) {
      exit_status_ = 2;
      return false;
    }
  }
  return true;
}

bool Flags::assign(const std::string& name, const std::string& value) {
  Entry& entry = entries_.at(name);
  // A number must span the whole value: `--n=12abc` is an error, not 12.
  std::size_t parsed = 0;
  try {
    switch (entry.kind) {
      case Kind::kInt: {
        const std::int64_t number = std::stoll(value, &parsed);
        if (parsed != value.size()) throw std::invalid_argument("trailing");
        // Every int flag is a count, a size or a seed.
        if (number < entry.int_min) {
          std::fprintf(stderr, "bad value for --%s: '%s' (at least %lld)\n",
                       name.c_str(), value.c_str(),
                       static_cast<long long>(entry.int_min));
          return false;
        }
        entry.int_value = number;
        break;
      }
      case Kind::kDouble: {
        const double number = std::stod(value, &parsed);
        if (parsed != value.size()) throw std::invalid_argument("trailing");
        if (!in_range(number, entry.range)) {
          std::fprintf(stderr,
                       "bad value for --%s: '%s' (a finite number %s)\n",
                       name.c_str(), value.c_str(),
                       range_text(entry.range).c_str());
          return false;
        }
        entry.double_value = number;
        break;
      }
      case Kind::kBool:
        if (value == "true" || value == "1") {
          entry.bool_value = true;
        } else if (value == "false" || value == "0") {
          entry.bool_value = false;
        } else {
          throw std::invalid_argument("not a bool");
        }
        break;
      case Kind::kString:
        entry.string_value = value;
        break;
      case Kind::kList: {
        std::vector<double> values = split_numbers(value);
        const std::string problem =
            list_problem(values, entry.range, entry.list_optional);
        if (!problem.empty()) {
          std::fprintf(stderr, "bad value for --%s: '%s' (%s)\n",
                       name.c_str(), value.c_str(), problem.c_str());
          return false;
        }
        entry.list_value = std::move(values);
        entry.string_value = value;
        break;
      }
    }
  } catch (const std::exception&) {
    std::fprintf(stderr, "bad value for --%s: '%s'\n", name.c_str(),
                 value.c_str());
    return false;
  }
  return true;
}

void Flags::print_usage(const char* argv0) const {
  std::printf("%s\n", description_.c_str());
  std::printf("usage: %s [flags]\n", argv0);
  for (const auto& [name, entry] : entries_) {
    const char* type = "";
    std::string def;
    switch (entry.kind) {
      case Kind::kInt:
        type = "int";
        def = std::to_string(entry.int_value);
        break;
      case Kind::kDouble:
        type = "double";
        def = std::to_string(entry.double_value);
        break;
      case Kind::kBool:
        type = "bool";
        def = entry.bool_value ? "true" : "false";
        break;
      case Kind::kString:
        type = "string";
        def = entry.string_value;
        break;
      case Kind::kList:
        type = "list";
        def = entry.string_value;
        break;
    }
    std::printf("  --%-24s %-7s (default: %s)\n      %s\n", name.c_str(), type,
                def.c_str(), entry.help.c_str());
  }
}

Flags::Entry& Flags::require(const std::string& name, Kind kind) {
  auto it = entries_.find(name);
  MG_CHECK_MSG(it != entries_.end(), "flag not defined");
  MG_CHECK_MSG(it->second.kind == kind, "flag accessed with wrong type");
  return it->second;
}

const Flags::Entry& Flags::require(const std::string& name, Kind kind) const {
  auto it = entries_.find(name);
  MG_CHECK_MSG(it != entries_.end(), "flag not defined");
  MG_CHECK_MSG(it->second.kind == kind, "flag accessed with wrong type");
  return it->second;
}

std::int64_t Flags::get_int(const std::string& name) const {
  return require(name, Kind::kInt).int_value;
}

double Flags::get_double(const std::string& name) const {
  return require(name, Kind::kDouble).double_value;
}

bool Flags::get_bool(const std::string& name) const {
  return require(name, Kind::kBool).bool_value;
}

const std::string& Flags::get_string(const std::string& name) const {
  return require(name, Kind::kString).string_value;
}

const std::vector<double>& Flags::get_list(const std::string& name) const {
  return require(name, Kind::kList).list_value;
}

}  // namespace mg::util
