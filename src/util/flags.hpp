// Minimal command-line flag parser for the bench/example binaries.
//
// Supports `--name=value`, `--name value`, and boolean `--name` /
// `--no-name`. Unknown flags are an error (to catch typos in experiment
// scripts), as are bad and missing values: the binary exits 2 on any of
// them, 0 after `--help`. Int flags are counts, sizes and seeds, so a
// value below the flag's minimum (0 unless defined otherwise) is a bad
// value. Double flags take one number and list flags comma-separated
// numbers (`--rates=25,50,100`), each in a declared range that refuses
// negative values unless defined otherwise. Positional arguments are
// collected in order.
#pragma once

#include <cstdint>
#include <limits>
#include <map>
#include <string>
#include <vector>

namespace mg::util {

/// Range of a double flag's value and of every entry of a list flag.
struct ListRange {
  double min = 0.0;
  bool min_exclusive = false;  ///< entries must exceed `min`
  bool integral = false;       ///< entries must be whole numbers
  /// Entries must stay below this (a fraction below 1).
  double below = std::numeric_limits<double>::infinity();
};

class Flags {
 public:
  Flags(std::string program_description = "");

  // Registration. `help` is printed by --help. Returns *this for chaining.
  // An int flag rejects values below `min_value`: 1 for a count that must
  // not be zero.
  Flags& define_int(const std::string& name, std::int64_t default_value,
                    const std::string& help, std::int64_t min_value = 0);
  /// A number in `range`: at least 0 unless defined otherwise.
  Flags& define_double(const std::string& name, double default_value,
                       const std::string& help, ListRange range = {});
  Flags& define_bool(const std::string& name, bool default_value,
                     const std::string& help);
  Flags& define_string(const std::string& name,
                       const std::string& default_value,
                       const std::string& help);
  /// A comma-separated list of numbers in `range`. Empty entries are
  /// skipped; an empty list is a bad value unless the default is empty.
  Flags& define_list(const std::string& name, const std::string& default_value,
                     const std::string& help, ListRange range = {});

  /// Parses argv. On `--help`, prints usage and returns false; on an unknown
  /// flag or a bad or missing value, prints the problem and returns false.
  /// Either way the caller should return exit_status() from main.
  [[nodiscard]] bool parse(int argc, char** argv);

  /// Why parse() returned false: 0 after `--help`, 2 after a flag error.
  [[nodiscard]] int exit_status() const { return exit_status_; }

  /// True if a flag named `name` is defined.
  [[nodiscard]] bool has(const std::string& name) const {
    return entries_.count(name) > 0;
  }

  [[nodiscard]] std::int64_t get_int(const std::string& name) const;
  [[nodiscard]] double get_double(const std::string& name) const;
  [[nodiscard]] bool get_bool(const std::string& name) const;
  [[nodiscard]] const std::string& get_string(const std::string& name) const;
  [[nodiscard]] const std::vector<double>& get_list(
      const std::string& name) const;
  [[nodiscard]] const std::vector<std::string>& positional() const {
    return positional_;
  }

  void print_usage(const char* argv0) const;

 private:
  enum class Kind { kInt, kDouble, kBool, kString, kList };

  struct Entry {
    Kind kind = Kind::kInt;
    std::string help;
    std::int64_t int_value = 0;
    std::int64_t int_min = 0;
    double double_value = 0.0;
    bool bool_value = false;
    std::string string_value;  ///< also a list flag's text
    std::vector<double> list_value;
    ListRange range;  ///< of a double or of each list entry
    bool list_optional = false;  ///< an empty default: may stay empty
  };

  Entry& add(const std::string& name, Kind kind, const std::string& help);
  Entry& require(const std::string& name, Kind kind);
  const Entry& require(const std::string& name, Kind kind) const;
  [[nodiscard]] bool assign(const std::string& name, const std::string& value);

  std::string description_;
  std::map<std::string, Entry> entries_;
  std::vector<std::string> positional_;
  int exit_status_ = 0;
};

}  // namespace mg::util
