// Minimal command-line flag parser for the bench and example binaries.
//
//   CliParser cli("bench_ablation", "Design-choice ablations");
//   const auto& runs = cli.add_int("runs", 'r', "Monte-Carlo repetitions", 200);
//   const auto& seed = cli.add_int("seed", 's', "base RNG seed", 21);
//   if (!cli.parse(argc, argv)) return cli.help_requested() ? 0 : 2;
//   run(runs, seed);
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

namespace nfv {

/// Declarative flag parser; supports --name value, --name=value, -n value,
/// boolean switches, and generates --help text.  Registered value slots have
/// stable addresses for the parser's lifetime.
class CliParser {
 public:
  CliParser(std::string program, std::string description);
  ~CliParser();
  CliParser(const CliParser&) = delete;
  CliParser& operator=(const CliParser&) = delete;

  /// Registers an integer flag; the returned reference is filled by parse().
  const std::int64_t& add_int(std::string name, char short_name,
                              std::string help, std::int64_t default_value);
  /// Registers a floating-point flag.
  const double& add_double(std::string name, char short_name,
                           std::string help, double default_value);
  /// Registers a string flag.
  const std::string& add_string(std::string name, char short_name,
                                std::string help, std::string default_value);
  /// Registers a boolean switch (no value; presence sets it true).
  const bool& add_flag(std::string name, char short_name, std::string help);

  /// Parses argv.  On --help prints usage to stdout and returns false; on
  /// malformed input prints a diagnostic to stderr and returns false.
  [[nodiscard]] bool parse(int argc, const char* const* argv);

  /// True iff the last parse() returned false because of --help / -h —
  /// lets callers exit 0 for help but nonzero for a usage error.
  [[nodiscard]] bool help_requested() const { return help_requested_; }

  /// Usage text (also printed on --help).
  [[nodiscard]] std::string usage() const;

 private:
  enum class Kind { kInt, kDouble, kString, kBool };

  struct Flag {
    std::string name;
    char short_name;
    std::string help;
    Kind kind;
    std::int64_t int_value = 0;
    double double_value = 0.0;
    std::string string_value;
    bool bool_value = false;
  };

  Flag* find(std::string_view name);
  Flag* find_short(char short_name);
  Flag& add(std::string name, char short_name, std::string help, Kind kind);
  [[nodiscard]] bool apply_value(Flag& flag, std::string_view value);

  std::string program_;
  std::string description_;
  std::vector<std::unique_ptr<Flag>> flags_;
  bool help_requested_ = false;
};

}  // namespace nfv
