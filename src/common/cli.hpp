// Minimal command-line option parsing shared by the bench/example binaries.
//
// Supports `--flag`, `--key value` and `--key=value` forms; anything else is
// rejected so typos surface instead of silently running a default experiment.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <string>

namespace pcmsim {

class CliArgs {
 public:
  /// Parses argv; throws std::invalid_argument on malformed input.
  CliArgs(int argc, const char* const* argv);

  [[nodiscard]] bool has(const std::string& key) const;
  [[nodiscard]] std::string get(const std::string& key, const std::string& dflt) const;
  [[nodiscard]] std::int64_t get_int(const std::string& key, std::int64_t dflt) const;
  [[nodiscard]] double get_double(const std::string& key, double dflt) const;
  [[nodiscard]] bool get_bool(const std::string& key, bool dflt = false) const;

  /// Name of the binary (argv[0]).
  [[nodiscard]] const std::string& program() const { return program_; }

 private:
  std::string program_;
  std::map<std::string, std::string> kv_;
};

/// Runs a binary's `body` on its parsed arguments and returns its exit code.
/// Malformed input (a bad flag, number, policy name or ECC spec) surfaces as
/// ContractViolation, std::invalid_argument or std::out_of_range; those
/// print `<program>: <message>` on stderr and return 2 instead of aborting.
int cli_main(int argc, const char* const* argv,
             const std::function<int(const CliArgs&)>& body);

}  // namespace pcmsim
