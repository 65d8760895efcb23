// Minimal command-line option parsing shared by the bench/example binaries.
//
// Supports `--flag`, `--key value` and `--key=value` forms; anything else is
// rejected so typos surface instead of silently running a default experiment.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <string_view>

namespace pcmsim {

class CliArgs {
 public:
  /// Parses argv; throws std::invalid_argument on malformed input.
  CliArgs(int argc, const char* const* argv);

  [[nodiscard]] bool has(const std::string& key) const;
  [[nodiscard]] std::string get(const std::string& key, const std::string& dflt) const;
  /// Numeric getters parse the whole value token (`16x`, `2e4` or an empty
  /// value is an error, not a prefix parse) and throw std::invalid_argument,
  /// or std::out_of_range past the type's range, with a message naming the
  /// flag.
  [[nodiscard]] std::int64_t get_int(const std::string& key, std::int64_t dflt) const;
  /// For counts, sizes, seeds and checksums: also rejects a negative value
  /// instead of letting it wrap.
  [[nodiscard]] std::uint64_t get_uint(const std::string& key, std::uint64_t dflt) const;
  [[nodiscard]] double get_double(const std::string& key, double dflt) const;
  [[nodiscard]] bool get_bool(const std::string& key, bool dflt = false) const;

  /// Name of the binary (argv[0]).
  [[nodiscard]] const std::string& program() const { return program_; }

 private:
  std::string program_;
  std::map<std::string, std::string> kv_;
};

/// Parses `text` in full as a non-negative integer; `flag` names the option
/// in the error (same rules and exceptions as CliArgs::get_uint). For list
/// options whose items are counts.
[[nodiscard]] std::uint64_t parse_uint(std::string_view text, std::string_view flag);

/// Runs a binary's `body` on its parsed arguments and returns its exit code.
/// Malformed input (a bad flag, number, policy name or ECC spec) surfaces as
/// ContractViolation, std::invalid_argument or std::out_of_range; those
/// print `<program>: <message>` on stderr and return 2 instead of aborting.
int cli_main(int argc, const char* const* argv,
             const std::function<int(const CliArgs&)>& body);

}  // namespace pcmsim
