#include "common/cli.hpp"

#include <charconv>
#include <iostream>
#include <stdexcept>
#include <system_error>

#include "common/assert.hpp"

namespace pcmsim {

namespace {

bool looks_like_key(const std::string& s) { return s.rfind("--", 0) == 0 && s.size() > 2; }

/// Full-token std::from_chars into T; `what` describes the expected value.
template <typename T>
T parse_number(std::string_view text, std::string_view flag, std::string_view what) {
  T value{};
  const char* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, value);
  const std::string where = "--" + std::string(flag) + ": ";
  if (ec == std::errc::result_out_of_range) {
    throw std::out_of_range(where + "'" + std::string(text) + "' is out of range");
  }
  if (ec != std::errc{} || ptr != end) {
    throw std::invalid_argument(where + "expected " + std::string(what) + ", got '" +
                                std::string(text) + "'");
  }
  return value;
}

}  // namespace

CliArgs::CliArgs(int argc, const char* const* argv) {
  program_ = argc > 0 ? argv[0] : "";
  for (int i = 1; i < argc; ++i) {
    std::string tok = argv[i];
    if (!looks_like_key(tok)) {
      throw std::invalid_argument("unexpected argument: " + tok);
    }
    tok = tok.substr(2);
    const auto eq = tok.find('=');
    if (eq != std::string::npos) {
      kv_[tok.substr(0, eq)] = tok.substr(eq + 1);
      continue;
    }
    // `--key value` when the next token is not itself a key; else a bare flag.
    if (i + 1 < argc && !looks_like_key(argv[i + 1])) {
      kv_[tok] = argv[++i];
    } else {
      kv_[tok] = "";
    }
  }
}

bool CliArgs::has(const std::string& key) const { return kv_.count(key) > 0; }

std::string CliArgs::get(const std::string& key, const std::string& dflt) const {
  const auto it = kv_.find(key);
  return it == kv_.end() ? dflt : it->second;
}

std::int64_t CliArgs::get_int(const std::string& key, std::int64_t dflt) const {
  const auto it = kv_.find(key);
  return it == kv_.end() ? dflt : parse_number<std::int64_t>(it->second, key, "an integer");
}

std::uint64_t CliArgs::get_uint(const std::string& key, std::uint64_t dflt) const {
  const auto it = kv_.find(key);
  return it == kv_.end() ? dflt : parse_uint(it->second, key);
}

double CliArgs::get_double(const std::string& key, double dflt) const {
  const auto it = kv_.find(key);
  return it == kv_.end() ? dflt : parse_number<double>(it->second, key, "a number");
}

std::uint64_t parse_uint(std::string_view text, std::string_view flag) {
  // from_chars into an unsigned type already refuses a leading '-', so a
  // negative count is reported instead of wrapping to ~2^64.
  return parse_number<std::uint64_t>(text, flag, "a non-negative integer");
}

int cli_main(int argc, const char* const* argv,
             const std::function<int(const CliArgs&)>& body) {
  const std::string program = argc > 0 ? argv[0] : "pcmsim";
  const auto fail = [&program](const std::exception& e) {
    std::cerr << program << ": " << e.what() << "\n";
    return 2;
  };
  try {
    return body(CliArgs(argc, argv));
  } catch (const ContractViolation& e) {
    return fail(e);
  } catch (const std::invalid_argument& e) {
    return fail(e);
  } catch (const std::out_of_range& e) {
    return fail(e);
  }
}

bool CliArgs::get_bool(const std::string& key, bool dflt) const {
  const auto it = kv_.find(key);
  if (it == kv_.end()) return dflt;
  return it->second.empty() || it->second == "1" || it->second == "true";
}

}  // namespace pcmsim
