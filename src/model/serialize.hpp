// Plain-text serialization of problem instances (chain + platform), so
// experiments are shareable and the command-line tool can pipe them.
//
// Format (line oriented, '#' comments allowed):
//   prts-instance v1
//   tasks <n>
//   <work> <out_size>          # n lines
//   platform <p> <bandwidth> <link_failure_rate> <max_replication>
//   <speed> <failure_rate>     # p lines
//
// Task lines may alternatively be written as 'task <id> <work>
// <out_size>' with arbitrary distinct integer ids; the chain order is
// the ascending id order, so stage labels carry no meaning beyond their
// relative order (all-labeled or all-plain, never mixed). The service
// layer's canonicalization (src/service/canonical.hpp) relies on this:
// relabeling stages produces a different text but the same instance.
#pragma once

#include <charconv>
#include <cstddef>
#include <iosfwd>
#include <optional>
#include <string>
#include <string_view>

#include "model/platform.hpp"
#include "model/task_chain.hpp"

namespace prts {

/// A problem instance: the application and the platform.
struct Instance {
  TaskChain chain;
  Platform platform;
};

/// Writes the instance in the v1 text format.
void write_instance(std::ostream& out, const Instance& instance);

/// Serializes to a string (convenience over write_instance).
std::string instance_to_text(const Instance& instance);

/// Shortest decimal string that round-trips the double exactly
/// ("1", "0.25", "1e-08", "inf"); -0 is normalized to 0, and every NaN
/// is "nan" or "-nan" by its sign. Unlike stream output this is locale-
/// and precision-independent, so two values produce the same bytes iff
/// they are the same double after those two folds — the property that
/// lets the service key a request by its values' bits
/// (service/canonical.hpp) and still part requests as their texts do.
std::string canonical_number(double value);

/// Room for any canonical_number rendering (the longest, e.g.
/// "-2.2250738585072014e-308", has 24 characters).
inline constexpr std::size_t kCanonicalNumberChars = 32;

/// canonical_number without allocating: renders into `buffer` and
/// returns the rendered bytes, which live as long as `buffer`.
std::string_view canonical_number_chars(
    double value, char (&buffer)[kCanonicalNumberChars]) noexcept;

/// A decimal number as people write it: whatever from_chars reads
/// ("0.50", "1E-5", "-0"), "inf" and "-inf". False on trailing garbage
/// or malformed input; `value` is untouched on failure. For text typed
/// by hand (load traces, SLO rules); a codec reads with
/// parse_canonical_number.
bool parse_number(std::string_view text, double& value);

/// The exact inverse of canonical_number: accepts `text` only if it is
/// canonical_number of the value it reads, so bytes no encoder writes
/// ("0.50", "1e-5", "-0") are refused. `value` is untouched on failure.
bool parse_canonical_number(std::string_view text, double& value);

/// Appends canonical_number(value) to `out`, with no temporary string.
inline void append_canonical_number(std::string& out, double value) {
  char buffer[kCanonicalNumberChars];
  out += canonical_number_chars(value, buffer);
}

/// Appends an integer's decimal digits (std::to_chars: no padding, no
/// '+', the form every count in these text formats takes) to `out`.
template <typename Integer>
void append_integer(std::string& out, Integer value) {
  char buffer[24];  // the longest 64-bit value has 20 digits and a sign
  const char* const end =
      std::to_chars(buffer, buffer + sizeof(buffer), value).ptr;
  out.append(buffer, static_cast<std::size_t>(end - buffer));
}

/// The exact inverse of append_integer: the whole of `text` as an
/// integer, accepted only if append_integer spells the value so (no
/// leading zeros, no "-0", no sign on an unsigned type). `value` is
/// untouched on failure.
template <typename Integer>
bool parse_canonical_integer(std::string_view text, Integer& value) {
  Integer parsed{};
  const char* const last = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), last, parsed);
  if (ec != std::errc{} || ptr != last) return false;
  char buffer[24];
  const char* const end =
      std::to_chars(buffer, buffer + sizeof(buffer), parsed).ptr;
  if (std::string_view(buffer, static_cast<std::size_t>(end - buffer)) !=
      text) {
    return false;
  }
  value = parsed;
  return true;
}

/// Appends the byte-level canonical form of an instance to `out`: the
/// v1 text format with canonical_number formatting and no information
/// loss (read_instance parses it back bit-exactly). Processor *order*
/// is preserved; isomorphism-safe normalization is layered on top by
/// src/service/canonical.hpp. This is the one definition of those
/// bytes: the wire's solve requests and write_instance_canonical both
/// take them from here.
void append_instance_canonical(std::string& out, const Instance& instance);

/// Writes append_instance_canonical's bytes to `out`.
void write_instance_canonical(std::ostream& out, const Instance& instance);

/// Result of parsing: either an instance or a human-readable error.
struct ParseResult {
  std::optional<Instance> instance;
  std::string error;

  explicit operator bool() const noexcept { return instance.has_value(); }
};

/// Parses the v1 text format; never throws — malformed input yields an
/// error message naming the offending line.
ParseResult read_instance(std::istream& in);

/// Parses from a string (convenience over read_instance).
ParseResult instance_from_text(const std::string& text);

}  // namespace prts
