// Small string helpers and a fixed-width text table used by the benchmark
// harness to print paper-style result tables.
#pragma once

#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "support/intmath.h"

namespace pf {

/// Strict decimal i64 parse: optional sign, digits, full consumption,
/// range-checked. Returns nullopt on empty/garbage/trailing text/overflow.
/// Used for POLYFUSE_JOBS and --inject ordinals.
std::optional<i64> parse_i64(const std::string& text);

/// Concatenate string pieces (literals, std::string, string_view) into
/// one string, sized once. Use it instead of `"lit" + std::string&&`:
/// with that operator, GCC 12's Release build inlines libstdc++'s
/// insert-at-front and warns -Wrestrict (a false positive) -- and the
/// Release build is held warning-free.
template <typename... Parts>
std::string concat(const Parts&... parts) {
  const std::string_view views[] = {std::string_view(parts)...};
  std::size_t size = 0;
  for (const std::string_view v : views) size += v.size();
  std::string out;
  out.reserve(size);
  for (const std::string_view v : views) out.append(v);
  return out;
}

/// Join elements with a separator; each element is converted with
/// std::to_string unless it already is a string.
std::string join(const std::vector<std::string>& parts,
                 const std::string& sep);

/// Repeat a string n times.
std::string repeat(const std::string& s, std::size_t n);

/// Indentation helper: 2*n spaces.
std::string indent(std::size_t n);

/// Right-pad to width (no-op if already longer).
std::string pad_right(const std::string& s, std::size_t width);

/// Left-pad to width (no-op if already longer).
std::string pad_left(const std::string& s, std::size_t width);

/// Format a double with fixed decimals.
std::string fmt_double(double v, int decimals = 2);

/// A simple aligned text table:
///   TextTable t({"bench", "wisefuse", "smartfuse"});
///   t.add_row({"swim", "2.31", "0.87"});
///   std::cout << t.to_string();
class TextTable {
 public:
  explicit TextTable(std::vector<std::string> header);

  void add_row(std::vector<std::string> cells);
  std::string to_string() const;

 private:
  std::vector<std::string> header_;
  std::vector<std::vector<std::string>> rows_;
};

}  // namespace pf
