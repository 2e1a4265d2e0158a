// Checked number parsing for the command-line tools (mte_dse, mte_lint,
// mte_prof): every numeric flag goes through one rule.
#pragma once

#include <charconv>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <string_view>
#include <system_error>
#include <type_traits>

namespace mte::cli {

/// Parses the value of `flag` as an unsigned decimal number of type T, or
/// as hexadecimal after a 0x prefix when `allow_hex` is set. Empty text,
/// a sign, any other character, trailing characters and a value outside
/// T's range print `<tool>: bad number '<text>' for <flag>` and exit 2.
template <typename T>
[[nodiscard]] T parse_number(const char* tool, std::string_view text, const char* flag,
                             bool allow_hex = false) {
  static_assert(std::is_unsigned_v<T>);
  std::string_view digits = text;
  int base = 10;
  if (allow_hex && (digits.starts_with("0x") || digits.starts_with("0X"))) {
    digits.remove_prefix(2);
    base = 16;
  }
  T value{};
  const char* const last = digits.data() + digits.size();
  const auto [end, ec] = std::from_chars(digits.data(), last, value, base);
  if (ec != std::errc() || end != last) {
    std::fprintf(stderr, "%s: bad number '%s' for %s\n", tool, std::string(text).c_str(),
                 flag);
    std::exit(2);
  }
  return value;
}

}  // namespace mte::cli
