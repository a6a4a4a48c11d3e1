// Small string helpers shared by the lexers, schema lookups and formatters.
//
// SQL and DMX identifiers are case-insensitive; the *Ci helpers implement the
// ASCII case-folding used everywhere names are compared.

#ifndef DMX_COMMON_STRING_UTIL_H_
#define DMX_COMMON_STRING_UTIL_H_

#include <string>
#include <string_view>
#include <vector>

namespace dmx {

/// ASCII lower-casing (identifiers only; data values are never folded).
std::string ToLower(std::string_view s);
std::string ToUpper(std::string_view s);

/// Case-insensitive equality for identifiers and keywords.
bool EqualsCi(std::string_view a, std::string_view b);

/// Case-insensitive "less" usable as a map comparator.
struct LessCi {
  using is_transparent = void;
  bool operator()(std::string_view a, std::string_view b) const;
};

/// Removes leading/trailing ASCII whitespace.
std::string_view Trim(std::string_view s);

/// Splits on a separator character; keeps empty pieces.
std::vector<std::string> Split(std::string_view s, char sep);

/// True when `s` begins with `prefix`, ignoring case.
bool StartsWithCi(std::string_view s, std::string_view prefix);

/// Concatenates `parts` (anything a std::string_view converts from) into
/// one string. Use it for a chain that starts with a literal: GCC 12 at -O3
/// reports a false -Wrestrict overlap in `"lit" + std::string` chains.
template <typename... Parts>
std::string StrCat(const Parts&... parts) {
  std::string out;
  out.reserve((std::string_view(parts).size() + ...));
  (out.append(std::string_view(parts)), ...);
  return out;
}

/// Joins `pieces` with `sep` between consecutive elements.
std::string Join(const std::vector<std::string>& pieces, std::string_view sep);

/// Quotes an identifier in DMX brackets when it needs them: `Age` -> `Age`,
/// `Age Prediction` -> `[Age Prediction]`. Embedded ']' doubles to ']]'.
std::string QuoteIdentifier(std::string_view name);

/// Formats a double the way rowset printers and PMML expect: shortest
/// round-trippable representation, integral values without a trailing ".0".
std::string FormatDouble(double v);

}  // namespace dmx

#endif  // DMX_COMMON_STRING_UTIL_H_
