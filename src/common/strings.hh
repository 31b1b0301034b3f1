/**
 * @file
 * Small string formatting helpers shared by reports and dumps, and the
 * strict number parsers behind every untrusted numeric token.
 */

#ifndef QOMPRESS_COMMON_STRINGS_HH
#define QOMPRESS_COMMON_STRINGS_HH

#include <cstdint>
#include <optional>
#include <string>
#include <type_traits>
#include <vector>

namespace qompress {

/** printf-style formatting into a std::string. */
std::string format(const char *fmt, ...)
    __attribute__((format(printf, 1, 2)));

/** Join the elements of @p parts with @p sep. */
std::string join(const std::vector<std::string> &parts,
                 const std::string &sep);

/** Split @p s on character @p sep (empty fields preserved). */
std::vector<std::string> split(const std::string &s, char sep);

/** Render a double with @p digits significant digits, trimming zeros. */
std::string formatSig(double v, int digits = 4);

/** Strict unsigned decimal: 1 to @p max_digits (<= 19) ASCII digits
 *  and nothing else -- no sign, space, or suffix; nullopt otherwise. */
std::optional<std::uint64_t> parseDigits(const std::string &s,
                                         std::size_t max_digits = 19);

/** @name Numeric command-line flags
 * parseIntFlag/parseRealFlag return the value of @p flag (e.g.
 * "--port"), which must lie in [lo, hi]: digits only for integers, a
 * plain decimal (no NaN, inf or hex) for reals.
 * @throws FatalError naming the flag on empty, malformed, or
 * out-of-range text. @{ */
std::uint64_t parseIntFlag(const std::string &value, const char *flag,
                           std::uint64_t lo, std::uint64_t hi);
double parseRealFlag(const std::string &value, const char *flag,
                     double lo, double hi);

/** When @p arg is "<flag>=<value>", parses the value into @p field
 *  (as a real or an integer, following T) and returns true; false for
 *  any other argument. */
template <class T>
bool
numericFlag(const std::string &arg, const char *flag, T &field, double lo,
            double hi)
{
    const std::size_t n = std::char_traits<char>::length(flag);
    if (arg.compare(0, n, flag) != 0 || arg.size() <= n || arg[n] != '=')
        return false;
    const std::string value = arg.substr(n + 1);
    if constexpr (std::is_floating_point_v<T>)
        field = parseRealFlag(value, flag, lo, hi);
    else
        field = static_cast<T>(parseIntFlag(value, flag,
                                            static_cast<std::uint64_t>(lo),
                                            static_cast<std::uint64_t>(hi)));
    return true;
}
/** @} */

} // namespace qompress

#endif // QOMPRESS_COMMON_STRINGS_HH
