#include "common/strings.hh"

#include <cstdarg>
#include <cstdio>
#include <cstdlib>
#include <sstream>

#include "common/error.hh"

namespace qompress {

std::string
format(const char *fmt, ...)
{
    va_list ap;
    va_start(ap, fmt);
    va_list ap2;
    va_copy(ap2, ap);
    const int n = std::vsnprintf(nullptr, 0, fmt, ap);
    va_end(ap);
    std::string out(n > 0 ? n : 0, '\0');
    if (n > 0)
        std::vsnprintf(out.data(), out.size() + 1, fmt, ap2);
    va_end(ap2);
    return out;
}

std::string
join(const std::vector<std::string> &parts, const std::string &sep)
{
    std::string out;
    for (std::size_t i = 0; i < parts.size(); ++i) {
        if (i)
            out += sep;
        out += parts[i];
    }
    return out;
}

std::vector<std::string>
split(const std::string &s, char sep)
{
    std::vector<std::string> out;
    std::string cur;
    for (char c : s) {
        if (c == sep) {
            out.push_back(cur);
            cur.clear();
        } else {
            cur += c;
        }
    }
    out.push_back(cur);
    return out;
}

std::string
formatSig(double v, int digits)
{
    std::ostringstream os;
    os.precision(digits);
    os << v;
    return os.str();
}

std::optional<std::uint64_t>
parseDigits(const std::string &s, std::size_t max_digits)
{
    if (s.empty() || s.size() > max_digits)
        return std::nullopt;
    std::uint64_t v = 0;
    for (const char c : s) {
        if (c < '0' || c > '9')
            return std::nullopt;
        v = v * 10 + static_cast<std::uint64_t>(c - '0');
    }
    return v;
}

std::uint64_t
parseIntFlag(const std::string &value, const char *flag, std::uint64_t lo,
             std::uint64_t hi)
{
    const auto v = parseDigits(value);
    QFATAL_IF(!v || *v < lo || *v > hi, flag, " expects an integer in [",
              lo, ", ", hi, "], got '", value, "'");
    return *v;
}

double
parseRealFlag(const std::string &value, const char *flag, double lo,
              double hi)
{
    char *end = nullptr;
    const double v = std::strtod(value.c_str(), &end);
    QFATAL_IF(value.empty() ||
                  value.find_first_not_of("0123456789.eE+-") !=
                      std::string::npos ||
                  end != value.c_str() + value.size() || v < lo || v > hi,
              flag, " expects a number in [", lo, ", ", hi, "], got '",
              value, "'");
    return v;
}

} // namespace qompress
