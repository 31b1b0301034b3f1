/**
 * @file
 * Small helpers shared by the benchmark: the clock, order statistics
 * and a flat JSON metric writer.
 */

#ifndef PERFBENCH_UTIL_HH
#define PERFBENCH_UTIL_HH

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double
usBetween(Clock::time_point a, Clock::time_point b)
{
    return std::chrono::duration<double, std::micro>(b - a).count();
}

inline double
secondsSince(Clock::time_point a)
{
    return std::chrono::duration<double>(Clock::now() - a).count();
}

/** Nearest-rank percentile (q in [0, 1]); 0 for an empty sample. */
inline double
percentile(std::vector<double> v, double q)
{
    if (v.empty())
        return 0.0;
    const std::size_t rank = static_cast<std::size_t>(
        std::ceil(q * static_cast<double>(v.size())));
    const std::size_t idx = rank == 0 ? 0 : rank - 1;
    std::nth_element(v.begin(), v.begin() + idx, v.end());
    return v[idx];
}

inline double
median(std::vector<double> v)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

inline double
mean(const std::vector<double> &v)
{
    if (v.empty())
        return 0.0;
    double s = 0.0;
    for (double x : v)
        s += x;
    return s / static_cast<double>(v.size());
}

/** a / b, or 0 when b is 0 (a layer that did no work reads 0). */
inline double
ratio(double a, double b)
{
    return b == 0.0 ? 0.0 : a / b;
}

/** Ordered name -> (value, unit) list printed as the result's
 *  "metrics" object. */
class MetricList
{
  public:
    void add(const std::string &name, double value, const char *unit)
    {
        rows_.push_back({name, {value, unit}});
    }

    std::string json() const
    {
        std::string out = "{";
        char buf[96];
        for (std::size_t i = 0; i < rows_.size(); ++i) {
            const double v = std::isfinite(rows_[i].second.first)
                                 ? rows_[i].second.first
                                 : 0.0;
            std::snprintf(buf, sizeof(buf), "%.17g", v);
            out += (i ? ", \"" : "\"") + rows_[i].first +
                   "\": {\"value\": " + buf + ", \"unit\": \"" +
                   rows_[i].second.second + "\"}";
        }
        return out + "}";
    }

  private:
    std::vector<std::pair<std::string, std::pair<double, std::string>>>
        rows_;
};

} // namespace perfbench

#endif // PERFBENCH_UTIL_HH
