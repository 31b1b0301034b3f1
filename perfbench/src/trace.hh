/**
 * @file
 * In-memory spans recorded by the benchmark around its calls into each
 * layer. A span has a name, start, end, parent span and request id; a
 * span's self time is its duration minus the time its children cover.
 * Spans stay in memory during the run and are written out at the end.
 */

#ifndef PERFBENCH_TRACE_HH
#define PERFBENCH_TRACE_HH

#include <cstdint>
#include <cstdio>
#include <limits>
#include <string>
#include <vector>

#include "util.hh"

namespace perfbench {

/** How the service answered a request (ServiceStats counter deltas). */
enum class Tier : std::uint8_t
{
    None,     ///< not a service call (probes, replay)
    Memo,     ///< hits
    Template, ///< templateHits
    Disk,     ///< diskHits
    Miss,     ///< misses: a full compile
    Failed,   ///< the call threw
};

struct Span
{
    static constexpr std::uint32_t kNoParent =
        std::numeric_limits<std::uint32_t>::max();

    const char *name;
    std::uint32_t parent;
    std::uint64_t request;
    Clock::time_point start;
    Clock::time_point end;
    Tier tier;
};

class Tracer
{
  public:
    std::uint32_t begin(const char *name, std::uint32_t parent,
                        std::uint64_t request)
    {
        spans_.push_back(
            {name, parent, request, Clock::now(), {}, Tier::None});
        return static_cast<std::uint32_t>(spans_.size() - 1);
    }

    void end(std::uint32_t id) { spans_[id].end = Clock::now(); }

    /** Time @p fn as a child span of @p parent; returns fn's result. */
    template <class F>
    auto scoped(const char *name, std::uint32_t parent,
                std::uint64_t request, F &&fn) -> decltype(fn())
    {
        struct Closer
        {
            Tracer *t;
            std::uint32_t id;
            ~Closer() { t->end(id); }
        } closer{this, begin(name, parent, request)};
        return fn();
    }

    Span &operator[](std::uint32_t id) { return spans_[id]; }
    const std::vector<Span> &spans() const { return spans_; }

    /** Self time of every span, in microseconds, indexed like spans(). */
    std::vector<double> selfTimesUs() const
    {
        std::vector<double> self(spans_.size());
        for (std::size_t i = 0; i < spans_.size(); ++i)
            self[i] = usBetween(spans_[i].start, spans_[i].end);
        for (const Span &s : spans_)
            if (s.parent != Span::kNoParent)
                self[s.parent] -= usBetween(s.start, s.end);
        return self;
    }

    /** Write every span as CSV (times in ns from the first span). */
    bool write(const std::string &path) const
    {
        std::FILE *f = std::fopen(path.c_str(), "w");
        if (!f)
            return false;
        std::fprintf(f, "id,parent,request,name,tier,start_ns,end_ns\n");
        const Clock::time_point t0 =
            spans_.empty() ? Clock::time_point{} : spans_.front().start;
        for (std::size_t i = 0; i < spans_.size(); ++i) {
            const Span &s = spans_[i];
            const auto ns = [&](Clock::time_point t) {
                return static_cast<long long>(
                    std::chrono::duration_cast<std::chrono::nanoseconds>(
                        t - t0)
                        .count());
            };
            std::fprintf(f, "%zu,%lld,%llu,%s,%d,%lld,%lld\n", i,
                         s.parent == Span::kNoParent
                             ? -1LL
                             : static_cast<long long>(s.parent),
                         static_cast<unsigned long long>(s.request), s.name,
                         static_cast<int>(s.tier), ns(s.start), ns(s.end));
        }
        return std::fclose(f) == 0;
    }

  private:
    std::vector<Span> spans_;
};

} // namespace perfbench

#endif // PERFBENCH_TRACE_HH
