/**
 * @file
 * Spans for the benchmark's traced runs.
 *
 * A Span times one call into a library layer with steady_clock. The
 * untraced run uses it as a plain stopwatch; when tracing is enabled
 * every finished span is also recorded in memory with its name,
 * start, end, the span that caused it (the innermost open span of the
 * same thread) and an optional request id shared by all spans of one
 * request. writeChromeTrace() writes the records at the end of the
 * run as Chrome trace-event JSON, with per-name self-time totals.
 */

#ifndef PERFBENCH_TRACE_HH
#define PERFBENCH_TRACE_HH

#include <chrono>
#include <cstdint>
#include <map>
#include <string>

namespace perfbench {

using Clock = std::chrono::steady_clock;

/** Seconds between two steady_clock points. */
inline double
secondsBetween(Clock::time_point a, Clock::time_point b)
{
    return std::chrono::duration<double>(b - a).count();
}

/** Turn span recording on or off (off at start). Thread-safe. */
void setTracing(bool on);

/** Times one layer call; recorded as a trace span when tracing. */
class Span
{
  public:
    explicit Span(const char *name, uint64_t request = 0);
    ~Span();

    Span(const Span &) = delete;
    Span &operator=(const Span &) = delete;

    /** End the span now (idempotent); returns its duration. */
    double stop();

  private:
    const char *name;
    uint64_t request;
    uint64_t id = 0;     ///< Non-zero when recorded.
    uint64_t parent = 0; ///< Enclosing span on this thread, 0 = none.
    Clock::time_point start;
    Clock::time_point end{};
    bool stopped = false;
};

/** Sum over recorded spans of (duration - time covered by child
 *  spans), in seconds, keyed by span name. */
std::map<std::string, double> selfTimeTotals();

/** Number of spans recorded so far. */
size_t recordedSpans();

/** Write every recorded span as Chrome trace-event JSON, with the
 *  self-time totals under "otherData". False when the file cannot be
 *  written. */
bool writeChromeTrace(const std::string &path);

} // namespace perfbench

#endif // PERFBENCH_TRACE_HH
