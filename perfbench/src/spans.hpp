/**
 * @file
 * The benchmark's own spans around its calls into the simulator.
 *
 * Spans live in memory (one vector, benchmark thread only) and are
 * written as a Chrome trace at exit, each with its id and its
 * parent's id. A span's self time is its duration minus the time its
 * child spans cover. Recording is off unless the run is traced, so
 * untraced runs carry no span cost at all.
 */
#ifndef PERFBENCH_SPANS_HPP
#define PERFBENCH_SPANS_HPP

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

class SpanLog
{
  public:
    struct Total
    {
        std::string name;
        uint64_t count = 0;
        double seconds = 0;
        double selfSeconds = 0;
    };

    /** RAII span: opens under the innermost open span. */
    class Scope
    {
      public:
        Scope(SpanLog &log, const char *name);
        ~Scope();
        Scope(const Scope &) = delete;
        Scope &operator=(const Scope &) = delete;

      private:
        SpanLog &log_;
        int64_t index_ = -1;
    };

    void enable() { enabled_ = true; }

    /** Per-name count, total and self seconds, in first-seen order. */
    std::vector<Total> totals() const;

    /** Writes every span as a Chrome trace JSON (true on success). */
    bool write(const std::string &path) const;

  private:
    struct Span
    {
        const char *name;
        int64_t parent;  ///< index of the parent span, -1 at the root
        uint64_t t0;
        uint64_t t1;
    };
    bool enabled_ = false;
    std::vector<Span> spans_;
    std::vector<int64_t> open_;  ///< stack of open span indices
};

}  // namespace perfbench

#endif  // PERFBENCH_SPANS_HPP
