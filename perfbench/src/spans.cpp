#include "spans.hpp"

#include <cstdio>

#include "perf/trace.hpp"

namespace perfbench {

SpanLog::Scope::Scope(SpanLog &log, const char *name) : log_(log)
{
    if (!log_.enabled_)
        return;
    index_ = static_cast<int64_t>(log_.spans_.size());
    const int64_t parent = log_.open_.empty() ? -1 : log_.open_.back();
    log_.spans_.push_back(
        Span{name, parent, dfx::perf::trace_detail::nowNs(), 0});
    log_.open_.push_back(index_);
}

SpanLog::Scope::~Scope()
{
    if (index_ < 0)
        return;
    log_.spans_[static_cast<size_t>(index_)].t1 =
        dfx::perf::trace_detail::nowNs();
    log_.open_.pop_back();
}

std::vector<SpanLog::Total>
SpanLog::totals() const
{
    // Children are strictly nested and sequential on one thread, so
    // their durations sum to the part of the parent they cover.
    std::vector<double> child(spans_.size(), 0.0);
    for (const Span &s : spans_)
        if (s.parent >= 0)
            child[static_cast<size_t>(s.parent)] += (s.t1 - s.t0) * 1e-9;
    std::vector<Total> out;
    for (size_t i = 0; i < spans_.size(); ++i) {
        const Span &s = spans_[i];
        Total *t = nullptr;
        for (Total &o : out)
            if (o.name == s.name)
                t = &o;
        if (t == nullptr) {
            out.push_back(Total{s.name, 0, 0, 0});
            t = &out.back();
        }
        const double dur = (s.t1 - s.t0) * 1e-9;
        t->count += 1;
        t->seconds += dur;
        t->selfSeconds += dur - child[i];
    }
    return out;
}

bool
SpanLog::write(const std::string &path) const
{
    std::FILE *f = std::fopen(path.c_str(), "w");
    if (f == nullptr)
        return false;
    std::fputs("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n", f);
    const uint64_t origin = spans_.empty() ? 0 : spans_.front().t0;
    for (size_t i = 0; i < spans_.size(); ++i) {
        const Span &s = spans_[i];
        std::fprintf(f,
                     "%s{\"name\":\"%s\",\"cat\":\"perfbench\",\"ph\":\"X\","
                     "\"pid\":1,\"tid\":0,\"ts\":%.3f,\"dur\":%.3f,"
                     "\"args\":{\"id\":%zu,\"parent\":%lld}}",
                     i ? ",\n" : "", s.name, (s.t0 - origin) / 1e3,
                     (s.t1 - s.t0) / 1e3, i,
                     static_cast<long long>(s.parent));
    }
    std::fputs("\n]}\n", f);
    return std::fclose(f) == 0;
}

}  // namespace perfbench
