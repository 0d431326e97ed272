#include "workloads.hpp"

#include <algorithm>
#include <thread>

#include "common/random.hpp"
#include "perf/trace.hpp"

namespace perfbench {

size_t
hostThreads()
{
    // One CPU is left to the rest of the machine: the pool joins at
    // every phase, so a thread that loses its CPU stalls the step.
    const size_t n = std::thread::hardware_concurrency();
    return std::clamp<size_t>(n > 1 ? n - 1 : 1, 1, 4);
}

bool
morePasses(double elapsed, size_t passes, double seconds, size_t min_passes)
{
    if (passes < min_passes)
        return true;
    return elapsed + 0.5 * elapsed / static_cast<double>(passes) < seconds;
}

dfx::GptConfig
petite()
{
    dfx::GptConfig c;
    c.name = "gpt2-petite";
    c.vocabSize = 4096;
    c.embedding = 512;
    c.heads = 8;
    c.headDim = 64;
    c.layers = 4;
    c.maxSeq = 128;
    return c;
}

std::vector<int32_t>
seededTokens(uint64_t seed, size_t n, size_t vocab)
{
    dfx::Rng rng(seed);
    std::vector<int32_t> out(n);
    for (int32_t &t : out)
        t = static_cast<int32_t>(rng.below(vocab));
    return out;
}

SrcTrace::SrcTrace(const std::string &path)
{
    dfx::perf::traceStart(path);
}

SrcTrace::~SrcTrace()
{
    if (running_)
        dfx::perf::traceStop();
}

double
SrcTrace::Totals::operator()(const char *name) const
{
    const auto it = seconds.find(name);
    return it == seconds.end() ? 0.0 : it->second;
}

SrcTrace::Totals
SrcTrace::stop()
{
    Totals out;
    for (const dfx::perf::TraceTotal &t : dfx::perf::traceTotals())
        out.seconds[t.name] += t.seconds;
    running_ = false;
    dfx::perf::traceStop();
    return out;
}

void
reportHostProfile(Run &run, const dfx::perf::HostStepProfile &hp,
                  double steps)
{
    run.report.set("isa.codegen_us_per_step",
                   hp.codegenSeconds / steps * 1e6,
                   "hostProfile codegen seconds / steps");
    run.report.set("isa.patch_us_per_step", hp.patchSeconds / steps * 1e6,
                   "hostProfile patch seconds / steps");
    run.report.set("isa.encode_us_per_step", hp.encodeSeconds / steps * 1e6,
                   "hostProfile encode seconds / steps");
    run.report.set("isa.cache_hit_rate", hp.cacheHitRate(),
                   fmt("program cache %llu hits / %llu fetches",
                       static_cast<unsigned long long>(hp.cacheHits),
                       static_cast<unsigned long long>(hp.cacheHits +
                                                       hp.cacheMisses)));
}

void
reportModeledShares(Run &run,
                    const std::array<double, dfx::kNumCategories> &seconds)
{
    double total = 0;
    for (double s : seconds)
        total += s;
    const struct
    {
        const char *metric;
        dfx::isa::Category cat;
    } shares[] = {
        {"cluster.modeled_share.attention", dfx::isa::Category::kAttention},
        {"cluster.modeled_share.ffn", dfx::isa::Category::kFfn},
        {"cluster.modeled_share.layernorm", dfx::isa::Category::kLayerNorm},
        {"cluster.modeled_share.residual", dfx::isa::Category::kResidual},
        {"cluster.modeled_share.sync", dfx::isa::Category::kSync},
    };
    for (const auto &s : shares)
        run.report.set(s.metric,
                       seconds[static_cast<size_t>(s.cat)] / total,
                       "category seconds / all categories (Fig. 15)");
}

void
reportOverhead(Run &run, const char *what, double untraced_rate,
               double traced_rate)
{
    run.report.set("trace.overhead_pct",
                   (untraced_rate / traced_rate - 1.0) * 100.0,
                   fmt("%s: untraced %.4g vs traced %.4g", what,
                       untraced_rate, traced_rate));
}

}  // namespace perfbench
