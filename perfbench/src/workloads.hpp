/**
 * @file
 * The four workloads and what they share: options, the model shape,
 * set-up repetition and the DFX_TRACE span totals of a traced region.
 */
#ifndef PERFBENCH_WORKLOADS_HPP
#define PERFBENCH_WORKLOADS_HPP

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "core/core.hpp"
#include "model/config.hpp"
#include "perf/host_profile.hpp"
#include "report.hpp"
#include "spans.hpp"

namespace perfbench {

struct Options
{
    std::string workload;
    uint64_t seed = 1;
    double seconds = 10;  ///< measured time of an untraced run
    bool trace = false;
    std::string outDir = ".";
    bool expectDigestSet = false;  ///< override the decode golden digest
    uint64_t expectDigest = 0;
};

/** One run: its options, its report and the benchmark's spans. */
struct Run
{
    const Options &opt;
    Report &report;
    SpanLog &spans;
};

void runDecode(Run &run);
void runSweep(Run &run);
void runServe(Run &run);
void runFleet(Run &run);

/**
 * True while another pass of the timed loop brings the measured time
 * closer to `seconds` (passes so far took `elapsed` in total): an
 * untraced run measures about --seconds of whole passes, at least
 * `min_passes`.
 */
bool morePasses(double elapsed, size_t passes, double seconds,
                size_t min_passes = 1);

/** Set-ups per run; setup_s is their median. */
inline constexpr int kSetupReps = 5;

/** Host threads of the functional decode: 4, capped at nproc - 1. */
size_t hostThreads();

/** The GPT-2-shaped host benchmark model (bench::gpt2Petite()). */
dfx::GptConfig petite();

/** Uniform token ids below `vocab` from a seeded stream. */
std::vector<int32_t> seededTokens(uint64_t seed, size_t n, size_t vocab);

/**
 * A traced region of the simulator's own DFX_TRACE spans. The Chrome
 * trace goes to `path`; `stop()` returns the seconds summed per span
 * name (host "codegen/patch/encode/execute/ring-sync", unit
 * "mpu/vpu/dma").
 */
class SrcTrace
{
  public:
    /** Seconds summed per span name; 0 for a name never recorded. */
    struct Totals
    {
        std::map<std::string, double> seconds;
        double operator()(const char *name) const;
    };

    explicit SrcTrace(const std::string &path);
    ~SrcTrace();
    SrcTrace(const SrcTrace &) = delete;
    SrcTrace &operator=(const SrcTrace &) = delete;

    Totals stop();

  private:
    bool running_ = true;
};

/** Records isa.* from a cluster host profile over `steps` steps. */
void reportHostProfile(Run &run, const dfx::perf::HostStepProfile &hp,
                       double steps);

/** Records cluster.modeled_share.* (Fig. 15) from category seconds. */
void reportModeledShares(
    Run &run, const std::array<double, dfx::kNumCategories> &seconds);

/** Records the run's tracing overhead from untraced and traced rates. */
void reportOverhead(Run &run, const char *what, double untraced_rate,
                    double traced_rate);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_HPP
