/**
 * @file
 * Workload `decode`: functional gpt2-petite on 8 cores with up to 4
 * host threads (one CPU left free), closed loop: one stream of an
 * 8-token prompt and 120 generated tokens (the model's maxSeq of 128),
 * repeated for the run.
 * The FP16 span kernels and the MPU dominate a step; the scheduler,
 * pager, codegen and fleet do almost no work.
 */
#include <memory>

#include "appliance/appliance.hpp"
#include "common/threadpool.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

constexpr size_t kCores = 8;
constexpr size_t kPrompt = 8;
constexpr size_t kOut = 120;
constexpr size_t kSteps = kPrompt + kOut;
constexpr uint64_t kWeightSeed = 7;
/** Seed whose tokens are pinned by kGoldenDigest. */
constexpr uint64_t kGoldenSeed = 1;
/** digest() of the 120 tokens generated for kGoldenSeed. */
constexpr uint64_t kGoldenDigest = 0x015b4a216d7f3d71ull;

struct Appliance
{
    std::shared_ptr<dfx::WeightStore> store;
    std::unique_ptr<dfx::DfxAppliance> app;
    double weightGenSeconds = 0;
    double constructSeconds = 0;
    double setupSeconds = 0;  ///< weights + construction + warm-up
};

dfx::DfxSystemConfig
config(size_t threads)
{
    dfx::DfxSystemConfig cfg;
    cfg.model = petite();
    cfg.nCores = kCores;
    cfg.functional = true;
    cfg.nThreads = threads;
    return cfg;
}

Appliance
setUp(Run &run, const std::vector<int32_t> &prompt)
{
    SpanLog::Scope span(run.spans, "decode.setup");
    Appliance a;
    const double t0 = cpuNow();
    dfx::DfxSystemConfig cfg = config(hostThreads());
    {
        SpanLog::Scope s(run.spans, "WeightStore::materializeAll");
        a.store = dfx::makeWeightStore(cfg, kWeightSeed);
        dfx::ThreadPool pool(hostThreads());
        a.store->materializeAll(&pool);
    }
    const double t1 = cpuNow();
    cfg.weightStore = a.store;
    {
        SpanLog::Scope s(run.spans, "DfxAppliance()");
        a.app = std::make_unique<dfx::DfxAppliance>(cfg);
    }
    const double t2 = cpuNow();
    {
        SpanLog::Scope s(run.spans, "warm-up generate");
        a.app->generate(prompt, 2);
    }
    a.weightGenSeconds = t1 - t0;
    a.constructSeconds = t2 - t1;
    a.setupSeconds = cpuNow() - t0;
    return a;
}

/** One timed request; returns its steps per process CPU second. */
double
timedGenerate(Run &run, dfx::DfxAppliance &app,
              const std::vector<int32_t> &prompt,
              dfx::GenerationResult *out)
{
    SpanLog::Scope span(run.spans, "DfxAppliance::generate");
    const double t0 = cpuNow();
    *out = app.generate(prompt, kOut);
    return static_cast<double>(kSteps) / (cpuNow() - t0);
}

/** Checks a run's tokens against the golden digest or, for another
 *  seed, against a 1-thread run of this build (outside any timing). */
void
checkTokens(Run &run, const Appliance &a, const std::vector<int32_t> &prompt,
            const std::vector<int32_t> &tokens)
{
    const uint64_t got = digest(tokens);
    if (run.opt.expectDigestSet || run.opt.seed == kGoldenSeed) {
        const uint64_t want =
            run.opt.expectDigestSet ? run.opt.expectDigest : kGoldenDigest;
        run.report.check(got == want,
                         fmt("token digest %016llx == expected %016llx",
                             static_cast<unsigned long long>(got),
                             static_cast<unsigned long long>(want)));
        return;
    }
    SpanLog::Scope span(run.spans, "1-thread reference");
    dfx::DfxSystemConfig cfg = config(1);
    cfg.weightStore = a.store;
    dfx::DfxAppliance ref(cfg);
    const std::vector<int32_t> want = ref.generate(prompt, kOut).tokens;
    run.report.check(tokens == want,
                     fmt("token digest %016llx == 1-thread reference %016llx",
                         static_cast<unsigned long long>(got),
                         static_cast<unsigned long long>(digest(want))));
}

void
reportModeled(Run &run, const dfx::DfxAppliance &app,
              const dfx::GenerationResult &r)
{
    const double pcie_in =
        app.pcieSeconds(static_cast<uint64_t>(kPrompt) * 4 + 64);
    run.report.set("modeled_tok_per_s", r.tokensPerSecond(kOut),
                   "120 output tokens / modeled request time");
    const double ttft = (pcie_in + r.summarizationSeconds) * 1e3;
    const double tpot = r.generationSeconds / kOut * 1e3;
    run.report.set("ttft_p50_ms", ttft,
                   "single stream: PCIe upload + 8-token prefill");
    run.report.set("ttft_tail_ms", ttft, "single stream (one request)");
    run.report.set("tpot_p50_ms", tpot,
                   "single stream: generation time / 120 tokens");
    run.report.set("tpot_tail_ms", tpot, "single stream (one request)");
}

void
measure(Run &run, const std::vector<int32_t> &prompt)
{
    std::vector<double> setups;
    Appliance a;
    for (int i = 0; i < kSetupReps; ++i) {
        a = Appliance{};  // release the previous image first
        a = setUp(run, prompt);
        setups.push_back(a.setupSeconds);
    }
    run.report.set("setup_s", median(setups),
                   fmt("median of %d set-ups: weights %.3fs + "
                       "construction + warm-up",
                       kSetupReps, a.weightGenSeconds));

    std::vector<double> rates;
    dfx::GenerationResult first, r;
    double rss = 0;
    const double t0 = now();
    while (morePasses(now() - t0, rates.size(), run.opt.seconds, 3)) {
        rates.push_back(timedGenerate(run, *a.app, prompt, &r));
        if (rates.size() == 1) {
            first = r;
            rss = peakRssMb();
        }
        run.report.op(r.tokens == first.tokens &&
                      r.totalSeconds() == first.totalSeconds());
    }
    run.report.set("decode_steps_per_s", median(rates),
                   fmt("median per 128-step request (%s) of steps / "
                       "CPU seconds, %zu host threads",
                       range(rates).c_str(), hostThreads()));
    run.report.set("peak_rss_mb", rss,
                   "getrusage ru_maxrss through set-up and the first pass");
    reportModeled(run, *a.app, first);
    run.report.check(run.report.failed() == 0,
                     "every repeat reproduces tokens and modeled time");
    checkTokens(run, a, prompt, first.tokens);
}

void
trace(Run &run, const std::vector<int32_t> &prompt)
{
    Appliance a = setUp(run, prompt);
    run.report.set("model.weight_gen_s", a.weightGenSeconds,
                   fmt("WeightStore::materializeAll, CPU seconds of "
                       "%zu threads",
                       hostThreads()));
    run.report.set("model.weight_image_mb",
                   a.store->imageBytes() / (1024.0 * 1024.0),
                   "WeightStore::imageBytes");
    run.report.set("appliance.construct_s", a.constructSeconds,
                   "DfxAppliance constructor, store-backed");

    dfx::GenerationResult plain, r;
    std::vector<double> untraced;
    for (int i = 0; i < 3; ++i)
        untraced.push_back(timedGenerate(run, *a.app, prompt, &plain));

    std::printf("traced decode is shortened: one 128-step request\n");
    a.app->cluster().resetHostProfile();
    SrcTrace src(run.opt.outDir + "/dfx-trace-decode.json");
    const double traced = timedGenerate(run, *a.app, prompt, &r);
    const SrcTrace::Totals span = src.stop();
    run.report.op(r.tokens == plain.tokens &&
                  r.totalSeconds() == plain.totalSeconds());
    run.report.check(run.report.failed() == 0,
                     "tracing changes no token and no modeled time");
    checkTokens(run, a, prompt, r.tokens);

    const dfx::perf::HostStepProfile hp = a.app->cluster().hostProfile();
    const double steps = kSteps;
    const std::string per = "DFX_TRACE span seconds / 128 steps";
    run.report.set("core.mpu_ms_per_step", span("mpu") / steps * 1e3,
                   "mpu unit spans, all cores, " + per);
    run.report.set("core.vpu_ms_per_step", span("vpu") / steps * 1e3,
                   "vpu unit spans, all cores, " + per);
    run.report.set("core.dma_ms_per_step", span("dma") / steps * 1e3,
                   "dma unit spans, all cores, " + per);
    run.report.set("core.mpu_gflops",
                   (r.summarizationFlops + r.generationFlops) /
                       span("mpu") / 1e9,
                   "TokenStats flops / mpu span seconds");
    run.report.set("core.instructions_per_step",
                   static_cast<double>(r.instructions) / steps,
                   "TokenStats instructions / token steps");
    reportHostProfile(run, hp, steps);
    run.report.set("cluster.execute_ms_per_step",
                   span("execute") / steps * 1e3, "execute spans, " + per);
    run.report.set("cluster.ring_sync_ms_per_step",
                   span("ring-sync") / steps * 1e3,
                   "ring-sync spans, " + per);
    const double units = span("mpu") + span("vpu") + span("dma");
    run.report.set("cluster.pool_idle_share",
                   1.0 - units / (span("execute") * hostThreads()),
                   fmt("1 - unit spans / (execute spans x %zu threads)",
                       hostThreads()));
    const double modeled = r.summarizationSeconds + r.generationSeconds;
    run.report.set("cluster.modeled_step_us", modeled / steps * 1e6,
                   "modeled stage seconds / 128 steps");
    reportModeledShares(run, r.categorySeconds);
    reportOverhead(run, "decode steps/s (median of 3 untraced, 1 traced)",
                   median(untraced), traced);
}

}  // namespace

void
runDecode(Run &run)
{
    const std::vector<int32_t> prompt =
        seededTokens(run.opt.seed, kPrompt, petite().vocabSize);
    if (run.opt.trace)
        trace(run, prompt);
    else
        measure(run, prompt);
}

}  // namespace perfbench
