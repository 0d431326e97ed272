/**
 * @file
 * Workload `sweep`: timing-only paper reproduction, closed loop, one
 * request at a time on one thread. The Fig. 14 grid (in 32/64/128 x
 * out 1/4/16/64/256) for 345M/774M/1.5B at their paper device counts,
 * plus 345M 64:64 on 2 and 4 devices for Fig. 18. A step is host
 * bookkeeping (codegen, patch, encode, the instruction timing model)
 * with no FP16 math; the run also carries fidelity to the paper.
 */
#include <cmath>
#include <memory>

#include "appliance/appliance.hpp"
#include "baseline/gpu.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

struct Device
{
    dfx::GptConfig model;
    size_t devices;
    bool grid;  ///< runs the Fig. 14 grid (else only 64:64)
};

struct Point
{
    size_t device;  ///< index into devices()
    size_t nIn;
    size_t nOut;
};

std::vector<Device>
devices()
{
    return {{dfx::GptConfig::gpt2_345M(), 1, true},
            {dfx::GptConfig::gpt2_774M(), 2, true},
            {dfx::GptConfig::gpt2_1_5B(), 4, true},
            {dfx::GptConfig::gpt2_345M(), 2, false},
            {dfx::GptConfig::gpt2_345M(), 4, false}};
}

std::vector<Point>
points(const std::vector<Device> &devs)
{
    std::vector<Point> out;
    for (size_t d = 0; d < devs.size(); ++d) {
        if (!devs[d].grid) {
            out.push_back({d, 64, 64});
            continue;
        }
        for (size_t in : {32, 64, 128})
            for (size_t o : {1, 4, 16, 64, 256})
                out.push_back({d, in, o});
    }
    return out;
}

/** The traced run's shortened set: one 32:16 request per device. */
std::vector<Point>
shortPoints(const std::vector<Device> &devs)
{
    std::vector<Point> out;
    for (size_t d = 0; d < devs.size(); ++d)
        out.push_back({d, 32, 16});
    return out;
}

struct Appliances
{
    std::vector<std::unique_ptr<dfx::DfxAppliance>> apps;
    double constructSeconds = 0;
    double setupSeconds = 0;
};

Appliances
setUp(Run &run, const std::vector<Device> &devs)
{
    SpanLog::Scope span(run.spans, "sweep.setup");
    Appliances a;
    const double t0 = cpuNow();
    for (const Device &d : devs) {
        SpanLog::Scope s(run.spans, "DfxAppliance()");
        dfx::DfxSystemConfig cfg;
        cfg.model = d.model;
        cfg.nCores = d.devices;
        cfg.functional = false;
        // The host-to-instruction-buffer path: encode, patch in place.
        cfg.binaryInstructionPath = true;
        a.apps.push_back(std::make_unique<dfx::DfxAppliance>(cfg));
    }
    a.constructSeconds = cpuNow() - t0;
    for (auto &app : a.apps) {
        SpanLog::Scope s(run.spans, "warm-up generate");
        app->generate({0}, 1);  // compiles every program template
    }
    a.setupSeconds = cpuNow() - t0;
    return a;
}

/** One pass over `pts`; returns its steps per CPU second, fills
 *  modeled results. */
double
pass(Run &run, Appliances &a, const std::vector<Point> &pts,
     std::vector<dfx::GenerationResult> *results)
{
    SpanLog::Scope span(run.spans, "sweep pass");
    results->clear();
    size_t steps = 0;
    const double t0 = cpuNow();
    for (size_t i = 0; i < pts.size(); ++i) {
        const Point &p = pts[i];
        const std::vector<int32_t> prompt = seededTokens(
            run.opt.seed * 1000003 + i, p.nIn,
            a.apps[p.device]->config().model.vocabSize);
        SpanLog::Scope s(run.spans, "DfxAppliance::generate");
        results->push_back(a.apps[p.device]->generate(prompt, p.nOut));
        steps += p.nIn + p.nOut;
    }
    return static_cast<double>(steps) / (cpuNow() - t0);
}

/** Mean |model - paper| / paper over Fig. 14/17/18, in percent. */
void
reportFidelity(Run &run, const std::vector<Device> &devs,
               const std::vector<Point> &pts,
               const std::vector<dfx::GenerationResult> &res)
{
    double err = 0;
    int n = 0;
    std::string detail;
    auto add = [&](const char *what, double model, double paper) {
        err += std::fabs(model - paper) / paper;
        n += 1;
        detail += fmt("%s%s %.4g/%.4g", detail.empty() ? "" : ", ", what,
                      model, paper);
    };
    const double fig14[] = {3.20, 4.46, 5.58};
    for (size_t d = 0; d < 3; ++d) {
        const dfx::GpuApplianceModel gpu(devs[d].model, devs[d].devices);
        double gpu_sum = 0, dfx_sum = 0;
        for (size_t i = 0; i < pts.size(); ++i) {
            if (pts[i].device != d)
                continue;
            gpu_sum +=
                gpu.estimate(pts[i].nIn, pts[i].nOut).totalSeconds();
            dfx_sum += res[i].totalSeconds();
        }
        add(fmt("fig14 %s speedup", devs[d].model.name.c_str()).c_str(),
            gpu_sum / dfx_sum, fig14[d]);
    }
    auto at = [&](size_t device) -> const dfx::GenerationResult & {
        for (size_t i = 0; i < pts.size(); ++i)
            if (pts[i].device == device && pts[i].nIn == 64 &&
                pts[i].nOut == 64)
                return res[i];
        throw std::logic_error("no 64:64 point");
    };
    const dfx::GenerationResult &r = at(0);
    add("fig17 sum GFLOPS", r.summarizationFlopsPerSec() / 1e9, 185.6);
    add("fig17 gen GFLOPS", r.generationFlopsPerSec() / 1e9, 181.8);
    add("fig17 total GFLOPS",
        (r.summarizationFlops + r.generationFlops) /
            (r.summarizationSeconds + r.generationSeconds) / 1e9,
        184.1);
    const size_t fig18_dev[] = {0, 3, 4};
    const double fig18[] = {93.10, 146.25, 207.56};
    for (size_t k = 0; k < 3; ++k)
        add(fmt("fig18 %zu-dev tok/s", devs[fig18_dev[k]].devices).c_str(),
            at(fig18_dev[k]).tokensPerSecond(64), fig18[k]);
    std::printf("paper fidelity (model/paper): %s\n", detail.c_str());
    run.report.set("paper_err_pct", 100.0 * err / n,
                   fmt("mean |model - paper| / paper over %d values", n));
}

void
reportModeled(Run &run, const Appliances &a, const std::vector<Point> &pts,
              const std::vector<dfx::GenerationResult> &res)
{
    std::vector<double> ttft, tpot;
    double tokens = 0, seconds = 0;
    for (size_t i = 0; i < pts.size(); ++i) {
        const dfx::DfxAppliance &app = *a.apps[pts[i].device];
        ttft.push_back((app.pcieSeconds(pts[i].nIn * 4 + 64) +
                        res[i].summarizationSeconds) * 1e3);
        tpot.push_back(res[i].generationSeconds / pts[i].nOut * 1e3);
        tokens += pts[i].nOut;
        seconds += res[i].totalSeconds();
    }
    std::string label;
    run.report.set("modeled_tok_per_s", tokens / seconds,
                   "all output tokens / all modeled request time");
    run.report.set("ttft_p50_ms", median(ttft),
                   fmt("%zu requests, PCIe upload + prefill", pts.size()));
    const double ttft_tail = tail(ttft, &label);
    run.report.set("ttft_tail_ms", ttft_tail, label);
    run.report.set("tpot_p50_ms", median(tpot),
                   fmt("%zu requests, generation time / nOut", pts.size()));
    const double tpot_tail = tail(tpot, &label);
    run.report.set("tpot_tail_ms", tpot_tail, label);
}

bool
sameModeled(const std::vector<dfx::GenerationResult> &a,
            const std::vector<dfx::GenerationResult> &b)
{
    if (a.size() != b.size())
        return false;
    for (size_t i = 0; i < a.size(); ++i)
        if (a[i].totalSeconds() != b[i].totalSeconds() ||
            a[i].instructions != b[i].instructions)
            return false;
    return true;
}

void
measure(Run &run, const std::vector<Device> &devs)
{
    const std::vector<Point> pts = points(devs);
    std::vector<double> setups;
    Appliances a;
    for (int i = 0; i < kSetupReps; ++i) {
        a = setUp(run, devs);
        setups.push_back(a.setupSeconds);
    }
    run.report.set("setup_s", median(setups),
                   fmt("median of %d set-ups: 5 timing-only appliances "
                       "+ warm-up",
                       kSetupReps));

    std::vector<dfx::GenerationResult> first, res;
    std::vector<double> rates;
    double rss = 0;
    const double t0 = now();
    while (morePasses(now() - t0, rates.size(), run.opt.seconds)) {
        rates.push_back(pass(run, a, pts, &res));
        if (rates.size() == 1) {
            first = res;
            rss = peakRssMb();
        }
        for (size_t i = 0; i < pts.size(); ++i)
            run.report.op(res[i].totalSeconds() ==
                              first[i].totalSeconds() &&
                          res[i].tokens.size() == pts[i].nOut);
    }
    run.report.check(sameModeled(first, res),
                     "every pass reproduces the modeled timing");
    run.report.set("sweep_steps_per_s", median(rates),
                   fmt("median over passes (%s) of %zu requests' steps / "
                       "CPU seconds",
                       range(rates).c_str(), pts.size()));
    run.report.set("peak_rss_mb", rss,
                   "getrusage ru_maxrss through set-up and the first pass");
    reportFidelity(run, devs, pts, first);
    reportModeled(run, a, pts, first);
}

void
trace(Run &run, const std::vector<Device> &devs)
{
    const std::vector<Point> pts = shortPoints(devs);
    Appliances a = setUp(run, devs);
    run.report.set("appliance.construct_s", a.constructSeconds,
                   "5 timing-only DfxAppliance constructors");
    std::vector<dfx::GenerationResult> plain, res;
    std::vector<double> untraced;
    for (int i = 0; i < 3; ++i)
        untraced.push_back(pass(run, a, pts, &plain));

    for (auto &app : a.apps)
        app->cluster().resetHostProfile();
    SrcTrace src(run.opt.outDir + "/dfx-trace-sweep.json");
    const double traced = pass(run, a, pts, &res);
    const SrcTrace::Totals span = src.stop();
    for (size_t i = 0; i < pts.size(); ++i)
        run.report.op(res[i].totalSeconds() == plain[i].totalSeconds());
    run.report.check(sameModeled(plain, res),
                     "tracing changes no modeled timing");

    dfx::perf::HostStepProfile hp;
    for (auto &app : a.apps)
        hp += app->cluster().hostProfile();
    double steps = 0, instructions = 0, modeled = 0;
    std::array<double, dfx::kNumCategories> cats{};
    for (size_t i = 0; i < pts.size(); ++i) {
        steps += pts[i].nIn + pts[i].nOut;
        instructions += res[i].instructions;
        modeled += res[i].summarizationSeconds + res[i].generationSeconds;
        for (size_t c = 0; c < cats.size(); ++c)
            cats[c] += res[i].categorySeconds[c];
    }
    const std::string shortened =
        fmt("shortened run: one 32:16 request per device, %.0f steps",
            steps);
    std::printf("traced sweep is %s\n", shortened.c_str());
    run.report.set("core.instructions_per_step", instructions / steps,
                   "TokenStats instructions / steps, " + shortened);
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
    run.report.set("cluster.execute_ms_per_step",
                   span("execute") / steps * 1e3,
                   "execute spans / steps (timing model only)");
    run.report.set("cluster.ring_sync_ms_per_step",
                   span("ring-sync") / steps * 1e3, "ring-sync spans / steps");
    run.report.set("cluster.modeled_step_us", modeled / steps * 1e6,
                   "modeled stage seconds / steps, " + shortened);
    reportModeledShares(run, cats);
    reportOverhead(run, "sweep steps/s (median of 3 untraced, 1 traced)",
                   median(untraced), traced);
}

}  // namespace

void
runSweep(Run &run)
{
    const std::vector<Device> devs = devices();
    if (run.opt.trace)
        trace(run, devs);
    else
        measure(run, devs);
}

}  // namespace perfbench
