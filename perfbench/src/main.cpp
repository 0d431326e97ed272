/**
 * @file
 * perfbench: the repository benchmark.
 *
 *   perfbench --workload decode|sweep|serve|fleet --seed N
 *             --seconds S --trace 0|1 [--out DIR] [--expect-digest HEX]
 *
 * An untraced run (--trace 0) measures the workload for S seconds and
 * prints every end-to-end metric; a traced run (--trace 1) turns on
 * the simulator's DFX_TRACE spans and the benchmark's own spans over
 * a shortened run of the same workload and prints every per-layer
 * metric. The last line of stdout is one JSON object with the keys
 * correct, attempted, failed and metrics. The exit code is 0 only
 * when every correctness check passed.
 */
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <string>
#include <thread>

#include "numeric/simd.hpp"
#include "perf/trace.hpp"
#include "workloads.hpp"

using namespace perfbench;

namespace {

[[noreturn]] void
usage(const char *why)
{
    std::fprintf(stderr,
                 "perfbench: %s\nusage: perfbench --workload "
                 "decode|sweep|serve|fleet --seed N --seconds S "
                 "--trace 0|1 [--out DIR] [--expect-digest HEX]\n",
                 why);
    std::exit(2);
}

Options
parse(int argc, char **argv)
{
    Options o;
    for (int i = 1; i < argc; ++i) {
        const std::string a = argv[i];
        if (i + 1 >= argc)
            usage(("missing value for " + a).c_str());
        const char *v = argv[++i];
        char *end = nullptr;
        if (a == "--workload") {
            o.workload = v;
        } else if (a == "--seed") {
            o.seed = std::strtoull(v, &end, 10);
        } else if (a == "--seconds") {
            o.seconds = std::strtod(v, &end);
        } else if (a == "--trace") {
            o.trace = std::strcmp(v, "1") == 0;
            if (!o.trace && std::strcmp(v, "0") != 0)
                usage("--trace takes 0 or 1");
        } else if (a == "--out") {
            o.outDir = v;
        } else if (a == "--expect-digest") {
            o.expectDigest = std::strtoull(v, &end, 16);
            o.expectDigestSet = true;
        } else {
            usage(("unknown argument " + a).c_str());
        }
        if (end != nullptr && *end != '\0')
            usage(("malformed value for " + a).c_str());
    }
    if (o.seconds < 0)
        usage("--seconds must be >= 0");
    return o;
}

/** Notes which DFX_* variables are set, and keeps the run clean of
 *  them: no weight cache (setup_s means weight generation) and no
 *  whole-process trace (untraced means untraced). */
void
recordEnvironment(Report &report)
{
    auto isSet = [](const char *name) {
        const char *v = std::getenv(name);
        return v != nullptr && *v != '\0';
    };
    const bool cache = isSet("DFX_WEIGHT_CACHE");
    const bool scalar = isSet("DFX_FORCE_SCALAR");
    const bool trace = isSet("DFX_TRACE");
    if (cache)
        unsetenv("DFX_WEIGHT_CACHE");
    if (trace)
        dfx::perf::traceStop();
    report.fact("simd_kernel", dfx::simd::kernelName());
    report.fact("nproc", std::to_string(std::thread::hardware_concurrency()));
    report.fact("compiler", PERFBENCH_COMPILER);
    report.fact("DFX_WEIGHT_CACHE",
                cache ? "set (ignored: weights are generated)" : "unset");
    report.fact("DFX_FORCE_SCALAR", scalar ? "set" : "unset");
    report.fact("DFX_TRACE",
                trace ? "set (its process trace was stopped at start)"
                      : "unset");
}

void
printSpanTotals(const SpanLog &spans)
{
    std::printf("\nbenchmark spans (self = span - child spans):\n");
    std::printf("  %-22s %8s %12s %12s\n", "span", "count", "total s",
                "self s");
    for (const SpanLog::Total &t : spans.totals())
        std::printf("  %-22s %8llu %12.6f %12.6f\n", t.name.c_str(),
                    static_cast<unsigned long long>(t.count), t.seconds,
                    t.selfSeconds);
}

}  // namespace

int
main(int argc, char **argv)
{
    const Options opt = parse(argc, argv);
    Report report;
    SpanLog spans;
    if (opt.trace)
        spans.enable();
    recordEnvironment(report);
    report.fact("workload", opt.workload);
    report.fact("seed", std::to_string(opt.seed));
    report.fact("run", opt.trace ? "traced (per-layer metrics)"
                                 : "untraced (end-to-end metrics)");

    Run run{opt, report, spans};
    try {
        if (opt.workload == "decode")
            runDecode(run);
        else if (opt.workload == "sweep")
            runSweep(run);
        else if (opt.workload == "serve")
            runServe(run);
        else if (opt.workload == "fleet")
            runFleet(run);
        else
            usage(("unknown workload '" + opt.workload + "'").c_str());
    } catch (const std::exception &e) {
        report.check(false, std::string("workload threw: ") + e.what());
    }

    if (opt.trace) {
        printSpanTotals(spans);
        const std::string path =
            opt.outDir + "/spans-" + opt.workload + ".json";
        if (spans.write(path))
            report.fact("benchmark spans", path);
        else
            report.check(false, "write " + path);
    }
    report.print(opt.trace ? Kind::Layer : Kind::EndToEnd);
    return report.correct() && report.failed() == 0 ? 0 : 1;
}
