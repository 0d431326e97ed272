#include "report.hpp"

#include <sys/resource.h>
#include <time.h>

#include <algorithm>
#include <chrono>
#include <cstdarg>
#include <cstdio>
#include <stdexcept>

namespace perfbench {

namespace {

constexpr Clock H = Clock::Host;
constexpr Clock M = Clock::Modeled;
constexpr Kind E = Kind::EndToEnd;
constexpr Kind L = Kind::Layer;

const MetricDef *
find(const std::string &name)
{
    for (const MetricDef &d : catalogue())
        if (name == d.name)
            return &d;
    return nullptr;
}

}  // namespace

const std::vector<MetricDef> &
catalogue()
{
    static const std::vector<MetricDef> defs = {
        // --- end to end ----------------------------------------------
        {"decode_steps_per_s", "steps/s", H, true, E},
        {"sweep_steps_per_s", "steps/s", H, true, E},
        {"serve_sim_req_per_s", "req/s", H, true, E},
        {"fleet_events_per_s", "events/s", H, true, E},
        {"setup_s", "s", H, false, E},
        {"peak_rss_mb", "MB", H, false, E},
        {"paper_err_pct", "model-%", M, false, E},
        {"modeled_tok_per_s", "model-tok/s", M, true, E},
        {"ttft_p50_ms", "model-ms", M, false, E},
        {"ttft_tail_ms", "model-ms", M, false, E},
        {"tpot_p50_ms", "model-ms", M, false, E},
        {"tpot_tail_ms", "model-ms", M, false, E},
        {"goodput_rps", "model-req/s", M, true, E},
        // --- numeric / core ------------------------------------------
        {"core.mpu_ms_per_step", "ms/step", H, false, L},
        {"core.vpu_ms_per_step", "ms/step", H, false, L},
        {"core.dma_ms_per_step", "ms/step", H, false, L},
        {"core.mpu_gflops", "GFLOP/s", H, true, L},
        {"core.instructions_per_step", "count", M, false, L},
        // --- isa -----------------------------------------------------
        {"isa.codegen_us_per_step", "us/step", H, false, L},
        {"isa.patch_us_per_step", "us/step", H, false, L},
        {"isa.encode_us_per_step", "us/step", H, false, L},
        {"isa.cache_hit_rate", "ratio", H, true, L},
        // --- appliance / cluster -------------------------------------
        {"cluster.execute_ms_per_step", "ms/step", H, false, L},
        {"cluster.ring_sync_ms_per_step", "ms/step", H, false, L},
        {"cluster.pool_idle_share", "ratio", H, false, L},
        {"cluster.modeled_step_us", "model-us", M, false, L},
        {"cluster.modeled_share.attention", "model-ratio", M, false, L},
        {"cluster.modeled_share.ffn", "model-ratio", M, false, L},
        {"cluster.modeled_share.layernorm", "model-ratio", M, false, L},
        {"cluster.modeled_share.residual", "model-ratio", M, false, L},
        {"cluster.modeled_share.sync", "model-ratio", M, false, L},
        // --- memory (KV pager) ---------------------------------------
        {"kv.prefix_hit_rate", "ratio", M, true, L},
        {"kv.shared_token_frac", "ratio", M, true, L},
        {"kv.peak_mapped_blocks", "blocks", M, false, L},
        {"kv.peak_resident_contexts", "contexts", M, true, L},
        // --- appliance / server --------------------------------------
        {"server.queue_delay_p50_ms", "model-ms", M, false, L},
        {"server.queue_delay_tail_ms", "model-ms", M, false, L},
        {"server.utilization", "model-ratio", M, true, L},
        {"server.mean_in_flight", "model-requests", M, true, L},
        {"server.host_us_per_token", "us/token", H, false, L},
        {"server.shed", "count", M, false, L},
        {"server.failed", "count", M, false, L},
        // --- appliance / fleet ---------------------------------------
        {"fleet.events", "count", M, false, L},
        {"fleet.host_ns_per_event", "ns/event", H, false, L},
        {"fleet.kv_transfers", "count", M, false, L},
        {"fleet.kv_transfer_mb", "MB", M, false, L},
        {"fleet.node_utilization", "model-ratio", M, true, L},
        // --- model / set-up ------------------------------------------
        {"model.weight_gen_s", "s", H, false, L},
        {"model.weight_image_mb", "MB", H, false, L},
        {"appliance.construct_s", "s", H, false, L},
        {"fleet.calibrate_s", "s", H, false, L},
        // --- the benchmark's own tracing -----------------------------
        {"trace.overhead_pct", "%", H, false, L},
    };
    return defs;
}

void
Report::set(const std::string &name, double value, const std::string &base)
{
    if (find(name) == nullptr)
        throw std::logic_error("metric not in the catalogue: " + name);
    values_[name] = Value{value, base};
}

void
Report::fact(const std::string &key, const std::string &value)
{
    facts_.emplace_back(key, value);
}

void
Report::op(bool ok)
{
    attempted_ += 1;
    if (!ok)
        failed_ += 1;
}

void
Report::check(bool ok, const std::string &what)
{
    std::printf("check %-4s %s\n", ok ? "ok" : "FAIL", what.c_str());
    if (!ok)
        correct_ = false;
}

void
Report::print(Kind kind) const
{
    std::printf("\n");
    for (const auto &[key, value] : facts_)
        std::printf("%-22s %s\n", key.c_str(), value.c_str());
    std::printf("\n%-34s %-16s %-18s %-8s %s\n", "metric", "value",
                "unit", "clock", "base");
    std::string json;
    for (const MetricDef &d : catalogue()) {
        if (d.kind != kind)
            continue;
        const auto it = values_.find(d.name);
        const bool measured = it != values_.end();
        const double v = measured ? it->second.value
                                  : (kind == Kind::EndToEnd ? 1.0 : 0.0);
        std::printf("%-34s %-16s %-18s %-8s %s\n", d.name,
                    measured ? fmt("%.6g", v).c_str() : "n/a",
                    fmt("%s (%s)", d.unit,
                        d.higherIsBetter ? "higher" : "lower")
                        .c_str(),
                    d.clock == Clock::Host ? "host" : "modeled",
                    measured ? it->second.base.c_str()
                             : "not measured on this workload");
        json += fmt("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                    json.empty() ? "" : ", ", d.name, v, d.unit);
    }
    std::printf("\n{\"correct\": %s, \"attempted\": %llu, \"failed\": "
                "%llu, \"metrics\": {%s}}\n",
                correct_ ? "true" : "false",
                static_cast<unsigned long long>(attempted_),
                static_cast<unsigned long long>(failed_), json.c_str());
    std::fflush(stdout);
}

double
now()
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

double
cpuNow()
{
    timespec ts{};
    clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
    return static_cast<double>(ts.tv_sec) + ts.tv_nsec * 1e-9;
}

double
peakRssMb()
{
    struct rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KB on Linux
}

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0;
    std::sort(v.begin(), v.end());
    const size_t n = v.size();
    return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

std::string
range(const std::vector<double> &v)
{
    if (v.empty())
        return "no samples";
    const auto [lo, hi] = std::minmax_element(v.begin(), v.end());
    return fmt("%zu samples, %.6g..%.6g", v.size(), *lo, *hi);
}

double
tail(std::vector<double> v, std::string *label)
{
    if (v.empty()) {
        *label = "no samples";
        return 0;
    }
    std::sort(v.begin(), v.end());
    const size_t n = v.size();
    const size_t rank = n > 10 ? n - 11 : n - 1;
    *label = n > 10 ? fmt("p%.4g of %zu", 100.0 * (n - 10) / n, n)
                    : fmt("max of %zu", n);
    return v[rank];
}

uint64_t
digest(const std::vector<int32_t> &tokens)
{
    uint64_t h = 0xcbf29ce484222325ull;
    for (int32_t t : tokens) {
        for (int b = 0; b < 4; ++b) {
            h ^= (static_cast<uint32_t>(t) >> (8 * b)) & 0xffu;
            h *= 0x100000001b3ull;
        }
    }
    return h;
}

std::string
fmt(const char *format, ...)
{
    char buf[512];
    va_list ap;
    va_start(ap, format);
    std::vsnprintf(buf, sizeof buf, format, ap);
    va_end(ap);
    return buf;
}

}  // namespace perfbench
