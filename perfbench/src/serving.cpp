#include "serving.hpp"

#include <algorithm>
#include <cstdio>
#include <cstring>

namespace perfbench {

ServedSummary
summarize(const std::vector<dfx::RequestResult> &results,
          const std::vector<dfx::ServerRequest> &reqs,
          double makespan_seconds, Limits limits)
{
    ServedSummary s;
    s.sent = reqs.size();
    std::vector<const dfx::RequestResult *> by_id(reqs.size(), nullptr);
    for (const dfx::RequestResult &r : results)
        if (r.id < reqs.size())
            by_id[r.id] = &r;
    std::vector<double> queue_by_id(reqs.size(), 0.0);
    double in_system = 0;
    for (const dfx::RequestResult *r : by_id) {
        if (r == nullptr || r->outcome != dfx::RequestOutcome::Completed)
            continue;
        const size_t n_out = reqs[r->id].nOut;
        const double ttft = r->ttftSeconds() * 1e3;
        const double tpot =
            n_out > 1 ? (r->finishSimSeconds - r->firstTokenSimSeconds) /
                            static_cast<double>(n_out - 1) * 1e3
                      : 0.0;
        s.completed += 1;
        s.ttftMs.push_back(ttft);
        s.tpotMs.push_back(tpot);
        s.queueMs.push_back(r->queueDelaySeconds() * 1e3);
        queue_by_id[r->id] = r->queueDelaySeconds() * 1e3;
        in_system += r->finishSimSeconds - r->arrivalSeconds;
        if (ttft <= limits.ttftMs && tpot <= limits.tpotMs)
            s.met += 1;
    }
    if (makespan_seconds > 0)
        s.inFlightMean = in_system / makespan_seconds;
    // Requests are generated in arrival order, so ids order arrivals.
    const size_t q = reqs.size() / 4;
    for (size_t i = 0; i < q; ++i) {
        s.firstQuarterQueueMs += queue_by_id[i] / q;
        s.lastQuarterQueueMs += queue_by_id[reqs.size() - q + i] / q;
    }
    s.backlogGrows =
        s.lastQuarterQueueMs - s.firstQuarterQueueMs > limits.ttftMs;
    s.good = !s.backlogGrows &&
             static_cast<double>(s.met) >= 0.99 * static_cast<double>(s.sent);
    return s;
}

void
checkServed(Run &run, const std::string &label,
            const std::vector<dfx::RequestResult> &results,
            const std::vector<dfx::ServerRequest> &reqs, size_t completed,
            size_t shed, size_t failed, size_t output_tokens)
{
    std::vector<bool> seen(reqs.size(), false);
    bool ids_ok = results.size() == reqs.size();
    bool order_ok = true;
    size_t expected_tokens = 0, completed_seen = 0;
    for (const dfx::RequestResult &r : results) {
        if (r.id >= reqs.size() || seen[r.id]) {
            ids_ok = false;
            continue;
        }
        seen[r.id] = true;
        if (r.outcome != dfx::RequestOutcome::Completed)
            continue;
        completed_seen += 1;
        expected_tokens += reqs[r.id].nOut;
        order_ok = order_ok && r.arrivalSeconds <= r.admitSimSeconds &&
                   r.admitSimSeconds <= r.firstTokenSimSeconds &&
                   r.firstTokenSimSeconds <= r.finishSimSeconds &&
                   (r.tokens.empty() || r.tokens.size() == reqs[r.id].nOut);
    }
    for (size_t i = 0; i < reqs.size(); ++i)
        run.report.op(seen[i]);
    run.report.check(completed + shed + failed == reqs.size() && ids_ok &&
                         completed_seen == completed,
                     fmt("%s: completed %zu + shed %zu + failed %zu == "
                         "sent %zu, one result each",
                         label.c_str(), completed, shed, failed,
                         reqs.size()));
    run.report.check(order_ok && output_tokens == expected_tokens,
                     fmt("%s: %zu output tokens == sum of nOut over "
                         "completed, timestamps ordered",
                         label.c_str(), output_tokens));
}

uint64_t
timelineDigest(const std::vector<dfx::RequestResult> &results)
{
    uint64_t h = 0xcbf29ce484222325ull;
    auto mix = [&h](uint64_t v) {
        for (int b = 0; b < 8; ++b) {
            h ^= (v >> (8 * b)) & 0xffu;
            h *= 0x100000001b3ull;
        }
    };
    for (const dfx::RequestResult &r : results) {
        mix(r.id);
        mix(static_cast<uint64_t>(r.outcome));
        for (double t : {r.admitSimSeconds, r.firstTokenSimSeconds,
                         r.finishSimSeconds}) {
            uint64_t bits = 0;
            std::memcpy(&bits, &t, sizeof bits);
            mix(bits);
        }
    }
    return h;
}

double
blockTail(const std::vector<double> &samples, size_t blocks,
          std::string *label)
{
    const size_t n = samples.size() / blocks;
    std::vector<double> tails;
    for (size_t b = 0; b < blocks; ++b)
        tails.push_back(tail({samples.begin() + b * n,
                              samples.begin() + (b + 1) * n},
                             label));
    if (blocks > 1)
        *label = fmt("median of %zu blocks' ", blocks) + *label;
    return median(tails);
}

void
printLoadTable(const char *what, std::span<const double> rates,
               const std::vector<ServedSummary> &sums, Limits limits,
               size_t block_size)
{
    std::printf("\n%s: limits TTFT <= %.3g ms, TPOT <= %.3g ms\n", what,
                limits.ttftMs, limits.tpotMs);
    std::printf("  %10s %9s %9s %9s %9s %9s %9s %9s %6s\n", "req/s",
                "ttft p50", "ttft tail", "tpot p50", "tpot tail",
                "queue q1", "queue q4", "met %", "good");
    for (size_t i = 0; i < sums.size(); ++i) {
        const ServedSummary &s = sums[i];
        const size_t b = std::max<size_t>(1, s.sent / block_size);
        std::string label;
        const double ttft_tail = blockTail(s.ttftMs, b, &label);
        const double tpot_tail = blockTail(s.tpotMs, b, &label);
        std::printf("  %10.1f %9.4f %9.4f %9.4f %9.4f %9.4f %9.4f %9.2f "
                    "%6s  (tail = %s)\n",
                    rates[i], median(s.ttftMs), ttft_tail,
                    median(s.tpotMs), tpot_tail, s.firstQuarterQueueMs,
                    s.lastQuarterQueueMs, 100.0 * s.met / s.sent,
                    s.good ? "yes" : "no", label.c_str());
    }
}

void
reportLatency(Run &run, const ServedSummary &s, size_t blocks,
              const std::string &at)
{
    std::string label;
    run.report.set("ttft_p50_ms", median(s.ttftMs),
                   fmt("%zu completed, from due time, ", s.completed) + at);
    const double ttft_tail = blockTail(s.ttftMs, blocks, &label);
    run.report.set("ttft_tail_ms", ttft_tail, label + ", " + at);
    run.report.set("tpot_p50_ms", median(s.tpotMs),
                   "(finish - first token) / (nOut - 1), " + at);
    const double tpot_tail = blockTail(s.tpotMs, blocks, &label);
    run.report.set("tpot_tail_ms", tpot_tail, label + ", " + at);
}

void
reportGoodput(Run &run, std::span<const double> rates,
              const std::vector<ServedSummary> &sums, Limits limits,
              const std::string &what)
{
    double goodput = 0;
    for (size_t i = 0; i < sums.size(); ++i)
        if (sums[i].good)
            goodput = rates[i];
    run.report.set("goodput_rps", goodput,
                   fmt("highest of %zu fixed rates with >= 99%% of sent "
                       "within TTFT %.3g ms and TPOT %.3g ms, no backlog, ",
                       sums.size(), limits.ttftMs, limits.tpotMs) +
                       what);
}

void
reportQueueing(Run &run, const ServedSummary &s, size_t blocks,
               const std::string &at)
{
    std::string label;
    run.report.set("server.queue_delay_p50_ms", median(s.queueMs),
                   "admit - arrival, " + at);
    const double q_tail = blockTail(s.queueMs, blocks, &label);
    run.report.set("server.queue_delay_tail_ms", q_tail,
                   label + ", " + at);
    run.report.set("server.mean_in_flight", s.inFlightMean,
                   "Little's law: sum(finish - arrival) / makespan, " + at);
}

}  // namespace perfbench
