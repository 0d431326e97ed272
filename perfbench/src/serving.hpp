/**
 * @file
 * What `serve` and `fleet` share: per-request latency samples of a
 * served stream, the goodput rule, conservation checks and the
 * latency metrics they report.
 */
#ifndef PERFBENCH_SERVING_HPP
#define PERFBENCH_SERVING_HPP

#include <span>
#include <string>
#include <vector>

#include "appliance/server.hpp"
#include "workloads.hpp"

namespace perfbench {

/** Fixed per-request latency limits (modeled ms) of the goodput rule. */
struct Limits
{
    double ttftMs;
    double tpotMs;
};

/** One served stream, reduced to what the metrics need. Samples are
 *  of completed requests, in arrival order. */
struct ServedSummary
{
    size_t sent = 0;
    size_t completed = 0;
    size_t met = 0;  ///< completed within both limits
    std::vector<double> ttftMs;   ///< from the due (arrival) time
    std::vector<double> tpotMs;   ///< (finish - first) / (nOut - 1)
    std::vector<double> queueMs;  ///< admit - arrival
    double inFlightMean = 0;      ///< Little's law over the makespan
    double firstQuarterQueueMs = 0;  ///< by arrival order
    double lastQuarterQueueMs = 0;
    /** The last quarter waited longer than the first by more than the
     *  TTFT limit: the queue grows, the rate is not sustainable. */
    bool backlogGrows = false;
    /** >= 99% of requests sent met both limits, no growing backlog. */
    bool good = false;
};

ServedSummary summarize(const std::vector<dfx::RequestResult> &results,
                        const std::vector<dfx::ServerRequest> &reqs,
                        double makespan_seconds, Limits limits);

/**
 * Fails the run unless completed + shed + failed == sent, every
 * result belongs to a distinct sent request, timestamps are ordered,
 * and the completed requests produced exactly their nOut tokens
 * (`output_tokens` is the server's own total).
 */
void checkServed(Run &run, const std::string &label,
                 const std::vector<dfx::RequestResult> &results,
                 const std::vector<dfx::ServerRequest> &reqs,
                 size_t completed, size_t shed, size_t failed,
                 size_t output_tokens);

/** Digest of every result's id, outcome and modeled timestamps: two
 *  serves of one stream must produce the same digest. */
uint64_t timelineDigest(const std::vector<dfx::RequestResult> &results);

/**
 * Tail of a long stream: split the samples (arrival order) into
 * `blocks` equal consecutive blocks, take each block's tail (see
 * tail()) and return their median. One tail of the whole stream is
 * the 11th-largest sample, as noisy at 10^5 samples as at 10^3; the
 * median over blocks is steady from seed to seed.
 */
double blockTail(const std::vector<double> &samples, size_t blocks,
                 std::string *label);

/** Prints TTFT/TPOT/queue per rate and the goodput verdicts; tails
 *  are over blocks of `block_size` requests. */
void printLoadTable(const char *what, std::span<const double> rates,
                    const std::vector<ServedSummary> &sums, Limits limits,
                    size_t block_size);

/** ttft_p50/tail_ms and tpot_p50/tail_ms of the reference rate. */
void reportLatency(Run &run, const ServedSummary &s, size_t blocks,
                   const std::string &at);

/** goodput_rps: the highest fixed rate whose stream is good. */
void reportGoodput(Run &run, std::span<const double> rates,
                   const std::vector<ServedSummary> &sums, Limits limits,
                   const std::string &what);

/** server.queue_delay_p50/tail_ms and server.mean_in_flight. */
void reportQueueing(Run &run, const ServedSummary &s, size_t blocks,
                    const std::string &at);

}  // namespace perfbench

#endif  // PERFBENCH_SERVING_HPP
