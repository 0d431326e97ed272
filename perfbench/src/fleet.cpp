/**
 * @file
 * Workload `fleet`: DfxFleet on the calibrated backend. A
 * RoundCostModel calibrated from gpt2-petite (4 cores, 8 KV contexts)
 * drives 10^5 seeded Poisson requests (8 in, 16 out) through a
 * colocated 4x2 topology and a disaggregated 2p+2d one, each at three
 * fixed fractions of its estimated capacity. The heap event queue,
 * the router and the KV-handoff events are the whole cost; there is
 * no appliance underneath.
 */
#include <algorithm>

#include "appliance/fleet.hpp"
#include "appliance/workload.hpp"
#include "serving.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

constexpr size_t kRequests = 100000;
constexpr size_t kIn = 8;
constexpr size_t kOut = 16;
/** Offered load as fractions of estimated capacity. */
constexpr double kFractions[] = {0.5, 0.8, 1.1};
constexpr size_t kReference = 0;
/** Tails are the median over this many arrival blocks of 10^4. */
constexpr size_t kBlocks = 10;
/** Fixed goodput limits on every request (modeled ms). */
constexpr Limits kLimits{5.0, 1.0};

struct Topology
{
    const char *name;
    dfx::FleetTopology topo;
};

std::vector<Topology>
topologies()
{
    using R = dfx::FleetNodeRole;
    Topology colocated{"colocated 4x2", {}};
    colocated.topo.nNodes = 4;
    colocated.topo.clustersPerNode = 2;
    Topology disagg{"disaggregated 2p+2d", {}};
    disagg.topo.nNodes = 4;
    disagg.topo.clustersPerNode = 2;
    disagg.topo.roles = {R::Prefill, R::Prefill, R::Decode, R::Decode};
    return {colocated, disagg};
}

/**
 * Estimated capacity in requests per simulated second: every request
 * needs nIn prefill and nOut decode rounds, a full batch advances
 * kvContexts requests per round, and a mid-context round costs
 * roundSeconds(kvContexts, maxSeq / 4). A disaggregated topology is
 * bound by the tighter of its two stages.
 */
double
capacityRps(const dfx::RoundCostModel &m, const dfx::FleetTopology &t)
{
    const double kv = static_cast<double>(m.kvContexts);
    const double round = m.roundSeconds(m.kvContexts, m.maxSeq / 4.0);
    double prefill = 0, decode = 0;
    for (size_t n = 0; n < t.nNodes; ++n) {
        const dfx::FleetNodeRole role =
            t.roles.empty() ? dfx::FleetNodeRole::Both : t.roles[n];
        if (role != dfx::FleetNodeRole::Decode)
            prefill += t.clustersPerNode;
        if (role != dfx::FleetNodeRole::Prefill)
            decode += t.clustersPerNode;
    }
    if (!t.disaggregated())
        return prefill * kv / (round * (kIn + kOut));
    return std::min(prefill * kv / (round * kIn),
                    decode * kv / (round * kOut));
}

dfx::RoundCostModel
calibrate(Run &run, double *seconds)
{
    SpanLog::Scope span(run.spans, "RoundCostModel::calibrate");
    dfx::DfxSystemConfig cfg;
    cfg.model = petite();
    cfg.nCores = 4;
    cfg.kvContexts = 8;
    const double t0 = cpuNow();
    dfx::RoundCostModel m = dfx::RoundCostModel::calibrate(cfg);
    *seconds = cpuNow() - t0;
    return m;
}

/** One (topology, load) serve. */
struct LoadPoint
{
    double rate = 0;
    double hostSeconds = 0;
    dfx::FleetStats stats;  ///< without per-request results
    ServedSummary summary;
    uint64_t timeline = 0;  ///< timelineDigest of the results
};

/** Inputs of one topology: its offered rates (the request streams
 *  are generated per serve, outside the timed call). */
struct Stream
{
    const Topology *topology;
    std::vector<double> rates;
    uint64_t seed;

    std::vector<dfx::ServerRequest>
    requests(size_t i) const
    {
        dfx::WorkloadSpec spec;
        spec.nRequests = kRequests;
        spec.nIn = kIn;
        spec.nOut = kOut;
        spec.vocab = petite().vocabSize;
        spec.seed = seed;
        return dfx::poissonWorkload(spec, rates[i]);
    }
};

std::vector<Stream>
streams(const dfx::RoundCostModel &m, const std::vector<Topology> &topos,
        uint64_t seed)
{
    std::vector<Stream> out;
    for (const Topology &t : topos) {
        Stream s{&t, {}, seed};
        for (double f : kFractions)
            s.rates.push_back(f * capacityRps(m, t.topo));
        out.push_back(std::move(s));
    }
    return out;
}

LoadPoint
serveLoad(Run &run, const dfx::RoundCostModel &m, const Stream &s, size_t i)
{
    LoadPoint p;
    p.rate = s.rates[i];
    const std::vector<dfx::ServerRequest> reqs = s.requests(i);
    dfx::DfxFleet fleet(m, s.topology->topo);
    const double t0 = cpuNow();
    {
        SpanLog::Scope span(run.spans, "DfxFleet::serve");
        p.stats = fleet.serve(reqs);
    }
    p.hostSeconds = cpuNow() - t0;
    p.summary =
        summarize(p.stats.results, reqs, p.stats.makespanSeconds, kLimits);
    checkServed(run, fmt("%s at %.0f req/s", s.topology->name, p.rate),
                p.stats.results, reqs, p.stats.completedRequests,
                p.stats.totalShed, p.stats.totalFailed,
                p.stats.totalOutputTokens);
    p.timeline = timelineDigest(p.stats.results);
    p.stats.results = {};
    return p;
}

void
measure(Run &run, const std::vector<Topology> &topos)
{
    std::vector<double> setups;
    dfx::RoundCostModel m;
    for (int i = 0; i < kSetupReps; ++i) {
        double seconds = 0;
        m = calibrate(run, &seconds);
        setups.push_back(seconds);
    }
    run.report.set("setup_s", median(setups),
                   fmt("median of %d RoundCostModel::calibrate calls",
                       kSetupReps));
    const std::vector<Stream> in = streams(m, topos, run.opt.seed);

    std::vector<std::vector<LoadPoint>> first;  // [topology][load]
    std::vector<double> rates;
    bool repeatable = true;
    double rss = 0;
    const double t0 = now();
    while (morePasses(now() - t0, rates.size(), run.opt.seconds)) {
        SpanLog::Scope span(run.spans, "fleet pass");
        double events = 0, seconds = 0;
        std::vector<std::vector<LoadPoint>> pass;
        for (const Stream &s : in) {
            pass.emplace_back();
            for (size_t i = 0; i < s.rates.size(); ++i) {
                pass.back().push_back(serveLoad(run, m, s, i));
                events += pass.back().back().stats.eventsProcessed;
                seconds += pass.back().back().hostSeconds;
            }
        }
        rates.push_back(events / seconds);
        if (first.empty()) {
            first = std::move(pass);
            rss = peakRssMb();
        }
        else
            for (size_t t = 0; t < pass.size(); ++t)
                for (size_t i = 0; i < pass[t].size(); ++i)
                    repeatable = repeatable &&
                                 pass[t][i].timeline == first[t][i].timeline;
    }
    run.report.check(repeatable,
                     "every pass reproduces every modeled timestamp");
    run.report.set("fleet_events_per_s", median(rates),
                   fmt("median over passes (%s) of %zu serves x %zu "
                       "requests; events / serve() CPU seconds",
                       range(rates).c_str(),
                       topos.size() * std::size(kFractions), kRequests));
    run.report.set("peak_rss_mb", rss,
                   "getrusage ru_maxrss through set-up and the first pass");

    for (size_t t = 0; t < in.size(); ++t) {
        std::vector<ServedSummary> sums;
        for (const LoadPoint &p : first[t])
            sums.push_back(p.summary);
        printLoadTable(topos[t].name, in[t].rates, sums, kLimits,
                       kRequests / kBlocks);
        if (t != 0)
            continue;  // end-to-end metrics come from the colocated fleet
        const LoadPoint &top = first[t].back();
        run.report.set("modeled_tok_per_s",
                       top.stats.throughputTokensPerSec(),
                       fmt("output tokens / makespan, %s at %.0f req/s "
                           "(%.2g of capacity)",
                           topos[t].name, top.rate, kFractions[2]));
        reportLatency(run, first[t][kReference].summary, kBlocks,
                      fmt("%s at %.0f req/s (%.2g of capacity)",
                          topos[t].name, in[t].rates[kReference],
                          kFractions[kReference]));
        reportGoodput(run, in[t].rates, sums, kLimits,
                      fmt("%s, 0.5/0.8/1.1 of capacity", topos[t].name));
    }
}

void
trace(Run &run, const std::vector<Topology> &topos)
{
    double cal_seconds = 0;
    const dfx::RoundCostModel m = calibrate(run, &cal_seconds);
    run.report.set("fleet.calibrate_s", cal_seconds,
                   "RoundCostModel::calibrate, petite 4 cores 8 contexts");
    const std::vector<Stream> in = streams(m, topos, run.opt.seed);

    // The DES has no DFX_TRACE spans; the benchmark's own spans around
    // DfxFleet::serve are the traced part.
    std::vector<double> untraced;
    uint64_t plain = 0;
    serveLoad(run, m, in[1], kReference);  // warm-up
    for (int i = 0; i < 2; ++i) {
        const LoadPoint u = serveLoad(run, m, in[1], kReference);
        untraced.push_back(u.stats.eventsProcessed / u.hostSeconds);
        plain = u.timeline;
    }
    SrcTrace src(run.opt.outDir + "/dfx-trace-fleet.json");
    const LoadPoint co = serveLoad(run, m, in[0], kReference);
    const LoadPoint dis = serveLoad(run, m, in[1], kReference);
    src.stop();
    run.report.check(dis.timeline == plain,
                     "tracing changes no modeled timestamp");

    const std::string at = fmt("at %.2g of capacity", kFractions[kReference]);
    const double events =
        static_cast<double>(co.stats.eventsProcessed +
                            dis.stats.eventsProcessed);
    run.report.set("fleet.events", events,
                   "FleetStats events, colocated + disaggregated, " + at);
    run.report.set("fleet.host_ns_per_event",
                   (co.hostSeconds + dis.hostSeconds) / events * 1e9,
                   "serve() host time / events, both topologies, " + at);
    run.report.set("fleet.kv_transfers", dis.stats.kvTransfers,
                   "prefill -> decode handoffs, disaggregated, " + at);
    run.report.set("fleet.kv_transfer_mb",
                   dis.stats.kvTransferBytes / (1024.0 * 1024.0),
                   "handoff bytes, disaggregated, " + at);
    double util = 0;
    for (const dfx::FleetNodeStats &n : co.stats.nodes)
        util += n.utilization / co.stats.nodes.size();
    run.report.set("fleet.node_utilization", util,
                   "mean node busy / makespan, colocated, " + at);
    reportOverhead(run, "disaggregated events/s (median of 2 untraced "
                        "after a warm-up, 1 traced)",
                   median(untraced),
                   dis.stats.eventsProcessed / dis.hostSeconds);
}

}  // namespace

void
runFleet(Run &run)
{
    const std::vector<Topology> topos = topologies();
    if (run.opt.trace)
        trace(run, topos);
    else
        measure(run, topos);
}

}  // namespace perfbench
