/**
 * @file
 * Workload `serve`: DfxServer in timing-only mode, 2 clusters x 4
 * cores of gpt2-petite, paged KV (16-token blocks, a pool the size of
 * 8 unpaged contexts, 16 virtual contexts, prefix sharing on). Open
 * loop: a seeded Poisson stream at each of three fixed rates spanning
 * the knee (6000, 4000 and 1000 requests), 16 output tokens each.
 * Half the requests carry one shared 96-token system prompt plus 8
 * user tokens, the other half 8 unshared tokens. Arrivals are simulated
 * timestamps, so the generator never runs late and TTFT counts from
 * the due time by construction. Admission, continuous batching, the
 * batched-round roofline and the KV pager do the work.
 */
#include <memory>

#include "appliance/server.hpp"
#include "appliance/workload.hpp"
#include "serving.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

constexpr size_t kClusters = 2;
constexpr size_t kCores = 4;
constexpr size_t kBlockTokens = 16;
constexpr size_t kPoolContexts = 8;  ///< pool = this many unpaged contexts
constexpr size_t kVirtualContexts = 16;
constexpr size_t kSystemTokens = 96;
constexpr size_t kUserTokens = 8;
constexpr size_t kOut = 16;
/** Offered rates (req/s); the reference rate is kRates[kReference]. */
constexpr double kRates[] = {100, 150, 400};
constexpr size_t kReference = 0;
/** Requests per rate. The reference rate's stream is six 1000-request
 *  blocks, so its tail is the median of six p99s. A burst costs a few
 *  dozen requests their limits, so the rates that must pass carry
 *  enough requests that one burst stays under the 1% the goodput rule
 *  allows. */
constexpr size_t kRequests[] = {6000, 4000, 1000};
constexpr size_t kBlock = 1000;
/** Requests of the traced run's host-span segment. */
constexpr size_t kTracedRequests = 200;
/** Fixed goodput limits on every request (modeled ms). */
constexpr Limits kLimits{20.0, 2.0};

dfx::DfxSystemConfig
config()
{
    dfx::DfxSystemConfig cfg;
    cfg.model = petite();
    cfg.nCores = kCores;
    cfg.functional = false;
    cfg.kvContexts = kVirtualContexts;
    cfg.pagedKv.enabled = true;
    cfg.pagedKv.blockTokens = kBlockTokens;
    cfg.pagedKv.physBlocks =
        kPoolContexts * (cfg.model.maxSeq / kBlockTokens);
    cfg.pagedKv.prefixSharing = true;
    return cfg;
}

/** Even requests get the shared system prompt in front. */
std::vector<dfx::ServerRequest>
requests(uint64_t seed, double rate, size_t n)
{
    dfx::WorkloadSpec spec;
    spec.nRequests = n;
    spec.nIn = kUserTokens;
    spec.nOut = kOut;
    spec.vocab = petite().vocabSize;
    spec.seed = seed;
    std::vector<dfx::ServerRequest> reqs = dfx::poissonWorkload(spec, rate);
    const std::vector<int32_t> system =
        seededTokens(seed ^ 0x5157e3ull, kSystemTokens, spec.vocab);
    for (size_t i = 0; i < reqs.size(); i += 2)
        reqs[i].prompt.insert(reqs[i].prompt.begin(), system.begin(),
                              system.end());
    return reqs;
}

/** One rate served by a fresh server (so pager state starts empty). */
struct RatePoint
{
    double rate = 0;
    double hostSeconds = 0;
    double constructSeconds = 0;
    dfx::ServerStats stats;
    ServedSummary summary;
    // Pager counters summed (hits, tokens) or maxed (peaks) over
    // clusters.
    size_t prefixHits = 0;
    uint64_t sharedTokens = 0;
    uint64_t promptTokens = 0;
    size_t peakMapped = 0;
    size_t peakResident = 0;
    dfx::perf::HostStepProfile profile;  ///< summed over clusters
    uint64_t timeline = 0;  ///< timelineDigest of the results
};

RatePoint
serveRate(Run &run, double rate, const std::vector<dfx::ServerRequest> &reqs)
{
    RatePoint p;
    p.rate = rate;
    const double t0 = cpuNow();
    std::unique_ptr<dfx::DfxServer> server;
    {
        SpanLog::Scope s(run.spans, "DfxServer()");
        server = std::make_unique<dfx::DfxServer>(config(), kClusters);
    }
    const double t1 = cpuNow();
    {
        SpanLog::Scope s(run.spans, "DfxServer::serve");
        p.stats = server->serve(reqs);
    }
    p.hostSeconds = cpuNow() - t1;
    p.constructSeconds = t1 - t0;
    p.summary = summarize(p.stats.results, reqs, p.stats.makespanSeconds,
                          kLimits);

    // Conservation after the drain: every lease is back, no context
    // is open, and the only mapped blocks are the ones the prefix
    // index may keep pinned (its FIFO of registered prompts).
    bool drained = true;
    size_t retained = 0, bound = 0;
    for (size_t c = 0; c < kClusters; ++c) {
        dfx::DfxAppliance &app = server->cluster(c);
        const dfx::KvPager *pager = app.cluster().pager();
        drained = drained && app.freeContexts() == app.kvContexts() &&
                  pager->activeContexts() == 0;
        retained += pager->mappedBlocks();
        bound += app.config().pagedKv.maxPrefixEntries *
                 pager->blocksPerContext();
        p.prefixHits += pager->prefixHits();
        p.sharedTokens += pager->sharedTokensTotal();
        p.promptTokens += pager->promptTokensTotal();
        p.peakMapped = std::max(p.peakMapped, pager->peakMappedBlocks());
        p.peakResident =
            std::max(p.peakResident, pager->peakActiveContexts());
        p.profile += app.cluster().hostProfile();
    }
    run.report.check(drained && retained <= bound,
                     fmt("%.0f req/s: every KV lease back, no open "
                         "context, %zu mapped blocks (prefix index, "
                         "bound %zu)",
                         rate, retained, bound));
    checkServed(run, fmt("%.0f req/s", rate), p.stats.results, reqs,
                p.stats.completedRequests, p.stats.totalShed,
                p.stats.totalFailed, p.stats.totalOutputTokens);
    p.timeline = timelineDigest(p.stats.results);
    return p;
}

std::vector<RatePoint>
servePass(Run &run, const std::vector<std::vector<dfx::ServerRequest>> &reqs)
{
    SpanLog::Scope span(run.spans, "serve pass");
    std::vector<RatePoint> out;
    for (size_t i = 0; i < reqs.size(); ++i)
        out.push_back(serveRate(run, kRates[i], reqs[i]));
    return out;
}

size_t
requestsPerPass()
{
    size_t n = 0;
    for (size_t r : kRequests)
        n += r;
    return n;
}

double
passRate(const std::vector<RatePoint> &pass)
{
    double seconds = 0, n = 0;
    for (const RatePoint &p : pass) {
        seconds += p.hostSeconds;
        n += p.stats.requests;
    }
    return n / seconds;
}

void
measure(Run &run, const std::vector<std::vector<dfx::ServerRequest>> &reqs)
{
    // Set-up: the servers are built per rate inside the pass (a fresh
    // pager per rate), so set-up is input generation and one warm
    // serve of a short stream that touches every code path.
    std::vector<double> setups;
    for (int i = 0; i < kSetupReps; ++i) {
        SpanLog::Scope span(run.spans, "serve.setup");
        const double t0 = cpuNow();
        const auto warm = requests(run.opt.seed + 1 + i, kRates[0], 64);
        dfx::DfxServer server(config(), kClusters);
        server.serve(warm);
        setups.push_back(cpuNow() - t0);
    }
    run.report.set("setup_s", median(setups),
                   fmt("median of %d set-ups: a warm 64-request serve",
                       kSetupReps));

    std::vector<RatePoint> first;
    std::vector<double> rates;
    bool repeatable = true;
    double rss = 0;
    const double t0 = now();
    while (morePasses(now() - t0, rates.size(), run.opt.seconds)) {
        std::vector<RatePoint> pass = servePass(run, reqs);
        rates.push_back(passRate(pass));
        if (first.empty()) {
            first = pass;
            rss = peakRssMb();
        }
        for (size_t i = 0; i < pass.size(); ++i)
            repeatable =
                repeatable && pass[i].timeline == first[i].timeline;
    }
    run.report.check(repeatable,
                     "every pass reproduces every modeled timestamp");
    run.report.set("serve_sim_req_per_s", median(rates),
                   fmt("median over passes (%s) of %zu requests; "
                       "serve() CPU seconds",
                       range(rates).c_str(), requestsPerPass()));
    run.report.set("peak_rss_mb", rss,
                   "getrusage ru_maxrss through set-up and the first pass");

    std::vector<ServedSummary> sums;
    for (const RatePoint &p : first)
        sums.push_back(p.summary);
    printLoadTable("serve", kRates, sums, kLimits, kBlock);
    const RatePoint &top = first.back();
    run.report.set("modeled_tok_per_s", top.stats.throughputTokensPerSec(),
                   fmt("output tokens / makespan at %.0f req/s", top.rate));
    reportLatency(run, sums[kReference], sums[kReference].sent / kBlock,
                  fmt("%.0f req/s", kRates[kReference]));
    reportGoodput(run, kRates, sums, kLimits,
                  "6000/4000/1000 requests per rate");
}

void
trace(Run &run, const std::vector<std::vector<dfx::ServerRequest>> &reqs)
{
    // Counters come from the whole reference stream, untraced; host
    // spans from a traced 200-request prefix of it (the whole stream
    // would write a trace of hundreds of MB).
    const double rate = kRates[kReference];
    const std::vector<dfx::ServerRequest> &ref = reqs[kReference];
    const RatePoint p = serveRate(run, rate, ref);
    const std::vector<dfx::ServerRequest> head(ref.begin(),
                                               ref.begin() + kTracedRequests);
    std::vector<double> untraced;
    uint64_t plain = 0;
    for (int i = 0; i < 3; ++i) {
        const RatePoint u = serveRate(run, rate, head);
        untraced.push_back(head.size() / u.hostSeconds);
        plain = u.timeline;
    }
    SrcTrace src(run.opt.outDir + "/dfx-trace-serve.json");
    const RatePoint traced = serveRate(run, rate, head);
    const SrcTrace::Totals span = src.stop();
    run.report.check(traced.timeline == plain,
                     "tracing changes no modeled timestamp");

    const std::string at = fmt("at %.0f req/s", p.rate);
    size_t shared_requests = 0;
    for (const dfx::ServerRequest &r : ref)
        shared_requests += r.prompt.size() > kUserTokens;
    run.report.set("kv.prefix_hit_rate",
                   static_cast<double>(p.prefixHits) / shared_requests,
                   fmt("%zu prefix hits / %zu shared-prompt requests, ",
                       p.prefixHits, shared_requests) + at);
    run.report.set("kv.shared_token_frac",
                   static_cast<double>(p.sharedTokens) / p.promptTokens,
                   "pager shared prompt tokens / prompt tokens, " + at);
    run.report.set("kv.peak_mapped_blocks", p.peakMapped,
                   fmt("peak of %zu pool blocks, busiest cluster, ",
                       kPoolContexts * (petite().maxSeq / kBlockTokens)) +
                       at);
    run.report.set("kv.peak_resident_contexts", p.peakResident,
                   fmt("of %zu virtual contexts, busiest cluster, ",
                       kVirtualContexts) + at);
    reportQueueing(run, p.summary, ref.size() / kBlock, at);
    double util = 0;
    for (const dfx::ClusterEpochStats &c : p.stats.clusters)
        util += c.utilization / p.stats.clusters.size();
    run.report.set("server.utilization", util,
                   "mean cluster busy / makespan, " + at);
    run.report.set("server.host_us_per_token",
                   p.hostSeconds / p.stats.totalOutputTokens * 1e6,
                   "serve() host seconds / output tokens, " + at);
    run.report.set("server.shed", p.stats.totalShed, "ServerStats, " + at);
    run.report.set("server.failed", p.stats.totalFailed,
                   "ServerStats, " + at);
    run.report.set("appliance.construct_s", p.constructSeconds,
                   "DfxServer constructor: 2 timing-only paged clusters");

    const double steps = static_cast<double>(traced.profile.steps);
    const std::string shortened =
        fmt("traced first %zu requests, %.0f cluster token steps",
            kTracedRequests, steps);
    std::printf("traced serve is shortened: %s\n", shortened.c_str());
    reportHostProfile(run, traced.profile, steps);
    run.report.set("cluster.execute_ms_per_step",
                   span("execute") / steps * 1e3,
                   "execute spans / steps (timing model), " + shortened);
    run.report.set("cluster.ring_sync_ms_per_step",
                   span("ring-sync") / steps * 1e3,
                   "ring-sync spans / steps, " + shortened);
    reportOverhead(run, "serve req/s, first 200 requests (median of 3 "
                        "untraced, 1 traced)",
                   median(untraced), head.size() / traced.hostSeconds);
}

}  // namespace

void
runServe(Run &run)
{
    std::vector<std::vector<dfx::ServerRequest>> reqs;
    for (size_t i = 0; i < std::size(kRates); ++i)
        reqs.push_back(requests(run.opt.seed, kRates[i], kRequests[i]));
    if (run.opt.trace)
        trace(run, reqs);
    else
        measure(run, reqs);
}

}  // namespace perfbench
