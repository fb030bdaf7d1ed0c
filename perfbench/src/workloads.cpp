#include "workloads.hpp"

#include <algorithm>
#include <deque>
#include <stdexcept>

#include <poll.h>

#include "api/codec.hpp"
#include "generator.hpp"
#include "layers.hpp"
#include "net/line_client.hpp"
#include "stats.hpp"
#include "workload/model_zoo.hpp"

namespace perfbench {

namespace {

using ploop::LineClient;
using ploop::ServeConfig;
using ploop::ServeSession;

/** Mapper budgets.  cold_dse's is per network layer. */
constexpr Budget kColdBudget{100, 16};
constexpr Budget kHotBudget{64, 8};
constexpr Budget kMissBudget{64, 8};

/** EvalCache caps.  cold_dse never revisits a design point, so its
 *  cap only bounds memory; mixed_routed's is small enough that long
 *  runs evict. */
constexpr std::size_t kColdEvalCacheEntries = 50000;
constexpr std::size_t kMixedEvalCacheEntries = 20000;

/** Equal time slices of a window; throughput is the median slice
 *  rate, so a few seconds of host contention move it less. */
constexpr std::size_t kSlices = 10;

/** Set-ups per run; setup_s is their median. */
constexpr int kSetups = 5;

/** Traced responses kept per connection for span analysis. */
constexpr std::size_t kKeep = 1500;
constexpr std::size_t kColdKeep = 300;

/** One measured window of client traffic. */
struct Window
{
    std::vector<double> hit_us;  ///< OK result-cache hits.
    std::vector<double> miss_us; ///< OK cold requests.
    /** (completion s from window start, latency us), every OK. */
    std::vector<std::pair<double, double>> timeline;
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    double elapsed_s = 0;
    double cpu_s = 0; ///< Program CPU time (client threads excluded).
    std::vector<std::string> kept; ///< Traced responses.
    std::vector<double> kept_us;
    std::vector<double> lateness_us; ///< Open loop: send - due.
    double backlog_growth = 1.0;     ///< Open loop: see openLoop().
};

std::vector<double>
allLatencies(const Window &w)
{
    std::vector<double> all = w.hit_us;
    all.insert(all.end(), w.miss_us.begin(), w.miss_us.end());
    return all;
}

/**
 * Run @p setup @p times (after @p teardown of the previous one) and
 * return the median CPU seconds the process spent in it.  CPU time,
 * not wall time: on a shared host, steal moved the wall-clock figure
 * by 67% between two identical 10-run sets, while the work a set-up
 * does -- which is what a change can move into it -- is CPU.
 */
template <class Setup, class Teardown>
double
medianSetupCpu(int times, Setup &&setup, Teardown &&teardown)
{
    std::vector<double> seconds;
    for (int i = 0; i < times; ++i) {
        teardown();
        const double cpu0 = processCpuS();
        setup();
        seconds.push_back(processCpuS() - cpu0);
    }
    return median(seconds);
}

/** A seeded permutation of [0, n). */
std::vector<std::size_t>
permutation(std::size_t n, std::uint64_t seed)
{
    std::vector<std::size_t> p(n);
    for (std::size_t i = 0; i < n; ++i)
        p[i] = i;
    Rng rng(seed);
    for (std::size_t i = n; i > 1; --i)
        std::swap(p[i - 1], p[std::size_t(rng.below(i))]);
    return p;
}

/**
 * Pre-warm @p hot on the server at @p port: a cold pass, then a hit
 * pass whose responses become the expected bytes of every later
 * repeat.  False when any request fails or a repeat misses.
 */
bool
prewarm(std::uint16_t port, const std::vector<std::string> &hot,
        std::vector<std::string> &expected)
{
    LineClient client(port);
    if (!client.connected())
        return false;
    for (const std::string &line : hot)
        if (!responseOk(client.roundTrip(line)))
            return false;
    expected.assign(hot.size(), std::string());
    for (std::size_t j = 0; j < hot.size(); ++j) {
        expected[j] = client.roundTrip(hot[j]);
        if (!responseOk(expected[j]) || !fromResultCache(expected[j]))
            return false;
    }
    return true;
}

/** Does a hot-set response match its expected bytes?  Traced
 *  responses carry a span tree, so only the result bits compare. */
bool
hitMatches(const std::string &resp, const std::string &expected,
           bool traced)
{
    if (!traced)
        return resp == expected;
    return responseOk(resp) && fromResultCache(resp) &&
           searchBits(resp) == searchBits(expected);
}

/**
 * Oracle for the hot set: a serial in-process session answers each
 * line cold and then warm; the warm answer must equal the bytes the
 * served stack returned.  Each mismatched line fails every response
 * the window delivered for it.
 */
std::uint64_t
checkHotSet(ServeSession &replay, const std::vector<std::string> &hot,
            const std::vector<std::string> &expected,
            const std::vector<std::uint64_t> &served)
{
    std::uint64_t failed = 0;
    for (std::size_t j = 0; j < hot.size(); ++j) {
        replay.handleLine(hot[j]);
        if (replay.handleLine(hot[j]) != expected[j])
            failed += std::max<std::uint64_t>(1, served[j]);
    }
    return failed;
}

double
resultCacheHitRatio(std::initializer_list<ServeSession *> sessions)
{
    double hits = 0, lookups = 0;
    for (ServeSession *s : sessions) {
        ploop::EvalService::Stats st = s->service().stats();
        hits += double(st.result_cache_hits);
        lookups += double(st.result_cache_hits + st.result_cache_misses);
    }
    return lookups > 0 ? hits / lookups : 0.0;
}

double
meanPjPerMac(const std::vector<std::string> &responses, std::size_t n)
{
    n = std::min(n, responses.size());
    double sum = 0;
    for (std::size_t i = 0; i < n; ++i)
        sum += pjPerMac(responses[i]);
    return n ? sum / double(n) : 0.0;
}

void
addRecord(Report &r, const char *key, double v)
{
    r.record.set(key, ploop::JsonValue::number(v));
}

/** Client-side figures every workload prints by name (stderr). */
void
namedFigures(Report &r, const Window &w)
{
    if (!w.hit_us.empty()) {
        Quantiles h = summarize(w.hit_us);
        r.namedFigure("hit_p50_us", h.p50, "us");
        r.namedFigure("hit_p99_us", h.p99, "us");
        r.namedFigure("hit_samples", double(h.n), "count");
    }
    if (!w.miss_us.empty()) {
        Quantiles m = summarize(w.miss_us);
        r.namedFigure("miss_p50_ms", m.p50 / 1e3, "ms");
        r.namedFigure("miss_p90_ms", m.p90 / 1e3, "ms");
        r.namedFigure("miss_samples", double(m.n), "count");
    }
    Quantiles all = summarize(allLatencies(w));
    r.namedFigure("tail_level_pct", double(all.tail_ppm) / 1e4, "%");
    r.namedFigure("tail_us", all.tail, "us");
}

/** OK responses per second of a window: the median over kSlices
 *  equal time slices. */
double
medianSliceRate(const Window &w)
{
    const double width = w.elapsed_s / kSlices;
    std::vector<double> count(kSlices, 0.0);
    for (const auto &[done, us] : w.timeline)
        count[std::min(kSlices - 1, std::size_t(done / width))] += 1;
    for (double &c : count)
        c /= width;
    return median(count);
}

/**
 * The BENCHMARK.json end-to-end metrics of an untraced window.
 * Latencies are printed by name (stderr) and bounded nowhere: on a
 * shared 4-vCPU host, steal moved mixed_routed's median by 40% and
 * its p90 by 4x between identical runs.  Closed-loop throughput still
 * carries cold_dse's and warm_hits' latency, and CPU per request
 * carries the work every workload does.
 */
void
endToEnd(Report &r, double setup_s, const Window &w, double energy)
{
    r.metric("setup_s", setup_s, "s");
    r.metric("throughput_rps", medianSliceRate(w), "1/s");
    r.metric("cpu_us_per_req",
             w.cpu_s / double(w.timeline.size()) * 1e6, "us");
    r.metric("peak_rss_mb", peakRssMb(), "MB");
    r.metric("energy_pj_per_mac", energy, "pJ/MAC");
    r.metric("fig2_error_pct", fig2ErrorPct(), "%");
    namedFigures(r, w);
    r.namedFigure("failed_ratio",
                  r.attempted ? double(r.failed) / double(r.attempted)
                              : 0.0,
                  "ratio");
}

/** The per-layer metrics of a traced run (plain half + traced
 *  half), including the probes. */
void
perLayer(Report &r, const Window &plain, const Window &traced,
         double rc_hit_ratio, const ProbeInput &probe)
{
    const double p50_plain = median(allLatencies(plain));
    const double p50_traced = median(allLatencies(traced));
    TraceSummary ts = traceReport(traced.kept, traced.kept_us, r);
    r.metric("net.queue_wait_p50_us", ts.queue_wait_p50_us, "us");
    r.metric("net.queue_wait_p99_us", ts.queue_wait_p99_us, "us");
    r.metric("service.result_cache_hit_ratio", rc_hit_ratio, "ratio");
    r.metric("trace.overhead_ratio",
             p50_plain > 0 ? p50_traced / p50_plain : 0.0, "ratio");
    r.metric("trace.residual_us", ts.residual_us, "us");
    r.metric("trace.alerts", double(ts.alerts), "count");
    r.metric("gen.lateness_p99_us", summarize(plain.lateness_us).p99,
             "us");
    r.metric("gen.backlog_growth", plain.backlog_growth, "ratio");
    Quantiles h = summarize(plain.hit_us), m = summarize(plain.miss_us);
    r.metric("class.hit_p50_us", h.p50, "us");
    r.metric("class.hit_p99_us", h.p99, "us");
    r.metric("class.miss_p50_us", m.p50, "us");
    r.metric("class.miss_p90_us", m.p90, "us");
    auto okRate = [](const Window &w) {
        return double(w.timeline.size()) / w.elapsed_s;
    };
    r.lines.push_back("tracing overhead: traced p50 " +
                      std::to_string(p50_traced) + " us vs untraced " +
                      std::to_string(p50_plain) + " us; traced " +
                      std::to_string(okRate(traced)) +
                      " req/s vs untraced " + std::to_string(okRate(plain)) +
                      " req/s");
    if (!plain.lateness_us.empty()) {
        const Quantiles late = summarize(plain.lateness_us);
        r.lines.push_back(
            "generator lateness p50 " + std::to_string(late.p50) +
            " us, p99 " + std::to_string(late.p99) +
            " us; backlog growth (last/first quarter) " +
            std::to_string(plain.backlog_growth) +
            (plain.backlog_growth > 2.0 ? "  ALERT: backlog growing" : ""));
    }
    probeLayers(probe, r);
}

/** Adds a window's counts to the run totals. */
void
account(Report &r, const Window &w)
{
    r.attempted += w.attempted;
    r.failed += w.failed;
}

// ------------------------------------------------------------------
// cold_dse
// ------------------------------------------------------------------

ArchPoint
archOf(const ploop::AlbireoConfig &c)
{
    ArchPoint a;
    a.unit_k = c.unit_k;
    a.unit_c = c.unit_c;
    a.chip_k = c.chip_k;
    a.gb_capacity_words = c.gb_capacity_words;
    a.clock_hz = c.clock_hz;
    return a;
}

/** Probe lines of cold_dse: its first ResNet18 and VGG16 requests,
 *  plus one search line per distinct layer of each. */
ProbeInput
coldProbe(const std::vector<std::string> &lines, std::uint64_t seed)
{
    ProbeInput in;
    in.seed = seed;
    for (const char *net : {"\"resnet18\"", "\"vgg16\""}) {
        for (const std::string &line : lines) {
            if (line.find(net) == std::string::npos)
                continue;
            in.network_lines.push_back(line);
            ploop::NetworkRequest req =
                ploop::decodeRequestJson<ploop::NetworkRequest>(
                    *ploop::parseJson(line));
            ploop::Network network = ploop::makeNetwork(req.network);
            std::vector<std::string> seen;
            for (const ploop::LayerShape &l : network.layers()) {
                if (std::find(seen.begin(), seen.end(), l.str()) !=
                    seen.end())
                    continue;
                seen.push_back(l.str());
                in.search_lines.push_back(searchLine(
                    in.search_lines.size(), archOf(req.arch), l,
                    kColdBudget, req.options.seed));
            }
            break;
        }
    }
    return in;
}

Report
coldDse(const RunConfig &cfg)
{
    Report r;
    ServeConfig scfg;
    scfg.cache_max_entries = kColdEvalCacheEntries;
    std::unique_ptr<ServeSession> session;
    std::unique_ptr<ColdDseGenerator> gen;
    // Set-up is cheap here (an empty session), so take more samples.
    const double setup_s = medianSetupCpu(
        3 * kSetups,
        [&] {
            session = std::make_unique<ServeSession>(scfg);
            gen = std::make_unique<ColdDseGenerator>(cfg.seed, kColdBudget);
            // A client's session starts with the schema handshake.
            if (!responseOk(session->handleLine(
                    "{\"op\":\"capabilities\"}")))
                throw std::runtime_error("cold_dse: capabilities failed");
        },
        [&] { session.reset(); });

    std::vector<std::string> lines, responses;
    auto window = [&](double seconds, bool traced) {
        Window w;
        const double cpu0 = processCpuS();
        const std::uint64_t t0 = nowNs();
        const std::uint64_t deadline = t0 + std::uint64_t(seconds * 1e9);
        while (nowNs() < deadline) {
            std::string line = gen->next();
            const std::string sent = traced ? withTrace(line) : line;
            ++w.attempted;
            const std::uint64_t s = nowNs();
            std::string resp = session->handleLine(sent);
            const double us = double(nowNs() - s) / 1e3;
            if (responseOk(resp)) {
                w.miss_us.push_back(us);
                w.timeline.emplace_back(double(nowNs() - t0) / 1e9, us);
            } else {
                ++w.failed;
            }
            if (traced) {
                // Network span trees are large: keep a sample for the
                // span analysis and only the untraced body for the
                // oracle (the trace member is the last one).
                if (w.kept.size() < kColdKeep) {
                    w.kept.push_back(resp);
                    w.kept_us.push_back(us);
                }
                std::size_t at = resp.rfind(",\"trace\":");
                if (at != std::string::npos)
                    resp = resp.substr(0, at) + "}";
            }
            lines.push_back(std::move(line));
            responses.push_back(std::move(resp));
        }
        w.elapsed_s = double(nowNs() - t0) / 1e9;
        w.cpu_s = processCpuS() - cpu0;
        return w;
    };

    Window plain = window(cfg.trace ? cfg.seconds / 2 : cfg.seconds,
                          false);
    Window traced;
    if (cfg.trace)
        traced = window(cfg.seconds / 2, true);
    account(r, plain);
    account(r, traced);

    const double rc_hit_ratio = resultCacheHitRatio({session.get()});
    session.reset();

    // Oracle: a fresh serial session replays every line.
    {
        ServeSession replay(scfg);
        for (std::size_t i = 0; i < lines.size(); ++i)
            if (comparable(replay.handleLine(lines[i])) !=
                comparable(responses[i]))
                ++r.failed;
    }

    const std::size_t round = gen->roundSize();
    addRecord(r, "connections", 0);
    addRecord(r, "design_points", double(lines.size()));
    addRecord(r, "round_size", double(round));
    if (responses.size() < round)
        r.lines.push_back("WARNING: fewer requests than one round; "
                          "energy_pj_per_mac covers a partial round");
    if (!cfg.trace) {
        endToEnd(r, setup_s, plain, meanPjPerMac(responses, round));
    } else {
        perLayer(r, plain, traced, rc_hit_ratio,
                 coldProbe(lines, cfg.seed));
    }
    return r;
}

// ------------------------------------------------------------------
// warm_hits
// ------------------------------------------------------------------

Report
warmHits(const RunConfig &cfg)
{
    Report r;
    const std::vector<std::string> hot = hotSet(cfg.seed, kHotBudget);
    std::vector<std::string> expected;
    ServeConfig scfg;
    scfg.transport = "tcp";
    std::unique_ptr<Server> server;
    bool warm_ok = true;
    const double setup_s = medianSetupCpu(
        kSetups,
        [&] {
            server = std::make_unique<Server>(scfg);
            warm_ok = warm_ok && prewarm(server->port(), hot, expected);
        },
        [&] { server.reset(); });
    if (!warm_ok)
        throw std::runtime_error("warm_hits: pre-warm failed");

    // One lockstep connection.  With two, both requests contend for
    // the server's single executing lane, and the median flips between
    // "served alone" and "served behind the other" from run to run.
    const std::vector<std::size_t> order =
        permutation(hot.size(), mixSeed(cfg.seed, 10));
    std::vector<std::uint64_t> served(hot.size(), 0);

    auto window = [&](double seconds, bool traced) {
        std::vector<std::string> sent = hot;
        if (traced)
            for (std::string &line : sent)
                line = withTrace(line);
        const double cpu0 = processCpuS();
        LoopResult lr = closedLoop(
            server->port(), 1, seconds,
            [&](unsigned, std::uint64_t k) -> const std::string & {
                return sent[order[k % hot.size()]];
            },
            [&](unsigned, std::uint64_t k, const std::string &resp) {
                std::size_t j = order[k % hot.size()];
                ++served[j];
                return hitMatches(resp, expected[j], traced);
            },
            traced ? kKeep : 0);
        Window w;
        for (std::size_t i = 0; i < lr.done_s.size(); ++i)
            w.timeline.emplace_back(lr.done_s[i], lr.latency_us[i]);
        w.hit_us = std::move(lr.latency_us);
        w.attempted = lr.attempted;
        w.failed = lr.failed;
        w.elapsed_s = lr.elapsed_s;
        w.cpu_s = processCpuS() - cpu0 - lr.client_cpu_s;
        w.kept = std::move(lr.kept);
        w.kept_us = std::move(lr.kept_latency_us);
        return w;
    };

    Window plain = window(cfg.trace ? cfg.seconds / 2 : cfg.seconds,
                          false);
    Window traced;
    if (cfg.trace)
        traced = window(cfg.seconds / 2, true);
    account(r, plain);
    account(r, traced);
    {
        ServeSession replay;
        r.failed += checkHotSet(replay, hot, expected, served);
    }

    addRecord(r, "connections", 1);
    addRecord(r, "hot_set", double(hot.size()));
    if (!cfg.trace) {
        endToEnd(r, setup_s, plain, meanPjPerMac(expected, hot.size()));
    } else {
        ProbeInput probe;
        probe.search_lines = hot;
        probe.seed = cfg.seed;
        perLayer(r, plain, traced,
                 resultCacheHitRatio({&server->session()}), probe);
    }
    return r;
}

// ------------------------------------------------------------------
// mixed_routed
// ------------------------------------------------------------------

struct MixedState
{
    const std::vector<std::string> &hot;
    const std::vector<std::string> &expected;
    std::vector<std::uint64_t> served;
    /** (line, response) of every miss, for the oracle. */
    std::vector<std::pair<std::string, std::string>> misses;
};

/**
 * The open loop: one thread sends @p gen's requests at their Poisson
 * due times over two connections (request i on connection i % 2,
 * pipelined when the previous one is still out) and reads responses
 * as they arrive.  Latency runs from the DUE time, so a stall also
 * charges the requests queued behind it.  backlog_growth is the mean
 * number of outstanding requests over the last quarter of sends
 * divided by that over the first quarter: near 1 when the system
 * keeps up, growing when it does not.
 */
Window
openLoop(std::uint16_t port, MixedGenerator &gen, double seconds,
         bool traced, MixedState &st)
{
    struct Pending
    {
        std::uint64_t due_ns;
        bool miss;
        std::size_t hot_index;
        std::string line;
    };
    Window w;
    PollConn conns[2];
    for (PollConn &c : conns)
        if (!c.connect(port))
            throw std::runtime_error("mixed_routed: cannot connect");
    std::deque<Pending> fifo[2];
    bool dead[2] = {false, false};
    std::size_t outstanding = 0;
    std::vector<double> backlog;

    const double cpu0 = processCpuS(), own_cpu0 = threadCpuS();
    const std::uint64_t t0 = nowNs();
    const std::uint64_t end = t0 + std::uint64_t(seconds * 1e9);
    const std::uint64_t drain_deadline = end + 30000000000ull;
    std::uint64_t last_recv = t0;
    MixedGenerator::Request next = gen.next();
    std::uint64_t due = t0 + next.gap_ns;
    std::uint64_t sent_count = 0;
    bool sending = true;

    for (;;) {
        std::uint64_t now = nowNs();
        if (sending && due >= end)
            sending = false;
        if (sending && due <= now) {
            const unsigned c = unsigned(sent_count++ % 2);
            ++w.attempted;
            if (dead[c] ||
                !conns[c].send(traced ? withTrace(next.line) : next.line)) {
                ++w.failed;
            } else {
                w.lateness_us.push_back(double(now - due) / 1e3);
                fifo[c].push_back({due, next.miss, next.hot_index,
                                   next.miss ? next.line : std::string()});
                backlog.push_back(double(++outstanding));
            }
            next = gen.next();
            due += next.gap_ns;
            continue;
        }
        if ((!sending && outstanding == 0) || now >= drain_deadline)
            break;
        const std::uint64_t wake = sending ? due : drain_deadline;
        const std::uint64_t wait = wake > now ? wake - now : 0;
        timespec ts{time_t(wait / 1000000000ull),
                    long(wait % 1000000000ull)};
        pollfd pfds[2];
        for (unsigned c = 0; c < 2; ++c)
            pfds[c] = pollfd{dead[c] ? -1 : conns[c].fd(), POLLIN, 0};
        if (::ppoll(pfds, 2, &ts, nullptr) <= 0)
            continue;
        for (unsigned c = 0; c < 2; ++c) {
            if (dead[c] || pfds[c].revents == 0)
                continue;
            std::vector<std::string> got;
            const bool alive = conns[c].readLines(got);
            const std::uint64_t t_recv = nowNs();
            for (std::string &resp : got) {
                if (fifo[c].empty()) {
                    ++w.failed; // an answer nobody asked for
                    continue;
                }
                Pending p = std::move(fifo[c].front());
                fifo[c].pop_front();
                --outstanding;
                last_recv = t_recv;
                const double us = double(t_recv - p.due_ns) / 1e3;
                bool ok;
                if (p.miss) {
                    ok = responseOk(resp) && !fromResultCache(resp);
                    if (ok)
                        w.miss_us.push_back(us);
                    st.misses.emplace_back(std::move(p.line), resp);
                } else {
                    ++st.served[p.hot_index];
                    ok = hitMatches(resp, st.expected[p.hot_index],
                                    traced);
                    if (ok)
                        w.hit_us.push_back(us);
                }
                if (ok)
                    w.timeline.emplace_back(double(t_recv - t0) / 1e9, us);
                else
                    ++w.failed;
                if (traced && ok && w.kept.size() < 2 * kKeep) {
                    w.kept.push_back(std::move(resp));
                    w.kept_us.push_back(us);
                }
            }
            if (!alive) {
                // Dropped connection: everything still out fails.
                dead[c] = true;
                w.failed += fifo[c].size();
                outstanding -= fifo[c].size();
                fifo[c].clear();
            }
        }
    }
    w.failed += outstanding; // never answered within the drain bound
    w.elapsed_s = double(last_recv - t0) / 1e9;
    w.cpu_s = processCpuS() - cpu0 - (threadCpuS() - own_cpu0);
    const std::size_t q = backlog.size() / 4;
    if (q > 0) {
        double first = 0, last = 0;
        for (std::size_t i = 0; i < q; ++i) {
            first += backlog[i];
            last += backlog[backlog.size() - 1 - i];
        }
        w.backlog_growth = last / first;
    }
    return w;
}

ServeConfig
mixedServeConfig()
{
    ServeConfig scfg;
    scfg.transport = "tcp";
    scfg.cache_max_entries = kMixedEvalCacheEntries;
    return scfg;
}

Report
mixedRouted(const RunConfig &cfg)
{
    Report r;
    const double rate = kMixedRateRps;
    const std::vector<std::string> hot = hotSet(cfg.seed, kHotBudget);
    std::vector<std::string> expected;
    std::unique_ptr<Cluster> cluster;
    bool warm_ok = true;
    const double setup_s = medianSetupCpu(
        kSetups,
        [&] {
            cluster = std::make_unique<Cluster>(mixedServeConfig());
            warm_ok = warm_ok && prewarm(cluster->port(), hot, expected);
        },
        [&] { cluster.reset(); });
    if (!warm_ok)
        throw std::runtime_error("mixed_routed: pre-warm failed");

    MixedState st{hot, expected,
                  std::vector<std::uint64_t>(hot.size(), 0), {}};
    MixedGenerator gen(cfg.seed, hot, kMissBudget, rate);
    Window plain = openLoop(cluster->port(), gen,
                            cfg.trace ? cfg.seconds / 2 : cfg.seconds,
                            false, st);
    Window traced;
    if (cfg.trace)
        traced = openLoop(cluster->port(), gen, cfg.seconds / 2, true, st);
    account(r, plain);
    account(r, traced);

    // Oracle: hits byte-identical to a direct serial session, misses
    // identical apart from wall time and the EvalCache split.
    {
        ServeSession replay(mixedServeConfig());
        r.failed += checkHotSet(replay, hot, expected, st.served);
        for (const auto &[line, resp] : st.misses)
            if (comparable(replay.handleLine(line)) != comparable(resp))
                ++r.failed;
    }

    addRecord(r, "connections", 2);
    addRecord(r, "offered_rate_rps", rate);
    addRecord(r, "hot_set", double(hot.size()));
    addRecord(r, "misses", double(st.misses.size()));
    if (!cfg.trace) {
        endToEnd(r, setup_s, plain, meanPjPerMac(expected, hot.size()));
        Quantiles late = summarize(plain.lateness_us);
        r.namedFigure("lateness_p50_us", late.p50, "us");
        r.namedFigure("lateness_p99_us", late.p99, "us");
        r.namedFigure("backlog_growth", plain.backlog_growth, "ratio");
    } else {
        ProbeInput probe;
        probe.search_lines = hot;
        probe.seed = cfg.seed;
        perLayer(r, plain, traced,
                 resultCacheHitRatio({&cluster->worker(0).session(),
                                      &cluster->worker(1).session()}),
                 probe);
    }
    return r;
}

} // namespace

const std::vector<std::string> &
workloadNames()
{
    static const std::vector<std::string> names = {
        "cold_dse", "warm_hits", "mixed_routed"};
    return names;
}

Report
runWorkload(const RunConfig &cfg)
{
    if (cfg.workload == "cold_dse")
        return coldDse(cfg);
    if (cfg.workload == "warm_hits")
        return warmHits(cfg);
    if (cfg.workload == "mixed_routed")
        return mixedRouted(cfg);
    throw std::runtime_error("unknown workload '" + cfg.workload + "'");
}

double
calibrateMixed(const RunConfig &cfg)
{
    const std::vector<std::string> hot = hotSet(cfg.seed, kHotBudget);
    std::vector<std::string> expected;
    Cluster cluster(mixedServeConfig());
    if (!prewarm(cluster.port(), hot, expected))
        throw std::runtime_error("calibrate: pre-warm failed");
    MixedGenerator gens[2] = {
        MixedGenerator(cfg.seed, hot, kMissBudget, 1.0),
        MixedGenerator(mixSeed(cfg.seed, 20), hot, kMissBudget, 1.0)};
    std::string current[2];
    LoopResult lr = closedLoop(
        cluster.port(), 2, cfg.seconds,
        [&](unsigned c, std::uint64_t) -> const std::string & {
            current[c] = gens[c].next().line;
            return current[c];
        },
        [](unsigned, std::uint64_t, const std::string &) { return true; });
    return double(lr.latency_us.size()) / lr.elapsed_s;
}

} // namespace perfbench
