#include "layers.hpp"

#include <algorithm>
#include <cstdio>
#include <map>
#include <optional>
#include <random>
#include <set>

#include "api/codec.hpp"
#include "api/fingerprint.hpp"
#include "mapper/eval_cache.hpp"
#include "mapper/mapspace.hpp"
#include "net/line_client.hpp"
#include "stats.hpp"

namespace perfbench {

namespace {

using ploop::JsonValue;

/** Results fold into this so the optimizer keeps every timed call. */
volatile std::uint64_t g_sink = 0;

/** Probe at most this many lines (and kernel (arch, layer) pairs). */
constexpr std::size_t kMaxProbeLines = 32;
constexpr std::size_t kMaxKernelPairs = 16;
/** Repetitions per timed call, and random samples per kernel pair. */
constexpr int kReps = 40;
constexpr std::size_t kSamples = 2000;

/** Mean ns per call of @p f over @p reps calls. */
template <class F>
double
perCallNs(int reps, F &&f)
{
    const std::uint64_t t0 = nowNs();
    for (int i = 0; i < reps; ++i)
        f();
    return double(nowNs() - t0) / reps;
}

double
number(const JsonValue &node, const char *key)
{
    const JsonValue *v = node.get(key);
    return v && v->isNumber() ? v->asNumber() : 0.0;
}

const std::vector<JsonValue> &
children(const JsonValue &node)
{
    static const std::vector<JsonValue> none;
    const JsonValue *c = node.get("children");
    return c && c->isArray() ? c->items() : none;
}

/**
 * Accumulate self times by span name over one tree.  A request root
 * (the server's, or a worker's grafted under the router's
 * upstream_wait) holds sequential sections, so its children must sum
 * to at most its own duration; anything else raises an alert.  Other
 * parents may hold parallel children (search shards), so their self
 * time is clamped at zero instead.
 */
void
walk(const JsonValue &node, std::map<std::string, double> &self,
     std::vector<double> &queue_waits, std::uint64_t &alerts)
{
    const std::string name = node.get("name")->asString();
    const double dur = number(node, "dur_us");
    double child_sum = 0;
    for (const JsonValue &c : children(node)) {
        child_sum += number(c, "dur_us");
        walk(c, self, queue_waits, alerts);
    }
    if (name == "request" && child_sum > dur + 1.0)
        ++alerts;
    self[name] += std::max(0.0, dur - child_sum);
    if (name == "queue_wait")
        queue_waits.push_back(dur);
}

/** Sum of the durations of the mapper phase spans in one tree. */
void
sumPhases(const JsonValue &node, double &seeds, double &random,
          double &hill)
{
    const std::string name = node.get("name")->asString();
    if (name == "seeds") {
        seeds += number(node, "dur_us");
    } else if (name == "random_search") {
        random += number(node, "dur_us");
    } else if (name == "hill_climb") {
        hill += number(node, "dur_us");
    } else {
        for (const JsonValue &c : children(node))
            sumPhases(c, seeds, random, hill);
    }
}

std::string
fmt(const char *format, double a, double b = 0, double c = 0)
{
    char buf[160];
    std::snprintf(buf, sizeof(buf), format, a, b, c);
    return buf;
}

} // namespace

TraceSummary
traceReport(const std::vector<std::string> &responses,
            const std::vector<double> &rtt_us, Report &report)
{
    // Result-cache hits and cold requests run different layers, so
    // each class gets its own self-time table.
    struct ClassTable
    {
        std::map<std::string, std::vector<double>> self;
        std::vector<double> rtt, residual;
    };
    std::map<std::string, ClassTable> classes;
    TraceSummary out;
    std::vector<double> queue_waits, residuals;
    for (std::size_t i = 0; i < responses.size(); ++i) {
        std::optional<JsonValue> doc = ploop::parseJson(responses[i]);
        const JsonValue *tree = doc ? doc->get("trace") : nullptr;
        if (!tree)
            continue;
        ClassTable &t = classes[fromResultCache(responses[i])
                                    ? "result-cache hits"
                                    : "cold requests"];
        std::map<std::string, double> per;
        walk(*tree, per, queue_waits, out.alerts);
        for (const auto &[name, us] : per)
            t.self[name].push_back(us);
        const double root = number(*tree, "dur_us");
        t.rtt.push_back(rtt_us[i]);
        t.residual.push_back(rtt_us[i] - root);
        residuals.push_back(rtt_us[i] - root);
        if (root > rtt_us[i] + 1.0)
            ++out.alerts; // the server claims more than the client saw
    }
    Quantiles q = summarize(queue_waits);
    out.queue_wait_p50_us = q.p50;
    out.queue_wait_p99_us = q.p99;
    out.residual_us = median(residuals);

    for (const auto &[label, t] : classes) {
        const double rtt = median(t.rtt), residual = median(t.residual);
        std::vector<std::pair<double, std::string>> rows;
        for (const auto &[name, v] : t.self)
            rows.emplace_back(median(v), name);
        std::sort(rows.rbegin(), rows.rend());
        report.lines.push_back(
            fmt("per-layer self time, %.0f traced ", double(t.rtt.size())) +
            label + fmt(" (median client round trip %.1f us):", rtt));
        for (const auto &[us, name] : rows)
            report.lines.push_back(
                fmt("  %10.1f us  %5.1f%%  ", us,
                    rtt > 0 ? 100 * us / rtt : 0) +
                name);
        report.lines.push_back(
            fmt("  %10.1f us  %5.1f%%  residual (client round trip minus "
                "server root span)",
                residual, rtt > 0 ? 100 * residual / rtt : 0));
    }
    if (out.alerts > 0)
        report.lines.push_back(
            fmt("ALERT: %.0f traces where a layer sum exceeds its "
                "end-to-end time",
                double(out.alerts)));
    return out;
}

void
probeLayers(const ProbeInput &in, Report &report)
{
    using namespace ploop;
    std::vector<std::string> lines(
        in.search_lines.begin(),
        in.search_lines.begin() +
            std::ptrdiff_t(std::min(in.search_lines.size(), kMaxProbeLines)));

    // --- api: the codec on the workload's own lines ----------------
    std::vector<double> parse_us, decode_us, fp_us;
    std::vector<SearchRequest> reqs;
    for (const std::string &line : lines) {
        parse_us.push_back(perCallNs(kReps, [&] {
                               g_sink += parseJson(line)->members().size();
                           }) / 1e3);
        const JsonValue parsed = *parseJson(line);
        decode_us.push_back(perCallNs(kReps, [&] {
                                g_sink += decodeRequestJson<SearchRequest>(
                                              parsed)
                                              .options.seed;
                            }) / 1e3);
        reqs.push_back(decodeRequestJson<SearchRequest>(parsed));
        fp_us.push_back(perCallNs(kReps, [&] {
                            g_sink += requestFingerprint(reqs.back());
                        }) / 1e3);
    }

    // --- service + mapper: cold pass with a bench-owned SpanRef ----
    ServeConfig scfg;
    scfg.transport = "tcp";
    Server server(scfg);
    EvalService &svc = server.session().service();
    std::set<std::uint64_t> built;
    std::vector<double> build_ms;
    auto build = [&](const AlbireoConfig &c) {
        if (!built.insert(albireoConfigKey(c)).second)
            return;
        const std::uint64_t t0 = nowNs();
        g_sink += svc.evaluatorFor(c).archFingerprint();
        build_ms.push_back(double(nowNs() - t0) / 1e6);
    };
    double seeds = 0, random = 0, hill = 0, searches = 0;
    SearchStats stats;
    for (const std::string &line : in.network_lines) {
        NetworkRequest req =
            decodeRequestJson<NetworkRequest>(*parseJson(line));
        build(req.arch);
        Trace trace;
        NetworkResponse resp =
            svc.network(req, SpanRef{&trace, Trace::kRoot});
        sumPhases(trace.toJson(), seeds, random, hill);
        searches += double(resp.result.layers.size());
        stats.accumulate(resp.stats);
    }
    std::vector<SearchResponse> winners;
    for (const SearchRequest &req : reqs) {
        build(req.arch);
        Trace trace;
        winners.push_back(svc.search(req, SpanRef{&trace, Trace::kRoot}));
        if (in.network_lines.empty()) {
            sumPhases(trace.toJson(), seeds, random, hill);
            searches += 1;
            stats.accumulate(winners.back().stats);
        }
    }

    // --- service hit path, encode, transport -----------------------
    std::vector<double> exec_us, encode_us, handle_us, transport_us;
    LineClient direct(server.port());
    for (std::size_t i = 0; i < lines.size(); ++i) {
        const SearchRequest &req = reqs[i];
        exec_us.push_back(perCallNs(kReps, [&] {
                              g_sink += svc.search(req).from_result_cache;
                          }) / 1e3);
        const SearchResponse hit = svc.search(req);
        if (!hit.from_result_cache)
            report.lines.push_back("WARNING: probe repeat missed the "
                                   "result cache");
        encode_us.push_back(perCallNs(kReps, [&] {
                                g_sink +=
                                    responseJson(req, hit).serialize().size();
                            }) / 1e3);
        const double handle = perCallNs(kReps, [&] {
                                  g_sink += server.session()
                                                .handleLine(lines[i])
                                                .size();
                              }) / 1e3;
        handle_us.push_back(handle);
        transport_us.push_back(perCallNs(kReps, [&] {
                                   g_sink +=
                                       direct.roundTrip(lines[i]).size();
                               }) / 1e3 -
                               handle);
    }

    // --- cluster: affinity and the router hop ----------------------
    std::vector<double> hop_us;
    double repeats = 0, cached = 0;
    {
        Cluster cluster(scfg);
        LineClient routed(cluster.port());
        for (const std::string &line : lines)
            routed.roundTrip(line); // lands warm on its owner
        for (const std::string &line : lines) {
            for (int k = 0; k < kReps; ++k) {
                repeats += 1;
                cached += fromResultCache(routed.roundTrip(line));
            }
        }
        LineClient worker(cluster.worker(0).port());
        for (const std::string &line : lines) {
            // Warm worker 0 too, so both paths below answer from cache.
            cluster.worker(0).session().handleLine(line);
            const double via_router = perCallNs(kReps, [&] {
                g_sink += routed.roundTrip(line).size();
            });
            const double to_worker = perCallNs(kReps, [&] {
                g_sink += worker.roundTrip(line).size();
            });
            hop_us.push_back((via_router - to_worker) / 1e3);
        }
    }

    // --- mapper and model kernels ----------------------------------
    std::vector<double> sample_ns, key_ns, validate_ns, quick_ns, full_us;
    std::set<std::pair<std::uint64_t, std::string>> pairs;
    for (std::size_t i = 0; i < reqs.size() && pairs.size() < kMaxKernelPairs;
         ++i) {
        const LayerShape layer = reqs[i].layer.toLayer();
        if (!pairs.emplace(albireoConfigKey(reqs[i].arch), layer.str())
                 .second)
            continue;
        const Evaluator &ev = svc.evaluatorFor(reqs[i].arch);
        Mapspace space(ev.arch(), layer);
        std::mt19937_64 rng(in.seed + i);
        std::vector<Mapping> samples;
        samples.reserve(kSamples);
        std::uint64_t t0 = nowNs();
        for (std::size_t k = 0; k < kSamples; ++k)
            samples.push_back(space.randomSample(rng));
        sample_ns.push_back(double(nowNs() - t0) / kSamples);
        t0 = nowNs();
        for (const Mapping &m : samples)
            g_sink += mappingKey(m);
        key_ns.push_back(double(nowNs() - t0) / kSamples);
        t0 = nowNs();
        for (const Mapping &m : samples)
            g_sink += ev.isValidMapping(layer, m);
        validate_ns.push_back(double(nowNs() - t0) / kSamples);
        t0 = nowNs();
        for (const Mapping &m : samples)
            g_sink += ev.quickEvaluate(layer, m).has_value();
        quick_ns.push_back(double(nowNs() - t0) / kSamples);
        full_us.push_back(perCallNs(kReps, [&] {
                              g_sink += ev.evaluate(layer, winners[i].mapping)
                                            .converters.size();
                          }) / 1e3);
    }

    const double parse = median(parse_us), decode = median(decode_us),
                 encode = median(encode_us), exec = median(exec_us),
                 handle = median(handle_us);
    const double candidates = double(stats.evaluated + stats.invalid);
    report.metric("net.transport_us", median(transport_us), "us");
    report.metric("api.parse_us", parse, "us");
    report.metric("api.decode_us", decode, "us");
    report.metric("api.fingerprint_us", median(fp_us), "us");
    report.metric("api.encode_us", encode, "us");
    report.metric("service.handle_us", handle, "us");
    report.metric("service.hit_execute_us", exec, "us");
    // requestFingerprint runs inside EvalService::search, so it is
    // already part of hit_execute and is not subtracted again.
    report.metric("service.residual_us",
                  handle - (parse + decode + exec + encode), "us");
    report.metric("service.model_build_ms", median(build_ms), "ms");
    report.metric("mapper.valid_ratio",
                  candidates > 0 ? double(stats.evaluated) / candidates : 0,
                  "ratio");
    report.metric("mapper.candidates",
                  searches > 0 ? candidates / searches : 0, "count");
    report.metric("mapper.eval_cache_hit_ratio", stats.cacheHitRate(),
                  "ratio");
    report.metric("mapper.seeds_ms",
                  searches > 0 ? seeds / searches / 1e3 : 0, "ms");
    report.metric("mapper.random_search_ms",
                  searches > 0 ? random / searches / 1e3 : 0, "ms");
    report.metric("mapper.hill_climb_ms",
                  searches > 0 ? hill / searches / 1e3 : 0, "ms");
    report.metric("mapper.sample_ns", median(sample_ns), "ns");
    report.metric("mapper.cache_key_ns", median(key_ns), "ns");
    report.metric("model.validate_ns", median(validate_ns), "ns");
    report.metric("model.quick_eval_ns", median(quick_ns), "ns");
    report.metric("model.full_eval_us", median(full_us), "us");
    report.metric("cluster.hop_us", median(hop_us), "us");
    report.metric("cluster.affinity_ratio",
                  repeats > 0 ? cached / repeats : 0, "ratio");
}

} // namespace perfbench
