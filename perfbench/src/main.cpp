/**
 * @file
 * perfbench: one run of one workload.
 *
 *   perfbench --workload <cold_dse|warm_hits|mixed_routed> --seed <n>
 *             --seconds <s> --trace <0|1>
 *   perfbench --calibrate --seconds <s>   closed-loop mixed capacity
 *   perfbench --catalog                   metric listing (JSON)
 *
 * stdout: a record line (run facts) and, last, one JSON object with
 * "correct", "attempted", "failed" and "metrics" -- the end-to-end
 * metrics when untraced, the per-layer metrics when traced.  Named
 * figures and the traced-run report go to stderr.
 */

#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>
#include <thread>

#include "workloads.hpp"

namespace {

using perfbench::Metric;
using perfbench::Report;
using perfbench::RunConfig;

struct CatalogEntry
{
    const char *name;
    const char *unit;
    const char *better;
    /** Per-layer: the end-to-end metric and workload it should move. */
    const char *target;
};

/** End-to-end metrics, reported by every workload untraced.  No
 *  latency here: see endToEnd() in workloads.cpp. */
const CatalogEntry kEndToEnd[] = {
    {"setup_s", "s", "lower", ""},
    {"throughput_rps", "1/s", "higher", ""},
    {"cpu_us_per_req", "us", "lower", ""},
    {"peak_rss_mb", "MB", "lower", ""},
    {"energy_pj_per_mac", "pJ/MAC", "lower", ""},
    {"fig2_error_pct", "%", "lower", ""},
};

/** Per-layer metrics, reported by every workload traced, each with
 *  the end-to-end metric (or latency figure) it should move.  A layer
 *  off a workload's path reads 0 there (e.g. queue wait in-process).
 *  The class.* latencies come from the untraced half of the run. */
const CatalogEntry kPerLayer[] = {
    {"net.transport_us", "us", "lower",
     "throughput_rps, cpu_us_per_req on warm_hits"},
    {"net.queue_wait_p50_us", "us", "lower",
     "class.hit_p50_us on mixed_routed"},
    {"net.queue_wait_p99_us", "us", "lower",
     "class.hit_p99_us on mixed_routed"},
    {"api.parse_us", "us", "lower",
     "throughput_rps, cpu_us_per_req on warm_hits (flat on cold_dse)"},
    {"api.decode_us", "us", "lower",
     "throughput_rps, cpu_us_per_req on warm_hits (flat on cold_dse)"},
    {"api.fingerprint_us", "us", "lower",
     "throughput_rps, cpu_us_per_req on warm_hits (flat on cold_dse)"},
    {"api.encode_us", "us", "lower",
     "throughput_rps, cpu_us_per_req on warm_hits (flat on cold_dse)"},
    {"service.handle_us", "us", "lower",
     "throughput_rps, cpu_us_per_req on warm_hits"},
    {"service.hit_execute_us", "us", "lower",
     "throughput_rps, cpu_us_per_req on warm_hits"},
    {"service.residual_us", "us", "lower",
     "throughput_rps, cpu_us_per_req on warm_hits (unattributed)"},
    {"service.model_build_ms", "ms", "lower",
     "throughput_rps, cpu_us_per_req on cold_dse"},
    {"service.result_cache_hit_ratio", "ratio", "higher",
     "cpu_us_per_req on mixed_routed"},
    {"mapper.valid_ratio", "ratio", "higher",
     "throughput_rps, cpu_us_per_req on cold_dse and mixed_routed"},
    {"mapper.candidates", "count", "lower",
     "throughput_rps, cpu_us_per_req on cold_dse"},
    {"mapper.eval_cache_hit_ratio", "ratio", "higher",
     "throughput_rps, cpu_us_per_req on cold_dse"},
    {"mapper.seeds_ms", "ms", "lower",
     "throughput_rps, cpu_us_per_req on cold_dse"},
    {"mapper.random_search_ms", "ms", "lower",
     "throughput_rps, cpu_us_per_req on cold_dse"},
    {"mapper.hill_climb_ms", "ms", "lower",
     "throughput_rps, cpu_us_per_req on cold_dse"},
    {"mapper.sample_ns", "ns", "lower",
     "throughput_rps, cpu_us_per_req on cold_dse"},
    {"mapper.cache_key_ns", "ns", "lower",
     "throughput_rps, cpu_us_per_req on cold_dse"},
    {"model.validate_ns", "ns", "lower",
     "throughput_rps, cpu_us_per_req on cold_dse"},
    {"model.quick_eval_ns", "ns", "lower",
     "throughput_rps, cpu_us_per_req on cold_dse"},
    {"model.full_eval_us", "us", "lower",
     "throughput_rps, cpu_us_per_req on cold_dse"},
    {"cluster.hop_us", "us", "lower",
     "class.hit_p50_us, cpu_us_per_req on mixed_routed"},
    {"cluster.affinity_ratio", "ratio", "higher",
     "cpu_us_per_req on mixed_routed"},
    {"trace.overhead_ratio", "ratio", "lower",
     "traced vs untraced median latency"},
    {"trace.residual_us", "us", "lower",
     "round trip not covered by server spans"},
    {"trace.alerts", "count", "lower",
     "traces whose layer sum exceeds their total"},
    {"gen.lateness_p99_us", "us", "lower",
     "generator health (0 for closed loops)"},
    {"gen.backlog_growth", "ratio", "lower",
     "mixed_routed keeps up (>2 = growing)"},
    {"class.hit_p50_us", "us", "lower",
     "hit latency (warm_hits, mixed_routed)"},
    {"class.hit_p99_us", "us", "lower", "hit tail (warm_hits, mixed_routed)"},
    {"class.miss_p50_us", "us", "lower",
     "miss latency (cold_dse, mixed_routed)"},
    {"class.miss_p90_us", "us", "lower", "miss tail (cold_dse, mixed_routed)"},
};

std::string
num(double v)
{
    char buf[40];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    return buf;
}

void
printCatalog()
{
    std::printf("{\"end_to_end\": [\n");
    for (std::size_t i = 0; i < std::size(kEndToEnd); ++i)
        std::printf("  {\"name\": \"%s\", \"unit\": \"%s\", \"better\": "
                    "\"%s\"}%s\n",
                    kEndToEnd[i].name, kEndToEnd[i].unit,
                    kEndToEnd[i].better,
                    i + 1 < std::size(kEndToEnd) ? "," : "");
    std::printf("], \"per_layer\": [\n");
    for (std::size_t i = 0; i < std::size(kPerLayer); ++i)
        std::printf("  {\"name\": \"%s\", \"unit\": \"%s\", \"better\": "
                    "\"%s\", \"target\": \"%s\"}%s\n",
                    kPerLayer[i].name, kPerLayer[i].unit,
                    kPerLayer[i].better, kPerLayer[i].target,
                    i + 1 < std::size(kPerLayer) ? "," : "");
    std::printf("]}\n");
}

/** The result line: the catalog's metrics in catalog order.  False
 *  when the report lacks one of them. */
template <std::size_t N>
bool
printResult(const Report &r, const CatalogEntry (&catalog)[N],
            bool correct)
{
    std::string body;
    for (const CatalogEntry &e : catalog) {
        const Metric *m = nullptr;
        for (const Metric &x : r.metrics)
            if (x.name == e.name)
                m = &x;
        if (!m) {
            std::fprintf(stderr, "perfbench: metric %s missing\n", e.name);
            return false;
        }
        body += std::string(body.empty() ? "" : ", ") + "\"" + e.name +
                "\": {\"value\": " + num(m->value) + ", \"unit\": \"" +
                e.unit + "\"}";
    }
    std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
                "\"metrics\": {%s}}\n",
                correct ? "true" : "false",
                static_cast<unsigned long long>(r.attempted),
                static_cast<unsigned long long>(r.failed), body.c_str());
    return true;
}

int
usage()
{
    std::fprintf(stderr,
                 "usage: perfbench --workload <name> --seed <n> "
                 "--seconds <s> --trace <0|1>\n"
                 "       perfbench --calibrate --seconds <s>\n"
                 "       perfbench --catalog\n");
    return 2;
}

} // namespace

int
main(int argc, char **argv)
{
    // Every program-side pool gets the same lane count: the searches'
    // shared pool here, each server's own pool in the harness.
    setenv("PLOOP_THREADS",
           std::to_string(perfbench::kPoolLanes).c_str(), 1);

    RunConfig cfg;
    bool calibrate = false;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        const bool has_value = i + 1 < argc;
        if (arg == "--catalog") {
            printCatalog();
            return 0;
        } else if (arg == "--calibrate") {
            calibrate = true;
        } else if (arg == "--workload" && has_value) {
            cfg.workload = argv[++i];
        } else if (arg == "--seed" && has_value) {
            cfg.seed = std::strtoull(argv[++i], nullptr, 10);
        } else if (arg == "--seconds" && has_value) {
            cfg.seconds = std::atof(argv[++i]);
        } else if (arg == "--trace" && has_value) {
            cfg.trace = std::string(argv[++i]) == "1";
        } else {
            return usage();
        }
    }
    if (!(cfg.seconds > 0))
        return usage();

    try {
        if (calibrate) {
            std::printf("mixed_routed closed-loop capacity: %.1f req/s\n",
                        perfbench::calibrateMixed(cfg));
            return 0;
        }
        Report r = perfbench::runWorkload(cfg);

        const char *sha = std::getenv("PERFBENCH_GIT_SHA");
        r.record.set("workload", ploop::JsonValue::string(cfg.workload));
        r.record.set("seed", ploop::JsonValue::number(double(cfg.seed)));
        r.record.set("seconds", ploop::JsonValue::number(cfg.seconds));
        r.record.set("trace", ploop::JsonValue::boolean(cfg.trace));
        r.record.set("pool_lanes",
                     ploop::JsonValue::number(perfbench::kPoolLanes));
        r.record.set("nproc",
                     ploop::JsonValue::number(
                         double(std::thread::hardware_concurrency())));
        r.record.set("build_type",
                     ploop::JsonValue::string(PERFBENCH_BUILD_TYPE));
        r.record.set("git_sha",
                     ploop::JsonValue::string(sha ? sha : "unknown"));

        for (const std::string &line : r.lines)
            std::fprintf(stderr, "%s\n", line.c_str());
        for (const Metric &m : r.named)
            std::fprintf(stderr, "%-18s %14.4f %s\n", m.name.c_str(),
                         m.value, m.unit.c_str());

        bool correct = r.failed == 0;
        for (const Metric &m : r.metrics)
            if (m.name == "fig2_error_pct" && !(m.value <= 0.4))
                correct = false;
        std::printf("record: %s\n", r.record.serialize().c_str());
        const bool complete = cfg.trace ? printResult(r, kPerLayer, correct)
                                        : printResult(r, kEndToEnd, correct);
        return complete ? 0 : 1;
    } catch (const std::exception &e) {
        std::fprintf(stderr, "perfbench: %s\n", e.what());
        return 1;
    }
}
