/**
 * @file
 * Per-layer attribution for the traced run.
 *
 * traceReport() reads the span trees the program returns for
 * `"trace":true` requests: per-span self times, the residual (client
 * round trip minus the server's root span), queue waits, and an alert
 * whenever a layer sum exceeds its end-to-end time.
 *
 * probeLayers() times each layer's public entry point directly, on
 * request lines taken from the workload: the api codec (parseJson,
 * decodeRequestJson, requestFingerprint, responseJson + serialize),
 * the service (handleLine and EvalService::search on a hit,
 * evaluatorFor on a new config, the mapper phase spans of a cold
 * request through a benchmark-owned SpanRef), the mapper and model
 * kernels (Mapspace::randomSample, mappingKey, isValidMapping,
 * quickEvaluate, evaluate), the NetServer transport and the
 * ClusterRouter hop.
 */

#ifndef PERFBENCH_LAYERS_HPP
#define PERFBENCH_LAYERS_HPP

#include <string>
#include <vector>

#include "harness.hpp"

namespace perfbench {

/** Summary of the traced half of a window. */
struct TraceSummary
{
    double queue_wait_p50_us = 0;
    double queue_wait_p99_us = 0;
    double residual_us = 0; ///< Median client RTT minus root span.
    std::uint64_t alerts = 0;
};

/** Analyze kept traced responses and their client round trips;
 *  appends the self-time table and any alerts to @p report.lines. */
TraceSummary traceReport(const std::vector<std::string> &responses,
                         const std::vector<double> &rtt_us,
                         Report &report);

/** Workload request lines for the layer probes. */
struct ProbeInput
{
    /** `search` lines (hit path, api codec, mapper/model kernels). */
    std::vector<std::string> search_lines;
    /** `network` lines whose mapper phases and stats stand for the
     *  workload's cold work (cold_dse); empty = use search_lines. */
    std::vector<std::string> network_lines;
    std::uint64_t seed = 1;
};

/** Run every probe; adds the api.*, service.* (except the result
 *  cache ratio, which the workload reads from its own sessions),
 *  mapper.*, model.*, net.transport_us and cluster.* metrics. */
void probeLayers(const ProbeInput &in, Report &report);

} // namespace perfbench

#endif // PERFBENCH_LAYERS_HPP
