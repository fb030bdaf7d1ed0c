/**
 * @file
 * The three benchmark workloads.  Each sets up its serving stack,
 * measures a window of client traffic with the benchmark's own
 * timers, replays the window through a serial in-process session
 * (the output oracle), and reports:
 *
 *  - untraced: the end-to-end metrics of BENCHMARK.json;
 *  - traced: the window is split in two halves, untraced then traced
 *    (`"trace":true` on every line), and the per-layer metrics come
 *    from the traced half's span trees plus the layer probes of
 *    layers.hpp; the halves' ratio is the tracing overhead.
 *
 *   cold_dse      one caller, in-process ServeSession::handleLine,
 *                 `network` requests, every one a new design point.
 *   warm_hits     one lockstep TCP connection to one NetServer,
 *                 repeating a pre-warmed set of 64 searches.
 *   mixed_routed  an open loop (Poisson arrivals) over two
 *                 connections to a ClusterRouter in front of two
 *                 NetServers; 7 of 8 requests repeat the pre-warmed
 *                 set, the 8th is a unique cold search.
 */

#ifndef PERFBENCH_WORKLOADS_HPP
#define PERFBENCH_WORKLOADS_HPP

#include "harness.hpp"

namespace perfbench {

/** Offered rate of mixed_routed.  The stack sustains ~1600 req/s
 *  closed-loop on a 4-core host (see --calibrate); at half that the
 *  median latency moved by a third between identical runs, so the
 *  benchmark offers a quarter. */
constexpr double kMixedRateRps = 400.0;

/** Names accepted by runWorkload(). */
const std::vector<std::string> &workloadNames();

/** Run one workload; throws std::runtime_error on set-up failure. */
Report runWorkload(const RunConfig &cfg);

/** Closed-loop capacity of the mixed_routed stack (two lockstep
 *  connections, the same request mix), in requests per second. */
double calibrateMixed(const RunConfig &cfg);

} // namespace perfbench

#endif // PERFBENCH_WORKLOADS_HPP
