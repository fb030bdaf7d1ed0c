/**
 * @file
 * Shared benchmark machinery: the run configuration and report,
 * in-process serving stacks (one NetServer, or a ClusterRouter in
 * front of two), client loops, and the response comparisons the
 * output oracle uses.  Every call into the program goes through its
 * public entry points; the benchmark adds nothing to src/.
 */

#ifndef PERFBENCH_HARNESS_HPP
#define PERFBENCH_HARNESS_HPP

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "api/json.hpp"
#include "cluster/router.hpp"
#include "common/thread_pool.hpp"
#include "net/server.hpp"
#include "service/serve_session.hpp"

namespace perfbench {

/** Lanes of every program-side pool. */
constexpr unsigned kPoolLanes = 2;

/** Command-line settings of one run. */
struct RunConfig
{
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10;
    bool trace = false;
};

struct Metric
{
    std::string name;
    double value = 0;
    std::string unit;
};

/** What one run reports (see main.cpp for the output format). */
struct Report
{
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    /** The BENCHMARK.json metrics of this mode, in listing order. */
    std::vector<Metric> metrics;
    /** Workload-specific named figures (hit/miss split, failed
     *  ratio), printed to stderr only. */
    std::vector<Metric> named;
    /** Human-readable report lines (stderr). */
    std::vector<std::string> lines;
    /** Run facts: seed, offered rate, connections, lanes, ... */
    ploop::JsonValue record = ploop::JsonValue::object();

    void metric(const std::string &name, double value,
                const std::string &unit)
    {
        metrics.push_back({name, value, unit});
    }
    void namedFigure(const std::string &name, double value,
                     const std::string &unit)
    {
        named.push_back({name, value, unit});
    }
};

std::uint64_t nowNs();

/** Peak resident set of this process, MiB. */
double peakRssMb();

/** CPU time of the whole process (all threads), seconds. */
double processCpuS();

/** CPU time of the calling thread, seconds. */
double threadCpuS();

/** Average fig-2 energy error (%) against fig2ReportedData(),
 *  computed exactly as bench_fig2_energy_breakdown does. */
double fig2ErrorPct();

/** True for an `"ok":true` response. */
bool responseOk(const std::string &resp);

/** True for a response served whole from the ResultCache. */
bool fromResultCache(const std::string &resp);

/**
 * The oracle's comparable form of a response: re-serialized with the
 * fields that legitimately differ between a concurrent run and a
 * serial replay removed -- the search wall time, the EvalCache
 * hit/miss split (scheduling-dependent by contract), and any trace.
 * Everything else, including every result bit, must match.
 */
std::string comparable(const std::string &resp);

/** mapping_key|energy_bits|runtime_bits|fingerprint of a search
 *  response ("" when absent). */
std::string searchBits(const std::string &resp);

/** Network (energy_per_mac_j) or search (result.energy_per_mac_j)
 *  energy per MAC of a response, in pJ; 0 when absent. */
double pjPerMac(const std::string &resp);

/** One ServeSession behind a NetServer with its own 2-lane pool,
 *  served on a background thread until destruction. */
class Server
{
  public:
    explicit Server(const ploop::ServeConfig &cfg);
    ~Server();

    Server(const Server &) = delete;
    Server &operator=(const Server &) = delete;

    std::uint16_t port() const { return net_.port(); }
    ploop::ServeSession &session() { return session_; }

  private:
    ploop::ServeSession session_;
    ploop::ThreadPool pool_;
    ploop::NetServer net_;
    std::thread thread_;
};

/** A ClusterRouter in front of two Servers. */
class Cluster
{
  public:
    explicit Cluster(const ploop::ServeConfig &cfg);
    ~Cluster();

    Cluster(const Cluster &) = delete;
    Cluster &operator=(const Cluster &) = delete;

    std::uint16_t port() const { return router_->port(); }
    Server &worker(unsigned i) { return *workers_[i]; }

  private:
    std::unique_ptr<Server> workers_[2];
    std::unique_ptr<ploop::ClusterRouter> router_;
    std::thread thread_;
};

/** Per-connection outcome of a closed loop. */
struct LoopResult
{
    std::vector<double> latency_us; ///< One per OK response.
    std::vector<double> done_s;     ///< Its completion, s from start.
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    double elapsed_s = 0;
    /** CPU the client threads themselves used (to subtract). */
    double client_cpu_s = 0;
    /** Responses kept by the caller's check (traced windows). */
    std::vector<std::string> kept;
    std::vector<double> kept_latency_us;
};

/** The line connection @p conn sends as its @p k-th request. */
using LineFor =
    std::function<const std::string &(unsigned conn, std::uint64_t k)>;

/** Judges one response; false counts it failed.  Runs on the
 *  connection's own thread, outside the latency timer. */
using CheckFn = std::function<bool(unsigned conn, std::uint64_t k,
                                   const std::string &resp)>;

/**
 * @p conns lockstep LineClient connections to @p port, each on its
 * own thread, sending until @p seconds elapse.  Keeps up to
 * @p keep responses per connection (with their latencies) for
 * traced-window analysis.
 */
LoopResult closedLoop(std::uint16_t port, unsigned conns,
                      double seconds, const LineFor &line_for,
                      const CheckFn &check, std::size_t keep = 0);

/** A non-blocking loopback line connection (the open-loop
 *  generator multiplexes several with poll()). */
class PollConn
{
  public:
    PollConn() = default;
    ~PollConn();

    PollConn(const PollConn &) = delete;
    PollConn &operator=(const PollConn &) = delete;

    bool connect(std::uint16_t port);
    int fd() const { return fd_; }

    /** Write a whole line (terminator added); false on failure. */
    bool send(const std::string &line);

    /** Read what is available; append complete lines to @p out.
     *  False on EOF or error. */
    bool readLines(std::vector<std::string> &out);

  private:
    int fd_ = -1;
    std::string buffer_;
};

} // namespace perfbench

#endif // PERFBENCH_HARNESS_HPP
