#include "harness.hpp"

#include <cerrno>
#include <chrono>
#include <ctime>
#include <cmath>
#include <cstring>
#include <map>
#include <optional>
#include <stdexcept>

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/resource.h>
#include <sys/socket.h>
#include <unistd.h>

#include "albireo/albireo_arch.hpp"
#include "albireo/reported_data.hpp"
#include "mapper/mapper.hpp"
#include "net/line_client.hpp"

namespace perfbench {

using ploop::JsonValue;

std::uint64_t
nowNs()
{
    return std::uint64_t(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now().time_since_epoch())
            .count());
}

double
peakRssMb()
{
    struct rusage ru;
    std::memset(&ru, 0, sizeof(ru));
    getrusage(RUSAGE_SELF, &ru);
    return double(ru.ru_maxrss) / 1024.0; // ru_maxrss is KiB on Linux
}

namespace {

double
cpuClockS(clockid_t clock)
{
    timespec ts{0, 0};
    clock_gettime(clock, &ts);
    return double(ts.tv_sec) + double(ts.tv_nsec) / 1e9;
}

} // namespace

double
processCpuS()
{
    return cpuClockS(CLOCK_PROCESS_CPUTIME_ID);
}

double
threadCpuS()
{
    return cpuClockS(CLOCK_THREAD_CPUTIME_ID);
}

double
fig2ErrorPct()
{
    using namespace ploop;
    EnergyRegistry registry = makeDefaultRegistry();
    const LayerShape best =
        LayerShape::conv("bestcase", 1, 48, 64, 56, 56, 3, 3);
    double total_err_pct = 0.0;
    int n_profiles = 0;
    for (const Fig2Reported &rep : fig2ReportedData()) {
        ArchSpec arch =
            buildAlbireoArch(AlbireoConfig::paperDefault(rep.scaling));
        Evaluator evaluator(arch, registry);
        EvalResult result = Mapper(evaluator).search(best).result;
        std::map<std::string, double> modeled;
        for (const EnergyEntry &e : result.energy.entries)
            modeled[fig2Category(e)] +=
                e.energy_j / result.counts.macs * 1e12;
        const std::map<std::string, double> reported = {
            {"MRR", rep.mrr},     {"MZM", rep.mzm},
            {"Laser", rep.laser}, {"AO/AE", rep.ao_ae},
            {"DE/AE", rep.de_ae}, {"AE/DE", rep.ae_de},
            {"Cache", rep.cache},
        };
        double m_total = 0.0, r_total = 0.0;
        for (const std::string &cat : fig2Categories()) {
            m_total += modeled.count(cat) ? modeled.at(cat) : 0.0;
            r_total += reported.count(cat) ? reported.at(cat) : 0.0;
        }
        total_err_pct +=
            r_total == 0.0 ? (m_total == 0.0 ? 0.0 : 100.0)
                           : std::fabs(m_total - r_total) / r_total * 100.0;
        ++n_profiles;
    }
    return total_err_pct / n_profiles;
}

bool
responseOk(const std::string &resp)
{
    return resp.compare(0, 10, "{\"ok\":true") == 0;
}

bool
fromResultCache(const std::string &resp)
{
    return resp.find("\"from_result_cache\":true") != std::string::npos;
}

std::string
comparable(const std::string &resp)
{
    std::optional<JsonValue> doc = ploop::parseJson(resp);
    if (!doc || !doc->isObject())
        return resp;
    doc->remove("trace");
    if (JsonValue *stats = doc->getMutable("stats")) {
        if (stats->isObject())
            for (const char *key : {"cache_hits", "cache_misses",
                                    "fresh_evals", "wall_time_s"})
                stats->remove(key);
    }
    return doc->serialize();
}

namespace {

/** The string value of top-level member @p key, found textually. */
std::string
stringField(const std::string &resp, const char *key)
{
    std::string pat = std::string("\"") + key + "\":\"";
    std::size_t at = resp.find(pat);
    if (at == std::string::npos)
        return std::string();
    at += pat.size();
    return resp.substr(at, resp.find('"', at) - at);
}

} // namespace

std::string
searchBits(const std::string &resp)
{
    return stringField(resp, "mapping_key") + "|" +
           stringField(resp, "energy_bits") + "|" +
           stringField(resp, "runtime_bits") + "|" +
           stringField(resp, "fingerprint");
}

double
pjPerMac(const std::string &resp)
{
    std::optional<JsonValue> doc = ploop::parseJson(resp);
    if (!doc || !doc->isObject())
        return 0.0;
    const JsonValue *v = doc->get("energy_per_mac_j");
    if (!v)
        if (const JsonValue *row = doc->get("result"))
            v = row->get("energy_per_mac_j");
    return v && v->isNumber() ? v->asNumber() * 1e12 : 0.0;
}

namespace {

ploop::NetConfig
netConfig(ploop::ThreadPool &pool)
{
    ploop::NetConfig net;
    net.pool = &pool;
    return net;
}

/** Ask the line server on @p port to drain and exit. */
bool
sendShutdown(std::uint16_t port)
{
    ploop::LineClient client(port);
    return client.connected() &&
           !client.roundTrip("{\"op\":\"shutdown\"}").empty();
}

} // namespace

Server::Server(const ploop::ServeConfig &cfg)
    : session_(cfg), pool_(kPoolLanes), net_(session_, netConfig(pool_))
{
    std::string error;
    if (!net_.open(&error))
        throw std::runtime_error("cannot open server: " + error);
    thread_ = std::thread([this] { net_.run(); });
}

Server::~Server()
{
    sendShutdown(port());
    thread_.join();
}

Cluster::Cluster(const ploop::ServeConfig &cfg)
{
    for (auto &w : workers_)
        w = std::make_unique<Server>(cfg);
    ploop::RouterConfig rcfg;
    rcfg.worker_ports = {workers_[0]->port(), workers_[1]->port()};
    // No health-probe traffic inside the measured window.
    rcfg.health.probe_interval_ms = 60 * 1000;
    router_ = std::make_unique<ploop::ClusterRouter>(rcfg);
    std::string error;
    if (!router_->open(&error))
        throw std::runtime_error("cannot open router: " + error);
    thread_ = std::thread([this] { router_->run(); });
}

Cluster::~Cluster()
{
    if (!sendShutdown(port()))
        router_->requestStop();
    thread_.join();
}

LoopResult
closedLoop(std::uint16_t port, unsigned conns, double seconds,
           const LineFor &line_for, const CheckFn &check, std::size_t keep)
{
    std::vector<LoopResult> per(conns);
    std::vector<std::thread> threads;
    const std::uint64_t t0 = nowNs();
    const std::uint64_t deadline = t0 + std::uint64_t(seconds * 1e9);
    for (unsigned c = 0; c < conns; ++c) {
        threads.emplace_back([&, c] {
            LoopResult &r = per[c];
            const double cpu0 = threadCpuS();
            ploop::LineClient client(port);
            for (std::uint64_t k = 0; nowNs() < deadline; ++k) {
                const std::string &line = line_for(c, k);
                ++r.attempted;
                const std::uint64_t sent = nowNs();
                std::string resp = client.roundTrip(line);
                const double us = double(nowNs() - sent) / 1e3;
                if (resp.empty()) {
                    // Dropped connection: count it and stop this lane.
                    ++r.failed;
                    break;
                }
                if (!responseOk(resp) || !check(c, k, resp)) {
                    ++r.failed;
                    continue;
                }
                r.latency_us.push_back(us);
                r.done_s.push_back(double(nowNs() - t0) / 1e9);
                if (r.kept.size() < keep) {
                    r.kept.push_back(std::move(resp));
                    r.kept_latency_us.push_back(us);
                }
            }
            r.client_cpu_s = threadCpuS() - cpu0;
        });
    }
    for (std::thread &t : threads)
        t.join();
    LoopResult all;
    all.elapsed_s = double(nowNs() - t0) / 1e9;
    for (LoopResult &r : per) {
        all.attempted += r.attempted;
        all.failed += r.failed;
        all.client_cpu_s += r.client_cpu_s;
        all.latency_us.insert(all.latency_us.end(), r.latency_us.begin(),
                              r.latency_us.end());
        all.done_s.insert(all.done_s.end(), r.done_s.begin(), r.done_s.end());
        for (std::size_t i = 0; i < r.kept.size(); ++i) {
            all.kept.push_back(std::move(r.kept[i]));
            all.kept_latency_us.push_back(r.kept_latency_us[i]);
        }
    }
    return all;
}

PollConn::~PollConn()
{
    if (fd_ >= 0)
        ::close(fd_);
}

bool
PollConn::connect(std::uint16_t port)
{
    fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd_ < 0)
        return false;
    sockaddr_in addr;
    std::memset(&addr, 0, sizeof(addr));
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port);
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    if (::connect(fd_, reinterpret_cast<sockaddr *>(&addr),
                  sizeof(addr)) != 0)
        return false;
    int one = 1;
    ::setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    return ::fcntl(fd_, F_SETFL, ::fcntl(fd_, F_GETFL) | O_NONBLOCK) == 0;
}

bool
PollConn::send(const std::string &line)
{
    std::string data = line + "\n";
    std::size_t off = 0;
    while (off < data.size()) {
        ssize_t n = ::send(fd_, data.data() + off, data.size() - off,
                           MSG_NOSIGNAL);
        if (n > 0) {
            off += std::size_t(n);
        } else if (n < 0 && (errno == EAGAIN || errno == EINTR)) {
            pollfd p{fd_, POLLOUT, 0};
            ::poll(&p, 1, 1000);
        } else {
            return false;
        }
    }
    return true;
}

bool
PollConn::readLines(std::vector<std::string> &out)
{
    char buf[65536];
    for (;;) {
        ssize_t n = ::recv(fd_, buf, sizeof(buf), 0);
        if (n > 0) {
            buffer_.append(buf, std::size_t(n));
            continue;
        }
        if (n < 0 && errno == EINTR)
            continue;
        bool alive = n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK);
        std::size_t start = 0, nl;
        while ((nl = buffer_.find('\n', start)) != std::string::npos) {
            out.push_back(buffer_.substr(start, nl - start));
            start = nl + 1;
        }
        buffer_.erase(0, start);
        return alive;
    }
}

} // namespace perfbench
