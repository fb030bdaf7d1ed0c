#include "generator.hpp"

#include <cmath>
#include <cstdio>
#include <set>
#include <tuple>

#include "workload/model_zoo.hpp"

namespace perfbench {

using ploop::Dim;
using ploop::LayerKind;
using ploop::LayerShape;

std::uint64_t
Rng::next()
{
    std::uint64_t z = (state_ += 0x9e3779b97f4a7c15ull);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
}

double
Rng::unit()
{
    // 53 random mantissa bits, shifted into (0, 1].
    return double((next() >> 11) + 1) * (1.0 / 9007199254740992.0);
}

std::uint64_t
mixSeed(std::uint64_t seed, std::uint64_t stream)
{
    Rng rng(seed * 0x100000001b3ull + stream);
    return rng.next();
}

namespace {

/** Mapper seeds stay below 2^32: exact in JSON and in the codec. */
std::uint64_t
mapperSeed(std::uint64_t seed, std::uint64_t stream, std::uint64_t i)
{
    return (mixSeed(seed, stream) + i) & 0xffffffffull;
}

std::string
number(double v)
{
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    return buf;
}

std::string
archJson(const ArchPoint &a)
{
    return "{\"unit_k\":" + std::to_string(a.unit_k) +
           ",\"unit_c\":" + std::to_string(a.unit_c) +
           ",\"chip_k\":" + std::to_string(a.chip_k) +
           ",\"clock_hz\":" + number(a.clock_hz) +
           ",\"gb_capacity_words\":" +
           std::to_string(a.gb_capacity_words) + "}";
}

std::string
layerJson(const LayerShape &l)
{
    auto b = [&](Dim d) { return std::to_string(l.bound(d)); };
    if (l.kind() == LayerKind::FullyConnected)
        return "{\"name\":\"" + l.name() + "\",\"kind\":\"fc\",\"n\":" +
               b(Dim::N) + ",\"k\":" + b(Dim::K) + ",\"c\":" + b(Dim::C) +
               "}";
    return "{\"name\":\"" + l.name() + "\",\"n\":" + b(Dim::N) +
           ",\"k\":" + b(Dim::K) + ",\"c\":" + b(Dim::C) +
           ",\"p\":" + b(Dim::P) + ",\"q\":" + b(Dim::Q) +
           ",\"r\":" + b(Dim::R) + ",\"s\":" + b(Dim::S) +
           ",\"hstride\":" + std::to_string(l.hstride()) +
           ",\"wstride\":" + std::to_string(l.wstride()) + "}";
}

std::string
optionsJson(Budget budget, std::uint64_t mapper_seed)
{
    return "{\"random_samples\":" +
           std::to_string(budget.random_samples) +
           ",\"hill_climb_rounds\":" +
           std::to_string(budget.hill_climb_rounds) +
           ",\"seed\":" + std::to_string(mapper_seed) + "}";
}

/** The hot set's arch variants (one knob moved from the default). */
std::vector<ArchPoint>
hotArchs()
{
    ArchPoint base;
    ArchPoint wide_k = base, narrow_c = base, half_k = base;
    wide_k.unit_k = 16;
    narrow_c.unit_c = 4;
    half_k.chip_k = 2;
    return {base, wide_k, narrow_c, half_k};
}

constexpr std::size_t kHotLayers = 16;

} // namespace

const std::vector<LayerShape> &
zooLayers()
{
    static const std::vector<LayerShape> layers = [] {
        std::vector<LayerShape> out;
        std::set<std::tuple<int, std::uint64_t, std::uint64_t,
                            std::uint64_t, std::uint64_t, std::uint64_t,
                            std::uint64_t, std::uint64_t>>
            seen;
        for (const char *name : {"resnet18", "vgg16"}) {
            const ploop::Network net = ploop::makeNetwork(name);
            for (const LayerShape &l : net.layers()) {
                auto key = std::make_tuple(
                    int(l.kind()), l.bound(Dim::K), l.bound(Dim::C),
                    l.bound(Dim::P), l.bound(Dim::Q), l.bound(Dim::R),
                    l.bound(Dim::S), l.hstride());
                if (seen.insert(key).second)
                    out.push_back(l);
            }
        }
        return out;
    }();
    return layers;
}

std::string
searchLine(std::uint64_t id, const ArchPoint &arch,
           const LayerShape &layer, Budget budget,
           std::uint64_t mapper_seed)
{
    return "{\"op\":\"search\",\"id\":" + std::to_string(id) +
           ",\"arch\":" + archJson(arch) +
           ",\"layer\":" + layerJson(layer) +
           ",\"options\":" + optionsJson(budget, mapper_seed) + "}";
}

std::string
networkLine(std::uint64_t id, const ArchPoint &arch,
            const std::string &network, Budget budget,
            std::uint64_t mapper_seed)
{
    return "{\"op\":\"network\",\"id\":" + std::to_string(id) +
           ",\"arch\":" + archJson(arch) + ",\"network\":\"" + network +
           "\",\"options\":" + optionsJson(budget, mapper_seed) + "}";
}

std::string
withTrace(const std::string &line)
{
    return "{\"trace\":true," + line.substr(1);
}

ColdDseGenerator::ColdDseGenerator(std::uint64_t seed, Budget budget)
    : seed_(seed), budget_(budget), rng_(mixSeed(seed, 1))
{
    for (std::uint64_t unit_k : {8, 12, 16})
        for (std::uint64_t unit_c : {4, 8})
            for (std::uint64_t chip_k : {2, 4})
                for (std::uint64_t gb : {1048576, 2097152})
                    for (const char *net : {"resnet18", "vgg16"}) {
                        Point p;
                        p.arch.unit_k = unit_k;
                        p.arch.unit_c = unit_c;
                        p.arch.chip_k = chip_k;
                        p.arch.gb_capacity_words = gb;
                        p.network = net;
                        grid_.push_back(p);
                    }
}

std::string
ColdDseGenerator::next()
{
    std::size_t pos = std::size_t(issued_ % grid_.size());
    std::uint64_t round = issued_ / grid_.size();
    if (pos == 0) {
        // Fisher-Yates over the grid, fresh order per round.
        order_.resize(grid_.size());
        for (std::size_t i = 0; i < order_.size(); ++i)
            order_[i] = i;
        for (std::size_t i = order_.size(); i > 1; --i)
            std::swap(order_[i - 1], order_[std::size_t(rng_.below(i))]);
    }
    Point p = grid_[order_[pos]];
    // 10 MHz per round: a new design point with the same search work.
    p.arch.clock_hz = 5e9 + double(round) * 1e7;
    std::string line = networkLine(issued_, p.arch, p.network, budget_,
                                   mapperSeed(seed_, 2, issued_));
    ++issued_;
    return line;
}

std::vector<std::string>
hotSet(std::uint64_t seed, Budget budget)
{
    std::vector<std::string> lines;
    const std::vector<LayerShape> &layers = zooLayers();
    for (const ArchPoint &arch : hotArchs())
        for (std::size_t l = 0; l < kHotLayers && l < layers.size(); ++l)
            lines.push_back(searchLine(lines.size(), arch, layers[l],
                                       budget,
                                       mapperSeed(seed, 3, lines.size())));
    return lines;
}

MixedGenerator::MixedGenerator(std::uint64_t seed,
                               std::vector<std::string> hot,
                               Budget miss_budget, double rate_rps)
    : seed_(seed), hot_(std::move(hot)), budget_(miss_budget),
      rate_rps_(rate_rps), rng_(mixSeed(seed, 4))
{}

MixedGenerator::Request
MixedGenerator::next()
{
    Request r;
    r.gap_ns = std::uint64_t(-std::log(rng_.unit()) / rate_rps_ * 1e9);
    r.miss = issued_ % 8 == 7;
    if (r.miss) {
        static const std::vector<ArchPoint> archs = hotArchs();
        const std::vector<LayerShape> &layers = zooLayers();
        const ArchPoint &arch = archs[std::size_t(rng_.below(archs.size()))];
        const LayerShape &layer =
            layers[std::size_t(rng_.below(layers.size()))];
        // A fresh mapper seed makes the fingerprint unique: a true
        // ResultCache miss, though the EvalCache scope is shared.
        r.line = searchLine(1000000 + issued_, arch, layer, budget_,
                            mapperSeed(seed_, 5, issued_));
    } else {
        r.hot_index = std::size_t(rng_.below(hot_.size()));
        r.line = hot_[r.hot_index];
    }
    ++issued_;
    return r;
}

} // namespace perfbench
