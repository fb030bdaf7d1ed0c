/**
 * @file
 * Seeded request-line generators for the three benchmark workloads.
 * The program only ever sees the lines these produce; the same seed
 * always yields byte-identical lines (the self-test checks it), and
 * every random choice comes from a splitmix64 stream, so the lines do
 * not depend on the standard library's distribution implementations.
 */

#ifndef PERFBENCH_GENERATOR_HPP
#define PERFBENCH_GENERATOR_HPP

#include <cstdint>
#include <string>
#include <vector>

#include "workload/layer.hpp"

namespace perfbench {

/** splitmix64: a tiny portable generator fully fixed by its seed. */
class Rng
{
  public:
    explicit Rng(std::uint64_t seed) : state_(seed) {}

    std::uint64_t next();

    /** Uniform in [0, n) (n > 0; modulo bias is irrelevant here). */
    std::uint64_t below(std::uint64_t n) { return next() % n; }

    /** Uniform in (0, 1]. */
    double unit();

  private:
    std::uint64_t state_;
};

/** Independent sub-stream @p stream of run seed @p seed. */
std::uint64_t mixSeed(std::uint64_t seed, std::uint64_t stream);

/** One architecture point, set through the sweep knobs. */
struct ArchPoint
{
    std::uint64_t unit_k = 12;
    std::uint64_t unit_c = 8;
    std::uint64_t chip_k = 4;
    std::uint64_t gb_capacity_words = 2097152;
    double clock_hz = 5e9;
};

/** Mapper budget carried in every search or network request. */
struct Budget
{
    unsigned random_samples = 0;
    unsigned hill_climb_rounds = 0;
};

/** Distinct layer shapes of ResNet18 then VGG16, in zoo order. */
const std::vector<ploop::LayerShape> &zooLayers();

std::string searchLine(std::uint64_t id, const ArchPoint &arch,
                       const ploop::LayerShape &layer, Budget budget,
                       std::uint64_t mapper_seed);

std::string networkLine(std::uint64_t id, const ArchPoint &arch,
                        const std::string &network, Budget budget,
                        std::uint64_t mapper_seed);

/** @p line with the `"trace":true` transport key added. */
std::string withTrace(const std::string &line);

/**
 * cold_dse: one `network` request per distinct architecture point.
 * A round is the full grid of cost-relevant knobs (unit_k x unit_c x
 * chip_k x gb_capacity_words x {resnet18, vgg16}) in a seeded order;
 * each round moves clock_hz, so no point ever repeats and every model
 * and cache starts cold, while the work per round stays the same.
 */
class ColdDseGenerator
{
  public:
    ColdDseGenerator(std::uint64_t seed, Budget budget);

    std::string next();

    /** Requests per round; round 0 is the same point set for every
     *  seed (only its order and the mapper seeds differ). */
    std::size_t roundSize() const { return grid_.size(); }

  private:
    struct Point
    {
        ArchPoint arch;
        const char *network;
    };

    std::uint64_t seed_;
    Budget budget_;
    Rng rng_;
    std::vector<Point> grid_;
    std::vector<std::size_t> order_;
    std::uint64_t issued_ = 0;
};

/** The pre-warmed set of warm_hits and mixed_routed: four arch
 *  variants x the first sixteen zoo layers, one search line each.
 *  Line j carries id j, so every repeat of it is byte-identical. */
std::vector<std::string> hotSet(std::uint64_t seed, Budget budget);

/**
 * mixed_routed: Poisson arrivals at a fixed rate; seven of every
 * eight requests repeat a hot-set line, the eighth is a unique cold
 * search (fresh mapper seed) over a random zoo layer.
 */
class MixedGenerator
{
  public:
    struct Request
    {
        std::uint64_t gap_ns = 0; ///< Since the previous arrival.
        bool miss = false;
        std::size_t hot_index = 0; ///< When !miss.
        std::string line;
    };

    MixedGenerator(std::uint64_t seed, std::vector<std::string> hot,
                   Budget miss_budget, double rate_rps);

    Request next();

  private:
    std::uint64_t seed_;
    std::vector<std::string> hot_;
    Budget budget_;
    double rate_rps_;
    Rng rng_;
    std::uint64_t issued_ = 0;
};

} // namespace perfbench

#endif // PERFBENCH_GENERATOR_HPP
