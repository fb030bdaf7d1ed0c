/**
 * @file
 * Exact order statistics over raw latency samples.
 *
 * A quantile is the nearest-rank order statistic: for n samples and a
 * level of q parts per million, the sample at 1-based rank
 * ceil(q * n / 1e6) of the sorted values.  No interpolation and no
 * buckets, so a reported p99 is a latency some request really saw.
 *
 * The "ten beyond" rule: a tail percentile is only worth reporting
 * when at least ten samples lie strictly beyond its rank -- below
 * that, one outlier moves it.  tailLevel() picks the highest level of
 * a fixed ladder that the sample count supports.
 */

#ifndef PERFBENCH_STATS_HPP
#define PERFBENCH_STATS_HPP

#include <algorithm>
#include <cstdint>
#include <vector>

namespace perfbench {

/** Quantile levels, in parts per million. */
constexpr std::uint64_t kP50 = 500000;
constexpr std::uint64_t kP90 = 900000;
constexpr std::uint64_t kP99 = 990000;
constexpr std::uint64_t kP999 = 999000;

/** 1-based nearest rank of level @p ppm among @p n samples (n > 0). */
inline std::uint64_t
quantileRank(std::uint64_t n, std::uint64_t ppm)
{
    std::uint64_t rank = (ppm * n + 999999) / 1000000;
    return std::max<std::uint64_t>(1, std::min(rank, n));
}

/** Samples strictly beyond the rank of level @p ppm. */
inline std::uint64_t
samplesBeyond(std::uint64_t n, std::uint64_t ppm)
{
    return n == 0 ? 0 : n - quantileRank(n, ppm);
}

/** True when level @p ppm has at least ten samples beyond it. */
inline bool
supportsLevel(std::uint64_t n, std::uint64_t ppm)
{
    return samplesBeyond(n, ppm) >= 10;
}

/** Highest of p99.9 / p99 / p90 / p50 the count supports; 0 when
 *  not even the median does (fewer than 20 samples). */
inline std::uint64_t
tailLevel(std::uint64_t n)
{
    for (std::uint64_t ppm : {kP999, kP99, kP90, kP50})
        if (supportsLevel(n, ppm))
            return ppm;
    return 0;
}

/** Summary of one sample set. */
struct Quantiles
{
    std::uint64_t n = 0;
    double p50 = 0;
    double p90 = 0;
    double p99 = 0;
    std::uint64_t tail_ppm = 0; ///< tailLevel(n).
    double tail = 0;            ///< Value at tail_ppm (0 when none).
};

/** Value at level @p ppm of already-sorted @p sorted (0 if empty). */
inline double
quantileSorted(const std::vector<double> &sorted, std::uint64_t ppm)
{
    if (sorted.empty())
        return 0.0;
    return sorted[quantileRank(sorted.size(), ppm) - 1];
}

/** Sorts a copy of @p samples and summarizes it. */
inline Quantiles
summarize(std::vector<double> samples)
{
    std::sort(samples.begin(), samples.end());
    Quantiles q;
    q.n = samples.size();
    q.p50 = quantileSorted(samples, kP50);
    q.p90 = quantileSorted(samples, kP90);
    q.p99 = quantileSorted(samples, kP99);
    q.tail_ppm = tailLevel(q.n);
    q.tail = q.tail_ppm ? quantileSorted(samples, q.tail_ppm) : 0.0;
    return q;
}

/** Median of @p samples (0 if empty). */
inline double
median(std::vector<double> samples)
{
    std::sort(samples.begin(), samples.end());
    return quantileSorted(samples, kP50);
}

} // namespace perfbench

#endif // PERFBENCH_STATS_HPP
