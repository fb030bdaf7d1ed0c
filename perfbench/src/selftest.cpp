/**
 * @file
 * Self-tests of the benchmark's own machinery: the percentile helper
 * on known sequences and the seeded generators' byte-identity.
 * Prints one line per failed check; exits 1 if any failed.
 * Run with `python3 perfbench/run.py --self-test`.
 */

#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "generator.hpp"
#include "stats.hpp"

namespace {

int g_failures = 0;

void
check(bool ok, const char *what)
{
    if (!ok) {
        ++g_failures;
        std::printf("FAIL: %s\n", what);
    }
}

std::vector<double>
oneTo(int n)
{
    std::vector<double> v;
    for (int i = n; i >= 1; --i) // unsorted on purpose
        v.push_back(i);
    return v;
}

void
testPercentiles()
{
    using namespace perfbench;
    // Nearest rank on 1..100: p50 is the 50th value, p90 the 90th.
    Quantiles q = summarize(oneTo(100));
    check(q.n == 100, "count of 1..100");
    check(q.p50 == 50 && q.p90 == 90 && q.p99 == 99,
          "nearest-rank p50/p90/p99 of 1..100");
    // 100 samples: p90 leaves exactly 10 beyond, p99 only 1.
    check(samplesBeyond(100, kP90) == 10, "10 beyond p90 of 100");
    check(supportsLevel(100, kP90) && !supportsLevel(100, kP99),
          "100 samples support p90, not p99");
    check(q.tail_ppm == kP90 && q.tail == 90, "tail of 100 is p90");
    // 1000 samples: p99 has 10 beyond, p99.9 has 1.
    check(tailLevel(1000) == kP99, "tail level of 1000 is p99");
    check(tailLevel(10000) == kP999, "tail level of 10000 is p99.9");
    check(tailLevel(999) == kP90, "999 samples fall back to p90");
    check(tailLevel(19) == 0 && tailLevel(20) == kP50,
          "median needs 20 samples");
    // Odd counts and ties.
    check(median({3, 1, 2}) == 2, "median of 3 values");
    check(median({5, 5, 1, 9}) == 5, "median with ties (rank 2 of 4)");
    check(quantileRank(7, kP50) == 4, "rank of p50 among 7");
    check(quantileRank(1, kP999) == 1, "rank clamps to n");
    check(summarize({}).p50 == 0, "empty set summarizes to 0");
    // The value reported must be one of the samples (no interpolation).
    Quantiles odd = summarize({0.5, 10.25, 3.75, 8.0});
    check(odd.p50 == 3.75 && odd.p90 == 10.25, "no interpolation");
}

void
testGenerators()
{
    using namespace perfbench;
    const Budget budget{10, 2};
    auto coldLines = [&](std::uint64_t seed) {
        ColdDseGenerator gen(seed, budget);
        std::vector<std::string> out;
        for (std::size_t i = 0; i < 2 * gen.roundSize() + 3; ++i)
            out.push_back(gen.next());
        return out;
    };
    auto mixedLines = [&](std::uint64_t seed) {
        MixedGenerator gen(seed, hotSet(seed, budget), budget, 500.0);
        std::vector<std::string> out;
        for (int i = 0; i < 200; ++i) {
            MixedGenerator::Request r = gen.next();
            out.push_back(std::to_string(r.gap_ns) + " " + r.line);
        }
        return out;
    };
    check(coldLines(7) == coldLines(7), "cold_dse lines repeat per seed");
    check(coldLines(7) != coldLines(8), "cold_dse lines vary with seed");
    check(hotSet(7, budget) == hotSet(7, budget), "hot set repeats");
    check(hotSet(7, budget) != hotSet(8, budget), "hot set varies");
    check(mixedLines(7) == mixedLines(7), "mixed lines repeat per seed");
    check(mixedLines(7) != mixedLines(8), "mixed lines vary with seed");

    // Every cold_dse line is a distinct design point.
    std::vector<std::string> cold = coldLines(3);
    std::vector<std::string> archs;
    for (const std::string &line : cold)
        archs.push_back(line.substr(line.find("\"arch\""),
                                    line.find("\"options\"") -
                                        line.find("\"arch\"")));
    std::sort(archs.begin(), archs.end());
    check(std::adjacent_find(archs.begin(), archs.end()) == archs.end(),
          "cold_dse never repeats a design point");

    // Round 0 is the same point set for every seed.
    ColdDseGenerator a(1, budget), b(2, budget);
    std::vector<std::string> ra, rb;
    for (std::size_t i = 0; i < a.roundSize(); ++i) {
        std::string la = a.next(), lb = b.next();
        ra.push_back(la.substr(la.find("\"arch\""),
                               la.find(",\"options\"") - la.find("\"arch\"")));
        rb.push_back(lb.substr(lb.find("\"arch\""),
                               lb.find(",\"options\"") - lb.find("\"arch\"")));
    }
    std::sort(ra.begin(), ra.end());
    std::sort(rb.begin(), rb.end());
    check(ra == rb, "round 0 covers the same points for any seed");

    // Seven of eight mixed requests repeat the hot set.
    MixedGenerator gen(5, hotSet(5, budget), budget, 500.0);
    int misses = 0;
    for (int i = 0; i < 800; ++i)
        misses += gen.next().miss;
    check(misses == 100, "one miss in eight");
}

} // namespace

int
main()
{
    testPercentiles();
    testGenerators();
    std::printf("perfbench self-test: %s\n",
                g_failures == 0 ? "all checks passed" : "FAILED");
    return g_failures == 0 ? 0 : 1;
}
