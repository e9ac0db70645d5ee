#pragma once

// Order statistics with the benchmark's reporting rule: a percentile is
// reported only when at least kMinBeyond samples lie beyond it, so a p99
// needs 1,000 samples and a 20 req/s stream supports little more than its
// median. Nearest-rank definition: the q-percentile of n sorted samples is
// the ceil(q * n)-th smallest.

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <optional>
#include <vector>

namespace e2e {

inline constexpr std::size_t kMinBeyond = 10;

/// 1-based nearest rank of the q-percentile among n samples.
inline std::size_t nearestRank(std::size_t n, double q) {
    const auto rank = static_cast<std::size_t>(std::ceil(q * static_cast<double>(n) - 1e-9));
    return std::clamp<std::size_t>(rank, 1, n);
}

/// Samples strictly above the q-percentile's rank.
inline std::size_t samplesBeyond(std::size_t n, double q) {
    return n == 0 ? 0 : n - nearestRank(n, q);
}

inline bool percentileSupported(std::size_t n, double q) {
    return n > 0 && (q <= 0.5 || samplesBeyond(n, q) >= kMinBeyond);
}

/// The q-percentile of `samples` (reordered in place), or nullopt when the
/// rule above does not allow it. The median needs one sample.
inline std::optional<double> percentile(std::vector<double>& samples, double q) {
    if (!percentileSupported(samples.size(), q)) return std::nullopt;
    const std::size_t index = nearestRank(samples.size(), q) - 1;
    std::nth_element(samples.begin(), samples.begin() + static_cast<std::ptrdiff_t>(index),
                     samples.end());
    return samples[index];
}

struct Tail {
    double q = 0.0;
    double value = 0.0;
};

/// The highest of p99, p95, p90, p75 and p50 the sample count supports, for
/// tails of streams too slow for a p99.
inline std::optional<Tail> highestTail(std::vector<double>& samples) {
    for (const double q : {0.99, 0.95, 0.90, 0.75, 0.50}) {
        if (const auto value = percentile(samples, q)) return Tail{q, *value};
    }
    return std::nullopt;
}

}  // namespace e2e
