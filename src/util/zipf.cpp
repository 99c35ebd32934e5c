#include "util/zipf.hpp"

#include <cmath>

#include "util/rng.hpp"

namespace rmcc::util
{

ZipfSampler::ZipfSampler(std::uint64_t n, double s)
{
    cdf_.resize(n ? n : 1);
    double acc = 0.0;
    for (std::uint64_t i = 0; i < cdf_.size(); ++i) {
        acc += 1.0 / std::pow(static_cast<double>(i + 1), s);
        cdf_[i] = acc;
    }
    for (auto &c : cdf_)
        c /= acc;

    // Guide table: K a power of two so u*K and k/K are exact, sized to
    // leave ~4 CDF entries per bucket (capped at 2^20 entries).
    std::uint64_t k_buckets = 1;
    while (k_buckets < cdf_.size() / 4 && k_buckets < (1ULL << 20))
        k_buckets <<= 1;
    buckets_ = static_cast<double>(k_buckets);
    guide_.resize(k_buckets + 1);
    std::uint32_t idx = 0;
    for (std::uint64_t k = 0; k <= k_buckets; ++k) {
        const double target =
            static_cast<double>(k) / static_cast<double>(k_buckets);
        while (idx < cdf_.size() && cdf_[idx] < target)
            ++idx;
        guide_[k] = idx; // == lower_bound(cdf_, k/K)
    }
}

std::uint64_t
ZipfSampler::operator()(Rng &rng) const
{
    return rank(rng.nextDouble());
}

double
ZipfSampler::mass(std::uint64_t rank) const
{
    if (rank >= cdf_.size())
        return 0.0;
    return rank == 0 ? cdf_[0] : cdf_[rank] - cdf_[rank - 1];
}

} // namespace rmcc::util
