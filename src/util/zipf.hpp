/**
 * @file
 * Precomputed-CDF Zipf sampler, shared by workload generation and fault
 * storms.
 *
 * The sampler is a standalone object so hot loops build the CDF once and
 * draw millions of ranks.
 */
#ifndef RMCC_UTIL_ZIPF_HPP
#define RMCC_UTIL_ZIPF_HPP

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace rmcc::util
{

class Rng;

/**
 * Precomputed-CDF Zipf sampler.
 *
 * Draws invert the CDF for a uniform u.  A guide table narrows the
 * inversion to a handful of CDF entries before the binary search: entry k
 * holds lower_bound(cdf, k/K), so the search for u only scans
 * [guide[floor(u*K)], guide[floor(u*K)+1]].  This returns exactly what a
 * full-array lower_bound would (same rank for the same u, hence the same
 * stream for the same Rng) at a fraction of the cost — the full search
 * was the hot spot of power-law graph construction.
 */
class ZipfSampler
{
  public:
    /** Build the CDF for ranks [0, n) with exponent s (> 0). */
    ZipfSampler(std::uint64_t n, double s);

    /** Draw one Zipf-distributed rank: rank(rng.nextDouble()). */
    std::uint64_t operator()(Rng &rng) const;

    /** The rank a uniform @p u in [0, 1) inverts to. */
    std::uint64_t rank(double u) const
    {
        // u lies in bucket k, so its lower_bound lies in
        // [guide[k], guide[k+1]]: cdf[guide[k+1]] >= (k+1)/K > u.
        const std::size_t k = bucket(u);
        const auto first = cdf_.begin() + guide_[k];
        const auto last =
            cdf_.begin() +
            std::min<std::size_t>(guide_[k + 1] + 1, cdf_.size());
        return static_cast<std::uint64_t>(
            std::lower_bound(first, last, u) - cdf_.begin());
    }

    /**
     * Prefetch the guide entry rank(u) starts from.  Callers that know
     * their uniforms ahead issue this first, then prefetchCdf(u) once
     * the guide line has had time to arrive, then rank(u).
     */
    void prefetchGuide(double u) const
    {
        __builtin_prefetch(guide_.data() + bucket(u));
    }

    /** Prefetch the first CDF line rank(u) searches (reads the guide). */
    void prefetchCdf(double u) const
    {
        __builtin_prefetch(cdf_.data() + guide_[bucket(u)]);
    }

    /** Probability mass of a single rank in [0, n). */
    double mass(std::uint64_t rank) const;

    /** Number of ranks. */
    std::uint64_t size() const { return cdf_.size(); }

  private:
    std::size_t bucket(double u) const
    {
        return static_cast<std::size_t>(u * buckets_);
    }

    std::vector<double> cdf_;
    std::vector<std::uint32_t> guide_; //!< K+1 lower-bound anchors.
    double buckets_ = 0.0;             //!< K as a double, for u*K.
};

} // namespace rmcc::util

#endif // RMCC_UTIL_ZIPF_HPP
