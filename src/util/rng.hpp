/**
 * @file
 * Deterministic pseudo-random number generation for simulation.
 *
 * All stochastic behaviour in the repository (workload generation, counter
 * initialization, replacement tie-breaking) flows through Rng so that every
 * experiment is reproducible from a single 64-bit seed.  The generator is
 * xoshiro256** (Blackman & Vigna), which is fast, has a 2^256-1 period, and
 * passes BigCrush; it is *not* used for any cryptographic purpose (the
 * crypto module has real AES for that).
 */
#ifndef RMCC_UTIL_RNG_HPP
#define RMCC_UTIL_RNG_HPP

#include <algorithm>
#include <cstdint>

namespace rmcc::util
{

/**
 * xoshiro256** PRNG with SplitMix64 seeding.
 */
class Rng
{
  public:
    /** Construct from a 64-bit seed; equal seeds give equal streams. */
    explicit Rng(std::uint64_t seed = 0x9e3779b97f4a7c15ULL);

    /** Next raw 64-bit value. */
    std::uint64_t next()
    {
        const std::uint64_t result = rotl(s_[1] * 5, 7) * 9;
        const std::uint64_t t = s_[1] << 17;
        s_[2] ^= s_[0];
        s_[3] ^= s_[1];
        s_[1] ^= s_[2];
        s_[0] ^= s_[3];
        s_[2] ^= t;
        s_[3] = rotl(s_[3], 45);
        return result;
    }

    /** Uniform integer in [0, bound) using Lemire rejection; bound > 0. */
    std::uint64_t nextBelow(std::uint64_t bound)
    {
        return below(bound, [this] { return next(); });
    }

    /** Uniform integer in [lo, hi] inclusive; requires lo <= hi. */
    std::uint64_t nextInRange(std::uint64_t lo, std::uint64_t hi)
    {
        return lo + nextBelow(hi - lo + 1);
    }

    /** Uniform double in [0, 1). */
    double nextDouble();

    /** Bernoulli draw with probability p (clamped to [0,1]). */
    bool nextBool(double p = 0.5);

    /**
     * Geometric-ish integer with the given mean (>= 0); used for
     * inter-memory-op instruction gaps in workload models.
     */
    std::uint32_t nextGeometric(double mean);

    /** Fork a statistically independent child generator. */
    Rng fork();

    // How raw next() words decode into values.  The draws above are these
    // applied to next(); they are public so a caller that reads the
    // stream ahead (to prefetch what upcoming words will touch) decodes
    // its buffered words into exactly the values the draws would return.

    /** The nextDouble() value of word @p w. */
    static double toDouble(std::uint64_t w)
    {
        return static_cast<double>(w >> 11) * 0x1.0p-53;
    }

    /** The nextBool(p) value of word @p w. */
    static bool toBool(std::uint64_t w, double p)
    {
        return toDouble(w) < std::clamp(p, 0.0, 1.0);
    }

    /**
     * The nextBelow(bound) value, drawing words from @p next_word:
     * Lemire's multiply-shift with rejection for exact uniformity, so it
     * may take more than one word.
     */
    template <class NextWord>
    static std::uint64_t below(std::uint64_t bound, NextWord &&next_word)
    {
        if (bound == 0)
            return 0;
        while (true) {
            const std::uint64_t x = next_word();
            const unsigned __int128 m =
                static_cast<unsigned __int128>(x) * bound;
            const auto lo = static_cast<std::uint64_t>(m);
            if (lo >= bound ||
                lo >= static_cast<std::uint64_t>(-bound) % bound)
                return static_cast<std::uint64_t>(m >> 64);
        }
    }

  private:
    static std::uint64_t rotl(std::uint64_t x, int k)
    {
        return (x << k) | (x >> (64 - k));
    }

    std::uint64_t s_[4];
};

} // namespace rmcc::util

#endif // RMCC_UTIL_RNG_HPP
