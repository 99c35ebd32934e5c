/**
 * @file
 * SGX-style monolithic counters: eight dedicated 56-bit counters per 64 B
 * counter block.  Coverage is only eight entities, but counters never
 * overflow within a realistic lifetime (2^56 writebacks).
 */
#ifndef RMCC_COUNTERS_MONOLITHIC_HPP
#define RMCC_COUNTERS_MONOLITHIC_HPP

#include "counters/scheme.hpp"

namespace rmcc::ctr
{

/** Monolithic 56-bit-per-entity counter scheme. */
class MonolithicScheme : public CounterScheme
{
  public:
    /** Entities per 64 B block: 8 x 56-bit counters (+ padding). */
    static constexpr unsigned kCoverage = 8;

    explicit MonolithicScheme(std::uint64_t n);

    std::string name() const override { return "SGX-monolithic"; }
    unsigned coverage() const override { return kCoverage; }
    double decodeLatencyNs() const override { return 0.0; }

    addr::CounterValue read(std::uint64_t idx) const override;
    WriteResult write(std::uint64_t idx,
                      addr::CounterValue new_value) override;
    bool encodable(std::uint64_t idx,
                   addr::CounterValue new_value) const override;
    WriteResult relevelBlock(std::uint64_t idx,
                             addr::CounterValue target) override;
    std::uint64_t entities() const override { return values_.size(); }
    std::uint64_t countInRanges(const ValueRanges &ranges) const override;
    CounterLayout counterLayout() const override
    {
        return {values_.data(), 3};
    }
    void randomInit(util::Rng &rng, addr::CounterValue mean) override;

  private:
    /** Store counter idx (no shared major: every value is stored whole). */
    void set(std::uint64_t idx, addr::CounterValue v)
    {
        values_[idx] = v;
        noteStored(v);
    }

    ZeroedArray<addr::CounterValue> values_;
};

} // namespace rmcc::ctr

#endif // RMCC_COUNTERS_MONOLITHIC_HPP
