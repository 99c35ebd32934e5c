#include "counters/morphable.hpp"

#include <algorithm>
#include <cassert>
#include <cstring>

#include "util/log.hpp"

namespace rmcc::ctr
{

/** Exception slots in the Uniform3X format. */
constexpr unsigned kUniform3xSlots = 3;

const std::array<MorphFormatInfo, 6> &
morphFormats()
{
    static const std::array<MorphFormatInfo, 6> kFormats = {{
        {MorphFormat::Uniform3, 128, 3, false, 128 * 3},
        {MorphFormat::Uniform3X, 128, 3, false,
         128 * 3 + kUniform3xSlots * (7 + 13)},
        {MorphFormat::Bitmap6, 51, 6, true, 128 + 51 * 6},
        {MorphFormat::Bitmap7, 42, 7, true, 128 + 42 * 7},
        {MorphFormat::Bitmap8, 36, 8, true, 128 + 36 * 8},
        {MorphFormat::Index16, 16, 16, false, 16 * (7 + 16)},
    }};
    static_assert(128 * 3 <= 448 && 128 * 3 + 3 * 20 <= 448 &&
                      128 + 51 * 6 <= 448 && 128 + 42 * 7 <= 448 &&
                      128 + 36 * 8 <= 448 && 16 * 23 <= 448,
                  "all payloads must fit the 448-bit budget");
    return kFormats;
}

namespace
{

const MorphFormatInfo &
infoOf(MorphFormat f)
{
    return morphFormats()[static_cast<std::size_t>(f)];
}

/** Bit offsets of the packed layout. */
constexpr std::size_t kMajorBits = 56;
constexpr std::size_t kFormatBits = 8;
constexpr std::size_t kPayloadBase = kMajorBits + kFormatBits;

//! Running minimum of an empty minmaxSpan fold.
constexpr unsigned kNoOffset = ~0u;

// ---------------------------------------------------------------------------
// Block scans.  Every encodability decision reduces to two scans over a
// block's contiguous 16-bit offsets: a summary (max offset above a
// candidate major, non-zero count, >=8 count -- exactly the facts the
// format predicates test) and a min/max.  The summary takes the offsets
// relative to a candidate major as offset + bias (mod 2^64, bias = stored
// major - candidate major).
// ---------------------------------------------------------------------------

/** Accumulate (max_off, nonzero, ge8) over offs[0..n) + bias. */
void
summarizeSpan(const std::uint16_t *offs, std::size_t n, std::uint64_t bias,
              std::uint64_t &max_off, unsigned &nonzero, unsigned &ge8)
{
    for (std::size_t i = 0; i < n; ++i) {
        const std::uint64_t off = offs[i] + bias;
        max_off = std::max(max_off, off);
        nonzero += off != 0;
        ge8 += off >= 8;
    }
}

/** Fold offs[0..n) into the running [lo, hi] envelope. */
void
minmaxSpan(const std::uint16_t *offs, std::size_t n, unsigned &lo,
           unsigned &hi)
{
    for (std::size_t i = 0; i < n; ++i) {
        lo = std::min<unsigned>(lo, offs[i]);
        hi = std::max<unsigned>(hi, offs[i]);
    }
}

} // namespace

bool
MorphableScheme::simdScanActive()
{
    return false;
}

std::optional<MorphFormat>
MorphableScheme::formatFromSummary(const BlockSummary &s)
{
    // First format in preference order whose layout holds the block.
    // Each predicate needs only the block's max offset, non-zero count,
    // and >=8 count, all of which the summary carries.
    for (const auto &fmt : morphFormats()) {
        if (fmt.id == MorphFormat::Uniform3X) {
            // Uniform 3-bit minors with up to kUniform3xSlots far-drifted
            // exceptions below 2^13.
            if (s.max_off < (1ULL << 13) && s.ge8 <= kUniform3xSlots)
                return fmt.id;
            continue;
        }
        if (s.max_off >= (1ULL << fmt.minor_bits))
            continue;
        // Uniform3 stores every minor, so any may be non-zero.
        if (fmt.id == MorphFormat::Uniform3 || s.nonzero <= fmt.max_nonzero)
            return fmt.id;
    }
    return std::nullopt;
}

MorphableScheme::BlockSummary
MorphableScheme::summaryWith(addr::CounterBlockId cb, std::uint64_t bias,
                             std::uint64_t idx, std::uint64_t idx_off) const
{
    const auto [first, last] = blockRange(cb);
    const std::uint16_t *offs = offsets_.data();
    std::uint64_t max_off = idx_off;
    unsigned nonzero = idx_off != 0, ge8 = idx_off >= 8;
    summarizeSpan(offs + first, idx - first, bias, max_off, nonzero, ge8);
    summarizeSpan(offs + idx + 1, last - idx - 1, bias, max_off, nonzero,
                  ge8);
    BlockSummary s;
    s.max_off = max_off;
    s.nonzero = static_cast<std::uint16_t>(nonzero);
    s.ge8 = static_cast<std::uint16_t>(ge8);
    return s;
}

MorphableScheme::MorphableScheme(std::uint64_t n)
    : majors_((n + kCoverage - 1) / kCoverage), offsets_(n),
      formats_(majors_.size()), summaries_(majors_.size())
{
}

std::pair<std::uint64_t, std::uint64_t>
MorphableScheme::blockRange(addr::CounterBlockId cb) const
{
    const std::uint64_t first = cb * kCoverage;
    return {first, std::min(first + kCoverage, offsets_.size())};
}

std::vector<std::uint64_t>
MorphableScheme::blockOffsets(addr::CounterBlockId cb) const
{
    const auto [first, last] = blockRange(cb);
    return std::vector<std::uint64_t>(offsets_.data() + first,
                                      offsets_.data() + last);
}

addr::CounterValue
MorphableScheme::blockMax(std::uint64_t idx) const
{
    const addr::CounterBlockId cb = blockOf(idx);
    return majors_[cb] + summaries_[cb].max_off;
}

bool
MorphableScheme::encodable(std::uint64_t idx,
                           addr::CounterValue new_value) const
{
    const addr::CounterBlockId cb = blockOf(idx);
    const addr::CounterValue major = majors_[cb];
    if (new_value >= major) {
        const std::uint64_t old_off = offsets_[idx];
        const std::uint64_t new_off = new_value - major;
        if (new_off >= old_off) {
            // A non-decreasing candidate can only grow the summary, so
            // the updated digest is exact and no offset scan is needed.
            BlockSummary s = summaries_[cb];
            s.max_off = std::max(s.max_off, new_off);
            s.nonzero += old_off == 0 && new_off != 0;
            s.ge8 += old_off < 8 && new_off >= 8;
            if (formatFromSummary(s).has_value())
                return true;
        } else if (formatFromSummary(summaryWith(cb, 0, idx, new_off))
                       .has_value()) {
            // Decreasing candidate: summarize everyone else and merge
            // the changed offset.
            return true;
        }
    }
    // Min-shift re-encode: sliding the major up to the block minimum
    // changes no counter value, so it costs no re-encryption.
    return formatFromSummary(shifted(cb, idx, new_value).summary)
        .has_value();
}

MorphableScheme::Shift
MorphableScheme::shifted(addr::CounterBlockId cb, std::uint64_t idx,
                         addr::CounterValue new_value) const
{
    const auto [first, last] = blockRange(cb);
    const std::uint16_t *offs = offsets_.data();
    const addr::CounterValue major = majors_[cb];
    // Candidate major = min over the block with idx set to new_value,
    // found by folding the two spans around idx.
    unsigned lo = kNoOffset, hi_unused = 0;
    minmaxSpan(offs + first, idx - first, lo, hi_unused);
    minmaxSpan(offs + idx + 1, last - idx - 1, lo, hi_unused);
    const addr::CounterValue vmin =
        lo == kNoOffset ? new_value : std::min(new_value, major + lo);
    // Summary of the shifted offsets (idx replaced by new_value); the
    // format predicates need nothing more.
    return {vmin, summaryWith(cb, major - vmin, idx, new_value - vmin)};
}

void
MorphableScheme::relevel(addr::CounterBlockId cb, addr::CounterValue v)
{
    const auto [first, last] = blockRange(cb);
    majors_[cb] = v;
    std::memset(offsets_.data() + first, 0,
                (last - first) * sizeof(std::uint16_t));
    formats_[cb] = MorphFormat::Uniform3;
    summaries_[cb] = BlockSummary{};
    noteStored(v);
}

WriteResult
MorphableScheme::write(std::uint64_t idx, addr::CounterValue new_value)
{
    assert(new_value > read(idx));
    const addr::CounterBlockId cb = blockOf(idx);
    const addr::CounterValue major = majors_[cb];
    if (new_value >= major) {
        // Counter writes are monotone, so the one changed offset only
        // grows and the block digest updates in O(1) -- no 128-offset
        // rescan on the dense path.
        BlockSummary s = summaries_[cb];
        const std::uint64_t old_off = offsets_[idx];
        const std::uint64_t new_off = new_value - major;
        s.max_off = std::max(s.max_off, new_off);
        s.nonzero += old_off == 0;
        s.ge8 += old_off < 8 && new_off >= 8;
        if (const auto fmt = formatFromSummary(s)) {
            if (*fmt != formats_[cb]) {
                ++morphs_;
                formats_[cb] = *fmt;
            }
            summaries_[cb] = s;
            // Every format holds offsets below 2^16.
            offsets_[idx] = static_cast<std::uint16_t>(new_off);
            noteStored(new_value);
            return {new_value, false, 0};
        }
    }
    // Min-shift re-encode: when the whole block has drifted upward, the
    // major slides up to the block minimum.  No counter value changes,
    // so no covered entity needs re-encryption; the offsets re-base.
    const Shift sh = shifted(cb, idx, new_value);
    if (const auto fmt = formatFromSummary(sh.summary)) {
        const auto [first, last] = blockRange(cb);
        const std::uint64_t bias = major - sh.major;
        for (std::uint64_t i = first; i < last; ++i)
            offsets_[i] = static_cast<std::uint16_t>(offsets_[i] + bias);
        offsets_[idx] = static_cast<std::uint16_t>(new_value - sh.major);
        majors_[cb] = sh.major;
        formats_[cb] = *fmt;
        summaries_[cb] = sh.summary;
        ++morphs_;
        noteStored(new_value);
        return {new_value, false, 0};
    }
    // Rebase: relevel every value to the block maximum; all covered
    // entities must be re-encrypted with the new shared value.
    const auto [first, last] = blockRange(cb);
    const addr::CounterValue vmax = std::max(new_value, blockMax(idx));
    relevel(cb, vmax);
    ++overflows_;
    return {vmax, true, last - first};
}

bool
MorphableScheme::cheaplyEncodable(std::uint64_t idx,
                                  addr::CounterValue v) const
{
    // Cheap = the block stays in (possibly min-shifted) dense uniform
    // range: no exception or bitmap capacity is consumed.
    const addr::CounterBlockId cb = blockOf(idx);
    const auto [first, last] = blockRange(cb);
    // Summary fast path: when another entity still sits at the major
    // (so the others' minimum is known) and idx does not hold the block
    // maximum (so the others' maximum is known), the min/max over
    // "everyone but idx, plus v" follows from the digest alone.
    const BlockSummary &s = summaries_[cb];
    const addr::CounterValue major = majors_[cb];
    const std::uint64_t off_idx = offsets_[idx];
    const std::uint64_t n = last - first;
    const std::uint64_t nonzero_others = s.nonzero - (off_idx != 0);
    if (nonzero_others < n - 1 && off_idx < s.max_off) {
        const addr::CounterValue vmin = std::min(v, major);
        const addr::CounterValue vmax =
            std::max(v, major + s.max_off);
        return vmax - vmin < 8;
    }
    unsigned lo = kNoOffset, hi = 0;
    const std::uint16_t *offs = offsets_.data();
    minmaxSpan(offs + first, idx - first, lo, hi);
    minmaxSpan(offs + idx + 1, last - idx - 1, lo, hi);
    if (lo == kNoOffset)
        return true; // a lone entity is its own dense range
    const addr::CounterValue vmin = std::min(v, major + lo);
    const addr::CounterValue vmax = std::max(v, major + hi);
    return vmax - vmin < 8;
}

WriteResult
MorphableScheme::relevelBlock(std::uint64_t idx, addr::CounterValue target)
{
    assert(target > blockMax(idx));
    const addr::CounterBlockId cb = blockOf(idx);
    const auto [first, last] = blockRange(cb);
    relevel(cb, target);
    return {target, false, last - first};
}

std::uint64_t
MorphableScheme::countInRanges(const ValueRanges &ranges) const
{
    return countSplitInRanges(
        majors_.data(), offsets_.data(), offsets_.size(), kCoverage, ranges,
        [this](addr::CounterBlockId cb) { return summaries_[cb].max_off; });
}

void
MorphableScheme::randomInit(util::Rng &rng, addr::CounterValue mean)
{
    for (addr::CounterBlockId cb = 0; cb < majors_.size(); ++cb) {
        const addr::CounterValue major =
            rng.nextInRange(mean / 2, mean + mean / 2);
        majors_[cb] = major;
        const auto [first, last] = blockRange(cb);
        const std::uint64_t n = last - first;
        std::uint16_t *offs = offsets_.data() + first;
        std::memset(offs, 0, n * sizeof(std::uint16_t));
        // Releveling is the fixed point of split-counter dynamics: a block
        // that has overflowed holds all-equal values, and subsequent
        // writes add only a small drift.  Model exactly that: most blocks
        // sit at their major with a handful of small drifted minors, and
        // a few carry larger bitmap-encoded offsets.  (Each offset is
        // drawn before the entity it lands on.)
        const unsigned drifted =
            static_cast<unsigned>(rng.nextBelow(12));
        for (unsigned k = 0; k < drifted; ++k) {
            const auto off = static_cast<std::uint16_t>(1 + rng.nextBelow(7));
            offs[rng.nextBelow(n)] = off;
        }
        if (rng.nextBool(0.1)) {
            const unsigned big = 1 + static_cast<unsigned>(
                                         rng.nextBelow(8));
            for (unsigned k = 0; k < big; ++k) {
                const auto off =
                    static_cast<std::uint16_t>(8 + rng.nextBelow(56));
                offs[rng.nextBelow(n)] = off;
            }
        }
        // One 16-bit pass (it vectorizes) summarizes the block.
        std::uint16_t max_off = 0;
        unsigned nonzero = 0, ge8 = 0;
        for (std::uint64_t i = 0; i < n; ++i) {
            max_off = std::max(max_off, offs[i]);
            nonzero += offs[i] != 0;
            ge8 += offs[i] >= 8;
        }
        BlockSummary s;
        s.max_off = max_off;
        s.nonzero = static_cast<std::uint16_t>(nonzero);
        s.ge8 = static_cast<std::uint16_t>(ge8);
        const auto fmt = formatFromSummary(s);
        if (!fmt)
            util::panic("randomInit produced unencodable morphable block");
        formats_[cb] = *fmt;
        summaries_[cb] = s;
        noteStored(major + s.max_off);
    }
}

util::BitVec512
MorphableScheme::packBlock(addr::CounterBlockId cb) const
{
    util::BitVec512 bits;
    bits.set(0, kMajorBits, majors_[cb]);
    bits.set(kMajorBits, kFormatBits,
             static_cast<std::uint64_t>(formats_[cb]));
    const auto offsets = blockOffsets(cb);
    const MorphFormatInfo &fmt = infoOf(formats_[cb]);

    if (fmt.id == MorphFormat::Uniform3) {
        for (std::size_t i = 0; i < offsets.size(); ++i)
            bits.set(kPayloadBase + i * fmt.minor_bits, fmt.minor_bits,
                     offsets[i]);
        return bits;
    }
    if (fmt.id == MorphFormat::Uniform3X) {
        // Uniform 3-bit array; offsets >= 8 go to exception slots and
        // leave zero in their uniform position.
        const std::size_t exc_base = kPayloadBase + 128 * 3;
        std::size_t slot = 0;
        for (std::size_t i = 0; i < offsets.size(); ++i) {
            if (offsets[i] < 8) {
                bits.set(kPayloadBase + i * 3, 3, offsets[i]);
            } else {
                const std::size_t base = exc_base + slot * 20;
                bits.set(base, 7, i);
                bits.set(base + 7, 13, offsets[i]);
                ++slot;
            }
        }
        assert(slot <= kUniform3xSlots);
        return bits;
    }
    if (fmt.bitmap) {
        std::size_t slot = 0;
        const std::size_t minors_base = kPayloadBase + kCoverage;
        for (std::size_t i = 0; i < offsets.size(); ++i) {
            if (offsets[i] == 0)
                continue;
            bits.set(kPayloadBase + i, 1, 1);
            bits.set(minors_base + slot * fmt.minor_bits, fmt.minor_bits,
                     offsets[i]);
            ++slot;
        }
        assert(slot <= fmt.max_nonzero);
        return bits;
    }
    // Index16: (7-bit index, 16-bit minor) pairs; unused slots zero.
    std::size_t slot = 0;
    for (std::size_t i = 0; i < offsets.size(); ++i) {
        if (offsets[i] == 0)
            continue;
        const std::size_t base = kPayloadBase + slot * 23;
        bits.set(base, 7, i);
        bits.set(base + 7, 16, offsets[i]);
        ++slot;
    }
    assert(slot <= fmt.max_nonzero);
    return bits;
}

std::pair<addr::CounterValue, std::vector<std::uint64_t>>
MorphableScheme::unpackBlock(const util::BitVec512 &bits)
{
    const addr::CounterValue major = bits.get(0, kMajorBits);
    const auto fmt_id =
        static_cast<MorphFormat>(bits.get(kMajorBits, kFormatBits));
    const MorphFormatInfo &fmt = infoOf(fmt_id);
    std::vector<std::uint64_t> offsets(kCoverage, 0);

    if (fmt.id == MorphFormat::Uniform3) {
        for (std::size_t i = 0; i < offsets.size(); ++i)
            offsets[i] =
                bits.get(kPayloadBase + i * fmt.minor_bits, fmt.minor_bits);
    } else if (fmt.id == MorphFormat::Uniform3X) {
        for (std::size_t i = 0; i < offsets.size(); ++i)
            offsets[i] = bits.get(kPayloadBase + i * 3, 3);
        const std::size_t exc_base = kPayloadBase + 128 * 3;
        for (std::size_t slot = 0; slot < kUniform3xSlots; ++slot) {
            const std::size_t base = exc_base + slot * 20;
            const std::uint64_t minor = bits.get(base + 7, 13);
            if (minor != 0)
                offsets[bits.get(base, 7)] = minor;
        }
    } else if (fmt.bitmap) {
        std::size_t slot = 0;
        const std::size_t minors_base = kPayloadBase + kCoverage;
        for (std::size_t i = 0; i < offsets.size(); ++i) {
            if (bits.get(kPayloadBase + i, 1)) {
                offsets[i] = bits.get(minors_base + slot * fmt.minor_bits,
                                      fmt.minor_bits);
                ++slot;
            }
        }
    } else {
        for (std::size_t slot = 0; slot < fmt.max_nonzero; ++slot) {
            const std::size_t base = kPayloadBase + slot * 23;
            const std::uint64_t minor = bits.get(base + 7, 16);
            if (minor != 0)
                offsets[bits.get(base, 7)] = minor;
        }
    }
    return {major, offsets};
}

} // namespace rmcc::ctr
