#include "cache/set_assoc.hpp"

#include <bit>
#include <cassert>

#include "util/log.hpp"

namespace rmcc::cache
{

bool
SetAssocCache::simdProbesActive()
{
    return false;
}

SetAssocCache::SetAssocCache(std::string name, std::uint64_t size_bytes,
                             unsigned assoc, unsigned line_bytes,
                             ReplPolicy policy)
    : name_(std::move(name)), assoc_(assoc), line_(line_bytes),
      policy_(policy)
{
    if (assoc_ == 0 || line_ == 0 ||
        size_bytes % (static_cast<std::uint64_t>(assoc_) * line_) != 0) {
        util::fatal("cache %s: size %llu not divisible by assoc*line",
                    name_.c_str(),
                    static_cast<unsigned long long>(size_bytes));
    }
    sets_count_ = size_bytes / (static_cast<std::uint64_t>(assoc_) * line_);
    if (sets_count_ == 0) {
        util::fatal("cache %s: geometry has zero sets (size %llu, "
                    "assoc %u, line %u)",
                    name_.c_str(),
                    static_cast<unsigned long long>(size_bytes), assoc_,
                    line_);
    }
    if (assoc_ > kMaxAssoc) {
        util::fatal("cache %s: associativity %u exceeds the %u ways its "
                    "recency links can index",
                    name_.c_str(), assoc_, kMaxAssoc);
    }
    line_pow2_ = std::has_single_bit(line_);
    if (line_pow2_)
        line_shift_ = static_cast<unsigned>(std::countr_zero(line_));
    sets_pow2_ = std::has_single_bit(sets_count_);
    if (sets_pow2_)
        set_mask_ = sets_count_ - 1;
    tags_.assign(sets_count_ * assoc_, kInvalidTag);
    dirty_.assign(sets_count_ * assoc_, 0);
    links_.assign(sets_count_ * assoc_, Link{0, 0});
    set_state_.assign(sets_count_, SetState{});
}

// rmcc-lint: hot-path
int
SetAssocCache::findWay(std::uint64_t set, addr::Addr tag) const
{
    const addr::Addr *tags = &tags_[set * assoc_];
    const unsigned hint = set_state_[set].head;
    if (tags[hint] == tag)
        return static_cast<int>(hint);
    // The hint way cannot match again, so rescanning it is one harmless
    // compare; keeping the loop branch-free lets it vectorize.
    for (unsigned w = 0; w < assoc_; ++w)
        if (tags[w] == tag)
            return static_cast<int>(w);
    return -1;
}

void
SetAssocCache::unlink(SetState &st, Link *links, Way w)
{
    const Link l = links[w];
    if (w == st.head)
        st.head = l.next;
    else
        links[l.prev].next = l.next;
    if (w == st.tail)
        st.tail = l.prev;
    else
        links[l.next].prev = l.prev;
}

void
SetAssocCache::linkAtHead(SetState &st, Link *links, Way w)
{
    if (st.filled == 0) {
        st.tail = w;
    } else {
        links[w].next = st.head;
        links[st.head].prev = w;
    }
    st.head = w;
}

// rmcc-lint: hot-path
void
SetAssocCache::moveToHead(std::uint64_t set, unsigned way)
{
    SetState &st = set_state_[set];
    if (way == st.head)
        return;
    Link *links = &links_[set * assoc_];
    unlink(st, links, static_cast<Way>(way));
    linkAtHead(st, links, static_cast<Way>(way));
}

AccessResult
SetAssocCache::replaceIn(std::uint64_t set, addr::Addr tag, bool dirty)
{
    SetState &st = set_state_[set];
    AccessResult res;
    unsigned way = 0;
    if (st.filled < assoc_) {
        // Not full: the lowest-index invalid way, linked in at the head.
        const addr::Addr *tags = &tags_[set * assoc_];
        while (tags[way] != kInvalidTag)
            ++way;
        linkAtHead(st, &links_[set * assoc_], static_cast<Way>(way));
        ++st.filled;
    } else {
        // Full: the tail is the least recently linked way.
        way = st.tail;
        const std::size_t li = set * assoc_ + way;
        res.evicted = true;
        res.writeback = dirty_[li] != 0;
        res.victim_addr = tags_[li] * line_;
        if (dirty_[li])
            ++writebacks_;
        moveToHead(set, way);
    }
    const std::size_t li = set * assoc_ + way;
    tags_[li] = tag;
    dirty_[li] = dirty ? 1 : 0;
    return res;
}

AccessResult
SetAssocCache::access(addr::Addr a, bool is_write)
{
    const addr::Addr tag = tagOf(a);
    const std::uint64_t set = setIndex(a);
    const int way = findWay(set, tag);
    if (way >= 0) {
        const unsigned w = static_cast<unsigned>(way);
        if (policy_ == ReplPolicy::LRU)
            moveToHead(set, w);
        if (is_write)
            dirty_[set * assoc_ + w] = 1;
        ++hits_;
        return {true, false, false, 0};
    }
    ++misses_;
    // The set cannot have gained the tag since the probe above, so the
    // insertion skips fill()'s tag scan.
    return replaceIn(set, tag, is_write);
}

bool
SetAssocCache::accessIfPresent(addr::Addr a, bool is_write)
{
    const std::uint64_t set = setIndex(a);
    const int way = findWay(set, tagOf(a));
    if (way < 0)
        return false;
    const unsigned w = static_cast<unsigned>(way);
    if (policy_ == ReplPolicy::LRU)
        moveToHead(set, w);
    if (is_write)
        dirty_[set * assoc_ + w] = 1;
    ++hits_;
    return true;
}

AccessResult
SetAssocCache::fill(addr::Addr a, bool dirty)
{
    const addr::Addr tag = tagOf(a);
    const std::uint64_t set = setIndex(a);
    const int existing = findWay(set, tag);
    if (existing >= 0) {
        const unsigned w = static_cast<unsigned>(existing);
        if (dirty)
            dirty_[set * assoc_ + w] = 1;
        if (policy_ == ReplPolicy::LRU)
            moveToHead(set, w);
        return {true, false, false, 0};
    }
    return replaceIn(set, tag, dirty);
}

AccessResult
SetAssocCache::fillAbsent(addr::Addr a, bool dirty)
{
    const addr::Addr tag = tagOf(a);
    const std::uint64_t set = setIndex(a);
    assert(findWay(set, tag) < 0);
    return replaceIn(set, tag, dirty);
}

bool
SetAssocCache::probe(addr::Addr a) const
{
    return findWay(setIndex(a), tagOf(a)) >= 0;
}

bool
SetAssocCache::invalidate(addr::Addr a)
{
    const std::uint64_t set = setIndex(a);
    const int way = findWay(set, tagOf(a));
    if (way < 0)
        return false;
    const std::size_t li = set * assoc_ + static_cast<unsigned>(way);
    const bool was_dirty = dirty_[li] != 0;
    tags_[li] = kInvalidTag;
    dirty_[li] = 0;
    // A set left empty keeps stale (but in-range) list ends.
    SetState &st = set_state_[set];
    unlink(st, &links_[set * assoc_], static_cast<Way>(way));
    --st.filled;
    return was_dirty;
}

void
SetAssocCache::touchDirty(addr::Addr a)
{
    const std::uint64_t set = setIndex(a);
    const int way = findWay(set, tagOf(a));
    if (way >= 0)
        dirty_[set * assoc_ + static_cast<unsigned>(way)] = 1;
}

void
SetAssocCache::resetStats()
{
    hits_ = misses_ = writebacks_ = 0;
}

} // namespace rmcc::cache
