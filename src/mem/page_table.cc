#include "mem/page_table.hh"

#include <bit>
#include <utility>

#include "sim/logging.hh"

namespace mgsec
{

template <class Slot>
std::size_t
PageTable::Buckets<Slot>::bucketOf(std::uint64_t page) const
{
    // Fibonacci hashing: the top bits of page * 2^64/phi.
    return static_cast<std::size_t>(
        (page * 0x9e3779b97f4a7c15ull) >> shift);
}

template <class Slot>
template <class Match>
std::size_t
PageTable::Buckets<Slot>::find(std::uint64_t page, Match match) const
{
    const std::size_t mask = slots.size() - 1;
    std::size_t pos = bucketOf(page);
    while (slots[pos].page != kNoPage && !match(slots[pos]))
        pos = (pos + 1) & mask;
    return pos;
}

template <class Slot>
std::size_t
PageTable::Buckets<Slot>::freeBucket(std::uint64_t page) const
{
    return find(page, [](const Slot &) { return false; });
}

template <class Slot>
Slot &
PageTable::Buckets<Slot>::insert(const Slot &s)
{
    if (2 * (used + 1) > slots.size())
        resize(slots.empty() ? 64 : 2 * slots.size());
    ++used;
    return slots[freeBucket(s.page)] = s;
}

template <class Slot>
void
PageTable::Buckets<Slot>::erase(std::size_t pos)
{
    const std::size_t mask = slots.size() - 1;
    std::size_t hole = pos;
    for (std::size_t j = (pos + 1) & mask; slots[j].page != kNoPage;
         j = (j + 1) & mask) {
        // The slot may fill the hole only if the hole lies on its
        // probe path, i.e. between its home bucket and j.
        if (((j - bucketOf(slots[j].page)) & mask) >= ((j - hole) & mask)) {
            slots[hole] = slots[j];
            hole = j;
        }
    }
    slots[hole] = Slot{};
    --used;
}

template <class Slot>
void
PageTable::Buckets<Slot>::resize(std::size_t buckets)
{
    std::vector<Slot> old(buckets);
    old.swap(slots);
    shift = static_cast<std::uint32_t>(64 - std::countr_zero(buckets));
    for (const Slot &s : old)
        if (s.page != kNoPage)
            slots[freeBucket(s.page)] = s;
}

PageTable::PageTable(const std::string &name, EventQueue &eq,
                     PageTableParams params, std::uint32_t num_nodes)
    : SimObject(name, eq), params_(params), num_nodes_(num_nodes)
{
    static_assert(sizeof(Record) == 16 && sizeof(Spill) == 16);
    MGSEC_ASSERT(num_nodes_ >= 2, "need at least CPU + 1 GPU");
    MGSEC_ASSERT(num_nodes_ <= kNoAccessor,
                 "%u nodes: page records hold 15-bit node ids",
                 num_nodes_);
    regStat(migrations_);
    regStat(remote_accesses_);
}

const PageTable::Record *
PageTable::findRecord(std::uint64_t page) const
{
    if (pages_.slots.empty())
        return nullptr;
    const Record &r = pages_.slots[pages_.find(
        page, [page](const Record &s) { return s.page == page; })];
    return r.page == page ? &r : nullptr;
}

PageTable::Record *
PageTable::findRecord(std::uint64_t page)
{
    return const_cast<Record *>(std::as_const(*this).findRecord(page));
}

PageTable::Record &
PageTable::recordOf(std::uint64_t page, NodeId first_toucher)
{
    if (Record *r = findRecord(page))
        return *r;
    MGSEC_ASSERT(first_toucher < num_nodes_, "bad toucher %u",
                 first_toucher);
    MGSEC_ASSERT(page != kNoPage, "page %llu is reserved",
                 static_cast<unsigned long long>(page));
    Record r;
    r.page = page;
    r.home = static_cast<std::uint16_t>(first_toucher);
    return pages_.insert(r);
}

std::uint32_t &
PageTable::spillCount(Record &r, NodeId accessor)
{
    if (r.spilled) {
        Spill &s = spills_.slots[spills_.find(
            r.page, [&r, accessor](const Spill &e) {
                return e.page == r.page && e.accessor == accessor;
            })];
        if (s.page != kNoPage)
            return s.count;
    }
    r.spilled = 1;
    return spills_.insert(Spill{r.page, accessor, 0}).count;
}

void
PageTable::resetCounts(Record &r)
{
    r.accessor = kNoAccessor;
    r.count = 0;
    if (!r.spilled)
        return;
    r.spilled = 0;
    // Every spill entry of the page lies in the probe run from its
    // home bucket; a delete only shifts later slots back into the
    // scanned position, so re-examine it before moving on.
    const std::size_t mask = spills_.slots.size() - 1;
    std::size_t pos = spills_.bucketOf(r.page);
    while (spills_.slots[pos].page != kNoPage) {
        if (spills_.slots[pos].page == r.page)
            spills_.erase(pos);
        else
            pos = (pos + 1) & mask;
    }
}

NodeId
PageTable::home(std::uint64_t page, NodeId first_toucher)
{
    auto l = lockIfConcurrent();
    return recordOf(page, first_toucher).home;
}

NodeId
PageTable::homeOf(std::uint64_t page) const
{
    auto l = lockIfConcurrent();
    const Record *r = findRecord(page);
    MGSEC_ASSERT(r != nullptr, "page %llu unmapped",
                 static_cast<unsigned long long>(page));
    return r->home;
}

bool
PageTable::mapped(std::uint64_t page) const
{
    auto l = lockIfConcurrent();
    return findRecord(page) != nullptr;
}

void
PageTable::place(std::uint64_t page, NodeId node)
{
    MGSEC_ASSERT(node < num_nodes_, "bad node %u", node);
    auto l = lockIfConcurrent();
    Record &r = recordOf(page, node);
    r.home = static_cast<std::uint16_t>(node);
    resetCounts(r);
}

bool
PageTable::recordRemoteAccess(std::uint64_t page, NodeId accessor)
{
    MGSEC_ASSERT(accessor < num_nodes_, "bad accessor %u", accessor);
    auto l = lockIfConcurrent();
    Record &r = recordOf(page, accessor);
    MGSEC_ASSERT(r.home != accessor,
                 "remote access recorded by the home node");
    ++remote_accesses_;
    if (!params_.migrationEnabled)
        return false;
    if (r.accessor == kNoAccessor)
        r.accessor = static_cast<std::uint16_t>(accessor);
    std::uint32_t &count =
        r.accessor == accessor ? r.count : spillCount(r, accessor);
    if (++count >= params_.migrationThreshold) {
        resetCounts(r);
        return true;
    }
    return false;
}

void
PageTable::finishMigration(std::uint64_t page, NodeId new_home)
{
    auto l = lockIfConcurrent();
    Record *r = findRecord(page);
    MGSEC_ASSERT(r != nullptr, "migrating unmapped page");
    MGSEC_ASSERT(new_home < num_nodes_, "bad node %u", new_home);
    r->home = static_cast<std::uint16_t>(new_home);
    resetCounts(*r);
    ++migrations_;
}

std::size_t
PageTable::footprintBytes() const
{
    auto l = lockIfConcurrent();
    return pages_.slots.capacity() * sizeof(Record) +
           spills_.slots.capacity() * sizeof(Spill);
}

} // namespace mgsec
