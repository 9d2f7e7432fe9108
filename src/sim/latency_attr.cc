#include "sim/latency_attr.hh"

#include <ostream>

#include "sim/json_writer.hh"
#include "sim/logging.hh"

namespace mgsec
{

namespace
{

std::string
histName(LinkType l, const char *what)
{
    return std::string(linkTypeName(l)) + "." + what;
}

} // namespace

LatencyAttribution::LatencyAttribution(std::string scheme,
                                       std::size_t num_links)
    : scheme_(std::move(scheme)), num_links_(num_links),
      batch_close_("batchClose",
                   "first data message to batch MAC verdict (cycles)"),
      ack_return_("ackReturn",
                  "ACK queued at receiver to processed at sender "
                  "(cycles)"),
      meta_walk_("metaWalk",
                 "host integrity-tree walk latency on counter-cache "
                 "misses (cycles)")
{
    MGSEC_ASSERT(num_links_ >= 1 && num_links_ <= kNumLinkTypes,
                 "bad link-class count %zu", num_links_);
    stages_.reserve(num_links_ * kNumLifeStages);
    e2e_.reserve(num_links_);
    for (std::size_t l = 0; l < num_links_; ++l) {
        const LinkType link = static_cast<LinkType>(l);
        for (std::size_t s = 0; s < kNumLifeStages; ++s) {
            stages_.emplace_back(
                histName(link, lifeStageName(s)),
                std::string(lifeStageName(s)) + " stage cycles (" +
                    scheme_ + ", " + linkTypeName(link) + ")");
        }
        e2e_.emplace_back(histName(link, "e2e"),
                          "end-to-end message latency (" + scheme_ +
                              ", " + linkTypeName(link) + ")");
    }
    for (std::size_t l = 0; l < num_links_; ++l) {
        for (std::size_t s = 0; s < kNumLifeStages; ++s)
            group_.add(stageMut(static_cast<LinkType>(l), s));
        group_.add(e2e_[l]);
    }
    group_.add(batch_close_);
    group_.add(ack_return_);
    group_.add(meta_walk_);
}

stats::Histogram &
LatencyAttribution::stageMut(LinkType l, std::size_t s)
{
    MGSEC_ASSERT(static_cast<std::size_t>(l) < num_links_,
                 "link class %s not registered", linkTypeName(l));
    return stages_[static_cast<std::size_t>(l) * kNumLifeStages + s];
}

const stats::Histogram &
LatencyAttribution::stage(LinkType l, std::size_t s) const
{
    MGSEC_ASSERT(static_cast<std::size_t>(l) < num_links_,
                 "link class %s not registered", linkTypeName(l));
    return stages_[static_cast<std::size_t>(l) * kNumLifeStages + s];
}

const stats::Histogram &
LatencyAttribution::e2e(LinkType l) const
{
    MGSEC_ASSERT(static_cast<std::size_t>(l) < num_links_,
                 "link class %s not registered", linkTypeName(l));
    return e2e_[static_cast<std::size_t>(l)];
}

void
LatencyAttribution::fold(LinkType link, const LifeStamps &st)
{
    auto l = lockIfConcurrent();
    for (std::size_t s = 0; s < kNumLifeStages; ++s) {
        MGSEC_ASSERT(st[s + 1] >= st[s],
                     "lifecycle stamps out of order: %s %llu -> %llu",
                     lifeStageName(s),
                     static_cast<unsigned long long>(st[s]),
                     static_cast<unsigned long long>(st[s + 1]));
        stageMut(link, s).record(st[s + 1] - st[s]);
    }
    e2e_[static_cast<std::size_t>(link)].record(
        st[kNumLifeStamps - 1] - st[0]);
    ++folds_;
}

void
LatencyAttribution::writeJson(std::ostream &os) const
{
    JsonWriter w(os);
    w.beginObject();
    w.field("scheme", scheme_);
    w.field("folds", folds_);
    group_.dumpJson(w);
    w.endObject();
    os << "\n";
}

void
LatencyAttribution::reset()
{
    group_.resetAll();
    folds_ = 0;
}

} // namespace mgsec
