#include "sim/wire_observer.hh"

#include <cmath>
#include <ostream>

#include "sim/json_writer.hh"

namespace mgsec
{

WireObserver::Flow::Flow(std::size_t link_class)
    : cls(link_class), gap("gap", "inter-packet send gap (cycles)"),
      size("size", "wire bytes per packet"),
      burst("burst", "packets per burst"),
      ctlGap("ctlGap", "gap between control-sized packets (cycles)")
{
}

WireObserver::WireObserver(std::uint32_t num_nodes,
                           std::vector<std::string> class_names,
                           Classifier classify, Params p)
    : num_nodes_(num_nodes), params_(p), flow_ix_(num_nodes),
      class_names_(std::move(class_names)),
      classify_(std::move(classify)), classes_(class_names_.size())
{
}

WireObserver::Flow &
WireObserver::touch(NodeId src, NodeId dst)
{
    std::vector<std::uint32_t> &row = flow_ix_[src];
    if (row.empty())
        row.assign(num_nodes_, kNoFlow);
    if (row[dst] == kNoFlow) {
        row[dst] = static_cast<std::uint32_t>(flows_.size());
        flows_.emplace_back(classify_(src, dst));
    }
    return flows_[row[dst]];
}

const WireObserver::Flow *
WireObserver::find(NodeId src, NodeId dst) const
{
    const std::vector<std::uint32_t> &row = flow_ix_[src];
    return row.empty() || row[dst] == kNoFlow ? nullptr
                                              : &flows_[row[dst]];
}

void
WireObserver::onWirePacket(NodeId src, NodeId dst, Bytes bytes,
                           Tick send_tick, Tick arrive_tick)
{
    Flow &f = touch(src, dst);
    const Tick occupancy =
        arrive_tick > send_tick ? arrive_tick - send_tick : 0;

    if (f.packets) {
        const Tick delta =
            send_tick > f.lastSend ? send_tick - f.lastSend : 0;
        f.gap.record(delta);
        if (delta <= params_.burstGap) {
            ++f.burstLen;
        } else {
            f.burst.record(f.burstLen);
            f.burstLen = 1;
            f.burstStart = send_tick;
        }
    } else {
        f.firstSend = send_tick;
        f.burstStart = send_tick;
        f.burstLen = 1;
    }
    f.lastSend = send_tick;
    if (arrive_tick > f.lastArrive)
        f.lastArrive = arrive_tick;
    ++f.packets;
    f.bytes += bytes;
    f.busy += occupancy;
    f.size.record(bytes);

    if (bytes <= params_.ctlMaxBytes) {
        if (f.ctlSeen) {
            const Tick delta =
                send_tick > f.lastCtl ? send_tick - f.lastCtl : 0;
            f.ctlGap.record(delta);
        }
        f.ctlSeen = true;
        f.lastCtl = send_tick;
        ++f.ctlPackets;
    }

    LinkClass &cls = classes_[f.cls];
    ++cls.packets;
    cls.bytes += bytes;
    cls.busy += occupancy;
    const std::size_t bin =
        static_cast<std::size_t>(send_tick / params_.windowCycles);
    if (bin >= params_.maxWindows) {
        ++cls.droppedWindows;
    } else {
        if (bin >= cls.windowBytes.size())
            cls.windowBytes.resize(bin + 1, 0);
        cls.windowBytes[bin] += bytes;
    }

    if (!any_) {
        first_send_ = send_tick;
        any_ = true;
    } else if (send_tick < first_send_) {
        first_send_ = send_tick;
    }
    if (arrive_tick > last_arrive_)
        last_arrive_ = arrive_tick;
    ++packets_;
    bytes_ += bytes;
}

void
WireObserver::mergeClass(std::size_t cls, stats::Histogram &gap,
                         stats::Histogram &size,
                         stats::Histogram &burst,
                         stats::Histogram &ctl_gap,
                         std::uint64_t &ctl_packets) const
{
    ctl_packets = 0;
    for (NodeId s = 0; s < num_nodes_; ++s) {
        for (NodeId d = 0; d < num_nodes_; ++d) {
            const Flow *fp = find(s, d);
            if (!fp || fp->cls != cls)
                continue;
            const Flow &f = *fp;
            gap.merge(f.gap);
            size.merge(f.size);
            burst.merge(f.burst);
            if (f.burstLen > 0)
                burst.record(f.burstLen); // still-open burst
            ctl_gap.merge(f.ctlGap);
            ctl_packets += f.ctlPackets;
        }
    }
}

namespace
{

/** Coefficient of variation and active fraction of a window span. */
struct WindowShape
{
    double meanBytes = 0.0;
    double cv = 0.0;
    double activeFrac = 0.0;
};

WindowShape
windowShape(const std::vector<std::uint64_t> &bins)
{
    // Only the span between the first and last active window is
    // meaningful: leading/trailing silence says "the run had not
    // started / had finished", not "the link was idle mid-phase".
    std::size_t lo = bins.size(), hi = 0;
    for (std::size_t i = 0; i < bins.size(); ++i) {
        if (bins[i] == 0)
            continue;
        if (i < lo)
            lo = i;
        hi = i;
    }
    WindowShape ws;
    // No active window (an empty vector included: a link class that
    // never carried a packet has no bins at all).
    if (lo == bins.size())
        return ws;
    const std::size_t n = hi - lo + 1;
    double sum = 0.0, sqsum = 0.0;
    std::size_t active = 0;
    for (std::size_t i = lo; i <= hi; ++i) {
        const double v = static_cast<double>(bins[i]);
        sum += v;
        sqsum += v * v;
        if (bins[i] > 0)
            ++active;
    }
    const double mean = sum / static_cast<double>(n);
    const double var =
        sqsum / static_cast<double>(n) - mean * mean;
    ws.meanBytes = mean;
    ws.cv = mean > 0.0 ? std::sqrt(var > 0.0 ? var : 0.0) / mean : 0.0;
    ws.activeFrac =
        static_cast<double>(active) / static_cast<double>(n);
    return ws;
}

} // namespace

std::vector<std::pair<std::string, double>>
WireObserver::features() const
{
    std::vector<std::pair<std::string, double>> out;
    out.reserve(48);
    const Tick duration =
        any_ && last_arrive_ > first_send_ ? last_arrive_ - first_send_
                                           : 0;

    for (std::size_t c = 0; c < classes_.size(); ++c) {
        const char *prefix = class_names_[c].c_str();
        const LinkClass &cls = classes_[c];
        stats::Histogram gap("gap", ""), size("size", ""),
            burst("burst", ""), ctl("ctlGap", "");
        std::uint64_t ctl_packets = 0;
        mergeClass(c, gap, size, burst, ctl, ctl_packets);
        const WindowShape ws = windowShape(cls.windowBytes);
        const auto name = [&](const char *f) {
            return std::string(prefix) + "." + f;
        };
        out.emplace_back(name("gapMean"), gap.mean());
        out.emplace_back(name("gapP50"), gap.percentile(50.0));
        out.emplace_back(name("gapP90"), gap.percentile(90.0));
        out.emplace_back(name("gapP99"), gap.percentile(99.0));
        out.emplace_back(name("sizeMean"), size.mean());
        out.emplace_back(name("sizeP50"), size.percentile(50.0));
        out.emplace_back(name("sizeP90"), size.percentile(90.0));
        out.emplace_back(name("burstMean"), burst.mean());
        out.emplace_back(name("burstP90"), burst.percentile(90.0));
        out.emplace_back(name("ctlGapMean"), ctl.mean());
        out.emplace_back(name("ctlGapP50"), ctl.percentile(50.0));
        out.emplace_back(
            name("ctlFrac"),
            cls.packets ? static_cast<double>(ctl_packets) /
                              static_cast<double>(cls.packets)
                        : 0.0);
        out.emplace_back(name("utilCv"), ws.cv);
        out.emplace_back(name("utilActiveFrac"), ws.activeFrac);
        out.emplace_back(name("utilMeanBytes"), ws.meanBytes);
        out.emplace_back(name("packets"),
                         static_cast<double>(cls.packets));
        out.emplace_back(name("bytes"),
                         static_cast<double>(cls.bytes));
        out.emplace_back(
            name("pktPerKcyc"),
            duration ? static_cast<double>(cls.packets) * 1000.0 /
                           static_cast<double>(duration)
                     : 0.0);
        out.emplace_back(
            name("busyFrac"),
            duration ? static_cast<double>(cls.busy) /
                           static_cast<double>(duration)
                     : 0.0);
    }

    // Fan-out: who talks to whom, and how evenly. Constant-rate
    // shaping cannot hide the communication graph without chaff
    // traffic, so these stay informative under every policy.
    std::uint64_t active_srcs = 0, directed_pairs = 0;
    double nv_entropy = 0.0;
    std::uint64_t nv_total = 0;
    for (NodeId s = 0; s < num_nodes_; ++s) {
        std::uint64_t dsts = 0;
        for (NodeId d = 0; d < num_nodes_; ++d) {
            const Flow *f = find(s, d);
            if (!f)
                continue;
            ++dsts;
            if (f->cls != 0)
                nv_total += f->bytes;
        }
        if (dsts) {
            ++active_srcs;
            directed_pairs += dsts;
        }
    }
    if (nv_total) {
        for (NodeId s = 0; s < num_nodes_; ++s) {
            for (NodeId d = 0; d < num_nodes_; ++d) {
                const Flow *f = find(s, d);
                if (!f || f->cls == 0 || !f->bytes)
                    continue;
                const double p = static_cast<double>(f->bytes) /
                                 static_cast<double>(nv_total);
                nv_entropy -= p * std::log2(p);
            }
        }
    }
    out.emplace_back("fanoutMeanDsts",
                     active_srcs
                         ? static_cast<double>(directed_pairs) /
                               static_cast<double>(active_srcs)
                         : 0.0);
    out.emplace_back("fanoutEntropyBits", nv_entropy);
    out.emplace_back("durationCycles", static_cast<double>(duration));
    out.emplace_back("packets", static_cast<double>(packets_));
    out.emplace_back("bytes", static_cast<double>(bytes_));
    return out;
}

void
WireObserver::writeJson(std::ostream &os) const
{
    JsonWriter w(os);
    w.beginObject();
    w.field("type", std::string("wire"));
    w.field("nodes", static_cast<std::uint64_t>(num_nodes_));
    w.field("windowCycles",
            static_cast<std::uint64_t>(params_.windowCycles));
    w.field("burstGap", static_cast<std::uint64_t>(params_.burstGap));
    w.field("ctlMaxBytes",
            static_cast<std::uint64_t>(params_.ctlMaxBytes));
    w.field("packets", packets_);
    w.field("bytes", bytes_);
    const Tick duration =
        any_ && last_arrive_ > first_send_ ? last_arrive_ - first_send_
                                           : 0;
    w.field("durationCycles", static_cast<std::uint64_t>(duration));

    w.beginArray("flows");
    for (NodeId s = 0; s < num_nodes_; ++s) {
        for (NodeId d = 0; d < num_nodes_; ++d) {
            const Flow *fp = find(s, d);
            if (!fp)
                continue;
            const Flow &f = *fp;
            w.beginObject();
            w.field("src", static_cast<std::uint64_t>(s));
            w.field("dst", static_cast<std::uint64_t>(d));
            w.field("link", class_names_[f.cls]);
            w.field("packets", f.packets);
            w.field("bytes", f.bytes);
            w.field("busy", f.busy);
            w.field("ctlPackets", f.ctlPackets);
            w.field("firstSend",
                    static_cast<std::uint64_t>(f.firstSend));
            w.field("lastSend",
                    static_cast<std::uint64_t>(f.lastSend));
            w.field("lastArrive",
                    static_cast<std::uint64_t>(f.lastArrive));
            f.gap.dumpJson(w);
            f.size.dumpJson(w);
            stats::Histogram closed = f.burst;
            if (f.burstLen > 0)
                closed.record(f.burstLen);
            closed.dumpJson(w);
            f.ctlGap.dumpJson(w);
            w.endObject();
        }
    }
    w.endArray();

    w.key("links");
    w.beginObject();
    for (std::size_t c = 0; c < classes_.size(); ++c) {
        const LinkClass &cls = classes_[c];
        stats::Histogram gap("gap", "merged inter-packet gap"),
            size("size", "merged wire size"),
            burst("burst", "merged burst length"),
            ctl("ctlGap", "merged control gap");
        std::uint64_t ctl_packets = 0;
        mergeClass(c, gap, size, burst, ctl, ctl_packets);
        w.key(class_names_[c]);
        w.beginObject();
        w.field("packets", cls.packets);
        w.field("bytes", cls.bytes);
        w.field("busy", cls.busy);
        w.field("ctlPackets", ctl_packets);
        gap.dumpJson(w);
        size.dumpJson(w);
        burst.dumpJson(w);
        ctl.dumpJson(w);
        w.key("util");
        w.beginObject();
        w.field("windowCycles",
                static_cast<std::uint64_t>(params_.windowCycles));
        w.field("droppedWindows", cls.droppedWindows);
        w.beginArray("bins");
        for (std::size_t i = 0; i < cls.windowBytes.size(); ++i) {
            if (cls.windowBytes[i] == 0)
                continue;
            w.beginArray();
            w.value(static_cast<std::uint64_t>(i));
            w.value(cls.windowBytes[i]);
            w.endArray();
        }
        w.endArray();
        w.endObject();
        w.endObject();
    }
    w.endObject();

    w.key("features");
    w.beginObject();
    for (const auto &[name, value] : features())
        w.field(name, value);
    w.endObject();

    w.endObject();
    os << "\n";
}

} // namespace mgsec
