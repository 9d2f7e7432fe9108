#include "core/figures.hh"

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <fstream>
#include <ostream>

#include "core/report.hh"
#include "secure/otp_types.hh"
#include "secure/security_config.hh"
#include "sim/json_writer.hh"
#include "sim/logging.hh"
#include "workload/profile.hh"

// Spec entries and table axes set only the fields they need; the rest
// keep their defaults on purpose.
#pragma GCC diagnostic ignored "-Wmissing-field-initializers"

namespace mgsec
{

namespace
{

/** @p key's value, or the number @p key spells, or NaN. */
double
lookup(const std::map<std::string, double> &values,
       const std::string &key)
{
    char *end = nullptr;
    const double v = std::strtod(key.c_str(), &end);
    if (!key.empty() && *end == '\0')
        return v;
    const auto it = values.find(key);
    return it == values.end() ? kNoValue : it->second;
}

std::string
join(const std::string &a, const std::string &b)
{
    return a.empty() || b.empty() ? a + b : a + " " + b;
}

std::string
num(double v)
{
    return strformat("%.4g", v);
}

} // anonymous namespace

/**
 * The state of one runFigures() call. Each layout is written once and
 * run twice: the first pass only queues the configurations it looks
 * up (printing to a null stream, reading empty results), the second
 * prints the results once the Sweep has run. A configuration that
 * several figures share is queued once.
 */
class FigureRun
{
  public:
    /** One workload row of a Grid table, for the JSON output. */
    struct Row
    {
        std::string table, workload;
        std::vector<std::pair<std::string, double>> cells;
    };

    explicit FigureRun(const SweepArgs &args) : sweep_(args) {}

    const NormResult &
    norm(const std::string &wl, const ExperimentConfig &cfg)
    {
        static const NormResult empty;
        const std::size_t *h = queue(norm_, wl, cfg, &Sweep::addNormalized);
        return h ? sweep_.normalized(*h) : empty;
    }

    const RunResult &
    raw(const std::string &wl, const ExperimentConfig &cfg)
    {
        static const RunResult empty;
        const std::size_t *h = queue(raw_, wl, cfg, &Sweep::addRaw);
        return h ? sweep_.raw(*h) : empty;
    }

    void
    run(std::ostream &out)
    {
        sweep_.run();
        ran_ = true;
        out_ = &out;
    }

    std::ostream &out() { return *out_; }

    void set(const std::string &key, double v) { values[key] = v; }
    double get(const std::string &key) const { return lookup(values, key); }

    /** What the figure being printed measured (reset per figure). */
    std::map<std::string, double> values;
    std::vector<Row> rows;

  private:
    /** The handle to read after the run; before it, queue the run. */
    template <typename Add>
    const std::size_t *
    queue(std::map<std::string, std::size_t> &handles, const std::string &wl,
          const ExperimentConfig &cfg, Add add)
    {
        const std::string key = configKey(wl, cfg);
        if (ran_)
            return &handles.at(key);
        if (!handles.count(key))
            handles[key] = (sweep_.*add)(wl, cfg);
        return nullptr;
    }

    Sweep sweep_;
    bool ran_ = false;
    std::ostream null_{nullptr};
    std::ostream *out_ = &null_;
    std::map<std::string, std::size_t> norm_, raw_;
};

namespace
{

ExperimentConfig
cellConfig(const FigureTable &t, const Axis *row, const Axis &col)
{
    ExperimentConfig cfg;
    for (const ConfigMod *m : {&t.mod, row ? &row->mod : nullptr,
                               &col.mod}) {
        if (m && *m)
            (*m)(cfg);
    }
    return cfg;
}

double
metricOf(const NormResult &n, Metric m)
{
    return m == Metric::Time ? n.time : n.traffic;
}

/** Replace each "{A vs B}" by 1 - A/B and record it as a value. */
std::string
expand(FigureRun &r, const std::string &text, const std::string &prefix)
{
    std::string s;
    std::size_t pos = 0;
    for (std::size_t open; (open = text.find('{', pos)) !=
                           std::string::npos;) {
        const std::size_t close = text.find('}', open);
        const std::string expr = text.substr(open + 1, close - open - 1);
        const std::size_t vs = expr.find(" vs ");
        const double cut =
            1.0 - r.get(join(prefix, expr.substr(0, vs))) /
                      r.get(join(prefix, expr.substr(vs + 4)));
        r.set(join(prefix, expr), cut);
        s += text.substr(pos, open - pos) + fmtPct(cut);
        pos = close + 1;
    }
    return s + text.substr(pos);
}

/**
 * A table without rows shows each workload, then their MEAN; with
 * rows, each is a point whose cells are means over every workload.
 */
void
renderGrid(const Figure &f, FigureRun &r)
{
    for (const FigureTable &t : f.tables) {
        r.out() << t.heading;
        std::vector<std::string> hdr{t.corner};
        for (const Axis &c : f.cols)
            hdr.push_back(c.label);
        if (f.classSplit)
            hdr.insert(hdr.end(), {"hdr%", "payload%", "meta%", "ack%"});
        Table tab(hdr);
        const bool matrix = t.rows.empty();
        std::vector<Axis> rows = t.rows;
        if (matrix) {
            for (const std::string &wl : workloadNames())
                rows.push_back({wl});
            rows.push_back({"MEAN"});
        }
        for (const Axis &p : rows) {
            const bool workload_row = matrix && p.label != "MEAN";
            std::vector<std::string> row{p.label};
            FigureRun::Row json{t.key, p.label, {}};
            const NormResult *n = nullptr;
            for (const Axis &c : f.cols) {
                std::vector<double> v;
                for (const std::string &wl : workloadNames()) {
                    if (!workload_row || wl == p.label) {
                        n = &r.norm(wl, cellConfig(t, &p, c));
                        v.push_back(metricOf(*n, c.metric));
                    }
                }
                row.push_back(fmtDouble(mean(v)));
                if (workload_row)
                    json.cells.emplace_back(c.label, mean(v));
                else
                    r.set(join(join(t.key, matrix ? "" : p.label), c.label),
                          mean(v));
            }
            if (f.classSplit) {
                const auto &cb = n->sample.classBytes;
                const double total =
                    static_cast<double>(cb[0] + cb[1] + cb[2] + cb[3]);
                for (std::size_t c = 0; c < 4; ++c) {
                    const double share = static_cast<double>(cb[c]) / total;
                    row.push_back(workload_row ? fmtPct(share) : "");
                }
            }
            tab.addRow(row);
            if (workload_row)
                r.rows.push_back(std::move(json));
        }
        tab.print(r.out());
        r.out() << expand(r, t.footer, t.key);
    }
}

void
renderOtpSplit(const Figure &f, FigureRun &r)
{
    Table tab({"scheme", "dir", "hit", "partial", "miss", "hidden"});
    for (const Axis &c : f.cols) {
        OtpStats agg;
        std::vector<double> times;
        for (const std::string &wl : workloadNames()) {
            const NormResult &n =
                r.norm(wl, cellConfig(f.tables[0], nullptr, c));
            agg += n.sample.otp;
            times.push_back(n.time);
        }
        r.set(c.label + " time", mean(times));
        for (Direction d : {Direction::Send, Direction::Recv}) {
            const double h = agg.frac(d, OtpOutcome::Hit);
            const double p = agg.frac(d, OtpOutcome::Partial);
            tab.addRow({c.label, directionName(d), fmtPct(h), fmtPct(p),
                        fmtPct(agg.frac(d, OtpOutcome::Miss)),
                        fmtPct(h + p)});
            r.set(c.label + " " + directionName(d) + " hidden", h + p);
        }
    }
    tab.print(r.out());
}

void
renderCommSeries(const Figure &, FigureRun &r)
{
    ExperimentConfig cfg;
    cfg.scheme = OtpScheme::Unsecure;
    cfg.commSampleInterval = 4000;
    cfg.seed = 1; // one representative run; --seeds does not apply
    const std::vector<CommSample> &series = r.raw("mm", cfg).commSeries;

    Table t({"tick", "send%", "recv%", "toCPU%", "toGPU2%", "toGPU3%",
             "toGPU4%"});
    // Aggregate adjacent samples into ~24 rows for readability.
    const std::size_t group = std::max<std::size_t>(1, series.size() / 24);
    std::vector<double> top_two;
    for (std::size_t i = 0; i < series.size(); i += group) {
        Tick tick = 0;
        std::uint64_t sends = 0, recvs = 0;
        std::vector<std::uint64_t> to(5, 0);
        for (std::size_t j = i; j < std::min(i + group, series.size());
             ++j) {
            const CommSample &s = series[j];
            tick = s.tick;
            sends += s.sends;
            recvs += s.recvs;
            for (std::size_t d = 0;
                 d < std::min<std::size_t>(5, s.sendsTo.size()); ++d)
                to[d] += s.sendsTo[d];
        }
        const double both = static_cast<double>(sends + recvs);
        const double out = static_cast<double>(sends);
        if (both == 0)
            continue;
        auto pct = [](std::uint64_t x, double tot) {
            return tot > 0 ? fmtPct(static_cast<double>(x) / tot, 0)
                           : std::string("-");
        };
        t.addRow({std::to_string(tick), pct(sends, both),
                  pct(recvs, both), pct(to[0], out), pct(to[2], out),
                  pct(to[3], out), pct(to[4], out)});
        if (out > 0) {
            std::sort(to.rbegin(), to.rend());
            top_two.push_back(static_cast<double>(to[0] + to[1]) / out);
        }
    }
    t.print(r.out());
    r.set("top-two destination share", mean(top_two));
}

void
renderBurst(const Figure &, FigureRun &r)
{
    // The paper's x-axis buckets: [0,40), [40,160), [160,640), ...
    static const Cycles kEdges[] = {40, 160, 640, 2560};
    for (const int blocks : {16, 32}) {
        r.out() << "--- time to accumulate " << blocks
                << " data blocks on a pair\n";
        Table t({"workload", "[0,40)", "[40,160)", "[160,640)",
                 "[640,2560)", ">=2560", "samples"});
        std::vector<double> under160;
        for (const std::string &wl : workloadNames()) {
            ExperimentConfig cfg;
            cfg.scheme = OtpScheme::Unsecure;
            const RunResult &res = r.raw(wl, cfg);
            const auto &samples = blocks == 16 ? res.burst16 : res.burst32;
            std::vector<double> h(5, 0.0);
            for (Cycles c : samples)
                h[std::upper_bound(std::begin(kEdges), std::end(kEdges),
                                   c) -
                  std::begin(kEdges)] += 1.0;
            for (double &x : h)
                x /= static_cast<double>(
                    std::max<std::size_t>(1, samples.size()));
            t.addRow({wl, fmtPct(h[0]), fmtPct(h[1]), fmtPct(h[2]),
                      fmtPct(h[3]), fmtPct(h[4]),
                      std::to_string(samples.size())});
            if (!samples.empty())
                under160.push_back(h[0] + h[1]);
        }
        t.addRow({"MEAN<160", fmtPct(mean(under160)), "", "", "", "", ""});
        t.print(r.out());
        r.out() << "\n";
        r.set(std::to_string(blocks) + " blocks <160", mean(under160));
    }
}

void
renderStorage(const Figure &, FigureRun &r)
{
    Table t({"GPUs", "metric", "1x", "2x", "4x", "8x", "16x"});
    for (std::uint32_t gpus : {4u, 8u, 16u, 32u}) {
        std::vector<std::string> storage{std::to_string(gpus), "Storage"};
        std::vector<std::string> count{std::to_string(gpus), "# of OTPs"};
        for (std::uint32_t mult : {1u, 2u, 4u, 8u, 16u}) {
            // Each GPU keeps quota entries for every peer (the other
            // GPUs plus the CPU) in both directions.
            const std::uint64_t total =
                static_cast<std::uint64_t>(gpus) * 2 * mult * gpus;
            const double kb =
                static_cast<double>(total) * kOtpEntryBytes / 1024.0;
            storage.push_back(fmtDouble(kb, 2) + " KB");
            count.push_back(std::to_string(total) + " OTPs");
            const std::string key = strformat("%u GPUs %ux", gpus, mult);
            r.set(key + " KB", kb);
            r.set(key + " OTPs", static_cast<double>(total));
        }
        t.addRow(storage);
        t.addRow(count);
    }
    t.print(r.out());
}

void
render(const Figure &f, FigureRun &r)
{
    r.out() << "=== " << f.title << "\n    reproduces: " << f.reproduces
            << "\n\n";
    switch (f.layout) {
      case Layout::Grid: renderGrid(f, r); break;
      case Layout::OtpSplit: renderOtpSplit(f, r); break;
      case Layout::CommSeries: renderCommSeries(f, r); break;
      case Layout::Burst: renderBurst(f, r); break;
      case Layout::Storage: renderStorage(f, r); break;
    }
    r.out() << expand(r, f.footer, "");
    if (f.extra)
        f.extra(r);
}

// ---- the spec ----------------------------------------------------

ConfigMod
scheme(OtpScheme s, std::uint32_t mult = 4)
{
    return [=](ExperimentConfig &c) {
        c.scheme = s;
        c.otpMult = mult;
    };
}

/** Ours: Dynamic partitioning plus metadata batching. */
void
ours(ExperimentConfig &c)
{
    c.scheme = OtpScheme::Dynamic;
    c.batching = true;
}

std::vector<Axis>
priorSchemes()
{
    return {{"Private", scheme(OtpScheme::Private)},
            {"Shared", scheme(OtpScheme::Shared)},
            {"Cached", scheme(OtpScheme::Cached)}};
}

std::vector<Axis>
privateCachedOurs(Metric m = Metric::Time)
{
    return {{"Private", scheme(OtpScheme::Private), m},
            {"Cached", scheme(OtpScheme::Cached), m},
            {"Ours", ours, m}};
}

/** One entry per value of a knob, labelled by the value. */
std::vector<Axis>
points(const std::vector<double> &xs, int precision,
       const std::string &suffix, void (*set)(ExperimentConfig &, double))
{
    std::vector<Axis> out;
    for (double x : xs)
        out.push_back({fmtDouble(x, precision) + suffix,
                       [=](ExperimentConfig &c) { set(c, x); }});
    return out;
}

// Explanations shared by more than one row.
const char *const kWhyFloor =
    "The 16x floor is the metadata bandwidth term that buffers cannot "
    "buy off, and that term costs less time here: Fig. 11's +Traffic "
    "step is +2.8 points here, +11.3 in the paper.";
const char *const kWhyMargin =
    "Batching saves metadata bytes, and those cost less time here than "
    "in the paper (Fig. 11: +2.8 points against +11.3), so Ours has "
    "less to win.";
const char *const kWhyCached =
    "Our Cached misses fall back to a Shared-style pad, and a receive "
    "fallback restarts the pair's staged pipeline, so it hides less "
    "than the paper's. It still runs faster than Private (the Cached "
    "time law): hiding does not set performance here.";
const char *const kWhyRecv =
    "Not isolated. Receivers stage pads on each pair's predictable "
    "counter stream, and in our model nearly every receive of a "
    "per-pair scheme finds its pad staged.";
const char *const kWhyGpus =
    "The paper's degradations grow faster with the GPU count (Private "
    "1.195/1.293/1.321 at 4/8/16 GPUs). With 32 pair-directions "
    "sharing 128 entries at 16 GPUs, Dynamic's guaranteed minimum "
    "leaves little surplus to concentrate, so Ours' lead over Private "
    "narrows where the paper's widens.";
const char *const kWhyCtr =
    "Not explained. Every batched member still carries its 8 B MsgCTR "
    "and sender id, but those bytes are not the gap: dropping them from "
    "Ours lifts the cut to 24.8%, 4.6 points past the paper's 20.2%.";
const char *const kWhyLowAes =
    "At 10-20 cycles a Private miss costs one short generation and "
    "Private's receives stop missing, while Cached's still miss: on "
    "fft (seed 1) at 10 cycles Private misses 0.0% of receive pads, "
    "Cached 37.6%.";

std::vector<Figure>
buildSpecs()
{
    return {
        {.name = "table1",
         .title = "Table I — Private OTP buffer storage",
         .reproduces = "Table I (storage and entry counts)",
         .layout = Layout::Storage,
         .footer = "\npaper reference points: 4 GPUs/1x = 2.75 KB & 32 "
                   "OTPs; 32 GPUs/16x = 2820 KB & 32768 OTPs\n",
         .pins = {{"4 GPUs 1x KB", 2.75, 0.005}, {"4 GPUs 1x OTPs", 32, 0},
                  {"32 GPUs 16x KB", 2820, 0.005},
                  {"32 GPUs 16x OTPs", 32768, 0}}},
        {.name = "fig8",
         .title = "Fig. 8 — Private sensitivity to OTP buffer entries",
         .reproduces = "Fig. 8 (OTP 1x..16x, 4 GPUs)",
         .cols = points({1, 2, 4, 8, 16}, 0, "x",
                        [](ExperimentConfig &c, double x) {
                            c.otpMult = static_cast<std::uint32_t>(x);
                        }),
         .footer = "\npaper: OTP 1x degrades 121.1% on average; 16x "
                   "degrades 14.0%\n",
         .pins = {{"1x", 2.211, 0.01, 2.748,
                   "Not isolated. With one pad per pair and direction, "
                   "every send of a burst waits a full generation, so "
                   "this point follows burst shape, which the synthetic "
                   "traffic models only approximate (Fig. 15/16)."},
                  {"4x", 1.2, 0.02},
                  {"16x", 1.140, 0.01, 1.082, kWhyFloor}},
         .laws = {{"2x < 1x"}, {"4x < 2x"}, {"8x < 4x"}, {"16x ~ 8x", 0.01},
                  {"8x < 16x", 0,
                   "Past 8x, more entries only let sends leave back to "
                   "back: on pr (seed 1) 16x cuts send misses from 43.5% "
                   "to 18.0%, yet remote latency rises from 1984 to 2104 "
                   "cycles and the run from 1.123x to 1.200x."}}},
        {.name = "fig9",
         .title = "Fig. 9 — prior OTP buffer management schemes",
         .reproduces = "Fig. 9 (Private / Shared / Cached, OTP 4x, 4 GPUs)",
         .cols = priorSchemes(),
         .footer = "\npaper: average degradations 19.5% (Private), "
                   "166.3% (Shared), 16.3% (Cached)\n",
         .pins = {{"Private", 1.195, 0.02}, {"Shared", 2.663, 0.2},
                  {"Cached", 1.163, 0.03}},
         .laws = {{"Shared > Private"}, {"Shared > Cached"},
                  {"Cached < Private"}}},
        {.name = "fig10",
         .title = "Fig. 10 — OTP hit/partial/miss distribution",
         .reproduces = "Fig. 10 (Private / Shared / Cached, OTP 4x, 4 GPUs)",
         .layout = Layout::OtpSplit,
         .cols = priorSchemes(),
         .footer = "\npaper: Private hides 36.9% (send) / 72.7% (recv); "
                   "Shared cannot hide sends; Cached hides 75.9% / "
                   "79.0%\n",
         .pins = {{"Private send hidden", 0.369, 0.05},
                  {"Private recv hidden", 0.727, 0.01, 0.909, kWhyRecv},
                  {"Shared send hidden", 0.0, 0.06},
                  {"Cached send hidden", 0.759, 0.01, 0.451, kWhyCached},
                  {"Cached recv hidden", 0.790, 0.01, 0.380, kWhyCached}},
         .laws = {{"Private send hidden < Private recv hidden"},
                  {"Shared send hidden < Private send hidden"},
                  {"Shared recv hidden < Private recv hidden"},
                  {"Cached time < Private time"},
                  {"Cached recv hidden < Private recv hidden", 0,
                   kWhyCached}}},
        {.name = "fig11",
         .title = "Fig. 11 — secure communication vs. metadata traffic",
         .reproduces = "Fig. 11 (+SecureCommu, +Traffic; Private OTP 4x)",
         .cols = {{"+SecureCommu",
                   [](ExperimentConfig &c) { c.countMetadataBytes = false; }},
                  {"+Traffic", scheme(OtpScheme::Private)}},
         .footer = "\npaper: +SecureCommu averages 8.2% overhead; the "
                   "metadata bandwidth raises it by a further 11.3%\n",
         .pins = {{"+Traffic", 1.195, 0.02},
                  {"+SecureCommu", 1.082, 0.01, 1.159,
                   "Our pad-staging model charges more of the overhead to "
                   "OTP waits and less to metadata bytes: +SecureCommu is "
                   "15.9 points here (paper 8.2), and +Traffic adds 2.8 "
                   "more (paper 11.3). The total matches."}},
         .laws = {{"+SecureCommu < +Traffic"}}},
        {.name = "fig12",
         .title = "Fig. 12 — traffic increase from security metadata",
         .reproduces = "Fig. 12 (normalized interconnect traffic, Private "
                       "4x)",
         .cols = {{"traffic", scheme(OtpScheme::Private), Metric::Traffic}},
         .footer = "\npaper: security metadata adds 36.5% interconnect "
                   "traffic on average\n",
         .classSplit = true,
         .pins = {{"traffic", 1.365, 0.03}}},
        {.name = "fig13_14",
         .title = "Fig. 13/14 — mm communication pattern on GPU 1",
         .reproduces = "Fig. 13 (send vs. recv), Fig. 14 (destination "
                       "split)",
         .layout = Layout::CommSeries,
         .footer = "\npaper: mm's sends concentrate on one or two "
                   "destinations per interval, and the mix shifts as the "
                   "kernel sweeps its tiles\n",
         .laws = {{"top-two destination share > 0.8"}}},
        {.name = "fig15_16",
         .title = "Fig. 15/16 — burstiness of inter-processor data blocks",
         .reproduces = "Fig. 15 (16 blocks) and Fig. 16 (32 blocks)",
         .layout = Layout::Burst,
         .footer = "paper: 16 blocks accumulate within 160 cycles in "
                   "69.2% of windows on average; 32 blocks in 44.2%\n",
         .pins = {{"16 blocks <160", 0.692, 0.05},
                  {"32 blocks <160", 0.442, 0.03}},
         .laws = {{"32 blocks <160 < 16 blocks <160"}}},
        {.name = "fig21",
         .title = "Fig. 21 — main 4-GPU comparison",
         .reproduces = "Fig. 21 (Private 4x/16x, Cached 4x, +Dynamic, "
                       "+Batching)",
         .cols = {{"Private(4x)", scheme(OtpScheme::Private)},
                  {"Private(16x)", scheme(OtpScheme::Private, 16)},
                  {"Cached(4x)", scheme(OtpScheme::Cached)},
                  {"Dynamic(4x)", scheme(OtpScheme::Dynamic)},
                  {"Batching(4x)", ours}},
         .footer = "\nOurs (Dynamic+Batching) vs Private(4x): "
                   "{Batching(4x) vs Private(4x)} faster\nOurs vs "
                   "Cached(4x): {Batching(4x) vs Cached(4x)} faster\n"
                   "paper: degradations 19.5% / 14.0% / 16.3% / 14.7% / "
                   "7.9%; Ours is 11.6% faster than Private and 8.4% "
                   "faster than Cached\n",
         .pins = {{"Private(4x)", 1.195, 0.02},
                  {"Private(16x)", 1.140, 0.01, 1.082, kWhyFloor},
                  {"Cached(4x)", 1.163, 0.03}, {"Dynamic(4x)", 1.147, 0.02},
                  {"Batching(4x)", 1.079, 0.01, 1.122, kWhyMargin},
                  {"Batching(4x) vs Private(4x)", 0.116, 0.01, 0.055,
                   kWhyMargin},
                  {"Batching(4x) vs Cached(4x)", 0.084, 0.01, 0.015,
                   kWhyMargin}},
         .laws = {{"Batching(4x) < Private(4x)"},
                  {"Batching(4x) < Cached(4x)"},
                  {"Batching(4x) < Dynamic(4x)"},
                  {"Cached(4x) < Private(4x)"}, {"Dynamic(4x) < Private(4x)"},
                  {"Cached(4x) ~ Dynamic(4x)", 0.02},
                  {"Private(16x) < Batching(4x)", 0,
                   "The paper's Ours beats even Private with four times "
                   "its buffers (1.079 against 1.140); ours does not, as "
                   "the 16x floor sits lower and Ours' margin is smaller "
                   "here (see those rows)."}}},
        {.name = "fig22",
         .title = "Fig. 22 — OTP distribution incl. the proposed scheme",
         .reproduces = "Fig. 22 (Private / Cached / Ours, OTP 4x)",
         .layout = Layout::OtpSplit,
         .cols = privateCachedOurs(),
         .footer = "\npaper: Ours hides 64.6% of encryption and 76.2% of "
                   "decryption latency, beating Private's 36.8% "
                   "send-side hiding\n",
         .pins = {{"Ours send hidden", 0.646, 0.01, 0.499,
                   "Not isolated. Ours raises send-side hiding over "
                   "Private as in the paper, from a lower base."},
                  {"Ours recv hidden", 0.762, 0.01, 0.850, kWhyRecv}},
         .laws = {{"Ours send hidden > Private send hidden"},
                  {"Ours send hidden > Cached send hidden"},
                  {"Ours time < Cached time"}}},
        {.name = "fig23",
         .title = "Fig. 23 — traffic reduction from metadata batching",
         .reproduces = "Fig. 23 (Private / Cached / Ours, OTP 4x)",
         .cols = privateCachedOurs(Metric::Traffic),
         .footer = "\nOurs cuts traffic by {Ours vs Private} vs Private "
                   "(paper: 20.2%) and {Ours vs Cached} vs Cached (paper: "
                   "20.0%)\n",
         // The deviation's suspected cause as a check: drop the MsgCTR
         // bytes every batched member carries (the last seed's share
         // of the bytes, applied to the seed-averaged traffic).
         .extra =
             [](FigureRun &r) {
                 std::vector<double> v;
                 for (const std::string &wl : workloadNames()) {
                     ExperimentConfig cfg;
                     ours(cfg);
                     const NormResult &n = r.norm(wl, cfg);
                     const double ctr = static_cast<double>(
                         n.sample.packetsSent * SecurityConfig{}.ctrBytes);
                     v.push_back(n.traffic *
                                 (1.0 - ctr / static_cast<double>(
                                                  n.sample.totalBytes)));
                 }
                 r.set("Ours, MsgCTR amortized", mean(v));
                 r.set("Ours vs Private, MsgCTR amortized",
                       1.0 - mean(v) / r.get("Private"));
             },
         .pins = {{"Private", 1.365, 0.03}, {"Cached", 1.365, 0.03},
                  {"Ours", 1.09, 0.01, 1.190, kWhyCtr},
                  {"Ours vs Private", 0.202, 0.01, 0.145, kWhyCtr},
                  {"Ours vs Private, MsgCTR amortized", 0.202, 0.01, 0.248,
                   kWhyCtr}},
         .laws = {{"Ours < Private"}, {"Ours < Cached"},
                  {"Cached ~ Private", 0.005}}},
        {.name = "fig24_25",
         .title = "Fig. 24/25 — sensitivity to the number of GPUs",
         .reproduces = "Fig. 24 (8 GPUs), Fig. 25 (16 GPUs)",
         .cols = privateCachedOurs(),
         .tables = {{.key = "8 GPUs",
                     .heading = "--- 8-GPU system (OTP 4x => 64 buffers "
                                "per GPU)\n",
                     .mod = [](ExperimentConfig &c) { c.numGpus = 8; },
                     .footer = "Ours vs Private: {Ours vs Private}, Ours "
                               "vs Cached: {Ours vs Cached}\n\n"},
                    {.key = "16 GPUs",
                     .heading = "--- 16-GPU system (OTP 4x => 128 buffers "
                                "per GPU)\n",
                     .mod = [](ExperimentConfig &c) { c.numGpus = 16; },
                     .footer = "Ours vs Private: {Ours vs Private}, Ours "
                               "vs Cached: {Ours vs Cached}\n\n"}},
         .footer = "paper: Private degrades 29.3% (8 GPUs) and 32.1% (16 "
                   "GPUs); Ours improves on Private by 17.1% and 17.5%, "
                   "and on Cached by 9.2% and 13.2%\n",
         // The 4-GPU means the growth laws start from.
         .extra =
             [](FigureRun &r) {
                 for (const Axis &c : privateCachedOurs()) {
                     std::vector<double> v;
                     for (const std::string &wl : workloadNames())
                         v.push_back(r.norm(wl, cellConfig({}, nullptr, c))
                                         .time);
                     r.set("4 GPUs " + c.label, mean(v));
                 }
             },
         .pins = {{"8 GPUs Private", 1.293, 0.01, 1.196, kWhyGpus},
                  {"16 GPUs Private", 1.321, 0.01, 1.207, kWhyGpus},
                  {"8 GPUs Ours vs Private", 0.171, 0.01, 0.059, kWhyGpus},
                  {"16 GPUs Ours vs Private", 0.175, 0.01, 0.034,
                   kWhyGpus}},
         .laws = {{"4 GPUs Private < 8 GPUs Private"},
                  {"8 GPUs Private < 16 GPUs Private"},
                  {"4 GPUs Cached < 8 GPUs Cached"},
                  {"8 GPUs Cached < 16 GPUs Cached"},
                  {"8 GPUs Ours < 16 GPUs Ours"},
                  {"8 GPUs Ours < 8 GPUs Cached"},
                  {"8 GPUs Cached < 8 GPUs Private"},
                  {"16 GPUs Ours < 16 GPUs Cached"},
                  {"16 GPUs Cached < 16 GPUs Private"},
                  {"16 GPUs Ours vs Private < 8 GPUs Ours vs Private", 0,
                   kWhyGpus}}},
        {.name = "fig26",
         .title = "Fig. 26 — AES-GCM latency sensitivity",
         .reproduces = "Fig. 26 (10/20/30/40-cycle AES-GCM)",
         .cols = privateCachedOurs(),
         .tables = {{.corner = "latency",
                     .rows = points({10, 20, 30, 40}, 0, " cyc",
                                    [](ExperimentConfig &c, double x) {
                                        c.aesLatency =
                                            static_cast<Cycles>(x);
                                    })}},
         .footer = "\npaper: 40 -> 10 cycles moves Private only from 19.5% "
                   "to 17.3% degradation (ours: batching keeps its edge at "
                   "every latency)\n",
         .pins = {{"40 cyc Private", 1.195, 0.02},
                  {"10 cyc Private", 1.173, 0.01, 1.080,
                   "Our overhead falls from 18.7% to 8.0% going from 40 "
                   "to 10 cycles (the paper's from 19.5% to 17.3%): OTP "
                   "waits carry more of it (Fig. 11), and they shrink "
                   "with the AES latency."}},
         .laws = {{"10 cyc Ours < 10 cyc Private"},
                  {"20 cyc Ours < 20 cyc Private"},
                  {"30 cyc Ours < 30 cyc Private"},
                  {"40 cyc Ours < 40 cyc Private"},
                  {"10 cyc Ours < 10 cyc Cached"},
                  {"20 cyc Ours < 20 cyc Cached"},
                  {"30 cyc Ours < 30 cyc Cached"},
                  {"40 cyc Ours < 40 cyc Cached"},
                  {"30 cyc Cached < 30 cyc Private"},
                  {"40 cyc Cached < 40 cyc Private"},
                  {"10 cyc Private < 10 cyc Cached", 0, kWhyLowAes},
                  {"20 cyc Private < 20 cyc Cached", 0, kWhyLowAes}}},
        {.name = "ablation_batch",
         .title = "Ablation — metadata batch size",
         .reproduces = "design-space extension of Sec. IV-C (paper uses "
                       "n=16)",
         .cols = {{"norm.time", ours, Metric::Time},
                  {"norm.traffic", ours, Metric::Traffic}},
         .tables = {{.key = "n",
                     .corner = "batch n",
                     .rows = points({4, 8, 16, 32, 64}, 0, "",
                                    [](ExperimentConfig &c, double x) {
                                        c.batchSize =
                                            static_cast<std::uint32_t>(x);
                                    })}},
         .footer = "\nexpected: traffic falls with n, but large batches "
                   "delay verification/ACKs for little extra byte "
                   "savings\n",
         .pins = {{"n 4 norm.traffic", kNoValue, 0.005, 1.247},
                  {"n 64 norm.traffic", kNoValue, 0.005, 1.176},
                  {"n 4 norm.time", kNoValue, 0.005, 1.130},
                  {"n 16 norm.time", kNoValue, 0.005, 1.122}},
         .laws = {{"n 8 norm.traffic < n 4 norm.traffic"},
                  {"n 16 norm.traffic < n 8 norm.traffic"},
                  {"n 32 norm.traffic < n 16 norm.traffic"},
                  {"n 64 norm.traffic < n 32 norm.traffic"},
                  {"n 16 norm.time < n 4 norm.time"},
                  {"n 64 norm.time ~ n 16 norm.time", 0.002}}},
        {.name = "ablation_ewma",
         .title = "Ablation — Dynamic EWMA hyperparameters",
         .reproduces = "sensitivity of Table III's alpha=0.9, beta=0.5, "
                       "T=1000",
         .cols = {{"norm.time", ours}},
         .tables = {{.key = "alpha",
                     .corner = "alpha",
                     .rows = points({0.3, 0.5, 0.7, 0.9, 1.0}, 1, "",
                                    [](ExperimentConfig &c, double x) {
                                        c.dynParams.alpha = x;
                                    }),
                     .footer = "\n"},
                    {.key = "beta",
                     .corner = "beta",
                     .rows = points({0.1, 0.3, 0.5, 0.7, 0.9}, 1, "",
                                    [](ExperimentConfig &c, double x) {
                                        c.dynParams.beta = x;
                                    }),
                     .footer = "\n"},
                    {.key = "T",
                     .corner = "T (cycles)",
                     .rows = points({250, 500, 1000, 2000, 4000}, 0, "",
                                    [](ExperimentConfig &c, double x) {
                                        c.dynParams.interval =
                                            static_cast<Cycles>(x);
                                    })}},
         .pins = {{"alpha 0.9 norm.time", kNoValue, 0.005, 1.122},
                  {"beta 0.1 norm.time", kNoValue, 0.005, 1.142}},
         .laws = {{"alpha 0.3 norm.time ~ alpha 0.9 norm.time", 0.004},
                  {"alpha 1.0 norm.time ~ alpha 0.9 norm.time", 0.004},
                  {"beta 0.1 norm.time > beta 0.5 norm.time"},
                  {"T 250 norm.time ~ T 1000 norm.time", 0.005},
                  {"T 4000 norm.time ~ T 1000 norm.time", 0.005}}},
        {.name = "ablation_memprot",
         .title = "Ablation — host memory protection",
         .reproduces = "cost isolation of the Sec. IV-A assumption",
         .cols = {{"comm only",
                   [](ExperimentConfig &c) { c.hostMemProtect = 0; }},
                  {"comm + host memprot",
                   [](ExperimentConfig &c) { c.hostMemProtect = 1; }}},
         .tables = {{.mod = ours}},
         .footer = "\nexpected: the counter cache absorbs most host "
                   "accesses, so the tree costs little on top of the "
                   "communication protection — consistent with the paper "
                   "treating it as a solved prerequisite\n",
         .pins = {{"comm only", kNoValue, 0.005, 1.120},
                  {"comm + host memprot", kNoValue, 0.005, 1.122}},
         .laws = {{"comm only < comm + host memprot"},
                  {"comm + host memprot ~ comm only", 0.005}}},
    };
}

} // anonymous namespace

const std::vector<Figure> &
figureSpecs()
{
    static const std::vector<Figure> figs = buildSpecs();
    return figs;
}

std::vector<Check>
checkFigure(const Figure &f, const std::map<std::string, double> &values)
{
    std::vector<Check> out;
    for (const Pin &p : f.pins) {
        const bool own = !std::isnan(p.expect);
        const double want = own ? p.expect : p.paper;
        const double v = lookup(values, p.key);
        Check c{!own                  ? "match"
                : std::isnan(p.paper) ? "pin"
                                      : "deviation",
                p.key + " = " + num(v) + (own ? ", pinned " : ", paper ") +
                    num(want) + " ± " + num(p.tol),
                std::fabs(v - want) <= p.tol, p.why};
        if (own && !std::isnan(p.paper))
            c.what += " (paper " + num(p.paper) + ")";
        out.push_back(std::move(c));
    }
    for (const Law &l : f.laws) {
        std::size_t at = std::string::npos;
        char rel = 0;
        for (const char c : {'<', '>', '~'}) {
            const std::size_t p = l.text.find(std::string(" ") + c + " ");
            if (p != std::string::npos)
                at = p, rel = c;
        }
        MGSEC_ASSERT(rel, "law '%s' states no relation", l.text.c_str());
        const double a = lookup(values, l.text.substr(0, at));
        const double b = lookup(values, l.text.substr(at + 3));
        const bool ok = rel == '<'   ? a < b
                        : rel == '>' ? a > b
                                     : std::fabs(a - b) <= l.slack;
        std::string what = l.text + ": " + num(a) + " " + rel + " " + num(b);
        if (rel == '~')
            what += " within " + num(l.slack);
        out.push_back({l.why.empty() ? "law" : "deviation", what, ok,
                       l.why});
    }
    return out;
}

bool
pinnedSettings(const SweepArgs &args)
{
    const SweepArgs defaults;
    return args.scale == defaults.scale && args.seeds == defaults.seeds;
}

int
runFigures(const std::vector<const Figure *> &figs, const SweepArgs &args,
           std::ostream &out, std::ostream &log)
{
    std::ofstream json_file;
    if (!args.jsonOut.empty()) {
        json_file.open(args.jsonOut);
        if (!json_file) {
            log << "cannot write " << args.jsonOut << "\n";
            return 1;
        }
    }

    FigureRun run(args);
    for (const Figure *f : figs)
        render(*f, run);
    run.run(out);

    const bool pinned = pinnedSettings(args);
    JsonWriter w(json_file);
    w.beginObject();
    w.field("scale", args.scale);
    w.field("seeds", static_cast<std::uint64_t>(args.seeds));
    w.field("pinned", pinned);
    w.key("figures");
    w.beginObject();
    std::uint64_t checks = 0, failed = 0;
    for (std::size_t i = 0; i < figs.size(); ++i) {
        const Figure &f = *figs[i];
        if (figs.size() > 1)
            out << (i ? "\n" : "") << "### " << f.name << "\n";
        run.values.clear();
        run.rows.clear();
        render(f, run);

        const std::vector<Check> cs = checkFigure(f, run.values);
        std::size_t bad = 0;
        for (const Check &c : cs)
            bad += !c.ok;
        log << "fidelity " << f.name << ": " << cs.size() - bad << "/"
            << cs.size() << " checks hold\n";
        for (const Check &c : cs) {
            if (!c.ok)
                log << "  FAIL " << c.kind << ": " << c.what << "\n";
        }
        checks += cs.size();
        failed += bad;

        json_file << "\n";
        w.key(f.name);
        w.beginObject();
        w.field("title", f.title);
        w.key("values");
        w.beginObject();
        for (const auto &[k, v] : run.values)
            w.field(k, v);
        w.endObject();
        if (!run.rows.empty()) {
            w.beginArray("rows");
            for (const FigureRun::Row &row : run.rows) {
                w.beginObject();
                if (!row.table.empty())
                    w.field("table", row.table);
                w.field("workload", row.workload);
                for (const auto &[k, v] : row.cells)
                    w.field(k, v);
                w.endObject();
            }
            w.endArray();
        }
        w.beginArray("checks");
        for (const Check &c : cs) {
            w.beginObject();
            w.field("kind", c.kind);
            w.field("check", c.what);
            w.field("ok", c.ok);
            if (!c.why.empty())
                w.field("why", c.why);
            w.endObject();
        }
        w.endArray();
        w.endObject();
    }
    w.endObject();
    w.field("checks", checks);
    w.field("failed", failed);
    w.endObject();
    json_file << "\n";

    log << "fidelity: " << failed << " of " << checks << " checks failed; "
        << (pinned ? "enforced at" : "reported only, as they are pinned at")
        << " --scale " << SweepArgs{}.scale << " --seeds "
        << SweepArgs{}.seeds << "\n";
    if (json_file.is_open())
        log << "wrote " << args.jsonOut << "\n";
    return pinned && failed > 0 ? 1 : 0;
}

} // namespace mgsec
