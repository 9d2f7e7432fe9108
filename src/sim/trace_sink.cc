#include "sim/trace_sink.hh"

#include <algorithm>
#include <cstring>
#include <ostream>
#include <string>

#include "sim/json_writer.hh"
#include "sim/logging.hh"

namespace mgsec
{

namespace
{

/** Fixed text of the longest event plus six 20-digit numbers. */
constexpr std::size_t kEventBytes = 256;

template <std::size_t N>
char *
put(char *p, const char (&lit)[N])
{
    std::memcpy(p, lit, N - 1);
    return p + N - 1;
}

char *
put(char *p, const char *s, std::size_t n)
{
    std::memcpy(p, s, n);
    return p + n;
}

char *
putStr(char *p, const char *s)
{
    return put(p, s, std::strlen(s));
}

const char kHeader[] = "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";

} // namespace

TraceSink::TraceSink(std::ostream &os) : os_(&os)
{
    reserve(sizeof(kHeader));
    commit(put(buf_.data(), kHeader));
}

TraceSink::TraceSink(Embedded) {}

TraceSink::~TraceSink()
{
    finish();
}

void
TraceSink::reserve(std::size_t n)
{
    if (len_ + n > buf_.size())
        buf_.resize(std::max(2 * buf_.size(), len_ + n));
}

void
TraceSink::drain()
{
    os_->write(buf_.data(), static_cast<std::streamsize>(len_));
    len_ = 0;
}

void
TraceSink::commit(char *end)
{
    len_ = static_cast<std::size_t>(end - buf_.data());
    if (os_ && len_ >= kDrainBytes)
        drain();
}

void
TraceSink::finish()
{
    if (finished_ || !os_)
        return;
    finished_ = true;
    reserve(4);
    commit(put(buf_.data() + len_, "\n]}\n"));
    drain();
    os_->flush();
}

void
TraceSink::splice(TraceSink &from)
{
    MGSEC_ASSERT(os_ && !from.os_,
                 "splice from an embedded into a master sink");
    if (from.events_ != 0) {
        MGSEC_ASSERT(from.buf_[0] == ',',
                     "embedded buffer missing its comma");
        // The first event of the document has no separator.
        const std::size_t skip = events_ == 0 ? 1 : 0;
        reserve(from.len_);
        commit(put(buf_.data() + len_, from.buf_.data() + skip,
                   from.len_ - skip));
        events_ += from.events_;
    }
    from.len_ = 0;
    from.events_ = 0;
}

char *
TraceSink::open(std::size_t n)
{
    reserve(n + 2);
    char *p = buf_.data() + len_;
    p = !os_ || events_ ? put(p, ",\n") : put(p, "\n");
    ++events_;
    return p;
}

char *
TraceSink::begin(char ph, std::uint32_t tid, const char *cat,
                 const char *name, Tick ts, std::size_t extra)
{
    const std::size_t ncat = std::strlen(cat);
    const std::size_t nname = std::strlen(name);
    char *p = open(kEventBytes + ncat + nname + extra);
    p = put(p, "{\"ph\":\"");
    *p++ = ph;
    p = put(p, "\",\"pid\":0,\"tid\":");
    p = formatUint(p, tid);
    p = put(p, ",\"cat\":\"");
    p = put(p, cat, ncat);
    p = put(p, "\",\"name\":\"");
    p = put(p, name, nname);
    p = put(p, "\",\"ts\":");
    return formatUint(p, ts);
}

void
TraceSink::complete(std::uint32_t tid, const char *cat,
                    const char *name, Tick start, Tick dur)
{
    char *p = begin('X', tid, cat, name, start, 0);
    p = put(p, ",\"dur\":");
    p = formatUint(p, dur);
    *p++ = '}';
    commit(p);
}

void
TraceSink::complete(std::uint32_t tid, const char *cat,
                    const char *name, Tick start, Tick dur,
                    const char *arg_key, std::uint64_t arg_val)
{
    const std::size_t nkey = std::strlen(arg_key);
    char *p = begin('X', tid, cat, name, start, nkey);
    p = put(p, ",\"dur\":");
    p = formatUint(p, dur);
    p = put(p, ",\"args\":{\"");
    p = put(p, arg_key, nkey);
    p = put(p, "\":");
    p = formatUint(p, arg_val);
    commit(put(p, "}}"));
}

void
TraceSink::packet(std::uint32_t tid, const char *name, std::uint32_t src,
                  std::uint64_t bytes, const LifeStamps &st)
{
    // Seven more numbers and their keys than begin() budgets for.
    char *p = begin('X', tid, "packet", name, st.front(), kEventBytes);
    p = put(p, ",\"dur\":");
    p = formatUint(p, st.back() - st.front());
    p = put(p, ",\"args\":{\"src\":");
    p = formatUint(p, src);
    p = put(p, ",\"bytes\":");
    p = formatUint(p, bytes);
    for (std::size_t s = 0; s < kNumLifeStages; ++s) {
        p = put(p, ",\"");
        p = putStr(p, lifeStageName(s));
        p = put(p, "\":");
        p = formatUint(p, st[s + 1] - st[s]);
    }
    commit(put(p, "}}"));
}

void
TraceSink::instant(std::uint32_t tid, const char *cat,
                   const char *name, Tick ts)
{
    char *p = begin('i', tid, cat, name, ts, 0);
    commit(put(p, ",\"s\":\"t\"}"));
}

void
TraceSink::instant(std::uint32_t tid, const char *cat,
                   const char *name, Tick ts, const char *arg_key,
                   double arg_val)
{
    const std::size_t nkey = std::strlen(arg_key);
    char *p = begin('i', tid, cat, name, ts, nkey);
    p = put(p, ",\"s\":\"t\",\"args\":{\"");
    p = put(p, arg_key, nkey);
    p = put(p, "\":");
    p = formatDouble(p, arg_val);
    commit(put(p, "}}"));
}

void
TraceSink::counter(std::uint32_t tid, const char *cat,
                   const char *name, Tick ts, double value)
{
    char *p = begin('C', tid, cat, name, ts, std::strlen(name));
    p = put(p, ",\"args\":{\"");
    p = putStr(p, name);
    p = put(p, "\":");
    p = formatDouble(p, value);
    commit(put(p, "}}"));
}

void
TraceSink::metadata(std::uint32_t tid, const char *what,
                    const std::string &name)
{
    // Metadata events carry no cat/ts; hand-rolled rather than
    // through begin() so the viewer does not see bogus fields.
    const std::string label = JsonWriter::escape(name);
    char *p = open(kEventBytes + std::strlen(what) + label.size());
    p = put(p, "{\"ph\":\"M\",\"pid\":0,\"tid\":");
    p = formatUint(p, tid);
    p = put(p, ",\"name\":\"");
    p = putStr(p, what);
    p = put(p, "\",\"args\":{\"name\":\"");
    p = put(p, label.data(), label.size());
    commit(put(p, "\"}}"));
}

} // namespace mgsec
