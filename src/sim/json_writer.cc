#include "sim/json_writer.hh"

#include <cstdio>
#include <ostream>

#include "sim/logging.hh"

namespace mgsec
{

void
JsonWriter::separate()
{
    if (!has_elem_.empty() && has_elem_.back() == '1' && !pending_key_)
        os_.put(',');
    if (!has_elem_.empty())
        has_elem_.back() = '1';
}

std::string
JsonWriter::escape(const std::string &s)
{
    std::string out;
    out.reserve(s.size() + 2);
    for (char c : s) {
        switch (c) {
          case '"':
            out += "\\\"";
            break;
          case '\\':
            out += "\\\\";
            break;
          case '\b':
            out += "\\b";
            break;
          case '\f':
            out += "\\f";
            break;
          case '\n':
            out += "\\n";
            break;
          case '\r':
            out += "\\r";
            break;
          case '\t':
            out += "\\t";
            break;
          default:
            if (static_cast<unsigned char>(c) < 0x20) {
                char buf[8];
                std::snprintf(buf, sizeof(buf), "\\u%04x",
                              static_cast<unsigned>(
                                  static_cast<unsigned char>(c)));
                out += buf;
            } else {
                out += c;
            }
        }
    }
    return out;
}

JsonWriter &
JsonWriter::beginObject()
{
    separate();
    pending_key_ = false;
    os_ << "{";
    has_elem_.push_back('0');
    return *this;
}

JsonWriter &
JsonWriter::endObject()
{
    MGSEC_ASSERT(!has_elem_.empty(), "unbalanced endObject");
    has_elem_.pop_back();
    os_ << "}";
    return *this;
}

JsonWriter &
JsonWriter::beginArray(const std::string &k)
{
    if (!k.empty())
        key(k);
    separate();
    pending_key_ = false;
    os_ << "[";
    has_elem_.push_back('0');
    return *this;
}

JsonWriter &
JsonWriter::endArray()
{
    MGSEC_ASSERT(!has_elem_.empty(), "unbalanced endArray");
    has_elem_.pop_back();
    os_ << "]";
    return *this;
}

JsonWriter &
JsonWriter::key(const std::string &k)
{
    separate();
    os_ << "\"" << escape(k) << "\":";
    pending_key_ = true;
    return *this;
}

int
JsonWriter::precision() const
{
    const std::streamsize p = os_.precision();
    return p < kMaxDoublePrecision ? static_cast<int>(p)
                                   : kMaxDoublePrecision;
}

JsonWriter &
JsonWriter::value(double v)
{
    separate();
    pending_key_ = false;
    char buf[kMaxNumberChars];
    os_.write(buf, formatDouble(buf, v, precision()) - buf);
    return *this;
}

JsonWriter &
JsonWriter::value(std::uint64_t v)
{
    separate();
    pending_key_ = false;
    char buf[kMaxNumberChars];
    os_.write(buf, formatUint(buf, v) - buf);
    return *this;
}

JsonWriter &
JsonWriter::values(const double *v, std::size_t n)
{
    if (n == 0)
        return *this;
    separate();
    pending_key_ = false;
    const int prec = precision();
    buf_.resize(n * (kMaxNumberChars + 1));
    char *p = buf_.data();
    for (std::size_t i = 0; i < n; ++i) {
        if (i)
            *p++ = ',';
        p = formatDouble(p, v[i], prec);
    }
    os_.write(buf_.data(), p - buf_.data());
    return *this;
}

JsonWriter &
JsonWriter::value(const std::string &v)
{
    separate();
    pending_key_ = false;
    os_ << "\"" << escape(v) << "\"";
    return *this;
}

JsonWriter &
JsonWriter::value(bool v)
{
    separate();
    pending_key_ = false;
    os_ << (v ? "true" : "false");
    return *this;
}

} // namespace mgsec
