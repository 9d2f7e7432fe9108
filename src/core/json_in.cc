#include "core/json_in.hh"

#include <cctype>
#include <cerrno>
#include <cstdlib>
#include <fstream>
#include <sstream>

namespace mgsec
{

const JsonValue *
JsonValue::find(const std::string &key) const
{
    if (kind != Kind::Object)
        return nullptr;
    for (const auto &[k, v] : fields) {
        if (k == key)
            return &v;
    }
    return nullptr;
}

namespace
{

class Parser
{
  public:
    Parser(const std::string &text) : text_(text) {}

    bool
    parse(JsonValue &out, std::string &err)
    {
        if (!value(out) || (skipWs(), pos_ != text_.size())) {
            if (error_.empty())
                error_ = "trailing characters after document";
            std::ostringstream os;
            os << "line " << line_ << ": " << error_;
            err = os.str();
            return false;
        }
        return true;
    }

  private:
    bool
    fail(const char *msg)
    {
        if (error_.empty())
            error_ = msg;
        return false;
    }

    void
    skipWs()
    {
        while (pos_ < text_.size()) {
            const char c = text_[pos_];
            if (c == '\n')
                ++line_;
            else if (c != ' ' && c != '\t' && c != '\r')
                break;
            ++pos_;
        }
    }

    bool
    literal(const char *word, std::size_t len)
    {
        if (text_.compare(pos_, len, word) != 0)
            return fail("bad literal");
        pos_ += len;
        return true;
    }

    bool
    value(JsonValue &out)
    {
        // Hard depth cap: the recursion tracks document nesting, so
        // a pathological input cannot blow the stack.
        if (++depth_ > 256)
            return fail("nesting deeper than 256 levels");
        skipWs();
        if (pos_ >= text_.size())
            return fail("unexpected end of input");
        bool ok = false;
        switch (text_[pos_]) {
          case '{':
            ok = object(out);
            break;
          case '[':
            ok = array(out);
            break;
          case '"':
            out.kind = JsonValue::Kind::String;
            ok = string(out.string);
            break;
          case 't':
            out.kind = JsonValue::Kind::Bool;
            out.boolean = true;
            ok = literal("true", 4);
            break;
          case 'f':
            out.kind = JsonValue::Kind::Bool;
            out.boolean = false;
            ok = literal("false", 5);
            break;
          case 'n':
            out.kind = JsonValue::Kind::Null;
            ok = literal("null", 4);
            break;
          default:
            ok = number(out);
            break;
        }
        --depth_;
        return ok;
    }

    bool
    object(JsonValue &out)
    {
        out.kind = JsonValue::Kind::Object;
        ++pos_; // '{'
        skipWs();
        if (pos_ < text_.size() && text_[pos_] == '}') {
            ++pos_;
            return true;
        }
        for (;;) {
            skipWs();
            std::string key;
            if (pos_ >= text_.size() || text_[pos_] != '"')
                return fail("expected object key");
            if (!string(key))
                return false;
            skipWs();
            if (pos_ >= text_.size() || text_[pos_] != ':')
                return fail("expected ':' after object key");
            ++pos_;
            JsonValue v;
            if (!value(v))
                return false;
            out.fields.emplace_back(std::move(key), std::move(v));
            skipWs();
            if (pos_ >= text_.size())
                return fail("unterminated object");
            if (text_[pos_] == ',') {
                ++pos_;
                continue;
            }
            if (text_[pos_] == '}') {
                ++pos_;
                // A parsed document is read, not grown: drop the
                // growth slack, so a caller that keeps many documents
                // pays only for what they hold.
                out.fields.shrink_to_fit();
                return true;
            }
            return fail("expected ',' or '}' in object");
        }
    }

    bool
    array(JsonValue &out)
    {
        out.kind = JsonValue::Kind::Array;
        ++pos_; // '['
        skipWs();
        if (pos_ < text_.size() && text_[pos_] == ']') {
            ++pos_;
            return true;
        }
        for (;;) {
            JsonValue v;
            if (!value(v))
                return false;
            out.items.push_back(std::move(v));
            skipWs();
            if (pos_ >= text_.size())
                return fail("unterminated array");
            if (text_[pos_] == ',') {
                ++pos_;
                continue;
            }
            if (text_[pos_] == ']') {
                ++pos_;
                out.items.shrink_to_fit();
                return true;
            }
            return fail("expected ',' or ']' in array");
        }
    }

    void
    appendUtf8(std::string &out, unsigned cp)
    {
        if (cp < 0x80) {
            out += static_cast<char>(cp);
        } else if (cp < 0x800) {
            out += static_cast<char>(0xc0 | (cp >> 6));
            out += static_cast<char>(0x80 | (cp & 0x3f));
        } else if (cp < 0x10000) {
            out += static_cast<char>(0xe0 | (cp >> 12));
            out += static_cast<char>(0x80 | ((cp >> 6) & 0x3f));
            out += static_cast<char>(0x80 | (cp & 0x3f));
        } else {
            out += static_cast<char>(0xf0 | (cp >> 18));
            out += static_cast<char>(0x80 | ((cp >> 12) & 0x3f));
            out += static_cast<char>(0x80 | ((cp >> 6) & 0x3f));
            out += static_cast<char>(0x80 | (cp & 0x3f));
        }
    }

    bool
    hex4(unsigned &out)
    {
        if (pos_ + 4 > text_.size())
            return fail("truncated \\u escape");
        out = 0;
        for (int i = 0; i < 4; ++i) {
            const char c = text_[pos_ + i];
            unsigned d = 0;
            if (c >= '0' && c <= '9')
                d = c - '0';
            else if (c >= 'a' && c <= 'f')
                d = 10 + (c - 'a');
            else if (c >= 'A' && c <= 'F')
                d = 10 + (c - 'A');
            else
                return fail("bad \\u escape digit");
            out = out * 16 + d;
        }
        pos_ += 4;
        return true;
    }

    bool
    string(std::string &out)
    {
        ++pos_; // '"'
        while (pos_ < text_.size()) {
            const char c = text_[pos_++];
            if (c == '"')
                return true;
            if (static_cast<unsigned char>(c) < 0x20)
                return fail("raw control character in string");
            if (c != '\\') {
                out += c;
                continue;
            }
            if (pos_ >= text_.size())
                return fail("unterminated escape");
            const char e = text_[pos_++];
            switch (e) {
              case '"': out += '"'; break;
              case '\\': out += '\\'; break;
              case '/': out += '/'; break;
              case 'b': out += '\b'; break;
              case 'f': out += '\f'; break;
              case 'n': out += '\n'; break;
              case 'r': out += '\r'; break;
              case 't': out += '\t'; break;
              case 'u': {
                unsigned cp = 0;
                if (!hex4(cp))
                    return false;
                // Surrogate pair -> one code point.
                if (cp >= 0xd800 && cp <= 0xdbff &&
                    pos_ + 1 < text_.size() &&
                    text_[pos_] == '\\' && text_[pos_ + 1] == 'u') {
                    pos_ += 2;
                    unsigned lo = 0;
                    if (!hex4(lo))
                        return false;
                    if (lo < 0xdc00 || lo > 0xdfff)
                        return fail("unpaired surrogate");
                    cp = 0x10000 + ((cp - 0xd800) << 10) +
                         (lo - 0xdc00);
                }
                appendUtf8(out, cp);
                break;
              }
              default:
                return fail("unknown escape character");
            }
        }
        return fail("unterminated string");
    }

    bool
    number(JsonValue &out)
    {
        const std::size_t start = pos_;
        if (pos_ < text_.size() && text_[pos_] == '-')
            ++pos_;
        while (pos_ < text_.size() &&
               (std::isdigit(static_cast<unsigned char>(text_[pos_])) ||
                text_[pos_] == '.' || text_[pos_] == 'e' ||
                text_[pos_] == 'E' || text_[pos_] == '+' ||
                text_[pos_] == '-'))
            ++pos_;
        if (pos_ == start)
            return fail("expected a value");
        const std::string tok = text_.substr(start, pos_ - start);
        errno = 0;
        char *end = nullptr;
        const double v = std::strtod(tok.c_str(), &end);
        if (errno != 0 || end != tok.c_str() + tok.size())
            return fail("malformed number");
        out.kind = JsonValue::Kind::Number;
        out.number = v;
        return true;
    }

    const std::string &text_;
    std::size_t pos_ = 0;
    int line_ = 1;
    int depth_ = 0;
    std::string error_;
};

} // anonymous namespace

bool
jsonParse(const std::string &text, JsonValue &out, std::string &err)
{
    return Parser(text).parse(out, err);
}

bool
jsonParseFile(const std::string &path, JsonValue &out,
              std::string &err)
{
    std::ifstream is(path, std::ios::binary);
    if (!is) {
        err = "cannot open '" + path + "'";
        return false;
    }
    std::ostringstream ss;
    ss << is.rdbuf();
    return jsonParse(ss.str(), out, err);
}

} // namespace mgsec
