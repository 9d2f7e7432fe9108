/**
 * @file
 * Minimal streaming JSON writer.
 *
 * Purpose-built (no external dependency): objects, arrays, scalars,
 * strings, with full string escaping including control characters.
 * Lives in sim/ so both the stats package and the observability
 * sinks can emit JSON without depending on core/.
 */

#ifndef MGSEC_SIM_JSON_WRITER_HH
#define MGSEC_SIM_JSON_WRITER_HH

#include <charconv>
#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <string>

namespace mgsec
{

/**
 * @name Number formatting shared by every JSON emitter
 * Both write at @p p and return one past the last character, with no
 * terminator.
 */
/// @{
/** Room for the longest number either helper writes. */
inline constexpr std::size_t kMaxNumberChars = 24;

/** Decimal digits, what `ostream << uint64_t` prints. */
inline char *
formatUint(char *p, std::uint64_t v)
{
    return std::to_chars(p, p + kMaxNumberChars, v).ptr;
}

/** Largest precision formatDouble() fits in kMaxNumberChars. */
inline constexpr int kMaxDoublePrecision = 17;

/**
 * "%.*g" at @p precision (0 .. kMaxDoublePrecision), what
 * `ostream << double` prints with no floatfield flags; the default 6
 * gives at most 13 characters ("-1.23457e-308").
 */
inline char *
formatDouble(char *p, double v, int precision = 6)
{
    return std::to_chars(p, p + kMaxNumberChars, v,
                         std::chars_format::general, precision)
        .ptr;
}
/// @}

/** Minimal JSON writer: objects, arrays, scalars, strings. */
class JsonWriter
{
  public:
    explicit JsonWriter(std::ostream &os) : os_(os) {}

    JsonWriter &beginObject();
    JsonWriter &endObject();
    JsonWriter &beginArray(const std::string &key = "");
    JsonWriter &endArray();

    JsonWriter &key(const std::string &k);
    /**
     * Numbers print as formatDouble()/formatUint() do, at the
     * stream's precision; its other format flags are not consulted.
     */
    JsonWriter &value(double v);
    JsonWriter &value(std::uint64_t v);
    JsonWriter &value(const std::string &v);
    JsonWriter &value(bool v);
    /** @p n numbers as consecutive elements, written in one piece. */
    JsonWriter &values(const double *v, std::size_t n);

    /** key + value in one call. */
    template <typename T>
    JsonWriter &
    field(const std::string &k, const T &v)
    {
        key(k);
        return value(v);
    }

    /** RFC 8259 string escaping (quotes, backslash, control chars). */
    static std::string escape(const std::string &s);

  private:
    void separate();
    /**
     * The stream's precision, capped at kMaxDoublePrecision (17
     * significant digits round-trip every double).
     */
    int precision() const;

    std::ostream &os_;
    /** Whether the current nesting level already has an element. */
    std::string has_elem_; // one char per depth: '0' or '1'
    bool pending_key_ = false;
    /** values()'s formatting buffer, reused across calls. */
    std::string buf_;
};

} // namespace mgsec

#endif // MGSEC_SIM_JSON_WRITER_HH
