/**
 * @file
 * Each configuration knob declared once, as a row that parses and
 * prints the field at a member-pointer path, e.g.
 *   number<&ExperimentConfig::topology, &TopologyConfig::switchRadix>(
 *       "switch-radix", "topo", 1, 1024, "max GPUs per crossbar")
 * A row set generates its parsers, help and key strings; the struct's
 * member initializers stay the only defaults. An enum has one name
 * list for both its name() and its parse().
 */

#ifndef MGSEC_SIM_KNOB_HH
#define MGSEC_SIM_KNOB_HH

#include <algorithm>
#include <charconv>
#include <functional>
#include <initializer_list>
#include <ostream>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

namespace mgsec
{

/** A spelling of an enum value; the first is its name, later ones aliases. */
template <typename E>
struct EnumName
{
    E value;
    const char *name;
};

template <typename List, typename E>
constexpr const char *
nameIn(const List &names, E value)
{
    for (const auto &n : names) {
        if (n.value == value)
            return n.name;
    }
    return "?";
}

/** Parse any spelling in @p names, ignoring ASCII case. */
template <typename List, typename E>
constexpr bool
parseIn(const List &names, std::string_view text, E &out)
{
    const auto low = [](char c) { return c | (c >= 'A' && c <= 'Z') << 5; };
    for (const auto &n : names) {
        if (std::ranges::equal(std::string_view(n.name), text, {}, low, low))
            return out = n.value, true;
    }
    return false;
}

/** All of @p text as an N in [lo, hi]; @p out is untouched on failure. */
template <typename N>
bool
parseNumber(std::string_view text, N lo, N hi, N &out)
{
    N v{};
    const char *end = text.data() + text.size();
    const auto [stop, ec] = std::from_chars(text.data(), end, v);
    if (ec != std::errc() || stop != end || !(v >= lo && v <= hi))
        return false;
    out = v;
    return true;
}

/** on|off, true|false, yes|no or 1|0; @p out is untouched on failure. */
bool parseBool(const std::string &text, bool &out);

/** @p text cut at every @p sep ("" gives one empty piece). */
std::vector<std::string> splitList(const std::string &text, char sep);

/** "%g" for doubles, decimal for integers. */
std::string showNumber(double v);
std::string
showNumber(std::integral auto v)
{
    return std::to_string(v);
}

/** "  --name META  help; values (default D)"; on|off for a bool D. */
std::string knobHelpLine(const char *name, const char *meta,
                         const char *help, const std::string &values,
                         std::string def);

/** One knob of the config struct T. */
template <typename T>
struct Knob
{
    /** --flag, config-file or repro key; nullptr: a key-only row. */
    const char *name = nullptr;
    /** configKey segment; nullptr: a host-only knob (same results). */
    const char *segment = nullptr;
    const char *meta = ""; ///< value placeholder in help
    const char *help = "";
    std::string values;    ///< "lo..hi", "a|b|c", "on|off"; "": any
    const char *suffix = "";  ///< printed after the value in a key
    bool securedOnly = false; ///< acts only on secured runs

    /** Set the field from text; false leaves it untouched. */
    std::function<bool(T &, const std::string &)> parse{};
    /** The field as parse() reads it back. */
    std::function<std::string(const T &)> print{};

    Knob &secured() { securedOnly = true; return *this; }
    Knob &unit(const char *s) { suffix = s; return *this; }
};

template <typename C, typename F>
C knobOwner(F C::*);
template <auto M0>
using KnobOwner = decltype(knobOwner(M0));
template <auto M0, auto... Ms>
using KnobField = std::remove_cvref_t<decltype((
    (std::declval<KnobOwner<M0> &>().*M0) .* ... .* Ms))>;

/** The row of the field at the path M0, Ms... */
template <auto M0, auto... Ms, typename Parse, typename Print>
Knob<KnobOwner<M0>>
bind(const char *name, const char *segment, const char *meta,
     const char *help, std::string values, Parse parse, Print print)
{
    using T = KnobOwner<M0>;
    Knob<T> k{name, segment, meta, help, std::move(values)};
    k.parse = [parse](T &t, const std::string &v) {
        return parse(v, ((t.*M0) .* ... .* Ms));
    };
    k.print = [print](const T &t) { return print(((t.*M0) .* ... .* Ms)); };
    return k;
}

/** An integer or floating-point field bounded to [lo, hi]. */
template <auto M0, auto... Ms, typename L, typename H>
Knob<KnobOwner<M0>>
number(const char *name, const char *segment, L lo, H hi,
       const char *help)
{
    using F = KnobField<M0, Ms...>;
    using N = std::conditional_t<
        std::is_floating_point_v<F>, double,
        std::conditional_t<std::is_signed_v<F>, long long,
                           unsigned long long>>;
    const N l = static_cast<N>(lo), h = static_cast<N>(hi);
    return bind<M0, Ms...>(
        name, segment, std::is_floating_point_v<F> ? "F" : "N", help,
        showNumber(l) + ".." + showNumber(h),
        [l, h](const std::string &v, F &f) {
            N n{};
            return parseNumber(v, l, h, n) && (f = static_cast<F>(n), true);
        },
        [](F f) { return showNumber(f); });
}

/** A bool field, printed as 1/0. */
template <auto M0, auto... Ms>
Knob<KnobOwner<M0>>
flag(const char *name, const char *segment, const char *help)
{
    return bind<M0, Ms...>(name, segment, "B", help, "on|off", parseBool,
                           [](bool f) { return std::string(f ? "1" : "0"); });
}

/** An enum field spelled by its name list @p names. */
template <auto M0, auto... Ms, typename List>
Knob<KnobOwner<M0>>
choice(const char *name, const char *segment, const List &names,
       const char *help)
{
    using F = KnobField<M0, Ms...>;
    std::string values;
    for (const auto &n : names) {
        if (nameIn(names, n.value) == n.name) // not an alias
            values.append(values.empty() ? "" : "|").append(n.name);
    }
    return bind<M0, Ms...>(
        name, segment, "NAME", help, values,
        [&names](const std::string &v, F &f) { return parseIn(names, v, f); },
        [&names](F f) { return std::string(nameIn(names, f)); });
}

/** A host-only string field, taken as written. */
template <auto M0, auto... Ms>
Knob<KnobOwner<M0>>
text(const char *name, const char *help, const char *meta = "FILE")
{
    return bind<M0, Ms...>(
        name, nullptr, meta, help, "",
        [](const std::string &v, std::string &f) { return f = v, true; },
        [](const std::string &f) { return f; });
}

template <typename T>
const Knob<T> *
findKnob(const std::vector<Knob<T>> &rows, std::string_view name)
{
    const auto it = std::ranges::find_if(
        rows, [&](const Knob<T> &k) { return k.name && name == k.name; });
    return it == rows.end() ? nullptr : &*it;
}

/** What a parser found. */
enum class ParseStatus
{
    Ok,
    Help, ///< help text went to stdout
    Error ///< reported to stderr
};

/**
 * Hand argv's "--name value" pairs (a lone "--name" in @p bare) to
 * @p take, and any other word to @p positional, until one is not Ok.
 * --help or -h prints @p usage to stdout (Help); a missing value, or
 * a stray word without @p positional, is a reported Error.
 */
ParseStatus
walkArgs(int argc, char **argv,
         const std::function<void(std::ostream &)> &usage,
         const std::function<ParseStatus(const std::string &name,
                                         const std::string &value)> &take,
         std::initializer_list<std::string_view> bare = {},
         const std::function<ParseStatus(const std::string &word)>
             &positional = {});

/** Report --@p name as unknown, or @p value as bad for it. */
ParseStatus badKnob(const std::string &name, const std::string &value,
                    bool known);

/** --debug FLAGS: enable trace flags; "help" lists them. */
ParseStatus setDebugFlags(const std::string &value);

/** Set --@p name of @p t through @p rows. */
template <typename T>
ParseStatus
setKnob(const std::vector<Knob<T>> &rows, T &t, const std::string &name,
        const std::string &value)
{
    const Knob<T> *k = findKnob(rows, name);
    return k && k->parse(t, value) ? ParseStatus::Ok
                                   : badKnob(name, value, k != nullptr);
}

/**
 * Help lines of the flags in @p rows, showing their values in
 * @p defaults; a default parse() rejects (0 = "auto") is left out.
 */
template <typename T>
void
printKnobHelp(std::ostream &os, const std::vector<Knob<T>> &rows,
              const T &defaults)
{
    for (const Knob<T> &k : rows) {
        const std::string def = k.print(defaults);
        T probe = defaults;
        if (k.name)
            os << knobHelpLine(k.name, k.meta, k.help, k.values,
                               k.parse(probe, def) ? def : "");
    }
}

} // namespace mgsec

#endif // MGSEC_SIM_KNOB_HH
