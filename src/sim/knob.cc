#include "sim/knob.hh"

#include <algorithm>
#include <iostream>

#include "sim/debug.hh"
#include "sim/logging.hh"

namespace mgsec
{

bool
parseBool(const std::string &text, bool &out)
{
    if (text == "1" || text == "true" || text == "yes" || text == "on")
        out = true;
    else if (text == "0" || text == "false" || text == "no" ||
             text == "off")
        out = false;
    else
        return false;
    return true;
}

std::vector<std::string>
splitList(const std::string &text, char sep)
{
    std::vector<std::string> out;
    std::size_t start = 0;
    for (;;) {
        const std::size_t end = text.find(sep, start);
        out.push_back(text.substr(start, end - start));
        if (end == std::string::npos)
            return out;
        start = end + 1;
    }
}

ParseStatus
walkArgs(int argc, char **argv,
         const std::function<void(std::ostream &)> &usage,
         const std::function<ParseStatus(const std::string &,
                                         const std::string &)> &take,
         std::initializer_list<std::string_view> bare,
         const std::function<ParseStatus(const std::string &)> &positional)
{
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        const bool alone = std::ranges::find(bare, arg) != bare.end();
        if (arg == "-h" || arg == "--help") {
            usage(std::cout);
            return ParseStatus::Help;
        }
        ParseStatus st;
        if (arg.rfind("--", 0) == 0) {
            if (!alone && i + 1 >= argc) {
                std::cerr << "missing value for '" << arg << "'\n";
                return ParseStatus::Error;
            }
            st = take(arg.substr(2), alone ? "" : argv[++i]);
        } else if (positional) {
            st = positional(arg);
        } else {
            std::cerr << "unexpected argument '" << arg << "'\n";
            return ParseStatus::Error;
        }
        if (st != ParseStatus::Ok)
            return st;
    }
    return ParseStatus::Ok;
}

ParseStatus
badKnob(const std::string &name, const std::string &value, bool known)
{
    if (known)
        std::cerr << "bad value '" << value << "' for '--" << name << "'\n";
    else
        std::cerr << "unknown option '--" << name << "'\n";
    return ParseStatus::Error;
}

ParseStatus
setDebugFlags(const std::string &value)
{
    if (value == "help") {
        debug::listFlags(std::cout);
        return ParseStatus::Help;
    }
    return debug::DebugFlag::enableByName(value)
               ? ParseStatus::Ok
               : badKnob("debug", value, true);
}

std::string
showNumber(double v)
{
    return strformat("%g", v);
}

std::string
knobHelpLine(const char *name, const char *meta, const char *help,
             const std::string &values, std::string def)
{
    if (values == "on|off" && !def.empty())
        def = def == "1" ? "on" : "off";
    std::string line = strformat("  --%s %s", name, meta);
    line.resize(std::max<std::size_t>(line.size() + 1, 27), ' ');
    line += help;
    if (!values.empty())
        line += "; " + values;
    if (!def.empty())
        line += " (default " + def + ")";
    return line + "\n";
}

} // namespace mgsec
