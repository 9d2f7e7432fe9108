/**
 * @file
 * mgsec_figures — the paper's tables and figures from the spec in
 * core/figures.cc, checked against the paper:
 *
 *   mgsec_figures --figure all --json FIDELITY.json
 *
 * Takes the sweep flags. At their defaults (--scale 0.6 --seeds 2) a
 * failed check exits 1; elsewhere checks are only reported. Usage
 * errors exit 2.
 */

#include <algorithm>
#include <iostream>
#include <string>
#include <vector>

#include "core/figures.hh"

using namespace mgsec;

int
main(int argc, char **argv)
{
    std::string figure, names = "all";
    for (const Figure &f : figureSpecs())
        names += "|" + f.name;
    Knob<SweepArgs> row{"figure", nullptr, "NAME", "what to run", names};
    row.parse = [&](SweepArgs &, const std::string &v) {
        const bool known =
            v == "all" || std::ranges::any_of(figureSpecs(), [&](auto &f) {
                return f.name == v;
            });
        return known && (figure = v, true);
    };
    row.print = [&](const SweepArgs &) { return figure; };

    SweepArgs args;
    args.parseArgs(argc, argv, {row});
    if (figure.empty()) {
        std::cerr << "missing --figure\n";
        args.printUsage(std::cerr, argv[0], {row});
        return 2;
    }

    std::vector<const Figure *> figs;
    for (const Figure &f : figureSpecs()) {
        if (figure == "all" || figure == f.name)
            figs.push_back(&f);
    }
    return runFigures(figs, args, std::cout, std::cerr);
}
