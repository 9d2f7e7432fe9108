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

#include <cstring>
#include <iostream>
#include <string>
#include <vector>

#include "core/figures.hh"

using namespace mgsec;

int
main(int argc, char **argv)
{
    SweepArgs args;
    args.acceptJson = true;
    auto usage = [&](std::ostream &os) {
        args.printUsage(os, argv[0]);
        std::string names = "all";
        for (const Figure &f : figureSpecs())
            names += "|" + f.name;
        os << knobHelpLine("figure", "NAME", "what to run", names, "");
    };

    // --figure is ours; every other flag goes to the sweep parser.
    std::string figure;
    std::vector<char *> rest{argv[0]};
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--help") == 0 ||
            std::strcmp(argv[i], "-h") == 0) {
            usage(std::cout);
            return 0;
        }
        if (std::strcmp(argv[i], "--figure") != 0)
            rest.push_back(argv[i]);
        else if (i + 1 < argc)
            figure = argv[++i];
    }
    args.parseArgs(static_cast<int>(rest.size()), rest.data());

    std::vector<const Figure *> figs;
    for (const Figure &f : figureSpecs()) {
        if (figure == "all" || figure == f.name)
            figs.push_back(&f);
    }
    if (figs.empty()) {
        std::cerr << "missing or unknown --figure '" << figure << "'\n";
        usage(std::cerr);
        return 2;
    }
    return runFigures(figs, args, std::cout, std::cerr);
}
