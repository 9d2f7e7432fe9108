#!/usr/bin/env python3
"""Plot the paper's figures from recorded mgsec_figures output.

Reads the text tables that `mgsec_figures` prints, either for every
figure (`--figure all`, one "### NAME" section per figure) or for one
figure, and renders matplotlib bar charts that mirror the paper's
figures.

Usage:
    ./build/tools/mgsec_figures --figure all > figures.txt
    python3 scripts/plot_figures.py figures.txt -o plots/

matplotlib is optional at build time — this script is the only thing
that needs it.
"""

import argparse
import os
import re
import sys


def parse_sections(path):
    """Split a capture into {figure name: lines}."""
    with open(path) as f:
        lines = [l.rstrip("\n") for l in f]
    sections = {}
    current = None
    for line in lines:
        m = re.match(r"###\s+(\w+)$", line)
        if m:
            current = m.group(1)
            sections[current] = []
        elif current:
            sections[current].append(line)
    if not sections and lines:
        # One figure's output: name it by its banner.
        for name, (banner, _, _) in FIGS.items():
            if lines[0].startswith(banner):
                sections[name] = lines
    return sections


def parse_table(lines):
    """Parse an aligned-column table into (headers, rows).

    Columns are at least two spaces apart, so a cell may hold one
    space ("10 cyc", "T (cycles)").
    """
    def split(line):
        return re.split(r"\s{2,}", line.strip())

    headers = None
    rows = []
    for i, line in enumerate(lines):
        if set(line.strip()) == {"-"} and i > 0:
            headers = split(lines[i - 1])
            for row_line in lines[i + 1:]:
                if not row_line.strip():
                    break
                cells = split(row_line)
                if len(cells) >= 2:
                    rows.append(cells)
            break
    return headers, rows


def numeric(cell):
    try:
        return float(cell.rstrip("%x"))
    except ValueError:
        return None


def plot_grouped_bars(headers, rows, title, ylabel, out_path, plt):
    workloads = [r[0] for r in rows]
    series = headers[1:]
    fig, ax = plt.subplots(figsize=(max(8, len(workloads) * 0.6), 4))
    width = 0.8 / max(1, len(series))
    for si, s in enumerate(series):
        vals = []
        for r in rows:
            v = numeric(r[si + 1]) if si + 1 < len(r) else None
            vals.append(v if v is not None else 0.0)
        xs = [i + si * width for i in range(len(workloads))]
        ax.bar(xs, vals, width=width, label=s)
    ax.set_xticks([i + 0.4 for i in range(len(workloads))])
    ax.set_xticklabels(workloads, rotation=60, ha="right",
                       fontsize=8)
    ax.set_ylabel(ylabel)
    ax.set_title(title)
    ax.axhline(1.0, color="gray", lw=0.5)
    ax.legend(fontsize=7)
    fig.tight_layout()
    fig.savefig(out_path, dpi=150)
    print(f"wrote {out_path}")


FIGS = {
    "fig8": ("=== Fig. 8 ", "Fig. 8 — Private vs OTP entries",
             "normalized time"),
    "fig9": ("=== Fig. 9 ", "Fig. 9 — prior schemes", "normalized time"),
    "fig12": ("=== Fig. 12 ", "Fig. 12 — traffic ratio",
              "normalized traffic"),
    "fig21": ("=== Fig. 21 ", "Fig. 21 — main comparison",
              "normalized time"),
    "fig23": ("=== Fig. 23 ", "Fig. 23 — traffic w/ batching",
              "normalized traffic"),
    "fig26": ("=== Fig. 26 ", "Fig. 26 — AES latency", "normalized time"),
}


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("input", help="captured mgsec_figures output")
    ap.add_argument("-o", "--outdir", default="plots")
    args = ap.parse_args()

    try:
        import matplotlib
        matplotlib.use("Agg")
        import matplotlib.pyplot as plt
    except ImportError:
        sys.exit("matplotlib is required: pip install matplotlib")

    os.makedirs(args.outdir, exist_ok=True)
    sections = parse_sections(args.input)
    made = 0
    for name, (_, title, ylabel) in FIGS.items():
        if name not in sections:
            continue
        headers, rows = parse_table(sections[name])
        if not headers or not rows:
            print(f"skipping {name}: no table found")
            continue
        out = os.path.join(args.outdir, f"{name}.png")
        plot_grouped_bars(headers, rows, title, ylabel, out, plt)
        made += 1
    if made == 0:
        sys.exit("no plottable sections found")


if __name__ == "__main__":
    main()
