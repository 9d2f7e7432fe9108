#!/usr/bin/env sh
# Scale-out sweep preset: the full workload x scheme matrix at 8, 16
# and 64 GPUs on one fabric. Companion to `mgsec_figures --figure
# scaleout` (which checks the headline schemes on every fabric); this
# runs mgsec_sweep's full six-config matrix per system size and writes
# one JSON per size.
#
# Usage: scripts/sweep_scale.sh [topology] [outdir] [extra args...]
#   topology   p2p | nvswitch | hier      (default nvswitch)
#   outdir     where SWEEP_scale_g<N>.json land (default .)
#   extra args forwarded to mgsec_sweep, e.g. --scale 0.1 --seeds 1
#              --sim-threads 4 --workloads mm,fft
#
# The binary is looked up next to this script's repo layout
# (build/tools/mgsec_sweep) unless MGSEC_SWEEP points elsewhere.
set -eu

topo="${1:-nvswitch}"
outdir="${2:-.}"
[ $# -ge 1 ] && shift
[ $# -ge 1 ] && shift

repo_root="$(cd "$(dirname "$0")/.." && pwd)"
sweep="${MGSEC_SWEEP:-$repo_root/build/tools/mgsec_sweep}"
[ -x "$sweep" ] || {
    echo "mgsec_sweep not found at $sweep (build it or set MGSEC_SWEEP)" >&2
    exit 1
}
mkdir -p "$outdir"

for gpus in 8 16 64; do
    echo "== $gpus GPUs on $topo"
    "$sweep" --gpus "$gpus" --topology "$topo" \
        --json "$outdir/SWEEP_scale_g$gpus.json" "$@"
done
