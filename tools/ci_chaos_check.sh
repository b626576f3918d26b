#!/usr/bin/env bash
# Chaos-campaign determinism check (docs/PERFORMANCE.md): run one fixed-
# seed 300-trial chaos campaign serially and again on the in-process
# thread pool (--threads 0), require the two outputs to be byte-
# identical, and optionally require the serial output to contain a line
# proving the campaign exercised what it is meant to.
#
# Usage: ci_chaos_check.sh PCIEBENCH NAME PATTERN [chaos flags...]
#   NAME     prefix for the kept outputs, NAME-serial.out and
#            NAME-threaded.out in the working directory
#   PATTERN  grep pattern the serial output must match ("" = none)
#   flags    extra `pciebench chaos` flags; every campaign passes its
#            own --iters
#
# The serial run doubles as the campaign gate: a violation (exit 1) or
# infrastructure error (exit 3) fails the script before the threaded run.
set -euo pipefail

if [[ $# -lt 3 ]]; then
    echo "usage: ci_chaos_check.sh PCIEBENCH NAME PATTERN [chaos flags...]" >&2
    exit 2
fi
PCIEBENCH="$1"
NAME="$2"
PATTERN="$3"
shift 3

if [[ ! -x "$PCIEBENCH" ]]; then
    echo "ci_chaos_check: $PCIEBENCH not found or not executable" >&2
    exit 3
fi

CAMPAIGN=(chaos --trials 300 --master-seed 0xc4a05 "$@")

echo "== $NAME: serial"
"$PCIEBENCH" "${CAMPAIGN[@]}" > "$NAME-serial.out"
echo "== $NAME: threaded"
"$PCIEBENCH" "${CAMPAIGN[@]}" --threads 0 > "$NAME-threaded.out"
cmp "$NAME-serial.out" "$NAME-threaded.out"
if [[ -n "$PATTERN" ]]; then
    grep -- "$PATTERN" "$NAME-serial.out"
fi
echo "ok: $NAME serial and threaded outputs are byte-identical"
