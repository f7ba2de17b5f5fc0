#!/usr/bin/env bash
# Pins the exact bytes of `icheck check --json` for every workload, scheme
# and rounding setting against a recorded golden file.
#
# Usage: check_reports.sh ICHECK GOLDEN [--record]
#
# Without --record, runs the matrix and diffs it against GOLDEN (exit 1 on
# any difference). With --record, rewrites GOLDEN from ICHECK; record only
# from a build whose reports are known good, since every later hashing
# change is measured against these bytes.
set -euo pipefail

icheck=$1
golden=$2
record=${3:-}

run_matrix() {
    local app scheme input rounding rc
    for app in $("$icheck" list | awk 'NR > 1 { print $1 }'); do
        for scheme in hw swinc swtr; do
            for input in medium large; do
                for rounding in "" --no-rounding; do
                    # Exit 1 is the nondeterminism verdict, not a failure.
                    rc=0
                    "$icheck" check "$app" --runs 4 --scheme "$scheme" \
                        --input "$input" $rounding --json || rc=$?
                    if [ "$rc" -gt 1 ]; then
                        echo "icheck check $app --scheme $scheme" \
                             "--input $input $rounding exited $rc" >&2
                        exit 1
                    fi
                done
            done
        done
    done
}

if [ "$record" = "--record" ]; then
    run_matrix > "$golden"
    echo "recorded $(wc -l < "$golden") reports to $golden"
    exit 0
fi

actual=$(mktemp)
trap 'rm -f "$actual"' EXIT
run_matrix > "$actual"
if ! diff -u "$golden" "$actual"; then
    echo "icheck check --json drifted from $golden" >&2
    exit 1
fi
echo "$(wc -l < "$golden") reports match $golden"
