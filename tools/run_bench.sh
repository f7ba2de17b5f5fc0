#!/usr/bin/env bash
# Build and run the perf-trajectory benchmarks, leaving machine-readable
# results at the repo root. Run from anywhere inside the repo:
#
#   tools/run_bench.sh [build-dir] [parallel-output.json]
#   tools/run_bench.sh --pin [build-dir]
#
# Six files are produced:
#   BENCH_parallel.json — serial vs. pooled campaign runs/sec (plus
#     speedup and worker utilization per job count).
#   BENCH_hotpath.json  — access/hash hot-path throughput (store-hash
#     loop, span hashing, memory access, machine end-to-end), compared
#     against the pinned pre-optimization baseline in
#     bench/baselines/hotpath_main.json.
#   BENCH_snapshot.json — snapshot/prefix-sharing throughput (COW fork
#     vs clone, restore+suffix vs cold re-run, explore nodes/sec on vs
#     off), compared against the pinned no-checkpoint baseline in
#     bench/baselines/snapshot_main.json.
#   BENCH_service.json  — campaign-service throughput (sustained req/s,
#     p50/p99 latency, dedup hit rate) from the loadgen mixed-app
#     replay, compared against the pinned baseline in
#     bench/baselines/service_main.json.
#   BENCH_explore.json  — DPOR exploration reduction (nodes to full
#     coverage on the bug-seeded apps, states found), compared against
#     the pinned no-DPOR baseline in bench/baselines/explore_main.json.
#   BENCH_fleet.json    — router-fronted fleet throughput (aggregate
#     req/s, p50/p99, dedup rate, per-backend balance, router overhead
#     vs a direct daemon, backend-count sweep, kill-one failover
#     counters), compared against the pinned baseline in
#     bench/baselines/fleet_main.json.
# Comparing the files across commits tracks each subsystem's trajectory.
#
# Every emitted JSON is stamped with provenance (git SHA, hostname,
# compiler), so a committed result documents where it came from.
#
# --pin re-records the pinned baselines under bench/baselines/ instead.
# Baselines are the denominator of every later speedup claim, so pinning
# refuses to run from a dirty tree: the stamped SHA must describe
# exactly the code that produced the numbers.
set -euo pipefail

repo_root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"

pin=0
args=()
for arg in "$@"; do
    if [ "${arg}" = "--pin" ]; then
        pin=1
    else
        args+=("${arg}")
    fi
done
build_dir="${args[0]:-${repo_root}/build}"
out_json="${args[1]:-${repo_root}/BENCH_parallel.json}"

if [ ! -f "${build_dir}/CMakeCache.txt" ]; then
    cmake -B "${build_dir}" -S "${repo_root}"
fi

# Sanitizer instrumentation skews timings by 2-20x; numbers from such a
# build must never land in a committed BENCH_*.json.
sanitize="$(sed -n 's/^ICHECK_SANITIZE:[^=]*=//p' \
    "${build_dir}/CMakeCache.txt")"
if [ -n "${sanitize}" ]; then
    echo "error: ${build_dir} was configured with" \
        "ICHECK_SANITIZE=${sanitize}; refusing to record benchmark" \
        "numbers from an instrumented build" >&2
    exit 1
fi

# Provenance stamped into every emitted JSON.
git_sha="$(git -C "${repo_root}" rev-parse --short HEAD 2>/dev/null ||
    echo unknown)"
if [ -n "$(git -C "${repo_root}" status --porcelain 2>/dev/null)" ]; then
    git_sha="${git_sha}-dirty"
fi
host_name="$(hostname)"
cxx_path="$(sed -n 's/^CMAKE_CXX_COMPILER:[^=]*=//p' \
    "${build_dir}/CMakeCache.txt")"
compiler="$("${cxx_path}" --version 2>/dev/null | head -n 1 ||
    echo "${cxx_path}")"

# Insert the provenance keys right after the opening brace of $1.
stamp_provenance() {
    local file="$1"
    awk -v sha="${git_sha}" -v host="${host_name}" \
        -v comp="${compiler}" '
        NR == 1 && $0 == "{" {
            print "{"
            print "  \"gitSha\": \"" sha "\","
            print "  \"host\": \"" host "\","
            print "  \"compiler\": \"" comp "\","
            next
        }
        { print }' "${file}" > "${file}.tmp"
    mv "${file}.tmp" "${file}"
}

if [ "${pin}" -eq 1 ]; then
    case "${git_sha}" in
    *-dirty | unknown)
        echo "error: refusing to pin baselines from a dirty tree;" \
            "commit first so the stamped SHA describes the code that" \
            "produced the numbers" >&2
        exit 1
        ;;
    esac
    cmake --build "${build_dir}" -t micro_hotpath micro_snapshot \
        micro_explore loadgen -j
    mkdir -p "${repo_root}/bench/baselines"
    "${build_dir}/bench/micro_hotpath" \
        "${repo_root}/bench/baselines/hotpath_main.json"
    stamp_provenance "${repo_root}/bench/baselines/hotpath_main.json"
    "${build_dir}/bench/micro_snapshot" \
        "${repo_root}/bench/baselines/snapshot_main.json" \
        --no-checkpoints
    stamp_provenance "${repo_root}/bench/baselines/snapshot_main.json"
    "${build_dir}/tools/loadgen/loadgen" \
        "${repo_root}/bench/baselines/service_main.json"
    stamp_provenance "${repo_root}/bench/baselines/service_main.json"
    "${build_dir}/bench/micro_explore" \
        "${repo_root}/bench/baselines/explore_main.json" --no-dpor
    stamp_provenance "${repo_root}/bench/baselines/explore_main.json"
    cmake --build "${build_dir}" -t icheck -j
    # 4 seeds x 3 apps = 12 distinct campaigns: enough keys that every
    # backend owns a shard (the default 6 can leave ring members idle).
    "${build_dir}/tools/loadgen/loadgen" \
        "${repo_root}/bench/baselines/fleet_main.json" \
        --fleet 4 --ship sync --kill-one --verify \
        --requests 144 --seeds 4 \
        --spawn "${build_dir}/tools/icheck"
    stamp_provenance "${repo_root}/bench/baselines/fleet_main.json"
    echo "baselines pinned under ${repo_root}/bench/baselines/"
    exit 0
fi

cmake --build "${build_dir}" -t micro_parallel micro_hotpath \
    micro_snapshot micro_explore loadgen -j

"${build_dir}/bench/micro_parallel" "${out_json}"
stamp_provenance "${out_json}"
echo "perf trajectory written to ${out_json}"

"${build_dir}/bench/micro_hotpath" "${repo_root}/BENCH_hotpath.json" \
    --baseline "${repo_root}/bench/baselines/hotpath_main.json"
stamp_provenance "${repo_root}/BENCH_hotpath.json"
echo "hot-path trajectory written to ${repo_root}/BENCH_hotpath.json"

"${build_dir}/bench/micro_snapshot" "${repo_root}/BENCH_snapshot.json" \
    --baseline "${repo_root}/bench/baselines/snapshot_main.json"
stamp_provenance "${repo_root}/BENCH_snapshot.json"
echo "snapshot trajectory written to ${repo_root}/BENCH_snapshot.json"

service_baseline="${repo_root}/bench/baselines/service_main.json"
service_args=()
if [ -f "${service_baseline}" ]; then
    service_args+=(--baseline "${service_baseline}")
fi
"${build_dir}/tools/loadgen/loadgen" "${repo_root}/BENCH_service.json" \
    "${service_args[@]+"${service_args[@]}"}"
stamp_provenance "${repo_root}/BENCH_service.json"
echo "service trajectory written to ${repo_root}/BENCH_service.json"

explore_baseline="${repo_root}/bench/baselines/explore_main.json"
explore_args=()
if [ -f "${explore_baseline}" ]; then
    explore_args+=(--baseline "${explore_baseline}")
fi
"${build_dir}/bench/micro_explore" "${repo_root}/BENCH_explore.json" \
    "${explore_args[@]+"${explore_args[@]}"}"
stamp_provenance "${repo_root}/BENCH_explore.json"
echo "explore trajectory written to ${repo_root}/BENCH_explore.json"

cmake --build "${build_dir}" -t icheck -j
fleet_baseline="${repo_root}/bench/baselines/fleet_main.json"
fleet_args=()
if [ -f "${fleet_baseline}" ]; then
    fleet_args+=(--baseline "${fleet_baseline}")
fi
"${build_dir}/tools/loadgen/loadgen" "${repo_root}/BENCH_fleet.json" \
    --fleet 4 --ship sync --kill-one --verify \
    --requests 144 --seeds 4 \
    --spawn "${build_dir}/tools/icheck" \
    "${fleet_args[@]+"${fleet_args[@]}"}"
stamp_provenance "${repo_root}/BENCH_fleet.json"
echo "fleet trajectory written to ${repo_root}/BENCH_fleet.json"
