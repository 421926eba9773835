#!/usr/bin/env bash
# Tier-1 gate: configure, build, run the full test suite. With --asan, also
# build the ASan+UBSan configuration and run the engine, network, TCP,
# sttcp and obs subset plus the chaos sweeps under it (the full suite under
# ASan is slow; those layers are where the pointer-heavy code lives, and the
# chaos/two-failure sweeps drive the widest state coverage). With --release, also build
# the optimized lane the benchmarks are measured in and smoke-run bench_micro
# (see docs/PERFORMANCE.md). With --chaos, run the adversarial multi-fault
# fuzzer (docs/CHAOS.md) over a fixed seed budget in the Release lane. With
# --scale, run the churn capacity bench's quick mode in the Release lane —
# the invariant-checked mid-churn failover acceptance (see EXPERIMENTS.md,
# "Capacity and churn"). With --shard, run the 4-shard routed-fabric smoke
# (router death + inter-subnet partition under churn, docs/ROUTING.md) in
# the Release lane. With --app, run the replicated block-store application
# lane in the Release lane: the 200-seed crash sweep under the
# response-exactness invariant plus the warm/cold-cache failover ablation
# (docs/APPLICATION.md). With --grey, run the grey-failure lane in the Release
# lane: the bounded-depth interleaving explorer over the failover window
# plus a 32-seed slow-not-dead sweep convicted by progress counters
# (docs/CHAOS.md, "Grey failures"). With --group, run the 1+N replication-
# group lane in the Release lane: the exhaustive three-host promotion-race
# explorer (single and simultaneous-double failure windows), a 64-seed
# simultaneous double-failure sweep at N=3, its N=2 negative control, the
# group reintegration tests, and the hung-follower tests: a follower whose
# application hangs is convicted by the leader on that follower's own
# progress, alone and followed by a leader crash (docs/GROUPS.md). With
# --stbench, run the end-to-end benchmark (stbench/README.md) on every
# workload for one measured second at seed 1 and fail unless each run
# reports correct. With
# --same=<rev>, prove a refactor changed no output: build <rev> in a
# throwaway git worktree (Release, under build-same/), run the deterministic
# benches (bench_table1_scenarios, bench_chaos 64, bench_demo1_failover,
# bench_fabric --quick, bench_explore 3000 with its wall-clock column
# stripped, and bench_blockstore --quick, whose crash and cold-cache runs
# reach block-store paths the end-to-end benchmark does not) and the five
# examples in both trees, plus the end-to-end benchmark on all four
# workloads (seed 1, one measured second; its `stbench workload=...
# digest=... sim_s=...` line, with `episodes=` stripped because the episode
# count depends on wall time, and the client-visible lat_p50_ms,
# lat_p99_ms, stall_ms and goodput_mbps of its JSON line), and diff their
# stdout and exit codes — any difference fails the lane. When a change
# redefines a digest on purpose, the stbench digest line of the workloads
# it reaches differs while those four client-visible values must not. The
# default lane also runs the doc link checker.
#
# With --tsan, build the ThreadSanitizer configuration and run the parallel
# shard-executor, determinism, clock-domain, and grey-sweep tests under it —
# the proof that the conservative window/barrier protocol and the
# sweep-runner pool have no data races.
#
#   scripts/check.sh             # build + full ctest + doc link check
#   scripts/check.sh --asan      # additionally: sanitizer lane
#   scripts/check.sh --tsan      # additionally: TSan parallel-engine lane
#   scripts/check.sh --release   # additionally: -O2 lane + bench smoke
#   scripts/check.sh --chaos     # additionally: 64-seed adversarial fuzz lane
#   scripts/check.sh --grey      # additionally: explorer + grey-failure lane
#   scripts/check.sh --group     # additionally: 1+N group double-failure lane
#   scripts/check.sh --scale     # additionally: churn capacity smoke lane
#   scripts/check.sh --shard     # additionally: 4-shard fabric chaos smoke
#   scripts/check.sh --app       # additionally: block-store failover lane
#   scripts/check.sh --stbench   # additionally: end-to-end benchmark smoke
#   scripts/check.sh --same=HEAD~1  # additionally: outputs identical to a rev
set -euo pipefail
cd "$(dirname "$0")/.."

JOBS="$(nproc 2>/dev/null || echo 4)"

# Deterministic outputs of one build tree, one file per program, each ending
# with the program's exit code (a failing verdict is an output too).
same_outputs() {
  local build="$1" out="$2"
  mkdir -p "$out"
  local cmd name
  for cmd in "bench/bench_table1_scenarios" "bench/bench_chaos 64" \
             "bench/bench_demo1_failover" "bench/bench_fabric --quick" \
             "bench/bench_explore 3000" "bench/bench_blockstore --quick" \
             "examples/failure_drill" \
             "examples/multi_connection" "examples/quickstart" \
             "examples/scenario_cli" "examples/streaming_dashboard"; do
    name="$(basename "${cmd%% *}")"
    # shellcheck disable=SC2086  # $cmd carries the program's arguments
    { "$build"/$cmd || echo "exit status $?"; } >"$out/$name.txt"
  done
  # The explorer's last column is wall-clock seconds.
  sed -i -E 's/[|+][^|+]*$//' "$out/bench_explore.txt"
}

# The simulated-time summary of stbench on every workload, run from the
# source tree `tree` with its own Release build under `target`. The episode
# count is how many episodes fit in the measured wall second, so it is
# stripped; digest and sim_s are deterministic, and so are the client-visible
# metrics taken from the JSON line.
same_stbench() {
  local tree="$1" target="$2" out="$3" w run
  for w in bulk churn blockstore ring; do
    if run="$(cd "$tree" && CARGO_TARGET_DIR="$target" python3 stbench/run.py \
                --workload "$w" --seed 1 --seconds 1 --trace 0)"; then
      echo "$run" | grep '^stbench workload=' | sed -E 's/ episodes=[0-9]+//'
      echo "$run" | tail -n 1 | python3 -c '
import json, sys
m = json.load(sys.stdin)["metrics"]
print(" ".join("%s=%r" % (k, m[k]["value"])
               for k in ("lat_p50_ms", "lat_p99_ms", "stall_ms", "goodput_mbps")))'
    else
      echo "stbench workload=$w failed"
    fi
  done >"$out/stbench.txt"
}

scripts/check_docs.sh

cmake -B build -DCMAKE_BUILD_TYPE=RelWithDebInfo >/dev/null
cmake --build build -j "$JOBS"
ctest --test-dir build --output-on-failure -j "$JOBS"

for arg in "$@"; do
  case "$arg" in
    --asan)
      cmake -B build-asan -DCMAKE_BUILD_TYPE=RelWithDebInfo -DSTTCP_SANITIZE=ON >/dev/null
      cmake --build build-asan -j "$JOBS"
      # Impairment engine (COW corruption, reorder hold queue) is included:
      # it is the newest pointer-heavy code. So is the engine core (sim_*:
      # inline callbacks, owner-cleared timers, the intrusive wheel, and the
      # allocation-budget binary, whose counts are checked only uninstrumented),
      # and so are the network and TCP layers (net_|tcp_): parsed segments and
      # buffered replica segments are views into shared frame blocks, so a
      # frame dropped too early shows up here as a use-after-free.
      # The chaos fuzzer runs a reduced seed budget under ASan — each seed is
      # ~5x slower instrumented.
      STTCP_CHAOS_SEEDS=12 ctest --test-dir build-asan --output-on-failure \
        -j "$JOBS" -R 'sim_|net_|tcp_|sttcp|obs|chaos|impairment'
      ;;
    --tsan)
      cmake -B build-tsan -DCMAKE_BUILD_TYPE=RelWithDebInfo -DSTTCP_SANITIZE=thread >/dev/null
      cmake --build build-tsan -j "$JOBS"
      # Everything that spawns worker threads: the shard executor, the
      # sharded determinism digests, and the sweep-runner pool (the grey
      # and multi-failure sweeps run reduced seed budgets under TSan —
      # the group sweep is the newest SweepRunner client). Clock-domain
      # tests ride along: virtual-clock skew under the parallel executor. So
      # do the frame tests: a frame block's atomic refcount is shared by
      # shard threads.
      STTCP_GREY_SEEDS=8 STTCP_MULTI_SEEDS=8 STTCP_MULTI_NEG_SEEDS=4 \
        ctest --test-dir build-tsan --output-on-failure \
        -j "$JOBS" -R 'parallel|determinism|clock_domain|frame|grey_chaos|multi_failure'
      ;;
    --release)
      cmake -B build-release -DCMAKE_BUILD_TYPE=Release >/dev/null
      cmake --build build-release -j "$JOBS"
      # Quick sanity pass over the hot-path microbenchmarks; the committed
      # numbers in BENCH_micro.json use --benchmark_min_time=0.2.
      ./build-release/bench/bench_micro \
        --benchmark_filter='BM_SwitchMulticastFanout/2|BM_InternetChecksum/1460|BM_EventLoopScheduleRun|BM_OneShotTimerRearm|BM_SendBufferAppendSliceAck|BM_FrameBuildTcpSegment|BM_TcpReceiveDataSegment|BM_HeartbeatWrite|BM_HeartbeatRead|BM_Pattern|BM_BlockCacheMissEvictInsert|BM_BlockDigestFold/512' \
        --benchmark_min_time=0.05
      ;;
    --chaos)
      cmake -B build-release -DCMAKE_BUILD_TYPE=Release >/dev/null
      cmake --build build-release -j "$JOBS"
      # Adversarial multi-fault fuzz lane: every seed derives a fresh 2-4
      # fault schedule; any invariant violation prints the exact seed + plan
      # and a one-command replay line (see docs/CHAOS.md), and fails the lane.
      ./build-release/bench/bench_chaos 64
      ;;
    --grey)
      cmake -B build-release -DCMAKE_BUILD_TYPE=Release >/dev/null
      cmake --build build-release -j "$JOBS"
      # Grey-failure lane (docs/CHAOS.md, "Grey failures"): exhaustively
      # enumerate the failover window's interleavings at the default bounds,
      # then sweep 32 slow-not-dead schedules — every grey host must be
      # convicted by a progress-counter criterion within budget, with zero
      # false convictions. Both exit non-zero on any violation.
      ./build-release/bench/bench_explore 3000
      STTCP_GREY_SEEDS=32 ./build-release/tests/integration_grey_chaos_test \
        --gtest_filter='*GreySweepHoldsAllInvariants*'
      ;;
    --group)
      cmake -B build-release -DCMAKE_BUILD_TYPE=Release >/dev/null
      cmake --build build-release -j "$JOBS"
      # 1+N group lane (docs/GROUPS.md): exhaustively enumerate the
      # three-host promotion-race window (leader crash, and leader+rank-1
      # crashing at the same instant), then sweep 64 simultaneous
      # double-failure schedules at N=3 — every one must be masked — and
      # re-run them at N=2, where every leader-involving schedule must
      # FAIL (the negative control proves the sweep measures redundancy).
      # Group reintegration (rejoin at lowest rank, second failure during
      # snapshot) rides along, and so does a follower's app hang: the leader
      # must convict the hung follower on its own progress even while
      # another follower keeps up.
      ./build-release/tests/integration_explore_test \
        --gtest_filter='ExploreGroupTest.*'
      STTCP_MULTI_SEEDS=64 STTCP_MULTI_NEG_SEEDS=32 \
        ./build-release/tests/integration_multi_failure_test \
        --gtest_filter='*Sweep*:*NegativeControl*'
      ./build-release/tests/sttcp_reintegration_test \
        --gtest_filter='GroupReintegrationTest.*'
      ./build-release/tests/integration_app_crash_test \
        --gtest_filter='AppCrashTest.Group*'
      ;;
    --scale)
      cmake -B build-release -DCMAKE_BUILD_TYPE=Release >/dev/null
      cmake --build build-release -j "$JOBS"
      # Churn smoke: reduced load sweep + a 400-client closed-loop churn
      # with a mid-run primary crash; exits non-zero on any invariant
      # violation (client-visible RST, corrupt stream, memory bound).
      ./build-release/bench/bench_capacity --quick
      ;;
    --shard)
      cmake -B build-release -DCMAKE_BUILD_TYPE=Release >/dev/null
      cmake --build build-release -j "$JOBS"
      # Fabric smoke: 4 ST-TCP cells behind one router, closed-loop churn,
      # router killed and one shard partitioned mid-run. Exits non-zero on
      # any client-visible reset, corrupt stream, or spurious takeover.
      ./build-release/bench/bench_fabric --quick
      ;;
    --app)
      cmake -B build-release -DCMAKE_BUILD_TYPE=Release >/dev/null
      cmake --build build-release -j "$JOBS"
      # Block-store application lane (docs/APPLICATION.md): 200 seeded
      # chaos runs crashing either node at a random point — half of the
      # schedules aimed into the cache-writeback window — every response
      # byte checked against the client oracles (zero RSTs, zero
      # mismatches), then the warm/cold-cache failover latency ablation.
      STTCP_BLOCK_SEEDS=200 \
        ./build-release/tests/integration_block_failover_test \
        --gtest_filter='*Sweep*'
      ./build-release/bench/bench_blockstore --quick
      ;;
    --stbench)
      # run.py builds its own Release tree (.bench_build/) and gates each
      # run on correctness and determinism; the last stdout line is the
      # JSON verdict.
      for w in bulk churn blockstore ring; do
        last="$(python3 stbench/run.py --workload "$w" --seed 1 --seconds 1 --trace 0 | tail -n 1)"
        echo "stbench $w: $last"
        python3 -c 'import json, sys; sys.exit(0 if json.loads(sys.argv[1])["correct"] is True else 1)' "$last" ||
          { echo "stbench: $w did not report correct" >&2; exit 1; }
      done
      ;;
    --same=*)
      rev="${arg#--same=}"
      cmake -B build-release -DCMAKE_BUILD_TYPE=Release >/dev/null
      cmake --build build-release -j "$JOBS"
      rm -rf build-same
      git worktree prune
      git worktree add --detach build-same/tree "$rev" >/dev/null
      cmake -S build-same/tree -B build-same/build -DCMAKE_BUILD_TYPE=Release >/dev/null
      cmake --build build-same/build -j "$JOBS"
      same_outputs build-same/build build-same/base
      same_outputs build-release build-same/head
      same_stbench build-same/tree "$PWD/build-same/bench" build-same/base
      same_stbench . "$PWD/.bench_build" build-same/head
      git worktree remove --force build-same/tree
      if ! diff -r build-same/base build-same/head; then
        echo "check.sh --same: outputs differ from $rev" >&2
        exit 1
      fi
      echo "check.sh --same: outputs identical to $rev"
      ;;
    *)
      echo "unknown option: $arg" >&2
      exit 2
      ;;
  esac
done

echo "check.sh: all green"
