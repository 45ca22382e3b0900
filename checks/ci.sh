#!/usr/bin/env bash
# Repo CI gate. Run from the repo root:
#
#   ./checks/ci.sh                  # format + lints + tier-1 build/test + gates
#   ./checks/ci.sh --quick          # skip the release build (debug test only)
#   ./checks/ci.sh --write-budgets  # full run, then refresh checks/{pass,delta}_budgets.json
#
# Everything runs offline against the vendored crates; no network.
set -euo pipefail
cd "$(dirname "$0")/.."

quick=false
write_budgets=false
[[ "${1:-}" == "--quick" ]] && quick=true
[[ "${1:-}" == "--write-budgets" ]] && write_budgets=true

echo "==> cargo fmt --check"
cargo fmt --all -- --check

echo "==> cargo clippy (deny warnings)"
cargo clippy --offline --workspace --all-targets -- -D warnings

echo "==> cargo doc (deny broken and private intra-doc links)"
# First-party crates only: the vendored stand-ins are out of scope.
RUSTDOCFLAGS="-D rustdoc::broken-intra-doc-links -D rustdoc::private_intra_doc_links" \
  cargo doc --offline --no-deps -q \
  -p lcmm -p lcmm-graph -p lcmm-fpga -p lcmm-core -p lcmm-sim -p lcmm-multi -p lcmm-workload \
  -p lcmm-serve

if $quick; then
  echo "==> cargo test (debug)"
  cargo test --offline --workspace -q
else
  echo "==> tier-1: cargo build --release && cargo test -q"
  cargo build --offline --release
  cargo test --offline -q

  # The root manifest's default members are only the `lcmm` package, so
  # the tier-1 step above skips every crate's unit tests and the crate
  # suites (serve, core props, multi, workload). Run them all here too.
  echo "==> cargo test --workspace"
  cargo test --offline --workspace -q

  # Benchmark smoke: every servebench workload in both trace modes for
  # one second on a held-out seed, with the correctness gate and every
  # declared metric checked (servebench/README.md, "Tests").
  echo "==> servebench smoke"
  cargo build --offline --release -p lcmm-cli
  LCMM_BIN=target/release/lcmm cargo test --offline --release --manifest-path servebench/Cargo.toml
fi

echo "==> determinism: report output must be byte-identical across --jobs"
bin=target/debug/lcmm
[[ -x "$bin" ]] || cargo build --offline -p lcmm-cli
for cmd in summary table1 fig8; do
  "$bin" "$cmd" --jobs 1 >/tmp/ci_j1.out 2>/dev/null
  "$bin" "$cmd" --jobs 4 >/tmp/ci_j4.out 2>/dev/null
  if ! cmp -s /tmp/ci_j1.out /tmp/ci_j4.out; then
    echo "FAIL: '$cmd' output differs between --jobs 1 and --jobs 4" >&2
    exit 1
  fi
done

echo "==> differential audit: grid + repro corpus + 8 random seeds + tiny-SRAM streaming + fused plans"
"$bin" audit --seeds 8 --tiny-sram 4 --fusion 2 --json >/tmp/ci_audit.out 2>/dev/null

# AutoWS gate: the budget-sweep study must be byte-identical across
# --jobs and match its goldens. Two skewed (tiny) budgets cover one
# weight-heavy model where streaming wins (alexnet) and one that fits
# on chip where streaming must change nothing (squeezenet). The full
# zoo at the default fractions pins every net's Off plan
# (`pinned_latency`) and Auto plan (`streaming_latency`). See
# docs/STREAMING.md. The same fractions descending replan each budget
# from the buffer sets and DNNK tables the wider ones stored; its golden
# holds the same records as sweep_budgets_3, in its own order. An
# ascending sweep backtracks too once a key's table is refilled: a
# refill runs at twice the stored width (docs/DELTA.md). The default
# fractions double at each step, so there each refill is exactly the
# next budget; the ascending sweep that does not double
# (sweep_budgets_5, written before refills grew) pins that the wider
# refills change no record.
echo "==> sweep-budgets: skewed budgets and the full zoo vs checks/golden across --jobs"
sweep_sets=(
  "--model alexnet --fractions 1/16,1/8"
  "--model squeezenet --fractions 1/16,1/8"
  ""
  "--fractions 1/1,1/2,1/4,1/8,1/16"
  "--fractions 1/12,1/9,1/7,1/5,1/3,1/2,1/1"
)
sweep_i=0
for sweep_set in "${sweep_sets[@]}"; do
  sweep_i=$((sweep_i + 1))
  read -ra sweep_sel <<<"$sweep_set"
  sweep_args=(sweep-budgets "${sweep_sel[@]}" --json)
  "$bin" "${sweep_args[@]}" --jobs 1 >/tmp/ci_sweep_j1.json 2>/dev/null
  "$bin" "${sweep_args[@]}" --jobs 4 >/tmp/ci_sweep_j4.json 2>/dev/null
  if ! cmp -s /tmp/ci_sweep_j1.json /tmp/ci_sweep_j4.json; then
    echo "FAIL: '${sweep_args[*]}' differs between --jobs 1 and --jobs 4" >&2
    exit 1
  fi
  if ! cmp -s /tmp/ci_sweep_j1.json "checks/golden/sweep_budgets_$sweep_i.json"; then
    echo "FAIL: '${sweep_args[*]}' differs from checks/golden/sweep_budgets_$sweep_i.json" >&2
    diff "checks/golden/sweep_budgets_$sweep_i.json" /tmp/ci_sweep_j1.json >&2 || true
    exit 1
  fi
done

# Pass-counter gate: the deterministic `PassStats` counters that
# `--profile` prints (DP cells, gain-cache traffic, table hits, split
# outcomes) must match their goldens once the wall-clock `*_seconds`
# lines are dropped. table1 runs 9 one-shot plans; the descending sweep
# replays 110 budgets on cached artifact sets, 88 of them backtracking
# from stored DNNK tables; the ascending sweep that does not double
# replays 154, whose 265 DP runs include refills at twice the stored
# width and whose 61 table hits are budgets those refills answer.
# --jobs 1 only: at --jobs 4, runs sharing an artifact set race for its
# tables, so table hits and DP cells vary.
echo "==> pass counters: --profile vs checks/golden/profile_{1,2,3}.json"
profile_sets=(
  "table1"
  "sweep-budgets --fractions 1/1,1/2,1/4,1/8,1/16 --json"
  "sweep-budgets --fractions 1/12,1/9,1/7,1/5,1/3,1/2,1/1 --json"
)
profile_i=0
for profile_set in "${profile_sets[@]}"; do
  profile_i=$((profile_i + 1))
  read -ra profile_args <<<"$profile_set"
  golden="checks/golden/profile_$profile_i.json"
  "$bin" "${profile_args[@]}" --jobs 1 --profile 2>&1 >/dev/null |
    grep -v '_seconds"' >/tmp/ci_profile.json
  if ! cmp -s /tmp/ci_profile.json "$golden"; then
    echo "FAIL: '${profile_args[*]} --profile' counters differ from $golden" >&2
    diff "$golden" /tmp/ci_profile.json >&2 || true
    exit 1
  fi
done

# Fusion gate: the fused-layer study on the shortcut-heavy zoo models
# at a 1/8× budget must be byte-identical across --jobs and match its
# golden — the golden locks in cells where fusion strictly reduces both
# latency and transfer time (see docs/FUSION.md).
echo "==> sweep-fusion: 1/8x budget vs checks/golden/fusion_1.json across --jobs"
for jobs in 1 4; do
  {
    "$bin" sweep-fusion --model resnet50 --fractions 1/8 --json --jobs "$jobs"
    "$bin" sweep-fusion --model mobilenet --fractions 1/8 --json --jobs "$jobs"
  } >"/tmp/ci_fusion_j$jobs.json" 2>/dev/null
done
if ! cmp -s /tmp/ci_fusion_j1.json /tmp/ci_fusion_j4.json; then
  echo "FAIL: 'sweep-fusion' output differs between --jobs 1 and --jobs 4" >&2
  exit 1
fi
if ! cmp -s /tmp/ci_fusion_j1.json checks/golden/fusion_1.json; then
  echo "FAIL: sweep-fusion differs from checks/golden/fusion_1.json" >&2
  diff checks/golden/fusion_1.json /tmp/ci_fusion_j1.json >&2 || true
  exit 1
fi

# Multi-tenant gate: co-plan a 2- and a 3-tenant set through the split
# search at --jobs 1 and 4 and diff each summary against its golden
# (deterministic by design — docs/MULTI.md). multi_2.json was written
# by planning every grid point from scratch, so the 3-tenant set also
# pins delta replay to scratch planning (see docs/DELTA.md).
echo "==> multi: co-plans vs checks/golden/multi_{1,2}.json across --jobs"
multi_sets=("mobilenet,alexnet 4" "mobilenet,alexnet,squeezenet 6")
multi_i=0
for multi_set in "${multi_sets[@]}"; do
  multi_i=$((multi_i + 1))
  read -r models steps <<<"$multi_set"
  golden="checks/golden/multi_$multi_i.json"
  for jobs in 1 4; do
    "$bin" multi --models "$models" --steps "$steps" --json --jobs "$jobs" \
      >/tmp/ci_multi.json 2>/dev/null
    if ! cmp -s /tmp/ci_multi.json "$golden"; then
      echo "FAIL: multi $models (steps $steps, jobs $jobs) differs from $golden" >&2
      diff "$golden" /tmp/ci_multi.json >&2 || true
      exit 1
    fi
  done
done

# Workload smoke gate: the trace-driven traffic simulation on the
# builtin anti-phase bursty2 trace must be byte-identical across
# --jobs, match its golden, and show the adaptive controller strictly
# beating the best static share (see docs/WORKLOAD.md).
echo "==> workload smoke: bursty2 vs checks/golden/workload_1.json across --jobs"
workload_args=(workload --models mobilenet,alexnet --steps 4 --json)
"$bin" "${workload_args[@]}" --jobs 1 >/tmp/ci_workload_j1.json 2>/dev/null
"$bin" "${workload_args[@]}" --jobs 4 >/tmp/ci_workload_j4.json 2>/dev/null
if ! cmp -s /tmp/ci_workload_j1.json /tmp/ci_workload_j4.json; then
  echo "FAIL: 'workload' output differs between --jobs 1 and --jobs 4" >&2
  exit 1
fi
if ! cmp -s /tmp/ci_workload_j1.json checks/golden/workload_1.json; then
  echo "FAIL: workload report differs from checks/golden/workload_1.json" >&2
  diff checks/golden/workload_1.json /tmp/ci_workload_j1.json >&2 || true
  exit 1
fi
if ! grep -q '"controller_beats_best_static": true' /tmp/ci_workload_j1.json; then
  echo "FAIL: the adaptive controller no longer beats the best static share" >&2
  exit 1
fi

# Controller-off gate: three tenants on an inline burst/Poisson/diurnal
# trace. With the controller off the reported run is the best static
# share's, and each grid point's capacity split runs a middle stage of
# the joint DP, two paths workload_1 does not reach.
echo "==> workload controller off: 3 tenants vs checks/golden/workload_2.json across --jobs"
workload_args=(workload --models mobilenet,alexnet,squeezenet --steps 6
  --trace 'burst:20:400:0.5:0.45;poisson:150;diurnal:50/300/50@slo=0.02' --controller off --json)
for jobs in 1 4; do
  "$bin" "${workload_args[@]}" --jobs "$jobs" >/tmp/ci_workload.json 2>/dev/null
  if ! cmp -s /tmp/ci_workload.json checks/golden/workload_2.json; then
    echo "FAIL: workload (controller off, jobs $jobs) differs from checks/golden/workload_2.json" >&2
    diff checks/golden/workload_2.json /tmp/ci_workload.json >&2 || true
    exit 1
  fi
done

# Protocol-compat gate: every pre-versioning request form must answer
# byte-identically under the frozen v1 surface (docs/SERVE.md,
# "Versioning"). The corpus lives in crates/serve/tests.
echo "==> protocol compat: frozen v1 surface corpus"
cargo test --offline -q -p lcmm-serve --test protocol_compat

# Serve smoke gate: boot the daemon on an ephemeral port, issue five
# plan requests through the one-shot client, and diff the responses
# against checks/golden/ (plan payloads are deterministic by design —
# see docs/SERVE.md). A second round of the same requests must then be
# byte-stable cache hits.
echo "==> serve smoke: daemon + requests vs checks/golden"
rm -f /tmp/ci_serve.out
"$bin" serve --listen 127.0.0.1:0 --workers 2 --debug-hooks >/tmp/ci_serve.out 2>/dev/null &
serve_pid=$!
addr=""
for _ in $(seq 1 100); do
  addr=$(awk '/^listening /{print $2; exit}' /tmp/ci_serve.out 2>/dev/null || true)
  [[ -n "$addr" ]] && break
  sleep 0.1
done
if [[ -z "$addr" ]]; then
  echo "FAIL: serve daemon never reported a listening address" >&2
  kill "$serve_pid" 2>/dev/null || true
  exit 1
fi
# googlenet at the full budget first, so that serve_5 (googlenet at a
# 4 MiB budget) backtracks from the DNNK table that plan stored; its
# golden was generated by a build that ran a fresh DP for it.
"$bin" request --connect "$addr" '{"graph":"googlenet"}' >/tmp/ci_serve_req.out
if ! grep -q '"ok":true' /tmp/ci_serve_req.out; then
  echo "FAIL: full-budget googlenet plan failed" >&2
  cat /tmp/ci_serve_req.out >&2
  kill "$serve_pid" 2>/dev/null || true
  exit 1
fi
serve_reqs=(
  '{"graph":"alexnet","precision":"8"}'
  '{"graph":"googlenet","allocator":"greedy"}'
  '{"graph":"synthetic:64x3x7","options":{"splitting":false}}'
  '{"graph":"alexnet","options":{"weight_streaming":"auto","tensor_budget":1048576}}'
  '{"graph":"googlenet","options":{"tensor_budget":4194304}}'
)
i=0
for req in "${serve_reqs[@]}"; do
  i=$((i + 1))
  "$bin" request --connect "$addr" "$req" >/tmp/ci_serve_req.out
  if ! cmp -s /tmp/ci_serve_req.out "checks/golden/serve_$i.json"; then
    echo "FAIL: serve response $i differs from checks/golden/serve_$i.json" >&2
    diff "checks/golden/serve_$i.json" /tmp/ci_serve_req.out >&2 || true
    kill "$serve_pid" 2>/dev/null || true
    exit 1
  fi
done
# Every request again: each must now be a plan-cache hit whose reply is
# its golden with only the flag changed to "cached":true (hits splice
# the stored plan bytes into the reply).
i=0
for req in "${serve_reqs[@]}"; do
  i=$((i + 1))
  "$bin" request --connect "$addr" "$req" >/tmp/ci_serve_dup.out
  sed 's/^{"cached":false,/{"cached":true,/' "checks/golden/serve_$i.json" >/tmp/ci_serve_hit.json
  if ! cmp -s /tmp/ci_serve_dup.out /tmp/ci_serve_hit.json; then
    echo "FAIL: repeated serve request $i is not checks/golden/serve_$i.json as a cache hit" >&2
    diff /tmp/ci_serve_hit.json /tmp/ci_serve_dup.out >&2 || true
    kill "$serve_pid" 2>/dev/null || true
    exit 1
  fi
done
# Each of those eleven plans counts once, whichever thread answered it:
# the four zoo repeats are hits answered at admission, the synthetic
# one a hit answered by a worker.
"$bin" request --connect "$addr" --op stats >/tmp/ci_serve_stats.out
for want in '"cache":{[^}]*"hits":5,[^}]*"misses":6}' '"requests":{[^}]*"total":11}'; do
  if ! grep -q "$want" /tmp/ci_serve_stats.out; then
    echo "FAIL: serve stats after the smoke requests do not match $want" >&2
    cat /tmp/ci_serve_stats.out >&2
    kill "$serve_pid" 2>/dev/null || true
    exit 1
  fi
done

# Registry invalidation gate: a cached co-plan must be recomputed once
# the tenant set changes, and a co-plan recomputed after churn must be
# byte-identical to the first one computed for the same tenant set.
echo "==> serve registry: registering a tenant invalidates the co-plan cache"
serve_expect() { # <pattern> <request-json>
  "$bin" request --connect "$addr" "$2" >/tmp/ci_serve_multi.out
  if ! grep -q "$1" /tmp/ci_serve_multi.out; then
    echo "FAIL: expected $1 answering $2" >&2
    cat /tmp/ci_serve_multi.out >&2
    kill "$serve_pid" 2>/dev/null || true
    exit 1
  fi
}
serve_expect '"models":1' '{"op":"register","model":"axn","graph":"alexnet","share":0.4}'
serve_expect '"models":2' '{"op":"register","model":"sqz","graph":"squeezenet","share":0.4}'
serve_expect '"cached":false' '{"op":"coplan"}'
cp /tmp/ci_serve_multi.out /tmp/ci_serve_coplan.out
serve_expect '"cached":true' '{"op":"coplan"}'
serve_expect '"model":"sqz"' '{"op":"route","model":"sqz"}'
serve_expect '"models":3' '{"op":"register","model":"mbn","graph":"mobilenet","share":0.2}'
serve_expect '"cached":false' '{"op":"coplan"}'
# Dropping sqz reclaims the {axn, sqz} entry; registering it again
# recomputes that co-plan on the daemon's retained planning state.
serve_expect '"models":2' '{"op":"unregister","model":"mbn"}'
serve_expect '"models":1' '{"op":"unregister","model":"sqz"}'
serve_expect '"models":2' '{"op":"register","model":"sqz","graph":"squeezenet","share":0.4}'
serve_expect '"cached":false' '{"op":"coplan"}'
if ! cmp -s /tmp/ci_serve_coplan.out /tmp/ci_serve_multi.out; then
  echo "FAIL: co-plan recomputed after registry churn differs from the first one" >&2
  diff /tmp/ci_serve_coplan.out /tmp/ci_serve_multi.out >&2 || true
  kill "$serve_pid" 2>/dev/null || true
  exit 1
fi

# Panic containment: an injected worker panic must surface as a typed
# internal_error and leave the daemon fully serviceable (the request
# client exits nonzero on error responses — that is the expected path).
echo "==> serve panic containment: injected panic leaves the daemon alive"
"$bin" request --connect "$addr" '{"graph":"debug:panic"}' >/tmp/ci_serve_panic.out 2>/dev/null || true
if ! grep -q '"code":"internal_error"' /tmp/ci_serve_panic.out; then
  echo "FAIL: injected panic did not answer with internal_error" >&2
  cat /tmp/ci_serve_panic.out >&2
  kill "$serve_pid" 2>/dev/null || true
  exit 1
fi
serve_expect '"ok":true' '{"graph":"alexnet","precision":"8"}'
# That cached plan is answered at admission, without a worker; a plan
# at a budget not planned yet needs one, so it proves a worker survived.
serve_expect '"cached":false' '{"graph":"alexnet","precision":"8","options":{"tensor_budget":2097152}}'
serve_expect '"cached":true' '{"op":"coplan"}'

"$bin" request --connect "$addr" --op shutdown >/dev/null
wait "$serve_pid"

# Recovery smoke gate: a WAL-backed daemon is SIGKILLed mid-churn and
# restarted on the same --wal-dir; the revived daemon must serve the
# byte-identical cached co-plan reply and the same registry without any
# recomputation (see docs/SERVE.md, "Durability and recovery").
echo "==> serve recovery: SIGKILL + WAL restart replays bit-identically"
wal_dir=$(mktemp -d /tmp/ci_serve_wal.XXXXXX)
boot_wal_daemon() { # <log-file>; sets addr + serve_pid
  rm -f "$1"
  "$bin" serve --listen 127.0.0.1:0 --workers 2 --wal-dir "$wal_dir" >"$1" 2>/dev/null &
  serve_pid=$!
  addr=""
  for _ in $(seq 1 100); do
    addr=$(awk '/^listening /{print $2; exit}' "$1" 2>/dev/null || true)
    [[ -n "$addr" ]] && break
    sleep 0.1
  done
  if [[ -z "$addr" ]]; then
    echo "FAIL: WAL daemon never reported a listening address" >&2
    kill "$serve_pid" 2>/dev/null || true
    exit 1
  fi
}
boot_wal_daemon /tmp/ci_serve_wal1.out
serve_expect '"models":1' '{"op":"register","model":"axn","graph":"alexnet","share":0.5}'
serve_expect '"models":2' '{"op":"register","model":"sqz","graph":"squeezenet","share":0.5}'
serve_expect '"cached":false' '{"op":"coplan"}'
"$bin" request --connect "$addr" '{"op":"coplan"}' >/tmp/ci_serve_golden.out
if ! grep -q '"cached":true' /tmp/ci_serve_golden.out; then
  echo "FAIL: pre-kill co-plan was not a cache hit" >&2
  kill -9 "$serve_pid" 2>/dev/null || true
  exit 1
fi
{ kill -9 "$serve_pid" && wait "$serve_pid"; } 2>/dev/null || true
boot_wal_daemon /tmp/ci_serve_wal2.out
"$bin" request --connect "$addr" '{"op":"coplan"}' >/tmp/ci_serve_revived.out
if ! cmp -s /tmp/ci_serve_golden.out /tmp/ci_serve_revived.out; then
  echo "FAIL: revived co-plan reply differs from the pre-kill golden" >&2
  diff /tmp/ci_serve_golden.out /tmp/ci_serve_revived.out >&2 || true
  kill "$serve_pid" 2>/dev/null || true
  exit 1
fi
if ! grep -q '"cached":true' /tmp/ci_serve_revived.out; then
  echo "FAIL: revived co-plan recomputed instead of replaying the WAL" >&2
  kill "$serve_pid" 2>/dev/null || true
  exit 1
fi
serve_expect '"models":2' '{"op":"stats"}'
"$bin" request --connect "$addr" --op shutdown >/dev/null
wait "$serve_pid"
rm -rf "$wal_dir"

if ! $quick; then
  # Pass-budget gate: the pipeline's per-pass wall clock on a
  # thousand-node synthetic graph must stay inside
  # checks/pass_budgets.json (see docs/PERF.md). Budgets are refreshed
  # with --write-budgets after a deliberate performance change.
  mode="--check"
  $write_budgets && mode="--write-budgets"
  echo "==> pass budgets (scaling_passes $mode)"
  cargo bench --offline -p lcmm-bench --bench scaling_passes -- "$mode"
  echo "==> delta budgets (delta_replan $mode)"
  cargo bench --offline -p lcmm-bench --bench delta_replan -- "$mode"
fi

echo "CI green."
