#!/usr/bin/env bash
# verify.sh — the repo's tier-1 gate plus the concurrency checks.
#
# 1. go build ./...          — everything compiles
# 2. go vet ./...            — stdlib static sanity, hardened flag set
# 3. ivnlint ./...           — domain lint suite: determinism, pool
#                              discipline, float comparisons, goroutine
#                              hygiene, discarded errors, physical-unit
#                              consistency, static hot-path alloc-freedom;
#                              set IVNLINT_REPORT=<path> to also write the
#                              machine-readable JSON report (CI uploads it
#                              as a build artifact)
# 4. go test ./...           — unit + golden + determinism + lint fixtures
# 5. go test -race <pkgs>    — the packages with parallel trial loops and
#                              shared scratch pools, under the race detector
# 5b. record-log fuzz       — FuzzRecordLog for a short fixed time: the
#                              JSONL scanner, the shard-fragment loader
#                              and the merge coverage check on arbitrary
#                              bytes (the committed corpus already
#                              replays in stage 4)
# 6. faultmatrix smoke       — the fault-injection experiment end to end:
#                              injector, recovery stack, paired ablation
# 6b. population smoke       — the N=1000 event-channel inventory end to
#                              end: adaptive-Q convergence through
#                              session.EventChannel in seconds, proving
#                              the fidelity switch stays CI-fast
# 7. json smoke              — `ivnsim -run all -json` piped through the
#                              jsonsmoke parser: every experiment must emit
#                              a structurally complete typed result with
#                              numeric cell payloads
# 8. trace smoke             — `ivnsim -run fig12 -trace` at two worker
#                              counts: the JSONL event streams must be
#                              byte-identical and pass the tracesmoke
#                              validator (well-formed events, monotone
#                              per-span sim clock)
# 9. renderer equivalence    — the Fig9/Fig13 tables (the batched
#                              scratch-path experiments) plus the
#                              population/adaptiveq tables (the
#                              event-channel trial loops) rendered at
#                              -parallel 1 and -parallel 4 must be
#                              byte-identical: per-worker kit state must
#                              never leak into results
# 9b. shard smoke            — the distributed-sweep seam end to end with
#                              the real binary: shard 0/2 + 1/2 into
#                              journals, -merge, byte-diff all three
#                              renderings against the single-process run;
#                              then SIGKILL a sharded run mid-flight and
#                              -resume it, asserting journaled trials
#                              replay instead of re-executing
# 10. daemon smoke           — ivnsimd end to end on an ephemeral port:
#                              POST a quick run, poll to completion, the
#                              served result must be byte-identical to
#                              `ivnsim -json`, a second identical POST
#                              must be a cache hit, DELETE must cancel,
#                              and SIGTERM must drain cleanly
#
# Stages run fail-fast: the first failing stage stops the script with a
# FAIL banner naming the stage, so CI logs point at the culprit directly.
set -uo pipefail
cd "$(dirname "$0")/.."

stage() {
  local name="$1"
  shift
  echo "== ${name} =="
  if ! "$@"; then
    echo "-- FAIL: ${name} --" >&2
    exit 1
  fi
}

stage "go build" go build ./...

# -unusedresult's default function list misses the fmt.Sprint family when
# the result feeds nothing; keep the default checks and add the stricter
# composite/copylock coverage explicitly so a future vet default change
# cannot silently drop them.
stage "go vet" go vet -copylocks -composites -unusedresult ./...

ivnlint_stage() {
  # With IVNLINT_REPORT set, emit the JSON report object (findings,
  # analyzer list, cache hit/miss counts) for artifact upload; the exit
  # status still gates the stage. Text mode otherwise.
  if [ -n "${IVNLINT_REPORT:-}" ]; then
    go run ./cmd/ivnlint -json ./... > "${IVNLINT_REPORT}"
  else
    go run ./cmd/ivnlint ./...
  fi
}
stage "ivnlint" ivnlint_stage

stage "go test" go test ./...

stage "go test -race (parallel trial paths)" \
  go test -race . ./internal/engine/ ./internal/ivnsim/ ./internal/pool/ ./internal/phasor/ \
  ./internal/dsp/ ./internal/fault/ ./internal/gen2/ ./internal/session/ ./internal/link/ \
  ./internal/service/

# Two fuzz workers keep the stage light on shared CI runners.
stage "record-log fuzz" \
  go test -run '^$' -fuzz '^FuzzRecordLog$' -fuzztime 10s -parallel 2 ./internal/ivnsim/runspec/

stage "faultmatrix smoke" \
  go run ./cmd/ivnsim -run faultmatrix -quick -seed 2

stage "population smoke (N=1000 event channel)" \
  go run ./cmd/ivnsim -run adaptiveq -quick -seed 2

json_smoke() {
  go run ./cmd/ivnsim -run all -quick -seed 2 -json | go run ./scripts/jsonsmoke
}
stage "json smoke" json_smoke

# A RETURN trap would linger after the function returns and fire on every
# later function return (where the local $dir no longer exists under
# set -u), so the smoke stages clean their temp dirs up explicitly.
trace_smoke() {
  local dir rc=1
  dir="$(mktemp -d)" || return 1
  go run ./cmd/ivnsim -run fig12 -quick -seed 2 -parallel 1 -trace "$dir/trace-p1.jsonl" >/dev/null &&
    go run ./cmd/ivnsim -run fig12 -quick -seed 2 -parallel 4 -trace "$dir/trace-p4.jsonl" >/dev/null &&
    { cmp "$dir/trace-p1.jsonl" "$dir/trace-p4.jsonl" || { echo "trace files differ across -parallel" >&2; false; }; } &&
    go run ./scripts/tracesmoke < "$dir/trace-p1.jsonl" && rc=0
  rm -rf "$dir"
  return "$rc"
}
stage "trace smoke" trace_smoke

renderer_equiv() {
  local dir id rc=0
  dir="$(mktemp -d)" || return 1
  for id in fig9 fig13c population adaptiveq; do
    # -json keeps stdout free of the wall-clock footer the text renderer adds.
    go run ./cmd/ivnsim -run "$id" -quick -seed 2 -parallel 1 -json > "$dir/$id-p1.json" 2>/dev/null || { rc=1; break; }
    go run ./cmd/ivnsim -run "$id" -quick -seed 2 -parallel 4 -json > "$dir/$id-p4.json" 2>/dev/null || { rc=1; break; }
    cmp "$dir/$id-p1.json" "$dir/$id-p4.json" || { echo "$id tables differ across -parallel" >&2; rc=1; break; }
  done
  rm -rf "$dir"
  return "$rc"
}
stage "renderer equivalence" renderer_equiv

shard_smoke() {
  local dir rc=1
  dir="$(mktemp -d)" || return 1
  # A built binary (not `go run`) so shardsmoke's SIGKILL lands on
  # ivnsim itself.
  if go build -o "$dir/ivnsim" ./cmd/ivnsim && go run ./scripts/shardsmoke -bin "$dir/ivnsim"; then
    rc=0
  fi
  rm -rf "$dir"
  return "$rc"
}
stage "shard smoke" shard_smoke

daemon_smoke() {
  local dir rc=1 addr pid i
  dir="$(mktemp -d)" || return 1
  if ! go build -o "$dir/ivnsimd" ./cmd/ivnsimd; then rm -rf "$dir"; return 1; fi
  # The reference bytes the daemon must serve verbatim (same spec as
  # daemonsmoke's smokeSpec).
  if ! go run ./cmd/ivnsim -run fig9 -seed 2 -quick -json > "$dir/fig9.json" 2>/dev/null; then
    rm -rf "$dir"; return 1
  fi
  "$dir/ivnsimd" -addr 127.0.0.1:0 > "$dir/out.log" 2> "$dir/err.log" &
  pid=$!
  addr=""
  for i in $(seq 1 100); do
    addr="$(awk '/listening on/{print $NF}' "$dir/out.log" 2>/dev/null)"
    [ -n "$addr" ] && break
    kill -0 "$pid" 2>/dev/null || break
    sleep 0.1
  done
  if [ -z "$addr" ]; then
    echo "ivnsimd never reported a listen address" >&2
    cat "$dir/err.log" >&2
    kill "$pid" 2>/dev/null
    rm -rf "$dir"
    return 1
  fi
  if go run ./scripts/daemonsmoke -addr "http://$addr" -cli "$dir/fig9.json"; then
    # Clean SIGTERM drain is part of the contract: the process must exit
    # 0 by itself within the drain window.
    kill -TERM "$pid" && wait "$pid" && rc=0
    [ "$rc" -eq 0 ] || { echo "ivnsimd did not drain cleanly on SIGTERM" >&2; cat "$dir/err.log" >&2; }
  else
    kill "$pid" 2>/dev/null
    wait "$pid" 2>/dev/null
  fi
  rm -rf "$dir"
  return "$rc"
}
stage "daemon smoke" daemon_smoke

echo "verify: OK"
