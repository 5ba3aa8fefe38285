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
# 4. go test <pkgs>          — unit + golden + determinism + lint fixtures,
#                              every package but e2e (stage 6 runs it)
# 5. go test -race <pkgs>    — the packages with parallel trial loops and
#                              shared scratch pools, under the race detector
# 5b. record-log fuzz       — FuzzRecordLog for a short fixed time: the
#                              JSONL scanner, the shard-fragment loader
#                              and the merge coverage check on arbitrary
#                              bytes (the committed corpus already
#                              replays in stage 4)
# 5c. indexed-broadcast fuzz — FuzzIndexedBroadcast for a short fixed
#                              time: random command scripts through the
#                              gen2 population index against
#                              HandleCommand on every tag, requiring the
#                              same replies, reply order and tag state
# 6. end-to-end              — go test ./e2e/: builds ivnsim and ivnsimd
#                              once and drives the real binaries: quick
#                              faultmatrix/adaptiveq runs, complete -json
#                              results, -trace and -json byte-identical at
#                              -parallel 1 and 4, shard + merge and
#                              SIGKILL + -resume equal to the
#                              single-process run, and the daemon serving
#                              the CLI's bytes, hitting its cache,
#                              cancelling and draining on SIGTERM. Run
#                              uncached: the test cache cannot see the
#                              cmd/ sources the binaries are built from
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

# e2e builds and drives the binaries; stage 6 runs it once, uncached.
pkgs="$(go list ./... | grep -v '/e2e$')" || { echo "-- FAIL: go list --" >&2; exit 1; }
# shellcheck disable=SC2086 # one package path per word
stage "go test" go test ${pkgs}

stage "go test -race (parallel trial paths)" \
  go test -race . ./internal/engine/ ./internal/ivnsim/ ./internal/pool/ ./internal/phasor/ \
  ./internal/dsp/ ./internal/fault/ ./internal/gen2/ ./internal/session/ ./internal/link/ \
  ./internal/service/

# Two fuzz workers keep the stage light on shared CI runners.
stage "record-log fuzz" \
  go test -run '^$' -fuzz '^FuzzRecordLog$' -fuzztime 10s -parallel 2 ./internal/ivnsim/runspec/

stage "indexed-broadcast fuzz" \
  go test -run '^$' -fuzz '^FuzzIndexedBroadcast$' -fuzztime 10s -parallel 2 ./internal/gen2/

stage "end-to-end" go test -count=1 ./e2e/

echo "verify: OK"
