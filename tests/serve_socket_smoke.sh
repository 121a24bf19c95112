#!/usr/bin/env bash
# End-to-end socket serving smoke test, run by ctest in both the Release
# and ASan+UBSan CI jobs:
#
#   1. hmd_train writes two model families into a registry directory,
#      plus a replacement artifact kept outside it as swap material.
#   2. hmd_serve hosts them over TCP (--listen on an ephemeral port,
#      --refresh-ms=200, default load mode); the port is parsed from its
#      "listening on" line, and every load line must name its engine,
#      report zero-copy residency and a kernel backend.
#   3. hmd_client drives wire-protocol traffic with --verify: every
#      response must be bit-identical to a direct score() of the same
#      artifact — for the default detection mask, for the full estimate
#      mask under an explicit uncertainty mode, and for the second model
#      key (per-model routing).
#   4. An unknown model key must come back as typed error frames (client
#      exits 1), and the connection must survive to serve a valid
#      request afterwards (the client run itself proves this: errors are
#      counted, not fatal).
#   5. The RF artifact is overwritten mid-serve with the replacement
#      (temp file + rename publish). Within the refresh cadence a
#      --verify run against the NEW artifact must reach bit-parity —
#      proof the hot-swap landed and in-flight serving never broke.
#   6. SIGTERM: the server must drain, print its traffic/batcher/served
#      summaries, and exit 0.
#   7. Usage errors exit 2: no --listen, or a flag hmd_serve does not take.
#   8. Restart legs, each with verified traffic and a SIGTERM exit 0:
#      --mmap=off (load=stream, no zero-copy engines); --mmap=on with
#      --jit=on and with --jit=off (load=mmap, kernel jit or arena;
#      prediction-only and estimate masks); --batch-rows=1 (no
#      coalescing: every request scores as its own batch, pipelined
#      across 4 connections, detection and estimate masks).
#   9. A bit-flipped artifact (hmd_faultgen) is skipped at startup with a
#      typed checksum error while its healthy sibling keeps serving; with
#      every artifact corrupt, the server exits 3 before it listens.
#
# usage: serve_socket_smoke.sh <hmd_train> <hmd_serve> <hmd_client>
#                              <hmd_faultgen>
set -euo pipefail

train_bin=$1
serve_bin=$2
client_bin=$3
faultgen_bin=$4

workdir=$(mktemp -d serve_socket_smoke.XXXXXX)
server_pid=""
cleanup() {
  [ -n "$server_pid" ] && kill "$server_pid" 2>/dev/null || true
  rm -rf "$workdir"
}
trap cleanup EXIT

models="$workdir/models"
mkdir -p "$models"

common=(--dataset=dvfs --scale=0.1 --threads=1)

"$train_bin" "${common[@]}" --model=rf --members=5 \
    --out="$models/dvfs_RF_M5.hmdf"
"$train_bin" "${common[@]}" --model=lr --members=5 \
    --out="$models/dvfs_LR_M5.hmdf"
# Swap material: a different model *family* so its scores genuinely
# differ from the RF's (two RF ensembles can agree bit-for-bit on an
# easy slice, which would make the post-swap parity check vacuous).
# Lives outside the registry dir (no .hmdf suffix) so the scan never
# sees it.
"$train_bin" "${common[@]}" --model=svm --members=9 \
    --out="$workdir/replacement.artifact"

# start_server LOG ARGS...: run hmd_serve in the background and wait for
# its "listening on" line; sets server_pid and port.
start_server() {
  local log=$1
  shift
  "$serve_bin" --threads=1 --listen=127.0.0.1:0 "$@" >"$log" 2>&1 &
  server_pid=$!
  port=""
  for _ in $(seq 1 100); do
    port=$(grep -oP 'listening on 127\.0\.0\.1:\K[0-9]+' "$log" || true)
    [ -n "$port" ] && break
    kill -0 "$server_pid" 2>/dev/null || break
    sleep 0.1
  done
  [ -n "$port" ] || {
    echo "FAIL: server never reported its port" >&2
    cat "$log" >&2
    exit 1; }
}

# stop_server LOG: SIGTERM must drain the server and exit 0.
stop_server() {
  kill -TERM "$server_pid"
  local rc=0
  wait "$server_pid" || rc=$?
  server_pid=""
  cat "$1"
  [ "$rc" -eq 0 ] || {
    echo "FAIL: SIGTERM shutdown must exit 0, got $rc" >&2; exit 1; }
}

# verify KEY ARTIFACT [CLIENT_ARGS...]: traffic to KEY must be
# bit-identical to ARTIFACT.
verify() {
  local out rc=0
  out=$("$client_bin" --connect=127.0.0.1:"$port" "${common[@]}" --rows=4 \
      --model="$1" --requests=50 --verify="$2" "${@:3}") || rc=$?
  echo "$out"
  [ "$rc" -eq 0 ] && grep -q "parity   ok" <<<"$out" || {
    echo "FAIL: $1 traffic not bit-identical to $2 (exit $rc)" >&2; exit 1; }
}

start_server "$workdir/server.log" --models="$models" --refresh-ms=200

grep -q "serving  2 model(s)" "$workdir/server.log" || {
  echo "FAIL: expected 2 models from the registry" >&2; exit 1; }

# Every load line must name the kernel backend the engine selected
# (arena for these mmap-loaded bundles under the default --jit=auto
# policy, which never compiles; jit only under --jit=on;
# stream-fallback when zero-copy is unavailable).
for key in dvfs_RF_M5 dvfs_LR_M5; do
  grep -Eq "^model    $key +.*, kernel (jit|arena|stream-fallback)," \
      "$workdir/server.log" || {
    echo "FAIL: load line for $key does not report a kernel backend" >&2
    cat "$workdir/server.log" >&2
    exit 1; }
done
# Both families are served, each from its own engine, and the default
# load mode maps the artifacts: every engine must be zero-copy.
grep -Eq "^model    dvfs_RF_M5 .*engine flat_forest \(.*zero-copy\)" \
    "$workdir/server.log" || {
  echo "FAIL: RF family not served zero-copy" >&2; exit 1; }
grep -Eq "^model    dvfs_LR_M5 .*engine flat_linear_lr \(.*zero-copy\)" \
    "$workdir/server.log" || {
  echo "FAIL: LR family not served zero-copy" >&2; exit 1; }

connect=(--connect=127.0.0.1:"$port" "${common[@]}" --rows=4)

# Leg 1: detection mask, concurrent pipelined connections, bit-parity
# against the artifact being served.
out=$("$client_bin" "${connect[@]}" --model=dvfs_RF_M5 --requests=200 \
    --connections=4 --pipeline=2 --verify="$models/dvfs_RF_M5.hmdf")
echo "$out"
grep -q "parity   ok" <<<"$out" || {
  echo "FAIL: detection-mask traffic not bit-identical" >&2; exit 1; }

# Leg 2: full estimate mask under an explicit uncertainty mode.
out=$("$client_bin" "${connect[@]}" --model=dvfs_RF_M5 --requests=100 \
    --outputs=estimate --mode=soft_entropy \
    --verify="$models/dvfs_RF_M5.hmdf")
echo "$out"
grep -q "parity   ok" <<<"$out" || {
  echo "FAIL: estimate-mask traffic not bit-identical" >&2; exit 1; }

# Leg 2b: the same estimate-mask traffic on the fast accuracy tier. The
# --verify oracle is always exact-tier, so parity here means every
# response sat inside the documented ULP band (integer columns
# bit-identical) — the over-the-wire accuracy contract, end to end.
out=$("$client_bin" "${connect[@]}" --model=dvfs_RF_M5 --requests=100 \
    --outputs=estimate --mode=soft_entropy --accuracy=fast \
    --verify="$models/dvfs_RF_M5.hmdf")
echo "$out"
grep -q "parity   ok" <<<"$out" || {
  echo "FAIL: fast-tier traffic outside the contract band" >&2; exit 1; }
grep -q "accuracy=fast" <<<"$out" || {
  echo "FAIL: client did not report the fast tier" >&2; exit 1; }

# Leg 3: the other model key — per-model routing in the batcher.
out=$("$client_bin" "${connect[@]}" --model=dvfs_LR_M5 --requests=100 \
    --connections=2 --verify="$models/dvfs_LR_M5.hmdf")
echo "$out"
grep -q "parity   ok" <<<"$out" || {
  echo "FAIL: second model key not bit-identical" >&2; exit 1; }

# Leg 4: unknown model key -> typed error frames, client exit 1, and the
# server must keep running (checked right after).
rc=0
out=$("$client_bin" "${connect[@]}" --model=nope --requests=5) || rc=$?
echo "$out"
[ "$rc" -eq 1 ] || {
  echo "FAIL: unknown-model traffic must exit 1, got $rc" >&2; exit 1; }
grep -q "unknown-model" <<<"$out" || {
  echo "FAIL: expected typed unknown-model error frames" >&2; exit 1; }
kill -0 "$server_pid" 2>/dev/null || {
  echo "FAIL: server died on bad traffic" >&2; exit 1; }

# Leg 4b: bogus-key flood. Unknown keys now bounce off the registry's
# cuckoo-filter front door (no shard lock, no load attempt), but the
# wire contract must not move: every distinct bogus key still yields the
# same typed unknown-model error frames, and the server keeps serving.
for bogus in ghost_0 ghost_1 ghost_2 ghost_3; do
  rc=0
  out=$("$client_bin" "${connect[@]}" --model="$bogus" --requests=5) || rc=$?
  [ "$rc" -eq 1 ] || {
    echo "FAIL: flood key $bogus must exit 1, got $rc" >&2; exit 1; }
  grep -q "unknown-model" <<<"$out" || {
    echo "FAIL: flood key $bogus lost the typed error" >&2; exit 1; }
done
out=$("$client_bin" "${connect[@]}" --model=dvfs_RF_M5 --requests=20 \
    --verify="$models/dvfs_RF_M5.hmdf")
grep -q "parity   ok" <<<"$out" || {
  echo "FAIL: serving broke after the bogus-key flood" >&2; exit 1; }

# Leg 5: publish the replacement over the RF artifact (temp + rename,
# the atomic-publish idiom) and require a --verify run against the NEW
# artifact to reach bit-parity within the 200 ms refresh cadence.
cp "$models/dvfs_RF_M5.hmdf" "$workdir/rf.artifact"
cp "$workdir/replacement.artifact" "$models/.swap_tmp"
mv "$models/.swap_tmp" "$models/dvfs_RF_M5.hmdf"

swapped=no
for _ in $(seq 1 50); do
  if "$client_bin" "${connect[@]}" --model=dvfs_RF_M5 --requests=50 \
      --verify="$models/dvfs_RF_M5.hmdf" \
      >"$workdir/client_swap.log" 2>&1; then
    swapped=yes
    break
  fi
  sleep 0.2
done
cat "$workdir/client_swap.log"
[ "$swapped" = yes ] || {
  echo "FAIL: hot-swapped artifact never reached bit-parity" >&2
  cat "$workdir/server.log" >&2
  exit 1; }
reload_seen=no
for _ in $(seq 1 25); do
  if grep -q "refresh  reloaded dvfs_RF_M5" "$workdir/server.log"; then
    reload_seen=yes
    break
  fi
  sleep 0.2
done
[ "$reload_seen" = yes ] || {
  echo "FAIL: refresh() did not report the reload" >&2
  cat "$workdir/server.log" >&2
  exit 1; }

# Leg 6: SIGTERM -> drain, summaries, exit 0.
stop_server "$workdir/server.log"
grep -q "^traffic  " "$workdir/server.log" || {
  echo "FAIL: missing traffic summary" >&2; exit 1; }
grep -q "^batcher  " "$workdir/server.log" || {
  echo "FAIL: missing batcher summary" >&2; exit 1; }
grep -q "^served   " "$workdir/server.log" || {
  echo "FAIL: missing served summary" >&2; exit 1; }
# The end-of-run health summary must carry the kernel backend from the
# registry snapshot (the same field ModelHealth exposes to callers).
for key in dvfs_RF_M5 dvfs_LR_M5; do
  grep -Eq "^health   $key +.*, kernel (jit|arena|stream-fallback)," \
      "$workdir/server.log" || {
    echo "FAIL: health summary for $key missing kernel backend" >&2
    cat "$workdir/server.log" >&2
    exit 1; }
done
# Accuracy summary: the tier counters must show both the exact traffic
# and leg 2b's fast-tier requests, plus the active simd ISA level.
grep -Eq "^accuracy [0-9]+ exact-tier, [1-9][0-9]* fast-tier request\(s\), simd (scalar|avx2|avx512)" \
    "$workdir/server.log" || {
  echo "FAIL: missing or malformed accuracy summary" >&2
  cat "$workdir/server.log" >&2
  exit 1; }
# Fleet summary: the filter front door must report the bogus-key flood
# as rejects, and the residency line must account for both models.
grep -Eq "^fleet    2 key\(s\) in [0-9]+ shard\(s\), filter .* reject\(s\)" \
    "$workdir/server.log" || {
  echo "FAIL: missing or malformed fleet summary" >&2
  cat "$workdir/server.log" >&2
  exit 1; }
grep -Eq "^resident .* across 2 model\(s\)" "$workdir/server.log" || {
  echo "FAIL: missing or malformed residency summary" >&2
  cat "$workdir/server.log" >&2
  exit 1; }

# Leg 7: usage errors exit 2 — serving needs --listen, and flags of the
# removed in-process driver are rejected, not ignored.
expect_usage_error() {
  local rc=0
  "$serve_bin" "$@" >/dev/null 2>&1 || rc=$?
  [ "$rc" -eq 2 ] || {
    echo "FAIL: 'hmd_serve $*' must exit 2, got $rc" >&2; exit 1; }
}
expect_usage_error --models="$models"
expect_usage_error --models="$models" --listen=127.0.0.1:0 --batches=5
expect_usage_error --models="$models" --listen=127.0.0.1:0 \
    --swap-with="$workdir/replacement.artifact"

# The restart legs serve the original RF again, so --jit=on has a forest
# to compile.
mv "$workdir/rf.artifact" "$models/dvfs_RF_M5.hmdf"

# Leg 8a: --mmap=off serves through the full-copy read path: the server
# reports load=stream, no engine is zero-copy, and traffic still verifies.
start_server "$workdir/stream.log" --models="$models" --mmap=off
grep -q "load=stream" "$workdir/stream.log" || {
  echo "FAIL: --mmap=off not honoured" >&2; exit 1; }
if grep "^model " "$workdir/stream.log" | grep -q "zero-copy"; then
  echo "FAIL: stream path must not produce zero-copy engines" >&2; exit 1
fi
verify dvfs_LR_M5 "$models/dvfs_LR_M5.hmdf"
verify dvfs_RF_M5 "$models/dvfs_RF_M5.hmdf"
stop_server "$workdir/stream.log"

# Leg 8b: the explicit mmap path under both JIT policies. --jit=on may
# still report arena (a build without the JIT, or an engine the JIT does
# not cover); --jit=off must never report jit. Either way every response
# stays bit-identical.
for jit in on off; do
  log="$workdir/jit_$jit.log"
  start_server "$log" --models="$models" --mmap=on --jit="$jit"
  grep -q "load=mmap" "$log" || {
    echo "FAIL: --mmap=on not honoured" >&2; exit 1; }
  for key in dvfs_RF_M5 dvfs_LR_M5; do
    grep -Eq "^model    $key +.*zero-copy\), kernel (jit|arena)," "$log" || {
      echo "FAIL: --jit=$jit load line for $key" >&2; cat "$log" >&2; exit 1; }
  done
  if [ "$jit" = off ] && grep -q "kernel jit" "$log"; then
    echo "FAIL: --jit=off still compiled a kernel" >&2; exit 1
  fi
  verify dvfs_LR_M5 "$models/dvfs_LR_M5.hmdf" --outputs=estimate
  verify dvfs_RF_M5 "$models/dvfs_RF_M5.hmdf" --outputs=prediction
  stop_server "$log"
done

# Leg 8c: --batch-rows=1 turns coalescing off. Pipelined traffic over 4
# connections must still verify on both masks, and the batcher summary
# must show one 4-row request per batch, every flush on the rows cap.
start_server "$workdir/batch1.log" --models="$models" --batch-rows=1
grep -q "batch<=1 rows" "$workdir/batch1.log" || {
  echo "FAIL: --batch-rows=1 not honoured" >&2; exit 1; }
for outputs in detect estimate; do
  verify dvfs_RF_M5 "$models/dvfs_RF_M5.hmdf" --connections=4 --pipeline=2 \
      --outputs="$outputs"
done
stop_server "$workdir/batch1.log"
grep -Eq "^batcher  .* max 4 rows/batch \(flush: rows-cap [1-9][0-9]*, deadline 0, idle 0\)" \
    "$workdir/batch1.log" || {
  echo "FAIL: --batch-rows=1 still coalesced requests" >&2; exit 1; }

# Leg 9a: corrupt the RF artifact (one flipped engine bit). The server
# must skip it with a typed checksum error and keep serving the LR
# sibling — one bad artifact never takes down a healthy one.
"$faultgen_bin" bitflip "$models/dvfs_RF_M5.hmdf" --section=engine \
    --offset=-1 >/dev/null
start_server "$workdir/corrupt.log" --models="$models"
grep -q "skipping dvfs_RF_M5: load error \[checksum\]" "$workdir/corrupt.log" || {
  echo "FAIL: corrupt artifact not rejected with a typed checksum error" >&2
  cat "$workdir/corrupt.log" >&2
  exit 1; }
grep -q "serving  1 model(s)" "$workdir/corrupt.log" || {
  echo "FAIL: healthy sibling not served past the corrupt artifact" >&2
  exit 1; }
verify dvfs_LR_M5 "$models/dvfs_LR_M5.hmdf"
stop_server "$workdir/corrupt.log"

# Leg 9b: with *every* artifact corrupt there is nothing to serve: exit 3,
# the load/integrity code, before the server ever listens.
"$faultgen_bin" bitflip "$models/dvfs_LR_M5.hmdf" --section=scaler \
    --offset=-1 >/dev/null
rc=0
out=$("$serve_bin" --threads=1 --listen=127.0.0.1:0 --models="$models" 2>&1) \
    || rc=$?
echo "$out"
[ "$rc" -eq 3 ] || {
  echo "FAIL: nothing-servable must exit 3, got $rc" >&2; exit 1; }
if grep -q "listening on" <<<"$out"; then
  echo "FAIL: nothing-servable server must not listen" >&2; exit 1
fi

echo "serve_socket_smoke: OK"
