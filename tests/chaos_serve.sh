#!/usr/bin/env bash
# Chaos drill: hmd_serve must keep serving bit-identical results through a
# swap storm of corrupt publishes.
#
#   1. Train two model families into a registry directory, keep a copy of
#      the RF artifact as the known-good bytes, and start hmd_serve
#      --listen with a fast refresh cadence (--refresh-ms=50) so the storm
#      reaches the registry.
#   2. A storm publishes damaged variants of the RF artifact over its real
#      name via hmd_faultgen: checksum-breaking bit flips, torn
#      half-files, truncated tails — each a fresh inode, exactly like a
#      real bad publish.
#   3. While the storm runs, hmd_client --verify against the known-good
#      artifact loops over the socket: every run must exit 0, i.e. every
#      response is bit-identical to the last good snapshot (no rejected
#      replacement ever got served).
#   4. The health log must record the degradation, and SIGTERM must drain
#      the server with exit 0.
#
# usage: chaos_serve.sh <hmd_train> <hmd_serve> <hmd_faultgen> <hmd_client>
set -euo pipefail

train_bin=$1
serve_bin=$2
faultgen_bin=$3
client_bin=$4

workdir=$(mktemp -d chaos_serve.XXXXXX)
server_pid=""
storm_pid=""
cleanup() {
  [ -n "$storm_pid" ] && kill "$storm_pid" 2>/dev/null || true
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

target="$models/dvfs_RF_M5.hmdf"
cp "$target" "$workdir/good.hmdf"

# Startup loads complete clean: the drill is about *replacement*
# failures, which is why the storm waits for the port.
log="$workdir/chaos.log"
"$serve_bin" --models="$models" --threads=1 --listen=127.0.0.1:0 \
    --refresh-ms=50 >"$log" 2>&1 &
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

# The storm: eight damaged publishes over the RF artifact, each preceded
# by a good publish so hmd_faultgen always has an intact section table to
# steer by (and so the registry sees a stream of distinct inodes, like a
# retrain pipeline gone wrong). The last publish is good again.
(
  for i in $(seq 1 8); do
    "$faultgen_bin" publish "$workdir/good.hmdf" "$target" >/dev/null
    case $((i % 3)) in
      0) "$faultgen_bin" torn "$target" >/dev/null ;;
      1) "$faultgen_bin" bitflip "$target" --section=engine \
             --offset=$((i * 37)) --bit=$((i % 8)) >/dev/null ;;
      2) "$faultgen_bin" truncate "$target" --bytes=$((16 + i)) >/dev/null ;;
    esac
    sleep 0.2
  done
  "$faultgen_bin" publish "$workdir/good.hmdf" "$target" >/dev/null
) &
storm_pid=$!

# Verified traffic for as long as the storm lasts, plus one run after it.
runs=0
storming=yes
while [ "$storming" = yes ]; do
  kill -0 "$storm_pid" 2>/dev/null || storming=no
  rc=0
  "$client_bin" --connect=127.0.0.1:"$port" "${common[@]}" --rows=4 \
      --model=dvfs_RF_M5 --requests=50 --verify="$workdir/good.hmdf" \
      >"$workdir/client.log" 2>&1 || rc=$?
  runs=$((runs + 1))
  [ "$rc" -eq 0 ] || {
    echo "FAIL: client run $runs exited $rc under the swap storm" >&2
    cat "$workdir/client.log" >&2
    cat "$log" >&2
    exit 1; }
done
rc=0
wait "$storm_pid" || rc=$?
storm_pid=""
[ "$rc" -eq 0 ] || { echo "FAIL: the storm itself failed ($rc)" >&2; exit 1; }
echo "chaos_serve: $runs verified client run(s) through the storm"

kill -TERM "$server_pid"
rc=0
wait "$server_pid" || rc=$?
server_pid=""
cat "$log"
[ "$rc" -eq 0 ] || {
  echo "FAIL: chaos run exited $rc (must degrade, never crash)" >&2
  exit 1; }

grep -Eq '^health .* -> (degraded|quarantined)' "$log" || {
  echo "FAIL: no degradation recorded — the storm never landed" >&2
  exit 1; }

echo "chaos_serve: OK"
