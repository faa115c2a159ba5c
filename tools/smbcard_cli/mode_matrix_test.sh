#!/bin/sh
# smbcard's run-mode rules, checked against a hand-written expectation
# list (deliberately not generated from the flag table it tests).
#
# usage: mode_matrix_test.sh SMBCARD SECTION
#
# Sections: outside_modes, selector_conflicts, requires, valid, and one
# per fixed defect: all_state_flags, listen_checkpoint_interval,
# timeout_overflow, metrics_interval_overflow,
# checkpoint_interval_overflow.

set -u
smbcard=$1
section=$2
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT
failures=0
seq 1 2000 >"$tmp/items"
awk 'BEGIN { for (i = 0; i < 300; i++) print (i % 7) "," i }' >"$tmp/pairs"
sock=$tmp/p.sock
child="--per-flow --replicate-to $tmp/absent.sock --child-id 1 --spool-dir $tmp/sp"

fail() {
  echo "FAIL: smbcard $1"
  sed 's/^/    /' "$tmp/err"
  failures=$((failures + 1))
}

# Every run is capped, so a flag that is wrongly accepted cannot hang the
# test (a parent would otherwise wait for children forever).
run() {
  timeout 20 "$smbcard" "$@"
}

# usage_error ARGS...: exit 2 before any input is read. The input is a
# FILE that does not exist, so reading input would exit 1 instead.
usage_error() {
  run "$@" "$tmp/no-such-input" </dev/null >/dev/null 2>"$tmp/err"
  rc=$?
  if [ "$rc" -ne 2 ] || grep -q 'cannot open' "$tmp/err"; then
    fail "$* -> exit $rc, want a usage error (2)"
  fi
}

# exits CODE INPUT ARGS...: a run over INPUT on stdin exits CODE.
exits() {
  want=$1
  input=$2
  shift 2
  run "$@" <"$input" >/dev/null 2>"$tmp/err"
  rc=$?
  [ "$rc" -eq "$want" ] || fail "$* -> exit $rc, want $want"
}

case $section in
  outside_modes)
    usage_error --overload-policy drop
    usage_error --overload-policy drop --per-flow
    usage_error --checkpoint-dir "$tmp/ck" --all
    usage_error --checkpoint-dir "$tmp/ck" --per-flow
    usage_error --checkpoint-dir "$tmp/ck" --save "$tmp/s.smb"
    usage_error --checkpoint-dir "$tmp/ck" $child
    usage_error --top 3
    usage_error --top 3 --all
    usage_error --top 3 --threads 2
    usage_error --top 3 --load "$tmp/s.smb"
    usage_error --memory-budget 1M
    usage_error --memory-budget 1M $child
    usage_error --memory-budget 1M --listen "$sock"
    usage_error --eviction off
    usage_error --eviction off --listen "$sock"
    usage_error --hugepages
    usage_error --numa --threads 2
    usage_error --expect-children 2
    usage_error --listen-timeout 5 --per-flow
    usage_error --replicate-to "$sock" --child-id 1 --spool-dir "$tmp/sp"
    usage_error --child-id 1 --per-flow
    usage_error --child-id 1 --listen "$sock"
    usage_error --spool-dir "$tmp/sp" --per-flow
    usage_error --spool-budget 1M --per-flow
    usage_error --shed-policy drop --per-flow
    usage_error --delta-every 10 --per-flow
    usage_error --drain-timeout 1 --per-flow
    ;;
  selector_conflicts)
    usage_error --listen "$sock" --per-flow
    usage_error --listen "$sock" --threads 2
    usage_error --listen "$sock" --shards 4
    usage_error --listen "$sock" --all
    usage_error --listen "$sock" --save "$tmp/s.smb"
    usage_error --listen "$sock" --load "$tmp/s.smb"
    usage_error --listen "$sock" $child
    usage_error --per-flow --threads 2
    usage_error --per-flow --shards 4
    usage_error --per-flow --all
    usage_error --per-flow --save "$tmp/s.smb"
    usage_error --per-flow --load "$tmp/s.smb"
    usage_error --threads 2 --all
    usage_error --threads 2 --save "$tmp/s.smb"
    usage_error --threads 2 --load "$tmp/s.smb"
    usage_error --shards 4 --all
    usage_error --shards 4 --save "$tmp/s.smb"
    usage_error --shards 4 --load "$tmp/s.smb"
    usage_error --all --save "$tmp/s.smb"
    usage_error --all --load "$tmp/s.smb"
    ;;
  requires)
    usage_error --metrics-interval 1
    usage_error --checkpoint-interval 5
    usage_error --threads 2 --checkpoint-interval 5
    usage_error --per-flow --replicate-to "$sock" --child-id 1
    usage_error --per-flow --replicate-to "$sock" --spool-dir "$tmp/sp"
    usage_error $child --shed-policy drop
    usage_error --per-flow --eviction clock
    usage_error --per-flow --eviction 2q --memory-budget 0
    usage_error $child --eviction clock
    usage_error --listen "$sock" --expect-children 0
    usage_error $child --delta-every 0
    usage_error --save ''
    usage_error --codec zstd
    usage_error --per-flow --eviction lru --memory-budget 1M
    ;;
  all_state_flags)
    usage_error --all --save "$tmp/all.smb"
    if [ -e "$tmp/all.smb" ]; then
      echo "FAIL: --all --save wrote $tmp/all.smb"
      failures=$((failures + 1))
    fi
    usage_error --all --load /nonexistent/state.smb
    ;;
  listen_checkpoint_interval)
    usage_error --listen "$sock" --checkpoint-dir "$tmp/ck" \
      --checkpoint-interval 5
    ;;
  timeout_overflow)
    # seconds * 1000 must not wrap u64 (into a 4 ms timeout).
    usage_error --listen "$sock" --listen-timeout 18446744073709551
    usage_error $child --drain-timeout 18446744073709551
    usage_error --listen "$sock" --listen-timeout 31536001
    ;;
  metrics_interval_overflow)
    usage_error --metrics-out "$tmp/m.prom" \
      --metrics-interval 18446744073709551615
    ;;
  checkpoint_interval_overflow)
    usage_error --checkpoint-dir "$tmp/ck" \
      --checkpoint-interval 18446744073709551615
    usage_error --checkpoint-dir "$tmp/ck" --checkpoint-interval 31536001
    exits 0 "$tmp/items" --checkpoint-dir "$tmp/ck" \
      --checkpoint-interval 31536000
    if [ "$(ls "$tmp/ck" | grep -c smbckpt)" -ne 1 ]; then
      echo "FAIL: a year-long --checkpoint-interval wrote more than one" \
        "generation"
      failures=$((failures + 1))
    fi
    ;;
  valid)
    exits 0 "$tmp/items"
    exits 0 "$tmp/items" --algo HLL --memory 5000 --design 20000 --seed 3
    exits 0 "$tmp/items" --all --memory 20000
    exits 0 "$tmp/items" --save "$tmp/s.smb"
    exits 0 "$tmp/items" --load "$tmp/s.smb"
    exits 0 "$tmp/items" --load "$tmp/s.smb" --save "$tmp/s2.smb"
    exits 0 "$tmp/items" --threads 2
    exits 0 "$tmp/items" --shards 4 --memory 20000
    exits 0 "$tmp/items" --threads 2 --shards 4 --memory 20000 \
      --overload-policy drop
    exits 0 "$tmp/items" --checkpoint-dir "$tmp/ck1" \
      --checkpoint-interval 5 --codec off
    exits 0 "$tmp/items" --algo HLL++ --checkpoint-dir "$tmp/ck2"
    exits 0 "$tmp/items" --threads 2 --memory 20000 \
      --checkpoint-dir "$tmp/ck3" --checkpoint-interval 1
    exits 0 "$tmp/items" --metrics-out "$tmp/m.json" --metrics-interval 1 \
      --flight-recorder "$tmp/flight.bin"
    exits 0 "$tmp/pairs" --per-flow --top 3
    exits 0 "$tmp/pairs" --per-flow --algo HLL --top 2
    exits 0 "$tmp/pairs" --per-flow --memory-budget 64K --eviction 2q \
      --hugepages --numa
    exits 0 "$tmp/pairs" --per-flow --eviction off
    # A child with no parent spools everything and exits 3.
    exits 3 "$tmp/pairs" $child --spool-budget 1M --shed-policy drop \
      --delta-every 100 --drain-timeout 0 --eviction off --top 2 --codec off
    # A parent whose children never come times out with exit 1.
    exits 1 "$tmp/items" --listen "$sock" --expect-children 2 \
      --listen-timeout 1 --top 3 --checkpoint-dir "$tmp/pck" --codec off
    ;;
  *)
    echo "unknown section '$section'"
    exit 2
    ;;
esac

if [ "$failures" -ne 0 ]; then
  echo "$failures failure(s) in section $section"
  exit 1
fi
