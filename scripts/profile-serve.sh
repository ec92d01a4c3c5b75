#!/usr/bin/env bash
# Profiles prever-server under the benchmark's serve_batch workload:
# a CPU profile, the heap allocations and heap bytes allocated per
# accepted op and the server's CPU time per accepted op, all taken over
# the same window of the timed section. Run from the repository root:
#
#   bash scripts/profile-serve.sh          (or: make profile-serve)
#
# The workload runs at seed 22 and the window is 10 s. PPROF (the pprof
# listen address, default 127.0.0.1:6060) and OUT (the output directory,
# default .profile) say where. The profile lands in
# $OUT/serve_batch.cpu.pprof; `go tool pprof -top
# $OUT/serve_batch.cpu.pprof` reads it again.
set -euo pipefail
seed=22
secs=10
pprof=${PPROF:-127.0.0.1:6060}
out=${OUT:-.profile}
# serve_batch preloads keys, so the benchmark sets it up three times
# (benchmark/serve_run.go, setupRepeats) and times the load on the third
# server; every one of them prints a "pprof on" line.
servers=3
mkdir -p "$out"
log="$out/run.err"
PREVER_PPROF=$pprof bash benchmark/run.sh --workload serve_batch --seed "$seed" --seconds $((secs + 12)) --trace 0 >"$out/run.json" 2>"$log" &
run=$!
trap 'kill $run 2>/dev/null || true' EXIT

for _ in $(seq 600); do
	[ "$(grep -c 'pprof on' "$log" || true)" -ge $servers ] && break
	kill -0 $run 2>/dev/null || { cat "$log" >&2; echo "profile-serve: the benchmark exited early" >&2; exit 1; }
	sleep 0.5
done
[ "$(grep -c 'pprof on' "$log" || true)" -ge $servers ] || { echo "profile-serve: the timed server never started" >&2; exit 1; }

# The API listens on an ephemeral port: the server's listener that is not
# the pprof one. Its line also names the server's pid.
pport=${pprof##*:}
api="" pid=""
for _ in $(seq 20); do
	line=$(ss -ltnpH 2>/dev/null | grep '"prever-server"' | awk -v p=":$pport\$" '$4 !~ p' | tail -1 || true)
	api=$(echo "$line" | awk '{print $4}')
	pid=$(echo "$line" | grep -o 'pid=[0-9]*' | head -1 | cut -d= -f2)
	[ -n "$api" ] && [ -n "$pid" ] && break
	sleep 0.5
done
[ -n "$api" ] && [ -n "$pid" ] || { echo "profile-serve: cannot find the server's API listener" >&2; exit 1; }
sleep 4 # preload and warm-up

# heapstat reads one "# Name = value" line of the runtime's MemStats from
# the heap profile's text form: Mallocs (objects) or TotalAlloc (bytes).
heapstat() { curl -sf "http://$pprof/debug/pprof/heap?debug=1" | sed -n "s/^# $1 = //p"; }
accepted() { curl -sf "http://$api/stats" | grep -o '"total":{[^}]*' | grep -o '"accepted":[0-9]*' | cut -d: -f2; }
# cputicks is the server's utime + stime in clock ticks (fields 14 and 15
# of /proc/<pid>/stat, counted after the parenthesised command name).
cputicks() { sed 's/.*) //' "/proc/$pid/stat" | awk '{print $12 + $13}'; }

m0=$(heapstat Mallocs) b0=$(heapstat TotalAlloc) a0=$(accepted) c0=$(cputicks)
curl -sf -o "$out/serve_batch.cpu.pprof" "http://$pprof/debug/pprof/profile?seconds=$secs"
m1=$(heapstat Mallocs) b1=$(heapstat TotalAlloc) a1=$(accepted) c1=$(cputicks)
wait $run || true
trap - EXIT

PPROF_TMPDIR="$out" go tool pprof -top -nodecount 30 "$out/serve_batch.cpu.pprof" 2>/dev/null | sed -n '1,40p'
echo
echo "profile-serve: seed $seed, ${secs} s window: $((a1 - a0)) ops accepted, $((m1 - m0)) heap allocations"
awk -v m=$((m1 - m0)) -v a=$((a1 - a0)) 'BEGIN { if (a > 0) printf "profile-serve: %.1f mallocs per accepted op\n", m / a }'
awk -v b=$((b1 - b0)) -v a=$((a1 - a0)) 'BEGIN { if (a > 0) printf "profile-serve: %.0f heap bytes allocated per accepted op\n", b / a }'
awk -v c=$((c1 - c0)) -v hz="$(getconf CLK_TCK)" -v a=$((a1 - a0)) 'BEGIN { if (a > 0) printf "profile-serve: %.2f server CPU us per accepted op\n", c * 1e6 / hz / a }'
echo "profile-serve: profile in $out/serve_batch.cpu.pprof, benchmark record in $out/run.json"
