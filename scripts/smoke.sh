#!/usr/bin/env bash
# End-to-end smoke test for the fairrankd cluster: boot a 2-node cluster,
# drive the JSON API over real HTTP (dataset create → designer builds →
# suggest), then JOIN a third node at runtime and require index handoff (the
# migrated designer must be loaded from its old owner, never rebuilt), a
# byte-identical answer through the new owner, a clean SIGTERM drain-leave of
# the third node, a clean SIGTERM shutdown of the rest with persisted state,
# and a restart of node-0 that must serve from that state. A final stage
# boots a fresh 3-node cluster with -replicas 1, kill -9s a designer's owner
# mid-traffic, and requires promote-not-rebuild failover with unchanged
# answers (docs/REPLICATION.md).
# CI runs this as its own job; it also works locally:
#
#   ./scripts/smoke.sh [base-port]
set -euo pipefail

port0="${1:-18080}"
port1=$((port0 + 1))
port2=$((port0 + 2))
port3=$((port0 + 3))
port4=$((port0 + 4))
port5=$((port0 + 5))
base0="http://127.0.0.1:${port0}"
base1="http://127.0.0.1:${port1}"
base2="http://127.0.0.1:${port2}"
base3="http://127.0.0.1:${port3}"
base4="http://127.0.0.1:${port4}"
base5="http://127.0.0.1:${port5}"
workdir="$(mktemp -d)"
bin="${workdir}/fairrankd"

cleanup() {
  for p in "${pid0:-}" "${pid1:-}" "${pid2:-}" "${pid3:-}" "${pid4:-}" "${pid5:-}" "${traffic_pid:-}" "${patch_traffic_pid:-}"; do
    if [[ -n "$p" ]] && kill -0 "$p" 2>/dev/null; then
      kill -9 "$p" 2>/dev/null || true
    fi
  done
  rm -rf "$workdir"
}
trap cleanup EXIT

wait_healthy() { # url pid name
  for _ in $(seq 1 150); do
    if curl -fs "$1/healthz" >/dev/null 2>&1; then return 0; fi
    if ! kill -0 "$2" 2>/dev/null; then
      echo "$3 exited before becoming healthy" >&2
      exit 1
    fi
    sleep 0.1
  done
  echo "$3 never became healthy" >&2
  exit 1
}

echo "== building fairrankd"
go build -o "$bin" ./cmd/fairrankd

echo "== starting a 2-node cluster (node-0 :${port0}, node-1 :${port1})"
"$bin" -addr "127.0.0.1:${port0}" -node-id node-0 -shards 2 \
  -peers "node-1=${base1}" -anti-entropy 300ms -health-interval 300ms \
  -data "${workdir}/data0" >"${workdir}/node0.log" 2>&1 &
pid0=$!
"$bin" -addr "127.0.0.1:${port1}" -node-id node-1 -shards 2 \
  -peers "node-0=${base0}" -anti-entropy 300ms -health-interval 300ms \
  -data "${workdir}/data1" >"${workdir}/node1.log" 2>&1 &
pid1=$!
wait_healthy "$base0" "$pid0" node-0
wait_healthy "$base1" "$pid1" node-1
echo "== both nodes healthy"

# A small 2-attribute dataset where the protected group scores high, so fair
# functions exist and suggest has an easy answer.
curl -fs -X POST "${base0}/v1/datasets" -H 'Content-Type: application/json' -d '{
  "id": "smoke",
  "dataset": {
    "scoring": ["merit", "impact"],
    "rows": [[1.00, 0.91], [0.93, 1.02], [0.88, 0.97], [0.96, 0.84],
             [0.41, 0.33], [0.28, 0.44], [0.36, 0.21], [0.19, 0.30]],
    "types": [{"name": "group",
               "labels": ["protected", "other"],
               "values": [0, 0, 0, 0, 1, 1, 1, 1]}]
  }
}' | grep -q '"id":"smoke"'
echo "== dataset created (replicates to both nodes)"

# smoke-designer-0 is owned by node-1 on the 2-ring and migrates to node-2
# when it joins; smoke-designer-6 stays on node-0 throughout (both are pure
# functions of the ids, so this is stable across runs).
for d in smoke-designer-0 smoke-designer-6; do
  curl -fs -X POST "${base0}/v1/designers?wait=true" -H 'Content-Type: application/json' -d '{
    "id": "'"$d"'",
    "spec": {
      "dataset": "smoke",
      "oracle": {"kind": "min_share", "attr": "group", "group": "protected",
                 "top_frac": 0.5, "share": 0.25},
      "config": {"mode": "2d"}
    }
  }' | grep -q '"status":"ready"'
done
echo "== designers built and ready"

query='{"weights": [0.5, 0.5]}'
answer0="$(curl -fs -X POST "${base0}/v1/designers/smoke-designer-0/suggest" \
  -H 'Content-Type: application/json' -d "$query")"
answer1="$(curl -fs -X POST "${base1}/v1/designers/smoke-designer-0/suggest" \
  -H 'Content-Type: application/json' -d "$query")"
echo "   suggest answer: ${answer0}"
echo "$answer0" | grep -q '"distance"'
[[ "$answer0" == "$answer1" ]] || { echo "answers differ across entry nodes" >&2; exit 1; }
echo "== suggest answered identically via both nodes"

# smoke-designer-6's answer is the reference for the restart-from-disk check
# after the final shutdown.
answer6="$(curl -fs -X POST "${base0}/v1/designers/smoke-designer-6/suggest" \
  -H 'Content-Type: application/json' -d "$query")"
echo "$answer6" | grep -q '"distance"' || { echo "no answer for smoke-designer-6" >&2; exit 1; }

curl -fs "${base0}/cluster" | jq -e '.shards | length == 2' >/dev/null
echo "== cluster status reports 2 shards"

# Prometheus exposition: both nodes must render the gossip and handoff
# cluster series (counters exist from boot, whatever their value) plus the
# per-designer serving series on the designer's owner.
for b in "$base0" "$base1"; do
  metrics="$(curl -fs "${b}/metrics?format=prometheus")"
  echo "$metrics" | grep -q '^fairrank_gossip_rounds_total' \
    || { echo "no gossip series in ${b}/metrics?format=prometheus" >&2; exit 1; }
  echo "$metrics" | grep -q '^fairrank_handoff_pulls_total' \
    || { echo "no handoff series in ${b}/metrics?format=prometheus" >&2; exit 1; }
done
# Polled: right after startup the designer may still be serving from its
# creator while ownership settles on node-1, so give the owner a moment to
# record its first served queries before requiring the histogram.
hist_ok=0
for _ in $(seq 1 100); do
  curl -fs -X POST "${base1}/v1/designers/smoke-designer-0/suggest" \
    -H 'Content-Type: application/json' -d "$query" >/dev/null
  if curl -fs "${base1}/metrics?format=prometheus" \
    | grep -q '^fairrank_suggest_latency_seconds_bucket{designer="smoke-designer-0",le="+Inf"}'; then
    hist_ok=1; break
  fi
  sleep 0.1
done
[[ "$hist_ok" == "1" ]] \
  || { echo "owner exposes no latency histogram for smoke-designer-0" >&2; exit 1; }
echo "== Prometheus exposition serves gossip, handoff, and latency series"

# Request tracing: a client-set trace id must come back at /debug/traces.
curl -fs -X POST "${base0}/v1/designers/smoke-designer-0/suggest" \
  -H 'Content-Type: application/json' -H 'X-Fairrank-Trace: smoke-trace-1' \
  -d "$query" >/dev/null
curl -fs "${base0}/debug/traces?id=smoke-trace-1" | jq -e '.traces | length == 1' >/dev/null \
  || { echo "trace smoke-trace-1 not recorded on node-0" >&2; exit 1; }
echo "== request trace recorded under the caller's id"

# ── Patch stage ───────────────────────────────────────────────────────────
# Mutate a dedicated dataset under live suggest traffic. The PATCH (sent to
# node-1, not the creator) must return the chained revision, the serving
# index must be spliced by incremental repair — churn 2/8 is under the
# designer's 0.5 threshold, so a rebuild is a failure — every in-flight
# answer must stay well-formed, and both nodes must converge to identical
# answers over the patched data.
echo "== patch stage: dataset mutation under live traffic"
curl -fs -X POST "${base0}/v1/datasets" -H 'Content-Type: application/json' -d '{
  "id": "smoke-mut",
  "dataset": {
    "scoring": ["merit", "impact"],
    "rows": [[1.00, 0.91], [0.93, 1.02], [0.88, 0.97], [0.96, 0.84],
             [0.41, 0.33], [0.28, 0.44], [0.36, 0.21], [0.19, 0.30]],
    "types": [{"name": "group",
               "labels": ["protected", "other"],
               "values": [0, 0, 0, 0, 1, 1, 1, 1]}]
  }
}' >/dev/null
curl -fs -X POST "${base0}/v1/designers?wait=true" -H 'Content-Type: application/json' -d '{
  "id": "mut-designer",
  "spec": {
    "dataset": "smoke-mut",
    "oracle": {"kind": "min_share", "attr": "group", "group": "protected",
               "top_frac": 0.5, "share": 0.25},
    "config": {"mode": "2d", "repair_churn_frac": 0.5}
  }
}' | grep -q '"status":"ready"'

patch_traffic="${workdir}/patch-traffic.log"
( while :; do
    curl -fs -m 2 -X POST "${base0}/v1/designers/mut-designer/suggest" \
      -H 'Content-Type: application/json' -d "$query" >>"$patch_traffic" 2>/dev/null || true
    echo >>"$patch_traffic"
    sleep 0.02
  done ) &
patch_traffic_pid=$!

patch_body='{"remove": [0], "add": [{"row": [0.97, 0.88], "types": {"group": "protected"}}]}'
patch_res=""
for _ in $(seq 1 100); do
  if patch_res="$(curl -fs -X PATCH "${base1}/v1/datasets/smoke-mut" \
      -H 'Content-Type: application/json' -d "$patch_body")"; then break; fi
  sleep 0.1
done
echo "$patch_res" | jq -e '.revision != null and .n == 8' >/dev/null \
  || { echo "unexpected PATCH response: ${patch_res}" >&2; exit 1; }
echo "== patch stage: PATCH applied via node-1 (revision $(echo "$patch_res" | jq -r .revision))"

sleep 1  # keep traffic overlapping the splice
kill -9 "$patch_traffic_pid" 2>/dev/null || true
wait "$patch_traffic_pid" 2>/dev/null || true
if grep -v -e '^$' "$patch_traffic" | grep -v '"distance"' | grep -q .; then
  echo "traffic saw a malformed answer during the patch:" >&2
  grep -v -e '^$' "$patch_traffic" | grep -v '"distance"' | head -3 >&2
  exit 1
fi
grep -q '"distance"' "$patch_traffic" \
  || { echo "no suggest answer flowed during the patch" >&2; exit 1; }

patched_total="$(curl -fs "${base1}/metrics?format=prometheus" \
  | awk '/^fairrank_patch_total/ {print $2}')"
[[ -n "$patched_total" && "$patched_total" != "0" ]] \
  || { echo "fairrank_patch_total is ${patched_total:-missing} on node-1" >&2; exit 1; }
repair_line='patch: designer \\"mut-designer\\" index repaired in place'
repair_seen=0
for _ in $(seq 1 100); do
  if grep -q "$repair_line" "${workdir}/node0.log" "${workdir}/node1.log"; then repair_seen=1; break; fi
  sleep 0.1
done
[[ "$repair_seen" == "1" ]] \
  || { echo "no node repaired mut-designer in place" >&2
       cat "${workdir}/node0.log" "${workdir}/node1.log" >&2; exit 1; }
if grep -q 'patch: designer \\"mut-designer\\" rebuilt' "${workdir}/node0.log" "${workdir}/node1.log"; then
  echo "mut-designer was rebuilt instead of repaired" >&2
  exit 1
fi

pa=""; pb=""
for _ in $(seq 1 100); do
  pa="$(curl -fs -X POST "${base0}/v1/designers/mut-designer/suggest" \
    -H 'Content-Type: application/json' -d "$query" || true)"
  pb="$(curl -fs -X POST "${base1}/v1/designers/mut-designer/suggest" \
    -H 'Content-Type: application/json' -d "$query" || true)"
  [[ -n "$pa" && "$pa" == "$pb" ]] && break
  sleep 0.1
done
[[ -n "$pa" && "$pa" == "$pb" ]] \
  || { echo "post-patch answers diverge: ${pa} vs ${pb}" >&2; exit 1; }
echo "== patch stage passed: repaired in place under live traffic, answers converged"

echo "== joining node-2 at runtime (:${port2})"
"$bin" -addr "127.0.0.1:${port2}" -node-id node-2 -shards 2 \
  -join "$base0" -anti-entropy 300ms -health-interval 300ms \
  -data "${workdir}/data2" >"${workdir}/node2.log" 2>&1 &
pid2=$!
wait_healthy "$base2" "$pid2" node-2

# The migrated designer must arrive on node-2 by index handoff — loaded from
# the old owner's persisted stream, never rebuilt. The slog text format
# escapes the quotes inside the message (msg="... designer \"id\" ...").
handoff_line='handoff: designer \\"smoke-designer-0\\" index loaded'
for _ in $(seq 1 100); do
  if grep -q "$handoff_line" "${workdir}/node2.log"; then break; fi
  sleep 0.1
done
grep -q "$handoff_line" "${workdir}/node2.log" \
  || { echo "node-2 never received the index handoff" >&2; cat "${workdir}/node2.log" >&2; exit 1; }
if grep -q 'rebuild: designer \\"smoke-designer-0\\"' "${workdir}/node2.log"; then
  echo "node-2 rebuilt the migrated designer instead of loading the handoff" >&2
  exit 1
fi
echo "== handoff verified: no rebuild logged on the new owner"

answer2="$(curl -fs -X POST "${base2}/v1/designers/smoke-designer-0/suggest" \
  -H 'Content-Type: application/json' -d "$query")"
[[ "$answer2" == "$answer0" ]] || { echo "post-join answer differs: ${answer2}" >&2; exit 1; }
curl -fs "${base0}/cluster" | jq -e '.members | length == 3' >/dev/null
echo "== 3-node ring serves byte-identical answers"

echo "== SIGTERM node-2 (drain-leave)"
kill -TERM "$pid2"
status=0; wait "$pid2" || status=$?
[[ $status -eq 0 ]] || { echo "node-2 exited with status ${status}" >&2; exit 1; }
grep -q 'left the ring' "${workdir}/node2.log" \
  || { echo "node-2 did not announce its leave" >&2; cat "${workdir}/node2.log" >&2; exit 1; }

# The survivors take the designer back (handoff push from the drain) and the
# answer is still the same bytes.
for _ in $(seq 1 100); do
  if curl -fs "${base0}/cluster" | jq -e '.members | length == 2' >/dev/null 2>&1; then break; fi
  sleep 0.1
done
curl -fs "${base0}/cluster" | jq -e '.members | length == 2' >/dev/null \
  || { echo "survivors still list node-2 after its leave" >&2; exit 1; }
for _ in $(seq 1 100); do
  post="$(curl -fs -X POST "${base0}/v1/designers/smoke-designer-0/suggest" \
    -H 'Content-Type: application/json' -d "$query" || true)"
  [[ "$post" == "$answer0" ]] && break
  sleep 0.1
done
[[ "$post" == "$answer0" ]] || { echo "post-leave answer differs: ${post}" >&2; exit 1; }
echo "== clean drain-leave: designer handed back, answers unchanged"

echo "== shutting the cluster down (SIGTERM)"
kill -TERM "$pid0" "$pid1"
status=0; wait "$pid0" || status=$?
[[ $status -eq 0 ]] || { echo "node-0 exited with status ${status}" >&2; exit 1; }
status=0; wait "$pid1" || status=$?
[[ $status -eq 0 ]] || { echo "node-1 exited with status ${status}" >&2; exit 1; }
[[ -f "${workdir}/data0/smoke.dataset" ]] || { echo "dataset not persisted" >&2; exit 1; }
ls "${workdir}"/data*/smoke-designer-0.index >/dev/null 2>&1 \
  || { echo "index not persisted anywhere" >&2; exit 1; }
echo "== clean shutdown, state persisted"

# Restart from disk: node-0 comes back on its saved data dir and must serve
# smoke-designer-6 from the persisted index — the same bytes as before the
# shutdown, with no "persisted index not used" fallback rebuild logged.
echo "== restarting node-0 on its saved data dir"
"$bin" -addr "127.0.0.1:${port0}" -node-id node-0 -shards 2 \
  -anti-entropy 300ms -health-interval 300ms \
  -data "${workdir}/data0" >"${workdir}/node0-restart.log" 2>&1 &
pid0=$!
wait_healthy "$base0" "$pid0" node-0
answer6b="$(curl -fs -X POST "${base0}/v1/designers/smoke-designer-6/suggest" \
  -H 'Content-Type: application/json' -d "$query")"
[[ "$answer6b" == "$answer6" ]] || { echo "post-restart answer differs: ${answer6b}" >&2; exit 1; }
if grep -q 'persisted index not used' "${workdir}/node0-restart.log"; then
  echo "restarted node-0 did not use its persisted index" >&2
  cat "${workdir}/node0-restart.log" >&2
  exit 1
fi

kill -TERM "$pid0"
status=0; wait "$pid0" || status=$?
[[ $status -eq 0 ]] || { echo "restarted node-0 exited with status ${status}" >&2; exit 1; }
echo "== restart served the persisted index, answers unchanged: smoke test passed"

# ── Replica stage ─────────────────────────────────────────────────────────
# A fresh 3-node cluster with -replicas 1: the owner of each designer pushes
# its sealed index to one follower, reads fan out across both, and kill -9 of
# the owner mid-traffic must fail over by PROMOTING the follower's copy (no
# rebuild), with byte-identical answers throughout. See docs/REPLICATION.md.
echo "== replica stage: starting a 3-node cluster with -replicas 1"
"$bin" -addr "127.0.0.1:${port3}" -node-id node-r0 -shards 2 -replicas 1 \
  -peers "node-r1=${base4},node-r2=${base5}" \
  -anti-entropy 300ms -health-interval 300ms \
  -data "${workdir}/data-r0" >"${workdir}/node-r0.log" 2>&1 &
pid3=$!
"$bin" -addr "127.0.0.1:${port4}" -node-id node-r1 -shards 2 -replicas 1 \
  -peers "node-r0=${base3},node-r2=${base5}" \
  -anti-entropy 300ms -health-interval 300ms \
  -data "${workdir}/data-r1" >"${workdir}/node-r1.log" 2>&1 &
pid4=$!
"$bin" -addr "127.0.0.1:${port5}" -node-id node-r2 -shards 2 -replicas 1 \
  -peers "node-r0=${base3},node-r1=${base4}" \
  -anti-entropy 300ms -health-interval 300ms \
  -data "${workdir}/data-r2" >"${workdir}/node-r2.log" 2>&1 &
pid5=$!
wait_healthy "$base3" "$pid3" node-r0
wait_healthy "$base4" "$pid4" node-r1
wait_healthy "$base5" "$pid5" node-r2

curl -fs -X POST "${base3}/v1/datasets" -H 'Content-Type: application/json' -d '{
  "id": "smoke",
  "dataset": {
    "scoring": ["merit", "impact"],
    "rows": [[1.00, 0.91], [0.93, 1.02], [0.88, 0.97], [0.96, 0.84],
             [0.41, 0.33], [0.28, 0.44], [0.36, 0.21], [0.19, 0.30]],
    "types": [{"name": "group",
               "labels": ["protected", "other"],
               "values": [0, 0, 0, 0, 1, 1, 1, 1]}]
  }
}' >/dev/null
rd="replica-designer-0"
curl -fs -X POST "${base3}/v1/designers?wait=true" -H 'Content-Type: application/json' -d '{
  "id": "'"$rd"'",
  "spec": {
    "dataset": "smoke",
    "oracle": {"kind": "min_share", "attr": "group", "group": "protected",
               "top_frac": 0.5, "share": 0.25},
    "config": {"mode": "2d"}
  }
}' | grep -q '"status":"ready"'
echo "== replica stage: designer built"

curl -fs "${base3}/cluster" | jq -e '.replicas == 1' >/dev/null \
  || { echo "cluster status does not report replicas=1" >&2; exit 1; }

# Resolve the designer's owner and follower from the cluster status, then
# map them onto pids/ports.
node_base() { case "$1" in node-r0) echo "$base3";; node-r1) echo "$base4";; node-r2) echo "$base5";; esac; }
node_pid()  { case "$1" in node-r0) echo "$pid3";;  node-r1) echo "$pid4";;  node-r2) echo "$pid5";;  esac; }
owner=""; follower=""
for _ in $(seq 1 100); do
  status="$(curl -fs "${base3}/cluster")"
  owner="$(echo "$status" | jq -r --arg d "$rd" \
    '.members[] | select(.designers != null and (.designers | index($d))) | .id')"
  follower="$(echo "$status" | jq -r --arg d "$rd" \
    '.members[] | select(.replica_for != null and (.replica_for | index($d))) | .id')"
  [[ -n "$owner" && -n "$follower" ]] && break
  sleep 0.1
done
[[ -n "$owner" && -n "$follower" ]] \
  || { echo "could not resolve owner/follower for ${rd}" >&2; exit 1; }
owner_base="$(node_base "$owner")"; owner_pid="$(node_pid "$owner")"
follower_base="$(node_base "$follower")"
echo "== replica stage: ${rd} owned by ${owner}, replicated on ${follower}"

# The owner must push the sealed index to its follower (replica metrics).
pushed=0
for _ in $(seq 1 100); do
  pushes="$(curl -fs "${owner_base}/metrics?format=prometheus" \
    | awk '/^fairrank_replica_pushes_total/ {print $2}')"
  if [[ -n "$pushes" && "$pushes" != "0" ]]; then pushed=1; break; fi
  sleep 0.1
done
[[ "$pushed" == "1" ]] || { echo "owner never pushed a replica copy" >&2; exit 1; }
echo "== replica stage: owner pushed the index to its follower"

baseline="$(curl -fs -X POST "${follower_base}/v1/designers/${rd}/suggest" \
  -H 'Content-Type: application/json' -d "$query")"
echo "$baseline" | grep -q '"distance"' || { echo "no baseline answer" >&2; exit 1; }

# Keep read traffic flowing through the follower while the owner dies.
trafficlog="${workdir}/replica-traffic.log"
( while :; do
    curl -fs -m 2 -X POST "${follower_base}/v1/designers/${rd}/suggest" \
      -H 'Content-Type: application/json' -d "$query" >>"$trafficlog" 2>/dev/null || true
    echo >>"$trafficlog"
    sleep 0.05
  done ) &
traffic_pid=$!

echo "== replica stage: kill -9 the owner (${owner}) mid-traffic"
kill -9 "$owner_pid"

# Failover must PROMOTE the follower's pushed copy — never rebuild. The slog
# text format escapes the quotes in the message (msg="... \"id\" ...").
promote_line='promote: designer \\"'"$rd"'\\" activated'
follower_log="${workdir}/${follower}.log"
for _ in $(seq 1 150); do
  if grep -q "$promote_line" "$follower_log"; then break; fi
  sleep 0.1
done
grep -q "$promote_line" "$follower_log" \
  || { echo "follower never promoted its replica copy" >&2; cat "$follower_log" >&2; exit 1; }
if grep -q 'rebuild: designer \\"'"$rd"'\\"' "$follower_log"; then
  echo "follower rebuilt ${rd} instead of promoting its copy" >&2
  exit 1
fi
echo "== replica stage: promote-not-rebuild verified on ${follower}"

post="$(curl -fs -X POST "${follower_base}/v1/designers/${rd}/suggest" \
  -H 'Content-Type: application/json' -d "$query")"
[[ "$post" == "$baseline" ]] \
  || { echo "post-failover answer differs: ${post} vs ${baseline}" >&2; exit 1; }

kill -9 "$traffic_pid" 2>/dev/null || true
wait "$traffic_pid" 2>/dev/null || true
# Every answer the traffic loop got — before, during, and after the kill —
# must be the same bytes (failed requests leave blank lines, never wrong ones).
if grep -v -F -x -e "$baseline" -e "" "$trafficlog" | grep -q .; then
  echo "traffic saw a divergent answer during failover:" >&2
  grep -v -F -x -e "$baseline" -e "" "$trafficlog" | head -3 >&2
  exit 1
fi
grep -c -F -x "$baseline" "$trafficlog" >/dev/null \
  || { echo "traffic loop never got an answer" >&2; exit 1; }

# Replica metrics on the promoted follower: a promotion was counted, and the
# read fan-out series exists with its path split.
fmetrics="$(curl -fs "${follower_base}/metrics?format=prometheus")"
promotions="$(echo "$fmetrics" | awk '/^fairrank_replica_promotions_total/ {print $2}')"
[[ -n "$promotions" && "$promotions" != "0" ]] \
  || { echo "fairrank_replica_promotions_total is ${promotions:-missing} on the follower" >&2; exit 1; }
echo "$fmetrics" | grep -q '^fairrank_replica_reads_total{path="local"}' \
  || { echo "no local replica-read series on the follower" >&2; exit 1; }
echo "$fmetrics" | grep -q '^fairrank_replica_factor 1' \
  || { echo "follower does not report replica factor 1" >&2; exit 1; }
echo "== replica stage: promotion and fan-out metrics verified"

kill -9 "$pid4" "$pid5" 2>/dev/null || true
[[ "$owner" != "node-r0" ]] && kill -9 "$pid3" 2>/dev/null || true
echo "== replica stage passed: owner kill survived with zero rebuilds"
