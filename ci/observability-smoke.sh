#!/usr/bin/env bash
# Daemon observability smoke test: the metrics exposition, the `recent`
# flight recorder, request IDs and one `xsynth top` frame.
#
# Usage: ci/observability-smoke.sh [XSYNTH_BINARY]   (default ./target/release/xsynth)
#
# Runs under `bash -eo pipefail` (the GitHub runner's shell): every
# expected non-zero exit status is read with `|| code=$?`, so it reaches
# its check instead of ending the script.
set -eo pipefail
XSYNTH=${1:-./target/release/xsynth}
"$XSYNTH" serve --socket /tmp/xsynth-obs.sock --workers 2 &
SRV=$!
for i in $(seq 50); do [ -S /tmp/xsynth-obs.sock ] && break; sleep 0.1; done
[ -S /tmp/xsynth-obs.sock ] || { echo "daemon never bound its socket"; exit 1; }
python3 - <<'PY'
import json, socket
blif = (".model m\n.inputs a b c\n.outputs s co\n"
        ".names a b c s\n100 1\n010 1\n001 1\n111 1\n"
        ".names a b c co\n11- 1\n1-1 1\n-11 1\n.end\n")
s = socket.socket(socket.AF_UNIX)
s.connect("/tmp/xsynth-obs.sock")
f = s.makefile("rw")
def rpc(obj):
    f.write(json.dumps(obj) + "\n")
    f.flush()
    return json.loads(f.readline())
# run a few jobs: one with a client-supplied request ID, the rest anonymous
req = {"protocol_version": 1, "op": "synth", "format": "blif",
       "source": blif, "id": "ci-obs-1"}
r = rpc(req)
assert r["status"] == "ok" and r["id"] == "ci-obs-1", r
assigned = []
for _ in range(2):
    r = rpc({"protocol_version": 1, "op": "synth", "format": "blif", "source": blif})
    assert r["status"] == "ok", r
    assert r["id"].startswith("job-"), r
    assigned.append(r["id"])
# scrape the exposition and check shape + content
m = rpc({"protocol_version": 1, "op": "metrics"})
assert m["status"] == "ok" and m["op"] == "metrics", m
text = m["text"]
for name in ["xsynth_jobs_total", "xsynth_requests_total",
             "xsynth_uptime_seconds", "xsynth_workers",
             "xsynth_job_seconds_bucket", "xsynth_job_seconds_p50",
             "xsynth_job_seconds_p99", "xsynth_queue_seconds",
             "xsynth_job_bdd_nodes", "xsynth_bdd_peak_nodes"]:
    assert name in text, f"missing metric {name}\n{text}"
ok_jobs = [l for l in text.splitlines()
           if l.startswith('xsynth_jobs_total{outcome="ok"}')]
assert ok_jobs and float(ok_jobs[0].split()[-1]) == 3, ok_jobs
inf = [l for l in text.splitlines()
       if l.startswith("xsynth_job_seconds_bucket") and 'le="+Inf"' in l]
assert inf and float(inf[0].split()[-1]) == 3, inf
p50 = [l for l in text.splitlines() if l.startswith("xsynth_job_seconds_p50 ")]
assert p50 and float(p50[0].split()[-1]) > 0, p50
# the flight recorder replays the jobs, ids intact, newest first
rec = rpc({"protocol_version": 1, "op": "recent"})
assert rec["status"] == "ok" and rec["count"] == 3, rec
ids = [j["id"] for j in rec["jobs"]]
assert ids == [assigned[1], assigned[0], "ci-obs-1"], ids
assert all(j["outcome"] == "ok" for j in rec["jobs"]), rec
rec1 = rpc({"protocol_version": 1, "op": "recent", "limit": 1})
assert rec1["count"] == 1 and rec1["jobs"][0]["id"] == assigned[1], rec1
print("observability smoke: metrics + recent + request IDs OK")
f.write(json.dumps({"protocol_version": 1, "op": "shutdown"}) + "\n")
f.flush()
ack = json.loads(f.readline())
assert ack["status"] == "ok" and ack["op"] == "shutdown", ack
PY
code=0; wait "$SRV" || code=$?
[ "$code" = "0" ] || { echo "graceful shutdown exit $code, want 0"; exit 1; }
# one frame of the live dashboard against a fresh daemon
"$XSYNTH" serve --socket /tmp/xsynth-obs2.sock --workers 1 &
SRV2=$!
for i in $(seq 50); do [ -S /tmp/xsynth-obs2.sock ] && break; sleep 0.1; done
"$XSYNTH" top /tmp/xsynth-obs2.sock --once | tee /tmp/top-frame.txt
grep -q "xsynth serve @" /tmp/top-frame.txt || { echo "top frame missing header"; exit 1; }
python3 - <<'PY'
import json, socket
s = socket.socket(socket.AF_UNIX)
s.connect("/tmp/xsynth-obs2.sock")
f = s.makefile("rw")
f.write(json.dumps({"protocol_version": 1, "op": "shutdown"}) + "\n")
f.flush()
json.loads(f.readline())
PY
code=0; wait "$SRV2" || code=$?
[ "$code" = "0" ] || { echo "dashboard daemon shutdown exit $code, want 0"; exit 1; }
