#!/usr/bin/env bash
# Overload and drain smoke test: a flood sheds typed `overloaded` replies
# and the daemon recovers; the supervised daemon runs with the flags the
# supervisor was given; a SIGTERM on the supervisor (exit 143) drains
# every queued job and unlinks the socket.
#
# Usage: ci/overload-smoke.sh [XSYNTH_BINARY]   (default ./target/release/xsynth)
#
# Runs under `bash -eo pipefail` (the GitHub runner's shell): every
# expected non-zero exit status is read with `|| code=$?`, so it reaches
# its check instead of ending the script.
set -eo pipefail
XSYNTH=${1:-./target/release/xsynth}
# -- flood: tiny queues, one worker; sheds must be typed and the
#    daemon must recover as soon as the burst passes
"$XSYNTH" serve --socket /tmp/xsynth-load.sock \
    --workers 1 --queue 2 --global-queue 4 &
SRV=$!
for i in $(seq 50); do [ -S /tmp/xsynth-load.sock ] && break; sleep 0.1; done
[ -S /tmp/xsynth-load.sock ] || { echo "daemon never bound its socket"; exit 1; }
python3 - <<'PY'
import json, socket, time
blif = (".model m\n.inputs a b c\n.outputs s co\n"
        ".names a b c s\n100 1\n010 1\n001 1\n111 1\n"
        ".names a b c co\n11- 1\n1-1 1\n-11 1\n.end\n")
s = socket.socket(socket.AF_UNIX)
s.connect("/tmp/xsynth-load.sock")
f = s.makefile("rw")
burst = 40
for i in range(burst):
    f.write(json.dumps({"protocol_version": 1, "op": "synth",
                        "format": "blif", "source": blif,
                        "id": f"flood-{i}"}) + "\n")
f.flush()
ok = shed = 0
hints = []
for _ in range(burst):
    r = json.loads(f.readline())
    if r["status"] == "ok":
        ok += 1
    else:
        e = r["error"]
        assert e["kind"] == "overloaded" and e["exit_code"] == 11, r
        assert e["retry_after_ms"] >= 1, r
        shed += 1
        hints.append(e["retry_after_ms"])
assert ok + shed == burst, (ok, shed)
assert ok >= 1 and shed >= 1, (ok, shed)
def rpc(obj):
    f.write(json.dumps(obj) + "\n")
    f.flush()
    return json.loads(f.readline())
# the shed counter is exported
text = rpc({"protocol_version": 1, "op": "metrics"})["text"]
line = [l for l in text.splitlines() if l.startswith("xsynth_jobs_shed_total ")]
assert line and float(line[0].split()[-1]) >= shed, line
assert "xsynth_jobs_cancelled_total" in text, text
# client-style backoff: honor the server hint once, then succeed
time.sleep(min(hints) / 1000.0)
r = rpc({"protocol_version": 1, "op": "synth", "format": "blif",
         "source": blif, "id": "after-flood"})
assert r["status"] == "ok", r
h = rpc({"protocol_version": 1, "op": "health"})
assert h["status"] == "ok" and h["state"] == "ready", h
print(f"overload smoke: {ok} ok + {shed} shed, recovery + health OK")
rpc({"protocol_version": 1, "op": "shutdown"})
PY
code=0; wait "$SRV" || code=$?
[ "$code" = "0" ] || { echo "post-flood shutdown exit $code, want 0"; exit 1; }
# -- SIGTERM drain under load: the supervisor dies 143, the daemon
#    answers or sheds its backlog and unlinks the socket
"$XSYNTH" serve --socket /tmp/xsynth-drain.sock \
    --workers 1 --global-queue 7 --drain-on-term --drain-timeout-ms 3000 &
SUP=$!
for i in $(seq 50); do [ -S /tmp/xsynth-drain.sock ] && break; sleep 0.1; done
[ -S /tmp/xsynth-drain.sock ] || { echo "supervised daemon never bound"; exit 1; }
# the child re-executes with the supervisor's own arguments
python3 - <<'PY'
import json, socket
s = socket.socket(socket.AF_UNIX)
s.connect("/tmp/xsynth-drain.sock")
f = s.makefile("rw")
f.write(json.dumps({"protocol_version": 1, "op": "health"}) + "\n")
f.flush()
h = json.loads(f.readline())
assert h["status"] == "ok" and h["queue_capacity"] == 7, h
print("drain smoke: supervised daemon reports queue_capacity 7")
PY
python3 - <<'PY' &
import json, socket
blif = (".model m\n.inputs a b c\n.outputs s co\n"
        ".names a b c s\n100 1\n010 1\n001 1\n111 1\n"
        ".names a b c co\n11- 1\n1-1 1\n-11 1\n.end\n")
s = socket.socket(socket.AF_UNIX)
s.connect("/tmp/xsynth-drain.sock")
f = s.makefile("rw")
n = 10
for i in range(n):
    f.write(json.dumps({"protocol_version": 1, "op": "synth",
                        "format": "blif", "source": blif,
                        "id": f"drain-{i}"}) + "\n")
f.flush()
answered = 0
while True:
    line = f.readline()
    if not line:
        break
    r = json.loads(line)
    assert r["status"] == "ok" or r["error"]["kind"] == "overloaded", r
    answered += 1
assert answered == n, f"drain answered {answered} of {n}"
print(f"drain smoke: all {n} queued jobs answered or shed")
PY
CLIENT=$!
sleep 0.3   # let the burst land in the queue
kill -TERM $SUP
code=0; wait "$SUP" || code=$?
[ "$code" = "143" ] || { echo "supervisor SIGTERM exit $code, want 143"; exit 1; }
wait "$CLIENT" || { echo "drain client failed"; exit 1; }
for i in $(seq 100); do [ ! -S /tmp/xsynth-drain.sock ] && break; sleep 0.1; done
[ ! -S /tmp/xsynth-drain.sock ] || { echo "drained daemon left its socket behind"; exit 1; }
