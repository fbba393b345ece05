#!/usr/bin/env bash
# Serve smoke test: bit-identical resubmission, the protocol-version gate,
# ids and reply BLIF read back by independent implementations (Python's
# json, `xsynth verify`), SIGTERM (exit 143), stale-socket reclaim and wire
# shutdown (exit 0).
#
# Usage: ci/serve-smoke.sh [XSYNTH_BINARY]   (default ./target/release/xsynth)
#
# Runs under `bash -eo pipefail` (the GitHub runner's shell): every
# expected non-zero exit status is read with `|| code=$?`, so it reaches
# its check instead of ending the script.
set -eo pipefail
XSYNTH=${1:-./target/release/xsynth}
"$XSYNTH" serve --socket /tmp/xsynth-ci.sock --workers 2 &
SRV=$!
for i in $(seq 50); do [ -S /tmp/xsynth-ci.sock ] && break; sleep 0.1; done
[ -S /tmp/xsynth-ci.sock ] || { echo "daemon never bound its socket"; exit 1; }
python3 - <<'PY'
import json, socket
blif = (".model m\n.inputs a b c\n.outputs s co\n"
        ".names a b c s\n100 1\n010 1\n001 1\n111 1\n"
        ".names a b c co\n11- 1\n1-1 1\n-11 1\n.end\n")
s = socket.socket(socket.AF_UNIX)
s.connect("/tmp/xsynth-ci.sock")
f = s.makefile("rw", encoding="utf-8")
def rpc(obj, ascii=True):
    f.write(json.dumps(obj, ensure_ascii=ascii) + "\n")
    f.flush()
    return json.loads(f.readline())
req = {"protocol_version": 1, "op": "synth", "format": "blif", "source": blif}
cold = rpc(req)
assert cold["status"] == "ok", cold
warm = rpc(req)
assert warm["status"] == "ok", warm
assert "cache" not in warm, warm
assert warm["network_blif"] == cold["network_blif"], "warm run must be bit-identical"
metrics = rpc({"protocol_version": 1, "op": "metrics"})
assert metrics["status"] == "ok", metrics
bad = rpc({"protocol_version": 99, "op": "ping"})
assert bad["status"] == "error" and bad["error"]["exit_code"] == 10, bad
# an id with a quote, a backslash, a slash, a control character, a
# two-byte and an astral character comes back unchanged, sent escaped
# (\\uXXXX, surrogate pairs included) or as raw UTF-8
odd = 'q"b\\s/c\x01\u00e9\U0001f4a1'
for ascii in (True, False):
    echo = rpc(dict(req, id=odd), ascii)
    assert echo["status"] == "ok" and echo["id"] == odd, echo
# inputs named like the writer's gate labels: the reply must still read
# back as the source's function (checked by `xsynth verify` below)
for first in (0, 4):
    ins = " ".join(f"n{first + i}" for i in range(4))
    named = (f".model nn\n.inputs {ins}\n.outputs f g\n"
             f".names {ins} f\n10-- 1\n01-- 1\n--11 1\n"
             f".names {ins} g\n1111 1\n.end\n")
    r = rpc(dict(req, source=named))
    assert r["status"] == "ok", r
    open(f"/tmp/xsynth-ci-n{first}.blif", "w").write(named)
    open(f"/tmp/xsynth-ci-n{first}-reply.blif", "w").write(r["network_blif"])
print("serve smoke: bit-identical resubmission + protocol gate + wire text OK")
PY
for first in 0 4; do
  "$XSYNTH" verify /tmp/xsynth-ci-n$first.blif /tmp/xsynth-ci-n$first-reply.blif
done
# std-only daemon installs no signal handler: SIGTERM terminates (143)
kill -TERM $SRV
code=0; wait "$SRV" || code=$?
[ "$code" = "143" ] || { echo "SIGTERM exit $code, want 143"; exit 1; }
# a second daemon reclaims the stale socket left by the kill
"$XSYNTH" serve --socket /tmp/xsynth-ci.sock --workers 1 &
SRV2=$!
for i in $(seq 50); do [ -S /tmp/xsynth-ci.sock ] && break; sleep 0.1; done
python3 - <<'PY'
import json, socket
s = socket.socket(socket.AF_UNIX)
s.connect("/tmp/xsynth-ci.sock")
f = s.makefile("rw")
f.write(json.dumps({"protocol_version": 1, "op": "shutdown"}) + "\n")
f.flush()
ack = json.loads(f.readline())
assert ack["status"] == "ok" and ack["op"] == "shutdown", ack
PY
code=0; wait "$SRV2" || code=$?
[ "$code" = "0" ] || { echo "graceful shutdown exit $code, want 0"; exit 1; }
