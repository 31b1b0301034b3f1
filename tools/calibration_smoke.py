#!/usr/bin/env python3
"""Calibration-invalidation smoke test against a live qompressd.

    python3 tools/calibration_smoke.py build/qompressd

Boots the server on an ephemeral port, warms two zoo devices, POSTs a
qcal calibration to one, and checks the re-keying contract on /metrics:
the calibrated device misses once (stale key) and then hits its fresh
entry, the other device's warm entry survives, and the counter
partition holds. Exits non-zero on the first failed check.
"""

import json
import re
import subprocess
import sys
import urllib.request


def run(base):
    def get(path, data=None):
        with urllib.request.urlopen(base + path, data, timeout=60) as r:
            return json.load(r)

    def counter(name):
        return get("/metrics")["service"][name]

    def compile_on(device):
        get(f"/compile?family=bv&size=8&strategy=eqm&device={device}")

    compile_on("falcon27")  # miss (cold)
    compile_on("ring65")    # miss (cold)
    compile_on("falcon27")  # hit (warm)
    assert counter("misses") == 2 and counter("hits") == 1, get("/metrics")
    devices = {d["name"]: d for d in get("/devices")["devices"]}
    assert not devices["falcon27"]["calibrated"], devices

    qcal = ["qcal 1", "device falcon27", "units 27"] + [
        f"unit {u} t1q 120000 t1qq 40000 ro 0.01" for u in range(27)]
    reply = get("/devices/falcon27/calibration",
                ("\n".join(qcal) + "\n").encode())
    assert reply["calVersion"] == 1, reply

    compile_on("falcon27")  # miss: the install re-keyed the device
    assert counter("misses") == 3, get("/metrics")
    compile_on("falcon27")  # hit: its own fresh entry
    compile_on("ring65")    # hit: the unrelated warm entry survived
    doc = get("/metrics")
    s = doc["service"]
    assert s["hits"] == 3, s
    assert s["requests"] == (s["hits"] + s["templateHits"] + s["diskHits"]
                             + s["misses"] + s["coalesced"]), s
    assert doc["devices"]["falcon27"]["calVersion"] == 1, doc


def main():
    server = subprocess.Popen(
        [sys.argv[1], "--port=0", "--workers=2", "--debug-endpoints"],
        stdout=subprocess.PIPE, text=True)
    try:
        banner = server.stdout.readline()  # flushed once listening
        port = re.search(r"listening on [^:\s]+:(\d+)", banner)
        assert port, f"no 'listening on' line: {banner!r}"
        run(f"http://127.0.0.1:{port.group(1)}")
    finally:
        server.terminate()
        server.wait(timeout=30)
    assert server.returncode == 0, f"qompressd exited {server.returncode}"
    print("calibration smoke: PASS")


if __name__ == "__main__":
    main()
