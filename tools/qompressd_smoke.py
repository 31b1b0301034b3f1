#!/usr/bin/env python3
"""Over-the-wire smoke checks against a live qompressd.

    python3 tools/qompressd_smoke.py build/qompressd calibration
    python3 tools/qompressd_smoke.py build/qompressd warm-restart [--store=PATH]
    python3 tools/qompressd_smoke.py build/qompressd loadgen \
        --loadgen=build/bench_loadgen [--out=FILE]

Each check boots the server on an ephemeral port (--port=0, the port
read off its "listening on" line), talks to it over HTTP, stops it
with SIGTERM and requires exit status 0. Exits non-zero on the first
failed check.

calibration: warms two zoo devices, POSTs a qcal calibration to one,
and checks the re-keying contract on /metrics: the calibrated device
misses once (stale key) and then hits its fresh entry, the other
device's warm entry survives, and the counter partition holds.

warm-restart: boots on an artifact store, replays CATALOG, restarts on
the same store and replays it again. Boot 1 must leave records in the
store; boot 2 must answer from the disk tier (diskHits > 0) with zero
misses, i.e. zero full compiles, and zero disk writes (keys the store
already holds are never rewritten). --store=PATH serves (and keeps) that
store file, as CI does to carry it across runs; without it the store
lives in a temporary directory.

loadgen: runs `bench_loadgen --quick --check` against the booted server
over real sockets (the full traffic mix; --check asserts zero 5xx, the
counter partition, template-tier hits from sweep traffic and malformed
QASM answered with 400s) and requires it to exit 0. --out=FILE keeps
its JSON, which CI gates against BENCH_loadgen.json.
"""

import argparse
import contextlib
import json
import os
import re
import subprocess
import sys
import tempfile
import urllib.request

# The warm-restart request catalog. CI keys its cached store on this
# file, so a catalog change rebuilds the store from scratch.
CATALOG = [
    "/compile?family=bv&sizes=8,10",
    "/compile?family=qaoa_random&sizes=8,10",
    "/compile?family=bv&size=12&strategy=awe",
    # By-name requests resolve against a registry device snapshot.
    "/compile?family=qaoa_random&size=10&device=heavyhex65",
    "/compile?family=bv&size=10&device=grid64&strategy=rb",
]


@contextlib.contextmanager
def qompressd(binary, *flags):
    """Yields a GET/POST helper for a booted server; stops it after."""
    server = subprocess.Popen(
        [binary, "--port=0", "--workers=2", *flags],
        stdout=subprocess.PIPE, text=True)
    try:
        banner = server.stdout.readline()  # flushed once listening
        port = re.search(r"listening on [^:\s]+:(\d+)", banner)
        assert port, f"no 'listening on' line: {banner!r}"
        address = f"127.0.0.1:{port.group(1)}"

        def get(path, data=None):
            with urllib.request.urlopen(f"http://{address}{path}", data,
                                        timeout=60) as r:
                return json.load(r)

        get.address = address
        yield get
    finally:
        server.terminate()
        server.wait(timeout=30)
    assert server.returncode == 0, f"qompressd exited {server.returncode}"


def calibration(binary):
    with qompressd(binary, "--debug-endpoints") as get:
        def counter(name):
            return get("/metrics")["service"][name]

        def compile_on(device):
            get(f"/compile?family=bv&size=8&strategy=eqm&device={device}")

        compile_on("falcon27")  # miss (cold)
        compile_on("ring65")    # miss (cold)
        compile_on("falcon27")  # hit (warm)
        assert counter("misses") == 2 and counter("hits") == 1, \
            get("/metrics")
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
        assert s["requests"] == (s["hits"] + s["templateHits"]
                                 + s["diskHits"] + s["misses"]
                                 + s["coalesced"]), s
        assert doc["devices"]["falcon27"]["calVersion"] == 1, doc


def warm_restart(binary, store):
    def boot_and_replay():
        with qompressd(binary, f"--store={store}") as get:
            for target in CATALOG:
                get(target)
            return get("/metrics")["service"]

    first = boot_and_replay()
    assert first["storeRecords"] > 0, first
    second = boot_and_replay()
    print(f"boot1 records={first['storeRecords']}; "
          f"boot2 diskHits={second['diskHits']} misses={second['misses']} "
          f"diskWrites={second['diskWrites']}")
    assert second["diskHits"] > 0, second
    assert second["misses"] == 0, second
    assert second["diskWrites"] == 0, second


def loadgen(binary, loadgen_binary, out):
    with qompressd(binary, "--queue=128") as get:
        cmd = [loadgen_binary, "--quick", "--check",
               f"--connect={get.address}"]
        if out:
            cmd.append(f"--out={out}")
        status = subprocess.run(cmd).returncode
    assert status == 0, f"bench_loadgen exited {status}"


def main():
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawTextHelpFormatter)
    parser.add_argument("binary", help="path to the qompressd binary")
    parser.add_argument("check",
                        choices=["calibration", "warm-restart", "loadgen"])
    parser.add_argument("--store", help="warm-restart store file to keep")
    parser.add_argument("--loadgen", help="loadgen: bench_loadgen binary")
    parser.add_argument("--out", help="loadgen: file for its JSON")
    args = parser.parse_args()
    if args.check == "loadgen" and not args.loadgen:
        parser.error("loadgen needs --loadgen=PATH")
    if args.check == "calibration":
        calibration(args.binary)
    elif args.check == "loadgen":
        loadgen(args.binary, args.loadgen, args.out)
    elif args.store:
        os.makedirs(os.path.dirname(os.path.abspath(args.store)),
                    exist_ok=True)
        warm_restart(args.binary, args.store)
    else:
        with tempfile.TemporaryDirectory() as tmp:
            warm_restart(args.binary, os.path.join(tmp, "artifacts.qst"))
    print(f"{args.check} smoke: PASS")


if __name__ == "__main__":
    main()
