#!/usr/bin/env python3
"""Self-test of the end-to-end benchmark (quick mode, about a minute).

Run from the repository root:

    python3 perfbench/selftest.py

Checks, through run.py exactly as the benchmark is run:
  * every workload passes at 128/324 nodes, untraced and traced, and prints
    exactly the end-to-end (untraced) or per-layer (traced) metrics named in
    BENCHMARK.json;
  * the traced run writes its spans file;
  * one corrupted LFT entry is reported as a failed operation;
  * a model output that disagrees with its pin is reported as a failed
    operation;
  * without the library sources the runner exits non-zero and prints no
    result.
"""
import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SCRATCH = ROOT / ".bench_build" / "selftest"
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
END_TO_END = {m["name"] for m in SPEC["end_to_end"]}
PER_LAYER = {m["name"] for m in SPEC["per_layer"]}

failures = []


def run(args, cwd=ROOT):
    return subprocess.run([sys.executable, "perfbench/run.py"] + args, cwd=cwd,
                          capture_output=True, text=True, timeout=900)


def result(proc):
    lines = proc.stdout.strip().splitlines()
    try:
        return json.loads(lines[-1]) if lines else None
    except ValueError:
        return None


def expect(ok, what):
    print(("ok   " if ok else "FAIL ") + what)
    if not ok:
        failures.append(what)


def quick(workload, trace, *extra):
    return run(["--workload", workload, "--seed", "1", "--seconds", "1",
                "--trace", trace, "--quick", *extra])


def main():
    SCRATCH.mkdir(parents=True, exist_ok=True)
    for workload in ("audit-11664", "sim-1944", "churn-648"):
        for trace, names in (("0", END_TO_END), ("1", PER_LAYER)):
            proc = quick(workload, trace)
            res = result(proc)
            expect(proc.returncode == 0 and res is not None and res["correct"]
                   and res["failed"] == 0 and res["attempted"] >= 1,
                   f"{workload} trace={trace} passes its checks")
            expect(res is not None and set(res["metrics"]) == names,
                   f"{workload} trace={trace} prints exactly its metrics")
            if trace == "0" and res is not None:
                expect(all(m["value"] > 0 for m in res["metrics"].values()),
                       f"{workload} end-to-end metrics are all non-zero")
        spans = ROOT / ".bench_build" / "perfbench" / "spans" / f"{workload}-seed1.json"
        try:
            doc = json.loads(spans.read_text())
            expect(len(doc["spans"]) > 0, f"{workload} traced run wrote spans")
        except (OSError, ValueError, KeyError):
            expect(False, f"{workload} traced run wrote spans")

    proc = quick("audit-11664", "0", "--corrupt-lft")
    res = result(proc)
    expect(proc.returncode != 0 and res is not None and not res["correct"]
           and res["failed"] >= 1,
           "a corrupted LFT entry counts as a failed operation")

    pins = json.loads((HERE / "pins.json").read_text())
    pins["quick:sim-1944"]["fixed"]["sim.topology.events"] += 1
    bad_pins = SCRATCH / "pins.json"
    bad_pins.write_text(json.dumps(pins))
    proc = quick("sim-1944", "0", "--pins", str(bad_pins))
    res = result(proc)
    expect(proc.returncode != 0 and res is not None and res["failed"] >= 1,
           "a model output that differs from its pin counts as failed")

    bare = SCRATCH / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    shutil.copytree(HERE, bare / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = run(["--workload", "audit-11664", "--seed", "1", "--seconds", "1",
                "--trace", "0"], cwd=bare)
    expect(proc.returncode != 0 and result(proc) is None,
           "without the library sources: non-zero exit and no result")
    shutil.rmtree(bare, ignore_errors=True)

    print(f"selftest: {len(failures)} failure(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
