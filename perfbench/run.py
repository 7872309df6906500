#!/usr/bin/env python3
"""End-to-end benchmark of the fat-tree routing / ordering / CPS library.

Run from the repository root:

    python3 perfbench/run.py --workload audit-11664 --seed 1 --seconds 10 --trace 0

Builds the `perfbench` program (and the library, through the repository's own
CMake build) into .bench_build/perfbench, runs one workload, compares the
run's deterministic model outputs against perfbench/pins.json, and prints as
its last stdout line one JSON object with the keys correct, attempted, failed
and metrics. Exits 0 only when every checked operation passed.

Other modes:
    --quick              128/324-node fabrics through the same code
    --corrupt-lft        flip one LFT entry (audit); must be reported as failed
    --write-pins A-B     recompute the pins for seeds A..B (inclusive)
"""
import argparse
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "perfbench"
BINARY = BUILD / "perfbench"
PINS = HERE / "pins.json"
WORKLOADS = ("audit-11664", "sim-1944", "churn-648")
RUN_TIMEOUT_S = 170


def die(message, code=2):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(code)


def build():
    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src").is_dir():
        die(f"library sources not found in {ROOT} (need CMakeLists.txt and src/)")
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not (BUILD / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(HERE), "-B", str(BUILD),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(BUILD), "--target", "perfbench",
                  "-j", jobs])
    for step in steps:
        try:
            done = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr,
                                  timeout=880)
        except (OSError, subprocess.TimeoutExpired) as err:
            die(f"build failed: {err}")
        if done.returncode != 0:
            die(f"build failed: {' '.join(step)} exited {done.returncode}")


def source_digest():
    """The git commit, or a digest of the sources the benchmark builds when
    the checkout is not a git repository."""
    if (ROOT / ".git").exists():
        try:
            head = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                                  capture_output=True, text=True, timeout=10)
            if head.returncode == 0:
                return head.stdout.strip()
        except (OSError, subprocess.TimeoutExpired):
            pass
    h = hashlib.sha256()
    files = [ROOT / "CMakeLists.txt"]
    for top in (ROOT / "src", HERE):
        files += [p for p in top.rglob("*") if p.is_file()]
    for path in sorted(files):
        h.update(str(path.relative_to(ROOT)).encode())
        h.update(path.read_bytes())
    return "tree-sha256:" + h.hexdigest()[:16]


def run_binary(args):
    """Run the benchmark program; returns (exit code, model, meta, result)."""
    try:
        done = subprocess.run([str(BINARY)] + args, stdout=subprocess.PIPE,
                              text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        die(f"perfbench exceeded {RUN_TIMEOUT_S} s", 3)
    lines = done.stdout.strip().splitlines()
    if done.returncode == 2 or not lines:
        die(f"perfbench exited {done.returncode} without a result", 3)
    fields = {}
    for line in lines[:-1]:
        key, _, rest = line.partition(" ")
        if key in ("model", "meta"):
            fields[key] = json.loads(rest)
    return (done.returncode, fields.get("model", {}), fields.get("meta", {}),
            json.loads(lines[-1]))


def pin_key(workload, quick):
    return ("quick:" if quick else "") + workload


def check_pins(pins, workload, quick, seed, model):
    """Failures of the model outputs against the pins, plus coverage note."""
    entry = pins.get(pin_key(workload, quick))
    if entry is None:
        return [f"no pins for {pin_key(workload, quick)}"], "none"
    failures = []
    fixed = {k: v for k, v in model.items() if not k.startswith("seed.")}
    seeded = {k: v for k, v in model.items() if k.startswith("seed.")}
    if fixed != entry["fixed"]:
        failures.append(f"model {fixed} != pinned {entry['fixed']}")
    pinned_seed = entry["seeds"].get(str(seed))
    if pinned_seed is None:
        return failures, "fixed"
    if seeded != pinned_seed:
        failures.append(f"seed {seed} model {seeded} != pinned {pinned_seed}")
    return failures, "fixed+seed"


def write_pins(seeds, quick_seeds):
    pins = json.loads(PINS.read_text()) if PINS.is_file() else {}
    for quick, seed_list in ((False, seeds), (True, quick_seeds)):
        for workload in WORKLOADS:
            entry = {"fixed": None, "seeds": {}}
            for seed in seed_list:
                args = ["--workload", workload, "--seed", str(seed),
                        "--seconds", "1", "--trace", "0", "--pin-only"]
                code, model, _, _ = run_binary(args + (["--quick"] if quick else []))
                if code != 0:
                    die(f"{workload} seed {seed} failed its checks", 1)
                fixed = {k: v for k, v in model.items() if not k.startswith("seed.")}
                if entry["fixed"] not in (None, fixed):
                    die(f"{workload}: seed-independent outputs vary with the seed", 1)
                entry["fixed"] = fixed
                entry["seeds"][str(seed)] = {
                    k: v for k, v in model.items() if k.startswith("seed.")}
                print(f"pinned {pin_key(workload, quick)} seed {seed}",
                      file=sys.stderr)
            pins[pin_key(workload, quick)] = entry
    PINS.write_text(json.dumps(pins, indent=1, sort_keys=True) + "\n")


def seed_range(text):
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", choices=("0", "1"), default="0")
    parser.add_argument("--quick", action="store_true")
    parser.add_argument("--corrupt-lft", action="store_true")
    parser.add_argument("--pins", type=Path, default=PINS,
                        help="pin file to compare against")
    parser.add_argument("--write-pins", type=seed_range, metavar="A-B")
    args = parser.parse_args()
    if args.seed < 0:
        die("--seed must be >= 0")

    build()
    if args.write_pins:
        write_pins(args.write_pins, seed_range("1-3"))
        return 0
    if args.workload is None:
        die("--workload is required")

    spans = BUILD / "spans" / f"{args.workload}-seed{args.seed}.json"
    spans.parent.mkdir(parents=True, exist_ok=True)
    binary_args = ["--workload", args.workload, "--seed", str(args.seed),
                   "--seconds", str(args.seconds), "--trace", args.trace,
                   "--spans-out", str(spans)]
    if args.quick:
        binary_args.append("--quick")
    if args.corrupt_lft:
        binary_args.append("--corrupt-lft")
    code, model, meta, result = run_binary(binary_args)

    try:
        pins = json.loads(args.pins.read_text())
    except (OSError, ValueError) as err:
        pins = {}
        print(f"perfbench: cannot read pins: {err}", file=sys.stderr)
    failures, coverage = check_pins(pins, args.workload, args.quick,
                                    args.seed, model)
    for failure in failures:
        print(f"perfbench: pin check failed: {failure}", file=sys.stderr)
    result["attempted"] += 1
    result["failed"] += 1 if failures else 0
    result["correct"] = result["failed"] == 0
    meta["commit"] = source_digest()
    meta["pins_checked"] = coverage
    print("model " + json.dumps(model, sort_keys=True))
    print("meta " + json.dumps(meta, sort_keys=True))
    print(json.dumps(result, sort_keys=True), flush=True)
    return 0 if result["correct"] and code == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
