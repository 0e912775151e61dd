#!/usr/bin/env python3
"""Repo benchmark entry point.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Builds perfbench/hornet_bench (the hornet library from src/ plus the
benchmark program) into $CARGO_TARGET_DIR, default .bench_build, runs one
workload for S seconds, applies the correctness gates to the program's
record, and prints two lines: the host-stamped record ("record: {...}")
and, last, the result object with the keys correct, attempted, failed
and metrics. --trace 0 reports the end-to-end metrics of BENCHMARK.json,
--trace 1 its per-layer metrics. See perfbench/README.md.
"""

import argparse
import collections
import copy
import hashlib
import json
import os
import pathlib
import shutil
import subprocess
import sys

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
DEFAULT_SEED = 1
RUN_TIMEOUT_S = 170


def die(msg, code=1):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(code)


def build():
    """Configure (once) and build hornet_bench; returns its path."""
    if not (ROOT / "src" / "sim" / "system.h").is_file():
        die(f"hornet sources not found under {ROOT / 'src'}", 2)
    build_dir = ROOT / os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    # Keep every file the build writes inside the build directory: no
    # compiler cache, and the compiler's temporary files under it.
    tmp = build_dir / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    env = dict(os.environ, CCACHE_DISABLE="1", TMPDIR=str(tmp))
    out = dict(stdout=sys.stderr, stderr=sys.stderr, env=env)
    if not (build_dir / "CMakeCache.txt").is_file():
        cmd = ["cmake", "-S", str(HERE), "-B", str(build_dir),
               "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, **out).returncode != 0:
            die("cmake configure failed")
    jobs = str(os.cpu_count() or 1)
    if subprocess.run(["cmake", "--build", str(build_dir), "-j", jobs],
                      **out).returncode != 0:
        die("build failed")
    return build_dir / "hornet_bench"


def source_digest():
    """SHA-256 over the library and benchmark sources: identifies the
    code measured where no git commit is available."""
    h = hashlib.sha256()
    for base in (ROOT / "src", HERE):
        for p in sorted(base.rglob("*")):
            if p.is_file() and p.suffix in (".h", ".cc", ".py", ".txt",
                                            ".json"):
                h.update(str(p.relative_to(ROOT)).encode())
                h.update(p.read_bytes())
    return h.hexdigest()


def git_commit():
    if not (ROOT / ".git").exists():
        return None
    r = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                       capture_output=True, text=True)
    return r.stdout.strip() if r.returncode == 0 else None


# ---------------------------------------------------------------------
# Correctness gates. An operation is one simulated run, or one job of a
# sweep; a sweep-level mismatch fails every job of that sweep.
# ---------------------------------------------------------------------

def evaluate(record, goldens):
    """Returns (attempted, failed, Counter of failure reasons)."""
    ops = record["ops"]
    golden = goldens.get(record["workload"]) \
        if record["seed"] == DEFAULT_SEED else None
    # Lockstep runs are deterministic: every operation of one
    # invocation (any thread count, construction path or worker count)
    # must agree with the majority fingerprint.
    majority = collections.Counter(
        op["fingerprint"] for op in ops).most_common(1)[0][0]
    expected = record.get("expected_checksums")
    attempted = failed = 0
    reasons = collections.Counter()
    for op in ops:
        why = []
        if "error" in op:
            why.append("error")
        if golden is not None and op["fingerprint"] != golden:
            why.append("golden")
        if op["fingerprint"] != majority:
            why.append("identity")
        if expected is not None and op["checksums"] != expected:
            why.append("checksum")
        if not op.get("halted", True):
            why.append("halted")
        if "jobs" in op:
            attempted += op["jobs"]
            undrained = sum(1 for i, d in zip(op["job_flits_injected"],
                                              op["job_flits_delivered"])
                            if i != d or i == 0)
            if why:
                failed += op["jobs"]
            elif undrained:
                why.append("drain")
                failed += undrained
        else:
            attempted += 1
            inj, dlv = op["flits_injected"], op["flits_delivered"]
            if not 0 < dlv <= inj or (op["drains"] and dlv != inj):
                why.append("conservation")
            failed += 1 if why else 0
        reasons.update(why)
    return attempted, failed, reasons


def flip(fingerprint):
    return format(int(fingerprint, 16) ^ 1, "016x")


def self_check(record, goldens):
    """Feeds each gate a corrupted golden or result and returns the
    names of the gates that failed to flag it."""
    w = record["workload"]
    cases = {}

    r = copy.deepcopy(record)
    r["seed"] = DEFAULT_SEED
    cases["golden"] = (r, {w: flip(goldens[w])}, "golden")

    r = copy.deepcopy(record)
    r["ops"][-1]["fingerprint"] = flip(r["ops"][-1]["fingerprint"])
    cases["identity"] = (r, goldens, "identity")

    r = copy.deepcopy(record)
    op = r["ops"][0]
    if "jobs" in op:
        op["job_flits_delivered"][0] -= 1
        cases["drain"] = (r, goldens, "drain")
    else:
        op["flits_delivered"] = op["flits_injected"] + 1
        cases["conservation"] = (r, goldens, "conservation")

    if "expected_checksums" in record:
        r = copy.deepcopy(record)
        r["expected_checksums"][0] ^= 1
        cases["checksum"] = (r, goldens, "checksum")
        r = copy.deepcopy(record)
        r["ops"][0]["halted"] = False
        cases["halted"] = (r, goldens, "halted")

    return [name for name, (rec, gold, reason) in cases.items()
            if evaluate(rec, gold)[2][reason] == 0]


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        die(f"unknown workload {args.workload}", 2)
    goldens = json.loads((HERE / "goldens.json").read_text())
    if goldens.pop("seed") != DEFAULT_SEED:
        die("goldens.json is not for the default seed", 2)

    exe = build()
    try:
        proc = subprocess.run(
            [str(exe), "--workload", args.workload, "--seed",
             str(args.seed), "--seconds", str(args.seconds), "--trace",
             str(args.trace)],
            stdout=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        die(f"hornet_bench exceeded {RUN_TIMEOUT_S} s")
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        die(f"hornet_bench failed with exit code {proc.returncode}")
    record = json.loads(lines[-1])

    attempted, failed, reasons = evaluate(record, goldens)
    blind = self_check(record, goldens)
    for name in blind:
        print(f"perfbench: self-check: the {name} gate did not flag a "
              "corrupted input", file=sys.stderr)
    for reason, n in sorted(reasons.items()):
        print(f"perfbench: {n} operation(s) failed the {reason} gate",
              file=sys.stderr)

    record["host"]["git_commit"] = git_commit()
    record["host"]["source_sha256"] = source_digest()
    record["gates"] = {"failed_by_reason": dict(reasons),
                       "self_check_blind": blind}
    print("record: " + json.dumps(record, separators=(",", ":")))

    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    missing = [m["name"] for m in wanted if m["name"] not in record["metrics"]]
    if missing:
        die(f"hornet_bench did not report {', '.join(missing)}")
    metrics = {m["name"]: {"value": record["metrics"][m["name"]],
                           "unit": m["unit"]} for m in wanted}
    print(json.dumps({"correct": failed == 0 and not blind,
                      "attempted": attempted, "failed": failed,
                      "metrics": metrics}))


if __name__ == "__main__":
    main()
