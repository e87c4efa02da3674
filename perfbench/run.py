#!/usr/bin/env python3
"""Build and run the repository benchmark (see perfbench/README.md).

    python3 perfbench/run.py --workload <bulk_hack|dense_tcp|churn_roam> \
        --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. Builds `hack-perfbench` and the
repository's `bench` harness (release profile, offline) into
$CARGO_TARGET_DIR (default `.bench_build`), then runs one measurement
and relays its output. The last line of standard output is one JSON
object with `correct`, `attempted`, `failed` and `metrics`; with
`--trace 0` the metrics are the end-to-end ones of BENCHMARK.json, with
`--trace 1` its per-layer ones. Build output goes to standard error.
Exits non-zero, printing no result, if the build or the run fails.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("bulk_hack", "dense_tcp", "churn_roam")
# What the source fingerprint covers: everything the two builds read.
SOURCES = ("Cargo.toml", "Cargo.lock", "src", "crates", "perfbench")


def fail(msg):
    print(f"run.py: {msg}", file=sys.stderr)
    sys.exit(1)


def cargo_build(args, env):
    cmd = ["cargo", "build", "--release", "--offline", "--quiet"] + args
    if subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr).returncode != 0:
        fail("build failed: " + " ".join(cmd))


def revision():
    """The git revision when run from a clone, plus a digest of the
    sources either way (a plain checkout has no git metadata)."""
    rev = "none"
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True
        )
        if out.returncode == 0:
            rev = out.stdout.strip()
    except OSError:
        pass
    h = hashlib.sha256()
    for top in SOURCES:
        base = os.path.join(ROOT, top)
        paths = [base] if os.path.isfile(base) else []
        for d, dirs, files in os.walk(base):
            dirs[:] = sorted(x for x in dirs if x not in ("target", "out"))
            paths += [os.path.join(d, f) for f in sorted(files)]
        for p in paths:
            h.update(os.path.relpath(p, ROOT).encode())
            with open(p, "rb") as f:
                h.update(f.read())
    return f"{rev} src:{h.hexdigest()[:16]}"


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=int)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = ap.parse_args()
    if args.seed < 0 or args.seconds < 1:
        fail("--seed must be >= 0 and --seconds >= 1")

    env = dict(os.environ)
    target = os.path.join(ROOT, env.get("CARGO_TARGET_DIR", ".bench_build"))
    env["CARGO_TARGET_DIR"] = target
    manifest = os.path.join(HERE, "Cargo.toml")
    if not os.path.isfile(os.path.join(ROOT, "crates", "core", "Cargo.toml")):
        fail("the simulator sources (crates/) are missing; run from a full checkout")
    cargo_build(["--manifest-path", manifest], env)
    cargo_build(["--manifest-path", os.path.join(ROOT, "Cargo.toml"),
                 "-p", "hack-bench", "--bin", "bench"], env)

    rustc = subprocess.run(["rustc", "--version"], capture_output=True, text=True)
    out_dir = os.path.join(target, "perfbench-out")
    cmd = [
        os.path.join(target, "release", "hack-perfbench"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
        "--bench-bin", os.path.join(target, "release", "bench"),
        "--out", out_dir,
        "--rustc", rustc.stdout.strip() or "unknown",
        "--rev", revision(),
    ]
    run = subprocess.run(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True)
    lines = run.stdout.splitlines()
    if run.returncode != 0 or not lines:
        sys.stdout.write(run.stdout)
        fail(f"hack-perfbench exited with {run.returncode}")

    # The result must name exactly the metrics BENCHMARK.json declares.
    spec_path = os.path.join(ROOT, "BENCHMARK.json")
    if os.path.isfile(spec_path):
        with open(spec_path) as f:
            spec = json.load(f)
        group = spec["per_layer"] if args.trace else spec["end_to_end"]
        want = {m["name"]: m["unit"] for m in group}
        got = {k: v["unit"] for k, v in json.loads(lines[-1])["metrics"].items()}
        if got != want:
            sys.stdout.write("\n".join(lines[:-1]) + "\n")
            fail(f"metrics differ from BENCHMARK.json: "
                 f"missing {sorted(set(want) - set(got))}, "
                 f"extra {sorted(set(got) - set(want))}, "
                 f"units {sorted(k for k in want.keys() & got.keys() if want[k] != got[k])}")
    sys.stdout.write(run.stdout)


if __name__ == "__main__":
    main()
