#!/usr/bin/env python3
"""Build and run the sfetch benchmark.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload paper_sweep|serve_fanout \
        --seed N --seconds S --trace 0|1 [--size full|tiny] [--corrupt-reference]

Builds the library, sfetchd and the benchmark driver from the
checkout's sources with CMake (Release) into $CARGO_TARGET_DIR, or
.bench_build when unset, then runs one workload. The driver's notes
and metrics go to stdout, followed by a provenance line and, last,
the one-line JSON result. A record of the run (provenance, notes and
result) and, for traced runs, the Chrome trace land in .bench_out/.
Exits non-zero when the build fails, a check fails, or the run
exceeds its time limit.
"""

import argparse
import hashlib
import json
import os
import platform
import shlex
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("paper_sweep", "serve_fanout")
RUN_TIMEOUT_S = 170
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def die(msg, code=2):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(code)


def build_dir():
    d = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    return d if d.is_absolute() else ROOT / d


def build(bdir):
    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src").is_dir():
        die(f"no sfetch sources (CMakeLists.txt, src/) in {ROOT}")
    steps = []
    if not (bdir / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(HERE), "-B", str(bdir),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(bdir), "--target", "perfbench",
                  "sfetchd", "-j", str(os.cpu_count() or 1)])
    for cmd in steps:
        # Build chatter goes to stderr: stdout carries only results.
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            die("build failed: " + shlex.join(cmd))


def source_sha256():
    """Digest of every file the build reads, for checkouts without git."""
    h = hashlib.sha256()
    files = [ROOT / "CMakeLists.txt"]
    for top in ("src", "tools", "perfbench"):
        files += [p for p in (ROOT / top).rglob("*")
                  if p.is_file() and "__pycache__" not in p.parts]
    for p in sorted(files):
        h.update(str(p.relative_to(ROOT)).encode() + b"\0")
        h.update(p.read_bytes() + b"\0")
    return h.hexdigest()


def git_commit():
    if not (ROOT / ".git").exists():
        return None
    r = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                       capture_output=True, text=True)
    return r.stdout.strip() or None


def cpu_model():
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def build_type(bdir):
    try:
        for line in (bdir / "CMakeCache.txt").read_text().splitlines():
            if line.startswith("CMAKE_BUILD_TYPE:"):
                return line.split("=", 1)[1]
    except OSError:
        pass
    return "unknown"


def provenance(args, argv, bdir):
    return {
        "commit": git_commit(),
        "source_sha256": source_sha256(),
        "host": {"nproc": os.cpu_count(), "cpu_model": cpu_model(),
                 "platform": platform.platform()},
        "build_type": build_type(bdir),
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "command_line": shlex.join(["python3", "perfbench/run.py"] + argv),
    }


def main(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--size", default="full", choices=("full", "tiny"))
    ap.add_argument("--corrupt-reference", action="store_true",
                    help="self-test: corrupt one reference row; the run "
                         "must then report a failure")
    args = ap.parse_args(argv)

    bdir = build_dir()
    build(bdir)
    out = ROOT / ".bench_out"
    out.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    cmd = [str(bdir / "perfbench"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--size", args.size,
           "--sfetchd", str(bdir / "tools" / "sfetchd"),
           "--log-dir", str(out)]
    if args.trace:
        cmd += ["--trace-out", str(out / f"trace-{stem}.json")]
    if args.corrupt_reference:
        cmd.append("--corrupt-reference")
    try:
        run = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                             timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        die(f"run exceeded {RUN_TIMEOUT_S} s", 3)

    lines = run.stdout.splitlines()
    try:
        result = json.loads(lines[-1])
        if set(result) != RESULT_KEYS:
            raise ValueError(f"result keys {sorted(result)}")
    except (IndexError, ValueError) as e:
        sys.stdout.write(run.stdout)
        die(f"no result line from the benchmark driver ({e}), "
            f"exit code {run.returncode}", 4)
    prov = provenance(args, argv, bdir)
    for line in lines[:-1]:
        print(line)
    print("provenance: " + json.dumps(prov, sort_keys=True))
    record = {"provenance": prov, "notes": lines[:-1], "result": result}
    (out / f"result-{stem}.json").write_text(json.dumps(record, indent=1) + "\n")
    print(lines[-1], flush=True)
    return run.returncode


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
