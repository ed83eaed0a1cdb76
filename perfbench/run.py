#!/usr/bin/env python3
"""Builds and runs the whole-stack benchmark (see perfbench/README.md).

Run from the repository root:

    python3 perfbench/run.py --workload analysis_batch --seed 1 \
        --seconds 10 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 10
    python3 perfbench/run.py --selftest

The build (Release, from the repository's src/ tree) goes to
$CARGO_TARGET_DIR/perfbench, default .bench_build/perfbench; traces, spans
and result records go to .bench_out/. The last line of standard output
is one JSON object with the keys correct, attempted, failed and metrics.
"""

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
REPO = os.path.dirname(HERE)
WORKLOADS = ("analysis_batch", "fanout_grid", "serve_trace")


def fail(message, code=2):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(code)


def git_tree_id(path):
    """The git tree-object id of `path`: equals `git rev-parse HEAD:src`
    for a clean checkout, so a run names its sources without .git."""
    entries = []
    for name in os.listdir(path):
        full = os.path.join(path, name)
        if os.path.islink(full):
            mode, sha = b"120000", git_blob_id(os.readlink(full).encode())
        elif os.path.isdir(full):
            sha = git_tree_id(full)
            if sha is None:
                continue
            mode = b"40000"
        else:
            with open(full, "rb") as f:
                sha = git_blob_id(f.read())
            mode = b"100755" if os.access(full, os.X_OK) else b"100644"
        key = name + "/" if mode == b"40000" else name
        entries.append((key.encode(), mode + b" " + name.encode() + b"\0" + sha))
    if not entries:
        return None
    body = b"".join(entry for _, entry in sorted(entries))
    return hashlib.sha1(b"tree %d\0" % len(body) + body).digest()


def git_blob_id(data):
    return hashlib.sha1(b"blob %d\0" % len(data) + data).digest()


def source_id():
    commit = "unknown"
    if os.path.exists(os.path.join(REPO, ".git")):
        got = subprocess.run(["git", "-C", REPO, "rev-parse", "HEAD"],
                             capture_output=True, text=True)
        if got.returncode == 0:
            commit = got.stdout.strip()
    return "%s (src tree %s)" % (commit,
                                 git_tree_id(os.path.join(REPO, "src")).hex())


def build(build_dir):
    if not os.path.isfile(os.path.join(REPO, "src", "CMakeLists.txt")):
        fail("the hmdiv sources (src/) are not next to perfbench/", 3)
    cache = os.path.join(build_dir, "CMakeCache.txt")
    if not os.path.isfile(cache):
        configure = ["cmake", "-S", HERE, "-B", build_dir,
                     "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
            fail("configuring the benchmark failed", 3)
    with open(cache) as f:
        if "CMAKE_BUILD_TYPE:STRING=Release\n" not in f.read():
            fail("refusing to measure a build that is not Release: " + cache)
    jobs = str(min(4, os.cpu_count() or 1))
    if subprocess.run(["cmake", "--build", build_dir, "--target",
                       "perfbench_bin", "-j", jobs],
                      stdout=sys.stderr).returncode != 0:
        fail("building the benchmark failed", 3)


def last_json(text):
    lines = text.strip().splitlines()
    try:
        return json.loads(lines[-1]) if lines else None
    except ValueError:
        return None


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selftest", action="store_true",
                        help="check that every correctness gate trips on a "
                             "corrupted expected value")
    args = parser.parse_args()
    if not args.selftest and args.workload is None:
        parser.error("--workload is required")

    build_dir = os.path.join(os.getcwd(),
                             os.environ.get("CARGO_TARGET_DIR", ".bench_build"),
                             "perfbench")
    build(build_dir)
    out_dir = os.path.join(os.getcwd(), ".bench_out")
    os.makedirs(out_dir, exist_ok=True)
    binary = os.path.join(build_dir, "perfbench_bin")
    common = ["--bin-dir", os.path.join(build_dir, "hmdiv", "cli"),
              "--out-dir", out_dir]
    sys.stdout.flush()
    if args.selftest:
        return subprocess.run([binary, "--selftest"] + common).returncode

    def invoke(workload, trace, capture):
        cmd = [binary, "--workload", workload, "--seed", str(args.seed),
               "--seconds", repr(args.seconds), "--trace", str(trace),
               "--commit", source_id()] + common
        return subprocess.run(cmd, stdout=subprocess.PIPE if capture else None,
                              text=True)

    if args.workload != "all":
        return invoke(args.workload, args.trace, capture=False).returncode

    # Every workload untraced, then the traced per-layer run: one table of
    # every metric with its unit and each workload's verdict.
    summary = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    runs = [(w, 0, w) for w in WORKLOADS] + [(WORKLOADS[0], 1, "layers")]
    code = 0
    for workload, trace, prefix in runs:
        done = invoke(workload, trace, capture=True)
        result = last_json(done.stdout)
        if result is None:
            fail("%s (trace %d) produced no result" % (workload, trace), 1)
        print("== %s: %s, %d of %d failed" % (
            prefix, "correct" if result["correct"] else "WRONG",
            result["failed"], result["attempted"]))
        for name, metric in result["metrics"].items():
            print("   %-40s %14.6g %s" % (name, metric["value"], metric["unit"]))
            summary["metrics"][prefix + "." + name] = metric
        summary["correct"] &= result["correct"]
        summary["attempted"] += result["attempted"]
        summary["failed"] += result["failed"]
        code = code or done.returncode
    print(json.dumps(summary))
    return code


if __name__ == "__main__":
    sys.exit(main())
