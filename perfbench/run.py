#!/usr/bin/env python3
"""Build and run the cachesec benchmark.

Run from the root of a checkout:

    python3 perfbench/run.py --workload matrix|replay|serve --seed N \
        --seconds S --trace 0|1
    python3 perfbench/run.py --self-test
    python3 perfbench/run.py --record matrix|replay --seeds A-B

The benchmark is an OCaml package of its own (perfbench/ocaml). It is
built from source in a staging tree under $CARGO_TARGET_DIR (default
.bench_build): a copy of the checkout's dune-project, lib/ and bin/ plus
the benchmark's sources. The last line of a run's standard output is the
JSON result; see perfbench/README.md for the metrics.
"""

import argparse
import filecmp
import hashlib
import json
import os
import shutil
import signal
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 840


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(2)


def sync_tree(src, dst):
    """Mirror src into dst, copying only changed files so dune rebuilds
    only what changed."""
    os.makedirs(dst, exist_ok=True)
    wanted = set()
    for name in sorted(os.listdir(src)):
        s, d = os.path.join(src, name), os.path.join(dst, name)
        wanted.add(name)
        if os.path.isdir(s):
            sync_tree(s, d)
        elif not (os.path.isfile(d) and filecmp.cmp(s, d, shallow=False)):
            shutil.copy2(s, d)
    for name in os.listdir(dst):
        if name not in wanted and name != "_build":
            p = os.path.join(dst, name)
            shutil.rmtree(p) if os.path.isdir(p) else os.remove(p)


def source_id(root):
    """git commit when the checkout is a repository, else a digest of
    the sources the benchmark builds."""
    if os.path.exists(os.path.join(root, ".git")):
        try:
            out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                                 text=True, timeout=10)
            if out.returncode == 0:
                return out.stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    h = hashlib.sha256()
    for top in ("dune-project", "lib", "bin"):
        path = os.path.join(root, top)
        files = [path] if os.path.isfile(path) else sorted(
            os.path.join(d, f) for d, _, fs in os.walk(path) for f in fs)
        for f in files:
            h.update(os.path.relpath(f, root).encode())
            with open(f, "rb") as fh:
                h.update(fh.read())
    return "src-" + h.hexdigest()[:16]


def build(root, build_root, targets):
    for need in ("dune-project", "lib", "bin"):
        if not os.path.exists(os.path.join(root, need)):
            fail("no %s in %s: run from the root of a cachesec checkout" % (need, root))
    stage = os.path.join(build_root, "src")
    os.makedirs(stage, exist_ok=True)
    shutil.copy2(os.path.join(root, "dune-project"), os.path.join(stage, "dune-project"))
    sync_tree(os.path.join(root, "lib"), os.path.join(stage, "lib"))
    sync_tree(os.path.join(root, "bin"), os.path.join(stage, "bin"))
    sync_tree(os.path.join(HERE, "ocaml"), os.path.join(stage, "perfbench"))
    env = dict(os.environ, DUNE_CACHE="disabled")
    cmd = ["dune", "build", "--root", stage, "--profile", "release", "--display", "quiet",
           "--no-print-directory"] + targets
    try:
        res = subprocess.run(cmd, env=env, stdout=sys.stderr, stderr=sys.stderr,
                             timeout=BUILD_TIMEOUT_S)
    except FileNotFoundError:
        fail("dune not found")
    except subprocess.TimeoutExpired:
        fail("build timed out")
    if res.returncode != 0:
        fail("build failed")
    return os.path.join(stage, "_build", "default")


def run_group(cmd, timeout):
    """Run cmd in its own process group; on timeout kill the whole group
    (the serve workload's daemon included) and wait for it."""
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        fail("run exceeded %d s" % timeout)
    finally:
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
    return proc.returncode, out


def check_result(line):
    r = json.loads(line)
    if sorted(r) != ["attempted", "correct", "failed", "metrics"]:
        raise ValueError("result keys")
    if not isinstance(r["attempted"], int) or r["attempted"] < 1 or not isinstance(r["failed"], int):
        raise ValueError("attempted/failed")
    for name, m in r["metrics"].items():
        if sorted(m) != ["unit", "value"] or not isinstance(m["value"], (int, float)):
            raise ValueError("metric " + name)
    return r


def self_test(root, build_root, exe):
    """The OCaml tests, then BENCHMARK.json against the metric names the
    benchmark actually reports."""
    build(root, build_root, ["@perfbench/runtest"])
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as fh:
        spec = json.load(fh)

    def listed(flag):
        return subprocess.run([exe, flag], capture_output=True, text=True,
                              check=True).stdout.split("\n")

    e2e = [l for l in listed("--list-e2e") if l]
    layers = [l.split() for l in listed("--list-layers") if l]
    if [m["name"] for m in spec["end_to_end"]] != e2e:
        fail("BENCHMARK.json end_to_end names differ from the benchmark's: %s" % e2e)
    if [[m["name"], m["unit"], m["better"]] for m in spec["per_layer"]] != layers:
        fail("BENCHMARK.json per_layer entries differ from the benchmark's")
    print("perfbench self-test passed")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=["matrix", "replay", "serve"])
    ap.add_argument("--seed", type=int)
    ap.add_argument("--seconds", type=int)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--self-test", action="store_true")
    ap.add_argument("--record", choices=["matrix", "replay"])
    ap.add_argument("--seeds", default="0-99")
    a = ap.parse_args()

    root = os.getcwd()
    build_root = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")

    bin_dir = build(root, build_root, ["./perfbench/main.exe", "./bin/pas_tool.exe"])
    exe = os.path.join(bin_dir, "perfbench", "main.exe")
    if a.self_test:
        self_test(root, build_root, exe)
        return
    if a.record:
        code, out = run_group([exe, "--record", a.record, "--seeds", a.seeds], 3600)
        sys.stdout.write(out)
        sys.exit(code)
    if a.workload is None or a.seed is None or a.seconds is None:
        ap.error("--workload, --seed and --seconds are required")

    runs = os.path.join(build_root, "runs")
    os.makedirs(runs, exist_ok=True)
    # Relative, so the daemon's socket path stays short.
    scratch = os.path.relpath(tempfile.mkdtemp(prefix="%s-%d-" % (a.workload, a.seed), dir=runs))
    cmd = [exe, "--workload", a.workload, "--seed", str(a.seed), "--seconds", str(a.seconds),
           "--trace", str(a.trace), "--pas-tool", os.path.join(bin_dir, "bin", "pas_tool.exe"),
           "--scratch", scratch, "--reference", os.path.join(HERE, "reference.txt"),
           "--commit", source_id(root)]
    code, out = run_group(cmd, RUN_TIMEOUT_S)
    lines = out.rstrip("\n").split("\n")
    try:
        check_result(lines[-1])
    except (ValueError, KeyError, IndexError, TypeError):
        sys.stderr.write(out)
        fail("the benchmark exited with %d without a result" % code)
    if code != 0:
        sys.stderr.write(out)
        fail("the benchmark exited with %d" % code)
    if not a.trace:
        shutil.rmtree(scratch, ignore_errors=True)
    sys.stdout.write(out)


if __name__ == "__main__":
    main()
