#!/usr/bin/env python3
"""End-to-end benchmark of the garbling service.

Builds the benchmark driver from this checkout's sources (first run
only), runs one workload, checks the driver's result against the metric
names and units in BENCHMARK.json, and prints the result as the last
line of standard output:

    python3 perfbench/run.py --workload v3_b16 --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --selftest

See perfbench/README.md for the workloads and metrics.
"""
import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
DRIVER_TIMEOUT_S = 170
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def build_dir():
    # The build tree lives inside the checkout; CARGO_TARGET_DIR, when
    # set, names the directory that holds build output.
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.join(ROOT, base, "perfbench")


def child_env(out):
    """Environment for the build and the driver: temporary files stay in
    the build tree, inside the checkout."""
    tmp = os.path.join(os.path.dirname(out), "tmp")
    os.makedirs(tmp, exist_ok=True)
    return dict(os.environ, TMPDIR=tmp)


def build():
    """Configures (once) and builds the driver; returns the build dir."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        raise RuntimeError(f"no sources at {ROOT}/src; nothing to build")
    out = build_dir()
    env = child_env(out)
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        subprocess.run(cmd, check=True, stdout=sys.stderr, stderr=sys.stderr, env=env)
    subprocess.run(["cmake", "--build", out, "--parallel", "4"], check=True,
                   stdout=sys.stderr, stderr=sys.stderr, env=env)
    return out


def expected_metrics(spec, trace):
    """{name: unit} the result must carry for this mode."""
    section = "per_layer" if trace else "end_to_end"
    return {m["name"]: m["unit"] for m in spec[section]}


def validate_result(line, expected):
    """Returns the parsed result line; raises ValueError if it does not
    match the result contract or the expected metric names and units."""
    res = json.loads(line)
    if not isinstance(res, dict) or set(res) != RESULT_KEYS:
        raise ValueError(f"result keys {sorted(res)} != {sorted(RESULT_KEYS)}")
    if res["correct"] is not True:
        raise ValueError("result is not correct")
    for key in ("attempted", "failed"):
        if not isinstance(res[key], int) or res[key] < 0:
            raise ValueError(f"{key} is not a whole number")
    if res["attempted"] < 1:
        raise ValueError("nothing was attempted")
    got = res["metrics"]
    missing = sorted(set(expected) - set(got))
    extra = sorted(set(got) - set(expected))
    if missing or extra:
        raise ValueError(f"metric names disagree with BENCHMARK.json: "
                         f"missing {missing}, unexpected {extra}")
    for name, unit in expected.items():
        m = got[name]
        if m.get("unit") != unit:
            raise ValueError(f"{name}: unit {m.get('unit')!r} != {unit!r}")
        if not isinstance(m.get("value"), (int, float)) or isinstance(m.get("value"), bool):
            raise ValueError(f"{name}: value is not a number")
    return res


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def run_workload(args):
    spec = load_spec()
    names = [w["name"] for w in spec["workloads"]]
    if args.workload not in names:
        raise RuntimeError(f"unknown workload {args.workload!r}; one of {names}")
    out = build()
    work = os.path.join(os.path.dirname(out), "work", f"{args.workload}-{os.getpid()}")
    cmd = [os.path.join(out, "perfbench_driver"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--work-dir", work,
           "--trace-dir", os.path.join(os.path.dirname(out), "traces")]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                              text=True, timeout=DRIVER_TIMEOUT_S, env=child_env(out))
    finally:
        shutil.rmtree(work, ignore_errors=True)
    if proc.returncode != 0:
        raise RuntimeError(f"driver exited with {proc.returncode}")
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise RuntimeError("driver printed no result")
    validate_result(lines[-1], expected_metrics(spec, args.trace))
    print(lines[-1], flush=True)


def selftest():
    out = build()
    subprocess.run([os.path.join(out, "perfbench_selftest")], check=True)
    env = dict(os.environ, PERFBENCH_DRIVER=os.path.join(out, "perfbench_driver"))
    subprocess.run([sys.executable, "-m", "unittest", "-v", "test_run"],
                   cwd=HERE, env=env, check=True)


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=int, default=10)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--selftest", action="store_true",
                   help="run the benchmark's own tests and exit")
    args = p.parse_args(argv)
    try:
        if args.selftest:
            selftest()
        elif args.workload:
            if args.seconds < 1:
                raise RuntimeError("--seconds must be at least 1")
            run_workload(args)
        else:
            p.error("--workload or --selftest is required")
    except (RuntimeError, ValueError, OSError, subprocess.SubprocessError) as e:
        log(f"failed: {e}")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
