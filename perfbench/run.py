#!/usr/bin/env python3
"""Build and run the PLR CPU-stack benchmark.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Builds the `perfbench` package (release, offline) against the checkout's
crates into `$CARGO_TARGET_DIR` (default `.bench_build`), then runs it with
the given arguments. Everything the build prints goes to stderr, so the
last line of stdout is the benchmark's JSON result. The exit code is the
benchmark's; a failed build exits non-zero without printing a result.

`--workload all` runs every workload in turn, each in its own process.
"""

import hashlib
import json
import os
import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
HERE = ROOT / "perfbench"
# A run is bounded by its own --seconds; this only stops a wedged one.
RUN_TIMEOUT_S = 175


def source_digest():
    """SHA-256 over the sources the benchmark builds, for records made
    outside a git checkout."""
    h = hashlib.sha256()
    files = [ROOT / "Cargo.toml", ROOT / "Cargo.lock"]
    for pattern in ("crates/*/Cargo.toml", "crates/*/src/**/*.rs", "perfbench/src/*.rs",
                    "perfbench/Cargo.*"):
        files.extend(ROOT.glob(pattern))
    for f in sorted(set(files)):
        if f.is_file():
            h.update(str(f.relative_to(ROOT)).encode())
            h.update(f.read_bytes())
    return h.hexdigest()[:16]


def command_output(argv):
    try:
        out = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, check=True)
        return out.stdout.strip() or "unknown"
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


def main():
    env = dict(os.environ)
    target = pathlib.Path(env.setdefault("CARGO_TARGET_DIR", ".bench_build"))
    if not target.is_absolute():
        target = ROOT / target
        env["CARGO_TARGET_DIR"] = str(target)
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", str(HERE / "Cargo.toml")],
        cwd=ROOT, env=env, stdout=sys.stderr, stderr=sys.stderr)
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return build.returncode or 1

    env["PERFBENCH_GIT_SHA"] = (command_output(["git", "rev-parse", "HEAD"])
                                if (ROOT / ".git").exists() else "none")
    env["PERFBENCH_RUSTC"] = command_output(["rustc", "--version"])
    env["PERFBENCH_SOURCE_DIGEST"] = source_digest()
    binary = str(target / "release" / "perfbench")
    args = sys.argv[1:]
    at = args.index("--workload") + 1 if "--workload" in args else len(args)
    if args[at:at + 1] != ["all"]:
        return run_one(binary, args, env)
    spec = json.loads(subprocess.run([binary, "--spec"], capture_output=True, text=True,
                                     check=True).stdout)
    worst = 0
    for w in spec["workloads"]:
        args[at] = w["name"]
        worst = max(worst, run_one(binary, args, env))
    return worst


def run_one(binary, args, env):
    try:
        run = subprocess.run([binary, *args], cwd=ROOT, env=env, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"perfbench: no result within {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 1
    return run.returncode


if __name__ == "__main__":
    sys.exit(main())
