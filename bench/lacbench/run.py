#!/usr/bin/env python3
"""Build and run the LAC stack benchmark.

    python3 bench/lacbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 bench/lacbench/run.py --self-test
    python3 bench/lacbench/run.py --write-digests

Run from the repository root. The first call configures and builds the lac
library and the benchmark in Release mode under .bench_build/lacbench (the
repository's own build files are not used); later calls only re-run the
incremental build. Build output goes to stderr, so the last stdout line is
the benchmark's result object. Result files and Chrome traces land in
.bench_out/.

--self-test runs the benchmark's statistics and correctness-check self-tests
(every check must pass on a correct result and fail on a corrupted one).
--write-digests regenerates reference_digests.txt: the simulated-statistics
digest of every workload at the default seed. A run at that seed compares
its digest with the file and reports a mismatch by workload (a mismatch is
not a failed job: it says the simulated statistics changed).
"""

import argparse
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
BUILD = Path(".bench_build") / "lacbench"
OUT = Path(".bench_out")
DIGESTS = HERE / "reference_digests.txt"
WORKLOADS = ("sim_serving", "sim_factor_graphs", "model_serving")
DEFAULT_SEED = 1


def build():
    """Configure once, then build incrementally; False when either fails."""
    env = dict(os.environ)
    build_dir = ROOT / BUILD
    jobs = str(max(1, len(os.sched_getaffinity(0))))
    steps = []
    if not (build_dir / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(HERE), "-B", str(build_dir),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(build_dir), "-j", jobs])
    for cmd in steps:
        # Build chatter goes to stderr: stdout's last line is the result.
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                          env=env).returncode != 0:
            return False
    return True


def git_sha():
    """The checkout's commit when it is a git work tree, else "unknown"."""
    if os.environ.get("LAC_GIT_SHA"):
        return os.environ["LAC_GIT_SHA"]
    if not (ROOT / ".git").exists():
        return "unknown"
    try:
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "--short=12", "HEAD"],
                             capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    sha = out.stdout.strip()
    return sha if out.returncode == 0 and sha else "unknown"


def reference_digests():
    refs = {}
    if DIGESTS.is_file():
        for line in DIGESTS.read_text().splitlines():
            parts = line.split()
            if len(parts) == 3 and not line.startswith("#"):
                refs[(parts[0], int(parts[1]))] = parts[2]
    return refs


def run_binary(args):
    """Runs the benchmark binary; returns (exit code, stdout lines)."""
    env = dict(os.environ, LAC_GIT_SHA=git_sha())
    proc = subprocess.run([str(ROOT / BUILD / "lacbench")] + args, cwd=ROOT,
                          stdout=subprocess.PIPE, text=True, env=env)
    return proc.returncode, proc.stdout.splitlines()


def write_digests():
    lines = ["# workload seed digest -- regenerate: python3 bench/lacbench/run.py --write-digests"]
    for w in WORKLOADS:
        code, out = run_binary(["--workload", w, "--seed", str(DEFAULT_SEED),
                                "--digest-only", "--out-dir", str(OUT)])
        digest = [l.split()[-1] for l in out if l.startswith("digest ")]
        if code != 0 or not digest:
            print(f"digest run failed for {w}", file=sys.stderr)
            return 1
        lines.append(f"{w} {DEFAULT_SEED} {digest[0]}")
    DIGESTS.write_text("\n".join(lines) + "\n")
    print("\n".join(lines))
    return 0


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=15.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--self-test", action="store_true")
    ap.add_argument("--write-digests", action="store_true")
    args = ap.parse_args()
    if not (args.self_test or args.write_digests or args.workload):
        ap.error("--workload, --self-test or --write-digests is required")

    if not build():
        print("lacbench: build failed", file=sys.stderr)
        return 1
    if args.self_test:
        code, out = run_binary(["--self-test"])
        print("\n".join(out))
        return code
    if args.write_digests:
        return write_digests()

    code, out = run_binary(["--workload", args.workload, "--seed", str(args.seed),
                            "--seconds", str(args.seconds), "--trace", str(args.trace),
                            "--out-dir", str(OUT)])
    result = out[-1] if out and out[-1].startswith("{") else None
    body = out[:-1] if result else out
    ref = reference_digests().get((args.workload, args.seed))
    for line in body:
        print(line)
        if ref and line.startswith("digest "):
            got = line.split()[-1]
            print(f"digest {args.workload}: " +
                  ("matches reference" if got == ref
                   else f"MISMATCH (reference {ref}) -- simulated statistics changed"))
    if result is None:
        print("lacbench: no result line", file=sys.stderr)
        return code or 1
    print(result)
    sys.stdout.flush()
    return code


if __name__ == "__main__":
    sys.exit(main())
