#!/usr/bin/env python3
"""Orchestration of the benchmark: builds the two binaries, runs every
workload in a process of its own, merges the untraced and the traced run, and
prints every metric by the name and unit BENCHMARK.json declares.

  run.sh --workload W --seed N --seconds S --trace 0|1   one run, one JSON line
  run.sh [--seed N] [--seconds S] [--expect W:Q=HEX]     every workload, both runs
  run.sh --selfcheck                                     two full sets, compared
  run.sh --lint                                          fmt + clippy of this package
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(HERE, "out")
MANIFEST = os.path.join("benchmark", "Cargo.toml")
WORKLOADS = ["frontend_small", "exec_seq", "exec_par", "live_mixed"]
# A child gets this long before it is killed (the contract allows 180 s).
CHILD_TIMEOUT_S = 170
# Per-layer counts that must repeat exactly between two runs of one build.
EXACT = ["ir.", "opt.", "exec.shared_slots", "session.cache_hit_share",
         "session.plans_built", "par.morsels", "delta.rows", "delta.reseeds",
         "storage.rows_live"]


def spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def cargo_env():
    env = dict(os.environ)
    env.setdefault("CARGO_TARGET_DIR", os.path.join("benchmark", "target"))
    return env


def build(binary):
    """Build one binary in release mode; False if it does not compile."""
    done = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", MANIFEST, "--bin", binary],
        cwd=ROOT, env=cargo_env(), stdout=sys.stderr)
    return done.returncode == 0


def run_binary(binary, workload, seed, seconds, extra=()):
    """Run one workload in its own process and parse its result line.
    Exit code 1 means a check failed: the line is still there, and says so."""
    path = os.path.join(ROOT, cargo_env()["CARGO_TARGET_DIR"], "release", binary)
    done = subprocess.run(
        [path, "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
         "--out-dir", OUT, *extra],
        cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=CHILD_TIMEOUT_S)
    if done.returncode not in (0, 1) or not done.stdout.strip():
        raise SystemExit(f"{binary} --workload {workload} exited with {done.returncode}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def layer_metrics(untraced, traced):
    """The per-layer metrics of one workload: the per-kind medians of the
    untraced run, then everything the traced run measured."""
    out = {f"k.{kind}.p50_ms": row["p50_ms"] for kind, row in untraced["kinds"].items()}
    if traced is not None:
        out.update(traced["layers"])
    return out


def driver(args):
    """One run for the driver: the last line of stdout is the result."""
    declared = spec()
    if args.trace == 0:
        if not build("shredbench"):
            raise SystemExit("shredbench does not build")
        run = run_binary("shredbench", args.workload, args.seed, args.seconds)
        values, section = run["metrics"], declared["end_to_end"]
        attempted, failed = run["attempted"], run["failed"]
    else:
        if not (build("shredbench") and build("shredtrace")):
            raise SystemExit("the traced run does not build")
        # Half the time each, one set-up: a traced run costs what an untraced one does.
        half = args.seconds / 2
        untraced = run_binary("shredbench", args.workload, args.seed, half, ["--setups", "1"])
        traced = run_binary("shredtrace", args.workload, args.seed, half)
        values, section = layer_metrics(untraced, traced), declared["per_layer"]
        attempted = untraced["attempted"] + traced["attempted"]
        failed = untraced["failed"] + traced["failed"]
    # A layer the workload does not exercise spent no time and counted nothing.
    metrics = {m["name"]: {"value": values.get(m["name"], 0), "unit": m["unit"]}
               for m in section}
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if failed == 0 else 1


def tool_output(command):
    try:
        done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True)
        return done.stdout.strip() if done.returncode == 0 else "unknown"
    except OSError:
        return "unknown"


def suite(args):
    """Every workload, untraced then traced, as one document."""
    declared = spec()
    if not build("shredbench"):
        raise SystemExit("shredbench does not build")
    tracing = build("shredtrace")
    if not tracing:
        print("shredtrace does not build: per-layer metrics are MISSING", file=sys.stderr)
    expect = {}
    for item in args.expect:
        workload, _, pair = item.partition(":")
        expect.setdefault(workload, []).extend(["--expect", pair])
    doc = {
        "seed": args.seed, "seconds": args.seconds, "claim": None,
        "rustc": tool_output(["rustc", "-V"]),
        "git_head": tool_output(["git", "rev-parse", "HEAD"]),
        "workloads": {},
    }
    for workload in WORKLOADS:
        extra = list(expect.get(workload, []))
        if workload == "exec_par":
            # At the timed scale the parallel results must carry the
            # fingerprints the sequential run's carried.
            for query, fp in doc["workloads"]["exec_seq"]["fingerprints"].items():
                extra += ["--expect", f"{query}={fp}"]
        untraced = run_binary("shredbench", workload, args.seed, args.seconds, extra)
        traced = run_binary("shredtrace", workload, args.seed, args.seconds) if tracing else None
        runs = [untraced] + ([traced] if traced else [])
        doc["workloads"][workload] = {
            "available_parallelism": untraced["available_parallelism"],
            "passes": untraced["passes"],
            "samples_per_kind": {k: row["n"] for k, row in untraced["kinds"].items()},
            "traced_passes": traced["passes"] if traced else None,
            "attempted": sum(r["attempted"] for r in runs),
            "failed": sum(r["failed"] for r in runs),
            "end_to_end": untraced["metrics"],
            "per_layer": layer_metrics(untraced, traced),
            "per_layer_missing": not tracing,
            "fingerprints": untraced["fingerprints"],
        }
    units = {m["name"]: m["unit"] for m in declared["end_to_end"] + declared["per_layer"]}
    units["failed_share"] = "share"
    doc["units"] = units
    return doc


def print_table(doc):
    units = doc["units"]
    for workload, result in doc["workloads"].items():
        print(f"\n== {workload}: {result['passes']} passes, "
              f"{result['available_parallelism']} cores, "
              f"{result['failed']} of {result['attempted']} failed")
        for section in ("end_to_end", "per_layer"):
            for name, value in result[section].items():
                print(f"  {name:34s} {value:16.6g} {units.get(name, '?')}")
        if result["per_layer_missing"]:
            print("  per-layer metrics of the traced run: MISSING")


def full_run(args):
    doc = suite(args)
    os.makedirs(OUT, exist_ok=True)
    path = os.path.join(OUT, f"shredbench-seed{args.seed}.json")
    with open(path, "w") as f:
        json.dump(doc, f, indent=1)
    print_table(doc)
    print(f"\nwritten to {os.path.relpath(path, ROOT)}")
    print(json.dumps(doc))
    failed = sum(w["failed"] for w in doc["workloads"].values())
    return 0 if failed == 0 else 1


def selfcheck(args):
    """Two full sets of runs of one build: every end-to-end metric must agree
    within its bound, every exact count must repeat."""
    bounds = {m["name"]: m["bound"] for m in spec()["end_to_end"]}
    first, second = suite(args), suite(args)
    bad = sum(w["failed"] for d in (first, second) for w in d["workloads"].values())
    print(f"{'workload':15s} {'metric':14s} {'first':>12s} {'second':>12s} {'diff':>8s} {'bound':>6s}")
    for workload in WORKLOADS:
        a, b = first["workloads"][workload], second["workloads"][workload]
        for name, bound in bounds.items():
            x, y = a["end_to_end"][name], b["end_to_end"][name]
            diff = abs(y - x) / x
            verdict = "ok" if diff <= bound else "EXCEEDS"
            bad += verdict != "ok"
            print(f"{workload:15s} {name:14s} {x:12.5g} {y:12.5g} {diff:8.2%} {bound:6.0%} {verdict}")
        for name, x in a["per_layer"].items():
            y = b["per_layer"][name]
            if any(name.startswith(p) for p in EXACT) or name.endswith(".rows_out"):
                if x != y:
                    bad += 1
                    print(f"{workload:15s} {name}: {x} then {y}: an exact count did not repeat")
    print("selfcheck", "FAILED" if bad else "passed")
    return 1 if bad else 0


def lint():
    status = 0
    for command in (["cargo", "fmt", "--manifest-path", MANIFEST, "--check"],
                    ["cargo", "clippy", "--offline", "--manifest-path", MANIFEST,
                     "--all-targets", "--", "-D", "warnings"]):
        status |= subprocess.run(command, cwd=ROOT, env=cargo_env()).returncode
    return status


def main():
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--expect", action="append", default=[],
                        metavar="WORKLOAD:QUERY=HEX")
    parser.add_argument("--selfcheck", action="store_true")
    parser.add_argument("--lint", action="store_true")
    args = parser.parse_args()
    if args.lint:
        return lint()
    if args.seconds is None:
        args.seconds = spec()["run_seconds"]
    if args.workload:
        return driver(args)
    return selfcheck(args) if args.selfcheck else full_run(args)


if __name__ == "__main__":
    sys.exit(main())
