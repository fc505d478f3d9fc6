"""Paired benchmark runs: a parent revision against the current checkout.

    python3 tools/bench_pairs.py --parent HEAD --workload replicate_300x15 \
        --pairs 10 --out BENCH.json

Each pair runs the unmodified ``python3 perfbench/run.py --workload W --seed S
--seconds T --trace R`` once on each side, with the same seed and the
``run_seconds`` T of BENCHMARK.json, and alternates which side goes first
(the parent in even pairs, the change in odd ones), so a drift of the
machine's speed falls on both sides alike.  The parent side is an export of
``--parent`` (``git archive``) into a temporary directory (under ``$TMPDIR``
when it is set) that is removed at exit, also when the script is interrupted
or terminated; the change side is the checkout this script lives in, as it
is on disk.  Pair i uses seed ``--seed + i``.

The ``machine`` block records the platform, the BLAS thread variables as
set, and the thread count of each OpenBLAS pool: numpy and scipy wheels
bring one library each, with its own pool of worker threads.

The results are merged into ``--out`` under the key
"<workload> trace<R> seeds <first>-<last>": every pair's metrics on both
sides, and per metric the median and quartiles of each side, the median of
the per-pair change / parent - 1, and the number of pairs in which the
change was better, in the direction BENCHMARK.json declares for that metric
(lower where it declares none).  The metrics of a run are every
``name = value unit`` line it prints, so a traced pair also has the layer
metrics that BENCHMARK.json does not list, such as
``quantreg.bootstrap_self_s``.
"""
import argparse
import ctypes
import glob
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import tarfile
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", required=True, help="git revision to compare against")
    parser.add_argument("--workload", required=True, action="append")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seed", type=int, default=1, help="seed of the first pair")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", required=True)
    return parser.parse_args(argv)


def git(*args):
    return subprocess.run(
        ["git", *args], cwd=ROOT, check=True, capture_output=True, text=True
    ).stdout.strip()


def export(rev, dest):
    """Write the tree of ``rev`` into ``dest``."""
    archive = os.path.join(dest, "tree.tar")
    git("archive", "--format=tar", "-o", archive, rev)
    with tarfile.open(archive) as tar:
        safe = {"filter": "data"} if hasattr(tarfile, "data_filter") else {}
        tar.extractall(dest, **safe)
    os.remove(archive)


def blas_pools():
    """Thread count of the OpenBLAS pool that numpy and that scipy each
    load, read through the library's own ``*_get_num_threads``; None where
    the package ships no OpenBLAS that this finds."""
    import numpy
    import scipy.linalg  # binds scipy and loads its OpenBLAS

    getters = [f"{prefix}_get_num_threads{suffix}"
               for prefix in ("scipy_openblas", "openblas") for suffix in ("64_", "")]
    pools = {}
    for module in (numpy, scipy):
        libs = os.path.join(os.path.dirname(os.path.dirname(module.__file__)),
                            f"{module.__name__}.libs")
        pools[module.__name__] = None
        for path in sorted(glob.glob(os.path.join(libs, "*openblas*.so*"))):
            lib = ctypes.CDLL(path)
            found = [getattr(lib, name) for name in getters if hasattr(lib, name)]
            if found:
                found[0].argtypes, found[0].restype = [], ctypes.c_int
                pools[module.__name__] = found[0]()
    return pools


def run_once(checkout, workload, seed, seconds, trace):
    """The last stdout line of one perfbench run, or the reason it gave none."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", f"{seconds:g}", "--trace", str(trace)]
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    proc = subprocess.run(cmd, cwd=checkout, env=env, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        return {"error": f"exit {proc.returncode}: {proc.stderr.strip()[-500:]}"}
    result["metrics"] = {name: m["value"] for name, m in result["metrics"].items()}
    for line in lines[:-1]:
        name, equals, value = line.partition(" = ")
        if equals and not name.startswith("#"):
            result["metrics"].setdefault(name, float(value.split()[0]))
    return result


def summarize(pairs, better):
    """Per metric: each side's median and quartiles, the median relative
    change and the count of pairs in which the change was better."""
    done = [p for p in pairs if "metrics" in p["parent"] and "metrics" in p["change"]]
    summary = {}
    # a metric that some run did not print (op_tail_s needs enough ops) is left out
    for name in done[0]["parent"]["metrics"] if done else ():
        if any(name not in p[side]["metrics"] for p in done for side in ("parent", "change")):
            continue
        sides = {side: [p[side]["metrics"][name] for p in done] for side in ("parent", "change")}
        row = {}
        for side, values in sides.items():
            q1 = median = q3 = values[0]
            if len(values) > 1:
                q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
            row[side] = {"median": median, "q1": q1, "q3": q3}
        ratios = [c / p - 1.0 for p, c in zip(sides["parent"], sides["change"]) if p]
        row["median_rel_change"] = statistics.median(ratios) if ratios else None
        sign = 1.0 if better.get(name, "lower") == "lower" else -1.0
        row["pairs_better"] = sum(
            sign * (c - p) < 0.0 for p, c in zip(sides["parent"], sides["change"])
        )
        row["pairs"] = len(done)
        summary[name] = row
    return summary


def main(argv=None):
    args = parse_args(argv)
    # a stopped run still removes its parent export: SIGTERM unwinds the with
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    better = {m["name"]: m["better"] for m in bench["end_to_end"] + bench["per_layer"]}
    parent_sha = git("rev-parse", args.parent)
    record = {}
    if os.path.exists(args.out):
        with open(args.out) as fh:
            record = json.load(fh)
    record.update(
        parent={"rev": args.parent, "commit": parent_sha},
        change={"head": git("rev-parse", "HEAD"), "dirty": bool(git("status", "--porcelain"))},
        machine={"platform": platform.platform(), "cpus": os.cpu_count(),
                 "python": platform.python_version(),
                 "env": {v: os.environ.get(v) for v in THREAD_VARS},
                 "openblas_threads": blas_pools()},
    )
    runs = record.setdefault("runs", {})
    seconds = bench["run_seconds"]
    with tempfile.TemporaryDirectory(prefix="bench-parent-") as parent_dir:
        export(parent_sha, parent_dir)
        checkouts = {"parent": parent_dir, "change": ROOT}
        for workload in args.workload:
            pairs = []
            for i in range(args.pairs):
                seed = args.seed + i
                order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
                pair = {"seed": seed, "first": order[0]}
                for side in order:
                    pair[side] = run_once(checkouts[side], workload, seed, seconds, args.trace)
                pairs.append(pair)
                print(json.dumps({"workload": workload, **pair}), flush=True)
            last = args.seed + args.pairs - 1
            runs[f"{workload} trace{args.trace} seeds {args.seed}-{last}"] = {
                "command": f"python3 perfbench/run.py --workload {workload} --seed S"
                           f" --seconds {seconds:g} --trace {args.trace}",
                "pairs": pairs,
                "summary": summarize(pairs, better),
            }
            with open(args.out, "w") as fh:
                json.dump(record, fh, indent=1)
                fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
