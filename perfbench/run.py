"""levquant benchmark: one workload per process, timed end to end with
tracing off, and per layer in a separate traced part of the run.

    python3 perfbench/run.py --workload replicate_300x15 --seed 1 --seconds 30 --trace 0

Prints every metric by name with its unit, then, as the last line, one JSON
object with the keys correct, attempted, failed and metrics: the end-to-end
metrics named in BENCHMARK.json with ``--trace 0``, its per-layer metrics
with ``--trace 1``.  The full record of the run (environment, input sizes,
seeds, per-op times, failures and, when traced, the spans) is written under
perfbench/out/.  Exits 2 when the checkout holds no levquant sources.
"""
import time

START = time.perf_counter()  # setup_s counts from here: imports, then set-up

import argparse
import ctypes
import glob
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
SETUP_REPEATS = 3  # setup_s reports the median of these


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--size", choices=("full", "tiny"), default="full",
        help="tiny shrinks every input, for the benchmark's own tests",
    )
    return parser.parse_args(argv)


def blas_info():
    """OpenBLAS build string and thread count of the library numpy loaded."""
    import numpy

    libs = os.path.join(os.path.dirname(os.path.dirname(numpy.__file__)), "numpy.libs")
    for path in sorted(glob.glob(os.path.join(libs, "*openblas*.so*"))):
        lib = ctypes.CDLL(path)
        for prefix in ("scipy_openblas", "openblas"):
            for suffix in ("64_", ""):
                get_threads = getattr(lib, f"{prefix}_get_num_threads{suffix}", None)
                get_config = getattr(lib, f"{prefix}_get_config{suffix}", None)
                if get_threads is not None and get_config is not None:
                    get_threads.argtypes, get_threads.restype = [], ctypes.c_int
                    get_config.argtypes, get_config.restype = [], ctypes.c_char_p
                    return get_config().decode(), get_threads()
    blas = numpy.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    return f"{blas.get('name')} {blas.get('version')}", None


def git_commit():
    """HEAD of the checkout read from .git, or None outside a git checkout."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if os.path.exists(os.path.join(git, ref)):
            with open(os.path.join(git, ref)) as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return None


def source_digest():
    """sha256 over the package sources, identifying the code measured."""
    h = hashlib.sha256()
    for path in sorted(glob.glob(os.path.join(SRC, "levquant", "*.py"))):
        with open(path, "rb") as fh:
            h.update(os.path.basename(path).encode() + b"\0" + fh.read())
    return h.hexdigest()


def environment():
    import numpy
    import scipy

    blas, threads = blas_info()
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "blas_threads": threads,
        "nproc": len(os.sched_getaffinity(0)),
        "git_commit": git_commit(),
        "src_sha256": source_digest(),
    }


def gauge_s():
    """Median time of a fixed pure-Python loop.  Taken before and after the
    passes and recorded beside the metrics, not as one: on a shared machine
    whose speed drifts it tells a slower machine from slower code."""
    times = []
    for _ in range(5):
        t0 = time.perf_counter()
        total = 0
        for i in range(200_000):
            total += i * i % 7
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def measure(workload, budget, min_passes, tracer=None):
    """Run passes until the next one would end past ``budget`` seconds."""
    passes = []
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        passes.append(workload.run_pass(len(passes), tracer))
        last = time.perf_counter() - t0
        if len(passes) >= min_passes and time.perf_counter() - start + last > budget:
            return passes


def pass_walls(passes):
    return [sum(op.wall_s for op in ops) for ops in passes]


def run(args, workloads, spans, workdir, import_s):
    wl = workloads.WORKLOADS[args.workload](args.seed, workdir, tiny=args.size == "tiny")
    setup_times = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        wl.setup()
        setup_times.append(time.perf_counter() - t0)
    setup_s = import_s + statistics.median(setup_times)

    # a traced run splits its time between an untraced part, which gives the
    # base of trace.overhead_frac, and the traced part
    budget = args.seconds / 2 if args.trace else args.seconds
    gauge = [gauge_s()]
    untraced = measure(wl, budget, 1 if args.trace else 2)
    traced, tracer = [], None
    if args.trace:
        tracer = spans.Tracer()
        tracer.install()
        try:
            tracer.op_id = "setup"
            t0 = time.perf_counter()
            wl.setup()
            traced_setup_s = time.perf_counter() - t0
            traced = measure(wl, budget, wl.min_traced_passes, tracer)
        finally:
            tracer.remove()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    gauge.append(gauge_s())

    ops = [op for ops in untraced + traced for op in ops]
    for label, reason in wl.finish():
        for op in ops:
            if op.label == label:
                op.failures.append(reason)
    failed = sum(1 for op in ops if op.failures)
    op_walls = [op.wall_s for ops in untraced for op in ops]
    metrics = {
        "setup_s": (setup_s, "s"),
        "wall_s": (statistics.median(pass_walls(untraced)), "s"),
        "op_p50_s": (statistics.median(op_walls), "s"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
        "error_rate": (failed / len(ops), "fraction"),
    }
    op_tail = spans.tail(op_walls)
    if op_tail is not None:
        metrics["op_tail_s"] = (op_tail[0], "s")

    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "size": args.size,
        "environment": environment(), "sizes": wl.sizes(), "details": wl.details(),
        "setup": {"import_s": import_s, "repeats_s": setup_times},
        "gauge_s": gauge,
        "op_tail": None if op_tail is None else {
            "percentile": op_tail[1], "ops": len(op_walls),
        },
        "untraced_ops_s": [[op.wall_s for op in ops] for ops in untraced],
        "failures": [reason for op in ops for reason in op.failures],
        "attempted": len(ops), "failed": failed,
    }
    if args.trace:
        traced_walls = pass_walls(traced)
        layer = spans.layer_metrics(tracer.spans, len(traced))
        layer["trace.overhead_frac"] = (
            statistics.median(traced_walls) / metrics["wall_s"][0] - 1.0, "fraction",
        )
        if "bytes_written" in record["details"]:
            layer["cli.bytes_written"] = (record["details"]["bytes_written"], "bytes")
        shares, dominant = spans.module_shares(tracer.spans, traced_setup_s + sum(traced_walls))
        record.update(
            traced_ops_s=[[op.wall_s for op in ops] for ops in traced],
            traced_setup_s=traced_setup_s, module_shares=shares, dominant_span=dominant,
        )
        metrics.update(layer)
        record["spans_file"] = os.path.relpath(
            os.path.join(OUT, f"{args.workload}-seed{args.seed}.spans.jsonl"), ROOT
        )
        tracer.write(os.path.join(ROOT, record["spans_file"]))
    record["metrics"] = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}
    return record


def report(record, bench):
    """Print every metric, then the result line the contract asks for."""
    env = record["environment"]
    print(f"# {record['workload']} seed {record['seed']} trace {record['trace']} size {record['size']}")
    print(
        f"# python {env['python']} numpy {env['numpy']} scipy {env['scipy']} "
        f"blas {env['blas']!r} blas_threads {env['blas_threads']} nproc {env['nproc']} "
        f"commit {env['git_commit']} src {env['src_sha256'][:12]}"
    )
    print(f"# sizes {json.dumps(record['sizes'])}")
    before, after = record["gauge_s"]
    print(f"# machine gauge {1000 * before:.1f} ms before the passes, {1000 * after:.1f} ms after")
    metrics = record["metrics"]
    for name, m in metrics.items():
        note = ""
        if name == "op_tail_s":
            note = f"  (p{record['op_tail']['percentile']:.1f} of {record['op_tail']['ops']} ops)"
        elif name == "error_rate":
            note = f"  ({record['failed']} of {record['attempted']} ops failed)"
        print(f"{name} = {m['value']:.6g} {m['unit']}{note}")
    if record["trace"]:
        shares = ", ".join(f"{k} {v:.3f}" for k, v in record["module_shares"].items())
        print(f"# self-time share of traced wall: {shares}; dominant span {record['dominant_span']}")
    reasons = record["failures"]
    for reason in sorted(set(reasons)):
        print(f"FAILED ({reasons.count(reason)}x): {reason}")

    wanted = bench["per_layer"] if record["trace"] else bench["end_to_end"]
    result = {}
    for m in wanted:
        got = metrics.get(m["name"])
        if got is None or got["unit"] != m["unit"]:
            raise RuntimeError(f"metric {m['name']} ({m['unit']}) not measured as declared: {got}")
        result[m["name"]] = got
    print(json.dumps({
        "correct": record["failed"] == 0, "attempted": record["attempted"],
        "failed": record["failed"], "metrics": result,
    }))


def main(argv=None):
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "levquant", "__init__.py")):
        print(f"perfbench: no levquant package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import spans
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    import_s = time.perf_counter() - START
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    os.makedirs(OUT, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"work-{args.workload}-", dir=OUT)
    try:
        record = run(args, workloads, spans, workdir, import_s)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}-{args.size}.json"
    with open(os.path.join(OUT, name), "w") as fh:
        json.dump(record, fh, indent=1)
    report(record, bench)
    return 0


if __name__ == "__main__":
    sys.exit(main())
