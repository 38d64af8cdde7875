"""Benchmark for torusarr: seeded workloads, end-to-end and per-layer metrics.

Usage, from the repository root:

    python3 perfbench/run.py --workload sweep3 --seed 1 --seconds 57 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 57

The library is imported from ``src/`` of the checkout this file sits in.
With ``--trace 0`` the run times ops for ``--seconds`` and prints the
end-to-end metrics; with ``--trace 1`` it runs ops traced and untraced
for half of ``--seconds``, then the build/glue split, the layer probes
and the CLI, and prints the per-layer metrics. Every output is checked
after the timed phase, and the last line of standard output is one JSON
object with the result. NOTES.md explains the workloads and the metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import importlib
import io
import itertools
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import time
from collections import Counter, defaultdict
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
sys.path.insert(0, str(HERE))

import oracles  # noqa: E402
import spans  # noqa: E402
from workloads import WORKLOADS, construct_grid, direct, lattice_pairs  # noqa: E402

DEFAULT_SEED = 1
SETUP_REPEATS = 9
TAIL_BEYOND = 10
TRACE_SHARE = 0.5  # share of --seconds for the traced and untraced ops
CLI_REPEATS = 3
# Layers a count runs through, with a self-time metric; feasibility's
# self time is feasibility.busy_ms.
LAYERS = ("regions", "geometry")


class SetupError(Exception):
    pass


@dataclass
class Pass:
    """What one run of ops leaves: the op count, ops and summed latency (s)
    per corpus index, the first output per index, and repeats per index
    whose output differed from the first."""

    ops: int
    counts: Counter
    busy: defaultdict
    first: dict
    differing: Counter

    def latencies(self) -> list[float]:
        """Sorted latency of each input run: the mean over its repeats."""
        return sorted(self.busy[i] / n for i, n in self.counts.items())


def import_library():
    """A fresh import of ``torusarr`` from this checkout's ``src/``."""
    if not (SRC / "torusarr" / "__init__.py").is_file():
        raise SetupError(f"no torusarr package under {SRC}")
    for name in [m for m in sys.modules if m == "torusarr" or m.startswith("torusarr.")]:
        del sys.modules[name]
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    ta = importlib.import_module("torusarr")
    if Path(ta.__file__).resolve().parent != SRC / "torusarr":
        raise SetupError(f"imported torusarr from {ta.__file__}, not from {SRC}")
    return ta


def set_up(wl, seed):
    """Import, corpus generation and warm-up, timed together."""
    t0 = time.perf_counter()
    ta = import_library()
    corpus, rejected = wl.corpus(ta, seed)
    for item in wl.warmup(corpus):
        wl.run_op(ta, item, direct)
    return time.perf_counter() - t0, ta, corpus, rejected


def digest(lines) -> str:
    h = hashlib.sha256()
    for line in lines:
        h.update(line.encode())
        h.update(b"\n")
    return h.hexdigest()[:16]


def load_expected(wl, seed, corpus):
    """Stored answers of the default seed's corpus, or None for other seeds."""
    if seed != DEFAULT_SEED:
        return None
    stored = json.loads((HERE / "expected.json").read_text())[wl.name]
    if stored["corpus"] != digest(it.label for it in corpus):
        raise SetupError(f"{wl.name}: default-seed corpus differs from expected.json")
    return stored["answers"]


def run_ops(op, corpus, seconds, max_ops, min_ops):
    """Run ``op`` on corpus items in order, cycling, until ``max_ops`` ops
    are done or, once ``min_ops`` are done, ``seconds`` have passed.

    Returns a ``Pass``. Only sums per input are kept, so the benchmark's
    own memory does not grow with the op rate and show in ``peak_rss_mb``.
    """
    ops = 0
    counts: Counter = Counter()
    busy: defaultdict = defaultdict(float)
    first: dict[int, object] = {}
    differing: Counter = Counter()
    gc.collect()
    start = time.perf_counter()
    while ops < max_ops:
        idx = ops % len(corpus)
        t0 = time.perf_counter()
        try:
            out = op(corpus[idx])
        except Exception as exc:  # an op that raises counts as failed
            out = exc
        t1 = time.perf_counter()
        ops += 1
        busy[idx] += t1 - t0
        counts[idx] += 1
        if idx not in first:
            first[idx] = out
        elif isinstance(out, Exception) or out != first[idx]:
            differing[idx] += 1
        if ops >= min_ops and t1 - start >= seconds:
            break
    return Pass(ops, counts, busy, first, differing)


def check_outputs(wl, ta, corpus, run, expected):
    """Failed op count, problems found, and the count digest of the first pass."""
    problems = {}
    answers = {}
    for idx, out in run.first.items():
        if isinstance(out, Exception):
            problems[idx] = f"raised {type(out).__name__}: {out}"
            continue
        try:
            problem = wl.check(ta, corpus[idx], out)
            answers[idx] = out
        except Exception as exc:  # a check that raises marks the output wrong
            problem = f"check raised {type(exc).__name__}: {exc}"
        if problem is None and expected is not None and answers[idx] != expected[idx]:
            problem = f"answer {answers[idx]} != stored {expected[idx]} for the default seed"
        if problem:
            problems[idx] = problem
    failed = sum(run.counts[i] if i in problems else run.differing[i] for i in run.first)
    count_digest = digest(f"{i}:{answers.get(i, 'error')}" for i in sorted(run.first))
    return failed, problems, count_digest


def quantile(sorted_lat, p):
    """Harrell-Davis estimate of the p-quantile of the latencies.

    A weighted mean of all order statistics, with weights from the
    Beta(p (n + 1), (1 - p) (n + 1)) density at the midpoints (i + 1/2) / n.
    sweep3 and glue4 hold a few dozen inputs whose latencies span two
    decades, so neighbouring order statistics differ by 10% or more, and
    the plain sample quantile jumps with every input that crosses it;
    this estimate moves smoothly.
    """
    n = len(sorted_lat)
    a, b = p * (n + 1) - 1, (1 - p) * (n + 1) - 1
    logs = [a * math.log((i + 0.5) / n) + b * math.log(1 - (i + 0.5) / n) for i in range(n)]
    top = max(logs)
    weights = [math.exp(x - top) for x in logs]
    return sum(w * x for w, x in zip(weights, sorted_lat)) / sum(weights)


def tail(sorted_lat):
    """Latency at the highest percentile with TAIL_BEYOND samples beyond it;
    returns (latency, percentile, samples beyond)."""
    n = len(sorted_lat)
    if n <= TAIL_BEYOND:
        return sorted_lat[-1], 100.0, 0
    pct = 100.0 * (n - TAIL_BEYOND) / n
    return quantile(sorted_lat, pct / 100), pct, TAIL_BEYOND


def shape(corpus, rejected, ops, cells=None):
    """Load shape of the corpus: sizes, generator rejections, class shares.

    ``cells`` are built cell counts of the ops run (traced run); without
    them the generators' estimates are shown (see workloads.cube_cells).
    """
    sheets = [it.sheets for it in corpus if it.sheets]
    estimates = [it.cells for it in corpus if it.cells]
    tags = [t for it in corpus for t in it.tags]
    line = f"load: {len(corpus)} inputs, {ops} ops run"
    if sheets:
        line += f"; sheets mean {statistics.mean(sheets):.1f} max {max(sheets)}"
    if cells:
        line += f"; built cells mean {statistics.mean(cells):.1f} max {max(cells)}"
    elif estimates:
        line += f"; estimated cells mean {statistics.mean(estimates):.1f} max {max(estimates)}"
    line += f"; draws rejected at the sheet cap {rejected}"
    shares = ", ".join(f"{t} {tags.count(t) / len(corpus):.1%}" for t in sorted(set(tags)))
    return line + (f"; shares: {shares}" if shares else "")


def metric(value, unit):
    return {"value": value, "unit": unit}


def timed_run(wl, args, setup_times, ta, corpus, rejected, expected):
    # At least one whole pass, so every input has a latency.
    run = run_ops(lambda item: wl.run_op(ta, item, direct), corpus, args.seconds, math.inf, len(corpus))
    failed, problems, count_digest = check_outputs(wl, ta, corpus, run, expected)
    lat = run.latencies()
    tail_s, tail_pct, beyond = tail(lat)
    metrics = {
        "setup_s": metric(statistics.median(setup_times), "s"),
        # The rate of a pass over the corpus: inputs over their summed
        # latencies, so the inputs a last, partial pass repeated do not
        # change the corpus's mix.
        "ops_per_s": metric(len(lat) / sum(lat), "1/s"),
        "op_p50_ms": metric(quantile(lat, 0.5) * 1e3, "ms"),
        "op_tail_ms": metric(tail_s * 1e3, "ms"),
        "peak_rss_mb": metric(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    notes = {
        "setup_s": "median of " + ", ".join(f"{t:.4f}" for t in setup_times),
        "op_tail_ms": f"p{tail_pct:.2f} of {len(lat)} inputs ({run.ops} ops), {beyond} beyond",
    }
    print(shape(corpus, rejected, run.ops))
    for name, m in metrics.items():
        print(f"{name:<12} {m['value']:>14.4f} {m['unit']:<3} {notes.get(name, '')}")
    print(f"{'failed_frac':<12} {failed / run.ops:>14.4f}     ({failed} of {run.ops} ops)")
    return run.ops, failed, problems, count_digest, metrics


def cli_times(ta, tmp_dir):
    """Median in-process ``cli.main verify`` and subprocess ``cli count``
    times (ms) on one fixed small d=2 arrangement, and the number of CLI
    calls whose answer was wrong."""
    cli = importlib.import_module("torusarr.cli")
    want = 4
    text = ta.format_tarr(ta.construct_for(2, 4, want))
    path = tmp_dir / f"cli-{os.getpid()}.tarr"
    path.write_text(text)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
    def f_of(stdout):
        try:
            return json.loads(stdout)["f"]
        except (ValueError, KeyError, TypeError):
            return None

    main_ms, proc_ms, wrong = [], [], 0
    try:
        for _ in range(CLI_REPEATS):
            buf = io.StringIO()
            t0 = time.perf_counter()
            with contextlib.redirect_stdout(buf):
                code = cli.main(["verify", str(path), "--json"])
            main_ms.append((time.perf_counter() - t0) * 1e3)
            wrong += code != 0 or f_of(buf.getvalue()) != want
            t0 = time.perf_counter()
            proc = subprocess.run(
                [sys.executable, "-m", "torusarr.cli", "count", str(path), "--json"],
                cwd=ROOT, env=env, capture_output=True, text=True, timeout=120,
            )
            proc_ms.append((time.perf_counter() - t0) * 1e3)
            wrong += proc.returncode != 0 or f_of(proc.stdout) != want
    finally:
        path.unlink()
    return statistics.median(main_ms), statistics.median(proc_ms), wrong


def probe_layers(ta, seed, arrangements):
    """Time the public calls of the layers no count makes, and check them.

    ``arrangements`` are (arrangement, count) pairs of the traced ops. Each
    goes through ``format_tarr``, ``parse_tarr`` (which must give it back)
    and ``check_bounds``; ``construct_for`` runs over the achievable grid
    of workloads.construct_grid, and the lattice and intersection calls
    over workloads.lattice_pairs. Returns the times in seconds per call
    name, the number of checked calls and the problems found.
    """
    times: defaultdict = defaultdict(list)
    problems = []

    def timed(name, fn, *args):
        t0 = time.perf_counter()
        out = fn(*args)
        times[name].append(time.perf_counter() - t0)
        return out

    for arr, f in arrangements:
        text = timed("format_tarr", ta.format_tarr, arr)
        if timed("parse_tarr", ta.parse_tarr, text) != arr:
            problems.append(f"parse_tarr(format_tarr(arr)) != arr for {text!r}")
        timed("check_bounds", ta.check_bounds, arr, f)
    for d, n, f in construct_grid():
        arr = timed("construct_for", ta.construct_for, d, n, f)
        problem = None
        if arr.dim != d or arr.n != n:
            problem = f"returned d={arr.dim}, n={arr.n}"
        elif d == 2 and oracles.euler_count_2d([(t.normal, t.offset) for t in arr.tori]) != f:
            problem = "Euler count differs"
        else:
            problem = oracles.bounds_problem(ta, arr, f)
        if problem:
            problems.append(f"construct_for({d}, {n}, {f}): {problem}")
    pairs = lattice_pairs(seed)
    for a, b in pairs:
        out = (
            timed("bezout_chain", ta.bezout_chain, a),
            timed("components_pair", ta.components_pair, a, b),
            timed("complete_to_unimodular", ta.complete_to_unimodular, a),
        )
        timed("minors2_gcd", ta.minors2_gcd, a, b)
        problem = oracles.lattice_problem(ta, a, b, out)
        if problem:
            problems.append(f"lattice pair {a} {b}: {problem}")
    checked = len(arrangements) + len(construct_grid()) + len(pairs)
    return times, checked, problems


def traced_run(wl, args, ta, corpus, rejected, expected):
    """Traced and untraced runs of the same ops, then the build/glue split,
    the layer probes and the CLI."""
    tracer = spans.Tracer()

    # Every op runs traced and untraced back to back, the two in turn
    # first, so that both timings see the same machine speed: on a shared
    # machine a pass can run 20% slower than the one before it.
    walls = [0.0, 0.0]  # traced, untraced
    turn = itertools.count()

    def paired(item):
        out = None
        for traced in (True, False) if next(turn) % 2 == 0 else (False, True):
            if traced:
                tracer.install(sys.modules)
            t0 = time.perf_counter()
            try:
                if traced:
                    out = tracer.call("bench", "op", wl.run_op, ta, item, tracer.call)
                else:
                    wl.run_op(ta, item, direct)
            finally:
                walls[not traced] += time.perf_counter() - t0
                if traced:
                    tracer.uninstall()
        return out

    run = run_ops(paired, corpus, args.seconds * TRACE_SHARE, len(corpus), 1)
    ops = run.ops
    failed, problems, count_digest = check_outputs(wl, ta, corpus, run, expected)

    sheets, cells, build_ms, glue_ms = [], [], [], []
    for idx in sorted(run.first):
        arr = corpus[idx].data
        t0 = time.perf_counter()
        unglued = ta.build_cells(arr)
        t1 = time.perf_counter()
        ta.build_cells(arr, glue=True)
        t2 = time.perf_counter()
        sheets.append(len(unglued.sheets))
        cells.append(len(unglued.cells))
        build_ms.append((t1 - t0) * 1e3)
        glue_ms.append(((t2 - t1) - (t1 - t0)) * 1e3)

    counted = [(corpus[i].data, f) for i, f in sorted(run.first.items()) if i not in problems]
    probe_s, checked, probe_problems = probe_layers(ta, args.seed, counted)
    OUT.mkdir(exist_ok=True)
    main_ms, proc_ms, cli_wrong = cli_times(ta, OUT)
    attempted = ops + checked + 2 * CLI_REPEATS
    failed += len(probe_problems) + cli_wrong
    for k, problem in enumerate(probe_problems):
        problems[f"probe {k}"] = problem
    if cli_wrong:
        problems["cli"] = f"{cli_wrong} CLI calls gave a wrong answer"

    def mean(xs):
        return statistics.mean(xs) if xs else 0.0

    def per_call_us(name):
        return tracer.total_ns(name) / tracer.calls[name] / 1e3 if tracer.calls[name] else 0.0

    def probe_us(name):
        return mean(probe_s[name]) * 1e6

    def ratio(num, den):
        return num / den if den else 0.0

    self_ns = tracer.self_ns_by_layer()
    feas_ns = self_ns.get("feasibility", 0)
    metrics = {
        "regions.sheets_per_op": metric(mean(sheets), "count/op"),
        "regions.cells_per_op": metric(mean(cells), "count/op"),
        "regions.build_ms_per_op": metric(mean(build_ms), "ms/op"),
        "regions.glue_ms_per_op": metric(mean(glue_ms), "ms/op"),
        "regions.glue_share": metric(ratio(sum(glue_ms), sum(glue_ms) + sum(build_ms)), "ratio"),
        "geometry.int_rank_calls": metric(tracer.calls["int_rank"] / ops, "count/op"),
        "geometry.int_rank_ms": metric(tracer.total_ns("int_rank") / ops / 1e6, "ms/op"),
        "geometry.overlap_calls": metric(tracer.calls["hulls_overlap_h"] / ops, "count/op"),
        "geometry.overlap_hit_ratio": metric(
            ratio(tracer.truthy["hulls_overlap_h"], tracer.calls["hulls_overlap_h"]), "ratio"
        ),
        "feasibility.relative_dim_calls": metric(tracer.calls["relative_dim_is"] / ops, "count/op"),
        "feasibility.feasible_calls": metric(tracer.calls["feasible"] / ops, "count/op"),
        "feasibility.busy_ms": metric(feas_ns / ops / 1e6, "ms/op"),
        "feasibility.ms_per_feasible": metric(per_call_us("feasible") / 1e3, "ms"),
        "feasibility.touch_ratio": metric(
            ratio(tracer.truthy["relative_dim_is"], tracer.calls["relative_dim_is"]), "ratio"
        ),
        "arrangement.parse_us": metric(probe_us("parse_tarr"), "us"),
        "arrangement.format_us": metric(probe_us("format_tarr"), "us"),
        "theory.bounds_us": metric(probe_us("check_bounds"), "us"),
        "theory.construct_ms": metric(probe_us("construct_for") / 1e3, "ms"),
        "intersection.pair_us": metric(probe_us("components_pair"), "us"),
        "lattice.chain_us": metric(probe_us("bezout_chain"), "us"),
        "lattice.complete_us": metric(probe_us("complete_to_unimodular"), "us"),
        "lattice.minors_us": metric(probe_us("minors2_gcd"), "us"),
        "cli.main_ms": metric(main_ms, "ms"),
        "cli.process_ms": metric(proc_ms, "ms"),
        "trace.overhead_frac": metric(walls[0] / walls[1] - 1, "ratio"),
    }
    for layer in LAYERS:
        metrics[f"{layer}.self_ms_per_op"] = metric(self_ns.get(layer, 0) / ops / 1e6, "ms/op")

    trace_path = OUT / f"trace-{wl.name}-seed{args.seed}.jsonl"
    tracer.write(trace_path)
    print(shape(corpus, rejected, ops, cells))
    for name, m in metrics.items():
        print(f"{name:<32} {m['value']:>14.4f} {m['unit']}")
    print(f"spans: {len(tracer.spans)} written to {trace_path.relative_to(ROOT)}")
    return attempted, failed, problems, count_digest, metrics


def run_workload(args) -> dict:
    wl = WORKLOADS[args.workload]
    setup_times = []
    for _ in range(SETUP_REPEATS):
        seconds, ta, corpus, rejected = set_up(wl, args.seed)
        setup_times.append(seconds)
    expected = load_expected(wl, args.seed, corpus)
    print(f"workload {wl.name}, seed {args.seed}, trace {args.trace}")
    if args.trace:
        ops, failed, problems, count_digest, metrics = traced_run(wl, args, ta, corpus, rejected, expected)
    else:
        ops, failed, problems, count_digest, metrics = timed_run(
            wl, args, setup_times, ta, corpus, rejected, expected
        )
    print(f"corpus digest {digest(it.label for it in corpus)}, count digest {count_digest}")
    for where, problem in list(problems.items())[:10]:
        print(f"wrong output at {where}: {problem}", file=sys.stderr)
    return {"correct": failed == 0, "attempted": ops, "failed": failed, "metrics": metrics}


def run_all(args) -> dict:
    """Each workload in its own process, so set-up and memory stay separate."""
    results = {}
    for name in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
        sys.stdout.write(proc.stdout)
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            raise SetupError(f"workload {name} exited with {proc.returncode}")
        results[name] = json.loads(proc.stdout.strip().splitlines()[-1])
    return {
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "workloads": results,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=57.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        result = run_all(args) if args.workload == "all" else run_workload(args)
    except SetupError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
