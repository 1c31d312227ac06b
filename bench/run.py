#!/usr/bin/env python3
"""The abelcover benchmark.

    python3 bench/run.py --workload small-mixed --seed 1 --seconds 25 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 25 --trace 0

Run from the root of a checkout.  The package is imported from `src/`.
Each workload generates its documents from the seed (see `corpus.py`),
sets up, then drives whole passes over them in a closed loop (one client,
one process, no threads) until `--seconds` have gone by, then checks every
output against the oracles in `oracle.py`.

`--trace 0` prints the end-to-end metrics.  `--trace 1` alternates untraced
passes with passes in which every public function of the package is wrapped
from outside (`tracing.py`), and prints the per-layer metrics and the gap
between the two kinds of pass.  The last line of stdout is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

Times are reported at a reference host speed.  A shared host can run the
same Python code up to a third faster or slower from one minute to the next
(seen on a 2-vCPU virtual machine), so a fixed piece of integer arithmetic
(`reference_work`) is timed between documents, once per CALIBRATE_EVERY_S, and
each pass's times are multiplied by REFERENCE_MS over that pass's median
reference time.  The raw pass time and the factors are printed too.  The
benchmark and the CLI children it spawns are pinned to one CPU, so the
reference work runs where the workload runs.

Exits 2 without a result when the package source is missing.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib
import json
import os
import resource
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from statistics import median

import corpus
import oracle
import tracing

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
SPANS_DIR = BENCH / "out"

WORKLOADS = ("small-mixed", "fiber-large", "kernel-large", "cli-commands")
#: Set-up (generation and warm-up) is repeated this often; the median counts.
SETUP_REPEATS = 3
#: `python -X importtime` probes per traced run; the median counts.
IMPORTTIME_PROBES = 3
#: The tail latency is the highest percentile with this many documents beyond it.
TAIL_BEYOND = 10
#: Below this many documents the tail is the slowest document.
TAIL_MIN_DOCS = 100
CHILD_TIMEOUT_S = 120
#: Seconds of workload per timing of the reference work.
CALIBRATE_EVERY_S = 0.1
CATCH_UP_MAX = 10
#: Median time of `reference_work` on one CPU of a 2-vCPU virtual machine
#: with Python 3.11.7.  It only sets the scale of the reported times.
REFERENCE_MS = 3.4

END_TO_END_UNITS = {
    "docs_per_s": "1/s", "doc_p50_ms": "ms", "doc_tail_ms": "ms",
    "peak_rss_mb": "MB", "setup_s": "s",
}
PER_LAYER_UNITS = {
    **{m: "ms" for m in tracing.SELF_MS},
    **{m: "count" for m in (*tracing.CALLS, *tracing.WORK)},
    "classify.fiber_routes_ratio": "ratio",
    "classify.limit_hits": "count",
    "cli.startup_ms": "ms",
    "fiber.numpy_import_ms": "ms",
    "trace.overhead_pct": "%",
}


def child_env() -> dict:
    """Environment of the CLI children: the package from src/, with bytecode
    caches allowed, as an installed package has them."""
    env = dict(os.environ)
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


# ---------------------------------------------------------------------------
# The closed loop


def reference_work() -> int:
    """Fixed integer arithmetic in the interpreter loop, used to gauge how
    fast the host runs Python at the moment."""
    total = 0
    for i in range(50000):
        total += (i * i) % 7
    return total


class HostSpeed:
    """Timings of `reference_work` taken during one stretch of a run."""

    def __init__(self):
        self.samples: list[int] = []
        self.last = 0

    def sample(self) -> None:
        t0 = time.perf_counter_ns()
        reference_work()
        self.last = time.perf_counter_ns()
        self.samples.append(self.last - t0)

    def catch_up(self) -> None:
        """Time the reference work once for every CALIBRATE_EVERY_S since the
        last timing (at most CATCH_UP_MAX in a row), so that a pass of long
        documents gets as many timings as a pass of short ones."""
        due = int((time.perf_counter_ns() - self.last) / (CALIBRATE_EVERY_S * 1e9))
        for _ in range(min(due, CATCH_UP_MAX)):
            self.sample()

    @property
    def factor(self) -> float:
        """Multiply a time measured in this stretch by this to get it at the
        reference speed."""
        return REFERENCE_MS * 1e6 / median(self.samples)


@dataclass
class Timing:
    """Per-item latencies (ns, at the reference speed) and outputs of whole
    passes, with the host-speed factor of each pass."""

    latencies: list
    outputs: list
    mismatches: list
    factors: list = field(default_factory=list)
    raw_pass_s: list = field(default_factory=list)
    wall_s: float = 0.0

    @property
    def attempted(self) -> int:
        return sum(len(lat) for lat in self.latencies)

    @property
    def factor(self) -> float:
        return median(self.factors)

    def per_item_ms(self) -> list[float]:
        """Median latency of each item over the passes."""
        return [median(lat) / 1e6 for lat in self.latencies]

    def summary(self) -> str:
        return (f"{len(self.factors)} passes, {self.attempted} timed in {self.wall_s:.2f} s; "
                f"raw pass median {median(self.raw_pass_s):.3f} s, host-speed factor "
                f"median {self.factor:.3f} (range {min(self.factors):.3f}-{max(self.factors):.3f})")


def timed_passes(items, seconds: float, *modes) -> list[Timing]:
    """Run whole passes over `items` until `seconds` have elapsed, cycling
    through `modes` pass by pass, so that every mode sees the same host
    conditions.  A mode is a callable returning a context manager that
    yields the function run on each item.  Returns one Timing per mode.

    Between items the reference work is timed once per CALIBRATE_EVERY_S of
    workload, and each pass's latencies are scaled by that pass's host-speed
    factor.  The
    first output of each item is kept; later passes must reproduce it."""
    timings = [Timing([[] for _ in items], [None] * len(items), [0] * len(items))
               for _ in modes]
    clock = time.perf_counter_ns
    deadline = clock() + int(seconds * 1e9)
    while True:
        for mode, t in zip(modes, timings):
            start = clock()
            speed = HostSpeed()
            speed.sample()
            raw = []
            with mode() as run_one:
                for i, item in enumerate(items):
                    speed.catch_up()
                    t0 = clock()
                    try:
                        out = run_one(item)
                    except Exception:  # a traceback is a failed document, not a crash
                        out = ("traceback", traceback.format_exc())
                    raw.append(clock() - t0)
                    if t.outputs[i] is None:
                        t.outputs[i] = out
                    elif out != t.outputs[i]:
                        t.mismatches[i] += 1
            speed.sample()
            t.factors.append(speed.factor)
            t.raw_pass_s.append(sum(raw) / 1e9)
            for lat, ns in zip(t.latencies, raw):
                lat.append(ns * speed.factor)
            t.wall_s += (clock() - start) / 1e9
        if clock() >= deadline:
            return timings


def end_to_end(t: Timing, peak_rss_mb: float, setup_s: float) -> tuple[dict, str]:
    """End-to-end metrics from the per-document median latencies."""
    per_doc = sorted(t.per_item_ms())
    k = len(per_doc)
    if k >= TAIL_MIN_DOCS:
        tail = per_doc[k - TAIL_BEYOND - 1]
        where = f"p{100 * (k - TAIL_BEYOND) / k:.1f} of {k} per-document medians"
    else:
        tail = per_doc[-1]
        where = f"slowest of {k} per-document medians"
    values = {
        # Closed loop, one client: throughput is the inverse of the time a
        # pass takes at every document's median latency, which keeps a burst
        # of host contention in one pass from moving it.
        "docs_per_s": k / (sum(per_doc) / 1e3),
        "doc_p50_ms": median(per_doc),
        "doc_tail_ms": tail,
        "peak_rss_mb": peak_rss_mb,
        "setup_s": setup_s,
    }
    return values, where


def overhead_pct(plain: Timing, traced: Timing) -> float:
    """How much longer a traced pass takes than an untraced one."""
    return 100 * (sum(traced.per_item_ms()) / sum(plain.per_item_ms()) - 1)


# ---------------------------------------------------------------------------
# Set-up


def import_package():
    """Import the package from src/ and return (cli module, seconds)."""
    sys.path.insert(0, str(SRC))
    t0 = time.perf_counter()
    cli = importlib.import_module("abelcover.cli")
    elapsed = time.perf_counter() - t0
    location = Path(sys.modules["abelcover"].__file__).resolve()
    if SRC.resolve() not in location.parents:
        raise RuntimeError(f"abelcover was imported from {location}, not from {SRC}")
    return cli, elapsed


def set_up(workload, import_s: float) -> tuple[list, float, bool]:
    """Generate the workload's items and warm up, SETUP_REPEATS times.
    Returns the items, the set-up time (the package import plus the median
    repeat, at the reference speed) and whether every generation gave the
    same items."""
    times, texts, items = [], set(), None
    speed = HostSpeed()
    for _ in range(SETUP_REPEATS):
        speed.sample()
        t0 = time.perf_counter()
        items = workload.make()
        workload.warm_up()
        times.append(time.perf_counter() - t0)
        texts.add(repr(items))
    speed.sample()
    return items, (import_s + median(times)) * speed.factor, len(texts) == 1


def importtime_probe() -> str:
    proc = subprocess.run(
        [sys.executable, "-X", "importtime", "-c", "import abelcover.cli"],
        capture_output=True, text=True, cwd=ROOT, env=child_env(), timeout=CHILD_TIMEOUT_S)
    if proc.returncode:
        raise RuntimeError(f"import probe failed: {proc.stderr[-500:]}")
    return proc.stderr


# ---------------------------------------------------------------------------
# Workloads


def expected_for(cli, doc):
    return cli.expected_report(doc.params["name"]) if doc.kind == "registry" else None


def report_problems(cli, doc, text: str, code: int) -> list[str]:
    if code != 0:
        return [f"exit code {code}"]
    return oracle.check_report(doc, text, expected_for(cli, doc))


def is_traceback(out) -> bool:
    return out[0] == "traceback"


def traceback_line(out) -> str:
    return out[1].strip().splitlines()[-1]


class InProcess:
    """parse_input -> cmd_classify(as_json=True) on each document, in this
    process."""

    rusage = resource.RUSAGE_SELF

    def __init__(self, cli, name: str, seed: int):
        self.cli, self.name, self.seed = cli, name, seed
        self.registry = corpus.registry_docs()
        self.unrestored = 0

    def make(self):
        return corpus.WORKLOAD_DOCS[self.name](self.seed)

    def run(self, doc):
        return self.cli.cmd_classify(self.cli.parse_input(doc.text), as_json=True)

    @contextlib.contextmanager
    def plain(self):
        yield self.run

    def warm_up(self) -> None:
        for doc in self.registry:
            self.run(doc)

    def describe(self, docs) -> str:
        return f"{len(docs)} documents, {corpus.describe(docs)}"

    def ident(self, doc) -> str:
        return doc.id

    @contextlib.contextmanager
    def traced(self, tracer):
        def run_one(doc):
            with tracer.span("document", doc.id):
                return self.run(doc)

        with tracer.installed():
            yield run_one
        self.unrestored += not tracing.untouched()

    def problems(self, docs, outputs) -> list:
        return [[traceback_line(out)] if is_traceback(out)
                else report_problems(self.cli, doc, *out)
                for doc, out in zip(docs, outputs)]

    def report_texts(self, docs, outputs):
        return [out[0] for out in outputs]


class CliCommands:
    """`python -m abelcover.cli <command>` as a subprocess per invocation,
    with the document on stdin."""

    rusage = resource.RUSAGE_CHILDREN
    name = "cli-commands"

    def __init__(self, cli, seed: int):
        self.cli, self.seed = cli, seed
        self.command = [sys.executable, "-m", "abelcover.cli"]
        self.unrestored = 0

    def make(self):
        return corpus.cli_invocations(self.seed)

    def spawn(self, command, invocation):
        doc, args = invocation
        proc = subprocess.run(
            command + list(args), input=doc.text, capture_output=True, text=True,
            cwd=ROOT, env=child_env(), timeout=CHILD_TIMEOUT_S)
        return proc.stdout, proc.returncode, proc.stderr

    def run(self, invocation):
        return self.spawn(self.command, invocation)

    @contextlib.contextmanager
    def plain(self):
        yield self.run

    def warm_up(self) -> None:
        out = self.run((corpus.registry_docs()[0], ("validate",)))
        if out[1] != 0:
            raise RuntimeError(f"warm-up invocation failed: {out[2][-500:]}")

    def describe(self, invocations) -> str:
        docs = corpus.cli_docs(self.seed)
        return (f"{len(invocations)} invocations ({len(corpus.CLI_COMMANDS)} commands x "
                f"{len(docs)} documents), {corpus.describe(docs)}; docs_per_s counts "
                f"invocations, latency is spawn to exit, peak_rss_mb is the largest child")

    def ident(self, invocation) -> str:
        doc, args = invocation
        return f"{doc.id} {' '.join(args)}"

    @contextlib.contextmanager
    def traced(self, tracer):
        """Each invocation runs under bench/cli_traced.py, which reports its
        spans on the last line of stderr; they are appended to the tracer's."""
        command = [sys.executable, str(BENCH / "cli_traced.py")]

        def run_one(invocation):
            stdout, code, stderr = self.spawn(command, invocation)
            head, marker, tail = stderr.rpartition(tracing.SPANS_MARKER)
            if not marker:
                self.unrestored += 1
                return stdout, code, stderr
            payload = json.loads(tail)
            self.unrestored += not payload["restored"]
            offset = len(tracer.spans)
            for span in payload["spans"]:
                if span[tracing.PARENT] >= 0:
                    span[tracing.PARENT] += offset
                tracer.spans.append(tuple(span))
            return stdout, code, head

        yield run_one

    def problems(self, invocations, outputs) -> list:
        """classify --json must equal the in-process bytes and pass the
        report oracles; the other commands are checked against the verdict
        proven there for the same document."""
        verdicts, problems = {}, []
        for (doc, args), out in zip(invocations, outputs):
            if is_traceback(out):
                problems.append([traceback_line(out)])
                continue
            stdout, code, stderr = out
            p = [f"exit code {code}"] if code else []
            if stderr:
                p.append(f"stderr: {stderr.strip()[-300:]}")
            if args[0] == "classify":
                text, in_code = self.cli.cmd_classify(self.cli.parse_input(doc.text), as_json=True)
                if stdout != text:
                    p.append("classify --json differs from the in-process bytes")
                found = report_problems(self.cli, doc, text, in_code)
                if not found:
                    verdicts[doc.id] = json.loads(text)["gorenstein"]
                p += found
            problems.append(p)
        for p, (doc, args), out in zip(problems, invocations, outputs):
            if args[0] == "classify" or p:
                continue
            if doc.id in verdicts:
                p += oracle.check_command(doc, args, out[0], verdicts[doc.id])
            else:
                p.append("no verified classify verdict for this document")
        return problems

    def report_texts(self, invocations, outputs):
        return [out[0] for (_, args), out in zip(invocations, outputs) if args[0] == "classify"]


# ---------------------------------------------------------------------------
# Driver


def failed_runs(t: Timing, problems: list) -> int:
    """Runs that failed: every run of an item whose output is wrong, and
    every later run that did not reproduce a correct first output."""
    return sum(len(lat) if p else m for lat, p, m in zip(t.latencies, problems, t.mismatches))


def limit_hits(texts) -> int:
    hits = 0
    for text in texts:
        with contextlib.suppress(ValueError, KeyError, TypeError):
            hits += json.loads(text)["lci_reason"] == "limit"
    return hits


def write_spans(name: str, seed: int, spans) -> None:
    SPANS_DIR.mkdir(exist_ok=True)
    path = SPANS_DIR / f"spans-{name}-seed{seed}.json"
    fields = ["name", "start_ns", "end_ns", "parent", "document", "work"]
    path.write_text(json.dumps({"fields": fields, "spans": spans}, separators=(",", ":")))
    print(f"{len(spans)} spans written to {path.relative_to(ROOT)}")


def run_workload(workload, import_s: float, seconds: int, trace: bool) -> dict:
    items, setup_s, deterministic = set_up(workload, import_s)
    print(f"workload {workload.name}, seed {workload.seed}: {workload.describe(items)}")

    tracer = tracing.Tracer()
    modes = (workload.plain, lambda: workload.traced(tracer)) if trace else (workload.plain,)
    plain, *traced = timed_passes(items, seconds, *modes)
    peak_rss_mb = resource.getrusage(workload.rusage).ru_maxrss / 1024
    problems = workload.problems(items, plain.outputs)
    failed = failed_runs(plain, problems)
    attempted = plain.attempted
    print(plain.summary())

    if not trace:
        values, where = end_to_end(plain, peak_rss_mb, setup_s)
        print(f"doc_tail_ms is the {where}")
    else:
        traced = traced[0]
        if workload.unrestored:
            print(f"FAILED: tracing wrappers were left installed {workload.unrestored} times")
        # Traced outputs must be byte-identical to the untraced ones.
        traced_problems = [p or ([] if o == u else ["traced output differs"])
                           for p, o, u in zip(problems, traced.outputs, plain.outputs)]
        failed += failed_runs(traced, traced_problems)
        attempted += traced.attempted
        problems = [a or b for a, b in zip(problems, traced_problems)]
        values = tracing.layer_metrics(tracer.spans, traced.attempted)
        for key in tracing.SELF_MS:
            values[key] *= traced.factor
        values["classify.limit_hits"] = limit_hits(workload.report_texts(items, plain.outputs))
        values["trace.overhead_pct"] = overhead_pct(plain, traced)
        speed = HostSpeed()
        logs = []
        for _ in range(IMPORTTIME_PROBES):
            speed.sample()
            logs.append(importtime_probe())
        speed.sample()
        startup, numpy_ms = tracing.median_split(logs)
        values["cli.startup_ms"] = startup * speed.factor
        values["fiber.numpy_import_ms"] = numpy_ms * speed.factor
        write_spans(workload.name, workload.seed, tracer.spans)

    bad = [(workload.ident(item), p) for item, p in zip(items, problems) if p]
    for ident, p in bad[:20]:
        print(f"FAILED {ident}: {'; '.join(p)[:400]}")
    if len(bad) > 20:
        print(f"... and {len(bad) - 20} more failing items")
    correct = deterministic and not workload.unrestored and failed == 0
    return result(correct, attempted, failed, values)


def result(correct: bool, attempted: int, failed: int, values: dict) -> dict:
    units = {**END_TO_END_UNITS, **PER_LAYER_UNITS}
    metrics = {}
    for key in sorted(values):
        metrics[key] = {"value": values[key], "unit": units[key]}
        print(f"  {key:30} {values[key]:14.6g} {units[key]}")
    print(f"failed {failed} of {attempted} attempted")
    return {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}


def run_all(args) -> int:
    """Every workload in its own process; the children's lines are passed
    through and their results merged under `<workload>/<metric>`."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    code = 0
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            capture_output=True, text=True, cwd=ROOT, timeout=900)
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]), flush=True)
        if proc.returncode or not lines:
            sys.stderr.write(proc.stderr)
            code = proc.returncode or 1
            continue
        child = json.loads(lines[-1])
        merged["correct"] &= child["correct"]
        merged["attempted"] += child["attempted"]
        merged["failed"] += child["failed"]
        for key, value in child["metrics"].items():
            merged["metrics"][f"{name}/{key}"] = value
    print(json.dumps(merged))
    return code


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if not (SRC / "abelcover" / "__init__.py").is_file():
        print(f"error: package source not found at {SRC / 'abelcover'}; "
              "run from the root of an abelcover checkout", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    # One CPU for this process and the children it spawns, so that the
    # reference work and the workload run where the other one does.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    cli, import_s = import_package()
    if args.workload == "cli-commands":
        workload = CliCommands(cli, args.seed)
    else:
        workload = InProcess(cli, args.workload, args.seed)
    out = run_workload(workload, import_s, args.seconds, bool(args.trace))
    print(json.dumps(out), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
