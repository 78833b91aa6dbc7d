"""Request benchmark for finefrob: seeded request streams through cli.main.

Run from the repository root:

    python3 perfbench/run.py --workload q_decompose --seed 1 --seconds 30 --trace 0

One client, one process, closed loop: each request is issued after the
previous one returns, in-process through ``finefrob.cli.main`` with input
files written beforehand.  Every answer is checked after the loop by
``verdicts``, outside the timed region.  ``--trace 0`` prints the end-to-end
metrics, ``--trace 1`` the per-layer ones from a traced replay of a fixed
prefix of the stream.  The last line of stdout is one JSON object; a fuller
record (failures by request id, metadata) goes to perfbench/out/.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import traceback
import itertools
from dataclasses import dataclass, replace
from fractions import Fraction
from pathlib import Path
from time import perf_counter

import mpmath

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / "perfbench" / "out"
SRC = ROOT / "src"
if str(ROOT) not in sys.path:  # run as a script from the repository root
    sys.path.insert(0, str(ROOT))

from perfbench import exact, verdicts, workloads  # noqa: E402
from perfbench.tracing import Tracer, layer_stats  # noqa: E402


@dataclass(frozen=True)
class Settings:
    """Per workload: request timeout (s), groups generated, groups traced."""

    timeout: float
    groups: int
    trace_groups: int


# Each timeout clears the classes meant to finish (on q_decompose the open
# factor searches run from tenths of a second to minutes, so the odd one ends
# near any timeout); ``groups`` covers a 30 s window with room (the loop wraps
# around if not); ``trace_groups`` is four cycles (two of q_series's longer ones).
SETTINGS = {
    "q_decompose": Settings(timeout=1.0, groups=120, trace_groups=56),
    "fp_decompose": Settings(timeout=10.0, groups=120, trace_groups=32),
    "q_series": Settings(timeout=20.0, groups=147, trace_groups=42),
}

SETUP_REPEATS = 11
SETUP_PROBE = (
    "import sys, time\n"
    "t = time.perf_counter()\n"
    "sys.path.insert(0, sys.argv[1])\n"
    "import finefrob.cli\n"
    "finefrob.cli.build_parser()\n"
    "print(time.perf_counter() - t)\n"
)

COMMANDS = ("minpoly", "factor", "jc", "cjc", "fine", "normalize", "apply", "domain", "check")

PER_LAYER_FUNCTIONS = {
    "poly.factor": ("calls", "self_s", "p50_ms", "max_ms"),
    "matrix.minimal_polynomial": ("calls", "self_s"),
    "poly.squarefree_part": ("self_s",),
    "jordan_chevalley.verify_complete_jc": ("self_s", "max_ms"),
    "jordan_chevalley.crt_projectors": ("self_s",),
    "jordan_chevalley.jc_decompose_newton": ("self_s",),
    "jordan_chevalley.complete_jc": ("self_s",),
    "matrix.eval_poly_at_matrix": ("calls", "self_s"),
    "matrix.is_semisimple": ("self_s",),
    "frobenius.fine_frobenius": ("self_s",),
    "frobenius.normalize": ("self_s",),
    "frobenius.verify_fine": ("self_s",),
    "series.apply_series": ("self_s",),
    "series.in_omega_hat": ("self_s",),
    "series.eigen_abs_data": ("self_s",),
    "series.taylor_oracle": ("self_s",),
}


# Shared hosts change speed by a third within seconds and drift over minutes,
# and a program of pure-Python exact arithmetic slows with them.  So a fixed
# job of the same kind of arithmetic, written apart from finefrob, is timed
# before every request, and latencies are reported at the speed where that
# job takes REFERENCE_S: a latency is scaled by REFERENCE_S over the median
# reference time of the request and its NEIGHBOURS neighbours on each side.
REFERENCE_S = 0.002
NEIGHBOURS = 2
_REFERENCE_MATRIX = [[Fraction(3 * i - 2 * j + 1, (i * j) % 7 + 2) for j in range(6)]
                     for i in range(6)]


def reference() -> float:
    """Seconds the reference job takes now (garbage collection off, so the
    heap the program keeps does not slow it)."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = perf_counter()
        square = exact.mul(_REFERENCE_MATRIX, _REFERENCE_MATRIX, 0)
        exact.mul(square, _REFERENCE_MATRIX, 0)
        return perf_counter() - start
    finally:
        if enabled:
            gc.enable()


class RequestTimeout(BaseException):
    """Raised by the interval timer inside a request that ran out of time."""


def _on_alarm(signum, frame):
    raise RequestTimeout()


@dataclass
class Record:
    req: object
    status: str  # ok | timeout | error | skipped, then wrong | rejected after checking
    latency: float | None
    stdout: str = ""
    reason: str = ""
    reference: float | None = None  # reference() just before the request


# ---------------------------------------------------------------------------
# serving
# ---------------------------------------------------------------------------

class Client:
    """Issues requests to cli.main in this process, one at a time."""

    def __init__(self, cli, workdir: Path, timeout: float, tracer=None):
        self.cli = cli
        self.workdir = workdir
        self.timeout = timeout
        self.tracer = tracer
        self.outputs: dict[str, str] = {}

    def _path(self, name: str, payload) -> str:
        path = self.workdir / name
        path.write_text(json.dumps(payload))
        return str(path)

    def argv(self, req):
        """Write the request's files; None if a source it reads failed."""
        if req.source is not None and req.source not in self.outputs:
            return None
        if req.command == "factor":
            given = json.loads(self.outputs[req.source])["result"]
            return ["factor", self._path(f"{req.rid}.in.json", given)]
        argv = [req.command, self._path(f"{req.rid}.in.json", req.doc)]
        if req.command == "check":
            result = json.loads(self.outputs[req.source])
            argv.append(self._path(f"{req.rid}.result.json", result))
        return argv + list(req.args)

    def send(self, req) -> Record:
        argv = self.argv(req)
        if argv is None:
            return Record(req, "skipped", None, reason=f"source {req.source} failed")
        out = io.StringIO()
        first = len(self.tracer.spans) if self.tracer else 0
        status, reason = "ok", ""
        if self.tracer:
            self.tracer.rid = req.rid
            root = self.tracer.open(f"cli.{req.command}")
        start = perf_counter()
        try:  # the outer handler also catches an alarm that lands in the finally
            signal.setitimer(signal.ITIMER_REAL, self.timeout)
            try:
                with contextlib.redirect_stdout(out):
                    code = self.cli.main(argv)
            finally:
                signal.setitimer(signal.ITIMER_REAL, 0)
            if code != 0:
                status, reason = "error", f"exit {code}: {out.getvalue().strip()[:200]}"
        except RequestTimeout:
            status, reason = "timeout", f"no answer within {self.timeout} s"
        except Exception:  # a crash in the program is a failed request, not ours
            status, reason = "error", traceback.format_exc(limit=3)[-400:]
        latency = perf_counter() - start
        if self.tracer:
            self.tracer.spans[root][2] = perf_counter()
            self.tracer.end_request(first)
        if status == "ok":
            self.outputs[req.rid] = out.getvalue().strip()
        return Record(req, status, latency, self.outputs.get(req.rid, ""), reason)


def serve(client: Client, groups, seconds: float | None, cycle: int):
    """Closed loop over ``groups`` of requests.

    With ``seconds``, stops at the schedule-cycle boundary nearest to that
    much time (after one cycle at least), so every run serves whole cycles
    and so the same mix of input classes; a stream that runs out starts again
    under new request ids.  Without, serves every group once.
    """
    records = []
    start = perf_counter()
    for index in itertools.count():
        if seconds is None and index == len(groups):
            break
        if seconds is not None and index and index % cycle == 0:
            spent = perf_counter() - start
            if spent + spent / (index // cycle) / 2 >= seconds:
                break
        lap, group = divmod(index, len(groups))
        for req in groups[group]:
            if lap:
                req = replace(req, rid=f"{req.rid}@{lap}",
                              source=req.source and f"{req.source}@{lap}")
            ref = reference()
            records.append(client.send(req))
            records[-1].reference = ref
    return records, perf_counter() - start


def serve_traced(cli, workdir: Path, timeout: float, groups):
    """Every request of ``groups`` twice in a row, plain and traced, in
    alternating order, so both passes meet the machine in the same state;
    then the cutoff reruns.  Returns (plain, traced, tracer, cutoff_s)."""
    tracer = Tracer()
    plain_client = Client(cli, workdir, timeout)
    traced_client = Client(cli, workdir, timeout, tracer)
    plain, traced = [], []

    def send_traced(req):
        tracer.install()
        try:
            traced.append(traced_client.send(req))
        finally:
            tracer.uninstall()

    requests = [req for group in groups for req in group]
    for index, req in enumerate(requests):
        if index % 2:
            send_traced(req)
        plain.append(plain_client.send(req))
        if not index % 2:
            send_traced(req)
    tracer.install()
    try:
        cutoff_s = cutoff_search(traced, tracer)
    finally:
        tracer.uninstall()
    return plain, traced, tracer, cutoff_s


# ---------------------------------------------------------------------------
# checking
# ---------------------------------------------------------------------------

def judge(records) -> None:
    """Turn each ok record whose answer is wrong into wrong/rejected, in order."""
    right: dict[str, bool] = {}
    outputs = {r.req.rid: r.stdout for r in records if r.status == "ok"}
    for rec in records:
        if rec.status != "ok":
            continue
        try:
            envelope = json.loads(rec.stdout)
        except json.JSONDecodeError:
            rec.status, rec.reason = "wrong", "stdout is not one JSON document"
            continue
        if rec.req.command == "check":
            kind, reason = verdicts.check_verdict(envelope, right.get(rec.req.source, False))
            if kind:
                rec.status, rec.reason = kind, reason
            continue
        given = None
        if rec.req.command == "factor":
            given = json.loads(outputs[rec.req.source])["result"]
        reason = verdicts.verdict(rec.req, envelope, given)
        right[rec.req.rid] = reason is None
        if reason:
            rec.status, rec.reason = "wrong", reason


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------

def tail(latencies):
    """(value, percentile) at the highest percentile with 10 samples beyond it."""
    ordered = sorted(latencies)
    k = max(0, len(ordered) - 11)
    return ordered[k], 100.0 * (k + 1) / len(ordered)


def at_reference_speed(records) -> list[float]:
    """Latency of each sent request scaled to the reference speed (see
    REFERENCE_S).  A timeout stays at the wall time it took: the timer that
    ended it runs on wall time, whatever the machine's speed."""
    sent = [r for r in records if r.latency is not None]
    refs = [r.reference for r in sent]
    scaled = []
    for i, rec in enumerate(sent):
        if rec.status == "timeout":
            scaled.append(rec.latency)
        else:
            nearby = refs[max(0, i - NEIGHBOURS):i + NEIGHBOURS + 1]
            scaled.append(rec.latency * REFERENCE_S / statistics.median(nearby))
    return scaled


def end_to_end(records, wall: float, setup: float, rss_mb: float) -> tuple[dict, dict]:
    """The end-to-end metrics as {name: (value, unit)}, and notes for the metadata.

    Latency and throughput are taken at the reference speed: throughput is
    the requests answered correctly over the summed scaled latencies of all
    requests sent.  The notes keep the same figures by wall time.
    """
    sent = at_reference_speed(records)
    raw = [r.latency for r in records if r.latency is not None]
    good = sum(r.status == "ok" for r in records)
    tail_ms, tail_pct = tail(sent)
    metrics = {
        "throughput_rps": (good / sum(sent), "req/s"),
        "latency_p50_ms": (1000 * statistics.median(sent), "ms"),
        "latency_tail_ms": (1000 * tail_ms, "ms"),
        "ok_frac": (good / len(records), "frac"),
        "setup_s": (setup, "s"),
        "peak_rss_mb": (rss_mb, "MB"),
    }
    notes = {
        "latency_tail_percentile": tail_pct,
        "latency_samples": len(sent),
        "reference_ms_p50": 1000 * statistics.median(r.reference for r in records
                                                     if r.latency is not None),
        "wall_throughput_rps": good / wall,
        "wall_latency_p50_ms": 1000 * statistics.median(raw),
        "wall_latency_tail_ms": 1000 * tail(raw)[0],
    }
    return metrics, notes


def per_layer(traced, plain, tracer, cutoff_s: float) -> dict:
    """The per-layer metrics as {name: (value, unit)}; a layer never reached reads 0."""
    stats = layer_stats(tracer.spans, keep=lambda span: not span[4].endswith("#fixed"))
    metrics = {}
    for name, fields in PER_LAYER_FUNCTIONS.items():
        row = stats.get(name, {"calls": 0, "self_s": 0.0, "p50_ms": 0.0, "max_ms": 0.0})
        for f in fields:
            unit = {"calls": "count", "self_s": "s"}.get(f, "ms")
            metrics[f"{name}.{f}"] = (row[f], unit)
    metrics["jsonio.self_s"] = (
        sum(v["self_s"] for k, v in stats.items() if k.startswith("jsonio.")), "s")
    metrics["series.apply_series.terms_used"] = (sum(
        json.loads(r.stdout)["result"]["terms"]
        for r in traced if r.req.command == "apply" and r.status == "ok"), "count")
    metrics["series.cutoff_search_s"] = (cutoff_s, "s")
    for command in COMMANDS:
        times = [1000 * r.latency for r in plain if r.req.command == command and r.latency]
        metrics[f"cli.{command}.p50_ms"] = (statistics.median(times) if times else 0.0, "ms")
        metrics[f"cli.{command}.max_ms"] = (max(times, default=0.0), "ms")
    spent = sum(r.latency or 0.0 for r in traced), sum(r.latency or 0.0 for r in plain)
    metrics["trace.overhead_frac"] = (spent[0] / spent[1] - 1, "frac")
    return metrics


def cutoff_search(records, tracer) -> float:
    """Time of each automatic apply minus a rerun at the cutoff it chose.

    The rerun goes through the traced public ``apply_series`` under the id
    ``<rid>#fixed``, which ``per_layer`` leaves out of the layer figures.
    """
    from finefrob import jsonio, series
    from finefrob.scalar import AbsValue

    first = {s[4]: s[2] - s[1] for s in tracer.spans if s[0] == "series.apply_series"}
    total = 0.0
    for rec in records:
        if rec.req.command != "apply" or rec.status != "ok" or "--terms" in rec.req.args:
            continue
        args = dict(zip(rec.req.args[::2], rec.req.args[1::2]))
        absval = args["--abs"]
        av = (AbsValue.archimedean() if absval == "arch"
              else AbsValue.padic(int(absval.split(":")[1])))
        terms = json.loads(rec.stdout)["result"]["terms"]
        tracer.rid = rec.req.rid + "#fixed"
        start = perf_counter()
        series.apply_series(jsonio.matrix_from_json(rec.req.doc),
                            series.SeriesSpec.named(args["--fn"].upper()), av,
                            precision=int(args.get("--prec", 128)), terms=terms)
        total += first[rec.req.rid] - (perf_counter() - start)
    return total


# ---------------------------------------------------------------------------
# set-up and metadata
# ---------------------------------------------------------------------------

def measure_setup() -> float:
    """Median time for a fresh interpreter to import finefrob.cli and build its parser."""
    samples = []
    for i in range(SETUP_REPEATS + 1):
        done = subprocess.run([sys.executable, "-c", SETUP_PROBE, str(SRC)], cwd=ROOT,
                              capture_output=True, text=True, timeout=60, check=True)
        if i:  # the first run compiles bytecode and warms the file cache
            samples.append(float(done.stdout))
    return statistics.median(samples)


def metadata(records) -> dict:
    digest = hashlib.sha256()
    for rec in records:
        if rec.req.command != "check":
            digest.update(f"{rec.req.rid}\t{rec.status}\t{rec.stdout}\n".encode())
    src_lines = sum(len(p.read_text().splitlines()) for p in sorted(SRC.rglob("*.py")))
    return {
        "output_digest": digest.hexdigest(),
        "digest_requests": sum(r.req.command != "check" for r in records),
        "src_lines": src_lines,
        "python": platform.python_version(),
        "mpmath": mpmath.__version__,
        "nproc": os.cpu_count(),
    }


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

def run(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    from finefrob import cli

    settings = SETTINGS[workload]
    cycle = workloads.CYCLES[workload]
    setup = None if trace else measure_setup()
    groups = workloads.STREAMS[workload](seed, settings.trace_groups if trace else settings.groups)
    workdir = OUT / f"work-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    previous = signal.signal(signal.SIGALRM, _on_alarm)
    try:
        if trace:
            plain, traced, tracer, cutoff_s = serve_traced(cli, workdir, settings.timeout, groups)
        else:
            plain, wall = serve(Client(cli, workdir, settings.timeout), groups, seconds, cycle)
            rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    finally:
        signal.signal(signal.SIGALRM, previous)
        shutil.rmtree(workdir, ignore_errors=True)

    judge(plain)
    if trace:
        for a, b in zip(plain, traced):
            if a.status == "ok" and b.status == "ok" and a.stdout != b.stdout:
                a.status, a.reason = "wrong", "traced run printed a different answer"
        metrics, notes = per_layer(traced, plain, tracer, cutoff_s), {}
    else:
        metrics, notes = end_to_end(plain, wall, setup, rss_mb)
    failures = [
        {"rid": r.req.rid, "status": r.status, "reason": r.reason,
         "latency_ms": None if r.latency is None else 1000 * r.latency}
        for r in plain if r.status != "ok"
    ]
    summary = {
        "correct": not any(r.status == "wrong" for r in plain),
        "attempted": len(plain),
        "failed": len(failures),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    samples = [[r.req.rid, r.status, r.latency and 1000 * r.latency,
                r.reference and 1000 * r.reference] for r in plain]
    record = dict(summary, workload=workload, seed=seed, seconds=seconds, trace=trace,
                  meta=dict(metadata(plain), **notes), failures=failures, samples=samples)
    OUT.mkdir(parents=True, exist_ok=True)
    name = f"{workload}-seed{seed}-trace{int(trace)}"
    (OUT / f"{name}.json").write_text(json.dumps(record, indent=1))
    if trace:
        with open(OUT / f"{name}.spans.jsonl", "w") as handle:
            for span in tracer.spans:
                handle.write(json.dumps(span) + "\n")
    return record


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*SETTINGS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "finefrob" / "cli.py").is_file():
        print(f"no finefrob sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    names = list(SETTINGS) if args.workload == "all" else [args.workload]
    for name in names:
        record = run(name, args.seed, args.seconds, bool(args.trace))
        for metric, entry in record["metrics"].items():
            print(f"{name} {metric} {entry['value']:.6g} {entry['unit']}")
        print(f"{name} attempted {record['attempted']} failed {record['failed']} "
              f"correct {record['correct']}")
        for fail in record["failures"][:20]:
            print(f"{name} failed {fail['rid']} {fail['status']}: {fail['reason'][:160]}")
        print("meta " + json.dumps(record["meta"], sort_keys=True))
        print(json.dumps({k: record[k] for k in ("correct", "attempted", "failed", "metrics")}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
