"""Size ladder: per-layer times of a base revision and of the working tree.

    python3 tools/ladder.py --base <rev>          # writes BENCH_ladder.json

For each field (Q, F_1009), each kind of matrix and each size, a fresh
interpreter imports finefrob from one source tree, builds the seeded
matrices and times, for each seed, ``minimal_polynomial``, ``factor`` of
that polynomial, ``newton``, ``complete_jc`` and ``verify_complete_jc`` of
its result: n = 2..24 for all five, n = 32 and 40 for the minimal polynomial
only.  ``newton`` is ``jordan_chevalley._newton_root(q, mu)`` as route 1 of
``complete_jc`` calls it, mu the minimal polynomial and q its squarefree part
over Q, the radical of the factor layer's result over F_p.
The base tree is ``git archive`` of ``--base``; the two trees run one after
the other for every size, in an order that flips from size to size, so a
drift of the host's speed falls on both.  Kinds, built by ``build``; C(f) is
the companion matrix of f and P is unit upper triangular with entries in
[-1, 1], so P^-1 e_0 = e_0:

- ``dense``: entries a / b, a in [-9, 9] and b in {1, 1, 2, 3} over Q,
  uniform residues over F_1009; such a matrix is cyclic, so e_0 alone gives
  the minimal polynomial;
- ``near_cyclic``: P diag(C(f), r) P^-1 with f = (X - r) g, g monic of
  degree n - 2 with small random coefficients: the minimal polynomial is f,
  of degree n - 1 < n, from the relation of e_0; every later basis vector
  is annihilated by it, so a loop over the basis that tests each vector
  against the product so far builds no second relation;
- ``two_blocks``: P diag(C(f), C(g)) P^-1 with f, g monic, coprime, of
  degrees n // 2 and n - n // 2 with small random coefficients: e_0 gives
  f, and e_{n // 2} leaves f(M) e_{n // 2} != 0 with relation g, so the
  minimal polynomial f g needs two nontrivial relations;
- ``repeated``: P diag(C(f^2), C(g)) P^-1 with f monic irreducible of
  degree k = max(1, n // 4) and g monic of degree n - 2k prime to f (no
  block when n = 2k), small random coefficients: the factor f has
  multiplicity 2, so its Hensel root in K[X]/(f^2) is not X; e_0 gives f^2
  and e_{2k} the relation g.

Every call runs under a ``TIMEOUT_S`` alarm; a call past it is recorded as
``"timeout"`` and never dropped, and a layer whose input timed out or failed
is ``"not run"``.  Before each call the child times perfbench's reference
job, ``perfbench.run.reference()``, and records the call's time twice: as
measured and scaled by ``REFERENCE_S`` over the reference time, so that it
reads as if the job took ``REFERENCE_S`` (a shared host changes speed by a
third within seconds).  A summary gives p50 and max over the ``SEEDS`` seeds,
in ms, of both (``p50_ms``, ``max_ms`` and ``p50_ref_ms``, ``max_ref_ms``);
each reads ``"timeout"`` when a timed-out call reaches it.  Each tree runs in
a single process at a time.  A ``summary`` block gives, for each field and
layer, the median head/base ratio of ``p50_ref_ms`` over the points with
n >= ``RATIO_MIN_N`` and the number of points with a timed-out call.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
LAYERS = ("minimal_polynomial", "factor", "newton", "complete_jc", "verify_complete_jc")
FIELDS = ("Q", "Fp:1009")
KINDS = ("dense", "near_cyclic", "two_blocks", "repeated")
FULL_SIZES = range(2, 25)
MINPOLY_SIZES = (32, 40)
SEEDS = 5
TIMEOUT_S = 20.0
RATIO_MIN_N = 8


def build(field, kind: str, n: int, rng):
    """The seeded n x n matrix of one kind, from the finefrob first on sys.path."""
    from fractions import Fraction

    from finefrob import Matrix, Polynomial, factor
    from finefrob.poly import poly_gcd

    if kind == "dense":
        if field.characteristic:
            return Matrix(field, [[rng.randrange(field.characteristic) for _ in range(n)]
                                  for _ in range(n)])
        return Matrix(field, [[Fraction(rng.randint(-9, 9), rng.choice((1, 1, 2, 3)))
                               for _ in range(n)] for _ in range(n)])

    def monic(d):
        return Polynomial(field, [rng.randint(-3, 3) for _ in range(d)] + [1])

    def prime_to(f, d):
        g = monic(d)
        while poly_gcd(f, g).degree:
            g = monic(d)
        return g

    if kind == "near_cyclic":
        r = rng.randint(-5, 5)
        blocks = [Matrix.companion(Polynomial(field, [-r, 1]) * monic(n - 2)),
                  Matrix(field, [[r]])]
    elif kind == "two_blocks":
        f = monic(n // 2)
        blocks = [Matrix.companion(f), Matrix.companion(prime_to(f, n - n // 2))]
    else:
        k = max(1, n // 4)
        f = monic(k)
        while factor(f).factors != ((f, 1),):
            f = monic(k)
        blocks = [Matrix.companion(f * f)]
        if n > 2 * k:
            blocks.append(Matrix.companion(prime_to(f, n - 2 * k)))
    rows, at = [[0] * n for _ in range(n)], 0
    for b in blocks:
        for i, row in enumerate(b.rows):
            rows[at + i][at : at + len(row)] = row
        at += len(b.rows)
    p = Matrix(field, [[int(i == j) or (i < j) * rng.randint(-1, 1) for j in range(n)]
                       for i in range(n)])
    return p * Matrix(field, rows) * p.inverse()


CHILD = r'''
import json, random, signal, sys, time
sys.path[:0] = sys.argv[1:4]
from finefrob import field_from_tag, minimal_polynomial, factor
from finefrob import complete_jc, squarefree_part, verify_complete_jc
from finefrob.errors import FinefrobError
from finefrob.jordan_chevalley import _newton_root
from ladder import SEEDS, TIMEOUT_S, build
from perfbench.run import REFERENCE_S, reference

tag, kind, n, layers = sys.argv[4:8]
field, n, layers = field_from_tag(tag), int(n), layers.split(",")


class Timeout(Exception):
    pass


def alarm(signum, frame):
    raise Timeout


def timed(fn, *args):
    """(value, [ms, ms at the reference speed]), or None and why not."""
    scale = REFERENCE_S / reference()
    signal.setitimer(signal.ITIMER_REAL, TIMEOUT_S)
    start = time.perf_counter()
    try:
        value = fn(*args)
        ms = 1000 * (time.perf_counter() - start)
        return value, [ms, ms * scale]
    except Timeout:
        return None, "timeout"
    except FinefrobError as exc:
        return None, "error: " + type(exc).__name__
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)


signal.signal(signal.SIGALRM, alarm)
for seed in range(SEEDS):
    m = build(field, kind, n, random.Random(f"{tag}/{kind}/{n}/{seed}"))
    out = {}
    mp, out["minimal_polynomial"] = timed(minimal_polynomial, m)
    if "factor" in layers:
        fact, out["factor"] = timed(factor, mp) if mp is not None else (None, "not run")
        if (mp if field.characteristic == 0 else fact) is None:
            out["newton"] = "not run"
        else:
            q = squarefree_part(mp) if field.characteristic == 0 else fact.radical(field)
            out["newton"] = timed(_newton_root, q, mp)[1]
        dec, out["complete_jc"] = timed(complete_jc, m)
        out["verify_complete_jc"] = (timed(verify_complete_jc, m, dec)[1]
                                     if dec is not None else "not run")
    print(json.dumps(out), flush=True)
'''


def run_tree(src: Path, tag: str, kind: str, n: int, layers) -> list[dict]:
    """One sample per seed: layer -> [ms, ms at the reference speed],
    "timeout", "not run" or "error: ..."."""
    argv = [sys.executable, "-c", CHILD, str(src), str(Path(__file__).resolve().parent),
            str(ROOT), tag, kind, str(n), ",".join(layers)]
    # each call has its own alarm; the outer limit only catches a hung interpreter
    limit = 30 + SEEDS * len(layers) * TIMEOUT_S * 2
    done = subprocess.run(argv, capture_output=True, text=True, timeout=limit, check=True)
    return [json.loads(line) for line in done.stdout.splitlines()]


def summary(samples: list) -> dict:
    """p50 and max over the seeds, as measured and at the reference speed; a
    timeout counts as longer than any time."""
    ran = [s for s in samples if s != "not run" and not str(s).startswith("error")]
    out = {"timeouts": samples.count("timeout"),
           "errors": sorted({s for s in samples if str(s).startswith("error")}),
           "not_run": samples.count("not run")}
    for unit, at in (("ms", 0), ("ref_ms", 1)):
        times = sorted((s if s == "timeout" else s[at] for s in ran),
                       key=lambda s: float("inf") if s == "timeout" else s)
        if times:
            p50, top = times[(len(times) - 1) // 2], times[-1]
            out[f"p50_{unit}"] = p50 if p50 == "timeout" else round(p50, 3)
            out[f"max_{unit}"] = top if top == "timeout" else round(top, 3)
    return out


def ratios(rows: list) -> list:
    """For each field and layer, the median over the points with n >=
    ``RATIO_MIN_N`` of the head/base ``p50_ref_ms`` ratio, with the number
    of points it is taken over and their range, and the number of points of
    any n with a timed-out call, per tree.  A single point resolves only
    differences of about a third; the median over many resolves finer ones."""
    out = []
    for tag in FIELDS:
        for layer in LAYERS:
            points = [r for r in rows if r["field"] == tag and r["layer"] == layer]
            both = [r["head"]["p50_ref_ms"] / r["base"]["p50_ref_ms"] for r in points
                    if r["n"] >= RATIO_MIN_N and all(isinstance(r[name].get("p50_ref_ms"), float)
                                                    for name in ("base", "head"))]
            out.append({
                "field": tag, "layer": layer, "points": len(both),
                "median_ratio": round(statistics.median(both), 3) if both else None,
                "min_ratio": round(min(both), 3) if both else None,
                "max_ratio": round(max(both), 3) if both else None,
                "timed_out_points": {name: sum(r[name]["timeouts"] > 0 for r in points)
                                     for name in ("base", "head")},
            })
    return out


def export(rev: str, into: Path) -> Path:
    archive = subprocess.run(["git", "archive", rev, "src"], cwd=ROOT, capture_output=True,
                             check=True).stdout
    subprocess.run(["tar", "-x", "-C", str(into)], input=archive, check=True)
    return into / "src"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--base", required=True, help="git revision to compare against")
    args = parser.parse_args(argv)
    rev = subprocess.run(["git", "rev-parse", "--short", args.base], cwd=ROOT,
                         capture_output=True, text=True, check=True).stdout.strip()
    cases = [(n, LAYERS) for n in FULL_SIZES] + [(n, LAYERS[:1]) for n in MINPOLY_SIZES]
    rows = []
    with tempfile.TemporaryDirectory() as tmp:
        trees = {"base": export(rev, Path(tmp)), "head": ROOT / "src"}
        flip = False
        for tag in FIELDS:
            for kind in KINDS:
                for n, layers in cases:
                    order = ("head", "base") if flip else ("base", "head")
                    flip = not flip
                    got = {name: run_tree(trees[name], tag, kind, n, layers)
                           for name in order}
                    for layer in layers:
                        row = {"field": tag, "kind": kind, "n": n, "layer": layer}
                        for name in ("base", "head"):
                            row[name] = summary([s[layer] for s in got[name]])
                        rows.append(row)
                    print(tag, kind, n, *(f"{r['layer']} {r['base'].get('p50_ms')} -> "
                                          f"{r['head'].get('p50_ms')}" for r in rows[-len(layers):]),
                          file=sys.stderr, flush=True)
    record = {
        "command": f"python3 tools/ladder.py --base {rev}",
        "base": rev,
        "head": "working tree",
        "seeds": SEEDS,
        "timeout_s": TIMEOUT_S,
        "unit": "ms per call, p50 and max over the seeds; *_ref_ms at perfbench.run.REFERENCE_S",
        "machine": {"python": platform.python_version(), "nproc": os.cpu_count(),
                    "platform": platform.platform()},
        "summary": ratios(rows),
        "rows": rows,
    }
    (ROOT / "BENCH_ladder.json").write_text(json.dumps(record, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
