"""Tests of the benchmark itself: generators, verdicts, timeouts, tracing.

Run from the repository root: python3 -m pytest -q perfbench/tests
"""

import contextlib
import copy
import io
import json
import signal
from fractions import Fraction

import mpmath
import pytest

from finefrob import cli

from perfbench import exact, run, verdicts, workloads
from perfbench.tracing import Tracer, layer_stats, self_times


def _answer(req, tmp_path, source_out=None):
    """Run one request through cli.main and return the parsed stdout."""
    path = tmp_path / f"{req.rid}.json"
    if req.command == "factor":
        path.write_text(json.dumps(source_out["result"]))
        argv = ["factor", str(path)]
    else:
        path.write_text(json.dumps(req.doc))
        argv = [req.command, str(path)]
        if req.command == "check":
            result = tmp_path / f"{req.rid}.result.json"
            result.write_text(json.dumps(source_out))
            argv.append(str(result))
        argv += list(req.args)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert cli.main(argv) == 0
    return json.loads(out.getvalue())


def _docs(groups):
    return [(r.rid, r.doc, r.args) for g in groups for r in g]


@pytest.mark.parametrize("name", sorted(workloads.STREAMS))
def test_streams_repeat_for_a_seed_and_differ_across_seeds(name):
    stream = workloads.STREAMS[name]
    first = _docs(stream(3, 8))
    assert first == _docs(stream(3, 8))
    assert [d for _, d, _ in first] != [d for _, d, _ in _docs(stream(4, 8))]


def test_structured_truth_is_consistent():
    import random

    truth = workloads.k_regular_fp(random.Random(1), 5, 8, squarefree=False)
    p, m, s = 5, truth["m"], truth["S"]
    n = exact.sub(m, s, p)
    assert exact.mul(s, n, p) == exact.mul(n, s, p)
    assert exact.is_zero(exact.power(n, len(m), p)) and not exact.is_zero(n)
    assert exact.is_zero(exact.poly_eval_matrix(truth["minpoly"], m, p))


def _decomposition_answers(tmp_path, stream, seed, index):
    group = stream(seed, index + 1)[index]
    outs = {}
    for req in group:
        source = outs.get(req.source)
        outs[req.rid] = _answer(req, tmp_path, source)
    return group, outs


def _corrupt_first_entry(envelope, path):
    """Add one to the first scalar found under ``path`` in the result."""
    bad = copy.deepcopy(envelope)
    node = bad["result"]
    for key in path:
        node = node[key]
    while isinstance(node[0], list):
        node = node[0]
    node[0] = str(Fraction(node[0]) + 1)
    return bad


CORRUPTIONS = {
    "minpoly": ("coeffs",),
    "factor": ("factors", 0, "coeffs"),
    "jc": ("S", "entries"),
    "cjc": ("H", "entries"),
}


@pytest.mark.parametrize("stream,index", [(workloads.q_decompose, 1),
                                          (workloads.fp_decompose, 0)])
def test_verdicts_accept_answers_and_reject_one_corrupted_entry(tmp_path, stream, index):
    group, outs = _decomposition_answers(tmp_path, stream, 1, index)
    right = {}
    for req in group:
        env = outs[req.rid]
        if req.command == "check":
            assert verdicts.check_verdict(env, right[req.source]) == (None, None)
            flipped = copy.deepcopy(env)
            flipped["result"]["passed"] = False
            assert verdicts.check_verdict(flipped, True)[0] == "rejected"
            assert verdicts.check_verdict(env, False)[0] == "wrong"
            continue
        given = outs[req.source]["result"] if req.source else None
        assert verdicts.verdict(req, env, given) is None, req.rid
        right[req.rid] = True
        bad = _corrupt_first_entry(env, CORRUPTIONS[req.command])
        assert verdicts.verdict(req, bad, given) is not None, req.rid


def test_series_verdicts_reject_one_corrupted_entry(tmp_path):
    groups = workloads.q_series(2, 3)
    seen = set()
    for group in (groups[0], groups[2]):  # an archimedean and a p-adic matrix
        outs = {}
        for req in group:
            if req.command == "check":
                continue
            outs[req.rid] = env = _answer(req, tmp_path)
            assert verdicts.verdict(req, env) is None, req.rid
            kind = env["result"].get("kind", req.command)
            seen.add(kind)
            if req.command == "domain":
                bad = copy.deepcopy(env)
                bad["result"]["eigen_data"][0]["abs_lambda"] = "12345.0"
            elif req.command == "apply" and kind == "arch":
                bad = copy.deepcopy(env)
                with mpmath.workdps(60):  # 3x + 7 is off by 2x + 7, far beyond any bound
                    entry = mpmath.mpf(env["result"]["entries"][0][0])
                    bad["result"]["entries"][0][0] = mpmath.nstr(3 * entry + 7, 50)
            elif req.command == "apply":
                bad = _corrupt_first_entry(env, ("entries",))
            elif req.command == "normalize" and env["result"]["quadratic"]:
                bad = _corrupt_first_entry(env, ("quadratic", 0, "P", "entries"))
            else:
                bad = _corrupt_first_entry(env, ("A0", "entries"))
            assert verdicts.verdict(req, bad) is not None, req.rid
    assert {"fine", "domain", "arch", "padic"} <= seen


def test_a_forced_timeout_is_a_recorded_failure(tmp_path):
    group = workloads.q_decompose(1, 4)[3]  # a dense 9x9 matrix with an open factor search
    client = run.Client(cli, tmp_path, timeout=1e-4)
    previous = signal.signal(signal.SIGALRM, run._on_alarm)
    try:
        records, _ = run.serve(client, [group], None, 1)
    finally:
        signal.signal(signal.SIGALRM, previous)
    cjc = next(r for r in records if r.req.command == "cjc")
    assert cjc.status == "timeout" and cjc.latency >= 1e-4
    check = next(r for r in records if r.req.source == cjc.req.rid)
    assert check.status == "skipped" and check.latency is None
    assert len(records) == len(group)


def test_self_time_on_a_synthetic_span_tree():
    spans = [
        ["root", 0.0, 10.0, -1, "r"],
        ["a", 1.0, 4.0, 0, "r"],
        ["a.child", 2.0, 3.0, 1, "r"],
        ["b", 5.0, 6.0, 0, "r"],
        ["b", 7.0, 9.0, 0, "r"],
    ]
    assert self_times(spans) == [4.0, 2.0, 1.0, 1.0, 2.0]
    stats = layer_stats(spans)
    assert stats["b"]["calls"] == 2 and stats["b"]["self_s"] == 3.0
    assert stats["b"]["p50_ms"] == 1500.0 and stats["b"]["max_ms"] == 2000.0
    assert "root" not in layer_stats(spans, keep=lambda s: s[0] != "root")


def test_tracer_patches_calling_modules_and_restores_them():
    import finefrob.jordan_chevalley as jc
    import finefrob.poly as poly

    original = jc.factor
    tracer = Tracer()
    tracer.install()
    try:
        assert jc.factor is not original and poly.factor is not original
        assert jc.factor is poly.factor
        from finefrob import Matrix, QQ

        jc.complete_jc(Matrix(QQ, [[Fraction(1), Fraction(1)], [Fraction(0), Fraction(1)]]))
    finally:
        tracer.uninstall()
    assert jc.factor is original and poly.factor is original
    names = {s[0] for s in tracer.spans}
    assert {"jordan_chevalley.complete_jc", "poly.factor",
            "matrix.minimal_polynomial"} <= names


def test_tail_keeps_ten_samples_beyond():
    value, pct = run.tail([float(i) for i in range(100)])
    assert value == 89.0 and pct == 90.0
    assert run.tail([1.0, 2.0]) == (1.0, 50.0)


def test_latencies_are_scaled_by_the_nearby_reference_times():
    req = workloads.Request("r", "minpoly", None)
    records = [run.Record(req, "ok", 0.01, reference=run.REFERENCE_S * k)
               for k in (1, 1, 2, 2, 2)]
    records.insert(2, run.Record(req, "skipped", None))  # never sent: no sample
    records.append(run.Record(req, "timeout", 1.5, reference=run.REFERENCE_S * 4))
    assert run.at_reference_speed(records) == pytest.approx(
        [0.01, 0.01 / 1.5, 0.005, 0.005, 0.005, 1.5])
