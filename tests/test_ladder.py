"""The matrix kinds of ``tools/ladder.py`` exercise the minimal polynomial as
its docstring says.

``ladder.build`` is run on the same seeds the ladder uses, and the Krylov
relations ``minimal_polynomial`` builds are counted by wrapping
``matrix._local_annihilator``: a dense matrix and a near-cyclic one each
take one relation (degrees n and n - 1), two companion blocks take two
nontrivial relations, of degrees n // 2 and n - n // 2, and the repeated
kind takes the relation f^2 of degree 2k, k = max(1, n // 4), and g of
degree n - 2k when that is not 0.
"""

import importlib.util
import random
from pathlib import Path

import pytest

import finefrob.matrix
from finefrob import field_from_tag

_SPEC = importlib.util.spec_from_file_location(
    "ladder", Path(__file__).resolve().parent.parent / "tools" / "ladder.py")
ladder = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(ladder)


def _repeated(n):
    k = max(1, n // 4)
    return [2 * k] + [n - 2 * k] * (n > 2 * k), n


EXPECTED = {  # kind -> n -> (relation degrees, degree of the minimal polynomial)
    "dense": lambda n: ([n], n),
    "near_cyclic": lambda n: ([n - 1], n - 1),
    "two_blocks": lambda n: ([n // 2, n - n // 2], n),
    "repeated": _repeated,
}


@pytest.mark.parametrize("tag", ladder.FIELDS)
@pytest.mark.parametrize("kind", ladder.KINDS)
@pytest.mark.parametrize("n", [2, 5, 12])
def test_ladder_kinds_build_the_relations_they_document(tag, kind, n, monkeypatch):
    relation = finefrob.matrix._local_annihilator
    degrees = []

    def recording(*args):
        g = relation(*args)
        degrees.append(len(g) - 1)
        return g

    monkeypatch.setattr(finefrob.matrix, "_local_annihilator", recording)
    for seed in range(2):
        degrees.clear()
        m = ladder.build(field_from_tag(tag), kind, n,
                         random.Random(f"{tag}/{kind}/{n}/{seed}"))
        mpoly = finefrob.matrix.minimal_polynomial(m)
        assert (degrees, mpoly.degree) == EXPECTED[kind](n)
