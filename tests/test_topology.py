"""Classes that topology fixes, and a trace certificate of the class.

``geometry`` builds simplicial cochain documents without modclass: the
cross-polytope spheres S^1 to S^3 with the antipodal Z/2, whose class is
trivial exactly when n is odd, and the boundary of a triangle with S3,
whose class is the sign character.  The command line must print those
answers, and print them again after every non-unit action is twisted by
a random homotopy (``test_invariance.homotopy_twisted``).

``oracle.loop_characters`` reads the cocycle on every loop off the traces
of the given chain maps (the Lefschetz numbers of the loop's powers), with
no decomposition.  Each loop's entry in ``decide_modular_class``'s line
must equal it, and the class is trivial exactly when every loop's value
is 1.
"""

import json
import random

import pytest

from geometry import cases, sphere, triangle
from modclass import (
    InputDocument,
    cli,
    decide_modular_class,
    parse_data,
    serialize,
    verify_rep,
)
from oracle import loop_characters
from randgen import rand_ruth, rand_trivialization, rand_vector_rep, standard_fixtures
from test_invariance import homotopy_twisted

TWIST_SEEDS = range(3)


def modular_class_report(document: dict, path, capsys) -> dict:
    path.write_text(json.dumps(document))
    code = cli.main(["modular-class", str(path), "--format", "json"])
    report = json.loads(capsys.readouterr().out)
    assert code == 0 and report["ok"]
    return report


def twisted_documents(document: dict):
    """``document`` with each non-unit action twisted by a random homotopy, per seed."""
    rep = parse_data(document).rep
    for seed in TWIST_SEEDS:
        twisted = homotopy_twisted(random.Random(seed), rep)
        assert twisted.action != rep.action
        yield serialize(InputDocument(rep.groupoid, twisted, None, None))


@pytest.mark.parametrize("n, cells", [(1, 8), (2, 26), (3, 80)])
def test_the_antipodal_map_of_a_sphere_acts_by_its_degree(n, cells, tmp_path, capsys):
    case = sphere(n)
    dims = case.document["complex"]["*"]["dims"]
    assert sum(dims.values()) == cells
    path = tmp_path / f"{case.name}.json"
    for document in [case.document, *twisted_documents(case.document)]:
        report = modular_class_report(document, path, capsys)
        assert report["class"] == ("trivial" if n % 2 else "nontrivial")
        assert report["berezinian"]["a"] == str((-1) ** (n + 1))


def test_s3_acts_on_the_triangle_by_the_sign_character(tmp_path, capsys):
    case = triangle()
    path = tmp_path / "triangle.json"
    for document in [case.document, *twisted_documents(case.document)]:
        report = modular_class_report(document, path, capsys)
        assert report["class"] == "nontrivial"
        # one object and no trivialization: the cocycle is the Berezinian itself
        assert report["berezinian"] == report["cochain"] == case.berezinian


def reps_with_loops():
    """Homotopy and vector reps over the standard fixtures, and the topology cases."""
    fixtures = standard_fixtures()
    for seed in range(120):
        rng = random.Random(seed)
        fx = fixtures[seed % len(fixtures)]
        yield rand_ruth(rng, fx, unimodular=seed % 5 == 1), rand_trivialization(rng, fx.gpd)
        if seed % 3 == 0:
            yield rand_vector_rep(rng, fx, dim=1 + seed % 3), None
    for case in cases():
        rep = parse_data(case.document).rep
        yield rep, None
        yield homotopy_twisted(random.Random(0), rep), None


def test_the_cocycle_on_loops_is_the_trace_character():
    outcomes, kinds = set(), set()
    for rep, sigma in reps_with_loops():
        characters = loop_characters(rep)
        line, report = decide_modular_class(rep, verify_rep(rep), sigma)
        assert {a: line(a) for a in characters} == characters
        assert report.is_coboundary == all(v == 1 for v in characters.values())
        outcomes.add(report.is_coboundary)
        kinds.add(type(rep).__name__)
    assert outcomes == {True, False}
    assert kinds == {"RepUpToWeakHomotopy", "VectorRep"}


def test_the_trace_character_reads_the_topology():
    for case in cases():
        characters = loop_characters(parse_data(case.document).rep)
        assert characters == {a: int(v) for a, v in case.berezinian.items()}
